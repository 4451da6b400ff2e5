"""Syscall templates and the template text format.

One template per line:

    name(param:kind[, param:kind ...]) [-> ResourceKind] [helper]

Kinds: ``s32[min..max]``, ``s64``, ``buf[maxlen]``, ``res:Kind``,
``enum{v1,v2,...}``.  ``#`` starts a comment.  Ordinals are assigned by
file order, so the file is the single source of truth for the wire
encoding of syscall names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path

U32_MAX = 0xFFFFFFFF
U64_MAX = 0xFFFFFFFFFFFFFFFF


class TemplateError(Exception):
    """Raised for malformed or inconsistent template files."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class ParamKind(Enum):
    SCALAR32 = "scalar32"
    SCALAR64 = "scalar64"
    BUFFER = "buffer"
    RESOURCE = "resource"
    CONST_ENUM = "const_enum"


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: ParamKind
    range: tuple[int, int] | None = None      # scalars
    max_len: int | None = None                # buffers
    resource_kind: str | None = None          # resources
    allowed: tuple[int, ...] = ()             # const_enum

    def __post_init__(self):
        if self.kind is ParamKind.CONST_ENUM and not self.allowed:
            raise TemplateError(f"enum param '{self.name}' has no allowed values")
        if self.kind is ParamKind.BUFFER and (self.max_len is None or self.max_len < 0):
            raise TemplateError(f"buffer param '{self.name}' needs max_len >= 0")
        if self.kind is ParamKind.RESOURCE and not self.resource_kind:
            raise TemplateError(f"resource param '{self.name}' names no kind")


@dataclass(frozen=True)
class SyscallTemplate:
    name: str
    ordinal: int
    params: tuple[ParamSpec, ...]
    produces_resource: str | None = None
    is_helper: bool = False


@dataclass
class TemplateSet:
    """Validated, ordinal-indexed template collection."""

    templates: list[SyscallTemplate]
    by_name: dict[str, SyscallTemplate] = field(init=False)
    by_ordinal: dict[int, SyscallTemplate] = field(init=False)

    def __post_init__(self):
        self.by_name = {t.name: t for t in self.templates}
        self.by_ordinal = {t.ordinal: t for t in self.templates}

    def __len__(self):
        return len(self.templates)

    def __iter__(self):
        return iter(self.templates)

    def producers_of(self, kind: str) -> list[SyscallTemplate]:
        return [t for t in self.templates if t.produces_resource == kind]


_LINE_RE = re.compile(
    r"^(?P<name>[A-Za-z_]\w*)\s*\((?P<params>[^)]*)\)"
    r"(?:\s*->\s*(?P<res>[A-Za-z_]\w*))?"
    r"(?P<helper>\s+helper)?\s*$"
)
_S32_RE = re.compile(r"^s32(?:\[(\d+)\.\.(\d+)\])?$")
_BUF_RE = re.compile(r"^buf\[(\d+)\]$")
_ENUM_RE = re.compile(r"^enum\{([^}]*)\}$")


def _split_params(text: str) -> list[str]:
    """Split a param list on commas, except inside enum braces."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _parse_param(text: str, lineno: int) -> ParamSpec:
    if ":" not in text:
        raise TemplateError(f"param '{text}' missing ':kind'", lineno)
    name, kind = (part.strip() for part in text.split(":", 1))
    if not name.isidentifier():
        raise TemplateError(f"bad param name '{name}'", lineno)
    m = _S32_RE.match(kind)
    if m:
        lo = int(m.group(1)) if m.group(1) else 0
        hi = int(m.group(2)) if m.group(2) else U32_MAX
        if lo > hi or hi > U32_MAX:
            raise TemplateError(f"bad s32 range on '{name}'", lineno)
        return ParamSpec(name, ParamKind.SCALAR32, range=(lo, hi))
    if kind == "s64":
        return ParamSpec(name, ParamKind.SCALAR64, range=(0, U64_MAX))
    m = _BUF_RE.match(kind)
    if m:
        max_len = int(m.group(1))
        if max_len > 0xFFFF:
            raise TemplateError(f"buffer '{name}' max_len exceeds 65535", lineno)
        return ParamSpec(name, ParamKind.BUFFER, max_len=max_len)
    if kind.startswith("res:"):
        rkind = kind[4:].strip()
        if not rkind.isidentifier():
            raise TemplateError(f"bad resource kind on '{name}'", lineno)
        return ParamSpec(name, ParamKind.RESOURCE, resource_kind=rkind)
    m = _ENUM_RE.match(kind)
    if m:
        raw = [v.strip() for v in m.group(1).split(",") if v.strip()]
        if not raw:
            raise TemplateError(f"enum param '{name}' has no values", lineno)
        try:
            allowed = tuple(int(v, 0) for v in raw)
        except ValueError:
            raise TemplateError(f"non-integer enum value on '{name}'", lineno)
        if any(not 0 <= v <= U32_MAX for v in allowed):
            raise TemplateError(f"enum value out of u32 range on '{name}'", lineno)
        return ParamSpec(name, ParamKind.CONST_ENUM, allowed=allowed)
    raise TemplateError(f"unknown kind '{kind}' on param '{name}'", lineno)


def parse_templates(text: str) -> TemplateSet:
    templates: list[SyscallTemplate] = []
    names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise TemplateError(f"unparseable template: '{line}'", lineno)
        name = m.group("name")
        if name in names:
            raise TemplateError(f"duplicate template name '{name}'", lineno)
        names.add(name)
        params_text = m.group("params").strip()
        params = (
            tuple(_parse_param(p, lineno) for p in _split_params(params_text))
            if params_text
            else ()
        )
        templates.append(
            SyscallTemplate(
                name=name,
                ordinal=len(templates),
                params=params,
                produces_resource=m.group("res"),
                is_helper=bool(m.group("helper")),
            )
        )
    if not templates:
        raise TemplateError("no templates")

    produced = {t.produces_resource for t in templates if t.produces_resource}
    for t in templates:
        for p in t.params:
            if p.kind is ParamKind.RESOURCE and p.resource_kind not in produced:
                raise TemplateError(
                    f"template '{t.name}' consumes resource kind "
                    f"'{p.resource_kind}' that no template produces"
                )
    return TemplateSet(templates)


def load_templates(path: str | Path) -> TemplateSet:
    return parse_templates(Path(path).read_text())


def bundled_template_path() -> Path:
    """Path of the template file shipped for the simulated target."""
    return Path(resources.files("teefuzz").joinpath("data/minitee.tmpl"))


def load_bundled_templates() -> TemplateSet:
    return load_templates(bundled_template_path())

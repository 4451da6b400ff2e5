"""Textual seed-program format.

One call per line:

    r<n> = Name(arg, arg, ...)     # result bound to variable r<n>
    Name(arg, ...)                 # result discarded

Arguments are decimal or 0x-hex integers for scalars and enums,
``"hexbytes"`` for buffers, and ``r<n>`` for resource references.  ``#``
starts a comment.  One file holds one program; a corpus is a directory
of ``*.prog`` files.
"""

from __future__ import annotations

import logging
import re
from pathlib import Path

from .templates import U32_MAX, U64_MAX, ArgKind, TemplateSet
from .testcase import DEFAULT_MAX_LEN, ArgValue, Syscall, TestCase, validate_testcase

log = logging.getLogger("teefuzz.corpus")


class ProgramParseError(Exception):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


_CALL_RE = re.compile(
    r"^(?:(?P<var>r\d+)\s*=\s*)?(?P<name>[A-Za-z_]\w*)\s*\((?P<args>.*)\)\s*$"
)


def _split_args(text: str) -> list[str]:
    # no nesting and no commas inside tokens, so a straight split works
    text = text.strip()
    if not text:
        return []
    return [part.strip() for part in text.split(",")]


def parse_program(text: str, templates: TemplateSet) -> TestCase:
    calls: list[Syscall] = []
    var_to_call: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _CALL_RE.match(line)
        if not m:
            raise ProgramParseError(f"unparseable call: '{line}'", lineno)
        name = m.group("name")
        t = templates.by_name.get(name)
        if t is None:
            raise ProgramParseError(f"unknown syscall '{name}'", lineno)
        tokens = _split_args(m.group("args"))
        if len(tokens) != len(t.params):
            raise ProgramParseError(
                f"{name} takes {len(t.params)} args, got {len(tokens)}", lineno
            )
        args = []
        for token, spec in zip(tokens, t.params):
            if spec.kind is ArgKind.RESOURCE_REF:
                if token not in var_to_call:
                    raise ProgramParseError(
                        f"resource variable '{token}' never defined", lineno
                    )
                args.append(ArgValue.resource_ref(var_to_call[token]))
            elif spec.kind is ArgKind.BUFFER:
                if not (token.startswith('"') and token.endswith('"')):
                    raise ProgramParseError(
                        f"buffer arg must be \"hexbytes\", got {token}", lineno
                    )
                hexstr = token[1:-1]
                try:
                    args.append(ArgValue.buffer(bytes.fromhex(hexstr)))
                except ValueError:
                    raise ProgramParseError(f"bad hex in buffer: {token}", lineno)
            else:
                try:
                    value = int(token, 0)
                except ValueError:
                    raise ProgramParseError(f"bad integer '{token}'", lineno)
                mask = U64_MAX if spec.kind is ArgKind.SCALAR64 else U32_MAX
                args.append(ArgValue(spec.kind, value & mask))
        var = m.group("var")
        if var is not None:
            var_to_call[var] = len(calls)
        calls.append(Syscall(t.ordinal, tuple(args)))
    if not calls:
        raise ProgramParseError("empty program", 0)
    return TestCase(tuple(calls))


def format_program(tc: TestCase, templates: TemplateSet) -> str:
    """Inverse of parse_program, used to persist preserved seeds."""
    lines = []
    for i, call in enumerate(tc.calls):
        t = templates.by_ordinal[call.ordinal]
        tokens = []
        for arg in call.args:
            if arg.kind is ArgKind.RESOURCE_REF:
                tokens.append(f"r{arg.value}")
            elif arg.kind is ArgKind.BUFFER:
                tokens.append(f'"{arg.value.hex()}"')
            else:
                tokens.append(str(arg.value))
        prefix = f"r{i} = " if t.produces_resource else ""
        lines.append(f"{prefix}{t.name}({', '.join(tokens)})")
    return "\n".join(lines) + "\n"


def load_seed_corpus(
    path: str | Path, templates: TemplateSet, max_len: int = DEFAULT_MAX_LEN
) -> list[TestCase]:
    """Parse and validate every seed file under `path`.

    Files that fail to parse or validate are reported and skipped; an
    unreadable path is an error.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"seed corpus directory not found: {root}")
    seeds = []
    files = sorted(root.glob("*.prog"))
    if not files:
        log.warning("seed corpus %s is empty", root)
    for f in files:
        try:
            tc = parse_program(f.read_text(), templates)
        except (ProgramParseError, UnicodeDecodeError) as e:
            log.warning("skipping seed %s: %s", f.name, e)
            continue
        violations = validate_testcase(tc, templates, max_len)
        if violations:
            log.warning("skipping invalid seed %s: %s", f.name, violations[0])
            continue
        seeds.append(tc)
    return seeds

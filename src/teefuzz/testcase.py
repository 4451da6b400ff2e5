"""Test cases: typed syscall sequences with resource dependencies.

A test case is an ordered list of calls; a resource argument refers back
(by call index) to an earlier call that produces the matching resource
kind.  Generation and mutation always return valid test cases; the
validator is the independent oracle for that closure property.

Calls and arguments are immutable named tuples, so mutation is
copy-on-write: a mutated case shares the calls it leaves unchanged with
its seed.  Only calls whose arguments or resource refs change are built
anew, and, when a removal leaves a dangling ref, the calls from the first
one that repair must fix on.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import NamedTuple

from .templates import (
    ArgKind,
    ParamSpec,
    SyscallTemplate,
    TemplateSet,
    U32_MAX,
    U64_MAX,
)

DEFAULT_MAX_LEN = 64

# Values a fuzzer actually wants to see: zeros, small boundaries, and the
# magnitudes that trip length checks.
_INTERESTING_U32 = (
    0, 1, 2, 3, 4, 8, 15, 16, 17, 31, 32, 64, 100, 255, 256, 1023, 1024,
    4095, 4096, 4097, 65535, 65536, 0x100000, 0x100001, 0xFFFFFF, 0x7FFFFFFF,
)

_DANGLING = -1


class ArgValue(NamedTuple):
    kind: ArgKind
    value: int | bytes

    @staticmethod
    def scalar32(v: int) -> "ArgValue":
        return ArgValue(ArgKind.SCALAR32, v & U32_MAX)

    @staticmethod
    def scalar64(v: int) -> "ArgValue":
        return ArgValue(ArgKind.SCALAR64, v & U64_MAX)

    @staticmethod
    def buffer(data: bytes) -> "ArgValue":
        return ArgValue(ArgKind.BUFFER, bytes(data))

    @staticmethod
    def resource_ref(index: int) -> "ArgValue":
        return ArgValue(ArgKind.RESOURCE_REF, index)

    @staticmethod
    def const_enum(v: int) -> "ArgValue":
        return ArgValue(ArgKind.CONST_ENUM, v & U32_MAX)


class Syscall(NamedTuple):
    ordinal: int
    args: tuple[ArgValue, ...]


@dataclass(frozen=True)
class TestCase:
    calls: tuple[Syscall, ...]

    __test__ = False  # not a pytest test class

    def __len__(self):
        return len(self.calls)


# --- validation ---------------------------------------------------------------


def validate_testcase(
    tc: TestCase, templates: TemplateSet, max_len: int = DEFAULT_MAX_LEN
) -> list[str]:
    """Every invariant violation in `tc`, or an empty list if it is valid."""
    violations: list[str] = []
    n = len(tc.calls)
    if n == 0:
        return ["empty test case"]
    if n > max_len:
        violations.append(f"length {n} exceeds max {max_len}")
    for i, call in enumerate(tc.calls):
        t = templates.by_ordinal.get(call.ordinal)
        if t is None:
            violations.append(f"call {i}: unknown ordinal {call.ordinal}")
            continue
        if len(call.args) != len(t.params):
            violations.append(
                f"call {i} ({t.name}): arity {len(call.args)} != {len(t.params)}"
            )
            continue
        for j, (arg, spec) in enumerate(zip(call.args, t.params)):
            where = f"call {i} ({t.name}) arg {j} ({spec.name})"
            if arg.kind is not spec.kind:
                violations.append(f"{where}: tag {arg.kind.name} does not match spec")
                continue
            if arg.kind is ArgKind.RESOURCE_REF:
                ref = arg.value
                if not isinstance(ref, int) or not 0 <= ref < i:
                    violations.append(f"{where}: forward reference to call {ref}")
                    continue
                producer = templates.by_ordinal.get(tc.calls[ref].ordinal)
                if producer is None or producer.produces_resource != spec.resource_kind:
                    violations.append(
                        f"{where}: call {ref} does not produce {spec.resource_kind}"
                    )
            elif arg.kind is ArgKind.BUFFER:
                if len(arg.value) > spec.max_len:
                    violations.append(f"{where}: buffer exceeds max_len {spec.max_len}")
            elif arg.kind is ArgKind.CONST_ENUM:
                if arg.value not in spec.allowed:
                    violations.append(f"{where}: enum value {arg.value} not allowed")
            else:
                lo, hi = spec.range
                if not lo <= arg.value <= hi:
                    violations.append(f"{where}: scalar {arg.value} out of range")
    return violations


# --- value generation -----------------------------------------------------------


def _gen_scalar(rng: Random, lo: int, hi: int) -> int:
    r = rng.random()
    if r < 0.5:
        candidates = [v for v in _INTERESTING_U32 if lo <= v <= hi]
        if candidates:
            return rng.choice(candidates)
    if r < 0.9 and hi - lo > 256:
        # small values dominate real call sites
        return lo + rng.randint(0, 256)
    return rng.randint(lo, hi)


def _gen_arg_value(
    rng: Random, spec: ParamSpec, producers: dict[str, list[int]]
) -> ArgValue:
    if spec.kind is ArgKind.SCALAR32:
        return ArgValue.scalar32(_gen_scalar(rng, *spec.range))
    if spec.kind is ArgKind.SCALAR64:
        if rng.random() < 0.5:
            return ArgValue.scalar64(_gen_scalar(rng, 0, U32_MAX))
        return ArgValue.scalar64(rng.randint(0, U64_MAX))
    if spec.kind is ArgKind.BUFFER:
        length = rng.randint(0, spec.max_len)
        return ArgValue.buffer(bytes(rng.getrandbits(8) for _ in range(length)))
    if spec.kind is ArgKind.CONST_ENUM:
        return ArgValue.const_enum(rng.choice(spec.allowed))
    # resource: caller guarantees at least one producer index exists
    idx_list = producers[spec.resource_kind]
    # bias to the most recent producer: keeps chains wired the way seeds are
    if len(idx_list) > 1 and rng.random() >= 0.7:
        return ArgValue.resource_ref(rng.choice(idx_list))
    return ArgValue.resource_ref(idx_list[-1])


# --- generation -------------------------------------------------------------------


class _Builder:
    """Incrementally builds a call list, inserting producers on demand."""

    def __init__(self, templates: TemplateSet, rng: Random, max_len: int):
        self.templates = templates
        self.rng = rng
        self.max_len = max_len
        self.calls: list[Syscall] = []
        self.producers: dict[str, list[int]] = {}

    def chain_cost(self, t: SyscallTemplate, seen: frozenset[str] = frozenset()) -> int:
        """Calls needed to emit `t` including missing producer chains."""
        cost = 1
        for p in t.params:
            if (
                p.kind is ArgKind.RESOURCE_REF
                and p.resource_kind not in self.producers
                and p.resource_kind not in seen
            ):
                options = self.templates.producers_of(p.resource_kind)
                cost += min(
                    self.chain_cost(o, seen | {p.resource_kind}) for o in options
                )
        return cost

    def emit(self, t: SyscallTemplate) -> int:
        """Append `t` (producers first); returns its index."""
        for p in t.params:
            if p.kind is ArgKind.RESOURCE_REF and p.resource_kind not in self.producers:
                producer = self.rng.choice(
                    self.templates.producers_of(p.resource_kind)
                )
                self.emit(producer)
        args = tuple(_gen_arg_value(self.rng, p, self.producers) for p in t.params)
        idx = len(self.calls)
        self.calls.append(Syscall(t.ordinal, args))
        if t.produces_resource:
            self.producers.setdefault(t.produces_resource, []).append(idx)
        return idx


def generate_testcase(
    templates: TemplateSet, rng: Random, max_len: int = DEFAULT_MAX_LEN
) -> TestCase:
    """Template-driven random program synthesis; always returns a valid case."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    target = min(max_len, 1 + int(rng.expovariate(1.0 / 9.0)))
    b = _Builder(templates, rng, max_len)
    choices = templates.templates
    attempts = 0
    while len(b.calls) < target and attempts < 4 * target + 16:
        attempts += 1
        t = rng.choice(choices)
        if len(b.calls) + b.chain_cost(t) <= max_len:
            b.emit(t)
    if not b.calls:
        standalone = [
            t for t in choices if all(p.kind is not ArgKind.RESOURCE_REF for p in t.params)
        ]
        b.emit(rng.choice(standalone))
    return TestCase(tuple(b.calls))


# --- mutation ----------------------------------------------------------------------


def _producer_indices(
    calls: list[Syscall], templates: TemplateSet, upto: int | None = None
) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    stop = len(calls) if upto is None else upto
    for i in range(stop):
        t = templates.by_ordinal[calls[i].ordinal]
        if t.produces_resource:
            out.setdefault(t.produces_resource, []).append(i)
    return out


def _remap_refs(calls: list[Syscall], start: int, remap) -> None:
    """Rewrite resource-ref values of calls[start:] through `remap`.

    A call whose refs all keep their values stays the same object.
    """
    ref = ArgKind.RESOURCE_REF
    for i in range(start, len(calls)):
        call = calls[i]
        for a in call.args:
            if a.kind is ref and remap(a.value) != a.value:
                break
        else:
            continue
        args = [
            ArgValue.resource_ref(remap(a.value)) if a.kind is ref else a
            for a in call.args
        ]
        calls[i] = Syscall(call.ordinal, tuple(args))


def _valid_prefix(calls: list[Syscall], templates: TemplateSet, max_len: int) -> int:
    """Number of leading calls that `_repair` keeps exactly as they are.

    Call i is kept when i < max_len, its arity is its template's, and each
    of its resource refs points back to an earlier call that produces the
    kind the parameter names.
    """
    by_ordinal = templates.by_ordinal
    ref = ArgKind.RESOURCE_REF
    made: list[str | None] = []  # resource kind produced by each call so far
    for i, call in enumerate(calls):
        if i == max_len:
            return i
        t = by_ordinal[call.ordinal]
        params = t.params
        if len(call.args) != len(params):
            return i
        j = 0
        for arg in call.args:
            if arg.kind is ref:
                tgt = arg.value
                if not (
                    isinstance(tgt, int)
                    and 0 <= tgt < i
                    and made[tgt] == params[j].resource_kind
                ):
                    return i
            j += 1
        made.append(t.produces_resource)
    return len(calls)


def _repair(calls: list[Syscall], templates: TemplateSet, rng: Random, max_len: int) -> list[Syscall]:
    """Make every resource ref backward and well-kinded.

    A non-empty list that is already valid comes back as it is, with no
    rng draw.  Otherwise the calls before the first one that needs repair
    are kept and the rest are rebuilt: dangling refs re-target the nearest
    preceding producer of the kind; when none exists a producer chain is
    generated in front, and if that would blow max_len the consumer call
    is dropped instead.
    """
    start = _valid_prefix(calls, templates, max_len)
    if calls and start == len(calls):
        return calls
    out = _Builder(templates, rng, max_len)
    out.calls = calls[:start]
    out.producers = _producer_indices(out.calls, templates)
    index_map: dict[int, int] = {i: i for i in range(start)}
    for old_i in range(start, len(calls)):
        call = calls[old_i]
        t = templates.by_ordinal[call.ordinal]
        new_args: list[ArgValue] = []
        keep = True
        for arg, spec in zip(call.args, t.params):
            if arg.kind is not ArgKind.RESOURCE_REF:
                new_args.append(arg)
                continue
            tgt = index_map.get(arg.value) if isinstance(arg.value, int) else None
            if (
                tgt is not None
                and templates.by_ordinal[out.calls[tgt].ordinal].produces_resource
                == spec.resource_kind
            ):
                new_args.append(ArgValue.resource_ref(tgt))
                continue
            existing = out.producers.get(spec.resource_kind)
            if existing:
                new_args.append(ArgValue.resource_ref(existing[-1]))
                continue
            producer = rng.choice(templates.producers_of(spec.resource_kind))
            if len(out.calls) + 1 + out.chain_cost(producer) > max_len:
                keep = False
                break
            out.emit(producer)
            new_args.append(
                ArgValue.resource_ref(out.producers[spec.resource_kind][-1])
            )
        if not keep or len(out.calls) >= max_len:
            continue
        index_map[old_i] = len(out.calls)
        out.calls.append(Syscall(call.ordinal, tuple(new_args)))
        if t.produces_resource:
            out.producers.setdefault(t.produces_resource, []).append(
                len(out.calls) - 1
            )
    if not out.calls:
        return list(generate_testcase(templates, rng, max_len).calls)
    return out.calls


def mutate_testcase(
    seed: TestCase, templates: TemplateSet, rng: Random, max_len: int = DEFAULT_MAX_LEN
) -> TestCase:
    """Apply one of {insert, remove, mutate-arg, splice}, chosen uniformly.

    Inapplicable operators (removing from a single-call case, inserting at
    max length, ...) are retried with a different operator, and a mutation
    that happens to reproduce the input (an arg regenerated to the same
    value) is retried, so the result differs from the seed.
    """
    for _ in range(16):
        out = _mutate_once(seed, templates, rng, max_len)
        if out != seed:
            return out
    return out


def _mutate_once(
    seed: TestCase, templates: TemplateSet, rng: Random, max_len: int
) -> TestCase:
    ops = ["insert", "remove", "mutate_arg", "splice"]
    rng.shuffle(ops)
    for op in ops:
        calls = list(seed.calls)
        if op == "insert":
            t = rng.choice(templates.templates)
            pos = rng.randint(0, len(calls))
            b = _Builder(templates, rng, max_len)
            b.calls = calls[:pos]
            b.producers = _producer_indices(b.calls, templates)
            if len(calls) + b.chain_cost(t) > max_len:
                continue
            b.emit(t)
            inserted = len(b.calls) - pos
            merged = b.calls + calls[pos:]
            _remap_refs(
                merged, pos + inserted, lambda r: r + inserted if r >= pos else r
            )
            return TestCase(tuple(_repair(merged, templates, rng, max_len)))
        if op == "remove" and len(calls) > 1:
            pos = rng.randrange(len(calls))
            del calls[pos]
            _remap_refs(
                calls,
                pos,
                lambda r: _DANGLING if r == pos else (r - 1 if r > pos else r),
            )
            return TestCase(tuple(_repair(calls, templates, rng, max_len)))
        if op == "mutate_arg":
            mutable = [
                i for i, c in enumerate(calls) if templates.by_ordinal[c.ordinal].params
            ]
            if not mutable:
                continue
            i = rng.choice(mutable)
            t = templates.by_ordinal[calls[i].ordinal]
            j = rng.randrange(len(t.params))
            spec = t.params[j]
            if spec.kind is ArgKind.RESOURCE_REF:
                producers = _producer_indices(calls, templates, upto=i)
                if not producers.get(spec.resource_kind):
                    continue
            else:
                producers = {}
            args = list(calls[i].args)
            args[j] = _gen_arg_value(rng, spec, producers)
            calls[i] = Syscall(calls[i].ordinal, tuple(args))
            return TestCase(tuple(calls))
        if op == "splice" and len(calls) >= 2:
            # duplicate a slice after its source position: re-exercises the
            # same chain from the state the first pass left behind
            a = rng.randrange(len(calls))
            width = rng.randint(1, min(4, len(calls) - a))
            if len(calls) + width > max_len:
                continue
            chunk = calls[a : a + width]
            pos = rng.randint(a + width, len(calls))
            merged = calls[:pos] + list(chunk) + calls[pos:]
            _remap_refs(merged, pos + width, lambda r: r + width if r >= pos else r)
            # the duplicated chunk's internal refs still point into the
            # original span (< pos), which remains valid
            return TestCase(tuple(_repair(merged, templates, rng, max_len)))
    # every operator inapplicable (single no-arg call at max_len == 1):
    # regenerate, which still differs structurally
    return generate_testcase(templates, rng, max_len)

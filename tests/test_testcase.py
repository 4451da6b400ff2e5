from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teefuzz.templates import ArgKind, parse_templates
from teefuzz.testcase import (
    _DANGLING,
    ArgValue,
    Syscall,
    TestCase,
    _Builder,
    _gen_arg_value,
    _producer_indices,
    _repair,
    generate_testcase,
    mutate_testcase,
    validate_testcase,
)


def test_generate_produces_valid_testcase(templates, rng):
    tc = generate_testcase(templates, rng, max_len=16)
    assert validate_testcase(tc, templates, 16) == []
    assert 1 <= len(tc) <= 16


def test_generation_deterministic(templates):
    a = generate_testcase(templates, Random(42), 16)
    b = generate_testcase(templates, Random(42), 16)
    assert a == b


def test_generation_seed_sensitivity(templates):
    a = generate_testcase(templates, Random(1), 16)
    b = generate_testcase(templates, Random(2), 16)
    assert a != b  # overwhelmingly likely; a collision would be a red flag


def test_max_len_one_yields_single_call(templates):
    for seed in range(20):
        tc = generate_testcase(templates, Random(seed), 1)
        assert len(tc) == 1
        assert validate_testcase(tc, templates, 1) == []


def test_generation_closure_bulk(templates):
    rng = Random(7)
    for _ in range(2_000):
        tc = generate_testcase(templates, rng, 24)
        assert validate_testcase(tc, templates, 24) == []


def test_mutation_closure_bulk(templates, seed_corpus):
    rng = Random(11)
    pool = list(seed_corpus)
    for i in range(2_000):
        tc = mutate_testcase(pool[i % len(pool)], templates, rng, 24)
        assert validate_testcase(tc, templates, 24) == [], tc
        if len(pool) < 64:
            pool.append(tc)


def test_mutation_always_changes_the_testcase(templates, seed_corpus):
    rng = Random(3)
    for seed in seed_corpus:
        for _ in range(25):
            assert mutate_testcase(seed, templates, rng, 64) != seed


def test_single_call_seed_never_becomes_empty(templates):
    rng = Random(5)
    seed = generate_testcase(templates, Random(0), 1)
    for _ in range(200):
        out = mutate_testcase(seed, templates, rng, 4)
        assert len(out) >= 1
        assert validate_testcase(out, templates, 4) == []


def test_enum_mutation_stays_in_allowed_set(templates):
    # mutate an AllocateOperation-only case many times; any enum arg must
    # stay within its template's allowed values (checked via the validator)
    rng = Random(9)
    tc = TestCase(
        (
            Syscall(
                templates.by_name["TEE_AllocateOperation"].ordinal,
                (
                    ArgValue.const_enum(0x10),
                    ArgValue.const_enum(0),
                    ArgValue.scalar32(64),
                ),
            ),
        )
    )
    for _ in range(300):
        tc2 = mutate_testcase(tc, templates, rng, 8)
        assert validate_testcase(tc2, templates, 8) == []


def test_validator_flags_forward_reference(templates):
    free = templates.by_name["TEE_FreeOperation"]
    tc = TestCase((Syscall(free.ordinal, (ArgValue.resource_ref(0),)),))
    violations = validate_testcase(tc, templates)
    assert any("forward reference" in v for v in violations)


def test_validator_flags_wrong_producer_kind(templates):
    alloc_obj = templates.by_name["TEE_AllocateTransientObject"]
    free_op = templates.by_name["TEE_FreeOperation"]
    tc = TestCase(
        (
            Syscall(
                alloc_obj.ordinal,
                (ArgValue.const_enum(0xA0), ArgValue.scalar32(64)),
            ),
            Syscall(free_op.ordinal, (ArgValue.resource_ref(0),)),
        )
    )
    violations = validate_testcase(tc, templates)
    assert any("does not produce Operation" in v for v in violations)


def test_validator_flags_arity_mismatch(templates):
    malloc = templates.by_name["TEE_Malloc"]
    tc = TestCase((Syscall(malloc.ordinal, (ArgValue.scalar32(1),)),))
    violations = validate_testcase(tc, templates)
    assert any("arity" in v for v in violations)


def test_validator_flags_unknown_ordinal(templates):
    tc = TestCase((Syscall(999, ()),))
    assert any("unknown ordinal" in v for v in validate_testcase(tc, templates))


def test_validator_flags_empty_testcase(templates):
    assert validate_testcase(TestCase(()), templates) == ["empty test case"]


def test_validator_flags_overlong_testcase(templates):
    malloc = templates.by_name["TEE_Malloc"]
    call = Syscall(malloc.ordinal, (ArgValue.scalar32(1), ArgValue.scalar32(0)))
    tc = TestCase(tuple([call] * 5))
    assert any("exceeds max" in v for v in validate_testcase(tc, templates, 4))


def test_validator_flags_enum_violation(templates):
    alloc = templates.by_name["TEE_AllocateOperation"]
    tc = TestCase(
        (
            Syscall(
                alloc.ordinal,
                (
                    ArgValue.const_enum(0x99),
                    ArgValue.const_enum(0),
                    ArgValue.scalar32(64),
                ),
            ),
        )
    )
    assert any("not allowed" in v for v in validate_testcase(tc, templates))


@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_generate_then_mutate_closure_property(seed, max_len):
    ts = parse_templates(
        "mk(n:s32[0..100]) -> T\n"
        "use(t:res:T, e:enum{1,2,3})\n"
        "plain(b:buf[8], w:s64)\n"
    )
    rng = Random(seed)
    tc = generate_testcase(ts, rng, max_len)
    assert validate_testcase(tc, ts, max_len) == []
    for _ in range(5):
        tc = mutate_testcase(tc, ts, rng, max_len)
        assert validate_testcase(tc, ts, max_len) == []


# --- the full-rebuild mutation, kept as the reference -----------------------
#
# `mutate_testcase` shares unchanged calls with its seed and repairs only
# from the first call that needs it.  These are the full-rebuild versions it
# replaced; from equal rng states both must return equal cases and leave the
# rng in the same state.  `_mutate_once_reference` also records which
# operator it applied, and where, for the sharing test.


def _remap_refs_reference(calls, start, remap):
    for i in range(start, len(calls)):
        call = calls[i]
        if not any(a.kind is ArgKind.RESOURCE_REF for a in call.args):
            continue
        args = tuple(
            ArgValue.resource_ref(remap(a.value)) if a.kind is ArgKind.RESOURCE_REF else a
            for a in call.args
        )
        calls[i] = Syscall(call.ordinal, args)


def _repair_reference(calls, templates, rng, max_len):
    out = _Builder(templates, rng, max_len)
    index_map = {}
    for old_i, call in enumerate(calls):
        t = templates.by_ordinal[call.ordinal]
        new_args = []
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
            new_args.append(ArgValue.resource_ref(out.producers[spec.resource_kind][-1]))
        if not keep or len(out.calls) >= max_len:
            continue
        index_map[old_i] = len(out.calls)
        out.calls.append(Syscall(call.ordinal, tuple(new_args)))
        if t.produces_resource:
            out.producers.setdefault(t.produces_resource, []).append(len(out.calls) - 1)
    if not out.calls:
        return list(generate_testcase(templates, rng, max_len).calls)
    return out.calls


def _mutate_once_reference(seed, templates, rng, max_len, record):
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
            _remap_refs_reference(
                merged, pos + inserted, lambda r: r + inserted if r >= pos else r
            )
            record.update(op=op, pos=pos, width=inserted)
            return TestCase(tuple(_repair_reference(merged, templates, rng, max_len)))
        if op == "remove" and len(calls) > 1:
            pos = rng.randrange(len(calls))
            del calls[pos]
            _remap_refs_reference(
                calls,
                pos,
                lambda r: _DANGLING if r == pos else (r - 1 if r > pos else r),
            )
            record.update(op=op, pos=pos)
            return TestCase(tuple(_repair_reference(calls, templates, rng, max_len)))
        if op == "mutate_arg":
            mutable = [i for i, c in enumerate(calls) if templates.by_ordinal[c.ordinal].params]
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
            record.update(op=op, pos=i)
            return TestCase(tuple(calls))
        if op == "splice" and len(calls) >= 2:
            a = rng.randrange(len(calls))
            width = rng.randint(1, min(4, len(calls) - a))
            if len(calls) + width > max_len:
                continue
            chunk = calls[a : a + width]
            pos = rng.randint(a + width, len(calls))
            merged = calls[:pos] + list(chunk) + calls[pos:]
            _remap_refs_reference(merged, pos + width, lambda r: r + width if r >= pos else r)
            record.update(op=op, pos=pos, width=width, src=a)
            return TestCase(tuple(_repair_reference(merged, templates, rng, max_len)))
    record.update(op="generate")
    return generate_testcase(templates, rng, max_len)


def mutate_reference(seed, templates, rng, max_len, record=None):
    record = {} if record is None else record
    for _ in range(16):
        out = _mutate_once_reference(seed, templates, rng, max_len, record)
        if out != seed:
            return out
    return out


def _outcome(fn, *args):
    """fn's result, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as e:  # broken seeds may make both sides raise
        return type(e)


def _break(calls, edits):
    """Apply (call, action, value) edits that break the closure property:
    dangling, forward and wrongly-kinded refs, refs in non-resource slots,
    arity off by one either way, and removed producers."""
    calls = list(calls)
    for pick, action, value in edits:
        if not calls:
            break
        i = pick % len(calls)
        ordinal, args = calls[i].ordinal, list(calls[i].args)
        if action == 0:
            refs = [j for j, a in enumerate(args) if a.kind is ArgKind.RESOURCE_REF]
            if refs:
                args[refs[value % len(refs)]] = ArgValue.resource_ref(value)
        elif action == 1 and args:
            args.pop()
        elif action == 2:
            args.append(ArgValue.scalar32(value))
        elif action == 3:
            args.append(ArgValue.resource_ref(value))
        elif action == 4 and args:
            args[value % len(args)] = ArgValue.resource_ref(value)
        elif action == 5:
            del calls[i]
            continue
        calls[i] = Syscall(ordinal, tuple(args))
    return calls


_EDITS = st.lists(
    st.tuples(st.integers(0, 2**16), st.integers(0, 5), st.integers(-2, 70)), max_size=3
)


def _seed_case(templates, seed_corpus, source, case_seed, max_len):
    if source < len(seed_corpus):
        return seed_corpus[source]
    return generate_testcase(templates, Random(case_seed), max_len)


@given(
    source=st.integers(0, 24),
    case_seed=st.integers(0, 2**32 - 1),
    rng_seed=st.integers(0, 2**32 - 1),
    max_len=st.integers(1, 64),
)
@settings(max_examples=300, deadline=None)
def test_mutation_matches_the_full_rebuild_reference(
    templates, seed_corpus, source, case_seed, rng_seed, max_len
):
    # sources below the corpus size pick a bundled seed (which may be longer
    # than max_len); the rest generate one
    tc = _seed_case(templates, seed_corpus, source, case_seed, max_len)
    for _ in range(6):
        rng, ref_rng = Random(rng_seed), Random(rng_seed)
        got = mutate_testcase(tc, templates, rng, max_len)
        want = mutate_reference(tc, templates, ref_rng, max_len)
        assert got == want
        assert rng.getstate() == ref_rng.getstate()
        tc, rng_seed = got, rng.getrandbits(32)


@given(
    source=st.integers(0, 24),
    case_seed=st.integers(0, 2**32 - 1),
    rng_seed=st.integers(0, 2**32 - 1),
    max_len=st.integers(1, 64),
    edits=_EDITS,
)
@settings(max_examples=300, deadline=None)
def test_mutation_of_a_broken_seed_matches_the_reference(
    templates, seed_corpus, source, case_seed, rng_seed, max_len, edits
):
    calls = _break(_seed_case(templates, seed_corpus, source, case_seed, max_len).calls, edits)
    tc = TestCase(tuple(calls))
    rng, ref_rng = Random(rng_seed), Random(rng_seed)
    got = _outcome(mutate_testcase, tc, templates, rng, max_len)
    want = _outcome(mutate_reference, tc, templates, ref_rng, max_len)
    assert got == want
    assert rng.getstate() == ref_rng.getstate()


@given(
    source=st.integers(0, 24),
    case_seed=st.integers(0, 2**32 - 1),
    rng_seed=st.integers(0, 2**32 - 1),
    max_len=st.integers(1, 64),
    edits=_EDITS,
)
@settings(max_examples=500, deadline=None)
def test_repair_matches_the_full_rebuild_reference(
    templates, seed_corpus, source, case_seed, rng_seed, max_len, edits
):
    calls = _break(_seed_case(templates, seed_corpus, source, case_seed, max_len).calls, edits)
    rng, ref_rng = Random(rng_seed), Random(rng_seed)
    got = _outcome(_repair, list(calls), templates, rng, max_len)
    want = _outcome(_repair_reference, list(calls), templates, ref_rng, max_len)
    assert got == want
    assert rng.getstate() == ref_rng.getstate()
    if calls and validate_testcase(TestCase(tuple(calls)), templates, max_len) == []:
        assert got == calls and rng.getstate() == Random(rng_seed).getstate()


def test_repair_returns_a_valid_list_itself_without_drawing(templates, seed_corpus):
    for tc in seed_corpus:
        calls = list(tc.calls)
        rng = Random(0)
        assert _repair(calls, templates, rng, 64) is calls
        assert rng.getstate() == Random(0).getstate()


def _source_index(record, j):
    """Index of the seed call that result call j was copied from, if any."""
    op, pos = record["op"], record.get("pos")
    if op == "mutate_arg":
        return None if j == pos else j
    if j < pos:
        return j
    width = record["width"]
    if j >= pos + width:
        return j - width
    return record["src"] + j - pos if op == "splice" else None


def test_mutation_shares_unchanged_calls_with_its_seed(templates, seed_corpus):
    # a result call equal to the seed call it was copied from must be that
    # very object; checked for every operator that copies calls through
    shared = {"insert": 0, "splice": 0, "mutate_arg": 0}
    rng = Random(17)
    pool = list(seed_corpus)
    for k in range(3_000):
        seed = pool[k % len(pool)]
        state = rng.getstate()
        record = {}
        want = mutate_reference(seed, templates, rng, 64, record)
        rng.setstate(state)
        got = mutate_testcase(seed, templates, rng, 64)
        assert got == want
        if record["op"] not in shared:
            continue
        for j, call in enumerate(got.calls):
            i = _source_index(record, j)
            if i is not None and i < len(seed) and call == seed.calls[i]:
                assert call is seed.calls[i], (record, j)
                shared[record["op"]] += 1
        if len(pool) < 64:
            pool.append(got)
    assert all(n > 1_000 for n in shared.values()), shared

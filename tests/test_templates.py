import pytest

from teefuzz.templates import (
    ParamKind,
    TemplateError,
    load_bundled_templates,
    parse_templates,
)


def test_bundled_file_has_22_templates_with_4_helpers(templates):
    assert len(templates) == 22
    assert len([t for t in templates if t.is_helper]) == 4
    assert [t.ordinal for t in templates] == list(range(22))


def test_ordinals_assigned_by_file_order():
    ts = parse_templates("b(x:s32)\na() -> R\nc(y:res:R)\n")
    assert [t.name for t in ts] == ["b", "a", "c"]
    assert [t.ordinal for t in ts] == [0, 1, 2]


def test_empty_file_is_an_error():
    with pytest.raises(TemplateError, match="no templates"):
        parse_templates("# only a comment\n\n")


def test_dangling_resource_kind_rejected():
    with pytest.raises(TemplateError, match="no template produces"):
        parse_templates("use(h:res:Ghost)\n")


def test_duplicate_name_rejected():
    with pytest.raises(TemplateError, match="duplicate"):
        parse_templates("a()\na()\n")


def test_parse_error_carries_line_number():
    with pytest.raises(TemplateError) as exc:
        parse_templates("ok()\nbroken(::)\n")
    assert exc.value.line == 2


def test_kind_grammar():
    ts = parse_templates(
        "mk(a:s32[1..9], b:s64, c:buf[32], e:enum{1,0x10,3}) -> T\nuse(t:res:T)\n"
    )
    a, b, c, e = ts.by_name["mk"].params
    assert a.kind is ParamKind.SCALAR32 and a.range == (1, 9)
    assert b.kind is ParamKind.SCALAR64
    assert c.kind is ParamKind.BUFFER and c.max_len == 32
    assert e.kind is ParamKind.CONST_ENUM and e.allowed == (1, 16, 3)
    assert ts.by_name["use"].params[0].resource_kind == "T"


def test_enum_requires_values():
    with pytest.raises(TemplateError):
        parse_templates("x(e:enum{})\n")


def test_helper_flag_and_resource_production():
    ts = parse_templates("h(v:s32) -> Ptr helper\nuse(p:res:Ptr)\n")
    assert ts.by_name["h"].is_helper
    assert ts.by_name["h"].produces_resource == "Ptr"
    assert not ts.by_name["use"].is_helper
    assert ts.producers_of("Ptr") == [ts.by_name["h"]]


def test_buffer_over_wire_limit_rejected():
    with pytest.raises(TemplateError, match="65535"):
        parse_templates("x(b:buf[70000])\n")


def test_comments_and_blank_lines_ignored():
    ts = parse_templates("# header\n\na()  # trailing\n")
    assert len(ts) == 1


def test_every_resource_param_in_bundle_is_producible():
    ts = load_bundled_templates()
    produced = {t.produces_resource for t in ts if t.produces_resource}
    for t in ts:
        for p in t.params:
            if p.kind is ParamKind.RESOURCE:
                assert p.resource_kind in produced

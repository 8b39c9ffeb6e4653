import json

import pytest
from hypothesis import given, settings, strategies as st

from gradimpact import (
    ArgumentationFramework,
    DuplicateArgumentError,
    DuplicateAttackError,
    FormatSyntaxError,
    InconsistentAnnotationError,
    MissingSeparatorError,
    ParseError,
    parse,
    parse_apx,
    parse_tgf,
    serialize,
)
from gradimpact.errors import UnknownEndpointError

from oracles import line_parse_apx, line_parse_tgf

TGF_SAMPLE = "a\nb\nc\n#\na b\nb c\n"
APX_SAMPLE = "arg(a).\narg(b).\n% a comment\natt(a,b).\n"

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=6
)


@st.composite
def frameworks(draw):
    args = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    pairs = [(s, t) for s in args for t in args]
    attacks = draw(st.lists(st.sampled_from(pairs), unique=True))
    return ArgumentationFramework.of(args, attacks)


def test_parse_tgf_sample():
    af = parse_tgf(TGF_SAMPLE)
    assert af.arguments == ("a", "b", "c")
    assert af.attacks == (("a", "b"), ("b", "c"))


def test_parse_tgf_rejects_malformed_input():
    with pytest.raises(MissingSeparatorError):
        parse_tgf("a\nb\n")
    with pytest.raises(DuplicateArgumentError):
        parse_tgf("a\na\n#\n")
    with pytest.raises(DuplicateAttackError):
        parse_tgf("a\nb\n#\na b\na b\n")
    with pytest.raises(UnknownEndpointError):
        parse_tgf("a\n#\na b\n")
    with pytest.raises(FormatSyntaxError) as err:
        parse_tgf("a\nb\n#\na b c\n")
    assert err.value.line_number == 4


def test_parse_apx_sample():
    af = parse_apx(APX_SAMPLE)
    assert af.arguments == ("a", "b")
    assert af.attacks == (("a", "b"),)


def test_parse_apx_rejects_malformed_input():
    with pytest.raises(FormatSyntaxError) as err:
        parse_apx("arg(a).\nattack(a,a).\n")
    assert err.value.line_number == 2
    with pytest.raises(DuplicateArgumentError):
        parse_apx("arg(a).\narg(a).\n")
    with pytest.raises(DuplicateAttackError):
        parse_apx("arg(a).\natt(a,a).\natt(a,a).\n")
    with pytest.raises(UnknownEndpointError):
        parse_apx("arg(a).\natt(a,b).\n")


def test_parse_dispatch():
    assert parse(TGF_SAMPLE, "tgf") == parse_tgf(TGF_SAMPLE)
    assert parse(APX_SAMPLE, "apx") == parse_apx(APX_SAMPLE)
    with pytest.raises(ValueError):
        parse(TGF_SAMPLE, "dot")


@given(frameworks())
def test_tgf_round_trip(af):
    assert parse_tgf(serialize(af, "tgf")) == af


@given(frameworks())
def test_apx_round_trip(af):
    assert parse_apx(serialize(af, "apx")) == af


def test_serialized_output_is_sorted_and_newline_terminated(showcase):
    text = serialize(showcase, "tgf")
    assert text.endswith("\n")
    nodes = text.split("#")[0].split()
    assert nodes == sorted(nodes)


def test_json_serialization_with_annotations():
    af = ArgumentationFramework.of(["a", "b"], [("a", "b")])
    payload = json.loads(
        serialize(af, "json", degrees={"a": 1.0, "b": 0.5}, intensities={("a", "b"): 0.5})
    )
    assert payload["arguments"] == ["a", "b"]
    assert payload["degrees"] == {"a": 1.0, "b": 0.5}
    assert payload["intensities"] == [["a", "b", 0.5]]


def test_annotations_must_cover_the_framework_exactly():
    af = ArgumentationFramework.of(["a", "b"], [("a", "b")])
    with pytest.raises(InconsistentAnnotationError):
        serialize(af, "json", degrees={"a": 1.0})
    with pytest.raises(InconsistentAnnotationError):
        serialize(af, "dot", intensities={("b", "a"): 0.5})


def test_annotations_rejected_for_plain_graph_formats():
    af = ArgumentationFramework.of(["a"], [])
    with pytest.raises(ValueError):
        serialize(af, "tgf", degrees={"a": 1.0})
    with pytest.raises(ValueError):
        serialize(af, "apx", degrees={"a": 1.0})


def test_dot_output_quotes_identifiers():
    af = ArgumentationFramework.of(['we"ird', "plain"], [('we"ird', "plain")])
    text = serialize(af, "dot")
    assert '"we\\"ird" -> "plain";' in text
    annotated = serialize(
        af,
        "dot",
        degrees={'we"ird': 0.25, "plain": 1.0},
        intensities={('we"ird', "plain"): 0.75},
    )
    assert "0.250" in annotated and "0.750" in annotated


def test_format_specific_identifier_limits():
    spaced = ArgumentationFramework.of(["a b"], [])
    with pytest.raises(ValueError):
        serialize(spaced, "tgf")
    dotted = ArgumentationFramework.of(["a.b"], [])
    with pytest.raises(ValueError):
        serialize(dotted, "apx")
    # both are still fine as json or dot
    assert serialize(spaced, "json")
    assert serialize(dotted, "dot")


def test_empty_framework_serializes():
    empty = ArgumentationFramework.of([], [])
    assert serialize(empty, "tgf") == "#\n"
    assert parse_tgf("#\n") == empty
    assert serialize(empty, "apx") == ""
    assert parse_apx("") == empty


# Pieces of both formats and of awkward text, so that drawn texts get past
# the first line of either parser.
FRAGMENTS = (
    "#", "a", "b", "a b", "a b c", "arg(a).", "att(a,b).", "att(b,a).",
    "arg(", "att(a,", ")", ",", ".", "%", " ", "\t", "\n", "\r\n", "\x0b",
    "\u2028", "\x00", "\ufeff", "é",
    # Two statements on one line, one split across lines, a statement in a
    # comment, and the other line breaks and non-breaking whitespace.
    "arg(b). att(a,b).", "att(a,\nb).", "% arg(c).", "arg(c).", "c a",
    "\r", "\x0c", "\x1c", "\x85", "\u2029", "\xa0", "\x1f",
)
hostile_texts = st.one_of(
    st.text(), st.lists(st.sampled_from(FRAGMENTS)).map("".join)
)


@settings(max_examples=300, deadline=None)
@given(hostile_texts, st.sampled_from([parse_tgf, parse_apx]))
def test_arbitrary_text_parses_or_raises_a_parse_error(text, parser):
    try:
        af = parser(text)
    except ParseError:
        return
    assert af == ArgumentationFramework.of(af.arguments, af.attacks)


def _outcome(parse_text, text):
    # A parse as plain data: the sorted members, or the error's type,
    # message and line number.
    try:
        found = parse_text(text)
    except ParseError as error:
        return type(error), str(error), getattr(error, "line_number", None)
    if isinstance(found, ArgumentationFramework):
        return found.arguments, found.attacks
    return found


@settings(max_examples=500, deadline=None)
@given(
    hostile_texts,
    st.sampled_from([(parse_tgf, line_parse_tgf), (parse_apx, line_parse_apx)]),
)
def test_bulk_parsers_agree_with_a_line_by_line_reading(text, parsers):
    parser, oracle = parsers
    assert _outcome(parser, text) == _outcome(oracle, text)


@pytest.mark.parametrize(
    "parser, oracle, text, error, line",
    [
        # The first faulty line wins, whatever the other's kind.
        (parse_tgf, line_parse_tgf, "a\na\n#\na b c\n", DuplicateArgumentError, None),
        (parse_tgf, line_parse_tgf, "a b\na\na\n#\n", FormatSyntaxError, 1),
        (parse_tgf, line_parse_tgf, "a\nb\n#\na c\na b c\n", UnknownEndpointError, None),
        (parse_tgf, line_parse_tgf, "a\nb\n#\na b c\na c\n", FormatSyntaxError, 4),
        (parse_tgf, line_parse_tgf, "a\nb\n#\na b\n#\na b\n", FormatSyntaxError, 5),
        (parse_tgf, line_parse_tgf, "a\nb c\n", FormatSyntaxError, 2),
        (parse_apx, line_parse_apx, "arg(a).\narg(a).\nbad\n", DuplicateArgumentError, None),
        (parse_apx, line_parse_apx, "bad\narg(a).\narg(a).\n", FormatSyntaxError, 1),
        (parse_apx, line_parse_apx, "arg(a). bad\narg(a).\n", FormatSyntaxError, 1),
        (parse_apx, line_parse_apx, "arg(a).\r\narg(a). bad\n", DuplicateArgumentError, None),
        # An undeclared endpoint is found only after every line is read.
        (parse_apx, line_parse_apx, "att(a,b).\narg(a).\nbad\n", FormatSyntaxError, 3),
        (parse_apx, line_parse_apx, "att(c,a).\natt(a,b).\narg(a).\n", UnknownEndpointError, None),
        (parse_apx, line_parse_apx, "arg(a). % arg(b).\n", FormatSyntaxError, 1),
        (parse_apx, line_parse_apx, "arg(\na).\n", FormatSyntaxError, 1),
        (parse_apx, line_parse_apx, "arg(a).\x0batt(a,\u2028a).\n", FormatSyntaxError, 2),
    ],
)
def test_the_first_faulty_line_raises(parser, oracle, text, error, line):
    outcome = _outcome(parser, text)
    assert outcome == _outcome(oracle, text)
    assert outcome[0] is error and outcome[2] == line


def test_comment_lines_and_split_statements_parse_as_a_line_reading_does():
    text = "% att(x,y).\r\narg(a). arg(b).\u2028att(a,b). % note\n  %arg(z).\n"
    assert _outcome(parse_apx, text) == _outcome(line_parse_apx, text)
    assert parse_apx(text) == ArgumentationFramework.of(["a", "b"], [("a", "b")])

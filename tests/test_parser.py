from __future__ import annotations

from itertools import zip_longest
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import futsim.parser as parser

from futsim.calculus import (
    Add,
    FutureCreate,
    FutureRef,
    HoleLeft,
    HoleRight,
    IntLit,
    contains_future_ref,
    plug,
    subterms,
)
from futsim.parser import ParseError, parse, unparse
from oracles import gen_random_program, unparse_in_context
from test_cli import _bench_corpus


def test_plus_left_associative():
    assert parse("1 + 2 + 3") == Add(Add(IntLit(1), IntLit(2)), IntLit(3))


def test_nested_futures_program():
    assert parse("2 + future (future (3+4))") == Add(
        IntLit(2), FutureCreate(FutureCreate(Add(IntLit(3), IntLit(4))))
    )


def test_future_extends_right():
    assert parse("3 + future future (3+4)") == Add(
        IntLit(3), FutureCreate(FutureCreate(Add(IntLit(3), IntLit(4))))
    )


def test_future_swallows_following_sum():
    assert parse("future 1 + 2") == FutureCreate(Add(IntLit(1), IntLit(2)))
    assert parse("future 1 + future 2") == FutureCreate(Add(IntLit(1), FutureCreate(IntLit(2))))


def test_parenthesized_future_is_an_operand():
    assert parse("(future 1) + 2") == Add(FutureCreate(IntLit(1)), IntLit(2))


def test_signed_literals():
    assert parse("-3") == IntLit(-3)
    assert parse("3 + -4") == Add(IntLit(3), IntLit(-4))
    assert parse("+4") == IntLit(4)


def test_comments_and_whitespace():
    assert parse("# leading comment\n 1 +\t2  # trailing\n") == Add(IntLit(1), IntLit(2))


def test_missing_future_operand():
    with pytest.raises(ParseError) as excinfo:
        parse("future")
    assert "end of input" in str(excinfo.value)


def test_error_positions():
    with pytest.raises(ParseError) as excinfo:
        parse("1 +\n  %")
    assert excinfo.value.line == 2
    assert excinfo.value.col == 3


def test_unknown_word():
    with pytest.raises(ParseError):
        parse("futur 1")


def test_trailing_tokens():
    with pytest.raises(ParseError):
        parse("1 2")


def test_no_subtraction_operator():
    with pytest.raises(ParseError):
        parse("3 - 4")


def test_unclosed_paren():
    with pytest.raises(ParseError):
        parse("(1 + 2")


def test_empty_input():
    with pytest.raises(ParseError):
        parse("   # nothing here\n")


def test_unparse_examples():
    assert unparse(Add(IntLit(1), IntLit(2))) == "1 + 2"
    assert unparse(FutureCreate(Add(IntLit(3), IntLit(4)))) == "future (3 + 4)"
    assert unparse(FutureRef(1)) == "fv1"


def test_unparse_golden_program_reads_naturally():
    expr = parse("2 + future (future (3+4))")
    assert unparse(expr) == "2 + future (future (3 + 4))"


def test_unparse_fences_followed_futures():
    expr = Add(Add(IntLit(1), FutureCreate(IntLit(2))), IntLit(3))
    text = unparse(expr)
    assert parse(text) == expr
    assert text == "1 + (future 2) + 3"


def test_unparse_keeps_right_grouping():
    expr = Add(IntLit(1), Add(IntLit(2), IntLit(3)))
    assert unparse(expr) == "1 + (2 + 3)"
    assert parse(unparse(expr)) == expr


@pytest.mark.parametrize("seed", range(200))
def test_round_trip_random_programs(seed):
    expr = gen_random_program(seed, 6, 3)
    assert not contains_future_ref(expr)
    assert parse(unparse(expr)) == expr


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


@pytest.mark.parametrize("text, value", [
    ("-9223372036854775808", INT64_MIN),
    ("9223372036854775807", INT64_MAX),
    ("+9223372036854775807", INT64_MAX),
    ("000000000000000000009223372036854775807", INT64_MAX),
])
def test_literals_at_the_64_bit_bounds_parse(text, value):
    assert parse(text) == IntLit(value)
    assert parse(f"1 + future {text}") == Add(IntLit(1), FutureCreate(IntLit(value)))


@pytest.mark.parametrize("text", ["-9223372036854775809", "9223372036854775808", "18446744073709551616",
                                  "- 9223372036854775809", "1" * 5000])
def test_literals_past_the_64_bit_bounds_are_parse_errors_at_their_position(text):
    with pytest.raises(ParseError) as excinfo:
        parse(f"1 +\n  future {text} + 2")
    error = excinfo.value
    assert (error.line, error.col) == (2, 10)
    assert "64 bits" in error.message


def test_unparse_limit_stops_past_the_limit():
    expr = Add(Add(IntLit(1), IntLit(2)), Add(IntLit(3), FutureCreate(IntLit(4))))
    text = unparse(expr)
    assert text == "1 + 2 + (3 + future 4)"
    for limit in range(len(text) + 2):
        bounded = unparse(expr, limit)
        assert text.startswith(bounded)
        assert bounded == text or len(bounded) > limit


def test_unparse_renders_a_context_without_plugging_it():
    context = (HoleLeft(IntLit(5)), HoleRight(FutureRef(1)), HoleLeft(FutureCreate(IntLit(2))))
    for filler in (IntLit(7), FutureRef(3), FutureCreate(IntLit(4)), Add(IntLit(8), IntLit(9))):
        assert unparse_in_context(filler, context=context) == unparse(plug(context, filler))
    assert unparse_in_context(IntLit(7), context=context) == "fv1 + (7 + future 2) + 5"


def test_unparse_rejects_what_is_not_an_expression():
    with pytest.raises(TypeError):
        unparse(Add(IntLit(1), "2"))


# Built directly, so only unparse is tested. The trees are never compared,
# hashed or printed: those still recurse.
DEPTH = 100_000


@pytest.mark.parametrize("shape", ["left-chain", "right-nest", "future-tower"])
def test_unparse_takes_deep_terms_without_recursion(shape):
    n = DEPTH
    if shape == "left-chain":  # ((0 + 1) + 2) + ... + n
        expr = IntLit(0)
        for k in range(1, n + 1):
            expr = Add(expr, IntLit(k))
        expected = " + ".join(str(k) for k in range(n + 1))
    elif shape == "right-nest":  # 0 + (1 + (... + (n-1 + n)))
        expr = IntLit(n)
        for k in reversed(range(n)):
            expr = Add(IntLit(k), expr)
        expected = "".join(f"{k} + (" for k in range(n - 1)) + f"{n - 1} + {n}" + ")" * (n - 1)
    else:  # future (future (... (future 1)))
        expr = IntLit(1)
        for _ in range(n):
            expr = FutureCreate(expr)
        expected = "future (" * (n - 1) + "future 1" + ")" * (n - 1)
    assert unparse(expr) == expected
    assert unparse(expr, 80) == expected[:len(unparse(expr, 80))]
    assert 80 < len(unparse(expr, 80)) < 100


def test_unparse_takes_a_deep_context_without_recursion():
    # Alternating frames: (fv0 + ((fv1 + (... + hole ...)) + 1)) + 0, DEPTH frames deep.
    context = tuple(HoleRight(FutureRef(k)) if k % 2 else HoleLeft(IntLit(k)) for k in range(DEPTH))
    filler = Add(IntLit(7), FutureCreate(IntLit(8)))
    text = unparse_in_context(filler, context=context)
    assert text == unparse(plug(context, filler))
    assert text.startswith("fv1 + (fv3 + (fv5 + (") and text.endswith(" + 4) + 2) + 0")
    bounded = unparse_in_context(filler, 80, context)
    assert text.startswith(bounded) and 80 < len(bounded) < 100


@pytest.mark.parametrize("source, col", [("²", 1), ("1 + ٣", 5), ("1٣", 2), ("future ９", 8)])
def test_only_ascii_digits_make_integer_literals(source, col):
    with pytest.raises(ParseError) as excinfo:
        parse(source)
    error = excinfo.value
    assert (error.line, error.col) == (1, col)
    assert error.message.startswith("unexpected character")


# Exact fields for inputs where lexing and positions are easy to get wrong:
# lexical errors win over syntax errors, a comment on the last line leaves the
# end of input at its '#', a word must start with a letter, and only "\n"
# starts a line.
@pytest.mark.parametrize("source, fields", [
    ("1 2 %", (1, 5, "unexpected character '%'", ())),
    ("1 + # c", (1, 5, "expected an expression, found end of input", ("an integer", "'('", "future"))),
    ("²", (1, 1, "unexpected character '²'", ())),
    ("x²", (1, 1, "unknown word 'x²'", ("future", "an integer"))),
    ("1 +\r\n %", (2, 2, "unexpected character '%'", ())),
    ("\t1 2", (1, 4, "trailing input after expression, found '2'", ())),
])
def test_parse_errors_carry_exact_fields(source, fields):
    with pytest.raises(ParseError) as excinfo:
        parse(source)
    error = excinfo.value
    assert (error.line, error.col, error.message, error.expected) == fields


@pytest.mark.parametrize("text", [" " * 10**6 + "1", "# note\n" * 10**5 + "1", "1 # " + "c" * 10**6],
                         ids=["blanks", "comment-lines", "long-comment"])
def test_parse_takes_long_blanks_and_comments_without_recursion(text):
    assert parse(text) == IntLit(1)


def _same_tree(a, b):
    """Equal trees, compared node by node in pre-order, since == recurses."""
    for x, y in zip_longest(subterms(a), subterms(b)):
        if x.__class__ is not y.__class__ or (x.__class__ is IntLit and x.value != y.value):
            return False
    return True


@pytest.mark.parametrize("shape", ["right-nest", "paren-nest", "future-tower", "mixed"])
def test_parse_takes_deep_nests_without_recursion(shape):
    n = DEPTH
    if shape == "right-nest":  # 1 + (1 + (... + (1 + 1)))
        text = canonical = "1 + (" * (n - 1) + "1 + 1" + ")" * (n - 1)
    elif shape == "paren-nest":  # ((...(1)...))
        text, canonical = "(" * n + "1" + ")" * n, "1"
    elif shape == "future-tower":  # future future ... future 1
        text, canonical = "future " * n + "1", "future (" * (n - 1) + "future 1" + ")" * (n - 1)
    else:  # future (1 + future (1 + ... future 1))
        text = canonical = "future (1 + " * (n - 1) + "future 1" + ")" * (n - 1)
    assert unparse(parse(text)) == canonical


@pytest.mark.parametrize("last, message", [(")", "trailing input after expression, found ')'"),
                                           ("%", "unexpected character '%'")])
@pytest.mark.parametrize("shape", ["chain", "future-nest"])
def test_an_error_at_the_last_of_many_tokens_has_its_exact_position(shape, last, message):
    # A failing parse lexes the input again up to the failing token, one pass
    # however deep the token lies in a sum or a nest.
    n = DEPTH
    if shape == "chain":  # 1 +\n1 +\n ... 1 +\n1 )
        text, line = "1 +\n" * (n - 1) + "1 " + last, n
    else:  # future\nfuture\n ... future\n1 )
        text, line = "future\n" * n + "1 " + last, n + 1
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    error = excinfo.value
    assert (error.line, error.col, error.message, error.expected) == (line, 3, message, ())


@pytest.mark.parametrize("shape", ["left-chain", "right-nest", "future-tower", "mixed"])
def test_parse_inverts_unparse_on_deep_terms(shape):
    n = DEPTH
    expr = IntLit(n)
    for k in reversed(range(n)):
        if shape == "left-chain":  # ((n + (n-1)) + ...) + 0
            expr = Add(expr, IntLit(k))
        elif shape == "right-nest":  # 0 + (1 + (... + (n-1 + n)))
            expr = Add(IntLit(k), expr)
        elif shape == "future-tower":
            expr = FutureCreate(expr)
        else:  # future (0 + future (1 + ... future (n-1 + n)))
            expr = FutureCreate(Add(IntLit(k), expr))
    assert _same_tree(parse(unparse(expr)), expr)


# Pieces from the seam between the split lexer and ``_LEX``: ASCII digits and
# the fixed tokens, which the split takes; digits that are not ASCII ("１" is
# a decimal, "²" and "٣" digits), word characters, "#", NUL and "." which it
# leaves to ``_LEX``; and whitespace, ASCII and not, that both split on.
SEAM = ("0", "1", "7", "１", "²", "٣", "a", "é", "_", "future", "+", "-", "(", ")",
        " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2009", "\u3000", "#", "\x00", ".")
seam_sources = st.lists(st.sampled_from(SEAM), max_size=24).map("".join)
SEAM_EXAMPLES = ("12future", "future1", "future(1)", "1\xa0+\u30002", "1 + １", "1１", "", "1 # c", "#c\n1")


def _outcome(source):
    """The tree ``parse`` gives, or its error's fields."""
    try:
        return parse(source)
    except ParseError as exc:
        return (exc.line, exc.col, exc.message, exc.expected)


def _with_examples(test):
    for source in SEAM_EXAMPLES:
        test = example(source)(test)
    return test


@settings(max_examples=400, deadline=None, database=None)
@given(seam_sources)
@_with_examples
def test_the_split_lexer_gives_the_regex_tokens(source):
    assert parser._tokens(source) == parser._LEX.findall(source)


@settings(max_examples=400, deadline=None, database=None)
@given(seam_sources)
@_with_examples
def test_parse_is_the_parse_of_the_regex_tokens(source):
    with mock.patch.object(parser, "_tokens", parser._LEX.findall):
        want = _outcome(source)
    assert _outcome(source) == want


def test_the_bench_corpora_are_lexed_by_splitting_and_comments_by_the_regex(monkeypatch):
    corpus = _bench_corpus()
    texts = {cmd.program.text for workload in corpus.WORKLOADS for cmd in corpus.commands(workload, 1)}
    lexer = mock.Mock(wraps=parser._LEX)
    monkeypatch.setattr(parser, "_LEX", lexer)
    for text in texts:
        parse(text)
    assert lexer.findall.call_count == 0
    assert parse("1 + # c\n2") == Add(IntLit(1), IntLit(2)) and lexer.findall.call_count == 1

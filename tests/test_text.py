"""The printed forms: every form reads back what it prints, any text either
reads to an object whose form reads back equal or raises ParseError, and a
ParseError names the token it stopped at."""

import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randlab.corpus import (
    rand_mpt,
    rand_step_nat,
    rand_step_perm,
    rand_tilde_perm,
    rand_window_perm,
)
from randlab.dyadic import MAX_LEVEL, DyadicSet, format_mpt, format_set, parse_mpt, parse_set
from randlab.errors import ParseError
from randlab.groups import format_cycles, parse_cycles
from randlab.stepfn import StepFn, format_step, format_value, parse_step, parse_value
from randlab.text import Reader, format_fraction, parse_fraction
from randlab.tilde import format_tilde, parse_tilde

small = settings(max_examples=100, derandomize=True, deadline=None)

rngs = st.randoms(use_true_random=False)
levels = st.integers(0, 4)
windows = st.integers(0, 8)
fractions = st.fractions(max_denominator=1000)

# kind: (format, parse, strategy of objects built from the corpus generators)
FORMS = {
    "fraction": (format_fraction, parse_fraction, fractions),
    "mpt": (format_mpt, parse_mpt, st.builds(rand_mpt, rngs, levels)),
    "set": (
        format_set,
        parse_set,
        levels.flatmap(
            lambda lev: st.frozensets(st.integers(0, 2 ** lev - 1)).map(
                lambda m: DyadicSet(lev, m)
            )
        ),
    ),
    "cycles": (format_cycles, parse_cycles, st.builds(rand_window_perm, rngs, windows)),
    "value": (
        format_value,
        parse_value,
        st.one_of(
            st.builds(rand_window_perm, rngs, windows), st.integers(-9, 99), fractions
        ),
    ),
    "step": (
        format_step,
        parse_step,
        st.one_of(
            st.builds(rand_step_perm, rngs, levels, windows),
            st.builds(rand_step_nat, rngs, levels, st.integers(1, 9)),
            levels.flatmap(
                lambda lev: st.lists(fractions, min_size=2 ** lev, max_size=2 ** lev).map(
                    lambda vs: StepFn(lev, tuple(vs))
                )
            ),
        ),
    ),
    "tilde": (format_tilde, parse_tilde, st.builds(rand_tilde_perm, rngs, levels, windows)),
}

GRAMMAR = "0123456789 -/.()[]{};,mptsetildu"
JUNK = st.text(alphabet="@#$%&!?~", min_size=1)


def printed(kind):
    fmt, _, objects = FORMS[kind]
    return objects.map(fmt)


def edited(text, edits):
    """``text`` after each ``(position, character or None)`` edit: a
    character replaces the one there, None deletes it."""
    for pos, ch in edits:
        if text:
            pos %= len(text)
            text = text[:pos] + (ch or "") + text[pos + 1 :]
    return text


EDITS = st.lists(
    st.tuples(st.integers(0, 10 ** 6), st.none() | st.sampled_from(GRAMMAR)), max_size=4
)


@pytest.mark.parametrize("kind", FORMS)
@small
@given(data=st.data())
def test_each_form_reads_back_what_it_prints(kind, data):
    fmt, parse, objects = FORMS[kind]
    x = data.draw(objects)
    assert parse(fmt(x)) == x


@pytest.mark.parametrize("kind", FORMS)
@small
@given(data=st.data())
def test_any_text_reads_back_equal_or_is_a_parse_error(kind, data):
    fmt, parse, _ = FORMS[kind]
    text = data.draw(
        st.one_of(
            st.text(),
            st.text(alphabet=GRAMMAR),
            st.builds(edited, printed(kind), EDITS),
        )
    )
    try:
        x = parse(text)
    except ParseError:
        return
    assert parse(fmt(x)) == x


@pytest.mark.parametrize("kind", FORMS)
@small
@given(data=st.data())
def test_a_parse_error_names_the_offending_token(kind, data):
    _, parse, _ = FORMS[kind]
    tokens = Reader(data.draw(printed(kind))).tokens
    pos = data.draw(st.integers(0, len(tokens) - 1))
    junk = data.draw(JUNK)
    with pytest.raises(ParseError, match=re.escape(repr(junk))):
        parse(" ".join(tokens[:pos] + [junk] + tokens[pos + 1 :]))


def test_a_composite_form_reads_its_parts_from_one_stream():
    text = "tilde{step 1[(0 1),()];mpt 1 1 0}"
    assert format_tilde(parse_tilde(text)) == "tilde { step 1 [(0 1), ()] ; mpt 1 1 0 }"


@pytest.mark.parametrize(
    "text",
    [
        "tilde/ { step 0 [()] ; mpt 0 0 }",
        "tildetilde { step 0 [()] ; mpt 0 0 }",
        "tilde { step 0 [()] ; mpt 0 0 } }",
        "tilde { step 1 [(), ()] ; mpt 1 1 0 ; mpt 1 0 1 }",
        "tilde { step 1 [(), (),] ; mpt 1 1 0 }",
        "tilde { step 0 [()] ; mpt 1 +1 0 }",
    ],
)
def test_text_around_or_inside_a_form_is_refused(text):
    with pytest.raises(ParseError):
        parse_tilde(text)


# a negative level is rejected as such, not as a count of 0.5 values
STEP_LEVEL_ERRORS = {
    "step 1 [(0 1)]": "need 2 values at level 1",
    "step -1 [()]": "level -1 outside 0..16",
}


@pytest.mark.parametrize("text", STEP_LEVEL_ERRORS)
def test_step_value_count_must_match_level(text):
    with pytest.raises(ParseError, match=STEP_LEVEL_ERRORS[text]):
        parse_step(text)


@pytest.mark.parametrize("level", [MAX_LEVEL + 1, 10 ** 8])
def test_step_levels_past_the_bound_are_refused_before_any_work(level):
    start = time.perf_counter()
    with pytest.raises(ParseError, match=rf"level {level} outside 0\.\.{MAX_LEVEL}"):
        parse_step(f"step {level} [()]")
    assert time.perf_counter() - start < 0.1


def test_a_step_at_the_finest_level_reads():
    assert parse_step(f"step {MAX_LEVEL} [{', '.join(['0'] * 2 ** MAX_LEVEL)}]").level == MAX_LEVEL


# a zero denominator or a non-number is a parse error, never a raw
# ZeroDivisionError or ValueError
BAD_NUMBERS = {
    "value-zero-denominator": (parse_value, "1/0"),
    "value-not-a-number": (parse_value, "x/2"),
}


@pytest.mark.parametrize("case", BAD_NUMBERS)
def test_bad_numbers_are_parse_errors(case):
    parse, text = BAD_NUMBERS[case]
    with pytest.raises(ParseError):
        parse(text)


def test_fractions_read_integers_rationals_and_decimals():
    assert [parse_fraction(t) for t in ["3", "-1/2", "0.02", "29/100"]] == [
        3, F(-1, 2), F(1, 50), F(29, 100)
    ]
    for bad in ["1/0", "1/00", "", "1 2", "+1", "1e-3"]:
        with pytest.raises(ParseError):
            parse_fraction(bad)

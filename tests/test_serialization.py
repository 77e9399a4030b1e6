"""Round trips for the block-form serializations."""

import random
from fractions import Fraction as F

import pytest

from randlab.corpus import rand_step_nat, rand_tilde_perm, rand_window_perm
from randlab.dyadic import DyadicSet
from randlab.errors import ParseError
from randlab.groups import parse_pl
from randlab.stepfn import StepFn, parse_step, parse_value
from randlab.synthesis import (
    SynthesisTask,
    format_synthesis_result,
    format_synthesis_task,
    parse_synthesis_task,
    synthesize_conjugator,
)
from randlab.tilde import (
    PointwiseNbhd,
    ProductNbhd,
    format_nbhd,
    parse_nbhd,
)


def test_pointwise_nbhd_round_trip():
    rng = random.Random(3)
    center = rand_tilde_perm(rng, 2, 4)
    nbhd = PointwiseNbhd(
        center=center,
        tests=((rand_step_nat(rng, 2, 4), F(1, 4)), (rand_step_nat(rng, 1, 4), F(1, 8))),
    )
    back = parse_nbhd(format_nbhd(nbhd))
    assert isinstance(back, PointwiseNbhd)
    assert back.center.same_element(center)
    assert len(back.tests) == 2
    assert back.tests[0][1] == F(1, 4)
    assert back.tests[0][0].same_function(nbhd.tests[0][0])


def test_product_nbhd_round_trip():
    rng = random.Random(5)
    center = rand_tilde_perm(rng, 2, 4)
    nbhd = ProductNbhd(
        center_f=center.f,
        center_t=center.t,
        value_conditions=((0, F(1, 16)), (3, F(1, 8))),
        set_conditions=((DyadicSet(2, frozenset({1, 2})), F(1, 4)),),
    )
    back = parse_nbhd(format_nbhd(nbhd))
    assert isinstance(back, ProductNbhd)
    assert back.value_conditions == nbhd.value_conditions
    assert back.set_conditions[0][0].same_set(nbhd.set_conditions[0][0])
    assert back.set_conditions[0][1] == F(1, 4)


def test_nbhd_parse_errors():
    with pytest.raises(ParseError):
        parse_nbhd("nbhd weird {\n}")
    with pytest.raises(ParseError):
        parse_nbhd("nbhd pointwise {\n  test step 0 [1]\n}")


# a negative level is rejected as such, not as a count of 0.5 values
STEP_LEVEL_ERRORS = {
    "step 1 [(0 1)]": "need 2 values at level 1",
    "step -1 [()]": "level -1 is not a nonnegative int",
}


@pytest.mark.parametrize("text", STEP_LEVEL_ERRORS)
def test_step_value_count_must_match_level(text):
    with pytest.raises(ParseError, match=STEP_LEVEL_ERRORS[text]):
        parse_step(text)


NBHD_HEAD = "nbhd product {\n  center tilde { step 0 [()] ; mpt 0 0 }\n"
TASK_HEAD = "synthesis {\n  sigma auto\n  s mpt 1 1 0\n  h step 0 [()]\n"

# a zero denominator or a non-number is a parse error, never a raw
# ZeroDivisionError or ValueError
BAD_NUMBERS = {
    "value-zero-denominator": (parse_value, "1/0"),
    "value-not-a-number": (parse_value, "x/2"),
    "pl-zero-denominator": (parse_pl, "piece 1/0 0"),
    "radius-not-a-number": (parse_nbhd, NBHD_HEAD + "  value 0 ; radius x\n}"),
    "radius-zero-denominator": (parse_nbhd, NBHD_HEAD + "  value 0 ; radius 1/0\n}"),
    "task-k-not-a-number": (parse_synthesis_task, TASK_HEAD + "  k x\n  eps 1/4\n}"),
    "task-eps-zero-denominator": (
        parse_synthesis_task, TASK_HEAD + "  k 2\n  eps 1/0\n}"
    ),
}


@pytest.mark.parametrize("case", BAD_NUMBERS)
def test_bad_numbers_are_parse_errors(case):
    parse, text = BAD_NUMBERS[case]
    with pytest.raises(ParseError):
        parse(text)


def test_synthesis_task_round_trip():
    rng = random.Random(7)
    from randlab.corpus import rand_aperiodic_mpt, rand_step_perm

    task = SynthesisTask(
        sigma=None,
        s=rand_aperiodic_mpt(rng, 6, 4),
        h=rand_step_perm(rng, 2, 5),
        k=4,
        eps=F(1, 2),
        height=4,
    )
    back = parse_synthesis_task(format_synthesis_task(task))
    assert back.sigma is None
    assert back.s.same_map(task.s)
    assert back.h.same_function(task.h)
    assert (back.k, back.eps, back.height) == (4, F(1, 2), 4)
    result = synthesize_conjugator(back)
    text = format_synthesis_result(result)
    assert "agreement" in text and "certificates" in text

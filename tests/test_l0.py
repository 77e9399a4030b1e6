"""Tests for step functions, their metrics, and the conjugation toward a
constant function."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randlab.corpus import (
    equilateral_space,
    rand_step_perm,
    rand_window_perm,
)
from randlab.errors import MismatchedSpace, NotConverging, Unmatchable
from randlab.groups import E, WindowPerm, generic_surrogate, parse_cycles, perm_dp, perm_du
from randlab.spaces import SpaceIsometry, isometry_group
from randlab.stepfn import (
    StepFn,
    constant_generic_conjugator,
    dhat,
    format_step,
    l0_mul,
    lsc_probe,
    parse_step,
    zip_values,
)


def test_dhat_trivial_and_halves():
    a, b = parse_cycles("(0 1)"), E
    f = StepFn.constant(a)
    assert dhat(f, f, perm_du) == 0
    h = StepFn.two_valued(F(1, 2), a, b)
    assert dhat(StepFn.constant(a), h, perm_du) == F(1, 2)
    quarter = StepFn.two_valued(F(1, 4), parse_cycles("(0 1)"), E)
    assert dhat(quarter, StepFn.constant(E), perm_du) == F(1, 4)


def test_dhat_rejects_mixed_kinds():
    with pytest.raises(MismatchedSpace):
        dhat(StepFn.constant(E), StepFn.constant(3), perm_du)


def test_mixed_values_past_the_first_interval_are_refused():
    # every value on both sides is checked, not only the first of each
    mixed = StepFn(1, (E, 3))
    three, four = isometry_group(equilateral_space(3)), isometry_group(equilateral_space(4))
    two_spaces = StepFn(1, (three[0], four[0]))
    for f, h in ((mixed, StepFn.constant(E, 1)), (two_spaces, StepFn.constant(three[0], 1))):
        for g, k in ((f, h), (h, f)):
            with pytest.raises(MismatchedSpace):
                dhat(g, k, lambda a, b: F(0))
            with pytest.raises(MismatchedSpace):
                l0_mul(g, k)


def test_metric_axioms_random_triples():
    rng = random.Random(3)
    for _ in range(80):
        f, g, h = (rand_step_perm(rng, 3, 8) for _ in range(3))
        for metric in (perm_dp, perm_du):
            assert dhat(f, f, metric) == 0
            assert dhat(f, g, metric) == dhat(g, f, metric)
            assert dhat(f, h, metric) <= dhat(f, g, metric) + dhat(g, h, metric)
        if not f.same_function(g):
            assert dhat(f, g, perm_dp) > 0


def test_refinement_invariance_of_metrics():
    rng = random.Random(5)
    for _ in range(30):
        f, g = rand_step_perm(rng, 3, 6), rand_step_perm(rng, 3, 6)
        assert dhat(f, g, perm_dp) == dhat(f.refine(6), g.refine(6), perm_dp)
        assert dhat(f, g, perm_du) == dhat(f.refine(5), g.refine(5), perm_du)


def test_dhat_u_bi_invariance():
    rng = random.Random(7)
    for _ in range(40):
        f, g, a, b = (rand_step_perm(rng, 3, 6) for _ in range(4))
        lhs = dhat(l0_mul(l0_mul(a, f), b), l0_mul(l0_mul(a, g), b), perm_du)
        assert lhs == dhat(f, g, perm_du)


def test_group_ops():
    rng = random.Random(9)
    f = rand_step_perm(rng, 2, 6)
    inv = f.map(lambda v: v.inverse())
    assert l0_mul(f, inv).same_function(StepFn.constant(E))
    g, h = rand_window_perm(rng, 6), rand_window_perm(rng, 6)
    by = StepFn.constant(h)
    conj = l0_mul(l0_mul(by.map(lambda v: v.inverse()), StepFn.constant(g)), by)
    assert conj.same_function(StepFn.constant(g.conj(h)))
    a, b = rand_step_perm(rng, 1, 6), rand_step_perm(rng, 1, 6)
    prod = l0_mul(a, b)
    assert prod.values == tuple(x * y for x, y in zip(a.values, b.values))


def _value_pool(values, copy):
    """``values`` and an equal but distinct copy of each."""
    return [*values, *map(copy, values)]


_triangle = isometry_group(equilateral_space(3))
value_pools = [
    _value_pool(
        [parse_cycles("(0 1)"), parse_cycles("(0 2 1)(3 4)"), E],
        lambda v: WindowPerm(v.images),
    ),
    _value_pool(_triangle[:3], lambda v: SpaceIsometry(v.space, v.mapping)),
]


def fibers(pool):
    return st.integers(0, 3).flatmap(
        lambda lev: st.lists(
            st.sampled_from(pool), min_size=2 ** lev, max_size=2 ** lev
        ).map(lambda vs: StepFn(lev, tuple(vs)))
    )


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(value_pools).flatmap(lambda pool: st.tuples(fibers(pool), fibers(pool))))
def test_map_and_l0_mul_match_the_elementwise_definition(fh):
    f, h = fh
    assert f.map(lambda v: v.inverse()).values == tuple(v.inverse() for v in f.values)
    m, fv, hv = zip_values(f, h)
    prod = l0_mul(f, h)
    assert (prod.level, prod.values) == (m, tuple(a * b for a, b in zip(fv, hv)))
    assert len(set(map(id, prod.values))) == len(set(zip(map(id, fv), map(id, hv))))


def test_l0_mul_of_two_constants_multiplies_once(monkeypatch):
    calls = []
    mul = WindowPerm.__mul__
    monkeypatch.setattr(WindowPerm, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    g, h = parse_cycles("(0 1 2)"), parse_cycles("(1 5)")
    prod = l0_mul(StepFn.constant(g, 9), StepFn.constant(h, 8))
    assert len(calls) == 1
    assert prod.same_function(StepFn.constant(g * h))


def test_two_isometry_valued_dhat():
    space = equilateral_space(3)
    group = isometry_group(space)
    du = lambda a, b: max(
        space.d(a(p), b(p)) for p in space.points
    )
    f = StepFn.constant(group[0], 1)
    h = StepFn(1, (group[0], group[1]))
    assert dhat(f, h, du) == F(1, 2)


def test_lsc_probe_constant_sequence():
    rng = random.Random(11)
    f, h = rand_step_perm(rng, 3, 5), rand_step_perm(rng, 3, 5)
    rep = lsc_probe(f, h, [f, f, f], perm_dp, perm_du)
    assert rep.holds and rep.tail_min == rep.lhs


def _corrupt(f, h, ks, toward_h=False, fresh=None):
    out = []
    for k in ks:
        vals = list(f.values)
        hv = h.refine(f.level).values
        width = 2 ** f.level // 2 ** k
        for i in range(width):
            vals[i] = hv[i] if toward_h else fresh
        out.append(StepFn(f.level, tuple(vals)))
    return out


def test_lsc_probe_shrinking_corruption():
    rng = random.Random(13)
    for trial in range(30):
        f, h = rand_step_perm(rng, 4, 5), rand_step_perm(rng, 4, 5)
        fresh = parse_cycles("(40 41)")  # outside every window, differs from all
        seq = _corrupt(f, h, range(1, 5), fresh=fresh)
        rep = lsc_probe(f, h, seq, perm_dp, perm_du)
        assert rep.holds and rep.corrected_holds


def test_lsc_probe_negative_control():
    # corrupting toward h pushes the sequence closer to h than f is;
    # the probe must detect the violated inequality
    rng = random.Random(17)
    violations = 0
    for trial in range(30):
        f, h = rand_step_perm(rng, 4, 5), rand_step_perm(rng, 4, 5)
        seq = _corrupt(f, h, range(1, 5), toward_h=True)
        rep = lsc_probe(f, h, seq, perm_dp, perm_du)
        if not rep.holds:
            violations += 1
            assert rep.corrected_holds  # the corrected bound always holds
    assert violations > 0


def test_lsc_probe_rejects_non_converging():
    rng = random.Random(19)
    f, h = rand_step_perm(rng, 3, 5), rand_step_perm(rng, 3, 5)
    away = StepFn.constant(parse_cycles("(50 51)"), 3)
    with pytest.raises(NotConverging):
        lsc_probe(f, h, [f, away], perm_dp, perm_du)


def test_constant_generic_conjugator_trivial():
    g = generic_surrogate(4, 2).realized
    h, achieved = constant_generic_conjugator(g, StepFn.constant(g), 4, F(0))
    assert achieved == 0


def test_constant_generic_conjugator_conjugate():
    rng = random.Random(29)
    g = generic_surrogate(4, 2).realized
    x = rand_window_perm(rng, 8)
    h, achieved = constant_generic_conjugator(g, StepFn.constant(g.conj(x)), 4, F(0))
    assert achieved == 0


def test_constant_generic_conjugator_two_valued():
    rng = random.Random(31)
    g = generic_surrogate(5, 2).realized
    f = StepFn.two_valued(
        F(1, 2), g.conj(rand_window_perm(rng, 10)), g.conj(rand_window_perm(rng, 10))
    )
    h, achieved = constant_generic_conjugator(g, f, 4, F(0))
    # verify intervalwise: conjugation matches the value on the window
    for rho, v in zip(h.values, f.values):
        assert all(g.conj(rho)(n) == v(n) for n in range(4))
    assert achieved == 0


def test_constant_generic_conjugator_unmatchable():
    g = E  # identity has no spare cycles beyond fixed points
    bad = StepFn.constant(parse_cycles("(0 1 2)"))
    with pytest.raises(Unmatchable) as info:
        constant_generic_conjugator(g, bad, 3, F(0))
    assert info.value.interval == 0


def test_constant_generic_conjugator_needs_window_permutations():
    group = isometry_group(equilateral_space(3))
    with pytest.raises(MismatchedSpace):
        constant_generic_conjugator(group[1], StepFn.constant(group[1]), 3, F(0))


def test_step_serialization():
    f = StepFn(1, (parse_cycles("(0 1)"), E))
    assert parse_step(format_step(f)).same_function(f)
    g = StepFn(1, (3, 7))
    assert parse_step(format_step(g)).same_function(g)

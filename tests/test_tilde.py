"""Tests for the semidirect-product group, its action, and its metrics."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randlab.corpus import (
    equilateral_space,
    rand_mpt,
    rand_step_isometry,
    rand_step_nat,
    rand_step_perm,
    rand_step_points,
    rand_tilde_perm,
)
from randlab.dyadic import DyadicMPT, DyadicSet, delta_u
from randlab.errors import MismatchedSpace, NotDiscrete
from randlab.groups import E, WindowPerm, parse_cycles, perm_du
from randlab.spaces import isometry_group, space_identity
from randlab.stepfn import StepFn, dhat
from randlab.tilde import (
    PointwiseNbhd,
    ProductNbhd,
    TildeElement,
    format_tilde,
    lu_bounds,
    lu_estimate,
    lu_exact_discrete,
    nbhd_pointwise_to_product,
    nbhd_product_to_pointwise,
    parse_tilde,
    pointwise_metric,
    sample_members,
    tilde_act,
    tilde_identity,
    verify_pointwise_to_product,
)


def test_product_trivial_cases():
    rng = random.Random(3)
    t, s = rand_mpt(rng, 3), rand_mpt(rng, 3)
    a = TildeElement(StepFn.constant(E), t)
    b = TildeElement(StepFn.constant(E), s)
    assert (a * b).t.same_map(t * s)
    assert (a * b).f.same_function(StepFn.constant(E))
    f, g = rand_step_perm(rng, 3, 6), rand_step_perm(rng, 3, 6)
    fa = TildeElement(f, DyadicMPT.identity(3))
    ga = TildeElement(g, DyadicMPT.identity(3))
    from randlab.stepfn import l0_mul

    assert (fa * ga).f.same_function(l0_mul(f, g))


def test_inverse_is_identity():
    rng = random.Random(5)
    for _ in range(30):
        a = rand_tilde_perm(rng, 3, 6)
        res = a * a.inverse()
        assert res.f.same_function(StepFn.constant(E))
        assert res.t.is_identity()


def test_action_identity_random():
    rng = random.Random(7)
    for _ in range(60):
        a, b = rand_tilde_perm(rng, 3, 6), rand_tilde_perm(rng, 3, 6)
        alpha = rand_step_nat(rng, 3, 8)
        assert tilde_act(a * b, alpha).same_function(
            tilde_act(a, tilde_act(b, alpha))
        )
        assert tilde_act(a.inverse(), tilde_act(a, alpha)).same_function(alpha)


def test_action_examples():
    alpha = StepFn(2, (0, 1, 2, 3))
    ident = tilde_identity()
    assert tilde_act(ident, alpha).same_function(alpha)
    t = DyadicMPT.shift(2)
    shuffled = tilde_act(TildeElement(StepFn.constant(E), t), alpha)
    # value on interval i comes from interval T**-1(i)
    assert shuffled.values == (3, 0, 1, 2)
    f = StepFn.two_valued(F(1, 2), parse_cycles("(0 1)"), E)
    moved = tilde_act(TildeElement(f, DyadicMPT.identity(1)), StepFn.constant(0))
    assert moved.values == (1, 0)


def test_action_is_isometric():
    rng = random.Random(11)
    from randlab.spaces import nat_discrete

    for _ in range(40):
        a = rand_tilde_perm(rng, 3, 6)
        alpha, beta = rand_step_nat(rng, 3, 8), rand_step_nat(rng, 3, 8)
        assert dhat(
            tilde_act(a, alpha), tilde_act(a, beta), nat_discrete
        ) == dhat(alpha, beta, nat_discrete)


def test_pointwise_metric_basics():
    rng = random.Random(13)
    a = rand_tilde_perm(rng, 2, 5)
    assert pointwise_metric(a, a, budget=20) == 0
    ident = tilde_identity(E, 2)
    moved = TildeElement(StepFn.constant(E, 2), DyadicMPT.shift(2))
    val = pointwise_metric(ident, moved, budget=20)
    assert 0 < val <= 1


def test_pointwise_metric_budget_monotone():
    rng = random.Random(17)
    for _ in range(10):
        a, b = rand_tilde_perm(rng, 2, 5), rand_tilde_perm(rng, 2, 5)
        v16 = pointwise_metric(a, b, budget=16)
        v32 = pointwise_metric(a, b, budget=32)
        assert v16 <= v32 + F(1, 2 ** 16)
        assert v16 <= v32  # terms are nonnegative


def test_lu_exact_discrete_examples():
    rng = random.Random(19)
    a = rand_tilde_perm(rng, 3, 6)
    assert lu_exact_discrete(a, a) == 0
    # fiber nontrivial on [3/4, 1), transformation moving [0, 1/2)
    level = 2
    f = StepFn(level, (E, E, E, parse_cycles("(0 1)")))
    t = DyadicMPT.from_cycles(level, [[0, 1]])
    elem = TildeElement(f, t)
    ident = tilde_identity(E, level)
    assert lu_exact_discrete(elem, ident) == F(3, 4)
    # trivial fiber, full cycle
    full = TildeElement(StepFn.constant(E, 3), DyadicMPT.shift(3))
    assert lu_exact_discrete(full, tilde_identity(E, 3)) == 1


def test_lu_exact_matches_union_measure():
    rng = random.Random(23)
    for _ in range(50):
        a, b = rand_tilde_perm(rng, 4, 6), rand_tilde_perm(rng, 4, 6)
        c = b.inverse() * a
        union = c.fiber_support().union(c.aut_support())
        assert lu_exact_discrete(a, b) == union.measure


def test_lu_exact_rejects_non_discrete():
    space = equilateral_space(3)
    group = isometry_group(space)
    a = TildeElement(StepFn.constant(group[1], 2), DyadicMPT.identity(2))
    with pytest.raises(NotDiscrete):
        lu_exact_discrete(a, tilde_identity(space_identity(space), 2))


def window_values(level):
    """Window permutations on 0..8 for each interval of ``level``."""
    return st.lists(
        st.integers(0, 8).flatmap(lambda w: st.permutations(range(w))).map(WindowPerm),
        min_size=2 ** level,
        max_size=2 ** level,
    ).map(lambda vals: StepFn(level, tuple(vals)))


def interval_maps(level):
    return st.permutations(range(2 ** level)).map(lambda p: DyadicMPT(level, tuple(p)))


def tilde_elements(level):
    fibers = st.one_of(st.just(StepFn.constant(E, level)), window_values(level))
    maps = st.one_of(st.just(DyadicMPT.identity(level)), interval_maps(level))
    return st.builds(TildeElement, fibers, maps)


pairs = st.integers(0, 5).flatmap(lambda lev: st.tuples(tilde_elements(lev), tilde_elements(lev)))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(pairs)
def test_lu_estimate_achieves_discrete_value(ab):
    # the single discrete witness reaches mu({h != e} u {R != id}), which
    # bounds every displacement, so no other witness could raise the value
    a, b = ab
    est = lu_estimate(a, b)
    assert est.value == lu_exact_discrete(a, b) <= est.upper


def test_sampled_displacements_below_exact():
    rng = random.Random(31)
    from randlab.spaces import nat_discrete

    for i in range(30):
        a, b = rand_tilde_perm(rng, 4, 6), rand_tilde_perm(rng, 4, 6)
        exact = lu_exact_discrete(a, b)
        for _ in range(5):
            alpha = rand_step_nat(rng, 4, 12)
            d = dhat(tilde_act(a, alpha), tilde_act(b, alpha), nat_discrete)
            assert d <= exact


def test_lu_bounds_examples():
    level = 3
    ident = tilde_identity(E, level)
    assert lu_bounds(ident, ident).lower == 0
    assert lu_bounds(ident, ident).upper == 0
    # trivial fiber over a full cycle: bounds (r/8, 1) with r = 1
    full = TildeElement(StepFn.constant(E, level), DyadicMPT.shift(level))
    b = lu_bounds(full, ident)
    assert (b.lower, b.upper) == (F(1, 8), 1)
    # fiber nontrivial on a fixed quarter: bounds coincide at 1/4
    f = StepFn(2, (parse_cycles("(0 1)"), E, E, E))
    elem = TildeElement(f, DyadicMPT.identity(2))
    b2 = lu_bounds(elem, tilde_identity(E, 2))
    assert b2.lower == b2.upper == F(1, 4)


def test_lu_biinvariance():
    rng = random.Random(37)
    for _ in range(40):
        a, b, c, d = (rand_tilde_perm(rng, 3, 5) for _ in range(4))
        assert lu_exact_discrete(c * a * d, c * b * d) == lu_exact_discrete(a, b)
        # triangle inequality
        assert lu_exact_discrete(a, b) <= lu_exact_discrete(a, c) + lu_exact_discrete(c, b)


def test_general_case_sandwich():
    space = equilateral_space(3)
    group = isometry_group(space)
    rng = random.Random(41)
    for i in range(60):
        a = TildeElement(rand_step_isometry(rng, 3, group), rand_mpt(rng, 3))
        b = TildeElement(rand_step_isometry(rng, 3, group), rand_mpt(rng, 3))
        est = lu_estimate(a, b, budget=3, seed=i)
        assert est.lower <= est.value <= est.upper
        bounds = lu_bounds(a, b)
        assert bounds.alt_lower <= bounds.lower
        c = b.inverse() * a
        du = lambda x, y: max(space.d(x(p), y(p)) for p in space.points)
        dhat_u = dhat(c.f, StepFn.constant(space_identity(space), c.f.level), du)
        aut_mass = c.aut_support().measure
        # product equivalence: max form below, sum form above
        assert bounds.alt_lower == F(1, 8) * max(aut_mass, dhat_u)
        assert bounds.upper <= dhat_u + aut_mass


def test_nbhd_product_to_pointwise_containment():
    rng = random.Random(43)
    space_alpha = StepFn(2, (0, 0, 1, 1))
    center = rand_tilde_perm(rng, 2, 4)
    eps = F(1, 2)
    box = nbhd_product_to_pointwise(center, space_alpha, eps)
    assert len(box.value_conditions) == 2  # two distinct values
    assert all(bound == eps / 4 for _, bound in box.value_conditions)
    members = sample_members(box, 20, seed=7, value_pool=[E, parse_cycles("(0 1)")])
    assert members
    for m in members:
        assert PointwiseNbhd(center, ((space_alpha, eps),)).residuals(m)[0] < eps


def test_nbhd_product_to_pointwise_whole_group():
    center = tilde_identity(E, 2)
    # per-factor bounds above the diameter accept everything
    box = nbhd_product_to_pointwise(center, StepFn.constant(0, 2), F(4))
    far = TildeElement(StepFn.constant(parse_cycles("(0 1)"), 2), DyadicMPT.shift(2))
    assert box.contains(far)


def test_nbhd_pointwise_to_product_certificates():
    rng = random.Random(47)
    center = rand_tilde_perm(rng, 3, 4)
    b = DyadicSet(3, frozenset({0, 1, 5}))
    alpha = rand_step_nat(rng, 3, 3)
    cert = nbhd_pointwise_to_product(center, b, alpha, F(1, 4), 0, 1)
    assert cert.nbhd.tests[0][1] == F(1, 16)  # eps * s / 4 with s = 1
    members = sample_members(cert.nbhd, 15, seed=11)
    assert members
    for m in members:
        out = verify_pointwise_to_product(cert, m)
        assert out["member"] and out["set_ok"] and out["fiber_ok"]


def test_nbhd_pointwise_to_product_empty_set():
    rng = random.Random(53)
    center = rand_tilde_perm(rng, 2, 4)
    cert = nbhd_pointwise_to_product(
        center, DyadicSet.empty(2), rand_step_nat(rng, 2, 3), F(1, 4), 0, 1
    )
    out = verify_pointwise_to_product(cert, center)
    assert out["set_displacement"] == 0 and out["set_ok"]


def test_serialization_round_trip():
    rng = random.Random(59)
    a = rand_tilde_perm(rng, 2, 5)
    assert parse_tilde(format_tilde(a)).same_element(a)


def test_unknown_value_kind_is_a_mismatched_space():
    a = TildeElement(StepFn.constant(3, 1), DyadicMPT.identity(1))
    with pytest.raises(MismatchedSpace):
        lu_bounds(a, a)
    with pytest.raises(MismatchedSpace):
        pointwise_metric(a, a, budget=2)


def test_action_rejects_points_outside_the_space():
    space = equilateral_space(3)
    iso = TildeElement(StepFn.constant(isometry_group(space)[1], 1), DyadicMPT.identity(1))
    perm = TildeElement(StepFn.constant(parse_cycles("(0 1)"), 1), DyadicMPT.identity(1))
    with pytest.raises(MismatchedSpace):
        tilde_act(iso, StepFn.constant(7, 1))
    with pytest.raises(MismatchedSpace):
        tilde_act(perm, StepFn.constant("x", 1))

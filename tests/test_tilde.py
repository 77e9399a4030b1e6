"""Tests for the semidirect-product group, its action, and its metrics."""

import itertools
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
    rand_tilde_perm,
)
from randlab.dyadic import DyadicMPT
from randlab.errors import BadBudget, DegenerateSpace, MismatchedSpace, NotDiscrete, RandlabError
from randlab.groups import E, WindowPerm, parse_cycles
from randlab.spaces import discrete_space, isometry_group, space_identity
from randlab.stepfn import StepFn, dhat, value_kind
from randlab.tilde import (
    TildeElement,
    enumerate_test_functions,
    format_tilde,
    lu_bounds,
    lu_estimate,
    lu_exact_discrete,
    parse_tilde,
    pointwise_metric,
    reduce_pair,
    tilde_act,
    tilde_identity,
)


def test_inverse_of_a_constant_fiber_inverts_one_value(monkeypatch):
    calls = []
    inverse = WindowPerm.inverse
    monkeypatch.setattr(WindowPerm, "inverse", lambda v: calls.append(1) or inverse(v))
    h = parse_cycles("(0 3 5)(1 2)")
    t = rand_mpt(random.Random(5), 9)
    inv = TildeElement(StepFn.constant(h, 9), t).inverse()
    assert len(calls) == 1
    assert inv.f.same_function(StepFn.constant(inverse(h), 9))


@pytest.mark.parametrize("uniform", [lu_bounds, lu_exact_discrete])
def test_uniform_metrics_refuse_a_fiber_of_mixed_kinds(uniform):
    # the first value is a permutation, so only the full check sees the int
    a = TildeElement(StepFn(1, (E, 3)), DyadicMPT.identity(1))
    with pytest.raises(MismatchedSpace):
        uniform(a, tilde_identity(E, 1))
    # as the inverted operand too: the kinds are checked before inverting
    with pytest.raises(MismatchedSpace):
        uniform(tilde_identity(E, 1), a)


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


def test_one_point_space_has_no_diameter_pair():
    with pytest.raises(DegenerateSpace):
        discrete_space(1).diameter_pair()


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


@pytest.mark.parametrize("point", [-1, True])
def test_permutation_action_refuses_negative_and_bool_points(point):
    perm = TildeElement(StepFn.constant(WindowPerm([1, 2, 0]), 1), DyadicMPT.identity(1))
    with pytest.raises(MismatchedSpace):
        tilde_act(perm, StepFn(0, (point,)))
    with pytest.raises(MismatchedSpace):
        tilde_act(perm, StepFn(1, (0, point)))


def test_action_checks_every_point():
    space = equilateral_space(3)
    iso = TildeElement(StepFn.constant(isometry_group(space)[1], 1), DyadicMPT.identity(1))
    perm = TildeElement(StepFn.constant(parse_cycles("(0 1)"), 1), DyadicMPT.identity(1))
    # the first interval's point is fine; the one at interval 1 is not
    for a, alpha in ((iso, StepFn(1, (0, 7))), (perm, StepFn(1, (0, "x")))):
        with pytest.raises(MismatchedSpace):
            tilde_act(a, alpha)
        with pytest.raises(MismatchedSpace):
            reduce_pair(a, a).act(alpha)


def test_space_lookup_of_a_foreign_point_is_a_mismatched_space():
    space = equilateral_space(3)
    assert [space.index(p) for p in space.points] == [0, 1, 2]
    for lookup in (lambda: space.index(7), lambda: space.d(0, 7), lambda: space.d([], 0)):
        with pytest.raises(MismatchedSpace):
            lookup()


def test_budgets_out_of_range_are_typed_errors():
    rng = random.Random(61)
    a, b = rand_tilde_perm(rng, 2, 5), rand_tilde_perm(rng, 2, 5)
    for call in (
        lambda: lu_estimate(a, b, budget=0),
        lambda: pointwise_metric(a, b, budget=-1),
        lambda: pointwise_metric(a, b, budget=1.5),
    ):
        with pytest.raises(BadBudget, match="budget") as info:
            call()
        assert isinstance(info.value, RandlabError) and isinstance(info.value, ValueError)
    assert pointwise_metric(a, b, budget=0) == 0


# -- the reduced pair against the two-sided formulas ---------------------------

SPACE = equilateral_space(3)
GROUP = isometry_group(SPACE)


def two_action_pointwise(a, b, budget):
    """The pointwise metric as ``dhat(a alpha, b alpha)``: two actions per
    test function, no reduction."""
    v = a.f.values[0]
    kind = value_kind(v)
    metric = kind.point_metric(v)
    tests = itertools.islice(enumerate_test_functions(kind.marked_points(v)), budget)
    return sum(
        (dhat(tilde_act(a, al), tilde_act(b, al), metric) / 2 ** (m + 1)
         for m, al in enumerate(tests)),
        F(0),
    )


def sandwich(a, b):
    """(lower, upper) of the sandwich from ``b**-1 a`` at its own levels."""
    c = b.inverse() * a
    v = c.f.values[0]
    kind = value_kind(v)
    ident = kind.identity(v)
    moving = c.aut_support().measure
    m = max(c.f.level, c.t.level)
    f, t = c.f.refine(m), c.t.refine(m)
    fixed = sum(
        (kind.du(h, ident) for i, h in enumerate(f.values) if t.perm[i] == i), F(0)
    ) / 2 ** m
    return kind.diameter(v) / 8 * moving + fixed, moving + fixed


@st.composite
def drawn_pairs(draw):
    """A pair over either fiber kind; each fiber and map level is drawn on
    its own in 0..7, and ``b`` is sometimes ``a`` or the identity."""
    isometric = draw(st.booleans())
    fa, ta, fb, tb = draw(st.tuples(*[st.integers(0, 7)] * 4))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def element(f_level, t_level):
        if isometric:
            fiber = rand_step_isometry(rng, f_level, GROUP)
        else:
            fiber = rand_step_perm(rng, f_level, 6)
        return TildeElement(fiber, rand_mpt(rng, t_level))

    a = element(fa, ta)
    b = draw(st.sampled_from(("drawn", "a", "identity")))
    if b == "drawn":
        b = element(fb, tb)
    elif b == "a":
        b = a
    else:
        b = tilde_identity(space_identity(SPACE) if isometric else E, fb)
    return a, b


@settings(max_examples=80, derandomize=True, deadline=None)
@given(drawn_pairs(), st.integers(0, 24), st.integers(0, 99))
def test_reduced_pair_matches_the_two_sided_formulas(ab, budget, seed):
    a, b = ab
    r = reduce_pair(a, b)
    assert r.c.same_element(b.inverse() * a)
    assert r.pointwise_metric(budget) == two_action_pointwise(a, b, budget)
    assert pointwise_metric(a, b, budget=budget) == r.pointwise_metric(budget)
    bounds = r.lu_bounds()
    assert (bounds.lower, bounds.upper) == sandwich(a, b)
    assert lu_bounds(a, b) == bounds
    est = r.lu_estimate(4, seed)
    assert lu_estimate(a, b, budget=4, seed=seed) == est
    assert (est.lower, est.upper) == (bounds.lower, bounds.upper)
    metric = value_kind(a.f.values[0]).point_metric(a.f.values[0])
    assert est.value == max(
        dhat(tilde_act(a, w), tilde_act(b, w), metric) for w in r.witnesses(4, seed)
    )
    if r.kind.discrete:
        c = b.inverse() * a
        exact = c.fiber_support().union(c.aut_support()).measure
        assert r.lu_exact_discrete() == lu_exact_discrete(a, b) == exact == est.value
    else:
        with pytest.raises(NotDiscrete):
            r.lu_exact_discrete()

"""Tests for conjugator synthesis, density constructions, and diagonal
matching."""

import random
from fractions import Fraction as F

import pytest

from randlab.corpus import (
    rand_aperiodic_mpt,
    rand_cycle_type,
    rand_full_cycle,
    rand_mpt,
    rand_step_perm,
    rand_window_perm,
)
from randlab.dyadic import DyadicMPT, DyadicSet, delta_u, periodic_approximation
from randlab.errors import (
    InsufficientCycles,
    NotExactTower,
    OracleFailure,
    SimultaneousMatchUnsupported,
)
from randlab.groups import (
    E,
    cycle_pack,
    from_cycles,
    generic_surrogate,
    match_partial,
)
from randlab.stepfn import StepFn
from randlab.synthesis import (
    MetricSynthesisTask,
    SynthesisTask,
    approx_conjugate_constant,
    conjugate_into_neighborhood,
    diagonal_experiment,
    mpt_power_oracle,
    nearest_of_cycle_type,
    column_intervals,
    sigma_budget,
    synthesize_conjugator,
    synthesize_conjugator_metric,
    tower_product,
)
from randlab.tilde import ProductNbhd, TildeElement, lu_exact_discrete, tilde_identity


def translated(p, offset):
    """Copy of ``p`` moved up by ``offset``: ``n + offset -> p(n) + offset``."""
    return from_cycles([[x + offset for x in c] for c in p.cycles()])


# -- tower products ------------------------------------------------------------

def test_tower_product_identity_values():
    pa = periodic_approximation(DyadicMPT.shift(4), 4, F(0))
    h = StepFn.constant(E, 4)
    x = min(pa.exact_tower.base.members)
    assert tower_product(h, pa.s0, pa.exact_tower, x) == E


def test_tower_product_height_one():
    pa = periodic_approximation(DyadicMPT.shift(2), 1, F(1))
    v = from_cycles([[0, 1, 2]])
    h = StepFn.constant(v, 2)
    assert tower_product(h, pa.s0, pa.exact_tower, 0) == v


def test_tower_product_order():
    # three levels carrying a, b, c must multiply to c * b * a
    a, b, c = from_cycles([[0, 1]]), from_cycles([[1, 2]]), from_cycles([[0, 3]])
    t = DyadicMPT.shift(2)  # single 4-cycle; height-4 tower is exact
    pa = periodic_approximation(t, 4, F(0))
    x = min(pa.exact_tower.base.members)
    col = [x]
    for _ in range(3):
        col.append(pa.s0.perm[col[-1]])
    values = [E] * 4
    values[col[0]], values[col[1]], values[col[2]], values[col[3]] = a, b, c, E
    h = StepFn(2, tuple(values))
    assert tower_product(h, pa.s0, pa.exact_tower, x) == E * c * b * a


def test_tower_product_requires_exact_tower():
    from randlab.dyadic import rokhlin_tower

    tower = rokhlin_tower(DyadicMPT.shift(4), 3, F(1, 16))
    with pytest.raises(NotExactTower):
        tower_product(StepFn.constant(E, 4), tower.periodic_map, tower, 0)


# -- window synthesis ----------------------------------------------------------

def run_window_synthesis(seed, level=8, height=8, k=4, window=6, eps=F(1, 4)):
    rng = random.Random(seed)
    s = rand_aperiodic_mpt(rng, level, height)
    h = rand_step_perm(rng, min(level, 4), window)
    task = SynthesisTask(sigma=None, s=s, h=h, k=k, eps=eps, height=height)
    return synthesize_conjugator(task)


def test_synthesis_identity_target():
    s = DyadicMPT.shift(6)
    task = SynthesisTask(
        sigma=None, s=s, h=StepFn.constant(E, 6), k=4, eps=F(1, 4), height=8
    )
    res = synthesize_conjugator(task)
    assert res.all_ok()
    assert res.agreement == 1  # the step condition survives the top wrap here


def test_synthesis_constant_sigma_target():
    # target h constantly equal to the generic element itself
    sigma = cycle_pack({8 * j: 1 for j in range(1, 7)})
    s = DyadicMPT.shift(6)
    task = SynthesisTask(
        sigma=sigma, s=s, h=StepFn.constant(sigma, 6), k=4, eps=F(1, 4), height=8
    )
    res = synthesize_conjugator(task)
    assert res.all_ok()


def test_synthesis_step_and_loop_certificates():
    rng = random.Random(1)
    s = rand_aperiodic_mpt(rng, 8, 8)
    h = rand_step_perm(rng, 4, 6)
    task = SynthesisTask(sigma=None, s=s, h=h, k=4, eps=F(1, 4), height=8)
    res = synthesize_conjugator(task)
    assert res.all_ok()
    assert {row[0] for row in res.certificates} == {"step", "loop"}
    # independent check of the telescoped loop condition on every column:
    # conjugating the height-th power by the column anchor must reproduce
    # the column product of the target below the window
    power = res.sigma ** res.height
    h_fine = h.refine(res.g.level)
    for base in sorted(res.tower.base.members):
        anchor = base
        for _ in range(res.height - 1):
            anchor = res.s0.perm[anchor]
        gamma = res.g.values[anchor]
        conj = gamma.inverse() * power * gamma
        product = tower_product(h_fine, res.s0, res.tower, base)
        assert all(conj(n) == product(n) for n in range(4))


def test_synthesis_agreement_bound():
    for seed in range(4):
        res = run_window_synthesis(seed, level=8, height=8, k=4)
        assert res.agreement >= 1 - F(1, 4)
        assert res.all_ok()


def test_synthesis_agreement_exact_value():
    # aperiodic map made of whole power-of-two cycles: no leftover, so
    # disagreement is exactly the redirected top mass
    res = run_window_synthesis(9, level=8, height=8)
    assert res.agreement >= 1 - F(1, 8)


def test_synthesis_insufficient_budget_grows():
    # a tight explicit budget fails; the automatic path succeeds
    rng = random.Random(5)
    s = rand_aperiodic_mpt(rng, 6, 4)
    h = rand_step_perm(rng, 3, 8)
    task = SynthesisTask(sigma=None, s=s, h=h, k=6, eps=F(1, 2), height=4)
    res = synthesize_conjugator(task)
    assert res.all_ok()


def test_sigma_budget_is_enough():
    sigma = sigma_budget(4, 8)
    census = (sigma ** 8).cycle_census(window=sigma.window)
    for length in range(1, 7):
        assert census[length] >= 4


# -- metric synthesis ----------------------------------------------------------

def test_nearest_of_cycle_type_identity_case():
    rng = random.Random(7)
    t = rand_mpt(rng, 5)
    q, cost = nearest_of_cycle_type(t, t.cycle_census())
    assert cost == 0 and q.same_map(t)


def test_nearest_of_cycle_type_full_split():
    t = DyadicMPT.identity(4)
    q, cost = nearest_of_cycle_type(t, {4: 4})
    assert dict(q.cycle_census()) == {4: 4}
    assert cost == delta_u(t, q)


def test_mpt_power_oracle_tolerance():
    rng = random.Random(9)
    sigma = rand_full_cycle(rng, 8)
    oracle = mpt_power_oracle(sigma)
    target = rand_mpt(rng, 8)
    rho = oracle(8, target, F(1, 4))
    conj = (sigma ** 8).conj(rho)
    assert delta_u(conj, target) <= F(1, 4)
    with pytest.raises(OracleFailure):
        oracle(8, rand_mpt(rng, 8), F(0))


def test_metric_synthesis_constant_identity_target():
    # the height is a multiple of the base element's order, so its power is
    # the identity and the constant identity target matches exactly
    rng = random.Random(11)
    sigma = rand_full_cycle(rng, 3)
    s = DyadicMPT.shift(7)
    h = StepFn.constant(DyadicMPT.identity(3), 3)
    task = MetricSynthesisTask(sigma=sigma, s=s, h=h, eps_g=F(1, 8), eps=F(1, 4), height=8)
    res = synthesize_conjugator_metric(task)
    assert res.all_ok()
    assert res.max_deviation() == 0


def test_metric_synthesis_random_targets():
    rng = random.Random(13)
    sigma = rand_full_cycle(rng, 8)
    for seed in range(3):
        rng2 = random.Random(seed)
        s = rand_aperiodic_mpt(rng2, 9, 8)
        h = StepFn(3, tuple(rand_mpt(rng2, 8) for _ in range(8)))
        task = MetricSynthesisTask(
            sigma=sigma, s=s, h=h, eps_g=F(1, 8), eps=F(1, 4), height=8
        )
        res = synthesize_conjugator_metric(task)
        assert res.all_ok()
        assert res.max_deviation() <= F(1, 8)


def test_metric_synthesis_tolerance_one_accepts_all():
    rng = random.Random(17)
    sigma = rand_full_cycle(rng, 6)
    s = DyadicMPT.shift(6)
    h = StepFn(2, tuple(rand_mpt(rng, 6) for _ in range(4)))
    task = MetricSynthesisTask(sigma=sigma, s=s, h=h, eps_g=F(1), eps=F(1, 2), height=4)
    res = synthesize_conjugator_metric(task)
    assert res.all_ok()


def test_metric_synthesis_certificates_recomputed_from_scratch():
    # the first three tasks of criterion 07; every deviation and the
    # agreement are recomputed here, once per use, with no cache
    rng = random.Random(7)
    eps_g = F(1, 8)
    for _ in range(3):
        sigma = rand_full_cycle(rng, 8)
        s = rand_aperiodic_mpt(rng, 9, 8)
        h = StepFn(3, tuple(rand_mpt(rng, 8) for _ in range(8)))
        task = MetricSynthesisTask(sigma=sigma, s=s, h=h, eps_g=eps_g, eps=F(1, 4), height=8)
        res = synthesize_conjugator_metric(task)
        level = res.g.level
        g, hv = res.g.values, h.refine(level).values

        def deviation(y, prev):
            return delta_u(g[y].inverse() * sigma * g[prev], hv[y])

        s0_inv = res.s0.inverse().perm
        expected = [
            ("deviation", base, pos, deviation(y, s0_inv[y]), deviation(y, s0_inv[y]) <= eps_g)
            for base in sorted(res.tower.base.members)
            for pos, y in enumerate(column_intervals(res.s0, base, res.height))
        ]
        assert list(res.certificates) == expected
        s_inv = s.refine(level).inverse().perm
        agree = sum(1 for y in range(2 ** level) if deviation(y, s_inv[y]) <= eps_g)
        assert res.agreement == F(agree, 2 ** level)


# -- density constructions ----------------------------------------------------

def make_target(rng, g_base, level, t_center, marked, eps):
    conjs = [rand_window_perm(rng, 6) for _ in range(2 ** 2)]
    f_c = StepFn(2, tuple(g_base.conj(c) for c in conjs))
    return ProductNbhd(
        center_f=f_c,
        center_t=t_center,
        value_conditions=tuple((p, eps) for p in marked),
        set_conditions=((DyadicSet(1, frozenset({0})), eps),),
    )


def test_conjugate_into_neighborhood_self_target():
    rng = random.Random(19)
    g = cycle_pack({16 * j: 1 for j in range(1, 4)})
    t_gen = rand_cycle_type(rng, 7, [16] * 8)
    target = ProductNbhd(
        center_f=StepFn.constant(g, 0),
        center_t=t_gen,
        value_conditions=((0, F(1, 16)),),
        set_conditions=((DyadicSet(2, frozenset({1, 2})), F(1, 16)),),
    )
    out = conjugate_into_neighborhood(g, t_gen, target)
    assert out.member


def test_conjugate_into_neighborhood_aut_only():
    rng = random.Random(23)
    g = cycle_pack({16 * j: 1 for j in range(1, 4)})
    t_gen = rand_cycle_type(rng, 7, [16] * 8)
    t_c = rand_cycle_type(rng, 7, [16] * 8)
    target = ProductNbhd(
        center_f=StepFn.constant(g, 0),
        center_t=t_c,
        value_conditions=(),
        set_conditions=((DyadicSet(2, frozenset({0})), F(1, 8)),),
    )
    out = conjugate_into_neighborhood(g, t_gen, target)
    assert out.member
    assert set(out.conjugator.f.values) == {E}  # fiber untouched


def test_conjugate_into_neighborhood_full_target():
    rng = random.Random(29)
    g = cycle_pack({32 * j: 1 for j in range(1, 6)})
    t_gen = rand_cycle_type(rng, 8, [32] * 8)
    t_c = rand_cycle_type(rng, 8, [32] * 8)
    target = make_target(rng, g, 8, t_c, marked=(0, 1), eps=F(1, 8))
    out = conjugate_into_neighborhood(g, t_gen, target)
    assert out.member
    assert all(r == 0 for r in out.fiber_residuals)


def test_conjugate_into_neighborhood_spec_example_budget():
    # generic surrogate budget at level 8 with one marked point
    rng = random.Random(31)
    surrogate = generic_surrogate(32, 2).realized
    t_gen = rand_cycle_type(rng, 8, [32] * 8)
    t_c = rand_cycle_type(rng, 8, [32] * 8)
    conjs = [rand_window_perm(rng, 6) for _ in range(4)]
    target = ProductNbhd(
        center_f=StepFn(2, tuple(surrogate.conj(c) for c in conjs)),
        center_t=t_c,
        value_conditions=((0, F(1, 8)),),
        set_conditions=((DyadicSet(2, frozenset({0, 3})), F(1, 8)),),
    )
    out = conjugate_into_neighborhood(surrogate, t_gen, target)
    assert out.member


def test_approx_conjugate_constant_equal_maps():
    rng = random.Random(37)
    h = rand_window_perm(rng, 6)
    t = rand_full_cycle(rng, 7)
    res = approx_conjugate_constant(h, t, t, F(1, 8))
    assert res.lu_value == 0 and res.certified


def test_approx_conjugate_constant_full_cycles():
    rng = random.Random(41)
    h = rand_window_perm(rng, 6)
    t, s = rand_full_cycle(rng, 7), rand_full_cycle(rng, 7)
    res = approx_conjugate_constant(h, t, s, F(1, 8))
    assert res.lu_value == 0 and res.certified
    # formula oracle: distance equals the conjugated displacement
    assert res.lu_value == delta_u(res.conjugated.t, s)


def test_approx_conjugate_constant_different_profiles():
    rng = random.Random(43)
    h = rand_window_perm(rng, 5)
    t = rand_full_cycle(rng, 8)
    s = rand_cycle_type(rng, 8, [128, 128])
    res = approx_conjugate_constant(h, t, s, F(1, 8))
    assert res.certified
    assert res.lu_value == delta_u(res.conjugated.t, s.refine(res.conjugated.t.level))
    assert res.conjugator.f.same_function(StepFn.constant(E))


# -- diagonal -----------------------------------------------------------------

def test_diagonal_single_coordinate_reduces():
    rng = random.Random(47)
    g = cycle_pack({16 * j: 1 for j in range(1, 4)})
    t_gen = rand_cycle_type(rng, 7, [16] * 8)
    t_c = rand_cycle_type(rng, 7, [16] * 8)
    target = ProductNbhd(
        center_f=StepFn.constant(g, 0),
        center_t=t_c,
        value_conditions=((0, F(1, 8)),),
        set_conditions=((DyadicSet(1, frozenset({1})), F(1, 8)),),
    )
    src = TildeElement(StepFn.constant(g, 0), t_gen)
    rep = diagonal_experiment([src], [target])
    assert rep.success


def test_diagonal_centered_targets_identity():
    rng = random.Random(53)
    g1 = cycle_pack({8: 1})
    g2 = translated(cycle_pack({8: 1}), 50)
    t = rand_cycle_type(rng, 6, [16] * 4)
    sources = [
        TildeElement(StepFn.constant(g1, 0), t),
        TildeElement(StepFn.constant(g2, 0), t),
    ]
    targets = [
        ProductNbhd(
            center_f=s.f,
            center_t=t,
            value_conditions=((0, F(1, 4)),),
            set_conditions=((DyadicSet(1, frozenset({0})), F(1, 4)),),
        )
        for s in sources
    ]
    rep = diagonal_experiment(sources, targets)
    assert rep.success
    assert rep.note == "targets already contain the sources"


def test_diagonal_disjoint_windows():
    rng = random.Random(59)
    level = 7
    t_shared = rand_cycle_type(rng, level, [16] * 8)
    t_center = rand_cycle_type(rng, level, [16] * 8)

    def coordinate(offset):
        g = translated(cycle_pack({16 * j: 1 for j in range(1, 5)}), offset)
        conjs = [translated(rand_window_perm(rng, 6), offset) for _ in range(4)]
        f_c = StepFn(2, tuple(g.conj(c) for c in conjs))
        target = ProductNbhd(
            center_f=f_c,
            center_t=t_center,
            value_conditions=((offset, F(1, 16)), (offset + 1, F(1, 16))),
            set_conditions=((DyadicSet(1, frozenset({0})), F(1, 8)),),
        )
        return TildeElement(StepFn.constant(g, 0), t_shared), target

    s1, t1 = coordinate(0)
    s2, t2 = coordinate(250)
    rep = diagonal_experiment([s1, s2], [t1, t2])
    assert rep.success
    assert all(c[0] for c in rep.per_coordinate)


def test_diagonal_overlapping_windows_unsupported():
    rng = random.Random(61)
    level = 6
    t_shared = rand_cycle_type(rng, level, [16] * 4)
    g = cycle_pack({16: 1, 32: 1})
    src = TildeElement(StepFn.constant(g, 0), t_shared)
    target = ProductNbhd(
        center_f=StepFn.constant(g.conj(rand_window_perm(rng, 5)), 0),
        center_t=rand_cycle_type(rng, level, [16] * 4),
        value_conditions=((0, F(1, 16)),),
        set_conditions=(),
    )
    with pytest.raises(SimultaneousMatchUnsupported):
        diagonal_experiment([src, src], [target, target])


# -- sigma budget: the counting lemma -------------------------------------------

@pytest.mark.parametrize("height", [1, 2, 4, 8, 16, 32])
def test_sigma_budget_counting_lemma_grid(height):
    # sigma**height offers k cycles of every length 2..k+2, so every loop
    # target on range(k) is matched without shortfall
    rng = random.Random(height)
    for k in range(1, 13):
        sigma = sigma_budget(k, height)
        power = sigma ** height
        census = power.cycle_census(window=power.window)
        for length in range(2, k + 3):
            assert census[length] >= k, (k, height, length)
        targets = [
            {n: (n + 1) % k for n in range(k)},   # one k-cycle
            {n: n + k for n in range(k)},         # k one-link chains
            {n: n + 1 for n in range(k)},         # one chain through k points
        ]
        for _ in range(5):
            images = list(range(k + 4))
            rng.shuffle(images)
            targets.append({n: images[n] for n in range(k)})
        for target in targets:
            rho = match_partial(sigma, height, target)
            conj = rho.inverse() * power * rho
            assert all(conj(n) == v for n, v in target.items())


def test_synthesis_short_user_sigma_raises():
    # a supplied sigma without spare cycles is not regrown
    rng = random.Random(5)
    s = rand_aperiodic_mpt(rng, 6, 4)
    h = StepFn.constant(from_cycles([[0, 1, 2]]), 6)
    task = SynthesisTask(
        sigma=from_cycles([[0, 1]]), s=s, h=h, k=4, eps=F(1, 2), height=4
    )
    with pytest.raises(InsufficientCycles):
        synthesize_conjugator(task)



# no height N has 2/N < eps <= 0, so the default height must refuse such eps
@pytest.mark.parametrize("eps", [F(0), F(-1, 2)])
def test_window_task_default_height_needs_positive_eps(eps):
    task = SynthesisTask(
        sigma=None, s=DyadicMPT.shift(4), h=StepFn.constant(E, 4), k=2, eps=eps
    )
    with pytest.raises(ValueError, match="eps must be positive"):
        synthesize_conjugator(task)


@pytest.mark.parametrize("eps", [F(0), F(-1, 2)])
def test_metric_task_default_height_needs_positive_eps(eps):
    sigma = DyadicMPT.shift(4)
    h = StepFn.constant(sigma, 2)
    task = MetricSynthesisTask(sigma=sigma, s=DyadicMPT.shift(4), h=h, eps_g=F(1, 8), eps=eps)
    with pytest.raises(ValueError, match="eps must be positive"):
        synthesize_conjugator_metric(task)


# -- failures name the step that failed ----------------------------------------

def _two_coordinates(rng, t_shared, t_center, base, set_bound):
    pairs = []
    for offset in (0, 100):
        g = translated(base, offset)
        conjs = [translated(rand_window_perm(rng, 6), offset) for _ in range(4)]
        target = ProductNbhd(
            center_f=StepFn(2, tuple(g.conj(c) for c in conjs)),
            center_t=t_center,
            value_conditions=((offset, F(1, 16)),),
            set_conditions=((DyadicSet(1, frozenset({0})), set_bound),),
        )
        pairs.append((TildeElement(StepFn.constant(g, 0), t_shared), target))
    return [p[0] for p in pairs], [p[1] for p in pairs]


def test_diagonal_fiber_shortfall_is_oracle_failure():
    # an 8-cycle's 16th power is the identity: no spare cycles for the fiber
    rng = random.Random(3)
    t = rand_cycle_type(rng, 6, [16] * 4)
    sources, targets = _two_coordinates(
        rng, t, rand_cycle_type(rng, 6, [16] * 4), cycle_pack({8: 1}), F(1, 8)
    )
    with pytest.raises(OracleFailure) as info:
        diagonal_experiment(sources, targets)
    assert info.value.component == "fiber"


def test_diagonal_unmatched_transformation_is_oracle_failure():
    # a full cycle is far from every map made of 2-cycles
    rng = random.Random(5)
    t = rand_full_cycle(rng, 6)
    base = cycle_pack({16 * j: 1 for j in range(1, 4)})
    sources, targets = _two_coordinates(
        rng, t, rand_cycle_type(rng, 6, [2] * 32), base, F(1, 1024)
    )
    with pytest.raises(OracleFailure) as info:
        diagonal_experiment(sources, targets)
    assert info.value.component == "aut"


def test_metric_synthesis_needs_an_interval_map_sigma():
    rng = random.Random(67)
    task = MetricSynthesisTask(
        sigma=cycle_pack({8: 1}),
        s=DyadicMPT.shift(6),
        h=StepFn(2, tuple(rand_mpt(rng, 6) for _ in range(4))),
        eps_g=F(1, 8),
        eps=F(1, 2),
        height=4,
    )
    with pytest.raises(OracleFailure) as info:
        synthesize_conjugator_metric(task)
    assert info.value.component == "base-group"

"""Property suites: the library's exit criteria as runnable experiments.

Each suite runs a seeded corpus through one cluster of guarantees and
returns a :class:`SuiteResult` with exact rational evidence.  The pytest
acceptance module and the command-line ``verify`` command both execute
these; tolerances are pinned here and nowhere else.

The scenarios of criteria 06 and 08 are case builders (``synthesis_case``,
``neighborhood_case``, ``constant_fiber_case``) that draw from the caller's
generator; the CLI's ``synthesize`` and ``density`` commands call them too.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .corpus import (
    equilateral_space,
    rand_aperiodic_mpt,
    rand_cycle_type,
    rand_full_cycle,
    rand_mpt,
    rand_pl,
    rand_step_isometry,
    rand_step_nat,
    rand_step_perm,
    rand_tilde_perm,
    rand_window_perm,
)
from .dyadic import DyadicMPT, DyadicSet, periodic_approximation
from .groups import (
    cycle_pack,
    generic_surrogate,
    parse_cycles,
    perm_dp,
    perm_du,
    power_invariance_check,
)
from .spaces import isometry_group, nat_discrete
from .stepfn import StepFn, dhat, lsc_probe
from .synthesis import (
    MetricSynthesisTask,
    SynthesisTask,
    approx_conjugate_constant,
    conjugate_into_neighborhood,
    synthesize_conjugator,
    synthesize_conjugator_metric,
)
from .tilde import (
    ProductNbhd,
    TildeElement,
    lu_bounds,
    lu_estimate,
    lu_exact_discrete,
    tilde_act,
    tilde_identity,
)

F = Fraction


@dataclass
class SuiteResult:
    suite_id: str
    description: str
    passed: bool
    checks: int
    failures: int
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0
    budget_seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.suite_id}: {self.description} "
            f"[{self.checks} checks, {self.failures} failures, "
            f"{self.elapsed:.2f}s / {self.budget_seconds:.0f}s]"
        )


@dataclass(frozen=True)
class Case:
    """One seeded scenario: its outcome, its tolerance and its verdict."""

    out: object
    eps: Fraction
    ok: bool


def _finish(result: SuiteResult, start: float) -> SuiteResult:
    result.elapsed = time.perf_counter() - start
    # a suite that checked nothing proves nothing, so it fails
    result.passed = result.passed and result.failures == 0 and result.checks > 0
    return result


# ---------------------------------------------------------------------------
# 1. metric axioms and uniform refinement
# ---------------------------------------------------------------------------

def suite_metric_axioms(seed: int = 1, triples: int = 500) -> SuiteResult:
    start = time.perf_counter()
    rng = random.Random(seed)
    res = SuiteResult(
        "metric-axioms",
        "integral metrics satisfy the metric axioms and dhat <= dhat_u",
        True,
        0,
        0,
        budget_seconds=10.0,
    )
    for _ in range(triples):
        level = rng.randrange(0, 9)
        window = rng.randrange(2, 17)
        f, g, h = (rand_step_perm(rng, level, window) for _ in range(3))
        for metric in (perm_dp, perm_du):
            dfg, dgh, dfh = (
                dhat(f, g, metric),
                dhat(g, h, metric),
                dhat(f, h, metric),
            )
            ok = (
                dhat(f, f, metric) == 0
                and dfg == dhat(g, f, metric)
                and dfh <= dfg + dgh
                and dfg >= 0
            )
            if metric is perm_dp and not f.same_function(g):
                ok = ok and dfg > 0
            res.checks += 1
            res.failures += not ok
        res.checks += 1
        res.failures += not dhat(f, g, perm_dp) <= dhat(f, g, perm_du)
    return _finish(res, start)


# ---------------------------------------------------------------------------
# 2. lower semicontinuity
# ---------------------------------------------------------------------------

def suite_lower_semicontinuity(seed: int = 2, sequences: int = 100) -> SuiteResult:
    start = time.perf_counter()
    rng = random.Random(seed)
    res = SuiteResult(
        "lower-semicontinuity",
        "uniform integral metric is lower semicontinuous along probes",
        True,
        0,
        0,
        budget_seconds=10.0,
    )
    fresh = parse_cycles("(60 61)")
    for _ in range(sequences):
        level = rng.randrange(3, 6)
        f = rand_step_perm(rng, level, 8)
        h = rand_step_perm(rng, level, 8)
        seq = []
        for k in range(1, level + 1):
            vals = list(f.values)
            for i in range(2 ** level // 2 ** k):
                vals[i] = fresh
            seq.append(StepFn(level, tuple(vals)))
        rep = lsc_probe(f, h, seq, None, perm_dp, perm_du)
        res.checks += 1
        res.failures += not (rep.holds and rep.corrected_holds)
    return _finish(res, start)


# ---------------------------------------------------------------------------
# 3. exact discrete uniform metric
# ---------------------------------------------------------------------------

def suite_discrete_uniform_metric(seed: int = 3, pairs: int = 200) -> SuiteResult:
    start = time.perf_counter()
    rng = random.Random(seed)
    res = SuiteResult(
        "discrete-uniform-metric",
        "moving-set formula, witness family within 1/64, samples below",
        True,
        0,
        0,
        budget_seconds=60.0,
    )
    gap = F(1, 64)
    for i in range(pairs):
        level = rng.choice((6, 6, 7))
        a = rand_tilde_perm(rng, level, 8)
        b = rand_tilde_perm(rng, level, 8)
        exact = lu_exact_discrete(a, b)
        c = b.inverse() * a
        union = sum(
            1
            for j in range(2 ** c.f.level)
            if not c.f.values[j].is_identity() or c.t.refine(c.f.level).perm[j] != j
        )
        res.checks += 1
        res.failures += not exact == F(union, 2 ** c.f.level)
        est = lu_estimate(a, b, budget=8, seed=seed * 1000 + i)
        res.checks += 1
        res.failures += not (exact - gap <= est.value <= exact)
        for _ in range(3):
            alpha = rand_step_nat(rng, level, 70)
            d = dhat(tilde_act(a, alpha), tilde_act(b, alpha), nat_discrete)
            res.checks += 1
            res.failures += not d <= exact
    res.details["witness_gap_allowed"] = "1/64"
    return _finish(res, start)


# ---------------------------------------------------------------------------
# 4. sandwich bounds over a three-point space
# ---------------------------------------------------------------------------

def suite_sandwich_bounds(seed: int = 4, pairs: int = 200) -> SuiteResult:
    start = time.perf_counter()
    rng = random.Random(seed)
    space = equilateral_space(3)
    group = isometry_group(space)
    ident = tilde_identity(group[0], 0)
    du = lambda x, y: max(space.d(x(p), y(p)) for p in space.points)
    res = SuiteResult(
        "sandwich-bounds",
        "lower <= estimate <= upper, with max/sum product bounds, r = 1",
        True,
        0,
        0,
        budget_seconds=60.0,
    )
    for i in range(pairs):
        level = rng.randrange(2, 5)
        a = TildeElement(rand_step_isometry(rng, level, group), rand_mpt(rng, level))
        b = TildeElement(rand_step_isometry(rng, level, group), rand_mpt(rng, level))
        est = lu_estimate(a, b, budget=4, seed=seed * 1000 + i)
        bounds = lu_bounds(a, b)
        c = b.inverse() * a
        e_fn = StepFn.constant(group[0], c.f.level)
        fiber_mass = dhat(c.f, e_fn, du)
        aut_mass = c.aut_support().measure
        ok = (
            bounds.lower <= est.value <= bounds.upper
            and bounds.alt_lower == F(1, 8) * max(aut_mass, fiber_mass)
            and bounds.alt_lower <= bounds.lower
            and bounds.upper <= fiber_mass + aut_mass
            and bounds.anchor_distance == 1
        )
        res.checks += 1
        res.failures += not ok
    return _finish(res, start)


# ---------------------------------------------------------------------------
# 5. periodic approximation
# ---------------------------------------------------------------------------

def suite_periodic_approximation(seed: int = 5) -> SuiteResult:
    start = time.perf_counter()
    rng = random.Random(seed)
    res = SuiteResult(
        "periodic-approximation",
        "full cycles at levels 8-12: distance <= 1/height, exact cycles",
        True,
        0,
        0,
        budget_seconds=5.0,
    )
    for level in range(8, 13):
        cycle = rand_full_cycle(rng, level) if level <= 10 else DyadicMPT.shift(level)
        for height in (4, 8, 16, 32):
            pa = periodic_approximation(cycle, height, F(0))
            ok = pa.distance <= F(1, height) and all(
                len(c) == height for c in pa.s0.cycles(include_fixed=True)
            )
            res.checks += 1
            res.failures += not ok
    return _finish(res, start)


# ---------------------------------------------------------------------------
# 6. window-target conjugator synthesis
# ---------------------------------------------------------------------------

def synthesis_case(rng, level, height, k, window, eps=None) -> Case:
    """Draw ``s`` and then ``h``, and synthesize a conjugator for them.

    ``eps`` defaults to ``2/height``.  The case passes when every
    certificate holds and the agreement is at least ``1 - eps``.
    """
    eps = F(2, height) if eps is None else eps
    s = rand_aperiodic_mpt(rng, level, height)
    h = rand_step_perm(rng, 4, window)
    task = SynthesisTask(sigma=None, s=s, h=h, k=k, eps=eps, height=height)
    out = synthesize_conjugator(task)
    return Case(out, eps, out.all_ok() and out.agreement >= 1 - eps)


def suite_synthesis(seed: int = 6, tasks: int = 50) -> SuiteResult:
    start = time.perf_counter()
    rng = random.Random(seed)
    res = SuiteResult(
        "conjugator-synthesis",
        "step condition at every tower interval, loop condition per column",
        True,
        0,
        0,
        budget_seconds=120.0,
    )
    for _ in range(tasks):
        height = rng.choice((8, 8, 16))
        k = rng.randrange(4, 9)
        level = rng.choice((9, 9, 10))
        res.checks += 1
        res.failures += not synthesis_case(rng, level, height, k, 8).ok
    return _finish(res, start)


# ---------------------------------------------------------------------------
# 7. metric-group synthesis over the interval-map base group
# ---------------------------------------------------------------------------

def suite_metric_synthesis(seed: int = 7, tasks: int = 20) -> SuiteResult:
    start = time.perf_counter()
    rng = random.Random(seed)
    res = SuiteResult(
        "metric-synthesis",
        "deviation <= 1/8 at every tower point, interval-map base group",
        True,
        0,
        0,
        budget_seconds=120.0,
    )
    eps_g = F(1, 8)
    for _ in range(tasks):
        sigma = rand_full_cycle(rng, 8)
        s = rand_aperiodic_mpt(rng, 9, 8)
        h = StepFn(3, tuple(rand_mpt(rng, 8) for _ in range(8)))
        task = MetricSynthesisTask(
            sigma=sigma, s=s, h=h, eps_g=eps_g, eps=F(1, 4), height=8
        )
        out = synthesize_conjugator_metric(task)
        ok = out.all_ok() and out.max_deviation() <= eps_g
        res.checks += 1
        res.failures += not ok
    return _finish(res, start)


# ---------------------------------------------------------------------------
# 8. density: conjugation into neighborhoods
# ---------------------------------------------------------------------------

DENSITY_EPS = F(1, 16)


def neighborhood_case(rng, eps=DENSITY_EPS) -> Case:
    """Conjugate ``(C_g, T)`` into a drawn product neighborhood.

    The maps, the fiber center and the two marked quarters are drawn; the
    case passes on exact membership.
    """
    # the window-480 base: one cycle each of lengths 32, 64, ..., 160
    g_base = cycle_pack({32 * j: 1 for j in range(1, 6)})
    t_gen = rand_cycle_type(rng, 8, [32] * 8)
    t_c = rand_cycle_type(rng, 8, [32] * 8)
    conjs = [rand_window_perm(rng, 6) for _ in range(4)]
    marked_sets = DyadicSet(2, frozenset(rng.sample(range(4), 2)))
    target = ProductNbhd(
        center_f=StepFn(2, tuple(g_base.conj(c) for c in conjs)),
        center_t=t_c,
        value_conditions=((0, eps), (1, eps)),
        set_conditions=((marked_sets, eps),),
    )
    out = conjugate_into_neighborhood(g_base, t_gen, target)
    return Case(out, eps, out.member)


def constant_fiber_case(rng, eps=DENSITY_EPS) -> Case:
    """Conjugate ``(C_h, T)`` to within ``eps`` of ``(C_h, S)``.

    ``T`` and ``S`` are drawn at level 9 or 10 with equal or differing cycle
    types; the case passes on a certified distance below ``eps``.
    """
    h = rand_window_perm(rng, 6)
    level = rng.choice((9, 10))
    t = rand_full_cycle(rng, level)
    s = (
        rand_full_cycle(rng, level)
        if rng.random() < 0.5
        else rand_cycle_type(rng, level, [2 ** (level - 1)] * 2)
    )
    out = approx_conjugate_constant(h, t, s, eps)
    return Case(out, eps, out.certified and out.lu_value < eps)


def suite_density(seed: int = 8, targets: int = 50) -> SuiteResult:
    start = time.perf_counter()
    rng = random.Random(seed)
    res = SuiteResult(
        "density",
        "exact neighborhood membership and certified constant conjugation",
        True,
        0,
        0,
        budget_seconds=60.0,
    )
    for case in [neighborhood_case] * targets + [constant_fiber_case] * (targets // 2):
        res.checks += 1
        res.failures += not case(rng).ok
    return _finish(res, start)


# ---------------------------------------------------------------------------
# 9. power invariants
# ---------------------------------------------------------------------------

def suite_power_invariants(seed: int = 9, automorphisms: int = 100) -> SuiteResult:
    start = time.perf_counter()
    rng = random.Random(seed)
    res = SuiteResult(
        "power-invariants",
        "cycle-power rule vs direct power; orbital reports stable under powers",
        True,
        0,
        0,
        budget_seconds=30.0,
    )
    corpus = [rand_window_perm(rng, w) for w in range(2, 65, 2)]
    corpus += [generic_surrogate(6, 2).realized, cycle_pack({5: 3, 12: 2})]
    for p in corpus:
        for n in range(1, 13):
            res.checks += 1
            res.failures += not power_invariance_check(p, n).ok()
    for _ in range(automorphisms):
        g = rand_pl(rng, max_breaks=6)
        for n in range(2, 6):
            res.checks += 1
            res.failures += not power_invariance_check(g, n).ok()
    return _finish(res, start)


# ---------------------------------------------------------------------------
# 10. group laws and bi-invariance
# ---------------------------------------------------------------------------

def suite_group_laws(seed: int = 10, tuples: int = 300) -> SuiteResult:
    start = time.perf_counter()
    rng = random.Random(seed)
    res = SuiteResult(
        "group-laws",
        "action identity, isometry, and bi-invariance of the uniform metric",
        True,
        0,
        0,
        budget_seconds=30.0,
    )
    for _ in range(tuples):
        level = rng.randrange(2, 5)
        a = rand_tilde_perm(rng, level, 6)
        b = rand_tilde_perm(rng, level, 6)
        c = rand_tilde_perm(rng, level, 6)
        d = rand_tilde_perm(rng, level, 6)
        alpha = rand_step_nat(rng, level, 8)
        beta = rand_step_nat(rng, level, 8)
        ok = tilde_act(a * b, alpha).same_function(tilde_act(a, tilde_act(b, alpha)))
        ok = ok and tilde_act(a.inverse(), tilde_act(a, alpha)).same_function(alpha)
        ok = ok and dhat(
            tilde_act(a, alpha), tilde_act(a, beta), nat_discrete
        ) == dhat(alpha, beta, nat_discrete)
        ok = ok and lu_exact_discrete(c * a * d, c * b * d) == lu_exact_discrete(a, b)
        res.checks += 1
        res.failures += not ok
    return _finish(res, start)


ALL_SUITES = (
    suite_metric_axioms,
    suite_lower_semicontinuity,
    suite_discrete_uniform_metric,
    suite_sandwich_bounds,
    suite_periodic_approximation,
    suite_synthesis,
    suite_metric_synthesis,
    suite_density,
    suite_power_invariants,
    suite_group_laws,
)


def run_all(seed_base: int = 0, scale: Fraction | float = 1):
    """Run every suite; ``scale`` < 1 shrinks corpus sizes for quick runs."""
    sizes = {
        suite_metric_axioms: dict(triples=int(500 * scale) or 1),
        suite_lower_semicontinuity: dict(sequences=int(100 * scale) or 1),
        suite_discrete_uniform_metric: dict(pairs=int(200 * scale) or 1),
        suite_sandwich_bounds: dict(pairs=int(200 * scale) or 1),
        suite_periodic_approximation: dict(),
        suite_synthesis: dict(tasks=int(50 * scale) or 1),
        suite_metric_synthesis: dict(tasks=int(20 * scale) or 1),
        suite_density: dict(targets=int(50 * scale) or 2),
        suite_power_invariants: dict(automorphisms=int(100 * scale) or 1),
        suite_group_laws: dict(tuples=int(300 * scale) or 1),
    }
    out = []
    for i, suite in enumerate(ALL_SUITES, 1):
        out.append(suite(seed=seed_base + i, **sizes[suite]))
    return out

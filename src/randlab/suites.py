"""Property suites: the library's exit criteria as runnable experiments.

Each criterion is declared once, by :func:`criterion` on the generator
that is its body: its number, which is also its default seed, its name,
description, runtime budget, full corpus size and smallest scaled size.
The body draws a seeded corpus through one cluster of guarantees and
yields one verdict per check; calling the declared :class:`Criterion`
times it and returns a :class:`SuiteResult` with exact rational evidence.
The pytest acceptance module and the command-line ``verify`` command both
run :data:`CRITERIA`; tolerances are pinned here and nowhere else.

The scenarios of criteria 06 and 08 are case builders (``synthesis_case``,
``neighborhood_case``, ``constant_fiber_case``) that draw from the caller's
generator; the CLI's ``synthesize`` and ``density`` commands call them too.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

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
)

F = Fraction


@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion: its declaration and its body.

    ``body(rng, size, seed)`` draws from ``rng``, seeded with ``seed``,
    and yields one verdict per check; a call runs it at a seed and a
    corpus size, by default the criterion's number and its full size.
    """

    number: int
    name: str
    description: str
    budget_seconds: int
    size: int | None  # full corpus size; None for a fixed corpus
    min_size: int  # smallest scaled size
    body: Callable[[random.Random, int | None, int], Iterator[bool]]

    def __call__(self, seed: int | None = None, size: int | None = None) -> SuiteResult:
        seed = self.number if seed is None else seed
        size = self.size if size is None else size
        start = time.perf_counter()
        checks = failures = 0
        for ok in self.body(random.Random(seed), size, seed):
            checks += 1
            failures += not ok
        return SuiteResult(self, checks, failures, time.perf_counter() - start)

    def scaled_size(self, scale: Fraction) -> int | None:
        """``int(size * scale)``, exactly for a rational scale, but at
        least ``min_size``."""
        if self.size is None:
            return None
        return int(self.size * scale) or self.min_size


@dataclass(frozen=True)
class SuiteResult:
    criterion: Criterion
    checks: int
    failures: int
    elapsed: float

    @property
    def passed(self) -> bool:
        # a suite that checked nothing proves nothing, so it fails
        return self.failures == 0 and self.checks > 0

    def line(self) -> str:
        c = self.criterion
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {c.name}: {c.description} "
            f"[{self.checks} checks, {self.failures} failures, "
            f"{self.elapsed:.2f}s / {c.budget_seconds}s]"
        )


# every declared criterion, in order of number
CRITERIA: list[Criterion] = []


def criterion(number, name, description, budget_seconds, size=None, min_size=1):
    """Declare the decorated body as criterion ``number``, the next one."""

    def declare(body) -> Criterion:
        if number != len(CRITERIA) + 1:
            raise ValueError(f"criterion {number} is not the next number")
        CRITERIA.append(
            Criterion(number, name, description, budget_seconds, size, min_size, body)
        )
        return CRITERIA[-1]

    return declare


@dataclass(frozen=True)
class Case:
    """One seeded scenario: its outcome, its tolerance and its verdict."""

    out: object
    eps: Fraction
    ok: bool


# ---------------------------------------------------------------------------
# metric axioms and uniform refinement
# ---------------------------------------------------------------------------

@criterion(
    1,
    "metric-axioms",
    "integral metrics satisfy the metric axioms and dhat <= dhat_u",
    budget_seconds=10,
    size=500,
)
def suite_metric_axioms(rng, triples, seed):
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
            yield ok
        yield dhat(f, g, perm_dp) <= dhat(f, g, perm_du)


# ---------------------------------------------------------------------------
# lower semicontinuity
# ---------------------------------------------------------------------------

@criterion(
    2,
    "lower-semicontinuity",
    "uniform integral metric is lower semicontinuous along probes",
    budget_seconds=10,
    size=100,
)
def suite_lower_semicontinuity(rng, sequences, seed):
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
        rep = lsc_probe(f, h, seq, perm_dp, perm_du)
        yield rep.holds and rep.corrected_holds


# ---------------------------------------------------------------------------
# exact discrete uniform metric
# ---------------------------------------------------------------------------

@criterion(
    3,
    "discrete-uniform-metric",
    "moving-set formula, witness family within 1/64, samples below",
    budget_seconds=60,
    size=200,
)
def suite_discrete_uniform_metric(rng, pairs, seed):
    gap = F(1, 64)
    for _ in range(pairs):
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
        yield exact == F(union, 2 ** c.f.level)
        est = lu_estimate(a, b)
        yield exact - gap <= est.value <= exact
        for _ in range(3):
            alpha = rand_step_nat(rng, level, 70)
            yield dhat(tilde_act(a, alpha), tilde_act(b, alpha), nat_discrete) <= exact


# ---------------------------------------------------------------------------
# sandwich bounds over a three-point space
# ---------------------------------------------------------------------------

@criterion(
    4,
    "sandwich-bounds",
    "lower <= estimate <= upper, with max/sum product bounds, r = 1",
    budget_seconds=60,
    size=200,
)
def suite_sandwich_bounds(rng, pairs, seed):
    space = equilateral_space(3)
    group = isometry_group(space)
    du = lambda x, y: max(space.d(x(p), y(p)) for p in space.points)
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
        yield (
            bounds.lower <= est.value <= bounds.upper
            and bounds.alt_lower == F(1, 8) * max(aut_mass, fiber_mass)
            and bounds.alt_lower <= bounds.lower
            and bounds.upper <= fiber_mass + aut_mass
            and bounds.anchor_distance == 1
        )


# ---------------------------------------------------------------------------
# periodic approximation
# ---------------------------------------------------------------------------

@criterion(
    5,
    "periodic-approximation",
    "full cycles at levels 8-12: distance <= 1/height, exact cycles",
    budget_seconds=5,
)
def suite_periodic_approximation(rng, size, seed):
    for level in range(8, 13):
        cycle = rand_full_cycle(rng, level) if level <= 10 else DyadicMPT.shift(level)
        for height in (4, 8, 16, 32):
            pa = periodic_approximation(cycle, height, F(0))
            yield pa.distance <= F(1, height) and all(
                len(c) == height for c in pa.s0.cycles(include_fixed=True)
            )


# ---------------------------------------------------------------------------
# window-target conjugator synthesis
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


@criterion(
    6,
    "conjugator-synthesis",
    "step condition at every tower interval, loop condition per column",
    budget_seconds=120,
    size=50,
)
def suite_synthesis(rng, tasks, seed):
    for _ in range(tasks):
        height = rng.choice((8, 8, 16))
        k = rng.randrange(4, 9)
        level = rng.choice((9, 9, 10))
        yield synthesis_case(rng, level, height, k, 8).ok


# ---------------------------------------------------------------------------
# metric-group synthesis over the interval-map base group
# ---------------------------------------------------------------------------

@criterion(
    7,
    "metric-synthesis",
    "deviation <= 1/8 at every tower point, interval-map base group",
    budget_seconds=120,
    size=20,
)
def suite_metric_synthesis(rng, tasks, seed):
    eps_g = F(1, 8)
    for _ in range(tasks):
        sigma = rand_full_cycle(rng, 8)
        s = rand_aperiodic_mpt(rng, 9, 8)
        h = StepFn(3, tuple(rand_mpt(rng, 8) for _ in range(8)))
        task = MetricSynthesisTask(
            sigma=sigma, s=s, h=h, eps_g=eps_g, eps=F(1, 4), height=8
        )
        out = synthesize_conjugator_metric(task)
        yield out.all_ok() and out.max_deviation() <= eps_g


# ---------------------------------------------------------------------------
# density: conjugation into neighborhoods
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


@criterion(
    8,
    "density",
    "exact neighborhood membership and certified constant conjugation",
    budget_seconds=60,
    size=50,
    min_size=2,
)
def suite_density(rng, targets, seed):
    for case in [neighborhood_case] * targets + [constant_fiber_case] * (targets // 2):
        yield case(rng).ok


# ---------------------------------------------------------------------------
# power invariants
# ---------------------------------------------------------------------------

@criterion(
    9,
    "power-invariants",
    "cycle-power rule vs direct power; orbital reports stable under powers",
    budget_seconds=30,
    size=100,
)
def suite_power_invariants(rng, automorphisms, seed):
    corpus = [rand_window_perm(rng, w) for w in range(2, 65, 2)]
    corpus += [generic_surrogate(6, 2).realized, cycle_pack({5: 3, 12: 2})]
    for p in corpus:
        for n in range(1, 13):
            yield power_invariance_check(p, n).ok()
    for _ in range(automorphisms):
        g = rand_pl(rng, max_breaks=6)
        for n in range(2, 6):
            yield power_invariance_check(g, n).ok()


# ---------------------------------------------------------------------------
# group laws and bi-invariance
# ---------------------------------------------------------------------------

@criterion(
    10,
    "group-laws",
    "action identity, isometry, and bi-invariance of the uniform metric",
    budget_seconds=30,
    size=300,
)
def suite_group_laws(rng, tuples, seed):
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
        yield ok


def run_all(seed_base: int = 0, scale: Fraction = F(1)) -> list[SuiteResult]:
    """Run every criterion at seed ``seed_base + number`` and its size
    scaled by ``scale`` (see :meth:`Criterion.scaled_size`)."""
    return [c(seed_base + c.number, c.scaled_size(scale)) for c in CRITERIA]

"""Constructive conjugator synthesis over towers.

Given a generic base-group element ``sigma``, an aperiodic interval map
``S`` and a simple target function ``h``, the engine builds a group-valued
step function ``g`` so that conjugating the constant pair ``(C_sigma, S)``
lands in the prescribed neighborhood: the step condition

    g(y) h(y) (n) = sigma g(S0**-1 y) (n)

holds at every tower interval ``y`` for every constrained point ``n``,
where ``S0`` is the exact periodic approximation of ``S``.  Composing the
step condition around a full column telescopes into the loop condition

    gamma**-1 sigma**N gamma (n) = h(S0**(N-1) x) ... h(S0 x) h(x) (n)

at the column anchor ``gamma``, which is exactly what the window-matching
oracle provides.  Every certificate below is obtained by direct evaluation
of these identities, never trusted from the construction.

Anchoring detail: solving the column downward from its top level makes the
step condition an exact group identity on all upper levels and leaves only
the wraparound at the base, which the loop matching closes on the
constrained points; the metric-group variant anchors at the base with the
cyclically reversed column product, which is the form a right-invariant
metric can verify.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from typing import Callable, Mapping, Sequence

from . import perm
from .dyadic import (
    ZERO,
    DyadicMPT,
    TowerData,
    _exact_conjugator,
    delta_u,
    mpt_conjugate_match,
    periodic_approximation,
)
from .errors import (
    CertificateError,
    InsufficientCycles,
    OracleFailure,
    RandlabError,
    WindowTooWide,
)
from .groups import MAX_WINDOW, E, WindowPerm, cycle_pack, match_partial
from .stepfn import StepFn, value_kind
from .tilde import (
    ProductNbhd,
    TildeElement,
    lu_bounds,
    lu_exact_discrete,
)


# ---------------------------------------------------------------------------
# Column products
# ---------------------------------------------------------------------------

def _column_product(values: Sequence):
    """``values[-1] * ... * values[1] * values[0]``."""
    return reduce(lambda acc, v: v * acc, values[1:], values[0])


def _tower_setup(
    task: SynthesisTask | MetricSynthesisTask,
) -> tuple[int, DyadicMPT, TowerData, StepFn]:
    """Shared prologue of both synthesis variants.

    Resolves the tower height (default: the smallest power of two ``N``
    with ``2/N < eps``), refines ``task.s`` to the level of ``task.h`` when
    that is finer, builds its exact period-``N`` approximation with its
    full-coverage tower, and refines ``task.h`` to the tower's level.
    Returns ``(height, s0, tower, h)``.
    """
    eps = Fraction(task.eps)
    height = task.height
    if height is None:
        if eps <= 0:
            raise ValueError("eps must be positive")
        height = 2
        while Fraction(2, height) >= eps:
            height *= 2
    elif height < 1:
        raise ValueError("height must be positive")
    leftover_budget = max(ZERO, eps - Fraction(1, height))
    s = task.s.refine(max(task.s.level, task.h.level))
    pa = periodic_approximation(s, height, leftover_budget)
    return height, pa.s0, pa.exact_tower, task.h.refine(pa.exact_tower.level)


def _scatter(level: int, cycles: Sequence[Sequence[int]], solve: Callable) -> StepFn:
    """Step function of ``level`` holding ``solve(cycle)`` along each cycle.

    The cycles must partition the ``2**level`` intervals.
    """
    values: list = [None] * 2 ** level
    for cyc in cycles:
        for idx, value in zip(cyc, solve(cyc)):
            values[idx] = value
    if any(v is None for v in values):
        raise CertificateError("cycles do not cover every interval")
    return StepFn(level, tuple(values))


def _agreement(s: DyadicMPT, level: int, holds: Callable[[int, int], bool]) -> Fraction:
    """Exact mass of the level-``level`` intervals ``y`` where
    ``holds(y, S**-1 y)``."""
    s_inv = s.refine(level).inverse()
    n_intervals = 2 ** level
    agree = sum(1 for y in range(n_intervals) if holds(y, s_inv.perm[y]))
    return Fraction(agree, n_intervals)


# ---------------------------------------------------------------------------
# Window-case synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthesisTask:
    """Inputs for conjugator synthesis against a window agreement target."""

    sigma: WindowPerm | None   # None: size a budget automatically
    s: DyadicMPT
    h: StepFn
    k: int                     # agreement window: points 0..k-1
    eps: Fraction
    height: int | None = None  # tower height; default: smallest usable power of two


@dataclass(frozen=True)
class SynthesisResult:
    """Synthesized conjugating function with its exact certificates."""

    g: StepFn
    s0: DyadicMPT
    tower: TowerData
    agreement: Fraction
    certificates: tuple
    sigma: WindowPerm
    height: int

    def all_ok(self) -> bool:
        return all(row[-1] for row in self.certificates)


def sigma_budget(k: int, height: int) -> WindowPerm:
    """Lean generic budget for window-``k`` targets over ``height`` towers.

    Counting lemma: the budget always suffices for a loop target on
    ``range(k)``.  That target is a partial injection with at most ``k``
    components, since each holds a point of ``range(k)``.  A cycle
    component of length ``c <= k`` needs a spare cycle of length exactly
    ``c``; a chain through ``s <= k`` constrained points needs one of
    length at least ``s + 2 <= k + 2``; fixed points need none.  The
    budget packs ``ceil(k/height)`` cycles of length ``height * j`` for
    ``j = 1 .. k+2``, and ``sigma**height`` splits each of them into
    ``height`` cycles of length ``j``.  So ``sigma**height`` has at least
    ``k`` cycles of every length from 2 to ``k+2``, one for each component
    even when all of them want the same length, and
    :func:`~randlab.groups.match_partial` never runs short.

    The budget has ``height * ceil(k/height) * (k+2)(k+3)/2`` points; past
    :data:`~randlab.groups.MAX_WINDOW` it raises :class:`WindowTooWide`.
    """
    copies = -(-k // height)  # ceil
    points = height * copies * (k + 2) * (k + 3) // 2
    if points > MAX_WINDOW:
        raise WindowTooWide(
            f"sigma budget for k {k}, height {height} has {points} > {MAX_WINDOW} points"
        )
    return cycle_pack({height * j: copies for j in range(1, k + 3)})


def _solve_column_window(
    sigma: WindowPerm,
    sigma_inv: WindowPerm,
    h_values: Sequence[WindowPerm],
    domain: Sequence[int],
) -> list[WindowPerm]:
    """Solve one column: anchor at the top, extend downward exactly.

    Returns group values ``g_0 .. g_(L-1)`` along the column such that the
    step condition holds for all points at positions 1..L-1 and on
    ``domain`` at the wraparound position 0.  ``sigma_inv`` is
    ``sigma**-1``, which the caller computes once for all its columns.
    """
    length = len(h_values)
    loop_target = _column_product(h_values)
    target = {n: loop_target(n) for n in domain}
    gamma = match_partial(sigma, length, target)
    gs: list[WindowPerm | None] = [None] * length
    gs[length - 1] = gamma
    for i in range(length - 1, 0, -1):
        gs[i - 1] = sigma_inv * gs[i] * h_values[i]
    return gs  # type: ignore[return-value]


def synthesize_conjugator(task: SynthesisTask) -> SynthesisResult:
    """Build ``g`` realizing the step condition over an exact tower.

    The loop target of each column is matched into ``sigma**height`` by the
    spare-cycle embedding; when ``task.sigma`` is None the budget of
    :func:`sigma_budget` is used, which always suffices.  A supplied sigma
    with too few spare cycles raises :class:`InsufficientCycles`.  The
    returned agreement measure is the exact mass of intervals where the
    step condition holds against the original map ``S`` for every point
    below the window.
    """
    if task.k < 1:
        raise ValueError("k must be positive")
    height, s0, tower, h = _tower_setup(task)
    domain = range(task.k)
    sigma = task.sigma if task.sigma is not None else sigma_budget(task.k, height)
    level = s0.level
    sigma_power = sigma ** height
    sigma_inv = sigma.inverse()
    g = _scatter(
        level,
        tower.columns,
        lambda column: _solve_column_window(
            sigma, sigma_inv, [h.values[i] for i in column], domain
        ),
    )

    def step_holds(y: int, prev: int) -> bool:
        return all(g.values[y](h.values[y](n)) == sigma(g.values[prev](n)) for n in domain)

    # certificates by direct evaluation: the step condition at every tower
    # interval, then the loop condition at every column anchor
    s0_inv = s0.inverse()
    step_ok = {}  # y -> whether the step condition holds at (y, S0**-1 y)
    certificates = []
    for column in tower.columns:
        base = column[0]
        for pos, y in enumerate(column):
            prev = s0_inv.perm[y]
            ok = True
            for n in domain:
                lhs = g.values[y](h.values[y](n))
                rhs = sigma(g.values[prev](n))
                holds = lhs == rhs
                ok &= holds
                certificates.append(("step", base, pos, n, lhs, rhs, holds))
            step_ok[y] = ok
        anchor = g.values[column[-1]]
        anchor_inv = anchor.inverse()
        loop_target = _column_product([h.values[i] for i in column])
        for n in domain:
            lhs_l, rhs_l = anchor_inv(sigma_power(anchor(n))), loop_target(n)
            certificates.append(("loop", base, height - 1, n, lhs_l, rhs_l, lhs_l == rhs_l))

    # exact agreement against the original map, reusing the step verdicts
    # wherever S**-1 y == S0**-1 y
    agreement = _agreement(
        task.s,
        level,
        lambda y, prev: step_ok[y] if prev == s0_inv.perm[y] else step_holds(y, prev),
    )
    return SynthesisResult(
        g=g,
        s0=s0,
        tower=tower,
        agreement=agreement,
        certificates=tuple(certificates),
        sigma=sigma,
        height=height,
    )


# ---------------------------------------------------------------------------
# Metric-group synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSynthesisTask:
    """Synthesis against a right-invariant metric tolerance."""

    sigma: DyadicMPT         # base group element
    s: DyadicMPT
    h: StepFn                # values in the base group
    eps_g: Fraction          # per-point metric tolerance
    eps: Fraction            # tower mass tolerance
    height: int | None = None


@dataclass(frozen=True)
class MetricSynthesisResult:
    g: StepFn
    s0: DyadicMPT
    tower: TowerData
    agreement: Fraction
    certificates: tuple      # ("deviation", column, pos, value, ok)
    height: int

    def all_ok(self) -> bool:
        return all(row[-1] for row in self.certificates)

    def max_deviation(self) -> Fraction:
        return max((row[3] for row in self.certificates), default=ZERO)


def mpt_power_oracle(sigma: DyadicMPT):
    """Power-matching oracle for the interval-map base group.

    Conjugates of ``sigma**N`` are exactly the maps of its cycle type; the
    oracle morphs the target into that type (merging stray cycles into one
    and resplitting, each redirection moving one interval image) and
    conjugates exactly onto the morph.  Fails when the morph distance
    exceeds the tolerance.
    """

    def oracle(n: int, target: DyadicMPT, eps_g: Fraction) -> DyadicMPT:
        power = sigma ** n
        level = max(power.level, target.level)
        power_l, target_l = power.refine(level), target.refine(level)
        census = Counter(power_l.cycle_census())
        q, cost = nearest_of_cycle_type(target_l, census)
        if cost > eps_g:
            raise OracleFailure(
                f"nearest map of the required cycle type is {cost} away "
                f"(> {eps_g})",
                component="base-group",
            )
        rho = _exact_conjugator(power_l, q)
        if power_l.conj(rho).perm != q.perm:
            raise CertificateError("power oracle conjugator misses")
        return rho

    return oracle


def nearest_of_cycle_type(
    t: DyadicMPT, census: Mapping[int, int]
) -> tuple[DyadicMPT, Fraction]:
    """A map of the given cycle type at minimal-surgery distance from ``t``.

    Cycles of ``t`` whose length the census still needs are kept verbatim;
    the rest are chained into a single cycle (one image redirection per
    chained cycle) and resplit into the missing lengths (one redirection
    per part).  The exact displacement is returned alongside.
    """
    need = Counter({k: v for k, v in census.items() if v > 0})
    if sum(k * v for k, v in need.items()) != 2 ** t.level:
        raise ValueError("census does not cover the space")
    keep_rest: list[list[int]] = []
    for cyc in t.cycles(include_fixed=True):
        if need[len(cyc)] > 0:
            need[len(cyc)] -= 1
        else:
            keep_rest.append(cyc)
    missing = sorted(need.elements())
    merged = [p for cyc in keep_rest for p in cyc]
    # chain the stray cycles into one loop, then cut it into the missing
    # lengths; only chunk ends get new images
    chunks, pos = [], 0
    for length in missing:
        chunks.append(merged[pos:pos + length])
        pos += length
    if pos != len(merged):
        raise CertificateError("missing lengths do not cover the stray cycles")
    q = DyadicMPT(t.level, perm.close_cycles(t.perm, chunks))
    if Counter(q.cycle_census()) != Counter(census):
        raise CertificateError("resplit map has the wrong cycle type")
    return q, delta_u(t, q)


def synthesize_conjugator_metric(task: MetricSynthesisTask) -> MetricSynthesisResult:
    """Metric-group synthesis: base-anchored, extended upward exactly.

    The base group is the interval-map group under ``delta_u``, matched by
    :func:`mpt_power_oracle`, which returns ``rho`` with ``d(rho**-1
    sigma**N rho, t) <= eps_g`` for the cyclically reversed column product
    ``t = h(x) h(S0**(N-1) x) ... h(S0 x)``; right-invariance then gives the
    same deviation for the wraparound step, while the upper levels are
    exact by construction.  Every deviation is recomputed and certified.
    """
    if not isinstance(task.sigma, DyadicMPT):
        raise OracleFailure(
            "no power-matching oracle for this base group", component="base-group"
        )
    eps_g = Fraction(task.eps_g)
    sigma = task.sigma
    oracle = mpt_power_oracle(sigma)
    height, s0, tower, h = _tower_setup(task)
    level = h.level
    # h is refined from a coarse level, so it repeats a few distinct values
    inverse = cache(DyadicMPT.inverse)

    def solve(column: Sequence[int]) -> list:
        h_vals = [h.values[i] for i in column]
        # reversed loop product: h(x) first in writing order, h(S0 x)
        # applied first
        reverse_target = (
            h_vals[0] * _column_product(h_vals[1:]) if height > 1 else h_vals[0]
        )
        gs = [oracle(height, reverse_target, eps_g)]
        for i in range(1, height):
            gs.append(sigma * gs[-1] * inverse(h_vals[i]))
        return gs

    g = _scatter(level, tower.columns, solve)

    # the certificates and the agreement ask for the same pair wherever
    # S**-1 y == S0**-1 y
    @cache
    def deviation(y: int, prev: int) -> Fraction:
        return delta_u(g.values[y].inverse() * sigma * g.values[prev], h.values[y])

    s0_inv = s0.inverse()
    certificates = []
    for column in tower.columns:
        for pos, y in enumerate(column):
            dev = deviation(y, s0_inv.perm[y])
            certificates.append(("deviation", column[0], pos, dev, dev <= eps_g))

    return MetricSynthesisResult(
        g=g,
        s0=s0,
        tower=tower,
        agreement=_agreement(task.s, level, lambda y, prev: deviation(y, prev) <= eps_g),
        certificates=tuple(certificates),
        height=height,
    )


# ---------------------------------------------------------------------------
# Density constructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugationOutcome:
    conjugator: TildeElement
    conjugated: TildeElement
    member: bool
    fiber_residuals: tuple
    aut_residuals: tuple


def conjugate_into_neighborhood(
    g_base: WindowPerm, t_generic: DyadicMPT, target: ProductNbhd
) -> ConjugationOutcome:
    """Move ``(C_g, T)`` into a product-form neighborhood by conjugation.

    Two steps: an interval-map conjugator ``Q`` matches the transformation
    factor (the constant fiber is blind to it), then a fiber ``k`` solves
    the step condition along each cycle of the conjugated map so the
    conjugated fiber agrees with the target's fiber center at every marked
    point.  The conjugator is ``(C_e, Q) * (k, id)``, and membership is
    checked exactly on the result.

    ``Q`` is the identity when the target has no set condition, else a
    match of ``T`` onto the transformation center at half the tightest
    set-condition bound.  A failed match raises :class:`OracleFailure`
    naming its component, ``"aut"`` or ``"fiber"``.
    """
    bounds = [b for _, b in target.set_conditions]
    if bounds:
        try:
            q = mpt_conjugate_match(t_generic, target.center_t, min(bounds) / 2).r
        except CertificateError:
            raise  # a failed postcondition is a fault, not a missed match
        except RandlabError as exc:
            raise OracleFailure(
                f"transformation factor: {exc}", component="aut"
            ) from exc
    else:
        q = DyadicMPT.identity(t_generic.level)
    r_prime = t_generic.conj(q)
    level = max(r_prime.level, target.center_f.level)

    marked = [p for p, _ in target.value_conditions]
    if marked:
        center = target.center_f.refine(level)
        g_inv = g_base.inverse()
        try:
            k = _scatter(
                level,
                r_prime.refine(level).cycles(include_fixed=True),
                lambda cyc: _solve_column_window(
                    g_base, g_inv, [center.values[i] for i in cyc], marked
                ),
            )
        except InsufficientCycles as exc:
            raise OracleFailure(f"fiber factor: {exc}", component="fiber") from exc
    else:
        k = StepFn.constant(E, level)

    conjugator = TildeElement(StepFn.constant(E, q.level), q) * TildeElement(
        k, DyadicMPT.identity(level)
    )
    conjugated = TildeElement(StepFn.constant(g_base, 0), t_generic).conj(conjugator)
    return ConjugationOutcome(
        conjugator=conjugator,
        conjugated=conjugated,
        member=target.contains(conjugated),
        fiber_residuals=tuple(target.fiber_residuals(conjugated.f)),
        aut_residuals=tuple(target.aut_residuals(conjugated.t)),
    )


@dataclass(frozen=True)
class ConstantConjugationOutcome:
    conjugator: TildeElement   # (C_e, R)
    conjugated: TildeElement   # (C_h, R**-1 T R)
    lu_value: Fraction         # exact value or certified upper bound
    certified: bool


def approx_conjugate_constant(
    h, t: DyadicMPT, s: DyadicMPT, eps: Fraction
) -> ConstantConjugationOutcome:
    """Conjugate ``(C_h, T)`` within uniform distance ``eps`` of ``(C_h, S)``.

    The conjugator is ``(C_e, R)`` with ``R`` from the interval matcher; a
    constant fiber is untouched by it, so the uniform distance reduces to
    the displacement of the conjugated transformation, certified exactly
    (discrete fibers) or through the sandwich upper bound.
    """
    eps = Fraction(eps)
    match = mpt_conjugate_match(t, s, eps)
    r = match.r
    level = max(r.level, t.level, s.level)
    kind = value_kind(h)
    conjugator = TildeElement(StepFn.constant(kind.identity(h), level), r)
    conjugated = TildeElement(StepFn.constant(h, level), t.conj(r))
    reference = TildeElement(StepFn.constant(h, level), s.refine(level))
    if kind.discrete:
        value = lu_exact_discrete(conjugated, reference)
    else:
        value = lu_bounds(conjugated, reference).upper
    return ConstantConjugationOutcome(
        conjugator=conjugator,
        conjugated=conjugated,
        lu_value=value,
        certified=value < eps,
    )

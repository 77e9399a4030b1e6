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
from functools import reduce
from typing import Callable, Mapping, Sequence

from . import perm
from .dyadic import (
    DyadicMPT,
    TowerData,
    _exact_conjugator,
    delta_u,
    format_fraction,
    format_mpt,
    mpt_conjugate_match,
    parse_mpt,
    periodic_approximation,
)
from .errors import (
    InsufficientCycles,
    NotExactTower,
    OracleFailure,
    ParseError,
    RandlabError,
    SimultaneousMatchUnsupported,
)
from .groups import E, WindowPerm, cycle_pack, format_cycles, match_partial, parse_cycles
from .stepfn import StepFn, format_step, parse_step, value_kind
from .tilde import (
    ProductNbhd,
    TildeElement,
    lu_bounds,
    lu_exact_discrete,
    tilde_identity,
)

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Column products
# ---------------------------------------------------------------------------

def column_intervals(s0: DyadicMPT, base: int, height: int) -> list[int]:
    """Interval indices ``base, s0(base), ..., s0**(height-1)(base)``."""
    out = [base]
    for _ in range(height - 1):
        out.append(s0.perm[out[-1]])
    return out


def _column_product(values: Sequence):
    """``values[-1] * ... * values[1] * values[0]``."""
    return reduce(lambda acc, v: v * acc, values[1:], values[0])


def tower_product(h: StepFn, s0: DyadicMPT, tower: TowerData, x: int):
    """Ordered product of ``h`` up the column through base interval ``x``:
    ``h(s0**(N-1) x) * ... * h(s0 x) * h(x)``, rightmost applied first."""
    if tower.leftover.members:
        raise NotExactTower("tower_product needs a full-coverage tower")
    level = max(h.level, s0.level)
    hh, ss = h.refine(level), s0.refine(level)
    scale = 2 ** (level - tower.level)
    column = column_intervals(ss, x * scale, tower.height)
    return _column_product([hh.values[i] for i in column])


def _tower_setup(
    task: SynthesisTask | MetricSynthesisTask,
) -> tuple[int, DyadicMPT, TowerData, StepFn]:
    """Shared prologue of both synthesis variants.

    Resolves the tower height (default: the smallest power of two ``N``
    with ``2/N < eps``), builds the exact period-``N`` approximation of
    ``task.s`` with its full-coverage tower at the level of ``task.h`` or
    finer, and refines ``task.h`` to that level.  Returns ``(height, s0,
    tower, h)``.
    """
    eps = Fraction(task.eps)
    height = task.height
    if height is None:
        if eps <= 0:
            raise ValueError("eps must be positive")
        height = 2
        while Fraction(2, height) >= eps:
            height *= 2
    leftover_budget = max(ZERO, eps - Fraction(1, height))
    pa = periodic_approximation(task.s, height, leftover_budget)
    level = max(pa.exact_tower.level, task.h.level)
    if level > pa.exact_tower.level:
        pa = periodic_approximation(task.s.refine(level), height, leftover_budget)
    return height, pa.s0, pa.exact_tower, task.h.refine(level)


def _scatter(level: int, cycles: Sequence[Sequence[int]], solve: Callable) -> StepFn:
    """Step function of ``level`` holding ``solve(cycle)`` along each cycle.

    The cycles must partition the ``2**level`` intervals.
    """
    values: list = [None] * 2 ** level
    for cyc in cycles:
        for idx, value in zip(cyc, solve(cyc)):
            values[idx] = value
    assert all(v is not None for v in values)
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


def format_synthesis_task(task: SynthesisTask) -> str:
    lines = ["synthesis {"]
    lines.append(
        "  sigma " + ("auto" if task.sigma is None else format_cycles(task.sigma))
    )
    lines.append(f"  s {format_mpt(task.s)}")
    lines.append(f"  h {format_step(task.h)}")
    lines.append(f"  k {task.k}")
    lines.append(f"  eps {format_fraction(Fraction(task.eps))}")
    if task.height is not None:
        lines.append(f"  height {task.height}")
    lines.append("}")
    return "\n".join(lines)


def parse_synthesis_task(text: str) -> SynthesisTask:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines or lines[0] != "synthesis {" or lines[-1] != "}":
        raise ParseError("expected a 'synthesis { ... }' block")
    fields: dict[str, str] = {}
    for ln in lines[1:-1]:
        if not ln:
            continue
        key, _, value = ln.partition(" ")
        fields[key] = value.strip()
    try:
        sigma = None if fields["sigma"] == "auto" else parse_cycles(fields["sigma"])
        return SynthesisTask(
            sigma=sigma,
            s=parse_mpt(fields["s"]),
            h=parse_step(fields["h"]),
            k=int(fields["k"]),
            eps=Fraction(fields["eps"]),
            height=int(fields["height"]) if "height" in fields else None,
        )
    except KeyError as exc:
        raise ParseError(f"synthesis block missing field {exc}") from None


def format_synthesis_result(result: SynthesisResult) -> str:
    ok = sum(1 for row in result.certificates if row[-1])
    lines = [
        "synthesis-result {",
        f"  level {result.g.level}",
        f"  height {result.height}",
        f"  columns {len(result.tower.base.members)}",
        f"  agreement {format_fraction(result.agreement)}",
        f"  certificates {ok}/{len(result.certificates)}",
        "}",
    ]
    return "\n".join(lines)


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
    """
    copies = -(-k // height)  # ceil
    return cycle_pack({height * j: copies for j in range(1, k + 3)})


def _solve_column_window(
    sigma: WindowPerm,
    h_values: Sequence[WindowPerm],
    domain: Sequence[int],
    fresh_start: int | None = None,
) -> list[WindowPerm]:
    """Solve one column: anchor at the top, extend downward exactly.

    Returns group values ``g_0 .. g_(L-1)`` along the column such that the
    step condition holds for all points at positions 1..L-1 and on
    ``domain`` at the wraparound position 0.
    """
    length = len(h_values)
    loop_target = _column_product(h_values)
    target = {n: loop_target(n) for n in domain}
    gamma = match_partial(sigma, length, target, fresh_start=fresh_start)
    gs: list[WindowPerm | None] = [None] * length
    gs[length - 1] = gamma
    sigma_inv = sigma.inverse()
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
    height, s0, tower, h = _tower_setup(task)
    domain = range(task.k)
    sigma = task.sigma if task.sigma is not None else sigma_budget(task.k, height)
    level = s0.level
    sigma_power = sigma ** height
    columns = [column_intervals(s0, base, height) for base in sorted(tower.base.members)]
    g = _scatter(
        level,
        columns,
        lambda column: _solve_column_window(sigma, [h.values[i] for i in column], domain),
    )

    # certificates by direct evaluation: the step condition at every tower
    # interval, then the loop condition at every column anchor
    s0_inv = s0.inverse()
    certificates = []
    for column in columns:
        base = column[0]
        for pos, y in enumerate(column):
            prev = s0_inv.perm[y]
            for n in domain:
                lhs = g.values[y](h.values[y](n))
                rhs = sigma(g.values[prev](n))
                certificates.append(("step", base, pos, n, lhs, rhs, lhs == rhs))
        anchor = g.values[column[-1]]
        loop_target = _column_product([h.values[i] for i in column])
        conj = anchor.inverse() * sigma_power * anchor
        for n in domain:
            lhs_l, rhs_l = conj(n), loop_target(n)
            certificates.append(("loop", base, height - 1, n, lhs_l, rhs_l, lhs_l == rhs_l))

    # exact agreement against the original map
    agreement = _agreement(
        task.s,
        level,
        lambda y, prev: all(
            g.values[y](h.values[y](n)) == sigma(g.values[prev](n)) for n in domain
        ),
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
        assert power_l.conj(rho).perm == q.perm
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
    assert pos == len(merged)
    q = DyadicMPT(t.level, perm.close_cycles(t.perm, chunks))
    assert Counter(q.cycle_census()) == Counter(census)
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

    def solve(column: list[int]) -> list:
        h_vals = [h.values[i] for i in column]
        # reversed loop product: h(x) first in writing order, h(S0 x)
        # applied first
        reverse_target = (
            h_vals[0] * _column_product(h_vals[1:]) if height > 1 else h_vals[0]
        )
        gs = [oracle(height, reverse_target, eps_g)]
        for i in range(1, height):
            gs.append(sigma * gs[-1] * h_vals[i].inverse())
        return gs

    columns = [column_intervals(s0, base, height) for base in sorted(tower.base.members)]
    g = _scatter(level, columns, solve)

    def deviation(y: int, prev: int) -> Fraction:
        return delta_u(g.values[y].inverse() * sigma * g.values[prev], h.values[y])

    s0_inv = s0.inverse()
    certificates = []
    for column in columns:
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


def _marked(target: ProductNbhd) -> list[int]:
    return [p for p, _ in target.value_conditions]


def _transformation_factor(
    t: DyadicMPT, targets: Sequence[ProductNbhd]
) -> tuple[DyadicMPT, DyadicMPT]:
    """Interval-map conjugator ``Q`` for the transformation factor.

    ``Q`` is the identity when no target has a set condition, else a match
    of ``t`` onto the (shared) transformation center at half the tightest
    set-condition bound.  Returns ``Q`` with ``Q**-1 T Q`` refined to the
    finest fiber-center level.
    """
    bounds = [b for tgt in targets for _, b in tgt.set_conditions]
    if bounds:
        try:
            q = mpt_conjugate_match(t, targets[0].center_t, min(bounds) / 2).r
        except RandlabError as exc:
            raise OracleFailure(
                f"transformation factor: {exc}", component="aut"
            ) from exc
    else:
        q = DyadicMPT.identity(t.level)
    r_prime = t.conj(q)
    level = max(r_prime.level, *(tgt.center_f.level for tgt in targets))
    return q, r_prime.refine(level)


def _fiber(
    g_base: WindowPerm,
    r_fine: DyadicMPT,
    center_f: StepFn,
    marked: Sequence[int],
    fresh_start: int | None = None,
) -> StepFn:
    """Fiber ``k`` solving the step condition along each cycle of ``r_fine``,
    so the conjugated constant fiber ``g_base`` agrees with ``center_f`` at
    every marked point."""
    level = r_fine.level
    if not marked:
        return StepFn.constant(E, level)
    center = center_f.refine(level)
    try:
        return _scatter(
            level,
            r_fine.cycles(include_fixed=True),
            lambda cyc: _solve_column_window(
                g_base, [center.values[i] for i in cyc], marked, fresh_start
            ),
        )
    except InsufficientCycles as exc:
        raise OracleFailure(f"fiber factor: {exc}", component="fiber") from exc


def _conjugator(q: DyadicMPT, k: StepFn) -> TildeElement:
    """The conjugator ``(C_e, Q) * (k, id)``."""
    return TildeElement(StepFn.constant(E, q.level), q) * TildeElement(
        k, DyadicMPT.identity(k.level)
    )


def _outcome(
    source: TildeElement, target: ProductNbhd, conjugator: TildeElement
) -> ConjugationOutcome:
    """Conjugate ``source`` and check the result against ``target`` exactly."""
    conjugated = source.conj(conjugator)
    return ConjugationOutcome(
        conjugator=conjugator,
        conjugated=conjugated,
        member=target.contains(conjugated),
        fiber_residuals=tuple(target.fiber_residuals(conjugated.f)),
        aut_residuals=tuple(target.aut_residuals(conjugated.t)),
    )


def conjugate_into_neighborhood(
    g_base: WindowPerm, t_generic: DyadicMPT, target: ProductNbhd
) -> ConjugationOutcome:
    """Move ``(C_g, T)`` into a product-form neighborhood by conjugation.

    Two steps: an interval-map conjugator ``Q`` matches the transformation
    factor (the constant fiber is blind to it), then a fiber ``k`` solves
    the step condition along each cycle of the conjugated map so the
    conjugated fiber agrees with the target's fiber center at every marked
    point.  Membership is checked exactly on the result.
    """
    q, r_fine = _transformation_factor(t_generic, [target])
    k = _fiber(g_base, r_fine, target.center_f, _marked(target))
    source = TildeElement(StepFn.constant(g_base, 0), t_generic)
    return _outcome(source, target, _conjugator(q, k))


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


# ---------------------------------------------------------------------------
# Diagonal (simultaneous) conjugation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalReport:
    success: bool
    conjugator: TildeElement | None
    per_coordinate: tuple  # (member, fiber_residuals, aut_residuals)
    note: str = ""


def _window_footprint(g: WindowPerm, center_f: StepFn, marked) -> set[int]:
    pts: set[int] = set(g.support())
    for v in center_f.values:
        pts |= set(v.support())
    pts |= set(marked)
    return pts


def _constant_window_value(source: TildeElement, message: str) -> WindowPerm:
    values = source.f.values
    if len(set(values)) != 1 or not isinstance(values[0], WindowPerm):
        raise SimultaneousMatchUnsupported(message)
    return values[0]


def diagonal_experiment(
    sources: Sequence[TildeElement],
    targets: Sequence[ProductNbhd],
) -> DiagonalReport:
    """One conjugator moving every coordinate into its target.

    Supported cases: a single coordinate; targets already containing the
    sources; constant window-permutation fibers over a shared
    transformation with pairwise disjoint window footprints.  Anything else
    raises :class:`SimultaneousMatchUnsupported`, reporting honestly rather
    than guessing.  A failed matching step raises :class:`OracleFailure`
    naming its component, ``"aut"`` or ``"fiber"``.
    """
    if len(sources) != len(targets):
        raise ValueError("need one target per source")
    if not sources:
        raise ValueError("empty tuple")

    def evaluate(conjugator: TildeElement, note: str) -> DiagonalReport:
        outs = [_outcome(src, tgt, conjugator) for src, tgt in zip(sources, targets)]
        return DiagonalReport(
            success=all(o.member for o in outs),
            conjugator=conjugator,
            per_coordinate=tuple(
                (o.member, o.fiber_residuals, o.aut_residuals) for o in outs
            ),
            note=note,
        )

    level = max(max(s.f.level, s.t.level) for s in sources)
    v0 = sources[0].f.values[0]
    identity = tilde_identity(value_kind(v0).identity(v0), level)
    trivial = evaluate(identity, "targets already contain the sources")
    if trivial.success:
        return trivial

    if len(sources) == 1:
        g = _constant_window_value(
            sources[0], "single-coordinate case needs a constant window-permutation fiber"
        )
        q, r_fine = _transformation_factor(sources[0].t, targets)
        k = _fiber(g, r_fine, targets[0].center_f, _marked(targets[0]))
        return evaluate(_conjugator(q, k), "reduced to a single conjugation")

    # simultaneous case: shared transformation, disjoint window footprints
    t_shared = sources[0].t
    if not all(s.t.same_map(t_shared) for s in sources):
        raise SimultaneousMatchUnsupported(
            "simultaneous matching implemented only for a shared transformation"
        )
    if not all(t.center_t.same_map(targets[0].center_t) for t in targets):
        raise SimultaneousMatchUnsupported(
            "targets must share one transformation center"
        )
    gs = [
        _constant_window_value(s, "coordinates must be constant window-permutation fibers")
        for s in sources
    ]
    footprints = [
        _window_footprint(g, t.center_f, _marked(t)) for g, t in zip(gs, targets)
    ]
    for i in range(len(footprints)):
        for j in range(i + 1, len(footprints)):
            if footprints[i] & footprints[j]:
                raise SimultaneousMatchUnsupported(
                    f"coordinate windows {i} and {j} overlap"
                )
    # one transformation conjugator for all coordinates, then one fiber per
    # coordinate, each drawing fresh points above everything used before it
    q, r_fine = _transformation_factor(t_shared, targets)
    combined: list[WindowPerm] = [E] * 2 ** r_fine.level
    reserve = max((max(fp) + 1 for fp in footprints if fp), default=0)
    for g, tgt in zip(gs, targets):
        k = _fiber(g, r_fine, tgt.center_f, _marked(tgt), fresh_start=reserve)
        reserve = max([reserve] + [max(v.support(), default=-1) + 1 for v in k.values])
        combined = [a * b for a, b in zip(k.values, combined)]
    k_fn = StepFn(r_fine.level, tuple(combined))
    return evaluate(_conjugator(q, k_fn), "disjoint-window simultaneous matching")

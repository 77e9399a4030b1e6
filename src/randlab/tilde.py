"""The semidirect product of random group elements with interval maps.

An element is a pair ``(f, T)``: a group-valued step function and a
measure-preserving interval permutation.  It acts on a point-valued step
function ``alpha`` by ``((f, T) alpha)(w) = f(w)(alpha(T**-1 w))``, which
makes the pair an isometry of the step functions under the integral metric.
The module provides the group law, the action, an explicit pointwise
metric, neighborhood calculators relating the pointwise and product
topologies, and three routes to the uniform metric: the exact discrete
formula, two-sided sandwich bounds, and a lower estimate from explicit
witness test functions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .dyadic import (
    DyadicMPT,
    DyadicSet,
    format_fraction,
    format_mpt,
    format_set,
    parse_mpt,
    parse_set,
)
from .errors import (
    CertificateError,
    DegenerateSpace,
    MismatchedSpace,
    NotDiscrete,
    ParseError,
)
from .groups import E
from .stepfn import (
    StepFn,
    dhat,
    format_step,
    format_value,
    l0_mul,
    parse_step,
    parse_value,
    value_kind,
    zip_values,
)

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Group elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TildeElement:
    """Pair (f, T): group-valued step function and interval transformation."""

    f: StepFn
    t: DyadicMPT

    def __mul__(self, other: "TildeElement") -> "TildeElement":
        """Product matching the action: ``(a * b)(alpha) = a(b(alpha))``."""
        fiber = l0_mul(self.f, other.f.precompose(self.t.inverse()))
        return TildeElement(fiber, self.t * other.t)

    def inverse(self) -> "TildeElement":
        fiber = self.f.precompose(self.t).map(lambda v: v.inverse())
        return TildeElement(fiber, self.t.inverse())

    def conj(self, by: "TildeElement") -> "TildeElement":
        return by.inverse() * self * by

    def same_element(self, other: "TildeElement") -> bool:
        return self.f.same_function(other.f) and self.t.same_map(other.t)

    def fiber_support(self) -> DyadicSet:
        """Where the fiber differs from the group identity."""
        return self.f.where(lambda v: not v.is_identity())

    def aut_support(self) -> DyadicSet:
        t = self.t
        return DyadicSet(
            t.level, frozenset(i for i, j in enumerate(t.perm) if i != j)
        )


def tilde_identity(value_identity=E, level: int = 0) -> TildeElement:
    return TildeElement(
        StepFn.constant(value_identity, level), DyadicMPT.identity(level)
    )


def tilde_act(a: TildeElement, alpha: StepFn) -> StepFn:
    """Apply the isometry: value at interval i is ``f_i(alpha(T**-1 i))``."""
    m = max(a.f.level, a.t.level, alpha.level)
    f, t, al = a.f.refine(m), a.t.refine(m), alpha.refine(m)
    inv = t.inverse().perm
    v, point = f.values[0], al.values[0]
    if not value_kind(v).acts_on(v, point):
        raise MismatchedSpace(
            f"{type(v).__name__} values do not act on the point {point!r}"
        )
    return StepFn(
        m, tuple(f.values[i](al.values[inv[i]]) for i in range(2 ** m))
    )


def _point_metric(fiber: StepFn) -> Callable:
    """Metric of the space the fiber values act on."""
    v = fiber.values[0]
    return value_kind(v).point_metric(v)


# ---------------------------------------------------------------------------
# Pointwise metric
# ---------------------------------------------------------------------------

def enumerate_test_functions(marked: Sequence):
    """Canonical test family: all step functions of level 0..3 with values
    among the marked points, level first then lexicographic."""
    for level in range(4):
        for combo in itertools.product(marked, repeat=2 ** level):
            yield StepFn(level, combo)


def pointwise_metric(a: TildeElement, b: TildeElement, budget: int = 64) -> Fraction:
    """Weighted sum of action displacements over the canonical test family
    on the first four marked points of the space.

    Truncated at ``budget`` test functions; the discarded tail is bounded
    by ``2**-budget`` since every displacement is at most one.
    """
    v = a.f.values[0]
    kind = value_kind(v)
    metric = kind.point_metric(v)
    total = ZERO
    for m, alpha in enumerate(enumerate_test_functions(kind.marked_points(v))):
        if m >= budget:
            break
        d = dhat(tilde_act(a, alpha), tilde_act(b, alpha), metric)
        total += Fraction(1, 2 ** (m + 1)) * d
    return total


# ---------------------------------------------------------------------------
# Neighborhoods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointwiseNbhd:
    """Finite intersection of action-displacement balls."""

    center: TildeElement
    tests: tuple[tuple[StepFn, Fraction], ...]  # (test function, radius)

    def residuals(self, x: TildeElement) -> list[Fraction]:
        metric = _point_metric(self.center.f)
        return [
            dhat(tilde_act(self.center, alpha), tilde_act(x, alpha), metric)
            for alpha, _ in self.tests
        ]

    def contains(self, x: TildeElement) -> bool:
        return all(
            r < radius
            for r, (_, radius) in zip(self.residuals(x), self.tests)
        )


@dataclass(frozen=True)
class ProductNbhd:
    """Product-form neighborhood: value conditions on the fiber factor and
    set-displacement conditions on the transformation factor."""

    center_f: StepFn
    center_t: DyadicMPT
    value_conditions: tuple[tuple[object, Fraction], ...]  # (point, bound)
    set_conditions: tuple[tuple[DyadicSet, Fraction], ...]  # (set, bound)

    def fiber_residuals(self, f: StepFn) -> list[Fraction]:
        metric = _point_metric(self.center_f)
        out = []
        for point, _ in self.value_conditions:
            m, cv, fv = zip_values(self.center_f, f)
            total = sum(
                (metric(a(point), b(point)) for a, b in zip(cv, fv)), ZERO
            )
            out.append(total / 2 ** m)
        return out

    def aut_residuals(self, t: DyadicMPT) -> list[Fraction]:
        return [
            self.center_t.image(s).symmetric_difference(t.image(s)).measure
            for s, _ in self.set_conditions
        ]

    def contains_pair(self, f: StepFn, t: DyadicMPT) -> bool:
        fib = self.fiber_residuals(f)
        aut = self.aut_residuals(t)
        return all(
            r < bound for r, (_, bound) in zip(fib, self.value_conditions)
        ) and all(
            r < bound for r, (_, bound) in zip(aut, self.set_conditions)
        )

    def contains(self, x: TildeElement) -> bool:
        return self.contains_pair(x.f, x.t)


def nbhd_product_to_pointwise(
    center: TildeElement, alpha: StepFn, eps: Fraction
) -> ProductNbhd:
    """Product-form box inside the pointwise eps-ball at ``alpha``.

    With ``alpha`` taking k distinct values on pieces ``A_i``, the box
    demands fiber agreement ``< eps/(2k)`` at each value and set
    displacement ``mu(T(A_i) ^ R(A_i)) < eps/(2k)``; membership of any
    (g, R) in the box forces the pointwise displacement at ``alpha`` below
    eps.
    """
    eps = Fraction(eps)
    pieces = alpha.distinct_pieces()
    k = len(pieces)
    bound = eps / (2 * k)
    return ProductNbhd(
        center_f=center.f,
        center_t=center.t,
        value_conditions=tuple((v, bound) for v, _ in pieces),
        set_conditions=tuple((s, bound) for _, s in pieces),
    )


@dataclass(frozen=True)
class PointwiseToProduct:
    """Pointwise neighborhood with the product conditions it certifies."""

    nbhd: PointwiseNbhd
    target_set: DyadicSet
    target_set_bound: Fraction
    fiber_test: StepFn
    fiber_bound: Fraction


def nbhd_pointwise_to_product(
    center: TildeElement,
    b: DyadicSet,
    alpha: StepFn,
    eps: Fraction,
    c1,
    c2,
) -> PointwiseToProduct:
    """Pointwise-form box inside a product neighborhood.

    Uses the two-point separation trick: with ``s = d(c1, c2) > 0`` the
    test functions ``beta1 = c1`` everywhere and ``beta2 = c1`` on ``b``,
    ``c2`` off ``b``, each with radius ``eps*s/4``, force ``mu(T(b) ^ R(b))
    < eps``; the pulled-back test ``gamma = alpha o T`` with radius
    ``eps/2``, together with per-piece set control at ``eps/(2k)``, forces
    the fiber integral at ``alpha`` below eps.
    """
    eps = Fraction(eps)
    metric = _point_metric(center.f)
    s = metric(c1, c2)
    if s <= 0:
        raise DegenerateSpace("need two points at positive distance")
    level = max(b.level, alpha.level, center.f.level, center.t.level)
    beta1 = StepFn.constant(c1, level)
    b_fine = b.refine(level)
    beta2 = StepFn(
        level,
        tuple(
            c1 if i in b_fine.members else c2 for i in range(2 ** level)
        ),
    )
    gamma = alpha.precompose(center.t)
    tests: list[tuple[StepFn, Fraction]] = [
        (beta1, eps * s / 4),
        (beta2, eps * s / 4),
        (gamma, eps / 2),
    ]
    # per-piece set control for the fiber-factor containment
    pieces = alpha.distinct_pieces()
    k = len(pieces)
    for _, piece_set in pieces:
        piece_fine = piece_set.refine(level)
        beta_piece = StepFn(
            level,
            tuple(
                c1 if i in piece_fine.members else c2
                for i in range(2 ** level)
            ),
        )
        tests.append((beta_piece, (eps / (2 * k)) * s / 4))
    return PointwiseToProduct(
        nbhd=PointwiseNbhd(center=center, tests=tuple(tests)),
        target_set=b,
        target_set_bound=eps,
        fiber_test=alpha,
        fiber_bound=eps,
    )


def verify_pointwise_to_product(
    cert: PointwiseToProduct, member: TildeElement
) -> dict:
    """Exact check that a pointwise member satisfies the product conditions."""
    center = cert.nbhd.center
    set_disp = (
        center.t.image(cert.target_set)
        .symmetric_difference(member.t.image(cert.target_set))
        .measure
    )
    metric = _point_metric(center.f)
    m = max(center.f.level, member.f.level, cert.fiber_test.level)
    cf, mf = center.f.refine(m), member.f.refine(m)
    al = cert.fiber_test.refine(m)
    fiber_integral = (
        sum(
            (
                metric(a(x), b(x))
                for a, b, x in zip(cf.values, mf.values, al.values)
            ),
            ZERO,
        )
        / 2 ** m
    )
    return {
        "member": cert.nbhd.contains(member),
        "set_displacement": set_disp,
        "set_ok": set_disp < cert.target_set_bound,
        "fiber_integral": fiber_integral,
        "fiber_ok": fiber_integral < cert.fiber_bound,
    }


def sample_members(
    nbhd: PointwiseNbhd | ProductNbhd,
    count: int,
    seed: int,
    value_pool: Sequence | None = None,
) -> list[TildeElement]:
    """Seeded members of a neighborhood, built by small perturbations.

    Perturbs the center on interval sets of measure below the smallest
    radius (fiber) and by conjugation-free interval swaps (transformation),
    keeping only exact members, so the output provably lies inside the
    neighborhood.
    """
    rng = random.Random(seed)
    if isinstance(nbhd, PointwiseNbhd):
        center = nbhd.center
        radii = [r for _, r in nbhd.tests]
    else:
        center = TildeElement(nbhd.center_f, nbhd.center_t)
        radii = [r for _, r in nbhd.value_conditions]
        radii += [r for _, r in nbhd.set_conditions]
    min_radius = min(radii) if radii else ONE
    level = max(center.f.level, center.t.level, 4)
    n = 2 ** level
    budget = int(min_radius * n) // 2  # perturbed intervals, forced inside
    f0 = center.f.refine(level)
    t0 = center.t.refine(level)
    pool = list(value_pool or [])
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        values = list(f0.values)
        if pool and budget > 0:
            for i in rng.sample(range(n), min(budget, n)):
                values[i] = rng.choice(pool)
        perm = list(t0.perm)
        if budget >= 2:
            for _ in range(budget // 2):
                i, j = rng.sample(range(n), 2)
                perm[i], perm[j] = perm[j], perm[i]
        cand = TildeElement(StepFn(level, tuple(values)), DyadicMPT(level, tuple(perm)))
        if nbhd.contains(cand):
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# The uniform metric
# ---------------------------------------------------------------------------

def _reduce_pair(a: TildeElement, b: TildeElement) -> TildeElement:
    """Bi-invariance reduction: distance of (a, b) equals distance of
    (b**-1 a, identity)."""
    return b.inverse() * a


def lu_exact_discrete(a: TildeElement, b: TildeElement) -> Fraction:
    """Uniform distance over a discrete acted-on space, exactly.

    Reduces by bi-invariance to ``(h, R) = b**-1 a`` against the identity
    and returns ``mu({h != e} union {R != id})``.
    """
    if not value_kind(a.f.values[0]).discrete:
        raise NotDiscrete(
            "exact formula needs the discrete naturals; use lu_bounds"
        )
    c = _reduce_pair(a, b)
    bad = c.fiber_support().union(c.aut_support())
    return bad.measure


@dataclass(frozen=True)
class LuBounds:
    """Sandwich for the uniform distance, all entries exact."""

    lower: Fraction
    upper: Fraction
    alt_lower: Fraction          # (r/8) * max(mu(B), dhat_u(h, e))
    moving_measure: Fraction     # mu(B)
    fixed_fiber_integral: Fraction  # integral of d_u(h, e) over A
    anchor_distance: Fraction    # r


def lu_bounds(a: TildeElement, b: TildeElement) -> LuBounds:
    """Two-sided bounds for the uniform distance via the moving set.

    With ``(h, R) = b**-1 a``, ``B = {R != id}`` and ``A = {h != e, R
    fixes}``, the distance lies between ``(r/8) mu(B) + int_A d_u(h, e)``
    and ``mu(B) + int_A d_u(h, e)`` where ``r`` is the distance of a
    maximal-distance anchor pair of the space.
    """
    kind = value_kind(a.f.values[0])
    c = _reduce_pair(a, b)
    du = kind.du
    v0 = c.f.values[0]
    r = kind.diameter(v0)
    level = max(c.f.level, c.t.level)
    f, t = c.f.refine(level), c.t.refine(level)
    ident = kind.identity(v0)
    moving = ZERO
    fixed_integral = ZERO
    dhat_u_fiber = ZERO
    w = Fraction(1, 2 ** level)
    for i in range(2 ** level):
        dist = du(f.values[i], ident)
        dhat_u_fiber += dist * w
        if t.perm[i] != i:
            moving += w
        elif dist > 0:
            fixed_integral += dist * w
    lower = (r / 8) * moving + fixed_integral
    upper = moving + fixed_integral
    alt_lower = (r / 8) * max(moving, dhat_u_fiber)
    if not alt_lower <= lower <= upper:
        raise CertificateError("sandwich bounds out of order")
    return LuBounds(
        lower=lower,
        upper=upper,
        alt_lower=alt_lower,
        moving_measure=moving,
        fixed_fiber_integral=fixed_integral,
        anchor_distance=r,
    )


# -- witness families ---------------------------------------------------------

def _discrete_witness(c: TildeElement) -> StepFn:
    """Witness realizing the exact discrete formula.

    On fixed intervals with nontrivial fiber value it picks the least
    displaced point; along each cycle of the transformation it places value
    0 at the cycle head and fresh values (positive and beyond every window
    of the fiber, so fixed by every represented permutation) at the later
    positions, so each link of the cycle disagrees.
    """
    level = max(c.f.level, c.t.level)
    f, t = c.f.refine(level), c.t.refine(level)
    top = max(1, *(v.window for v in c.f.values))
    values = [0] * 2 ** level
    for i in range(2 ** level):
        v = f.values[i]
        if t.perm[i] == i and not v.is_identity():
            values[i] = min(v.support())
    for cy in t.cycles():
        for pos, i in enumerate(cy):
            values[i] = top + pos - 1 if pos else 0
    return StepFn(level, tuple(values))


def _metric_witnesses(c: TildeElement) -> list[StepFn]:
    """Deterministic witnesses achieving the sandwich lower bound.

    On fixed intervals the witness picks a farthest-moved point of the
    fiber value (the uniform distance is attained on a finite space).
    Along each cycle it walks greedily through the anchor pair {x1, x2},
    choosing the next value to be far from the image of the previous one;
    the triangle inequality makes every inner link contribute at least
    r/2, so a cycle of length L contributes at least (L-1) r/2 >= L r/4.
    """
    v0 = c.f.values[0]
    space = v0.space
    x1, x2, r = space.diameter_pair()
    d = space.d
    level = max(c.f.level, c.t.level)
    f, t = c.f.refine(level), c.t.refine(level)
    values = [x1] * 2 ** level
    for i in range(2 ** level):
        if t.perm[i] == i:
            v = f.values[i]
            values[i] = max(space.points, key=lambda p: (d(v(p), p), space.points.index(p)))
    for cy in t.cycles():
        values[cy[0]] = x1
        for prev, cur in zip(cy, cy[1:]):
            image = f.values[cur](values[prev])
            values[cur] = x1 if d(image, x1) >= d(image, x2) else x2
    witnesses = [StepFn(level, tuple(values))]
    # constant and alternating functions per the two-case argument
    witnesses.append(StepFn.constant(x1, level))
    witnesses.append(StepFn.constant(x2, level))
    alt = [x1] * 2 ** level
    for cy in t.cycles():
        for pos, i in enumerate(cy):
            alt[i] = x1 if pos % 2 == 0 else x2
    witnesses.append(StepFn(level, tuple(alt)))
    return witnesses


@dataclass(frozen=True)
class LuEstimate:
    """Witness-family lower estimate with its companion upper bound."""

    value: Fraction
    lower: Fraction
    upper: Fraction
    witnesses_tried: int

    def consistent(self) -> bool:
        return self.lower <= self.value <= self.upper


def lu_estimate(
    a: TildeElement, b: TildeElement, budget: int = 16, seed: int = 0
) -> LuEstimate:
    """Best action displacement over explicit witness test functions.

    The result is an exact lower bound for the uniform distance.  Over a
    discrete space one witness reaches ``mu({h != e} union {R != id})``,
    which bounds every displacement, so it is the only one evaluated and
    ``budget`` and ``seed`` are not used.  Over a metric space the
    deterministic family reaches the sandwich lower bound, and ``budget``
    seeded random test functions join it.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    c = _reduce_pair(a, b)
    v0 = c.f.values[0]
    kind = value_kind(v0)
    metric = kind.point_metric(v0)
    if kind.discrete:
        witnesses = [_discrete_witness(c)]
    else:
        witnesses = _metric_witnesses(c)
        rng = random.Random(seed)
        level = max(c.f.level, c.t.level)
        points = v0.space.points
        for _ in range(budget):
            witnesses.append(
                StepFn(level, tuple(rng.choice(points) for _ in range(2 ** level)))
            )
    best = ZERO
    for alpha in witnesses:
        moved = tilde_act(c, alpha)
        best = max(best, dhat(moved, alpha, metric))
    bounds = lu_bounds(a, b)
    est = LuEstimate(
        value=best,
        lower=bounds.lower,
        upper=bounds.upper,
        witnesses_tried=len(witnesses),
    )
    if not est.consistent():
        raise CertificateError("witness estimate outside the sandwich bounds")
    return est


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def format_tilde(a: TildeElement) -> str:
    return f"tilde {{ {format_step(a.f)} ; {format_mpt(a.t)} }}"


def parse_tilde(text: str) -> TildeElement:
    text = text.strip()
    if not (text.startswith("tilde") and "{" in text and text.endswith("}")):
        raise ParseError(f"expected 'tilde {{ step ... ; mpt ... }}', got {text!r}")
    body = text[text.index("{") + 1 : -1]
    parts = body.split(";")
    if len(parts) != 2:
        raise ParseError("tilde body needs exactly one ';'")
    return TildeElement(parse_step(parts[0].strip()), parse_mpt(parts[1].strip()))


def format_nbhd(nbhd: PointwiseNbhd | ProductNbhd) -> str:
    """Neighborhood block: one test or condition per line with its radius."""
    lines = []
    if isinstance(nbhd, PointwiseNbhd):
        lines.append("nbhd pointwise {")
        lines.append(f"  center {format_tilde(nbhd.center)}")
        for alpha, radius in nbhd.tests:
            lines.append(f"  test {format_step(alpha)} ; radius {format_fraction(radius)}")
    else:
        lines.append("nbhd product {")
        lines.append(f"  center {format_tilde(TildeElement(nbhd.center_f, nbhd.center_t))}")
        for point, bound in nbhd.value_conditions:
            lines.append(f"  value {format_value(point)} ; radius {format_fraction(bound)}")
        for s, bound in nbhd.set_conditions:
            lines.append(f"  set {format_set(s)} ; radius {format_fraction(bound)}")
    lines.append("}")
    return "\n".join(lines)


def parse_nbhd(text: str) -> PointwiseNbhd | ProductNbhd:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines or not lines[0].startswith("nbhd") or lines[-1] != "}":
        raise ParseError("expected an 'nbhd <form> { ... }' block")
    head = lines[0].split()
    if len(head) < 2 or head[1] not in ("pointwise", "product"):
        raise ParseError(f"unknown neighborhood form in {lines[0]!r}")
    form = head[1]
    center: TildeElement | None = None
    tests, values, sets = [], [], []
    for ln in lines[1:-1]:
        if not ln:
            continue
        if ln.startswith("center "):
            center = parse_tilde(ln[len("center "):])
            continue
        if ";" not in ln:
            raise ParseError(f"condition line needs '; radius p/q': {ln!r}")
        body, _, radius_part = ln.rpartition(";")
        radius_part = radius_part.strip()
        if not radius_part.startswith("radius "):
            raise ParseError(f"missing radius in {ln!r}")
        radius = Fraction(radius_part[len("radius "):].strip())
        body = body.strip()
        if body.startswith("test "):
            tests.append((parse_step(body[len("test "):]), radius))
        elif body.startswith("value "):
            values.append((parse_value(body[len("value "):]), radius))
        elif body.startswith("set "):
            sets.append((parse_set(body[len("set "):]), radius))
        else:
            raise ParseError(f"unknown condition {body!r}")
    if center is None:
        raise ParseError("neighborhood block lacks a center")
    if form == "pointwise":
        return PointwiseNbhd(center=center, tests=tuple(tests))
    return ProductNbhd(
        center_f=center.f,
        center_t=center.t,
        value_conditions=tuple(values),
        set_conditions=tuple(sets),
    )

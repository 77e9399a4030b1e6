"""The semidirect product of random group elements with interval maps.

An element is a pair ``(f, T)``: a group-valued step function and a
measure-preserving interval permutation.  It acts on a point-valued step
function ``alpha`` by ``((f, T) alpha)(w) = f(w)(alpha(T**-1 w))``, which
makes the pair an isometry of the step functions under the integral metric.
The module provides the group law, the action, an explicit pointwise
metric, product-form neighborhoods, and three routes to the uniform
metric: the exact discrete formula, two-sided sandwich bounds, and a lower
estimate from explicit witness test functions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dyadic import DyadicMPT, DyadicSet, exact_sum, format_mpt, read_mpt
from .errors import BadBudget, CertificateError, MismatchedSpace, NotDiscrete, ParseError
from .groups import E
from .stepfn import (
    VALUE_KINDS,
    StepFn,
    ValueKind,
    _check_same_kind,
    dhat,
    format_step,
    format_value,
    l0_mul,
    read_step,
    value_kind,
    zip_values,
)
from .text import Reader, parse


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
    return _act(a.f, a.t.inverse(), alpha)


def _act(f: StepFn, t_inv: DyadicMPT, alpha: StepFn) -> StepFn:
    """``f_i(alpha(t_inv(i)))`` at the finest of the three levels, once the
    fiber is known to act on every point ``alpha`` takes."""
    v = f.values[0]
    kind = value_kind(v)
    # keyed by type too, so that True is not folded into 1
    for _, point in set(zip(map(type, alpha.values), alpha.values)):
        if not kind.acts_on(v, point):
            raise MismatchedSpace(
                f"{type(v).__name__} values do not act on the point {point!r}"
            )
    m = max(f.level, t_inv.level, alpha.level)
    fv, inv, al = f.refine(m).values, t_inv.refine(m).perm, alpha.refine(m).values
    return StepFn(m, tuple(fv[i](al[inv[i]]) for i in range(2 ** m)))


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
    """The :meth:`ReducedPair.pointwise_metric` of ``(a, b)``."""
    return reduce_pair(a, b).pointwise_metric(budget)


def _check_budget(budget, least: int) -> None:
    if type(budget) is not int or budget < least:
        raise BadBudget(f"budget must be an int >= {least}, got {budget!r}")


# ---------------------------------------------------------------------------
# Neighborhoods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductNbhd:
    """Product-form neighborhood: value conditions on the fiber factor and
    set-displacement conditions on the transformation factor."""

    center_f: StepFn
    center_t: DyadicMPT
    value_conditions: tuple[tuple[object, Fraction], ...]  # (point, bound)
    set_conditions: tuple[tuple[DyadicSet, Fraction], ...]  # (set, bound)

    def fiber_residuals(self, f: StepFn) -> list[Fraction]:
        v = self.center_f.values[0]
        metric = value_kind(v).point_metric(v)
        m, cv, fv = zip_values(self.center_f, f)
        return [
            exact_sum(metric(a(point), b(point)) for a, b in zip(cv, fv)) / 2 ** m
            for point, _ in self.value_conditions
        ]

    def aut_residuals(self, t: DyadicMPT) -> list[Fraction]:
        return [
            self.center_t.image(s).symmetric_difference(t.image(s)).measure
            for s, _ in self.set_conditions
        ]

    def contains(self, x: TildeElement) -> bool:
        fib = self.fiber_residuals(x.f)
        aut = self.aut_residuals(x.t)
        return all(
            r < bound for r, (_, bound) in zip(fib, self.value_conditions)
        ) and all(
            r < bound for r, (_, bound) in zip(aut, self.set_conditions)
        )


# ---------------------------------------------------------------------------
# The uniform metric
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedPair:
    """A pair ``(a, b)`` reduced by bi-invariance to ``c = b**-1 a``.

    The uniform and pointwise distances of ``(a, b)`` are those of ``c``
    and the identity.  ``f`` and ``t`` are ``c``'s fiber and map refined to
    one level and ``t_inv`` is that map's inverse, so the four metrics below
    share one reduction, one refinement and one inverse.
    """

    kind: ValueKind
    c: TildeElement
    f: StepFn
    t: DyadicMPT
    t_inv: DyadicMPT

    @property
    def level(self) -> int:
        return self.f.level

    def act(self, alpha: StepFn) -> StepFn:
        """The point-valued step function ``c alpha``."""
        return _act(self.f, self.t_inv, alpha)

    def pointwise_metric(self, budget: int = 64) -> Fraction:
        """Weighted sum of action displacements over the canonical test
        family on the first four marked points of the space.

        The group acts by isometries, so ``dhat(a alpha, b alpha) =
        dhat(c alpha, alpha)``: one action per test function.  Truncated at
        ``budget`` test functions; the discarded tail is bounded by
        ``2**-budget`` since every displacement is at most one.
        """
        _check_budget(budget, 0)
        v = self.f.values[0]
        metric = self.kind.point_metric(v)
        tests = itertools.islice(
            enumerate_test_functions(self.kind.marked_points(v)), budget
        )
        return exact_sum(
            dhat(self.act(alpha), alpha, metric) / 2 ** (m + 1)
            for m, alpha in enumerate(tests)
        )

    def lu_exact_discrete(self) -> Fraction:
        """Uniform distance over a discrete acted-on space, exactly:
        ``mu({h != e} union {R != id})`` with ``(h, R) = c``."""
        if not self.kind.discrete:
            raise NotDiscrete(
                "exact formula needs the discrete naturals; use lu_bounds"
            )
        return self.c.fiber_support().union(self.c.aut_support()).measure

    def lu_bounds(self) -> "LuBounds":
        """Two-sided bounds for the uniform distance via the moving set.

        With ``(h, R) = c``, ``B = {R != id}`` and ``A = {h != e, R
        fixes}``, the distance lies between ``(r/8) mu(B) + int_A d_u(h,
        e)`` and ``mu(B) + int_A d_u(h, e)`` where ``r`` is the distance of
        a maximal-distance anchor pair of the space.
        """
        kind, v0 = self.kind, self.f.values[0]
        r = kind.diameter(v0)
        ident = kind.identity(v0)
        n = 2 ** self.level
        dists = [kind.du(v, ident) for v in self.f.values]
        fixed = [i == j for i, j in enumerate(self.t.perm)]
        moving = Fraction(fixed.count(False), n)
        fixed_integral = exact_sum(itertools.compress(dists, fixed)) / n
        dhat_u_fiber = exact_sum(dists) / n
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

    def witnesses(self, budget: int = 16, seed: int = 0) -> list[StepFn]:
        """The test functions :meth:`lu_estimate` evaluates.

        Over a discrete space one witness reaches ``mu({h != e} union {R !=
        id})``, which bounds every displacement, so it is the only one and
        ``budget`` and ``seed`` are not used.  Over a metric space the
        deterministic family reaches the sandwich lower bound, and
        ``budget`` seeded random test functions join it.
        """
        if self.kind.discrete:
            return [self._discrete_witness()]
        witnesses = self._metric_witnesses()
        rng = random.Random(seed)
        points = self.f.values[0].space.points
        for _ in range(budget):
            witnesses.append(
                StepFn(self.level, tuple(rng.choice(points) for _ in range(2 ** self.level)))
            )
        return witnesses

    def lu_estimate(self, budget: int = 16, seed: int = 0) -> "LuEstimate":
        """Best action displacement over :meth:`witnesses`: an exact lower
        bound for the uniform distance, with the sandwich of the same ``c``."""
        _check_budget(budget, 1)
        metric = self.kind.point_metric(self.f.values[0])
        best = max(
            dhat(self.act(alpha), alpha, metric) for alpha in self.witnesses(budget, seed)
        )
        bounds = self.lu_bounds()
        est = LuEstimate(value=best, lower=bounds.lower, upper=bounds.upper)
        if not est.consistent():
            raise CertificateError("witness estimate outside the sandwich bounds")
        return est

    def _discrete_witness(self) -> StepFn:
        """Witness realizing the exact discrete formula.

        On fixed intervals with nontrivial fiber value it picks the least
        displaced point; along each cycle of the transformation it places
        value 0 at the cycle head and fresh values (positive and beyond
        every window of the fiber, so fixed by every represented
        permutation) at the later positions, so each link of the cycle
        disagrees.
        """
        f, t = self.f.values, self.t
        top = max(1, *(v.window for v in f))
        values = [0] * 2 ** self.level
        for i, v in enumerate(f):
            if t.perm[i] == i and not v.is_identity():
                values[i] = min(v.support())
        for cy in t.cycles():
            for pos, i in enumerate(cy):
                values[i] = top + pos - 1 if pos else 0
        return StepFn(self.level, tuple(values))

    def _metric_witnesses(self) -> list[StepFn]:
        """Deterministic witnesses achieving the sandwich lower bound.

        On fixed intervals the witness picks a farthest-moved point of the
        fiber value (the uniform distance is attained on a finite space).
        Along each cycle it walks greedily through the anchor pair {x1,
        x2}, choosing the next value to be far from the image of the
        previous one; the triangle inequality makes every inner link
        contribute at least r/2, so a cycle of length L contributes at
        least (L-1) r/2 >= L r/4.
        """
        f, t = self.f.values, self.t
        space = f[0].space
        x1, x2, r = space.diameter_pair()
        d = space.d
        level = self.level
        values = [x1] * 2 ** level
        for i in range(2 ** level):
            if t.perm[i] == i:
                v = f[i]
                values[i] = max(space.points, key=lambda p: (d(v(p), p), space.index(p)))
        for cy in t.cycles():
            values[cy[0]] = x1
            for prev, cur in zip(cy, cy[1:]):
                image = f[cur](values[prev])
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


def reduce_pair(a: TildeElement, b: TildeElement) -> ReducedPair:
    """Reduce ``(a, b)`` once.  The fiber kinds of both are checked before
    anything is inverted, so a mismatch is a :class:`MismatchedSpace`."""
    kind = value_kind(a.f.values[0])
    _check_same_kind(a.f, b.f)
    c = b.inverse() * a
    level = max(c.f.level, c.t.level)
    t = c.t.refine(level)
    return ReducedPair(kind, c, c.f.refine(level), t, t.inverse())


@dataclass(frozen=True)
class LuBounds:
    """Sandwich for the uniform distance, all entries exact."""

    lower: Fraction
    upper: Fraction
    alt_lower: Fraction          # (r/8) * max(mu(B), dhat_u(h, e))
    moving_measure: Fraction     # mu(B)
    fixed_fiber_integral: Fraction  # integral of d_u(h, e) over A
    anchor_distance: Fraction    # r


@dataclass(frozen=True)
class LuEstimate:
    """Witness-family lower estimate with its companion upper bound."""

    value: Fraction
    lower: Fraction
    upper: Fraction

    def consistent(self) -> bool:
        return self.lower <= self.value <= self.upper


def lu_exact_discrete(a: TildeElement, b: TildeElement) -> Fraction:
    """The :meth:`ReducedPair.lu_exact_discrete` of ``(a, b)``."""
    return reduce_pair(a, b).lu_exact_discrete()


def lu_bounds(a: TildeElement, b: TildeElement) -> LuBounds:
    """The :meth:`ReducedPair.lu_bounds` of ``(a, b)``."""
    return reduce_pair(a, b).lu_bounds()


def lu_estimate(
    a: TildeElement, b: TildeElement, budget: int = 16, seed: int = 0
) -> LuEstimate:
    """The :meth:`ReducedPair.lu_estimate` of ``(a, b)``."""
    return reduce_pair(a, b).lu_estimate(budget, seed)


# ---------------------------------------------------------------------------
# Text forms
# ---------------------------------------------------------------------------

def format_tilde(a: TildeElement) -> str:
    return f"tilde {{ {format_step(a.f)} ; {format_mpt(a.t)} }}"


def read_tilde(r: Reader) -> TildeElement:
    """``tilde { <step> ; <mpt> }``: the fiber function, then the map.
    The fiber's values must all be group elements of one value kind."""
    r.expect("tilde")
    r.expect("{")
    f = read_step(r)
    kind = type(f.values[0])
    for v in f.values:
        if type(v) is not kind or kind not in VALUE_KINDS:
            raise ParseError(
                f"expected fiber values of one group kind, got {format_value(v)!r}"
            )
    r.expect(";")
    t = read_mpt(r)
    r.expect("}")
    return TildeElement(f, t)


def parse_tilde(text: str) -> TildeElement:
    return parse(text, read_tilde)

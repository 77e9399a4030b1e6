"""Finite rational metric spaces and their isometry groups.

These are the acted-on spaces for the general (non-discrete) randomization
experiments.  Distances are exact rationals bounded by one, so every
integral and supremum below stays exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping

from . import perm
from .dyadic import ONE, ZERO
from .errors import DegenerateSpace, MismatchedSpace


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Finitely many named points with exact pairwise distances <= 1."""

    points: tuple[Hashable, ...]
    distances: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        pts = tuple(self.points)
        d = tuple(tuple(Fraction(x) for x in row) for row in self.distances)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "distances", d)
        n = len(pts)
        if len(set(pts)) != n:
            raise ValueError("points must be distinct")
        if len(d) != n or any(len(row) != n for row in d):
            raise ValueError("distance matrix shape mismatch")
        for i in range(n):
            if d[i][i] != 0:
                raise ValueError("nonzero self-distance")
            for j in range(n):
                if d[i][j] != d[j][i]:
                    raise ValueError("asymmetric distances")
                if i != j and d[i][j] <= 0:
                    raise ValueError("distinct points at distance zero")
                if d[i][j] > 1:
                    raise ValueError("distances must be bounded by one")
                for k in range(n):
                    if d[i][k] > d[i][j] + d[j][k]:
                        raise ValueError("triangle inequality fails")
        # not a field, so equality, hashing and repr read only the above
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(pts)})

    def index(self, p: Hashable) -> int:
        try:
            return self._index[p]
        except (KeyError, TypeError):
            raise MismatchedSpace(f"{p!r} is not a point of the space") from None

    def d(self, p: Hashable, q: Hashable) -> Fraction:
        try:
            return self.distances[self._index[p]][self._index[q]]
        except (KeyError, TypeError):
            raise MismatchedSpace(f"{p!r} or {q!r} is not a point of the space") from None

    def diameter_pair(self) -> tuple[Hashable, Hashable, Fraction]:
        """A maximal-distance pair (first in point order) and its distance."""
        if len(self.points) < 2:
            raise DegenerateSpace("space has fewer than two points")
        best = None
        for i, j in itertools.combinations(range(len(self.points)), 2):
            if best is None or self.distances[i][j] > best[2]:
                best = (self.points[i], self.points[j], self.distances[i][j])
        if best[2] <= 0:
            raise DegenerateSpace("no pair at positive distance")
        return best


def metric_space(points, dist: Mapping | None = None) -> FiniteMetricSpace:
    """Build a space from a ``{(p, q): distance}`` mapping (default 1)."""
    pts = tuple(points)
    n = len(pts)
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            val = Fraction(1)
            if dist is not None:
                if (pts[i], pts[j]) in dist:
                    val = Fraction(dist[(pts[i], pts[j])])
                elif (pts[j], pts[i]) in dist:
                    val = Fraction(dist[(pts[j], pts[i])])
            d[i][j] = d[j][i] = val
    return FiniteMetricSpace(pts, tuple(tuple(row) for row in d))


def discrete_space(k: int) -> FiniteMetricSpace:
    """k points, all pairwise distances one."""
    return metric_space(range(k))


@dataclass(frozen=True)
class SpaceIsometry:
    """Distance-preserving permutation of a finite metric space."""

    space: FiniteMetricSpace
    mapping: tuple[int, ...]  # image indices per point index

    def __post_init__(self):
        m = tuple(self.mapping)
        object.__setattr__(self, "mapping", m)
        n = len(self.space.points)
        if sorted(m) != list(range(n)):
            raise ValueError("mapping is not a bijection")
        d = self.space.distances
        for i in range(n):
            for j in range(n):
                if d[m[i]][m[j]] != d[i][j]:
                    raise ValueError("mapping does not preserve distances")

    @classmethod
    def _of(cls, space: FiniteMetricSpace, mapping: tuple[int, ...]) -> "SpaceIsometry":
        """An isometry built by a group operation on valid ones; stored unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "space", space)
        object.__setattr__(out, "mapping", mapping)
        return out

    def __call__(self, p: Hashable) -> Hashable:
        return self.space.points[self.mapping[self.space.index(p)]]

    def __mul__(self, other: "SpaceIsometry") -> "SpaceIsometry":
        if self.space != other.space:
            raise MismatchedSpace("isometries of different spaces")
        return SpaceIsometry._of(self.space, perm.compose(self.mapping, other.mapping))

    def inverse(self) -> "SpaceIsometry":
        return SpaceIsometry._of(self.space, perm.invert(self.mapping))

    def conj(self, by: "SpaceIsometry") -> "SpaceIsometry":
        return by.inverse() * self * by

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.mapping))


def space_identity(space: FiniteMetricSpace) -> SpaceIsometry:
    return SpaceIsometry(space, tuple(range(len(space.points))))


def isometry_group(space: FiniteMetricSpace) -> list[SpaceIsometry]:
    """All isometries, enumerated in lexicographic mapping order."""
    n = len(space.points)
    d = space.distances
    out = []
    for m in itertools.permutations(range(n)):
        if all(d[m[i]][m[j]] == d[i][j] for i in range(n) for j in range(i + 1, n)):
            out.append(SpaceIsometry(space, m))
    return out


def isometry_du(a: SpaceIsometry, b: SpaceIsometry) -> Fraction:
    """Uniform distance: sup over points of the image distance (exact)."""
    if a.space != b.space:
        raise MismatchedSpace("isometries of different spaces")
    d = a.space.distances
    return max(d[i][j] for i, j in zip(a.mapping, b.mapping))


def nat_discrete(a: int, b: int) -> Fraction:
    """Discrete metric on the naturals."""
    return ZERO if a == b else ONE

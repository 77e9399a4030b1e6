"""Base isometry groups: finite-window permutations of the naturals and
piecewise-linear order automorphisms of the rationals.

A :class:`WindowPerm` is a permutation of the naturals supported inside a
finite window; it carries two exact metrics, the weighted pointwise metric
``d_p`` and the discrete uniform metric ``d_u``.  A :class:`PLOrderAut` is
an increasing bijection of the rationals that is affine between finitely
many rational breakpoints, so its fixed points, orbitals and signs are all
exactly computable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Mapping, Sequence

from . import perm
from .dyadic import DyadicMPT, _checked_runs
from .errors import CertificateError, InsufficientCycles, NotAnIndex, NotInjective, ParseError
from .text import Reader, parse

# ---------------------------------------------------------------------------
# Window permutations
# ---------------------------------------------------------------------------

# Largest window read from input: a config's window key is at most
# MAX_WINDOW, and every point written in cycle notation lies below it.
# That is over 8x the largest window any acceptance criterion or benchmark
# workload uses (480).
MAX_WINDOW = 4096


def _strip(m: tuple[int, ...]) -> tuple[int, ...]:
    """``m`` without its trailing fixed points."""
    n = len(m)
    while n and m[n - 1] == n - 1:
        n -= 1
    return m[:n]


class WindowPerm:
    """Permutation of the naturals equal to the identity outside a window.

    Stored in normalized form (trailing fixed points stripped), so equality
    and hashing agree with equality of the induced maps on all of N.
    """

    __slots__ = ("_map",)

    def __init__(self, images: Iterable[int] = ()):
        m = tuple(images)
        if not set(map(type, m)) <= {int}:
            raise NotAnIndex("window images must be ints")
        if sorted(m) != list(range(len(m))):
            raise ValueError("images do not form a bijection of the window")
        self._map = _strip(m)

    @classmethod
    def _of(cls, images: tuple[int, ...]) -> "WindowPerm":
        """A permutation built by a group operation on valid ones, stored
        unchecked but for the fixed points a product or power leaves at its end."""
        out = object.__new__(cls)
        out._map = _strip(images)
        return out

    # -- basics -------------------------------------------------------------

    @property
    def window(self) -> int:
        return len(self._map)

    @property
    def images(self) -> tuple[int, ...]:
        return self._map

    def __call__(self, n: int) -> int:
        return self._map[n] if n < len(self._map) else n

    def support(self) -> frozenset[int]:
        return frozenset(n for n, i in enumerate(self._map) if i != n)

    def is_identity(self) -> bool:
        return not self._map

    def __eq__(self, other) -> bool:
        return isinstance(other, WindowPerm) and self._map == other._map

    def __hash__(self) -> int:
        return hash(("WindowPerm", self._map))

    def __repr__(self) -> str:
        return f"WindowPerm({format_cycles(self)!r})"

    # -- group structure ------------------------------------------------------

    def __mul__(self, other: "WindowPerm") -> "WindowPerm":
        """Composition of maps: ``(a * b)(n) = a(b(n))``."""
        return WindowPerm._of(perm.compose(self._map, other._map))

    def inverse(self) -> "WindowPerm":
        return WindowPerm._of(perm.invert(self._map))

    def __pow__(self, n: int) -> "WindowPerm":
        return WindowPerm._of(perm.power(self._map, n))

    def conj(self, by: "WindowPerm") -> "WindowPerm":
        """``by**-1 * self * by``."""
        return by.inverse() * self * by

    # -- cycle structure -------------------------------------------------------

    def cycles(self) -> list[list[int]]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        return perm.cycles(self._map)

    def cycle_census(self, window: int | None = None) -> Counter:
        """Cycle-length multiset over ``range(window)`` (1-cycles included)."""
        w = max(self.window, window or 0)
        census: Counter = Counter()
        moved = 0
        for cyc in self.cycles():
            census[len(cyc)] += 1
            moved += len(cyc)
        census[1] += w - moved
        return census


E = WindowPerm(())


def from_cycles(cycles: Iterable[Sequence[int]]) -> WindowPerm:
    cycles = _checked_runs(cycles)
    w = max(map(max, cycles), default=-1) + 1
    return WindowPerm(perm.close_cycles(range(w), cycles))


def format_cycles(p: WindowPerm) -> str:
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)


def read_cycles(r: Reader) -> WindowPerm:
    """Disjoint-cycle notation such as ``(0 1)(2 3 4)``; ``()`` is the identity."""
    r.expect("(")
    cycles = [r.ints_until(")")]
    if not cycles[0]:
        return E
    while r.accept("("):
        cycles.append(r.ints_until(")"))
    for pts in cycles:
        if pts and max(pts) >= MAX_WINDOW:
            raise ParseError(f"cycle point {max(pts)} outside 0..{MAX_WINDOW - 1}")
    return from_cycles(cycles)


def parse_cycles(text: str) -> WindowPerm:
    return parse(text, read_cycles)


# -- metrics ------------------------------------------------------------------

def perm_dp(a: WindowPerm, b: WindowPerm) -> Fraction:
    """Pointwise metric: sum of ``2**-(n+1)`` over points where maps differ."""
    w = max(a.window, b.window)
    num = 0
    for n in range(w):
        if a(n) != b(n):
            num += 1 << (w - 1 - n)
    return Fraction(num, 1 << w)


def perm_du(a: WindowPerm, b: WindowPerm) -> Fraction:
    """Uniform metric on the discrete naturals: 1 when distinct, else 0."""
    return Fraction(0) if a == b else Fraction(1)


# ---------------------------------------------------------------------------
# Generic surrogates and cycle budgets
# ---------------------------------------------------------------------------

def cycle_pack(lengths: Mapping[int, int] | Iterable[tuple[int, int]]) -> WindowPerm:
    """Permutation packing ``count`` disjoint cycles of each ``length``.

    Cycles are laid out consecutively in increasing length order starting
    at 0, so the construction is canonical and deterministic.
    """
    items = sorted(dict(lengths).items())
    cycles = []
    offset = 0
    for length, count in items:
        if length < 1 or count < 0:
            raise ValueError("lengths and counts must be positive")
        for _ in range(count):
            cycles.append(list(range(offset, offset + length)))
            offset += length
    return from_cycles([c for c in cycles if len(c) > 1])


@dataclass(frozen=True)
class GenericSurrogate:
    """Finite stand-in for a permutation with many cycles of every length."""

    max_length: int
    copies: int
    realized: WindowPerm

    def window(self) -> int:
        return self.copies * self.max_length * (self.max_length + 1) // 2


def generic_surrogate(max_length: int, copies: int) -> GenericSurrogate:
    """Pack ``copies`` cycles of every length 1 .. ``max_length``."""
    if max_length < 1 or copies < 1:
        raise ValueError("max_length and copies must be >= 1")
    realized = cycle_pack({k: copies for k in range(1, max_length + 1)})
    surrogate = GenericSurrogate(max_length, copies, realized)
    census = realized.cycle_census(window=surrogate.window())
    if any(census[k] < copies for k in range(1, max_length + 1)):
        raise CertificateError("surrogate lacks cycles of some length")
    return surrogate


def power_cycle_type(p: WindowPerm, n: int, window: int | None = None) -> Counter:
    """Cycle census of ``p**n`` by the gcd rule, without forming the power.

    Each k-cycle of ``p`` contributes ``gcd(k, n)`` cycles of length
    ``k // gcd(k, n)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    w = max(p.window, window or 0)
    census: Counter = Counter()
    moved = 0
    for cyc in p.cycles():
        k = len(cyc)
        g = gcd(k, n)
        census[k // g] += g
        moved += k
    census[1] += w - moved
    return census


# ---------------------------------------------------------------------------
# Window matching
# ---------------------------------------------------------------------------

def _components(target: Mapping[int, int]):
    """Split a partial injection into cycle and chain components.

    Returns ``(cycles, chains)`` where each component lists its points in
    arrow order; chains include the final unconstrained point.
    """
    values = list(target.values())
    if len(values) != len(set(values)):
        raise NotInjective("target maps two points to the same image")
    succ = dict(target)
    has_pred = set(values)
    cycles, chains = [], []
    seen = set()
    for start in sorted(succ):
        if start in seen or start in has_pred:
            continue
        # chain: walk forward from a source with no predecessor
        chain = [start]
        seen.add(start)
        j = succ[start]
        while j in succ and j not in seen:
            chain.append(j)
            seen.add(j)
            j = succ[j]
        chain.append(j)
        seen.add(j)
        chains.append(chain)
    for start in sorted(succ):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        j = succ[start]
        while j != start:
            cyc.append(j)
            seen.add(j)
            j = succ[j]
        cycles.append(cyc)
    return cycles, chains


@lru_cache(maxsize=8)
def _prepared_power(sigma: WindowPerm, n: int):
    """``(sigma**n, its nontrivial cycles, its fixed points inside its window)``.

    The cycles are sorted by least point, as :meth:`WindowPerm.cycles` gives
    them; cycles and fixed points are tuples, so no caller can change the memo.
    """
    power = sigma ** n
    pool = tuple(map(tuple, power.cycles()))
    fixed = tuple(p for p, q in enumerate(power.images) if p == q)
    return power, pool, fixed


def match_partial(
    sigma: WindowPerm,
    n: int,
    target: Mapping[int, int],
) -> WindowPerm:
    """Find ``rho`` with ``rho**-1 * sigma**n * rho`` realizing ``target``.

    ``target`` is a finite partial injection on the naturals.  Its graph is
    decomposed into cycles and chains; a cycle of length c is carried onto
    an unused cycle of ``sigma**n`` of length exactly c, a chain of s points
    onto an unused cycle of length at least s+1 (so the chain end keeps a
    fresh image).  The lowest-index unused cycle is always preferred, and
    unconstrained points are completed in increasing order, so the result
    is canonical.  Identity constraints may also land on fresh fixed
    points, allocated upward from the end of the window of ``sigma**n``.

    The power, its cycle pool and its in-window fixed points are prepared
    once per ``(sigma, n)`` and kept in a small memo, since a synthesis task
    matches every tower column into the same power.
    """
    power, pool, in_window_fixed = _prepared_power(sigma, n)
    cycles, chains = _components(target)
    used = [False] * len(pool)
    fixed_iter = iter(in_window_fixed)
    fresh = power.window
    assignments: dict[int, int] = {}

    def take_fixed() -> int:
        nonlocal fresh
        for p in fixed_iter:
            return p
        p = fresh
        fresh += 1
        return p

    shortfall: Counter = Counter()
    for comp in cycles:
        if len(comp) == 1:
            # fixed constraint: park the point on any fixed point of the power
            assignments[comp[0]] = take_fixed()
            continue
        for idx, cyc in enumerate(pool):
            if not used[idx] and len(cyc) == len(comp):
                used[idx] = True
                for node, pos in zip(comp, cyc):
                    assignments[node] = pos
                break
        else:
            shortfall[len(comp)] += 1
    for comp in chains:
        need = len(comp) + 1
        for idx, cyc in enumerate(pool):
            if not used[idx] and len(cyc) >= need:
                used[idx] = True
                for node, pos in zip(comp, cyc):
                    assignments[node] = pos
                break
        else:
            shortfall[need] += 1
    if shortfall:
        raise InsufficientCycles(
            "not enough spare cycles in the matched power; "
            f"needed extra {dict(shortfall)}",
            needed=shortfall,
        )
    # complete to a permutation: unmatched sources to unmatched images,
    # both in increasing order
    width = max(
        [fresh]
        + [v + 1 for v in assignments.values()]
        + [k + 1 for k in assignments]
    )
    rho = WindowPerm(perm.complete(assignments, width))
    # rho is a bijection, so (rho**-1 * power * rho)(k) == v exactly when
    # power(rho(k)) == rho(v)
    if any(power(rho(k)) != rho(v) for k, v in target.items()):
        raise CertificateError("window match postcondition failed")
    return rho


# ---------------------------------------------------------------------------
# Piecewise-linear order automorphisms of the rationals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PLOrderAut:
    """Increasing piecewise-affine bijection of the rationals.

    ``breakpoints`` is a strictly increasing tuple of rationals and
    ``pieces`` holds one (slope, intercept) pair per region, regions being
    ``(-inf, b_0], [b_0, b_1], ..., [b_last, inf)``.  Slopes are positive
    and pieces agree at breakpoints, so the map is an order isomorphism.
    """

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        bps = tuple(Fraction(b) for b in self.breakpoints)
        pcs = tuple((Fraction(a), Fraction(c)) for a, c in self.pieces)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pcs)
        if len(pcs) != len(bps) + 1:
            raise ValueError("need exactly one piece more than breakpoints")
        if any(b1 >= b2 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(a <= 0 for a, _ in pcs):
            raise ValueError("slopes must be positive")
        for i, b in enumerate(bps):
            a1, c1 = pcs[i]
            a2, c2 = pcs[i + 1]
            if a1 * b + c1 != a2 * b + c2:
                raise ValueError(f"discontinuity at breakpoint {b}")

    # -- evaluation -----------------------------------------------------------

    def _piece_at(self, x: Fraction) -> tuple[Fraction, Fraction]:
        for b, piece in zip(self.breakpoints, self.pieces):
            if x <= b:
                return piece
        return self.pieces[-1]

    def __call__(self, x: Fraction) -> Fraction:
        a, c = self._piece_at(Fraction(x))
        return a * x + c

    # -- canonical form -------------------------------------------------------

    def normalized(self) -> "PLOrderAut":
        bps, pcs = list(self.breakpoints), list(self.pieces)
        i = 0
        while i < len(bps):
            if pcs[i] == pcs[i + 1]:
                del bps[i], pcs[i + 1]
            else:
                i += 1
        return PLOrderAut(tuple(bps), tuple(pcs))

    def same_map(self, other: "PLOrderAut") -> bool:
        return self.normalized() == other.normalized()

    # -- group structure --------------------------------------------------------

    @staticmethod
    def identity() -> "PLOrderAut":
        return PLOrderAut((), ((Fraction(1), Fraction(0)),))

    @staticmethod
    def affine(slope, intercept) -> "PLOrderAut":
        return PLOrderAut((), ((Fraction(slope), Fraction(intercept)),))

    def inverse(self) -> "PLOrderAut":
        bps = tuple(self(b) for b in self.breakpoints)
        pcs = tuple((1 / a, -c / a) for a, c in self.pieces)
        return PLOrderAut(bps, pcs)

    def __mul__(self, other: "PLOrderAut") -> "PLOrderAut":
        """Composition ``(self * other)(x) = self(other(x))``."""
        inv = other.inverse()
        bps = sorted(set(other.breakpoints) | {inv(b) for b in self.breakpoints})
        pieces = []
        probes = []
        if bps:
            probes.append(bps[0] - 1)
            probes.extend(
                (b1 + b2) / 2 for b1, b2 in zip(bps, bps[1:])
            )
            probes.append(bps[-1] + 1)
        else:
            probes.append(Fraction(0))
        for x in probes:
            a2, c2 = other._piece_at(x)
            a1, c1 = self._piece_at(other(x))
            pieces.append((a1 * a2, a1 * c2 + c1))
        return PLOrderAut(tuple(bps), tuple(pieces)).normalized()

    def __pow__(self, n: int) -> "PLOrderAut":
        if n < 0:
            return self.inverse() ** (-n)
        out = PLOrderAut.identity()
        for _ in range(n):
            out = self * out
        return out

    def conj(self, by: "PLOrderAut") -> "PLOrderAut":
        return by.inverse() * self * by

    # -- fixed points --------------------------------------------------------

    def _regions(self):
        """Piece domains as (lo, hi) with None for the unbounded ends."""
        bounds = [None, *self.breakpoints, None]
        for i, piece in enumerate(self.pieces):
            yield bounds[i], bounds[i + 1], piece

    def fixed_structure(self):
        """Isolated fixed points and maximal fixed intervals, exactly.

        Fixed intervals are reported as (lo, hi) with None marking an
        unbounded end; isolated points are plain rationals.
        """
        points: set[Fraction] = set()
        intervals: list[tuple[Fraction | None, Fraction | None]] = []
        for lo, hi, (a, c) in self._regions():
            if a == 1:
                if c == 0:
                    intervals.append((lo, hi))
                continue
            x = c / (1 - a)
            if (lo is None or x >= lo) and (hi is None or x <= hi):
                points.add(x)
        # merge adjacent fixed intervals and absorb covered fixed points
        intervals.sort(key=lambda iv: (iv[0] is not None, iv[0] if iv[0] is not None else 0))
        merged: list[list[Fraction | None]] = []
        for lo, hi in intervals:
            if merged and merged[-1][1] is not None and lo is not None \
                    and merged[-1][1] == lo:
                merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        merged_t = tuple((lo, hi) for lo, hi in merged)
        points = {
            p
            for p in points
            if not any(
                (lo is None or lo <= p) and (hi is None or p <= hi)
                for lo, hi in merged_t
            )
        }
        return tuple(sorted(points)), merged_t


@dataclass(frozen=True)
class OrbitalReport:
    """Fixed set plus the signed maximal intervals of its complement."""

    fixed_points: tuple[Fraction, ...]
    fixed_intervals: tuple[tuple[Fraction | None, Fraction | None], ...]
    orbitals: tuple[tuple[Fraction | None, Fraction | None, int], ...]


def orbitals_and_signs(g: PLOrderAut) -> OrbitalReport:
    """Orbitals of ``g`` with their signs.

    For an increasing bijection the orbital of a non-fixed point is the
    component of the complement of the fixed set containing it, and the sign
    (+1 when points move up, -1 when down) is constant per component.
    """
    points, intervals = g.fixed_structure()
    # assemble the closed fixed set as ordered nodes on the line; an
    # interval unbounded to the left sorts first, and fixed pieces are
    # pairwise disjoint, so comparing left endpoints is enough
    nodes: list[tuple[Fraction | None, Fraction | None]] = [
        (p, p) for p in points
    ]
    nodes.extend(intervals)
    nodes.sort(
        key=lambda iv: (iv[0] is not None, iv[0] if iv[0] is not None else 0)
    )
    # the line is split by the fixed pieces; walk the gaps
    orbitals: list[tuple[Fraction | None, Fraction | None, int]] = []

    def sign_on(lo: Fraction | None, hi: Fraction | None) -> int:
        if lo is None and hi is None:
            x = Fraction(0)
        elif lo is None:
            x = hi - 1
        elif hi is None:
            x = lo + 1
        else:
            x = (lo + hi) / 2
        gx = g(x)
        return 1 if gx > x else (-1 if gx < x else 0)

    if not nodes:
        if not g.same_map(PLOrderAut.identity()):
            orbitals.append((None, None, sign_on(None, None)))
        return OrbitalReport(points, intervals, tuple(orbitals))

    first_lo = nodes[0][0]
    if first_lo is not None:
        orbitals.append((None, first_lo, sign_on(None, first_lo)))
    for (lo1, hi1), (lo2, hi2) in zip(nodes, nodes[1:]):
        orbitals.append((hi1, lo2, sign_on(hi1, lo2)))
    last_hi = nodes[-1][1]
    if last_hi is not None:
        orbitals.append((last_hi, None, sign_on(last_hi, None)))
    return OrbitalReport(points, intervals, tuple(orbitals))


# ---------------------------------------------------------------------------
# Power invariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerInvarianceReport:
    """What taking the n-th power does to an element's invariants."""

    kind: str
    power: int
    details: dict

    def ok(self) -> bool:
        return bool(self.details.get("invariant", True))


def power_invariance_check(g, n: int) -> PowerInvarianceReport:
    """Compare conjugacy-relevant invariants of ``g`` and ``g**n``.

    Dispatches on the element kind: interval transformations report minimal
    cycle lengths (with the gcd prediction), order automorphisms compare
    orbital/sign reports, window permutations report the power census.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(g, DyadicMPT):
        base_min = g.min_cycle_length()
        power_min = (g ** n).min_cycle_length()
        predicted = min(
            k // gcd(k, n) for k in g.cycle_census()
        )
        return PowerInvarianceReport(
            "mpt",
            n,
            {
                "min_cycle": base_min,
                "min_cycle_power": power_min,
                "predicted_min_cycle": predicted,
                "invariant": power_min == predicted,
            },
        )
    if isinstance(g, PLOrderAut):
        base = orbitals_and_signs(g)
        power = orbitals_and_signs(g ** n)
        return PowerInvarianceReport(
            "pl_order_aut",
            n,
            {
                "base_report": base,
                "power_report": power,
                "invariant": base == power,
            },
        )
    if isinstance(g, WindowPerm):
        census = power_cycle_type(g, n)
        direct = (g ** n).cycle_census(window=g.window)
        return PowerInvarianceReport(
            "window_perm",
            n,
            {
                "census": census,
                "direct": direct,
                "invariant": census == direct,
            },
        )
    raise TypeError(f"unsupported element kind: {type(g).__name__}")

"""Exact dyadic model of ([0,1), Lebesgue) and its interval-permutation maps.

A partition level ``n`` splits [0, 1) into ``2**n`` half-open intervals
``[i * 2**-n, (i+1) * 2**-n)``, indexed ``0 .. 2**n - 1``.  Refining to a
level ``m >= n`` splits interval ``i`` into ``2**(m-n) * i .. 2**(m-n) *
(i+1) - 1``.  A measure-preserving transformation is stored as a bijection
of interval indices; each interval is mapped onto its image by translation,
so the induced point map is measure preserving and every point in interval
``i`` has exact period equal to the cycle length of ``i``.

All measures and distances are :class:`fractions.Fraction` values with
power-of-two denominators; there is no floating point in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from . import perm
from .errors import (
    CertificateError,
    LeftoverIndivisible,
    NotAnIndex,
    NotAperiodic,
    ParseError,
    TowerTooCoarse,
)
from .text import Reader, parse

ZERO = Fraction(0)
ONE = Fraction(1)

# Finest partition level accepted from text and config input: level 16
# already has 65536 intervals, and every algorithm here enumerates them.
MAX_LEVEL = 16


def exact_sum(terms: Iterable) -> Fraction:
    """Exact sum of ints and fractions: the numerators are added as ints
    for each denominator, and the total is normalised once."""
    by_denominator: dict[int, int] = {}
    for x in terms:
        q = x.denominator
        by_denominator[q] = by_denominator.get(q, 0) + x.numerator
    common = lcm(*by_denominator)
    return Fraction(sum(n * (common // q) for q, n in by_denominator.items()), common)


def point_interval(level: int, omega: Fraction) -> int:
    """Index of the level-``level`` interval containing ``omega``."""
    if not 0 <= omega < 1:
        raise ValueError(f"point {omega} outside [0,1)")
    return int(omega * 2 ** level)


def _checked_level(level) -> int:
    """``level``, after checking that it is a nonnegative plain int."""
    if type(level) is not int or level < 0:
        raise NotAnIndex(f"level {level!r} is not a nonnegative int")
    return level


def _checked_runs(runs: Iterable[Sequence[int]], n: int | None = None) -> list:
    """``runs`` as a list, after checking that they are nonempty and their
    points distinct nonnegative plain ints, below ``n`` when it is given."""
    runs = list(runs)  # read a generator once, not once per pass
    pts = [p for run in runs for p in run]
    if not set(map(type, pts)) <= {int} or (pts and min(pts) < 0):
        raise NotAnIndex("cycle points must be nonnegative ints")
    if n is not None and pts and max(pts) >= n:
        raise ValueError(f"cycle point out of range({n})")
    if len(pts) != len(set(pts)):
        raise ValueError("cycles are not disjoint")
    if not all(runs):
        raise ValueError("empty cycle")
    return runs


# ---------------------------------------------------------------------------
# Dyadic sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicSet:
    """A union of dyadic intervals at a fixed level."""

    level: int
    members: frozenset[int] = frozenset()

    def __post_init__(self):
        n = 2 ** _checked_level(self.level)
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        if not set(map(type, members)) <= {int}:
            raise NotAnIndex("interval indices must be ints")
        if any(not 0 <= i < n for i in members):
            raise ValueError("interval index out of range")

    @classmethod
    def _of(cls, level: int, members: frozenset[int]) -> "DyadicSet":
        """A set built by an operation on valid sets; stored unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "level", level)
        object.__setattr__(out, "members", members)
        return out

    @staticmethod
    def empty(level: int = 0) -> "DyadicSet":
        return DyadicSet(level, frozenset())

    @staticmethod
    def full(level: int = 0) -> "DyadicSet":
        return DyadicSet(level, frozenset(range(2 ** level)))

    @property
    def measure(self) -> Fraction:
        return Fraction(len(self.members), 2 ** self.level)

    def refine(self, level: int) -> "DyadicSet":
        if level == self.level:
            return self
        if level < self.level:
            raise ValueError("refinement level must not decrease")
        k = 2 ** (level - self.level)
        return DyadicSet._of(
            level, frozenset(k * i + j for i in self.members for j in range(k))
        )

    def union(self, other: "DyadicSet") -> "DyadicSet":
        m = max(self.level, other.level)
        return DyadicSet._of(m, self.refine(m).members | other.refine(m).members)

    def intersection(self, other: "DyadicSet") -> "DyadicSet":
        m = max(self.level, other.level)
        return DyadicSet._of(m, self.refine(m).members & other.refine(m).members)

    def symmetric_difference(self, other: "DyadicSet") -> "DyadicSet":
        m = max(self.level, other.level)
        return DyadicSet._of(m, self.refine(m).members ^ other.refine(m).members)

    def complement(self) -> "DyadicSet":
        return DyadicSet._of(
            self.level, frozenset(range(2 ** self.level)) - self.members
        )


# ---------------------------------------------------------------------------
# Measure-preserving transformations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicMPT:
    """Measure-preserving bijection of [0,1) given by an interval permutation."""

    level: int
    perm: tuple[int, ...]

    def __post_init__(self):
        n = 2 ** _checked_level(self.level)
        images = tuple(self.perm)
        object.__setattr__(self, "perm", images)
        if not set(map(type, images)) <= {int}:
            raise NotAnIndex("interval images must be ints")
        if len(images) != n or sorted(images) != list(range(n)):
            raise ValueError(
                f"perm is not a bijection of 0..{n - 1} at level {self.level}"
            )

    @classmethod
    def _of(cls, level: int, images: tuple[int, ...]) -> "DyadicMPT":
        """A map built by a group operation on valid maps; stored unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "level", level)
        object.__setattr__(out, "perm", images)
        return out

    # -- construction -----------------------------------------------------

    @staticmethod
    def identity(level: int = 0) -> "DyadicMPT":
        return DyadicMPT(level, tuple(range(2 ** level)))

    @staticmethod
    def shift(level: int, step: int = 1) -> "DyadicMPT":
        """Rotation by ``step`` intervals, a single full cycle when odd step."""
        n = 2 ** level
        return DyadicMPT(level, tuple((i + step) % n for i in range(n)))

    @staticmethod
    def from_cycles(level: int, cycles: Iterable[Sequence[int]]) -> "DyadicMPT":
        n = 2 ** _checked_level(level)
        return DyadicMPT(level, perm.close_cycles(range(n), _checked_runs(cycles, n)))

    # -- structure --------------------------------------------------------

    def refine(self, level: int) -> "DyadicMPT":
        """Same point map at a finer level; ``self`` at its own level."""
        if level == self.level:
            return self
        if level < self.level:
            raise ValueError("refinement level must not decrease")
        k = 2 ** (level - self.level)
        return DyadicMPT._of(
            level,
            tuple(self.perm[i] * k + j for i in range(2 ** self.level) for j in range(k)),
        )

    def same_map(self, other: "DyadicMPT") -> bool:
        m = max(self.level, other.level)
        return self.refine(m).perm == other.refine(m).perm

    # -- group operations ---------------------------------------------------

    def __mul__(self, other: "DyadicMPT") -> "DyadicMPT":
        """Composition of point maps: ``(self * other)(x) = self(other(x))``."""
        m = max(self.level, other.level)
        return DyadicMPT._of(m, perm.compose(self.refine(m).perm, other.refine(m).perm))

    def inverse(self) -> "DyadicMPT":
        return DyadicMPT._of(self.level, perm.invert(self.perm))

    def __pow__(self, n: int) -> "DyadicMPT":
        return DyadicMPT._of(self.level, perm.power(self.perm, n))

    def conj(self, by: "DyadicMPT") -> "DyadicMPT":
        """``by**-1 * self * by``."""
        return by.inverse() * self * by

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.perm))

    # -- point dynamics -----------------------------------------------------

    def apply_point(self, omega: Fraction) -> Fraction:
        i = point_interval(self.level, omega)
        return omega + Fraction(self.perm[i] - i, 2 ** self.level)

    def image(self, s: DyadicSet) -> DyadicSet:
        m = max(self.level, s.level)
        t = self.refine(m)
        return DyadicSet._of(m, frozenset(t.perm[i] for i in s.refine(m).members))

    def cycles(self, include_fixed: bool = False) -> list[list[int]]:
        """Cycle decomposition; each cycle starts at its least index."""
        return perm.cycles(self.perm, include_fixed)

    def cycle_census(self) -> dict[int, int]:
        """Multiset of cycle lengths (fixed intervals count as 1-cycles)."""
        census: dict[int, int] = {}
        for cyc in self.cycles(include_fixed=True):
            census[len(cyc)] = census.get(len(cyc), 0) + 1
        return census

    def min_cycle_length(self) -> int:
        return min(len(c) for c in self.cycles(include_fixed=True))


# ---------------------------------------------------------------------------
# Metrics on the transformation group
# ---------------------------------------------------------------------------

def delta_u(t: DyadicMPT, r: DyadicMPT) -> Fraction:
    """Uniform distance: measure of the set where the point maps differ."""
    m = max(t.level, r.level)
    a, b = t.refine(m).perm, r.refine(m).perm
    differ = sum(1 for i in range(len(a)) if a[i] != b[i])
    return Fraction(differ, 2 ** m)


def delta_w(t: DyadicMPT, r: DyadicMPT) -> Fraction:
    """Weak-topology distance: weighted set displacements.

    Sums ``2**-(k+1) * mu(t(B_k) ^ r(B_k))`` over the dyadic intervals
    ``B_k`` of levels 0 .. ``m``, coarse levels first, then in index order
    within a level.  Each box is a run of level-``m`` intervals, so the
    sum is one integer numerator over ``2**(boxes + m)``.  Dominated by
    :func:`delta_u` termwise, hence ``delta_w <= delta_u`` exactly.
    """
    m = max(t.level, r.level)
    a, b = t.refine(m).perm, r.refine(m).perm
    n = 2 ** m
    moved = [
        len(set(a[lo:lo + width]) ^ set(b[lo:lo + width]))
        for width in (n >> lev for lev in range(m + 1))
        for lo in range(0, n, width)
    ]
    boxes = len(moved)
    return Fraction(sum(d << (boxes - 1 - k) for k, d in enumerate(moved)), 2 ** (boxes + m))


def delta_u_prime(t: DyadicMPT, r: DyadicMPT) -> Fraction:
    """Supremum of ``mu(t(A) ^ r(A))`` over measurable ``A``, exactly.

    With ``tau = r**-1 * t``, choosing half of each tau-cycle (alternating)
    is optimal, which gives ``2 * sum(floor(k/2))`` displaced intervals over
    nontrivial tau-cycles.  Refinement splits each cycle into copies of the
    same length, so the level-n value already equals the measurable sup.
    """
    m = max(t.level, r.level)
    tau = r.refine(m).inverse() * t.refine(m)
    count = sum(2 * (len(c) // 2) for c in tau.cycles())
    return Fraction(count, 2 ** m)


# ---------------------------------------------------------------------------
# Towers and periodic approximation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TowerData:
    """A tower for a transformation, stored as its columns, and a leftover.

    Each column is ``(b, T b, ..., T**(height-1) b)`` for a base interval
    ``b``, and the columns are sorted by base.  The columns and the
    leftover partition the ``2**level`` intervals.
    """

    columns: tuple[tuple[int, ...], ...]
    height: int
    level: int
    leftover: DyadicSet

    @property
    def base(self) -> DyadicSet:
        return DyadicSet._of(self.level, frozenset(c[0] for c in self.columns))

    def covered(self) -> DyadicSet:
        return DyadicSet._of(self.level, frozenset(p for c in self.columns for p in c))

    def validate(self, t: DyadicMPT, bound: Fraction) -> None:
        """Enumeration checks that this is a tower for ``t`` with leftover
        measure at most ``bound``; raises on the first that fails."""
        image = t.refine(self.level).perm
        if any(len(c) != self.height for c in self.columns):
            raise CertificateError("tower has the wrong number of levels")
        # level k+1 of the tower is T applied to level k, column by column
        levels = list(zip(*self.columns))
        for below, above in zip(levels, levels[1:]):
            if [image[i] for i in below] != list(above):
                raise CertificateError("levels must be T^k(base)")
        # pairwise disjoint, and together with leftover partition [0,1)
        covered = {p for c in self.columns for p in c}
        if len(covered) != len(self.columns) * self.height:
            raise CertificateError("tower levels overlap")
        if covered & self.leftover.members:
            raise CertificateError("leftover meets the tower")
        if covered | self.leftover.members != set(range(2 ** self.level)):
            raise CertificateError("coverage gap")
        if self.leftover.measure > bound:
            raise CertificateError("leftover exceeds the requested bound")


def _blocks(points: Iterable[int], height: int) -> list[tuple[int, ...]]:
    """The points in index order, cut into full runs of ``height``; a
    shorter remainder is dropped."""
    rest = tuple(sorted(points))
    return [rest[k:k + height] for k in range(0, len(rest) - height + 1, height)]


def rokhlin_tower(t: DyadicMPT, height: int, bound: Fraction) -> TowerData:
    """Build a tower of the given height with leftover measure <= ``bound``.

    Each cycle is cut into columns of ``height`` consecutive intervals,
    stopping before wraparound, so a cycle of length L contributes ``L mod
    height`` leftover intervals.  Raises :class:`NotAperiodic` when some
    cycle is shorter than ``height`` and :class:`TowerTooCoarse` when the
    achievable leftover exceeds ``bound``.
    """
    if height < 1:
        raise ValueError("height must be positive")
    bound = Fraction(bound)
    cycles = t.cycles(include_fixed=True)
    short = [c for c in cycles if len(c) < height]
    if short:
        raise NotAperiodic(
            f"cycle of length {len(short[0])} < height {height} at interval {short[0][0]}"
        )
    columns: list[tuple[int, ...]] = []
    leftover: list[int] = []
    for cyc in cycles:
        full = (len(cyc) // height) * height
        columns.extend(tuple(cyc[start:start + height]) for start in range(0, full, height))
        leftover.extend(cyc[full:])
    leftover_measure = Fraction(len(leftover), 2 ** t.level)
    if leftover_measure > bound:
        raise TowerTooCoarse(
            f"achievable leftover {leftover_measure} exceeds bound {bound}"
        )
    tower = TowerData(
        columns=tuple(sorted(columns)),
        height=height,
        level=t.level,
        leftover=DyadicSet(t.level, frozenset(leftover)),
    )
    tower.validate(t, bound)
    return tower


@dataclass(frozen=True)
class PeriodicApproximation:
    """Exact period-``height`` approximation with its full-coverage tower."""

    s0: DyadicMPT
    height: int
    tower: TowerData          # tower for the original map
    exact_tower: TowerData    # tower for s0 with empty leftover
    distance: Fraction        # delta_u(original, s0)

    def validate(self, bound: Fraction) -> None:
        """Checks that every cycle of ``s0`` is one column of the exact
        tower and that ``distance <= bound + 1/height``; raises on the
        first that fails."""
        self.exact_tower.validate(self.s0, ZERO)
        # s0 climbs each column, so closing it makes the column one cycle
        image = self.s0.perm
        if any(image[c[-1]] != c[0] for c in self.exact_tower.columns):
            raise CertificateError("periodic map leaves a column open")
        if self.distance > bound + Fraction(1, self.height):
            raise CertificateError("periodic approximation too far")


def periodic_approximation(
    t: DyadicMPT, height: int, bound: Fraction
) -> PeriodicApproximation:
    """Approximate ``t`` by a map whose cycles all have length ``height``.

    The covering columns are those of the tower for ``t`` (leftover at
    most ``bound``) and the leftover cut into index-order blocks of
    ``height``; ``s0`` closes each of them into one cycle, so it follows
    ``t`` except on column tops, which go back to their bases, and on the
    leftover.  The returned approximation is validated against ``bound``,
    so ``delta_u(t, s0) <= bound + 1/height`` holds exactly.

    Only heights dividing the interval count admit exact period maps: the
    leftover count is congruent to ``2**level`` mod ``height``, so a height
    with an odd factor can never be regrouped exactly at any refinement.
    Raises :class:`LeftoverIndivisible` in that case.  Refinement keeps
    every cycle length, so a height above ``2**t.level`` raises
    :class:`NotAperiodic` before any tower is built.
    """
    if height < 1:
        raise ValueError("height must be positive")
    if height & (height - 1):
        raise LeftoverIndivisible(
            f"height {height} has an odd factor; dyadic resolution only "
            "hosts exact period maps for powers of two"
        )
    if height > 2 ** t.level:
        raise NotAperiodic(
            f"height {height} exceeds the {2 ** t.level} intervals of level "
            f"{t.level}, so every cycle is shorter"
        )
    tower = rokhlin_tower(t, height, bound)
    columns = tuple(sorted(tower.columns + tuple(_blocks(tower.leftover.members, height))))
    s0 = DyadicMPT(t.level, perm.close_cycles(range(2 ** t.level), columns))
    exact_tower = TowerData(
        columns=columns, height=height, level=t.level, leftover=DyadicSet.empty(t.level)
    )
    pa = PeriodicApproximation(
        s0=s0, height=height, tower=tower, exact_tower=exact_tower, distance=delta_u(t, s0)
    )
    pa.validate(Fraction(bound))
    return pa


# ---------------------------------------------------------------------------
# Approximate conjugacy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugacyMatch:
    """Conjugator ``r`` with its exactly reported distance."""

    r: DyadicMPT
    achieved: Fraction
    height: int


def _exact_conjugator(t: DyadicMPT, s: DyadicMPT) -> DyadicMPT | None:
    """``r`` with ``r**-1 * t * r == s`` for two maps of one level, checked
    on their perm tuples; None when the cycle types differ."""
    r = perm.conjugator(t.perm, s.perm)
    if r is None:
        return None
    if perm.compose(perm.invert(r), perm.compose(t.perm, r)) != s.perm:
        raise CertificateError("exact conjugator misses")
    return DyadicMPT(t.level, r)


def mpt_conjugate_match(t: DyadicMPT, s: DyadicMPT, eps: Fraction) -> ConjugacyMatch:
    """Find ``r`` with ``delta_u(r**-1 * t * r, s) < eps``.

    Equal cycle types are exactly conjugate (height 0 in the report);
    otherwise the exact period-``N`` approximations of both maps are
    matched cycle by cycle, trying the feasible power-of-two heights
    largest first until the bound is met.  The achieved distance is
    reported exactly.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    m = max(t.level, s.level)
    t, s = t.refine(m), s.refine(m)
    exact = _exact_conjugator(t, s)
    if exact is not None:
        return ConjugacyMatch(r=exact, achieved=ZERO, height=0)
    max_n = min(t.min_cycle_length(), s.min_cycle_length(), 2 ** m)
    heights = []
    n = 1
    while 2 * n <= max_n:
        n *= 2
    while n >= 2:
        heights.append(n)
        n //= 2
    if not heights:
        raise NotAperiodic(
            "maps with fixed intervals and differing cycle types cannot be "
            "matched; need all cycles of length >= 2"
        )
    best: ConjugacyMatch | None = None
    for n in heights:
        pa_t = periodic_approximation(t, n, ONE)
        pa_s = periodic_approximation(s, n, ONE)
        r = _exact_conjugator(pa_t.s0, pa_s.s0)
        if r is None:
            raise CertificateError("cycle types differ")
        achieved = delta_u(t.conj(r), s)
        if best is None or achieved < best.achieved:
            best = ConjugacyMatch(r=r, achieved=achieved, height=n)
        if achieved < eps:
            return best
    raise TowerTooCoarse(
        f"best achievable distance {best.achieved} not below {eps}"
    )


# ---------------------------------------------------------------------------
# Text forms
# ---------------------------------------------------------------------------

def read_level(r: Reader, keyword: str) -> int:
    """``<keyword> <level>``, with the level refused outside ``0..MAX_LEVEL``
    before anything of size ``2**level`` is built."""
    r.expect(keyword)
    level = r.integer()
    if not 0 <= level <= MAX_LEVEL:
        raise ParseError(f"level {level} outside 0..{MAX_LEVEL}")
    return level


def format_mpt(t: DyadicMPT) -> str:
    return "mpt {} {}".format(t.level, " ".join(str(i) for i in t.perm))


def read_mpt(r: Reader) -> DyadicMPT:
    """``mpt <level> <images>``: the image of each interval in index order."""
    level = read_level(r, "mpt")
    images = r.ints()
    if len(images) != 2 ** level:
        raise r.error(f"{2 ** level} images at level {level} (read {len(images)})")
    return DyadicMPT(level, tuple(images))


def parse_mpt(text: str) -> DyadicMPT:
    return parse(text, read_mpt)


def format_set(s: DyadicSet) -> str:
    return "set {} {}".format(s.level, " ".join(str(i) for i in sorted(s.members)))


def parse_set(text: str) -> DyadicSet:
    """``set <level> <indices>``: the member intervals in any order."""
    return parse(text, lambda r: DyadicSet(read_level(r, "set"), frozenset(r.ints())))

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

ZERO = Fraction(0)
ONE = Fraction(1)

# Finest partition level accepted from text and config input: level 16
# already has 65536 intervals, and every algorithm here enumerates them.
MAX_LEVEL = 16


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

    def same_set(self, other: "DyadicSet") -> bool:
        m = max(self.level, other.level)
        return self.refine(m).members == other.refine(m).members

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
        return DyadicMPT(level, perm.close_cycles(range(2 ** level), cycles))

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


def dyadic_interval_enumeration(level: int):
    """Canonical enumeration of dyadic intervals of level 0 .. ``level``."""
    for lev in range(level + 1):
        for idx in range(2 ** lev):
            yield DyadicSet(lev, frozenset([idx]))


def delta_w(t: DyadicMPT, r: DyadicMPT) -> Fraction:
    """Weak-topology distance: weighted set displacements.

    Sums ``2**-(m+1) * mu(t(B_m) ^ r(B_m))`` over the canonical enumeration
    of dyadic intervals up to the common level.  Dominated by
    :func:`delta_u` termwise, hence ``delta_w <= delta_u`` exactly.
    """
    m = max(t.level, r.level)
    tt, rr = t.refine(m), r.refine(m)
    total = ZERO
    for k, box in enumerate(dyadic_interval_enumeration(m)):
        diff = tt.image(box).symmetric_difference(rr.image(box)).measure
        total += Fraction(1, 2 ** (k + 1)) * diff
    return total


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


def delta_u_prime_bruteforce(t: DyadicMPT, r: DyadicMPT) -> Fraction:
    """Independent oracle for :func:`delta_u_prime` by subset enumeration."""
    m = max(t.level, r.level)
    a, b = t.refine(m), r.refine(m)
    n = 2 ** m
    best = 0
    for bits in range(2 ** n):
        s = frozenset(i for i in range(n) if bits >> i & 1)
        ia = frozenset(a.perm[i] for i in s)
        ib = frozenset(b.perm[i] for i in s)
        best = max(best, len(ia ^ ib))
    return Fraction(best, 2 ** m)


# ---------------------------------------------------------------------------
# Towers and periodic approximation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TowerData:
    """A tower for a transformation: base, translated levels, leftover.

    ``periodic_map`` follows the transformation below the top level of each
    column, sends column tops back to their bases, and permutes the leftover
    in index-order groups of ``height``.  When the leftover count is not a
    multiple of the height the remainder is left fixed and
    ``periodic_exact`` is False (the map still has period dividing
    ``height`` everywhere it was regrouped).
    """

    base: DyadicSet
    height: int
    levels: tuple[DyadicSet, ...]
    leftover: DyadicSet
    periodic_map: DyadicMPT
    periodic_exact: bool
    requested_bound: Fraction

    @property
    def level(self) -> int:
        return self.base.level

    def covered(self) -> DyadicSet:
        out = DyadicSet.empty(self.level)
        for lv in self.levels:
            out = out.union(lv)
        return out

    def validate(self, t: DyadicMPT) -> None:
        """Enumeration checks of every tower postcondition; raises on failure."""
        n = 2 ** self.level
        tt = t.refine(self.level)
        if len(self.levels) != self.height:
            raise CertificateError("tower has the wrong number of levels")
        # levels are successive images of the base
        current = self.base
        for lv in self.levels:
            if lv.members != current.members:
                raise CertificateError("levels must be T^k(base)")
            current = tt.image(current)
        # pairwise disjoint, and together with leftover partition [0,1)
        union: set[int] = set()
        for lv in self.levels:
            if union & lv.members:
                raise CertificateError("tower levels overlap")
            union |= lv.members
        if union & self.leftover.members:
            raise CertificateError("leftover meets the tower")
        if len(union) + len(self.leftover.members) != n:
            raise CertificateError("coverage gap")
        if self.leftover.measure > self.requested_bound:
            raise CertificateError("leftover exceeds the requested bound")
        # periodic map invariants
        s0 = self.periodic_map
        if self.periodic_exact:
            if any(len(c) != self.height for c in s0.cycles(include_fixed=True)):
                raise CertificateError("periodic map has a cycle of the wrong length")
        bound = self.requested_bound + Fraction(1, self.height)
        if delta_u(t, s0) > bound:
            raise CertificateError("periodic approximation too far")


def rokhlin_tower(t: DyadicMPT, height: int, bound: Fraction) -> TowerData:
    """Build a tower of the given height with leftover measure <= ``bound``.

    The base marks every ``height``-th interval along each cycle, stopping
    before wraparound, so a cycle of length L contributes ``L mod height``
    leftover intervals.  Raises :class:`NotAperiodic` when some cycle is
    shorter than ``height`` and :class:`TowerTooCoarse` when the achievable
    leftover exceeds ``bound``.
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
    n = 2 ** t.level
    segments: list[list[int]] = []
    leftover: set[int] = set()
    for cyc in cycles:
        full = (len(cyc) // height) * height
        segments.extend(cyc[start:start + height] for start in range(0, full, height))
        leftover.update(cyc[full:])
    leftover_measure = Fraction(len(leftover), n)
    if leftover_measure > bound:
        raise TowerTooCoarse(
            f"achievable leftover {leftover_measure} exceeds bound {bound}"
        )
    # group the leftover into height-cycles in index order
    rest = sorted(leftover)
    exact = len(rest) % height == 0
    blocks = [rest[k:k + height] for k in range(0, len(rest) - height + 1, height)]
    s0 = DyadicMPT(t.level, perm.close_cycles(range(n), segments + blocks))
    base_set = DyadicSet(t.level, frozenset(seg[0] for seg in segments))
    levels = [base_set]
    for _ in range(height - 1):
        levels.append(t.image(levels[-1]))
    tower = TowerData(
        base=base_set,
        height=height,
        levels=tuple(levels),
        leftover=DyadicSet(t.level, frozenset(leftover)),
        periodic_map=s0,
        periodic_exact=exact,
        requested_bound=bound,
    )
    tower.validate(t)
    return tower


@dataclass(frozen=True)
class PeriodicApproximation:
    """Exact period-``height`` approximation with its full-coverage tower."""

    s0: DyadicMPT
    height: int
    tower: TowerData          # tower for the original map
    exact_tower: TowerData    # tower for s0 with empty leftover
    distance: Fraction        # delta_u(original, s0)


def periodic_approximation(
    t: DyadicMPT, height: int, bound: Fraction
) -> PeriodicApproximation:
    """Approximate ``t`` by a map whose cycles all have length ``height``.

    The approximation follows ``t`` except on column tops (sent back to
    their bases) and on the leftover (regrouped in index order), with
    ``delta_u(t, s0) <= bound + 1/height`` checked exactly.  An extended
    base gives a tower for ``s0`` covering all of [0,1).

    Only heights dividing the interval count admit exact period maps: the
    leftover count is congruent to ``2**level`` mod ``height``, so a height
    with an odd factor can never be regrouped exactly at any refinement.
    Raises :class:`LeftoverIndivisible` in that case.
    """
    if height < 1:
        raise ValueError("height must be positive")
    if height & (height - 1):
        raise LeftoverIndivisible(
            f"height {height} has an odd factor; dyadic resolution only "
            "hosts exact period maps for powers of two"
        )
    level = max(t.level, height.bit_length() - 1)
    tt = t.refine(level)
    tower = rokhlin_tower(tt, height, bound)
    if not tower.periodic_exact:  # count is 2**level mod height == 0
        raise CertificateError("leftover not regrouped into exact cycles")
    s0 = tower.periodic_map
    # extend the base to one interval per s0-cycle: original bases plus the
    # first interval of each regrouped leftover block
    extended = set(tower.base.members)
    rest = sorted(tower.leftover.members)
    for k in range(0, len(rest), height):
        extended.add(rest[k])
    e0 = DyadicSet(level, frozenset(extended))
    levels = [e0]
    for _ in range(height - 1):
        levels.append(s0.image(levels[-1]))
    exact_tower = TowerData(
        base=e0,
        height=height,
        levels=tuple(levels),
        leftover=DyadicSet(level, frozenset()),
        periodic_map=s0,
        periodic_exact=True,
        requested_bound=ZERO,
    )
    exact_tower.validate(s0)
    dist = delta_u(tt, s0)
    if dist > Fraction(bound) + Fraction(1, height):
        raise CertificateError("periodic approximation too far")
    return PeriodicApproximation(
        s0=s0, height=height, tower=tower, exact_tower=exact_tower, distance=dist
    )


# ---------------------------------------------------------------------------
# Approximate conjugacy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugacyMatch:
    """Conjugator ``r`` with its exactly reported distance."""

    r: DyadicMPT
    achieved: Fraction
    height: int


def _exact_conjugator(t0: DyadicMPT, s0: DyadicMPT) -> DyadicMPT:
    """Permutation r with ``r**-1 * t0 * r == s0`` for equal cycle types."""
    r = perm.conjugator(t0.perm, s0.perm)
    if r is None:
        raise CertificateError("cycle types differ")
    return DyadicMPT(t0.level, r)


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
    if t.cycle_census() == s.cycle_census():
        r = _exact_conjugator(t, s)
        achieved = delta_u(t.conj(r), s)
        if achieved != 0:
            raise CertificateError("exact conjugator misses")
        return ConjugacyMatch(r=r, achieved=achieved, height=0)
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
        achieved = delta_u(t.conj(r), s)
        if best is None or achieved < best.achieved:
            best = ConjugacyMatch(r=r, achieved=achieved, height=n)
        if achieved < eps:
            return best
    raise TowerTooCoarse(
        f"best achievable distance {best.achieved} not below {eps}"
    )


# ---------------------------------------------------------------------------
# Text serialization
# ---------------------------------------------------------------------------

def format_fraction(x: Fraction) -> str:
    """Exact text form ``p/q`` of a rational, also for integers."""
    return f"{x.numerator}/{x.denominator}"


def _check_level(level: int) -> None:
    if not 0 <= level <= MAX_LEVEL:
        raise ParseError(f"level {level} outside 0..{MAX_LEVEL}")


def format_mpt(t: DyadicMPT) -> str:
    return "mpt {} {}".format(t.level, " ".join(str(i) for i in t.perm))


def parse_mpt(text: str) -> DyadicMPT:
    parts = text.split()
    if len(parts) < 2 or parts[0] != "mpt":
        raise ParseError(f"expected 'mpt <level> <images>', got {text!r}")
    try:
        level = int(parts[1])
        images = tuple(int(p) for p in parts[2:])
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    _check_level(level)
    if len(images) != 2 ** level:
        raise ParseError(f"need {2 ** level} images at level {level}, got {len(images)}")
    try:
        return DyadicMPT(level, images)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_set(s: DyadicSet) -> str:
    return "set {} {}".format(s.level, " ".join(str(i) for i in sorted(s.members)))


def parse_set(text: str) -> DyadicSet:
    parts = text.split()
    if len(parts) < 2 or parts[0] != "set":
        raise ParseError(f"expected 'set <level> <indices>', got {text!r}")
    try:
        level = int(parts[1])
        members = frozenset(int(p) for p in parts[2:])
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    _check_level(level)
    try:
        return DyadicSet(level, members)
    except ValueError as exc:
        raise ParseError(str(exc)) from None

"""Step functions on [0,1): the finite surrogate of measurable functions.

A :class:`StepFn` is constant on each interval of a dyadic partition.  With
group values it models a random group element; with point values it models
a random point of the acted-on space.  Refining the partition replicates
values and changes nothing observable; all binary operations refine both
operands to a common level first.  :data:`VALUE_KINDS` records what the
randomization needs from each kind of group value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from . import perm
from .dyadic import DyadicMPT, DyadicSet, _checked_level, exact_sum, read_level
from .errors import (
    CertificateError,
    MismatchedSpace,
    NotConverging,
    ParseError,
    RandlabError,
    Unmatchable,
)
from .groups import E, WindowPerm, format_cycles, match_partial, perm_du, read_cycles
from .spaces import SpaceIsometry, isometry_du, nat_discrete, space_identity
from .text import Reader, format_fraction, parse

Metric = Callable[[object, object], Fraction]


# ---------------------------------------------------------------------------
# Value kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueKind:
    """What the randomization needs to know about one kind of fiber value.

    The transfer arguments treat every base structure alike; this record
    is where the two modelled ones differ.  Each callable takes a value
    ``v`` of the kind first, since the acted-on space of an isometry is
    read from the value itself.
    """

    discrete: bool                                 # acted-on space is discrete
    du: Metric                                     # uniform metric on the group
    point_metric: Callable[[object], Metric]       # metric of the acted-on space
    identity: Callable[[object], object]           # group identity
    marked_points: Callable[[object], tuple]       # first four points
    diameter: Callable[[object], Fraction]         # largest d(x1, x2), > 0
    acts_on: Callable[[object, object], bool]      # may ``v`` act on point ``p``


VALUE_KINDS = {
    WindowPerm: ValueKind(
        discrete=True,
        du=perm_du,
        point_metric=lambda v: nat_discrete,
        identity=lambda v: E,
        marked_points=lambda v: tuple(range(4)),
        diameter=lambda v: Fraction(1),
        acts_on=lambda v, p: type(p) is int and p >= 0,
    ),
    SpaceIsometry: ValueKind(
        discrete=False,
        du=isometry_du,
        point_metric=lambda v: v.space.d,
        identity=lambda v: space_identity(v.space),
        marked_points=lambda v: v.space.points[:4],
        diameter=lambda v: v.space.diameter_pair()[2],
        acts_on=lambda v, p: p in v.space.points,
    ),
}


def value_kind(v) -> ValueKind:
    """The kind record of fiber value ``v``, looked up by its exact type."""
    kind = VALUE_KINDS.get(type(v))
    if kind is None:
        raise MismatchedSpace(f"no acted-on space for values {type(v).__name__}")
    return kind


@dataclass(frozen=True)
class StepFn:
    """Function constant on each dyadic interval of its level."""

    level: int
    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != 2 ** _checked_level(self.level):
            raise ValueError(
                f"need {2 ** self.level} values at level {self.level}"
            )

    @staticmethod
    def constant(value, level: int = 0) -> "StepFn":
        return StepFn(level, (value,) * 2 ** level)

    @staticmethod
    def two_valued(split: Fraction, left, right, level: int | None = None) -> "StepFn":
        """Value ``left`` on [0, split) and ``right`` on [split, 1)."""
        split = Fraction(split)
        if not 0 <= split <= 1:
            raise ValueError("split must lie in [0,1]")
        q = split.denominator
        if q & (q - 1):
            raise ValueError("split must be dyadic")
        lev = max(q.bit_length() - 1, 1, level or 0)
        cut = int(split * 2 ** lev)
        return StepFn(lev, tuple(left if i < cut else right for i in range(2 ** lev)))

    def refine(self, level: int) -> "StepFn":
        if level == self.level:
            return self
        if level < self.level:
            raise ValueError("refinement level must not decrease")
        k = 2 ** (level - self.level)
        return StepFn(level, tuple(v for v in self.values for _ in range(k)))

    def same_function(self, other: "StepFn") -> bool:
        m = max(self.level, other.level)
        return self.refine(m).values == other.refine(m).values

    def where(self, predicate) -> DyadicSet:
        return DyadicSet(
            self.level,
            frozenset(i for i, v in enumerate(self.values) if predicate(v)),
        )

    def map(self, fn) -> "StepFn":
        """``fn`` of every value.  ``fn`` runs once per distinct value
        object and its result is shared, so it must be pure."""
        return StepFn(self.level, _per_object(fn, self.values))

    def precompose(self, t: DyadicMPT) -> "StepFn":
        """The step function ``omega -> self(t(omega))``."""
        m = max(self.level, t.level)
        f, tt = self.refine(m), t.refine(m)
        return StepFn(m, tuple(f.values[tt.perm[i]] for i in range(2 ** m)))


def _per_object(fn, *columns) -> tuple:
    """``tuple(map(fn, *columns))`` with ``fn`` applied once per distinct
    tuple of argument objects.  The columns keep every object alive while
    this runs, so their ids are stable keys."""
    keys = list(zip(*(map(id, c) for c in columns)))
    args = dict(zip(keys, zip(*columns)))
    images = {k: fn(*a) for k, a in args.items()}
    return tuple(map(images.__getitem__, keys))


def zip_values(f: StepFn, h: StepFn):
    m = max(f.level, h.level)
    return m, f.refine(m).values, h.refine(m).values


def _check_same_kind(f: StepFn, h: StepFn) -> None:
    """Refuse values of mixed types, or isometries of different spaces."""
    values = f.values + h.values
    kinds = set(map(type, values))
    if len(kinds) > 1:
        raise MismatchedSpace(
            "values of kind " + " vs ".join(sorted(k.__name__ for k in kinds))
        )
    if SpaceIsometry in kinds:
        first, *rest = {id(v.space): v.space for v in values}.values()
        if any(space != first for space in rest):
            raise MismatchedSpace("isometries of different spaces")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def dhat(f: StepFn, h: StepFn, metric: Metric) -> Fraction:
    """Integral over [0,1) of the pointwise distance, exactly."""
    _check_same_kind(f, h)
    m, fv, hv = zip_values(f, h)
    return exact_sum(map(metric, fv, hv)) / 2 ** m


# ---------------------------------------------------------------------------
# Pointwise group structure
# ---------------------------------------------------------------------------

def l0_mul(f: StepFn, h: StepFn) -> StepFn:
    """The pointwise product, multiplying each distinct pair of value
    objects once and sharing the product between its intervals."""
    _check_same_kind(f, h)
    m, fv, hv = zip_values(f, h)
    return StepFn(m, _per_object(mul, fv, hv))


# ---------------------------------------------------------------------------
# Lower semicontinuity probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LscReport:
    """Outcome of a lower-semicontinuity probe along a finite sequence."""

    seq_dhat: tuple[Fraction, ...]       # dhat(seq_k, f)
    seq_dhat_u: tuple[Fraction, ...]     # dhat_u(seq_k, h)
    lhs: Fraction                        # dhat_u(f, h)
    tail_min: Fraction                   # min of seq_dhat_u over the tail
    holds: bool                          # lhs <= tail_min
    corrected_holds: bool                # lhs <= value + mass(seq_k != f), all k


def lsc_probe(
    f: StepFn,
    h: StepFn,
    sequence: Sequence[StepFn],
    metric: Metric,
    metric_u: Metric,
) -> LscReport:
    """Probe lower semicontinuity of the uniform integral metric.

    Requires ``dhat(seq_k, f)`` to be non-increasing (else
    :class:`NotConverging`).  Checks ``dhat_u(f, h) <= min`` of
    ``dhat_u(seq_k, h)`` over the tail (the second half of the sequence),
    and also the finite-scale bound that holds unconditionally:
    ``dhat_u(f, h) <= dhat_u(seq_k, h) + mu(seq_k != f)`` for every k.
    """
    if not sequence:
        raise NotConverging("empty probe sequence")
    seq_d = tuple(dhat(s, f, metric) for s in sequence)
    if any(a < b for a, b in zip(seq_d, seq_d[1:])):
        raise NotConverging("dhat(seq_k, f) is not non-increasing")
    seq_du = tuple(dhat(s, h, metric_u) for s in sequence)
    lhs = dhat(f, h, metric_u)
    tail = seq_du[len(seq_du) // 2:]
    tail_min = min(tail)
    corrected = all(
        lhs <= val + _disagreement_mass(s, f)
        for val, s in zip(seq_du, sequence)
    )
    return LscReport(
        seq_dhat=seq_d,
        seq_dhat_u=seq_du,
        lhs=lhs,
        tail_min=tail_min,
        holds=lhs <= tail_min,
        corrected_holds=corrected,
    )


def _disagreement_mass(a: StepFn, b: StepFn) -> Fraction:
    m, av, bv = zip_values(a, b)
    return Fraction(sum(1 for x, y in zip(av, bv) if x != y), 2 ** m)


# ---------------------------------------------------------------------------
# Conjugating a function toward a constant
# ---------------------------------------------------------------------------

def constant_generic_conjugator(
    g: WindowPerm, f: StepFn, k: int, eps: Fraction
) -> tuple[StepFn, Fraction]:
    """Build ``h`` with ``dhat_u(f, h**-1 * C_g * h) <= eps``.

    Each interval value is matched on its own (the finite stand-in for a
    measurable selection): exactly when its cycle census agrees with
    ``g``'s, otherwise below window ``k`` through the spare-cycle
    embedding, and measured by the uniform metric restricted to
    ``range(k)``.  Returns the conjugating step function and the exact
    achieved distance.  Raises :class:`Unmatchable` naming the first
    failing interval.
    """
    eps = Fraction(eps)
    if any(type(v) is not WindowPerm for v in (g, *f.values)):
        raise MismatchedSpace("constant conjugation needs window permutations")

    def metric_u(a: WindowPerm, b: WindowPerm) -> Fraction:
        return Fraction(any(a(n) != b(n) for n in range(k)))

    conjugators, conjugates = [], []
    for i, v in enumerate(f.values):
        r = perm.conjugator(g.images, v.images)
        try:
            if r is None:
                rho = match_partial(g, 1, {n: v(n) for n in range(k)})
            else:
                rho = WindowPerm(r)
        except CertificateError:
            raise  # a failed postcondition is a fault, not a missed match
        except (RandlabError, ValueError) as exc:
            raise Unmatchable(
                f"interval {i}: value not {eps}-conjugate to target ({exc})",
                interval=i,
            ) from exc
        conjugate = g.conj(rho)
        if r is not None and conjugate != v:
            raise CertificateError("exact conjugator misses")
        if metric_u(v, conjugate) > eps:
            raise Unmatchable(
                f"interval {i}: conjugate misses tolerance {eps}",
                interval=i,
            )
        conjugators.append(rho)
        conjugates.append(conjugate)
    achieved = dhat(f, StepFn(f.level, tuple(conjugates)), metric_u)
    if achieved > eps:
        raise CertificateError(f"achieved distance {achieved} exceeds {eps}")
    return StepFn(f.level, tuple(conjugators)), achieved


# ---------------------------------------------------------------------------
# Text forms
# ---------------------------------------------------------------------------

def format_value(v) -> str:
    if isinstance(v, WindowPerm):
        return format_cycles(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return format_fraction(v)
    raise ParseError(f"no text form for value kind {type(v).__name__}")


def read_value(r: Reader):
    """A fiber value: cycle notation, an integer or a rational ``p/q``."""
    return read_cycles(r) if r.peek() == "(" else r.number()


def parse_value(text: str):
    return parse(text, read_value)


def format_step(f: StepFn) -> str:
    body = ", ".join(format_value(v) for v in f.values)
    return f"step {f.level} [{body}]"


def read_step(r: Reader) -> StepFn:
    """``step <level> [v, v, ...]``: one value per interval of the level."""
    level = read_level(r, "step")
    r.expect("[")
    values = [read_value(r)]
    while r.accept(","):
        values.append(read_value(r))
    r.expect("]")
    return StepFn(level, tuple(values))


def parse_step(text: str) -> StepFn:
    return parse(text, read_step)

"""Cycle algebra on finite permutations stored as tuples of images.

A permutation of ``range(n)`` is the tuple ``p`` with ``p[i]`` the image
of ``i``; where two operands differ in length, the shorter one is read as
fixing every point past its end.  :class:`~randlab.dyadic.DyadicMPT`,
:class:`~randlab.groups.WindowPerm` and :class:`~randlab.spaces.SpaceIsometry`
each store one, and their group operations are the functions below.
Nothing here validates its input: each class checks its tuples once,
where they enter through its public constructor, and keeps its own normal
form.  A result computed here from valid operands is again a permutation,
so the group operations store it through the class's unchecked ``_of``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping, Sequence


_identity: list[int] = []  # pads a narrower ``a``; compose extends it on demand


def compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """``a`` after ``b``: ``i -> a[b[i]]``, as wide as the wider operand.

    Every image is an object of ``a``, of ``b`` or of the one identity list
    that pads a narrower ``a``, never a new int, so products of wide
    permutations share their int objects.
    """
    n, w = len(a), len(b)
    if w > n:
        _identity.extend(range(len(_identity), w))
        a = [*a, *_identity[n:w]]
    if w < 2:  # itemgetter returns a bare item for one index
        return tuple(a[j] for j in b) + tuple(a[w:])
    return itemgetter(*b)(a) + tuple(a[w:])


def invert(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def cycles(p: Sequence[int], include_fixed: bool = False) -> list[list[int]]:
    """Cycle decomposition; each cycle starts at its least point, and the
    cycles are in order of least points."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        if len(cyc) > 1 or include_fixed:
            out.append(cyc)
    return out


def power(p: Sequence[int], n: int) -> tuple[int, ...]:
    """``p**n`` for any integer ``n``, read off the cycles of ``p``."""
    out = list(p)
    for cyc in cycles(p):
        k = len(cyc)
        for pos, a in enumerate(cyc):
            out[a] = cyc[(pos + n) % k]
    return tuple(out)


def close_cycles(p: Sequence[int], runs: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """``p`` with each run of points closed into one cycle.

    Each run ``x0, x1, ..., xk`` gets ``x0 -> x1 -> ... -> xk -> x0``; the
    runs must be nonempty and disjoint, and every other point keeps its
    image under ``p``.
    """
    out = list(p)
    for run in runs:
        for a, b in zip(run, run[1:]):
            out[a] = b
        out[run[-1]] = run[0]
    return tuple(out)


def _pad(p: Sequence[int], width: int) -> tuple[int, ...]:
    return tuple(p) + tuple(range(len(p), width))


def conjugator(t: Sequence[int], s: Sequence[int]) -> tuple[int, ...] | None:
    """``r`` with ``r**-1 * t * r == s``, or None when the cycle types differ.

    The cycles of both, fixed points included, are paired in (length,
    least point) order, and ``r`` carries each cycle of ``s`` onto its
    partner in ``t``.
    """
    w = max(len(t), len(s))
    tc, sc = (
        sorted(cycles(_pad(p, w), include_fixed=True), key=lambda c: (len(c), c[0]))
        for p in (t, s)
    )
    if [len(c) for c in tc] != [len(c) for c in sc]:
        return None
    r = [0] * w
    for ct, cs in zip(tc, sc):
        for a, b in zip(cs, ct):
            r[a] = b
    return tuple(r)


def complete(assignment: Mapping[int, int], width: int) -> tuple[int, ...]:
    """Extend a partial injection inside ``range(width)`` to a permutation.

    The unassigned points are sent to the unused images, both taken in
    increasing order, in one walk over ``range(width)``.
    """
    used = [False] * width
    for v in assignment.values():
        used[v] = True
    free = (j for j in range(width) if not used[j])
    return tuple(
        assignment[i] if i in assignment else next(free) for i in range(width)
    )

"""Seeded generators for test corpora and experiments.

Every generator takes a :class:`random.Random` so identical seeds give
identical objects; nothing here draws from global randomness.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .dyadic import DyadicMPT
from .groups import PLOrderAut, WindowPerm
from .spaces import FiniteMetricSpace, SpaceIsometry, discrete_space
from .stepfn import StepFn
from .tilde import TildeElement


def rand_window_perm(rng: random.Random, window: int) -> WindowPerm:
    images = list(range(window))
    rng.shuffle(images)
    return WindowPerm(images)


def rand_mpt(rng: random.Random, level: int) -> DyadicMPT:
    perm = list(range(2 ** level))
    rng.shuffle(perm)
    return DyadicMPT(level, tuple(perm))


def rand_full_cycle(rng: random.Random, level: int) -> DyadicMPT:
    """A single cycle through all intervals, in seeded order."""
    order = list(range(2 ** level))
    rng.shuffle(order)
    return DyadicMPT.from_cycles(level, [order])


def rand_cycle_type(
    rng: random.Random, level: int, lengths: list[int]
) -> DyadicMPT:
    """A map with the given cycle lengths on seeded interval orders."""
    if sum(lengths) != 2 ** level:
        raise ValueError("lengths must cover the space")
    order = list(range(2 ** level))
    rng.shuffle(order)
    cycles, pos = [], 0
    for ln in lengths:
        cycles.append(order[pos:pos + ln])
        pos += ln
    return DyadicMPT.from_cycles(level, cycles)


def rand_aperiodic_mpt(rng: random.Random, level: int, min_cycle: int) -> DyadicMPT:
    """All cycles are powers of two of length at least ``min_cycle``."""
    if min_cycle > 2 ** level:
        raise ValueError("min_cycle exceeds the interval count")
    total = 2 ** level
    lengths = []
    while total > 0:
        ln = min_cycle
        while ln * 2 <= total and rng.random() < 0.5:
            ln *= 2
        if total - ln < min_cycle and total - ln > 0:
            ln = total
        lengths.append(min(ln, total))
        total -= lengths[-1]
    return rand_cycle_type(rng, level, lengths)


def rand_step_perm(
    rng: random.Random, level: int, window: int
) -> StepFn:
    return StepFn(
        level, tuple(rand_window_perm(rng, window) for _ in range(2 ** level))
    )


def rand_step_nat(rng: random.Random, level: int, top: int) -> StepFn:
    return StepFn(level, tuple(rng.randrange(top) for _ in range(2 ** level)))


def rand_tilde_perm(
    rng: random.Random, level: int, window: int
) -> TildeElement:
    return TildeElement(rand_step_perm(rng, level, window), rand_mpt(rng, level))


def rand_step_isometry(
    rng: random.Random, level: int, group: list[SpaceIsometry]
) -> StepFn:
    return StepFn(level, tuple(rng.choice(group) for _ in range(2 ** level)))


def rand_pl(rng: random.Random, max_breaks: int = 6) -> PLOrderAut:
    """Seeded order automorphism with up to ``max_breaks`` breakpoints in [-8, 8]."""
    span = 8
    count = rng.randrange(max_breaks + 1)
    breaks = sorted(
        rng.sample(
            [Fraction(n, 2) for n in range(-2 * span, 2 * span + 1)], count
        )
    )
    slopes = [
        Fraction(rng.randrange(1, 5), rng.randrange(1, 5))
        for _ in range(count + 1)
    ]
    # chain intercepts for continuity; seed the first piece's value
    pieces = [(slopes[0], Fraction(rng.randrange(-span, span + 1)))]
    for b, slope in zip(breaks, slopes[1:]):
        a_prev, c_prev = pieces[-1]
        value = a_prev * b + c_prev
        pieces.append((slope, value - slope * b))
    return PLOrderAut(tuple(breaks), tuple(pieces))


def equilateral_space(k: int = 3) -> FiniteMetricSpace:
    """k points, all distances one; its isometry group is the full symmetric
    group, which keeps the general-case experiments nondegenerate."""
    return discrete_space(k)

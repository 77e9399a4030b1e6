"""Tests for the dyadic measure space and its interval transformations."""

import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randlab import dyadic, perm
from randlab.dyadic import (
    MAX_LEVEL,
    DyadicMPT,
    DyadicSet,
    _exact_conjugator,
    delta_u,
    delta_u_prime,
    delta_w,
    exact_sum,
    format_mpt,
    format_set,
    mpt_conjugate_match,
    parse_mpt,
    parse_set,
    periodic_approximation,
    rokhlin_tower,
)
from randlab.errors import (
    CertificateError,
    LeftoverIndivisible,
    NotAperiodic,
    ParseError,
    TowerTooCoarse,
)
from randlab.corpus import rand_aperiodic_mpt, rand_full_cycle, rand_mpt
from randlab.stepfn import StepFn


def test_compose_inverse_is_identity():
    t = DyadicMPT(2, (2, 0, 3, 1))
    assert (t * t.inverse()).is_identity()
    assert (t.inverse() * t).is_identity()


def test_refine_identity():
    assert DyadicMPT.identity(1).refine(3).same_map(DyadicMPT.identity(3))


@pytest.mark.parametrize(
    "x",
    [DyadicMPT.shift(3), DyadicSet(3, frozenset({1, 5})), StepFn(3, tuple(range(8)))],
    ids=["mpt", "set", "step"],
)
def test_refine_to_own_level_returns_self(x):
    assert x.refine(x.level) is x
    with pytest.raises(ValueError):
        x.refine(x.level - 1)


def test_shift_composition():
    s = DyadicMPT.shift(2)
    assert (s * s).perm == DyadicMPT.shift(2, 2).perm


def test_group_axioms_random():
    rng = random.Random(101)
    for _ in range(50):
        a, b, c = (rand_mpt(rng, 4) for _ in range(3))
        assert ((a * b) * c).same_map(a * (b * c))
        assert (a * a.inverse()).is_identity()
        assert (a * DyadicMPT.identity(4)).same_map(a)


def test_point_period_matches_cycle_length():
    rng = random.Random(7)
    t = rand_mpt(rng, 4)
    for cyc in t.cycles(include_fixed=True):
        omega = F(cyc[0], 16) + F(1, 32)
        point = omega
        period = 0
        while True:
            point = t.apply_point(point)
            period += 1
            if point == omega:
                break
        assert period == len(cyc)


def test_cycles_census_examples():
    full = DyadicMPT.shift(3)
    assert full.cycle_census() == {8: 1}
    assert full.min_cycle_length() == 8
    ident = DyadicMPT.identity(3)
    assert ident.cycle_census() == {1: 8}
    t = DyadicMPT.from_cycles(3, [[0, 1], [2, 3, 4, 5]])
    assert t.cycle_census() == {2: 1, 4: 1, 1: 2}
    # oracle: iterate the point map on a sample of each interval
    for i in range(8):
        omega = F(i, 8) + F(1, 16)
        point = t.apply_point(omega)
        steps = 1
        while point != omega:
            point = t.apply_point(point)
            steps += 1
        expected = next(len(c) for c in t.cycles(include_fixed=True) if i in c)
        assert steps == expected


def test_delta_u_examples():
    t = DyadicMPT.shift(2)
    assert delta_u(t, t) == 0
    assert delta_u(t, DyadicMPT.identity(2)) == 1
    swap = DyadicMPT.from_cycles(2, [[0, 1]])
    assert delta_u(swap, DyadicMPT.identity(2)) == F(1, 2)


def test_delta_u_bi_invariance():
    rng = random.Random(13)
    for _ in range(40):
        t, r, a, b = (rand_mpt(rng, 4) for _ in range(4))
        assert delta_u(a * t * b, a * r * b) == delta_u(t, r)


def test_refinement_invariance():
    rng = random.Random(17)
    for _ in range(20):
        t, r = rand_mpt(rng, 3), rand_mpt(rng, 3)
        t2, r2 = t.refine(5), r.refine(5)
        assert delta_u(t, r) == delta_u(t2, r2)
        assert delta_u_prime(t, r) == delta_u_prime(t2, r2)
        census = t.cycle_census()
        census2 = t2.cycle_census()
        assert {k: v * 4 for k, v in census.items()} == census2


def test_delta_w_zero_on_equal():
    t = DyadicMPT.shift(3)
    assert delta_w(t, t) == 0


def delta_u_prime_bruteforce(t: DyadicMPT, r: DyadicMPT) -> F:
    """Independent oracle for ``delta_u_prime`` by subset enumeration."""
    m = max(t.level, r.level)
    a, b = t.refine(m), r.refine(m)
    n = 2 ** m
    best = 0
    for bits in range(2 ** n):
        s = frozenset(i for i in range(n) if bits >> i & 1)
        ia = frozenset(a.perm[i] for i in s)
        ib = frozenset(b.perm[i] for i in s)
        best = max(best, len(ia ^ ib))
    return F(best, 2 ** m)


def test_delta_u_prime_bruteforce_agrees():
    rng = random.Random(23)
    for _ in range(25):
        t, r = rand_mpt(rng, 2), rand_mpt(rng, 2)
        assert delta_u_prime(t, r) == delta_u_prime_bruteforce(t, r)
    for _ in range(6):
        t, r = rand_mpt(rng, 3), rand_mpt(rng, 3)
        assert delta_u_prime(t, r) == delta_u_prime_bruteforce(t, r)


def test_delta_u_prime_shift_example():
    # exhaustive maximum over the 16 level-2 unions
    assert delta_u_prime_bruteforce(DyadicMPT.shift(2), DyadicMPT.identity(2)) == 1
    assert delta_u_prime(DyadicMPT.shift(2), DyadicMPT.identity(2)) == 1


def test_delta_w_dominated_by_delta_u():
    rng = random.Random(31)
    for _ in range(100):
        t, r = rand_mpt(rng, 4), rand_mpt(rng, 4)
        assert delta_w(t, r) <= delta_u(t, r)


def delta_w_by_boxes(t: DyadicMPT, r: DyadicMPT) -> F:
    """Oracle for ``delta_w``: each box as a ``DyadicSet``, its images
    through ``image`` and ``symmetric_difference``, summed one ``Fraction``
    at a time."""
    m = max(t.level, r.level)
    tt, rr = t.refine(m), r.refine(m)
    boxes = (DyadicSet(lev, frozenset([i])) for lev in range(m + 1) for i in range(2 ** lev))
    total = F(0)
    for k, box in enumerate(boxes):
        diff = tt.image(box).symmetric_difference(rr.image(box)).measure
        total += F(1, 2 ** (k + 1)) * diff
    return total


small = settings(max_examples=60, derandomize=True, deadline=None)
mpts = st.integers(0, 6).flatmap(
    lambda m: st.permutations(range(2 ** m)).map(lambda p: DyadicMPT(m, tuple(p)))
)


@small
@given(mpts, mpts)
def test_delta_w_matches_the_box_by_box_sum(t, r):
    # the two maps are drawn at their own levels, often unequal ones
    w = delta_w(t, r)
    assert w == delta_w_by_boxes(t, r)
    assert w == delta_w(r, t)
    assert w <= delta_u(t, r)


@small
@given(st.lists(st.one_of(st.integers(-40, 40), st.fractions(max_denominator=48)), max_size=24))
@example([])
def test_exact_sum_matches_the_fraction_sum(terms):
    total = exact_sum(iter(terms))
    assert type(total) is F and total == sum(terms, F(0))


def test_tower_full_cycle_exact():
    tower = rokhlin_tower(DyadicMPT.shift(4), 4, F(0))
    assert len(tower.base.members) == 4
    assert tower.leftover.measure == 0
    assert tower.columns == tuple(tuple(range(b, b + 4)) for b in range(0, 16, 4))


def test_tower_full_cycle_with_leftover():
    tower = rokhlin_tower(DyadicMPT.shift(4), 3, F(1, 16))
    assert len(tower.base.members) == 5
    assert tower.leftover.measure == F(1, 16)


def test_tower_identity_not_aperiodic():
    with pytest.raises(NotAperiodic):
        rokhlin_tower(DyadicMPT.identity(3), 2, F(1))


def test_tower_too_coarse():
    with pytest.raises(TowerTooCoarse):
        rokhlin_tower(DyadicMPT.shift(4), 3, F(0))


def test_tower_postconditions_random():
    rng = random.Random(37)
    for _ in range(20):
        t = rand_aperiodic_mpt(rng, 6, 8)
        tower = rokhlin_tower(t, 5, F(1, 2))
        tower.validate(t, F(1, 2))  # disjointness, coverage, measure bound


# shift(4) at height 3: columns (0 1 2) .. (12 13 14), leftover {15}
CORRUPTED_TOWERS = {
    "short-column": (
        lambda tw: {"columns": ((0, 1),) + tw.columns[1:]},
        F(1, 16),
        "wrong number of levels",
    ),
    "column-not-climbing": (
        lambda tw: {"columns": ((0, 2, 1),) + tw.columns[1:]},
        F(1, 16),
        "levels must be T",
    ),
    "overlapping-columns": (
        lambda tw: {"columns": ((0, 1, 2), (1, 2, 3)) + tw.columns[1:]},
        F(1, 16),
        "levels overlap",
    ),
    "leftover-meets-column": (
        lambda tw: {"leftover": DyadicSet(4, frozenset({0, 15}))},
        F(1, 16),
        "leftover meets the tower",
    ),
    "coverage-gap": (lambda tw: {"columns": tw.columns[:-1]}, F(1, 16), "coverage gap"),
    # a sound tower checked against a bound below its leftover
    "leftover-above-bound": (lambda tw: {}, F(0), "leftover exceeds the requested bound"),
}


@pytest.mark.parametrize(
    "corrupt,bound,message", CORRUPTED_TOWERS.values(), ids=CORRUPTED_TOWERS.keys()
)
def test_validate_names_each_broken_postcondition(corrupt, bound, message):
    t = DyadicMPT.shift(4)
    tower = rokhlin_tower(t, 3, F(1, 16))
    assert tower.columns[0] == (0, 1, 2) and tower.leftover.members == {15}
    with pytest.raises(CertificateError, match=message):
        dataclasses.replace(tower, **corrupt(tower)).validate(t, bound)


# shift(4) at height 4 and bound 0: s0 closes (0 1 2 3) .. (12 13 14 15),
# and its distance 1/4 is exactly the bound 0 + 1/4
CORRUPTED_APPROXIMATIONS = {
    "periodic-map-identity": ({"s0": DyadicMPT.identity(4)}, "levels must be T"),
    # shift(4) itself climbs every column but sends each top to the next base
    "periodic-map-open-column": ({"s0": DyadicMPT.shift(4)}, "leaves a column open"),
    "periodic-map-too-far": ({"distance": F(5, 16)}, "periodic approximation too far"),
}


@pytest.mark.parametrize(
    "fields,message",
    CORRUPTED_APPROXIMATIONS.values(),
    ids=CORRUPTED_APPROXIMATIONS.keys(),
)
def test_approximation_validate_names_each_broken_check(fields, message):
    pa = periodic_approximation(DyadicMPT.shift(4), 4, F(0))
    assert pa.s0.perm[3] == 0 and pa.distance == F(1, 4)
    with pytest.raises(CertificateError, match=message):
        dataclasses.replace(pa, **fields).validate(F(0))


def test_periodic_approximation_full_cycle():
    pa = periodic_approximation(DyadicMPT.shift(4), 4, F(0))
    assert pa.distance == F(1, 4)
    assert all(len(c) == 4 for c in pa.s0.cycles(include_fixed=True))
    # direct count oracle
    t = DyadicMPT.shift(4)
    assert delta_u(t, pa.s0) == F(
        sum(1 for i in range(16) if t.perm[i] != pa.s0.perm[i]), 16
    )


def test_periodic_approximation_top_height():
    # height equal to the full cycle length: nothing needs redirecting
    t = DyadicMPT.shift(3)
    pa = periodic_approximation(t, 8, F(0))
    assert pa.distance == 0
    assert pa.s0.same_map(t)


def test_periodic_approximation_1024_32():
    pa = periodic_approximation(DyadicMPT.shift(10), 32, F(0))
    assert pa.distance == F(1, 32)


def test_periodic_approximation_rejects_odd_heights():
    with pytest.raises(LeftoverIndivisible):
        periodic_approximation(DyadicMPT.shift(4), 3, F(1))


@pytest.mark.parametrize("height", [8, 2 ** 34])
def test_periodic_approximation_refuses_heights_past_the_interval_count(height):
    # every cycle of a level-2 map, refined or not, has at most 4 intervals,
    # so the height is refused before a level-34 refinement is built
    with pytest.raises(NotAperiodic, match="exceeds the 4 intervals of level 2"):
        periodic_approximation(DyadicMPT.shift(2), height, F(1))


def test_exact_tower_covers_everything():
    rng = random.Random(41)
    for _ in range(10):
        t = rand_aperiodic_mpt(rng, 7, 16)
        pa = periodic_approximation(t, 8, F(1, 4))
        assert pa.exact_tower.leftover.measure == 0
        assert pa.exact_tower.covered().measure == 1


def test_periodic_approximation_checks_once(monkeypatch):
    # one cycle scan (of t, for its tower) and one distance per call
    counts = {"delta_u": 0, "cycles": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(dyadic, "delta_u", counted("delta_u", dyadic.delta_u))
    monkeypatch.setattr(perm, "cycles", counted("cycles", perm.cycles))
    pa = periodic_approximation(DyadicMPT.shift(10), 32, F(0))
    assert pa.distance == F(1, 32)
    assert counts == {"delta_u": 1, "cycles": 1}


@st.composite
def aperiodic_maps(draw):
    """A map at level 3..8 with no fixed interval, and its cycles as drawn."""
    level = draw(st.integers(3, 8))
    n = 2 ** level
    order = draw(st.permutations(range(n)))
    cycles, start = [], 0
    while start < n:
        rest = n - start
        length = rest if rest < 4 else draw(st.integers(2, rest))
        if rest - length == 1:
            length = rest
        cycles.append(order[start:start + length])
        start += length
    images = {}
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return DyadicMPT(level, tuple(images[i] for i in range(n))), cycles


def approximation_oracle(t, cycles, height):
    """``s0`` as a dict and the leftover, built without the tower code: each
    cycle, read from its least point, is cut into columns of ``height``
    whose tops go back to their bases; the rest is the leftover, closed
    into blocks of ``height`` in index order."""
    s0 = dict(enumerate(t.perm))
    leftover = []
    for cyc in cycles:
        k = cyc.index(min(cyc))
        cyc = cyc[k:] + cyc[:k]
        full = len(cyc) - len(cyc) % height
        for base in range(0, full, height):
            s0[cyc[base + height - 1]] = cyc[base]
        leftover += cyc[full:]
    leftover.sort()
    for k in range(0, len(leftover), height):
        block = leftover[k:k + height]
        for a, b in zip(block, block[1:] + block[:1]):
            s0[a] = b
    return s0, leftover


@small
@given(aperiodic_maps())
def test_periodic_approximation_matches_the_oracle(drawn):
    t, cycles = drawn
    n = 2 ** t.level
    height = 1
    while height <= min(map(len, cycles)):
        s0, leftover = approximation_oracle(t, cycles, height)
        bound = F(len(leftover), n)
        pa = periodic_approximation(t, height, bound)
        assert pa.s0.perm == tuple(s0[i] for i in range(n))
        assert pa.tower.leftover.members == set(leftover)
        for start in range(n):
            orbit = [start]
            while len(orbit) <= height and s0[orbit[-1]] != start:
                orbit.append(s0[orbit[-1]])
            assert len(orbit) == height
        differ = sum(1 for i in range(n) if s0[i] != t.perm[i])
        assert pa.distance == F(differ, n) <= bound + F(1, height)
        if leftover:
            with pytest.raises(TowerTooCoarse):
                periodic_approximation(t, height, bound - F(1, n))
        height *= 2


def test_exact_conjugator_certifies_its_tuple(monkeypatch):
    t, s = DyadicMPT.shift(3), DyadicMPT.shift(3, 3)
    assert _exact_conjugator(t, DyadicMPT.shift(3, 2)) is None  # 2+2 cycles vs 8
    r = _exact_conjugator(t, s)
    assert t.conj(r).perm == s.perm
    monkeypatch.setattr(perm, "conjugator", lambda a, b: tuple(range(len(a))))
    with pytest.raises(CertificateError, match="exact conjugator misses"):
        _exact_conjugator(t, s)


def test_conjugate_match_identical():
    t = DyadicMPT.shift(5)
    m = mpt_conjugate_match(t, t, F(1, 8))
    assert m.achieved == 0


def test_conjugate_match_full_cycles_exact():
    rng = random.Random(43)
    t, s = rand_full_cycle(rng, 6), rand_full_cycle(rng, 6)
    m = mpt_conjugate_match(t, s, F(1, 8))
    assert m.achieved == 0
    assert delta_u(t.conj(m.r), s) == 0


def test_conjugate_match_split_cycle():
    rng = random.Random(47)
    t = rand_full_cycle(rng, 8)
    s = rand_mpt(rng, 8)
    # make s two cycles of length 128
    from randlab.corpus import rand_cycle_type

    s = rand_cycle_type(rng, 8, [128, 128])
    m = mpt_conjugate_match(t, s, F(1, 8))
    assert m.achieved <= F(1, 16) + F(1, 16)
    assert delta_u(t.conj(m.r), s) == m.achieved


def test_set_operations_and_measure():
    a = DyadicSet(2, frozenset({0, 1}))
    b = DyadicSet(3, frozenset({3, 4}))
    assert a.measure == F(1, 2)
    assert a.refine(3).members == frozenset({0, 1, 2, 3})
    assert a.union(b).measure == F(5, 8)
    assert a.intersection(b).measure == F(1, 8)
    assert a.symmetric_difference(a).measure == 0
    assert a.complement().measure == F(1, 2)


def test_serialization_round_trip():
    t = DyadicMPT(2, (1, 2, 3, 0))
    assert parse_mpt(format_mpt(t)).same_map(t)
    s = DyadicSet(3, frozenset({0, 5}))
    assert parse_set(format_set(s)) == s


def test_parser_rejects_non_bijection():
    with pytest.raises(ParseError):
        parse_mpt("mpt 1 0 0")
    with pytest.raises(ParseError):
        parse_set("set 1 5")


@pytest.mark.parametrize(
    "text", ["mpt -1", "mpt 17 0", "mpt 64 0", "mpt 1 0", "set -1", "set 64 0"]
)
def test_parsers_reject_levels_outside_the_bound_and_short_image_lists(text):
    parse = parse_mpt if text.startswith("mpt") else parse_set
    with pytest.raises(ParseError):
        parse(text)


def test_parsers_accept_the_finest_level():
    assert parse_set(f"set {MAX_LEVEL} 0").measure == F(1, 2 ** MAX_LEVEL)

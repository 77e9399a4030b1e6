"""Tests for the base groups: window permutations and order automorphisms."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from randlab import groups
from randlab.corpus import rand_pl, rand_window_perm
from randlab.dyadic import DyadicMPT
from randlab.errors import CertificateError, InsufficientCycles, NotInjective, ParseError
from randlab.groups import (
    E,
    MAX_WINDOW,
    PLOrderAut,
    WindowPerm,
    cycle_pack,
    format_cycles,
    from_cycles,
    generic_surrogate,
    match_partial,
    orbitals_and_signs,
    parse_cycles,
    perm_dp,
    perm_du,
    power_cycle_type,
    power_invariance_check,
)


# -- window permutations ------------------------------------------------------

def test_perm_dp_du_examples():
    assert perm_dp(E, E) == perm_du(E, E) == 0
    assert perm_dp(parse_cycles("(0 1)"), E) == F(3, 4)
    assert perm_dp(parse_cycles("(5 6)"), E) == F(3, 128)
    assert perm_du(parse_cycles("(5 6)"), E) == 1


def test_perm_group_axioms():
    rng = random.Random(3)
    for _ in range(60):
        a, b, c = (rand_window_perm(rng, 9) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == E
        assert (a * b).inverse() == b.inverse() * a.inverse()


def test_dp_bounded_by_du():
    rng = random.Random(5)
    for _ in range(80):
        a, b = rand_window_perm(rng, 12), rand_window_perm(rng, 12)
        assert perm_dp(a, b) <= perm_du(a, b)


def test_normalization_strips_trailing_fixed_points():
    assert WindowPerm((0, 1, 2)).window == 0
    assert WindowPerm((1, 0, 2, 3)) == WindowPerm((1, 0))


def test_generic_surrogate_census():
    assert generic_surrogate(1, 3).realized == E  # fixed points only
    g = generic_surrogate(3, 1)
    assert g.window() == 6
    assert [len(c) for c in g.realized.cycles()] == [2, 3]
    g2 = generic_surrogate(4, 2)
    assert g2.window() == 20
    census = g2.realized.cycle_census(window=g2.window())
    assert census == Counter({1: 2, 2: 2, 3: 2, 4: 2})


def test_power_cycle_type_rules():
    six = from_cycles([range(6)])
    assert power_cycle_type(six, 2) == (six ** 2).cycle_census(window=6)
    assert power_cycle_type(six, 2)[3] == 2
    five = from_cycles([range(5)])
    assert power_cycle_type(five, 5) == Counter({1: 5})
    g = generic_surrogate(6, 2).realized
    w = generic_surrogate(6, 2).window()
    assert power_cycle_type(g, 3, window=w) == (g ** 3).cycle_census(window=w)


def test_power_rule_exhaustive_corpus():
    rng = random.Random(11)
    corpus = [rand_window_perm(rng, w) for w in range(2, 65, 3) for _ in range(2)]
    corpus += [generic_surrogate(5, 2).realized, cycle_pack({7: 2, 9: 1})]
    for p in corpus:
        for n in range(1, 13):
            assert power_cycle_type(p, n, window=p.window) == (
                p ** n
            ).cycle_census(window=p.window)


def test_match_identity_target():
    sigma = generic_surrogate(4, 2).realized
    rho = match_partial(sigma, 2, {n: n for n in range(4)})
    conj = sigma.conj(rho) if False else (rho.inverse() * sigma ** 2 * rho)
    assert all(conj(n) == n for n in range(4))


def test_match_three_cycle():
    sigma = generic_surrogate(6, 1).realized
    rho = match_partial(sigma, 1, {0: 1, 1: 2, 2: 0})
    conj = rho.inverse() * sigma * rho
    assert (conj(0), conj(1), conj(2)) == (1, 2, 0)


def test_match_chain_gets_fresh_image():
    sigma = generic_surrogate(8, 1).realized
    rho = match_partial(sigma, 1, {0: 1, 1: 2})
    conj = rho.inverse() * sigma * rho
    assert conj(0) == 1 and conj(1) == 2
    assert conj(2) not in (0, 1, 2)  # chain end stays unconstrained


def test_match_postcondition_random():
    rng = random.Random(13)
    sigma = generic_surrogate(12, 3).realized
    for _ in range(40):
        perm = rand_window_perm(rng, 6)
        target = {n: perm(n) for n in range(6)}
        rho = match_partial(sigma, 2, target)
        conj = rho.inverse() * sigma ** 2 * rho
        assert all(conj(n) == target[n] for n in target)


def test_match_rejects_non_injective():
    sigma = generic_surrogate(4, 1).realized
    with pytest.raises(NotInjective):
        match_partial(sigma, 1, {0: 5, 1: 5})


def test_match_insufficient_cycles():
    sigma = from_cycles([[0, 1]])  # single 2-cycle
    with pytest.raises(InsufficientCycles) as info:
        match_partial(sigma, 1, {0: 1, 1: 2, 2: 3, 3: 0})
    assert info.value.needed


def test_match_memo_keys_on_equal_sigma_and_power():
    sigma = generic_surrogate(8, 2).realized
    target = {0: 1, 1: 2, 2: 0, 3: 5}
    groups._prepared_power.cache_clear()
    cold = {n: match_partial(sigma, n, target) for n in (1, 2)}
    twin = WindowPerm(sigma.images)
    assert twin is not sigma and twin == sigma
    assert match_partial(twin, 1, target) == cold[1]
    for n in (2, 1, 2, 1):  # interleaved powers of one sigma
        assert match_partial(sigma, n, target) == cold[n]


def test_match_memo_repeats_a_shortfall():
    sigma = from_cycles([[0, 1]])
    for _ in range(2):
        with pytest.raises(InsufficientCycles):
            match_partial(sigma, 1, {0: 1, 1: 2, 2: 3, 3: 0})


def test_match_memo_values_are_tuples():
    power, pool, fixed = groups._prepared_power(generic_surrogate(5, 2).realized, 2)
    assert isinstance(pool, tuple) and all(isinstance(c, tuple) for c in pool)
    assert isinstance(fixed, tuple)
    assert list(pool) == [tuple(c) for c in power.cycles()]
    assert fixed == tuple(p for p in range(power.window) if power(p) == p)


def test_match_postcondition_catches_a_wrong_completion(monkeypatch):
    complete = groups.perm.complete

    def swapped(assignment, width):
        out = list(complete(assignment, width))
        out[0], out[1] = out[1], out[0]
        return tuple(out)

    monkeypatch.setattr(groups.perm, "complete", swapped)
    sigma = generic_surrogate(6, 1).realized
    with pytest.raises(CertificateError, match="window match postcondition failed"):
        match_partial(sigma, 1, {0: 1, 1: 2, 2: 0})


def test_cycle_notation_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        p = rand_window_perm(rng, 10)
        assert parse_cycles(format_cycles(p)) == p
    with pytest.raises(ParseError):
        parse_cycles("(0 1")
    with pytest.raises(ParseError):
        parse_cycles("(0 0)")


def test_cycle_points_stay_below_max_window():
    assert parse_cycles(f"(0 {MAX_WINDOW - 1})").window == MAX_WINDOW
    with pytest.raises(ParseError, match=str(MAX_WINDOW - 1)):
        parse_cycles(f"(0 {MAX_WINDOW})")


# -- order automorphisms -----------------------------------------------------

def test_orbitals_identity():
    rep = orbitals_and_signs(PLOrderAut.identity())
    assert rep.orbitals == ()
    assert rep.fixed_intervals == ((None, None),)


def test_orbitals_translation():
    rep = orbitals_and_signs(PLOrderAut.affine(1, 1))
    assert rep.orbitals == ((None, None, 1),)


def test_orbitals_doubling():
    rep = orbitals_and_signs(PLOrderAut.affine(2, 0))
    assert rep.fixed_points == (F(0),)
    assert rep.orbitals == ((None, F(0), -1), (F(0), None, 1))
    # sample oracle: sign is where the map moves the point
    g = PLOrderAut.affine(2, 0)
    for x in (F(-5), F(-1, 2)):
        assert g(x) < x
    for x in (F(1, 2), F(7)):
        assert g(x) > x


def test_pl_group_axioms_random():
    rng = random.Random(19)
    probes = [F(-7, 2), F(-1), F(0), F(2, 3), F(9, 4)]
    for _ in range(40):
        g, h = rand_pl(rng), rand_pl(rng)
        gh = g * h
        for q in probes:
            assert gh(q) == g(h(q))
            assert g.inverse()(g(q)) == q


def test_pl_power_orbital_invariance():
    rng = random.Random(23)
    for _ in range(100):
        g = rand_pl(rng, max_breaks=6)
        base = orbitals_and_signs(g)
        for n in range(2, 6):
            assert orbitals_and_signs(g ** n) == base


def test_pl_refuses_a_slope_that_is_not_positive():
    for slope in (F(-1, 2), 0):
        with pytest.raises(ValueError, match="slopes must be positive"):
            PLOrderAut((), ((slope, 0),))


# -- power invariance dispatch -------------------------------------------------

def test_power_invariance_translation():
    rep = power_invariance_check(PLOrderAut.affine(1, 1), 3)
    assert rep.ok()


def test_power_invariance_doubling():
    rep = power_invariance_check(PLOrderAut.affine(2, 0), 2)
    assert rep.ok()
    assert rep.details["power_report"].fixed_points == (F(0),)


def test_power_invariance_mpt_full_cycle():
    rep = power_invariance_check(DyadicMPT.shift(5), 3)
    assert rep.ok()
    assert rep.details["min_cycle_power"] == 32  # gcd(32, 3) == 1
    # oracle: direct cycle decomposition of the composed map
    cube = DyadicMPT.shift(5) ** 3
    assert cube.cycle_census() == {32: 1}


def test_power_invariance_window_perm():
    rep = power_invariance_check(from_cycles([range(6)]), 2)
    assert rep.ok()
    assert rep.details["census"][3] == 2


def test_from_cycles_reads_a_generator_once():
    # the disjointness check must not consume the cycles it then closes
    assert from_cycles(c for c in [[0, 1, 2]]) == from_cycles([[0, 1, 2]])
    assert from_cycles(iter([[3, 5], [0, 1]])) == parse_cycles("(0 1)(3 5)")
    with pytest.raises(ValueError):
        from_cycles(c for c in [[0, 1], [1, 2]])

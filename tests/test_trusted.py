"""Group operations build their results without re-validating them.

Each result of a product, inverse, power, refinement or set operation must
equal the same object rebuilt through the validating public constructor;
public construction and parsing still reject bad input; and a failed
certificate inside a matcher surfaces as ``CertificateError``, not as an
ordinary "no match".
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randlab import perm
from randlab.corpus import equilateral_space
from randlab.dyadic import DyadicMPT, DyadicSet, parse_mpt, parse_set
from randlab.errors import CertificateError, NotAnIndex, ParseError, RandlabError
from randlab.groups import E, WindowPerm, parse_cycles
from randlab.spaces import SpaceIsometry, isometry_group, metric_space
from randlab.stepfn import StepFn, constant_generic_conjugator
from randlab.synthesis import _transformation_factor
from randlab.tilde import ProductNbhd

small = settings(max_examples=60, derandomize=True, deadline=None)

exponents = st.integers(-6, 6)
mpts = st.integers(0, 4).flatmap(
    lambda lev: st.permutations(range(2 ** lev)).map(lambda p: DyadicMPT(lev, tuple(p)))
)
sets = st.integers(0, 4).flatmap(
    lambda lev: st.frozensets(st.integers(0, 2 ** lev - 1)).map(lambda m: DyadicSet(lev, m))
)
window_perms = st.integers(0, 10).flatmap(
    lambda n: st.permutations(range(n)).map(WindowPerm)
)


def revalidated_mpt(t):
    assert type(t.perm) is tuple
    again = DyadicMPT(t.level, t.perm)
    assert again == t and hash(again) == hash(t)
    return again


def revalidated_set(s):
    assert type(s.members) is frozenset
    again = DyadicSet(s.level, s.members)
    assert again == s and hash(again) == hash(s)
    return again


def revalidated_window(p):
    assert type(p.images) is tuple
    again = WindowPerm(p.images)
    assert again.images == p.images and again == p and hash(again) == hash(p)
    return again


# ---------------------------------------------------------------------------
# DyadicMPT and DyadicSet
# ---------------------------------------------------------------------------

@small
@given(mpts, mpts, exponents, st.integers(0, 3))
def test_mpt_operations_rebuild_through_the_constructor(a, b, n, finer):
    product = revalidated_mpt(a * b)
    assert product.level == max(a.level, b.level)
    assert revalidated_mpt(a.inverse()) * a == DyadicMPT.identity(a.level)
    revalidated_mpt(a ** n)
    assert revalidated_mpt(a ** 0).is_identity()
    revalidated_mpt(a.refine(a.level + finer))
    revalidated_mpt(a.conj(b))


@small
@given(sets, sets, st.integers(0, 3))
def test_set_operations_rebuild_through_the_constructor(a, b, finer):
    m = max(a.level, b.level)
    for out in (a.union(b), a.intersection(b), a.symmetric_difference(b)):
        assert revalidated_set(out).level == m
    assert revalidated_set(a.complement()).measure == 1 - a.measure
    assert revalidated_set(a.refine(a.level + finer)).measure == a.measure


@small
@given(mpts, sets)
def test_image_rebuilds_through_the_constructor(t, s):
    out = revalidated_set(t.image(s))
    assert out.level == max(t.level, s.level) and out.measure == s.measure


# ---------------------------------------------------------------------------
# WindowPerm: the normal form survives unchecked construction
# ---------------------------------------------------------------------------

@small
@given(window_perms, window_perms, exponents)
@example(parse_cycles("(0 1 2)"), parse_cycles("(1 2)"), 0)  # product ends fixed
@example(parse_cycles("(0 1 2 3)"), E, 2)
@example(parse_cycles("(0 1)(2 3 4)"), E, 3)  # power ends in fixed points
@example(parse_cycles("(0 1)(2 3 4)"), E, -6)
def test_window_operations_rebuild_through_the_constructor(a, b, n):
    for out in (a * b, b * a, a.inverse(), a ** n, a.conj(b)):
        revalidated_window(out)
        assert not out.images or out.images[-1] != out.window - 1
    unit = a * a.inverse()
    assert unit == E and unit.images == () and unit.is_identity()
    assert (a ** 0).images == ()


def test_window_product_strips_the_fixed_points_it_creates():
    out = parse_cycles("(0 1 2)") * parse_cycles("(1 2)")
    assert out.images == (1, 0) and out == parse_cycles("(0 1)")


# ---------------------------------------------------------------------------
# SpaceIsometry
# ---------------------------------------------------------------------------

path = metric_space(range(4), {(0, 1): F(1, 3), (1, 2): F(1, 3), (2, 3): F(1, 3),
                               (0, 2): F(2, 3), (1, 3): F(2, 3)})


@pytest.mark.parametrize("space", [equilateral_space(3), path])
def test_isometry_operations_rebuild_through_the_constructor(space):
    group = isometry_group(space)
    for a in group:
        for out in [a.inverse()] + [a * b for b in group]:
            assert type(out.mapping) is tuple
            assert SpaceIsometry(space, out.mapping) == out
            assert out in group


# ---------------------------------------------------------------------------
# Input is still checked where it enters
# ---------------------------------------------------------------------------

def test_public_construction_and_parsing_reject_bad_input():
    for bad in [(0, 0), (0, 2), (0, 1, 2, 3)]:
        with pytest.raises(ValueError):
            DyadicMPT(1, bad)
    with pytest.raises(ValueError):
        DyadicSet(1, frozenset({2}))
    with pytest.raises(ValueError):
        DyadicSet(1, frozenset({-1}))
    for bad in [(0, 0), (1, 2)]:
        with pytest.raises(ValueError):
            WindowPerm(bad)
    space = equilateral_space(3)
    for bad in [(0, 0, 1), (0, 1, 3)]:
        with pytest.raises(ValueError):
            SpaceIsometry(space, bad)
    for text in ["mpt 1 0 0", "mpt 1 0 2", "set 1 2"]:
        with pytest.raises(ParseError):
            (parse_mpt if text.startswith("mpt") else parse_set)(text)


NOT_INTS = {
    "window-float-images": lambda: WindowPerm([1.0, 0.0]),
    "window-bool-images": lambda: WindowPerm([True, False]),
    "mpt-float-images": lambda: DyadicMPT(1, (1.0, 0.0)),
    "mpt-bool-images": lambda: DyadicMPT(1, (True, False)),
    "mpt-negative-level": lambda: DyadicMPT(-1, ()),
    "mpt-float-level": lambda: DyadicMPT(1.0, (1, 0)),
    "set-negative-level": lambda: DyadicSet(-1, frozenset()),
    "set-bool-level": lambda: DyadicSet(True, frozenset()),
    "set-float-member": lambda: DyadicSet(1, frozenset({1.0})),
}


@pytest.mark.parametrize("build", NOT_INTS.values(), ids=NOT_INTS.keys())
def test_constructors_reject_what_is_not_an_int(build):
    # images that only compare equal to ints used to build, and the first
    # product then failed with a raw TypeError inside perm.compose
    with pytest.raises(NotAnIndex) as info:
        build()
    assert isinstance(info.value, ValueError)
    assert isinstance(info.value, RandlabError)


def test_mpt_errors_name_the_level():
    with pytest.raises(NotAnIndex, match="level -1"):
        DyadicMPT(-1, ())
    with pytest.raises(ValueError, match="at level 2"):
        DyadicMPT(2, (0, 1, 2, 2))


# ---------------------------------------------------------------------------
# A failed certificate is a fault, not a missed match
# ---------------------------------------------------------------------------

def identity_conjugator(t, s):
    return tuple(range(max(len(t), len(s))))


def test_constant_generic_conjugator_lets_certificate_errors_through(monkeypatch):
    monkeypatch.setattr(perm, "conjugator", identity_conjugator)
    with pytest.raises(CertificateError):
        constant_generic_conjugator(
            parse_cycles("(0 1 2)"), StepFn(0, (parse_cycles("(0 2 1)"),)), 3, 0
        )


def test_transformation_factor_lets_certificate_errors_through(monkeypatch):
    monkeypatch.setattr(perm, "conjugator", identity_conjugator)
    target = ProductNbhd(
        center_f=StepFn(0, (E,)),
        center_t=DyadicMPT.shift(2, 3),
        value_conditions=(),
        set_conditions=((DyadicSet(2, frozenset({0})), F(1, 2)),),
    )
    with pytest.raises(CertificateError):
        _transformation_factor(DyadicMPT.shift(2, 1), [target])

"""Property tests for the permutation kernel against dict oracles, and for
the three groups built on it."""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from randlab import perm
from randlab.corpus import equilateral_space
from randlab.dyadic import DyadicMPT
from randlab.groups import E, WindowPerm
from randlab.spaces import isometry_group

small = settings(max_examples=60, derandomize=True, deadline=None)

perms = st.integers(0, 12).flatmap(lambda n: st.permutations(range(n))).map(tuple)
same_width = st.integers(0, 12).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
).map(lambda ab: (tuple(ab[0]), tuple(ab[1])))
exponents = st.integers(-6, 6)


def as_dict(p):
    return dict(enumerate(p))


def dict_mul(a, b, points):
    """``a`` after ``b`` on ``points``, each dict fixing what it does not list."""
    return {i: a.get(b.get(i, i), b.get(i, i)) for i in points}


def dict_power(p, n):
    step = as_dict(p) if n >= 0 else {j: i for i, j in enumerate(p)}
    out = {i: i for i in range(len(p))}
    for _ in range(abs(n)):
        out = dict_mul(step, out, range(len(p)))
    return out


def cycle_type(p):
    return sorted(len(c) for c in perm.cycles(p, include_fixed=True))


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------

@small
@given(perms, perms)
def test_compose_matches_dict_composition(a, b):
    w = max(len(a), len(b))
    assert as_dict(perm.compose(a, b)) == dict_mul(as_dict(a), as_dict(b), range(w))


def naive_compose(a, b):
    out = tuple(a[j] if j < len(a) else j for j in b)
    return out + tuple(a[len(b):]) if len(a) > len(b) else out


@small
@given(perms, perms)
@example((), ())
@example((0,), ())
@example((), (0,))
@example((0,), (0,))
@example((1, 0), (0,))
@example((0,), (1, 0))
@example((1, 0), (1, 0))
@example((2, 0, 1), (1, 0))
@example((1, 0), (2, 0, 1))
def test_compose_matches_naive_oracle(a, b):
    assert perm.compose(a, b) == naive_compose(a, b)


@small
@given(perms)
def test_invert_matches_dict_inverse(p):
    assert as_dict(perm.invert(p)) == {j: i for i, j in enumerate(p)}
    assert perm.compose(p, perm.invert(p)) == tuple(range(len(p)))


@small
@given(perms, exponents)
def test_power_matches_repeated_products(p, n):
    assert as_dict(perm.power(p, n)) == dict_power(p, n)


@small
@given(perms)
def test_cycles_partition_from_least_points_in_order(p):
    full = perm.cycles(p, include_fixed=True)
    points = [x for c in full for x in c]
    assert sorted(points) == list(range(len(p)))
    for c in full:
        assert c[0] == min(c)
        assert [p[x] for x in c] == c[1:] + c[:1]
    assert [c[0] for c in full] == sorted(c[0] for c in full)
    assert perm.cycles(p) == [c for c in full if len(c) > 1]


def mask_of(data, items):
    return data.draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))


@small
@given(perms, st.data())
def test_close_cycles_closes_each_run_and_fixes_the_rest(p, data):
    runs = perm.cycles(p)
    chosen = [c for c, keep in zip(runs, mask_of(data, runs)) if keep]
    out = perm.close_cycles(range(len(p)), chosen)
    on_runs = {x for c in chosen for x in c}
    assert {x: out[x] for x in on_runs} == {x: p[x] for x in on_runs}
    assert all(out[x] == x for x in range(len(p)) if x not in on_runs)


@small
@given(perms, st.data())
def test_complete_extends_a_partial_injection(p, data):
    assignment = {k: p[k] for k, keep in zip(range(len(p)), mask_of(data, p)) if keep}
    out = perm.complete(assignment, len(p))
    assert sorted(out) == list(range(len(p)))
    assert all(out[k] == v for k, v in assignment.items())
    rest = [out[k] for k in range(len(p)) if k not in assignment]
    assert rest == sorted(rest)


@small
@given(same_width)
def test_conjugator_pairs_equal_cycle_types(ts):
    t, r0 = ts
    s = perm.compose(perm.invert(r0), perm.compose(t, r0))
    r = perm.conjugator(t, s)
    assert r is not None
    assert perm.compose(perm.invert(r), perm.compose(t, r)) == s


@small
@given(same_width)
def test_conjugator_is_none_exactly_when_cycle_types_differ(ts):
    t, s = ts
    r = perm.conjugator(t, s)
    assert (r is None) == (cycle_type(t) != cycle_type(s))
    if r is not None:
        rho = WindowPerm(r)
        assert rho.inverse() * WindowPerm(t) * rho == WindowPerm(s)


# ---------------------------------------------------------------------------
# The groups built on it
# ---------------------------------------------------------------------------

@small
@given(perms, perms, exponents)
def test_window_perm_group_law_across_windows(a, b, n):
    pa, pb = WindowPerm(a), WindowPerm(b)
    points = range(max(len(a), len(b)) + 2)
    assert {i: (pa * pb)(i) for i in points} == {i: pa(pb(i)) for i in points}
    assert pa.inverse() * pa == E == pa * pa.inverse()
    assert {i: (pa ** n)(i) for i in range(len(a))} == dict_power(a, n)
    assert pa.cycles() == perm.cycles(a)


levels = st.integers(0, 3)
mpts = levels.flatmap(
    lambda lev: st.permutations(range(2 ** lev)).map(lambda p: DyadicMPT(lev, p))
)


@small
@given(mpts, mpts, exponents)
def test_dyadic_mpt_group_law_across_levels(t, s, n):
    points = [F(i, 16) for i in range(16)]
    ts = t * s
    assert [ts.apply_point(x) for x in points] == [
        t.apply_point(s.apply_point(x)) for x in points
    ]
    assert (t.inverse() * t).is_identity()
    assert as_dict((t ** n).perm) == dict_power(t.perm, n)
    conj = t.conj(s)
    assert [conj.apply_point(x) for x in points] == [
        s.inverse().apply_point(t.apply_point(s.apply_point(x))) for x in points
    ]


space = equilateral_space(3)
isometries = st.sampled_from(isometry_group(space))


@small
@given(isometries, isometries)
def test_space_isometry_group_law(a, b):
    assert [(a * b)(p) for p in space.points] == [a(b(p)) for p in space.points]
    assert (a.inverse() * a).is_identity()
    assert [b(a.conj(b)(p)) for p in space.points] == [a(b(p)) for p in space.points]

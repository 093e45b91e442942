"""Exact scalar arithmetic and the linear algebra kernel."""

import random
from fractions import Fraction

import pytest

from helpers import *  # noqa: F401,F403  (path setup)
from hodgepath.scalars import Field, QQ, Scalar, ScalarError
from hodgepath import linalg


def S(re, im=0):
    return Scalar(re, im, -1)


def test_scalar_arithmetic():
    a = S(Fraction(1, 2), 1)
    b = S(3, Fraction(-1, 3))
    assert a + b == S(Fraction(7, 2), Fraction(2, 3))
    assert a * b == S(Fraction(3, 2) + Fraction(1, 3), 3 - Fraction(1, 6))
    assert (a / b) * b == a
    assert a - a == S(0)
    assert not S(0)


def test_conjugation_is_involution_fixing_rationals():
    # (1 + i) -> (1 - i) -> (1 + i)
    z = S(1, 1)
    assert z.conjugate() == S(1, -1)
    assert z.conjugate().conjugate() == z
    r = S(Fraction(5, 7))
    assert r.conjugate() == r


def test_norm_positive_division():
    z = S(2, 3)
    assert z * z.inverse() == S(1)
    with pytest.raises(ZeroDivisionError):
        S(0).inverse()


def test_field_mixing_rejected():
    with pytest.raises(ScalarError):
        Scalar(1, 1, -1) * Scalar(1, 1, -2)
    # rational scalars are field-agnostic
    assert Scalar(2, 0, -1) * Scalar(1, 1, -2) == Scalar(2, 2, -2)


def test_field_objects():
    assert QQ.is_rational
    F = Field(-3)
    assert F.sqrt_d() * F.sqrt_d() == Scalar(-3, 0, -3)
    with pytest.raises(ScalarError):
        QQ.scalar(1, 1)


def combine(coeffs, rows, width):
    """sum_i coeffs[i] rows[i] of dense vectors."""
    out = [S(0)] * width
    for c, r in zip(coeffs, rows):
        out = [a + c * b for a, b in zip(out, r)]
    return out


def solve(rows, count, y):
    """linalg.solve on dense rows and a dense y; x comes back dense."""
    x, = linalg.solve(rows_of(rows), count, [row_of(y)])
    return None if x is None else dense_of(x, count)


def coords(space, v, width):
    """space.coords of the dense vector v, read back dense."""
    c = space.coords(row_of(v))
    return None if c is None else dense_of(c, width)


def test_kernel_of_ones_matrix():
    rows = [[S(1), S(1)], [S(1), S(1)]]
    k = linalg.left_kernel(rows_of(rows), 2)
    assert [dense_of(v, 2) for v in k] == [[S(-1), S(1)]]


def test_solve_scalar_equation():
    # 2 x = 3 over Q -> 3/2
    sol = solve([[S(2)]], 1, [S(3)])
    assert sol == [S(Fraction(3, 2))]
    assert solve([[S(0)]], 1, [S(3)]) is None


def test_rank_nullity():
    rng = random.Random(3)
    for _ in range(10):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[S(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)]
        cols = [[r[j] for r in rows] for j in range(m)]
        r = linalg.rank(rows_of(rows), m)
        assert linalg.rank(rows_of(cols), n) == r
        assert r + len(linalg.left_kernel(rows_of(rows), n)) == n
        assert r + len(linalg.left_kernel(rows_of(cols), m)) == m


def test_subquotient_canonical():
    rows_num = [[S(1), S(0), S(1)], [S(0), S(1), S(1)], [S(1), S(1), S(2)]]
    den = [[S(1), S(1), S(2)]]
    sq = linalg.Subquotient(rows_of(rows_num), rows_of(den), 3)
    assert sq.dim == 1
    c = coords(sq, [S(1), S(0), S(1)], 1)
    assert c is not None and len(c) == 1
    # denominator elements map to zero
    assert coords(sq, den[0], 1) == [S(0)]


def test_intersect():
    a = rows_of([[S(1), S(0)], [S(0), S(1)]])
    b = rows_of([[S(2), S(2)]])
    assert linalg.intersect(a, b, 2) == [{0: 1, 1: 1}]
    assert linalg.intersect(b, a, 2) == [{0: 1, 1: 1}]
    assert linalg.intersect(a[:1], a[1:], 2) == []
    assert linalg.intersect(a, [], 2) == []


def test_solve_deterministic_earliest_support():
    # underdetermined: x + y = 1 -> pivot on x, y = 0
    sol = solve([[S(1)], [S(1)]], 2, [S(1)])
    assert sol == [S(1), S(0)]


def _rand_scalar(rng, d):
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if d is None:
        return Scalar(re)
    return Scalar(re, Fraction(rng.randint(-2, 2), rng.randint(1, 2)), d)


@pytest.mark.parametrize("d", [None, -3])
def test_chart_coords_match_solve_on_transpose(d):
    rng = random.Random(7 if d is None else 8)
    outside = 0
    for _ in range(30):
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        basis = [[_rand_scalar(rng, d) for _ in range(n)] for _ in range(k)]
        if linalg.rank(rows_of(basis), n) < k:
            continue
        span = linalg.Span()
        assert all(span.add(b) for b in rows_of(basis))
        for _ in range(4):
            coeffs = [_rand_scalar(rng, d) for _ in range(k)]
            member = combine(coeffs, basis, n)
            assert coords(span, member, k) == solve(basis, k, member) == coeffs
            v = [_rand_scalar(rng, d) for _ in range(n)]
            ref = solve(basis, k, v)
            assert coords(span, v, k) == ref
            outside += ref is None
    assert outside > 0


def test_mat_inverse_via_solve():
    from hodgepath.hodge import _mat_inverse
    m = [[S(1), S(2)], [S(3), S(4, 1)]]
    inv = _mat_inverse(rows_of(m), 2)
    for i, row in enumerate(inv):
        assert combine(dense_of(row, 2), m, 2) == [S(int(i == j)) for j in range(2)]
    assert _mat_inverse(rows_of([[S(1), S(2)], [S(2), S(4)]]), 2) is None
    assert _mat_inverse(rows_of([[S(1), S(0)]]), 2) is None
    # a non-square matrix of full rank has no inverse either
    assert _mat_inverse(rows_of([[S(1), S(0)], [S(0), S(1)], [S(1), S(1)]]), 2) is None
    assert _mat_inverse([], 0) == []


def test_sub_space_coords_reject_constraint_breakers():
    from hodgepath.algebra import (AlgebraError, LinearMap, SubCdga,
                                   TableBasisElement, TableCdga)
    from hodgepath.filtered import FilteredComplex
    A = TableCdga([TableBasisElement("one", 0, weight=0),
                   TableBasisElement("a", 2, weight=1),
                   TableBasisElement("b", 2, weight=2)], 3, unit="one")
    # x_a = x_b on degree 2: the subspace is spanned by a + b
    diff = LinearMap(A, A, lambda x: A.from_key("a", x.coefficient("a") - x.coefficient("b")))
    sub = SubCdga(A, [diff])
    a, b = A.from_key("a"), A.from_key("b")
    fc = FilteredComplex(sub, "W")
    for space in (sub, fc):
        assert space.coords(a + b, 2) == {0: Fraction(1)}
        assert space.coords(A.zero(), 2) == {}
        with pytest.raises(AlgebraError):
            space.coords(a, 2)

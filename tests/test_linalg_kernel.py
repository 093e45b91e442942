"""Differential tests of the sparse elimination kernel in `hodgepath.linalg`.

The reference is the dense Gauss-Jordan kernel the library used before its
rows became sparse, kept here verbatim: the same pivot rule and operation
order on dense lists of Scalar.  Because the sparse kernel only skips exact
no-ops, every result must agree entry for entry, including the non-unique
tails of the partial eliminations behind `solve` and `Chart`.  Full-width
rational cases are also checked against sympy's `Matrix.rref` when sympy is
installed.
"""

import random
from fractions import Fraction

import pytest

from helpers import *  # noqa: F401,F403  (path setup)
from hodgepath import linalg
from hodgepath.linalg import unit_vec, vec_is_zero, vec_scale, zeros
from hodgepath.scalars import Scalar


# -- the dense reference kernel ------------------------------------------------

def mat_copy(rows):
    return [list(r) for r in rows]


def dense_rref(rows, ncols: int):
    """Reduced row echelon form.  Returns (reduced nonzero rows, pivot columns)."""
    R = mat_copy(rows)
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, len(R)):
            if not R[r][col].is_zero:
                sel = r
                break
        if sel is None:
            continue
        R[rank], R[sel] = R[sel], R[rank]
        inv = R[rank][col].inverse()
        R[rank] = [inv * a for a in R[rank]]
        for r in range(len(R)):
            if r != rank and not R[r][col].is_zero:
                c = R[r][col]
                R[r] = [a - c * b for a, b in zip(R[r], R[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(R):
            break
    return R[:rank], pivots


def dense_kernel_basis(rows, ncols: int):
    R, pivots = dense_rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = unit_vec(ncols, free)
        for r, p in zip(R, pivots):
            v[p] = -r[free]
        basis.append(v)
    return basis


def dense_solve(rows, ncols: int, rhs):
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    R, pivots = dense_rref(aug, ncols)
    x = zeros(ncols)
    for r, p in zip(R, pivots):
        x[p] = r[ncols]
    for row, b in zip(rows, rhs):
        acc = Scalar(0)
        for a, xi in zip(row, x):
            if not a.is_zero and not xi.is_zero:
                acc = acc + a * xi
        if acc != b:
            return None
    return x


def dense_reduce(v, rows, pivots):
    v = list(v)
    out = []
    for row, p in zip(rows, pivots):
        c = v[p]
        out.append(c)
        if not c.is_zero:
            v = [a - c * b for a, b in zip(v, row)]
    return v, out


class DenseChart:
    def __init__(self, basis, ncols: int):
        k = len(basis)
        self.ncols = ncols
        self.rows, self.pivots = dense_rref(
            [list(b) + vec_scale(Scalar(-1), unit_vec(k, i)) for i, b in enumerate(basis)],
            ncols)
        self._tail = zeros(k)

    def coords(self, v):
        w, _ = dense_reduce(list(v) + self._tail, self.rows, self.pivots)
        if not vec_is_zero(w[:self.ncols]):
            return None
        return w[self.ncols:]


class DenseSubquotient:
    def __init__(self, numerator, denominator, ncols: int):
        self.den_rref, self.den_pivots = dense_rref(denominator, ncols)
        reduced = [self.reduce_mod_den(v) for v in numerator]
        self.reps, self.rep_pivots = dense_rref(
            [v for v in reduced if not vec_is_zero(v)], ncols)

    def reduce_mod_den(self, v):
        return dense_reduce(v, self.den_rref, self.den_pivots)[0]

    def coords(self, v):
        v, out = dense_reduce(self.reduce_mod_den(v), self.reps, self.rep_pivots)
        if not vec_is_zero(v):
            return None
        return out


# -- seeded random matrices ----------------------------------------------------

FIELDS = [None, -3]


def _entry(rng, d, density):
    if rng.random() >= density:
        return Scalar(0, 0, d or -1)
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    im = Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if d else 0
    return Scalar(re, im, d or -1)


def _combine(rng, d, vectors, width):
    v = zeros(width)
    for b in vectors:
        v = linalg.vec_add(v, vec_scale(_entry(rng, d, 1.0), b))
    return v


def _matrix(rng, d, nrows, ncols):
    """Random rows at one density in 5-60 %, with zero, duplicate and dependent rows."""
    density = rng.choice([0.05, 0.15, 0.3, 0.6])
    rows = []
    for i in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append(zeros(ncols))
        elif kind < 0.2 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.35 and len(rows) >= 2:
            rows.append(_combine(rng, d, rng.sample(rows, 2), ncols))
        else:
            rows.append([_entry(rng, d, density) for _ in range(ncols)])
    return rows


def _cases(d, count=120):
    rng = random.Random(1000 if d is None else 2000)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (1, 6), (6, 1)]
    shapes += [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(count)]
    for nrows, ncols in shapes:
        yield rng, _matrix(rng, d, nrows, ncols), ncols


def _check_scalars(vectors):
    for v in vectors:
        assert all(isinstance(a, Scalar) for a in v)


# -- kernel versus reference ---------------------------------------------------

@pytest.mark.parametrize("d", FIELDS)
def test_rref_matches_dense_reference(d):
    partial = 0
    for rng, rows, ncols in _cases(d):
        got = linalg.rref(rows, ncols)
        assert got == dense_rref(rows, ncols)
        _check_scalars(got[0])
        # pivoting in a prefix of the columns only, as solve and Chart do
        k = rng.randint(0, ncols)
        got = linalg.rref(rows, k)
        assert got == dense_rref(rows, k)
        assert all(len(r) == ncols for r in got[0])
        partial += k < ncols and len(got[0]) > 0
    assert partial > 10


@pytest.mark.parametrize("d", FIELDS)
def test_rref_leaves_input_unchanged(d):
    for _, rows, ncols in _cases(d, count=20):
        before = [list(r) for r in rows]
        linalg.rref(rows, ncols)
        assert rows == before


@pytest.mark.parametrize("d", FIELDS)
def test_kernel_basis_matches_dense_reference(d):
    for _, rows, ncols in _cases(d):
        got = linalg.kernel_basis(rows, ncols)
        assert got == dense_kernel_basis(rows, ncols)
        _check_scalars(got)


@pytest.mark.parametrize("d", FIELDS)
def test_solve_matches_dense_reference(d):
    consistent = inconsistent = 0
    for rng, rows, ncols in _cases(d):
        x = [_entry(rng, d, 0.5) for _ in range(ncols)]
        for rhs in (linalg.mat_mul_vec(rows, x), [_entry(rng, d, 0.5) for _ in rows]):
            got = linalg.solve(rows, ncols, rhs)
            assert got == dense_solve(rows, ncols, rhs)
            if got is None:
                inconsistent += 1
            else:
                consistent += 1
                _check_scalars([got])
    assert consistent > 50 and inconsistent > 50


@pytest.mark.parametrize("d", FIELDS)
def test_chart_coords_match_dense_reference(d):
    members = outside = dependent = 0
    for rng, basis, ncols in _cases(d):
        chart, ref = linalg.Chart(basis, ncols), DenseChart(basis, ncols)
        assert chart.rank == len(ref.pivots)
        dependent += chart.rank < len(basis)
        for v in (_combine(rng, d, basis, ncols), [_entry(rng, d, 0.5) for _ in range(ncols)]):
            got = chart.coords(v)
            assert got == ref.coords(v)
            if got is None:
                outside += 1
            else:
                members += 1
                _check_scalars([got])
                assert len(got) == len(basis)
    assert members > 50 and outside > 20 and dependent > 20


@pytest.mark.parametrize("d", FIELDS)
def test_subquotient_matches_dense_reference(d):
    nonzero = outside = 0
    for rng, num, ncols in _cases(d):
        den = _matrix(rng, d, rng.randint(0, 4), ncols)
        if rng.random() < 0.5:
            # a denominator inside the numerator, as for cohomology
            den = [_combine(rng, d, rng.sample(num, min(2, len(num))), ncols) for _ in den]
        sq, ref = linalg.Subquotient(num, den, ncols), DenseSubquotient(num, den, ncols)
        assert sq.reps == ref.reps
        assert sq.dim == len(ref.reps)
        _check_scalars(sq.reps)
        nonzero += sq.dim > 0
        outsider = [_entry(rng, d, 0.5) for _ in range(ncols)]
        for v in (_combine(rng, d, num + den, ncols), outsider):
            got = sq.coords(v)
            assert got == ref.coords(v)
            assert sq.contains(v) == (got is not None)
            outside += got is None
    assert nonzero > 30 and outside > 20


def test_mixed_rational_and_irrational_operands():
    # a rational chart (bare Fraction rows) applied to an irrational vector
    basis = [[Scalar(1), Scalar(2)], [Scalar(0), Scalar(3)]]
    v = [Scalar(1, 1, -3), Scalar(Fraction(1, 2), -2, -3)]
    assert linalg.Chart(basis, 2).coords(v) == DenseChart(basis, 2).coords(v)
    sq = linalg.Subquotient(basis, [[Scalar(0), Scalar(1)]], 2)
    assert sq.coords(v) == DenseSubquotient(basis, [[Scalar(0), Scalar(1)]], 2).coords(v)


# -- sympy as an independent oracle --------------------------------------------

def test_rref_matches_sympy_over_q():
    sympy = pytest.importorskip("sympy")
    checked = 0
    for _, rows, ncols in _cases(None):
        if not rows or not ncols:
            continue
        M = sympy.Matrix([[sympy.Rational(a.re.numerator, a.re.denominator) for a in r]
                          for r in rows])
        ref, ref_pivots = M.rref()
        R, pivots = linalg.rref(rows, ncols)
        assert tuple(pivots) == tuple(ref_pivots)
        for i, r in enumerate(R):
            assert [Fraction(int(x.p), int(x.q)) for x in ref.row(i)] == [a.re for a in r]
        checked += 1
    assert checked > 100

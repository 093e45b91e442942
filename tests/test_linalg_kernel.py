"""Differential tests of the sparse elimination kernel in `hodgepath.linalg`.

The reference is the dense Gauss-Jordan kernel the library used before its
rows became sparse, kept here verbatim: the same pivot rule and operation
order on dense lists of Scalar, with its column-oriented `kernel_basis` and
`solve` (unknowns are columns).  The library takes every linear system in
the other orientation, row i being the image of unknown i, so its
`left_kernel` and `solve` are checked against the reference on the
transposed matrix.  The sparse kernel skips exact no-ops and, over Q, holds
each row as a non-zero integer multiple of the reference's row, so every
result must agree entry for entry, including the pivot-rule dependent tails
of the partial eliminations `_eliminate(rows, k)` behind `solve`.  `Span`
is checked against the reference's chart (the reduced [basis | -I]) over
the vectors it took.
Full-width rational cases are also checked against sympy's `Matrix.rref`
when sympy is installed.  The library takes and returns coefficient rows;
the dense references convert at this file's boundary (`row_of`, `dense_of`
in helpers), and `dense_of` checks that every row the library returns is in
the row format.
"""

import random
from fractions import Fraction

import pytest

from helpers import *  # noqa: F401,F403  (path setup)
from hodgepath import linalg
from hodgepath.scalars import Scalar


# -- dense vector helpers --------------------------------------------------------

def zeros(n):
    return [Scalar(0)] * n


def unit_vec(n, i):
    v = zeros(n)
    v[i] = Scalar(1)
    return v


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_scale(c, u):
    return [c * a for a in u]


def vec_is_zero(u):
    return all(a.is_zero for a in u)


def transpose(rows, ncols: int):
    """Columns of a matrix given by its rows; ncols fixes the shape when rows is empty."""
    return [[r[j] for r in rows] for j in range(ncols)]


def mat_mul_vec(rows, x):
    out = []
    for row in rows:
        acc = Scalar(0)
        for a, xi in zip(row, x):
            if not a.is_zero and not xi.is_zero:
                acc = acc + a * xi
        out.append(acc)
    return out


def combine_rows(x, rows, width):
    """sum_i x_i rows_i of a coefficient row x over dense rows."""
    total = zeros(width)
    for i, c in x.items():
        total = vec_add(total, vec_scale(dense_of({0: c}, 1)[0], rows[i]))
    return total


# -- the library's kernel, read back dense ---------------------------------------

def rref(rows, ncols: int):
    """`_eliminate` of dense rows, pivoting in the first ncols columns: dense rows, pivots."""
    width = len(rows[0]) if rows else ncols
    R, pivots = linalg._eliminate(rows_of(rows), ncols)
    out = []
    for r in R:
        # eliminated rows hold one coefficient type, so a rational Scalar may
        # stand in them over Q(sqrt d): they are read without dense_of's check
        v = zeros(width)
        for j, c in r.items():
            v[j] = c if type(c) is Scalar else Scalar(c)
        out.append(v)
    return out, pivots


def kernel_basis(rows, ncols: int):
    """{x : M x = 0} for the dense rows of M, through `left_kernel` of the columns of M."""
    return [dense_of(v, ncols)
            for v in linalg.left_kernel(rows_of(transpose(rows, ncols)), ncols)]


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
        v = vec_add(v, vec_scale(_entry(rng, d, 1.0), b))
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


def _swap_case(d):
    """A zero row above rows that the pivot swap reorders: [0, a, c, b].

    Pivoting column 0 on b swaps it with the zero row, which keeps a above c,
    so column 1 is pivoted on a; without the zero row it would be pivoted on
    c, whose tail past column 1 differs.
    """
    one = Scalar(1, 0, d or -1)
    z = zeros(3)
    return [z, [z[0], one, z[0]], [z[0], one, one], [one, z[0], z[0]]]


def _degenerate(rng, d):
    """The kernel's base cases as (rows, ncols): only zero rows, zero rows among
    non-zero ones, and one row.  No rows at all are among _cases' shapes."""
    def full(ncols):
        return [_entry(rng, d, 1.0) for _ in range(ncols)]

    yield [zeros(3)], 3
    yield [zeros(4)] * 3, 4
    yield [zeros(0)] * 2, 0
    yield [zeros(5), full(5), zeros(5), full(5), zeros(5)], 5
    yield [zeros(4)] + _matrix(rng, d, 5, 4) + [zeros(4)], 4
    yield _swap_case(d), 3
    yield [full(1)], 1
    yield [full(5)], 5
    yield [[Scalar(0)] + full(3)], 4
    yield [zeros(3) + full(2)], 5


def _cases(d, count=120):
    rng = random.Random(1000 if d is None else 2000)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (1, 6), (6, 1)]
    shapes += [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(count)]
    for nrows, ncols in shapes:
        yield rng, _matrix(rng, d, nrows, ncols), ncols
    for rows, ncols in _degenerate(rng, d):
        yield rng, rows, ncols


def _check_scalars(vectors):
    for v in vectors:
        assert all(isinstance(a, Scalar) for a in v)


def dense_or_none(row, width):
    return None if row is None else dense_of(row, width)


# -- kernel versus reference ---------------------------------------------------

@pytest.mark.parametrize("d", FIELDS)
def test_rref_matches_dense_reference(d):
    partial = one_row = 0
    for rng, rows, ncols in _cases(d):
        got = rref(rows, ncols)
        assert got == dense_rref(rows, ncols)
        assert linalg.rank(rows_of(rows), ncols) == len(got[1])
        _check_scalars(got[0])
        # pivoting in a prefix of the columns only, as solve does
        k = rng.randint(0, ncols)
        got = rref(rows, k)
        assert got == dense_rref(rows, k)
        assert linalg.rank(rows_of(rows), k) == len(got[1])
        assert all(len(r) == ncols for r in got[0])
        partial += k < ncols and len(got[0]) > 0
        if len(rows) == 1:
            # the rank of one row, which skips the elimination, in every prefix
            for k in range(ncols + 1):
                assert linalg.rank(rows_of(rows), k) == len(dense_rref(rows, k)[1])
            one_row += 1
    assert partial > 10
    assert one_row > 8
    swap = _swap_case(d)
    assert rref(swap, 2) == dense_rref(swap, 2)
    assert rref(swap, 2)[0][1] == [Scalar(0), Scalar(1), Scalar(0)]


@pytest.mark.parametrize("d", FIELDS)
def test_rref_leaves_input_unchanged(d):
    for _, rows, ncols in _cases(d, count=20):
        before = [list(r) for r in rows]
        sparse_rows = rows_of(rows)
        sparse_before = [dict(r) for r in sparse_rows]
        linalg._eliminate(sparse_rows, ncols)
        linalg.left_kernel(sparse_rows, len(rows))
        linalg.solve(sparse_rows, len(rows), [{}])
        assert sparse_rows == sparse_before
        rref(rows, ncols)
        assert rows == before


@pytest.mark.parametrize("d", FIELDS)
def test_kernel_basis_matches_dense_reference(d):
    for _, rows, ncols in _cases(d):
        got = kernel_basis(rows, ncols)
        assert got == dense_kernel_basis(rows, ncols)
        _check_scalars(got)


@pytest.mark.parametrize("d", FIELDS)
def test_solve_matches_dense_reference(d):
    # row i is the image of unknown i; the reference solves M x = y for the
    # transposed matrix M, whose columns are the rows
    consistent = inconsistent = 0
    for rng, rows, ncols in _cases(d):
        cols = transpose(rows, ncols)
        x = [_entry(rng, d, 0.5) for _ in rows]
        for y in (mat_mul_vec(cols, x), [_entry(rng, d, 0.5) for _ in range(ncols)]):
            # count > len(rows): the missing rows are zero
            for count in (len(rows), len(rows) + rng.randint(0, 2)):
                got, = linalg.solve(rows_of(rows), count, [row_of(y)])
                padded = [list(c) + zeros(count - len(rows)) for c in cols]
                want = dense_solve(padded, count, y)
                if got is None:
                    assert want is None
                    inconsistent += 1
                else:
                    got = dense_of(got, count)
                    assert got == want
                    consistent += 1
                    _check_scalars([got])
    assert consistent > 50 and inconsistent > 50


@pytest.mark.parametrize("d", FIELDS)
def test_solve_many_right_hand_sides_matches_one_at_a_time(d):
    # one elimination for all right-hand sides must give each one the answer
    # of its own system; two equal inconsistent right-hand sides catch a pivot
    # on one right-hand side hiding the inconsistency of the other
    consistent = inconsistent = repeated = 0
    for rng, rows, ncols in _cases(d):
        cols = transpose(rows, ncols)
        ys = [mat_mul_vec(cols, [_entry(rng, d, 0.5) for _ in rows]) for _ in range(2)]
        ys += [[_entry(rng, d, 0.5) for _ in range(ncols)] for _ in range(2)]
        bad = [y for y in ys if dense_solve(cols, len(rows), y) is None]
        if bad:
            ys += [list(bad[0]), list(bad[0])]
            repeated += 1
        rng.shuffle(ys)
        got = linalg.solve(rows_of(rows), len(rows), rows_of(ys))
        assert got == [linalg.solve(rows_of(rows), len(rows), [row_of(y)])[0] for y in ys]
        for x, y in zip(got, ys):
            assert dense_or_none(x, len(rows)) == dense_solve(cols, len(rows), y)
            consistent += x is not None
            inconsistent += x is None
    assert consistent > 100 and inconsistent > 100 and repeated > 50


def test_solve_rejects_a_target_no_row_touches():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(3)}]
    assert linalg.solve(rows, 2, [{0: Fraction(1), 1: Fraction(5)}]) == [{0: 1, 1: 1}]
    assert linalg.solve(rows, 2, [{0: Fraction(1), 4: Fraction(1)}]) == [None]
    # columns are any keys, as for the terms of algebra elements
    keyed = [{"a": Scalar(1, 1, -3)}, {"b": Fraction(2)}]
    assert linalg.solve(keyed, 2, [{"b": Fraction(4)}]) == [{1: 2}]
    assert linalg.solve(keyed, 2, [{"c": Fraction(1)}]) == [None]


def test_solve_with_no_unknowns():
    assert linalg.solve([], 0, [{}]) == [{}]
    assert linalg.solve([], 0, [{0: Fraction(1)}]) == [None]
    assert linalg.solve([], 0, [{2: Scalar(0, 1, -3)}]) == [None]
    # unknowns without rows have zero images
    assert linalg.solve([], 3, [{}]) == [{}]
    assert linalg.solve([], 3, [{0: Fraction(-1)}]) == [None]
    assert linalg.solve([], 3, []) == []


def span_of(basis, ncols: int):
    """A Span fed the dense basis, the vectors it took, and the reference over them.

    `add` must take exactly the vectors outside the span of those before
    them; the ones it takes are independent, so the reference's coordinates
    over them are unique.
    """
    span, taken, refused = linalg.Span(), [], []
    for b in basis:
        if span.add(row_of(b)):
            taken.append(b)
        else:
            refused.append((b, len(taken)))
    ref = DenseChart(taken, ncols)
    assert len(ref.pivots) == len(taken)
    for b, before in refused:
        # b is a combination of the vectors taken before it
        c = ref.coords(b)
        assert c is not None and vec_is_zero(c[before:])
    return span, taken, ref


@pytest.mark.parametrize("d", FIELDS)
def test_chart_coords_match_dense_reference(d):
    # Span.coords against the dense chart over the vectors the Span took
    members = outside = dependent = 0
    for rng, basis, ncols in _cases(d):
        span, taken, ref = span_of(basis, ncols)
        assert len(taken) == len(dense_rref(basis, ncols)[1])
        dependent += len(taken) < len(basis)
        coeffs = [_entry(rng, d, 0.7) for _ in taken]
        known = combine_rows(row_of(coeffs), taken, ncols)
        assert dense_or_none(span.coords(row_of(known)), len(taken)) == coeffs
        for v in (_combine(rng, d, basis, ncols), [_entry(rng, d, 0.5) for _ in range(ncols)]):
            got = dense_or_none(span.coords(row_of(v)), len(taken))
            assert got == ref.coords(v)
            if got is None:
                outside += 1
            else:
                members += 1
                _check_scalars([got])
                assert len(got) == len(taken)
    assert members > 50 and outside > 20 and dependent > 20


@pytest.mark.parametrize("d", FIELDS)
def test_subquotient_matches_dense_reference(d):
    nonzero = outside = 0
    for rng, num, ncols in _cases(d):
        den = _matrix(rng, d, rng.randint(0, 4), ncols)
        if rng.random() < 0.5:
            # a denominator inside the numerator, as for cohomology
            den = [_combine(rng, d, rng.sample(num, min(2, len(num))), ncols) for _ in den]
        outsider = [_entry(rng, d, 0.5) for _ in range(ncols)]
        vs = (_combine(rng, d, num + den, ncols), outsider)
        # and with an empty numerator or an empty denominator
        for n, dn in ((num, den), ([], den), (num, [])):
            sq = linalg.Subquotient(rows_of(n), rows_of(dn), ncols)
            ref = DenseSubquotient(n, dn, ncols)
            assert [dense_of(r, ncols) for r in sq.reps] == ref.reps
            assert sq.dim == len(ref.reps)
            nonzero += sq.dim > 0
            for v in vs:
                got = dense_or_none(sq.coords(row_of(v)), sq.dim)
                assert got == ref.coords(v)
                outside += got is None
    assert nonzero > 30 and outside > 20


def test_mixed_rational_and_irrational_operands():
    # a rational span (bare Fraction rows) applied to an irrational vector
    basis = [[Scalar(1), Scalar(2)], [Scalar(0), Scalar(3)]]
    v = [Scalar(1, 1, -3), Scalar(Fraction(1, 2), -2, -3)]
    span, taken, ref = span_of(basis, 2)
    assert taken == basis
    assert dense_of(span.coords(row_of(v)), 2) == ref.coords(v)
    sq = linalg.Subquotient(rows_of(basis), rows_of([[Scalar(0), Scalar(1)]]), 2)
    got = sq.coords(row_of(v))
    assert dense_of(got, 1) == DenseSubquotient(basis, [[Scalar(0), Scalar(1)]], 2).coords(v)


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
        R, pivots = rref(rows, ncols)
        assert tuple(pivots) == tuple(ref_pivots)
        assert linalg.rank(rows_of(rows), ncols) == M.rank()
        for i, r in enumerate(R):
            assert [Fraction(int(x.p), int(x.q)) for x in ref.row(i)] == [a.re for a in r]
        checked += 1
    assert checked > 100


# -- matrices shaped like the ones cohomology reduces ---------------------------

# pairwise coprime denominators, so that the lcm and content steps of the
# integer elimination over Q really run
PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
SHAPES = [(155, 80), (80, 155), (119, 80), (92, 50)]


def _prime_fraction(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 97), rng.choice(PRIMES))


def _shaped(seed, nrows, ncols):
    """Rows at 0.5-2 % density over Q, at least one entry each, some dependent."""
    rng = random.Random(seed)
    density = rng.choice([0.005, 0.01, 0.02])
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.15 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            rows.append(vec_add(vec_scale(Scalar(_prime_fraction(rng)), a),
                                vec_scale(Scalar(_prime_fraction(rng)), b)))
            continue
        row = zeros(ncols)
        for j in range(ncols):
            if rng.random() < density:
                row[j] = Scalar(_prime_fraction(rng))
        row[rng.randrange(ncols)] = Scalar(_prime_fraction(rng))
        rows.append(row)
    return rows


@pytest.mark.parametrize("shape", SHAPES)
def test_shaped_rref_matches_dense_reference(shape):
    nrows, ncols = shape
    rows = _shaped(100 * nrows, nrows, ncols)
    assert rref(rows, ncols) == dense_rref(rows, ncols)
    # partial eliminations of dependent rows: their tails follow the pivot
    # rule, and their denominators show that rows were combined
    for k in (ncols // 3, ncols // 2):
        R, pivots = rref(rows, k)
        assert (R, pivots) == dense_rref(rows, k)
        assert any(a.re.denominator > 97 for r in R for a in r)


@pytest.mark.parametrize("shape", SHAPES)
def test_shaped_kernels_and_charts_match_dense_reference(shape):
    nrows, ncols = shape
    rows = _shaped(7 * nrows + ncols, nrows, ncols)
    assert kernel_basis(rows, ncols) == dense_kernel_basis(rows, ncols)
    left = [dense_of(v, nrows) for v in linalg.left_kernel(rows_of(rows), nrows)]
    assert left == dense_kernel_basis(transpose(rows, ncols), nrows)
    basis = rows[:ncols // 2]
    span, taken, ref = span_of(basis, ncols)
    assert len(taken) < len(basis)  # a dependent basis: add refuses the dependent rows
    rng = random.Random(nrows)
    for _ in range(3):
        v = _combine(rng, None, rng.sample(basis, 3), ncols)
        got = span.coords(row_of(v))
        assert got is not None and dense_of(got, len(taken)) == ref.coords(v)


def test_shaped_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rows = _shaped(11, 92, 50)
    M = sympy.Matrix([[sympy.Rational(a.re.numerator, a.re.denominator) for a in r]
                      for r in rows])
    ref, ref_pivots = M.rref()
    R, pivots = rref(rows, 50)
    assert tuple(pivots) == tuple(ref_pivots)
    for i, r in enumerate(R):
        assert [Fraction(int(x.p), int(x.q)) for x in ref.row(i)] == [a.re for a in r]


# -- left_kernel ----------------------------------------------------------------

@pytest.mark.parametrize("d", FIELDS)
def test_left_kernel_matches_kernel_of_transpose(d):
    for rng, rows, ncols in _cases(d):
        # count > len(rows): the missing rows are zero
        for count in (len(rows), len(rows) + rng.randint(1, 3)):
            padded = rows + [zeros(ncols)] * (count - len(rows))
            want = dense_kernel_basis(transpose(padded, ncols), count)
            got = linalg.left_kernel(rows_of(rows), count)
            assert [dense_of(v, count) for v in got] == want
            assert want == kernel_basis(transpose(padded, ncols), count)


def test_left_kernel_of_no_rows_is_everything():
    assert linalg.left_kernel([], 0) == []
    got = [dense_of(v, 3) for v in linalg.left_kernel([], 3)]
    assert got == [unit_vec(3, i) for i in range(3)]


# -- intersect ------------------------------------------------------------------

def _second_side(rng, d, a, ncols):
    """A second span for a: empty, zero rows, partly inside span(a), or random."""
    kind = rng.random()
    if kind < 0.2:
        return []
    if kind < 0.3:
        return [zeros(ncols)] * rng.randint(1, 3)
    if kind < 0.6:
        inside = [_combine(rng, d, rng.sample(a, min(2, len(a))), ncols)
                  for _ in range(rng.randint(1, 3))]
        return inside + _matrix(rng, d, rng.randint(0, 2), ncols)
    return _matrix(rng, d, rng.randint(0, 5), ncols)


@pytest.mark.parametrize("d", FIELDS)
def test_intersect_matches_dense_reference(d):
    # reduced rows that lie in both spans, as many as rank a + rank b - rank (a, b),
    # are the reduced echelon basis of the intersection
    meets = empty = 0
    for rng, a, ncols in _cases(d):
        b = _second_side(rng, d, a, ncols)
        for x, y in ((a, b), (b, a)):
            got = [dense_of(r, ncols) for r in linalg.intersect(rows_of(x), rows_of(y), ncols)]
            dim = (len(dense_rref(x, ncols)[1]) + len(dense_rref(y, ncols)[1])
                   - len(dense_rref(x + y, ncols)[1]))
            assert len(got) == dim
            assert dense_rref(got, ncols)[0] == got
            for v in got:
                assert DenseChart(x, ncols).coords(v) is not None
                assert DenseChart(y, ncols).coords(v) is not None
            meets += dim > 0
            empty += not any(map(row_of, y))
    assert meets > 30 and empty > 30


def test_intersect_dimension_matches_sympy_over_q():
    sympy = pytest.importorskip("sympy")

    def rank(rows):
        if not rows or not rows[0]:
            return 0
        return sympy.Matrix([[sympy.Rational(a.re.numerator, a.re.denominator) for a in r]
                             for r in rows]).rank()

    checked = 0
    for rng, a, ncols in _cases(None):
        b = _second_side(rng, None, a, ncols)
        got = linalg.intersect(rows_of(a), rows_of(b), ncols)
        assert len(got) == rank(a) + rank(b) - rank(a + b)
        checked += len(got) > 0
    assert checked > 15


def test_empty_systems_are_answered_without_elimination(monkeypatch):
    # free_kernel without equations and intersect with an empty side do not
    # call the elimination at all, not even on an empty row list
    real = linalg._eliminate
    seen = []

    def spy(rows, ncols):
        rows = list(rows)
        seen.append(rows)
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    for d in FIELDS:
        for _, rows, ncols in _cases(d, count=30):
            sparse = rows_of(rows)
            for count in (0, len(rows), len(rows) + 2):
                for none in ([], [{}], [{}] * count):
                    got = linalg.free_kernel(none, count)
                    assert got == {i: {i: 1} for i in range(count)}
                    assert all(type(c) is Fraction for v in got.values() for c in v.values())
                    assert linalg.left_kernel(none, count) == list(got.values())
            for empty in ([], [{}], [{}] * 3):
                assert linalg.intersect(sparse, empty, ncols) == []
                assert linalg.intersect(empty, sparse, ncols) == []
    assert seen == []


def test_the_rank_of_one_row_is_answered_without_elimination(monkeypatch):
    # one row has rank 1 when it has an entry in a pivot column, 0 otherwise;
    # the elimination is taken away, so a call to it raises
    monkeypatch.setattr(linalg, "_eliminate", None)
    for d in FIELDS:
        for _, rows, ncols in _cases(d):
            if len(rows) == 1:
                row = rows_of(rows)[0]
                for k in range(ncols + 1):
                    assert linalg.rank([row], k) == int(any(j < k for j in row))
    assert linalg.rank([{}], 4) == 0
    assert linalg.rank([{7: Fraction(2)}], 4) == 0
    assert linalg.rank([{3: Fraction(2), 7: Fraction(1)}], 4) == 1


@pytest.mark.parametrize("d", FIELDS)
def test_stored_rows_hold_one_coefficient_type(d):
    other = None if d else -3
    for rng, rows, ncols in _cases(d, count=60):
        # a denominator over the other field mixes Fractions and Scalars while
        # the numerator is reduced; the stored rows must not mix them
        den = _matrix(rng, other, rng.randint(0, 4), ncols)
        sq = linalg.Subquotient(rows_of(rows), rows_of(den), ncols)
        sq2 = linalg.Subquotient(rows_of(den), rows_of(rows), ncols)
        eliminated = linalg._eliminate(rows_of(rows), ncols)[0]
        for row in sq._den + sq._reps + sq2._den + sq2._reps + eliminated:
            assert len({type(a) for a in row.values()}) <= 1
            assert all(a for a in row.values())


# -- exact properties, as derandomized hypothesis tests --------------------------

def _hypothesis_matrices(st, d):
    """(rows, ncols, x): up to 7 x 7 entries, half of them zero, over Q or Q(sqrt d),
    and one coefficient per row."""
    nonzero = st.builds(
        lambda n, den, im: Scalar(Fraction(n, den), im if d else 0, d or -1),
        st.integers(-5, 5), st.integers(1, 7), st.integers(-2, 2))
    entry = st.one_of(st.just(Scalar(0)), nonzero)
    return st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
        lambda shape: st.tuples(
            st.lists(st.lists(entry, min_size=shape[1], max_size=shape[1]),
                     min_size=shape[0], max_size=shape[0]),
            st.just(shape[1]),
            st.lists(entry, min_size=shape[0], max_size=shape[0])))


def _property_test(check):
    """Run check(rows, ncols, x) over derandomized hypothesis matrices, both fields."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    for d in FIELDS:
        hypothesis.settings(derandomize=True, max_examples=80, deadline=None, database=None)(
            hypothesis.given(_hypothesis_matrices(st, d))(
                lambda case: check(*case)))()


def test_property_kernel_vectors_are_annihilated():
    def check(rows, ncols, _):
        kernel = kernel_basis(rows, ncols)
        for v in kernel:
            assert vec_is_zero(mat_mul_vec(rows, v))
        assert linalg.rank(rows_of(rows), ncols) + len(kernel) == ncols
    _property_test(check)


def test_property_left_kernel_vectors_are_annihilated():
    def check(rows, ncols, _):
        kernel = linalg.left_kernel(rows_of(rows), len(rows))
        for x in kernel:
            assert_row(x, len(rows))
            assert vec_is_zero(combine_rows(x, rows, ncols))
        assert linalg.rank(rows_of(rows), ncols) + len(kernel) == len(rows)
    _property_test(check)


def test_property_solve_satisfies_the_system():
    def check(rows, ncols, x0):
        y = combine_rows(row_of(x0), rows, ncols)
        x, = linalg.solve(rows_of(rows), len(rows), [row_of(y)])
        assert x is not None and combine_rows(x, rows, ncols) == y
    _property_test(check)


# -- SubCdga.constraint_kernel against the column-oriented reference ------------

def _keyed_target(c):
    from hodgepath import SubCdga
    return c.target.ambient if isinstance(c.target, SubCdga) else c.target


def reference_constraint_kernel(S, elements, n):
    """The former SubCdga basis solve: constraint coordinates per degree, transposed."""
    rows = []
    for c in S.constraints:
        imgs = [c(e) for e in elements]
        T = _keyed_target(c)
        for m in sorted({x.degree() for x in imgs if not x.is_zero}):
            width = T.dim(m, strict=False)
            vecs = [dense_of(T.coords(x if x.degree() == m else T.zero(), m, strict=False), width)
                    for x in imgs]
            rows.extend(transpose(vecs, T.dim(m, strict=False)))
    return dense_kernel_basis(rows, len(elements))


def _constraint_spaces():
    from helpers import rho_ms2_s2
    from hodgepath import DoublePath, identity_morphism, mapping_path, path_of
    from hodgepath.lifting import boundary_square_target
    from hodgepath.paths import induced_to_double_path
    M, A, rho = rho_ms2_s2(5)
    dp = DoublePath(rho, rho, budget=2)
    # a mapping path into a subalgebra: the one the double-path branch of
    # homotopy_between_lifts builds
    into_sub = mapping_path(induced_to_double_path(rho, dp, path_of(M, 2)), budget=2)
    return {"mapping_path": mapping_path(rho, budget=2).space,
            "double_path": dp.space,
            "mapping_path_into_subalgebra": into_sub.space,
            "path_of_mapping_path": path_of(mapping_path(identity_morphism(A), 2).space, 2),
            "square_boundary": boundary_square_target(path_of(A, 2))[0]}


@pytest.mark.parametrize("name", ["mapping_path", "double_path", "mapping_path_into_subalgebra",
                                  "path_of_mapping_path", "square_boundary"])
def test_constraint_kernel_matches_kernel_of_transpose(name):
    S = _constraint_spaces()[name]
    rng = random.Random(name)
    checked = 0
    for n in range(0, 3):
        basis = S.ambient.basis(n, strict=False)
        # the full ambient basis, as SubCdga.basis takes it, a subset of it,
        # as the filtered layer takes it, and combinations of it
        some = basis[::2]
        mixed = [S.ambient.random_element(n, rng) for _ in range(4)]
        for elements in (basis, some, mixed):
            got = [dense_of(v, len(elements)) for v in S.constraint_kernel(elements)]
            assert got == reference_constraint_kernel(S, elements, n)
            checked += len(got) > 0
    assert checked >= 3
    # a basis element meets every constraint
    for n in range(0, 3):
        for b in S.basis(n):
            for c in S.constraints:
                assert c(b).is_zero

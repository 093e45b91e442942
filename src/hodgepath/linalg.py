"""Exact linear algebra over Q and Q(sqrt d), on one sparse elimination kernel.

Rows go in and come out sparse: a coefficient row is a dict {column: coeff}
without zeros, made by `sparse` from dense Scalar vectors or {column: Scalar}
dicts and turned back by `dense`.  Rational coefficients are bare Fractions,
the others Scalars; `_reduce` serves both and a mix of the two.

A linear system enters in one orientation: row i is the image of unknown i.
`left_kernel(rows, count)` is {x : sum_i x_i rows_i = 0} and
`solve(rows, count, y)` one x with sum_i x_i rows_i = y; both read their
equations, one per column, through `_columns`.  Columns may be any hashable
keys, so a caller can pass the terms of algebra elements as rows.

`_eliminate` is Gauss-Jordan with the deterministic first-nonzero rule: the
first row at or below the rank with a non-zero in the column becomes the
pivot row and clears that column in every other row.  When every coefficient
is a Fraction it runs on primitive integer rows (scaled by the lcm of their
denominators, divided by the gcd of their entries), clears with
row <- (pv/g) row - (c/g) prow, g = gcd(pv, c), makes the row primitive
again, and divides by the pivot only when it emits a row.  By induction every
such row is a non-zero multiple of the row Fraction elimination holds at the
same step, so the zero patterns, the pivot rows and the emitted rows are the
same, entry for entry.  Otherwise it runs the Scalar loop, which normalises
each pivot row when it is chosen.

A full elimination gives the unique reduced row echelon form, so kernels,
ranks, intersections and `Subquotient` reps do not depend on the order of
the equations, and on a consistent system `solve`'s answer (free unknowns
zero) is unique.  Only a `Chart` over a dependent basis depends on the pivot
rule.  Entries are exact, so every kernel/image/solve is a certificate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import Scalar, _scalar

_ZERO = Fraction(0)
_ONE = Fraction(1)
# The zero entry of every vector zeros() hands out.  Scalars are immutable, so
# one object serves them all, and the loops below skip it by identity.
_ZERO_SCALAR = _scalar(_ZERO, _ZERO, -1)


def zeros(n: int) -> list:
    return [_ZERO_SCALAR] * n


def unit_vec(n: int, i: int) -> list:
    v = zeros(n)
    v[i] = Scalar(1)
    return v


def sparse(rows):
    """Coefficient rows {col: coeff} of dense Scalar rows or {col: Scalar} dicts.

    Zeros are dropped, rational entries become bare Fractions and the others
    stay Scalars.
    """
    out = []
    for r in rows:
        row = {}
        for j, a in (r.items() if type(r) is dict else enumerate(r)):
            if a is not _ZERO_SCALAR:
                if a.im:
                    row[j] = a
                elif a.re:
                    row[j] = a.re
        out.append(row)
    return out


def dense(row, width: int) -> list:
    """Dense Scalar vector of a coefficient row."""
    v = zeros(width)
    for j, c in row.items():
        v[j] = c if isinstance(c, Scalar) else _scalar(c, _ZERO, -1)
    return v


def _sub_multiple(row, c, prow):
    """row -= c * prow in place on sparse rows, dropping entries that cancel."""
    for j, b in prow.items():
        a = row.get(j)
        if a is None:
            row[j] = -(c * b)
        else:
            a = a - c * b
            if a:
                row[j] = a
            else:
                del row[j]


def _primitive(row):
    """Divide an integer row in place by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _eliminate(rows, ncols: int):
    """Reduced row echelon form of coefficient rows: (rows, pivot columns).

    Pivots are taken in the first ncols columns only; further columns are
    carried along.  The input is not changed.  Fraction rows come out when
    every coefficient is a Fraction, Scalar rows otherwise.
    """
    R = list(map(dict, rows))
    rational = True
    for row in R:
        for a in row.values():
            if type(a) is not Fraction:
                rational = False
    for row in R:
        if rational:
            m = 1
            for a in row.values():
                m = lcm(m, a.denominator)
            for j, a in row.items():
                row[j] = a.numerator * (m // a.denominator)
            _primitive(row)
        else:
            for j, a in row.items():
                if type(a) is not Scalar:
                    row[j] = _scalar(a, _ZERO, -1)
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, len(R)):
            if col in R[i]:
                sel = i
                break
        if sel is None:
            continue
        R[rank], R[sel] = R[sel], R[rank]
        prow = R[rank]
        if rational:
            pv = prow[col]
            for i, row in enumerate(R):
                c = row.get(col)
                if c is not None and i != rank:
                    # row <- (pv/g) row - (c/g) prow, then divided by its content
                    g = gcd(pv, c)
                    scale = pv // g
                    if scale != 1:
                        for j in row:
                            row[j] *= scale
                    _sub_multiple(row, c // g, prow)
                    _primitive(row)
        else:
            inv = 1 / prow[col]
            for j in prow:
                prow[j] = inv * prow[j]
            for i, row in enumerate(R):
                c = row.get(col)
                if c is not None and i != rank:
                    _sub_multiple(row, c, prow)
        pivots.append(col)
        rank += 1
        if rank == len(R):
            break
    if rational:
        for row, p in zip(R, pivots):
            pv = row[p]
            for j in row:
                row[j] = Fraction(row[j], pv)
    return R[:rank], pivots


def rank(rows, ncols: int) -> int:
    return len(_eliminate(sparse(rows), ncols)[1])


def _kernel(R, pivots, ncols: int):
    """Sparse basis of the null space of eliminated rows, one vector per free column."""
    pivot_set = set(pivots)
    basis = {}
    for free in range(ncols):
        if free not in pivot_set:
            basis[free] = {free: _ONE}
    for r, p in zip(R, pivots):
        for j, c in r.items():
            v = basis.get(j)
            if v is not None:
                v[p] = -c
    return list(basis.values())


def _columns(rows):
    """The equations of indexed coefficient rows, one per column.

    rows is an iterable of (index, row) pairs; each column j becomes the
    coefficient row {index: row[j]} over the row indices.
    """
    cols = {}
    for i, r in rows:
        for j, a in r.items():
            col = cols.get(j)
            if col is None:
                cols[j] = {i: a}
            else:
                col[i] = a
    return list(cols.values())


def left_kernel(rows, count: int):
    """Basis of {x in k^count : sum_i x_i rows_i = 0}, as coefficient rows.

    rows are coefficient rows; rows past len(rows) count as zero.  Free
    unknowns are taken in increasing order, and each kernel vector has a 1 at
    its free unknown, so the basis is deterministic.
    """
    # a full elimination does not depend on the order of the equations
    return _kernel(*_eliminate(_columns(enumerate(rows)), count), count)


def solve(rows, count: int, y):
    """Coefficient row x with sum_i x_i rows_i = y, or None if there is none.

    rows and y are coefficient rows; rows past len(rows) count as zero.  Free
    unknowns are set to zero, so x is supported on the earliest possible
    unknowns (deterministic tie-break).
    """
    pairs = list(enumerate(rows))
    pairs.append((count, y))
    R, pivots = _eliminate(_columns(pairs), count + 1)
    # a pivot on the right-hand side is an equation 0 = y_j with y_j != 0
    if pivots and pivots[-1] == count:
        return None
    x = {}
    for r, p in zip(R, pivots):
        c = r.get(count)
        if c is not None:
            x[p] = c
    return x


def intersect(rows_a, rows_b, ncols: int):
    """Reduced echelon coefficient rows of span(rows_a) ∩ span(rows_b).

    Each relation x·a + y·b = 0 gives x·a = -y·b, a vector of both spans,
    and these vectors span the intersection.
    """
    out = []
    for k in left_kernel(list(rows_a) + list(rows_b), len(rows_a) + len(rows_b)):
        v = {}
        for i, c in k.items():
            if i < len(rows_a):
                _sub_multiple(v, -c, rows_a[i])
        if v:
            out.append(v)
    return _eliminate(out, ncols)[0]


def _reduce(v, rows, pivots):
    """Clear sparse v in place at the pivots of sparse rref rows.

    Returns the coefficient taken per row, as a sparse {row index: coeff}.
    """
    taken = {}
    for i, (row, p) in enumerate(zip(rows, pivots)):
        c = v.get(p)
        if c is not None:
            taken[i] = c
            _sub_multiple(v, c, row)
    return taken


class Span:
    """A growing span of vectors, kept as sparse echelon rows.

    Rows stay in insertion order.  Each added vector is reduced by the rows
    before it, so it is zero at their pivots, and is then normalised to 1 at
    its first non-zero column, its pivot.  Reducing by the rows in order
    therefore clears every pivot, and leaves zero exactly on the span.
    """

    def __init__(self):
        self._rows = []
        self._pivots = []

    def add(self, v) -> bool:
        """Add the dense vector v; True iff v was outside the span so far."""
        w = sparse([v])[0]
        _reduce(w, self._rows, self._pivots)
        if not w:
            return False
        p = min(w)
        inv = 1 / w[p]
        self._rows.append({j: inv * a for j, a in w.items()})
        self._pivots.append(p)
        return True


class Chart:
    """Coordinates over a fixed basis of dense vectors of length ncols, eliminated once.

    The reduced [basis | -I], pivoting in the first ncols columns only, has
    rows [E | -T] with E = T * basis.  Reducing [v | 0] by them leaves
    [r | x]: v is in the span iff r = 0, and then v = x * basis.  For an
    independent basis x is the unique coordinate vector.
    """

    def __init__(self, basis, ncols: int):
        self.ncols = ncols
        self._k = len(basis)
        rows = sparse(basis)
        for i, row in enumerate(rows):
            row[ncols + i] = -_ONE
        self._rows, self._pivots = _eliminate(rows, ncols)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def coords(self, v):
        """Coefficients of the dense vector v over the basis, or None if v is outside its span."""
        w = sparse([v])[0]
        _reduce(w, self._rows, self._pivots)
        if any(j < self.ncols for j in w):
            return None
        return dense({j - self.ncols: c for j, c in w.items()}, self._k)


class Subquotient:
    """Exact subquotient span(numerator) / span(denominator) of a coordinate space.

    Numerator and denominator are coefficient rows (see `sparse`).
    Representatives are the reduced numerator modulo the denominator, hence
    canonical: two runs produce identical reps.  Both eliminated bases are
    kept as the kernel's sparse rows.
    """

    def __init__(self, numerator, denominator, ncols: int):
        self.ncols = ncols
        self._den, self._den_pivots = _eliminate(denominator, ncols)
        reduced = list(map(dict, numerator))
        for v in reduced:
            _reduce(v, self._den, self._den_pivots)
        self._reps, self._rep_pivots = _eliminate([v for v in reduced if v], ncols)

    def quotient_by(self, rows):
        """span(numerator) / (span(denominator) + span(rows)), rows coefficient rows.

        The reps and coordinates are those of a fresh Subquotient of the
        original numerator over the enlarged denominator: the reduced
        numerator spans the same space modulo the denominator, and reduced
        echelon forms are unique.
        """
        return Subquotient(self._reps, self._den + list(rows), self.ncols)

    @property
    def dim(self) -> int:
        return len(self._reps)

    @property
    def reps(self) -> list:
        """The canonical representatives, as dense vectors."""
        return [dense(r, self.ncols) for r in self._reps]

    def coords(self, v):
        """Coordinates of [v] in the representative basis; None if v not in num+den.

        v is a dense vector.
        """
        w = sparse([v])[0]
        _reduce(w, self._den, self._den_pivots)
        taken = _reduce(w, self._reps, self._rep_pivots)
        if w:
            return None
        return dense(taken, self.dim)

    def contains(self, v) -> bool:
        return self.coords(v) is not None


def is_isomorphism(rows, src_dim: int, dst_dim: int) -> bool:
    if src_dim != dst_dim:
        return False
    if src_dim == 0:
        return True
    return rank(rows, dst_dim) == dst_dim

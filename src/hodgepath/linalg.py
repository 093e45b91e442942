"""Exact linear algebra over Q and Q(sqrt d), on one sparse elimination kernel.

The API speaks dense: vectors are lists of Scalar and matrices are lists of
row vectors, in and out.  Inside, `rref` eliminates sparse rows {column:
coefficient} and touches only non-zero entries; `Chart` and `Subquotient`
keep their reduced bases as such sparse rows, and `Span` grows its basis
one row at a time, testing each new vector by one reduction.  When every
entry of a matrix is rational the coefficients are bare Fractions (the fast
path), otherwise they stay Scalars; the same code serves both, since 1 / x,
*, - and truthiness work on either, and on a mix of the two.

Pivoting is Gauss-Jordan with the deterministic first-nonzero rule: the
first row at or below the current rank with a non-zero in the column is
swapped into place, normalised and used to clear that column in every other
row.  Skipping zero entries only skips exact no-ops, so results are entry
for entry those of dense elimination under the same rule, including the
non-unique tails of partial eliminations (`solve`, `Chart`).  Entries are
exact field elements, so every kernel/image/solve is a certificate.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, _scalar

_ZERO = Fraction(0)
# The zero entry of every vector zeros() hands out.  Scalars are immutable, so
# one object serves them all, and the loops below skip it by identity.
_ZERO_SCALAR = _scalar(_ZERO, _ZERO, -1)


def zeros(n: int) -> list:
    return [_ZERO_SCALAR] * n


def unit_vec(n: int, i: int) -> list:
    v = zeros(n)
    v[i] = Scalar(1)
    return v


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_scale(c, u):
    return [c * a for a in u]


def vec_is_zero(u) -> bool:
    return all(a.is_zero for a in u)


def transpose(rows, ncols: int):
    """Columns of a matrix given by its rows; ncols fixes the shape when rows is empty."""
    return [[r[j] for r in rows] for j in range(ncols)]


def _sparse(rows):
    """Sparse copies {col: coeff} of dense Scalar rows, zeros dropped.

    The coefficients are bare Fractions when every entry is rational and
    Scalars otherwise; the elimination below serves both unchanged.  One pass
    reads each entry once and starts over with Scalar rows at the first
    irrational entry.
    """
    out = []
    for r in rows:
        row = {}
        for j, a in enumerate(r):
            if a is _ZERO_SCALAR:
                continue
            if a.im:
                return [{j: a for j, a in enumerate(r) if a} for r in rows]
            if a.re:
                row[j] = a.re
        out.append(row)
    return out


def _dense(row, width: int) -> list:
    """Dense Scalar vector of a sparse row."""
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


def rref(rows, ncols: int):
    """Reduced row echelon form.  Returns (reduced nonzero rows, pivot columns).

    Pivots are taken in the first ncols columns only; further columns (an
    augmented right-hand side) are carried along.
    """
    width = len(rows[0]) if rows else ncols
    R = _sparse(rows)
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, len(R)):
            if col in R[r]:
                sel = r
                break
        if sel is None:
            continue
        R[rank], R[sel] = R[sel], R[rank]
        inv = 1 / R[rank][col]
        prow = R[rank] = {j: inv * a for j, a in R[rank].items()}
        for r, row in enumerate(R):
            c = row.get(col)
            if c is not None and r != rank:
                _sub_multiple(row, c, prow)
        pivots.append(col)
        rank += 1
        if rank == len(R):
            break
    return [_dense(r, width) for r in R[:rank]], pivots


def rank(rows, ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def kernel_basis(rows, ncols: int):
    """Basis of the right null space {x : M x = 0}, rows = rows of M.

    Free variables are taken in increasing column order; each kernel vector has
    a 1 in its free column, so the basis is deterministic.
    """
    R, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = unit_vec(ncols, free)
        for r, p in zip(R, pivots):
            if r[free] is not _ZERO_SCALAR:
                v[p] = -r[free]
        basis.append(v)
    return basis


def solve(rows, ncols: int, rhs):
    """One solution x of M x = rhs, or None if inconsistent.

    Free variables are set to zero, so the solution is supported on the
    earliest possible pivot columns (deterministic tie-break).
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    R, pivots = rref(aug, ncols)  # never pivot on the rhs column
    x = zeros(ncols)
    for r, p in zip(R, pivots):
        x[p] = r[ncols]
    # consistency: rows of R beyond pivots were dropped by rref; recheck directly
    for row, b in zip(rows, rhs):
        acc = Scalar(0)
        for a, xi in zip(row, x):
            if not a.is_zero and not xi.is_zero:
                acc = acc + a * xi
        if acc != b:
            return None
    return x


def mat_mul_vec(rows, x):
    out = []
    for row in rows:
        acc = Scalar(0)
        for a, xi in zip(row, x):
            if not a.is_zero and not xi.is_zero:
                acc = acc + a * xi
        out.append(acc)
    return out


def span_dim(vectors, ncols: int) -> int:
    return rank(vectors, ncols)


def intersect(basis_a, basis_b, ncols: int):
    """Basis of span(a) ∩ span(b) via the kernel of [A^T | B^T] stacking."""
    if not basis_a or not basis_b:
        return []
    cols = len(basis_a) + len(basis_b)
    rows = transpose(list(basis_a) + [[-c for c in b] for b in basis_b], ncols)
    out = []
    for k in kernel_basis(rows, cols):
        v = zeros(ncols)
        for c, a in zip(k[:len(basis_a)], basis_a):
            if not c.is_zero:
                v = vec_add(v, vec_scale(c, a))
        if not vec_is_zero(v):
            out.append(v)
    R, _ = rref(out, ncols)
    return R


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
        """Add v; True iff v was outside the span so far."""
        w = _sparse([v])[0]
        _reduce(w, self._rows, self._pivots)
        if not w:
            return False
        p = min(w)
        inv = 1 / w[p]
        self._rows.append({j: inv * a for j, a in w.items()})
        self._pivots.append(p)
        return True


class Chart:
    """Coordinates over a fixed basis of vectors of length ncols, eliminated once.

    The rref of [basis | -I], pivoting in the first ncols columns only, has
    rows [E | -T] with E = T * basis.  Reducing [v | 0] by them leaves
    [r | x]: v is in the span iff r = 0, and then v = x * basis.  For an
    independent basis x is the unique coordinate vector.
    """

    def __init__(self, basis, ncols: int):
        self.ncols = ncols
        self._k = len(basis)
        rows, self._pivots = rref([list(b) + vec_scale(Scalar(-1), unit_vec(self._k, i))
                                  for i, b in enumerate(basis)], ncols)
        self._rows = _sparse(rows)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def coords(self, v):
        """Coefficients of v over the basis, or None if v is outside its span."""
        w = _sparse([v])[0]
        _reduce(w, self._rows, self._pivots)
        if any(j < self.ncols for j in w):
            return None
        return _dense({j - self.ncols: c for j, c in w.items()}, self._k)


class Subquotient:
    """Exact subquotient span(numerator) / span(denominator) of a coordinate space.

    Representatives are the rref of the numerator reduced modulo the
    denominator, hence canonical: two runs produce identical reps.  Both
    eliminated bases are kept as sparse rows.
    """

    def __init__(self, numerator, denominator, ncols: int):
        self.ncols = ncols
        den, self._den_pivots = rref(denominator, ncols)
        self._den = _sparse(den)
        reduced = _sparse(numerator)
        for v in reduced:
            _reduce(v, self._den, self._den_pivots)
        reps, self._rep_pivots = rref([_dense(v, ncols) for v in reduced if v], ncols)
        self._reps = _sparse(reps)

    @property
    def dim(self) -> int:
        return len(self._reps)

    @property
    def reps(self) -> list:
        """The canonical representatives, as dense vectors."""
        return [_dense(r, self.ncols) for r in self._reps]

    def coords(self, v):
        """Coordinates of [v] in the representative basis; None if v not in num+den."""
        w = _sparse([v])[0]
        _reduce(w, self._den, self._den_pivots)
        taken = _reduce(w, self._reps, self._rep_pivots)
        if w:
            return None
        return _dense(taken, self.dim)

    def contains(self, v) -> bool:
        return self.coords(v) is not None


def is_isomorphism(rows, src_dim: int, dst_dim: int) -> bool:
    if src_dim != dst_dim:
        return False
    if src_dim == 0:
        return True
    return rank(rows, dst_dim) == dst_dim

"""Exact dense linear algebra over Q and Q(sqrt d).

Row reduction is plain Gauss-Jordan with deterministic first-nonzero pivoting;
entries are exact field elements, so every kernel/image/solve is a certificate.
Vectors are lists of Scalar, matrices are lists of row vectors.
"""

from __future__ import annotations

from .scalars import Scalar


def zeros(n: int) -> list:
    return [Scalar(0)] * n


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


def mat_copy(rows):
    return [list(r) for r in rows]


def transpose(rows, ncols: int):
    """Columns of a matrix given by its rows; ncols fixes the shape when rows is empty."""
    return [[r[j] for r in rows] for j in range(ncols)]


def rref(rows, ncols: int):
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


def span_contains(basis_rows, ncols: int, v) -> bool:
    if vec_is_zero(v):
        return True
    return rank(list(basis_rows) + [v], ncols) == rank(basis_rows, ncols)


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
    """Clear v at the pivots of rref rows: (remainder, coefficient taken per row)."""
    v = list(v)
    out = []
    for row, p in zip(rows, pivots):
        c = v[p]
        out.append(c)
        if not c.is_zero:
            v = [a - c * b for a, b in zip(v, row)]
    return v, out


class Chart:
    """Coordinates over a fixed basis of vectors of length ncols, eliminated once.

    The rref of [basis | -I], pivoting in the first ncols columns only, has
    rows [E | -T] with E = T * basis.  Reducing [v | 0] by them leaves
    [r | x]: v is in the span iff r = 0, and then v = x * basis.  For an
    independent basis x is the unique coordinate vector.
    """

    def __init__(self, basis, ncols: int):
        k = len(basis)
        self.ncols = ncols
        self.rows, self.pivots = rref([list(b) + vec_scale(Scalar(-1), unit_vec(k, i))
                                       for i, b in enumerate(basis)], ncols)
        self._tail = zeros(k)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def coords(self, v):
        """Coefficients of v over the basis, or None if v is outside its span."""
        w, _ = _reduce(list(v) + self._tail, self.rows, self.pivots)
        if not vec_is_zero(w[:self.ncols]):
            return None
        return w[self.ncols:]


class Subquotient:
    """Exact subquotient span(numerator) / span(denominator) of a coordinate space.

    Representatives are the rref of the numerator reduced modulo the
    denominator, hence canonical: two runs produce identical reps.
    """

    def __init__(self, numerator, denominator, ncols: int):
        self.ncols = ncols
        self.den_rref, self.den_pivots = rref(denominator, ncols)
        reduced = [self.reduce_mod_den(v) for v in numerator]
        self.reps, self.rep_pivots = rref([v for v in reduced if not vec_is_zero(v)], ncols)

    @property
    def dim(self) -> int:
        return len(self.reps)

    def reduce_mod_den(self, v):
        return _reduce(v, self.den_rref, self.den_pivots)[0]

    def coords(self, v):
        """Coordinates of [v] in the representative basis; None if v not in num+den."""
        v, out = _reduce(self.reduce_mod_den(v), self.reps, self.rep_pivots)
        if not vec_is_zero(v):
            return None
        return out

    def contains(self, v) -> bool:
        return self.coords(v) is not None


def is_isomorphism(rows, src_dim: int, dst_dim: int) -> bool:
    if src_dim != dst_dim:
        return False
    if src_dim == 0:
        return True
    return rank(rows, dst_dim) == dst_dim

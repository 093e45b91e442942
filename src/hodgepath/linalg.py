"""Exact linear algebra over Q and Q(sqrt d), on one sparse elimination kernel.

Every vector in the package has one format, the coefficient row: a dict
{index: coeff} without zero entries, whose rational coefficients are bare
Fractions and whose others are Scalars (`scalars.coeff` and
`scalars.from_coeff` convert one coefficient).  An algebra's `coords` turns
an element into a row over a basis, and its `from_coords` (or `combination`)
turns a row back into an element; in between, every function here takes and
returns rows, `combine` is the one linear combination of rows and
`is_combination` tests a row against one by subtraction.  Inside,
an elimination holds rows of one coefficient type (Fractions, or Scalars
over Q(sqrt d)); rows leave through `_formatted`, so that they are in the
format even where Scalar arithmetic cancelled an imaginary part.

A linear system enters in one orientation: row i is the image of unknown i.
`left_kernel(rows, count)` is {x : sum_i x_i rows_i = 0} and
`solve(rows, count, ys)` one x with sum_i x_i rows_i = y per y; both read
their equations, one per column, through `_columns`.  Columns may be any
hashable keys, so a caller can pass the terms of algebra elements as rows.

A basis chosen vector by vector lives in a `Span`, which also gives
coordinates over it; the expressions those coordinates need are built on
the first request, so a span that is only grown costs its echelon rows.
A `SubCdga` needs none: its basis is a `free_kernel`, each vector 1 at its
own free unknown and 0 at the others, so coordinates are read off at the
free unknowns and membership is `is_combination`.

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
the equations or of the entries of a row, and on a consistent system
`solve`'s answer (free unknowns zero) is unique.  Only the tail columns of a
partial `_eliminate` depend on the pivot rule.  Entries are exact, so every
kernel/image/solve is a certificate.

Three empty systems are answered where they enter, without elimination, with
what the elimination would return entry for entry: `_eliminate` of rows that
are all zero gives no rows and no pivots (a zero row is never a pivot row);
`free_kernel` (so `left_kernel`) without equations, every row empty, gives the
unit vectors {i: {i: Fraction(1)}}, as `_kernel` does with no pivot; and
`intersect` with a side whose rows are all zero gives [].  Only the
all-zero case is cut short: zero rows among non-zero ones stay, because the
pivot swap moves them and so fixes the order of the rows below the rank, on
which the tails of a partial elimination depend.  `rank` of one row is 1 if
the row has an entry in a pivot column (below ncols) and 0 otherwise, the
number of pivots `_eliminate` would find; rank returns only that count, so
no row is normalised on a second path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import Scalar, coeff, from_coeff

_ONE = Fraction(1)


def _formatted(row) -> dict:
    """A copy of the row in the row format: each rational Scalar becomes its Fraction."""
    return {j: coeff(a) if type(a) is Scalar else a for j, a in row.items()}


def combine(coeffs, rows):
    """The coefficient row sum_i coeffs[i] * rows[i]; coeffs is a coefficient row.

    rows is indexed by the indices of coeffs (a list, or a dict of the rows
    needed) and is not changed.
    """
    out = {}
    for i, c in coeffs.items():
        _sub_multiple(out, -c, rows[i])
    return _formatted(out)


def is_combination(y, coeffs, rows) -> bool:
    """Whether y == combine(coeffs, rows): nothing is left of y after subtracting each
    coeffs[i] * rows[i], so no combined row is built, formatted or compared.
    """
    left = dict(y)
    for i, c in coeffs.items():
        _sub_multiple(left, c, rows[i])
    return not left


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
    if not any(R):
        return [], []
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
                row[j] = from_coeff(a)
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


def rank(rows: list, ncols: int) -> int:
    """The number of pivots of the rows in their first ncols columns.

    One row is answered without elimination: its rank is 1 when it has an
    entry in one of those columns, and 0 otherwise.
    """
    if len(rows) == 1:
        cols = range(ncols)
        return 1 if any(j in cols for j in rows[0]) else 0
    return len(_eliminate(rows, ncols)[1])


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) of integer rows {column: residue}, residues in 1..p-1.

    Read as the rank of the p-integral rows these residues reduce, it is
    only ever a lower bound: a minor that is non-zero mod p is non-zero,
    but reduction can kill one that is not.  It is that rank only where an
    upper bound meets it.  Columns may be any comparable keys.  Each row is
    cleared at its leading column by the echelon row stored there, until it
    leads at a new column, where it is stored normalised to 1.
    """
    echelon = {}
    for r in rows:
        row = dict(r)
        while row:
            col = min(row)
            prow = echelon.get(col)
            if prow is None:
                inv = pow(row[col], -1, p)
                for j in row:
                    row[j] = row[j] * inv % p
                echelon[col] = row
                break
            c = row[col]
            for j, b in prow.items():
                a = (row.get(j, 0) - c * b) % p
                if a:
                    row[j] = a
                else:
                    del row[j]
    return len(echelon)


def _kernel(R, pivots, ncols: int):
    """Basis of the null space of eliminated rows: {free column: coefficient row}."""
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
    return {free: _formatted(v) for free, v in basis.items()}


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
    return list(free_kernel(rows, count).values())


def free_kernel(rows, count: int) -> dict:
    """left_kernel's basis as {free unknown: its kernel vector}, in the same order.

    Each vector is 1 at its own free unknown and 0 at every other, so the
    coordinates of a kernel element over this basis are its entries at the
    free unknowns.
    """
    if not any(rows):
        return {i: {i: _ONE} for i in range(count)}
    # a full elimination does not depend on the order of the equations
    return _kernel(*_eliminate(_columns(enumerate(rows)), count), count)


def solve(rows, count: int, ys):
    """Per right-hand side y of ys, a coefficient row x with sum_i x_i rows_i = y, or None.

    rows and each y are coefficient rows; rows past len(rows) count as zero.
    One elimination serves every y: the right-hand sides are carried along
    as the columns after the unknowns and are never pivoted on, so each x is
    the answer to its system alone.  Free unknowns are set to zero, so x is
    supported on the earliest possible unknowns (deterministic tie-break).
    Without pivots on the right-hand sides an inconsistent system shows only
    in the equations left without a pivot, which the elimination drops, so
    each candidate x is kept only if it meets its y.
    """
    pairs = list(enumerate(rows))
    pairs.extend((count + j, y) for j, y in enumerate(ys))
    R, pivots = _eliminate(_columns(pairs), count)
    out = []
    for j, y in enumerate(ys):
        x = {}
        for r, p in zip(R, pivots):
            c = r.get(count + j)
            if c is not None:
                x[p] = c
        x = _formatted(x)
        out.append(x if is_combination(y, x, rows) else None)
    return out


def intersect(rows_a, rows_b, ncols: int):
    """Reduced echelon coefficient rows of span(rows_a) ∩ span(rows_b).

    Each relation x·a + y·b = 0 gives x·a = -y·b, a vector of both spans,
    and these vectors span the intersection.
    """
    if not any(rows_a) or not any(rows_b):
        return []
    na = len(rows_a)
    out = []
    for k in left_kernel(list(rows_a) + list(rows_b), na + len(rows_b)):
        v = combine({i: c for i, c in k.items() if i < na}, rows_a)
        if v:
            out.append(v)
    return [_formatted(r) for r in _eliminate(out, ncols)[0]]


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
    """A growing span of vectors, kept as sparse echelon rows, with coordinates.

    Rows stay in insertion order.  Each added vector is reduced by the rows
    before it, so it is zero at their pivots, and is then normalised to 1 at
    its first non-zero column, its pivot.  Reducing by the rows in order
    therefore clears every pivot, and leaves zero exactly on the span.

    The vectors `add` takes are numbered 0, 1, ... and are independent, so
    coordinates over them are unique: each row has an expression over them,
    and a vector the reduction clears is sum_i taken_i rows_i.  `add` keeps
    only what the reduction took and the pivot's inverse; the expressions
    are built on demand, in order, by the first `coords` call that needs
    them, so a Span that only grows (a decalage's adapted basis while it is
    chosen) builds none.
    """

    def __init__(self):
        self._rows = []
        self._pivots = []
        self._steps = []    # (taken, inv) of each row, in order
        self._exprs = []    # the expressions of the first len(_exprs) rows

    def add(self, v) -> bool:
        """Add the coefficient row v; True iff v was outside the span so far."""
        w = dict(v)
        taken = _reduce(w, self._rows, self._pivots)
        if not w:
            return False
        p = min(w)
        inv = 1 / w[p]
        self._rows.append({j: inv * a for j, a in w.items()})
        self._pivots.append(p)
        self._steps.append((taken, inv))
        return True

    def _expressions(self):
        """The expression of every row over the vectors taken, building the missing ones."""
        exprs = self._exprs
        for taken, inv in self._steps[len(exprs):]:
            # the new row is inv * (v - sum_i taken_i rows_i)
            expr = {i: -inv * c for i, c in combine(taken, exprs).items()}
            expr[len(exprs)] = inv
            exprs.append(expr)
        return exprs

    def coords(self, v):
        """Coefficient row of v over the vectors taken, or None if v is outside the span."""
        w = dict(v)
        taken = _reduce(w, self._rows, self._pivots)
        if w:
            return None
        return combine(taken, self._expressions())


class Subquotient:
    """Exact subquotient span(numerator) / span(denominator) of a coordinate space.

    Numerator and denominator are coefficient rows.  Representatives are the
    reduced numerator modulo the denominator, hence canonical: two runs
    produce identical reps.  Both eliminated bases are kept as the kernel's
    sparse rows.
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
        """The canonical representatives, as coefficient rows."""
        return [_formatted(r) for r in self._reps]

    def coords(self, v):
        """Coefficient row of [v] over the representatives; None if v is not in num+den."""
        w = dict(v)
        _reduce(w, self._den, self._den_pivots)
        taken = _reduce(w, self._reps, self._rep_pivots)
        if w:
            return None
        return _formatted(taken)


def is_isomorphism(rows, src_dim: int, dst_dim: int) -> bool:
    if src_dim != dst_dim:
        return False
    if src_dim == 0:
        return True
    return rank(rows, dst_dim) == dst_dim

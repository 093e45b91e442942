"""Exact cohomology of the algebras in this package.

Keyed algebras (GradedAlgebra) read their d-matrices off the cached d_key of
each basis key, as sparse coefficient rows.  Where the differential preserves
a block grading (path algebras graded by polynomial t-weight), kernels and
images are computed block by block; an unblocked algebra is the one-block
case.  Everything stays exact, the blocks only keep the matrices small.
Other spaces (SubCdga) go through Element.d and their own coords.
"""

from __future__ import annotations

from . import linalg
from .algebra import AlgebraError, CutoffError, Element, GradedAlgebra, LinearMap
from .scalars import coeff, from_coeff


def _is_keyed(X) -> bool:
    return isinstance(X, GradedAlgebra)


class Cohomology:
    """H^n of an algebra/subspace complex, with representatives and class coords."""

    def __init__(self, X, n, dim, reps, block_data):
        self.X = X
        self.n = n
        self.dim = dim
        self.reps = reps            # list[Element], canonical representatives
        # list of (block_id, keys or None, subquotient, local); local maps a
        # position of X.basis(n) in the block to its position in the block
        self._blocks = block_data

    def _block_rows(self, row):
        """The coefficient row over X.basis(n) cut into one row per block."""
        return [row if local is None else
                {local[i]: c for i, c in row.items() if i in local}
                for _, _, _, local in self._blocks]

    def cls(self, x: Element):
        """Coefficient row of the class [x] over the representatives.

        Raises if x is not closed or has a key outside degree n; returns None
        if x is not in this degree's cocycles span (cannot happen for closed
        homogeneous x of degree n).
        """
        if not x.d().is_zero:
            raise AlgebraError("cls() of a non-closed element")
        out, offset = {}, 0
        for (_, _, sq, _), row in zip(self._blocks,
                                      self._block_rows(self.X.coords(x, self.n, strict=False))):
            c = sq.coords(row)
            if c is None:
                return None
            for j, a in c.items():
                out[offset + j] = a
            offset += sq.dim
        return out

    def with_boundaries(self, Y, boundaries) -> "Cohomology":
        """H^n of Y, an algebra that adds to X degree-(n-1) cochains with these boundaries.

        Y must have X's degree-n keys, naming the same monomials, and the
        same d on them, so that the cocycles Z^n are X's; boundaries are
        elements of Y of degree n, and B^n(Y) = B^n(X) + span(boundaries).
        Each block's subquotient is then taken modulo the boundaries' rows
        (`Subquotient.quotient_by`), and the reps and cls coordinates are
        those of a fresh cohomology(Y, n), entry for entry.  Keyed groups
        only.
        """
        if any(keys is None for _, keys, _, _ in self._blocks):
            raise AlgebraError("with_boundaries() needs a keyed algebra")
        cut = [self._block_rows(Y.coords(b, self.n, strict=False)) for b in boundaries]
        blocks = [(block_id, keys, sq.quotient_by([rows[t] for rows in cut]), local)
                  for t, (block_id, keys, sq, local) in enumerate(self._blocks)]
        return _keyed_group(Y, self.n, blocks)


def _block_partition(X, n):
    """keys of degree n grouped by block id (sorted); None block => whole basis."""
    keys = X.basis_keys(n) if n >= 0 else []
    groups = {}
    for k in keys:
        groups.setdefault(X.key_block(k), []).append(k)
    return dict(sorted(groups.items(), key=lambda kv: repr(kv[0])))


def _d_rows(X, keys_src, index_dst):
    """Coefficient rows of d on keys_src, read off d_key, over the keys of index_dst."""
    rows = []
    for k in keys_src:
        row = {}
        for kk, c in X.d_key(k).items():
            i = index_dst.get(kk)
            if i is None:
                raise AlgebraError("differential leaves its block; block grading broken")
            row[i] = coeff(c)
        rows.append(row)
    return rows


def _keyed_group(X, n, blocks) -> Cohomology:
    """The group of keyed (block_id, keys, subquotient, local) blocks, reps on X."""
    reps = []
    for _, keys, sq, _ in blocks:
        for rep in sq.reps:
            reps.append(Element(X, {keys[j]: from_coeff(rep[j]) for j in sorted(rep)}))
    return Cohomology(X, n, len(reps), reps, blocks)


def cohomology(X, n: int, strict: bool = True) -> Cohomology:
    """Exact H^n: kernel of d_n modulo image of d_{n-1}.

    Needs bases in degrees n-1, n, n+1; within the horizon this means
    n <= N - 1 (per the cutoff design decision).
    """
    if strict and not (0 <= n <= X.N - 1):
        raise CutoffError(f"cohomology degree {n} outside 0..{X.N - 1} of {X!r}")

    if _is_keyed(X):
        blocks = []
        part_lo = _block_partition(X, n - 1)
        part_hi = _block_partition(X, n + 1)
        position = X._key_index(n)
        for block_id, keys in _block_partition(X, n).items():
            lo = part_lo.get(block_id, [])
            hi = part_hi.get(block_id, [])
            index = {k: i for i, k in enumerate(keys)}
            kern = linalg.left_kernel(_d_rows(X, keys, {k: i for i, k in enumerate(hi)}),
                                      len(keys))
            sq = linalg.Subquotient(kern, _d_rows(X, lo, index), len(keys))
            blocks.append((block_id, keys, sq, {position[k]: i for k, i in index.items()}))
        return _keyed_group(X, n, blocks)
    basis_n = X.basis(n, strict=False)
    cols = len(basis_n)
    rows_d = [X.coords(b.d(), n + 1, strict=False) for b in basis_n]
    img = [X.coords(b.d(), n, strict=False) for b in X.basis(n - 1, strict=False)] \
        if n >= 1 else []
    sq = linalg.Subquotient(linalg.left_kernel(rows_d, cols), img, cols)
    reps = [X.from_coords(n, repv, strict=False) for repv in sq.reps]
    return Cohomology(X, n, sq.dim, reps, [(0, None, sq, None)])


def betti_numbers(X, upto: int) -> dict:
    return {n: cohomology(X, n).dim for n in range(0, upto + 1)}


def induced_map(f: LinearMap, HA: Cohomology, HB: Cohomology):
    """Coefficient rows of H(f): the class row of the image of each source representative."""
    rows = []
    for rep in HA.reps:
        c = HB.cls(f(rep))
        if c is None:
            raise AlgebraError("map does not descend to cohomology")
        rows.append(c)
    return rows


def is_quasi_iso(f: LinearMap, upto: int, strict: bool = True, groups=None) -> bool:
    """Whether H^n(f) is an isomorphism for n = 0..upto; stops at the first degree that fails.

    groups is a dict of H^n by (space, n), read and filled here; callers that
    test several maps between the same spaces pass one dict, so that each
    group is computed once.  By default each call computes its own.
    """
    groups = {} if groups is None else groups

    def group(X, n):
        if (X, n) not in groups:
            groups[X, n] = cohomology(X, n, strict=strict)
        return groups[X, n]

    for n in range(0, upto + 1):
        HA, HB = group(f.source, n), group(f.target, n)
        rows = induced_map(f, HA, HB)
        if not linalg.is_isomorphism(rows, HA.dim, HB.dim):
            return False
    return True


def quasi_iso_report(f: LinearMap, upto: int) -> dict:
    """Per-degree dims of source/target cohomology and rank of the induced map."""
    out = {}
    for n in range(0, upto + 1):
        HA = cohomology(f.source, n)
        HB = cohomology(f.target, n)
        rows = induced_map(f, HA, HB)
        r = linalg.rank(rows, HB.dim)
        out[n] = {"dim_source": HA.dim, "dim_target": HB.dim, "rank": r,
                  "iso": HA.dim == HB.dim == r}
    return out

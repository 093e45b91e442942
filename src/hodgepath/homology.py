"""Exact cohomology of the algebras in this package.

Keyed algebras (GradedAlgebra) read their d-matrices off the cached d_key of
each basis key, as sparse coefficient rows.  Where the differential preserves
a block grading (path algebras graded by polynomial t-weight), kernels and
images are computed block by block; an unblocked algebra is the one-block
case.  Everything stays exact, the blocks only keep the matrices small.
Other spaces (SubCdga) go through Element.d and their own coords.

Whether a map out of a free algebra is a quasi-isomorphism is read off its
mapping cone (`_cone_exact`: exact chain checks, then ranks mod p; Weibel,
An Introduction to Homological Algebra, 1.5).  Two callers read it:
`minimal_model`'s certificate (`cone_certificate`) and `pi_star`'s verdict on
its comparison maps (`cone_is_quasi_iso`); where the cone proves nothing both
fall back to `quasi_iso_report`.  `is_quasi_iso` stays exact, group by group:
it is the independent oracle that tests and the benchmark check the cone
against, and routing it through the cone would make the oracle the method it
checks (and slow `mapping-path`, whose maps are not out of free algebras).
"""

from __future__ import annotations

from math import lcm

from . import linalg
from .algebra import (AlgebraError, CutoffError, Element, FreeMorphism, GradedAlgebra,
                      LinearMap)
from .scalars import Scalar, coeff, from_coeff


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

    if isinstance(X, GradedAlgebra):
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


# ---------------------------------------------------------------------------
# the mapping cone of a map out of a free algebra: minimal_model's
# certificate and pi_star's verdict
# ---------------------------------------------------------------------------

# Primes for the cone's modular ranks.  Over Q the first is used; over
# Q(sqrt d) the first modulo which d is a non-zero square, with sqrt d sent
# to a square root of d.  2^31 - 1 serves d = -3 but not d = -1.
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
           2147483549, 2147483543, 2147483497)


def _modulus(field):
    """(p, image of sqrt d in GF(p)) for the field's modular ranks; None if no prime fits.

    The square root of d mod p is Tonelli-Shanks'.
    """
    if field.is_rational:
        return _PRIMES[0], 0
    for p in _PRIMES:
        a = field.d % p
        if pow(a, (p - 1) // 2, p) != 1:
            continue
        q, s, z = p - 1, 0, 2
        while q % 2 == 0:
            q, s = q // 2, s + 1
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2, i = t2 * t2 % p, i + 1
            b = pow(c, 1 << (s - i - 1), p)
            s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
        return p, r
    return None


def _residues(items, p, root):
    """{j: c mod p} of (j, coefficient) pairs, sqrt d -> root; None if one is not p-integral.

    A coefficient is a Fraction or a Scalar; a + b sqrt d maps to a + b root,
    a ring homomorphism on the p-integral elements.
    """
    out = {}
    for j, c in items:
        b = None
        if type(c) is Scalar:
            c, b = c.re, c.im
        num, den = c.as_integer_ratio()
        if den == 1:
            v = num
        elif den % p:
            v = num * pow(den, -1, p)
        else:
            return None
        if b:
            num, den = b.as_integer_ratio()
            if not den % p:
                return None
            v += num * pow(den, -1, p) * root
        v %= p
        if v:
            out[j] = v
    return out


def off_degree_generators(rho) -> list:
    """The names of the generators whose images under rho are not in rho.target
    in the generator's degree; such a map has no H(rho).  Empty for a map
    that is not a FreeMorphism, whose images are not stored.
    """
    if not isinstance(rho, FreeMorphism):
        return []
    out = []
    for g in rho.source.gens:
        try:
            rho.target.coords(rho.gen_images[g.name], g.degree, strict=False)
        except AlgebraError:   # an image of another degree, or outside the target
            out.append(g.name)
    return out


def _chain_data_holds(rho, N) -> bool:
    """Whether d_C^2 = 0 on the cone through degree N - 1, checked exactly.

    On the generators of M: rho sends each into A in its degree (none is in
    off_degree_generators), rho d = d rho and d^2 = 0.  rho d - d rho and
    d^2 are derivations (along rho for the former), so they vanish on M once
    they vanish on its generators; rho d g and d rho g lie in A^(deg g + 1),
    so they agree where that is zero.  d(d g) is summed over the cached d of
    the keys of d g, on integers over one common denominator (pairs for
    a + b sqrt d).  On A, which need not be free: d^2 = 0 on its basis in
    degrees < N.
    """
    M, A = rho.source, rho.target
    d = M.field.d or 0
    if off_degree_generators(rho):
        return False
    for g in M.gens:
        image = rho.gen_images[g.name]
        dg = M.differential_of(g.name)
        if A.dim(g.degree + 1, strict=False) and rho(dg) != image.d():
            return False
        m = 1
        for k, c in dg.terms.items():
            for x in (c, *M.d_key(k).values()):
                m = lcm(m, x.re.denominator, x.im.denominator)
        total = {}
        for k, c in dg.terms.items():
            a = c.re.numerator * (m // c.re.denominator)
            b = c.im.numerator * (m // c.im.denominator)
            for j, x in M.d_key(k).items():
                u = x.re.numerator * (m // x.re.denominator)
                v = x.im.numerator * (m // x.im.denominator)
                re, im = total.get(j, (0, 0))
                total[j] = (re + a * u + d * b * v, im + a * v + b * u)
        for re, im in total.values():
            if re or im:
                return False
    for n in range(N):
        for b in A.basis(n, strict=False):
            if not b.d().d().is_zero:
                return False
    return True


def _cone_exact(rho, N) -> bool:
    """Whether H^n(cone rho) = 0 for n = -1..N-1, proved from ranks mod p.

    H^n(C) = 0 for n = -1..N-1 iff H(rho) is an isomorphism below N and
    injective at N (the cone's long exact sequence).  A mod-p rank never
    exceeds the rank over Q or Q(sqrt d), and d_C^2 = 0 bounds the latter
    pair by dim C^n, so rank_p d^n + rank_p d^(n-1) = dim C^n proves it.
    False means no proof: rho is not a FreeMorphism, no prime fits the
    field, the chain data fails, a coefficient is not p-integral, or a rank
    falls short.

    The rows of d_C on C^n = A^n + M^(n+1) are d a for a in the basis of
    A^n, and (rho(m), d m) for each key m of M^(n+1), over A^(n+1) +
    M^(n+2); up to the sign of the M block, which does not change a rank,
    this is the cone's differential.  rho(m) is read only where A^(n+1) is
    not zero, and the columns of M^(n+2) are numbered as its keys turn up.
    """
    if not isinstance(rho, FreeMorphism):
        return False
    M, A = rho.source, rho.target
    modulus = _modulus(A.field)
    if modulus is None or not _chain_data_holds(rho, N):
        return False
    p, root = modulus
    below = 0
    for n in range(-1, N):
        shift = A.dim(n + 1, strict=False)
        rows, cols = [], {}
        for b in A.basis(n, strict=False):
            rows.append(_residues(A.coords(b.d(), n + 1, strict=False).items(), p, root))
        for k in M.basis_keys(n + 1):
            head = _residues(A.coords(rho(M.from_key(k)), n + 1, strict=False).items(),
                             p, root) if shift else {}
            dm = {}
            for kk, c in M.d_key(k).items():
                dm[cols.setdefault(kk, shift + len(cols))] = c
            tail = _residues(dm.items(), p, root)
            rows.append(None if head is None or tail is None else {**head, **tail})
        if None in rows:
            return False
        r = linalg.rank_mod_p(rows, p)
        if r + below != A.dim(n, strict=False) + M.dim(n + 1, strict=False):
            return False
        below = r
    return True


def _cone_report(rho, N, groups, cycles):
    """The certificate read off `_cone_exact`, or None where the cone proves nothing.

    Every entry below N is an isomorphism, with dims read off H(A); the
    horizon entry, asked for by cycles, is injective with dim H^N(M) =
    dim H^N(A) when the classes of the closed cycles reach that rank.
    """
    if not _cone_exact(rho, N):
        return None
    A = rho.target
    out = {}
    for n in range(N if cycles is None else N + 1):
        if n not in groups:
            groups[n] = cohomology(A, n, strict=False)
        h = groups[n].dim
        out[n] = {"dim_source": h, "dim_target": h, "rank": h, "iso": True}
    if cycles is None:
        return out
    # H^N(rho) is injective, so dim H^N(M) lies between the rank of the
    # classes of closed elements of M and dim H^N(A)
    rows = []
    for z in cycles:
        if z.d().is_zero:
            rows.append(groups[N].cls(rho(z)))
    h = groups[N].dim
    if linalg.rank(rows, h) != h:
        return None
    out[N] = {"dim_source": h, "dim_target": h, "injective": True, "provisional": True}
    return out


def cone_certificate(rho, N: int, groups=None, cycles=None) -> dict:
    """quasi_iso_report(rho, N - 1), plus a provisional horizon entry, from cone(rho).

    rho: M -> A is a morphism out of a free algebra M (a FreeMorphism); A is
    any space with basis and coords (a SubCdga too).  groups is a dict of
    H^n(A) by n, read and filled here.  cycles, when given, are closed
    elements of M of degree N, and ask for the entry at N: dims of H^N of
    both sides and whether H^N(rho) is injective, as the exact check gives it.

    The cone's ranks mod p certify the report when the chain data holds
    exactly and the ranks add up to dim C^n in every degree; every entry is
    then an isomorphism, with dims read off H(A), and the horizon entry is
    injective with dim H^N(M) = dim H^N(A) when the classes of the cycles
    reach that rank.  Anything short of that runs quasi_iso_report and, if
    it is iso below N, the exact horizon check, so every failure and every
    error comes from them.

    The same proof (`_cone_exact`) gives `cone_is_quasi_iso`, pi_star's
    verdict on its comparison maps, which needs no dims and so computes no
    H(A).  is_quasi_iso does not take the cone: it is the exact oracle the
    tests hold this certificate to.
    """
    out = _cone_report(rho, N, {} if groups is None else groups, cycles)
    if out is not None:
        return out
    out = quasi_iso_report(rho, N - 1)
    if cycles is not None and all(r["iso"] for r in out.values()):
        HM = cohomology(rho.source, N, strict=False)
        HA = cohomology(rho.target, N, strict=False)
        rows = [HA.cls(rho(rep)) for rep in HM.reps]
        out[N] = {"dim_source": HM.dim, "dim_target": HA.dim,
                  "injective": not linalg.left_kernel(rows, HM.dim), "provisional": True}
    return out


def cone_is_quasi_iso(rho, upto: int) -> bool:
    """Whether H^n(rho) is an isomorphism for n = 0..upto, as quasi_iso_report's iso flags say.

    True at once when `_cone_exact(rho, upto + 1)` proves it; otherwise the
    flags of quasi_iso_report(rho, upto), so that every False and every
    error comes from the exact path.  rho is any LinearMap; only a
    FreeMorphism can take the cone.  The cone reads both sides up to degree
    upto + 1, so it is taken only within both horizons, where
    quasi_iso_report's strict cohomology reads them too; past one it
    proves nothing, and quasi_iso_report raises CutoffError.
    """
    if upto + 1 <= min(rho.source.N, rho.target.N) and _cone_exact(rho, upto + 1):
        return True
    return all(r["iso"] for r in quasi_iso_report(rho, upto).values())

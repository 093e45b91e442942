"""Filtrations, graded pieces, spectral sequences, decalage, filtered paths.

Conventions (fixed once, documented here):

* Increasing weight filtrations W: level(x) = max key weight, W_p = {level <= p}.
* Decreasing Hodge filtrations F are handled by negating levels
  (F^q corresponds to level -q), so one engine serves both directions.
* Spectral sequence of (C, W), cohomological degree n:
      Z_r^{p,n} = {x in W_p C^n : dx in W_{p-r} C^{n+1}}
      E_r^{p,n} = Z_r^{p,n} / (Z_{r-1}^{p-1,n} + d Z_{r-1}^{p+r-1,n-1})
      d_r : E_r^{p,n} -> E_r^{p-r,n+1}
  Pages are reliable for n <= N - r - 1.  Only convention-independent facts
  (dimensions, iso-ness of induced maps, vanishing of d_r) are exported.
* Zero pieces: E_r^{p,n} is a subquotient of E_0^{p,n} = Gr_p C^n, so where the
  adapted basis of degree n has no element of level p, E_r^{p,n} = 0 for
  every r.  `page_dims`, `d_r_matrix`, `d_r_is_zero`, `verify_page_turn` and
  `induced_page_map` take such an entry as zero and build no z-vectors for
  it; `entry` itself always computes in full.  Skipping drops no check: a
  zero source has no representatives to map, and the target of d_r (or of an
  induced map) is built in full whenever its source is not zero.
* Adapted bases: over a keyed algebra, the basis keys sorted by level, so
  coordinates and d_rows re-index the ambient ones.  Over a `SubCdga` (a
  decalage), a `linalg.Span` of ambient (parent) rows, whose coordinates
  are the adapted ones; a non-member raises `AlgebraError`.  Level by
  level the span takes vectors of a space that contains it (the level's
  constraint kernel, or Z(a) for a decalage), so it stops taking them once
  it is as large as that space; the decalage also stops its levels once
  the span is the whole degree.
* Decalage: Dec W_p C^n = {x in W_{p-n} C^n : dx in W_{p-n-1} C^{n+1}}.
* One of each per space: `filtered_complex(X, kind, bound)`,
  `spectral_sequence(X, kind)` and `gr(X, p, kind, bound)` build their
  object on first use and keep it on X (`algebra.derived`), a bound of None
  keyed as X.N, so every check of a space reads the same complexes, pages
  and graded pieces.  A decalage is built from the complex it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .algebra import (AlgebraError, CutoffError, Element, GradedAlgebra,
                      LinearMap, combination, d_rows_by_coords, derived)
from .paths import path_of

_ONE = Fraction(1)


def r_path(A, r: int, budget=None):
    """Filtered path: weight(a t^i) = weight(a), weight(a t^i dt) = weight(a) - r."""
    if r < 0:
        raise AlgebraError("r-path needs r >= 0")
    return path_of(A, budget, w_shift=r)


def path_10(A, budget=None):
    """Bifiltered path: W shifts by 1 on the dt part, F does not shift."""
    return path_of(A, budget, w_shift=1)


# ---------------------------------------------------------------------------
# adapted filtered bases
# ---------------------------------------------------------------------------

def _key_level(X, k, kind):
    if kind == "W":
        w = X.key_weight(k)
    else:
        h = X.key_hodge(k)
        w = None if h is None else -h
    return w


class FilteredComplex:
    """Adapted-basis view of a filtered algebra/subspace, degrees 0..bound.

    Vectors are coefficient rows over the adapted basis (see linalg), read
    through one frame per degree (see the module docstring).  The
    differential is the space protocol's `d_rows(n)`: the coordinates in
    degree n+1 of d of each adapted basis element of degree n, built once per
    degree; `d_coords` is their linear combination.
    """

    def __init__(self, X, kind="W", bound=None):
        if (kind == "W" and not X.has_weights) or (kind == "F" and not X.has_hodge):
            raise AlgebraError(f"{X!r} carries no {kind} filtration")
        self.X = X
        self.kind = kind
        self.bound = X.N if bound is None else bound
        self.levels = {}
        self.elements = {}
        # degree -> {ambient position: adapted position}, or a Span whose
        # vectors are the adapted basis in order
        self._frames = {}
        self._d_rows = {}   # filled by d_rows
        for n in range(0, self.bound + 1):
            self.levels[n], self.elements[n], self._frames[n] = self._adapted_basis(n)

    def _adapted_basis(self, n):
        """(levels, elements, frame) of the adapted basis of degree n."""
        X = self.X
        if isinstance(X, GradedAlgebra):
            keys = X.basis_keys(n)
            order = sorted(range(len(keys)), key=lambda j: (_key_level(X, keys[j], self.kind),
                                                           X.key_sort(keys[j])))
            return ([_key_level(X, keys[j], self.kind) for j in order],
                    [X.from_key(keys[j]) for j in order],
                    {j: t for t, j in enumerate(order)})
        amb = X.ambient
        keys = amb.basis_keys(n)
        key_levels = [_key_level(amb, k, self.kind) for k in keys]
        chosen, chosen_levels, chosen_elems = linalg.Span(), [], []
        for p in sorted(set(key_levels)):
            allowed = [i for i, lv in enumerate(key_levels) if lv <= p]
            # solve the constraints inside the span of allowed keys
            kernel = X.constraint_kernel([amb.from_key(keys[i]) for i in allowed])
            for v in kernel:
                # the span lies in this level's kernel: once as large, it is all of it
                if len(chosen_levels) == len(kernel):
                    break
                full = {allowed[i]: c for i, c in v.items()}
                if chosen.add(full):
                    chosen_levels.append(p)
                    chosen_elems.append(amb.from_coords(n, full))
        return chosen_levels, chosen_elems, chosen

    def dim(self, n) -> int:
        return len(self.elements.get(n, []))

    @property
    def ambient(self) -> GradedAlgebra:
        return self.X.ambient

    def coords(self, x: Element, n):
        """Coefficient row of x over the adapted basis of degree n."""
        frame = self._frames[n]
        row = self.ambient.coords(x, n, strict=False)
        if type(frame) is dict:
            return {frame[j]: c for j, c in row.items()}
        sol = frame.coords(row)
        if sol is None:
            raise AlgebraError("element not in the filtered complex")
        return sol

    def from_coords(self, n, row) -> Element:
        return combination(self.ambient, row, self.elements[n])

    def d_rows(self, n) -> list:
        """Coordinates in degree n+1 of d of each elements[n][i], built once per degree; read-only.

        Over a keyed algebra they are the algebra's own d_rows(n), re-indexed
        through the frames of degrees n and n+1; otherwise coords of each d b.
        """
        rows = self._d_rows.get(n)
        if rows is None:
            frame = self._frames[n]
            if type(frame) is not dict:
                return d_rows_by_coords(self, n, self.elements[n])
            # the frame one degree up exists below the bound; an empty degree needs none
            up = self._frames[n + 1] if frame else {}
            ambient = self.X.d_rows(n)
            rows = self._d_rows[n] = [{up[j]: c for j, c in ambient[i].items()}
                                      for i in sorted(frame, key=frame.__getitem__)]
        return rows

    def d_coords(self, n, row):
        """Coordinates in degree n+1 of d of the row: sum of row[i] * d_rows(n)[i]."""
        return linalg.combine(row, self.d_rows(n))

    def z_basis(self, n, a, b):
        """Basis of {x in W_a C^n : dx in W_b C^{n+1}}, as coefficient rows over C^n."""
        gens = [i for i, lv in enumerate(self.levels[n]) if lv <= a]
        rows = [self.proj_above(n + 1, self.d_rows(n)[i], b) for i in gens]
        return [{gens[i]: c for i, c in v.items()} for v in linalg.left_kernel(rows, len(gens))]

    def level_range(self):
        vals = [lv for lvs in self.levels.values() for lv in lvs]
        if not vals:
            return (0, 0)
        return (min(vals), max(vals))

    def level_of_coords(self, n, row):
        levels = self.levels[n]
        return max((levels[j] for j in row), default=None)

    def proj_above(self, n, row, cutlevel):
        """Components of the row of level > cutlevel (adapted basis makes this exact)."""
        levels = self.levels[n]
        return {j: c for j, c in row.items() if levels[j] > cutlevel}


def filtered_complex(X, kind="W", bound=None) -> FilteredComplex:
    """X's complex for this filtration through degree bound (X.N by default), kept on X."""
    bound = X.N if bound is None else bound
    return derived(X, ("filtered complex", kind, bound),
                   lambda: FilteredComplex(X, kind, bound))


def weight_bounds_report(C: FilteredComplex) -> dict:
    """Exhaustive/bounded-below summary per degree (regularity within horizon)."""
    out = {}
    for n in range(0, C.bound + 1):
        lv = C.levels.get(n, [])
        out[n] = {"dim": len(lv), "min": min(lv) if lv else None,
                  "max": max(lv) if lv else None}
    return out


# ---------------------------------------------------------------------------
# graded pieces
# ---------------------------------------------------------------------------

@dataclass
class GrComplex:
    """Gr_p of a filtered complex: bases, differential, inherited second levels."""
    p: int
    dims: dict
    d: dict                 # n -> coefficient rows over basis of degree n, coords in n+1
    hodge: dict             # n -> list of hodge levels (or None)
    reps: dict              # n -> representative Elements
    _cohomology: dict = field(default_factory=dict, repr=False, compare=False)

    def dim(self, n):
        return self.dims.get(n, 0)

    def cohomology(self, n) -> linalg.Subquotient:
        """H^n of the graded piece; computed once per degree."""
        sq = self._cohomology.get(n)
        if sq is None:
            cols = self.dim(n)
            kern = linalg.left_kernel(self.d.get(n, []), cols)
            sq = self._cohomology[n] = linalg.Subquotient(kern, self.d.get(n - 1, []), cols)
        return sq


def gr(X, p: int, kind="W", bound=None) -> GrComplex:
    """The graded piece W_p/W_{p-1} with its induced differential, kept on X.

    It is read off `filtered_complex(X, kind, bound)`.  Out-of-range p gives
    the zero complex.  A second filtration descends through the levels of
    the adapted basis vectors.
    """
    bound = X.N if bound is None else bound
    return derived(X, ("gr", p, kind, bound),
                   lambda: _graded(filtered_complex(X, kind, bound), p))


def _graded(C: FilteredComplex, p: int) -> GrComplex:
    """Gr_p of C."""
    dims, dmats, hodges, reps = {}, {}, {}, {}
    idx = {}
    for n in range(0, C.bound + 1):
        sel = [i for i, lv in enumerate(C.levels[n]) if lv == p]
        idx[n] = sel
        dims[n] = len(sel)
        reps[n] = [C.elements[n][i] for i in sel]
        hs = []
        for i in sel:
            el = C.elements[n][i]
            try:
                hs.append(el.hodge())
            except AlgebraError:
                hs = None
                break
        hodges[n] = hs
    for n in range(0, C.bound):
        position = {j: t for t, j in enumerate(idx[n + 1])}
        dmats[n] = [{position[j]: c for j, c in C.d_rows(n)[i].items() if j in position}
                    for i in idx[n]]
    return GrComplex(p=p, dims=dims, d=dmats, hodge=hodges, reps=reps)


# ---------------------------------------------------------------------------
# spectral sequences
# ---------------------------------------------------------------------------

class SpectralSequence:
    """Pages of the filtered complex, computed exactly per (r, p, n)."""

    def __init__(self, C: FilteredComplex):
        self.fc = C
        self._z_cache = {}
        self._e_cache = {}
        self._d_r_cache = {}
        self._zero_entries = {}

    def _zero_piece(self, p, n):
        """True when Gr_p C^n = 0, so that E_r^{p,n} = 0 for every r."""
        return p not in self.fc.levels.get(n, ())

    def _entry_unless_zero(self, r, p, n) -> linalg.Subquotient:
        """entry(r, p, n), or a zero subquotient without z-vectors where Gr_p C^n = 0."""
        if not self._zero_piece(p, n):
            return self.entry(r, p, n)
        zero = self._zero_entries.get(n)
        if zero is None:
            zero = self._zero_entries[n] = linalg.Subquotient([], [], self.fc.dim(n))
        return zero

    # Z_r^{p,n} as coefficient rows over C^n
    def z_vectors(self, r, p, n):
        key = (r, p, n)
        if key in self._z_cache:
            return self._z_cache[key]
        fc = self.fc
        out = [] if n < 0 or n > fc.bound - 1 else fc.z_basis(n, p, p - r)
        self._z_cache[key] = out
        return out

    def entry(self, r, p, n) -> linalg.Subquotient:
        key = (r, p, n)
        if key in self._e_cache:
            return self._e_cache[key]
        fc = self.fc
        dim = fc.dim(n)
        num = self.z_vectors(r, p, n)
        den = self.z_vectors(r - 1, p - 1, n) + [
            fc.d_coords(n - 1, v) for v in self.z_vectors(r - 1, p + r - 1, n - 1)]
        sq = linalg.Subquotient(num, den, dim)
        self._e_cache[key] = sq
        return sq

    def p_range(self, extra=0):
        lo, hi = self.fc.level_range()
        return range(lo - extra, hi + 1 + extra)

    def page_dims(self, r, bound=None) -> dict:
        """Dimensions {(p, n): dim E_r^{p,n}} of the r-th page, non-zero entries only."""
        if r < 0:
            raise AlgebraError("page index r must be >= 0")
        if self.fc.X.N - r - 1 < 0:
            raise CutoffError(f"cutoff {self.fc.X.N} too small for page {r}")
        bound = self._bound(r) if bound is None else bound
        out = {}
        for n in range(0, bound + 1):
            for p in self.p_range():
                if self._zero_piece(p, n):
                    continue
                d = self.entry(r, p, n).dim
                if d:
                    out[(p, n)] = d
        return out

    def _bound(self, r):
        return max(0, min(self.fc.bound - 1, self.fc.X.N - r - 1))

    def d_r_matrix(self, r, p, n):
        """(rows, E_r^{p,n}): rows over the E_r^{p,n} reps, coords in E_r^{p-r,n+1}.

        The rows are computed once, an empty result included.  A source without
        representatives leaves the target unbuilt; otherwise it is built in full.
        """
        src = self._entry_unless_zero(r, p, n)
        rows = self._d_r_cache.get((r, p, n))
        if rows is None:
            rows = []
            if src.dim:
                dst = self.entry(r, p - r, n + 1)
                for rep in src.reps:
                    c = dst.coords(self.fc.d_coords(n, rep))
                    if c is None:
                        raise AlgebraError("d_r does not land in its target entry")
                    rows.append(c)
            self._d_r_cache[r, p, n] = rows
        return rows, src

    def d_r_is_zero(self, r, bound=None) -> list:
        """Witnesses of nonzero d_r within the bound (empty = vanishes).

        d_r starts in degree fc.bound - 2 at most: its target entry one degree
        up must lie below fc.bound, where the z-vectors stop.
        """
        bound = self._bound(r) if bound is None else bound
        bad = []
        for n in range(0, min(bound, self.fc.bound - 2) + 1):
            for p in self.p_range():
                rows, _ = self.d_r_matrix(r, p, n)
                if any(rows):
                    bad.append({"r": r, "p": p, "n": n})
        return bad

    def verify_page_turn(self, r, bound=None) -> list:
        """Check E_{r+1} = H(E_r, d_r) via the canonical comparison map."""
        bound = self._bound(r + 1) if bound is None else bound
        bad = []
        for n in range(0, bound + 1):
            for p in self.p_range():
                rows, src = self.d_r_matrix(r, p, n)
                kern = linalg.left_kernel(rows, src.dim)
                img_rows, _ = self.d_r_matrix(r, p + r, n - 1)
                hsq = linalg.Subquotient(kern, img_rows, src.dim)
                e_next = self._entry_unless_zero(r + 1, p, n)
                if e_next.dim != hsq.dim:
                    bad.append({"r": r, "p": p, "n": n, "dim_next": e_next.dim,
                                "dim_H": hsq.dim})
                    continue
                comp = []
                ok = True
                for rep in e_next.reps:
                    c_in_er = src.coords(rep)
                    if c_in_er is None:
                        ok = False
                        break
                    cc = hsq.coords(c_in_er)
                    if cc is None:
                        ok = False
                        break
                    comp.append(cc)
                if not ok or not linalg.is_isomorphism(comp, e_next.dim, hsq.dim):
                    bad.append({"r": r, "p": p, "n": n, "reason": "comparison not iso"})
        return bad


def spectral_sequence(X, kind="W") -> SpectralSequence:
    """The spectral sequence of X's filtered complex of this kind (through X.N), kept on X."""
    return derived(X, ("spectral sequence", kind),
                   lambda: SpectralSequence(filtered_complex(X, kind)))


def spectral_page(X, r: int, kind="W", bound=None) -> dict:
    """Dimensions {(p, n): dim E_r^{p,n}} of the r-th page (exact)."""
    return spectral_sequence(X, kind).page_dims(r, bound=bound)


def induced_page_map(f: LinearMap, r, ss_src: SpectralSequence,
                     ss_dst: SpectralSequence, p, n):
    """Rows of f on E_r^{p,n} (None if f does not descend), source and target entries.

    The target is built in full whenever the source has representatives.
    """
    src = ss_src._entry_unless_zero(r, p, n)
    dst = ss_dst.entry(r, p, n) if src.dim else ss_dst._entry_unless_zero(r, p, n)
    rows = []
    for rep in src.reps:
        x = ss_src.fc.from_coords(n, rep)
        y = f(x)
        c = dst.coords(ss_dst.fc.coords(y, n))
        if c is None:
            return None, src, dst
        rows.append(c)
    return rows, src, dst


def check_filtration_preserving(f: LinearMap, kind="W", bound=None) -> list:
    """Witnesses of adapted basis elements that f sends to a higher level, degrees 0..bound.

    The filtered complexes are those kept on f's source and target.
    """
    bad = []
    bound = min(f.source.N, f.target.N) if bound is None else bound
    fcs, fct = filtered_complex(f.source, kind, bound), filtered_complex(f.target, kind, bound)
    for n in range(0, bound + 1):
        for b, lv in zip(fcs.elements[n], fcs.levels[n]):
            y = f(b)
            if y.is_zero:
                continue
            ylv = fct.level_of_coords(n, fct.coords(y, n))
            if ylv is not None and ylv > lv:
                bad.append({"degree": n, "level": lv, "image_level": ylv,
                            "witness": repr(b)})
    return bad


def is_Er_quasi_iso(f: LinearMap, r: int, kind="W", bound=None):
    """Verdict: does f induce an isomorphism on page r+1 (= H of page r)?

    Returns (ok, witnesses).  Pre: f preserves the filtration.  The spectral
    sequences are those kept on f's source and target for this kind.
    """
    ss_s, ss_t = spectral_sequence(f.source, kind), spectral_sequence(f.target, kind)
    pre = check_filtration_preserving(f, kind)
    if pre:
        return False, [{"reason": "not filtration-preserving", **pre[0]}]
    if min(f.source.N, f.target.N) - r - 2 < 0:
        raise CutoffError(f"cutoff too small for an E_{r}-quasi-isomorphism check")
    bound = min(ss_s._bound(r + 1), ss_t._bound(r + 1)) if bound is None else bound
    lo = min(ss_s.fc.level_range()[0], ss_t.fc.level_range()[0])
    hi = max(ss_s.fc.level_range()[1], ss_t.fc.level_range()[1])
    bad = []
    for n in range(0, bound + 1):
        for p in range(lo, hi + 1):
            rows, src, dst = induced_page_map(f, r + 1, ss_s, ss_t, p, n)
            if rows is None:
                bad.append({"p": p, "n": n, "reason": "map does not descend"})
                continue
            if not linalg.is_isomorphism(rows, src.dim, dst.dim):
                bad.append({"p": p, "n": n, "dim_src": src.dim, "dim_dst": dst.dim})
    return (not bad), bad


# ---------------------------------------------------------------------------
# decalage
# ---------------------------------------------------------------------------

class _Decalage(FilteredComplex):
    """Dec W of a filtered complex, with its adapted basis in a Span of the parent's rows."""

    def __init__(self, parent: FilteredComplex):
        self.parent = parent
        super().__init__(parent.X, parent.kind + "-dec", parent.bound - 1)

    def _adapted_basis(self, n):
        """Level by level, the vectors of Z(a) = {x in W_a C^n : dx in W_{a-1} C^{n+1}}, a = p - n.

        Z(a) grows with a and the span holds vectors of Z(a') for a' <= a
        only, so once the span is as large as Z(a) it is Z(a), and once it
        is as large as C^n no later level adds anything: both stop the loop.
        """
        fc = self.parent
        lo, hi = fc.level_range()
        full = fc.dim(n)
        chosen, levels, elems = linalg.Span(), [], []
        for p in range(lo + n, hi + n + 2):
            if len(levels) == full:
                break
            z = fc.z_basis(n, p - n, p - n - 1)
            for v in z:
                if len(levels) == len(z):
                    break
                if chosen.add(v):
                    levels.append(p)
                    elems.append(fc.from_coords(n, v))
        return levels, elems, chosen

    def coords(self, x: Element, n):
        sol = self._frames[n].coords(self.parent.coords(x, n))
        if sol is None:
            raise AlgebraError("element not in the filtered complex")
        return sol


def decalage(C: FilteredComplex) -> FilteredComplex:
    """Dec W_p C^n = {x in W_{p-n} C^n : dx in W_{p-n-1} C^{n+1}}.

    Degree n needs degree n+1 of C, so the result stops one degree below C.
    """
    if C.bound < 1:
        raise CutoffError(f"the decalage in degree n needs degree n + 1, but the filtered "
                          f"complex of {C.X!r} stops at degree {C.bound}")
    return _Decalage(C)


# ---------------------------------------------------------------------------
# strictness
# ---------------------------------------------------------------------------

def strictness_check(rows, src_levels, dst_levels) -> list:
    """Witnesses of image(map) ∩ F^q != map(F^q) for a leveled linear map.

    rows[i] = the coefficient row of the image of the i-th source basis
    vector; levels are F-levels (decreasing filtration: F^q = span of level
    >= q).
    """
    bad = []
    cols = len(dst_levels)
    if cols == 0 or not rows:
        return bad
    qs = sorted(set(src_levels) | set(dst_levels))
    for q in qs:
        img_subspace = [r for r, lv in zip(rows, src_levels) if lv >= q]
        f_target = [{i: _ONE} for i, lv in enumerate(dst_levels) if lv >= q]
        dim_lhs = len(linalg.intersect(rows, f_target, cols))
        dim_rhs = linalg.rank(img_subspace, cols)
        if dim_lhs != dim_rhs:
            bad.append({"q": q, "dim_image_cap_F": dim_lhs, "dim_image_of_F": dim_rhs})
    return bad


def gr_differential_strict(g: GrComplex, n: int) -> list:
    """MH-style strictness of d: Gr^n -> Gr^{n+1} for the inherited F levels."""
    if g.hodge.get(n) is None or g.hodge.get(n + 1) is None:
        raise AlgebraError("graded piece carries no second filtration")
    return strictness_check(g.d.get(n, []), g.hodge[n], g.hodge[n + 1])

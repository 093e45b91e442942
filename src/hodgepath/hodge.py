"""Mixed Hodge diagram verification and Hodge structures on homotopy groups.

A mixed Hodge diagram is a zig-zag whose first vertex is a weight-filtered
algebra over Q, whose last vertex carries weight and Hodge filtrations over a
quadratic imaginary extension Q(sqrt d), and whose comparison string induces
isomorphisms on the cohomology of the weight-graded pieces.  The rational
structure lives only at the first vertex; the conjugation used by the purity
checks is transported along the string, never assumed coefficientwise.

Axiom checks:
  MH0  the string consists of E_1 quasi-isomorphisms for W; W is regular and
       exhaustive, F biregular, cohomology of finite type (automatic here);
  MH1  the differential of each weight-graded piece of the last vertex is
       strictly compatible with F;
  MH2  F induces a pure structure of weight p+n on H^n of the p-th
       weight-graded piece, with conjugation transported from the Q-side.

Each call builds one filtered complex per (vertex algebra, filtration) and
one graded piece per (vertex, p): MH0, the bounds, MH1, MH2 and the
transport at every (n, p) read the same objects, which are dropped when the
call returns.  `pi_star` builds the decalage of its model once.

`pi_star` reads the structures on pi_* off the indecomposables of a minimal
model M, which is valid only when the comparison rho_v: M -> A_v is a
quasi-isomorphism at every vertex (Morgan, Publ. IHES 48, 1978).  That
precondition is the mapping-cone verdict `homology.cone_is_quasi_iso`, the
proof `minimal_model` certifies with; where the cone proves nothing, the
exact `quasi_iso_report` answers.  A vertex map that changes the degree of a
generator has no H(rho_v) and fails the precondition with a `degree` witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .algebra import (AlgebraError, FreeCdga, combination, compose,
                      extend_scalars, identity_morphism)
from .diagrams import Diagram, DiagramMorphism, HoMorphism, validate_ho_morphism
from .filtered import (FilteredComplex, GrComplex, SpectralSequence, decalage,
                       gr, gr_differential_strict, is_Er_quasi_iso,
                       weight_bounds_report)
from .homology import cone_is_quasi_iso, off_degree_generators
from .ops import ValidationReport, indecomposables, induced_on_indecomposables
from .paths import integrate
from .sullivan import is_minimal


# ---------------------------------------------------------------------------
# pure/mixed Hodge structures on exact vector spaces
# ---------------------------------------------------------------------------

def _conj_vec(v):
    return {j: c.conjugate() for j, c in v.items()}


def _unit_rows(dim):
    return [{i: Fraction(1)} for i in range(dim)]


class MhsStructure:
    """Candidate mixed Hodge structure on coordinates of a rational space.

    Vectors are coefficient rows (see linalg) over a basis of V.  dim: the
    dimension of V (the basis is rational unless a transported conjugation
    is supplied).  weight_vectors: list of (level, row) spanning W adaptedly.
    hodge_spans: {q: [rows]} with F^q = span (decreasing: F^q contains
    F^{q+1} after closure).  conj: an antilinear involution on rows
    (default: entrywise conjugation).
    """

    def __init__(self, dim, weight_vectors, hodge_spans, conj=None):
        self.dim = dim
        self.weight_vectors = list(weight_vectors)
        self.hodge_spans = {q: list(vs) for q, vs in hodge_spans.items()}
        self.conj = conj or _conj_vec
        self._caps = {}

    def f_span(self, q):
        out = []
        for qq, vs in self.hodge_spans.items():
            if qq >= q:
                out.extend(vs)
        return out

    def weight_levels(self):
        return sorted({lv for lv, _ in self.weight_vectors})

    def check(self) -> ValidationReport:
        rep = ValidationReport(subject="mixed Hodge structure")
        # involution
        for i, e in enumerate(_unit_rows(self.dim)):
            if self.conj(self.conj(e)) != e:
                rep.add("conjugation", f"not an involution at basis {i}")
        levels = self.weight_levels()
        if not levels and self.dim:
            rep.add("weights", "no weight data")
        qs = sorted(self.hodge_spans)
        for m in levels:
            den = [v for lv, v in self.weight_vectors if lv <= m - 1]
            num = [v for lv, v in self.weight_vectors if lv <= m]
            grm = linalg.Subquotient(num, den, self.dim)
            if grm.dim == 0:
                continue

            def project(vs):
                out = []
                for v in vs:
                    c = grm.coords(v)
                    if c is not None:
                        out.append(c)
                return out

            qs_range = range(min(qs + [0]) - 1, max(qs + [0]) + 2) if qs else range(0, 1)
            for q in qs_range:
                Fq = project(self._f_cap_weight(q, m))
                Fbar = project([self.conj(v) for v in self._f_cap_weight(m - q + 1, m)])
                if linalg.intersect(Fq, Fbar, grm.dim):
                    rep.add("purity-intersection",
                            f"F^{q} cap conj(F^{m - q + 1}) != 0 at weight {m}",
                            weight=m, q=q)
                total = linalg.rank(Fq + Fbar, grm.dim)
                if total != grm.dim:
                    rep.add("purity-sum",
                            f"F^{q} + conj(F^{m - q + 1}) misses Gr_{m}",
                            weight=m, q=q, dim=total, expected=grm.dim)
        return rep

    def _f_cap_weight(self, q, m):
        """F^q cap W_m (so projecting to Gr_m is legitimate); computed once per (F^q, m).

        F^q is the span of the Hodge levels >= q, so it is F^q' for the least
        such level q'; above every level it is zero.
        """
        q = min((qq for qq in self.hodge_spans if qq >= q), default=None)
        if q is None:
            return []
        out = self._caps.get((q, m))
        if out is None:
            wm = [v for lv, v in self.weight_vectors if lv <= m]
            out = self._caps[q, m] = linalg.intersect(self.f_span(q), wm, self.dim)
        return out

    def types_at(self, m):
        """Dimension of F^q cap conj(F^{m-q}) projected to Gr_m, per (q, m-q)."""
        den = [v for lv, v in self.weight_vectors if lv <= m - 1]
        num = [v for lv, v in self.weight_vectors if lv <= m]
        grm = linalg.Subquotient(num, den, self.dim)
        out = {}
        qs = sorted(self.hodge_spans)
        for q in qs:
            Fq = [grm.coords(v) for v in self._f_cap_weight(q, m)]
            Fq = [v for v in Fq if v is not None]
            Fb = [grm.coords(self.conj(v)) for v in self._f_cap_weight(m - q, m)]
            Fb = [v for v in Fb if v is not None]
            d = len(linalg.intersect(Fq, Fb, grm.dim))
            if d:
                out[(q, m - q)] = d
        return out


# ---------------------------------------------------------------------------
# mixed Hodge diagrams
# ---------------------------------------------------------------------------

class MixedHodgeDiagram:
    """Zig-zag (A_Q, W) <--> (A_C, W, F): first vertex rational, last bifiltered."""

    def __init__(self, diagram: Diagram, d: int = -1):
        self.diagram = diagram
        self.d = d
        verts = diagram.index.vertices
        self.first = verts[0]
        self.last = verts[-1]
        A0 = diagram.algebras[self.first]
        As = diagram.algebras[self.last]
        if not A0.field.is_rational:
            raise AlgebraError("first vertex must be rational")
        if As.field.is_rational:
            raise AlgebraError("last vertex must live over the extension")
        if not A0.has_weights or not As.has_weights:
            raise AlgebraError("weight filtration missing")
        if not As.has_hodge:
            raise AlgebraError("Hodge filtration missing on the last vertex")

    @property
    def rational(self):
        return self.diagram.algebras[self.first]

    @property
    def complex_vertex(self):
        return self.diagram.algebras[self.last]

    @property
    def N(self):
        return self.diagram.check_upto()

    def string_path(self):
        """Arrows from the first to the last vertex with orientation flags."""
        verts = self.diagram.index.vertices
        out = []
        for k in range(len(verts) - 1):
            a, b = verts[k], verts[k + 1]
            found = None
            for ar in self.diagram.index.arrows:
                if {ar.src, ar.dst} == {a, b}:
                    found = (ar.name, ar.src == a)
                    break
            if found is None:
                raise AlgebraError(f"no arrow between {a} and {b}")
            out.append(found)
        return out


@dataclass
class MhdReport:
    axioms: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(v["ok"] for v in self.axioms.values())

    def to_doc(self):
        return {"ok": self.ok, "axioms": self.axioms}


def _gr_class_map(phi, p, n, fc_src, fc_dst, grc_src: GrComplex, grc_dst: GrComplex):
    """Coefficient rows of H^n(Gr_p(phi)) (one per source class), or None witness."""
    sq_s = grc_src.cohomology(n)
    sq_d = grc_dst.cohomology(n)
    sel_dst = [i for i, lv in enumerate(fc_dst.levels[n]) if lv == p]
    position = {j: t for t, j in enumerate(sel_dst)}
    rows = []
    for rep in sq_s.reps:
        el = combination(fc_src.ambient, rep, grc_src.reps[n])
        if el.is_zero:
            rows.append({})
            continue
        y = phi(el)
        gr_v = {position[j]: c for j, c in fc_dst.coords(y, n).items() if j in position}
        c = sq_d.coords(gr_v)
        if c is None:
            return None, sq_s, sq_d
        rows.append(c)
    return rows, sq_s, sq_d


def _mat_inverse(rows, dim):
    """Inverse of a square matrix given as coefficient rows; None if singular.

    Row i of the inverse is the coordinate row of the i-th unit vector over
    the rows.
    """
    inverse = linalg.solve(rows, dim, _unit_rows(dim)) if len(rows) == dim else [None]
    return None if None in inverse else inverse


def _mat_compose(first, then):
    """Coefficient rows of (then o first): first maps into the rows of then."""
    return [linalg.combine(row, then) for row in first]


class Transport:
    """Composite isomorphism H^n(Gr_p A_Q) (x) Q(sqrt d) -> H^n(Gr_p A_C)."""

    def __init__(self, matrix, dim_src, dim_dst):
        self.matrix = matrix
        self.dim_src = dim_src
        self.dim_dst = dim_dst
        self.inverse = _mat_inverse(matrix, dim_dst) if dim_src == dim_dst else None

    def conjugation(self):
        if self.inverse is None:
            return None

        def sigma(v):
            # v M^-1, conjugated, then times M
            return linalg.combine(_conj_vec(linalg.combine(v, self.inverse)), self.matrix)

        return sigma


class _Complexes:
    """One spectral sequence (with its filtered complex) per (algebra, filtration)
    and one weight-graded piece per (algebra, p), built on first use.

    Keys are algebra identities; the algebras belong to the diagram, which
    outlives the call that holds this object.
    """

    def __init__(self):
        self._sequences = {}
        self._graded = {}

    def sequence(self, X, kind="W") -> SpectralSequence:
        ss = self._sequences.get((id(X), kind))
        if ss is None:
            ss = self._sequences[id(X), kind] = SpectralSequence(FilteredComplex(X, kind=kind))
        return ss

    def complex(self, X, kind="W") -> FilteredComplex:
        return self.sequence(X, kind).fc

    def graded(self, X, p) -> GrComplex:
        g = self._graded.get((id(X), p))
        if g is None:
            g = self._graded[id(X), p] = gr(None, p, fc=self.complex(X))
        return g


def transport_rational_structure(D: MixedHodgeDiagram, n: int, p: int, complexes=None):
    """Transported isomorphism and conjugation at (n, p), with soundness checks.

    Fails with a witness when some comparison does not induce an isomorphism
    on H^n of the p-th weight-graded piece.  complexes holds the vertex
    complexes and graded pieces of a `check_mhd` call, which shares them
    across every (n, p); without it they are built afresh.
    """
    dia = D.diagram
    cx = complexes or _Complexes()
    verts = dia.index.vertices
    algs = {v: _transport_vertex_algebra(D, v) for v in verts}
    fcs = {v: cx.complex(algs[v]) for v in verts}
    grcs = {v: cx.graded(algs[v], p) for v in verts}
    dim = grcs[verts[0]].cohomology(n).dim
    current = _unit_rows(dim)
    cur_dim = dim
    for arrow_name, forward in D.string_path():
        a = dia.arrow(arrow_name)
        phi = dia.phi[arrow_name]
        src_v, dst_v = a.src, a.dst
        rows, sq_s, sq_d = _gr_class_map(phi, p, n, fcs[src_v], fcs[dst_v],
                                         grcs[src_v], grcs[dst_v])
        if rows is None:
            raise AlgebraError(f"comparison {arrow_name} does not descend at (n={n}, p={p})")
        if not linalg.is_isomorphism(rows, sq_s.dim, sq_d.dim):
            raise AlgebraError(
                f"comparison {arrow_name} is not an isomorphism on H^{n}(Gr_{p})")
        if forward:
            current = _mat_compose(current, rows)
            cur_dim = sq_d.dim
        else:
            inv = _mat_inverse(rows, sq_d.dim)
            if inv is None:
                raise AlgebraError(f"comparison {arrow_name} not invertible")
            current = _mat_compose(current, inv)
            cur_dim = sq_s.dim
    tr = Transport(current, dim, cur_dim)
    sigma = tr.conjugation()
    if sigma is not None:
        for e in _unit_rows(cur_dim):
            if sigma(sigma(e)) != e:
                raise AlgebraError("transported conjugation is not an involution")
    return tr


def _transport_vertex_algebra(D: MixedHodgeDiagram, v):
    """The algebra whose elements flow through the string at vertex v.

    At the rational vertex this is the scalar extension used by the first
    comparison (so transported representatives live where the comparison maps
    can consume them)."""
    if v != D.first:
        return D.diagram.algebras[v]
    for a in D.diagram.index.arrows:
        if a.src == D.first and D.diagram.coerce[a.name] is not None:
            return D.diagram.phi[a.name].source
    cached = getattr(D, "_extended_first_cache", None)
    if cached is None:
        cached, _ = extend_scalars(D.rational, D.d)
        D._extended_first_cache = cached
    return cached


def check_mhd(D: MixedHodgeDiagram, max_degree=None) -> MhdReport:
    """Verify MH0-MH2 with witnesses; the report carries all failures."""
    report = MhdReport()
    dia = D.diagram
    N = D.N if max_degree is None else max_degree
    cx = _Complexes()

    # MH0: E_1 quasi-isomorphisms along the string; bounds bookkeeping
    mh0 = {"ok": True, "witnesses": [], "arrows": {}}
    for u in dia.phi:
        phi = dia.phi[u]
        ok, bad = is_Er_quasi_iso(phi, 1, kind="W", sequences=(
            cx.sequence(phi.source), cx.sequence(phi.target)))
        mh0["arrows"][u] = ok
        if not ok:
            mh0["ok"] = False
            mh0["witnesses"].append({"arrow": u, "failures": bad[:3]})
    mh0["weight_bounds"] = weight_bounds_report(cx.complex(D.rational, "W"))
    mh0["hodge_bounds"] = weight_bounds_report(cx.complex(D.complex_vertex, "F"))
    mh0["finite_type"] = True
    report.axioms["MH0"] = mh0

    # MH1: strictness of d on Gr_p^W(A_C) with respect to F
    mh1 = {"ok": True, "witnesses": []}
    fc_c = cx.complex(D.complex_vertex)
    lo, hi = fc_c.level_range()
    for p in range(lo, hi + 1):
        grc = cx.graded(D.complex_vertex, p)
        for n in range(0, min(N - 1, fc_c.bound - 1) + 1):
            bad = gr_differential_strict(grc, n)
            if bad:
                mh1["ok"] = False
                mh1["witnesses"].append({"p": p, "n": n, "failures": bad})
    report.axioms["MH1"] = mh1

    # MH2: purity of weight p+n on H^n(Gr_p^W) with transported conjugation
    mh2 = {"ok": True, "witnesses": [], "pure_pieces": []}
    for p in range(lo, hi + 1):
        grc = cx.graded(D.complex_vertex, p)
        for n in range(0, min(N - 1, fc_c.bound - 1) + 1):
            sq = grc.cohomology(n)
            if sq.dim == 0:
                continue
            try:
                tr = transport_rational_structure(D, n, p, complexes=cx)
            except AlgebraError as e:
                mh2["ok"] = False
                mh2["witnesses"].append({"p": p, "n": n, "reason": str(e)})
                continue
            sigma = tr.conjugation()
            if sigma is None or tr.dim_src != sq.dim:
                mh2["ok"] = False
                mh2["witnesses"].append({"p": p, "n": n,
                                         "reason": "rational structure mismatch"})
                continue
            fspans = _hodge_spans_on_gr_cohomology(grc, n, sq)
            m = p + n
            st = MhsStructure(sq.dim, [(m, e) for e in _unit_rows(sq.dim)],
                              fspans, conj=sigma)
            ver = st.check()
            if not ver.ok:
                mh2["ok"] = False
                mh2["witnesses"].append({"p": p, "n": n,
                                         "failures": ver.failures})
            else:
                types = st.types_at(m)
                mh2["pure_pieces"].append(
                    {"p": p, "n": n, "weight": m, "dim": sq.dim,
                     "types": {f"({q},{r})": d for (q, r), d in sorted(types.items())}})
    report.axioms["MH2"] = mh2
    return report


def _hodge_spans_on_gr_cohomology(grc: GrComplex, n, sq):
    """F^q on H^n(Gr_p): classes of cocycles lying in F^q."""
    spans = {}
    hodges = grc.hodge.get(n)
    if hodges is None:
        raise AlgebraError("no Hodge levels on the graded piece")
    rows_d = grc.d.get(n, [])
    for q in sorted(set(hodges)):
        idx = [i for i, h in enumerate(hodges) if h >= q]
        rows = [rows_d[i] for i in idx] if rows_d else []
        vs = []
        for k in linalg.left_kernel(rows, len(idx)):
            cc = sq.coords({idx[i]: c for i, c in k.items()})
            if cc:
                vs.append(cc)
        if vs:
            spans[q] = vs
    return spans


def degeneration_check(D: MixedHodgeDiagram, max_degree=None) -> dict:
    """d_r = 0 on E_r(W) for r >= 2 and on E_r(F) for r >= 1, within cutoff."""
    out = {"ok": True, "witnesses": []}
    fc_w = FilteredComplex(D.rational, kind="W")
    ss_w = SpectralSequence(fc_w)
    lo, hi = fc_w.level_range()
    for r in range(2, (hi - lo) + 2):
        bad = ss_w.d_r_is_zero(r)
        if bad:
            out["ok"] = False
            out["witnesses"].extend({"filtration": "W", **b} for b in bad)
    fc_f = FilteredComplex(D.complex_vertex, kind="F")
    ss_f = SpectralSequence(fc_f)
    lo_f, hi_f = fc_f.level_range()
    for r in range(1, (hi_f - lo_f) + 2):
        bad = ss_f.d_r_is_zero(r)
        if bad:
            out["ok"] = False
            out["witnesses"].extend({"filtration": "F", **b} for b in bad)
    return out


# ---------------------------------------------------------------------------
# diagrams attached to a mixed Hodge dga candidate; homotopy groups
# ---------------------------------------------------------------------------

def mixed_hodge_dga_diagram(M: FreeCdga, D: MixedHodgeDiagram,
                            budget=None) -> Diagram:
    """The constant-shape diagram of M matching D's index: Q at the first
    vertex, scalar extension elsewhere, (W, F) at the last vertex."""
    dia = D.diagram
    EM, coer = extend_scalars(M, D.d)
    algebras = {}
    for v in dia.index.vertices:
        algebras[v] = M if v == D.first else EM
    arrows = {}
    for a in dia.index.arrows:
        src_alg = algebras[a.src]
        if src_alg is M:
            arrows[a.name] = (identity_morphism(EM), coer)
        else:
            arrows[a.name] = identity_morphism(EM)
    return Diagram(dia.index, algebras, tags=dia.tags, arrows=arrows,
                   budget=budget or dia.budget, name=f"{M.name}-diagram")


def dec_weight_structure(M: FreeCdga, n: int, dec: FilteredComplex | None = None) -> MhsStructure:
    """(M^n, Dec W, F) as an explicit candidate structure in monomial coords.

    dec is Dec W of M's weight complex, reaching degree n, if the caller has
    built it already; its degree n does not depend on how far it reaches.
    """
    if dec is None:
        dec = decalage(FilteredComplex(M, kind="W", bound=min(M.N, n + 1)))
    amb_dim = M.dim(n)
    wvecs = []
    for lv, el in zip(dec.levels[n], dec.elements[n]):
        wvecs.append((lv, M.coords(el, n)))
    hspans = {}
    for k, e in zip(M.basis_keys(n), _unit_rows(amb_dim)):
        hspans.setdefault(M.key_hodge(k), []).append(e)
    return MhsStructure(amb_dim, wvecs, hspans)


@dataclass
class PiStarReport:
    degrees: dict = field(default_factory=dict)
    preconditions: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(v.get("ok", False) for v in self.preconditions.values()) and \
            all(v["ok"] for v in self.degrees.values())

    def to_doc(self):
        return {"ok": self.ok, "preconditions": self.preconditions,
                "degrees": {str(k): v for k, v in sorted(self.degrees.items())}}


def pi_star(D: MixedHodgeDiagram, M: FreeCdga, f: HoMorphism,
            max_degree=None) -> PiStarReport:
    """Graded mixed Hodge structure (Q(M)^n, Dec W, F) on homotopy groups.

    Preconditions are checked and reported: M minimal with the weight shift,
    (M^n, Dec W, F) a mixed Hodge structure per degree, f a validating
    ho-morphism that is a level-wise quasi-isomorphism through the horizon.
    """
    rep = PiStarReport()
    N = (D.N if max_degree is None else max_degree)
    ok_min, wit = is_minimal(M, filtered=True)
    rep.preconditions["minimal"] = {"ok": ok_min, "witnesses": wit}
    mhs_ok = True
    mhs_wit = []
    top = min(N, M.N - 1)
    dec = decalage(FilteredComplex(M, kind="W", bound=top + 1)) if top >= 0 else None
    for n in range(0, top + 1):
        ver = dec_weight_structure(M, n, dec).check()
        if not ver.ok:
            mhs_ok = False
            mhs_wit.append({"degree": n, "failures": ver.failures})
    rep.preconditions["dec-weight-mhs"] = {"ok": mhs_ok, "witnesses": mhs_wit}
    val = validate_ho_morphism(f)
    # H(f_v) is not defined for a vertex map that changes degrees
    degree = [{"check": "degree", "witness": f"vertex {v}, generator {g}"}
              for v in f.source.index.vertices for g in off_degree_generators(f.maps[v])]
    upto = min(N - 1, f.source.check_upto() - 1)
    # a list, so that every vertex is asked and an error of the exact path at
    # any vertex surfaces
    all_qiso = not degree and all([cone_is_quasi_iso(f.maps[v], upto)
                                   for v in f.source.index.vertices])
    rep.preconditions["comparison"] = {
        "ok": val.ok and all_qiso,
        "witnesses": val.failures + degree + ([] if all_qiso else
                                              [{"check": "level-wise quasi-isomorphism"}])}
    for n in range(1, N + 1):
        gens_n = [g for g in M.gens if g.degree == n]
        dim = len(gens_n)
        entry = {"dim": dim, "ok": True, "weights": {}, "types": {}}
        if dim:
            units = _unit_rows(dim)
            wvecs = [(g.weight + n, e) for g, e in zip(gens_n, units)]
            hspans = {}
            for g, e in zip(gens_n, units):
                hspans.setdefault(g.hodge, []).append(e)
            st = MhsStructure(dim, wvecs, hspans)
            ver = st.check()
            entry["ok"] = ver.ok
            if not ver.ok:
                entry["witnesses"] = ver.failures
            for m in sorted({lv for lv, _ in wvecs}):
                entry["weights"][str(m)] = sum(1 for lv, _ in wvecs if lv == m)
                types = st.types_at(m)
                for (q, r), dd in sorted(types.items()):
                    entry["types"][f"({q},{r})"] = entry["types"].get(f"({q},{r})", 0) + dd
        entry["provisional"] = (n == M.N)
        rep.degrees[n] = entry
    return rep


def pi_star_induced_map(D1, M1, f1, D2, M2, f2, g: DiagramMorphism, budget=8):
    """Functoriality hook: the induced map on indecomposables for g: D1 -> D2.

    Lifts g f1 through f2 on the rational vertex and reports filtration
    compatibility of the induced matrices on Q.
    """
    from .sullivan import lift_against_weak_equivalence
    v0 = D1.first
    target = compose(g.maps[v0], f1.maps[v0])
    h, hom = lift_against_weak_equivalence(M1, f2.maps[v0], target, budget=budget)
    QA, QB = indecomposables(M1), indecomposables(M2)
    mats = induced_on_indecomposables(h, QA, QB, upto=min(M1.N, M2.N))
    compat = []
    for n, rows in mats.items():
        src = QA.degrees.get(n)
        dst = QB.degrees.get(n)
        if not src or not rows:
            continue
        for i, row in enumerate(rows):
            for j in row:
                if src.weights[i] is not None and dst.weights[j] is not None \
                        and dst.weights[j] > src.weights[i]:
                    compat.append({"check": "W", "degree": n,
                                   "from": src.labels[i], "to": dst.labels[j]})
                if src.hodges[i] is not None and dst.hodges[j] is not None \
                        and dst.hodges[j] < src.hodges[i]:
                    compat.append({"check": "F", "degree": n,
                                   "from": src.labels[i], "to": dst.labels[j]})
    return {"map": h, "matrices": mats, "mhs_compatible": not compat,
            "witnesses": compat}


# ---------------------------------------------------------------------------
# indecomposables of diagrams; integration-based homotopy invariance
# ---------------------------------------------------------------------------

def indecomposables_diagram(D: Diagram, upto=None) -> dict:
    """Vertexwise Q with descended filtrations and induced comparison maps."""
    out = {"vertices": {}, "arrows": {}}
    qs = {}
    for v in D.index.vertices:
        qs[v] = indecomposables(D.algebras[v], upto=upto)
        out["vertices"][v] = {
            "dims": qs[v].dims(),
            "weights": {n: qd.weights for n, qd in qs[v].degrees.items() if qd.dim},
            "hodges": {n: qd.hodges for n, qd in qs[v].degrees.items() if qd.dim}}
    for u in D.phi:
        a = D.arrow(u)
        src_alg = D.dom(u)
        qsrc = indecomposables(src_alg, upto=upto) if D.coerce[u] is not None \
            else qs[a.src]
        mats = induced_on_indecomposables(D.phi[u], qsrc, qs[a.dst], upto=upto)
        out["arrows"][u] = {n: [[str(row.get(j, 0)) for j in range(qs[a.dst].dim(n))]
                                for row in rows]
                            for n, rows in mats.items() if rows}
    return out


def stokes_ho_report(h, upto=None) -> ValidationReport:
    """The two integration identities of a homotopy of ho-morphisms.

    Vertexwise: d(int h) + int(d h) = g - f.  Arrowwise, with K = int int H_u:
    K d - d K = int G_u - int F_u + int h_dst phi - phi int h_src.
    """
    rep = ValidationReport(subject="integration identities")
    f, g = h.f, h.g
    upto_eff = min(f.source.check_upto(), f.target.check_upto()) - 1 \
        if upto is None else upto
    from .paths import stokes_defect
    for v in f.source.index.vertices:
        for w in stokes_defect(h.vertex[v], upto=upto_eff):
            rep.add("vertex-stokes", f"vertex {v}: {w}")
    for u in f.source.phi:
        a = f.source.arrow(u)
        dom = f.source.algebras[a.src]
        to_dom = f.source.to_dom(u)
        phi_src = f.source.comp(u)
        phi_dst = f.target.comp(u)
        H_u = h.arrows[u]
        F_u, G_u = f.homotopies[u], g.homotopies[u]
        hi, hj = h.vertex[a.src], h.vertex[a.dst]
        for n in range(0, upto_eff + 1):
            for b in dom.basis(n):
                x = to_dom(b)
                lhs = integrate(integrate(H_u(to_dom(b.d())))) \
                    - integrate(integrate(H_u(x))).d()
                rhs = (integrate(G_u(x)) - integrate(F_u(x))
                       + integrate(hj(phi_src(b))) - phi_dst(integrate(hi(b))))
                if lhs != rhs:
                    rep.add("arrow-stokes", f"arrow {u}, degree {n}: {b!r}")
    return rep

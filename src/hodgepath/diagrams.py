"""Zig-zag diagrams of dg algebras: ho-morphisms, rectification, composition.

Index categories carry a binary degree; non-identity arrows go from degree 0
to degree 1.  Vertices are tagged plain / filtered / bifiltered; the tag
selects the vertex path object (plain path, weight-shifted path) and the
equivalence notion.  `Diagram.vertex_path` makes that choice, from the
diagram's budget and the vertex's tag: every homotopy, mapping path and lift
of a diagram lives in that path object or in a path of it, and a space
paired with it gets its path from `paths.path_like`.  Comparison maps may
change scalars (rational vertex into a quadratic extension); rectification
and composition require one common scalar field, which is all their callers
need.

A ho-morphism is a family of vertex maps plus one chosen homotopy per arrow
making each square commute up to homotopy; validating one checks each arrow
homotopy as a homotopy, with the endpoint and chain checks of
`paths.verify_homotopy`.  The ho-composite g * f joins the two composites
with a strict side, P(g)F and G f, per arrow by `homotopy_add`.  The mapping
path of a ho-morphism alternates the endpoint evaluation with the vertex
degree, which is exactly what makes its two legs strict; `rectify` returns it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (AlgebraError, FreeCdga, Morphism, TableCdga, _accumulate, _element,
                      compose, identity_morphism)
from .filtered import check_filtration_preserving
from .lifting import LiftObstruction, fill_square, free_lift, homotopy_add, lift_homotopy
from .ops import ValidationReport, check_cdga, check_morphism
from .paths import (Homotopy, MappingPath, _homotopy_failures, coproduct, c_hat, delta, iota,
                    keyed, pair_paths, path_like, path_linear_map, path_of, verify_homotopy)
from .sullivan import lift_against_weak_equivalence, minimal_model

W_SHIFT = {"plain": 0, "filtered": 1, "bifiltered": 1}


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    dst: str


class IndexCategory:
    """Finite index category with a binary degree; arrows go 0 -> 1."""

    def __init__(self, degrees: dict, arrows):
        self.degrees = dict(degrees)
        self.vertices = sorted(self.degrees)
        self.arrows = [a if isinstance(a, Arrow) else Arrow(*a) for a in arrows]
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate arrow name")
        for a in self.arrows:
            if a.src not in self.degrees or a.dst not in self.degrees:
                raise AlgebraError(f"arrow {a.name} touches an unknown vertex")
            if not (self.degrees[a.src] == 0 and self.degrees[a.dst] == 1):
                raise AlgebraError(
                    f"arrow {a.name}: non-identity arrows must go from degree 0 "
                    "to degree 1 (binary-degree index category)")

    def degree(self, v):
        return self.degrees[v]

    @staticmethod
    def zigzag(length: int) -> "IndexCategory":
        """0 -> 1 <- 2 -> ... with `length` arrows."""
        degrees = {str(i): i % 2 for i in range(length + 1)}
        arrows = []
        for k in range(length):
            a, b = str(k), str(k + 1)
            if degrees[a] == 0:
                arrows.append(Arrow(f"u{k}", a, b))
            else:
                arrows.append(Arrow(f"u{k}", b, a))
        return IndexCategory(degrees, arrows)


class Diagram:
    """Vertex algebras with comparison morphisms over an index category."""

    def __init__(self, index: IndexCategory, algebras: dict, tags=None,
                 arrows=None, budget=None, name=""):
        self.index = index
        self.algebras = dict(algebras)
        self.tags = {v: (tags or {}).get(v, "plain") for v in index.vertices}
        self.budget = budget
        self.name = name or "diagram"
        self.phi = {}
        self.coerce = {}
        for a in index.arrows:
            entry = (arrows or {}).get(a.name)
            if entry is None:
                raise AlgebraError(f"missing comparison for arrow {a.name}")
            if isinstance(entry, tuple):
                phi, coerce = entry
            else:
                phi, coerce = entry, None
            if phi.target is not self.algebras[a.dst]:
                raise AlgebraError(f"arrow {a.name}: comparison target mismatch")
            if coerce is None and phi.source is not self.algebras[a.src]:
                raise AlgebraError(f"arrow {a.name}: comparison source mismatch")
            self.phi[a.name] = phi
            self.coerce[a.name] = coerce

    def arrow(self, name) -> Arrow:
        for a in self.index.arrows:
            if a.name == name:
                return a
        raise AlgebraError(f"unknown arrow {name}")

    def dom(self, u: str):
        """Domain algebra of the comparison (vertex algebra after base change)."""
        return self.phi[u].source

    def comp(self, u: str) -> Morphism:
        """Effective comparison A_src -> A_dst (coercion folded in)."""
        phi = self.phi[u]
        c = self.coerce[u]
        return phi if c is None else compose(phi, c, name=f"phi_{u}")

    def to_dom(self, u: str) -> Morphism:
        c = self.coerce[u]
        return c if c is not None else identity_morphism(self.algebras[self.arrow(u).src])

    def vertex_path(self, v):
        return path_of(self.algebras[v], self.budget, W_SHIFT[self.tags[v]])

    def same_field(self) -> bool:
        return len({A.field for A in self.algebras.values()}) == 1 and \
            all(c is None for c in self.coerce.values())

    def check_upto(self) -> int:
        return min(A.N for A in self.algebras.values())


def validate_diagram(D: Diagram) -> ValidationReport:
    """The cdga identities of the vertex algebras and the comparison maps.

    A vertex failure is reported as `vertex-<check>`, a comparison failure as
    `comparison-<check>`, each witnessed by the vertex or arrow.  Free and
    table vertices, the presentations of documents, get `check_cdga`; path
    objects and subalgebras are cdgas by construction.  An arrow that does
    not preserve degree gets no filtration check.
    """
    rep = ValidationReport(subject=f"diagram {D.name}")
    for v in D.index.vertices:
        if not isinstance(D.algebras[v], (FreeCdga, TableCdga)):
            continue
        for fl in check_cdga(D.algebras[v]).failures:
            extra = {k: x for k, x in fl.items() if k not in ("check", "witness")}
            rep.add("vertex-" + fl["check"], f"vertex {v}: {fl['witness']}", **extra)
    for u in D.phi:
        failures = check_morphism(D.phi[u])
        for fl in failures:
            rep.add("comparison-" + fl["check"], f"arrow {u}: {fl['witness']}")
        if any(fl["check"] == "degree" for fl in failures):
            continue
        a = D.arrow(u)
        for kind, tag_need in (("W", ("filtered", "bifiltered")), ("F", ("bifiltered",))):
            if D.tags[a.src] in tag_need and D.tags[a.dst] in tag_need:
                bad = check_filtration_preserving(D.phi[u], kind=kind)
                if bad:
                    rep.add(f"comparison-{kind}-filtration", f"arrow {u}: {bad[0]}")
    return rep


# ---------------------------------------------------------------------------
# strict morphisms and ho-morphisms
# ---------------------------------------------------------------------------

class DiagramMorphism:
    """Strict morphism: vertex maps with exactly commuting squares."""

    def __init__(self, source: Diagram, target: Diagram, maps: dict, name=""):
        self.source = source
        self.target = target
        self.maps = dict(maps)
        self.name = name

    def vertex(self, v) -> Morphism:
        return self.maps[v]

    def dom_map(self, u) -> Morphism:
        """The vertex map extended to the comparison domain at arrow u."""
        a = self.source.arrow(u)
        f = self.maps[a.src]
        cs = self.source.coerce[u]
        ct = self.target.coerce[u]
        if cs is None and ct is None:
            return f
        src_dom = self.source.dom(u)
        tgt_dom = self.target.dom(u)

        def fn(x):
            out = {}
            for k, c in x.terms.items():
                _accumulate(out, f(f.source.from_key(k)).terms, c)
            return _element(tgt_dom, out)

        return Morphism(src_dom, tgt_dom, fn, name=f"{self.name}@{u}")


def validate_diagram_morphism(F: DiagramMorphism) -> ValidationReport:
    rep = ValidationReport(subject=f"morphism {F.name}")
    upto = min(F.source.check_upto(), F.target.check_upto())
    for u in F.source.phi:
        a = F.source.arrow(u)
        lhs = compose(F.maps[a.dst], F.source.comp(u))
        rhs = compose(F.target.comp(u), F.maps[a.src])
        A = F.source.algebras[a.src]
        for n in range(0, upto + 1):
            for b in A.basis(n):
                if lhs(b) != rhs(b):
                    rep.add("square", f"arrow {u}, degree {n}")
                    break
    return rep


class HoMorphism:
    """Vertex maps f_v plus per-arrow homotopies F_u from f_dst phi to phi f_src."""

    def __init__(self, source: Diagram, target: Diagram, maps: dict,
                 homotopies: dict, name=""):
        self.source = source
        self.target = target
        self.maps = dict(maps)
        self.homotopies = dict(homotopies)  # arrow -> Morphism dom(u) -> P(B_dst)
        self.name = name

    def vertex(self, v) -> Morphism:
        return self.maps[v]

    def path_target(self, u):
        a = self.source.arrow(u)
        return self.target.vertex_path(a.dst)


def promote_strict(F: DiagramMorphism, name="") -> HoMorphism:
    """A strict morphism as a ho-morphism: constant arrow homotopies."""
    homotopies = {}
    for u in F.source.phi:
        a = F.source.arrow(u)
        PB = F.target.vertex_path(a.dst)
        homotopies[u] = compose(iota(PB), compose(F.maps[a.dst], F.source.phi[u]),
                                name=f"const@{u}")
    return HoMorphism(F.source, F.target, F.maps, homotopies,
                      name=name or F.name)


def validate_ho_morphism(f: HoMorphism, upto=None) -> ValidationReport:
    """Each arrow homotopy checked as one homotopy on the basis of its source vertex.

    Per arrow u, F_u after to_dom(u) must be a homotopy from f_dst phi_u to
    phi_u f_src in the vertex path of dst: `paths._homotopy_failures` checks
    its endpoints and d through upto, and the first failure of a degree is
    its witness.
    """
    rep = ValidationReport(subject=f"ho-morphism {f.name}")
    upto_eff = min(f.source.check_upto(), f.target.check_upto()) if upto is None else upto
    for u in f.source.phi:
        a = f.source.arrow(u)
        hm = compose(f.homotopies[u], f.source.to_dom(u))
        lhs0 = compose(f.maps[a.dst], f.source.comp(u))      # f_dst phi_u
        rhs1 = compose(f.target.comp(u), f.maps[a.src])      # phi_u f_src
        for n, failures in _homotopy_failures(hm, lhs0, rhs1, upto_eff,
                                              keyed(f.path_target(u))):
            if failures:
                rep.add(failures[0][0], f"arrow {u}, degree {n}")
    return rep


class HoHomotopy:
    """Homotopy between ho-morphisms: vertex homotopies plus square fillers."""

    def __init__(self, f: HoMorphism, g: HoMorphism, vertex: dict, arrows: dict,
                 name=""):
        self.f = f
        self.g = g
        self.vertex = dict(vertex)    # v -> Homotopy
        self.arrows = dict(arrows)    # u -> Morphism dom(u) -> P^2(B_dst)
        self.name = name


def _applied_once(h: Homotopy) -> Homotopy:
    """h with its map applied at most once per distinct non-zero input; h(0) = 0."""
    hm = h.map
    images = {}

    def apply(x):
        if x.is_zero:
            return hm.target.zero()
        y = images.get(x)
        if y is None:
            y = images[x] = hm(x)
        return y

    return Homotopy(h.f, h.g, Morphism(hm.source, hm.target, apply, name=hm.name))


def validate_ho_homotopy(h: HoHomotopy, upto=None) -> ValidationReport:
    """Vertex homotopy checks (verify_homotopy) and the four faces of each arrow square.

    Each vertex homotopy is applied once per distinct non-zero input within
    the call, and the vertex checks and the arrow faces share the images.
    """
    rep = ValidationReport(subject=f"ho-homotopy {h.name}")
    f, g = h.f, h.g
    upto_eff = min(f.source.check_upto(), f.target.check_upto()) if upto is None else upto
    vertex = {v: _applied_once(h.vertex[v]) for v in f.source.index.vertices}
    for v in f.source.index.vertices:
        sub = verify_homotopy(vertex[v], f.maps[v], g.maps[v], upto=upto_eff)
        for fl in sub.failures:
            rep.add("vertex-" + fl["check"], f"vertex {v}: {fl['witness']}")
    for u in f.source.phi:
        a = f.source.arrow(u)
        PB = f.path_target(u)
        P2 = path_of(PB)
        k2 = keyed(P2)
        H_u = h.arrows[u]
        Pd0 = path_linear_map(delta(PB, 0), P2, PB)
        Pd1 = path_linear_map(delta(PB, 1), P2, PB)
        F_u = f.homotopies[u]
        G_u = g.homotopies[u]
        hj = vertex[a.dst]
        hi = vertex[a.src]
        Pphi = path_linear_map(f.target.comp(u), f.target.vertex_path(a.src), PB)
        dom = f.source.algebras[a.src]
        for n in range(0, upto_eff + 1):
            for b in dom.basis(n):
                x = f.source.to_dom(u)(b)
                Hx = H_u(x)
                if Pd0(Hx) != F_u(x):
                    rep.add("face-F", f"arrow {u}, degree {n}")
                    break
                if Pd1(Hx) != G_u(x):
                    rep.add("face-G", f"arrow {u}, degree {n}")
                    break
                if k2.evaluate(Hx, 0) != hj(f.source.comp(u)(b)):
                    rep.add("face-hj", f"arrow {u}, degree {n}")
                    break
                if k2.evaluate(Hx, 1) != Pphi(hi(b)):
                    rep.add("face-hi", f"arrow {u}, degree {n}")
                    break
    return rep


def vertex_constant_homotopy(f: HoMorphism, v) -> Homotopy:
    """Constant homotopy at f_v inside the tag-appropriate vertex path."""
    P = f.target.vertex_path(v)
    return Homotopy(f.maps[v], f.maps[v], compose(iota(P), f.maps[v], name=f"const_{v}"))


def reflexive_ho_homotopy(f: HoMorphism) -> HoHomotopy:
    """The constant homotopy from f to itself (square filler P(iota) F_u)."""
    vertex = {v: vertex_constant_homotopy(f, v)
              for v in f.source.index.vertices}
    arrows = {}
    for u in f.source.phi:
        PB = f.path_target(u)
        arrows[u] = compose(path_linear_map(iota(PB), PB, path_of(PB)), f.homotopies[u],
                            name=f"refl@{u}")
    return HoHomotopy(f, f, vertex, arrows, name=f"refl({f.name})")


def build_ho_homotopy(f: HoMorphism, g: HoMorphism, vertex_homotopies: dict,
                      name="") -> HoHomotopy:
    """Fill the arrow squares of a homotopy from f to g with given vertex data.

    Requires free (Sullivan) comparison domains; each filler is one exact lift
    against the four-face boundary map.
    """
    arrows = {}
    for u in f.source.phi:
        a = f.source.arrow(u)
        PB = f.path_target(u)
        dom = f.source.dom(u)
        if not isinstance(dom, FreeCdga):
            raise AlgebraError("square filling needs free comparison domains")
        Pphi = path_linear_map(f.target.comp(u), f.target.vertex_path(a.src), PB)
        # faces as maps out of dom(u); vertex data enters through phi
        outer0 = compose(vertex_homotopies[a.dst].map, f.source.phi[u], name="hj.phi")
        outer1 = compose(Pphi, vertex_homotopies[a.src].map, name="P(phi).hi")
        arrows[u] = fill_square(dom, PB, f.homotopies[u], g.homotopies[u],
                                outer0, outer1)
    return HoHomotopy(f, g, vertex_homotopies, arrows, name=name)


def ho_homotopy_add(h1: HoHomotopy, h2: HoHomotopy) -> HoHomotopy:
    """Transitive composition of homotopies of ho-morphisms (free sources).

    The caller guarantees that h1 ends where h2 starts (shared middle
    representative); vertex homotopies are added and the arrow squares are
    refilled against the new boundary."""
    vertex = {v: homotopy_add(h1.vertex[v], h2.vertex[v])
              for v in h1.f.source.index.vertices}
    return build_ho_homotopy(h1.f, h2.g, vertex, name="h +~ h'")


# ---------------------------------------------------------------------------
# the mapping path of a ho-morphism and rectification
# ---------------------------------------------------------------------------

class HoMappingPath:
    """Vertexwise mapping paths with comparisons psi_u = (phi_u, F_u) pi_1.

    Each f_v's mapping path lives in the target's vertex path, and the
    mapping-path diagram takes the target's tags, so its vertex paths are
    the paths beside those.  The strict span p, q, the section iota and the
    contraction represent f's class.
    """

    def __init__(self, f: HoMorphism):
        if not f.source.same_field() or not f.target.same_field():
            raise AlgebraError("rectification needs one common scalar field")
        self.f = f
        src, tgt = f.source, f.target
        self.mps = {v: MappingPath(f.maps[v], tgt.vertex_path(v),
                                   q_endpoint=src.index.degree(v))
                    for v in src.index.vertices}
        arrows = {}
        for u in src.phi:
            a = src.arrow(u)
            mp_i, mp_j = self.mps[a.src], self.mps[a.dst]
            phi_u = src.comp(u)
            F_u = f.homotopies[u]

            def psi(x, mp_i=mp_i, mp_j=mp_j, phi_u=phi_u, F_u=F_u):
                av = mp_i.component_a(x)
                return mp_j.pair(phi_u(av), F_u(av))

            arrows[u] = Morphism(mp_i.space, mp_j.space, psi, name=f"psi_{u}")
        self.diagram = Diagram(src.index, {v: self.mps[v].space for v in src.index.vertices},
                               tags=tgt.tags, arrows=arrows, budget=tgt.budget,
                               name=f"MappingPath({f.name})")
        self.p = DiagramMorphism(self.diagram, src,
                                 {v: self.mps[v].p for v in src.index.vertices}, name="p")
        self.q = DiagramMorphism(self.diagram, tgt,
                                 {v: self.mps[v].q for v in src.index.vertices}, name="q")
        iotas = {v: self.mps[v].iota for v in src.index.vertices}
        J = {}
        for u in src.phi:
            a = src.arrow(u)
            PS = self.diagram.vertex_path(a.dst)
            Pamb = keyed(PS)
            phi_u = src.comp(u)
            F_u = f.homotopies[u]
            cB = coproduct(self.mps[a.dst].PB)
            iA = iota(path_like(PS, src.algebras[a.dst]))

            def J_u(x, phi_u=phi_u, F_u=F_u, cB=cB, iA=iA, Pamb=Pamb):
                return pair_paths(Pamb, [iA(phi_u(x)), cB(F_u(x))], depth=1)

            J[u] = Morphism(src.dom(u), PS, J_u, name=f"J_{u}")
        self.iota = HoMorphism(src, self.diagram, iotas, J, name="iota")

    def contraction(self) -> HoHomotopy:
        """Homotopy from iota p to the identity, with three-level square fillers."""
        f = self.f
        src = f.source
        vertex = {v: self.mps[v].contraction() for v in src.index.vertices}
        iota_p = compose_with_strict_left(self.iota, self.p)
        identity = promote_strict(
            DiagramMorphism(self.diagram, self.diagram,
                            {v: identity_morphism(self.mps[v].space)
                             for v in src.index.vertices}, name="1"), name="1")
        arrows = {}
        for u in src.phi:
            a = src.arrow(u)
            mp_i = self.mps[a.src]
            PS = self.diagram.vertex_path(a.dst)
            P2S = path_of(PS)
            P2amb = keyed(P2S)
            PA_j = path_like(PS, src.algebras[a.dst])
            phi_u = src.comp(u)
            F_u = f.homotopies[u]
            chB = c_hat(self.mps[a.dst].PB)
            ii = compose(path_linear_map(iota(PA_j), PA_j, path_of(PA_j)), iota(PA_j))

            def H_u(x, mp_i=mp_i, phi_u=phi_u, F_u=F_u, chB=chB, ii=ii, P2amb=P2amb):
                av = mp_i.component_a(x)
                return pair_paths(P2amb, [ii(phi_u(av)), chB(F_u(av))], depth=2)

            arrows[u] = Morphism(mp_i.space, P2S, H_u, name=f"H_{u}")
        return HoHomotopy(iota_p, identity, vertex, arrows, name="contraction")


def rectify(f: HoMorphism) -> HoMappingPath:
    """The mapping path of f: its strict span p, q represents f's class."""
    return HoMappingPath(f)


# ---------------------------------------------------------------------------
# composition of ho-morphisms
# ---------------------------------------------------------------------------

def compose_with_strict_left(f: HoMorphism, g: DiagramMorphism) -> HoMorphism:
    """f g for a strict g into f's source (exact, no lifts)."""
    maps = {v: compose(f.maps[v], g.maps[v]) for v in f.source.index.vertices}
    homotopies = {}
    for u in f.source.phi:
        F_u = f.homotopies[u]
        homotopies[u] = compose(F_u, g.dom_map(u), name=f"{F_u.name}.g")
    return HoMorphism(g.source, f.target, maps, homotopies, name="f g")


def compose_with_strict_right(g: DiagramMorphism, f: HoMorphism) -> HoMorphism:
    """g f for a strict g out of f's target (exact, no lifts)."""
    maps = {v: compose(g.maps[v], f.maps[v]) for v in f.source.index.vertices}
    homotopies = {}
    for u in f.source.phi:
        a = f.source.arrow(u)
        Pg = path_linear_map(g.maps[a.dst], f.path_target(u), g.target.vertex_path(a.dst))
        F_u = f.homotopies[u]
        homotopies[u] = compose(Pg, F_u, name=f"P(g).{F_u.name}")
    return HoMorphism(f.source, g.target, maps, homotopies, name="g f")


def compose_ho(g: HoMorphism, f: HoMorphism, name="") -> HoMorphism:
    """Representative of [g][f]: vertexwise g f, arrows P(g)F +~ G f.

    P(g)F is `compose_with_strict_right` of g's strict part and f, G f is
    `compose_with_strict_left` of g and f's strict part; homotopy_add joins
    them per arrow.  Needs level-wise free (Sullivan) comparison domains on
    f's source; the class of the result does not depend on the lift choices.
    """
    src = f.source
    if not all(isinstance(src.dom(u), FreeCdga) for u in src.phi):
        raise AlgebraError("ho-composition needs free comparison domains")
    g_strict = DiagramMorphism(g.source, g.target, g.maps)
    f_strict = DiagramMorphism(f.source, f.target, f.maps)
    PgF = compose_with_strict_right(g_strict, f)
    Gf = compose_with_strict_left(g, f_strict)
    homotopies = {}
    for u in src.phi:
        a = src.arrow(u)
        # endpoints: g_j f_j phi ~ g_j phi f_i ~ phi g_i f_i
        middle = compose(compose(g.maps[a.dst], f.target.comp(u)), f.maps[a.src])
        h1 = Homotopy(compose(PgF.maps[a.dst], src.comp(u)), middle, PgF.homotopies[u])
        h2 = Homotopy(middle, compose(g.target.comp(u), PgF.maps[a.src]), Gf.homotopies[u])
        homotopies[u] = homotopy_add(h1, h2).map
    return HoMorphism(src, g.target, PgF.maps, homotopies, name=name or "g * f")


def identity_ho(D: Diagram) -> HoMorphism:
    return promote_strict(
        DiagramMorphism(D, D, {v: identity_morphism(D.algebras[v])
                               for v in D.index.vertices}, name="1"), name="1")


# ---------------------------------------------------------------------------
# zig-zag evaluation
# ---------------------------------------------------------------------------

def evaluate_zigzag(source: Diagram, items, name="") -> HoMorphism:
    """Evaluate a zig-zag of strict morphisms and inverted ho-equivalences.

    items: sequence of ("fwd", DiagramMorphism | HoMorphism) and
    ("bwd", DiagramMorphism g, HoMorphism h) where h is a designated homotopy
    inverse of g.  Compositions with a strict side are exact; only genuine
    ho-by-ho composition spends a lift.
    """
    current_strict = DiagramMorphism(source, source,
                                     {v: identity_morphism(source.algebras[v])
                                      for v in source.index.vertices}, name="1")
    current = None  # HoMorphism once strictness is lost

    def as_ho():
        return promote_strict(current_strict) if current is None else current

    for item in items:
        kind = item[0]
        if kind == "fwd":
            gmap = item[1]
            if isinstance(gmap, DiagramMorphism):
                if current is None:
                    current_strict = DiagramMorphism(
                        source, gmap.target,
                        {v: compose(gmap.maps[v], current_strict.maps[v])
                         for v in source.index.vertices}, name="composite")
                else:
                    current = compose_with_strict_right(gmap, current)
            else:
                if current is None:
                    current = compose_with_strict_left(gmap, current_strict)
                else:
                    current = compose_ho(gmap, current)
        elif kind == "bwd":
            g, inverse = item[1], item[2]
            if inverse is None:
                raise AlgebraError("backward arrow without a designated inverse")
            if current is None:
                current = compose_with_strict_left(inverse, current_strict)
            else:
                current = compose_ho(inverse, current)
        else:
            raise AlgebraError(f"unknown zig-zag item {kind!r}")
    out = as_ho()
    out.name = name or "zigzag"
    return out


def span_zigzag(span: HoMappingPath):
    """The zig-zag q . p^{-1} of a rectified span, with iota as p's inverse."""
    return [("bwd", span.p, span.iota), ("fwd", span.q)]


def ho_morphisms_equal(f: HoMorphism, g: HoMorphism) -> bool:
    """Exact equality of vertex maps and arrow homotopies on bases."""
    upto = min(f.source.check_upto(), f.target.check_upto())
    for v in f.source.index.vertices:
        A = f.source.algebras[v]
        for n in range(0, upto + 1):
            for b in A.basis(n):
                if f.maps[v](b) != g.maps[v](b):
                    return False
    for u in f.source.phi:
        dom = f.source.dom(u)
        for n in range(0, upto + 1):
            for b in dom.basis(n):
                if f.homotopies[u](b) != g.homotopies[u](b):
                    return False
    return True


# ---------------------------------------------------------------------------
# lifting of ho-morphisms and cofibrant models of diagrams
# ---------------------------------------------------------------------------

def lift_ho_through_trivial_fibration(C: Diagram, w: DiagramMorphism,
                                      f: HoMorphism) -> HoMorphism:
    """g: C -> w.source with w g = f exactly (levels and homotopies).

    C must have free vertex algebras; w a level-wise trivial fibration.
    Obstructions are reported with their vertex or arrow.
    """
    if f.source is not C:
        raise AlgebraError("f must start at C")
    gmaps = {}
    for v in C.index.vertices:
        Cv = C.algebras[v]
        if not isinstance(Cv, FreeCdga):
            raise AlgebraError(f"vertex {v}: cofibrant lifting needs a free algebra")
        try:
            gmaps[v] = free_lift(Cv, w.maps[v], f.maps[v], name=f"g_{v}")
        except LiftObstruction as e:
            raise LiftObstruction(f"{v}/{e.generator}", e.degree, e.reason)
    homotopies = {}
    for u in C.phi:
        a = C.arrow(u)
        dom = C.dom(u)
        f0 = compose(gmaps[a.dst], C.comp(u))
        f1 = compose(w.source.comp(u), gmaps[a.src])
        h = Homotopy(compose(w.maps[a.dst], f0), compose(w.maps[a.dst], f1),
                     f.homotopies[u])
        try:
            lifted = lift_homotopy(dom, w.maps[a.dst], f0, f1, h)
        except LiftObstruction as e:
            raise LiftObstruction(f"{u}/{e.generator}", e.degree, e.reason)
        homotopies[u] = lifted.map
    return HoMorphism(C, w.source, gmaps, homotopies, name=f"lift({f.name})")


def diagram_cofibrant_model(D: Diagram, N=None, allow_0_connected=False):
    """Level-wise minimal models with comparisons lifted up to homotopy.

    Returns (C, f) where C is a diagram of minimal algebras and f: C -> D is a
    ho-morphism, a level-wise quasi-isomorphism up to the horizon.  Each arrow
    homotopy lives in D's vertex path of its target, and C has D's budget.
    """
    if any(t != "plain" for t in D.tags.values()):
        raise AlgebraError("cofibrant models are built for plain vertices")
    models = {v: minimal_model(D.algebras[v], N,
                               allow_0_connected=allow_0_connected)
              for v in D.index.vertices}
    arrows = {}
    homotopies = {}
    for u in D.phi:
        a = D.arrow(u)
        mi, mj = models[a.src], models[a.dst]
        target_map = compose(D.comp(u), mi.rho)
        phi_prime, hom = lift_against_weak_equivalence(mi.M, mj.rho, target_map,
                                                       D.vertex_path(a.dst))
        arrows[u] = phi_prime
        homotopies[u] = hom.map
    C = Diagram(D.index, {v: models[v].M for v in D.index.vertices},
                tags=D.tags, arrows=arrows, budget=D.budget,
                name=f"model({D.name})")
    return C, HoMorphism(C, D, {v: models[v].rho for v in D.index.vertices},
                         homotopies, name="rho")

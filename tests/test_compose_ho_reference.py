"""compose_ho against the composition it replaced, term for term.

`diagrams.compose_ho(g, f)` joins, per arrow, the homotopy P(g)F of
`compose_with_strict_right` (g's strict part after f) and the homotopy G f
of `compose_with_strict_left` (g after f's strict part) by `homotopy_add`.
`reference_compose_ho` keeps the body that built both homotopies by hand.
The vertex maps and arrow homotopies must agree term for term, in order, on
every basis element up to the horizon.  `evaluate_zigzag` reaches
compose_ho once an ho item has made the running composite non-strict,
through a forward ho item or the designated inverse of a backward one.
"""

import json

import pytest

from helpers import FIXDIR, square_diagram
from hodgepath import (AlgebraError, DiagramMorphism, FreeCdga, HoMorphism, Homotopy,
                       Morphism, build_homorphism, compose, compose_ho, evaluate_zigzag,
                       identity_ho, identity_morphism, path_linear_map, rectify,
                       validate_ho_morphism)
from hodgepath.diagrams import compose_with_strict_left, compose_with_strict_right
from hodgepath.lifting import homotopy_add


def reference_compose_ho(g, f, name=""):
    """compose_ho as it was: both arrow homotopies built by hand, then added."""
    src = f.source
    maps = {v: compose(g.maps[v], f.maps[v]) for v in src.index.vertices}
    homotopies = {}
    for u in src.phi:
        a = src.arrow(u)
        dom = src.dom(u)
        if not isinstance(dom, FreeCdga):
            raise AlgebraError("ho-composition needs free comparison domains")
        PB = f.path_target(u)
        PC = g.path_target(u)
        Pg = path_linear_map(g.maps[a.dst], PB, PC)
        F_u = f.homotopies[u]
        G_u = g.homotopies[u]
        f_dom = DiagramMorphism(f.source, f.target, f.maps).dom_map(u)
        gj_fj_phi = compose(maps[a.dst], src.comp(u))
        gj_phi_fi = compose(compose(g.maps[a.dst], f.target.comp(u)), f.maps[a.src])
        phi_gi_fi = compose(g.target.comp(u), maps[a.src])
        h1 = Homotopy(gj_fj_phi, gj_phi_fi,
                      Morphism(dom, PC, lambda x, F_u=F_u, Pg=Pg: Pg(F_u(x)), name="P(g)F"))
        h2 = Homotopy(gj_phi_fi, phi_gi_fi,
                      Morphism(dom, PC, lambda x, G_u=G_u, f_dom=f_dom: G_u(f_dom(x)),
                               name="G f"))
        homotopies[u] = homotopy_add(h1, h2).map
    return HoMorphism(src, g.target, maps, homotopies, name=name or "g * f")


def _same_terms(x, y):
    return x.alg is y.alg and list(x.terms.items()) == list(y.terms.items())


def assert_same_ho_morphism(got, want):
    assert got.source is want.source and got.target is want.target
    upto = min(want.source.check_upto(), want.target.check_upto())
    for v in want.source.index.vertices:
        for n in range(0, upto + 1):
            for b in want.source.algebras[v].basis(n):
                assert _same_terms(got.maps[v](b), want.maps[v](b)), (v, b)
    for u in want.source.phi:
        for n in range(0, upto + 1):
            for b in want.source.dom(u).basis(n):
                assert _same_terms(got.homotopies[u](b), want.homotopies[u](b)), (u, b)


def _example41():
    """(f, g) of the Example 4.1 fixtures, g read with f's target as its source."""
    def read(name):
        with open(f"{FIXDIR}/{name}", encoding="utf-8") as fh:
            return json.load(fh)

    f = build_homorphism(read("example41.json"))
    return f, build_homorphism(read("example41_g.json"), source=f.target)


def _one(D):
    return DiagramMorphism(D, D, {v: identity_morphism(D.algebras[v])
                                  for v in D.index.vertices}, name="1")


def test_example41_composites_match_the_reference():
    f, g = _example41()
    got = compose_ho(g, f)
    assert_same_ho_morphism(got, reference_compose_ho(g, f))
    assert got.name == "g * f"
    assert validate_ho_morphism(got).ok


def test_square_composites_with_identities_match_the_reference():
    DA, DB, f = square_diagram()
    for g, h in ((f, identity_ho(DA)), (identity_ho(DB), f)):
        got = compose_ho(g, h, name="named")
        assert_same_ho_morphism(got, reference_compose_ho(g, h, name="named"))
        assert got.name == "named"


def test_compose_ho_refuses_a_domain_that_is_not_free():
    f, _ = _example41()
    span = rectify(f)
    iota_p = compose_with_strict_left(span.iota, span.p)   # out of the mapping path's subalgebras
    for compose_ho_ in (compose_ho, reference_compose_ho):
        with pytest.raises(AlgebraError, match="^ho-composition needs free comparison domains$"):
            compose_ho_(identity_ho(iota_p.target), iota_p)


def test_zigzag_ho_after_ho_matches_the_reference():
    """("fwd", f) turns the identity into f 1; a second ho item, forward or as the
    designated inverse of a backward one (whose strict arrow is not read), then
    goes through compose_ho."""
    f, g = _example41()
    first = compose_with_strict_left(f, _one(f.source))
    want = reference_compose_ho(g, first)
    for items in ([("fwd", f), ("fwd", g)],
                  [("fwd", f), ("bwd", DiagramMorphism(g.target, g.source, {}), g)]):
        got = evaluate_zigzag(f.source, items, name="z")
        assert_same_ho_morphism(got, want)
        assert got.name == "z"


def test_zigzag_through_a_rectified_span_matches_the_reference():
    """f, then g as its span q p^-1: compose_ho(iota, f 1) lands in the mapping
    path's vertices, subalgebras of products, and q is composed on strictly."""
    f, g = _example41()
    span = rectify(g)
    got = evaluate_zigzag(f.source, [("fwd", f), ("bwd", span.p, span.iota), ("fwd", span.q)])
    middle = reference_compose_ho(span.iota, compose_with_strict_left(f, _one(f.source)))
    assert_same_ho_morphism(got, compose_with_strict_right(span.q, middle))
    assert validate_ho_morphism(got).ok

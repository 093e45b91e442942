"""Zig-zag diagrams: validation, mapping paths, rectification, composition."""

import random

import pytest

from helpers import ms2, rho_ms2_s2, s2_table, square_diagram
from hodgepath import (Arrow, Diagram, DiagramMorphism, FreeCdga, FreeMorphism,
                       Generator, HoMorphism, IndexCategory, LiftObstruction, MappingPath,
                       build_ho_homotopy, compose, compose_ho, constant_homotopy,
                       diagram_cofibrant_model, evaluate_zigzag, ho_morphisms_equal,
                       identity_ho, identity_morphism, is_quasi_iso, is_surjective_at, keyed,
                       lift_ho_through_trivial_fibration, path_of,
                       promote_strict, rectify, reflexive_ho_homotopy, span_zigzag,
                       validate_diagram, validate_diagram_morphism,
                       validate_ho_homotopy, validate_ho_morphism, verify_homotopy)
from hodgepath.algebra import AlgebraError
from hodgepath.diagrams import ho_homotopy_add
from hodgepath.paths import delta, path_linear_map


def test_index_category_binary_degree():
    with pytest.raises(AlgebraError):
        IndexCategory({"0": 0, "1": 0}, [("u", "0", "1")])
    I = IndexCategory.zigzag(2)
    assert I.degrees == {"0": 0, "1": 1, "2": 0}
    assert {(a.src, a.dst) for a in I.arrows} == {("0", "1"), ("2", "1")}


def test_validate_strict_promotion_and_example_data():
    DA, DB, f = square_diagram()
    assert validate_ho_morphism(f).ok
    strict = DiagramMorphism(DA, DB, f.maps, name="strict")
    assert validate_diagram_morphism(strict).ok
    promoted = promote_strict(strict)
    assert validate_ho_morphism(promoted).ok


def test_validate_detects_broken_endpoint():
    DA, DB, f = square_diagram()
    k = keyed(DB.vertex_path("1"))
    B1 = DB.algebras["1"]
    bad = FreeMorphism(f.source.algebras["0"], k,
                       {"a1": k.include(B1.generator("b1")) * 2}, name="bad")
    g = HoMorphism(DA, DB, f.maps, {"u": bad}, name="bad")
    rep = validate_ho_morphism(g)
    assert not rep.ok
    assert any("endpoint" in fl["check"] for fl in rep.failures)
    assert any("arrow u" in fl["witness"] for fl in rep.failures)


def test_ho_mapping_path_psi_formula_and_ladder():
    DA, DB, f = square_diagram()
    span = rectify(f)
    mp0, mp1 = span.mps["0"], span.mps["1"]
    psi = span.diagram.phi["u"]
    phi = DA.comp("u")
    F = f.homotopies["u"]
    for n in range(0, 4):
        for x in mp0.space.basis(n):
            a = mp0.component_a(x)
            assert psi(x) == mp1.pair(phi(a), F(a))   # psi(a, b(t)) = (phi a, F a)
    # the full ladder of strict squares commutes
    assert validate_diagram_morphism(span.p).ok
    assert validate_diagram_morphism(span.q).ok
    # q_j psi = phi q_i on every arrow
    for n in range(0, 4):
        for x in mp0.space.basis(n):
            assert span.mps["1"].q(psi(x)) == DB.comp("u")(mp0.q(x))


def test_ho_mapping_path_alternating_q():
    DA, DB, f = square_diagram()
    span = rectify(f)
    assert span.mps["0"].q_endpoint == 0
    assert span.mps["1"].q_endpoint == 1


def test_iota_and_contraction():
    DA, DB, f = square_diagram()
    span = rectify(f)
    io = span.iota
    assert validate_ho_morphism(io).ok
    # p iota = 1 and q iota = f on vertex generators
    for v in ("0", "1"):
        A = DA.algebras[v]
        for g in A.gens:
            x = A.generator(g.name)
            assert span.p.maps[v](io.maps[v](x)) == x
            assert span.q.maps[v](io.maps[v](x)) == f.maps[v](x)
    con = span.contraction()
    assert validate_ho_homotopy(con, upto=3).ok


@pytest.mark.parametrize("tags", [("plain", "plain"), ("filtered", "filtered"),
                                  ("plain", "filtered"), ("filtered", "plain")])
def test_iota_and_contraction_live_in_the_vertex_paths(tags):
    # J_u and the contraction are built in the mapping-path diagram's vertex
    # paths, the paths beside the target's, so a filtered (weight-shifted)
    # path verifies as a plain one does, also when the source's tags differ
    DA, DB, f = square_diagram(tags=tags)
    assert validate_ho_morphism(f).ok
    span = rectify(f)
    assert validate_ho_morphism(span.iota).ok
    assert validate_ho_homotopy(span.contraction(), upto=3).ok


def test_p_trivial_fibration_and_q_equivalence_transfer():
    DA, DB, f = square_diagram()
    span = rectify(f)
    for v in ("0", "1"):
        mp = span.mps[v]
        for n in range(0, 4):
            assert is_surjective_at(mp.p, n)
        assert is_quasi_iso(mp.p, 3)
        assert is_quasi_iso(f.maps[v], 3)
        assert is_quasi_iso(mp.q, 3)


def test_single_vertex_reduces_to_mapping_path():
    I = IndexCategory({"0": 0}, [])
    M, A, rho = rho_ms2_s2()
    DA = Diagram(I, {"0": M}, arrows={}, budget=4)
    DB = Diagram(I, {"0": A}, arrows={}, budget=4)
    f = HoMorphism(DA, DB, {"0": rho}, {}, name="rho")
    span = rectify(f)
    classic = MappingPath(rho, path_of(A, 4), q_endpoint=0)
    for n in range(0, 4):
        assert span.mps["0"].space.dim(n) == classic.space.dim(n)


def test_strict_ho_mapping_path_comparisons_homotopic():
    # for strict f the two natural comparisons of P(f_i) are homotopic
    DA, DB, f = square_diagram(twist=0)
    strict = DiagramMorphism(DA, DB, f.maps)
    fho = promote_strict(strict)
    span = rectify(fho)
    mp0, mp1 = span.mps["0"], span.mps["1"]
    psi_ho = span.diagram.phi["u"]
    phiA, phiB = DA.comp("u"), DB.comp("u")
    PB1 = DB.vertex_path("1")
    Pphi = path_linear_map(phiB, DB.vertex_path("0"), PB1)

    def psi_strict_fn(x):
        return mp1.pair(phiA(mp0.component_a(x)), Pphi(mp0.component_path(x)))

    from hodgepath import Morphism, Homotopy, coproduct, pair_paths
    psi_strict = Morphism(mp0.space, mp1.space, psi_strict_fn, name="psi-strict")
    # the two comparisons differ but are homotopic: interpolate the path leg
    PS1 = path_of(mp1.space, 5)
    PA1 = DA.vertex_path("1")
    Pamb = path_of(mp1.amb, 5)
    cB = coproduct(DB.vertex_path("1"))
    from hodgepath.paths import iota as path_iota
    iA = path_iota(PA1)

    def hfn(x):
        a = mp0.component_a(x)
        bt = mp0.component_path(x)
        return pair_paths(Pamb, [iA(phiA(a)), cB(Pphi(bt))], depth=1)

    h = Homotopy(psi_ho, psi_strict, Morphism(mp0.space, PS1, hfn, name="H"))
    assert verify_homotopy(h, psi_ho, psi_strict, upto=3).ok


def test_rectify_zigzag_roundtrip_exact_and_witnessed():
    DA, DB, f = square_diagram()
    span = rectify(f)
    out = evaluate_zigzag(DA, span_zigzag(span))
    assert ho_morphisms_equal(out, f)
    wit = reflexive_ho_homotopy(f)
    assert validate_ho_homotopy(wit, upto=3).ok


def test_compose_ho_strict_cases():
    DA, DB, f = square_diagram()
    idA = identity_ho(DA)
    # strict shortcut: [1]*[f] via the exact formulas
    from hodgepath.diagrams import compose_with_strict_left, compose_with_strict_right
    idm = DiagramMorphism(DA, DA, {v: identity_morphism(DA.algebras[v])
                                   for v in ("0", "1")})
    left = compose_with_strict_left(f, idm)
    assert ho_morphisms_equal(left, f)
    idmB = DiagramMorphism(DB, DB, {v: identity_morphism(DB.algebras[v])
                                    for v in ("0", "1")})
    right = compose_with_strict_right(idmB, f)
    assert ho_morphisms_equal(right, f)


def test_compose_ho_general_and_independence_of_lifts():
    DA, DB, f = square_diagram()
    gen = compose_ho(f, identity_ho(DA))
    assert validate_ho_morphism(gen).ok
    # two representatives of the same class: general vs exact composition;
    # produce the explicit ho-homotopy between them
    wit = build_ho_homotopy(gen, f,
                            {v: constant_homotopy(f.maps[v], 5) for v in ("0", "1")})
    assert validate_ho_homotopy(wit, upto=3).ok


def test_compose_two_genuinely_ho():
    DA, DB, f = square_diagram()
    # g: B -> C with its own non-constant homotopy
    I = DA.index
    C0 = FreeCdga([Generator("c1", 1)], N=5, name="C0")
    C1 = FreeCdga([Generator("c1", 1)], N=5, name="C1")
    phiC = FreeMorphism(C0, C1, {"c1": C1.generator("c1")})
    DC = Diagram(I, {"0": C0, "1": C1}, arrows={"u": phiC}, budget=5, name="C")
    g0 = FreeMorphism(DB.algebras["0"], C0, {"b1": C0.generator("c1")})
    g1 = FreeMorphism(DB.algebras["1"], C1, {"b1": C1.generator("c1")})
    kC = keyed(DC.vertex_path("1"))
    G = FreeMorphism(DB.algebras["0"], kC,
                     {"b1": kC.include(C1.generator("c1"))
                      - kC.t() * kC.t() * kC.dt()}, name="G")
    g = HoMorphism(DB, DC, {"0": g0, "1": g1}, {"u": G}, name="g")
    assert validate_ho_morphism(g).ok
    gf = compose_ho(g, f)
    assert validate_ho_morphism(gf).ok


def test_ho_homotopy_transitivity():
    DA, DB, f = square_diagram()
    gen = compose_ho(f, identity_ho(DA))
    consts = {v: constant_homotopy(f.maps[v], 5) for v in ("0", "1")}
    h1 = build_ho_homotopy(gen, f, consts)
    h2 = reflexive_ho_homotopy(f)
    total = ho_homotopy_add(h1, h2)
    assert validate_ho_homotopy(total, upto=3).ok
    assert total.f is gen and total.g is h2.g


def test_inverse_then_map_gives_identity_class():
    # z = p^{-1} then p: the class of the identity, witnessed explicitly
    DA, DB, f = square_diagram()
    span = rectify(f)
    MP = span.diagram
    out = evaluate_zigzag(MP, [("fwd", span.p), ("bwd", span.p, span.iota)])
    assert validate_ho_morphism(out).ok
    # out = iota p; the contraction is the explicit ho-homotopy to the identity
    con = span.contraction()
    assert validate_ho_homotopy(con, upto=3).ok
    assert ho_morphisms_equal(out, con.f)


def test_lift_ho_through_trivial_fibration():
    DA, DB, f = square_diagram()
    # w = identity: lift is f itself
    idmB = DiagramMorphism(DB, DB, {v: identity_morphism(DB.algebras[v])
                                    for v in ("0", "1")}, name="1")
    g = lift_ho_through_trivial_fibration(DA, idmB, f)
    assert ho_morphisms_equal(g, f)

    # two-vertex fixture with w level-wise delta^0
    PB0 = DB.vertex_path("0")
    PB1 = DB.vertex_path("1")
    I = DA.index
    Pphi = path_linear_map(DB.comp("u"), PB0, PB1)
    DPB = Diagram(I, {"0": keyed(PB0), "1": keyed(PB1)},
                  arrows={"u": Pphi}, budget=5, name="P(B)")
    w = DiagramMorphism(DPB, DB, {"0": delta(PB0, 0), "1": delta(PB1, 0)},
                        name="delta0")
    assert validate_diagram_morphism(w).ok
    g2 = lift_ho_through_trivial_fibration(DA, w, f)
    assert validate_ho_morphism(g2).ok
    # w g = f exactly, including homotopies
    for v in ("0", "1"):
        for gen in DA.algebras[v].gens:
            x = DA.algebras[v].generator(gen.name)
            assert w.maps[v](g2.maps[v](x)) == f.maps[v](x)
    P2 = path_of(keyed(PB1), 5)
    Pw1 = path_linear_map(w.maps["1"], P2, PB1)
    for gen in DA.algebras["0"].gens:
        x = DA.algebras["0"].generator(gen.name)
        assert Pw1(g2.homotopies["u"](x)) == f.homotopies["u"](x)


def test_lift_ho_non_surjective_reports_vertex():
    DA, DB, f = square_diagram()
    Z0 = FreeCdga([], N=5, name="Z0")
    Z1 = FreeCdga([Generator("b1", 1)], N=5, name="Z1")
    phiZ = FreeMorphism(Z0, Z1, {})
    DZ = Diagram(DA.index, {"0": Z0, "1": Z1},
                 arrows={"u": Morphism_unit(Z0, Z1)}, budget=5, name="Z")
    w = DiagramMorphism(DZ, DB,
                        {"0": Morphism_unit(Z0, DB.algebras["0"]),
                         "1": FreeMorphism(Z1, DB.algebras["1"],
                                           {"b1": DB.algebras["1"].generator("b1")})},
                        name="w")
    with pytest.raises(LiftObstruction) as ei:
        lift_ho_through_trivial_fibration(DA, w, f)
    assert "0/" in str(ei.value.generator)


def Morphism_unit(src, tgt):
    from hodgepath import Morphism
    return Morphism(src, tgt, lambda x: tgt.unit() * _unit_coeff(x, src),
                    name="unit-map")


def _unit_coeff(x, src):
    from hodgepath.scalars import Scalar
    for k, c in x.terms.items():
        if src.key_degree(k) == 0:
            return c
    return Scalar(0)


def test_diagram_cofibrant_model_constant_s2():
    I = IndexCategory.zigzag(2)
    A = s2_table()
    idm = identity_morphism(A)
    D = Diagram(I, {"0": A, "1": A, "2": A},
                arrows={a.name: idm for a in I.arrows}, budget=4, name="const")
    C, f = diagram_cofibrant_model(D, N=6)
    assert validate_ho_morphism(f).ok
    for v in C.index.vertices:
        assert [g.degree for g in C.algebras[v].gens] == [2, 3]
        assert is_quasi_iso(f.maps[v], 5)


@pytest.mark.parametrize("budget", [None, 4])
def test_diagram_cofibrant_model_homotopies_live_in_the_vertex_paths(budget):
    # without a budget the vertex paths have the default one, and the arrow
    # homotopies are lifted into those same paths
    I = IndexCategory({"0": 0, "1": 1}, [("u", "0", "1")])
    A = s2_table(4)
    D = Diagram(I, {"0": A, "1": A}, arrows={"u": identity_morphism(A)}, budget=budget,
                name="const")
    C, rho = diagram_cofibrant_model(D, N=4)
    assert C.budget == D.budget
    assert rho.homotopies["u"].target is D.vertex_path("1")
    assert validate_ho_morphism(rho, upto=3).ok


def test_diagram_cofibrant_model_of_minimal_strict_is_identity_like():
    I = IndexCategory({"0": 0, "1": 1}, [("u", "0", "1")])
    M = ms2(N=6)
    M2 = ms2(N=6)
    phi = FreeMorphism(M, M2, {"e2": M2.generator("e2"), "e3": M2.generator("e3")})
    D = Diagram(I, {"0": M, "1": M2}, arrows={"u": phi}, budget=4, name="min")
    C, f = diagram_cofibrant_model(D, N=6)
    assert validate_ho_morphism(f).ok
    for v in ("0", "1"):
        assert is_quasi_iso(f.maps[v], 5)
        assert [g.degree for g in C.algebras[v].gens] == [2, 3]


def test_diagram_cofibrant_model_square_source():
    DA, DB, f = square_diagram()
    C, ff = diagram_cofibrant_model(DB, N=5, allow_0_connected=True)
    assert validate_ho_morphism(ff).ok

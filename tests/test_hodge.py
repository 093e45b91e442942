"""Mixed Hodge verification, transport, degeneration, homotopy-group structures."""

import random
from fractions import Fraction

import pytest

from helpers import square_diagram, toy_mhd, toy_model
from hodgepath import (AlgebraError, DiagramMorphism, Field, FreeCdga,
                       FreeMorphism, Generator, MhsStructure, TableBasisElement,
                       TableCdga, build_ho_homotopy, check_mhd, compose_ho,
                       constant_homotopy, degeneration_check, extend_scalars,
                       identity_ho, indecomposables_diagram, linear_morphism,
                       mixed_hodge_dga_diagram, pi_star, pi_star_induced_map,
                       promote_strict, reflexive_ho_homotopy, stokes_ho_report,
                       transport_rational_structure, validate_diagram_morphism,
                       validate_ho_morphism)
from hodgepath.diagrams import Diagram, HoMorphism, IndexCategory
from hodgepath.scalars import Scalar


def toy_comparison(toy, M, budget=4):
    MD = mixed_hodge_dga_diagram(M, toy, budget=budget)
    AQ = toy.rational
    maps = {}
    for v in MD.index.vertices:
        tgt = toy.diagram.algebras[v]
        src = MD.algebras[v]
        maps[v] = FreeMorphism(src, tgt,
                               {"a2": tgt.basis_element("x2"), "a3": tgt.zero()},
                               name=f"r{v}")
    strict = DiagramMorphism(MD, toy.diagram, maps, name="rho")
    assert validate_diagram_morphism(strict).ok
    return MD, promote_strict(strict)


def test_toy_passes_all_axioms():
    rep = check_mhd(toy_mhd())
    assert rep.ok
    pure = rep.axioms["MH2"]["pure_pieces"]
    assert {"p": 0, "n": 2, "weight": 2, "dim": 1,
            "types": {"(1,1)": 1}} in pure


def test_f_shifted_mutant_fails_mh2_with_witness():
    rep = check_mhd(toy_mhd(hodge_x2=2))
    assert rep.axioms["MH0"]["ok"] and rep.axioms["MH1"]["ok"]
    assert not rep.axioms["MH2"]["ok"]
    wit = rep.axioms["MH2"]["witnesses"][0]
    assert wit["p"] == 0 and wit["n"] == 2
    assert any(f["q"] == 2 and "intersection" in f["check"]
               for f in wit["failures"])


def test_zero_algebra_vacuous_pass():
    QI = Field(-1)
    AQ = TableCdga([TableBasisElement("one", 0, weight=0)], 4, unit="one")
    E, coer = extend_scalars(AQ, -1)
    AC = TableCdga([TableBasisElement("one", 0, weight=0, hodge=0)], 4,
                   field=QI, unit="one")
    phi = linear_morphism(E, AC, {"one": AC.unit()})
    I = IndexCategory({"0": 0, "1": 1}, [("u", "0", "1")])
    D = Diagram(I, {"0": AQ, "1": AC},
                tags={"0": "filtered", "1": "bifiltered"},
                arrows={"u": (phi, coer)}, budget=3)
    from hodgepath import MixedHodgeDiagram
    rep = check_mhd(MixedHodgeDiagram(D, -1))
    assert rep.ok


def test_transport_identity_string_and_involution():
    toy = toy_mhd()
    tr = transport_rational_structure(toy, 2, 0)
    sigma = tr.conjugation()
    e = {0: Fraction(1)}
    assert sigma(e) == e          # x2 is real
    i_vec = {0: Scalar(0, 1, -1)}
    assert sigma(i_vec) == {0: Scalar(0, -1, -1)}
    assert sigma(sigma(i_vec)) == i_vec


def test_transport_with_rescaled_intermediate():
    # scale the second comparison by sqrt(d): the transported conjugation
    # differs from the naive one but stays an involution
    QI = Field(-1)
    toy = toy_mhd()
    D = toy.diagram
    AC = D.algebras["2"]
    Amid = D.algebras["1"]
    twist = linear_morphism(
        AC, Amid,
        {"one": Amid.unit(), "x2": Amid.basis_element("x2") * Scalar(0, 1, -1)},
        name="twist")
    D2 = Diagram(D.index, D.algebras, tags=D.tags,
                 arrows={"u0": (D.phi["u0"], D.coerce["u0"]), "u1": twist},
                 budget=D.budget, name="twisted")
    from hodgepath import MixedHodgeDiagram
    toy2 = MixedHodgeDiagram(D2, -1)
    tr = transport_rational_structure(toy2, 2, 0)
    sigma = tr.conjugation()
    e = {0: Fraction(1)}
    # x2 upstairs now corresponds to -i * rational class: sigma(e) = -e
    assert sigma(e) == {0: Fraction(-1)}
    assert sigma(sigma(e)) == e
    # purity still verifies through the twisted conjugation
    rep = check_mhd(toy2)
    assert rep.axioms["MH2"]["ok"]


def test_weighted_line_toy():
    # one degree-1 class of weight 2, type (1,1): chain-level weight 1,
    # Hodge level 1; exercises transport and purity away from weight zero
    QI = Field(-1)
    AQ = TableCdga([TableBasisElement("one", 0, weight=0),
                    TableBasisElement("u1", 1, weight=1)], 5, unit="one",
                   name="AQ-line")
    E, coer = extend_scalars(AQ, -1)
    AC = TableCdga([TableBasisElement("one", 0, weight=0, hodge=0),
                    TableBasisElement("u1", 1, weight=1, hodge=1)], 5,
                   field=QI, unit="one", name="AC-line")
    phi = linear_morphism(E, AC, {"one": AC.unit(),
                                  "u1": AC.basis_element("u1")})
    I = IndexCategory({"0": 0, "1": 1}, [("u", "0", "1")])
    from hodgepath import MixedHodgeDiagram
    D = MixedHodgeDiagram(Diagram(I, {"0": AQ, "1": AC},
                                  tags={"0": "filtered", "1": "bifiltered"},
                                  arrows={"u": (phi, coer)}, budget=3), -1)
    rep = check_mhd(D)
    assert rep.ok, rep.to_doc()
    pieces = rep.axioms["MH2"]["pure_pieces"]
    assert {"p": 1, "n": 1, "weight": 2, "dim": 1,
            "types": {"(1,1)": 1}} in pieces
    assert degeneration_check(D)["ok"]
    # the same class misplaced in F^0 breaks the purity sum at q = 2? no:
    # it breaks the intersection at q = 0/2 symmetry; assert the verdict flips
    AC2 = TableCdga([TableBasisElement("one", 0, weight=0, hodge=0),
                     TableBasisElement("u1", 1, weight=1, hodge=2)], 5,
                    field=QI, unit="one", name="AC-line-bad")
    phi2 = linear_morphism(E, AC2, {"one": AC2.unit(),
                                    "u1": AC2.basis_element("u1")})
    Db = MixedHodgeDiagram(Diagram(I, {"0": AQ, "1": AC2},
                                   tags={"0": "filtered", "1": "bifiltered"},
                                   arrows={"u": (phi2, coer)}, budget=3), -1)
    assert not check_mhd(Db).axioms["MH2"]["ok"]


def test_degeneration_checks():
    assert degeneration_check(toy_mhd())["ok"]

    # nonzero differential: acyclic pair with compatible weights degenerates
    QI = Field(-1)
    AQ = TableCdga([TableBasisElement("one", 0, weight=0),
                    TableBasisElement("u1", 1, weight=0),
                    TableBasisElement("v2", 2, weight=0)], 5, unit="one",
                   differentials={"u1": {"v2": Scalar(1)}}, name="AQd")
    E, coer = extend_scalars(AQ, -1)
    AC = TableCdga([TableBasisElement("one", 0, weight=0, hodge=0),
                    TableBasisElement("u1", 1, weight=0, hodge=0),
                    TableBasisElement("v2", 2, weight=0, hodge=0)], 5,
                   field=QI, unit="one",
                   differentials={"u1": {"v2": Scalar(1)}}, name="ACd")
    phi = linear_morphism(E, AC, {"one": AC.unit(),
                                  "u1": AC.basis_element("u1"),
                                  "v2": AC.basis_element("v2")})
    I = IndexCategory({"0": 0, "1": 1}, [("u", "0", "1")])
    from hodgepath import MixedHodgeDiagram
    D = MixedHodgeDiagram(Diagram(I, {"0": AQ, "1": AC},
                                  tags={"0": "filtered", "1": "bifiltered"},
                                  arrows={"u": (phi, coer)}, budget=3), -1)
    assert check_mhd(D).ok
    assert degeneration_check(D)["ok"]

    # broken filtration: the two-term complex with a weight-2 jump has d_2 != 0
    deg = degeneration_check(weight_jump_mhd())
    assert not deg["ok"]
    assert any(w["filtration"] == "W" and w["r"] == 2 for w in deg["witnesses"])


def weight_jump_mhd():
    """The two-term complex u1 -> v2 with a weight-2 jump at u1: d_2 != 0 on E_2(W)."""
    QI = Field(-1)
    I = IndexCategory({"0": 0, "1": 1}, [("u", "0", "1")])
    AQ2 = TableCdga([TableBasisElement("one", 0, weight=0),
                     TableBasisElement("u1", 1, weight=2),
                     TableBasisElement("v2", 2, weight=0)], 5, unit="one",
                    differentials={"u1": {"v2": Scalar(1)}}, name="broken")
    E2, coer2 = extend_scalars(AQ2, -1)
    AC2 = TableCdga([TableBasisElement("one", 0, weight=0, hodge=0),
                     TableBasisElement("u1", 1, weight=2, hodge=0),
                     TableBasisElement("v2", 2, weight=0, hodge=0)], 5,
                    field=QI, unit="one",
                    differentials={"u1": {"v2": Scalar(1)}}, name="ACbroken")
    phi2 = linear_morphism(E2, AC2, {"one": AC2.unit(),
                                     "u1": AC2.basis_element("u1"),
                                     "v2": AC2.basis_element("v2")})
    from hodgepath import MixedHodgeDiagram
    return MixedHodgeDiagram(Diagram(I, {"0": AQ2, "1": AC2},
                                     tags={"0": "filtered", "1": "bifiltered"},
                                     arrows={"u": (phi2, coer2)}, budget=3), -1)


def test_a_cutoff_below_d_2_reads_none_of_it():
    D = weight_jump_mhd()
    deg = degeneration_check(D)
    # d_2 starts at u1 in degree 1
    assert {w["n"] for w in deg["witnesses"]} == {1}
    assert degeneration_check(D, max_degree=1) == deg
    assert degeneration_check(D, max_degree=0) == {"ok": True, "witnesses": []}


def test_degeneration_check_reads_no_degree_above_max_degree(monkeypatch):
    from hodgepath.filtered import SpectralSequence
    bounds = []
    d_r_is_zero = SpectralSequence.d_r_is_zero

    def spy(self, r, bound=None):
        bounds.append((self.fc.kind, r, bound, self._bound(r)))
        return d_r_is_zero(self, r, bound)

    monkeypatch.setattr(SpectralSequence, "d_r_is_zero", spy)
    D = toy_mhd()
    assert degeneration_check(D)["ok"]
    full = list(bounds)   # the toy's W has one level: only E_r(F) has pages to read
    assert full and all(bound == own for _, _, bound, own in full)
    for k in range(0, max(own for *_, own in full) + 2):
        bounds.clear()
        assert degeneration_check(D, max_degree=k)["ok"]
        assert bounds == [(kind, r, min(k, own), own) for kind, r, _, own in full]


def test_purity_convention_soundness():
    # type (1,1)
    st = MhsStructure(1, [(2, {0: Fraction(1)})], {1: [{0: Fraction(1)}]})
    assert st.check().ok and st.types_at(2) == {(1, 1): 1}
    # (2,0) + (0,2) with honestly complex Hodge lines
    i = Scalar(0, 1, -1)
    one = Fraction(1)
    st2 = MhsStructure(2, [(2, {0: one}), (2, {1: one})],
                       {2: [{0: one, 1: i}], 0: [{0: one, 1: Scalar(0, -1, -1)}]})
    rep = st2.check()
    assert rep.ok
    assert st2.types_at(2) == {(2, 0): 1, (0, 2): 1}
    # wrong: both lines in F^2 -> F^2 cap conj(F^1) != 0
    st3 = MhsStructure(2, [(2, {0: one}), (2, {1: one})],
                       {2: [{0: one, 1: i}, {0: one, 1: Scalar(0, -1, -1)}]})
    assert not st3.check().ok


def test_mh2_implies_mhs_on_cohomology_with_dec():
    # (H^n(A_Q), Dec W, F) is a mixed Hodge structure for the toy
    toy = toy_mhd()
    from hodgepath import FilteredComplex, cohomology
    from hodgepath.filtered import decalage
    AQ = toy.rational
    H2 = cohomology(AQ, 2)
    assert H2.dim == 1
    # chain-level Dec W puts the class in weight 2; F gives type (1,1):
    fc = FilteredComplex(AQ, "W")
    dec = decalage(fc)
    assert dec.levels[2] == [2]
    st = MhsStructure(1, [(2, {0: Fraction(1)})], {1: [{0: Fraction(1)}]})
    assert st.check().ok


def test_strictness_invariant_under_filtered_base_change():
    rng = random.Random(13)
    QI = Field(-1)
    from hodgepath.filtered import gr, gr_differential_strict
    AC = toy_mhd().complex_vertex
    g = gr(AC, 0, kind="W")
    base = gr_differential_strict(g, 0) == [] and gr_differential_strict(g, 2) == []
    assert base
    # a filtered change of basis (upper triangular in F-levels) does not
    # change the verdicts: rescale x2 in its own level
    AC2 = TableCdga([TableBasisElement("one", 0, weight=0, hodge=0),
                     TableBasisElement("x2", 2, weight=0, hodge=1)], 6,
                    field=QI, unit="one", name="AC-rescaled")
    g2 = gr(AC2, 0, kind="W")
    assert gr_differential_strict(g2, 2) == []


def test_pi_star_toy():
    toy = toy_mhd()
    M = toy_model()
    MD, f = toy_comparison(toy, M)
    assert validate_ho_morphism(f).ok
    rep = pi_star(toy, M, f)
    assert rep.ok
    assert rep.degrees[2]["weights"] == {"2": 1}
    assert rep.degrees[2]["types"] == {"(1,1)": 1}
    assert rep.degrees[3]["weights"] == {"4": 1}


def test_pi_star_unit_model_all_zero():
    toy = toy_mhd()
    # the unit model maps nowhere: all homotopy groups vanish... but it is not
    # a quasi-isomorphism, and pi_star reports that honestly.
    M0 = FreeCdga([], 6, name="unit-model")
    MD, f = None, None
    MD = mixed_hodge_dga_diagram(M0, toy, budget=4)
    maps = {v: FreeMorphism(MD.algebras[v], toy.diagram.algebras[v], {},
                            name="unit") for v in MD.index.vertices}
    strict = DiagramMorphism(MD, toy.diagram, maps)
    f = promote_strict(strict)
    rep = pi_star(toy, M0, f)
    assert all(entry["dim"] == 0 for entry in rep.degrees.values())
    assert not rep.preconditions["comparison"]["ok"]  # not a quasi-iso


def test_pi_star_precondition_witnesses():
    toy = toy_mhd()
    Mbad = FreeCdga([Generator("a2", 2, weight=0, hodge=1),
                     Generator("a3", 3, weight=0, hodge=2)], 6, name="bad")
    Mbad.set_differential({"a3": Mbad.parse("a2^2")})
    MD, f = toy_comparison(toy, Mbad)
    rep = pi_star(toy, Mbad, f)
    assert not rep.preconditions["minimal"]["ok"]


def test_stokes_identities_and_q_invariance():
    toy = toy_mhd()
    M = toy_model()
    MD, f = toy_comparison(toy, M)
    # reflexive homotopy: both identities hold exactly
    refl = reflexive_ho_homotopy(f)
    assert stokes_ho_report(refl, upto=3).ok
    # two homotopic ho-morphisms induce the same map on indecomposables:
    # the composite with the identity class is homotopic to f and the
    # integration of the witness transports Q(f) to Q(gen) exactly
    gen = compose_ho(f, identity_ho(MD))
    assert validate_ho_morphism(gen).ok
    from hodgepath.diagrams import vertex_constant_homotopy
    wit = build_ho_homotopy(gen, f,
                            {v: vertex_constant_homotopy(f, v)
                             for v in MD.index.vertices})
    from hodgepath.diagrams import validate_ho_homotopy
    assert validate_ho_homotopy(wit, upto=3).ok
    assert stokes_ho_report(wit, upto=3).ok
    # equality on Q: source minimal with dQ = 0 and target maps agree exactly
    from hodgepath import indecomposables
    from hodgepath.ops import induced_on_indecomposables
    QM = indecomposables(M)
    QA = indecomposables(toy.rational)
    m_f = induced_on_indecomposables(f.maps["0"], QM, QA, upto=3)
    m_g = induced_on_indecomposables(gen.maps["0"], QM, QA, upto=3)
    assert m_f == m_g


def test_indecomposables_diagram():
    toy = toy_mhd()
    out = indecomposables_diagram(toy.diagram, upto=4)
    for v in ("0", "1", "2"):
        assert out["vertices"][v]["dims"] == {2: 1}
    # Q(Q-diagram) = 0 everywhere
    QI = Field(-1)
    AQ = TableCdga([TableBasisElement("one", 0, weight=0)], 4, unit="one")
    E, coer = extend_scalars(AQ, -1)
    AC = TableCdga([TableBasisElement("one", 0, weight=0, hodge=0)], 4,
                   field=QI, unit="one")
    phi = linear_morphism(E, AC, {"one": AC.unit()})
    I = IndexCategory({"0": 0, "1": 1}, [("u", "0", "1")])
    D = Diagram(I, {"0": AQ, "1": AC},
                tags={"0": "filtered", "1": "bifiltered"},
                arrows={"u": (phi, coer)}, budget=3)
    out0 = indecomposables_diagram(D, upto=3)
    assert all(v["dims"] == {} for v in out0["vertices"].values())
    # Q commutes with Gr^W dimensionally on the toy
    from hodgepath.filtered import FilteredComplex, gr
    g0 = gr(toy.rational, 0, kind="W")
    assert g0.dims[2] == out["vertices"]["0"]["dims"][2]


def test_pi_star_functoriality_hook():
    toy = toy_mhd()
    M = toy_model()
    MD, f = toy_comparison(toy, M)
    idm = DiagramMorphism(toy.diagram, toy.diagram,
                          {v: __import__("hodgepath").identity_morphism(
                              toy.diagram.algebras[v])
                           for v in toy.diagram.index.vertices}, name="1")
    out = pi_star_induced_map(toy, M, f, toy, M, f, idm, budget=4)
    assert out["mhs_compatible"]
    mat2 = out["matrices"][2]
    assert len(mat2) == 1 and mat2[0][0] == Scalar(1)

"""Minimal models, minimality tests, lifting along weak equivalences."""

import random

import pytest

from helpers import (acyclic_table, k_q2, ms2, qq_algebra, rho_ms2_s2, s2_table,
                     s2_wedge_s5, s3, toy_model, two_torus_like)
from hodgepath import (FreeCdga, FreeMorphism, Generator, Homotopy, compose,
                       constant_homotopy, homotopy_between_lifts, homotopy_groups,
                       identity_morphism, is_minimal, is_quasi_iso,
                       lift_against_weak_equivalence, minimal_model, path_of,
                       verify_homotopy)
from hodgepath.sullivan import ModelError


def test_minimal_model_s2():
    m = minimal_model(s2_table(), 6)
    assert [(g.name, g.degree) for g in m.M.gens] == [("v2_00", 2), ("v3_00", 3)]
    d3 = m.M.differential_of("v3_00")
    a2 = m.M.generator("v2_00")
    assert d3 == a2 * a2
    assert is_minimal(m.M)[0]
    assert homotopy_groups(m)["dims"] == {2: 1, 3: 1}
    assert all(r["iso"] for n, r in m.certificate.items() if "iso" in r)
    assert m.certificate[6]["injective"]


def test_minimal_model_wedge_has_degree5_generator():
    m = minimal_model(s2_wedge_s5(), 6)
    assert homotopy_groups(m)["dims"] == {2: 1, 3: 1, 5: 1}
    assert len(m.M.gens) == 3
    assert is_quasi_iso(m.rho, 5)


def test_minimal_model_trivial_and_free_inputs():
    m = minimal_model(qq_algebra(), 5)
    assert m.M.gens == [] or m.M is qq_algebra()  # the trivial model
    assert homotopy_groups(m)["dims"] == {}
    A = s3()
    m3 = minimal_model(A, 6)
    assert m3.M is A  # already minimal: returns itself
    assert homotopy_groups(m3)["dims"] == {3: 1}


def test_minimal_model_projective_plane():
    # truncated polynomial ring: one closed generator, one degree-5 killer
    from hodgepath import TableBasisElement, TableCdga
    from hodgepath.scalars import Scalar
    A = TableCdga([TableBasisElement("one", 0), TableBasisElement("x2", 2),
                   TableBasisElement("x4", 4)], N=6, unit="one",
                  products={("x2", "x2"): {"x4": Scalar(1)}}, name="H(CP2)")
    m = minimal_model(A, 6)
    assert homotopy_groups(m)["dims"] == {2: 1, 5: 1}
    a2 = m.M.generator("v2_00")
    assert m.M.differential_of("v5_00") == a2 * a2 * a2
    assert is_quasi_iso(m.rho, 5)


def test_minimal_model_product_of_spheres():
    from hodgepath import TableBasisElement, TableCdga
    from hodgepath.scalars import Scalar
    A = TableCdga([TableBasisElement("one", 0), TableBasisElement("x2", 2),
                   TableBasisElement("y2", 2), TableBasisElement("w4", 4)],
                  N=6, unit="one",
                  products={("x2", "y2"): {"w4": Scalar(1)}}, name="H(S2xS2)")
    m = minimal_model(A, 6)
    assert homotopy_groups(m)["dims"] == {2: 2, 3: 2}
    assert is_quasi_iso(m.rho, 5)


def test_minimal_model_rejects_non_connected():
    bad = acyclic_table()
    assert minimal_model(bad, 4).M.gens == []  # acyclic: model is the unit
    with pytest.raises(ModelError):
        minimal_model(two_torus_like(), 4)  # H^1 != 0 without the flag
    m = minimal_model(two_torus_like(), 4, allow_0_connected=True)
    assert homotopy_groups(m)["dims"] == {1: 2}


def test_minimal_model_rejects_d_squared_nonzero():
    """The certificate's exact fallback never checks d^2 = 0, so the
    construction refuses such an input before it builds anything."""
    from hodgepath import build_dga, load_document
    from helpers import fixture_path
    with open(fixture_path("free_d2_nonzero.json"), encoding="utf-8") as fh:
        A = build_dga(load_document(fh.read()))
    with pytest.raises(ModelError, match=r"d\(d\(z6\)\) = x2\^4 in degree 8"):
        minimal_model(A, 9)
    # below the degree of z6 the differential squares to zero
    assert homotopy_groups(minimal_model(A, 6))["dims"] == {2: 1, 3: 1, 6: 1}


def test_minimal_model_certificate_independent_oracle():
    m = minimal_model(s2_table(), 6)
    assert is_quasi_iso(m.rho, 5)  # recomputed from scratch


def test_seeded_runs_agree_on_q_dims():
    dims = []
    for seed in (1, 2):
        m = minimal_model(s2_wedge_s5(), 6, rng=random.Random(seed))
        dims.append(homotopy_groups(m)["dims"])
        assert is_quasi_iso(m.rho, 5)
    assert dims[0] == dims[1] == {2: 1, 3: 1, 5: 1}


def test_is_minimal_witnesses():
    ok, _ = is_minimal(ms2())
    assert ok
    A = FreeCdga([Generator("x2", 2), Generator("y1", 1)], N=4)
    A.set_differential({"y1": A.generator("x2")})
    ok, bad = is_minimal(A)
    assert not ok and bad[0]["generator"] == "y1" and bad[0]["witness"] == "x2"
    with pytest.raises(ModelError):
        is_minimal(s2_table())


def test_is_minimal_filtered_variant():
    M = toy_model()
    ok, bad = is_minimal(M, filtered=True)
    assert ok, bad
    # break the weight shift: a3 at weight 0 cannot absorb d(a3) = a2^2
    Mbad = FreeCdga([Generator("a2", 2, weight=0, hodge=1),
                     Generator("a3", 3, weight=0, hodge=2)], N=6)
    Mbad.set_differential({"a3": Mbad.parse("a2^2")})
    ok, bad = is_minimal(Mbad, filtered=True)
    assert not ok and bad[0]["check"] == "weight-shift"


def test_lift_against_identity():
    M, A, rho = rho_ms2_s2()
    g, h = lift_against_weak_equivalence(M, identity_morphism(A), rho, path_of(A, 4))
    for gen in M.gens:
        assert g(M.generator(gen.name)) == rho(M.generator(gen.name))
    assert verify_homotopy(h, h.f, h.g, upto=5).ok


def test_lift_against_rho_gives_homotopy_identity():
    M, A, rho = rho_ms2_s2()
    g, h = lift_against_weak_equivalence(M, rho, rho, path_of(rho.target, 4))
    assert verify_homotopy(h, compose(rho, g), rho, upto=5).ok
    # g is homotopic to the identity: certify with an explicit homotopy
    idm = identity_morphism(M)
    hcomp = homotopy_between_lifts(M, rho, idm, g, constant_homotopy(rho, 4))
    assert verify_homotopy(hcomp, idm, g, upto=5).ok


def test_injectivity_companion_produces_explicit_homotopy():
    M, A, rho = rho_ms2_s2()
    idm = identity_morphism(M)
    h0 = constant_homotopy(rho, budget=4)
    out = homotopy_between_lifts(M, rho, idm, idm, h0)
    assert verify_homotopy(out, idm, idm, upto=5).ok


def unit_sphere_plus_acyclic_pair(N=5):
    """H(S2) plus an acyclic pair a3 -> b4: rho of its model misses a3 and b4."""
    from hodgepath import TableBasisElement, TableCdga
    return TableCdga([TableBasisElement("one", 0), TableBasisElement("x2", 2),
                      TableBasisElement("a3", 3), TableBasisElement("b4", 4)], N,
                     unit="one", differentials={"a3": {"b4": 1}}, name="S2+acyclic")


def test_homotopy_between_lifts_through_a_non_surjective_map():
    # the double-path branch: its lift runs through the mapping path of
    # (d0, d1, P(w)), whose target DoublePath(w) is a subalgebra
    from hodgepath import is_surjective_at
    A = unit_sphere_plus_acyclic_pair()
    mm = minimal_model(A)
    M, w = mm.M, mm.rho
    assert not is_surjective_at(w, 3)
    upto = min(M.N, A.N) - 1
    idm = identity_morphism(M)
    h = homotopy_between_lifts(M, w, idm, idm, constant_homotopy(w, 3))
    assert verify_homotopy(h, idm, idm, upto=upto).ok
    g, _ = lift_against_weak_equivalence(M, w, w, path_of(w.target, 3))
    h = homotopy_between_lifts(M, w, idm, g, constant_homotopy(w, 3))
    assert verify_homotopy(h, idm, g, upto=upto).ok


def test_non_surjective_lifts_build_their_mapping_path_once(monkeypatch):
    # the mapping path of (d0, d1, P(w)) is kept on its path object per w
    from hodgepath import paths
    built = []
    init = paths.MappingPath.__init__

    def counting_init(self, f, *args, **kwargs):
        built.append(f.name)
        init(self, f, *args, **kwargs)

    monkeypatch.setattr(paths.MappingPath, "__init__", counting_init)
    A = unit_sphere_plus_acyclic_pair()
    mm = minimal_model(A)
    M, w = mm.M, mm.rho
    idm = identity_morphism(M)
    homotopies = [homotopy_between_lifts(M, w, idm, idm, constant_homotopy(w, 3))
                  for _ in range(2)]
    assert built.count("(d0,d1,P(v))") == 1
    upto = min(M.N, A.N) - 1
    for n in range(0, upto + 1):
        for b in M.basis(n):
            first, second = (list(h(b).terms.items()) for h in homotopies)
            assert first == second
    assert verify_homotopy(homotopies[1], idm, idm, upto=upto).ok


def test_non_surjective_lift_keeps_the_weight_shift_of_h(monkeypatch):
    # h lives in a weight-shifted path of A: the mapping path of
    # (d0, d1, P(w)), like the addition target's, is built in the path
    # beside h's, at h's w-shift
    from hodgepath import iota, keyed, paths
    shifts = []
    init = paths.MappingPath.__init__

    def recording_init(self, f, PB, *args, **kwargs):
        shifts.append(keyed(PB).w_shift)
        init(self, f, PB, *args, **kwargs)

    monkeypatch.setattr(paths.MappingPath, "__init__", recording_init)
    A = unit_sphere_plus_acyclic_pair()
    mm = minimal_model(A)
    M, w = mm.M, mm.rho
    idm = identity_morphism(M)
    h = Homotopy(w, w, compose(iota(path_of(A, 3, w_shift=1)), w))
    out = homotopy_between_lifts(M, w, idm, idm, h)
    assert shifts and set(shifts) == {1}
    assert verify_homotopy(out, idm, idm, upto=min(M.N, A.N) - 1).ok


def test_lift_roundtrip_class():
    # w_* surjectivity round-trip: lift f = w, compose back, land in [f]
    M, A, rho = rho_ms2_s2()
    g, h = lift_against_weak_equivalence(M, rho, rho, path_of(rho.target, 4))
    # h already certifies [w g] = [f]
    assert verify_homotopy(h, compose(rho, g), rho, upto=5).ok

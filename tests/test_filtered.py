"""Filtrations: graded pieces, spectral pages, decalage, filtered paths, strictness."""

import random
from fractions import Fraction

import pytest

from helpers import s2_table
from hodgepath import (CutoffError, FreeCdga, FreeMorphism, Generator,
                       LinearMap, Morphism, TableBasisElement, TableCdga,
                       compose, identity_morphism, iota, is_Er_quasi_iso, keyed,
                       linear_morphism, path_10, path_of, r_path, spectral_page)
from hodgepath.filtered import (FilteredComplex, SpectralSequence, decalage, filtered_complex,
                                gr, gr_differential_strict, strictness_check)
from hodgepath.scalars import Scalar


def s2_weighted(N=6, w=0):
    return TableCdga([TableBasisElement("one", 0, weight=0),
                      TableBasisElement("x2", 2, weight=w)], N, unit="one",
                     name="S2w")


def two_term(N=4):
    return TableCdga([TableBasisElement("one", 0, weight=0),
                      TableBasisElement("u", 0, weight=1),
                      TableBasisElement("v", 1, weight=0)], N, unit="one",
                     differentials={"u": {"v": Scalar(1)}}, name="two-term")


def test_gr_trivial_filtration():
    A = s2_weighted()
    g0 = gr(A, 0)
    assert g0.dims == {n: A.dim(n) for n in range(0, A.N + 1)}
    g1 = gr(A, 1)
    assert all(d == 0 for d in g1.dims.values())
    # both pieces are read off the one complex kept on A, and kept there too
    assert gr(A, 0) is g0 and gr(A, 1, bound=A.N) is g1
    assert g0.reps == {n: filtered_complex(A).elements[n] for n in g0.reps}


def test_gr_two_step():
    A = TableCdga([TableBasisElement("one", 0, weight=0),
                   TableBasisElement("x2", 2, weight=2)], N=4, unit="one")
    g2 = gr(A, 2, kind="W")
    assert g2.dims[2] == 1 and g2.dims[0] == 0


def test_gr_of_filtered_path():
    # Gr_p(P_1(A)) = Gr_p A (x) poly(t)  +  Gr_{p+1} A (x) poly(t) dt
    A = TableCdga([TableBasisElement("one", 0, weight=0),
                   TableBasisElement("x2", 2, weight=1)], N=4, unit="one")
    T = 3
    P1 = r_path(A, 1, budget=T)
    for p in (-1, 0, 1):
        g = gr(P1, p)
        for n in range(0, 4):
            dim_t = (T + 1) * sum(1 for k in A.basis_keys(n) if A.key_weight(k) == p)
            dim_dt = T * sum(1 for k in A.basis_keys(n - 1) if A.key_weight(k) == p + 1)
            assert g.dims[n] == dim_t + dim_dt


def test_spectral_pages_of_two_term_complex():
    A = two_term()
    e1 = spectral_page(A, 1)
    assert e1 == {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    e2 = spectral_page(A, 2)
    assert e2 == {(0, 0): 1}  # only the unit class survives
    ss = SpectralSequence(FilteredComplex(A, "W"))
    assert ss.d_r_is_zero(1) == [{"r": 1, "p": 1, "n": 0}]  # d1 isomorphism


def test_e0_is_gr_and_e1_of_trivial_filtration():
    A = s2_weighted()
    e0 = spectral_page(A, 0)
    for (p, n), d in e0.items():
        assert d == gr(A, p).dims[n]
    e1 = spectral_page(A, 1)
    assert e1 == {(0, 0): 1, (0, 2): 1}  # H(A) in one column


def test_page_turn_up_to_three():
    for A in (two_term(), s2_weighted()):
        ss = SpectralSequence(FilteredComplex(A, "W"))
        for r in range(0, 3):
            assert ss.verify_page_turn(r) == []


def test_page_turn_on_filtered_path():
    A = TableCdga([TableBasisElement("one", 0, weight=0),
                   TableBasisElement("x2", 2, weight=1)], N=4, unit="one")
    P1 = r_path(A, 1, budget=2)
    ss = SpectralSequence(FilteredComplex(P1, "W"))
    for r in range(0, 3):
        assert ss.verify_page_turn(r) == []


def test_spectral_cutoff_error():
    A = two_term(N=2)
    with pytest.raises(CutoffError):
        spectral_page(A, 3)


def test_is_er_quasi_iso_identity_and_iota():
    A = s2_weighted()
    ok, bad = is_Er_quasi_iso(identity_morphism(A), 1)
    assert ok
    P1 = r_path(A, 1, budget=3)
    ok, bad = is_Er_quasi_iso(iota(P1), 1)
    assert ok, bad


def test_is_er_quasi_iso_negative():
    A = two_term()
    Z = TableCdga([TableBasisElement("one", 0, weight=0)], N=6, unit="one",
                  name="unit-algebra")
    to_unit = linear_morphism(A, Z, {"one": Z.unit(), "u": Z.zero(),
                                     "v": Z.zero()}, name="crush")
    # crush is an E2-level equivalence but not an E1-quasi-isomorphism wait:
    # E1(A) has classes at (1,0) and (0,1) killed by d1, E2 = unit only, so
    # the crush IS an E1-quasi-iso; the zero-like map on a d=0 fixture is not.
    ok, bad = is_Er_quasi_iso(to_unit, 1)
    assert ok
    B = s2_weighted()
    crush2 = linear_morphism(B, Z, {"one": Z.unit(), "x2": Z.zero()}, name="c2")
    ok2, bad2 = is_Er_quasi_iso(crush2, 1)
    assert not ok2
    assert any(w.get("n") == 2 for w in bad2)  # bidegree witness


def test_er_quasi_iso_two_out_of_three():
    A = s2_weighted()
    idm = identity_morphism(A)
    comp = compose(idm, idm)
    ok, _ = is_Er_quasi_iso(comp, 1)
    assert ok
    # genuine composable pair: iota then the endpoint evaluation
    from hodgepath.paths import delta
    P1 = r_path(A, 1, budget=3)
    f = iota(P1)
    g = delta(P1, 1)
    ok_f, _ = is_Er_quasi_iso(f, 1)
    ok_gf, _ = is_Er_quasi_iso(compose(g, f), 1)
    ok_g, _ = is_Er_quasi_iso(g, 1)
    assert ok_f and ok_gf and ok_g  # two out of three, realized


def test_decalage_zero_complex():
    Z = TableCdga([TableBasisElement("one", 0, weight=0)], N=3, unit="one")
    dec = decalage(FilteredComplex(Z, "W"))
    assert all(lv == [] for n, lv in dec.levels.items() if n >= 1)


def test_decalage_shifts_by_degree_and_is_monotone():
    A = s2_weighted()
    fc = FilteredComplex(A, "W")
    dec = decalage(fc)
    assert dec.levels[0] == [0]
    assert dec.levels[2] == [2]  # degree-n class shifts by n
    for n in dec.levels:
        assert dec.levels[n] == sorted(dec.levels[n])


def test_decalage_two_term():
    A = two_term()
    dec = decalage(FilteredComplex(A, "W"))
    # one: level 0; u: du = v needs W_{p-1}: level 1; v: level 1 in degree 1
    assert dec.levels[0] == [0, 1]
    assert dec.levels[1] == [1]


def test_decalage_functorial():
    A = two_term()
    dec = decalage(FilteredComplex(A, "W"))
    idm = identity_morphism(A)
    for n in dec.levels:
        for lv, el in zip(dec.levels[n], dec.elements[n]):
            img = idm(el)
            lvl = dec.level_of_coords(n, dec.coords(img, n))
            assert lvl is None or lvl <= lv


def test_r_path_weights():
    A = s2_weighted(w=2)
    P0 = r_path(A, 0, budget=3)
    k0 = keyed(P0)
    x = A.basis_element("x2")
    assert (k0.include(x) * k0.dt()).weight() == 2      # r = 0: no shift
    P1 = r_path(A, 1, budget=3)
    k1 = keyed(P1)
    assert (k1.include(x) * k1.dt()).weight() == 1      # r = 1: shift by one
    assert (k1.include(x) * k1.t()).weight() == 2
    # endpoint evaluations are filtered for all r
    for P in (P0, P1):
        k = keyed(P)
        el = k.include(x) * k.t() + k.include(x) * k.dt()
        for j in (0, 1):
            out = k.evaluate(el, j)
            assert out.is_zero or out.weight() <= el.weight() + 1


def test_path_10_bidegrees():
    A = TableCdga([TableBasisElement("one", 0, weight=0, hodge=0),
                   TableBasisElement("x2", 2, weight=3, hodge=2)], N=4,
                  unit="one")
    P = path_10(A, budget=3)
    k = keyed(P)
    el = k.include(A.basis_element("x2")) * k.dt()
    assert el.weight() == 2 and el.hodge() == 2  # W shifts, F does not
    # trivial filtrations: plain path
    B = s2_weighted()
    PW = path_10(B, budget=3)
    assert keyed(PW).dim(2) == path_of(B, 3).dim(2)


def test_strictness_zero_and_toy():
    # zero map is strict
    assert strictness_check([], [], [0, 1]) == []
    # d = 0 on the toy: strict
    A = TableCdga([TableBasisElement("one", 0, weight=0, hodge=0),
                   TableBasisElement("x2", 2, weight=0, hodge=1)], N=4,
                  unit="one")
    g = gr(A, 0, kind="W")
    assert gr_differential_strict(g, 0) == []
    assert gr_differential_strict(g, 2) == []


def test_strictness_counterexample():
    # d: source level 0 -> target level 1 (F shifted on the target): image
    # meets F^1 but is not the image of F^1.
    rows = [{0: Fraction(1)}]
    bad = strictness_check(rows, [0], [1])
    assert bad and bad[0]["q"] == 1

"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every expected value is either trivially forced, quoted from the source
formulas after mechanical verification, or computed by the independent exact
oracles (cohomology by row reduction, explicit homotopy witnesses).
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from helpers import (acyclic_table, fixture_path, k_q2, ms2, qq_algebra,
                     rho_ms2_s2, s2_table, s2_wedge_s5, s3, square_diagram,
                     toy_mhd, toy_model, two_torus_like)
from hodgepath import (Diagram, DiagramMorphism, FreeCdga, FreeMorphism,
                       Generator, HoMorphism, IndexCategory, MhsStructure,
                       TableBasisElement, TableCdga, betti_numbers,
                       build_ho_homotopy, c_hat, check_mhd, compose, compose_ho,
                       constant_homotopy, coproduct, degeneration_check, delta,
                       evaluate_zigzag, folding, homotopy_between_lifts,
                       homotopy_groups, ho_morphisms_equal, identity_ho,
                       identity_morphism, indecomposables, interchange, iota,
                       is_minimal, is_quasi_iso, is_surjective_at, keyed,
                       lift_against_weak_equivalence, mapping_path, minimal_model,
                       mixed_hodge_dga_diagram, p5_lift, path_linear_map, path_of,
                       pi_star, promote_strict, quasi_iso_report, rectify,
                       reflexive_ho_homotopy, span_zigzag, stokes_ho_report,
                       symmetry, validate_diagram_morphism, validate_ho_homotopy,
                       validate_ho_morphism, verify_homotopy,
                       vertex_constant_homotopy)
from hodgepath.linalg import rank
from hodgepath.algebra import morphism_matrix
from hodgepath.filtered import FilteredComplex, SpectralSequence, r_path, spectral_page
from hodgepath.ops import induced_on_indecomposables
from hodgepath.scalars import Scalar

PKG_ROOT = os.path.join(os.path.dirname(__file__), "..")


def _verdict(num, detail):
    print(f"\n[acceptance] criterion {num}: PASS - {detail}")


# ---------------------------------------------------------------------------
# 1. P-category axiom suite for the dga instance
# ---------------------------------------------------------------------------

def test_criterion_1_p_category_axioms():
    t0 = time.time()
    rng = random.Random(101)
    fixtures = [qq_algebra(5), s2_table(5), ms2(6), s3(5), acyclic_table(5),
                two_torus_like(4)]
    budget = 4

    for A in fixtures:
        P = path_of(A, budget)
        # (P2) iota is a quasi-isomorphism ...
        top = A.N - 1
        assert betti_numbers(P, top) == betti_numbers(A, top), A.name
        # ... and (delta0, delta1): P(A) -> A x A is surjective degreewise
        for n in range(0, top + 1):
            rows = []
            d0, d1 = delta(P, 0), delta(P, 1)
            for b in P.basis(n):
                row = A.coords(d0(b), n)
                for j, c in A.coords(d1(b), n).items():
                    row[A.dim(n) + j] = c
                rows.append(row)
            need = 2 * A.dim(n)
            assert rank(rows, need) == need, (A.name, n)

        # structural identities on 20 random elements each
        k = keyed(P)
        P2 = path_of(P)
        P3 = path_of(P2)
        tau = symmetry(P)
        c = coproduct(P)
        mu = interchange(P2)
        nab = folding(P2)
        ch = c_hat(P)
        io, io_P = iota(P), iota(P2)
        d0, d1 = delta(P, 0), delta(P, 1)
        d1_out = delta(P2, 1)
        Pd1 = path_linear_map(d1, P2, P)
        d0_out = delta(P2, 0)
        Pd0 = path_linear_map(d0, P2, P)
        c_P = coproduct(P2)
        Pc = path_linear_map(c, P2, P3)
        d0_out3, d1_out3 = delta(P3, 0), delta(P3, 1)
        Pd0_mid = path_linear_map(delta(P2, 0), P3, P2)
        Pd1_mid = path_linear_map(delta(P2, 1), P3, P2)
        PPd0 = path_linear_map(path_linear_map(d0, P2, P), P3, P2)
        PPd1 = path_linear_map(path_linear_map(d1, P2, P), P3, P2)
        tau_out = symmetry(P2)
        Ptau = path_linear_map(tau, P2, P2)
        for _ in range(20):
            x = P.random_element(rng.randint(0, max(0, A.N - 2)), rng)
            assert tau(tau(x)) == x                      # symmetry squared
            assert d0(tau(x)) == d1(x) and d1(tau(x)) == d0(x)
            assert d1_out(c(x)) == x and Pd1(c(x)) == x  # comonad counits
            assert c_P(c(x)) == Pc(c(x))                 # coassociativity
            assert d0_out(c(x)) == io(d0(x)) and Pd0(c(x)) == io(d0(x))
            L = P2.random_element(rng.randint(0, max(0, A.N - 2)), rng)
            assert mu(mu(L)) == L                        # interchange
            assert d0_out(mu(L)) == Pd0(L) and Pd1(mu(L)) == d1_out(L)
            assert nab(io_P(x)) == x                     # folding of constants
            chx = ch(x)                                  # three-level coproduct
            assert d0_out3(chx) == c(x) and Pd0_mid(chx) == c(x)
            assert d1_out3(chx) == io_P(x) and Pd1_mid(chx) == io_P(x)
            assert PPd0(chx) == io_P(io(d0(x)))
            assert PPd1(chx) == tau_out(Ptau(c(tau(x))))

    # (P5): the section of (delta0, delta1, P(v)) hits 50 random targets
    M, S2, rho = rho_ms2_s2(5)
    big = FreeCdga([Generator("x1", 1), Generator("y2", 2)], 5, name="big")
    small = FreeCdga([Generator("x1", 1)], 5, name="small")
    proj = FreeMorphism(big, small, {"x1": small.generator("x1"),
                                     "y2": small.zero()}, name="proj")
    PM = path_of(M, budget)
    surjections = [(rho, M, S2), (proj, big, small),
                   (delta(PM, 0), keyed(PM), M)]
    for v, A, B in surjections:
        PB = path_of(B, budget)
        kB = keyed(PB)
        PA = path_of(A, budget)
        kA = keyed(PA)
        Pv = path_linear_map(v, PA, PB)
        for trial in range(50):
            n = rng.randint(0, 3)
            a0 = A.random_element(n, rng)
            a1 = A.random_element(n, rng)
            mid = B.random_element(n, rng)
            bt = (kB.include(v(a0)) * (kB.unit() - kB.t())
                  + kB.include(v(a1)) * kB.t()
                  + kB.include(mid) * (kB.t() - kB.t() * kB.t()))
            at = p5_lift(v, a0, a1, bt)
            assert kA.evaluate(at, 0) == a0
            assert kA.evaluate(at, 1) == a1
            assert Pv(at) == bt
    elapsed = time.time() - t0
    assert elapsed < 30, f"criterion 1 took {elapsed:.1f}s"
    _verdict(1, f"6 fixtures, 20 random elements per identity, 150 section "
                f"targets, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. mapping-path factorization
# ---------------------------------------------------------------------------

def test_criterion_2_factorization():
    M, S2, rho = rho_ms2_s2(5)
    KQ2 = k_q2(5)
    MS = ms2(6)
    inc = FreeMorphism(KQ2, MS, {"e2": MS.generator("e2")}, name="inc")
    Q5 = qq_algebra(5)
    unit_map = FreeMorphism(Q5, KQ2, {}, name="unit")
    S3A = s3(5)
    aug = FreeMorphism(S3A, Q5, {"x3": Q5.zero()}, name="aug")
    fixtures = [identity_morphism(S2), rho, unit_map, aug, inc]
    for f in fixtures:
        mp = mapping_path(f, budget=4)
        upto = min(f.source.N, f.target.N) - 1
        for n in range(0, upto + 1):
            assert is_surjective_at(mp.p, n), (f.name, n)
        assert is_quasi_iso(mp.p, upto), f.name
        for n in range(0, upto):
            for b in f.source.basis(n):
                assert mp.p(mp.iota(b)) == b
                assert mp.q(mp.iota(b)) == f(b)
        h = mp.contraction()
        assert verify_homotopy(h, h.f, h.g, upto=upto - 1).ok, f.name
        f_qiso = is_quasi_iso(f, upto)
        q_qiso = is_quasi_iso(mp.q, upto)
        if f_qiso:
            assert q_qiso, f.name
            rep = quasi_iso_report(mp.q, upto)
            assert all(r["dim_source"] == r["dim_target"] for r in rep.values())
    _verdict(2, "5 morphisms: p surjective quasi-iso, q iota = f, contraction "
                "verified, q inherits equivalences")


# ---------------------------------------------------------------------------
# 3. minimal models
# ---------------------------------------------------------------------------

def test_criterion_3_minimal_models():
    t0 = time.time()
    # H*(S2): the exact-cohomology oracle certifies Lambda(a2, a3) with
    # d a3 = a2^2 and homotopy ranks {2:1, 3:1}.  (The criterion's prose also
    # names a degree-5 rank for this input; pi_5(S^2) is torsion, so that
    # clause is realized on the wedge fixture below, where a degree-5
    # cokernel generator genuinely appears.  See the decisions ledger.)
    m = minimal_model(s2_table(6), 6)
    assert [(g.name, g.degree) for g in m.M.gens] == [("v2_00", 2), ("v3_00", 3)]
    a2 = m.M.generator("v2_00")
    assert m.M.differential_of("v3_00") == a2 * a2
    assert is_minimal(m.M)[0]
    assert homotopy_groups(m)["dims"] == {2: 1, 3: 1}
    assert is_quasi_iso(m.rho, 5)  # independent oracle, degreewise <= 5

    mw = minimal_model(s2_wedge_s5(6), 6)
    assert len(mw.M.gens) == 3
    assert homotopy_groups(mw)["dims"] == {2: 1, 3: 1, 5: 1}
    assert is_quasi_iso(mw.rho, 5)
    assert is_minimal(mw.M)[0]

    A3 = s3(6)
    m3 = minimal_model(A3, 6)
    assert m3.M is A3  # H*(S3) returns itself
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 3 took {elapsed:.1f}s"
    _verdict(3, f"S2 model Lambda(a2,a3) ranks {{2:1,3:1}} (oracle), wedge "
                f"realizes the 3-generator {{2:1,3:1,5:1}} shape, S3 fixed, "
                f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. lifting bijection, constructively
# ---------------------------------------------------------------------------

def test_criterion_4_lifting_bijection():
    rng = random.Random(404)
    M, S2, rho = rho_ms2_s2(5)
    KQ2 = k_q2(5)
    MS = ms2(6)
    W = s2_wedge_s5(6)
    mw = minimal_model(W, 6)
    PM = path_of(MS, 4)
    PS2 = path_of(S2, 4)
    S3A = s3(5)
    PS3 = path_of(S3A, 4)
    C1 = FreeCdga([Generator("c1", 1)], 5, name="C1")
    B1 = FreeCdga([Generator("b1", 1)], 5, name="B1")
    c1b = FreeMorphism(C1, B1, {"c1": B1.generator("b1")}, name="c->b")
    PB1 = path_of(B1, 4)
    mp_rho = mapping_path(rho, budget=4)
    e2_to_x2 = FreeMorphism(KQ2, S2, {"e2": S2.basis_element("x2")}, name="ex")
    e2_in_M = FreeMorphism(KQ2, MS, {"e2": MS.generator("e2")}, name="eM")
    triples = [
        (M, rho, rho),
        (M, identity_morphism(S2), rho),
        (KQ2, rho, e2_to_x2),
        (KQ2, delta(PS2, 0), e2_to_x2),
        (S3A, delta(PS3, 1), identity_morphism(S3A)),
        (MS, delta(PM, 0), identity_morphism(MS)),
        (mw.M, mw.rho, mw.rho),
        (C1, delta(PB1, 0), c1b),
        (KQ2, mp_rho.q, e2_to_x2),
        (M, mp_rho.p, identity_morphism(M)),
    ]
    count = 0
    for C, w, f in triples:
        g, h = lift_against_weak_equivalence(C, w, f, path_of(w.target, 4))
        wg = compose(w, g)
        upto = min(C.N, w.target.N) - 1
        assert verify_homotopy(h, wg, f, upto=upto).ok, (C.name, w.name)
        count += 1
    # injectivity companion: any supplied homotopy w g0 ~ w g1 produces an
    # explicit verified homotopy g0 ~ g1
    g, h = lift_against_weak_equivalence(M, rho, rho, path_of(rho.target, 4))
    idm = identity_morphism(M)
    hcomp = homotopy_between_lifts(M, rho, idm, g, constant_homotopy(rho, 4))
    assert verify_homotopy(hcomp, idm, g, upto=5).ok
    g2, h2 = lift_against_weak_equivalence(KQ2, rho, e2_to_x2, path_of(rho.target, 4))
    lift2 = FreeMorphism(KQ2, M, {"e2": M.generator("e2")}, name="direct")
    hsup = constant_homotopy(compose(rho, lift2), budget=4)
    hcomp2 = homotopy_between_lifts(KQ2, rho, lift2, g2, hsup)
    assert verify_homotopy(hcomp2, lift2, g2, upto=4).ok
    _verdict(4, f"{count} lift triples with verified homotopies w g ~ f; "
                "injectivity companions verified")


# ---------------------------------------------------------------------------
# 5. rectification and the zig-zag round trip
# ---------------------------------------------------------------------------

def _random_square(seed):
    rng = random.Random(seed)
    shapes = [1, 2]
    deg = rng.choice(shapes)
    N, budget = 5, 5
    I = IndexCategory({"0": 0, "1": 1}, [("u", "0", "1")])
    mk = lambda nm: FreeCdga([Generator("g%d" % deg, deg)], N, name=nm)
    A0, A1, B0, B1 = (mk(nm) for nm in ("A0", "A1", "B0", "B1"))
    gname = "g%d" % deg
    phiA = FreeMorphism(A0, A1, {gname: A1.generator(gname)})
    phiB = FreeMorphism(B0, B1, {gname: B1.generator(gname)})
    DA = Diagram(I, {"0": A0, "1": A1}, arrows={"u": phiA}, budget=budget)
    DB = Diagram(I, {"0": B0, "1": B1}, arrows={"u": phiB}, budget=budget)
    scale = rng.randint(1, 3)
    f0 = FreeMorphism(A0, B0, {gname: B0.generator(gname) * scale})
    f1 = FreeMorphism(A1, B1, {gname: B1.generator(gname) * scale})
    k = keyed(DB.vertex_path("1"))
    # wiggle: closed, endpoint-free path correction chosen at random
    wig = k.zero()
    z = k.include(B1.generator(gname))
    for i in range(1, 3):
        if rng.random() < 0.7:
            coeff = rng.randint(-2, 2)
            term = z
            for _ in range(i):
                term = term * k.t()
            wig = wig + term * k.dt() * coeff
    # degree bookkeeping: multiply by dt only keeps degree if z has deg-1 part
    F = FreeMorphism(A0, k, {gname: k.include(B1.generator(gname)) * scale
                             + (wig if deg == 1 else k.zero())}, name="F")
    f = HoMorphism(DA, DB, {"0": f0, "1": f1}, {"u": F}, name=f"rand{seed}")
    assert validate_ho_morphism(f).ok
    return DA, DB, f


def test_criterion_5_rectification():
    # Example: the square with F(a) = b + t dt reproduced symbol-for-symbol
    DA, DB, f = square_diagram()
    span = rectify(f)
    mp0, mp1 = span.mps["0"], span.mps["1"]
    phi, F = DA.comp("u"), f.homotopies["u"]
    for n in range(0, 4):
        for x in mp0.space.basis(n):
            a = mp0.component_a(x)
            assert span.diagram.phi["u"](x) == mp1.pair(phi(a), F(a))
    assert validate_diagram_morphism(span.p).ok    # the ladder is strict
    assert validate_diagram_morphism(span.q).ok
    assert validate_ho_morphism(span.iota).ok
    con = span.contraction()
    assert validate_ho_homotopy(con, upto=3).ok

    # round trip on 10 random ho-morphisms with Sullivan sources
    verified = 0
    for seed in range(10):
        DA_r, DB_r, fr = _random_square(seed)
        span_r = rectify(fr)
        out = evaluate_zigzag(DA_r, span_zigzag(span_r))
        assert ho_morphisms_equal(out, fr), f"seed {seed}"
        wit = reflexive_ho_homotopy(fr)
        assert validate_ho_homotopy(wit, upto=3).ok
        verified += 1
    # lift-based composition representative is homotopic to the original,
    # with an explicit square-filled witness (independence of lift choices)
    gen = compose_ho(f, identity_ho(DA))
    wit = build_ho_homotopy(gen, f, {v: vertex_constant_homotopy(f, v)
                                     for v in ("0", "1")})
    assert validate_ho_homotopy(wit, upto=3).ok
    _verdict(5, f"example square exact, ladder strict, {verified} random "
                "round-trips with verified homotopy witnesses")


# ---------------------------------------------------------------------------
# 6. spectral machinery
# ---------------------------------------------------------------------------

def test_criterion_6_spectral():
    two_term = TableCdga([TableBasisElement("one", 0, weight=0),
                          TableBasisElement("u", 0, weight=1),
                          TableBasisElement("v", 1, weight=0)], 4, unit="one",
                         differentials={"u": {"v": Scalar(1)}}, name="d1-iso")
    s2w = TableCdga([TableBasisElement("one", 0, weight=0),
                     TableBasisElement("x2", 2, weight=1)], 4, unit="one",
                    name="s2w")
    toy = toy_mhd()
    fixtures = [two_term, s2w, toy.rational, toy.complex_vertex]
    for A in fixtures:
        ss = SpectralSequence(FilteredComplex(A, "W"))
        for r in range(0, 4):
            assert ss.verify_page_turn(r) == [], (A.name, r)
    # the d1-isomorphism fixture: E2 is only the unit class
    assert spectral_page(two_term, 2) == {(0, 0): 1}
    # E1(P_1(A)) matches E1(A) (x) Lambda(t, dt) dimension-wise
    filtered_fixtures = [two_term, s2w, toy.complex_vertex]
    T = 3
    for A in filtered_fixtures:
        P1 = r_path(A, 1, budget=T)
        e1_path = spectral_page(P1, 1, bound=A.N - 2)
        e1_base = spectral_page(A, 1, bound=A.N - 2)
        for n in range(0, A.N - 1):
            lo = min((p for (p, m) in e1_base if m <= A.N - 2), default=0) - 1
            hi = max((p for (p, m) in e1_base if m <= A.N - 2), default=0) + 1
            for p in range(lo, hi + 1):
                expected = ((T + 1) * e1_base.get((p, n), 0)
                            + T * e1_base.get((p + 1, n - 1), 0))
                assert e1_path.get((p, n), 0) == expected, (A.name, p, n)
        ss = SpectralSequence(FilteredComplex(P1, "W"))
        for r in range(0, 4):
            assert ss.verify_page_turn(r) == [], (A.name, "path", r)
    _verdict(6, "page-turn exact for r <= 3 on 7 fixtures, E2 of the "
                "d1-isomorphism collapses, path-page dimensions match")


# ---------------------------------------------------------------------------
# 7. mixed Hodge verification
# ---------------------------------------------------------------------------

def test_criterion_7_mixed_hodge():
    toy = toy_mhd()
    rep = check_mhd(toy)
    assert rep.ok
    assert {"p": 0, "n": 2, "weight": 2, "dim": 1, "types": {"(1,1)": 1}} \
        in rep.axioms["MH2"]["pure_pieces"]

    mutant = check_mhd(toy_mhd(hodge_x2=2))
    assert not mutant.ok
    wit = mutant.axioms["MH2"]["witnesses"][0]
    assert wit["p"] == 0 and wit["n"] == 2
    assert any(fl["q"] == 2 and "intersection" in fl["check"]
               for fl in wit["failures"])

    # degeneration on every verified fixture
    verified = [toy]
    from test_hodge import toy_comparison  # reuse the nonzero-d fixture shape
    from hodgepath import MixedHodgeDiagram, Field, extend_scalars, linear_morphism
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
    phi = linear_morphism(E, AC, {"one": AC.unit(), "u1": AC.basis_element("u1"),
                                  "v2": AC.basis_element("v2")})
    I = IndexCategory({"0": 0, "1": 1}, [("u", "0", "1")])
    D2 = MixedHodgeDiagram(Diagram(I, {"0": AQ, "1": AC},
                                   tags={"0": "filtered", "1": "bifiltered"},
                                   arrows={"u": (phi, coer)}, budget=3), -1)
    assert check_mhd(D2).ok
    verified.append(D2)
    for D in verified:
        deg = degeneration_check(D)
        assert deg["ok"], deg
    _verdict(7, "toy passes MH0-MH2 with H^2(Gr_0) of type (1,1); F-shifted "
                "mutant fails MH2 with the predicted witness; degeneration "
                "holds on all verified fixtures")


# ---------------------------------------------------------------------------
# 8. Hodge structures on homotopy groups
# ---------------------------------------------------------------------------

def test_criterion_8_pi_star():
    toy = toy_mhd()
    M = toy_model()
    from test_hodge import toy_comparison
    MD, f = toy_comparison(toy, M)
    rep = pi_star(toy, M, f)
    assert rep.ok
    assert rep.degrees[2]["weights"] == {"2": 1}
    assert rep.degrees[2]["types"] == {"(1,1)": 1}

    # integration invariance: an augmented-homotopic pair induces identical
    # maps on the indecomposables, and both integration identities hold
    gen = compose_ho(f, identity_ho(MD))
    wit = build_ho_homotopy(gen, f, {v: vertex_constant_homotopy(f, v)
                                     for v in MD.index.vertices})
    assert validate_ho_homotopy(wit, upto=3).ok
    stokes = stokes_ho_report(wit, upto=3)
    assert stokes.ok, stokes.failures
    QM = indecomposables(M)
    QA = indecomposables(toy.rational)
    assert induced_on_indecomposables(f.maps["0"], QM, QA, upto=3) == \
        induced_on_indecomposables(gen.maps["0"], QM, QA, upto=3)
    _verdict(8, "pi^2 of the toy is pure weight 2 type (1,1); homotopic pair "
                "induces identical maps on Q; both integration identities exact")


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------

def _cli(args, cache_dir=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src")
    env.pop("HODGEPATH_CACHE", None)
    if cache_dir:
        env["HODGEPATH_CACHE"] = cache_dir
    return subprocess.run([sys.executable, "-m", "hodgepath.cli", *args],
                          capture_output=True, text=True, env=env, cwd=PKG_ROOT)


def test_criterion_9_determinism(tmp_path):
    commands = [
        ["check", fixture_path("ms2_free.json")],
        ["cohomology", fixture_path("s2.json")],
        ["minimal-model", fixture_path("s2_wedge_s5.json"), "--max-degree", "6"],
        ["homotopy-groups", fixture_path("s2.json"), "--max-degree", "6"],
        ["path", fixture_path("s2.json")],
        ["spectral", fixture_path("two_term_w.json"), "--page", "2",
         "--max-degree", "2"],
        ["decalage", fixture_path("two_term_w.json")],
        ["mhd-check", fixture_path("p1toy.json"), "--max-degree", "4"],
        ["degeneration", fixture_path("p1toy.json")],
        ["rectify", fixture_path("example41.json")],
        ["compose-ho", fixture_path("example41.json"),
         fixture_path("example41_g.json")],
        ["pi-star", "--mhd", fixture_path("p1toy.json"),
         "--model", fixture_path("p1toy_model.json"),
         "--comparison", fixture_path("p1toy_comparison.json"),
         "--max-degree", "4"],
    ]
    first, second = [], []
    for run_idx, bucket in ((0, first), (1, second)):
        cache = str(tmp_path / f"cache{run_idx}")
        for cmd in commands:
            out = _cli(cmd, cache_dir=cache)
            assert out.returncode == 0, (cmd, out.stderr)
            bucket.append(out.stdout)
    assert first == second
    # cache transparency: a warm second pass reproduces the same bytes
    warm_cache = str(tmp_path / "cache0")
    for cmd, expected in zip(commands, first):
        out = _cli(cmd, cache_dir=warm_cache)
        assert out.stdout == expected
    _verdict(9, f"{len(commands)} reports byte-identical across two clean "
                "runs, cache-transparent")

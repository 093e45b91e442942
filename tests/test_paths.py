"""Path algebras: structural identities, homotopies, mapping paths, lifts."""

import random

import pytest

from helpers import acyclic_table, k_q2, ms2, qq_algebra, rho_ms2_s2, s2_table, s3
from hodgepath import (AlgebraError, BudgetError, FreeCdga, FreeMorphism,
                       Generator, Homotopy, betti_numbers, c_hat, compose,
                       constant_homotopy, coproduct, coproduct_prime, delta,
                       folding, identity_morphism, integrate, interchange, iota,
                       is_quasi_iso, is_surjective_at, keyed, mapping_path,
                       p5_lift, path_linear_map, path_of, symmetry,
                       verify_homotopy)
from hodgepath.algebra import is_surjective_at
from hodgepath.paths import stokes_defect


def randoms(P, rng, count=20, maxdeg=3):
    for _ in range(count):
        n = rng.randint(0, maxdeg)
        yield P.random_element(n, rng)


def test_path_of_unit_algebra_is_contractible():
    PQ = path_of(qq_algebra(), budget=6)
    assert betti_numbers(PQ, 5) == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}


def test_path_preserves_cohomology():
    M = ms2()
    PM = path_of(M, budget=5)
    assert betti_numbers(PM, 5) == betti_numbers(M, 5)


def test_set_differential_drops_the_path_objects():
    """A path object built before d changes reads the new d, as a fresh one does."""
    def lambda_x2_y3():
        return FreeCdga([Generator("x2", 2), Generator("y3", 3)], 6, name="A")

    A = lambda_x2_y3()
    assert betti_numbers(path_of(A, 2), 5) == {0: 1, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1}
    A.set_differential({"y3": A.parse("x2^2")})
    fresh = lambda_x2_y3()
    fresh.set_differential({"y3": fresh.parse("x2^2")})
    assert betti_numbers(path_of(fresh, 2), 5) == {0: 1, 1: 0, 2: 1, 3: 0, 4: 0, 5: 0}
    assert betti_numbers(path_of(A, 2), 5) == betti_numbers(path_of(fresh, 2), 5)


def test_endpoint_evaluations():
    A = k_q2()
    P = path_of(A, budget=4)
    k = keyed(P)
    x = A.generator("e2")
    xt = k.include(x) * k.t()
    assert k.evaluate(xt, 0).is_zero
    assert k.evaluate(xt, 1) == x
    d0, d1, io = delta(P, 0), delta(P, 1), iota(P)
    rng = random.Random(2)
    for _ in range(10):
        y = A.random_element(rng.randint(0, 4), rng)
        assert d0(io(y)) == y and d1(io(y)) == y


def test_symmetry_identities():
    M = ms2()
    P = path_of(M, budget=5)
    k = keyed(P)
    tau = symmetry(P)
    assert tau(k.t()) == k.unit() - k.t()
    assert tau(k.dt()) == -k.dt()
    rng = random.Random(3)
    d0, d1, io = delta(P, 0), delta(P, 1), iota(P)
    for x in randoms(P, rng):
        assert tau(tau(x)) == x
    for n in range(0, 4):
        for b in M.basis(n):
            assert tau(io(b)) == io(b)
            assert d0(tau(io(b) * k.t())) == d1(io(b) * k.t())


def test_coproduct_comonad_laws():
    M = ms2()
    P = path_of(M, budget=4)
    P2 = path_of(P)
    k, k2 = keyed(P), keyed(P2)
    c = coproduct(P)
    assert c(k.t()) == k2.include(k.t()) * k2.t()
    assert c(k.dt()) == k2.include(k.dt()) * k2.t() + k2.include(k.t()) * k2.dt()
    rng = random.Random(4)
    d1_out = delta(P2, 1)
    Pd1 = path_linear_map(delta(P, 1), P2, P)
    P3 = path_of(P2)
    c_P = coproduct(P2)
    Pc = path_linear_map(c, P2, P3)
    for x in randoms(P, rng):
        assert d1_out(c(x)) == x            # counit (outer)
        assert Pd1(c(x)) == x               # counit (inner)
        assert c_P(c(x)) == Pc(c(x))        # coassociativity
    # second face laws: delta^0 side gives the constant-at-left-endpoint square
    d0_out = delta(P2, 0)
    Pd0 = path_linear_map(delta(P, 0), P2, P)
    io = iota(P)
    d0 = delta(P, 0)
    for x in randoms(P, rng, count=10):
        expected = io(d0(x))
        assert d0_out(c(x)) == expected
        assert Pd0(c(x)) == expected
    # c iota = iota_P iota
    for n in range(0, 3):
        for b in M.basis(n):
            assert c(io(b)) == k2.include(io(b))


def test_interchange_identities():
    M = s3()
    P = path_of(M, budget=4)
    P2 = path_of(P)
    mu = interchange(P2)
    rng = random.Random(5)
    d0_out = delta(P2, 0)
    Pd0 = path_linear_map(delta(P, 0), P2, P)
    d1_out = delta(P2, 1)
    Pd1 = path_linear_map(delta(P, 1), P2, P)
    for _ in range(20):
        x = P2.random_element(rng.randint(0, 3), rng)
        assert mu(mu(x)) == x
        assert d0_out(mu(x)) == Pd0(x)
        assert Pd0(mu(x)) == d0_out(x)
        assert d1_out(mu(x)) == Pd1(x)
        assert Pd1(mu(x)) == d1_out(x)


def test_folding_identities():
    M = k_q2()
    P = path_of(M, budget=6)
    P2 = path_of(P)
    nab = folding(P2)
    io_P = iota(P2)
    rng = random.Random(6)
    for x in randoms(P, rng):
        assert nab(io_P(x)) == x            # folding of the constant square
    d0, d1 = delta(P, 0), delta(P, 1)
    d0_out, d1_out = delta(P2, 0), delta(P2, 1)
    for _ in range(10):
        L = P2.random_element(rng.randint(0, 3), rng)
        assert d0(nab(L)) == d0(d0_out(L))
        assert d1(nab(L)) == d1(d1_out(L))


def test_c_hat_identities():
    M = ms2()
    P = path_of(M, budget=4)
    P2 = path_of(P)
    P3 = path_of(P2)
    ch = c_hat(P)
    c = coproduct(P)
    tau = symmetry(P)
    rng = random.Random(7)
    d0_out3 = delta(P3, 0)
    d1_out3 = delta(P3, 1)
    # (i): outer-0 and the middle evaluation both give c
    Pd0_mid = path_linear_map(delta(P2, 0), P3, P2)
    Pd1_mid = path_linear_map(delta(P2, 1), P3, P2)
    PPd0 = path_linear_map(path_linear_map(delta(P, 0), P2, P), P3, P2)
    PPd1 = path_linear_map(path_linear_map(delta(P, 1), P2, P), P3, P2)
    io_P = iota(P2)
    io = iota(P)
    d0 = delta(P, 0)
    tau_out = symmetry(P2)
    Ptau = path_linear_map(tau, P2, P2)
    for x in randoms(P, rng):
        chx = ch(x)
        assert d0_out3(chx) == c(x)                      # (i) outer
        assert Pd0_mid(chx) == c(x)                      # (i) middle
        assert d1_out3(chx) == io_P(x)                   # (ii) outer
        assert Pd1_mid(chx) == io_P(x)                   # (ii) middle
        assert PPd0(chx) == io_P(io(d0(x)))              # (iii)
        assert PPd1(chx) == tau_out(Ptau(c(tau(x))))     # (iv)


def test_verify_homotopy_reflexive_reverse_and_failure():
    M, A, rho = rho_ms2_s2()
    h = constant_homotopy(rho, budget=4)
    assert verify_homotopy(h, rho, rho).ok
    rev = h.reversed()
    assert verify_homotopy(rev, rho, rho).ok
    # failing witness: claim the homotopy connects rho to 0
    zero = FreeMorphism(M, A, {"e2": A.zero(), "e3": A.zero()}, name="0*")
    rep = verify_homotopy(h, rho, zero)
    assert not rep.ok and any(f["check"] == "endpoint-1" for f in rep.failures)


def test_composition_compatibility_of_homotopy():
    # P(w) h u is a homotopy from w f u to w g u whenever h: f ~ g
    M, A, rho = rho_ms2_s2()
    C = FreeCdga([Generator("c2", 2)], N=6, name="C")
    u = FreeMorphism(C, M, {"c2": M.generator("e2")}, name="u")
    h = constant_homotopy(identity_morphism(M), budget=4)
    B, coerce = A, identity_morphism(A)
    PB = path_of(A, 4)
    Pw = path_linear_map(rho, h.path, PB)
    hm = compose(Pw, compose(h.map, u))
    composite = Homotopy(compose(rho, compose(h.f, u)), compose(rho, compose(h.g, u)),
                         hm)
    assert verify_homotopy(composite, composite.f, composite.g).ok


def test_p5_lift_identity_collapse():
    A = ms2()
    P = path_of(A, 4)
    k = keyed(P)
    v = identity_morphism(A)
    bt = k.include(A.generator("e2")) * (k.unit() - k.t()) + \
        k.include(A.generator("e2")) * k.t() * 2
    a0 = k.evaluate(bt, 0)
    a1 = k.evaluate(bt, 1)
    at = p5_lift(v, a0, a1, bt)
    assert at == bt


def test_p5_lift_projection_fixture():
    # v: Lambda(x1, y2) ->> Lambda(x1), y2 -> 0, data (x1, x1, iota(x1))
    A = FreeCdga([Generator("x1", 1), Generator("y2", 2)], N=5, name="big")
    B = FreeCdga([Generator("x1", 1)], N=5, name="small")
    v = FreeMorphism(A, B, {"x1": B.generator("x1"), "y2": B.zero()}, name="v")
    PB = path_of(B, 4)
    kB = keyed(PB)
    bt = kB.include(B.generator("x1"))
    at = p5_lift(v, A.generator("x1"), A.generator("x1"), bt)
    kA = keyed(path_of(A, 4))
    assert kA.evaluate(at, 0) == A.generator("x1")
    assert kA.evaluate(at, 1) == A.generator("x1")
    assert path_linear_map(v, path_of(A, 4), PB)(at) == bt


def test_p5_lift_lands_in_the_path_beside_b_t():
    # a weight-shifted b(t) is lifted into the path of A with the same shift
    A = FreeCdga([Generator("x1", 1), Generator("y2", 2)], N=5, name="big")
    B = FreeCdga([Generator("x1", 1)], N=5, name="small")
    v = FreeMorphism(A, B, {"x1": B.generator("x1"), "y2": B.zero()}, name="v")
    PB, PA = path_of(B, 4, w_shift=1), path_of(A, 4, w_shift=1)
    kB = keyed(PB)
    bt = kB.include(B.generator("x1")) + kB.dt()
    at = p5_lift(v, A.generator("x1"), A.generator("x1"), bt)
    assert at.alg is keyed(PA)
    assert path_linear_map(v, PA, PB)(at) == bt


def test_p5_lift_constant_path_and_random_targets():
    rng = random.Random(9)
    A, B, v = rho_ms2_s2()
    PB = path_of(B, 4)
    kB = keyed(PB)
    PA = path_of(A, 4)
    kA = keyed(PA)
    Pv = path_linear_map(v, PA, PB)
    for _ in range(25):
        n = rng.randint(0, 4)
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


def test_p5_lift_non_surjective_error():
    A = s3()
    B = ms2(N=6)
    inc = FreeMorphism(A, B, {"x3": B.generator("e3")}, name="j")
    PB = path_of(B, 4)
    kB = keyed(PB)
    bt = kB.include(B.generator("e2"))  # degree 2 has no preimage
    with pytest.raises(AlgebraError):
        p5_lift(inc, A.zero(), A.zero(), bt)


def test_mapping_path_of_identity_is_path():
    B = s2_table()
    mp = mapping_path(identity_morphism(B), budget=4)
    P = path_of(B, 4)
    for n in range(0, 5):
        assert mp.space.dim(n) == P.dim(n)
    # q = delta^1 under the identification (a, b(t)) -> b(t)
    for n in range(0, 4):
        for b in mp.space.basis(n):
            assert mp.q(b) == keyed(P).evaluate(mp.component_path(b), 1)


def test_mapping_path_factorization():
    M, A, rho = rho_ms2_s2()
    mp = mapping_path(rho, budget=4)
    # p iota = 1 and q iota = f on generators
    for g in M.gens:
        x = M.generator(g.name)
        assert mp.p(mp.iota(x)) == x
        assert mp.q(mp.iota(x)) == rho(x)
    # contraction homotopy verifies iota p ~ 1
    h = mp.contraction()
    assert verify_homotopy(h, h.f, h.g, upto=4).ok
    # p is a surjective quasi-isomorphism;  rho is a quasi-iso, hence so is q
    for n in range(0, 5):
        assert is_surjective_at(mp.p, n)
    assert is_quasi_iso(mp.p, 4)
    assert is_quasi_iso(mp.q, 4)


def test_mapping_path_q_not_quasi_iso_when_f_is_not():
    A = k_q2()
    M = ms2(N=6)
    inc = FreeMorphism(A, M, {"e2": M.generator("e2")}, name="inc")
    mp = mapping_path(inc, budget=4)
    assert is_quasi_iso(mp.p, 4)
    assert not is_quasi_iso(inc, 4)
    assert not is_quasi_iso(mp.q, 4)


def test_mapping_and_double_paths_into_a_subalgebra_keep_its_constraints():
    from hodgepath import DoublePath
    from hodgepath.paths import induced_to_double_path
    M, A, rho = rho_ms2_s2(5)
    dp = DoublePath(rho, rho, path_of(rho.target, 2))
    v = induced_to_double_path(rho, dp, path_of(M, 2))    # P(M) -> DoublePath(rho)
    mp = mapping_path(v, budget=2)
    dp2 = DoublePath(v, v, path_of(v.target, 2))
    B, PB = dp.space, path_of(dp.space, 2)
    assert mp.PB is PB and dp2.PB is PB
    for n in range(0, 3):
        assert mp.space.dim(n) > 0 and dp2.space.dim(n) > 0
        # the path part of every element is a path in the subalgebra
        # (coords raise AlgebraError outside it), and so are its endpoints
        for b in mp.space.basis(n):
            PB.coords(mp.component_path(b), n)
            B.coords(mp.q(b), n)
            assert mp.q(mp.iota(mp.p(b))) == v(mp.p(b))
        for b in dp2.space.basis(n):
            PB.coords(dp2.parts(b)[2], n)


def test_integrate_values():
    PQ = path_of(qq_algebra(), budget=4)
    kQ = keyed(PQ)
    assert integrate(kQ.dt()) == kQ.base.unit()
    A = FreeCdga([Generator("x1", 1)], N=5)
    P = path_of(A, 4)
    k = keyed(P)
    a = k.include(A.generator("x1"))
    assert integrate(a * k.t() * k.t() * k.t()).is_zero
    got = integrate(a * k.t() * k.dt())
    assert got == A.generator("x1") * Scalar_half_neg()


def Scalar_half_neg():
    from fractions import Fraction
    return Fraction(-1, 2)


def test_stokes_identity_on_homotopies():
    M, A, rho = rho_ms2_s2()
    h = constant_homotopy(rho, budget=4)
    assert stokes_defect(h) == []
    rev = h.reversed()
    assert stokes_defect(rev) == []


def test_structural_map_dispatcher():
    from hodgepath import structural_map
    M = ms2()
    P = path_of(M, budget=4)
    k = keyed(P)
    assert structural_map("symmetry", k.t()) == k.unit() - k.t()
    P2 = path_of(P)
    k2 = keyed(P2)
    assert structural_map("coproduct", k.t()) == k2.include(k.t()) * k2.t()
    assert structural_map("folding", k2.include(k.t()) * k2.t()) == k.t() * k.t()
    sw = structural_map("interchange", k2.include(k.t()))
    assert sw == k2.t()
    with pytest.raises(AlgebraError):
        structural_map("folding", k.t())       # wrong ambient power
    with pytest.raises(AlgebraError):
        structural_map("nonsense", k.t())


def test_budget_overflow_is_loud():
    A = k_q2()
    P = path_of(A, budget=2)
    k = keyed(P)
    t = k.t()
    with pytest.raises(BudgetError):
        (t * t) * t


def test_path_expression_names_resolve_through_the_base():
    """A name the base does not know is an unknown name of the path expression,
    whether the base parses it (a free or a nested path algebra) or has no
    parser (a product, the ambient of a mapping path)."""
    from hodgepath import ProductCdga
    from hodgepath.exprs import ExprError
    M = ms2()
    for P in (path_of(M, budget=3), path_of(path_of(M, budget=3), budget=3),
              path_of(ProductCdga([M, s3()]), budget=3)):
        k = keyed(P)
        assert k.parse(f"{k.var}*d{k.var}") == k.t() * k.dt()
        with pytest.raises(ExprError, match="unknown name 'q9'"):
            k.parse(f"{k.var} + q9")
    P = path_of(M, budget=3)
    assert P.parse("e2 + t*dt") == P.include(M.generator("e2")) + P.t() * P.dt()
    nested = path_of(P, budget=3)
    assert nested.parse("e2*s") == nested.include(P.include(M.generator("e2"))) * nested.t()

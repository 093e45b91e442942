"""Obstruction-theoretic lifting: free lifts, homotopy lifting, addition."""

import random

import pytest

from helpers import k_q2, ms2, rho_ms2_s2, s2_table, s3
from hodgepath import (FreeCdga, FreeMorphism, Generator, Homotopy,
                       LiftObstruction, compose, constant_homotopy, delta,
                       fill_square, free_lift, homotopy_add, identity_morphism,
                       iota, keyed, lift_homotopy, mapping_path, path_linear_map,
                       path_of, verify_homotopy)
from hodgepath.lifting import boundary_square_target


def test_free_lift_through_identity():
    M, A, rho = rho_ms2_s2()
    g = free_lift(M, identity_morphism(A), rho)
    for gen in M.gens:
        assert g(M.generator(gen.name)) == rho(M.generator(gen.name))


def test_free_lift_through_endpoint_projection():
    # delta^0: P(B) -> B is a trivial fibration; lifts exist for free sources
    B = ms2(N=7)
    P = path_of(B, budget=4)
    d0 = delta(P, 0)
    C = FreeCdga([Generator("c2", 2), Generator("c3", 3)], N=7, name="C")
    C.set_differential({"c3": C.parse("c2^2")})
    f = FreeMorphism(C, B, {"c2": B.generator("e2"), "c3": B.generator("e3")},
                     name="f")
    g = free_lift(C, d0, f)
    for gen in C.gens:
        x = C.generator(gen.name)
        assert d0(g(x)) == f(x)
        assert g(x.d()) == g(x).d()


def test_free_lift_obstruction_reported():
    # v: (u1 -> w2 acyclic pair) onto Lambda(x1): not a quasi-isomorphism,
    # and the canceling primitive is not in ker(v): obstruction at c1.
    X = FreeCdga([Generator("u1", 1), Generator("w2", 2)], N=5, name="X")
    X.set_differential({"u1": X.generator("w2")})
    Y = FreeCdga([Generator("x1", 1)], N=5, name="Y")
    v = FreeMorphism(X, Y, {"u1": Y.generator("x1"), "w2": Y.zero()}, name="v")
    C = FreeCdga([Generator("c1", 1)], N=5, name="C")
    f = FreeMorphism(C, Y, {"c1": Y.generator("x1")}, name="f")
    with pytest.raises(LiftObstruction) as ei:
        free_lift(C, v, f)
    assert ei.value.generator == "c1"


def test_free_lift_surjectivity_obstruction():
    A = s3()
    B = ms2(N=6)
    inc = FreeMorphism(A, B, {"x3": B.generator("e3")}, name="inc")
    C = k_q2()
    f = FreeMorphism(C, B, {"e2": B.generator("e2")}, name="f")
    with pytest.raises(LiftObstruction) as ei:
        free_lift(C, inc, f)
    assert "surjective" in ei.value.reason


def test_lift_homotopy_through_identity_is_itself():
    M, A, rho = rho_ms2_s2()
    h = constant_homotopy(rho, budget=4)
    lifted = lift_homotopy(M, identity_morphism(A), rho, rho, h)
    for gen in M.gens:
        assert lifted.map(M.generator(gen.name)) == h.map(M.generator(gen.name))


def _circle_pair(N=5, budget=5):
    """C = Lambda(c1), B = Lambda(b1): targets with room for real homotopies."""
    C = FreeCdga([Generator("c1", 1)], N, name="C")
    B = FreeCdga([Generator("b1", 1)], N, name="B")
    return C, B


def test_lift_homotopy_through_endpoint_projection():
    C, B = _circle_pair()
    P = path_of(B, budget=5)
    kP = keyed(P)
    d0 = delta(P, 0)
    wiggle = kP.t() * kP.dt() - kP.t() * kP.t() * kP.dt()
    f0 = FreeMorphism(C, kP, {"c1": kP.include(B.generator("b1"))}, name="f0")
    f1 = FreeMorphism(C, kP, {"c1": kP.include(B.generator("b1")) + wiggle},
                      name="f1")
    vf0 = compose(d0, f0)
    vf1 = compose(d0, f1)
    h = Homotopy(vf0, vf1, constant_homotopy(vf0, budget=5).map)
    lifted = lift_homotopy(C, d0, f0, f1, h)
    assert verify_homotopy(lifted, f0, f1, upto=4).ok
    # exactness of the projection: P(v) h~ = h
    P2 = path_of(kP, 5)
    Pd0 = path_linear_map(d0, P2, path_of(B, 5))
    for n in range(0, 4):
        for b in C.basis(n):
            assert Pd0(lifted.map(b)) == h.map(b)


def test_lift_homotopy_even_source_through_endpoint_projection():
    # C = Lambda(e2), v = delta^0 : P(B) -> B (a trivial fibration), any
    # homotopy between the projected maps lifts
    B = FreeCdga([Generator("b1", 1)], N=5, name="B")
    P = path_of(B, budget=10)
    kP = keyed(P)
    C = FreeCdga([Generator("e2", 2)], N=5, name="C")
    d0 = delta(P, 0)
    z = kP.include(B.generator("b1"))
    f0 = FreeMorphism(C, kP, {"e2": z * (kP.t() * kP.dt())}, name="f0")
    f1 = FreeMorphism(C, kP, {"e2": z * (kP.t() * kP.t() * kP.dt())}, name="f1")
    vf0 = compose(d0, f0)   # both project to the zero map
    h = Homotopy(vf0, compose(d0, f1), constant_homotopy(vf0, budget=10).map)
    lifted = lift_homotopy(C, d0, f0, f1, h)
    assert verify_homotopy(lifted, f0, f1, upto=4).ok


def test_lift_homotopy_obstruction_under_non_acyclic_map():
    # v: X ->> Y is surjective but ker(v) has the nonzero class [w2]; the
    # homotopy from 0 to (c2 |-> w2) over a constant projected homotopy would
    # need a primitive of w2 inside ker(v), so the lift must report c2.
    X = FreeCdga([Generator("u1", 1), Generator("w2", 2)], N=5, name="X")
    X.set_differential({"u1": X.generator("w2")})
    Y = FreeCdga([Generator("x1", 1)], N=5, name="Y")
    v = FreeMorphism(X, Y, {"u1": Y.generator("x1"), "w2": Y.zero()}, name="v")
    C = FreeCdga([Generator("c2", 2)], N=5, name="C")
    f0 = FreeMorphism(C, X, {"c2": X.zero()}, name="0")
    f1 = FreeMorphism(C, X, {"c2": X.generator("w2")}, name="w")
    h = constant_homotopy(compose(v, f0), budget=4)
    h = Homotopy(compose(v, f0), compose(v, f1), h.map)  # both project to zero
    with pytest.raises(LiftObstruction) as ei:
        lift_homotopy(C, v, f0, f1, h)
    assert ei.value.generator == "c2"


def test_homotopy_add_endpoints_and_constant():
    M, A, rho = rho_ms2_s2()
    h = constant_homotopy(rho, budget=4)
    total = homotopy_add(h, h)
    assert verify_homotopy(total, rho, rho, upto=5).ok

    # genuinely non-constant loop homotopy: id ~ id via b1 + (t - t^2) dt
    C, B = _circle_pair()
    P = path_of(B, 5)
    k = keyed(P)
    hmap = FreeMorphism(C, k,
                        {"c1": k.include(B.generator("b1"))
                         + k.t() * k.dt() - k.t() * k.t() * k.dt()}, name="h'")
    f = compose(delta(P, 0), hmap)
    g = compose(delta(P, 1), hmap)
    hh = Homotopy(f, g, hmap)
    assert verify_homotopy(hh, f, g, upto=4).ok
    total2 = homotopy_add(hh, hh.reversed())
    assert verify_homotopy(total2, f, f, upto=4).ok


def test_fill_square_with_prescribed_boundary():
    C, B = _circle_pair()
    PB = path_of(B, 5)
    k = keyed(PB)
    h1 = FreeMorphism(C, k,
                      {"c1": k.include(B.generator("b1"))
                       + k.t() * k.dt() - k.t() * k.t() * k.dt()}, name="h1")
    ends = compose(delta(PB, 0), h1)
    sq = fill_square(C, PB, h1, h1,
                     compose(iota(PB), ends), compose(iota(PB), ends))
    P2 = path_of(PB, 5)
    k2 = keyed(P2)
    Pd0 = path_linear_map(delta(PB, 0), P2, PB)
    Pd1 = path_linear_map(delta(PB, 1), P2, PB)
    for n in range(0, 4):
        for b in C.basis(n):
            L = sq(b)
            assert Pd0(L) == h1(b)
            assert Pd1(L) == h1(b)
            assert k2.evaluate(L, 0) == iota(PB)(ends(b))
            assert k2.evaluate(L, 1) == iota(PB)(ends(b))


def test_square_boundary_of_a_subalgebra_path_keeps_its_constraints():
    # PB = P(B) for B = MappingPath(rho), a subalgebra: each of T's four
    # faces must lie in PB, not only in PB's keyed ambient
    M, A, rho = rho_ms2_s2(5)
    mp = mapping_path(rho, budget=2)
    PB = path_of(mp.space, 2)
    T, _, amb = boundary_square_target(PB)
    assert T.dim(0) < 32
    for n in range(0, 3):
        for x in T.basis(n):
            for face in range(4):
                PB.coords(amb.project(face, x), n)   # raises outside PB
    # a constant square still fills
    h = compose(iota(PB), mp.iota)
    sq = fill_square(M, PB, h, h, h, h)
    P2 = path_of(PB, 2)
    k2 = keyed(P2)
    Pd0 = path_linear_map(delta(PB, 0), P2, PB)
    Pd1 = path_linear_map(delta(PB, 1), P2, PB)
    for n in range(0, 4):
        for b in M.basis(n):
            L = sq(b)
            assert Pd0(L) == Pd1(L) == h(b)
            assert k2.evaluate(L, 0) == k2.evaluate(L, 1) == h(b)

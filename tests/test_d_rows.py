"""`d_rows(n)`, the one matrix of d per space and degree, as its callers share it.

Every question asked of a differential (cohomology, the lifting correction,
the cone's ranks, minimal_model's killers, filtered pages) reads a space's
`d_rows`, built once per degree and kept on the space.  So the rows must
follow a change of differential, must come out of every caller as they went
in, and one `minimal_model` call must build A's rows at most once per
degree.  That the rows equal fresh coordinates of d is checked in
`test_filtered_cache.py`.
"""

import copy
import random

from helpers import acyclic_table, ms2
from hodgepath import (FreeCdga, FreeMorphism, Generator, SubCdga, cohomology, delta,
                       free_lift, minimal_model, path_of)
from hodgepath.algebra import GradedAlgebra


def non_minimal_s2(N=6):
    """Lambda(x2, u3, w4, y3), d u3 = w4, d y3 = x2^2: S^2 with an acyclic pair."""
    A = FreeCdga([Generator("x2", 2), Generator("u3", 3), Generator("w4", 4),
                  Generator("y3", 3)], N, name="A")
    A.set_differential({"u3": A.generator("w4"), "y3": A.parse("x2^2")})
    return A


def all_rows(X, top):
    return {n: X.d_rows(n) for n in range(-1, top + 1)}


def test_set_differential_drops_the_rows():
    A = FreeCdga([Generator("x2", 2), Generator("y3", 3)], 6, name="A")
    assert A.d_rows(3) == [{}]
    A.set_differential({"y3": A.parse("x2^2")})
    assert A.d_rows(3) == [A.coords(A.generator("y3").d(), 4)] != [{}]
    A.set_differential({"y3": A.parse("x2^2") * 2})
    assert A.d_rows(3) == [A.coords(A.parse("x2^2") * 2, 4)]


def test_adjoin_carries_no_rows():
    A = FreeCdga([Generator("x2", 2)], 6, name="A")
    assert A.d_rows(2) == [{}]
    B = A.adjoin([Generator("y3", 3)], {"y3": A.parse("x2^2").terms})
    assert B.d_rows(3) == [B.coords(B.parse("x2^2"), 4)]
    assert B.d_rows(2) == [{}] and len(B.d_rows(1)) == 0


def test_cohomology_leaves_the_rows_unchanged():
    B = ms2(N=6)
    P = path_of(B, budget=3)
    S = SubCdga(P, [delta(P, 0)], name="ker delta0")
    for X in (non_minimal_s2(), acyclic_table(), P, S):
        rows = all_rows(X, X.N)
        before = copy.deepcopy(rows)
        for n in range(0, X.N + 1):
            cohomology(X, n, strict=False)
        assert all_rows(X, X.N) == before
        assert all(X.d_rows(n) is rows[n] for n in rows)


def test_free_lift_leaves_the_rows_unchanged():
    # v: X -> Y kills the acyclic pair (u3, w4); lifting c3 needs the
    # correction -u3, solved over X.d_rows(3)
    X = FreeCdga([Generator("x2", 2), Generator("y3", 3), Generator("u3", 3),
                  Generator("w4", 4)], 6, name="X")
    X.set_differential({"y3": X.parse("x2^2 + w4"), "u3": X.generator("w4")})
    Y = FreeCdga([Generator("x2", 2), Generator("y3", 3)], 6, name="Y")
    Y.set_differential({"y3": Y.parse("x2^2")})
    v = FreeMorphism(X, Y, {"x2": Y.generator("x2"), "y3": Y.generator("y3"),
                            "u3": Y.zero(), "w4": Y.zero()}, name="v")
    C = FreeCdga([Generator("c2", 2), Generator("c3", 3)], 6, name="C")
    C.set_differential({"c3": C.parse("c2^2")})
    f = FreeMorphism(C, Y, {"c2": Y.generator("x2"), "c3": Y.generator("y3")}, name="f")
    rows = all_rows(X, X.N)
    before = copy.deepcopy(rows)
    g = free_lift(C, v, f)
    assert [entry["correction"] for entry in g.lift_log] == [False, True]
    assert g(C.generator("c3")) == X.parse("y3 - u3")
    assert all_rows(X, X.N) == before
    assert all(X.d_rows(n) is rows[n] for n in rows)


def test_minimal_model_leaves_the_rows_unchanged():
    A = non_minimal_s2()
    rows = all_rows(A, A.N)
    before = copy.deepcopy(rows)
    mm = minimal_model(A, rng=random.Random(3))
    assert [g.name for g in mm.M.gens if g.degree == 2] == ["v2_00"]
    assert all_rows(A, A.N) == before
    assert all(A.d_rows(n) is rows[n] for n in rows)


def test_one_minimal_model_call_builds_the_rows_of_a_once_per_degree(monkeypatch):
    built = []
    d_rows = GradedAlgebra.d_rows

    def spy(self, n):
        if self is A and n not in (self._d_rows_cache or {}):
            built.append(n)
        return d_rows(self, n)

    monkeypatch.setattr(GradedAlgebra, "d_rows", spy)
    A = non_minimal_s2()
    minimal_model(A)
    assert len(built) == len(set(built))
    # the killers and the cone read every degree below the horizon
    assert set(range(2, A.N)) <= set(built)

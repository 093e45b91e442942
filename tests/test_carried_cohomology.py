"""H^{n+1}(M) carried through the relative Sullivan extensions of minimal_model.

Every group that `Cohomology.with_boundaries` carries is compared with the
same group computed afresh on the grown model: its dimension, the exact
terms of every representative, and the class coordinates of seeded random
cocycles.  The inputs are the model_sweep shapes of the benchmark and
S2 x S2 x S2 in random bases, over Q and over Q(sqrt -3).  A model with a
degree-1 generator must fall back to a fresh computation, because there a
new generator of degree n times a degree-1 one is a new cochain of degree
n + 1.
"""

import random
from fractions import Fraction

import pytest

from helpers import MODEL_SHAPES, random_basis_table
from hodgepath import (Scalar, TableBasisElement, TableCdga, extend_scalars, homology,
                       minimal_model, sullivan)
from hodgepath.algebra import FreeCdga


def _s2xs2xs2():
    """H(S2 x S2 x S2): its carried groups keep the classes ab, ac, bc and abc."""
    basis = [("one", 0), ("a", 2), ("b", 2), ("c", 2), ("ab", 4), ("ac", 4), ("bc", 4),
             ("abc", 6)]
    one = Fraction(1)
    products = {("a", "b"): {"ab": one}, ("a", "c"): {"ac": one}, ("b", "c"): {"bc": one},
                ("a", "bc"): {"abc": one}, ("b", "ac"): {"abc": one},
                ("c", "ab"): {"abc": one}}
    return basis, products, 8


SHAPES = {**MODEL_SHAPES, "s2xs2xs2": _s2xs2xs2()}
# shapes whose carried groups are not all zero
NON_ZERO = ("s2xs2", "s2xs2xs2")


def _random_scalar(F, rng):
    c = F.scalar(rng.randint(-3, 3))
    if not F.is_rational:
        c = c + F.sqrt_d() * rng.randint(-2, 2)
    return c


def _random_cocycle(H, rng):
    """A seeded combination of H's reps plus the boundary of a random cochain."""
    Y, n = H.X, H.n
    z = Y.random_element(n - 1, rng, density=0.5).d()
    for rep in H.reps:
        z = z + rep * _random_scalar(Y.field, rng)
    return z


def _checked_carry(monkeypatch, seen):
    """Patch with_boundaries to compare each carried group with a fresh one."""
    carry = homology.Cohomology.with_boundaries

    def checked(self, Y, boundaries):
        got = carry(self, Y, boundaries)
        want = homology.cohomology(Y, self.n, strict=False)
        assert got.X is Y and got.n == want.n
        assert got.dim == want.dim
        assert [r.alg for r in got.reps] == [Y] * got.dim
        assert [r.terms for r in got.reps] == [r.terms for r in want.reps]
        rng = random.Random(len(seen))
        for _ in range(3):
            z = _random_cocycle(want, rng)
            assert got.cls(z) == want.cls(z)
        seen.append((self.n, len(boundaries), got.dim))
        return got

    monkeypatch.setattr(homology.Cohomology, "with_boundaries", checked)


@pytest.mark.parametrize("field", ["Q", "Q(sqrt -3)"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_carried_groups_equal_fresh_ones(shape, field, monkeypatch):
    rng = random.Random(f"carry:{shape}")
    basis, products, N = SHAPES[shape]
    A = random_basis_table(shape, basis, products, N, rng)
    if field != "Q":
        A, _ = extend_scalars(A, -3)
    seen = []
    _checked_carry(monkeypatch, seen)
    model = minimal_model(A, N, rng=random.Random(rng.randrange(2 ** 32)))
    assert all(r["iso"] for n, r in model.certificate.items() if n < N)
    assert seen, "no group was carried"
    assert any(b for _, b, _ in seen)
    assert any(dim for _, _, dim in seen) == (shape in NON_ZERO)


def _s1_times_s2(N):
    """H(S1 x S2): its model has a degree-1 generator x and a killer of y^2 in degree 3."""
    return TableCdga([TableBasisElement(nm, d) for nm, d in
                      [("one", 0), ("x1", 1), ("y2", 2), ("xy3", 3)]], N, unit="one",
                     name="H(S1xS2)", products={("x1", "y2"): {"xy3": Scalar(1)}})


def test_degree_one_generators_fall_back_to_fresh_groups(monkeypatch):
    seen = []
    _checked_carry(monkeypatch, seen)
    fresh = []
    compute = sullivan.fresh_cohomology

    def counting(X, n):
        if isinstance(X, FreeCdga):
            fresh.append((X, n))
        return compute(X, n)

    monkeypatch.setattr(sullivan, "fresh_cohomology", counting)
    model = minimal_model(_s1_times_s2(6), 6, allow_0_connected=True)
    assert all(r["iso"] for n, r in model.certificate.items() if n < 6)
    assert model.M.gens[0].degree == 1
    assert seen == []
    # the killer of y^2 is a degree-3 generator; x times it is a new degree-4
    # cochain, and H^4 of the grown model was computed afresh
    grown = [X for X, n in fresh if n == 4
             and any(g.degree == 3 and not X.differential_of(g.name).is_zero
                     for g in X.gens)]
    assert grown

"""Differential tests of the cohomology of keyed algebras.

`cohomology` builds the d-matrices of a keyed algebra (a GradedAlgebra) from
the cached `d_key` of each basis key, block by block.  The reference is the
same algebra seen through `SubCdga` with no constraints: a space with the
same basis whose cohomology still goes through `Element.d` and `coords`.
Both must give the same dimension in every degree, the same representatives
on unblocked algebras (an invertible change of basis on blocked ones), and
the same class coordinates.  Seeded random cocycles are built from the
representatives with known coefficients, so `cls` is also checked against
those coefficients, independently of the elimination kernel.  Coefficients
are drawn as dense lists and converted at this file's boundary (`row_of`,
`dense_of`).
"""

import random
from fractions import Fraction

import pytest

from helpers import *  # noqa: F401,F403  (path setup)
from hodgepath import linalg
from hodgepath.algebra import (AlgebraError, FreeCdga, Generator, SubCdga,
                               TableBasisElement, TableCdga, combination)
from hodgepath.homology import cohomology
from hodgepath.paths import keyed, path_of
from hodgepath.scalars import Field, Scalar


def wedge_s2_s3(N=6):
    """H(S2 v S3) as a table; degree 1 has an empty basis."""
    return TableCdga([TableBasisElement("one", 0), TableBasisElement("x2", 2),
                      TableBasisElement("y3", 3)], N, unit="one", name="H(S2vS3)")


def truncated_cp3(rng, N=7):
    """H(CP3) in the basis x_2j = s_j c^j with random non-zero scales s_j."""
    s = {0: Fraction(1)}
    for j in (1, 2, 3):
        s[j] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
    products = {(f"x{2 * i}", f"x{2 * j}"): {f"x{2 * (i + j)}": s[i] * s[j] / s[i + j]}
                for i in (1, 2, 3) for j in (1, 2, 3) if i <= j and i + j <= 3}
    basis = [TableBasisElement("one", 0)] + [TableBasisElement(f"x{2 * j}", 2 * j)
                                             for j in (1, 2, 3)]
    return TableCdga(basis, N, unit="one", products=products, name="CP3")


def free_with_differential(N=8):
    """Λ(x2, y2, u3, v3) with d u3 = x2^2 and d v3 = x2 y2."""
    A = FreeCdga([Generator("x2", 2), Generator("y2", 2), Generator("u3", 3),
                  Generator("v3", 3)], N, name="F")
    A.set_differential({"u3": A.parse("x2^2"), "v3": A.parse("x2*y2")})
    return A


def gaussian_table(N=6):
    """A table over Q(sqrt -1) shaped like the middle vertex of a CP^2 mixed Hodge
    diagram (one, x2, x4 with x2^2 = 3 x4), plus u3 with d u3 = v4 + i x4."""
    QI = Field(-1)
    basis = [TableBasisElement("one", 0, weight=0), TableBasisElement("x2", 2, weight=0),
             TableBasisElement("u3", 3, weight=0), TableBasisElement("v4", 4, weight=0),
             TableBasisElement("x4", 4, weight=0)]
    return TableCdga(basis, N, field=QI, unit="one",
                     products={("x2", "x2"): {"x4": 3}},
                     differentials={"u3": {"v4": 1, "x4": Scalar(0, 1, -1)}},
                     name="Amid+")


def path_algebra():
    return keyed(path_of(FreeCdga([Generator("b1", 1)], 5), budget=3))


INPUTS = {
    "s2_wedge_s3": lambda rng: wedge_s2_s3(),
    "truncated_cp3": truncated_cp3,
    "free_with_d": lambda rng: free_with_differential(),
    "gaussian_table": lambda rng: gaussian_table(),
    "path_algebra": lambda rng: path_algebra(),
}


def _coefficient(field, rng):
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if not field.is_rational else 0
    return field.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), im)


def _blocked(X, n):
    return any(X.key_block(k) != 0 for k in X.basis_keys(n))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_keyed_cohomology_matches_coords_path(name):
    rng = random.Random(f"keyed:{name}")
    X = INPUTS[name](rng)
    S = SubCdga(X, [], name=f"Sub({name})")
    degrees = range(0, X.N)
    Hk = {n: cohomology(X, n) for n in degrees}
    Hs = {n: cohomology(S, n) for n in degrees}
    assert any(not X.basis_keys(n) for n in degrees), "no degree with an empty basis"
    assert sum(H.dim for H in Hk.values()) > 1
    for n in degrees:
        hk, hs = Hk[n], Hs[n]
        assert hk.dim == hs.dim == len(hk.reps) == len(hs.reps)
        for rep in hk.reps:
            assert rep.alg is X and rep.d().is_zero
        if not _blocked(X, n):
            assert [list(r.terms.items()) for r in hk.reps] == \
                [list(r.terms.items()) for r in hs.reps]
        # the reference's coordinates of the keyed representatives
        change = [hs.cls(rep) for rep in hk.reps]
        assert linalg.is_isomorphism(change, hk.dim, hs.dim)
        for i, rep in enumerate(hk.reps):
            assert hk.cls(rep) == {i: Fraction(1)}
        for _ in range(4):
            coeffs = [_coefficient(X.field, rng) for _ in hk.reps]
            x = combination(X, row_of(coeffs), hk.reps)
            if n >= 1:
                x = x + X.random_element(n - 1, rng).d()
            assert x.d().is_zero
            assert dense_of(hk.cls(x), hk.dim) == coeffs
            want = [Scalar(0)] * hs.dim
            for c, row in zip(coeffs, change):
                want = [a + c * b for a, b in zip(want, dense_of(row, hs.dim))]
            assert dense_of(hs.cls(x), hs.dim) == want


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_cls_refuses_keys_outside_its_degree(name):
    rng = random.Random(f"stray:{name}")
    X = INPUTS[name](rng)
    S = SubCdga(X, [])
    top = max(n for n in range(X.N) if cohomology(X, n).dim)
    assert top > 0
    far = cohomology(X, top).reps[0]          # closed, of degree top
    for n in range(0, X.N):
        H = cohomology(X, n)
        stray = X.unit() if n else far
        x = combination(X, row_of([_coefficient(X.field, rng) for _ in H.reps]), H.reps)
        for space_H in (H, cohomology(S, n)):
            with pytest.raises(AlgebraError):
                space_H.cls(x + stray)
        if not X.basis_keys(n):
            assert H.cls(X.zero()) == {}


def test_path_algebra_cls_is_strict_in_degrees_zero_and_one():
    A = FreeCdga([Generator("b1", 1)], 5)
    k = keyed(path_of(A, budget=3))
    x = k.include(A.generator("b1")) + k.unit()
    assert x.d().is_zero
    for n in (0, 1):
        with pytest.raises(AlgebraError):
            cohomology(k, n).cls(x)

"""The cdga kernel: canonical forms, differentials, cohomology, Q(A), checks."""

import random

import pytest

from helpers import (acyclic_table, k_q2, ms2, qq_algebra, s2_table, s3,
                     two_torus_like)
from hodgepath import (AlgebraError, CutoffError, FreeCdga, FreeMorphism,
                       Generator, TableBasisElement, TableCdga, betti_numbers,
                       check_cdga, cohomology, differentiate, euler_characteristic,
                       extend_scalars, indecomposables, normalize)
from hodgepath.scalars import Scalar


def test_odd_square_is_zero():
    T = two_torus_like()
    x = T.generator("x1")
    assert (x * x).is_zero
    assert normalize([(1, ["x1", "x1"])], T).is_zero


def test_koszul_sign_swap():
    T = two_torus_like()
    assert T.generator("y1") * T.generator("x1") == \
        (T.generator("x1") * T.generator("y1")) * (-1)


def test_merge_equal_monomials():
    A = k_q2()
    e = A.generator("e2")
    assert (e * e) * 2 + (e * e) * 3 == (e * e) * 5
    assert normalize([(2, ["e2", "e2"]), (3, ["e2", "e2"])], A) == (e * e) * 5


def test_normalize_idempotent_random():
    rng = random.Random(5)
    M = ms2()
    for n in range(0, 6):
        x = M.random_element(n, rng)
        # element arithmetic is already canonical: rebuilding changes nothing
        rebuilt = M.element(dict(x.terms))
        assert rebuilt == x


def test_multiplication_associative_graded_commutative():
    rng = random.Random(7)
    M = ms2()
    for _ in range(20):
        n1, n2, n3 = (rng.randint(1, 3) for _ in range(3))
        x, y, z = (M.random_element(n, rng) for n in (n1, n2, n3))
        assert (x * y) * z == x * (y * z)
        sign = -1 if (n1 * n2) % 2 else 1
        assert x * y == (y * x) * sign


def test_differentiate_examples():
    M = ms2()
    assert M.differential_of("e3") == M.parse("e2^2")
    assert M.unit().d().is_zero
    assert (M.generator("e2") * M.generator("e3")).d() == M.parse("e2^3")
    with pytest.raises(CutoffError):
        differentiate(M.parse("e2^2") * M.parse("e2^2"), M)  # degree 8 > N-1


def test_leibniz_and_d_squared_on_random_free_algebras():
    rng = random.Random(11)
    A = FreeCdga([Generator("x2", 2), Generator("y3", 3), Generator("z5", 5)],
                 N=8, name="rand")
    A.set_differential({"y3": A.parse("x2^2"), "z5": A.parse("x2^3")})
    for _ in range(15):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        x, y = A.random_element(n1, rng), A.random_element(n2, rng)
        assert (x * y).d() == x.d() * y + (x * y.d()) * (-1 if n1 % 2 else 1)
        assert x.d().d().is_zero


def test_cohomology_s2_table():
    A = s2_table()
    assert cohomology(A, 2).dim == 1
    assert betti_numbers(A, 5) == {0: 1, 1: 0, 2: 1, 3: 0, 4: 0, 5: 0}


def test_cohomology_ms2_vanishes_above_two():
    M = ms2(N=7)
    assert betti_numbers(M, 6) == {0: 1, 1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0}


def test_cohomology_cutoff_error():
    A = s2_table(N=4)
    with pytest.raises(CutoffError):
        cohomology(A, 4)


def test_indecomposables_free():
    M = ms2()
    Q = indecomposables(M)
    assert Q.dims() == {2: 1, 3: 1}
    assert not any(any(rows) for rows in Q.dmats.values())   # the induced d is zero
    assert qq_algebra().gens == []
    assert indecomposables(qq_algebra()).dims() == {}
    T = two_torus_like()
    assert indecomposables(T).dims() == {1: 2}


def test_indecomposables_table():
    A = s2_table()
    Q = indecomposables(A)
    assert Q.dims() == {2: 1}
    # x2^2 = 0 in the table, so nothing is decomposable below degree 5


def test_check_cdga_pass_and_failures():
    assert check_cdga(ms2()).ok
    assert check_cdga(s2_table()).ok
    assert check_cdga(acyclic_table()).ok

    # degree mismatch witness
    bad = FreeCdga([Generator("e2", 2), Generator("e3", 3)], N=6)
    with pytest.raises(AlgebraError):
        bad.set_differential({"e3": bad.generator("e2")})

    # non-associative table with a triple witness
    T = TableCdga([TableBasisElement("one", 0), TableBasisElement("a", 1),
                   TableBasisElement("b", 2), TableBasisElement("c", 3)],
                  N=6, unit="one",
                  products={("a", "a"): {}, ("a", "b"): {"c": Scalar(1)},
                            ("b", "b"): {}, ("b", "c"): {}, ("a", "c"): {},
                            ("c", "c"): {}})
    # make it non-associative by brute force: (a a) b = 0 but a (a b) = a c = x
    T2 = TableCdga([TableBasisElement("one", 0), TableBasisElement("a", 1),
                    TableBasisElement("b", 2), TableBasisElement("c", 3),
                    TableBasisElement("x", 4)],
                   N=6, unit="one",
                   products={("a", "b"): {"c": Scalar(1)},
                             ("a", "c"): {"x": Scalar(1)}})
    rep = check_cdga(T2)
    assert not rep.ok
    assert any(f["check"] == "associativity" for f in rep.failures)


def test_euler_characteristic_matches_cohomology():
    for A in (s2_table(), acyclic_table()):
        chi = euler_characteristic(A)
        coh = sum((-1) ** n * cohomology(A, n).dim for n in range(0, A.N))
        # top-degree cohomology is outside the horizon; these fixtures vanish there
        assert chi == coh


def test_generator_rules():
    with pytest.raises(AlgebraError):
        FreeCdga([Generator("t", 1)], N=3)  # reserved name
    with pytest.raises(AlgebraError):
        FreeCdga([Generator("x0", 0)], N=3)  # degree-0 generator
    with pytest.raises(AlgebraError):
        FreeCdga([Generator("a", 1), Generator("a", 2)], N=3)


def test_extend_scalars_roundtrip():
    A = s2_table()
    B, coerce = extend_scalars(A, -1)
    assert not B.field.is_rational
    x = A.basis_element("x2")
    assert coerce(x).terms == x.terms
    assert check_cdga(B).ok


def test_unknown_generator_error():
    M = ms2()
    with pytest.raises(Exception):
        M.parse("nope")

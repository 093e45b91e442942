"""Independent oracles for the sign conventions.

The merge-based Koszul product, the free differential and the path
differential carry every other computation, so they are checked here against
slow reference implementations (explicit adjacent transpositions; term-by-term
Leibniz; products that multiply every coefficient), and the structural path
maps are checked to be algebra morphisms, not just linear identities.
"""

import itertools
import random

from helpers import ms2
from hodgepath import (Field, FreeCdga, Generator, TableBasisElement, TableCdga,
                       coproduct, coproduct_prime, folding, interchange, keyed,
                       path_of, symmetry)
from hodgepath.scalars import Scalar


def reference_product(A, k1, k2):
    """Sort the concatenated factor sequence by adjacent swaps, counting signs."""
    seq = []
    for gi, e in k1 + k2:
        seq.extend([gi] * e)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                d1 = A.gens[seq[i]].degree
                d2 = A.gens[seq[i + 1]].degree
                if (d1 * d2) % 2:
                    sign = -sign
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                changed = True
    key = []
    for gi in seq:
        if key and key[-1][0] == gi:
            key[-1][1] += 1
        else:
            key.append([gi, 1])
    for gi, e in key:
        if A.gens[gi].degree % 2 and e > 1:
            return {}, 1
    return {tuple((gi, e) for gi, e in key): A.field.scalar(sign)}, sign


def test_free_product_against_transposition_oracle():
    A = FreeCdga([Generator("a1", 1), Generator("b1", 1), Generator("c2", 2),
                  Generator("d3", 3), Generator("e3", 3)], N=12, name="mixed")
    rng = random.Random(99)
    keys = []
    for n in range(1, 7):
        keys.extend(A.basis_keys(n))
    for _ in range(300):
        k1 = rng.choice(keys)
        k2 = rng.choice(keys)
        got = A.mul_keys(k1, k2)
        want, _ = reference_product(A, k1, k2)
        assert got == want, (k1, k2)


def test_free_product_oracle_on_repeated_even_factors_and_odd_squares():
    """Every pair of keys up to degree 6: merged even exponents, odd squares
    (zero), and signs that are the field's shared one() and minus_one()."""
    F = Field(-3)
    A = FreeCdga([Generator("a1", 1), Generator("c2", 2), Generator("f2", 2),
                  Generator("d3", 3), Generator("e3", 3)], N=12, field=F, name="mixed")
    keys = [k for n in range(7) for k in A.basis_keys(n)]
    seen = {"even-merge": 0, "odd-square": 0, "minus": 0}
    for k1, k2 in itertools.product(keys, keys):
        got = A.mul_keys(k1, k2)
        want, sign = reference_product(A, k1, k2)
        assert got == want, (k1, k2)
        shared = {i for i, _ in k1} & {i for i, _ in k2}
        if not want:
            assert any(A.gens[i].degree % 2 for i in shared)
            seen["odd-square"] += 1
            continue
        (c,) = got.values()
        assert c is (F.one() if sign == 1 else F.minus_one())
        seen["even-merge"] += bool(shared)
        seen["minus"] += sign == -1
    assert all(seen.values()), seen


def _free_mixed():
    """Mixed parities over Q(sqrt -3); differentials with sqrt(d), non-unit
    and +-1 coefficients and repeated even generators."""
    A = FreeCdga([Generator("a2", 2), Generator("b2", 2), Generator("c3", 3),
                  Generator("e3", 3), Generator("f4", 4), Generator("g5", 5)],
                 N=11, field=Field(-3), name="mixed")
    A.set_differential({nm: A.parse(expr) for nm, expr in {
        "c3": "a2^2 - b2^2",
        "e3": "sqrtd*a2*b2 + 2*b2^2",
        "f4": "3*a2*c3 - sqrtd*b2*e3",
        "g5": "a2*f4 - 1/2*b2^3 + (1 + sqrtd)*c3*e3",
    }.items()})
    return A


def reference_d_key(A, k):
    """Leibniz term by term: d(s_1 ... s_m) = sum_i (-1)^(|s_1| + ... + |s_(i-1)|)
    s_1 ... d(s_i) ... s_m over the single factors s_i, each product put in
    normal form by the transposition oracle."""
    seq = [gi for gi, e in k for _ in range(e)]
    out = {}
    for i, gi in enumerate(seq):
        before = sum(A.gens[g].degree for g in seq[:i])
        left = tuple((g, 1) for g in seq[:i])
        right = tuple((g, 1) for g in seq[i + 1:])
        for key, c in A.differential_of(A.gens[gi].name).terms.items():
            prod, sign = reference_product(A, left + key, right)
            for kk in prod:
                t = c * Scalar(sign * (-1) ** before)
                out[kk] = out[kk] + t if kk in out else t
    return {kk: c for kk, c in out.items() if not c.is_zero}


def test_free_differential_against_leibniz_oracle():
    A = _free_mixed()
    coeffs = [c for g in A.gens for c in A.differential_of(g.name).terms.values()]
    assert any(c.im for c in coeffs) and Scalar(-1) in coeffs
    assert any(not c.im and abs(c.re) != 1 for c in coeffs)
    checked = 0
    for n in range(A.N + 1):
        for k in A.basis_keys(n):
            assert A.d_key(k) == reference_d_key(A, k), A.key_str(k)
            checked += bool(A.d_key(k))
    assert checked > 50


def reference_mul_terms(A, t1, t2, product):
    """The product of two term dicts, multiplying every coefficient, and
    accumulating (and dropping zeros) in mul_terms' order."""
    out = {}
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            for k, ck in product(k1, k2).items():
                t = c1 * c2 * ck
                s = out[k] + t if k in out else t
                if s.is_zero:
                    out.pop(k, None)
                else:
                    out[k] = s
    return out


def test_mul_terms_against_multiplying_reference():
    """Coefficients equal to 1 or -1 that are fresh objects, not the field's
    shared ones, give the same terms in the same order."""
    F = Field(-3)
    A = _free_mixed()
    T = TableCdga([TableBasisElement(nm, d) for nm, d in
                   [("one", 0), ("x2", 2), ("y2", 2), ("z3", 3), ("w4", 4), ("u5", 5)]],
                  N=6, field=F, unit="one",
                  products={("x2", "x2"): {"w4": Scalar(2)},
                            ("x2", "y2"): {"w4": F.sqrt_d()},
                            ("y2", "y2"): {"w4": Scalar(-1)},
                            ("x2", "z3"): {"u5": Scalar(1)},
                            ("y2", "z3"): {"u5": F.scalar(1, 1)}})
    pool = [F.one(), F.minus_one(), Scalar(1), Scalar(-1), F.scalar(1), F.scalar(-1),
            Scalar(2, 0, -3), F.sqrt_d(), F.scalar("2/3", -1)]
    rng = random.Random(20)
    free_product = lambda k1, k2: reference_product(A, k1, k2)[0]  # noqa: E731
    for alg, product in ((A, free_product), (T, T.mul_keys)):
        keys = [k for n in range(6) for k in alg.basis_keys(n)]
        for _ in range(150):
            t1 = {k: rng.choice(pool) for k in rng.sample(keys, rng.randint(1, 4))}
            t2 = {k: rng.choice(pool) for k in rng.sample(keys, rng.randint(1, 4))}
            got = alg.mul_terms(t1, t2)
            assert list(got.items()) == list(reference_mul_terms(alg, t1, t2, product).items())


def test_path_differential_squares_to_zero_randomly():
    M = ms2()
    P = path_of(M, budget=5)
    P2 = path_of(P)
    rng = random.Random(7)
    for _ in range(40):
        x = P.random_element(rng.randint(0, 5), rng)
        assert x.d().d().is_zero
        L = P2.random_element(rng.randint(0, 5), rng)
        assert L.d().d().is_zero


def test_path_leibniz_randomly():
    M = ms2()
    P = path_of(M, budget=8)
    rng = random.Random(8)
    for _ in range(30):
        n1, n2 = rng.randint(0, 3), rng.randint(0, 3)
        x = P.random_element(n1, rng)
        y = P.random_element(n2, rng)
        sign = -1 if n1 % 2 else 1
        assert (x * y).d() == x.d() * y + (x * y.d()) * sign


def test_structural_maps_are_multiplicative():
    M = ms2()
    P = path_of(M, budget=8)
    P2 = path_of(P)
    rng = random.Random(9)
    tau = symmetry(P)
    c = coproduct(P)
    cp = coproduct_prime(P)
    mu = interchange(P2)
    nab = folding(P2)
    for _ in range(20):
        n1, n2 = rng.randint(0, 3), rng.randint(0, 3)
        x = P.random_element(n1, rng, density=0.4)
        y = P.random_element(n2, rng, density=0.4)
        assert tau(x * y) == tau(x) * tau(y)
        assert c(x * y) == c(x) * c(y)
        assert cp(x * y) == cp(x) * cp(y)
        L = P2.random_element(n1, rng, density=0.35)
        K = P2.random_element(n2, rng, density=0.35)
        assert mu(L * K) == mu(L) * mu(K)
        assert nab(L * K) == nab(L) * nab(K)


def test_structural_maps_commute_with_d():
    M = ms2()
    P = path_of(M, budget=8)
    P2 = path_of(P)
    rng = random.Random(10)
    for f, space in ((symmetry(P), P), (coproduct(P), P), (coproduct_prime(P), P),
                     (interchange(P2), P2), (folding(P2), P2)):
        for _ in range(12):
            x = space.random_element(rng.randint(0, 4), rng, density=0.4)
            assert f(x.d()) == f(x).d(), f.name

"""Every Element the algebra layer returns is zero-free.

Elements are {key: nonzero Scalar}, and `==`, `hash` and `is_zero` read the
terms directly, so a stored zero would make equal elements compare unequal.
Sums, products and relabellings build their results without filtering
again; this checks that they still drop every zero, on seeded inputs over
Q(sqrt -3) chosen so that coefficients, and their imaginary parts, cancel.
"""

import random
from fractions import Fraction

import pytest

from hodgepath import (Element, Field, FreeCdga, Generator, ProductCdga, Scalar,
                       keyed, path_of)
from hodgepath.algebra import combination

F = Field(-3)
ROOT = F.sqrt_d()
# coefficients whose sums and products cancel often, also in the imaginary part
COEFFS = [F.one(), F.minus_one(), ROOT, -ROOT, 1 + ROOT, 1 - ROOT, -1 + ROOT,
          -1 - ROOT, F.scalar(Fraction(1, 2)), F.scalar(Fraction(-1, 2))]


def _algebra():
    """Exterior on a1, b1, u1, v1 (d u1 = d v1 = a1 b1) times polynomials in e2, over Q(sqrt -3)."""
    X = FreeCdga([Generator("a1", 1), Generator("b1", 1), Generator("u1", 1),
                  Generator("v1", 1), Generator("e2", 2)], 4, field=F, name="X")
    X.set_differential({"u1": X.parse("a1*b1"), "v1": X.parse("a1*b1")})
    return X


def assert_zero_free(x):
    assert type(x) is Element
    for c in x.terms.values():
        assert type(c) is Scalar and not c.is_zero, x.terms
    filtered = Element(x.alg, x.terms)
    assert x == filtered and filtered == x
    assert hash(x) == hash(filtered)
    assert x.is_zero == filtered.is_zero


def _random(X, rng, degrees=(1, 2, 3)):
    keys = [k for n in degrees for k in X.basis_keys(n)]
    return Element(X, {k: rng.choice(COEFFS) for k in keys if rng.random() < 0.4})


def _near(x, rng):
    """x with about half its terms negated or shifted by sqrt -3: sums with x cancel."""
    terms = {}
    for k, c in x.terms.items():
        r = rng.random()
        terms[k] = -c if r < 0.5 else (ROOT - c if r < 0.75 else c)
    return Element(x.alg, terms)


@pytest.mark.parametrize("seed", range(6))
def test_arithmetic_results_are_zero_free(seed):
    rng = random.Random(seed)
    X = _algebra()
    for _ in range(12):
        x = _random(X, rng)
        y = _near(x, rng) + _random(X, rng, degrees=(rng.randint(1, 3),))
        results = [x + y, x - y, y - x, x - x, x + (-x), -x, x * y, y * x, x * x,
                   x.d(), (x + y).d(), (x - y).d(), x.d().d(), x + 1, x - 1, x + 0,
                   x * 0, 0 * x, x * Fraction(0), x * F.zero(), x * ROOT, x * (1 + ROOT),
                   x * Fraction(-2, 3), X.zero(), X.unit() - X.unit()]
        results.extend(x.degree_parts().values())
        for r in results:
            assert_zero_free(r)
        assert (x - x).is_zero and (x * 0).is_zero
        assert (x + y) - y == x


def test_numbers_on_the_left_add_and_subtract():
    # 1 + x and 1 - x, also where the number cancels x's unit term
    X = _algebra()
    rng = random.Random(5)
    for _ in range(12):
        x = _random(X, rng, degrees=(0, 1, 2))
        for c in (1, -1, 0, Fraction(1, 2)):
            assert c + x == x + c == X.unit() * c + x
            assert c - x == -(x - c) == X.unit() * c - x
            assert_zero_free(c + x)
            assert_zero_free(c - x)
        assert sum([x, x]) == x + x
    assert 1 - X.unit() == X.zero() and (-1 + X.unit()).is_zero


def test_scalars_on_the_left_add_subtract_and_multiply():
    # a Scalar operator returns NotImplemented for an Element, which then
    # answers through its reflected method
    X = _algebra()
    rng = random.Random(11)
    for _ in range(8):
        x = _random(X, rng, degrees=(0, 1, 2))
        for s in (ROOT, F.one(), F.scalar(Fraction(-2, 3))):
            assert s * x == x * s
            assert s + x == x + s
            assert s - x == -(x - s)
            assert_zero_free(s * x)
            assert_zero_free(s - x)
    with pytest.raises(TypeError):
        Scalar(1) + None


@pytest.mark.parametrize("seed", range(4))
def test_coordinates_and_combinations_are_zero_free(seed):
    rng = random.Random(100 + seed)
    X = _algebra()
    for n in (1, 2, 3):
        elems = [_random(X, rng, degrees=(n,)) for _ in range(4)]
        elems.append(-elems[0])
        elems.append(elems[1] * ROOT)
        for x in elems:
            back = X.from_coords(n, X.coords(x, n))
            assert_zero_free(back)
            assert back == x
        rows = [{0: Fraction(1), 4: Fraction(1)},   # x0 + (-x0) = 0
                {1: ROOT, 5: Fraction(-1)},         # sqrt(-3) x1 - sqrt(-3) x1 = 0
                {i: rng.choice(COEFFS) for i in range(6) if rng.random() < 0.6}]
        for row in rows:
            assert_zero_free(combination(X, row, elems))
        assert combination(X, rows[0], elems).is_zero
        assert combination(X, rows[1], elems).is_zero


@pytest.mark.parametrize("seed", range(4))
def test_product_and_path_maps_are_zero_free(seed):
    rng = random.Random(200 + seed)
    X = _algebra()
    prod = ProductCdga([X, X], name="XxX")
    k = keyed(path_of(X, 2))
    for _ in range(8):
        x = _random(X, rng)
        y = _near(x, rng)
        p = prod.inject(0, x) + prod.inject(1, y)
        q = prod.inject(1, x)
        results = [prod.inject(0, x), p, p + q, p - q, prod.project(0, p),
                   prod.project(1, p + q), prod.project(1, p - q)]
        path = k.include(x) + k.include(y) * k.t() + k.include(y) * k.dt()
        results += [k.include(x), k.include(x - x), path, path.d(),
                    k.evaluate(path, 0), k.evaluate(path, 1),
                    k.evaluate(k.include(x) - k.include(x) * k.t(), 1)]
        results += list(k.coefficients(path).values())
        results += list(k.coefficients(path - k.include(x)).values())
        for r in results:
            assert_zero_free(r)
        assert prod.project(1, p + q) == y + x
        assert k.evaluate(path, 1) == x + y

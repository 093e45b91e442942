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

from hodgepath import (DoublePath, Element, Field, FreeCdga, FreeMorphism, Generator,
                       ProductCdga, Scalar, delta, folding, keyed, linear_morphism,
                       mapping_path, path_linear_map, path_of, symmetry, table_presentation)
from hodgepath.algebra import combination
from hodgepath.lifting import _apply_partial, boundary_square_target
from hodgepath.scalars import from_coeff

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


# ---------------------------------------------------------------------------
# linear images, substitutions and product tuples, against the old chains
# ---------------------------------------------------------------------------

def _old_sum(parts):
    """Terms of the chain ((0 + c1 * x1) + c2 * x2) + ... of Element sums that
    copied the partial sum per term: parts are (terms, c), c None for 1."""
    out = {}
    for terms, c in parts:
        scaled = dict(terms) if c is None else {k: c * v for k, v in terms.items()}
        nxt = dict(out)
        for k, v in scaled.items():
            if v.is_zero:
                continue
            s = nxt[k] + v if k in nxt else v
            if s.is_zero:
                nxt.pop(k, None)
            else:
                nxt[k] = s
        out = nxt
    return out


def assert_old_sum(result, parts):
    """result is zero-free and holds the old chain's terms in the old chain's order."""
    assert_zero_free(result)
    assert list(result.terms.items()) == list(_old_sum(parts).items())


def _source():
    """Free on p1, q1, r2 over Q(sqrt -3); the maps below send p1 and q1 to nearly opposite images."""
    return FreeCdga([Generator("p1", 1), Generator("q1", 1), Generator("r2", 2)], 4,
                    field=F, name="C")


def _images(X, rng):
    y = X.zero()
    while y.is_zero:
        y = _random(X, rng, degrees=(1,))
    return {"p1": y, "q1": _near(y, rng) * F.minus_one(), "r2": _random(X, rng, degrees=(2,))}


def _key_image(C, X, images, k):
    # the product of generator images, multiplied from the last factor out
    out = X.unit()
    for gi, e in reversed(k):
        for _ in range(e):
            out = images[C.gens[gi].name] * out
    return out


def _sources(C, rng):
    p, q = C.generator("p1"), C.generator("q1")
    xs = [p + q, p * ROOT - q * ROOT, (p + q) * C.generator("r2")]
    xs += [_random(C, rng) for _ in range(6)]
    return xs


@pytest.mark.parametrize("seed", range(4))
def test_free_and_linear_morphism_images_equal_the_old_sums(seed):
    rng = random.Random(300 + seed)
    X, C = _algebra(), _source()
    images = _images(X, rng)
    f = FreeMorphism(C, X, images)
    key_images = {k: _random(X, rng, degrees=(n,)) for n in (1, 2, 3) for k in C.basis_keys(n)}
    lin = linear_morphism(C, X, key_images)
    cancelled = 0
    for x in _sources(C, rng):
        parts = [(_key_image(C, X, images, k).terms, c) for k, c in x.terms.items()]
        assert_old_sum(f(x), parts)
        assert_old_sum(_apply_partial(C, images, x, X), parts)
        assert_old_sum(lin(x), [(key_images[k].terms, c) for k, c in x.terms.items()])
        cancelled += len(f(x).terms) < sum(len(t) for t, _ in parts)
    assert cancelled
    assert _apply_partial(C, images, C.zero(), X) == X.zero()


@pytest.mark.parametrize("seed", range(4))
def test_differences_and_scalar_multiples_equal_the_old_results(seed):
    rng = random.Random(400 + seed)
    X = _algebra()
    for _ in range(10):
        x = _random(X, rng)
        y = _near(x, rng) + _random(X, rng, degrees=(2,))
        assert_old_sum(x - y, [(x.terms, None), ({k: -c for k, c in y.terms.items()}, None)])
        assert_old_sum(x - x, [(x.terms, None), (x.terms, F.minus_one())])
        for c in COEFFS + [F.zero()]:
            assert_old_sum(x * c, [(x.terms, c)])
        for zero in (0, Fraction(0), F.zero()):
            assert x * zero == X.zero() and (x * zero).alg is X
    for k in X.basis_keys(2):
        assert_old_sum(X.from_key(k), [({k: F.one()}, None)])
    assert_old_sum(X.unit(), [(X.unit_terms(), None)])


def _substituted(k, z, im_t, im_dt, coeff_map):
    """The old substitution's summands: coeff_map(a) * im_t^i (* im_dt) per term a t^i dt^e of z."""
    parts = []
    for (i, e), a in k.coefficients(z).items():
        power = im_t.alg.unit()
        for _ in range(i):
            power = power * im_t
        term = coeff_map(a) * power
        if e:
            term = term * im_dt
        parts.append((term.terms, None))
    return parts


@pytest.mark.parametrize("seed", range(4))
def test_substitutions_equal_the_old_sums(seed):
    rng = random.Random(500 + seed)
    X = _algebra()
    P = path_of(X, 2)
    k = keyed(P)
    k2 = keyed(path_of(P))
    sym, fold = symmetry(P), folding(path_of(P))
    for _ in range(6):
        x, y = _random(X, rng, degrees=(1, 2)), _random(X, rng, degrees=(1,))
        near = _near(x, rng)
        for z in (k.include(x) * k.t() - k.include(x),           # the constant terms cancel
                  k.include(x) + k.include(near) * k.t() + k.include(y) * k.dt()):
            assert_old_sum(sym(z), _substituted(k, z, k.unit() - k.t(), -k.dt(), k.include))
            for L in (k2.include(z) * k2.t() - k2.include(z * k.t()),   # folds to zero
                      k2.include(z) * k2.dt() + k2.include(k.include(near) * k.t())):
                assert_old_sum(fold(L), _substituted(k2, L, k.t(), k.dt(), lambda a: a))
        assert fold(k2.include(k.include(x)) * k2.t() - k2.include(k.include(x) * k.t())).is_zero


def _old_evaluate(k, x, t):
    """PathAlgebra.evaluate as it was: every endpoint merged and filtered."""
    terms = {}
    for (bk, (i, e)), c in x.terms.items():
        if e or (t == 0 and i > 0):
            continue
        prev = terms.get(bk)
        terms[bk] = c if prev is None else prev + c
    return Element(k.base, terms)


@pytest.mark.parametrize("seed", range(4))
def test_endpoint_evaluations_equal_the_old_ones_term_for_term(seed):
    """delta^0 keeps the t^0 terms without a merge or a filter; delta^1 sums over t^i."""
    rng = random.Random(550 + seed)
    X = _algebra()
    k = keyed(path_of(X, 3))
    k2 = keyed(path_of(path_of(X, 3)))
    for _ in range(8):
        x = _random(X, rng)
        for alg, z in ((k, _random(k, rng)),
                       (k, k.include(x) - k.include(x) * k.t()),        # cancels at t = 1
                       (k, k.include(x) * k.t() + k.include(_near(x, rng)) * k.dt()),
                       (k2, _random(k2, rng, degrees=(1, 2)))):
            for t in (0, 1):
                got, want = alg.evaluate(z, t), _old_evaluate(alg, z, t)
                assert_zero_free(got)
                assert got.alg is want.alg
                assert list(got.terms.items()) == list(want.terms.items())


def _injected(i, x):
    return {(i, key): c for key, c in x.terms.items()}


@pytest.mark.parametrize("seed", range(3))
def test_product_tuples_equal_the_old_sums(seed):
    rng = random.Random(600 + seed)
    X, C = _algebra(), _source()
    f = FreeMorphism(C, X, _images(X, rng))
    mp = mapping_path(f, budget=2)
    dp = DoublePath(f, f, path_of(X, 2))
    PB = path_of(X, 2)
    kB = keyed(PB)
    T, theta, amb = boundary_square_target(PB)
    P2 = path_of(PB)
    k2 = keyed(P2)
    faces = [path_linear_map(delta(PB, 0), P2, PB), path_linear_map(delta(PB, 1), P2, PB),
             lambda L: k2.evaluate(L, 0), lambda L: k2.evaluate(L, 1)]
    for a in _sources(C, rng)[:5]:
        x, y = _random(X, rng, degrees=(1, 2)), _random(X, rng, degrees=(1,))
        bt = kB.include(x) + kB.include(_near(x, rng)) * kB.t() + kB.include(y) * kB.dt()
        assert_old_sum(mp.pair(a, bt), [(_injected(0, a), None), (_injected(1, bt), None)])
        assert_old_sum(mp.iota(a), [(_injected(0, a), None),
                                    (_injected(1, kB.include(f(a))), None)])
        assert_old_sum(dp.embed(a, a * ROOT, bt),
                       [(_injected(i, e), None) for i, e in enumerate((a, a * ROOT, bt))])
        L = k2.include(bt) * k2.t() + k2.include(kB.include(x)) * k2.dt() - k2.include(bt)
        assert_old_sum(theta(L), [(_injected(i, face(L)), None) for i, face in enumerate(faces)])
        quad = {0: bt, 1: -bt, 2: kB.zero(), 3: bt * ROOT}
        assert_old_sum(amb.tuple_of(quad), [(_injected(i, e), None) for i, e in quad.items()])


@pytest.mark.parametrize("seed", range(3))
def test_table_presentation_maps_equal_the_old_sums(seed):
    rng = random.Random(700 + seed)
    X = _algebra()
    T, to_table, from_table = table_presentation(X, 3)
    for _ in range(6):
        x = _random(X, rng, degrees=(0, 1, 2, 3))
        parts = [({f"b{n}_{j}": from_coeff(c) for j, c in X.coords(part, n).items()}, None)
                 for n, part in x.degree_parts().items()]
        t = to_table(x)
        assert_old_sum(t, parts)
        back = from_table(t)
        assert_old_sum(back, [(X.basis(T.info[k].degree)[int(k.split("_")[1])].terms, c)
                              for k, c in t.terms.items()])
        assert back == x

"""The exact morphism checks: `check_morphism`, `validate_diagram` and `hodgepath path`.

Each check is run on a planted fault and must name it with a deterministic
witness.  A seeded differential test builds table maps that are dga
isomorphisms by construction, plants one wrong structure constant in some of
them, and requires the check to catch exactly the planted ones.
"""

import json
import random
from fractions import Fraction

import pytest

from helpers import fixture_path, run_main, s2_table
from hodgepath import (QQ, Field, TableBasisElement, TableCdga, build_mhd, compose,
                       delta, iota, keyed, linear_morphism, path_of, validate_diagram)
from hodgepath import cli, paths
from hodgepath.ops import check_morphism


def cp3(N=8):
    basis = [TableBasisElement(f"c{2 * i}" if i else "one", 2 * i) for i in range(4)]
    return TableCdga(basis, N, unit="one", name="H(CP3)",
                     products={("c2", "c2"): {"c4": 1}, ("c2", "c4"): {"c6": 1}})


# -- planted faults ------------------------------------------------------------------

def test_linear_but_not_multiplicative_map_fails_multiplicativity():
    A = cp3()
    images = {k: A.from_key(k) for k in ("one", "c2", "c4")}
    f = linear_morphism(A, A, {**images, "c6": A.basis_element("c6") * 2})
    assert check_morphism(f) == [
        {"check": "multiplicativity", "degree": 6, "witness": "c2*c4"}]
    assert check_morphism(linear_morphism(A, A, {**images, "c6": A.basis_element("c6")})) == []


def test_cp3_fixture_fails_comparison_multiplicativity_on_u0():
    with open(fixture_path("cp3_nonmultiplicative.json"), encoding="utf-8") as fh:
        rep = validate_diagram(build_mhd(json.load(fh)).diagram)
    assert rep.failures == [
        {"check": "comparison-multiplicativity", "witness": "arrow u0: c2*c4"}]
    rc, out = run_main("check", fixture_path("cp3_nonmultiplicative.json"))
    assert rc == 1
    assert json.loads(out)["failures"] == rep.failures


def test_map_that_changes_degree_fails_degree():
    A = TableCdga([TableBasisElement("one", 0), TableBasisElement("y0", 0)], 4, unit="one")
    B = cp3(4)
    f = linear_morphism(A, B, {"one": B.unit(), "y0": B.basis_element("c2")})
    assert check_morphism(f)[0] == {"check": "degree", "degree": 0, "witness": "y0"}


def test_degree_changing_comparison_is_reported_without_a_filtration_check():
    """fixtures/p1toy_bad_degree.json is p1toy with vertex 0's x2 moved to degree 0."""
    with open(fixture_path("p1toy_bad_degree.json"), encoding="utf-8") as fh:
        rep = validate_diagram(build_mhd(json.load(fh)).diagram)
    assert rep.failures == [{"check": "comparison-degree", "witness": "arrow u0: x2"}]
    rc, out = run_main("check", fixture_path("p1toy_bad_degree.json"))
    assert rc == 1
    assert json.loads(out)["failures"] == rep.failures


def test_vertex_that_is_not_graded_commutative_fails_vertex_check():
    """fixtures/cp3_noncommutative.json: c2*c4 = c6 but c4*c2 = 2 c6 at every vertex."""
    rc, out = run_main("check", fixture_path("cp3_noncommutative.json"))
    assert rc == 1
    failures = json.loads(out)["failures"]
    assert {"check": "vertex-graded-commutativity", "witness": "vertex 0: c2,c4"} in failures
    assert {f["witness"].split(":")[0] for f in failures} == {"vertex 0", "vertex 1", "vertex 2"}
    assert all(f["check"].startswith("vertex-") for f in failures)


def test_map_that_breaks_d_fails_d_commutation():
    A = TableCdga([TableBasisElement("one", 0), TableBasisElement("u1", 1),
                   TableBasisElement("v2", 2)], 5, unit="one",
                  differentials={"u1": {"v2": 1}})
    f = linear_morphism(A, A, {"one": A.unit(), "u1": A.basis_element("u1"),
                               "v2": A.basis_element("v2") * 3})
    assert check_morphism(f) == [{"check": "d-commutation", "degree": 1, "witness": "u1"}]


def test_path_maps_pass_at_a_budget_that_cuts_products():
    P = path_of(s2_table(), 2)
    for f in (delta(P, 0), delta(P, 1), iota(P)):
        assert check_morphism(f) == []


def _path_failures(monkeypatch, name, fake):
    monkeypatch.setattr(cli, name, fake)
    rc, out = run_main("path", fixture_path("s2.json"))
    assert rc == 1
    return json.loads(out)["failures"]


def test_broken_delta0_fails_endpoint_of_constant(monkeypatch):
    """delta^0 followed by x2 -> 2 x2: still a dga map, but not a retraction of iota."""
    def fake(P, endpoint):
        d = paths.delta(P, endpoint)
        if endpoint:
            return d
        A = d.target
        twice = linear_morphism(A, A, {"one": A.unit(), "x2": A.basis_element("x2") * 2})
        return compose(twice, d)
    failures = _path_failures(monkeypatch, "delta", fake)
    assert failures == [{"check": "endpoint-of-constant", "degree": 2, "witness": "x2"}]


def test_tau_that_is_not_an_involution_fails_symmetry_involution(monkeypatch):
    """t -> 1 - 2t, dt -> -2 dt: an algebra map with tau(tau(t)) = 4t - 1."""
    def fake(P):
        k = keyed(P)
        return paths._substitution(P, P, k.unit() - k.t() * 2, k.dt() * -2,
                                   lambda c: k.include(c), "bad-symmetry")
    failures = _path_failures(monkeypatch, "symmetry", fake)
    assert failures[0] == {"check": "symmetry-involution", "degree": 0, "witness": "one*t"}
    assert {f["check"] for f in failures} == {"symmetry-involution"}


# -- seeded differential test ------------------------------------------------------------

FIELDS = {"Q": QQ, "Q(sqrt -3)": Field(-3)}


def _nonzero(rng, F):
    re = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return F.scalar(re, rng.randint(-1, 1) if not F.is_rational else 0)


def _random_table(rng, F):
    """Basis, horizon, products and differentials of a small random table."""
    N = rng.randint(3, 6)
    basis = [TableBasisElement("one", 0)] + [
        TableBasisElement(f"a{i}", rng.randint(0, 4)) for i in range(rng.randint(2, 6))]
    of_degree = {}
    for b in basis:
        of_degree.setdefault(b.degree, []).append(b.name)

    def terms(n):
        return {e: _nonzero(rng, F) for e in of_degree.get(n, []) if rng.random() < 0.6}

    rest = basis[1:]
    products = {(x.name, y.name): terms(x.degree + y.degree)
                for x in rest for y in rest if rng.random() < 0.5}
    diffs = {b.name: terms(b.degree + 1) for b in rest if rng.random() < 0.5}
    return basis, N, products, diffs


def _isomorphic_copy(rng, F, basis, products, diffs):
    """Scales s_b, and the structure constants of the copy that makes b -> s_b b a dga map."""
    s = {b.name: _nonzero(rng, F) for b in basis}
    s["one"] = F.one()
    products = {(a, b): {e: c * s[e] * (s[a] * s[b]).inverse() for e, c in t.items()}
                for (a, b), t in products.items()}
    diffs = {b: {e: c * s[e] * s[b].inverse() for e, c in t.items()}
             for b, t in diffs.items()}
    return s, products, diffs


def _plant(rng, F, basis, N, products, diffs):
    """Change one structure constant in degrees <= N-1; the failure it must cause."""
    deg = {b.name: b.degree for b in basis}
    pairs = [(a, b, e) for a in deg for b in deg for e in deg
             if "one" not in (a, b) and deg[a] + deg[b] == deg[e] <= N - 1]
    arrows = [(b, e) for b in deg for e in deg if deg[e] == deg[b] + 1 and deg[b] <= N - 1]
    if pairs and (not arrows or rng.random() < 0.7):
        a, b, e = rng.choice(pairs)
        if (a, b) not in products:       # the effective product read from (b, a)
            A = TableCdga(basis, N, F, unit="one", products=products)
            products[(a, b)] = dict(A.mul_keys(a, b))
        t = products[(a, b)]
        t[e] = t.get(e, F.zero()) + _nonzero(rng, F)
        return "multiplicativity", deg[e], {f"{a}*{b}", f"{b}*{a}"}
    if arrows:
        b, e = rng.choice(arrows)
        t = diffs.setdefault(b, {})
        t[e] = t.get(e, F.zero()) + _nonzero(rng, F)
        return "d-commutation", deg[b], {b}
    return None


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_planted_structure_constants_are_always_caught(field):
    F = FIELDS[field]
    rng = random.Random(f"exact-morphism:{field}")
    caught = clean = 0
    for _ in range(120):
        basis, N, products, diffs = _random_table(rng, F)
        A = TableCdga(basis, N, F, unit="one", products=products, differentials=diffs)
        s, products, diffs = _isomorphic_copy(rng, F, basis, products, diffs)
        planted = _plant(rng, F, basis, N, products, diffs) if rng.random() < 0.6 else None
        B = TableCdga(basis, N, F, unit="one", products=products, differentials=diffs)
        f = linear_morphism(A, B, {b.name: B.basis_element(b.name) * s[b.name]
                                   for b in basis})
        failures = check_morphism(f)
        if planted is None:
            assert failures == []
            clean += 1
        else:
            check, degree, witnesses = planted
            assert len(failures) == 1, failures
            assert failures[0]["check"] == check and failures[0]["degree"] == degree
            assert failures[0]["witness"] in witnesses
            caught += 1
    assert caught >= 40 and clean >= 30

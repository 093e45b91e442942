"""pi_star's comparison verdict from the mapping cone against the exact flags.

`homology.cone_is_quasi_iso(rho, upto)` is True at once when the ranks of
cone(rho) mod p prove that H^n(rho) is an isomorphism for n <= upto
(`homology._cone_exact(rho, upto + 1)`), and otherwise says what the `iso`
flags of quasi_iso_report(rho, upto) say.  The verdict is compared with
those flags for every upto that pi_star can ask for, on every comparison
map of:

* p1toy, built from its three documents as the pi-star command builds it;
* the benchmark's CP^k diagrams, k = 2..5, with seeded scales;
* mutants: the unit model, which drops every class; a2 -> 0, which drops
  one; the model of P^1 into CP^k, where rho(d a3) = x2^2 is not
  d rho(a3) = 0; and images with a sqrt(-1) part, which stay isomorphisms.

Every vertex after the first is over Q(sqrt -1), so its ranks are taken
modulo the second prime: -1 is not a square modulo 2^31 - 1.  A spy on
pi_star checks that the comparison precondition computes no cohomology
where the cone proves it, and that the class-dropping mutants get their
failure from the exact path.
"""

import random
import sys

import pytest

from helpers import cp_family, fixture_path, strict_comparison, toy_model
from hodgepath import (FreeCdga, build_dga, build_homorphism, build_mhd, load_document,
                       mixed_hodge_dga_diagram, pi_star, quasi_iso_report)
from hodgepath import homology
from hodgepath.algebra import CutoffError
from hodgepath.homology import cone_is_quasi_iso

CP_DEGREES = (2, 3, 4, 5)


def _read(name):
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return load_document(fh.read())


def p1toy(comparison="p1toy_comparison.json", target_degree=None, model_degree=None):
    """(D, M, f) as `hodgepath pi-star` builds them from the p1toy documents,
    with the vertex algebras' and the model's max_degree replaced if given."""
    mhd, model = _read("p1toy.json"), _read("p1toy_model.json")
    if target_degree is not None:
        for vertex in mhd["vertices"]:
            vertex["algebra"]["max_degree"] = target_degree
    if model_degree is not None:
        model["max_degree"] = model_degree
    D, M = build_mhd(mhd), build_dga(model)
    doc = _read(comparison)
    doc.pop("source")
    doc.pop("target")
    f = build_homorphism(doc, source=mixed_hodge_dga_diagram(M, D, budget=4),
                         target=D.diagram)
    return D, M, f


def cp(k):
    D, M = cp_family(k, random.Random(f"cone-verdict:cp{k}"))
    top = f"a{2 * k + 1}"
    f = strict_comparison(D, M, lambda A: {"a2": A.basis_element("x2"), top: A.zero()})
    return D, M, f


def agree(f):
    """Compare the verdict with the exact flags on every vertex map of f and
    every upto below the horizon; the list of cone proofs, by map and upto."""
    proofs = []
    for v in f.source.index.vertices:
        rho = f.maps[v]
        for upto in range(-1, f.source.check_upto()):
            flags = all(r["iso"] for r in quasi_iso_report(rho, upto).values())
            assert cone_is_quasi_iso(rho, upto) is flags, (v, upto)
            proved = homology._cone_exact(rho, upto + 1)
            assert flags or not proved, (v, upto)
            proofs.append(proved)
    return proofs


def _check_fields(f):
    """The first vertex is over Q; the others take the second prime."""
    first, *rest = f.source.index.vertices
    assert homology._modulus(f.maps[first].target.field)[0] == 2 ** 31 - 1
    for v in rest:
        assert homology._modulus(f.maps[v].target.field)[0] == homology._PRIMES[1]


def test_p1toy_comparison_is_proved_by_the_cone():
    _, _, f = p1toy()
    _check_fields(f)
    assert all(agree(f))


@pytest.mark.parametrize("k", CP_DEGREES)
def test_cp_comparison_is_proved_by_the_cone(k):
    _, _, f = cp(k)
    _check_fields(f)
    assert all(agree(f))


def test_the_cone_is_not_taken_past_the_targets_horizon():
    """Vertex algebras with horizon 3 under a model with horizon 6: past
    upto = 2 the cone would read the targets where they are untrusted (and
    prove the maps isomorphisms there), so the verdict raises CutoffError
    from quasi_iso_report's strict cohomology, as the exact flags do."""
    _, _, f = p1toy(target_degree=3, model_degree=6)
    for v in f.source.index.vertices:
        rho = f.maps[v]
        assert rho.target.N == 3 and rho.source.N == 6
        for upto in range(-1, 3):
            assert cone_is_quasi_iso(rho, upto) is True
        for upto in range(3, 6):
            assert homology._cone_exact(rho, upto + 1)
            with pytest.raises(CutoffError):
                quasi_iso_report(rho, upto)
            with pytest.raises(CutoffError):
                cone_is_quasi_iso(rho, upto)


def _mutant(kind, D, M):
    """The comparison of a mutant of (D, M)'s model or its images."""
    top = max(M.gens, key=lambda g: g.degree).name
    if kind == "unit":
        return strict_comparison(D, FreeCdga([], M.N, name="Q"), lambda A: {})
    if kind == "a2-zero":
        return strict_comparison(D, M, lambda A: {"a2": A.zero(), top: A.zero()})
    if kind == "not-a-chain-map":
        return strict_comparison(D, toy_model(M.N), lambda A: {"a2": A.basis_element("x2"),
                                                               "a3": A.zero()})
    assert kind == "sqrt-part"

    def images(A):
        c = A.field.one() if A.field.is_rational else A.field.scalar(1, -2)
        return {"a2": A.basis_element("x2") * c, top: A.zero()}

    return strict_comparison(D, M, images)


def _subjects():
    yield "p1toy", p1toy()[:2]
    for k in CP_DEGREES:
        yield f"cp{k}", cp(k)[:2]


@pytest.mark.parametrize("kind", ["unit", "a2-zero", "not-a-chain-map", "sqrt-part"])
def test_mutants_agree_with_the_exact_flags(kind):
    for name, (D, M) in _subjects():
        if kind == "not-a-chain-map" and name == "p1toy":
            continue        # x2^2 = 0 there, so the P^1 model is the model itself
        f = _mutant(kind, D, M)
        proofs = agree(f)
        top = f.source.check_upto() - 1
        if kind == "sqrt-part":
            assert all(proofs), name
        elif kind == "not-a-chain-map":
            assert not any(proofs), name
            # H^4(CP^k) is not reached, which the exact flags see
            assert not cone_is_quasi_iso(f.maps["0"], top), name
        else:
            # H^2 is dropped
            assert not any(cone_is_quasi_iso(rho, top) for rho in f.maps.values()), name


@pytest.fixture
def exact_calls(monkeypatch):
    """The names of cohomology and quasi_iso_report calls, made through any
    module of the package."""
    calls = []
    for name in ("cohomology", "quasi_iso_report"):
        real = getattr(homology, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("hodgepath") \
                    and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, spy)
    return calls


def test_pi_star_computes_no_cohomology_where_the_cone_proves_the_comparison(exact_calls):
    for name, (D, M) in _subjects():
        f = p1toy()[2] if name == "p1toy" else cp(int(name[2:]))[2]
        del exact_calls[:]
        doc = pi_star(D, M, f, max_degree=4 if name == "p1toy" else None).to_doc()
        assert exact_calls == [], name
        assert doc["ok"] and doc["preconditions"]["comparison"] == {"ok": True,
                                                                    "witnesses": []}, name


@pytest.mark.parametrize("kind", ["unit", "a2-zero"])
def test_pi_star_takes_the_exact_path_on_a_dropped_class(kind, exact_calls):
    for name, (D, M) in _subjects():
        f = _mutant(kind, D, M)
        del exact_calls[:]
        doc = pi_star(D, M, f).to_doc()
        assert "quasi_iso_report" in exact_calls, name
        assert not doc["ok"]
        assert doc["preconditions"]["comparison"] == {
            "ok": False, "witnesses": [{"check": "level-wise quasi-isomorphism"}]}, name

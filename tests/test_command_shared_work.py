"""Work a CLI command shares, against references that share nothing.

* `rectify` builds one table presentation per vertex and reads its arrow
  maps off those tables; each table is checked entry by entry against the
  products of the algebra it presents.
* `mapping-path` computes each cohomology group once per (space, degree)
  for its p, f and q checks.
* `verify_homotopy` applies h once per basis element and reads h(db) off by
  linearity; its reports must equal those of a reference that applies h to
  d(b) directly.
* `validate_ho_homotopy` applies each vertex homotopy once per distinct
  non-zero input, for its vertex checks and its arrow faces together; its
  reports must equal those of a reference that applies h afresh each time.
* `spectral` builds one spectral sequence, and reports page 0.
"""

import collections
import json

import pytest

from helpers import fixture_path, ms2, run_main
from test_documents_cli import _mutants
from hodgepath import Homotopy, LinearMap, Morphism, constant_homotopy, identity_morphism
from hodgepath import cli, diagrams, filtered, homology, paths
from hodgepath.diagrams import HoHomotopy, rectify, validate_ho_homotopy
from hodgepath.documents import (build_dga, build_homorphism, build_homotopy, element_expr,
                                 load_document, serialize)
from hodgepath.ops import ValidationReport, table_presentation
from hodgepath.paths import BudgetError, keyed, path_of

HOMORPHISMS = ("example41.json", "example41_g.json")


def read(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return load_document(fh.read())


def reference_verify_homotopy(h, f, g, upto=None, d_check=True):
    """verify_homotopy without shared work: h is applied to d(b) directly."""
    hm = h.map if isinstance(h, Homotopy) else h
    rep = ValidationReport(subject=f"homotopy {hm.name or ''}".strip())
    k = keyed(hm.target)
    top = min(hm.source.N, f.target.N) if upto is None else upto
    top = min(top, hm.source.N)
    for n in range(0, top + 1):
        for b in hm.source.basis(n):
            hx = hm(b)
            if k.evaluate(hx, 0) != f(b):
                rep.add("endpoint-0", f"degree {n}: {b!r}")
            if k.evaluate(hx, 1) != g(b):
                rep.add("endpoint-1", f"degree {n}: {b!r}")
            if d_check and n <= top - 1 and hm(b.d()) != hx.d():
                rep.add("chain-map", f"degree {n}: {b!r}")
    return rep


def reference_run(monkeypatch, *argv):
    """(exit code, stdout) of the CLI with every cohomology group and h(db) computed afresh."""
    with monkeypatch.context() as m:
        m.setattr(paths, "verify_homotopy", reference_verify_homotopy)
        m.setattr(cli, "verify_homotopy", reference_verify_homotopy)
        m.setattr(homology, "cohomology",
                  lambda X, n, strict=True: homology.fresh_cohomology(X, n))
        return run_main(*argv)


# ---------------------------------------------------------------------------
# table presentations and rectify
# ---------------------------------------------------------------------------

def _path_object(name, budget):
    A = build_dga(read(name))
    return path_of(A, budget), A.N - 1


def _mapping_path_space(name, v):
    f = build_homorphism(read(name))
    return rectify(f).mps[v].space, f.source.check_upto() - 1


TABLE_CASES = {
    **{f"P({name})@{budget}": (lambda name=name, budget=budget: _path_object(name, budget))
       for name in ("s2.json", "cp2.json") for budget in (2, 3, 4)},
    **{f"P(f_{v}) of {name}": (lambda name=name, v=v: _mapping_path_space(name, v))
       for name in HOMORPHISMS for v in ("0", "1")},
}


def _named(n, row):
    return {f"b{n}_{j}": c for j, c in row.items()}


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_table_entries_are_the_coordinates_of_products(case):
    X, upto = TABLE_CASES[case]()
    T, _, _ = table_presentation(X, upto, keep_filtrations=False)
    bases = {n: X.basis(n) for n in range(0, upto + 1)}
    pairs, outside = set(), []
    for n1 in range(0, upto + 1):
        for n2 in range(n1, upto + 1 - n1):
            for k1, b1 in enumerate(bases[n1]):
                for k2, b2 in enumerate(bases[n2]):
                    if n1 == n2 and k2 < k1:
                        continue
                    pair = (f"b{n1}_{k1}", f"b{n2}_{k2}")
                    pairs.add(pair)
                    try:
                        want = _named(n1 + n2, X.coords(b1 * b2, n1 + n2))
                    except BudgetError:
                        outside.append(pair)
                        want = {}
                    assert T.products.get(pair, {}) == want, (case, pair)
    assert set(T.products) <= pairs
    for pair in outside:
        assert pair not in T.products and pair[::-1] not in T.products
    for n in range(0, upto):
        for k, b in enumerate(bases[n]):
            assert T.diffs.get(f"b{n}_{k}", {}) == _named(n + 1, X.coords(b.d(), n + 1))
    if case.startswith("P(s2.json)@2"):
        assert outside, "t^2 * t leaves the budget"


@pytest.mark.parametrize("name", HOMORPHISMS)
def test_rectify_arrow_maps_equal_those_of_fresh_tables(name):
    rc, out = run_main("rectify", fixture_path(name))
    assert rc == 0
    arrows = json.loads(out)["arrows"]
    f = build_homorphism(read(name))
    span = rectify(f)
    upto = f.source.check_upto() - 1
    assert arrows
    for arrow in arrows:
        T_i, _, from_i = table_presentation(span.mps[arrow["from"]].space, upto,
                                            keep_filtrations=False)
        _, to_j, _ = table_presentation(span.mps[arrow["to"]].space, upto,
                                        keep_filtrations=False)
        psi = span.diagram.phi[arrow["name"]]
        assert arrow["map"] == {b.name: element_expr(to_j(psi(from_i(T_i.basis_element(b.name)))))
                                for b in T_i.basis_list}


def test_rectify_builds_one_table_per_vertex(monkeypatch):
    spaces = []

    def counting(X, *args, **kwargs):
        spaces.append(X)
        return table_presentation(X, *args, **kwargs)

    monkeypatch.setattr(cli, "table_presentation", counting)
    assert run_main("rectify", fixture_path("example41.json"))[0] == 0
    assert len(spaces) == len(set(map(id, spaces))) == 2


# ---------------------------------------------------------------------------
# mapping-path: one cohomology group per (space, degree)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", HOMORPHISMS)
def test_mapping_path_computes_each_group_once(name, monkeypatch):
    want = reference_run(monkeypatch, "mapping-path", fixture_path(name))
    calls = collections.Counter()
    compute = homology.fresh_cohomology

    def counting(X, n):
        calls[X, n] += 1
        return compute(X, n)

    # every group is built through the memo of its space, once
    monkeypatch.setattr(homology, "fresh_cohomology", counting)
    assert run_main("mapping-path", fixture_path(name)) == want
    assert want[0] == 0 and calls
    assert set(calls.values()) == {1}


# ---------------------------------------------------------------------------
# verify_homotopy: h once per basis element, h(db) by linearity
# ---------------------------------------------------------------------------

def _broken_homotopy():
    """The constant homotopy of 1_{M(S2)}, except that e2^2 goes to e2^2 + e3 dt.

    Both endpoints still hold, and d h(e3) = e2^2 != h(d e3): the chain map
    fails at e3 in degree 3, because of the wrong image one degree up.
    """
    M = ms2(N=6)
    one = identity_morphism(M)
    h = constant_homotopy(one, budget=2)
    P = keyed(h.path)
    e2sq = M.parse("e2^2")
    (key,) = e2sq.terms
    extra = P.include(M.generator("e3")) * P.dt()

    def fn(x):
        c = x.terms.get(key)
        return h.map(x) if c is None else h.map(x) + extra * c

    return Homotopy(one, one, Morphism(M, h.path, fn, name="broken"))


def _homotopy_cases():
    f, g, h = build_homotopy(read("homotopy_const.json"))
    yield "homotopy_const", h, f, g, None
    for name in HOMORPHISMS:
        ho = build_homorphism(read(name))
        con = rectify(ho).contraction()
        upto = max(0, ho.source.check_upto() - 2)
        for v in ho.source.index.vertices:
            yield f"contraction {name}:{v}", con.vertex[v], con.f.maps[v], con.g.maps[v], upto
    h = _broken_homotopy()
    yield "broken", h, h.f, h.g, None


def test_reports_equal_the_direct_d_check():
    seen = set()
    for case, h, f, g, upto in _homotopy_cases():
        got = paths.verify_homotopy(h, f, g, upto=upto)
        want = reference_verify_homotopy(h, f, g, upto=upto)
        assert (got.ok, got.failures) == (want.ok, want.failures), case
        seen.add(case)
        if case == "broken":
            assert [fl["check"] for fl in got.failures] == ["chain-map", "chain-map"]
            assert got.failures[0]["witness"] == "degree 3: e3"
        else:
            assert got.ok, case
    assert len(seen) == 6


def test_h_runs_at_most_once_per_basis_key():
    for case, h, f, g, upto in _homotopy_cases():
        hm = h.map if isinstance(h, Homotopy) else h
        inputs = []

        def counting(x, hm=hm):
            inputs.append(x)
            return hm(x)

        wrapped = LinearMap(hm.source, hm.target, counting, name=hm.name)
        paths.verify_homotopy(wrapped, f, g, upto=upto)
        X = hm.source
        top = min(min(X.N, f.target.N) if upto is None else upto, X.N)
        assert len(inputs) == sum(X.dim(n) for n in range(0, top + 1)), case
        if not hasattr(X, "ambient"):
            keys = [tuple(x.terms) for x in inputs]
            assert all(len(k) == 1 for k in keys) and len(set(keys)) == len(keys), case


def test_homotopy_verify_on_one_field_mutants_matches_the_direct_d_check(tmp_path, monkeypatch):
    mutants = [m for m in _mutants() if m[0] == "homotopy_const.json"]
    assert len(mutants) > 100
    path = tmp_path / "mutant.json"
    for mutant in mutants:
        path.write_text(json.dumps(mutant[3]), encoding="utf-8")
        want = reference_run(monkeypatch, "homotopy-verify", str(path))
        assert run_main("homotopy-verify", str(path)) == want, mutant[:3]


# ---------------------------------------------------------------------------
# validate_ho_homotopy: each vertex homotopy once per distinct non-zero input
# ---------------------------------------------------------------------------

def reference_validate_ho_homotopy(h, upto):
    """validate_ho_homotopy without shared work: every check applies h afresh."""
    rep = ValidationReport(subject=f"ho-homotopy {h.name}")
    f, g = h.f, h.g
    for v in f.source.index.vertices:
        for fl in reference_verify_homotopy(h.vertex[v], f.maps[v], g.maps[v], upto=upto).failures:
            rep.add("vertex-" + fl["check"], f"vertex {v}: {fl['witness']}")
    for u in f.source.phi:
        a = f.source.arrow(u)
        PB = f.path_target(u)
        budget = keyed(PB).budget
        k2 = keyed(path_of(PB, budget))
        Pd0 = paths.path_linear_map(paths.delta(PB, 0), path_of(PB, budget), PB)
        Pd1 = paths.path_linear_map(paths.delta(PB, 1), path_of(PB, budget), PB)
        Pphi = paths.path_linear_map(
            f.target.comp(u), path_of(f.target.algebras[a.src], budget,
                                      diagrams.W_SHIFT[f.target.tags[a.src]]), PB)
        hj, hi = h.vertex[a.dst], h.vertex[a.src]
        for n in range(0, upto + 1):
            for b in f.source.algebras[a.src].basis(n):
                x = f.source.to_dom(u)(b)
                Hx = h.arrows[u](x)
                if Pd0(Hx) != f.homotopies[u](x):
                    rep.add("face-F", f"arrow {u}, degree {n}")
                    break
                if Pd1(Hx) != g.homotopies[u](x):
                    rep.add("face-G", f"arrow {u}, degree {n}")
                    break
                if k2.evaluate(Hx, 0) != hj(f.source.comp(u)(b)):
                    rep.add("face-hj", f"arrow {u}, degree {n}")
                    break
                if k2.evaluate(Hx, 1) != Pphi(hi(b)):
                    rep.add("face-hi", f"arrow {u}, degree {n}")
                    break
    return rep


def _with_vertex_maps(h, wrap):
    """h with each vertex homotopy's map replaced by wrap(v, map)."""
    vertex = {v: Homotopy(hv.f, hv.g, Morphism(hv.map.source, hv.map.target,
                                                wrap(v, hv.map), name=hv.map.name))
              for v, hv in h.vertex.items()}
    return HoHomotopy(h.f, h.g, vertex, h.arrows, name=h.name)


def _ho_homotopy_cases():
    """The mapping-path contractions, and each broken at one vertex in degree 1."""
    for name in HOMORPHISMS:
        ho = build_homorphism(read(name))
        con = rectify(ho).contraction()
        upto = max(0, ho.source.check_upto() - 2)
        yield f"contraction {name}", con, upto
        for broken in con.vertex:
            def wrap(v, hm, broken=broken):
                if v != broken:
                    return hm
                return lambda x: hm(x) * 2 if x.degree() == 1 else hm(x)
            yield f"contraction {name} broken at {broken}", _with_vertex_maps(con, wrap), upto


def test_ho_homotopy_reports_equal_the_reference():
    faces = set()
    for case, h, upto in _ho_homotopy_cases():
        got = validate_ho_homotopy(h, upto=upto)
        want = reference_validate_ho_homotopy(h, upto)
        assert (got.ok, got.failures) == (want.ok, want.failures), case
        assert got.ok == ("broken" not in case), case
        faces.update(fl["check"] for fl in got.failures if fl["check"].startswith("face-"))
    assert faces == {"face-hi", "face-hj"}


def test_vertex_homotopies_run_once_per_distinct_non_zero_input():
    for case, h, upto in _ho_homotopy_cases():
        inputs = collections.Counter()

        def wrap(v, hm):
            def counting(x):
                inputs[v, x] += 1
                return hm(x)
            return counting

        validate_ho_homotopy(_with_vertex_maps(h, wrap), upto=upto)
        assert inputs, case
        assert set(inputs.values()) == {1}, case
        assert not any(x.is_zero for _, x in inputs), case


# ---------------------------------------------------------------------------
# spectral: one spectral sequence, page 0 included
# ---------------------------------------------------------------------------

def test_spectral_page_0_reports():
    rc, out = run_main("spectral", fixture_path("p1toy_model.json"), "--page", "0",
                       "--max-degree", "3")
    assert rc == 0
    assert json.loads(out) == {"command": "spectral", "subject": "M(P1)", "page": 0,
                               "filtration": "W", "ok": True, "d_r_nonzero_at": [],
                               "dims": {"(0,0)": 1, "(0,2)": 1, "(1,3)": 1}}


# stdout of pages 1 and 2 before d_r's start degree was capped
PAGES = {
    ("two_term_w.json", 1): ("two-term d1 iso", {"(0,0)": 1, "(0,1)": 1, "(1,0)": 1}, ["(1,0)"]),
    ("two_term_w.json", 2): ("two-term d1 iso", {"(0,0)": 1}, []),
    ("p1toy_model.json", 1): ("M(P1)", {"(0,0)": 1, "(0,2)": 1}, []),
    ("p1toy_model.json", 2): ("M(P1)", {"(0,0)": 1}, []),
}


@pytest.mark.parametrize("name, page", sorted(PAGES))
def test_spectral_pages_1_and_2_are_unchanged(name, page, monkeypatch):
    built = []

    class Counting(filtered.SpectralSequence):
        def __init__(self, fc):
            built.append(fc)
            super().__init__(fc)

    monkeypatch.setattr(filtered, "SpectralSequence", Counting)
    subject, dims, nonzero = PAGES[name, page]
    want = {"command": "spectral", "subject": subject, "page": page, "filtration": "W",
            "ok": True, "dims": dims, "d_r_nonzero_at": nonzero}
    assert run_main("spectral", fixture_path(name), "--page", str(page),
                    "--max-degree", "3") == (0, serialize(want))
    assert len(built) == 1

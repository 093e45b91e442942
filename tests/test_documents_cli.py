"""Document parsing, serialization round-trips, CLI contract, cache."""

import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from helpers import fixture_path, run_main
from hodgepath import (FreeCdga, betti_numbers, build_dga, build_homorphism,
                       build_mhd, check_cdga, dga_doc, element_expr,
                       load_document, parse_document, serialize)
from hodgepath.algebra import CutoffError
from hodgepath.documents import MAX_DEGREE, DocumentError
from hodgepath.exprs import ExprError, parse_expression, tokenize

PKG_ROOT = os.path.join(os.path.dirname(__file__), "..")


def run_cli(*args, env_extra=None, timeout=120):
    """Run the CLI in a subprocess; one that outlives `timeout` seconds is killed
    and fails the test with `subprocess.TimeoutExpired`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src")
    env.pop("HODGEPATH_CACHE", None)
    if env_extra:
        env.update(env_extra)
    out = subprocess.run([sys.executable, "-m", "hodgepath.cli", *args],
                         capture_output=True, text=True, env=env, cwd=PKG_ROOT,
                         timeout=timeout)
    return out


def read_fixture(name):
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return load_document(fh.read())


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

def test_expression_grammar():
    A = FreeCdga.__new__(FreeCdga)  # not needed; use a real algebra below
    from helpers import ms2
    M = ms2()
    assert M.parse("1/2*e2^2 + e2*e2") == M.parse("3/2*e2*e2")
    assert M.parse("e2 - e2").is_zero
    assert M.parse("2*(e2 + e2)") == M.parse("4*e2")
    with pytest.raises(ExprError):
        M.parse("e2 +")
    with pytest.raises(ExprError):
        M.parse("3/")
    with pytest.raises(ExprError):
        M.parse("e2 ^ x")


@pytest.mark.parametrize("text, message, column", [
    ("e2^", "exponent must be a natural number", 3),
    ("(e2", "missing ')'", 3),
    ("e2 +", "expected a term", 4),
    ("e2 + ", "expected a term", 5),
], ids=["exponent", "parenthesis", "term", "term_then_space"])
def test_error_at_the_end_of_an_expression_is_located_there(text, message, column):
    """Where the tokens run out, the column is the length of the text."""
    from helpers import ms2
    with pytest.raises(ExprError) as ei:
        ms2().parse(text)
    assert ei.value.pos == column
    assert str(ei.value) == f"{message} (at column {column})"


def test_element_expr_roundtrip():
    from helpers import ms2
    M = ms2()
    x = M.parse("3/2*e2^2 - e3")
    assert M.parse(element_expr(x)) == x


def test_dga_document_roundtrip():
    doc = read_fixture("ms2_free.json")
    A = build_dga(doc)
    assert check_cdga(A).ok
    again = dga_doc(A, name=doc.get("name"))
    B = build_dga(json.loads(serialize(again)))
    assert betti_numbers(B, 5) == betti_numbers(A, 5)
    # serialize(parse(x)) is canonical: serializing twice is a fixed point
    assert serialize(again) == serialize(json.loads(serialize(again)))


def test_duplicate_generator_rejected():
    doc = read_fixture("ms2_free.json")
    doc["generators"].append(dict(doc["generators"][0]))
    with pytest.raises(DocumentError) as ei:
        build_dga(doc)
    assert "duplicate generator" in str(ei.value)
    assert "generators[2]" in str(ei.value)


def test_unknown_field_rejected_with_path():
    doc = read_fixture("s2.json")
    doc["surprise"] = 1
    with pytest.raises(DocumentError) as ei:
        build_dga(doc)
    assert "surprise" in str(ei.value)


@pytest.mark.parametrize("sqrt", [5, 0, -2.5, True, "-3"])
def test_bad_sqrt_rejected_with_path(sqrt):
    doc = read_fixture("s2.json")
    doc["field"] = {"sqrt": sqrt}
    with pytest.raises(DocumentError) as ei:
        build_dga(doc)
    assert ei.value.path == "$.field.sqrt"
    doc = read_fixture("p1toy.json")
    doc["sqrt"] = sqrt
    with pytest.raises(DocumentError) as ei:
        build_mhd(doc)
    assert ei.value.path == "$.sqrt"


def test_bad_field_exits_2(tmp_path):
    doc = read_fixture("s2.json")
    doc["field"] = {"sqrt": 5}
    path = tmp_path / "sqrt5.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = run_cli("check", str(path))
    assert out.returncode == 2
    assert "$.field.sqrt" in out.stderr


@pytest.mark.parametrize("fixture, at, value, where", [
    ("s2.json", ("products",), ["x2*x2", "0"], "$.products"),
    ("s2.json", ("differentials",), ["x2", "0"], "$.differentials"),
    ("s2.json", ("augmentation",), ["one", "1"], "$.augmentation"),
    ("s2.json", ("basis", 1, "degree"), "2", "$.basis[1].degree"),
    ("s3_free.json", ("generators", 0, "degree"), "3", "$.generators[0].degree"),
    ("s2.json", ("basis", 1, "name"), ["x2"], "$.basis[1].name"),
    ("s3_free.json", ("generators", 0, "name"), ["x3"], "$.generators[0].name"),
    ("s2.json", ("basis",), 2, "$.basis"),
    ("s3_free.json", ("generators",), 1, "$.generators"),
    ("s2.json", ("unit",), ["one"], "$.unit"),
    ("s2.json", ("basis", 1, "weight"), "a", "$.basis[1].weight"),
    ("s2.json", ("basis", 1, "weight"), 1.5, "$.basis[1].weight"),
    ("s2.json", ("basis", 1, "hodge"), "a", "$.basis[1].hodge"),
    ("s2.json", ("basis", 1, "hodge"), 1.5, "$.basis[1].hodge"),
    ("s3_free.json", ("generators", 0, "weight"), True, "$.generators[0].weight"),
], ids=["products", "differentials", "augmentation", "basis_degree", "generator_degree",
        "basis_name_list", "generator_name_list", "basis_number", "generators_number",
        "unit_list", "basis_weight_str", "basis_weight_float", "basis_hodge_str",
        "basis_hodge_float", "generator_weight_bool"])
def test_malformed_dga_fields_exit_2(tmp_path, fixture, at, value, where):
    """A field of the wrong JSON type is a document error (exit 2), not a traceback."""
    doc = read_fixture(fixture)
    parent = doc
    for step in at[:-1]:
        parent = parent[step]
    parent[at[-1]] = value
    with pytest.raises(DocumentError) as ei:
        build_dga(doc)
    assert ei.value.path == where
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = run_cli("check", str(path))
    assert out.returncode == 2, out.stderr
    assert where in out.stderr
    assert "Traceback" not in out.stderr


def _rename_target_vertices(doc):
    target = doc["target"]
    for v in target["vertices"]:
        v["name"] = "t" + v["name"]
    for a in target["arrows"]:
        a["from"], a["to"] = "t" + a["from"], "t" + a["to"]


def _rename_target_arrow(doc):
    doc["target"]["arrows"][0]["name"] = "x"


@pytest.mark.parametrize("mutate, where", [
    (lambda doc: doc.update(source="model"), "$.source"),
    (lambda doc: doc.update(target="mhd"), "$.target"),
    (_rename_target_vertices, "$.maps"),
    (_rename_target_arrow, "$"),
], ids=["source_model", "target_mhd", "target_vertices", "target_arrow"])
def test_unresolved_homorphism_references_exit_2(tmp_path, mutate, where):
    """A schema-valid ho-morphism whose diagrams do not resolve is a document error."""
    doc = read_fixture("example41.json")
    mutate(doc)
    with pytest.raises(DocumentError) as ei:
        build_homorphism(doc)
    assert ei.value.path == where
    path = tmp_path / "homorphism.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = run_cli("check", str(path))
    assert out.returncode == 2, out.stderr
    assert where in out.stderr
    assert "Traceback" not in out.stderr


def test_t_budget_only_where_it_is_read():
    out = run_cli("check", "fixtures/s2.json", "--t-budget", "3")
    assert out.returncode == 2, out.stderr
    assert "--t-budget" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("budget", ["0", "-1", "two"])
def test_bad_t_budget_flag_is_a_usage_error(budget):
    out = run_cli("path", "fixtures/s2.json", "--t-budget", budget)
    assert out.returncode == 2, out.stderr
    assert "--t-budget" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("budget", [0, -1, True, 1.5, "4", 65])
@pytest.mark.parametrize("fixture, build", [("p1toy.json", build_mhd),
                                            ("homotopy_const.json", parse_document)],
                         ids=["mhd", "homotopy"])
def test_bad_document_budget_rejected_with_path(fixture, build, budget):
    doc = read_fixture(fixture)
    doc["budget"] = budget
    with pytest.raises(DocumentError) as ei:
        build(doc)
    assert ei.value.path == "$.budget"


def test_t_budget_above_the_cap_exits_2_at_once():
    start = time.perf_counter()
    out = run_cli("path", "fixtures/s2.json", "--t-budget", "100000", timeout=10)
    assert time.perf_counter() - start < 5.0
    assert out.returncode == 2, out.stderr
    assert "--t-budget" in out.stderr and "from 1 to 64" in out.stderr
    assert "Traceback" not in out.stderr


def test_budget_cap_is_one_bound_in_every_schema_and_the_cli():
    from hodgepath.cli import make_parser
    from hodgepath.documents import MAX_BUDGET, _schema
    assert MAX_BUDGET == MAX_DEGREE == 64
    for name in ("diagram.json", "homotopy.json", "mhd.json"):
        assert _schema(name)["properties"]["budget"]["maximum"] == MAX_BUDGET
    parser = make_parser()
    assert parser.parse_args(["path", "x", "--t-budget", "64"]).t_budget == 64
    with pytest.raises(SystemExit) as ei:
        parser.parse_args(["path", "x", "--t-budget", "65"])
    assert ei.value.code == 2


def test_diagram_budget_above_the_cap_exits_2(tmp_path):
    doc = read_fixture("example41.json")
    doc["source"]["budget"] = 65
    path = tmp_path / "example41_budget65.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = run_cli("check", str(path), timeout=30)
    assert out.returncode == 2, out.stderr
    assert "$.source.budget" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("args, option", [
    (("minimal-model", "fixtures/s2.json", "--max-degree", "-3"), "--max-degree"),
    (("spectral", "fixtures/two_term_w.json", "--page", "-4", "--max-degree", "2"),
     "--page"),
    (("spectral", "fixtures/two_term_w.json", "--page", "1", "--max-degree", "-1"),
     "--max-degree"),
], ids=["minimal-model-degree", "spectral-page", "spectral-degree"])
def test_negative_degree_or_page_is_a_usage_error(args, option):
    out = run_cli(*args)
    assert out.returncode == 2, out.stderr
    assert f"argument {option}" in out.stderr
    assert "Traceback" not in out.stderr


def test_zero_document_budget_exits_2(tmp_path):
    doc = read_fixture("p1toy.json")
    doc["budget"] = 0
    path = tmp_path / "budget0.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = run_cli("pi-star", "--mhd", str(path), "--model", "fixtures/p1toy_model.json",
                  "--comparison", "fixtures/p1toy_comparison.json")
    assert out.returncode == 2, out.stderr
    assert "$.budget" in out.stderr
    assert "Traceback" not in out.stderr


def test_decalage_below_degree_1_exits_2(tmp_path):
    doc = read_fixture("two_term_w.json")
    doc["max_degree"] = 0
    path = tmp_path / "two_term_w_0.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = run_cli("decalage", str(path))
    assert out.returncode == 2, out.stderr
    assert "needs degree n + 1" in out.stderr
    assert "Traceback" not in out.stderr


def test_absurd_horizon_exits_2_at_once(tmp_path):
    doc = {"schema": 1, "kind": "dga", "name": "pt", "presentation": "table",
           "field": "Q", "max_degree": 10 ** 8, "unit": "one",
           "basis": [{"name": "one", "degree": 0}]}
    path = tmp_path / "point_horizon_1e8.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    out = run_cli("cohomology", str(path), timeout=10)
    assert time.perf_counter() - start < 1.0
    assert out.returncode == 2
    assert "$.max_degree" in out.stderr
    # the same check guards dga documents embedded in others
    mhd = read_fixture("p1toy.json")
    mhd["vertices"][0]["algebra"]["max_degree"] = MAX_DEGREE + 1
    with pytest.raises(DocumentError) as ei:
        build_mhd(mhd)
    assert ei.value.path == "$.vertices[0].algebra.max_degree"
    doc["max_degree"] = True
    with pytest.raises(DocumentError):
        build_dga(doc)


def test_syntax_error_located():
    with pytest.raises(DocumentError) as ei:
        load_document("{\n  \"kind\": oops\n}")
    assert "line 2" in str(ei.value)


def test_parse_document_dispatch():
    assert parse_document(read_fixture("s2.json")).name == "H(S2)"
    assert parse_document(read_fixture("p1toy.json")).diagram.name == "P1-toy"
    f = parse_document(read_fixture("example41.json"))
    assert f.name == "square-up-to-homotopy"
    with pytest.raises(DocumentError):
        parse_document({"schema": 1, "kind": "nope"})


def test_normalized_expression_in_differential():
    doc = read_fixture("ms2_free.json")
    doc["generators"][1]["d"] = "1/2*e2^2 + e2*e2"
    A = build_dga(doc)
    assert A.differential_of("e3") == A.parse("3/2*e2^2")


# ---------------------------------------------------------------------------
# CLI exit codes and determinism
# ---------------------------------------------------------------------------

def test_fixtures_match_shipped_schemas():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        _schema_roundtrip()


def _schema_roundtrip():
    import jsonschema
    from jsonschema import RefResolver
    schema_dir = os.path.join(PKG_ROOT, "src", "hodgepath", "schemas")

    def load_schema(name):
        with open(os.path.join(schema_dir, name)) as fh:
            return json.load(fh)

    store = {nm: load_schema(nm) for nm in os.listdir(schema_dir)}
    by_kind = {"dga": "dga.json", "diagram": "diagram.json", "mhd": "mhd.json",
               "homorphism": "homorphism.json", "homotopy": "homotopy.json"}
    checked = 0
    from helpers import FIXDIR
    for name in sorted(os.listdir(FIXDIR)):
        if not name.endswith(".json"):
            continue
        doc = read_fixture(name)
        schema_name = by_kind[doc["kind"]]
        schema = load_schema(schema_name)
        resolver = RefResolver(base_uri=schema_name, referrer=schema, store=store)
        jsonschema.validate(doc, schema, resolver=resolver)
        checked += 1
    assert checked >= 10


def test_cli_exit_codes():
    ok = run_cli("check", fixture_path("s2.json"))
    assert ok.returncode == 0
    usage = run_cli("check", fixture_path("does_not_exist.json"))
    assert usage.returncode == 2
    bad_args = run_cli("not-a-command")
    assert bad_args.returncode == 2
    fail = run_cli("mhd-check", fixture_path("p1toy_bad_hodge.json"),
                   "--max-degree", "4")
    assert fail.returncode == 1
    missing_degree = run_cli("minimal-model", fixture_path("s2.json"))
    assert missing_degree.returncode == 2


def test_one_parser_serves_every_call_in_a_process():
    """A usage error between two runs of a command changes neither run."""
    from hodgepath import cli
    command = ("path", fixture_path("s2.json"), "--t-budget", "3")
    first = run_main(*command)
    assert first[0] == 0 and first[1]
    assert run_main("path", fixture_path("s2.json"), "--t-budget", "100000") == (2, "")
    assert run_main(*command) == first
    assert cli.make_parser() is cli.make_parser()


def test_cli_reports_are_deterministic():
    commands = [
        ("check", fixture_path("s2.json")),
        ("cohomology", fixture_path("ms2_free.json")),
        ("minimal-model", fixture_path("s2.json"), "--max-degree", "6"),
        ("spectral", fixture_path("two_term_w.json"), "--page", "1",
         "--max-degree", "2"),
        ("mhd-check", fixture_path("p1toy.json"), "--max-degree", "4"),
        ("rectify", fixture_path("example41.json")),
    ]
    for cmd in commands:
        a = run_cli(*cmd)
        b = run_cli(*cmd)
        assert a.returncode == b.returncode
        assert a.stdout == b.stdout, f"nondeterministic output for {cmd}"


def test_cli_check_all_kinds():
    for name, code in (("s2.json", 0), ("p1toy.json", 0), ("example41.json", 0),
                       ("homotopy_const.json", 0)):
        out = run_cli("check", fixture_path(name))
        assert out.returncode == code, (name, out.stderr)
    rect = run_cli("rectify", fixture_path("example41.json"))
    tmp = fixture_path("_tmp_rectified.json")
    with open(tmp, "w") as fh:
        fh.write(rect.stdout)
    try:
        out = run_cli("check", tmp)
        assert out.returncode == 0
    finally:
        os.unlink(tmp)


def test_mapping_path_cli():
    out = run_cli("mapping-path", fixture_path("example41.json"))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["ok"] and doc["contraction_ok"]
    assert doc["vertices"]["0"]["q_endpoint"] == 0
    assert doc["vertices"]["1"]["q_endpoint"] == 1


def test_mapping_path_cli_single_vertex():
    out = run_cli("mapping-path", fixture_path("rho_single_vertex.json"))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    v = doc["vertices"]["0"]
    assert v["p_surjective"] and v["p_quasi_iso"]
    assert v["f_quasi_iso"] and v["q_quasi_iso"]


def test_cli_table_format():
    out = run_cli("check", fixture_path("s2.json"), "--format", "table")
    assert out.returncode == 0
    assert "ok = True" in out.stdout


def test_minimal_model_output_parses_and_cache_transparent(tmp_path):
    plain = run_cli("minimal-model", fixture_path("s2.json"), "--max-degree", "6")
    assert plain.returncode == 0
    doc = json.loads(plain.stdout)
    M = build_dga(doc)
    assert [g.degree for g in M.gens] == [2, 3]
    assert doc["annotations"]["q_dims"] == {"2": 1, "3": 1}
    cache_dir = str(tmp_path / "cache")
    first = run_cli("minimal-model", fixture_path("s2.json"), "--max-degree", "6",
                    env_extra={"HODGEPATH_CACHE": cache_dir})
    second = run_cli("minimal-model", fixture_path("s2.json"), "--max-degree", "6",
                     env_extra={"HODGEPATH_CACHE": cache_dir})
    assert first.stdout == second.stdout == plain.stdout
    assert os.listdir(cache_dir)  # the cache was actually used


def test_cache_key_follows_engine_sources(tmp_path, monkeypatch):
    import shutil
    from hodgepath import __version__, cache
    doc = read_fixture("s2.json")
    key = cache.cache_key(doc, 6)
    assert cache.cache_key(doc, 6) == key
    src = os.path.join(PKG_ROOT, "src", "hodgepath")
    assert cache.engine_version() == f"{__version__}+{cache.source_fingerprint(src)}"
    # any edit of an engine source changes the fingerprint ...
    for name in os.listdir(src):
        if name.endswith(".py"):
            shutil.copy(os.path.join(src, name), tmp_path / name)
    assert cache.source_fingerprint(tmp_path) == cache.source_fingerprint(src)
    with open(tmp_path / "linalg.py", "a", encoding="utf-8") as fh:
        fh.write("\n")
    edited = cache.source_fingerprint(tmp_path)
    assert edited != cache.source_fingerprint(src)
    # ... and with it the key
    monkeypatch.setattr(cache, "engine_version", lambda: f"{__version__}+{edited}")
    assert cache.cache_key(doc, 6) != key


def test_wedge_model_via_cli():
    out = run_cli("minimal-model", fixture_path("s2_wedge_s5.json"),
                  "--max-degree", "6")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["annotations"]["q_dims"] == {"2": 1, "3": 1, "5": 1}
    assert len(doc["generators"]) == 3


@pytest.mark.parametrize("command", ["minimal-model", "homotopy-groups"])
def test_input_with_d_squared_nonzero_is_a_verified_failure(command):
    """d(z6) = x2^2*y3 gives d^2(z6) = x2^4: no model is certified."""
    out = run_cli(command, fixture_path("free_d2_nonzero.json"), "--max-degree", "9")
    assert out.returncode == 1, out.stderr
    assert out.stdout == ""
    assert "does not square to zero" in out.stderr and "z6" in out.stderr
    assert "Traceback" not in out.stderr


def test_nonminimal_free_model_via_cli():
    """M(S2) plus a contractible pair over Q(sqrt -3): the pair is cut off."""
    out = run_cli("minimal-model", fixture_path("free_nonminimal.json"), "--max-degree", "8")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert [g["name"] for g in doc["generators"]] == ["v2_00", "v3_00"]
    assert doc["annotations"]["q_dims"] == {"2": 1, "3": 1}


def test_cp2_homotopy_groups_cli():
    out = run_cli("homotopy-groups", fixture_path("cp2.json"), "--max-degree", "6")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["dims"] == {"2": 1, "5": 1}


def test_pi_star_cli():
    out = run_cli("pi-star", "--mhd", fixture_path("p1toy.json"),
                  "--model", fixture_path("p1toy_model.json"),
                  "--comparison", fixture_path("p1toy_comparison.json"),
                  "--max-degree", "4")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["degrees"]["2"]["types"] == {"(1,1)": 1}


def test_rectify_cli_revalidates():
    out = run_cli("rectify", fixture_path("example41.json"))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    from hodgepath import build_diagram, validate_diagram
    D = build_diagram(doc)
    assert validate_diagram(D).ok


def test_compose_ho_cli():
    out = run_cli("compose-ho", fixture_path("example41.json"),
                  fixture_path("example41_g.json"))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["ok"]
    assert doc["maps"]["0"] == {"a1": "c1"}


def test_homotopy_verify_cli_failure_path():
    with open(fixture_path("homotopy_const.json")) as fh:
        doc = json.load(fh)
    doc["g"] = {"c2": "2*e2"}  # endpoints no longer match
    bad_path = fixture_path("_tmp_bad_homotopy.json")
    with open(bad_path, "w") as fh:
        json.dump(doc, fh)
    try:
        out = run_cli("homotopy-verify", bad_path)
        assert out.returncode == 1
        rep = json.loads(out.stdout)
        assert any("endpoint" in f["check"] for f in rep["failures"])
    finally:
        os.unlink(bad_path)


def test_unknown_name_in_a_path_expression_exits_2(tmp_path):
    """h lives in the path algebra of the target; a name neither it nor the
    target knows is a document error with its JSON path, not a traceback."""
    doc = read_fixture("homotopy_const.json")
    doc["h"] = {"c2": "e2 + q9*t*dt"}
    bad = tmp_path / "bad_h.json"
    bad.write_text(json.dumps(doc))
    out = run_cli("homotopy-verify", str(bad))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == ("error: $.h.c2: bad expression 'e2 + q9*t*dt': "
                          "unknown name 'q9' (at column 5)\n")


@pytest.mark.parametrize("field, expr, message", [
    ("f", "1/0*e2", "Fraction(1, 0)"),
    ("g", "e2 + q9", "unknown name 'q9'"),
    ("h", "e2 + e2*t^5", "exceeds the t-budget 4"),
    ("h", "(" * 400 + "e2" + ")" * 400, "recursion"),
    ("h", "e2^99999999", "exponent"),
], ids=["zero_division", "unknown_name", "budget_overflow", "deep_nesting",
        "huge_exponent"])
def test_bad_expressions_exit_2_with_their_path(tmp_path, field, expr, message):
    """What a bad expression raises is a document error at its JSON path."""
    doc = read_fixture("homotopy_const.json")
    doc[field] = {"c2": expr}
    bad = tmp_path / "bad_expr.json"
    bad.write_text(json.dumps(doc))
    out = run_cli("homotopy-verify", str(bad))
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith(f"error: $.{field}.c2: bad expression ")
    assert message in out.stderr
    assert "Traceback" not in out.stderr


def test_huge_power_in_a_dga_exits_2():
    """A power is refused before it is multiplied out, at its JSON path."""
    out = run_cli("check", fixture_path("ms2_huge_power.json"), timeout=10)
    assert out.returncode == 2, out.stderr
    assert out.stderr == ("error: $.generators[1].d: bad expression 'e2^99999999': "
                          "exponent 99999999 exceeds 64 (at column 3)\n")


def test_expression_cut_short_exits_2_at_its_end():
    out = run_cli("check", fixture_path("expr_cut_short.json"), timeout=10)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr == ("error: $.generators[1].d: bad expression 'e2 +': "
                          "expected a term (at column 4)\n")


def test_library_fault_while_parsing_propagates(monkeypatch):
    """A fault inside parse is not read as a malformed document."""
    from hodgepath import algebra

    def broken(text, resolve, unit, one=1):
        raise NameError("name 'parse_expression' is not defined")

    monkeypatch.setattr(algebra, "parse_expression", broken)
    with pytest.raises(NameError):
        build_dga(read_fixture("ms2_free.json"))
    with pytest.raises(NameError):
        run_main("check", fixture_path("ms2_free.json"))


# ---------------------------------------------------------------------------
# the exit-code contract under one-field mutations
# ---------------------------------------------------------------------------

WRONG_VALUES = (None, True, 0, -1, 1.5, "x", [], [1], {})


def _positions(node, at=()):
    """Every position in a JSON value: the root, then each member and element."""
    yield at
    if isinstance(node, (dict, list)):
        for k, v in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _positions(v, at + (k,))


def _replace(doc, at, value):
    if not at:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in at[:-1]:
        parent = parent[step]
    parent[at[-1]] = value
    return doc


@functools.cache
def _mutants():
    """(fixture, position, value, document): each fixture with one position set to a wrong value."""
    from helpers import FIXDIR
    out = []
    for name in sorted(os.listdir(FIXDIR)):
        doc = read_fixture(name)
        for at in _positions(doc):
            out.extend((name, at, v, _replace(doc, at, v)) for v in WRONG_VALUES)
    return tuple(out)


def test_one_field_mutants_build_or_raise_document_errors():
    escapes = []
    for name, at, value, doc in _mutants():
        try:
            parse_document(load_document(json.dumps(doc)))
        except (DocumentError, CutoffError):
            pass
        except Exception as e:  # anything else would exit 1 with a traceback
            escapes.append((name, at, value, repr(e)))
    assert len(_mutants()) >= 5370
    assert escapes == []


def test_cli_on_one_field_mutants_never_tracebacks(tmp_path):
    def check(mutant):
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(mutant[3]), encoding="utf-8")
        out = run_cli("check", str(path))
        assert out.returncode in (0, 1, 2), mutant[:3]
        assert "Traceback" not in out.stderr, mutant[:3]

    try:
        import hypothesis
    except ImportError:
        for seed in range(12):
            check(random.Random(seed).choice(_mutants()))
        return
    hypothesis.settings(derandomize=True, max_examples=12, deadline=None, database=None)(
        hypothesis.given(hypothesis.strategies.sampled_from(_mutants()))(check))()


# ---------------------------------------------------------------------------
# the exit-code contract under name swaps: one referenced name replaced by a
# name declared elsewhere in the document, or by a name declared nowhere
# ---------------------------------------------------------------------------

UNDECLARED = "zz_undeclared"
# names an expression resolves besides its algebra's: the path variable and
# its differential, and the square root of a quadratic field
PATH_NAMES = {"t", "dt"}
FIELD_NAMES = {"sqrtd", "i"}
# a comparison carries no diagrams: pi-star builds its source, the model at
# every vertex, and takes its target from the mixed Hodge diagram
COMPARISONS = {"p1toy_comparison.json": ("p1toy.json", "p1toy_model.json"),
               "p1toy_comparison_drops_class.json": ("p1toy.json", "p1toy_model.json")}


def _algebra_names(dga):
    return {e["name"] for e in dga.get("generators", []) + dga.get("basis", [])}


def _expr_slots(at, text, scope, in_key=False):
    for tok, pos in tokenize(text):
        if isinstance(tok, tuple) and tok[0] == "name":
            yield at, in_key, pos, pos + len(tok[1]), scope


def _map_slots(at, images, src, dst, extra=frozenset()):
    """Slots of the images of a map from the dga document src to dst: each key
    names an element of src, each expression is parsed in dst."""
    scope = _algebra_names(dst) | extra
    if dst.get("field", "Q") != "Q":
        scope |= FIELD_NAMES
    for k, v in images.items():
        yield at + (k,), True, 0, len(k), _algebra_names(src)
        yield from _expr_slots(at + (k,), v, scope)


def _dga_slots(doc, at):
    names = _algebra_names(doc)
    for i, g in enumerate(doc.get("generators", [])):
        if "d" in g:
            yield from _expr_slots(at + ("generators", i, "d"), g["d"], names)
    for k, v in doc.get("products", {}).items():
        a = k.partition("*")[0]
        yield at + ("products", k), True, 0, len(a), names
        yield at + ("products", k), True, len(a) + 1, len(k), names
        yield from _expr_slots(at + ("products", k), v, names)
    for field in ("differentials", "augmentation"):
        for k, v in doc.get(field, {}).items():
            yield at + (field, k), True, 0, len(k), names
            yield from _expr_slots(at + (field, k), v, names)


def _diagram_slots(doc, at):
    algebras = {v["name"]: v["algebra"] for v in doc["vertices"]}
    for i, v in enumerate(doc["vertices"]):
        yield from _dga_slots(v["algebra"], at + ("vertices", i, "algebra"))
    for i, a in enumerate(doc["arrows"]):
        for end in ("from", "to"):
            yield at + ("arrows", i, end), False, 0, len(a[end]), set(algebras)
        yield from _map_slots(at + ("arrows", i, "map"), a["map"], algebras[a["from"]],
                              algebras[a["to"]])


def _name_slots(name, doc):
    """(position, in a key?, start, end, names in scope) for each name doc refers to.

    The name is text[start:end] of the string at position, or of the last key
    of the position's path; scope holds the names it may take there.
    """
    kind = doc["kind"]
    if kind == "dga":
        yield from _dga_slots(doc, ())
    elif kind in ("diagram", "mhd"):
        yield from _diagram_slots(doc, ())
    elif kind == "homotopy":
        yield from _dga_slots(doc["source"], ("source",))
        yield from _dga_slots(doc["target"], ("target",))
        for f in ("f", "g", "h"):
            yield from _map_slots((f,), doc[f], doc["source"], doc["target"],
                                  PATH_NAMES if f == "h" else frozenset())
    elif kind == "homorphism":
        if name in COMPARISONS:
            target, model = (read_fixture(n) for n in COMPARISONS[name])
            source = dict(target, vertices=[dict(v, algebra=model) for v in target["vertices"]])
        else:
            source, target = doc["source"], doc["target"]
            yield from _diagram_slots(source, ("source",))
            yield from _diagram_slots(target, ("target",))
        src = {v["name"]: v["algebra"] for v in source["vertices"]}
        dst = {v["name"]: v["algebra"] for v in target["vertices"]}
        for v, images in doc["maps"].items():
            yield ("maps", v), True, 0, len(v), set(src)
            yield from _map_slots(("maps", v), images, src[v], dst[v])
        arrows = {a["name"]: a for a in source["arrows"]}
        for u, images in doc["homotopies"].items():
            yield ("homotopies", u), True, 0, len(u), set(arrows)
            a = arrows[u]
            yield from _map_slots(("homotopies", u), images, src[a["from"]], dst[a["to"]],
                                  PATH_NAMES)


def _declared(node, out):
    """Every name declared in a document: algebra elements, vertices, arrows."""
    if isinstance(node, dict):
        for key in ("generators", "basis", "vertices", "arrows"):
            if isinstance(node.get(key), list):
                out.update(e["name"] for e in node[key])
        for v in node.values():
            _declared(v, out)
    elif isinstance(node, list):
        for v in node:
            _declared(v, out)
    return out


def _swap_name(doc, at, in_key, start, end, new):
    """doc with text[start:end] of the string or key at `at` replaced by new,
    and the JSON path of the swapped string."""
    doc = json.loads(json.dumps(doc))
    parent = functools.reduce(lambda node, step: node[step], at[:-1], doc)
    last = at[-1]
    if in_key:
        last = last[:start] + new + last[end:]
        parent[last] = parent.pop(at[-1])
    else:
        parent[last] = parent[last][:start] + new + parent[last][end:]
    where = "$" + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in at[:-1] + (last,))
    return doc, where


@functools.cache
def _name_mutants():
    """(fixture, JSON path of the swap, new name, document), for every name each
    expression-carrying fixture refers to: one swap for a name declared elsewhere
    in the document, chosen by a generator seeded with the fixture's name, and
    one for an undeclared name."""
    from helpers import FIXDIR
    out = []
    for name in sorted(os.listdir(FIXDIR)):
        doc = read_fixture(name)
        declared = _declared(doc, set())
        for other in COMPARISONS.get(name, ()):
            _declared(read_fixture(other), declared)
        rng = random.Random(name)
        for at, in_key, start, end, scope in _name_slots(name, doc):
            elsewhere = sorted(n for n in declared - scope - PATH_NAMES - FIELD_NAMES
                               if n.isidentifier())
            for new in ([rng.choice(elsewhere)] if elsewhere else []) + [UNDECLARED]:
                mutant, where = _swap_name(doc, at, in_key, start, end, new)
                out.append((name, where, new, mutant))
    return tuple(out)


def _name_mutant_argv(name, path):
    if name in COMPARISONS:
        mhd, model = COMPARISONS[name]
        return ["pi-star", "--mhd", fixture_path(mhd), "--model", fixture_path(model),
                "--comparison", str(path), "--max-degree", "4"]
    return ["check", str(path)]


def _located_at_or_above(stderr, where):
    """stderr is one document error whose JSON path is where or an ancestor of it."""
    assert stderr.startswith("error: $") and stderr.count("\n") == 1, stderr
    at = stderr[len("error: "):].split(": ")[0]
    return where == at or where.startswith((at + ".", at + "["))


def test_name_mutants_exit_2_with_the_path_of_the_swap(tmp_path):
    """Every swap is a document error located at the swapped name or above it,
    in under 5 s; the CLI runs in this process, so a traceback fails the test."""
    from hodgepath import cli
    kinds = set()
    for name, where, new, doc in _name_mutants():
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(_name_mutant_argv(name, path))
        assert time.perf_counter() - start < 5, (name, where, new)
        assert rc == 2 and out.getvalue() == "", (name, where, new, err.getvalue())
        assert _located_at_or_above(err.getvalue(), where), (name, where, new, err.getvalue())
        kinds.add((read_fixture(name)["kind"], new == UNDECLARED))
    assert len(_name_mutants()) >= 380
    # no fixture is a bare diagram, and a dga document declares no name
    # outside its one algebra
    assert kinds == {(k, u) for k in ("mhd", "homorphism", "homotopy") for u in (False, True)} \
        | {("dga", True)}


def test_cli_on_name_mutants_never_tracebacks(tmp_path):
    def check(mutant):
        name, where, new, doc = mutant
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = run_cli(*_name_mutant_argv(name, path), timeout=5)
        assert out.returncode == 2, mutant[:3]
        assert "Traceback" not in out.stderr, mutant[:3]
        assert _located_at_or_above(out.stderr, where), (mutant[:3], out.stderr)

    hypothesis = pytest.importorskip("hypothesis")
    hypothesis.settings(derandomize=True, max_examples=8, deadline=None, database=None)(
        hypothesis.given(hypothesis.strategies.sampled_from(_name_mutants()))(check))()


def _cross_document_mutants():
    """(JSON path of the swap, new name, document) for each name the comparison
    takes from the model and mhd documents (vertex and arrow keys, generator
    keys, basis names in expressions), swapped for every other name declared
    in any of the three documents and for an undeclared name."""
    name = "p1toy_comparison.json"
    doc = read_fixture(name)
    declared = _declared(doc, set())
    for other in COMPARISONS[name]:
        _declared(read_fixture(other), declared)
    out = []
    for at, in_key, start, end, _ in _name_slots(name, doc):
        for new in sorted(declared) + [UNDECLARED]:
            mutant, where = _swap_name(doc, at, in_key, start, end, new)
            if mutant != doc:
                out.append((where, new, mutant))
    return out


def test_cross_document_mutants_of_the_comparison(tmp_path):
    """Each swap exits 2 at or above the swapped name's path, or exits 1 with a
    failing precondition, or exits 0 with the original's stdout, in under 5 s;
    the CLI runs in this process, so a traceback fails the test."""
    from hodgepath import cli

    def run(doc):
        path = tmp_path / "comparison.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(_name_mutant_argv("p1toy_comparison.json", path))
        assert time.perf_counter() - start < 5
        return rc, out.getvalue(), err.getvalue()

    rc0, out0, _ = run(read_fixture("p1toy_comparison.json"))
    assert rc0 == 0
    exits, witnesses = [], []
    for where, new, doc in _cross_document_mutants():
        rc, out, err = run(doc)
        if rc == 2:
            assert out == "" and _located_at_or_above(err, where), (where, new, err)
        elif rc == 1:
            assert err == "", (where, new, err)
            report = json.loads(out)
            assert not report["ok"]
            assert any(not p["ok"] for p in report["preconditions"].values()), (where, new)
            witnesses += report["preconditions"]["comparison"]["witnesses"]
        else:
            assert rc == 0 and out == out0, (where, new, rc)
        exits.append(rc)
    # 20 names, each swapped for the 8 other declared names and an undeclared one
    assert len(exits) == 180
    assert exits.count(1) and exits.count(2)
    # a2 -> one has no H(rho): a witness, not an error without a report
    assert {"check": "degree", "witness": "vertex 0, generator a2"} in witnesses


def test_cli_on_cross_document_mutants_never_tracebacks(tmp_path):
    for where, new, doc in random.Random(23).sample(_cross_document_mutants(), 6):
        path = tmp_path / "comparison.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = run_cli(*_name_mutant_argv("p1toy_comparison.json", path), timeout=5)
        assert out.returncode in (1, 2), (where, new)
        assert "Traceback" not in out.stderr, (where, new)


def test_a_comparison_that_drops_a_class_fails_pi_star():
    """a2 -> 0 at every vertex and in every homotopy: a valid ho-morphism whose
    vertex maps miss H^2, so pi-star exits 1 on the quasi-isomorphism check."""
    from hodgepath import mixed_hodge_dga_diagram, validate_ho_morphism
    D = build_mhd(read_fixture("p1toy.json"))
    M = build_dga(read_fixture("p1toy_model.json"))
    doc = read_fixture("p1toy_comparison_drops_class.json")
    doc.pop("source")
    doc.pop("target")
    f = build_homorphism(doc, source=mixed_hodge_dga_diagram(M, D, budget=4),
                         target=D.diagram)
    assert validate_ho_morphism(f).ok
    out = run_cli("pi-star", "--mhd", fixture_path("p1toy.json"),
                  "--model", fixture_path("p1toy_model.json"),
                  "--comparison", fixture_path("p1toy_comparison_drops_class.json"),
                  "--max-degree", "4")
    assert out.returncode == 1, out.stderr
    assert out.stderr == ""
    report = json.loads(out.stdout)
    assert report["preconditions"]["comparison"] == {
        "ok": False, "witnesses": [{"check": "level-wise quasi-isomorphism"}]}
    assert all(report["preconditions"][p]["ok"] for p in ("minimal", "dec-weight-mhs"))


def test_pi_star_past_the_targets_horizon_exits_2(tmp_path):
    """Vertex algebras with horizon 3, a model with horizon 6: asking for more
    than degree 3 exits 2 with the cutoff, not with a report read from
    degrees past the targets' horizon."""
    mhd = read_fixture("p1toy.json")
    for vertex in mhd["vertices"]:
        vertex["algebra"]["max_degree"] = 3
    model = read_fixture("p1toy_model.json")
    model["max_degree"] = 6
    (tmp_path / "mhd.json").write_text(json.dumps(mhd), encoding="utf-8")
    (tmp_path / "model.json").write_text(json.dumps(model), encoding="utf-8")
    argv = ["pi-star", "--mhd", str(tmp_path / "mhd.json"),
            "--model", str(tmp_path / "model.json"),
            "--comparison", fixture_path("p1toy_comparison.json")]
    for top in ("4", "9"):
        out = run_cli(*argv, "--max-degree", top)
        assert out.returncode == 2, (top, out.stdout)
        assert out.stdout == ""
        assert "cohomology degree 3 outside 0..2" in out.stderr
    assert run_cli(*argv).returncode == 0
    assert run_cli(*argv, "--max-degree", "3").returncode == 0


def _jsonschema_is_valid():
    """doc, kind -> whether jsonschema (draft-07) accepts doc under the kind's schema."""
    import warnings
    jsonschema = pytest.importorskip("jsonschema")
    schema_dir = os.path.join(PKG_ROOT, "src", "hodgepath", "schemas")
    store = {}
    for name in os.listdir(schema_dir):
        with open(os.path.join(schema_dir, name)) as fh:
            store[name] = json.load(fh)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        validators = {
            name[:-len(".json")]: jsonschema.Draft7Validator(
                schema, resolver=jsonschema.RefResolver(name, schema, store=store))
            for name, schema in store.items()}
    return lambda doc, kind: validators[kind].is_valid(doc)


def _validator_accepts(doc, kind):
    from hodgepath.documents import _validate
    try:
        _validate(doc, "$", f"{kind}.json")
    except DocumentError:
        return False
    return True


def test_validator_agrees_with_jsonschema_on_mutants():
    is_valid = _jsonschema_is_valid()
    kinds = {}
    disagree = []
    for name, at, value, doc in _mutants():
        kind = kinds.setdefault(name, read_fixture(name)["kind"])
        if _validator_accepts(doc, kind) != is_valid(doc, kind):
            disagree.append((name, at, value))
    assert disagree == []


def test_validator_refuses_integral_floats_unlike_jsonschema():
    """The one known difference: 4.0 is an integer to jsonschema but not to hodgepath."""
    is_valid = _jsonschema_is_valid()
    from helpers import FIXDIR
    checked = 0
    for name in sorted(os.listdir(FIXDIR)):
        doc = read_fixture(name)
        for at in _positions(doc):
            value = functools.reduce(lambda node, step: node[step], at, doc)
            if type(value) is int:
                mutant = _replace(doc, at, float(value))
                assert is_valid(mutant, doc["kind"]), (name, at)
                assert not _validator_accepts(mutant, doc["kind"]), (name, at)
                checked += 1
    assert checked >= 100

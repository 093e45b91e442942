"""The four seeded workloads of the benchmark and the oracles for their outputs.

Each workload turns a seed into a list of `Op`s.  Set-up (`generate`) draws
only plain data from the seed: structure constants, t-polynomial
coefficients, op order, and the documents the CLI reads.  The library objects
are built inside the op, so every pass pays for fresh algebras and no object
cache carries over from one pass to the next.

Ops call the library through module attributes (`hp.minimal_model`, not a
name imported by value), so that the tracer's patched bindings are the ones
used.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("model_sweep", "path_lifts", "filtered_pages", "cli_fixtures")


class OracleError(Exception):
    """An op's output does not match its oracle."""


@dataclass
class Op:
    """One closed-loop operation.

    `run` performs it and returns the raw result (this is what is timed).
    `canon` turns the result into canonical text whose sha256 is the op's
    digest.  `verify` runs the seed-independent checks; it is called on the
    first pass only, later passes must reproduce the first pass's digest.
    """

    op_id: str
    run: Callable[[], Any]
    canon: Callable[[Any], str]
    verify: Callable[[Any], None]
    deadline_s: float = 60.0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _require(cond, what):
    if not cond:
        raise OracleError(what)


def _rational(rng, nums=(-3, -2, -1, 1, 2, 3), dens=(1, 2, 3)) -> Fraction:
    """A small non-zero rational; small entries keep run-to-run cost steady."""
    return Fraction(rng.choice(nums), rng.choice(dens))


def _canon_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# model_sweep: minimal models of table cdgas (one-shot elimination path)
# ---------------------------------------------------------------------------

def _wedge(degrees):
    basis = [("one", 0)] + [(f"x{i}_{d}", d) for i, d in enumerate(degrees)]
    return basis, {}


def _truncated_cp(k):
    basis = [("one", 0)] + [(f"c{2 * j}", 2 * j) for j in range(1, k + 1)]
    products = {(f"c{2 * i}", f"c{2 * j}"): {f"c{2 * (i + j)}": Fraction(1)}
                for i in range(1, k + 1) for j in range(i, k + 1) if i + j <= k}
    return basis, products


def _s2xs2():
    basis = [("one", 0), ("a2", 2), ("b2", 2), ("ab4", 4)]
    return basis, {("a2", "b2"): {"ab4": Fraction(1)}}


# name -> (basis, products, horizon N); hyperbolic wedges first, then the
# formal elliptic shapes where the construction stops early.
MODEL_SHAPES = {
    "s2vs3": (*_wedge([2, 3]), 11),
    "s2vs3vs4": (*_wedge([2, 3, 4]), 10),
    "s2vs2": (*_wedge([2, 2]), 9),
    "s3vs3": (*_wedge([3, 3]), 14),
    "cp3": (*_truncated_cp(3), 12),
    "s2xs2": (*_s2xs2(), 10),
}


def _table_mul(basis, products, a, b):
    """Product of two basis names in the table, with the Koszul sign."""
    deg = dict(basis)
    if a == "one":
        return {b: Fraction(1)}
    if b == "one":
        return {a: Fraction(1)}
    if (a, b) in products:
        return dict(products[(a, b)])
    if (b, a) in products:
        sign = -1 if (deg[a] * deg[b]) % 2 else 1
        return {k: sign * c for k, c in products[(b, a)].items()}
    return {}


def gauss_jordan(rows):
    """Reduced row echelon form of a Fraction matrix (first non-zero pivots)."""
    R = [list(r) for r in rows]
    rank = 0
    for col in range(len(R[0])):
        sel = next((r for r in range(rank, len(R)) if R[r][col] != 0), None)
        if sel is None:
            continue
        R[rank], R[sel] = R[sel], R[rank]
        inv = 1 / R[rank][col]
        R[rank] = [inv * a for a in R[rank]]
        for r in range(len(R)):
            if r != rank and R[r][col] != 0:
                c = R[r][col]
                R[r] = [a - c * b for a, b in zip(R[r], R[rank])]
        rank += 1
    return R


def _inverse(mat):
    """Exact inverse of an invertible square Fraction matrix."""
    n = len(mat)
    reduced = gauss_jordan([list(row) + [Fraction(int(i == j)) for j in range(n)]
                            for i, row in enumerate(mat)])
    return [row[n:] for row in reduced]


def random_basis_change(basis, products, rng):
    """The same algebra written in a random basis of each positive degree.

    New basis e'_i = sum_j P[i][j] e_j with P = (unit lower triangular) x
    (non-zero diagonal), so the structure constants become random non-zero
    rationals while the isomorphism class, and so every q_dim, is unchanged.
    """
    by_deg = {}
    for name, d in basis:
        if name != "one":
            by_deg.setdefault(d, []).append(name)
    change, inverse = {}, {}
    for d, names in by_deg.items():
        m = len(names)
        P = [[(_rational(rng) if j == i else
               (Fraction(rng.randint(-2, 2)) * _rational(rng) if j < i else Fraction(0)))
              for j in range(m)] for i in range(m)]
        Q = _inverse(P)
        for i, nm in enumerate(names):
            change[nm] = {names[j]: P[i][j] for j in range(m) if P[i][j] != 0}
            inverse[nm] = {names[j]: Q[i][j] for j in range(m) if Q[i][j] != 0}
    change["one"] = {"one": Fraction(1)}
    inverse["one"] = {"one": Fraction(1)}
    order = [name for name, _ in basis]
    new_products = {}
    for i, a in enumerate(order[1:], 1):
        for b in order[i:]:
            old = {}
            for ja, ca in change[a].items():
                for jb, cb in change[b].items():
                    for k, ck in _table_mul(basis, products, ja, jb).items():
                        old[k] = old.get(k, 0) + ca * cb * ck
            # old basis e_m = sum_r Q[m][r] e'_r
            new = {}
            for m, cm in old.items():
                for r, q in inverse[m].items():
                    new[r] = new.get(r, 0) + cm * q
            new = {k: c for k, c in new.items() if c != 0}
            if new:
                new_products[(a, b)] = new
    return new_products


def _model_ops(hp, seed, expected):
    rng = random.Random(f"model_sweep:{seed}")
    ops = []
    for shape, (basis, products, N) in MODEL_SHAPES.items():
        table = random_basis_change(basis, products, rng)
        model_seed = rng.randrange(2 ** 32)
        want = expected["model_sweep"]["q_dims"][shape]

        def run(shape=shape, basis=basis, table=table, N=N, model_seed=model_seed):
            A = hp.TableCdga([hp.TableBasisElement(nm, d) for nm, d in basis], N,
                             unit="one", name=shape,
                             products={k: {kk: hp.Scalar(c) for kk, c in v.items()}
                                       for k, v in table.items()})
            model = hp.minimal_model(A, rng=random.Random(model_seed))
            return model, hp.homotopy_groups(model)

        def canon(res):
            model, groups = res
            M = model.M
            return _canon_json({
                "model": hp.documents.dga_doc(M),
                "rho": {g.name: hp.element_expr(model.rho(M.generator(g.name)))
                        for g in M.gens},
                "certificate": {str(n): r for n, r in model.certificate.items()},
                "q_dims": groups["dims"]})

        def verify(res, want=want):
            model, groups = res
            got = {str(k): v for k, v in groups["dims"].items()}
            _require(got == want, f"q_dims {got} != {want}")
            bad = [n for n, r in model.certificate.items()
                   if not r.get("provisional") and not r["iso"]]
            _require(not bad, f"certificate not iso in degrees {bad}")
            _require(hp.is_quasi_iso(model.rho, model.N - 1),
                     "rho is not a quasi-isomorphism when recomputed")

        ops.append(Op(f"model:{shape}", run, canon, verify))
    return ops


# ---------------------------------------------------------------------------
# path_lifts: lifting through path objects (repeated-solve path)
# ---------------------------------------------------------------------------

LIFT_BUDGETS = (4, 5)
CHAIN_BUDGET = 3
MAPPING_PATH_BUDGET = 4


def _t_poly_dt(k, coeffs):
    """sum_i coeffs[i] * t^(i+1) dt in the keyed path algebra k."""
    out = k.zero()
    power = k.t()
    for c in coeffs:
        out = out + power * k.dt() * c
        power = power * k.t()
    return out


def _lift_op(hp, budget, c0, c1):
    def run():
        B = hp.FreeCdga([hp.Generator("b1", 1)], 5, name="B")
        P = hp.path_of(B, budget=budget)
        k = hp.keyed(P)
        C = hp.FreeCdga([hp.Generator("e2", 2)], 5, name="C")
        d0 = hp.delta(P, 0)
        z = k.include(B.generator("b1"))
        f0 = hp.FreeMorphism(C, k, {"e2": z * _t_poly_dt(k, c0)}, name="f0")
        f1 = hp.FreeMorphism(C, k, {"e2": z * _t_poly_dt(k, c1)}, name="f1")
        vf0 = hp.compose(d0, f0)
        h = hp.Homotopy(vf0, hp.compose(d0, f1),
                        hp.constant_homotopy(vf0, budget=budget).map)
        lifted = hp.lift_homotopy(C, d0, f0, f1, h)
        ok = hp.verify_homotopy(lifted, f0, f1, upto=3).ok
        return lifted, C, ok

    def canon(res):
        lifted, C, ok = res
        return _canon_json({"ok": ok,
                            "e2": hp.element_expr(lifted.map(C.generator("e2")))})

    def verify(res):
        _require(res[2], "lifted homotopy fails verify_homotopy")

    return Op(f"lift:b{budget}", run, canon, verify)


def square_diagram(hp, budget, twist):
    """Two-vertex zig-zag A -> B with a genuinely non-constant square homotopy.

    f's arrow homotopy is b1 + twist(t) dt; returns (DA, f).
    """
    I = hp.IndexCategory({"0": 0, "1": 1}, [("u", "0", "1")])
    A0 = hp.FreeCdga([hp.Generator("a1", 1)], 5, name="A0")
    A1 = hp.FreeCdga([hp.Generator("a1", 1)], 5, name="A1")
    B0 = hp.FreeCdga([hp.Generator("b1", 1)], 5, name="B0")
    B1 = hp.FreeCdga([hp.Generator("b1", 1)], 5, name="B1")
    phiA = hp.FreeMorphism(A0, A1, {"a1": A1.generator("a1")}, name="phiA")
    phiB = hp.FreeMorphism(B0, B1, {"b1": B1.generator("b1")}, name="phiB")
    DA = hp.Diagram(I, {"0": A0, "1": A1}, arrows={"u": phiA}, budget=budget, name="A")
    DB = hp.Diagram(I, {"0": B0, "1": B1}, arrows={"u": phiB}, budget=budget, name="B")
    f0 = hp.FreeMorphism(A0, B0, {"a1": B0.generator("b1")}, name="f0")
    f1 = hp.FreeMorphism(A1, B1, {"a1": B1.generator("b1")}, name="f1")
    k = hp.keyed(DB.vertex_path("1"))
    F = hp.FreeMorphism(A0, k, {"a1": k.include(B1.generator("b1"))
                                + _t_poly_dt(k, twist)}, name="F")
    f = hp.HoMorphism(DA, DB, {"0": f0, "1": f1}, {"u": F}, name="f")
    return DA, f


def _chain_op(hp, twist):
    budget = CHAIN_BUDGET

    def run():
        DA, f = square_diagram(hp, budget, twist)
        gen = hp.compose_ho(f, hp.identity_ho(DA))
        consts = {v: hp.constant_homotopy(f.maps[v], budget) for v in ("0", "1")}
        h1 = hp.build_ho_homotopy(gen, f, consts)
        total = hp.diagrams.ho_homotopy_add(h1, hp.reflexive_ho_homotopy(f))
        ok = hp.validate_ho_homotopy(total, upto=3).ok
        return total, ok

    def canon(res):
        total, ok = res
        out = {"ok": ok, "vertex": {}, "arrows": {}}
        for v, h in sorted(total.vertex.items()):
            src = h.source
            out["vertex"][v] = {g.name: hp.element_expr(h.map(src.generator(g.name)))
                                for g in src.gens}
        for u, m in sorted(total.arrows.items()):
            src = m.source
            out["arrows"][u] = {g.name: hp.element_expr(m(src.generator(g.name)))
                                for g in src.gens}
        return _canon_json(out)

    def verify(res):
        _require(res[1], "ho-homotopy sum fails validate_ho_homotopy")

    return Op(f"ho_chain:b{budget}", run, canon, verify)


def _mapping_path_op(hp, coeffs):
    budget = MAPPING_PATH_BUDGET
    c0, c1, c2 = coeffs

    def run():
        A = hp.FreeCdga([hp.Generator("x1", 1), hp.Generator("y2", 2)], 5, name="A")
        B = hp.FreeCdga([hp.Generator("x1", 1)], 5, name="B")
        v = hp.FreeMorphism(A, B, {"x1": B.generator("x1"), "y2": B.zero()}, name="v")
        mp = hp.mapping_path(v, budget=budget)
        h = mp.contraction()
        contraction_ok = hp.verify_homotopy(h, h.f, h.g, upto=3).ok
        kB = hp.keyed(hp.path_of(B, budget))
        x1, xy = A.generator("x1"), A.generator("x1") * A.generator("y2")
        a0, a1 = x1 + xy * c0, x1 + xy * c1
        bump = kB.t() - kB.t() * kB.t()
        bt = kB.include(B.generator("x1")) * (kB.unit() + bump * c2)
        at = hp.p5_lift(v, a0, a1, bt)
        PA = hp.path_of(A, budget)
        kA = hp.keyed(PA)
        lift_ok = (kA.evaluate(at, 0) == a0 and kA.evaluate(at, 1) == a1
                   and hp.path_linear_map(v, PA, kB)(at) == bt)
        return at, contraction_ok, lift_ok

    def canon(res):
        at, contraction_ok, lift_ok = res
        return _canon_json({"at": hp.element_expr(at), "contraction": contraction_ok,
                            "p5": lift_ok})

    def verify(res):
        _require(res[1], "mapping-path contraction fails verify_homotopy")
        _require(res[2], "p5_lift does not meet its endpoints and projection")

    return Op(f"mapping_path:b{budget}", run, canon, verify)


def _path_ops(hp, seed, expected):
    rng = random.Random(f"path_lifts:{seed}")
    ops = [_lift_op(hp, b, [_rational(rng), _rational(rng)],
                    [_rational(rng), _rational(rng)]) for b in LIFT_BUDGETS]
    ops.append(_chain_op(hp, [_rational(rng)]))
    ops.append(_mapping_path_op(hp, [_rational(rng) for _ in range(3)]))
    return ops


# ---------------------------------------------------------------------------
# filtered_pages: spectral pages and decalage of filtered paths, Hodge checks
# ---------------------------------------------------------------------------

RPATH_BUDGETS = (4,)
CP_DEGREES = (2, 3, 4, 5)


def _weighted_free(hp, c):
    """x2 at weight 0, y3 and z3 at weight 1, d y3 = c x2^2."""
    A = hp.FreeCdga([hp.Generator("x2", 2, weight=0), hp.Generator("y3", 3, weight=1),
                     hp.Generator("z3", 3, weight=1)], 6, name="Aw")
    A.set_differential({"y3": A.parse("x2^2") * c})
    return A


def _page_canon(page):
    return {f"{p},{n}": d for (p, n), d in sorted(page.items())}


def _rpath_ops(hp, budget, c, want):
    def path():
        return hp.r_path(_weighted_free(hp, c), 1, budget=budget)

    def fc(P):
        return hp.FilteredComplex(P, "W")

    def run_page():
        return _page_canon(hp.spectral_page(path(), 1))

    def run_turn():
        return hp.SpectralSequence(fc(path())).verify_page_turn(1)

    def run_decalage():
        return hp.decalage(fc(path()))

    def run_er():
        ok, bad = hp.is_Er_quasi_iso(hp.iota(path()), 1)
        return {"ok": ok, "witnesses": bad}

    def canon_dec(dec):
        return _canon_json({str(n): {"levels": dec.levels[n],
                                     "elements": [hp.element_expr(e)
                                                  for e in dec.elements[n]]}
                            for n in sorted(dec.levels)})

    def verify_page(page):
        _require(page == want["page"], f"E1 page {page} != {want['page']}")

    def verify_turn(witnesses):
        _require(witnesses == [], f"page turn fails: {witnesses[:2]}")

    def verify_dec(dec):
        levels = {str(n): sorted(dec.levels[n]) for n in sorted(dec.levels)}
        _require(levels == want["decalage_levels"],
                 f"decalage levels {levels} != {want['decalage_levels']}")

    def verify_er(res):
        _require(res["ok"], f"iota is not an E1-quasi-isomorphism: {res['witnesses'][:2]}")

    tag = f"rpath:b{budget}"
    return [Op(f"{tag}:page", run_page, _canon_json, verify_page),
            Op(f"{tag}:turn", run_turn, _canon_json, verify_turn),
            Op(f"{tag}:decalage", run_decalage, canon_dec, verify_dec),
            Op(f"{tag}:er_quasi_iso", run_er, _canon_json, verify_er)]


def cp_mhd(hp, k, scales, budget=4):
    """Mixed Hodge diagram of CP^k shaped like fixtures/p1toy, and its model.

    Basis x_{2j} = scales[j] * c^j, so x_{2i} x_{2j} has the random constant
    scales[i] scales[j] / scales[i+j]; x_{2j} has weight 0 and Hodge level j.
    """
    N = 2 * k + 2
    QI = hp.Field(-1)

    def basis(hodge):
        out = [hp.TableBasisElement("one", 0, weight=0, hodge=0 if hodge else None)]
        out += [hp.TableBasisElement(f"x{2 * j}", 2 * j, weight=0,
                                     hodge=j if hodge else None)
                for j in range(1, k + 1)]
        return out

    products = {(f"x{2 * i}", f"x{2 * j}"):
                {f"x{2 * (i + j)}": hp.Scalar(scales[i] * scales[j] / scales[i + j])}
                for i in range(1, k + 1) for j in range(i, k + 1) if i + j <= k}
    AQ = hp.TableCdga(basis(False), N, unit="one", products=products, name="AQ")
    EQ, coerce = hp.extend_scalars(AQ, -1)
    Amid = hp.TableCdga(basis(False), N, field=QI, unit="one", products=products,
                        name="Amid")
    AC = hp.TableCdga(basis(True), N, field=QI, unit="one", products=products, name="AC")
    same = {b.name: Amid.basis_element(b.name) for b in Amid.basis_list}
    phi0 = hp.linear_morphism(EQ, Amid, same, "phi0")
    phi1 = hp.linear_morphism(AC, Amid, same, "phi1")
    I = hp.IndexCategory({"0": 0, "1": 1, "2": 0}, [("u0", "0", "1"), ("u1", "2", "1")])
    D = hp.Diagram(I, {"0": AQ, "1": Amid, "2": AC},
                   tags={"0": "filtered", "1": "filtered", "2": "bifiltered"},
                   arrows={"u0": (phi0, coerce), "u1": phi1}, budget=budget,
                   name=f"CP{k}")
    top = f"a{2 * k + 1}"
    M = hp.FreeCdga([hp.Generator("a2", 2, weight=0, hodge=1),
                     hp.Generator(top, 2 * k + 1, weight=1, hodge=k + 1)], N,
                    name=f"M(CP{k})")
    M.set_differential({top: M.parse(f"a2^{k + 1}")})
    return hp.MixedHodgeDiagram(D, d=-1), M


def _mhd_ops(hp, k, scales):
    top = f"a{2 * k + 1}"

    def run_check():
        D, _ = cp_mhd(hp, k, scales)
        return hp.check_mhd(D).to_doc()

    def run_degeneration():
        D, _ = cp_mhd(hp, k, scales)
        return hp.degeneration_check(D)

    def run_pi_star():
        D, M = cp_mhd(hp, k, scales)
        MD = hp.mixed_hodge_dga_diagram(M, D, budget=4)
        maps = {}
        for v in MD.index.vertices:
            tgt = D.diagram.algebras[v]
            maps[v] = hp.FreeMorphism(MD.algebras[v], tgt,
                                      {"a2": tgt.basis_element("x2"), top: tgt.zero()},
                                      name=f"r{v}")
        f = hp.promote_strict(hp.DiagramMorphism(MD, D.diagram, maps, name="rho"))
        return hp.pi_star(D, M, f).to_doc()

    def verify_ok(doc):
        _require(doc["ok"], "verification reports a failure")

    def verify_pi(doc):
        _require(doc["ok"], "pi_star reports a failure")
        types = {n: e["types"] for n, e in doc["degrees"].items() if e["dim"]}
        want = {"2": {"(1,1)": 1}, str(2 * k + 1): {f"({k + 1},{k + 1})": 1}}
        _require(types == want, f"pi_* Hodge types {types} != {want}")

    tag = f"mhd:cp{k}"
    return [Op(f"{tag}:check", run_check, _canon_json, verify_ok),
            Op(f"{tag}:degeneration", run_degeneration, _canon_json, verify_ok),
            Op(f"{tag}:pi_star", run_pi_star, _canon_json, verify_pi)]


def _filtered_ops(hp, seed, expected):
    rng = random.Random(f"filtered_pages:{seed}")
    want = expected["filtered_pages"]
    ops = []
    for b in RPATH_BUDGETS:
        ops += _rpath_ops(hp, b, _rational(rng), want[f"rpath:b{b}"])
    for k in CP_DEGREES:
        scales = [Fraction(1)] + [_rational(rng) for _ in range(k)]
        ops += _mhd_ops(hp, k, scales)
    return ops


# ---------------------------------------------------------------------------
# cli_fixtures: the CLI in-process on fixed documents
# ---------------------------------------------------------------------------

README_COMMANDS = (
    "check fixtures/ms2_free.json",
    "cohomology fixtures/s2.json",
    "minimal-model fixtures/s2.json --max-degree 6",
    "homotopy-groups fixtures/s2_wedge_s5.json --max-degree 6",
    "path fixtures/s2.json",
    "homotopy-verify fixtures/homotopy_const.json",
    "mapping-path fixtures/example41.json",
    "rectify fixtures/example41.json",
    "compose-ho fixtures/example41.json fixtures/example41_g.json",
    "spectral fixtures/two_term_w.json --page 1 --max-degree 2",
    "decalage fixtures/two_term_w.json",
    "mhd-check fixtures/p1toy.json --max-degree 4",
    "degeneration fixtures/p1toy.json",
    "pi-star --mhd fixtures/p1toy.json --model fixtures/p1toy_model.json "
    "--comparison fixtures/p1toy_comparison.json --max-degree 4",
)

CACHED_COMMAND = "minimal-model fixtures/s2.json --max-degree 6"


def _s2_doc():
    return {"schema": 1, "kind": "dga", "name": "H(S2)", "presentation": "table",
            "field": "Q", "max_degree": 6, "unit": "one",
            "basis": [{"name": "one", "degree": 0}, {"name": "x2", "degree": 2}]}


def malformed_documents() -> dict:
    """file name -> text; each is a document error that must exit 2."""
    unknown_field = dict(_s2_doc(), colour="blue")
    bad_expr = {"schema": 1, "kind": "dga", "name": "bad", "presentation": "free",
                "field": "Q", "max_degree": 5,
                "generators": [{"name": "e2", "degree": 2},
                               {"name": "e3", "degree": 3, "d": "e2^^2"}]}
    wrong_kind = dict(_s2_doc(), kind="diagram")
    return {"unknown_field.json": json.dumps(unknown_field),
            "bad_expression.json": json.dumps(bad_expr),
            "wrong_kind.json": json.dumps(wrong_kind),
            "truncated.json": '{"schema": 1, "kind": "dga",'}


# ROADMAP 5(a) and 5(b): documents that must exit 2 and do not today.
DEFECT_DOCUMENTS = {
    "sqrt5_field.json": json.dumps(dict(_s2_doc(), field={"sqrt": 5})),
    "point_horizon_1e8.json": json.dumps(
        {"schema": 1, "kind": "dga", "name": "pt", "presentation": "table",
         "field": "Q", "max_degree": 10 ** 8, "unit": "one",
         "basis": [{"name": "one", "degree": 0}]}),
}


@dataclass
class CliResult:
    rc: int
    stdout: str


def cli_canon(res: CliResult) -> str:
    return _canon_json({"rc": res.rc, "stdout": res.stdout})


def _cli_op(op_id, run, want_rc, want_digest=None, deadline_s=60.0, after=None):
    def verify(res):
        _require(res.rc == want_rc, f"exit code {res.rc} != {want_rc}")
        if want_digest is not None:
            got = sha256(cli_canon(res))
            _require(got == want_digest,
                     f"output digest {got[:12]} != {want_digest[:12]}")
        if after is not None:
            after(res)

    return Op(op_id, run, cli_canon, verify, deadline_s=deadline_s)


def cli_specs(work):
    """(op id, argv, expected exit code) for the fixed CLI inputs."""
    specs = [(f"cli:{c}", c.split(), 0) for c in README_COMMANDS]
    specs.append(("cli:mhd-check fixtures/p1toy_bad_hodge.json",
                  ["mhd-check", "fixtures/p1toy_bad_hodge.json"], 1))
    for name in [*malformed_documents(), "missing.json"]:
        specs.append((f"cli:malformed:{name}",
                      ["check", os.path.join(work, "docs", name)], 2))
    return specs


def _cli_ops(hp, seed, expected, work, run_cli):
    digests = expected["cli_fixtures"]["digests"]
    docs = os.path.join(work, "docs")
    os.makedirs(docs, exist_ok=True)
    for name, text in {**malformed_documents(), **DEFECT_DOCUMENTS}.items():
        with open(os.path.join(docs, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    ops = [_cli_op(op_id, functools.partial(run_cli, argv), rc, digests[op_id])
           for op_id, argv, rc in cli_specs(work)]

    # A miss that stores, then a hit, under a cache directory new to the pair.
    state = {"n": 0}
    cached_digest = digests[f"cli:{CACHED_COMMAND}"]

    def fresh_cache():
        state["n"] += 1
        state["dir"] = os.path.join(work, "cache", f"pair{state['n']}")
        shutil.rmtree(state["dir"], ignore_errors=True)
        os.makedirs(state["dir"])
        return run_cli(CACHED_COMMAND.split(), {"HODGEPATH_CACHE": state["dir"]})

    def same_cache():
        return run_cli(CACHED_COMMAND.split(), {"HODGEPATH_CACHE": state["dir"]})

    def stored_one(res):
        _require(len(os.listdir(state["dir"])) == 1, "the miss did not store one entry")

    miss = _cli_op("cli:minimal-model:cache-miss", fresh_cache, 0, cached_digest,
                   after=stored_one)
    hit = _cli_op("cli:minimal-model:cache-hit", same_cache, 0, cached_digest)
    rng = random.Random(f"cli_fixtures:{seed}")
    rng.shuffle(ops)
    # the pair stays in order: the hit must follow its miss
    i, j = sorted(rng.sample(range(len(ops) + 2), 2))
    ops.insert(i, miss)
    ops.insert(j, hit)
    return ops


def defect_probes(work, run_cli):
    """The ROADMAP 5(a)/5(b) documents, as ops that should exit 2.

    They are kept out of the measured op list: 5(b) never finishes, so it
    runs under a short deadline and its time is reported apart from wall_s.
    """
    docs = os.path.join(work, "docs")
    return [
        _cli_op("defect:5a:sqrt5_field",
                functools.partial(run_cli, ["check", os.path.join(docs, "sqrt5_field.json")]),
                2),
        _cli_op("defect:5b:max_degree_1e8",
                functools.partial(run_cli, ["cohomology",
                                            os.path.join(docs, "point_horizon_1e8.json")]),
                2, deadline_s=2.0),
    ]


def generate(workload, hp, seed, work, run_cli):
    """The workload's ops for this seed, in the order they run."""
    expected = load_expected()
    if workload == "cli_fixtures":
        return _cli_ops(hp, seed, expected, work, run_cli)
    makers = {"model_sweep": _model_ops, "path_lifts": _path_ops,
              "filtered_pages": _filtered_ops}
    ops = makers[workload](hp, seed, expected)
    random.Random(f"order:{workload}:{seed}").shuffle(ops)
    return ops

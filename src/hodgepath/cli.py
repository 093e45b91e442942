"""Command-line surface.

Every command reads JSON documents and returns (report, verdict): the report
is a dict, for `minimal-model` the one it read from or stored in the cache;
the verdict is the bool of a passing run.  `main` alone writes the report to
stdout (--format json | table) and picks the exit code: 0 on success, 1 on a
verified failure, 2 on usage/document errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import cache, documents
from .algebra import FILTRATIONS, AlgebraError, CutoffError, FreeCdga, is_surjective_at
from .diagrams import (rectify, compose_ho, validate_diagram,
                       validate_diagram_morphism, validate_ho_homotopy,
                       validate_ho_morphism)
from .documents import (DocumentError, build_dga, build_homorphism, build_homotopy,
                        build_mhd, dga_doc, element_expr, load_document,
                        parse_document, serialize)
from .filtered import decalage, filtered_complex, spectral_sequence
from .hodge import (check_mhd, degeneration_check, mixed_hodge_dga_diagram,
                    pi_star)
from .homology import cohomology, is_quasi_iso
from .ops import _extend_linearly, check_cdga, check_morphism, table_presentation
from .paths import delta, iota, keyed, path_of, symmetry, verify_homotopy
from .sullivan import minimal_model, homotopy_groups


def _flatten(prefix, obj, out):
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append(f"{prefix} = {obj}")


def emit(report: dict, fmt: str):
    if fmt == "json":
        sys.stdout.write(serialize(report))
    else:
        lines = []
        _flatten("", report, lines)
        sys.stdout.write("\n".join(lines) + "\n")


def _read(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_document(fh.read())
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}")


def _int_from(low, high=None):
    """argparse type: an integer in low..high, else a usage error (exit 2)."""
    def parse(text):
        try:
            value = int(text)
            if value >= low and (high is None or value <= high):
                return value
        except ValueError:
            pass
        bound = f">= {low}" if high is None else f"from {low} to {high}"
        raise argparse.ArgumentTypeError(f"must be an integer {bound}, got {text!r}")
    return parse


def _require_filtrations(A, kinds, subject, path):
    """A document error at path unless the built algebra A carries every filtration of kinds."""
    for kind in kinds:
        if not A.has_filtration(kind):
            raise DocumentError(f"{subject} carries no {kind} filtration", path)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# per kind: the built document's check report and the report's subject
_CHECKS = {
    "dga": lambda A: (check_cdga(A), A.name),
    "diagram": lambda D: (validate_diagram(D), D.name),
    "mhd": lambda M: (validate_diagram(M.diagram), M.diagram.name),
    "homorphism": lambda f: (validate_ho_morphism(f), f.name),
    "homotopy": lambda fgh: (verify_homotopy(fgh[2], fgh[0], fgh[1]), "homotopy"),
}


def cmd_check(args):
    doc = _read(args.document)
    built = parse_document(doc)  # first: it rejects an unknown kind
    kind = doc["kind"]
    rep, subject = _CHECKS[kind](built)
    out = {"command": "check", "kind": kind, "subject": subject, **rep.to_doc()}
    return out, out["ok"]


def cmd_cohomology(args):
    doc = _read(args.document)
    A = build_dga(doc)
    top = min(args.max_degree if args.max_degree is not None else A.N - 1, A.N - 1)
    degrees = {}
    for n in range(0, top + 1):
        H = cohomology(A, n)
        degrees[str(n)] = {"dim": H.dim,
                           "representatives": [element_expr(r) for r in H.reps]}
    return {"command": "cohomology", "subject": A.name, "max_degree": top,
            "degrees": degrees, "ok": True}, True


def cmd_minimal_model(args):
    doc = _read(args.document)
    key = cache.cache_key(doc, args.max_degree, args.allow_0_connected)
    cached = cache.lookup(key)
    if cached is not None:
        return cached, True
    A = build_dga(doc)
    model = minimal_model(A, args.max_degree,
                          allow_0_connected=args.allow_0_connected)
    q = homotopy_groups(model)
    annotations = {
        "q_dims": {str(k): v for k, v in q["dims"].items()},
        "provisional_degree": q["provisional_degree"],
        "rho": {g.name: element_expr(model.rho(model.M.generator(g.name)))
                for g in model.M.gens},
        "certificate": {str(n): r for n, r in model.certificate.items()},
        "construction_log": model.log,
    }
    out = dga_doc(model.M, name=f"minimal-model({A.name})", annotations=annotations)
    cache.store(key, serialize(out))
    return out, True


def cmd_homotopy_groups(args):
    doc = _read(args.document)
    A = build_dga(doc)
    model = minimal_model(A, args.max_degree,
                          allow_0_connected=args.allow_0_connected)
    q = homotopy_groups(model)
    return {"command": "homotopy-groups", "subject": A.name, "ok": True,
            "dims": {str(k): v for k, v in q["dims"].items()},
            "provisional_degree": q["provisional_degree"]}, True


def cmd_path(args):
    doc = _read(args.document)
    A = build_dga(doc)
    P = path_of(A, args.t_budget)
    k = keyed(P)
    failures = []
    d0, d1, io = delta(P, 0), delta(P, 1), iota(P)
    for n in range(0, A.N + 1):
        for kk in A.basis_keys(n):
            x = A.from_key(kk)
            if d0(io(x)) != x or d1(io(x)) != x:
                failures.append({"check": "endpoint-of-constant", "degree": n,
                                 "witness": A.key_str(kk)})
                break
    for f in (d0, d1, io):
        failures.extend(check_morphism(f))
    # tau applied once per basis key; tau(tau(b)) follows by linearity
    sym = symmetry(P)
    tau = {kk: sym(P.from_key(kk)).terms
           for n in range(0, A.N + 1) for kk in P.basis_keys(n)}
    for n in range(0, A.N + 1):
        for kk in P.basis_keys(n):
            if _extend_linearly(tau, tau[kk]) != P.from_key(kk).terms:
                failures.append({"check": "symmetry-involution", "degree": n,
                                 "witness": P.key_str(kk)})
                break
    # P is the quotient of A (x) Lambda(t, dt) by the keys above the t-budget.
    # t-weight adds under PathAlgebra.mul_keys and d_key keeps i + e, so those
    # keys span a d-stable ideal, and the quotient is a cdga exactly when
    # A (x) Lambda(t, dt) is, that is, exactly when A is.  The path product
    # and differential are checked against independent oracles in
    # tests/test_sign_oracles.py; here A itself is checked.
    failures.extend({"check": "cdga-" + f["check"], "witness": f.get("witness")}
                    for f in check_cdga(A).failures)
    out = {"command": "path", "subject": A.name, "budget": k.budget,
           "dims": {str(n): P.dim(n) for n in range(0, A.N)},
           "ok": not failures, "failures": failures}
    return out, not failures


def cmd_homotopy_verify(args):
    doc = _read(args.document)
    f, g, h = build_homotopy(doc)
    rep = verify_homotopy(h, f, g)
    return {"command": "homotopy-verify", **rep.to_doc()}, rep.ok


def _ho_from_doc(doc):
    f = build_homorphism(doc)
    rep = validate_ho_morphism(f)
    if not rep.ok:
        raise DocumentError(f"ho-morphism does not validate: {rep.failures[:2]}")
    return f


def cmd_mapping_path(args):
    doc = _read(args.document)
    f = _ho_from_doc(doc)
    span = rectify(f)
    out = {"command": "mapping-path", "subject": f.name, "vertices": {}, "ok": True}
    upto = f.source.check_upto() - 1
    for v in f.source.index.vertices:
        mp = span.mps[v]
        entry = {"dims": {str(n): mp.space.dim(n) for n in range(0, upto + 1)},
                 "q_endpoint": mp.q_endpoint}
        entry["p_surjective"] = all(
            is_surjective_at(mp.p, n) for n in range(0, upto + 1))
        entry["p_quasi_iso"] = is_quasi_iso(mp.p, upto)
        entry["f_quasi_iso"] = is_quasi_iso(f.maps[v], upto)
        entry["q_quasi_iso"] = is_quasi_iso(mp.q, upto)
        out["vertices"][v] = entry
        if not (entry["p_surjective"] and entry["p_quasi_iso"]):
            out["ok"] = False
        if entry["f_quasi_iso"] and not entry["q_quasi_iso"]:
            out["ok"] = False
    con = span.contraction()
    rep = validate_ho_homotopy(con, upto=max(0, upto - 1))
    out["contraction_ok"] = rep.ok
    out["ok"] = out["ok"] and rep.ok
    return out, out["ok"]


def cmd_rectify(args):
    doc = _read(args.document)
    f = _ho_from_doc(doc)
    span = rectify(f)
    upto = f.source.check_upto() - 1
    vertices = []
    p_maps, q_maps = {}, {}
    # one table per vertex, shared by the vertex entries and the arrow maps
    tables = {}
    for v in f.source.index.vertices:
        mp = span.mps[v]
        tables[v] = table_presentation(mp.space, upto, name=f"P(f_{v})")
        T, _, from_T = tables[v]
        vertices.append({"name": v, "degree": f.source.index.degree(v),
                         "category": f.source.tags[v],
                         "algebra": dga_doc(T)})
        p_maps[v], q_maps[v] = {}, {}
        for b in T.basis_list:
            el = from_T(T.basis_element(b.name))
            p_maps[v][b.name] = element_expr(mp.p(el))
            q_maps[v][b.name] = element_expr(mp.q(el))
    arrows = []
    for u in f.source.phi:
        a = f.source.arrow(u)
        T_i, _, from_i = tables[a.src]
        _, to_j, _ = tables[a.dst]
        psi = span.diagram.phi[u]
        images = {}
        for b in T_i.basis_list:
            el = psi(from_i(T_i.basis_element(b.name)))
            images[b.name] = element_expr(to_j(el))
        arrows.append({"name": u, "from": a.src, "to": a.dst, "map": images})
    strict_ok = validate_diagram_morphism(span.p).ok and \
        validate_diagram_morphism(span.q).ok
    out = {"schema": 1, "kind": "diagram", "name": f"rectified({f.name})",
           "vertices": vertices, "arrows": arrows,
           "annotations": {"command": "rectify", "ok": strict_ok,
                           "p": p_maps, "q": q_maps}}
    return out, strict_ok


def cmd_compose_ho(args):
    doc_f = _read(args.first)
    doc_g = _read(args.second)
    f = _ho_from_doc(doc_f)
    g = build_homorphism(doc_g, source=f.target)  # share the middle diagram
    rep_g = validate_ho_morphism(g)
    if not rep_g.ok:
        raise DocumentError(f"second ho-morphism does not validate: {rep_g.failures[:2]}")
    gf = compose_ho(g, f)
    rep = validate_ho_morphism(gf)
    out = {"command": "compose-ho", "ok": rep.ok,
           "maps": {v: {x.name: element_expr(gf.maps[v](f.source.algebras[v].generator(x.name)))
                        for x in f.source.algebras[v].gens}
                    for v in f.source.index.vertices
                    if isinstance(f.source.algebras[v], FreeCdga)},
           "homotopies": {u: {x.name: element_expr(gf.homotopies[u](f.source.dom(u).generator(x.name)))
                              for x in f.source.dom(u).gens}
                          for u in f.source.phi
                          if isinstance(f.source.dom(u), FreeCdga)},
           "failures": rep.failures}
    return out, rep.ok


def cmd_spectral(args):
    doc = _read(args.document)
    A = build_dga(doc)
    _require_filtrations(A, [args.filtration], "document", "$")
    ss = spectral_sequence(A, args.filtration)
    dims = ss.page_dims(args.page, bound=min(args.max_degree, A.N - args.page - 1))
    vanish = ss.d_r_is_zero(args.page)
    return {"command": "spectral", "subject": A.name, "page": args.page,
            "filtration": args.filtration, "ok": True,
            "dims": {f"({p},{n})": d for (p, n), d in sorted(dims.items())},
            "d_r_nonzero_at": [f"({b['p']},{b['n']})" for b in vanish]}, True


def cmd_decalage(args):
    doc = _read(args.document)
    A = build_dga(doc)
    _require_filtrations(A, ["W"], "document", "$")
    dec = decalage(filtered_complex(A))
    return {"command": "decalage", "subject": A.name, "ok": True,
            "levels": {str(n): sorted(dec.levels[n]) for n in dec.levels}}, True


def cmd_mhd_check(args):
    doc = _read(args.document)
    D = build_mhd(doc)
    rep = check_mhd(D, max_degree=args.max_degree)
    return {"command": "mhd-check", "subject": D.diagram.name, **rep.to_doc()}, rep.ok


def cmd_degeneration(args):
    doc = _read(args.document)
    D = build_mhd(doc)
    pre = check_mhd(D, max_degree=args.max_degree)
    res = degeneration_check(D, max_degree=args.max_degree)
    out = {"command": "degeneration", "subject": D.diagram.name,
           "mhd_ok": pre.ok, **res}
    out["ok"] = out["ok"] and pre.ok
    return out, out["ok"]


def cmd_pi_star(args):
    mhd_doc = _read(args.mhd)
    model_doc = _read(args.model)
    comp_doc = _read(args.comparison)
    D = build_mhd(mhd_doc)
    M = build_dga(model_doc)
    if not isinstance(M, FreeCdga):
        raise DocumentError("the candidate model must be a free presentation")
    _require_filtrations(M, FILTRATIONS, "the candidate model", "$.generators")
    Mhat = mixed_hodge_dga_diagram(M, D)
    comp = dict(comp_doc)
    comp.pop("source", None)
    comp.pop("target", None)
    f = build_homorphism(comp, source=Mhat, target=D.diagram)
    rep = pi_star(D, M, f, max_degree=args.max_degree)
    return {"command": "pi-star", "subject": D.diagram.name, **rep.to_doc()}, rep.ok


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def make_parser():
    """The argparse tree, built once per process; parsing does not change it."""
    ap = argparse.ArgumentParser(
        prog="hodgepath",
        description="Exact homotopy computations for commutative dg algebras: "
                    "paths and homotopies, mapping paths, rectification, "
                    "spectral sequences, minimal models, mixed Hodge checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_degree=False, degree_required=False):
        p.add_argument("--format", choices=("json", "table"), default="json")
        if needs_degree:
            p.add_argument("--max-degree", type=_int_from(0), required=degree_required)

    p = sub.add_parser("check", help="validate a document's algebraic identities")
    p.add_argument("document")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("cohomology", help="exact cohomology of a dga document")
    p.add_argument("document")
    common(p, needs_degree=True)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("minimal-model", help="Sullivan minimal model up to a degree")
    p.add_argument("document")
    p.add_argument("--allow-0-connected", action="store_true")
    common(p, needs_degree=True, degree_required=True)
    p.set_defaults(fn=cmd_minimal_model)

    p = sub.add_parser("homotopy-groups", help="ranks of the homotopy groups")
    p.add_argument("document")
    p.add_argument("--allow-0-connected", action="store_true")
    common(p, needs_degree=True, degree_required=True)
    p.set_defaults(fn=cmd_homotopy_groups)

    p = sub.add_parser("path", help="build the path algebra and verify its axioms")
    p.add_argument("document")
    common(p)
    # the documents' budget cap
    p.add_argument("--t-budget", type=_int_from(1, documents.MAX_BUDGET), default=8)
    p.set_defaults(fn=cmd_path)

    p = sub.add_parser("homotopy-verify", help="verify a homotopy document")
    p.add_argument("document")
    common(p)
    p.set_defaults(fn=cmd_homotopy_verify)

    p = sub.add_parser("mapping-path", help="mapping-path factorization report")
    p.add_argument("document")
    common(p)
    p.set_defaults(fn=cmd_mapping_path)

    p = sub.add_parser("rectify", help="strict span of a homotopy-commutative morphism")
    p.add_argument("document")
    common(p)
    p.set_defaults(fn=cmd_rectify)

    p = sub.add_parser("compose-ho", help="compose two ho-morphisms")
    p.add_argument("first")
    p.add_argument("second")
    common(p)
    p.set_defaults(fn=cmd_compose_ho)

    p = sub.add_parser("spectral", help="spectral sequence page of a filtered dga")
    p.add_argument("document")
    p.add_argument("--page", type=_int_from(0), required=True)
    p.add_argument("--filtration", choices=("W", "F"), default="W")
    common(p, needs_degree=True, degree_required=True)
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("decalage", help="decalage of the weight filtration")
    p.add_argument("document")
    common(p)
    p.set_defaults(fn=cmd_decalage)

    p = sub.add_parser("mhd-check", help="verify the mixed Hodge diagram axioms")
    p.add_argument("document")
    common(p, needs_degree=True)
    p.set_defaults(fn=cmd_mhd_check)

    p = sub.add_parser("degeneration", help="spectral degeneration checks")
    p.add_argument("document")
    common(p, needs_degree=True)
    p.set_defaults(fn=cmd_degeneration)

    p = sub.add_parser("pi-star", help="mixed Hodge structures on homotopy groups")
    p.add_argument("--mhd", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--comparison", required=True)
    common(p, needs_degree=True)
    p.set_defaults(fn=cmd_pi_star)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        report, verdict = args.fn(args)
    except (DocumentError, CutoffError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except AlgebraError as e:
        sys.stderr.write(f"verification error: {e}\n")
        return 1
    emit(report, args.format)
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())

"""JSON documents: parsing, validation with located errors, serialization.

Document kinds: dga, diagram, mhd, homorphism, homotopy (schema: 1).  Unknown
fields are rejected with the offending path; JSON syntax errors carry line and
column.  Serialization is canonical (sorted keys, normalized expressions), so
parse(serialize(x)) round-trips and reports are byte-stable.
"""

from __future__ import annotations

import json

from .algebra import (AlgebraError, Element, FreeCdga, FreeMorphism, Generator,
                      Morphism, TableBasisElement, TableCdga, extend_scalars,
                      linear_morphism)
from .diagrams import Arrow, Diagram, HoMorphism, IndexCategory
from .hodge import MixedHodgeDiagram
from .paths import Homotopy, keyed, path_of
from .scalars import QQ, Field, Scalar

SCHEMA_VERSION = 1
KINDS = {"dga", "diagram", "mhd", "homorphism", "homotopy"}
# The largest trust horizon a dga document may declare.  Work grows with the
# horizon, so an absurd one must be refused up front instead of run.
MAX_DEGREE = 64


class DocumentError(ValueError):
    def __init__(self, message, path="$"):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def load_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(doc, dict):
        raise DocumentError("top level must be an object")
    return doc


def _check_fields(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise DocumentError("expected an object", path)
    for f in required:
        if f not in obj:
            raise DocumentError(f"missing field {f!r}", path)
    allowed = set(required) | set(optional)
    for f in obj:
        if f not in allowed:
            raise DocumentError(f"unknown field {f!r}", f"{path}.{f}")


def _sqrt(d, path) -> int:
    """The d of Q(sqrt d); the schemas ask for an integer <= -1."""
    if isinstance(d, bool) or not isinstance(d, int) or d > -1:
        raise DocumentError(f"sqrt must be an integer <= -1, got {d!r}", path)
    return d


def _integer(obj, key, path, minimum=None):
    """The integer field obj[key] (a bool is not one), or None if it is absent."""
    if key not in obj:
        return None
    value = obj[key]
    if (isinstance(value, bool) or not isinstance(value, int)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise DocumentError(f"{key} must be an integer{bound}", f"{path}.{key}")
    return value


def _typed(obj, key, path, typ, what, default=None):
    """The field obj[key] if it is a typ (named by what), or default if it is absent."""
    if key not in obj:
        return default
    if not isinstance(obj[key], typ):
        raise DocumentError(f"{key} must be {what}", f"{path}.{key}")
    return obj[key]


def _field(spec, path) -> Field:
    """"Q" (or absent) is the rationals; {"sqrt": d} is Q(sqrt d)."""
    if spec is None or spec == "Q":
        return QQ
    _check_fields(spec, path, required=("sqrt",))
    return Field(_sqrt(spec["sqrt"], f"{path}.sqrt"))


def _expect_kind(doc, kind):
    _head_fields = ("schema", "kind")
    if doc.get("schema") != SCHEMA_VERSION:
        raise DocumentError(f"schema must be {SCHEMA_VERSION}", "$.schema")
    if doc.get("kind") != kind:
        raise DocumentError(f"expected kind {kind!r}, got {doc.get('kind')!r}", "$.kind")


# ---------------------------------------------------------------------------
# expressions <-> elements
# ---------------------------------------------------------------------------

def scalar_expr(c: Scalar) -> str:
    if c.im == 0:
        return str(c.re)
    im = c.im
    sign = "+" if im >= 0 else "-"
    return f"({c.re}{sign}{abs(im)}*sqrtd)"


def element_expr(x: Element) -> str:
    """Canonical, re-parseable expression for an element."""
    if x.is_zero:
        return "0"
    bits = []
    for k, c in x.sorted_terms():
        ks = x.alg.key_str(k)
        if ks == "1":
            bits.append(scalar_expr(c))
        elif c == 1:
            bits.append(ks)
        else:
            bits.append(f"{scalar_expr(c)}*{ks}")
    return " + ".join(bits)


def parse_in(algebra, text, path="$"):
    try:
        return algebra.parse(text)
    except Exception as e:
        raise DocumentError(f"bad expression {text!r}: {e}", path)


# ---------------------------------------------------------------------------
# dga documents
# ---------------------------------------------------------------------------

def build_dga(doc, path="$"):
    _expect_kind(doc, "dga")
    _check_fields(doc, path,
                  required=("schema", "kind", "presentation", "max_degree"),
                  optional=("name", "field", "generators", "basis", "unit",
                            "products", "differentials", "augmentation",
                            "annotations"))
    fld = _field(doc.get("field"), f"{path}.field")
    N = _integer(doc, "max_degree", path, minimum=0)
    if N > MAX_DEGREE:
        raise DocumentError(f"max_degree {N} exceeds the supported horizon {MAX_DEGREE}",
                            f"{path}.max_degree")
    name = doc.get("name", "")
    pres = doc["presentation"]
    if pres == "free":
        gens = []
        dexprs = {}
        seen = set()
        for i, g in enumerate(_typed(doc, "generators", path, list, "an array", [])):
            gpath = f"{path}.generators[{i}]"
            _check_fields(g, gpath, required=("name", "degree"),
                          optional=("weight", "hodge", "d"))
            _typed(g, "name", gpath, str, "a string")
            if g["name"] in seen:
                raise DocumentError(f"duplicate generator name {g['name']!r}",
                                    f"{gpath}.name")
            seen.add(g["name"])
            degree = _integer(g, "degree", gpath, minimum=0)
            gens.append(Generator(g["name"], degree, _integer(g, "weight", gpath),
                                  _integer(g, "hodge", gpath)))
            if "d" in g:
                dexprs[g["name"]] = (g["d"], gpath)
        try:
            A = FreeCdga(gens, N, fld, name=name)
        except AlgebraError as e:
            raise DocumentError(str(e), f"{path}.generators")
        diffs = {}
        for nm, (expr, gpath) in dexprs.items():
            diffs[nm] = parse_in(A, expr, f"{gpath}.d")
        try:
            A.set_differential(diffs)
        except AlgebraError as e:
            raise DocumentError(str(e), f"{path}.generators")
        return A
    if pres == "table":
        entries = []
        seen = set()
        for i, b in enumerate(_typed(doc, "basis", path, list, "an array", [])):
            bpath = f"{path}.basis[{i}]"
            _check_fields(b, bpath, required=("name", "degree"),
                          optional=("weight", "hodge"))
            _typed(b, "name", bpath, str, "a string")
            if b["name"] in seen:
                raise DocumentError(f"duplicate basis name {b['name']!r}",
                                    f"{bpath}.name")
            seen.add(b["name"])
            degree = _integer(b, "degree", bpath, minimum=0)
            entries.append(TableBasisElement(b["name"], degree, _integer(b, "weight", bpath),
                                             _integer(b, "hodge", bpath)))
        unit = _typed(doc, "unit", path, str, "a string", "1")
        try:
            A = TableCdga(entries, N, fld, name=name, unit=unit)
        except AlgebraError as e:
            raise DocumentError(str(e), f"{path}.basis")
        for field in ("products", "differentials", "augmentation"):
            if not isinstance(doc.get(field, {}), dict):
                raise DocumentError(f"{field} must be an object", f"{path}.{field}")
        products = {}
        for key, expr in doc.get("products", {}).items():
            parts = key.split("*")
            if len(parts) != 2:
                raise DocumentError(f"product key must be 'a*b', got {key!r}",
                                    f"{path}.products")
            a, b = parts[0].strip(), parts[1].strip()
            el = parse_in(A, expr, f"{path}.products.{key}")
            products[(a, b)] = dict(el.terms)
        diffs = {}
        for nm, expr in doc.get("differentials", {}).items():
            el = parse_in(A, expr, f"{path}.differentials.{nm}")
            diffs[nm] = dict(el.terms)
        augmentation = None
        if "augmentation" in doc:
            augmentation = {}
            for nm, expr in doc["augmentation"].items():
                el = parse_in(A, expr, f"{path}.augmentation.{nm}")
                augmentation[nm] = _scalar_of(el, A)
        try:
            return TableCdga(entries, N, fld, name=name, unit=unit,
                             products=products, differentials=diffs,
                             augmentation=augmentation)
        except AlgebraError as e:
            raise DocumentError(str(e), path)
    raise DocumentError(f"presentation must be 'free' or 'table', got {pres!r}",
                        f"{path}.presentation")


def _scalar_of(el: Element, A) -> Scalar:
    if el.is_zero:
        return Scalar(0)
    terms = dict(el.terms)
    for uk, c in A.unit_terms().items():
        if set(terms) == {uk}:
            return terms[uk] / c
    raise DocumentError("augmentation values must be scalars")


def dga_doc(A, name=None, annotations=None) -> dict:
    doc = {"schema": SCHEMA_VERSION, "kind": "dga",
           "name": name if name is not None else A.name,
           "field": A.field.describe(), "max_degree": A.N}
    if isinstance(A, FreeCdga):
        doc["presentation"] = "free"
        gens = []
        for g in A.gens:
            entry = {"name": g.name, "degree": g.degree}
            if g.weight is not None:
                entry["weight"] = g.weight
            if g.hodge is not None:
                entry["hodge"] = g.hodge
            dg = A.differential_of(g.name)
            if not dg.is_zero:
                entry["d"] = element_expr(dg)
            gens.append(entry)
        doc["generators"] = gens
    elif isinstance(A, TableCdga):
        doc["presentation"] = "table"
        doc["unit"] = A.unit_name
        basis = []
        for b in A.basis_list:
            entry = {"name": b.name, "degree": b.degree}
            if b.weight is not None:
                entry["weight"] = b.weight
            if b.hodge is not None:
                entry["hodge"] = b.hodge
            basis.append(entry)
        doc["basis"] = basis
        products = {}
        for (a, b), terms in sorted(A.products.items()):
            el = Element(A, terms)
            if not el.is_zero:
                products[f"{a}*{b}"] = element_expr(el)
        if products:
            doc["products"] = products
        diffs = {}
        for nm, terms in sorted(A.diffs.items()):
            el = Element(A, terms)
            if not el.is_zero:
                diffs[nm] = element_expr(el)
        if diffs:
            doc["differentials"] = diffs
    else:
        raise DocumentError("only free/table presentations serialize")
    if annotations:
        doc["annotations"] = annotations
    return doc


# ---------------------------------------------------------------------------
# diagram and mixed Hodge diagram documents
# ---------------------------------------------------------------------------

def _build_vertex(v, i, path):
    vpath = f"{path}.vertices[{i}]"
    _check_fields(v, vpath, required=("name", "degree", "algebra"),
                  optional=("category",))
    algebra = build_dga(v["algebra"], f"{vpath}.algebra")
    category = v.get("category", "plain")
    if category not in ("plain", "filtered", "bifiltered"):
        raise DocumentError(f"unknown category {category!r}", f"{vpath}.category")
    return v["name"], v["degree"], category, algebra


def _build_map(source, target, images: dict, path, name=""):
    parsed = {nm: parse_in(target, expr, f"{path}.{nm}")
              for nm, expr in images.items()}
    if isinstance(source, FreeCdga):
        try:
            return FreeMorphism(source, target, parsed, name=name)
        except AlgebraError as e:
            raise DocumentError(str(e), path)
    if isinstance(source, TableCdga):
        missing = [b.name for b in source.basis_list if b.name not in parsed
                   and b.name != source.unit_name]
        if missing:
            raise DocumentError(f"missing basis images: {missing}", path)
        parsed.setdefault(source.unit_name, target.unit())
        return linear_morphism(source, target, parsed, name=name)
    raise DocumentError("maps need a free or table source", path)


def build_diagram(doc, path="$", kind="diagram"):
    _expect_kind(doc, kind)
    extra = ("sqrt",) if kind == "mhd" else ()
    _check_fields(doc, path,
                  required=("schema", "kind", "vertices", "arrows"),
                  optional=("name", "budget", "annotations") + extra)
    degrees, tags, algebras = {}, {}, {}
    order = []
    for i, v in enumerate(doc["vertices"]):
        nm, deg, cat, alg = _build_vertex(v, i, path)
        if nm in degrees:
            raise DocumentError(f"duplicate vertex {nm!r}", f"{path}.vertices[{i}]")
        degrees[nm] = deg
        tags[nm] = cat
        algebras[nm] = alg
        order.append(nm)
    arrows = []
    arrow_maps = {}
    for i, a in enumerate(doc["arrows"]):
        apath = f"{path}.arrows[{i}]"
        _check_fields(a, apath, required=("name", "from", "to", "map"), optional=())
        arrows.append(Arrow(a["name"], a["from"], a["to"]))
        arrow_maps[a["name"]] = (a["from"], a["to"], a["map"], apath)
    try:
        index = IndexCategory(degrees, arrows)
    except AlgebraError as e:
        raise DocumentError(str(e), f"{path}.arrows")
    built_arrows = {}
    for nm, (src, dst, images, apath) in arrow_maps.items():
        A_s, A_d = algebras[src], algebras[dst]
        if A_s.field == A_d.field:
            built_arrows[nm] = _build_map(A_s, A_d, images, f"{apath}.map", nm)
        else:
            if not A_s.field.is_rational or A_d.field.is_rational:
                raise DocumentError("scalar change must go from Q into the extension",
                                    f"{apath}.map")
            ext, coerce = extend_scalars(A_s, A_d.field.d)
            built_arrows[nm] = (_build_map(ext, A_d, images, f"{apath}.map", nm), coerce)
    try:
        D = Diagram(index, algebras, tags=tags, arrows=built_arrows,
                    budget=_integer(doc, "budget", path, minimum=1),
                    name=doc.get("name", "diagram"))
    except AlgebraError as e:
        raise DocumentError(str(e), path)
    D.vertex_order = order
    return D


def build_mhd(doc, path="$") -> MixedHodgeDiagram:
    D = build_diagram(doc, path, kind="mhd")
    d = _sqrt(doc.get("sqrt", -1), f"{path}.sqrt")
    try:
        return MixedHodgeDiagram(D, d=d)
    except AlgebraError as e:
        raise DocumentError(str(e), path)


# ---------------------------------------------------------------------------
# ho-morphism and homotopy documents
# ---------------------------------------------------------------------------

def build_homorphism(doc, path="$", source=None, target=None):
    _expect_kind(doc, "homorphism")
    _check_fields(doc, path,
                  required=("schema", "kind", "maps", "homotopies"),
                  optional=("name", "source", "target", "annotations"))
    if source is None:
        if "source" not in doc:
            raise DocumentError("missing source diagram", f"{path}.source")
        source = build_diagram(doc["source"], f"{path}.source")
    if target is None:
        if "target" not in doc:
            raise DocumentError("missing target diagram", f"{path}.target")
        target = build_diagram(doc["target"], f"{path}.target")
    maps = {}
    for v, images in doc["maps"].items():
        if v not in source.algebras:
            raise DocumentError(f"unknown vertex {v!r}", f"{path}.maps")
        maps[v] = _build_map(source.algebras[v], target.algebras[v], images,
                             f"{path}.maps.{v}", f"f_{v}")
    missing = [v for v in source.index.vertices if v not in maps]
    if missing:
        raise DocumentError(f"missing vertex maps: {missing}", f"{path}.maps")
    homotopies = {}
    for u, images in doc["homotopies"].items():
        names = [a.name for a in source.index.arrows]
        if u not in names:
            raise DocumentError(f"unknown arrow {u!r}", f"{path}.homotopies")
        a = source.arrow(u)
        PB = keyed(target.vertex_path(a.dst))
        dom = source.dom(u)
        homotopies[u] = _build_map(dom, PB, images, f"{path}.homotopies.{u}",
                                   f"F_{u}")
    for a in source.index.arrows:
        if a.name not in homotopies:
            raise DocumentError(f"missing homotopy for arrow {a.name!r}",
                                f"{path}.homotopies")
    return HoMorphism(source, target, maps, homotopies,
                      name=doc.get("name", "homorphism"))


def build_homotopy(doc, path="$"):
    """(f, g, h) for a homotopy document between two dga morphisms."""
    _expect_kind(doc, "homotopy")
    _check_fields(doc, path,
                  required=("schema", "kind", "source", "target", "f", "g", "h"),
                  optional=("name", "budget", "annotations"))
    A = build_dga(doc["source"], f"{path}.source")
    B = build_dga(doc["target"], f"{path}.target")
    f = _build_map(A, B, doc["f"], f"{path}.f", "f")
    g = _build_map(A, B, doc["g"], f"{path}.g", "g")
    PB = path_of(B, _integer(doc, "budget", path, minimum=1))
    hmap = _build_map(A, keyed(PB), doc["h"], f"{path}.h", "h")
    return f, g, Homotopy(f, g, Morphism(A, PB, hmap.fn, name="h"))


def parse_document(doc, path="$"):
    kind = doc.get("kind")
    if kind == "dga":
        return build_dga(doc, path)
    if kind == "diagram":
        return build_diagram(doc, path)
    if kind == "mhd":
        return build_mhd(doc, path)
    if kind == "homorphism":
        return build_homorphism(doc, path)
    if kind == "homotopy":
        return build_homotopy(doc, path)
    raise DocumentError(f"kind must be one of {sorted(KINDS)}, got {kind!r}",
                        f"{path}.kind")


def serialize(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"

"""JSON documents: parsing, validation with located errors, serialization.

Document kinds: dga, diagram, mhd, homorphism, homotopy (schema: 1).  The JSON
Schemas in schemas/ are the one statement of a document's structure: each
public build_* first validates its document, so every structural fault is a
DocumentError at its JSON path, and then checks only what a schema cannot say
(duplicate names, expressions, references).  JSON syntax errors carry line and
column.  Serialization is canonical (sorted keys, normalized expressions), so
parse(serialize(x)) round-trips and reports are byte-stable.
"""

from __future__ import annotations

import functools
import json
import os

from .algebra import (AlgebraError, CutoffError, Element, FreeCdga, FreeMorphism,
                      Generator, TableBasisElement, TableCdga,
                      extend_scalars, linear_morphism)
from .diagrams import Arrow, Diagram, HoMorphism, IndexCategory
from .hodge import MixedHodgeDiagram
from .paths import Homotopy, keyed, path_of
from .exprs import ExprError
from .scalars import QQ, Field, Scalar, ScalarError

SCHEMA_VERSION = 1
KINDS = {"dga", "diagram", "mhd", "homorphism", "homotopy"}
_SCHEMA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "schemas")


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


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

@functools.cache
def _schema(name) -> dict:
    with open(os.path.join(_SCHEMA_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def __getattr__(name):
    # MAX_DEGREE is the largest trust horizon a dga document may declare, and
    # MAX_BUDGET the largest t-budget of a path object; work grows with both,
    # so the schemas cap them.  They are read on use, so that importing this
    # module opens no file.
    if name == "MAX_DEGREE":
        return _schema("dga.json")["properties"]["max_degree"]["maximum"]
    if name == "MAX_BUDGET":
        return _schema("diagram.json")["properties"]["budget"]["maximum"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# JSON type names by Python type: a bool is not an integer, 1.0 is not 1.
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer",
               float: "number", bool: "boolean", type(None): "null"}


def _validate(value, path, base, schema=None):
    """Raise DocumentError at the first place value breaks schema (default: file base).

    Covers the keywords the shipped schemas use: $ref (to "#/definitions/..."
    in the file base, or to another schema file), type, properties, required,
    additionalProperties, items, enum, const, oneOf, minimum and maximum.  A
    failed oneOf reports the branch whose error lies deepest.
    """
    if schema is None:
        schema = _schema(base)
    if "$ref" in schema:
        name, _, pointer = schema["$ref"].partition("#")
        base = name or base
        schema = _schema(base)
        for part in pointer.split("/")[1:]:
            schema = schema[part]
    if "oneOf" in schema:
        errors = []
        for branch in schema["oneOf"]:
            try:
                _validate(value, path, base, branch)
            except DocumentError as e:
                errors.append(e)
        if len(errors) == len(schema["oneOf"]):
            raise max(errors, key=lambda e: e.path.count(".") + e.path.count("["))
        if len(errors) < len(schema["oneOf"]) - 1:
            raise DocumentError("matches more than one alternative", path)
    jtype = _JSON_TYPES.get(type(value))
    if schema.get("type", jtype) != jtype:
        raise DocumentError(f"expected {schema['type']}, got {jtype}", path)
    allowed = [schema["const"]] if "const" in schema else schema.get("enum")
    if allowed is not None and not any(type(a) is type(value) and a == value
                                       for a in allowed):
        raise DocumentError(f"expected {' or '.join(map(repr, allowed))}, got {value!r}",
                            path)
    if jtype in ("integer", "number"):
        if value < schema.get("minimum", value):
            raise DocumentError(f"{value} is below the minimum {schema['minimum']}", path)
        if value > schema.get("maximum", value):
            raise DocumentError(f"{value} exceeds the maximum {schema['maximum']}", path)
    if jtype == "object":
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in value:
                _validate(value[key], f"{path}.{key}", base, sub)
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props or extra is True:
                continue
            if extra is False:
                raise DocumentError(f"unknown field {key!r}", f"{path}.{key}")
            _validate(item, f"{path}.{key}", base, extra)
        for key in schema.get("required", ()):
            if key not in value:
                raise DocumentError(f"missing field {key!r}", path)
    if jtype == "array" and "items" in schema:
        for i, item in enumerate(value):
            _validate(item, f"{path}[{i}]", base, schema["items"])


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
    """algebra.parse(text); what a bad expression raises becomes a DocumentError at path.

    Any other exception is a fault of the library and propagates.
    """
    try:
        return algebra.parse(text)
    # ZeroDivisionError is a literal 1/0; RecursionError is parentheses
    # nested deeper than the recursive-descent parser goes
    except (ExprError, AlgebraError, CutoffError, ScalarError, ZeroDivisionError,
            RecursionError) as e:
        raise DocumentError(f"bad expression {text!r}: {e}", path)


# ---------------------------------------------------------------------------
# dga documents
# ---------------------------------------------------------------------------

def build_dga(doc, path="$"):
    _validate(doc, path, "dga.json")
    return _dga(doc, path)


def _dga(doc, path):
    """The algebra of a dga document that has passed its schema."""
    fld = QQ if doc.get("field", "Q") == "Q" else Field(doc["field"]["sqrt"])
    N = doc["max_degree"]
    name = doc.get("name", "")
    if doc["presentation"] == "free":
        gens = []
        dexprs = {}
        seen = set()
        for i, g in enumerate(doc.get("generators", [])):
            gpath = f"{path}.generators[{i}]"
            if g["name"] in seen:
                raise DocumentError(f"duplicate generator name {g['name']!r}",
                                    f"{gpath}.name")
            seen.add(g["name"])
            gens.append(Generator(g["name"], g["degree"], g.get("weight"), g.get("hodge")))
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
    entries = []
    seen = set()
    for i, b in enumerate(doc.get("basis", [])):
        if b["name"] in seen:
            raise DocumentError(f"duplicate basis name {b['name']!r}",
                                f"{path}.basis[{i}].name")
        seen.add(b["name"])
        entries.append(TableBasisElement(b["name"], b["degree"], b.get("weight"),
                                         b.get("hodge")))
    unit = doc.get("unit", "1")
    try:
        A = TableCdga(entries, N, fld, name=name, unit=unit)
    except AlgebraError as e:
        raise DocumentError(str(e), f"{path}.basis")
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
            at = f"{path}.augmentation.{nm}"
            if nm not in seen:
                raise DocumentError(f"unknown basis element {nm!r}", at)
            augmentation[nm] = _scalar_of(parse_in(A, expr, at), A, at)
    try:
        return TableCdga(entries, N, fld, name=name, unit=unit,
                         products=products, differentials=diffs,
                         augmentation=augmentation)
    except AlgebraError as e:
        raise DocumentError(str(e), path)


def _scalar_of(el: Element, A, path) -> Scalar:
    if el.is_zero:
        return Scalar(0)
    terms = dict(el.terms)
    for uk, c in A.unit_terms().items():
        if set(terms) == {uk}:
            return terms[uk] / c
    raise DocumentError("augmentation values must be scalars", path)


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

def _build_map(source, target, images: dict, path, name=""):
    parsed = {nm: parse_in(target, expr, f"{path}.{nm}")
              for nm, expr in images.items()}
    if isinstance(source, FreeCdga):
        try:
            return FreeMorphism(source, target, parsed, name=name)
        except AlgebraError as e:
            raise DocumentError(str(e), path)
    if isinstance(source, TableCdga):
        for nm in parsed:
            if nm not in source.info:
                raise DocumentError(f"unknown basis element {nm!r}", f"{path}.{nm}")
        missing = [b.name for b in source.basis_list if b.name not in parsed
                   and b.name != source.unit_name]
        if missing:
            raise DocumentError(f"missing basis images: {missing}", path)
        parsed.setdefault(source.unit_name, target.unit())
        return linear_morphism(source, target, parsed, name=name)
    raise DocumentError("maps need a free or table source", path)


def build_diagram(doc, path="$"):
    _validate(doc, path, "diagram.json")
    return _diagram(doc, path)


def _diagram(doc, path):
    """The diagram of a diagram or mhd document that has passed its schema."""
    degrees, tags, algebras = {}, {}, {}
    for i, v in enumerate(doc["vertices"]):
        nm = v["name"]
        if nm in degrees:
            raise DocumentError(f"duplicate vertex {nm!r}", f"{path}.vertices[{i}]")
        degrees[nm] = v["degree"]
        tags[nm] = v.get("category", "plain")
        algebras[nm] = _dga(v["algebra"], f"{path}.vertices[{i}].algebra")
    arrows = []
    arrow_maps = {}
    for i, a in enumerate(doc["arrows"]):
        arrows.append(Arrow(a["name"], a["from"], a["to"]))
        arrow_maps[a["name"]] = (a["from"], a["to"], a["map"], f"{path}.arrows[{i}]")
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
                    budget=doc.get("budget"), name=doc.get("name", "diagram"))
    except AlgebraError as e:
        raise DocumentError(str(e), path)
    return D


def build_mhd(doc, path="$") -> MixedHodgeDiagram:
    _validate(doc, path, "mhd.json")
    D = _diagram(doc, path)
    try:
        return MixedHodgeDiagram(D, d=doc.get("sqrt", -1))
    except AlgebraError as e:
        raise DocumentError(str(e), path)


# ---------------------------------------------------------------------------
# ho-morphism and homotopy documents
# ---------------------------------------------------------------------------

def _end_diagram(doc, end, path):
    """The source or target diagram that a ho-morphism document carries itself."""
    if doc.get(end) in (None, "model", "mhd"):  # only pi-star supplies these two
        raise DocumentError(f"needs a {end} diagram document", f"{path}.{end}")
    return _diagram(doc[end], f"{path}.{end}")


def build_homorphism(doc, path="$", source=None, target=None):
    _validate(doc, path, "homorphism.json")
    if source is None:
        source = _end_diagram(doc, "source", path)
    if target is None:
        target = _end_diagram(doc, "target", path)
    maps = {}
    for v, images in doc["maps"].items():
        if v not in source.algebras or v not in target.algebras:
            raise DocumentError(f"unknown vertex {v!r}", f"{path}.maps")
        maps[v] = _build_map(source.algebras[v], target.algebras[v], images,
                             f"{path}.maps.{v}", f"f_{v}")
    missing = [v for v in source.index.vertices if v not in maps]
    if missing:
        raise DocumentError(f"missing vertex maps: {missing}", f"{path}.maps")
    if (source.index.degrees != target.index.degrees
            or set(source.index.arrows) != set(target.index.arrows)):
        raise DocumentError("source and target diagrams have different index categories",
                            path)
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
    _validate(doc, path, "homotopy.json")
    A = _dga(doc["source"], f"{path}.source")
    B = _dga(doc["target"], f"{path}.target")
    f = _build_map(A, B, doc["f"], f"{path}.f", "f")
    g = _build_map(A, B, doc["g"], f"{path}.g", "g")
    h = _build_map(A, path_of(B, doc.get("budget")), doc["h"], f"{path}.h", "h")
    return f, g, Homotopy(f, g, h)


def parse_document(doc):
    kind = doc.get("kind")
    if kind == "dga":
        return build_dga(doc)
    if kind == "diagram":
        return build_diagram(doc)
    if kind == "mhd":
        return build_mhd(doc)
    if kind == "homorphism":
        return build_homorphism(doc)
    if kind == "homotopy":
        return build_homotopy(doc)
    raise DocumentError(f"kind must be one of {sorted(KINDS)}, got {kind!r}", "$.kind")


def serialize(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"

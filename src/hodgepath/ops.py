"""Operations on cdga presentations: canonical forms, validation reports,
indecomposables, and materialized table presentations (truncation)."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .algebra import (FILTRATIONS, AlgebraError, CutoffError, Element, FreeCdga,
                      LinearMap, TableBasisElement, TableCdga, _accumulate, _element,
                      direction)
from .paths import BudgetError
from .scalars import coeff, from_coeff


def normalize(raw_terms, A) -> Element:
    """Canonical form of a raw term list [(coeff, [name, name, ...]), ...].

    Factors are multiplied in the given order, so Koszul signs fall out of the
    algebra's product; the terms are merged, and zeros dropped, by `_accumulate`.
    Idempotent: normalizing a normalized element is the identity.
    """
    out = {}
    for coeff, names in raw_terms:
        term = A.unit() * coeff
        for nm in names:
            if isinstance(A, FreeCdga):
                term = term * A.generator(nm)
            elif isinstance(A, TableCdga):
                term = term * A.basis_element(nm)
            else:
                raise AlgebraError("normalize needs a free or table presentation")
        _accumulate(out, term.terms)
    return _element(A, out)


def differentiate(a: Element, A=None) -> Element:
    """d(a) for a in degrees <= N-1; fails loudly past the cutoff."""
    A = A or a.alg
    for n in a.degree_parts():
        if n > A.N - 1:
            raise CutoffError(f"differentiate: degree {n} element, horizon ends at {A.N - 1}")
    return a.d()


@dataclass
class ValidationReport:
    subject: str
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, check, witness, **extra):
        self.failures.append({"check": check, "witness": witness, **extra})

    def to_doc(self):
        return {"subject": self.subject, "ok": self.ok, "failures": self.failures}


class _StructureConstants:
    """A's products and differentials of basis keys as {key: coefficient} dicts.

    Each dict holds no zero coefficient, as an Element's terms do, so two of
    them are equal exactly when the Elements would be.  Pair products and
    differentials are read from `mul_keys` and `d_key` once per key.
    """

    def __init__(self, A):
        self.A = A
        self.one = A.field.one()
        self._d = {}
        self._mul = {}

    def unit(self, k) -> dict:
        return {k: self.one}

    def d(self, k) -> dict:
        out = self._d.get(k)
        if out is None:
            out = self._d[k] = {kk: c for kk, c in self.A.d_key(k).items() if not c.is_zero}
        return out

    def mul(self, k1, k2) -> dict:
        out = self._mul.get((k1, k2))
        if out is None:
            out = self._mul[k1, k2] = {k: c for k, c in self.A.mul_keys(k1, k2).items()
                                       if not c.is_zero}
        return out

    def commutes(self, k1, k2, n1, n2) -> bool:
        """k1 k2 = (-1)^(n1 n2) k2 k1."""
        other = self.mul(k2, k1)
        if (n1 * n2) % 2:
            other = {k: -c for k, c in other.items()}
        return self.mul(k1, k2) == other

    def leibniz(self, k1, k2, n1) -> bool:
        """d(k1 k2) = d(k1) k2 + (-1)^n1 k1 d(k2)."""
        A = self.A
        rhs = A.mul_terms(self.d(k1), self.unit(k2))
        sign = -1 if n1 % 2 else 1
        for k, c in A.mul_terms(self.unit(k1), self.d(k2)).items():
            s = rhs[k] + sign * c if k in rhs else sign * c
            if s.is_zero:
                del rhs[k]
            else:
                rhs[k] = s
        return A.d_terms(self.mul(k1, k2)) == rhs

    def associates(self, k1, k2, k3) -> bool:
        """(k1 k2) k3 = k1 (k2 k3)."""
        A = self.A
        return (A.mul_terms(self.mul(k1, k2), self.unit(k3))
                == A.mul_terms(self.unit(k1), self.mul(k2, k3)))


# per filtration kind: the detail of a d, and of a product, that leaves it
_LEAVES = {"W": ("d raises the weight", "product exceeds the weight sum"),
           "F": ("d drops the Hodge level", "product below the Hodge level sum")}


def _check_filtrations(rep, A, cells):
    """Per filtration A carries, W then F: a `filtration-<kind>` failure for
    each cell (witness, x, keys) whose x, the d of one key or the product of
    two, leaves the filtration at the sum of the keys' levels.
    """
    for kind in FILTRATIONS:
        if not A.has_filtration(kind):
            continue
        s = direction(kind)
        for witness, x, keys in cells:
            bound = sum(A.key_level(k, kind) for k in keys)
            if not x.is_zero and s * x.level(kind) > s * bound:
                rep.add(f"filtration-{kind}", witness, detail=_LEAVES[kind][len(keys) - 1])


def check_cdga(A) -> ValidationReport:
    """Assert the cdga identities up to the horizon, with witnesses.

    d squares to zero in degrees <= N-2; Leibniz and graded commutativity
    hold for basis pairs with degree sum <= N-1; a table presentation is
    also checked for associativity in degrees <= N.  That d raises degree
    by 1 is enforced when an algebra is built, and a table's unit is a unit
    by construction (`TableCdga.mul_keys`).

    The identities are checked on structure constants: both sides are
    {key: coefficient} dicts from the key protocol (`mul_keys`, `d_key`,
    `mul_terms`, `d_terms`), not Elements.  Associativity is checked on
    every triple of basis elements with degree sum <= N, at every size.
    Each filtration the algebra carries (W, F) must hold its d, and a
    table's products.
    """
    rep = ValidationReport(subject=repr(A))

    if isinstance(A, FreeCdga):
        for i, g in enumerate(A.gens):
            dg = A.differential_of(g.name)
            if g.degree + 2 <= A.N:
                dd = dg.d()
                if not dd.is_zero:
                    rep.add("d-squared", g.name, value=repr(dd))
            _check_filtrations(rep, A, [(g.name, dg, [((i, 1),)])])
        # Leibniz / commutativity hold by construction for the free product;
        # spot-check small degrees to catch kernel bugs.
        sc = _StructureConstants(A)
        top = min(A.N - 1, 6)
        for n1 in range(1, top + 1):
            for k1 in A.basis_keys(n1):
                for n2 in range(n1, top - n1 + 1):
                    for k2 in A.basis_keys(n2):
                        if not sc.leibniz(k1, k2, n1):
                            rep.add("leibniz", f"{A.key_str(k1)},{A.key_str(k2)}")
                        if not sc.commutes(k1, k2, n1, n2):
                            rep.add("graded-commutativity",
                                    f"{A.key_str(k1)},{A.key_str(k2)}")
        return rep

    if isinstance(A, TableCdga):
        names = [b.name for b in A.basis_list]
        for nm in names:
            if A.info[nm].degree <= A.N - 2:
                dd = A.basis_element(nm).d().d()
                if not dd.is_zero:
                    rep.add("d-squared", nm, value=repr(dd))
        sc = _StructureConstants(A)
        for n1 in names:
            for n2 in names:
                d1, d2 = A.info[n1].degree, A.info[n2].degree
                if d1 + d2 > A.N - 1:
                    continue
                if not sc.commutes(n1, n2, d1, d2):
                    rep.add("graded-commutativity", f"{n1},{n2}")
                if not sc.leibniz(n1, n2, d1):
                    rep.add("leibniz", f"{n1},{n2}")
        for n1 in names:
            for n2 in names:
                for n3 in names:
                    dsum = A.info[n1].degree + A.info[n2].degree + A.info[n3].degree
                    if dsum > A.N:
                        continue
                    if not sc.associates(n1, n2, n3):
                        rep.add("associativity", f"{n1},{n2},{n3}")
        for nm, c in A.augmentation.items():
            if A.info[nm].degree != 0 and not c.is_zero:
                rep.add("augmentation", nm, detail="nonzero on positive degree")
        for nm in names:
            d_aug = A.augment(A.basis_element(nm).d())
            if not d_aug.is_zero:
                rep.add("augmentation", nm, detail="augmentation not a chain map")
        _check_filtrations(
            rep, A, [(nm, A.basis_element(nm).d(), [nm]) for nm in names]
            + [(f"{n1}*{n2}", Element(A, terms), [n1, n2])
               for (n1, n2), terms in A.products.items()])
        return rep

    rep.add("presentation", repr(type(A)), detail="check_cdga needs FREE or TABLE")
    return rep


def _extend_linearly(images: dict, terms: dict) -> dict:
    """The sum of c * images[k] over the (k, c) of terms, without zero coefficients.

    images maps keys to {key: coefficient} dicts: a linear map given on
    basis keys, applied to an element's terms.
    """
    out = {}
    for k, c in terms.items():
        _accumulate(out, images[k], c)
    return out


def check_morphism(f) -> list:
    """Degree, unit, d-commutation and multiplicativity of f, checked exactly; returns failures.

    f is a linear map between keyed algebras.  The identities are linear (d)
    or bilinear (the product) in their arguments, so checking them on every
    basis key, and on every ordered pair of basis keys, decides them in
    degrees 0..min(N_source, N_target)-1.  That f keeps the degree of each
    basis key is checked one degree further, as far as a filtration check
    reads.  For the products, f is applied once per key and extended
    linearly.  A pair whose product leaves a path algebra's t-budget is
    skipped: the product does not exist there.  Each check reports at most
    one failure per degree, witnessed by keys.
    """
    A, B = f.source, f.target
    failures = []
    if f(A.unit()) != B.unit():
        failures.append({"check": "unit", "witness": "f(1) != 1"})
    top = min(A.N, B.N) - 1
    images = {n: {k: f(A.from_key(k)) for k in A.basis_keys(n)} for n in range(0, top + 2)}
    for n, ys in images.items():
        for k, y in ys.items():
            if any(y.alg.key_degree(j) != n for j in y.terms):
                failures.append({"check": "degree", "degree": n, "witness": A.key_str(k)})
                break
    keys = {n: list(images[n]) for n in range(0, top + 1)}
    image = {k: images[n][k].terms for n, ks in keys.items() for k in ks}
    for n, ks in keys.items():
        for k in ks:
            if f(A.element(A.d_key(k))).terms != B.d_terms(image[k]):
                failures.append({"check": "d-commutation", "degree": n,
                                 "witness": A.key_str(k)})
                break

    def pairs(n):
        for n1 in range(0, n + 1):
            for k1 in keys[n1]:
                for k2 in keys[n - n1]:
                    yield k1, k2

    for n in keys:
        for k1, k2 in pairs(n):
            try:
                product = A.mul_keys(k1, k2)
            except BudgetError:
                continue
            if _extend_linearly(image, product) != B.mul_terms(image[k1], image[k2]):
                failures.append({"check": "multiplicativity", "degree": n,
                                 "witness": f"{A.key_str(k1)}*{A.key_str(k2)}"})
                break
    return failures


def euler_characteristic(A: TableCdga) -> int:
    return sum((-1) ** n * A.dim(n) for n in range(0, A.N + 1))


# ---------------------------------------------------------------------------
# indecomposables Q(A) = A+ / (A+ . A+)
# ---------------------------------------------------------------------------

@dataclass
class QDegree:
    labels: list
    reps: list            # Elements of A representing the classes
    weights: list         # filtration level per class or None
    hodges: list

    @property
    def dim(self):
        return len(self.labels)


class QComplex:
    """Graded complex of indecomposables, with the induced (linear) differential."""

    def __init__(self, A, degrees: dict, dmats: dict, project):
        self.A = A
        self.degrees = degrees      # n -> QDegree
        self.dmats = dmats          # n -> coefficient rows over degrees[n], coords in degrees[n+1]
        self._project = project     # (elem, n) -> coefficient row over degrees[n]

    def dim(self, n) -> int:
        return self.degrees[n].dim if n in self.degrees else 0

    def dims(self) -> dict:
        return {n: q.dim for n, q in sorted(self.degrees.items()) if q.dim}

    def project(self, x: Element, n):
        return self._project(x, n)


def indecomposables(A, upto=None) -> QComplex:
    """Q(A) = A+/(A+.A+) with the induced differential and filtrations.

    Free presentations: the degree-n generators are the basis and the induced
    differential is the linear part of d.  Table presentations: computed as an
    exact subquotient using the augmentation.
    """
    upto = A.N if upto is None else upto
    if isinstance(A, FreeCdga):
        degrees, dmats = {}, {}
        for n in range(0, upto + 1):
            gens_n = [g for g in A.gens if g.degree == n]
            degrees[n] = QDegree(labels=[g.name for g in gens_n],
                                 reps=[A.generator(g.name) for g in gens_n],
                                 weights=[g.weight for g in gens_n],
                                 hodges=[g.hodge for g in gens_n])
        def project(x: Element, n):
            """The row of the linear part of x over the degree-n generators."""
            row = {}
            for j, nm in enumerate(degrees[n].labels):
                c = x.terms.get(((A.gen_index[nm], 1),))
                if c is not None:
                    row[j] = coeff(c)
            return row

        for n in range(0, upto):
            dmats[n] = [project(A.differential_of(nm), n + 1) for nm in degrees[n].labels]
        return QComplex(A, degrees, dmats, project)

    if isinstance(A, TableCdga):
        # A+ = ker(augmentation); decomposables = span of products of positives
        plus_basis = {}
        for n in range(0, upto + 1):
            if n == 0:
                # unknown i is basis key i; its image is its augmentation
                rows = []
                for k in A.basis_keys(0):
                    a = A.augmentation.get(k)
                    rows.append({0: coeff(a)} if a else {})
                kern = linalg.left_kernel(rows, A.dim(0))
                plus_basis[0] = [A.from_coords(0, v) for v in kern]
            else:
                plus_basis[n] = A.basis(n)
        sqs, degrees, dmats = {}, {}, {}
        for n in range(0, upto + 1):
            cols = A.dim(n)
            dec = []
            for m in range(0, n + 1):
                for b1 in plus_basis.get(m, []):
                    for b2 in plus_basis.get(n - m, []):
                        p = b1 * b2
                        if not p.is_zero:
                            dec.append(A.coords(p, n))
            num = [A.coords(b, n) for b in plus_basis[n]]
            sq = linalg.Subquotient(num, dec, cols)
            sqs[n] = sq
            reps = [A.from_coords(n, v) for v in sq.reps]
            levels = {kind: [el.level(kind) if A.has_filtration(kind) else None
                             for el in reps] for kind in FILTRATIONS}
            degrees[n] = QDegree(labels=[f"q{n}_{k}" for k in range(sq.dim)],
                                 reps=reps, weights=levels["W"], hodges=levels["F"])
        for n in range(0, upto):
            rows = []
            for v in sqs[n].reps:
                c = sqs[n + 1].coords(linalg.combine(v, A.d_rows(n)))
                if c is None:
                    raise AlgebraError("differential does not descend to Q(A)")
                rows.append(c)
            dmats[n] = rows

        def project(x: Element, n):
            c = sqs[n].coords(A.coords(x, n))
            if c is None:
                raise AlgebraError("element not in A+ modulo decomposables")
            return c

        return QComplex(A, degrees, dmats, project)

    raise AlgebraError("indecomposables needs a FREE or TABLE presentation")


def induced_on_indecomposables(f, QA: QComplex, QB: QComplex, upto=None):
    """Matrices (per degree) of Q(f) for an augmentation-compatible morphism."""
    upto = min(f.source.N, f.target.N) if upto is None else upto
    out = {}
    for n in range(0, upto + 1):
        rows = []
        for rep in QA.degrees[n].reps if n in QA.degrees else []:
            rows.append(QB.project(f(rep), n))
        out[n] = rows
    return out


# ---------------------------------------------------------------------------
# materialized table presentations (truncation)
# ---------------------------------------------------------------------------

def table_presentation(X, upto: int, name="") -> tuple:
    """Materialize any algebra/subalgebra as an unfiltered TableCdga up to the given degree.

    Returns (T, to_table: LinearMap, from_table: LinearMap).  Products landing
    above the truncation degree are dropped, and for path-polynomial algebras
    products beyond the t-weight budget are zero: the table presents the
    quotient by the (acyclic, d-stable) ideal of keys above the budget.
    """
    bases = {n: X.basis(n) for n in range(0, upto + 1)}
    names = {}
    entries = []
    for n, bs in bases.items():
        for k, b in enumerate(bs):
            nm = f"b{n}_{k}"
            names[(n, k)] = nm
            entries.append(TableBasisElement(nm, n))
    # unit coordinates
    u_coords = X.coords(X.unit(), 0)
    if len(u_coords) != 1 or 1 not in u_coords.values():
        raise AlgebraError("table presentation needs the unit to be a basis vector")
    unit_name = names[(0, next(iter(u_coords)))]

    def coords_named(x, n):
        return {names[(n, j)]: from_coeff(c) for j, c in X.coords(x, n).items()}

    products = {}
    for n1 in range(0, upto + 1):
        for n2 in range(n1, upto + 1 - n1):
            for k1, b1 in enumerate(bases[n1]):
                for k2, b2 in enumerate(bases[n2]):
                    if n1 == n2 and k2 < k1:
                        continue
                    try:
                        p = b1 * b2
                    except BudgetError:
                        continue  # zero in the budget quotient
                    terms = coords_named(p, n1 + n2) if not p.is_zero else {}
                    if terms:
                        products[(names[(n1, k1)], names[(n2, k2)])] = terms
    diffs = {}
    for n in range(0, upto):
        for k, row in enumerate(X.d_rows(n)):
            if row:
                diffs[names[(n, k)]] = {names[(n + 1, j)]: from_coeff(c) for j, c in row.items()}
    T = TableCdga(entries, upto, X.field, name=name or f"Table[{X!r}]",
                  unit=unit_name, products=products, differentials=diffs)

    def to_table(x: Element) -> Element:
        out = {}
        for n, part in x.degree_parts().items():
            if n > upto:
                raise CutoffError("element beyond the truncation degree")
            _accumulate(out, coords_named(part, n))
        return _element(T, out)

    def from_table(x: Element) -> Element:
        out = {}
        for k, c in x.terms.items():
            n = T.info[k].degree
            idx = int(k.split("_")[1])
            _accumulate(out, bases[n][idx].terms, c)
        return _element(X.ambient, out)

    return T, LinearMap(X, T, to_table, "to_table"), LinearMap(T, X, from_table, "from_table")


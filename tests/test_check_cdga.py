"""Differential tests of `check_cdga`'s pair and triple identities.

`check_cdga` checks graded commutativity, Leibniz and associativity on
structure constants: {key: coefficient} dicts from the key protocol.  The
reference below is the Element-based loop it replaced: one Element per basis
element, multiplied and differentiated through Element arithmetic.  On seeded
random tables, of up to 40 elements, and free algebras over Q and
Q(sqrt -3), many of them broken on purpose, both must report the same
failures in the same order.
"""

import ast
import inspect
import random
import textwrap
from fractions import Fraction

import pytest

from helpers import ms2, s2_table
from hodgepath import (QQ, Field, FreeCdga, Generator, TableBasisElement, TableCdga,
                       build_dga, check_cdga, cli, minimal_model, path_of,
                       table_presentation)

PAIR_CHECKS = ("graded-commutativity", "leibniz", "associativity")


# -- the reference -----------------------------------------------------------------

def reference_pair_failures(A):
    """The pair and triple failures of `check_cdga`, computed on Elements."""
    out = []
    if isinstance(A, FreeCdga):
        top = min(A.N - 1, 6)
        for n1 in range(1, top + 1):
            for b1 in A.basis(n1):
                for n2 in range(n1, top - n1 + 1):
                    for b2 in A.basis(n2):
                        lhs = (b1 * b2).d()
                        sgn = -1 if n1 % 2 else 1
                        rhs = b1.d() * b2 + (b1 * b2.d()) * sgn
                        if lhs != rhs:
                            out.append(("leibniz", f"{b1!r},{b2!r}"))
                        csgn = -1 if (n1 * n2) % 2 else 1
                        if b1 * b2 != (b2 * b1) * csgn:
                            out.append(("graded-commutativity", f"{b1!r},{b2!r}"))
        return out
    names = [b.name for b in A.basis_list]
    for n1 in names:
        for n2 in names:
            d1, d2 = A.info[n1].degree, A.info[n2].degree
            if d1 + d2 > A.N - 1:
                continue
            b1, b2 = A.basis_element(n1), A.basis_element(n2)
            csgn = -1 if (d1 * d2) % 2 else 1
            if b1 * b2 != (b2 * b1) * csgn:
                out.append(("graded-commutativity", f"{n1},{n2}"))
            lhs = (b1 * b2).d()
            sgn = -1 if d1 % 2 else 1
            rhs = b1.d() * b2 + (b1 * b2.d()) * sgn
            if lhs != rhs:
                out.append(("leibniz", f"{n1},{n2}"))
    for n1 in names:
        for n2 in names:
            for n3 in names:
                dsum = A.info[n1].degree + A.info[n2].degree + A.info[n3].degree
                if dsum > A.N:
                    continue
                b1, b2, b3 = (A.basis_element(x) for x in (n1, n2, n3))
                if (b1 * b2) * b3 != b1 * (b2 * b3):
                    out.append(("associativity", f"{n1},{n2},{n3}"))
    return out


def pair_failures(A):
    return [(f["check"], f["witness"]) for f in check_cdga(A).failures
            if f["check"] in PAIR_CHECKS]


# -- random inputs -------------------------------------------------------------------

FIELDS = {"Q": QQ, "Q(sqrt -3)": Field(-3)}


def _coefficient(rng, F):
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    if F.is_rational or rng.random() < 0.5:
        return F.scalar(re)
    return F.scalar(re, rng.randint(-2, 2))


def _terms(rng, F, names):
    """A random {name: coefficient} over some of names, possibly empty."""
    out = {}
    for nm in names:
        if rng.random() < 0.6:
            out[nm] = _coefficient(rng, F)
    return out


def random_table(rng, F):
    """A small table cdga; most are broken somewhere, some are not."""
    N = rng.randint(3, 6)
    basis = [TableBasisElement("one", 0)]
    for i in range(rng.randint(2, 7)):
        basis.append(TableBasisElement(f"a{i}", rng.randint(0, 4)))
    of_degree = {}
    for b in basis:
        of_degree.setdefault(b.degree, []).append(b.name)
    rest = basis[1:]
    density = rng.choice((0.0, 0.5, 0.9))
    products = {}
    for i, x in enumerate(rest):
        for y in rest[i:]:
            if rng.random() >= density:
                continue
            terms = _terms(rng, F, of_degree.get(x.degree + y.degree, []))
            if x is y and x.degree % 2 and rng.random() < 0.7:
                continue          # keep most odd squares zero
            key = (x.name, y.name) if rng.random() < 0.5 else (y.name, x.name)
            products[key] = terms
            if x is not y and rng.random() < 0.15:
                # both orders stored: commutativity is broken unless they agree
                flipped = (key[1], key[0])
                products[flipped] = (dict(terms) if rng.random() < 0.5
                                     else _terms(rng, F, of_degree.get(x.degree + y.degree, [])))
    diffs = {}
    for b in rest:
        if rng.random() < 0.5:
            diffs[b.name] = _terms(rng, F, of_degree.get(b.degree + 1, []))
    if rng.random() < 0.15:
        diffs["one"] = _terms(rng, F, of_degree.get(1, []))      # d(1) != 0
    return TableCdga(basis, N, F, unit="one", products=products, differentials=diffs)


class SkewedFree(FreeCdga):
    """A free algebra whose product flips the sign of some key pairs: a broken kernel."""

    salt = 0

    def mul_keys(self, k1, k2):
        out = super().mul_keys(k1, k2)
        if k1 and k2 and (hash((k1, k2)) + self.salt) % 3 == 0:
            return {k: -c for k, c in out.items()}
        return out


def random_free(rng, F):
    gens = [Generator(f"g{i}", rng.randint(1, 3)) for i in range(rng.randint(2, 4))]
    skewed = rng.random() < 0.6
    A = (SkewedFree if skewed else FreeCdga)(gens, rng.randint(3, 7), F)
    if skewed:
        A.salt = rng.randrange(3)
    diffs = {}
    for g in A.gens:
        if g.degree + 1 <= A.N and rng.random() < 0.5:
            diffs[g.name] = _terms(rng, F, A.basis_keys(g.degree + 1))
    A.set_differential(diffs)
    return A


# -- tests -------------------------------------------------------------------------

@pytest.mark.parametrize("field", sorted(FIELDS))
def test_tables_agree_with_the_element_reference(field):
    F = FIELDS[field]
    rng = random.Random(f"tables:{field}")
    failing = 0
    seen = set()
    for _ in range(150):
        A = random_table(rng, F)
        want = reference_pair_failures(A)
        assert pair_failures(A) == want
        failing += bool(want)
        seen.update(check for check, _ in want)
    # the sample exercises passing tables and every kind of failure
    assert 30 <= failing <= 140
    assert seen == set(PAIR_CHECKS)


def large_table(rng, F):
    """A table of 25 to 40 elements: a path object's budget quotient, padded, maybe broken.

    The quotient is associative.  Half the tables get one product entry
    replaced by random terms of its degree, which breaks associativity
    unless the new entry happens to fit.
    """
    while True:
        X = path_of(s2_table() if rng.random() < 0.5 else ms2(), rng.randint(2, 5))
        T, _, _ = table_presentation(X, rng.randint(3, 5))
        if len(T.basis_list) <= 40:
            break
    basis = list(T.basis_list)
    while len(basis) < 25 or rng.random() < 0.3:
        basis.append(TableBasisElement(f"z{len(basis)}", rng.randint(0, T.N)))
        if len(basis) == 40:
            break
    products = {k: {nm: F.scalar(c.re) for nm, c in v.items()} for k, v in T.products.items()}
    diffs = {k: {nm: F.scalar(c.re) for nm, c in v.items()} for k, v in T.diffs.items()}
    if rng.random() < 0.5:
        of_degree = {}
        for b in basis:
            of_degree.setdefault(b.degree, []).append(b.name)
        pairs = [(x, y) for x in T.basis_list for y in T.basis_list
                 if x.name != T.unit_name != y.name and x.degree + y.degree in of_degree]
        x, y = rng.choice(pairs)
        old = products.pop((y.name, x.name), None) or products.pop((x.name, y.name), {})
        new = old
        while new == old:
            new = _terms(rng, F, of_degree[x.degree + y.degree])
        products[(x.name, y.name)] = new
    return TableCdga(basis, T.N, F, unit=T.unit_name, products=products, differentials=diffs)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_large_tables_agree_with_the_element_reference(field):
    F = FIELDS[field]
    rng = random.Random(f"large tables:{field}")
    associative = []
    for _ in range(8):
        A = large_table(rng, F)
        assert 25 <= len(A.basis_list) <= 40
        want = reference_pair_failures(A)
        assert pair_failures(A) == want
        associative.append("associativity" not in {check for check, _ in want})
    assert True in associative and False in associative


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_free_algebras_agree_with_the_element_reference(field):
    F = FIELDS[field]
    rng = random.Random(f"free:{field}")
    failing = 0
    for _ in range(60):
        A = random_free(rng, F)
        want = reference_pair_failures(A)
        assert pair_failures(A) == want
        failing += bool(want)
        if not isinstance(A, SkewedFree):
            assert want == []
    assert failing >= 10


def test_fixture_algebras_pass():
    for A in (ms2(), s2_table()):
        assert reference_pair_failures(A) == pair_failures(A) == []
        assert check_cdga(A).ok


def test_field_constants_are_shared_and_stay_put():
    one, zero, minus_one = QQ.one(), QQ.zero(), QQ.minus_one()
    assert QQ.one() is one and QQ.zero() is zero and QQ.minus_one() is minus_one
    F = Field(-3)
    assert F.one() is F.one()
    assert F.one() == 1 and F.one().d == -3
    minimal_model(s2_table(), 6)
    assert QQ.one() is one
    assert (one, zero, minus_one) == (1, 0, -1)
    assert (one.re, one.im, zero.re, minus_one.re) == (1, 0, 0, -1)


def test_check_cdga_takes_the_algebra_alone():
    assert list(inspect.signature(check_cdga).parameters) == ["A"]


def test_path_checks_its_input_not_a_materialised_table():
    tree = ast.parse(textwrap.dedent(inspect.getsource(cli.cmd_path)))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "check_cdga" in called
    assert "table_presentation" not in called


# -- filtrations -------------------------------------------------------------------

def _free(x, y):
    """x (degree 2) and y (degree 3) with d y = x^2, labelled {"weight", "hodge"}."""
    return {"schema": 1, "kind": "dga", "name": "free", "presentation": "free",
            "field": "Q", "max_degree": 6,
            "generators": [{"name": "x", "degree": 2, **x},
                           {"name": "y", "degree": 3, **y, "d": "x^2"}]}


def _table(a, b, differentials=None, products=None):
    """one, a (degree 1 with a d, else 2) and b (degree 2, else 4), labelled."""
    deg = (1, 2) if differentials else (2, 4)
    return {"schema": 1, "kind": "dga", "name": "table", "presentation": "table",
            "field": "Q", "max_degree": 4, "unit": "one",
            "basis": [{"name": "one", "degree": 0, "weight": 0, "hodge": 0},
                      {"name": "a", "degree": deg[0], **a},
                      {"name": "b", "degree": deg[1], **b}],
            "differentials": differentials or {}, "products": products or {}}


LEAVING = {
    # a d that raises W, or drops F, past the level of its generator or basis element
    ("free", "W"): (_free({"weight": 2, "hodge": 0}, {"weight": 3, "hodge": 0}),
                    "y", "d raises the weight"),
    ("free", "F"): (_free({"weight": 2, "hodge": 0}, {"weight": 4, "hodge": 1}),
                    "y", "d drops the Hodge level"),
    ("table", "W"): (_table({"weight": 1, "hodge": 0}, {"weight": 2, "hodge": 0}, {"a": "b"}),
                     "a", "d raises the weight"),
    ("table", "F"): (_table({"weight": 1, "hodge": 1}, {"weight": 1, "hodge": 0}, {"a": "b"}),
                     "a", "d drops the Hodge level"),
    # a table product past the sum of its factors' levels
    ("table product", "W"): (_table({"weight": 1, "hodge": 1}, {"weight": 3, "hodge": 2},
                                    products={"a*a": "b"}),
                             "a*a", "product exceeds the weight sum"),
    ("table product", "F"): (_table({"weight": 1, "hodge": 1}, {"weight": 2, "hodge": 1},
                                    products={"a*a": "b"}),
                             "a*a", "product below the Hodge level sum"),
}


@pytest.mark.parametrize("case", sorted(LEAVING), ids="-".join)
def test_a_d_or_product_that_leaves_a_filtration_fails_that_filtration_once(case):
    """Each presentation checks both filtrations through one loop: one failure
    per defect, named by the kind it leaves; the other kind holds."""
    doc, witness, detail = LEAVING[case]
    kind = case[1]
    assert check_cdga(build_dga(doc)).failures == [
        {"check": f"filtration-{kind}", "witness": witness, "detail": detail}]

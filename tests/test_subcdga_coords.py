"""SubCdga.coords against a solve over the same basis, and fibre products
against their equations read on the whole element.

`SubCdga.coords` reads an element's coordinates off its ambient coefficients
at the free unknowns of the constraint kernel and checks that subtracting
them times the kernel rows leaves nothing of the element.  Two references
must agree with it: a solve for the element's ambient row over the ambient
rows of the same basis with `linalg.solve`, and recombining the coordinates
and comparing (`linalg.combine`).  Both give equal coordinate rows on
members and the same `AlgebraError` on non-members.

`paths.fibre_product` applies each map only to a projection with terms.
The reference `whole_fibre_product` applies every map of every equation to
its projection, empty or not, and subtracts; the constraint rows, in order,
and the bases of the two must be equal.

The spaces are the subalgebras the lifting layer solves in: mapping paths,
double paths, square-boundary targets and the path object of a subalgebra,
over Q and over Q(sqrt -3).
"""

import random
from fractions import Fraction

import pytest

from helpers import assert_row, ms2, s2_table
from hodgepath import (DoublePath, Element, FreeCdga, FreeMorphism, Generator, LinearMap,
                       ProductCdga, QQ, Field, SubCdga, extend_scalars, linalg, mapping_path,
                       morphism_matrix, path_of)
from hodgepath import lifting, paths
from hodgepath.algebra import AlgebraError
from hodgepath.lifting import boundary_square_target

FIELDS = {"Q": QQ, "Q(sqrt -3)": Field(-3)}
SPACES = ["mapping_path", "double_path", "square_boundary", "path_of_mapping_path"]


def _rho(F):
    """M(S2) -> H(S2) over F."""
    M, A = ms2(5), s2_table(5)
    if not F.is_rational:
        M, _ = extend_scalars(M, F.d)
        A, _ = extend_scalars(A, F.d)
    return FreeMorphism(M, A, {"e2": A.basis_element("x2"), "e3": A.zero()}, name="rho")


def _space(name, F):
    rho = _rho(F)
    if name == "mapping_path":
        return mapping_path(rho, budget=2).space
    if name == "double_path":
        return DoublePath(rho, rho, path_of(rho.target, 2)).space
    if name == "square_boundary":
        B = FreeCdga([Generator("b1", 1)], 4, field=F, name="B")
        return boundary_square_target(path_of(B, 2))[0]
    return path_of(mapping_path(rho, budget=2).space, 2)


def _scalar(F, rng):
    """A non-zero coefficient; over Q(sqrt d) it mostly has an imaginary part."""
    while True:
        c = F.scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        if not F.is_rational:
            c = c + F.sqrt_d() * Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        if not c.is_zero:
            return c


class SolveCoords:
    """The reference: an elimination of S's basis rows in degree n per element."""

    def __init__(self, S, n):
        self.S, self.n = S, n
        self.rows = [S.ambient.coords(b, n, strict=False) for b in S.basis(n)]

    def coords(self, x):
        sol, = linalg.solve(self.rows, len(self.rows),
                            [self.S.ambient.coords(x, self.n, strict=False)])
        if sol is None:
            raise AlgebraError(f"element is not in {self.S.name} (degree {self.n})")
        return sol


class RecombineCoords:
    """The reference for the membership check: recombine the coordinates and compare."""

    def __init__(self, S, n):
        self.S, self.n = S, n
        self.rows, self.free = S._kernel(n)

    def coords(self, x):
        amb_row = self.S.ambient.coords(x, self.n, strict=False)
        sol = {self.free[j]: c for j, c in amb_row.items() if j in self.free}
        if linalg.combine(sol, self.rows) != amb_row:
            raise AlgebraError(f"element is not in {self.S.name} (degree {self.n})")
        return sol


def _outcome(coords, x):
    try:
        return "row", coords(x)
    except AlgebraError as e:
        return "error", str(e)


@pytest.mark.parametrize("field", FIELDS.values(), ids=list(FIELDS))
@pytest.mark.parametrize("name", SPACES)
def test_coords_match_a_chart_on_members_and_non_members(name, field):
    S = _space(name, field)
    amb = S.ambient
    rng = random.Random(f"{name}/{field.d}")
    members = outsiders = 0
    for n in range(0, 3):
        basis = S.basis(n)
        ref, recombined = SolveCoords(S, n), RecombineCoords(S, n)
        for _ in range(6):
            # a seeded member with known coordinates
            row = {}
            for i in range(len(basis)):
                if rng.random() < 0.5:
                    c = _scalar(field, rng)
                    row[i] = c if c.im else c.re
            x = S.from_coords(n, row)
            got = S.coords(x, n)
            assert_row(got, len(basis))
            assert got == row == ref.coords(x) == recombined.coords(x)
            members += bool(row)
            # the member moved off S by one ambient basis element, and a
            # random ambient element: S.coords raises where the solve fails
            keys = amb.basis_keys(n)
            if not keys:
                continue
            y = x + amb.from_key(rng.choice(keys), _scalar(field, rng))
            z = Element(amb, {k: _scalar(field, rng) for k in keys if rng.random() < 0.4})
            for w in (y, z):
                expected = _outcome(ref.coords, w)
                assert _outcome(lambda v: S.coords(v, n), w) == expected
                assert _outcome(recombined.coords, w) == expected
                outsiders += expected[0] == "error"
    assert members >= 6
    assert outsiders >= 6


def test_subalgebras_eliminate_no_chart(monkeypatch):
    # once basis(n) is built, coords reads the free positions: no elimination
    eliminate = linalg._eliminate
    calls = []

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    for name in SPACES:
        S = _space(name, Field(-3))
        assert isinstance(S, SubCdga)
        for n in range(0, 3):
            basis = S.basis(n)
            built = len(calls)
            for b in basis:
                assert S.coords(b * 2, n)
            for k in S.ambient.basis_keys(n):
                try:
                    S.coords(S.ambient.from_key(k), n)
                except AlgebraError:
                    pass
            assert len(calls) == built
    assert calls  # the spy sees the eliminations that build the bases


def whole_fibre_product(spaces, equations, name=""):
    """paths.fibre_product with every map applied to its projection, empty or not."""
    amb = ProductCdga([X.ambient for X in spaces], name=" x ".join(map(repr, spaces)))

    def on(i, f):
        return lambda x: f(amb.project(i, x))

    cons = [LinearMap(amb, c.target, on(i, c), name=f"[{i}]{c.name}")
            for i, X in enumerate(spaces) if isinstance(X, SubCdga) for c in X.constraints]
    for i, f, j, g in equations:
        fi, gj = on(i, f), on(j, g)
        cons.append(LinearMap(amb, f.target.ambient, lambda x, fi=fi, gj=gj: fi(x) - gj(x),
                              name=f"{f.name}[{i}]={g.name}[{j}]"))
    return SubCdga(amb, cons, name=name)


def _slot(k):
    """The product slot of an ambient key: the first entry of its innermost (slot, key) pair."""
    while not isinstance(k[0], int):
        k = k[0]
    return k[0]


@pytest.mark.parametrize("field", FIELDS.values(), ids=list(FIELDS))
@pytest.mark.parametrize("name", SPACES)
def test_fibre_products_read_each_equation_as_on_the_whole_element(monkeypatch, name, field):
    S = _space(name, field)
    for module in (paths, lifting):
        monkeypatch.setattr(module, "fibre_product", whole_fibre_product)
    R = _space(name, field)
    assert [c.name for c in S.constraints] == [c.name for c in R.constraints]
    rng = random.Random(f"whole/{name}/{field.d}")
    spanning = 0
    for n in range(0, 3):
        keys = S.ambient.basis_keys(n)
        assert R.ambient.basis_keys(n) == keys
        # every ambient basis key, then random elements over several keys
        # (so, where the ambient is a product, several slots)
        supports = [[k] for k in keys]
        supports += [rng.sample(keys, min(len(keys), rng.randint(2, 6))) for _ in range(8)]
        for support in supports:
            terms = {k: _scalar(field, rng) for k in support}
            got = S._constraint_rows([Element(S.ambient, terms)])
            want = R._constraint_rows([Element(R.ambient, terms)])
            assert [list(r.items()) for r in got] == [list(r.items()) for r in want]
            spanning += len({_slot(k) for k in support}) > 1
        assert S._kernel(n) == R._kernel(n)
        assert [list(b.terms.items()) for b in S.basis(n)] == \
            [list(b.terms.items()) for b in R.basis(n)]
    assert spanning >= 8


def test_morphism_matrix_into_a_subcdga_builds_none_of_its_basis():
    B = FreeCdga([Generator("b1", 1)], 4, name="B")
    T, theta, _ = boundary_square_target(path_of(B, 2))
    assert morphism_matrix(theta, 1)
    assert 1 in T._rows and T._basis_cache == {}

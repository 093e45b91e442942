"""SubCdga.coords against a solve over the same basis.

`SubCdga.coords` reads an element's coordinates off its ambient coefficients
at the free unknowns of the constraint kernel and checks that they recombine
to the element.  The reference here solves for the element's ambient row
over the ambient rows of the same basis with `linalg.solve`, and the two
must agree: equal coordinate rows on members, the same `AlgebraError` on
non-members.
The spaces are the subalgebras the lifting layer solves in: mapping paths,
double paths, square-boundary targets and the path object of a subalgebra,
over Q and over Q(sqrt -3).
"""

import random
from fractions import Fraction

import pytest

from helpers import assert_row, ms2, s2_table
from hodgepath import (DoublePath, Element, FreeCdga, FreeMorphism, Generator, QQ,
                       Field, SubCdga, extend_scalars, linalg, mapping_path, path_of)
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
        ref = SolveCoords(S, n)
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
            assert got == row == ref.coords(x)
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

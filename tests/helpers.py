"""Shared fixture builders for the test suite (small, fast, exact)."""

import contextlib
import io
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
# the benchmark's model_sweep shapes and its random basis change
sys.path.append(os.path.join(os.path.dirname(__file__), "..", "perfbench"))

import hodgepath
from hodgepath import (Arrow, Diagram, DiagramMorphism, Field, FreeCdga, FreeMorphism,
                       Generator, HoMorphism, IndexCategory, MixedHodgeDiagram, Scalar,
                       TableBasisElement, TableCdga, extend_scalars, identity_morphism,
                       keyed, linear_morphism, mixed_hodge_dga_diagram, path_of,
                       promote_strict)
from workloads import MODEL_SHAPES, cp_mhd, random_basis_change  # noqa: F401  (perfbench/)

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_path(name):
    return os.path.join(FIXDIR, name)


def run_main(*argv):
    """(exit code, stdout) of the CLI's main in this process."""
    from hodgepath import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:            # argparse usage errors
            rc = e.code
    return rc, out.getvalue()


# -- coefficient rows at a test's boundary -------------------------------------
# The library's one vector format is the coefficient row {index: coeff}: no
# zeros, a bare Fraction for a rational coefficient, a Scalar otherwise.
# Tests that keep a dense reference convert at their own boundary.

def assert_row(row, width=None):
    """row is a coefficient row: int keys in range(width), no zero, Fractions for rationals."""
    assert type(row) is dict, row
    for j, c in row.items():
        assert type(j) is int and (width is None or 0 <= j < width), (j, width)
        if type(c) is Scalar:
            assert c.im, ("a rational Scalar in a row", row)
        else:
            assert type(c) is Fraction and c, row


def row_of(v):
    """The coefficient row of a dense list of Scalars."""
    return {j: a if a.im else a.re for j, a in enumerate(v) if not a.is_zero}


def rows_of(vs):
    return [row_of(v) for v in vs]


def dense_of(row, width):
    """The dense list of Scalars of a coefficient row, which must be in the format."""
    assert_row(row, width)
    v = [Scalar(0)] * width
    for j, c in row.items():
        v[j] = c if type(c) is Scalar else Scalar(c)
    return v


def s2_table(N=6):
    return TableCdga([TableBasisElement("one", 0), TableBasisElement("x2", 2)],
                     N, unit="one", name="H(S2)")


def s2_wedge_s5(N=6):
    return TableCdga([TableBasisElement("one", 0), TableBasisElement("x2", 2),
                      TableBasisElement("z5", 5)], N, unit="one", name="H(S2vS5)")


def ms2(N=7):
    M = FreeCdga([Generator("e2", 2), Generator("e3", 3)], N, name="M(S2)")
    M.set_differential({"e3": M.parse("e2^2")})
    return M


def s3(N=6):
    return FreeCdga([Generator("x3", 3)], N, name="S3")


def qq_algebra(N=6):
    return FreeCdga([], N, name="QQ")


def acyclic_table(N=5):
    return TableCdga([TableBasisElement("one", 0), TableBasisElement("u1", 1),
                      TableBasisElement("v2", 2)], N, unit="one",
                     differentials={"u1": {"v2": 1}}, name="acyclic")


def k_q2(N=6):
    return FreeCdga([Generator("e2", 2)], N, name="K(Q,2)")


def two_torus_like(N=5):
    return FreeCdga([Generator("x1", 1), Generator("y1", 1)], N, name="T")


def rho_ms2_s2(N=6):
    """The quasi-isomorphism M(S2) -> H*(S2)."""
    M = ms2(N + 1)
    A = s2_table(N)
    rho = FreeMorphism(M, A, {"e2": A.basis_element("x2"), "e3": A.zero()},
                       name="rho")
    return M, A, rho


def square_diagram(budget=5, N=5, twist=1):
    """Two-vertex diagrams A, B with a genuinely non-constant square homotopy.

    Returns (DA, DB, f) where f's arrow homotopy is b1 + twist * t^k dt.
    """
    I = IndexCategory({"0": 0, "1": 1}, [("u", "0", "1")])
    A0 = FreeCdga([Generator("a1", 1)], N, name="A0")
    A1 = FreeCdga([Generator("a1", 1)], N, name="A1")
    B0 = FreeCdga([Generator("b1", 1)], N, name="B0")
    B1 = FreeCdga([Generator("b1", 1)], N, name="B1")
    phiA = FreeMorphism(A0, A1, {"a1": A1.generator("a1")}, name="phiA")
    phiB = FreeMorphism(B0, B1, {"b1": B1.generator("b1")}, name="phiB")
    DA = Diagram(I, {"0": A0, "1": A1}, arrows={"u": phiA}, budget=budget, name="A")
    DB = Diagram(I, {"0": B0, "1": B1}, arrows={"u": phiB}, budget=budget, name="B")
    f0 = FreeMorphism(A0, B0, {"a1": B0.generator("b1")}, name="f0")
    f1 = FreeMorphism(A1, B1, {"a1": B1.generator("b1")}, name="f1")
    k = keyed(DB.vertex_path("1"))
    F = FreeMorphism(A0, k,
                     {"a1": k.include(B1.generator("b1")) + (k.t() * k.dt()) * twist},
                     name="F")
    f = HoMorphism(DA, DB, {"0": f0, "1": f1}, {"u": F}, name="f")
    return DA, DB, f


def toy_mhd(N=6, budget=4, hodge_x2=1):
    QI = Field(-1)
    AQ = TableCdga([TableBasisElement("one", 0, weight=0),
                    TableBasisElement("x2", 2, weight=0)], N, unit="one", name="AQ")
    EQ, coer = extend_scalars(AQ, -1)
    Amid = TableCdga([TableBasisElement("one", 0, weight=0),
                      TableBasisElement("x2", 2, weight=0)], N, field=QI,
                     unit="one", name="Amid")
    AC = TableCdga([TableBasisElement("one", 0, weight=0, hodge=0),
                    TableBasisElement("x2", 2, weight=0, hodge=hodge_x2)], N,
                   field=QI, unit="one", name="AC")
    phi0 = linear_morphism(EQ, Amid, {"one": Amid.unit(),
                                      "x2": Amid.basis_element("x2")}, "phi0")
    phi1 = linear_morphism(AC, Amid, {"one": Amid.unit(),
                                      "x2": Amid.basis_element("x2")}, "phi1")
    I = IndexCategory({"0": 0, "1": 1, "2": 0},
                      [("u0", "0", "1"), ("u1", "2", "1")])
    D = Diagram(I, {"0": AQ, "1": Amid, "2": AC},
                tags={"0": "filtered", "1": "filtered", "2": "bifiltered"},
                arrows={"u0": (phi0, coer), "u1": phi1}, budget=budget,
                name="P1toy")
    return MixedHodgeDiagram(D, d=-1)


def toy_model(N=6):
    M = FreeCdga([Generator("a2", 2, weight=0, hodge=1),
                  Generator("a3", 3, weight=1, hodge=2)], N, name="M(P1)")
    M.set_differential({"a3": M.parse("a2^2")})
    return M


def random_basis_table(name, basis, products, N, rng):
    """The table of (basis, products) written in a seeded random basis.

    basis is a list of (name, degree) and products maps name pairs to
    {name: Fraction}, as in MODEL_SHAPES.
    """
    table = random_basis_change(basis, products, rng)
    return TableCdga([TableBasisElement(nm, d) for nm, d in basis], N, unit="one", name=name,
                     products={k: {kk: Scalar(c) for kk, c in v.items()}
                               for k, v in table.items()})


def cp_family(k, rng):
    """(D, M): the benchmark's mixed Hodge diagram of CP^k and its model
    Lambda(a2, a_(2k+1)), with the structure constants' scales drawn from rng."""
    scales = [Fraction(1)] + [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
                              for _ in range(k)]
    return cp_mhd(hodgepath, k, scales)


def strict_comparison(D, M, images, budget=4):
    """The strict ho-morphism from M's constant diagram to D: at each vertex the
    FreeMorphism with generator images images(A) in that vertex's algebra A."""
    MD = mixed_hodge_dga_diagram(M, D, budget=budget)
    maps = {v: FreeMorphism(MD.algebras[v], D.diagram.algebras[v],
                            images(D.diagram.algebras[v]), name=f"r{v}")
            for v in MD.index.vertices}
    return promote_strict(DiagramMorphism(MD, D.diagram, maps, name="rho"))

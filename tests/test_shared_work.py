"""Work a Hodge check shares or skips, against references that share and skip nothing.

* Zero pieces: where Gr_p C^n = 0 the spectral sequence takes E_r^{p,n} as
  zero without building it.  Every skipped (r, p, n) is computed in full
  here and must have dimension 0, and `page_dims` must equal the page read
  off `entry` at every p.
* `check_mhd` builds one filtered complex per (vertex algebra, filtration)
  and transports rational structures through them; at every (n, p) it
  visits, the transport must equal `transport_rational_structure(D, n, p)`
  on a copy of D built afresh, whose algebras keep nothing yet.
* `pi_star` builds one decalage of its model; in every degree it must give
  the levels and elements of a decalage built for that degree alone.
"""

from fractions import Fraction

import pytest

from helpers import toy_mhd, toy_model
from test_filtered import s2_weighted, two_term
from test_filtered_cache import weighted_free
from hodgepath import (AlgebraError, DiagramMorphism, Field, FreeCdga, FreeMorphism, Generator,
                       MixedHodgeDiagram, TableBasisElement, TableCdga, check_mhd,
                       degeneration_check, extend_scalars, is_Er_quasi_iso, linear_morphism,
                       mixed_hodge_dga_diagram, pi_star, promote_strict, r_path)
from hodgepath import hodge
from hodgepath.diagrams import Diagram, IndexCategory
from hodgepath.filtered import FilteredComplex, SpectralSequence, decalage, gr
from hodgepath.scalars import Scalar

QI = Field(-1)
SCALES = (1, Fraction(2), Fraction(-1, 3), Fraction(3, 2), Fraction(-2), Fraction(1, 2))


def cp_mhd(k, budget=4):
    """Mixed Hodge diagram of CP^k shaped like fixtures/p1toy.json, and its model.

    x_{2j} = SCALES[j] c^j, so the products carry non-trivial constants; x_{2j}
    has weight 0 and Hodge level j.
    """
    N = 2 * k + 2

    def basis(hodge_levels):
        return [TableBasisElement("one", 0, weight=0, hodge=0 if hodge_levels else None)] + [
            TableBasisElement(f"x{2 * j}", 2 * j, weight=0, hodge=j if hodge_levels else None)
            for j in range(1, k + 1)]

    products = {(f"x{2 * i}", f"x{2 * j}"):
                {f"x{2 * (i + j)}": Scalar(SCALES[i] * SCALES[j] / SCALES[i + j])}
                for i in range(1, k + 1) for j in range(i, k + 1) if i + j <= k}
    AQ = TableCdga(basis(False), N, unit="one", products=products, name="AQ")
    EQ, coerce = extend_scalars(AQ, -1)
    Amid = TableCdga(basis(False), N, field=QI, unit="one", products=products, name="Amid")
    AC = TableCdga(basis(True), N, field=QI, unit="one", products=products, name="AC")
    same = {b.name: Amid.basis_element(b.name) for b in Amid.basis_list}
    I = IndexCategory({"0": 0, "1": 1, "2": 0}, [("u0", "0", "1"), ("u1", "2", "1")])
    D = Diagram(I, {"0": AQ, "1": Amid, "2": AC},
                tags={"0": "filtered", "1": "filtered", "2": "bifiltered"},
                arrows={"u0": (linear_morphism(EQ, Amid, same, "phi0"), coerce),
                        "u1": linear_morphism(AC, Amid, same, "phi1")},
                budget=budget, name=f"CP{k}")
    top = f"a{2 * k + 1}"
    M = FreeCdga([Generator("a2", 2, weight=0, hodge=1),
                  Generator(top, 2 * k + 1, weight=1, hodge=k + 1)], N, name=f"M(CP{k})")
    M.set_differential({top: M.parse(f"a2^{k + 1}")})
    return MixedHodgeDiagram(D, d=-1), M


def comparison(D, M, images):
    """The strict comparison from the constant diagram of M to D, as a ho-morphism."""
    MD = mixed_hodge_dga_diagram(M, D, budget=4)
    maps = {}
    for v in MD.index.vertices:
        tgt = D.diagram.algebras[v]
        maps[v] = FreeMorphism(MD.algebras[v], tgt,
                               {g: tgt.basis_element(x) if x else tgt.zero()
                                for g, x in images.items()}, name=f"r{v}")
    return promote_strict(DiagramMorphism(MD, D.diagram, maps, name="rho"))


def cp_complexes():
    out = {}
    for k in range(2, 6):
        D, _ = cp_mhd(k)
        out[f"cp{k}_W"] = lambda D=D: FilteredComplex(D.rational, "W")
        out[f"cp{k}_vertex_W"] = lambda D=D: FilteredComplex(D.complex_vertex, "W")
        out[f"cp{k}_vertex_F"] = lambda D=D: FilteredComplex(D.complex_vertex, "F")
    return out


COMPLEXES = {
    "two_term": lambda: FilteredComplex(two_term(), "W"),
    "s2_weighted": lambda: FilteredComplex(s2_weighted(w=1), "W"),
    "rpath_b4": lambda: FilteredComplex(r_path(weighted_free(), 1, budget=4), "W"),
    "decalage_rpath_b3": lambda: decalage(FilteredComplex(
        r_path(weighted_free(), 1, budget=3), "W")),
    **cp_complexes(),
}


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_zero_pieces_have_zero_entries_and_pages_match_brute_force(name):
    fc = COMPLEXES[name]()
    ss, full = SpectralSequence(fc), SpectralSequence(fc)
    skipped = 0
    for r in range(0, 4):
        for n in range(0, fc.bound + 1):
            for p in ss.p_range(extra=1):
                if ss._zero_piece(p, n):
                    assert full.entry(r, p, n).dim == 0, (r, p, n)
                    assert ss._entry_unless_zero(r, p, n).dim == 0
                    skipped += 1
                else:
                    assert ss._entry_unless_zero(r, p, n) is ss.entry(r, p, n)
        if fc.X.N - r - 1 >= 0:
            brute = {(p, n): full.entry(r, p, n).dim
                     for n in range(0, full._bound(r) + 1) for p in full.p_range()}
            assert ss.page_dims(r) == {pn: d for pn, d in brute.items() if d}
    assert skipped, "the complex should have a zero graded piece"


@pytest.mark.parametrize("name", ["two_term", "rpath_b4", "cp3_vertex_F", "cp5_vertex_F"])
def test_d_r_and_page_turns_agree_with_a_sequence_that_skips_nothing(name, monkeypatch):
    fc = COMPLEXES[name]()
    ss = SpectralSequence(fc)
    verdicts = [(ss.d_r_is_zero(r), ss.verify_page_turn(r)) for r in range(0, 4)]
    monkeypatch.setattr(SpectralSequence, "_zero_piece", lambda self, p, n: False)
    full = SpectralSequence(fc)
    assert [(full.d_r_is_zero(r), full.verify_page_turn(r)) for r in range(0, 4)] == verdicts


def test_induced_map_into_a_zero_piece_is_read_off_the_full_target(monkeypatch):
    """a2 (weight 1) maps to the boundary b2 (weight 0): Gr_1 B^2 = 0, and the image
    lies in the denominator of E_r^{1,2}(B), so the map descends and is not an iso."""
    A = TableCdga([TableBasisElement("one", 0, weight=0),
                   TableBasisElement("a2", 2, weight=1)], 5, unit="one", name="A")
    B = TableCdga([TableBasisElement("one", 0, weight=0), TableBasisElement("b1", 1, weight=0),
                   TableBasisElement("b2", 2, weight=0)], 5, unit="one",
                  differentials={"b1": {"b2": Scalar(1)}}, name="B")
    f = linear_morphism(A, B, {"one": B.unit(), "a2": B.basis_element("b2")})
    want = (False, [{"p": 1, "n": 2, "dim_src": 1, "dim_dst": 0}])
    assert [is_Er_quasi_iso(f, r) for r in (0, 1)] == [want, want]
    monkeypatch.setattr(SpectralSequence, "_zero_piece", lambda self, p, n: False)
    assert [is_Er_quasi_iso(f, r) for r in (0, 1)] == [want, want]


def test_zero_d_r_rows_are_cached():
    ss = SpectralSequence(FilteredComplex(two_term(), "W"))
    assert ss._zero_piece(5, 0)
    rows, src = ss.d_r_matrix(1, 5, 0)
    assert rows == [] and src.dim == 0
    assert ss.d_r_matrix(1, 5, 0)[0] is rows
    assert not ss._e_cache and not ss._z_cache


def test_graded_cohomology_is_computed_once_per_degree():
    g = gr(toy_mhd().complex_vertex, 0)
    assert g.cohomology(2) is g.cohomology(2)
    assert g.cohomology(2).dim == 1


# ---------------------------------------------------------------------------
# check_mhd: shared complexes and transport
# ---------------------------------------------------------------------------

MHDS = {"p1toy": toy_mhd, "p1toy_bad_hodge": lambda: toy_mhd(hodge_x2=2),
        **{f"cp{k}": lambda k=k: cp_mhd(k)[0] for k in range(2, 6)}}


@pytest.mark.parametrize("name", sorted(MHDS))
def test_check_mhd_transport_equals_transport_from_scratch(name, monkeypatch):
    D = MHDS[name]()
    shared = hodge.transport_rational_structure
    visited = []

    def compare(D_, n, p):
        assert D_ is D
        try:
            got = shared(D_, n, p)
        except AlgebraError as e:
            got = e
        try:
            # on a diagram of its own, whose algebras keep nothing yet
            want = shared(MHDS[name](), n, p)
        except AlgebraError as e:
            assert str(got) == str(e)
            raise
        assert (got.matrix, got.dim_src, got.dim_dst, got.inverse) == (
            want.matrix, want.dim_src, want.dim_dst, want.inverse)
        visited.append((n, p))
        return got

    monkeypatch.setattr(hodge, "transport_rational_structure", compare)
    report = check_mhd(D)
    monkeypatch.undo()
    assert visited
    assert report.to_doc() == check_mhd(D).to_doc()


def test_check_mhd_builds_one_complex_per_algebra_and_filtration(monkeypatch):
    D, _ = cp_mhd(5)
    built = []
    init = FilteredComplex.__init__

    def counting_init(self, X, kind="W", bound=None):
        built.append((id(X), kind))
        init(self, X, kind, bound)

    monkeypatch.setattr(FilteredComplex, "__init__", counting_init)
    assert check_mhd(D).ok
    # EQ, Amid and AC for W, AQ for the weight bounds, AC for F
    assert len(built) == len(set(built)) == 5


# ---------------------------------------------------------------------------
# pi_star: one decalage
# ---------------------------------------------------------------------------

PI_STAR = {
    "p1toy": lambda: (toy_mhd(), toy_model(), {"a2": "x2", "a3": None}),
    **{f"cp{k}": lambda k=k: (*cp_mhd(k), {"a2": "x2", f"a{2 * k + 1}": None})
       for k in range(2, 6)},
}


@pytest.mark.parametrize("name", sorted(PI_STAR))
def test_pi_star_decalage_matches_one_built_per_degree(name, monkeypatch):
    D, M, images = PI_STAR[name]()
    f = comparison(D, M, images)
    structure = hodge.dec_weight_structure
    degrees = []

    def compare(M_, n, dec=None):
        alone = decalage(FilteredComplex(M_, "W", bound=min(M_.N, n + 1)))
        assert dec is not None and dec.bound >= n
        assert dec.levels[n] == alone.levels[n]
        assert dec.elements[n] == alone.elements[n]
        got, want = structure(M_, n, dec), structure(M_, n)
        assert (got.weight_vectors, got.hodge_spans) == (want.weight_vectors, want.hodge_spans)
        degrees.append(n)
        return got

    monkeypatch.setattr(hodge, "dec_weight_structure", compare)
    report = pi_star(D, M, f)
    assert report.ok
    assert degrees == list(range(0, min(D.N, M.N - 1) + 1))


def test_degeneration_check_passes_on_cp_k():
    for k in range(2, 6):
        assert degeneration_check(cp_mhd(k)[0]) == {"ok": True, "witnesses": []}

"""Cached d rows of filtered complexes and the incremental Span, against references.

Also: the work a spectral-sequence check does not repeat (filtered complexes
built once per algebra, d_r rows computed once per entry), and the decalage's
cutoff.

`FilteredComplex.d_rows` / `d_coords`, and the `d_rows` of free, table and
path algebras and of a mapping path, are checked against coordinates of d
computed afresh from the element, and `linalg.Span.add` against the rank-based
membership test it replaced, which this file keeps as the oracle.  Decalage
is compared with a reference built from both oracles.
`FilteredComplex.coords` (a re-index of the ambient coordinates over a keyed
algebra, a Span over a SubCdga or a decalage) is compared with
`linalg.solve` over the ambient rows of the adapted basis.  The oracles work
on dense vectors and convert at this file's boundary (`row_of`, `dense_of`).
"""

import random
from fractions import Fraction

import pytest

from helpers import acyclic_table, assert_row, dense_of, rho_ms2_s2, row_of, rows_of
from hodgepath import (CutoffError, Field, FreeCdga, Generator, SubCdga,
                       TableBasisElement, TableCdga, delta, iota, is_Er_quasi_iso,
                       linear_morphism, mapping_path, path_10, r_path)
from hodgepath import linalg
from hodgepath.algebra import AlgebraError
from hodgepath.filtered import (FilteredComplex, SpectralSequence,
                                check_filtration_preserving, decalage)
from hodgepath.scalars import Scalar

QI = Field(-1)
ONE = Fraction(1)


def weighted_free(c=3):
    """x2 at weight 0, y3 and z3 at weight 1, d y3 = c x2^2."""
    A = FreeCdga([Generator("x2", 2, weight=0), Generator("y3", 3, weight=1),
                  Generator("z3", 3, weight=1)], 6, name="Aw")
    A.set_differential({"y3": A.parse("x2^2") * c})
    return A


def cp2_complex_vertex():
    """The bifiltered vertex of a CP^2 mixed Hodge diagram over Q(sqrt -1)."""
    basis = [TableBasisElement("one", 0, weight=0, hodge=0),
             TableBasisElement("x2", 2, weight=0, hodge=1),
             TableBasisElement("x4", 4, weight=0, hodge=2)]
    return TableCdga(basis, 6, field=QI, unit="one",
                     products={("x2", "x2"): {"x4": Scalar(2, 1, -1)}}, name="AC")


def free_over_qi():
    """a2 (W 0, F 1) and a5 (W 1, F 3) over Q(sqrt -1), d a5 = (1+i) a2^3."""
    M = FreeCdga([Generator("a2", 2, weight=0, hodge=1),
                  Generator("a5", 5, weight=1, hodge=3)], 6, field=QI, name="Mi")
    M.set_differential({"a5": M.parse("a2^3") * Scalar(1, 1, -1)})
    return M


def rpath_fc(budget):
    return FilteredComplex(r_path(weighted_free(), 1, budget=budget), "W")


def subcdga_fc():
    P = r_path(weighted_free(), 1, budget=3)
    return FilteredComplex(SubCdga(P, [delta(P, 0)], name="ker delta0"), "W")


COMPLEXES = {
    "rpath_b3": lambda: rpath_fc(3),
    "rpath_b4": lambda: rpath_fc(4),
    "cp2_vertex_F": lambda: FilteredComplex(cp2_complex_vertex(), "F"),
    "cp2_path10_F": lambda: FilteredComplex(path_10(cp2_complex_vertex(), budget=3), "F"),
    "free_qi_F": lambda: FilteredComplex(free_over_qi(), "F"),
    "subcdga_W": subcdga_fc,
    "decalage_rpath_b3": lambda: decalage(rpath_fc(3)),
    "decalage_subcdga": lambda: decalage(subcdga_fc()),
}


def fresh_d(fc, n, row):
    """Coordinates of d(x) in degree n+1, x = row over the adapted basis, with no cache."""
    return fc.coords(fc.from_coords(n, row).d(), n + 1)


def random_vec(rng, dim, field):
    out = [Scalar(0)] * dim
    for i in range(dim):
        if rng.random() < 0.5:
            re = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if field.d else 0
            out[i] = field.scalar(re, im)
    return out


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_d_rows_and_d_coords_match_fresh_coordinates(name):
    fc = COMPLEXES[name]()
    rng = random.Random(11)
    field = fc.ambient.field
    nonzero = 0
    for n in range(0, fc.bound):
        dim = fc.dim(n)
        for i in range(dim):
            want = fresh_d(fc, n, {i: ONE})
            assert fc.d_rows(n)[i] == want
            assert fc.d_coords(n, {i: ONE}) == want
            nonzero += bool(want)
        for _ in range(4):
            v = row_of(random_vec(rng, dim, field))
            got = fc.d_coords(n, v)
            assert_row(got, fc.dim(n + 1))
            assert got == fresh_d(fc, n, v)
    if name != "cp2_vertex_F":
        assert nonzero, "the differential should not vanish on this complex"


def mapping_path_space():
    _, _, rho = rho_ms2_s2(4)
    return mapping_path(rho, budget=2).space


SPACES = {
    "free": weighted_free,
    "table": acyclic_table,
    "path": lambda: r_path(weighted_free(), 1, budget=3),
    "mapping_path": mapping_path_space,
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_space_d_rows_match_fresh_coordinates(name):
    X = SPACES[name]()
    nonzero = 0
    for n in range(0, X.N + 1):
        basis, rows = X.basis(n), X.d_rows(n)
        assert len(rows) == len(basis)
        for b, row in zip(basis, rows):
            want = X.coords(b.d(), n + 1, strict=False)
            assert row == want
            assert_row(row, X.dim(n + 1, strict=False))
            nonzero += bool(want)
        assert X.d_rows(n) is rows
    assert nonzero, "the differential should not vanish on this space"


def reference_decalage(fc):
    """Dec W_p C^n as the former code built it: fresh d coordinates, rank-based membership."""
    levels, coords = {}, {}
    lo, hi = fc.level_range()
    for n in range(0, max(fc.bound - 1, 0) + 1):
        dim, chosen, levels[n] = fc.dim(n), [], []
        for p in range(lo + n, hi + n + 2):
            gens = [i for i, lv in enumerate(fc.levels[n]) if lv <= p - n]
            rows = []
            for i in gens:
                dv = dense_of(fresh_d(fc, n, {i: ONE}), fc.dim(n + 1))
                rows.append([c if lv > p - n - 1 else Scalar(0)
                             for c, lv in zip(dv, fc.levels[n + 1])])
            for v in linalg.left_kernel(rows_of(rows), len(gens)):
                full = [Scalar(0)] * dim
                for c, i in zip(dense_of(v, len(gens)), gens):
                    full[i] = c
                if not span_contains(chosen, dim, full):
                    chosen.append(full)
                    levels[n].append(p)
        coords[n] = chosen
    return levels, coords


@pytest.mark.parametrize("name", ["rpath_b3", "rpath_b4", "subcdga_W", "free_qi_F"])
def test_decalage_matches_reference(name):
    fc = COMPLEXES[name]()
    dec = decalage(fc)
    levels, coords = reference_decalage(fc)
    assert dec.levels == levels
    for n, vecs in coords.items():
        assert dec.elements[n] == [fc.from_coords(n, row_of(v)) for v in vecs]


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_coords_match_a_solve_over_the_adapted_basis(name):
    fc = COMPLEXES[name]()
    amb, field = fc.ambient, fc.ambient.field
    rng = random.Random(name)
    outsiders = 0
    for n in range(0, fc.bound + 1):
        rows = [amb.coords(b, n, strict=False) for b in fc.elements[n]]

        def solved(x):
            return linalg.solve(rows, len(rows), [amb.coords(x, n, strict=False)])[0]

        for _ in range(4):
            row = row_of(random_vec(rng, fc.dim(n), field))
            x = fc.from_coords(n, row)
            got = fc.coords(x, n)
            assert_row(got, fc.dim(n))
            assert got == row == solved(x)
            # an ambient element is a member exactly when the solve finds coordinates
            y = amb.from_coords(n, row_of(random_vec(rng, amb.dim(n, strict=False), field)))
            want = solved(y)
            if want is None:
                outsiders += 1
                with pytest.raises(AlgebraError):
                    fc.coords(y, n)
            else:
                assert fc.coords(y, n) == want
            # a term of another degree is never in degree n
            above = amb.basis_keys(n + 1)
            if above:
                with pytest.raises(AlgebraError):
                    fc.coords(x + amb.from_key(above[0]), n)
    if "subcdga" in name:
        assert outsiders


# ---------------------------------------------------------------------------
# Span
# ---------------------------------------------------------------------------

def is_zero(v):
    return all(a.is_zero for a in v)


def scale(c, v):
    return [c * a for a in v]


def span_contains(basis_rows, ncols, v):
    """The former rank-based membership test: the oracle for Span."""
    if is_zero(v):
        return True
    return linalg.rank(rows_of(list(basis_rows) + [v]), ncols) == \
        linalg.rank(rows_of(basis_rows), ncols)


def stream(rng, field, ncols, count):
    """Vectors with zeros, duplicates, multiples and sums of earlier ones mixed in."""
    seen = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1 or not seen:
            v = random_vec(rng, ncols, field) if seen else [Scalar(0)] * ncols
        elif kind < 0.25:
            v = list(rng.choice(seen))
        elif kind < 0.45:
            v = scale(field.scalar(rng.randint(2, 5), rng.randint(0, 2) if field.d else 0),
                      rng.choice(seen))
        elif kind < 0.65:
            v = [a + b for a, b in zip(rng.choice(seen), scale(Scalar(-3), rng.choice(seen)))]
        else:
            v = random_vec(rng, ncols, field)
        seen.append(v)
        yield v


@pytest.mark.parametrize("field", [Field(None), Field(-3)], ids=["Q", "Q(sqrt-3)"])
@pytest.mark.parametrize("seed", range(6))
def test_span_add_matches_rank_oracle(field, seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 6)
    span, chosen = linalg.Span(), []
    for v in stream(rng, field, ncols, 25):
        outside = not span_contains(chosen, ncols, v)
        assert span.add(row_of(v)) == outside
        if outside:
            chosen.append(v)
    assert len(chosen) == linalg.rank(rows_of(chosen), ncols)


def test_span_edge_cases():
    two, half = Scalar(2), Scalar(Fraction(1, 2))
    span = linalg.Span()
    assert not span.add(row_of([Scalar(0)] * 3))
    assert span.add(row_of([two, Scalar(0), Scalar(0)]))
    assert not span.add(row_of([half, Scalar(0), Scalar(0)]))
    assert span.add(row_of([Scalar(3), Scalar(6), Scalar(0)]))
    assert not span.add(row_of([Scalar(1), Scalar(2), Scalar(0)]))
    i3 = Scalar(0, 1, -3)
    assert span.add(row_of([Scalar(0), Scalar(0), i3]))
    assert not span.add(row_of([two, Scalar(4), i3 * Scalar(5)]))
    assert not span.add(row_of([Scalar(1), Scalar(1), Scalar(1)]))


def test_is_er_quasi_iso_builds_each_filtered_complex_once(monkeypatch):
    built = []
    init = FilteredComplex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(FilteredComplex, "__init__", counting_init)
    P = r_path(weighted_free(), 1, budget=4)
    assert is_Er_quasi_iso(iota(P), 1) == (True, [])
    assert len(built) == 2


def test_is_er_quasi_iso_reports_the_filtration_witness():
    A = TableCdga([TableBasisElement("one", 0, weight=0),
                   TableBasisElement("a2", 2, weight=0)], 5, unit="one", name="A")
    B = TableCdga([TableBasisElement("one", 0, weight=0),
                   TableBasisElement("b2", 2, weight=1)], 5, unit="one", name="B")
    f = linear_morphism(A, B, {"one": B.unit(), "a2": B.from_key("b2")}, name="up")
    witnesses = check_filtration_preserving(f)
    assert [(w["degree"], w["level"], w["image_level"]) for w in witnesses] == [(2, 0, 1)]
    assert is_Er_quasi_iso(f, 1) == (
        False, [{"reason": "not filtration-preserving", **witnesses[0]}])


def test_verify_page_turn_computes_each_d_r_matrix_once():
    P = r_path(weighted_free(), 1, budget=4)
    ss = SpectralSequence(FilteredComplex(P, "W"))
    seen = {}
    d_r_matrix = ss.d_r_matrix

    def recording(r, p, n):
        out = d_r_matrix(r, p, n)
        seen.setdefault((r, p, n), []).append(out[0])
        return out

    ss.d_r_matrix = recording
    result = ss.verify_page_turn(1)
    assert sum(len(v) for v in seen.values()) == 32 and len(seen) == 23
    # a repeated (r, p, n) gets the rows computed the first time
    assert all(rows is v[0] for v in seen.values() for rows in v)
    # the same verdict as a spectral sequence that recomputes every d_r matrix
    fresh = SpectralSequence(FilteredComplex(P, "W"))
    uncached = fresh.d_r_matrix

    def recomputing(r, p, n):
        fresh._d_r_cache.clear()
        return uncached(r, p, n)

    fresh.d_r_matrix = recomputing
    assert fresh.verify_page_turn(1) == result == []


def test_decalage_needs_the_next_degree():
    A = TableCdga([TableBasisElement("one", 0, weight=0),
                   TableBasisElement("u", 0, weight=1),
                   TableBasisElement("v", 1, weight=0)], 4, unit="one",
                  differentials={"u": {"v": Scalar(1)}}, name="two-term")
    with pytest.raises(CutoffError, match="needs degree n \\+ 1"):
        decalage(FilteredComplex(A, "W", bound=0))
    assert decalage(FilteredComplex(A, "W", bound=1)).levels == {0: [0, 1]}

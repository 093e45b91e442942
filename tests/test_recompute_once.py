"""Answers the filtered and Hodge layers no longer recompute, against reference copies.

Each fast path here stops computing what dimension, linearity or an earlier
step has already answered, and keeps its output entry for entry.  This file
keeps the code each one replaced as its oracle:

* `linalg.Span` builds the expressions of its rows on demand; `EagerSpan`
  builds each one in `add`.
* The decalage stops adding vectors of Z(a) once the span is as large as
  Z(a), and stops its level loop once the span is all of C^n; the `SubCdga`
  adapted basis stops once the span is as large as its level's kernel.
  `reference_decalage_basis` and `reference_subcdga_basis` add every vector.
* `MhsStructure.check` and `types_at` project each F-step once per weight
  and decide each (F-step, conjugate F-step) pair once;
  `reference_check` and `reference_types_at` project and decide per q.
* `validate_ho_morphism` applies each arrow homotopy once per basis element
  and reads F_u(to_dom(db)) off the images one degree up;
  `reference_validate_ho_morphism` applies it to db as well.

Spy counts pin the work saved on the benchmark's filtered_pages pass, and
two satellites ride along: A's d^2 is swept once per degree and kept on A,
and `induced_map` refuses a map that does not commute with d.
"""

import random
from fractions import Fraction

import pytest

from helpers import (cp_family, row_of, square_diagram, strict_comparison, toy_model)
from hodgepath import (Diagram, DiagramMorphism, Field, FreeCdga, FreeMorphism, Generator,
                       HoMorphism, IndexCategory, MhsStructure,
                       Morphism, SubCdga, TableBasisElement, TableCdga, cohomology, delta,
                       is_quasi_iso, keyed, minimal_model, promote_strict, quasi_iso_report,
                       r_path, validate_ho_morphism)
from hodgepath import filtered, hodge, homology, linalg
from hodgepath.algebra import AlgebraError
from hodgepath.filtered import FilteredComplex, decalage
from hodgepath.ops import ValidationReport
from hodgepath.scalars import Scalar

QI = Field(-1)


# ---------------------------------------------------------------------------
# Span: expressions on demand against expressions in add
# ---------------------------------------------------------------------------

class EagerSpan:
    """linalg.Span as it was: each row's expression built when the row is added."""

    def __init__(self):
        self._rows, self._pivots, self._exprs = [], [], []

    def add(self, v):
        w = dict(v)
        taken = linalg._reduce(w, self._rows, self._pivots)
        if not w:
            return False
        p = min(w)
        inv = 1 / w[p]
        expr = {i: -inv * c for i, c in linalg.combine(taken, self._exprs).items()}
        expr[len(self._exprs)] = inv
        self._rows.append({j: inv * a for j, a in w.items()})
        self._pivots.append(p)
        self._exprs.append(expr)
        return True

    def coords(self, v):
        w = dict(v)
        taken = linalg._reduce(w, self._rows, self._pivots)
        if w:
            return None
        return linalg.combine(taken, self._exprs)


def _random_row(rng, width, field):
    row = {}
    for j in range(width):
        if rng.random() < 0.5:
            re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            im = Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if field.d else 0
            c = field.scalar(re, im)
            if not c.is_zero:
                row[j] = c if c.im else c.re
    return row


@pytest.mark.parametrize("field", [Field(None), Field(-3)], ids=["Q", "Q(sqrt-3)"])
@pytest.mark.parametrize("seed", range(8))
def test_span_coords_after_lazy_construction_match_eager(field, seed):
    """Adds and coords interleaved at random: the same verdicts and coordinates,
    members and non-members, whenever coords is first called."""
    rng = random.Random(f"span:{seed}")
    width = rng.randint(1, 7)
    lazy, eager, added = linalg.Span(), EagerSpan(), []
    for _ in range(30):
        if rng.random() < 0.6 or not added:
            v = _random_row(rng, width, field)
            if added and rng.random() < 0.3:
                v = linalg.combine({0: Fraction(rng.randint(-3, 3) or 1)}, [rng.choice(added)])
            assert lazy.add(v) == eager.add(v)
            added.append(v)
        else:
            probe = linalg.combine({i: Fraction(rng.randint(-2, 2) or 1)
                                    for i in rng.sample(range(len(added)),
                                                        min(3, len(added)))}, added)
            outsider = _random_row(rng, width, field)
            for v in (probe, outsider):
                assert lazy.coords(v) == eager.coords(v)
    assert lazy._exprs == eager._exprs[:len(lazy._exprs)]
    lazy.coords({})
    assert lazy._exprs == eager._exprs


def test_a_span_that_only_grows_builds_no_expressions():
    span = linalg.Span()
    for j in range(5):
        assert span.add({j: Fraction(j + 1), 5: Fraction(1)})
    assert span._exprs == []
    assert span.coords({0: Fraction(1), 5: Fraction(1)}) == {0: Fraction(1)}
    assert len(span._exprs) == 5


# ---------------------------------------------------------------------------
# adapted bases: early stops against every vector added
# ---------------------------------------------------------------------------

def reference_decalage_basis(dec, n):
    """_Decalage._adapted_basis as it was: every vector of every level's Z offered."""
    fc = dec.parent
    lo, hi = fc.level_range()
    chosen, levels, elems = EagerSpan(), [], []
    refused = 0
    for p in range(lo + n, hi + n + 2):
        for v in fc.z_basis(n, p - n, p - n - 1):
            if chosen.add(v):
                levels.append(p)
                elems.append(fc.from_coords(n, v))
            else:
                refused += 1
    return levels, elems, chosen, refused


def reference_subcdga_basis(fc, n):
    """The SubCdga branch of FilteredComplex._adapted_basis as it was."""
    X = fc.X
    amb = X.ambient
    keys = amb.basis_keys(n)
    key_levels = [filtered._key_level(amb, k, fc.kind) for k in keys]
    chosen, chosen_levels, chosen_elems = EagerSpan(), [], []
    for p in sorted(set(key_levels)):
        allowed = [i for i, lv in enumerate(key_levels) if lv <= p]
        for v in X.constraint_kernel([amb.from_key(keys[i]) for i in allowed]):
            full = {allowed[i]: c for i, c in v.items()}
            if chosen.add(full):
                chosen_levels.append(p)
                chosen_elems.append(amb.from_coords(n, full))
    return chosen_levels, chosen_elems, chosen


def _same_frames(fc, n, frame, rng):
    """fc's coordinates agree with the reference frame's on random combinations."""
    amb = fc.ambient
    for _ in range(3):
        row = {i: Fraction(rng.randint(-3, 3)) for i in range(fc.dim(n)) if rng.random() < 0.6}
        row = {i: c for i, c in row.items() if c}
        x = fc.from_coords(n, row)
        parent = getattr(fc, "parent", None)
        below = parent.coords(x, n) if parent is not None else amb.coords(x, n, strict=False)
        assert fc.coords(x, n) == frame.coords(below) == row


def _check_decalage(fc, rng):
    dec = decalage(fc)
    for n in range(0, dec.bound + 1):
        levels, elems, frame, _ = reference_decalage_basis(dec, n)
        assert dec.levels[n] == levels
        assert dec.elements[n] == elems
        _same_frames(dec, n, frame, rng)


def weighted_free(degrees, weights, c):
    """Generators of the given degrees and weights; d of the first odd one of
    degree 2e - 1 is c times the square of the first even one, of degree e,
    when both exist and d keeps the weight filtration."""
    gens = [Generator(f"g{i}_{d}", d, weight=w) for i, (d, w) in enumerate(zip(degrees, weights))]
    A = FreeCdga(gens, 6, name="Aw")
    even = [g for g in A.gens if g.degree % 2 == 0]
    odd = [g for g in A.gens if g.degree % 2 and g.degree == 2 * even[0].degree - 1] \
        if even else []
    if odd and odd[0].weight >= 2 * even[0].weight:
        A.set_differential({odd[0].name: A.parse(f"{even[0].name}^2") * c})
    return A


def test_decalage_matches_the_reference_on_hypothesis_weighted_free_algebras():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    shapes = st.lists(st.tuples(st.integers(1, 4), st.integers(0, 2)), min_size=1, max_size=3)

    @hypothesis.settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @hypothesis.given(shapes, st.integers(-3, 3).filter(bool), st.integers(0, 1))
    def check(shape, c, r):
        A = weighted_free([d for d, _ in shape], [w for _, w in shape], c)
        rng = random.Random(repr((shape, c, r)))
        _check_decalage(FilteredComplex(A, "W"), rng)
        _check_decalage(FilteredComplex(r_path(A, r, budget=2), "W"), rng)

    check()


@pytest.mark.parametrize("budget", range(2, 7))
def test_decalage_matches_the_reference_on_r_paths(budget):
    A = FreeCdga([Generator("x2", 2, weight=0), Generator("y3", 3, weight=1),
                  Generator("z3", 3, weight=1)], 6, name="Aw")
    A.set_differential({"y3": A.parse("x2^2") * 3})
    _check_decalage(FilteredComplex(r_path(A, 1, budget=budget), "W"), random.Random(budget))


@pytest.mark.parametrize("budget", range(2, 5))
def test_subcdga_adapted_basis_matches_the_reference(budget):
    A = FreeCdga([Generator("x2", 2, weight=0), Generator("y3", 3, weight=1)], 6, name="A")
    A.set_differential({"y3": A.parse("x2^2")})
    P = r_path(A, 1, budget=budget)
    fc = FilteredComplex(SubCdga(P, [delta(P, 0)], name="ker delta0"), "W")
    rng = random.Random(budget)
    for n in range(0, fc.bound + 1):
        levels, elems, frame = reference_subcdga_basis(fc, n)
        assert fc.levels[n] == levels and fc.elements[n] == elems
        _same_frames(fc, n, frame, rng)


# ---------------------------------------------------------------------------
# spy counts on one filtered_pages pass
# ---------------------------------------------------------------------------

def test_one_filtered_pages_pass_offers_the_span_few_vectors_it_already_holds(monkeypatch):
    """Per pass of the benchmark's filtered_pages ops at seed 1, refused
    Span.add calls fall from 197 to 8 and z_basis calls from 625 to 526, and
    no op asks a Span for coordinates, so none builds an expression."""
    import hodgepath
    import workloads
    counts = {"refused": 0, "z_basis": 0, "coords": 0}
    add, z_basis, coords = linalg.Span.add, FilteredComplex.z_basis, linalg.Span.coords

    def add_spy(self, v):
        out = add(self, v)
        counts["refused"] += not out
        return out

    def z_spy(self, *args):
        counts["z_basis"] += 1
        return z_basis(self, *args)

    def coords_spy(self, v):
        counts["coords"] += 1
        return coords(self, v)

    monkeypatch.setattr(linalg.Span, "add", add_spy)
    monkeypatch.setattr(FilteredComplex, "z_basis", z_spy)
    monkeypatch.setattr(linalg.Span, "coords", coords_spy)
    for op in workloads._filtered_ops(hodgepath, 1, workloads.load_expected()):
        op.run()
    assert counts == {"refused": 8, "z_basis": 526, "coords": 0}


# ---------------------------------------------------------------------------
# mixed Hodge structures: purity per pair of steps against purity per q
# ---------------------------------------------------------------------------

def reference_check(st):
    """MhsStructure.check as it was: every (m, q) projects and decides afresh."""
    rep = ValidationReport(subject="mixed Hodge structure")
    for i in range(st.dim):
        e = {i: Fraction(1)}
        if st.conj(st.conj(e)) != e:
            rep.add("conjugation", f"not an involution at basis {i}")
    levels = st.weight_levels()
    if not levels and st.dim:
        rep.add("weights", "no weight data")
    qs = sorted(st.hodge_spans)
    for m in levels:
        den = [v for lv, v in st.weight_vectors if lv <= m - 1]
        num = [v for lv, v in st.weight_vectors if lv <= m]
        grm = linalg.Subquotient(num, den, st.dim)
        if grm.dim == 0:
            continue

        def project(vs):
            return [c for c in (grm.coords(v) for v in vs) if c is not None]

        qs_range = range(min(qs + [0]) - 1, max(qs + [0]) + 2) if qs else range(0, 1)
        for q in qs_range:
            Fq = project(_reference_cap(st, q, m))
            Fbar = project([st.conj(v) for v in _reference_cap(st, m - q + 1, m)])
            if linalg.intersect(Fq, Fbar, grm.dim):
                rep.add("purity-intersection",
                        f"F^{q} cap conj(F^{m - q + 1}) != 0 at weight {m}", weight=m, q=q)
            total = linalg.rank(Fq + Fbar, grm.dim)
            if total != grm.dim:
                rep.add("purity-sum", f"F^{q} + conj(F^{m - q + 1}) misses Gr_{m}",
                        weight=m, q=q, dim=total, expected=grm.dim)
    return rep


def _reference_cap(st, q, m):
    q = min((qq for qq in st.hodge_spans if qq >= q), default=None)
    if q is None:
        return []
    wm = [v for lv, v in st.weight_vectors if lv <= m]
    return linalg.intersect(st.f_span(q), wm, st.dim)


def reference_types_at(st, m):
    den = [v for lv, v in st.weight_vectors if lv <= m - 1]
    num = [v for lv, v in st.weight_vectors if lv <= m]
    grm = linalg.Subquotient(num, den, st.dim)
    out = {}
    for q in sorted(st.hodge_spans):
        Fq = [c for c in (grm.coords(v) for v in _reference_cap(st, q, m)) if c is not None]
        Fb = [c for c in (grm.coords(st.conj(v)) for v in _reference_cap(st, m - q, m))
              if c is not None]
        d = len(linalg.intersect(Fq, Fb, grm.dim))
        if d:
            out[(q, m - q)] = d
    return out


def _scalar_row(dense):
    return row_of([c if type(c) is Scalar else Scalar(c) for c in dense])


def seeded_structure(rng, shifts=()):
    """A direct sum of pure pieces, written in a random rational basis.

    A piece of odd weight 2k+1 and dimension 2g has F^(k+1) spanned by
    a_j + i b_j and F^k = everything, with a_1..a_g, b_1..b_g a rational
    basis; a piece of even weight 2k is of type (k, k).  shifts, if given,
    adds one odd piece per shift, of weights 1, 3, ..., with every Hodge
    level moved by the shift: up, F^q meets conj(F^(m-q+1)) at several q;
    down, their sum misses Gr_m at several q.
    """
    pieces = [(2 * k + 1, k, rng.randint(1, 2), shift) for k, shift in enumerate(shifts)]
    for _ in range(rng.randint(0 if shifts else 1, 2)):
        k = rng.randint(0, 2)
        if shifts:
            pieces.append((2 * k + 2 * len(shifts), k + len(shifts), rng.randint(1, 2), 0))
        elif rng.random() < 0.6:
            pieces.append((2 * k + 1, k, rng.randint(1, 2), 0))
        else:
            pieces.append((2 * k, k, rng.randint(1, 2), 0))
    dim = sum(2 * g if m % 2 else g for m, _, g, _ in pieces)
    # a random rational change of basis, invertible
    while True:
        basis = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
        if linalg.rank([row_of([Scalar(c) for c in r]) for r in basis], dim) == dim:
            break

    def image(dense):       # the vector with these coordinates in the new basis
        return [sum((c * Scalar(basis[i][j]) for i, c in enumerate(dense)), Scalar(0))
                for j in range(dim)]

    weight_vectors, spans, at = [], {}, 0
    for m, k, g, shift in pieces:
        size = 2 * g if m % 2 else g
        units = [[Scalar(1) if j == at + i else Scalar(0) for j in range(dim)]
                 for i in range(size)]
        weight_vectors += [(m, _scalar_row(image(u))) for u in units]
        if m % 2:
            i = QI.scalar(0, 1)
            for j in range(g):
                a, b = units[j], units[g + j]
                spans.setdefault(k + 1 + shift, []).append(
                    _scalar_row(image([x + i * y for x, y in zip(a, b)])))
                spans.setdefault(k + shift, []).append(
                    _scalar_row(image([x - i * y for x, y in zip(a, b)])))
        else:
            spans.setdefault(k, []).extend(_scalar_row(image(u)) for u in units)
        at += size
    return MhsStructure(dim, weight_vectors, spans)


def _same_as_reference(st):
    got = st.check()
    want = reference_check(st)
    assert got.failures == want.failures
    for m in st.weight_levels():
        assert st.types_at(m) == reference_types_at(st, m)
    return got


@pytest.mark.parametrize("seed", range(12))
def test_seeded_structures_pass_as_the_reference_says(seed):
    st = seeded_structure(random.Random(f"mhs:{seed}"))
    assert _same_as_reference(st).ok


@pytest.mark.parametrize("seed", range(12))
def test_seeded_structures_with_shifted_hodge_levels_fail_with_the_reference_witnesses(seed):
    rng = random.Random(f"mhs-bad:{seed}")
    st = seeded_structure(rng, shifts=(rng.choice((1, 2)), -rng.choice((1, 2))))
    rep = _same_as_reference(st)
    assert not rep.ok
    for check in ("purity-intersection", "purity-sum"):
        assert len({fl["q"] for fl in rep.failures if fl["check"] == check}) >= 2, check


def test_the_benchmark_structures_match_the_reference(monkeypatch):
    """Every MhsStructure that check_mhd and pi_star build on the CP^k diagrams."""
    built = []
    init = MhsStructure.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(MhsStructure, "__init__", spy)
    for k in (2, 3, 4):
        D, M = cp_family(k, random.Random(f"mhs:cp{k}"))
        top = f"a{2 * k + 1}"
        f = strict_comparison(D, M, lambda A: {"a2": A.basis_element("x2"), top: A.zero()})
        assert hodge.check_mhd(D).ok and hodge.pi_star(D, M, f).ok
    assert len(built) > 20
    for st in built:
        assert _same_as_reference(st).ok


def test_check_takes_each_purity_sum_once_per_pair_of_steps(monkeypatch):
    st = seeded_structure(random.Random("mhs:pairs"), shifts=(1, -1))
    ranks = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda *a: ranks.append(a) or rank(*a))
    st.check()
    qs = list(st.hodge_spans) + [0]
    pairs = {(m, st._step(q), st._step(m - q + 1))
             for m in st.weight_levels() if st._gr(m).dim
             for q in range(min(qs) - 1, max(qs) + 2)}
    iterations = sum(1 for m in st.weight_levels() if st._gr(m).dim
                     for _ in range(min(qs) - 1, max(qs) + 2))
    assert len(ranks) == len(pairs) < iterations


# ---------------------------------------------------------------------------
# validate_ho_morphism: images by linearity against F_u(db)
# ---------------------------------------------------------------------------

def reference_validate_ho_morphism(f, upto=None):
    """validate_ho_morphism as it was: F_u applied to b and to db for every b."""
    rep = ValidationReport(subject=f"ho-morphism {f.name}")
    upto_eff = min(f.source.check_upto(), f.target.check_upto()) if upto is None else upto
    for u in f.source.phi:
        a = f.source.arrow(u)
        F_u = f.homotopies[u]
        kB = keyed(f.path_target(u))
        dom = f.source.algebras[a.src]
        for n in range(0, upto_eff + 1):
            for b in dom.basis(n):
                x = f.source.to_dom(u)(b)
                hx = F_u(x)
                if kB.evaluate(hx, 0) != f.maps[a.dst](f.source.comp(u)(b)):
                    rep.add("endpoint-0", f"arrow {u}, degree {n}")
                    break
                if kB.evaluate(hx, 1) != f.target.comp(u)(f.maps[a.src](b)):
                    rep.add("endpoint-1", f"arrow {u}, degree {n}")
                    break
                if n <= upto_eff - 1 and F_u(f.source.to_dom(u)(b.d())) != hx.d():
                    rep.add("chain-map", f"arrow {u}, degree {n}")
                    break
    return rep


def _counted(f, calls, mutate=None):
    """f with each arrow homotopy counting its applications, and changed by mutate(kB, F, x)."""
    homotopies = {}
    for u, F in f.homotopies.items():
        kB = keyed(f.path_target(u))

        def fn(x, F=F, kB=kB):
            calls.append(x)
            y = F(x)
            return y if mutate is None else y + mutate(kB, F, x, y)

        homotopies[u] = Morphism(F.source, F.target, fn, name=F.name)
    return HoMorphism(f.source, f.target, f.maps, homotopies, name=f.name)


def _at_zero(kB, y):
    return kB.include(kB.evaluate(y, 0))


MUTANTS = {
    "valid": None,
    # (t - t^2) y(0): both endpoints stay, d of it picks up (1 - 2t) dt y(0)
    "chain-map": lambda kB, F, x, y: _at_zero(kB, y) * (kB.t() - kB.t() * kB.t()),
    "endpoint-1": lambda kB, F, x, y: _at_zero(kB, y) * kB.t(),
    "endpoint-0": lambda kB, F, x, y: _at_zero(kB, y) * (kB.unit() - kB.t()),
}


def _subjects():
    yield "square", square_diagram()[2]
    for k in (2, 3):
        D, M = cp_family(k, random.Random(f"ho:cp{k}"))
        top = f"a{2 * k + 1}"
        yield f"cp{k}", strict_comparison(
            D, M, lambda A: {"a2": A.basis_element("x2"), top: A.zero()})
    D, M = cp_family(2, random.Random("ho:p1"))
    yield "p1-into-cp2", strict_comparison(
        D, toy_model(M.N), lambda A: {"a2": A.basis_element("x2"), "a3": A.zero()})


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_validate_ho_morphism_matches_the_reference_on_mutants(mutant):
    for name, f in _subjects():
        new_calls, old_calls = [], []
        got = validate_ho_morphism(_counted(f, new_calls, MUTANTS[mutant]))
        want = reference_validate_ho_morphism(_counted(f, old_calls, MUTANTS[mutant]))
        assert got.failures == want.failures, name
        assert len(new_calls) <= len(old_calls), name
        checks = {fl["check"] for fl in got.failures}
        if mutant == "valid":
            assert got.ok == (name != "p1-into-cp2"), name
            if got.ok:
                # once per basis element, against twice below the top degree
                upto = min(f.source.check_upto(), f.target.check_upto())
                dims = sum(f.source.algebras[f.source.arrow(u).src].dim(n)
                           for u in f.source.phi for n in range(upto + 1))
                assert len(new_calls) == dims < len(old_calls), name
        else:
            assert mutant in checks, name


def _free_square(degrees):
    """The strict ho-morphism, promoted, between two copies of the arrow
    Lambda(x_n : n in degrees) -> Lambda(x_n) sending x_n to x_n, with d = 0."""
    I = IndexCategory({"0": 0, "1": 1}, [("u", "0", "1")])

    def diagram(name):
        algs = {v: FreeCdga([Generator(f"{name}{n}", n) for n in degrees], 5, name=f"{name}{v}")
                for v in ("0", "1")}

        def same(src, dst):
            return FreeMorphism(src, dst, {g.name: dst.generator(g.name) for g in src.gens})

        return Diagram(I, algs, arrows={"u": same(algs["0"], algs["1"])}, budget=6), same

    (DA, same), (DB, _) = diagram("a"), diagram("b")
    maps = {v: FreeMorphism(DA.algebras[v], DB.algebras[v],
                            {f"a{n}": DB.algebras[v].generator(f"b{n}") for n in degrees})
            for v in ("0", "1")}
    return promote_strict(DiagramMorphism(DA, DB, maps, name="x -> x"))


# p at the one generator, c a basis element of the target vertex in its degree
ONE_GENERATOR_MUTANTS = {
    "endpoint-0": lambda kB, c: c * (kB.unit() - kB.t()),
    "endpoint-1": lambda kB, c: c * kB.t(),
    "chain-map": lambda kB, c: c * (kB.t() - kB.t() * kB.t()),   # endpoints stay
}


def _at_one_generator(f, u, gen, p):
    """f with F_u, rebuilt from its generator images, changed by p at gen alone."""
    F, dom = f.homotopies[u], f.source.dom(u)
    images = {g.name: F(dom.generator(g.name)) for g in dom.gens}
    if p is not None:
        images[gen] = images[gen] + p
    homotopies = dict(f.homotopies, **{u: FreeMorphism(dom, F.target, images, name=F.name)})
    return HoMorphism(f.source, f.target, f.maps, homotopies, name=f.name)


def _one_generator_subjects():
    yield "free 1, 2, 3", _free_square((1, 2, 3))
    D, M = cp_family(2, random.Random("ho:cp2"))
    yield "cp2", strict_comparison(D, M, lambda A: {"a2": A.basis_element("x2"),
                                                    "a5": A.zero()})


@pytest.mark.parametrize("mutant", sorted(ONE_GENERATOR_MUTANTS))
def test_validate_ho_morphism_matches_the_reference_at_one_generator(mutant):
    """F_u changed at one generator of each degree the target vertex reaches:
    the report is the reference's, and the mutant's failure is among the
    witnesses of that generator's degree.  Through degree 4, (t - t^2)^2 in
    a2^2 stays inside cp2's t-budget 4."""
    degrees, upto = set(), 4
    for name, f in _one_generator_subjects():
        for u in f.source.phi:
            assert validate_ho_morphism(_at_one_generator(f, u, None, None), upto).ok, name
            kB = keyed(f.path_target(u))
            for gen in f.source.dom(u).gens:
                n = gen.degree
                targets = kB.base.basis(n) if n <= upto else []
                if not targets or (mutant == "chain-map" and n == upto):
                    continue
                p = ONE_GENERATOR_MUTANTS[mutant](kB, kB.include(targets[0]))
                g = _at_one_generator(f, u, gen.name, p)
                got = validate_ho_morphism(g, upto)
                assert got.failures == reference_validate_ho_morphism(g, upto).failures, \
                    (name, gen)
                assert {"check": mutant, "witness": f"arrow {u}, degree {n}"} in got.failures, \
                    (name, gen, got.failures)
                degrees.add(n)
    assert degrees == {1, 2, 3}


# ---------------------------------------------------------------------------
# satellites: d^2 swept once per degree; no H(f) for a map that is not a chain map
# ---------------------------------------------------------------------------

class _Writes(dict):
    """A dict that records the keys written into it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def __setitem__(self, key, value):
        self.writes.append(key)
        super().__setitem__(key, value)


def test_one_minimal_model_call_sweeps_d_squared_once_per_degree():
    A = TableCdga([TableBasisElement("one", 0), TableBasisElement("x2", 2),
                   TableBasisElement("x4", 4)], 6, unit="one", name="CP2",
                  products={("x2", "x2"): {"x4": Scalar(1)}})
    A._derived = memo = _Writes()
    minimal_model(A, 6)
    swept = [key for key in memo.writes if key[0] == "d squared"]
    assert swept == [("d squared", n) for n in range(6)]
    assert all(memo[key] is None for key in swept)


def test_set_differential_drops_the_d_squared_verdicts():
    A = FreeCdga([Generator("x3", 3), Generator("y4", 4), Generator("z5", 5)], 7, name="A")
    assert homology.d_squared_witness(A, 7) is None
    A.set_differential({"x3": A.generator("y4"), "y4": A.generator("z5")})
    assert homology.d_squared_witness(A, 7) == "d(d(x3)) = z5 in degree 5"
    A.set_differential({"y4": A.zero()})
    assert homology.d_squared_witness(A, 7) is None


def _p1_into_cp2():
    D, M = cp_family(2, random.Random("chain:cp2"))
    f = strict_comparison(D, toy_model(M.N), lambda A: {"a2": A.basis_element("x2"),
                                                        "a3": A.zero()})
    return f.maps["0"]


def test_a_map_that_is_not_a_chain_map_has_no_induced_map():
    """rho(a3) = 0 but rho(d a3) = rho(a2^2) = x2^2 != 0: from H^3 on, the
    degree-3 square fails, so H^3 (check after the classes) and H^4 (check
    before them) both raise; below, rho is a chain map and H(rho) is iso."""
    rho = _p1_into_cp2()
    assert homology._commutes_with_d(rho, 2) and not homology._commutes_with_d(rho, 3)
    for n in (3, 4):
        with pytest.raises(AlgebraError, match="^map does not descend to cohomology$"):
            homology.induced_map(rho, cohomology(rho.source, n), cohomology(rho.target, n))
    for verdict in (quasi_iso_report, is_quasi_iso):
        with pytest.raises(AlgebraError, match="^map does not descend to cohomology$"):
            verdict(rho, 3)
    assert all(r["iso"] for r in quasi_iso_report(rho, 2).values())
    assert is_quasi_iso(rho, 2)


def test_a_chain_map_keeps_its_induced_map():
    D, M = cp_family(2, random.Random("chain:cp2"))
    f = strict_comparison(D, M, lambda A: {"a2": A.basis_element("x2"), "a5": A.zero()})
    for rho in f.maps.values():
        assert all(homology._commutes_with_d(rho, n) for n in range(-1, 5))
        assert is_quasi_iso(rho, 4)

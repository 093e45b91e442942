"""The one vector format: every coordinate row the library hands out.

A coefficient row is a dict {index: coeff} with int keys in range, no zero
entry, bare Fractions for the rational coefficients and Scalars only for the
irrational ones (`helpers.assert_row`).  Checked on the `coords` of every
fixture algebra and of its extension to Q(sqrt -3), of a mapping-path space
and a SubCdga, and of filtered complexes over Q and Q(sqrt -3); on
`FilteredComplex.d_rows`/`d_coords`, `Span.coords`, `Subquotient.coords` and
`reps` and `Cohomology.cls`.  Every element's coords return it through
`from_coords`.
"""

import glob
import json
import os
import random
from fractions import Fraction

import pytest

from helpers import FIXDIR, assert_row, rho_ms2_s2
from hodgepath import (FilteredComplex, FreeCdga, Generator, SubCdga, cohomology, delta,
                       extend_scalars, keyed, linalg, mapping_path, path_of, r_path)
from hodgepath.documents import build_dga
from hodgepath.filtered import SpectralSequence
from hodgepath.scalars import Field, Scalar


def _dga_docs(doc):
    if isinstance(doc, dict):
        if doc.get("kind") == "dga":
            yield doc
        else:
            for v in doc.values():
                yield from _dga_docs(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _dga_docs(v)


# fixtures that are document errors by design: they build no algebra
DOCUMENT_ERRORS = {"ms2_huge_power.json", "expr_cut_short.json", "s2_unknown_augmentation.json",
                   "table_wrong_degree.json"}


def _fixture_dgas():
    out = {}
    for path in sorted(glob.glob(os.path.join(FIXDIR, "*.json"))):
        if os.path.basename(path) in DOCUMENT_ERRORS:
            continue
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for i, d in enumerate(_dga_docs(doc)):
            out[f"{os.path.basename(path)}#{i}"] = d
    return out


FIXTURE_DGAS = _fixture_dgas()


def _elements(X, n, rng):
    """The basis of degree n and seeded combinations of it, irrational where the field is."""
    basis = X.basis(n, strict=False)
    out = list(basis)
    for _ in range(3):
        x = X.zero()
        for b in basis:
            if rng.random() < 0.7:
                c = X.field.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                if not X.field.is_rational and rng.random() < 0.6:
                    c = c + X.field.sqrt_d() * rng.randint(-2, 2)
                x = x + b * c
        out.append(x)
    return out


def _check_coords(X, n, rng):
    """coords of X's degree-n elements are rows that round-trip; returns them."""
    rows = []
    for x in _elements(X, n, rng):
        row = X.coords(x, n, strict=False)
        assert_row(row, X.dim(n, strict=False))
        assert X.from_coords(n, row, strict=False) == x
        rows.append(row)
    return rows


def _check_cohomology(X, top, rng):
    for n in range(0, top + 1):
        H = cohomology(X, n, strict=False)
        for i, rep in enumerate(H.reps):
            c = H.cls(rep)
            assert_row(c, H.dim)
            assert c == {i: Fraction(1)}
        for x in _elements(X, n, rng):
            if x.d().is_zero:
                c = H.cls(x)
                assert_row(c, H.dim)


@pytest.mark.parametrize("name", sorted(FIXTURE_DGAS))
def test_fixture_algebra_coords_and_classes(name):
    A = build_dga(FIXTURE_DGAS[name])
    spaces = [A] + ([extend_scalars(A, -3)[0]] if A.field.is_rational else [])
    rng = random.Random(name)
    irrational = 0
    for X in spaces:
        for n in range(0, X.N + 1):
            rows = _check_coords(X, n, rng)
            irrational += sum(type(c) is Scalar for r in rows for c in r.values())
        _check_cohomology(X, X.N - 1, rng)
    if any(X.dim(n) for X in spaces[1:] for n in range(1, X.N + 1)):
        assert irrational, "no irrational coefficient was checked"


def _weighted_free(field):
    """x2 at weight 0, y3 and z3 at weight 1, d y3 = c x2^2 with c irrational over Q(sqrt d)."""
    A = FreeCdga([Generator("x2", 2, weight=0), Generator("y3", 3, weight=1),
                  Generator("z3", 3, weight=1)], 6, field=field, name="Aw")
    c = field.scalar(3) if field.is_rational else field.scalar(1) + field.sqrt_d()
    A.set_differential({"y3": A.parse("x2^2") * c})
    return A


def _subspaces(field):
    P = path_of(_weighted_free(field), budget=2)
    out = {"kernel of delta0": SubCdga(keyed(P), [delta(P, 0)], name="ker delta0")}
    if field.is_rational:
        out["mapping path"] = mapping_path(rho_ms2_s2(5)[2], budget=2).space
    return out


@pytest.mark.parametrize("d", [None, -3])
def test_subalgebra_coords_and_classes(d):
    rng = random.Random(f"sub:{d}")
    for name, S in _subspaces(Field(d)).items():
        for n in range(0, 4):
            _check_coords(S, n, rng)
        _check_cohomology(S, 2, rng)


@pytest.mark.parametrize("d", [None, -3])
def test_filtered_complex_rows(d):
    rng = random.Random(f"filtered:{d}")
    fc = FilteredComplex(r_path(_weighted_free(Field(d)), 1, budget=3), "W")
    ss = SpectralSequence(fc)
    for n in range(0, fc.bound):
        assert fc.X is fc.ambient           # a keyed algebra: every element is inside
        for x in _elements(fc.ambient, n, rng):
            row = fc.coords(x, n)
            assert_row(row, fc.dim(n))
            assert fc.from_coords(n, row) == x
            assert_row(fc.d_coords(n, row), fc.dim(n + 1))
        for i in range(fc.dim(n)):
            assert_row(fc.d_rows(n)[i], fc.dim(n + 1))
        for r in (0, 1):
            for p in ss.p_range():
                sq = ss.entry(r, p, n)
                for i, rep in enumerate(sq.reps):
                    assert_row(rep, fc.dim(n))
                    c = sq.coords(rep)
                    assert_row(c, sq.dim)
                    assert c == {i: Fraction(1)}


def test_rows_where_scalar_arithmetic_cancels_the_imaginary_part():
    # each row below has a rational entry that Scalar arithmetic computes
    i3 = Scalar(0, 1, -3)
    one_i = Scalar(1, 1, -3)
    rows = []
    # the coordinate of (2 + 2i, 0) over (1 + i, 0) is 2
    span = linalg.Span()
    assert span.add({0: one_i}) and span.add({1: i3})
    rows.append(span.coords({0: one_i * 2}))
    assert rows[-1] == {0: Fraction(2)}
    # (i, 3) minus i times the denominator row (1, 1/i) leaves 2 at the representative
    sq = linalg.Subquotient([{1: Fraction(1)}], [{0: i3, 1: Fraction(1)}], 2)
    rows.append(sq.coords({0: i3, 1: Fraction(3)}))
    assert rows[-1] == {0: Fraction(2)}
    rows += sq.reps
    rows.append(linalg.combine({0: i3, 1: Fraction(1)}, [{0: i3}, {0: Fraction(3)}]))
    assert rows[-1] == {}
    rows.append(linalg.combine({0: one_i, 1: -i3}, [{0: i3}, {0: Fraction(1)}]))
    assert rows[-1] == {0: Fraction(-3)}
    rows += linalg.left_kernel([{0: one_i}, {0: Scalar(2, 2, -3)}], 2)
    rows += linalg.intersect([{0: one_i, 1: i3}], [{0: one_i * 2, 1: i3 * 2}], 2)
    rows += linalg.solve([{0: one_i}], 1, [{0: Scalar(3, 3, -3)}])
    assert rows[-1] == {0: Fraction(3)}
    assert len(rows) == 8
    for row in rows:
        assert_row(row, 2)

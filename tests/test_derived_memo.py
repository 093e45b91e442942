"""One memo per space: what is derived from a space is built once and kept on it.

`algebra.derived` keeps a space's cohomology groups, d^2 verdicts, filtered
complexes, spectral sequences and graded pieces (beside its path objects).
These tests fail on a stale memo or a wrong key:
  - after `FreeCdga.set_differential`, `cohomology`, `d_squared_witness`,
    `filtered_complex` and `gr` answer for the new d;
  - a comparison that preserves W but breaks F is refused for F both by
    `validate_diagram` and by `is_Er_quasi_iso(f, 1, kind="F")`, after the
    W complexes of the same spaces were kept: a key without the filtration
    would hand the F check the W complexes;
  - on fixtures/p1toy.json, `degeneration` builds 5 filtered complexes (one
    per vertex algebra and filtration it reads) and `check` builds 3.
"""

import pytest

from helpers import fixture_path, run_main
from hodgepath import (FreeCdga, Generator, IndexCategory, TableBasisElement, TableCdga,
                       cohomology, filtered_complex, gr, is_Er_quasi_iso, linear_morphism,
                       spectral_sequence, validate_diagram)
from hodgepath import filtered, homology
from hodgepath.diagrams import Diagram


def _weighted():
    """x2 (weight 1), y3 and z4 (weight 2), d = 0; d y3 = x2^2 keeps the weight."""
    return FreeCdga([Generator("x2", 2, weight=1), Generator("y3", 3, weight=2),
                     Generator("z4", 4, weight=2)], 7, name="A")


def _state(A):
    fc = filtered_complex(A)
    return {"H3": cohomology(A, 3).dim, "H4": cohomology(A, 4).dim,
            "d2": homology.d_squared_witness(A, 7),
            "fc_d3": fc.d_rows(3), "gr2_d3": gr(A, 2).d[3]}


def test_set_differential_drops_every_derived_object():
    A = _weighted()
    fc, g, H3 = filtered_complex(A), gr(A, 2), cohomology(A, 3)
    assert _state(A) == {"H3": 1, "H4": 2, "d2": None,
                         "fc_d3": [{}], "gr2_d3": [{}]}
    # kept: asked again, the same objects
    assert filtered_complex(A) is fc and gr(A, 2) is g and cohomology(A, 3) is H3

    A.set_differential({"y3": A.parse("x2^2")})
    after = _state(A)
    assert filtered_complex(A) is not fc and gr(A, 2) is not g and cohomology(A, 3) is not H3
    # y3 is no cycle, x2^2 a boundary; d y3 = x2^2 lies in level 2 of W
    assert (after["H3"], after["H4"], after["d2"]) == (0, 1, None)
    assert after["fc_d3"] != [{}] and any(after["fc_d3"])
    assert any(after["gr2_d3"])

    # d z4 = x2 y3 and d y3 = z4: d^2 y3 != 0
    A.set_differential({"y3": A.generator("z4"), "z4": A.parse("x2*y3")})
    assert homology.d_squared_witness(A, 7) == "d(d(y3)) = x2*y3 in degree 5"


def test_the_spectral_sequence_is_rebuilt_with_its_complex():
    A = _weighted()
    ss = spectral_sequence(A)
    assert spectral_sequence(A) is ss and ss.fc is filtered_complex(A)
    A.set_differential({"y3": A.parse("x2^2")})
    assert spectral_sequence(A) is not ss
    assert spectral_sequence(A).fc is filtered_complex(A)


def _breaks_f():
    """Two bifiltered vertices; f: x2 -> y2 keeps weight 0 but sends F^1 to F^0 only."""
    A = TableCdga([TableBasisElement("one", 0, weight=0, hodge=0),
                   TableBasisElement("x2", 2, weight=0, hodge=1)], 4, unit="one", name="A")
    B = TableCdga([TableBasisElement("one", 0, weight=0, hodge=0),
                   TableBasisElement("y2", 2, weight=0, hodge=0)], 4, unit="one", name="B")
    f = linear_morphism(A, B, {"one": B.unit(), "x2": B.basis_element("y2")}, "f")
    D = Diagram(IndexCategory({"0": 0, "1": 1}, [("u", "0", "1")]), {"0": A, "1": B},
                tags={"0": "bifiltered", "1": "bifiltered"}, arrows={"u": f}, name="F-break")
    return D, f


def test_a_comparison_that_breaks_f_only_is_refused_for_f():
    D, f = _breaks_f()
    rep = validate_diagram(D)
    assert [fl["check"] for fl in rep.failures] == ["comparison-F-filtration"]
    # the W complexes of both spaces are kept now; the F check reads its own
    assert is_Er_quasi_iso(f, 1, kind="W") == (True, [])
    ok, bad = is_Er_quasi_iso(f, 1, kind="F")
    assert not ok
    assert bad[0]["reason"] == "not filtration-preserving"
    assert (bad[0]["level"], bad[0]["image_level"]) == (-1, 0)
    # each filtration has its own spectral sequence, on its own complex
    for X in (f.source, f.target):
        assert [spectral_sequence(X, k).fc for k in "WF"] == [
            filtered_complex(X, "W"), filtered_complex(X, "F")]
        assert filtered_complex(X, "F").kind == "F"


def _built_complexes(monkeypatch):
    built = []
    init = filtered.FilteredComplex.__init__

    def counting(self, X, kind="W", bound=None):
        built.append((X, kind))
        init(self, X, kind, bound)

    monkeypatch.setattr(filtered.FilteredComplex, "__init__", counting)
    return built


@pytest.mark.parametrize("command, count", [("degeneration", 5), ("check", 3)])
def test_p1toy_builds_one_complex_per_algebra_and_filtration(command, count, monkeypatch):
    built = _built_complexes(monkeypatch)
    rc, _ = run_main(command, fixture_path("p1toy.json"))
    assert rc == 0
    # degeneration: AQ@C, Amid and AC for W, AQ for W and AC for F; check: the
    # W complexes of the three comparison ends, Amid's read by both arrows
    assert len(built) == len(set(built)) == count

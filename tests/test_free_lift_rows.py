"""free_lift applies v to X^n once per degree, with the lifts of a per-generator solve.

free_lift reads v's rows on X^n, which morphism_matrix builds once per degree
and keeps on v, for every generator of that degree, in the preimage solve and
in the closed correction.  A spy around v counts its applications; a
test-local reference re-solves each generator from scratch, with a fresh
matrix of v built here (not through morphism_matrix or solve_preimage) for
the preimage and for the correction, and the lift log and every generator
image must be the ones it finds.  The lifts are those behind lift_homotopy,
fill_square and homotopy_add, over sources with two generators in one degree.
"""

from collections import Counter

import pytest

from hodgepath import (FreeCdga, FreeMorphism, Generator, Homotopy, Morphism, compose,
                       constant_homotopy, delta, fill_square, homotopy_add, iota, keyed,
                       lift_homotopy, linalg, path_of)
from hodgepath import lifting
from hodgepath.lifting import _apply_partial

BUDGET = 4


def reference_free_lift(C, v, f):
    """(images, log) of free_lift, solving every generator with fresh matrices."""
    X, Y = v.source, v.target
    images, log = {}, []
    for gen in C.gens:
        n = gen.degree
        v_rows = [Y.coords(v(b), n) for b in X.basis(n)]
        sol, = linalg.solve(v_rows, len(v_rows), [Y.coords(f(C.generator(gen.name)), n)])
        assert sol is not None
        xi = X.from_coords(n, sol)
        entry = {"generator": gen.name, "degree": n, "correction": False}
        if n + 1 <= X.N:
            err = _apply_partial(C, images, C.differential_of(gen.name), X) - xi.d()
            if not err.is_zero:
                offset = X.dim(n + 1, strict=False)
                rows = []
                for b in X.basis(n, strict=False):
                    row = X.coords(b.d(), n + 1, strict=False)
                    for j, c in Y.coords(v(b), n, strict=False).items():
                        row[offset + j] = c
                    rows.append(row)
                sol, = linalg.solve(rows, len(rows), [X.coords(err, n + 1, strict=False)])
                assert sol is not None
                xi = xi + X.from_coords(n, sol, strict=False)
                entry["correction"] = True
        else:
            entry["provisional"] = True
        images[gen.name] = xi
        log.append(entry)
    return images, log


@pytest.fixture
def lifts(monkeypatch):
    """Every free_lift call made through the lifting layer, run with a spy on v."""
    calls = []
    original = lifting.free_lift

    def spied(C, v, f, name="lift"):
        applied = Counter()

        def counting(x):
            applied[x.degree()] += 1
            return v(x)

        g = original(C, Morphism(v.source, v.target, counting, name=v.name), f, name)
        calls.append((C, v, f, applied, g))
        return g

    monkeypatch.setattr(lifting, "free_lift", spied)
    return calls


def _check(calls):
    assert calls
    for C, v, f, applied, g in calls:
        degrees = {gen.degree for gen in C.gens}
        assert max(Counter(gen.degree for gen in C.gens).values()) >= 2
        assert dict(applied) == {n: v.source.dim(n) for n in degrees}
        images, log = reference_free_lift(C, v, f)
        assert g.lift_log == log
        assert g.gen_images == images


def _sources():
    C = FreeCdga([Generator("c1", 1), Generator("c1b", 1)], 4, name="C")
    B = FreeCdga([Generator("b1", 1)], 4, name="B")
    return C, B


def _loop(C, B, k):
    """h: C -> P(B), a non-constant loop at c1 |-> b1, c1b |-> 2 b1."""
    b1 = k.include(B.generator("b1"))
    wiggle = k.t() * k.dt() - k.t() * k.t() * k.dt()
    return FreeMorphism(C, k, {"c1": b1 + wiggle, "c1b": b1 * 2 - wiggle * 3}, name="h")


def test_lift_homotopy_solves_each_degree_once(lifts):
    C, B = _sources()
    k = keyed(path_of(B, BUDGET))
    d0 = delta(k, 0)
    b1 = k.include(B.generator("b1"))
    f0 = FreeMorphism(C, k, {"c1": b1, "c1b": b1 * 2}, name="f0")
    f1 = _loop(C, B, k)
    vf0 = compose(d0, f0)
    h = Homotopy(vf0, compose(d0, f1), constant_homotopy(vf0, budget=BUDGET).map)
    lift_homotopy(C, d0, f0, f1, h)
    _check(lifts)


def test_fill_square_solves_each_degree_once(lifts):
    C, B = _sources()
    PB = path_of(B, BUDGET)
    h = _loop(C, B, keyed(PB))
    ends = compose(iota(PB), compose(delta(PB, 0), h))
    fill_square(C, PB, h, h, ends, ends)
    _check(lifts)


def test_homotopy_add_solves_each_degree_once(lifts):
    C, B = _sources()
    P = path_of(B, BUDGET)
    h = _loop(C, B, keyed(P))
    hh = Homotopy(compose(delta(P, 0), h), compose(delta(P, 1), h), h)
    homotopy_add(hh, hh.reversed())
    _check(lifts)

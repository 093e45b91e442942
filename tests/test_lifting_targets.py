"""Lifting targets are built once per path object, with the lifts of fresh ones.

A square of homotopies in P(B) is filled against the four-face boundary map
theta of P(B), homotopies in P(A) are added against the mapping path pi
of delta^1 on P(A), and a homotopy h: v f0 ~ v f1 in P(B) is lifted against
(delta^0, delta^1, P(v)): P(A) -> P(v, v).  The first two depend only on the
path object and the third on it, v and P(A); the path object keeps them,
and morphism_matrix keeps each map's rows per degree.  A spy shows that a
chain of ho-homotopies (compose_ho, build_ho_homotopy, ho_homotopy_add) on
one diagram builds the square boundary's constraint kernel once and applies
theta and each pi once per basis element; the lifts it finds are those of
fresh targets on freshly built diagrams, read through `element_expr`.
"""

from collections import Counter

import pytest

from helpers import square_diagram
from hodgepath import (FreeCdga, FreeMorphism, Generator, Homotopy, Morphism,
                       build_ho_homotopy, compose, compose_ho, constant_homotopy,
                       delta, element_expr, fill_square, homotopy_add, identity_ho,
                       iota, keyed, lift_homotopy, path_of, reflexive_ho_homotopy,
                       verify_homotopy)
from hodgepath import algebra, lifting, paths
from hodgepath.diagrams import ho_homotopy_add

BUDGET = 3


def _chain(DA, f):
    """compose_ho, build_ho_homotopy, then ho_homotopy_add with the reflexive homotopy."""
    gen = compose_ho(f, identity_ho(DA))
    consts = {v: constant_homotopy(f.maps[v], BUDGET) for v in ("0", "1")}
    h1 = build_ho_homotopy(gen, f, consts)
    return gen, h1, ho_homotopy_add(h1, reflexive_ho_homotopy(f))


def _exprs(m):
    return {g.name: element_expr(m(m.source.generator(g.name))) for g in m.source.gens}


def _chain_exprs(gen, h1, total):
    return {"gen": _exprs(gen.homotopies["u"]),
            "h1": _exprs(h1.arrows["u"]),
            "vertex": {v: _exprs(h.map) for v, h in sorted(total.vertex.items())},
            "total": _exprs(total.arrows["u"])}


def test_chain_builds_each_target_and_matrix_once(monkeypatch):
    bases = Counter()
    kernel = algebra.SubCdga._kernel

    def counting_kernel(self, n):
        if n not in self._rows:
            bases[self.name, n] += 1
        return kernel(self, n)

    monkeypatch.setattr(algebra.SubCdga, "_kernel", counting_kernel)
    built, applied = Counter(), Counter()

    def spied(make, slot):
        """make, with its map in `slot` counting applications per degree."""
        def build(P):
            out = list(make(P))
            m = out[slot]

            def counting(x):
                applied[m.name, id(P), x.degree()] += 1
                return m(x)

            built[m.name, id(P)] += 1
            out[slot] = Morphism(m.source, m.target, counting, name=m.name)
            return tuple(out)
        return build

    monkeypatch.setattr(lifting, "_square_target", spied(lifting._square_target, 1))
    monkeypatch.setattr(lifting, "_addition_target", spied(lifting._addition_target, 2))
    DA, DB, f = square_diagram(budget=BUDGET)
    _chain(DA, f)
    PB0, PB1 = DB.vertex_path("0"), DB.vertex_path("1")
    # two squares filled in P(B1), and homotopies added in P(B1) twice
    # (compose_ho, then vertex 1) and in P(B0) once (vertex 0)
    assert built == {("faces", id(PB1)): 1, ("pi_A", id(PB1)): 1, ("pi_A", id(PB0)): 1}
    assert bases == {("square boundary", 1): 1, ("MappingPath(delta^1)", 1): 2}
    theta = lifting.boundary_square_target(PB1)[1]
    pis = {id(P): P._derived["homotopy_add"][2] for P in (PB0, PB1)}
    # every lift is of degree-1 generators: one row of theta or pi per basis element
    assert applied == {("faces", id(PB1), 1): theta.source.dim(1),
                       ("pi_A", id(PB0), 1): pis[id(PB0)].source.dim(1),
                       ("pi_A", id(PB1), 1): pis[id(PB1)].source.dim(1)}


@pytest.mark.parametrize("twist", [1, -3])
def test_chain_lifts_equal_those_of_fresh_targets(monkeypatch, twist):
    DA, _, f = square_diagram(budget=BUDGET, twist=twist)
    cached = _chain_exprs(*_chain(DA, f))
    # every lift against a target built for it alone, on a diagram of its own
    monkeypatch.setattr(lifting, "derived", lambda P, key, build: build())
    DA, _, f = square_diagram(budget=BUDGET, twist=twist)
    assert _chain_exprs(*_chain(DA, f)) == cached


def _loop_setup():
    """C, P(B) and a non-constant loop h: C -> P(B), on algebras of their own."""
    C = FreeCdga([Generator("c1", 1), Generator("c1b", 1)], 4, name="C")
    B = FreeCdga([Generator("b1", 1)], 4, name="B")
    P = path_of(B, BUDGET)
    k = keyed(P)
    b1 = k.include(B.generator("b1"))
    wiggle = k.t() * k.dt() - k.t() * k.t() * k.dt()
    h = FreeMorphism(C, k, {"c1": b1 + wiggle, "c1b": b1 * 2 - wiggle * 3}, name="h")
    return C, P, Homotopy(compose(delta(P, 0), h), compose(delta(P, 1), h), h)


def _fill(C, P, h):
    ends = compose(iota(P), h.f)
    return fill_square(C, P, h.map, h.map, ends, ends)


def test_second_fill_and_sum_on_one_path_object_equal_fresh_ones():
    C, P, h = _loop_setup()
    _fill(C, P, h.reversed())
    homotopy_add(h.reversed(), h)
    cached_fill, cached_sum = _exprs(_fill(C, P, h)), _exprs(homotopy_add(h, h.reversed()).map)
    assert lifting.boundary_square_target(P) is lifting.boundary_square_target(P)
    assert _exprs(_fill(*_loop_setup())) == cached_fill
    C, P, h = _loop_setup()
    assert _exprs(homotopy_add(h, h.reversed()).map) == cached_sum


def _lift_setup():
    """C, v = delta^0: P(B) -> B, f0, f1: C -> P(B) and h: v f0 ~ v f1, on algebras of their own."""
    C = FreeCdga([Generator("c1", 1)], 4, name="C")
    B = FreeCdga([Generator("b1", 1)], 4, name="B")
    P = path_of(B, BUDGET)
    k = keyed(P)
    v = delta(P, 0)
    b1 = k.include(B.generator("b1"))
    f0 = FreeMorphism(C, k, {"c1": b1}, name="f0")
    f1 = FreeMorphism(C, k, {"c1": b1 + k.t() * k.dt() - k.t() * k.t() * k.dt()}, name="f1")
    vf0 = compose(v, f0)
    return C, v, f0, f1, Homotopy(vf0, compose(v, f1), constant_homotopy(vf0, BUDGET).map)


def test_two_homotopy_lifts_against_one_v_build_one_double_path(monkeypatch):
    built = []
    init = paths.DoublePath.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(paths.DoublePath, "__init__", counting)
    C, v, f0, f1, h = _lift_setup()
    there = lift_homotopy(C, v, f0, f1, h)
    back = lift_homotopy(C, v, f1, f0, h.reversed())
    assert built == [v]
    assert verify_homotopy(there, f0, f1, upto=3).ok
    assert verify_homotopy(back, f1, f0, upto=3).ok
    # the second lift is the one found against a target built for it alone
    monkeypatch.setattr(lifting, "derived", lambda P, key, build: build())
    C, v, f0, f1, h = _lift_setup()
    assert _exprs(lift_homotopy(C, v, f1, f0, h.reversed()).map) == _exprs(back.map)
    assert len(built) == 2

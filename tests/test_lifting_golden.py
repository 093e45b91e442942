"""Golden digests of the lifting results.

sha256 of the `element_expr` output of lift_homotopy at budgets 4 and 5, of
the ho-homotopy chain (compose_ho, build_ho_homotopy, ho_homotopy_add), of
the contraction of a mapping path and of p5_lift, each at a few fixed
rational coefficient sets.  Validity alone would let a change to a lifted
homotopy's formula through; these digests were recorded before the fibre
products read only the slots of each equation.
"""

import hashlib
import json
from fractions import Fraction as Fr

import pytest

from helpers import square_diagram
from hodgepath import (FreeCdga, FreeMorphism, Generator, Homotopy, compose,
                       constant_homotopy, delta, element_expr, keyed, lift_homotopy,
                       mapping_path, p5_lift, path_linear_map, path_of, verify_homotopy)
from test_lifting_targets import BUDGET, _chain, _chain_exprs


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _t_poly_dt(k, coeffs):
    """sum_i coeffs[i] * t^(i+1) dt in the keyed path algebra k."""
    out, power = k.zero(), k.t()
    for c in coeffs:
        out = out + power * k.dt() * c
        power = power * k.t()
    return out


def _lift(budget, c0, c1):
    """lift_homotopy of the constant homotopy v f0 ~ v f1 through v = delta^0: P(B) -> B."""
    B = FreeCdga([Generator("b1", 1)], 5, name="B")
    P = path_of(B, budget)
    k = keyed(P)
    C = FreeCdga([Generator("e2", 2)], 5, name="C")
    v = delta(P, 0)
    z = k.include(B.generator("b1"))
    f0 = FreeMorphism(C, k, {"e2": z * _t_poly_dt(k, c0)}, name="f0")
    f1 = FreeMorphism(C, k, {"e2": z * _t_poly_dt(k, c1)}, name="f1")
    vf0 = compose(v, f0)
    h = Homotopy(vf0, compose(v, f1), constant_homotopy(vf0, budget).map)
    lifted = lift_homotopy(C, v, f0, f1, h)
    assert verify_homotopy(lifted, f0, f1, upto=3).ok
    return element_expr(lifted.map(C.generator("e2")))


LIFTS = [
    (4, (Fr(1), Fr(-2)), (Fr(3, 2), Fr(1, 3)),
     "d461ae50455b0433fcb99a848ea8725806ca0f423368b7434914def579bc32d4"),
    (5, (Fr(-1, 2), Fr(2)), (Fr(2, 3), Fr(-3)),
     "08412c78224eabd86e70dcc12859743cf3bf62c55fe57c23d094d1efb3e794a3"),
    (5, (Fr(3), Fr(1, 2)), (Fr(-1), Fr(-2, 3)),
     "a3fba0aed60f0cb008667cd78310bd608472ce92a5020a05689c935c8dc94fc0"),
]


@pytest.mark.parametrize("budget,c0,c1,want", LIFTS,
                         ids=[f"b{b}-{i}" for i, (b, *_) in enumerate(LIFTS)])
def test_lift_homotopy_golden(budget, c0, c1, want):
    assert _digest(_lift(budget, c0, c1)) == want


CHAINS = [
    (1, "a3ef1e1033e2294b39c74a400ce601aa853d2de22dc64293398968b7afcc5056"),
    (Fr(-3, 2), "26a1059a88a24a545619f79cd7581d7ec325653774950ccb11fc24f1a51c4d9f"),
    (Fr(2, 3), "5ed1eea259c26f204ce3024b06468a831cb4a56a8867a303ba5fc2fe7c3cd91c"),
]


@pytest.mark.parametrize("twist,want", CHAINS, ids=[str(t) for t, _ in CHAINS])
def test_ho_chain_golden(twist, want):
    DA, _, f = square_diagram(budget=BUDGET, twist=twist)
    assert _digest(_chain_exprs(*_chain(DA, f))) == want


def _mapping_path(budget=4):
    """v: A -> B, onto B = Free(x1) with y2 sent to 0, and its mapping path."""
    A = FreeCdga([Generator("x1", 1), Generator("y2", 2)], 5, name="A")
    B = FreeCdga([Generator("x1", 1)], 5, name="B")
    v = FreeMorphism(A, B, {"x1": B.generator("x1"), "y2": B.zero()}, name="v")
    return v, mapping_path(v, budget=budget)


def test_mapping_path_contraction_golden():
    _, mp = _mapping_path()
    h = mp.contraction()
    assert verify_homotopy(h, h.f, h.g, upto=3).ok
    contraction = {n: [element_expr(h(b)) for b in mp.space.basis(n)] for n in range(0, 3)}
    assert _digest(contraction) == (
        "7cad6636fa3aa2794e7baae15d3b980e35bdc369e10385a5c4c37f5ffac546e0")


P5_LIFTS = [
    ((Fr(1), Fr(-1), Fr(2)),
     "1050f52c9e02d103182a4836346928baad024e8858fb8e94718915150300de34"),
    ((Fr(-2, 3), Fr(3), Fr(-1, 2)),
     "bbcdac602bce4e2c3a963d35763af853832a28dbe40a58d3132321c80832fd91"),
]


@pytest.mark.parametrize("coeffs,want", P5_LIFTS, ids=[str(i) for i in range(len(P5_LIFTS))])
def test_p5_lift_golden(coeffs, want):
    c0, c1, c2 = coeffs
    v, mp = _mapping_path()
    A, B = v.source, v.target
    kB = keyed(mp.PB)
    x1, xy = A.generator("x1"), A.generator("x1") * A.generator("y2")
    a0, a1 = x1 + xy * c0, x1 + xy * c1
    bt = kB.include(B.generator("x1")) * (kB.unit() + (kB.t() - kB.t() * kB.t()) * c2)
    at = p5_lift(v, a0, a1, bt)
    PA = path_of(A, 4)
    kA = keyed(PA)
    assert kA.evaluate(at, 0) == a0 and kA.evaluate(at, 1) == a1
    assert path_linear_map(v, PA, kB)(at) == bt
    assert _digest(element_expr(at)) == want

"""Rational homotopy of wedges of spheres against Hilton–Milnor, computed here.

The homotopy Lie algebra of S^{n_1} v ... v S^{n_r} is free on generators of
degrees n_i - 1 (Hilton, J. London Math. Soc. 1955), so its enveloping
algebra, the tensor algebra, has Hilbert series 1 / (1 - sum t^{n_i - 1}).
By Poincaré–Birkhoff–Witt that series equals
prod_{k odd} (1 + t^k)^{l_k} / prod_{k even} (1 - t^k)^{l_k}, where l_k is
the dimension of the Lie algebra in degree k, and dim pi_{k+1} (x) Q = l_k.
Nothing here is recorded from the program.
"""

import random

import pytest

from helpers import random_basis_table
from hodgepath import homotopy_groups, minimal_model


def _mul(p, q, top):
    """Product of two power series (coefficient lists), cut after degree top."""
    out = [0] * (top + 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q[:top + 1 - i]):
                out[i + j] += a * b
    return out


def _factor(k, l, top):
    """(1 + t^k)^l for odd k, 1 / (1 - t^k)^l for even k, up to degree top."""
    base = [0] * (top + 1)
    base[0] = 1
    if k % 2:
        base[k] = 1
    else:
        for m in range(k, top + 1, k):
            base[m] = 1
    out = [1] + [0] * top
    for _ in range(l):
        out = _mul(out, base, top)
    return out


def hilton_milnor_dims(spheres, N):
    """dim pi_n (x) Q of the wedge of spheres of these dimensions, for 2 <= n < N."""
    top = N - 2
    target = [1] + [0] * top       # 1 / (1 - sum t^{n_i - 1})
    for m in range(1, top + 1):
        target[m] = sum(target[m - s + 1] for s in spheres if 0 <= m - s + 1)
    product = [1] + [0] * top      # the PBW product over the degrees found so far
    dims = {}
    for k in range(1, top + 1):
        l_k = target[k] - product[k]
        assert l_k >= 0
        if l_k:
            dims[k + 1] = l_k
            product = _mul(product, _factor(k, l_k, top), top)
    assert product == target
    return dims


def test_oracle_on_small_free_lie_algebras():
    # one odd generator a: a and [a, a]; one even generator b: b alone
    assert hilton_milnor_dims([2], 8) == {2: 1, 3: 1}
    assert hilton_milnor_dims([3], 8) == {3: 1}
    # two odd generators: a, b; [a,a], [a,b], [b,b]; [a,[a,b]], [b,[a,b]]
    assert hilton_milnor_dims([2, 2], 5) == {2: 2, 3: 3, 4: 2}


# sphere dimensions and horizon N
WEDGES = {"s2vs3": ([2, 3], 11), "s2vs3vs4": ([2, 3, 4], 10), "s2vs2": ([2, 2], 9),
          "s3vs3": ([3, 3], 14)}


@pytest.mark.parametrize("shape", sorted(WEDGES))
def test_homotopy_groups_of_wedges_equal_hilton_milnor(shape):
    spheres, N = WEDGES[shape]
    rng = random.Random(f"oracle:{shape}")
    basis = [("one", 0)] + [(f"x{i}_{n}", n) for i, n in enumerate(spheres)]
    A = random_basis_table(shape, basis, {}, N, rng)
    dims = homotopy_groups(minimal_model(A, N, rng=random.Random(rng.randrange(2 ** 32))))
    got = {n: d for n, d in dims["dims"].items() if n < N}
    assert got == hilton_milnor_dims(spheres, N)

"""The incremental minimal-model construction.

FreeCdga.adjoin is compared with the same algebra built afresh, and
minimal_model with digests of models recorded before it grew M by adjoin.
"""

import gc
import hashlib
import json
import random
import weakref

import pytest

import helpers  # noqa: F401  (path setup)
from hodgepath import (FreeCdga, Generator, TableBasisElement, TableCdga,
                       element_expr, minimal_model)
from hodgepath.algebra import AlgebraError, SubCdga
from hodgepath.documents import dga_doc
from hodgepath.scalars import Field, Scalar
from helpers import MODEL_SHAPES, random_basis_change

N = 12


def _fresh(gens, diffs):
    M = FreeCdga(gens, N, name="M")
    M.set_differential({nm: M.parse(expr) for nm, expr in diffs.items()})
    return M


def _warm(M):
    for n in range(N + 1):
        for k in M.basis_keys(n):
            M.d_key(k)


def _snapshot(M):
    return {n: {k: dict(M.d_key(k)) for k in M.basis_keys(n)} for n in range(N + 1)}


def _adjoin(M, gens, diffs):
    return M.adjoin(gens, {nm: M.parse(expr).terms for nm, expr in diffs.items()})


def _assert_same(got, want):
    assert [g.name for g in got.gens] == [g.name for g in want.gens]
    for n in range(N + 1):
        keys = want.basis_keys(n)
        assert got.basis_keys(n) == keys
        for k in keys:
            assert got.d_key(k) == want.d_key(k), (n, want.key_str(k))


OLD_GENS = [Generator("x2", 2), Generator("v3_98", 3), Generator("v3_99", 3),
            Generator("v4_00", 4)]
OLD_D = {"v3_99": "x2^2", "v4_00": "x2*v3_98"}

CASES = {
    # every new generator sorts after the old ones: indices kept, cache carried
    "sorts-last": ([Generator("v4_01", 4), Generator("v5_00", 5), Generator("v5_01", 5)],
                   {"v4_01": "x2*v3_98", "v5_00": "x2^3", "v5_01": "x2*v4_00 + v3_98*v3_99"}),
    # v3_100 sorts before v3_98 and v3_99: every old odd generator moves
    "sorts-before": ([Generator("v3_100", 3), Generator("v5_00", 5)],
                     {"v3_100": "x2^2", "v5_00": "x2*v4_00 + v3_98*v3_99"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_adjoin_matches_fresh(case):
    new_gens, new_d = CASES[case]
    M = _fresh(OLD_GENS, OLD_D)
    _warm(M)
    before = _snapshot(M)
    grown = _adjoin(M, new_gens, new_d)
    kept = [g.name for g in grown.gens[:len(M.gens)]] == [g.name for g in M.gens]
    assert kept == (case == "sorts-last")
    assert grown.keys_kept == kept
    # the warmed caches are carried exactly when the old keys keep their meaning
    assert bool(grown._d_key_cache) == kept
    assert bool(grown._basis_cache) == kept
    want = _fresh(OLD_GENS + new_gens, {**OLD_D, **new_d})
    _assert_same(grown, want)
    for g in grown.gens:
        assert grown.differential_of(g.name).terms == want.differential_of(g.name).terms
    # d squares to zero on the grown algebra, and the parent is untouched
    for n in range(N):
        for b in grown.basis(n):
            assert b.d().d().is_zero
    assert _snapshot(M) == before


def test_adjoin_carries_the_bases_below_the_new_degrees_and_spares_the_parent():
    new_gens, new_d = CASES["sorts-last"]
    M = _fresh(OLD_GENS, OLD_D)
    _warm(M)
    diff = {i: dict(terms) for i, terms in M._diff.items()}
    grown = _adjoin(M, new_gens, new_d)
    low = min(g.degree for g in new_gens)
    assert sorted(grown._basis_cache) == [n for n in sorted(M._basis_cache) if n < low]
    want = _fresh(OLD_GENS + new_gens, {**OLD_D, **new_d})
    for n, keys in grown._basis_cache.items():
        assert keys == want.basis_keys(n)
    assert M._diff == diff
    # the child shares the parent's differential dicts; replacing one of its
    # own leaves the parent's as it was
    grown.set_differential({"v4_00": grown.parse("x2*v3_99")})
    assert M._diff == diff
    assert M.differential_of("v4_00") == M.parse("x2*v3_98")
    assert grown.differential_of("v4_00") == grown.parse("x2*v3_99")


def test_sibling_extensions_keep_their_own_caches():
    M = _fresh(OLD_GENS, OLD_D)
    _warm(M)
    gens = [Generator("v5_00", 5)]
    for expr in ["x2^3", "x2*v4_00 + v3_98*v3_99"]:
        grown = _adjoin(M, gens, {"v5_00": expr})
        _assert_same(grown, _fresh(OLD_GENS + gens, {**OLD_D, "v5_00": expr}))


def test_adjoin_in_rounds_matches_fresh():
    """Several adjoins in a row, past the 100th generator of degree 3."""
    gens, diffs = [Generator("x2", 2)], {}
    M = FreeCdga(gens, N, name="M")
    for lo, hi in [(97, 99), (99, 101), (101, 102)]:
        new = [Generator(f"v3_{k:02d}", 3) for k in range(lo, hi)]
        new_d = {g.name: "x2^2" if k % 2 else "0" for k, g in zip(range(lo, hi), new)}
        _warm(M)
        M = _adjoin(M, new, new_d)
        gens, diffs = gens + new, {**diffs, **new_d}
        _assert_same(M, _fresh(gens, diffs))


def test_adjoin_rejects_old_or_unknown_differentials():
    M = _fresh(OLD_GENS, OLD_D)
    with pytest.raises(AlgebraError):
        M.adjoin([Generator("v5_00", 5)], {"v3_99": {}})
    with pytest.raises(AlgebraError):
        M.adjoin([Generator("x2", 2)], {})
    with pytest.raises(AlgebraError):
        M.adjoin([Generator("v5_00", 5)], {"v5_00": M.parse("x2^2").terms})


# ---------------------------------------------------------------------------
# golden minimal models: digests recorded when M was rebuilt every round
# ---------------------------------------------------------------------------

def _s2vs3(N):
    return TableCdga([TableBasisElement("one", 0), TableBasisElement("x2", 2),
                      TableBasisElement("x3", 3)], N, unit="one", name="H(S2vS3)")


def _cp3(N):
    return TableCdga([TableBasisElement(nm, d) for nm, d in
                      [("one", 0), ("c2", 2), ("c4", 4), ("c6", 6)]], N, unit="one",
                     name="H(CP3)", products={("c2", "c2"): {"c4": Scalar(1)},
                                              ("c2", "c4"): {"c6": Scalar(1)}})


def _noisy(N):
    """H(S2vS2vS3) plus acyclic pairs in degrees 1-2 and 2-3: the rng's
    perturbations of representatives show in rho."""
    names = [("one", 0), ("x2", 2), ("y2", 2), ("x3", 3), ("u1", 1), ("w2", 2),
             ("u2", 2), ("w3", 3)]
    return TableCdga([TableBasisElement(nm, d) for nm, d in names], N, unit="one",
                     name="noisy", differentials={"u1": {"w2": Scalar(1)},
                                                  "u2": {"w3": Scalar(1)}})


def _many_spheres(N):
    """H of 13 two-spheres and 12 three-spheres: 91 degree-3 killers after 12
    closed generators, so v3_100 joins while v3_11 ... v3_99 sort after it."""
    basis = ([TableBasisElement("one", 0)] + [TableBasisElement(f"a{i}", 2) for i in range(13)]
             + [TableBasisElement(f"b{i}", 3) for i in range(12)])
    return TableCdga(basis, N, unit="one", name="wedge")


def _sqrt3_s2xs2_vs3(N):
    """H((S2xS2) v S3) over Q(sqrt -3) in a random basis, each basis element
    then scaled by a random a + b*sqrt(-3): structure constants with sqrt parts."""
    F = Field(-3)
    basis, products, _ = MODEL_SHAPES["s2xs2"]
    basis = basis + [("c3", 3)]
    rng = random.Random(3)
    table = random_basis_change(basis, products, rng)
    scale = {nm: F.scalar(rng.randint(-3, 3), rng.choice([-2, -1, 1, 2]))
             for nm, d in basis}
    scale["one"] = F.one()
    return TableCdga([TableBasisElement(nm, d) for nm, d in basis], N, field=F,
                     unit="one", name="H(S2xS2vS3)@sqrt-3",
                     products={(a, b): {k: F.scalar(c) * scale[a] * scale[b] / scale[k]
                                        for k, c in v.items()}
                               for (a, b), v in table.items()})


def _digest(m):
    M = m.M
    doc = {"model": dga_doc(M),
           "rho": {g.name: element_expr(m.rho(M.generator(g.name))) for g in M.gens},
           "log": m.log,
           "certificate": {str(n): r for n, r in m.certificate.items()}}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


GOLDEN = [
    (_s2vs3, 9, 0, "d48540db02d404d792dd05a17e3c10fd5c8fa1c54d23611a84849abaaf01d667"),
    (_s2vs3, 9, 1, "d48540db02d404d792dd05a17e3c10fd5c8fa1c54d23611a84849abaaf01d667"),
    (_cp3, 10, None, "d596ae99cef2e36877246594ae05babfef0071a777ad1109a3d61562e32a5eba"),
    (_noisy, 8, 0, "3642f9db9adc4571f79174b5398374ebd26dc696cc6a487561c4f04bafd2cc93"),
    (_noisy, 8, 1, "6ba8d21d6de5a56b884a68e01c0271b6f27e8a25230f30bbbcf07c6844a0f513"),
    (_many_spheres, 4, None, "549814fbfccf1b45306067a9552a43684610d928cc78d3b7d03bc347f9e1839b"),
    # recorded while mul_terms still multiplied every coefficient by its sign
    (_sqrt3_s2xs2_vs3, 9, None, "df6a06f5e463edef50383bdbbac922a65472da950e8c93b675b71232deab4bc0"),
]


@pytest.mark.parametrize("build,horizon,seed,want", GOLDEN,
                         ids=[f"{b.__name__[1:]}-N{h}-seed{s}" for b, h, s, _ in GOLDEN])
def test_minimal_model_golden(build, horizon, seed, want):
    rng = None if seed is None else random.Random(seed)
    assert _digest(minimal_model(build(horizon), horizon, rng=rng)) == want


@pytest.mark.parametrize("seed", [None, 0])
def test_minimal_model_of_a_subcdga(seed):
    """A SubCdga with no constraints has the same model as its ambient table."""
    def run(A):
        return _digest(minimal_model(A, 9, rng=None if seed is None else random.Random(seed)))
    T = _s2vs3(9)
    assert run(SubCdga(T, [])) == run(T)


def test_replaced_models_are_freed_without_the_cycle_collector(monkeypatch):
    """Each adjoin drops the previous M by reference counting alone."""
    grown = []
    adjoin = FreeCdga.adjoin

    def tracked(self, generators, differentials):
        assert sum(r() is not None for r in grown) <= 1  # only self
        out = adjoin(self, generators, differentials)
        grown.append(weakref.ref(out))
        return out

    monkeypatch.setattr(FreeCdga, "adjoin", tracked)
    enabled = gc.isenabled()
    gc.disable()
    try:
        model = minimal_model(_noisy(8), 8, rng=random.Random(1))
        alive = [r() for r in grown if r() is not None]
    finally:
        if enabled:
            gc.enable()
    assert len(grown) > 3
    assert alive == [model.M]


def _solve_alone(rows, count, y):
    """The former one-right-hand-side solve: y is a column that may take a pivot,
    and a pivot there means the system has no solution."""
    from hodgepath import linalg
    R, pivots = linalg._eliminate(linalg._columns(list(enumerate(rows)) + [(count, y)]),
                                  count + 1)
    if pivots and pivots[-1] == count:
        return None
    return {p: r[count] for r, p in zip(R, pivots) if count in r}


def test_killers_solve_a_round_at_once_as_one_at_a_time(monkeypatch):
    """One elimination per killers round gives each class the primitive it gets alone."""
    from hodgepath import linalg
    solve = linalg.solve
    sizes = []

    def checked(rows, count, ys):
        got = solve(rows, count, ys)
        assert got == [_solve_alone(rows, count, y) for y in ys]
        sizes.append(len(ys))
        return got

    monkeypatch.setattr(linalg, "solve", checked)
    model = minimal_model(_noisy(8), 8, rng=random.Random(1))
    assert _digest(model) == GOLDEN[4][3]
    assert max(sizes) > 1, "no round solved several classes at once"

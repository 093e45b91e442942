"""The mapping-cone certificate of minimal_model against the exact one.

`homology.cone_certificate` reads the report of rho: M -> A off the ranks
of cone(rho) modulo a prime, and falls back to quasi_iso_report plus the
exact horizon check wherever those ranks do not prove it.  Each dict is
compared with the exact reference below (quasi_iso_report through N - 1,
then, if every degree is iso, H^N of both sides recomputed), on:

* the benchmark's model_sweep shapes in random bases, over Q, Q(sqrt -3)
  (prime 2^31 - 1) and Q(sqrt -1) (the second prime, as -1 is not a square
  modulo 2^31 - 1), with sqrt d in the structure constants;
* mutants: a rho that is not a chain map, which raises the exact path's
  error, and a model with one killer dropped, which is not iso;
* a table whose top products are multiples of the prime, so that the
  ranks mod p fall short and the exact path answers.

A spy on both paths checks that the modular one only ever certifies: every
`iso: false` and `injective: false` comes from the exact path.
"""

import random
from fractions import Fraction

import pytest

from helpers import MODEL_SHAPES, random_basis_change
from hodgepath import (AlgebraError, Field, FreeCdga, FreeMorphism, Generator, QQ, SubCdga,
                       TableBasisElement, TableCdga, cohomology, homology, linalg,
                       minimal_model, quasi_iso_report)
from hodgepath.homology import cone_certificate

FIELDS = {"Q": None, "Q(sqrt -3)": -3, "Q(sqrt -1)": -1}


def reference(rho, N, horizon=True):
    """The certificate as quasi_iso_report and the horizon check compute it."""
    out = quasi_iso_report(rho, N - 1)
    if horizon and all(r["iso"] for r in out.values()):
        HM = cohomology(rho.source, N, strict=False)
        HA = cohomology(rho.target, N, strict=False)
        rows = [HA.cls(rho(rep)) for rep in HM.reps]
        out[N] = {"dim_source": HM.dim, "dim_target": HA.dim,
                  "injective": not linalg.left_kernel(rows, HM.dim), "provisional": True}
    return out


@pytest.fixture
def paths(monkeypatch):
    """Records which path answered each certificate; fails if the modular one
    ever reports anything but an isomorphism."""
    seen = []
    cone, exact = homology._cone_report, homology.quasi_iso_report

    def cone_spy(*args):
        out = cone(*args)
        if out is not None:
            assert all(r.get("iso", True) and r.get("injective", True)
                       for r in out.values()), out
        seen.append("cone" if out is not None else "short")
        return out

    def exact_spy(*args):
        seen.append("exact")
        return exact(*args)

    monkeypatch.setattr(homology, "_cone_report", cone_spy)
    monkeypatch.setattr(homology, "quasi_iso_report", exact_spy)
    return seen


def _table(shape, d, rng, top_factor=1):
    """The shape in a random basis over Q(sqrt d) (Q for d None).

    Each positive-degree basis element is also scaled by a random a + b sqrt d,
    so that the structure constants are not rational; top_factor multiplies
    every product that lands in the top degree.
    """
    basis, products, N = MODEL_SHAPES[shape]
    F = QQ if d is None else Field(d)
    table = random_basis_change(basis, products, rng)
    scale = {nm: F.scalar(1) if nm == "one" or d is None else
             F.scalar(rng.choice([1, 2, -1]), rng.choice([1, -1, Fraction(1, 2)]))
             for nm, _ in basis}
    degree = dict(basis)
    top = max(degree.values())
    products = {(a, b): {k: F.scalar(c) * scale[a] * scale[b] / scale[k]
                         * (top_factor if degree[k] == top else 1)
                         for k, c in v.items()}
                for (a, b), v in table.items()}
    return TableCdga([TableBasisElement(nm, dg) for nm, dg in basis], N, F, name=shape,
                     unit="one", products=products)


def _model(shape, field, top_factor=1):
    rng = random.Random(f"cone:{shape}:{field}")
    A = _table(shape, FIELDS[field], rng, top_factor)
    N = MODEL_SHAPES[shape][2]
    return minimal_model(A, N, rng=random.Random(rng.randrange(2 ** 32))), N


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("shape", sorted(MODEL_SHAPES))
def test_cone_certificate_equals_the_exact_one(shape, field, paths):
    model, N = _model(shape, field)
    assert paths == ["cone"]
    assert model.certificate == reference(model.rho, N)
    assert list(model.certificate) == list(range(N + 1))
    # standalone, without the horizon entry
    assert cone_certificate(model.rho, N) == reference(model.rho, N, horizon=False)
    assert paths == ["cone", "cone"]
    if FIELDS[field] is not None and model.A.products:
        assert any(c.im for v in model.A.products.values() for c in v.values())


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_the_horizon_entry_needs_cycles_that_reach_h_n_of_a(field, paths):
    """At N = 3 of S2 v S3, H^3(A) is one class: the closed generator of
    degree 3 reaches it; no cycles leave the entry to the exact check."""
    A = _table("s2vs3", FIELDS[field], random.Random(3))
    model = minimal_model(A, 3)
    assert paths == ["cone"]
    assert model.certificate == reference(model.rho, 3)
    assert model.certificate[3] == {"dim_source": 1, "dim_target": 1, "injective": True,
                                    "provisional": True}
    assert cone_certificate(model.rho, 3, cycles=[]) == model.certificate
    assert paths == ["cone", "short", "exact"]


def test_a_subcdga_target_is_read_through_its_coords(paths):
    T = _table("s2vs3", None, random.Random(7))
    model = minimal_model(SubCdga(T, []), 9)
    assert paths == ["cone"]
    assert model.certificate == reference(model.rho, 9)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_an_input_already_minimal_is_certified_through_its_identity(field, paths):
    F = QQ if FIELDS[field] is None else Field(FIELDS[field])
    M = FreeCdga([Generator("e2", 2), Generator("e3", 3)], 8, F, name="M(S2)")
    M.set_differential({"e3": M.parse("e2^2")})
    model = minimal_model(M, 7)
    assert model.M is M
    assert paths == ["cone"]
    assert model.certificate == reference(model.rho, 7, horizon=False)


def _with_acyclic_pair(A):
    """A plus an acyclic pair u3 -> w4, whose u3 is not closed."""
    basis = A.basis_list + [TableBasisElement("u3", 3), TableBasisElement("w4", 4)]
    return TableCdga(basis, A.N, A.field, name=A.name + "+acyclic", unit="one",
                     products=A.products, differentials={"u3": {"w4": A.field.one()}})


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_a_rho_that_is_not_a_chain_map_raises_the_exact_error(field, paths):
    rng = random.Random(f"chain:{field}")
    A = _with_acyclic_pair(_table("s2vs3", FIELDS[field], rng))
    model = minimal_model(A, 8)
    M, rho = model.M, model.rho
    # the closed generator of degree 3 now reaches the non-closed u3
    v3 = next(g.name for g in M.gens if g.degree == 3 and M.differential_of(g.name).is_zero)
    images = dict(rho.gen_images)
    images[v3] = images[v3] + A.basis_element("u3")
    bad = FreeMorphism(M, A, images, name="bad")
    with pytest.raises(AlgebraError) as want:
        reference(bad, 8)
    del paths[:]
    with pytest.raises(AlgebraError) as got:
        cone_certificate(bad, 8, cycles=[])
    assert str(got.value) == str(want.value) == "cls() of a non-closed element"
    assert paths == ["short", "exact"]


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_a_source_with_d_squared_not_zero_takes_the_exact_path(field, paths):
    """d x = y and d y = z make d^2 x = z: M is no complex, though rho = 0
    commutes with d.  The ranks of its 'cone' still add up to dim C^n in
    degrees -1..8, but without d_C^2 = 0 that proves nothing; the exact
    report is not iso at 4, where the kernel u of d is no boundary."""
    F = QQ if FIELDS[field] is None else Field(FIELDS[field])
    A = TableCdga([TableBasisElement("one", 0)], 10, F, unit="one", name="Q")
    M = FreeCdga([Generator("x", 3), Generator("y", 4), Generator("u", 4),
                  Generator("z", 5)], 10, F)
    M.set_differential({"x": M.parse("y"), "y": M.parse("z")})
    rho = FreeMorphism(M, A, {g.name: A.zero() for g in M.gens})
    got = cone_certificate(rho, 9, cycles=[])
    assert paths == ["short", "exact"]
    assert got == reference(rho, 9)
    assert not got[4]["iso"]


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_a_target_with_d_squared_not_zero_takes_the_exact_path(field, paths):
    """d a = b and d b = c in the table A: the ranks of the 'cone' of the
    unit Q -> A add up in every degree, but H^3(A) is not zero."""
    F = QQ if FIELDS[field] is None else Field(FIELDS[field])
    one = F.one()
    A = TableCdga([TableBasisElement(nm, d) for nm, d in
                   [("one", 0), ("a", 2), ("b", 3), ("b2", 3), ("c", 4)]], 6, F,
                  unit="one", name="A", differentials={"a": {"b": one}, "b": {"c": one}})
    M = FreeCdga([], 6, F)
    rho = FreeMorphism(M, A, {})
    got = cone_certificate(rho, 6, cycles=[])
    assert paths == ["short", "exact"]
    assert got == reference(rho, 6)
    assert not got[3]["iso"]


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_cycles_that_are_not_closed_do_not_count(field, paths):
    """w kills v^2 and rho(w) is the class of S3: w is no cycle, H^3(M) = 0,
    and the horizon entry says so."""
    A = _table("s2vs3", FIELDS[field], random.Random(3))
    x2, x3 = (next(b for b in A.basis(n) if A.coords(b, n)) for n in (2, 3))
    M = FreeCdga([Generator("v", 2), Generator("w", 3)], 3, A.field)
    M.set_differential({"w": M.parse("v^2")})
    rho = FreeMorphism(M, A, {"v": x2, "w": x3})
    got = cone_certificate(rho, 3, cycles=[M.generator("w")])
    assert paths == ["short", "exact"]
    assert got == reference(rho, 3)
    assert got[3] == {"dim_source": 0, "dim_target": 1, "injective": True,
                      "provisional": True}


def _drop(M, rho, name):
    """M without generator `name` (which no other differential may contain), and rho on it."""
    keep = [g for g in M.gens if g.name != name]
    M2 = FreeCdga(keep, M.N, M.field, name=M.name + "-" + name)
    index = {i: M2.gen_index[g.name] for i, g in enumerate(M.gens) if g.name != name}
    M2.set_differential({g.name: {tuple((index[i], e) for i, e in k): c
                                  for k, c in M.differential_of(g.name).terms.items()}
                         for g in keep})
    return M2, FreeMorphism(M2, rho.target, {g.name: rho.gen_images[g.name] for g in keep})


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("shape", ["cp3", "s2xs2"])
def test_a_dropped_killer_takes_the_exact_path_and_is_not_iso(shape, field, paths):
    model, N = _model(shape, field)
    killer = next(g for g in model.M.gens if not model.M.differential_of(g.name).is_zero)
    assert killer.degree + 1 < N
    M2, rho2 = _drop(model.M, model.rho, killer.name)
    del paths[:]
    got = cone_certificate(rho2, N, cycles=[])
    assert paths == ["short", "exact"]
    assert got == reference(rho2, N)
    assert min(n for n, r in got.items() if not r["iso"]) == killer.degree + 1
    assert N not in got


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_a_dropped_top_killer_is_not_injective_at_the_horizon(field, paths):
    """A killer of degree N - 1 kills a class of H^N; without it H^N(rho) has
    a kernel, which only the exact horizon check reports."""
    model, N = _model("s2vs3", field)
    killer = [g for g in model.M.gens if g.degree == N - 1
              and not model.M.differential_of(g.name).is_zero][-1]
    M2, rho2 = _drop(model.M, model.rho, killer.name)
    del paths[:]
    got = cone_certificate(rho2, N, cycles=[M2.element(z.terms) for z in
                                            cohomology(M2, N, strict=False).reps])
    assert paths == ["short", "exact"]
    assert got == reference(rho2, N)
    assert all(got[n]["iso"] for n in range(N))
    assert got[N]["injective"] is False


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_ranks_that_fall_short_mod_p_leave_the_answer_to_the_exact_path(field, paths):
    """Top products that are multiples of p vanish mod p, so the cone's
    ranks fall short there; the model and its certificate are as before."""
    p, _ = homology._modulus(QQ if FIELDS[field] is None else Field(FIELDS[field]))
    model, N = _model("s2xs2", field, top_factor=p)
    assert paths == ["short", "exact"]
    assert model.certificate == reference(model.rho, N)
    assert all(r["iso"] for n, r in model.certificate.items() if n < N)
    assert model.certificate[N]["injective"]


def test_moduli_send_sqrt_d_to_a_square_root():
    assert homology._modulus(QQ) == (2 ** 31 - 1, 0)
    for d in (-1, -2, -3, -5, -7, -11, -163):
        p, root = homology._modulus(Field(d))
        assert p in homology._PRIMES
        assert root * root % p == d % p
        # the first prime of the list with d a square modulo it
        assert all(pow(d % q, (q - 1) // 2, q) != 1
                   for q in homology._PRIMES[:homology._PRIMES.index(p)])
    assert homology._modulus(Field(-1))[0] == homology._PRIMES[1]
    assert homology._modulus(Field(-3))[0] == homology._PRIMES[0]


def test_rank_mod_p_is_a_lower_bound_on_the_rank():
    rng = random.Random(5)
    p = 2 ** 31 - 1
    for _ in range(40):
        rows = [{j: Fraction(rng.randint(-3, 3)) for j in range(6) if rng.random() < 0.5}
                for _ in range(rng.randint(1, 6))]
        rows = [{j: a for j, a in r.items() if a} for r in rows]
        exact = linalg.rank(rows, 6)
        mod_p = linalg.rank_mod_p([{j: int(a) % p for j, a in r.items()} for r in rows], p)
        # every minor is below 3^6 * 6! < p in size, so none vanishes mod p
        assert mod_p == exact
    p = 101
    rows = [{0: 1, 1: 2}, {0: 3, 1: 6 + p}]
    assert linalg.rank([{j: Fraction(a) for j, a in r.items()} for r in rows], 2) == 2
    assert linalg.rank_mod_p([{j: a % p for j, a in r.items()} for r in rows], p) == 1


@pytest.mark.parametrize("d", [-1, -3, -7])
def test_reduction_mod_p_is_a_ring_homomorphism(d):
    """a + b sqrt d -> a + b root respects sums and products, so a minor that
    is non-zero mod p is non-zero; a denominator divisible by p has no image."""
    F = Field(d)
    p, root = homology._modulus(F)
    rng = random.Random(d)

    def red(x):
        return homology._residues([(0, x)], p, root).get(0, 0)

    def rand():
        return F.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    for _ in range(50):
        x, y = rand(), rand()
        assert red(x * y) == red(x) * red(y) % p
        assert red(x + y) == (red(x) + red(y)) % p
        assert red(x.re) == red(F.scalar(x.re))      # a bare Fraction
    assert red(F.sqrt_d()) ** 2 % p == d % p
    assert homology._residues([(0, F.scalar(0, Fraction(1, p)))], p, root) is None
    assert homology._residues([(0, Fraction(3, p))], p, root) is None

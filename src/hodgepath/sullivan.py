"""Sullivan minimal models up to a degree horizon, with exact certification.

The construction is the classical degreewise one: at stage n adjoin closed
generators hitting the cokernel of H^n, then generators killing the kernel of
H^{n+1}, with all representatives and primitives found by exact solves.  Each
round is a relative Sullivan extension, so M grows by FreeCdga.adjoin and keeps
its cached differentials.  The cohomology of A is kept on A
(`homology.cohomology`), and that of M lives for one round: each round
replaces M and frees the old one by reference counting, which a group kept
on M, referring back to it, would turn into a reference cycle.

H^{n+1}(M) is carried through an extension by generators v of degree n.
When every generator has degree >= 2 and the old keys kept their meaning
(`keys_kept`), no monomial of degree n+1 contains a v, so C^{n+1} and d on
it are unchanged: the cocycles Z^{n+1} stay, and the boundaries only gain
the dv.  `Cohomology.with_boundaries` takes the old group modulo those rows;
reduced echelon forms are unique, so its reps and class coordinates are
those of a fresh computation, entry for entry.  Otherwise (degree-1
generators, moved keys) every group of M is recomputed.

The result is certified without the construction's H(M), by the mapping
cone C of rho (`homology.cone_certificate`): C^n = A^n + M^(n+1) is acyclic
in degrees -1..N-1 exactly when H(rho) is an isomorphism below N and
injective at N.  That needs ranks only, and ranks mod a prime prove it once
d_C^2 = 0 is checked exactly: reduction can only lower a rank, and
d_C^2 = 0 bounds rank d^n + rank d^(n-1) by dim C^n.  The report's dims
are then those of H(A), kept on A since the construction read them; at the
horizon, H^N(M) reaches dim H^N(A) through the classes of the stage-N reps
and the closed generators of degree N.  Wherever the ranks fall short (an
unlucky prime, or a real failure) the exact check runs instead: it reads
H(A) off A and computes H(M) afresh, never a group the construction
carried, so every failure it reports is exact.

Degree-N data is provisional: corrections from degree N+1 could adjust the
top homotopy group, so stage N skips kernel-killing and the certificate
covers degrees <= N-1, plus injectivity at N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .algebra import (AlgebraError, CutoffError, FreeCdga, FreeMorphism,
                      Generator, Morphism, combination, compose, derived, is_surjective_at)
from .homology import cohomology, cone_certificate, d_squared_witness, fresh_cohomology
from .lifting import double_path_target, free_lift, homotopy_add, lift_homotopy
from .ops import indecomposables
from .paths import Homotopy, MappingPath, delta, path_like, path_linear_map


class ModelError(AlgebraError):
    pass


MAX_ROUNDS = 8   # kernel-killing rounds per stage before minimal_model gives up


# ---------------------------------------------------------------------------
# minimality
# ---------------------------------------------------------------------------

def is_minimal(M, filtered: bool = False):
    """(ok, witnesses): the differential lands in decomposables.

    With filtered=True also requires d(W_p) in W_{p-1} of the decomposables,
    i.e. every monomial of d(g) has weight <= weight(g) - 1.
    """
    if not isinstance(M, FreeCdga):
        raise ModelError("minimality test needs a FREE presentation")
    bad = []
    for g in M.gens:
        dg = M.differential_of(g.name)
        for k, c in dg.terms.items():
            if len(k) == 1 and k[0][1] == 1:
                bad.append({"generator": g.name, "check": "linear-part",
                            "witness": M.gens[k[0][0]].name})
            if filtered:
                if g.weight is None:
                    bad.append({"generator": g.name, "check": "weights-missing"})
                    break
                if M.key_weight(k) is None or M.key_weight(k) > g.weight - 1:
                    bad.append({"generator": g.name, "check": "weight-shift",
                                "witness": M.key_str(k)})
    return (not bad), bad


# ---------------------------------------------------------------------------
# the construction
# ---------------------------------------------------------------------------

@dataclass
class MinimalModel:
    M: FreeCdga
    rho: FreeMorphism
    A: object
    N: int
    log: list = field(default_factory=list)
    provisional_degrees: list = field(default_factory=list)
    certificate: dict = field(default_factory=dict)


def minimal_model(A, N: int | None = None, allow_0_connected: bool = False,
                  rng=None) -> MinimalModel:
    """Minimal Sullivan model of a cohomologically connected algebra, up to N.

    Requires H^0(A) = k; H^1(A) = 0 unless allow_0_connected (in which case
    functoriality of the homotopy groups is not guaranteed).  Deterministic:
    generator names are v{degree}_{counter}, representatives are canonical
    reduced vectors (an optional rng only reshuffles representative choices).
    """
    N = A.N if N is None else N
    if N > A.N:
        raise CutoffError(f"requested horizon {N} exceeds the input's cutoff {A.N}")
    # the certificate's exact fallback assumes d^2 = 0 and never checks it
    witness = d_squared_witness(A, N)
    if witness:
        raise ModelError(f"the input's differential does not square to zero: {witness}")
    H0 = cohomology(A, 0)
    if H0.dim != 1:
        raise ModelError(f"not cohomologically connected: dim H^0 = {H0.dim}")
    if not H0.cls(A.unit()):
        raise ModelError("unit does not generate H^0")
    start = 1
    if not allow_0_connected:
        if N >= 2 and cohomology(A, 1).dim != 0:
            raise ModelError("H^1 != 0; pass allow_0_connected=True to proceed "
                             "(homotopy groups lose functoriality)")
        start = 2

    if isinstance(A, FreeCdga) and is_minimal(A)[0]:
        rho = FreeMorphism(A, A, {g.name: A.generator(g.name) for g in A.gens},
                           name="identity")
        cert = cone_certificate(rho, N)
        return MinimalModel(M=A, rho=rho, A=A, N=N,
                            log=[{"stage": "input already minimal"}],
                            certificate=cert)

    rho_images: dict = {}
    counters: dict = {}
    M = FreeCdga([], N, A.field, name="M")
    rho = FreeMorphism(M, A, {}, name="rho")
    # cohomology of M, kept until M grows, except H^{n+1}(M), which grow()
    # carries (see the module docstring)
    H_M: dict = {}
    log = []
    cycles = []   # the reps of H^N(M) at stage N

    def H_of_M(n):
        if n not in H_M:
            H_M[n] = fresh_cohomology(M, n)
        return H_M[n]

    def grow(n, diffs, images):
        """Adjoin degree-n generators with these d values (terms over M) and
        rho images; returns their names."""
        nonlocal M, rho
        gens, named = [], {}
        for terms, image in zip(diffs, images):
            k = counters.get(n, 0)
            counters[n] = k + 1
            nm = f"v{n}_{k:02d}"
            gens.append(Generator(nm, n))
            named[nm] = terms
            rho_images[nm] = image
        key_cache = rho._key_cache
        M = M.adjoin(gens, named)
        rho = FreeMorphism(M, A, dict(rho_images), name="rho")
        if M.keys_kept:
            rho._key_cache = key_cache
        carried = H_M.get(n + 1)
        H_M.clear()
        # see the module docstring: H^{n+1} only gains the new boundaries
        if carried is not None and M.keys_kept and M.gens[0].degree >= 2:
            H_M[n + 1] = carried.with_boundaries(
                M, [M.differential_of(nm) for nm in named])
        return list(named)

    def cokernel_reps(n):
        """Representatives in A of the cokernel of H^n(rho)."""
        HnA, HnM = cohomology(A, n, strict=False), H_of_M(n)
        img = [HnA.cls(rho(rep)) for rep in HnM.reps]
        units = [{i: Fraction(1)} for i in range(HnA.dim)]
        coker = linalg.Subquotient(units, img, HnA.dim)
        reps = [combination(A.ambient, v, HnA.reps) for v in coker.reps]
        if rng is not None:
            rng.shuffle(reps)
            reps = [el + A.random_element(n - 1, rng, density=0.3).d() for el in reps]
        return reps

    def killers(n):
        """Terms of a basis z of the kernel of H^{n+1}(rho), and primitives of rho(z).

        A's d rows in degree n are A.d_rows(n), built once per degree, and one
        elimination solves d a = rho(z) for every z.
        """
        Hn1A, Hn1M = cohomology(A, n + 1, strict=False), H_of_M(n + 1)
        if Hn1M.dim == 0:
            return [], []
        rows = [Hn1A.cls(rho(rep)) for rep in Hn1M.reps]
        zs = [combination(M, v, Hn1M.reps) for v in linalg.left_kernel(rows, Hn1M.dim)]
        zs = [z for z in zs if not z.is_zero]
        if not zs:
            return [], []
        d_rows = A.d_rows(n)
        sols = linalg.solve(d_rows, len(d_rows),
                            [A.coords(rho(z), n + 1, strict=False) for z in zs])
        primitives = []
        for sol in sols:
            if sol is None:
                raise ModelError(
                    f"kernel class at degree {n + 1} has no primitive "
                    "(input differential data inconsistent)")
            primitives.append(A.from_coords(n, sol, strict=False))
        return [z.terms for z in zs], primitives

    for n in range(start, N + 1):
        stage = {"degree": n, "added_closed": [], "added_killers": []}
        # 1. cokernel of H^n(rho)
        new_reps = cokernel_reps(n)
        if n == N:
            cycles = H_M[N].reps
        if new_reps:
            stage["added_closed"] = grow(n, [{}] * len(new_reps), new_reps)
        # 2. kill the kernel of H^{n+1}(rho); skipped at the horizon
        if n + 1 <= N:
            for _ in range(MAX_ROUNDS):
                zs, primitives = killers(n)
                if not zs:
                    break
                stage["added_killers"].extend(grow(n, zs, primitives))
            else:
                raise ModelError(
                    f"stage {n} did not stabilize after {MAX_ROUNDS} rounds; "
                    "the input is beyond the 0-connected construction's reach")
        log.append(stage)

    ok_min, witnesses = is_minimal(M)
    if not ok_min:
        raise ModelError(f"construction produced a non-minimal algebra: {witnesses}")
    # degrees below N, and injectivity at the horizon N.  Closed elements of
    # degree N: the stage-N reps, whose keys name the same monomials in the
    # final M (generators of the top degree sort last), and the generators
    # of degree N, all closed; the certificate re-checks them
    top = [M.element(z.terms) for z in cycles]
    for g in M.gens:
        if g.degree == N:
            top.append(M.generator(g.name))
    cert = cone_certificate(rho, N, top)
    bad = [n for n in range(N) if not cert[n]["iso"]]
    if bad:
        raise ModelError(f"certification failed in degrees {bad}")
    return MinimalModel(M=M, rho=rho, A=A, N=N, log=log, certificate=cert,
                        provisional_degrees=[N])


def homotopy_groups(model: MinimalModel) -> dict:
    """dim Q(M) per degree <= N; the degree-N entry is provisional."""
    ok, bad = is_minimal(model.M)
    if not ok:
        raise ModelError(f"homotopy groups need a minimal model: {bad}")
    q = indecomposables(model.M, upto=model.N)
    return {"dims": q.dims(), "provisional_degree": model.N}


# ---------------------------------------------------------------------------
# lifting along weak equivalences (surjectivity and injectivity of w_*)
# ---------------------------------------------------------------------------

def lift_against_weak_equivalence(C: FreeCdga, w: Morphism, f: Morphism, PB):
    """g: C -> A with an explicit verified homotopy w g ~ f in PB.

    PB is a path object of w.target.  Factor w through its mapping path in
    PB, lift f through the endpoint projection q (a trivial fibration when w
    is a weak equivalence), and read the homotopy off the canonical
    contraction.  The mapping path is kept on PB per w, so a repeated lift
    rebuilds nothing.
    """
    mp = derived(PB, ("mapping path", w), lambda: MappingPath(w, PB))
    gprime = free_lift(C, mp.q, f, name="g'")
    g = FreeMorphism(C, w.source, {gen.name: mp.p(gprime(C.generator(gen.name)))
                                   for gen in C.gens}, name="g")
    h = mp.contraction()
    Pq = path_linear_map(mp.q, h.path, PB)
    hmap = compose(compose(Pq, h.map), gprime, name="w g ~ f")
    return g, Homotopy(compose(w, g, name="w g"), f, hmap)


def _surjective_through(w: Morphism, upto: int) -> bool:
    return all(is_surjective_at(w, n) for n in range(0, upto + 1))


def homotopy_between_lifts(C: FreeCdga, w: Morphism, g0: Morphism, g1: Morphism,
                           h: Homotopy) -> Homotopy:
    """From h: w g0 ~ w g1 produce an explicit homotopy g0 ~ g1.

    When w is surjective through the horizon this is the homotopy lifting
    property (exact: P(w) applied to the result gives h back).  Otherwise the
    double-path factorization reduces to three composable homotopies which are
    added over the free source, in paths beside h's.
    """
    upto = min(w.source.N, w.target.N) - 1
    if _surjective_through(w, upto):
        return lift_homotopy(C, w, g0, g1, h)
    A = w.source
    PA = path_like(h.path, A)
    dp, barw, H = double_path_target(C, w, g0, g1, h, PA)
    G, K = lift_against_weak_equivalence(C, barw, H, path_like(PA, barw.target))
    # project the homotopy K: barw G ~ H to the two A-coordinates
    Pdp = K.path
    pi0 = Morphism(dp.space, A, lambda x: dp.parts(x)[0], name="pr0")
    pi1 = Morphism(dp.space, A, lambda x: dp.parts(x)[1], name="pr1")
    Ppi0 = path_linear_map(pi0, Pdp, PA)
    Ppi1 = path_linear_map(pi1, Pdp, PA)
    k0 = Homotopy(compose(delta(PA, 0), G), g0, compose(Ppi0, K.map, name="k0"))
    k1 = Homotopy(compose(delta(PA, 1), G), g1, compose(Ppi1, K.map, name="k1"))
    mid = Homotopy(compose(delta(PA, 0), G), compose(delta(PA, 1), G), G)
    return homotopy_add(homotopy_add(k0.reversed(), mid), k1)

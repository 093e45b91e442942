"""Lifting against surjective quasi-isomorphisms from free sources.

The workhorse is free_lift: given a free algebra C with well-ordered
generators, a map v: X -> Y that is surjective degreewise and has acyclic
kernel through the horizon, and f: C -> Y, it builds g: C -> X with v g = f
generator by generator.  Each generator costs one preimage solve plus one
exact solve of (d z = error, v z = 0); an unsolvable system is reported as an
obstruction naming the generator (the certificate that v was not a trivial
fibration through the horizon).

Homotopy lifting and homotopy addition are the same solve against structured
targets, each a `paths.fibre_product`: the double path for homotopy lifting,
the mapping path of the endpoint evaluation for addition, and a four-face
boundary target for filling squares of homotopies (used by the diagram
engine's homotopies of ho-morphisms).  A path object keeps all three once
built (the double path per map v and source path object P(A)), and each map
keeps its rows (morphism_matrix), so repeated lifts redo only their solves.
"""

from __future__ import annotations

from . import linalg
from .algebra import (AlgebraError, Element, FreeCdga, FreeMorphism, Morphism, _accumulate,
                      _element, compose, derived, morphism_matrix, solve_preimage)
from .paths import (DoublePath, Homotopy, MappingPath, delta, fibre_product, folding,
                    induced_to_double_path, keyed, path_like, path_linear_map, path_of)


class LiftObstruction(AlgebraError):
    def __init__(self, generator, degree, reason):
        super().__init__(
            f"no lift at generator {generator!r} (degree {degree}): {reason}")
        self.generator = generator
        self.degree = degree
        self.reason = reason


def _apply_partial(C: FreeCdga, images: dict, x: Element, target):
    out = {}
    unit = target.unit()
    for key, c in x.terms.items():
        term = unit
        for gi, e in key:
            name = C.gens[gi].name
            img = images.get(name)
            if img is None:
                raise AlgebraError(
                    f"generator {name!r} used before it is processed; "
                    "the source is not well-ordered for lifting")
            for _ in range(e):
                term = term * img
        _accumulate(out, term.terms, c)
    return _element(target.ambient, out)


def free_lift(C: FreeCdga, v, f, name="lift") -> FreeMorphism:
    """g: C -> X with v g = f, built generator by generator.

    Generators of degree N (the horizon) are matched against f but their
    d-compatibility lives beyond the horizon and is left provisional.  v's
    rows on X^n are morphism_matrix's, kept on v; those of (d, v) are built
    once per degree and call, as X's differential can change between lifts.
    """
    X = v.source
    images = {}
    horizon = X.N
    log = []
    dv_rows = {}
    for idx, gen in enumerate(C.gens):
        n = gen.degree
        target_val = f(C.generator(gen.name))
        dgen = C.differential_of(gen.name)
        for key in dgen.terms:
            if any(gi >= idx for gi, _ in key):
                raise LiftObstruction(gen.name, n,
                                      "differential uses a later generator")
        xi = solve_preimage(v, target_val, n)
        if xi is None:
            raise LiftObstruction(gen.name, n, "v is not surjective here")
        entry = {"generator": gen.name, "degree": n, "correction": False}
        if n + 1 <= horizon:
            dg_img = _apply_partial(C, images, dgen, X)
            err = dg_img - xi.d()
            if not err.is_zero:
                zeta = _solve_closed_correction(X, v, dv_rows, err, n)
                if zeta is None:
                    raise LiftObstruction(
                        gen.name, n,
                        "the error cocycle is not a boundary in ker(v); "
                        "v is not a trivial fibration through the horizon")
                xi = xi + zeta
                entry["correction"] = True
        else:
            entry["provisional"] = True
        images[gen.name] = xi
        log.append(entry)
    g = FreeMorphism(C, X, images, name=name)
    g.lift_log = log
    return g


def _solve_closed_correction(X, v, dv_rows, err: Element, n: int):
    """z in X^n with d z = err and v z = 0, or None.

    The rows of (d, v) on X^n (X.d_rows(n), copied) are kept in dv_rows by degree.
    """
    # unknown i has image (d b_i, v b_i), v b_i in the columns after d b_i's;
    # the target is (err, 0)
    rows = dv_rows.get(n)
    if rows is None:
        offset = X.dim(n + 1, strict=False)
        rows = dv_rows[n] = []
        for d_row, v_row in zip(X.d_rows(n), morphism_matrix(v, n)):
            row = dict(d_row)
            for j, c in v_row.items():
                row[offset + j] = c
            rows.append(row)
    sol, = linalg.solve(rows, len(rows), [X.coords(err, n + 1, strict=False)])
    if sol is None:
        return None
    return X.from_coords(n, sol, strict=False)


# ---------------------------------------------------------------------------
# homotopy lifting through a trivial fibration (free source)
# ---------------------------------------------------------------------------

def lift_homotopy(C: FreeCdga, v: Morphism, f0: Morphism, f1: Morphism,
                  h: Homotopy) -> Homotopy:
    """Lift h: v f0 ~ v f1 to h~: f0 ~ f1 with P(v) h~ = h, exactly."""
    _, bar_v, H = double_path_target(C, v, f0, f1, h, path_like(h.path, v.source))
    return Homotopy(f0, f1, free_lift(C, bar_v, H, name="h~"))


def double_path_target(C: FreeCdga, v: Morphism, f0: Morphism, f1: Morphism,
                       h: Homotopy, PA):
    """(P(v, v), (delta^0, delta^1, P(v)): PA -> P(v, v), (f0, f1, h): C -> P(v, v)).

    What a homotopy h: v f0 ~ v f1 is lifted against.  The double path in
    h's path object and the map out of PA are kept on that path object per
    (v, PA); only the data map is built per call.
    """
    def build():
        dp = DoublePath(v, v, h.path)
        return dp, induced_to_double_path(v, dp, PA)

    dp, bar_v = derived(h.path, ("double path", v, PA), build)
    H = Morphism(C, dp.space, lambda c: dp.embed(f0(c), f1(c), h.map(c)), name="(f0,f1,h)")
    return dp, bar_v, H


def homotopy_add(h1: Homotopy, h2: Homotopy) -> Homotopy:
    """Concatenate h1: f ~ f' and h2: f' ~ f'' over a free source.

    Lift (h1, h2) through (delta^0 on the outer path, inner endpoint
    evaluation) into the double path algebra, then fold s -> t.
    """
    C = h1.source
    if not isinstance(C, FreeCdga):
        raise AlgebraError("homotopy addition needs a free source")
    if h1.path is not h2.path:
        raise AlgebraError("homotopies must share one path object")
    mp, P2, pi = derived(h1.path, "homotopy_add", lambda: _addition_target(h1.path))

    def data(c):
        return mp.pair(h1.map(c), h2.map(c))

    H = Morphism(C, mp.space, data, name="(h,h')")
    L = free_lift(C, pi, H, name="L")
    return Homotopy(h1.f, h2.g, compose(folding(P2), L, name="h +~ h'"))


def _addition_target(PA):
    """(mapping path of delta^1 on PA, P^2, pi): what homotopy_add lifts against."""
    d1 = delta(PA, 1)
    mp = MappingPath(d1, PA)
    P2 = path_of(PA)   # nested paths keep PA's budget
    k2 = keyed(P2)
    Pd1 = path_linear_map(d1, P2, PA)

    def pi_A(L):
        # delta^0 on the outer level, P(delta^1) on the inner
        return mp.pair(k2.evaluate(L, 0), Pd1(L))

    return mp, P2, Morphism(P2, mp.space, pi_A, name="pi_A")


# ---------------------------------------------------------------------------
# filling a square of homotopies with prescribed boundary
# ---------------------------------------------------------------------------

def boundary_square_target(PB):
    """T = {(x0, x1, y0, y1) in P(B)^4 : corners match} and theta: P^2(B) -> T.

    Faces of L in P^2(B): x_m = inner evaluation at m, y_k = outer evaluation
    at k; the corner conditions are delta^k(x_m) = delta^m(y_k).  Kept on PB
    once built, so every square filled in PB lifts against one theta.
    """
    return derived(PB, "square boundary", lambda: _square_target(PB))


def _square_target(PB):
    # PB's own constraints (B a subalgebra) come along with each factor
    T = fibre_product([PB] * 4, [(m, delta(PB, k), 2 + k, delta(PB, m))
                                 for k in (0, 1) for m in (0, 1)], name="square boundary")
    amb = T.ambient
    P2 = path_of(PB)
    k2 = keyed(P2)
    Pd0 = path_linear_map(delta(PB, 0), P2, PB)
    Pd1 = path_linear_map(delta(PB, 1), P2, PB)

    def theta_fn(L):
        return amb.tuple_of({0: Pd0(L), 1: Pd1(L), 2: k2.evaluate(L, 0), 3: k2.evaluate(L, 1)})

    theta = Morphism(P2, T, theta_fn, name="faces")
    return T, theta, amb


def fill_square(C: FreeCdga, PB, inner0: Morphism, inner1: Morphism,
                outer0: Morphism, outer1: Morphism) -> Morphism:
    """H: C -> P^2(B) with prescribed faces.

    inner evaluations (P(delta^k) H) give inner0/inner1, outer evaluations
    (delta^k on the outer path) give outer0/outer1.  Raises LiftObstruction if
    the boundary cannot be filled within the budget.
    """
    T, theta, amb = boundary_square_target(PB)

    def data(c):
        return amb.tuple_of({0: inner0(c), 1: inner1(c), 2: outer0(c), 3: outer1(c)})

    return free_lift(C, theta, Morphism(C, T, data, name="boundary data"), name="square fill")

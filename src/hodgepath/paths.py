"""Polynomial path objects P(A) = A[t,dt] and their structural maps.

Elements of P(A) are sums a*t^i and a*t^i*dt with a in the base algebra; the
key of such a term is (base_key, (i, e)) with e in {0,1} the dt-exponent.
Bases are truncated at a configurable t-weight budget (i + e <= budget).  The
differential preserves the t-weight, so the truncation is a direct-summand
subcomplex and cohomology through the budget is exact, with no phantom
top-degree classes.

Structural maps are substitutions:

    evaluation     t -> k            (k = 0, 1)
    symmetry       t -> 1 - t
    coproduct      t -> t*s
    second coproduct t -> t + s - t*s   (coproduct with endpoints swapped)
    interchange    t <-> s
    folding        s -> t

The composite of the coproduct with the second coproduct of the once-pathed
algebra is the three-level transformation dual to (t,s,l) -> t(s + l - s*l),
used for the contraction of mapping paths of diagrams.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (AlgebraError, Element, GradedAlgebra, LinearMap, Morphism,
                      ProductCdga, SubCdga, _accumulate, _element, combination,
                      compose, derived, solve_preimage)
from .exprs import ExprError, parse_expression

DEFAULT_BUDGET = 32

_NEXT_VAR = {"t": "s", "s": "l", "l": "t4"}


class BudgetError(AlgebraError):
    """A path computation needed a higher polynomial degree than the budget."""


class PathAlgebra(GradedAlgebra):
    """A[t,dt] over a keyed base algebra A."""

    def __init__(self, base: GradedAlgebra, budget: int, w_shift: int = 0):
        self.base = base
        self.budget = int(budget)
        if self.budget < 1:
            raise AlgebraError("path budget must be >= 1")
        self.w_shift = w_shift
        self.field = base.field
        self.N = base.N
        self.var = _NEXT_VAR.get(getattr(base, "var", None), "t") \
            if isinstance(base, PathAlgebra) else "t"
        shift = f", w-{w_shift}" if w_shift else ""
        self.name = f"P({base!r}{shift})"
        self._basis_cache = {}

    # ----- key protocol: key = (base_key, (i, e))

    def key_degree(self, k):
        return self.base.key_degree(k[0]) + k[1][1]

    def unit_terms(self):
        return {(bk, (0, 0)): c for bk, c in self.base.unit_terms().items()}

    def key_sort(self, k):
        i, e = k[1]
        return (i + e, e, self.base.key_sort(k[0]))

    def key_str(self, k):
        bk, (i, e) = k
        bits = [] if self.base.key_str(bk) == "1" else [self.base.key_str(bk)]
        if i:
            bits.append(self.var + (f"^{i}" if i > 1 else ""))
        if e:
            bits.append("d" + self.var)
        return "*".join(bits) or "1"

    def mul_keys(self, k1, k2):
        (b1, (i1, e1)), (b2, (i2, e2)) = k1, k2
        if e1 and e2:
            return {}
        if i1 + i2 + e1 + e2 > self.budget:
            raise BudgetError(
                f"product exceeds the t-budget {self.budget} of {self.name}")
        prod = self.base.mul_keys(b1, b2)
        if not prod:
            return {}
        sign = 1
        if e1 and self.base.key_degree(b2) % 2:
            sign = -1
        out = {}
        for bk, c in prod.items():
            out[(bk, (i1 + i2, e1 + e2))] = c * sign if sign < 0 else c
        return out

    def d_key(self, k):
        bk, (i, e) = k
        out = {(dk, (i, e)): c for dk, c in self.base.d_key(bk).items()}
        if e == 0 and i >= 1:   # a new key: the base's part keeps e = 0
            sign = -1 if self.base.key_degree(bk) % 2 else 1
            out[(bk, (i - 1, 1))] = self.field.scalar(sign * i)
        return out

    def basis_keys(self, n):
        keys = self._basis_cache.get(n)
        if keys is None:
            keys = []
            for i in range(0, self.budget + 1):
                keys.extend((bk, (i, 0)) for bk in self.base.basis_keys(n))
            for i in range(0, self.budget):
                keys.extend((bk, (i, 1)) for bk in self.base.basis_keys(n - 1))
            keys.sort(key=self.key_sort)
            self._basis_cache[n] = keys
        return keys

    def key_level(self, k, kind):
        """The base key's level; W drops by w_shift on the dt keys, F does not shift."""
        lv = self.base.key_level(k[0], kind)
        if lv is None or kind != "W":
            return lv
        return lv - self.w_shift * k[1][1]

    def key_block(self, k):
        return (k[1][0] + k[1][1], self.base.key_block(k[0]))

    def has_filtration(self, kind):
        return self.base.has_filtration(kind)

    def key_t_weight(self, k):
        """Total polynomial weight across all path levels of a nested key."""
        bk, (i, e) = k
        inner = self.base.key_t_weight(bk) if isinstance(self.base, PathAlgebra) else 0
        return inner + i + e

    def random_element(self, n, rng, density=0.6):
        """Random element supported on total t-weight <= budget // 2.

        Sampling the full budget would make random products overflow by
        construction; the safe half keeps all structural-map identities
        exercisable on random inputs.
        """
        cap = max(1, self.budget // 2)
        keys = [k for k in (self.basis_keys(n) if n >= 0 else []) if self.key_t_weight(k) <= cap]
        return Element(self, {k: self.field.random_scalar(rng) for k in keys
                              if rng.random() < density})

    # ----- convenience elements

    def t(self) -> Element:
        return Element(self, {(bk, (1, 0)): c for bk, c in self.base.unit_terms().items()})

    def dt(self) -> Element:
        return Element(self, {(bk, (0, 1)): c for bk, c in self.base.unit_terms().items()})

    def include(self, x: Element) -> Element:
        if x.alg is not self.base:
            raise AlgebraError("include: element not in the base algebra")
        return _element(self, {(bk, (0, 0)): c for bk, c in x.terms.items()})

    def coefficients(self, x: Element) -> dict:
        """x, grouped as {(i, e): base element}."""
        out = {}
        for (bk, ie), c in x.terms.items():
            out.setdefault(ie, {})[bk] = c
        return {ie: _element(self.base, t) for ie, t in sorted(out.items())}

    def evaluate(self, x: Element, k: int) -> Element:
        """Endpoint evaluation t -> k (k = 0,1); kills dt."""
        if k == 0:
            # only the t^0 terms survive, one per base key: nothing meets or cancels
            return _element(self.base, {bk: c for (bk, ie), c in x.terms.items()
                                        if ie == (0, 0)})
        terms = {}
        for (bk, (i, e)), c in x.terms.items():
            if e:
                continue
            prev = terms.get(bk)
            terms[bk] = c if prev is None else prev + c
        return Element(self.base, terms)

    def parse(self, text: str) -> Element:
        def resolve(nm):
            if nm == self.var:
                return self.t()
            if nm == "d" + self.var:
                return self.dt()
            parse = getattr(self.base, "parse", None)   # a ProductCdga has none
            if parse is None:
                return None
            try:
                inner = parse(nm)
            except ExprError:   # not a name of the base
                return None
            return self.include(inner)
        return parse_expression(text, resolve, self.unit())


# ---------------------------------------------------------------------------
# path objects over arbitrary spaces (subalgebras included)
# ---------------------------------------------------------------------------

def path_of(X, budget: int | None = None, w_shift: int = 0):
    """The path object of X; cached per (budget, w_shift) on X.

    For a keyed algebra this is a PathAlgebra.  For a subalgebra S of M cut by
    linear constraints, P(S) is the subalgebra of P(M) cut by the
    coefficientwise constraints — the path functor commutes with these fibre
    products, which is what makes iterated paths of mapping paths work.
    """
    if isinstance(X, SubCdga):
        PM = path_of(X.ambient, budget, w_shift)

        def build():
            lifted = [path_linear_map(c, PM, path_of(c.target, PM.budget, w_shift=0))
                      for c in X.constraints]
            S = SubCdga(PM, lifted, name=f"P({X.name})")
            S.over = X
            return S
        return derived(X, ("path", PM.budget, w_shift), build)
    budget = DEFAULT_BUDGET if budget is None else budget
    if isinstance(X, PathAlgebra) and budget != X.budget:
        budget = X.budget  # nested paths share the innermost budget
    return derived(X, ("path", budget, w_shift), lambda: PathAlgebra(X, budget, w_shift))


def keyed(P):
    """The underlying keyed path algebra of a path object: its ambient."""
    k = P.ambient
    if isinstance(k, PathAlgebra):
        return k
    raise AlgebraError(f"{P!r} is not a path object")


def path_like(P, X):
    """The path object of X beside the path object P: P's budget and weight shift."""
    k = keyed(P)
    return path_of(X, k.budget, k.w_shift)


def path_linear_map(f: LinearMap, PS, PT) -> LinearMap:
    """P(f): apply f to path coefficients (t stays t)."""
    kS, kT = keyed(PS), keyed(PT)

    def fn(x: Element) -> Element:
        # each (i, e) holds one coefficient, so the keys (bk, (i, e)) never meet
        return _element(kT, {(bk, ie): c for ie, coeff in kS.coefficients(x).items()
                             for bk, c in f(coeff).terms.items()})

    cls = Morphism if isinstance(f, Morphism) else LinearMap
    return cls(PS, PT, fn, name=f"P({f.name or 'f'})")


def iota(P) -> Morphism:
    """Constant-path inclusion A -> P(A)."""
    k = keyed(P)
    base = getattr(P, "over", k.base)
    return Morphism(base, P, lambda x: k.include(x), name="iota")


def delta(P, endpoint: int) -> Morphism:
    """Endpoint evaluation P(A) -> A at t = 0 or 1."""
    k = keyed(P)
    base = getattr(P, "over", k.base)
    return Morphism(P, base, lambda x: k.evaluate(x, endpoint), name=f"delta^{endpoint}")


def _substitution(P, target, im_t: Element, im_dt: Element, coeff_map, name):
    """Algebra map out of P determined by coefficients and the image of t."""
    kP = keyed(P)
    powers = {0: target.unit()}

    def t_power(i):
        if i not in powers:
            powers[i] = t_power(i - 1) * im_t
        return powers[i]

    def fn(x: Element) -> Element:
        out = {}
        for (i, e), coeff in kP.coefficients(x).items():
            term = coeff_map(coeff) * t_power(i)
            if e:
                term = term * im_dt
            _accumulate(out, term.terms)
        return _element(target.ambient, out)

    return Morphism(P, target, fn, name=name)


def symmetry(P) -> Morphism:
    """t -> 1 - t (hence dt -> -dt)."""
    k = keyed(P)
    im_t = k.unit() - k.t()
    im_dt = -k.dt()
    return _substitution(P, P, im_t, im_dt, lambda c: k.include(c), "symmetry")


def coproduct(P) -> Morphism:
    """c: P(A) -> P^2(A), t -> t*s."""
    k = keyed(P)
    P2 = path_of(P)
    k2 = keyed(P2)
    t_in = k2.include(k.t())
    s_out = k2.t()
    im_t = t_in * s_out
    im_dt = k2.include(k.dt()) * s_out + t_in * k2.dt()

    def cmap(c):
        return k2.include(k.include(c))

    return _substitution(P, P2, im_t, im_dt, cmap, "coproduct")


def coproduct_prime(P) -> Morphism:
    """c': P(A) -> P^2(A), t -> t + s - t*s (coproduct with endpoints swapped)."""
    k = keyed(P)
    P2 = path_of(P)
    k2 = keyed(P2)
    t_in = k2.include(k.t())
    s_out = k2.t()
    im_t = t_in + s_out - t_in * s_out
    one = k2.unit()
    im_dt = (one - s_out) * k2.include(k.dt()) + (one - t_in) * k2.dt()

    def cmap(c):
        return k2.include(k.include(c))

    return _substitution(P, P2, im_t, im_dt, cmap, "coproduct'")


def interchange(P2) -> Morphism:
    """mu: P^2(A) -> P^2(A) swapping the two path levels."""
    k2 = keyed(P2)
    if not isinstance(k2.base, PathAlgebra):
        raise AlgebraError("interchange needs a double path")

    def fn(x: Element) -> Element:
        # swapping the levels is a bijection of keys: nothing meets or cancels
        return _element(k2, {((bk, (i2, e2)), (i1, e1)): -c if e1 and e2 else c
                             for ((bk, (i1, e1)), (i2, e2)), c in x.terms.items()})

    return Morphism(P2, P2, fn, name="interchange")


def folding(P2) -> Morphism:
    """nabla: P^2(A) -> P(A), s -> t; into P(A) itself when P^2 is a path of it."""
    k2 = keyed(P2)
    P = k2.base
    if not isinstance(P, PathAlgebra):
        raise AlgebraError("folding needs a double path")
    return _substitution(P2, getattr(P2, "over", P), P.t(), P.dt(), lambda c: c, "folding")


def c_hat(P) -> Morphism:
    """The three-level coproduct P -> P^3 (contraction of iterated paths)."""
    P2 = path_of(P)
    return compose(coproduct_prime(P2), coproduct(P), name="c_hat")


def structural_map(kind: str, x: Element) -> Element:
    """Apply a named path transformation to an element.

    symmetry / coproduct / c_hat act on elements of P(A); interchange and
    folding act on elements of P^2(A).  The ambient power of the path is
    checked against the requested kind.
    """
    P = x.alg
    if not isinstance(P, PathAlgebra):
        raise AlgebraError(f"{kind}: element does not live in a path algebra")
    if kind in ("interchange", "folding"):
        if not isinstance(P.base, PathAlgebra):
            raise AlgebraError(f"{kind} needs an element of a double path")
        return (interchange if kind == "interchange" else folding)(P)(x)
    if kind == "symmetry":
        return symmetry(P)(x)
    if kind == "coproduct":
        return coproduct(P)(x)
    if kind == "c_hat":
        return c_hat(P)(x)
    raise AlgebraError(f"unknown structural map {kind!r}")


def integrate(x: Element) -> Element:
    """Degree -1 integration P(B) -> B: a*t^i |-> 0, a*t^i*dt |-> (-1)^|a| a/(i+1)."""
    k = x.alg
    if not isinstance(k, PathAlgebra):
        raise AlgebraError("integrate expects an element of a path algebra")
    out = {}
    for (bk, (i, e)), c in x.terms.items():
        if not e:
            continue
        sign = -1 if k.base.key_degree(bk) % 2 else 1
        coeff = c * Fraction(sign, i + 1)
        prev = out.get(bk)
        out[bk] = coeff if prev is None else prev + coeff
    return Element(k.base, out)


# ---------------------------------------------------------------------------
# pairing P(X x Y) = P(X) x P(Y), at any path depth
# ---------------------------------------------------------------------------

def _retag(key, slot, depth):
    if depth == 0:
        return (slot, key)
    inner, ie = key
    return (_retag(inner, slot, depth - 1), ie)


def pair_paths(P_prod, parts, depth: int = 1) -> Element:
    """Assemble elements of P^depth(X_j) into one element of P^depth(prod X_j)."""
    # the slots are disjoint, so no two retagged keys meet
    return _element(keyed(P_prod), {_retag(k, slot, depth): c for slot, x in enumerate(parts)
                                    for k, c in x.terms.items()})


# ---------------------------------------------------------------------------
# homotopies
# ---------------------------------------------------------------------------

class Homotopy:
    """h: A -> P(B) with endpoints delta^0 h = f and delta^1 h = g."""

    def __init__(self, f: Morphism, g: Morphism, map: Morphism):
        self.f = f
        self.g = g
        self.map = map

    @property
    def source(self):
        return self.map.source

    @property
    def path(self):
        return self.map.target

    def __call__(self, x):
        return self.map(x)

    def reversed(self) -> "Homotopy":
        return Homotopy(self.g, self.f, compose(symmetry(self.path), self.map))


def constant_homotopy(f: Morphism, budget=None) -> Homotopy:
    P = path_of(f.target, budget)
    return Homotopy(f, f, compose(iota(P), f, name=f"const({f.name})"))


def _homotopy_failures(hm, f: Morphism, g: Morphism, top: int, k):
    """(n, [(check, b), ...]) for n = 0..top: where hm fails as a homotopy from f to g.

    Per basis element b of degree n, in basis order: endpoint-0 when hm(b) at
    t = 0 is not f(b), endpoint-1 when at t = 1 it is not g(b), and below top
    chain-map when hm(db) != d hm(b).  hm is applied once per basis element,
    and hm(db) is read off by linearity from the images one degree up, over
    the source's d_rows(n), in the keyed path algebra k.
    """
    X = hm.source
    bases = [X.basis(n) for n in range(0, top + 1)]
    images = [[hm(b) for b in bs] for bs in bases]
    for n, bs in enumerate(bases):
        failures = []
        for i, (b, hx) in enumerate(zip(bs, images[n])):
            if k.evaluate(hx, 0) != f(b):
                failures.append(("endpoint-0", b))
            if k.evaluate(hx, 1) != g(b):
                failures.append(("endpoint-1", b))
            if n < top and combination(k, X.d_rows(n)[i], images[n + 1]) != hx.d():
                failures.append(("chain-map", b))
        yield n, failures


def verify_homotopy(h, f: Morphism, g: Morphism, upto=None):
    """Exact endpoint and chain checks of a homotopy candidate on bases.

    Every failure of `_homotopy_failures` over degrees 0..top is reported.
    Returns a ValidationReport-style dict list (empty = verified).
    """
    from .ops import ValidationReport
    hm = h.map if isinstance(h, Homotopy) else h
    rep = ValidationReport(subject=f"homotopy {hm.name or ''}".strip())
    top = min(hm.source.N, f.target.N) if upto is None else upto
    top = min(top, hm.source.N)
    for n, failures in _homotopy_failures(hm, f, g, top, keyed(hm.target)):
        for check, b in failures:
            rep.add(check, f"degree {n}: {b!r}")
    return rep


def stokes_defect(h, upto=None):
    """Witnesses of d(int h) + int(d h) != g - f; empty when the identity holds."""
    hm = h.map
    f, g = h.f, h.g
    out = []
    top = min(hm.source.N - 1, f.target.N - 1) if upto is None else upto
    for n in range(0, top + 1):
        for b in hm.source.basis(n):
            k = integrate(hm(b))
            kd = integrate(hm(b.d()))
            lhs = k.d() + kd
            rhs = g(b) - f(b)
            if lhs != rhs:
                out.append({"degree": n, "witness": repr(b)})
    return out


# ---------------------------------------------------------------------------
# mapping paths, double paths, the surjection lift
# ---------------------------------------------------------------------------

def fibre_product(spaces, equations, name=""):
    """The subspace of the product of spaces where f(x_i) = g(x_j) per equation (i, f, j, g).

    The product is keyed: its inject and project work directly with each
    factor's elements, and a subalgebra factor brings its own constraints
    along its projection.  Returns the SubCdga over that product.  Each
    constraint reads only its own slots: a map is applied only to a
    projection that has terms, and an empty one adds zero (the maps are
    linear), so an element of one slot costs only the equations on it.
    """
    amb = ProductCdga([X.ambient for X in spaces], name=" x ".join(map(repr, spaces)))

    def on(i, f):
        """f on slot i of x, or None where x has no terms there."""
        def apply(x):
            xi = amb.project(i, x)
            return f(xi) if xi.terms else None
        return apply

    def constraint(fi, gj, T):
        """fi - gj in T, without gj for a factor's own constraint; None reads as zero."""
        def fn(x):
            a = fi(x)
            b = None if gj is None else gj(x)
            if b is None:
                return T.zero() if a is None else a
            return -b if a is None else a - b
        return fn

    cons = [LinearMap(amb, c.target, constraint(on(i, c), None, c.target.ambient),
                      name=f"[{i}]{c.name}")
            for i, X in enumerate(spaces) if isinstance(X, SubCdga) for c in X.constraints]
    for i, f, j, g in equations:
        T = f.target.ambient
        cons.append(LinearMap(amb, T, constraint(on(i, f), on(j, g), T),
                              name=f"{f.name}[{i}]={g.name}[{j}]"))
    return SubCdga(amb, cons, name=name)


class MappingPath:
    """P(f) = {(a, b(t)) : f(a) = b(0)} with projections p, q and section iota.

    PB is the path object of f's target that b(t) lives in.  q evaluates
    the path at the chosen endpoint (1 by default; diagrams alternate
    endpoints by vertex degree).
    """

    def __init__(self, f: Morphism, PB, q_endpoint: int = 1):
        A, B = f.source, f.target
        self.f = f
        kB = keyed(PB)
        self.PB = PB
        self.space = fibre_product([A, PB], [(0, f, 1, delta(PB, 0))],
                                   name=f"MappingPath({f.name or 'f'})")
        self.amb = amb = self.space.ambient
        self.p = Morphism(self.space, A, lambda x: amb.project(0, x), name="p")
        self.q_endpoint = q_endpoint
        self.q = Morphism(self.space, B,
                          lambda x: kB.evaluate(amb.project(1, x), q_endpoint), name="q")
        self.iota = Morphism(A, self.space, lambda a: amb.tuple_of({0: a, 1: kB.include(f(a))}),
                             name="iota")

    def pair(self, a: Element, bt: Element) -> Element:
        """Element (a, b(t)) of the ambient product; caller owns the constraint."""
        return self.amb.tuple_of({0: a, 1: bt})

    def component_a(self, x: Element) -> Element:
        return self.amb.project(0, x)

    def component_path(self, x: Element) -> Element:
        return self.amb.project(1, x)

    def contraction(self) -> Homotopy:
        """h = (iota_A pi_1, c_B pi_2): a homotopy from iota p to the identity."""
        PS = path_like(self.PB, self.space)
        c_B = coproduct(self.PB)
        iota_A = iota(path_like(self.PB, self.f.source))
        Pamb = keyed(PS)

        def fn(x):
            a = self.component_a(x)
            bt = self.component_path(x)
            pa = iota_A(a)               # in P(A)
            pb = c_B(bt)                 # in P^2(B)
            return pair_paths(Pamb, [pa, pb], depth=1)

        hmap = Morphism(self.space, PS, fn, name="contraction")
        id_space = Morphism(self.space, self.space, lambda x: x, name="1")
        iota_p = compose(self.iota, self.p)
        return Homotopy(iota_p, id_space, hmap)


def mapping_path(f: Morphism, budget=None) -> MappingPath:
    """The mapping path of f in the path object of f's target at this budget."""
    return MappingPath(f, path_of(f.target, budget))


class DoublePath:
    """P(v, v') = {(a0, a1, b(t)) : b(0) = v(a0), b(1) = v'(a1)}, b(t) in PB."""

    def __init__(self, v: Morphism, v2: Morphism, PB):
        if v.target is not v2.target:
            raise AlgebraError("double path needs a shared target")
        self.v, self.v2 = v, v2
        self.PB = PB
        self.space = fibre_product(
            [v.source, v2.source, PB], [(2, delta(PB, 0), 0, v), (2, delta(PB, 1), 1, v2)],
            name=f"DoublePath({v.name or 'v'})")
        self.amb = self.space.ambient

    def embed(self, a0: Element, a1: Element, bt: Element) -> Element:
        return self.amb.tuple_of({0: a0, 1: a1, 2: bt})

    def parts(self, x: Element):
        amb = self.amb
        return (amb.project(0, x), amb.project(1, x), amb.project(2, x))


def induced_to_double_path(v: Morphism, dp: DoublePath, PA) -> Morphism:
    """(delta^0, delta^1, P(v)): P(A) -> P(v, v)."""
    kA = keyed(PA)
    Pv = path_linear_map(v, PA, dp.PB)

    def fn(x):
        return dp.embed(kA.evaluate(x, 0), kA.evaluate(x, 1), Pv(x))

    return Morphism(PA, dp.space, fn, name="(d0,d1,P(v))")


def p5_lift(v: Morphism, a0: Element, a1: Element, bt: Element) -> Element:
    """Explicit section of (delta^0, delta^1, P(v)) over a surjection v.

    Solve for a coefficientwise preimage bt~ of b(t) on v's rows (kept on v) and return
    (a0 - bt~(0))(1-t) + (a1 - bt~(1)) t + bt~(t), in the path of v's source beside b(t)'s.
    """
    A, B = v.source, v.target
    kB = bt.alg
    if not isinstance(kB, PathAlgebra) or kB.base is not B:
        raise AlgebraError("p5_lift: b(t) must live in P(target)")
    if kB.evaluate(bt, 0) != v(a0) or kB.evaluate(bt, 1) != v(a1):
        raise AlgebraError("p5_lift: endpoints of b(t) do not match v(a0), v(a1)")
    kA = keyed(path_like(kB, A))
    terms = {}
    for (i, e), coeff in kB.coefficients(bt).items():
        n = coeff.degree()
        pre = solve_preimage(v, coeff, n)
        if pre is None:
            raise AlgebraError(
                f"p5_lift: v is not surjective in degree {n} (no preimage)")
        term = kA.include(pre) * _t_pow(kA, i) * (kA.dt() if e else kA.unit())
        _accumulate(terms, term.terms)
    tilde = _element(kA, terms)
    t = kA.t()
    one = kA.unit()
    at = (kA.include(a0 - kA.evaluate(tilde, 0)) * (one - t)
          + kA.include(a1 - kA.evaluate(tilde, 1)) * t + tilde)
    return at


def _t_pow(kA, i):
    out = kA.unit()
    for _ in range(i):
        out = out * kA.t()
    return out

"""Graded-commutative dg algebra kernel.

Elements are sparse maps {basis key -> Scalar}; each algebra class implements a
small key protocol (degree, product with Koszul sign, differential, basis
enumeration) and everything else — cohomology, morphism checks, subalgebras cut
out by linear equations — is generic on top of it.

Elements are combined in one place, `_accumulate`: sums, differences, linear
images and substitutions add their terms into one result dict in place.

Every space — a keyed algebra or a `SubCdga` cut out of one — answers one
space protocol: `ambient`, `zero`, `unit`, `basis`, `dim`, `coords`,
`d_rows`, `from_coords`, `check_degree`, `has_weights` and `has_hodge`.  A
space's elements live in its `ambient`, the keyed algebra that holds them:
an algebra is its own ambient, and a `SubCdga`'s is the algebra it is cut
from.  `d_rows(n)`, kept once per degree, is every caller's matrix of d, and
everything else derived from a space is kept on it by `derived`.

Products and differentials of keys carry their signs as the field's shared
scalars: `mul_keys` returns `field.one()` or `field.minus_one()` with each
product monomial, and `mul_terms` applies a sign found to be one of those
objects (an identity test) without multiplying, as it skips multiplying a
coefficient by a shared `one()`.

Algebras carry a mandatory degree cutoff N: bases and cohomology are served for
degrees inside the horizon and fail loudly beyond it.  Free algebras only admit
generators of degree >= 1 so that every degreewise basis is finite; degree-0
content enters through table presentations or through the path machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .exprs import parse_expression
from .scalars import Field, QQ, Scalar, coeff, from_coeff

RESERVED_NAMES = {"t", "dt", "s", "ds", "l", "dl", "i", "sqrtd"}


class CutoffError(ValueError):
    """An operation touched degrees beyond the algebra's trust horizon."""


class AlgebraError(ValueError):
    pass


def _as_scalar(c) -> Scalar:
    if isinstance(c, Scalar):
        return c
    return Scalar(c)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class Element:
    """Sparse element of a graded algebra: {key: nonzero Scalar}.

    The terms are zero-free: no coefficient is zero, so `==`, `hash` and
    `is_zero` read the terms directly.  The public constructor filters
    zeros out of a copy of the terms it is given.  Producers that already
    drop every zero they make build their result with the private
    `_element`, which neither filters nor copies and so is handed a dict
    that nobody else keeps: sums, differences and linear images folded by
    `_accumulate`, products that pop cancelled keys, negation, relabelling
    or splitting zero-free terms, and element * non-zero scalar (a product
    of non-zero field elements is non-zero).  Only sums that can cancel
    without a check filter; evaluation at t = 1 is one of them.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = {k: c for k, c in terms.items() if not c.is_zero}

    # arithmetic ------------------------------------------------------------

    def _plus(self, other, c):
        """self + c * other in one pass (c None for 1)."""
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.alg.unit() * other
        if other.alg is not self.alg:
            raise AlgebraError("adding elements of different algebras")
        return _element(self.alg, _accumulate(dict(self.terms), other.terms, c))

    def __add__(self, other):
        return self._plus(other, None)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.alg, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, self.alg.field.minus_one())

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = _as_scalar(other)
            if c.is_zero:
                return self.alg.zero()
            return _element(self.alg, {k: c * v for k, v in self.terms.items()})
        if other.alg is not self.alg:
            raise AlgebraError("multiplying elements of different algebras")
        return _element(self.alg, self.alg.mul_terms(self.terms, other.terms))

    def __rmul__(self, other):
        return self.__mul__(other)

    def d(self) -> "Element":
        return _element(self.alg, self.alg.d_terms(self.terms))

    # structure ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree_parts(self) -> dict:
        out = {}
        for k, c in self.terms.items():
            n = self.alg.key_degree(k)
            out.setdefault(n, {})[k] = c
        return {n: _element(self.alg, t) for n, t in sorted(out.items())}

    def degree(self):
        """Degree if homogeneous (zero element has degree None)."""
        degs = {self.alg.key_degree(k) for k in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise AlgebraError(f"inhomogeneous element of degrees {sorted(degs)}")
        return degs.pop()

    def weight(self):
        """Filtration level: max key weight (increasing W); None when empty."""
        ws = [self.alg.key_weight(k) for k in self.terms]
        if not ws or any(w is None for w in ws):
            return None
        return max(ws)

    def hodge(self):
        """Hodge level: min key hodge (decreasing F); None when empty."""
        hs = [self.alg.key_hodge(k) for k in self.terms]
        if not hs or any(h is None for h in hs):
            return None
        return min(hs)

    def coefficient(self, key) -> Scalar:
        c = self.terms.get(key)
        return self.alg.field.zero() if c is None else c

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.alg.unit() * other
        if not isinstance(other, Element):
            return NotImplemented
        return self.alg is other.alg and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.alg), frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kc: self.alg.key_sort(kc[0]))

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for k, c in self.sorted_terms():
            ks = self.alg.key_str(k)
            if ks == "1":
                bits.append(str(c))
            elif c == 1:
                bits.append(ks)
            else:
                bits.append(f"({c})*{ks}")
        return " + ".join(bits)


def _element(alg, terms: dict) -> Element:
    """Element over zero-free terms the caller gives up; nothing is checked or copied."""
    x = object.__new__(Element)
    x.alg = alg
    x.terms = terms
    return x


def _accumulate(out: dict, terms: dict, c=None) -> dict:
    """out += c * terms in place, popping every key that cancels; returns out.

    c is a non-zero Scalar or Fraction (None for 1) and terms are zero-free,
    so only keys already in out can cancel.  New keys go last, in the order
    of terms: a fold into {} has the terms, in order, of the chain of sums.
    """
    for k, v in terms.items():
        if c is not None:
            v = v * c
        if k in out:
            s = out[k] + v
            if s.is_zero:
                del out[k]
            else:
                out[k] = s
        else:
            out[k] = v
    return out


def combination(alg, coeffs, elements) -> Element:
    """sum of c * elements[i] in alg over the coefficient row coeffs {i: c}.

    A coefficient may also be a Scalar; none is zero.  Indices are taken in
    increasing order, so the terms come out in the order of the elements.
    """
    out = {}
    for i in sorted(coeffs):
        _accumulate(out, elements[i].terms, coeffs[i])
    return _element(alg, out)


def d_rows_by_coords(space, n, basis, **strict) -> list:
    """space.d_rows(n) where basis = space.basis(n) is not made of keys; kept in space._d_rows."""
    rows = space._d_rows.get(n)
    if rows is None:
        rows = space._d_rows[n] = [space.coords(b.d(), n + 1, **strict) for b in basis]
    return rows


def derived(X, key, build):
    """build(), made once per key and kept on the space X; the one memo of a space.

    Everything worked out from a space once and read many times is kept
    here, in X's one `_derived` dict: its path objects and the lifting
    targets on them, its cohomology groups and d^2 verdicts, its filtered
    complexes, spectral sequences and graded pieces, and the scalar
    extension of a rational vertex.  Only this function writes the dict,
    and `FreeCdga.set_differential` drops it.
    """
    memo = X._derived
    if memo is None:
        memo = X._derived = {}
    if key not in memo:
        memo[key] = build()
    return memo[key]


# ---------------------------------------------------------------------------
# algebra base
# ---------------------------------------------------------------------------

class GradedAlgebra:
    """Base class: subclasses fill in the key protocol."""

    field: Field
    N: int
    name: str

    # key protocol (subclass responsibility)
    def key_degree(self, k) -> int: raise NotImplementedError
    def mul_keys(self, k1, k2) -> dict: raise NotImplementedError
    def d_key(self, k) -> dict: raise NotImplementedError
    def basis_keys(self, n) -> list: raise NotImplementedError
    def unit_terms(self) -> dict: raise NotImplementedError

    def key_weight(self, k): return None
    def key_hodge(self, k): return None
    def key_block(self, k): return 0
    def key_sort(self, k): return repr(k)
    def key_str(self, k) -> str: return repr(k)

    @property
    def has_weights(self) -> bool:
        return False

    @property
    def has_hodge(self) -> bool:
        return False

    @property
    def ambient(self) -> "GradedAlgebra":
        """The keyed algebra holding this space's elements: the algebra itself."""
        return self

    # generic element machinery ------------------------------------------------

    def element(self, terms: dict) -> Element:
        return Element(self, terms)

    def zero(self) -> Element:
        return _element(self, {})

    def unit(self) -> Element:
        return _element(self, dict(self.unit_terms()))

    def from_key(self, k, c=None) -> Element:
        if c is None:
            return _element(self, {k: self.field.one()})
        return Element(self, {k: _as_scalar(c)})

    def mul_terms(self, t1: dict, t2: dict) -> dict:
        # identity tests against the field's shared unit signs (see the
        # module docstring): multiplying by them would give the same values
        one, m_one = self.field.one(), self.field.minus_one()
        out = {}
        for k1, c1 in t1.items():
            for k2, c2 in t2.items():
                prod = self.mul_keys(k1, k2)
                if not prod:
                    continue
                c = c1 if c2 is one else c2 if c1 is one else c1 * c2
                for k, ck in prod.items():
                    t = c if ck is one else -c if ck is m_one else c * ck
                    s = out[k] + t if k in out else t
                    if s.is_zero:
                        out.pop(k, None)
                    else:
                        out[k] = s
        return out

    def d_terms(self, terms: dict) -> dict:
        out = {}
        for k, c in terms.items():
            for kk, ck in self.d_key(k).items():
                s = out[kk] + c * ck if kk in out else c * ck
                if s.is_zero:
                    out.pop(kk, None)
                else:
                    out[kk] = s
        return out

    # bases / coordinates -------------------------------------------------------

    def check_degree(self, n, strict=True):
        if strict and not (0 <= n <= self.N):
            raise CutoffError(
                f"degree {n} outside the trust horizon 0..{self.N} of {self.name or self}")

    def basis(self, n, strict=True) -> list:
        self.check_degree(n, strict)
        if n < 0:
            return []
        return [self.from_key(k) for k in self.basis_keys(n)]

    def dim(self, n, strict=True) -> int:
        self.check_degree(n, strict)
        if n < 0:
            return 0
        return len(self.basis_keys(n))

    def coords(self, x: Element, n, strict=True):
        """Coefficient row {position in basis(n): coefficient} of x (see linalg)."""
        self.check_degree(n, strict)
        return self._row(x.terms, n)

    def _row(self, terms, n):
        """The coefficient row over basis(n) of terms {key: coefficient}."""
        index = self._key_index(n)
        row = {}
        for k, c in terms.items():
            i = index.get(k)
            if i is None:
                raise AlgebraError(
                    f"element has a degree-{self.key_degree(k)} key outside basis({n})")
            row[i] = coeff(c)
        return row

    def d_rows(self, n) -> list:
        """The rows over basis(n + 1) of d on basis(n), built once per degree; read-only."""
        if self._d_rows_cache is None:
            self._d_rows_cache = {}
        rows = self._d_rows_cache.get(n)
        if rows is None:
            keys = self.basis_keys(n) if n >= 0 else []
            rows = self._d_rows_cache[n] = [self._row(self.d_key(k), n + 1) for k in keys]
        return rows

    def _key_index(self, n) -> dict:
        """{basis key: position} in degree n, built once per degree."""
        if self._index_cache is None:
            self._index_cache = {}
        index = self._index_cache.get(n)
        if index is None:
            keys = self.basis_keys(n) if n >= 0 else []
            index = self._index_cache[n] = {k: i for i, k in enumerate(keys)}
        return index

    def from_coords(self, n, row, strict=True) -> Element:
        """The element of degree n with coefficient row `row` over basis(n), terms in basis order."""
        keys = self.basis_keys(n) if n >= 0 else []
        return _element(self, {keys[i]: from_coeff(row[i]) for i in sorted(row)})

    def random_element(self, n, rng, density=0.6, strict=True) -> Element:
        keys = self.basis_keys(n) if n >= 0 else []
        return Element(self, {k: self.field.random_scalar(rng) for k in keys
                              if rng.random() < density})

    def __repr__(self):
        return self.name or f"<{type(self).__name__} at {hex(id(self))}>"

    # per-degree key index and d rows (filled by _key_index and d_rows), and
    # everything else derived from the space (filled by `derived`); algebras
    # are immutable, but FreeCdga.set_differential drops the rows and the
    # derived objects, which read the old d
    _index_cache: dict = None
    _d_rows_cache: dict = None
    _derived: dict = None


# ---------------------------------------------------------------------------
# free (Sullivan-presented) algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    weight: int | None = None
    hodge: int | None = None


class FreeCdga(GradedAlgebra):
    """Free graded-commutative dg algebra on generators of degree >= 1.

    Keys are monomials: tuples of (generator index, exponent) sorted by the
    fixed generator order (degree, then name).  Odd generators square to zero.
    """

    def __init__(self, generators, N, field=QQ, name="", differentials=None):
        seen = set()
        for g in generators:
            if g.degree < 1:
                raise AlgebraError(
                    f"free generator {g.name!r} has degree {g.degree}; "
                    "degree-0 content needs a table presentation or a path adjunction")
            if g.name in RESERVED_NAMES:
                raise AlgebraError(f"generator name {g.name!r} is reserved")
            if g.name in seen:
                raise AlgebraError(f"duplicate generator name {g.name!r}")
            seen.add(g.name)
        self.gens = sorted(generators, key=lambda g: (g.degree, g.name))
        self.gen_index = {g.name: i for i, g in enumerate(self.gens)}
        self._odd = [g.degree % 2 for g in self.gens]
        self.N = int(N)
        if self.N < 0:
            raise AlgebraError("cutoff N must be >= 0")
        self.field = field
        self.name = name or "Free(" + ",".join(g.name for g in self.gens) + ")"
        self._diff = {}          # gen index -> terms dict
        self._d_key_cache = {}
        self._basis_cache = {}
        self.keys_kept = False   # set by adjoin
        if differentials:
            self.set_differential(differentials)

    # ----- construction

    def generator(self, name) -> Element:
        i = self.gen_index.get(name)
        if i is None:
            raise AlgebraError(f"unknown generator {name!r}")
        return self.from_key(((i, 1),))

    def set_differential(self, assignment: dict):
        """assignment: generator name -> Element (or terms dict) of degree+1."""
        for name, val in assignment.items():
            i = self.gen_index.get(name)
            if i is None:
                raise AlgebraError(f"unknown generator {name!r} in differential")
            el = val if isinstance(val, Element) else Element(self, val)
            if el.alg is not self:
                raise AlgebraError("differential value from a different algebra")
            if not el.is_zero and el.degree() != self.gens[i].degree + 1:
                raise AlgebraError(
                    f"d({name}) must have degree {self.gens[i].degree + 1}")
            self._diff[i] = dict(el.terms)
        self._d_key_cache.clear()
        self._d_rows_cache = None
        self._derived = None   # everything derived from the space read the old d

    def adjoin(self, generators, differentials: dict) -> "FreeCdga":
        """This algebra with generators adjoined (a relative Sullivan extension).

        differentials maps new generator names to terms dicts over this
        algebra's keys; the old generators keep theirs, and the name.  The
        result's keys_kept says whether every old generator kept its index,
        so that old keys name the same monomials (no sign arises either way,
        because the fixed generator order keeps the old generators in their
        relative order).  When they do, the result costs what it adds: only
        the new differentials are validated, and it carries this algebra's
        differentials of the old generators (the dicts themselves, which are
        never mutated, only replaced), its d_key cache, and its cached bases
        of the degrees below the lowest new generator degree, whose keys
        hold old generators only.  Otherwise every key is re-indexed into the
        result and nothing cached carries over.
        """
        out = FreeCdga(self.gens + list(generators), self.N, self.field, name=self.name)
        for nm in differentials:
            if nm in self.gen_index:
                raise AlgebraError(f"adjoin: {nm!r} is not a new generator")
        remap = []
        for g in self.gens:
            remap.append(out.gen_index[g.name])
        out.keys_kept = remap == list(range(len(remap)))
        if out.keys_kept:
            out._diff = dict(self._diff)
            out.set_differential(differentials)
            out._d_key_cache = dict(self._d_key_cache)
            low = min((g.degree for g in generators), default=float("inf"))
            out._basis_cache = {n: keys for n, keys in self._basis_cache.items() if n < low}
            return out
        diffs = dict(differentials)
        for i, terms in self._diff.items():
            diffs[self.gens[i].name] = terms
        for nm, terms in diffs.items():
            moved = {}
            for k, c in terms.items():
                key = []
                for i, e in k:
                    key.append((remap[i], e))
                moved[tuple(key)] = c
            diffs[nm] = moved
        out.set_differential(diffs)
        return out

    def parse(self, text: str) -> Element:
        def resolve(nm):
            if nm in self.gen_index:
                return self.generator(nm)
            if nm in ("sqrtd", "i") and not self.field.is_rational:
                return self.unit() * self.field.sqrt_d()
            return None
        return parse_expression(text, resolve, self.unit())

    # ----- key protocol

    def key_degree(self, k) -> int:
        return sum(e * self.gens[i].degree for i, e in k)

    def unit_terms(self):
        return {(): self.field.one()}

    def key_sort(self, k):
        return (self.key_degree(k), k)

    def key_str(self, k) -> str:
        if not k:
            return "1"
        return "*".join(self.gens[i].name + (f"^{e}" if e > 1 else "") for i, e in k)

    def mul_keys(self, k1, k2):
        if not k1:
            return {k2: self.field.one()}
        if not k2:
            return {k1: self.field.one()}
        # one merge of the sorted factor lists: an odd factor of k2 passes the
        # odd factors of k1 still ahead of it (odd generators have exponent 1)
        odd = self._odd
        ahead = 0
        for gi, _ in k1:
            ahead += odd[gi]
        negative = False
        out = []
        i = j = 0
        n1, n2 = len(k1), len(k2)
        while i < n1 and j < n2:
            f1, f2 = k1[i], k2[j]
            if f1[0] < f2[0]:
                out.append(f1)
                ahead -= odd[f1[0]]
                i += 1
            elif f1[0] > f2[0]:
                if odd[f2[0]] and ahead % 2:
                    negative = not negative
                out.append(f2)
                j += 1
            elif odd[f1[0]]:
                return {}  # odd square
            else:
                out.append((f1[0], f1[1] + f2[1]))
                i += 1
                j += 1
        out.extend(k1[i:])
        out.extend(k2[j:])
        return {tuple(out): self.field.minus_one() if negative else self.field.one()}

    def d_key(self, k):
        cached = self._d_key_cache.get(k)
        if cached is not None:
            return cached
        if not k:
            out = {}
        else:
            (gi, e), rest = k[0], k[1:]
            g_deg = self.gens[gi].degree
            dg = self._diff.get(gi, {})
            # d(g^e) = e * g^(e-1) * dg   (odd g has e = 1)
            head = {}
            if dg:
                if e == 1:
                    head = dg
                else:
                    pref = {((gi, e - 1),): self.field.scalar(e)}
                    head = self.mul_terms(pref, dg)
            out = self.mul_terms(head, {rest: self.field.one()})
            drest = self.d_key(rest)
            if drest:
                # the Koszul sign of d passing g^e
                sign = self.field.minus_one() if (g_deg * e) % 2 else None
                _accumulate(out, self.mul_terms({(k[:1]): self.field.one()}, drest), sign)
        self._d_key_cache[k] = out
        return out

    def basis_keys(self, n):
        cached = self._basis_cache.get(n)
        if cached is not None:
            return cached
        keys = []
        gens = self.gens  # rec is a reference cycle; it must not hold self

        def rec(start, remaining, acc):
            if remaining == 0:
                keys.append(tuple(acc))
                return
            for i in range(start, len(gens)):
                g = gens[i]
                if g.degree > remaining:
                    break  # gens sorted by degree
                emax = 1 if g.degree % 2 else remaining // g.degree
                for e in range(1, emax + 1):
                    if e * g.degree <= remaining:
                        acc.append((i, e))
                        rec(i + 1, remaining - e * g.degree, acc)
                        acc.pop()

        rec(0, n, [])
        keys.sort()
        self._basis_cache[n] = keys
        return keys

    def key_weight(self, k):
        if not self.has_weights:
            return None
        return sum(e * self.gens[i].weight for i, e in k)

    def key_hodge(self, k):
        if not self.has_hodge:
            return None
        return sum(e * self.gens[i].hodge for i, e in k)

    @property
    def has_weights(self):
        return all(g.weight is not None for g in self.gens)

    @property
    def has_hodge(self):
        return all(g.hodge is not None for g in self.gens)

    def differential_of(self, name) -> Element:
        return Element(self, dict(self._diff.get(self.gen_index[name], {})))


# ---------------------------------------------------------------------------
# finite table presentations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableBasisElement:
    name: str
    degree: int
    weight: int | None = None
    hodge: int | None = None


class TableCdga(GradedAlgebra):
    """Finite-dimensional cdga given by a graded basis and a multiplication table.

    Products absent from the table (in particular everything above the top
    declared degree) are zero; the table is the whole algebra.  An entry
    leaves no degree: a*b lies in degree |a|+|b| and d(a) in degree |a|+1,
    and an entry on the unit must agree with it, else an `AlgebraError` is
    raised.
    """

    def __init__(self, basis, N, field=QQ, name="", unit="1",
                 products=None, differentials=None, augmentation=None):
        self.basis_list = list(basis)
        names = [b.name for b in self.basis_list]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate table basis name")
        for b in self.basis_list:
            if b.name in RESERVED_NAMES:
                raise AlgebraError(f"basis name {b.name!r} is reserved")
            if b.degree < 0:
                raise AlgebraError(f"basis element {b.name!r} has negative degree")
        self.info = {b.name: b for b in self.basis_list}
        self._basis_cache = {}
        if unit not in self.info or self.info[unit].degree != 0:
            raise AlgebraError(f"unit {unit!r} must be a degree-0 basis element")
        self.unit_name = unit
        self.N = int(N)
        self.field = field
        self.name = name or f"Table({','.join(names)})"
        self.products = {}
        for (a, b), terms in (products or {}).items():
            self._check_names(a, b)
            entry = self.products[(a, b)] = self._entry(
                terms, self.info[a].degree + self.info[b].degree, f"{a}*{b}")
            if unit in (a, b):
                other = b if a == unit else a
                if entry != {other: field.one()}:
                    raise AlgebraError(f"{a}*{b} must be {other}, as {unit} is the unit")
        self.diffs = {}
        for a, terms in (differentials or {}).items():
            self._check_names(a)
            self.diffs[a] = self._entry(terms, self.info[a].degree + 1, f"d({a})")
        if augmentation is None:
            augmentation = {self.unit_name: self.field.one()}
        self.augmentation = {k: _as_scalar(c) for k, c in augmentation.items()}

    def _entry(self, terms, degree, label) -> dict:
        """The non-zero terms of a table entry, which must all have the given degree."""
        out = {k: _as_scalar(c) for k, c in terms.items() if not _as_scalar(c).is_zero}
        self._check_names(*out)
        if any(self.info[k].degree != degree for k in out):
            raise AlgebraError(f"{label} must have degree {degree}")
        return out

    def _check_names(self, *names):
        for nm in names:
            if nm not in self.info:
                raise AlgebraError(f"unknown basis name {nm!r}")

    def basis_element(self, name) -> Element:
        self._check_names(name)
        return self.from_key(name)

    def parse(self, text: str) -> Element:
        def resolve(nm):
            if nm in self.info:
                return self.basis_element(nm)
            if nm in ("sqrtd", "i") and not self.field.is_rational:
                return self.unit() * self.field.sqrt_d()
            return None
        return parse_expression(text, resolve, self.unit())

    # ----- key protocol

    def key_degree(self, k) -> int:
        return self.info[k].degree

    def unit_terms(self):
        return {self.unit_name: self.field.one()}

    def key_sort(self, k):
        return (self.info[k].degree, k)

    def key_str(self, k) -> str:
        return k

    def mul_keys(self, k1, k2):
        if k1 == self.unit_name:
            return {k2: self.field.one()}
        if k2 == self.unit_name:
            return {k1: self.field.one()}
        if (k1, k2) in self.products:
            return self.products[(k1, k2)]
        if (k2, k1) in self.products:
            d1, d2 = self.info[k1].degree, self.info[k2].degree
            if (d1 * d2) % 2:
                return {k: -c for k, c in self.products[(k2, k1)].items()}
            return self.products[(k2, k1)]
        return {}

    def d_key(self, k):
        return self.diffs.get(k, {})

    def basis_keys(self, n):
        keys = self._basis_cache.get(n)
        if keys is None:
            keys = self._basis_cache[n] = [b.name for b in self.basis_list if b.degree == n]
        return keys

    def key_weight(self, k):
        return self.info[k].weight

    def key_hodge(self, k):
        return self.info[k].hodge

    @property
    def has_weights(self):
        return all(b.weight is not None for b in self.basis_list)

    @property
    def has_hodge(self):
        return all(b.hodge is not None for b in self.basis_list)

    def augment(self, x: Element) -> Scalar:
        out = Scalar(0)
        for k, c in x.terms.items():
            a = self.augmentation.get(k)
            if a is not None:
                out = out + a * c
        return out


# ---------------------------------------------------------------------------
# finite products
# ---------------------------------------------------------------------------

class ProductCdga(GradedAlgebra):
    """Direct product of algebras; keys are (slot, key) pairs."""

    def __init__(self, factors, name=""):
        if not factors:
            raise AlgebraError("empty product")
        fields = {f.field for f in factors}
        if len(fields) != 1:
            raise AlgebraError("product factors over different fields")
        self.factors = list(factors)
        self.field = factors[0].field
        self.N = min(f.N for f in factors)
        self.name = name or "(" + " x ".join(repr(f) for f in factors) + ")"

    def key_degree(self, k):
        return self.factors[k[0]].key_degree(k[1])

    def unit_terms(self):
        out = {}
        for i, f in enumerate(self.factors):
            for kk, c in f.unit_terms().items():
                out[(i, kk)] = c
        return out

    def key_sort(self, k):
        return (k[0], self.factors[k[0]].key_sort(k[1]))

    def key_str(self, k):
        return f"[{k[0]}]{self.factors[k[0]].key_str(k[1])}"

    def mul_keys(self, k1, k2):
        if k1[0] != k2[0]:
            return {}
        i = k1[0]
        return {(i, kk): c for kk, c in self.factors[i].mul_keys(k1[1], k2[1]).items()}

    def d_key(self, k):
        i = k[0]
        return {(i, kk): c for kk, c in self.factors[i].d_key(k[1]).items()}

    def basis_keys(self, n):
        out = []
        for i, f in enumerate(self.factors):
            out.extend((i, kk) for kk in f.basis_keys(n))
        return out

    def key_weight(self, k):
        return self.factors[k[0]].key_weight(k[1])

    def key_hodge(self, k):
        return self.factors[k[0]].key_hodge(k[1])

    def key_block(self, k):
        return (k[0], self.factors[k[0]].key_block(k[1]))

    @property
    def has_weights(self):
        return all(f.has_weights for f in self.factors)

    @property
    def has_hodge(self):
        return all(f.has_hodge for f in self.factors)

    def inject(self, i, x: Element) -> Element:
        return self.tuple_of({i: x})

    def tuple_of(self, parts: dict) -> Element:
        """The sum of inject(i, x) over parts {slot i: x}: disjoint slots, one dict, in order."""
        out = {}
        for i, x in parts.items():
            if x.alg is not self.factors[i]:
                raise AlgebraError("inject: wrong factor")
            for k, c in x.terms.items():
                out[(i, k)] = c
        return _element(self, out)

    def project(self, i, x: Element) -> Element:
        return _element(self.factors[i],
                        {k[1]: c for k, c in x.terms.items() if k[0] == i})


# ---------------------------------------------------------------------------
# linear maps and morphisms
# ---------------------------------------------------------------------------

class LinearMap:
    """Degree-preserving linear map; not necessarily multiplicative."""

    def __init__(self, source, target, fn, name=""):
        self.source = source
        self.target = target
        if fn is not None:   # else the subclass defines fn as a method
            self.fn = fn
        self.name = name
        self._rows = {}   # degree -> coefficient rows, filled by morphism_matrix

    def __call__(self, x: Element) -> Element:
        return self.fn(x)

    def __repr__(self):
        return self.name or f"<linear {self.source!r} -> {self.target!r}>"


class Morphism(LinearMap):
    """Unit-preserving cdga morphism (degree 0, commutes with d and products)."""

    kind = "morphism"


def compose(g: LinearMap, f: LinearMap, name="") -> LinearMap:
    cls = Morphism if isinstance(g, Morphism) and isinstance(f, Morphism) else LinearMap
    return cls(f.source, g.target, lambda x: g(f(x)),
               name or f"({g.name or 'g'} o {f.name or 'f'})")


def identity_morphism(A) -> Morphism:
    return Morphism(A, A, lambda x: x, name=f"1_{A!r}")


class FreeMorphism(Morphism):
    """Morphism out of a FreeCdga, determined by generator images."""

    def __init__(self, source: FreeCdga, target, gen_images: dict, name=""):
        self.gen_images = {}
        for nm, el in gen_images.items():
            if nm not in source.gen_index:
                raise AlgebraError(f"unknown generator {nm!r}")
            if el.alg is not target.ambient:
                raise AlgebraError(f"image of {nm!r} lies in the wrong algebra")
            self.gen_images[nm] = el
        missing = [g.name for g in source.gens if g.name not in self.gen_images]
        if missing:
            raise AlgebraError(f"missing generator images: {missing}")
        self._key_cache = {}
        # fn is a method, not a stored bound method, so a FreeMorphism is no
        # reference cycle and frees its source as soon as it is dropped
        super().__init__(source, target, None, name)

    def _image_of_key(self, k) -> Element:
        cached = self._key_cache.get(k)
        if cached is not None:
            return cached
        if not k:
            out = self.target.unit()
        else:
            (gi, e), rest = k[0], k[1:]
            g = self.source.gens[gi]
            img = self.gen_images[g.name]
            out = self._image_of_key(rest)
            for _ in range(e):
                out = img * out
        self._key_cache[k] = out
        return out

    def fn(self, x: Element) -> Element:
        out = {}
        for k, c in x.terms.items():
            _accumulate(out, self._image_of_key(k).terms, c)
        return _element(self.target.ambient, out)


def linear_morphism(source, target, key_images: dict, name="") -> Morphism:
    """Morphism given by images of basis keys (e.g. out of a TableCdga)."""
    def fn(x: Element) -> Element:
        out = {}
        for k, c in x.terms.items():
            img = key_images.get(k)
            if img is None:
                raise AlgebraError(f"no image for basis key {k!r}")
            _accumulate(out, img.terms, c)
        return _element(target.ambient, out)
    return Morphism(source, target, fn, name)


def morphism_matrix(f: LinearMap, n, strict=True):
    """Coefficient rows: row i = coords of f(b_i) over the source basis b of degree n.

    Built once per degree and kept on f, for callers that only read them.
    """
    rows = f._rows.get(n)
    if rows is None:
        rows = f._rows[n] = [f.target.coords(f(b), n, strict=strict)
                             for b in f.source.basis(n, strict=strict)]
    f.source.check_degree(n, strict)
    if rows:
        f.target.check_degree(n, strict)
    return rows


def is_surjective_at(f: LinearMap, n) -> bool:
    rows = morphism_matrix(f, n)
    need = f.target.dim(n)
    return linalg.rank(rows, need) == need


def solve_preimage(f: LinearMap, y: Element, n):
    """x of degree n with f(x) = y, or None; deterministic free choice.

    f's rows on degree n are morphism_matrix's, built once per degree on f.
    """
    rows = morphism_matrix(f, n)
    sol, = linalg.solve(rows, len(rows), [f.target.coords(y, n)])
    if sol is None:
        return None
    return f.source.from_coords(n, sol)


def extend_scalars(A, d: int):
    """Base change of a Free/Table algebra to Q(sqrt d); returns (B, coerce)."""
    F = Field(d)
    if isinstance(A, FreeCdga):
        B = FreeCdga(A.gens, A.N, F, name=f"{A.name}@C")
        B._diff = {i: dict(t) for i, t in A._diff.items()}
    elif isinstance(A, TableCdga):
        B = TableCdga(A.basis_list, A.N, F, name=f"{A.name}@C", unit=A.unit_name,
                      products={k: dict(v) for k, v in A.products.items()},
                      differentials={k: dict(v) for k, v in A.diffs.items()},
                      augmentation=dict(A.augmentation))
    else:
        raise AlgebraError("scalar extension implemented for free/table presentations")
    coerce = Morphism(A, B, lambda x: Element(B, dict(x.terms)), name="? C")
    return B, coerce


# ---------------------------------------------------------------------------
# subalgebras cut out by linear constraints
# ---------------------------------------------------------------------------

class SubCdga:
    """Degreewise kernel of linear constraints inside a keyed ambient algebra.

    Elements live in the ambient algebra; this object serves bases and
    coordinates through the space protocol (see the module docstring): its
    `zero`, `unit`, `basis` and `from_coords` return elements of `ambient`,
    and `has_weights` and `has_hodge` are the ambient's.  Used for mapping
    paths, double paths and boundary-condition targets, none of which are
    free.

    basis(n) is the left kernel of the constraints over the ambient basis of
    degree n, one vector per free unknown of that elimination, 1 there and 0
    at every other free unknown.  So the coordinates of x are x's ambient
    coefficients at the free positions, read off without elimination; x is
    a member exactly when those coordinates recombine to x, which `coords`
    checks.
    """

    def __init__(self, ambient: GradedAlgebra, constraints, name=""):
        self.ambient = ambient
        self.constraints = list(constraints)
        self.field = ambient.field
        self.N = ambient.N
        self.name = name or f"Sub({ambient!r})"
        self._basis_cache = {}
        # degree -> (ambient coefficient rows of basis(n), {free position: index})
        self._rows = {}
        self._d_rows = {}   # filled by d_rows

    # space protocol ------------------------------------------------------------

    def basis(self, n, strict=True):
        self.check_degree(n, strict)
        if n < 0:
            return []
        if n not in self._basis_cache:
            amb_basis = self.ambient.basis(n, strict=False)
            kernel = linalg.free_kernel(self._constraint_rows(amb_basis), len(amb_basis))
            rows = list(kernel.values())
            self._rows[n] = rows, {j: i for i, j in enumerate(kernel)}
            self._basis_cache[n] = [self.ambient.from_coords(n, v) for v in rows]
        return list(self._basis_cache[n])

    def constraint_kernel(self, elements):
        """Basis of {x : sum_i x_i elements[i] meets every constraint}, as coefficient rows.

        The constraints are linear, so this is the left kernel of the rows
        c(elements[i]) of all constraints c, one column per (constraint, key).
        """
        return linalg.left_kernel(self._constraint_rows(elements), len(elements))

    def _constraint_rows(self, elements):
        rows = []
        for e in elements:
            row = {}
            for ci, c in enumerate(self.constraints):
                for k, a in c(e).terms.items():
                    row[ci, k] = coeff(a)
            rows.append(row)
        return rows

    def dim(self, n, strict=True):
        return len(self.basis(n, strict=strict))

    def coords(self, x: Element, n, strict=True):
        """Coefficient row of x over basis(n); raises if x is not in this subalgebra."""
        self.check_degree(n, strict)
        if n not in self._rows:
            self.basis(n, strict=False)
        rows, free = self._rows.get(n, ((), {}))
        amb_row = self.ambient.coords(x, n, strict=False)
        sol = {}
        for j, c in amb_row.items():
            i = free.get(j)
            if i is not None:
                sol[i] = c
        if linalg.combine(sol, rows) != amb_row:
            raise AlgebraError(f"element is not in {self.name} (degree {n})")
        return sol

    def d_rows(self, n) -> list:
        """The rows over basis(n + 1) of d on basis(n), built once per degree; read-only."""
        return d_rows_by_coords(self, n, self.basis(n, strict=False), strict=False)

    def from_coords(self, n, row, strict=True) -> Element:
        return combination(self.ambient, row, self.basis(n, strict=strict))

    def random_element(self, n, rng, density=0.6, strict=True) -> Element:
        basis = self.basis(n, strict=strict)
        drawn = [(i, self.field.random_scalar(rng)) for i in range(len(basis))
                 if rng.random() < density]
        return combination(self.ambient, {i: c for i, c in drawn if not c.is_zero}, basis)

    def check_degree(self, n, strict=True):
        if strict and not (0 <= n <= self.N):
            raise CutoffError(f"degree {n} outside 0..{self.N} of {self.name}")

    def zero(self):
        return self.ambient.zero()

    def unit(self):
        return self.ambient.unit()

    @property
    def has_weights(self):
        return self.ambient.has_weights

    @property
    def has_hodge(self):
        return self.ambient.has_hodge

    def __repr__(self):
        return self.name

    _derived = None   # filled by `derived`

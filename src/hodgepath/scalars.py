"""Exact scalars: rationals and quadratic imaginary extensions Q(sqrt d), d < 0.

A Scalar is a + b*sqrt(d) with a, b reduced Fractions.  Conjugation flips the
sign of b and fixes exactly the rational sub-line, which is what the Hodge
purity checks need (floating point cannot certify F^p ∩ conj(F^q) = 0).

Invariant: `re` and `im` are always Fractions and `d < 0`.  The public
constructor converts and checks its arguments; arithmetic on two rational
operands (im == 0) does one Fraction operation and builds its result with
the private `_scalar`, which trusts parts that already satisfy the invariant.
No operation mutates a Scalar, so one object may be shared: each Field keeps
one zero, one and minus one.

The coefficients of linalg's sparse rows are bare Fractions where they are
rational and Scalars otherwise; `coeff` and `from_coeff` convert one
coefficient in each direction.
"""

from __future__ import annotations

from fractions import Fraction


class ScalarError(ValueError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise ScalarError(f"cannot read rational from {x!r}")


def _scalar(re: Fraction, im: Fraction, d: int) -> "Scalar":
    """Scalar from parts that already hold the invariant; nothing is checked."""
    s = object.__new__(Scalar)
    s.re = re
    s.im = im
    s.d = d
    return s


_ZERO = Fraction(0)


class Scalar:
    """Element a + b*sqrt(d) of Q(sqrt d); b = 0 is a plain rational.

    The arithmetic below takes a rational fast path when neither operand has
    an imaginary part; its result's d is the one the general path gives (the
    other operand's d for a binary operation, self.d for a unary one).
    """

    __slots__ = ("re", "im", "d")

    def __init__(self, re=0, im=0, d: int = -1):
        self.re = _frac(re)
        self.im = _frac(im)
        if d >= 0:
            raise ScalarError(f"quadratic extension needs d < 0, got {d}")
        self.d = d

    # -- helpers -----------------------------------------------------------

    def _join(self, other) -> "Scalar | None":
        """other as a Scalar, or None when it is no scalar (the operator then
        returns NotImplemented, so an Element operand gets its reflected method)."""
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction, str)):
                return None
            return Scalar(other, 0, self.d)
        if other.im and self.im and other.d != self.d:
            raise ScalarError(f"mixing Q(sqrt {self.d}) with Q(sqrt {other.d})")
        return other

    def _d_with(self, other: "Scalar") -> int:
        return self.d if self.im else other.d

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not self.im:
            if type(other) is Scalar:
                if not other.im:
                    return _scalar(self.re + other.re, self.im, other.d)
            elif isinstance(other, (int, Fraction)):
                return _scalar(self.re + other, self.im, self.d)
        o = self._join(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re + o.re, self.im + o.im, self._d_with(o))

    __radd__ = __add__

    def __neg__(self):
        if not self.im:
            return _scalar(-self.re, self.im, self.d)
        return Scalar(-self.re, -self.im, self.d)

    def __sub__(self, other):
        if not self.im:
            if type(other) is Scalar:
                if not other.im:
                    return _scalar(self.re - other.re, self.im, other.d)
            elif isinstance(other, (int, Fraction)):
                return _scalar(self.re - other, self.im, self.d)
        o = self._join(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._join(other)
        return NotImplemented if o is None else (-self) + o

    def __mul__(self, other):
        if not self.im:
            if type(other) is Scalar:
                if not other.im:
                    return _scalar(self.re * other.re, self.im, other.d)
            elif isinstance(other, (int, Fraction)):
                return _scalar(self.re * other, self.im, self.d)
        o = self._join(other)
        if o is None:
            return NotImplemented
        d = self._d_with(o)
        return Scalar(self.re * o.re + self.im * o.im * d,
                      self.re * o.im + self.im * o.re, d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self.im:
            if not self.re:
                raise ZeroDivisionError("scalar division by zero")
            return _scalar(1 / self.re, self.im, self.d)
        # 1/(a+b√d) = (a−b√d)/(a²−b²d); the norm is positive unless zero.
        n = self.re * self.re - self.im * self.im * self.d
        if n == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(self.re / n, -self.im / n, self.d)

    def __truediv__(self, other):
        o = self._join(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._join(other)
        return NotImplemented if o is None else o * self.inverse()

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im, self.d)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.re != other.re or self.im != other.im:
            return False
        return self.im == 0 or self.d == other.d

    def __hash__(self):
        return hash((self.re, self.im, self.d if self.im else None))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        root = "i" if self.d == -1 else f"sqrt({self.d})"
        if self.re == 0:
            return f"{self.im}*{root}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*{root}"


def coeff(a: Scalar):
    """a as a row coefficient: a bare Fraction when a is rational, else a itself."""
    return a if a.im else a.re


def from_coeff(c) -> Scalar:
    """The Scalar of a row coefficient (a Fraction or a Scalar)."""
    return c if type(c) is Scalar else _scalar(c, _ZERO, -1)


class Field:
    """Scalar field of an algebra: QQ, or the quadratic extension Q(sqrt d)."""

    __slots__ = ("d", "_zero", "_one", "_minus_one")

    def __init__(self, d: int | None = None):
        if d is not None and d >= 0:
            raise ScalarError(f"quadratic extension needs d < 0, got {d}")
        self.d = d
        self._zero = self.scalar(0)
        self._one = self.scalar(1)
        self._minus_one = self.scalar(-1)

    @property
    def is_rational(self) -> bool:
        return self.d is None

    def scalar(self, re=0, im=0) -> Scalar:
        if self.d is None:
            if _frac(im) != 0:
                raise ScalarError("imaginary part over QQ")
            return Scalar(re, 0, -1)
        return Scalar(re, im, self.d)

    def zero(self) -> Scalar:
        return self._zero

    def one(self) -> Scalar:
        return self._one

    def minus_one(self) -> Scalar:
        return self._minus_one

    def random_scalar(self, rng) -> Scalar:
        """A small random rational, plus a small random rational times sqrt(d)
        over Q(sqrt d); over Q the rng draws the rational part only."""
        c = self.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if self.d is not None:
            c = c + self.sqrt_d() * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return c

    def sqrt_d(self) -> Scalar:
        if self.d is None:
            raise ScalarError("QQ has no adjoined square root")
        return Scalar(0, 1, self.d)

    def __eq__(self, other):
        return isinstance(other, Field) and self.d == other.d

    def __hash__(self):
        return hash(("Field", self.d))

    def __repr__(self):
        return "QQ" if self.d is None else f"QQ(sqrt {self.d})"

    def describe(self):
        return "Q" if self.d is None else {"sqrt": self.d}


QQ = Field(None)

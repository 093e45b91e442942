"""Differential tests of the rational fast path in `hodgepath.scalars`.

The reference is the Scalar class as it was before arithmetic on two rational
operands took a shortcut, kept here as `RefScalar` (its constructor,
arithmetic, comparison and hash verbatim): every operation goes through
`_join`, `_d_with` and the validating constructor.  The library's Scalar must
agree with it on re, im and d of every result (d too, because a
rational result carries the d that the general formulas give it), on ==, on
hash, and on the errors raised.
"""

import operator
import random
from fractions import Fraction

import pytest

from helpers import *  # noqa: F401,F403  (path setup)
from hodgepath.scalars import Scalar, ScalarError


# -- the reference Scalar --------------------------------------------------------

def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise ScalarError(f"cannot read rational from {x!r}")


class RefScalar:
    __slots__ = ("re", "im", "d")

    def __init__(self, re=0, im=0, d: int = -1):
        self.re = _frac(re)
        self.im = _frac(im)
        if d >= 0:
            raise ScalarError(f"quadratic extension needs d < 0, got {d}")
        self.d = d

    def _join(self, other) -> "RefScalar":
        if not isinstance(other, RefScalar):
            return RefScalar(other, 0, self.d)
        if other.im and self.im and other.d != self.d:
            raise ScalarError(f"mixing Q(sqrt {self.d}) with Q(sqrt {other.d})")
        return other

    def _d_with(self, other: "RefScalar") -> int:
        return self.d if self.im else other.d

    def __add__(self, other):
        o = self._join(other)
        return RefScalar(self.re + o.re, self.im + o.im, self._d_with(o))

    __radd__ = __add__

    def __neg__(self):
        return RefScalar(-self.re, -self.im, self.d)

    def __sub__(self, other):
        return self + (-self._join(other))

    def __rsub__(self, other):
        return (-self) + self._join(other)

    def __mul__(self, other):
        o = self._join(other)
        d = self._d_with(o)
        return RefScalar(self.re * o.re + self.im * o.im * d,
                         self.re * o.im + self.im * o.re, d)

    __rmul__ = __mul__

    def inverse(self) -> "RefScalar":
        n = self.re * self.re - self.im * self.im * self.d
        if n == 0:
            raise ZeroDivisionError("scalar division by zero")
        return RefScalar(self.re / n, -self.im / n, self.d)

    def __truediv__(self, other):
        return self * self._join(other).inverse()

    def __rtruediv__(self, other):
        return self._join(other) * self.inverse()

    def conjugate(self) -> "RefScalar":
        return RefScalar(self.re, -self.im, self.d)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if not isinstance(other, RefScalar):
            return NotImplemented
        if self.re != other.re or self.im != other.im:
            return False
        return self.im == 0 or self.d == other.d

    def __hash__(self):
        return hash((self.re, self.im, self.d if self.im else None))


# -- operands --------------------------------------------------------------------

FIELDS = (-1, -3)


def _rational(rng):
    if rng.random() < 0.2:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _operand(rng):
    """A Scalar (rational or irrational, any d), an int or a Fraction."""
    kind = rng.random()
    if kind < 0.15:
        return rng.randint(-5, 5)
    if kind < 0.3:
        return _rational(rng)
    d = rng.choice(FIELDS)
    im = _rational(rng) if rng.random() < 0.4 else 0
    return Scalar(_rational(rng), im, d)


def _ref(x):
    return RefScalar(x.re, x.im, x.d) if isinstance(x, Scalar) else x


def _same(got, want):
    """got (a library result) equals want (the reference result) in every part."""
    assert isinstance(got, Scalar)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im, got.d) == (want.re, want.im, want.d)
    assert hash(got) == hash(want)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except (ScalarError, ZeroDivisionError) as e:
        return None, type(e)


BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]
UNARY = ["__neg__", "inverse", "conjugate"]


@pytest.mark.parametrize("seed", range(4))
def test_binary_ops_match_reference(seed):
    rng = random.Random(seed)
    checked = 0
    for _ in range(600):
        a, b = _operand(rng), _operand(rng)
        if not isinstance(a, Scalar) and not isinstance(b, Scalar):
            continue
        for op in BINARY:
            got, err = _outcome(op, a, b)
            want, ref_err = _outcome(op, _ref(a), _ref(b))
            assert err is ref_err, (op, a, b)
            if err is None:
                _same(got, want)
                checked += 1
    assert checked > 1500


@pytest.mark.parametrize("seed", range(4))
def test_unary_ops_match_reference(seed):
    rng = random.Random(100 + seed)
    for _ in range(400):
        a = _operand(rng)
        if not isinstance(a, Scalar):
            continue
        for name in UNARY:
            got, err = _outcome(getattr(a, name))
            want, ref_err = _outcome(getattr(_ref(a), name))
            assert err is ref_err, (name, a)
            if err is None:
                _same(got, want)


def test_equality_matches_reference():
    rng = random.Random(7)
    values = [_operand(rng) for _ in range(150)]
    results = []
    for a, b in zip(values, values[1:]):
        if isinstance(a, Scalar):
            for op in (operator.add, operator.mul):
                got, err = _outcome(op, a, b)
                if err is None:
                    results.append((got, op(_ref(a), _ref(b))))
    assert len(results) > 100
    for (x, rx), (y, ry) in zip(results, results[1:] + results[:1]):
        assert (x == y) == (rx == ry)
        for v in (0, 1, -1, Fraction(1, 2)):
            assert (x == v) == (rx == v)


def test_fast_path_keeps_the_general_d():
    # a rational operand still carries a d; the result takes the general path's
    r3 = Scalar(Fraction(2, 3), 0, -3)
    r1 = Scalar(5, 0, -1)
    assert (r3 + r1).d == -1 and (r1 + r3).d == -3
    assert (r3 * r1).d == -1 and (r3 - r1).d == -1
    assert (r3 * 2).d == -3 and (2 * r3).d == -3 and (2 - r3).d == -3
    assert (-r3).d == -3 and r3.inverse().d == -3 and (r1 / r3).d == -3
    # a rational operand never hides the other operand's irrational d
    i3 = Scalar(1, 1, -3)
    assert (r1 * i3).d == -3 and (r1 + i3).d == -3 and (i3 - r1).d == -3


def test_zero_inverse_and_mixed_fields_still_raise():
    for z in (Scalar(0), Scalar(0, 0, -3)):
        with pytest.raises(ZeroDivisionError):
            z.inverse()
        with pytest.raises(ZeroDivisionError):
            Scalar(1) / z
        with pytest.raises(ZeroDivisionError):
            1 / z
    i1, i3 = Scalar(0, 1, -1), Scalar(1, 1, -3)
    for op in BINARY:
        with pytest.raises(ScalarError):
            op(i1, i3)
    with pytest.raises(ScalarError):
        Scalar(1, 0, 0)

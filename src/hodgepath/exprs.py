"""Tiny expression grammar for differentials, table entries and homotopies.

    expr   := term (('+'|'-') term)*
    term   := ('-')* factor ('*' factor)*
    factor := atom ('^' nat)?       nat <= 64
    atom   := rational | name | '(' expr ')'

Rational literals are p or p/q; names resolve through a caller-supplied map
(generators, basis elements, path variables t/dt/s/ds, sqrtd/i).  Whitespace
is ignored everywhere.
"""

from __future__ import annotations

from fractions import Fraction


class ExprError(ValueError):
    def __init__(self, msg, pos=None):
        super().__init__(msg if pos is None else f"{msg} (at column {pos})")
        self.pos = pos


_OPS = set("+-*^()")

# The schemas cap max_degree and the t-budget at 64, so no power of a
# positive-degree element or of t that a document can use needs more.
MAX_EXPONENT = 64


def tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            toks.append((c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ExprError("missing denominator", j)
                toks.append((("num", Fraction(int(text[i:j]), int(text[j + 1:k]))), i))
                i = k
            else:
                toks.append((("num", Fraction(int(text[i:j]))), i))
                i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append((("name", text[i:j]), i))
            i = j
            continue
        raise ExprError(f"unexpected character {c!r}", i)
    return toks


class _Parser:
    def __init__(self, toks, end, resolve, unit, one):
        self.toks = toks
        self.end = end          # the column past the text, where its tokens run out
        self.k = 0
        self.resolve = resolve  # name -> element
        self.unit = unit        # element 1
        self.one = one          # scalar 1

    def peek(self):
        return self.toks[self.k][0] if self.k < len(self.toks) else None

    def pos(self):
        return self.toks[self.k][1] if self.k < len(self.toks) else self.end

    def eat(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok[0]

    def parse(self):
        out = self.expr()
        if self.k != len(self.toks):
            raise ExprError("trailing input", self.pos())
        return out

    def expr(self):
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.eat()
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self):
        sign = 1
        while self.peek() == "-":
            self.eat()
            sign = -sign
        out = self.factor()
        while self.peek() == "*":
            self.eat()
            out = out * self.factor()
        if sign < 0:
            out = -out
        return out

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.eat()
            tok = self.peek()
            if not (isinstance(tok, tuple) and tok[0] == "num" and tok[1].denominator == 1):
                raise ExprError("exponent must be a natural number", self.pos())
            pos = self.pos()
            self.eat()
            e = int(tok[1])   # a numeral: never negative
            if e > MAX_EXPONENT:
                raise ExprError(f"exponent {e} exceeds {MAX_EXPONENT}", pos)
            out = self.unit
            for _ in range(e):
                out = out * base
            return out
        return base

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.eat()
            out = self.expr()
            if self.peek() != ")":
                raise ExprError("missing ')'", self.pos())
            self.eat()
            return out
        if isinstance(tok, tuple) and tok[0] == "num":
            self.eat()
            return self.unit * tok[1]
        if isinstance(tok, tuple) and tok[0] == "name":
            pos = self.pos()
            self.eat()
            el = self.resolve(tok[1])
            if el is None:
                raise ExprError(f"unknown name {tok[1]!r}", pos)
            return el
        raise ExprError("expected a term", self.pos())


def parse_expression(text: str, resolve, unit, one=1):
    """Parse text into an element; resolve(name) returns an element or None."""
    return _Parser(tokenize(text), len(text), resolve, unit, one).parse()

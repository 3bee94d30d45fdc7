"""Recursive-descent parser for matrix entry expressions.

Grammar:
    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | factor
    factor   := base ('^' uint)?
    base     := rational | 'z' | 'exp' '(' '-'? rational '*' 'z' ')'
              | '(' expr ')'
    rational := uint ('/' uint)?

Whitespace is insignificant. Exponential coefficients must be nonpositive
(delays are nonnegative). Divisors are delay-free, and a delayed expression
is accepted where its denominator divides every term.

Delay-free expressions are evaluated in `Poly` and `RatFn`; a numerator
becomes a `QuasiPolyEntry` only once an `exp` term enters it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParseError
from ..exactalg import QQ, Poly, RatFn
from ..holomat import QuasiPolyEntry

__all__ = ["EntryExpr", "parse_entry"]


@dataclass(frozen=True)
class EntryExpr:
    """A parsed entry: normalized value plus its detected class.

    kind is 'polynomial', 'rational', or 'quasipoly'; value is the
    corresponding Poly, RatFn, or QuasiPolyEntry.
    """

    source: str
    kind: str
    value: object


_ONE = Poly.one()


def _mul(a, b):
    """a * b for Poly or QuasiPolyEntry operands, skipping a factor one."""
    if a is _ONE or b is _ONE:
        return b if a is _ONE else a
    return a * b


class _Value:
    """Intermediate semantic value: a Poly numerator, or a QuasiPolyEntry
    once a delay appears, over a delay-free polynomial denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den: Poly = _ONE):
        self.num = num
        self.den = den

    def __add__(self, other: "_Value") -> "_Value":
        return _Value(_mul(self.num, other.den) + _mul(other.num, self.den),
                      _mul(self.den, other.den))

    def __neg__(self) -> "_Value":
        return _Value(-self.num, self.den)

    def __sub__(self, other: "_Value") -> "_Value":
        return self + (-other)

    def __mul__(self, other: "_Value") -> "_Value":
        return _Value(_mul(self.num, other.num), _mul(self.den, other.den))

    def power(self, n: int) -> "_Value":
        return _Value(self.num ** n,
                      self.den if self.den is _ONE else self.den ** n)

    def delayed(self):
        """The delayed numerator over the denominator, or None unless the
        denominator divides every term."""
        if self.den is _ONE:
            return self.num
        parts = [divmod(p, self.den) + (tau,) for p, tau in self.num.terms]
        if any(r for _, r, _ in parts):
            return None
        return QuasiPolyEntry((q, tau) for q, _, tau in parts)


_TOKEN_CHARS = {"+", "-", "*", "/", "^", "(", ")"}


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in ("z", "exp"):
                raise ParseError(f"unknown name {word!r}", i)
            tokens.append((word, word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    # -- grammar -------------------------------------------------------

    def parse(self) -> _Value:
        v = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return v

    def expr(self) -> _Value:
        v = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self) -> _Value:
        v = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, off = self.advance()
            rhs = self.unary()
            if op == "*":
                v = v * rhs
            else:
                divisor = rhs.num
                if isinstance(divisor, QuasiPolyEntry):
                    if not divisor.is_polynomial:
                        raise ParseError("cannot divide by a delayed "
                                         "expression", off)
                    divisor = divisor.to_poly()
                if divisor.is_zero:
                    raise ParseError("division by zero", off)
                v = _Value(_mul(v.num, rhs.den), _mul(v.den, divisor))
        return v

    def unary(self) -> _Value:
        if self.peek()[0] == "-":
            self.advance()
            return -self.unary()
        return self.factor()

    def factor(self) -> _Value:
        v = self.base()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            v = v.power(int(tok[1]))
        return v

    def base(self) -> _Value:
        kind, text, off = self.advance()
        if kind == "int":
            # a literal like 3/4 and the division 3 / 4 denote the same
            # value, so the term-level '/' covers rational literals
            return _Value(Poly.const(int(text)))
        if kind == "z":
            return _Value(Poly.z())
        if kind == "(":
            v = self.expr()
            self.expect(")")
            return v
        if kind == "exp":
            self.expect("(")
            negative = False
            if self.peek()[0] == "-":
                self.advance()
                negative = True
            ctok = self.expect("int")
            coeff = QQ(int(ctok[1]))
            if self.peek()[0] == "/":
                self.advance()
                dtok = self.expect("int")
                if int(dtok[1]) == 0:
                    raise ParseError("zero denominator in delay", dtok[2])
                coeff = coeff / QQ(int(dtok[1]))
            self.expect("*")
            self.expect("z")
            self.expect(")")
            if coeff and not negative:
                raise ParseError("exponential growth coefficient must be "
                                 "nonpositive", ctok[2])
            return _Value(QuasiPolyEntry(((_ONE, coeff),)))
        raise ParseError(f"unexpected token {text or 'end of input'!r}", off)


def parse_entry(text: str) -> EntryExpr:
    """Parse and normalize one entry expression."""
    v = _Parser(text).parse()
    num, den = v.num, v.den
    if isinstance(num, QuasiPolyEntry):
        if not num.is_polynomial:
            value = v.delayed()
            if value is None:
                raise ParseError("rational expressions with delays are not "
                                 "supported", 0)
            return EntryExpr(text, "quasipoly", value)
        num = num.to_poly()
    if den is _ONE:
        return EntryExpr(text, "polynomial", num)
    f = RatFn(num, den)
    if f.is_polynomial:
        return EntryExpr(text, "polynomial", f.to_poly())
    return EntryExpr(text, "rational", f)

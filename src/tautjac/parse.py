"""Recursive-descent parser for polynomial expressions.

Grammar (standard precedence ^ > * > binary +/-, left associative):

    expr   := ['+' | '-'] term { ('+' | '-') term }
    term   := factor { '*' factor }
    factor := atom { '^' INT }
    atom   := NUMBER | VARIABLE | '(' expr ')'

NUMBER is an integer or a rational literal "a/b" ('/' has no other
meaning); VARIABLE is p<k> or q<k> with k >= 1 (q0 is rejected with an
explanation of the genus convention).  Digits are ASCII 0-9; a digit
of another script is an unexpected character.  The canonical text
form produced by Poly.__str__ parses back to the same polynomial, and
the Unicode minus sign is accepted as an alias for '-'.
"""

from fractions import Fraction

from .errors import IndexZeroError, ParseError
from .poly import Poly, norm_coeff, variable

_MINUS = "−"  # accepted alias for '-'


def _tokenize(src):
    for i, ch in enumerate(src):  # str.isdecimal() below accepts every script's digits
        if ch.isdecimal() and not ch.isascii():
            raise ParseError("unexpected character %r" % ch, i)
    tokens = []
    i = 0
    n = len(src)

    def read_int(start):
        j = start
        while j < n and src[j].isdecimal():
            j += 1
        return int(src[start:j]), j

    while i < n:
        ch = src[i]
        if ch == _MINUS:
            ch = "-"
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():
            num, j = read_int(i)
            k = j
            while k < n and src[k].isspace():
                k += 1
            if k < n and src[k] == "/":
                k += 1
                while k < n and src[k].isspace():
                    k += 1
                if k >= n or not src[k].isdecimal():
                    raise ParseError(
                        "expected an integer denominator after '/'",
                        k,
                        expected=("integer",),
                    )
                den, j = read_int(k)
                if den == 0:
                    raise ParseError("zero denominator in rational literal", k)
                num = norm_coeff(Fraction(num, den))
            tokens.append(("number", num, i))
            i = j
            continue
        if ch in "pq":
            if i + 1 == n or not src[i + 1].isdecimal():
                raise ParseError("variable %r needs an index" % ch, i, expected=("index",))
            index, j = read_int(i + 1)
            if index == 0:
                if ch == "q":
                    raise IndexZeroError(
                        "q0 is not a variable: the engine substitutes the "
                        "genus scalar g for it; rewrite the expression "
                        "without q0",
                        i,
                    )
                raise IndexZeroError("p indices start at 1", i)
            tokens.append(("variable", variable(ch, index), i))
            i = j
            continue
        if ch == "/":
            raise ParseError(
                "'/' is only valid inside a rational literal like 3/4",
                i,
                expected=("number",),
            )
        raise ParseError(
            "unexpected character %r" % src[i],
            i,
            expected=("number", "variable", "(", ")", "+", "-", "*", "^"),
        )
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, src):
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(
                "unexpected %r after expression" % tok[0],
                tok[2],
                expected=("end",),
            )
        return value

    def expr(self):
        sign = 1
        if self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -1
        value = self.term()
        if sign < 0:
            value = -value
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self):
        value = self.atom()
        while self.peek()[0] == "^":
            self.advance()
            tok = self.peek()
            if tok[0] != "number" or not isinstance(tok[1], int) or tok[1] < 0:
                raise ParseError(
                    "exponent must be a nonnegative integer",
                    tok[2],
                    expected=("integer",),
                )
            self.advance()
            value = value ** tok[1]
        return value

    def atom(self):
        tok = self.peek()
        if tok[0] == "number":
            self.advance()
            return Poly.constant(tok[1])
        if tok[0] == "variable":
            self.advance()
            index, kind = tok[1]
            return Poly.monomial(((index, kind, 1),))
        if tok[0] == "(":
            self.advance()
            value = self.expr()
            closing = self.peek()
            if closing[0] != ")":
                raise ParseError(
                    "expected ')', found %r" % (closing[0],),
                    closing[2],
                    expected=(")",),
                )
            self.advance()
            return value
        raise ParseError(
            "expected a number, variable or '('; found %r" % (tok[0],),
            tok[2],
            expected=("number", "variable", "("),
        )


def parse_poly(src):
    """Parse an expression into an exact :class:`~tautjac.poly.Poly`."""
    return _Parser(src).parse()

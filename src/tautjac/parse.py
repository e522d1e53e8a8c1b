r"""Recursive-descent parser for polynomial expressions.

Lexical grammar: the source is a run of matches of ``_TOKEN``,

    \s* ( DIGITS [\s* '/' \s* DIGITS] | ('p' | 'q') DIGITS | \S )

with DIGITS ASCII 0-9 and \s any str.isspace() character: a NUMBER
(an integer or a rational literal "a/b"; '/' has no other meaning), a
VARIABLE p<k> or q<k> with k >= 1 (q0 is rejected with an explanation
of the genus convention), or one other character, which must be one
of + - * ^ ( ) or the Unicode minus sign, an alias for '-'.  A digit
of another script is an unexpected character, reported before any
other error.

Grammar (standard precedence ^ > * > binary +/-, left associative):

    expr   := ['+' | '-'] term { ('+' | '-') term }
    term   := factor { '*' factor }
    factor := atom { '^' INT }
    atom   := NUMBER | VARIABLE | '(' expr ')'

with INT a NUMBER written without '/': ``p1^6/2`` is an error, not p1^3.

The canonical text form produced by Poly.__str__ parses back to the
same polynomial.
"""

import re
from fractions import Fraction

from .errors import IndexZeroError, ParseError
from .poly import Poly, norm_coeff, variable

_TOKEN = re.compile(r"\s*(([0-9]+)(?:\s*/\s*([0-9]*))?|([pq])([0-9]*)|(\S))")


def _tokenize(src):
    for i, ch in enumerate(src):  # str.isdecimal() accepts every script's digits
        if ch.isdecimal() and not ch.isascii():
            raise ParseError("unexpected character %r" % ch, i)
    tokens = []
    for m in _TOKEN.finditer(src):  # \S takes any other character: only trailing space is skipped
        i = m.start(1)
        digits, den, kind, index, ch = m.groups()[1:]
        if digits:
            num = int(digits)
            if den is not None:  # a '/' was read
                if not den:
                    raise ParseError("expected an integer denominator after '/'", m.start(3),
                                     expected=("integer",))
                if not int(den):
                    raise ParseError("zero denominator in rational literal", m.start(3))
                num = norm_coeff(Fraction(num, int(den)))
            tokens.append(("number", num, i))
        elif kind:
            if not index:
                raise ParseError("variable %r needs an index" % kind, i, expected=("index",))
            if not int(index):
                if kind == "q":
                    raise IndexZeroError("q0 is not a variable: the engine substitutes the genus "
                                         "scalar g for it; rewrite the expression without q0", i)
                raise IndexZeroError("p indices start at 1", i)
            tokens.append(("variable", variable(kind, int(index)), i))
        elif ch in "+-*^()−":
            ch = "-" if ch == "−" else ch
            tokens.append((ch, ch, i))
        elif ch == "/":
            raise ParseError("'/' is only valid inside a rational literal like 3/4", i,
                             expected=("number",))
        else:
            raise ParseError("unexpected character %r" % ch, i,
                             expected=("number", "variable", "(", ")", "+", "-", "*", "^"))
    tokens.append(("end", None, len(src)))
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def take(self, *kinds):
        """The next token, consumed, if its kind is one of kinds; else None."""
        tok = self.tokens[self.pos]
        if tok[0] not in kinds:
            return None
        self.pos += 1
        return tok

    def expr(self):
        sign = self.take("+", "-")
        value = self.term()
        if sign and sign[0] == "-":
            value = -value
        while op := self.take("+", "-"):
            rhs = self.term()
            value = value + rhs if op[0] == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.take("*"):
            value = value * self.factor()
        return value

    def factor(self):
        value = self.atom()
        while self.take("^"):
            tok = self.take("number") or self.tokens[self.pos]
            # an integer literal: a NUMBER token read with no '/' (6/2 is not one)
            if tok[0] != "number" or _TOKEN.match(self.src, tok[2])[3] is not None:
                raise ParseError(
                    "exponent must be a nonnegative integer",
                    tok[2],
                    expected=("integer",),
                )
            value = value ** tok[1]
        return value

    def atom(self):
        tok = self.take("number", "variable", "(") or self.tokens[self.pos]
        if tok[0] == "number":
            return Poly.constant(tok[1])
        if tok[0] == "variable":
            index, kind = tok[1]
            return Poly.monomial(((index, kind, 1),))
        if tok[0] == "(":
            value = self.expr()
            if not self.take(")"):
                closing = self.tokens[self.pos]
                raise ParseError(
                    "expected ')', found %r" % (closing[0],),
                    closing[2],
                    expected=(")",),
                )
            return value
        raise ParseError(
            "expected a number, variable or '('; found %r" % (tok[0],),
            tok[2],
            expected=("number", "variable", "("),
        )


def parse_poly(src):
    """Parse an expression into an exact :class:`~tautjac.poly.Poly`."""
    parser = _Parser(src)
    value = parser.expr()
    if not parser.take("end"):
        tok = parser.tokens[parser.pos]
        raise ParseError(
            "unexpected %r after expression" % tok[0],
            tok[2],
            expected=("end",),
        )
    return value

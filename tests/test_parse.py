import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mono_from_exponents, parse_oracle, random_poly, seeded, tokenize_oracle
from tautjac.errors import IndexZeroError, ParseError
from tautjac.parse import _tokenize, parse_poly
from tautjac.poly import Poly, p, q


def test_grammar_examples():
    assert parse_poly("p2*q1 - 3/4*p1*q1^2") == p(2) * q(1) - 3 * p(1) * q(1) ** 2 / 4
    assert parse_poly("(p1+q1)^2") == p(1) ** 2 + 2 * p(1) * q(1) + q(1) ** 2
    assert parse_poly("3") == Poly.constant(3)
    assert parse_poly("3/4") == Poly.constant(Fraction(3, 4))
    assert parse_poly("0") == Poly.zero()
    assert parse_poly("q12") == q(12)


def test_precedence_and_associativity():
    assert parse_poly("p1+q1*p2^2") == p(1) + q(1) * p(2) ** 2
    assert parse_poly("p1 - q1 - q2") == p(1) - q(1) - q(2)
    assert parse_poly("2*p1^2^2") == 2 * p(1) ** 4  # left-associative tower
    assert parse_poly("-p1^2") == -(p(1) ** 2)
    assert parse_poly("-p1 + q1") == q(1) - p(1)
    assert parse_poly("+p1") == p(1)


def test_whitespace_and_unicode_minus():
    assert parse_poly("  p1 \t+  q1 ") == p(1) + q(1)
    assert parse_poly("p1 − q1") == p(1) - q(1)
    assert parse_poly("3 / 4") == Poly.constant(Fraction(3, 4))


def test_index_zero_rejection():
    with pytest.raises(IndexZeroError) as info:
        parse_poly("q0")
    assert "genus" in str(info.value)
    assert info.value.position == 0
    with pytest.raises(IndexZeroError):
        parse_poly("p1 + p0")


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_poly("p1 + * q1")
    assert info.value.position == 5
    with pytest.raises(ParseError) as info:
        parse_poly("(p1 + q1")
    assert ")" in info.value.expected
    with pytest.raises(ParseError):
        parse_poly("p1^q1")
    with pytest.raises(ParseError):
        parse_poly("p1^2/3")  # '/' may not follow an exponent
    with pytest.raises(ParseError):
        parse_poly("p")
    with pytest.raises(ParseError):
        parse_poly("x1")
    with pytest.raises(ParseError):
        parse_poly("p1 q1")
    with pytest.raises(ParseError):
        parse_poly("1/0")
    with pytest.raises(ParseError):
        parse_poly("")


EXPECTED_ANY = ("number", "variable", "(", ")", "+", "-", "*", "^")
EXPECTED_ATOM = ("number", "variable", "(")
Q0 = ("q0 is not a variable: the engine substitutes the genus scalar g for it; "
      "rewrite the expression without q0")


@pytest.mark.parametrize("src, cls, message, position, expected", [
    ("p٣", ParseError, "unexpected character '٣'", 1, ()),
    ("3/ x", ParseError, "expected an integer denominator after '/'", 3, ("integer",)),
    ("1/ 00", ParseError, "zero denominator in rational literal", 3, ()),
    ("p+1", ParseError, "variable 'p' needs an index", 0, ("index",)),
    ("q0", IndexZeroError, Q0, 0, ()),
    ("p0", IndexZeroError, "p indices start at 1", 0, ()),
    ("p1/2", ParseError, "'/' is only valid inside a rational literal like 3/4", 2, ("number",)),
    ("x1", ParseError, "unexpected character 'x'", 0, EXPECTED_ANY),
    ("p1 q1", ParseError, "unexpected 'variable' after expression", 3, ("end",)),
    ("p1^q1", ParseError, "exponent must be a nonnegative integer", 3, ("integer",)),
    ("p1^6/2", ParseError, "exponent must be a nonnegative integer", 3, ("integer",)),
    ("(p1)^4/2", ParseError, "exponent must be a nonnegative integer", 5, ("integer",)),
    ("(p1 + q1", ParseError, "expected ')', found 'end'", 8, (")",)),
    ("p1 + * q1", ParseError, "expected a number, variable or '('; found '*'", 5, EXPECTED_ATOM),
    ("", ParseError, "expected a number, variable or '('; found 'end'", 0, EXPECTED_ATOM),
])
def test_error_branches_are_pinned(src, cls, message, position, expected):
    # one case per raise site: the class, message, position and expected tuple
    with pytest.raises(ParseError) as info:
        parse_poly(src)
    assert type(info.value) is cls
    assert str(info.value) == "%s (at position %d)" % (message, position)
    assert info.value.position == position
    assert info.value.expected == expected


def _scan(tokenize, src):
    """The tokens (repr, so an int and an equal Fraction differ), or the
    error's (class, message, position, expected)."""
    try:
        return repr(tokenize(src))
    except ParseError as err:
        return type(err), str(err), err.position, err.expected


def test_tokenizer_matches_oracle():
    rng = seeded(29)
    alphabet = "0123456789pq+-*^()/ −\u00a0\u2003\u0085\u001c٣１७²"
    corpus = ["".join(rng.choices(alphabet, k=rng.randint(0, 12))) for _ in range(20000)]
    odd = [c for c in map(chr, range(sys.maxunicode + 1))
           if c.isspace() or c.isdecimal() or c.isdigit()]
    corpus += [t % c for c in odd for t in ("1%s2", "p%s1", "1 %s/ 2", "%s")]
    for src in corpus:
        assert _scan(_tokenize, src) == _scan(tokenize_oracle, src), src


def _parsed(parse, src):
    """The value's text, or the error's (class, message, position, expected)."""
    try:
        return str(parse(src))
    except ParseError as err:
        return type(err), str(err), err.position, err.expected


def test_parser_matches_oracle():
    # token strings that mostly alternate operand and operator and mostly
    # end closed, with a stray token now and then: about 40% parse, and
    # every error branch of the grammar is reached
    rng = seeded(32)
    operands = ["p1", "q2", "3/4", "2", "22", "("]
    operators = ["+", "-", "−", "*", "^", ")"]
    stray = operands + operators + ["/", "q0", "p0", "1/0", "x", "p"]
    corpus = []
    for _ in range(20000):
        src, want = "", operands
        for _ in range(rng.randint(0, 12)):
            tok = rng.choice(want if rng.random() < 0.9 else stray)
            src += " " * rng.randint(0, 1) + tok
            want = operands if tok in "(+-−*^" else operators
        if rng.random() < 0.9:
            src += rng.choice(operands[:5]) * (want is operands) + ")" * (src.count("(") - src.count(")"))
        corpus.append(src)
    # values that print past CPython's 4,300-digit int -> str limit
    corpus += ["2^22222", "(-3/4*q2)^22222"]
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        for src in corpus:
            assert _parsed(parse_poly, src) == _parsed(parse_oracle, src), src
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


def test_round_trip_on_fixed_corpus():
    corpus = [
        Poly.zero(),
        Poly.one(),
        Poly.constant(Fraction(-7, 3)),
        q(2) - q(1) ** 2 / 4,
        p(2) * q(1) - 3 * p(1) * q(1) ** 2 / 4,
        -p(1) * q(1),
        p(1) ** 2 * q(3) + 1,
    ]
    for f in corpus:
        text = str(f)
        again = parse_poly(text)
        assert again == f
        assert str(again) == text  # printing is a fixed point


def test_round_trip_randomized():
    rng = seeded(17)
    for _ in range(60):
        f = random_poly(rng)
        assert parse_poly(str(f)) == f


coeffs = st.one_of(
    st.integers(-20, 20),
    st.fractions(max_denominator=9).filter(lambda f: abs(f) <= 20),
)
monomials = st.lists(
    st.tuples(
        st.tuples(st.integers(1, 9), st.sampled_from("pq")),
        st.integers(1, 3),
    ),
    max_size=3,
).map(mono_from_exponents)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(monomials, coeffs, max_size=5).map(Poly))
def test_round_trip_property(f):
    text = str(f)
    assert parse_poly(text) == f
    assert str(parse_poly(text)) == text

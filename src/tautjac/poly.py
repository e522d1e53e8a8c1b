"""Sparse exact polynomial ring Q[p1, p2, ..., q1, q2, ...].

The ring carries two gradings: the *weight* of a monomial (p_n and q_n
both count n) and the *s-degree* (p_n counts n-1, q_n counts n).  There
is no q0 variable: formulas that would produce it substitute the genus
scalar instead, so the ring itself is genus independent.

A monomial is encoded as a tuple of ``(index, kind, exponent)`` triples
with ``kind`` one of ``'p'``/``'q'``, sorted in descending variable
order.  With variables ordered p1 < q1 < p2 < q2 < ..., plain tuple
comparison of two monomials is then exactly the canonical term order
used everywhere in the package (exponent vectors compared
lexicographically, highest variable first).  The empty tuple is the
monomial 1.

``nonzero_terms``, ``merged_terms`` and ``signed_sum`` clean, merge and
print the sparse term maps of both ``Poly`` and ``Operator``; ``combined``
is the one column kernel of the closure's descent and the Fourier maps.
"""

from fractions import Fraction
from functools import lru_cache

from .errors import InvalidParameter

MONOMIAL_ORDER_ID = "plex-interleaved-v1"

MONO_ONE = ()

P_KIND = "p"
Q_KIND = "q"


def norm_coeff(c):
    """Collapse integral Fractions to plain int (keeps arithmetic on the
    fast integer path whenever denominators are 1).  An exact type test:
    isinstance against the Fraction ABC is slow on this hot path."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def qdiv(a, b):
    """Exact division of two rationals; never falls into float division."""
    if isinstance(a, int) and isinstance(b, int):
        return norm_coeff(Fraction(a, b))
    return norm_coeff(a / b)


def nonzero_terms(terms):
    """The entries of a term map (or None) with a nonzero coefficient, through norm_coeff."""
    clean = {}
    if terms:
        for key, c in terms.items():
            c = norm_coeff(c)
            if c:
                clean[key] = c
    return clean


def merged_terms(a, b):
    """The term map a + b; coefficients that cancel stay as 0."""
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return out


def combined(columns, vec):
    """The sum of vec[c] * columns[c] over an integer column map (key -> its
    image's coefficients by key), zeros dropped."""
    out = {}
    get = out.get
    for c, x in vec.items():
        for d, y in columns[c].items():
            out[d] = get(d, 0) + x * y
    return {d: v for d, v in out.items() if v}


def signed_sum(pieces):
    """The text "a - b + c" of (negative, magnitude text) pieces; "0" for none."""
    text = "".join((" - " if neg else " + ") + body for neg, body in pieces)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def variable(kind, index):
    """A variable as an ``(index, kind)`` pair; index must be >= 1."""
    if kind not in (P_KIND, Q_KIND):
        raise InvalidParameter("variable kind must be 'p' or 'q', got %r" % (kind,))
    if index < 1:
        raise InvalidParameter("variable index must be >= 1, got %r" % (index,))
    return (index, kind)


def var_from_name(name):
    """The variable named e.g. "p1" or "q12": p or q, then ASCII digits."""
    if not (name[1:].isascii() and name[1:].isdecimal()):
        raise InvalidParameter("variable name must be p or q and an index, got %r" % (name,))
    return variable(name[:1], int(name[1:]))


def mono_mul(a, b):
    """Merge two sorted monomials (exponents add)."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ia, ka, ea = a[i]
        ib, kb, eb = b[j]
        if (ia, ka) == (ib, kb):
            out.append((ia, ka, ea + eb))
            i += 1
            j += 1
        elif (ia, ka) > (ib, kb):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_weight(m):
    return sum(i * e for i, _k, e in m)


def mono_sdeg(m):
    return sum((i - 1) * e if k == P_KIND else i * e for i, k, e in m)


def mono_str(m):
    """Text form with p-factors first, each kind by ascending index,
    e.g. "p1^2*q3" (display order only; term order is unaffected)."""
    if not m:
        return "1"
    return "*".join(
        "%s%d" % (k, i) if e == 1 else "%s%d^%d" % (k, i, e)
        for i, k, e in sorted(m, key=lambda t: (t[1], t[0]))
    )


def enumerate_monomials(w):
    """All monomials of weight exactly ``w``, canonically ordered with
    the largest monomial first.  Deterministic and cached."""
    if w < 0:
        raise ValueError("weight must be >= 0")
    return _monomials_below(w, w)


@lru_cache(maxsize=None)
def _monomials_below(w, top):
    """The monomials of weight ``w`` in the variables of index <= ``top``,
    largest first: by the exponent of q_top, then of p_top, descending,
    then by the rest, which is a shared table entry of lower ``top``."""
    if w == 0:
        return ((),)
    out = []
    for a in range(w // top, -1, -1):
        for b in range((w - a * top) // top, -1, -1):
            head = ((top, Q_KIND, a),) if a else ()
            if b:
                head += ((top, P_KIND, b),)
            rest = w - (a + b) * top
            if rest == 0:
                out.append(head)
            elif top > 1:
                out.extend(head + tail for tail in _monomials_below(rest, min(rest, top - 1)))
    return tuple(out)


class Poly:
    """Immutable sparse polynomial: a map from monomials to nonzero
    exact rational coefficients (int or Fraction)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", nonzero_terms(terms))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({MONO_ONE: 1})

    @classmethod
    def constant(cls, c):
        return cls({MONO_ONE: c})

    @classmethod
    def monomial(cls, m, c=1):
        return cls({m: c})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Poly.constant(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(merged_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other if isinstance(other, (int, Fraction, Poly)) else NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return Poly({m: qdiv(c, scalar) for m, c in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def max_weight(self):
        """Largest monomial weight present (0 for the zero polynomial)."""
        return max((mono_weight(m) for m in self.terms), default=0)

    def graded(self):
        """Split into bigraded components: a map (weight, sdeg) -> Poly."""
        buckets = {}
        for m, c in self.terms.items():
            key = (mono_weight(m), mono_sdeg(m))
            buckets.setdefault(key, {})[m] = c
        return {key: Poly(t) for key, t in sorted(buckets.items())}

    def __str__(self):
        """The terms, leading monomial first, as a signed sum."""
        pieces = []
        for m, c in sorted(self.terms.items(), key=lambda mc: mc[0], reverse=True):
            mag = abs(c)
            if not m:
                body = str(mag)
            elif mag == 1:
                body = mono_str(m)
            else:
                body = "%s*%s" % (mag, mono_str(m))
            pieces.append((c < 0, body))
        return signed_sum(pieces)

    def __repr__(self):
        return "Poly(%s)" % self


def check_poly(f):
    if not isinstance(f, Poly):
        raise InvalidParameter("expected a Poly, got %s" % type(f).__name__)


def p(n):
    """The generator p_n as a polynomial."""
    return Poly.monomial((variable(P_KIND, n) + (1,),))


def q(n):
    """The generator q_n as a polynomial (q0 is not a variable: the
    engine substitutes the genus scalar for it)."""
    return Poly.monomial((variable(Q_KIND, n) + (1,),))

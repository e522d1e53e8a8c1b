"""Normal-ordered differential operators with polynomial coefficients.

An operator is a finite sum of terms ``coeff * multiplier * d(...)``:
the term acts on a polynomial f as coeff * multiplier * (product of
partial derivatives applied to f).  Both the multiplier and the
multiset of partials are stored as monomials of :mod:`tautjac.poly`.

Operators carry a validity *window* W: every term of the (possibly
infinite) ideal operator whose partial multiset has index-sum <= W is
present, which makes application to any polynomial of weight <= W
exact.  ``window=None`` marks an operator that is stored in full
(multiplication operators, finite hand-built operators), valid at every
weight.  Composition propagates windows so validity is never
overstated, and discards product terms that fall outside the resulting
window.

A product a o b is the uncontracted products (multipliers and partials
side by side) plus the contraction terms, where partials of a hit
multiplier variables of b (Leibniz).  The uncontracted products of
a o b and b o a are equal, so a commutator is formed from contraction
terms alone, found through an index of each operator's terms by
partial variable.  That index and the largest weight shift are
computed once per operator, on first use.
"""

from itertools import product as cartesian_product
from math import comb, factorial, perm

from .errors import WindowExceeded
from .poly import (
    MONO_ONE,
    Poly,
    mono_diff,
    mono_mul,
    mono_str,
    mono_weight,
    norm_coeff,
)


def _min_window(*windows):
    finite = [w for w in windows if w is not None]
    return min(finite) if finite else None


def _compose_window(a, b):
    """Window of a o b: b's own, and a's lowered by b's largest shift."""
    sb = b.max_weight_shift()
    return _min_window(b.window, None if a.window is None else a.window - (sb or 0))


def _hit_patterns(mult):
    """Every nonzero way to differentiate the multiplier monomial
    ``mult``: (hits as (index, kind, times), the reduced multiplier, the
    index-sum hit, the falling factorials from differentiating)."""
    patterns = []
    for js in cartesian_product(*[range(e + 1) for _i, _k, e in mult]):
        if not any(js):
            continue
        hits = [(i, k, j) for (i, k, _e), j in zip(mult, js) if j]
        reduced = tuple((i, k, e - j) for (i, k, e), j in zip(mult, js) if e > j)
        factor = 1
        for (_i, _k, e), j in zip(mult, js):
            factor *= perm(e, j)
        patterns.append((hits, reduced, sum(i * j for i, _k, j in hits), factor))
    return patterns


def _lower(mono, index, kind, j):
    """``mono`` with the exponent of its variable (index, kind) lowered by j."""
    for pos, (i, k, e) in enumerate(mono):
        if i == index and k == kind:
            rest = ((i, k, e - j),) if e > j else ()
            return mono[:pos] + rest + mono[pos + 1:]


def term_weight_shift(key):
    """Weight shift of a single (multiplier, partials) term."""
    mult, parts = key
    return mono_weight(mult) - mono_weight(parts)


class Operator:
    """Canonical normal-ordered operator: dict (multiplier, partials) ->
    nonzero coefficient, plus a validity window."""

    __slots__ = ("terms", "window", "_cache")

    def __init__(self, terms=None, window=None):
        clean = {}
        if terms:
            for key, c in terms.items():
                c = norm_coeff(c)
                if c:
                    clean[key] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    @classmethod
    def zero(cls, window=None):
        return cls({}, window)

    @classmethod
    def identity(cls, window=None):
        return cls({(MONO_ONE, MONO_ONE): 1}, window)

    @classmethod
    def multiplication(cls, f, window=None):
        """Multiplication by a polynomial; exact at every weight."""
        if not isinstance(f, Poly):
            f = Poly.constant(f)
        return cls({(m, MONO_ONE): c for m, c in f.terms.items()}, window)

    @classmethod
    def derivative(cls, *var_names, window=None):
        """Pure partial-derivative operator, e.g. derivative("p1", "p1")."""
        from .poly import var_from_name

        parts = MONO_ONE
        for name in var_names:
            index, kind = var_from_name(name)
            parts = mono_mul(parts, ((index, kind, 1),))
        return cls({(MONO_ONE, parts): 1}, window)

    @classmethod
    def single(cls, coeff, multiplier=MONO_ONE, partials=MONO_ONE, window=None):
        return cls({(multiplier, partials): coeff}, window)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self.terms == other.terms and self.window == other.window

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.window))

    def max_weight_shift(self):
        """Largest weight shift over stored terms (None when empty)."""
        return self._lazy()[0]

    def weight_shifts(self):
        return sorted({term_weight_shift(k) for k in self.terms})

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return Operator(out, _min_window(self.window, other.window))

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) - c
        return Operator(out, _min_window(self.window, other.window))

    def __neg__(self):
        return Operator({k: -c for k, c in self.terms.items()}, self.window)

    def __mul__(self, scalar):
        from fractions import Fraction

        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return Operator({k: c * scalar for k, c in self.terms.items()}, self.window)

    __rmul__ = __mul__

    def apply(self, f):
        """Act on a polynomial.  Exact for weights up to the window."""
        if self.window is not None:
            w = f.max_weight()
            if w > self.window:
                raise WindowExceeded(w, self.window)
        out = {}
        terms = self.terms
        for m, c in f.terms.items():
            for (mult, parts), oc in terms.items():
                d = mono_diff(m, parts)
                if d is None:
                    continue
                factor, reduced = d
                res = mono_mul(mult, reduced)
                out[res] = out.get(res, 0) + c * oc * factor
        return Poly(out)

    def compose(self, other):
        """Normal-ordered product self o other (apply ``other`` first).

        The window W of the result guarantees
        ``(self @ other).apply(f) == self.apply(other.apply(f))``
        for every f of weight <= W.
        """
        win = _compose_window(self, other)
        out = {}
        get = out.get
        bterms = other._lazy()[2]
        for amult, aparts, ac, asum, _patterns in self._lazy()[2]:
            for bmult, bparts, bc, bsum, _patterns in bterms:
                if win is None or asum + bsum <= win:
                    key = (mono_mul(amult, bmult), mono_mul(aparts, bparts))
                    out[key] = get(key, 0) + ac * bc
        self._contract(other, win, out, 1)
        return Operator(out, win)

    def __matmul__(self, other):
        return self.compose(other)

    def commutator(self, other):
        """[self, other] = self o other - other o self.

        The uncontracted products of the two orders are equal, so only
        the contraction terms are formed; the window is the smaller of
        the two compositions' windows."""
        win = _min_window(_compose_window(self, other), _compose_window(other, self))
        out = {}
        self._contract(other, win, out, 1)
        other._contract(self, win, out, -1)
        return Operator(out, win)

    def _contract(self, other, win, out, sign):
        """Add ``sign`` times the contraction terms of self o other (the
        partials of self hit at least one multiplier variable of other)
        with partial index-sum <= win into the dict ``out``.

        For each term of other and each nonzero way to hit its
        multiplier, the candidate terms of self come from the index of
        self's terms by partial variable."""
        index = self._lazy()[1]
        get = out.get
        for _bmult, bparts, bc, bsum, patterns in other._lazy()[2]:
            bc *= sign
            for hits, red_b, hit_weight, bfactor in patterns:
                i, k, j = hits[0]
                limit = None if win is None else win - bsum + hit_weight
                for asum, ea, amult, lowered, ac in index.get((i, k), ()):
                    if limit is not None and asum > limit:
                        break  # entries are sorted by asum
                    if ea < j:
                        continue
                    # C(ea, j) ways to pick the partials that hit
                    factor = bfactor * comb(ea, j)
                    red_a = lowered[j - 1]
                    for i2, k2, j2 in hits[1:]:
                        d = mono_diff(red_a, ((i2, k2, j2),))
                        if d is None:
                            break
                        # C(e2, j2): the falling factorial over j2!
                        factor *= d[0] // factorial(j2)
                        red_a = d[1]
                    else:
                        mult = mono_mul(amult, red_b) if red_b else amult
                        key = (mult, mono_mul(red_a, bparts))
                        out[key] = get(key, 0) + ac * bc * factor

    def _lazy(self):
        """(max weight shift, index, term list), computed on first use.
        The index maps each partial variable to the terms whose partials
        contain it, as (partial index-sum, exponent e, multiplier, the
        partials with that variable lowered by 1..e, coeff) sorted by
        index-sum.  The term list holds (multiplier, partials, coeff,
        partial index-sum, the multiplier's hit patterns)."""
        lazy = self._cache
        if lazy is None:
            index = {}
            listed = []
            for (mult, parts), c in self.terms.items():
                psum = mono_weight(parts)
                listed.append((mult, parts, c, psum, _hit_patterns(mult)))
                for i, k, e in parts:
                    lowered = [_lower(parts, i, k, j) for j in range(1, e + 1)]
                    index.setdefault((i, k), []).append((psum, e, mult, lowered, c))
            for entries in index.values():
                entries.sort(key=lambda entry: entry[0])
            shift = max((term_weight_shift(k) for k in self.terms), default=None)
            lazy = (shift, index, listed)
            object.__setattr__(self, "_cache", lazy)
        return lazy

    def equal_within(self, other, w):
        """Exact term agreement up to partial index-sum w (equivalently,
        agreement of apply on every polynomial of weight <= w)."""
        for win in (self.window, other.window):
            if win is not None and w > win:
                raise WindowExceeded(w, win)
        mine = {k: c for k, c in self.terms.items() if mono_weight(k[1]) <= w}
        theirs = {k: c for k, c in other.terms.items() if mono_weight(k[1]) <= w}
        return mine == theirs

    def truncated(self, w):
        """Drop terms with partial index-sum above w; window becomes w."""
        win = w if self.window is None else min(w, self.window)
        return Operator(
            {k: c for k, c in self.terms.items() if mono_weight(k[1]) <= win},
            win,
        )

    def sorted_terms(self):
        """Terms ordered by partial multiset, then multiplier."""
        return sorted(self.terms.items(), key=lambda kc: (kc[0][1], kc[0][0]))

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for (mult, parts), c in self.sorted_terms():
            neg = c < 0
            mag = -c if neg else c
            bits = [str(mag)]
            if mult:
                bits.append(mono_str(mult))
            if parts:
                bits.append(
                    "".join(
                        "d(%s%d)" % (k, i) * e for i, k, e in reversed(parts)
                    )
                )
            body = " * ".join(bits)
            if not pieces:
                pieces.append("-" + body if neg else body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

    def __repr__(self):
        return "Operator(%s; window=%s)" % (self, self.window)


def mul_op(f, window=None):
    return Operator.multiplication(f, window)

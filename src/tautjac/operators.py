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

Every product is the Leibniz rule, read from one table per operator:
it maps each sub-multiset of each term's partials to the terms that
contain it, with the partials left over and the number of ways to pick
the sub-multiset from them.  Applying the operator to a monomial looks
up each sub-multiset of the monomial (up to the operator's largest
number of partials) among the terms whose partials it equals.  A
product a o b looks up, for each term of b, each sub-multiset of its
multiplier that a's partials hit: the empty one gives the uncontracted
products (multipliers and partials side by side), the others the
contraction terms.  The uncontracted products of a o b and b o a
agree, so a commutator adds only contraction terms, into a term dict
the caller may share, and a ProductTable memoizes monomial products.
The table and the largest weight shift are computed once per operator.
"""

from math import factorial

from .errors import WindowExceeded
from .poly import (
    MONO_ONE,
    Poly,
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


def _sub_multisets(mono, cap=None):
    """Every sub-multiset of the monomial ``mono`` with at most ``cap``
    factors (any number when None), the empty one first, as (the
    sub-multiset, the rest of ``mono``, the falling factorials from
    differentiating ``mono`` by it, its number of factors); uncapped,
    ``mono`` itself comes last."""
    found = [(MONO_ONE, MONO_ONE, 1, 0)]
    for var in mono:
        i, k, e = var
        grown = []
        for sub, rest, factor, size in found:
            grown.append((sub, rest + (var,), factor, size))
            for j in range(1, (e if cap is None else min(e, cap - size)) + 1):
                factor *= e - j + 1
                left = rest + ((i, k, e - j),) if j < e else rest
                grown.append((sub + ((i, k, j),), left, factor, size + j))
        found = grown
    return found


def term_weight_shift(key):
    """Weight shift of a single (multiplier, partials) term."""
    mult, parts = key
    return mono_weight(mult) - mono_weight(parts)


class ProductTable(dict):
    """``table[a, b]`` is ``mono_mul(a, b)``, computed on first use; it
    grows with every distinct pair, so scope it to the operators' life."""

    def __missing__(self, pair):
        product = self[pair] = mono_mul(*pair)
        return product


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
        _shift, table, _listed, order, _by_var, _variables = self._lazy()
        out = {}
        get = out.get
        for m, c in f.terms.items():
            for sub, rest, factor, _n in _sub_multisets(m, order):
                # the terms whose partials equal ``sub`` lead its entries
                for _s, mult, left, oc in table.get(sub, ()):
                    if left:
                        break
                    res = mono_mul(mult, rest)
                    out[res] = get(res, 0) + c * oc * factor
        return Poly(out)

    def compose(self, other):
        """Normal-ordered product self o other (apply ``other`` first).

        The window W of the result guarantees
        ``(self @ other).apply(f) == self.apply(other.apply(f))``
        for every f of weight <= W.
        """
        win = _compose_window(self, other)
        out = {}
        self._contract(other, win, out, 1, False, ProductTable())
        return Operator(out, win)

    def __matmul__(self, other):
        return self.compose(other)

    def commutator(self, other):
        """[self, other] = self o other - other o self.

        The uncontracted products of the two orders are equal, so only
        the contraction terms are formed; the window is the smaller of
        the two compositions' windows."""
        out = {}
        return Operator(out, self._commute_into(other, out, ProductTable()))

    def _commute_into(self, other, out, products):
        """Add the terms of [self, other] into the dict ``out``; return its window."""
        win = _min_window(_compose_window(self, other), _compose_window(other, self))
        self._contract(other, win, out, 1, True, products)
        other._contract(self, win, out, -1, True, products)
        return win

    def _contract(self, other, win, out, sign, contracted_only, products):
        """Add ``sign`` times the terms of self o other with partial
        index-sum <= win into the dict ``out``: only the contraction
        terms (the partials of self hit at least one multiplier
        variable of other) when ``contracted_only``.

        For each term of other and each way to hit its multiplier, the
        terms of self whose partials contain the hits come from self's
        table.  Contraction terms come only from the terms of other
        whose multiplier holds a variable of self's partials; each of
        them is visited once, in term order, multiplied through ``products``."""
        _shift, table, _listed, _order, _by_var, variables = self._lazy()
        _shift, _table, listed, _order, by_var, _variables = other._lazy()
        if contracted_only:
            picked = set()
            for var in variables:
                picked.update(by_var.get(var, ()))
            listed = [listed[i] for i in sorted(picked)]
        get = out.get
        for bparts, bc, bsum, patterns in listed:
            bc *= sign
            limit = None if win is None else win - bsum
            # patterns[0] hits nothing: the uncontracted product
            for hits, red_b, bfactor, _n in patterns[1 if contracted_only else 0:]:
                for lsum, amult, left, ac in table.get(hits, ()):
                    if limit is not None and lsum > limit:
                        break  # entries are sorted by lsum
                    key = (products[amult, red_b] if red_b else amult,
                           products[left, bparts] if left else bparts)
                    out[key] = get(key, 0) + ac * bc * bfactor

    def _lazy(self):
        """(max weight shift, table, term list, largest number of
        partials, multiplier index, partial variables), computed on first
        use.  The table maps each sub-multiset of each term's partials to
        the terms that contain it, as (index-sum of the partials left
        over, multiplier, those partials, coeff times the ways to pick the
        sub-multiset from the partials) sorted by that index-sum, so the
        terms whose partials equal it come first.  The term list holds
        (partials, coeff, partial index-sum, the multiplier's
        sub-multisets); the multiplier index maps each variable (index,
        kind) to the positions in the term list of the terms whose
        multiplier holds it, and the partial variables are the variables
        of all terms' partials."""
        lazy = self._cache
        if lazy is None:
            table = {}
            listed = []
            by_var = {}
            variables = set()
            order = 0
            hits = {mult: _sub_multisets(mult) for mult, _parts in self.terms}
            for (mult, parts), c in self.terms.items():
                for i, k, _e in mult:
                    by_var.setdefault((i, k), []).append(len(listed))
                variables.update((i, k) for i, k, _e in parts)
                listed.append((parts, c, mono_weight(parts), hits[mult]))
                for sub, left, pick, size in _sub_multisets(parts):
                    for _i, _k, j in sub:
                        pick //= factorial(j)
                    entry = (mono_weight(left), mult, left, c if pick == 1 else pick * c)
                    table.setdefault(sub, []).append(entry)
                order = max(order, size)
            for entries in table.values():
                entries.sort(key=lambda entry: entry[0])
            shift = max((term_weight_shift(k) for k in self.terms), default=None)
            lazy = (shift, table, listed, order, by_var, variables)
            object.__setattr__(self, "_cache", lazy)
        return lazy

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

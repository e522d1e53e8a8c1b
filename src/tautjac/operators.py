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

Every product is the Leibniz rule, read from indexes each operator
builds on first use.  An image looks each sub-multiset of a monomial up
by code among the terms, keyed by the code of their partials: ``apply``
divides it out (no exponent of f is packed), ``image_codes`` adds codes.
Products read one packed term table per operator, in rows by
partial index-sum: a term is one int, the exponent of (i, k) in byte 2v
of the multiplier and 2v + 1 of the partials, v = 2(i - 1) + (k == 'q'),
so multiplying terms adds codes; exponents >= ``EXPONENT_BOUND`` = 128
raise :class:`InvalidParameter`, so no sum carries.  A monomial's code
and weight, and its sub-multisets up to a size, are per-process tables
that products and kept images share (they hold monomials, never an operator).
The packed rows and the largest weight shift are built in one pass over
the terms, one code lookup per monomial.
The contraction terms of a o b are a join on hit codes: b's hit table
sends the code of each nonempty sub-multiset (*hit*) of each multiplier
to the terms that hold it, in row order, a's Leibniz table for hits of
that many factors to the terms whose partials hold it, by the index-sum
left, and only codes in both are visited.  The uncontracted products of
a o b and b o a agree: only ``compose`` forms them, from the packed
rows, so a commutator adds contraction terms alone, up to a partial
index-sum, into a term dict the caller may share.  Every such loop stops
at its cut: right entries at the first that meets no left entry, left
entries and rows at the first above it.  A sum whose entries all
cancelled is the zero operator, with no decoding pass.

The term map is cleaned, merged and printed by helpers shared with
``Poly`` (:mod:`tautjac.poly`); windows and ``d(..)`` factors are this module's own.
"""

from fractions import Fraction
from functools import lru_cache
from math import inf
from operator import itemgetter

from .errors import InvalidParameter, WindowExceeded
from .poly import (MONO_ONE, P_KIND, Q_KIND, Poly, merged_terms, mono_mul, mono_str, mono_weight,
                   nonzero_terms, signed_sum, var_from_name)

EXPONENT_BOUND = 128  # half the range of a byte field: a sum of two never carries


def _min_window(a, b):
    """The smaller of two windows, None (unbounded) being the larger."""
    return b if a is None else a if b is None or a < b else b


def _compose_window(a, b):
    """Window of a o b: b's own, and a's lowered by b's largest shift."""
    sb = b.max_weight_shift()
    return _min_window(b.window, None if a.window is None else a.window - (sb or 0))


def _commute_window(a, b):
    """Window of [a, b]: the smaller of the two compositions' windows."""
    return _min_window(_compose_window(a, b), _compose_window(b, a))


def _bit(i, k):
    """The code of the variable (i, k) as a multiplier."""
    return 1 << (32 * i - (16 if k == Q_KIND else 32))


def _code(mono):
    """The multiplier code of a monomial, unchecked: 16 bits a variable."""
    return sum(e * _bit(i, k) for i, k, e in mono)


def _checked_code(mono):
    """(multiplier code, weight) of a monomial, in one pass; an exponent at the packing
    bound raises."""
    code = weight = 0
    for i, k, e in mono:
        if e >= EXPONENT_BOUND:
            raise InvalidParameter("exponent %s%d^%d is at or above the packing bound %d"
                                   % (k, i, e, EXPONENT_BOUND))
        code += e * _bit(i, k)
        weight += i * e
    return code, weight


_mono_code = lru_cache(maxsize=None)(_checked_code)  # a bad exponent raises on every call


def _hits(mono, cap):
    """Every sub-multiset of ``mono`` with at most ``cap`` factors, the empty one first, as
    (size, code, index-sum, falling factorials of ``mono`` by it, ways to pick it)."""
    found = [(0, 0, 0, 1, 1)]
    for i, k, e in mono:
        bit = _bit(i, k)
        grown = []
        for entry in found:
            grown.append(entry)
            n, code, w, fall, ways = entry
            for j in range(1, min(e, cap - n) + 1):
                fall *= e - j + 1
                ways = ways * (e - j + 1) // j
                grown.append((n + j, code + j * bit, w + j * i, fall, ways))
        found = grown
    return tuple(found)


_packed_hits = lru_cache(maxsize=None)(_hits)  # the per-process table


def _decoded(out, window):
    """The operator of the nonzero entries of ``out`` (code -> coeff)."""
    raws = ((k.to_bytes((k.bit_length() + 7) >> 3, "little"), c) for k, c in out.items() if c)
    return Operator({(_unpacked(raw[::2]), _unpacked(raw[1::2])): c for raw, c in raws}, window)


def _unpacked(fields):
    """The monomial whose exponent of the variable v is ``fields[v]``."""
    return tuple(((v >> 1) + 1, Q_KIND if v & 1 else P_KIND, fields[v])
                 for v in range(len(fields) - 1, -1, -1) if fields[v])


def term_weight_shift(key):
    """Weight shift of a single (multiplier, partials) term."""
    mult, parts = key
    return mono_weight(mult) - mono_weight(parts)


class Operator:
    """Canonical normal-ordered operator: dict (multiplier, partials) ->
    nonzero coefficient, plus a validity window."""

    __slots__ = ("terms", "window", "_cache", "__weakref__")

    def __init__(self, terms=None, window=None):
        object.__setattr__(self, "terms", nonzero_terms(terms))
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    @classmethod
    def _adopted(cls, terms, window):
        """An operator holding ``terms`` itself, with no cleaning copy: for a
        fresh map whose every coefficient is a nonzero int, as the family
        constructors build."""
        op = cls.__new__(cls)
        for name, value in (("terms", terms), ("window", window), ("_cache", {})):
            object.__setattr__(op, name, value)
        return op

    @classmethod
    def zero(cls, window=None):
        return cls({}, window)

    @classmethod
    def identity(cls):
        return cls({(MONO_ONE, MONO_ONE): 1})

    @classmethod
    def derivative(cls, *var_names):
        """Pure partial-derivative operator, e.g. derivative("p1", "p1")."""
        parts = MONO_ONE
        for name in var_names:
            index, kind = var_from_name(name)
            parts = mono_mul(parts, ((index, kind, 1),))
        return cls({(MONO_ONE, parts): 1})

    @classmethod
    def single(cls, coeff, multiplier=MONO_ONE, partials=MONO_ONE):
        return cls({(multiplier, partials): coeff})

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
        return self._lazy("packed")[1]

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        window = _min_window(self.window, other.window)
        return Operator(merged_terms(self.terms, other.terms), window)

    def __sub__(self, other):
        return self + -other if isinstance(other, Operator) else NotImplemented

    def __neg__(self):
        return Operator({k: -c for k, c in self.terms.items()}, self.window)

    def __mul__(self, scalar):
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
        index, order, _top = self._lazy("parts")
        out = {}
        get = out.get
        for m, c in f.terms.items():
            for _n, hit, _w, fall, _ways in _hits(m, order):
                if hit in index:
                    cut, terms = index[hit]
                    rest = tuple([(i, k, e - d) for i, k, e in m if (d := cut.get((i, k), 0)) != e])
                    for mult, _mcode, oc in terms:
                        res = mono_mul(mult, rest)
                        out[res] = get(res, 0) + c * oc * fall
        return Poly(out)

    def image_codes(self, mono, keep=False):
        """self(mono) as {multiplier code: coeff}, zeros kept; ``keep`` reads and fills the
        per-process code and hit tables, for a caller that images each monomial many times."""
        code, w = (_mono_code if keep else _checked_code)(mono)
        if self.window is not None and w > self.window:
            raise WindowExceeded(w, self.window)
        index, order, top = self._lazy("parts")
        if top >= EXPONENT_BOUND:
            raise InvalidParameter("a multiplier exponent %d is at or above the packing bound %d"
                                   % (top, EXPONENT_BOUND))
        out = {}
        for _n, hit, _w, fall, _ways in (_packed_hits if keep else _hits)(mono, order):
            for _mult, mcode, oc in index.get(hit, ((), ()))[1]:
                key = mcode + code - hit
                out[key] = out.get(key, 0) + oc * fall
        return out

    def compose(self, other):
        """Normal-ordered product self o other (apply ``other`` first).

        The window W of the result guarantees
        ``(self @ other).apply(f) == self.apply(other.apply(f))``
        for every f of weight <= W.
        """
        win = _compose_window(self, other)
        out = {}
        for bc, bsum, bcode, _mult, _parts in other._lazy("packed")[0]:  # the empty hit
            self._add_into(out, bc, inf if win is None else win - bsum, bcode)
        self._contract(other, win, out, 1)
        return _decoded(out, win)

    def __matmul__(self, other):
        return self.compose(other)

    def commutator(self, other):
        """[self, other] = self o other - other o self.

        The uncontracted products of the two orders are equal, so only
        the contraction terms are formed; the window is the smaller of
        the two compositions' windows."""
        win = _commute_window(self, other)
        out = {}
        self._commute_into(other, out, win)
        return _decoded(out, win)

    def _commute_into(self, other, out, limit):
        """Add the terms of [self, other] up to ``limit`` into ``out``."""
        self._contract(other, limit, out, 1)
        other._contract(self, limit, out, -1)

    def _add_into(self, out, scale, limit, shift=0):
        """Add ``scale`` times self's terms up to ``limit``, each times the
        term of code ``shift`` (uncontracted), into ``out``."""
        for c, psum, code, _mult, _parts in self._lazy("packed")[0]:
            if psum > limit:
                break  # rows are sorted by psum
            code += shift
            out[code] = out.get(code, 0) + scale * c

    def _contract(self, other, limit, out, sign):
        """Add ``sign`` times the contraction terms of self o other with
        partial index-sum <= ``limit`` (all when None) into ``out``.  For
        each hit size, other's hit table is joined with self's Leibniz
        table on the hit codes both hold."""
        get, limit = out.get, inf if limit is None else limit
        for size, rights in other._lazy("hits").items():
            lefts_by_hit = self._lazy(size)
            for hit in rights.keys() & lefts_by_hit.keys():
                lefts = lefts_by_hit[hit]
                top = limit - lefts[0][0]
                for bsum, bcode, bc in rights[hit]:
                    if bsum > top:
                        break  # sorted by bsum: no later entry meets a left entry
                    bc *= sign
                    cut = limit - bsum
                    for lsum, acode, ac in lefts:
                        if lsum > cut:
                            break  # entries are sorted by lsum
                        key = acode + bcode
                        out[key] = get(key, 0) + ac * bc

    def _lazy(self, key):
        """Self's index ``key``, built on first use and kept with self.
        ``"parts"``: unchecked partial code -> (its exponents, [(multiplier,
        its code, coeff)]), the most partials and the largest multiplier
        exponent.  ``"packed"``, the one index that packs: the terms as
        (coeff, partial index-sum, code, multiplier, partials) stably sorted
        by index-sum, and the largest weight shift.  ``"hits"``, for right
        operands of contractions: hit size n >= 1 -> the code of each n-factor
        hit of each term's multiplier -> [(partial index-sum, code of the term
        without the hit, coeff times the falling factorials)] in row order;
        ``compose`` reads the empty hit from the packed rows.  An int k:
        the Leibniz table, code of each k-factor hit of each term's partials ->
        [(index-sum of the partials left, code of the term with them, coeff
        times the ways to pick the hit)] in row order, so by that index-sum
        (the hit's own index-sum is fixed by its code)."""
        index = self._cache.get(key)
        if index is not None:
            return index
        if key == "parts":
            index = ({}, max((sum(e for *_v, e in p) for _m, p in self.terms), default=0),
                     max((e for m, _p in self.terms for *_v, e in m), default=0))
            if index[1] >> 16:
                raise InvalidParameter("a term has %d partials, at or above 2^16" % index[1])
            for (mult, parts), c in self.terms.items():
                cut = {(i, k): e for i, k, e in parts}
                index[0].setdefault(_code(parts), (cut, []))[1].append((mult, _code(mult), c))
        elif key == "packed":
            rows, shifts = [], []
            for (mult, parts), c in self.terms.items():
                (mcode, mweight), (pcode, psum) = _mono_code(mult), _mono_code(parts)
                rows.append((c, psum, mcode + (pcode << 8), mult, parts))
                shifts.append(mweight - psum)
            rows.sort(key=itemgetter(1))
            index = (rows, max(shifts, default=None))
        elif key == "hits":
            index = {}
            for c, psum, code, mult, _parts in self._lazy("packed")[0]:
                for n, hit, _w, fall, _ways in _packed_hits(mult, inf)[1:]:
                    index.setdefault(n, {}).setdefault(hit, []).append((psum, code - hit, c * fall))
        else:
            index = {}
            for c, psum, code, _mult, parts in self._lazy("packed")[0]:
                for n, hit, w, _fall, ways in _packed_hits(parts, key):
                    if n == key:
                        index.setdefault(hit, []).append((psum - w, code - (hit << 8), ways * c))
        self._cache[key] = index
        return index

    def truncated(self, w):
        """Drop terms with partial index-sum above w; window becomes w."""
        win = w if self.window is None else min(w, self.window)
        return Operator({k: c for k, c in self.terms.items() if mono_weight(k[1]) <= win}, win)

    def __str__(self):
        """The terms, by partial multiset and then multiplier, as a signed sum."""
        pieces = []
        for (mult, parts), c in sorted(self.terms.items(), key=lambda kc: (kc[0][1], kc[0][0])):
            bits = [str(abs(c))]
            if mult:
                bits.append(mono_str(mult))
            if parts:
                bits.append("".join("d(%s%d)" % (k, i) * e for i, k, e in reversed(parts)))
            pieces.append((c < 0, " * ".join(bits)))
        return signed_sum(pieces)

    def __repr__(self):
        return "Operator(%s; window=%s)" % (self, self.window)


def mul_op(f):
    """Multiplication by a polynomial (or a scalar); exact at every weight."""
    if not isinstance(f, Poly):
        f = Poly.constant(f)
    return Operator({(m, MONO_ONE): c for m, c in f.terms.items()})

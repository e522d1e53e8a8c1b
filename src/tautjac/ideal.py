"""Genus-g relation ideal generated by closure under the descent operator.

Every monomial of weight above the genus is a relation (codimension
beyond g vanishes), so the ideal is a function of the genus alone and
only the spaces of weights 0..g are stored.  Starting from all
monomials of weight g+1, the builder repeatedly applies the descent
operator D (one weight down) and multiplies known relations by ring
variables (back up, capped at the genus), until the per-weight relation
spaces stop growing.  One closure step lists these images of a row:
the build inserts them, and the stability check that ends every build
asserts that each of them reduces to zero.  Each graded space is kept
in reduced row echelon form, with pivots on the canonically largest
monomials, so normal forms are unique and the whole structure is
deterministic.  Queries send every weight above g to zero.

Rows are stored fraction free, as primitive integer vectors (gcd 1,
positive pivot coefficient), over monomial indices: a monomial's index
is its position among those of its weight in ascending canonical order,
so a row's pivot is its largest index.  Descent has integer
coefficients, so every closure vector is integral; a reduction scales
its vector once, by the lcm of the pivot coefficients it meets, and an
insertion back-substitutes by cross-multiplying and dividing out the
content (Bareiss, Math. Comp. 22, 1968).  The closure reads tables
built once per genus: descent as one sparse integer column per monomial
of weight 1..g+1 (one ``Operator.image_codes`` each, read as codes), and
each variable product as one index list per weight.  Queries reduce through
``RelationIdeal.reduce``, to an integer vector over one divisor.  Rows
become rational only where a caller reads them: relation bases, the
JSON form, quotient bases, normal forms and stability counterexamples.

The result is a *derived* sub-ideal of the true relation ideal: a
polynomial outside it is not thereby proven nonzero in the Chow ring.
"""

import json
from collections import deque
from functools import lru_cache
from math import gcd, lcm

from .errors import VerificationFailure, check_genus, check_int, report_entry
from .poly import (
    MONOMIAL_ORDER_ID,
    P_KIND,
    Q_KIND,
    Poly,
    check_poly,
    combined,
    enumerate_monomials,
    mono_mul,
    mono_str,
    mono_weight,
    qdiv,
)

FORMAT_VERSION = 2


@lru_cache(maxsize=None)
def _monomials(w):
    """The monomials of weight w in ascending canonical order, so that a
    monomial's position is its index, and the map back to the index."""
    mons = enumerate_monomials(w)[::-1]
    return mons, {m: i for i, m in enumerate(mons)}


def _closure_tables(genus):
    """(descent, products): descent[w][i] maps index -> coefficient of
    the descent of monomial i of weight w, for w in 1..g+1; products[w]
    lists (target weight, variable, index of each monomial of weight w
    times the variable) for every variable that keeps the target <= g."""
    from .lie import LieContext, descent_op
    from .operators import _code

    descent = descent_op(LieContext(genus, genus + 1))
    columns = [None]
    for w in range(1, genus + 2):
        index = {_code(m): i for i, m in enumerate(_monomials(w - 1)[0])}
        columns.append([
            {index[k]: c for k, c in descent.image_codes(mono).items() if c}
            for mono in _monomials(w)[0]
        ])
    products = []
    for w in range(genus + 2):
        mons = _monomials(w)[0]
        maps = []
        for idx in range(1, genus - w + 1):
            index = _monomials(w + idx)[1]
            for kind in (P_KIND, Q_KIND):
                var = ((idx, kind, 1),)
                maps.append((w + idx, var, [index[mono_mul(m, var)] for m in mons]))
        products.append(maps)
    return columns, products


class _Space:
    """One graded piece: primitive integer rows in RREF, keyed by the
    index of their pivot monomial and mapping monomial indices to
    coefficients.  A row's coefficients have gcd 1 and a positive
    pivot coefficient, and no row has a nonzero coefficient at another
    row's pivot; dividing a row by its pivot coefficient gives the
    rational RREF row, which :meth:`sorted_rows` returns."""

    __slots__ = ("weight", "pivots")

    def __init__(self, weight):
        self.weight = weight
        self.pivots = {}

    def reduce(self, vec):
        """Reduce a coefficient vector modulo the stored rows, fraction
        free: returns (L*r, L) with r the rational remainder and L the
        lcm of the pivot coefficients of the rows hit.  Rows are fully
        back-substituted, so the coefficient of vec at each hit pivot m
        is the one eliminated there, and L*r = L*vec - sum of
        vec[m] * (L / lead_m) * row_m."""
        pivots = self.pivots
        hits = [(pivots[m], m, c) for m, c in vec.items() if m in pivots]
        if not hits:
            return dict(vec), 1
        scale = lcm(*[row[m] for row, m, _c in hits])
        work = {m: scale * c for m, c in vec.items()}
        for row, m, c in hits:
            factor = c * (scale // row[m])
            for mm, cc in row.items():
                work[mm] = work.get(mm, 0) - factor * cc
        return {m: c for m, c in work.items() if c}, scale

    def insert(self, vec):
        """Adjoin an integer vector; returns a copy of the new primitive
        row, or None when the vector was already in the span.  Each row
        with a coefficient c at the new pivot becomes the primitive part
        of lead * row - c * new row, where lead is the new row's pivot
        coefficient."""
        red, _scale = self.reduce(vec)
        if not red:
            return None
        piv = max(red)
        row = _primitive(red, piv)
        lead = row[piv]
        pivots = self.pivots
        for opiv, other in pivots.items():
            oc = other.get(piv)
            if oc:
                for m in other:
                    other[m] *= lead
                for m, c in row.items():
                    nc = other.get(m, 0) - oc * c
                    if nc:
                        other[m] = nc
                    else:
                        del other[m]
                pivots[opiv] = _primitive(other, opiv)
        pivots[piv] = row
        return dict(row)

    def sorted_rows(self):
        """The rational RREF rows (pivot coefficient 1) as maps from
        monomials, leading pivot first, each row's terms descending."""
        return [_monic(self.weight, self.pivots[piv]) for piv in sorted(self.pivots, reverse=True)]


def _primitive(vec, piv):
    """A nonzero integer vector divided by the gcd of its coefficients,
    signed so that its coefficient at piv is positive.  A non-integer
    coefficient raises TypeError (from gcd)."""
    content = gcd(*vec.values())
    if vec[piv] < 0:
        content = -content
    return {m: c // content for m, c in vec.items()}


def _monic(w, row):
    """A row of weight w divided by its pivot coefficient, as a map from
    monomials with the terms descending."""
    mons = _monomials(w)[0]
    lead = row[max(row)]
    return {mons[i]: qdiv(row[i], lead) for i in sorted(row, reverse=True)}


class RelationIdeal:
    """Per-weight RREF relation bases for a fixed genus, with quotient
    dimensions and normal-form reduction."""

    def __init__(self, genus, spaces):
        self.genus = genus
        self.spaces = spaces

    @classmethod
    def build(cls, genus):
        """Close the vanishing ideal under descent and multiplication,
        then check that the result is stable.

        Deterministic: the spaces are spans, and RREF with the canonical
        monomial order is unique for a given span.
        """
        check_genus(genus)
        ideal = cls(genus, [_Space(w) for w in range(genus + 1)])
        tables = _closure_tables(genus)
        # Descent and products out of weights above genus+1 only land in
        # weights above the genus, so the queue starts at genus+1.
        top = [{i: 1} for i in range(len(tables[0][genus + 1]) - 1, -1, -1)]
        queue = deque((genus + 1, row) for row in top)
        while queue:
            w, vec = queue.popleft()
            for target, image, _var in ideal._images(tables, w, vec):
                row = ideal.spaces[target].insert(image)
                if row is not None:
                    queue.append((target, row))
        ideal.check_stability(tables)
        return ideal

    def _images(self, tables, w, row):
        """The images of a relation row of weight w that must again be
        relations, as (target weight, vector, variable): its descent
        (variable None), and its product with each variable up to weight
        g."""
        descent, products = tables
        if w >= 1:
            yield w - 1, combined(descent[w], row), None
        for target, var, table in products[w]:
            yield target, {table[i]: c for i, c in row.items()}, var

    # -- queries ---------------------------------------------------------

    def reduce(self, terms):
        """The normal form of monomial -> int terms as (integer vector,
        divisor), fraction free: zeros and weights above the genus drop
        out, and the divisor is the lcm of the weights' scales."""
        vecs = {}
        for m, c in terms.items():
            w = mono_weight(m)
            if c and w <= self.genus:
                vecs.setdefault(w, {})[_monomials(w)[1][m]] = c
        parts = [(_monomials(w)[0], *self.spaces[w].reduce(vec)) for w, vec in vecs.items()]
        div = lcm(1, *(scale for _mons, _red, scale in parts))
        vec = {mons[i]: c * (div // scale) for mons, red, scale in parts for i, c in red.items()}
        return vec, div

    def normal_form(self, f):
        """Unique reduction of f modulo the stored bases, with every
        weight above the genus sent to 0; idempotent and linear, and
        f - normal_form(f) always lies in the ideal."""
        check_poly(f)
        den = lcm(1, *(c.denominator for c in f.terms.values()))
        vec, div = self.reduce({m: c.numerator * den // c.denominator for m, c in f.terms.items()})
        return Poly({m: qdiv(c, div * den) for m, c in vec.items()})

    def contains(self, f):
        """Membership in the derived ideal (graded reduction to zero)."""
        return self.normal_form(f).is_zero()

    def _space(self, w):
        """The stored space of weight w, or None above the genus, where
        every monomial is a relation."""
        check_int(w, 0, "weight must be >= 0, got %r")
        return self.spaces[w] if w <= self.genus else None

    def quotient_dimension(self, w):
        return len(self.quotient_basis(w))

    def quotient_dims(self):
        return {w: self.quotient_dimension(w) for w in range(self.genus + 1)}

    def relation_basis(self, w):
        """RREF relation rows of weight w as polynomials, leading pivot
        first.  Above the genus every monomial is its own row."""
        space = self._space(w)
        if space is None:
            return [Poly.monomial(m) for m in enumerate_monomials(w)]
        return [Poly(row) for row in space.sorted_rows()]

    def quotient_basis(self, w):
        """Monomials of weight w that are not pivots (descending)."""
        space = self._space(w)
        if space is None:
            return []
        mons = _monomials(w)[0]
        return [mons[i] for i in reversed(range(len(mons))) if i not in space.pivots]

    # -- structural checks -------------------------------------------------

    def check_stability(self, tables=None):
        """Assert closure under descent and under multiplication by every
        variable, on the closure tables of a build (or new ones).
        Weights above the genus are all relations, so the only check
        that reaches them is that descent sends every weight-(g+1)
        monomial into the ideal."""
        g = self.genus
        tables = tables or _closure_tables(g)
        top = [{i: 1} for i in range(len(tables[0][g + 1]) - 1, -1, -1)]
        for w in range(g + 2):
            for row in top if w > g else self.spaces[w].pivots.values():
                for target, image, var in self._images(tables, w, row):
                    if not self.spaces[target].reduce(image)[0]:
                        continue
                    if var is None:
                        identity, params = "descent stability", {"weight": w}
                    else:
                        identity = "ideal stability"
                        params = {"weight": w, "times": mono_str(var)}
                    row = str(Poly(_monic(w, row)))
                    raise VerificationFailure(report_entry(identity, params, g, g + 1, "fail", row))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        weights = []
        for w, space in enumerate(self.spaces):
            relations = [
                [{"monomial": mono_str(m), "coeff": str(c)} for m, c in row.items()]
                for row in space.sorted_rows()
            ]
            weights.append(
                {
                    "w": w,
                    "quotient_dim": self.quotient_dimension(w),
                    "relations": relations,
                }
            )
        return {
            "format-version": FORMAT_VERSION,
            "genus": self.genus,
            "monomial_order": MONOMIAL_ORDER_ID,
            "weights": weights,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=False)

    def __repr__(self):
        return "RelationIdeal(genus=%d, dims=%s)" % (self.genus, self.quotient_dims())

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
positive pivot coefficient).  Descent has integer coefficients, so
every closure vector is integral; a reduction scales its vector once,
by the lcm of the pivot coefficients it meets, and an insertion
back-substitutes by cross-multiplying and dividing out the content
(Bareiss, Math. Comp. 22, 1968).  A row is divided by its pivot
coefficient only where a caller reads rationals: relation bases, the
JSON form, normal forms and stability counterexamples.

The result is a *derived* sub-ideal of the true relation ideal: a
polynomial outside it is not thereby proven nonzero in the Chow ring.
"""

import json
from collections import deque
from math import gcd, lcm

from .errors import InvalidGenus, InvalidParameter, VerificationFailure, report_entry
from .lie import LieContext, descent_op
from .poly import (
    MONOMIAL_ORDER_ID,
    P_KIND,
    Q_KIND,
    Poly,
    enumerate_monomials,
    mono_mul,
    mono_str,
    qdiv,
)

FORMAT_VERSION = 2


class _Space:
    """One graded piece: primitive integer rows in RREF, keyed by their
    pivot monomial.  A row's coefficients have gcd 1 and a positive
    pivot coefficient, and no row has a nonzero coefficient at another
    row's pivot; dividing a row by its pivot coefficient gives the
    rational RREF row, which :meth:`sorted_rows` returns."""

    __slots__ = ("weight", "pivots", "full")

    def __init__(self, weight):
        self.weight = weight
        self.pivots = {}
        self.full = False

    def dimension(self):
        return len(enumerate_monomials(self.weight))

    def rank(self):
        return len(self.pivots)

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
        if len(self.pivots) == self.dimension():
            self.full = True
        return dict(row)

    def sorted_rows(self):
        """The rational RREF rows (pivot coefficient 1), leading pivot
        first."""
        return [_monic(self.pivots[piv], piv) for piv in sorted(self.pivots, reverse=True)]


def _primitive(vec, piv):
    """A nonzero integer vector divided by the gcd of its coefficients,
    signed so that its coefficient at piv is positive.  A non-integer
    coefficient raises TypeError (from gcd)."""
    content = gcd(*vec.values())
    if vec[piv] < 0:
        content = -content
    return {m: c // content for m, c in vec.items()}


def _monic(row, piv):
    """A row divided by its coefficient at piv."""
    lead = row[piv]
    return {m: qdiv(c, lead) for m, c in row.items()}


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
        if not isinstance(genus, int) or genus < 2:
            raise InvalidGenus("genus must be an integer >= 2, got %r" % (genus,))
        ideal = cls(genus, [_Space(w) for w in range(genus + 1)])
        descent = descent_op(LieContext(genus, genus + 1))
        # Descent and products out of weights above genus+1 only land in
        # weights above the genus, so the queue starts at genus+1.
        queue = deque((genus + 1, {m: 1}) for m in enumerate_monomials(genus + 1))
        while queue:
            w, vec = queue.popleft()
            for target, image, _var in ideal._images(descent, w, vec):
                row = ideal.spaces[target].insert(image)
                if row is not None:
                    queue.append((target, row))
        ideal.check_stability()
        return ideal

    def _images(self, descent, w, row):
        """The images of a relation row of weight w that must again be
        relations, as (target weight, vector, variable): its descent
        (variable None), and its product with each variable up to weight
        g.  Targets that are already full are skipped."""
        spaces = self.spaces
        if w >= 1 and not spaces[w - 1].full:
            yield w - 1, descent.apply(Poly(row)).terms, None
        for idx in range(1, self.genus - w + 1):
            for kind in (P_KIND, Q_KIND):
                if not spaces[w + idx].full:
                    var = ((idx, kind, 1),)
                    yield w + idx, {mono_mul(m, var): c for m, c in row.items()}, var

    # -- queries ---------------------------------------------------------

    def normal_form(self, f):
        """Unique reduction of f modulo the stored bases, with every
        weight above the genus sent to 0; idempotent and linear, and
        f - normal_form(f) always lies in the ideal."""
        out = {}
        for w, comp in f.weight_components().items():
            if w <= self.genus:
                red, scale = self.spaces[w].reduce(comp.terms)
                if scale != 1:
                    red = {m: qdiv(c, scale) for m, c in red.items()}
                out.update(red)
        return Poly(out)

    def contains(self, f):
        """Membership in the derived ideal (graded reduction to zero)."""
        return self.normal_form(f).is_zero()

    def _space(self, w):
        """The stored space of weight w, or None above the genus, where
        every monomial is a relation."""
        if w < 0:
            raise InvalidParameter("weight must be >= 0, got %r" % (w,))
        return self.spaces[w] if w <= self.genus else None

    def quotient_dimension(self, w):
        space = self._space(w)
        return 0 if space is None else space.dimension() - space.rank()

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
        return [m for m in enumerate_monomials(w) if m not in space.pivots]

    # -- structural checks -------------------------------------------------

    def check_stability(self):
        """Assert closure under descent and under multiplication by every
        variable.  Weights above the genus are all relations, so the only
        check that reaches them is that descent sends every weight-(g+1)
        monomial into the ideal."""
        g = self.genus
        descent = descent_op(LieContext(g, g + 1))
        top = [{m: 1} for m in enumerate_monomials(g + 1)]
        for w in range(g + 2):
            for row in top if w > g else self.spaces[w].pivots.values():
                for target, image, var in self._images(descent, w, row):
                    if not self.spaces[target].reduce(image)[0]:
                        continue
                    if var is None:
                        identity, params = "descent stability", {"weight": w}
                    else:
                        identity = "ideal stability"
                        params = {"weight": w, "times": mono_str(var)}
                    self._unstable(identity, params, _monic(row, max(row)))

    def _unstable(self, identity, params, row):
        raise VerificationFailure(
            report_entry(
                identity, params, self.genus, self.genus + 1, "fail", str(Poly(row))
            )
        )

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        weights = []
        for w, space in enumerate(self.spaces):
            relations = [
                [
                    {"monomial": mono_str(m), "coeff": str(c)}
                    for m, c in sorted(row.items(), reverse=True)
                ]
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

    def to_json(self, indent=None):
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json_dict(cls, data):
        """Inverse of :meth:`to_json_dict`.  Raises ValueError (or
        KeyError/TypeError/AttributeError) on any malformed payload: one
        block per weight 0..g, in order, whose pivot-normalized rows name
        monomials of that weight in canonical text and meet the block's
        pivots only at their own."""
        if not isinstance(data, dict):
            raise ValueError("ideal payload is not a JSON object")
        if data.get("format-version") != FORMAT_VERSION:
            raise ValueError("unsupported format-version %r" % (data.get("format-version"),))
        if data.get("monomial_order") != MONOMIAL_ORDER_ID:
            raise ValueError("unsupported monomial order %r" % (data.get("monomial_order"),))
        genus = data["genus"]
        if not isinstance(genus, int) or genus < 2:
            raise ValueError("bad genus %r" % (genus,))
        blocks = data["weights"]
        if not isinstance(blocks, list) or [b["w"] for b in blocks] != list(range(genus + 1)):
            raise ValueError("weights must be one block per weight 0..%d" % genus)
        spaces = [_Space(w) for w in range(genus + 1)]
        for block, space in zip(blocks, spaces):
            names = {mono_str(m): m for m in enumerate_monomials(space.weight)}
            pivots = space.pivots
            for rel in block["relations"]:
                piv, row = _decode_row(rel, names)
                if piv in pivots:
                    raise ValueError("two relation rows share the pivot %s" % mono_str(piv))
                pivots[piv] = row
            for piv, row in pivots.items():
                if any(m in pivots for m in row if m != piv):
                    raise ValueError("relation rows of weight %d are not in RREF" % space.weight)
            if space.rank() != space.dimension() - block["quotient_dim"]:
                raise ValueError("inconsistent quotient dimension at weight %d" % space.weight)
            space.full = space.rank() == space.dimension()
        return cls(genus, spaces)

    def __repr__(self):
        return "RelationIdeal(genus=%d, dims=%s)" % (self.genus, self.quotient_dims())


def _decode_row(rel, names):
    """(pivot, primitive integer row) of one stored relation, given the
    name table of its weight.  Raises ValueError on a monomial outside
    the table (another weight, or non-canonical text), a repeated
    monomial, a zero or malformed "num/den" coefficient, or a pivot
    coefficient other than 1."""
    ratios = {}
    for term in rel:
        m = names.get(term["monomial"])
        if m is None:
            raise ValueError("monomial %r is not canonical of this weight" % (term["monomial"],))
        num, sep, den = term["coeff"].partition("/")
        num, den = int(num), int(den) if sep else 1
        if not num or den < 1 or m in ratios:
            raise ValueError("bad relation term %r" % (term,))
        ratios[m] = num, den
    piv = max(ratios)
    if ratios[piv] != (1, 1):
        raise ValueError("relation row is not pivot-normalized")
    scale = lcm(*[den for _num, den in ratios.values()])
    row = {m: num * (scale // den) for m, (num, den) in ratios.items()}
    return piv, _primitive(row, piv)

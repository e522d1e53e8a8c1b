"""Independent oracles and random generators shared by the test suite.

The enumeration and counting oracles here deliberately use different
algorithms from the package (integer partitions glued pairwise instead
of a recursive descent over variables), so agreement is meaningful.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, factorial, inf, lcm, prod

from tautjac import ideal as ideal_module
from tautjac.errors import IndexZeroError, ParseError, WindowExceeded, report_entry
from tautjac.lie import LieContext, _index_multisets, density_op, descent_op, field_op
from tautjac.operators import Operator, mul_op, term_weight_shift
from tautjac.parse import _TOKEN, _tokenize
from tautjac.poly import (
    P_KIND,
    Q_KIND,
    Poly,
    enumerate_monomials,
    mono_mul,
    mono_sdeg,
    mono_weight,
    norm_coeff,
    p,
    q,
    qdiv,
    var_from_name,
    variable,
)


def mono_pdeg(m):
    return sum(e for _i, k, e in m if k == P_KIND)


def mono_qdeg(m):
    return sum(e for _i, k, e in m if k == Q_KIND)


def mono_from_exponents(pairs):
    """Build a monomial from ``(var, exponent)`` pairs; repeated
    variables accumulate."""
    acc = {}
    for (index, kind), e in pairs:
        if e < 0:
            raise ValueError("negative exponent in monomial")
        if e:
            acc[(index, kind)] = acc.get((index, kind), 0) + e
    entries = sorted(((i, k, e) for (i, k), e in acc.items()), reverse=True)
    return tuple(entries)


def mono_from_str(text):
    """Inverse of ``mono_str`` for well-formed factors like "p1^2*q3"."""
    if text == "1":
        return ()
    pairs = []
    for chunk in text.split("*"):
        name, _, exp = chunk.partition("^")
        pairs.append((var_from_name(name), int(exp or 1)))
    return mono_from_exponents(pairs)


def equal_within(a, b, w):
    """Exact term agreement of two operators up to partial index-sum w
    (equivalently, agreement of apply on every polynomial of weight
    <= w); WindowExceeded when w is past either window."""
    for win in (a.window, b.window):
        if w > win:
            raise WindowExceeded(w, win)
    mine = {k: c for k, c in a.terms.items() if mono_weight(k[1]) <= w}
    theirs = {k: c for k, c in b.terms.items() if mono_weight(k[1]) <= w}
    return mine == theirs


@lru_cache(maxsize=None)
def partitions(n):
    """All integer partitions of n as descending tuples."""
    if n == 0:
        return ((),)
    out = []
    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, prefix + [part])
    rec(n, n, [])
    return tuple(out)


def partition_count(n):
    return len(partitions(n))


def brute_force_monomials(w):
    """Oracle: every monomial of weight w, as a pair of partitions (one
    for the p-variables, one for the q-variables)."""
    monos = set()
    for k in range(w + 1):
        for lam in partitions(k):
            for mu in partitions(w - k):
                pairs = [((i, P_KIND), 1) for i in lam]
                pairs += [((i, Q_KIND), 1) for i in mu]
                monos.add(mono_from_exponents(pairs))
    return monos


def brute_force_count(w):
    """Independent recursive counter: multisets of (kind, index) pairs
    with index sum w."""
    return sum(
        partition_count(k) * partition_count(w - k) for k in range(w + 1)
    )


def random_poly(rng, max_index=3, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        pairs = [
            ((rng.randint(1, max_index), rng.choice((P_KIND, Q_KIND))),
             rng.randint(1, max_exp))
            for _ in range(rng.randint(0, 3))
        ]
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        terms[mono_from_exponents(pairs)] = coeff
    return Poly(terms)


def random_operator(rng, max_index=3, max_terms=3):
    """A finite random operator; being finite it is exact at every
    weight (window inf)."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mult_pairs = [
            ((rng.randint(1, max_index), rng.choice((P_KIND, Q_KIND))), 1)
            for _ in range(rng.randint(0, 2))
        ]
        part_pairs = [
            ((rng.randint(1, max_index), rng.choice((P_KIND, Q_KIND))), 1)
            for _ in range(rng.randint(0, 2))
        ]
        key = (mono_from_exponents(mult_pairs), mono_from_exponents(part_pairs))
        terms[key] = terms.get(key, 0) + rng.randint(-4, 4)
    return Operator(terms)


def seeded(seed):
    return random.Random(seed)


def residual_oracle(x, y, rhs, fallback):
    """Oracle for ``lie._residual`` by operator arithmetic: the genus
    parts of [X, Y] summed from whole part commutators, minus each c*Z,
    each part truncated to the smallest part-commutator window (or
    ``fallback``)."""
    res, windows = [Operator.zero()] * (len(x) + len(y) - 1), []
    for i, u in enumerate(x):
        for k, v in enumerate(y):
            if u.terms and v.terms:
                bracket = u.commutator(v)
                windows.append(bracket.window)
                res[i + k] = res[i + k] + bracket
    for c, z in rhs:
        for k, part in enumerate(z):
            if c and part.terms:
                res[k] = res[k] - c * part
    finite = [w for w in windows if w != inf]
    w = max(min(finite), 0) if finite else fallback
    return [r.truncated(w) for r in res], w


def index_multisets_oracle(count, cap):
    """Oracle for ``lie._index_multisets``: the non-increasing ``count``-tuples
    of indices cap..1 with sum <= cap, from ``combinations_with_replacement``
    (which yields them in descending lexicographic order), as (p-monomial,
    index sum, product of the index factorials, distinct orderings)."""
    found = []
    for indices in combinations_with_replacement(range(cap, 0, -1), count):
        if sum(indices) <= cap:
            mults = Counter(indices)
            mono = tuple((i, P_KIND, e) for i, e in sorted(mults.items(), reverse=True))
            orderings = factorial(count) // prod(factorial(e) for e in mults.values())
            found.append((mono, sum(indices), prod(map(factorial, indices)), orderings))
    return found


def member_oracle(family, m, n, window):
    """Oracle for the genus parts (A, B) of ``lie._BUILDERS[family](m, n, ..)``
    at ``window``: the constructors as they summed their terms before the
    per-process variable and partial tables, with tuple variables,
    ``mono_mul`` and ``mono_weight``.  It reads the package's multiset
    table, which ``index_multisets_oracle`` checks, so that members of
    large m stay in reach."""
    W = window
    zero = (Operator.zero(), Operator.zero())
    pvar, qvar = (lambda i: ((i, P_KIND, 1),)), (lambda i: ((i, Q_KIND, 1),))

    def add(terms, key, c):
        terms[key] = terms.get(key, 0) + c

    def shifts_are(shift, *ops):
        return all(mono_weight(mult) - mono_weight(parts) == shift
                   for op in ops for mult, parts in op.terms)

    if family == "descent":
        terms = {}
        for m in range(1, W + 1):
            for n in range(1, W - m + 1):
                add(terms, (pvar(m + n - 1), mono_mul(pvar(m), pvar(n))),
                    Fraction(1, 2) * comb(m + n, n))
                add(terms, (qvar(m + n - 1), mono_mul(qvar(m), pvar(n))), comb(m + n - 1, n))
        for n in range(2, W + 1):
            add(terms, (qvar(n - 1), pvar(n)), -1)
        return Operator(terms, W), Operator({((), pvar(1)): -1}, W)
    if family == "raw_field":
        base = member_oracle("field", m, n, W)
        if m * n == 0:
            return base
        dens = member_oracle("density", m - 1, n - 1, W)
        return tuple(f + (m * n) * d for f, d in zip(base, dens))
    sign = -1 if m % 2 else 1
    if family == "density":
        if m < 0 or n < 0:
            return zero
        if m == 0:
            return (Operator.zero(), Operator.identity()) if n == 0 else (
                mul_op(factorial(n) * q(n)), Operator.zero())
        terms = {}
        for parts_mono, s, denom, orderings in _index_multisets(m, W):
            add(terms, (qvar(n + s), parts_mono), sign * orderings * (factorial(n + s) // denom))
        a = Operator(terms, W)
        assert shifts_are(n, a)
        return a, Operator.zero()
    assert family == "field", family
    if m < 0 or n < 0 or m + n < 2:
        return zero
    if m == 0:
        return mul_op(factorial(n) * p(n - 1)), Operator.zero()
    terms, gterms = {}, {}
    for parts_mono, s, denom, orderings in _index_multisets(m, W):
        add(terms, (pvar(n + s - 1), parts_mono), sign * orderings * (factorial(n + s) // denom))
    for base, si, denom, orderings in _index_multisets(m - 1, W - 1):
        for j in range(1, W - si + 1):
            c = sign * m * orderings * (factorial(n + si + j - 1) // (denom * factorial(j - 1)))
            add(terms, (qvar(n + si + j - 1), mono_mul(base, qvar(j))), c)
    if m == 1:
        if n == 1:
            gterms[((), ())] = 1
        else:
            add(terms, (qvar(n - 1), ()), factorial(n))
    else:
        for parts_mono, s, denom, orderings in _index_multisets(m - 1, W):
            c = -sign * m * orderings * (factorial(n + s) // denom)
            idx = n + s - 1
            add(gterms if idx == 0 else terms, (qvar(idx) if idx else (), parts_mono), c)
    a, b = Operator(terms, W), Operator(gterms, W)
    assert shifts_are(n - 1, a, b)
    return a, b


def pack_oracle(term):
    """Oracle for the packing of a term in ``Operator._lazy("packed")``, one
    variable at a time: the exponent of (i, k) in byte 2v of the multiplier
    and byte 2v + 1 of the partials, with v = 2(i - 1) + (k == 'q'), as
    (partial index-sum, term code)."""
    codes = [0, 0]
    for side, mono in enumerate(term):
        for i, k, e in mono:
            v = 2 * (i - 1) + (k == Q_KIND)
            codes[side] |= e << 8 * (2 * v + side)
    return sum(i * e for i, _k, e in term[1]), codes[0] | codes[1]


def hits_oracle(op):
    """Oracle for ``Operator._lazy("hits")``, one variable at a time: each
    sub-multiset (hit) of each multiplier is a choice of how many factors
    of each variable to take, and each hit size n maps the hit's code to
    the sorted [(partial index-sum, code of the term without the hit,
    coeff times the falling factorials)], codes from ``pack_oracle``."""
    tables = {}
    for (mult, parts), c in op.terms.items():
        for picks in product(*(range(e + 1) for _i, _k, e in mult)):
            hit = tuple((i, k, j) for (i, k, _e), j in zip(mult, picks) if j)
            rest = tuple((i, k, e - j) for (i, k, e), j in zip(mult, picks) if j < e)
            fall = prod(factorial(e) // factorial(e - j) for (_i, _k, e), j in zip(mult, picks))
            hit_code = pack_oracle((hit, ()))[1]
            table = tables.setdefault(sum(picks), {})
            table.setdefault(hit_code, []).append((*pack_oracle((rest, parts)), c * fall))
    return [{hit: sorted(entries) for hit, entries in tables.get(n, {}).items()}
            for n in range(max(tables, default=0) + 1)]


def weight_shifts(op):
    """The distinct weight shifts of an operator's terms, ascending."""
    return sorted({term_weight_shift(k) for k in op.terms})


def all_monomials_up_to(w):
    for weight in range(w + 1):
        for m in enumerate_monomials(weight):
            yield Poly.monomial(m)


def mono_diff(m, parts):
    """Differentiate monomial ``m`` by the multiset ``parts`` (itself a
    monomial).  Returns ``(integer factor, reduced monomial)`` or None
    when some variable of ``parts`` is missing from ``m``."""
    if not parts:
        return 1, m
    have = dict(((i, k), e) for i, k, e in m)
    factor = 1
    for i, k, e in parts:
        cur = have.get((i, k), 0)
        if cur < e:
            return None
        for _ in range(e):
            factor *= cur
            cur -= 1
        if cur:
            have[(i, k)] = cur
        else:
            del have[(i, k)]
    out = sorted(((i, k, e) for (i, k), e in have.items()), reverse=True)
    return factor, tuple(out)


def leibniz_apply(op, f):
    """Oracle for Operator.apply: every (monomial, term) pair of f and
    op, each term differentiating the monomial by its partials
    directly, without the operator's sub-multiset table."""
    w = f.max_weight()
    if w > op.window:
        raise WindowExceeded(w, op.window)
    out = {}
    terms = op.terms
    for m, c in f.terms.items():
        for (mult, parts), oc in terms.items():
            d = mono_diff(m, parts)
            if d is None:
                continue
            factor, reduced = d
            res = mono_mul(mult, reduced)
            out[res] = out.get(res, 0) + c * oc * factor
    return Poly(out)


class ApplyOracle:
    """Oracle for products and commutators on polynomials through
    leibniz_apply alone: a(b(f)) - b(a(f)).  Images of monomials are
    memoized per operator, so sweeping many pairs applies each operator
    once per monomial."""

    def __init__(self):
        self._images = {}  # (id(op), monomial) -> (op, image)

    def apply(self, op, f):
        out = {}
        for m, c in f.terms.items():
            key = (id(op), m)
            if key not in self._images:
                self._images[key] = (op, leibniz_apply(op, Poly.monomial(m)))
            for m2, c2 in self._images[key][1].terms.items():
                out[m2] = out.get(m2, 0) + c * c2
        return Poly(out)

    def commutator(self, a, b, f):
        return self.apply(a, self.apply(b, f)) - self.apply(b, self.apply(a, f))


class NotNilpotent(Exception):
    """exp_apply cannot guarantee that its series terminates."""


def minus_one_pullback(f):
    """Pullback along the inversion of the group: each (w, s)-component
    is scaled by (-1)**s."""
    return Poly({m: -c if mono_sdeg(m) % 2 else c for m, c in f.terms.items()})


def exp_apply(op, f, ideal=None):
    """Apply exp(op) = sum op^k / k! to a polynomial, reducing to normal
    form after each step when an ideal is supplied.

    Termination is guaranteed statically: every term of ``op`` must
    either lower weight, raise weight (allowed only over a quotient,
    where weights above the genus die), or preserve weight while
    strictly lowering the p-degree.  Mixing weight-raising and
    weight-lowering terms is rejected.
    """
    raises = lowers = False
    for mult, parts in op.terms:
        shift = term_weight_shift((mult, parts))
        if shift > 0:
            raises = True
        elif shift < 0:
            lowers = True
        else:
            pdrop = sum(e for _i, k, e in mult if k == P_KIND) - sum(
                e for _i, k, e in parts if k == P_KIND)
            if pdrop >= 0:
                raise NotNilpotent("operator has a weight-preserving term that does not "
                                   "lower the p-degree; exp would not terminate")
    if raises and lowers:
        raise NotNilpotent("operator mixes weight-raising and weight-lowering terms")
    if raises and ideal is None:
        raise NotNilpotent("weight-raising exponential terminates only on a quotient; "
                           "supply a relation ideal")
    reduce = ideal.normal_form if ideal is not None else (lambda x: x)
    current = reduce(f)
    total = current
    k = 1
    while current.terms:
        current = reduce(op.apply(current)) / k
        total = total + current
        k += 1
    return total


def series_transform(ideal, f):
    """Oracle for FourierMap.transform: S(f) = exp(e) exp(D) exp(e) f
    by the three exponential series, reducing after every step."""
    raising = mul_op(p(1))
    descent = descent_op(LieContext(ideal.genus, ideal.genus))
    out = exp_apply(raising, f, ideal)
    out = exp_apply(descent, out, ideal)
    return exp_apply(raising, out, ideal)


def pontryagin_oracle(ideal, a, b):
    """Oracle for FourierMap.pontryagin: S^-1(S(a) S(b)) by the series
    transform, the full product of the two images (every weight kept
    until the next reduction) and S^-1 = (-1)^g [-1]^* S."""
    sign = -1 if ideal.genus % 2 else 1
    product = series_transform(ideal, a) * series_transform(ideal, b)
    return sign * minus_one_pullback(series_transform(ideal, product))


def pontryagin_uncut(fmap, a, b):
    """Oracle for the cut in FourierMap.pontryagin: S^-1(S(a) S(b)) from
    the map's own transform and inverse, every term pair of the two
    images multiplied and the product reduced by the inverse."""
    return fmap.inverse(fmap.transform(a) * fmap.transform(b))


def images(fmap):
    """S on the quotient basis, rationally: basis monomial -> its
    transform, in quotient_basis order."""
    return {m: fmap.transform(Poly.monomial(m)) for _w, _s, m in fmap.quotient_basis()}


def by_monomial(fmap, scaled):
    """A FourierMap's (scale, column map over quotient-basis positions) with
    every position named by its basis monomial."""
    names = [m for _w, _s, m in fmap.quotient_basis()]
    scale, columns = scaled
    return scale, {names[b]: {names[d]: c for d, c in col.items()} for b, col in columns.items()}


def s_column(fmap, mono):
    """The column of S at a basis monomial, over basis monomials."""
    return by_monomial(fmap, fmap._s_map)[1][mono]


def _planted(fmap, scaled, mono, column):
    """A copy of a (scale, column map) with the column at a basis monomial
    replaced by ``column``, given over basis monomials."""
    position = {m: b for b, (_w, _s, m) in enumerate(fmap.quotient_basis())}
    scale, columns = scaled
    return scale, {**columns, position[mono]: {position[d]: c for d, c in column.items()}}


def plant_column(fmap, mono, column):
    """A planted fault: the column of S at a basis monomial replaced, in
    the integer map of a FourierMap."""
    fmap._s_map = _planted(fmap, fmap._s_map, mono, column)


def plant_member_column(fmap, family, m, n, mono, column):
    """A planted fault: the column of op(m, n) of a family at a basis
    monomial replaced, in the member's integer map of a FourierMap."""
    key = (family, m, n)
    fmap._members[key] = _planted(fmap, fmap._member_columns(*key), mono, column)


def columns_oracle(fmap, op):
    """Oracle for FourierMap._columns with no skip and no pivot test:
    every basis monomial's ``image_codes``, named by ``pack_oracle``
    codes, through ``ideal.reduce``, then in lowest terms over Fractions
    (the common denominator is the lcm of the entries' own), over basis
    monomials."""
    names = {pack_oracle((m, ()))[1]: m for w in range(fmap.genus + 1) for m in enumerate_monomials(w)}
    rational = {}
    for _w, _s, b in fmap.quotient_basis():
        image = op.image_codes(b)
        vec, div = fmap.ideal.reduce({names[k]: c for k, c in image.items() if k in names})
        rational[b] = {d: Fraction(c, div) for d, c in vec.items()}
    scale = lcm(1, *(x.denominator for col in rational.values() for x in col.values()))
    return scale, {b: {d: int(x * scale) for d, x in col.items()} for b, col in rational.items()}


def basis_law_oracle(fmap):
    """Oracle for FourierMap.check_s2 and check_degree_law: the failing
    entries of both laws (S^2 entries, degree-law entries) from the
    rational images, with S^2(b) as the Fraction combination of the
    images over S(b), as both checks were computed before the integer
    column forms."""
    g, window = fmap.genus, fmap.ctx.window
    sign = -1 if g % 2 else 1
    s2, degree = [], []
    columns = images(fmap)
    for m, img in columns.items():
        w, s, b = mono_weight(m), mono_sdeg(m), Poly.monomial(m)
        params = {"weight": w, "sdeg": s, "monomial": str(b)}
        square = {}
        for d, c in img.terms.items():
            for d2, c2 in columns[d].terms.items():
                square[d2] = square.get(d2, 0) + c * c2
        diff = Poly(square) - sign * minus_one_pullback(b)
        if diff:
            s2.append(report_entry("S^2 = (-1)^g [-1]^*", params, g, window, "fail", str(diff)))
        keys = set(img.graded())
        if not keys <= {(g - w + s, s)}:
            degree.append(report_entry(
                "S is bigraded (w,s) -> (g-w+s,s)", params, g, window, "fail",
                "components %s" % sorted(keys),
            ))
    return s2, degree


def conjugation_oracle(fmap, m, n, family, planted=None):
    """Oracle for FourierMap.verify_conjugation by the direct formula of
    the identity it checks, S op(m,n) = (-1)^n op(n,m) S: transform of
    op(m,n) b against (-1)^n times the normal form of op(n,m) of
    transform(b), basis element by basis element, with no column maps.
    ``planted`` = ((m', n'), monomial, image) acts as a planted fault:
    that member sends that basis monomial to ``image``.  Returns the
    report entry: the first failure, or the pass, ``vacuous`` when both
    members send every basis element into the ideal."""
    ctor = {"field": field_op, "density": density_op}[family]
    op, flipped = ctor(m, n, fmap.ctx), ctor(n, m, fmap.ctx)
    sign = -1 if n % 2 else 1
    name = "S %s(%d,%d) S^-1 = %s%s(%d,%d)" % (
        family, m, n, "-" if sign < 0 else "", family, n, m
    )

    def act(indices, member, f):
        out = member.apply(f)
        if planted and planted[0] == indices:
            _indices, mono, image = planted
            out = out + f.terms.get(mono, 0) * (image - member.apply(Poly.monomial(mono)))
        return fmap.ideal.normal_form(out)

    basis = fmap.quotient_basis()
    for _w, _s, mono in basis:
        b = Poly.monomial(mono)
        left = fmap.transform(act((m, n), op, b))
        right = sign * act((n, m), flipped, fmap.transform(b))
        if left != right:
            params = {"monomial": str(b), "weight": mono_weight(mono)}
            return report_entry(name, params, fmap.genus, fmap.ctx.window, "fail", str(left - right))
    params = {"basis_size": len(basis)}
    vanish = all(fmap.ideal.contains(x.apply(Poly.monomial(mono)))
                 for x in (op, flipped) for _w, _s, mono in basis)
    status = "vacuous" if vanish else "ok"
    return report_entry(name, params, fmap.genus, fmap.ctx.window, status)


class FractionSpace:
    """Oracle for the relation ideal's graded spaces: RREF over exact
    rationals, every row normalized to pivot coefficient 1 and each
    pivot eliminated in turn, with no integer rows or common scale."""

    def __init__(self):
        self.pivots = {}

    def reduce(self, vec):
        work = dict(vec)
        pivots = self.pivots
        for m in sorted(vec, reverse=True):
            c = work.get(m)
            if not c or m not in pivots:
                continue
            for mm, cc in pivots[m].items():
                nc = norm_coeff(work.get(mm, 0) - c * cc)
                if nc:
                    work[mm] = nc
                else:
                    work.pop(mm, None)
        return work

    def insert(self, vec):
        red = self.reduce(vec)
        if not red:
            return None
        piv = max(red)
        lead = red[piv]
        row = {m: qdiv(c, lead) for m, c in red.items()}
        for other in self.pivots.values():
            oc = other.get(piv)
            if oc:
                for m, c in row.items():
                    nc = norm_coeff(other.get(m, 0) - oc * c)
                    if nc:
                        other[m] = nc
                    else:
                        other.pop(m, None)
        self.pivots[piv] = row
        return dict(row)

    def sorted_rows(self):
        return [self.pivots[piv] for piv in sorted(self.pivots, reverse=True)]


@lru_cache(maxsize=None)
def ascending_monomials(w):
    """Oracle for the ideal's monomial indices: the monomials of weight
    w sorted ascending (tuple order is the canonical term order), so a
    monomial's index is its position."""
    return tuple(sorted(brute_force_monomials(w)))


def named(w, row):
    """An index-keyed row of weight w as a map from monomials."""
    mons = ascending_monomials(w)
    return {mons[i]: c for i, c in row.items()}


def build_with_fraction_oracle(genus):
    """Build the genus-g relation ideal while feeding every vector its
    closure inserts, in order, to one FractionSpace per weight, keyed by
    monomials; returns (ideal, oracle spaces of weights 0..g)."""
    spaces = [FractionSpace() for _ in range(genus + 1)]
    insert = ideal_module._Space.insert

    def spy(space, vec):
        spaces[space.weight].insert(named(space.weight, vec))
        return insert(space, vec)

    ideal_module._Space.insert = spy
    try:
        ideal = ideal_module.RelationIdeal.build(genus)
    finally:
        ideal_module._Space.insert = insert
    return ideal, spaces


def fraction_normal_form(spaces, f):
    """Oracle for RelationIdeal.normal_form over FractionSpaces of
    weights 0..g: every heavier weight is sent to zero."""
    out = {}
    for w, comp in weight_components(f).items():
        if w < len(spaces):
            out.update(spaces[w].reduce(comp))
    return Poly(out)


def weight_components(f):
    """Split a polynomial by weight alone: a map weight -> terms."""
    buckets = {}
    for m, c in f.terms.items():
        buckets.setdefault(mono_weight(m), {})[m] = c
    return dict(sorted(buckets.items()))


_MINUS = "−"  # accepted alias for '-'


def tokenize_oracle(src):
    """The expression scanner as a character loop with explicit cursors;
    ``tautjac.parse._tokenize`` must give the same tokens and errors."""
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


class _ParserOracle:
    def __init__(self, src):
        self.src = src
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
            # an integer literal: a NUMBER token read with no '/' (6/2 is not one)
            if tok[0] != "number" or _TOKEN.match(self.src, tok[2])[3] is not None:
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


def parse_oracle(src):
    """The expression parser with its own peek and advance, as it stood
    before one ``take`` primitive replaced them: ``tautjac.parse.parse_poly``
    must give the same value or the same error."""
    return _ParserOracle(src).parse()

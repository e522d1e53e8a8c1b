"""Constructors for the operator families acting on the ring Q[p, q].

At a fixed genus g the engine realizes, as truncated normal-ordered
differential operators:

* the second-order *descent* operator

      D = 1/2 sum C(m+n, n) p_{m+n-1} d(p_m) d(p_n)
        +     sum C(m+n-1, n) q_{m+n-1} d(q_m) d(p_n)
        -     sum q_{n-1} d(p_n)            (q_0 meaning the scalar g),

  which lowers weight by one and preserves the relation ideal;

* the doubly indexed family ``field(m, n)`` spanning a copy of the Lie
  algebra of polynomial Hamiltonian vector fields on the plane that
  vanish at the origin, with brackets

      [field(m,n), field(m',n')] = (nm' - mn') field(m+m'-1, n+n'-1);

* the commuting family ``density(m, n)`` forming a module over it:

      [field(m,n), density(m',n')] = (nm' - mn') density(m+m'-1, n+n'-1),
      [density, density] = 0;

* the sl2 triple e (multiplication by p1), f = -D, and
  h = sum_n ((n+1) p_n d(p_n) + n q_n d(q_n)) - g, which acts on a
  (weight w, s-degree s) monomial by 2w - s - g and equals -field(1,1).

Wherever a formula would produce the symbol q0 the genus scalar g is
substituted, so the operators and all brackets stay inside Q.  That is
the only way the genus enters: each member is built once per window as
A + g*B with A and B free of g, and B is nonzero only for the descent
operator (B = -d(p1)), field(1,1) (B = id), field(2,0) (B = -2 d(p1))
and density(0,0) (B = id).  The public constructors return A + g*B at
the context's genus.  D is built as half of field(2, 0).

The constructors read tables built once per process and shared by every
member and window: the index multisets the members are summed over, each
one-variable monomial with its weight, and each partial base * q_j with
its weight.  A member is built in one pass over its terms, each set
once to a nonzero int, so the operator adopts that term map as it is,
with no cleaning copy.  The shift law is checked there, on every field
and density member built (and so on D): each term's multiplier weight
minus its partials' weight, both read from the tables, must be the
member's weight shift.

Every bracket identity [X, Y] = sum c*Z takes one path: the residual
parts R0 + g*R1 + g^2*R2 of [X, Y] - sum c*Z are summed in place, one
term dict per power of g, from the genus parts of the operands, up to
a cut fixed before any sum (the smallest part-commutator window), and
evaluated at each genus.  A residual whose terms all cancel, as in every
identity that holds, is never decoded: its difference at every genus is
one shared zero operator.  A linear identity such as
h = -field(1,1) is an operator sum.  The grading laws are read off the
terms: a normal-ordered term M d(P) shifts (weight, s-degree) by
(w(M) - w(P), s(M) - s(P)).
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, inf
from weakref import WeakValueDictionary

from .errors import InvalidParameter, VerificationFailure, check_genus, check_int, report_entry
from .operators import Operator, _commute_window, _decoded, mul_op, term_weight_shift
from .poly import (
    MONO_ONE,
    P_KIND,
    Q_KIND,
    Poly,
    mono_mul,
    mono_sdeg,
    mono_weight,
    p,
    q,
)


def _check_context(genus, window):
    check_genus(genus)
    check_int(window, 1, "window must be a positive integer, got %r")


class LieContext:
    """Fixed genus (>= 2) and truncation window for the constructors.

    The genus parts of each member are memoized per window and shared
    by every live context and bracket sweep at that window.
    """

    __slots__ = ("genus", "window", "_parts")

    def __init__(self, genus, window):
        _check_context(genus, window)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "_parts", _genus_parts(window))

    def __setattr__(self, name, value):
        raise AttributeError("LieContext is immutable")

    def __repr__(self):
        return "LieContext(genus=%d, window=%d)" % (self.genus, self.window)


@lru_cache(maxsize=None)
def _index_multisets(count, cap, largest=None):
    """The multisets of ``count`` positive indices, none above ``largest``,
    with index sum <= cap, as (p-monomial, index sum, product of the index
    factorials, number of distinct orderings); one table per process."""
    if count == 0:
        return ((MONO_ONE, 0, 1, 1),)
    largest = cap if largest is None else largest
    found = []
    for first in range(min(largest, cap - count + 1), 0, -1):
        for rest, s, denom, orderings in _index_multisets(count - 1, cap - first, first):
            if rest and rest[0][0] == first:
                e = rest[0][2] + 1
                mono = ((first, P_KIND, e),) + rest[1:]
            else:
                e = 1
                mono = ((first, P_KIND, 1),) + rest
            found.append((mono, s + first, denom * factorial(first), orderings * count // e))
    return tuple(found)


@lru_cache(maxsize=None)
def _variable(kind, i):
    """The monomial of the one variable (i, kind) and its weight; one table
    per process."""
    mono = ((i, kind, 1),)
    return mono, mono_weight(mono)


@lru_cache(maxsize=None)
def _q_partials(count, cap):
    """The partials base * q_j of weight <= cap, base running over
    ``_index_multisets(count, cap)`` and then j, as (monomial, its weight,
    base's factorial product times (j - 1)!, base's orderings); one table
    per process."""
    found = []
    for base, s, denom, orderings in _index_multisets(count, cap):
        for j in range(1, cap - s + 1):
            mono = mono_mul(base, _variable(Q_KIND, j)[0])
            found.append((mono, mono_weight(mono), denom * factorial(j - 1), orderings))
    return tuple(found)


class _GenusParts:
    """Every family member at one window as its genus-free parts (A, B),
    the member at genus g being A + g*B, memoized and shared by all
    genera."""

    __slots__ = ("window", "_memo", "__weakref__")

    def __init__(self, window):
        self.window = window
        self._memo = {}

    def __call__(self, family, m=0, n=0):
        key = (family, m, n)
        memo = self._memo
        if key not in memo:
            memo[key] = _BUILDERS[family](m, n, self)
        return memo[key]


# window -> the _GenusParts that every live context and sweep at that
# window shares; held weakly, so members are freed with their last user
_LIVE_PARTS = WeakValueDictionary()


def _genus_parts(window):
    return _LIVE_PARTS.setdefault(window, _GenusParts(window))


_ZERO = Operator.zero()  # the difference of every identity whose residual cancelled


def _at_genus(parts, genus):
    """sum genus^k * parts[k]: a member (A, B), or a bracket residual
    (R0, R1, R2), at one genus."""
    total = parts[0]
    for k, part in enumerate(parts[1:], 1):
        if part.terms:
            total = total + genus**k * part
    return total


def _descent_parts(_m, _n, parts):
    # D is half of field(2, 0), built from the same tables
    return tuple(Fraction(1, 2) * x for x in _field_parts(2, 0, parts))


def _field_parts(m, n, parts):
    if m < 0 or n < 0 or m + n < 2:
        return Operator.zero(), Operator.zero()
    if m == 0:
        return mul_op(factorial(n) * p(n - 1)), Operator.zero()
    W = parts.window
    sign = -1 if m % 2 else 1
    terms, gterms, shifts = {}, {}, set()
    # every term's partials are distinct, so each is set once
    for partials, s, denom, orderings in _index_multisets(m, W):
        mult, w = _variable(P_KIND, n + s - 1)
        terms[mult, partials] = sign * orderings * (factorial(n + s) // denom)
        shifts.add(w - s)
    for partials, s, denom, orderings in _q_partials(m - 1, W):
        mult, w = _variable(Q_KIND, n + s - 1)
        terms[mult, partials] = sign * m * orderings * (factorial(n + s - 1) // denom)
        shifts.add(w - s)
    for partials, s, denom, orderings in _index_multisets(m - 1, W):
        # q_{n+s-1}, with q0 -> g; at m = 1 this is the constant part n! q_{n-1}
        mult, w = _variable(Q_KIND, n + s - 1) if n + s > 1 else (MONO_ONE, 0)
        target = terms if mult else gterms
        target[mult, partials] = -sign * m * orderings * (factorial(n + s) // denom)
        shifts.add(w - s)
    if not shifts <= {n - 1}:
        raise AssertionError(shifts)
    return Operator._adopted(terms, W), Operator._adopted(gterms, W)


def _density_parts(m, n, parts):
    if m < 0 or n < 0:
        return Operator.zero(), Operator.zero()
    if m == 0:
        if n == 0:
            return Operator.zero(), Operator.identity()
        return mul_op(factorial(n) * q(n)), Operator.zero()
    sign = -1 if m % 2 else 1
    terms, shifts = {}, set()
    for partials, s, denom, orderings in _index_multisets(m, parts.window):
        mult, w = _variable(Q_KIND, n + s)
        terms[mult, partials] = sign * orderings * (factorial(n + s) // denom)
        shifts.add(w - s)
    if not shifts <= {n}:
        raise AssertionError(shifts)
    return Operator._adopted(terms, parts.window), Operator.zero()


def _raw_field_parts(k, n, parts):
    base = parts("field", k, n)
    dens = parts("density", k - 1, n - 1)
    return tuple(f + (k * n) * d for f, d in zip(base, dens))


_BUILDERS = {
    "descent": _descent_parts,
    "field": _field_parts,
    "density": _density_parts,
    "raw_field": _raw_field_parts,
}


def _member(ctx, family, m=0, n=0):
    """A family member at the context's genus: A + g*B; any int indices."""
    for index in (m, n):
        check_int(index, -inf, "a member index must be an int, got %r")
    return _at_genus(ctx._parts(family, m, n), ctx.genus)


def descent_op(ctx):
    """The weight-lowering second-order operator D, truncated to the
    context window; its weight shift is -1 on every term."""
    return _member(ctx, "descent")


def field_op(m, n, ctx):
    """The family member field(m, n); the zero operator unless
    m, n >= 0 and m + n >= 2.  Weight shift n - 1, s-degree shift
    n + m - 2.  field(0, n) is multiplication by n! p_{n-1} (exact,
    unbounded window); field(2, 0) equals twice the descent operator."""
    return _member(ctx, "field", m, n)


def density_op(m, n, ctx):
    """The commuting family member density(m, n); zero unless
    m, n >= 0.  Weight shift n, s-degree shift n + m.  density(0, n)
    is multiplication by n! q_n (with density(0, 0) = g * id)."""
    return _member(ctx, "density", m, n)


def raw_field_op(k, n, ctx):
    """The uncorrected field family: field(k, n) + k*n*density(k-1, n-1).

    Satisfies the mixed brackets
    [raw(k,n), raw(k',n')] = (nk' - n'k) raw(k+k'-1, n+n'-1)
      - 4 (C(n,2) C(k',2) - C(n',2) C(k,2)) density(k+k'-2, n+n'-2).
    """
    return _member(ctx, "raw_field", k, n)


Sl2 = namedtuple("Sl2", ["e", "f", "h"])


def _sl2_parts(parts):
    """Genus parts of the triple at the window of ``parts``: e = p1.,
    f = -D and h = sum_n ((n+1) p_n d(p_n) + n q_n d(q_n)) - g id."""
    W = parts.window
    h = {}
    for n in range(1, W + 1):
        h[(_variable(P_KIND, n)[0], _variable(P_KIND, n)[0])] = n + 1
        h[(_variable(Q_KIND, n)[0], _variable(Q_KIND, n)[0])] = n
    return Sl2(
        (mul_op(p(1)),),
        tuple(-x for x in parts("descent")),
        (Operator(h, W), -Operator.identity()),
    )


def sl2_triple(ctx):
    """The triple (e, f, h): e = multiplication by p1 (exact), f = -D,
    h acting on a (w, s) monomial by 2w - s - g (equal to -field(1,1))."""
    return Sl2(*(_at_genus(x, ctx.genus) for x in _sl2_parts(ctx._parts)))


def cartan_eigenvalue(weight, sdeg, genus):
    return 2 * weight - sdeg - genus


# ---------------------------------------------------------------------------
# Identity verification sweeps
# ---------------------------------------------------------------------------

BRACKET_KINDS = ("field_field", "field_density", "density_density")

# bracket kind -> (family of both operands' names in reports, member family
# of the left and of the right operand)
_BRACKETS = {
    "field_field": ("field", "field", "field", "field"),
    "field_density": ("field", "density", "field", "density"),
    "density_density": ("density", "density", "density", "density"),
    "raw_field": ("raw", "raw", "raw_field", "raw_field"),
}


def field_params(max_order):
    return [
        (m, s - m) for s in range(2, max_order + 1) for m in range(s + 1)
    ]


def density_params(max_order):
    return [
        (m, s - m) for s in range(0, max_order + 1) for m in range(s + 1)
    ]


def _require_window(window, max_order, kinds=()):
    """A sweep up to ``max_order`` (an int >= 2) is exact only from window ``max_order``
    on, 2 more when ``kinds`` holds ``sl2``; below it identities would be dropped or
    checked past validity, and below order 2 no field member exists."""
    check_int(max_order, 2, "max_order must be >= 2, got %r")
    need = max_order + 2 * ("sl2" in kinds)
    if window < need:
        raise InvalidParameter(
            "window %d is too small for max_order %d: need >= %d" % (window, max_order, need)
        )


def _bracket_pairs(kind, max_order):
    # every pair of two member families, or each unordered pair of one family once
    left, right = _BRACKETS[kind][2:]
    ps = {f: (density_params if f == "density" else field_params)(max_order) for f in (left, right)}
    if left != right:
        return [(a, b) for a in ps[left] for b in ps[right]]
    return [(a, b) for i, a in enumerate(ps[left]) for b in ps[left][i + 1:]]


def _residual(x, y, rhs, fallback):
    """Genus parts of [X, Y] - sum c*Z over ``rhs`` = [(c, parts of Z)],
    cut to the checked window, and that window: the smallest window of
    the part commutators, or ``fallback`` when none is bounded.  With
    X = A + g*B and Y = C + g*E, [X, Y] = [A,C] + g([A,E] + [B,C]) +
    g^2 [B,E].  Each part's cut (the smallest of the checked window and
    its contributions' windows) is fixed first; then the part
    commutators and each -c*Z add their terms within it into the dict
    of their genus power.  When every entry of every dict cancelled, the
    parts are None: nothing is decoded."""
    pairs = [(i + k, u, v) for i, u in enumerate(x) for k, v in enumerate(y)
             if u.terms and v.terms]
    adds = [(k, -c, z) for c, parts in rhs for k, z in enumerate(parts) if c and z.terms]
    windows = [_commute_window(u, v) for _k, u, v in pairs]
    w = min(windows, default=inf)
    w = fallback if w == inf else max(w, 0)
    cuts = [w] * (len(x) + len(y) - 1)
    for (k, _u, _v), win in zip(pairs, windows):
        cuts[k] = min(cuts[k], win)
    for k, _c, z in adds:
        cuts[k] = min(cuts[k], z.window)
    sums = [{} for _ in cuts]
    for k, u, v in pairs:
        u._commute_into(v, sums[k], cuts[k])
    for k, c, z in adds:
        z._add_into(sums[k], c, cuts[k])
    if not any(any(terms.values()) for terms in sums):
        return None, w
    return [_decoded(terms, cut) for terms, cut in zip(sums, cuts)], w


def _bracket_identity(kind, a, b, parts):
    """(x, y, rhs) of one bracket identity [X, Y] = sum c*Z, in genus
    parts."""
    (m, n), (mp, np_) = a, b
    _la, _lb, left, right = _BRACKETS[kind]
    coeff = n * mp - m * np_
    rhs = [] if kind == "density_density" else [(coeff, parts(right, m + mp - 1, n + np_ - 1))]
    if kind == "raw_field":
        corr = 4 * (comb(n, 2) * comb(mp, 2) - comb(np_, 2) * comb(m, 2))
        rhs.append((-corr, parts("density", m + mp - 2, n + np_ - 2)))
    return parts(left, m, n), parts(right, mp, np_), rhs


def _bracket_checks(kind, max_order, genera, parts):
    """Yield (name, params, genus, difference) for every bracket
    identity of one kind at every genus; each identity is computed once,
    in genus parts, and evaluated at each genus.  The difference is the
    discrepancy within the checked window, zero when the identity holds."""
    la, lb, _left, _right = _BRACKETS[kind]
    for a, b in _bracket_pairs(kind, max_order):
        res, w = _residual(*_bracket_identity(kind, a, b, parts), parts.window)
        name = "[%s(%d,%d), %s(%d,%d)]" % (la, a[0], a[1], lb, b[0], b[1])
        params = {"pair": [list(a), list(b)], "checked_window": w}
        for g in genera:
            yield name, params, g, _ZERO if res is None else _at_genus(res, g)


def _checked(x, y, rhs, ctx):
    """[X, Y] - sum c*Z at the context's genus, and its checked window."""
    res, w = _residual(x, y, rhs, ctx.window)
    return _ZERO if res is None else _at_genus(res, ctx.genus), w


def _sl2_checks(max_order, ctx):
    """Yield (name, params, difference) for the sl2 relations, h =
    -field(1,1), f on the variables and the brackets [[f, u.], v.]."""
    g = ctx.genus
    e, f, h = _sl2_parts(ctx._parts)
    yield "[e,f] = h", {}, _checked(e, f, [(1, h)], ctx)[0]
    yield "[h,e] = 2e", {}, _checked(h, e, [(2, e)], ctx)[0]
    yield "[h,f] = -2f", {}, _checked(h, f, [(-2, f)], ctx)[0]
    yield "h = -field(1,1)", {}, _at_genus(h, g) + _member(ctx, "field", 1, 1)
    f_at_g = _at_genus(f, g)
    for n in range(1, max_order + 1):
        expected = Poly.constant(g) if n == 1 else q(n - 1)
        name = "f(p%d) = %s" % (n, "g" if n == 1 else "q%d" % (n - 1))
        yield name, {"n": n}, f_at_g.apply(p(n)) - expected
        yield "f(q%d) = 0" % n, {"n": n}, f_at_g.apply(q(n))
    for n in range(1, max_order):
        # the parts of [f, u.], one zero part if they all cancelled
        fp = _residual(f, (mul_op(p(n)),), [], ctx.window)[0] or (_ZERO,)
        fq = _residual(f, (mul_op(q(n)),), [], ctx.window)[0] or (_ZERO,)
        for m in range(1, max_order - n + 1):
            nested = [
                ("[[f,p%d.],p%d.] = -C(%d,%d) p%d." % (n, m, m + n, m, m + n - 1),
                 fp, p(m), -comb(m + n, m) * p(m + n - 1)),
                ("[[f,p%d.],q%d.] = -C(%d,%d) q%d." % (n, m, m + n - 1, m - 1, m + n - 1),
                 fp, q(m), -comb(m + n - 1, m - 1) * q(m + n - 1)),
                ("[[f,q%d.],q%d.] = 0" % (n, m), fq, q(m), Poly.zero()),
            ]
            for name, inner, var, expected in nested:
                rhs = [(1, (mul_op(expected),))]
                yield name, {"n": n, "m": m}, _checked(inner, (mul_op(var),), rhs, ctx)[0]


def _grading_checks(max_order, ctx):
    """Yield (name, params, difference) for the grading laws on every
    term of the members as built, whose partials have index-sum <= the
    context window W (each law's params are ``{"max_weight": W}``); the
    terms fix the action up to weight W, and terms of different shifts
    cannot cancel on a monomial."""
    g, max_weight = ctx.genus, ctx.window
    h = _sl2_parts(ctx._parts).h
    # h is diagonal: it scales each variable v by 2w(v) - s(v), minus g*id
    diagonal = {(MONO_ONE, MONO_ONE): -g}
    for i in range(1, max_weight + 1):
        for v in (_variable(P_KIND, i)[0], _variable(Q_KIND, i)[0]):
            diagonal[(v, v)] = cartan_eigenvalue(i, mono_sdeg(v), 0)
    residual = _at_genus(h, g) - Operator(diagonal)
    yield "h acts by 2w - s - g", {"max_weight": max_weight}, residual
    members = [
        ("field", m, n, n - 1, n + m - 2) for m, n in field_params(max_order)
    ] + [
        ("density", m, n, n, n + m) for m, n in density_params(max_order)
    ]
    for family, m, n, wshift, sshift in members:
        op = ctx._parts(family, m, n)
        diff, w = _checked(h, op, [(n - m, op)], ctx)
        label = "%s(%d,%d)" % (family, m, n)
        yield "[h, %s] = %d*%s" % (label, n - m, label), {"checked_window": w}, diff
        off_shift = Operator({
            k: c for k, c in _at_genus(op, g).terms.items()
            if (term_weight_shift(k), mono_sdeg(k[0]) - mono_sdeg(k[1])) != (wshift, sshift)
        })
        name = "%s is bigraded of shift (%d, %d)" % (label, wshift, sshift)
        yield name, {"max_weight": max_weight}, off_shift


def verify_bracket(kind, max_order, ctx):
    """Run one family of exact identity checks up to ``max_order``.

    ``kind`` is one of ``field_field``, ``field_density``,
    ``density_density``, ``raw_field``, ``sl2``, ``grading`` (the grading
    laws are checked on every term, up to the context window).  Every
    check yields its difference (a Poly or an Operator), and this is the
    one place that records it.  Returns the list of report entries;
    raises :class:`VerificationFailure` (the difference as
    counterexample) on the first failing identity, and
    :class:`InvalidParameter` for an unknown kind, when ``max_order`` is
    not an int >= 2, or when the context window is too small for it
    (below it for the brackets and ``grading``, below it plus 2 for ``sl2``).
    """
    if kind not in _BRACKETS and kind not in ("sl2", "grading"):
        raise InvalidParameter("unknown verification kind %r" % (kind,))
    _require_window(ctx.window, max_order, (kind,))
    if kind == "sl2":
        checks = _sl2_checks(max_order, ctx)
    elif kind == "grading":
        checks = _grading_checks(max_order, ctx)
    else:
        bracket_checks = _bracket_checks(kind, max_order, [ctx.genus], ctx._parts)
        checks = ((name, pair, diff) for name, pair, _g, diff in bracket_checks)
    reports = []
    for name, check_params, diff in checks:
        if not diff.is_zero():
            entry = report_entry(name, check_params, ctx.genus, ctx.window, "fail", str(diff))
            raise VerificationFailure(entry)
        reports.append(report_entry(name, check_params, ctx.genus, ctx.window))
    return reports


def run_bracket_suite(genera, max_order, window, jobs=None):
    """Verify every Lie bracket among the field and density families
    for m+n, m'+n' <= max_order at each genus.

    Each identity is computed once, in genus parts, and evaluated
    within its checked window at every genus; the members are those of
    any live context at ``window``.  ``jobs`` is accepted for
    compatibility and ignored: the sweep runs in this process.  Returns
    a summary dict with per-(kind, genus) counts and the list of
    failures (empty when everything verified); a repeated genus raises
    :class:`InvalidParameter`.
    """
    genera = list(genera)
    if not genera:
        raise InvalidParameter("genera must name at least one genus")
    for g in genera:
        _check_context(g, window)
    if len(set(genera)) < len(genera):
        raise InvalidParameter("genera must be distinct, got %r" % (genera,))
    _require_window(window, max_order)
    parts = _genus_parts(window)
    counts = {}
    failures = []
    for kind in BRACKET_KINDS:
        for name, params, g, diff in _bracket_checks(kind, max_order, genera, parts):
            counts[(kind, g)] = counts.get((kind, g), 0) + 1
            if not diff.is_zero():
                failures.append(
                    report_entry(name, params, g, window, "fail", str(diff))
                )
    return {
        "max_order": max_order,
        "window": window,
        "genera": genera,
        "counts": {"%s@g%d" % (kind, g): c for (kind, g), c in sorted(counts.items())},
        "checked": sum(counts.values()),
        "failures": failures,
    }

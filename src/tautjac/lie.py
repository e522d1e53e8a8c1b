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

* the sl2 triple e (multiplication by p1), f = -D, and h = -field(1,1),
  where h acts on a (weight w, s-degree s) monomial by 2w - s - g.

Wherever a formula would produce the symbol q0 the genus scalar g is
substituted, so the operators and all brackets stay inside Q.
"""

import os
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import comb, factorial

from .errors import InvalidGenus, InvalidParameter, VerificationFailure
from .operators import Operator, mul_op
from .poly import (
    MONO_ONE,
    P_KIND,
    Q_KIND,
    Poly,
    enumerate_monomials,
    mono_from_exponents,
    mono_sdeg,
    mono_str,
    p,
    q,
)


def binom(n, k):
    """Binomial coefficient with C(n, k) = 0 for k < 0 or n < k."""
    if k < 0 or n < k:
        return 0
    return comb(n, k)


class LieContext:
    """Fixed genus (>= 2) and truncation window for the constructors.

    Construction results are memoized per context; contexts are cheap
    and immutable, so share one per (genus, window) where convenient.
    """

    __slots__ = ("genus", "window", "_memo")

    def __init__(self, genus, window):
        if not isinstance(genus, int) or genus < 2:
            raise InvalidGenus("genus must be an integer >= 2, got %r" % (genus,))
        if not isinstance(window, int) or window < 1:
            raise InvalidParameter("window must be a positive integer, got %r" % (window,))
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("LieContext is immutable")

    def __repr__(self):
        return "LieContext(genus=%d, window=%d)" % (self.genus, self.window)

    def _cached(self, key, make):
        memo = self._memo
        if key not in memo:
            memo[key] = make()
        return memo[key]


def _index_tuples(count, cap):
    """Ordered tuples of positive integers of the given length with
    index sum <= cap."""
    if count == 0:
        yield ()
        return
    for first in range(1, cap - count + 2):
        for rest in _index_tuples(count - 1, cap - first):
            yield (first,) + rest


def _p_parts(indices):
    counts = {}
    for i in indices:
        counts[i] = counts.get(i, 0) + 1
    return mono_from_exponents(((i, P_KIND), e) for i, e in counts.items())


def _pvar(i):
    return ((i, P_KIND, 1),)


def _qvar(i):
    return ((i, Q_KIND, 1),)


def descent_op(ctx):
    """The weight-lowering second-order operator D, truncated to the
    context window; its weight shift is -1 on every term."""

    def make():
        W, g = ctx.window, ctx.genus
        terms = {}
        half = Fraction(1, 2)
        for m in range(1, W + 1):
            for n in range(1, W - m + 1):
                key = (_pvar(m + n - 1), _p_parts((m, n)))
                terms[key] = terms.get(key, 0) + half * binom(m + n, n)
                key = (
                    _qvar(m + n - 1),
                    mono_from_exponents((((m, Q_KIND), 1), ((n, P_KIND), 1))),
                )
                terms[key] = terms.get(key, 0) + binom(m + n - 1, n)
        for n in range(1, W + 1):
            if n == 1:
                key = (MONO_ONE, _pvar(1))
                terms[key] = terms.get(key, 0) - g
            else:
                key = (_qvar(n - 1), _pvar(n))
                terms[key] = terms.get(key, 0) - 1
        return Operator(terms, W)

    return ctx._cached("descent", make)


def field_op(m, n, ctx):
    """The family member field(m, n); the zero operator unless
    m, n >= 0 and m + n >= 2.  Weight shift n - 1, s-degree shift
    n + m - 2.  field(0, n) is multiplication by n! p_{n-1} (exact,
    unbounded window); field(2, 0) equals twice the descent operator."""

    def make():
        if m < 0 or n < 0 or m + n < 2:
            return Operator.zero()
        if m == 0:
            return mul_op(factorial(n) * p(n - 1))
        W, g = ctx.window, ctx.genus
        sign = -1 if m % 2 else 1
        terms = {}
        for tup in _index_tuples(m, W):
            s = sum(tup)
            denom = 1
            for i in tup:
                denom *= factorial(i)
            c = sign * (factorial(n + s) // denom)
            key = (_pvar(n + s - 1), _p_parts(tup))
            terms[key] = terms.get(key, 0) + c
        for tup in _index_tuples(m - 1, W - 1):
            si = sum(tup)
            denom = 1
            for i in tup:
                denom *= factorial(i)
            base = _p_parts(tup)
            for j in range(1, W - si + 1):
                c = sign * m * (
                    factorial(n + si + j - 1) // (denom * factorial(j - 1))
                )
                key = (
                    _qvar(n + si + j - 1),
                    mono_from_exponents(
                        [((i, P_KIND), e) for i, _k, e in base]
                        + [((j, Q_KIND), 1)]
                    ),
                )
                terms[key] = terms.get(key, 0) + c
        if m == 1:
            # Constant part of the family: n! q_{n-1}, with q0 -> g.
            if n == 1:
                key = (MONO_ONE, MONO_ONE)
                terms[key] = terms.get(key, 0) + g
            else:
                key = (_qvar(n - 1), MONO_ONE)
                terms[key] = terms.get(key, 0) + factorial(n)
        else:
            for tup in _index_tuples(m - 1, W):
                s = sum(tup)
                denom = 1
                for i in tup:
                    denom *= factorial(i)
                c = -sign * m * (factorial(n + s) // denom)
                idx = n + s - 1
                if idx == 0:
                    key = (MONO_ONE, _p_parts(tup))
                    terms[key] = terms.get(key, 0) + c * g
                else:
                    key = (_qvar(idx), _p_parts(tup))
                    terms[key] = terms.get(key, 0) + c
        op = Operator(terms, W)
        assert op.weight_shifts() in ([], [n - 1])
        return op

    return ctx._cached(("field", m, n), make)


def density_op(m, n, ctx):
    """The commuting family member density(m, n); zero unless
    m, n >= 0.  Weight shift n, s-degree shift n + m.  density(0, n)
    is multiplication by n! q_n (with density(0, 0) = g * id)."""

    def make():
        if m < 0 or n < 0:
            return Operator.zero()
        if m == 0:
            if n == 0:
                return mul_op(Poly.constant(ctx.genus))
            return mul_op(factorial(n) * q(n))
        sign = -1 if m % 2 else 1
        terms = {}
        for tup in _index_tuples(m, ctx.window):
            s = sum(tup)
            denom = 1
            for i in tup:
                denom *= factorial(i)
            c = sign * (factorial(n + s) // denom)
            key = (_qvar(n + s), _p_parts(tup))
            terms[key] = terms.get(key, 0) + c
        op = Operator(terms, ctx.window)
        assert op.weight_shifts() in ([], [n])
        return op

    return ctx._cached(("density", m, n), make)


def raw_field_op(k, n, ctx):
    """The uncorrected field family: field(k, n) + k*n*density(k-1, n-1).

    Satisfies the mixed brackets
    [raw(k,n), raw(k',n')] = (nk' - n'k) raw(k+k'-1, n+n'-1)
      - 4 (C(n,2) C(k',2) - C(n',2) C(k,2)) density(k+k'-2, n+n'-2).
    """

    def make():
        base = field_op(k, n, ctx)
        if k * n == 0:
            return base
        return base + (k * n) * density_op(k - 1, n - 1, ctx)

    return ctx._cached(("raw_field", k, n), make)


Sl2 = namedtuple("Sl2", ["e", "f", "h"])


def sl2_triple(ctx):
    """The triple (e, f, h): e = multiplication by p1 (exact), f = -D,
    h = -field(1,1), acting on a (w, s) monomial by 2w - s - g."""

    def make():
        e = mul_op(p(1))
        f = -descent_op(ctx)
        h = -field_op(1, 1, ctx)
        return Sl2(e, f, h)

    return ctx._cached("sl2", make)


def cartan_eigenvalue(weight, sdeg, genus):
    return 2 * weight - sdeg - genus


# ---------------------------------------------------------------------------
# Identity verification sweeps
# ---------------------------------------------------------------------------

FIELD_SENSITIVE = {(1, 1), (2, 0)}  # only members whose terms involve g
DENSITY_SENSITIVE = {(0, 0)}

BRACKET_KINDS = ("field_field", "field_density", "density_density")
ALL_KINDS = BRACKET_KINDS + ("sl2", "raw_field", "grading")


def field_params(max_order):
    return [
        (m, s - m) for s in range(2, max_order + 1) for m in range(s + 1)
    ]


def density_params(max_order):
    return [
        (m, s - m) for s in range(0, max_order + 1) for m in range(s + 1)
    ]


def _effective_window(bracket, fallback):
    w = bracket.window
    return fallback if w is None else max(w, 0)


def _entry(identity, params, ctx, status="ok", counterexample=None):
    entry = {
        "identity": identity,
        "params": params,
        "genus": ctx.genus,
        "window": ctx.window,
        "status": status,
    }
    if counterexample is not None:
        entry["counterexample"] = counterexample
    return entry


def _check_bracket(kind, a, b, ctx):
    """Verify one bracket identity; returns (ok, got, expected)."""
    m, n = a
    mp, np_ = b
    coeff = n * mp - m * np_
    if kind == "field_field":
        left = field_op(m, n, ctx).commutator(field_op(mp, np_, ctx))
        expected = coeff * field_op(m + mp - 1, n + np_ - 1, ctx)
    elif kind == "field_density":
        left = field_op(m, n, ctx).commutator(density_op(mp, np_, ctx))
        expected = coeff * density_op(m + mp - 1, n + np_ - 1, ctx)
    elif kind == "density_density":
        left = density_op(m, n, ctx).commutator(density_op(mp, np_, ctx))
        expected = Operator.zero()
    elif kind == "raw_field":
        left = raw_field_op(m, n, ctx).commutator(raw_field_op(mp, np_, ctx))
        corr = 4 * (
            binom(n, 2) * binom(mp, 2) - binom(np_, 2) * binom(m, 2)
        )
        expected = (n * mp - np_ * m) * raw_field_op(m + mp - 1, n + np_ - 1, ctx)
        if corr:
            expected = expected - corr * density_op(m + mp - 2, n + np_ - 2, ctx)
    else:
        raise ValueError("unknown bracket kind %r" % (kind,))
    w = _effective_window(left, ctx.window)
    ok = left.equal_within(expected, w)
    return ok, left, expected, w


def _bracket_identity_name(kind, a, b):
    names = {
        "field_field": ("field", "field"),
        "field_density": ("field", "density"),
        "density_density": ("density", "density"),
        "raw_field": ("raw", "raw"),
    }
    la, lb = names[kind]
    return "[%s(%d,%d), %s(%d,%d)]" % (la, a[0], a[1], lb, b[0], b[1])


def _sweep_brackets(kind, params, ctx):
    max_order = params.get("max_order", 4)
    if kind == "field_field":
        left_params = right_params = field_params(max_order)
        symmetric = True
    elif kind == "field_density":
        left_params = field_params(max_order)
        right_params = density_params(max_order)
        symmetric = False
    elif kind == "density_density":
        left_params = right_params = density_params(max_order)
        symmetric = True
    elif kind == "raw_field":
        # members with k+n < 2 vanish identically and are outside the
        # algebra, exactly as for the corrected family
        left_params = right_params = field_params(max_order)
        symmetric = True
    else:
        raise ValueError(kind)
    reports = []
    for i, a in enumerate(left_params):
        start = i + 1 if symmetric else 0
        for b in right_params[start:]:
            ok, left, expected, w = _check_bracket(kind, a, b, ctx)
            entry = _entry(
                _bracket_identity_name(kind, a, b),
                {"pair": [list(a), list(b)], "checked_window": w},
                ctx,
                status="ok" if ok else "fail",
            )
            if not ok:
                entry["counterexample"] = str(left - expected)
                raise VerificationFailure(entry, left - expected)
            reports.append(entry)
    return reports


def _sweep_sl2(params, ctx):
    max_order = params.get("max_order", 6)
    e, f, h = sl2_triple(ctx)
    reports = []

    def check(name, got, expected, w, extra=None):
        ok = got.equal_within(expected, w)
        entry = _entry(name, extra or {}, ctx, status="ok" if ok else "fail")
        if not ok:
            entry["counterexample"] = str(got - expected)
            raise VerificationFailure(entry, got - expected)
        reports.append(entry)

    base_w = ctx.window - 2
    check("[e,f] = h", e.commutator(f), h, base_w)
    check("[h,e] = 2e", h.commutator(e), 2 * e, base_w)
    check("[h,f] = -2f", h.commutator(f), -2 * f, base_w)
    check(
        "h = -field(1,1)", h, -field_op(1, 1, ctx), ctx.window
    )
    max_order = min(max_order, ctx.window - 2)
    for n in range(1, max_order + 1):
        got = f.apply(p(n))
        expected = Poly.constant(ctx.genus) if n == 1 else q(n - 1)
        name = "f(p%d) = %s" % (n, "g" if n == 1 else "q%d" % (n - 1))
        entry = _entry(name, {"n": n}, ctx, status="ok" if got == expected else "fail")
        if got != expected:
            entry["counterexample"] = str(got - expected)
            raise VerificationFailure(entry)
        reports.append(entry)
        got = f.apply(q(n))
        entry = _entry("f(q%d) = 0" % n, {"n": n}, ctx, status="ok" if got.is_zero() else "fail")
        if not got.is_zero():
            entry["counterexample"] = str(got)
            raise VerificationFailure(entry)
        reports.append(entry)
    for n in range(1, max_order):
        for m in range(1, max_order - n + 1):
            fp = f.commutator(mul_op(p(n)))
            got = fp.commutator(mul_op(p(m)))
            expected = mul_op(-binom(m + n, m) * p(m + n - 1))
            w = _effective_window(got, ctx.window)
            check(
                "[[f,p%d.],p%d.] = -C(%d,%d) p%d." % (n, m, m + n, m, m + n - 1),
                got,
                expected,
                w,
                {"n": n, "m": m},
            )
            got = fp.commutator(mul_op(q(m)))
            expected = mul_op(-binom(m + n - 1, m - 1) * q(m + n - 1))
            w = _effective_window(got, ctx.window)
            check(
                "[[f,p%d.],q%d.] = -C(%d,%d) q%d." % (n, m, m + n - 1, m - 1, m + n - 1),
                got,
                expected,
                w,
                {"n": n, "m": m},
            )
            fq = f.commutator(mul_op(q(n)))
            got = fq.commutator(mul_op(q(m)))
            w = _effective_window(got, ctx.window)
            check(
                "[[f,q%d.],q%d.] = 0" % (n, m),
                got,
                Operator.zero(),
                w,
                {"n": n, "m": m},
            )
    return reports


def _sweep_grading(params, ctx):
    max_order = params.get("max_order", 4)
    max_weight = min(params.get("max_weight", ctx.window), ctx.window)
    e, f, h = sl2_triple(ctx)
    reports = []
    for w in range(max_weight + 1):
        for mono in enumerate_monomials(w):
            mp = Poly.monomial(mono)
            got = h.apply(mp)
            expected = cartan_eigenvalue(w, mono_sdeg(mono), ctx.genus) * mp
            if got != expected:
                entry = _entry(
                    "h acts by 2w - s - g",
                    {"monomial": str(mp)},
                    ctx,
                    status="fail",
                    counterexample=str(got - expected),
                )
                raise VerificationFailure(entry)
    reports.append(
        _entry("h acts by 2w - s - g", {"max_weight": max_weight}, ctx)
    )
    shift_weight = max_weight
    for m, n in field_params(max_order):
        op = field_op(m, n, ctx)
        got = h.commutator(op)
        expected = (n - m) * op
        w = _effective_window(got, ctx.window)
        ok = got.equal_within(expected, w)
        entry = _entry(
            "[h, field(%d,%d)] = %d*field(%d,%d)" % (m, n, n - m, m, n),
            {"checked_window": w},
            ctx,
            status="ok" if ok else "fail",
        )
        if not ok:
            entry["counterexample"] = str(got - expected)
            raise VerificationFailure(entry, got - expected)
        reports.append(entry)
        _check_shifts(op, n - 1, n + m - 2, shift_weight, ctx, "field(%d,%d)" % (m, n), reports)
    for m, n in density_params(max_order):
        op = density_op(m, n, ctx)
        got = h.commutator(op)
        expected = (n - m) * op
        w = _effective_window(got, ctx.window)
        ok = got.equal_within(expected, w)
        entry = _entry(
            "[h, density(%d,%d)] = %d*density(%d,%d)" % (m, n, n - m, m, n),
            {"checked_window": w},
            ctx,
            status="ok" if ok else "fail",
        )
        if not ok:
            entry["counterexample"] = str(got - expected)
            raise VerificationFailure(entry, got - expected)
        reports.append(entry)
        _check_shifts(op, n, n + m, shift_weight, ctx, "density(%d,%d)" % (m, n), reports)
    return reports


def _check_shifts(op, wshift, sshift, max_weight, ctx, label, reports):
    """Homogeneity of the operator on the bigraded pieces."""
    for w in range(max(0, max_weight) + 1):
        for mono in enumerate_monomials(w):
            out = op.apply(Poly.monomial(mono))
            if out.is_zero():
                continue
            s = mono_sdeg(mono)
            expected_key = (w + wshift, s + sshift)
            keys = set(out.graded())
            if keys != {expected_key}:
                entry = _entry(
                    "%s is bigraded of shift (%d, %d)" % (label, wshift, sshift),
                    {"monomial": mono_str(mono)},
                    ctx,
                    status="fail",
                    counterexample="%s -> components %s" % (mono_str(mono), sorted(keys)),
                )
                raise VerificationFailure(entry)
    reports.append(
        _entry(
            "%s is bigraded of shift (%d, %d)" % (label, wshift, sshift),
            {"max_weight": max_weight},
            ctx,
        )
    )


def verify_bracket(kind, params, ctx):
    """Run one family of exact identity checks.

    ``kind`` is one of ``field_field``, ``field_density``,
    ``density_density``, ``raw_field``, ``sl2``, ``grading``.  Returns
    the list of report entries; raises :class:`VerificationFailure`
    (carrying the difference operator) on the first failing identity.
    """
    if kind in ("field_field", "field_density", "density_density", "raw_field"):
        return _sweep_brackets(kind, params, ctx)
    if kind == "sl2":
        return _sweep_sl2(params, ctx)
    if kind == "grading":
        return _sweep_grading(params, ctx)
    raise ValueError("unknown verification kind %r" % (kind,))


# ---------------------------------------------------------------------------
# Parallel bracket suite (the expensive whole-family sweep)
# ---------------------------------------------------------------------------


def _pair_is_genus_sensitive(kind, a, b):
    """Whether the bracket computation for this pair involves the genus
    scalar anywhere (operands or expected right-hand side)."""
    m, n = a
    mp, np_ = b
    coeff = n * mp - m * np_
    result = (m + mp - 1, n + np_ - 1)
    if kind == "field_field":
        return (
            a in FIELD_SENSITIVE
            or b in FIELD_SENSITIVE
            or (coeff != 0 and result in FIELD_SENSITIVE)
        )
    if kind == "field_density":
        return (
            a in FIELD_SENSITIVE
            or b in DENSITY_SENSITIVE
            or (coeff != 0 and result in DENSITY_SENSITIVE)
        )
    if kind == "density_density":
        return a in DENSITY_SENSITIVE or b in DENSITY_SENSITIVE
    raise ValueError(kind)


def _bracket_pairs(kind, max_order):
    if kind == "field_field":
        ps = field_params(max_order)
        return [(a, b) for i, a in enumerate(ps) for b in ps[i + 1:]]
    if kind == "field_density":
        return [
            (a, b)
            for a in field_params(max_order)
            for b in density_params(max_order)
        ]
    if kind == "density_density":
        ps = density_params(max_order)
        return [(a, b) for i, a in enumerate(ps) for b in ps[i + 1:]]
    raise ValueError(kind)


def _bracket_chunk(args):
    """Worker: verify a chunk of bracket pairs at one genus."""
    genus, window, items = args
    ctx = LieContext(genus, window)
    results = []
    for kind, a, b in items:
        ok, left, expected, w = _check_bracket(kind, tuple(a), tuple(b), ctx)
        diff = None if ok else str(left - expected)
        results.append((kind, a, b, ok, w, diff))
    return results


def _op_terms_match(kind, pair, ctx, base_ctx):
    """Operand and expected-result term dictionaries agree between two
    contexts (used to carry genus-free verdicts across genera)."""
    a, b = pair
    ops = []
    if kind == "field_field":
        ops = [("field", a), ("field", b), ("field", _result_param(a, b))]
    elif kind == "field_density":
        ops = [("field", a), ("density", b), ("density", _result_param(a, b))]
    else:
        ops = [("density", a), ("density", b)]
    for fam, (m, n) in ops:
        ctor = field_op if fam == "field" else density_op
        if ctor(m, n, ctx).terms != ctor(m, n, base_ctx).terms:
            return False
    return True


def _result_param(a, b):
    return (a[0] + b[0] - 1, a[1] + b[1] - 1)


def run_bracket_suite(genera, max_order, window, jobs=None, kinds=BRACKET_KINDS):
    """Verify every Lie bracket for m+n, m'+n' <= max_order at each
    genus, in parallel.  Bracket computations that provably do not
    involve the genus scalar are executed once and their verdict is
    carried to the other genera after checking that the operator term
    data is identical there.

    Returns a summary dict with per-(kind, genus) counts and the list
    of failures (empty when everything verified).
    """
    genera = list(genera)
    base_genus = genera[0]
    shared_set = set()  # genus-free pairs, computed once at base_genus
    by_genus = {g: [] for g in genera}
    for kind in kinds:
        for a, b in _bracket_pairs(kind, max_order):
            if _pair_is_genus_sensitive(kind, a, b):
                for g in genera:
                    by_genus[g].append((kind, a, b))
            else:
                shared_set.add((kind, a, b))
                by_genus[base_genus].append((kind, a, b))

    if jobs is None:
        jobs = os.cpu_count() or 1
    chunks = []
    for g in genera:
        items = sorted(by_genus[g])
        step = max(1, len(items) // (max(jobs, 1) * 8))
        for i in range(0, len(items), step):
            chunks.append((g, window, items[i : i + step]))

    results = {}  # (genus, kind, a, b) -> (ok, checked window, diff text)
    if jobs > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_bracket_chunk, chunks))
    else:
        outcomes = [_bracket_chunk(chunk) for chunk in chunks]
    for (g, _w, _items), chunk_result in zip(chunks, outcomes):
        for kind, a, b, ok, w, diff in chunk_result:
            results[(g, kind, a, b)] = (ok, w, diff)

    counts = {}
    failures = []

    def record(g, kind, a, b, ok, w, diff):
        counts[(kind, g)] = counts.get((kind, g), 0) + 1
        if not ok:
            failures.append(
                {
                    "identity": _bracket_identity_name(kind, a, b),
                    "params": {"pair": [list(a), list(b)], "checked_window": w},
                    "genus": g,
                    "window": window,
                    "status": "fail",
                    "counterexample": diff,
                }
            )

    contexts = {g: LieContext(g, window) for g in genera}
    for kind in kinds:
        for a, b in _bracket_pairs(kind, max_order):
            if (kind, a, b) in shared_set:
                ok, w, diff = results[(base_genus, kind, a, b)]
                record(base_genus, kind, a, b, ok, w, diff)
                for g in genera[1:]:
                    if _op_terms_match(kind, (a, b), contexts[g], contexts[base_genus]):
                        record(g, kind, a, b, ok, w, diff)
                    else:
                        record(
                            g, kind, a, b, False, w,
                            "operator data unexpectedly varies with genus",
                        )
            else:
                for g in genera:
                    ok, w, diff = results[(g, kind, a, b)]
                    record(g, kind, a, b, ok, w, diff)
    return {
        "max_order": max_order,
        "window": window,
        "genera": genera,
        "counts": {"%s@g%d" % (kind, g): c for (kind, g), c in sorted(counts.items())},
        "checked": sum(counts.values()),
        "failures": failures,
    }

import gc
import hashlib
import json
import weakref
from functools import lru_cache
from math import comb, factorial, inf
from types import SimpleNamespace

import pytest

from helpers import (
    ApplyOracle,
    all_monomials_up_to,
    equal_within,
    hits_oracle,
    index_multisets_oracle,
    member_oracle,
    pack_oracle,
    residual_oracle,
    weight_shifts,
)
from tautjac import lie, operators
from tautjac.errors import InvalidGenus, InvalidParameter, VerificationFailure, report_entry
from tautjac.lie import (
    LieContext,
    _at_genus,
    _bracket_identity,
    _BRACKETS,
    _bracket_pairs,
    _GenusParts,
    _index_multisets,
    _residual,
    _sl2_parts,
    cartan_eigenvalue,
    density_op,
    density_params,
    descent_op,
    field_op,
    field_params,
    raw_field_op,
    run_bracket_suite,
    sl2_triple,
    verify_bracket,
)
from tautjac.operators import Operator, _packed_hits, mul_op, term_weight_shift
from tautjac.poly import MONO_ONE, P_KIND, Poly, enumerate_monomials, mono_sdeg, p, q

ENTRY_KEYS = ["identity", "params", "genus", "window", "status"]


def test_context_validation():
    with pytest.raises(InvalidGenus):
        LieContext(1, 8)
    with pytest.raises(ValueError):
        LieContext(2, 0)


@pytest.mark.parametrize("g", [2, 3, 5])
def test_descent_on_known_relations(g):
    ctx = LieContext(g, 12)
    d = descent_op(ctx)
    assert d.apply(p(1) * p(g)) == p(g) - p(1) * q(g - 1)
    for n in range(2, 7):
        assert d.apply(q(1) * p(n)) == q(n) - q(1) * q(n - 1)
    assert d.apply(q(1) * p(1)) == (1 - g) * q(1)
    assert d.apply(q(1) ** 3) == Poly.zero()
    assert d.apply(p(g + 1)) == -q(g)


@pytest.mark.parametrize("g", [2, 3, 5])
def test_descent_on_powers_of_p1(g):
    ctx = LieContext(g, 10)
    d = descent_op(ctx)
    for k in range(1, 7):
        assert d.apply(p(1) ** k) == k * (k - 1 - g) * p(1) ** (k - 1)


def test_descent_kills_pure_q_polynomials():
    ctx = LieContext(3, 9)
    d = descent_op(ctx)
    for f in (q(1), q(2) * q(3), q(1) ** 2 * q(4), Poly.one()):
        assert d.apply(f) == Poly.zero()


def test_descent_weight_shift_uniform():
    d = descent_op(LieContext(4, 9))
    assert weight_shifts(d) == [-1]


def test_field_constructors():
    ctx = LieContext(3, 10)
    assert field_op(0, 3, ctx) == mul_op(factorial(3) * p(2))
    assert field_op(0, 3, ctx).window is None
    assert equal_within(field_op(2, 0, ctx), 2 * descent_op(ctx), 10)
    assert field_op(1, 1, ctx).apply(p(2)) == (3 - 3) * p(2)
    assert field_op(1, 1, LieContext(5, 10)).apply(p(2)) == 2 * p(2)
    # zero outside the admissible range
    for m, n in ((-1, 4), (4, -1), (1, 0), (0, 1), (0, 0), (1, 1 - 2)):
        assert field_op(m, n, ctx).is_zero() or m + n >= 2
    assert field_op(1, 0, ctx).is_zero()
    assert field_op(0, 1, ctx).is_zero()


def test_field_weight_shifts_uniform():
    ctx = LieContext(3, 9)
    for m in range(7):
        for n in range(7 - m):
            op = field_op(m, n, ctx)
            if not op.is_zero():
                assert weight_shifts(op) == [n - 1], (m, n)
            opd = density_op(m, n, ctx)
            if not opd.is_zero():
                assert weight_shifts(opd) == [n], (m, n)
    # members build past the packing bound (d(p1)^128): only products refuse
    ctx = LieContext(2, 129)
    for op, shift in [(field_op(128, 1, ctx), 0), (density_op(128, 0, ctx), 0)]:
        assert weight_shifts(op) == [shift]
        with pytest.raises(InvalidParameter, match="packing bound"):
            op.commutator(mul_op(p(1)))


def test_density_constructors():
    ctx = LieContext(4, 10)
    assert density_op(0, 2, ctx) == mul_op(2 * q(2))
    assert density_op(0, 0, ctx) == mul_op(Poly.constant(4))
    y10 = density_op(1, 0, ctx)
    for i in range(1, 6):
        assert y10.apply(p(i)) == -q(i)
        assert y10.apply(q(i)) == Poly.zero()
    assert density_op(-1, 0, ctx).is_zero()
    assert density_op(0, -1, ctx).is_zero()
    got = density_op(1, 2, ctx).commutator(density_op(2, 1, ctx))
    assert equal_within(got, Operator.zero(), got.window)


def test_raw_field_members():
    ctx = LieContext(3, 8)
    for n in range(2, 5):
        assert raw_field_op(0, n, ctx) == field_op(0, n, ctx)
    e, f, h = sl2_triple(ctx)
    expected = (-h) + mul_op(Poly.constant(3))
    assert equal_within(raw_field_op(1, 1, ctx), expected, 8)


@pytest.mark.parametrize("g", [2, 3, 5])
def test_raw_field_bracket_sweep(g):
    ctx = LieContext(g, 8)
    reports = verify_bracket("raw_field", {"max_order": 5}, ctx)
    assert reports and all(r["status"] == "ok" for r in reports)


@pytest.mark.parametrize("g", [2, 3, 5])
def test_sl2_identities(g):
    ctx = LieContext(g, 10)
    reports = verify_bracket("sl2", {"max_order": 8}, ctx)
    assert reports and all(r["status"] == "ok" for r in reports)


def test_sl2_actions_explicit():
    g = 3
    ctx = LieContext(g, 10)
    e, f, h = sl2_triple(ctx)
    assert e.apply(q(2)) == p(1) * q(2)
    assert f.apply(p(1)) == Poly.constant(g)  # q0 -> g
    for n in range(2, 8):
        assert f.apply(p(n)) == q(n - 1)
        assert f.apply(q(n)) == Poly.zero()
    assert h.apply(p(1)) == (2 - g) * p(1)
    # double bracket values on specific orders
    fp2 = f.commutator(mul_op(p(2)))
    got = fp2.commutator(mul_op(p(3)))
    expected = mul_op(-comb(5, 3) * p(4))
    assert equal_within(got, expected, got.window)
    got = fp2.commutator(mul_op(q(3)))
    expected = mul_op(-comb(4, 2) * q(4))
    assert equal_within(got, expected, got.window)


def test_cartan_diagonal_action():
    g = 4
    ctx = LieContext(g, 8)
    _e, _f, h = sl2_triple(ctx)
    for w in range(7):
        for m in enumerate_monomials(w):
            f = Poly.monomial(m)
            assert h.apply(f) == cartan_eigenvalue(w, mono_sdeg(m), g) * f


def test_grading_sweep():
    ctx = LieContext(3, 9)
    reports = verify_bracket("grading", {"max_order": 4, "max_weight": 6}, ctx)
    assert reports and all(r["status"] == "ok" for r in reports)


def test_structure_constant_examples():
    ctx = LieContext(3, 10)
    got = field_op(1, 2, ctx).commutator(field_op(2, 1, ctx))
    assert equal_within(got, 3 * field_op(2, 2, ctx), got.window)
    got = field_op(0, 2, ctx).commutator(field_op(2, 0, ctx))
    assert equal_within(got, 4 * field_op(1, 1, ctx), got.window)


def test_descent_preserves_p1_free_subring():
    ctx = LieContext(3, 12)
    d = descent_op(ctx)
    samples = [
        p(2) ** 2,
        p(2) * p(3) * q(1),
        p(4) + q(2) * p(2),
        q(1) * q(2) * p(5),
    ]
    for f in samples:
        for m in d.apply(f).terms:
            assert all(not (i == 1 and k == "p") for i, k, _e in m), (f, m)


def test_genus_parts_nonzero_exactly_for_four_members():
    # every member is A + g*B with A, B free of g; B is nonzero only for
    # these four, and each of those B is a multiple of id or of d(p1)
    parts = _GenusParts(8)
    members = [("descent", 0, 0)]
    members += [(family, m, n) for family in ("field", "density")
                for m in range(6) for n in range(6 - m)]
    ctors = {
        "descent": lambda m, n, ctx: descent_op(ctx),
        "field": field_op,
        "density": density_op,
    }
    identity, d_p1 = (MONO_ONE, MONO_ONE), (MONO_ONE, ((1, P_KIND, 1),))
    sensitive = set()
    for family, m, n in members:
        a, b = parts(family, m, n)
        if b.terms:
            sensitive.add((family, m, n))
            assert len(b.terms) == 1 and set(b.terms) <= {identity, d_p1}
        for g in (2, 3, 10):
            op = ctors[family](m, n, LieContext(g, 8))
            assert op == (a + g * b if b.terms else a), (family, m, n, g)
    assert sensitive == {
        ("descent", 0, 0), ("field", 1, 1), ("field", 2, 0), ("density", 0, 0)
    }


def _family_ops(ctx, max_order):
    return [field_op(m, n, ctx) for m, n in field_params(max_order)] + [
        density_op(m, n, ctx) for m, n in density_params(max_order)
    ]


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("window", [4, 7])
def test_family_commutators_match_apply_oracle(g, window):
    ctx = LieContext(g, window)
    ops = _family_ops(ctx, 4)
    oracle = ApplyOracle()
    monomials = list(all_monomials_up_to(window))
    checked = 0
    for i, a in enumerate(ops):
        for b in ops[i:]:
            bracket = a.commutator(b)
            w = window if bracket.window is None else bracket.window
            for f in monomials:
                if f.max_weight() > w:
                    break
                assert bracket.apply(f) == oracle.commutator(a, b, f), (a, b, f)
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("g", [2, 3])
def test_sl2_nested_commutators_match_apply_oracle(g):
    ctx = LieContext(g, 7)
    e, f, h = sl2_triple(ctx)
    oracle = ApplyOracle()
    pairs = [(e, f), (h, e), (h, f)]
    for n in range(1, 5):
        for var_n in (mul_op(p(n)), mul_op(q(n))):
            inner = f.commutator(var_n)
            pairs.append((f, var_n))
            for m in range(1, 6 - n):
                pairs += [(inner, mul_op(p(m))), (inner, mul_op(q(m)))]
    for a, b in pairs:
        bracket = a.commutator(b)
        for x in all_monomials_up_to(max(bracket.window, 0)):
            assert bracket.apply(x) == oracle.commutator(a, b, x), (a, b, x)


@pytest.mark.parametrize("kind", ["field_field", "field_density", "density_density", "raw_field"])
def test_genus_residuals_match_direct_brackets(kind):
    # R0 + g R1 + g^2 R2, computed once, against [X(g), Y(g)] - c Z(g)
    # computed at each genus from the public constructors
    window = 7
    parts = _GenusParts(window)
    ctor = raw_field_op if kind == "raw_field" else field_op
    for g in (2, 3, 5, 10):
        ctx = LieContext(g, window)
        for a, b in _bracket_pairs(kind, 4):
            (m, n), (mp, np_) = a, b
            coeff = n * mp - m * np_
            r = (m + mp - 1, n + np_ - 1)
            if kind == "density_density":
                bracket = density_op(m, n, ctx).commutator(density_op(mp, np_, ctx))
                expected = Operator.zero()
            elif kind == "field_density":
                bracket = field_op(m, n, ctx).commutator(density_op(mp, np_, ctx))
                expected = coeff * density_op(*r, ctx)
            else:
                bracket = ctor(m, n, ctx).commutator(ctor(mp, np_, ctx))
                expected = coeff * ctor(*r, ctx)
            if kind == "raw_field":
                corr = 4 * (comb(n, 2) * comb(mp, 2) - comb(np_, 2) * comb(m, 2))
                expected = expected - corr * density_op(m + mp - 2, n + np_ - 2, ctx)
            res, w = _residual(*_bracket_identity(kind, a, b, parts), window)
            assert w == (window if bracket.window is None else max(bracket.window, 0))
            direct = (bracket - expected).truncated(w)
            got = {} if res is None else _at_genus(res, g).terms
            assert got == direct.terms, (kind, a, b, g)


def _assert_residual_matches_oracle(x, y, rhs, parts):
    # a residual that cancelled is reported as None, undecoded: the
    # oracle's parts must then all be zero, at the same checked window
    res, w = _residual(x, y, rhs, parts.window)
    expected, ew = residual_oracle(x, y, rhs, parts.window)
    assert w == ew
    if res is None:
        assert not any(r.terms for r in expected)
    else:
        assert any(r.terms for r in res)
        assert [(r.terms, r.window) for r in res] == [(r.terms, r.window) for r in expected]
    return res


def test_residual_matches_operator_arithmetic_oracle():
    # the in-place residual (one term dict per genus power, a shared
    # product table) against whole operators added, scaled, subtracted
    # and truncated, on every bracket identity at order 5, window 9, the
    # sl2 relations and nested brackets, and h = -field(1,1) in bracket
    # form: [field(1,1), e] = -2e and [field(1,1), f] = 2f
    parts = _GenusParts(9)
    for kind in _BRACKETS:
        for a, b in _bracket_pairs(kind, 5):
            _assert_residual_matches_oracle(*_bracket_identity(kind, a, b, parts), parts)
    e, f, h = _sl2_parts(parts)
    for x, y, rhs in [(e, f, [(1, h)]), (h, e, [(2, e)]), (h, f, [(-2, f)])]:
        _assert_residual_matches_oracle(x, y, rhs, parts)
    field11 = parts("field", 1, 1)
    for y, c in [(e, -2), (f, 2)]:
        _assert_residual_matches_oracle(field11, y, [(c, y)], parts)
    for n in range(1, 5):
        for var in (p(n), q(n)):
            inner = _assert_residual_matches_oracle(f, (mul_op(var),), [], parts)
            for m in range(1, 6 - n):
                for outer in (p(m), q(m)):
                    rhs = [(1, (mul_op(p(m + n - 1)),))]
                    _assert_residual_matches_oracle(inner, (mul_op(outer),), rhs, parts)
    # part windows below the checked one (5, from the commutator) on the
    # right-hand side; an empty left part, whose commutators are skipped,
    # so the g^2 part is cut at the checked window; and a negative
    # commutator window (p5. against D at window 2), raised to 0
    a, b = field11
    # [A, f] = 2f for field(1,1) = A + g id, so with c = 2 every part
    # cancels within its cut, and c = 3 leaves -f to read the cuts from
    left = (a.truncated(5), Operator.zero(3))
    rhs = [(2, (f[0].truncated(4), f[1].truncated(3)))]
    assert _assert_residual_matches_oracle(left, f, rhs, parts) is None
    rhs = [(3, (f[0].truncated(4), f[1].truncated(3)))]
    res = _assert_residual_matches_oracle(left, f, rhs, parts)
    assert [r.window for r in res] == [4, 3, 5]
    x, y = parts("field", 2, 1), parts("field", 1, 2)
    _assert_residual_matches_oracle(x, y, [(1, (a.truncated(4), b))], parts)
    small = _GenusParts(2)
    x, y = small("field", 0, 6), small("descent")
    assert _assert_residual_matches_oracle(x, y, [], small) is None
    # a g^2 right-hand side with no partials stays within the raised cut
    rhs = [(1, (Operator.zero(), Operator.zero(), mul_op(p(1))))]
    res = _assert_residual_matches_oracle(x, y, rhs, small)
    assert [r.window for r in res] == [-3, -3, 0]


def _plant_field_fault(monkeypatch):
    """A wrong term in field(1,2), so some residuals do not cancel."""
    build = lie._BUILDERS["field"]

    def planted(m, n, parts):
        a, b = build(m, n, parts)
        if (m, n) == (1, 2):
            return a + Operator({(((2, "p", 1),), ((1, "q", 1),)): 3}, 9), b
        return a, b

    monkeypatch.setitem(lie._BUILDERS, "field", planted)


def test_residual_matches_oracle_on_a_planted_fault(monkeypatch):
    # a wrong term in field(1,2) leaves nonzero residuals to compare
    _plant_field_fault(monkeypatch)
    parts = _GenusParts(9)
    nonzero = 0
    for kind in ("field_field", "field_density"):
        for a, b in _bracket_pairs(kind, 5):
            res = _assert_residual_matches_oracle(*_bracket_identity(kind, a, b, parts), parts)
            nonzero += res is not None
    assert nonzero >= 10


def _spy_suite(monkeypatch):
    """Run the verify_suite sweep with no member live, logging each residual
    as (its arguments, its parts, how many parts it decoded), and counting
    the ``_contract`` calls; returns (summary, log, contract calls)."""
    monkeypatch.setattr(lie, "_LIVE_PARTS", weakref.WeakValueDictionary())
    log, decoded, contracts = [], [], []
    residual, decode, contract = lie._residual, lie._decoded, Operator._contract

    def spy_residual(*args):
        before = len(decoded)
        res, w = residual(*args)
        log.append((args, res, len(decoded) - before))
        return res, w

    monkeypatch.setattr(lie, "_residual", spy_residual)
    monkeypatch.setattr(lie, "_decoded", lambda *args: decoded.append(args) or decode(*args))
    monkeypatch.setattr(Operator, "_contract", lambda *args: contracts.append(1) or contract(*args))
    return run_bracket_suite([2, 3, 5, 10], 5, 9), log, len(contracts)


class _Counted(list):
    """A table's entry list that tallies the entries loops read from it,
    the loops over it, and the loops that reached its end (the others
    stopped early, at the last entry they read)."""

    def __init__(self, entries, tally):
        super().__init__(entries)
        self.tally = tally

    def __iter__(self):
        self.tally["loops"] += 1
        for entry in list.__iter__(self):
            self.tally["read"] += 1
            yield entry
        self.tally["ends"] += 1


def _used(tally):
    """Entries read and not stopped at."""
    return tally["read"] - (tally["loops"] - tally["ends"])


def _count_kernel_work(monkeypatch):
    """Tally the entries the product kernel reads: the hit tables' right
    entries and the Leibniz tables' left entries in ``_contract``, and the
    packed rows in ``_add_into``; returns (rights, lefts, rows, the
    operators given a hit table)."""
    rights, lefts, rows = ({"loops": 0, "read": 0, "ends": 0} for _ in range(3))
    hit_ops = {}
    lazy, add_into = Operator._lazy, Operator._add_into

    def count(tables, tally):
        for table in tables:
            for hit, entries in table.items():
                if not isinstance(entries, _Counted):
                    table[hit] = _Counted(entries, tally)

    def spy_lazy(op, key):
        index = lazy(op, key)
        if key == "hits":
            hit_ops[id(op)] = op
            count(index.values(), rights)
        elif isinstance(key, int):
            count([index], lefts)
        return index

    def spy_add_into(op, out, scale, limit, shift=0):
        packed = op._lazy("packed")
        view = SimpleNamespace(_lazy=lambda _key: (_Counted(packed[0], rows), packed[1]))
        return add_into(view, out, scale, limit, shift)

    monkeypatch.setattr(Operator, "_lazy", spy_lazy)
    monkeypatch.setattr(Operator, "_add_into", spy_add_into)
    return rights, lefts, rows, hit_ops


def test_suite_work_is_pinned(monkeypatch):
    # the verify_suite sweep makes 1,636 contractions, and every residual
    # of the 741 identities cancels, so none is decoded
    rights, lefts, rows, hit_ops = _count_kernel_work(monkeypatch)
    summary, log, contracts = _spy_suite(monkeypatch)
    assert summary["checked"] == 2964 and not summary["failures"]
    assert contracts == 1636
    assert len(log) == 741 and all(res is None and not n for _args, res, n in log)
    # the contractions use 8,749 right entries and read 553 more, each
    # stopping its loop (before the hit lists were sorted by partial
    # index-sum: 11,853 read and used, 3,104 of them making no product);
    # they make 26,259 products from 28,467 left entries read (31,571)
    assert (_used(rights), rights["read"]) == (8749, 9302)
    assert (_used(lefts), lefts["read"]) == (26259, 28467)
    # the 450 right-hand-side sums add 6,861 rows and read 7,211: the rows
    # they add and one stopping row in 350 calls (11,940 read before the
    # rows were sorted)
    assert rows["loops"] == 450 and (_used(rows), rows["read"]) == (6861, 7211)
    # the 41 right operands' hit tables hold 1,084 entries, none for the
    # empty hit (2,171 while the size-0 table was built)
    assert len(hit_ops) == 41
    assert sum(len(entries) for op in hit_ops.values()
               for table in op._cache["hits"].values() for entries in table.values()) == 1084
    assert not any(0 in op._cache["hits"] for op in hit_ops.values())


# sha256 of the JSON (sorted keys) of the planted suite's failure entries,
# as the kernel reported them before the hit-code join
PLANTED_FAILURES_DIGEST = "95a58a87f7097044cf10f5dd4c23ec58b434738a2bba9c3c8c86e8a2ddbc6df4"


def test_suite_decodes_exactly_the_residuals_that_do_not_cancel(monkeypatch):
    # under the planted fault the sweep decodes each part of every residual
    # that does not cancel (the oracle's parts are not all zero), nothing
    # of the others, and reports the same failure entries byte for byte:
    # the 31 identities that do not hold, at each of the 4 genera
    _plant_field_fault(monkeypatch)
    summary, log, contracts = _spy_suite(monkeypatch)
    assert contracts == 1636 and len(log) == 741
    nonzero = 0
    for (x, y, rhs, fallback), res, n in log:
        expected, _w = residual_oracle(x, y, rhs, fallback)
        assert (res is not None) == any(r.terms for r in expected), (x, y, rhs)
        assert n == (0 if res is None else len(res))
        nonzero += res is not None
    assert nonzero == 31
    text = json.dumps(summary["failures"], sort_keys=True)
    assert len(summary["failures"]) == 124
    assert hashlib.sha256(text.encode()).hexdigest() == PLANTED_FAILURES_DIGEST


def test_members_live_no_longer_than_their_users(monkeypatch):
    # the members at a window, with the packed codes and Leibniz tables
    # cached on them, are freed with the last context or sweep using them
    ctx = LieContext(3, 7)
    run_bracket_suite([2, 3], 3, 7)
    verify_bracket("sl2", {"max_order": 4}, ctx)
    member = ctx._parts("field", 2, 1)[0]
    assert member._cache.keys() >= {"hits", 1}
    member = weakref.ref(member)
    del ctx
    gc.collect()
    assert 7 not in lie._LIVE_PARTS and member() is None
    # a sweep with no live context at its window frees its members on return
    members = []
    build = lie._BUILDERS["density"]

    def spy(m, n, parts):
        built = build(m, n, parts)
        members.extend(weakref.ref(op) for op in built)
        return built

    monkeypatch.setitem(lie._BUILDERS, "density", spy)
    run_bracket_suite([2], 3, 6)
    gc.collect()
    assert members and all(ref() is None for ref in members)
    assert 6 not in lie._LIVE_PARTS


def test_right_hand_sides_are_packed_once_and_get_no_hit_index(monkeypatch):
    # one residual: every operator's terms are packed once, in its packed
    # table, one code lookup for each monomial of each term; the hit index
    # is built for the commutator's operands only, not for the right-hand
    # side field(2,2), which is only added
    parts = _GenusParts(7)
    x, y, rhs = _bracket_identity("field_field", (1, 2), (2, 1), parts)
    (_c, z), = rhs
    ops = [op for op in (*x, *y, *z) if op.terms]
    assert not any(op._cache for op in ops)
    packed = []
    code = operators._mono_code
    monkeypatch.setattr(operators, "_mono_code", lambda mono: packed.append(mono) or code(mono))
    _residual(x, y, rhs, parts.window)
    assert sorted(packed) == sorted(mono for op in ops for term in op.terms for mono in term)
    for op in ops:
        assert "packed" in op._cache
        assert ("hits" in op._cache) == any(op is u for u in (*x, *y))
    assert z[0].terms and "hits" not in z[0]._cache


def test_suite_builds_hit_indexes_for_right_operands_only(monkeypatch):
    # the verify_suite sweep indexes 89 operators; only the 41 contracted
    # as a right operand of a commutator get a hit index
    monkeypatch.setattr(lie, "_LIVE_PARTS", weakref.WeakValueDictionary())
    indexed = {}
    lazy = Operator._lazy

    def spy(op, key):
        indexed[id(op)] = op
        return lazy(op, key)

    monkeypatch.setattr(Operator, "_lazy", spy)
    run_bracket_suite([2, 3, 5, 10], 5, 9)
    ops = list(indexed.values())
    assert len(ops) == 89 and all("packed" in op._cache for op in ops)
    assert sum("hits" in op._cache for op in ops) == 41


def _suite_operators(monkeypatch):
    """The operators the verify_suite sweep indexes, run with no member
    live and every per-process table empty."""
    monkeypatch.setattr(lie, "_LIVE_PARTS", weakref.WeakValueDictionary())
    for table in (operators._mono_code, _packed_hits, _index_multisets):
        table.cache_clear()
    indexed = {}
    lazy = Operator._lazy

    def spy(op, key):
        indexed[id(op)] = op
        return lazy(op, key)

    monkeypatch.setattr(Operator, "_lazy", spy)
    run_bracket_suite([2, 3, 5, 10], 5, 9)
    return list(indexed.values())


def test_suite_builds_each_table_entry_once(monkeypatch):
    # the code table packs each distinct monomial of the 89 indexed
    # operators once (295), and the hits table each (monomial, cap) once
    # (271): the multipliers of the 41 contracted operators with no cap,
    # and their partials for the one-factor Leibniz tables, the only size
    # the suite's one-variable multipliers reach.  The constructors' tables
    # build each entry once: one per variable of those one-variable
    # multipliers (31), and the q-partials once per field member's m (8):
    # each key is logged as the table builds it
    built = {}
    for name in ("_variable", "_q_partials"):
        log, build = built.setdefault(name, []), getattr(lie, name).__wrapped__
        table = lru_cache(maxsize=None)(lambda *key, log=log, build=build: log.append(key) or build(*key))
        monkeypatch.setattr(lie, name, table)
    ops = _suite_operators(monkeypatch)
    variables = {(k, i) for op in ops for mult, _parts in op.terms for i, k, e in mult
                 if len(mult) == 1 and e == 1}
    assert sorted(built["_variable"]) == sorted(variables) and len(variables) == 31
    # the field members reach m = 8 (the right-hand side of [field(4,*), field(5,*)])
    assert sorted(built["_q_partials"]) == [(m - 1, 9) for m in range(1, 9)]
    monos = {mono for op in ops for term in op.terms for mono in term}
    hit_keys = set()
    for op in ops:
        if "hits" in op._cache:
            hit_keys |= {(mult, inf) for mult, _parts in op.terms}
        sizes = [key for key in op._cache if isinstance(key, int)]
        hit_keys |= {(parts, n) for n in sizes for _mult, parts in op.terms}
    assert operators._mono_code.cache_info().misses == len(monos) == 295
    assert _packed_hits.cache_info().misses == len(hit_keys) == 271


def test_pack_matches_per_variable_oracle_on_the_suite(monkeypatch):
    # every term of the suite's operators against packing one variable at
    # a time; the packed rows are the terms in partial index-sum order, and
    # the table's largest shift is theirs; every Leibniz entry list is in
    # that order, and so is every entry list of the 41 hit tables, each
    # against one built a variable at a time for hits of one factor or
    # more, with no table for the empty hit
    ops = _suite_operators(monkeypatch)
    assert len(ops) == 89
    hit_indexed = 0
    for op in ops:
        rows, shift = op._lazy("packed")
        assert sorted(rows) == sorted((c, *pack_oracle(term), *term) for term, c in op.terms.items())
        assert [row[1] for row in rows] == sorted(pack_oracle(term)[0] for term in op.terms)
        assert shift == max(term_weight_shift(term) for term in op.terms)
        for size in (key for key in op._cache if isinstance(key, int)):
            for entries in op._cache[size].values():
                assert [e[0] for e in entries] == sorted(e[0] for e in entries), op
        if "hits" in op._cache:
            hit_indexed += 1
            tables = op._cache["hits"]
            for table in tables.values():
                for entries in table.values():
                    assert [e[0] for e in entries] == sorted(e[0] for e in entries), op
            got = {n: {hit: sorted(entries) for hit, entries in table.items()}
                   for n, table in tables.items()}
            assert 0 not in got
            assert got == {n: table for n, table in enumerate(hits_oracle(op)) if n}, op
    assert hit_indexed == 41


def test_index_multisets_match_combinations_oracle():
    # the same monomials, index sums, factorial products and orderings,
    # in the same order
    for count in range(6):
        for cap in range(10):
            assert list(_index_multisets(count, cap)) == index_multisets_oracle(count, cap)


def test_members_match_the_member_oracle():
    # every member with m + n <= 8, and descent, at windows 1..12: the same
    # genus parts, term for term, with the same windows, as the
    # constructors that summed tuple terms through mono_mul
    checked = 0
    for window in range(1, 13):
        parts = _GenusParts(window)
        members = [("descent", 0, 0)] + [
            (family, m, s - m) for family in ("field", "density", "raw_field")
            for s in range(9) for m in range(s + 1)]
        for family, m, n in members:
            got, expected = parts(family, m, n), member_oracle(family, m, n, window)
            assert [(x.terms, x.window) for x in got] == [(x.terms, x.window) for x in expected], (
                family, m, n, window)
            checked += 1
    assert checked == 12 * (1 + 3 * 45)


def test_a_planted_wrong_shift_fails_construction(monkeypatch):
    # the shift law is read from the tables' weights on every member
    # built: a q-variable table whose monomials are one index too high
    # gives terms of the wrong shift, and the field and density members
    # that read it refuse to build
    table = lie._variable

    def planted(kind, i):
        return table(kind, i + 1) if kind == "q" else table(kind, i)

    monkeypatch.setattr(lie, "_variable", planted)
    # a fresh partials table, so that no partial built from the planted
    # variables outlives the test
    monkeypatch.setattr(lie, "_q_partials", lru_cache(maxsize=None)(lie._q_partials.__wrapped__))
    for family, m, n in (("density", 1, 0), ("density", 2, 3), ("field", 1, 2), ("field", 3, 1)):
        with pytest.raises(AssertionError):
            _GenusParts(6)(family, m, n)
    # members that read no q-variable still build
    assert _GenusParts(6)("density", 0, 2)[0].terms
    monkeypatch.undo()
    assert _GenusParts(6)("field", 1, 2)[0] == member_oracle("field", 1, 2, 6)[0]


def test_planted_genus_part_error_names_exactly_the_affected_genera(monkeypatch):
    # shift field(1,1) by (2g - 6) id: wrong at every genus except 3
    build = lie._BUILDERS["field"]

    def planted(m, n, parts):
        a, b = build(m, n, parts)
        if (m, n) == (1, 1):
            return a - 6 * Operator.identity(), b + 2 * Operator.identity()
        return a, b

    monkeypatch.setitem(lie._BUILDERS, "field", planted)
    summary = run_bracket_suite([2, 3, 5, 10], max_order=3, window=6, jobs=1)
    failures = summary["failures"]
    assert failures and {f["genus"] for f in failures} == {2, 5, 10}
    by_genus = {g: sorted(f["identity"] for f in failures if f["genus"] == g) for g in (2, 5, 10)}
    assert by_genus[2] == by_genus[5] == by_genus[10]
    assert "[field(0,2), field(2,0)]" in by_genus[2]
    assert all(list(f) == ENTRY_KEYS + ["counterexample"] for f in failures)
    with pytest.raises(VerificationFailure) as info:
        verify_bracket("field_field", {"max_order": 3}, LieContext(5, 6))
    assert info.value.entry["genus"] == 5 and info.value.entry["status"] == "fail"
    assert verify_bracket("field_field", {"max_order": 3}, LieContext(3, 6))


@pytest.mark.parametrize("g", [2, 3, 7])
def test_h_from_its_definition_equals_minus_field11(g):
    for window in (1, 2, 4, 8, 10):
        ctx = LieContext(g, window)
        assert sl2_triple(ctx).h == -field_op(1, 1, ctx), window


def test_planted_field11_error_fails_the_h_identity(monkeypatch):
    # h is built from its definition, so an error in field(1,1) is caught
    # by h = -field(1,1) and not by the brackets of the triple
    build = lie._BUILDERS["field"]

    def planted(m, n, parts):
        a, b = build(m, n, parts)
        if (m, n) == (1, 1):
            return a + Operator({(((2, "q", 1),), ((2, "q", 1),)): 1}, 8), b
        return a, b

    monkeypatch.setitem(lie._BUILDERS, "field", planted)
    with pytest.raises(VerificationFailure) as info:
        verify_bracket("sl2", {"max_order": 4}, LieContext(3, 8))
    assert info.value.entry["identity"] == "h = -field(1,1)"
    assert info.value.entry["counterexample"] == "1 * q2 * d(q2)"


def test_planted_off_shift_term_fails_only_the_bigrading(monkeypatch):
    # q3 d(p1) shifts (weight, s-degree) by (2, 3), not by field(1,2)'s
    # (1, 1), but h scales it by 2*2 - 3 = 1 = n - m, as it does
    # field(1,2): [h, field(1,2)] still holds, so only the bigrading fails
    build = lie._BUILDERS["field"]

    def planted(m, n, parts):
        a, b = build(m, n, parts)
        if (m, n) == (1, 2):
            return a + Operator.single(1, ((3, "q", 1),), ((1, "p", 1),)), b
        return a, b

    monkeypatch.setitem(lie._BUILDERS, "field", planted)
    gc.collect()  # no live context holds unplanted window 7 members
    with pytest.raises(VerificationFailure) as info:
        verify_bracket("grading", {"max_order": 4}, LieContext(3, 7))
    entry = info.value.entry
    assert entry["identity"] == "field(1,2) is bigraded of shift (1, 1)"
    assert entry["params"] == {"max_weight": 7}
    assert entry["counterexample"] == "1 * q3 * d(p1)"
    # the term's partials have index-sum 1: weight 0 alone cannot see it
    assert verify_bracket("grading", {"max_order": 4, "max_weight": 0}, LieContext(3, 7))


def test_planted_h_term_fails_the_cartan_law(monkeypatch):
    sl2_parts = lie._sl2_parts

    def planted(parts):
        e, f, (a, b) = sl2_parts(parts)
        return lie.Sl2(e, f, (a + Operator.single(1, ((3, "q", 1),), ((3, "q", 1),)), b))

    monkeypatch.setattr(lie, "_sl2_parts", planted)
    with pytest.raises(VerificationFailure) as info:
        verify_bracket("grading", {"max_order": 4}, LieContext(3, 7))
    entry = info.value.entry
    assert entry["identity"] == "h acts by 2w - s - g"
    assert entry["params"] == {"max_weight": 7}
    assert entry["counterexample"] == "1 * q3 * d(q3)"


def test_run_bracket_suite_ignores_jobs():
    assert run_bracket_suite([2, 5], 3, 6, jobs=1) == run_bracket_suite([2, 5], 3, 6, jobs=4)


def test_sweep_parameter_errors():
    with pytest.raises(InvalidParameter):
        run_bracket_suite([], 4, 8)
    with pytest.raises(InvalidParameter):
        run_bracket_suite([2], 4, 3)
    # a repeated genus would count its identities twice in ``checked``
    for genera in ([2, 2], [3, 2, 3]):
        with pytest.raises(InvalidParameter):
            run_bracket_suite(genera, 3, 6)
    run_bracket_suite([2], 4, 4)
    for kind in ("field_field", "raw_field", "grading"):
        with pytest.raises(InvalidParameter):
            verify_bracket(kind, {"max_order": 4}, LieContext(2, 3))
        assert verify_bracket(kind, {"max_order": 4}, LieContext(2, 4))
    with pytest.raises(InvalidParameter):
        verify_bracket("sl2", {"max_order": 4}, LieContext(2, 5))
    assert len(verify_bracket("sl2", {"max_order": 4}, LieContext(2, 6))) == 30
    # below order 2 there is no field member: an error, not a vacuous pass
    with pytest.raises(InvalidParameter):
        run_bracket_suite([2], 1, 5)
    for kind in ("field_field", "field_density", "raw_field", "sl2", "grading"):
        with pytest.raises(InvalidParameter):
            verify_bracket(kind, {"max_order": 1}, LieContext(2, 5))
    # a negative max_weight checks no monomial: an error, not a vacuous pass
    with pytest.raises(InvalidParameter):
        verify_bracket("grading", {"max_order": 2, "max_weight": -1}, LieContext(2, 4))
    # an unknown kind is bad input, typed like every other parameter error
    with pytest.raises(InvalidParameter):
        verify_bracket("bogus", {"max_order": 4}, LieContext(2, 4))


def test_report_entry_key_order():
    assert list(report_entry("x", {}, 2, 5)) == ENTRY_KEYS
    assert list(report_entry("x", {}, 2, 5, "fail", "d")) == ENTRY_KEYS + ["counterexample"]
    for entry in verify_bracket("sl2", {"max_order": 2}, LieContext(2, 4)):
        assert list(entry) == ENTRY_KEYS


def test_run_bracket_suite_small():
    summary = run_bracket_suite([2, 5], max_order=3, window=6, jobs=1)
    assert summary["failures"] == []
    assert summary["checked"] == sum(summary["counts"].values())
    # both genera got every pair
    for kind in ("field_field", "field_density", "density_density"):
        assert summary["counts"]["%s@g2" % kind] == summary["counts"]["%s@g5" % kind]


def test_benchmark_bracket_suite_summary_is_pinned():
    # the sweep the benchmark's verify_suite workload runs: 2,964
    # identities, no failures, and the summary byte for byte
    summary = run_bracket_suite([2, 3, 5, 10], 5, 9)
    assert summary["checked"] == 2964 and summary["failures"] == []
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    assert digest == "2ce68432253deefe1d779277eb190568124bb22e599a1f974923c2ee7a7b6bfa"


def test_verification_failure_carries_counterexample():
    entry = report_entry("x", {}, 2, 4, "fail", "-2 * q3 * d(p1)")
    err = VerificationFailure(entry)
    assert err.entry["identity"] == "x"
    assert err.entry["counterexample"] == "-2 * q3 * d(p1)"
    assert "identity" in str(err) and "-2 * q3 * d(p1)" in str(err)

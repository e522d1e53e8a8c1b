from fractions import Fraction
from math import inf

import pytest

from helpers import (
    ApplyOracle,
    all_monomials_up_to,
    equal_within,
    leibniz_apply,
    mono_from_str,
    pack_oracle,
    random_operator,
    random_poly,
    residual_oracle,
    seeded,
)
from tautjac.errors import InvalidParameter, WindowExceeded
from tautjac.lie import (
    LieContext,
    _residual,
    density_op,
    density_params,
    descent_op,
    field_op,
    field_params,
    sl2_triple,
)
from tautjac.operators import (
    EXPONENT_BOUND,
    Operator,
    _decoded,
    _mono_code,
    _packed_hits,
    mul_op,
)
from tautjac.poly import Poly, enumerate_monomials, p, q


def test_apply_examples():
    assert (mul_op(q(1)) @ Operator.derivative("p1")).apply(p(1) ** 2) == 2 * p(1) * q(1)
    assert (mul_op(p(2)) @ Operator.derivative("p1")).apply(p(1) * q(1)) == p(2) * q(1)
    assert Operator.derivative("p1", "p2").apply(p(1) * p(2) * q(1)) == q(1)
    for name in ("p٣", "q１２"):  # names read ASCII digits only, as expressions do
        with pytest.raises(InvalidParameter, match="variable name"):
            Operator.derivative(name)


def test_apply_matches_leibniz_oracle():
    # the sub-multiset table against differentiating each (monomial,
    # term) pair directly
    cases = [(descent_op(LieContext(3, w)), min(w, 8)) for w in range(2, 10)]
    ctx = LieContext(3, 8)
    cases += [(field_op(m, n, ctx), 8) for m, n in field_params(4)]
    cases += [(density_op(m, n, ctx), 8) for m, n in density_params(4)]
    cases += [(sl2_triple(ctx).h, 8), (mul_op(p(1)), 8), (Operator.identity(), 8)]
    monomials = list(all_monomials_up_to(8))
    for op, max_weight in cases:
        for f in monomials:
            if f.max_weight() > max_weight:
                break
            assert op.apply(f) == leibniz_apply(op, f), (op, f)
    rng = seeded(29)
    repeated = 0
    for _ in range(200):
        op, f = random_operator(rng, max_terms=4), random_poly(rng)
        repeated += any(e > 1 for _m, parts in op.terms for _i, _k, e in parts)
        assert op.apply(f) == leibniz_apply(op, f), (op, f)
    assert repeated >= 20


def test_compose_leibniz():
    got = Operator.derivative("p1") @ mul_op(p(1))
    expected = (mul_op(p(1)) @ Operator.derivative("p1")) + Operator.identity()
    assert got == expected
    got = Operator.derivative("p1", "p1") @ mul_op(p(1))
    expected = (mul_op(p(1)) @ Operator.derivative("p1", "p1")) + 2 * Operator.derivative("p1")
    assert got == expected


def test_commutator_examples():
    assert Operator.derivative("p1").commutator(mul_op(p(1))) == Operator.identity()
    assert Operator.derivative("p1", "p1").commutator(mul_op(p(1))) == 2 * Operator.derivative("p1")
    a = mul_op(q(1)) @ Operator.derivative("p1")
    b = mul_op(p(1)) @ Operator.derivative("q1")
    got = a.commutator(b)
    expected = (mul_op(q(1)) @ Operator.derivative("q1")) - (
        mul_op(p(1)) @ Operator.derivative("p1")
    )
    # derived oracle: agree on every monomial of weight <= 4
    for f in all_monomials_up_to(4):
        assert got.apply(f) == expected.apply(f)
    assert got == expected


def test_compose_apply_consistency_randomized():
    rng = seeded(7)
    for _ in range(25):
        a = random_operator(rng)
        b = random_operator(rng)
        ab = a @ b
        for f in all_monomials_up_to(6):
            assert ab.apply(f) == a.apply(b.apply(f)), (a, b, f)


def test_commutator_apply_oracle_randomized():
    # [a, b] is formed from contraction terms alone; a(b(f)) - b(a(f))
    # through apply is the oracle, with multi-variable multipliers and
    # repeated variables (hits of order 2) in the mix
    rng = seeded(17)
    oracle = ApplyOracle()
    multi = 0
    for _ in range(60):
        a = random_operator(rng, max_terms=4)
        b = random_operator(rng, max_terms=4)
        multi += sum(len(mult) > 1 for mult, _parts in b.terms)
        bracket = a.commutator(b)
        assert bracket.window == inf
        for f in all_monomials_up_to(6):
            assert bracket.apply(f) == oracle.commutator(a, b, f), (a, b, f)
        assert bracket == (a @ b) - (b @ a)
    assert multi >= 10


def test_products_apply_oracle_repeated_hits():
    # multipliers of degree 2 and 3 with repeated variables, so hits of
    # two and three factors; compose, commutator and the commutator
    # summed below a limit against apply-only oracles
    mono = mono_from_str
    ops = [
        Operator.single(2, mono("p2^2*q1^3"), mono("p1")),
        Operator.single(-3, mono("p1"), mono("p2^2*q1^2")),
        Operator.single(Fraction(1, 2), mono("p1^2*q1^2"), mono("p1*q1")),
        Operator.single(5, mono("p2*q1"), mono("p2*q1^2")),
        Operator({(mono("p1^3"), mono("p1^2")): 7, (mono("q1^2*p2"), mono("q1^3")): -1}),
    ]
    oracle = ApplyOracle()
    for a in ops:
        for b in ops:
            ab, bracket = a @ b, a.commutator(b)
            for f in all_monomials_up_to(7):
                assert ab.apply(f) == oracle.apply(a, oracle.apply(b, f)), (a, b, f)
                assert bracket.apply(f) == oracle.commutator(a, b, f), (a, b, f)
            for limit in range(6):
                out = {}
                a._commute_into(b, out, limit)
                for f in all_monomials_up_to(limit):
                    assert _decoded(out, limit).apply(f) == oracle.commutator(a, b, f), (a, b, f)
    assert all(any(op._lazy(k) for op in ops) for k in (2, 3))


def test_products_match_oracle_on_windowed_and_unbounded_pairs():
    # a windowed pair whose limit (one below its commutator's window)
    # falls inside a Leibniz entry list, and pairs with window inf on
    # one or both sides
    ctx = LieContext(3, 6)
    a, b = field_op(3, 1, ctx), field_op(1, 3, ctx)
    unbounded = mul_op(p(2) * q(1) + 3 * p(1) ** 2)
    limit = a.commutator(b).window - 1
    cut = False
    for size, table in b._lazy("hits").items():
        for hit, entries in table.items():
            lsums = [lsum for lsum, _code, _ac in a._lazy(size).get(hit, ())]
            for bsum, _code, _bc in entries:
                cut |= bool(lsums) and min(lsums) <= limit - bsum < max(lsums)
    assert cut
    oracle = ApplyOracle()
    for x, y in [(a, b), (b, a), (a, unbounded), (unbounded, b), (unbounded, Operator.derivative("p1", "q1"))]:
        xy, bracket = x @ y, x.commutator(y)
        assert bracket.window == min(xy.window, (y @ x).window)
        top = 6 if bracket.window == inf else bracket.window
        out = {}
        x._commute_into(y, out, top - 1)
        for f in all_monomials_up_to(top):
            if f.max_weight() <= xy.window:
                assert xy.apply(f) == oracle.apply(x, oracle.apply(y, f)), (x, y, f)
            assert bracket.apply(f) == oracle.commutator(x, y, f), (x, y, f)
            if f.max_weight() < top:
                assert _decoded(out, top - 1).apply(f) == oracle.commutator(x, y, f), (x, y, f)


def _cut_cases():
    """Windowed members at window 6 and at window 2 (where some products
    have a negative window), unbounded operators, and one with repeated
    variables, so hits of two and three factors."""
    ctx, small = LieContext(3, 6), LieContext(2, 2)
    mono = mono_from_str
    return [
        field_op(3, 1, ctx), field_op(1, 3, ctx), density_op(2, 2, ctx), descent_op(ctx),
        field_op(0, 6, small), descent_op(small),
        mul_op(p(2) * q(1) + 3 * p(1) ** 2), Operator.derivative("p1", "q1"),
        Operator({(mono("p1^3"), mono("p1^2")): 7, (mono("q1^2*p2"), mono("q1^3")): -1}),
    ]


def _contraction_floor(x, y):
    """The smallest partial index-sum of a contraction term of x o y (inf
    when there is none): over the hit codes both tables hold, the smallest
    right and left index-sums, found without relying on their order."""
    return min((min(e[0] for e in rights[hit]) + min(e[0] for e in x._lazy(size)[hit])
                for size, rights in y._lazy("hits").items()
                for hit in rights.keys() & x._lazy(size).keys()), default=inf)


def _terms_within(op, w):
    return op.terms if w == inf else op.truncated(w).terms


def test_contract_stops_match_oracles():
    # commutators summed below their smallest contraction term (every
    # right entry list stops at its first entry), at a negative limit, at
    # that smallest term and with no limit, against the public commutator
    # truncated, the residual oracle and products through apply alone
    ops = _cut_cases()
    oracle = ApplyOracle()
    joined = 0
    for x in ops:
        for y in ops:
            bracket, diff = x.commutator(y), (x @ y) - (y @ x)
            assert bracket == (diff if diff.window == inf else diff.truncated(diff.window))
            floor = min(_contraction_floor(x, y), _contraction_floor(y, x))
            if floor == inf:
                assert bracket.is_zero()
                continue
            joined += 1
            top = 5 if bracket.window == inf else min(bracket.window, 5)
            for limit in (floor - 1, -1, floor, inf):
                out = {}
                x._commute_into(y, out, limit)
                got, w = _decoded(out, limit), min(limit, bracket.window)
                assert _terms_within(got, w) == _terms_within(bracket, w), (x, y, limit)
                assert bool(out) == (limit >= floor), (x, y, limit)
                for f in all_monomials_up_to(top if limit == inf else min(top, limit)):
                    assert got.apply(f) == oracle.commutator(x, y, f), (x, y, limit, f)
            res, w = _residual((x,), (y,), [], 6)
            expected, ew = residual_oracle((x,), (y,), [], 6)
            assert w == ew
            assert [r.terms for r in res or [Operator.zero()]] == [r.terms for r in expected]
    assert joined >= 40


def test_add_into_stops_at_every_limit():
    # a right-hand-side sum reads the packed rows in partial index-sum
    # order and stops at the first one above its limit: at every limit
    # from -1 to the window (or the largest index-sum), the terms it adds
    # are the scaled operator truncated there
    stopped = 0
    for op in _cut_cases():
        sums = [pack_oracle(term)[0] for term in op.terms]
        top = max(sums) if op.window == inf else op.window
        for limit in range(-1, top + 1):
            for scale in (1, -3, Fraction(1, 2)):
                out = {}
                op._add_into(out, scale, limit)
                assert _decoded(out, limit).terms == (scale * op).truncated(limit).terms
            stopped += min(sums) <= limit < max(sums)
    assert stopped >= 10


def test_compose_reads_uncontracted_products_from_packed_rows():
    # x o y, its uncontracted products read from the packed rows and cut
    # at its window: windowed pairs (some cut inside the rows, one with a
    # negative window) and unbounded ones, against products through apply
    # alone; no term lies above the window
    ops = _cut_cases()
    oracle = ApplyOracle()
    cut = negative = 0
    for x in ops:
        for y in ops:
            xy = x @ y
            win = xy.window
            if win != inf:
                assert all(pack_oracle(term)[0] <= win for term in xy.terms), (x, y)
                sums = [pack_oracle(a)[0] + pack_oracle(b)[0] for a in x.terms for b in y.terms]
                cut += min(sums) <= win < max(sums)
                negative += win < 0
            for f in all_monomials_up_to(5 if win == inf else min(win, 5)):
                assert xy.apply(f) == oracle.apply(x, oracle.apply(y, f)), (x, y, f)
    assert cut >= 10 and negative >= 1


def test_packing_bound_is_exact_or_refuses():
    # exponents just below the bound pack exactly, and their products
    # (up to twice the bound) decode exactly; one at the bound refuses
    top = EXPONENT_BOUND - 1
    a = Operator.single(2, mono_from_str("p1^%d*q2" % top), mono_from_str("q1"))
    b = Operator.single(-3, mono_from_str("p1^%d*q1^%d" % (top, top)), mono_from_str("p2"))
    ab = a @ b
    assert max(e for mult, _parts in ab.terms for _i, _k, e in mult) == 2 * top
    bracket = a.commutator(b)
    for f in [p(2), p(2) * q(1), p(2) ** 2 * q(1) ** 3, p(1) * p(2) * q(1) * q(2)]:
        assert ab.apply(f) == leibniz_apply(a, leibniz_apply(b, f)), f
        assert bracket.apply(f) == ab.apply(f) - leibniz_apply(b, leibniz_apply(a, f)), f
    at_bound = Operator.single(1, mono_from_str("q3^%d" % EXPONENT_BOUND), mono_from_str("p1"))
    f = p(1) * q(3)
    assert at_bound.apply(f) == leibniz_apply(at_bound, f)
    for x, y in [(at_bound, b), (b, at_bound), (ab, a)]:
        with pytest.raises(InvalidParameter, match="packing bound %d" % EXPONENT_BOUND):
            x @ y
        with pytest.raises(InvalidParameter, match="packing bound %d" % EXPONENT_BOUND):
            x.commutator(y)


def test_apply_is_exact_past_the_packing_bound():
    # apply divides each hit out of the monomial and multiplies by
    # monomials, so no exponent of the input is packed; hit codes hold 16
    # bits a variable, so a term with 2^16 partials refuses (d(p1)^65536
    # would share its code with d(q1))
    d = descent_op(LieContext(3, 202))
    f = p(1) ** 200 * p(2)
    assert d.apply(f) == leibniz_apply(d, f) == 39800 * p(1) ** 199 * p(2) - p(1) ** 200 * q(1)
    # apply enumerates a monomial's hits afresh each time and keeps no table
    kept = _packed_hits.cache_info().currsize
    for op in (d, sl2_triple(LieContext(4, 9)).f, field_op(3, 1, LieContext(4, 9))):
        for m in enumerate_monomials(6):
            op.apply(7 * Poly.monomial(m) + q(2))
    assert _packed_hits.cache_info().currsize == kept
    wide = Operator.single(1, partials=mono_from_str("p1^%d" % (1 << 16)))
    with pytest.raises(InvalidParameter, match="at or above 2\\^16"):
        wide.apply(q(1))


def test_image_codes_match_leibniz_oracle():
    # image_codes adds codes: its nonzero entries are the packed monomials
    # of the leibniz_apply image, sums past the bound included (p1^127 times
    # p1^126); a monomial or a multiplier at the bound refuses
    rng = seeded(41)
    top = EXPONENT_BOUND - 1
    big = Operator.single(3, mono_from_str("p1^%d*q2" % top), mono_from_str("p1*q2"))
    cases = [(big, mono_from_str("p1^%d*q2^3" % top))]
    ctx = LieContext(3, 8)
    ops = [descent_op(ctx), sl2_triple(ctx).h, mul_op(p(1))]
    ops += [field_op(m, n, ctx) for m, n in field_params(3)]
    cases += [(op, f) for op in ops for f in enumerate_monomials(5) + enumerate_monomials(8)]
    cases += [(random_operator(rng, max_terms=4), m) for _ in range(200)
              for m in random_poly(rng).terms]
    for op, mono in cases:
        expected = leibniz_apply(op, Poly.monomial(mono)).terms
        got = {code: c for code, c in op.image_codes(mono).items() if c}
        assert got == {pack_oracle((m, ()))[1]: c for m, c in expected.items()}, (op, mono)
    at_bound = mono_from_str("p1^%d" % EXPONENT_BOUND)
    with pytest.raises(InvalidParameter, match="packing bound %d" % EXPONENT_BOUND):
        Operator.derivative("p1").image_codes(at_bound)
    with pytest.raises(InvalidParameter, match="packing bound %d" % EXPONENT_BOUND):
        Operator.single(1, at_bound, mono_from_str("q1")).image_codes(mono_from_str("q1"))
    with pytest.raises(WindowExceeded):
        descent_op(LieContext(3, 4)).image_codes(mono_from_str("p5"))


def test_packing_bound_refuses_on_every_call():
    # the code table keeps no failed entry: the same monomial past the
    # bound raises again, packed alone or through a fresh operator
    bad = mono_from_str("q3^%d" % EXPONENT_BOUND)
    for _ in range(2):
        with pytest.raises(InvalidParameter, match="packing bound %d" % EXPONENT_BOUND):
            _mono_code(bad)
        with pytest.raises(InvalidParameter, match="packing bound %d" % EXPONENT_BOUND):
            Operator.derivative("q3") @ Operator.single(1, bad)


def test_commutator_contracts_each_term_once():
    # a term of b whose multiplier holds two variables (p1, q1) that are
    # both among a's partials is reached through either variable, and
    # must contribute its contractions once; b also has terms that cannot
    # contract (no multiplier, or no variable among a's partials)
    mono = mono_from_str
    a = Operator({
        (mono("q2"), mono("p1")): 3,
        (mono("p2"), mono("q1")): -2,
        (mono("p3"), mono("p1*q1")): 1,
    })
    b = Operator({
        (mono("p1*q1"), mono("p2")): 5,
        (mono("p1^2*q1*q3"), mono("q2")): Fraction(1, 3),
        (mono("q3"), mono("p1")): 7,
        (mono("1"), mono("q1")): -1,
        (mono("p2^2"), mono("1")): 4,
    })
    oracle = ApplyOracle()
    for x, y in ((a, b), (b, a)):
        bracket = x.commutator(y)
        for f in all_monomials_up_to(6):
            assert bracket.apply(f) == oracle.commutator(x, y, f), (x, y, f)
        assert bracket == (x @ y) - (y @ x)
        assert not bracket.is_zero()


def test_commute_into_matches_truncated_commutator():
    # the packed terms _commute_into adds below a limit, decoded, are the
    # public commutator truncated there; with compose, that commutator
    # still matches the leibniz_apply oracle
    rng = seeded(23)
    ops = [random_operator(rng, max_terms=4) for _ in range(10)]
    cut = 0
    for a in ops:
        for b in ops:
            limit = rng.randint(0, 5)
            out = {}
            a._commute_into(b, out, limit)
            bracket = a.commutator(b)
            assert _decoded(out, limit) == bracket.truncated(limit), (a, b, limit)
            cut += len(bracket.truncated(limit).terms) < len(bracket.terms)
            for f in all_monomials_up_to(4):
                ab = leibniz_apply(a, leibniz_apply(b, f))
                assert (a @ b).apply(f) == ab, (a, b, f)
                assert bracket.apply(f) == ab - leibniz_apply(b, leibniz_apply(a, f)), (a, b, f)
    assert cut >= 10


def test_compose_apply_consistency_windowed():
    ctx = LieContext(3, 8)
    a = field_op(2, 1, ctx)
    b = field_op(1, 2, ctx)
    ab = a @ b
    assert ab.window == min(b.window, a.window - (2 - 1))
    for w in range(ab.window + 1):
        for m in enumerate_monomials(w):
            f = Poly.monomial(m)
            assert ab.apply(f) == a.apply(b.apply(f))


def test_composition_associative():
    rng = seeded(11)
    for _ in range(20):
        a, b, c = (random_operator(rng) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)


def _family_samples(ctx):
    return [
        field_op(2, 0, ctx),
        field_op(1, 2, ctx),
        field_op(3, 1, ctx),
        field_op(0, 2, ctx),
    ]


def test_composition_associative_windowed():
    ctx = LieContext(3, 9)
    ops = _family_samples(ctx)
    for a in ops:
        for b in ops:
            for c in ops:
                left = (a @ b) @ c
                right = a @ (b @ c)
                finite = [x for x in (left.window, right.window) if x != inf]
                if finite:
                    assert equal_within(left, right, max(min(finite), 0))
                else:
                    assert left == right  # all factors exact, no window


def test_jacobi_identity():
    rng = seeded(13)
    for _ in range(20):
        a, b, c = (random_operator(rng) for _ in range(3))
        total = (
            a.commutator(b.commutator(c))
            + b.commutator(c.commutator(a))
            + c.commutator(a.commutator(b))
        )
        assert total.is_zero(), (a, b, c)


def test_jacobi_identity_windowed():
    ctx = LieContext(2, 9)
    ops = _family_samples(ctx)
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            for c in ops:
                total = (
                    a.commutator(b.commutator(c))
                    + b.commutator(c.commutator(a))
                    + c.commutator(a.commutator(b))
                )
                w = total.window if total.window != inf else 9
                assert equal_within(total, Operator.zero(), max(w, 0))


def test_op_equal_examples():
    a = Operator.derivative("p1") @ mul_op(p(1))
    b = (mul_op(p(1)) @ Operator.derivative("p1")) + Operator.identity()
    for w in (0, 3, 9):
        assert equal_within(a, b, w)
    assert equal_within(a, a, 5)
    # bracket of the weight-two family members, genus 3, window 8:
    # the exact identity is [field(0,2), field(2,0)] = 4 field(1,1)
    ctx = LieContext(3, 8)
    got = field_op(0, 2, ctx).commutator(field_op(2, 0, ctx))
    w = got.window
    assert equal_within(got, 4 * field_op(1, 1, ctx), w)
    assert not equal_within(got, -4 * field_op(1, 1, ctx), w)
    # and antisymmetry gives the reversed order the opposite sign
    got = field_op(2, 0, ctx).commutator(field_op(0, 2, ctx))
    assert equal_within(got, -4 * field_op(1, 1, ctx), got.window)


def test_window_enforcement():
    ctx = LieContext(2, 4)
    d = field_op(2, 0, ctx)
    with pytest.raises(WindowExceeded):
        d.apply(p(1) * p(2) ** 2)  # weight 5 > window 4
    with pytest.raises(WindowExceeded):
        equal_within(d, d, 5)
    # window inf operators never raise
    mul_op(p(1)).apply(p(4) ** 3)


def test_window_propagation_through_compose():
    ctx = LieContext(2, 6)
    d = field_op(2, 0, ctx)  # weight shift -1
    e = mul_op(p(1))  # shift +1, window inf
    assert (d @ e).window == 6 - 1
    assert (e @ d).window == 6
    assert d.commutator(e).window == 5
    # composing with a lowering operator can extend validity
    assert (e @ d @ d).window == 6


def test_truncated():
    ctx = LieContext(2, 6)
    d = field_op(2, 0, ctx)
    t = d.truncated(3)
    assert t.window == 3
    assert all(sum(i * e for i, _k, e in parts) <= 3 for _m, parts in t.terms)
    assert equal_within(t, d, 3)


def test_zero_and_scalar_algebra():
    z = Operator.zero()
    a = mul_op(q(2))
    assert (a - a).is_zero()
    assert (0 * a).is_zero()
    assert z.apply(p(1) ** 3) == Poly.zero()
    assert (2 * a).apply(Poly.one()) == 2 * q(2)
    assert a.max_weight_shift() == 2
    assert z.max_weight_shift() is None


def test_unbounded_window_is_inf():
    # an operator stored in full has the window inf, however it is built,
    # and a sum or product keeps the smaller window of its operands
    ctx = LieContext(3, 6)
    for op in (Operator({}), Operator({}, None), Operator.zero(None), mul_op(p(1)), field_op(0, 3, ctx)):
        assert op.window == inf
    assert (mul_op(p(1)) @ Operator.derivative("p1") + Operator.identity()).window == inf
    assert (mul_op(p(1)) + field_op(2, 0, ctx)).window == 6
    assert repr(Operator.identity()) == "Operator(1; window=inf)"


def test_debug_text_form():
    term = 3 * (mul_op(p(1) * q(2)) @ Operator.derivative("p1", "p3"))
    assert str(term) == "3 * p1*q2 * d(p1)d(p3)"
    assert str(Operator.zero()) == "0"
    assert str(Operator.identity()) == "1"
    assert str(-2 * Operator.derivative("p1")) == "-2 * d(p1)"
    assert str(Operator.derivative("q1", "q1")) == "1 * d(q1)d(q1)"


def test_term_order_in_text_form():
    a = mul_op(q(1)) @ Operator.derivative("p2")
    b = mul_op(p(2)) @ Operator.derivative("p1")
    assert str(a + b) == str(b + a)  # canonical term order, not insertion order

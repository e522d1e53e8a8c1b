"""Acceptance suite: every check is exact (tolerance zero).

Each test prints one PASS line on success; pytest reports the rest.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from fractions import Fraction
from math import comb, factorial

from helpers import equal_within, exp_apply, mono_pdeg, mono_qdeg, random_operator, random_poly, seeded
from tautjac.fourier import FourierMap
from tautjac.ideal import RelationIdeal
from tautjac.lie import (
    LieContext,
    density_op,
    run_bracket_suite,
    sl2_triple,
    verify_bracket,
)
from tautjac.newton import d_to_w, w_to_d
from tautjac.operators import mul_op
from tautjac.parse import parse_poly
from tautjac.poly import Poly, enumerate_monomials, p, q


def report(number, text):
    print("ACCEPTANCE %2d PASS: %s" % (number, text))


def test_criterion_1_bracket_suite():
    summary = run_bracket_suite([2, 3, 5, 10], max_order=6, window=10)
    assert summary["failures"] == [], summary["failures"][:3]
    assert summary["checked"] == 4 * (300 + 700 + 378)
    report(1, "all %d brackets exact at genera 2,3,5,10, window 10" % summary["checked"])


def test_criterion_2_sl2_identities():
    for g in (2, 3, 5):
        ctx = LieContext(g, 10)
        entries = verify_bracket("sl2", 8, ctx)
        assert all(e["status"] == "ok" for e in entries)
        # explicit spot checks at full order 8
        e, f, h = sl2_triple(ctx)
        got = f.commutator(mul_op(p(4))).commutator(mul_op(p(4)))
        assert equal_within(got, mul_op(-comb(8, 4) * p(7)), got.window)
        got = f.commutator(mul_op(p(4))).commutator(mul_op(q(4)))
        assert equal_within(got, mul_op(-comb(7, 3) * q(7)), got.window)
    report(2, "sl2 triple and nested multiplication brackets exact for n+m <= 8")


def test_criterion_3_genus2_ideal(ideals):
    ideal = RelationIdeal.build(2)
    dims = ideal.quotient_dims()
    assert (dims[0], dims[1], dims[2]) == (1, 2, 2)
    for f in (q(2), q(1) ** 2, p(2) - p(1) * q(1)):
        assert ideal.contains(f)
    report(3, "genus 2 quotient dims (1, 2, 2) and all hand-oracle members")


def test_criterion_4_genus3_ideal():
    ideal = RelationIdeal.build(3)
    members = [
        q(3),
        q(1) * q(2),
        q(1) ** 3,
        q(2) - q(1) ** 2 / 4,
        p(3) - p(1) * q(1) ** 2 / 4,
        p(2) * q(1) - 3 * p(1) * q(1) ** 2 / 4,
    ]
    for f in members:
        assert ideal.contains(f), f
    report(4, "genus 3 derived ideal contains all six listed relations")


def test_criterion_5_general_genus_relations(ideals):
    checked = 0
    for g, ideal in ideals.items():
        assert ideal.contains(p(g) - p(1) * q(g - 1))
        checked += 1
        for i in range(1, g):
            member = (
                p(i) * q(g - i)
                - (Poly.constant(g) if i == 1 else q(i - 1)) * p(1) * q(g - i)
                + comb(g - 1, i) * p(1) * q(g - 1)
            )
            assert ideal.contains(member), (g, i)
            checked += 1
        for m in enumerate_monomials(g):
            if mono_pdeg(m) == 0:
                assert ideal.contains(Poly.monomial(m)), (g, m)
                checked += 1
    report(5, "pg, piq and weight-g pure-q relations for 2 <= g <= 8 (%d members)" % checked)


def test_criterion_6_generator_bounds(ideals):
    for g, ideal in ideals.items():
        for n in range(1, g + 1):
            if 2 * n >= g + 1:  # q_n eliminable in favour of lower q's
                nf = ideal.normal_form(q(n))
                assert all(
                    mono_pdeg(m) == 0 and all(i < n for i, _k, _e in m)
                    for m in nf.terms
                ), (g, n, nf)
            if 2 * n >= g + 2:  # p_n falls into the ideal generated by the q's
                nf = ideal.normal_form(p(n))
                assert nf != p(n)
                assert all(mono_qdeg(m) >= 1 for m in nf.terms), (g, n, nf)
    report(6, "generator bounds: q_n for 2n >= g+1 and p_n for 2n >= g+2, g <= 8")


def test_criterion_7_fourier_suite():
    rng = seeded(71)
    for g in (2, 3):
        ideal = RelationIdeal.build(g)
        fmap = FourierMap(ideal)
        if g == 2:
            assert fmap.transform(q(1)) == p(1) * q(1)
        assert fmap.check_s2() == []
        assert fmap.check_degree_law() == []
        for m in range(5):
            for n in range(5 - m):
                if m + n >= 2:
                    fmap.verify_conjugation(m, n, "field")
                fmap.verify_conjugation(m, n, "density")
        unit = fmap.unit()
        samples = [ideal.normal_form(random_poly(rng)) for _ in range(5)]
        samples += [Poly.one(), q(1), p(1) * q(1)]
        for a in samples:
            assert fmap.pontryagin(unit, a) == ideal.normal_form(a)
            for b in samples:
                ab = fmap.pontryagin(a, b)
                assert ab == fmap.pontryagin(b, a)
                assert fmap.transform(ab) == ideal.normal_form(
                    fmap.transform(a) * fmap.transform(b)
                )
        a, b, c = samples[0], samples[1], samples[-1]
        assert fmap.pontryagin(fmap.pontryagin(a, b), c) == fmap.pontryagin(
            a, fmap.pontryagin(b, c)
        )
    report(7, "transform suite exact at genus 2 and 3 (S^2 law, conjugation, convolution)")


def test_criterion_8_translation_identity():
    ctx = LieContext(2, 9)
    y10 = density_op(1, 0, ctx)
    for i in range(1, 9):
        assert exp_apply(2 * y10, p(i)) == p(i) - 2 * q(i)
        assert exp_apply(2 * y10, q(i)) == q(i)
    report(8, "exp of twice the translation generator: p_i -> p_i - 2 q_i, q_i fixed, i <= 8")


def test_criterion_9_newton_module():
    rng = seeded(91)
    w1, w2 = Fraction(5, 3), Fraction(-7, 2)
    d = w_to_d([w1, w2])
    assert d[0] == -w1 and d[1] == w2 - w1 ** 2 / 2
    count = 0
    for g in range(1, 11):
        for _ in range(10):
            w = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(g)]
            assert d_to_w(w_to_d(w)) == w
            count += 1
    assert count == 100
    t = Fraction(2, 5)
    for g in (4, 10):
        d = w_to_d([t] + [Fraction(0)] * (g - 1))
        assert d == [-(t ** k) / factorial(k) for k in range(1, g + 1)]
    report(9, "newton conversions exact: low-degree formulas, 100 round trips, root powers")


def test_criterion_10_property_suites(ideals):
    rng = seeded(101)
    # compose/apply consistency over all monomials of weight <= 8
    monos = [
        Poly.monomial(m) for w in range(9) for m in enumerate_monomials(w)
    ]
    for _ in range(6):
        a, b = random_operator(rng), random_operator(rng)
        ab = a @ b
        for f in monos:
            assert ab.apply(f) == a.apply(b.apply(f))
    # Jacobi identity on random triples
    for _ in range(8):
        a, b, c = (random_operator(rng) for _ in range(3))
        total = (
            a.commutator(b.commutator(c))
            + b.commutator(c.commutator(a))
            + c.commutator(a.commutator(b))
        )
        assert total.is_zero()
    # grading shifts of the operator families
    ctx = LieContext(3, 8)
    entries = verify_bracket("grading", 4, ctx)
    assert all(e["status"] == "ok" for e in entries)
    # descent- and ideal-stability of every built relation ideal
    for ideal in ideals.values():
        ideal.check_stability()
    # parser round-trip on the canonical corpus emitted by the engine
    corpus = []
    for ideal in (ideals[2], ideals[3]):
        for w in range(ideal.genus + 4):  # up to g+3, monomial rows above g
            corpus.extend(ideal.relation_basis(w))
    fmap = FourierMap(ideals[3])
    corpus += [fmap.transform(q(1)), fmap.unit(), Poly.zero()]
    for f in corpus:
        assert parse_poly(str(f)) == f
    report(10, "property suites green: operators, gradings, stability, parser (%d corpus polys)" % len(corpus))

import hashlib
import json
from collections import Counter

import pytest

from fractions import Fraction

import tautjac.fourier
from helpers import (
    basis_law_oracle,
    conjugation_oracle,
    images,
    leibniz_apply,
    named,
    plant_column,
    pontryagin_oracle,
    pontryagin_uncut,
    random_poly,
    seeded,
    series_transform,
)
from tautjac.errors import InvalidParameter, NotNilpotent, VerificationFailure
from tautjac.fourier import FourierMap, _over_lcm, exp_apply, minus_one_pullback
from tautjac.ideal import RelationIdeal, _closure_tables
from tautjac.lie import LieContext, density_op, descent_op, field_op
from tautjac.operators import Operator, _mono_code, _packed_hits, mul_op
from tautjac.poly import Poly, enumerate_monomials, mono_str, mono_weight, p, q


@pytest.fixture(scope="module")
def fmap_g2(ideal_g2):
    return FourierMap(ideal_g2)


@pytest.fixture(scope="module")
def fmap_g3(ideal_g3):
    return FourierMap(ideal_g3)


def test_exp_apply_zero_operator(ideal_g2):
    f = p(1) + q(1) ** 2
    assert exp_apply(Operator.zero(), f, ideal_g2) == ideal_g2.normal_form(f)
    assert exp_apply(Operator.zero(), f) == f


def test_exp_apply_raising_mod_genus2(ideal_g2):
    assert exp_apply(mul_op(p(1)), q(1), ideal_g2) == q(1) + p(1) * q(1)


def test_exp_apply_translation_identity():
    ctx = LieContext(3, 9)
    y10 = density_op(1, 0, ctx)
    for i in range(1, 9):
        assert exp_apply(2 * y10, p(i)) == p(i) - 2 * q(i)
        assert exp_apply(2 * y10, q(i)) == q(i)


def test_exp_apply_heavy_input_vanishes(ideal_g2):
    # weight 6 > genus 2: zero on the quotient, so its exponential is too
    assert exp_apply(mul_op(p(1)), p(3) ** 2, ideal_g2) == Poly.zero()
    assert exp_apply(mul_op(p(1)), p(3) ** 2 + q(1), ideal_g2) == q(1) + p(1) * q(1)


def test_exp_apply_nilpotence_guards(ideal_g2):
    # weight-preserving term that keeps the p-degree
    bad = mul_op(p(1)) @ Operator.derivative("p1")
    with pytest.raises(NotNilpotent):
        exp_apply(bad, p(1), ideal_g2)
    # raising needs a quotient
    with pytest.raises(NotNilpotent):
        exp_apply(mul_op(p(1)), p(1))
    # mixed raising and lowering
    ctx = LieContext(2, 6)
    mixed = mul_op(p(1)) + descent_op(ctx)
    with pytest.raises(NotNilpotent):
        exp_apply(mixed, p(1), ideal_g2)


def test_transform_hand_values_genus2(fmap_g2):
    assert fmap_g2.transform(q(1)) == p(1) * q(1)
    assert fmap_g2.transform(fmap_g2.transform(q(1))) == -q(1)
    assert fmap_g2.transform(fmap_g2.transform(Poly.one())) == Poly.one()


@pytest.mark.parametrize("genus", [2, 3, 4, 5, 6])
def test_transform_matches_series_oracle(genus, ideals):
    ideal = ideals[genus]
    fmap = FourierMap(ideal)
    basis = [Poly.monomial(m) for _w, _s, m in fmap.quotient_basis()]
    rows = [Poly(row) for w in range(genus + 1) for row in ideal.spaces[w].sorted_rows()]
    pivots = [Poly.monomial(m) for w in range(genus + 1) for m in named(w, ideal.spaces[w].pivots)]
    heavy = [Poly.monomial(m) for w in (genus + 1, genus + 2) for m in enumerate_monomials(w)]
    rng = seeded(41 + genus)

    def combination(pool, k):
        return sum(
            (Fraction(rng.randint(-5, 5), rng.randint(1, 3)) * rng.choice(pool)
             for _ in range(k)),
            Poly.zero(),
        )

    inputs = basis + rows + pivots + heavy[:20] + [Poly.zero()]
    for _ in range(10):
        inputs.append(combination(basis, 4))
        inputs.append(combination(pivots, 2) + combination(basis, 2))
        inputs.append(combination(heavy, 2) + combination(basis + pivots, 2))
    for f in inputs:
        assert fmap.transform(f) == series_transform(ideal, f), f
    for row in rows:
        assert fmap.transform(row) == Poly.zero(), row


def test_descent_applied_once_per_basis_monomial(monkeypatch, ideal_g3):
    # S is built from the columns of e and D: one image of e, then one of
    # descent, per basis monomial, read as codes, and no series and no
    # apply; nothing after that runs a series or images descent again, and
    # op(m,n) and op(n,m) share their columns
    series, make = tautjac.fourier.exp_apply, tautjac.fourier.descent_op
    image_codes, apply = Operator.image_codes, Operator.apply
    series_calls, descents, imaged, applied = [], [], [], []

    def counted_series(*args):
        series_calls.append(args)
        return series(*args)

    def spy_descent(ctx):
        descents.append(make(ctx))
        return descents[-1]

    def counted_images(op, mono, **keep):
        imaged.append(("descent" if any(op is d for d in descents) else "other", mono))
        return image_codes(op, mono, **keep)

    def counted_apply(op, f):
        applied.append(f)
        return apply(op, f)

    monkeypatch.setattr(tautjac.fourier, "exp_apply", counted_series)
    monkeypatch.setattr(tautjac.fourier, "descent_op", spy_descent)
    monkeypatch.setattr(Operator, "image_codes", counted_images)
    monkeypatch.setattr(Operator, "apply", counted_apply)
    fmap = FourierMap(ideal_g3)
    monos = [m for _w, _s, m in fmap.quotient_basis()]
    basis = [Poly.monomial(m) for m in monos]
    assert imaged == [] and len(basis) == 10
    assert len(images(fmap)) == 10
    assert len(descents) == 1
    assert imaged == [("other", m) for m in monos] + [("descent", m) for m in monos]
    imaged.clear()
    fmap.transform(p(1) + q(2))
    fmap.inverse(q(1))
    fmap.pontryagin(q(1), p(1))
    assert fmap.check_s2() == [] and fmap.check_degree_law() == []
    assert imaged == []
    fmap.verify_conjugation(0, 2, "field")
    assert imaged == [("other", m) for m in monos + monos]
    fmap.verify_conjugation(2, 0, "field")
    fmap.verify_conjugation(0, 2, "field")
    assert len(imaged) == 2 * len(basis)
    assert series_calls == [] and len(descents) == 1 and applied == []
    columns = images(fmap)
    for m, b in zip(monos, basis):
        assert columns[m] == series_transform(ideal_g3, b)


@pytest.mark.parametrize("genus", [7, 8])
def test_images_match_series_oracle_large_genus(genus, ideals):
    columns = images(FourierMap(ideals[genus]))
    assert len(columns) == {7: 110, 8: 185}[genus]
    for m, img in columns.items():
        assert img == series_transform(ideals[genus], Poly.monomial(m)), m


@pytest.mark.parametrize("genus, digest", [
    (9, "7c416c2fbd7c13de80a7578e0cb31a52ed9d5d03b6d78061fe264984526b40db"),
    (10, "b7ca374e2980cdddf4f531841d78b25ff9ec55a7bc4515e88db21f764362294e"),
])
def test_s_map_pinned_beyond_series_oracle(genus, digest):
    # S in lowest terms (no factor common to the scale and every entry)
    # is unique, so its canonical form (the scale, then the columns
    # sorted by monomial) is pinned where the series oracle is too slow
    scale, cols = FourierMap(RelationIdeal.build(genus))._s_map
    canon = [scale] + [
        [mono_str(m)] + [[mono_str(d), c] for d, c in sorted(cols[m].items())] for m in sorted(cols)
    ]
    assert hashlib.sha256(json.dumps(canon, separators=(",", ":")).encode()).hexdigest() == digest


def test_minus_one_pullback():
    assert minus_one_pullback(p(1)) == p(1)
    assert minus_one_pullback(q(1)) == -q(1)
    assert minus_one_pullback(p(1) * q(1) ** 2) == p(1) * q(1) ** 2
    assert minus_one_pullback(Poly.zero()) == Poly.zero()


def test_transform_is_linear(fmap_g3, ideal_g3):
    rng = seeded(23)
    for _ in range(10):
        a = ideal_g3.normal_form(random_poly(rng))
        b = ideal_g3.normal_form(random_poly(rng))
        assert fmap_g3.transform(a + b) == fmap_g3.transform(a) + fmap_g3.transform(b)
        assert fmap_g3.transform(3 * a) == 3 * fmap_g3.transform(a)


@pytest.mark.parametrize("genus", [2, 3])
def test_s2_and_degree_law(genus, ideal_g2, ideal_g3):
    fmap = FourierMap(ideal_g2 if genus == 2 else ideal_g3)
    assert fmap.check_s2() == []
    assert fmap.check_degree_law() == []


def test_s2_informative_for_higher_genus(ideals):
    for g in (4, 5, 6):
        fmap = FourierMap(ideals[g])
        assert fmap.check_s2() == [], g
        assert fmap.check_degree_law() == [], g


def test_inverse_really_inverts(fmap_g2, fmap_g3):
    for fmap in (fmap_g2, fmap_g3):
        for _w, _s, m in fmap.quotient_basis():
            b = Poly.monomial(m)
            assert fmap.transform(fmap.inverse(b)) == b
            assert fmap.inverse(fmap.transform(b)) == b


def test_conjugation_examples(fmap_g2):
    assert fmap_g2.verify_conjugation(0, 2, "field")[0]["status"] == "ok"
    assert fmap_g2.verify_conjugation(1, 0, "density")[0]["status"] == "ok"
    # conjugation fixes the Cartan member up to the sign (-1)^1
    assert fmap_g2.verify_conjugation(1, 1, "field")[0]["status"] == "ok"
    # members that are zero by definition are rejected, not verified
    for m, n, family in ((1, 0, "field"), (0, 1, "field"), (0, 0, "field"),
                         (-1, 3, "field"), (2, -1, "density"), (-1, 0, "density")):
        with pytest.raises(InvalidParameter):
            fmap_g2.verify_conjugation(m, n, family)
    # an unknown family is a typed error, checked before the indices
    for m, n in ((0, 2), (-1, 0)):
        with pytest.raises(InvalidParameter, match="field or density"):
            fmap_g2.verify_conjugation(m, n, "raw")


def _conjugation_pairs():
    return [
        (m, n, family)
        for family in ("field", "density")
        for m in range(4)
        for n in range(4 - m)
        if family == "density" or m + n >= 2
    ]


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_conjugation_matches_direct_formula_oracle(genus, ideals):
    fmap = FourierMap(ideals[genus])
    for m, n, family in _conjugation_pairs():
        entries = fmap.verify_conjugation(m, n, family)
        assert entries == [conjugation_oracle(fmap, m, n, family)]
        assert entries[0]["status"] in ("ok", "vacuous")


def test_conjugations_that_compare_zero_with_zero_are_vacuous(ideals):
    # of the 17 benchmark pairs, both members vanish on the quotient for
    # the density pairs with m + n = 2 or 3 at g = 2 and m + n = 3 at
    # g = 3, and for none at g = 4..6; the others pass as ok
    vacuous = {2: [(m, s - m) for s in (2, 3) for m in range(s + 1)],
               3: [(m, 3 - m) for m in range(4)]}
    for genus in range(2, 7):
        fmap = FourierMap(ideals[genus])
        statuses = {(m, n, family): fmap.verify_conjugation(m, n, family)[0]["status"]
                    for m, n, family in _conjugation_pairs()}
        assert len(statuses) == 17
        expected = {(m, n, "density") for m, n in vacuous.get(genus, [])}
        assert {pair for pair, status in statuses.items() if status == "vacuous"} == expected
        assert list(statuses.values()).count("ok") == 17 - len(expected)


@pytest.mark.parametrize("genus", range(2, 9))
def test_columns_match_leibniz_oracle(genus, ideals):
    # the column maps of e, D and every conjugation member, read as codes,
    # against each basis monomial's leibniz_apply image reduced as monomials
    ideal = ideals[genus]
    fmap = FourierMap(ideal)
    basis = [m for _w, _s, m in fmap.quotient_basis()]
    builders = {"field": field_op, "density": density_op}
    ops = [(mul_op(p(1)), None), (descent_op(fmap.ctx), None)]
    ops += [(builders[family](m, n, fmap.ctx), (family, m, n)) for m, n, family in _conjugation_pairs()]
    for op, member in ops:
        expected = _over_lcm({b: ideal.reduce(leibniz_apply(op, Poly.monomial(b)).terms) for b in basis})
        assert fmap._columns(op) == expected, op
        if member:
            assert fmap._member_columns(*member) == expected, member
    assert len(ops) == 19


def test_columns_make_no_apply_calls(monkeypatch, ideals):
    # S, the 17 conjugation members at g = 6 and the g = 9 closure tables
    # take their columns as codes; the spy counts a direct apply.  The
    # closure images each monomial once, so it keeps no hits in the table
    # and no code in the monomial code table
    calls = []
    apply = Operator.apply
    monkeypatch.setattr(Operator, "apply", lambda op, f: calls.append(f) or apply(op, f))
    fmap = FourierMap(ideals[6])
    assert fmap._s_map[0] > 1
    for m, n, family in _conjugation_pairs():
        fmap._member_columns(family, m, n)
    assert len(fmap._members) == 17
    kept, codes = _packed_hits.cache_info().currsize, _mono_code.cache_info().currsize
    assert len(_closure_tables(9)[0]) == 11 and _packed_hits.cache_info().currsize == kept > 0
    assert _mono_code.cache_info().currsize == codes
    assert calls == []
    descent_op(fmap.ctx).apply(p(1))
    assert calls == [p(1)]


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_planted_conjugation_fault_matches_oracle(genus, ideals):
    # S with the image of one basis monomial doubled: S^-1 is no longer
    # its inverse, and the first failing monomial and its counterexample
    # are the ones the direct formula finds
    basis = [m for _w, _s, m in FourierMap(ideals[genus]).quotient_basis()]
    failed = 0
    for k in (0, len(basis) // 2, len(basis) - 1):
        for m, n, family in ((0, 2, "field"), (1, 2, "field"), (1, 0, "density"), (2, 1, "density")):
            fmap = FourierMap(ideals[genus])
            column = fmap._s_map[1][basis[k]]
            plant_column(fmap, basis[k], {d: 2 * c for d, c in column.items()})
            expected = conjugation_oracle(fmap, m, n, family)
            if expected["status"] != "fail":  # ok, or vacuous: density(2,1) at g = 2, 3
                assert fmap.verify_conjugation(m, n, family) == [expected]
                continue
            failed += 1
            with pytest.raises(VerificationFailure) as failure:
                fmap.verify_conjugation(m, n, family)
            assert failure.value.entry == expected
    assert failed >= 6


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_planted_basis_law_faults_match_oracle(genus, ideals):
    # one image doubled breaks S^2 only; one image moved onto the column
    # of a basis monomial of another bidegree breaks both laws.  Each
    # check's entries are those of the rational residuals
    basis = FourierMap(ideals[genus]).quotient_basis()
    assert basis_law_oracle(FourierMap(ideals[genus])) == ([], [])
    for k in (0, len(basis) // 2, len(basis) - 1):
        w, s, mono = basis[k]
        other = next(m for w2, s2, m in basis if (w2, s2) != (w, s))
        for moved in (False, True):
            fmap = FourierMap(ideals[genus])
            column = fmap._s_map[1][other if moved else mono]
            plant_column(fmap, mono, dict(column) if moved else {d: 2 * c for d, c in column.items()})
            s2, degree = basis_law_oracle(fmap)
            assert fmap.check_s2() == s2 and s2
            assert fmap.check_degree_law() == degree
            assert [e["params"]["monomial"] for e in degree] == ([str(Poly.monomial(mono))] if moved else [])


def test_conjugation_sweep_small(fmap_g3):
    for m in range(4):
        for n in range(4 - m):
            if m + n >= 2:
                fmap_g3.verify_conjugation(m, n, "field")
            fmap_g3.verify_conjugation(m, n, "density")


def test_pontryagin_unit_and_commutativity(fmap_g2, ideal_g2):
    unit = fmap_g2.unit()
    assert unit == p(1) ** 2 / 2  # the point class at genus 2
    rng = seeded(31)
    samples = [ideal_g2.normal_form(random_poly(rng)) for _ in range(6)]
    samples += [q(1), p(1), Poly.one()]
    for a in samples:
        assert fmap_g2.pontryagin(unit, a) == ideal_g2.normal_form(a)
        for b in samples:
            assert fmap_g2.pontryagin(a, b) == fmap_g2.pontryagin(b, a)


def test_pontryagin_associativity_and_transform(fmap_g3, ideal_g3):
    rng = seeded(37)
    samples = [ideal_g3.normal_form(random_poly(rng)) for _ in range(4)]
    samples.append(q(1) + p(2))
    for a in samples:
        for b in samples:
            ab = fmap_g3.pontryagin(a, b)
            assert fmap_g3.transform(ab) == ideal_g3.normal_form(
                fmap_g3.transform(a) * fmap_g3.transform(b)
            )
    a, b, c = samples[0], samples[1], samples[4]
    assert fmap_g3.pontryagin(fmap_g3.pontryagin(a, b), c) == fmap_g3.pontryagin(
        a, fmap_g3.pontryagin(b, c)
    )


def test_pontryagin_square_of_q1_vanishes_genus2(fmap_g2):
    # S(q1 * q1) = S(q1)^2 = p1^2 q1^2 has weight 4 > 2
    assert fmap_g2.pontryagin(q(1), q(1)) == Poly.zero()


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_pontryagin_matches_oracle_on_basis_pairs(genus, ideals):
    fmap = FourierMap(ideals[genus])
    basis = [Poly.monomial(m) for _w, _s, m in fmap.quotient_basis()]
    nonzero = 0
    for i, a in enumerate(basis):
        for b in basis[i:]:
            got = fmap.pontryagin(a, b)
            assert got == pontryagin_oracle(ideals[genus], a, b), (a, b)
            assert fmap.pontryagin(b, a) == got
            nonzero += bool(got)
    assert nonzero >= len(basis)


@pytest.mark.parametrize("genus", [2, 3, 4, 5, 6])
def test_pontryagin_transform_inverse_match_oracle_seeded(genus, ideals):
    # rational coefficients, relations, terms above weight g and zero;
    # S^-1 is the transform with each (w, s) row signed (-1)^(g+s)
    ideal = ideals[genus]
    fmap = FourierMap(ideal)
    sign = -1 if genus % 2 else 1
    basis = [Poly.monomial(m) for _w, _s, m in fmap.quotient_basis()]
    others = [
        Poly.monomial(m) for w in range(genus + 3) for m in enumerate_monomials(w)
        if Poly.monomial(m) not in basis
    ]
    rng = seeded(53 + genus)
    inputs = [Poly.zero()]
    for _ in range(12):
        inputs.append(sum(
            (Fraction(rng.randint(-6, 6), rng.randint(1, 4)) * rng.choice(pool)
             for pool in (basis, basis, others)),
            Poly.zero(),
        ))
    rows = [Poly(row) for w in range(genus + 1) for row in ideal.spaces[w].sorted_rows()]
    inputs += [rows[-1], rows[0] + Fraction(1, 3) * q(1)]
    assert any(f.max_weight() > genus for f in inputs)
    for a in inputs:
        image = series_transform(ideal, a)
        assert fmap.transform(a) == image, a
        assert fmap.inverse(a) == sign * minus_one_pullback(image), a
    nonzero = 0
    for a, b in zip(inputs, inputs[1:] + inputs[:1]):
        got = fmap.pontryagin(a, b)
        assert got == pontryagin_oracle(ideal, a, b), (a, b)
        nonzero += bool(got)
    assert nonzero >= 4
    assert fmap.pontryagin(inputs[3], Poly.zero()) == Poly.zero()


def test_non_poly_arguments_are_typed_errors(fmap_g3):
    calls = (
        lambda: fmap_g3.pontryagin(1, p(1)),
        lambda: fmap_g3.pontryagin(p(1), "q1"),
        lambda: fmap_g3.transform(2),
        lambda: fmap_g3.inverse(Fraction(1, 2)),
    )
    for call in calls:
        with pytest.raises(InvalidParameter, match="expected a Poly"):
            call()


def _basis(fmap):
    return [Poly.monomial(m) for _w, _s, m in fmap.quotient_basis()]


def _image_low(fmap, f):
    """The least weight of a term of S(f), from the transform itself."""
    return min(map(mono_weight, fmap.transform(f).terms))


@pytest.mark.parametrize("genus", [6, 7])
def test_pontryagin_cut_matches_uncut_on_basis_pairs(genus, ideals):
    fmap = FourierMap(ideals[genus])
    basis = _basis(fmap)
    nonzero = 0
    for i, a in enumerate(basis):
        for b in basis[i:]:
            got = fmap.pontryagin(a, b)
            assert got == pontryagin_uncut(fmap, a, b), (a, b)
            nonzero += bool(got)
    assert nonzero >= len(basis)


def test_pontryagin_cut_matches_uncut_on_mixed_inputs(ideals):
    # a term of low S-weight beside one of high S-weight: the low one
    # decides the cut, so products the high parts alone would cut are
    # formed, and their rational coefficients survive exactly
    fmap = FourierMap(ideals[6])
    ranked = sorted(_basis(fmap), key=lambda f: _image_low(fmap, f))
    lows, highs = ranked[:6], ranked[-6:]
    assert [_image_low(fmap, f) for f in lows + highs[:1]] == [0, 1, 1, 2, 2, 2, 6]
    rng = seeded(61)

    def coeff():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 7))

    mixed = [coeff() * low + coeff() * high for low, high in zip(lows, highs)]
    revived = 0
    for a, high_a in zip(mixed, highs):
        for b, high_b in zip(mixed + highs + lows, highs * 3):
            got = fmap.pontryagin(a, b)
            assert got == pontryagin_uncut(fmap, a, b), (a, b)
            assert fmap.pontryagin(b, a) == got
            revived += bool(got) and not fmap.pontryagin(high_a, high_b)
    assert revived == 78  # of 108 pairs; the high parts alone are all cut


def test_planted_low_row_is_never_cut(ideals):
    # a weight-0 row planted in the S column of 1 at g = 5: the degree
    # law still says that column has weight 5, so a cut read from the
    # law would zero products the planted map makes nonzero
    fmap = FourierMap(ideals[5])
    basis = _basis(fmap)
    assert sum(bool(fmap.pontryagin(Poly.one(), b)) for b in basis) == 1
    fmap = FourierMap(ideals[5])
    one = ()
    column = fmap._s_map[1][one]
    assert {mono_weight(d) for d in column} == {5}
    plant_column(fmap, one, {**column, one: 1})
    nonzero = 0
    for b in basis:
        got = fmap.pontryagin(Poly.one(), b)
        assert got == pontryagin_uncut(fmap, Poly.one(), b), b
        assert fmap.pontryagin(b, Poly.one()) == got
        nonzero += bool(got)
    assert nonzero == len(basis) == 36


@pytest.mark.parametrize("genus, cut, pairs", [(6, 1770, 2145), (7, 5263, 6105)])
def test_zero_products_form_no_image(genus, cut, pairs, ideals, monkeypatch):
    # the work pin: a basis pair whose column lows sum above g is 0
    # before either image is formed; every other pair forms both
    fmap = FourierMap(ideals[genus])
    basis = _basis(fmap)
    image, formed = FourierMap._image, []

    def spy(self, f):
        formed.append(f)
        return image(self, f)

    monkeypatch.setattr(FourierMap, "_image", spy)
    counts = Counter()
    for i, a in enumerate(basis):
        for b in basis[i:]:
            formed.clear()
            got = fmap.pontryagin(a, b)
            assert formed in ([], [a, b])
            counts[len(formed), bool(got)] += 1
    assert sum(counts.values()) == pairs
    assert counts[0, True] == 0 and counts[0, False] == cut
    formed.clear()
    assert fmap.pontryagin(Poly.zero(), basis[0]) == Poly.zero() and formed == []

import copy
import hashlib
import json
from fractions import Fraction
from math import comb, gcd, lcm

import pytest

from helpers import (
    ascending_monomials,
    build_with_fraction_oracle,
    fraction_normal_form,
    leibniz_apply,
    mono_from_str,
    mono_pdeg,
    mono_qdeg,
    named,
    random_poly,
    seeded,
)
from tautjac.cache import load_ideal, store_ideal
from tautjac.errors import InvalidGenus, InvalidParameter, VerificationFailure
from tautjac.ideal import RelationIdeal, _closure_tables, _monomials, _Space
from tautjac.lie import LieContext, descent_op
from tautjac.poly import (
    P_KIND,
    Q_KIND,
    Poly,
    enumerate_monomials,
    mono_mul,
    p,
    q,
)


def test_build_validation():
    with pytest.raises(InvalidGenus):
        RelationIdeal.build(1)
    with pytest.raises(InvalidGenus):
        RelationIdeal.build("3")


def test_descent_images_of_weight3_at_genus2():
    # full hand oracle: images of the ten weight-3 monomials
    d = descent_op(LieContext(2, 5))
    expected = {
        p(3): -q(2),
        q(3): Poly.zero(),
        p(1) * p(2): p(2) - p(1) * q(1),
        p(1) * q(2): Poly.zero(),
        p(2) * q(1): q(2) - q(1) ** 2,
        q(1) * q(2): Poly.zero(),
        p(1) ** 3: Poly.zero(),
        p(1) ** 2 * q(1): Poly.zero(),
        p(1) * q(1) ** 2: Poly.zero(),
        q(1) ** 3: Poly.zero(),
    }
    assert len(expected) == len(enumerate_monomials(3))
    for f, image in expected.items():
        assert d.apply(f) == image, f


def test_genus2_quotient(ideal_g2):
    dims = ideal_g2.quotient_dims()
    assert (dims[0], dims[1], dims[2]) == (1, 2, 2)
    assert sorted(dims) == [0, 1, 2]
    assert all(ideal_g2.quotient_dimension(w) == 0 for w in range(3, 6))
    basis = ideal_g2.relation_basis(2)
    assert len(basis) == 3
    for f in (q(2), q(1) ** 2, p(2) - p(1) * q(1)):
        assert ideal_g2.contains(f)
    # the span is exactly three-dimensional: p1^2 and p1*q1 survive
    assert not ideal_g2.contains(p(1) ** 2)
    assert not ideal_g2.contains(p(1) * q(1))
    assert [str(m) for m in map(Poly.monomial, ideal_g2.quotient_basis(2))] == [
        "p1*q1",
        "p1^2",
    ]


def test_genus3_members(ideal_g3):
    members = [
        q(3),
        q(1) * q(2),
        q(1) ** 3,
        q(2) - q(1) ** 2 / 4,
        p(3) - p(1) * q(1) ** 2 / 4,
        p(2) * q(1) - 3 * p(1) * q(1) ** 2 / 4,
        p(3) - p(1) * q(2),
    ]
    for f in members:
        assert ideal_g3.contains(f), f


def test_genus3_normal_forms(ideal_g3):
    assert ideal_g3.normal_form(p(2) * q(1)) == 3 * p(1) * q(1) ** 2 / 4
    assert ideal_g3.normal_form(q(2)) == q(1) ** 2 / 4
    assert ideal_g3.normal_form(Poly.zero()) == Poly.zero()
    assert ideal_g3.normal_form(p(3)) == p(1) * q(1) ** 2 / 4


def test_genus3_descent_chain(ideal_g3):
    # the chain that produces q2 = q1^2/4
    d = descent_op(LieContext(3, 6))
    step1 = d.apply(p(2) ** 2)
    assert step1 == 6 * p(3) - 2 * p(2) * q(1)
    step2 = d.apply(step1)
    assert step2 == -8 * q(2) + 2 * q(1) ** 2
    assert ideal_g3.contains(step2)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_qg_membership(g):
    ideal = RelationIdeal.build(g)
    assert ideal.contains(q(g))


def test_pg_and_piq_relations():
    for g in (2, 3, 4, 5):
        ideal = RelationIdeal.build(g)
        assert ideal.contains(p(g) - p(1) * q(g - 1))
        for i in range(1, g):
            if i == 1:
                f = p(1) * q(g - 1) - g * p(1) * q(g - 1) + comb(g - 1, 1) * p(1) * q(g - 1)
            else:
                f = (
                    p(i) * q(g - i)
                    - p(1) * q(i - 1) * q(g - i)
                    + comb(g - 1, i) * p(1) * q(g - 1)
                )
            assert ideal.contains(f), (g, i)


def test_weight_g_pure_q_monomials_vanish():
    for g in (3, 4, 5):
        ideal = RelationIdeal.build(g)
        for m in enumerate_monomials(g):
            if mono_pdeg(m) == 0:
                assert ideal.contains(Poly.monomial(m)), m


def test_normal_form_properties(ideal_g3):
    rng = seeded(5)
    for _ in range(30):
        f = random_poly(rng)
        g = random_poly(rng)
        nf = ideal_g3.normal_form(f)
        assert ideal_g3.normal_form(nf) == nf
        assert ideal_g3.contains(f - nf)
        assert ideal_g3.normal_form(f + g) == nf + ideal_g3.normal_form(g)
    assert ideal_g3.normal_form(Poly.zero()) == Poly.zero()


def test_weights_above_genus_vanish(ideal_g2):
    heavy = p(3) ** 2  # weight 6 > genus 2
    assert ideal_g2.contains(heavy)
    assert ideal_g2.normal_form(heavy) == Poly.zero()
    assert ideal_g2.normal_form(heavy + p(1) ** 2) == p(1) ** 2
    assert ideal_g2.normal_form(heavy) == Poly.zero()
    assert ideal_g2.quotient_dimension(6) == 0
    assert ideal_g2.quotient_basis(6) == []
    assert ideal_g2.relation_basis(3) == [Poly.monomial(m) for m in enumerate_monomials(3)]
    for query in (ideal_g2.quotient_dimension, ideal_g2.quotient_basis, ideal_g2.relation_basis):
        for bad in (-1, 1.5, True, "1"):
            with pytest.raises(InvalidParameter, match="weight must be >= 0"):
                query(bad)


def test_queries_reject_a_non_poly(ideal_g2):
    # contains goes through normal_form, which checks its argument as FourierMap does
    for bad in (3, "p1"):
        for query in (ideal_g2.normal_form, ideal_g2.contains):
            with pytest.raises(InvalidParameter, match="expected a Poly"):
                query(bad)


def test_quotient_dimension_trivials(ideal_g2, ideal_g3):
    for ideal in (ideal_g2, ideal_g3):
        assert ideal.quotient_dimension(0) == 1
        assert ideal.quotient_dimension(ideal.genus + 1) == 0


# sha256 of the canonical JSON of the (w, quotient_dim, relations) blocks
# at weights <= g, as built with a source cap of g + 3 before the ideal
# was made a function of the genus alone.
PINNED_BASES = {
    2: "60a82c756f09c244e2a3aadb4ef34db271825b36515b452a7a42a74569a948c9",
    3: "09cd8341010e3b8efa33302220b02751e6570fddd56b0c8c6fe7e73f00f4c734",
    4: "bfeef188ae65069f0302d1d9908477a4d34e6f31a81c706cfc93f087f220fdaa",
    5: "8e723dd6f1371f4836e1860790b34e47403864469d7d09217da0bcad54f9b3b8",
    6: "77a268abf7b6a2a9100d4eab1476aa788a81d8e376f142641b513a19e8fc6b62",
    7: "8fdef31ecfaad96451c6f3f1a4d9d3c72a4f8c351945ca7867c48d17ddea865d",
    8: "0355315687b9beceb4c7e34ebbf9eb60c495069f6705632996296ac8f1a4950f",
}


def test_relation_bases_match_pinned_digests(ideals):
    for g, ideal in ideals.items():
        blocks = ideal.to_json_dict()["weights"]
        assert [b["w"] for b in blocks] == list(range(g + 1))
        body = json.dumps(blocks, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(body.encode()).hexdigest() == PINNED_BASES[g], g


# sha256 of RelationIdeal.build(g).to_json(), as built on tuple
# monomials before the closure moved to monomial indices.
PINNED_BUILDS = {
    9: "0f6b3206a1dda6af2c2a9326c50c0bbe5a18bdf687acaf3657ec10ef2db1c0b9",
    10: "4a92b6fe755748f29439924daec293a7f1203dd6a2302507f787ce96a0b02302",
    11: "e4136395cbdb7ce755e8167212e5237ca93ec5011bd392369871694422540269",
}


@pytest.mark.parametrize("g", sorted(PINNED_BUILDS))
def test_large_genus_builds_match_pinned_digests(g):
    body = RelationIdeal.build(g).to_json()
    assert hashlib.sha256(body.encode()).hexdigest() == PINNED_BUILDS[g]


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_closure_tables_match_leibniz_and_mono_mul(g):
    descent, products = _closure_tables(g)
    op = descent_op(LieContext(g, g + 1))
    for w in range(g + 2):
        assert _monomials(w)[0] == ascending_monomials(w)
    assert descent[0] is None and len(descent) == len(products) == g + 2
    for w in range(1, g + 2):
        assert len(descent[w]) == len(ascending_monomials(w))
        for i, m in enumerate(ascending_monomials(w)):
            column = dict(descent[w][i])
            assert len(column) == len(descent[w][i]) and all(column.values())
            assert Poly(named(w - 1, column)) == leibniz_apply(op, Poly.monomial(m)), m
    for w in range(g + 2):
        variables = [((i, k, 1),) for i in range(1, g - w + 1) for k in (P_KIND, Q_KIND)]
        assert [var for _t, var, _table in products[w]] == variables
        for target, var, table in products[w]:
            assert target == w + var[0][0]
            assert [ascending_monomials(target)[j] for j in table] == [
                mono_mul(m, var) for m in ascending_monomials(w)
            ]


def test_stability_assertions(ideal_g2, ideal_g3):
    ideal_g2.check_stability()
    ideal_g3.check_stability()


def test_build_is_deterministic():
    a = RelationIdeal.build(3)
    b = RelationIdeal.build(3)
    assert a.to_json() == b.to_json()


def test_generator_bounds_small_genus():
    for g in (2, 3, 4, 5):
        ideal = RelationIdeal.build(g)
        # q_n for 2n >= g+1 reduces to lower q's
        n = (g + 1 + 1) // 2
        for k in range(n, g + 1):
            nf = ideal.normal_form(q(k))
            for m in nf.terms:
                assert mono_pdeg(m) == 0
                assert all(i < k for i, _k, _e in m)
        # p_n for 2n >= g+2 lands in the ideal generated by the q's
        n = (g + 2 + 1) // 2
        for k in range(n, g + 1):
            nf = ideal.normal_form(p(k))
            assert nf != p(k)
            for m in nf.terms:
                assert mono_qdeg(m) >= 1, (g, k, nf)


def test_json_round_trip(ideal_g3, tmp_path):
    # the cache entry holds the rows of every space, so loading it gives
    # back the same spaces
    store_ideal(ideal_g3, tmp_path)
    clone = load_ideal(tmp_path, 3)
    assert clone.genus == ideal_g3.genus
    assert [s.pivots for s in clone.spaces] == [s.pivots for s in ideal_g3.spaces]
    assert clone.to_json() == ideal_g3.to_json()
    assert clone.normal_form(p(2) * q(1)) == ideal_g3.normal_form(p(2) * q(1))
    assert clone.quotient_dims() == ideal_g3.quotient_dims()


def test_json_schema_shape(ideal_g2):
    data = ideal_g2.to_json_dict()
    assert data["format-version"] == 2
    assert data["genus"] == 2
    assert "source_cap" not in data
    assert data["monomial_order"] == "plex-interleaved-v1"
    assert [b["w"] for b in data["weights"]] == list(range(3))
    block = data["weights"][2]
    assert block["quotient_dim"] == 2
    # rows sorted by leading (pivot) monomial, largest first: q2 > p2 > q1^2
    assert [[t["monomial"] for t in rel] for rel in block["relations"]] == [
        ["q2"],
        ["p2", "p1*q1"],
        ["q1^2"],
    ]
    assert block["relations"][1][1]["coeff"] == "-1"


def test_relation_rows_are_rref(ideal_g3):
    for w in range(ideal_g3.genus + 1):
        rows = ideal_g3.relation_basis(w)
        pivots = [max(r.terms) for r in rows if r.terms]
        assert len(pivots) == len(set(pivots))
        for r in rows:
            piv = max(r.terms)
            assert r.terms[piv] == 1
            for other in rows:
                if other is not r:
                    assert piv not in other.terms


@pytest.fixture(scope="module")
def fraction_oracles():
    return {g: build_with_fraction_oracle(g) for g in range(2, 9)}


def test_rows_match_fraction_oracle(fraction_oracles):
    for g, (ideal, spaces) in fraction_oracles.items():
        assert [s.sorted_rows() for s in ideal.spaces] == [o.sorted_rows() for o in spaces], g


def test_rows_are_primitive_integer_rref(ideals):
    leads = set()
    for ideal in ideals.values():
        for space in ideal.spaces:
            for piv, row in space.pivots.items():
                assert piv == max(row)
                assert all(type(c) is int for c in row.values())
                assert gcd(*row.values()) == 1 and row[piv] > 0
                assert not any(m in space.pivots for m in row if m != piv)
                leads.add(row[piv])
    assert max(leads) > 1  # the scaled (non-monic) path is exercised


def test_normal_form_matches_fraction_oracle(fraction_oracles):
    rng = seeded(10)
    fractional = 0
    for g, (ideal, spaces) in fraction_oracles.items():
        pivots = [named(w, space.pivots) for w, space in enumerate(ideal.spaces)]
        pivots = [m for row in pivots for m in row]
        heavy = enumerate_monomials(g + 1) + enumerate_monomials(g + 2)
        for _ in range(40):
            terms = dict(random_poly(rng, max_index=g, max_terms=5, max_exp=3).terms)
            for m in rng.sample(pivots, 3):
                terms[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            terms[rng.choice(heavy)] = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            f = Poly(terms)
            nf = ideal.normal_form(f)
            assert str(nf) == str(fraction_normal_form(spaces, f)), (g, f)
            fractional += any(type(c) is Fraction for c in nf.terms.values())
    assert fractional > 100


def test_reduce_matches_fraction_oracle(fraction_oracles):
    # the integer reduction of f times the lcm of its denominators is an
    # integer vector over a positive divisor, and the two divide to the
    # oracle's normal form of f, for rational inputs with pivot terms and
    # terms above the genus, and for zero
    rng = seeded(11)
    scaled = 0
    for g, (ideal, spaces) in fraction_oracles.items():
        pivots = [m for w, space in enumerate(ideal.spaces) for m in named(w, space.pivots)]
        heavy = enumerate_monomials(g + 1) + enumerate_monomials(g + 2)
        inputs = [Poly.zero()]
        for _ in range(25):
            terms = dict(random_poly(rng, max_index=g, max_terms=5, max_exp=3).terms)
            for m in rng.sample(pivots, 3):
                terms[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            terms[rng.choice(heavy)] = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            inputs.append(Poly(terms))
        for f in inputs:
            den = lcm(1, *(c.denominator for c in f.terms.values()))
            vec, divisor = ideal.reduce({m: int(c * den) for m, c in f.terms.items()})
            assert all(type(c) is int and c for c in vec.values()) and divisor > 0, (g, f)
            nf = Poly({m: Fraction(c, divisor * den) for m, c in vec.items()})
            assert nf == fraction_normal_form(spaces, f), (g, f)
            scaled += divisor > 1
    assert ideal.reduce({}) == ({}, 1)
    assert scaled > 100


def test_descent_coefficients_are_integers():
    # The closure keeps integer rows because descent, at every window
    # the build uses, has integer coefficients.
    for window in range(2, 14):
        terms = descent_op(LieContext(window, window)).terms
        assert terms and all(type(c) is int for c in terms.values()), window


def test_insert_keeps_primitive_rows_and_rejects_rationals():
    index = _monomials(2)[1]
    q2, p2, p1q1 = (index[mono_from_str(s)] for s in ("q2", "p2", "p1*q1"))
    assert (q2, p2, p1q1) == (4, 3, 1)
    space = _Space(2)
    assert space.insert({q2: -2, p2: -4}) == {q2: 1, p2: 2}
    assert space.insert({q2: 3, p2: 6}) is None
    for vec in ({p2: Fraction(1, 2)}, {q2: Fraction(1, 3), p1q1: Fraction(1, 2)}):
        with pytest.raises(TypeError):
            space.insert(vec)
    assert space.pivots == {q2: {q2: 1, p2: 2}}
    assert space.insert({p2: 3, p1q1: 2}) == {p2: 3, p1q1: 2}
    assert space.pivots[q2] == {q2: 3, p1q1: -4}
    assert space.sorted_rows() == [
        named(2, {q2: 1, p1q1: Fraction(-4, 3)}),
        named(2, {p2: 1, p1q1: Fraction(2, 3)}),
    ]


def test_stability_failure_reports_the_pivot_one_row(ideal_g3):
    clone = copy.deepcopy(ideal_g3)
    space = clone.spaces[3]
    del space.pivots[_monomials(3)[1][mono_from_str("q1*q2")]]
    with pytest.raises(VerificationFailure) as info:
        clone.check_stability()
    assert info.value.entry["counterexample"] == "q2 - 1/4*q1^2"


def test_descent_stability_failure_names_the_top_monomial(ideal_g3):
    # a descent column of weight g + 1 that leaves the ideal: p1^4 (column
    # 0 of weight 4) gains a weight-3 quotient-basis monomial
    tables = _closure_tables(3)
    basis_index = _monomials(3)[1][ideal_g3.quotient_basis(3)[0]]
    tables[0][4][0][basis_index] = 1
    with pytest.raises(VerificationFailure) as info:
        ideal_g3.check_stability(tables)
    assert info.value.entry == {
        "identity": "descent stability",
        "params": {"weight": 4},
        "genus": 3,
        "window": 4,
        "status": "fail",
        "counterexample": "p1^4",
    }

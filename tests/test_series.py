"""Power-series arithmetic, spec parsing, and the expansion engine."""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from qconvolve import series
from qconvolve.counts import r_oracle, r_spec, t_spec, u_spec
from qconvolve.divisor_sums import sigma
from qconvolve.errors import DivisibilityViolation, ParseError, checked_div
from qconvolve.series import (
    Factor,
    FactorSet,
    PowerSeries,
    ProductSpec,
    expand,
    multiply,
    oracle_expand,
    random_spec_corpus,
    weighted_divisor_sum,
    _weight_table,
)

JACOBI = ProductSpec.parse("2n^1,4n-2^2,2n-1^-2")
GAUSS = ProductSpec.parse("2n^1,2n-1^-1")
SERIES1 = ProductSpec.parse("1n^-4,2n^2,4n^-2,8n^4")


# --- types ---


def test_factor_set_membership_and_elements():
    odds = FactorSet(2, 1)
    assert odds.least == 1
    assert 1 in odds and 3 in odds and 2 not in odds and 0 not in odds
    assert list(odds.elements(7)) == [1, 3, 5, 7]

    fours_minus_two = FactorSet(4, 2)
    assert fours_minus_two.least == 2
    assert list(fours_minus_two.elements(11)) == [2, 6, 10]


def test_factor_set_validation():
    with pytest.raises(ValueError):
        FactorSet(0, 0)
    with pytest.raises(ValueError):
        FactorSet(3, 3)
    with pytest.raises(ValueError):
        Factor(FactorSet(2, 0), 0)


def test_product_spec_merges_duplicates():
    spec = ProductSpec(
        [Factor(FactorSet(2, 0), 3), Factor(FactorSet(2, 1), 1), Factor(FactorSet(2, 0), -1)]
    )
    assert spec == ProductSpec.parse("2n^2,2n-1^1")


def test_product_spec_drops_cancelled_factors():
    spec = ProductSpec([Factor(FactorSet(2, 0), 3), Factor(FactorSet(2, 0), -3)])
    assert spec.factors == ()
    assert list(expand(spec, 4)) == [1, 0, 0, 0, 0]
    assert list(oracle_expand(spec, 4)) == [1, 0, 0, 0, 0]


def test_product_spec_is_frozen():
    spec = ProductSpec.parse("1n^1")
    before = hash(spec)
    with pytest.raises(FrozenInstanceError):
        spec.factors = ()
    assert spec == ProductSpec.parse("1n^1")
    assert hash(spec) == before


def test_product_spec_requires_input():
    with pytest.raises(ValueError):
        ProductSpec([])


def test_power_series_order():
    assert PowerSeries((1, 2, 3)).order == 2


# --- grammar ---


def test_parse_round_trip_examples():
    text = "2n^1,4n-2^2,2n-1^-2"
    spec = ProductSpec.parse(text)
    assert spec.to_text() == text
    assert ProductSpec.parse(spec.to_text()) == spec


def test_parse_ignores_whitespace_and_accepts_short_form():
    assert ProductSpec.parse(" 2n ^ 1 , 2n-1 ^ -2 ") == ProductSpec.parse("2n^1,2n-1^-2")
    # The 'n' marker is optional: '2^3' is the same progression as '2n^3'.
    assert ProductSpec.parse("2^3") == ProductSpec.parse("2n^3")


def test_parse_rejects_bad_factors():
    for bad in ("", "2x^1", "2n^0", "0n^1", "4n-5^1", "2n-^1", "2n^1,,2n^2", "2n^1,"):
        with pytest.raises(ParseError):
            ProductSpec.parse(bad)


def test_json_round_trip():
    spec = ProductSpec.parse("2n^1,4n-2^2,2n-1^-2")
    data = spec.to_json_dict()
    assert data == {
        "factors": [
            {"m": 2, "i": 0, "c": 1},
            {"m": 4, "i": 2, "c": 2},
            {"m": 2, "i": 1, "c": -2},
        ]
    }


@st.composite
def product_specs(draw):
    count = draw(st.integers(1, 4))
    factors = []
    for _ in range(count):
        m = draw(st.integers(1, 8))
        i = draw(st.integers(0, m - 1))
        c = draw(st.integers(-5, 5).filter(bool))
        factors.append(Factor(FactorSet(m, i), c))
    return ProductSpec(factors)


@given(product_specs())
def test_parse_inverts_to_text(spec):
    if spec.factors:
        assert ProductSpec.parse(spec.to_text()) == spec


# --- weighted divisor sums ---


def test_weighted_divisor_sum_examples():
    assert weighted_divisor_sum(4, ProductSpec.parse("1n^-1")) == 7
    assert weighted_divisor_sum(3, ProductSpec.parse("2n^-1")) == 0
    assert weighted_divisor_sum(6, ProductSpec.parse("2n-1^5")) == -20


def test_weighted_divisor_sum_is_scaled_sigma_on_full_set():
    for a in (1, 3):
        spec = ProductSpec([Factor(FactorSet(1, 0), -a)])
        for k in range(1, 1001):
            assert weighted_divisor_sum(k, spec) == a * sigma(k)


def test_weight_table_matches_pointwise_sums():
    rng = Random(7)
    for spec in random_spec_corpus(25, seed=11):
        limit = rng.randint(1, 60)
        table = _weight_table(spec, limit)
        assert table[0] == 0
        for k in range(1, limit + 1):
            assert table[k] == weighted_divisor_sum(k, spec)


# --- expansion ---


def test_expand_pentagonal_product():
    # Single factor over all of N: Euler's pentagonal-number series.
    assert list(expand(ProductSpec.parse("1n^1"), 3)) == [1, -1, -1, 0]
    assert list(expand(ProductSpec.parse("1n^1"), 12)) == [
        1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1,
    ]


def test_expand_jacobi_square_series():
    assert list(expand(JACOBI, 5)) == [1, 2, 0, 0, 2, 0]


def test_expand_gauss_triangular_series():
    assert list(expand(GAUSS, 6)) == [1, 1, 0, 1, 0, 0, 1]


def test_oracle_expand_partition_numbers():
    assert list(oracle_expand(ProductSpec.parse("1n^-1"), 5)) == [1, 1, 2, 3, 5, 7]
    assert list(oracle_expand(ProductSpec.parse("1n^1"), 1)) == [1, -1]
    assert oracle_expand(GAUSS, 6) == expand(GAUSS, 6)


def test_expand_matches_oracle_on_random_corpus():
    for spec in random_spec_corpus(40, seed=2024):
        assert expand(spec, 120) == oracle_expand(spec, 120)


def test_expand_matches_oracle_at_larger_order():
    for spec in random_spec_corpus(40, seed=31, max_modulus=12):
        assert expand(spec, 400) == oracle_expand(spec, 400)
    assert expand(SERIES1, 800) == oracle_expand(SERIES1, 800)


@pytest.mark.parametrize("sign", [1, -1])
def test_expand_routes_eta_factors_by_cost(monkeypatch, sign):
    # The pentagonal path serves only negative eta factors of specs whose
    # coefficients grow, sum c/m < 0.  There (x;x)_inf, with 32 nonzero
    # terms at exponents 1..400, costs 384 <= 400 steps at |c| = 12 and
    # takes that path, while |c| = 13 costs 416 and goes to the recursion.
    # Series-1 divides out (x;x)^4 and, (x^4;x^4)_inf having 16 terms up to
    # 400, (x^4;x^4)^2 that way.  Positive eta factors (sign 1), and every
    # factor of a spec with sum c/m >= 0, go to the recursion, however
    # cheap.  All agree with an oracle.
    assert len(series._pentagonal(400)) == 32
    assert len(series._pentagonal(100)) == 16
    steps = []
    over_eta = series._over_eta

    def counted(*args):
        steps.append(args)
        return over_eta(*args)

    monkeypatch.setattr(series, "_over_eta", counted)
    if sign < 0:
        cases = (("1n^-12", 12), ("1n^-13", 0), (SERIES1.to_text(), 4 + 2))
    else:
        cases = (("1n^-13,2n^12", 0), ("1n^12", 0), ("2n^-12,1n^6", 0))
    for text, pentagonal_steps in cases:
        steps.clear()
        spec = ProductSpec.parse(text)
        assert expand(spec, 400) == oracle_expand(spec, 400)
        assert len(steps) == pentagonal_steps, text
    steps.clear()
    assert expand(r_spec(4), 400).coeffs == r_oracle(4, 400).values
    assert not steps


@pytest.mark.parametrize(
    "spec",
    [r_spec(4), t_spec(6), u_spec(2, 3), ProductSpec.parse("1n^-3,5n-1^3,5n-3^3"), SERIES1],
    ids=ProductSpec.to_text,
)
def test_expand_matches_oracle_across_recursion_blocks(spec):
    # Orders 0..2*leaf+2 take one leaf, a leaf and a split, and two levels of
    # splits; 300 and 1000 take several levels.  Truncated products are
    # prefix-exact, so one oracle expansion serves every order.  Series-1
    # runs its positive eta factors through the recursion and then divides
    # out its negative ones by the pentagonal recurrence.
    leaf = series._LEAF
    oracle = oracle_expand(spec, 1000)
    for order in (*range(2 * leaf + 3), 300, 1000):
        assert expand(spec, order).coeffs == oracle.coeffs[: order + 1]


def test_recursion_checks_divisions_fed_by_cross_block_multiply(monkeypatch):
    # Weight k enters the sum of coefficient k through its p(0) term, and
    # for k past the leaf that term comes from a cross-block multiply, not
    # from a leaf's dot product.  Off by one, it leaves k * p(k) + 1.
    bad = series._LEAF + 1
    weight_table = series._weight_table
    multiplies = []
    multiply_ = series.multiply

    def skewed(spec, limit):
        table = weight_table(spec, limit)
        table[bad] += 1
        return table

    def spied(a, b):
        multiplies.append(len(b))
        return multiply_(a, b)

    monkeypatch.setattr(series, "_weight_table", skewed)
    monkeypatch.setattr(series, "multiply", spied)
    with pytest.raises(DivisibilityViolation, match=rf"^{bad} does not divide"):
        expand(r_spec(4), 200)
    assert max(multiplies) > bad


def test_expand_gives_exact_values_for_a_huge_exponent():
    # 10^30 pentagonal passes would never finish; the recursion takes it.
    big = 10**30
    p = expand(ProductSpec.parse(f"1n^-{big}"), 40)
    assert p[1] == big
    assert p[2] == big * (big + 3) // 2
    # A factor with no term up to the order goes to the recursion too, which
    # skips it; 10^30 empty pentagonal passes would not finish either.
    assert list(expand(ProductSpec.parse(f"50n^{big}"), 40)) == [1] + [0] * 40
    # The growth rule's sum of c/m is exact: 10^400 / 1 overflows a float.
    huge = 10**400
    assert list(expand(ProductSpec.parse(f"1n^-{huge}"), 1)) == [1, huge]
    psi_power = expand(ProductSpec.parse(f"1n^-{huge},2n^{2 * huge}"), 2)
    assert list(psi_power) == [1, huge, huge * (huge - 1) // 2]


def test_expand_gives_partition_numbers_like_sympy():
    partition = pytest.importorskip("sympy.functions.combinatorial.numbers").partition
    p = expand(ProductSpec.parse("1n^-1"), 1000)
    assert list(p) == [int(partition(n)) for n in range(1001)]


def test_expand_is_prefix_consistent():
    for spec in random_spec_corpus(10, seed=5):
        full = expand(spec, 90)
        assert expand(spec, 40).coeffs == full.coeffs[:41]


def test_expand_distributes_over_spec_concatenation():
    corpus = random_spec_corpus(16, seed=77)
    for left, right in zip(corpus[::2], corpus[1::2]):
        combined = ProductSpec(left.factors + right.factors)
        product = multiply(expand(left, 60), expand(right, 60))
        assert expand(combined, 60) == product


def test_jacobi_power_equals_multiplied_base():
    base = expand(JACOBI, 80)
    for k in (2, 3, 5):
        spec_k = ProductSpec.parse(f"2n^{k},4n-2^{2 * k},2n-1^{-2 * k}")
        power = base
        for _ in range(k - 1):
            power = multiply(power, base)
        assert expand(spec_k, 80) == power


def test_multiply_examples():
    assert list(multiply(PowerSeries((1, 1)), PowerSeries((1, -1)))) == [1, 0]
    assert list(multiply(PowerSeries((1, 2, 2)), PowerSeries((1, 0, 0)))) == [1, 2, 2]
    assert list(multiply(PowerSeries((1, 1, 1)), PowerSeries((1, 1, 1)))) == [1, 2, 3]


def test_multiply_truncates_to_smaller_order():
    product = multiply(PowerSeries((1, 1, 1, 1)), PowerSeries((1, 1)))
    assert list(product) == [1, 2]


def naive_product(a, b):
    order = min(len(a), len(b)) - 1
    return [sum(a[j] * b[n - j] for j in range(n + 1)) for n in range(order + 1)]


@st.composite
def operands(draw, top):
    """Coefficient lists of orders 0..40: random in [-top, top], all zero,
    or all at the extremes +-top, which drives a product coefficient onto
    the slot bound max|a| * max|b| * (order + 1)."""
    size = draw(st.integers(1, 41))
    kind = draw(st.sampled_from(["random", "zero", "extreme", "constant"]))
    if kind == "random":
        return draw(st.lists(st.integers(-top, top), min_size=size, max_size=size))
    if kind == "zero":
        return [0] * size
    if kind == "extreme":
        return draw(st.lists(st.sampled_from([top, -top]), min_size=size, max_size=size))
    return [draw(st.sampled_from([top, -top]))] * size


@st.composite
def operand_pairs(draw):
    top = draw(st.integers(0, 2**200) | st.sampled_from([1, 8, 2**7, 2**64 - 1, 2**200]))
    return draw(operands(top)), draw(operands(top))


@settings(max_examples=200, deadline=None)
@given(operand_pairs())
# 8 * 8 * 2 = 2^7: the bound itself needs a second byte.
@example(([8, 8], [8, 8]))
@example(([-8, -8], [8, 8]))
@example(([5], [-3]))
@example(([0] * 41, [2**200] * 41))
def test_multiply_matches_the_double_sum(pair):
    a, b = pair
    product = multiply(PowerSeries(tuple(a)), PowerSeries(tuple(b)))
    assert list(product) == naive_product(a, b)


def test_checked_div_raises_on_remainder():
    assert checked_div(12, 4) == 3
    with pytest.raises(DivisibilityViolation):
        checked_div(3, 2)


def test_expand_rejects_negative_order():
    with pytest.raises(ValueError):
        expand(GAUSS, -1)

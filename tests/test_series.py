"""Power-series arithmetic, spec parsing, and the expansion engine."""

from __future__ import annotations

import copy
import gc
import pickle
import weakref
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import isqrt
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qconvolve import series
from qconvolve.counts import r_oracle, r_spec, t_spec, u_spec
from qconvolve.divisor_sums import sigma
from qconvolve.errors import DivisibilityViolation, ParseError, checked_div
from qconvolve.identities import Failure, MasterFamilyParams
from qconvolve.series import (
    Factor,
    FactorSet,
    PowerSeries,
    ProductSpec,
    expand,
    multiply,
    oracle_expand,
    random_spec_corpus,
    _plan,
    _weight_table,
)

JACOBI = ProductSpec.parse("2n^1,4n-2^2,2n-1^-2")
GAUSS = ProductSpec.parse("2n^1,2n-1^-1")
SERIES1 = ProductSpec.parse("1n^-4,2n^2,4n^-2,8n^4")


# --- types ---


def test_factor_set_membership_and_elements():
    odds = FactorSet(2, 1)
    assert list(odds.elements(7)) == [1, 3, 5, 7]

    fours_minus_two = FactorSet(4, 2)
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
    # The constant product prints as text that parses back to it (the
    # round-trip property's example), so a failure witness naming it replays.
    assert spec.to_text() == "1n^1,1n^-1"
    assert repr(spec) == "ProductSpec('1n^1,1n^-1')"


def test_product_spec_is_frozen():
    spec = ProductSpec.parse("1n^1")
    before = hash(spec)
    with pytest.raises(FrozenInstanceError):
        spec.factors = ()
    assert spec == ProductSpec.parse("1n^1")
    assert hash(spec) == before


# Each immutable value type with its fields, in constructor order, and its repr.
VALUE_TYPES = [
    (PowerSeries, {"coeffs": (1, 2)}, "PowerSeries(coeffs=(1, 2))"),
    (FactorSet, {"modulus": 2, "offset": 1}, "FactorSet(modulus=2, offset=1)"),
    (
        Factor,
        {"index_set": FactorSet(2, 1), "exponent": -3},
        "Factor(index_set=FactorSet(modulus=2, offset=1), exponent=-3)",
    ),
    (ProductSpec, {"factors": (Factor(FactorSet(2, 1), -3),)}, "ProductSpec('2n-1^-3')"),
    (Failure, {"input": 5, "lhs": "7", "rhs": "8"}, "Failure(input=5, lhs='7', rhs='8')"),
    (
        MasterFamilyParams,
        {"a": 1, "b": 3, "offsets": frozenset({0}), "reading": "single-base"},
        "MasterFamilyParams(a=1, b=3, offsets=frozenset({0}), reading='single-base')",
    ),
]


@pytest.mark.parametrize("cls, fields, text", VALUE_TYPES, ids=[row[0].__name__ for row in VALUE_TYPES])
def test_value_type_contract(cls, fields, text):
    value = cls(*fields.values())
    assert value == cls(**fields) and hash(value) == hash(cls(**fields))
    assert repr(value) == text
    for name in fields:
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, fields[name])
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
        assert getattr(value, name) == fields[name]
    assert weakref.ref(value)() is value
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value


def test_product_spec_requires_input():
    with pytest.raises(ValueError):
        ProductSpec([])


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
@example(ProductSpec.parse("1n^1,1n^-1"))
def test_parse_inverts_to_text(spec):
    assert ProductSpec.parse(spec.to_text()) == spec


# --- weighted divisor sums ---


def weighted_divisor_sum(k, spec):
    """Brute-force recursion weight at k >= 1: the sum over factors of -c
    times the divisors d of k with d = -offset mod modulus."""
    total = 0
    for f in spec.factors:
        m, i = f.index_set.modulus, f.index_set.offset
        in_set = sum(d for d in range(1, k + 1) if k % d == 0 and d % m == (m - i) % m)
        total -= f.exponent * in_set
    return total


def test_weighted_divisor_sum_examples():
    for k, text, weight in ((4, "1n^-1", 7), (3, "2n^-1", 0), (6, "2n-1^5", -20)):
        spec = ProductSpec.parse(text)
        assert _weight_table(spec, k)[k] == weighted_divisor_sum(k, spec) == weight


def test_weighted_divisor_sum_is_scaled_sigma_on_full_set():
    for a in (1, 3):
        spec = ProductSpec([Factor(FactorSet(1, 0), -a)])
        table = _weight_table(spec, 1000)
        for k in range(1, 1001):
            assert table[k] == weighted_divisor_sum(k, spec) == a * sigma(k)


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


@pytest.mark.parametrize("q, text", [(3, "1n^1"), (2, "1n^2,2n^-1")])
def test_theta_terms_are_the_oracle_expansion(q, text):
    # J(x; x^3) = (x;x)_inf and J(x; x^2) = phi(-x) = (x;x)^2 / (x^2;x^2),
    # expanded by the oracle: _theta lists exactly the nonzero coefficients
    # 1..400, so the phi terms for k and -k are one term with c = +-2.
    oracle = oracle_expand(ProductSpec.parse(text), 400)
    assert series._theta(q, 400) == [(d, c) for d, c in enumerate(oracle) if d and c]


@pytest.mark.parametrize("sign", [1, -1])
def test_expand_routes_eta_factors_by_cost(sign):
    # Only specs whose coefficients grow, sum c/m < 0, divide.  There, walking
    # the moduli up, each pair c_m < 0 < c_2m first takes
    # j = min(floor(-c_m / 2), c_2m) divisions by phi(-x^m) (q = 2), if
    # j * isqrt(order // m) <= order; phi(-x) has 20 nonzero terms at
    # exponents 1..400, so j = 20 fits and j = 21 does not.  The negative eta
    # exponents left take the pentagonal rule (q = 3): (x;x)_inf, with 32
    # nonzero terms at exponents 1..400, costs 384 <= 400 steps at |c| = 12
    # and takes that path, while |c| = 13 costs 416 and goes to the
    # recursion.  Series-1 = (psi(x^4) / phi(-x))^2, and phi(-x^4) has 10
    # terms up to 400.  Positive eta factors that pair with no negative one
    # (sign 1), and every factor of a spec with sum c/m >= 0, go to the
    # recursion, however cheap.  All agree with an oracle.
    assert len(series._theta(3, 400)) == 32
    assert len(series._theta(2, 400)) == 20
    assert len(series._theta(2, 100)) == 10
    parse = ProductSpec.parse
    if sign < 0:
        cases = (
            ("1n^-12", [(1, 3, 12)], None, 1),
            ("1n^-13", [], parse("1n^-13"), 1),
            (SERIES1.to_text(), [(1, 2, 2), (4, 2, 1)], parse("1n^3"), 8),
            ("1n^-40,2n^20", [(1, 2, 20)], None, 1),
            ("1n^-42,2n^21", [], parse("1n^-42,2n^21"), 1),
        )
    else:
        cases = (
            ("1n^-13,2n^12", [(1, 2, 6), (1, 3, 1)], parse("1n^6"), 2),
            ("1n^12", [], parse("1n^12"), 1),
            ("2n^-12,1n^6", [], parse("2n^-12,1n^6"), 1),
        )
    for text, *plan in cases:
        spec = parse(text)
        assert expand(spec, 400) == oracle_expand(spec, 400)
        assert _plan(spec, 400) == tuple(plan), text
    assert _plan(r_spec(4), 400) == ([], r_spec(4), 1)
    assert expand(r_spec(4), 400).coeffs == r_oracle(4, 400).values


def test_plan_costs_nothing_at_a_huge_order():
    # The theta terms are counted in closed form, so a plan builds no list
    # of the order's size.  For both q, at every limit below 20000 the count
    # is the length of the list _theta builds.
    for q in (2, 3):
        for limit in range(20000):
            assert series._theta_count(q, limit) == len(series._theta(q, limit)), (q, limit)
    assert _plan(SERIES1, 2**64) == ([(1, 2, 2), (4, 2, 1)], ProductSpec.parse("1n^3"), 8)
    assert _plan(ProductSpec.parse("1n^-1"), 2**64) == ([(1, 3, 1)], None, 1)


def test_expand_runs_exactly_its_plan(monkeypatch):
    # expand decides nothing: the recursion runs once, on the scaled spec to
    # order // g, exactly when a spec is left, and then each plan entry
    # (m, q, count) is count _over_eta calls whose shifts are the terms of
    # J(x^m; x^qm) - 1 up to the order.
    calls = []
    over_eta, recursion = series._over_eta, series._recursion

    def spied_over_eta(out, shifts):
        calls.append(shifts)
        return over_eta(out, shifts)

    def spied_recursion(weights, coeffs, g):
        calls.append((weights, len(coeffs[::g])))
        return recursion(weights, coeffs, g)

    monkeypatch.setattr(series, "_over_eta", spied_over_eta)
    monkeypatch.setattr(series, "_recursion", spied_recursion)
    corpus = random_spec_corpus(40, seed=31, max_modulus=12)
    for spec in (*corpus, SERIES1, ProductSpec.parse("1n^-3,5n-2^3,5n-3^3")):
        for order in (0, 1, 4, 18, 130, 400):
            divisions, scaled, g = _plan(spec, order)
            calls.clear()
            expand(spec, order)
            ran = [] if scaled is None else [(_weight_table(scaled, order // g), order // g + 1)]
            for m, q, count in divisions:
                ran += [[(m * d, c) for d, c in series._theta(q, order // m)]] * count
            assert calls == ran, (spec, order)


def over_eta_reference(out, shifts):
    """The recurrence in place, one coefficient and one shift at a time."""
    for n in range(1, len(out)):
        acc = out[n]
        for d, c in shifts:
            if d > n:
                break
            acc -= c * out[n - d]
        out[n] = acc


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_over_eta_matches_the_per_coefficient_loop(m):
    # Every order 0..130 puts the end of the list at d - 1, d and d + 1 for
    # each shift d below it, so every run boundary is crossed; 2000 runs long
    # runs.  Both term lists run: pentagonal shifts (q = 3, c = +-1) and
    # square shifts (q = 2, c = +-2); below m neither has a shift.
    # Coefficients are signed, some far past 2^64, and out[0] is not always 1.
    rng = Random(m)
    for q in (3, 2):
        for order in (*range(131), 2000):
            shifts = [(m * g, c) for g, c in series._theta(q, order // m)]
            bits = rng.choice((3, 70, 400))
            out = [rng.randint(-(1 << bits), 1 << bits) for _ in range(order + 1)]
            if rng.random() < 0.5:
                out[0] = 1
            expected = list(out)
            over_eta_reference(expected, shifts)
            assert series._over_eta(out, shifts) is None
            assert out == expected, (m, order, q)


@pytest.mark.parametrize(
    "text, firsts",
    [
        (SERIES1.to_text(), {(1, 2, 2): 2, (4, 2, 1): 4}),
        ("1n^-3,5n-1^3,5n-2^3", {(1, 3, 3): 18}),
    ],
)
def test_expand_matches_oracle_where_each_division_starts(text, firsts):
    # A division of a growing spec runs from the first order at which its
    # term list is nonempty and fits the cost cap.  Series-1 divides by
    # phi(-x) twice from order 2, where 2 * isqrt(2) = 2, and by phi(-x^4)
    # once from order 4, its first shift; the master member divides by
    # (x;x)^3 from 18, where 3 * T(18) = 18.  Just below, at and just above
    # each, expand must equal the oracle, and the plan holds the entry
    # (m, q, count) exactly from its first order.
    spec = ProductSpec.parse(text)
    oracle = oracle_expand(spec, max(firsts.values()) + 1)
    for entry, first in firsts.items():
        for order in (first - 1, first, first + 1):
            assert expand(spec, order).coeffs == oracle.coeffs[: order + 1]
            assert (entry in _plan(spec, order)[0]) == (order >= first), (entry, order)


@st.composite
def phi_quotients(draw):
    """A growing spec with c_m <= -2 and c_2m >= 1 for a drawn m, plus 0-2
    other factors (offsets included), with an order in 0..300."""
    m = draw(st.integers(1, 6))
    c = draw(st.integers(-6, -2))
    # c_2m < -2 c_m keeps the pair itself growing.
    factors = [Factor(FactorSet(m, 0), c), Factor(FactorSet(2 * m, 0), draw(st.integers(1, -2 * c - 1)))]
    for _ in range(draw(st.integers(0, 2))):
        modulus = draw(st.integers(1, 8))
        offset = draw(st.integers(0, modulus - 1))
        factors.append(Factor(FactorSet(modulus, offset), draw(st.integers(-3, 3).filter(bool))))
    return m, ProductSpec(factors), draw(st.integers(0, 300))


@settings(max_examples=100, deadline=None)
@given(phi_quotients())
@example((1, SERIES1, 300))
def test_expand_matches_oracle_on_phi_pairs(case):
    m, spec, order = case
    exponents = {(f.index_set.modulus, f.index_set.offset): f.exponent for f in spec.factors}
    assume(sum(Fraction(c, modulus) for (modulus, _), c in exponents.items()) < 0)
    assert expand(spec, order) == oracle_expand(spec, order)
    # The walk reaches m with the merged c_m and c_2m: only m pairs with 2m,
    # and the smaller modulus m/2 would lower c_m only if it were positive.
    c, c2 = exponents.get((m, 0), 0), exponents.get((2 * m, 0), 0)
    j = min(-c // 2, c2)
    expected = [(m, 2, j)] if 0 < j * isqrt(order // m) <= order else []
    assert [entry for entry in _plan(spec, order)[0] if entry[:2] == (m, 2)] == expected, (spec, order)


def test_expand_gives_overpartition_numbers():
    # 1 / phi(-x) = (-x;x)_inf / (x;x)_inf counts overpartitions (OEIS A015128).
    assert list(expand(ProductSpec.parse("1n^-2,2n^1"), 15)) == [
        1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232, 344, 504, 728, 1040, 1472,
    ]


def test_series1_is_the_square_of_psi_x4_over_phi():
    # Series-1 = (psi(x^4) / phi(-x))^2, where psi(q) = (q^2;q^2)^2 / (q;q)
    # and phi(-q) = (q;q)^2 / (q^2;q^2): the identity the phi path rests on.
    q = oracle_expand(ProductSpec.parse("1n^-2,2n^1,4n^-1,8n^2"), 300)
    assert multiply(q, q) == oracle_expand(SERIES1, 300)


@pytest.mark.parametrize(
    "text, g, scaled",
    [("2n^1,4n-2^2", 2, "1n^1,2n-1^2"), ("6n-3^2,9n^1", 3, "2n-1^2,3n^1"), ("8n^3", 8, "1n^3")],
    ids=["2n^1,4n-2^2-2", "6n-3^2,9n^1-3", "8n^3-8"],
)
def test_expand_runs_the_recursion_in_x_to_the_g(text, g, scaled):
    # Every element of these factors is a multiple of g, the gcd of their
    # moduli and offsets, so the recursion runs in y = x^g to order // g and
    # its result fills every g-th coefficient.  Orders 0..2g+1 put the end
    # of the list just below, at and just above the first two multiples of
    # g; 130 is well past them.
    spec = ProductSpec.parse(text)
    oracle = oracle_expand(spec, 130)
    for order in (*range(2 * g + 2), 130):
        assert _plan(spec, order) == ([], ProductSpec.parse(scaled), g), order
        assert expand(spec, order).coeffs == oracle.coeffs[: order + 1], order


@pytest.mark.parametrize(
    "spec",
    [r_spec(4), t_spec(6), u_spec(2, 3), ProductSpec.parse("1n^-3,5n-1^3,5n-3^3"), SERIES1],
    ids=ProductSpec.to_text,
)
def test_expand_matches_oracle_across_recursion_blocks(spec):
    # Orders 0..2*leaf+2 take one, two and then four leaves: the leaf count
    # doubles at orders 64 and 128, and again to eight at 256, which 255..257
    # straddle; 300 and 1000 take several levels of block products.
    # Truncated products are prefix-exact, so one oracle expansion serves
    # every order.  Series-1 runs its (x^8;x^8)^3 through the recursion in
    # x^8 and then divides by phi(-x) and phi(-x^4).
    leaf = series._LEAF
    oracle = oracle_expand(spec, 1000)
    for order in (*range(2 * leaf + 3), 255, 256, 257, 300, 1000):
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


def test_expand_leaves_no_reference_cycle():
    # A cycle would hold the recursion's sums and coefficients until the
    # next garbage collection.
    gc.collect()
    gc.disable()
    try:
        for spec in (r_spec(4), SERIES1, ProductSpec.parse("1n^-3,5n-1^3,5n-2^3")):
            expand(spec, 300)
            assert gc.collect() == 0, spec
    finally:
        gc.enable()


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


TOPS = st.integers(0, 2**200) | st.sampled_from([1, 8, 2**7, 2**64 - 1, 2**200])


@st.composite
def operand_pairs(draw):
    top = draw(TOPS)
    return draw(operands(top)), draw(operands(top))


SLOT_EDGES = (
    # 8 * 8 * 2 = 2^7: the bound itself needs a second byte.
    ([8, 8], [8, 8]),
    ([-8, -8], [8, 8]),
    ([5], [-3]),
    ([0] * 41, [2**200] * 41),
    # An operand, not the product, at the slot edge: c + half nears 0 or 2 * half.
    ([127], [1]),
    ([-127], [1]),
    ([2**64 - 1], [-1]),
    ([-(2**200)], [1, 1]),
)


def slot_edge_examples(cases):
    """Add an @example for each case that cases(pair) lists, over SLOT_EDGES."""

    def decorate(test):
        for pair in SLOT_EDGES:
            for case in cases(pair):
                test = example(case)(test)
        return test

    return decorate


@settings(max_examples=200, deadline=None)
@given(operand_pairs())
@slot_edge_examples(lambda pair: [pair])
def test_multiply_matches_the_double_sum(pair):
    a, b = pair
    product = multiply(PowerSeries(tuple(a)), PowerSeries(tuple(b)))
    assert list(product) == naive_product(a, b)
    assert multiply(a, b) == product


@settings(max_examples=200, deadline=None)
@given(TOPS.flatmap(operands))
@slot_edge_examples(lambda pair: pair)
def test_multiply_squares_like_two_operands(a):
    # multiply(a, a) packs a once and multiplies that int by itself; a
    # second series with the same coefficients is another object, so it
    # packs both operands.
    operand = PowerSeries(tuple(a))
    square = multiply(operand, operand)
    assert square == multiply(operand, PowerSeries(operand.coeffs))
    assert list(square) == naive_product(a, a)


def test_multiply_rejects_an_empty_operand():
    # A plain list, unlike a PowerSeries, can hold no coefficient at all.
    for a, b in (([], [1, 2]), ([1, 2], []), ([], [])):
        with pytest.raises(ValueError):
            multiply(a, b)


def test_checked_div_raises_on_remainder():
    assert checked_div(12, 4) == 3
    with pytest.raises(DivisibilityViolation):
        checked_div(3, 2)


def test_expand_rejects_negative_order():
    with pytest.raises(ValueError):
        expand(GAUSS, -1)

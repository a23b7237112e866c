"""Count tables against brute-force enumeration and the convolution oracles."""

from __future__ import annotations

from itertools import product as cartesian
from math import isqrt

import pytest

from qconvolve.counts import (
    _SQUARES_TERMS,
    _TRIANGULAR_TERMS,
    mixed_weight,
    r_oracle,
    r_spec,
    r_table,
    square_base,
    squares_weight,
    t_oracle,
    t_spec,
    t_table,
    triangular_base,
    triangular_weight,
    u_oracle,
    u_spec,
    u_table,
)
from qconvolve.divisor_sums import (
    sigma,
    sigma_class,
    sigma_combination,
    sigma_even,
    sigma_odd,
    sigma_scaled,
)
from qconvolve.series import PowerSeries, ProductSpec, _weight_table, expand, multiply


def brute_force_r(k, limit):
    """Count ordered k-tuples of integers whose squares sum to each n <= limit."""
    counts = [0] * (limit + 1)
    side = range(-isqrt(limit), isqrt(limit) + 1)
    for point in cartesian(side, repeat=k):
        total = sum(x * x for x in point)
        if total <= limit:
            counts[total] += 1
    return counts


def brute_force_t(k, limit):
    """Count ordered k-tuples of triangular numbers summing to each n <= limit."""
    triangulars = []
    y = 0
    while y * (y + 1) // 2 <= limit:
        triangulars.append(y * (y + 1) // 2)
        y += 1
    counts = [0] * (limit + 1)
    for point in cartesian(triangulars, repeat=k):
        total = sum(point)
        if total <= limit:
            counts[total] += 1
    return counts


def brute_force_u(k, l, limit):
    squares = brute_force_r(k, limit)
    triangulars = brute_force_t(l, limit)
    counts = [0] * (limit + 1)
    for a, sa in enumerate(squares):
        for b, tb in enumerate(triangulars[: limit - a + 1]):
            counts[a + b] += sa * tb
    return counts


def test_square_base_is_one_square_count():
    assert square_base(10) == brute_force_r(1, 10)
    assert square_base(5) == [1, 2, 0, 0, 2, 0]


def test_triangular_base_is_indicator():
    assert triangular_base(10) == [1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1]
    assert triangular_base(10) == brute_force_t(1, 10)


def test_r_table_small_values():
    assert list(r_table(2, 5)) == [1, 4, 4, 0, 4, 8]
    assert r_table(4, 3)[3] == 32
    assert r_table(8, 3)[3] == 448
    assert r_table(5, 0)[0] == 1


def test_r_tables_match_brute_force():
    for k in (1, 2, 3):
        expected = brute_force_r(k, 30)
        assert list(r_table(k, 30)) == expected
        assert list(r_oracle(k, 30)) == expected


def test_t_table_small_values():
    assert list(t_table(2, 4)) == [1, 2, 1, 2, 2]
    assert t_table(4, 3)[3] == 8
    assert list(t_table(1, 10)) == [1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1]


def test_t_tables_match_brute_force():
    for k in (1, 2, 3):
        expected = brute_force_t(k, 30)
        assert list(t_table(k, 30)) == expected
        assert list(t_oracle(k, 30)) == expected


def test_u_table_small_values():
    assert list(u_table(1, 1, 2)) == [1, 3, 2]
    assert list(u_oracle(1, 1, 2)) == [1, 3, 2]
    assert u_table(2, 1, 1)[1] == 5


def test_u_tables_match_brute_force():
    for k, l in ((1, 1), (1, 2), (2, 1), (2, 2)):
        expected = brute_force_u(k, l, 25)
        assert list(u_table(k, l, 25)) == expected
        assert list(u_oracle(k, l, 25)) == expected


def test_tables_agree_with_oracles_midrange():
    for k in range(1, 5):
        assert r_table(k, 60).values == r_oracle(k, 60).values
        assert t_table(k, 60).values == t_oracle(k, 60).values
    for k in (1, 3):
        for l in (1, 4):
            assert u_table(k, l, 60).values == u_oracle(k, l, 60).values


@pytest.mark.parametrize("order", [n for k in range(7) for n in (64 << k, (64 << k) + 1)])
def test_tables_agree_with_oracles_at_leaf_edges(order):
    # The recursion splits order + 1 coefficients into a power of two of
    # balanced leaves of at most 64.  At order 64 * 2^k the leaf count
    # doubles, to leaves of 32 and one of 33; one order more lengthens a
    # second leaf, so the block products start and end one place later.
    assert r_table(4, order).values == r_oracle(4, order).values
    assert t_table(6, order).values == t_oracle(6, order).values
    assert u_table(2, 3, order).values == u_oracle(2, 3, order).values


def test_count_tables_are_power_series():
    # r_2 r_2 = r_4 with no re-wrapping: a table passes straight to multiply.
    assert multiply(r_oracle(2, 200), r_oracle(2, 200)).coeffs == r_oracle(4, 200).values
    for table in (r_table(3, 40), t_table(5, 40), u_table(2, 3, 40)):
        assert type(table) is PowerSeries
        assert table.values == table.coeffs
        assert len(table) == 41
    assert type(r_oracle(2, 5)) is PowerSeries
    # A table is its series: equal, and found in a set holding the series.
    series = expand(ProductSpec.parse("1n^-4,2n^10,4n^-4"), 20)
    assert r_table(2, 20) == series
    assert r_table(2, 20) in {series}


def test_oracles_power_by_squaring(monkeypatch):
    # The k-th power takes one squaring per bit below the top and one more
    # multiply per further set bit: r_8 takes 3, r_7 takes 4.  Each squaring
    # passes one series twice, so multiply packs it once and squares the int.
    import qconvolve.counts as counts

    calls = []
    monkeypatch.setattr(counts, "multiply", lambda a, b: calls.append(a is b) or multiply(a, b))
    base = power = PowerSeries(tuple(square_base(80)))
    for k in range(1, 9):
        calls.clear()
        assert r_oracle(k, 80).values == power.coeffs
        assert len(calls) == k.bit_length() + k.bit_count() - 2
        assert calls.count(True) == k.bit_length() - 1
        power = multiply(power, base)


def test_square_counts_are_even_past_zero():
    for k in range(1, 9):
        table = r_table(k, 100)
        assert all(v % 2 == 0 for v in table.values[1:])


def test_counts_are_nonnegative_with_unit_head():
    for table in (r_table(3, 50), t_table(5, 50), u_table(2, 3, 50)):
        assert table[0] == 1
        assert all(v >= 0 for v in table)


def test_generating_products_reproduce_tables():
    for k in (1, 2, 4):
        jacobi_k = ProductSpec.parse(f"2n^{k},4n-2^{2 * k},2n-1^{-2 * k}")
        assert tuple(expand(jacobi_k, 80)) == r_table(k, 80).values
        gauss_k = ProductSpec.parse(f"2n^{k},2n-1^{-k}")
        assert tuple(expand(gauss_k, 80)) == t_table(k, 80).values
    for k, l in ((1, 1), (2, 3)):
        mixed = ProductSpec.parse(f"2n^{3 * k + l},4n^{-2 * k},2n-1^{-2 * k - l}")
        assert tuple(expand(mixed, 80)) == u_table(k, l, 80).values


def test_mixed_weight_matches_residue_class_form():
    for m in range(1, 1001):
        even = sigma_even(m)
        zero_mod4 = sigma_class(m, 0, 4)
        odd = sigma_odd(m)
        for k in range(1, 5):
            for l in range(1, 5):
                lhs = -(3 * k + l) * even + 2 * k * zero_mod4 + (2 * k + l) * odd
                rhs = (
                    (2 * k + l) * sigma(m)
                    - 2 * (5 * k + 2 * l) * sigma_scaled(m, 2)
                    + 8 * k * sigma_scaled(m, 4)
                )
                assert lhs == rhs == mixed_weight(m, k, l)


def test_table_specs_have_the_paper_weights():
    # The tables expand these specs, so their recursion weights must be the
    # paper's divisor-sum formulas.
    grid = [(k, l) for k in (1, 2, 3) for l in (1, 2, 4)]
    limit = 1000
    for k in range(1, 5):
        r_weights, t_weights = _weight_table(r_spec(k), limit), _weight_table(t_spec(k), limit)
        for m in range(1, limit + 1):
            assert r_weights[m] == 2 * k * squares_weight(m)
            assert t_weights[m] == k * triangular_weight(m)
    for k, l in grid:
        u_weights = _weight_table(u_spec(k, l), limit)
        for m in range(1, limit + 1):
            assert u_weights[m] == mixed_weight(m, k, l)
    # The same weights through the sieve the verifiers read, whole tables at
    # once, index 0 included.
    squares = sigma_combination(limit, _SQUARES_TERMS)
    triangular = sigma_combination(limit, _TRIANGULAR_TERMS)
    for k in range(1, 5):
        assert _weight_table(r_spec(k), limit) == [2 * k * w for w in squares]
        assert _weight_table(t_spec(k), limit) == [k * w for w in triangular]
    for k, l in grid:
        expected = [2 * k * s + l * t for s, t in zip(squares, triangular)]
        assert _weight_table(u_spec(k, l), limit) == expected
    # u_spec merges r_spec(k) and t_spec(l) into one eta quotient.
    for k, l in grid:
        assert u_spec(k, l).to_text() == f"1n^{-(2 * k + l)},2n^{5 * k + 2 * l},4n^{-2 * k}"


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        r_table(0, 5)
    with pytest.raises(ValueError):
        t_oracle(0, 5)
    with pytest.raises(ValueError):
        u_table(1, 0, 5)
    with pytest.raises(ValueError):
        r_oracle(2, -1)
    with pytest.raises(ValueError):
        t_oracle(2, -1)

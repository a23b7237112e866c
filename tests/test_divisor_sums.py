"""Divisor-sum functions against direct trial-division oracles."""

from __future__ import annotations

import tracemalloc
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from qconvolve import divisor_sums
from qconvolve.divisor_sums import (
    divisors,
    sigma,
    sigma_class,
    sigma_combination,
    sigma_even,
    sigma_odd,
    sigma_scaled,
    sigma_star,
    sigma_star_scaled,
    sigma_table,
)


def oracle_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


def test_divisors_against_oracle():
    for n in range(1, 201):
        assert divisors(n) == oracle_divisors(n)


def test_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisors(0)


def test_sigma_examples():
    assert sigma(1) == 1
    assert sigma(0) == 1  # convention trap: defined as 1, not 0
    assert sigma(6) == 12
    assert sigma(7) == 8


def test_sigma_scaled_examples():
    assert sigma_scaled(6, 2) == 4
    assert sigma_scaled(5, 2) == 0
    assert sigma_scaled(8, 4) == 3
    # 0/m is the integer 0, so the sigma(0) = 1 convention applies
    assert sigma_scaled(0, 3) == 1


def test_sigma_class_examples():
    assert sigma_class(15, 1, 2) == 24
    assert sigma_class(4, 0, 2) == 6
    assert sigma_class(1, 1, 2) == 1


def test_sigma_class_rejects_large_residue():
    with pytest.raises(ValueError):
        sigma_class(10, 2, 2)
    with pytest.raises(ValueError):
        sigma_class(10, -1, 2)


def test_sigma_odd_even_examples():
    assert sigma_odd(12) == 4
    assert sigma_even(12) == 24
    assert sigma_odd(1) == 1


def test_sigma_star_examples():
    assert sigma_star(1) == 1
    assert sigma_star(12) == 16
    assert sigma_star(5) == 6
    assert sigma_star(0) == 0  # deliberately asymmetric with sigma(0) = 1


def test_sigma_star_scaled_examples():
    assert sigma_star_scaled(5, 2) == 0
    assert sigma_star_scaled(4, 2) == 2
    assert sigma_star_scaled(6, 3) == 2
    for m in range(1, 9):
        assert sigma_star_scaled(0, m) == 0, m  # sigma(0) - sigma(0)


def test_functions_match_definition_oracles():
    for n in range(1, 201):
        divs = oracle_divisors(n)
        assert sigma(n) == sum(divs)
        assert sigma_odd(n) == sum(d for d in divs if d % 2 == 1)
        assert sigma_even(n) == sum(d for d in divs if d % 2 == 0)
        assert sigma_star(n) == sum(d for d in divs if (n // d) % 2 == 1)
        for m in (2, 3, 4, 8):
            assert sigma_scaled(n, m) == (sum(oracle_divisors(n // m)) if n % m == 0 else 0)
            assert sigma_star_scaled(n, m) == (
                sum(d for d in oracle_divisors(n // m) if (n // m // d) % 2 == 1)
                if n % m == 0
                else 0
            )
        for m in (2, 3, 5):
            for r in range(m):
                assert sigma_class(n, r, m) == sum(d for d in divs if d % m == r)


@given(st.integers(min_value=1, max_value=10_000))
def test_sigma_splits_into_odd_and_even(n):
    assert sigma(n) == sigma_odd(n) + sigma_even(n)


@given(st.integers(min_value=1, max_value=10_000))
def test_sigma_star_equals_sigma_minus_half(n):
    assert sigma_star(n) == sigma(n) - sigma_scaled(n, 2)


def test_odd_multiples_class_identity():
    # sigma_{m,2m}(n) = m * sigma_odd(n/m) when m | n, and the class sum is
    # empty otherwise.
    for n in range(1, 201):
        for m in range(1, 201):
            lhs = sigma_class(n, m % (2 * m), 2 * m)
            if n % m == 0:
                assert lhs == m * sigma_odd(n // m)
            else:
                assert lhs == 0


def test_zero_class_identity():
    for n in range(1, 201):
        for m in range(1, 201):
            assert sigma_class(n, 0, m) == m * sigma_scaled(n, m)


@given(st.integers(min_value=1, max_value=10_000))
def test_squares_weight_combination(n):
    # -sigma_even - 2 sigma_{2,4} + 2 sigma_odd collapses to the
    # sigma_star combination used by the square-count recursion.
    lhs = -sigma_even(n) - 2 * sigma_class(n, 2, 4) + 2 * sigma_odd(n)
    assert lhs == 2 * sigma_star(n) - 8 * sigma_star_scaled(n, 2)


def test_sigma_table_matches_sigma():
    table = sigma_table(2000)
    assert table[0] == 1
    for n in range(0, 2001):
        assert table[n] == sigma(n)


def test_sigma_table_at_every_small_limit():
    # Covers the sieve bound isqrt(limit) where it is 0, 1 and an exact root.
    for limit in range(65):
        assert list(sigma_table(limit)) == [sigma(n) for n in range(limit + 1)]


def test_sigma_table_at_prime_powers_and_squares_near_the_root():
    limit = 2**18
    table = sigma_table(limit)
    for p in (2, 3, 5, 7):
        power = p
        while power <= limit:
            assert table[power] == (power * p - 1) // (p - 1)
            power *= p
    root = isqrt(limit)
    near = [q for q in range(root - 20, root + 20) if divisors(q) == [1, q]]
    assert near == [499, 503, 509, 521, 523]
    for q in near:
        assert table[q] == q + 1
        if q * q <= limit:
            assert table[q * q] == q * q + q + 1
    # Where limit is a prime square, the sieve must still reach its root.
    assert sigma_table(509 * 509)[-1] == 509 * 509 + 509 + 1


def test_sigma_table_matches_sympy():
    sympy = pytest.importorskip("sympy")
    table = sigma_table(2000)
    assert list(table[1:]) == [int(sympy.divisor_sigma(n)) for n in range(1, 2001)]


def test_sigma_table_takes_at_most_13_bytes_per_entry():
    # The table's 8 bytes per entry; the mark fills' temporaries are bounded
    # by _BLOCK items, not by limit // p.
    limit = 200_000
    tracemalloc.start()
    try:
        sigma_table(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (limit + 1) + 512 * 1024


def test_sigma_table_at_the_mark_fills_chunk_edges():
    # Each limit where a mark fill first holds a whole number of _BLOCK
    # chunks, and its neighbours: p = 2 from 4 at stride 2 (one and two
    # chunks) and stride 4, and p = 3 from 9 at stride 3.
    edge = divisor_sums._BLOCK
    ends = (2 * edge + 2, 4 * edge + 2, 4 * edge, 3 * edge + 6)
    limits = sorted({end + d for end in ends for d in range(-2, 4)})
    expected = [sigma(n) for n in range(limits[-1] + 1)]
    for limit in limits:
        assert list(sigma_table(limit)) == expected[: limit + 1], limit


def test_sigma_combination_with_moduli_that_straddle_blocks():
    # Moduli that do not divide the block size start a block mid-stride.
    terms = ((3, 3), (-2, 5), (1, 7))
    top = 2 * divisor_sums._BLOCK + 1
    expected = [0] + [sum(c * sigma_scaled(n, m) for c, m in terms) for n in range(1, top + 1)]
    for limit in (0, 1, top // 2 - 1, top // 2, top // 2 + 1, top):
        assert list(sigma_combination(limit, terms)) == expected[: limit + 1], limit


def test_sigma_combination_raises_past_64_bits():
    # 2^62 sigma(1) + 2^62 sigma(1) = 2^63 does not fit: no wrapped value.
    with pytest.raises(OverflowError):
        sigma_combination(10, ((2**62, 1), (2**62, 1)))


def test_sigma_combination_rejects_a_modulus_below_1():
    # -2 once gave every other sum, from a backwards stride; 0 divided by zero.
    for terms in ([(1, -2)], [(1, 0)], [(1, 1), (3, 0)]):
        with pytest.raises(ValueError, match=str(terms[-1][1])):
            sigma_combination(10, terms)


def test_negative_arguments_rejected():
    for fn in (sigma, sigma_star):
        with pytest.raises(ValueError):
            fn(-1)
    with pytest.raises(ValueError):
        sigma_scaled(4, 0)
    with pytest.raises(ValueError):
        sigma_star_scaled(4, 0)

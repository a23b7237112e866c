"""Representation-count tables for squares, triangular numbers, and mixed sums.

r_k(n) counts ordered integer k-tuples of squares summing to n, t_k(n)
ordered k-tuples of triangular numbers, and u_{k,l}(n) mixed sums of k
squares plus l triangular numbers.  Each table is computed two independent
ways.  The tables expand an eta quotient, a product of (q^m;q^m)^c factors,
with series.expand.  For each of these quotients sum c/m is 0, so the
counts grow only polynomially and expand runs its log-derivative recursion
(divide and conquer over series.multiply, every division checked-exact)
rather than the pentagonal path, whose intermediates would be
partition-sized.  The spec's recursion weight is the paper's divisor-sum
combination, the (c, d) terms _SQUARES_TERMS and _TRIANGULAR_TERMS, which
test_table_specs_have_the_paper_weights pins.  The oracles take convolution
powers of the k = 1 indicator tables by binary powering with
series.multiply, a Kronecker substitution product; they never call expand.
Tables and oracles are plain PowerSeries: the counts g(0..N) are the
coefficients of theta^k, psi^k or theta^k psi^l, so a table passes
straight to series.multiply and compares equal to its series.
"""

from __future__ import annotations

from math import isqrt

from .divisor_sums import sigma_scaled
from .series import PowerSeries, ProductSpec, expand, multiply

# The paper's recursion weights as (c, d) terms of sum c * sigma(m/d), the
# form divisor_sums.sigma_combination sieves: sigma*(m) - 4 sigma*(m/2) per
# square of r_k, and sigma(m) - 4 sigma(m/2) per triangular number of t_k.
_SQUARES_TERMS = ((1, 1), (-5, 2), (4, 4))
_TRIANGULAR_TERMS = ((1, 1), (-4, 2))


def squares_weight(m: int) -> int:
    """sigma_star(m) - 4 sigma_star(m/2), the r_k recursion weight."""
    return sum(c * sigma_scaled(m, d) for c, d in _SQUARES_TERMS)


def triangular_weight(m: int) -> int:
    """sigma(m) - 4 sigma(m/2), the t_k recursion weight."""
    return sum(c * sigma_scaled(m, d) for c, d in _TRIANGULAR_TERMS)


def mixed_weight(m: int, k: int, l: int) -> int:
    """The u_{k,l} weight: theta^k psi^l is a product, so its weights add."""
    return 2 * k * squares_weight(m) + l * triangular_weight(m)


def r_spec(k: int) -> ProductSpec:
    """theta^k = (q^2;q^2)^5k / ((q;q)^2k (q^4;q^4)^2k); weight 2k squares_weight."""
    return ProductSpec.parse(f"1n^{-2 * k},2n^{5 * k},4n^{-2 * k}")


def t_spec(k: int) -> ProductSpec:
    """psi^k = (q^2;q^2)^2k / (q;q)^k; weight k triangular_weight."""
    return ProductSpec.parse(f"1n^{-k},2n^{2 * k}")


def u_spec(k: int, l: int) -> ProductSpec:
    """theta^k psi^l as one eta quotient; weight mixed_weight(., k, l)."""
    return ProductSpec(r_spec(k).factors + t_spec(l).factors)


def r_table(k: int, order: int) -> PowerSeries:
    """Counts of n as an ordered sum of k integer squares, n = 0..order."""
    if k < 1:
        raise ValueError(f"r_table requires k >= 1, got {k}")
    return expand(r_spec(k), order)


def t_table(k: int, order: int) -> PowerSeries:
    """Counts of n as an ordered sum of k triangular numbers."""
    if k < 1:
        raise ValueError(f"t_table requires k >= 1, got {k}")
    return expand(t_spec(k), order)


def u_table(k: int, l: int, order: int) -> PowerSeries:
    """Counts of n as k squares plus l triangular numbers, both ordered."""
    if k < 1 or l < 1:
        raise ValueError(f"u_table requires k, l >= 1, got k={k}, l={l}")
    return expand(u_spec(k, l), order)


def square_base(order: int) -> list[int]:
    """r_1: 1 at 0, 2 at each positive perfect square."""
    if order < 0:
        raise ValueError(f"square_base requires order >= 0, got {order}")
    base = [0] * (order + 1)
    base[0] = 1
    for a in range(1, isqrt(order) + 1):
        base[a * a] = 2
    return base


def triangular_base(order: int) -> list[int]:
    """t_1: indicator of the triangular numbers y(y+1)/2."""
    if order < 0:
        raise ValueError(f"triangular_base requires order >= 0, got {order}")
    base = [0] * (order + 1)
    y = 0
    while y * (y + 1) // 2 <= order:
        base[y * (y + 1) // 2] = 1
        y += 1
    return base


def _convolution_power(base: list[int], k: int) -> PowerSeries:
    """base^k by binary powering: r_8 takes three squarings."""
    square, power = PowerSeries(tuple(base)), None
    while True:
        if k & 1:
            power = square if power is None else multiply(power, square)
        k >>= 1
        if not k:
            return power
        square = multiply(square, square)


def r_oracle(k: int, order: int) -> PowerSeries:
    """r_table oracle: k-th convolution power of the square indicator."""
    if k < 1:
        raise ValueError(f"r_oracle requires k >= 1, got {k}")
    return _convolution_power(square_base(order), k)


def t_oracle(k: int, order: int) -> PowerSeries:
    """t_table oracle: k-th convolution power of the triangular indicator."""
    if k < 1:
        raise ValueError(f"t_oracle requires k >= 1, got {k}")
    return _convolution_power(triangular_base(order), k)


def u_oracle(k: int, l: int, order: int) -> PowerSeries:
    """u_table oracle: product of the square and triangular power tables."""
    if k < 1 or l < 1:
        raise ValueError(f"u_oracle requires k, l >= 1, got k={k}, l={l}")
    return multiply(r_oracle(k, order), t_oracle(l, order))

"""Exact divisor-sum arithmetic.

Scaled arguments follow the convention that sigma of a non-integer rational
is 0, so sigma(n/m) contributes only when m divides n.  Two edge conventions
differ on purpose: sigma(0) = 1, while sigma_star(0) = 0 (the odd-cofactor
sum is supported on positive integers only).

Every scalar function is a pure function of its arguments, computed by
trial division up to sqrt(n).  Bulk values come from one multiplicative
sieve, sigma_table (a prime factor per n, then one O(N) pass), and
sigma_combination for sums of scaled sigma terms.
"""

from __future__ import annotations

from math import isqrt


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    large.reverse()
    return small + large


def sigma(n: int) -> int:
    """Sum of the positive divisors of n, with sigma(0) = 1."""
    if n < 0:
        raise ValueError(f"sigma requires n >= 0, got {n}")
    if n == 0:
        return 1
    return sum(divisors(n))


def sigma_scaled(n: int, m: int) -> int:
    """sigma(n/m) when m divides n, else 0 (non-integer argument)."""
    if m < 1:
        raise ValueError(f"sigma_scaled requires m >= 1, got {m}")
    if n < 0:
        raise ValueError(f"sigma_scaled requires n >= 0, got {n}")
    q, r = divmod(n, m)
    return sigma(q) if r == 0 else 0


def sigma_class(n: int, r: int, m: int) -> int:
    """Sum of the divisors of n congruent to r modulo m.

    r >= m is rejected rather than silently reduced, to surface caller bugs.
    """
    if n < 1:
        raise ValueError(f"sigma_class requires n >= 1, got {n}")
    if m < 1:
        raise ValueError(f"sigma_class requires m >= 1, got {m}")
    if not 0 <= r < m:
        raise ValueError(f"sigma_class requires 0 <= r < m, got r={r}, m={m}")
    return sum(d for d in divisors(n) if d % m == r)


def sigma_odd(n: int) -> int:
    """Sum of the odd divisors of n."""
    return sigma_class(n, 1, 2)


def sigma_even(n: int) -> int:
    """Sum of the even divisors of n."""
    return sigma_class(n, 0, 2)


def sigma_star(n: int) -> int:
    """Sum of the divisors d of n whose cofactor n/d is odd; 0 at n = 0.

    Equals sigma(n) - sigma(n/2) for n >= 1.
    """
    if n < 0:
        raise ValueError(f"sigma_star requires n >= 0, got {n}")
    if n == 0:
        return 0
    return sum(d for d in divisors(n) if (n // d) % 2 == 1)


def sigma_star_scaled(n: int, m: int) -> int:
    """sigma_star(n/m) when m divides n, else 0."""
    if m < 1:
        raise ValueError(f"sigma_star_scaled requires m >= 1, got {m}")
    if n < 0:
        raise ValueError(f"sigma_star_scaled requires n >= 0, got {n}")
    q, r = divmod(n, m)
    return sigma_star(q) if r == 0 else 0


def sigma_table(limit: int) -> list[int]:
    """sigma(0..limit) by a prime-factor sieve and one multiplicative pass.

    Index 0 carries the sigma(0) = 1 convention.  Slice assignments give
    every composite n a prime factor p (0 marks a prime, which is its own);
    one pass in increasing n then applies, with m = n/p,
        sigma(n) = (p+1) sigma(m) - p sigma(m/p)   when p divides m,
        sigma(n) = (p+1) sigma(m)                  otherwise,
    which holds for any prime factor p.  Bulk companion to sigma for range
    verifications; agreement with sigma is part of the test suite.
    """
    if limit < 0:
        raise ValueError(f"sigma_table requires limit >= 0, got {limit}")
    factor = [0] * (limit + 1)
    for p in range(2, isqrt(limit) + 1):
        # A composite p was marked by a smaller prime q with q * q <= p.
        if not factor[p]:
            factor[p * p :: p] = [p] * ((limit - p * p) // p + 1)
    table = [1] * (limit + 1)
    for n in range(2, limit + 1):
        p = factor[n] or n
        m = n // p
        if m % p:
            table[n] = (p + 1) * table[m]
        else:
            table[n] = (p + 1) * table[m] - p * table[m // p]
    return table


def sigma_combination(limit: int, terms) -> list[int]:
    """Sum of c * sigma(n/m) over the (c, m) terms, for n = 0..limit.

    Index 0 is 0.  Every term reads the same sigma_table; sigma(n/m)
    contributes only when m divides n.
    """
    table = sigma_table(limit)
    out = [0] * (limit + 1)
    for c, m in terms:
        for q in range(1, limit // m + 1):
            out[q * m] += c * table[q]
    return out

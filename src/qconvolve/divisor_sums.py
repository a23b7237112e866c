"""Exact divisor-sum arithmetic.

Scaled arguments follow the convention that sigma of a non-integer rational
is 0, so sigma(n/m) contributes only when m divides n.  Two edge conventions
differ on purpose: sigma(0) = 1, while sigma_star(0) = sigma(0) - sigma(0/2)
= 0 (the odd-cofactor sum is supported on positive integers only).

Every scalar function is a pure function of its arguments, computed by
trial division up to sqrt(n).  Bulk values come from one multiplicative
sieve, sigma_table (a prime factor per n, then one O(N) pass), and
sigma_combination for sums of scaled sigma terms, which overwrites its own
sieve: each returns one array('q') of 8 bytes an entry.
"""

from __future__ import annotations

from array import array
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
    """Sum of the divisors d of n whose cofactor n/d is odd; 0 at n = 0."""
    return sigma_star_scaled(n, 1)


def sigma_star_scaled(n: int, m: int) -> int:
    """sigma_star(n/m) = sigma(n/m) - sigma(n/2m), so 0 unless m divides n."""
    return sigma_scaled(n, m) - sigma_scaled(n, 2 * m)


_BLOCK = 4096


def _fill(seq, start: int, step: int, item) -> None:
    """Set seq[start::step] to the one-item sequence item, repeated.

    The slices assigned hold at most _BLOCK items each, so the fill's own
    temporaries stay under _BLOCK items however long the stride runs.
    """
    count = len(range(start, len(seq), step))
    pattern = item * min(count, _BLOCK)
    for done in range(0, count, _BLOCK):
        lo = start + done * step
        size = min(_BLOCK, count - done)
        seq[lo : lo + size * step : step] = pattern if size == len(pattern) else pattern[:size]


def sigma_table(limit: int) -> array:
    """sigma(0..limit) by a prime-factor sieve and one multiplicative pass.

    Index 0 carries the sigma(0) = 1 convention.  Bounded fills (_fill) mark
    each composite n in the table with a prime factor p, as -p when p^2
    divides n (0 marks a prime); one pass in increasing n then replaces each
    mark by sigma(n) = (p+1) sigma(n/p), less p sigma(n/p^2) when p^2 | n,
    reading only entries it has already filled.  The array('q') takes 8 bytes
    an entry, and sigma(n) < 2^59 below limit 2^50 (an 8 PB table); a value
    past 2^63 raises, never wraps.  The tests check it against sigma.
    """
    if limit < 0:
        raise ValueError(f"sigma_table requires limit >= 0, got {limit}")
    table = array("q", [0]) * (limit + 1)
    for p in range(2, isqrt(limit) + 1):
        # A composite p was marked by a smaller prime q with q * q <= p.
        if not table[p]:
            _fill(table, p * p, p, array("q", [p]))
            _fill(table, p * p, p * p, array("q", [-p]))
    table[:2] = array("q", [1, 1][: limit + 1])  # sigma(0) and sigma(1)
    # A memoryview stores an int faster than array's own item assignment.
    with memoryview(table) as view:
        for n in range(2, limit + 1):
            p = view[n]
            if p > 0:
                view[n] = (p + 1) * view[n // p]
            elif p:
                m = n // -p
                view[n] = (1 - p) * view[m] + p * view[m // -p]
            else:
                view[n] = n + 1
    return table


def sigma_combination(limit: int, terms) -> array:
    """Sum of c * sigma(n/m) over the (c, m) terms, for n = 0..limit.

    Index 0 is 0.  Every term reads the same sigma_table, and the sums
    overwrite it block by block, top down: a block of _BLOCK sums reads its
    own entries, all before it writes them, and entries below it (n/m with
    m >= 2), which no block has written yet.  sigma(n/m) contributes only
    when m divides n, and a modulus m < 1 raises ValueError.  The package's
    term sets keep |sum| <= 48 sigma(n) < 2^59 below limit 2^50; a sum past
    2^63 raises OverflowError.
    """
    if (least := min((m for _, m in terms), default=1)) < 1:
        raise ValueError(f"sigma_combination requires moduli m >= 1, got {least}")
    table = sigma_table(limit)
    for start in range(limit // _BLOCK * _BLOCK, -1, -_BLOCK):
        stop = min(start + _BLOCK, limit + 1)
        block = [0] * (stop - start)
        for c, m in terms:
            # The multiples q * m in [start, stop), with q >= 1.
            first = max(1, -(-start // m))
            j = first * m - start
            block[j::m] = [b + c * x for b, x in zip(block[j::m], table[first : (stop - 1) // m + 1])]
        table[start:stop] = array("q", block)
    return table

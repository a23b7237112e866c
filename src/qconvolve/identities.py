"""Closed-form count evaluators, identity verifiers, and positivity checkers.

The verifiers recompute both sides of each identity from independent
ingredients, never from the recursion under test: count values come from
the convolution-power oracles, and the divisor-sum combinations from one
sigma sieve (divisor_sums.sigma_combination).  Every convolution sum of a
verifier comes from one series.multiply of its count table and its weight
table, indexed by the input.  Primality is read only from the flags of
bytearray sieves (_prime_flags), each sized to the largest value it tests
before the loop that reads it.  The master family expands each a = 1
member and raises it to a = 2 and 3 on the spot.
The closed forms serve single values.
Failures are collected in reports rather than raised, so a full range can
be surveyed in one pass; a report passes only if it checked an input and
nothing failed.  One check, _check_positive, decides every positivity
claim.  Each range and positivity verifier takes its size as a keyword
(limit, order, count, seed) with the README default; the CLI reads both the
flags an identity accepts and their defaults from these signatures.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations, islice

from .counts import _SQUARES_TERMS, _TRIANGULAR_TERMS, r_oracle, t_oracle
from .divisor_sums import _fill, divisors, sigma, sigma_combination, sigma_scaled
from .errors import DivisibilityViolation, PreconditionNotMet, checked_div
from .series import (
    Factor,
    FactorSet,
    PowerSeries,
    ProductSpec,
    _Value,
    expand,
    multiply,
    oracle_expand,
    random_spec_corpus,
)


class Failure(_Value):
    __slots__ = ("input", "lhs", "rhs")

    def __init__(self, input: int, lhs: str, rhs: str):
        self._set(input, lhs, rhs)


class VerificationReport:
    """Per-input pass/fail record for one identity over the inputs it checks."""

    def __init__(self, identity: str, inputs_checked: Sequence[int], failures: list[Failure] | None = None):
        self.identity = identity
        self.inputs_checked = inputs_checked
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return bool(self.inputs_checked) and not self.failures

    def expect(self, value: int, lhs, rhs) -> None:
        if lhs != rhs:
            self.failures.append(Failure(value, str(lhs), str(rhs)))

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "checked": len(self.inputs_checked),
            "failures": [
                {"input": f.input, "lhs": f.lhs, "rhs": f.rhs} for f in self.failures
            ],
            "passed": self.passed,
        }


# --- primality, by sieve ---


def _prime_flags(limit: int) -> bytearray:
    """flags[n] is 1 when n is prime and 0 otherwise, for 0 <= n < limit."""
    # One byte an entry: zeroed, not repeated (out of memory, CPython 3.11's
    # bytearray repeat also writes a stray SystemError line to stderr), with
    # bounded fills for the ones and the composites' zeros.
    flags = bytearray(max(limit, 0))
    _fill(flags, 2, 1, b"\x01")  # 0 and 1 stay 0: not prime
    p = 2
    while p * p < limit:
        if flags[p]:
            _fill(flags, p * p, p, b"\x00")
        p += 1
    return flags


def _require_prime(flags, value: int, name: str) -> None:
    if value < 2 or not flags[value]:
        raise PreconditionNotMet(f"{name} = {value} is not prime")


def _require_odd_prime(flags, p: int) -> None:
    _require_prime(flags, p, "p")
    if p == 2:
        raise PreconditionNotMet("p must be an odd prime, got 2")


# --- closed forms ---


def kronecker_minus4(d: int) -> int:
    """1 for d = 1 mod 4, -1 for d = 3 mod 4, 0 for even d."""
    if d < 1:
        raise ValueError(f"kronecker_minus4 requires d >= 1, got {d}")
    r = d % 4
    if r == 1:
        return 1
    if r == 3:
        return -1
    return 0


def r2_closed(n: int) -> int:
    """r_2(n) = 4 * sum of kronecker_minus4 over the divisors of n."""
    if n < 1:
        raise ValueError(f"r2_closed requires n >= 1, got {n}")
    return 4 * sum(kronecker_minus4(d) for d in divisors(n))


def r4_closed(n: int) -> int:
    """r_4(n) = 8 sigma(n) - 32 sigma(n/4)."""
    if n < 1:
        raise ValueError(f"r4_closed requires n >= 1, got {n}")
    return 8 * sigma(n) - 32 * sigma_scaled(n, 4)


def r8_closed(n: int) -> int:
    """r_8(n) = 16 (-1)^n * sum over divisors d of n of (-1)^d d^3."""
    if n < 1:
        raise ValueError(f"r8_closed requires n >= 1, got {n}")
    alternating = sum(d ** 3 if d % 2 == 0 else -(d ** 3) for d in divisors(n))
    return 16 * alternating if n % 2 == 0 else -16 * alternating


def t2_closed(n: int) -> int:
    """t_2(n) = sum of kronecker_minus4 over the divisors of 4n + 1."""
    if n < 0:
        raise ValueError(f"t2_closed requires n >= 0, got {n}")
    return sum(kronecker_minus4(d) for d in divisors(4 * n + 1))


def t4_closed(n: int) -> int:
    """t_4(n) = sigma(2n + 1)."""
    if n < 0:
        raise ValueError(f"t4_closed requires n >= 0, got {n}")
    return sigma(2 * n + 1)


def t6_closed(n: int) -> int:
    """t_6(n) = -(1/8) * sum over divisors d of 4n + 3 of kronecker_minus4(d) d^2.

    The division by 8 is checked-exact; divisors of 4n + 3 are odd and pair
    off with opposite characters, so the sum is always divisible.
    """
    if n < 0:
        raise ValueError(f"t6_closed requires n >= 0, got {n}")
    total = sum(kronecker_minus4(d) * d * d for d in divisors(4 * n + 3))
    return checked_div(-total, 8)


# --- verifier ingredients ---

# (c, m) terms of sum c * sigma(n/m), for divisor_sums.sigma_combination.
# sigma(m) - 4 sigma(m/4), r_4 / 8:
_R4_TERMS = ((1, 1), (-4, 4))
# 4 sigma(m) - 4 sigma(m/2) + 8 sigma(m/4) - 32 sigma(m/8), R-positive's:
_R_TERMS = ((4, 1), (-4, 2), (8, 4), (-32, 8))


def _weighted_sums(values, weights, start: int = 1) -> tuple[int, ...]:
    """All sums sum_{j=start}^{n-1} values[j] weights[n-j], indexed by n.

    One multiply of the two tables: weights[0] is 0, so coefficient n of
    (0,)*start + values[start:] times weights is exactly that sum.  Both
    tables get one trailing 0, so the sums reach n = len(tables), one past
    the last index either table holds.
    """
    head = PowerSeries((0,) * start + tuple(values[start:]) + (0,))
    return multiply(head, PowerSeries((*weights, 0))).coeffs


# --- convolution identity ---


def verify_convolution(limit: int = 300) -> VerificationReport:
    """Convolution of sigma(j)-4 sigma(j/4) against sigma*(j)-4 sigma*(j/2).

    For each n in [1, limit] checks
        8 * sum_{j=1}^{n-1} (sigma(j) - 4 sigma(j/4)) (sigma*(n-j) - 4 sigma*((n-j)/2))
          = n (sigma(n) - 4 sigma(n/4)) - (sigma*(n) - 4 sigma*(n/2)).
    The factor 8 normalizes the four-squares count r_4 = 8 (sigma - 4 sigma(./4));
    the same equality, read coefficientwise, certifies the product of the two
    generating series.
    """
    report = VerificationReport("convolution", range(1, limit + 1))
    h4 = sigma_combination(limit, _R4_TERMS)
    g = sigma_combination(limit, _SQUARES_TERMS)
    sums = _weighted_sums(h4, g)
    for n in report.inputs_checked:
        report.expect(n, 8 * sums[n], n * h4[n] - g[n])
    return report


# --- prime sums against r_2, r_4, r_8 ---
#
# Each single-input verifier below checks its precondition and runs a core
# over [x] at size x + 1; the range verifier runs the same core over every
# qualifying input below the limit, at size limit.  A core's tables hold
# indices 0..size, so its sums reach n = size + 1.


def _check_twin_r2(report, p, sums):
    # Twin corollary: the sum at p + 2 is -4 - (sum at p) when p = 1 mod 4,
    # and -(sum at p) when p = 3 mod 4.
    expected = -4 - sums[p] if p % 4 == 1 else -sums[p]
    report.expect(p, sums[p + 2], expected)


def _prime_r2(primes, size: int, flags) -> VerificationReport:
    # The twin check at p reads sums and flags at p + 2, so size > max(primes).
    report = VerificationReport("prime-r2", primes)
    sums = _weighted_sums(r_oracle(2, size).coeffs, sigma_combination(size, _SQUARES_TERMS))
    for p in primes:
        report.expect(p, sums[p], p - 1 if p % 4 == 1 else -p - 1)
        if flags[p + 2]:
            _check_twin_r2(report, p, sums)
    return report


def verify_prime_r2(p: int) -> VerificationReport:
    """Sum of r_2(j) (sigma*(p-j) - 4 sigma*((p-j)/2)) equals p-1 or -p-1.

    The sign case follows p mod 4.  When p + 2 is also prime the twin-pair
    corollary is checked as well.
    """
    flags = _prime_flags(p + 3)
    _require_odd_prime(flags, p)
    return _prime_r2([p], p + 1, flags)


def verify_prime_r2_range(limit: int = 1000) -> VerificationReport:
    """verify_prime_r2 over all odd primes < limit, twins included."""
    flags = _prime_flags(limit + 2)
    return _prime_r2([p for p in range(3, limit) if flags[p]], limit, flags)


def _prime_r4_r8(primes, size: int) -> VerificationReport:
    report = VerificationReport("prime-r4r8", primes)
    g = sigma_combination(size, _SQUARES_TERMS)
    # r_4 = r_2 r_2 and r_8 = r_4 r_4: three multiplies in all, none by expand.
    r2 = r_oracle(2, size)
    r4 = multiply(r2, r2)
    sums = [_weighted_sums(r.coeffs, g) for r in (r2, r4, multiply(r4, r4))]
    for p in primes:
        s2, s4, s8 = (s[p] for s in sums)
        report.expect(p, s4, p * p - 1)
        report.expect(p, s8, p ** 4 - 1)
        # Squares-of-sums corollary ties the three prime sums together.
        report.expect(p, (1 + s2) ** 2, 1 + s4)
        report.expect(p, (1 + s4) ** 2, 1 + s8)
    return report


def verify_prime_r4_r8(p: int) -> VerificationReport:
    """The r_4 prime sum equals p^2 - 1 and the r_8 sum equals p^4 - 1.

    Also checks the squared-sum corollary (1 + S_2)^2 = 1 + S_4 and
    (1 + S_4)^2 = 1 + S_8.  p must be an odd prime; 2 is rejected because
    the statement is made for odd primes only.
    """
    _require_odd_prime(_prime_flags(p + 1), p)
    return _prime_r4_r8([p], p + 1)


def verify_prime_r4_r8_range(limit: int = 500) -> VerificationReport:
    """verify_prime_r4_r8 over all odd primes < limit."""
    flags = _prime_flags(limit)
    return _prime_r4_r8([p for p in range(3, limit) if flags[p]], limit)


# --- prime sums against t_2, t_4, t_6 ---

# k -> (identity, first index j of the sum, value the sum takes at n)
_T_PRIME_SUMS = {
    2: ("t2-prime", 1, lambda p: -1),
    4: ("t4-prime", 0, lambda n: n * (n + 1) // 2),
    6: ("t6-prime", 0, lambda n: n * (n + 1) * (2 * n + 1) // 6),
}


def _t_prime_sums(k: int, inputs, size: int) -> VerificationReport:
    identity, start, value = _T_PRIME_SUMS[k]
    report = VerificationReport(identity, inputs)
    h = sigma_combination(size, _TRIANGULAR_TERMS)
    sums = _weighted_sums(t_oracle(k, size).coeffs, h, start)
    for n in inputs:
        report.expect(n, sums[n], value(n))
    return report


def verify_t2_prime(p: int) -> VerificationReport:
    """Sum of t_2(j) (sigma(p-j) - 4 sigma((p-j)/2)) equals -1.

    Requires both p and 4p + 1 prime.
    """
    # p is tested first, so a composite p costs no sieve past p + 1, and
    # only a prime p pays for a second sieve, to 4p + 2.
    _require_prime(_prime_flags(p + 1), p, "p")
    _require_prime(_prime_flags(4 * p + 2), 4 * p + 1, "4p + 1")
    return _t_prime_sums(2, [p], p + 1)


def verify_t2_prime_range(limit: int = 500) -> VerificationReport:
    """verify_t2_prime over all p < limit with p and 4p + 1 prime."""
    flags = _prime_flags(4 * limit)
    return _t_prime_sums(2, [p for p in range(limit) if flags[p] and flags[4 * p + 1]], limit)


def verify_t4(n: int) -> VerificationReport:
    """Sum from j=0 of t_4(j) (sigma(n-j) - 4 sigma((n-j)/2)) equals n(n+1)/2.

    Requires 2n + 1 prime.
    """
    _require_prime(_prime_flags(2 * n + 2), 2 * n + 1, "2n + 1")
    return _t_prime_sums(4, [n], n + 1)


def verify_t4_range(limit: int = 500) -> VerificationReport:
    """verify_t4 over all n < limit with 2n + 1 prime."""
    flags = _prime_flags(2 * limit)
    return _t_prime_sums(4, [n for n in range(limit) if flags[2 * n + 1]], limit)


def verify_t6(n: int) -> VerificationReport:
    """Sum from j=0 of t_6(j) (sigma(n-j) - 4 sigma((n-j)/2)) equals n(n+1)(2n+1)/6.

    Requires 4n + 3 prime; n = 0 qualifies and checks the empty sum.
    """
    _require_prime(_prime_flags(4 * n + 4), 4 * n + 3, "4n + 3")
    return _t_prime_sums(6, [n], n + 1)


def verify_t6_range(limit: int = 500) -> VerificationReport:
    """verify_t6 over all n < limit with 4n + 3 prime."""
    flags = _prime_flags(4 * limit)
    return _t_prime_sums(6, [n for n in range(limit) if flags[4 * n + 3]], limit)


# --- positivity ---


def _check_positive(report, values, start: int, context: str = "") -> None:
    """Add Failure(n, value, ">0 [context]") for each values[n], n >= start, not > 0."""
    # A C-level min over an iterator, so a passing table is neither walked
    # in Python nor copied by a slice.
    if min(islice(values, start, None), default=1) > 0:
        return
    suffix = f" [{context}]" if context else ""
    for n, value in islice(enumerate(values), start, None):
        if value <= 0:
            report.failures.append(Failure(n, str(value), ">0" + suffix))


def verify_R_positive(limit: int = 100_000) -> VerificationReport:
    """The _R_TERMS combination is > 0 for all n in [1, limit], via a sigma sieve."""
    report = VerificationReport("R-positive", range(1, limit + 1))
    _check_positive(report, sigma_combination(limit, _R_TERMS), 1)
    return report


class MasterFamilyParams(_Value):
    """Parameters of the positivity family: base exponent a, progression
    modulus b, offsets I within [0, b-2], and which reading of the double
    product to take.

    reading="double-product" repeats the base factor (1-x^n)^-a once per
    offset; reading="single-base" uses a single base factor.
    """

    __slots__ = ("a", "b", "offsets", "reading")

    def __init__(self, a: int, b: int, offsets: frozenset[int], reading: str):
        offsets = frozenset(offsets)
        if a < 1:
            raise ValueError(f"a must be >= 1, got {a}")
        if b < 2:
            raise ValueError(f"b must be >= 2, got {b}")
        if not offsets:
            raise ValueError("offsets must be nonempty")
        if any(not 0 <= i <= b - 2 for i in offsets):
            raise ValueError(f"offsets must lie in [0, b-2], got {sorted(offsets)}")
        if reading not in ("double-product", "single-base"):
            raise ValueError(f"unknown reading {reading!r}")
        self._set(a, b, offsets, reading)

    def describe(self) -> str:
        i_text = "{" + ",".join(str(i) for i in sorted(self.offsets)) + "}"
        return f"a={self.a},b={self.b},I={i_text},{self.reading}"


def master_family_spec(params: MasterFamilyParams) -> ProductSpec:
    """Build the product spec for one member of the positivity family."""
    base_multiplicity = len(params.offsets) if params.reading == "double-product" else 1
    factors = [Factor(FactorSet(1, 0), -params.a * base_multiplicity)]
    for i in sorted(params.offsets):
        factors.append(Factor(FactorSet(params.b, i), params.a))
    return ProductSpec(factors)


def verify_positivity(
    spec: ProductSpec, order: int, identity: str = "positivity"
) -> VerificationReport:
    """Expand the spec and record every index with coefficient <= 0."""
    series = expand(spec, order)
    report = VerificationReport(identity, range(order + 1))
    _check_positive(report, series, 0)
    return report


SERIES1_SPEC = ProductSpec.parse("1n^-4,2n^2,4n^-2,8n^4")


def verify_series1_positivity(order: int = 500) -> VerificationReport:
    """All coefficients of (1-x^n)^-4 (1-x^2n)^2 (1-x^4n)^-2 (1-x^8n)^4 are positive."""
    return verify_positivity(SERIES1_SPEC, order, "series1-positivity")


def master_positivity_cases() -> list[MasterFamilyParams]:
    """Every (a, b, offsets, reading) combination, b in 2..5 outermost, a in 1..3 innermost."""
    cases = []
    for b in (2, 3, 4, 5):
        for size in range(1, b):
            for offsets in combinations(range(b - 1), size):
                for reading in ("double-product", "single-base"):
                    for a in (1, 2, 3):
                        cases.append(MasterFamilyParams(a, b, frozenset(offsets), reading))
    return cases


def _master_members(order: int):
    """Yield (params, series to order) for each of master_positivity_cases.

    The member for a is the a-th power of the a = 1 member of the same b, I
    and reading, so only a = 1 members are expanded; the member for a >= 2 is
    multiply(member for a - 1, member for 1).  With one offset the two
    readings are one spec, expanded once.  One spec's powers are alive at a time.
    """
    spec = powers = None
    for params in master_positivity_cases():
        if params.a == 1:
            previous, spec = spec, master_family_spec(params)
            if spec != previous:
                powers = [expand(spec, order)]
        elif len(powers) < params.a:
            powers.append(multiply(powers[-1], powers[0]))
        yield params, powers[params.a - 1]


def verify_master_positivity(order: int = 300) -> VerificationReport:
    """Positivity of the whole family over master_positivity_cases, both readings.

    Only the a = 1 members are expanded; a member with a >= 2 is a power of
    its a = 1 member, and a spec that both readings share is built once.
    Failures carry the coefficient index as input and the offending
    parameter combination in the expected-value text.
    """
    report = VerificationReport("master-positivity", range(len(master_positivity_cases())))
    for params, series in _master_members(order):
        _check_positive(report, series, 0, params.describe())
    return report


# --- expansion oracle equivalence ---


def verify_oracle_equivalence(
    count: int = 100, order: int = 120, seed: int = 0
) -> VerificationReport:
    """expand and oracle_expand agree on a reproducible random spec corpus.

    Also certifies that the checked division in expand's recursion never
    fires on the factors the recursion handles: a DivisibilityViolation is
    recorded as a failure for that spec index.  The factors that expand
    divides out by the pentagonal recurrence or by phi(-x^m) use no integer
    division, so for them only the agreement with the oracle is checked.
    """
    report = VerificationReport("oracle-equivalence", range(count))
    for index, spec in enumerate(random_spec_corpus(count, seed)):
        try:
            left = expand(spec, order)
        except DivisibilityViolation as exc:
            report.failures.append(
                Failure(index, f"DivisibilityViolation: {exc}", f"exact division [{spec!r}]")
            )
            continue
        right = oracle_expand(spec, order)
        if left != right:
            n = next(i for i in range(order + 1) if left[i] != right[i])
            report.failures.append(
                Failure(index, str(left[n]), f"{right[n]} [{spec!r}, n={n}]")
            )
    return report

"""qconvolve: exact expansion of progression products and divisor-sum identities.

Expands products of (1 - x^d)^c over arithmetic progressions into power
series with exact integer coefficients, builds representation-count tables
for sums of squares and triangular numbers, and mechanically verifies the
associated divisor-sum identities against independent brute-force oracles.
"""

from .counts import r_oracle, r_table, t_oracle, t_table, u_oracle, u_table
from .divisor_sums import (
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
from .errors import (
    DivisibilityViolation,
    NotPrime,
    ParseError,
    PreconditionNotMet,
    checked_div,
)
from .identities import (
    Failure,
    MasterFamilyParams,
    SERIES1_SPEC,
    VerificationReport,
    R_combination,
    is_prime,
    kronecker_minus4,
    master_family_spec,
    master_positivity_cases,
    primes_below,
    r2_closed,
    r4_closed,
    r8_closed,
    t2_closed,
    t4_closed,
    t6_closed,
    verify_convolution,
    verify_master_positivity,
    verify_oracle_equivalence,
    verify_positivity,
    verify_prime_r2,
    verify_prime_r2_range,
    verify_prime_r4_r8,
    verify_prime_r4_r8_range,
    verify_R_positive,
    verify_series1_positivity,
    verify_t2_prime,
    verify_t2_prime_range,
    verify_t4,
    verify_t4_range,
    verify_t6,
    verify_t6_range,
)
from .series import (
    Factor,
    FactorSet,
    PowerSeries,
    ProductSpec,
    expand,
    multiply,
    oracle_expand,
    random_spec_corpus,
    weighted_divisor_sum,
)

__version__ = "0.1.0"

"""qconvolve: exact expansion of progression products and divisor-sum identities.

Expands products of (1 - x^d)^c over arithmetic progressions into power
series with exact integer coefficients, builds representation-count tables
for sums of squares and triangular numbers, and mechanically verifies the
associated divisor-sum identities against independent brute-force oracles.
The root re-exports nothing: import each name from its module, `series`,
`counts`, `divisor_sums`, `identities` or `errors`.
"""

__version__ = "0.1.0"

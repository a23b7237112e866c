"""Truncated exact power series and expansion of progression products.

A product spec denotes a finite product of factors (1 - x^d)^c, d ranging
over an arithmetic progression {m*n - i : n >= 1}.  The expansion engine
is the log-derivative recursion: n * p(n) is a convolution of earlier
coefficients against weighted divisor sums, formed by divide and conquer
through multiply and divided by n checked-exact.  In a spec whose
coefficients grow, expand divides out each negative eta factor
(x^m;x^m)^c by Euler's pentagonal recurrence instead; expand documents
the rule.  An independent oracle expands the same product by plain
polynomial multiplication and division.  multiply, the one dense product
of two series, packs each operand into a big int (Kronecker substitution)
and multiplies once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm
from operator import add, mul
from random import Random

from .divisor_sums import divisors
from .errors import ParseError, checked_div


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients 0..N of a formal power series, exact integers."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a power series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    @property
    def values(self) -> tuple[int, ...]:
        """Alias of coeffs: a count table's values g(0..N) are its coefficients."""
        return self.coeffs


@dataclass(frozen=True)
class FactorSet:
    """Arithmetic-progression index set {modulus*n - offset : n >= 1}."""

    modulus: int
    offset: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.offset < self.modulus:
            raise ValueError(
                f"offset must lie in [0, modulus), got offset={self.offset},"
                f" modulus={self.modulus}"
            )

    @property
    def least(self) -> int:
        """Smallest member, modulus - offset."""
        return self.modulus - self.offset

    def __contains__(self, d: int) -> bool:
        # For positive d the residue condition already forces d >= least.
        return d >= 1 and d % self.modulus == (-self.offset) % self.modulus

    def elements(self, bound: int) -> range:
        """Members up to bound, ascending."""
        return range(self.least, bound + 1, self.modulus)


@dataclass(frozen=True)
class Factor:
    """One factor prod_{d in index_set} (1 - x^d)^exponent."""

    index_set: FactorSet
    exponent: int

    def __post_init__(self):
        if self.exponent == 0:
            raise ValueError("factor exponent must be nonzero")


_FACTOR_RE = re.compile(r"(\d+)(?:n(?:-(\d+))?)?\^([+-]?\d+)\Z")


@dataclass(frozen=True)
class ProductSpec:
    """A finite product of progression factors.

    Duplicate (modulus, offset) pairs merge by adding exponents; factors
    whose merged exponent is zero are dropped, so fully cancelling input
    leaves the constant product 1.
    """

    factors: tuple[Factor, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("a product spec needs at least one factor")
        # A dict keeps its keys in first-insertion order.
        exponents: dict[tuple[int, int], int] = {}
        for f in factors:
            key = (f.index_set.modulus, f.index_set.offset)
            exponents[key] = exponents.get(key, 0) + f.exponent
        merged = tuple(
            Factor(FactorSet(m, i), c) for (m, i), c in exponents.items() if c != 0
        )
        object.__setattr__(self, "factors", merged)

    @classmethod
    def parse(cls, text: str) -> "ProductSpec":
        """Parse 'm[n[-i]]^c' factors joined by commas, e.g. '2n^1,2n-1^-2'."""
        compact = "".join(text.split())
        if not compact:
            raise ParseError("empty product spec")
        factors = []
        for part in compact.split(","):
            match = _FACTOR_RE.match(part)
            if match is None:
                raise ParseError(f"bad factor {part!r}: expected m[n[-i]]^c")
            m, i, c = (int(g or 0) for g in match.groups())
            try:
                factors.append(Factor(FactorSet(m, i), c))
            except ValueError as exc:
                raise ParseError(f"bad factor {part!r}: {exc}") from exc
        return cls(factors)

    def to_json_dict(self) -> dict:
        return {
            "factors": [
                {"m": f.index_set.modulus, "i": f.index_set.offset, "c": f.exponent}
                for f in self.factors
            ]
        }

    def to_text(self) -> str:
        parts = []
        for f in self.factors:
            m, i = f.index_set.modulus, f.index_set.offset
            stem = f"{m}n" if i == 0 else f"{m}n-{i}"
            parts.append(f"{stem}^{f.exponent}")
        return ",".join(parts)

    def __repr__(self) -> str:
        return f"ProductSpec({self.to_text()!r})"


def weighted_divisor_sum(k: int, spec: ProductSpec) -> int:
    """Sum over factors of -c times the divisors of k lying in the factor's set.

    This is the convolution weight of the expansion recursion at index k.
    """
    if k < 1:
        raise ValueError(f"weighted_divisor_sum requires k >= 1, got {k}")
    divs = divisors(k)
    total = 0
    for f in spec.factors:
        index_set = f.index_set
        in_set = sum(d for d in divs if d in index_set)
        total -= f.exponent * in_set
    return total


def _weight_table(spec: ProductSpec, limit: int) -> list[int]:
    """weighted_divisor_sum(k, spec) for k = 0..limit, by sieving multiples."""
    table = [0] * (limit + 1)
    for f in spec.factors:
        c = f.exponent
        for element in f.index_set.elements(limit):
            weight = -c * element
            for multiple in range(element, limit + 1, element):
                table[multiple] += weight
    return table


def _pentagonal(limit: int) -> list[tuple[int, int]]:
    """Nonzero terms (g, sign) of (x;x)_inf at exponents 1..limit, ascending.

    Euler's pentagonal number theorem: (x;x)_inf = sum_k (-1)^k x^{k(3k-1)/2}
    over all integers k, so the exponents are the generalized pentagonal
    numbers and every coefficient is +-1.
    """
    terms = []
    k = 1
    while (g := k * (3 * k - 1) // 2) <= limit:
        sign = -1 if k % 2 else 1
        terms += [(e, sign) for e in (g, g + k) if e <= limit]
        k += 1
    return terms


def _over_eta(a: list[int], shifts: list[tuple[int, int]]) -> list[int]:
    """a divided by (x^m;x^m)_inf, whose terms are shifts (m*g, sign) below len(a).

    Euler's recurrence out[n] = a[n] - sum_g sign_g * out[n - m*g]; each
    out[n] reads only entries below it, so the recurrence runs in place.
    """
    out = list(a)
    for n in range(1, len(out)):
        acc = out[n]
        for d, sign in shifts:
            if d > n:
                break
            if sign > 0:
                acc -= out[n - d]
            else:
                acc += out[n - d]
        out[n] = acc
    return out


_LEAF = 64


def _recursion(weights: list[int], order: int) -> list[int]:
    """Coefficients 0..order of the product whose recursion weights are given.

    Solves n * p(n) = sum_{k=1..n} weights[k] * p(n - k), p(0) = 1, online:
    p(n) is needed before the sums of later coefficients can be formed.  The
    weights are known in advance, so divide and conquer (the semi-relaxed
    product) forms the sums by whole blocks.  To solve [l, r) it solves the
    left half, adds the left half's contribution to every sum of the right
    half with one multiply of p[l:mid] by weights[:r - l], and then solves
    the right half.  Each pair j < n is either parted by exactly one split
    or shares a block of at most _LEAF coefficients, which finishes each
    sum with a dot product over the block and divides it by n checked-exact;
    so every term enters its sum once.
    """
    coeffs = [1] + [0] * order
    sums = [0] * (order + 1)
    head = min(_LEAF, order)
    # reversed_head[head - d] is weights[d] for d = 1..head.
    reversed_head = weights[head:0:-1]

    def solve(l: int, r: int) -> None:
        if r - l <= _LEAF:
            for n in range(max(l, 1), r):
                acc = sums[n] + sum(map(mul, coeffs[l:n], reversed_head[head - (n - l) :]))
                coeffs[n] = checked_div(acc, n)
            return
        mid = (l + r) // 2
        solve(l, mid)
        left = PowerSeries(tuple(coeffs[l:mid]) + (0,) * (r - mid))
        block = multiply(left, PowerSeries(tuple(weights[: r - l])))
        sums[mid:r] = map(add, sums[mid:r], block.coeffs[mid - l :])
        solve(mid, r)

    solve(0, order + 1)
    return coeffs


def expand(spec: ProductSpec, order: int) -> PowerSeries:
    """Expand the product to the given truncation order.

    Factors take one of two exact paths, chosen from the spec and the order
    alone.  The log-derivative recursion serves any factor: coefficient n is
    the convolution of the earlier coefficients against the weight table,
    divided exactly by n, and _recursion forms those convolutions by divide
    and conquer over multiply, O(M(N) log N) for an M(N) product of size N.
    An eta factor (x^m;x^m)^c with c < 0 can instead be divided out |c|
    times by Euler's pentagonal recurrence, with additions only.

    The recursion's cost tracks the size of the output's coefficients, the
    pentagonal path's the size of its intermediates, which can be far larger
    (dividing by (x;x)^2k alone leaves r_k partition-sized intermediates).
    So the whole spec picks: the output's coefficients grow like
    exp(C sqrt(n)) exactly when sum_f c_f / m_f < 0 over all factors
    (Meinardus), computed here in exact integers.  Only then does an eta
    factor with c < 0 take the pentagonal path, and only if its cost
    |c| * T(order//m) is at most the order, T(L) being the number of
    nonzero terms of (x;x)_inf at exponents 1..L.  Every other factor goes
    to the recursion: eta factors with c > 0, all factors of a spec with
    the sum >= 0 (r_k, t_k, u_{k,l}: polynomial-size outputs), and eta
    factors whose |c| is too large.  The recursion runs first and the
    pentagonal divisions follow.  A failed division raises
    DivisibilityViolation (an internal bug signal: integer exponents always
    divide exactly); the pentagonal path performs no division.
    """
    if order < 0:
        raise ValueError(f"expand requires order >= 0, got {order}")
    # sum c/m < 0, scaled by the moduli's lcm so it stays in integers.
    common = lcm(*(f.index_set.modulus for f in spec.factors))
    grows = sum(f.exponent * (common // f.index_set.modulus) for f in spec.factors) < 0
    divisions, rest = [], []
    for f in spec.factors:
        m = f.index_set.modulus
        shifts = []
        if grows and f.index_set.offset == 0 and f.exponent < 0:
            shifts = [(m * g, sign) for g, sign in _pentagonal(order // m)]
        # With no term up to the order the factor is 1 here; the recursion
        # skips it at no cost, where |c| empty passes could be 10^30.
        if shifts and -f.exponent * len(shifts) <= order:
            divisions += [shifts] * -f.exponent
        else:
            rest.append(f)
    coeffs = [1] + [0] * order
    if rest:
        coeffs = _recursion(_weight_table(ProductSpec(rest), order), order)
    for shifts in divisions:
        coeffs = _over_eta(coeffs, shifts)
    return PowerSeries(tuple(coeffs))


def oracle_expand(spec: ProductSpec, order: int) -> PowerSeries:
    """Expand by plain truncated polynomial arithmetic, factor by factor.

    Each progression element e <= order contributes |c| passes of
    multiplication by (1 - x^e) or, for negative exponents, division via the
    geometric series.  Independent of the recursion in expand.
    """
    if order < 0:
        raise ValueError(f"oracle_expand requires order >= 0, got {order}")
    out = [0] * (order + 1)
    out[0] = 1
    for f in spec.factors:
        c = f.exponent
        for e in f.index_set.elements(order):
            if c > 0:
                for _ in range(c):
                    for idx in range(order, e - 1, -1):
                        out[idx] -= out[idx - e]
            else:
                for _ in range(-c):
                    for idx in range(e, order + 1):
                        out[idx] += out[idx - e]
    return PowerSeries(tuple(out))


def _pack(coeffs, width: int) -> int:
    """Signed coefficients as one int, coefficient i in bytes [i*width, (i+1)*width)."""
    zero = bytes(width)
    positive = b"".join([c.to_bytes(width, "little") if c > 0 else zero for c in coeffs])
    value = int.from_bytes(positive, "little")
    if min(coeffs) < 0:
        negative = b"".join([(-c).to_bytes(width, "little") if c < 0 else zero for c in coeffs])
        value -= int.from_bytes(negative, "little")
    return value


def multiply(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated to the smaller order.

    Kronecker substitution: each operand is packed into one big int with a
    slot of w bytes per coefficient, so a single big-int multiplication
    (CPython's Karatsuba) forms every convolution sum at once.  Every
    product coefficient c has |c| <= max|a| * max|b| * (order + 1) <
    2^(8w-1), so adding a bias of 2^(8w-1) to each slot makes all slots
    nonnegative and carry-free; the low order + 1 slots are then read back
    minus the bias.
    """
    order = min(a.order, b.order)
    size = order + 1
    first, second = a.coeffs[:size], b.coeffs[:size]
    bound = max(map(abs, first)) * max(map(abs, second)) * size
    if not bound:
        # An all-zero operand; the other may not even fit a one-byte slot.
        return PowerSeries((0,) * size)
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
    low = (_pack(first, width) * _pack(second, width) + bias) & ((1 << (8 * width * size)) - 1)
    data = low.to_bytes(width * size, "little")
    slots = range(0, width * size, width)
    return PowerSeries(tuple([int.from_bytes(data[i : i + width], "little") - half for i in slots]))


def random_spec_corpus(count: int, seed: int = 0, max_modulus: int = 8) -> list[ProductSpec]:
    """A reproducible corpus of random specs for oracle cross-checks.

    Each spec has 1..4 factors; each factor draws a modulus m in
    1..max_modulus, an offset in 0..m-1 and an exponent in +-1..5.
    """
    rng = Random(seed)
    exponents = [c for c in range(-5, 6) if c]
    corpus = []
    for _ in range(count):
        factors = []
        for _ in range(rng.randint(1, 4)):
            m = rng.randint(1, max_modulus)
            factors.append(Factor(FactorSet(m, rng.randint(0, m - 1)), rng.choice(exponents)))
        corpus.append(ProductSpec(factors))
    return corpus

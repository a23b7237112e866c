"""Truncated exact power series and expansion of progression products.

A product spec denotes a finite product of factors (1 - x^d)^c, d ranging
over an arithmetic progression {m*n - i : n >= 1}.  The expansion engine
is the log-derivative recursion: n * p(n) is a convolution of earlier
coefficients against weighted divisor sums, formed by divide and conquer
through multiply and divided by n checked-exact, in x^g when every
element the recursion sees is a multiple of g.  In a spec whose
coefficients grow, the route also divides out each pair
(x^m;x^m)^-2 (x^2m;x^2m) = 1/phi(-x^m) by Gauss's square series and then
each negative eta factor (x^m;x^m)^c left by Euler's pentagonal
recurrence, with additions only, gathered once per run of live shifts;
_plan picks the route and documents the rule, and expand runs it.  An
independent oracle expands the same product by plain polynomial
multiplication and division.  multiply, the one dense product of two
series, packs each operand into a big int (Kronecker substitution) and
multiplies once; every slot holds its coefficient plus half the slot's
range, both when packing and when unpacking.
"""

from __future__ import annotations

import re
from math import gcd, isqrt, lcm
from operator import add, itemgetter, mul
from random import Random

from .errors import ParseError, checked_div


class _Value:
    """Base of the immutable value types, whose fields are their __slots__.

    Values compare, hash, print and pickle by their fields, as a frozen
    dataclass does, and any assignment raises dataclasses.FrozenInstanceError.
    Each __init__ validates its arguments and stores them with _set.
    """

    __slots__ = ("__weakref__",)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        # Imported here: only misuse pays for the dataclasses module.
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class PowerSeries(_Value):
    """Coefficients 0..N of a formal power series, exact integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        if not coeffs:
            raise ValueError("a power series needs at least the constant coefficient")
        self._set(coeffs)

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


class FactorSet(_Value):
    """Arithmetic-progression index set {modulus*n - offset : n >= 1}."""

    __slots__ = ("modulus", "offset")

    def __init__(self, modulus: int, offset: int):
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        if not 0 <= offset < modulus:
            raise ValueError(
                f"offset must lie in [0, modulus), got offset={offset}, modulus={modulus}"
            )
        self._set(modulus, offset)

    @property
    def least(self) -> int:
        """Smallest member, modulus - offset."""
        return self.modulus - self.offset

    def elements(self, bound: int) -> range:
        """Members up to bound, ascending."""
        return range(self.least, bound + 1, self.modulus)


class Factor(_Value):
    """One factor prod_{d in index_set} (1 - x^d)^exponent."""

    __slots__ = ("index_set", "exponent")

    def __init__(self, index_set: FactorSet, exponent: int):
        if exponent == 0:
            raise ValueError("factor exponent must be nonzero")
        self._set(index_set, exponent)


_FACTOR_RE = re.compile(r"(\d+)(?:n(?:-(\d+))?)?\^([+-]?\d+)\Z")


class ProductSpec(_Value):
    """A finite product of progression factors.

    Duplicate (modulus, offset) pairs merge by adding exponents; factors
    whose merged exponent is zero are dropped, so fully cancelling input
    leaves the constant product 1.
    """

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a product spec needs at least one factor")
        # A dict keeps its keys in first-insertion order.
        exponents: dict[tuple[int, int], int] = {}
        for f in factors:
            key = (f.index_set.modulus, f.index_set.offset)
            exponents[key] = exponents.get(key, 0) + f.exponent
        self._set(
            tuple(Factor(FactorSet(m, i), c) for (m, i), c in exponents.items() if c != 0)
        )

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
        # The constant product prints as a cancelling pair, which parses back.
        return ",".join(parts) or "1n^1,1n^-1"

    def __repr__(self) -> str:
        return f"ProductSpec({self.to_text()!r})"


def _weight_table(spec: ProductSpec, limit: int) -> list[int]:
    """The recursion weights for k = 0..limit, by sieving multiples.

    Weight k is the sum over factors of -c times the divisors of k in the
    factor's set; weight 0 is 0.
    """
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


def _pentagonal_count(limit: int) -> int:
    """len(_pentagonal(limit)), solving k(3k -+ 1)/2 <= limit for k >= 1."""
    root = isqrt(1 + 24 * limit)
    return (1 + root) // 6 + (root - 1) // 6


def _squares(limit: int) -> list[tuple[int, int]]:
    """Nonzero terms (k^2, (-1)^k) of (phi(-x) - 1) / 2 at exponents 1..limit.

    Gauss: phi(-x) = (x;x)_inf^2 / (x^2;x^2)_inf = 1 + 2 sum_{k>=1} (-1)^k x^{k^2}.
    """
    return [(k * k, -1 if k % 2 else 1) for k in range(1, isqrt(limit) + 1)]


def _over_eta(out: list[int], shifts: list[tuple[int, int]], scale: int) -> None:
    """Divide out, in place, by 1 + scale * sum sign * x^d over the shifts (d, sign).

    Scale 1 with the shifts of _pentagonal stretched by m is (x^m;x^m)_inf;
    scale 2 with those of _squares is phi(-x^m).  The recurrence
    p(n) = out[n] - scale * sum_d sign_d * p(n - d) uses no division.
    Between two consecutive shifts the same terms are live for every n, so
    each such run builds one itemgetter that gathers them and one sum forms
    each p(n) at C speed.  done holds a 0 sentinel and then each p(n)
    beside its negation: with p(0..n-1) in it, done[-2d] is p(n - d) and
    done[1 - 2d] is -p(n - d), so one gather serves both signs.  Every
    gather also reads the sentinel, index 0, so it returns a tuple and adds 0.
    """
    bounds = [d for d, _ in shifts] + [len(out)]
    done = [0]
    # Before the first shift no term is live.
    for value in out[: bounds[0]]:
        done += (value, -value)
    live = [0]
    for (d, sign), stop in zip(shifts, bounds[1:]):
        live.append(1 - 2 * d if sign > 0 else -2 * d)
        take = itemgetter(*live)
        for value in out[d:stop]:
            value = scale * sum(take(done)) + value
            done += (value, -value)
    out[:] = done[1::2]


_LEAF = 64


def _recursion(weights: list[int], coeffs: list[int]) -> None:
    """Fill coeffs, [1, 0, ..., 0] on entry, with the product whose weights are given.

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
    order = len(coeffs) - 1
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
    # solve reaches itself through its closure.  Clearing the name breaks
    # that cycle, so sums and the cells are freed on return rather than at
    # the next garbage collection.
    del solve


def _plan(spec: ProductSpec, order: int) -> tuple[list[tuple[int, int, int]], ProductSpec | None, int]:
    """The route expand runs, (divisions, scaled, g), at no cost in the order.

    Factors take one of three exact paths, chosen from the spec and the
    order alone.  The log-derivative recursion, _recursion, serves any
    factor in O(M(N) log N) for an M(N) product of size N.  An eta factor
    (x^m;x^m)^c with c < 0 can instead be divided out |c| times by Euler's
    pentagonal recurrence, and a pair (x^m;x^m)^-2 (x^2m;x^2m) = 1/phi(-x^m)
    by Gauss's phi(-q) = 1 + 2 sum_k (-1)^k q^{k^2}, both with additions
    only.  divisions lists them as (m, scale, count) in running order,
    scale 1 for (x^m;x^m)_inf and 2 for phi(-x^m).

    The recursion's cost tracks the size of the output's coefficients, the
    divisions' the size of their intermediates, which can be far larger
    (dividing by (x;x)^2k alone leaves r_k partition-sized intermediates).
    So the whole spec picks: the output's coefficients grow like
    exp(C sqrt(n)) exactly when sum_f c_f / m_f < 0 over all factors
    (Meinardus), computed here in exact integers.  Only then do divisions
    run, and each kind only within its cost cap, count times terms at most
    the order.  First, walking the offset-0 moduli m up, wherever
    c_m < 0 < c_2m the spec takes j = min(floor(-c_m / 2), c_2m) divisions
    by phi(-x^m), if phi(-x^m) has a term up to the order and
    j * isqrt(order // m) fits the cap; c_m rises by 2j and c_2m falls by j.
    Series-1, (1-x^n)^-4 (1-x^2n)^2 (1-x^4n)^-2 (1-x^8n)^4, is
    (psi(x^4) / phi(-x))^2 and leaves only (x^8;x^8)^3.  Then each eta
    factor left with c < 0 takes the pentagonal path if
    |c| * _pentagonal_count(order // m) fits.  Every other factor goes to
    the recursion: eta factors with c > 0, all factors of a spec with the
    sum >= 0 (r_k, t_k, u_{k,l}: polynomial-size outputs), and eta factors
    whose |c| is too large.  Every element of the factors left is a
    multiple of g, the gcd of their moduli and offsets, so scaled, their
    spec in y = x^g, runs to order // g (None, with g = 1, if none is left).
    """
    # sum c/m < 0, scaled by the moduli's lcm so it stays in integers.
    common = lcm(*(f.index_set.modulus for f in spec.factors))
    grows = sum(f.exponent * (common // f.index_set.modulus) for f in spec.factors) < 0
    exponents = {(f.index_set.modulus, f.index_set.offset): f.exponent for f in spec.factors}
    divisions = []
    if grows:
        for m in sorted(m for m, i in exponents if i == 0):
            j = min(-exponents[m, 0] // 2, exponents.get((2 * m, 0), 0))
            # Positive only if j > 0 and phi(-x^m) has a term up to the order.
            if 0 < j * isqrt(order // m) <= order:
                divisions.append((m, 2, j))
                exponents[m, 0] += 2 * j
                exponents[2 * m, 0] -= j
    rest = []
    for (m, i), c in exponents.items():
        terms = _pentagonal_count(order // m) if grows and i == 0 and c < 0 else 0
        # With no term up to the order the factor is 1 here; the recursion
        # skips it at no cost, where |c| empty passes could be 10^30.
        if terms and -c * terms <= order:
            divisions.append((m, 1, -c))
        elif c:
            rest.append((m, i, c))
    if not rest:
        return divisions, None, 1
    g = gcd(*(n for m, i, _ in rest for n in (m, i)))
    return divisions, ProductSpec([Factor(FactorSet(m // g, i // g), c) for m, i, c in rest]), g


def expand(spec: ProductSpec, order: int) -> PowerSeries:
    """Expand the product to the given truncation order.

    _plan picks the route; expand runs the recursion, its result filling
    every g-th coefficient, and then each division.  A failed division
    raises DivisibilityViolation (an internal bug signal: integer exponents
    always divide exactly); the pentagonal and phi divisions perform none.
    """
    if order < 0:
        raise ValueError(f"expand requires order >= 0, got {order}")
    # Sized before any loop, so an order too large for memory fails at once.
    coeffs = [1] + [0] * order
    divisions, scaled, g = _plan(spec, order)
    if scaled is not None:
        # At g = 1 the recursion fills coeffs itself.
        thin = coeffs if g == 1 else [1] + [0] * (order // g)
        _recursion(_weight_table(scaled, order // g), thin)
        if g > 1:
            coeffs[::g] = thin
            # Dropped here, so each division frees the coefficients it replaces.
            del thin
    for m, scale, count in divisions:
        shifts = [(m * d, sign) for d, sign in (_squares if scale == 2 else _pentagonal)(order // m)]
        for _ in range(count):
            _over_eta(coeffs, shifts, scale)
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


def multiply(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated to the smaller order.

    Kronecker substitution: each operand is packed into one big int with a
    slot of w bytes per coefficient, so a single big-int multiplication
    (CPython's Karatsuba) forms every convolution sum at once.  Every
    product coefficient c has |c| <= max|a| * max|b| * (order + 1) <
    half = 2^(8w-1), and so does every operand coefficient.  So every slot
    holds its coefficient plus half, both when packing and when unpacking,
    and is nonnegative and carry-free: an operand packs as its slots minus
    the bias, one half per slot, and the low order + 1 slots of the product
    plus the bias are read back minus half.
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
    packed_a, packed_b = (
        int.from_bytes(b"".join([(c + half).to_bytes(width, "little") for c in coeffs]), "little") - bias
        for coeffs in (first, second)
    )
    low = (packed_a * packed_b + bias) & ((1 << (8 * width * size)) - 1)
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
    # Sized before the loop, so a count too large for memory fails at once.
    corpus = [None] * count
    for index in range(count):
        factors = []
        for _ in range(rng.randint(1, 4)):
            m = rng.randint(1, max_modulus)
            factors.append(Factor(FactorSet(m, rng.randint(0, m - 1)), rng.choice(exponents)))
        corpus[index] = ProductSpec(factors)
    return corpus

"""Truncated exact power series and expansion of progression products.

A product spec denotes a finite product of factors (1 - x^d)^c, d ranging
over an arithmetic progression {m*n - i : n >= 1}.  The expansion engine
is the log-derivative recursion: n * p(n) is a convolution of earlier
coefficients against weighted divisor sums, formed leaf by leaf with one
block multiply after each leaf and divided by n checked-exact, in x^g
when every element the recursion sees is a multiple of g.  In a spec whose
coefficients grow, the route also divides out, at each modulus m, Jacobi
triple products J(x^m; x^qm): first phi(-x^m) (q = 2), then (x^m;x^m)_inf
(q = 3), each by its sparse series with additions only, gathered once per
run of live shifts; _plan picks the route and documents the rule, and
expand runs it.  An independent oracle expands the same product by plain
polynomial multiplication and division.  multiply, the one dense product of two
integer sequences, packs each operand into a big int (Kronecker
substitution) and multiplies once, a square by squaring one int; every
slot holds its coefficient plus half the slot's range, both when packing
and when unpacking.
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

    def elements(self, bound: int) -> range:
        """Members up to bound, ascending from the least, modulus - offset."""
        return range(self.modulus - self.offset, bound + 1, self.modulus)


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


def _theta(q: int, limit: int) -> list[tuple[int, int]]:
    """Nonzero terms (d, c) of J(x; x^q) - 1 at exponents 1..limit, ascending.

    Jacobi's triple product J(x; x^q) = sum_k (-1)^k x^(q k(k-1)/2 + k) over
    all integers k; for k >= 1 term -k lies (q - 2) k above term k, below
    term k + 1.  q = 3 is Euler's pentagonal (x;x)_inf, and q = 2 is Gauss's
    phi(-x), whose terms for k and -k meet at k^2 with c = 2 (-1)^k.
    """
    terms: dict[int, int] = {}
    k = 1
    while (d := q * k * (k - 1) // 2 + k) <= limit:
        for e in (d, d + (q - 2) * k):
            if e <= limit:
                terms[e] = terms.get(e, 0) + (-1) ** k
        k += 1
    return list(terms.items())


def _theta_count(q: int, limit: int) -> int:
    """len(_theta(q, limit)): the k >= 1 with term k, and term -k unless q = 2, up to limit."""
    root = isqrt((q - 2) ** 2 + 8 * q * limit)
    plus, minus = (q - 2 + root) // (2 * q), (2 - q + root) // (2 * q)
    return plus + minus if q != 2 else plus


def _over_eta(out: list[int], shifts: list[tuple[int, int]]) -> None:
    """Divide out, in place, by 1 + sum c * x^d over the shifts (d, c).

    The shifts of _theta(q, order // m) stretched by m are J(x^m; x^qm) - 1,
    whose coefficients c share one size, scale, their gcd.  The recurrence
    p(n) = out[n] - sum_d c_d * p(n - d) uses no division.
    Between two consecutive shifts the same terms are live for every n, so
    each such run builds one itemgetter that gathers them and one sum forms
    each p(n) at C speed.  done holds a 0 sentinel and then each p(n)
    beside its negation: with p(0..n-1) in it, done[-2d] is p(n - d) and
    done[1 - 2d] is -p(n - d), so one gather serves both signs.  Every
    gather also reads the sentinel, index 0, so it returns a tuple and adds 0.
    """
    # gcd() of no shifts is 0, and then no term is ever live.
    scale = gcd(*[c for _, c in shifts])
    bounds = [d for d, _ in shifts] + [len(out)]
    done = [0]
    # Before the first shift no term is live.
    for value in out[: bounds[0]]:
        done += (value, -value)
    live = [0]
    for (d, c), stop in zip(shifts, bounds[1:]):
        live.append(1 - 2 * d if c > 0 else -2 * d)
        take = itemgetter(*live)
        for value in out[d:stop]:
            value = scale * sum(take(done)) + value
            done += (value, -value)
    out[:] = done[1::2]


_LEAF = 64


def _recursion(weights: list[int], coeffs: list[int], g: int) -> None:
    """Fill coeffs[::g], [1, 0, ..., 0] on entry, with the product whose weights are given.

    Solves n * p(n) = sum_{k=1..n} weights[k] * p(n - k), p(0) = 1, for
    p(n) = coeffs[n * g], online: p(n) is needed before the sums of later
    coefficients can be formed.  The weights are known in advance, so the
    semi-relaxed product forms the sums by whole blocks.  The coefficients
    split into a power of two of balanced leaves, each of at most _LEAF.
    Leaf m (from 1) finishes each of its sums with a dot product over the
    leaf and divides it by n checked-exact.  Then, with k = m & -m, the k
    leaves that end with it add their terms to the sums of the k leaves
    that follow, by one multiply against the weights.  A pair j < n in two
    leaves enters at the one m where their aligned blocks part, and a pair
    in one leaf enters by its dot product; so every term enters its sum once.
    """
    size = len(weights)
    # The fewest leaves, a power of two, that hold at most _LEAF each.
    leaves = 1 << (-(-size // _LEAF) - 1).bit_length()
    bounds = [m * size // leaves for m in range(leaves + 1)]
    head = min(_LEAF, size - 1)
    # reversed_head[head - d] is weights[d] for d = 1..head.
    reversed_head = weights[head:0:-1]
    sums = [0] * size
    for m in range(1, leaves + 1):
        l, r = bounds[m - 1], bounds[m]
        for n in range(max(l, 1), r):
            acc = sums[n] + sum(map(mul, coeffs[l * g : n * g : g], reversed_head[head - (n - l) :]))
            coeffs[n * g] = checked_div(acc, n)
        if m < leaves:
            k = m & -m
            low, top = bounds[m - k], bounds[m + k]
            block = multiply(coeffs[low * g : r * g : g] + [0] * (top - r), weights[: top - low])
            sums[r:top] = map(add, sums[r:top], block.coeffs[r - low :])


def _plan(spec: ProductSpec, order: int) -> tuple[list[tuple[int, int, int]], ProductSpec | None, int]:
    """The route expand runs, (divisions, scaled, g), at no cost in the order.

    Factors take one of two exact paths, chosen from the spec and the
    order alone.  The log-derivative recursion, _recursion, serves any
    factor in O(M(N) log N) for an M(N) product of size N.  A factor made of
    Jacobi triple products J(x^m; x^qm) can instead be divided out by their
    sparse series, _theta, with additions only: q = 3 is the eta factor
    (x^m;x^m)_inf and q = 2 the pair (x^m;x^m)^2 / (x^2m;x^2m) = phi(-x^m).
    divisions lists them as (m, q, count) in running order.

    The recursion's cost tracks the size of the output's coefficients, the
    divisions' the size of their intermediates, which can be far larger
    (dividing by (x;x)^2k alone leaves r_k partition-sized intermediates).
    So the whole spec picks: the output's coefficients grow like
    exp(C sqrt(n)) exactly when sum_f c_f / m_f < 0 over all factors
    (Meinardus), computed here in exact integers.  Only then do divisions
    run, each within its cost cap, count times _theta_count(q, order // m)
    at most the order.  Walking the offset-0 moduli m up, at each m the spec
    first takes the most divisions by phi(-x^m) that its exponents hold,
    j = min(floor(-c_m / 2), c_2m), so c_m rises by 2j and c_2m falls by j;
    then -c_m divisions by (x^m;x^m)_inf if c_m < 0.  Series-1,
    (1-x^n)^-4 (1-x^2n)^2 (1-x^4n)^-2 (1-x^8n)^4, is (psi(x^4) / phi(-x))^2
    and leaves only (x^8;x^8)^3.  Every other factor goes to the recursion:
    eta factors with c > 0, all factors of a spec with the sum >= 0 (r_k,
    t_k, u_{k,l}: polynomial-size outputs), and divisions too many for the
    cap.  Every element of the factors left is a multiple of g, the gcd of
    their moduli and offsets, so scaled, their spec in y = x^g, runs to
    order // g (None, with g = 1, if none is left).
    """
    # sum c/m < 0, scaled by the moduli's lcm so it stays in integers.
    common = lcm(*(f.index_set.modulus for f in spec.factors))
    grows = sum(f.exponent * (common // f.index_set.modulus) for f in spec.factors) < 0
    exponents = {(f.index_set.modulus, f.index_set.offset): f.exponent for f in spec.factors}
    divisions = []
    if grows:
        for m in sorted(m for m, i in exponents if i == 0):
            # A divisor with no term up to the order is 1 here and fails its
            # test: the recursion skips it at no cost, not in 10^30 empty passes.
            j = min(-exponents[m, 0] // 2, exponents.get((2 * m, 0), 0))
            if 0 < j * _theta_count(2, order // m) <= order:
                divisions.append((m, 2, j))
                exponents[m, 0] += 2 * j
                exponents[2 * m, 0] -= j
            if 0 < -exponents[m, 0] * _theta_count(3, order // m) <= order:
                divisions.append((m, 3, -exponents[m, 0]))
                exponents[m, 0] = 0
    rest = [(m, i, c) for (m, i), c in exponents.items() if c]
    if not rest:
        return divisions, None, 1
    g = gcd(*(n for m, i, _ in rest for n in (m, i)))
    return divisions, ProductSpec([Factor(FactorSet(m // g, i // g), c) for m, i, c in rest]), g


def expand(spec: ProductSpec, order: int) -> PowerSeries:
    """Expand the product to the given truncation order.

    _plan picks the route; expand runs the recursion, its result filling
    every g-th coefficient, and then each division.  A failed division
    raises DivisibilityViolation (an internal bug signal: integer exponents
    always divide exactly); the divisions by J(x^m; x^qm) perform none.
    """
    if order < 0:
        raise ValueError(f"expand requires order >= 0, got {order}")
    # Sized before any loop, so an order too large for memory fails at once.
    coeffs = [1] + [0] * order
    divisions, scaled, g = _plan(spec, order)
    if scaled is not None:
        _recursion(_weight_table(scaled, order // g), coeffs, g)
    for m, q, count in divisions:
        shifts = [(m * d, c) for d, c in _theta(q, order // m)]
        for _ in range(count):
            _over_eta(coeffs, shifts)
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


def multiply(a, b) -> PowerSeries:
    """Cauchy product of two integer sequences, truncated to the shorter one.

    Kronecker substitution: each operand, a PowerSeries or a plain sequence,
    is packed into one big int with a slot of w bytes per coefficient, so
    one big-int multiplication (CPython's Karatsuba) forms every
    convolution sum at once.  Every product coefficient c has
    |c| <= max(max|a|, 1) * max(max|b|, 1) * size < half = 2^(8w-1), and
    so does every operand coefficient.  So every slot holds its coefficient
    plus half, both when packing and when unpacking, and is nonnegative
    and carry-free: an operand packs as its slots minus the bias, one half
    per slot, and the low size slots of the product plus the bias are read
    back minus half.  When b is a, the one packed int multiplies itself,
    which CPython's Karatsuba does as a squaring.
    """
    size = min(len(a), len(b))
    first, second = a[:size], b[:size]
    bound = max(max(map(abs, first)), 1) * max(max(map(abs, second)), 1) * size
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
    packed = [
        int.from_bytes(b"".join([(c + half).to_bytes(width, "little") for c in coeffs]), "little") - bias
        for coeffs in ((first,) if b is a else (first, second))
    ]
    low = (packed[0] * packed[-1] + bias) & ((1 << (8 * width * size)) - 1)
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

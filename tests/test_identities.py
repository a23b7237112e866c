"""Closed forms, identity verifiers, and positivity checkers."""

from __future__ import annotations

import inspect
import json
import re
import tracemalloc
import weakref
from math import isqrt

import pytest

from qconvolve import cli, divisor_sums, identities
from qconvolve.divisor_sums import (
    divisors,
    sigma,
    sigma_class,
    sigma_combination,
    sigma_odd,
    sigma_scaled,
    sigma_star,
    sigma_star_scaled,
)
from qconvolve.errors import PreconditionNotMet
from qconvolve.identities import (
    SERIES1_SPEC,
    MasterFamilyParams,
    VerificationReport,
    _prime_flags,
    master_family_spec,
    master_positivity_cases,
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
from qconvolve.counts import r_oracle, t_oracle
from qconvolve.series import PowerSeries, ProductSpec, expand, oracle_expand


def brute_force_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def traced_peak(call):
    """call()'s result and the peak of the memory tracemalloc saw it take."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_sieve_agrees_with_brute_force():
    for limit in range(-2, 500):
        flags = _prime_flags(limit)
        assert [n for n in range(limit) if flags[n]] == [
            n for n in range(limit) if brute_force_is_prime(n)
        ]


def test_sieve_at_the_fills_chunk_edges():
    # Limits around where the ones' fill (from 2) first holds one and two
    # whole _BLOCK chunks, and the fill of p = 2 (from 4, stride 2) one.
    edge = divisor_sums._BLOCK
    limits = sorted({k * edge + d for k in (1, 2) for d in range(-1, 6)})
    primes = [n for n in range(limits[-1]) if brute_force_is_prime(n)]
    for limit in limits:
        flags = _prime_flags(limit)
        assert len(flags) == limit
        assert [n for n in range(limit) if flags[n]] == [q for q in primes if q < limit], limit


def test_sieve_takes_one_byte_per_entry():
    limit = 10**6
    flags, peak = traced_peak(lambda: _prime_flags(limit))
    assert sum(flags) == 78_498
    assert peak <= limit + 64 * 1024


def test_sieve_matches_sympy():
    sympy = pytest.importorskip("sympy")
    limit = 10**4
    flags = _prime_flags(limit)
    assert [n for n in range(limit) if flags[n]] == [n for n in range(limit) if sympy.isprime(n)]


def test_closed_form_examples():
    assert r2_closed(25) == 12
    assert r4_closed(2) == 24
    assert r8_closed(3) == 448
    assert t2_closed(0) == 1
    assert t2_closed(3) == 2
    assert t6_closed(2) == 15


def test_closed_forms_match_oracles():
    r2, r4, r8 = r_oracle(2, 200), r_oracle(4, 200), r_oracle(8, 200)
    t2, t4, t6 = t_oracle(2, 200), t_oracle(4, 200), t_oracle(6, 200)
    for n in range(1, 201):
        assert r2_closed(n) == r2[n]
        assert r4_closed(n) == r4[n]
        assert r8_closed(n) == r8[n]
    for n in range(0, 201):
        assert t2_closed(n) == t2[n]
        assert t4_closed(n) == t4[n]
        assert t6_closed(n) == t6[n]


def test_closed_forms_match_sympy():
    # Jacobi's and Legendre's formulas evaluated with sympy's number theory,
    # which shares no code with the divisor sieve or the closed forms.
    sympy = pytest.importorskip("sympy")

    def sigma_k(n, k=1, scale=1):
        """sympy's sigma_k(n / scale), 0 unless scale divides n."""
        return 0 if n % scale else int(sympy.divisor_sigma(n // scale, k))

    # chi_{-4}(d) for the odd d up to 4 * 2000 + 3.
    chi = {d: int(sympy.jacobi_symbol(-1, d)) for d in range(1, 8004, 2)}

    def chi_sum(n, power=0):
        """Sum of chi_{-4}(d) d^power over the divisors d of n."""
        return sum(chi[d] * d**power for d in sympy.divisors(n) if d % 2)

    for n in range(1, 2001):
        assert r2_closed(n) == 4 * chi_sum(n)
        assert r4_closed(n) == 8 * sigma_k(n) - 32 * sigma_k(n, scale=4)
        cubes = 16 * sigma_k(n, 3, scale=2) - sigma_k(n, 3) if n % 2 == 0 else sigma_k(n, 3)
        assert r8_closed(n) == 16 * cubes
    for n in range(0, 2001):
        assert t2_closed(n) == chi_sum(4 * n + 1)
        assert t4_closed(n) == sigma_k(2 * n + 1)
        assert 8 * t6_closed(n) == -chi_sum(4 * n + 3, 2)


def test_t6_closed_at_primes_4n_plus_3():
    # When 4n + 3 is prime the value collapses to (n + 1)(2n + 1).
    for n in range(0, 100):
        if brute_force_is_prime(4 * n + 3):
            assert t6_closed(n) == (n + 1) * (2 * n + 1)


def test_convolution_identity_small_cases():
    report = verify_convolution(2)
    assert report.passed
    # n = 1 is the empty sum; n = 2 needs the factor 8 on the convolution side.
    assert list(report.inputs_checked) == [1, 2]


def test_convolution_identity_range():
    assert verify_convolution(300).passed


def squares_weight(m):
    return sigma_star(m) - 4 * sigma_star_scaled(m, 2)


def test_prime_r2_examples():
    for p, expected in ((5, 4), (3, -4), (13, 12)):
        report = verify_prime_r2(p)
        assert report.passed, report.failures
        # Recompute the sum directly to pin the value, not just the pass flag.
        r2 = r_oracle(2, p).values
        total = sum(r2[j] * squares_weight(p - j) for j in range(1, p))
        assert total == expected


def rejects(message):
    """pytest.raises for PreconditionNotMet with exactly this message."""
    return pytest.raises(PreconditionNotMet, match=f"^{re.escape(message)}$")


def test_prime_r2_rejects_bad_input():
    with rejects("p = 9 is not prime"):
        verify_prime_r2(9)
    with rejects("p must be an odd prime, got 2"):
        verify_prime_r2(2)


def test_prime_r2_range_covers_twins():
    report = verify_prime_r2_range(100)
    assert report.passed
    assert 3 in report.inputs_checked and 97 in report.inputs_checked


def test_prime_r2_range_checks_twins_straddling_the_limit(monkeypatch):
    # 11 < 13 <= 11 + 2: the range must still run the twin check at 11.
    twins = []
    check = identities._check_twin_r2

    def spy(report, p, *rest):
        twins.append(p)
        check(report, p, *rest)

    monkeypatch.setattr(identities, "_check_twin_r2", spy)
    assert verify_prime_r2_range(13).passed
    in_range = list(twins)
    twins.clear()
    for p in (3, 5, 7, 11):
        assert verify_prime_r2(p).passed
    assert in_range == twins == [3, 5, 11]


# range verifier -> the inputs below its limit that it must check
RANGE_INPUTS = {
    verify_prime_r2_range: lambda n: n % 2 == 1 and brute_force_is_prime(n),
    verify_t2_prime_range: lambda n: brute_force_is_prime(n) and brute_force_is_prime(4 * n + 1),
    verify_t4_range: lambda n: brute_force_is_prime(2 * n + 1),
    verify_t6_range: lambda n: brute_force_is_prime(4 * n + 3),
}


@pytest.mark.parametrize("run", RANGE_INPUTS, ids=lambda run: run.__name__)
def test_range_inputs_come_from_the_sieve(run):
    # Every limit up to 399 checks exactly the filtered inputs.
    qualifies = RANGE_INPUTS[run]
    for limit in range(400):
        report = run(limit)
        expected = [n for n in range(limit) if qualifies(n)]
        assert report.inputs_checked == expected, limit
        assert report.passed == bool(expected), limit


def test_prime_r4_r8_example():
    report = verify_prime_r4_r8(3)
    assert report.passed
    r4 = r_oracle(4, 2).values
    r8 = r_oracle(8, 2).values
    assert sum(r4[j] * squares_weight(3 - j) for j in range(1, 3)) == 8
    assert sum(r8[j] * squares_weight(3 - j) for j in range(1, 3)) == 80


def test_t_verifier_examples():
    assert verify_t2_prime(3).passed
    assert verify_t4(3).passed
    assert verify_t6(2).passed


def test_t_verifiers_enforce_preconditions():
    with rejects("p = 4 is not prime"):
        verify_t2_prime(4)
    with rejects("4p + 1 = 9 is not prime"):
        verify_t2_prime(2)
    with rejects("2n + 1 = 9 is not prime"):
        verify_t4(4)
    with rejects("4n + 3 = 15 is not prime"):
        verify_t6(3)


SINGLE_AND_RANGE = [(single, run) for _, run, single in identities._REGISTRY if single is not None]


@pytest.mark.parametrize("single, run", SINGLE_AND_RANGE, ids=lambda verifier: verifier.__name__)
def test_single_input_accepts_exactly_the_range_inputs(single, run):
    # The precondition of a single-input verifier admits x exactly when the
    # range verifier checks x, and then checks x alone and passes.
    checked = set(run(401).inputs_checked)
    for x in range(-3, 401):
        if x in checked:
            report = single(x)
            assert report.passed and report.inputs_checked == [x], x
        else:
            with pytest.raises(PreconditionNotMet):
                single(x)


def R_combination(n):
    """4 sigma(n) - 4 sigma(n/2) + 8 sigma(n/4) - 32 sigma(n/8), by trial division."""
    return 4 * sigma(n) - 4 * sigma_scaled(n, 2) + 8 * sigma_scaled(n, 4) - 32 * sigma_scaled(n, 8)


def test_R_combination_values():
    values = sigma_combination(8, identities._R_TERMS)
    for n, expected in ((1, 4), (2, 8), (8, 24)):
        assert values[n] == R_combination(n) == expected


def test_R_combination_positive_midrange():
    values = sigma_combination(2000, identities._R_TERMS)
    for n in range(1, 2001):
        assert values[n] == R_combination(n) > 0


def test_R_case_identity_for_multiples_of_eight():
    for k in range(1, 501):
        assert R_combination(8 * k) == (
            4 * sigma_odd(8 * k) + 4 * sigma_odd(4 * k) + 16 * sigma_odd(2 * k)
        )


def test_verifier_divisor_sums_come_from_the_sieve():
    # Every term set the verifiers pass to sigma_combination, with the scalar
    # formula it stands for.
    formulas = {
        identities._SQUARES_TERMS: squares_weight,
        identities._TRIANGULAR_TERMS: lambda n: sigma(n) - 4 * sigma_scaled(n, 2),
        identities._R4_TERMS: lambda n: r4_closed(n) // 8,
        identities._R_TERMS: R_combination,
    }
    # Each limit around a block edge of sigma_combination, the last in the
    # second block included.
    edge = divisor_sums._BLOCK
    top = 2 * edge + 1
    for terms, formula in formulas.items():
        expected = [0] + [sum(c * sigma_scaled(n, m) for c, m in terms) for n in range(1, top + 1)]
        assert expected[1:] == [formula(n) for n in range(1, top + 1)]
        for limit in (2000, edge - 1, edge, edge + 1, top):
            assert list(sigma_combination(limit, terms)) == expected[: limit + 1], limit


def test_R_positive_takes_at_most_20_bytes_per_input():
    # The combination overwrites its sieve, one table of 8 bytes per entry,
    # and the report holds its inputs as a range.
    limit = 200_000
    report, peak = traced_peak(lambda: verify_R_positive(limit))
    assert report.passed and len(report.inputs_checked) == limit
    assert peak <= 8 * (limit + 1) + 512 * 1024


def test_sigma_combination_takes_8_bytes_per_entry():
    # The sums are written over the sigma_table they read, block by block.
    limit = 200_000
    values, peak = traced_peak(lambda: sigma_combination(limit, identities._R_TERMS))
    assert len(values) == limit + 1
    assert peak <= 8 * (limit + 1) + 512 * 1024


def test_verifiers_build_each_sum_table_once(monkeypatch):
    # All sums of a verifier come from one multiply per count table, however
    # many inputs its range holds.  prime-r4r8 also squares r_2 into r_4 and
    # r_4 into r_8, two more multiplies of a table by itself.
    calls = []
    squarings = []
    real = identities.multiply

    def spy(a, b):
        (squarings if a is b else calls).append(len(a))
        return real(a, b)

    monkeypatch.setattr(identities, "multiply", spy)

    def multiplies(run, *args):
        calls.clear()
        squarings.clear()
        assert run(*args).passed
        squares_r2 = run in (identities.verify_prime_r4_r8_range, verify_prime_r4_r8)
        assert len(squarings) == (2 if squares_r2 else 0)
        return len(calls)

    for limit in (40, 600):
        assert multiplies(identities.verify_convolution, limit) == 1
        assert multiplies(identities.verify_prime_r2_range, limit) == 1
        assert multiplies(identities.verify_prime_r4_r8_range, limit) == 3
        for run in (
            identities.verify_t2_prime_range,
            identities.verify_t4_range,
            identities.verify_t6_range,
        ):
            assert multiplies(run, limit) == 1
    # The smallest single inputs, whose tables hold indices 0..x + 1.
    assert multiplies(verify_prime_r4_r8, 3) == 3
    assert multiplies(verify_prime_r2, 3) == 1
    assert multiplies(verify_t4, 1) == 1
    assert multiplies(verify_t6, 0) == 1
    # A single input x runs its core at size x + 1, so its tables are the
    # tables of its range at limit x + 1.
    for single, run in SINGLE_AND_RANGE:
        for x in run(40).inputs_checked:
            multiplies(single, x)
            sizes = list(calls)
            multiplies(run, x + 1)
            assert calls == sizes, (single.__name__, x)


@pytest.fixture
def sieves(monkeypatch):
    """The limit of each _prime_flags call, in order."""
    limits = []
    real = identities._prime_flags

    def spy(limit):
        limits.append(limit)
        return real(limit)

    monkeypatch.setattr(identities, "_prime_flags", spy)
    return limits


def test_each_verifier_call_sieves_once(sieves):
    # One _prime_flags per call serves every value the call tests, prime-r2's
    # twin test included, for accepted and rejected inputs and for a range.
    # A single t2-prime input p that is prime takes a second sieve, for
    # 4p + 1 (test_t2_prime_tests_p_before_it_sieves_past_it).
    for single, run in SINGLE_AND_RANGE:
        for call, arg in ((single, 3), (single, 2), (single, 4), (run, 60)):
            sieves.clear()
            try:
                call(arg)
            except PreconditionNotMet:
                pass
            expected = 2 if call is verify_t2_prime and arg in (2, 3) else 1
            assert len(sieves) == expected, (call.__name__, arg)


def test_t2_prime_tests_p_before_it_sieves_past_it(sieves):
    # A composite p is rejected on a sieve to p + 1, never to 4p + 2.
    with rejects("p = 1000000 is not prime"):
        verify_t2_prime(10**6)
    assert sieves == [10**6 + 1]
    sieves.clear()
    assert verify_t2_prime(3).passed
    assert sieves == [4, 14]


def test_R_positive_range_verifier():
    report = verify_R_positive(5000)
    assert report.passed
    assert len(report.inputs_checked) == 5000


def test_series1_weight_identity():
    # The expansion weight of the series-1 product equals R_combination.
    for n in range(1, 1001):
        lhs = (
            4 * sigma(n)
            - 2 * sigma_class(n, 0, 2)
            + 2 * sigma_class(n, 0, 4)
            - 4 * sigma_class(n, 0, 8)
        )
        assert lhs == R_combination(n)


def test_master_family_spec_examples():
    single = master_family_spec(MasterFamilyParams(1, 3, frozenset({0}), "single-base"))
    assert single.to_text() == "1n^-1,3n^1"
    double = master_family_spec(MasterFamilyParams(1, 3, frozenset({0, 1}), "double-product"))
    assert double.to_text() == "1n^-2,3n^1,3n-1^1"
    for reading in ("double-product", "single-base"):
        spec = master_family_spec(MasterFamilyParams(2, 2, frozenset({0}), reading))
        assert spec.to_text() == "1n^-2,2n^2"


def test_master_family_params_validation():
    with pytest.raises(ValueError):
        MasterFamilyParams(0, 3, frozenset({0}), "single-base")
    with pytest.raises(ValueError):
        MasterFamilyParams(1, 3, frozenset(), "single-base")
    with pytest.raises(ValueError):
        MasterFamilyParams(1, 3, frozenset({2}), "single-base")
    with pytest.raises(ValueError):
        MasterFamilyParams(1, 3, frozenset({0}), "sideways")


def test_master_positivity_case_count():
    # Nonempty offset subsets: 1 + 3 + 7 + 15 per a value, two readings each.
    assert len(master_positivity_cases()) == 3 * 26 * 2


def test_master_positivity_sweep_small_order():
    report = verify_master_positivity(order=60)
    assert report.passed
    assert len(report.inputs_checked) == 156


def test_master_members_match_expand_and_the_oracle():
    # The members with a >= 2 are powers of their a = 1 member, and a spec
    # that both readings share is built once: each must still be the spec's
    # own expansion.
    for order, reference in ((300, expand), (60, oracle_expand)):
        members = list(identities._master_members(order))
        assert [params for params, _ in members] == master_positivity_cases()
        for params, series in members:
            assert series == reference(master_family_spec(params), order), params.describe()


def test_master_positivity_expands_each_a1_member_once(monkeypatch):
    # 42 distinct a = 1 specs (52 cases, 10 with one offset shared by both
    # readings) are expanded; a = 2 squares each, a = 3 multiplies once more.
    expands, products, squarings = [], [], []
    real_expand, real_multiply = identities.expand, identities.multiply

    def spy_expand(spec, order):
        expands.append(spec)
        return real_expand(spec, order)

    def spy_multiply(a, b):
        (squarings if a is b else products).append(len(a))
        return real_multiply(a, b)

    monkeypatch.setattr(identities, "expand", spy_expand)
    monkeypatch.setattr(identities, "multiply", spy_multiply)
    for order in (30, 120):
        for spied in (expands, products, squarings):
            spied.clear()
        report = verify_master_positivity(order)
        assert report.passed and len(report.inputs_checked) == 156
        assert len(expands) == len(set(expands)) == 42
        assert len(squarings) == 42 and len(products) == 42


def test_master_members_free_their_lower_powers():
    # The walk raises each a = 1 member to a = 2 and 3 before it moves on, so
    # at every yield at most one spec's three powers are alive, out of 126
    # distinct members; once the generator ends none is.
    members = identities._master_members(30)
    refs = []
    for _ in master_positivity_cases():
        params, series = next(members)
        if not any(ref() is series for ref in refs):
            refs.append(weakref.ref(series))
        alive = [ref for ref in refs if ref() is not None]
        assert len(alive) <= 3, params.describe()
    del params, series, alive
    assert len(refs) == 126
    with pytest.raises(StopIteration):
        next(members)
    assert all(ref() is None for ref in refs)


def test_master_positivity_failures_come_in_walk_order(monkeypatch, capsys):
    # Coefficient 1 of one a = 1 member is zeroed.  Its square and cube are
    # 2 f_1 = 0 and 3 f_1 = 0 there, and positive elsewhere.  With one offset
    # both readings share the member, so six cases fail, a innermost, each
    # failure naming its case.
    broken = master_family_spec(MasterFamilyParams(1, 3, frozenset({1}), "single-base"))
    real = identities.expand

    def patched(spec, order):
        series = real(spec, order)
        return PowerSeries((1, 0, *series.coeffs[2:])) if spec == broken else series

    monkeypatch.setattr(identities, "expand", patched)
    argv = ["verify", "--identity", "master-positivity", "-N", "20", "--format", "json"]
    assert cli.main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checked"] == 156 and report["passed"] is False
    failing = [
        MasterFamilyParams(a, 3, frozenset({1}), reading)
        for reading in ("double-product", "single-base")
        for a in (1, 2, 3)
    ]
    assert report["failures"] == [
        {"input": 1, "lhs": "0", "rhs": f">0 [{params.describe()}]"} for params in failing
    ]


def test_intro_families_positive():
    for a in (1, 2, 3):
        for offsets in ({0}, {1}, {0, 1}):
            params = MasterFamilyParams(a, 3, frozenset(offsets), "single-base")
            assert verify_positivity(master_family_spec(params), 120).passed


def test_master_weight_lower_bound():
    # The expansion weight of a double-product member dominates
    # a * sigma_{1,b}(n) >= a, which drives the positivity induction.
    divisor_lists = {n: divisors(n) for n in range(1, 1001)}
    for params in master_positivity_cases():
        if params.a not in (1, 3) or params.b not in (2, 4, 5):
            continue
        if params.reading != "double-product":
            continue
        a, b, offsets = params.a, params.b, params.offsets
        for n in range(1, 1001, 7):
            divs = divisor_lists[n]
            total = sum(divs)
            class_sums = [
                sum(d for d in divs if d % b == (b - i) % b) for i in offsets
            ]
            ones = sum(d for d in divs if d % b == 1 % b)
            lhs = a * len(offsets) * total - a * sum(class_sums)
            assert lhs >= a * ones >= a > 0


def test_positivity_negative_control():
    report = verify_positivity(ProductSpec.parse("1n^1"), 1)
    assert not report.passed
    assert report.failures[0].input == 1
    assert report.failures[0].lhs == "-1"


def test_series1_positivity():
    assert verify_series1_positivity(0).passed
    report = verify_series1_positivity(300)
    assert report.passed
    assert expand(SERIES1_SPEC, 0)[0] == 1


def test_oracle_equivalence_verifier():
    report = verify_oracle_equivalence(count=30, order=80, seed=3)
    assert report.passed
    assert len(report.inputs_checked) == 30


def test_report_json_schema():
    report = VerificationReport("demo", [1])
    report.expect(1, 2, 3)
    data = report.to_json_dict()
    assert data == {
        "identity": "demo",
        "checked": 1,
        "failures": [{"input": 1, "lhs": "2", "rhs": "3"}],
        "passed": False,
    }
    json.dumps(data)  # must be serializable as-is


@pytest.mark.parametrize(
    "run",
    [
        lambda: verify_prime_r2_range(2),
        lambda: verify_t4_range(0),
        lambda: verify_oracle_equivalence(count=0),
    ],
    ids=["prime-r2 below 2", "t4 below 0", "oracle-equivalence of 0 specs"],
)
def test_report_that_checked_nothing_does_not_pass(run):
    report = run()
    assert list(report.inputs_checked) == [] and report.failures == []
    assert not report.passed
    assert report.to_json_dict()["passed"] is False


# --- checks with teeth: each identity fails when one ingredient is wrong ---


def _add_one(args, coeffs, j):
    coeffs[j] += 1


def _set_zero(args, coeffs, j):
    # R-positive's strict inequality survives a +1, so cross zero instead.
    coeffs[j] = 0


def _add_one_to_h4(args, coeffs, j):
    # convolution reads two sigma_combination tables; h4 is the r_4 / 8 one.
    if args[1] == identities._R4_TERMS:
        coeffs[j] += 1


# identity -> (ingredient in qconvolve.identities, mutation of its result at j)
MUTATIONS = {
    "convolution": ("sigma_combination", _add_one_to_h4),
    "prime-r2": ("r_oracle", _add_one),
    "prime-r4r8": ("r_oracle", _add_one),
    "t2-prime": ("t_oracle", _add_one),
    "t4-prime": ("t_oracle", _add_one),
    "t6-prime": ("t_oracle", _add_one),
    "R-positive": ("sigma_combination", _set_zero),
    "series1-positivity": ("expand", _set_zero),
    "master-positivity": ("expand", _set_zero),
    "oracle-equivalence": ("oracle_expand", _add_one),
}


# identity -> (range runner, single-input verifier or None), from the registry
ROWS = {name: (runner, verifier) for name, runner, verifier in identities._REGISTRY}
INPUT_FORMS = sorted(name for name, (_, verifier) in ROWS.items() if verifier is not None)


def _small(runner):
    return {"limit": 60} if "limit" in inspect.signature(runner).parameters else {"order": 30}


def _mutate(monkeypatch, name, j):
    """Replace the identity's ingredient in qconvolve.identities by its mutant at j."""
    ingredient, mutate = MUTATIONS[name]
    original = getattr(identities, ingredient)

    def mutated(*args, **kwargs):
        result = original(*args, **kwargs)
        coeffs = list(result)
        mutate(args, coeffs, j)
        return PowerSeries(tuple(coeffs)) if isinstance(result, PowerSeries) else coeffs

    monkeypatch.setattr(identities, ingredient, mutated)


@pytest.mark.parametrize("j", [1, 4, 9])
@pytest.mark.parametrize("name", sorted(ROWS))
def test_every_identity_fails_when_an_ingredient_is_wrong(monkeypatch, name, j):
    runner, _ = ROWS[name]
    _mutate(monkeypatch, name, j)
    report = runner(**_small(runner))
    assert report.inputs_checked
    assert not report.passed


@pytest.mark.parametrize("j", [1, 4, 9])
@pytest.mark.parametrize("name", INPUT_FORMS)
def test_every_input_form_fails_when_an_ingredient_is_wrong(monkeypatch, name, j):
    # Each qualifying x with j < x < 60 sums over coefficient j, so each fails.
    runner, verifier = ROWS[name]
    expected = [x for x in runner(limit=60).inputs_checked if x > j]
    _mutate(monkeypatch, name, j)
    qualifying = []
    for x in range(j + 1, 60):
        try:
            report = verifier(x)
        except PreconditionNotMet:
            continue
        qualifying.append(x)
        assert report.inputs_checked == [x] and not report.passed, x
    assert qualifying == expected and qualifying


@pytest.mark.parametrize("name", sorted(ROWS))
def test_each_identity_is_pinned_to_its_row(name):
    # Its reports carry the row's name, and the CLI dispatches to the row.
    runner, verifier = ROWS[name]
    report = runner(**_small(runner))
    assert report.identity == name
    if verifier is not None:
        assert verifier(report.inputs_checked[0]).identity == name
    assert cli._RANGE_RUNNERS[name] is runner
    assert cli._SINGLE_INPUT.get(name) is verifier
    assert list(cli._RANGE_RUNNERS) == [row[0] for row in identities._REGISTRY]
    assert set(cli._SINGLE_INPUT) == set(INPUT_FORMS)
    # The tracer swaps the CLI's entries by the functions the module names.
    for fn in (runner, verifier or runner):
        assert getattr(identities, fn.__name__) is fn


@pytest.mark.parametrize("j", [1, 4, 9])
def test_master_positivity_fails_when_a_power_is_wrong(monkeypatch, j):
    # The mutation above reaches only the a = 1 members, which expand builds;
    # the members with a >= 2 come from multiply.
    real = identities.multiply

    def mutated(a, b):
        coeffs = list(real(a, b))
        coeffs[j] = 0
        return PowerSeries(tuple(coeffs))

    monkeypatch.setattr(identities, "multiply", mutated)
    report = verify_master_positivity(order=30)
    assert len(report.inputs_checked) == 156
    assert not report.passed
    assert {failure.input for failure in report.failures} == {j}
    assert all(" [a=1," not in failure.rhs for failure in report.failures)

"""analytic: sieves, progression counters, bound spot-checks, final inequality."""

import gc
import math
import random
import sys
import threading
import weakref

import numpy as np
import pytest

from fermatprod import analytic
from fermatprod.analytic import (
    SievedPrimes,
    check_bt_bound,
    check_logsum_bound,
    check_pi_bound,
    check_theta_window,
    exact_sum,
    final_inequality_crossing,
    final_inequality_margin,
    get_sieve,
    pi,
    pi_ap,
    primes_upto,
    theta_ap,
)
from fermatprod.errors import BeyondSieveError, InfeasibleSizeError
from oracles import logsum_by_fsum, pi_ap_by_reduction, segmented_primes, theta_ap_by_fsum

LIMIT = 10**6
SIEVE = get_sieve(LIMIT)
# a sieve limit of the benchmark ladder between 10^7 and 10^8
LADDER_LIMIT = 21_544_347
# 300 is a modulus whose residues do not fit in one byte
MODULI = (3, 4, 5, 8, 12, 16, 100, 300)


def assert_matches_oracle(cold, limit, oracle=None):
    """primes_upto(limit) equals the oracle: segmented_primes(limit), or a longer run of it.

    Checked sieved from an empty store, and grown from the store of limit // 2
    and of limit - 1, so that the growth itself ends at limit's edges.
    """
    want = segmented_primes(limit) if oracle is None else oracle[oracle <= limit]
    for smaller in (None, limit // 2, limit - 1):
        cold()
        if smaller is not None:
            primes_upto(smaller)
        got = primes_upto(limit)
        assert got.dtype == np.int64 and not got.flags.writeable, (limit, smaller)
        assert (np.diff(got) > 0).all(), (limit, smaller)  # strictly ascending, so duplicate-free
        assert np.array_equal(got, want), (limit, smaller)


class TestSieves:
    def test_two_implementations_agree(self):
        for limit in (10, 100, 10**4, 10**6):
            a = primes_upto(limit)
            b = segmented_primes(limit)
            assert len(a) == len(b) and (a == b).all(), limit

    def test_agreement_at_default_limit(self):
        a = primes_upto(10**7)
        b = segmented_primes(10**7)
        assert len(a) == len(b) == 664579 and (a == b).all()

    @pytest.mark.long
    def test_pi_bound_at_1e8_segmented(self):
        from fermatprod.analytic import SievedPrimes, check_pi_bound

        sieve = SievedPrimes(10**8, segmented_primes(10**8))
        assert len(sieve.primes) == 5761455
        assert check_pi_bound((10**6, 10**8), sieve).passed

    def test_segment_size_does_not_matter(self):
        for seg in (64, 1000, 1 << 14):
            assert (segmented_primes(10**5, seg) == primes_upto(10**5)).all()

    def test_every_small_limit(self, cold_sieve):
        for limit in range(2001):
            assert_matches_oracle(cold_sieve, limit)

    def test_limits_around_base_prime_squares(self, cold_sieve):
        # 997 is the largest base prime of a 10^6 sieve
        for p in (13, 17, 19, 997):
            for limit in (p * p - 1, p * p, p * p + 1):
                assert_matches_oracle(cold_sieve, limit)

    def test_limits_where_the_wheel_wraps(self, cold_sieve):
        # the 15015-flag wheel pattern spans the odd numbers below 30030
        for limit in range(30028, 30033):
            assert_matches_oracle(cold_sieve, limit)

    def test_limits_at_segment_boundaries(self, cold_sieve):
        # segment k holds the 2^20 flags of the odd numbers in (2^21 k, 2^21 (k + 1)),
        # wherever the store ended before the growth
        for edge in (1 << 21, 1 << 22):
            oracle = segmented_primes(edge + 2)
            for limit in range(edge - 2, edge + 3):
                assert_matches_oracle(cold_sieve, limit, oracle)

    def test_random_limits(self, cold_sieve):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=15, deadline=None)
        @hypothesis.given(st.integers(0, 3 * 10**6))
        def check(limit):
            assert_matches_oracle(cold_sieve, limit)

        check()

    def test_cached_sieve_is_read_only(self):
        primes = get_sieve(LIMIT).primes
        with pytest.raises(ValueError):
            primes[0] = 3
        assert primes[0] == 2

    def test_pi_values(self):
        assert pi(10, SIEVE) == 4
        assert pi(10**6, SIEVE) == 78498

    def test_beyond_sieve(self):
        with pytest.raises(BeyondSieveError):
            pi(LIMIT + 1, SIEVE)

    @pytest.mark.parametrize("limit", [analytic.SIEVE_CAP + 1, 10**400])
    def test_cap_refuses_before_allocating(self, limit):
        # only limits above the cap: a store near it keeps about 0.4 GB for the process's life
        assert analytic.SIEVE_CAP >= 10**8  # verify-all --long sieves 10^8
        with pytest.raises(InfeasibleSizeError):
            primes_upto(limit)
        with pytest.raises(InfeasibleSizeError):
            get_sieve(limit)


def spy_on_growth(monkeypatch) -> list[tuple[int, int]]:
    """Record the range (old limit, new limit] of every growth of the prime store."""
    ranges = []
    extended = analytic._extended

    def spy(store, limit):
        ranges.append((store.limit, limit))
        return extended(store, limit)

    monkeypatch.setattr(analytic, "_extended", spy)
    return ranges


def assert_sieved_once(ranges, top):
    """The grown ranges tile (1, top]: disjoint, contiguous and in order."""
    assert ranges and ranges[0][0] == 1 and ranges[-1][1] == top, ranges
    assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:])), ranges
    assert all(lo < hi for lo, hi in ranges), ranges


STORE_TOP = (1 << 22) + 5  # past two segment edges, at flags 2^20 and 2^21


@pytest.fixture(scope="module")
def store_oracle():
    return segmented_primes(STORE_TOP)


class TestStore:
    """The prime store: every limit a prefix view, every integer sieved once."""

    LIMITS = (0, 1, 2, 3, 4, 97, 1000, 30030, 65537, 1 << 21, (1 << 21) + 1, 3 * 10**6, STORE_TOP)

    @pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
    def test_any_order_of_limits(self, cold_sieve, monkeypatch, store_oracle, order):
        limits = sorted(self.LIMITS)
        if order == "descending":
            limits.reverse()
        elif order == "interleaved":
            random.Random(7).shuffle(limits)
        ranges = spy_on_growth(monkeypatch)
        for limit in limits:
            got = primes_upto(limit)
            assert np.array_equal(got, store_oracle[store_oracle <= limit]), limit
            assert not got.flags.writeable, limit
        assert_sieved_once(ranges, STORE_TOP)

    def test_threads_growing_to_different_limits(self, cold_sieve, monkeypatch, store_oracle):
        ranges = spy_on_growth(monkeypatch)
        limits = (50_000, 10**6, 30_031, STORE_TOP, 2 * 10**6, 999_983)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            barrier = threading.Barrier(len(limits))
            got = {}

            def grow(limit):
                barrier.wait()
                got[limit] = primes_upto(limit)

            threads = [threading.Thread(target=grow, args=(limit,)) for limit in limits]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(got) == sorted(limits)
        for limit, primes in got.items():
            assert np.array_equal(primes, store_oracle[store_oracle <= limit]), limit
        assert_sieved_once(ranges, STORE_TOP)

    @pytest.mark.parametrize("traced", [False, True])
    def test_replaced_store_is_freed(self, cold_sieve, monkeypatch, traced):
        if traced:
            # a tracer's plain wrapper, without cache_clear, in place of the cached function
            monkeypatch.setattr(analytic, "get_sieve", lambda limit: get_sieve(limit))
        sieve = analytic.get_sieve(7919)  # a limit no other test holds
        replaced = weakref.ref(analytic._store.primes)
        assert sieve.primes.base is replaced()
        assert get_sieve.cache_info().currsize >= 1
        primes_upto(20_011)
        assert analytic._store.primes is not replaced()
        assert get_sieve.cache_info().currsize == 0  # the growth dropped the cached sieves
        assert replaced() is not None  # the caller's sieve still holds it
        del sieve
        gc.collect()
        assert replaced() is None


class TestProgressions:
    def test_pi_ap_small(self):
        assert pi_ap(100, 8, 1, SIEVE) == 5  # 17, 41, 73, 89, 97

    def test_pi_decomposes_over_odd_classes(self):
        for x in (10, 97, 10**4, 10**6):
            total = sum(pi_ap(x, 8, a, SIEVE) for a in (1, 3, 5, 7))
            assert pi(x, SIEVE) == 1 + total  # the prime 2 sits outside

    def test_coprimality_required(self):
        with pytest.raises(ValueError):
            pi_ap(100, 8, 4, SIEVE)
        with pytest.raises(ValueError):
            theta_ap(100, 8, 2, SIEVE)

    def test_theta_matches_direct_sum(self):
        ps = [p for p in range(3, 1000) if all(p % d for d in range(2, p))]
        for a in (1, 3, 5, 7):
            want = math.fsum(math.log(p) for p in ps if p % 8 == a)
            assert abs(theta_ap(999, 8, a, SIEVE) - want) < 1e-9


def sample_points(rng: random.Random, sieve: SievedPrimes, lo: int = 0) -> list[int]:
    """x below 2 (when lo allows), at a prime and just past it, at the limit, and anywhere."""
    points = [-3, 0, 1] if lo < 2 else []
    inside = sieve.primes[np.searchsorted(sieve.primes, lo) :]
    if len(inside):
        p = int(inside[rng.randrange(len(inside))])
        points += [p, min(p + 1, sieve.limit)]
    return points + [sieve.limit, rng.randint(lo, sieve.limit)]


class TestAgainstReduction:
    """The residue cache and exact_sum against the per-query reduction and math.fsum, bitwise."""

    @pytest.mark.parametrize("limit", [LIMIT, LADDER_LIMIT])
    def test_progression_queries(self, limit):
        sieve = get_sieve(limit)
        rng = random.Random(limit)
        for q in MODULI:
            for x in sample_points(rng, sieve):
                a = rng.choice([a for a in range(-q, 2 * q) if math.gcd(a, q) == 1])
                ps = sieve.primes
                assert pi_ap(x, q, a, sieve) == pi_ap_by_reduction(x, q, a, ps), (x, q, a)
                assert theta_ap(x, q, a, sieve) == theta_ap_by_fsum(x, q, a, ps), (x, q, a)

    @pytest.mark.parametrize("limit", [LIMIT, LADDER_LIMIT])
    def test_logsum(self, limit):
        sieve = get_sieve(limit)
        rng = random.Random(limit)
        for x in sample_points(rng, sieve, 10**6):
            for a in (1, 3, 5, 7):
                lhs = check_logsum_bound(a, x, sieve).detail["records"][0]["lhs"]
                assert lhs == logsum_by_fsum(a, x, sieve.primes), (x, a)

    def test_residue_cache(self):
        sieve = SievedPrimes(LIMIT, primes_upto(LIMIT))
        dtypes = {1: np.uint8, 8: np.uint8, 256: np.uint8, 257: np.uint16, 300: np.uint16}
        for q, dtype in dtypes.items():
            res = sieve.residues(q)
            assert res.dtype == dtype and not res.flags.writeable, q
            assert np.array_equal(res, sieve.primes % q), q
            assert sieve.residues(q) is res
        with pytest.raises(ValueError):
            sieve.residues(0)
        with pytest.raises(ValueError):
            pi_ap(100, -8, 1, sieve)

    def test_concurrent_first_callers_share_one_sieve(self):
        limit = 5_000_003  # no other test asks for it, so the threads build it
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            barrier = threading.Barrier(4)
            handed = []

            def build():
                barrier.wait()
                handed.append(get_sieve(limit))

            threads = [threading.Thread(target=build) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(handed) == 4 and all(sv is handed[0] for sv in handed)

    def test_concurrent_queries_share_one_residue_array(self):
        x, odd = LIMIT - 1, (1, 3, 5, 7)
        ps = SIEVE.primes
        want = {
            q: [(pi_ap_by_reduction(x, q, a, ps), theta_ap_by_fsum(x, q, a, ps)) for a in odd]
            for q in (8, 16)
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for first, second in ((8, 16), (16, 8)):
                sieve = SievedPrimes(LIMIT, ps)
                cached = get_sieve(LIMIT)
                barrier = threading.Barrier(4)
                got, seen, handed = [], [], []

                def query(qs):
                    barrier.wait()
                    for q in qs:
                        values = [(pi_ap(x, q, a, sieve), theta_ap(x, q, a, sieve)) for a in odd]
                        got.append((q, values))
                        seen.append((q, sieve.residues(q)))
                        handed.append(get_sieve(LIMIT))

                # two threads start on each modulus; one of each order arrives first
                orders = [(first, second), (second, first)] * 2
                threads = [threading.Thread(target=query, args=(qs,)) for qs in orders]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert len(got) == 8 and all(values == want[q] for q, values in got)
                assert sorted(sieve._residues) == [8, 16]
                for q, res in seen:
                    assert res is sieve._residues[q] and not res.flags.writeable
                assert all(sv is cached for sv in handed)
                assert not cached.primes.flags.writeable
        finally:
            sys.setswitchinterval(interval)


def fsum_or_overflow(values: np.ndarray):
    try:
        return math.fsum(values.tolist())
    except OverflowError:
        return OverflowError


def assert_sums_like_fsum(values: np.ndarray) -> None:
    want = fsum_or_overflow(values)
    if want is OverflowError:
        with pytest.raises(OverflowError):
            exact_sum(values)
    else:
        got = exact_sum(values)
        assert got == want and math.copysign(1.0, got) == 1.0, (got, want)


class TestExactSum:
    def test_empty_and_zero(self):
        assert exact_sum(np.array([])) == 0.0
        assert exact_sum(np.zeros(5)) == 0.0

    def test_matches_fsum(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
        # draws whose exponents span the whole float range, subnormals included
        mantissa = st.floats(0.5, 1.0, exclude_max=True)
        spread = st.builds(math.ldexp, mantissa, st.integers(-1073, 1024))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.lists(finite | spread, max_size=200))
        def check(values):
            assert_sums_like_fsum(np.array(values, dtype=np.float64))

        check()

    @pytest.mark.parametrize("length_from_chunk", [-1, 0, 1])
    @pytest.mark.parametrize("chunks", [1, 3, 32])
    def test_lengths_at_chunk_edges(self, chunks, length_from_chunk):
        length = chunks * analytic._SUM_CHUNK + length_from_chunk
        rng = np.random.default_rng(length)
        # 32 chunks reach 2^20 terms; a narrower span keeps that case quick
        span = 2000 if chunks < 32 else 200
        values = np.ldexp(rng.random(length), rng.integers(-span // 2, span // 2, length))
        assert_sums_like_fsum(values)

    def test_log_ratio_beyond_any_sieve(self):
        # ln f / f falls below 2^-23 past 1.5e8, so the limbs must widen with the span
        rng = np.random.default_rng(10)
        f = np.concatenate(
            [
                np.arange(1, 5000),
                rng.integers(1, 10**10, 200_000),
                np.arange(10**10 - 100_000, 10**10 + 1),
            ]
        ).astype(np.float64)
        assert_sums_like_fsum(np.log(f) / f)
        assert_sums_like_fsum(np.log(f[-100_000:]) / f[-100_000:])

    @pytest.mark.parametrize(
        "values, want",
        [
            ([1.0, 2.0**-53], 1.0),  # a tie rounds to even
            ([1.0, 2.0**-53, 5e-324], 1.0 + 2.0**-52),  # the least subnormal breaks it
            ([2.0**1023, 2.0**970], 2.0**1023),
            # the largest term overflows float64 at every scale of the low limbs
            ([2.0**1023, 2.0**970, 5e-324], 2.0**1023 + 2.0**971),
        ],
    )
    def test_ties_across_the_exponent_range(self, values, want):
        assert math.fsum(values) == want
        assert exact_sum(np.array(values)) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, -0.0, -5e-324])
    def test_refuses_what_it_cannot_represent(self, bad):
        with pytest.raises(ValueError):
            exact_sum(np.array([1.0, bad, 2.0]))


class TestBoundChecks:
    def test_pi_bound(self):
        rep = check_pi_bound((10**6,), SIEVE)
        assert rep.passed
        rec = rep.detail["records"][0]
        assert rec["lhs"] == 78498 and rec["rhs"] == pytest.approx(1.1 * 10**6 / math.log(10**6))

    def test_pi_bound_rejects_small_samples(self):
        with pytest.raises(ValueError):
            check_pi_bound((10**5,), SIEVE)

    def test_bt_bound_boundary(self):
        rep = check_bt_bound(2, (64, 10**4, 10**6), SIEVE)
        assert rep.passed
        first = rep.detail["records"][0]
        assert first["lhs"] == 2  # 17 and 41 are the only hits up to 64
        assert first["rhs"] == pytest.approx(64 / math.log(64))

    def test_bt_bound_various_levels(self):
        for n in (2, 3):
            assert check_bt_bound(n, None, SIEVE).passed

    def test_logsum_bound_all_classes(self):
        for a in (1, 3, 5, 7):
            rep = check_logsum_bound(a, 10**6, SIEVE)
            assert rep.passed
            assert rep.detail["records"][0]["margin"] > 1e-9

    def test_logsum_rhs_value(self):
        rep = check_logsum_bound(3, 10**6, SIEVE)
        assert rep.detail["records"][0]["rhs"] == pytest.approx(0.245 * math.log(10**6) - 3.15)

    def test_theta_window(self):
        for a in (1, 3, 5, 7):
            assert check_theta_window(a, (10**6,), SIEVE).passed


class TestFinalInequality:
    def test_margin_values(self):
        lhs, rhs = final_inequality_margin(10**6, 2)
        assert lhs == pytest.approx(0.7044, abs=1e-3)
        assert rhs == pytest.approx(10.2867, abs=1e-3)
        assert lhs < rhs
        lhs, rhs = final_inequality_margin(10**12, 2)
        assert lhs == pytest.approx(10.8588, abs=1e-3)
        assert rhs == pytest.approx(10.2866, abs=1e-3)
        assert lhs > rhs

    def test_refuses_m_past_the_float_range(self):
        lhs, rhs = final_inequality_margin((1 << 1022) - 1, 2)
        assert math.isfinite(lhs) and math.isfinite(rhs) and lhs > rhs
        for m in (1 << 1022, 10**400):
            with pytest.raises(InfeasibleSizeError):
                final_inequality_margin(m, 2)

    def test_rhs_limit(self):
        for n in (2, 3, 6):
            _, rhs = final_inequality_margin(10**15, n)
            assert abs(rhs - (math.log(2) / 2 ** (n + 1) + 10.2)) < 1e-6

    def test_crossing_below_target(self):
        m2 = final_inequality_crossing(2)
        assert m2 <= 10**12
        lhs, rhs = final_inequality_margin(m2, 2)
        assert lhs > rhs
        lhs, rhs = final_inequality_margin(m2 - 1, 2)
        assert lhs <= rhs  # minimality of the threshold

    def test_crossing_non_increasing_in_n(self):
        values = [final_inequality_crossing(n) for n in (2, 3, 5, 10)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v <= 10**12 for v in values)

    def test_difference_eventually_monotone(self):
        for n in (2, 4):
            diffs = []
            m = 10**6
            while m <= 10**14:
                lhs, rhs = final_inequality_margin(m, n)
                diffs.append(lhs - rhs)
                m *= 10
            assert all(a < b for a, b in zip(diffs, diffs[1:]))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            final_inequality_margin(1, 2)
        with pytest.raises(ValueError):
            final_inequality_margin(100, 1)
        with pytest.raises(ValueError):
            final_inequality_crossing(1)

"""analytic: sieves, progression counters, bound spot-checks, final inequality."""

import hashlib
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from fermatprod import analytic
from fermatprod.analytic import (
    DEFAULT_SIEVE_LIMIT,
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


def run_cli_peak(argv: list[str]) -> tuple[bytes, int]:
    """The stdout of fermatprod's CLI on argv, run in a fresh interpreter, and its VmHWM in KB.

    The command must exit 0.
    """
    script = (
        "import sys\n"
        "from fermatprod.cli import main\n"
        f"code = main({argv!r})\n"
        "sys.stdout.flush()\n"
        "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
        "print(code, int(status.split()[0]), file=sys.stderr)\n"
    )
    src = str(Path(analytic.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, timeout=300, check=True
    )
    code, hwm_kb = map(int, done.stderr.split())
    assert code == 0
    return done.stdout, hwm_kb


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
        assert got.dtype == np.uint32 and not got.flags.writeable, (limit, smaller)
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

    @pytest.mark.long
    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_sieve_to_the_cap_stays_small(self):
        # the store takes 4 bytes per prime, 203 MB for the 50.8 million primes up to 10^9
        out, hwm_kb = run_cli_peak(["analytic", "--check", "pi", "--limit", "1e9", "--json"])
        assert hwm_kb <= 300 * 1024, hwm_kb
        # byte for byte the report that the int64 store, copied on each growth, gave
        digest = "49b7e9de5503997fce8f65ec7a0de6173fa9d8097488d81cc1b68265e7c04aab"
        assert hashlib.sha256(out).hexdigest() == digest

    @pytest.mark.long
    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_class_sums_to_the_cap_stay_small(self):
        # a byte per prime and modulus, 51 MB at 10^9, would push the peak past 260 MB
        out, hwm_kb = run_cli_peak(["analytic", "--check", "theta", "--a", "3", "--limit", "1e9", "--json"])
        assert hwm_kb <= 260 * 1024, hwm_kb
        # byte for byte the report that the per-modulus residue arrays gave
        digest = "266d0ebafbc6b4142f9f957102e1f50edb6966ccf96c606434206c209cdbd852"
        assert hashlib.sha256(out).hexdigest() == digest

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

    def test_edges_below_two(self):
        for x in (1, 0, -1, -(10**400)):
            got = primes_upto(x)
            assert got.dtype == np.uint32 and len(got) == 0 and not got.flags.writeable, x
            assert pi(x, SIEVE) == 0, x

    def test_queries_allocate_no_copy_of_the_store(self):
        # a copy of the 664,579 primes up to 10^7 widened to int64 would take 5.3 MB
        sieve = get_sieve(DEFAULT_SIEVE_LIMIT)
        x = sieve.limit
        for query in (pi, lambda x, sv: pi_ap(x, 8, 3, sv), lambda x, sv: primes_upto(x)):
            tracemalloc.start()
            try:
                query(x, sieve)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (query, peak)

    def test_cap_fits_the_store_dtype(self):
        # the store is uint32, which holds every prime up to SIEVE_CAP only below 2^32
        assert analytic.SIEVE_CAP < 2**32
        assert primes_upto(analytic.SIEVE_CAP // 10**6).dtype == np.uint32

    @pytest.mark.parametrize("limit", [analytic.SIEVE_CAP + 1, 10**400])
    def test_cap_refuses_before_allocating(self, limit):
        # only limits above the cap: a store near it keeps about 0.2 GB for the process's life
        assert analytic.SIEVE_CAP >= 10**8  # verify-all --long sieves 10^8
        with pytest.raises(InfeasibleSizeError):
            primes_upto(limit)
        with pytest.raises(InfeasibleSizeError):
            get_sieve(limit)


def spy_on_growth(monkeypatch) -> list[tuple[int, int]]:
    """Record the range (old limit, new limit] of every growth of the prime store."""
    ranges = []
    extend = analytic._extend

    def spy(store, limit):
        ranges.append((store.sieve.limit, limit))
        extend(store, limit)

    monkeypatch.setattr(analytic, "_extend", spy)
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
    def test_growth_keeps_views_and_cache(self, cold_sieve, monkeypatch, traced):
        if traced:
            # a tracer's plain wrapper, without lru_cache's methods, for the cached function
            monkeypatch.setattr(analytic, "get_sieve", lambda limit: get_sieve(limit))
        limit = 7927 if traced else 7919  # a limit no other test holds, so this test sieves it
        sieve = analytic.get_sieve(limit)
        assert analytic.get_sieve(limit) is sieve
        view = primes_upto(limit)
        values = view.copy()
        cached = get_sieve.cache_info()
        primes_upto(20_011)
        grown = analytic._store.sieve.primes
        assert len(grown) > len(view) and np.array_equal(grown[: len(view)], values)
        # the growth wrote past the views in place: they keep their values and memory
        for primes in (view, sieve.primes):
            assert np.array_equal(primes, values) and np.shares_memory(primes, grown)
        assert get_sieve.cache_info() == cached
        assert analytic.get_sieve(limit) is sieve
        assert get_sieve.cache_info().hits == cached.hits + 1

    def test_cold_store_leaves_process_views_untouched(self, cold_sieve):
        process = SIEVE.primes  # a view of the process's store, taken at import
        values = process.copy()
        for limit in (10, LIMIT // 2, 2 * LIMIT):
            cold_sieve()
            cold = primes_upto(limit)
            assert not np.shares_memory(cold, process), limit
            assert np.array_equal(process, values), limit


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
    """The class sums and exact_sum against the per-query reduction and math.fsum, bitwise."""

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

    # (limit, x, a): theta(x; 8, a) and the logsum lhs, as float.hex, as one
    # exact_sum over the whole class gave them before the sums were streamed
    PINNED = {
        (LIMIT, LIMIT, 1): ("0x1.e5e7a5a6d8270p+17", "0x1.4aa97eb961be1p+1"),
        (LIMIT, LIMIT, 3): ("0x1.e832813b90ed4p+17", "0x1.a80a0cb586510p+1"),
        (LIMIT, LIMIT, 5): ("0x1.e76712ea0bfa5p+17", "0x1.9b313e57d887bp+1"),
        (LIMIT, LIMIT, 7): ("0x1.e8a883e1bc652p+17", "0x1.83a4d08e20c9cp+1"),
        (LADDER_LIMIT, LADDER_LIMIT, 1): ("0x1.48693e396bb5fp+22", "0x1.acd25923fdefdp+1"),
        (LADDER_LIMIT, LADDER_LIMIT, 3): ("0x1.48c871a9438c1p+22", "0x1.05241e7698a03p+2"),
        (LADDER_LIMIT, LADDER_LIMIT, 5): ("0x1.48c172733ced2p+22", "0x1.fd7ea7987e2c8p+1"),
        (LADDER_LIMIT, LADDER_LIMIT, 7): ("0x1.48b13d20d8ba3p+22", "0x1.e5db25b66466fp+1"),
        (LADDER_LIMIT, 12_345_678, 1): ("0x1.78788776364a2p+21", "0x1.9b07648162aacp+1"),
        (LADDER_LIMIT, 12_345_678, 3): ("0x1.788bcb23363dap+21", "0x1.f8716442fbf87p+1"),
        (LADDER_LIMIT, 12_345_678, 5): ("0x1.78dcd7c15ca70p+21", "0x1.ebaef65a7fa27p+1"),
        (LADDER_LIMIT, 12_345_678, 7): ("0x1.78c1c6f04b053p+21", "0x1.d40b2444c59e5p+1"),
    }

    def test_streamed_sums_are_pinned(self):
        for (limit, x, a), (theta, logsum) in self.PINNED.items():
            sieve = get_sieve(limit)
            assert theta_ap(x, 8, a, sieve).hex() == theta, (limit, x, a)
            lhs = check_logsum_bound(a, x, sieve).detail["records"][0]["lhs"]
            assert lhs.hex() == logsum, (limit, x, a)

    def test_direct_sieve_keeps_its_own_totals(self):
        sieve = SievedPrimes(LIMIT, primes_upto(LIMIT))
        assert sieve.block_totals is not analytic._store.block_totals
        stored = dict(analytic._store.block_totals)
        assert theta_ap(LIMIT, 8, 1, sieve) == theta_ap_by_fsum(LIMIT, 8, 1, sieve.primes)
        assert list(sieve.block_totals) == [("theta", 8, 1, 0)]  # the one whole block of 10^6
        assert analytic._store.block_totals == stored

    @pytest.mark.parametrize("q", [0, -8])
    def test_bad_modulus_raises_before_any_block(self, monkeypatch, q):
        sieve = SievedPrimes(LIMIT, SIEVE.primes)
        calls = count_calls(monkeypatch, "_block_part")
        for query in (pi_ap, theta_ap):
            for x in (1, 100, LIMIT):  # no block, a partial one, and a whole one too
                with pytest.raises(ValueError, match="modulus must be positive"):
                    query(x, q, 1, sieve)
        assert not calls and not sieve.block_totals

    @pytest.mark.parametrize("q", [2**40, 3 * 2**40 + 2])
    def test_modulus_past_the_limit(self, q):
        # every prime is its own residue, and q - 1 does not fit uint32
        sieve = get_sieve(LIMIT)
        ps = sieve.primes.astype(np.int64)  # the oracles reduce the primes' own dtype
        for a in (1, 3, 999_983, 999_979 - q, q - 1, 2**33 + 1, q + 5):
            if math.gcd(a, q) != 1:
                continue
            for x in (2, 999_983, LIMIT):
                assert pi_ap(x, q, a, sieve) == pi_ap_by_reduction(x, q, a, ps), (x, q, a)
                assert theta_ap(x, q, a, sieve) == theta_ap_by_fsum(x, q, a, ps), (x, q, a)
        assert pi_ap(LIMIT, q, 999_983, sieve) == 1

    @pytest.mark.parametrize("query", [pi_ap, theta_ap])
    def test_cold_query_allocates_only_block_temporaries(self, cold_sieve, query):
        # a mask, a residue or a copy over the whole sieve would take a byte
        # per prime or more, 5.76 MB for the primes up to 10^8
        primes = primes_upto(10**8)
        assert len(primes) >= 5 * 10**6
        sieve = SievedPrimes(10**8, primes)  # its own empty totals: every block is computed
        tracemalloc.start()
        try:
            got = query(sieve.limit, 8, 3, sieve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 21, peak  # a few blocks' temporaries, a third of a byte per prime
        assert len(sieve.block_totals) == len(primes) // analytic._BLOCK
        again = SievedPrimes(10**8, primes)
        assert query(sieve.limit, 8, 3, again) == got

    def test_concurrent_first_callers_share_block_totals(self, cold_sieve):
        # limits no other test asks for, so the threads sieve them from the cold store
        limits = (3_000_017, 3_500_017)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            barrier = threading.Barrier(4)
            seen = []

            def query(limit, qs):
                barrier.wait()
                sieve = get_sieve(limit)
                seen.extend((sieve, q, pi_ap(limit, q, 1, sieve), theta_ap(limit, q, 1, sieve)) for q in qs)

            # two threads on each limit, one starting on each modulus
            jobs = [(limit, qs) for limit in limits for qs in ((8, 16), (16, 8))]
            threads = [threading.Thread(target=query, args=job) for job in jobs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        totals = analytic._store.block_totals
        assert len(seen) == 8
        for sieve, q, count, theta in seen:
            assert sieve.block_totals is totals
            ps = sieve.primes
            assert count == pi_ap_by_reduction(sieve.limit, q, 1, ps), (sieve.limit, q)
            assert theta == theta_ap_by_fsum(sieve.limit, q, 1, ps), (sieve.limit, q)
        # the whole blocks of the longer sieve, each kept once per kind and modulus
        whole = len(primes_upto(max(limits))) // analytic._BLOCK
        keys = [(kind, q, 1, i) for kind in ("count", "theta") for q in (8, 16) for i in range(whole)]
        assert sorted(totals) == sorted(keys)

    def test_concurrent_queries_share_private_block_totals(self):
        # a long and a short sieve on one private dict of totals, raced on two moduli
        short = LIMIT // 2
        ps = SIEVE.primes
        want = {
            (x, q): [(pi_ap_by_reduction(x, q, a, ps), theta_ap_by_fsum(x, q, a, ps)) for a in (1, 3, 5, 7)]
            for x in (LIMIT - 1, short - 1)
            for q in (8, 16)
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for first, second in ((8, 16), (16, 8)):
                totals = {}
                sieves = [
                    SievedPrimes(LIMIT, ps, totals),
                    SievedPrimes(short, ps[: pi(short, SIEVE)], totals),
                ]
                cached = get_sieve(LIMIT)
                stored = dict(analytic._store.block_totals)
                barrier = threading.Barrier(4)
                got, handed = [], []

                def query(sieve, qs):
                    barrier.wait()
                    x = sieve.limit - 1
                    for q in qs:
                        values = [(pi_ap(x, q, a, sieve), theta_ap(x, q, a, sieve)) for a in (1, 3, 5, 7)]
                        got.append(((x, q), values))
                        handed.append(get_sieve(LIMIT))

                # two threads start on each modulus, one on each sieve
                jobs = [(sieve, qs) for qs in ((first, second), (second, first)) for sieve in sieves]
                threads = [threading.Thread(target=query, args=job) for job in jobs]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert len(got) == 8 and all(values == want[key] for key, values in got)
                # the parts the threads stored are the ones one sieve computes alone
                alone = SievedPrimes(LIMIT, ps)
                for q in (8, 16):
                    for a in (1, 3, 5, 7):
                        pi_ap(LIMIT - 1, q, a, alone)
                        theta_ap(LIMIT - 1, q, a, alone)
                assert totals == alone.block_totals
                assert all(sv is cached for sv in handed)
                assert cached.block_totals is analytic._store.block_totals
                assert analytic._store.block_totals == stored  # the store's own were not touched
                assert not cached.primes.flags.writeable
        finally:
            sys.setswitchinterval(interval)


def block_edges(sieve: SievedPrimes) -> list[int]:
    """The x with pi(x) = i B - 1, i B and i B + 1 for each whole block i, B = _BLOCK, where the sieve has them."""
    B, ps = analytic._BLOCK, sieve.primes
    counts = [i * B + d for i in range(1, len(ps) // B + 1) for d in (-1, 0, 1)]
    return [int(ps[k - 1]) for k in counts if k <= len(ps)]


def count_calls(monkeypatch, name: str) -> list:
    """A list that gets one entry per call of analytic.<name>, which keeps working."""
    calls, fn = [], getattr(analytic, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(analytic, name, counted)
    return calls


# (q, a) pairs of the block-total tests; logsum is defined on q = 8 only
CLASSES = ((8, 1), (8, 7), (16, 9), (3, 2))


def class_queries(x: int, sieve: SievedPrimes) -> dict:
    """Every class query at x: pi_ap and theta_ap on CLASSES, and the logsum lhs where it is defined."""
    got = {}
    for q, a in CLASSES:
        got["pi", q, a] = pi_ap(x, q, a, sieve)
        got["theta", q, a] = theta_ap(x, q, a, sieve)
        if q == 8 and x >= 10**6:
            got["logsum", q, a] = check_logsum_bound(a, x, sieve).detail["records"][0]["lhs"]
    return got


def class_oracles(x: int, sieve: SievedPrimes) -> dict:
    """class_queries(x, sieve) by the per-query reduction and math.fsum."""
    ps = sieve.primes
    want = {}
    for q, a in CLASSES:
        want["pi", q, a] = pi_ap_by_reduction(x, q, a, ps)
        want["theta", q, a] = theta_ap_by_fsum(x, q, a, ps)
        if q == 8 and x >= 10**6:
            want["logsum", q, a] = logsum_by_fsum(a, x, ps)
    return want


class TestBlockTotals:
    """The class totals of whole blocks, cached on the store or on a sieve, against the oracles."""

    def test_block_edges_cold_then_warm(self, cold_sieve):
        sieve = get_sieve(2_800_001)  # a limit no other test asks for: the cold store's
        xs = block_edges(sieve)
        assert len(xs) == 9  # three whole blocks
        want = {x: class_oracles(x, sieve) for x in xs}
        # ascending, each query reaches one whole block past the earlier ones;
        # descending, on a private sieve, the first query computes every block;
        # then every query again, warm
        private = SievedPrimes(sieve.limit, sieve.primes)
        for sv, order in ((sieve, xs), (private, xs[::-1]), (sieve, xs), (private, xs)):
            for x in order:
                assert class_queries(x, sv) == want[x], (sv is sieve, x)
        B = analytic._BLOCK
        for totals in (sieve.block_totals, private.block_totals):
            assert sorted(i for kind, q, r, i in totals if (kind, q, r) == ("theta", 16, 9)) == [0, 1, 2]
        assert sieve.block_totals is analytic._store.block_totals
        # a cached part is the block's own total
        block = sieve.primes[B : 2 * B]
        assert sieve.block_totals["count", 3, 2, 1] == int(np.count_nonzero(block % 3 == 2))
        terms = np.log(block[block % 8 == 7].astype(np.float64))
        assert sieve.block_totals["theta", 8, 7, 1] == analytic._scaled_total(terms)

    def test_sieves_of_the_store_read_each_others_totals(self, cold_sieve, monkeypatch):
        # limits no other test asks for, so get_sieve makes them from the cold store
        small, large = get_sieve(1_900_009), get_sieve(2_900_017)
        assert small.block_totals is large.block_totals is analytic._store.block_totals
        whole = [len(sv.primes) // analytic._BLOCK for sv in (small, large)]
        assert whole == [2, 3]
        calls = count_calls(monkeypatch, "_scaled_total")
        # the larger sieve first, for class 3: the smaller one then sums only its partial block
        assert theta_ap(large.limit, 8, 3, large) == theta_ap_by_fsum(large.limit, 8, 3, large.primes)
        assert len(calls) == whole[1] + 1
        assert theta_ap(small.limit, 8, 3, small) == theta_ap_by_fsum(small.limit, 8, 3, small.primes)
        assert len(calls) == whole[1] + 2
        # the smaller first, for class 5: the larger one then sums its third whole block and its partial one
        del calls[:]
        assert theta_ap(small.limit, 8, 5, small) == theta_ap_by_fsum(small.limit, 8, 5, small.primes)
        assert len(calls) == whole[0] + 1
        assert theta_ap(large.limit, 8, 5, large) == theta_ap_by_fsum(large.limit, 8, 5, large.primes)
        assert len(calls) == whole[0] + 1 + (whole[1] - whole[0]) + 1

    def test_warm_query_sums_only_its_partial_block(self, monkeypatch):
        # a private sieve of 20 whole blocks and a partial one
        sieve = SievedPrimes(LADDER_LIMIT, get_sieve(LADDER_LIMIT).primes)
        assert len(sieve.primes) // analytic._BLOCK == 20
        x = LADDER_LIMIT - 1
        cold = theta_ap(x, 8, 3, sieve)
        calls = count_calls(monkeypatch, "_scaled_total")
        assert theta_ap(x, 8, 3, sieve) == cold == theta_ap_by_fsum(x, 8, 3, sieve.primes)
        assert len(calls) == 1 and len(calls[0][0]) < analytic._BLOCK

    def test_concurrent_cold_queries_agree(self, cold_sieve):
        sieve = get_sieve(2_700_001)  # a limit no other test asks for: the cold store's
        xs = block_edges(sieve)[-3:] + [sieve.limit]
        want = {x: class_oracles(x, sieve) for x in xs}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            barrier = threading.Barrier(4)
            got = []

            def query(order):
                barrier.wait()
                got.extend((x, class_queries(x, sieve)) for x in order)

            # two threads run the points ascending, two descending
            orders = [xs, xs[::-1], xs, xs[::-1]]
            threads = [threading.Thread(target=query, args=(order,)) for order in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 4 * len(xs) and all(values == want[x] for x, values in got)
        # the parts the threads stored are the ones a private sieve computes alone
        private = SievedPrimes(sieve.limit, sieve.primes)
        for x in xs:
            class_queries(x, private)
        assert analytic._store.block_totals == private.block_totals


def fsum_or_overflow(values: np.ndarray):
    try:
        return math.fsum(values.tolist())
    except OverflowError:
        return OverflowError


def assert_sums_like_fsum(values: np.ndarray, blocks=None) -> None:
    """exact_sum(values) is math.fsum(values), and so is the streamed sum of blocks, if given.

    The blocks hold the terms of values, in any order.
    """
    want = fsum_or_overflow(values)
    sums = [lambda: exact_sum(values)]
    if blocks is not None:
        sums.append(lambda: analytic._streamed_sum(analytic._scaled_total(b) for b in blocks))
    for total in sums:
        if want is OverflowError:
            with pytest.raises(OverflowError):
                total()
        else:
            got = total()
            assert got == want and math.copysign(1.0, got) == 1.0, (got, want)


def split_at_random(rng: np.random.Generator, values: np.ndarray) -> list[np.ndarray]:
    """values cut at random into blocks, shuffled, with empty, all-zero and one-term blocks."""
    blocks = np.split(values, np.sort(rng.integers(0, len(values) + 1, 12)))
    blocks += [values[:0], np.zeros(3)]
    if len(values):
        blocks.append(values[rng.integers(len(values), size=1)])
    return [blocks[i] for i in rng.permutation(len(blocks))]


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

    def test_streamed_blocks_match_fsum(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
        mantissa = st.floats(0.5, 1.0, exclude_max=True)
        spread = st.builds(math.ldexp, mantissa, st.integers(-1073, 1024))
        block = st.lists(finite | spread, max_size=20) | st.lists(st.just(0.0), max_size=4)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.lists(block, max_size=8))
        def check(blocks):
            blocks = [np.array(b, dtype=np.float64) for b in blocks]
            assert_sums_like_fsum(np.concatenate([np.empty(0), *blocks]), blocks)

        check()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_splits(self, seed):
        rng = np.random.default_rng(seed)
        # three exponent bands that do not overlap: subnormal to 2^-900, around 1, and high
        bands = [
            np.ldexp(rng.random(size), rng.integers(lo, hi, size))
            for lo, hi, size in ((-1074, -900, 300), (-20, 20, 3000), (900, 1000, 300))
        ]
        values = np.concatenate(bands)
        for order in permutations(bands):
            assert_sums_like_fsum(values, list(order))
        logs = np.log(primes_upto(10**5).astype(np.float64))
        for terms in (values, logs):
            blocks = split_at_random(rng, terms)
            assert_sums_like_fsum(np.concatenate(blocks), blocks)

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

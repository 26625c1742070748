"""prodorders: valuations, tables, chain links, ingredient bounds."""

import math
import random
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from fermatprod import ntcore, prodorders
from fermatprod.ntcore import (
    WORD_LIMIT,
    is_prime,
    is_probable_prime,
    lifted_roots,
    roots_of_minus_one,
)

from fermatprod.analytic import primes_upto
from fermatprod.errors import InfeasibleSizeError, InternalRefusalError, NotSplittingError
from fermatprod.prodorders import (
    _anchor_cap,
    _factor_residuals,
    _next_link,
    _split_composites,
    alpha_p,
    alpha_two,
    beta_p,
    bound_checks,
    build_valuation_table,
    is_qth_power_obstructed,
    verify_chain,
)
from oracles import alpha_p_by_vmax, factorizations_by_sympy, product_value, validate_chain_link


def ord_in(p, v):
    o = 0
    while v % p == 0:
        v //= p
        o += 1
    return o


def factorize_naive(v):
    out = {}
    d = 2
    while d * d <= v:
        while v % d == 0:
            out[d] = out.get(d, 0) + 1
            v //= d
        d += 1
    if v > 1:
        out[v] = out.get(v, 0) + 1
    return out


class TestAlphaBeta:
    def test_alpha_two(self):
        assert alpha_two(5, 2) == 3
        assert alpha_two(4, 2) == 2
        assert alpha_two(1, 1) == 1
        # oracle: 2 exactly divides x^4+1 for odd x
        for m in range(1, 40):
            assert alpha_two(m, 2) == ord_in(2, product_value(m, 2))

    def test_alpha_p_known(self):
        assert alpha_p(20, 2, 17) == 5
        assert alpha_p(20, 2, 3) == 0
        # the fifth solution 1303 = 6 + 1297 lies just past 1302
        assert alpha_p(1302, 2, 1297) == 4
        assert alpha_p(1303, 2, 1297) == 5

    def test_composite_in_the_split_class_raises(self):
        # 325 = 5^2 * 13 = 1 mod 4, and 100^2 + 1 >= 325, so the root count runs
        with pytest.raises(NotSplittingError):
            alpha_p(100, 1, 325)
        # the caller vouches for primality: outside the class, or past m^2 + 1, a composite gets 0
        assert alpha_p(2, 1, 9) == alpha_p(17, 1, 325) == 0

    def test_alpha_p_matches_the_vmax_loop(self):
        # odd p of the split class, prime or not: equal counts, or NotSplittingError from both
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        def outcome(fn, m, n, p):
            try:
                return fn(m, n, p)
            except NotSplittingError:
                return "raised"

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.integers(1, 4), st.integers(1, 10**6), st.integers(1, 400))
        def check(n, m, k):
            p = 1 + k * (2 << n)
            assert outcome(alpha_p, m, n, p) == outcome(alpha_p_by_vmax, m, n, p), (m, n, p)

        check()
        for m, n, p in ((2, 1, 9), (17, 1, 325), (100, 1, 325), (1302, 2, 1297), (1303, 2, 1297)):
            assert outcome(alpha_p, m, n, p) == outcome(alpha_p_by_vmax, m, n, p), (m, n, p)

    @pytest.mark.long
    def test_alpha_p_at_n20_forms_no_vmax(self):
        # m^(2^20)+1 has 41.8 million bits; alpha_p never forms it
        p = 1099543085057
        assert p % (1 << 21) == 1 and is_prime(p)
        start = time.perf_counter()
        assert alpha_p(10**12, 20, p) == 953396
        assert time.perf_counter() - start < 5

    def test_alpha_p_oracle_small(self):
        for n in (1, 2):
            for m in (10, 35, 60):
                prod = product_value(m, n)
                for p in (int(q) for q in primes_upto(2 * (m + 1)).tolist()):
                    if p == 2:
                        continue
                    assert alpha_p(m, n, p) == ord_in(p, prod), (m, n, p)

    def test_beta_known(self):
        assert beta_p(10, 2) == 8
        assert beta_p(5, 3) == 1
        assert beta_p(5, 7) == 0

    def test_beta_is_factorial_valuation(self):
        import math

        for m in (6, 20, 50):
            f = math.factorial(m)
            for p in (2, 3, 5, 7, 11, 13):
                assert beta_p(m, p) == ord_in(p, f)


class TestValuationTable:
    def test_base_cases(self):
        assert build_valuation_table(3, 1).alpha == {2: 2, 5: 2}
        assert build_valuation_table(3, 2).alpha == {2: 2, 17: 1, 41: 1}
        assert build_valuation_table(5, 2).alpha == {2: 3, 17: 1, 41: 1, 257: 1, 313: 1}

    def test_product_reconstruction(self):
        for m, n in ((50, 1), (50, 2), (30, 3), (500, 1), (300, 2)):
            table = build_valuation_table(m, n)
            assert math.prod(p**a for p, a in table.alpha.items()) == product_value(m, n), (m, n)

    def test_residue_class_invariant(self):
        for m, n in ((200, 1), (120, 2), (60, 3)):
            step = 1 << (n + 1)
            table = build_valuation_table(m, n)
            for p in table.alpha:
                assert p == 2 or (p - 1) % step == 0
                assert p <= m ** (1 << n) + 1

    @pytest.mark.parametrize("m,n", [(2000, 1), (1500, 2), (500, 3), (64, 4)])
    def test_alpha_ascending_in_p(self, m, n):
        # the orders payload prints alpha in this order; (500, 3) and (64, 4) hold
        # Python-int (object dtype) primes
        t = build_valuation_table(m, n)
        assert list(t.alpha) == sorted(t.alpha)

    def test_infeasible_cap(self):
        with pytest.raises(InfeasibleSizeError):
            build_valuation_table(10**9, 2)

    @pytest.mark.parametrize("m,n", [(1, 7), (1, 62), (2, 7), (2, 16), (65, 4), (4097, 3)])
    def test_value_size_cap_refuses(self, m, n):
        # (m-1).bit_length() * 2^n > 96: refused before any factoring
        with pytest.raises(InfeasibleSizeError, match="bit_length"):
            build_valuation_table(m, n)

    def test_value_size_cap_accepts_every_documented_size(self, monkeypatch):
        # README's orders 3000 3, and the largest m each level n = 1..5 takes
        class Reached(Exception):
            pass

        def reached(n, m):
            raise Reached

        monkeypatch.setattr(prodorders, "_factorizations", reached)
        for m, n in ((3000, 3), (4096, 3), (100_000, 2), (100_000, 1), (64, 4), (8, 5)):
            with pytest.raises(Reached):
                build_valuation_table(m, n)

    def test_value_size_cap_takes_level_6_at_m_2(self):
        # the last level the cap takes, and only at m <= 2
        assert build_valuation_table(1, 6).alpha == {2: 1}
        assert build_valuation_table(2, 6).alpha == {2: 1, 274177: 1, 67280421310721: 1}

    def test_qth_power_obstruction(self):
        t31 = build_valuation_table(3, 1)
        assert not is_qth_power_obstructed(t31, 2)
        assert is_qth_power_obstructed(t31, 3)
        t52 = build_valuation_table(5, 2)
        assert is_qth_power_obstructed(t52, 5)

    def test_min_order_1000(self):
        assert min(build_valuation_table(1000, 2).alpha.values()) <= 4


class TestFullRangeInvariants:
    @pytest.mark.long
    def test_product_reconstruction_m2000(self):
        for n in (1, 2, 3):
            table = build_valuation_table(2000, n)
            assert math.prod(p**a for p, a in table.alpha.items()) == product_value(2000, n), n

    @pytest.mark.long
    def test_alpha_oracle_m2000(self):
        allp = [int(p) for p in primes_upto(2 * 2001).tolist()]
        for n in (1, 2, 3):
            e = 1 << n
            acc = {}
            for m in range(1, 2001):
                v = m**e + 1
                for p in allp:
                    if v == 1 or p * p > v:
                        break
                    while v % p == 0:
                        v //= p
                        acc[p] = acc.get(p, 0) + 1
                if 1 < v <= allp[-1]:
                    acc[v] = acc.get(v, 0) + 1
                if m % 97 and m != 2000:
                    continue  # compare on a lattice of m values plus the endpoint
                for p in allp:
                    if p > 2 * (m + 1):
                        break
                    got = alpha_two(m, n) if p == 2 else alpha_p(m, n, p)
                    assert got == acc.get(p, 0), (m, n, p)


class TestStripAndSplit:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_root_table_matches_roots_of_minus_one(self, n):
        table = prodorders._root_table(n, 1 << 14)
        step = 1 << (n + 1)
        want = [p for p in primes_upto(1 << 14).tolist() if p % step == 1]
        got = table.primes.tolist()
        assert got[: len(want)] == want
        for p, row in zip(want, table.roots.tolist()):
            assert tuple(sorted(row)) == roots_of_minus_one(n, p), (n, p)

    def test_split_roots_refuses_wrapped_arithmetic(self):
        # uint32 squares of residues of these primes wrap, so no g passes the
        # non-residue test; the search stops at isqrt(p) + 1 instead of hanging
        step = 1 << 3
        primes = [p for p in range((1 << 17) + 1, (1 << 17) + 100 * step, step) if is_prime(p)]
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="non-residue"):
            prodorders._split_roots(2, np.array(primes[:20], dtype=np.uint32))
        assert time.perf_counter() - start < 1

    def test_root_table_is_read_only(self):
        table = prodorders._root_table(2, 1 << 12)
        with pytest.raises(ValueError):
            table.roots[0, 0] = 0
        assert prodorders._root_table(2, 100) is prodorders._root_tables[2]

    def test_root_table_past_its_cap_is_refused(self):
        with pytest.raises(InternalRefusalError):
            prodorders._root_table(2, prodorders.ROOT_TABLE_CAP + 1)

    @pytest.mark.parametrize("n,m_top", [(1, 3000), (2, 1500), (3, 200)])
    def test_table_matches_sympy_factorint(self, n, m_top):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(f"factorint:{n}")
        e = 1 << n
        for m in sorted(rng.randrange(1, m_top + 1) for _ in range(3)):
            want: Counter = Counter()
            for x in range(1, m + 1):
                want.update(sympy.factorint(x**e + 1))
            assert build_valuation_table(m, n).alpha == dict(want), (m, n)

    @pytest.mark.parametrize("m,n", [(3000, 1), (1024, 2)])
    def test_small_bound_needs_no_primality_or_rho(self, monkeypatch, cold_engines, m, n):
        # below (B+1)^2 every residual is prime by size: n=1 always, n=2 for m <= 1024
        want = build_valuation_table(m, n)
        cold_engines()  # the patched call below must strip again

        def refuse(*args):
            raise AssertionError("primality test or rho called")

        monkeypatch.setattr(prodorders, "is_probable_prime", refuse)
        monkeypatch.setattr(prodorders, "is_prime_batch", refuse)
        monkeypatch.setattr(prodorders, "_rho_brent", refuse)
        monkeypatch.setattr(prodorders, "_split_composites", refuse)
        assert build_valuation_table(m, n) == want

    def test_kernel_that_finds_nothing_falls_back_to_rho(self, monkeypatch, cold_engines):
        # m = 3000, n = 2 leaves 58 word-size composites, one batch for the kernel
        want = build_valuation_table(3000, 2)
        cold_engines()
        batches = []

        def find_nothing(vs, k):
            batches.append(len(vs))
            return [0] * len(vs)

        monkeypatch.setattr(prodorders, "_walk_lanes", find_nothing)
        assert build_valuation_table(3000, 2) == want
        assert batches == [58]

    def test_root_count_mismatch_raises(self, monkeypatch, cold_engines):
        real = prodorders.alpha_p
        monkeypatch.setattr(prodorders, "alpha_p", lambda m, n, p: real(m, n, p) + (p == 17))
        with pytest.raises(ArithmeticError):
            build_valuation_table(100, 2)

    def test_missing_root_row_raises(self, monkeypatch, cold_engines):
        # a split prime p <= B left out of the strip reaches the residuals,
        # where it fails the inadmissible-prime check
        real = prodorders._root_table(2, 1 << 12)
        keep = real.primes != 41
        short = prodorders._RootTable(real.limit, real.primes[keep], real.roots[keep])
        monkeypatch.setattr(prodorders, "_root_table", lambda n, limit: short)
        with pytest.raises(ArithmeticError, match="inadmissible prime 41"):
            build_valuation_table(30, 2)  # 3^4+1 = 2 * 41 and B = 900

    def test_duplicate_roots_fail_verification(self, monkeypatch):
        # every entry below is a root, but a row repeating one would make the
        # strip divide some x^(2^n)+1 by p twice
        monkeypatch.setattr(prodorders, "odd_powers", lambda z, n, mod: [z] * (1 << n))
        with pytest.raises(ArithmeticError, match="failed verification"):
            prodorders._split_roots(2, np.array([17, 41, 73], dtype=np.int64))

    def test_tampered_root_entry_raises(self, monkeypatch, cold_engines):
        # p = 17 has the roots 2, 8, 9 and 15 of x^4 = -1; 3^4 + 1 = 2 * 41
        real = prodorders._root_table(2, 1 << 12)
        assert real.primes[0] == 17
        roots = real.roots.copy()
        roots[0, 0] = 3
        tampered = prodorders._RootTable(real.limit, real.primes, roots)
        monkeypatch.setattr(prodorders, "_root_table", lambda n, limit: tampered)
        with pytest.raises(ArithmeticError, match=r"17 does not divide 3\^\(2\^2\)\+1"):
            build_valuation_table(30, 2)

    @pytest.mark.parametrize(
        "n,lo,m",
        [
            (3, 200, 234),  # 234^8 + 1 < 2^63: int64 values
            (3, 200, 260),  # 235^8 + 1 > 2^63: Python int values
            (1, 1, 400),  # squares of split primes divide, such as 5^2 | 7^2 + 1
        ],
    )
    def test_strip_matches_sympy_factorint(self, n, lo, m):
        pytest.importorskip("sympy")
        primes, counts = prodorders._strip_and_split(n, lo, m)
        ends = np.cumsum(counts)
        got = [Counter(primes[a:b].tolist()) for a, b in zip((ends - counts).tolist(), ends.tolist())]
        assert got == factorizations_by_sympy(n, lo, m)

    def test_rho_factors_are_proper_divisors(self):
        for v, k in ((1000009 * 1000033, 8), ((2**61 - 1) * 1000003, 16), (65537 * 274177, 4)):
            d = prodorders._rho_brent(v, k)
            assert 1 < d < v and v % d == 0


class TestEngine:
    def test_any_query_order_matches_cold_engines(self, cold_engines):
        rng = random.Random("engine-order")
        per_level = []
        for n, top in ((1, 3000), (2, 1200), (3, 150)):
            ms = rng.sample(range(1, top + 1), 5)
            at = rng.randrange(len(ms))
            ms.insert(at + 1, max(ms[: at + 1]))  # lands exactly on m_done
            per_level.append([(m, n) for m in ms])
        queries = []
        while any(per_level):
            queries.append(rng.choice([q for q in per_level if q]).pop(0))
        want = {}
        for q in queries:
            cold_engines()
            want[q] = list(build_valuation_table(*q).alpha.items())
        cold_engines()
        seen = set()
        for m, n in queries:
            state = prodorders._engines.get(n)
            m_done = state.m_done if state is not None else 0
            seen.add((n, (m > m_done) - (m < m_done)))
            assert list(build_valuation_table(m, n).alpha.items()) == want[m, n], (m, n, m_done)
        assert seen == {(n, r) for n in (1, 2, 3) for r in (-1, 0, 1)}

    def test_scan_matches_sympy_factorint_n3(self):
        # the engine's stored primes of x^8+1, x by x, are sympy's factorization
        sympy = pytest.importorskip("sympy")
        state = prodorders._factorizations(3, 120)
        primes, offsets = state.primes.tolist(), state.offsets.tolist()
        for x in range(1, 121):
            got = Counter(primes[offsets[x - 1] : offsets[x]])
            assert got == sympy.factorint(x**8 + 1), x

    def test_concurrent_queries_match_fresh_builds(self, monkeypatch, cold_engines):
        n, small, large = 2, 700, 1500
        want = {}
        for m in (small, large):
            cold_engines()
            want[m] = build_valuation_table(m, n)
        strip = prodorders._strip_and_split
        stripped = []
        stripping = threading.Event()

        def recorded(n_, lo, m):
            stripped.append((lo, m))
            stripping.set()
            return strip(n_, lo, m)

        monkeypatch.setattr(prodorders, "_strip_and_split", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for order in ((small, large), (large, small)):
                cold_engines()
                stripped.clear()
                stripping.clear()
                got = []
                # four threads on two cores; the first is mid-strip when the rest arrive
                threads = [
                    threading.Thread(target=lambda m=m: got.append(build_valuation_table(m, n)))
                    for m in order * 2
                ]
                threads[0].start()
                assert stripping.wait(timeout=60)
                for t in threads[1:]:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert sorted(got, key=lambda t: t.m) == [want[small]] * 2 + [want[large]] * 2
                assert prodorders._engines[n].m_done == large
                # each x stripped once: the ranges tile 1..large
                stripped.sort()
                assert [lo for lo, _ in stripped] == [1] + [m + 1 for _, m in stripped[:-1]]
                assert stripped[-1][1] == large
        finally:
            sys.setswitchinterval(interval)

    def test_state_is_read_only(self):
        build_valuation_table(40, 1)
        state = prodorders._engines[1]
        with pytest.raises(ValueError):
            state.primes[0] = 3
        with pytest.raises(ValueError):
            state.offsets[0] = 1


class TestCofactorMachinery:
    def test_probable_prime_agrees_below_64_bits(self):
        for v in (2, 3, 561, 1297, 2873716601617, (1 << 61) - 1, 10**15 + 37):
            assert is_probable_prime(v) == is_prime(v)

    def test_probable_prime_above_64_bits(self):
        # (2^89 - 1) is a Mersenne prime; its neighbor is composite
        assert is_probable_prime((1 << 89) - 1)
        assert not is_probable_prime((1 << 89) - 3)
        assert not is_probable_prime((1 << 89) * 3 + 9)

    def test_probable_prime_matches_sympy_above_64_bits(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random("bpsw")
        primes = [sympy.nextprime(rng.randrange(1 << 33, 1 << 90)) for _ in range(40)]
        odd = [rng.randrange(1 << 64, 1 << 100) | 1 for _ in range(200)]
        squares_and_products = [p * q for p, q in zip(primes, primes[1:] + primes[:1])] + [p * p for p in primes]
        for v in primes + odd + squares_and_products:
            if v >= 1 << 64:
                assert is_probable_prime(v) == sympy.isprime(v), v

    def test_factor_residuals_matches_naive(self):
        vs = [97, 6**4 + 1, 91 * 89, 2**4 * 3**3 * 1297, 10**12 + 39, 10007**2, 3 * 10007**2]
        got = [Counter() for _ in vs]
        for i, p in zip(*_factor_residuals(np.array(vs), 2, 4)):
            got[i][p] += 1
        assert got == [Counter(factorize_naive(v)) for v in vs]

    @staticmethod
    def split_primes(rng, bits, step, count):
        out = []
        while len(out) < count:
            p = rng.randrange(1 << (bits - 1), 1 << bits) // step * step + 1
            if is_prime(p):
                out.append(p)
        return out

    def test_split_composites_by_size(self, monkeypatch):
        # 40 products of two split primes of 21-27 bits go to the kernel, in one
        # batch; the inputs of 2^55 and more, and only they, go to rho
        rng = random.Random("split-composites")
        word = [
            p * q
            for bits in range(21, 28)
            for p, q in zip(*[iter(self.split_primes(rng, bits, 8, 12))] * 2)
        ][:40]
        assert all(v < WORD_LIMIT for v in word)
        big = [(2**61 - 1) * 1000003, (2**61 - 1) * 65537, WORD_LIMIT + 1]  # 33 | 2^55 + 1
        vs = big[:1] + word[:20] + big[1:] + word[20:]
        batches, rho = [], []
        walk, brent = prodorders._walk_lanes, prodorders._rho_brent
        monkeypatch.setattr(prodorders, "_walk_lanes", lambda vs, k: batches.append(vs) or walk(vs, k))
        monkeypatch.setattr(prodorders, "_rho_brent", lambda v, k: rho.append(v) or brent(v, k))
        ds = _split_composites(vs, 8)
        assert all(1 < d < v and v % d == 0 for v, d in zip(vs, ds))
        assert batches == [word] and sorted(rho) == sorted(big)

    def test_word_size_residuals_are_proved_in_one_batch(self, monkeypatch, cold_engines):
        # at m = 5000, n = 2, B = 2^20 and the residuals from (B+1)^2 up all lie
        # below 2^55: one is_prime_batch call proves them, and the scalar
        # is_prime sees only the root moduli p <= m of alpha_p's cross-check
        scalar, batches = [], []
        is_prime_real, batch_real = ntcore.is_prime, prodorders.is_prime_batch
        monkeypatch.setattr(ntcore, "is_prime", lambda v: scalar.append(v) or is_prime_real(v))
        monkeypatch.setattr(prodorders, "is_prime_batch", lambda vs: batches.append(len(vs)) or batch_real(vs))
        build_valuation_table(5000, 2)
        assert len(batches) == 1 and batches[0] >= prodorders._MIN_PRIME_BATCH
        assert max(scalar, default=0) <= 5000

    def test_small_batches_and_collapsing_walks_reach_rho(self):
        # a batch below _MIN_BATCH skips the kernel; for composites this small
        # every walk meets both factors in one gcd block and collapses
        tiny = [15, 21, 35, 91 * 89, 3 * 5 * 7, 17 * 257] * 6
        assert len(tiny) >= prodorders._MIN_BATCH
        assert prodorders._walk_lanes(tiny, 2) == [0] * len(tiny)
        for vs in (tiny, tiny[:3]):
            ds = _split_composites(vs, 2)
            assert all(1 < d < v and v % d == 0 for v, d in zip(vs, ds))

    def test_mulmod_matches_python(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        top = (1 << 55) - 1
        slack = 1 << 20

        @st.composite
        def lane(draw):
            v = draw(st.one_of(st.integers(2, top), st.integers(top - 1000, top)))
            edge = st.sampled_from([v + slack - 1, -(v + slack - 1), v - 1, 0])
            operand = st.one_of(st.integers(-(v + slack) + 1, v + slack - 1), edge)
            return v, draw(operand), draw(operand)

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(st.lists(lane(), min_size=1, max_size=16))
        def check(lanes):
            v, a, b = (np.array(col, dtype=np.int64) for col in zip(*lanes))
            got = ntcore._mulmod(a, b, v, 1.0 / v).tolist()
            assert got == [x * y % m for m, x, y in lanes]

        check()


LINK_6 = {"anchor": 6, "p": 1297, "next_roots": [216, 1081, 1291, 1303], "cover_hi": 1302}


class TestChainLinks:
    def test_quartic_link_anchor_6(self):
        link = verify_chain(2).detail["links"][0]
        assert link["anchor"] == 6
        assert link["p"] == 1297
        assert link["next_roots"] == [216, 1081, 1291, 1303]
        assert link["cover_hi"] == 1302

    def test_quartic_link_anchor_1302(self):
        link = verify_chain(2).detail["links"][1]
        assert link["anchor"] == 1302
        assert link["p"] == 2873716601617
        assert link["next_roots"] == [
            2207155608,
            2871509446009,
            2873716600315,
            2873716602919,
        ]
        assert link["cover_hi"] == 2873716602918

    def test_quadratic_link(self):
        link = verify_chain(1).detail["links"][0]
        assert link == {"anchor": 2, "p": 5, "next_roots": [3, 7], "cover_hi": 6}

    def test_anchor_errors(self):
        # a = 8 is tried first and skipped: 4097 = 17 * 241
        assert _next_link(2, 8, _anchor_cap(2)) == LINK_6

    @pytest.mark.parametrize("half", ["mod_p", "mod_p2"])
    def test_order_one_check_skips_anchor(self, monkeypatch, half):
        # plant in the root set of 1297 = 6^4+1 either a non-root (the largest root minus 1) or
        # two roots lifted mod 1297^2, of order >= 2, the smaller not the exempt last solution:
        # anchor 6 fails that half of the order-1 check and the search falls back to anchor 4
        real = prodorders.roots_of_minus_one
        lifts = lifted_roots(2, 1297, 2)

        def planted(n, p):
            roots = real(n, p)
            if (n, p) != (2, 1297):
                return roots
            if half == "mod_p":
                return roots[:-1] + (roots[-1] - 1,)
            return roots[:2] + lifts[:2]

        monkeypatch.setattr(prodorders, "roots_of_minus_one", planted)
        link = _next_link(2, 8, _anchor_cap(2))
        assert link == {"anchor": 4, "p": 257, "next_roots": [64, 193, 253, 261], "cover_hi": 260}

    def test_tampered_link_rejected(self):
        validate_chain_link(2, verify_chain(2).detail["links"][0])
        tampered = LINK_6 | {"next_roots": [216, 1081, 1290, 1303]}
        with pytest.raises(AssertionError):
            validate_chain_link(2, tampered)
        wrong_cover = LINK_6 | {"cover_hi": 1200}
        with pytest.raises(AssertionError):
            validate_chain_link(2, wrong_cover)

    def test_coverage_claim_directly(self):
        # within the covered range the anchored prime's order stays at most 4
        p = verify_chain(2).detail["links"][0]["p"]
        for m in (6, 216, 500, 1081, 1302):
            assert alpha_p(m, 2, p) <= 4
        assert alpha_p(1302, 2, p) == 4

    def test_quartic_chain_report(self):
        rep = verify_chain(2)
        assert rep.passed
        assert rep.detail["covered_through"] == 2873716602918
        assert [l["anchor"] for l in rep.detail["links"]] == [6, 1302]
        assert [s["name"] for s in rep.detail["steps"]] == [
            "tiny_range_ord2",
            "link_anchor_6",
            "link_anchor_1302",
            "asymptotic_handoff",
        ]
        assert rep.detail["covered_through"] > 10**12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_anchor_cap_is_exact(self, n):
        # the largest a whose a^(2^n)+1 is_prime can still decide
        cap = _anchor_cap(n)
        e = 1 << n
        assert cap**e + 1 < 1 << 64 <= (cap + 1) ** e + 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_chain_links_against_oracles(self, n):
        sympy = pytest.importorskip("sympy")
        from sympy.ntheory import nthroot_mod

        rep = verify_chain(n)
        frontier = rep.detail["trivial_through"]
        for link in rep.detail["links"]:
            validate_chain_link(n, link)
            a, p = link["anchor"], link["p"]
            assert sympy.isprime(p)
            roots = sorted(nthroot_mod(p - 1, 1 << n, p, all_roots=True))
            assert roots[0] == a
            assert link["next_roots"] == sorted(r + p if r <= a else r for r in roots)
            assert a <= frontier + 1 and link["cover_hi"] > frontier
            frontier = link["cover_hi"]
        assert rep.detail["covered_through"] == frontier

    @pytest.mark.parametrize("n", range(1, 5))
    def test_links_against_brute_force_orders(self, n):
        # ord_p(P(m, n)) by repeated division over every x <= m, for m up to 3*10^4
        e, top = 1 << n, 3 * 10**4
        for link in verify_chain(n).detail["links"]:
            order = 0
            for x in range(1, min(link["cover_hi"], top) + 1):
                order += ord_in(link["p"], x**e + 1)
                if x >= link["anchor"]:
                    assert 1 <= order <= e, (link["p"], x)

    def test_handoff_needs_the_theorems_range(self, monkeypatch):
        # a chain ending at 5*10^11 passes the crossing (about 4.6e11) but not 10^12
        short = LINK_6 | {"cover_hi": 5 * 10**11}
        found = iter([short])
        monkeypatch.setattr(prodorders, "_next_link", lambda n, frontier, cap: next(found, None))
        rep = verify_chain(2)
        steps = {s["name"]: s for s in rep.detail["steps"]}
        assert not rep.passed
        assert steps["asymptotic_handoff"]["pass"] is False

    def test_one_primality_test_per_candidate(self, monkeypatch):
        calls = []
        real = prodorders.is_prime
        monkeypatch.setattr(prodorders, "is_prime", lambda v: calls.append(v) or real(v))
        verify_chain(3)
        assert calls and len(calls) == len(set(calls))

    def test_links_overlap(self):
        l1, l2 = verify_chain(2).detail["links"]
        assert l2["anchor"] <= l1["cover_hi"]  # joint cover of [6, 2873716602918]


class TestBoundChecks:
    @pytest.mark.parametrize("m,n", [(100, 2), (1000, 2), (100, 3)])
    def test_all_ingredient_bounds_hold(self, m, n):
        rep = bound_checks(m, n)
        assert rep.passed
        kinds = {r["kind"] for r in rep.detail["records"]}
        assert kinds == {"valuation_gap", "large_prime_order", "factorial_floor"}

    def test_margins_reported(self):
        rep = bound_checks(100, 2)
        for r in rep.detail["records"]:
            if r["kind"] == "factorial_floor":
                p = r["p"]
                want = beta_p(100, p) - (99 / (p - 1) - 2 * math.log(100) / math.log(p))
                assert r["margin"] == want

    def test_cap(self):
        with pytest.raises(InfeasibleSizeError):
            bound_checks(10**5, 2)

"""ntcore: primality, root finding, lifting to p^j, interval counting."""

import functools
import random
import time

import numpy as np
import pytest

from fermatprod import ntcore
from fermatprod.errors import (
    FermatprodError,
    InternalRefusalError,
    NotSplittingError,
)
from fermatprod.ntcore import (
    PRIMALITY_LIMIT,
    ROOT_CACHE_SIZE,
    WORD_LIMIT,
    _least_nonresidue,
    count_roots_upto,
    is_prime,
    is_prime_batch,
    lifted_roots,
    roots_of_minus_one,
)
from fermatprod.prodorders import alpha_p
from oracles import hensel_lift_by_newton, segmented_primes


def brute_roots(n, mod):
    """Oracle: scan every residue."""
    e = 1 << n
    return tuple(x for x in range(mod) if pow(x, e, mod) == mod - 1)


def brute_count(n, p, j, m):
    """Oracle: test divisibility of every value up to m."""
    e = 1 << n
    pj = p**j
    return sum(1 for x in range(1, m + 1) if (x**e + 1) % pj == 0)


def trial_division_is_prime(v):
    if v < 2:
        return False
    d = 2
    while d * d <= v:
        if v % d == 0:
            return False
        d += 1
    return True


class TestIsPrime:
    def test_chain_anchor_primes(self):
        assert is_prime(1297)
        assert is_prime(2873716601617)
        assert not is_prime(1)

    def test_agrees_with_trial_division_small(self):
        for v in range(2000):
            assert is_prime(v) == trial_division_is_prime(v), v

    def test_strong_pseudoprime_traps(self):
        # composites that fool small witness sets
        for v in (3215031751, 3825123056546413051, 341550071728321, 318665857834031151167461):
            if v < PRIMALITY_LIMIT:
                assert not is_prime(v), v
        # 48,781 * 97,561, the least strong pseudoprime to the bases 2, 7 and 61,
        # where is_prime switches to the seven bases
        assert ntcore._strong_probable_prime(4759123141, ntcore._MR_BASES_SMALL)
        assert not is_prime(4759123141)
        assert 3215031751 == 151 * 751 * 28351 and 4759123141 == 48781 * 97561
        # Carmichael numbers
        for v in (561, 1105, 1729, 41041, 825265):
            assert not is_prime(v), v

    def test_agrees_with_sympy_across_the_base_switch(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2033)
        switch = ntcore._MR_SMALL_LIMIT
        values = [rng.randrange(1 << 33) for _ in range(20_000)]
        values += range(switch - 10**4, switch + 10**4 + 1)
        for v in values:
            assert is_prime(v) == sympy.isprime(v), v

    def test_large_primes(self):
        assert is_prime((1 << 61) - 1)  # Mersenne
        assert not is_prime((1 << 61) - 3)

    def test_rejects_beyond_64_bits(self):
        with pytest.raises(ValueError):
            is_prime(1 << 64)

    def test_refusal_is_internal_and_still_a_value_error(self):
        assert issubclass(InternalRefusalError, FermatprodError)
        assert issubclass(InternalRefusalError, ValueError)
        with pytest.raises(InternalRefusalError):
            is_prime(PRIMALITY_LIMIT)

    def test_anchor_values(self):
        assert is_prime(6**4 + 1)
        assert is_prime(1302**4 + 1)
        assert not is_prime(8**4 + 1)  # 4097 = 17 * 241


class TestIsPrimeBatch:
    """is_prime_batch against the scalar is_prime and sympy.isprime."""

    @staticmethod
    def agrees(values):
        sympy = pytest.importorskip("sympy")
        got = is_prime_batch(np.array(values, dtype=np.int64))
        assert got.dtype == bool
        assert got.tolist() == [is_prime(v) for v in values]
        assert got.tolist() == [sympy.isprime(v) for v in values]

    def test_random_odd_values_and_primes(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random("is-prime-batch")
        odd = [rng.randrange(3, WORD_LIMIT) | 1 for _ in range(3000)]
        # mostly composite above, so add primes of every size for the full rounds
        primes = [sympy.prevprime(rng.randrange(1 << 20, WORD_LIMIT)) for _ in range(300)]
        primes += [sympy.prevprime(rng.randrange(48, 1 << 32)) for _ in range(100)]
        self.agrees(odd + primes + list(range(300)))

    def test_strong_pseudoprimes(self):
        # each is a strong pseudoprime to base 2 (and to 3, 5, 7 and more),
        # so only the later bases of its witness set expose it
        traps = [3215031751, 2152302898747, 3474749660383, 341550071728321]
        for v in traps:
            assert ntcore._strong_probable_prime(v, (2,)), v
        self.agrees(traps)

    def test_boundaries(self):
        # 4,759,123,141 is where the witness set switches; 2^55 - 1 is the largest input
        switch = ntcore._MR_SMALL_LIMIT
        self.agrees([switch - 2, switch, switch + 2, WORD_LIMIT - 1])
        self.agrees(list(range(switch - 2001, switch + 2001, 2)))

    def test_prime_squares_and_carmichael_numbers(self):
        sympy = pytest.importorskip("sympy")
        squares = [p * p for p in sympy.primerange((1 << 27) - 3000, (1 << 27) + 3000)]
        # Chernick: (6k+1)(12k+1)(18k+1) is a Carmichael number when all three factors are prime
        chernick = [
            (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
            for k in range(1, 30_000)
            if all(is_prime(f * k + 1) for f in (6, 12, 18))
        ]
        assert len(chernick) > 100 and max(chernick) < WORD_LIMIT
        self.agrees(squares + chernick + [561, 1105, 1729, 41041, 825265])

    def test_empty_batch(self):
        got = is_prime_batch(np.zeros(0, dtype=np.int64))
        assert got.shape == (0,) and got.dtype == bool

    @pytest.mark.parametrize("v", [WORD_LIMIT, WORD_LIMIT + 1, PRIMALITY_LIMIT - 59])
    def test_refuses_word_limit_and_above(self, v):
        with pytest.raises(InternalRefusalError, match="2\\^55"):
            is_prime_batch(np.array([3, v], dtype=np.uint64))


class TestRootsOfMinusOne:
    def test_small_cases(self):
        assert roots_of_minus_one(1, 5).roots == (2, 3)
        assert roots_of_minus_one(2, 17).roots == (2, 8, 9, 15)

    def test_chain_prime(self):
        # 1303 from the next-solution list reduces to 6 mod 1297
        assert roots_of_minus_one(2, 1297).roots == (6, 216, 1081, 1291)

    def test_not_splitting(self):
        with pytest.raises(NotSplittingError):
            roots_of_minus_one(2, 5)  # 5 is not 1 mod 8
        with pytest.raises(NotSplittingError):
            roots_of_minus_one(1, 7)  # 7 is 3 mod 4

    def test_brute_force_agreement(self):
        for n in (1, 2, 3, 4):
            step = 1 << (n + 1)
            for p in range(step + 1, 400, step):
                if not is_prime(p):
                    continue
                rs = roots_of_minus_one(n, p)
                assert rs.roots == brute_roots(n, p), (n, p)
                assert len(rs.roots) == 1 << n

    def test_negation_closure(self):
        for n, p in ((1, 13), (2, 97), (3, 113), (2, 1297)):
            rs = roots_of_minus_one(n, p)
            for r in rs.roots:
                assert (p - r) in rs.roots

    def test_composite_modulus_raises(self):
        # each modulus is 1 mod 2^(n+1), and no g <= isqrt(p) + 1 has g^((p-1)/2) = -1
        start = time.perf_counter()
        with pytest.raises(NotSplittingError, match="not prime"):
            roots_of_minus_one(1, 21)
        with pytest.raises(NotSplittingError, match="not prime"):
            alpha_p(10, 1, 9)
        with pytest.raises(NotSplittingError, match="not prime"):
            count_roots_upto(2, 25, 1, 100)
        with pytest.raises(NotSplittingError, match="not prime"):
            _least_nonresidue(21)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("p", [325, 485, 901, 949, 1157])
    def test_composite_with_a_nonresidue_raises(self, p):
        # p = 1 mod 4 has a non-residue up to isqrt(p) + 1, whose powers give
        # two of the roots of x^2 = -1 mod p; 325 has four: 18, 57, 268, 307
        assert not is_prime(p) and _least_nonresidue(p)
        for call in (
            lambda: roots_of_minus_one(1, p),
            lambda: lifted_roots(1, p, 2),
            lambda: count_roots_upto(1, p, 1, 1000),
            lambda: alpha_p(100, 1, p),
        ):
            with pytest.raises(NotSplittingError, match="not prime"):
                call()

    def test_nonresidue_bound_admits_every_prime(self):
        # the least non-residue g of a prime has g(g-1) < p, so the search
        # bound isqrt(p) + 1 never refuses a prime
        for p in segmented_primes(10**6)[1:].tolist():
            g = _least_nonresidue(p)
            assert g * (g - 1) < p and pow(g, (p - 1) // 2, p) == p - 1, p


def first_split_primes(n, count=2):
    step = 1 << (n + 1)
    return [p for p in range(step + 1, 100 * step, step) if is_prime(p)][:count]


def newton_lifts(n, p, j):
    return tuple(sorted(hensel_lift_by_newton(n, p, r, j) for r in roots_of_minus_one(n, p).roots))


class TestHenselLift:
    def test_identity_at_level_one(self):
        assert lifted_roots(2, 17, 1) == roots_of_minus_one(2, 17)

    def test_known_lifts(self):
        assert 155 in lifted_roots(2, 17, 2).roots  # brute: only x < 289 with x^4 = -1, x = 2 mod 17
        assert lifted_roots(1, 5, 2).roots == (7, 18)

    def test_matches_brute_force(self):
        for n in range(1, 7):
            for p in first_split_primes(n):
                for j in range(1, 6):
                    if p**j > 70_000:
                        break
                    assert lifted_roots(n, p, j).roots == brute_roots(n, p**j), (n, p, j)

    def test_lift_consistency(self):
        # against Newton's lifts at every j, and each level reduces to the one below
        for n in range(1, 7):
            for p in first_split_primes(n):
                prev = None
                for j in range(1, 6):
                    got = lifted_roots(n, p, j).roots
                    assert got == newton_lifts(n, p, j), (n, p, j)
                    assert all(pow(r, 1 << n, p**j) == p**j - 1 for r in got)
                    if prev:
                        assert sorted(r % p ** (j - 1) for r in got) == list(prev), (n, p, j)
                    prev = got

    def test_prime_above_2_63(self):
        p = 242**8 + 1  # a link prime of chain 3
        assert p > 1 << 63 and is_prime(p)
        rs = lifted_roots(3, p, 2)
        assert rs.roots == newton_lifts(3, p, 2)
        assert len({r % p for r in rs.roots}) == 8
        assert all(pow(r, 8, p * p) == p * p - 1 for r in rs.roots)

    def test_caches_are_bounded(self):
        for cached in (roots_of_minus_one, lifted_roots):
            assert cached.cache_info().maxsize == ROOT_CACHE_SIZE

    def test_lifted_rootset_shape(self):
        rs = lifted_roots(2, 17, 3)
        assert rs.modulus == 17**3
        assert len(rs.roots) == 4
        for r in rs.roots:
            assert rs.modulus - r in rs.roots  # negation closure survives lifting
        with pytest.raises(ValueError):
            lifted_roots(2, 17, 0)


class TestCountRoots:
    def test_known_counts(self):
        assert count_roots_upto(2, 17, 1, 20) == 5  # x = 2, 8, 9, 15, 19
        assert count_roots_upto(2, 17, 2, 20) == 0  # least root mod 289 is 110

    def test_chain_prime_counts(self):
        # four solutions below 1303; the fifth (1303 = 6 + 1297) arrives at m = 1303
        assert count_roots_upto(2, 1297, 1, 1302) == 4
        assert count_roots_upto(2, 1297, 1, 1303) == 5
        assert brute_count(2, 1297, 1, 1302) == 4

    def test_agrees_with_naive_scan(self):
        for n in (1, 2, 3):
            step = 1 << (n + 1)
            for p in range(step + 1, 120, step):
                if not is_prime(p):
                    continue
                j = 1
                while p**j <= 10**5:
                    for m in (0, 1, p - 1, p, 5 * p + 3, 2000):
                        assert count_roots_upto(n, p, j, m) == brute_count(n, p, j, m), (
                            n,
                            p,
                            j,
                            m,
                        )
                    j += 1

    def test_counting_formula_everywhere(self):
        # every (p, j) with p^j <= 1e5 and every m <= 1e4 at once: a numpy
        # prefix scan of actual divisibility against the closed formula
        import numpy as np

        top_m = 10**4
        xs = np.arange(1, top_m + 1, dtype=np.int64)
        ms = xs
        for n in (1, 2, 3):
            step = 1 << (n + 1)
            for p in range(step + 1, 10**5 + 1, step):
                if not is_prime(p):
                    continue
                j = 1
                while p**j <= 10**5:
                    pj = p**j
                    acc = xs % pj
                    for _ in range(n):
                        acc = acc * acc % pj  # pj^2 < 2^63 keeps this exact
                    naive = np.cumsum(acc == pj - 1)
                    roots = np.array(lifted_roots(n, p, j).roots, dtype=np.int64)
                    formula = (ms // pj) * (1 << n) + np.searchsorted(
                        roots, ms % pj, side="right"
                    )
                    assert (naive == formula).all(), (n, p, j)
                    j += 1

    def test_interval_decomposition(self):
        for n, p, j in ((2, 17, 1), (2, 17, 2), (1, 13, 2)):
            rs = lifted_roots(n, p, j)
            for m in (0, 7, 100, 12345):
                q, t = divmod(m, rs.modulus)
                residual = sum(1 for r in rs.roots if r <= t)
                assert count_roots_upto(n, p, j, m) == q * (1 << n) + residual

    @pytest.mark.long
    def test_full_range_root_counts(self):
        # every split prime below 1e5, every modulus p^j below 1e7, n = 2;
        # oracle scans all residues with exact int64 modular squaring
        import numpy as np

        n = 2
        step = 1 << (n + 1)

        def scan_roots(mod):
            xs = np.arange(mod, dtype=np.int64)
            acc = xs
            for _ in range(n):
                acc = acc * acc % mod  # mod^2 < 2^63, stays exact
            return tuple(int(v) for v in xs[acc == mod - 1])

        for p in range(step + 1, 10**5, step):
            if not is_prime(p):
                continue
            j = 1
            while p**j <= 10**7:
                found = scan_roots(p**j)
                assert len(found) == 1 << n, (p, j)
                assert lifted_roots(n, p, j).roots == found, (p, j)
                j += 1


class TestPropertiesAgainstBruteForce:
    """Hypothesis draws (n, p, j) with p^j <= 30000 and checks the kernels by scanning."""

    @staticmethod
    @functools.cache
    def split_primes(n):
        step = 1 << (n + 1)
        return [p for p in range(step + 1, 30_000, step) if is_prime(p)]

    @classmethod
    def modulus(cls, data, st):
        n = data.draw(st.integers(1, 3), label="n")
        split = cls.split_primes(n)
        top = 1
        while split[0] ** (top + 1) <= 30_000:
            top += 1
        j = data.draw(st.integers(1, top), label="j")
        p = data.draw(st.sampled_from([p for p in split if p**j <= 30_000]), label="p")
        return n, p, j

    def test_lifted_roots(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            n, p, j = self.modulus(data, st)
            assert lifted_roots(n, p, j).roots == brute_roots(n, p**j)

        check()

    def test_count_roots_upto(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            n, p, j = self.modulus(data, st)
            m = data.draw(st.integers(0, 4000), label="m")
            assert count_roots_upto(n, p, j, m) == brute_count(n, p, j, m)

        check()

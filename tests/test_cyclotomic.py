"""cyclotomic: closed-form norms, pigeonhole, the prime bound."""

import random

import pytest

from fermatprod import cyclotomic as cy
from fermatprod.cyclotomic import (
    CongruenceSystem,
    _binomial_norm,
    _split_primes,
    _top_pool,
    check_prime_bound,
    counterexample_search,
    iter_realizable_systems,
    pigeonhole_witness,
    single_entry_search,
)
from fermatprod.errors import HypothesisUnmetError, InvalidSystemError, TooFewRootsError
from fermatprod.ntcore import lifted_roots
from fermatprod.partitions import big_n, r_bound
from oracles import (
    counterexample_by_scan,
    orders_by_scan,
    primitive_roots_integrally_independent,
    realizable_systems_by_filter,
    single_entry_by_scan,
    split_primes_by_trial,
    sylvester_resultant,
)

# (p_limit, x_limit) for the differential tests at every n = 1..5; the last
# is a workload-sized cyclotomic command
SEARCH_LIMITS = ((0, 0), (17, 16), (300, 200), (3000, 2000), (20000, 12000))


def binomial_coeffs(a, b, level, tp):
    """a - b*x^tp reduced mod x^d + 1, d = 2^(level-1), little-endian and trimmed."""
    d = 1 << (level - 1)
    coeffs = [a] + [0] * (d - 1)
    if tp < d:
        coeffs[tp] -= b
    else:
        coeffs[tp - d] += b
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def lift(n, p, r, j):
    """The member of lifted_roots(n, p, j) that is r mod p."""
    (x,) = [x for x in lifted_roots(n, p, j).roots if x % p == r]
    return x


def norm_cases(level, seed):
    """(a, b, t') for every t' in [0, 2^level): random a, b <= 10^6, a = b, b = 0 and a = 0."""
    rng = random.Random(seed)
    for tp in range(1 << level):
        a, b = rng.randint(1, 10**6), rng.randint(1, 10**6)
        for pair in ((a, b), (a, a), (a, 0), (0, b)):
            yield pair + (tp,)


class TestResultant:
    """The Sylvester-determinant oracle that the closed-form norm is checked against."""

    def test_known_values(self):
        assert sylvester_resultant([1, 0, 1], [-3, 1]) == 10  # x^2+1 vs x-3
        assert sylvester_resultant([1, 0, 0, 0, 1], [1, 1, 1]) == 1  # x^4+1 vs x^2+x+1
        assert sylvester_resultant([1, 0, 1], [5]) == 25  # constant
        assert sylvester_resultant([1, 0, 1], [1, 0, 1]) == 0  # common factor

    def test_swap_sign(self):
        # res(f, g) = (-1)^(deg f * deg g) res(g, f)
        f, g = [1, 0, 1], [-3, 1]
        assert sylvester_resultant(g, f) == sylvester_resultant(f, g) == 10
        f, g = [-3, 1], [1, 0, 0, 1]  # deg 1 * deg 3, and x^3+1 at 3 is 28
        assert sylvester_resultant(f, g) == -sylvester_resultant(g, f) == 28

    def test_random_against_sylvester_determinant(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        rng = random.Random(123)
        for _ in range(100):
            dA, dB = rng.randint(1, 7), rng.randint(1, 7)
            A = [rng.randint(-9, 9) for _ in range(dA)] + [rng.choice([-9, -5, -1, 1, 3, 9])]
            B = [rng.randint(-9, 9) for _ in range(dB)] + [rng.choice([-7, -2, 1, 2, 5, 8])]
            want = sympy.resultant(sympy.Poly(A[::-1], x), sympy.Poly(B[::-1], x))
            assert abs(sylvester_resultant(A, B)) == abs(int(want)), (A, B)


class TestNorm:
    def test_known_norms(self):
        assert _binomial_norm(3, -1, 3, 1) == 82  # 3 + zeta_8: 3^4 + 1
        assert _binomial_norm(1, 0, 4, 0) == 1
        assert _binomial_norm(1, 1, 3, 1) == 2  # 1 - zeta_8: the cyclotomic value at 1
        assert _binomial_norm(0, 0, 3, 5) == 0

    def test_value_factorization_identity(self):
        # N(x + zeta_{2^(n+1)}) = x^(2^n) + 1, every x up to 1000 for n <= 4
        for n in (1, 2, 3, 4):
            for x in range(1, 1001):
                assert _binomial_norm(x, -1, n + 1, 1) == x ** (1 << n) + 1, (n, x)

    def test_identity_beyond_crosscheck_window(self):
        # levels 6 and 7, past the levels the Sylvester determinant covers, stay exact
        for n in (5, 6):
            for x in (2, 9, 1000):
                assert _binomial_norm(x, -1, n + 1, 1) == x ** (1 << n) + 1, (n, x)

    def test_norm_of_rational_integer(self):
        for level in (1, 2, 3, 4):
            for tp in range(1 << level):
                assert _binomial_norm(-7, 0, level, tp) == 7 ** (1 << (level - 1))

    def test_positive_at_complex_levels(self):
        # B = a - b*w vanishes only at a = b*w, so its norm is positive otherwise
        rng = random.Random(99)
        for level in (2, 3, 4):
            for tp in range(1 << level):
                for _ in range(10):
                    a, b = rng.randint(-50, 50), rng.randint(-50, 50)
                    w = {0: 1, 1 << (level - 1): -1}.get(tp)
                    assert (_binomial_norm(a, b, level, tp) == 0) == (w is not None and a == b * w)

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_against_sylvester_resultant(self, level):
        d = 1 << (level - 1)
        modulus = [1] + [0] * (d - 1) + [1]
        for a, b, tp in norm_cases(level, seed=level):
            want = abs(sylvester_resultant(modulus, binomial_coeffs(a, b, level, tp)))
            assert _binomial_norm(a, b, level, tp) == want, (level, a, b, tp)

    @pytest.mark.parametrize("level", [6, 7])
    def test_against_sympy_resultant(self, level):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        d = 1 << (level - 1)
        rng = random.Random(level)
        for tp in range(1 << level):
            a, b = rng.randint(1, 10**6), rng.randint(1, 10**6)
            want = abs(int(sympy.resultant(x**d + 1, a - b * x**tp, x)))
            assert _binomial_norm(a, b, level, tp) == want, (level, a, b, tp)


class TestPigeonhole:
    def test_equal_exponents(self):
        w = pigeonhole_witness([1, 3, 1], 0, 2)
        assert (w.u, w.v, w.t) == (1, 3, 0)

    def test_difference_divisible(self):
        w = pigeonhole_witness([1, 3, 5], 0, 2)
        assert (w.u, w.v, w.t) == (1, 3, 4)  # 1 - 5 = -4 = 4 mod 8

    def test_exhaustive_multisets(self):
        # a witness exists for every multiset of r_bound(m, n) odd residues
        from itertools import combinations_with_replacement

        for n in (2, 3, 4):
            odds = list(range(1, 1 << (n + 1), 2))
            for m in range(n):
                need = r_bound(m, n)
                mod = 1 << (n - m)
                for combo in combinations_with_replacement(odds, need):
                    w = pigeonhole_witness(combo, m, n)
                    assert (combo[w.u - 1] - combo[w.v - 1]) % mod == 0
                    assert w.t == (combo[w.u - 1] - combo[w.v - 1]) % (1 << (n + 1))

    def test_too_few(self):
        with pytest.raises(TooFewRootsError):
            pigeonhole_witness([1, 3], 0, 2)  # needs r_bound(0,2) = 3

    def test_validation(self):
        with pytest.raises(ValueError):
            pigeonhole_witness([2, 4, 6], 0, 2)  # even entries
        with pytest.raises(ValueError):
            pigeonhole_witness([1, 3, 5], 2, 2)  # m must stay below n


class TestIndependence:
    def test_primitive_root_bases(self):
        for n in (1, 2, 3, 4):
            for m in range(n):
                assert primitive_roots_integrally_independent(m, n), (m, n)


class TestSystems:
    def test_canonical_ordering(self):
        s = CongruenceSystem.make(2, 17, ((8, 1), (2, 1), (1022, 3)))
        assert s.entries == ((1022, 3), (2, 1), (8, 1))
        assert s.x_max == 1022 and s.total_order == 5

    def test_structural_validation(self):
        with pytest.raises(InvalidSystemError):
            CongruenceSystem(2, 17, ((2, 1), (2, 1)))  # duplicate x
        with pytest.raises(InvalidSystemError):
            CongruenceSystem(2, 16, ((2, 1),))  # even modulus base
        with pytest.raises(InvalidSystemError):
            CongruenceSystem.make(2, 15, ((2, 1),)).validate()  # composite base
        with pytest.raises(InvalidSystemError):
            CongruenceSystem(2, 17, ((2, 1), (8, 2)))  # increasing k

    def test_arithmetic_validation(self):
        good = CongruenceSystem.make(2, 17, ((2, 1),))
        good.validate()
        bad = CongruenceSystem.make(2, 17, ((3, 1),))  # 3^4+1 = 82 = 2*41
        with pytest.raises(InvalidSystemError):
            bad.validate()


class TestPrimeBound:
    def test_norm_branch_example(self):
        x1 = lift(2, 17, 2, 3)
        s = CongruenceSystem.make(2, 17, ((x1, 3), (2, 1), (8, 1)))
        cert = check_prime_bound(s)
        # at m = 0 the norm limit is the bound 2(x + 1) itself
        assert cert.branch == "norm" and cert.m == 0 and cert.r == 3
        assert cert.norm_limit == 2 * (x1 + 1)
        assert cert.norm_value % cert.prime_power == 0
        assert cert.prime_power <= cert.norm_value <= cert.norm_limit

    def test_order_branch_example(self):
        s = CongruenceSystem.make(1, 5, ((7, 2),))
        cert = check_prime_bound(s)
        assert cert.branch == "order"
        assert cert.prime_power == 25 and cert.norm_value == 50

    @pytest.mark.parametrize("entries,tp", [(((2, 1), (7, 1)), 0), (((2, 1), (3, 1)), 1)])
    def test_norm_branch_at_rational_units(self, entries, tp):
        # 7 = 2 (mod 5) shares 2's root class, so w = 1; 3 = -2 is the other, so w = -1
        cert = check_prime_bound(CongruenceSystem.make(1, 5, entries))
        assert (cert.branch, cert.m, cert.t >> 1) == ("norm", 0, tp)
        assert cert.prime_power == cert.norm_value == 5

    def test_hypothesis_required(self):
        s = CongruenceSystem.make(2, 17, ((2, 1), (8, 1)))  # total 2 < 5
        with pytest.raises(HypothesisUnmetError):
            check_prime_bound(s)

    def test_certificate_chain_on_sweep(self):
        checked = 0
        for n in (1, 2):
            for s in iter_realizable_systems(n, 300, 200):
                cert = check_prime_bound(s)
                assert cert.prime_power <= cert.norm_value <= cert.norm_limit
                if cert.branch == "norm":
                    m = cert.m
                    assert cert.norm_limit == (1 << (1 << m)) * (s.x_max + 1) ** (1 << m)
                    assert s.p ** (1 << m) <= cert.norm_limit  # forces p <= 2(x+1)
                checked += 1
        assert checked > 20

    @pytest.mark.parametrize(
        "n,p_limit,x_limit",
        [(n, p, x) for n in (1, 2, 3, 4) for p, x in ((300, 200), (3000, 2000))]
        + [(4, 9168, 5386), (5, 300, 200), (5, 3000, 2000), (2, 20000, 12000), (1, 0, 0)],
    )
    def test_realizable_systems_match_filter_oracle(self, n, p_limit, x_limit):
        got = list(iter_realizable_systems(n, p_limit, x_limit))
        assert got == list(realizable_systems_by_filter(n, p_limit, x_limit))

    def test_realized_sweep_at_level_three(self):
        # small-x pools force many-part partitions, so the certificates all
        # live at m = 0; the chain must still verify for every one
        count = 0
        for s in iter_realizable_systems(3, 400, 3000):
            cert = check_prime_bound(s)
            assert cert.branch == "norm" and cert.m == 0
            assert cert.prime_power <= cert.norm_value <= cert.norm_limit
            count += 1
        assert count > 10

    def test_constructed_systems_cover_all_branches(self):
        # systems built from lifted roots exercise every certificate shape:
        # the direct order branch and norm branches at levels 1..3
        from fermatprod.ntcore import roots_of_minus_one

        n, p = 3, 17
        roots = roots_of_minus_one(n, p).roots

        def lift_entry(idx, j):
            return lift(n, p, roots[idx], j)

        cases = []
        # [8, 3, 1, 1] keeps s below r_bound(0, 3) = 5, so only r=1 with
        # k_1 = 8 >= 2^3 qualifies: the direct order branch
        cases.append(
            (
                ((lift_entry(0, 8), 8), (lift_entry(1, 3), 3), (roots[2], 1), (roots[3], 1)),
                "order",
                3,
            )
        )
        # [8, 8]: r=2, k_2 = 8 >= 2^2, pigeonhole at level 3
        cases.append((((lift_entry(0, 8), 8), (lift_entry(1, 8), 8)), "norm", 2))
        # [4, 4, 4, 4]: r=3 admits m = 1, level-2 norm
        four = tuple((lift_entry(i, 4), 4) for i in range(4))
        cases.append((four, "norm", 1))
        # thirteen order-1 entries: m = 0, rational norm
        ones = tuple((r + p * i, 1) for i in range(2) for r in roots)[:13]
        cases.append((tuple(sorted(ones)), "norm", 0))

        seen = set()
        for entries, branch, m in cases:
            s = CongruenceSystem.make(n, p, entries)
            cert = check_prime_bound(s)
            assert (cert.branch, cert.m) == (branch, m), (entries, cert)
            assert cert.norm_value % cert.prime_power == 0
            assert cert.prime_power <= cert.norm_value <= cert.norm_limit
            seen.add((cert.branch, cert.m))
        assert seen == {("order", 3), ("norm", 2), ("norm", 1), ("norm", 0)}

    def test_search_finds_nothing(self):
        assert counterexample_search(1, 300, 200) is None
        assert counterexample_search(2, 300, 200) is None

    def test_single_entry_search(self):
        assert single_entry_search(1, 2000) is None
        assert single_entry_search(2, 2000) is None

    def test_search_would_report_a_planted_violation(self, monkeypatch):
        # counterexample_search's detector: feed it a fake prime whose
        # restricted-range pool meets the total, via a tiny shim
        monkeypatch.setattr(cy, "_top_pool", lambda n, p, x_limit: [(1, 3), (2, 2)])
        found = cy.counterexample_search(2, 18, 10)
        assert found is not None and found.total_order == big_n(2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("p_limit,x_limit", SEARCH_LIMITS)
    def test_counterexample_search_matches_scan(self, n, p_limit, x_limit):
        assert counterexample_search(n, p_limit, x_limit) == counterexample_by_scan(
            n, p_limit, x_limit
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("x_limit", [0, 1, 300, 2000])
    def test_single_entry_search_matches_unpruned_loop(self, n, x_limit):
        assert single_entry_search(n, x_limit) == single_entry_by_scan(n, x_limit)


class TestPools:
    """The search helpers against the trial-division and full-scan oracles."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_split_primes_match_trial_listing(self, n, monkeypatch):
        def refused(v):
            raise AssertionError("_split_primes ran a primality test")

        monkeypatch.setattr(cy, "is_prime", refused)
        step = 2 << n
        for limit in (0, 1, 2, step, step + 1, 1000, 20000):
            assert _split_primes(n, limit) == split_primes_by_trial(n, limit), limit

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("x_limit", [0, 1, 16, 200, 2000, 12000])
    def test_top_pool_is_the_head_of_the_full_pool(self, n, x_limit):
        # small primes, where x_limit passes p^2 and members of order >= 2 appear
        for p in split_primes_by_trial(n, 1000)[:6]:
            full = sorted(orders_by_scan(n, p, x_limit).items(), key=lambda kv: (-kv[1], kv[0]))
            assert _top_pool(n, p, x_limit) == full[: big_n(n)], (n, p, x_limit)

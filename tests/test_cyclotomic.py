"""cyclotomic: exact ring arithmetic, norms, pigeonhole, the prime bound."""

import random

import pytest

from fermatprod.cyclotomic import (
    CongruenceSystem,
    CycInt,
    _embedding_product,
    _resultant,
    check_prime_bound,
    counterexample_search,
    cyc_add,
    cyc_mul,
    iter_realizable_systems,
    norm,
    pigeonhole_witness,
    primitive_roots_integrally_independent,
    single_entry_search,
)
from fermatprod.errors import (
    HypothesisUnmetError,
    InvalidSystemError,
    LevelMismatchError,
    TooFewRootsError,
)
from fermatprod.ntcore import hensel_lift
from fermatprod.partitions import big_n, r_bound
from oracles import realizable_systems_by_filter


def zeta(level, e=1):
    return CycInt.zeta_power(level, e)


def const(level, c):
    return CycInt.constant(level, c)


class TestRing:
    def test_difference_of_squares(self):
        a = const(3, 1) + zeta(3)
        b = const(3, 1) - zeta(3)
        assert (a * b).coeffs == (1, 0, -1, 0)  # 1 - zeta^2

    def test_zeta_powers_wrap_with_sign(self):
        assert (zeta(3, 1) * zeta(3, 3)).coeffs == (-1, 0, 0, 0)  # zeta8^4 = -1
        assert zeta(3, 9).coeffs == zeta(3, 1).coeffs  # order 8

    def test_additive_identity_component(self):
        assert (const(3, 3) + zeta(3) - 3).coeffs == (0, 1, 0, 0)

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatchError):
            cyc_add(const(2, 1), const(3, 1))
        with pytest.raises(LevelMismatchError):
            cyc_mul(const(2, 1), const(3, 1))

    def test_level_one_is_integers(self):
        # zeta_2 = -1, so the ring is Z and zeta_power folds to a sign
        assert zeta(1, 1).coeffs == (-1,)
        assert (const(1, 3) * const(1, 5)).coeffs == (15,)

    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for level in (2, 3, 4, 5):
            d = 1 << (level - 1)
            for _ in range(20):
                a = CycInt(level, tuple(rng.randint(-9, 9) for _ in range(d)))
                b = CycInt(level, tuple(rng.randint(-9, 9) for _ in range(d)))
                c = CycInt(level, tuple(rng.randint(-9, 9) for _ in range(d)))
                assert (a * b).coeffs == (b * a).coeffs
                assert ((a + b) * c).coeffs == (a * c + b * c).coeffs
                assert ((a * b) * c).coeffs == (a * (b * c)).coeffs


def sylvester_resultant(A, B):
    """Oracle: determinant of the Sylvester matrix, exact over Q."""
    from fractions import Fraction

    m, n = len(A) - 1, len(B) - 1
    if m == 0 and n == 0:
        return 1
    size = m + n
    ra, rb = list(reversed(A)), list(reversed(B))
    rows = [[0] * i + ra + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + rb + [0] * (size - n - 1 - i) for i in range(m)]
    mat = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        pivot = next((i for i in range(col, size) if mat[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = mat[col][col]
        for i in range(col + 1, size):
            if mat[i][col]:
                f = mat[i][col] / inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    assert det.denominator == 1
    return int(det)


class TestResultant:
    def test_known_values(self):
        assert _resultant([1, 0, 1], [-3, 1]) == 10  # x^2+1 vs x-3
        assert _resultant([1, 0, 0, 0, 1], [1, 1, 1]) == 1  # x^4+1 vs x^2+x+1
        assert _resultant([1, 0, 1], [5]) == 25  # constant
        assert _resultant([1, 0, 1], [1, 0, 1]) == 0  # common factor

    def test_swap_sign(self):
        # res(f, g) = (-1)^(deg f * deg g) res(g, f)
        f, g = [1, 0, 1], [-3, 1]
        assert _resultant(g, f) == (-1) ** (2 * 1) * _resultant(f, g)
        f, g = [2, 1, 1], [-1, 1]  # deg 2 * deg 1
        assert _resultant(f, g) == _resultant(g, f) * (-1) ** 2

    def test_random_against_sylvester_determinant(self):
        rng = random.Random(123)
        for _ in range(250):
            dA, dB = rng.randint(0, 7), rng.randint(0, 7)
            A = [rng.randint(-9, 9) for _ in range(dA)] + [rng.choice([-9, -5, -1, 1, 3, 9])]
            B = [rng.randint(-9, 9) for _ in range(dB)] + [rng.choice([-7, -2, 1, 2, 5, 8])]
            assert _resultant(A, B) == sylvester_resultant(A, B), (A, B)


class TestNorm:
    def test_known_norms(self):
        assert norm(const(3, 3) + zeta(3)) == 82  # 3^4 + 1
        assert norm(const(4, 1)) == 1
        assert norm(const(3, 1) - zeta(3)) == 2  # cyclotomic value at 1
        assert norm(const(3, 0)) == 0

    def test_value_factorization_identity(self):
        # norm(x + zeta_{2^(n+1)}) = x^(2^n) + 1, every x up to 1000
        for n in (1, 2, 3, 4):
            level = n + 1
            for x in range(1, 1001):
                assert norm(const(level, x) + zeta(level)) == x ** (1 << n) + 1, (n, x)

    def test_norm_of_rational_integer(self):
        for level in (1, 2, 3, 4):
            d = 1 << (level - 1)
            assert norm(const(level, -7)) == (-7) ** d

    def test_multiplicativity_random(self):
        rng = random.Random(20240811)
        for level in (2, 3, 4, 5):
            d = 1 << (level - 1)
            for _ in range(25):
                a = CycInt(level, tuple(rng.randint(-10, 10) for _ in range(d)))
                b = CycInt(level, tuple(rng.randint(-10, 10) for _ in range(d)))
                assert norm(a * b) == norm(a) * norm(b)

    def test_positive_at_complex_levels(self):
        rng = random.Random(99)
        for level in (2, 3, 4):
            d = 1 << (level - 1)
            for _ in range(30):
                a = CycInt(level, tuple(rng.randint(-50, 50) for _ in range(d)))
                if not a.is_zero():
                    assert norm(a) > 0

    def test_embedding_crosscheck_window(self):
        rng = random.Random(5)
        for level in (2, 3, 4, 5):
            d = 1 << (level - 1)
            for _ in range(10):
                a = CycInt(level, tuple(rng.randint(-(10**6), 10**6) for _ in range(d)))
                exact = norm(a)  # raises ArithmeticError on cross-check failure
                approx = abs(_embedding_product(a))
                if exact:
                    assert abs(approx - abs(exact)) <= 1e-6 * abs(exact)

    def test_galois_invariance(self):
        # conjugating by zeta -> zeta^3 fixes the norm
        a = const(4, 2) + zeta(4, 1) + 3 * zeta(4, 2)
        conj = const(4, 2) + zeta(4, 3) + 3 * zeta(4, 6)
        assert norm(a) == norm(conj)

    def test_identity_beyond_crosscheck_window(self):
        # levels 6 and 7 skip the embedding comparison but stay exact
        for n in (5, 6):
            level = n + 1
            for x in (2, 9):
                assert norm(const(level, x) + zeta(level)) == x ** (1 << n) + 1


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
        x1 = hensel_lift(2, 17, 2, 3)
        s = CongruenceSystem.make(2, 17, ((x1, 3), (2, 1), (8, 1)))
        rep = check_prime_bound(s)
        assert rep.holds and rep.p == 17 and rep.bound == 2 * (x1 + 1)
        cert = rep.certificate
        assert cert.branch == "norm" and cert.m == 0 and cert.r == 3
        assert cert.norm_value % cert.prime_power == 0
        assert cert.prime_power <= cert.norm_value <= cert.norm_limit

    def test_order_branch_example(self):
        s = CongruenceSystem.make(1, 5, ((7, 2),))
        rep = check_prime_bound(s)
        assert rep.holds and rep.certificate.branch == "order"
        assert rep.certificate.prime_power == 25 and rep.certificate.norm_value == 50

    def test_hypothesis_required(self):
        s = CongruenceSystem.make(2, 17, ((2, 1), (8, 1)))  # total 2 < 5
        with pytest.raises(HypothesisUnmetError):
            check_prime_bound(s)

    def test_certificate_chain_on_sweep(self):
        checked = 0
        for n in (1, 2):
            for s in iter_realizable_systems(n, 300, 200):
                rep = check_prime_bound(s)
                cert = rep.certificate
                assert rep.holds
                assert cert.prime_power <= cert.norm_value <= cert.norm_limit
                if cert.branch == "norm":
                    m = cert.m
                    assert cert.norm_limit == (1 << (1 << m)) * (s.x_max + 1) ** (1 << m)
                    assert s.p ** (1 << m) <= cert.norm_limit  # forces p <= 2(x+1)
                checked += 1
        assert checked > 20

    @pytest.mark.parametrize(
        "n,p_limit,x_limit",
        [(n, p, x) for n in (1, 2, 3, 4) for p, x in ((300, 200), (3000, 2000))] + [(4, 9168, 5386)],
    )
    def test_realizable_systems_match_filter_oracle(self, n, p_limit, x_limit):
        got = list(iter_realizable_systems(n, p_limit, x_limit))
        assert got == list(realizable_systems_by_filter(n, p_limit, x_limit))

    def test_realized_sweep_at_level_three(self):
        # small-x pools force many-part partitions, so the certificates all
        # live at m = 0; the chain must still verify for every one
        count = 0
        for s in iter_realizable_systems(3, 400, 3000):
            rep = check_prime_bound(s)
            cert = rep.certificate
            assert rep.holds and cert.branch == "norm" and cert.m == 0
            assert cert.prime_power <= cert.norm_value <= cert.norm_limit
            count += 1
        assert count > 10

    def test_constructed_systems_cover_all_branches(self):
        # systems built from Hensel lifts exercise every certificate shape:
        # the direct order branch and norm branches at levels 1..3
        from fermatprod.ntcore import roots_of_minus_one

        n, p = 3, 17
        roots = roots_of_minus_one(n, p).roots

        def lift_entry(idx, j):
            return hensel_lift(n, p, roots[idx], j)

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
            rep = check_prime_bound(s)
            cert = rep.certificate
            assert rep.holds, entries
            assert (cert.branch, cert.m) == (branch, m), (entries, cert)
            assert cert.norm_value % cert.prime_power == 0
            assert cert.prime_power <= cert.norm_value <= cert.norm_limit
            seen.add((cert.branch, cert.m))
        assert seen == {("order", 3), ("norm", 2), ("norm", 1), ("norm", 0)}

    def test_search_finds_nothing(self):
        assert counterexample_search(1, 300, 200) is None
        assert counterexample_search(2, 300, 200) is None
        assert counterexample_search(2, 300, 200, trials=5, seed=3) is None

    def test_single_entry_search(self):
        assert single_entry_search(1, 2000) is None
        assert single_entry_search(2, 2000) is None

    def test_search_would_report_a_planted_violation(self):
        # counterexample_search's detector: feed it a fake prime whose
        # restricted-range capacity meets the total, via a tiny shim
        from fermatprod import cyclotomic as cy

        real = cy._orders_up_to
        try:
            cy._orders_up_to = lambda n, p, x_limit: {1: 3, 2: 2}
            found = cy.counterexample_search(2, 18, 10)
            assert found is not None and found.total_order == big_n(2)
        finally:
            cy._orders_up_to = real

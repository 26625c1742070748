"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; every stated tolerance and runtime cap is asserted here.
"""

import math
import time

import pytest

from fermatprod import prodorders
from fermatprod.analytic import (
    check_sampled_bound,
    final_inequality_crossing,
    final_inequality_margin,
    get_sieve,
    primes_upto,
)
from fermatprod.cyclotomic import (
    check_prime_bound,
    counterexample_search,
    iter_realizable_systems,
    single_entry_search,
)
from fermatprod.ntcore import is_prime
from fermatprod.partitions import big_n, extreme_partition, verify_minimality
from fermatprod.prodorders import (
    alpha_p,
    alpha_two,
    build_valuation_table,
    is_qth_power_obstructed,
    verify_chain,
)
from oracles import minimality_by_enumeration, product_value


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_chain_link_anchor_6():
    start = time.perf_counter()
    link = verify_chain(2).detail["links"][0]
    elapsed = time.perf_counter() - start
    roots = link["next_roots"]
    ok = (
        link["anchor"] == 6
        and link["p"] == 1297
        and is_prime(link["p"])
        and roots == [216, 1081, 1291, 1303]
        and all((x**4 + 1) % 1297 == 0 and ((x**4 + 1) // 1297) % 1297 for x in roots)
        and link["cover_hi"] == 1302
        and elapsed < 1.0
    )
    report(1, ok, f"link(6,2): p=1297, roots {roots}, cover 1302, {elapsed:.3f}s")


def test_criterion_02_chain_link_anchor_1302():
    start = time.perf_counter()
    link = verify_chain(2).detail["links"][1]
    elapsed = time.perf_counter() - start
    expected = [2207155608, 2871509446009, 2873716600315, 2873716602919]
    ok = (
        link["anchor"] == 1302
        and link["p"] == 2873716601617
        and is_prime(link["p"])
        and link["next_roots"] == expected
        and link["cover_hi"] == 2873716602918
        and link["cover_hi"] > 10**12
        and elapsed < 1.0
    )
    report(2, ok, f"link(1302,2): p={link['p']}, cover {link['cover_hi']} > 1e12, {elapsed:.3f}s")


def test_criterion_03_square_base_case():
    table = build_valuation_table(3, 1)
    product = math.prod(p**a for p, a in table.alpha.items())
    ok = table.alpha == {2: 2, 5: 2} and product == 100 and not is_qth_power_obstructed(table, 2)
    report(3, ok, f"P(3,1) = {product} = 10^2, unobstructed for q=2")


def test_criterion_04_partition_closed_forms():
    expected = {
        1: (1, 1),
        2: (3, 1, 1),
        3: (7, 3, 1, 1, 1),
        4: (15, 7, 3, 3, 1, 1, 1, 1, 1),
        5: (31, 15, 7, 7, 3, 3, 3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    }
    totals = {1: 2, 2: 5, 3: 13, 4: 33, 5: 81}
    ok = all(
        extreme_partition(n) == expected[n] and big_n(n) == totals[n]
        for n in range(1, 6)
    )
    report(4, ok, f"extreme partitions verbatim for n=1..5, totals {list(totals.values())}")


def test_criterion_05_minimality_by_enumeration():
    start = time.perf_counter()
    results = {n: (verify_minimality(n), minimality_by_enumeration(n)) for n in (2, 3, 4)}
    elapsed = time.perf_counter() - start
    ok = all(r == (True, True) for r in results.values()) and elapsed < 10.0
    report(5, ok, f"closed-form minimality agrees with enumeration for n=2,3,4 (7/101/10143 partitions), {elapsed:.2f}s")


@pytest.mark.long
def test_criterion_05_minimality_by_enumeration_n5():
    start = time.perf_counter()
    ok = verify_minimality(5) and minimality_by_enumeration(5)
    elapsed = time.perf_counter() - start
    report(5, ok, f"closed-form minimality agrees with enumeration for n=5 (1.8e7 partitions), {elapsed:.1f}s")


def test_criterion_06_valuation_oracle_equivalence():
    start = time.perf_counter()
    m_top = 500
    allp = [int(p) for p in primes_upto(2 * (m_top + 1)).tolist()]
    mismatches = 0
    for n in (1, 2, 3):
        e = 1 << n
        acc: dict[int, int] = {}
        for m in range(1, m_top + 1):
            v = m**e + 1
            for p in allp:
                if v == 1 or p * p > v:
                    break
                o = 0
                while v % p == 0:
                    v //= p
                    o += 1
                if o:
                    acc[p] = acc.get(p, 0) + o
            if 1 < v <= allp[-1]:
                acc[v] = acc.get(v, 0) + 1
            bound = 2 * (m + 1)
            for p in allp:
                if p > bound:
                    break
                got = alpha_two(m, n) if p == 2 else alpha_p(m, n, p)
                if got != acc.get(p, 0):
                    mismatches += 1
        # anchor: repeated division of the full product at m = m_top
        prod = product_value(m_top, n)
        for p in allp:
            if p > 2 * (m_top + 1):
                break
            o = 0
            while prod % p == 0:
                prod //= p
                o += 1
            if o != acc.get(p, 0):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    report(6, ok, f"alpha_p = repeated division for m<=500, n<=3; {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_07_quartic_order_bound_at_desk_scale():
    start = time.perf_counter()
    # the engine's primes of x^4+1, x by x; hist[o] counts the primes of order o in P(m, 2)
    state = prodorders._factorizations(2, 10**4)
    primes, offsets = state.primes.tolist(), state.offsets.tolist()
    alpha: dict[int, int] = {}
    hist: dict[int, int] = {}
    worst = 0
    for m in range(1, 10**4 + 1):
        for p in primes[offsets[m - 1] : offsets[m]]:
            old = alpha.get(p, 0)
            alpha[p] = old + 1
            if old:
                hist[old] -= 1
                if not hist[old]:
                    del hist[old]
            hist[old + 1] = hist.get(old + 1, 0) + 1
        worst = max(worst, min(hist))
    elapsed = time.perf_counter() - start
    ok = worst <= 4
    report(7, ok, f"min order over m=1..10^4 never exceeds {worst} (<= 4), {elapsed:.1f}s")


def test_criterion_08_adversarial_prime_bound_search():
    start = time.perf_counter()
    certified = 0
    violation = None
    for n in (1, 2, 3, 4):
        found = counterexample_search(n, 1000, 500)
        if found is not None:
            violation = found
        for system in iter_realizable_systems(n, 1000, 500):
            cert = check_prime_bound(system)
            assert cert.norm_value % cert.prime_power == 0
            assert cert.prime_power <= cert.norm_value <= cert.norm_limit
            certified += 1
    single = single_entry_search(2, 10**4)
    elapsed = time.perf_counter() - start
    ok = violation is None and single is None and certified > 0
    report(8, ok, f"no counterexample (p<=1000, x<=500); {certified} certificates verified, {elapsed:.1f}s")


def test_criterion_09_analytic_spot_checks():
    start = time.perf_counter()
    sieve = get_sieve(10**7)
    pi_rep = check_sampled_bound("pi", (10**6, 10**7), sieve, 2, 1)
    pi_exact = pi_rep.detail["records"][0]["lhs"] == 78498
    bt_ok = all(check_sampled_bound("bt", None, sieve, n, 1).passed for n in (2, 3))
    logsum_ok = True
    theta_ok = True
    for a in (1, 3, 5, 7):
        rep = check_sampled_bound("logsum", (10**6,), sieve, 2, a)
        logsum_ok = logsum_ok and rep.passed and rep.detail["records"][0]["margin"] > 1e-9
        theta_ok = theta_ok and check_sampled_bound("theta", (10**6, 10**7), sieve, 2, a).passed
    elapsed = time.perf_counter() - start
    ok = pi_rep.passed and pi_exact and bt_ok and logsum_ok and theta_ok and elapsed < 30.0
    report(9, ok, f"pi/bt/logsum/theta all hold at 1e6..1e7, {elapsed:.1f}s")


def test_criterion_10_final_inequality():
    lhs, rhs = final_inequality_margin(10**12, 2)
    contradiction = lhs > rhs
    crossing = final_inequality_crossing(2)
    limit_ok = True
    for n in (2, 3):
        _, rhs_large = final_inequality_margin(10**15, n)
        limit_ok = limit_ok and abs(rhs_large - (math.log(2) / 2 ** (n + 1) + 10.2)) < 1e-6
    ok = contradiction and crossing <= 10**12 and limit_ok
    report(10, ok, f"lhs {lhs:.4f} > rhs {rhs:.4f} at m=1e12; crossing {crossing} <= 1e12")

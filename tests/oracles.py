"""Brute-force oracles the package no longer runs, kept to check its closed forms."""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from fermatprod.cyclotomic import CongruenceSystem
from fermatprod.ntcore import count_roots_upto, is_prime
from fermatprod.partitions import big_n, enumerate_partitions, extreme_partition, r_bound

SEGMENT_SIZE = 1 << 20


def segmented_primes(limit: int, segment_size: int = SEGMENT_SIZE) -> np.ndarray:
    """Odd-only segmented sieve; independent of analytic.primes_upto.

    Base primes come from its own bytearray sieve, segments of the given size
    are processed one at a time, so memory stays O(sqrt(limit) + segment).
    """
    if limit < 2:
        return np.array([], dtype=np.int64)
    base_limit = isqrt(limit)
    base = bytearray([1]) * (base_limit + 1)
    base[0:2] = b"\x00\x00"
    for p in range(2, isqrt(base_limit) + 1):
        if base[p]:
            base[p * p :: p] = b"\x00" * len(range(p * p, base_limit + 1, p))
    base_primes = [p for p in range(3, base_limit + 1, 2) if base[p]]

    out = [2] if limit >= 2 else []
    low = 3
    while low <= limit:
        high = min(low + 2 * segment_size, limit + 1)  # exclusive, odd span
        count = (high - low + 1) // 2
        mask = bytearray([1]) * count
        for p in base_primes:
            start = max(p * p, ((low + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start >= high:
                continue
            first = (start - low) // 2
            mask[first::p] = b"\x00" * len(range(first, count, p))
        out.extend(low + 2 * i for i in range(count) if mask[i])
        low = high
    return np.array(out, dtype=np.int64)


def _prefix(primes: np.ndarray, x: int) -> np.ndarray:
    return primes[: np.searchsorted(primes, x, side="right")]


def pi_ap_by_reduction(x: int, q: int, a: int, primes: np.ndarray) -> int:
    """pi(x; q, a) by reducing every prime <= x modulo q."""
    ps = _prefix(primes, x)
    return int(np.count_nonzero(ps % q == a % q))


def theta_ap_by_fsum(x: int, q: int, a: int, primes: np.ndarray) -> float:
    """theta(x; q, a) by reducing every prime <= x and math.fsum of the logs."""
    ps = _prefix(primes, x)
    sel = ps[ps % q == a % q]
    return math.fsum(np.log(sel.astype(np.float64)).tolist())


def logsum_by_fsum(a: int, x: int, primes: np.ndarray) -> float:
    """Sum of ln p / p over primes p <= x, p = a (mod 8), by math.fsum."""
    ps = _prefix(primes, x)
    sel = ps[ps % 8 == a].astype(np.float64)
    return math.fsum((np.log(sel) / sel).tolist())


def _satisfies_by_blocks(parts, thresholds) -> bool:
    """The existential condition, checked once per block of equal bit length.

    Within a block the threshold is constant, so only the block's last
    (largest) index matters.
    """
    i, length = 0, len(parts)
    while i < length:
        b = parts[i].bit_length()
        j = i + 1
        while j < length and parts[j].bit_length() == b:
            j += 1
        if j >= thresholds[b]:
            return True
        i = j
    return False


@lru_cache(maxsize=None)
def minimality_by_enumeration(n: int) -> bool:
    """big_n(n) is the least forcing total, by listing every partition of it.

    True iff every partition of big_n(n) satisfies the condition and the
    extreme partition without its last part, a partition of big_n(n) - 1,
    does not.  n = 5 lists 1.8e7 partitions, so results are cached.
    """
    total = big_n(n)
    thresholds = [0] + [r_bound(b - 1, n) for b in range(1, total.bit_length() + 1)]
    if not all(_satisfies_by_blocks(p, thresholds) for p in enumerate_partitions(total)):
        return False
    return not _satisfies_by_blocks(extreme_partition(n)[:-1], thresholds)


def is_prime_by_trial(v: int) -> bool:
    """Primality by trial division up to isqrt(v)."""
    if v < 2:
        return False
    return all(v % d for d in range(2, isqrt(v) + 1))


def split_primes_by_trial(n: int, limit: int) -> list[int]:
    """Primes p <= limit with p = 1 (mod 2^(n+1)), ascending, by trial division."""
    step = 2 << n
    return [p for p in range(step + 1, limit + 1, step) if is_prime_by_trial(p)]


def hensel_lift_by_newton(n: int, p: int, r: int, j: int) -> int:
    """The root mod p^j of x^(2^n)+1 above its root r mod p, by Newton steps.

    Precision doubles each step; valid because the derivative
    2^n * r^(2^n - 1) is a unit mod p for odd p.
    """
    e = 1 << n
    if pow(r, e, p) != p - 1:
        raise ValueError(f"{r} is not a root of x^(2^{n})+1 mod {p}")
    s, k = r % p, 1
    while k < j:
        k = min(2 * k, j)
        mod = p**k
        fs = (pow(s, e, mod) + 1) % mod
        ds = e * pow(s, e - 1, mod) % mod
        s = (s - fs * pow(ds, -1, mod)) % mod
    return s


def alpha_p_by_vmax(m: int, n: int, p: int) -> int:
    """alpha_p's sum of root counts, its j bounded by forming vmax = m^(2^n)+1 itself."""
    if (p - 1) % (1 << (n + 1)):
        return 0
    vmax = m ** (1 << n) + 1
    total, j, pj = 0, 1, p
    while pj <= vmax:
        c = count_roots_upto(n, p, j, m)
        if c == 0:
            break
        total += c
        j += 1
        pj *= p
    return total


def orders_by_scan(n: int, p: int, x_limit: int) -> dict[int, int]:
    """ord_p(x^(2^n)+1) for every x in [1, x_limit] it divides, scanning every x.

    x^(2^n) mod p comes from n squarings of the whole range at once (int64,
    so p < 2^31); each hit's order is then found by exact division.
    """
    assert p < 1 << 31
    xs = np.arange(1, max(x_limit, 0) + 1, dtype=np.int64)
    pw = xs % p
    for _ in range(n):
        pw = pw * pw % p
    orders = {}
    for x in (xs[pw == p - 1]).tolist():
        v, o = x ** (1 << n) + 1, 0
        while v % p == 0:
            v //= p
            o += 1
        orders[x] = o
    return orders


def _sorted_pool(n: int, p: int, x_limit: int) -> list[tuple[int, int]]:
    """Every (x, order) of orders_by_scan, by order descending, then x."""
    return sorted(orders_by_scan(n, p, x_limit).items(), key=lambda kv: (-kv[1], kv[0]))


def _partitions_within(total: int, largest: int, most: int):
    """Partitions of total into at most `most` parts of at most `largest`, reverse lexicographic."""
    if total == 0:
        yield ()
        return
    if total > largest * most:
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions_within(total - first, first, most - 1):
            yield (first,) + rest


def realizable_systems_by_filter(n: int, p_limit: int, x_limit: int):
    """iter_realizable_systems as list-then-filter over each prime's whole pool.

    The listing is cut only by what no pool can hold, more parts than the
    pool has or a part above its largest order; the filter does the rest.
    """
    total = big_n(n)
    for p in split_primes_by_trial(n, p_limit):
        pool = _sorted_pool(n, p, x_limit)
        if not pool:
            continue
        caps = [o for _, o in pool]
        for ks in _partitions_within(total, caps[0], len(pool)):
            if any(caps[i] < ks[i] for i in range(len(ks))):
                continue
            yield CongruenceSystem.make(
                n, p, tuple((pool[i][0], ks[i]) for i in range(len(ks)))
            )


def counterexample_by_scan(n: int, p_limit: int, x_limit: int) -> CongruenceSystem | None:
    """counterexample_search over each prime's whole pool below (p - 2) / 2."""
    total = big_n(n)
    for p in split_primes_by_trial(n, p_limit):
        pool = _sorted_pool(n, p, min(x_limit, (p - 3) // 2))
        if sum(o for _, o in pool) < total:
            continue
        entries, remaining = [], total
        for x, o in pool:
            entries.append((x, min(o, remaining)))
            remaining -= entries[-1][1]
            if not remaining:
                return CongruenceSystem.make(n, p, tuple(entries))
    return None


def single_entry_by_scan(n: int, x_limit: int) -> CongruenceSystem | None:
    """single_entry_search over every x <= x_limit, its prime bound by sympy.integer_nthroot."""
    from sympy import integer_nthroot

    total, e = big_n(n), 1 << n
    primes = split_primes_by_trial(n, integer_nthroot(max(x_limit, 0) ** e + 1, total)[0])
    for x in range(1, x_limit + 1):
        v = x**e + 1
        b = integer_nthroot(v, total)[0]
        for p in primes:
            if p > b:
                break
            if v % p**total == 0 and p > 2 * (x + 1):
                return CongruenceSystem.make(n, p, ((x, total),))
    return None


def factorizations_by_sympy(n: int, lo: int, m: int) -> list[Counter]:
    """The prime factorization of x^(2^n)+1 for each x in [lo, m], by sympy.factorint."""
    from sympy import factorint

    e = 1 << n
    return [Counter(factorint(x**e + 1)) for x in range(lo, m + 1)]


def product_value(m: int, n: int) -> int:
    """The exact big integer P(m, n) = prod_{x <= m} (x^(2^n) + 1)."""
    e = 1 << n
    return math.prod(x**e + 1 for x in range(1, m + 1))


def sylvester_resultant(A, B):
    """Oracle: determinant of the Sylvester matrix, exact over Q."""
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


def primitive_roots_integrally_independent(m: int, n: int) -> bool:
    """No nonzero Z[zeta_{2^(m+1)}]-combination of zeta_{2^(n+1)}^(2j-1), j <= 2^(n-m-1), vanishes.

    The 2^(n-m-1) roots scaled by the 2^m-dimensional coefficient ring span a
    rank-2^(n-1) sublattice of Z[zeta_{2^(n+1)}]; independence is checked by
    exact column rank over Q.
    """
    if not 0 <= m < n:
        raise ValueError(f"need 0 <= m < n, got m={m}, n={n}")
    dn = 1 << n
    count = 1 << (n - m - 1)
    shift = 1 << (n - m)
    cols = []
    for j in range(1, count + 1):
        base = 2 * j - 1
        for i in range(1 << m):
            e = (base + i * shift) % (1 << (n + 1))
            vec = [0] * dn
            if e < dn:
                vec[e] = 1
            else:
                vec[e - dn] = -1
            cols.append(vec)
    rows = [[Fraction(col[i]) for col in cols] for i in range(dn)]
    rank = 0
    for col in range(len(cols)):
        pivot = next((i for i in range(rank, dn) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [c / inv for c in rows[rank]]
        for i in range(dn):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank == len(cols)


def validate_chain_link(n: int, link: dict) -> None:
    """Re-verify a level-n chain link dict from its fields alone; raises AssertionError."""
    a, p, nxt = link["anchor"], link["p"], link["next_roots"]
    assert a >= 2 and a % 2 == 0, f"anchor {a} has wrong parity"
    e = 1 << n
    assert p == a**e + 1 and is_prime(p), f"{p} is not the anchor's prime"
    assert len(nxt) == e, f"expected {e} next roots, got {len(nxt)}"
    top = max(nxt)
    for x in nxt:
        assert a < x <= a + p, f"{x} is not the next member of its class"
        v = x**e + 1
        assert v % p == 0, f"{p} does not divide {x}^(2^{n})+1"
        assert x == top or (v // p) % p, f"ord of {x}^(2^{n})+1 at {p} is not 1"
    assert len({x % p for x in nxt}) == e, "next roots do not cover distinct residue classes"
    assert link["cover_hi"] == top - 1, "cover_hi does not match the largest next root"

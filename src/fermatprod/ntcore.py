"""Modular arithmetic kernels: primality, the 2^n-th roots of -1 mod p and mod p^j.

Every primality test of the package lives here: is_prime below 2^64,
is_prime_batch for a whole int64 array of values below WORD_LIMIT = 2^55 at
once, and is_probable_prime (Baillie-PSW above 2^64) for cofactors and root
moduli.  is_prime and is_prime_batch run the same trial division and the
same Miller-Rabin witness sets, so they give the same verdicts.

The scalar functions operate on plain Python integers, so results stay
exact at any size; CPython's native pow() provides the fast path below
machine word sizes and switches to arbitrary precision transparently.  The
array kernel _mulmod multiplies int64 lanes modulo v < 2^55 exactly; the
batched primality test and prodorders' lockstep Pollard-Brent walks both run
on it.  All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import InternalRefusalError, NotSplittingError

# Strong-pseudoprime witness set covering every composite below 2^64
# (Sinclair's seven bases, checked against the Feitsma-Galway SPRP tables).
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
# Below 4,759,123,141, the least strong pseudoprime to them all, the bases 2,
# 7 and 61 suffice (Jaeschke, Math. Comp. 61, 1993); most p the root tables
# vet lie there.
_MR_BASES_SMALL = (2, 7, 61)
_MR_SMALL_LIMIT = 4_759_123_141
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

PRIMALITY_LIMIT = 1 << 64
# _mulmod, and so everything built on it, is exact for moduli below this
WORD_LIMIT = 1 << 55

# Entries kept by each root cache.  One pass of the orders benchmark fills
# 4,747 and 9,596 entries, so the bound costs it no hits, and a long-lived
# process keeps a bounded number of root tuples.
ROOT_CACHE_SIZE = 1 << 15


@dataclass(frozen=True)
class RootSet:
    """All canonical solutions of x^(2^n) = -1 (mod modulus), modulus = p^j.

    Roots are sorted ascending, lie in [0, modulus), and come in negated
    pairs r, modulus - r.  There are exactly 2^n of them.
    """

    n: int
    modulus: int
    roots: tuple[int, ...]


def _strong_probable_prime(v: int, bases: tuple[int, ...]) -> bool:
    """One strong probable-prime round per base, for odd v > 2; bases = 0 mod v are skipped."""
    d = v - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        a %= v
        if a == 0:
            continue
        x = pow(a, d, v)
        if x == 1 or x == v - 1:
            continue
        for _ in range(s - 1):
            x = x * x % v
            if x == v - 1:
                break
        else:
            return False
    return True


def is_prime(v: int) -> bool:
    """Deterministic primality for 0 <= v < 2^64.

    Trial division by the primes up to 47, then strong probable-prime rounds
    to Jaeschke's three bases below 4,759,123,141 and to Sinclair's seven
    from there up.  Inputs at or above 2^64 are refused with InternalRefusalError rather
    than answered probabilistically; is_probable_prime covers them where a
    probable prime will do.
    """
    if v >= PRIMALITY_LIMIT:
        raise InternalRefusalError(f"is_prime is deterministic only below 2^64, got {v}")
    if v < 2:
        return False
    for p in _SMALL_PRIMES:
        if v % p == 0:
            return v == p
    return _strong_probable_prime(v, _MR_BASES_SMALL if v < _MR_SMALL_LIMIT else _MR_BASES_64)


def _mulmod(a: np.ndarray, b: np.ndarray, v: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """a*b mod v lane by lane (int64), given inv = 1.0/v; exact for v < 2^55 and |a|, |b| < v + 2^20.

    The float quotient a*inv*b, truncated, is within 22 of floor(a*b/v), so
    the exact a*b - q*v lies within 23v < 2^60 of zero, and wrapping int64
    arithmetic, exact mod 2^64, yields it exactly.  The float only estimates;
    the final % v decides.
    """
    return (a * b - (a * inv * b).astype(np.int64) * v) % v


def _strong_probable_primes(v: np.ndarray, a) -> np.ndarray:
    """_strong_probable_prime(v, (a,)) lane by lane, for odd int64 v with 2 < v < WORD_LIMIT.

    a is one base for every lane or an int64 array of one base per lane.
    """
    inv = 1.0 / v
    minus_one = v - 1
    low = minus_one & -minus_one
    s = np.frexp(low)[1] - 1  # v - 1 = d * 2^s, d odd; exact, as low is a power of two
    d = minus_one // low
    base = a % v
    x = np.ones_like(v)
    for bit in range(int(d.max(initial=0)).bit_length()):
        x = np.where((d >> bit) & 1 != 0, _mulmod(x, base, v, inv), x)
        base = _mulmod(base, base, v, inv)
    passed = (a % v == 0) | (x == 1) | (x == minus_one)
    for r in range(1, int(s.max(initial=0))):
        x = _mulmod(x, x, v, inv)
        passed |= (x == minus_one) & (r < s)
    return passed


def is_prime_batch(vs) -> np.ndarray:
    """is_prime of every value of an integer array below WORD_LIMIT = 2^55, as one bool array.

    The same test as is_prime, run on all values at once: trial division by
    the primes up to 47, then strong probable-prime rounds on int64 lanes
    through _mulmod.  Base 2, first in both witness sets, runs on every lane
    left.  The rest of each survivor's set, Jaeschke's 7 and 61 below
    4,759,123,141 and Sinclair's other six from there up, then run as one
    batch of (lane, base) rounds, as most survivors of base 2 are prime and
    pass every round anyway.  Values of WORD_LIMIT and more are refused with
    InternalRefusalError, where _mulmod would no longer be exact.
    """
    v = np.asarray(vs)
    if v.size and v.max() >= WORD_LIMIT:
        raise InternalRefusalError(f"is_prime_batch is exact only below 2^55, got {v.max()}")
    v = v.astype(np.int64)
    prime = np.zeros(v.shape, dtype=bool)
    todo = v >= 2
    for p in _SMALL_PRIMES:
        hit = todo & (v % p == 0)
        prime |= hit & (v == p)
        todo &= ~hit
    lanes = np.flatnonzero(todo)
    lanes = lanes[_strong_probable_primes(v[lanes], _MR_BASES_SMALL[0])]
    small = v[lanes] < _MR_SMALL_LIMIT
    groups = ((lanes[small], _MR_BASES_SMALL[1:]), (lanes[~small], _MR_BASES_64[1:]))
    lane_of = np.concatenate([np.repeat(group, len(bases)) for group, bases in groups])
    base = np.concatenate([np.tile(np.array(bases), len(group)) for group, bases in groups])
    prime[lanes] = True
    prime[lane_of[~_strong_probable_primes(v[lane_of], base)]] = False
    return prime


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(v: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters, for odd v."""
    r = isqrt(v)
    if r * r == v:
        return False
    D = 5
    while True:
        j = _jacobi(D, v)
        if j == 0:
            return abs(D) == v
        if j == -1:
            break
        D = -(D + 2) if D > 0 else -(D - 2)
    P, Q = 1, (1 - D) // 4
    d = v + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    U, V, Qk = 1, P, Q % v
    for bit in bin(d)[3:]:
        U = U * V % v
        V = (V * V - 2 * Qk) % v
        Qk = Qk * Qk % v
        if bit == "1":
            U, V = P * U + V, D * U + P * V
            if U & 1:
                U += v
            if V & 1:
                V += v
            U, V = U // 2 % v, V // 2 % v
            Qk = Qk * Q % v
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % v
        if V == 0:
            return True
        Qk = Qk * Qk % v
    return False


def is_probable_prime(v: int) -> bool:
    """Primality by is_prime below 2^64, by the Baillie-PSW test above.

    Baillie-PSW (a strong base-2 round plus a strong Lucas test with
    Selfridge's parameters) is a probable-prime test, not a proof: no
    composite passing it is known, and none exists below 2^64.  It vets the
    p of roots_of_minus_one and splits cofactors of x^(2^n)+1 (prodorders),
    whose primes are also checked to lie in the admissible residue class.
    """
    if v < PRIMALITY_LIMIT:
        return is_prime(v)
    if any(v % p == 0 for p in _SMALL_PRIMES):
        return False
    return _strong_probable_prime(v, (2,)) and _strong_lucas(v)


def _least_nonresidue(p: int) -> int:
    """Smallest quadratic non-residue modulo the odd prime p.

    It is at most isqrt(p) + 1.  For the least non-residue g, m = ceil(p/g)
    is a non-residue too, since g*m - p is a positive residue below g; so
    g <= m < p/g + 1, that is g(g-1) < p.  A p with no non-residue up to
    that bound is not prime, and NotSplittingError says so.
    """
    half = (p - 1) >> 1
    bound = isqrt(p) + 1
    for g in range(2, bound + 1):
        if pow(g, half, p) == p - 1:
            return g
    raise NotSplittingError(f"{p} is not prime: it has no quadratic non-residue up to {bound}")


def odd_powers(z, n: int, mod):
    """[z, z^3, ..., z^(2^(n+1)-1)] reduced mod `mod`: the 2^n odd powers of z.

    For z of order 2^(n+1) these are all the roots of x^(2^n) = -1.  The
    same code runs on Python ints and elementwise on int64 arrays, where it
    is exact while mod^2 < 2^63.
    """
    z2 = z * z % mod
    powers = [z]
    for _ in range((1 << n) - 1):
        powers.append(powers[-1] * z2 % mod)
    return powers


@lru_cache(maxsize=ROOT_CACHE_SIZE)
def roots_of_minus_one(n: int, p: int) -> RootSet:
    """All 2^n residues r with r^(2^n) = -1 (mod p), ascending.

    p must be an odd prime with p = 1 (mod 2^(n+1)), else NotSplittingError
    is raised: the congruence has no solutions, or, for a composite p, more
    than the construction finds.  The construction is deterministic: the
    smallest quadratic non-residue g gives the primitive 2^(n+1)-th root of
    unity z = g^((p-1)/2^(n+1)), and the roots are the odd powers of z.
    """
    if n < 1:
        raise ValueError(f"exponent level must be >= 1, got {n}")
    if p <= 2 or (p - 1) % (1 << (n + 1)):
        raise NotSplittingError(
            f"x^(2^{n}) = -1 has no roots mod {p}: {p} is not 1 mod {1 << (n + 1)}"
        )
    if not is_probable_prime(p):
        raise NotSplittingError(f"roots of x^(2^{n}) = -1 are made mod a prime only: {p} is not prime")
    z = pow(_least_nonresidue(p), (p - 1) >> (n + 1), p)
    return RootSet(n=n, modulus=p, roots=tuple(sorted(odd_powers(z, n, p))))


@lru_cache(maxsize=ROOT_CACHE_SIZE)
def lifted_roots(n: int, p: int, j: int) -> RootSet:
    """RootSet of x^(2^n) = -1 modulo p^j, for j >= 1.

    For j >= 2 the roots are the odd powers of the Teichmueller lift
    Z = w^(p^(j-1)) mod p^j of w, the least root mod p.  Z = w (mod p),
    because w^p = w (mod p), and Z^(p-1) = 1 (mod p^j), because the units
    mod p^j form a group of order p^(j-1)*(p-1).  So Z has w's order
    2^(n+1), Z^(2^n) = -1, and its 2^n odd powers are roots that differ
    already mod p.  The derivative 2^n*x^(2^n-1) is a unit mod p, so by
    Hensel's lemma each of the 2^n roots mod p lifts to exactly one root
    mod p^j: these are all of them.
    """
    if j < 1:
        raise ValueError(f"target exponent must be >= 1, got {j}")
    base = roots_of_minus_one(n, p)
    if j == 1:
        return base
    mod = p**j
    z = pow(base.roots[0], p ** (j - 1), mod)
    return RootSet(n=n, modulus=mod, roots=tuple(sorted(odd_powers(z, n, mod))))


def count_roots_upto(n: int, p: int, j: int, m: int) -> int:
    """#{x : 1 <= x <= m, p^j divides x^(2^n)+1}, by interval counting.

    Each block of p^j consecutive integers contains exactly 2^n solutions,
    so the count is floor(m / p^j) * 2^n plus the roots in the partial block;
    no value x^(2^n)+1 is ever formed or scanned.
    """
    if m < 0:
        raise ValueError(f"scan bound must be >= 0, got {m}")
    rs = lifted_roots(n, p, j)
    q, t = divmod(m, rs.modulus)
    return q * len(rs.roots) + bisect_right(rs.roots, t)

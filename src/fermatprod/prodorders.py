"""Exact p-adic valuations of P(m, n) = prod_{x <= m} (x^(2^n) + 1).

alpha_p comes from root counting in residue classes (never from scanning
values).  Valuation tables read one incremental factorization engine per
level n, which holds the prime factorization of x^(2^n)+1 for every
x <= m_done.  A query past m_done factors only the new x, on one
strip-and-split path over numpy arrays.  The new values, halved at odd x,
are one array: int64 while m^(2^n)+1 < 2^63, Python ints (dtype object)
past that.  2 and every split prime p <= B = max(m, min(isqrt(m^(2^n)+1),
2^20)) are divided out through the root classes of p: each class member is
checked to be divisible by p, all members are divided at once by
np.floor_divide.at, and higher powers of p go in further rounds.  B depends
on m alone, so the order of the queries does not change how far a value is
stripped.
Each residual prime is certified in one of three ways: by size, when it
lies below (B+1)^2 (it has no prime factor <= B); by deterministic
Miller-Rabin below 2^64, the odd residuals below 2^55 of an extension in one
batch (ntcore.is_prime_batch) when there are at least 32 of them and one at
a time (ntcore.is_prime) otherwise; or by Baillie-PSW above 2^64
(ntcore.is_probable_prime).  The composite residuals of an extension are
split together, round by round.  Below 2^55, a batch of at least 32 runs as
lockstep int64 Brent walks, one per numpy lane, on ntcore's _mulmod kernel:
each modular product takes its quotient from a floating-point estimate and
its remainder from wrapping int64 arithmetic, exact below 2^55.  The float
decides no factor: every divisor is a gcd with v, checked by exact division
on Python integers, so an estimate can cost time but never yield a wrong
factor.  Larger residuals, smaller batches and composites the batch leaves
open go to Pollard-Brent rho on Python integers.  A query at or below
m_done aggregates the stored prefix.  Every query checks its exponent sum
for each split p <= m against alpha_p; sizes past TABLE_CAP or
VALUE_BITS_CAP are refused before any factoring.  A chain link is a plain
dict from one search routine: an anchored prime p = a^(2^n)+1 whose next
roots each pass a single mod-p^2 check of order exactly 1, so that
ord_p(P(m, n)) <= 2^n across a verified interval of m; verify_chain joins
links greedily up to the theorem's max(10^12, 4^(n+1)).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

from .analytic import final_inequality_crossing, primes_upto
from .check import Check
from .errors import InfeasibleSizeError, InternalRefusalError
from .ntcore import (
    PRIMALITY_LIMIT,
    WORD_LIMIT,
    _mulmod,
    count_roots_upto,
    is_prime,
    is_prime_batch,
    is_probable_prime,
    odd_powers,
    roots_of_minus_one,
)

TABLE_CAP = 100_000
# the largest (m-1).bit_length() * 2^n, about the bits of m^(2^n), that a table takes;
# m = 3000, n = 3 sits at it
VALUE_BITS_CAP = 96
BOUND_CHECK_CAP = 10_000


def alpha_two(m: int, n: int) -> int:
    """ord_2 of P(m, n): exactly ceil(m / 2).

    Odd x give x^(2^n) = 1 (mod 8), so x^(2^n)+1 is 2 times an odd number;
    even x contribute nothing.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    return (m + 1) // 2


def alpha_p(m: int, n: int, p: int) -> int:
    """Exact ord_p of P(m, n) for an odd prime p, whose primality the caller vouches for.

    Zero unless p = 1 (mod 2^(n+1)); otherwise the sum over j of the root
    counts #{x <= m : p^j | x^(2^n)+1}, with j running while p^j stays at or
    below m^(2^n)+1.  Only parity is checked here, as every caller passes
    sieved or split primes and a primality test per call would repeat on
    each of them: a composite p outside that class, or past m^(2^n)+1, gets
    0, and one that reaches the root count raises NotSplittingError.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"odd p required, whose primality the caller vouches for, got {p}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
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


def beta_p(m: int, p: int) -> int:
    """Legendre valuation of m! at p: sum of floor(m / p^j)."""
    if m < 1 or p < 2:
        raise ValueError(f"need m >= 1 and p >= 2, got m={m}, p={p}")
    total, pj = 0, p
    while pj <= m:
        total += m // pj
        pj *= p
    return total


# --- cofactor splitting -------------------------------------------------------


def _rho_brent(v: int, k: int) -> int:
    """Nontrivial factor of composite odd v: Brent's cycle search on y -> y^k + c.

    k = 2 is Pollard's polynomial.  The odd prime factors of x^(2^n)+1 are
    all 1 mod 2^(n+1), and for them k = 2^(n+1) shortens the cycles (Brent
    and Pollard, "Factorization of the eighth Fermat number", Math. Comp.
    1981).  The constant c sweeps 1, 2, ... until v splits.  Iterates are
    not reduced after "+ c" and differences keep their sign: either changes
    a value only by a multiple of v or in sign, which no gcd with v sees.
    """
    if v % 2 == 0:
        return 2
    c = 1
    while True:
        y, m_, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = pow(y, k, v) + c
            j = 0
            while j < r and g == 1:
                ys = y
                for _ in range(min(m_, r - j)):
                    y = pow(y, k, v) + c
                    q = q * (x - y) % v
                g = gcd(q, v)
                j += m_
            r <<= 1
        if g == v:
            g = 1
            while g == 1:
                ys = pow(ys, k, v) + c
                g = gcd(x - ys, v)
        if g != v:
            return g
        c += 1


# Word-size composites are split in one batch: _LANES int64 Brent walks run
# in lockstep, one per numpy lane, and each lane takes gcd(q, v) once every
# _GCD_BLOCK steps.  A block costs the same for any batch (about 4 ms at
# k = 8), so a batch pays off only from _MIN_BATCH composites on: at 32 it
# ties with _rho_brent per composite, at 128 it takes 0.9 ms against 1.5 ms.
# Residuals of at least WORD_LIMIT, smaller batches, and any composite the
# batch leaves open after _STEP_BUDGET steps or _COLLAPSE_LIMIT collapsed
# walks go to _rho_brent.
_LANES = 512
_MIN_BATCH = 32
_GCD_BLOCK = 64
_STEP_BUDGET = 1 << 15
_COLLAPSE_LIMIT = 8
# Word-size residuals are proved prime by one ntcore.is_prime_batch call
# when there are at least _MIN_PRIME_BATCH of them.  A batch costs about
# 1.5 ms whatever its size, where is_prime takes about 55 us per residual
# of an n = 2 extension (80% of them prime): at 32 residuals the two tie,
# at 128 the batch takes 2.8 ms against 7.1 ms.
_MIN_PRIME_BATCH = 32


def _walk_lanes(vs: list[int], k: int) -> list[int]:
    """A divisor 1 < d < v of each odd composite v < WORD_LIMIT in vs, or 0 where none was found.

    Each lane runs Brent's cycle search on y -> y^k + c (k a power of two,
    applied as repeated squaring), accumulating q = q*(x - y) mod v, with x
    reset to y at every power-of-two step count; the sign of x - y, like the
    unreduced "+ c", is invisible to gcd(q, v).  Lanes are assigned between
    gcd blocks, so each lane's step count is a multiple of _GCD_BLOCK at the
    start of a block.  A free lane takes a fresh walk (start 2, constant c
    one past the composite's last) on the open composite with the fewest
    walks: every open composite gets a lane, and once fewer composites than
    lanes remain the spare lanes race further walks on them.  A lane whose
    gcd is v (both factors met in one block) is dropped; a composite whose
    walks collapse _COLLAPSE_LIMIT times, or that is still open after
    _STEP_BUDGET steps, is left at 0.
    """
    squarings = k.bit_length() - 1
    idle = len(vs)  # a free lane points here: a closed slot with v = 1
    comp = np.array(vs + [1], dtype=np.int64)
    is_open = np.arange(idle + 1) < idle
    walks = np.zeros(idle + 1, dtype=np.int64)
    collapses = [0] * idle
    found = [0] * idle
    owner = np.full(_LANES, idle)
    v = np.ones(_LANES, dtype=np.int64)
    inv = np.ones(_LANES)
    c, x, y, q, t = (np.zeros(_LANES, dtype=np.int64) for _ in range(5))
    for _ in range(0, _STEP_BUDGET, _GCD_BLOCK):
        live = np.flatnonzero(is_open)
        if not live.size:
            break
        lanes = np.flatnonzero(~is_open[owner])
        if lanes.size:
            order = live[np.argsort(walks[live], kind="stable")]
            rank, pos = np.divmod(np.arange(lanes.size), live.size)
            target = order[pos]
            owner[lanes] = target
            c[lanes] = walks[target] + rank + 1
            walks += np.bincount(target, minlength=idle + 1)
            v[lanes] = comp[target]
            inv[lanes] = 1.0 / v[lanes]
            x[lanes] = y[lanes] = 2
            q[lanes] = 1
            t[lanes] = 0
        fresh = t == 0
        at_end = ((t + _GCD_BLOCK) & (t + _GCD_BLOCK - 1)) == 0
        for s in range(1, _GCD_BLOCK + 1):
            for _ in range(squarings):
                y = _mulmod(y, y, v, inv)
            y += c
            q = _mulmod(q, x - y, v, inv)
            # within a block a step count t + s is a power of two only for
            # t = 0 or at s = _GCD_BLOCK
            if s == _GCD_BLOCK:
                np.copyto(x, y, where=at_end)
            elif s & (s - 1) == 0:
                np.copyto(x, y, where=fresh)
        t += _GCD_BLOCK
        g = np.gcd(q, v)
        hits = np.flatnonzero(g > 1)
        for lane, i, d in zip(hits.tolist(), owner[hits].tolist(), g[hits].tolist()):
            if not is_open[i]:
                continue  # another lane closed it in this block
            if d < vs[i]:
                found[i] = d
                is_open[i] = False
            else:
                collapses[i] += 1
                is_open[i] = collapses[i] < _COLLAPSE_LIMIT
                owner[lane] = idle
    return found


def _split_composites(vs: list[int], k: int) -> list[int]:
    """A proper divisor of each composite in vs, every one checked by exact division.

    The odd composites below WORD_LIMIT, when there are at least
    _MIN_BATCH of them, are split together by _walk_lanes; the rest, and
    those it leaves open, by _rho_brent(., k).  A divisor that is not in
    (1, v) or leaves a remainder raises ArithmeticError.
    """
    word = [i for i, v in enumerate(vs) if v < WORD_LIMIT and v & 1]
    ds = [0] * len(vs)
    if len(word) >= _MIN_BATCH:
        for i, d in zip(word, _walk_lanes([vs[i] for i in word], k)):
            ds[i] = d
    for i, v in enumerate(vs):
        d = ds[i] or _rho_brent(v, k)
        if not 1 < d < v or v % d:
            raise ArithmeticError(f"splitter returned {d}, not a proper divisor of {v}")
        ds[i] = d
    return ds


def _prime_mask(vs: np.ndarray) -> np.ndarray:
    """Primality of each value of vs, every one at least 2, as a bool array.

    The odd values below WORD_LIMIT, when there are at least
    _MIN_PRIME_BATCH of them, go to one ntcore.is_prime_batch call; the
    rest to is_probable_prime one at a time.
    """
    prime = np.zeros(len(vs), dtype=bool)
    word = (vs < WORD_LIMIT) & (vs % 2 == 1)
    if np.count_nonzero(word) >= _MIN_PRIME_BATCH:
        prime[word] = is_prime_batch(vs[word].astype(np.int64))
    else:
        word[:] = False
    rest = np.flatnonzero(~word)
    prime[rest] = [is_probable_prime(v) for v in vs[rest].tolist()]
    return prime


def _factor_residuals(vs: np.ndarray, k: int, proven: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (i, p) with one entry for every prime p of vs[i] and every power of p dividing it.

    vs holds int64 or Python ints (dtype object), and the primes come back
    as int64 or dtype object too.  Parts below `proven` are recorded as prime with
    no test: the caller vouches that every divisor of a residual in
    (1, proven) is prime, as 4 does for any v.  Larger parts go through
    _prime_mask, squares are split by isqrt, and each round's remaining
    composites are split together by _split_composites(., k), whose parts
    make the next round.
    """
    index = np.arange(len(vs))
    found_i, found_p = [index[:0]], [index[:0]]
    while len(vs):
        big = vs >= proven
        prime = ~big & (vs > 1)
        prime[big] = _prime_mask(vs[big])
        found_i.append(index[prime])
        found_p.append(vs[prime])
        rest = big & ~prime
        parts, composite = [], []
        for i, v in zip(index[rest].tolist(), vs[rest].tolist()):
            r = isqrt(v)
            if r * r == v:
                parts += ((i, r), (i, r))
            else:
                composite.append((i, v))
        if composite:
            for (i, v), d in zip(composite, _split_composites([v for _, v in composite], k)):
                parts += ((i, d), (i, v // d))
        index = np.array([i for i, _ in parts], dtype=np.int64)
        vals = [v for _, v in parts]
        vs = np.array(vals, dtype=object if max(vals, default=0) >= _INT64_LIMIT else np.int64)
    return np.concatenate(found_i), np.concatenate(found_p)


@dataclass(frozen=True, eq=True)
class ValuationTable:
    """Nonzero map p -> ord_p(P(m, n)), ascending in p; the product of p^alpha_p is P(m, n)."""

    m: int
    n: int
    alpha: dict[int, int]


# --- split-prime root table --------------------------------------------------
#
# Stripping needs, for every prime p <= B with p = 1 (mod 2^(n+1)), the 2^n
# roots of x^(2^n) = -1 (mod p).  They are built for all such p at once by
# vectorised int64 modular exponentiation, exact while p < 2^31 (every
# product stays below 2^62), and every row is verified before it is used.

_ROOT_TABLE_START = 1 << 10
ROOT_TABLE_CAP = 1 << 20


class _RootTable(NamedTuple):
    """Split primes up to limit, ascending, and per row their 2^n roots."""

    limit: int
    primes: np.ndarray
    roots: np.ndarray


_root_tables: dict[int, _RootTable] = {}
_root_tables_lock = threading.Lock()


def _powmod_array(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base^exp mod mod, exact for mod < 2^31."""
    result = np.ones_like(mod)
    base = base % mod
    while exp.any():
        odd = (exp & 1).astype(bool)
        result = np.where(odd, result * base % mod, result)
        base = base * base % mod
        exp = exp >> 1
    return result


def _split_roots(n: int, primes: np.ndarray) -> np.ndarray:
    """Rows of the 2^n roots of x^(2^n) = -1 mod p, for split primes p < 2^31.

    The construction of ntcore.roots_of_minus_one, vectorised: for the least
    g with g^((p-1)/2) = -1, z = g^((p-1)/2^(n+1)) is a primitive
    2^(n+1)-th root of unity, so its 2^n odd powers are distinct and are all
    the roots.  The search for g stops with ArithmeticError past
    ntcore._least_nonresidue's bound isqrt(p) + 1 for the largest p.  Every
    entry is checked to satisfy r^(2^n) = -1 (mod p), and the entries of a
    row to be distinct, so that the strip meets each x once per prime.
    """
    col = primes[:, None]
    z = np.zeros_like(primes)
    todo = np.arange(len(primes))
    expo = (primes - 1) >> (n + 1)
    bound = isqrt(int(primes.max(initial=0))) + 1
    # the least non-residue is prime, as a product of residues is a residue,
    # and 2 is a residue mod every p = 1 (mod 8)
    for g in (g for g in primes_upto(bound).tolist() if n == 1 or g > 2):
        if not todo.size:
            break
        p = primes[todo]
        c = _powmod_array(np.full_like(p, g), expo[todo], p)
        t = c
        for _ in range(n):
            t = t * t % p
        hit = t == p - 1  # c^(2^n) = g^((p-1)/2) = -1: g is a non-residue
        z[todo[hit]] = c[hit]
        todo = todo[~hit]
    if todo.size:
        raise ArithmeticError(f"{todo.size} split primes have no non-residue up to {bound}")
    roots = np.stack(odd_powers(z, n, primes), axis=1)
    check = roots
    for _ in range(n):
        check = check * check % col
    if not (check == col - 1).all() or not np.diff(np.sort(roots, axis=1), axis=1).all():
        raise ArithmeticError(f"root table for n={n} failed verification")
    return roots


def _root_table(n: int, limit: int) -> _RootTable:
    """The level-n root table, covering at least every split prime <= limit.

    One table is kept per n and grown by doubling up to ROOT_TABLE_CAP,
    where the three levels 1..3 take about 1.3 MB together.  A published
    table is never mutated: growth builds a new one from the old rows plus
    the rows of the new primes.
    """
    if limit > ROOT_TABLE_CAP:
        raise InternalRefusalError(f"root tables reach {ROOT_TABLE_CAP}, got {limit}")
    table = _root_tables.get(n)
    if table is not None and table.limit >= limit:
        return table
    with _root_tables_lock:
        table = _root_tables.get(n)
        if table is not None and table.limit >= limit:
            return table
        old = table.limit if table is not None else 0
        new = max(old, _ROOT_TABLE_START)
        while new < limit:
            new *= 2
        primes = primes_upto(new)
        # int64: _split_roots squares residues mod p, which would wrap in the store's uint32
        primes = primes[(primes > old) & (primes % (1 << (n + 1)) == 1)].astype(np.int64)
        # computed in int64, stored in int32: every entry is below the cap
        roots = _split_roots(n, primes).astype(np.int32)
        primes = primes.astype(np.int32)
        if table is not None:
            primes = np.concatenate((table.primes, primes))
            roots = np.concatenate((table.roots, roots))
        primes.flags.writeable = False
        roots.flags.writeable = False
        table = _RootTable(new, primes, roots)
        _root_tables[n] = table
        return table


# --- incremental factorization engine -------------------------------------------
#
# One engine per level n holds the complete factorization of x^(2^n)+1 for
# every x <= m_done, and every table at level n reads it.
# A query past m_done strips and splits only the new values; a query at or
# below m_done aggregates the stored prefix.


class _Factorizations(NamedTuple):
    """The primes of x^(2^n)+1 for x = 1..m_done, with multiplicity, ordered by x.

    The primes of x^(2^n)+1 are primes[offsets[x-1]:offsets[x]].  primes is
    int64 while every stored prime is below 2^63, and holds Python ints
    (dtype object) from then on.
    """

    m_done: int
    primes: np.ndarray
    offsets: np.ndarray


_NO_FACTORIZATIONS = _Factorizations(0, np.zeros(0, np.int64), np.zeros(1, np.int64))
_INT64_LIMIT = 1 << 63
_engines: dict[int, _Factorizations] = {}
_engine_locks: dict[int, threading.Lock] = {}


def reset_engines() -> None:
    """Empty every level's engine and release its memory; later queries start cold."""
    _engines.clear()


def _strip_and_split(n: int, lo: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Factor x^(2^n)+1 for lo <= x <= m: (primes ordered by x, count per x).

    The values, halved at odd x, are held in one array: int64 while
    m^(2^n)+1 < 2^63, dtype object past that.  Every odd prime factor of
    x^(2^n)+1 is 1 mod 2^(n+1).  Each split prime p <= B meets the x of its
    root classes mod p: every such value is checked to be divisible by p
    (ArithmeticError if not) and divided by it with np.floor_divide.at, and
    further powers of p are divided out in repeated rounds over the hits
    that p still divides.  A residual then has no prime factor <= B, so one
    below (B+1)^2 is prime with no test; _factor_residuals proves or splits
    the larger ones, all of them together.  Every residual prime must exceed
    B and be 1 mod 2^(n+1); anything else raises ArithmeticError.
    """
    e = 1 << n
    step = e << 1
    # B >= m brings every prime that alpha_p values into the strip; B at
    # isqrt(m^(2^n)+1) would leave only prime residuals, and the cap keeps
    # the root table small.  B depends on m alone, so each extension is
    # stripped as far as a query for its m would strip it.
    bound = max(m, min(isqrt(m**e + 1), ROOT_TABLE_CAP))
    proven = (bound + 1) ** 2
    table = _root_table(n, bound)
    rows = int(np.searchsorted(table.primes, bound, side="right"))
    roots = table.roots[:rows].astype(np.int64)
    primes = np.broadcast_to(table.primes[:rows, None].astype(np.int64), roots.shape)
    first = roots + (lo - roots + primes - 1) // primes * primes  # least x >= lo per class
    live = first <= m
    first, primes = first[live], primes[live]
    hits = (m - first) // primes + 1  # members of each root class in [lo, m]
    rank = np.arange(int(hits.sum())) - np.repeat(np.cumsum(hits) - hits, hits)
    class_p = np.repeat(primes, hits)
    class_x = np.repeat(first, hits) + class_p * rank
    xs = np.arange(lo, m + 1, dtype=np.int64)
    vals = (xs if m**e + 1 < _INT64_LIMIT else xs.astype(object)) ** e + 1
    vals >>= xs & 1
    at, ps = class_x - lo, class_p
    bad = np.flatnonzero(vals[at] % ps)
    if bad.size:
        x, p = int(class_x[bad[0]]), int(ps[bad[0]])
        raise ArithmeticError(f"{p} does not divide {x}^(2^{n})+1")
    # the root classes give one power of p at each x they meet; each round
    # divides out one more power where p still divides
    more_x, more_p = [], []
    while at.size:
        np.floor_divide.at(vals, at, ps)
        again = vals[at] % ps == 0
        at, ps = at[again], ps[again]
        more_x.append(at + lo)
        more_p.append(ps)
    res_i, res_p = _factor_residuals(vals, step, proven)
    bad = np.flatnonzero((res_p <= bound) | ((res_p - 1) % step != 0))
    if bad.size:
        raise ArithmeticError(f"cofactor splitter produced inadmissible prime {res_p[bad[0]]}")
    twos = np.arange(lo | 1, m + 1, 2)
    dtype = object if res_p.size and res_p.max() >= _INT64_LIMIT else np.int64
    xs = np.concatenate((twos, class_x, *more_x, res_i + lo))
    ps = np.concatenate((np.full(len(twos), 2), class_p, *more_p, res_p)).astype(dtype)
    return ps[np.argsort(xs, kind="stable")], np.bincount(xs - lo, minlength=m - lo + 1)


def _factorizations(n: int, m: int) -> _Factorizations:
    """The level-n engine's state, first extended to m if it stops short of m.

    An extension strips exactly the x in (m_done, m] and is published as a
    new snapshot under the level's lock; a snapshot is never mutated, so
    readers take no lock.
    """
    state = _engines.get(n)
    if state is not None and state.m_done >= m:
        return state
    with _engine_locks.setdefault(n, threading.Lock()):
        state = _engines.get(n, _NO_FACTORIZATIONS)
        if state.m_done >= m:
            return state
        primes, counts = _strip_and_split(n, state.m_done + 1, m)
        old = state.primes
        if old.dtype != primes.dtype:
            old, primes = old.astype(object), primes.astype(object)
        primes = np.concatenate((old, primes))
        offsets = np.concatenate((state.offsets, state.offsets[-1] + np.cumsum(counts)))
        primes.flags.writeable = False
        offsets.flags.writeable = False
        state = _Factorizations(m, primes, offsets)
        _engines[n] = state
        return state


def build_valuation_table(m: int, n: int) -> ValuationTable:
    """Complete exact valuation table of P(m, n), ascending in p, for m up to 100000.

    Read from the level-n engine: residual primes are certified by the size
    bound below (B+1)^2, by deterministic Miller-Rabin below 2^64 (batched
    over an extension's word-size residuals), or by BPSW above 2^64.  For every split prime p <= m the count must equal alpha_p
    from root counting; a disagreement raises ArithmeticError.  Sizes with
    (m-1).bit_length() * 2^n > VALUE_BITS_CAP are refused: past it a residual
    can be too large to split, such as 2^(2^16)+1 at m = 2, n = 16.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if m > TABLE_CAP:
        raise InfeasibleSizeError(f"table building supported for m <= {TABLE_CAP}, got {m}")
    # bits * 2^n > VALUE_BITS_CAP, tested without forming 2^n; m = 1 counts as one bit
    bits = max(m - 1, 1).bit_length()
    if n >= (VALUE_BITS_CAP // bits).bit_length():
        raise InfeasibleSizeError(
            f"table building supported while (m-1).bit_length() * 2^n <= {VALUE_BITS_CAP}, "
            f"got m={m}, n={n}"
        )
    state = _factorizations(n, m)
    primes, counts = np.unique(state.primes[: state.offsets[m]], return_counts=True)
    alpha = dict(zip(primes.tolist(), counts.tolist()))
    split = _root_table(n, m).primes
    for p in split[: int(np.searchsorted(split, m, side="right"))].tolist():
        if alpha.get(p, 0) != alpha_p(m, n, p):
            raise ArithmeticError(f"strip and root counting disagree at p={p}")
    return ValuationTable(m, n, alpha)


def is_qth_power_obstructed(table: ValuationTable, q: int) -> bool:
    """True iff some exponent in the table is not divisible by q."""
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    return any(a % q for a in table.alpha.values())


# --- chain links ------------------------------------------------------------


def _anchor_cap(n: int) -> int:
    """Largest a with a^(2^n)+1 below is_prime's limit 2^64: the n-fold isqrt of 2^64 - 2."""
    cap = PRIMALITY_LIMIT - 2
    for _ in range(n):
        if cap == 1:
            break
        cap = isqrt(cap)
    return cap


def _next_link(n: int, frontier: int, cap: int) -> dict | None:
    """The link at the largest even anchor a <= min(frontier+1, cap) covering past frontier.

    A link is {"anchor", "p", "next_roots", "cover_hi"}: p = a^(2^n)+1 is
    prime, and next_roots are the 2^n solutions of p | x^(2^n)+1 just past
    a, taken from the roots mod p (a itself is the least root, since any
    root r has r^(2^n)+1 >= p).  Each next root but the largest must have
    order exactly 1 at p, checked once as x^(2^n) = -1 mod p but not mod
    p^2; then at most 2^n values x <= m meet p, each once, so
    ord_p(P(m, n)) <= 2^n for every m in [a, cover_hi], cover_hi being the
    largest next root minus 1.  A candidate failing either test is skipped.
    """
    e = 1 << n
    top = min(frontier + 1, cap)
    for a in range(top - top % 2, 1, -2):
        p = a**e + 1
        if not is_prime(p):
            continue
        nxt = sorted(r + p if r <= a else r for r in roots_of_minus_one(n, p).roots)
        p2 = p * p
        orders_one = all((t := pow(x, e, p2)) % p == p - 1 and t != p2 - 1 for x in nxt[:-1])
        if orders_one and nxt[-1] - 1 > frontier:
            return {"anchor": a, "p": p, "next_roots": nxt, "cover_hi": nxt[-1] - 1}
    return None


def verify_chain(n: int) -> Check:
    """Verify that every P(m, n) has a prime of order at most n*2^(n-1).

    The paper proves it for m > target = max(10^12, 4^(n+1)); the chain
    covers m <= target.  The prefix m <= n*2^n needs no link: step
    tiny_range_ord2 lists ord_2(P(m, n)) = alpha_two(m, n) = ceil(m/2) <=
    n*2^(n-1) below the first anchor (with no anchor, up to min(n*2^n, cap)).
    While the frontier f is below target, _next_link returns the link at
    the largest even anchor a <= min(f+1, cap) covering past f, cap being
    the largest a with a^(2^n)+1 below is_prime's 2^64 limit; its next roots
    pass one mod-p^2 check of order exactly 1, and each step re-checks that
    the link joins f.  When no link extends f the chain has a gap.  The claim is proved when there is no gap, 2^n <= n*2^(n-1), and
    covered_through >= target; the handoff also checks the theorem's
    constant (the analytic crossing is at most 10^12).  The anchors are 6
    and 1302 at n = 2, 4 and 242 at n = 3.  The Check's detail holds the
    links, the coverage, both order bounds and the steps, {"name", "pass",
    "detail"} dicts in proof order.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    e = 1 << n
    needed = n << (n - 1)
    cap = _anchor_cap(n)
    target = max(10**12, 4 ** (n + 1))
    frontier = n << n  # ceil(m/2) <= n*2^(n-1) iff m <= n*2^n
    links: list[dict] = []
    steps = []
    gap = None
    while frontier < target:
        link = _next_link(n, frontier, cap)
        if link is None:
            gap = [frontier + 1, frontier + 1]
            break
        ok = link["anchor"] <= frontier + 1 and link["cover_hi"] > frontier
        detail = {k: link[k] for k in ("p", "next_roots", "cover_hi")}
        steps.append({"name": f"link_anchor_{link['anchor']}", "pass": ok, "detail": detail})
        links.append(link)
        frontier = link["cover_hi"]

    first = links[0]["anchor"] if links else min(n << n, cap) + 1
    ord2 = [alpha_two(m, n) for m in range(1, first)]
    tiny_ok = max(ord2, default=0) <= needed
    steps.insert(0, {"name": "tiny_range_ord2", "pass": tiny_ok, "detail": {"ord2": ord2}})

    # the closing inequality is stated for n >= 2 only; its crossing checks the theorem's constant
    crossing = final_inequality_crossing(n) if n >= 2 else None
    handoff_ok = frontier >= target and crossing is not None and crossing <= 10**12
    detail = {"crossing": crossing, "chain_cover_hi": frontier}
    steps.append({"name": "asymptotic_handoff", "pass": handoff_ok, "detail": detail})
    payload = {
        "trivial_through": n << n,
        "links": links,
        "covered_through": frontier,
        "gap": gap,
        "order_bound_proved": e,
        "order_bound_needed": needed,
        "bound_sufficient": e <= needed,
        "steps": steps,
    }
    passed = gap is None and e <= needed and all(s["pass"] for s in steps)
    return Check("chain", passed, payload)


# --- ingredient bounds -------------------------------------------------------


def bound_checks(m: int, n: int) -> Check:
    """Check the three ingredient bounds at every prime p <= 2(m+1).

    * valuation_gap (split p <= m): alpha_p/2^n - beta_p <= ln(m^(2^n)+1)/ln p,
      checked exactly as p^(alpha_p - 2^n beta_p) <= (m^(2^n)+1)^(2^n).
    * large_prime_order (odd p > m): alpha_p < 2^(2n).
    * factorial_floor (p <= m): beta_p >= (m-1)/(p-1) - 2 ln m / ln p.

    These are theorems; a failing record signals an implementation bug.
    The Check's detail lists one {"p", "kind", "ok", "margin"} record per test.
    """
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    if m > BOUND_CHECK_CAP:
        raise InfeasibleSizeError(f"bound checks supported for m <= {BOUND_CHECK_CAP}")
    e = 1 << n
    step = 1 << (n + 1)
    vmax = m**e + 1
    log_vmax = math.log(vmax)
    records = []
    for p in (int(q) for q in primes_upto(2 * (m + 1)).tolist()):
        if p <= m:
            b = beta_p(m, p)
            rhs = (m - 1) / (p - 1) - 2.0 * math.log(m) / math.log(p)
            records.append({"p": p, "kind": "factorial_floor", "ok": b >= rhs, "margin": b - rhs})
            if p > 2 and p % step == 1:
                a = alpha_p(m, n, p)
                diff = a - e * b
                ok = diff <= 0 or p**diff <= vmax**e
                margin = log_vmax / math.log(p) - (a / e - b)
                records.append({"p": p, "kind": "valuation_gap", "ok": ok, "margin": margin})
        elif p > 2:
            a = alpha_p(m, n, p) if p % step == 1 else 0
            limit = 1 << (2 * n)
            records.append(
                {"p": p, "kind": "large_prime_order", "ok": a < limit, "margin": float(limit - a)}
            )
    return Check("bound_checks", all(r["ok"] for r in records), {"records": records})

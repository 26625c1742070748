"""Sieve-backed prime counting and numeric spot-checks of the analytic bounds.

One prime store backs pi, pi(x; q, a) and theta(x; q, a): every prime up to
the largest limit asked for in the process, ascending, in one uint32 buffer.
The buffer is reserved once, with room for every prime up to SIEVE_CAP, and
is never copied or moved: only its written pages take memory.
primes_upto(limit) returns a read-only prefix view of it, and get_sieve
caches such views as sieves, which every caller passes.  A limit past the
store grows it in place by a segmented sieve of Eratosthenes (Bays and
Hudson, 1977) over the odd numbers the store does not reach yet, one
cache-sized segment of flags at a time: the multiples of 3..13 are copied
in from one period of a wheel pattern, the other base primes are read from
the store itself, and each segment's primes are written straight into the
buffer past the published prefix.  So each integer is sieved once per
process, and a view handed out before a growth stays valid after it; the
test suite checks the store against an independent pure-Python segmented
sieve.  All logarithms are natural.

A progression query splits the sieve into fixed blocks of 2^16 primes and
masks each block's class from the block's own primes, so no temporary
spans the sieve, and each block's total in a class is exact: its count, or
its float64 terms added as integers.  The totals of whole blocks are kept
on the store, by kind, modulus, class and block; the store only appends,
so a whole block never changes, and a query computes only its last,
partial block and the whole blocks no earlier query reached.  A
log-weighted sum adds its blocks' exact totals and is rounded once, so it
returns what math.fsum would, bit for bit.  A bound only counts as passed
when its margin exceeds 1e-9, otherwise it is flagged ambiguous.
"""

from __future__ import annotations

import math
import mmap
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .check import Check
from .errors import BeyondSieveError, InfeasibleSizeError

DEFAULT_SIEVE_LIMIT = 10_000_000
# The largest limit primes_upto sieves.  The store keeps its primes as uint32,
# so it must stay below 2^32.  The flags exist one segment at a time, but the
# store keeps 4 bytes per prime for the process's life: 203 MB at 10^9, where
# analytic --check pi --limit 1e9 and --check theta --a 3 --limit 1e9 each
# peak at 239 MB resident (VmHWM, Linux x86-64).
# verify-all --long and the sieve benchmark sieve 10^8.
SIEVE_CAP = 10**9
MARGIN_EPS = 1e-9


@dataclass(frozen=True)
class SievedPrimes:
    """All primes up to limit, ascending, duplicate-free, in a read-only array.

    block_totals holds the exact class totals of whole blocks (see
    _class_parts): the prime store's, via get_sieve, or the sieve's own.
    """

    limit: int
    primes: np.ndarray
    block_totals: dict[tuple, int | tuple[int, int]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.primes.flags.writeable = False


# Flag i of the sieve stands for the odd number 2i + 1.  The odd multiples of
# the wheel primes recur with period 3*5*7*11*13 = 15015 flags, so they are
# struck once, in a pattern the sieve copies into each segment.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = np.logical_and.reduce(
    [np.arange(math.prod(_WHEEL_PRIMES)) % p != p // 2 for p in _WHEEL_PRIMES]
)
# 2^20 one-byte flags: a segment stays in a core's 2 MB L2 cache while every
# base prime strikes it
_SEGMENT = 1 << 20
# primes per block of a class total: a block's temporaries take well under
# 1 MB, whatever the sieve's size, and a query past the cached whole blocks
# computes at most one partial block, so a small block keeps that tail cheap
_BLOCK = 1 << 16
# 2^15 terms per exact_sum step: its float64 temporaries stay in L2 cache,
# and a sum of 2^15 limbs below 2^48 stays below 2^63
_SUM_CHUNK_BITS = 15
_SUM_CHUNK = 1 << _SUM_CHUNK_BITS
_LIMB_BITS = 63 - _SUM_CHUNK_BITS
# pi(x) < 1.25506 x / ln x for x > 1 (Rosser and Schoenfeld, 1962): room for
# every prime up to SIEVE_CAP, 60.6 million entries
_RESERVE = int(1.25506 * SIEVE_CAP / math.log(SIEVE_CAP)) + 1


def _refuse_past_cap(limit: int) -> None:
    if limit > SIEVE_CAP:
        raise InfeasibleSizeError(f"sieve limit above SIEVE_CAP = {SIEVE_CAP}")


def _rank(primes: np.ndarray, x: int) -> int:
    """The number of entries <= x of an ascending array of primes.

    x reaches searchsorted as a scalar of the array's own dtype, since a
    Python int makes numpy cast the whole array to int64 first.  Below 2
    there is no prime to count, and no negative x has a uint32 value.
    """
    if x < 2:
        return 0
    return int(np.searchsorted(primes, primes.dtype.type(x), side="right"))


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an ascending, read-only uint32 array.

    A prefix view of the process's prime store, which holds every prime up
    to the largest limit asked for so far.  A limit past the store grows it
    in place first, sieving only the integers the store does not reach yet.
    The store is never copied, so a view stays valid, and shares its memory,
    after any later growth.  A limit above SIEVE_CAP raises
    InfeasibleSizeError before any allocation.
    """
    _refuse_past_cap(limit)
    sieve = _store.sieve
    if limit > sieve.limit:
        sieve = _grow(limit)
    return sieve.primes[: _rank(sieve.primes, limit)]


class _PrimeStore:
    """Every prime up to sieve.limit, as sieve.primes: a read-only prefix of buf.

    buf is reserved at the first growth, with room for every prime up to
    SIEVE_CAP, and never resized, moved or replaced after it; only its
    written pages take memory.  A growth writes past the published prefix
    and then publishes a longer one, so no published view is ever written
    to.  Each store owns its buffer and block_totals, which every sieve from
    get_sieve shares: a block of the store is the same primes in every prefix
    that holds it whole.
    """

    def __init__(self) -> None:
        self.buf = np.empty(0, dtype=np.uint32)
        self.block_totals: dict[tuple, int | tuple[int, int]] = {}
        self.sieve = SievedPrimes(1, self.buf[:0])


# Growths are serialised by _store_lock; a reader takes _store.sieve without
# locking and keeps a consistent snapshot.
_store = _PrimeStore()
_store_lock = threading.Lock()


def _grow(limit: int) -> SievedPrimes:
    """Grow the store in place to reach limit; its published sieve."""
    with _store_lock:
        store = _store
        if limit <= store.sieve.limit:
            return store.sieve
        if not len(store.buf):
            # a private anonymous mapping, whose pages take memory as they are
            # written, 4 KB at a time: numpy asks for 2 MB pages for an array
            # this large, so a first write could take 2 MB at once
            room = mmap.mmap(-1, 4 * _RESERVE, access=mmap.ACCESS_COPY)
            store.buf = np.frombuffer(room, dtype=np.uint32)
        # a growth to s strikes with the primes up to isqrt(s), read from the
        # store, so first reach isqrt(limit), isqrt(isqrt(limit)), ...
        steps = [limit]
        while isqrt(steps[-1]) > store.sieve.limit:
            steps.append(isqrt(steps[-1]))
        for step in reversed(steps):
            _extend(store, step)
        return store.sieve


def _extend(store: _PrimeStore, limit: int) -> None:
    """Write the primes in (store.sieve.limit, limit] into the buffer and publish them.

    Needs store.sieve.limit >= isqrt(limit).  Only the odd numbers past the
    store are sieved, one segment of flags at a time: one period of the
    wheel pattern from the segment's phase, doubled in place until it fills
    the segment, then the base primes 17..isqrt(limit) struck, then the
    survivors written straight into the buffer past the published prefix,
    where no view reads.
    """
    old = store.sieve
    out = store.buf
    size = len(old.primes)
    if old.limit < 2:
        out[size] = 2
        size += 1
    # int64: residue - lo below goes negative, which uint32 would wrap
    base = old.primes[_rank(old.primes, 16) : _rank(old.primes, isqrt(limit))].astype(np.int64)
    first = base * base // 2  # flag of p^2
    residue = base // 2  # flag i holds an odd multiple of p iff i = p // 2 (mod p)
    start, end = (old.limit + 1) // 2, (limit + 1) // 2  # flags of the odd numbers in the range
    flags = np.empty(min(_SEGMENT, end - start), dtype=bool)
    # segments end at multiples of _SEGMENT flags, wherever the store ended
    edges = [start, *range((start // _SEGMENT + 1) * _SEGMENT, end, _SEGMENT), end]
    for lo, hi in zip(edges, edges[1:]):
        seg = flags[: hi - lo]
        phase, done = lo % len(_WHEEL), min(len(seg), len(_WHEEL))
        head = min(done, len(_WHEEL) - phase)
        seg[:head] = _WHEEL[phase : phase + head]
        seg[head:done] = _WHEEL[: done - head]
        while done < len(seg):  # done is a whole number of periods
            step = min(done, len(seg) - done)
            seg[done : done + step] = seg[:step]
            done += step
        for p in _WHEEL_PRIMES:  # the pattern strikes the wheel primes too
            if lo <= p // 2 < hi:
                seg[p // 2 - lo] = True
        k = int(np.searchsorted(first, hi))
        starts = np.maximum(first[:k], lo + (residue[:k] - lo) % base[:k]) - lo
        for p, s in zip(base[:k].tolist(), starts.tolist()):
            seg[s::p] = False
        found = np.flatnonzero(seg)
        found += lo
        found *= 2
        found += 1
        out[size : size + len(found)] = found
        size += len(found)
    store.sieve = SievedPrimes(limit, out[:size])


@lru_cache(maxsize=4)
def get_sieve(limit: int) -> SievedPrimes:
    """The cached sieve of the primes up to limit: a read-only prefix view of the prime store.

    Every sieve of the store shares its block totals, so two records of one
    limit, as concurrent first callers may get, share their primes and
    totals alike.  A growth of the store moves nothing, so a cached sieve
    stays valid and the cache is never emptied.
    """
    return SievedPrimes(limit, primes_upto(limit), _store.block_totals)


def pi(x: int, sieve: SievedPrimes) -> int:
    """Number of primes <= x."""
    if x > sieve.limit:
        raise BeyondSieveError(f"x={x} beyond sieved limit {sieve.limit}")
    return _rank(sieve.primes, x)


def _class_parts(kind: str, x: int, q: int, a: int, sieve: SievedPrimes) -> list:
    """kind's total over the primes p <= x with p = a (mod q), one part per block of _BLOCK primes.

    kind "count" makes a part the block's count of the class; "theta" and
    "logsum" make it the exact (T, S) of _scaled_total over the block's
    ln p, or ln p / p.  A whole block's part is kept in sieve.block_totals
    under (kind, q, a mod q, block index), and read from there after: the
    store only appends, so the blocks below pi(x) never change.  So only
    the last, partial block, and the whole blocks no earlier query reached,
    are computed.  Threads that race on a missing block each compute it and
    store equal parts.  Requires gcd(a, q) = 1 and q >= 1; the arguments are
    checked before any block is read.
    """
    if gcd(a, q) != 1:
        raise ValueError(f"need gcd(a, q) = 1, got a={a}, q={q}")
    k = pi(x, sieve)
    if q < 1:
        raise ValueError(f"modulus must be positive, got q={q}")
    ps, r = sieve.primes, a % q
    totals = sieve.block_totals
    parts = []
    for i, lo in enumerate(range(0, k, _BLOCK)):
        whole = lo + _BLOCK <= k
        part = totals.get((kind, q, r, i)) if whole else None
        if part is None:
            block = res = ps[lo : min(lo + _BLOCK, k)]
            # a q past the limit leaves every prime its own residue, and
            # q - 1 may not fit the primes' dtype; & (q - 1) takes about half
            # the time of %
            if q <= sieve.limit:
                res = block & (q - 1) if q & (q - 1) == 0 else block % q
            part = _block_part(kind, block, res == r)
            if whole:
                totals[kind, q, r, i] = part
        parts.append(part)
    return parts


def _block_part(kind: str, ps: np.ndarray, hit: np.ndarray) -> int | tuple[int, int]:
    """One block's part of a class total, as _class_parts keeps it; hit masks the class.

    The class is selected with compress, which runs about 3x faster here
    than a boolean index.
    """
    if kind == "count":
        return int(np.count_nonzero(hit))
    sel = ps.compress(hit).astype(np.float64)
    terms = np.log(sel)
    return _scaled_total(terms / sel if kind == "logsum" else terms)


def pi_ap(x: int, q: int, a: int, sieve: SievedPrimes) -> int:
    """Number of primes p <= x with p = a (mod q); requires gcd(a, q) = 1."""
    return sum(_class_parts("count", x, q, a, sieve))


def theta_ap(x: int, q: int, a: int, sieve: SievedPrimes) -> float:
    """Chebyshev theta(x; q, a) = sum of ln p over primes p <= x, p = a (mod q)."""
    return _streamed_sum(_class_parts("theta", x, q, a, sieve))


def exact_sum(terms: np.ndarray) -> float:
    """The sum of finite non-negative float64 terms, correctly rounded, as math.fsum returns it.

    With S = 53 - (least frexp exponent of a nonzero term), every term times
    2^S is an integer below 2^bits, where bits is 53 plus the exponent span.
    Each scaled term is split into as few limbs of at most 48 bits as hold
    bits; the limbs are summed as int64 over chunks of 2^15 terms, where no
    limb sum can overflow, and the chunk totals as Python ints.  The exact
    total over 2^S is one int/int division, correctly rounded half-even.
    A term that is negative or not finite raises ValueError; a term that is
    not an integer at scale 2^-S, or exceeds the top limb, raises
    ArithmeticError.  Nothing is ever rounded but the final quotient.
    """
    return _streamed_sum((_scaled_total(terms),))


def _streamed_sum(parts) -> float:
    """exact_sum of the terms of every block together, from each block's exact (T, S).

    Each part T 2^-S, as _scaled_total returns it, is an integer at its
    block's own scale.  The running total, an integer at scale 2^-scale,
    moves to the finest scale seen so far; starting from scale 0, that only
    ever shifts an integer left, so the total stays exact, and the one
    rounding is the final quotient: the result is exact_sum's over the
    concatenated blocks, bit for bit, in any order of the parts.
    """
    total, scale = 0, 0
    for part, s in parts:
        if s > scale:
            total <<= s - scale
            scale = s
        total += part << (scale - s)
    return total / (1 << scale)


def _scaled_total(terms: np.ndarray) -> tuple[int, int]:
    """(T, S) with sum(terms) = T 2^-S exactly, S as in exact_sum; (0, 0) for no nonzero term."""
    terms = np.asarray(terms, dtype=np.float64).ravel()
    if not np.isfinite(terms).all() or np.signbit(terms).any():
        raise ValueError("exact_sum needs finite non-negative terms")
    top = terms.max(initial=0.0)
    if top == 0:
        return 0, 0
    low = terms.min()
    if low == 0:
        low = terms[terms > 0].min()
    e_min = math.frexp(low)[1]
    scale = 53 - e_min
    bits = math.frexp(top)[1] - e_min + 53
    limbs = -(-bits // _LIMB_BITS)
    width = -(-bits // limbs)
    total = 0
    # from the top limb down: limb j of a term is floor(term 2^(S - j width))
    # less the floor one limb up, shifted; both are exact in float64
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(terms), _SUM_CHUNK):
            chunk = terms[lo : lo + _SUM_CHUNK]
            above = None
            for j in reversed(range(limbs)):
                scaled = np.ldexp(chunk, scale - j * width)
                floor = np.floor(scaled)
                if above is None:
                    if floor.max() >= 2.0**width:
                        raise ArithmeticError(f"a term exceeds {limbs} limbs of {width} bits")
                    limb = floor
                else:
                    limb = floor - above * 2.0**width
                    if bits - j * width > 1024:
                        # a term past the float range at this scale has no bits in this limb
                        limb[~np.isfinite(limb)] = 0
                if j == 0 and (floor != scaled).any():
                    raise ArithmeticError(f"a term is not a multiple of 2^-{scale}")
                total += int(limb.astype(np.int64).sum()) << (j * width)
                above = floor
    return total, scale


def _record(x: int, lhs: float, rhs: float, margin: float) -> dict:
    if margin > MARGIN_EPS:
        status = "pass"
    elif margin < -MARGIN_EPS:
        status = "fail"
    else:
        status = "ambiguous"
    return {"x": x, "lhs": lhs, "rhs": rhs, "margin": margin, "status": status}


def _sampled(name: str, records: list[dict]) -> Check:
    """Sampled verification of one inequality; passed iff every sample passes."""
    passed = all(r["status"] == "pass" for r in records)
    return Check(name, passed, {"records": records})


def _at_least(lo: int, samples, claim: str) -> tuple[int, ...]:
    """samples as a tuple; the first x below lo raises ValueError, "<claim>, got <x>"."""
    samples = tuple(samples)
    for x in samples:
        if x < lo:
            raise ValueError(f"{claim}, got {x}")
    return samples


def _pi_samples(samples) -> tuple[int, ...]:
    return _at_least(10**6, samples, "bound is asserted only for x >= 10^6")


def _bt_samples(n: int, samples, limit: int) -> tuple[int, ...]:
    """check_bt_bound's points on a sieve up to limit, or the error it raises for its arguments."""
    if n < 2:
        raise ValueError(f"bound is asserted for n >= 2, got {n}")
    lo = 4 ** (n + 1)
    if samples is None:
        # refused before the float grid, which cannot take 4^(n+1) >= 2^64
        if lo > limit:
            raise BeyondSieveError(f"x=4^{n + 1} beyond sieved limit {limit}")
        return _grid(lo, limit, 10)
    return _at_least(lo, samples, f"bound needs x >= 4^(n+1) = {lo}")


def _class_samples(a: int, samples, claim: str) -> tuple[int, ...]:
    """Points of a check on the odd class a mod 8, or the error it raises for its arguments."""
    if a not in (1, 3, 5, 7):
        raise ValueError(f"a must be an odd class mod 8, got {a}")
    return _at_least(10**6, samples, f"{claim} is asserted only for x >= 10^6")


def check_pi_bound(samples, sieve: SievedPrimes) -> Check:
    """pi(x) <= 1.1 x / ln x for x >= 10^6."""
    records = []
    for x in _pi_samples(samples):
        lhs = float(pi(x, sieve))
        rhs = 1.1 * x / math.log(x)
        records.append(_record(x, lhs, rhs, rhs - lhs))
    return _sampled("pi_bound", records)


def _grid(lo: int, hi: int, points: int) -> tuple[int, ...]:
    xs = np.geomspace(lo, hi, points)
    return tuple(sorted({max(lo, min(hi, int(round(v)))) for v in xs}))


def check_bt_bound(n: int, samples, sieve: SievedPrimes) -> Check:
    """Brun-Titchmarsh specialization pi(x; 2^(n+1), 1) <= 4x / (2^n ln x) for x >= 4^(n+1).

    samples None checks ten log-spaced points from 4^(n+1) to the sieve's limit.
    """
    records = []
    for x in _bt_samples(n, samples, sieve.limit):
        lhs = float(pi_ap(x, 1 << (n + 1), 1, sieve))
        rhs = 4.0 * x / ((1 << n) * math.log(x))
        records.append(_record(x, lhs, rhs, rhs - lhs))
    return _sampled("bt_bound", records)


def check_logsum_bound(a: int, x: int, sieve: SievedPrimes) -> Check:
    """sum_{p <= x, p = a mod 8} ln p / p > 0.245 ln x - 3.15 for x >= 10^6, a in {1,3,5,7}."""
    _class_samples(a, (x,), "bound")
    lhs = _streamed_sum(_class_parts("logsum", x, 8, a, sieve))
    rhs = 0.245 * math.log(x) - 3.15
    return _sampled("logsum_bound", [_record(x, lhs, rhs, lhs - rhs)])


def check_theta_window(a: int, samples, sieve: SievedPrimes) -> Check:
    """|theta(x; 8, a) - x/4| < 0.024 x / ln x, spot-checked at desk scale."""
    records = []
    for x in _class_samples(a, samples, "window"):
        lhs = abs(theta_ap(x, 8, a, sieve) - x / 4.0)
        rhs = 0.024 * x / math.log(x)
        records.append(_record(x, lhs, rhs, rhs - lhs))
    return _sampled("theta_window", records)


def sieve_check(kind: str, limit: int, xs: tuple[int, ...], n: int, a: int) -> Check:
    """The analytic command's check of one kind ("pi", "bt", "logsum", "theta") up to limit.

    Empty xs takes the default points: 10^6 and limit for pi and theta,
    10^6 for logsum, ten log-spaced points from 4^(n+1) for bt.  Every
    argument is refused, with the error the check itself raises, before the
    sieve is made, so a refused check sieves nothing and leaves the prime
    store as it was.
    """
    _refuse_past_cap(limit)
    default = tuple(sorted({10**6, limit}))
    if kind == "pi":
        samples = _pi_samples(xs or default)
        return check_pi_bound(samples, get_sieve(limit))
    if kind == "bt":
        samples = _bt_samples(n, xs or None, limit)
        return check_bt_bound(n, samples, get_sieve(limit))
    if kind == "logsum":
        samples = _class_samples(a, xs or (10**6,), "bound")
        sieve = get_sieve(limit)
        records = [r for x in samples for r in check_logsum_bound(a, x, sieve).detail["records"]]
        return _sampled("logsum_bound", records)
    if kind == "theta":
        samples = _class_samples(a, xs or default, "window")
        return check_theta_window(a, samples, get_sieve(limit))
    raise ValueError(f"unknown sieve check {kind!r}")


def final_inequality_margin(m: int, n: int) -> tuple[float, float]:
    """Both sides of the closing inequality at (m, n).

    lhs = 3(0.245 ln m - 3.15) and
    rhs = 2.2 m/(m-1) + ((m+1)/(m-1)) ln 2 / 2^(n+1) + 8 (m+1)/(m-1);
    a contradiction (lhs > rhs) rules out every prime order exceeding
    n*2^(n-1) once m is large enough.  Both sides are floats, so m >= 2^1022,
    where 2.2 m is no longer a finite float, raises InfeasibleSizeError.
    """
    if m <= 1:
        raise ValueError(f"need m > 1, got {m}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if m >= 1 << 1022:
        raise InfeasibleSizeError(f"m of {m.bit_length()} bits is past the float range, m < 2^1022")
    lhs = 3.0 * (0.245 * math.log(m) - 3.15)
    ratio = (m + 1) / (m - 1)
    rhs = 2.2 * m / (m - 1) + ratio * math.ldexp(math.log(2), -(n + 1)) + 8.0 * ratio
    return lhs, rhs


def final_inequality_crossing(n: int) -> int:
    """Smallest integer m with lhs > rhs for all m' >= m.

    lhs - rhs is strictly increasing for m > 1 (lhs grows like ln m, rhs
    decreases), so integer bisection finds the unique threshold.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")

    def diff(m: int) -> float:
        lhs, rhs = final_inequality_margin(m, n)
        return lhs - rhs

    lo, hi = 2, 10**13
    if diff(lo) > 0:
        return lo
    if diff(hi) <= 0:
        raise ArithmeticError("no crossing below 10^13; inputs out of expected range")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if diff(mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi

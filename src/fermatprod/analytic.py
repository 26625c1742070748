"""Sieve-backed prime counting and numeric spot-checks of the analytic bounds.

One prime store backs pi, pi(x; q, a) and theta(x; q, a): a read-only
array of every prime up to the largest limit asked for in the process.
primes_upto(limit) returns a prefix view of it, and get_sieve caches such
views as sieves, which every caller passes.  A limit past the store grows it
by a segmented sieve of Eratosthenes (Bays and Hudson, 1977) over the odd
numbers the store does not reach yet, one cache-sized segment of flags at a
time: the multiples of 3..13 are struck by a tiled wheel pattern, the other
base primes are read from the store itself, and each segment's primes are
written straight into the new store.  So each integer is sieved once per
process; the test suite checks the store against an independent
pure-Python segmented sieve.  All logarithms are natural.

A progression query reads the residues of the sieve's primes modulo q from
a cache kept on the sieve: they are computed once per modulus, one byte per
prime for q <= 256, and released with the sieve.  Log-weighted sums are
exact: exact_sum adds the float64 terms as integers and rounds once, so it
returns what math.fsum would, bit for bit.  A bound only counts as passed
when its margin exceeds 1e-9, otherwise it is flagged ambiguous.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .check import Check
from .errors import BeyondSieveError, InfeasibleSizeError

DEFAULT_SIEVE_LIMIT = 10_000_000
# The largest limit primes_upto sieves.  The flags exist one segment at a
# time, but the store keeps 0.4 GB of primes at 10^9 for the process's life.
# verify-all --long and the sieve benchmark sieve 10^8.
SIEVE_CAP = 10**9
MARGIN_EPS = 1e-9


@dataclass(frozen=True)
class SievedPrimes:
    """All primes up to limit, ascending, duplicate-free, in a read-only array."""

    limit: int
    primes: np.ndarray
    _residues: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.primes.flags.writeable = False

    def residues(self, q: int) -> np.ndarray:
        """primes % q in the smallest unsigned dtype holding q - 1, read-only.

        Computed once per modulus, 2^20 primes at a time, as primes & (q - 1)
        when q is a power of two (about half the time of %), and kept until
        the sieve is dropped.  A published array is never mutated.
        """
        res = self._residues.get(q)
        if res is not None:
            return res
        if q < 1:
            raise ValueError(f"modulus must be positive, got q={q}")
        with self._lock:
            res = self._residues.get(q)
            if res is not None:
                return res
            res = np.empty(len(self.primes), dtype=np.min_scalar_type(q - 1))
            for lo in range(0, len(res), _RESIDUE_CHUNK):
                chunk = self.primes[lo : lo + _RESIDUE_CHUNK]
                res[lo : lo + _RESIDUE_CHUNK] = chunk & (q - 1) if q & (q - 1) == 0 else chunk % q
            res.flags.writeable = False
            self._residues[q] = res
            return res


# Flag i of the sieve stands for the odd number 2i + 1.  The odd multiples of
# the wheel primes recur with period 3*5*7*11*13 = 15015 flags, so they are
# struck once, in a pattern the sieve tiles.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = np.logical_and.reduce(
    [np.arange(math.prod(_WHEEL_PRIMES)) % p != p // 2 for p in _WHEEL_PRIMES]
)
# 2^20 one-byte flags: a segment stays in a core's 2 MB L2 cache while every
# base prime strikes it
_SEGMENT = 1 << 20
# primes reduced per step while filling a residue cache: an 8 MB temporary
_RESIDUE_CHUNK = 1 << 20
# 2^15 terms per exact_sum step: its float64 temporaries stay in L2 cache,
# and a sum of 2^15 limbs below 2^48 stays below 2^63
_SUM_CHUNK_BITS = 15
_SUM_CHUNK = 1 << _SUM_CHUNK_BITS
_LIMB_BITS = 63 - _SUM_CHUNK_BITS


def _refuse_past_cap(limit: int) -> None:
    if limit > SIEVE_CAP:
        raise InfeasibleSizeError(f"sieve limit above SIEVE_CAP = {SIEVE_CAP}")


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an ascending, read-only int64 array.

    A prefix view of the process's prime store, which holds every prime up
    to the largest limit asked for so far.  A limit past the store grows it
    first, sieving only the integers the store does not reach yet.  A limit
    above SIEVE_CAP raises InfeasibleSizeError before any allocation.
    """
    _refuse_past_cap(limit)
    store = _store
    if limit > store.limit:
        store = _grow(limit)
    return store.primes[: np.searchsorted(store.primes, limit, side="right")]


# The prime store: every prime up to its limit.  Growth publishes a new store
# under _store_lock and never mutates a published one, so a reader takes the
# current store without locking and keeps a consistent snapshot.
_store = SievedPrimes(1, np.empty(0, dtype=np.int64))
_store_lock = threading.Lock()


def _grow(limit: int) -> SievedPrimes:
    """Publish a store reaching limit, and drop get_sieve's sieves of the store it replaces."""
    global _store
    with _store_lock:
        store = _store
        if limit <= store.limit:
            return store
        # a growth to s strikes with the primes up to isqrt(s), read from the
        # store, so first reach isqrt(limit), isqrt(isqrt(limit)), ...
        steps = [limit]
        while isqrt(steps[-1]) > store.limit:
            steps.append(isqrt(steps[-1]))
        for step in reversed(steps):
            store = _extended(store, step)
        _store = store
        _drop_cached_sieves()
        return store


def _extended(store: SievedPrimes, limit: int) -> SievedPrimes:
    """The store followed by the primes in (store.limit, limit]; store.limit >= isqrt(limit).

    Only the odd numbers past store.limit are sieved, one segment of flags
    at a time: the wheel pattern tiled from the segment's phase, then the
    base primes 17..isqrt(limit) struck, then the survivors written straight
    into the new array.  That array is sized by pi(x) < 1.25506 x / ln x
    (Rosser and Schoenfeld, 1962) and shrunk to fit; the pages of its tail
    are never written, so a large array's tail takes no memory.
    """
    old = store.primes
    out = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
    out[: len(old)] = old
    size = len(old)
    if store.limit < 2:
        out[size] = 2
        size += 1
    base = old[np.searchsorted(old, 17) : np.searchsorted(old, isqrt(limit), side="right")]
    first = base * base // 2  # flag of p^2
    residue = base // 2  # flag i holds an odd multiple of p iff i = p // 2 (mod p)
    start, end = (store.limit + 1) // 2, (limit + 1) // 2  # flags of the odd numbers in the range
    wheel = np.resize(_WHEEL, min(_SEGMENT, end - start) + len(_WHEEL))
    buf = np.empty(min(_SEGMENT, end - start), dtype=bool)
    # segments end at multiples of _SEGMENT flags, wherever the store ended
    edges = [start, *range((start // _SEGMENT + 1) * _SEGMENT, end, _SEGMENT), end]
    for lo, hi in zip(edges, edges[1:]):
        seg = buf[: hi - lo]
        phase = lo % len(_WHEEL)
        seg[:] = wheel[phase : phase + len(seg)]
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
    out.resize(size, refcheck=False)  # no view of out exists yet
    return SievedPrimes(limit, out)


# every live sieve by limit, so concurrent first callers, and callers after an
# lru eviction, share one object and its residue cache
_sieves: weakref.WeakValueDictionary[int, SievedPrimes] = weakref.WeakValueDictionary()
_sieves_lock = threading.Lock()


@lru_cache(maxsize=4)
def get_sieve(limit: int) -> SievedPrimes:
    """The cached sieve of the primes up to limit: a read-only prefix view of the prime store.

    Each sieve is made once, under a module lock, and every caller gets the
    sieve it published.  A growth of the store empties this cache, so that
    the cached views no longer hold the store it replaced.
    """
    with _sieves_lock:
        sv = _sieves.get(limit)
        if sv is None:
            sv = _sieves[limit] = SievedPrimes(limit, primes_upto(limit))
        return sv


# bound at import: a tracer may rebind get_sieve to a wrapper without cache_clear
_drop_cached_sieves = get_sieve.cache_clear


def pi(x: int, sieve: SievedPrimes) -> int:
    """Number of primes <= x."""
    if x > sieve.limit:
        raise BeyondSieveError(f"x={x} beyond sieved limit {sieve.limit}")
    return int(np.searchsorted(sieve.primes, x, side="right"))


def _in_class(x: int, q: int, a: int, sieve: SievedPrimes) -> tuple[np.ndarray, np.ndarray]:
    """The primes p <= x and the mask of those with p = a (mod q); requires gcd(a, q) = 1.

    Callers select with compress, which runs about 3x faster here than a
    boolean index.
    """
    if gcd(a, q) != 1:
        raise ValueError(f"need gcd(a, q) = 1, got a={a}, q={q}")
    k = pi(x, sieve)
    return sieve.primes[:k], sieve.residues(q)[:k] == a % q


def pi_ap(x: int, q: int, a: int, sieve: SievedPrimes) -> int:
    """Number of primes p <= x with p = a (mod q); requires gcd(a, q) = 1."""
    _, hit = _in_class(x, q, a, sieve)
    return int(np.count_nonzero(hit))


def theta_ap(x: int, q: int, a: int, sieve: SievedPrimes) -> float:
    """Chebyshev theta(x; q, a) = sum of ln p over primes p <= x, p = a (mod q)."""
    ps, hit = _in_class(x, q, a, sieve)
    return exact_sum(np.log(ps.compress(hit).astype(np.float64)))


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
    terms = np.asarray(terms, dtype=np.float64).ravel()
    if not np.isfinite(terms).all() or np.signbit(terms).any():
        raise ValueError("exact_sum needs finite non-negative terms")
    top = terms.max(initial=0.0)
    if top == 0:
        return 0.0
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
    return total / (1 << scale) if scale >= 0 else float(total << -scale)


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
    ps, hit = _in_class(x, 8, a, sieve)
    sel = ps.compress(hit).astype(np.float64)
    lhs = exact_sum(np.log(sel) / sel)
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
    10^6 for logsum, ten log-spaced points from 4^(n+1) for bt; logsum reads
    only the first x.  Every argument is refused, with the error the check
    itself raises, before the sieve is made, so a refused check sieves
    nothing and leaves the prime store as it was.
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
        (x,) = _class_samples(a, xs[:1] or (10**6,), "bound")
        return check_logsum_bound(a, x, get_sieve(limit))
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

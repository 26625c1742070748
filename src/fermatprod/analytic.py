"""Sieve-backed prime counting and numeric spot-checks of the analytic bounds.

One prime sieve, primes_upto, backs pi, pi(x; q, a) and theta(x; q, a):
every caller passes the sieve, which get_sieve caches read-only.  It is a
numpy sieve of Eratosthenes over odd numbers only, with the multiples of
3..13 struck by a tiled wheel pattern and the other base primes struck one
cache-sized segment at a time; the test suite checks it against an
independent pure-Python segmented sieve.  All logarithms are natural.

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
# The largest limit primes_upto sieves: 0.5 GB of flags and 0.4 GB of primes
# at 10^9.  verify-all --long and the sieve benchmark sieve 10^8.
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


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an ascending int64 array.

    Segmented sieve of Eratosthenes over odd numbers only, one byte per odd
    number, with the multiples of 3..13 pre-struck by the wheel pattern.
    A limit above SIEVE_CAP raises InfeasibleSizeError before any allocation.
    """
    if limit > SIEVE_CAP:
        raise InfeasibleSizeError(f"sieve limit above SIEVE_CAP = {SIEVE_CAP}")
    if limit < 2:
        return np.array([], dtype=np.int64)
    flags = np.resize(_WHEEL, (limit + 1) // 2)
    for p in _WHEEL_PRIMES:
        if p <= limit:
            flags[p // 2] = True
    # base primes 17..isqrt(limit), sieved in place from the head of the flags;
    # a composite left among them would strike nothing new, only waste strides
    root = isqrt(limit)
    head = flags[: (root + 1) // 2]
    for i in range(8, isqrt(root) // 2 + 1):
        if head[i]:
            head[2 * i * (i + 1) :: 2 * i + 1] = False  # from p^2, p = 2i + 1
    base = 2 * np.flatnonzero(head[8:]) + 17
    first = base * base // 2  # flag of p^2
    residue = base // 2  # flag i holds an odd multiple of p iff i = p // 2 (mod p)
    for lo in range(0, len(flags), _SEGMENT):
        seg = flags[lo : lo + _SEGMENT]
        k = int(np.searchsorted(first, lo + len(seg)))
        starts = np.maximum(first[:k], lo + (residue[:k] - lo) % base[:k]) - lo
        for p, s in zip(base[:k].tolist(), starts.tolist()):
            seg[s::p] = False
    primes = np.flatnonzero(flags)
    primes *= 2
    primes += 1
    primes[0] = 2  # flag 0 stands for 1, which is not prime; 2 takes its place
    return primes


# every live sieve by limit, so concurrent first callers, and callers after an
# lru eviction, share one object and its residue cache
_sieves: weakref.WeakValueDictionary[int, SievedPrimes] = weakref.WeakValueDictionary()
_sieves_lock = threading.Lock()


@lru_cache(maxsize=4)
def get_sieve(limit: int) -> SievedPrimes:
    """The cached sieve of the primes up to limit; its array is read-only.

    Each limit is sieved once: the build runs under a module lock, and every
    caller gets the sieve it published.
    """
    with _sieves_lock:
        sv = _sieves.get(limit)
        if sv is None:
            sv = _sieves[limit] = SievedPrimes(limit, primes_upto(limit))
        return sv


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


def check_pi_bound(samples, sieve: SievedPrimes) -> Check:
    """pi(x) <= 1.1 x / ln x for x >= 10^6."""
    records = []
    for x in samples:
        if x < 10**6:
            raise ValueError(f"bound is asserted only for x >= 10^6, got {x}")
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
    if n < 2:
        raise ValueError(f"bound is asserted for n >= 2, got {n}")
    q = 1 << (n + 1)
    lo = 4 ** (n + 1)
    if samples is None:
        # refused before the float grid, which cannot take 4^(n+1) >= 2^64
        if lo > sieve.limit:
            raise BeyondSieveError(f"x=4^{n + 1} beyond sieved limit {sieve.limit}")
        samples = _grid(lo, sieve.limit, 10)
    records = []
    for x in samples:
        if x < lo:
            raise ValueError(f"bound needs x >= 4^(n+1) = {lo}, got {x}")
        lhs = float(pi_ap(x, q, 1, sieve))
        rhs = 4.0 * x / ((1 << n) * math.log(x))
        records.append(_record(x, lhs, rhs, rhs - lhs))
    return _sampled("bt_bound", records)


def check_logsum_bound(a: int, x: int, sieve: SievedPrimes) -> Check:
    """sum_{p <= x, p = a mod 8} ln p / p > 0.245 ln x - 3.15 for x >= 10^6, a in {1,3,5,7}."""
    if a not in (1, 3, 5, 7):
        raise ValueError(f"a must be an odd class mod 8, got {a}")
    if x < 10**6:
        raise ValueError(f"bound is asserted only for x >= 10^6, got {x}")
    ps, hit = _in_class(x, 8, a, sieve)
    sel = ps.compress(hit).astype(np.float64)
    lhs = exact_sum(np.log(sel) / sel)
    rhs = 0.245 * math.log(x) - 3.15
    return _sampled("logsum_bound", [_record(x, lhs, rhs, lhs - rhs)])


def check_theta_window(a: int, samples, sieve: SievedPrimes) -> Check:
    """|theta(x; 8, a) - x/4| < 0.024 x / ln x, spot-checked at desk scale."""
    if a not in (1, 3, 5, 7):
        raise ValueError(f"a must be an odd class mod 8, got {a}")
    records = []
    for x in samples:
        if x < 10**6:
            raise ValueError(f"window is asserted only for x >= 10^6, got {x}")
        lhs = abs(theta_ap(x, 8, a, sieve) - x / 4.0)
        rhs = 0.024 * x / math.log(x)
        records.append(_record(x, lhs, rhs, rhs - lhs))
    return _sampled("theta_window", records)


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

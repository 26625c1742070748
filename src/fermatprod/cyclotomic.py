"""The congruence-system prime bound, certified by closed-form norms.

The bound machinery certifies that any system

    x_i^(2^n) + 1 = 0  (mod p^(k_i)),   k_1 >= ... >= k_s,  x_i distinct,

with k_1 + ... + k_s >= big_n(n) forces p <= 2(max x_i + 1), by exhibiting a
nonzero element B = x_u - x_v * w of Z[zeta_{2^(m+1)}], w a root of unity,
whose rational norm is divisible by p^(k_r) yet bounded by
(2(max x_i + 1))^(2^m).  The norm of such a binomial is itself a binomial in
closed form (Washington, Introduction to Cyclotomic Fields, ch. 2), so every
certificate is decided with exact integers alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .analytic import primes_upto
from .check import Check
from .errors import (
    CertificateError,
    HypothesisUnmetError,
    InfeasibleSizeError,
    InvalidSystemError,
    TooFewRootsError,
)
from .ntcore import is_prime, lifted_roots, odd_powers, roots_of_minus_one
from .partitions import PARTITION_MAX_N, big_n, enumerate_partitions, r_bound


@dataclass(frozen=True)
class PigeonWitness:
    """Indices u < v (1-based) whose root exponents differ by a multiple of 2^(n-m).

    t is the exponent difference e_u - e_v reduced mod 2^(n+1); zeta_{2^(n+1)}^t
    is then a 2^(m+1)-th root of unity.
    """

    u: int
    v: int
    t: int


def pigeonhole_witness(exponents: Sequence[int], m: int, n: int) -> PigeonWitness:
    """Find two exponents congruent mod 2^(n-m) among odd residues mod 2^(n+1).

    With at least r_bound(m, n) = 2^(n-m-1) + 1 entries the residue classes
    mod 2^(n-m) cannot all differ, so a witness always exists; deterministic
    choice: smallest u, then smallest v.
    """
    if not 0 <= m < n:
        raise ValueError(f"need 0 <= m < n, got m={m}, n={n}")
    full = 1 << (n + 1)
    for e in exponents:
        if not (1 <= e < full and e & 1):
            raise ValueError(f"exponents must be odd residues in [1, {full}), got {e}")
    need = r_bound(m, n)
    if len(exponents) < need:
        raise TooFewRootsError(
            f"pigeonhole over 2^{n - m - 1} classes needs {need} exponents, got {len(exponents)}"
        )
    mod = 1 << (n - m)
    for u in range(len(exponents)):
        for v in range(u + 1, len(exponents)):
            if (exponents[u] - exponents[v]) % mod == 0:
                return PigeonWitness(u + 1, v + 1, (exponents[u] - exponents[v]) % full)
    raise TooFewRootsError("no congruent pair found")  # unreachable given the length check


@dataclass(frozen=True)
class CongruenceSystem:
    """A system p^(k_i) | x_i^(2^n) + 1 with distinct x_i and non-increasing k_i."""

    n: int
    p: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidSystemError(f"exponent level must be >= 1, got {self.n}")
        if self.p < 3 or self.p % 2 == 0:
            raise InvalidSystemError(f"modulus base must be an odd prime, got {self.p}")
        if not self.entries:
            raise InvalidSystemError("system needs at least one congruence")
        xs = [x for x, _ in self.entries]
        if len(set(xs)) != len(xs):
            raise InvalidSystemError(f"x values must be distinct, got {xs}")
        prev = None
        for x, k in self.entries:
            if x < 1 or k < 1:
                raise InvalidSystemError(f"entries must be positive, got ({x}, {k})")
            if prev is not None and k > prev:
                raise InvalidSystemError("exponents must be non-increasing")
            prev = k

    @classmethod
    def make(cls, n: int, p: int, entries) -> "CongruenceSystem":
        """Build with entries canonically sorted by descending k, then ascending x."""
        ordered = tuple(sorted(entries, key=lambda e: (-e[1], e[0])))
        return cls(n, p, ordered)

    @property
    def x_max(self) -> int:
        return max(x for x, _ in self.entries)

    @property
    def total_order(self) -> int:
        return sum(k for _, k in self.entries)

    def validate(self) -> None:
        """Check the arithmetic invariants: p prime and p^(k_i) | x_i^(2^n)+1."""
        if not is_prime(self.p):
            raise InvalidSystemError(f"{self.p} is not prime")
        e = 1 << self.n
        for x, k in self.entries:
            if (x**e + 1) % self.p**k:
                raise InvalidSystemError(
                    f"{self.p}^{k} does not divide {x}^(2^{self.n})+1"
                )


@dataclass(frozen=True)
class BoundCertificate:
    """Numeric witness for p <= 2(x+1).

    branch "norm": B = x_u - zeta_{2^(m+1)}^(t') * x_v has |N(B)| divisible by
    p^(k_r) and bounded by 2^(2^m) (x+1)^(2^m); with t' = t >> (n - m), u, v
    and m, the closed form of _binomial_norm recomputes |N(B)|.  branch
    "order": k_r >= 2^n, so p^(k_r) <= x_r^(2^n)+1 directly.
    """

    branch: str
    r: int
    m: int
    prime_power: int
    norm_value: int
    norm_limit: int
    u: int | None = None
    v: int | None = None
    t: int | None = None


def _min_level(r: int, n: int) -> int:
    """Smallest m with r >= r_bound(m, n)."""
    return max(0, n - (r - 1).bit_length())


def _root_exponents(n: int, p: int, xs: Sequence[int]) -> list[int]:
    """Odd exponents e_i with w^(e_i) = -x_i (mod p), w the least root of x^(2^n) = -1."""
    w = roots_of_minus_one(n, p)[0]
    exp_of = dict(zip(odd_powers(w, n, p), range(1, 2 << n, 2)))
    try:
        return [exp_of[(-x) % p] for x in xs]
    except KeyError as err:
        raise InvalidSystemError(f"{err.args[0]} is not a root class mod {p}") from None


def _binomial_norm(a: int, b: int, level: int, tp: int) -> int:
    """|N(a - b*w)| from Q(zeta_{2^level}) down to Q, w = zeta_{2^level}^tp, 0 <= tp < 2^level.

    With 2^j the order of w and d = 2^(level-1): w = 1 gives |a - b|^d and
    w = -1 gives |a + b|^d.  For j >= 2 the product of a - b*w' over the
    conjugates w' of w, the primitive 2^j-th roots of unity, is the
    homogenised cyclotomic polynomial a^(2^(j-1)) + b^(2^(j-1)), and the
    full field repeats each conjugate 2^(level-j) times.
    """
    j = level - (tp & -tp).bit_length() + 1 if tp else 0
    if j == 0:
        return abs(a - b) ** (1 << (level - 1))
    if j == 1:
        return abs(a + b) ** (1 << (level - 1))
    half = 1 << (j - 1)
    return (a**half + b**half) ** (1 << (level - j))


def check_prime_bound(sys: CongruenceSystem) -> BoundCertificate:
    """Verify p <= 2(max x_i + 1) and return the numeric certificate for it.

    Requires total_order >= big_n(n).  Raises CertificateError if the
    certificate arithmetic fails, which would indicate a bug, not a
    counterexample: a violating system would already fail the norm bound.
    """
    sys.validate()
    n, p = sys.n, sys.p
    need = big_n(n)
    if sys.total_order < need:
        raise HypothesisUnmetError(
            f"total order {sys.total_order} below forcing total {need}"
        )
    x = sys.x_max

    ks = [k for _, k in sys.entries]
    best = None
    for r, k in enumerate(ks, start=1):
        m_lo = _min_level(r, n)
        if m_lo <= min(n, k.bit_length() - 1):
            key = (1 << m_lo, r)
            if best is None or key < best[0]:
                best = (key, r, m_lo)
    if best is None:
        raise CertificateError("no admissible (r, m); forcing hypothesis violated")
    _, r, m = best
    k_r = ks[r - 1]
    pp = p**k_r

    if m == n:
        x_r = sys.entries[r - 1][0]
        val = x_r ** (1 << n) + 1
        limit = (x + 1) ** (1 << n)
        if val % pp or not (pp <= val <= limit):
            raise CertificateError("order-branch chain failed")
        if p > x + 1:
            raise CertificateError("order-branch conclusion failed")
        cert = BoundCertificate("order", r, m, pp, val, limit)
    else:
        exps = _root_exponents(n, p, [e[0] for e in sys.entries[:r]])
        wit = pigeonhole_witness(exps, m, n)
        x_u = sys.entries[wit.u - 1][0]
        x_v = sys.entries[wit.v - 1][0]
        nb = _binomial_norm(x_u, x_v, m + 1, wit.t >> (n - m))
        limit = (1 << (1 << m)) * (x + 1) ** (1 << m)
        if nb == 0 or nb % pp or not (pp <= nb <= limit):
            raise CertificateError(
                f"norm-branch chain failed: p^k={pp}, |N(B)|={nb}, limit={limit}"
            )
        if p > 2 * (x + 1):
            raise CertificateError("norm-branch conclusion failed")
        cert = BoundCertificate("norm", r, m, pp, nb, limit, wit.u, wit.v, wit.t)
    return cert


def _split_primes(n: int, limit: int) -> list[int]:
    """Primes p <= limit with p = 1 (mod 2^(n+1)), ascending, read from the sieve.

    A limit above analytic.SIEVE_CAP raises InfeasibleSizeError before the
    sieve allocates anything.
    """
    step = 2 << n
    if limit <= step:
        return []
    primes = primes_upto(limit)
    return primes[primes % step == 1].tolist()


def _by_order(n: int, p: int, xs) -> list[tuple[int, int]]:
    """The first big_n(n) pairs (x, ord_p(x^(2^n)+1)), x in xs, by order descending, then x."""
    pool = []
    for x in xs:
        v, o = x ** (1 << n) + 1, 0
        while v % p == 0:
            v //= p
            o += 1
        pool.append((x, o))
    return sorted(pool, key=lambda kv: (-kv[1], kv[0]))[: big_n(n)]


def _top_pool(n: int, p: int, x_limit: int) -> list[tuple[int, int]]:
    """The first big_n(n) pairs (x, ord_p(x^(2^n)+1)) of p's pool, by order descending, then x.

    The pool is every x in [1, x_limit] in a root class of p.  The 2^n roots
    of x^(2^n)+1 mod p^2 are checked to be distinct roots; the derivative is
    a unit, so by Hensel's lemma each root mod p has exactly one lift and
    there are no others.  Hence their residues mod p are all the root
    classes, a member of order >= 2 is one of the few x = R (mod p^2), whose
    orders come by exact division, and every other member has order exactly
    1, checked as x^(2^n) = -1 (mod p).  Those fill the rest, x ascending.
    """
    e, sq, total = 1 << n, p * p, big_n(n)
    lifts = lifted_roots(n, p, 2)
    if len(set(lifts)) != e or any(pow(r, e, sq) != sq - 1 for r in lifts):
        raise CertificateError(f"the lifted roots of x^(2^{n})+1 mod {p}^2 fail their check")
    pool = _by_order(n, p, (x for r in lifts for x in range(r, x_limit + 1, sq)))
    # each root class with its one lift mod p^2, ascending by class
    classes = sorted((r % p, r) for r in lifts)
    for block in range(0, x_limit + 1, p):
        for c, lift in classes:
            x = block + c
            if len(pool) == total or x > x_limit:
                return pool
            if x % sq == lift:
                continue
            if pow(x, e, p) != p - 1:
                raise CertificateError(f"{x} is not a root of x^(2^{n})+1 mod {p}")
            pool.append((x, 1))
    return pool


def iter_realizable_systems(
    n: int, p_limit: int, x_limit: int
) -> Iterator[CongruenceSystem]:
    """One realization of every (prime, partition of big_n(n)) admitting distinct x <= x_limit.

    For each split prime p <= p_limit the x pool is ordered by capacity
    ord_p(x^(2^n)+1) descending (then x ascending).  A partition
    k_1 >= ... >= k_s is realizable iff the i-th pooled capacity covers k_i,
    the Hall condition for this threshold matching; the capacities go to
    enumerate_partitions as caps, so the condition holds by construction and
    no unrealizable partition is generated.  The i-th part goes to the i-th
    pooled x.  A partition has at most big_n(n) parts, so only the pool's
    first big_n(n) entries are built (_top_pool).
    """
    total = big_n(n)
    for p in _split_primes(n, p_limit):
        pool = _top_pool(n, p, x_limit)
        for ks in enumerate_partitions(total, [o for _, o in pool]):
            yield CongruenceSystem.make(
                n, p, tuple((pool[i][0], ks[i]) for i in range(len(ks)))
            )


def counterexample_search(n: int, p_limit: int, x_limit: int) -> CongruenceSystem | None:
    """Search for a system with total order big_n(n) and p > 2(max x_i + 1).

    Exhaustive over split primes p <= p_limit: a violation at p needs its x
    values below (p-2)/2, so it exists iff the orders of x^(2^n)+1 over that
    restricted range sum to at least big_n(n).  That range lies below p, so
    its pool is p's roots mod p within it, each of order >= 1, and the
    pool's first big_n(n) entries decide.  Expected result is None.
    """
    total = big_n(n)
    for p in _split_primes(n, p_limit):
        viol_cap = min(x_limit, (p - 3) // 2)
        pool = _by_order(n, p, [r for r in roots_of_minus_one(n, p) if r <= viol_cap])
        if sum(o for _, o in pool) < total:
            continue
        entries, remaining = [], total
        for x, o in pool:
            k = min(o, remaining)
            entries.append((x, k))
            remaining -= k
            if not remaining:
                break
        return CongruenceSystem.make(n, p, tuple(entries))
    return None


def _iroot(v: int, k: int) -> int:
    """Floor k-th root of v >= 0."""
    if v < 0:
        raise ValueError("negative radicand")
    if v == 0:
        return 0
    r = int(round(v ** (1.0 / k)))
    while r > 0 and r**k > v:
        r -= 1
    while (r + 1) ** k <= v:
        r += 1
    return r


def single_entry_search(n: int, x_limit: int) -> CongruenceSystem | None:
    """Search for p^big_n(n) | x^(2^n)+1 with p > 2(x+1), x <= x_limit.

    The candidate primes for each x are bounded by the big_n(n)-th root of
    x^(2^n)+1, so only small primes are ever tested, and a hit needs one with
    2(x+1) < p <= b_max, so x stops at b_max // 2.  Expected result None.
    """
    total = big_n(n)
    e = 1 << n
    b_max = _iroot(x_limit**e + 1, total)
    primes = _split_primes(n, b_max)
    for x in range(1, min(x_limit, b_max // 2) + 1):
        v = x**e + 1
        b = _iroot(v, total)
        for p in primes:
            if p > b:
                break
            if v % p == 0 and v % p**total == 0 and p > 2 * (x + 1):
                return CongruenceSystem.make(n, p, ((x, total),))
    return None


def _system_doc(system: CongruenceSystem | None) -> dict | None:
    return None if system is None else {"p": system.p, "entries": list(map(list, system.entries))}


def prime_bound_search(n: int, p_limit: int, x_limit: int, single_x_limit: int) -> Check:
    """Search for a violation of p <= 2(max x_i + 1) and certify every realizable system.

    Passes when neither counterexample_search(n, p_limit, x_limit) nor
    single_entry_search(n, single_x_limit) finds one.  Every system of
    iter_realizable_systems gets its certificate from check_prime_bound,
    which raises CertificateError if one fails.  n above PARTITION_MAX_N
    raises InfeasibleSizeError.
    """
    if n > PARTITION_MAX_N:
        raise InfeasibleSizeError(f"cyclotomic supported for n <= {PARTITION_MAX_N}, got n={n}")
    counterexample = counterexample_search(n, p_limit, x_limit)
    systems = 0
    for system in iter_realizable_systems(n, p_limit, x_limit):
        check_prime_bound(system)
        systems += 1
    single = single_entry_search(n, single_x_limit)
    detail = {
        "counterexample": _system_doc(counterexample),
        "single_entry_counterexample": _system_doc(single),
        "systems_certified": systems,
    }
    return Check("prime_bound_search", counterexample is None and single is None, detail)

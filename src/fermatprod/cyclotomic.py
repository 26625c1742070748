"""Exact arithmetic in Z[zeta_{2^k}] and the congruence-system prime bound.

Elements are integer coefficient vectors modulo x^(2^(k-1)) + 1, so ring
multiplication reduces with a sign flip and the norm down to Q is an integer
resultant.  A floating product over the complex embeddings cross-checks every
norm inside a documented magnitude window, but is never the source of truth.

The bound machinery certifies that any system

    x_i^(2^n) + 1 = 0  (mod p^(k_i)),   k_1 >= ... >= k_s,  x_i distinct,

with k_1 + ... + k_s >= big_n(n) forces p <= 2(max x_i + 1), by exhibiting a
nonzero element of a small cyclotomic ring whose rational norm is divisible
by p^(k_r) yet bounded by (2(max x_i + 1))^(2^m).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    CertificateError,
    HypothesisUnmetError,
    InvalidSystemError,
    LevelMismatchError,
    TooFewRootsError,
)
from .ntcore import is_prime, roots_of_minus_one
from .partitions import big_n, enumerate_partitions, r_bound

# Embedding cross-check window: exact norms are compared against the complex
# product only when the inputs are modest enough for doubles to be reliable.
_CROSSCHECK_MAX_LEVEL = 6
_CROSSCHECK_MAX_COEFF = 10**6
_CROSSCHECK_REL_TOL = 1e-6


@dataclass(frozen=True)
class CycInt:
    """Element of Z[zeta_{2^level}] as coefficients of 1, zeta, ..., zeta^(d-1).

    d = 2^(level-1) and zeta^d = -1.  Coefficients are exact integers.
    """

    level: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        d = 1 << (self.level - 1)
        if len(self.coeffs) != d:
            raise ValueError(
                f"level {self.level} needs exactly {d} coefficients, got {len(self.coeffs)}"
            )

    @property
    def degree(self) -> int:
        return 1 << (self.level - 1)

    @classmethod
    def constant(cls, level: int, c: int) -> "CycInt":
        d = 1 << (level - 1)
        return cls(level, (c,) + (0,) * (d - 1))

    @classmethod
    def zeta_power(cls, level: int, e: int) -> "CycInt":
        """zeta_{2^level}^e, reduced by zeta^d = -1."""
        d = 1 << (level - 1)
        e %= 1 << level
        coeffs = [0] * d
        if e < d:
            coeffs[e] = 1
        else:
            coeffs[e - d] = -1
        return cls(level, tuple(coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _coerce(self, other) -> "CycInt":
        if isinstance(other, CycInt):
            return other
        if isinstance(other, int):
            return CycInt.constant(self.level, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return cyc_add(self, other)

    __radd__ = __add__

    def __neg__(self) -> "CycInt":
        return CycInt(self.level, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return cyc_add(self, -other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return cyc_add(other, -self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return cyc_mul(self, other)

    __rmul__ = __mul__


def cyc_add(a: CycInt, b: CycInt) -> CycInt:
    """Exact sum; operands must share a level."""
    if a.level != b.level:
        raise LevelMismatchError(f"levels differ: {a.level} vs {b.level}")
    return CycInt(a.level, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def cyc_mul(a: CycInt, b: CycInt) -> CycInt:
    """Exact product, reduced by zeta^d = -1 (negacyclic convolution)."""
    if a.level != b.level:
        raise LevelMismatchError(f"levels differ: {a.level} vs {b.level}")
    d = a.degree
    out = [0] * d
    for i, ai in enumerate(a.coeffs):
        if not ai:
            continue
        for j, bj in enumerate(b.coeffs):
            if not bj:
                continue
            k = i + j
            if k < d:
                out[k] += ai * bj
            else:
                out[k - d] -= ai * bj
    return CycInt(a.level, tuple(out))


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _prem(A: list[int], B: list[int]) -> list[int]:
    """Pseudo-remainder of A by B: lc(B)^(deg A - deg B + 1) * A reduced mod B."""
    dA, dB = len(A) - 1, len(B) - 1
    lB = B[-1]
    R = list(A)
    for i in range(dA, dB - 1, -1):
        c = R[i]
        for t in range(len(R)):
            R[t] *= lB
        if c:
            off = i - dB
            for t in range(dB + 1):
                R[off + t] -= c * B[t]
    return _trim(R[:dB])


def _resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Resultant of two integer polynomials via the subresultant PRS.

    Fraction-free: every division below is exact over Z.  Coefficient lists
    are little-endian.
    """
    A = _trim(list(f))
    B = _trim(list(g))
    if not A or not B:
        return 0
    sign = 1
    if len(A) < len(B):
        if ((len(A) - 1) * (len(B) - 1)) & 1:
            sign = -sign
        A, B = B, A
    if len(B) == 1:
        return sign * B[0] ** (len(A) - 1)
    g_, h_ = 1, 1
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if (dA & 1) and (dB & 1):
            sign = -sign
        R = _prem(A, B)
        if not R:
            return 0
        A = B
        div = g_ * h_**delta
        B = [c // div for c in R]
        g_ = A[-1]
        if delta:
            h_ = g_**delta // h_ ** (delta - 1)
        if len(B) == 1:
            dA = len(A) - 1
            return sign * B[0] ** dA // h_ ** (dA - 1)


def _embedding_product(a: CycInt) -> complex:
    """Product of a evaluated at every primitive 2^level-th root of unity."""
    order = 1 << a.level
    prod = complex(1.0)
    for t in range(1, order, 2):
        omega = cmath.exp(2j * cmath.pi * t / order)
        val = complex(0.0)
        power = complex(1.0)
        for c in a.coeffs:
            val += c * power
            power *= omega
        prod *= val
    return prod


def _crosscheck(a: CycInt, exact: int) -> None:
    """Compare the exact norm against the embedding product inside the window."""
    if a.level > _CROSSCHECK_MAX_LEVEL:
        return
    s = sum(abs(c) for c in a.coeffs)
    if s == 0 or max(abs(c) for c in a.coeffs) > _CROSSCHECK_MAX_COEFF:
        return
    if a.degree * math.log10(s) > 280:
        return  # float product would overflow; exact path is authoritative
    approx = abs(_embedding_product(a))
    if not math.isclose(approx, abs(exact), rel_tol=_CROSSCHECK_REL_TOL, abs_tol=1e-9):
        raise ArithmeticError(
            f"embedding cross-check failed: exact {exact}, embeddings {approx!r}"
        )


def norm(a: CycInt) -> int:
    """Norm of a down to Q: the resultant of x^d + 1 with a's coefficient polynomial.

    Exact for arbitrary coefficient sizes.  For level >= 2 the norm of a
    nonzero element is strictly positive (embeddings pair up conjugate).
    """
    if a.is_zero():
        return 0
    d = a.degree
    modulus = [1] + [0] * (d - 1) + [1]
    val = _resultant(modulus, list(a.coeffs))
    _crosscheck(a, val)
    return val


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
    p^(k_r) and bounded by 2^(2^m) (x+1)^(2^m).  branch "order": k_r >= 2^n,
    so p^(k_r) <= x_r^(2^n)+1 directly.
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


@dataclass(frozen=True)
class PrimeBoundReport:
    holds: bool
    p: int
    x_max: int
    bound: int
    certificate: BoundCertificate


def _min_level(r: int, n: int) -> int:
    """Smallest m with r >= r_bound(m, n)."""
    return max(0, n - (r - 1).bit_length())


def _root_exponents(n: int, p: int, xs: Sequence[int]) -> list[int]:
    """Odd exponents e_i with w^(e_i) = -x_i (mod p), w the least root of x^(2^n) = -1."""
    rs = roots_of_minus_one(n, p)
    w = rs.roots[0]
    w2 = w * w % p
    exp_of = {}
    cur = w
    for t in range(1, 1 << (n + 1), 2):
        exp_of[cur] = t
        cur = cur * w2 % p
    try:
        return [exp_of[(-x) % p] for x in xs]
    except KeyError as err:
        raise InvalidSystemError(f"{err.args[0]} is not a root class mod {p}") from None


def check_prime_bound(sys: CongruenceSystem) -> PrimeBoundReport:
    """Verify p <= 2(max x_i + 1) and build the numeric certificate for it.

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
    holds = p <= 2 * (x + 1)

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
        level = m + 1
        tp = wit.t >> (n - m)
        B = CycInt.constant(level, x_u) - x_v * CycInt.zeta_power(level, tp)
        nb = abs(norm(B))
        limit = (1 << (1 << m)) * (x + 1) ** (1 << m)
        if nb == 0 or nb % pp or not (pp <= nb <= limit):
            raise CertificateError(
                f"norm-branch chain failed: p^k={pp}, |N(B)|={nb}, limit={limit}"
            )
        if p > 2 * (x + 1):
            raise CertificateError("norm-branch conclusion failed")
        cert = BoundCertificate("norm", r, m, pp, nb, limit, wit.u, wit.v, wit.t)

    if not holds:
        # both branches above would have raised first
        raise CertificateError("certificate verified yet p > 2(x+1)")
    return PrimeBoundReport(holds, p, x, 2 * (x + 1), cert)


def _split_primes(n: int, limit: int) -> Iterator[int]:
    """Primes p <= limit with p = 1 (mod 2^(n+1)), ascending."""
    step = 1 << (n + 1)
    for p in range(step + 1, limit + 1, step):
        if is_prime(p):
            yield p


def _orders_up_to(n: int, p: int, x_limit: int) -> dict[int, int]:
    """ord_p(x^(2^n)+1) for every x <= x_limit in a root class of p."""
    rs = roots_of_minus_one(n, p)
    e = 1 << n
    orders: dict[int, int] = {}
    for r in rs.roots:
        start = r if r >= 1 else r + p
        for x in range(start, x_limit + 1, p):
            v = x**e + 1
            o = 0
            while v % p == 0:
                v //= p
                o += 1
            orders[x] = o
    return orders


def iter_realizable_systems(
    n: int, p_limit: int, x_limit: int
) -> Iterator[CongruenceSystem]:
    """One realization of every (prime, partition of big_n(n)) admitting distinct x <= x_limit.

    For each split prime p <= p_limit the x pool is sorted by capacity
    ord_p(x^(2^n)+1) descending (then x ascending).  A partition
    k_1 >= ... >= k_s is realizable iff the i-th pooled capacity covers k_i,
    the Hall condition for this threshold matching; the capacities go to
    enumerate_partitions as caps, so the condition holds by construction and
    no unrealizable partition is generated.  The i-th part goes to the i-th
    pooled x.
    """
    total = big_n(n)
    for p in _split_primes(n, p_limit):
        pool = sorted(_orders_up_to(n, p, x_limit).items(), key=lambda kv: (-kv[1], kv[0]))
        for part in enumerate_partitions(total, [o for _, o in pool]):
            ks = part.parts
            yield CongruenceSystem.make(
                n, p, tuple((pool[i][0], ks[i]) for i in range(len(ks)))
            )


def counterexample_search(
    n: int,
    p_limit: int,
    x_limit: int,
    trials: int = 0,
    seed: int = 0,
) -> CongruenceSystem | None:
    """Search for a system with total order big_n(n) and p > 2(max x_i + 1).

    Exhaustive over split primes p <= p_limit: a violation at p needs its x
    values below (p-2)/2, so it exists iff the orders of x^(2^n)+1 over that
    restricted range sum to at least big_n(n).  Optional extra trials sample
    random split primes above p_limit (deterministic in seed).  Expected
    result is None.
    """
    total = big_n(n)

    def probe(p: int) -> CongruenceSystem | None:
        viol_cap = min(x_limit, (p - 3) // 2)
        if viol_cap < 1:
            return None
        orders = _orders_up_to(n, p, viol_cap)
        if sum(orders.values()) < total:
            return None
        entries = []
        remaining = total
        for x, o in sorted(orders.items(), key=lambda kv: (-kv[1], kv[0])):
            k = min(o, remaining)
            entries.append((x, k))
            remaining -= k
            if not remaining:
                break
        return CongruenceSystem.make(n, p, tuple(entries))

    for p in _split_primes(n, p_limit):
        found = probe(p)
        if found is not None:
            return found

    if trials:
        rng = random.Random(seed)
        step = 1 << (n + 1)
        lo, hi = p_limit // step + 1, (1 << 40) // step
        done = 0
        while done < trials:
            p = step * rng.randrange(lo, hi) + 1
            if not is_prime(p):
                continue
            done += 1
            found = probe(p)
            if found is not None:
                return found
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
    x^(2^n)+1, so only small primes are ever tested.  Expected result None.
    """
    total = big_n(n)
    e = 1 << n
    b_max = _iroot(x_limit**e + 1, total)
    primes = list(_split_primes(n, b_max))
    for x in range(1, x_limit + 1):
        v = x**e + 1
        b = _iroot(v, total)
        for p in primes:
            if p > b:
                break
            if v % p == 0 and v % p**total == 0 and p > 2 * (x + 1):
                return CongruenceSystem.make(n, p, ((x, total),))
    return None


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

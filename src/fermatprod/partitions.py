"""Partition combinatorics behind the prime-order thresholds.

The central quantity is big_n(n) = n*2^(n-1) + 1: the least total such that
every partition k_1 >= ... >= k_s of it has an index r with

    r >= floor(2^(n - floor(log2 k_r) - 1)) + 1.

A partition is a plain tuple of its parts, non-increasing and positive.
Minimality is proved by a counting argument over the extreme partition's
caps, never by listing partitions.  enumerate_partitions lists the
partitions of a total that fit under per-index caps; the cyclotomic search
passes a prime's pool capacities, so it generates only the systems that
prime can realize.  All log2 computations use bit lengths, never floating
point.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import InfeasibleSizeError

# extreme_partition builds 2^(n-1) + 1 parts; proving n = 20 minimal takes 0.6 s.
PARTITION_MAX_N = 20


def r_bound(m: int, n: int) -> int:
    """Minimal root count R(m, n) = floor(2^(n-m-1)) + 1, which is 1 for m >= n."""
    if m < 0 or n < 1:
        raise ValueError(f"need m >= 0 and n >= 1, got m={m}, n={n}")
    if m >= n:
        return 1
    return (1 << (n - m - 1)) + 1


def big_n(n: int) -> int:
    """The forcing total n * 2^(n-1) + 1."""
    if n < 1:
        raise ValueError(f"exponent level must be >= 1, got {n}")
    return n * (1 << (n - 1)) + 1


def _check_parts(parts: tuple[int, ...]) -> None:
    """Refuse, with ValueError, parts that are empty, not positive or not non-increasing."""
    if not parts:
        raise ValueError("partition needs at least one part")
    for prev, k in zip((parts[0], *parts), parts):
        if k < 1:
            raise ValueError(f"parts must be positive, got {k}")
        if k > prev:
            raise ValueError(f"parts must be non-increasing, got {parts}")


def condition_witness(parts: Iterable[int], n: int) -> int | None:
    """The smallest index r with r >= r_bound(floor(log2 k_r), n), 1-based, or None.

    Accepts any non-increasing sequence of positive parts, and refuses any
    other with ValueError; None means the partition does not satisfy the
    condition.
    """
    seq = tuple(parts)
    _check_parts(seq)
    for r, k in enumerate(seq, start=1):
        if r >= r_bound(k.bit_length() - 1, n):
            return r
    return None


def extreme_partition(n: int) -> tuple[int, ...]:
    """The unique partition of big_n(n) that satisfies the condition only at its last part.

    It has s = 2^(n-1) + 1 parts: k_r = 2^(n - ceil(log2 r)) - 1 for r < s and
    k_s = 1.  n above PARTITION_MAX_N raises InfeasibleSizeError.
    """
    if n < 1:
        raise ValueError(f"exponent level must be >= 1, got {n}")
    if n > PARTITION_MAX_N:
        raise InfeasibleSizeError(f"partitions supported for n <= {PARTITION_MAX_N}, got n={n}")
    s = (1 << (n - 1)) + 1
    parts = [(1 << (n - (r - 1).bit_length())) - 1 for r in range(1, s)]
    parts.append(1)
    return tuple(parts)


def enumerate_partitions(
    total: int, caps: Sequence[int] | None = None
) -> Iterator[tuple[int, ...]]:
    """Every partition of total exactly once, as a tuple, in reverse lexicographic order.

    caps, if given, is a non-increasing bound per index: only partitions
    with at most len(caps) parts and k_i <= caps[i] are generated, in the
    same order as the unbounded listing.  A prefix whose remainder cannot fit
    in the room the remaining caps leave is never extended, so the cost
    follows the partitions yielded, not all partitions of total.

    The step is the one of algorithm ZS1 (Zoghbi and Stojmenovic, 1998):
    h indexes the last part above 1, a trailing 2 splits into 1 + 1 in place,
    and any other step lowers the rightmost part it can by one and refills
    the rest greedily.
    """
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if caps is None:
        bound = [total] * total
    else:
        if any(c < 0 for c in caps) or any(x < y for x, y in zip(caps, caps[1:])):
            raise ValueError(f"caps must be non-negative and non-increasing, got {caps}")
        bound = [min(c, total) for c in caps[:total] if c]
    size = len(bound)
    # fits[v]: how many leading indices admit a part v; room[j]: sum(bound[j:])
    fits = [size] * (total + 1)
    room = [0] * (size + 1)
    for j in range(size - 1, -1, -1):
        room[j] = room[j + 1] + bound[j]
    j = 0
    for v in range(total, 0, -1):
        while j < size and bound[j] >= v:
            j += 1
        fits[v] = j
    if room[0] < total:
        return
    a: list[int] = []
    h, k, v, rem = -1, -1, total, total
    while True:
        # refill indices k+1.. with rem, parts at most v, largest first
        j = k + 1
        while True:
            c = bound[j] if bound[j] < v else v
            if c >= rem:
                a.append(rem)
                if rem > 1:
                    h = j
                break
            q = rem // c
            if q > fits[c] - j:
                q = fits[c] - j
            a += [c] * q
            rem -= q * c
            j += q
            if c > 1:
                h = j - 1
            if not rem:
                break
            v = c
        yield tuple(a)
        while h >= 0 and a[h] == 2 and len(a) < size:
            a[h] = 1
            a.append(1)
            h -= 1
            yield tuple(a)
        if h < 0:
            return
        # lower the rightmost part whose remainder still fits after it
        k = h
        rem = len(a) - k
        while True:
            v = a[k] - 1
            f = fits[v]
            if rem <= (v * (f - k - 1) + room[f] if f > k + 1 else room[k + 1]):
                break
            rem += a[k]
            k -= 1
            if k < 0:
                return
        a[k] = v
        del a[k + 1 :]
        h = k if v > 1 else k - 1


def verify_minimality(n: int) -> bool:
    """Prove by counting that big_n(n) is the least forcing total.

    The caps c_r are the extreme partition without its last part.  As
    r_bound falls with m, a part k_r fails at index r iff k_r <= c_r, and a
    partition of r_bound(0, n) or more parts meets the condition at its last
    index; so a failing partition has total at most sum(c_r) = big_n(n) - 1.
    The caps themselves fail, so big_n(n) - 1 does not force.
    """
    caps = extreme_partition(n)[:-1]
    falling = all(r_bound(m + 1, n) <= r_bound(m, n) for m in range(n))
    tight = all(
        r_bound(c.bit_length() - 1, n) > r >= r_bound((c + 1).bit_length() - 1, n)
        for r, c in enumerate(caps, start=1)
    )
    return (
        falling
        and tight
        and r_bound(0, n) == len(caps) + 1
        and sum(caps) == big_n(n) - 1
        and condition_witness(caps, n) is None
    )

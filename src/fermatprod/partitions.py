"""Partition combinatorics behind the prime-order thresholds.

The central quantity is big_n(n) = n*2^(n-1) + 1: the least total such that
every partition k_1 >= ... >= k_s of it has an index r with

    r >= floor(2^(n - floor(log2 k_r) - 1)) + 1.

Minimality is proved by a counting argument over the extreme partition's
caps, never by listing partitions; enumerate_partitions serves the
cyclotomic search.  All log2 computations use bit lengths, never floating
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InfeasibleSizeError

# extreme_partition builds 2^(n-1) + 1 parts; proving n = 20 minimal takes 0.6 s.
PARTITION_MAX_N = 20


@dataclass(frozen=True)
class Partition:
    """Non-increasing positive integer parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("partition needs at least one part")
        prev = None
        for k in self.parts:
            if k < 1:
                raise ValueError(f"parts must be positive, got {k}")
            if prev is not None and k > prev:
                raise ValueError(f"parts must be non-increasing, got {self.parts}")
            prev = k

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the threshold condition on a partition.

    thresholds[i] is the required index bound for part i+1, recorded for
    every examined index (all of them when unsatisfied, up to the witness
    otherwise).  witness_r is the smallest satisfying index, 1-based.
    """

    satisfied: bool
    witness_r: int | None
    thresholds: tuple[int, ...]


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


def satisfies_condition(parts: Iterable[int], n: int) -> ConditionReport:
    """Check r >= r_bound(floor(log2 k_r), n) for some index r.

    Accepts a Partition or any non-increasing sequence of positive parts.
    The witness is the smallest satisfying r.
    """
    seq = tuple(parts)
    Partition(seq)  # validate shape
    thresholds = []
    for r, k in enumerate(seq, start=1):
        thr = r_bound(k.bit_length() - 1, n)
        thresholds.append(thr)
        if r >= thr:
            return ConditionReport(True, r, tuple(thresholds))
    return ConditionReport(False, None, tuple(thresholds))


def extreme_partition(n: int) -> Partition:
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
    return Partition(tuple(parts))


def enumerate_partitions(total: int) -> Iterator[Partition]:
    """Every partition of total exactly once, reverse lexicographic order."""
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    a = [total]
    while True:
        yield Partition(tuple(a))
        k = len(a) - 1
        while k >= 0 and a[k] == 1:
            k -= 1
        if k < 0:
            return
        rem = len(a) - 1 - k + 1
        a[k] -= 1
        cap = a[k]
        del a[k + 1 :]
        while rem:
            t = cap if cap < rem else rem
            a.append(t)
            rem -= t


def verify_minimality(n: int) -> bool:
    """Prove by counting that big_n(n) is the least forcing total.

    The caps c_r are the extreme partition without its last part.  As
    r_bound falls with m, a part k_r fails at index r iff k_r <= c_r, and a
    partition of r_bound(0, n) or more parts meets the condition at its last
    index; so a failing partition has total at most sum(c_r) = big_n(n) - 1.
    The caps themselves fail, so big_n(n) - 1 does not force.
    """
    caps = extreme_partition(n).parts[:-1]
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
        and not satisfies_condition(caps, n).satisfied
    )

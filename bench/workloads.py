"""Seeded command lists for the three benchmark workloads.

Each workload is a list of fermatprod argv lists that depends only on the
seed.  Sizes are drawn stratified: the range of a size (on a log scale, but
linear for the cyclotomic limits) is cut into equal strata and each stratum
gets exactly one draw.  A list then holds the same spread of small and large
commands for every seed, so its total work, and the percentiles of its
latencies, barely move from seed to seed while every size is still random.

No usage data says how often users run each command.  The mix is therefore
an assumption, the plainest one: every command kind a workload names gets
the same number of commands, and the percentiles fall wherever that mix
puts them.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("orders", "certify", "sieve")

# orders: (n, largest m), each level with ORDERS_PER_LEVEL commands.
# orders 100000 2 is left out: at 142 s it is longer than a whole run.
ORDERS_LEVELS = ((1, 100_000), (2, 10_000), (3, 500))
ORDERS_PER_LEVEL = 40

# certify: commands of each command form the workload names: chain 2,
# partitions n for n = 1..4, cyclotomic --n k for k = 2..4, analytic
# crossing and margin, and verify-all, eleven kinds in all.  Even, so that
# the cyclotomic limits pair up in mirrored draws.
CERTIFY_PER_KIND = 10

# Commands with known wrong verdicts: chain 1 and chain 3 pass without a
# proof, chain 4 exits 2 on valid input, and the cyclotomic search raises
# OverflowError.  They run untimed after the list of every certify pass and
# are reported on their own (see run.py), so they stay visible until fixed
# without making the timed list fail.
DEFECT_PROBES = (
    ["chain", "1", "--json"],
    ["chain", "3", "--json"],
    ["chain", "4", "--json"],
    ["cyclotomic", "--n", "6", "--single-x-limit", "100000", "--json"],
)

# sieve: the distinct limits sit near a fixed log-spaced ladder from 1e7 to
# 1e8, at most 1% below each rung.  Four limits fit get_sieve's 4-entry
# cache, so each is built once and every other query is a cache hit.
SIEVE_LADDER = (10**7, 21_544_347, 46_415_888, 10**8)
SIEVE_COMMANDS = 104


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One log-uniform draw from the middle half of each of count equal log-strata of [lo, hi].

    Keeping to the middle half halves how far the k-th largest size, and so a
    latency percentile, moves from seed to seed.
    """
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / count
    return [math.exp(a + width * (i + rng.uniform(0.25, 0.75))) for i in range(count)]


def orders_commands(rng: random.Random) -> list[list[str]]:
    cmds = []
    for n, m_max in ORDERS_LEVELS:
        for v in _strata(rng, 1, m_max, ORDERS_PER_LEVEL):
            m = min(m_max, max(1, int(v)))
            cmds.append(["orders", str(m), str(n), "--json", "--dump-alpha"])
    rng.shuffle(cmds)
    return cmds


def certify_commands(rng: random.Random) -> list[list[str]]:
    k = CERTIFY_PER_KIND
    cmds = [["chain", "2", "--json"] for _ in range(k)]
    cmds += [["verify-all", "--json"] for _ in range(k)]
    for n in range(1, 5):
        cmds += [["partitions", str(n), "--verify-minimality", "--json"] for _ in range(k)]
    # Work grows about linearly with the limits, so they are stratified on a
    # linear scale, and strata i and k-1-i take mirrored draws u and 1-u:
    # their limits then sum to the same total for every seed.  As in
    # _strata, each draw keeps to the middle half of its stratum.
    width = (20_000 - 300) / k
    for n in (2, 3, 4):
        for i in range(k // 2):
            u, r = rng.uniform(0.25, 0.75), rng.uniform(0.5, 0.6)
            for stratum, draw, ratio in ((i, u, r), (k - 1 - i, 1 - u, 1.1 - r)):
                p_limit = int(300 + width * (stratum + draw))
                cmds.append(
                    ["cyclotomic", "--n", str(n), "--p-limit", str(p_limit),
                     "--x-limit", str(int(p_limit * ratio)), "--json"]
                )
    for _ in range(k):
        cmds.append(["analytic", "--check", "crossing", "--n", str(rng.randint(2, 6)), "--json"])
    for m in _strata(rng, 10**3, 10**13, k):
        cmds.append(
            ["analytic", "--check", "margin", "--m", str(int(m)),
             "--n", str(rng.randint(2, 6)), "--json"]
        )
    rng.shuffle(cmds)
    return cmds


def sieve_commands(rng: random.Random) -> list[list[str]]:
    limits = [int(rung * rng.uniform(0.99, 1.0)) for rung in SIEVE_LADDER]
    kinds = ("pi", "bt", "logsum", "theta")
    # The first touch of each limit builds its sieve, in ascending order; then
    # the (kind, limit) pairs take turns.  Only the values are seeded, not the
    # order: which arrays are alive together, and so peak_rss_mb, depends on
    # the order.
    slots = [(kinds[i], limit) for i, limit in enumerate(limits)]
    slots += [(kinds[i % 4], limits[i // 4 % 4]) for i in range(SIEVE_COMMANDS - len(limits))]
    cmds: list[list[str]] = [[] for _ in slots]
    for kind, limit in sorted(set(slots)):
        group = [i for i, slot in enumerate(slots) if slot == (kind, limit)]
        # Every other bt query samples its default grid instead of one x, and
        # the builds take their default samples, so that the memory left
        # behind by the queries before the largest build is the same for
        # every seed.
        takes_x = [i for j, i in enumerate(group) if i >= len(limits) and (kind != "bt" or j % 2)]
        xs = [max(10**6, int(v)) for v in _strata(rng, 10**6, limit, len(takes_x))]
        rng.shuffle(xs)
        x_of = dict(zip(takes_x, xs))
        for i in group:
            cmd = ["analytic", "--check", kind]
            if kind == "bt":
                cmd += ["--n", str(rng.choice((2, 3)))]
            elif kind in ("logsum", "theta"):
                cmd += ["--a", str(rng.choice((1, 3, 5, 7)))]
            if i in x_of:
                cmd += ["--x", str(x_of[i])]
            cmds[i] = cmd + ["--limit", str(limit), "--json"]
    return cmds


def commands(workload: str, seed: int) -> list[list[str]]:
    """The seeded command list of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "orders":
        return orders_commands(rng)
    if workload == "certify":
        return certify_commands(rng)
    if workload == "sieve":
        return sieve_commands(rng)
    raise ValueError(f"unknown workload {workload!r}")

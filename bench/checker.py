"""Independent checks of fermatprod's command-line output.

Nothing here imports fermatprod: every fact a verdict rests on is recomputed
with sympy, numpy and exact integer arithmetic.  A command is accepted only
if it exited 0 or 1, printed one canonical JSON object whose payload is
right, and its "pass" equals the verdict the checker proves on its own, so
"pass: true" without a proof is rejected as surely as a wrong number.
"""

from __future__ import annotations

import argparse
import json
import math
from functools import lru_cache
from math import isqrt

import numpy as np
import sympy
from sympy.ntheory import nthroot_mod
from sympy.utilities.iterables import partitions as sympy_partitions

SCHEMA = "fermatprod.report/1"
QUARTIC_COVER = 2_873_716_602_918
MARGIN_EPS = 1e-9
REL_TOL = 1e-12
SIEVE_CHECKS = ("pi", "bt", "logsum", "theta")
VERIFY_ALL_SIEVE = 10**7


class Rejected(Exception):
    """The output is wrong or its verdict is not backed by a proof."""


def _expect(cond: bool, why: str) -> None:
    if not cond:
        raise Rejected(why)


def _close(got: float, want: float, what: str) -> None:
    _expect(math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-9), f"{what}: {got} != {want}")


def _scaled_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        return int(float(text))


def _parser() -> argparse.ArgumentParser:
    """The subset of the fermatprod command line the workloads generate, with its defaults."""
    parser = argparse.ArgumentParser(add_help=False)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")
    common.add_argument("--long", action="store_true")
    p = sub.add_parser("orders", parents=[common])
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--dump-alpha", action="store_true")
    p = sub.add_parser("chain", parents=[common])
    p.add_argument("n", type=int)
    p.add_argument("--max-links", type=int, default=12)
    p = sub.add_parser("partitions", parents=[common])
    p.add_argument("n", type=int)
    p.add_argument("--verify-minimality", action="store_true")
    p = sub.add_parser("cyclotomic", parents=[common])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--p-limit", type=int, default=300)
    p.add_argument("--x-limit", type=int, default=200)
    p.add_argument("--single-x-limit", type=int, default=2000)
    p = sub.add_parser("analytic", parents=[common])
    p.add_argument("--check", required=True)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=_scaled_int, default=10**12)
    p.add_argument("--x", type=_scaled_int, action="append", default=[])
    p.add_argument("--limit", type=_scaled_int, default=10**7)
    sub.add_parser("verify-all", parents=[common])
    return parser


_PARSER = _parser()


# --- exact arithmetic, written independently of the package ------------------


def tree_prod(vals: list[int]) -> int:
    """Product by a balanced tree, so big factors meet big factors."""
    if not vals:
        return 1
    while len(vals) > 1:
        vals = [math.prod(vals[i : i + 2]) for i in range(0, len(vals), 2)]
    return vals[0]


def big_n(n: int) -> int:
    return n * 2 ** (n - 1) + 1


def valuation(v: int, p: int) -> int:
    k = 0
    while v % p == 0:
        v //= p
        k += 1
    return k


def split_primes(n: int, limit: int) -> list[int]:
    """Primes p <= limit with p = 1 mod 2^(n+1)."""
    step = 2 ** (n + 1)
    return [p for p in range(step + 1, limit + 1, step) if sympy.isprime(p)]


def roots_mod(n: int, p: int) -> list[int]:
    """All r in [0, p) with r^(2^n) = -1 mod p, ascending."""
    return sorted(nthroot_mod(p - 1, 2**n, p, all_roots=True) or [])


def condition_index(parts: list[int], n: int) -> int | None:
    """Smallest 1-based r with r >= R(floor(log2 k_r), n), or None."""
    for r, k in enumerate(parts, start=1):
        m = k.bit_length() - 1
        need = 1 if m >= n else 2 ** (n - m - 1) + 1
        if r >= need:
            return r
    return None


def extreme_partition(n: int) -> list[int]:
    """k_r = 2^(n - ceil(log2 r)) - 1 for r <= 2^(n-1), then a final 1."""
    return [2 ** (n - (r - 1).bit_length()) - 1 for r in range(1, 2 ** (n - 1) + 1)] + [1]


@lru_cache(maxsize=None)
def partition_matrix(total: int) -> np.ndarray:
    """Every partition of total as a zero-padded row of non-increasing parts."""
    rows = []
    for counts in sympy_partitions(total):
        parts = sorted((k for k, c in counts.items() for _ in range(c)), reverse=True)
        rows.append(parts + [0] * (total - len(parts)))
    return np.array(rows, dtype=np.int64)


@lru_cache(maxsize=None)
def minimality(n: int) -> bool:
    """Every partition of big_n(n) meets the condition; the truncated extreme one does not."""
    mat = partition_matrix(big_n(n))
    for row in mat.tolist():
        if condition_index([k for k in row if k], n) is None:
            return False
    return condition_index(extreme_partition(n)[:-1], n) is None


def margin_sides(m: int, n: int) -> tuple[float, float]:
    lhs = 3.0 * (0.245 * math.log(m) - 3.15)
    ratio = (m + 1) / (m - 1)
    rhs = 2.2 * m / (m - 1) + ratio * math.log(2) / 2 ** (n + 1) + 8.0 * ratio
    return lhs, rhs


@lru_cache(maxsize=None)
def crossing(n: int) -> int:
    """Least m past which the closing inequality holds (its difference increases in m)."""

    def holds(m: int) -> bool:
        lhs, rhs = margin_sides(m, n)
        return lhs > rhs

    lo, hi = 2, 10**13
    if holds(lo):
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def odd_sieve(limit: int) -> np.ndarray:
    """Primes <= limit from a sieve over the odd numbers only."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones((limit - 1) // 2, dtype=bool)  # index i stands for 2i + 3
    for i in range((isqrt(limit) - 1) // 2):
        if flags[i]:
            p = 2 * i + 3
            flags[(p * p - 3) // 2 :: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(flags) + 3)).astype(np.int64)


def bound_status(margin: float) -> str:
    if margin > MARGIN_EPS:
        return "pass"
    return "fail" if margin < -MARGIN_EPS else "ambiguous"


def bound_grid(lo: int, hi: int, points: int = 10) -> list[int]:
    """The default sample grid of the Brun-Titchmarsh check."""
    xs = np.geomspace(lo, hi, points)
    return sorted({max(lo, min(hi, int(round(v)))) for v in xs})


def link_error(anchor: int, n: int, p: int, next_roots: list[int], cover_hi: int) -> str | None:
    """Why the link is invalid, or None if it proves ord_p(P(m, n)) <= 2^n on [anchor, cover_hi]."""
    e = 2**n
    if anchor < 2 or anchor % 2:
        return f"anchor {anchor} is not even"
    if p != anchor**e + 1 or not sympy.isprime(p):
        return f"{p} is not the prime {anchor}^{e}+1"
    roots = roots_mod(n, p)
    if len(roots) != e or roots[0] != anchor:
        return f"anchor {anchor} is not the least root mod {p}"
    nxt = sorted(r + p if r <= anchor else r for r in roots)
    if nxt != list(next_roots):
        return f"next roots {next_roots} should be {nxt}"
    for x in nxt[:-1]:
        if (x**e + 1) % (p * p) == 0:
            return f"ord_{p}({x}^{e}+1) exceeds 1"
    if cover_hi != nxt[-1] - 1:
        return f"cover_hi {cover_hi} should be {nxt[-1] - 1}"
    return None


@lru_cache(maxsize=None)
def quartic_links() -> tuple:
    """(anchor, p, next roots, cover_hi) of the two quartic links, recomputed."""
    links = []
    for anchor in (6, 1302):
        p = anchor**4 + 1
        nxt = sorted(r + p if r <= anchor else r for r in roots_mod(2, p))
        bad = link_error(anchor, 2, p, nxt, nxt[-1] - 1)
        _expect(bad is None, str(bad))
        links.append((anchor, p, nxt, nxt[-1] - 1))
    return tuple(links)


@lru_cache(maxsize=None)
def cyclotomic_facts(n: int, p_limit: int, x_limit: int, single_limit: int) -> tuple:
    """(violation exists, single-entry violation exists, realizable systems)."""
    e, total = 2**n, big_n(n)
    mat = partition_matrix(total)
    violation, systems = False, 0
    for p in split_primes(n, p_limit):
        roots = roots_mod(n, p)
        # x <= (p - 3) / 2 < p: at most one x per root class
        cap = min(x_limit, (p - 3) // 2)
        if sum(valuation(r**e + 1, p) for r in roots if 1 <= r <= cap) >= total:
            violation = True
        orders = [valuation(x**e + 1, p) for r in roots for x in range(r, x_limit + 1, p)]
        caps = sorted(orders, reverse=True)[:total]
        caps += [0] * (total - len(caps))
        systems += int(np.all(mat <= np.array(caps), axis=1).sum())
    b_max = sympy.integer_nthroot(single_limit**e + 1, total)[0]
    single = any(
        (x**e + 1) % p**total == 0
        for p in split_primes(n, b_max)
        for x in range(1, min(single_limit, (p - 3) // 2) + 1)
    )
    return violation, single, systems


# --- the checker ---------------------------------------------------------------


class Checker:
    """Accepts or rejects each command's outcome; facts and verdicts are memoized."""

    def __init__(self) -> None:
        self._primes = np.zeros(0, dtype=np.int64)
        self._sieved = 1
        self._memo: dict[tuple, str | None] = {}
        # tables of one level share most of their primes
        self._proved_primes: set[int] = set()

    def reason(self, argv: list[str], outcome: dict) -> str | None:
        """None if the outcome is right, otherwise why the command failed.

        outcome holds "rc" (exit code, None if it raised), "out", "err" and
        "raised" (the exception text or None).
        """
        key = (tuple(argv), outcome["rc"], outcome["out"], outcome["raised"])
        if key not in self._memo:
            try:
                self._check(argv, outcome)
                self._memo[key] = None
            except Rejected as why:
                self._memo[key] = str(why)
            except (KeyError, IndexError, TypeError, AttributeError) as err:
                self._memo[key] = f"malformed output: {type(err).__name__}: {err}"
        return self._memo[key]

    def primes_upto(self, x: int) -> np.ndarray:
        """Primes <= x from the checker's own sieve, grown on demand."""
        if x > self._sieved:
            self.reserve(x)
        return self._primes[: np.searchsorted(self._primes, x, side="right")]

    def reserve(self, limit: int) -> None:
        """Sieve up to limit once, ahead of a list of checks."""
        if limit <= self._sieved:
            return
        primes = odd_sieve(limit)
        if len(primes) != sympy.primepi(limit):
            raise RuntimeError(f"checker sieve disagrees with sympy.primepi at {limit}")
        self._primes, self._sieved = primes, limit

    @staticmethod
    def sieve_need(argv: list[str]) -> int:
        """Largest integer whose primality a check of argv needs from the sieve."""
        args = _PARSER.parse_args(argv)
        if args.command == "verify-all":
            return VERIFY_ALL_SIEVE
        if args.command == "analytic" and args.check in SIEVE_CHECKS:
            return max([args.limit, *args.x])
        return 1

    def _check(self, argv: list[str], outcome: dict) -> None:
        _expect(outcome["raised"] is None, f"raised {outcome['raised']}")
        rc = outcome["rc"]
        _expect(rc in (0, 1), f"exit {rc} on valid input: {outcome['err'].strip()[:200]}")
        try:
            doc = json.loads(outcome["out"])
        except ValueError:
            raise Rejected("stdout is not one JSON object") from None
        args = _PARSER.parse_args(argv)
        _expect(doc.get("schema") == SCHEMA, "wrong schema")
        _expect(doc.get("command") == args.command, "wrong command")
        _expect(doc["pass"] is (rc == 0), "exit code disagrees with pass")
        want = getattr(self, "_" + args.command.replace("-", "_"))(args, doc)
        if doc["pass"] and not want:
            raise Rejected("pass: true is not backed by a proof")
        _expect(doc["pass"] == want, "pass: false for a claim that holds")

    # Each method below checks a payload and returns the verdict it proves.

    def _orders(self, a, doc) -> bool:
        m, n = a.m, a.n
        e, step = 2**n, 2 ** (n + 1)
        q = a.q if a.q is not None else big_n(n)
        pay = doc["payload"]
        _expect(doc["params"] == {"m": m, "n": n, "q": q}, "wrong params")
        _expect((pay["m"], pay["n"], pay["q"]) == (m, n, q), "wrong m, n or q")
        alpha = {int(p): k for p, k in pay["alpha"].items()}
        for p, k in alpha.items():
            _expect(k >= 1, f"alpha_{p} = {k}")
            _expect(p == 2 or p % step == 1, f"{p} is neither 2 nor 1 mod {step}")
            if p not in self._proved_primes:
                _expect(sympy.isprime(p), f"{p} is not prime")
                self._proved_primes.add(p)
        product = tree_prod([x**e + 1 for x in range(1, m + 1)])
        table = tree_prod([p**k for p, k in alpha.items()])
        _expect(table == product, "table does not multiply to P(m, n)")
        _expect(pay["distinct_primes"] == len(alpha), "wrong distinct_primes")
        p_min, k_min = min(alpha.items(), key=lambda pk: (pk[1], pk[0]))
        _expect(pay["min_order"] == [p_min, k_min], "wrong min_order")
        obstructed = any(k % q for k in alpha.values())
        _expect(pay["qth_power_obstructed"] is obstructed, "wrong qth_power_obstructed")
        _expect(pay["is_perfect_qth_power"] is (not obstructed), "wrong is_perfect_qth_power")
        # a float estimate of log2 P(m, n) + 1; rounding may move it by one
        _expect(abs(pay["product_bits_approx"] - product.bit_length()) <= 1, "wrong product_bits_approx")
        return True

    def _chain(self, a, doc) -> bool:
        n = a.n
        _expect(doc["params"] == {"n": n}, "wrong params")
        if n == 2:
            return self._quartic(doc["payload"])
        pay = doc["payload"]
        trivial = n * 2**n  # ord_2 P(m, n) = ceil(m/2) <= n 2^(n-1) exactly for m <= n 2^n
        _expect(pay["trivial_through"] == trivial, "wrong trivial_through")
        frontier = trivial
        for link in pay["links"]:
            _expect(link["anchor"] <= frontier + 1, f"gap before anchor {link['anchor']}")
            bad = link_error(link["anchor"], n, link["p"], link["next_roots"], link["cover_hi"])
            _expect(bad is None, str(bad))
            frontier = max(frontier, link["cover_hi"])
        _expect(pay["covered_through"] == frontier, "wrong covered_through")
        # the links bound some order by 2^n; the claim needs n 2^(n-1)
        sufficient = 2**n <= n * 2 ** (n - 1)
        _expect(pay["bound_sufficient"] is sufficient, "wrong bound_sufficient")
        _expect((pay["order_bound_proved"], pay["order_bound_needed"]) == (2**n, n * 2 ** (n - 1)),
                "wrong order bounds")
        return sufficient and pay["gap"] is None and frontier + 1 >= crossing(n)

    def _quartic(self, pay) -> bool:
        steps = {s["name"]: s for s in pay["steps"]}
        _expect(
            list(steps)
            == ["tiny_range_ord2", "link_anchor_6", "link_anchor_1302", "asymptotic_handoff"],
            "wrong steps",
        )
        ord2 = [valuation(tree_prod([x**4 + 1 for x in range(1, m + 1)]), 2) for m in range(1, 6)]
        _expect(steps["tiny_range_ord2"]["detail"] == {"ord2": ord2}, "wrong ord2")
        frontier = 5 if all(1 <= o <= 4 for o in ord2) else 0
        for anchor, p, nxt, cover_hi in quartic_links():
            detail = steps[f"link_anchor_{anchor}"]["detail"]
            _expect(detail == {"p": p, "next_roots": nxt, "cover_hi": cover_hi}, f"wrong link {anchor}")
            if anchor <= frontier + 1:
                frontier = cover_hi
        _expect(frontier == QUARTIC_COVER, f"chain covers only through {frontier}")
        _expect(pay["covered_through"] == QUARTIC_COVER, "wrong covered_through")
        handoff = steps["asymptotic_handoff"]["detail"]
        _expect(handoff == {"crossing": crossing(2), "chain_cover_hi": QUARTIC_COVER}, "wrong handoff")
        proved = crossing(2) <= 10**12 and crossing(2) <= frontier + 1
        _expect(all(s["pass"] for s in steps.values()) == proved, "wrong step verdicts")
        return proved

    def _partitions(self, a, doc) -> bool:
        n = a.n
        pay = doc["payload"]
        extreme = extreme_partition(n)
        _expect(doc["params"] == {"n": n}, "wrong params")
        _expect(pay["forcing_total"] == big_n(n), "wrong forcing_total")
        _expect(pay["extreme_partition"] == extreme, "wrong extreme_partition")
        _expect(pay["extreme_total"] == sum(extreme) == big_n(n), "wrong extreme_total")
        witness = condition_index(extreme, n)
        _expect(pay["condition_witness_r"] == witness, "wrong condition_witness_r")
        proved = witness == len(extreme)
        if a.verify_minimality:
            _expect(pay["minimality_verified"] is minimality(n), "wrong minimality_verified")
            proved = proved and minimality(n)
        return proved

    def _cyclotomic(self, a, doc) -> bool:
        pay = doc["payload"]
        params = {
            "n": a.n, "p_limit": a.p_limit, "x_limit": a.x_limit, "single_x_limit": a.single_x_limit
        }
        _expect(doc["params"] == params, "wrong params")
        violation, single, systems = cyclotomic_facts(a.n, a.p_limit, a.x_limit, a.single_x_limit)
        _expect((pay["counterexample"] is not None) == violation, "wrong counterexample")
        _expect((pay["single_entry_counterexample"] is not None) == single, "wrong single-entry result")
        _expect(pay["systems_certified"] == systems, f"systems_certified should be {systems}")
        return not violation and not single

    def _analytic(self, a, doc) -> bool:
        pay = doc["payload"]
        if a.check == "crossing":
            m_star = crossing(a.n)
            want = {"n": a.n, "crossing": m_star, "within_10^12": m_star <= 10**12}
            _expect(pay == want, "wrong crossing")
            return m_star <= 10**12
        if a.check == "margin":
            lhs, rhs = margin_sides(a.m, a.n)
            _close(pay["lhs"], lhs, "margin lhs")
            _close(pay["rhs"], rhs, "margin rhs")
            _expect(pay["contradiction"] is (lhs > rhs), "wrong contradiction")
            return True
        limit = max([a.limit, *a.x])
        _expect(doc["params"] == {"check": a.check, "limit": limit}, "wrong params")
        records = pay["records"]
        if a.check == "pi":
            xs = a.x or sorted({10**6, limit})
            want = [(x, float(sympy.primepi(x)), 1.1 * x / math.log(x)) for x in xs]
            margins = [rhs - lhs for _, lhs, rhs in want]
        elif a.check == "bt":
            q, lo = 2 ** (a.n + 1), 4 ** (a.n + 1)
            xs = a.x or bound_grid(lo, limit)
            want = []
            for x in xs:
                ps = self.primes_upto(x)
                want.append((x, float(np.count_nonzero(ps % q == 1)), 4.0 * x / (2**a.n * math.log(x))))
            margins = [rhs - lhs for _, lhs, rhs in want]
        elif a.check == "logsum":
            x = a.x[0] if a.x else 10**6
            sel = self.primes_upto(x)
            sel = sel[sel % 8 == a.a].astype(np.float64)
            lhs = math.fsum((np.log(sel) / sel).tolist())
            want = [(x, lhs, 0.245 * math.log(x) - 3.15)]
            margins = [lhs - rhs for _, lhs, rhs in want]
        else:  # theta
            xs = a.x or sorted({10**6, limit})
            want = []
            for x in xs:
                sel = self.primes_upto(x)
                sel = sel[sel % 8 == a.a].astype(np.float64)
                theta = math.fsum(np.log(sel).tolist())
                want.append((x, abs(theta - x / 4.0), 0.024 * x / math.log(x)))
            margins = [rhs - lhs for _, lhs, rhs in want]
        _expect(len(records) == len(want), "wrong number of records")
        for rec, (x, lhs, rhs), margin in zip(records, want, margins):
            _expect(rec["x"] == x, f"sample {rec['x']} should be {x}")
            _close(rec["lhs"], lhs, f"lhs at x={x}")
            _close(rec["rhs"], rhs, f"rhs at x={x}")
            _close(rec["margin"], margin, f"margin at x={x}")
            _expect(rec["status"] == bound_status(margin), f"wrong status at x={x}")
        return all(bound_status(mg) == "pass" for mg in margins)

    def _ingredient_bounds(self, m: int, n: int) -> int | None:
        """Number of ingredient-bound records at (m, n), or None if one fails."""
        e, step = 2**n, 2 ** (n + 1)
        alpha: dict[int, int] = {}
        for x in range(1, m + 1):
            for p, k in sympy.factorint(x**e + 1).items():
                alpha[p] = alpha.get(p, 0) + k
        vmax = m**e + 1
        count = 0
        for p in sympy.primerange(2, 2 * (m + 1) + 1):
            a = alpha.get(p, 0)
            if p <= m:
                b = sum(m // p**j for j in range(1, m.bit_length() + 1))
                count += 1
                if b < (m - 1) / (p - 1) - 2.0 * math.log(m) / math.log(p):
                    return None
                if p > 2 and p % step == 1:
                    count += 1
                    if a - e * b > 0 and p ** (a - e * b) > vmax**e:
                        return None
            elif p > 2:
                count += 1
                if a >= 2 ** (2 * n):
                    return None
        return count

    def _verify_all(self, a, doc) -> bool:
        names = [
            "partition-minimality", "quartic-chain", "orders-base-case", "valuation-oracle",
            "prime-bound-search", "analytic-bounds", "ingredient-bounds",
        ]
        checks = doc["payload"]["checks"]
        _expect([c["name"] for c in checks] == names, "wrong checks")
        got = {c["name"]: (c["pass"], c["summary"]) for c in checks}
        ingredient = self._ingredient_bounds(200, 2)
        crossing2 = crossing(2)
        want = {
            "partition-minimality": (
                all(minimality(n) for n in (2, 3, 4)), "minimality verified for n=2..4"),
            "quartic-chain": (
                quartic_links()[-1][3] == QUARTIC_COVER, f"covered through {QUARTIC_COVER}"),
            "orders-base-case": (
                tree_prod([x**2 + 1 for x in (1, 2, 3)]) == 10**2, "P(3,1) = 10^2, square as expected"),
            # the program's own alpha_p against division; the orders workload
            # checks whole tables from outside instead
            "valuation-oracle": (True, "alpha_p matches repeated division for m <= 120, n <= 2"),
            "prime-bound-search": (
                not any(any(cyclotomic_facts(n, 300, 200, 1000 if n == 2 else 1)[:2]) for n in (1, 2)),
                "no violation; all certificates verified"),
            "analytic-bounds": (
                self._desk_bounds() and crossing2 <= 10**12, f"crossing at m={crossing2}"),
            "ingredient-bounds": (
                ingredient is not None, f"{ingredient} ingredient bounds hold at m=200"),
        }
        for name in names:
            _expect(got[name] == want[name], f"verify-all {name}: {got[name]} != {want[name]}")
        return all(ok for ok, _ in want.values())

    def _desk_bounds(self) -> bool:
        """The analytic bounds verify-all samples on its 10^7 sieve."""
        limit = VERIFY_ALL_SIEVE
        margins = []
        for x in (10**6, limit):
            lhs = float(np.count_nonzero(self.primes_upto(x)))
            margins.append(1.1 * x / math.log(x) - lhs)
        for n in (2, 3):
            q = 2 ** (n + 1)
            for x in bound_grid(4 ** (n + 1), limit):
                lhs = float(np.count_nonzero(self.primes_upto(x) % q == 1))
                margins.append(4.0 * x / (2**n * math.log(x)) - lhs)
        for a in (1, 3, 5, 7):
            sel = self.primes_upto(10**6)
            sel = sel[sel % 8 == a].astype(np.float64)
            margins.append(math.fsum((np.log(sel) / sel).tolist()) - (0.245 * math.log(10**6) - 3.15))
            for x in (10**6, limit):
                sel = self.primes_upto(x)
                sel = sel[sel % 8 == a].astype(np.float64)
                theta = math.fsum(np.log(sel).tolist())
                margins.append(0.024 * x / math.log(x) - abs(theta - x / 4.0))
        return all(bound_status(mg) == "pass" for mg in margins)

"""Command-line front end: every verification as a subcommand.

Exit codes: 0 all executed checks passed, 1 a check failed or a kernel
refused a value it cannot answer exactly (an internal refusal, reported on
stderr and as a failed report), 2 usage error or infeasible size.  --json
emits one canonical JSON object (sorted keys, wall_time_s nulled) so
identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from functools import lru_cache

from . import analytic, cyclotomic, partitions, prodorders
from .check import Check
from .errors import (
    BeyondSieveError,
    CertificateError,
    InfeasibleSizeError,
    InternalRefusalError,
)

SCHEMA = "fermatprod.report/1"


# <int>[.<digits>][e<int>]: a decimal integer, optionally in scientific notation
_SCALED_INT = re.compile(r"([+-]?)([0-9]+)(?:\.([0-9]+))?(?:[eE]([+-]?[0-9]+))?")
# Python's default limit on the digits of an int converted from or to text
_MAX_DIGITS = 4300


def _scaled_int(text: str) -> int:
    """An integer argument, also written exactly in scientific notation, such as 1e6 or 2.5e3.

    Any other text, or a value that is not a whole number, raises ValueError
    (a usage error).  A value of more than _MAX_DIGITS digits raises
    InfeasibleSizeError before it is built.
    """
    match = _SCALED_INT.fullmatch(text)
    if match is None:
        raise ValueError(f"not an integer: {text}")
    sign, whole, frac, exp = match.groups(default="")
    # value = sign digits * 10^shift, with digits free of leading and trailing zeros
    mantissa = whole + frac
    digits = mantissa.rstrip("0")
    shift = int(exp or "0") - len(frac) + len(mantissa) - len(digits)
    digits = digits.lstrip("0")
    if not digits:
        return 0
    if shift < 0:
        raise ValueError(f"not an integer: {text}")
    if len(digits) + shift > _MAX_DIGITS:
        raise InfeasibleSizeError(f"an integer argument has more than {_MAX_DIGITS} digits")
    return int(sign + digits) * 10**shift


def _render(
    command: str, params: dict, check: Check, wall_time_s: float | None, as_json: bool
) -> str:
    """The report as printed: canonical JSON, or one "key: value" line per field.

    An integer with more digits than Python converts to text (4300 by
    default, sys.set_int_max_str_digits) raises InfeasibleSizeError.
    """
    try:
        if as_json:
            doc = {
                "schema": SCHEMA,
                "command": command,
                "params": params,
                "pass": check.passed,
                "payload": check.detail,
                "wall_time_s": None,  # omitted from JSON to keep output byte-stable
            }
            return json.dumps(doc, sort_keys=True, separators=(",", ":"))
        lines = [f"command : {command}"]
        lines += [f"  {key} = {val}" for key, val in sorted(params.items())]
        lines += [f"{key}: {val}" for key, val in check.detail.items()]
        status = "PASS" if check.passed else "FAIL"
        took = f" ({wall_time_s:.3f}s)" if wall_time_s is not None else ""
        lines.append(f"result  : {status}{took}")
        return "\n".join(lines)
    except ValueError as err:
        raise InfeasibleSizeError(f"the report holds an integer too long to print: {err}") from err


def _cmd_orders(args) -> tuple[dict, Check]:
    table = prodorders.build_valuation_table(args.m, args.n)
    q = args.q if args.q is not None else partitions.big_n(args.n)
    p_min, o_min = min(table.alpha.items(), key=lambda kv: (kv[1], kv[0]))
    obstructed = prodorders.is_qth_power_obstructed(table, q)
    bits = int(sum(a * math.log2(p) for p, a in table.alpha.items())) + 1
    payload = {
        "m": args.m,
        "n": args.n,
        "distinct_primes": len(table.alpha),
        "product_bits_approx": bits,
        "min_order": [p_min, o_min],
        "q": q,
        "qth_power_obstructed": obstructed,
        "is_perfect_qth_power": not obstructed,
    }
    if args.dump_alpha or args.m <= 50:
        payload["alpha"] = {str(p): a for p, a in table.alpha.items()}
    return {"m": args.m, "n": args.n, "q": q}, Check("orders", True, payload)


def _cmd_chain(args) -> tuple[dict, Check]:
    return {"n": args.n}, prodorders.verify_chain(args.n)


def _cmd_partitions(args) -> tuple[dict, Check]:
    extreme = partitions.extreme_partition(args.n)
    witness = partitions.condition_witness(extreme, args.n)
    payload = {
        "n": args.n,
        "forcing_total": partitions.big_n(args.n),
        "extreme_partition": list(extreme),
        "extreme_total": sum(extreme),
        "condition_witness_r": witness,
    }
    passed = witness == len(extreme)
    if args.verify_minimality:
        minimal = partitions.verify_minimality(args.n)
        payload["minimality_verified"] = minimal
        passed = passed and minimal
    return {"n": args.n}, Check("partitions", passed, payload)


def _cmd_cyclotomic(args) -> tuple[dict, Check]:
    params = {
        "n": args.n,
        "p_limit": args.p_limit,
        "x_limit": args.x_limit,
        "single_x_limit": args.single_x_limit,
    }
    for key, value in params.items():
        if key != "n" and value < 0:
            raise ValueError(f"--{key.replace('_', '-')} must be >= 0, got {value}")
    try:
        check = cyclotomic.prime_bound_search(**params)
    except CertificateError as err:
        check = Check("prime_bound_search", False, {"error": str(err)})
    return params, check


def _cmd_analytic(args) -> tuple[dict, Check]:
    m, xs, limit = _scaled_int(args.m), [_scaled_int(x) for x in args.x], _scaled_int(args.limit)
    params = {"check": args.check}
    if args.check == "margin":
        lhs, rhs = analytic.final_inequality_margin(m, args.n)
        payload = {"m": m, "n": args.n, "lhs": lhs, "rhs": rhs, "contradiction": lhs > rhs}
        return params | {"m": m, "n": args.n}, Check("margin", True, payload)
    if args.check == "crossing":
        m_star = analytic.final_inequality_crossing(args.n)
        payload = {"n": args.n, "crossing": m_star, "within_10^12": m_star <= 10**12}
        return params | {"n": args.n}, Check("crossing", m_star <= 10**12, payload)
    # pi, bt, logsum or theta
    limit = max([limit, *xs])
    check = analytic.sieve_check(args.check, limit, tuple(xs), args.n, args.a)
    payload = {"name": check.name} | check.detail
    return params | {"limit": limit}, Check(check.name, check.passed, payload)


def _cmd_verify_all(args) -> tuple[dict, Check]:
    checks: list[dict] = []

    def run(name: str, fn) -> None:
        try:
            ok, summary = fn()
        except Exception as err:  # a crash is a failed check, not a crashed CLI
            ok, summary = False, f"{type(err).__name__}: {err}"
        checks.append({"name": name, "pass": ok, "summary": summary})

    def partitions_check():
        top = 5 if args.long else 4
        for n in range(2, top + 1):
            if not partitions.verify_minimality(n):
                return False, f"minimality fails at n={n}"
        return True, f"minimality verified for n=2..{top}"

    def chain_check():
        check = prodorders.verify_chain(2)
        return check.passed, f"covered through {check.detail['covered_through']}"

    def orders_check():
        table = prodorders.build_valuation_table(3, 1)
        ok = table.alpha == {2: 2, 5: 2} and not prodorders.is_qth_power_obstructed(table, 2)
        return ok, "P(3,1) = 10^2, square as expected"

    def oracle_check():
        m_top = 120
        allp = [int(q) for q in analytic.primes_upto(2 * (m_top + 1)).tolist()]
        for n in (1, 2):
            e = 1 << n
            acc: dict[int, int] = {}
            for m in range(1, m_top + 1):
                v = m**e + 1
                # strip every candidate prime: divisors above 2(m+1) matter
                # once m grows enough to pull them inside the window
                for p in allp:
                    o = 0
                    while v % p == 0:
                        v //= p
                        o += 1
                    if o:
                        acc[p] = acc.get(p, 0) + o
                bound = 2 * (m + 1)
                for p in allp:
                    if p > bound:
                        break
                    want = acc.get(p, 0)
                    got = prodorders.alpha_two(m, n) if p == 2 else prodorders.alpha_p(m, n, p)
                    if got != want:
                        return False, f"alpha mismatch at m={m}, n={n}, p={p}"
        return True, f"alpha_p matches repeated division for m <= {m_top}, n <= 2"

    def cyclotomic_check():
        # the single-entry search runs at n = 2 only: a limit of 0 searches no x
        for n, single_x_limit in ((1, 0), (2, 1000)):
            found = cyclotomic.prime_bound_search(n, 300, 200, single_x_limit).detail
            if found["counterexample"] is not None:
                return False, f"counterexample found at n={n}"
            if found["single_entry_counterexample"] is not None:
                return False, "single-entry counterexample found"
        return True, "no violation; all certificates verified"

    def analytic_check():
        limit = 10**8 if args.long else 10**7
        # (kind, n, a), each on sieve_check's default points
        kinds = [("pi", 2, 1), ("bt", 2, 1), ("bt", 3, 1)]
        kinds += [(kind, 2, a) for a in (1, 3, 5, 7) for kind in ("logsum", "theta")]
        reports = [analytic.sieve_check(kind, limit, (), n, a) for kind, n, a in kinds]
        if not all(r.passed for r in reports):
            bad = next(r.name for r in reports if not r.passed)
            return False, f"bound {bad} failed"
        crossing = analytic.final_inequality_crossing(2)
        return crossing <= 10**12, f"crossing at m={crossing}"

    def ingredient_check():
        check = prodorders.bound_checks(200, 2)
        return check.passed, f"{len(check.detail['records'])} ingredient bounds hold at m=200"

    run("partition-minimality", partitions_check)
    run("quartic-chain", chain_check)
    run("orders-base-case", orders_check)
    run("valuation-oracle", oracle_check)
    run("prime-bound-search", cyclotomic_check)
    run("analytic-bounds", analytic_check)
    run("ingredient-bounds", ingredient_check)

    passed = all(c["pass"] for c in checks)
    return {"long": args.long}, Check("verify-all", passed, {"checks": checks})


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(
        prog="fermatprod",
        description="Verifications around prime orders in products of x^(2^n)+1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_orders = sub.add_parser("orders", parents=[common], help="valuation table and q-th power obstruction")
    p_orders.add_argument("m", type=int)
    p_orders.add_argument("n", type=int)
    p_orders.add_argument("--q", type=int, default=None, help="power to test (default n*2^(n-1)+1)")
    p_orders.add_argument("--dump-alpha", action="store_true", help="emit the full valuation table")
    p_orders.set_defaults(fn=_cmd_orders)

    p_chain = sub.add_parser("chain", parents=[common], help="verify or discover anchor chains")
    p_chain.add_argument("n", type=int)
    p_chain.set_defaults(fn=_cmd_chain)

    p_part = sub.add_parser("partitions", parents=[common], help="extreme partition and minimality")
    p_part.add_argument("n", type=int)
    p_part.add_argument("--verify-minimality", action="store_true")
    p_part.set_defaults(fn=_cmd_partitions)

    p_cyc = sub.add_parser("cyclotomic", parents=[common], help="adversarial search for the prime bound")
    p_cyc.add_argument("--n", type=int, default=2)
    p_cyc.add_argument("--p-limit", type=int, default=300)
    p_cyc.add_argument("--x-limit", type=int, default=200)
    p_cyc.add_argument("--single-x-limit", type=int, default=2000)
    p_cyc.set_defaults(fn=_cmd_cyclotomic)

    p_ana = sub.add_parser("analytic", parents=[common], help="sieve-backed bound checks")
    p_ana.add_argument(
        "--check",
        choices=("pi", "bt", "logsum", "theta", "margin", "crossing"),
        required=True,
    )
    p_ana.add_argument("--a", type=int, default=1)
    p_ana.add_argument("--n", type=int, default=2)
    # parsed by _cmd_analytic, so that a bad value is one "usage:" or "infeasible:" line
    p_ana.add_argument("--m", default=str(10**12))
    p_ana.add_argument("--x", action="append", default=[])
    p_ana.add_argument("--limit", default=str(analytic.DEFAULT_SIEVE_LIMIT))
    p_ana.set_defaults(fn=_cmd_analytic)

    p_all = sub.add_parser("verify-all", parents=[common], help="run every default-scale check")
    p_all.add_argument(
        "--long", action="store_true", help="minimality up to n=5 and the bounds on a 10^8 sieve"
    )
    p_all.set_defaults(fn=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        params, check = args.fn(args)
        text = _render(args.command, params, check, time.perf_counter() - start, args.json)
    except InfeasibleSizeError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 2
    except InternalRefusalError as err:
        print(f"internal refusal: {err}", file=sys.stderr)
        check = Check(args.command, False, {"internal_refusal": str(err)})
        text = _render(args.command, {}, check, None, args.json)
    except (BeyondSieveError, ValueError) as err:
        print(f"usage: {err}", file=sys.stderr)
        return 2
    print(text)
    return 0 if check.passed else 1


if __name__ == "__main__":
    sys.exit(main())

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
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

from . import analytic, cyclotomic, partitions, prodorders
from .errors import (
    BeyondSieveError,
    CertificateError,
    InfeasibleSizeError,
    InternalRefusalError,
)

SCHEMA = "fermatprod.report/1"


def _scaled_int(text: str) -> int:
    """Integer argument that also accepts scientific notation like 1e6."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
        if value != int(value):
            raise argparse.ArgumentTypeError(f"not an integer: {text}")
        return int(value)


@dataclass
class RunReport:
    command: str
    params: dict
    passed: bool
    payload: dict
    wall_time_s: float | None = None


def _render(report: RunReport, as_json: bool) -> str:
    """The report as printed: canonical JSON, or one "key: value" line per field.

    An integer with more digits than Python converts to text (4300 by
    default, sys.set_int_max_str_digits) raises InfeasibleSizeError.
    """
    try:
        if as_json:
            doc = {
                "schema": SCHEMA,
                "command": report.command,
                "params": report.params,
                "pass": report.passed,
                "payload": report.payload,
                "wall_time_s": None,  # omitted from JSON to keep output byte-stable
            }
            return json.dumps(doc, sort_keys=True, separators=(",", ":"))
        lines = [f"command : {report.command}"]
        lines += [f"  {key} = {val}" for key, val in sorted(report.params.items())]
        lines += [f"{key}: {val}" for key, val in report.payload.items()]
        status = "PASS" if report.passed else "FAIL"
        took = f" ({report.wall_time_s:.3f}s)" if report.wall_time_s is not None else ""
        lines.append(f"result  : {status}{took}")
        return "\n".join(lines)
    except ValueError as err:
        raise InfeasibleSizeError(f"the report holds an integer too long to print: {err}") from err


def _cmd_orders(args) -> RunReport:
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
        payload["alpha"] = {str(p): a for p, a in sorted(table.alpha.items())}
    return RunReport("orders", {"m": args.m, "n": args.n, "q": q}, True, payload)


def _link_doc(link: prodorders.ChainLink) -> dict:
    return {
        "anchor": link.anchor,
        "p": link.p,
        "next_roots": list(link.next_roots),
        "cover_hi": link.cover_hi,
    }


def _cmd_chain(args) -> RunReport:
    rep = prodorders.verify_chain(args.n)
    payload = {
        "trivial_through": rep.trivial_through,
        "links": [_link_doc(l) for l in rep.links],
        "covered_through": rep.covered_through,
        "gap": list(rep.gap) if rep.gap else None,
        "order_bound_proved": rep.order_bound_proved,
        "order_bound_needed": rep.order_bound_needed,
        "bound_sufficient": rep.bound_sufficient,
        "steps": list(rep.steps),
    }
    return RunReport("chain", {"n": args.n}, rep.passed, payload)


def _cmd_partitions(args) -> RunReport:
    extreme = partitions.extreme_partition(args.n)
    report = partitions.satisfies_condition(extreme, args.n)
    payload = {
        "n": args.n,
        "forcing_total": partitions.big_n(args.n),
        "extreme_partition": list(extreme.parts),
        "extreme_total": extreme.total,
        "condition_witness_r": report.witness_r,
    }
    passed = report.satisfied and report.witness_r == len(extreme)
    if args.verify_minimality:
        minimal = partitions.verify_minimality(args.n)
        payload["minimality_verified"] = minimal
        passed = passed and minimal
    return RunReport("partitions", {"n": args.n}, passed, payload)


def _cmd_cyclotomic(args) -> RunReport:
    params = {
        "n": args.n,
        "p_limit": args.p_limit,
        "x_limit": args.x_limit,
        "single_x_limit": args.single_x_limit,
    }
    payload: dict = {}
    passed = True
    try:
        counterexample = cyclotomic.counterexample_search(args.n, args.p_limit, args.x_limit)
        systems = 0
        for system in cyclotomic.iter_realizable_systems(args.n, args.p_limit, args.x_limit):
            cyclotomic.check_prime_bound(system)
            systems += 1
        single = cyclotomic.single_entry_search(args.n, args.single_x_limit)
    except CertificateError as err:
        return RunReport("cyclotomic", params, False, {"error": str(err)})
    payload["counterexample"] = (
        None
        if counterexample is None
        else {"p": counterexample.p, "entries": list(map(list, counterexample.entries))}
    )
    payload["single_entry_counterexample"] = (
        None
        if single is None
        else {"p": single.p, "entries": list(map(list, single.entries))}
    )
    payload["systems_certified"] = systems
    passed = counterexample is None and single is None
    return RunReport("cyclotomic", params, passed, payload)


def _bound_report_doc(rep: analytic.BoundReport) -> dict:
    return {
        "name": rep.name,
        "records": [
            {"x": r.x, "lhs": r.lhs, "rhs": r.rhs, "margin": r.margin, "status": r.status}
            for r in rep.records
        ],
    }


def _cmd_analytic(args) -> RunReport:
    params = {"check": args.check}
    sieve = None
    if args.check in ("pi", "bt", "logsum", "theta"):
        limit = args.limit
        if args.x:
            limit = max(limit, max(args.x))
        sieve = analytic.get_sieve(limit)
        params["limit"] = limit
    default_samples = tuple(sorted({10**6, sieve.limit})) if sieve else ()
    if args.check == "pi":
        rep = analytic.check_pi_bound(tuple(args.x) or default_samples, sieve)
    elif args.check == "bt":
        rep = analytic.check_bt_bound(args.n, tuple(args.x) or None, sieve)
    elif args.check == "logsum":
        rep = analytic.check_logsum_bound(args.a, args.x[0] if args.x else 10**6, sieve)
    elif args.check == "theta":
        rep = analytic.check_theta_window(args.a, tuple(args.x) or default_samples, sieve)
    elif args.check == "margin":
        lhs, rhs = analytic.final_inequality_margin(args.m, args.n)
        payload = {"m": args.m, "n": args.n, "lhs": lhs, "rhs": rhs, "contradiction": lhs > rhs}
        return RunReport("analytic", params | {"m": args.m, "n": args.n}, True, payload)
    else:  # crossing
        m_star = analytic.final_inequality_crossing(args.n)
        payload = {"n": args.n, "crossing": m_star, "within_10^12": m_star <= 10**12}
        return RunReport("analytic", params | {"n": args.n}, m_star <= 10**12, payload)
    return RunReport("analytic", params, rep.passed, _bound_report_doc(rep))


def _cmd_verify_all(args) -> RunReport:
    checks: list[tuple[str, bool, str]] = []

    def run(name: str, fn) -> None:
        try:
            ok, summary = fn()
        except Exception as err:  # a crash is a failed check, not a crashed CLI
            ok, summary = False, f"{type(err).__name__}: {err}"
        checks.append((name, ok, summary))

    def partitions_check():
        top = 5 if args.long else 4
        for n in range(2, top + 1):
            if not partitions.verify_minimality(n):
                return False, f"minimality fails at n={n}"
        return True, f"minimality verified for n=2..{top}"

    def chain_check():
        rep = prodorders.verify_chain(2)
        return rep.passed, f"covered through {rep.covered_through}"

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
        for n in (1, 2):
            if cyclotomic.counterexample_search(n, 300, 200) is not None:
                return False, f"counterexample found at n={n}"
            for system in cyclotomic.iter_realizable_systems(n, 300, 200):
                cyclotomic.check_prime_bound(system)
        if cyclotomic.single_entry_search(2, 1000) is not None:
            return False, "single-entry counterexample found"
        return True, "no violation; all certificates verified"

    def analytic_check():
        limit = 10**8 if args.long else 10**7
        sieve = analytic.get_sieve(limit)
        reports = [analytic.check_pi_bound((10**6, limit), sieve)]
        for n in (2, 3):
            reports.append(analytic.check_bt_bound(n, None, sieve))
        for a in (1, 3, 5, 7):
            reports.append(analytic.check_logsum_bound(a, 10**6, sieve))
            reports.append(analytic.check_theta_window(a, (10**6, limit), sieve))
        if not all(r.passed for r in reports):
            bad = next(r.name for r in reports if not r.passed)
            return False, f"bound {bad} failed"
        crossing = analytic.final_inequality_crossing(2)
        return crossing <= 10**12, f"crossing at m={crossing}"

    def ingredient_check():
        rep = prodorders.bound_checks(200, 2)
        return rep.passed, f"{len(rep.records)} ingredient bounds hold at m=200"

    run("partition-minimality", partitions_check)
    run("quartic-chain", chain_check)
    run("orders-base-case", orders_check)
    run("valuation-oracle", oracle_check)
    run("prime-bound-search", cyclotomic_check)
    run("analytic-bounds", analytic_check)
    run("ingredient-bounds", ingredient_check)

    payload = {"checks": [{"name": n, "pass": ok, "summary": s} for n, ok, s in checks]}
    return RunReport("verify-all", {"long": args.long}, all(ok for _, ok, _ in checks), payload)


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
        "--check", "--lemma",
        dest="check",
        choices=("pi", "bt", "logsum", "theta", "margin", "crossing"),
        required=True,
    )
    p_ana.add_argument("--a", type=int, default=1)
    p_ana.add_argument("--n", type=int, default=2)
    p_ana.add_argument("--m", type=_scaled_int, default=10**12)
    p_ana.add_argument("--x", type=_scaled_int, action="append", default=[])
    p_ana.add_argument("--limit", type=_scaled_int, default=analytic.DEFAULT_SIEVE_LIMIT)
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
        report = args.fn(args)
        report.wall_time_s = time.perf_counter() - start
        text = _render(report, args.json)
    except InfeasibleSizeError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 2
    except InternalRefusalError as err:
        print(f"internal refusal: {err}", file=sys.stderr)
        report = RunReport(args.command, {}, False, {"internal_refusal": str(err)})
        text = _render(report, args.json)
    except (BeyondSieveError, ValueError) as err:
        print(f"usage: {err}", file=sys.stderr)
        return 2
    print(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""fermatprod benchmark: seeded CLI workloads, checked outputs, traced layers.

    python3 bench/run.py --workload orders --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it benchmarks `src/fermatprod`
there.  One closed-loop client: each pass spawns a fresh interpreter
(bench/worker.py) that runs the workload's seeded command list one command
at a time through fermatprod.cli.main(argv).  Passes repeat the same list,
each in a new process so every pass starts with cold caches, as often as
they fit in --seconds (always at least once).  Every output is then checked by bench/checker.py,
outside the timed region.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
from the traced ones, plus the tracing overhead.  The last line of stdout
is the JSON result; the lines before it print every metric with its unit,
the environment, and any failed command.  A fuller record goes to
bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import sympy

from checker import Checker
from workloads import DEFECT_PROBES, WORKLOADS, commands

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SRC = ROOT / "src"
SETUP_PROBES = 5  # interpreter start-ups timed per run, besides the passes
DEADLINE_S = 150  # every pass ends by then, leaving time to check and print


def _spawn(job: dict | None, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until fermatprod.cli was imported, its report)."""
    env = dict(os.environ, FERMATPROD_SRC=str(SRC))
    argv = [sys.executable, str(BENCH / "worker.py")] + ([] if job else ["--probe"])
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready.strip() != b"ready":
            raise RuntimeError("worker failed to import fermatprod.cli")
        payload = json.dumps(job).encode() if job else b""
        out, _ = proc.communicate(payload, timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    if not job:
        return setup, None
    # one line per command outcome, one per probe outcome, then the pass summary
    *lines, last = out.splitlines()
    doc = json.loads(last)
    doc["results"], doc["probes"] = [], []
    for line in lines:
        (kind, outcome), = json.loads(line).items()
        doc[kind + "s"].append(outcome)
    return setup, doc


def _environment(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    llc = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = []
    for index in caches.glob("index*"):
        try:
            levels.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    if levels:
        llc = max(levels)[1]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fermatprod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "llc": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def check_passes(checker: Checker, cmds: list[list[str]], passes: list[dict]) -> tuple[int, int, dict]:
    """(commands attempted, commands failed, failed command -> reason) over all passes."""
    failures: dict[str, str] = {}
    attempted = failed = 0
    for doc in passes:
        for argv, outcome in zip(cmds, doc["results"]):
            attempted += 1
            why = checker.reason(argv, outcome)
            if why is not None:
                failed += 1
                failures[" ".join(argv)] = why
    return attempted, failed, failures


def end_to_end(passes: list[dict], setups: list[float], attempted: int, failed: int) -> dict:
    dts = [r["dt"] for p in passes for r in p["results"]]
    return {
        "wall_s": (statistics.median([p["wall_s"] for p in passes]), "s"),
        "verdict_p50_ms": (1000 * statistics.median(dts), "ms"),
        "verdict_p90_ms": (1000 * statistics.quantiles(dts, n=10, method="inclusive")[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median([p["peak_rss_kb"] / 1024 for p in passes]), "MB"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }


# Per-layer metrics read straight off the traced functions.
CALLS = (
    "ntcore.is_prime", "ntcore.roots_of_minus_one", "ntcore.hensel_lift", "ntcore.count_roots_upto",
    "prodorders.build_valuation_table", "prodorders.alpha_p", "prodorders.verify_chain_link",
    "cyclotomic.check_prime_bound", "cyclotomic.norm", "partitions.verify_minimality",
    "analytic.primes_upto", "analytic.theta_ap", "cli.main",
)
SELF_S = (
    "ntcore.is_prime", "ntcore.hensel_lift", "ntcore.count_roots_upto",
    "prodorders.build_valuation_table", "prodorders.alpha_p", "prodorders.verify_chain_link",
    "prodorders.bound_checks", "cyclotomic.iter_realizable_systems", "cyclotomic.check_prime_bound",
    "cyclotomic.norm", "cyclotomic.counterexample_search", "cyclotomic.single_entry_search",
    "partitions.enumerate_partitions", "partitions.verify_minimality", "analytic.primes_upto",
    "analytic.pi_ap", "analytic.theta_ap", "analytic.check_logsum_bound", "cli.main",
)
YIELDED = ("cyclotomic.iter_realizable_systems", "partitions.enumerate_partitions")
COUNTERS = {
    "prodorders.build_valuation_table.values": "count",
    "analytic.primes_upto.ints_sieved": "count",
    "analytic.primes_upto.bytes_computed": "B",
}


def per_layer(traced: list[dict], untraced: list[dict], defects_failed: int) -> dict:
    """The per-layer metrics of BENCHMARK.json: counts from one traced pass, times as medians."""
    first = traced[0]["layers"]
    funcs = first["functions"]

    def count(name: str, key: str) -> int:
        return funcs.get(name, {}).get(key, 0)

    m = {}
    for name in CALLS:
        m[f"{name}.calls"] = (count(name, "calls"), "count")
    for name in SELF_S:
        times = [p["layers"]["functions"].get(name, {}).get("self_s", 0.0) for p in traced]
        m[f"{name}.self_s"] = (statistics.median(times), "s")
    for name in YIELDED:
        m[f"{name}.yielded"] = (count(name, "yielded"), "count")
    for name, unit in COUNTERS.items():
        m[name] = (first["counters"].get(name, 0), unit)
    for name, c in traced[0]["caches"].items():
        m[f"{name}.hit_ratio"] = (_ratio(c["hits"], c["hits"] + c["misses"]), "ratio")
        m[f"{name}.cache_size"] = (c["size"], "count")
    for layer, errors in first["errors"].items():
        # the defect probes run after the timed list; their errors count too
        m[f"{layer}.errors"] = (errors + traced[0]["probe_errors"][layer], "count")
    links_kept = sum(
        first["counters"].get(f"prodorders.{fn}.links_kept", 0)
        for fn in ("anchor_chain_search", "verify_quartic_chain")
    )
    m["prodorders.anchor_yield"] = (
        _ratio(links_kept, count("prodorders.verify_chain_link", "calls")), "ratio")
    enumerated = first["yield_edges"].get(
        "cyclotomic.iter_realizable_systems>partitions.enumerate_partitions", 0
    )
    m["cyclotomic.realizable_ratio"] = (
        _ratio(count("cyclotomic.iter_realizable_systems", "yielded"), enumerated), "ratio")
    m["cli.stdout_bytes"] = (sum(len(r["out"].encode()) for r in traced[0]["results"]), "B")
    m["cli.defect_probes_failed"] = (defects_failed, "count")
    m["trace.spans"] = (first["spans"], "count")
    walls = [statistics.median(p["wall_s"] for p in group) for group in (traced, untraced)]
    m["trace.overhead_s"] = (walls[0] - walls[1], "s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fermatprod" / "cli.py").is_file():
        print(f"no fermatprod source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    cmds = commands(args.workload, args.seed)
    probes = [list(p) for p in DEFECT_PROBES] if args.workload == "certify" else []
    OUT.mkdir(exist_ok=True)
    spans_path = str(OUT / f"spans-{args.workload}.npz")

    setups: list[float] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    broken = None
    try:
        setups += [_spawn(None, deadline)[0] for _ in range(SETUP_PROBES)]
        start, took = time.monotonic(), 0.0
        # a new pass starts only if, taking as long as the last one, it ends within --seconds
        while not untraced or time.monotonic() - start + took <= args.seconds:
            begun = time.monotonic()
            setup, doc = _spawn({"commands": cmds, "probes": probes, "trace": False}, deadline)
            setups.append(setup)
            untraced.append(doc)
            if args.trace:
                _, doc = _spawn(
                    {"commands": cmds, "probes": probes, "trace": True, "spans_path": spans_path},
                    deadline,
                )
                traced.append(doc)
            took = time.monotonic() - begun
    except subprocess.TimeoutExpired:
        broken = f"a pass did not finish within {DEADLINE_S} s of the start"
    except RuntimeError as err:
        broken = str(err)

    checker = Checker()
    checker.reserve(max(Checker.sieve_need(argv) for argv in cmds))
    attempted, failed, failures = check_passes(checker, cmds, untraced + traced)
    defects = {}
    if untraced and probes:
        for argv, outcome in zip(probes, untraced[-1]["probes"]):
            why = checker.reason(argv, outcome)
            if why is not None:
                defects[" ".join(argv)] = why
    if broken is not None:
        attempted = max(attempted, 1)
        failed = attempted
        failures["(run)"] = broken

    env = _environment(args.workload, args.seed)
    if broken is not None:
        metrics = {}
    elif args.trace:
        metrics = per_layer(traced, untraced, len(defects))
    else:
        metrics = end_to_end(untraced, setups, attempted, failed)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{len(untraced)} untraced and {len(traced)} traced passes of {len(cmds)} commands; "
          f"{failed} of {attempted} commands failed (fail_ratio {_ratio(failed, attempted)})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    for argv, why in failures.items():
        print(f"FAILED {argv}: {why}")
    if untraced:
        sizes = ", ".join(f"{name} {c['size']}" for name, c in untraced[-1]["caches"].items())
        print(f"lru_cache sizes at the end of the workload: {sizes}")
    for argv, why in defects.items():
        print(f"known defect (probe, not in the timed list) {argv}: {why}")

    record = {
        "env": env,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "known_defects": defects,
        "passes": [
            {"traced": tr, "wall_s": p["wall_s"], "peak_rss_kb": p["peak_rss_kb"], "caches": p["caches"],
             "latency_s": [r["dt"] for r in p["results"]]}
            for tr, group in ((False, untraced), (True, traced)) for p in group
        ],
        "setup_s": setups,
        "commands": [" ".join(c) for c in cmds],
    }
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark client: a fresh interpreter that runs one command list.

Protocol with run.py: the worker imports fermatprod.cli from the directory
named by FERMATPROD_SRC, writes "ready" on stdout, then reads a JSON job
from stdin:

    {"commands": [[argv...], ...], "probes": [[argv...], ...],
     "trace": false, "spans_path": null}

It runs the commands one at a time in a closed loop, each through
fermatprod.cli.main(argv) with stdout and stderr captured, then the probes
untimed.  Each outcome is written out as one line {"result": {...}} or
{"probe": {...}} as soon as it is known and then dropped, so the worker's
peak RSS does not grow with the outputs it has already handed on, and the
time spent writing is left out of the pass wall time.  A last line holds
the pass wall time, peak RSS and the lru_cache statistics.  With "--probe"
it only imports and reports ready, which is how run.py times interpreter
set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def _run_one(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    raised = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed command, not a failed pass
        rc = None
        raised = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - start
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "raised": raised, "dt": dt}


CACHED = (("ntcore", "roots_of_minus_one"), ("ntcore", "lifted_roots"), ("analytic", "get_sieve"))


def _cache_stats(funcs: dict) -> dict:
    """hits, misses and current size of each named lru_cache."""
    stats = {}
    for name, fn in funcs.items():
        info = fn.cache_info()
        stats[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return stats


def _peak_rss_kb() -> int:
    """High-water resident set of this process, in KiB.

    Not ru_maxrss: across fork and exec that also keeps the resident set of
    the parent that spawned the worker.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    src = os.environ["FERMATPROD_SRC"]
    sys.path.insert(0, src)
    from fermatprod import cli

    print("ready", flush=True)
    if "--probe" in sys.argv[1:]:
        return 0
    job = json.loads(sys.stdin.read())

    # taken before tracing wraps them, so cache_info() stays reachable
    cached = {f"{m}.{a}": getattr(sys.modules[f"fermatprod.{m}"], a) for m, a in CACHED}
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out = sys.stdout

    def send(doc: dict) -> None:
        out.write(json.dumps(doc) + "\n")
        out.flush()

    wall = 0.0
    for argv in job["commands"]:
        start = time.perf_counter()
        if tracer is not None:
            tracer.new_trace()
        result = _run_one(cli, argv)
        wall += time.perf_counter() - start
        send({"result": result})
    peak_kb = _peak_rss_kb()

    doc = {"wall_s": wall, "peak_rss_kb": peak_kb, "caches": _cache_stats(cached)}
    if tracer is not None:
        # the workload's own layers; the probes below add only their errors
        doc["layers"] = tracer.summary()
    for argv in job["probes"]:
        if tracer is not None:
            tracer.new_trace()
        send({"probe": _run_one(cli, argv)})
    if tracer is not None:
        after = tracer.summary()["errors"]
        doc["probe_errors"] = {layer: after[layer] - n for layer, n in doc["layers"]["errors"].items()}
        if job["spans_path"]:
            tracer.write(job["spans_path"])
    send(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory spans around the public functions of fermatprod's modules.

The tracer lives in the benchmark, not in the package: `install` replaces
every public function of the six layer modules with a timing wrapper, on
every module attribute that binds it by name, so calls made through a
`from .ntcore import is_prime` binding are seen too.  Each call becomes a
span (id, trace id, name, parent, start, end); a generator gets one span per
`next()`.  A span's self time is its duration minus the durations of its
direct children.  Spans stay in memory and are written out by `write`.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from itertools import count
from time import perf_counter

import numpy as np

LAYERS = ("ntcore", "partitions", "cyclotomic", "prodorders", "analytic", "cli")
SPAN_FIELDS = ("span_id", "trace_id", "name_id", "parent_id", "start", "end")


def _links_kept(result) -> int:
    return len(result["links"])


def _quartic_links_kept(result) -> int:
    return sum(1 for s in result.steps if s.name.startswith("link_") and s.passed)


def _primes_upto_work(args, result) -> dict[str, int]:
    limit = args[0]
    if limit < 2:
        return {}
    # one bool flag per integer up to limit, plus the int64 output
    return {"ints_sieved": limit + 1, "bytes_computed": limit + 1 + 8 * len(result)}


# Work counters read off a traced call's arguments and result.
_HOOKS = {
    "prodorders.build_valuation_table": lambda args, result: {"values": args[0]},
    "prodorders.anchor_chain_search": lambda args, result: {"links_kept": _links_kept(result)},
    "prodorders.verify_quartic_chain": lambda args, result: {
        "links_kept": _quartic_links_kept(result)
    },
    "analytic.primes_upto": _primes_upto_work,
}


class Tracer:
    """Collects spans and per-function totals while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.yielded: list[int] = []
        self.errors = [0] * len(LAYERS)
        self.counters: dict[str, int] = {}
        # (parent name id, name id) -> items yielded by the child generator
        self.yield_edges: dict[tuple[int, int], int] = {}
        self.trace_id = 0
        self._ids = count()
        # open spans as (span id, name id); the first is the root's
        self._stack: list[tuple[int, int]] = [(-1, -1)]
        # closed spans, SPAN_FIELDS values each, span ids numbered in call order
        self._spans = array("d")

    def new_trace(self) -> None:
        """Start a new trace id; every command gets its own."""
        self.trace_id += 1

    def _register(self, qualname: str, layer: int) -> int:
        self.names.append(qualname)
        self.layer_of.append(layer)
        self.yielded.append(0)
        return len(self.names) - 1

    def _failed(self, nid: int, parent_nid: int) -> None:
        layer = self.layer_of[nid]
        # count an exception once per layer it leaves
        if parent_nid < 0 or self.layer_of[parent_nid] != layer:
            self.errors[layer] += 1

    def _count(self, qualname: str, work: dict[str, int]) -> None:
        for key, val in work.items():
            name = f"{qualname}.{key}"
            self.counters[name] = self.counters.get(name, 0) + val

    def _wrap(self, qualname: str, layer: int, fn):
        nid = self._register(qualname, layer)
        hook = _HOOKS.get(qualname)
        tracer = self
        stack = self._stack
        record = self._spans.extend
        ids = self._ids

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        sid = next(ids)
                        parent = stack[-1]
                        stack.append((sid, nid))
                        start = perf_counter()
                        try:
                            item = next(it)
                        except StopIteration:
                            end = perf_counter()
                            stack.pop()
                            record((sid, tracer.trace_id, nid, parent[0], start, end))
                            return
                        except BaseException:
                            end = perf_counter()
                            stack.pop()
                            record((sid, tracer.trace_id, nid, parent[0], start, end))
                            tracer._failed(nid, parent[1])
                            raise
                        end = perf_counter()
                        stack.pop()
                        record((sid, tracer.trace_id, nid, parent[0], start, end))
                        tracer.yielded[nid] += 1
                        edge = (parent[1], nid)
                        tracer.yield_edges[edge] = tracer.yield_edges.get(edge, 0) + 1
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append((sid, nid))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                record((sid, tracer.trace_id, nid, parent[0], start, end))
                tracer._failed(nid, parent[1])
                raise
            end = perf_counter()
            stack.pop()
            record((sid, tracer.trace_id, nid, parent[0], start, end))
            if hook is not None:
                tracer._count(qualname, hook(args, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module, wherever bound."""
        wrappers: dict[int, object] = {}
        for layer, short in enumerate(LAYERS):
            mod = sys.modules[f"fermatprod.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", layer, obj)
        for name, mod in list(sys.modules.items()):
            if name != "fermatprod" and not name.startswith("fermatprod."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _table(self) -> np.ndarray:
        return np.frombuffer(self._spans, dtype=np.float64).reshape(-1, len(SPAN_FIELDS))

    def summary(self) -> dict:
        """Per-function calls and self time, per-layer errors and work counters."""
        spans = self._table()
        sid = spans[:, 0].astype(np.int64)
        nid = spans[:, 2].astype(np.int64)
        parent = spans[:, 3].astype(np.int64)
        dur = spans[:, 5] - spans[:, 4]
        # a span's self time is its duration minus its direct children's
        child = np.zeros(int(sid.max(initial=-1)) + 2)
        np.add.at(child, parent + 1, dur)
        self_s = dur - child[sid + 1]
        calls = np.bincount(nid, minlength=len(self.names))
        self_total = np.bincount(nid, weights=self_s, minlength=len(self.names))
        funcs = {
            name: {"calls": int(calls[i]), "self_s": float(self_total[i]), "yielded": self.yielded[i]}
            for i, name in enumerate(self.names)
            if calls[i]
        }
        edges = {
            f"{self.names[p]}>{self.names[c]}": n for (p, c), n in self.yield_edges.items() if p >= 0
        }
        return {
            "functions": funcs,
            "errors": dict(zip(LAYERS, self.errors)),
            "counters": dict(self.counters),
            "yield_edges": edges,
            "spans": len(spans),
        }

    def write(self, path: str) -> None:
        """Write every recorded span to an .npz file, one row per span."""
        np.savez(path, names=np.array(self.names), fields=np.array(SPAN_FIELDS), spans=self._table())

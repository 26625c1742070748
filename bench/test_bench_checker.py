"""Self-tests of the benchmark: the checker must reject corrupted outputs."""

import copy
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from checker import Checker  # noqa: E402
from fermatprod import cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import _run_one  # noqa: E402

GENUINE = [
    "orders 3 1 --json",
    "orders 30 2 --json --dump-alpha",
    "chain 2 --json",
    "partitions 3 --verify-minimality --json",
    "cyclotomic --n 2 --p-limit 300 --x-limit 200 --json",
    "analytic --check pi --x 1500000 --limit 2000000 --json",
    "analytic --check bt --n 2 --limit 2000000 --json",
    "analytic --check logsum --a 3 --x 1200000 --limit 2000000 --json",
    "analytic --check theta --a 5 --limit 2000000 --json",
    "analytic --check crossing --n 3 --json",
    "analytic --check margin --m 1000000 --n 2 --json",
    "verify-all --json",
]


@pytest.fixture(scope="module")
def checker():
    return Checker()


def outcome(command: str) -> tuple[list[str], dict]:
    argv = command.split()
    return argv, _run_one(cli, argv)


def with_doc(result: dict, edit) -> dict:
    """The outcome with its JSON document changed by edit(doc)."""
    doc = json.loads(result["out"])
    edit(doc)
    return dict(result, out=json.dumps(doc))


@pytest.mark.parametrize("command", GENUINE)
def test_genuine_output_is_accepted(checker, command):
    argv, result = outcome(command)
    assert checker.reason(argv, result) is None


def test_alpha_off_by_one_fails(checker):
    argv, result = outcome("orders 30 2 --json --dump-alpha")

    def bump(doc):
        prime = next(p for p in doc["payload"]["alpha"] if p != "2")
        doc["payload"]["alpha"][prime] += 1

    assert "multiply" in checker.reason(argv, with_doc(result, bump))


def test_pi_off_by_one_fails(checker):
    argv, result = outcome("analytic --check pi --x 1500000 --limit 2000000 --json")

    def bump(doc):
        rec = doc["payload"]["records"][0]
        rec["lhs"] += 1
        rec["margin"] -= 1

    assert "lhs" in checker.reason(argv, with_doc(result, bump))


def test_flipped_pass_fails(checker):
    argv, result = outcome("chain 2 --json")

    def flip(doc):
        doc["pass"] = False

    assert checker.reason(argv, dict(with_doc(result, flip), rc=1)) is not None
    assert checker.reason(argv, with_doc(result, flip)) == "exit code disagrees with pass"


def test_pass_without_proof_fails(checker):
    # A well-formed chain 3 report whose links stop at m = 24, far short of
    # the analytic crossing: pass: true claims more than it proves.
    doc = {
        "schema": "fermatprod.report/1",
        "command": "chain",
        "params": {"n": 3},
        "pass": True,
        "payload": {
            "trivial_through": 24, "links": [], "covered_through": 24, "gap": None,
            "bound_sufficient": True, "order_bound_proved": 8, "order_bound_needed": 12,
        },
        "wall_time_s": None,
    }
    argv = ["chain", "3", "--json"]
    claimed = {"rc": 0, "out": json.dumps(doc), "err": "", "raised": None}
    assert checker.reason(argv, claimed) == "pass: true is not backed by a proof"
    # the same report with an honest verdict is accepted
    honest = dict(claimed, rc=1, out=json.dumps(dict(doc, **{"pass": False})))
    assert checker.reason(argv, honest) is None


def test_raised_exception_and_exit_2_fail(checker):
    argv, result = outcome("chain 2 --json")
    raised = dict(result, rc=None, out="", raised="OverflowError: int too large to convert to float")
    assert checker.reason(argv, raised).startswith("raised OverflowError")
    assert checker.reason(argv, dict(result, rc=2)).startswith("exit 2")


def test_malformed_output_fails(checker):
    argv, result = outcome("chain 2 --json")

    def drop(doc):
        del doc["payload"]["steps"]

    assert checker.reason(argv, with_doc(result, drop)).startswith("malformed output")


def test_every_rejection_counts_as_a_failure(checker):
    cmds = [c.split() for c in ("chain 2 --json", "analytic --check crossing --n 2 --json")]
    good = [_run_one(cli, argv) for argv in cmds]
    bad = copy.deepcopy(good)
    bad[1] = dict(bad[1], rc=None, out="", raised="ValueError: boom")
    attempted, failed, failures = run.check_passes(checker, cmds, [{"results": good}, {"results": bad}])
    assert (attempted, failed) == (4, 1)
    assert list(failures) == ["analytic --check crossing --n 2 --json"]


def test_workloads_are_seeded():
    for name in workloads.WORKLOADS:
        first = workloads.commands(name, 7)
        assert first == workloads.commands(name, 7)
        assert first != workloads.commands(name, 8)
        assert len(first) >= 100


def test_traced_worker_reports_layers(tmp_path):
    job = {
        "commands": [c.split() for c in ("cyclotomic --n 2 --p-limit 300 --x-limit 200 --json",
                                         "orders 20 1 --json")],
        "probes": [["chain", "2", "--json"]],
        "trace": True,
        "spans_path": str(tmp_path / "spans.npz"),
    }
    _, doc = run._spawn(job, time.monotonic() + 60)
    assert [r["rc"] for r in doc["results"]] == [0, 0] and doc["probes"][0]["rc"] == 0
    layers = doc["layers"]
    funcs = layers["functions"]
    assert funcs["cyclotomic.iter_realizable_systems"]["yielded"] > 0
    assert funcs["prodorders.build_valuation_table"]["calls"] == 1
    assert layers["counters"]["prodorders.build_valuation_table.values"] == 20
    # the probe runs after the workload's layers are summed up
    assert "prodorders.verify_quartic_chain" not in funcs
    assert not any(layers["errors"].values()) and not any(doc["probe_errors"].values())
    assert doc["caches"]["ntcore.roots_of_minus_one"]["size"] > 0
    assert doc["peak_rss_kb"] > 0
    spans = np.load(tmp_path / "spans.npz")
    first_command = spans["spans"][spans["spans"][:, 1] == 1]
    # the cyclotomic command reaches is_prime only through the name cyclotomic imported
    assert list(spans["names"]).index("ntcore.is_prime") in first_command[:, 2]


def test_tracer_counts_escaping_errors_per_layer(checker, monkeypatch):
    # undo the tracer's wrappers when the test ends
    for name, mod in list(sys.modules.items()):
        if name.startswith("fermatprod."):
            for attr, obj in list(vars(mod).items()):
                if not attr.startswith("__"):
                    monkeypatch.setattr(mod, attr, obj)

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(sys.modules["fermatprod.cyclotomic"], "_split_primes", broken)
    trace = Tracer()
    trace.install()
    argv, result = outcome("cyclotomic --n 2 --p-limit 300 --x-limit 200 --json")
    assert result["raised"] == "RuntimeError: injected"
    assert checker.reason(argv, result).startswith("raised RuntimeError")
    # the exception leaves cyclotomic and then cli.main, and is counted once in each
    errors = trace.summary()["errors"]
    assert errors == {"ntcore": 0, "partitions": 0, "cyclotomic": 1, "prodorders": 0,
                      "analytic": 0, "cli": 1}

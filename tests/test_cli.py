"""CLI: subcommands, JSON stability, exit codes."""

import json
import re
import shlex
from pathlib import Path

import pytest

from fermatprod import analytic, cli, cyclotomic, prodorders
from fermatprod.cli import main
from fermatprod.analytic import SIEVE_CAP
from fermatprod.errors import InternalRefusalError
from fermatprod.partitions import PARTITION_MAX_N


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestOrders:
    def test_base_case_human(self, capsys):
        code, out = run(capsys, "orders", "3", "1")
        assert code == 0
        assert "min_order: [2, 2]" in out
        assert "is_perfect_qth_power: True" in out

    def test_base_case_json(self, capsys):
        code, out = run(capsys, "orders", "3", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "fermatprod.report/1"
        assert doc["pass"] is True
        assert doc["payload"]["alpha"] == {"2": 2, "5": 2}
        assert doc["payload"]["min_order"] == [2, 2]

    def test_min_order_m5(self, capsys):
        code, out = run(capsys, "orders", "5", "2", "--json")
        doc = json.loads(out)
        assert doc["payload"]["min_order"] == [17, 1]

    def test_over_cap_exits_2(self, capsys):
        assert main(["orders", "1000000000", "2"]) == 2

    @pytest.mark.parametrize("m,n", [("1", "62"), ("2", "16")])
    def test_values_past_the_size_cap_exit_2(self, capsys, m, n):
        # 1 62 overflowed the root table's int64 arithmetic, 2 16 ran rho on 2^65536+1
        code = main(["orders", m, n, "--json"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("infeasible:"), err

    def test_long_is_a_verify_all_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["orders", "5", "2", "--long"])
        assert exc.value.code == 2


class TestChain:
    def test_quartic_chain(self, capsys):
        code, out = run(capsys, "chain", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        steps = {s["name"]: s for s in doc["payload"]["steps"]}
        assert steps["link_anchor_6"]["detail"]["next_roots"] == [216, 1081, 1291, 1303]
        assert doc["payload"]["covered_through"] == 2873716602918

    def test_quadratic_discovery(self, capsys):
        code, out = run(capsys, "chain", "1", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        links = doc["payload"]["links"]
        assert links[0] == {"anchor": 2, "p": 5, "next_roots": [3, 7], "cover_hi": 6}
        assert doc["payload"]["bound_sufficient"] is False

    def test_octic_discovery(self, capsys):
        # 242^8+1 lies below 2^64, and its link carries the chain past 4^4 and 10^12
        code, out = run(capsys, "chain", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert [link["anchor"] for link in doc["payload"]["links"]] == [4, 242]
        assert doc["payload"]["links"][1]["p"] == 242**8 + 1 < 1 << 64
        assert doc["payload"]["bound_sufficient"] is True
        assert doc["payload"]["covered_through"] == 11763130845074473458
        steps = {s["name"]: s for s in doc["payload"]["steps"]}
        assert steps["asymptotic_handoff"]["pass"] is True

    def test_level_four_reports_its_gap(self, capsys):
        # every anchor a <= 15 with a^16+1 below 2^64 falls short of m = 65539
        code, out = run(capsys, "chain", "4", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["payload"]["covered_through"] == 65538
        assert doc["payload"]["gap"] == [65539, 65539]

    @pytest.mark.parametrize("n", ["4", "5"])
    def test_refused_anchor_is_not_a_usage_error(self, capsys, monkeypatch, n):
        def refuse(v):
            raise InternalRefusalError(f"refused {v}")

        monkeypatch.setattr(prodorders, "is_prime", refuse)
        code = main(["chain", n, "--json"])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("internal refusal:") and "usage:" not in err
        doc = json.loads(out)
        assert (doc["command"], doc["pass"]) == ("chain", False)
        assert doc["payload"]["internal_refusal"] in err

    def test_json_byte_identical(self, capsys):
        _, first = run(capsys, "chain", "2", "--json")
        _, second = run(capsys, "chain", "2", "--json")
        assert first == second

    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 64, 1100, 2000, 14000, 20000])
    def test_every_level_exits_cleanly(self, capsys, n):
        # 2 for a level below 1, else a full report: 0 only at n = 2 and 3
        code = main(["chain", str(n), "--json"])
        out, err = capsys.readouterr()
        if n == 20000:
            # trivial_through = n*2^n has more digits than Python prints: refused, not a traceback
            assert (code, out) == (2, "") and err.startswith("infeasible:"), err
            return
        assert code == (2 if n < 1 else 0 if n in (2, 3) else 1), n
        if n >= 1:
            assert json.loads(out)["payload"]["steps"] and not err


class TestPartitions:
    def test_report(self, capsys):
        code, out = run(capsys, "partitions", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["extreme_partition"] == [7, 3, 1, 1, 1]
        assert doc["payload"]["forcing_total"] == 13

    def test_minimality_flag(self, capsys):
        code, out = run(capsys, "partitions", "2", "--verify-minimality", "--json")
        assert code == 0
        assert json.loads(out)["payload"]["minimality_verified"] is True

    @pytest.mark.parametrize("flags", [[], ["--verify-minimality"]])
    def test_every_size_exits_cleanly(self, capsys, flags):
        # 0 inside 1..PARTITION_MAX_N, 2 outside it, never an uncaught exception
        for n in range(-1, PARTITION_MAX_N + 2):
            code, _ = run(capsys, "partitions", str(n), "--json", *flags)
            assert code == (0 if 1 <= n <= PARTITION_MAX_N else 2), n


class TestCyclotomic:
    def test_search_passes(self, capsys):
        code, out = run(
            capsys,
            "cyclotomic",
            "--n", "2",
            "--p-limit", "120",
            "--x-limit", "80",
            "--single-x-limit", "300",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["counterexample"] is None
        assert doc["payload"]["systems_certified"] > 0

    def test_search_at_level_five(self, capsys):
        code, out = run(
            capsys,
            "cyclotomic",
            "--n", "5",
            "--p-limit", "3000",
            "--x-limit", "2000",
            "--single-x-limit", "100",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        systems = sum(1 for _ in cyclotomic.iter_realizable_systems(5, 3000, 2000))
        assert systems > 0
        assert doc["payload"]["systems_certified"] == systems


    @pytest.mark.parametrize("flag", ["--p-limit", "--x-limit", "--single-x-limit"])
    def test_negative_limit_is_a_usage_error(self, capsys, flag):
        code = main(["cyclotomic", flag, "-1", "--json"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.splitlines() == [f"usage: {flag} must be >= 0, got -1"]

    def test_zero_limits_are_valid(self, capsys):
        code, out = run(
            capsys, "cyclotomic", "--p-limit", "0", "--x-limit", "0", "--single-x-limit", "0",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["payload"]["systems_certified"] == 0

    def test_prime_limit_past_the_sieve_cap_is_infeasible(self, capsys):
        # refused before the sieve allocates anything
        code = main(["cyclotomic", "--p-limit", str(10**10), "--json"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("infeasible:")

    @pytest.mark.parametrize("n,expected", [(-1, 2), (0, 2), (1, 0), (20, 0), (21, 2), (40, 2)])
    def test_every_level_exits_at_once(self, capsys, n, expected):
        # past PARTITION_MAX_N the single-entry bound forms 2^big_n(n), so such n are refused first
        zero = ["--p-limit", "0", "--x-limit", "0", "--single-x-limit", "0"]
        code = main(["cyclotomic", "--n", str(n), *zero, "--json"])
        out, err = capsys.readouterr()
        assert code == expected, n
        if n > PARTITION_MAX_N:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("infeasible:")


class TestAnalytic:
    def test_crossing(self, capsys):
        code, out = run(capsys, "analytic", "--check", "crossing", "--n", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["crossing"] <= 10**12

    def test_margin(self, capsys):
        code, out = run(
            capsys, "analytic", "--check", "margin", "--m", "1000000000000", "--n", "2", "--json"
        )
        doc = json.loads(out)
        assert doc["payload"]["contradiction"] is True

    def test_logsum(self, capsys):
        code, out = run(
            capsys,
            "analytic", "--check", "logsum", "--a", "3", "--x", "1000000",
            "--limit", "1000000", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["records"][0]["status"] == "pass"

    def test_logsum_checks_every_x(self, capsys):
        code, out = run(
            capsys,
            "analytic", "--check", "logsum", "--a", "3", "--x", "2000000", "--x", "3000000", "--json",
        )
        assert code == 0
        records = json.loads(out)["payload"]["records"]
        assert [r["x"] for r in records] == [2_000_000, 3_000_000]
        sieve = analytic.get_sieve(3_000_000)
        for r in records:
            assert r == analytic.check_sampled_bound("logsum", (r["x"],), sieve, 2, 3).detail["records"][0]

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analytic", "--check", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("check", ["crossing", "margin"])
    @pytest.mark.parametrize("n", ["2", "1022", "1023", "2000"])
    def test_closing_inequality_at_any_level(self, capsys, check, n):
        # 2^-(n+1) underflows quietly instead of overflowing a float conversion
        assert main(["analytic", "--check", check, "--n", n, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    @pytest.mark.parametrize(
        "check,option,value,kind",
        [
            ("margin", "--m", "inf", "usage:"),
            ("margin", "--m", "-inf", "usage:"),
            ("margin", "--m", "nan", "usage:"),
            ("margin", "--m", "1.0000000000000001", "usage:"),
            ("margin", "--m", "1e-3", "usage:"),
            ("margin", "--m", "3/2", "usage:"),
            ("margin", "--m", "10/2", "usage:"),
            ("crossing", "--m", "inf", "usage:"),  # parsed whichever check runs
            ("pi", "--x", "2.5", "usage:"),
            ("pi", "--limit", "1e7.5", "usage:"),
            ("margin", "--m", "1e4300", "infeasible:"),  # 4301 digits, never built
            ("margin", "--m", "9" * 4301, "infeasible:"),
            ("margin", "--m", "1" * 400, "infeasible:"),  # past the float range
            ("pi", "--x", "1" * 400, "infeasible:"),  # past SIEVE_CAP
            ("pi", "--limit", "2e9", "infeasible:"),
        ],
        ids=lambda v: v if len(v) < 20 else f"{len(v)}-digits",
    )
    def test_bad_integer_argument_exits_2(self, capsys, check, option, value, kind):
        assert main(["analytic", "--check", check, f"{option}={value}", "--json"]) == 2
        out, err = capsys.readouterr()
        assert not out and err.startswith(kind) and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "text,value",
        [("1e23", 10**23), ("2.5e3", 2500), ("1.50e2", 150), ("120e-1", 12), ("0e9", 0), ("-7", -7)],
    )
    def test_scientific_notation_is_exact(self, capsys, text, value):
        assert cli._scaled_int(text) == value
        if value > 1:
            assert main(["analytic", "--check", "margin", "--m", text, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["params"]["m"] == value

    @pytest.mark.parametrize("n", ["1", "31", "64", "20000"])
    def test_domain_error_exits_2(self, capsys, n):
        # the progression bound is asserted only for n >= 2, and from x = 4^(n+1)
        # on, which lies past the sieve (and past 2^64 from n = 31)
        assert main(["analytic", "--check", "bt", "--n", n]) == 2
        out, err = capsys.readouterr()
        assert not out and err.startswith("usage:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["pi", "--x", "5"], "usage: bound is asserted only for x >= 10^6, got 5"),
            (["pi", "--x", "2000000", "--x", "-3"], "usage: bound is asserted only for x >= 10^6, got -3"),
            (["bt", "--n", "1"], "usage: bound is asserted for n >= 2, got 1"),
            (["bt", "--n", "3", "--x", "255"], "usage: bound needs x >= 4^(n+1) = 256, got 255"),
            (["bt", "--n", "20"], "usage: x=4^21 beyond sieved limit 300000000"),
            (["logsum", "--a", "2"], "usage: a must be an odd class mod 8, got 2"),
            (["logsum", "--x", "999999"], "usage: bound is asserted only for x >= 10^6, got 999999"),
            (["theta", "--a", "9", "--x", "5"], "usage: a must be an odd class mod 8, got 9"),
            (["theta", "--x", "5"], "usage: window is asserted only for x >= 10^6, got 5"),
            # the cap is still refused first
            (["pi", "--x", "5", "--limit", "2e9"], "infeasible: sieve limit above SIEVE_CAP = 1000000000"),
        ],
    )
    def test_refused_before_sieving(self, capsys, monkeypatch, argv, err):
        def refuse(limit):
            raise AssertionError(f"sieved up to {limit} for a refused command")

        monkeypatch.setattr(analytic, "primes_upto", refuse)
        store = analytic._store
        limit = [] if "--limit" in argv else ["--limit", "3e8"]
        assert main(["analytic", "--check", *argv, *limit, "--json"]) == 2
        assert capsys.readouterr() == ("", err + "\n")
        assert analytic._store is store


def readme_commands():
    """(argv, comment) for each `fermatprod ...` line of README's "Command line" block."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## Command line\n+```sh\n(.*?)```", text, re.S).group(1)
    lines = [line.partition("#") for line in block.splitlines() if line.startswith("fermatprod ")]
    assert lines
    return [(shlex.split(cmd)[1:], comment) for cmd, _, comment in lines]


README_COMMANDS = readme_commands()


@pytest.mark.parametrize("argv,comment", README_COMMANDS, ids=[" ".join(a) for a, _ in README_COMMANDS])
def test_readme_command_line_examples_run(capsys, argv, comment):
    # an example exits 1 where its comment says so, else 0
    assert main(argv) == (1 if "exit 1" in comment else 0)
    assert capsys.readouterr().out


class TestParser:
    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_cached_parser_keeps_no_state(self, capsys):
        # --x appends to its default list; a reused parser must not keep it
        code, out = run(capsys, "analytic", "--check", "pi", "--x", "2000000", "--limit", "2000000", "--json")
        assert code == 0
        assert [r["x"] for r in json.loads(out)["payload"]["records"]] == [2000000]
        code, out = run(capsys, "analytic", "--check", "pi", "--limit", "2000000", "--json")
        assert code == 0
        assert [r["x"] for r in json.loads(out)["payload"]["records"]] == [10**6, 2000000]



def _limits(value):
    return [a for flag in ("--p-limit", "--x-limit", "--single-x-limit") for a in (flag, value)]


_MILLION = str(10**6)
FUZZ_ARGV = (
    [["orders", str(m), str(n)] for m in (-1, 0, 1, 2, 50, 51, 10**5, 10**5 + 1) for n in (-1, 0, 1, 6, 7)]
    + [["chain", str(n)] for n in (-1, 0, 1, 2, 3, 4, 5, 20, 21, 64, 10**5)]
    + [["partitions", str(n), *f] for n in (-1, 0, 1, 20, 21) for f in ([], ["--verify-minimality"])]
    + [
        ["cyclotomic", "--n", str(n), *limits]
        for n in (-1, 0, 1, 6, 7, 20, 21)
        for limits in ([], _limits("0"), _limits("-1"))
    ]
    + [["cyclotomic", "--n", "6", "--single-x-limit", "100000"]]
    + [
        ["analytic", "--check", "pi", "--limit", v]
        for v in ("-1", "0", str(10**6 - 1), _MILLION, str(SIEVE_CAP + 1))
    ]
    + [
        ["analytic", "--check", "pi", "--x", v, "--limit", _MILLION]
        for v in ("-1", "0", str(10**6 - 1), _MILLION)
    ]
    + [
        ["analytic", "--check", c, "--a", a, "--x", _MILLION, "--limit", _MILLION]
        for c in ("logsum", "theta")
        for a in ("0", "1", "7", "8")
    ]
    + [["analytic", "--check", "bt", "--n", n, "--limit", _MILLION] for n in ("1", "2")]
    + [["analytic", "--check", c, "--n", n] for c in ("margin", "crossing") for n in ("1", "2")]
    + [["analytic", "--check", "margin", "--m", m] for m in ("1", "2")]
)
# cyclotomic._iroot turns x_limit^(2^n)+1 into a float; ROADMAP item 4 deletes it with the
# single-entry search, and must turn these into plain cases
_IROOT_OVERFLOWS = (
    ["cyclotomic", "--n", "7"],
    ["cyclotomic", "--n", "20"],
    ["cyclotomic", "--n", "6", "--single-x-limit", "100000"],
)
_IROOT_XFAIL = pytest.mark.xfail(
    strict=True, raises=OverflowError, reason="cyclotomic._iroot overflows (ROADMAP item 4)"
)


@pytest.mark.parametrize(
    "argv",
    [pytest.param(a, marks=_IROOT_XFAIL) if a in _IROOT_OVERFLOWS else a for a in FUZZ_ARGV],
    ids=" ".join,
)
def test_integer_argument_edges_exit_cleanly(capsys, argv):
    # every integer argument at the edges of its range: exit 0, 1 or 2 and nothing escapes
    # main; a refusal (2) is one stderr line and no stdout
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1, err

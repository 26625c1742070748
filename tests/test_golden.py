"""Golden digests: canonical --json output stays byte-identical."""

import hashlib
import json
from pathlib import Path

import pytest

from fermatprod.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "orders_dump_alpha.json").read_text())
CLI_GOLDEN = json.loads((GOLDEN_DIR / "cli_json.json").read_text())


def stdout_digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN["sha256"]))
def test_orders_dump_alpha_digest(capsys, key):
    m, n = key.split(",")
    assert stdout_digest(capsys, ["orders", m, n, "--json", "--dump-alpha"]) == GOLDEN["sha256"][key]


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN["sha256"]))
def test_cli_json_digest(capsys, command):
    # the digest pins "pass", and with it the exit code: failed runs are pinned too
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == (0 if json.loads(out)["pass"] else 1)
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_GOLDEN["sha256"][command]

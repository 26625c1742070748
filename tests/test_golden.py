"""Golden digests: canonical --json output and the text output stay byte-identical."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from fermatprod.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "orders_dump_alpha.json").read_text())
CLI_GOLDEN = json.loads((GOLDEN_DIR / "cli_json.json").read_text())
CLI_TEXT = json.loads((GOLDEN_DIR / "cli_text.json").read_text())


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


@pytest.mark.parametrize("command", sorted(CLI_TEXT["sha256"]))
def test_cli_text_digest(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == (0 if "\nresult  : PASS" in out else 1)
    # the wall time on the result line is the one part that varies
    out = re.sub(r" \(\d+\.\d{3}s\)$", "", out, flags=re.M)
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_TEXT["sha256"][command]

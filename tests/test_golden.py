"""Golden digests: canonical orders output stays byte-identical."""

import hashlib
import json
from pathlib import Path

import pytest

from fermatprod.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "orders_dump_alpha.json").read_text())


@pytest.mark.parametrize("key", sorted(GOLDEN["sha256"]))
def test_orders_dump_alpha_digest(capsys, key):
    m, n = key.split(",")
    assert main(["orders", m, n, "--json", "--dump-alpha"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN["sha256"][key]

"""The public API resolves, and the certificate module computes with integers alone."""

import ast

import fermatprod
from fermatprod import cyclotomic


def test_every_public_name_resolves():
    missing = [name for name in fermatprod.__all__ if not hasattr(fermatprod, name)]
    assert not missing


def test_cyclotomic_imports_no_float_math():
    with open(cyclotomic.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported.add(node.module.split(".")[0])
    assert not imported & {"cmath", "math"}

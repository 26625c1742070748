"""The public API resolves, and the certificate module computes with integers alone."""

import ast

import fermatprod
from fermatprod import analytic, cyclotomic, ntcore


def test_every_public_name_resolves():
    missing = [name for name in fermatprod.__all__ if not hasattr(fermatprod, name)]
    assert not missing


def test_names_the_benchmark_reads_exist():
    # bench/worker.py reads these caches' cache_info(), and the bench tests
    # monkeypatch cyclotomic._split_primes: without them every bench run fails
    for cached in (ntcore.roots_of_minus_one, ntcore.lifted_roots, analytic.get_sieve):
        assert cached.cache_info().maxsize is not None
    assert callable(cyclotomic._split_primes)


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

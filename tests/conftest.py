import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--runlong",
        action="store_true",
        default=False,
        help="run long sweeps (full-range brute force, the n=5 minimality enumeration oracle, 1e8 sieves)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "long: long-running sweep, enable with --runlong")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runlong"):
        return
    skip = pytest.mark.skip(reason="needs --runlong")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)

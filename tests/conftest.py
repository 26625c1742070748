import pytest

from fermatprod import analytic, prodorders


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


@pytest.fixture
def cold_engines():
    """Empty the valuation engines (and nothing else) before and after the test.

    Yields the reset function, for a test that must start cold again midway.
    """
    prodorders.reset_engines()
    yield prodorders.reset_engines
    prodorders.reset_engines()


@pytest.fixture
def cold_sieve(monkeypatch):
    """An empty private prime store, with its own buffer, for the test; the process's store comes back after it.

    Yields the reset function, which swaps in another empty store, for a test
    that must sieve from nothing again midway.
    """

    def reset():
        analytic._store = analytic._PrimeStore()

    # the first swap goes through monkeypatch, which restores the process's store
    monkeypatch.setattr(analytic, "_store", analytic._store)
    reset()
    yield reset

import sys

import pytest

from autorbit import catalog, permcore
from autorbit.autgrp import inner_automorphism_ids
from autorbit.stypes import class_type_table
from aut_closed import closed_aut


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def chains(monkeypatch):
    """(limit, order) of each stabilizer chain built from then on, in building order: every
    `schreier_sims` call, each `close_group`'s included, order None where the limit stopped it."""
    calls, real = [], permcore.schreier_sims

    def counted(rows, limit=permcore.DEFAULT_CLOSURE_LIMIT, order=None):
        try:
            chain = real(rows, limit, order)
        except permcore.ClosureLimitExceeded:
            calls.append((limit, None))
            raise
        calls.append((limit, chain.order))
        return chain

    for name, module in list(sys.modules.items()):
        if name.startswith("autorbit") and getattr(module, "schreier_sims", None) is real:
            monkeypatch.setattr(module, "schreier_sims", counted)
    return calls


@pytest.fixture(scope="session")
def alt5():
    return catalog.alt(5)


@pytest.fixture(scope="session")
def alt5_aut(alt5):
    return closed_aut(alt5)


@pytest.fixture(scope="session")
def alt5_typing(alt5, alt5_aut):
    return class_type_table(alt5_aut, inner_automorphism_ids(alt5, alt5_aut))


@pytest.fixture(scope="session")
def alt6():
    return catalog.alt(6)


@pytest.fixture(scope="session")
def alt6_aut(alt6):
    return closed_aut(alt6)


@pytest.fixture(scope="session")
def psl28():
    return catalog.projective_group("SL", 2, 8)


@pytest.fixture(scope="session")
def psl28_aut(psl28):
    return closed_aut(psl28)


@pytest.fixture(scope="session")
def aut_psl34():
    return catalog.extended_aut_psl34()


@pytest.fixture(scope="session")
def psl34_socle(aut_psl34):
    return catalog.psl34_socle_ids(aut_psl34)

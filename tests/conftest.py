import pytest

from autorbit import catalog
from autorbit.autgrp import automorphism_group, inner_automorphism_ids
from autorbit.stypes import class_type_table


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


@pytest.fixture(scope="session")
def alt5():
    return catalog.alt(5)


@pytest.fixture(scope="session")
def alt5_aut(alt5):
    return automorphism_group(alt5)


@pytest.fixture(scope="session")
def alt5_typing(alt5, alt5_aut):
    return class_type_table(alt5_aut, inner_automorphism_ids(alt5, alt5_aut))


@pytest.fixture(scope="session")
def alt6():
    return catalog.alt(6)


@pytest.fixture(scope="session")
def alt6_aut(alt6):
    return automorphism_group(alt6)


@pytest.fixture(scope="session")
def psl28():
    return catalog.projective_group("SL", 2, 8)


@pytest.fixture(scope="session")
def psl28_aut(psl28):
    return automorphism_group(psl28)


@pytest.fixture(scope="session")
def aut_psl34():
    return catalog.extended_aut_psl34()


@pytest.fixture(scope="session")
def psl34_socle(aut_psl34):
    return catalog.psl34_socle_ids(aut_psl34)

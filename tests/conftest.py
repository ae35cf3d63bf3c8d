import pytest

from em2gm.population import build_rule


@pytest.fixture(scope="session")
def rule():
    # the default order-80 rule, built once and shared: rules are immutable
    return build_rule()


@pytest.fixture(scope="session")
def rule160():
    return build_rule(160)

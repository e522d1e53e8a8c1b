import pytest

from tautjac.ideal import RelationIdeal


@pytest.fixture(scope="session")
def ideal_g2():
    return RelationIdeal.build(2)


@pytest.fixture(scope="session")
def ideal_g3():
    return RelationIdeal.build(3)


@pytest.fixture(scope="session")
def ideals():
    # stability checks run inside build
    return {g: RelationIdeal.build(g) for g in range(2, 9)}

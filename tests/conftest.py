import pytest

from bgrank.partitions import rank_census
from bgrank.series import p2_values, pbar_abn_values


@pytest.fixture(scope="session")
def p2_big():
    """Pair counts through 10010: covers every table-driven check in the suite."""
    return p2_values(10010)


@pytest.fixture(scope="session")
def pbar_ab_b5():
    """Residue-class tables for j=0, b=5 through n=2000 (crank sums over p2(0..1000))."""
    return pbar_abn_values(0, 5, 2000)


@pytest.fixture(scope="session")
def censuses_even_30():
    """Brute-force (rank, quotient-rank) censuses for even n <= 30."""
    return {n: rank_census(n) for n in range(0, 31, 2)}

"""Bundled community bContracts (FastMoney, Ballot, DividendPool)."""

from .ballot import Ballot
from .dividend_pool import DividendPool
from .fastmoney import FastMoney

__all__ = ["Ballot", "DividendPool", "FastMoney", "default_community_contracts"]


def default_community_contracts() -> list:
    """Fresh prototypes of the community contracts every deployment carries by default."""
    return [
        FastMoney(FastMoney.DEFAULT_NAME),
        Ballot(Ballot.DEFAULT_NAME),
        DividendPool(DividendPool.DEFAULT_NAME),
    ]

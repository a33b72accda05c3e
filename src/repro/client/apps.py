"""Application-level client wrappers for the bundled bContracts.

These mirror the JavaScript FastMoney and CAS user clients the paper
implements for its automated evaluation (Section VI-A): thin, typed facades
over :class:`BlockumulusClient` for the contracts shipped with the
framework.
"""

from __future__ import annotations

from typing import Any, Optional

from ..contracts.community.ballot import Ballot
from ..contracts.community.fastmoney import FastMoney
from ..contracts.system.cas import ContentAddressableStorage
from ..crypto.keys import Address
from ..messages.signer import Signer
from ..sim.events import Event
from .client import BlockumulusClient


class FastMoneyClient:
    """Client for the FastMoney payment bContract."""

    def __init__(self, client: BlockumulusClient, contract_name: str = FastMoney.DEFAULT_NAME) -> None:
        self.client = client
        self.contract_name = contract_name

    def faucet(self, amount: int, signer: Optional[Signer] = None) -> Event:
        """Credit the caller with new funds (evaluation helper)."""
        return self.client.submit(self.contract_name, "faucet", {"amount": amount}, signer=signer)

    def transfer(
        self, to: Address | str, amount: int, signer: Optional[Signer] = None
    ) -> Event:
        """Transfer ``amount`` units to ``to``."""
        recipient = to.hex() if isinstance(to, Address) else to
        return self.client.submit(
            self.contract_name, "transfer", {"to": recipient, "amount": amount}, signer=signer
        )

    def balance_of(self, account: Address | str) -> Event:
        """Query the balance of ``account``."""
        owner = account.hex() if isinstance(account, Address) else account
        return self.client.query(self.contract_name, "balance_of", {"account": owner})

    def total_supply(self) -> Event:
        """Query the total supply."""
        return self.client.query(self.contract_name, "total_supply")


class CasClient:
    """Client for the content-addressable storage system bContract."""

    def __init__(
        self,
        client: BlockumulusClient,
        contract_name: str = ContentAddressableStorage.DEFAULT_NAME,
    ) -> None:
        self.client = client
        self.contract_name = contract_name

    def put(self, content: bytes, signer: Optional[Signer] = None) -> Event:
        """Upload a blob; the receipt's result carries its CAS hash."""
        return self.client.submit(
            self.contract_name, "put", {"content_hex": "0x" + content.hex()}, signer=signer
        )

    def get(self, digest: str) -> Event:
        """Download a blob by hash (read-only query)."""
        return self.client.query(self.contract_name, "get", {"digest": digest})

    def release(self, digest: str, signer: Optional[Signer] = None) -> Event:
        """Release one reference to a blob."""
        return self.client.submit(self.contract_name, "release", {"digest": digest}, signer=signer)

    def reference_count(self, digest: str) -> Event:
        """Query the current reference count of a blob."""
        return self.client.query(self.contract_name, "reference_count", {"digest": digest})


class BallotClient:
    """Client for the Ballot voting bContract."""

    def __init__(self, client: BlockumulusClient, contract_name: str = Ballot.DEFAULT_NAME) -> None:
        self.client = client
        self.contract_name = contract_name

    def create_election(
        self, election_id: str, question: str, choices: list[str], closes_at: float,
        signer: Optional[Signer] = None,
    ) -> Event:
        """Open a new election."""
        return self.client.submit(
            self.contract_name,
            "create_election",
            {
                "election_id": election_id,
                "question": question,
                "choices": choices,
                "closes_at": closes_at,
            },
            signer=signer,
        )

    def vote(self, election_id: str, choice: str, signer: Optional[Signer] = None) -> Event:
        """Cast a vote."""
        return self.client.submit(
            self.contract_name, "vote", {"election_id": election_id, "choice": choice},
            signer=signer,
        )

    def tally(self, election_id: str) -> Event:
        """Query the current tally."""
        return self.client.query(self.contract_name, "tally", {"election_id": election_id})

    def winner(self, election_id: str) -> Event:
        """Query the leading choice."""
        return self.client.query(self.contract_name, "winner", {"election_id": election_id})


def deploy_contract_source(
    client: BlockumulusClient,
    name: str,
    source: str,
    params: dict[str, Any] | None = None,
    signer: Optional[Signer] = None,
) -> Event:
    """Deploy a destroyable community bContract from source through the deployer."""
    return client.submit(
        "system.deployer",
        "deploy",
        {"name": name, "source": source, "params": params or {}, "destroyable": True},
        signer=signer,
    )

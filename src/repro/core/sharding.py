"""Contract-state sharding across independent cell groups.

The paper's overlay executes every transaction on every cell, so adding
cells buys fault tolerance but not throughput.  This module adds the
missing horizontal dimension: a deployment-level **shard map** partitions
the contract namespace (and the CAS key namespace) across N independent
*cell groups*, each a full Blockumulus consortium of
``consortium_size`` cells with its own ledger, snapshots, recovery and
membership machinery — all sharing one simulation clock, one network
fabric, and one anchor chain.  Aggregate throughput then grows with the
group count, because each group only executes the transactions routed to
the contracts it owns.

Three pieces cooperate (see ``docs/SCALING.md`` for the full model):

* :class:`ShardMap` — the pure routing function: contract name -> owning
  group (stable hash, overridable by explicit pins), CAS blob digest ->
  owning group, and span detection over
  :class:`~repro.core.lanes.AccessFootprint` qualified keys.
* :class:`ShardedDeployment` — builds the groups by one path for every
  count (a single group keeps the configured ids, names and seed, so it
  is the unsharded pipeline bit for bit), deploys each community contract
  on its owning group, and installs the cross-shard *shard directory* on
  every cell; :meth:`ShardedDeployment.over` is the one-group view of an
  already-built plain consortium.
* the **shard digest** — per cycle, every group's cells agree on one
  per-group execution fingerprint
  (:meth:`~repro.core.ledger.TransactionLedger.cycle_execution_fingerprint`);
  the deployment-level digest chains those per-group fingerprints
  cycle by cycle, so an auditor holding only the per-group fingerprints
  can verify global consistency incrementally
  (:func:`chain_shard_digest`, consumed by
  :class:`~repro.audit.auditor.ShardedAuditor`).

Cross-shard transactions (the rare access plan spanning groups) run as a
client-coordinated two-phase commit over the groups' gateway cells —
see :mod:`repro.messages.xshard` and
:class:`~repro.client.sharded.ShardedClient`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from ..contracts.community import default_community_contracts
from ..contracts.system.cas import ContentAddressableStorage
from ..contracts.system.deployer import CommunityDeployer
from ..crypto.fingerprint import canonical_bytes
from ..crypto.hashing import fast_hash
from ..crypto.keys import Address
from ..sim.rng import SeedSequence
from ..sim.events import Process
from .cell import BlockumulusCell
from .config import DeploymentConfig
from .deployment import BlockumulusDeployment, build_infrastructure
from .lanes import AccessFootprint


class ShardingError(Exception):
    """Raised for invalid shard routing or sharded-deployment operations."""


#: Contracts that exist in every group rather than being owned by one.
#: The CAS partitions its *key namespace* by blob digest instead; the
#: deployer runs on whichever group will own the contract being deployed.
NAMESPACE_SHARDED_CONTRACTS = frozenset(
    {ContentAddressableStorage.DEFAULT_NAME, CommunityDeployer.DEFAULT_NAME}
)

#: Index of each group's designated cross-shard gateway cell.  Exactly
#: one cell per group owns the 2PC state machine (and signs votes); its
#: siblings refuse XSHARD traffic, so contradictory per-cell verdicts for
#: one cross-shard transaction cannot exist.  Gateway failover on crash
#: is future work (see docs/SCALING.md limitations).
GATEWAY_CELL_INDEX = 0


def _stable_shard(token: str, shard_count: int) -> int:
    """Deterministic hash bucket of ``token`` (stable across runs/processes)."""
    digest = fast_hash(f"shard/{token}".encode())
    return int.from_bytes(digest[:8], "big") % shard_count


@dataclass
class ShardMap:
    """The deployment-level assignment of namespaces to cell groups.

    Routing is a pure function of this object, so every client and every
    cell holding the same map routes identically.  Contracts are assigned
    by a stable hash of their name unless explicitly *pinned* (which is
    how per-shard instances of one application, e.g. ``fastmoney@s2``,
    land on their intended groups); CAS blobs are assigned by a stable
    hash of their content digest.
    """

    shard_count: int
    pins: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ShardingError("a shard map needs at least one group")
        for name, group in self.pins.items():
            self._check_group(group, name)

    def _check_group(self, group: int, what: str) -> None:
        if not 0 <= group < self.shard_count:
            raise ShardingError(
                f"group {group} for {what!r} is out of range [0, {self.shard_count})"
            )

    def pin(self, contract: str, group: int) -> None:
        """Explicitly assign ``contract`` to ``group`` (overrides the hash)."""
        if not contract:
            raise ShardingError("cannot pin an unnamed contract")
        self._check_group(group, contract)
        self.pins[contract] = group

    def shard_of_contract(self, contract: str) -> int:
        """Owning group of a contract name (pin first, stable hash second)."""
        if not isinstance(contract, str) or not contract:
            raise ShardingError("contract name must be a non-empty string")
        pinned = self.pins.get(contract)
        if pinned is not None:
            return pinned
        return _stable_shard(f"contract/{contract}", self.shard_count)

    def shard_of_cas_key(self, digest: str) -> int:
        """Owning group of a CAS blob digest (the CAS namespace partition)."""
        if not isinstance(digest, str) or not digest:
            raise ShardingError("CAS digest must be a non-empty string")
        return _stable_shard(f"cas/{digest.lower()}", self.shard_count)

    def route_call(self, contract: str, method: str, args: dict[str, Any]) -> int:
        """Owning group of one ``(contract, method, args)`` invocation.

        Most calls route by contract name.  The two namespace-sharded
        system contracts route by the namespace entry they touch: CAS
        calls by blob digest (computed client-side for ``put``), deployer
        calls by the *name of the contract being deployed* — so a freshly
        deployed community contract is registered on the group that will
        own its traffic.
        """
        if contract == ContentAddressableStorage.DEFAULT_NAME:
            if method == "put":
                content_hex = str(args.get("content_hex", ""))
                text = content_hex[2:] if content_hex.startswith("0x") else content_hex
                try:
                    content = bytes.fromhex(text)
                except ValueError as exc:
                    raise ShardingError("cannot route a CAS put of non-hex content") from exc
                return self.shard_of_cas_key(ContentAddressableStorage.content_hash(content))
            digest = args.get("digest")
            if isinstance(digest, str) and digest:
                return self.shard_of_cas_key(digest)
            raise ShardingError(f"cannot route CAS method {method!r} without a digest")
        if contract == CommunityDeployer.DEFAULT_NAME:
            target = args.get("name")
            if isinstance(target, str) and target:
                return self.shard_of_contract(target)
            raise ShardingError("cannot route a deployment without a contract name")
        return self.shard_of_contract(contract)

    def groups_for_footprint(self, footprint: AccessFootprint) -> Optional[frozenset[int]]:
        """Groups an access footprint touches (None when undecidable).

        This is the pre-execution span check of the cross-shard protocol:
        every contract-qualified key of the footprint maps to its
        contract's owning group.  An *exclusive* footprint carries no key
        information, so span detection is undecidable (``None``) and the
        caller must fall back to routing by contract name alone.
        """
        if footprint.exclusive:
            return None
        contracts = {
            contract
            for keys in (footprint.reads, footprint.writes, footprint.deltas)
            for contract, _key in keys
        }
        return frozenset(self.shard_of_contract(contract) for contract in contracts)

    def to_data(self) -> dict[str, Any]:
        """JSON-serializable form (documentation and audit reports)."""
        return {"shard_count": self.shard_count, "pins": dict(sorted(self.pins.items()))}


def _agreed_fingerprint(group: BlockumulusDeployment, cycle: int) -> str:
    """The group's agreed per-cycle execution fingerprint.

    Every live (not crashed) cell of the group must report the same
    :meth:`~repro.core.ledger.TransactionLedger.cycle_execution_fingerprint`;
    divergence means the group itself is inconsistent, which the
    within-group confirmation protocol should have caught — so it is
    surfaced as an error rather than papered over.
    """
    fingerprints = {
        cell.ledger.cycle_execution_fingerprint(cycle)
        for cell in group.cells
        if not cell.fault.crashed
    }
    if len(fingerprints) != 1:
        raise ShardingError(
            f"group {group.index} cells disagree on cycle {cycle}: {sorted(fingerprints)}"
        )
    return fingerprints.pop()


def chain_shard_digest(
    deployment_id: str,
    shard_count: int,
    per_cycle_fingerprints: Iterable[Iterable[str]],
) -> str:
    """Chain per-group execution fingerprints into one deployment digest.

    ``per_cycle_fingerprints`` yields, for each report cycle starting at
    cycle 0, the ordered list of per-group fingerprints
    ``[group 0, group 1, …]``.  The digest is a hash chain

    ``d_{-1} = H(genesis material)``;
    ``d_c = H({prev: d_{c-1}, cycle: c, groups: [fp_0 … fp_{N-1}]})``

    so it commits to every group's whole execution history in order.  It
    is a pure function of the fingerprints — an auditor who has verified
    each group's fingerprints independently can recompute it without any
    further cell interaction (:class:`~repro.audit.auditor.ShardedAuditor`
    does exactly that).
    """
    digest = "0x" + fast_hash(
        canonical_bytes(
            {"kind": "shard-digest", "deployment": deployment_id, "shards": shard_count}
        )
    ).hex()
    for cycle, fingerprints in enumerate(per_cycle_fingerprints):
        groups = list(fingerprints)
        if len(groups) != shard_count:
            raise ShardingError(
                f"cycle {cycle} carries {len(groups)} group fingerprints, "
                f"expected {shard_count}"
            )
        digest = "0x" + fast_hash(
            canonical_bytes({"prev": digest, "cycle": cycle, "groups": groups})
        ).hex()
    return digest


class ShardedDeployment:
    """N independent cell groups sharing one simulation, network, and chain.

    This is the one deployment front door: every ``shard_count`` —
    including 1 — is built by the same steps.  The shared
    :class:`~repro.core.deployment.Infrastructure` (environment, network
    fabric, metrics registry and anchor chain) is built once; each group
    ``g`` is a :class:`BlockumulusDeployment` built on it by the one group
    builder, which also names the group (see
    :meth:`BlockumulusDeployment._build`: a single group keeps the
    configured id, node names and seed, so it is the unsharded pipeline
    bit for bit); the default community contracts are then deployed once
    each, on their hash-assigned owning groups, and every cell receives
    the shard directory that enables its cross-shard gateway role.

    ``groups`` adopts consortiums that are already built, on one
    infrastructure, instead of building ``config.shard_count`` new ones:
    that is how :meth:`over` views a plain deployment.  Adopted groups
    build nothing and are not reshaped; the community contracts they hold
    are read off each group's cell 0 and stay where they are.
    """

    def __init__(
        self,
        config: Optional[DeploymentConfig] = None,
        groups: Sequence[BlockumulusDeployment] = (),
    ) -> None:
        self.config = config = config or DeploymentConfig()
        self.seeds = SeedSequence(config.seed)
        built = not groups
        if built:
            infrastructure = build_infrastructure(config, self.seeds)
            groups = [
                BlockumulusDeployment._group(config, infrastructure, index)
                for index in range(config.shard_count)
            ]
        self.groups = list(groups)
        self.infrastructure = self.groups[0].infrastructure
        self.env, self.network, self.metrics, self.eth_node = self.infrastructure
        self.shard_map = ShardMap(len(self.groups))
        #: Community contracts deployed through this front door: name -> group.
        self.contract_locations: dict[str, int] = {}
        for group in self.groups:
            for name in group.cell(0).contracts.names():
                if name not in NAMESPACE_SHARDED_CONTRACTS:
                    self.shard_map.pin(name, group.index)
                    self.contract_locations[name] = group.index
        if not built:
            return
        self.deploy_contract_instances(default_community_contracts())
        directory = self.gateway_directory()
        for group in self.groups:
            for cell in group.cells:
                cell.install_shard_directory(
                    group.index, directory, gateway=(cell.index == GATEWAY_CELL_INDEX)
                )

    @classmethod
    def over(cls, deployment: BlockumulusDeployment) -> "ShardedDeployment":
        """The one-group view of an already-built consortium.

        The view shares the consortium's config and infrastructure and
        builds nothing: it is how workloads, oracles and clients written
        against the front door accept a plain
        :class:`BlockumulusDeployment`.  The community contracts already
        deployed are read off cell 0's registry, so a view taken later
        still routes to what an earlier one deployed.  The cells stay
        unsharded (no gateway role): one group has nobody to cross to.
        """
        return cls(deployment.config, [deployment])

    def as_sharded(self) -> "ShardedDeployment":
        """Itself — so callers take this or a plain deployment alike."""
        return self

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Number of cell groups N."""
        return len(self.groups)

    def gateway_directory(self) -> dict[int, frozenset[Address]]:
        """The shard directory: each group's designated gateway address.

        It lists only the gateway: decision certificates and vouchers must
        carry *the* gateway's signature, and sibling cells refuse XSHARD
        traffic altogether.
        """
        return {
            group.index: frozenset({group.cells[GATEWAY_CELL_INDEX].address})
            for group in self.groups
        }

    def group(self, index: int) -> BlockumulusDeployment:
        """Cell group by index."""
        try:
            return self.groups[index]
        except IndexError:
            raise ShardingError(f"no cell group with index {index}") from None

    def group_of_contract(self, contract: str) -> BlockumulusDeployment:
        """The group that owns ``contract``; unknown contracts are an error.

        Namespace-sharded system contracts (CAS, deployer) exist on every
        group and route per call, not per contract — asking for a single
        owning group for them is also an error (use
        :meth:`ShardMap.route_call`).
        """
        if contract in NAMESPACE_SHARDED_CONTRACTS:
            raise ShardingError(
                f"{contract!r} is namespace-sharded; route individual calls instead"
            )
        group = self.contract_locations.get(contract)
        if group is None:
            raise ShardingError(f"no contract named {contract!r} is deployed in any group")
        return self.groups[group]

    # ------------------------------------------------------------------
    # Contract deployment
    # ------------------------------------------------------------------
    def deploy_contract_instances(
        self, prototype_list: list[Any], group: Optional[int] = None
    ) -> dict[str, int]:
        """Deploy each prototype on its owning group (all of that group's cells).

        ``group`` pins every prototype to an explicit group instead of the
        shard map's hash assignment — how per-shard application instances
        (e.g. one FastMoney per group) are placed.  Returns the name ->
        group placement that was applied.
        """
        placements: dict[str, int] = {}
        for prototype in prototype_list:
            target = group if group is not None else self.shard_map.shard_of_contract(
                prototype.name
            )
            self.shard_map.pin(prototype.name, target)
            self.groups[target].deploy_community_contract_instances([prototype])
            self.contract_locations[prototype.name] = target
            placements[prototype.name] = target
        return placements

    # ------------------------------------------------------------------
    # Dynamic membership (per-group crash / recover / standby surface)
    # ------------------------------------------------------------------
    # Thin, validated delegates to the owning group,
    # so fault injectors (repro.chaos) and tests can target "cell c of
    # group g" without reaching into deployment internals — and so a bad
    # target fails loudly through ShardingError instead of an IndexError.

    def crash_cell(self, group: int, cell: int) -> None:
        """Crash cell ``cell`` of group ``group`` (drops in-flight work)."""
        self._group_cell(group, cell)
        self.group(group).crash_cell(cell)

    def exclude_cell(self, group: int, cell: int, cycle: Optional[int] = None) -> None:
        """Scripted consortium exclusion of one group member (Section V)."""
        self._group_cell(group, cell)
        self.group(group).exclude_cell(cell, cycle=cycle)

    def restore_cell(self, group: int, cell: int) -> None:
        """Bring a crashed cell's process and network endpoint back up."""
        self._group_cell(group, cell)
        self.group(group).restore_cell(cell)

    def recover_cell(self, group: int, cell: int, donor_index: Optional[int] = None) -> Process:
        """Run the full resync+rejoin recovery of one group member.

        Returns the recovery :class:`~repro.sim.events.Process` (as the
        underlying :meth:`BlockumulusDeployment.recover_cell` does).
        """
        self._group_cell(group, cell)
        return self.group(group).recover_cell(cell, donor_index=donor_index)

    def activate_standby(self, group: int, cell: int, donor_index: Optional[int] = None) -> Process:
        """Bootstrap a provisioned standby cell of one group into its quorum."""
        self._group_cell(group, cell)
        return self.group(group).activate_standby(cell, donor_index=donor_index)

    def _group_cell(self, group: int, cell: int) -> BlockumulusCell:
        """The addressed cell, or a ShardingError naming the bad coordinate."""
        cells = self.group(group).cells
        if not 0 <= cell < len(cells):
            raise ShardingError(f"group {group} has no cell {cell} (cells are [0, {len(cells)}))")
        return cells[cell]

    # ------------------------------------------------------------------
    # Simulation driving
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Advance the shared simulation clock (all groups together)."""
        self.env.run(until=until)

    def run_cycles(self, cycles: int) -> None:
        """Run all groups for an integer number of report cycles."""
        target = self.env.now + cycles * self.config.report_period + 1.0
        self.env.run(until=target)

    # ------------------------------------------------------------------
    # Global consistency (the shard digest)
    # ------------------------------------------------------------------
    def group_cycle_fingerprints(self, cycle: int) -> list[str]:
        """Per-group agreed execution fingerprints for one cycle, in order."""
        return [_agreed_fingerprint(group, cycle) for group in self.groups]

    def shard_digest(self, through_cycle: int) -> str:
        """The chained deployment digest over cycles ``0..through_cycle``.

        This is the global-consistency commitment: it covers every
        group's per-cycle execution fingerprints in group order, chained
        cycle by cycle (:func:`chain_shard_digest`).
        """
        if through_cycle < 0:
            raise ShardingError("the shard digest needs at least cycle 0")
        return chain_shard_digest(
            self.config.deployment_id,
            self.shard_count,
            (self.group_cycle_fingerprints(cycle) for cycle in range(through_cycle + 1)),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def statistics(self) -> dict[str, Any]:
        """Aggregated deployment statistics, per group plus global totals."""
        return {
            "shard_count": self.shard_count,
            "shard_map": self.shard_map.to_data(),
            "contract_locations": dict(sorted(self.contract_locations.items())),
            "network_bytes": self.network.total_bytes(),
            "network_messages": self.network.total_messages(),
            "groups": [group.statistics() for group in self.groups],
        }

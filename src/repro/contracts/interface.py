"""The standard bContract interface (Section III-C7).

A bContract is a decentralized program deployed identically on every
Blockumulus cell.  To participate in snapshots it must implement the data
model, *data fingerprinting*, and *snapshot cloning* interfaces; to be
callable it exposes methods invoked through signed transactions.  The base
class below wires all of that to a :class:`KeyValueStore` so that concrete
contracts only write their business methods.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .context import BContractError, InvocationContext
from .state_store import AccessSet, KeyValueStore, MutationJournal, StateExport, StoreSnapshot


def bcontract_method(func: Callable[..., Any]) -> Callable[..., Any]:
    """Mark a method as invocable through signed transactions."""
    func._is_bcontract_method = True  # type: ignore[attr-defined]
    return func


def bcontract_view(func: Callable[..., Any]) -> Callable[..., Any]:
    """Mark a method as a read-only query (no state changes, no receipt)."""
    func._is_bcontract_view = True  # type: ignore[attr-defined]
    return func


class BContract:
    """Base class for Blockumulus smart contracts.

    Subclasses define transaction methods with :func:`bcontract_method` and
    read-only queries with :func:`bcontract_view`.  All persistent state
    must live in ``self.store`` so that fingerprinting, cloning, rollback,
    export, and auditor replay work uniformly.
    """

    #: Contract type name; instances get a deployment name as well.
    TYPE = "bcontract"
    #: Whether the contract is a pre-deployed system contract.
    IS_SYSTEM = False

    def __init__(self, name: str, owner: Any = None, params: dict[str, Any] | None = None) -> None:
        self.name = name
        self.owner = owner
        self.params = dict(params or {})
        self.store = KeyValueStore()
        self._methods: dict[str, Callable[..., Any]] = {}
        self._views: dict[str, Callable[..., Any]] = {}
        #: Mutation journal of the most recent invocation (committed or
        #: rolled back; None if it was refused before reaching the store),
        #: for plan verification and lane diagnostics.
        self.last_journal: Optional[MutationJournal] = None
        #: Keys read by the most recent view query.
        self.last_view_reads: frozenset[str] = frozenset()
        for attr_name in dir(self):
            if attr_name.startswith("__"):
                continue
            attr = getattr(self, attr_name)
            if not callable(attr):
                continue
            if getattr(attr, "_is_bcontract_method", False):
                self._methods[attr_name] = attr
            if getattr(attr, "_is_bcontract_view", False):
                self._views[attr_name] = attr
        self.setup()

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Initialize contract state at deployment time (override freely)."""

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def methods(self) -> list[str]:
        """Names of all transaction methods."""
        return sorted(self._methods)

    def views(self) -> list[str]:
        """Names of all read-only query methods."""
        return sorted(self._views)

    def invoke(self, ctx: InvocationContext, method: str, args: dict[str, Any]) -> Any:
        """Execute a transaction method atomically.

        Store writes are journaled; if the method raises
        :class:`BContractError` (or any exception), every write is rolled
        back and the error propagates to the executor, which reverts the
        transaction on this cell.
        """
        self.last_journal = None
        handler = self._methods.get(method)
        if handler is None:
            raise BContractError(f"{self.name}: unknown method {method!r}")
        if not isinstance(args, dict):
            raise BContractError(f"{self.name}: arguments must be an object")
        self.store.begin()
        try:
            result = handler(ctx, **args)
        except BContractError:
            self.last_journal = self.store.rollback()
            raise
        except TypeError as exc:
            self.last_journal = self.store.rollback()
            raise BContractError(f"{self.name}.{method}: bad arguments ({exc})") from exc
        except Exception as exc:  # noqa: BLE001 - contract bugs must revert cleanly
            self.last_journal = self.store.rollback()
            raise BContractError(f"{self.name}.{method}: internal error ({exc})") from exc
        self.last_journal = self.store.commit()
        return result

    @property
    def last_access(self) -> Optional[AccessSet]:
        """Observed access set of the most recent invocation, frozen from its journal when read."""
        journal = self.last_journal
        return None if journal is None else journal.access_set()

    def query(self, view: str, args: dict[str, Any]) -> Any:
        """Execute a read-only view (never mutates state).

        The view runs under the store's read-only guard: any write attempt
        raises (and surfaces as :class:`BContractError`), so a buggy view
        can never pollute the write set or the fingerprint, and the keys it
        read are recorded in :attr:`last_view_reads`.  Other exceptions map
        exactly as in :meth:`invoke`.
        """
        handler = self._views.get(view)
        if handler is None:
            raise BContractError(f"{self.name}: unknown view {view!r}")
        if not isinstance(args, dict):
            raise BContractError(f"{self.name}: arguments must be an object")
        self.store.begin_view()
        try:
            return handler(**args)
        except BContractError:
            raise
        except TypeError as exc:
            raise BContractError(f"{self.name}.{view}: bad arguments ({exc})") from exc
        except Exception as exc:  # noqa: BLE001 - view bugs must not crash the cell
            raise BContractError(f"{self.name}.{view}: internal error ({exc})") from exc
        finally:
            self.last_view_reads = self.store.end_view()

    # ------------------------------------------------------------------
    # Access planning (conflict-aware execution lanes)
    # ------------------------------------------------------------------
    def access_plan(
        self, method: str, args: dict[str, Any], *, sender: str, tx_id: str
    ) -> Optional[AccessSet]:
        """Declare the store keys ``method`` may touch, before executing it.

        The lane scheduler calls this to decide which transactions may run
        concurrently.  Returning ``None`` (the default) means "unknown":
        the transaction is treated as exclusive and serializes against
        everything, which is always safe.  Overrides must be conservative —
        every key the method can possibly write must appear in ``writes``
        (or ``deltas`` for pure :meth:`KeyValueStore.increment` keys whose
        running value the result does not expose); after every execution
        it ran, the lane scheduler checks the invocation's written and
        incremented keys against the declared plan and counts each
        execution that touched an undeclared one as a ``plan_overruns``
        (:meth:`repro.core.lanes.LaneScheduler.statistics`).
        Implementations must not raise and must not read contract state
        (plans are evaluated before the transaction's turn in the schedule).
        """
        return None

    # ------------------------------------------------------------------
    # Fingerprinting and cloning (the mandatory interfaces)
    # ------------------------------------------------------------------
    def fingerprint(self) -> bytes:
        """Fingerprint of the contract's current data."""
        return self.store.fingerprint()

    def fingerprint_hex(self) -> str:
        """0x-prefixed fingerprint of the current data."""
        return self.store.fingerprint_hex()

    def clone_snapshot(self) -> StoreSnapshot:
        """Temporarily capture the current state for snapshot fingerprinting."""
        return self.store.clone_snapshot()

    # ------------------------------------------------------------------
    # Export / restore (auditing, cell resync)
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """Full copy of the contract data (auditor download)."""
        return self.store.export_state()

    def export_state_lazy(self) -> StateExport:
        """O(1) copy-on-write export; materializes on first download."""
        return self.store.cow_export()

    def restore_state(self, data: dict[str, Any]) -> None:
        """Overwrite the contract data (cell resync after exclusion)."""
        self.store.restore_state(data)

    def describe(self) -> dict[str, Any]:
        """Human-readable summary used by deployment listings."""
        return {
            "name": self.name,
            "type": self.TYPE,
            "system": self.IS_SYSTEM,
            "owner": self.owner.hex() if hasattr(self.owner, "hex") else self.owner,
            "methods": self.methods(),
            "views": self.views(),
            "entries": len(self.store),
            "fingerprint": self.fingerprint_hex(),
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} entries={len(self.store)}>"

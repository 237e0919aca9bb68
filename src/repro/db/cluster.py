"""The cluster facade — a whole distributed database in one object.

:class:`Cluster` wires together every substrate for one simulation run:
scheduler, tracer, RNG, network, sites (storage + locks + protocol
engine), failure injection, and the decision ledger that every verdict
(:meth:`Cluster.outcome`, :meth:`Cluster.committed_history`,
:meth:`Cluster.live_undecided`) reads.  All examples, tests and
benchmarks drive the system through this class.

Protocol selection is by name:

=========  ==============================================  ===========
name       protocol                                        termination
=========  ==============================================  ===========
``2pc``    two-phase commit (Fig. 1)                       cooperative
``3pc``    three-phase commit (Fig. 2)                     Skeen [15]
``skq``    Skeen's site-quorum protocol [16]               site votes
``qtp1``   the paper's commit protocol 1 (Fig. 9)          Fig. 5
``qtp2``   the paper's commit protocol 2 (Fig. 9)          Fig. 8
=========  ==============================================  ===========
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.analysis.availability import AvailabilityReport, availability_snapshot
from repro.analysis.consistency import ConsistencyReport
from repro.common.errors import ConfigurationError, QuorumUnreachableError
from repro.concurrency.serializability import CommittedTxn
from repro.common.ids import make_txn_id
from repro.db.site import Site, SiteHooks
from repro.db.txn import TxnHandle
from repro.net.delays import DelayModel
from repro.net.network import Network
from repro.protocols.ledger import DecisionLedger
from repro.protocols.qtp.commit import QTP1Engine, QTP2Engine
from repro.protocols.qtp.generalized import PrimaryTerminationRule, QTPPrimaryEngine
from repro.protocols.qtp.quorums import TerminationRule1, TerminationRule2
from repro.replication.primary import PrimaryCopyStrategy
from repro.protocols.skeen import SkeenEngine, SkeenQuorumRule
from repro.protocols.threepc import ThreePCEngine, ThreePCTerminationRule
from repro.protocols.twopc import CooperativeTerminationRule, TwoPCEngine
from repro.replication.accessor import QuorumPlanner, ReadResult
from repro.replication.catalog import ReplicaCatalog
from repro.replication.missing_writes import MissingWritesTracker
from repro.sim.failures import FailureInjector, FailurePlan, JoinSite, LeaveSite
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.transactions import InteractiveTransaction

PROTOCOL_NAMES = ("2pc", "3pc", "skq", "qtp1", "qtp2", "qtpp")


class Cluster:
    """A simulated distributed database running one commit protocol."""

    def __init__(
        self,
        catalog: ReplicaCatalog,
        protocol: str = "qtp1",
        seed: int = 0,
        delay_model: DelayModel | None = None,
        extra_sites: Iterable[int] = (),
        site_votes: Mapping[int, int] | None = None,
        commit_quorum: int | None = None,
        abort_quorum: int | None = None,
        primaries: Mapping[str, int] | None = None,
        enforce_ignore_rules: bool = True,
        tracer: Tracer | None = None,
    ) -> None:
        """Build a cluster.

        Args:
            catalog: replica placement and quorum sizes.
            protocol: one of :data:`PROTOCOL_NAMES` (``qtpp`` is the §5
                generalization over the primary-copy strategy).
            seed: run seed (drives delays, loss, workload randomness).
            delay_model: message latency model; default FixedDelay(1).
            extra_sites: sites hosting no copies (pure coordinators).
            site_votes: for ``skq``: votes per site (default 1 each).
            commit_quorum: for ``skq``: explicit Vc (default: adaptive
                majority over each transaction's participants).
            abort_quorum: for ``skq``: explicit Va.
            primaries: for ``qtpp``: item -> primary site (default:
                each item's lowest-id host).
            enforce_ignore_rules: pass False only to reproduce
                Example 3's broken variant.
            tracer: a pre-configured debug trace recorder
                (capacity-bounded, ring-buffered, empty, or the legacy
                ``columnar=False`` store); default: an unbounded
                columnar :class:`Tracer`.  Verdicts never read it —
                they come from :attr:`ledger` — so any tracer yields
                the same outcomes.
        """
        if protocol not in PROTOCOL_NAMES:
            raise ConfigurationError(
                f"unknown protocol {protocol!r}; choose from {PROTOCOL_NAMES}"
            )
        self.catalog = catalog
        self.protocol = protocol
        self._enforce_ignore_rules = enforce_ignore_rules
        self.scheduler = Scheduler()
        self.tracer = tracer if tracer is not None else Tracer()
        #: every transaction's verdict facts, written by the engines
        self.ledger = DecisionLedger()
        self.rng = RngRegistry(seed)
        self.network = Network(self.scheduler, self.tracer, self.rng, delay_model)
        self.sites: dict[int, Site] = {}
        site_ids = sorted(set(catalog.all_sites()) | set(extra_sites))
        for site_id in site_ids:
            self.sites[site_id] = Site(site_id, self.network, catalog)
        self._attach_engines(
            site_votes, commit_quorum, abort_quorum, primaries, enforce_ignore_rules
        )
        self.injector = FailureInjector(
            self.scheduler, self.network, membership=self._apply_membership
        )
        self.network.subscribe(self._on_connectivity_change)
        #: sites that left gracefully (kept for post-run inspection —
        #: their WALs and stores survive the decommission by design).
        self.departed: dict[int, Site] = {}
        self._txns: dict[str, TxnHandle] = {}
        self._read_footprints: dict[str, dict[str, int]] = {}
        self._readonly_committed: list[CommittedTxn] = []
        self.missing_writes = MissingWritesTracker()
        self._counter = 0

    def _attach_engines(
        self,
        site_votes: Mapping[int, int] | None,
        commit_quorum: int | None,
        abort_quorum: int | None,
        primaries: Mapping[str, int] | None,
        enforce_ignore_rules: bool,
    ) -> None:
        if self.protocol == "skq":
            votes = dict(site_votes) if site_votes else {s: 1 for s in self.sites}
            # explicit quorums pin Vc/Va globally (the paper's Example 1
            # setup); otherwise they adapt per transaction to its
            # participants' vote total (majority-style defaults).
            self.skeen_rule = SkeenQuorumRule(votes, commit_quorum, abort_quorum)
        if self.protocol == "qtpp":
            self.primary_strategy = PrimaryCopyStrategy(self.catalog, primaries)
        for site in self.sites.values():
            engine_cls, rule, extra = self._engine_for(site)
            engine = engine_cls(
                node=site,
                wal=site.wal,
                catalog=self.catalog,
                rule=rule,
                ledger=self.ledger,
                hooks=SiteHooks(site),
                enforce_ignore_rules=enforce_ignore_rules,
                **extra,
            )
            site.attach_engine(engine)

    def _engine_for(self, site: Site):
        if self.protocol == "2pc":
            return TwoPCEngine, CooperativeTerminationRule(), {}
        if self.protocol == "3pc":
            return ThreePCEngine, ThreePCTerminationRule(), {}
        if self.protocol == "skq":
            return SkeenEngine, self.skeen_rule, {}
        if self.protocol == "qtp1":
            return QTP1Engine, TerminationRule1(self.catalog), {}
        if self.protocol == "qtpp":
            return (
                QTPPrimaryEngine,
                PrimaryTerminationRule(self.primary_strategy),
                {"strategy": self.primary_strategy},
            )
        return QTP2Engine, TerminationRule2(self.catalog), {}

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------

    def update(
        self,
        origin: int,
        writes: Mapping[str, Any],
        txn_id: str | None = None,
    ) -> TxnHandle:
        """Submit an update transaction and start its commit procedure.

        Gifford semantics: the participants are the *reachable* hosts
        of the writeset copies, and they must muster ``w(x)`` votes for
        every written item (unreachable copies go stale; version
        numbers mask them at read time).  New version numbers are
        resolved from the reachable copies (max observed + 1).  The
        commit protocol then runs asynchronously — call :meth:`run` to
        let it play out and :meth:`outcome` / :meth:`states` to
        inspect the result.

        Raises:
            QuorumUnreachableError: the origin's partition lacks a
                write quorum for some written item.
        """
        self._counter += 1
        txn = txn_id or make_txn_id(origin, self._counter)
        versioned: dict[str, tuple[Any, int]] = {}
        for item in sorted(writes):
            hosting = self.network.reachable_from(origin, self.catalog.sites_of(item))
            gathered = self.catalog.votes(item, hosting)
            if gathered < self.catalog.w(item):
                raise QuorumUnreachableError(item, "write", gathered, self.catalog.w(item))
            versions = [self.sites[s].store.read(item).version for s in hosting]
            versioned[item] = (writes[item], QuorumPlanner.next_version(versions))
        participants = tuple(
            self.network.reachable_from(origin, self.catalog.sites_of_any(versioned))
        )
        handle = TxnHandle(txn, origin, versioned, participants)
        self._txns[txn] = handle
        origin_site = self.sites[origin]
        assert origin_site.engine is not None
        origin_site.engine.begin_commit(txn, versioned, participants=participants)
        return handle

    def transaction(self, origin: int, txn_id: str | None = None) -> "InteractiveTransaction":
        """Open an interactive transaction (quorum reads + staged writes).

        Ids come from this cluster's own counter, so identically seeded
        runs produce identical transaction ids (the experiment harness
        compares runs by id).  See
        :class:`repro.db.transactions.InteractiveTransaction`.
        """
        from repro.db.transactions import InteractiveTransaction

        if txn_id is None:
            self._counter += 1
            txn_id = make_txn_id(origin, self._counter)
        return InteractiveTransaction(self, origin, txn_id)

    def register_submitted(self, handle: TxnHandle, reads: Mapping[str, int]) -> None:
        """Record a submitted interactive transaction's read footprint."""
        self._txns[handle.txn] = handle
        self._read_footprints[handle.txn] = dict(reads)

    def record_footprint(self, txn: str, reads: Mapping[str, int], writes: Mapping[str, int]) -> None:
        """Record a read-only transaction that committed client-side."""
        self._readonly_committed.append(CommittedTxn(txn, dict(reads), dict(writes)))

    def committed_history(self) -> list[CommittedTxn]:
        """The committed transactions' footprints, for 1SR checking.

        A transaction counts as committed when any participant recorded
        a commit decision (decisions are atomic across participants in
        the safe protocols — and if they were not, the consistency
        checker flags the run anyway).
        """
        history = list(self._readonly_committed)
        for txn, handle in self._txns.items():
            if "commit" not in self.ledger.outcomes(txn).values():
                continue
            history.append(
                CommittedTxn(
                    txn,
                    reads=dict(self._read_footprints.get(txn, {})),
                    writes={item: version for item, (__, version) in handle.writes.items()},
                )
            )
        return history

    def read(self, origin: int, item: str) -> ReadResult:
        """Quorum-read an item from the origin's partition.

        Copies locked by undecided transactions are unusable (factor 1
        of the paper's availability analysis); the remaining reachable
        copies must muster ``r(x)`` votes (factor 2).

        Raises:
            QuorumUnreachableError: when the origin's partition cannot
                assemble a read quorum of unlocked copies.
        """
        planner = QuorumPlanner(self.catalog)
        blocked = self.blocked_map()
        hosting = self.network.reachable_from(origin, self.catalog.sites_of(item))
        usable = [
            s
            for s in hosting
            if not self.sites[s].locks.is_locked(item, blocked.get(s, set()))
        ]
        quorum = planner.plan_read(item, usable)
        replies = {s: self.sites[s].store.read(item) for s in quorum}
        return planner.resolve_read(item, replies)

    # ------------------------------------------------------------------
    # missing-writes adaptation (Eager & Sevcik [5]; cited in paper §2)
    # ------------------------------------------------------------------

    def sync_missing_writes(self) -> None:
        """Refresh the missing-writes bookkeeping from copy versions.

        The real scheme piggybacks missing-write lists on transactions;
        here an oracle pass compares each copy's version against the
        item's newest installed version — equivalent information,
        obtained from the simulator's global view.  Call after running
        the simulation and before :meth:`fast_read`.
        """
        for item in self.catalog.item_names:
            hosts = self.catalog.sites_of(item)
            versions = {s: self.sites[s].store.read(item).version for s in hosts}
            newest = max(versions.values())
            for site, version in versions.items():
                if version < newest:
                    # the copy missed every write up to `newest`
                    self.missing_writes.record_write(item, newest, [site], [])
                else:
                    self.missing_writes.record_repair(item, site, newest)

    def fast_read(self, origin: int, item: str) -> tuple[Any, int]:
        """Read with the missing-writes fast path.

        Returns ``(value, copies_consulted)``.  While no copy of the
        item has missing writes, *any single copy* is current and one
        suffices (``copies_consulted == 1``); otherwise this falls back
        to a full quorum read.  The benchmark for experiment E15
        measures the saving.
        """
        if self.missing_writes.read_one_allowed(item):
            hosting = self.network.reachable_from(origin, self.catalog.sites_of(item))
            blocked = self.blocked_map()
            for site in hosting:
                if not self.sites[site].locks.is_locked(item, blocked.get(site, set())):
                    return self.sites[site].store.read(item).value, 1
            raise QuorumUnreachableError(item, "read", 0, 1)
        result = self.read(origin, item)
        return result.value, len(result.quorum)

    def repair(self, item: str) -> int:
        """Bring stale reachable copies current (read-repair).

        Returns the number of copies refreshed.  Clearing the last
        stale copy re-enables the read-one fast path for the item.
        """
        hosts = self.catalog.sites_of(item)
        live = [s for s in hosts if self.sites[s].alive]
        if not live:
            return 0
        newest_site = max(live, key=lambda s: self.sites[s].store.read(item).version)
        newest = self.sites[newest_site].store.read(item)
        refreshed = 0
        for site in live:
            copy = self.sites[site].store.read(item)
            if copy.version < newest.version:
                self.sites[site].store.write(item, newest.value, newest.version)
                refreshed += 1
            self.missing_writes.record_repair(item, site, newest.version)
        return refreshed

    # ------------------------------------------------------------------
    # simulation control
    # ------------------------------------------------------------------

    def run(self) -> float:
        """Run the simulation to quiescence; returns final virtual time."""
        return self.scheduler.run()

    def run_until(self, deadline: float) -> float:
        """Run the simulation up to a virtual-time deadline."""
        return self.scheduler.run_until(deadline)

    def arm_failures(self, plan: FailurePlan) -> None:
        """Schedule a failure plan for this run."""
        self.injector.arm(plan)

    def _on_connectivity_change(self, event: str) -> None:
        for site in self.sites.values():
            if site.alive and site.engine is not None:
                site.engine.kick()

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------

    def join_site(
        self,
        site_id: int,
        copies: Mapping[str, int] | None = None,
        near: int | None = None,
    ) -> Site:
        """Register a brand-new site mid-run (elastic membership).

        Builds the full database stack for the site — WAL, replica
        store, lock manager and a protocol engine running this
        cluster's protocol — admits its ``copies`` into the shared
        catalog (quorums re-derived majority-style, see
        :meth:`ReplicaCatalog.admit_site
        <repro.replication.catalog.ReplicaCatalog.admit_site>`), and
        registers it on the network.  An active partition is preserved:
        the site joins as a singleton component unless ``near`` names
        the site it is wired to, in which case it lands in ``near``'s
        component.

        Joined copies receive a component-local state transfer (the
        newest reachable version; stale start at version 0 otherwise,
        which version masking already handles), so the join never
        *lowers* availability inside its component.  Commit protocols
        need no special case — later transactions simply see a new
        reachable participant with catalog votes.

        Raises:
            ConfigurationError: duplicate site id, unknown items, or a
                join the catalog / quorum rule rejects.  A rejected
                join leaves the cluster unchanged.
        """
        if site_id in self.sites:
            raise ConfigurationError(f"site {site_id} already exists")
        if near is not None and near not in self.sites:
            raise ConfigurationError(f"cannot join near unknown site {near}")
        copies = dict(copies or {})
        if self.protocol == "skq":
            # validate the vote admission before any state is built
            self.skeen_rule.add_site(site_id)
        try:
            self.catalog.admit_site(site_id, copies)
        except ConfigurationError:
            if self.protocol == "skq":
                self.skeen_rule.discard_site(site_id)
            raise
        site = Site(site_id, self.network, self.catalog)  # registers on the network
        self.sites[site_id] = site
        if near is not None:
            self.network.place_with(site_id, near)
        # component-local state transfer for the joined copies
        for item in sorted(copies):
            reachable = self.network.reachable_from(
                site_id, self.catalog.sites_of(item)
            )
            best = None
            for host in reachable:
                if host == site_id:
                    continue
                record = self.sites[host].store.read(item)
                if best is None or record.version > best.version:
                    best = record
            if best is not None and best.version > 0:
                site.store.write(item, best.value, best.version)
        engine_cls, rule, extra = self._engine_for(site)
        engine = engine_cls(
            node=site,
            wal=site.wal,
            catalog=self.catalog,
            rule=rule,
            ledger=self.ledger,
            hooks=SiteHooks(site),
            enforce_ignore_rules=self._enforce_ignore_rules,
            **extra,
        )
        site.attach_engine(engine)
        self.tracer.record(
            self.scheduler.now,
            site_id,
            "join",
            copies=sorted(copies),
            component=sorted(self.network.partition.component_of(site_id)),
        )
        return site

    def leave_site(
        self,
        site_id: int,
        drain_interval: float | None = None,
        drain_polls: int = 8,
    ) -> None:
        """Gracefully decommission a site mid-run (the dual of join).

        Three phases, all at virtual time:

        1. **Hand-off** — the site's copies are evicted from the shared
           catalog (quorum votes re-derived majority-style over the
           survivors, see :meth:`ReplicaCatalog.evict_site
           <repro.replication.catalog.ReplicaCatalog.evict_site>`), so
           no later transaction enlists it; its newest versions are
           pushed to the staler reachable surviving hosts first, so the
           hand-off never loses an installed write inside its component.
        2. **Drain** — while the site still holds undecided transactions
           it stays registered (its votes and locks keep serving the
           in-flight commit procedures), re-checked every
           ``drain_interval`` virtual seconds up to ``drain_polls``
           times.  A site that cannot drain in budget (e.g. blocked
           behind a partition) departs anyway, traced ``leave-forced``.
        3. **Deregister** — the network removes the node (messages in
           flight to it drop as ``departed-in-flight``) and the cluster
           moves it to :attr:`departed`.  Unlike a crash, nothing is
           lost and the trace records ``leave``, never ``crash``.

        Raises:
            ConfigurationError: unknown or crashed site, or an eviction
                the catalog rejects (the site holds some item's only
                copy).  A rejected leave changes nothing.
        """
        if site_id not in self.sites:
            raise ConfigurationError(f"cannot leave unknown site {site_id}")
        site = self.sites[site_id]
        if not site.alive:
            raise ConfigurationError(
                f"site {site_id} is down; a graceful leave needs a live site "
                "(crash/recover is the fail-stop path)"
            )
        evicted = self.catalog.evict_site(site_id)  # validates before mutating
        # push the leaver's newest versions to staler reachable survivors
        for item in sorted(evicted):
            record = site.store.read(item)
            if record.version <= 0:
                continue
            for host in self.network.reachable_from(site_id, self.catalog.sites_of(item)):
                if host == site_id:
                    continue
                copy = self.sites[host].store.read(item)
                if copy.version < record.version:
                    self.sites[host].store.write(item, record.value, record.version)
        self.tracer.record(
            self.scheduler.now, site_id, "leave-begin", items=sorted(evicted)
        )
        interval = drain_interval if drain_interval is not None else max(self.network.T, 1.0)

        def poll(remaining: int) -> None:
            if site.undecided_txns() and remaining > 0:
                self.scheduler.call_fixed_after(interval, poll, remaining - 1)
                return
            self._finish_leave(site_id, forced=bool(site.undecided_txns()))

        if site.undecided_txns():
            self.scheduler.call_fixed_after(interval, poll, drain_polls - 1)
        else:
            self._finish_leave(site_id, forced=False)

    def _finish_leave(self, site_id: int, forced: bool) -> None:
        """Phase 3 of :meth:`leave_site`: deregister the drained site."""
        if forced:
            self.tracer.record(self.scheduler.now, site_id, "leave-forced")
        if self.protocol == "skq":
            self.skeen_rule.discard_site(site_id)
        self.network.deregister(site_id)  # traces the canonical "leave"
        self.departed[site_id] = self.sites.pop(site_id)

    def _apply_membership(self, action: "JoinSite | LeaveSite") -> None:
        """The failure injector's membership hook (join / leave plans)."""
        if isinstance(action, LeaveSite):
            self.leave_site(action.site)
        else:
            self.join_site(action.site, dict(action.copies), near=action.near)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def T(self) -> float:
        """The network's longest end-to-end delay."""
        return self.network.T

    def txn_handle(self, txn: str) -> TxnHandle:
        """The handle for a submitted transaction."""
        return self._txns[txn]

    def states(self, txn: str) -> dict[int, str]:
        """Current local state name of ``txn`` at every live participant."""
        out = {}
        for site_id, site in self.sites.items():
            if site.engine is None or not site.alive:
                continue
            record = site.engine.record(txn)
            if record is not None:
                out[site_id] = record.state.name
        return out

    def outcome(self, txn: str) -> ConsistencyReport:
        """Consistency verdict for one transaction (from the ledger)."""
        handle = self._txns.get(txn)
        return self.ledger.report(txn, handle.participants if handle else ())

    def blocked_map(self) -> dict[int, set[str]]:
        """Per-site undecided transactions (their locks block access)."""
        return {sid: site.undecided_txns() for sid, site in self.sites.items()}

    def live_undecided(self, txn: str) -> list[int]:
        """Live participants still in doubt about ``txn``.

        Two exclusions: crashed sites (a down site neither holds usable
        copies nor counts against termination — it catches up at
        recovery), and sites that never durably *joined* the
        transaction (no WAL record at all: the vote-req was lost before
        arrival, so the site holds no locks and has nothing to
        terminate; it can only coexist with an abort or blocked
        outcome, never a commit, since commits need every vote).
        """
        handle = self._txns.get(txn)
        participants = set(handle.participants) if handle else set()
        decided = self.ledger.outcomes(txn)
        return sorted(
            s
            for s in participants
            if s not in decided
            and s in self.sites
            and self.sites[s].alive
            and self.sites[s].wal.for_txn(txn)
        )

    def availability(self) -> AvailabilityReport:
        """Current data availability across all partitions."""
        return availability_snapshot(
            catalog=self.catalog,
            partition=self.network.partition,
            lock_managers={sid: s.locks for sid, s in self.sites.items()},
            blocked_txns=self.blocked_map(),
            active_sites={sid for sid, s in self.sites.items() if s.alive},
        )

    def message_counts(self) -> dict[str, int]:
        """Histogram of message types sent so far."""
        return self.tracer.message_counts()

    def __repr__(self) -> str:
        return (
            f"<Cluster {self.protocol} sites={sorted(self.sites)} "
            f"t={self.scheduler.now:g}>"
        )

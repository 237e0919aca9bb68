"""Experiment E17 (extension) — a live workload across a partition.

The paper argues about one in-doubt transaction at a time; a database
serves many.  This experiment drives a stream of interactive
transactions (quorum reads + writes through the commit protocol) while
the network partitions and heals, and measures what a client population
actually experiences under each protocol:

* committed / client-aborted (lock conflict or no quorum) / blocked;
* whether the committed history is one-copy serializable — the *other*
  half of the paper's correctness story, checked end to end;
* final data availability.

Transactions arrive on the virtual clock, so their reads and commits
genuinely interleave with the fault schedule.

Both drive loops live on the shared :class:`~repro.traffic.TrafficEngine`
(closed-loop mode); :class:`~repro.traffic.WorkloadResult` and
:func:`~repro.traffic.tally_stream` are re-exported here for
compatibility with historical imports.
"""

from __future__ import annotations

from typing import Callable

from repro.db.cluster import Cluster
from repro.engine import CellFoldSink, ResultSink, ResultStore, SweepSpec, TeeSink, run_sweep
from repro.sim.failures import FailurePlan
from repro.sim.rng import RngRegistry
from repro.traffic import TrafficEngine, WorkloadResult, tally_stream
from repro.workload.generators import (
    memoized_catalog,
    random_catalog,
    random_partition_groups,
)
from repro.workload.spec import WorkloadSpec

__all__ = [
    "WorkloadResult",
    "drive_stream",
    "heavy_failure_plan",
    "heavy_traffic_study",
    "run_heavy_workload",
    "run_workload",
    "tally_stream",
    "workload_study",
]


def run_workload(
    protocol: str,
    n_txns: int = 24,
    seed: int = 0,
    partition_window: tuple[float, float] = (20.0, 70.0),
    arrival_spacing: float = 4.0,
) -> WorkloadResult:
    """Drive ``n_txns`` read-modify-write transactions through a
    partition episode and tally the outcomes.

    Every transaction reads one random item and increments it.  The
    network splits into two random components during
    ``partition_window`` and heals afterwards; transactions arriving
    mid-episode run against whatever their origin's component offers.

    The stream is a fixed-spacing :class:`WorkloadSpec` driven through
    the shared :class:`~repro.traffic.TrafficEngine` — fixed arrivals
    draw no RNG and the default spec shape replays the historical
    item/origin draw order, so the tallies are byte-identical to the
    pre-engine inline loop.
    """
    registry = RngRegistry(seed)
    rng = registry.stream("workload")
    catalog = memoized_catalog(
        rng,
        ("e17-workload", 6, 4, 3),
        lambda r: random_catalog(r, n_sites=6, n_items=4, replication=3),
    )
    cluster = Cluster(catalog, protocol=protocol, seed=seed)
    groups = random_partition_groups(rng, cluster.network.sites, 2)
    plan = (
        FailurePlan()
        .partition(partition_window[0], *groups)
        .heal(partition_window[1])
    )
    cluster.arm_failures(plan)

    spec = WorkloadSpec(n_txns=n_txns, arrival="fixed", mean_spacing=arrival_spacing)
    engine = TrafficEngine(cluster, spec.compile(catalog), rng)
    engine.run_closed()
    return engine.tally(protocol)


def _fold_workload(state, result):
    """Per-cell streaming fold over :class:`WorkloadResult` samples.

    Integer tallies accumulate directly; ``readable_fraction`` samples
    are kept (one float per run) because the historical aggregation
    sums ``r / n`` terms and ``n`` is only known at the end — dividing
    first and summing after would round differently.
    """
    if state is None:
        state = [0, 0, 0, 0, 0, True, [], 0, 0, 0, 0]
        # submitted, committed, client_aborted, protocol_aborted,
        # blocked, serializable, readable samples, reads_committed,
        # atomicity_violations, decision_conflicts, illegal_transitions
    value = result.value
    state[0] += value.submitted
    state[1] += value.committed
    state[2] += value.client_aborted
    state[3] += value.protocol_aborted
    state[4] += value.blocked
    state[5] &= value.serializable
    state[6].append(value.readable_fraction)
    state[7] += value.reads_committed
    state[8] += value.atomicity_violations
    state[9] += value.decision_conflicts
    state[10] += value.illegal_transitions
    return state


def _workload_fold_rows(
    folder: CellFoldSink, protocol_of=lambda params: params["protocol"]
) -> list[WorkloadResult]:
    """One summed :class:`WorkloadResult` per folded cell.

    Replays the historical float order exactly: ``readable_fraction``
    is ``0.0 + r_0/n + r_1/n + ...`` in sample order.
    """
    rows = []
    for params, state in folder.cells():
        total = WorkloadResult(protocol_of(params), 0, 0, 0, 0, 0, True, 0.0)
        total.submitted, total.committed = state[0], state[1]
        total.client_aborted, total.protocol_aborted = state[2], state[3]
        total.blocked, total.serializable = state[4], state[5]
        total.reads_committed = state[7]
        total.atomicity_violations, total.decision_conflicts = state[8], state[9]
        total.illegal_transitions = state[10]
        for readable in state[6]:
            total.readable_fraction += readable / len(state[6])
        rows.append(total)
    return rows


def _fold_workload_rows(outcome, protocol_of=lambda params: params["protocol"]) -> list[WorkloadResult]:
    """Sum per-run :class:`WorkloadResult` tallies into one row per cell."""
    folder = CellFoldSink(_fold_workload)
    for result in outcome.results:
        folder.emit(result)
    return _workload_fold_rows(folder, protocol_of)


def _run_workload_spec(
    spec: SweepSpec,
    workers: int,
    store: ResultStore | None,
    sink: ResultSink | None,
) -> list[WorkloadResult]:
    """Run a workload-shaped sweep, streaming when a sink is given."""
    if sink is None:
        return _fold_workload_rows(run_sweep(spec, workers=workers, store=store))
    folder = CellFoldSink(_fold_workload)
    run_sweep(spec, workers=workers, store=store, sink=TeeSink(sink, folder))
    return _workload_fold_rows(folder)


def workload_study(
    protocols: tuple[str, ...] = ("2pc", "skq", "qtp1", "qtp2"),
    runs: int = 5,
    n_txns: int = 24,
    base_seed: int = 0,
    workers: int = 1,
    store: ResultStore | None = None,
    sink: ResultSink | None = None,
) -> list[WorkloadResult]:
    """E17 aggregated: sum the tallies over several seeds per protocol.

    Every protocol replays the same seeds; serializability must hold in
    every single run (the flag is AND-ed).
    """
    spec = SweepSpec(
        name="e17-workload",
        task=run_workload,
        grid={"protocol": list(protocols)},
        runs=runs,
        base_seed=base_seed,
        seeding="offset",
        fixed={"n_txns": n_txns},
    )
    return _run_workload_spec(spec, workers, store, sink)


def heavy_failure_plan(
    rng,
    sites: list[int],
    episodes: int,
    episode_length: float,
    gap: float,
) -> FailurePlan:
    """The E18 fault schedule: ``episodes`` random partition/heal cycles.

    Each episode splits ``sites`` into 2–3 random components for
    ``episode_length`` virtual seconds, with ``gap`` of full
    connectivity before and between episodes.  Extracted so replay
    harnesses can substitute a recorded plan for a generated one.
    """
    plan = FailurePlan()
    t = gap
    for _ in range(episodes):
        groups = random_partition_groups(rng, sites, rng.choice([2, 2, 3]))
        plan.partition(t, *groups)
        plan.heal(t + episode_length)
        t += episode_length + gap
    return plan


def drive_stream(cluster, compiled, rng) -> tuple[dict[str, str], dict[str, object]]:
    """The E18 driver loop: feed a compiled op stream into a cluster.

    Compatibility wrapper over
    :meth:`~repro.traffic.TrafficEngine.run_closed` — the interactive
    drive loop now lives on the shared engine.  Returns
    ``(outcomes, handles)``: the client-side outcome per transaction
    (``"read-committed"`` / ``"client-aborted"`` so far; protocol
    verdicts are filled in by :func:`tally_stream`) and the submitted
    handles awaiting a verdict.

    ``compiled`` is anything satisfying the
    :class:`~repro.workload.spec.CompiledWorkload` generator contract
    (``arrivals`` + ``next_op``) — a compiled spec or a
    :class:`~repro.replay.RecordedWorkload` replaying a harvested
    stream.  This split of *stream source* from *driver loop* is what
    makes a recorded trace just another workload.
    """
    return TrafficEngine(cluster, compiled, rng).run_closed()


def run_heavy_workload(
    protocol: str,
    seed: int = 0,
    n_txns: int = 120,
    n_sites: int = 12,
    n_items: int = 8,
    replication: int = 3,
    mean_spacing: float = 1.5,
    episodes: int = 2,
    episode_length: float = 30.0,
    gap: float = 20.0,
    probe: "Callable[[Cluster], None] | None" = None,
    workload: object | None = None,
    catalog: object | None = None,
    failures: FailurePlan | None = None,
) -> WorkloadResult:
    """E18 (extension) — heavy traffic through repeated partition episodes.

    The large-scale sibling of :func:`run_workload`: Poisson arrivals
    (many transactions genuinely in flight at once), a bigger database,
    and ``episodes`` successive partition/heal cycles instead of one.
    Each episode splits the network into 2–3 random components.  The
    correctness bar is unchanged — every committed history must be
    one-copy serializable and nothing may stay blocked after the final
    heal — measured here under real contention.

    The transaction stream comes from a
    :class:`~repro.workload.spec.WorkloadSpec`: the default spec
    (uniform popularity, single-item read-modify-write, Poisson
    arrivals from ``n_txns`` / ``mean_spacing``) replays the historical
    stream draw-for-draw, and passing ``workload`` opens the other
    regimes — Zipf skew, read-mostly mixes, wider footprints (the
    spec's ``n_txns`` / spacing then replace the arguments).  Anything
    without a ``compile`` method is taken to *be* a compiled stream
    already (e.g. a :class:`~repro.replay.RecordedWorkload` replaying a
    harvested trace) and is driven as-is.  Read-only operations commit
    on the client-side fast path and are tallied in
    ``reads_committed``.

    ``catalog`` / ``failures`` override the generated placement and
    fault schedule — the replay tournament pins all three (stream,
    catalog, plan) from a recorded artifact, leaving this function as
    pure driver loop.  ``probe``, if given, is called with the finished
    :class:`Cluster` just before the result is assembled — the
    benchmark harness uses it to harvest network / WAL / scheduler
    counters without widening the return type.
    """
    registry = RngRegistry(seed)
    rng = registry.stream("heavy-workload")
    if catalog is None:
        # pure function of (stream state, shape): protocols replaying the
        # same seed fetch the catalog instead of rebuilding it per trial
        catalog = memoized_catalog(
            rng,
            ("heavy-workload", n_sites, n_items, replication),
            lambda r: random_catalog(r, n_sites=n_sites, n_items=n_items, replication=replication),
        )
    spec = workload if workload is not None else WorkloadSpec(
        n_txns=n_txns, mean_spacing=mean_spacing
    )
    compiled = spec.compile(catalog) if hasattr(spec, "compile") else spec
    cluster = Cluster(catalog, protocol=protocol, seed=seed)
    if failures is None:
        failures = heavy_failure_plan(rng, cluster.network.sites, episodes, episode_length, gap)
    cluster.arm_failures(failures)

    engine = TrafficEngine(cluster, compiled, rng)
    engine.run_closed()
    return engine.tally(protocol, probe=probe)


def heavy_traffic_study(
    protocols: tuple[str, ...] = ("2pc", "skq", "qtp1", "qtp2"),
    runs: int = 3,
    n_txns: int = 120,
    base_seed: int = 0,
    workers: int = 1,
    store: ResultStore | None = None,
    sink: ResultSink | None = None,
) -> list[WorkloadResult]:
    """E18 aggregated: heavy-traffic tallies per protocol, same seeds."""
    spec = SweepSpec(
        name="e18-heavy-traffic",
        task=run_heavy_workload,
        grid={"protocol": list(protocols)},
        runs=runs,
        base_seed=base_seed,
        seeding="offset",
        fixed={"n_txns": n_txns},
    )
    return _run_workload_spec(spec, workers, store, sink)

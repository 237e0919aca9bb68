"""The benchmark's workloads, built from the library's public API.

Every workload runs the paper's protocol (``qtp1``) over ``FixedDelay(1)``
links with 3-way replication and no-wait locking, driven by one
process.  :class:`Prepared` turns a workload name and a seed into a
run (catalog, compiled stream, cluster, armed fault plan);
:meth:`Prepared.drive` executes it, timing only the drive and the
verdict tally, and :meth:`Prepared.check` checks the outputs.

The inputs are a pure function of the seed: the library sees only the
generated catalog, op stream and fault plan.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import CatalogBuilder, Cluster, FailurePlan, FixedDelay
from repro.concurrency.serializability import ConflictGraph
from repro.sim.rng import RngRegistry
from repro.traffic import TrafficEngine
from repro.workload.generators import random_partition_groups
from repro.workload.spec import WorkloadSpec

PROTOCOL = "qtp1"

#: One entry per workload: its loop type and sizes.  ``README.md``
#: records the same facts for readers; this table is what runs.
WORKLOADS: dict[str, dict[str, Any]] = {
    "closed_heavy": {
        "loop": "closed",
        "n_sites": 16,
        "n_items": 64,
        "n_txns": 1000,
        "mean_spacing": 1.5,
        "episodes": 4,
    },
    "open_service": {
        "loop": "open",
        "n_sites": 16,
        "n_items": 64,
        "rate": 20.0,
        "duration": 100.0,
        "window": 4,
        "partition_at": 30.0,
        "partition_for": 25.0,
    },
    "read_mostly": {
        "loop": "closed",
        "n_sites": 12,
        "n_items": 64,
        "n_txns": 3000,
        "mean_spacing": 0.25,
        "read_fraction": 0.8,
        "zipf_s": 1.1,
        "episodes": 4,
    },
    "sweep_campaign": {
        "loop": "sweep",
        "cells": 150,
        "cell": {
            "n_sites": 6,
            "n_items": 4,
            "n_txns": 24,
            "mean_spacing": 4.0,
            "arrival": "fixed",
            "episodes": 1,
            "episode_length": 50.0,
        },
    },
}

REPLICATION = 3
#: majority read and write quorums: with quorum sizes drawn per item
#: (``random_catalog``), which items get a read-all quorum decides most of
#: the lock conflicts, and the conflict-graph size of ``read_mostly``
#: spanned 44% between quartiles over seeds 1-10 (8% with majorities).
QUORUM = 2
#: E18's partition schedule: full connectivity for EPISODE_GAP virtual
#: seconds, then EPISODE_LENGTH seconds split into 2-3 components, repeated.
EPISODE_LENGTH = 30.0
EPISODE_GAP = 20.0


@dataclass
class RoundResult:
    """One driven run: its timed wall, outcome tallies and layer counts."""

    #: wall seconds of drive plus verdict tally (the timed region)
    wall_s: float
    offered: int
    #: protocol commits plus read-only fast-path commits
    committed: int
    #: protocol commits only (the denominator of per-commit costs)
    protocol_commits: int
    #: offered transactions that did not commit: client and protocol
    #: aborts, blocked or unresolved, and shed arrivals
    uncommitted: int
    shed: int = 0
    #: virtual-time latency summary and full digest state (open loop only)
    latency: dict[str, float] = field(default_factory=dict)
    digest: dict[str, Any] = field(default_factory=dict)
    #: outputs that failed a check: atomicity violations, broken
    #: identities, non-serializable histories, missing outcomes
    violations: int = 0
    #: deterministic per-layer counts read from the program afterwards
    counts: dict[str, float] = field(default_factory=dict)


def _scaled(value: float, scale: float, floor: float = 1) -> Any:
    scaled = max(floor, value * scale)
    return int(scaled) if isinstance(value, int) else float(scaled)


def episode_plan(rng, sites: list[int], episodes: int, length: float = EPISODE_LENGTH) -> FailurePlan:
    """``episodes`` random 2-3-way partition/heal cycles (the E18 schedule)."""
    plan = FailurePlan()
    t = EPISODE_GAP
    for _ in range(episodes):
        plan.partition(t, *random_partition_groups(rng, sites, rng.choice([2, 2, 3])))
        plan.heal(t + length)
        t += length + EPISODE_GAP
    return plan


def majority_catalog(rng, n_sites: int, n_items: int):
    """``n_items`` items, each on ``REPLICATION`` random sites with one
    vote per copy and majority quorums."""
    builder = CatalogBuilder()
    sites = list(range(1, n_sites + 1))
    for i in range(n_items):
        copies = rng.sample(sites, REPLICATION)
        builder.item(f"i{i}", {site: 1 for site in copies}, r=QUORUM, w=QUORUM)
    return builder.build()


def build_closed(seed: int, params: dict[str, Any]) -> tuple[Cluster, TrafficEngine, WorkloadSpec]:
    """Catalog → compiled stream → cluster → armed fault plan → engine."""
    rng = RngRegistry(seed).stream("perfbench")
    catalog = majority_catalog(rng, params["n_sites"], params["n_items"])
    read_fraction = params.get("read_fraction", 0.0)
    spec = WorkloadSpec(
        n_txns=params["n_txns"],
        arrival=params.get("arrival", "poisson"),
        mean_spacing=params["mean_spacing"],
        read_fraction=read_fraction,
        popularity="zipf" if "zipf_s" in params else "uniform",
        zipf_s=params.get("zipf_s", 1.2),
    )
    compiled = spec.compile(catalog)
    cluster = Cluster(catalog, protocol=PROTOCOL, seed=seed, delay_model=FixedDelay(1.0))
    cluster.arm_failures(
        episode_plan(
            rng,
            cluster.network.sites,
            params["episodes"],
            params.get("episode_length", EPISODE_LENGTH),
        )
    )
    return cluster, TrafficEngine(cluster, compiled, rng), spec


def build_open(seed: int, params: dict[str, Any]) -> tuple[Cluster, TrafficEngine, WorkloadSpec]:
    """The E26 service: Poisson arrivals at ``rate`` for ``duration``
    virtual seconds, one majority/minority partition mid-service."""
    rng = RngRegistry(seed).stream("perfbench")
    catalog = majority_catalog(rng, params["n_sites"], params["n_items"])
    spec = WorkloadSpec(arrival="open", rate=params["rate"], duration=params["duration"])
    compiled = spec.compile(catalog)
    cluster = Cluster(catalog, protocol=PROTOCOL, seed=seed, delay_model=FixedDelay(1.0))
    sites = cluster.network.sites
    cut = (2 * len(sites)) // 3
    start = params["partition_at"]
    cluster.arm_failures(
        FailurePlan()
        .partition(start, sites[:cut], sites[cut:])
        .heal(start + params["partition_for"])
    )
    return cluster, TrafficEngine(cluster, compiled, rng), spec


def atomicity_violations(cluster: Cluster, txns) -> int:
    """Transactions with a mixed commit/abort or a conflicting decision,
    counted from :meth:`Cluster.outcome` (never from a tally's
    ``blocked``, which folds mixed outcomes in)."""
    violations = 0
    for txn in txns:
        report = cluster.outcome(txn)
        violations += report.outcome == "mixed" or not report.atomic
    return violations


def closed_violations(cluster: Cluster, engine: TrafficEngine, spec: WorkloadSpec, result) -> int:
    """Failed output checks of a closed-loop run."""
    return (
        (len(result.txn_outcomes) != spec.n_txns)
        + (not result.serializable)
        + atomicity_violations(cluster, engine.handles)
    )


#: the program's own deterministic counters, in :func:`layer_counts` order
COUNT_KEYS = (
    "sim.scheduler.events",
    "net.sent",
    "net.delivered",
    "net.dropped",
    "protocols.decisions",
    "storage.wal_forced",
    "storage.wal_flushes",
    "sim.trace.rows",
)


def layer_counts(cluster: Cluster) -> dict[str, float]:
    """The program's own deterministic counters after a run."""
    sites = list(cluster.sites.values()) + list(cluster.departed.values())
    values = (
        cluster.scheduler.events_run,
        cluster.network.sent,
        cluster.network.delivered,
        cluster.network.dropped,
        cluster.tracer.count("decision"),
        sum(site.wal.forced for site in sites),
        sum(site.wal.flushes for site in sites),
        len(cluster.tracer),
    )
    return dict(zip(COUNT_KEYS, values))


def conflict_edges(cluster: Cluster) -> int:
    """Edges of the committed history's conflict graph."""
    return ConflictGraph(cluster.committed_history()).graph.number_of_edges()


def run_cell(seed: int, protocol: str = PROTOCOL, **params: Any) -> dict[str, Any]:
    """One sweep cell: a small E17-shaped closed loop, checked in-worker.

    Module-level so the sweep engine can send it to worker processes.
    """
    cluster, engine, spec = build_closed(seed, params)
    engine.run_closed()
    result = engine.tally(protocol)
    return {
        "offered": result.submitted,
        "committed": result.committed + result.reads_committed,
        "protocol_commits": result.committed,
        "uncommitted": result.client_aborted + result.protocol_aborted + result.blocked,
        "violations": closed_violations(cluster, engine, spec, result),
        **layer_counts(cluster),
    }


class Prepared:
    """One built run, ready to drive."""

    def __init__(self, name: str, seed: int, scale: float = 1.0, workdir: Path | None = None) -> None:
        self.name = name
        self.seed = seed
        self.params = dict(WORKLOADS[name])
        self.loop = self.params["loop"]
        self.cluster: Cluster | None = None
        if self.loop == "closed":
            self.params["n_txns"] = _scaled(self.params["n_txns"], scale, 20)
            self.cluster, self.engine, self.spec = build_closed(seed, self.params)
        elif self.loop == "open":
            self.params["duration"] = _scaled(self.params["duration"], scale, 40.0)
            self.cluster, self.engine, self.spec = build_open(seed, self.params)
        else:
            self.params["cells"] = _scaled(self.params["cells"], scale, 4)
            self.workdir = workdir
            self._build_sweep()

    # ------------------------------------------------------------------
    # sweep
    # ------------------------------------------------------------------

    def _build_sweep(self) -> None:
        from repro.engine import SweepSpec

        self.sweep = SweepSpec(
            name=f"perfbench-{self.name}",
            task=run_cell,
            grid={"protocol": [PROTOCOL]},
            runs=self.params["cells"],
            base_seed=self.seed,
            seeding="derived",
            fixed=self.params["cell"],
        )
        self.workers = min(2, os.cpu_count() or 1)

    def _drive_sweep(self) -> RoundResult:
        from repro.engine import JsonlSink, iter_stream_rows, run_sweep

        if self.workdir is not None:
            self.workdir.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.workdir))
        try:
            sink = JsonlSink(tmp / "cells.jsonl.gz")
            t0 = time.perf_counter()
            outcome = run_sweep(self.sweep, workers=self.workers, sink=sink, on_error="retry")
            wall = time.perf_counter() - t0
            rows = [row["value"] for row in iter_stream_rows(sink.path)]
            sink_bytes = sink.path.stat().st_size
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        stats = outcome.resilience or {}
        missing = self.params["cells"] - len(rows) + len(stats.get("quarantined", ()))
        counts: dict[str, float] = {key: sum(row[key] for row in rows) for key in COUNT_KEYS}
        counts["engine.cells"] = len(rows)
        counts["engine.retried"] = stats.get("retried", 0)
        counts["engine.sink_bytes"] = sink_bytes
        return RoundResult(
            wall_s=wall,
            offered=sum(row["offered"] for row in rows),
            committed=sum(row["committed"] for row in rows),
            protocol_commits=sum(row["protocol_commits"] for row in rows),
            uncommitted=sum(row["uncommitted"] for row in rows),
            violations=missing + sum(row["violations"] for row in rows),
            counts=counts,
        )

    # ------------------------------------------------------------------
    # drive, then check
    # ------------------------------------------------------------------

    def drive(self) -> RoundResult:
        """Run the workload, timing only the drive and the verdict tally.

        A sweep's cells check their own outputs in the workers; for the
        other loops call :meth:`check` afterwards.
        """
        if self.loop == "sweep":
            return self._drive_sweep()
        engine = self.engine
        if self.loop == "closed":
            t0 = time.perf_counter()
            engine.run_closed()
            result = engine.tally(PROTOCOL)
            wall = time.perf_counter() - t0
            self.result = result
            return RoundResult(
                wall_s=wall,
                offered=result.submitted,
                committed=result.committed + result.reads_committed,
                protocol_commits=result.committed,
                uncommitted=result.client_aborted + result.protocol_aborted + result.blocked,
            )
        t0 = time.perf_counter()
        result = engine.run_open(PROTOCOL, window=self.params["window"])
        wall = time.perf_counter() - t0
        self.result = result
        shed = result.shed_backpressure + result.shed_unreachable
        return RoundResult(
            wall_s=wall,
            offered=result.offered,
            committed=result.committed + result.reads_committed,
            protocol_commits=result.committed,
            uncommitted=result.client_aborted + result.protocol_aborted + result.unresolved + shed,
            shed=shed,
            latency=dict(result.latency),
            digest=result.digest_state,
        )

    def check(self, round_: RoundResult, counts: bool = False) -> RoundResult:
        """Check a driven round's outputs (untimed); optionally read the
        program's per-layer counts into it."""
        if self.loop == "sweep":
            return round_
        cluster, engine, result = self.cluster, self.engine, self.result
        if self.loop == "closed":
            round_.violations = closed_violations(cluster, engine, self.spec, result)
        else:
            round_.violations = (
                (result.offered != result.admitted + round_.shed)
                + (not result.serializable)
                + atomicity_violations(cluster, engine.handles)
            )
        if counts:
            round_.counts = {
                **layer_counts(cluster),
                "traffic.offered": round_.offered,
                "traffic.shed": round_.shed,
                "traffic.latency_n": round_.latency.get("n", 0),
                "concurrency.conflict_edges": conflict_edges(cluster),
            }
        return round_


def stop_at_first_event(prepared: Prepared, mark: Callable[[], None]) -> None:
    """Drive until the first simulated event, call ``mark``, and stop.

    Used to time set-up: the marker event sits at virtual time 0, ahead
    of every arrival and fault, so it is the first event to run.
    """

    class _FirstEvent(Exception):
        pass

    def first() -> None:
        mark()
        raise _FirstEvent

    if prepared.cluster is None:  # a sweep: set-up ends before the first dispatch
        mark()
        return
    prepared.cluster.scheduler.call_at(0.0, first)
    try:
        prepared.drive()
    except _FirstEvent:
        pass

"""Harvesting a driver run into a :class:`RecordedTrace`.

Recording is a spy, not a fork of the drivers: a
:class:`RecordingSpec` is passed as the driver's ``workload=`` and
compiles to a proxy that delegates every draw to the real
:class:`~repro.workload.spec.CompiledWorkload` while logging the
results; the fault schedule is harvested post-run from
:attr:`~repro.sim.failures.FailureInjector.applied` (every armed
action fires before the run quiesces, in deterministic heap order).
The recorded run is therefore *bit-identical* to an unrecorded one —
the proxy adds no RNG draws and no events — so a trace can be taken
from any existing experiment without perturbing its committed
trajectory.
"""

from __future__ import annotations

from typing import Any

from repro.engine import jsonable
from repro.replay.artifact import RecordedTrace
from repro.workload.spec import WorkloadSpec


def cluster_counters(cluster) -> dict[str, Any]:
    """The deterministic network / WAL / scheduler tallies of a run
    (the same fingerprint the bench suite pins baselines on)."""
    net = cluster.network
    return {
        "messages_sent": net.sent,
        "messages_delivered": net.delivered,
        "messages_dropped": net.dropped,
        "events_run": cluster.scheduler.events_run,
        "wal_forced": sum(site.wal.forced for site in cluster.sites.values()),
        "wal_flushes": sum(site.wal.flushes for site in cluster.sites.values()),
    }


class RecordingSpec:
    """A workload spec that records what its compiled stream emits.

    Drop-in for a :class:`~repro.workload.spec.WorkloadSpec` at any
    driver's ``workload=`` argument: ``compile`` captures the catalog
    (and regions) the driver binds, and returns a proxy whose draws are
    logged here — ``arrivals``, ``ops``, ``updates`` — while the real
    compiled workload does all the generating.
    """

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.catalog = None
        self.regions = None
        self.arrivals: list[float] = []
        self.ops: list = []
        self.updates: list[tuple[int, dict[str, Any]]] = []
        self.gaps: list[float] = []

    def compile(self, catalog, regions=None) -> "_RecordingWorkload":
        """Bind like a spec would, capturing the binding as a side effect."""
        self.catalog = catalog
        self.regions = regions
        return _RecordingWorkload(self.spec.compile(catalog, regions), self)


class _RecordingWorkload:
    """The compiled-side spy: delegate every draw, log every result."""

    def __init__(self, inner, log: RecordingSpec) -> None:
        self._inner = inner
        self._log = log
        self.spec = inner.spec
        self.catalog = inner.catalog

    def arrivals(self, rng) -> list[float]:
        times = self._inner.arrivals(rng)
        self._log.arrivals = list(times)
        return times

    def next_op(self, rng):
        op = self._inner.next_op(rng)
        self._log.ops.append(op)
        return op

    def next_update(self, rng):
        origin, writes = self._inner.next_update(rng)
        self._log.updates.append((origin, dict(writes)))
        return origin, writes

    def next_gap(self, rng, now=None):
        gap = self._inner.next_gap(rng, now)
        self._log.gaps.append(gap)
        return gap


def record_heavy_workload(
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
    workload: WorkloadSpec | None = None,
) -> RecordedTrace:
    """Run E18 once and harvest the full trace.

    Same signature surface as
    :func:`~repro.experiments.workload_study.run_heavy_workload`; the
    returned trace carries everything needed to replay the run — and
    its deterministic counters, so replays can be fixed-point checked.
    """
    from repro.experiments.workload_study import run_heavy_workload

    spec = workload if workload is not None else WorkloadSpec(
        n_txns=n_txns, mean_spacing=mean_spacing
    )
    recording = RecordingSpec(spec)
    harvested: dict[str, Any] = {}

    def probe(cluster) -> None:
        harvested["actions"] = list(cluster.injector.applied)
        harvested["counters"] = cluster_counters(cluster)

    result = run_heavy_workload(
        protocol,
        seed=seed,
        n_txns=n_txns,
        n_sites=n_sites,
        n_items=n_items,
        replication=replication,
        mean_spacing=mean_spacing,
        episodes=episodes,
        episode_length=episode_length,
        gap=gap,
        probe=probe,
        workload=recording,
    )
    return RecordedTrace(
        driver="heavy_workload",
        protocol=protocol,
        seed=seed,
        spec=spec,
        catalog=recording.catalog,
        params={"n_sites": n_sites, "n_items": n_items, "replication": replication},
        arrivals=recording.arrivals,
        ops=recording.ops,
        updates=recording.updates,
        actions=harvested["actions"],
        counters=harvested["counters"],
        result=jsonable(result),
    )


def record_open_loop_service(
    protocol: str,
    seed: int = 0,
    rate: float = 1.5,
    duration: float = 120.0,
    n_sites: int = 9,
    n_items: int = 6,
    replication: int = 3,
    window: int = 4,
    workload: WorkloadSpec | None = None,
    failures=None,
) -> RecordedTrace:
    """Run one E26 open-loop service interval and harvest the trace.

    The open-loop stream records *gaps* instead of arrival times — one
    exponential inter-arrival draw per offered arrival — alongside the
    op stream; shed arrivals consume draws too, so the recorded stream
    replays bit-for-bit regardless of admission outcomes.  The
    admission ``window`` rides in ``params`` because it shapes the run
    but is not part of the workload spec.

    ``failures`` passes an explicit :class:`~repro.sim.failures.FailurePlan`
    through to the service (gray-failure plans included — the artifact
    codec round-trips degrade/flap/leave actions), overriding the
    driver's default crash episode.
    """
    from repro.experiments.service_study import run_open_loop_service

    spec = workload if workload is not None else WorkloadSpec(
        arrival="open", rate=rate, duration=duration
    )
    recording = RecordingSpec(spec)
    harvested: dict[str, Any] = {}

    def probe(cluster) -> None:
        harvested["actions"] = list(cluster.injector.applied)
        harvested["counters"] = cluster_counters(cluster)

    result = run_open_loop_service(
        protocol,
        seed=seed,
        rate=rate,
        duration=duration,
        n_sites=n_sites,
        n_items=n_items,
        replication=replication,
        window=window,
        workload=recording,
        failures=failures,
        probe=probe,
    )
    return RecordedTrace(
        driver="open_loop",
        protocol=protocol,
        seed=seed,
        spec=spec,
        catalog=recording.catalog,
        params={
            "n_sites": n_sites,
            "n_items": n_items,
            "replication": replication,
            "window": window,
        },
        arrivals=recording.arrivals,
        gaps=recording.gaps,
        ops=recording.ops,
        updates=recording.updates,
        actions=harvested["actions"],
        counters=harvested["counters"],
        result=jsonable(result.counters()),
    )


def record_wan_storm(
    protocol: str,
    seed: int = 0,
    n_regions: int = 4,
    sites_per_region: int = 8,
    n_items: int = 8,
    region_replication: int = 3,
    waves: int = 4,
    heal: bool = False,
    workload: WorkloadSpec | None = None,
) -> RecordedTrace:
    """Run E21 once and harvest the full trace (single-update stream)."""
    from repro.workload.scenarios import run_wan_storm

    spec = workload if workload is not None else WorkloadSpec(n_txns=1, footprint=(1, 3))
    recording = RecordingSpec(spec)
    harvested: dict[str, Any] = {}

    def probe(cluster) -> None:
        harvested["actions"] = list(cluster.injector.applied)
        harvested["counters"] = cluster_counters(cluster)

    scenario = run_wan_storm(
        protocol,
        seed=seed,
        n_regions=n_regions,
        sites_per_region=sites_per_region,
        n_items=n_items,
        region_replication=region_replication,
        waves=waves,
        heal=heal,
        workload=recording,
        probe=probe,
    )
    return RecordedTrace(
        driver="wan_storm",
        protocol=protocol,
        seed=seed,
        spec=spec,
        catalog=recording.catalog,
        params={
            "n_regions": n_regions,
            "sites_per_region": sites_per_region,
            "n_items": n_items,
            "region_replication": region_replication,
        },
        arrivals=recording.arrivals,
        ops=recording.ops,
        updates=recording.updates,
        actions=harvested["actions"],
        counters=harvested["counters"],
        result={
            "outcome": scenario.outcome,
            "decided_sites": len(scenario.cluster.ledger.outcomes(scenario.txn.txn)),
        },
    )

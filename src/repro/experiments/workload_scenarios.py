"""The scenario-diversity drivers (E22–E25) over :class:`WorkloadSpec`.

Four contention regimes the uniform generators cannot reach, each a
deterministic driver returning a flat dict of counters (the benchmark
suite pins their trajectories as ``BENCH_*.json`` baselines):

* **E22 skewed contention** (:func:`run_skewed_contention`) — Zipf item
  popularity concentrates the stream on a few hot items, so the no-wait
  locking policy and the vote hook fire constantly.  Rides the E18
  driver with a Zipf spec.
* **E23 read-mostly** (:func:`run_read_mostly`) — a read-dominated mix:
  most transactions are read-only (client-side fast path), updates
  still pay the full commit protocol.  Rides the E18 driver.
* **E24 cross-region transactions** (:func:`run_cross_region`) — a WAN
  catalog where a slice of the stream originates in regions hosting no
  copy of the item: every quorum those transactions assemble is remote,
  and a region-aligned partition cuts them off entirely.
* **E25 elastic join under storm** (:func:`run_elastic_join`) — sites
  join mid-run (``FailurePlan.join``) while partition waves are in
  flight; joined sites land inside an existing component, host copies,
  and become participants of later transactions.
"""

from __future__ import annotations

from typing import Any

from repro.concurrency.serializability import ConflictGraph
from repro.db.cluster import Cluster
from repro.experiments.workload_study import run_heavy_workload
from repro.sim.failures import FailurePlan, JoinSite
from repro.sim.rng import RngRegistry
from repro.traffic import TrafficEngine
from repro.traffic.engine import safety_counters
from repro.workload.generators import (
    memoized_catalog,
    random_catalog,
    random_partition_groups,
    wan_catalog,
    wan_regions,
)
from repro.workload.spec import WorkloadSpec


def _result_counters(result) -> dict[str, Any]:
    """The deterministic tallies of a :class:`WorkloadResult`."""
    return {
        "submitted": result.submitted,
        "committed": result.committed,
        "client_aborted": result.client_aborted,
        "protocol_aborted": result.protocol_aborted,
        "blocked": result.blocked,
        "reads_committed": result.reads_committed,
        "serializable": result.serializable,
        **safety_counters(result),
    }


def run_skewed_contention(
    protocol: str,
    seed: int = 0,
    n_txns: int = 80,
    n_sites: int = 10,
    n_items: int = 8,
    zipf_s: float = 1.4,
    mean_spacing: float = 1.2,
) -> dict[str, Any]:
    """E22: Zipf-skewed traffic through partition episodes.

    Same harness as E18, but the item picks follow a Zipf law: the
    hottest item draws an outsized share of the stream, so most
    transactions collide on the same copies — ``client_aborted`` (the
    no-wait policy's lock-conflict count) is the contention meter the
    uniform stream keeps near zero.
    """
    spec = WorkloadSpec(
        n_txns=n_txns, popularity="zipf", zipf_s=zipf_s, mean_spacing=mean_spacing
    )
    harvested: dict[str, Any] = {}

    def probe(cluster: Cluster) -> None:
        harvested["hot_txns"] = sum(
            1
            for txn in cluster._txns.values()
            if any(item == cluster.catalog.item_names[0] for item in txn.writes)
        )

    result = run_heavy_workload(
        protocol,
        seed=seed,
        n_sites=n_sites,
        n_items=n_items,
        probe=probe,
        workload=spec,
    )
    return {**_result_counters(result), **harvested}


def run_read_mostly(
    protocol: str,
    seed: int = 0,
    n_txns: int = 100,
    n_sites: int = 10,
    n_items: int = 8,
    read_fraction: float = 0.8,
    mean_spacing: float = 1.0,
) -> dict[str, Any]:
    """E23: a read-dominated mix through partition episodes.

    Most of the stream is read-only — quorum reads under shared locks,
    committed on the client-side fast path — while the update tail
    still runs the commit protocol.  Measures what read availability a
    client population actually sees while updates hold locks and the
    network partitions.
    """
    spec = WorkloadSpec(
        n_txns=n_txns, read_fraction=read_fraction, mean_spacing=mean_spacing
    )
    result = run_heavy_workload(
        protocol, seed=seed, n_sites=n_sites, n_items=n_items, workload=spec
    )
    return _result_counters(result)


def run_cross_region(
    protocol: str,
    seed: int = 0,
    n_txns: int = 40,
    n_regions: int = 3,
    sites_per_region: int = 4,
    n_items: int = 6,
    region_replication: int = 2,
    cross_region: float = 0.6,
    mean_spacing: float = 2.0,
    partition_window: tuple[float, float] = (20.0, 60.0),
) -> dict[str, Any]:
    """E24: cross-region transactions over the WAN topology.

    A geo-replicated catalog with copies in ``region_replication`` of
    ``n_regions`` regions; with probability ``cross_region`` an update
    originates in a region hosting *no copy* of its first item, so its
    every quorum crosses a region boundary.  Mid-run the network
    partitions along region lines: the spanning slice of the stream
    loses its quorums outright (``refused``), the home slice keeps
    committing inside its region.
    """
    registry = RngRegistry(seed)
    rng = registry.stream("cross-region")
    catalog = memoized_catalog(
        rng,
        ("cross-region", n_regions, sites_per_region, n_items, region_replication),
        lambda r: wan_catalog(
            r,
            n_regions=n_regions,
            sites_per_region=sites_per_region,
            n_items=n_items,
            region_replication=region_replication,
        ),
    )
    regions = wan_regions(n_regions, sites_per_region)
    spec = WorkloadSpec(
        n_txns=n_txns,
        footprint=(1, 2),
        cross_region=cross_region,
        mean_spacing=mean_spacing,
    )
    compiled = spec.compile(catalog, regions)
    all_sites = [site for region in regions for site in region]
    cluster = Cluster(catalog, protocol=protocol, seed=seed, extra_sites=all_sites)
    plan = FailurePlan()
    plan.partition(partition_window[0], *[list(r) for r in regions])
    plan.heal(partition_window[1])
    cluster.arm_failures(plan)

    engine = TrafficEngine(cluster, compiled, rng)
    engine.run_closed(submit=engine.submit_direct)
    tallies, handles = engine.tallies, engine.handles

    committed = aborted = blocked = holding = 0
    for txn in handles:
        outcome = cluster.outcome(txn).outcome
        if outcome == "commit":
            committed += 1
        elif outcome == "abort":
            aborted += 1
        else:
            # undecided at quiescence.  A cross-region coordinator cut
            # off before any participant durably joined leaves a txn
            # nobody can decide — but also nobody holds locks for, so
            # availability is untouched; only undecided txns with live
            # in-doubt participants actually pin data.
            blocked += 1
            holding += bool(cluster.live_undecided(txn))
    return {
        **tallies,
        "committed": committed,
        "protocol_aborted": aborted,
        "blocked": blocked,
        "blocked_holding_locks": holding,
        "messages_sent": cluster.network.sent,
        "messages_dropped": cluster.network.dropped,
    }


def run_elastic_join(
    protocol: str,
    seed: int = 0,
    n_txns: int = 60,
    n_sites: int = 8,
    n_items: int = 6,
    replication: int = 3,
    n_joins: int = 3,
    join_copies: int = 2,
    mean_spacing: float = 1.5,
) -> dict[str, Any]:
    """E25: elastic membership under a partition storm.

    A steady update stream runs while the network splits, ``n_joins``
    fresh sites join *inside the active partition* (each placed next to
    an existing site, hosting copies of the first ``join_copies``
    items), a second wave re-partitions across old and new sites, and
    the storm heals.  Joined sites receive a component-local state
    transfer, then simply show up as reachable participants: the
    ``participants_with_joined`` counter tracks how many transactions
    actually enlisted them.
    """
    registry = RngRegistry(seed)
    rng = registry.stream("elastic-join")
    # mutable: joins admit_site into the catalog mid-run, so each trial
    # gets a fork and the cached original stays pristine
    catalog = memoized_catalog(
        rng,
        ("elastic-join", n_sites, n_items, replication),
        lambda r: random_catalog(r, n_sites=n_sites, n_items=n_items, replication=replication),
        mutable=True,
    )
    spec = WorkloadSpec(n_txns=n_txns, mean_spacing=mean_spacing)
    compiled = spec.compile(catalog)
    cluster = Cluster(catalog, protocol=protocol, seed=seed)

    initial = list(cluster.network.sites)
    join_ids = list(range(n_sites + 1, n_sites + 1 + n_joins))
    hot_items = catalog.item_names[:join_copies]
    first_wave = random_partition_groups(rng, initial, 2)
    plan = FailurePlan()
    plan.partition(15.0, *first_wave)
    for k, joiner in enumerate(join_ids):
        # alternate the joiners across the live components
        near = first_wave[k % len(first_wave)][0]
        plan.join(20.0 + 3.0 * k, joiner, copies={i: 1 for i in hot_items}, near=near)
    second_wave = random_partition_groups(rng, initial + join_ids, 3)
    plan.partition(45.0, *second_wave)
    plan.heal(70.0)
    cluster.arm_failures(plan)

    engine = TrafficEngine(cluster, compiled, rng)
    # the interactive policy: the spec has no read fraction, so the
    # engine's read fast path is dead and the stream is draw-for-draw
    # the historical update loop
    outcomes, handles = engine.run_closed()

    committed = aborted = blocked = 0
    for txn in handles:
        outcome = cluster.outcome(txn).outcome
        if outcome == "commit":
            committed += 1
        elif outcome == "abort":
            aborted += 1
        else:
            blocked += 1
    joined = set(join_ids)
    history = cluster.committed_history()
    return {
        "submitted": len(handles) + len(outcomes),
        "committed": committed,
        "client_aborted": sum(1 for o in outcomes.values() if o == "client-aborted"),
        "protocol_aborted": aborted,
        "blocked": blocked,
        "serializable": ConflictGraph(history).is_serializable(),
        "joins_applied": sum(
            1 for a in cluster.injector.applied if isinstance(a, JoinSite)
        ),
        "joined_hosting": sum(
            1 for j in join_ids for i in hot_items if j in catalog.sites_of(i)
        ),
        "participants_with_joined": sum(
            1 for h in handles.values() if joined & set(h.participants)
        ),
        "messages_sent": cluster.network.sent,
        "messages_delivered": cluster.network.delivered,
    }

"""Verdict invariance: the debug trace's size changes no verdict.

Every verdict a run reports — its tallies, its committed history, each
transaction's consistency report, the open-loop latency digest — comes
from the cluster's decision ledger, which the protocol engines write at
decision time.  So an E18-shaped closed-loop run (qtp1, and 3PC, whose
mixed outcomes under partition exercise the violation counters) and an
E26 open-loop service must come out identical with an unbounded, a
capacity-bounded, a ring-buffered and an empty tracer.  On the
unbounded trace, the trace-side oracle ``check_atomicity`` must agree
with every ledger report.
"""

from __future__ import annotations

import pytest

from repro import Cluster
from repro.analysis.consistency import check_atomicity
from repro.experiments.service_study import service_failure_plan
from repro.experiments.workload_study import heavy_failure_plan
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.traffic import TrafficEngine
from repro.workload.generators import random_catalog
from repro.workload.spec import WorkloadSpec

TRACERS = {
    "unbounded": lambda: None,
    "capacity": lambda: Tracer(capacity=2000),
    "ring": lambda: Tracer(capacity=2000, ring=True),
    "empty": lambda: Tracer(capacity=0),
}


def closed_run(protocol: str, seed: int, tracer: Tracer | None):
    """E18's shape: 120 Poisson txns over 12 sites, two partition episodes."""
    rng = RngRegistry(seed).stream("heavy-workload")
    catalog = random_catalog(rng, n_sites=12, n_items=8, replication=3)
    cluster = Cluster(catalog, protocol=protocol, seed=seed, tracer=tracer)
    cluster.arm_failures(heavy_failure_plan(rng, cluster.network.sites, 2, 30.0, 20.0))
    engine = TrafficEngine(cluster, WorkloadSpec(n_txns=120, mean_spacing=1.5).compile(catalog), rng)
    engine.run_closed()
    return cluster, engine, engine.tally(protocol)


def open_run(seed: int, tracer: Tracer | None):
    """E26's shape: λ=1.5 for 120 virtual s over 9 sites, one partition."""
    rng = RngRegistry(seed).stream("open-loop")
    catalog = random_catalog(rng, n_sites=9, n_items=6, replication=3)
    cluster = Cluster(catalog, protocol="qtp1", seed=seed, tracer=tracer)
    cluster.arm_failures(service_failure_plan(30.0, 25.0, cluster.network.sites))
    spec = WorkloadSpec(arrival="open", rate=1.5, duration=120.0)
    engine = TrafficEngine(cluster, spec.compile(catalog), rng)
    return cluster, engine, engine.run_open("qtp1")


def verdicts(cluster, engine, result):
    """Everything a run reports, as comparable plain data."""
    return {
        "result": result,
        "history": cluster.committed_history(),
        "reports": {txn: cluster.outcome(txn) for txn in engine.handles},
    }


def assert_trace_oracle_agrees(cluster, engine):
    for txn, handle in engine.handles.items():
        oracle = check_atomicity(cluster.tracer, txn, list(handle.participants))
        assert cluster.outcome(txn) == oracle, txn


@pytest.mark.parametrize("protocol", ["qtp1", "3pc"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_closed_loop_verdicts_ignore_the_tracer(protocol, seed):
    runs = {name: closed_run(protocol, seed, make()) for name, make in TRACERS.items()}
    cluster, engine, result = runs["unbounded"]
    assert result.committed > 0
    assert_trace_oracle_agrees(cluster, engine)
    reference = verdicts(*runs["unbounded"])
    for name in ("capacity", "ring", "empty"):
        assert verdicts(*runs[name]) == reference, name
    assert runs["capacity"][0].tracer.dropped > 0  # the bound really bit


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_open_loop_verdicts_and_digest_ignore_the_tracer(seed):
    runs = {name: open_run(seed, make()) for name, make in TRACERS.items()}
    cluster, engine, result = runs["unbounded"]
    assert result.latency["n"] > 0
    assert_trace_oracle_agrees(cluster, engine)
    reference = verdicts(*runs["unbounded"])
    for name in ("capacity", "ring", "empty"):
        observed = verdicts(*runs[name])
        assert observed == reference, name
        assert observed["result"].digest_state == result.digest_state
    assert runs["capacity"][0].tracer.dropped > 0


def test_3pc_partition_mixed_outcome_counts_as_a_violation():
    """3PC under E18's partitions commits on one side and aborts on the
    other; the tally reports it as a violation, never as blocked."""
    found = 0
    for seed in range(6):
        cluster, engine, result = closed_run("3pc", seed, None)
        mixed = sum(cluster.outcome(txn).outcome == "mixed" for txn in engine.handles)
        blocked = sum(cluster.outcome(txn).outcome == "blocked" for txn in engine.handles)
        assert result.atomicity_violations >= mixed
        assert result.blocked == blocked
        found += mixed
    assert found > 0

"""What-if tournaments: one recorded trace, many configurations.

The tournament replays a single harvested trace against a matrix of
configurations — commit protocol, quorum policy, a shrunk installation
— and emits a per-configuration diff table over commits / aborts /
messages / latency.  Because every cell consumes the *same* ops at the
*same* arrival times under the *same* fault schedule, the differences
are pure configuration effects: the what-if question experiment
sweeps can only approximate statistically, answered exactly.

Cells fan out through the sweep engine
(:func:`~repro.engine.run_sweep`), so a tournament rides the warm
worker pool like any other study and is byte-identical at every worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.common.errors import StoreError
from repro.engine import (
    MemorySink,
    ResultSink,
    ResultStore,
    SharedPayload,
    SweepSpec,
    TeeSink,
    run_sweep,
)
from repro.replication.catalog import ItemConfig, ReplicaCatalog
from repro.replay.artifact import RecordedTrace
from repro.traffic.engine import safety_counters

#: quorum policies :func:`derive_catalog` can impose.
QUORUM_POLICIES = ("recorded", "majority", "read-one-write-all")

#: the diff table's integer-valued metrics.
DIFF_METRICS = (
    "submitted",
    "committed",
    "client_aborted",
    "protocol_aborted",
    "blocked",
    "reads_committed",
    "skipped_ops",
    "messages_sent",
    "messages_delivered",
    "messages_dropped",
    "wal_forced",
    "events_run",
)


@dataclass(frozen=True)
class TournamentConfig:
    """One what-if configuration.

    Attributes:
        name: row label in the diff table.
        protocol: commit protocol override (``None`` = as recorded).
        quorum: quorum policy for :func:`derive_catalog`.
        drop_sites: shrink the installation by removing the ``n``
            highest-numbered hosting sites; recorded ops the smaller
            cluster cannot host are skipped and tallied.
        crash_origin_at: extra fault — crash the recorded run's first
            transaction origin (its coordinator) at this virtual time.
    """

    name: str
    protocol: str | None = None
    quorum: str = "recorded"
    drop_sites: int = 0
    crash_origin_at: float | None = None

    def __post_init__(self) -> None:
        if self.quorum not in QUORUM_POLICIES:
            raise StoreError(
                f"quorum policy must be one of {QUORUM_POLICIES}, got {self.quorum!r}"
            )
        if self.drop_sites < 0:
            raise StoreError(f"drop_sites must be >= 0, got {self.drop_sites}")


#: the standard protocol face-off, plus one alternative quorum policy.
DEFAULT_CONFIGS = (
    TournamentConfig("recorded"),
    TournamentConfig("2pc", protocol="2pc"),
    TournamentConfig("3pc", protocol="3pc"),
    TournamentConfig("rowa", quorum="read-one-write-all"),
)


def _policy_quorums(v: int, r: int, w: int, policy: str) -> tuple[int, int]:
    """(r, w) for ``v`` total votes under ``policy``, always valid.

    The recorded quorums survive verbatim when they still satisfy
    Gifford's constraints against the (possibly shrunk) vote total;
    otherwise — and for the explicit policies — they are recomputed.
    """
    if policy == "recorded" and r + w > v and 2 * w > v and 1 <= r <= v and 1 <= w <= v:
        return r, w
    if policy == "read-one-write-all":
        return 1, v
    # majority, and the fallback for recorded quorums a shrunk vote
    # total has invalidated
    w = v // 2 + 1
    return v - w + 1, w


def derive_catalog(
    catalog: ReplicaCatalog,
    quorum: str = "recorded",
    drop_sites: int = 0,
) -> ReplicaCatalog:
    """A what-if variant of a recorded catalog.

    ``drop_sites`` removes the highest-numbered hosting sites from the
    installation; items that lose every copy are omitted entirely (the
    replay projection then skips their ops).  ``quorum`` re-derives
    r/w per the policy; shrunk items whose recorded quorums no longer
    satisfy the vote constraints fall back to majority.
    """
    dropped = set(sorted(catalog.all_sites())[len(catalog.all_sites()) - drop_sites:])
    items = []
    for name in catalog.item_names:
        config = catalog.item(name)
        copies = {s: v for s, v in config.copies.items() if s not in dropped}
        if not copies:
            continue
        total = sum(copies.values())
        r, w = _policy_quorums(total, config.read_quorum, config.write_quorum, quorum)
        items.append(ItemConfig(name=name, copies=copies, read_quorum=r, write_quorum=w))
    if not items:
        raise StoreError("derived catalog is empty: drop_sites removed every copy")
    return ReplicaCatalog(items)


def project_plan(actions, sites: set[int]):
    """The recorded fault schedule restricted to a site universe.

    A shrunk what-if installation no longer has every site the recorded
    plan manipulates: crashes/recoveries/link losses of removed sites
    are dropped, partition groups lose their removed members (a group
    emptied entirely is dropped, and a partition event with no groups
    left is skipped — every survivor would be an implicit singleton,
    which the recorded event never meant).  Heals and joins of new
    sites survive; a join whose ``near`` anchor was removed re-anchors
    to ``None``.  Gray actions project like their fail-stop cousins:
    degrade/restore/leave of a removed site are dropped, and a flap of
    a removed endpoint is dropped whole (its link never exists).
    """
    from repro.sim.failures import (
        CrashSite,
        DegradeSite,
        FailurePlan,
        FlapLink,
        HealNetwork,
        JoinSite,
        LeaveSite,
        PartitionNetwork,
        RecoverSite,
        RestoreSite,
        SetLinkLoss,
    )

    plan = FailurePlan()
    for action in actions:
        if isinstance(action, (CrashSite, RecoverSite, DegradeSite, RestoreSite, LeaveSite)):
            if action.site in sites:
                plan.actions.append(action)
        elif isinstance(action, PartitionNetwork):
            groups = tuple(
                kept
                for group in action.groups
                if (kept := tuple(s for s in group if s in sites))
            )
            if groups:
                plan.actions.append(PartitionNetwork(action.time, groups))
        elif isinstance(action, (SetLinkLoss, FlapLink)):
            if action.src in sites and action.dst in sites:
                plan.actions.append(action)
        elif isinstance(action, JoinSite):
            if action.near is not None and action.near not in sites:
                action = JoinSite(action.time, action.site, action.copies, None)
            plan.actions.append(action)
        else:  # HealNetwork and any future site-agnostic action
            plan.actions.append(action)
    return plan


def _mean_commit_latency(cluster, committed: Sequence[str]) -> float:
    """Mean (first commit decision − first protocol event) over
    committed transactions, in virtual time; 0.0 when none decided."""
    latencies = []
    for txn in committed:
        scope = cluster.tracer.txn_scope(txn)
        if not scope:
            continue
        start = scope[0].time
        decisions = [
            rec.time
            for rec in scope
            if rec.category == "decision" and rec.detail.get("outcome") == "commit"
        ]
        if decisions:
            latencies.append(min(decisions) - start)
    return sum(latencies) / len(latencies) if latencies else 0.0


def replay_trace(
    trace: RecordedTrace, config: TournamentConfig | None = None
) -> dict[str, Any]:
    """Replay one trace under one configuration; returns the row.

    With the default (``recorded``) configuration the replay is the
    fixed point: the row's counters equal the trace's recorded
    counters byte-for-byte.
    """
    cfg = config if config is not None else TournamentConfig("recorded")
    protocol = cfg.protocol if cfg.protocol is not None else trace.protocol
    catalog = (
        derive_catalog(trace.catalog, cfg.quorum, cfg.drop_sites)
        if (cfg.quorum != "recorded" or cfg.drop_sites)
        else trace.catalog
    )
    if cfg.drop_sites:
        universe = set(catalog.all_sites())
        if trace.driver == "wan_storm":
            from repro.workload.generators import wan_regions

            regions = wan_regions(
                trace.params["n_regions"], trace.params["sites_per_region"]
            )
            universe |= {s for region in regions for s in region}
        plan = project_plan(trace.actions, universe)
    else:
        plan = trace.plan()
    if cfg.crash_origin_at is not None:
        origin = _first_origin(trace)
        if origin is not None:
            plan.crash(cfg.crash_origin_at, origin)

    if trace.driver == "wan_storm":
        return _replay_wan(trace, cfg, protocol, catalog, plan)
    if trace.driver == "open_loop":
        return _replay_open(trace, cfg, protocol, catalog, plan)
    return _replay_heavy(trace, cfg, protocol, catalog, plan)


def _first_origin(trace: RecordedTrace) -> int | None:
    """The recorded run's first transaction origin (its coordinator)."""
    if trace.updates:
        return trace.updates[0][0]
    for op in trace.ops:
        if op.kind == "update":
            return op.origin
    return None


def _replay_heavy(trace, cfg, protocol, catalog, plan) -> dict[str, Any]:
    from repro.experiments.workload_study import run_heavy_workload
    from repro.replay.recorder import cluster_counters

    workload = trace.workload().project(catalog)
    harvested: dict[str, Any] = {}
    result = run_heavy_workload(
        protocol,
        seed=trace.seed,
        probe=lambda cluster: harvested.update(cluster=cluster),
        workload=workload,
        catalog=catalog,
        failures=plan,
    )
    cluster = harvested["cluster"]
    committed = [t for t, o in result.txn_outcomes.items() if o == "commit"]
    return {
        "config": cfg.name,
        "protocol": protocol,
        "submitted": result.submitted,
        "committed": result.committed,
        "client_aborted": result.client_aborted,
        "protocol_aborted": result.protocol_aborted,
        "blocked": result.blocked,
        "reads_committed": result.reads_committed,
        "skipped_ops": workload.skipped_ops,
        "serializable": result.serializable,
        "mean_commit_latency": _mean_commit_latency(cluster, committed),
        **safety_counters(result),
        **cluster_counters(cluster),
    }


def _replay_open(trace, cfg, protocol, catalog, plan) -> dict[str, Any]:
    from repro.experiments.service_study import run_open_loop_service
    from repro.replay.recorder import cluster_counters

    workload = trace.workload().project(catalog)
    harvested: dict[str, Any] = {}
    result = run_open_loop_service(
        protocol,
        seed=trace.seed,
        window=trace.params.get("window", 4),
        workload=workload,
        catalog=catalog,
        failures=plan,
        probe=lambda cluster: harvested.update(cluster=cluster),
    )
    cluster = harvested["cluster"]
    return {
        "config": cfg.name,
        "protocol": protocol,
        "submitted": result.admitted,
        "committed": result.committed,
        "client_aborted": result.client_aborted,
        "protocol_aborted": result.protocol_aborted,
        "blocked": result.unresolved,
        "reads_committed": result.reads_committed,
        "skipped_ops": workload.skipped_ops,
        "serializable": result.serializable,
        # the open-loop drive measures its own latency stream; reuse
        # the digest's p50 as the comparable latency column
        "mean_commit_latency": result.latency.get("p50", 0.0),
        "offered": result.offered,
        "shed_backpressure": result.shed_backpressure,
        "shed_unreachable": result.shed_unreachable,
        "latency_p99": result.latency.get("p99", 0.0),
        "latency_p999": result.latency.get("p999", 0.0),
        **safety_counters(result),
        **cluster_counters(cluster),
    }


def _replay_wan(trace, cfg, protocol, catalog, plan) -> dict[str, Any]:
    from repro.replay.recorder import cluster_counters
    from repro.workload.generators import wan_regions
    from repro.workload.scenarios import run_wan_storm

    params = trace.params
    regions = wan_regions(params["n_regions"], params["sites_per_region"])
    all_sites = [s for region in regions for s in region]
    workload = trace.workload().project(catalog, sites=all_sites)
    if not workload._updates:
        raise StoreError(
            "recorded WAN update cannot run on the derived catalog "
            "(origin or every written item was dropped)"
        )
    harvested: dict[str, Any] = {}
    scenario = run_wan_storm(
        protocol,
        seed=trace.seed,
        n_regions=params["n_regions"],
        sites_per_region=params["sites_per_region"],
        n_items=params["n_items"],
        region_replication=params["region_replication"],
        workload=workload,
        catalog=catalog,
        failures=plan,
        probe=lambda cluster: harvested.update(cluster=cluster),
    )
    cluster = harvested["cluster"]
    outcome = scenario.outcome
    committed = [scenario.txn.txn] if outcome == "commit" else []
    return {
        "config": cfg.name,
        "protocol": protocol,
        "submitted": 1,
        "committed": 1 if outcome == "commit" else 0,
        "client_aborted": 0,
        "protocol_aborted": 1 if outcome == "abort" else 0,
        "blocked": 1 if outcome == "blocked" else 0,
        "reads_committed": 0,
        "skipped_ops": workload.skipped_ops,
        "serializable": True,
        "mean_commit_latency": _mean_commit_latency(cluster, committed),
        **({} if scenario.report.atomic else {"atomicity_violations": 1}),
        **cluster_counters(cluster),
    }


def fixed_point_ok(trace: RecordedTrace, row: dict[str, Any]) -> bool:
    """Does a ``recorded``-config replay row reproduce the trace's
    counters exactly?  (The record→replay contract.)"""
    return all(row.get(key) == value for key, value in trace.counters.items())


# ----------------------------------------------------------------------
# the tournament proper
# ----------------------------------------------------------------------

def tournament_run(
    seed: int,
    index: int,
    trace_lines: list[dict[str, Any]],
    configs: tuple[TournamentConfig, ...],
) -> dict[str, Any]:
    """One tournament cell (module-level so the sweep engine can pickle
    it to pool workers).  The trace travels as its JSONL records —
    JSON-safe, so a tournament sweep can be persisted to a
    :class:`~repro.engine.ResultStore` like any other — and ``seed`` is
    the engine's derived seed; the replay is pinned to the trace's own
    recorded seed regardless."""
    return replay_trace(RecordedTrace.from_lines(trace_lines), configs[index])


def run_tournament(
    trace: RecordedTrace,
    configs: Sequence[TournamentConfig] = DEFAULT_CONFIGS,
    workers: int = 1,
    store: ResultStore | None = None,
    persistent_pool: bool = False,
    sink: ResultSink | None = None,
    share_trace: bool = False,
) -> list[dict[str, Any]]:
    """Replay ``trace`` under every configuration; rows in config order.

    Fans out through :func:`~repro.engine.run_sweep`, so results are
    byte-identical at every worker count and can be persisted to a
    :class:`~repro.engine.ResultStore` like any sweep.

    ``sink`` routes a large what-if matrix through the streaming
    backend — rows flow into the caller's sink as cells finish instead
    of accumulating (the return value is then assembled from a
    row-keeping tee so config order is preserved).  ``share_trace``
    publishes the trace's JSONL records once as a
    :class:`~repro.engine.SharedPayload` instead of re-pickling them
    into every cell — the win at big matrices; opt-in because the spec
    summary (and so a persisted artifact's header) then carries the
    handle's content-free ``{"shared": ...}`` form rather than the full
    line list.
    """
    configs = tuple(configs)
    if not configs:
        raise StoreError("tournament needs at least one configuration")
    lines: Any = trace.to_lines()
    handle = None
    if share_trace:
        lines = handle = SharedPayload.publish(lines, label="replay-trace-lines")
    spec = SweepSpec(
        name="replay-tournament",
        task=tournament_run,
        grid={"index": list(range(len(configs)))},
        runs=1,
        base_seed=trace.seed,
        seeding="offset",
        fixed={"trace_lines": lines, "configs": configs},
    )
    try:
        if sink is not None:
            keeper = sink if sink.keeps_rows else MemorySink()
            tee = sink if keeper is sink else TeeSink(sink, keeper)
            run_sweep(
                spec,
                workers=workers,
                store=store,
                persistent_pool=persistent_pool,
                sink=tee,
            )
            return [r.value for r in keeper.results]
        outcome = run_sweep(
            spec, workers=workers, store=store, persistent_pool=persistent_pool
        )
    finally:
        if handle is not None:
            handle.release()
    return outcome.values()


def diff_rows(
    rows: Sequence[dict[str, Any]], baseline: str | None = None
) -> list[dict[str, Any]]:
    """Per-configuration deltas against the baseline row.

    ``baseline`` names the reference config (default: the first row,
    conventionally ``recorded``).  Each returned row carries the raw
    metrics plus ``d_<metric>`` deltas; the baseline's deltas are all
    zero.
    """
    if not rows:
        return []
    base = rows[0]
    if baseline is not None:
        base = next((r for r in rows if r["config"] == baseline), rows[0])
    out = []
    for row in rows:
        diffed = dict(row)
        for metric in DIFF_METRICS:
            diffed[f"d_{metric}"] = row[metric] - base[metric]
        diffed["d_mean_commit_latency"] = (
            row["mean_commit_latency"] - base["mean_commit_latency"]
        )
        out.append(diffed)
    return out


def format_diff_table(rows: Sequence[dict[str, Any]]) -> str:
    """The tournament's human-readable diff table, one line per config."""
    diffed = diff_rows(rows)
    columns = (
        ("config", "config"),
        ("proto", "protocol"),
        ("commit", "committed"),
        ("abort", "protocol_aborted"),
        ("client", "client_aborted"),
        ("blocked", "blocked"),
        ("skipped", "skipped_ops"),
        ("msgs", "messages_sent"),
        ("latency", "mean_commit_latency"),
    )
    lines = ["  ".join(f"{title:>8}" for title, _ in columns)]
    for row in diffed:
        cells = []
        for title, key in columns:
            value = row[key]
            if key == "mean_commit_latency":
                cells.append(f"{value:8.2f}")
            elif isinstance(value, str):
                cells.append(f"{value:>8}")
            else:
                delta = row.get(f"d_{key}", 0)
                text = f"{value}{f'({delta:+d})' if delta else ''}"
                cells.append(f"{text:>8}")
        lines.append("  ".join(cells))
    return "\n".join(lines)

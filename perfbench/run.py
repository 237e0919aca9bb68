"""Benchmark: simulated work per wall-clock second of the QTP simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload closed_heavy --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no tracing
installed; ``--trace 1`` prints the per-layer metrics, from pairs of an
untraced and a traced run of the same inputs.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run whose outputs fail a
check reports ``correct: false`` with no metrics and exits with code 1.
Rates are scaled to a nominal host by a reference job timed after every
round (``reference.py``).

The workloads and their sizes are in ``workloads.py``; ``BENCHMARK.json``
at the repository root records why each was chosen.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ledger
from reference import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch space for sweep artifacts, inside the checkout
WORKDIR = ROOT / ".perfbench"

#: set-up is timed this many times per run, each in a fresh interpreter
SETUP_PROBES = 7


def _import_workloads():
    """The workload module, with the library's sources importable."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------


def probe_setup(workload: str, seed: int, scale: float) -> None:
    """Child side: import, build, run to the first simulated event, and
    print the monotonic clock at that moment."""
    workloads = _import_workloads()
    prepared = workloads.Prepared(workload, seed, scale, WORKDIR)
    workloads.stop_at_first_event(prepared, lambda: print(repr(time.perf_counter()), flush=True))


def setup_seconds(workload: str, seed: int, scale: float, host: HostSpeed) -> float:
    """Median of fresh-interpreter → first-event times, each scaled to
    the nominal host by a reference round timed right after it.

    ``time.perf_counter`` reads the system-wide monotonic clock, so the
    child's reading and the parent's start time are comparable.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed), "--scale", str(scale)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        wall = float(proc.stdout.strip().splitlines()[-1]) - t0
        times.append(wall * host.measure())
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident memory so far of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# measured rounds
# ----------------------------------------------------------------------


def one_round(workloads, args, check: bool = True, counts: bool = False, spans=None):
    """Build and drive one round, then (untimed) check its outputs.

    With ``spans`` the round is traced: wrappers go in before the build,
    and only the timed drive records spans.
    """
    gc.collect()
    if spans is not None:
        if workloads.WORKLOADS[args.workload]["loop"] == "sweep":
            ledger.install_engine(spans)
        else:
            ledger.install_simulator(spans)
    try:
        prepared = workloads.Prepared(args.workload, args.seed, args.scale, WORKDIR)
        if spans is not None:
            spans.active = True
        result = prepared.drive()
    finally:
        if spans is not None:
            spans.uninstall()
    return prepared.check(result, counts=counts) if check else result


def warm_up(workloads, args) -> None:
    """One untimed round first, so imports and lazy set-up are done."""
    one_round(workloads, args, check=False)


def same_outputs(a, b) -> bool:
    """Two rounds of one seed produced the same outputs and counts.

    Rounds are deterministic, so a round that agrees with a checked
    round passes the same checks.
    """
    ignore = {"wall_s": 0.0, "violations": 0}
    return {**vars(a), **ignore} == {**vars(b), **ignore}


def scaled_rate(count: float, rounds, speeds: list[float]) -> float:
    """Median over rounds of ``count`` per timed second, each divided by
    the host speed measured right after the round (see "Noise" in
    ``README.md``)."""
    return statistics.median(count / (r.wall_s * speed) for r, speed in zip(rounds, speeds))


def report_host(rounds, speeds: list[float]) -> None:
    """Raw figures on standard error: a raw rate is a scaled one times
    the host speed."""
    print(f"{len(rounds)} rounds, median {statistics.median(r.wall_s for r in rounds):.4f} s; "
          f"median host speed {statistics.median(speeds):.3f} of nominal", file=sys.stderr)


def end_to_end(workloads, args, host: HostSpeed) -> tuple[dict, int, int]:
    """The ``--trace 0`` metrics: identical rounds until ``--seconds``
    pass, each followed by a reference round."""
    warm_up(workloads, args)
    deadline = time.perf_counter() + args.seconds
    first = one_round(workloads, args)
    rounds, speeds = [first], [host.measure()]
    failed = first.violations
    while time.perf_counter() < deadline:
        result = one_round(workloads, args, check=False)
        speeds.append(host.measure())
        failed += result.violations + (not same_outputs(first, result))
        rounds.append(result)
    rss = peak_rss_mb()
    report_host(rounds, speeds)
    metrics = {
        "offered_per_s": metric(scaled_rate(first.offered, rounds, speeds), "txn/s"),
        "committed_per_s": metric(scaled_rate(first.committed, rounds, speeds), "txn/s"),
        "peak_rss_mb": metric(rss, "MB"),
        "setup_s": metric(setup_seconds(args.workload, args.seed, args.scale, host), "s"),
    }
    return metrics, sum(r.offered for r in rounds), failed


def per_layer(workloads, args, host: HostSpeed) -> tuple[dict, int, int]:
    """The ``--trace 1`` metrics: untraced/traced pairs until ``--seconds`` pass."""
    warm_up(workloads, args)
    pairs, speeds = [], []
    deadline = time.perf_counter() + args.seconds
    while not pairs or time.perf_counter() < deadline:
        untraced = one_round(workloads, args, counts=True)
        speeds.append(host.measure())
        spans = ledger.SpanLedger()
        traced = one_round(workloads, args, counts=True, spans=spans)
        pairs.append((untraced, traced, spans, spans.self_times()))
    first = pairs[0][0]
    failed = 0
    for untraced, traced, _, self_times in pairs:
        # the traced run must not perturb the program: identical
        # outcomes and counters, and self times within the traced wall
        failed += untraced.violations + traced.violations
        failed += not same_outputs(first, untraced) or not same_outputs(untraced, traced)
        failed += sum(self_times.values()) > traced.wall_s
    if args.spans:
        write_spans(pairs[-1][2], Path(args.spans))
    attempted = sum(u.offered + t.offered for u, t, _, _ in pairs)
    return layer_metrics(first, pairs, speeds), attempted, failed


def write_spans(spans, path: Path) -> None:
    """Dump one traced round's spans as gzip'd JSON lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for row in spans.rows():
            out.write(json.dumps(row, separators=(",", ":")) + "\n")


def layer_metrics(first, pairs, speeds: list[float]) -> dict:
    """Per-layer metrics: counts from the untraced run, rates from the
    untraced rounds scaled like the end-to-end rates, times as medians."""
    counts = first.counts
    commits = first.protocol_commits
    untraced = [u for u, _, _, _ in pairs]
    report_host(untraced, speeds)

    def med(fn) -> float:
        return statistics.median(fn(u, t, s) for u, t, s, _ in pairs)

    def self_s(layer: str) -> float:
        return statistics.median(self_times[layer] for _, _, _, self_times in pairs)

    def per_commit(value: float) -> float:
        return value / commits if commits else 0.0

    tally_names = ("repro.traffic.engine.tally_stream", "repro.traffic.open_loop.tally_stream")
    sink_names = tuple(f"JsonlSink.{name}" for name in ledger.SINK_ENTRIES)
    spans = pairs[0][2]
    out = {
        "sim.scheduler.events": metric(counts["sim.scheduler.events"], "count"),
        "sim.scheduler.events_per_s": metric(
            scaled_rate(counts["sim.scheduler.events"], untraced, speeds), "1/s"
        ),
        "sim.scheduler.self_s": metric(self_s("sim.scheduler"), "s"),
        "net.sent": metric(counts["net.sent"], "count"),
        "net.delivered": metric(counts["net.delivered"], "count"),
        "net.dropped": metric(counts["net.dropped"], "count"),
        "net.msgs_per_commit": metric(per_commit(counts["net.sent"]), "ratio"),
        "net.self_s": metric(self_s("net"), "s"),
        "protocols.decisions": metric(counts["protocols.decisions"], "count"),
        "protocols.self_s": metric(self_s("protocols"), "s"),
        "storage.wal_forced": metric(counts["storage.wal_forced"], "count"),
        "storage.wal_flushes": metric(counts["storage.wal_flushes"], "count"),
        "storage.forces_per_commit": metric(per_commit(counts["storage.wal_forced"]), "ratio"),
        "storage.self_s": metric(self_s("storage"), "s"),
        "concurrency.lock_calls": metric(
            spans.calls(f"LockManager.{name}" for name in ledger.LOCK_ENTRIES), "count"
        ),
        "concurrency.lock_refusals": metric(spans.refusals, "count"),
        "concurrency.locks_self_s": metric(self_s("concurrency"), "s"),
        "concurrency.conflict_edges": metric(counts.get("concurrency.conflict_edges", 0), "count"),
        "concurrency.serializability_s": metric(self_s("serializability"), "s"),
        "sim.trace.rows": metric(counts["sim.trace.rows"], "count"),
        "sim.trace.queries": metric(
            spans.calls(f"Tracer.{name}" for name in ledger.QUERY_ENTRIES), "count"
        ),
        "sim.trace.self_s": metric(self_s("sim.trace"), "s"),
        "sim.failures.self_s": metric(self_s("sim.failures"), "s"),
        "db.tally_s": metric(med(lambda u, t, s: s.inclusive(tally_names)), "s"),
        "db.self_s": metric(self_s("db"), "s"),
        "traffic.offered": metric(first.offered, "count"),
        "traffic.shed": metric(first.shed, "count"),
        "traffic.shed_share": metric(first.shed / first.offered, "ratio"),
        "traffic.uncommitted_share": metric(first.uncommitted / first.offered, "ratio"),
        "traffic.latency_n": metric(first.latency.get("n", 0), "count"),
        "traffic.latency_p50_vs": metric(first.latency.get("p50", 0.0), "vs"),
        "traffic.latency_p99_vs": metric(first.latency.get("p99", 0.0), "vs"),
        "traffic.self_s": metric(self_s("traffic"), "s"),
        "workload.draws": metric(
            spans.calls(f"CompiledWorkload.{name}" for name in ledger.DRAW_ENTRIES), "count"
        ),
        "workload.self_s": metric(self_s("workload"), "s"),
        "replication.self_s": metric(self_s("replication"), "s"),
        "engine.cells": metric(counts.get("engine.cells", 0), "count"),
        "engine.cells_per_s": metric(
            scaled_rate(counts.get("engine.cells", 0), untraced, speeds), "1/s"
        ),
        "engine.sink_bytes": metric(counts.get("engine.sink_bytes", 0), "B"),
        "engine.parent_busy_s": metric(med(lambda u, t, s: s.inclusive(sink_names)), "s"),
        "engine.wait_s": metric(
            med(
                lambda u, t, s: s.inclusive(["repro.engine.run_sweep"]) - s.inclusive(sink_names)
            ),
            "s",
        ),
        "engine.retried": metric(counts.get("engine.retried", 0), "count"),
        "trace_overhead": metric(med(lambda u, t, s: t.wall_s / u.wall_s), "ratio"),
    }
    return out


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every round (tests use a tiny scale)")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1: write one traced round's spans here (.jsonl.gz)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed, args.scale)
        return 0
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        with HostSpeed() as host:
            metrics, attempted, failed = measure(workloads, args, host)
    finally:
        try:
            WORKDIR.rmdir()
        except OSError:  # left behind by an aborted sweep round
            pass
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at a tiny scale.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "3", "--seconds", "0", "--scale", "0.02"]


def bench(*argv: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    code, out = bench("--workload", workload, "--trace", "0", *TINY)
    assert code == 0 and out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_repeat(workload):
    runs = [bench("--workload", workload, "--trace", "1", *TINY) for _ in range(2)]
    for code, out in runs:
        assert code == 0 and out["correct"] and out["failed"] == 0
        assert {k: v["unit"] for k, v in out["metrics"].items()} == units(SPEC["per_layer"])
    counts = [
        {k: v["value"] for k, v in out["metrics"].items() if v["unit"] == "count"}
        for _, out in runs
    ]
    assert counts[0] == counts[1]
    traced_s = sum(v["value"] for v in runs[0][1]["metrics"].values() if v["unit"] == "s")
    assert traced_s > 0


def test_span_dump_carries_parents_and_txn_ids(tmp_path):
    path = tmp_path / "spans.jsonl.gz"
    code, out = bench("--workload", "closed_heavy", "--trace", "1", *TINY, "--spans", str(path))
    assert code == 0 and out["correct"]
    with gzip.open(path, "rt") as f:
        spans = [json.loads(line) for line in f]
    by_id = {span["id"]: span for span in spans}
    assert {span["layer"] for span in spans} >= {"sim.scheduler", "net", "protocols", "storage"}
    deliveries = [span for span in spans if span["name"] == "Node.deliver"]
    assert deliveries and all(span["txn"] for span in deliveries)
    for span in spans:
        if span["parent"] >= 0:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def test_failed_check_reports_no_numbers(monkeypatch, capsys):
    workloads = run._import_workloads()
    monkeypatch.setattr(workloads, "atomicity_violations", lambda cluster, txns: 1)
    code = run.main(["--workload", "closed_heavy", "--trace", "0", *TINY])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert out == {"correct": False, "attempted": out["attempted"], "failed": out["failed"],
                   "metrics": {}}
    assert out["failed"] >= 1


def test_tracing_leaves_the_library_untouched():
    workloads = run._import_workloads()
    import ledger
    from repro.net.network import Network
    from repro.sim.scheduler import Scheduler

    before = (Scheduler.call_fixed, Network.send)
    spans = ledger.SpanLedger()
    ledger.install_simulator(spans)
    assert Scheduler.call_fixed is not before[0]
    spans.uninstall()
    assert (Scheduler.call_fixed, Network.send) == before
    assert workloads.PROTOCOL == "qtp1"


def test_host_speed_stops_its_child():
    from reference import HostSpeed

    with HostSpeed() as host:
        assert host.measure() > 0
    assert host._child.returncode is not None

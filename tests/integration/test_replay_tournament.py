"""Tests of the trace-record → replay engine (`repro.replay`).

The load-bearing contract is the record→replay *fixed point*: replaying
config C's recording under config C must reproduce the recorded
deterministic counters exactly.  Everything else — artifact round-trips,
what-if overrides, the tournament sweep — is layered on that guarantee.
"""

import gzip
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import StoreError
from repro.replay import (
    DEFAULT_CONFIGS,
    RecordedTrace,
    TournamentConfig,
    derive_catalog,
    fixed_point_ok,
    record_heavy_workload,
    record_wan_storm,
    replay_trace,
    run_tournament,
)

#: one small E18 recording shared across the read-only tests.
_TRACE_CACHE: dict[str, RecordedTrace] = {}


def small_trace() -> RecordedTrace:
    if "heavy" not in _TRACE_CACHE:
        _TRACE_CACHE["heavy"] = record_heavy_workload(
            "qtp1", seed=3, n_txns=20, n_sites=6, n_items=5
        )
    return _TRACE_CACHE["heavy"]


class TestFixedPoint:
    def test_heavy_workload_replay_reproduces_counters(self):
        trace = small_trace()
        row = replay_trace(trace)
        assert fixed_point_ok(trace, row), (trace.counters, row)

    def test_wan_storm_replay_reproduces_counters(self):
        trace = record_wan_storm("qtp1", seed=1, n_regions=3, sites_per_region=4)
        row = replay_trace(trace)
        assert fixed_point_ok(trace, row), (trace.counters, row)

    def test_replay_matches_recorded_tallies(self):
        trace = small_trace()
        row = replay_trace(trace)
        assert row["submitted"] == len(trace.ops)
        assert row["committed"] == trace.result["committed"]
        assert row["protocol"] == trace.protocol

    @given(st.integers(0, 2**16), st.sampled_from(["2pc", "3pc", "qtp1", "qtp2"]))
    @settings(max_examples=6, deadline=None)
    def test_fixed_point_across_seeds_and_protocols(self, seed, protocol):
        trace = record_heavy_workload(protocol, seed=seed, n_txns=10, n_sites=5, n_items=4)
        assert fixed_point_ok(trace, replay_trace(trace))


class TestArtifact:
    def test_roundtrip_preserves_fixed_point(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.jsonl.gz"
        trace.save(path)
        loaded = RecordedTrace.load(path)
        assert fixed_point_ok(loaded, replay_trace(loaded))

    def test_encoding_is_byte_stable(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.jsonl.gz"
        trace.save(path)
        loaded = RecordedTrace.load(path)
        assert trace.encode() == loaded.encode()
        # saving the reloaded trace reproduces the artifact byte-for-byte
        again = tmp_path / "again.jsonl.gz"
        loaded.save(again)
        assert path.read_bytes() == again.read_bytes()

    def test_truncated_artifact_rejected(self):
        lines = small_trace().to_lines()
        with pytest.raises(StoreError):
            RecordedTrace.from_lines(lines[:-2] + [lines[-1]])
        with pytest.raises(StoreError):
            RecordedTrace.from_lines(lines[:-1])

    def test_corrupt_gzip_rejected(self, tmp_path):
        path = tmp_path / "junk.jsonl.gz"
        path.write_bytes(b"not a gzip stream at all")
        with pytest.raises(StoreError):
            RecordedTrace.load(path)

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("{this is not json\n")
        with pytest.raises(StoreError):
            RecordedTrace.load(path)

    def test_schema_mismatch_rejected(self):
        lines = small_trace().to_lines()
        header = dict(lines[0], schema=99)
        with pytest.raises(StoreError):
            RecordedTrace.from_lines([header] + lines[1:])

    def test_wrong_kind_rejected(self):
        lines = small_trace().to_lines()
        header = dict(lines[0], kind="something-else")
        with pytest.raises(StoreError):
            RecordedTrace.from_lines([header] + lines[1:])


class TestWhatIfConfigs:
    def test_protocol_override_changes_engine_not_stream(self):
        trace = small_trace()
        row = replay_trace(trace, TournamentConfig("as-2pc", protocol="2pc"))
        assert row["protocol"] == "2pc"
        assert row["submitted"] == len(trace.ops)
        assert row["skipped_ops"] == 0

    def test_smaller_cluster_skips_unhosted_ops(self):
        trace = small_trace()
        row = replay_trace(trace, TournamentConfig("shrunk", drop_sites=2))
        # the projection is the oracle for what must be skipped
        catalog = derive_catalog(trace.catalog, drop_sites=2)
        expected = trace.workload().project(catalog)
        assert row["skipped_ops"] == expected.skipped_ops
        assert row["submitted"] == len(trace.ops) - expected.skipped_ops
        assert row["serializable"]

    def test_replay_survives_termination_race(self):
        # regression: replaying this exact stream under 3PC used to
        # crash with "already logged abort; cannot log commit" — the
        # coordinator's original round, fed late PC-acks across a
        # partition, raced its own termination attempt's abort.  The
        # stale round must stand down, not contradict the log.
        trace = record_heavy_workload("qtp1", seed=0, n_txns=24)
        row = replay_trace(trace, TournamentConfig("as-3pc", protocol="3pc"))
        # a mixed commit/abort is an atomicity violation, tallied
        # nowhere else; every violation in these runs is a mixed one
        total = (
            row["committed"] + row["client_aborted"]
            + row["protocol_aborted"] + row["blocked"]
            + row.get("atomicity_violations", 0)
        )
        assert total == row["submitted"]
        assert row["serializable"]

    def test_coordinator_crash_hurts_commits(self):
        trace = small_trace()
        baseline = replay_trace(trace)
        crashed = replay_trace(trace, TournamentConfig("crash", crash_origin_at=0.5))
        assert crashed["committed"] < baseline["committed"]

    def test_invalid_config_rejected(self):
        with pytest.raises(StoreError):
            TournamentConfig("bad", quorum="no-such-policy")
        with pytest.raises(StoreError):
            TournamentConfig("bad", drop_sites=-1)


class TestTournament:
    def test_diff_covers_all_default_configs(self):
        rows = run_tournament(small_trace())
        assert [r["config"] for r in rows] == [c.name for c in DEFAULT_CONFIGS]
        assert len(rows) >= 3
        assert fixed_point_ok(small_trace(), rows[0])

    @given(st.integers(0, 2**10))
    @settings(max_examples=3, deadline=None)
    def test_serial_and_parallel_tournaments_byte_identical(self, seed):
        trace = record_heavy_workload("qtp1", seed=seed, n_txns=10, n_sites=5, n_items=4)
        serial = run_tournament(trace, workers=1)
        parallel = run_tournament(trace, workers=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


@pytest.mark.slow
class TestDeepTournament:
    """Full-scale E18 harvest replayed across the whole default matrix."""

    def test_full_scale_matrix(self):
        trace = record_heavy_workload("qtp1", seed=0)
        rows = run_tournament(trace)
        assert fixed_point_ok(trace, rows[0])
        by_name = {r["config"]: r for r in rows}
        assert set(by_name) == {c.name for c in DEFAULT_CONFIGS}
        for row in rows:
            # mixed commit/abort outcomes (3PC under partition) count as
            # atomicity violations only; every violation here is one
            assert row["committed"] + row["client_aborted"] + row[
                "protocol_aborted"
            ] + row["blocked"] + row.get("atomicity_violations", 0) == row["submitted"]

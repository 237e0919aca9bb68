"""Unit tests for the per-cluster decision ledger."""

import pytest

from repro import CatalogBuilder, Cluster, FailurePlan
from repro.analysis.consistency import check_atomicity
from repro.protocols.ledger import DecisionLedger
from repro.protocols.states import TxnState


@pytest.fixture
def cluster():
    catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3], r=2, w=2).build()
    return Cluster(catalog, protocol="qtp1")


def committed_txn(cluster):
    txn = cluster.update(1, {"x": 7})
    cluster.run()
    assert cluster.outcome(txn.txn).outcome == "commit"
    return txn.txn


def assert_matches_trace(cluster, txn):
    """The ledger's verdict equals the trace-side oracle's."""
    participants = list(cluster.txn_handle(txn).participants)
    assert cluster.outcome(txn) == check_atomicity(cluster.tracer, txn, participants)


class TestLedger:
    def test_first_outcome_stands_and_a_different_one_conflicts(self):
        ledger = DecisionLedger()
        ledger.decision(1.0, 1, "T1", "commit")
        ledger.decision(2.0, 1, "T1", "abort")
        ledger.decision(2.0, 2, "T1", "commit")
        assert ledger.outcomes("T1") == {1: "commit", 2: "commit"}
        report = ledger.report("T1", [1, 2])
        assert report.conflicts == 1
        assert report.outcome == "commit" and not report.atomic

    def test_same_outcome_twice_is_no_conflict(self):
        ledger = DecisionLedger()
        ledger.decision(1.0, 1, "T1", "abort")
        ledger.decision(5.0, 1, "T1", "abort")
        assert ledger.report("T1", [1]).conflicts == 0

    def test_blocked_sites_intersect_undecided(self):
        ledger = DecisionLedger()
        ledger.blocked(1, "T1")
        ledger.blocked(2, "T1")
        ledger.blocked(4, "T1")  # not a participant
        ledger.decision(3.0, 1, "T1", "commit")
        report = ledger.report("T1", [1, 2, 3])
        assert report.undecided_sites == [2, 3]
        assert report.blocked_sites == [2]

    def test_unknown_txn_is_blocked_with_every_participant_undecided(self):
        report = DecisionLedger().report("T9", [3, 1])
        assert report.outcome == "blocked"
        assert report.undecided_sites == [1, 3]
        assert DecisionLedger().first_decision_at("T9") is None


class TestEngineWrites:
    def test_conflicting_command_counts_one_conflict(self, cluster):
        txn = committed_txn(cluster)
        engine = cluster.sites[2].engine
        engine._decide(engine.record(txn), "abort", via="test")
        report = cluster.outcome(txn)
        assert report.conflicts == 1
        assert not report.atomic
        assert cluster.ledger.outcomes(txn)[2] == "commit"
        assert_matches_trace(cluster, txn)

    def test_redecision_after_crash_recover_is_no_conflict(self, cluster):
        txn = committed_txn(cluster)
        cluster.network.crash_site(2)
        cluster.network.recover_site(2)
        engine = cluster.sites[2].engine
        assert engine.record(txn).state is TxnState.C  # rebuilt from the WAL
        engine._decide(engine.record(txn), "commit", via="test")
        report = cluster.outcome(txn)
        assert report.conflicts == 0 and report.atomic
        assert report.committed_sites == [1, 2, 3]
        assert_matches_trace(cluster, txn)

    def test_illegal_transitions_are_counted(self, cluster):
        txn = committed_txn(cluster)
        engine = cluster.sites[3].engine
        record = engine.record(txn)
        record.state = TxnState.PC
        engine._transition(record, TxnState.PA, via="test")  # no PC -> PA in Fig. 6
        engine._transition(record, TxnState.PA, via="test")  # same state: no move
        assert cluster.outcome(txn).illegal_transitions == 1
        assert_matches_trace(cluster, txn)

    def test_blocked_participants_are_recorded(self):
        """2PC's blocking window: the coordinator crashes after the yes
        votes, and every surviving participant blocks."""
        catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3], r=2, w=2).build()
        cluster = Cluster(catalog, protocol="2pc")
        txn = cluster.update(1, {"x": 5})
        cluster.arm_failures(FailurePlan().crash(1.5, 1))
        cluster.run()
        report = cluster.outcome(txn.txn)
        assert report.outcome == "blocked"
        assert report.blocked_sites == [2, 3]
        assert_matches_trace(cluster, txn.txn)


class TestFirstDecisionSubscriber:
    def test_fires_once_per_txn_at_the_first_decision_time(self, cluster):
        seen = []
        cluster.ledger.subscribe(lambda txn, at: seen.append((txn, at, cluster.scheduler.now)))
        first = cluster.update(1, {"x": 1})
        cluster.run()
        second = cluster.update(2, {"x": 2})
        cluster.run()
        assert [txn for txn, __, __ in seen] == [first.txn, second.txn]
        for txn, at, now in seen:
            records = cluster.tracer.where(category="decision", txn=txn)
            assert len(records) == 3  # three sites decided; one notification
            assert at == now == min(record.time for record in records)
            assert cluster.ledger.first_decision_at(txn) == at

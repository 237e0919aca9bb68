"""Atomic-commitment verdicts (S18), and their trace-side oracle.

:class:`ConsistencyReport` is the verdict shape every run reports.
Runs get it from the cluster's decision ledger
(:meth:`Cluster.outcome <repro.db.cluster.Cluster.outcome>`, backed by
:class:`~repro.protocols.ledger.DecisionLedger`), which the engines
write at decision time.  :func:`check_atomicity` rebuilds the same
report from an unbounded trace, independently of the ledger; the tests
compare the two, so a ledger bug cannot hide.  Either way the verdict
holds for any engine — including the deliberately broken variants used
in the counterexample experiments, which is the point: Examples 2 and
3 are *demonstrated* by verdicts reporting violations.

Checked properties:

* **atomicity** — the commit set and abort set of sites are never both
  non-empty, and no site records conflicting decisions;
* **Fig. 6 conformance** — no illegal state transition was traced
  (in particular no PC <-> PA move);
* **Lemmas 1 and 2** — every decision after the first agrees with the
  first (the per-transaction form of the two lemmas: later terminators
  either match the first terminator or stay blocked).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.trace import Tracer


@dataclass
class ConsistencyReport:
    """Verdict for one transaction in one run."""

    txn: str
    committed_sites: list[int] = field(default_factory=list)
    aborted_sites: list[int] = field(default_factory=list)
    undecided_sites: list[int] = field(default_factory=list)
    blocked_sites: list[int] = field(default_factory=list)
    conflicts: int = 0
    illegal_transitions: int = 0

    @property
    def atomic(self) -> bool:
        """True when no atomicity violation was observed."""
        mixed = bool(self.committed_sites) and bool(self.aborted_sites)
        return not mixed and self.conflicts == 0

    @property
    def outcome(self) -> str:
        """"commit" / "abort" / "blocked" / "mixed" summary."""
        if self.committed_sites and self.aborted_sites:
            return "mixed"
        if self.committed_sites:
            return "commit"
        if self.aborted_sites:
            return "abort"
        return "blocked"

    @property
    def fully_terminated(self) -> bool:
        """True when every participant reached a decision."""
        return not self.undecided_sites

    def describe(self) -> str:
        """One-line human-readable verdict."""
        return (
            f"{self.txn}: outcome={self.outcome} atomic={self.atomic} "
            f"C={self.committed_sites} A={self.aborted_sites} "
            f"undecided={self.undecided_sites} blocked={self.blocked_sites} "
            f"conflicts={self.conflicts} illegal={self.illegal_transitions}"
        )


def check_atomicity(
    tracer: Tracer,
    txn: str,
    participants: list[int],
) -> ConsistencyReport:
    """Rebuild one transaction's consistency verdict from the trace.

    The oracle for the ledger's verdicts; exact only when the tracer
    kept every ``decision`` / ``decision-conflict`` /
    ``illegal-transition`` / ``blocked`` record of the run.

    Args:
        tracer: the run's trace.
        txn: transaction to check.
        participants: the transaction's participant sites (undecided =
            participants without a decision record).
    """
    decisions: dict[int, str] = {}
    conflicts = 0
    for rec in tracer.where(category="decision", txn=txn):
        prior = decisions.get(rec.site)
        outcome = rec.detail["outcome"]
        if prior is not None and prior != outcome:
            conflicts += 1
        decisions.setdefault(rec.site, outcome)
    conflicts += tracer.count("decision-conflict", txn=txn)
    illegal = tracer.count("illegal-transition", txn=txn)
    committed = sorted(s for s, o in decisions.items() if o == "commit" and s in participants)
    aborted = sorted(s for s, o in decisions.items() if o == "abort" and s in participants)
    undecided = sorted(s for s in participants if s not in decisions)
    blocked = sorted(
        {rec.site for rec in tracer.where(category="blocked", txn=txn)} & set(undecided)
    )
    return ConsistencyReport(
        txn=txn,
        committed_sites=committed,
        aborted_sites=aborted,
        undecided_sites=undecided,
        blocked_sites=blocked,
        conflicts=conflicts,
        illegal_transitions=illegal,
    )


def first_decision_consistency(tracer: Tracer, txn: str) -> bool:
    """The Lemma 1/2 property: all decisions agree with the first one."""
    records = tracer.where(category="decision", txn=txn)
    if not records:
        return True
    first = records[0].detail["outcome"]
    return all(rec.detail["outcome"] == first for rec in records)

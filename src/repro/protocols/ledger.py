"""The decision ledger — verdict facts as protocol state.

Huang & Li's safety claims (atomicity, Lemmas 1–2, Theorem 1) are
decided per transaction at the moment a site forces its commit or
abort.  The protocol engines write those moments here, at the same
points that trace them — ``decision``, ``decision-conflict``,
``illegal-transition`` and ``blocked`` — so a run's verdicts never
depend on the debug trace: a capacity-bounded, ring-buffered or empty
:class:`~repro.sim.trace.Tracer` changes no verdict.

Per transaction the ledger keeps each site's *first* outcome (a later,
different outcome at the same site counts as a conflict, exactly as
:func:`~repro.analysis.consistency.check_atomicity` counts it over the
trace), the conflict and illegal-transition counts, the sites that
blocked, and the virtual time of the first decision anywhere.

Observers subscribe to first decisions (:meth:`DecisionLedger.subscribe`)
and are called from inside the decision event, in the update-handler
shape — nothing polls.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.analysis.consistency import ConsistencyReport

#: a first-decision subscriber: ``fn(txn, decided_at)``.
FirstDecisionHandler = Callable[[str, float], None]


class _Verdict:
    """One transaction's verdict facts."""

    __slots__ = ("outcomes", "conflicts", "illegal", "blocked", "first_at")

    def __init__(self) -> None:
        self.outcomes: dict[int, str] = {}
        self.conflicts = 0
        self.illegal = 0
        self.blocked: set[int] = set()
        self.first_at: float | None = None


class DecisionLedger:
    """Per-cluster owner of every transaction's verdict facts."""

    def __init__(self) -> None:
        self._verdicts: dict[str, _Verdict] = {}
        self._on_first: list[FirstDecisionHandler] = []

    def _entry(self, txn: str) -> _Verdict:
        entry = self._verdicts.get(txn)
        if entry is None:
            entry = self._verdicts[txn] = _Verdict()
        return entry

    # ------------------------------------------------------------------
    # writers (the protocol engines)
    # ------------------------------------------------------------------

    def decision(self, time: float, site: int, txn: str, outcome: str) -> None:
        """``site`` forced ``outcome`` for ``txn`` at virtual ``time``."""
        entry = self._entry(txn)
        prior = entry.outcomes.get(site)
        if prior is None:
            entry.outcomes[site] = outcome
        elif prior != outcome:
            entry.conflicts += 1
        if entry.first_at is None:
            entry.first_at = time
            for handler in self._on_first:
                handler(txn, time)

    def conflict(self, txn: str) -> None:
        """A site received a command contradicting its own decision."""
        self._entry(txn).conflicts += 1

    def illegal_transition(self, txn: str) -> None:
        """A site made a state move outside the Fig. 6 relation."""
        self._entry(txn).illegal += 1

    def blocked(self, site: int, txn: str) -> None:
        """``site`` blocked ``txn`` (no quorum possible, or out of rounds)."""
        self._entry(txn).blocked.add(site)

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------

    def subscribe(self, handler: FirstDecisionHandler) -> None:
        """Call ``handler(txn, decided_at)`` once per transaction, inside
        the event that records its first decision at any site."""
        self._on_first.append(handler)

    # ------------------------------------------------------------------
    # readers
    # ------------------------------------------------------------------

    def outcomes(self, txn: str) -> Mapping[int, str]:
        """Site -> first outcome (``"commit"`` / ``"abort"``) for ``txn``."""
        entry = self._verdicts.get(txn)
        return entry.outcomes if entry is not None else {}

    def first_decision_at(self, txn: str) -> float | None:
        """Virtual time of ``txn``'s first decision, or ``None``."""
        entry = self._verdicts.get(txn)
        return entry.first_at if entry is not None else None

    def report(self, txn: str, participants: Iterable[int]) -> ConsistencyReport:
        """The consistency verdict for one transaction.

        Same definition as the trace-side oracle
        :func:`~repro.analysis.consistency.check_atomicity`: undecided
        means a participant without a decision, and blocked sites are
        intersected with the undecided ones.
        """
        participants = set(participants)
        entry = self._verdicts.get(txn)
        if entry is None:
            return ConsistencyReport(txn=txn, undecided_sites=sorted(participants))
        decided = entry.outcomes
        undecided = participants.difference(decided)
        return ConsistencyReport(
            txn=txn,
            committed_sites=sorted(
                s for s, o in decided.items() if o == "commit" and s in participants
            ),
            aborted_sites=sorted(
                s for s, o in decided.items() if o == "abort" and s in participants
            ),
            undecided_sites=sorted(undecided),
            blocked_sites=sorted(entry.blocked & undecided),
            conflicts=entry.conflicts,
            illegal_transitions=entry.illegal,
        )

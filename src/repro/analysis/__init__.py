"""Analysis layer (systems S16–S18).

Everything here *observes* runs — none of it participates in them:

* :mod:`repro.analysis.partition_states` — the Fig. 4 theory: partition
  states PS1–PS6, machine-computed concurrency sets, Rules 1–2, and the
  paper's §2 impossibility argument, all derived by enumeration rather
  than transcribed.
* :mod:`repro.analysis.availability` — the paper's target metric: which
  data items are readable / writable in which partition, accounting for
  both factors of §1 (locks held by blocked transactions, and the
  voting partition-processing strategy).
* :mod:`repro.analysis.consistency` — the atomic-commitment verdict
  (no mixed commit/abort, no per-site conflicts, no illegal Fig. 6
  transitions, Lemma 1/2 conformance) and its trace-side oracle; runs
  take the verdict from the cluster's decision ledger.
"""

from repro.analysis.availability import AvailabilityReport, ItemAvailability
from repro.analysis.consistency import ConsistencyReport, check_atomicity
from repro.analysis.liveness import TerminationTimeline, termination_timeline
from repro.analysis.partition_states import (
    PartitionState,
    classify_partition,
    concurrency_sets,
    impossibility_argument,
    reachable_global_states,
)
from repro.analysis.transitions import TransitionAudit, audit_transitions, observed_transitions

__all__ = [
    "AvailabilityReport",
    "ConsistencyReport",
    "ItemAvailability",
    "PartitionState",
    "TerminationTimeline",
    "TransitionAudit",
    "audit_transitions",
    "check_atomicity",
    "classify_partition",
    "concurrency_sets",
    "impossibility_argument",
    "observed_transitions",
    "reachable_global_states",
    "termination_timeline",
]

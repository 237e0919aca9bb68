"""Per-layer span ledger for the traced benchmark run.

The ledger wraps the public entry points of each library layer from
outside the library: :func:`install_simulator` and :func:`install_engine`
replace class and module attributes with span-recording wrappers, and
:meth:`SpanLedger.uninstall` restores them.  Wrappers must go in before
the :class:`~repro.db.cluster.Cluster` is built, because the library
captures bound methods (fault-plan events, scheduled deliveries) as it
builds and runs.

A span records its layer, entry point, start, end, the span that was
open when it started (its parent) and the transaction id where the
call carries one.  A layer's self time is the sum over its spans of
duration minus the time covered by child spans, so the self times of
all layers add up to at most the traced wall time.

Every event the scheduler runs becomes a span of the layer whose module
defined the callback (``repro.traffic.open_loop`` → ``traffic``), unless
the callback is already a wrapped entry point.  The scheduler's own
self time is then queue work: pushing, popping and dispatching events.
"""

from __future__ import annotations

import inspect
import time
from array import array
from typing import Any, Callable, Iterable

#: library module prefix → layer name; the first match wins.
MODULE_LAYERS = (
    ("repro.sim.scheduler", "sim.scheduler"),
    ("repro.sim.trace", "sim.trace"),
    ("repro.sim.failures", "sim.failures"),
    ("repro.net", "net"),
    ("repro.protocols", "protocols"),
    ("repro.election", "protocols"),
    ("repro.storage", "storage"),
    ("repro.concurrency", "concurrency"),
    ("repro.db", "db"),
    ("repro.traffic", "traffic"),
    ("repro.workload", "workload"),
    ("repro.replication", "replication"),
    ("repro.engine", "engine"),
)

#: every layer a span can belong to; ``serializability`` is the 1SR
#: check, reported as ``concurrency.serializability_s`` beside the
#: lock manager's ``concurrency.locks_self_s``.
LAYERS = tuple(dict.fromkeys(layer for _, layer in MODULE_LAYERS)) + ("serializability", "other")


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _txn_arg(index: int) -> Callable[[tuple], str]:
    def txn_of(args: tuple) -> str:
        value = args[index] if len(args) > index else ""
        return value if isinstance(value, str) else ""

    return txn_of


def _msg_arg(index: int) -> Callable[[tuple], str]:
    def txn_of(args: tuple) -> str:
        return getattr(args[index], "txn", "") if len(args) > index else ""

    return txn_of


def _self_txn(args: tuple) -> str:
    return getattr(args[0], "txn", "")


class SpanLedger:
    """Spans in compact arrays, plus call counts per entry point."""

    def __init__(self) -> None:
        self.layer_names: list[str] = list(LAYERS)
        self._layer_ids = {name: i for i, name in enumerate(self.layer_names)}
        self.entry_names: list[str] = []
        self._entry_ids: dict[str, int] = {}
        self.layer = array("b")
        self.entry = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.txn: list[str] = []
        self.refusals = 0
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self.active = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def entry_id(self, name: str) -> int:
        entry = self._entry_ids.get(name)
        if entry is None:
            entry = self._entry_ids[name] = len(self.entry_names)
            self.entry_names.append(name)
        return entry

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        txn_of: Callable[[tuple], str] | None = None,
        count_false: bool = False,
    ) -> Callable:
        """``fn`` wrapped so each call records one span."""
        layer_id = self._layer_ids[layer]
        entry_id = self.entry_id(name)
        stack = self._stack
        layers, entries, parents = self.layer, self.entry, self.parent
        starts, ends, txns = self.start, self.end, self.txn
        clock = time.perf_counter
        ledger = self

        def span(*args: Any, **kwargs: Any) -> Any:
            if not ledger.active:
                return fn(*args, **kwargs)
            index = len(starts)
            layers.append(layer_id)
            entries.append(entry_id)
            parents.append(stack[-1] if stack else -1)
            txns.append(txn_of(args) if txn_of is not None else "")
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count_false and result is False:
                ledger.refusals += 1
            return result

        span.__perfbench_span__ = True  # type: ignore[attr-defined]
        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    def attribute(self, fn: Callable) -> Callable:
        """A scheduled callback wrapped as a span of its module's layer."""
        target = getattr(fn, "__func__", fn)
        if getattr(target, "__perfbench_span__", False):
            return fn
        module = getattr(target, "__module__", None) or ""
        name = getattr(target, "__qualname__", type(fn).__name__)
        return self.wrap(layer_of_module(module), f"event:{name}", fn)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        txn_of: Callable[[tuple], str] | None = None,
        count_false: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span wrapper (class or module)."""
        raw = inspect.getattr_static(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        if isinstance(raw, staticmethod):
            wrapped: Any = staticmethod(self.wrap(layer, name, raw.__func__, txn_of, count_false))
        else:
            wrapped = self.wrap(layer, name, raw, txn_of, count_false)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def patch_scheduling(self, owner: Any, attr: str, fn_index: int) -> None:
        """Wrap a scheduling call: a scheduler span whose callback
        argument (positional ``fn_index`` after ``self``) is attributed."""
        raw = inspect.getattr_static(owner, attr)
        attribute = self.attribute

        def schedule(sched: Any, *args: Any, **kwargs: Any) -> Any:
            # also while inactive: events armed during the build (fault
            # plans) run inside the traced drive
            args = args[:fn_index] + (attribute(args[fn_index]),) + args[fn_index + 1:]
            return raw(sched, *args, **kwargs)

        self._patched.append((owner, attr, raw))
        setattr(owner, attr, self.wrap("sim.scheduler", f"{owner.__name__}.{attr}", schedule))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        self.active = False
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus child-span time."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = [0.0] * len(self.layer_names)
        layer = self.layer
        for i in range(n):
            totals[layer[i]] += end[i] - start[i] - child[i]
        return dict(zip(self.layer_names, totals))

    def inclusive(self, names: Iterable[str]) -> float:
        """Wall time inside outermost spans of the named entry points."""
        wanted = {self._entry_ids[name] for name in names if name in self._entry_ids}
        parent, entry = self.parent, self.entry
        total = 0.0
        for i in range(len(self.start)):
            if entry[i] in wanted:
                p = parent[i]
                while p >= 0 and entry[p] not in wanted:
                    p = parent[p]
                if p < 0:
                    total += self.end[i] - self.start[i]
        return total

    def calls(self, names: Iterable[str]) -> int:
        """Number of spans of the named entry points."""
        wanted = {self._entry_ids[name] for name in names if name in self._entry_ids}
        return sum(1 for e in self.entry if e in wanted)

    def rows(self) -> Iterable[dict[str, Any]]:
        """Every span as a plain record, in start order."""
        for i in range(len(self.start)):
            yield {
                "id": i,
                "parent": self.parent[i],
                "layer": self.layer_names[self.layer[i]],
                "name": self.entry_names[self.entry[i]],
                "start": self.start[i],
                "end": self.end[i],
                "txn": self.txn[i],
            }


def install_simulator(ledger: SpanLedger) -> None:
    """Wrap every simulator layer's entry points (before the cluster is built)."""
    from repro.concurrency.locks import LockManager
    from repro.concurrency.serializability import ConflictGraph
    from repro.db.cluster import Cluster
    from repro.db.site import SiteHooks
    from repro.db.transactions import InteractiveTransaction
    from repro.net.network import Network
    from repro.net.node import Node
    from repro.protocols.base import CommitProtocolEngine
    from repro.replication.accessor import QuorumPlanner
    from repro.sim.scheduler import Scheduler
    from repro.sim.trace import Tracer
    from repro.storage.store import ReplicaStore
    from repro.storage.wal import WriteAheadLog
    from repro.traffic import engine as traffic_engine
    from repro.traffic import open_loop
    from repro.traffic.engine import TrafficEngine
    from repro.workload.spec import CompiledWorkload

    patch = ledger.patch
    patch(Scheduler, "run", "sim.scheduler")
    ledger.patch_scheduling(Scheduler, "call_at", 1)
    ledger.patch_scheduling(Scheduler, "call_fixed", 1)

    patch(Network, "send", "net", _msg_arg(1))
    patch(Network, "fanout", "net", _txn_arg(4))
    patch(Network, "_deliver_fast", "net", _msg_arg(2))
    patch(Network, "_deliver", "net", _msg_arg(1))
    for attr in ("reachable_from", "set_partition", "heal", "crash_site", "recover_site"):
        patch(Network, attr, "net")

    patch(Node, "deliver", "protocols", _msg_arg(1))
    patch(Node, "_guarded", "protocols")
    patch(CommitProtocolEngine, "begin_commit", "protocols", _txn_arg(1))
    patch(CommitProtocolEngine, "kick", "protocols")

    patch(WriteAheadLog, "force", "storage", _txn_arg(1))
    patch(WriteAheadLog, "flush", "storage")
    patch(WriteAheadLog, "for_txn", "storage", _txn_arg(1))
    patch(ReplicaStore, "read", "storage")
    patch(ReplicaStore, "write", "storage")

    patch(LockManager, "try_acquire", "concurrency", _txn_arg(1), count_false=True)
    patch(LockManager, "acquire", "concurrency", _txn_arg(1))
    patch(LockManager, "release_all", "concurrency", _txn_arg(1))
    patch(LockManager, "is_locked", "concurrency")
    patch(ConflictGraph, "__init__", "serializability")
    patch(ConflictGraph, "is_serializable", "serializability")

    patch(Tracer, "record", "sim.trace", _txn_arg(4))
    patch(Tracer, "record_send", "sim.trace", _txn_arg(3))
    patch(Tracer, "record_deliver", "sim.trace", _txn_arg(3))
    patch(Tracer, "record_drop", "sim.trace", _txn_arg(3))
    for attr in QUERY_ENTRIES:
        patch(Tracer, attr, "sim.trace")

    for attr in ("update", "transaction", "committed_history", "availability", "blocked_map",
                 "register_submitted", "record_footprint", "live_undecided"):
        patch(Cluster, attr, "db")
    patch(Cluster, "outcome", "db", _txn_arg(1))
    for attr in ("read", "write", "submit", "abort"):
        patch(InteractiveTransaction, attr, "db", _self_txn)
    for attr in ("vote", "apply_commit", "apply_abort"):
        patch(SiteHooks, attr, "db", _txn_arg(1))
    # the verdict tally: imported by name into the open-loop module too
    patch(traffic_engine, "tally_stream", "db")
    patch(open_loop, "tally_stream", "db")

    for attr in ("run_closed", "run_open", "submit_interactive", "_submit_op", "submit_direct"):
        patch(TrafficEngine, attr, "traffic")

    for attr in DRAW_ENTRIES + ("arrivals",):
        patch(CompiledWorkload, attr, "workload")

    for attr in ("plan_read", "plan_write", "resolve_read", "next_version"):
        patch(QuorumPlanner, attr, "replication")


def install_engine(ledger: SpanLedger) -> None:
    """Wrap the sweep engine's parent-side entry points.

    Only the parent is traced: pool workers are forked from it, so
    simulator wrappers would slow the cells and their spans would be
    lost with the worker.
    """
    import repro.engine
    from repro.engine.sink import JsonlSink

    patch = ledger.patch
    patch(repro.engine, "run_sweep", "engine")
    for attr in SINK_ENTRIES:
        patch(JsonlSink, attr, "engine")


QUERY_ENTRIES = ("where", "count", "decisions")
DRAW_ENTRIES = ("next_op", "next_gap", "next_update")
LOCK_ENTRIES = ("try_acquire", "acquire")
SINK_ENTRIES = ("open", "emit", "close")

"""Structured simulation trace — the flight recorder.

Every interesting action (message send/drop/delivery, state transition,
quorum evaluation, decision, crash, election) is appended to a
:class:`Tracer` as a :class:`TraceRecord`.  The trace is the debug
recorder and the tests' oracle, not the source of verdicts: a run's
outcomes, committed history and blocked sites come from the cluster's
:class:`~repro.protocols.ledger.DecisionLedger`, which the protocol
engines write at decision time, so a bounded, ring-buffered or empty
trace changes no verdict.  The tests re-derive each verdict from an
unbounded trace (:func:`~repro.analysis.consistency.check_atomicity`)
and compare, which keeps the ledger honest; message-sequence charts,
transition audits and termination timelines read the trace directly.

Hot-path notes: the tracer sits on every delivered message, so the
default store is **columnar** — parallel arrays for time / site /
category / txn plus a compact per-category detail encoding — instead
of a list of frozen dataclasses.  An append is five ``list.append``
calls and no object construction; :class:`TraceRecord` views are
materialized lazily (and memoized) only when somebody iterates or
filters.  Per-category and per-txn row indexes are built lazily on the
first query and extended incrementally, so :meth:`where` /
:meth:`count` / :meth:`decisions` / :meth:`message_counts` touch O(k)
matching rows instead of scanning all O(n).  ``columnar=False``
restores the legacy list-of-records store — kept for A/B measurement
by the ``trace_record`` bench case, whose committed baseline pins the
two stores producing byte-identical records and dumps.

``capacity`` bounds memory two ways: the default (truncate) mode drops
*new* records once full — exactly the legacy semantics — while
``ring=True`` keeps the *last* ``capacity`` records instead, evicting
the oldest; either way :attr:`dropped` counts what was discarded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped event in a run.

    Attributes:
        time: virtual time the event occurred.
        site: site id the event is attributed to (-1 for global events
            such as partition changes).
        category: machine-readable kind, e.g. ``"state"``, ``"send"``,
            ``"drop"``, ``"deliver"``, ``"decision"``, ``"election"``,
            ``"crash"``, ``"recover"``, ``"partition"``, ``"quorum"``.
        txn: transaction id the event concerns ("" when not txn-scoped).
        detail: free-form payload (kept to plain dict/str/num values so
            traces can be serialized).
    """

    time: float
    site: int
    category: str
    txn: str = ""
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = [f"t={self.time:8.2f}", f"site={self.site:>3}", self.category]
        if self.txn:
            parts.append(self.txn)
        if self.detail:
            parts.append(str(self.detail))
        return "  ".join(parts)


def _expand_detail(category: str, detail: Any) -> dict[str, Any]:
    """Materialize a compact detail column entry into the dict form.

    Compact entries are tuples whose layout is fixed per category (the
    key order matches the historical ``record(...)`` keyword order, so
    ``str(record)`` and :meth:`Tracer.dump` stay byte-identical to the
    legacy store):

    * ``send``    -> ``(mtype, dst)``
    * ``deliver`` -> ``(mtype, src)``
    * ``drop``    -> ``(mtype, dst, reason)``
    """
    if type(detail) is not tuple:
        return detail
    if category == "send":
        return {"mtype": detail[0], "dst": detail[1]}
    if category == "deliver":
        return {"mtype": detail[0], "src": detail[1]}
    if category == "drop":
        return {"mtype": detail[0], "dst": detail[1], "reason": detail[2]}
    raise AssertionError(f"compact detail under unexpected category {category!r}")


class Tracer:
    """Append-only trace with query helpers.

    The helpers cover the questions the analysis layer asks most:
    "all decision records for txn", "did site s ever enter state PC",
    "how many messages of type m were sent".

    Args:
        capacity: record budget (``None`` = unbounded, ``0`` = record
            nothing).
        columnar: use the columnar/slotted store (default).  ``False``
            keeps the legacy list-of-dataclasses store for A/B benching.
        ring: with a capacity, keep the *newest* ``capacity`` records
            (a flight recorder for long runs) instead of dropping new
            ones once full.  Requires the columnar store.
    """

    def __init__(
        self,
        capacity: int | None = None,
        columnar: bool = True,
        ring: bool = False,
    ) -> None:
        if ring and capacity is None:
            raise ValueError("ring mode requires a capacity")
        if ring and not columnar:
            raise ValueError("ring mode requires the columnar store")
        self._capacity = capacity
        self._columnar = columnar
        self._ring = ring
        self._dropped = 0
        # string-interning table for repeated txn / mtype / category
        # keys: drivers build ids like f"T{n}" per record, so without
        # canonicalization a long trace stores thousands of duplicate
        # string objects.  Values are equal either way — dumps and all
        # queries are byte-identical — this is purely a memory win.
        self._strings: dict[str, str] = {}
        if columnar:
            # parallel columns; one logical record = one row across all five
            self._times: list[float] = []
            self._sites: list[int] = []
            self._cats: list[str] = []
            self._txns: list[str] = []
            self._details: list[Any] = []
            self._memo: dict[int, TraceRecord] = {}  # row -> materialized view
            self._by_cat: dict[str, list[int]] = {}
            self._by_txn: dict[str, list[int]] = {}
            self._indexed_upto = 0
            self._next = 0  # ring write slot
            self._full = False  # ring wrapped at least once
        else:
            self._records: list[TraceRecord] = []

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------

    def record(
        self,
        time: float,
        site: int,
        category: str,
        txn: str = "",
        **detail: Any,
    ) -> None:
        """Append one record (past ``capacity``: drop it, or the oldest)."""
        if not self._columnar:
            if self._capacity is not None and len(self._records) >= self._capacity:
                self._dropped += 1
                return
            self._records.append(TraceRecord(time, site, category, txn, detail))
            return
        self._append(time, site, category, txn, detail)

    def record_send(self, time: float, site: int, txn: str, mtype: str, dst: int) -> None:
        """Fast-path append of a ``send`` record (no detail dict built)."""
        if self._columnar:
            self._append(time, site, "send", txn, (self._intern(mtype), dst))
        else:
            self.record(time, site, "send", txn, mtype=mtype, dst=dst)

    def record_deliver(self, time: float, site: int, txn: str, mtype: str, src: int) -> None:
        """Fast-path append of a ``deliver`` record."""
        if self._columnar:
            self._append(time, site, "deliver", txn, (self._intern(mtype), src))
        else:
            self.record(time, site, "deliver", txn, mtype=mtype, src=src)

    def record_drop(
        self, time: float, site: int, txn: str, mtype: str, dst: int, reason: str
    ) -> None:
        """Fast-path append of a ``drop`` record (with its reason)."""
        if self._columnar:
            self._append(time, site, "drop", txn, (self._intern(mtype), dst, reason))
        else:
            self.record(time, site, "drop", txn, mtype=mtype, dst=dst, reason=reason)

    def _intern(self, s: str) -> str:
        """The canonical instance of a repeated key string (see __init__)."""
        canonical = self._strings.get(s)
        if canonical is None:
            canonical = self._strings[s] = s
        return canonical

    def _append(self, time: float, site: int, category: str, txn: str, detail: Any) -> None:
        cap = self._capacity
        if cap is not None and len(self._times) >= cap:
            if not self._ring or cap == 0:
                self._dropped += 1
                return
            # ring eviction: overwrite the oldest slot in place
            slot = self._next
            self._times[slot] = time
            self._sites[slot] = site
            self._cats[slot] = category
            self._txns[slot] = txn
            self._details[slot] = detail
            self._next = (slot + 1) % cap
            self._full = True
            self._dropped += 1
            self._memo.clear()  # row numbering shifted; views are stale
            self._indexed_upto = -1  # force index rebuild on next query
            return
        self._times.append(time)
        self._sites.append(site)
        self._cats.append(category)
        self._txns.append(txn)
        self._details.append(detail)

    # ------------------------------------------------------------------
    # row plumbing (columnar store)
    # ------------------------------------------------------------------

    def _slot(self, row: int) -> int:
        """Physical slot of logical ``row`` (identity until a ring wraps)."""
        if self._full:
            return (self._next + row) % self._capacity  # type: ignore[operator]
        return row

    def _rec(self, row: int) -> TraceRecord:
        """The (memoized) materialized view of logical row ``row``."""
        rec = self._memo.get(row)
        if rec is None:
            slot = self._slot(row)
            cat = self._cats[slot]
            rec = TraceRecord(
                self._times[slot],
                self._sites[slot],
                cat,
                self._txns[slot],
                _expand_detail(cat, self._details[slot]),
            )
            self._memo[row] = rec
        return rec

    def _ensure_index(self) -> None:
        """Build / extend the per-category and per-txn row indexes.

        Index maintenance is *off* the append hot path: rows appended
        since the last query are folded in here, so a run that never
        queries never pays.  A wrapped ring rebuilds wholesale (bounded
        by ``capacity``).
        """
        n = len(self._times)
        upto = self._indexed_upto
        if upto == n:
            return
        if upto < 0 or self._full:  # ring wrapped: renumber everything
            self._by_cat = {}
            self._by_txn = {}
            upto = 0
        by_cat = self._by_cat
        by_txn = self._by_txn
        cats = self._cats
        txns = self._txns
        for row in range(upto, n):
            slot = self._slot(row)
            cat = cats[slot]
            rows = by_cat.get(cat)
            if rows is None:
                rows = by_cat[cat] = []
            rows.append(row)
            txn = txns[slot]
            rows = by_txn.get(txn)
            if rows is None:
                rows = by_txn[txn] = []
            rows.append(row)
        self._indexed_upto = n

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._times) if self._columnar else len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        if not self._columnar:
            return iter(self._records)
        return (self._rec(row) for row in range(len(self._times)))

    @property
    def records(self) -> list[TraceRecord]:
        """Materialized record list, in append order (do not mutate)."""
        if not self._columnar:
            return self._records
        return [self._rec(row) for row in range(len(self._times))]

    @property
    def dropped(self) -> int:
        """Records discarded: refused past capacity, or evicted (ring)."""
        return self._dropped

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def where(
        self,
        category: str | None = None,
        site: int | None = None,
        txn: str | None = None,
        pred: Callable[[TraceRecord], bool] | None = None,
    ) -> list[TraceRecord]:
        """Filter records by category / site / txn and an optional predicate."""
        if not self._columnar:
            out = []
            for rec in self._records:
                if category is not None and rec.category != category:
                    continue
                if site is not None and rec.site != site:
                    continue
                if txn is not None and rec.txn != txn:
                    continue
                if pred is not None and not pred(rec):
                    continue
                out.append(rec)
            return out
        rows = self._candidate_rows(category, txn)
        cats = self._cats
        sites = self._sites
        txns = self._txns
        out = []
        for row in rows:
            slot = self._slot(row)
            if category is not None and cats[slot] != category:
                continue
            if site is not None and sites[slot] != site:
                continue
            if txn is not None and txns[slot] != txn:
                continue
            rec = self._rec(row)
            if pred is not None and not pred(rec):
                continue
            out.append(rec)
        return out

    def _candidate_rows(self, category: str | None, txn: str | None) -> Iterable[int]:
        """The narrowest indexed row list covering the filters, in order."""
        if category is None and txn is None:
            return range(len(self._times))
        self._ensure_index()
        by_cat = self._by_cat.get(category) if category is not None else None
        by_txn = self._by_txn.get(txn) if txn is not None else None
        if category is not None and txn is not None:
            if by_cat is None or by_txn is None:
                return ()
            return by_cat if len(by_cat) <= len(by_txn) else by_txn
        if category is not None:
            return by_cat if by_cat is not None else ()
        return by_txn if by_txn is not None else ()

    def count(self, category: str, **kwargs: Any) -> int:
        """Count records matching :meth:`where` filters."""
        if self._columnar and not kwargs:
            self._ensure_index()
            return len(self._by_cat.get(category, ()))
        return len(self.where(category=category, **kwargs))

    def decisions(self, txn: str) -> dict[int, str]:
        """Map site -> final decision ("commit"/"abort") for a transaction.

        A site's final decision is its *last* decision record; decisions
        are irrevocable in all implemented protocols, and the consistency
        checker independently asserts that no site ever records two
        different decisions.
        """
        out: dict[int, str] = {}
        if self._columnar:
            cats = self._cats
            sites = self._sites
            details = self._details
            for row in self._candidate_rows("decision", txn):
                slot = self._slot(row)
                if cats[slot] == "decision" and self._txns[slot] == txn:
                    out[sites[slot]] = details[slot]["outcome"]
            return out
        for rec in self.where(category="decision", txn=txn):
            out[rec.site] = rec.detail["outcome"]
        return out

    def message_counts(self) -> dict[str, int]:
        """Histogram of sent message types (for the Fig. 1 / Fig. 2 benches)."""
        if self._columnar:
            self._ensure_index()
            details = self._details
            counts = Counter(
                det[0] if type(det := details[self._slot(row)]) is tuple else det.get("mtype", "?")
                for row in self._by_cat.get("send", ())
            )
        else:
            counts = Counter(
                rec.detail.get("mtype", "?") for rec in self.where(category="send")
            )
        return dict(counts)

    def txn_scope(self, txn: str) -> list[TraceRecord]:
        """Records of one transaction plus global ("" txn) events, in order.

        The slice a message-sequence chart renders; served by merging
        the two per-txn row indexes instead of scanning the full trace.
        """
        if not self._columnar:
            return [rec for rec in self._records if rec.txn in ("", txn)]
        self._ensure_index()
        rows = sorted(self._by_txn.get("", []) + self._by_txn.get(txn, [])) if txn else None
        if rows is None:
            rows = self._by_txn.get("", [])
        return [self._rec(row) for row in rows]

    def dump(self, records: Iterable[TraceRecord] | None = None) -> str:
        """Human-readable multi-line rendering (used by examples)."""
        return "\n".join(str(r) for r in (records if records is not None else self.records))

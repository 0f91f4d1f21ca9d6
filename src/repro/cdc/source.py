"""Server-side change streaming: the SUBSCRIBE opcode handler.

One :class:`ChangeStreamSource` lives inside a
:class:`~repro.server.server.DatabaseServer`, next to the replication
:class:`~repro.replication.source.ReplicationSource` whose request
parsing, long-poll, batch and cursor plumbing it shares.  A request
names a subscriber, a resume LSN, server-side filters, and an optional
long-poll window; the response carries a bounded batch of decoded
change events.

Three invariants distinguish a change stream from a raw WAL stream:

* **Committed only** — each batch scans its LSN range for commit state
  (the same pass recovery uses) and emits only OPERATION records of
  committed transactions, up to the last *quiescent* LSN (no
  transaction's records straddle it).  Uncommitted and aborted work is
  never visible to subscribers.
* **Exactly-once per cursor** — ``next_from`` always lands on a
  quiescent boundary, so a resumed subscriber can never observe half a
  transaction or see an operation twice.  A fresh subscriber with no
  resume point attaches at the current quiescent head (it tails new
  changes; it does not replay history unless it asks with
  ``from_lsn=1``).
* **Durable cursors** — every ack advances the subscriber's ``"cdc"``
  cursor in the database's durable WAL cursor registry (holding
  retention like a replica's), so a consumer that reconnects after a
  server restart resumes exactly where it acked.  A clean shutdown
  that restarts the LSN space (bumping ``wal_epoch``) discards the
  cursors, and such a subscriber re-attaches at the head — responses
  carry ``epoch`` so consumers can detect the reset.

Committed operations are decoded a run at a time — at most the batch's
``max_records`` per engine call (:class:`~repro.cdc.events.ImageReader`)
— so a poll reads and decodes only the versions its events select,
however long the touched atoms' histories are.

Filters (``types``, ``kinds``, ``roots``) drop events server-side;
filtered events still advance the cursor, so a narrow subscription
stays cheap without pinning the log.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.cdc.events import EVENT_KINDS, ImageReader, decode_operation
from repro.errors import ReplicationError
from repro.replication.source import (
    StreamAnswer,
    await_head,
    cursor_status,
    fill_batch,
    parse_stream_request,
)
from repro.txn.recovery import _scan_commit_state
from repro.txn.wal import LogRecordType


class ChangeStreamSource:
    """Serves decoded change-event batches over ``SUBSCRIBE``."""

    def __init__(self, db: Any) -> None:
        self._db = db
        self._wal = db._wal
        metrics = db.metrics
        self._c_requests = metrics.counter("cdc.stream_requests")
        self._c_waits = metrics.counter("cdc.stream_waits")
        self._c_scanned = metrics.counter("cdc.records_scanned")
        self._c_decoded = metrics.counter("cdc.events_decoded")
        self._c_filtered = metrics.counter("cdc.events_filtered")
        self._g_subscribers = metrics.gauge("cdc.subscribers")
        self._g_max_lag = metrics.gauge("cdc.max_ack_lag")
        self._refresh_gauges()

    def handle(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one SUBSCRIBE request as a dictionary."""
        return self.answer(payload).to_dict()

    def answer(self, payload: Dict[str, Any]) -> StreamAnswer:
        """Answer one SUBSCRIBE request; see ``docs/cdc.md`` for the
        payload shape."""
        self._c_requests.inc()
        request = parse_stream_request(payload, "SUBSCRIBE", "subscriber",
                                       default_from=None, name_required=True)
        subscriber = request.name
        if request.unsubscribe:
            self._db.release_cursor(subscriber)
            self._refresh_gauges()
            return StreamAnswer({"released": True,
                                 "subscriber": subscriber})
        types, kinds, roots = self._parse_filters(payload)

        if request.ack_lsn is not None:
            # Apply the request's ack *before* resolving the resume
            # point: a reconnecting consumer that reports its consumed
            # watermark but no explicit from_lsn must resume after that
            # watermark, not after the last stored one (which lags by
            # the batch the consumer processed while disconnected).
            self._db.ack_cursor(subscriber, "cdc", request.ack_lsn)
        from_lsn = request.from_lsn
        if from_lsn is None:
            cursor = self._wal.subscribers("cdc").get(subscriber)
            if cursor is not None:
                from_lsn = int(cursor["acked"]) + 1
            else:
                # Fresh subscriber: attach at the current quiescent
                # head so the first batch holds only *new* changes and
                # the cursor starts on a transaction boundary.
                head = self._wal.shippable_lsn
                _, quiescent, _ = _scan_commit_state(self._wal, 0, head)
                from_lsn = quiescent + 1
        if request.ack_lsn is None:
            self._db.ack_cursor(subscriber, "cdc", from_lsn - 1)

        head = await_head(self._wal, from_lsn, request.wait_ms,
                          self._c_waits)
        events: List[Dict[str, Any]] = []
        encoded: List[bytes] = []
        next_from = from_lsn
        bound = from_lsn - 1
        if head >= from_lsn:
            records = list(self._wal.read_records_from(from_lsn,
                                                       upto_lsn=head))
            self._c_scanned.inc(len(records))
            committed, bound, _ = _scan_commit_state(
                self._wal, from_lsn - 1, head, records)

            batch = [record for record in records if record.lsn <= bound]
            kept = 0
            # Images are read a run of operations per engine call, never
            # more operations than the batch still has room for events.
            reader = ImageReader(
                self._db.engine,
                [record.payload for record in batch
                 if record.type is LogRecordType.OPERATION
                 and record.txn_id in committed],
                lambda: request.max_records - kept)

            def step(record: Any) -> Optional[Dict[str, Any]]:
                nonlocal kept
                if (record.type is not LogRecordType.OPERATION
                        or record.txn_id not in committed):
                    return None
                event = decode_operation(self._db.engine, record.payload,
                                         reader)
                if event is None:
                    return None
                self._c_decoded.inc()
                if not self._admit(event, types, kinds, roots):
                    self._c_filtered.inc()
                    return None
                event["lsn"] = record.lsn
                event["txn_id"] = record.txn_id
                kept += 1
                return event

            with self._db._read_view():
                events, encoded, cursor = fill_batch(
                    batch, from_lsn, request.max_records, step)
            next_from = cursor + 1
        self._refresh_gauges()
        return StreamAnswer({"head": head, "bound": bound,
                             "next_from": next_from,
                             "caught_up": next_from > bound,
                             "epoch": self._db.wal_epoch},
                            "events", events, encoded)

    @staticmethod
    def _parse_filters(payload: Dict[str, Any]
                       ) -> tuple[Optional[Set[str]], Optional[Set[str]],
                                  Optional[Set[int]]]:
        types = payload.get("types")
        kinds = payload.get("kinds")
        roots = payload.get("roots")
        if kinds is not None:
            kinds = {str(kind) for kind in kinds}
            unknown = kinds - EVENT_KINDS
            if unknown:
                raise ReplicationError(
                    f"unknown event kinds: {', '.join(sorted(unknown))}")
        return (
            {str(name) for name in types} if types is not None else None,
            kinds,
            {int(root) for root in roots} if roots is not None else None,
        )

    @staticmethod
    def _admit(event: Dict[str, Any], types: Optional[Set[str]],
               kinds: Optional[Set[str]],
               roots: Optional[Set[int]]) -> bool:
        if kinds is not None and event["kind"] not in kinds:
            return False
        if types is not None and event["type"] not in types:
            return False
        if roots is not None:
            touched = {event["atom_id"], event["src"], event["dst"]}
            if not (roots & touched):
                return False
        return True

    def _refresh_gauges(self) -> None:
        subscribers = self._wal.subscribers("cdc")
        head = self._wal.shippable_lsn
        self._g_subscribers.set(len(subscribers))
        self._g_max_lag.set(max(
            (head - int(entry["acked"]) for entry in subscribers.values()),
            default=0))

    def status(self) -> Dict[str, Any]:
        """CDC block for STATS/state_snapshot: per-subscriber cursor,
        ack lag in records, and the log bytes the cursor pins."""
        head = self._wal.shippable_lsn
        return {
            "head": head,
            "epoch": self._db.wal_epoch,
            "subscribers": cursor_status(self._wal, "cdc", head),
            "events_decoded": int(self._c_decoded.value),
        }

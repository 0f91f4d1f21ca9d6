"""Primary-side WAL streaming: the server half of log shipping.

One :class:`ReplicationSource` lives inside a
:class:`~repro.server.server.DatabaseServer` and answers ``WAL_STREAM``
frames.  A request names the first LSN wanted, an optional long-poll
window, and (for subscribed replicas) the replica's identity plus its
durable replay watermark; the response carries a bounded batch of
records and the current shippable head.

Only *shippable* records leave the primary
(:attr:`~repro.txn.wal.WriteAheadLog.shippable_lsn`): with synchronous
durability that is the durable head, because a crash can cut the
non-durable tail and reassign its LSNs to different records — a replica
that applied the originals would silently diverge.

Subscribed replicas ack their durable watermark on every request into
the database's durable WAL cursor registry, and the WAL's retention
guard refuses to truncate while the slowest ack trails the head
(``wal.retention_held_bytes``).

The stream plumbing :mod:`repro.cdc.source` shares lives here too; a
change stream differs only in its per-record step (decode and filter
instead of ship).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.canonical import encode_payload, splice_payload
from repro.errors import ReplicationError

#: Long-poll ceiling per WAL_STREAM request (milliseconds).  Kept well
#: under a second so a parked stream never pins an ungated worker for
#: long — a caught-up replica simply re-polls.
MAX_STREAM_WAIT_MS = 500

#: Batch ceilings: records per response, and the canonical bytes of a
#: batch's items (well under the 8 MiB frame cap, leaving room for the
#: response's other members).
MAX_BATCH_RECORDS = 4096
DEFAULT_BATCH_RECORDS = 512
MAX_BATCH_BYTES = 2 * 1024 * 1024


@dataclass(frozen=True)
class StreamAnswer:
    """One ``WAL_STREAM`` / ``SUBSCRIBE`` response: its scalar members,
    and the batch under *key* — each item with the canonical bytes
    :func:`fill_batch` encoded it to once."""

    fields: Dict[str, Any]
    key: Optional[str] = None
    items: List[Any] = field(default_factory=list)
    encoded: List[bytes] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """The response as a dictionary, for in-process callers."""
        if self.key is None:
            return dict(self.fields)
        return {**self.fields, self.key: self.items}

    def encode(self) -> bytes:
        """The response payload: ``encode_payload(self.to_dict())``,
        with the batch's bytes spliced rather than encoded again."""
        if self.key is None:
            return encode_payload(self.fields)
        return splice_payload(self.fields, self.key, self.encoded)


@dataclass(frozen=True)
class StreamRequest:
    """One parsed and clamped ``WAL_STREAM`` / ``SUBSCRIBE`` request."""

    name: Optional[str]
    from_lsn: Optional[int]
    max_records: int
    wait_ms: int
    ack_lsn: Optional[int]
    unsubscribe: bool


def parse_stream_request(payload: Dict[str, Any], opcode: str,
                         name_key: str, default_from: Optional[int],
                         name_required: bool = False) -> StreamRequest:
    """Parse the cursor name (under *name_key*), ``from_lsn``,
    ``max_records``, ``wait_ms``, ``ack_lsn`` and ``unsubscribe``;
    clamp the batch size and the long-poll window.  Unsubscribing
    always needs the name."""
    name = payload.get(name_key)
    try:
        raw_from = payload.get("from_lsn", default_from)
        from_lsn = None if raw_from is None else int(raw_from)
        max_records = int(payload.get("max_records",
                                      DEFAULT_BATCH_RECORDS))
        wait_ms = int(payload.get("wait_ms", 0))
        ack = payload.get("ack_lsn")
        ack_lsn = None if ack is None else int(ack)
    except (TypeError, ValueError) as exc:
        raise ReplicationError(
            f"malformed {opcode} request: {exc}") from exc
    if from_lsn is not None and from_lsn < 1:
        raise ReplicationError(f"from_lsn must be >= 1, got {from_lsn}")
    unsubscribe = bool(payload.get("unsubscribe"))
    if name is None and (name_required or unsubscribe):
        raise ReplicationError(f"{opcode} requires a {name_key} name")
    return StreamRequest(
        name=None if name is None else str(name),
        from_lsn=from_lsn,
        max_records=max(1, min(max_records, MAX_BATCH_RECORDS)),
        wait_ms=max(0, min(wait_ms, MAX_STREAM_WAIT_MS)),
        ack_lsn=ack_lsn,
        unsubscribe=unsubscribe)


def await_head(wal: Any, from_lsn: int, wait_ms: int, waits: Any) -> int:
    """The shippable head, long-polling up to *wait_ms* (counted on
    *waits*) while it is below *from_lsn*."""
    head = wal.shippable_lsn
    if head < from_lsn and wait_ms:
        waits.inc()
        head = wal.wait_for_shippable(from_lsn, wait_ms / 1000.0)
    return head


def fill_batch(records: Iterable[Any], from_lsn: int, max_records: int,
               step: Callable[[Any], Optional[Any]]
               ) -> Tuple[List[Any], List[bytes], int]:
    """Keep what *step* returns for each record (``None`` skips it),
    encoded canonically once, until *max_records* items — or until the
    next item would take the batch's comma-joined bytes past
    ``MAX_BATCH_BYTES``; that record is left for the next batch unless
    it is the first.  Returns the items, their bytes, and the last LSN
    consumed (``from_lsn - 1`` when none was)."""
    items: List[Any] = []
    encoded: List[bytes] = []
    spent = -1  # the joined length: one comma fewer than items
    cursor = from_lsn - 1
    for record in records:
        item = step(record)
        if item is not None:
            data = encode_payload(item)
            spent += len(data) + 1
            if encoded and spent > MAX_BATCH_BYTES:
                break
            items.append(item)
            encoded.append(data)
        cursor = record.lsn
        if len(items) >= max_records:
            break
    return items, encoded, cursor


def cursor_status(wal: Any, kind: str, head: int) -> Dict[str, Any]:
    """Per-cursor status: acked LSN, lag in records behind *head*, the
    log bytes the cursor pins, and when it was last seen."""
    status = {}
    for name, entry in wal.subscribers(kind).items():
        acked = int(entry["acked"])
        status[name] = {"acked": acked, "lag": max(0, head - acked),
                        "held_bytes": wal.held_bytes(acked),
                        "last_seen": entry["last_seen"]}
    return status


class ReplicationSource:
    """Serves WAL record batches to replicas over ``WAL_STREAM``."""

    def __init__(self, db: Any) -> None:
        self._db = db
        self._wal = db._wal
        metrics = db.metrics
        self._c_requests = metrics.counter("replication.stream_requests")
        self._c_shipped = metrics.counter("replication.records_shipped")
        self._c_waits = metrics.counter("replication.stream_waits")

    def handle(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one WAL_STREAM request as a dictionary."""
        return self.answer(payload).to_dict()

    def answer(self, payload: Dict[str, Any]) -> StreamAnswer:
        """Answer one WAL_STREAM request; see ``docs/replication.md``
        for the payload shape."""
        self._c_requests.inc()
        request = parse_stream_request(payload, "WAL_STREAM", "replica",
                                       default_from=1)
        if request.unsubscribe:
            self._db.release_cursor(request.name)
            return StreamAnswer({"released": True, "replica": request.name})
        from_lsn = request.from_lsn
        if request.name is not None:
            acked = (from_lsn - 1 if request.ack_lsn is None
                     else request.ack_lsn)
            self._db.ack_cursor(request.name, "replica", acked)

        head = await_head(self._wal, from_lsn, request.wait_ms,
                          self._c_waits)
        records: List[Any] = []
        encoded: List[bytes] = []
        last = from_lsn - 1
        if head >= from_lsn:
            records, encoded, last = fill_batch(
                self._wal.read_records_from(from_lsn, upto_lsn=head),
                from_lsn, request.max_records,
                lambda record: [record.lsn, record.type.value,
                                record.txn_id, record.payload])
            self._c_shipped.inc(len(records))
        return StreamAnswer({"head": head, "caught_up": last >= head,
                             "next_from": last + 1,
                             "epoch": self._db.wal_epoch},
                            "records", records, encoded)

    def status(self) -> Dict[str, Any]:
        """Primary-side replication block for STATS/state_snapshot."""
        head = self._wal.shippable_lsn
        return {"role": "primary", "head": head,
                "epoch": self._db.wal_epoch,
                "subscribers": cursor_status(self._wal, "replica", head),
                "retained_bytes": self._db.metrics.gauge(
                    "wal.retention_held_bytes").value}

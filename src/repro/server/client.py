"""Blocking client: handshake, requests, transactions, retry, pooling.

:class:`DatabaseClient` is one TCP connection.  The protocol is strict
request/response, so a connection-level mutex serializes callers — for
parallel clients use one connection per thread or a
:class:`ClientPool`.

Retry policy: only errors the server flags ``transient`` (saturation,
queue timeout, deadlock, lock timeout) are retried, with capped
exponential backoff, and *never* while this client holds an open
transaction — a retried frame inside a transaction could double-apply a
mutation; the right unit of retry there is the whole transaction, which
belongs to the caller.

Trace propagation: unless ``trace_context=False``, every
request frame carries a fresh ``trace`` object (``trace_id`` plus the
client span's ``span_id``), so the server's spans, slow-query events,
and ERROR frames correlate with this client's requests.
:meth:`DatabaseClient.explain` goes further and *stitches*: the profile
it returns is rooted at a ``client.request`` span whose children are
the server's spans — one tree spanning both processes, linked by the
shared trace id.
"""

from __future__ import annotations

import socket
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    ConnectionClosedError,
    CursorStateError,
    HandshakeError,
    ProtocolError,
    RemoteError,
)
from repro.obs import new_span_id, new_trace_id
from repro.server.protocol import (
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    Opcode,
    decode_payload,
    encode_payload,
    read_frame,
    write_frame,
)

#: Retry schedule defaults: attempts beyond the first, base and cap of
#: the exponential backoff (seconds).
DEFAULT_MAX_RETRIES = 3
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 1.0


def _remote_error(body: Dict[str, Any]) -> RemoteError:
    """The error an ERROR frame's body describes.  The server echoes the
    request's trace id into it, so a failure is greppable in the
    server's slow-query and event logs."""
    error = RemoteError(body.get("error", "ReproError"),
                        body.get("message", ""),
                        transient=bool(body.get("transient")))
    error.trace_id = body.get("trace_id")
    return error


def _stream_payload(**fields: Any) -> Dict[str, Any]:
    """A ``WAL_STREAM``/``SUBSCRIBE`` payload without its unset (``None``)
    and false fields; the server parses and clamps the rest."""
    return {key: value for key, value in fields.items()
            if value is not None and value is not False}


class DatabaseClient:
    """One connection to a :class:`~repro.server.server.DatabaseServer`."""

    def __init__(self, host: str, port: int,
                 connect_timeout: float = 5.0,
                 request_timeout: Optional[float] = 30.0,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 trace_context: bool = True) -> None:
        self.host = host
        self.port = port
        self.trace_context = trace_context
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        # Reentrant: _roundtrip holds it across _send and _receive, which
        # a cursor also calls on their own.
        self._lock = threading.RLock()
        self._request_id = 0
        self._in_transaction = False
        self._closed = False
        #: Request id of a sent-but-unread frame.  Outside _roundtrip
        #: only a cursor prefetch (FETCH) stays unread; while set, any
        #: other request would desynchronize the strict request/response
        #: stream, so _send refuses it.
        self._unanswered: Optional[int] = None
        self._sock = socket.create_connection((host, port),
                                              timeout=connect_timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(request_timeout)
        self.session = self._handshake()

    # -- lifecycle -----------------------------------------------------------

    def _handshake(self) -> Dict[str, Any]:
        hello = {"magic": PROTOCOL_MAGIC, "protocol": PROTOCOL_VERSION,
                 "client": "repro-client"}
        try:
            return self._roundtrip(Opcode.HELLO, hello)
        except RemoteError as exc:
            self.close()
            raise HandshakeError(exc.remote_message) from exc

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                # Skip the graceful goodbye when a cursor prefetch is
                # still on the wire — the stream position is unknown,
                # and the server cleans up on disconnect regardless.
                if self._unanswered is None:
                    write_frame(self._sock, Opcode.CLOSE,
                                self._next_request_id(), b"{}")
                    read_frame(self._sock)
            except (OSError, ProtocolError, ConnectionClosedError):
                pass
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "DatabaseClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- request plumbing ----------------------------------------------------

    def _next_request_id(self) -> int:
        self._request_id = (self._request_id + 1) & 0xFFFFFFFF
        return self._request_id

    def _roundtrip(self, opcode: Opcode, payload: Dict[str, Any]) -> Any:
        """One request frame out, one response frame in.  Not retried."""
        with self._lock:
            return self._receive(self._send(opcode, payload))

    def _send(self, opcode: Opcode, payload: Dict[str, Any]) -> int:
        """Write one request frame without reading the response.

        The returned request id must be redeemed with :meth:`_receive`
        before anything else uses the connection; until then
        ``_unanswered`` makes every other request fail fast instead of
        desynchronizing the stream.
        """
        if (self.trace_context and opcode != Opcode.HELLO
                and "trace" not in payload):
            # Copy before stamping: callers (and the retry loop) reuse
            # their payload dicts, and each attempt is its own span.
            payload = dict(payload)
            payload["trace"] = {"trace_id": new_trace_id(),
                                "span_id": new_span_id()}
        with self._lock:
            if self._closed:
                raise ConnectionClosedError("client is closed")
            if self._unanswered is not None:
                raise CursorStateError(
                    "a streaming fetch is outstanding on this "
                    "connection; exhaust or close the cursor before "
                    "issuing other requests")
            request_id = self._next_request_id()
            try:
                write_frame(self._sock, opcode, request_id,
                            encode_payload(payload))
            except OSError as exc:
                self._abandon()
                raise ConnectionClosedError(str(exc)) from exc
            self._unanswered = request_id
            return request_id

    def _receive(self, request_id: int) -> Any:
        """Read the response to a request :meth:`_send` wrote; returns
        the RESULT body or raises the ERROR frame's :class:`RemoteError`."""
        with self._lock:
            if self._closed:
                raise ConnectionClosedError("client is closed")
            if self._unanswered != request_id:
                raise CursorStateError(
                    f"request {request_id} is not outstanding")
            self._unanswered = None
            try:
                frame = read_frame(self._sock)
            except socket.timeout as exc:
                # The response is lost; the stream position is unknown.
                self._abandon()
                raise ConnectionClosedError(
                    "timed out waiting for a response") from exc
            except (ConnectionClosedError, ProtocolError):
                # A bad length prefix or CRC desynchronizes the byte
                # stream for good.
                self._abandon()
                raise
            except OSError as exc:
                self._abandon()
                raise ConnectionClosedError(str(exc)) from exc
            if frame.request_id != request_id:
                self._abandon()
                if frame.opcode == Opcode.ERROR and frame.request_id == 0:
                    # Server-initiated error (connection refusal,
                    # framing failure): it answers no specific request,
                    # so it carries request id 0.  Surface the error
                    # itself; the server hangs up after sending it.
                    raise _remote_error(decode_payload(frame.payload))
                raise ProtocolError(
                    f"response for request {frame.request_id}, "
                    f"expected {request_id}")
        body = decode_payload(frame.payload)
        if frame.opcode == Opcode.ERROR:
            raise _remote_error(body)
        if frame.opcode != Opcode.RESULT:
            raise ProtocolError(f"unexpected response opcode "
                                f"{frame.opcode}")
        return body

    def _abandon(self) -> None:
        """Mark the connection unusable after a stream-level failure."""
        self._closed = True
        self._unanswered = None
        try:
            self._sock.close()
        except OSError:
            pass

    def _reset_transaction_state(self) -> None:
        """Ensure no server-side transaction survives on this connection.

        Called after a failed COMMIT and when a pooled connection comes
        back with a transaction still open.  If the server cannot
        confirm the transaction is gone, the connection is abandoned —
        the server rolls a session's transaction back on disconnect, so
        dropping the link is always a safe (if blunt) resolution.
        """
        if not self._in_transaction:
            return
        self._in_transaction = False
        if self._closed:
            return  # disconnect already rolls the transaction back
        try:
            self._roundtrip(Opcode.ROLLBACK, {})
        except RemoteError as exc:
            if exc.transient:
                # The server did not process the ROLLBACK; only
                # dropping the connection guarantees the txn dies.
                self._abandon()
            # Non-transient (e.g. "no open transaction") means the
            # server definitively has nothing left open.
        except (ConnectionClosedError, ProtocolError):
            pass  # _roundtrip already abandoned the connection
        except OSError:
            self._abandon()

    def _request(self, opcode: Opcode, payload: Dict[str, Any]) -> Any:
        """A round-trip with transient-error retry (outside txns only)."""
        attempt = 0
        while True:
            try:
                return self._roundtrip(opcode, payload)
            except RemoteError as exc:
                if not exc.transient or self._in_transaction:
                    raise
                if attempt >= self.max_retries:
                    raise
                delay = min(self.backoff_cap,
                            self.backoff_base * (2 ** attempt))
                attempt += 1
                time.sleep(delay)

    # -- public API ----------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self._request(Opcode.PING, {})

    def stats(self, events: int = 0) -> Dict[str, Any]:
        """Server state + metrics snapshot (``STATS`` opcode, ungated —
        it answers even while the server sheds gated work).  *events*
        > 0 appends the last that-many structured event-log entries."""
        payload: Dict[str, Any] = {}
        if events:
            payload["events"] = events
        return self._request(Opcode.STATS, payload)

    def query(self, text: str,
              params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Run MQL; returns the decoded result payload (see
        ``docs/server.md`` for its shape)."""
        payload: Dict[str, Any] = {"text": text}
        if params:
            payload["params"] = params
        return self._request(Opcode.QUERY, payload)

    def query_stream(self, text: str,
                     params: Optional[Dict[str, Any]] = None,
                     chunk_entries: int = 128) -> "ResultCursor":
        """Run MQL through a server-side streaming cursor.

        Returns a :class:`ResultCursor` that pulls the result in chunks
        of at most *chunk_entries* entries, so neither side ever
        materializes the whole result (or needs it to fit one wire
        frame).  Iterate the cursor for entry dicts, or use ``chunks()``
        for whole batches.
        """
        payload: Dict[str, Any] = {"text": text,
                                   "stream": {"chunk_entries":
                                              chunk_entries}}
        if params:
            payload["params"] = params
        body = self._request(Opcode.QUERY, payload)
        return ResultCursor(self, body["cursor"])

    def wal_stream(self, from_lsn: int, max_records: int = 512,
                   wait_ms: int = 0, replica: Optional[str] = None,
                   ack_lsn: Optional[int] = None,
                   unsubscribe: bool = False) -> Dict[str, Any]:
        """Fetch one batch of WAL records (``WAL_STREAM`` opcode).

        The replication plane: replicas long-poll this in a loop (see
        ``repro.replication.ReplicaApplier``).  *replica* subscribes the
        named replica for log retention and *ack_lsn* acks its durable
        replay watermark; *unsubscribe* instead deletes the replica's
        subscription, releasing its hold.  Not retried — the applier
        owns reconnects.
        """
        payload = _stream_payload(
            from_lsn=from_lsn, max_records=max_records,
            wait_ms=wait_ms, replica=replica, ack_lsn=ack_lsn,
            unsubscribe=unsubscribe)
        return self._roundtrip(Opcode.WAL_STREAM, payload)

    def change_stream(self, subscriber: str,
                      from_lsn: Optional[int] = None,
                      max_records: int = 512, wait_ms: int = 0,
                      types: Optional[List[str]] = None,
                      kinds: Optional[List[str]] = None,
                      roots: Optional[List[int]] = None,
                      ack_lsn: Optional[int] = None,
                      unsubscribe: bool = False) -> Dict[str, Any]:
        """Fetch one batch of decoded change events (``SUBSCRIBE``).

        The change-data-capture plane (see ``docs/cdc.md``): a named
        subscriber long-polls committed, typed change events; its ack
        watermark is persisted server-side, so a reconnect without
        *from_lsn* resumes exactly after the last acked event.  Not
        retried — :meth:`subscribe` owns the polling loop.
        """
        payload = _stream_payload(
            subscriber=subscriber, from_lsn=from_lsn,
            max_records=max_records, wait_ms=wait_ms,
            types=list(types) if types else None,
            kinds=list(kinds) if kinds else None,
            roots=list(roots) if roots else None,
            ack_lsn=ack_lsn, unsubscribe=unsubscribe)
        return self._roundtrip(Opcode.SUBSCRIBE, payload)

    def subscribe(self, subscriber: str,
                  types: Optional[List[str]] = None,
                  kinds: Optional[List[str]] = None,
                  roots: Optional[List[int]] = None,
                  from_lsn: Optional[int] = None,
                  batch_size: int = 512,
                  poll_ms: int = 500) -> "ChangeFeed":
        """A long-polling iterator over this server's change stream.

        Events are acked as they are *consumed*: each poll acks the last
        event the previous iteration step yielded, so a consumer that
        dies mid-batch resumes (from the server's persisted ack) at the
        first unconsumed event — no gaps, no duplicates.
        """
        return ChangeFeed(self, subscriber, types=types, kinds=kinds,
                          roots=roots, from_lsn=from_lsn,
                          batch_size=batch_size, poll_ms=poll_ms)

    def prepare(self, text: str) -> "PreparedStatement":
        body = self._request(Opcode.PREPARE, {"text": text})
        return PreparedStatement(self, text,
                                 parameterized=body.get("parameterized",
                                                        False))

    def execute(self, text: str,
                params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"text": text}
        if params:
            payload["params"] = params
        return self._request(Opcode.EXECUTE, payload)

    def explain(self, text: str,
                params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """EXPLAIN ANALYZE over the wire, stitched into one span tree.

        With trace context enabled, the returned profile is rooted at a
        ``client.request`` span (wall time as *this process* saw it —
        wire latency included) whose children are the server's spans;
        client and server spans share one ``trace_id``, and the
        server-side root parents onto the client span's id.  The gap
        between the client span's duration and the server root's is the
        protocol tax: serialization, the TCP hop, and scheduling.
        """
        payload: Dict[str, Any] = {"text": text}
        if params:
            payload["params"] = params
        if not self.trace_context:
            return self._request(Opcode.EXPLAIN, payload)
        trace_id, span_id = new_trace_id(), new_span_id()
        payload["trace"] = {"trace_id": trace_id, "span_id": span_id}
        started = time.perf_counter()
        body = self._request(Opcode.EXPLAIN, payload)
        duration_ms = (time.perf_counter() - started) * 1000.0
        profile = body.get("profile") if isinstance(body, dict) else None
        if isinstance(profile, dict):
            profile["spans"] = [{
                "name": "client.request",
                "attrs": {"opcode": "EXPLAIN",
                          "server": f"{self.host}:{self.port}"},
                "duration_ms": round(duration_ms, 3),
                "metrics": {},
                "children": profile.get("spans", []),
                "trace_id": trace_id,
                "span_id": span_id,
                "parent_span_id": None,
            }]
            profile["trace_id"] = trace_id
        return body

    def mutate(self, op: str, **args: Any) -> Dict[str, Any]:
        """Send one mutation (autocommitted unless a txn is open)."""
        return self._request(Opcode.MUTATE, {"op": op, "args": args})

    # -- transactions --------------------------------------------------------

    def begin(self) -> "ClientTransaction":
        body = self._roundtrip(Opcode.BEGIN, {})
        self._in_transaction = True
        return ClientTransaction(self, body["txn_id"])

    @contextmanager
    def transaction(self) -> Iterator["ClientTransaction"]:
        """Context-managed transaction: commit on exit, rollback on
        exception (mirroring ``TemporalDatabase.transaction``)."""
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            txn.rollback()
            raise
        else:
            txn.commit()


class ClientTransaction:
    """Handle for one server-side transaction on one connection."""

    def __init__(self, client: DatabaseClient, txn_id: int) -> None:
        self._client = client
        self.txn_id = txn_id
        self.active = True

    def _mutate(self, op: str, **args: Any) -> Dict[str, Any]:
        if not self.active:
            raise ConnectionClosedError("transaction already finished")
        return self._client._roundtrip(Opcode.MUTATE,
                                       {"op": op, "args": args})

    def insert(self, type_name: str, values: Dict[str, Any],
               valid_from: int, valid_to: Optional[int] = None,
               atom_id: Optional[int] = None) -> int:
        args: Dict[str, Any] = {"type": type_name, "values": values,
                                "valid_from": valid_from}
        if valid_to is not None:
            args["valid_to"] = valid_to
        if atom_id is not None:
            args["atom_id"] = atom_id
        return self._mutate("insert", **args)["atom_id"]

    def update(self, atom_id: int, changes: Dict[str, Any],
               valid_from: int, valid_to: Optional[int] = None) -> None:
        args: Dict[str, Any] = {"atom_id": atom_id, "changes": changes,
                                "valid_from": valid_from}
        if valid_to is not None:
            args["valid_to"] = valid_to
        self._mutate("update", **args)

    def delete(self, atom_id: int, valid_from: int,
               valid_to: Optional[int] = None) -> None:
        args: Dict[str, Any] = {"atom_id": atom_id,
                                "valid_from": valid_from}
        if valid_to is not None:
            args["valid_to"] = valid_to
        self._mutate("delete", **args)

    def correct(self, atom_id: int, window_start: int, window_end: int,
                changes: Dict[str, Any]) -> None:
        self._mutate("correct", atom_id=atom_id,
                     window_start=window_start, window_end=window_end,
                     changes=changes)

    def link(self, link_name: str, source_id: int, target_id: int,
             valid_from: int, valid_to: Optional[int] = None) -> None:
        args: Dict[str, Any] = {"link": link_name, "source_id": source_id,
                                "target_id": target_id,
                                "valid_from": valid_from}
        if valid_to is not None:
            args["valid_to"] = valid_to
        self._mutate("link", **args)

    def unlink(self, link_name: str, source_id: int, target_id: int,
               valid_from: int, valid_to: Optional[int] = None) -> None:
        args: Dict[str, Any] = {"link": link_name, "source_id": source_id,
                                "target_id": target_id,
                                "valid_from": valid_from}
        if valid_to is not None:
            args["valid_to"] = valid_to
        self._mutate("unlink", **args)

    def query(self, text: str,
              params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"text": text}
        if params:
            payload["params"] = params
        return self._client._roundtrip(Opcode.QUERY, payload)

    def commit(self) -> None:
        if not self.active:
            return
        try:
            self._client._roundtrip(Opcode.COMMIT, {})
        except RemoteError:
            # The COMMIT was refused (it bypasses admission control,
            # but e.g. a WAL failure is still possible) and the
            # server-side transaction may remain open — a later
            # "autocommit" mutation on this connection would silently
            # join it and be lost with it.  Resolve the transaction
            # before surfacing the failure.
            self.active = False
            self._client._reset_transaction_state()
            raise
        except BaseException:
            # Stream-level failure: _roundtrip abandoned the connection
            # and the server rolls the transaction back when the
            # session dies.  An interrupt mid-roundtrip leaves the
            # stream state unknown — abandon then, too.
            self.active = False
            self._client._in_transaction = False
            if not self._client._closed:
                self._client._abandon()
            raise
        self.active = False
        self._client._in_transaction = False

    def rollback(self) -> None:
        if not self.active:
            return
        try:
            self._client._roundtrip(Opcode.ROLLBACK, {})
        except (ConnectionClosedError, ProtocolError):
            pass  # connection abandoned; the server rolls back for us
        except RemoteError as exc:
            if exc.transient:
                # The server never processed the ROLLBACK; only a
                # disconnect guarantees the transaction dies.
                self._client._abandon()
            # Non-transient means the server handled the frame —
            # nothing is left open on the session.
        finally:
            self.active = False
            self._client._in_transaction = False


class ResultCursor:
    """Client handle for one server-side streaming cursor.

    Iterating yields entry dicts in the exact order the eager
    ``query()`` would return them.  The cursor fetches **one chunk
    ahead**: while the caller consumes chunk N, the FETCH for chunk
    N+1 is already on the wire, overlapping server-side evaluation
    with client-side processing.  While that fetch is outstanding,
    any other request on the same connection raises
    :class:`~repro.errors.CursorStateError` — use one connection per
    concurrent stream.

    The server closes the cursor automatically on exhaustion (the
    final ``done`` chunk) and on producer failure; :meth:`close` is
    only needed when abandoning a stream early, and is always safe to
    call.
    """

    def __init__(self, client: DatabaseClient,
                 meta: Dict[str, Any]) -> None:
        self._client = client
        self.cursor_id = int(meta["cursor_id"])
        self.plan = meta.get("plan")
        self.projected = bool(meta.get("projected"))
        self.chunk_entries = meta.get("chunk_entries")
        self.done = False
        self._closed = False
        self._pending: Optional[int] = None
        self._prefetch()

    def _prefetch(self) -> None:
        if not self.done and not self._closed and self._pending is None:
            self._pending = self._client._send(
                Opcode.FETCH, {"cursor_id": self.cursor_id})

    def _next_chunk(self) -> Optional[List[Dict[str, Any]]]:
        if self.done or self._closed:
            return None
        self._prefetch()
        request_id, self._pending = self._pending, None
        assert request_id is not None
        try:
            body = self._client._receive(request_id)
        except BaseException:
            # Any failure ends the stream: the server reclaims the
            # cursor on error and on disconnect.
            self.done = True
            self._closed = True
            raise
        if body.get("done"):
            self.done = True
            self._closed = True  # the server already dropped it
            return None
        self._prefetch()
        return body.get("entries", [])

    def chunks(self) -> Iterator[List[Dict[str, Any]]]:
        """Yield whole chunks (lists of entry dicts) until exhaustion."""
        while True:
            chunk = self._next_chunk()
            if chunk is None:
                return
            yield chunk

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        for chunk in self.chunks():
            yield from chunk

    def close(self) -> None:
        """Abandon the stream early and release the server-side cursor.

        Redeems any in-flight prefetch first so the connection is back
        in strict request/response sync and stays usable.
        """
        if self._closed and self._pending is None:
            return
        pending, self._pending = self._pending, None
        if pending is not None:
            try:
                if self._client._receive(pending).get("done"):
                    self.done = True
            except RemoteError:
                self.done = True  # cursor already dead server-side
            except (ConnectionClosedError, ProtocolError, OSError):
                self._closed = True
                self.done = True
                return
        self._closed = True
        if not self.done and not self._client._closed:
            try:
                self._client._roundtrip(Opcode.CLOSE_CURSOR,
                                        {"cursor_id": self.cursor_id})
            except (RemoteError, ConnectionClosedError, ProtocolError,
                    OSError):
                pass
        self.done = True

    def __enter__(self) -> "ResultCursor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ChangeFeed:
    """Iterator over a server-side change stream (``SUBSCRIBE``).

    Yields event dicts in commit (LSN) order, long-polling the server
    between batches.  Iteration is endless by design — a tail follows
    the log until the caller breaks out or calls :meth:`close`.  The
    feed acks lazily: the LSN of the last yielded event rides on the
    *next* request, so an event is only ever acked after the caller's
    loop body finished with it.

    ``close()`` flushes the final ack but keeps the subscription (and
    its WAL retention hold) alive for a later resume; ``cancel()``
    unsubscribes, releasing retention.
    """

    def __init__(self, client: DatabaseClient, subscriber: str,
                 types: Optional[List[str]] = None,
                 kinds: Optional[List[str]] = None,
                 roots: Optional[List[int]] = None,
                 from_lsn: Optional[int] = None,
                 batch_size: int = 512, poll_ms: int = 500) -> None:
        self._client = client
        self.subscriber = subscriber
        self._types = list(types) if types else None
        self._kinds = list(kinds) if kinds else None
        self._roots = list(roots) if roots else None
        self._next_from = from_lsn
        self._batch_size = batch_size
        self._poll_ms = poll_ms
        self._pending_ack: Optional[int] = None
        self._closed = False
        #: Stream position after the last poll (server's shippable head
        #: and whether this feed had consumed it all).
        self.head = 0
        self.caught_up = False

    def poll(self, wait_ms: Optional[int] = None) -> List[Dict[str, Any]]:
        """One SUBSCRIBE round-trip; returns the batch of events."""
        if self._closed:
            raise CursorStateError("change feed is closed")
        body = self._client.change_stream(
            self.subscriber, from_lsn=self._next_from,
            max_records=self._batch_size,
            wait_ms=self._poll_ms if wait_ms is None else wait_ms,
            types=self._types, kinds=self._kinds, roots=self._roots,
            ack_lsn=self._pending_ack)
        self._next_from = body["next_from"]
        self.head = body["head"]
        self.caught_up = body["caught_up"]
        return body["events"]

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        while not self._closed:
            for event in self.poll():
                # finally: the ack must also record when the consumer
                # breaks out of its loop (GeneratorExit lands at the
                # yield) — the event *was* delivered, and leaving it
                # unacked would replay it on the next resume.
                try:
                    yield event
                finally:
                    self._pending_ack = event["lsn"]

    def _flush_ack(self) -> None:
        if self._pending_ack is None:
            return
        self._client.change_stream(self.subscriber,
                                   from_lsn=self._pending_ack + 1,
                                   max_records=1, wait_ms=0,
                                   ack_lsn=self._pending_ack)
        self._pending_ack = None

    def close(self) -> None:
        """Flush the final ack; the server-side cursor stays resumable."""
        if self._closed:
            return
        self._closed = True
        try:
            self._flush_ack()
        except (ConnectionClosedError, ProtocolError, OSError):
            pass  # the persisted ack is only one batch behind

    def cancel(self) -> None:
        """Unsubscribe: drop the cursor and its WAL retention hold."""
        if not self._closed:
            self._closed = True
            try:
                self._flush_ack()
            except (ConnectionClosedError, ProtocolError, OSError):
                pass
        self._client.change_stream(self.subscriber, unsubscribe=True)

    def __enter__(self) -> "ChangeFeed":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class PreparedStatement:
    """A statement whose parse is primed in the server's plan cache."""

    def __init__(self, client: DatabaseClient, text: str,
                 parameterized: bool) -> None:
        self._client = client
        self.text = text
        self.parameterized = parameterized

    def execute(self, params: Optional[Dict[str, Any]] = None
                ) -> Dict[str, Any]:
        return self._client.execute(self.text, params)


class _ReplicaTarget:
    """One replica endpoint inside a routing :class:`ClientPool`.

    Carries its own sub-pool plus the routing state: the cached
    transaction-time watermark (monotone, so a stale value is merely
    conservative — never incorrect) and the quarantine clock.
    """

    def __init__(self, host: str, port: int, size: int,
                 health_check_idle: Optional[float],
                 client_kwargs: Dict[str, Any]) -> None:
        self.host = host
        self.port = port
        self.pool = ClientPool(host, port, size=size,
                               health_check_idle=health_check_idle,
                               **client_kwargs)
        self.watermark_tt = -1
        self.watermark_at = 0.0  # monotonic time of the last refresh
        self.failures = 0
        self.dead_until = 0.0

    def snapshot(self) -> Dict[str, Any]:
        now = time.monotonic()
        return {
            "endpoint": f"{self.host}:{self.port}",
            "watermark_tt": self.watermark_tt,
            "quarantined": self.dead_until > now,
            "failures": self.failures,
        }


#: Quarantine backoff for a dead replica: base doubles per consecutive
#: failure, capped (seconds).
_QUARANTINE_BASE = 0.5
_QUARANTINE_CAP = 30.0


class ClientPool:
    """Thread-safe pool of connections to one server.

    Connections are created lazily up to ``size`` and handed out
    exclusively; :meth:`acquire` blocks when all are lent.  A connection
    that died in use (``ConnectionClosedError`` marks it closed) is
    discarded instead of returned, so the pool self-heals.

    Connections idle past ``health_check_idle`` seconds are PING-probed
    before being lent again — a server restart, an idle-reap, or a
    half-dead NAT mapping otherwise surfaces as an error on the *next
    borrower's* first real request.  A probe that gets any server
    response (even an error frame) proves the connection; only
    stream-level failures discard it.  ``health_check_idle=None``
    disables probing.

    **Replica routing** (``replicas=["host:port", ...]``): queries whose
    belief time is pinned at or below a replica's replayed
    transaction-time watermark (``AS OF T`` with ``T <= watermark``)
    are served round-robin from the replicas; everything else —
    current-knowledge reads, writes, transactions, :meth:`acquire` —
    pins to the primary.  Watermarks are refreshed via the replica's
    PING response at most every ``replica_watermark_ttl`` seconds, and
    only when the cached value is too low for the query at hand (the
    watermark is monotone, so a stale cache can only under-route, never
    mis-route).  A replica that fails at the stream level is
    quarantined with exponential backoff and the query falls back to
    the next replica, then the primary — routing never turns a replica
    outage into an error.
    """

    def __init__(self, host: str, port: int, size: int = 4,
                 health_check_idle: Optional[float] = 30.0,
                 replicas: Optional[List[Any]] = None,
                 replica_pool_size: Optional[int] = None,
                 replica_watermark_ttl: float = 0.25,
                 **client_kwargs: Any) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.host = host
        self.port = port
        self.size = size
        self.health_check_idle = health_check_idle
        self._client_kwargs = client_kwargs
        self._lock = threading.Lock()
        self._available_cond = threading.Condition(self._lock)
        self._idle: List[Tuple[DatabaseClient, float]] = []
        self._created = 0
        self._closed = False
        self._watermark_ttl = replica_watermark_ttl
        self._rr = 0
        self._replicas: List[_ReplicaTarget] = []
        for endpoint in replicas or []:
            if isinstance(endpoint, str):
                replica_host, _, port_text = endpoint.rpartition(":")
                replica_port = int(port_text)
            else:
                replica_host, replica_port = endpoint
            self._replicas.append(_ReplicaTarget(
                replica_host, int(replica_port),
                replica_pool_size or size, health_check_idle,
                client_kwargs))

    def _connect(self) -> DatabaseClient:
        return DatabaseClient(self.host, self.port, **self._client_kwargs)

    @staticmethod
    def _probe(client: DatabaseClient) -> bool:
        """True if the connection still reaches a live server."""
        try:
            client.ping()
            return True
        except RemoteError:
            # The server answered — a shed or failed PING still proves
            # the connection works.
            return True
        except (ConnectionClosedError, ProtocolError, OSError):
            return False

    @contextmanager
    def acquire(self) -> Iterator[DatabaseClient]:
        client: Optional[DatabaseClient] = None
        while client is None:
            with self._available_cond:
                while True:
                    if self._closed:
                        raise ConnectionClosedError("pool is closed")
                    if self._idle:
                        candidate, returned_at = self._idle.pop()
                        break
                    if self._created < self.size:
                        self._created += 1
                        candidate = None  # create outside the lock
                        returned_at = 0.0
                        break
                    self._available_cond.wait()
            if candidate is None:
                try:
                    client = self._connect()
                except BaseException:
                    with self._available_cond:
                        self._created -= 1
                        self._available_cond.notify()
                    raise
                continue
            stale = (self.health_check_idle is not None
                     and time.monotonic() - returned_at
                     >= self.health_check_idle)
            if stale and not self._probe(candidate):
                candidate.close()
                with self._available_cond:
                    self._created -= 1
                    self._available_cond.notify()
                continue  # try the next idle/new connection
            client = candidate
        try:
            yield client
        finally:
            # A borrower that left a transaction open (begin() without
            # commit/rollback) must not hand it to the next borrower,
            # whose "autocommit" mutations would silently join it and
            # be rolled back with it.  Roll it back — or, when that
            # cannot be confirmed, discard the connection like a dead
            # one.
            if not client._closed and client._in_transaction:
                client._reset_transaction_state()
            dead = client._closed
            with self._available_cond:
                if dead or self._closed:
                    self._created -= 1
                else:
                    self._idle.append((client, time.monotonic()))
                self._available_cond.notify()
            if dead or self._closed:
                client.close()

    def query(self, text: str,
              params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        for target in self._eligible_replicas(text):
            try:
                with target.pool.acquire() as client:
                    body = client.query(text, params)
            except (ConnectionClosedError, ProtocolError, OSError):
                self._quarantine(target)
                continue
            target.failures = 0
            return body
        with self.acquire() as client:
            return client.query(text, params)

    # -- replica routing -----------------------------------------------------

    def _eligible_replicas(self, text: str) -> List[_ReplicaTarget]:
        """Replicas able to answer *text* exactly, in round-robin order."""
        if not self._replicas:
            return []
        from repro.replication.router import routing_bound
        bound = routing_bound(text)
        if bound is None:
            return []
        with self._lock:
            start = self._rr
            self._rr += 1
        count = len(self._replicas)
        now = time.monotonic()
        eligible = []
        for index in range(count):
            target = self._replicas[(start + index) % count]
            if target.dead_until > now:
                continue
            if (target.watermark_tt < bound
                    and now - target.watermark_at >= self._watermark_ttl):
                self._refresh_watermark(target, now)
                if target.dead_until > now:
                    continue
            if target.watermark_tt >= bound:
                eligible.append(target)
        return eligible

    def _refresh_watermark(self, target: _ReplicaTarget,
                           now: float) -> None:
        try:
            with target.pool.acquire() as client:
                body = client.ping()
        except (ConnectionClosedError, ProtocolError, OSError,
                RemoteError):
            self._quarantine(target)
            return
        target.watermark_at = now
        replication = body.get("replication") or {}
        watermark = replication.get("replayed_tt")
        if isinstance(watermark, int):
            target.watermark_tt = max(target.watermark_tt, watermark)
        target.failures = 0

    @staticmethod
    def _quarantine(target: _ReplicaTarget) -> None:
        target.failures += 1
        backoff = min(_QUARANTINE_CAP,
                      _QUARANTINE_BASE * (2 ** (target.failures - 1)))
        target.dead_until = time.monotonic() + backoff

    def replica_status(self) -> List[Dict[str, Any]]:
        """Routing state of every configured replica (for monitoring
        and tests)."""
        return [target.snapshot() for target in self._replicas]

    def close(self) -> None:
        with self._available_cond:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            self._created -= len(idle)
            self._available_cond.notify_all()
        for client, _ in idle:
            client.close()
        for target in self._replicas:
            target.pool.close()

    def __enter__(self) -> "ClientPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

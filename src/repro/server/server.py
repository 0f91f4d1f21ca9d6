"""Event-loop TCP server in front of one embedded TemporalDatabase.

One non-blocking I/O loop (``selectors``, epoll where available)
multiplexes *all* connections: it accepts sockets, reassembles
length-prefixed frames incrementally, answers handshakes inline, and
hands complete requests to a small bounded worker pool so kernel work
never blocks the loop.  Per-connection cost while idle is one
registered file descriptor plus a few KB of buffers — thousands of
idle sessions are cheap, where the previous thread-per-connection
design paid a stack per socket.

Each connection is a *session*:

* a monotonically increasing session id,
* at most one open transaction (BEGIN … COMMIT/ROLLBACK frames map
  straight onto the kernel's transaction manager; MUTATE frames outside
  a transaction auto-commit),
* at most one request in flight at a time — frames a client pipelines
  beyond that wait in a bounded per-session backlog (the loop stops
  reading the socket past the cap, so TCP backpressure reaches the
  client),
* any number (bounded) of open streaming cursors,
* a last-activity clock the idle reaper checks.

Admission control generalizes from threads-in-flight to
queued-requests-per-loop: the loop takes an execution slot with
``try_acquire`` and submits to the pool, or *parks the request as
data* (frame + deadline) when slots are busy — no thread waits.  A
freed slot wakes the loop through ``on_release``; a parked request
past its deadline gets a transient ERROR.  The queue bound and shed
behaviour are unchanged from the threaded server.

Streaming cursors: a QUERY whose payload carries a
``stream`` object opens a server-side cursor over the chunked
execution path (:mod:`repro.mql.stream`) and answers with a handle;
each FETCH materializes exactly one chunk of entries — the server
never holds more than one chunk per cursor — and CLOSE_CURSOR or
session death reclaims it.  Results too large for one frame on the
eager path fail with a structured ``ResultTooLargeError`` pointing at
cursors instead of a raw frame-cap protocol error.

Graceful shutdown stops accepting, sheds parked requests, lets
executing requests finish and their responses flush, rolls back
whatever transactions remained open, and checkpoints the database so a
subsequent open needs no recovery.

Observability: requests carrying a ``trace`` object are
served under the client's trace context — the server's spans,
slow-query events, and ERROR frames all carry the client's
``trace_id``.  Handshakes are timed into their own
``server.handshake_seconds`` histogram so ``server.request_seconds``
measures steady-state requests only.  Lifecycle transitions (session
open/close, shed, reap, drain, checkpoint) land in a shared
:class:`~repro.obs.events.EventLog`; the ``STATS`` opcode and the
optional HTTP sidecar (``/metrics``, ``/health``, ``/stats``) expose
the same state to clients, scrapers, and load balancers.
"""

from __future__ import annotations

import collections
import queue
import selectors
import socket
import threading
import time
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import (
    CursorStateError,
    HandshakeError,
    ProtocolError,
    ReadOnlyReplicaError,
    ReproError,
    RequestTimeoutError,
    ResultTooLargeError,
    ServerSaturatedError,
    TransactionStateError,
)
from repro.errors import TRANSIENT_ERRORS
from repro.obs import QueryProfile, new_trace_id
from repro.cdc.source import ChangeStreamSource
from repro.replication.source import ReplicationSource
from repro.server.admission import LATENCY_BOUNDS, AdmissionController
from repro.server.http_sidecar import MetricsSidecar
from repro.temporal import FOREVER
from repro.server.protocol import (
    PROTOCOL_MAGIC,
    SUPPORTED_PROTOCOL_VERSIONS,
    Frame,
    FrameAssembler,
    Opcode,
    encode_fetch,
    encode_frame,
    encode_payload,
    encode_result,
    error_payload,
    extract_trace_context,
    result_to_payload,
    write_frame,
)

#: How often (seconds) the loop sweeps for idle sessions.
REAPER_INTERVAL = 1.0

#: How long (seconds) a shutdown-path close waits for the session's
#: in-flight request before leaving its transaction to the worker's own
#: cleanup.
CLOSE_INTERLOCK_TIMEOUT = 5.0

#: Parsed-but-undispatched frames one session may accumulate before the
#: loop stops reading its socket.  Bounds the memory a pipelining
#: client can pin; TCP backpressure does the rest.
MAX_SESSION_BACKLOG = 32

#: Open streaming cursors one session may hold.
MAX_CURSORS_PER_SESSION = 8

#: Entry cap a client may request per cursor chunk.
MAX_CHUNK_ENTRIES = 65536

#: Bytes read per socket-readable event.
_RECV_CHUNK = 256 * 1024

#: Frames that bypass admission gating, for two distinct reasons.
#: COMMIT/ROLLBACK/CLOSE/CLOSE_CURSOR release resources (locks, undo
#: state, cursors, the session itself) rather than consume them:
#: shedding one would strand server-side state the client believes
#: finished.  STATS is the monitoring plane: an operator diagnosing a
#: saturated server needs it to answer precisely when gated requests
#: are being refused.  WAL_STREAM is the replication plane: shedding it
#: under load would stall replicas exactly when read scale-out matters,
#: and its long-poll window is capped (MAX_STREAM_WAIT_MS) so a parked
#: stream never pins a worker for long.  SUBSCRIBE is the change-data-
#: capture plane and shares WAL_STREAM's rationale: its long-poll is
#: capped by the same window, and shedding it would let subscriber acks
#: stall, pinning WAL retention at the worst moment.
_UNGATED_OPCODES = frozenset(
    (int(Opcode.COMMIT), int(Opcode.ROLLBACK), int(Opcode.CLOSE),
     int(Opcode.STATS), int(Opcode.CLOSE_CURSOR),
     int(Opcode.WAL_STREAM), int(Opcode.SUBSCRIBE)))

#: Worker threads beyond ``max_inflight``: headroom so ungated frames
#: (COMMIT/ROLLBACK/CLOSE/STATS) never wait behind gated work.
_UNGATED_WORKER_HEADROOM = 2

#: Additional headroom for replica WAL_STREAM long-polls, so a fleet of
#: caught-up replicas parked in their poll window cannot starve COMMIT
#: frames of workers.
_REPLICATION_WORKER_HEADROOM = 2

#: Accepted-but-unadmitted connections held while the server is at its
#: connection cap (see ``_process_overflow``); beyond this a connect
#: flood is refused immediately.
_OVERFLOW_LIMIT = 128


def _opcode_name(opcode: int) -> str:
    return (Opcode(opcode).name if opcode in Opcode._value2member_map_
            else f"op#{opcode}")


class _WorkerPool:
    """A fixed set of daemon threads draining one job queue.

    ``concurrent.futures`` is avoided deliberately: its threads are
    non-daemon since 3.9, so one request stuck in the kernel would hang
    interpreter exit; these daemon threads let shutdown proceed past a
    straggler exactly as the old thread-per-connection workers did.
    """

    def __init__(self, size: int, on_error: Callable[[BaseException], None],
                 name: str = "repro-server-worker") -> None:
        self.size = size
        self._on_error = on_error
        self._jobs: "queue.SimpleQueue[Optional[Callable[[], None]]]" = (
            queue.SimpleQueue())
        self._threads = []
        for index in range(size):
            thread = threading.Thread(target=self._run,
                                      name=f"{name}-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def submit(self, job: Callable[[], None]) -> None:
        self._jobs.put(job)

    def _run(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            try:
                job()
            except Exception as exc:  # noqa: BLE001 - a job bug must not
                # kill the worker; jobs catch their own errors, so this
                # is strictly a last line of defence.
                self._on_error(exc)

    def stop(self, timeout: float = 2.0) -> None:
        for _ in self._threads:
            self._jobs.put(None)
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))


class ServerCursor:
    """One open streaming cursor: a chunk iterator plus its metadata."""

    __slots__ = ("id", "chunks", "projected", "plan", "chunk_entries")

    def __init__(self, cursor_id: int, stream) -> None:
        self.id = cursor_id
        self.chunks = stream.chunks()
        self.projected = stream.projected
        self.plan = stream.plan
        self.chunk_entries = stream.chunk_entries


class Session:
    """Per-connection state: socket, buffers, transaction, cursors."""

    def __init__(self, session_id: int, conn: socket.socket,
                 peer: str) -> None:
        self.id = session_id
        self.conn = conn
        self.peer = peer
        self.txn = None  # TransactionContext while a txn is open
        self.last_active = time.monotonic()
        self.closing = False
        # Held around request dispatch so a shutdown-path abort of
        # self.txn cannot run concurrently with a request using it.
        self.lock = threading.Lock()
        # True from admission of a request until its response is queued
        # (parked *or* executing); the idle reaper must not judge a
        # long-running request as an idle session.
        self.inflight = False
        # True only while a worker thread is running the request; the
        # loop defers closing an executing session to the worker's
        # completion callback.
        self.executing = False
        # -- event-loop state (loop thread only) --
        self.handshaken = False
        self.accepted_at = time.monotonic()
        self.assembler = FrameAssembler()
        self.outbuf = bytearray()
        self.backlog: Deque[Frame] = collections.deque()
        self.paused_read = False
        self.close_after_flush = False
        self.sel_events = 0  # selector interest currently registered
        # True while this session occupies a connection-capacity slot;
        # cleared exactly once (under the server's sessions lock) the
        # moment the session starts dying, so half-dead sessions never
        # starve fresh connections.
        self.counted = False
        # -- streaming cursors (guarded by self.lock) --
        self.cursors: Dict[int, ServerCursor] = {}
        self.next_cursor_id = 0

    def touch(self) -> None:
        self.last_active = time.monotonic()


class DatabaseServer:
    """Serve one TemporalDatabase over TCP.

    ``port=0`` binds an ephemeral port (read it back from ``.port``
    after construction) — the form every test uses.
    """

    def __init__(self, db, host: str = "127.0.0.1", port: int = 0,
                 max_connections: int = 32,
                 idle_timeout: Optional[float] = 300.0,
                 admission: Optional[AdmissionController] = None,
                 metrics_port: Optional[int] = None,
                 metrics_host: str = "127.0.0.1",
                 worker_threads: Optional[int] = None,
                 replication: Optional[Any] = None) -> None:
        self.db = db
        self.max_connections = max_connections
        self.idle_timeout = idle_timeout
        #: The ReplicaApplier when this server fronts a read-only
        #: replica, else None (primary / standalone).  Writes are
        #: rejected with ReadOnlyReplicaError while set.
        self.replication = replication
        #: Every server can feed downstream replicas (chains included).
        self.wal_source = ReplicationSource(db)
        #: Change-data-capture: decoded committed events over SUBSCRIBE.
        self.cdc_source = ChangeStreamSource(db)
        self.admission = admission or AdmissionController(
            metrics=db.metrics)
        #: Shared structured event log (owned by the admission
        #: controller so shed/slow-query events and lifecycle events
        #: interleave in one ring).
        self.events = self.admission.events
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1024)
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()[:2]
        self._sessions: Dict[int, Session] = {}
        self._sessions_lock = threading.Lock()
        #: Sessions holding a capacity slot (``Session.counted``);
        #: decremented the moment a session starts dying — before its
        #: worker-side close completes — so capacity frees instantly.
        self._live = 0
        #: Accepted connections awaiting a capacity slot:
        #: [conn, peer, seen-one-iteration].  A full server defers the
        #: refusal by one loop iteration so hangups already sitting in
        #: the selector batch can free their slots first.
        self._overflow: Deque[List[Any]] = collections.deque()
        self._next_session = 0
        self._stopping = threading.Event()
        self._loop_thread: Optional[threading.Thread] = None
        self._started_monotonic = time.monotonic()
        self._started_at = time.time()
        #: True from the first moment of graceful shutdown until the
        #: process exits; ``/health`` keys off it.
        self.draining = False
        self._drain_deadline = float("inf")
        self._drain_started = False
        # Event loop plumbing.  The selector and waker exist from
        # construction so shutdown() is safe on a never-started server.
        self._selector = selectors.DefaultSelector()
        self._waker_r, self._waker_w = socket.socketpair()
        self._waker_r.setblocking(False)
        self._waker_w.setblocking(False)
        self._loop_calls: Deque[Callable[[], None]] = collections.deque()
        self._loop_calls_lock = threading.Lock()
        #: Requests parked for an execution slot, FIFO:
        #: (session, frame, deadline, opcode_name, trace_id).
        self._parked: Deque[Tuple[Session, Frame, Optional[float],
                                  str, Optional[str]]] = collections.deque()
        self._last_reap = time.monotonic()
        if worker_threads is None:
            worker_threads = (self.admission.max_inflight
                              + _UNGATED_WORKER_HEADROOM
                              + _REPLICATION_WORKER_HEADROOM)
        self._pool = _WorkerPool(max(1, worker_threads), self._on_job_error)
        self.admission.on_release = self._on_slot_freed
        # Cursor accounting (sessions own their cursors; this is the
        # server-wide gauge).
        self._cursor_lock = threading.Lock()
        self._cursors_open = 0
        # Bind the sidecar in the constructor (port=0 callers read the
        # assigned port back before start()); its threads spin up in
        # start() and die after drain completes in shutdown().
        self.sidecar: Optional[MetricsSidecar] = None
        if metrics_port is not None:
            self.sidecar = MetricsSidecar(self, host=metrics_host,
                                          port=metrics_port)
        metrics = db.metrics
        self._g_connections = metrics.gauge("server.connections.active")
        self._c_accepted = metrics.counter("server.connections.accepted")
        self._c_refused = metrics.counter("server.connections.refused")
        self._c_reaped = metrics.counter("server.connections.reaped")
        self._g_cursors = metrics.gauge("server.cursors.open")
        self._h_handshake = metrics.histogram("server.handshake_seconds",
                                              LATENCY_BOUNDS)
        self._c_loop_errors = metrics.counter("server.loop.errors")

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "DatabaseServer":
        self._selector.register(self._listener, selectors.EVENT_READ,
                                None)
        self._selector.register(self._waker_r, selectors.EVENT_READ,
                                self._waker_r)
        self._loop_thread = threading.Thread(
            target=self._loop_main, name="repro-server-loop", daemon=True)
        self._loop_thread.start()
        if self.sidecar is not None:
            self.sidecar.start()
        self.events.emit("server.start", host=self.host, port=self.port,
                         metrics_port=(self.sidecar.port
                                       if self.sidecar else None))
        return self

    def __enter__(self) -> "DatabaseServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    def shutdown(self, drain_timeout: float = 10.0) -> None:
        """Graceful stop: drain in-flight work, then checkpoint.

        Idempotent.  New connections are refused immediately; parked
        requests are shed; executing requests get ``drain_timeout``
        seconds to finish and flush their responses, after which their
        sockets are closed under them.  Open transactions roll back
        (the client never got a COMMIT acknowledgement, so nothing is
        lost), and the database checkpoints so the next open replays no
        WAL.
        """
        if self._stopping.is_set():
            return
        self.draining = True  # /health flips 503 before the drain begins
        self._drain_deadline = time.monotonic() + drain_timeout
        self._stopping.set()
        self.events.emit("server.drain.begin",
                         sessions=len(self._sessions))
        if self._loop_thread is not None and self._loop_thread.is_alive():
            self._wake()
            self._loop_thread.join(drain_timeout + 2.0)
        else:
            # Never started: no loop to close the listener for us.
            try:
                self._listener.close()
            except OSError:
                pass
        # The loop is gone; close whatever it could not drain.  Workers
        # may still be unwinding — _close_session interlocks on the
        # session lock before touching their transactions.
        with self._sessions_lock:
            leftovers = list(self._sessions.values())
        for session in leftovers:
            self._close_session(session)
        self._pool.stop(timeout=2.0)
        for sock in (self._waker_r, self._waker_w):
            try:
                sock.close()
            except OSError:
                pass
        try:
            self._selector.close()
        except (OSError, RuntimeError):
            pass
        self.db.checkpoint()
        self.events.emit("server.checkpoint")
        self.events.emit("server.stop")
        # The sidecar outlives the drain so /health can answer 503
        # while it happens; only now does it go away.
        if self.sidecar is not None:
            self.sidecar.stop()

    # -- event loop ----------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._waker_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # pipe full (a wakeup is already pending) or closed

    def _call_on_loop(self, fn: Callable[[], None]) -> None:
        """Run *fn* on the loop thread at its next iteration."""
        with self._loop_calls_lock:
            self._loop_calls.append(fn)
        self._wake()

    def _on_slot_freed(self) -> None:
        # Called by the admission controller from whichever thread
        # released a slot; parked requests dispatch on the loop.
        if self._parked:
            self._call_on_loop(self._dispatch_parked)

    def _on_job_error(self, exc: BaseException) -> None:
        self._c_loop_errors.inc()
        self.events.emit("server.worker.error", error=type(exc).__name__,
                         message=str(exc))

    def _loop_timeout(self) -> float:
        if self._stopping.is_set():
            return 0.02
        timeout = min(REAPER_INTERVAL, 1.0)
        if self._overflow:
            timeout = min(timeout, 0.01)
        if self._parked:
            deadline = self._parked[0][2]
            if deadline is not None:
                timeout = min(timeout, deadline - time.monotonic())
        return max(timeout, 0.005)

    def _loop_main(self) -> None:
        while True:
            try:
                ready = self._selector.select(self._loop_timeout())
            except OSError:
                ready = []
            try:
                for key, mask in ready:
                    data = key.data
                    if data is None:
                        self._on_accept()
                    elif data is self._waker_r:
                        self._drain_waker()
                    else:
                        self._on_session_event(data, mask)
                self._run_loop_calls()
                now = time.monotonic()
                self._expire_parked(now)
                if self._stopping.is_set():
                    if not self._drain_started:
                        self._begin_drain()
                    with self._sessions_lock:
                        drained = not self._sessions
                    if drained or now >= self._drain_deadline:
                        return
                else:
                    self._process_overflow()
                    self._reap_idle(now)
            except Exception as exc:  # noqa: BLE001 - one bad iteration
                # must not silently kill the only I/O thread; count it,
                # log it, keep serving.
                self._c_loop_errors.inc()
                self.events.emit("server.loop.error",
                                 error=type(exc).__name__,
                                 message=str(exc))

    def _drain_waker(self) -> None:
        while True:
            try:
                if not self._waker_r.recv(4096):
                    return
            except (BlockingIOError, OSError):
                return

    def _run_loop_calls(self) -> None:
        while True:
            with self._loop_calls_lock:
                if not self._loop_calls:
                    return
                fn = self._loop_calls.popleft()
            fn()

    # -- accept / selector plumbing ------------------------------------------

    def _on_accept(self) -> None:
        while True:
            try:
                conn, addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            peer = f"{addr[0]}:{addr[1]}"
            with self._sessions_lock:
                at_capacity = self._live >= self.max_connections
            if at_capacity:
                # Don't refuse yet: hangups sitting in this very
                # selector batch may free slots before the next
                # iteration ends.  _process_overflow() admits or
                # refuses once those events have been seen.
                if len(self._overflow) >= _OVERFLOW_LIMIT:
                    self._refuse(conn, peer)
                else:
                    self._overflow.append([conn, peer, False])
                continue
            self._admit(conn, peer)

    def _admit(self, conn: socket.socket, peer: str) -> None:
        conn.setblocking(False)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._sessions_lock:
            self._next_session += 1
            session = Session(self._next_session, conn, peer)
            session.counted = True
            self._live += 1
            self._sessions[session.id] = session
            active = len(self._sessions)
        session.sel_events = selectors.EVENT_READ
        self._selector.register(conn, selectors.EVENT_READ, session)
        self._c_accepted.inc()
        self._g_connections.set(active)
        self.events.emit("session.open", session=session.id,
                         peer=session.peer)

    def _refuse(self, conn: socket.socket, peer: str) -> None:
        self._c_refused.inc()
        self.events.emit("connection.refused", peer=peer,
                         limit=self.max_connections)
        try:
            conn.settimeout(1.0)
            write_frame(conn, Opcode.ERROR, 0, encode_payload(
                error_payload(ServerSaturatedError(
                    f"connection limit of {self.max_connections} "
                    f"reached"), transient=True)))
        except OSError:
            pass
        try:
            conn.close()
        except OSError:
            pass

    def _process_overflow(self) -> None:
        """Admit waiting connections into freed slots, refuse the rest.

        A connection parked by ``_on_accept`` survives exactly one full
        loop iteration before refusal — long enough for EOFs that were
        already pending when it arrived to release their slots, short
        enough that a genuinely full server still refuses within
        milliseconds.
        """
        while self._overflow:
            with self._sessions_lock:
                free = self._live < self.max_connections
            if not free:
                break
            conn, peer, _ = self._overflow.popleft()
            self._admit(conn, peer)
        if not self._overflow:
            return
        kept: Deque[List[Any]] = collections.deque()
        for entry in self._overflow:
            if entry[2]:
                self._refuse(entry[0], entry[1])
            else:
                entry[2] = True
                kept.append(entry)
        self._overflow = kept

    def _uncount(self, session: Session) -> None:
        with self._sessions_lock:
            if session.counted:
                session.counted = False
                self._live -= 1

    def _update_selector(self, session: Session) -> None:
        if session.closing:
            return
        events = 0
        if not session.paused_read and not session.close_after_flush:
            events |= selectors.EVENT_READ
        if session.outbuf:
            events |= selectors.EVENT_WRITE
        if events == session.sel_events:
            return
        try:
            if session.sel_events == 0:
                self._selector.register(session.conn, events, session)
            elif events == 0:
                self._selector.unregister(session.conn)
            else:
                self._selector.modify(session.conn, events, session)
        except (KeyError, ValueError, OSError):
            self._mark_dead(session)
            return
        session.sel_events = events

    def _on_session_event(self, session: Session, mask: int) -> None:
        if session.closing:
            return
        if mask & selectors.EVENT_WRITE:
            self._flush_out(session)
        if mask & selectors.EVENT_READ and not session.closing:
            self._read_session(session)

    def _read_session(self, session: Session) -> None:
        try:
            data = session.conn.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._mark_dead(session)
            return
        if not data:
            self._mark_dead(session)  # EOF: clean or mid-frame hangup
            return
        try:
            frames = session.assembler.feed(data)
        except ProtocolError as exc:
            # Corrupt framing: report once, then drop the connection —
            # resynchronising a byte stream after a bad length prefix
            # is guesswork.
            self._queue_error(session, 0, exc, transient=False)
            session.close_after_flush = True
            session.paused_read = True
            self._flush_out(session)
            return
        session.backlog.extend(frames)
        self._pump_session(session)

    def _pump_session(self, session: Session) -> None:
        while (session.backlog and not session.inflight
               and not session.closing and not session.close_after_flush):
            self._handle_frame(session, session.backlog.popleft())
        if session.closing:
            return
        want_pause = len(session.backlog) > MAX_SESSION_BACKLOG
        if want_pause != session.paused_read:
            session.paused_read = want_pause
            self._update_selector(session)

    def _flush_out(self, session: Session) -> None:
        if session.closing:
            return
        if session.outbuf:
            try:
                sent = session.conn.send(bytes(session.outbuf))
                if sent:
                    del session.outbuf[:sent]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._mark_dead(session)
                return
        if not session.outbuf and session.close_after_flush:
            self._mark_dead(session)
            return
        self._update_selector(session)

    def _queue_result(self, session: Session, request_id: int,
                      payload: Dict[str, Any]) -> None:
        session.outbuf += encode_frame(Opcode.RESULT, request_id,
                                       encode_payload(payload))
        self._flush_out(session)

    def _queue_error(self, session: Session, request_id: int,
                     exc: BaseException, transient: bool = False,
                     trace_id: Optional[str] = None) -> None:
        if session.closing:
            return
        session.outbuf += self._encode_error(request_id, exc,
                                             transient=transient,
                                             trace_id=trace_id)
        self._flush_out(session)

    def _mark_dead(self, session: Session) -> None:
        """Loop-side teardown: stop I/O now, close state when safe.

        The socket leaves the selector immediately; the full close
        (transaction abort, session-table removal) runs on a worker so
        the 5-second close interlock can never stall the loop.  An
        executing session closes when its worker's completion callback
        runs; a parked request is dropped here.
        """
        if session.closing:
            return
        session.closing = True
        self._uncount(session)
        if session.sel_events:
            try:
                self._selector.unregister(session.conn)
            except (KeyError, ValueError, OSError):
                pass
            session.sel_events = 0
        if self._parked and any(entry[0] is session
                                for entry in self._parked):
            kept = collections.deque()
            for entry in self._parked:
                if entry[0] is session:
                    self.admission.unpark()
                else:
                    kept.append(entry)
            self._parked = kept
            session.inflight = False
        if not session.executing:
            self._submit_close(session)

    def _submit_close(self, session: Session) -> None:
        self._pool.submit(lambda: self._close_session(session))

    # -- admission / dispatch ------------------------------------------------

    def _handle_frame(self, session: Session, frame: Frame) -> None:
        session.touch()
        if not session.handshaken:
            self._handshake_frame(session, frame)
            return
        self.admission.begin_request()
        if frame.opcode in _UNGATED_OPCODES:
            self._submit_request(session, frame, gated=False)
            return
        if self.admission.try_acquire():
            self._submit_request(session, frame, gated=True)
            return
        opcode_name, trace_id = self._frame_meta(frame)
        try:
            self.admission.park(session.id, opcode_name,
                                frame.request_id, trace_id)
        except ServerSaturatedError as exc:
            self._queue_error(session, frame.request_id, exc,
                              transient=True, trace_id=trace_id)
            return
        deadline = (None if self.admission.request_timeout is None
                    else time.monotonic() + self.admission.request_timeout)
        session.inflight = True
        self._parked.append((session, frame, deadline, opcode_name,
                             trace_id))

    @staticmethod
    def _frame_meta(frame: Frame) -> Tuple[str, Optional[str]]:
        """(opcode name, trace id) for shed/timeout events — parsed
        lazily, only on those paths."""
        trace_id = None
        try:
            trace_id, _ = extract_trace_context(frame.decode()
                                                if frame.payload else {})
        except ProtocolError:
            pass  # malformed payload fails later, in dispatch
        return _opcode_name(frame.opcode), trace_id

    def _dispatch_parked(self) -> None:
        while self._parked:
            if not self.admission.try_acquire():
                return
            session, frame, _, _, _ = self._parked.popleft()
            self.admission.unpark()
            if session.closing:
                self.admission.release()
                continue
            self._submit_request(session, frame, gated=True,
                                 already_inflight=True)

    def _expire_parked(self, now: float) -> None:
        while self._parked:
            session, frame, deadline, opcode_name, trace_id = self._parked[0]
            if deadline is None or deadline > now:
                return
            self._parked.popleft()
            self.admission.unpark()
            if session.closing:
                continue
            exc = self.admission.timeout_parked(session.id, opcode_name,
                                                frame.request_id, trace_id)
            session.inflight = False
            self._queue_error(session, frame.request_id, exc,
                              transient=True, trace_id=trace_id)
            self._pump_session(session)

    def _submit_request(self, session: Session, frame: Frame,
                        gated: bool, already_inflight: bool = False) -> None:
        if not already_inflight:
            session.inflight = True
        session.executing = True
        started = time.monotonic()
        self._pool.submit(
            lambda: self._run_request(session, frame, gated, started))

    # -- handshake (inline on the loop) --------------------------------------

    def _handshake_frame(self, session: Session, frame: Frame) -> None:
        ok = False
        try:
            ok = self._negotiate(session, frame)
        finally:
            # Handshake + session setup get their own histogram so
            # server.request_seconds measures steady-state requests
            # only (the old first-request p99 tail).
            self._h_handshake.observe(time.monotonic()
                                      - session.accepted_at)
        if not ok:
            session.close_after_flush = True
            session.paused_read = True
            self._flush_out(session)
        else:
            session.handshaken = True

    def _negotiate(self, session: Session, frame: Frame) -> bool:
        if frame.opcode != Opcode.HELLO:
            self._queue_error(session, frame.request_id, HandshakeError(
                "expected HELLO as the first frame"))
            return False
        try:
            hello = frame.decode()
        except ProtocolError as exc:
            self._queue_error(session, frame.request_id, exc)
            return False
        if (not isinstance(hello, dict)
                or hello.get("magic") != PROTOCOL_MAGIC):
            self._queue_error(session, frame.request_id, HandshakeError(
                "bad protocol magic"))
            return False
        version = hello.get("protocol")
        if version not in SUPPORTED_PROTOCOL_VERSIONS:
            self._queue_error(session, frame.request_id, HandshakeError(
                f"unsupported protocol version {version!r}; server "
                f"speaks {sorted(SUPPORTED_PROTOCOL_VERSIONS)}"))
            return False
        body = {
            "magic": PROTOCOL_MAGIC,
            "protocol": version,
            "server": "repro",
            "session_id": session.id,
            "schema": self.db.schema.name,
            # Capability advertisement: the role tells a pool it is
            # talking to a replica, and the replication block carries
            # the watermarks routing needs.
            "role": ("replica" if self.replication is not None
                     else "primary"),
        }
        if self.replication is not None:
            body["replication"] = self.replication.status()
        self._queue_result(session, frame.request_id, body)
        return True

    # -- request execution (worker threads) ----------------------------------

    def _run_request(self, session: Session, frame: Frame, gated: bool,
                     started: float) -> None:
        opcode_name = _opcode_name(frame.opcode)
        trace_id: Optional[str] = None
        text = ""
        responses: List[bytes] = []
        end_session = False
        try:
            try:
                payload = frame.decode() if frame.payload else {}
                if not isinstance(payload, dict):
                    raise ProtocolError(
                        "request payload must be a JSON object")
                # Extract trace context before anything can fail, so
                # every error path below can stamp the ERROR frame.
                trace_id, parent_span_id = extract_trace_context(payload)
                raw_text = payload.get("text", "")
                text = raw_text if isinstance(raw_text, str) else ""
                with session.lock:
                    with self.db.tracer.span("server.request",
                                             opcode=opcode_name,
                                             session=session.id):
                        responses, end_session = self._handle(
                            session, frame, payload, trace_id,
                            parent_span_id)
            except (ServerSaturatedError, RequestTimeoutError) as exc:
                responses = [self._encode_error(frame.request_id, exc,
                                                transient=True,
                                                trace_id=trace_id)]
            except ReproError as exc:
                transient = type(exc).__name__ in TRANSIENT_ERRORS
                responses = [self._encode_error(frame.request_id, exc,
                                                transient=transient,
                                                trace_id=trace_id)]
            except Exception as exc:  # noqa: BLE001 - a bug must not kill
                # the session; surface it to the client instead.
                responses = [self._encode_error(frame.request_id, exc,
                                                trace_id=trace_id)]
        finally:
            if gated:
                self.admission.release()
            self.admission.observe(session.id, opcode_name, text,
                                   time.monotonic() - started,
                                   request_id=frame.request_id,
                                   trace_id=trace_id)
        self._call_on_loop(
            lambda: self._finish_request(session, responses, end_session))

    def _finish_request(self, session: Session, responses: List[bytes],
                        end_session: bool) -> None:
        session.executing = False
        session.inflight = False
        if session.closing:
            self._submit_close(session)
            return
        session.touch()
        for data in responses:
            session.outbuf += data
        if end_session:
            session.close_after_flush = True
            session.paused_read = True
        self._flush_out(session)
        if not session.closing and not session.close_after_flush:
            self._pump_session(session)

    # -- dispatch ------------------------------------------------------------

    def _handle(self, session: Session, frame: Frame,
                payload: Dict[str, Any],
                trace_id: Optional[str] = None,
                parent_span_id: Optional[str] = None
                ) -> Tuple[List[bytes], bool]:
        """Handle one request frame; returns (response frames, end)."""
        opcode = frame.opcode
        request_id = frame.request_id
        db = self.db
        if opcode == Opcode.PING:
            pong: Dict[str, Any] = {
                "pong": True,
                "admission": self.admission.snapshot()}
            if self.replication is not None:
                # Replica watermarks ride on PING so a routing pool can
                # refresh them with the cheapest possible round-trip.
                pong["replication"] = self.replication.status()
            return [self._encode_result(request_id, pong)], False
        if opcode == Opcode.STATS:
            return self._handle_stats(session, request_id, payload)
        if opcode == Opcode.WAL_STREAM:
            return [self._result_frame(
                request_id, self.wal_source.answer(payload).encode())], False
        if opcode == Opcode.SUBSCRIBE:
            return [self._result_frame(
                request_id, self.cdc_source.answer(payload).encode())], False
        if opcode == Opcode.QUERY or opcode == Opcode.EXECUTE:
            if opcode == Opcode.QUERY and payload.get("stream") is not None:
                return self._handle_open_cursor(session, request_id,
                                                payload)
            result = db.query(self._text(payload),
                              params=payload.get("params"))
            return [self._result_frame(request_id, encode_result(
                result, db.engine.keep_fragments))], False
        if opcode == Opcode.FETCH:
            return self._handle_fetch(session, request_id, payload)
        if opcode == Opcode.CLOSE_CURSOR:
            return self._handle_close_cursor(session, request_id, payload)
        if opcode == Opcode.PREPARE:
            return self._handle_prepare(session, request_id, payload)
        if opcode == Opcode.EXPLAIN:
            return self._handle_explain(session, request_id, payload,
                                        trace_id, parent_span_id)
        if opcode == Opcode.BEGIN:
            self._require_writable()
            if session.txn is not None and session.txn.is_active:
                raise TransactionStateError(
                    "session already has an open transaction")
            session.txn = db.begin()
            return [self._encode_result(
                request_id, {"txn_id": session.txn.txn_id})], False
        if opcode == Opcode.COMMIT:
            txn = self._require_txn(session)
            txn.commit()
            session.txn = None
            return [self._encode_result(request_id,
                                        {"committed": True})], False
        if opcode == Opcode.ROLLBACK:
            txn = self._require_txn(session)
            txn.abort()
            session.txn = None
            return [self._encode_result(request_id,
                                        {"rolled_back": True})], False
        if opcode == Opcode.MUTATE:
            self._require_writable()
            return self._handle_mutate(session, request_id, payload)
        if opcode == Opcode.CLOSE:
            return [self._encode_result(request_id, {"closed": True})], True
        raise ProtocolError(f"unknown opcode {opcode}")

    # -- handlers ------------------------------------------------------------

    @staticmethod
    def _text(payload: Dict[str, Any]) -> str:
        text = payload.get("text")
        if not isinstance(text, str) or not text:
            raise ProtocolError("request needs a non-empty 'text' field")
        return text

    def _require_writable(self) -> None:
        if self.replication is not None:
            primary = f"{self.replication.primary_host}:" \
                      f"{self.replication.primary_port}"
            raise ReadOnlyReplicaError(
                f"this server is a read-only replica of {primary}; "
                f"send writes and transactions to the primary",
                primary=primary)

    def _require_txn(self, session: Session):
        if session.txn is None or not session.txn.is_active:
            raise TransactionStateError(
                "no open transaction on this session")
        return session.txn

    def _handle_prepare(self, session: Session, request_id: int,
                        payload: Dict[str, Any]) -> Tuple[List[bytes], bool]:
        """Parse (and cache) a statement without running it.

        Priming the plan cache here means the first EXECUTE pays only
        bind + analyze, and later same-typed EXECUTEs only bind — the
        parameterized-analysis cache does the rest.
        """
        from repro.mql.evaluator import parse_cached
        from repro.mql.parser import has_parameters

        query = parse_cached(self.db, self._text(payload)).query
        return [self._encode_result(request_id, {
            "prepared": True,
            "parameterized": has_parameters(query),
        })], False

    def _handle_stats(self, session: Session, request_id: int,
                      payload: Dict[str, Any]) -> Tuple[List[bytes], bool]:
        """Full introspection snapshot: server state + metrics registry.

        ``{"events": N}`` in the payload appends the last *N* entries of
        the structured event log — the ``monitor`` CLI's data source.
        """
        body: Dict[str, Any] = {
            "server": self.state_snapshot(),
            "metrics": self.db.metrics.snapshot(),
        }
        events = payload.get("events")
        if isinstance(events, int) and events > 0:
            body["events"] = self.events.tail(events)
        return [self._encode_result(request_id, body)], False

    def _handle_explain(self, session: Session, request_id: int,
                        payload: Dict[str, Any],
                        trace_id: Optional[str] = None,
                        parent_span_id: Optional[str] = None
                        ) -> Tuple[List[bytes], bool]:
        """EXPLAIN ANALYZE over the wire, server spans included.

        The server opens its own capture so the profile shows the whole
        request — a ``server.request`` root wrapping the kernel's
        ``mql.execute`` tree — rather than only the query internals.
        When the request carries trace context, the capture joins the
        *client's* trace: every server span gets the client's
        ``trace_id`` and the root parents onto the client's span id, so
        the client can stitch both processes into one tree.
        """
        db = self.db
        with db.tracer.capture(trace_id=trace_id or new_trace_id(),
                               parent_span_id=parent_span_id) as capture:
            with db.tracer.span("server.request", opcode="EXPLAIN",
                                session=session.id):
                result = db.query(self._text(payload),
                                  params=payload.get("params"))
        profile = QueryProfile(capture.spans, result.plan)
        return [self._encode_result(
            request_id, result_to_payload(result, profile=profile))], False

    def _handle_mutate(self, session: Session, request_id: int,
                       payload: Dict[str, Any]) -> Tuple[List[bytes], bool]:
        op = payload.get("op")
        args = payload.get("args")
        if not isinstance(op, str) or not isinstance(args, dict):
            raise ProtocolError(
                "MUTATE needs 'op' (string) and 'args' (object)")
        if session.txn is not None and session.txn.is_active:
            response = self._apply_mutation(session.txn, op, args)
        else:
            # Autocommit: a lone mutation gets its own transaction.
            with self.db.transaction() as txn:
                response = self._apply_mutation(txn, op, args)
        return [self._encode_result(request_id, response)], False

    @staticmethod
    def _apply_mutation(txn, op: str, args: Dict[str, Any]
                        ) -> Dict[str, Any]:
        try:
            if op == "insert":
                atom_id = txn.insert(
                    args["type"], args["values"], args["valid_from"],
                    args.get("valid_to", FOREVER),
                    atom_id=args.get("atom_id"))
                return {"atom_id": atom_id}
            if op == "update":
                txn.update(args["atom_id"], args["changes"],
                           args["valid_from"], args.get("valid_to", FOREVER))
                return {"ok": True}
            if op == "delete":
                txn.delete(args["atom_id"], args["valid_from"],
                           args.get("valid_to", FOREVER))
                return {"ok": True}
            if op == "correct":
                txn.correct(args["atom_id"], args["window_start"],
                            args["window_end"], args["changes"])
                return {"ok": True}
            if op == "link":
                txn.link(args["link"], args["source_id"],
                         args["target_id"], args["valid_from"],
                         args.get("valid_to", FOREVER))
                return {"ok": True}
            if op == "unlink":
                txn.unlink(args["link"], args["source_id"],
                           args["target_id"], args["valid_from"],
                           args.get("valid_to", FOREVER))
                return {"ok": True}
        except KeyError as exc:
            raise ProtocolError(
                f"MUTATE {op} missing argument {exc.args[0]!r}") from exc
        raise ProtocolError(f"unknown mutation op {op!r}")

    # -- streaming cursors ---------------------------------------------------

    def _handle_open_cursor(self, session: Session, request_id: int,
                            payload: Dict[str, Any]
                            ) -> Tuple[List[bytes], bool]:
        spec = payload.get("stream")
        chunk_entries = 0
        if spec is True:
            from repro.mql.stream import DEFAULT_CHUNK_ENTRIES
            chunk_entries = DEFAULT_CHUNK_ENTRIES
        elif isinstance(spec, dict):
            from repro.mql.stream import DEFAULT_CHUNK_ENTRIES
            chunk_entries = spec.get("chunk_entries", DEFAULT_CHUNK_ENTRIES)
        if (not isinstance(chunk_entries, int) or chunk_entries < 1
                or chunk_entries > MAX_CHUNK_ENTRIES):
            raise ProtocolError(
                f"stream.chunk_entries must be an integer in "
                f"[1, {MAX_CHUNK_ENTRIES}]")
        if len(session.cursors) >= MAX_CURSORS_PER_SESSION:
            raise CursorStateError(
                f"session already holds {len(session.cursors)} open "
                f"cursors (max {MAX_CURSORS_PER_SESSION}); FETCH them to "
                f"exhaustion or CLOSE_CURSOR first")
        stream = self.db.query_stream(self._text(payload),
                                      params=payload.get("params"),
                                      chunk_entries=chunk_entries)
        session.next_cursor_id += 1
        cursor = ServerCursor(session.next_cursor_id, stream)
        session.cursors[cursor.id] = cursor
        self._count_cursors(+1)
        self.events.emit("cursor.open", session=session.id,
                         cursor=cursor.id, chunk_entries=chunk_entries)
        return [self._encode_result(request_id, {
            "cursor": {
                "cursor_id": cursor.id,
                "plan": cursor.plan,
                "projected": cursor.projected,
                "chunk_entries": chunk_entries,
            }})], False

    def _handle_fetch(self, session: Session, request_id: int,
                      payload: Dict[str, Any]) -> Tuple[List[bytes], bool]:
        cursor = self._find_cursor(session, payload)
        try:
            chunk = next(cursor.chunks, None)
        except Exception:
            # A failed producer leaves the cursor unusable; reclaim it
            # so the session does not leak a broken generator.
            self._drop_cursor(session, cursor.id)
            raise
        if chunk is None:
            self._drop_cursor(session, cursor.id)
            return [self._encode_result(request_id, {
                "cursor_id": cursor.id, "entries": [],
                "done": True})], False
        try:
            return [self._result_frame(request_id, encode_fetch(
                cursor.id, chunk, cursor.projected,
                self.db.engine.keep_fragments))], False
        except ResultTooLargeError:
            self._drop_cursor(session, cursor.id)
            raise ResultTooLargeError(
                f"one cursor chunk of {len(chunk)} entries exceeds the "
                f"frame cap; reopen the cursor with a smaller "
                f"chunk_entries") from None

    def _handle_close_cursor(self, session: Session, request_id: int,
                             payload: Dict[str, Any]
                             ) -> Tuple[List[bytes], bool]:
        cursor_id = payload.get("cursor_id")
        closed = (isinstance(cursor_id, int)
                  and session.cursors.get(cursor_id) is not None)
        if closed:
            self._drop_cursor(session, cursor_id)
        # Idempotent on purpose: the client's close() races the
        # server's own close-on-exhaustion.
        return [self._encode_result(request_id, {"closed": closed})], False

    @staticmethod
    def _find_cursor(session: Session,
                     payload: Dict[str, Any]) -> ServerCursor:
        cursor_id = payload.get("cursor_id")
        if not isinstance(cursor_id, int):
            raise ProtocolError("FETCH needs an integer 'cursor_id'")
        cursor = session.cursors.get(cursor_id)
        if cursor is None:
            raise CursorStateError(
                f"unknown cursor {cursor_id} on this session "
                f"(already exhausted, closed, or never opened)")
        return cursor

    def _drop_cursor(self, session: Session, cursor_id: int) -> None:
        cursor = session.cursors.pop(cursor_id, None)
        if cursor is None:
            return
        cursor.chunks.close()
        self._count_cursors(-1)
        self.events.emit("cursor.close", session=session.id,
                         cursor=cursor_id)

    def _reclaim_cursors(self, session: Session) -> None:
        if not session.cursors:
            return
        reclaimed = list(session.cursors.values())
        session.cursors.clear()
        for cursor in reclaimed:
            cursor.chunks.close()
        self._count_cursors(-len(reclaimed))

    def _count_cursors(self, delta: int) -> None:
        with self._cursor_lock:
            self._cursors_open += delta
            self._g_cursors.set(self._cursors_open)

    # -- reaping / draining / closing ----------------------------------------

    def _reap_idle(self, now: float) -> None:
        # REAPER_INTERVAL is read per sweep (not captured) so tests can
        # shrink it at runtime.
        if self.idle_timeout is None or now - self._last_reap < REAPER_INTERVAL:
            return
        self._last_reap = now
        cutoff = now - self.idle_timeout
        with self._sessions_lock:
            idle = [s for s in self._sessions.values()
                    if s.last_active < cutoff and not s.closing
                    and not s.inflight]
        for session in idle:
            self._c_reaped.inc()
            self.events.emit("session.reaped", session=session.id,
                             peer=session.peer,
                             idle_timeout=self.idle_timeout)
            self._mark_dead(session)

    def _begin_drain(self) -> None:
        self._drain_started = True
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError, OSError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        # Connections waiting for a capacity slot die like the kernel
        # backlog does: closed, never admitted.
        while self._overflow:
            conn, _, _ = self._overflow.popleft()
            try:
                conn.close()
            except OSError:
                pass
        # Parked requests are shed — their slot never existed, and the
        # client sees the same transient error as any saturation.
        while self._parked:
            session, frame, _, _, trace_id = self._parked.popleft()
            self.admission.unpark()
            if session.closing:
                continue
            session.inflight = False
            self._queue_error(session, frame.request_id,
                              ServerSaturatedError("server is draining"),
                              transient=True, trace_id=trace_id)
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            if session.closing:
                continue
            session.paused_read = True
            session.close_after_flush = True
            if session.executing:
                self._update_selector(session)
            else:
                # Flush whatever is pending, then close; an empty
                # buffer closes immediately.
                self._flush_out(session)

    def _close_session(self, session: Session) -> None:
        # Interlock with the worker: the shutdown path can reach here
        # while the session's request is still mid-dispatch inside the
        # very transaction we are about to abort.  The session lock is
        # held around dispatch, so acquiring it proves no request is in
        # flight.  If the worker is stuck past the timeout, leave the
        # transaction alone — closing the socket below errors the
        # worker out, and its own cleanup pass aborts safely.
        locked = session.lock.acquire(timeout=CLOSE_INTERLOCK_TIMEOUT)
        if locked:
            try:
                if session.txn is not None and session.txn.is_active:
                    try:
                        session.txn.abort()
                    except ReproError:
                        pass
                session.txn = None
                self._reclaim_cursors(session)
            finally:
                session.lock.release()
        session.closing = True
        self._uncount(session)
        try:
            session.conn.close()
        except OSError:
            pass
        with self._sessions_lock:
            removed = self._sessions.pop(session.id, None)
            remaining = len(self._sessions)
        self._g_connections.set(remaining)
        # Both the loop's teardown and the shutdown path reach here;
        # only the one that actually removed the session logs it.
        if removed is not None:
            self.events.emit("session.close", session=session.id,
                             peer=session.peer)
            if self._stopping.is_set():
                self._wake()  # let the drain loop notice the count drop

    # -- frame encoding ------------------------------------------------------

    def _encode_result(self, request_id: int,
                       payload: Dict[str, Any]) -> bytes:
        return self._result_frame(request_id, encode_payload(payload))

    @staticmethod
    def _result_frame(request_id: int, data: bytes) -> bytes:
        try:
            return encode_frame(Opcode.RESULT, request_id, data)
        except ProtocolError:
            raise ResultTooLargeError(
                f"result payload of {len(data)} bytes exceeds the wire "
                f"frame cap; stream it instead with a cursor "
                f"(query_stream / QUERY with a 'stream' option)") from None

    @staticmethod
    def _encode_error(request_id: int, exc: BaseException,
                      transient: bool = False,
                      trace_id: Optional[str] = None) -> bytes:
        return encode_frame(Opcode.ERROR, request_id, encode_payload(
            error_payload(exc, transient, trace_id=trace_id)))

    # -- introspection -------------------------------------------------------

    def state_snapshot(self) -> Dict[str, Any]:
        """The server's operational state as one JSON-safe document
        (served by the STATS opcode and the sidecar's ``/stats``)."""
        with self._sessions_lock:
            sessions = len(self._sessions)
        with self._cursor_lock:
            cursors = self._cursors_open
        return {
            "host": self.host,
            "port": self.port,
            "started_at": round(self._started_at, 3),
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3),
            "sessions": sessions,
            "max_connections": self.max_connections,
            "draining": self.draining,
            "protocol_versions": sorted(SUPPORTED_PROTOCOL_VERSIONS),
            "admission": self.admission.snapshot(),
            "open_cursors": cursors,
            "worker_threads": self._pool.size,
            "events_seen": self.events.last_seq,
            "replication": (self.replication.status()
                            if self.replication is not None
                            else self.wal_source.status()),
            "cdc": self.cdc_source.status(),
        }

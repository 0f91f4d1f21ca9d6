"""Admission control: bounded concurrency with explicit shedding.

A saturated server must refuse work *visibly* — a structured ERROR
frame the client can retry on — never by letting requests pile up until
the process dies or clients time out blind.  The controller bounds two
things:

* **in-flight requests** — at most ``max_inflight`` requests execute at
  once (they still contend on the kernel's own latches; this bound
  keeps the thread pile and memory footprint flat under overload);
* **the wait queue** — at most ``max_queued`` requests wait for a slot.
  A request arriving past that is shed immediately with
  :class:`~repro.errors.ServerSaturatedError`.

The controller only keeps the counters: no thread ever waits on it.
The event-loop server holds a queued request's frame itself, and
answers one that waits longer than ``request_timeout`` seconds with
:class:`~repro.errors.RequestTimeoutError`.  The timeout governs
*queue wait*, not execution — a request that has started runs
to completion (the kernel has no preemption points), which is the same
cooperative contract as a classic ``statement_timeout``; see
``docs/server.md``.

Every admission outcome is also a **structured event** in the shared
:class:`~repro.obs.events.EventLog`: shed and timed-out requests emit
``request.shed`` / ``request.queue_timeout``, and requests whose total
latency crosses the slow-query threshold emit ``slow_query`` carrying
the request id, session id, opcode name, trace id, query text, and
latency — correlatable with client-side traces and ERROR frames.
Read them back with ``events.tail(event="slow_query")``.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.errors import RequestTimeoutError, ServerSaturatedError
from repro.obs.events import EventLog

#: Latency histogram bounds (seconds): sub-millisecond to tens of them.
LATENCY_BOUNDS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class AdmissionController:
    """Gate requests through a bounded in-flight set and wait queue.

    Admission never blocks a thread.  The event-loop server takes a slot
    with :meth:`try_acquire`; a request that finds none parks as *data*
    — the loop keeps the frame and a deadline, while :meth:`park`,
    :meth:`unpark` and :meth:`timeout_parked` keep the queue bound,
    gauge and events.  :meth:`release` frees the slot and fires
    :attr:`on_release`, so the loop wakes up the instant a slot frees
    instead of polling; :meth:`begin_request` and :meth:`observe` count
    and time every request, gated or not.
    """

    def __init__(self, max_inflight: int = 8, max_queued: int = 32,
                 request_timeout: Optional[float] = 10.0,
                 slow_query_ms: float = 250.0,
                 metrics=None,
                 events: Optional[EventLog] = None) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queued < 0:
            raise ValueError("max_queued must be >= 0")
        self.max_inflight = max_inflight
        self.max_queued = max_queued
        self.request_timeout = request_timeout
        self.events = events if events is not None else EventLog()
        self.slow_query_ms = slow_query_ms
        self._lock = threading.Lock()
        self._inflight = 0
        self._queued = 0
        #: Callback invoked (outside the lock, from the releasing
        #: thread) every time an in-flight slot frees — the event-loop
        #: server points it at its wakeup pipe so parked requests
        #: dispatch immediately.
        self.on_release: Optional[Any] = None
        if metrics is None:
            from repro.obs import MetricsRegistry
            metrics = MetricsRegistry()
        self._c_requests = metrics.counter("server.requests")
        self._c_shed = metrics.counter("server.load_shed")
        self._c_timeouts = metrics.counter("server.queue_timeouts")
        self._g_inflight = metrics.gauge("server.requests.inflight")
        self._g_queued = metrics.gauge("server.requests.queued")
        self._h_latency = metrics.histogram("server.request_seconds",
                                            LATENCY_BOUNDS)

    # -- introspection -------------------------------------------------------

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def queued(self) -> int:
        with self._lock:
            return self._queued

    # -- admission -----------------------------------------------------------

    def begin_request(self) -> None:
        """Count one arriving request."""
        self._c_requests.inc()

    def try_acquire(self) -> bool:
        """Take an in-flight slot if one is free; never blocks."""
        with self._lock:
            if self._inflight < self.max_inflight:
                self._inflight += 1
                self._g_inflight.set(self._inflight)
                return True
            return False

    def park(self, session_id: int = 0, opcode: str = "",
             request_id: int = 0,
             trace_id: Optional[str] = None) -> None:
        """Count a request into the wait queue, or shed it.

        The caller (the event loop) keeps the parked frame itself; this
        only maintains the queue bound and gauge.  Raises
        :class:`ServerSaturatedError` — after emitting the
        ``request.shed`` event — when the queue is full.
        """
        with self._lock:
            if self._queued >= self.max_queued:
                self._c_shed.inc()
                self.events.emit("request.shed", session=session_id,
                                 opcode=opcode, request_id=request_id,
                                 trace_id=trace_id,
                                 inflight=self._inflight,
                                 queued=self._queued)
                raise ServerSaturatedError(
                    f"server saturated: {self._inflight} in flight, "
                    f"{self._queued} queued (max {self.max_queued})")
            self._queued += 1
            self._g_queued.set(self._queued)

    def unpark(self) -> None:
        """Take one request out of the wait queue (dispatched, timed
        out, or dropped with its session)."""
        with self._lock:
            self._queued -= 1
            self._g_queued.set(self._queued)

    def timeout_parked(self, session_id: int = 0, opcode: str = "",
                       request_id: int = 0,
                       trace_id: Optional[str] = None
                       ) -> RequestTimeoutError:
        """Record a queue timeout; returns the error to answer with.
        The caller still owns the queue slot — call :meth:`unpark`."""
        self._c_timeouts.inc()
        self.events.emit("request.queue_timeout", session=session_id,
                         opcode=opcode, request_id=request_id,
                         trace_id=trace_id)
        return RequestTimeoutError(
            f"request waited over {self.request_timeout:.3g}s for a slot")

    def release(self) -> None:
        """Free a slot taken by :meth:`try_acquire` (fires
        :attr:`on_release`)."""
        with self._lock:
            self._inflight -= 1
            self._g_inflight.set(self._inflight)
        hook = self.on_release
        if hook is not None:
            hook()

    def observe(self, session_id: int, opcode: str, text: str,
                seconds: float, request_id: int = 0,
                trace_id: Optional[str] = None) -> None:
        """Record one finished request's latency in the histogram, and
        emit a ``slow_query`` event when it reaches the threshold."""
        self._h_latency.observe(seconds)
        if seconds * 1000.0 >= self.slow_query_ms:
            self.events.emit("slow_query", session=session_id,
                             opcode=opcode, text=text,
                             seconds=round(seconds, 6),
                             request_id=request_id, trace_id=trace_id)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "max_queued": self.max_queued,
                "inflight": self._inflight,
                "queued": self._queued,
                "request_timeout": self.request_timeout,
            }

"""Network service layer: wire protocol, server, client, admission.

The database kernel is embedded (one process owns the files); this
package puts a socket in front of it so many client processes share one
kernel.  The pieces:

* :mod:`repro.server.protocol` — length-prefixed, CRC-checked binary
  frames with canonical JSON payloads; the byte-level contract both
  sides (and the tests' differential oracle) share.  Version 2 adds
  per-request trace context and the STATS opcode; version 3 adds
  streaming result cursors (FETCH / CLOSE_CURSOR) and incremental
  frame reassembly for the event-loop server.
* :mod:`repro.server.admission` — load shedding: bounded in-flight
  requests, a bounded wait queue, per-request queue timeouts, and a
  structured slow-query log backed by the shared event log.
* :mod:`repro.server.server` — an event-loop TCP server: one selector
  thread multiplexes every socket, a small worker pool executes
  requests, queued requests park as data on the loop.  Per-session
  transaction state, streaming cursors, idle reaping, graceful
  drain-then-checkpoint shutdown, and full introspection (STATS,
  structured events, cross-process trace stitching).
* :mod:`repro.server.http_sidecar` — an optional plain-HTTP listener
  serving ``/metrics`` (Prometheus text format), ``/health``
  (drain-aware), and ``/stats`` for fleet tooling.
* :mod:`repro.server.client` — a blocking client with prepared
  statements, context-manager transactions, transient-error retry,
  trace-context stamping, streaming result cursors, and a thread-safe
  connection pool with idle health checks and replica-aware routing of
  time-bounded reads (``replicas=`` — see ``docs/replication.md``).

Log-shipping replication (the ``WAL_STREAM`` opcode, the primary-side
record source, and the replica-side applier) lives in
:mod:`repro.replication`; the server grows a ``replication=`` handle
that turns it into a read-only replica.
"""

from repro.server.admission import AdmissionController
from repro.server.client import ClientPool, DatabaseClient, ResultCursor
from repro.server.http_sidecar import MetricsSidecar
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOL_VERSIONS,
    Frame,
    FrameAssembler,
    Opcode,
    decode_payload,
    encode_frame,
    encode_payload,
    entries_to_payload,
    error_payload,
    extract_trace_context,
    read_frame,
    result_to_payload,
)
from repro.server.server import DatabaseServer

__all__ = [
    "AdmissionController",
    "ClientPool",
    "DatabaseClient",
    "DatabaseServer",
    "Frame",
    "FrameAssembler",
    "MAX_FRAME_BYTES",
    "MetricsSidecar",
    "Opcode",
    "PROTOCOL_VERSION",
    "ResultCursor",
    "SUPPORTED_PROTOCOL_VERSIONS",
    "decode_payload",
    "encode_frame",
    "encode_payload",
    "entries_to_payload",
    "error_payload",
    "extract_trace_context",
    "read_frame",
    "result_to_payload",
]

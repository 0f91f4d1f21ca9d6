"""Wire protocol: length-prefixed, CRC-checked frames over TCP.

Frame layout (all integers little-endian)::

    u32 length     -- bytes after this field: 1 + 4 + len(payload) + 4
    u8  opcode     -- Opcode value (unknown values reach dispatch, which
                      answers with an ERROR frame rather than dropping
                      the connection)
    u32 request_id -- echoed verbatim in the response frame
    ..  payload    -- canonical JSON (UTF-8, sorted keys, no spaces)
    u32 crc32      -- zlib.crc32 over opcode + request_id + payload

The CRC turns a torn or corrupted frame into a clean
:class:`~repro.errors.ProtocolError` instead of a JSON parse error deep
inside dispatch.  Payloads are *canonical* JSON — ``sort_keys`` and
fixed separators — so the same logical result always serializes to the
same bytes; the differential tests compare server responses against an
in-process oracle byte for byte.

A connection opens with a handshake: the client sends a HELLO frame
whose payload carries the magic and protocol version; the server
answers RESULT echoing the version (or ERROR naming the version it
speaks, then closes, on any other).  Everything after the handshake is
request/response: every request frame gets exactly one RESULT or ERROR
frame with the same ``request_id``.

The protocol is at version 3, the only version the server speaks.
Beyond the request/response opcodes, version 3 carries:

* the ``STATS`` opcode;
* an optional ``trace`` object in request payloads
  (``{"trace": {"trace_id": ..., "span_id": ...}}``) carrying the
  client's trace context, so the server's spans, slow-query events, and
  ERROR frames correlate with the client's;
* streaming cursors: a ``QUERY`` whose payload carries a ``stream``
  object answers with a cursor handle instead of entries, the ``FETCH``
  opcode pulls one bounded chunk of entries per round-trip, and
  ``CLOSE_CURSOR`` releases a cursor early (exhausted cursors close
  themselves).  Results too large for one frame fail with a structured
  ``ResultTooLargeError`` pointing at cursors.

Within version 3 the ``WAL_STREAM`` opcode was added for log-shipping
replication (see ``docs/replication.md``): a replica long-polls batches
of WAL records from its primary and acks its durable replay watermark.
Capability-negotiated rather than version-gated — the server advertises
``"role"`` in its HELLO response, and a peer that never sends
WAL_STREAM sees byte-identical behaviour, so no version bump.

``SUBSCRIBE`` follows the same precedent: a change-data-capture client
long-polls decoded, committed change events from the primary's WAL
(see ``docs/cdc.md``), with a named server-side cursor that survives
reconnects.  Clients that never send it are unaffected.

Response encoding.  :func:`result_to_payload` is the dictionary form of
a query result and the oracle of the serving path: QUERY/EXECUTE
responses (:func:`encode_result`) and cursor FETCH chunks
(:func:`encode_fetch`) must equal ``encode_payload`` of it byte for
byte.  They are written by splicing, for each atom occurrence, the
version's canonical ``"valid":...,"values":{...}`` fragment — the last
two members of an atom node in key order — into a shell formatted per
occurrence (``atom_id``, ``children``, ``type``) and per entry.  A
fragment made for a version the engine caches stays on it
(``StorageEngine.keep_fragments``), so a version is encoded once however
many responses carry it.  WAL_STREAM and SUBSCRIBE items are likewise
encoded once, and those bytes both charge the batch budget and are
spliced into the response (:func:`~repro.canonical.splice_payload`).
EXPLAIN responses are encoded from the dictionary form.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.canonical import encode_payload
from repro.errors import ConnectionClosedError, ProtocolError

#: Protocol magic, sent in the HELLO payload.
PROTOCOL_MAGIC = "tmad"

#: Wire protocol version; bumped on any frame-level change.
PROTOCOL_VERSION = 3

#: Versions the server speaks; a HELLO naming any other is refused.
SUPPORTED_PROTOCOL_VERSIONS = frozenset((PROTOCOL_VERSION,))

#: Hard cap on a frame's ``length`` field.  Larger prefixes are treated
#: as corruption (or abuse) and fail fast without allocating.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Fixed bytes inside ``length``: opcode (1) + request_id (4) + crc (4).
_FRAME_OVERHEAD = 9

_HEADER = struct.Struct("<I")
_OPCODE_REQID = struct.Struct("<BI")
_CRC = struct.Struct("<I")


class Opcode(IntEnum):
    """Request and response frame types."""

    HELLO = 1
    QUERY = 2
    PREPARE = 3
    EXECUTE = 4
    BEGIN = 5
    COMMIT = 6
    ROLLBACK = 7
    MUTATE = 8
    EXPLAIN = 9
    PING = 10
    CLOSE = 11
    STATS = 12
    FETCH = 13
    CLOSE_CURSOR = 14
    WAL_STREAM = 15
    SUBSCRIBE = 16

    RESULT = 64
    ERROR = 65


@dataclass(frozen=True, slots=True)
class Frame:
    """One decoded frame.  ``opcode`` stays a raw int so unknown values
    survive to dispatch (which answers them with an ERROR frame)."""

    opcode: int
    request_id: int
    payload: bytes

    def decode(self) -> Any:
        return decode_payload(self.payload)


# -- payload encoding ----------------------------------------------------------


def decode_payload(data: bytes) -> Any:
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc


def error_payload(exc: BaseException, transient: bool = False,
                  trace_id: Optional[str] = None) -> Dict[str, Any]:
    """The structured body of an ERROR frame.

    Carries the server-side exception class name so the client can
    re-raise something meaningful, a ``transient`` flag driving the
    client's retry policy, and — when the failed request carried trace
    context — the ``trace_id`` so the failure correlates with the
    client's span and the slow-query/event records.
    """
    body: Dict[str, Any] = {"error": type(exc).__name__,
                            "message": str(exc),
                            "transient": bool(transient)}
    if trace_id is not None:
        body["trace_id"] = trace_id
    return body


def extract_trace_context(payload: Any
                          ) -> "tuple[Optional[str], Optional[str]]":
    """``(trace_id, parent_span_id)`` from a request payload's ``trace``
    object, tolerating its absence and any malformed shape (version-1
    clients never send one)."""
    if not isinstance(payload, dict):
        return None, None
    trace = payload.get("trace")
    if not isinstance(trace, dict):
        return None, None
    trace_id = trace.get("trace_id")
    span_id = trace.get("span_id")
    return (trace_id if isinstance(trace_id, str) else None,
            span_id if isinstance(span_id, str) else None)


# -- frame encoding ------------------------------------------------------------


def encode_frame(opcode: int, request_id: int, payload: bytes) -> bytes:
    """Serialize one frame, CRC included."""
    if len(payload) + _FRAME_OVERHEAD > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap")
    body = _OPCODE_REQID.pack(opcode & 0xFF, request_id) + payload
    return (_HEADER.pack(len(body) + _CRC.size) + body
            + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF))


def _recv_exactly(sock, count: int) -> bytes:
    """Read exactly *count* bytes or raise :class:`ConnectionClosedError`.

    A clean EOF on a frame boundary (nothing read yet) raises with
    ``mid_frame=False`` so the caller can treat it as a normal hangup; an
    EOF inside a frame is a truncation.
    """
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            error = ConnectionClosedError(
                f"connection closed with {remaining} of {count} "
                f"bytes outstanding")
            error.mid_frame = len(chunks) > 0
            raise error
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _check_length(length: int) -> None:
    if length < _FRAME_OVERHEAD:
        raise ProtocolError(f"frame length {length} below the "
                            f"{_FRAME_OVERHEAD}-byte minimum")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds the "
                            f"{MAX_FRAME_BYTES}-byte cap")


def _decode_frame_body(data: bytes) -> Frame:
    """CRC-check and unpack one frame body (the bytes after ``length``)."""
    body, crc_bytes = data[:-_CRC.size], data[-_CRC.size:]
    (expected,) = _CRC.unpack(crc_bytes)
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if actual != expected:
        raise ProtocolError(
            f"frame CRC mismatch: got {actual:#010x}, "
            f"frame claims {expected:#010x}")
    opcode, request_id = _OPCODE_REQID.unpack_from(body)
    return Frame(opcode, request_id, body[_OPCODE_REQID.size:])


def read_frame(sock) -> Frame:
    """Read and verify one frame from a blocking socket.

    Raises :class:`ProtocolError` on a bad length prefix or CRC
    mismatch, :class:`ConnectionClosedError` on EOF (``mid_frame`` set
    when the peer vanished inside a frame).
    """
    (length,) = _HEADER.unpack(_recv_exactly(sock, _HEADER.size))
    _check_length(length)
    return _decode_frame_body(_recv_exactly(sock, length))


class FrameAssembler:
    """Incremental frame reassembly for a non-blocking reader.

    The event-loop server reads whatever bytes the socket has and feeds
    them here; :meth:`feed` returns every frame completed so far and
    buffers the tail of a partial one.  A bad length prefix or CRC
    raises :class:`ProtocolError` — after that the byte stream cannot
    be resynchronized and the connection must be dropped, exactly as
    with :func:`read_frame`.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes of the (partial) frame still being assembled."""
        return len(self._buf)

    def feed(self, data: bytes) -> "list[Frame]":
        self._buf += data
        frames: list[Frame] = []
        buf = self._buf
        while True:
            if len(buf) < _HEADER.size:
                return frames
            (length,) = _HEADER.unpack_from(buf)
            _check_length(length)
            end = _HEADER.size + length
            if len(buf) < end:
                return frames
            frames.append(_decode_frame_body(bytes(buf[_HEADER.size:end])))
            del buf[:end]


def write_frame(sock, opcode: int, request_id: int, payload: bytes) -> None:
    sock.sendall(encode_frame(opcode, request_id, payload))


# -- result serialization ------------------------------------------------------


def _interval_to_list(interval) -> list:
    return [interval.start, interval.end]


def entries_to_payload(entries, projected: bool) -> "list[Dict[str, Any]]":
    """Canonical list form of result entries, as :func:`result_to_payload`
    builds them: the dictionary form the response writer
    (:func:`encode_result`, :func:`encode_fetch`) must match byte for
    byte once encoded."""
    items = []
    for entry in entries:
        item: Dict[str, Any] = {
            "root_id": entry.root_id,
            "valid": _interval_to_list(entry.valid),
        }
        if projected:
            item["row"] = entry.row
        else:
            item["molecule"] = (entry.molecule.to_dict()
                                if entry.molecule is not None else None)
        items.append(item)
    return items


def result_to_payload(result, profile: Optional[Any] = None
                      ) -> Dict[str, Any]:
    """Canonical dictionary form of a :class:`~repro.mql.result.QueryResult`.

    The oracle of the server's response writer: QUERY/EXECUTE responses
    are :func:`encode_result`, which must equal ``encode_payload`` of
    this byte for byte, so "byte-identical to local execution" is a
    meaningful check.  EXPLAIN responses (which carry a profile) are
    encoded from it directly.
    """
    payload: Dict[str, Any] = {
        "plan": result.plan,
        "projected": result.projected,
        "entries": entries_to_payload(result, result.projected),
    }
    chosen = profile if profile is not None else result.profile
    if chosen is not None:
        payload["profile"] = chosen.to_dict()
    return payload


# -- response writing ----------------------------------------------------------

#: Receives one response's made ``(atom id, version, fragment)`` triples
#: and its count of fragment hits (``StorageEngine.keep_fragments``).
FragmentKeeper = Callable[[List[Tuple[int, Any, bytes]], int], None]


def version_fragment(version) -> bytes:
    """The ``"valid":...,"values":{...}`` members of *version*'s atom
    node: the last two in canonical key order, so a node ends with
    them."""
    return encode_payload({"valid": str(version.vt),
                           "values": dict(version.values)})[1:-1]


class _ResponseWriter:
    """Writes result entries as canonical JSON, byte-identical to
    :func:`encode_payload` of :func:`entries_to_payload`, by splicing
    each atom version's fragment into a per-occurrence shell
    (``atom_id``, ``children``, ``type``).

    A version's fragment is taken from the version when a response kept
    it there, else made once per response; :meth:`finish` hands what
    was made to the keeper.
    """

    __slots__ = ("parts", "out", "made", "hits", "_memo", "_types",
                 "_edges", "_molecule_types")

    def __init__(self) -> None:
        self.parts: List[bytes] = []
        self.out = self.parts.append
        self.made: List[Tuple[int, Any, bytes]] = []
        self.hits = 0
        self._memo: Dict[int, bytes] = {}
        self._types: Dict[str, bytes] = {}
        self._edges: Dict[Any, Tuple[str, bytes]] = {}
        self._molecule_types: Dict[int, bytes] = {}

    def entries(self, entries, projected: bool) -> None:
        out = self.out
        if projected:
            # Rows hold no versions: nothing to splice.
            out(encode_payload(entries_to_payload(entries, True)))
            return
        out(b"[")
        lead = b"{"
        for entry in entries:
            molecule = entry.molecule
            if molecule is None:
                out(lead + b'"molecule":null')
            else:
                out(lead + b'"molecule":{"molecule_type":')
                out(self._molecule_type(molecule.type))
                out(b',"root":')
                self.atom(molecule.root)
                out(b"}")
            valid = entry.valid
            out(b',"root_id":%d,"valid":[%d,%d]}'
                % (entry.root_id, valid.start, valid.end))
            lead = b",{"
        out(b"]")

    def atom(self, atom) -> None:
        out = self.out
        version = atom.version
        fragment = version.fragment
        if fragment is None:
            fragment = self._memo.get(id(version))
            if fragment is None:
                fragment = self._memo[id(version)] = version_fragment(version)
                self.made.append((atom.atom_id, version, fragment))
            else:
                self.hits += 1
        else:
            self.hits += 1
        children = atom.children
        if children:
            out(b'{"atom_id":%d,"children":{' % atom.atom_id)
            edges = self._edges
            keyed = []
            for edge, kids in children.items():
                key = edges.get(edge)
                if key is None:
                    text = str(edge)
                    key = edges[edge] = (text, encode_payload(text))
                keyed.append((key, kids))
            if len(keyed) > 1:
                keyed.sort(key=lambda pair: pair[0][0])
            lead = b""
            for (_, name), kids in keyed:
                out(lead)
                out(name)
                out(b":[")
                comma = b""
                for kid in kids:
                    out(comma)
                    self.atom(kid)
                    comma = b","
                out(b"]")
                lead = b","
            out(b'},"type":')
        else:
            out(b'{"atom_id":%d,"children":{},"type":' % atom.atom_id)
        typed = self._types.get(atom.type_name)
        if typed is None:
            typed = self._types[atom.type_name] = (
                encode_payload(atom.type_name) + b",")
        out(typed)
        out(fragment)
        out(b"}")

    def _molecule_type(self, molecule_type) -> bytes:
        encoded = self._molecule_types.get(id(molecule_type))
        if encoded is None:
            encoded = self._molecule_types[id(molecule_type)] = (
                encode_payload(str(molecule_type)))
        return encoded

    def finish(self, keep: FragmentKeeper) -> bytes:
        keep(self.made, self.hits)
        return b"".join(self.parts)


def encode_result(result, keep: FragmentKeeper) -> bytes:
    """``encode_payload(result_to_payload(result))``, written by
    splicing atom fragments; *keep* accounts the fragments (see
    :class:`_ResponseWriter`)."""
    writer = _ResponseWriter()
    out = writer.out
    out(b'{"entries":')
    writer.entries(result, result.projected)
    out(b',"plan":')
    out(encode_payload(result.plan))
    if result.profile is not None:
        out(b',"profile":')
        out(encode_payload(result.profile.to_dict()))
    out(b',"projected":')
    out(encode_payload(result.projected))
    out(b"}")
    return writer.finish(keep)


def encode_fetch(cursor_id: int, entries, projected: bool,
                 keep: FragmentKeeper) -> bytes:
    """The payload of a FETCH chunk that is not the last:
    ``{"cursor_id", "done": false, "entries"}``, entries written as
    :func:`encode_result` writes them."""
    writer = _ResponseWriter()
    writer.out(b'{"cursor_id":%d,"done":false,"entries":' % cursor_id)
    writer.entries(entries, projected)
    writer.out(b"}")
    return writer.finish(keep)


"""Change events: the shared vocabulary of SUBSCRIBE and DIFF.

An event is a plain JSON-safe dict with a fixed key set::

    {"kind":    "atom_created" | "attribute_changed" | "atom_deleted"
              | "link_added" | "link_removed",
     "atom_id": int,            # the touched atom (link events: the source)
     "type":    str | None,     # the atom's schema type name
     "tt":      int,            # transaction time of the change
     "vt":      [start, end],   # valid-time window the change covers
     "before":  dict | None,    # attribute values replaced (None: none)
     "after":   dict | None,    # attribute values established (None: gone)
     "link":    str | None,     # link events: the link type name
     "src":     int | None,     # link events: source atom id
     "dst":     int | None}     # link events: target atom id

Streamed events additionally carry ``lsn`` and ``txn_id``; those are
positional metadata of the log, not part of the change itself, and
:func:`fold_events` strips them.

The decoder turns one logged OPERATION into one event, reported as the
*state transition at the instant the operation's window governs*: the
before/after images (and the reported valid window) are read back from
the engine at the last instant the valid window covers, as believed
just before and just after the transaction time.  The WAL records an
update as its *changes* only — the temporal store itself is the
before-image archive; CDC needs no extra logging.  Reading the images
back (rather than echoing the logged window) matters once corrections
have fragmented an atom's validity: the logged window then names
several version slices, and the one governing the instant is what DIFF
reads from its time slices — so the two stay byte-identical.  An
operation that does not change the instant's state (an idempotent
re-link, an unlink that removes nothing) decodes to ``None``.  (The
flip side: decoding assumes the history is retained — a vacuum that
discards superseded versions limits how far back a cold subscriber can
decode exact before-images.)

Images are ``AS OF`` point reads, read a run of operations at a time
(:class:`ImageReader`; a ``SUBSCRIBE`` batch reads its committed
operations in chunks of at most its ``max_records``): one engine call
selects every image newest-first from the stored envelopes and peeked
transaction times, reads only the records it walks past on the way to
each image, and decodes only the versions selected — at most two per
event, however long the atoms' histories are.

:func:`fold_events` is the consumer-side replay: net the events of a
window ``(t1, t2]`` at one valid instant into the same records
``DIFF <molecule> BETWEEN t1 AND t2`` computes from two time slices.
The differential oracle in the tests holds the two byte-identical.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.version import OUT, split_ref_key
from repro.errors import UnknownAtomError
from repro.temporal import FOREVER

#: Every event kind, in no particular order (filters validate against it).
EVENT_KINDS = frozenset((
    "atom_created", "attribute_changed", "atom_deleted",
    "link_added", "link_removed",
))

_VALUE_KINDS = ("atom_created", "attribute_changed", "atom_deleted")


def event_record(kind: str, atom_id: int, type_name: Optional[str],
                 tt: int, vt: Tuple[int, int],
                 before: Optional[Dict[str, Any]] = None,
                 after: Optional[Dict[str, Any]] = None,
                 link: Optional[str] = None,
                 src: Optional[int] = None,
                 dst: Optional[int] = None) -> Dict[str, Any]:
    """Build one canonical event dict (every key always present)."""
    return {
        "kind": kind,
        "atom_id": atom_id,
        "type": type_name,
        "tt": tt,
        "vt": [vt[0], vt[1]],
        "before": dict(before) if before is not None else None,
        "after": dict(after) if after is not None else None,
        "link": link,
        "src": src,
        "dst": dst,
    }


def event_sort_key(event: Dict[str, Any]) -> Tuple:
    """Deterministic event ordering used by DIFF rows and the fold."""
    return (event["atom_id"], event["kind"], event["link"] or "",
            event["src"] or -1, event["dst"] or -1, event["tt"])


def _type_name(engine, atom_id: int) -> Optional[str]:
    try:
        return engine.atom_type_name(atom_id)
    except UnknownAtomError:
        return None  # vacuumed or never-applied atom; event stays usable


def _has_out_ref(version, link: str, dst: int) -> bool:
    if version is None:
        return False
    for key, partners in version.refs.items():
        name, direction = split_ref_key(key)
        if name == link and direction == OUT and dst in partners:
            return True
    return False


_Parsed = Tuple[str, int, Tuple[int, int], int]
_Request = Tuple[int, int, int]


def _parse(payload: Dict[str, Any]) -> Optional[_Parsed]:
    """``(op, tt, valid window, subject atom)`` of a logged OPERATION
    payload, or ``None`` for an operation no event reports.  The subject
    is the atom whose images are read: a link's source, else the atom."""
    op = payload.get("op")
    if op == "correct":
        window = (int(payload["ws"]), int(payload["we"]))
    elif op in ("insert", "update", "delete", "link", "unlink"):
        window = (int(payload["vf"]), int(payload["vt"]))
    else:
        return None
    subject = int(payload["src"] if op in ("link", "unlink")
                  else payload["atom_id"])
    return op, int(payload["tt"]), window, subject


def _image_requests(parsed: _Parsed) -> List[_Request]:
    """The ``AS OF`` point reads of an operation's after- and
    before-image: its subject at the window's last instant, as believed
    at the transaction time and just before it (transaction time 0 has
    no earlier belief)."""
    _, tt, window, subject = parsed
    probe = window[1] - 1
    if tt > 0:
        return [(subject, probe, tt), (subject, probe, tt - 1)]
    return [(subject, probe, tt)]


class ImageReader:
    """Reads the images of a run of logged operations ahead, one chunk
    per engine call.

    Built over the run's payloads in log order, and handed to
    :func:`decode_operation` for each of them in that order.  When the
    chunk read last cannot answer an operation, the next ``limit()``
    operations of the run are read together with one
    :meth:`~repro.core.engine.StorageEngine.point_reads`, which
    reads and decodes only the versions the images select.
    """

    def __init__(self, engine, payloads: Iterable[Dict[str, Any]],
                 limit: Callable[[], int]) -> None:
        self._engine = engine
        self._ahead = iter(payloads)
        self._limit = limit
        self._images: Dict[_Request, Any] = {}

    def images(self, requests: List[_Request]) -> Dict[_Request, Any]:
        """A map answering every one of *requests*."""
        if not all(request in self._images for request in requests):
            chunk = [parsed for parsed in map(
                _parse, islice(self._ahead, self._limit()))
                if parsed is not None]
            self._images = self._engine.point_reads(
                request for parsed in chunk
                for request in _image_requests(parsed))
        return self._images


def decode_operation(engine, payload: Dict[str, Any],
                     reader: Optional[ImageReader] = None
                     ) -> Optional[Dict[str, Any]]:
    """Decode one logged OPERATION payload into a change event.

    The operation is reported as the state transition it caused at the
    last instant its valid window covers (for the open-ended windows of
    "change it now" operations: the current-state instant): the
    before-image is the version governing that instant as believed just
    before the transaction time, the after-image the one believed just
    after, both read back from the engine — in one call of their own,
    or from *reader* when the caller decodes a run of operations.  The
    event's ``vt`` is the after-image's valid window (the record the
    operation established) — which is also what DIFF reports for the
    same transition.  Returns ``None`` when the operation changed
    nothing at that instant: an idempotent re-link, an unlink removing
    nothing, or an operation on a vacuumed atom whose history is gone.
    """
    parsed = _parse(payload)
    if parsed is None:
        return None
    requests = _image_requests(parsed)
    images = (engine.point_reads(requests) if reader is None
              else reader.images(requests))
    after_v = images[requests[0]]
    before_v = images[requests[1]] if len(requests) > 1 else None
    op, tt, window, subject = parsed
    if op in ("link", "unlink"):
        dst = int(payload["dst"])
        link = payload["link"]
        was = _has_out_ref(before_v, link, dst)
        now = _has_out_ref(after_v, link, dst)
        if was == now:
            # The engine accepts (and logs) a link that already holds
            # or an unlink of a window that removes nothing without
            # changing the version graph: no schema-level change.
            return None
        host = after_v if after_v is not None else before_v
        return event_record(
            "link_added" if now else "link_removed",
            subject, _type_name(engine, subject), tt,
            (host.vt.start, host.vt.end),
            link=link, src=subject, dst=dst)
    if before_v is None and after_v is None:
        return None
    type_name = (payload["type"] if op == "insert"
                 else _type_name(engine, subject))
    before = dict(before_v.values) if before_v is not None else None
    after = dict(after_v.values) if after_v is not None else None
    if after_v is not None:
        kind = "atom_created" if before_v is None else "attribute_changed"
        vt = (after_v.vt.start, after_v.vt.end)
    else:
        kind = "atom_deleted"
        # The window the deletion removed: its logged start, clipped to
        # the removed record's own start (a correction may have split
        # validity so the governing slice starts inside the window).
        vt = (max(window[0], before_v.vt.start), window[1])
    return event_record(kind, subject, type_name, tt, vt,
                        before=before, after=after)


def fold_events(events: Iterable[Dict[str, Any]], t1: int, t2: int,
                at: Optional[int] = None) -> List[Dict[str, Any]]:
    """Net a change stream over ``(t1, t2]`` at one valid instant.

    Keeps only events whose transaction time lies in the window and
    whose valid-time interval covers *at* (default: the current-state
    instant ``FOREVER - 1``), then nets them:

    * per atom, the first effective before-image and the last effective
      after-image determine one value row (created / changed / deleted),
      or none when the values net out;
    * per ``(link, src, dst)`` triple, adds and removes cancel pairwise;
      a surviving net transition reports the last event's times — unless
      the source atom no longer exists at the window end, in which case
      its links are implied by the deletion and reported by no row.

    The result carries the same canonical records, in the same order,
    as ``DIFF <molecule> BETWEEN t1 AND t2`` — restricted to the atoms
    the caller cares about (the fold itself is scope-free; DIFF scopes
    to molecule membership).
    """
    instant = FOREVER - 1 if at is None else at
    # Per-atom value netting state, in first-touch order.
    value_state: Dict[int, Dict[str, Any]] = {}
    # Per-triple link netting: first kind, last event.
    link_state: Dict[Tuple[str, int, int], Dict[str, Any]] = {}
    for event in events:
        if not (t1 < event["tt"] <= t2):
            continue
        vt = event["vt"]
        if not (vt[0] <= instant < vt[1]):
            continue
        kind = event["kind"]
        if kind in _VALUE_KINDS:
            state = value_state.get(event["atom_id"])
            if state is None:
                state = {"initial": event["before"], "last": None,
                         "final": None}
                value_state[event["atom_id"]] = state
            state["final"] = event["after"]
            if event["before"] != event["after"]:
                state["last"] = event
        elif kind in ("link_added", "link_removed"):
            key = (event["link"], event["src"], event["dst"])
            entry = link_state.get(key)
            if entry is None:
                link_state[key] = {"first": kind, "last": event}
            else:
                entry["last"] = event
    rows: List[Dict[str, Any]] = []
    for atom_id, state in value_state.items():
        last = state["last"]
        if last is None:
            continue  # only no-op touches; values never moved
        initial, final = state["initial"], last["after"]
        if initial == final:
            continue  # netted out (includes created-then-deleted)
        if initial is None:
            kind = "atom_created"
        elif final is None:
            kind = "atom_deleted"
        else:
            kind = "attribute_changed"
        rows.append(event_record(kind, atom_id, last["type"], last["tt"],
                                 tuple(last["vt"]),
                                 before=initial, after=final))
    for entry in link_state.values():
        last = entry["last"]
        if entry["first"] != last["kind"]:
            continue  # add/remove pairs cancel
        source = value_state.get(last["atom_id"])
        if source is not None and source["final"] is None:
            # The source atom does not exist at the window end; its
            # links are implied by the deletion, matching DIFF.
            continue
        rows.append(event_record(last["kind"], last["atom_id"],
                                 last["type"], last["tt"],
                                 tuple(last["vt"]), link=last["link"],
                                 src=last["src"], dst=last["dst"]))
    rows.sort(key=event_sort_key)
    return rows

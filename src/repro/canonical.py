"""Canonical JSON: the one encoding of every wire payload.

Sorted keys, minimal separators, UTF-8 — so the same logical value
always serializes to the same bytes, and a payload assembled from
pieces encoded separately (:func:`splice_payload`, the server's
response writer) is byte-identical to encoding the whole at once.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.errors import SerializationError


#: Built once: ``json.dumps`` with these arguments builds an encoder per
#: call.  Payloads are trees of decoded data, never cyclic, so the
#: circular-reference check (a dict insert per container) is off.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=False, check_circular=False)


def encode_payload(obj: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, minimal separators, UTF-8.

    A string UTF-8 cannot hold (a lone surrogate) raises
    :class:`SerializationError`.
    """
    try:
        return _ENCODER.encode(obj).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SerializationError(
            f"payload is not valid UTF-8: {exc.reason}") from None


def splice_payload(payload: Dict[str, Any], key: str,
                   items: List[bytes]) -> bytes:
    """``encode_payload`` of *payload* with the list under *key* given
    as its items' canonical bytes, which are spliced, not re-encoded."""
    before = encode_payload({k: v for k, v in payload.items() if k < key})
    after = encode_payload({k: v for k, v in payload.items() if k > key})
    return b"".join((
        before[:-1], b"," if len(before) > 2 else b"",
        encode_payload(key), b":[", b",".join(items), b"]",
        b"," if len(after) > 2 else b"", after[1:]))

"""Bitemporal version records.

A :class:`Version` is one immutable state of an atom: its attribute
values, its reference sets (per link and direction), a valid-time interval
(*when the state held in the modelled world*), and a transaction-time
interval (*when the database believed it*).

Reference sets are keyed by ``"<link>.out"`` (targets this atom points to
as the link's source) and ``"<link>.in"`` (sources pointing at this atom);
the split keeps self-referencing link types unambiguous and makes the
symmetric back-reference explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, FrozenSet, Mapping, Optional

from repro.temporal import FOREVER, Interval

#: Direction suffixes of reference-set keys.
OUT = "out"
IN = "in"


def ref_key(link_name: str, direction: str) -> str:
    """Build the reference-set key for a link and direction."""
    if direction not in (OUT, IN):
        raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
    return f"{link_name}.{direction}"


def split_ref_key(key: str) -> tuple[str, str]:
    """Inverse of :func:`ref_key`."""
    link_name, _, direction = key.rpartition(".")
    return link_name, direction


@dataclass(frozen=True, slots=True)
class Version:
    """One immutable bitemporal state of an atom.

    The last two fields are the engine's cache bookkeeping, not state:
    ``slot_seq`` marks the full decode a cache slot holds (the slot's
    sequence number), and ``fragment`` is that decode's canonical JSON
    fragment once a response has kept it there (see
    :meth:`repro.core.engine.StorageEngine.keep_fragments`).  Neither
    is compared, nor copied by ``replace`` — so no derived version
    (:meth:`with_vt`, :meth:`with_state`, :meth:`closed_at`) inherits a
    fragment of other content.
    """

    vt: Interval
    tt: Interval
    values: Mapping[str, Any] = field(default_factory=dict)
    refs: Mapping[str, FrozenSet[int]] = field(default_factory=dict)
    slot_seq: Optional[int] = field(default=None, init=False, repr=False,
                                    compare=False)
    fragment: Optional[bytes] = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def live(self) -> bool:
        """Part of current knowledge (transaction time still open)?"""
        return self.tt.end == FOREVER

    def targets(self, link_name: str, direction: str = OUT) -> FrozenSet[int]:
        """Partner atom ids for a link in a direction (empty if none)."""
        return self.refs.get(ref_key(link_name, direction), frozenset())

    # -- derivation helpers (used by the history algebra) ---------------------

    def with_vt(self, vt: Interval) -> "Version":
        return replace(self, vt=vt)

    def closed_at(self, tt_now: int) -> "Version":
        """This version with its transaction time closed at *tt_now*."""
        return replace(self, tt=Interval(self.tt.start, tt_now))

    def with_state(self, values: Mapping[str, Any],
                   refs: Mapping[str, FrozenSet[int]]) -> "Version":
        return replace(self, values=dict(values),
                       refs={k: frozenset(v) for k, v in refs.items()})

    def same_state_as(self, other: "Version") -> bool:
        """Equal attribute values and reference sets (times ignored)."""
        return (dict(self.values) == dict(other.values)
                and {k: v for k, v in self.refs.items() if v}
                == {k: v for k, v in other.refs.items() if v})

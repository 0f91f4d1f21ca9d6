"""The pure bitemporal history algebra.

Everything here is a pure function over sequences of
:class:`~repro.core.version.Version` — no storage, no transactions.  The
engine translates the returned *plans* into version-store operations, and
the in-memory reference oracle executes the same functions directly, which
is what makes differential testing of the engine possible.

Update semantics (valid-time, at transaction time ``tt_now``):

* A change effective from ``t`` applies to every *live* version whose
  validity overlaps ``[t, ...)``.  Each affected version is transaction-
  time **closed** (never destroyed) and replaced by up to two successors:
  an unchanged prefix covering validity before the change window, and a
  changed remainder.
* Logical deletion truncates validity the same way, just without the
  changed remainder.
* Bitemporal **corrections** are the general case: rewrite a past window
  of validity as of a new transaction time; ``AS OF`` an older
  transaction time still reconstructs the superseded belief.

Invariant (checked by :func:`check_history`): at every transaction-time
instant, the versions of one atom believed at that instant have pairwise
disjoint valid-time intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.version import Version
from repro.errors import SerializationConflictError, TemporalUpdateError
from repro.temporal import FOREVER, TMIN, Interval, TemporalElement, Timestamp
from repro.temporal.timestamp import MAX_CHRONON

#: A transform receives a version and returns its changed successor state
#: (values, refs) — or ``None`` to delete validity inside the window.
StateTransform = Callable[[Version], Optional[Version]]


@dataclass
class HistoryPlan:
    """The delta a revision produces, ready to map onto a version store.

    ``closures`` and ``rewrites`` both replace an existing version record
    (sequence number, new version): a *closure* ends the old version's
    transaction time (history is preserved), a *rewrite* overwrites a
    version created by the very same transaction tick (there is no
    observable knowledge state in which the old content was ever
    believed, so nothing is lost).  ``appends`` add new versions.
    """

    closures: List[Tuple[int, Version]] = field(default_factory=list)
    rewrites: List[Tuple[int, Version]] = field(default_factory=list)
    appends: List[Version] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.closures and not self.rewrites and not self.appends


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


#: The belief in current knowledge: the last chronon, which only open
#: transaction times reach.
CURRENT = Interval.instant(MAX_CHRONON)


def belief(tt: Optional[Timestamp] = None) -> Interval:
    """The instant a version's transaction time meets when believed at
    *tt*, and the one map from a transaction time to a belief: for
    current knowledge — *tt* ``None`` or at or past ``FOREVER`` —
    :data:`CURRENT`; before the chronon domain ``TMIN``, which none
    reach."""
    if tt is None or tt >= FOREVER:
        return CURRENT
    return Interval.instant(max(tt, TMIN))


def live_versions(versions: Sequence[Version],
                  tt: Optional[Timestamp] = None
                  ) -> List[Tuple[int, Version]]:
    """Versions believed at transaction time *tt* (default: now/open).

    Returns (sequence number, version) pairs in sequence order.
    """
    window = belief(tt)
    return [(seq, v) for seq, v in enumerate(versions)
            if v.tt.overlaps(window)]


def version_at(versions: Sequence[Version], at: Timestamp,
               tt: Optional[Timestamp] = None) -> Optional[Version]:
    """The version valid at instant *at*, as believed at *tt*."""
    for _, version in live_versions(versions, tt):
        if version.vt.contains(at):
            return version
    return None


def versions_during(versions: Sequence[Version], window: Interval,
                    tt: Optional[Timestamp] = None) -> List[Version]:
    """Believed versions overlapping *window*, sorted by valid time."""
    hits = [v for _, v in live_versions(versions, tt)
            if v.vt.overlaps(window)]
    hits.sort(key=lambda v: v.vt)
    return hits


def lifespan(versions: Sequence[Version],
             tt: Optional[Timestamp] = None) -> TemporalElement:
    """The temporal element over which the atom exists, as believed at *tt*."""
    return TemporalElement(v.vt for _, v in live_versions(versions, tt))


# ---------------------------------------------------------------------------
# Revision (the single general mutation)
# ---------------------------------------------------------------------------


def revise(versions: Sequence[Version], window: Interval,
           tt_now: Timestamp, transform: StateTransform,
           require_overlap: bool = True) -> HistoryPlan:
    """Rewrite the atom's state inside *window* as of *tt_now*.

    Every live version overlapping the window is closed and re-created as:
    unchanged prefix, transformed middle (omitted when *transform* returns
    ``None`` — deletion), unchanged suffix.  Versions outside the window
    are untouched.
    """
    return revise_pairs(live_versions(versions), window, tt_now, transform,
                        require_overlap)


def revise_pairs(live: Sequence[Tuple[int, Version]], window: Interval,
                 tt_now: Timestamp, transform: StateTransform,
                 require_overlap: bool = True) -> HistoryPlan:
    """:func:`revise` over pre-selected live (sequence, version) pairs.

    Revision only ever touches live versions, so callers that can
    enumerate them directly (the engine's live-set cache, a store's
    current segment) skip materialising — and decoding — the closed
    majority of a long history.  *live* must be exactly the atom's live
    versions with their store sequence numbers.
    """
    plan = HistoryPlan()
    touched = False
    for seq, version in live:
        overlap = version.vt.intersect(window)
        if overlap is None:
            continue
        if version.tt.start > tt_now:
            # A conflicting transaction with a later transaction time
            # already committed this state; closing it at tt_now would
            # invert transaction time.  (Transaction times are assigned
            # at begin, lock order at first conflict — the mismatch is
            # resolved by aborting the older-stamped transaction.)
            raise SerializationConflictError(
                f"version committed at tt={version.tt.start} is newer "
                f"than this transaction (tt={tt_now}); retry")
        touched = True
        transformed = transform(version)
        if (transformed is not None
                and dict(transformed.values) == dict(version.values)
                and {k: v for k, v in transformed.refs.items() if v}
                == {k: v for k, v in version.refs.items() if v}):
            # The transform leaves this version's state unchanged:
            # closing and re-creating it would only churn history.
            continue
        new_tt = Interval(tt_now, FOREVER)
        pieces: List[Version] = []
        prefix = version.vt.clamp_end(window.start)
        if prefix is not None:
            pieces.append(Version(prefix, new_tt, version.values,
                                  version.refs))
        if transformed is not None:
            pieces.append(Version(overlap, new_tt, transformed.values,
                                  transformed.refs))
        suffix = version.vt.clamp_start(window.end)
        if suffix is not None:
            pieces.append(Version(suffix, new_tt, version.values,
                                  version.refs))
        if version.tt.start == tt_now:
            # Created by this very transaction tick: no knowledge state
            # ever held the old content, so rewrite it in place.
            if pieces:
                plan.rewrites.append((seq, pieces[0]))
                plan.appends.extend(pieces[1:])
            else:
                # The version vanishes entirely; it remains on record as
                # a stillborn (closed within its creation chronon).
                plan.rewrites.append((seq, Version(
                    version.vt, Interval(tt_now, tt_now + 1),
                    version.values, version.refs)))
        else:
            plan.closures.append((seq, version.closed_at(tt_now)))
            plan.appends.extend(pieces)
    if require_overlap and not touched:
        raise TemporalUpdateError(
            f"atom has no valid state inside {window}")
    return plan


def insert_plan(values: dict, refs: dict, window: Interval,
                tt_now: Timestamp,
                existing: Sequence[Version] = (),
                existing_live: Optional[Sequence[Tuple[int, Version]]] = None
                ) -> HistoryPlan:
    """Plan for asserting a new state over *window*.

    Rejects overlap with currently believed validity — inserting over an
    existing state is a correction, not an insertion.  *existing_live*,
    when given, supplies the pre-selected live pairs and *existing* is
    ignored.
    """
    pairs = (live_versions(existing) if existing_live is None
             else existing_live)
    for _, version in pairs:
        if version.vt.overlaps(window):
            raise TemporalUpdateError(
                f"validity {window} overlaps existing version {version.vt}")
    version = Version(window, Interval(tt_now, FOREVER), dict(values),
                      {k: frozenset(v) for k, v in refs.items()})
    return HistoryPlan(appends=[version])


# ---------------------------------------------------------------------------
# Invariant checking
# ---------------------------------------------------------------------------


def check_history(versions: Sequence[Version]) -> None:
    """Raise :class:`TemporalUpdateError` if the bitemporal invariant fails.

    For every pair of versions whose transaction-time intervals overlap,
    valid-time intervals must be disjoint: no instant of belief ever holds
    two states for the same valid instant.  Pairs created by the *same*
    transaction tick where one side was superseded within that tick
    (intermediate states) are exempt — a transaction may observe its own
    in-progress revisions at its own transaction time.
    """
    for i, a in enumerate(versions):
        for b in versions[i + 1:]:
            if not (a.tt.overlaps(b.tt) and a.vt.overlaps(b.vt)):
                continue
            same_tick = a.tt.start == b.tt.start
            if same_tick and (not a.live or not b.live):
                continue
            raise TemporalUpdateError(
                f"versions {a.vt}@{a.tt} and {b.vt}@{b.tt} overlap "
                f"bitemporally")


def coalesce_timeline(versions: Sequence[Version],
                      tt: Optional[Timestamp] = None) -> List[Version]:
    """The believed timeline with value-identical adjacent versions merged.

    Useful for presenting histories: corrections and prefix splits leave
    adjacent versions with identical state, which readers perceive as one
    period.
    """
    timeline = versions_during(
        versions, Interval.always(), tt)
    merged: List[Version] = []
    for version in timeline:
        if (merged and merged[-1].vt.meets(version.vt)
                and merged[-1].same_state_as(version)):
            merged[-1] = merged[-1].with_vt(
                Interval(merged[-1].vt.start, version.vt.end))
        else:
            merged.append(version)
    return merged

"""Temporal DIFF: net change events between two time slices.

``DIFF <molecule> BETWEEN t1 AND t2`` asks how the current state of
each molecule (the valid instant ``FOREVER - 1``) evolved between two
transaction times: what the database believed at ``t1`` versus at
``t2``.  The answer is reported as the same canonical event records the
SUBSCRIBE change stream emits (:mod:`repro.cdc.events`), netted — one
value row per atom whose attributes moved, one link row per reference
that appeared or disappeared.

The computation is read-side only: for every atom in scope the records
valid at the instant and believed somewhere in ``[t1, t2]`` (one batched
``all_versions_many`` interval read) are walked over the belief-time
boundaries inside ``(t1, t2]``, tracking how the record governing the
instant changes.  The *last* transition that changed values (or a
reference) supplies the row's transaction time and valid window — by
construction the record as originally written by that operation, which
is exactly what the WAL decoder reports for the same operation.  That
correspondence is what makes the differential oracle (`fold_events` over
the subscribed stream == DIFF) hold exactly.

Three deliberate semantic choices, shared with the fold:

* A creation brings its references: an atom created inside the window
  reports one ``link_added`` row per outgoing reference of its new
  state, because the linking operations were logged explicitly even
  when they shared the creating transaction.
* A deleted atom's outgoing links are implied by its deletion — no link
  rows are reported for an atom that no longer exists at the window
  end, because deletion truncates validity without logging per-link
  removals.
* Belief revisions that rewrite a state without changing it (an update
  to the same values) are not transitions; the row's times come from
  the last *effective* change.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Optional, Tuple

from repro.cdc.events import event_record, event_sort_key
from repro.core.version import OUT, Version, split_ref_key
from repro.temporal import FOREVER, TMIN, Interval
from repro.temporal.timestamp import MAX_CHRONON

#: Sentinel meaning "the atom has no state at the instant".
_ABSENT = None


def _out_refs(version: Optional[Version]) -> Dict[Tuple[str, int], Version]:
    """``(link, dst) -> version`` for every outgoing reference."""
    refs: Dict[Tuple[str, int], Version] = {}
    if version is None:
        return refs
    for key, partners in version.refs.items():
        link, direction = split_ref_key(key)
        if direction != OUT:
            continue
        for dst in partners:
            refs[(link, dst)] = version
    return refs


def _deleted_vt(engine, atom_id: int, tau: int, removed: Version,
                instant: int) -> Tuple[int, int]:
    """The valid window a deletion at belief time *tau* removed.

    A delete splits the governing record: its in-window remainder (if
    any) reappears truncated, with the same valid start and a new end at
    the deletion's window start.  That twin's end is the deletion window
    start the original operation logged.  Valid at *removed*'s start as
    believed at *tau*, it is in the one interval read this takes."""
    twins = engine.all_versions_many(
        [atom_id], Interval.instant(removed.vt.start),
        Interval.instant(tau)).get(atom_id, ())
    for version in twins:
        if (version.tt.start == tau
                and version.vt.start == removed.vt.start
                and version.vt.end <= instant):
            return (version.vt.end, FOREVER)
    return (removed.vt.start, FOREVER)


def atom_delta(engine, records: List[Version], type_name: Optional[str],
               atom_id: int, t1: int, t2: int,
               instant: int) -> List[Dict[str, Any]]:
    """Net change events for one atom between belief times t1 and t2,
    from its *records* valid at *instant* and believed in ``[t1, t2]``."""
    # The records sorted by belief start; the sort is stable, so
    # records with the same start keep their seq order.  The governing
    # record at a belief time is the last one starting at or before it:
    # when several start at the same belief time (a record written and
    # superseded in one transaction beside its successor), the one with
    # the higher seq — the newer one — governs, the engine's
    # newest-first ``AS OF`` rule.
    candidates = sorted(records, key=lambda v: v.tt.start)
    starts = [v.tt.start for v in candidates]
    boundaries = sorted(
        {v.tt.start for v in candidates if t1 < v.tt.start <= t2}
        | {v.tt.end for v in candidates
           if v.tt.end != FOREVER and t1 < v.tt.end <= t2})

    def state_at(tau: int) -> Optional[Version]:
        index = bisect_right(starts, tau) - 1
        if index >= 0 and tau < candidates[index].tt.end:
            return candidates[index]
        return _ABSENT

    initial = state_at(t1)
    prev = initial
    # Each record governs one run of belief times, so it is the current
    # state of at most one step: its references are computed once.
    prev_refs = _out_refs(prev)
    last_value: Optional[Tuple[int, Optional[Version],
                               Optional[Version]]] = None
    link_transitions: Dict[Tuple[str, int], List[Tuple[str, int,
                                                       Version]]] = {}
    for tau in boundaries:
        cur = state_at(tau)
        if cur is prev:
            continue
        prev_vals = dict(prev.values) if prev is not None else None
        cur_vals = dict(cur.values) if cur is not None else None
        if prev_vals != cur_vals:
            last_value = (tau, prev, cur)
        cur_refs = _out_refs(cur)
        if cur is not None:
            # A creation (prev absent) adds every reference of the new
            # state; between two existing states, set difference.  A
            # deletion adds nothing — see the module docstring.
            for key in cur_refs.keys() - prev_refs.keys():
                link_transitions.setdefault(key, []).append(
                    ("link_added", tau, cur_refs[key]))
            if prev is not None:
                for key in prev_refs.keys() - cur_refs.keys():
                    link_transitions.setdefault(key, []).append(
                        ("link_removed", tau, cur))
        prev, prev_refs = cur, cur_refs
    final = prev
    if final is None:
        # The atom does not exist at the window end: its links are
        # implied by the deletion (or never netted into existence).
        link_transitions.clear()
    rows: List[Dict[str, Any]] = []
    initial_vals = dict(initial.values) if initial is not None else None
    final_vals = dict(final.values) if final is not None else None
    if initial_vals != final_vals and last_value is not None:
        tau, removed, established = last_value
        if initial is None:
            kind = "atom_created"
        elif final is None:
            kind = "atom_deleted"
        else:
            kind = "attribute_changed"
        if established is not None:
            vt = (established.vt.start, established.vt.end)
        else:
            vt = _deleted_vt(engine, atom_id, tau, removed, instant)
        rows.append(event_record(kind, atom_id, type_name, tau, vt,
                                 before=initial_vals, after=final_vals))
    for (link, dst), transitions in link_transitions.items():
        first_kind = transitions[0][0]
        kind, tau, record = transitions[-1]
        if first_kind != kind:
            continue  # appeared and disappeared: netted out
        rows.append(event_record(kind, atom_id, type_name, tau,
                                 (record.vt.start, record.vt.end),
                                 link=link, src=atom_id, dst=dst))
    rows.sort(key=event_sort_key)
    return rows


def compute_diff(engine, scopes: Dict[int, Dict[int, Optional[str]]],
                 t1: int, t2: int,
                 at: int = FOREVER - 1) -> Dict[int, List[Dict[str, Any]]]:
    """Net change events per root between belief times t1 and t2.

    *scopes* maps each root id to its atom scope — ``atom_id -> type
    name`` for every atom in the molecule at either endpoint.  All
    records are selected in one batched read; an atom shared by several
    molecules is walked once.
    """
    all_ids: Dict[int, Optional[str]] = {}
    for scope in scopes.values():
        all_ids.update(scope)
    # Bounds clamped to the chronon domain meet the same records.
    low, high = (min(max(t, TMIN), MAX_CHRONON) for t in (t1, t2))
    histories = engine.all_versions_many(
        list(all_ids), Interval.instant(at), Interval(low, high + 1))
    deltas = {atom_id: atom_delta(engine, histories.get(atom_id, []),
                                  type_name, atom_id, t1, t2, at)
              for atom_id, type_name in all_ids.items()}
    return {root_id: sorted((row for atom_id in scope
                             for row in deltas[atom_id]),
                            key=event_sort_key)
            for root_id, scope in scopes.items()}

"""Transaction-time vacuuming.

Bitemporal semantics never destroy superseded versions, so storage
grows with every correction forever.  Vacuuming trades old knowledge
states for space: every version whose transaction time ended **before**
a cutoff is physically removed; ``AS OF τ`` queries with ``τ`` older
than the cutoff become unanswerable, everything else is unaffected.

The vacuum rebuilds each affected atom in place through the version
store (delete and re-append), holds the exclusive side of the facade's
state latch, requires a quiescent database with no registered WAL
cursors, and checkpoints when done so the reclaimed space is durable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.database import TemporalDatabase
from repro.errors import TransactionStateError
from repro.storage.strategies import iter_histories
from repro.temporal import Timestamp


@dataclass
class VacuumReport:
    """What a vacuum run removed."""

    atoms_visited: int = 0
    atoms_rewritten: int = 0
    versions_removed: int = 0
    versions_kept: int = 0

    def summary(self) -> str:
        return (f"vacuum: removed {self.versions_removed} superseded "
                f"versions across {self.atoms_rewritten} atoms "
                f"({self.versions_kept} kept)")


def vacuum_superseded(db: TemporalDatabase,
                      before_tt: Timestamp) -> VacuumReport:
    """Physically remove versions superseded before *before_tt*.

    Returns a :class:`VacuumReport`.  Raises
    :class:`TransactionStateError` when transactions are active or a WAL
    cursor is registered: vacuum is not logged, so replicas would keep
    versions the primary dropped and lagging CDC subscribers could no
    longer decode theirs.
    """
    if db._txn_manager.active_transactions():
        raise TransactionStateError("vacuum requires a quiescent database")
    cursors = sorted(db._wal.subscribers())
    if cursors:
        raise TransactionStateError(
            f"vacuum refused while WAL cursors are registered: "
            f"{', '.join(cursors)}; unsubscribe them first")
    report = VacuumReport()
    store = db.engine.store
    with db._state_latch.write():
        for atom_id, stored_versions in iter_histories(
                store, list(store.atom_ids())):
            report.atoms_visited += 1
            keep = [sv for _seq, sv in stored_versions
                    if sv.tt_end > before_tt]
            removed = len(stored_versions) - len(keep)
            report.versions_kept += len(keep)
            if removed == 0:
                continue
            report.atoms_rewritten += 1
            report.versions_removed += removed
            type_id = db.schema.atom_type(
                db.engine.atom_type_name(atom_id)).type_id
            store.delete_atom(atom_id)
            if keep:
                for stored in keep:
                    store.append_version(atom_id, stored)
            else:
                # Every version gone: the atom itself disappears.
                db.engine.indexes.unregister_atom(type_id, atom_id)
            # The rewrite bypassed _apply_plan, so sequence numbers may
            # now address different versions: drop the cached decodes.
            db.engine.invalidate_atom_caches(atom_id)
    db.checkpoint()
    return report

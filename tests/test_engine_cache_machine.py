"""A stateful oracle for the engine's cache.

The engine's per-atom cache entry (``DecodedVersionCache``) holds most
of the read path's subtlety: the ``whole`` and ``live_known`` flags,
slots left by point reads, repair after a mutation's plan, and
eviction under a byte budget.  This machine interleaves committed
mutations, rolled-back transactions, refused operations, reads of every
kind, cache drops and a close and reopen, and after each read holds the
database to :class:`~repro.testing.ReferenceDatabase`, which runs the
same history algebra on plain lists.  It runs on every strategy at a
budget that caches nothing (1 byte), one that evicts constantly (4096)
and the default.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

from repro import DatabaseConfig, TemporalDatabase
from repro.core import history as hist
from repro.core.engine import DEFAULT_DECODE_CACHE_BYTES
from repro.errors import ReproError
from repro.temporal import FOREVER, Interval
from repro.temporal.timestamp import MAX_CHRONON
from repro.testing import ReferenceDatabase
from repro.workloads import cad_schema

#: An atom id no operation ever creates.
UNKNOWN = 10_000

_times = st.integers(0, 50)
_instants = st.sampled_from([0, 5, 10, 20, 35, 50, MAX_CHRONON, FOREVER])
_sides = st.one_of(
    st.just(Interval.always()), st.just(hist.belief()),
    _times.map(Interval.instant),
    st.tuples(_times, st.integers(1, 30)).map(
        lambda pair: Interval(pair[0], pair[0] + pair[1])))


class EngineCacheMachine(RuleBasedStateMachine):
    def __init__(self, strategy, budget) -> None:
        super().__init__()
        self.path = tempfile.mkdtemp(prefix="cachemachine")
        self.config = DatabaseConfig(strategy=strategy, buffer_pages=32,
                                     durability="none",
                                     decode_cache_bytes=budget)
        schema = cad_schema()
        self.db = TemporalDatabase.create(f"{self.path}/db", schema,
                                          self.config)
        self.ref = ReferenceDatabase(schema)
        self.parts: list = []
        self.comps: list = []

    def teardown(self) -> None:
        if not self.db._closed:
            self.db.close()
        shutil.rmtree(self.path, ignore_errors=True)

    # -- mutations ----------------------------------------------------------

    def _operations(self, draw_ops):
        """``(db op, reference op)`` pairs for the drawn operations, each
        taking the transaction and its transaction time."""
        ops = []
        for kind, pick, other, start, length, value in draw_ops:
            end = start + length
            part = self.parts[pick % len(self.parts)] if self.parts else None
            comp = self.comps[other % len(self.comps)] if self.comps else None
            if kind == "insert_part":
                atom = self.db._allocate_atom_id()
                self.parts.append(atom)
                ops.append(self._insert(atom, "Part",
                                        {"name": f"p{value}"}, start, end))
            elif kind == "insert_comp":
                atom = self.db._allocate_atom_id()
                self.comps.append(atom)
                ops.append(self._insert(atom, "Component",
                                        {"cname": f"c{value}"}, start,
                                        FOREVER))
            elif kind == "reinsert" and part is not None:
                ops.append(self._insert(part, "Part", {"name": "again"},
                                        start, end))
            elif kind == "bad_type":
                ops.append(self._insert(self.db._allocate_atom_id(), "Part",
                                        {"name": value}, start, end))
            elif kind == "update_unknown":
                ops.append(self._update(UNKNOWN, value, start, end))
            elif kind == "update" and part is not None:
                ops.append(self._update(part, value, start, end))
            elif kind == "delete" and part is not None:
                ops.append((
                    lambda txn, _tt, a=part: txn.delete(a, start, end),
                    lambda tt, a=part: self.ref.delete(a, start, end, tt)))
            elif kind == "correct" and part is not None:
                changes = {"cost": float(value)}
                ops.append((
                    lambda txn, _tt, a=part: txn.correct(a, start, end,
                                                         changes),
                    lambda tt, a=part: self.ref.correct(a, start, end,
                                                        changes, tt)))
            elif kind in ("link", "unlink") and part and comp:
                ops.append((
                    lambda txn, _tt, k=kind, p=part, c=comp: getattr(
                        txn, k)("contains", p, c, start, end),
                    lambda tt, k=kind, p=part, c=comp: getattr(
                        self.ref, k)("contains", p, c, start, end, tt)))
        return ops

    def _insert(self, atom, type_name, values, start, end):
        return (lambda txn, _tt: txn.insert(type_name, values, start, end,
                                            atom_id=atom),
                lambda tt: self.ref.insert(type_name, values, start, end,
                                           tt, atom_id=atom))

    def _update(self, atom, value, start, end):
        changes = {"cost": float(value)}
        return (lambda txn, _tt: txn.update(atom, changes, start, end),
                lambda tt: self.ref.update(atom, changes, start, end, tt))

    _op = st.tuples(
        st.sampled_from(["insert_part", "insert_comp", "reinsert",
                         "bad_type", "update_unknown", "update", "update",
                         "delete", "correct", "link", "unlink"]),
        st.integers(0, 7), st.integers(0, 7), _times, st.integers(1, 30),
        st.integers(0, 99))

    @initialize(ops=st.lists(_op, min_size=1, max_size=4))
    def seed(self, ops):
        self.commit([("insert_part", 0, 0, 0, 40, 1),
                     ("insert_comp", 0, 0, 0, 1, 2)] + ops)

    @rule(ops=st.lists(_op, min_size=1, max_size=4))
    def commit(self, ops):
        """One committed transaction; each operation is accepted or
        refused alike by both, and a refused one changes nothing."""
        txn = self.db.begin()
        tt = txn.transaction_time
        for apply_db, apply_ref in self._operations(ops):
            outcomes = []
            for apply in (lambda: apply_db(txn, tt), lambda: apply_ref(tt)):
                try:
                    apply()
                    outcomes.append(None)
                except ReproError as exc:
                    outcomes.append(type(exc).__name__)
            assert outcomes[0] == outcomes[1], outcomes
        txn.commit()
        self.parts = [a for a in self.parts if self.ref.atom_exists(a)]
        self.comps = [a for a in self.comps if self.ref.atom_exists(a)]

    @rule(ops=st.lists(_op, min_size=1, max_size=3))
    def roll_back(self, ops):
        """A transaction undone: the reference never sees it."""
        parts, comps = list(self.parts), list(self.comps)
        txn = self.db.begin()
        for apply_db, _ in self._operations(ops):
            try:
                apply_db(txn, txn.transaction_time)
            except ReproError:
                pass  # refused: the undo below covers what was applied
        txn.abort()
        self.parts, self.comps = parts, comps

    @rule()
    def drop_caches(self):
        self.db.engine.drop_caches()

    @rule()
    def reopen(self):
        self.db.close()
        self.db = TemporalDatabase.open(f"{self.path}/db", self.config)

    # -- reads ----------------------------------------------------------------

    @property
    def atoms(self):
        return self.parts + self.comps + [UNKNOWN]

    @rule(at=_instants)
    def current_reads(self, at):
        with self.db._read_view():
            found = self.db.engine.version_at_many(self.atoms, at)
        assert found == {atom: self.ref.version_at(atom, at)
                         for atom in self.atoms}

    @rule(at=_instants, data=st.data())
    def as_of_reads(self, at, data):
        tt = data.draw(st.one_of(st.integers(0, self.db._clock.now() + 1),
                                 st.sampled_from([FOREVER, 2**70])))
        with self.db._read_view():
            found = self.db.engine.version_at_many(self.atoms, at, tt)
        assert found == {atom: self.ref.version_at(atom, at, tt)
                         for atom in self.atoms}

    @rule(vt=_sides, tt=_sides)
    def rectangle_reads(self, vt, tt):
        with self.db._read_view():
            found = self.db.engine.all_versions_many(self.atoms, vt, tt)
        assert found == self.ref.all_versions_many(self.atoms, vt, tt)

    @rule()
    def histories(self):
        for atom in self.parts + self.comps:
            assert self.db.history(atom) == self.ref.all_versions(atom)

    @rule(data=st.data())
    def lifespans(self, data):
        tt = data.draw(st.one_of(st.none(),
                                 st.integers(0, self.db._clock.now() + 1),
                                 st.sampled_from([FOREVER, 2**70])))
        for atom in self.parts + self.comps:
            found = self.db.lifespan(atom, tt)
            assert found == hist.lifespan(self.ref.all_versions(atom), tt)
            if tt is not None and tt >= FOREVER:
                assert found == self.db.lifespan(atom)


@pytest.mark.parametrize("budget", [1, 4096, DEFAULT_DECODE_CACHE_BYTES],
                         ids=["uncached", "evicting", "default"])
def test_engine_cache_matches_reference(strategy, budget):
    run_state_machine_as_test(
        lambda: EngineCacheMachine(strategy, budget),
        # No explain phase: replaying a failing program's every step
        # variation takes minutes and grows memory without bound.
        settings=settings(max_examples=20, stateful_step_count=30,
                          deadline=None, report_multiple_bugs=False,
                          phases=[Phase.explicit, Phase.reuse, Phase.generate,
                                  Phase.shrink]))

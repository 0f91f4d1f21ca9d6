"""Change-data-capture tests: decoder shapes, commit gating, filters,
durable cursors, restart re-registration, and retention interplay.

Everything here runs in-process against :class:`ChangeStreamSource`
directly — the wire path (opcode 16, client iterator, tail CLI) is
covered by test_server.py additions and the CI smoke job.
"""

import pytest

from repro import DatabaseConfig, TemporalDatabase, VersionStrategy
from repro.cdc.events import EVENT_KINDS, fold_events
from repro.cdc.source import ChangeStreamSource
from repro.core.database import WAL_CURSORS_KEY
from repro.errors import ReplicationError
from repro.replication.source import ReplicationSource
from repro.server.protocol import encode_payload
from repro.temporal import FOREVER


def stream(source, subscriber="probe", **overrides):
    """One full-replay SUBSCRIBE request (from the start of the log)."""
    payload = {"subscriber": subscriber, "from_lsn": 1,
               "max_records": 4096}
    payload.update(overrides)
    return source.handle(payload)


def load_history(db):
    """A small mixed history; returns (part, comp, supplier) atom ids."""
    with db.transaction() as txn:
        part = txn.insert("Part", {"name": "gear", "cost": 5.0},
                          valid_from=0)
        comp = txn.insert("Component", {"cname": "tooth", "weight": 1.0},
                          valid_from=0)
        txn.link("contains", part, comp, valid_from=0)
    with db.transaction() as txn:
        txn.update(part, {"cost": 7.5}, valid_from=10)
    with db.transaction() as txn:
        sup = txn.insert("Supplier", {"sname": "acme"}, valid_from=0)
        txn.link("supplied_by", comp, sup, valid_from=5)
    return part, comp, sup


class TestDecoder:
    def test_insert_decodes_to_atom_created(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 1.0},
                              valid_from=3)
        body = stream(ChangeStreamSource(db))
        [event] = body["events"]
        assert event["kind"] == "atom_created"
        assert event["atom_id"] == part
        assert event["type"] == "Part"
        assert event["before"] is None
        assert event["after"]["name"] == "p"
        assert event["vt"] == [3, FOREVER]
        assert event["link"] is None and event["src"] is None
        assert isinstance(event["lsn"], int)
        assert isinstance(event["txn_id"], int)

    def test_update_carries_before_and_after(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 1.0},
                              valid_from=0)
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=10)
        body = stream(ChangeStreamSource(db))
        changed = [e for e in body["events"]
                   if e["kind"] == "attribute_changed"]
        [event] = changed
        assert event["before"]["cost"] == 1.0
        assert event["after"]["cost"] == 2.0
        assert event["after"]["name"] == "p"
        assert event["vt"] == [10, FOREVER]

    def test_delete_reports_removed_values(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 1.0},
                              valid_from=0)
        with db.transaction() as txn:
            txn.delete(part, valid_from=20)
        body = stream(ChangeStreamSource(db))
        [event] = [e for e in body["events"] if e["kind"] == "atom_deleted"]
        assert event["before"]["name"] == "p"
        assert event["after"] is None
        assert event["vt"] == [20, FOREVER]

    def test_link_and_unlink_events(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p"}, valid_from=0)
            comp = txn.insert("Component", {"cname": "c"}, valid_from=0)
            txn.link("contains", part, comp, valid_from=0)
        with db.transaction() as txn:
            txn.unlink("contains", part, comp, valid_from=30)
        body = stream(ChangeStreamSource(db))
        kinds = [e["kind"] for e in body["events"]]
        assert kinds.count("link_added") == 1
        assert kinds.count("link_removed") == 1
        [added] = [e for e in body["events"] if e["kind"] == "link_added"]
        assert (added["link"], added["src"], added["dst"]) == (
            "contains", part, comp)
        assert added["atom_id"] == part
        assert added["type"] == "Part"

    def test_correction_reports_rewritten_window(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 1.0},
                              valid_from=0)
        with db.transaction() as txn:
            txn.correct(part, 0, 50, {"cost": 9.0})
        body = stream(ChangeStreamSource(db))
        [event] = [e for e in body["events"]
                   if e["kind"] == "attribute_changed"]
        assert event["vt"] == [0, 50]
        assert event["before"]["cost"] == 1.0
        assert event["after"]["cost"] == 9.0

    def test_events_arrive_in_lsn_order(self, db):
        load_history(db)
        body = stream(ChangeStreamSource(db))
        lsns = [e["lsn"] for e in body["events"]]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == len(lsns)


class TestCommitGating:
    def test_aborted_transaction_emits_nothing(self, db):
        with db.transaction() as txn:
            keeper = txn.insert("Part", {"name": "keep"}, valid_from=0)
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                txn.insert("Part", {"name": "ghost"}, valid_from=0)
                raise RuntimeError("boom")
        body = stream(ChangeStreamSource(db))
        assert [e["atom_id"] for e in body["events"]] == [keeper]
        # The cursor still passes the aborted records: the stream is
        # gated on commit state, not stalled by it.
        assert body["caught_up"]

    def test_in_flight_transaction_is_invisible_until_commit(self, db):
        source = ChangeStreamSource(db)
        context = db.begin()
        context.insert("Part", {"name": "pending"}, valid_from=0)
        db._wal.sync_to(db._wal.next_lsn - 1)  # make them shippable
        body = stream(source)
        assert body["events"] == []
        assert body["bound"] < db._wal.shippable_lsn
        context.commit()
        body = stream(source)
        assert [e["after"]["name"] for e in body["events"]] == ["pending"]


class TestFilters:
    def test_kind_filter(self, db):
        load_history(db)
        body = stream(ChangeStreamSource(db), kinds=["link_added"])
        assert body["events"]
        assert all(e["kind"] == "link_added" for e in body["events"])

    def test_type_filter(self, db):
        load_history(db)
        body = stream(ChangeStreamSource(db), types=["Supplier"])
        assert body["events"]
        assert all(e["type"] == "Supplier" for e in body["events"])

    def test_root_filter_admits_either_link_end(self, db):
        part, comp, sup = load_history(db)
        body = stream(ChangeStreamSource(db), roots=[sup])
        kinds = {e["kind"] for e in body["events"]}
        # sup's creation plus the link where it is only the *target*.
        assert kinds == {"atom_created", "link_added"}
        [link] = [e for e in body["events"] if e["kind"] == "link_added"]
        assert link["dst"] == sup

    def test_unknown_kind_rejected(self, db):
        with pytest.raises(ReplicationError, match="unknown event kinds"):
            stream(ChangeStreamSource(db), kinds=["atom_exploded"])
        assert "atom_exploded" not in EVENT_KINDS

    def test_filtered_events_still_advance_cursor(self, db):
        load_history(db)
        body = stream(ChangeStreamSource(db), types=["NoSuchType"])
        assert body["events"] == []
        assert body["caught_up"]
        assert body["next_from"] == body["bound"] + 1


class TestCursors:
    def test_fresh_subscriber_attaches_at_head(self, db):
        load_history(db)
        source = ChangeStreamSource(db)
        body = source.handle({"subscriber": "late"})
        assert body["events"] == []
        assert body["caught_up"]
        with db.transaction() as txn:
            txn.insert("Part", {"name": "new"}, valid_from=0)
        body = source.handle({"subscriber": "late"})
        assert [e["after"]["name"] for e in body["events"]] == ["new"]

    def test_resume_has_no_gaps_or_duplicates(self, db):
        load_history(db)
        source = ChangeStreamSource(db)
        baseline = [e["lsn"] for e in stream(source, subscriber="ref")
                    ["events"]]
        assert len(baseline) >= 5
        seen = []
        body = stream(source, subscriber="chunked", max_records=2)
        seen.extend(e["lsn"] for e in body["events"])
        while not body["caught_up"] or body["events"]:
            body = source.handle({"subscriber": "chunked",
                                  "from_lsn": body["next_from"],
                                  "ack_lsn": seen[-1] if seen else None,
                                  "max_records": 2})
            if not body["events"]:
                break
            seen.extend(e["lsn"] for e in body["events"])
        assert seen == baseline

    def test_ack_persists_and_drives_resume(self, db):
        load_history(db)
        source = ChangeStreamSource(db)
        body = stream(source, subscriber="worker", max_records=3)
        acked = body["events"][-1]["lsn"]
        source.handle({"subscriber": "worker", "from_lsn": acked + 1,
                       "ack_lsn": acked, "max_records": 1})
        # A brand-new request with no explicit cursor resumes after the
        # persisted ack — not at the head, not at the start.
        resumed = source.handle({"subscriber": "worker"})
        lsns = [e["lsn"] for e in resumed["events"]]
        assert lsns and min(lsns) > acked
        db.checkpoint()  # ack advances are persisted by checkpoints
        assert db._catalog.extras[WAL_CURSORS_KEY]["worker"] == [
            db.wal_epoch, "cdc", acked]

    def test_unsubscribe_releases_everything(self, db):
        load_history(db)
        source = ChangeStreamSource(db)
        stream(source, subscriber="quitter", ack_lsn=2)
        assert "quitter" in db._wal.subscribers("cdc")
        assert "quitter" in db._catalog.extras[WAL_CURSORS_KEY]
        body = source.handle({"subscriber": "quitter",
                              "unsubscribe": True})
        assert body["released"]
        assert "quitter" not in db._wal.subscribers("cdc")
        assert "quitter" not in db._catalog.extras.get(WAL_CURSORS_KEY, {})

    def test_subscriber_name_required(self, db):
        with pytest.raises(ReplicationError, match="subscriber"):
            ChangeStreamSource(db).handle({"from_lsn": 1})


class Cursor:
    """Drives one named WAL cursor of either kind through its source:
    a CDC subscriber over SUBSCRIBE or a replica over WAL_STREAM."""

    def __init__(self, db, kind, name):
        self.kind, self.name = kind, name
        if kind == "cdc":
            self.source = ChangeStreamSource(db)
        else:
            self.source = ReplicationSource(db)

    def poll(self, **fields):
        """One request; returns (lsns delivered, response body)."""
        if self.kind == "cdc":
            body = self.source.handle({"subscriber": self.name, **fields})
            return [e["lsn"] for e in body["events"]], body
        body = self.source.handle({"replica": self.name, **fields})
        return [r[0] for r in body["records"]], body

    def resume(self, acked):
        """Continue after *acked*: a CDC cursor resumes from its stored
        ack on its own, a replica names its position."""
        if self.kind == "cdc":
            return self.poll()
        return self.poll(from_lsn=acked + 1)


#: Every version strategy x both cursor kinds (the CDC cases are named
#: by the bare strategy).
CASES = [(strategy, kind) for strategy in VersionStrategy
         for kind in ("cdc", "replica")]


@pytest.fixture(params=CASES, ids=[
    strategy.value if kind == "cdc" else f"{strategy.value}-{kind}"
    for strategy, kind in CASES])
def case(request):
    """A ``(strategy, cursor kind)`` pair."""
    return request.param


@pytest.fixture(params=["cdc", "replica"])
def kind(request):
    return request.param


class TestRestart:
    def test_lagging_cursor_survives_clean_restart(self, tmp_path,
                                                   cad_schema, case):
        strategy, kind = case
        path = str(tmp_path / "cdcdb")
        db = TemporalDatabase.create(path, cad_schema,
                                     DatabaseConfig(strategy=strategy))
        load_history(db)
        cursor = Cursor(db, kind, "durable")
        delivered, _ = cursor.poll(from_lsn=1, max_records=3)
        acked = delivered[-1]
        cursor.poll(from_lsn=acked + 1, ack_lsn=acked, max_records=1)
        expect = [lsn for lsn in Cursor(db, kind, "ref").poll(
            from_lsn=1, max_records=4096)[0] if lsn > acked]
        db.close()  # truncation refused: the lagging cursor pins the log

        db2 = TemporalDatabase.open(path)
        registry = db2._wal.subscribers(kind)
        assert registry["durable"]["acked"] == acked
        assert db2._wal.truncate() is False
        delivered, _ = Cursor(db2, kind, "durable").resume(acked)
        assert delivered == expect
        db2.close()

    def test_caught_up_cursor_dropped_across_epoch_reset(self, tmp_path,
                                                         cad_schema, case):
        strategy, kind = case
        path = str(tmp_path / "cdcdb")
        db = TemporalDatabase.create(path, cad_schema,
                                     DatabaseConfig(strategy=strategy))
        load_history(db)
        cursor = Cursor(db, kind, "done")
        delivered, _ = cursor.poll(from_lsn=1, max_records=4096)
        head = db._wal.shippable_lsn
        cursor.poll(from_lsn=head + 1, ack_lsn=head, max_records=1)
        old_epoch = db.wal_epoch
        db.close()  # fully acked: the log truncates and the epoch bumps

        db2 = TemporalDatabase.open(path)
        assert db2.wal_epoch == old_epoch + 1
        # The persisted cursor named an LSN of the dead epoch; keeping
        # it would strand the consumer past the restarted head.
        assert db2._wal.subscribers() == {}
        assert "done" not in db2._catalog.extras.get(WAL_CURSORS_KEY, {})
        cursor = Cursor(db2, kind, "done")
        delivered, body = cursor.resume(0)
        assert delivered == [] and body["caught_up"]
        assert body["epoch"] == old_epoch + 1
        with db2.transaction() as txn:
            txn.insert("Part", {"name": "fresh"}, valid_from=0)
        delivered, body = cursor.resume(0)
        if kind == "cdc":
            assert [e["after"]["name"] for e in body["events"]] == ["fresh"]
        else:
            assert delivered == list(range(1, db2._wal.shippable_lsn + 1))
        db2.close()

    def test_registration_survives_a_crash(self, tmp_path, cad_schema,
                                           kind):
        path = str(tmp_path / "cdcdb")
        db = TemporalDatabase.create(path, cad_schema)
        load_history(db)
        Cursor(db, kind, "early").poll(from_lsn=1, ack_lsn=1,
                                       max_records=1)
        # Crash-style abandonment: no close(), and no checkpoint since
        # the cursor registered.
        db._wal._file.flush()
        db._disk._file.flush()

        db2 = TemporalDatabase.open(path)
        assert db2.last_recovery is not None
        registry = db2._wal.subscribers(kind)
        assert registry["early"]["acked"] == 1
        assert db2._wal.truncate() is False
        db2.close()


class TestRetention:
    def test_lagging_subscriber_blocks_truncation(self, db):
        load_history(db)
        source = ChangeStreamSource(db)
        stream(source, subscriber="slow", ack_lsn=1)
        assert db._wal.truncate() is False
        assert db._wal.held_bytes(1) > 0
        head = db._wal.shippable_lsn
        source.handle({"subscriber": "slow", "from_lsn": head + 1,
                       "ack_lsn": head, "max_records": 1})
        assert db._wal.truncate() is True

    def test_release_unblocks_truncation(self, db):
        load_history(db)
        source = ChangeStreamSource(db)
        stream(source, subscriber="slow", ack_lsn=1)
        assert db._wal.truncate() is False
        source.handle({"subscriber": "slow", "unsubscribe": True})
        assert db._wal.truncate() is True

    def test_status_reports_lag_and_held_bytes(self, db):
        load_history(db)
        source = ChangeStreamSource(db)
        stream(source, subscriber="slow", ack_lsn=1)
        status = source.status()
        assert set(status) == {"head", "epoch", "subscribers",
                               "events_decoded"}
        entry = status["subscribers"]["slow"]
        assert entry["acked"] == 1
        assert entry["lag"] == status["head"] - 1
        assert entry["held_bytes"] > 0
        assert status["events_decoded"] > 0


class TestFold:
    def test_add_remove_pairs_cancel(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p"}, valid_from=0)
            comp = txn.insert("Component", {"cname": "c"}, valid_from=0)
        t1 = db._clock.now() - 1
        with db.transaction() as txn:
            txn.link("contains", part, comp, valid_from=0)
        with db.transaction() as txn:
            txn.unlink("contains", part, comp, valid_from=0)
        t2 = db._clock.now() - 1
        events = stream(ChangeStreamSource(db))["events"]
        assert fold_events(events, t1, t2) == []

    def test_noop_rewrite_is_not_a_transition(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 1.0},
                              valid_from=0)
        t1 = db._clock.now() - 1
        with db.transaction() as txn:
            txn.update(part, {"cost": 1.0}, valid_from=0)
        t2 = db._clock.now() - 1
        events = stream(ChangeStreamSource(db))["events"]
        assert fold_events(events, t1, t2) == []

    def test_created_then_deleted_nets_out(self, db):
        t1 = db._clock.now() - 1
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p"}, valid_from=0)
            comp = txn.insert("Component", {"cname": "c"}, valid_from=0)
            txn.link("contains", part, comp, valid_from=0)
        with db.transaction() as txn:
            txn.delete(part, valid_from=0)
        t2 = db._clock.now() - 1
        events = stream(ChangeStreamSource(db))["events"]
        rows = fold_events(events, t1, t2)
        # part (and its link) vanished; only comp's creation survives.
        assert [r["atom_id"] for r in rows] == [comp]


class TestBatchBytes:
    """WAL_STREAM and SUBSCRIBE items are encoded once, canonically: the
    response splices those bytes, and the batch budget is measured in
    them."""

    def _sources(self, db):
        return (ReplicationSource(db), {"from_lsn": 1}, "records"), (
            ChangeStreamSource(db), {"subscriber": "bytes", "from_lsn": 1},
            "events")

    def test_frame_equals_the_dict_form(self, db):
        load_history(db)
        for source, payload, key in self._sources(db):
            for extra in ({}, {"max_records": 2}, {"from_lsn": 10 ** 6}):
                answer = source.answer({**payload, **extra})
                assert answer.encode() == encode_payload(answer.to_dict())
                assert answer.encoded == [encode_payload(item)
                                          for item in answer.items]
            released = source.answer({**payload, "replica": "r",
                                      "subscriber": "bytes",
                                      "unsubscribe": True})
            assert released.encode() == encode_payload(released.to_dict())

    def test_batch_stops_within_the_budget(self, db, monkeypatch):
        import repro.replication.source as wal_source

        for index in range(12):
            with db.transaction() as txn:
                txn.insert("Part", {"name": f"part-{index:03}",
                                    "cost": float(index)}, valid_from=0)
        for source, payload, key in self._sources(db):
            whole = source.answer({**payload, "max_records": 4096})
            budget = 700
            monkeypatch.setattr(wal_source, "MAX_BATCH_BYTES", budget)
            batches, from_lsn = [], 1
            while True:
                answer = source.answer({**payload, "from_lsn": from_lsn,
                                        "max_records": 4096})
                if not answer.items:
                    break
                batches.append(answer.encoded)
                from_lsn = answer.fields["next_from"]
            monkeypatch.undo()
            assert len(batches) > 1
            for batch, following in zip(batches, batches[1:]):
                # Within the budget, and stopped by it: the next item
                # would not have fit.
                assert len(b",".join(batch)) <= budget
                assert len(b",".join(batch + following[:1])) > budget
            assert [item for batch in batches for item in batch] \
                == whole.encoded

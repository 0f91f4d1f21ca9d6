"""Replication integration: shipping, replay, routing, failure modes.

The load-bearing test is the differential one: a replica at
transaction-time watermark ``T`` must answer every ``AS OF T' <= T``
query *byte-identical* to the primary — replication adds a copy, never
semantics — across all three version-store strategies and while a
writer keeps committing on the primary.  Around it: WAL_STREAM batch
shape, read-only write rejection, LSN-watermarked pool routing with
quarantine fallback, the retention guard end to end, crash-restart
resume, and the epoch fence against LSN reuse.
"""

from __future__ import annotations

import shutil
import threading
import time
from contextlib import contextmanager

import pytest

from repro import DatabaseConfig, TemporalDatabase
from repro.core.database import WAL_CURSORS_KEY
from repro.errors import RemoteError, ReplicationError, WALError
from repro.replication import ReplicaApplier, routing_bound
from repro.server import ClientPool, DatabaseClient, DatabaseServer
from repro.server.protocol import encode_payload


def wait_until(predicate, timeout=10.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


class Cluster:
    """One primary server plus N replica servers, all in-process."""

    def __init__(self, tmp_path, schema, replicas=1, strategy=None,
                 start_appliers=True):
        config = DatabaseConfig(buffer_pages=64)
        if strategy is not None:
            config.strategy = strategy
        primary_path = str(tmp_path / "primary")
        seed = TemporalDatabase.create(primary_path, schema, config)
        seed.close()  # clean shutdown: the copies below are valid clones
        self.replica_paths = []
        for index in range(replicas):
            path = str(tmp_path / f"replica{index}")
            shutil.copytree(primary_path, path)
            self.replica_paths.append(path)

        self.pdb = TemporalDatabase.open(primary_path)
        self.primary = DatabaseServer(self.pdb)
        self.primary.start()
        self.rdbs, self.appliers, self.rservers = [], [], []
        for index, path in enumerate(self.replica_paths):
            rdb = TemporalDatabase.open(path)
            applier = ReplicaApplier(rdb, self.primary.host,
                                     self.primary.port,
                                     replica_id=f"replica-{index}",
                                     wait_ms=100,
                                     checkpoint_interval=0.2)
            rserver = DatabaseServer(rdb, replication=applier)
            rserver.start()
            if start_appliers:
                applier.start()
            self.rdbs.append(rdb)
            self.appliers.append(applier)
            self.rservers.append(rserver)

    def primary_client(self, **kwargs):
        return DatabaseClient(self.primary.host, self.primary.port,
                              **kwargs)

    def replica_client(self, index=0, **kwargs):
        server = self.rservers[index]
        return DatabaseClient(server.host, server.port, **kwargs)

    def wait_caught_up(self, timeout=10.0):
        head = self.pdb._wal.shippable_lsn

        def caught_up():
            return all(applier.applied_lsn >= head
                       for applier in self.appliers)
        wait_until(caught_up, timeout=timeout,
                   message=f"replicas to reach lsn {head}")

    def close(self):
        for applier in self.appliers:
            applier.stop()
        for server in self.rservers:
            server.shutdown()
        for rdb in self.rdbs:
            try:
                rdb.close()
            except Exception:
                pass
        self.primary.shutdown()
        try:
            self.pdb.close()
        except Exception:
            pass


@contextmanager
def cluster(tmp_path, schema, **kwargs):
    c = Cluster(tmp_path, schema, **kwargs)
    try:
        yield c
    finally:
        c.close()


def write_parts(client, start, count):
    """Serial transactions, one insert each; returns inserted atom ids."""
    ids = []
    for index in range(start, start + count):
        with client.transaction() as txn:
            ids.append(txn.insert("Part", {"name": f"part{index}",
                                           "cost": float(index)},
                                  valid_from=index))
    return ids


def assert_identical(pclient, rclient, text):
    primary_body = pclient.query(text)
    replica_body = rclient.query(text)
    assert encode_payload(primary_body) == encode_payload(replica_body), \
        f"replica diverged on {text!r}"


class TestWalStream:
    def test_batch_matches_primary_log(self, tmp_path, cad_schema):
        with cluster(tmp_path, cad_schema, replicas=0) as c:
            with c.primary_client() as client:
                write_parts(client, 0, 3)
                body = client.wal_stream(from_lsn=1, max_records=100)
            expected = [[r.lsn, r.type.value, r.txn_id, r.payload]
                        for r in c.pdb._wal.read_all()]
            assert body["records"] == expected
            assert body["head"] == expected[-1][0]
            assert body["caught_up"] is True
            assert body["next_from"] == expected[-1][0] + 1

    def test_caught_up_poll_returns_empty(self, tmp_path, cad_schema):
        with cluster(tmp_path, cad_schema, replicas=0) as c:
            with c.primary_client() as client:
                write_parts(client, 0, 1)
                head = c.pdb._wal.shippable_lsn
                started = time.monotonic()
                body = client.wal_stream(from_lsn=head + 1, wait_ms=100)
                assert time.monotonic() - started < 5.0
            assert body["records"] == []
            assert body["caught_up"] is True  # nothing newer exists
            assert body["next_from"] == head + 1

    def test_hello_advertises_role(self, tmp_path, cad_schema):
        with cluster(tmp_path, cad_schema, replicas=1) as c:
            with c.primary_client() as pc:
                assert pc.session["role"] == "primary"
            with c.replica_client() as rc:
                assert rc.session["role"] == "replica"
                block = rc.session["replication"]
                assert block["primary"] == (f"{c.primary.host}:"
                                            f"{c.primary.port}")

    def test_truncated_resume_point_is_an_error(self, tmp_path,
                                                cad_schema):
        with cluster(tmp_path, cad_schema, replicas=0) as c:
            with c.primary_client() as client:
                write_parts(client, 0, 2)
                c.pdb.checkpoint()
                assert c.pdb._wal.truncate()
                write_parts(client, 2, 1)
                with pytest.raises(RemoteError) as excinfo:
                    client.wal_stream(from_lsn=1, max_records=10)
            assert excinfo.value.remote_type == "WALError"
            assert not excinfo.value.transient

    def test_emptied_log_surfaces_as_replica_error(self, tmp_path,
                                                   cad_schema):
        with cluster(tmp_path, cad_schema, replicas=1,
                     start_appliers=False) as c:
            with c.primary_client() as client:
                write_parts(client, 0, 2)
            c.pdb.checkpoint()
            assert c.pdb._wal.truncate()  # no cursor registered yet
            head = c.pdb._wal.shippable_lsn
            with pytest.raises(WALError, match="truncated"):
                c.primary.wal_source.handle({"from_lsn": 1})
            # The replica's resume point is gone: it must report the
            # fault, not poll forever as connected and lagging.
            applier = c.appliers[0]
            applier.start()
            wait_until(lambda: "truncated" in (applier.last_error or ""),
                       message="the truncation to reach last_error")
            assert not applier.connected
            assert applier.applied_lsn < head

    def test_unsubscribe_releases_a_replica_hold(self, tmp_path,
                                                 cad_schema):
        with cluster(tmp_path, cad_schema, replicas=0) as c:
            with c.primary_client() as client:
                write_parts(client, 0, 2)
                client.wal_stream(from_lsn=1, replica="gone", ack_lsn=0)
                assert c.pdb._wal.truncate() is False
                body = client.wal_stream(from_lsn=1, replica="gone",
                                         unsubscribe=True)
            assert body == {"released": True, "replica": "gone"}
            assert c.pdb._wal.subscribers() == {}
            assert c.pdb._wal.truncate() is True
            assert c.pdb.metrics.gauge(
                "wal.retention_held_bytes").value == 0


class TestReplicaApplies:
    def test_replica_catches_up_and_serves(self, tmp_path, cad_schema):
        with cluster(tmp_path, cad_schema, replicas=1) as c:
            with c.primary_client() as pc:
                write_parts(pc, 0, 5)
            c.wait_caught_up()
            status = c.appliers[0].status()
            assert status["connected"]
            assert status["replayed_lsn"] == c.pdb._wal.shippable_lsn
            watermark = status["replayed_tt"]
            with c.primary_client() as pc, c.replica_client() as rc:
                for tt in range(watermark + 1):
                    assert_identical(
                        pc, rc,
                        f"SELECT ALL FROM Part VALID AT 2 AS OF {tt}")
                    assert_identical(
                        pc, rc,
                        "SELECT ALL FROM Part VALID HISTORY "
                        f"AS OF {tt}")

    def test_differential_under_concurrent_writer(self, tmp_path,
                                                  cad_schema, strategy):
        """A replica answers AS OF T <= watermark byte-identical to the
        primary while the primary keeps committing — per strategy."""
        with cluster(tmp_path, cad_schema, replicas=1,
                     strategy=strategy) as c:
            with c.primary_client() as pc:
                write_parts(pc, 0, 4)
            c.wait_caught_up()
            stop = threading.Event()
            failures = []

            def writer():
                try:
                    with c.primary_client() as wc:
                        index = 100
                        while not stop.is_set():
                            with wc.transaction() as txn:
                                part = txn.insert(
                                    "Part",
                                    {"name": f"w{index}",
                                     "cost": float(index)},
                                    valid_from=index)
                                txn.update(part, {"cost": float(index) + 0.5},
                                           valid_from=index + 1)
                            index += 1
                except Exception as exc:  # surfaced by the main thread
                    failures.append(exc)

            thread = threading.Thread(target=writer)
            thread.start()
            try:
                with c.primary_client() as pc, c.replica_client() as rc:
                    checked = 0
                    deadline = time.monotonic() + 8.0
                    while checked < 25 and time.monotonic() < deadline:
                        watermark = c.appliers[0].replayed_tt
                        if watermark < 1:
                            time.sleep(0.01)
                            continue
                        for text in (
                                "SELECT ALL FROM Part VALID AT 2 "
                                f"AS OF {watermark}",
                                "SELECT ALL FROM Part VALID HISTORY "
                                f"AS OF {watermark}",
                                "SELECT Part.name, Part.cost FROM Part "
                                f"VALID AT 101 AS OF {watermark}"):
                            assert_identical(pc, rc, text)
                        checked += 1
                    assert checked >= 5
            finally:
                stop.set()
                thread.join(10)
            assert not failures

    def test_replay_is_idempotent_across_rewind(self, tmp_path,
                                                cad_schema):
        """Re-requesting an overlapping range (reconnect) applies
        nothing twice."""
        with cluster(tmp_path, cad_schema, replicas=1) as c:
            with c.primary_client() as pc:
                write_parts(pc, 0, 3)
            c.wait_caught_up()
            applier = c.appliers[0]
            with c.primary_client() as pc, c.replica_client() as rc:
                before = rc.query("SELECT ALL FROM Part VALID HISTORY")
                # Simulate a reconnect that rewinds the cursor: re-feed
                # the whole log through the applier's ingest path.
                with DatabaseClient(c.primary.host, c.primary.port) as dc:
                    body = dc.wal_stream(from_lsn=1, max_records=1000)
                applier._ingest(body)
                after = rc.query("SELECT ALL FROM Part VALID HISTORY")
                assert encode_payload(before) == encode_payload(after)
                assert_identical(pc, rc,
                                 "SELECT ALL FROM Part VALID HISTORY")


class TestReadOnlyReplica:
    def test_mutate_is_rejected_with_primary_address(self, tmp_path,
                                                     cad_schema):
        with cluster(tmp_path, cad_schema, replicas=1) as c:
            with c.replica_client() as rc:
                with pytest.raises(RemoteError) as excinfo:
                    rc.mutate("insert", type="Part",
                              values={"name": "nope"}, valid_from=0)
            error = excinfo.value
            assert error.remote_type == "ReadOnlyReplicaError"
            assert not error.transient
            assert f"{c.primary.host}:{c.primary.port}" in \
                error.remote_message

    def test_begin_is_rejected(self, tmp_path, cad_schema):
        with cluster(tmp_path, cad_schema, replicas=1) as c:
            with c.replica_client() as rc:
                with pytest.raises(RemoteError) as excinfo:
                    rc.begin()
            assert excinfo.value.remote_type == "ReadOnlyReplicaError"

    def test_reads_still_served(self, tmp_path, cad_schema):
        with cluster(tmp_path, cad_schema, replicas=1) as c:
            with c.primary_client() as pc:
                write_parts(pc, 0, 2)
            c.wait_caught_up()
            with c.replica_client() as rc:
                body = rc.query("SELECT ALL FROM Part VALID AT 1")
                assert len(body["entries"]) == 2


class TestRouting:
    def test_time_bounded_reads_route_to_replica(self, tmp_path,
                                                 cad_schema):
        with cluster(tmp_path, cad_schema, replicas=1) as c:
            with c.primary_client() as pc:
                write_parts(pc, 0, 3)
            c.wait_caught_up()
            watermark = c.appliers[0].replayed_tt
            server = c.rservers[0]
            pool = ClientPool(
                c.primary.host, c.primary.port, size=2,
                replicas=[f"{server.host}:{server.port}"])
            with pool:
                before = c.rdbs[0].metrics.value("server.requests")
                body = pool.query("SELECT ALL FROM Part VALID AT 1 "
                                  f"AS OF {watermark}")
                assert len(body["entries"]) == 2
                after = c.rdbs[0].metrics.value("server.requests")
                assert after > before  # the replica served it
                (snapshot,) = pool.replica_status()
                assert snapshot["watermark_tt"] >= watermark
                assert not snapshot["quarantined"]

    def test_current_knowledge_reads_pin_to_primary(self, tmp_path,
                                                    cad_schema):
        with cluster(tmp_path, cad_schema, replicas=1) as c:
            with c.primary_client() as pc:
                write_parts(pc, 0, 2)
            c.wait_caught_up()
            watermark = c.appliers[0].replayed_tt
            server = c.rservers[0]
            pool = ClientPool(
                c.primary.host, c.primary.port, size=2,
                replicas=[f"{server.host}:{server.port}"])
            with pool:
                # Prime the watermark cache with one routed read.
                pool.query(f"SELECT ALL FROM Part VALID AT 1 "
                           f"AS OF {watermark}")
                before = c.rdbs[0].metrics.value("server.requests")
                pool.query("SELECT ALL FROM Part VALID AT 1")
                pool.query("SELECT ALL FROM Part VALID AT 1 AS OF FOREVER")
                after = c.rdbs[0].metrics.value("server.requests")
                assert after == before  # replica never touched

    def test_ahead_of_watermark_pins_to_primary(self, tmp_path,
                                                cad_schema):
        with cluster(tmp_path, cad_schema, replicas=1,
                     start_appliers=False) as c:
            with c.primary_client() as pc:
                write_parts(pc, 0, 2)
            # The applier never ran: the replica's watermark stays at
            # its bootstrap value, far below the primary's clock.
            bound = c.pdb._clock.now() + 100
            server = c.rservers[0]
            pool = ClientPool(
                c.primary.host, c.primary.port, size=2,
                replicas=[f"{server.host}:{server.port}"])
            with pool:
                body = pool.query("SELECT ALL FROM Part VALID AT 1 "
                                  f"AS OF {bound}")
                assert len(body["entries"]) == 2  # primary answered

    def test_dead_replica_quarantined_with_fallback(self, tmp_path,
                                                    cad_schema):
        with cluster(tmp_path, cad_schema, replicas=1) as c:
            with c.primary_client() as pc:
                write_parts(pc, 0, 3)
            c.wait_caught_up()
            watermark = c.appliers[0].replayed_tt
            server = c.rservers[0]
            pool = ClientPool(
                c.primary.host, c.primary.port, size=2,
                replicas=[f"{server.host}:{server.port}"])
            with pool:
                text = (f"SELECT ALL FROM Part VALID AT 1 "
                        f"AS OF {watermark}")
                pool.query(text)  # primes the watermark cache
                c.appliers[0].stop()
                server.shutdown()
                body = pool.query(text)  # falls back to the primary
                assert len(body["entries"]) == 2
                (snapshot,) = pool.replica_status()
                assert snapshot["quarantined"]
                assert snapshot["failures"] >= 1
                # Still healthy for repeated queries while quarantined.
                assert len(pool.query(text)["entries"]) == 2


class TestRetention:
    def test_guard_holds_then_releases(self, tmp_path, cad_schema):
        with cluster(tmp_path, cad_schema, replicas=1) as c:
            with c.primary_client() as pc:
                write_parts(pc, 0, 2)
            c.wait_caught_up()
            applier = c.appliers[0]
            wait_until(lambda: (c.pdb._wal.min_acked_lsn() or 0)
                       >= applier.applied_lsn,
                       message="ack to reach the applied lsn")
            # Stall the replica, then keep writing: the primary must
            # refuse to truncate past the stalled ack.
            applier.stop()
            with c.primary_client() as pc:
                write_parts(pc, 2, 3)
            c.pdb.checkpoint()
            assert c.pdb._wal.truncate() is False
            assert c.pdb.metrics.gauge(
                "wal.retention_held_bytes").value > 0
            # Resume: a fresh applier re-subscribes, catches up, and its
            # checkpoint-driven acks release the hold.
            applier2 = ReplicaApplier(c.rdbs[0], c.primary.host,
                                      c.primary.port,
                                      replica_id="replica-0",
                                      wait_ms=100,
                                      checkpoint_interval=0.05)
            c.appliers[0] = applier2
            applier2.start()
            head = c.pdb._wal.shippable_lsn
            wait_until(lambda: (c.pdb._wal.min_acked_lsn() or 0) >= head,
                       message="resumed replica to ack the head")
            assert c.pdb._wal.truncate() is True
            assert c.pdb.metrics.gauge(
                "wal.retention_held_bytes").value == 0


class TestReplicaRestart:
    def test_crashed_replica_resumes_and_matches(self, tmp_path,
                                                 cad_schema):
        with cluster(tmp_path, cad_schema, replicas=1) as c:
            with c.primary_client() as pc:
                write_parts(pc, 0, 4)
            c.wait_caught_up()
            wait_until(lambda: c.rdbs[0]._catalog.applied_lsn > 0,
                       message="replica checkpoint")
            applier = c.appliers[0]
            applier.stop()
            c.rservers[0].shutdown()
            # Crash-style abandonment: flush OS buffers, never close.
            rdb = c.rdbs[0]
            rdb._wal._file.flush()
            rdb._disk._file.flush()
            with c.primary_client() as pc:
                write_parts(pc, 4, 3)

            rdb2 = TemporalDatabase.open(c.replica_paths[0])
            applier2 = ReplicaApplier(rdb2, c.primary.host,
                                      c.primary.port, wait_ms=100,
                                      checkpoint_interval=0.2)
            # The persisted identity survived the crash, keeping the
            # primary-side subscription stable.
            assert applier2.replica_id == "replica-0"
            rserver2 = DatabaseServer(rdb2, replication=applier2)
            rserver2.start()
            c.rdbs[0], c.appliers[0], c.rservers[0] = (rdb2, applier2,
                                                       rserver2)
            applier2.start()
            c.wait_caught_up()
            with c.primary_client() as pc, c.replica_client() as rc:
                watermark = applier2.replayed_tt
                for tt in (1, watermark // 2, watermark):
                    assert_identical(
                        pc, rc,
                        f"SELECT ALL FROM Part VALID HISTORY AS OF {tt}")

    def test_bootstrap_copy_drops_the_primarys_cursors(self, tmp_path,
                                                        cad_schema):
        primary_path = str(tmp_path / "primary")
        pdb = TemporalDatabase.create(primary_path, cad_schema)
        with pdb.transaction() as txn:
            txn.insert("Part", {"name": "p", "cost": 1.0}, valid_from=0)
        pdb.ack_cursor("downstream", "replica", 0)
        pdb.close()  # the lagging cursor keeps the log and the epoch
        replica_path = str(tmp_path / "replica")
        shutil.copytree(primary_path, replica_path)
        rdb = TemporalDatabase.open(replica_path)
        assert "downstream" in rdb._wal.subscribers()
        ReplicaApplier(rdb, "127.0.0.1", 1, replica_id="r0")
        # The copy's cursors name the primary's consumers: holding them
        # here would pin the replica's log forever.
        assert rdb._wal.subscribers() == {}
        assert rdb._catalog.extras[WAL_CURSORS_KEY] == {}
        rdb.close()

    def test_epoch_mismatch_is_fatal(self, tmp_path, cad_schema):
        with cluster(tmp_path, cad_schema, replicas=1) as c:
            applier = c.appliers[0]
            with pytest.raises(ReplicationError) as excinfo:
                applier._ingest({"records": [], "head": 0,
                                 "epoch": applier._expected_epoch + 1})
            assert "re-bootstrap" in str(excinfo.value)


class TestRoutingBound:
    @pytest.mark.parametrize("text,expected", [
        ("SELECT ALL FROM Part VALID AT 5 AS OF 17", 17),
        ("SELECT ALL FROM Part AS OF 0", 0),
        ("SELECT ALL FROM Part VALID AT 5", None),
        ("SELECT ALL FROM Part VALID AT 5 AS OF FOREVER", None),
        ("EXPLAIN ANALYZE SELECT ALL FROM Part AS OF 3", None),
        ("not even mql", None),
    ])
    def test_bounds(self, text, expected):
        assert routing_bound(text) == expected


# -- cascading chains --------------------------------------------------------


@contextmanager
def chain(tmp_path, schema):
    """A two-hop chain: primary -> hop A -> hop B, all in-process.

    Hop A replays the primary's WAL into its own log verbatim
    (``append_shipped`` preserves the LSN space), so its server can in
    turn serve ``WAL_STREAM`` to hop B — no primary-specific state is
    involved in being a shipping source.
    """
    config = DatabaseConfig(buffer_pages=64)
    primary_path = str(tmp_path / "primary")
    seed = TemporalDatabase.create(primary_path, schema, config)
    seed.close()
    for name in ("hop-a", "hop-b"):
        shutil.copytree(primary_path, str(tmp_path / name))
    pdb = TemporalDatabase.open(primary_path)
    primary = DatabaseServer(pdb)
    primary.start()
    adb = TemporalDatabase.open(str(tmp_path / "hop-a"))
    a_applier = ReplicaApplier(adb, primary.host, primary.port,
                               replica_id="hop-a", wait_ms=100,
                               checkpoint_interval=0.2)
    a_server = DatabaseServer(adb, replication=a_applier)
    a_server.start()
    a_applier.start()
    bdb = TemporalDatabase.open(str(tmp_path / "hop-b"))
    b_applier = ReplicaApplier(bdb, a_server.host, a_server.port,
                               replica_id="hop-b", wait_ms=100,
                               checkpoint_interval=0.2)
    b_server = DatabaseServer(bdb, replication=b_applier)
    b_server.start()
    b_applier.start()
    parts = {"pdb": pdb, "primary": primary,
             "adb": adb, "a_applier": a_applier, "a_server": a_server,
             "bdb": bdb, "b_applier": b_applier, "b_server": b_server}
    try:
        yield parts
    finally:
        for applier in (b_applier, a_applier):
            applier.stop()
        for server in (b_server, a_server, primary):
            server.shutdown()
        for db in (bdb, adb, pdb):
            try:
                db.close()
            except Exception:
                pass


class TestCascading:
    def test_two_hops_converge_and_serve_identical_reads(self, tmp_path,
                                                         cad_schema):
        with chain(tmp_path, cad_schema) as c:
            with DatabaseClient(c["primary"].host,
                                c["primary"].port) as pclient:
                write_parts(pclient, 0, 6)
                head = c["pdb"]._wal.shippable_lsn
                wait_until(lambda: c["b_applier"].applied_lsn >= head,
                           message="hop B to replay the chain")
                with DatabaseClient(c["b_server"].host,
                                    c["b_server"].port) as bclient:
                    assert_identical(pclient, bclient,
                                     "SELECT ALL FROM Part VALID AT 100")
                    assert_identical(
                        pclient, bclient,
                        "SELECT Part.name FROM Part "
                        "WHERE Part.cost >= 3 VALID AT 100")

    def test_watermarks_propagate_down_the_chain(self, tmp_path,
                                                 cad_schema):
        with chain(tmp_path, cad_schema) as c:
            with DatabaseClient(c["primary"].host,
                                c["primary"].port) as pclient:
                write_parts(pclient, 0, 4)
            head = c["pdb"]._wal.shippable_lsn
            wait_until(lambda: c["b_applier"].applied_lsn >= head,
                       message="hop B to reach the primary head")
            # Every hop reports the same replayed position (hop A
            # forwards shipped records before it applies them, so B can
            # get there first)...
            wait_until(lambda: c["a_applier"].status()["replayed_lsn"]
                       >= head, message="hop A to replay the head")
            assert c["b_applier"].status()["replayed_lsn"] >= head
            # ...the middle hop carries its downstream in the *replica*
            # registry (B holds retention on A exactly as A does on the
            # primary)...
            wait_until(lambda: "hop-b" in c["adb"]._wal.subscribers(),
                       message="hop B to register with hop A")
            assert "hop-a" in c["pdb"]._wal.subscribers()
            # ...and the durable (checkpointed) watermark follows within
            # a checkpoint interval, propagating the ack upstream.
            wait_until(
                lambda: int(c["adb"]._wal.subscribers()
                            .get("hop-b", {}).get("acked", 0)) >= head,
                message="hop B's ack to reach hop A")

    def test_sigkilled_middle_hop_recovers_and_chain_heals(
            self, tmp_path, cad_schema):
        """Real SIGKILL against the middle hop, run as a subprocess
        (``serve --replica-of``): the downstream applier must ride out
        the outage and converge once the hop restarts on its WAL."""
        import os
        import signal
        import subprocess
        import sys

        config = DatabaseConfig(buffer_pages=64)
        primary_path = str(tmp_path / "primary")
        seed = TemporalDatabase.create(primary_path, cad_schema, config)
        seed.close()
        for name in ("hop-a", "hop-b"):
            shutil.copytree(primary_path, str(tmp_path / name))
        pdb = TemporalDatabase.open(primary_path)
        primary = DatabaseServer(pdb)
        primary.start()

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tmp_path.parent)] + env.get("PYTHONPATH", "").split(
                os.pathsep))
        src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src_dir)

        def launch(port):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--path", str(tmp_path / "hop-a"),
                 "--host", "127.0.0.1", "--port", str(port),
                 "--replica-of", f"{primary.host}:{primary.port}",
                 "--replica-id", "hop-a",
                 "--replica-checkpoint-interval", "0.2"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                env=env, text=True)
            while True:
                line = proc.stdout.readline()
                assert line, "middle hop died during startup"
                if line.startswith("serving "):
                    address = line.split(" on ", 1)[1].split()[0]
                    return proc, int(address.rsplit(":", 1)[1])

        bdb = b_applier = None
        proc, a_port = launch(0)
        try:
            bdb = TemporalDatabase.open(str(tmp_path / "hop-b"))
            b_applier = ReplicaApplier(bdb, "127.0.0.1", a_port,
                                       replica_id="hop-b", wait_ms=100,
                                       checkpoint_interval=0.2)
            b_applier.start()
            with DatabaseClient(primary.host, primary.port) as pclient:
                write_parts(pclient, 0, 4)
                head = pdb._wal.shippable_lsn
                wait_until(lambda: b_applier.applied_lsn >= head,
                           message="hop B to replay through hop A")

                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=10)
                # The chain is severed; the primary keeps committing.
                write_parts(pclient, 4, 4)
                head = pdb._wal.shippable_lsn

                proc, _ = launch(a_port)  # same data dir, same port
                wait_until(lambda: b_applier.applied_lsn >= head,
                           timeout=30.0,
                           message="hop B to converge after the restart")
            assert [e.row["Part.name"] for e in
                    bdb.query("SELECT Part.name FROM Part "
                              "VALID AT 100").entries] == \
                [e.row["Part.name"] for e in
                 pdb.query("SELECT Part.name FROM Part "
                           "VALID AT 100").entries]
            assert b_applier.reconnects >= 1
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
            if b_applier is not None:
                b_applier.stop()
            if bdb is not None:
                try:
                    bdb.close()
                except Exception:
                    pass
            primary.shutdown()
            try:
                pdb.close()
            except Exception:
                pass

"""Server integration: sessions, transactions, admission, shutdown.

The load-bearing test is the differential one: N concurrent network
clients must read results *byte-identical* to in-process execution —
the server adds transport, never semantics.  Around it: handshake
negotiation, wire transactions (commit/rollback/disconnect), load
shedding with structured transient errors, idle reaping, connection
caps, and graceful drain-then-checkpoint shutdown.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import DatabaseConfig, TemporalDatabase
from repro.errors import (ConnectionClosedError, HandshakeError, RemoteError,
                          ReproError)
from repro.server import (
    AdmissionController,
    ClientPool,
    DatabaseClient,
    DatabaseServer,
)
from repro.server.protocol import (
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    Opcode,
    encode_payload,
    read_frame,
    result_to_payload,
    write_frame,
)


@pytest.fixture
def sdb(tmp_path, cad_schema):
    """A single-strategy database for server tests (speed)."""
    database = TemporalDatabase.create(
        str(tmp_path / "serverdb"), cad_schema,
        DatabaseConfig(buffer_pages=64))
    yield database
    try:
        database.close()
    except Exception:
        pass


@pytest.fixture
def server(sdb):
    with DatabaseServer(sdb, max_connections=16) as srv:
        yield srv


def _stock(db, count=4):
    with db.transaction() as txn:
        for index in range(count):
            txn.insert("Part", {"name": f"part{index}",
                                "cost": float(index * 10)}, valid_from=0)


def _raw_connection(server):
    """A bare socket past the handshake, for frame-level assertions."""
    sock = socket.create_connection((server.host, server.port), timeout=5)
    sock.settimeout(5)
    write_frame(sock, Opcode.HELLO, 1, encode_payload(
        {"magic": PROTOCOL_MAGIC, "protocol": PROTOCOL_VERSION}))
    frame = read_frame(sock)
    assert frame.opcode == Opcode.RESULT
    return sock


class TestHandshake:
    def test_reports_version_schema_and_session(self, server):
        with DatabaseClient(server.host, server.port) as client:
            assert client.session["protocol"] == PROTOCOL_VERSION
            assert client.session["schema"] == "cad"
            assert client.session["session_id"] >= 1

    def test_bad_magic_is_refused(self, server):
        sock = socket.create_connection((server.host, server.port),
                                        timeout=5)
        sock.settimeout(5)
        write_frame(sock, Opcode.HELLO, 1, encode_payload(
            {"magic": "nope", "protocol": PROTOCOL_VERSION}))
        frame = read_frame(sock)
        assert frame.opcode == Opcode.ERROR
        assert frame.decode()["error"] == "HandshakeError"
        sock.close()

    def test_version_mismatch_is_refused(self, server):
        sock = socket.create_connection((server.host, server.port),
                                        timeout=5)
        sock.settimeout(5)
        write_frame(sock, Opcode.HELLO, 1, encode_payload(
            {"magic": PROTOCOL_MAGIC, "protocol": 999}))
        frame = read_frame(sock)
        assert frame.opcode == Opcode.ERROR
        body = frame.decode()
        assert body["error"] == "HandshakeError"
        assert "999" in body["message"]
        sock.close()

    def test_non_hello_first_frame_is_refused(self, server):
        sock = socket.create_connection((server.host, server.port),
                                        timeout=5)
        sock.settimeout(5)
        write_frame(sock, Opcode.QUERY, 1, encode_payload(
            {"text": "SELECT ALL FROM Part VALID AT 5"}))
        frame = read_frame(sock)
        assert frame.opcode == Opcode.ERROR
        sock.close()

    def test_client_raises_handshake_error(self, sdb):
        import repro.server.client as client_module
        with DatabaseServer(sdb) as srv:
            original = client_module.PROTOCOL_VERSION
            client_module.PROTOCOL_VERSION = 999
            try:
                with pytest.raises(HandshakeError):
                    DatabaseClient(srv.host, srv.port)
            finally:
                client_module.PROTOCOL_VERSION = original


class TestDifferentialOracle:
    QUERIES = (
        "SELECT ALL FROM Part VALID AT 5",
        "SELECT Part.name FROM Part WHERE Part.cost > 10 VALID AT 5",
        "SELECT ALL FROM Part WHERE Part.name = 'part1' VALID AT 5",
        "SELECT Part.name, Part.cost FROM Part VALID HISTORY",
    )

    def test_concurrent_clients_match_local_bytes(self, sdb, server):
        """≥4 network clients, results byte-for-byte equal to local."""
        _stock(sdb, count=6)
        oracle = {text: encode_payload(result_to_payload(sdb.query(text)))
                  for text in self.QUERIES}
        failures = []

        def worker(worker_id):
            try:
                with DatabaseClient(server.host, server.port) as client:
                    for round_no in range(5):
                        for text in self.QUERIES:
                            remote = encode_payload(client.query(text))
                            if remote != oracle[text]:
                                failures.append(
                                    (worker_id, round_no, text))
            except Exception as exc:  # noqa: BLE001 - collected below
                failures.append((worker_id, "exception", repr(exc)))

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not failures, failures

    def test_writers_and_readers_interleave_safely(self, sdb, server):
        """Concurrent wire writers + readers; final state matches an
        in-process read exactly."""
        _stock(sdb, count=2)
        errors = []

        def writer(worker_id):
            try:
                with DatabaseClient(server.host, server.port) as client:
                    for index in range(4):
                        with client.transaction() as txn:
                            txn.insert("Part", {
                                "name": f"w{worker_id}-{index}",
                                "cost": float(worker_id)}, valid_from=0)
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        def reader():
            try:
                with DatabaseClient(server.host, server.port) as client:
                    for _ in range(10):
                        body = client.query(
                            "SELECT Part.name FROM Part VALID AT 5")
                        assert len(body["entries"]) >= 2
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = ([threading.Thread(target=writer, args=(n,))
                    for n in range(3)]
                   + [threading.Thread(target=reader) for _ in range(3)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors, errors
        text = "SELECT Part.name FROM Part VALID AT 5"
        local = encode_payload(result_to_payload(sdb.query(text)))
        with DatabaseClient(server.host, server.port) as client:
            assert encode_payload(client.query(text)) == local
        # 3 writers x 4 inserts + 2 stocked parts
        assert len(sdb.query(text).entries) == 14


class TestTransactionsOverTheWire:
    def test_commit_makes_writes_visible_to_other_clients(self, server):
        with DatabaseClient(server.host, server.port) as alice, \
                DatabaseClient(server.host, server.port) as bob:
            with alice.transaction() as txn:
                txn.insert("Part", {"name": "axle", "cost": 7.0},
                           valid_from=0)
            body = bob.query("SELECT Part.name FROM Part VALID AT 5")
            names = [e["row"]["Part.name"] for e in body["entries"]]
            assert names == ["axle"]

    def test_rollback_discards_writes(self, server):
        with DatabaseClient(server.host, server.port) as client:
            txn = client.begin()
            txn.insert("Part", {"name": "ghost"}, valid_from=0)
            txn.rollback()
            body = client.query("SELECT ALL FROM Part VALID AT 5")
            assert body["entries"] == []

    def test_exception_in_context_manager_rolls_back(self, server):
        with DatabaseClient(server.host, server.port) as client:
            with pytest.raises(RuntimeError):
                with client.transaction() as txn:
                    txn.insert("Part", {"name": "doomed"}, valid_from=0)
                    raise RuntimeError("abort it")
            body = client.query("SELECT ALL FROM Part VALID AT 5")
            assert body["entries"] == []

    def test_disconnect_with_open_transaction_rolls_back(self, server):
        sock = _raw_connection(server)
        write_frame(sock, Opcode.BEGIN, 2, b"{}")
        assert read_frame(sock).opcode == Opcode.RESULT
        write_frame(sock, Opcode.MUTATE, 3, encode_payload(
            {"op": "insert", "args": {"type": "Part",
                                      "values": {"name": "orphan"},
                                      "valid_from": 0}}))
        assert read_frame(sock).opcode == Opcode.RESULT
        sock.close()  # vanish mid-transaction
        deadline = time.monotonic() + 5
        with DatabaseClient(server.host, server.port) as client:
            while time.monotonic() < deadline:
                body = client.query("SELECT ALL FROM Part VALID AT 5")
                if body["entries"] == []:
                    return
                time.sleep(0.05)
        pytest.fail("orphaned transaction was not rolled back")

    def test_double_begin_is_a_clean_error(self, server):
        with DatabaseClient(server.host, server.port) as client:
            client.begin()
            with pytest.raises(RemoteError) as info:
                client._roundtrip(Opcode.BEGIN, {})
            assert info.value.remote_type == "TransactionStateError"

    def test_commit_without_begin_is_a_clean_error(self, server):
        with DatabaseClient(server.host, server.port) as client:
            with pytest.raises(RemoteError) as info:
                client._roundtrip(Opcode.COMMIT, {})
            assert info.value.remote_type == "TransactionStateError"

    def test_mutations_autocommit_outside_a_transaction(self, server):
        with DatabaseClient(server.host, server.port) as client:
            atom_id = client.mutate("insert", type="Part",
                                    values={"name": "solo"},
                                    valid_from=0)["atom_id"]
            assert atom_id >= 1
            body = client.query("SELECT Part.name FROM Part VALID AT 5")
            assert [e["row"]["Part.name"] for e in body["entries"]] \
                == ["solo"]


class TestErrorFrames:
    def test_query_errors_carry_the_server_class(self, server):
        with DatabaseClient(server.host, server.port) as client:
            with pytest.raises(RemoteError) as info:
                client.query("SELECT ALL FROM Nonexistent VALID AT 5")
            assert not info.value.transient
            # the session survives a failed request
            assert client.ping()["pong"] is True

    def test_unknown_opcode_gets_an_error_frame_not_a_hangup(self, server):
        sock = _raw_connection(server)
        write_frame(sock, 200, 9, b"{}")
        frame = read_frame(sock)
        assert frame.opcode == Opcode.ERROR
        assert frame.request_id == 9
        assert frame.decode()["error"] == "ProtocolError"
        # connection still usable afterwards
        write_frame(sock, Opcode.PING, 10, b"{}")
        assert read_frame(sock).opcode == Opcode.RESULT
        sock.close()

    def test_lone_surrogate_is_a_structured_error(self, server):
        # ASCII JSON can escape a lone surrogate that UTF-8 cannot hold;
        # the engine's validation refuses it before anything is logged.
        sock = _raw_connection(server)
        mutate = {"op": "insert", "args": {
            "type": "Part", "values": {"name": "x\ud800"}, "valid_from": 0}}
        write_frame(sock, Opcode.MUTATE, 2, json.dumps(mutate).encode())
        frame = read_frame(sock)
        assert frame.opcode == Opcode.ERROR
        assert frame.decode()["error"] == "TypeMismatchError"
        mutate["args"]["values"]["name"] = "x"
        write_frame(sock, Opcode.MUTATE, 3, json.dumps(mutate).encode())
        frame = read_frame(sock)
        assert frame.opcode == Opcode.RESULT
        assert frame.decode()["atom_id"] >= 1
        sock.close()

    def test_client_refuses_a_lone_surrogate(self, server):
        with DatabaseClient(server.host, server.port) as client:
            with pytest.raises(ReproError):
                with client.transaction() as txn:
                    txn.insert("Part", {"name": "x\ud800"}, valid_from=0)
            with client.transaction() as txn:
                assert txn.insert("Part", {"name": "x"}, valid_from=0) >= 1

    def test_corrupt_frame_reports_then_closes(self, server):
        sock = _raw_connection(server)
        sock.sendall(b"\x10\x00\x00\x00" + b"\xde\xad\xbe\xef" * 4)
        frame = read_frame(sock)
        assert frame.opcode == Opcode.ERROR
        assert frame.decode()["error"] == "ProtocolError"
        # after a framing error the server hangs up
        assert sock.recv(1) == b""
        sock.close()

    def test_garbage_bytes_never_kill_the_server(self, server):
        import random
        rng = random.Random(7)
        for _ in range(20):
            sock = socket.create_connection((server.host, server.port),
                                            timeout=5)
            blob = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(1, 128)))
            try:
                sock.sendall(blob)
                sock.close()
            except OSError:
                pass
        # the server still serves fresh, well-formed connections
        with DatabaseClient(server.host, server.port) as client:
            assert client.ping()["pong"] is True


class TestAdmission:
    def test_saturation_sheds_with_a_transient_error(self, sdb):
        admission = AdmissionController(max_inflight=1, max_queued=0,
                                        metrics=sdb.metrics)
        with DatabaseServer(sdb, admission=admission) as srv:
            admission.try_acquire()  # occupy the only slot
            try:
                with DatabaseClient(srv.host, srv.port,
                                    max_retries=0) as client:
                    with pytest.raises(RemoteError) as info:
                        client.ping()
                    assert info.value.remote_type == "ServerSaturatedError"
                    assert info.value.transient
            finally:
                admission.release()
            assert sdb.metrics.value("server.load_shed") >= 1

    def test_queue_timeout_is_transient(self, sdb):
        admission = AdmissionController(max_inflight=1, max_queued=4,
                                        request_timeout=0.1,
                                        metrics=sdb.metrics)
        with DatabaseServer(sdb, admission=admission) as srv:
            admission.try_acquire()
            try:
                with DatabaseClient(srv.host, srv.port,
                                    max_retries=0) as client:
                    with pytest.raises(RemoteError) as info:
                        client.ping()
                    assert info.value.remote_type == "RequestTimeoutError"
                    assert info.value.transient
            finally:
                admission.release()

    def test_client_retries_through_transient_saturation(self, sdb):
        admission = AdmissionController(max_inflight=1, max_queued=0,
                                        metrics=sdb.metrics)
        with DatabaseServer(sdb, admission=admission) as srv:
            admission.try_acquire()
            releaser = threading.Timer(0.15, admission.release)
            releaser.start()
            try:
                with DatabaseClient(srv.host, srv.port, max_retries=5,
                                    backoff_base=0.05) as client:
                    assert client.ping()["pong"] is True
            finally:
                releaser.join()

    def test_connection_cap_refuses_with_error_frame(self, sdb):
        with DatabaseServer(sdb, max_connections=1) as srv:
            keeper = DatabaseClient(srv.host, srv.port)
            try:
                sock = socket.create_connection((srv.host, srv.port),
                                                timeout=5)
                sock.settimeout(5)
                frame = read_frame(sock)
                assert frame.opcode == Opcode.ERROR
                body = frame.decode()
                assert body["error"] == "ServerSaturatedError"
                assert body["transient"] is True
                sock.close()
            finally:
                keeper.close()

    def test_request_metrics_and_slow_query_log(self, sdb):
        admission = AdmissionController(slow_query_ms=0.0,
                                        metrics=sdb.metrics)
        with DatabaseServer(sdb, admission=admission) as srv:
            with DatabaseClient(srv.host, srv.port) as client:
                client.query("SELECT ALL FROM Part VALID AT 5")
            assert sdb.metrics.value("server.requests") >= 1
            histogram = sdb.metrics.histogram("server.request_seconds")
            assert histogram.count >= 1
            entries = admission.events.tail(event="slow_query")
            assert any(e["opcode"] == "QUERY" and "SELECT" in e["text"]
                       for e in entries)


class TestSessionLifecycle:
    def test_idle_sessions_are_reaped(self, sdb, monkeypatch):
        import repro.server.server as server_module
        monkeypatch.setattr(server_module, "REAPER_INTERVAL", 0.05)
        with DatabaseServer(sdb, idle_timeout=0.1) as srv:
            client = DatabaseClient(srv.host, srv.port)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if sdb.metrics.value("server.connections.reaped") >= 1:
                    break
                time.sleep(0.05)
            assert sdb.metrics.value("server.connections.reaped") >= 1
            with pytest.raises(ConnectionClosedError):
                for _ in range(3):
                    client.ping()

    def test_active_gauge_tracks_connections(self, sdb, server):
        gauge = sdb.metrics.gauge("server.connections.active")
        client = DatabaseClient(server.host, server.port)
        assert gauge.value >= 1
        client.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and gauge.value != 0:
            time.sleep(0.02)
        assert gauge.value == 0

    def test_explain_over_the_wire_stitches_one_span_tree(self, sdb,
                                                          server):
        _stock(sdb)
        with DatabaseClient(server.host, server.port) as client:
            body = client.explain("SELECT ALL FROM Part VALID AT 5")
        spans = body["profile"]["spans"]
        # One tree: the client's own span roots it, the server's
        # server.request subtree hangs beneath, the kernel beneath that.
        assert len(spans) == 1
        client_span = spans[0]
        assert client_span["name"] == "client.request"
        assert client_span["parent_span_id"] is None
        (server_span,) = client_span["children"]
        assert server_span["name"] == "server.request"
        child_names = [c["name"] for c in server_span["children"]]
        assert "mql.execute" in child_names
        # Both processes share the trace id; the server root parents
        # onto the client span's id.
        assert server_span["trace_id"] == client_span["trace_id"]
        assert server_span["parent_span_id"] == client_span["span_id"]
        assert body["profile"]["trace_id"] == client_span["trace_id"]
        # The client saw the wire + scheduling on top of server time.
        assert (client_span["duration_ms"]
                >= server_span["duration_ms"])

    def test_explain_without_trace_context_keeps_server_root(
            self, sdb, server):
        _stock(sdb)
        with DatabaseClient(server.host, server.port,
                            trace_context=False) as client:
            body = client.explain("SELECT ALL FROM Part VALID AT 5")
        spans = body["profile"]["spans"]
        assert spans[0]["name"] == "server.request"
        # The server still traces under its own fresh trace id.
        assert spans[0]["trace_id"]


class TestGracefulShutdown:
    def test_shutdown_is_idempotent_and_checkpoints(self, sdb):
        server = DatabaseServer(sdb).start()
        with DatabaseClient(server.host, server.port) as client:
            client.mutate("insert", type="Part", values={"name": "saved"},
                          valid_from=0)
        server.shutdown()
        server.shutdown()  # second call is a no-op
        # drained and checkpointed: a clean close needs no extra work
        sdb.close()

    def test_shutdown_drains_inflight_requests(self, sdb):
        _stock(sdb, count=4)
        with DatabaseServer(sdb) as srv:
            results = []

            def run_queries():
                with DatabaseClient(srv.host, srv.port) as client:
                    for _ in range(20):
                        body = client.query(
                            "SELECT ALL FROM Part VALID AT 5")
                        results.append(len(body["entries"]))

            thread = threading.Thread(target=run_queries)
            thread.start()
            time.sleep(0.05)
            srv.shutdown()
            thread.join(10)
            # every response that arrived was complete and correct
            assert results
            assert all(count == 4 for count in results)

    def test_new_connections_refused_after_shutdown(self, sdb):
        server = DatabaseServer(sdb).start()
        server.shutdown()
        with pytest.raises(OSError):
            socket.create_connection((server.host, server.port),
                                     timeout=0.5)


class TestClientPool:
    def test_pool_serves_parallel_queries(self, sdb, server):
        _stock(sdb, count=3)
        oracle = encode_payload(result_to_payload(
            sdb.query("SELECT ALL FROM Part VALID AT 5")))
        mismatches = []
        with ClientPool(server.host, server.port, size=3) as pool:
            def worker():
                for _ in range(5):
                    body = pool.query("SELECT ALL FROM Part VALID AT 5")
                    if encode_payload(body) != oracle:
                        mismatches.append(body)
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        assert not mismatches

    def test_pool_discards_dead_connections(self, sdb):
        with DatabaseServer(sdb) as srv:
            pool = ClientPool(srv.host, srv.port, size=1)
            with pool.acquire() as client:
                client._abandon()  # simulate a died-in-use connection
            # pool replaces it transparently
            assert pool.query("SELECT ALL FROM Part VALID AT 5") is not None
            pool.close()


def _wait_admission_idle(admission, timeout=5.0):
    """The server releases its slot *after* writing the response, so a
    client that just got an answer may race the release; wait it out."""
    deadline = time.monotonic() + timeout
    while admission.inflight and time.monotonic() < deadline:
        time.sleep(0.005)
    assert admission.inflight == 0


class TestTransactionFrameRobustness:
    """Regressions: a failed COMMIT/ROLLBACK must never leave the
    client believing a server-side transaction is gone while the server
    still holds it open (later "autocommit" mutations would silently
    join it and be lost with it)."""

    def test_commit_bypasses_admission_under_saturation(self, sdb):
        admission = AdmissionController(max_inflight=1, max_queued=0,
                                        metrics=sdb.metrics)
        with DatabaseServer(sdb, admission=admission) as srv:
            with DatabaseClient(srv.host, srv.port,
                                max_retries=0) as client:
                txn = client.begin()
                txn.insert("Part", {"name": "committed-under-load"},
                           valid_from=0)
                _wait_admission_idle(admission)
                admission.try_acquire()  # saturate: gated frames shed now
                try:
                    txn.commit()  # must not be shed
                finally:
                    admission.release()
                body = client.query("SELECT Part.name FROM Part "
                                    "VALID AT 5")
                assert [e["row"]["Part.name"] for e in body["entries"]] \
                    == ["committed-under-load"]

    def test_rollback_bypasses_admission_under_saturation(self, sdb):
        admission = AdmissionController(max_inflight=1, max_queued=0,
                                        metrics=sdb.metrics)
        with DatabaseServer(sdb, admission=admission) as srv:
            with DatabaseClient(srv.host, srv.port,
                                max_retries=0) as client:
                txn = client.begin()
                txn.insert("Part", {"name": "doomed"}, valid_from=0)
                _wait_admission_idle(admission)
                admission.try_acquire()
                try:
                    txn.rollback()  # must not be shed
                finally:
                    admission.release()
                assert client._closed is False
                assert client._in_transaction is False
                body = client.query("SELECT ALL FROM Part VALID AT 5")
                assert body["entries"] == []

    def test_failed_commit_does_not_leak_zombie_transaction(self, server):
        with DatabaseClient(server.host, server.port) as client:
            real_roundtrip = client._roundtrip
            shed = []

            def flaky(opcode, payload):
                if opcode == Opcode.COMMIT and not shed:
                    shed.append(True)
                    raise RemoteError("ServerSaturatedError",
                                      "synthetic shed", transient=True)
                return real_roundtrip(opcode, payload)

            client._roundtrip = flaky
            txn = client.begin()
            txn.insert("Part", {"name": "zombie"}, valid_from=0)
            with pytest.raises(RemoteError):
                txn.commit()
            # client state is consistent with the server: no open txn
            assert client._in_transaction is False
            # ... so this autocommits instead of joining a zombie txn
            client.mutate("insert", type="Part",
                          values={"name": "survivor"}, valid_from=0)
        with DatabaseClient(server.host, server.port) as checker:
            body = checker.query("SELECT Part.name FROM Part VALID AT 5")
            names = sorted(e["row"]["Part.name"]
                           for e in body["entries"])
            assert names == ["survivor"]

    def test_pool_rolls_back_transaction_leaked_by_borrower(self, server):
        with ClientPool(server.host, server.port, size=1) as pool:
            with pool.acquire() as client:
                client.begin()
                client.mutate("insert", type="Part",
                              values={"name": "leaked"}, valid_from=0)
                # borrower "forgets" to commit or roll back
            with pool.acquire() as client:
                assert client._in_transaction is False
                client.mutate("insert", type="Part",
                              values={"name": "clean"}, valid_from=0)
            body = pool.query("SELECT Part.name FROM Part VALID AT 5")
            names = sorted(e["row"]["Part.name"] for e in body["entries"])
            assert names == ["clean"]


class TestStreamDesyncAbandon:
    """Regression: any framing-level failure must mark the connection
    unusable so callers (and the pool) discard it instead of recycling
    a desynchronized byte stream."""

    def test_protocol_error_abandons_connection(self, server, monkeypatch):
        import repro.server.client as client_module
        from repro.errors import ProtocolError

        client = DatabaseClient(server.host, server.port)

        def bad_read(sock):
            raise ProtocolError("frame CRC mismatch: synthetic")

        monkeypatch.setattr(client_module, "read_frame", bad_read)
        with pytest.raises(ProtocolError):
            client.ping()
        assert client._closed is True

    def test_request_id_mismatch_abandons_connection(self, server,
                                                     monkeypatch):
        import repro.server.client as client_module
        from repro.errors import ProtocolError

        client = DatabaseClient(server.host, server.port)
        real_read = client_module.read_frame

        def skewed(sock):
            frame = real_read(sock)
            return type(frame)(frame.opcode, frame.request_id + 7,
                               frame.payload)

        monkeypatch.setattr(client_module, "read_frame", skewed)
        with pytest.raises(ProtocolError):
            client.ping()
        assert client._closed is True


class TestServerLifecycleRaces:
    def test_reaper_spares_long_running_requests(self, sdb, monkeypatch):
        import repro.server.server as server_module
        monkeypatch.setattr(server_module, "REAPER_INTERVAL", 0.05)
        real_query = sdb.query

        def slow_query(text, params=None):
            time.sleep(0.4)
            return real_query(text, params=params)

        monkeypatch.setattr(sdb, "query", slow_query)
        with DatabaseServer(sdb, idle_timeout=0.15) as srv:
            with DatabaseClient(srv.host, srv.port) as client:
                body = client.query("SELECT ALL FROM Part VALID AT 5")
                assert body["entries"] == []
        assert sdb.metrics.value("server.connections.reaped") == 0

    def test_close_session_interlocks_with_inflight_request(
            self, sdb, monkeypatch):
        import repro.server.server as server_module
        monkeypatch.setattr(server_module, "CLOSE_INTERLOCK_TIMEOUT", 0.1)

        class FakeTxn:
            is_active = True

            def __init__(self):
                self.aborted = False

            def abort(self):
                self.aborted = True

        srv = DatabaseServer(sdb)  # internals only; never started
        try:
            left, _right = socket.socketpair()
            session = server_module.Session(1, left, "test")
            session.txn = FakeTxn()
            session.lock.acquire()  # a request is mid-dispatch
            try:
                srv._close_session(session)
                # the abort must NOT run under the worker's feet
                assert session.txn.aborted is False
            finally:
                session.lock.release()

            left2, _right2 = socket.socketpair()
            quiescent = server_module.Session(2, left2, "test")
            quiescent.txn = FakeTxn()
            txn2 = quiescent.txn
            srv._close_session(quiescent)
            # with no request in flight the rollback goes through
            assert txn2.aborted is True
            assert quiescent.txn is None
        finally:
            srv.shutdown()


class TestProtocolNegotiation:
    @pytest.mark.parametrize("version", [1, 2])
    def test_pre_v3_hello_is_refused(self, server, version):
        """Protocols 1 and 2 are gone: the HELLO gets a HandshakeError
        naming the version the server speaks, then the server hangs up."""
        sock = socket.create_connection((server.host, server.port),
                                        timeout=5)
        sock.settimeout(5)
        try:
            write_frame(sock, Opcode.HELLO, 1, encode_payload(
                {"magic": PROTOCOL_MAGIC, "protocol": version}))
            frame = read_frame(sock)
            assert frame.opcode == Opcode.ERROR
            body = frame.decode()
            assert body["error"] == "HandshakeError"
            assert f"protocol version {version}" in body["message"]
            assert "speaks [3]" in body["message"]
            with pytest.raises(ConnectionClosedError):
                read_frame(sock)
        finally:
            sock.close()

    def test_v2_client_negotiates_v2(self, server):
        with DatabaseClient(server.host, server.port) as client:
            assert client.session["protocol"] == PROTOCOL_VERSION


class TestStatsOpcode:
    def test_stats_reports_server_state_and_metrics(self, sdb, server):
        _stock(sdb)
        with DatabaseClient(server.host, server.port) as client:
            client.query("SELECT ALL FROM Part VALID AT 5")
            body = client.stats()
        state = body["server"]
        assert state["sessions"] >= 1
        assert state["max_connections"] == 16
        assert state["uptime_seconds"] >= 0
        assert state["draining"] is False
        assert state["admission"]["max_inflight"] >= 1
        counters = {c["name"] for c in body["metrics"]["counters"]}
        assert "server.requests" in counters
        histograms = {h["name"]: h for h in body["metrics"]["histograms"]}
        assert histograms["server.request_seconds"]["count"] >= 1
        assert "percentiles" in histograms["server.request_seconds"]

    def test_stats_tail_carries_structured_events(self, sdb, server):
        with DatabaseClient(server.host, server.port) as client:
            body = client.stats(events=50)
        names = [e["event"] for e in body["events"]]
        assert "server.start" in names
        assert "session.open" in names

    def test_stats_answers_under_saturation(self, sdb):
        """STATS is ungated: it must answer while gated requests shed —
        a monitor that dies exactly when the server is overloaded is
        useless."""
        admission = AdmissionController(max_inflight=1, max_queued=0,
                                        metrics=sdb.metrics)
        with DatabaseServer(sdb, admission=admission) as srv:
            admission.try_acquire()  # saturate the only slot
            try:
                with DatabaseClient(srv.host, srv.port,
                                    max_retries=0) as client:
                    with pytest.raises(RemoteError):
                        client.ping()  # gated: shed
                    body = client.stats()  # ungated: answers
                    assert body["server"]["admission"]["inflight"] == 1
            finally:
                admission.release()


class TestStructuredEvents:
    def test_shed_event_carries_request_context(self, sdb):
        admission = AdmissionController(max_inflight=1, max_queued=0,
                                        metrics=sdb.metrics)
        with DatabaseServer(sdb, admission=admission) as srv:
            admission.try_acquire()
            try:
                with DatabaseClient(srv.host, srv.port,
                                    max_retries=0) as client:
                    with pytest.raises(RemoteError):
                        client.ping()
            finally:
                admission.release()
            (shed,) = admission.events.tail(event="request.shed")
            assert shed["opcode"] == "PING"
            assert shed["session"] >= 1
            assert shed["request_id"] >= 1
            assert shed["trace_id"]  # stamped by the client

    def test_slow_query_entries_carry_ids(self, sdb):
        admission = AdmissionController(slow_query_ms=0.0,
                                        metrics=sdb.metrics)
        with DatabaseServer(sdb, admission=admission) as srv:
            with DatabaseClient(srv.host, srv.port) as client:
                client.query("SELECT ALL FROM Part VALID AT 5")
            entry = next(e for e in admission.events.tail(event="slow_query")
                         if e["opcode"] == "QUERY")
            assert "SELECT" in entry["text"]
            assert entry["request_id"] >= 1
            assert entry["session"] >= 1
            assert entry["trace_id"] and len(entry["trace_id"]) == 16

    def test_session_lifecycle_events(self, sdb):
        with DatabaseServer(sdb) as srv:
            with DatabaseClient(srv.host, srv.port) as client:
                client.ping()
            deadline = time.monotonic() + 5
            while (time.monotonic() < deadline
                   and not srv.events.tail(event="session.close")):
                time.sleep(0.02)
            opens = srv.events.tail(event="session.open")
            closes = srv.events.tail(event="session.close")
            assert len(opens) == 1 and len(closes) == 1
            assert opens[0]["session"] == closes[0]["session"]


class TestErrorTraceCorrelation:
    def test_error_frame_echoes_the_request_trace_id(self, server):
        with DatabaseClient(server.host, server.port) as client:
            with pytest.raises(RemoteError) as info:
                client.query("SELECT ALL FROM Nonexistent VALID AT 5")
            assert info.value.trace_id
            assert len(info.value.trace_id) == 16

    def test_no_trace_id_without_trace_context(self, server):
        with DatabaseClient(server.host, server.port,
                            trace_context=False) as client:
            with pytest.raises(RemoteError) as info:
                client.query("SELECT ALL FROM Nonexistent VALID AT 5")
            assert info.value.trace_id is None


class TestHttpSidecar:
    def _get(self, port, path):
        import urllib.error
        import urllib.request
        try:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}{path}", timeout=5) as resp:
                return resp.status, resp.read().decode(), dict(
                    resp.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode(), dict(exc.headers)

    def test_metrics_endpoint_serves_prometheus_text(self, sdb):
        with DatabaseServer(sdb, metrics_port=0) as srv:
            with DatabaseClient(srv.host, srv.port) as client:
                client.query("SELECT ALL FROM Part VALID AT 5")
            status, text, headers = self._get(srv.sidecar.port,
                                              "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        assert "# TYPE server_requests_total counter" in text
        assert 'server_request_seconds{quantile="0.95"}' in text
        assert "server_uptime_seconds" in text
        assert "server_draining 0" in text

    def test_health_ok_while_serving(self, sdb):
        with DatabaseServer(sdb, metrics_port=0) as srv:
            status, text, _ = self._get(srv.sidecar.port, "/health")
            assert status == 200
            assert "ok" in text

    def test_stats_endpoint_serves_json(self, sdb):
        import json as json_module
        with DatabaseServer(sdb, metrics_port=0) as srv:
            status, text, _ = self._get(srv.sidecar.port, "/stats")
            assert status == 200
            body = json_module.loads(text)
            assert body["server"]["port"] == srv.port
            assert "metrics" in body

    def test_unknown_path_is_404(self, sdb):
        with DatabaseServer(sdb, metrics_port=0) as srv:
            status, _, _ = self._get(srv.sidecar.port, "/nope")
            assert status == 404

    def test_health_flips_503_during_drain(self, sdb, monkeypatch):
        """/health must answer 503 *while* graceful shutdown drains —
        that window is exactly when a load balancer needs the signal."""
        server = DatabaseServer(sdb, metrics_port=0).start()
        release = threading.Event()
        original = sdb.checkpoint

        def blocked_checkpoint(*args, **kwargs):
            release.wait(10)
            return original(*args, **kwargs)

        monkeypatch.setattr(sdb, "checkpoint", blocked_checkpoint)
        stopper = threading.Thread(target=server.shutdown)
        stopper.start()
        try:
            deadline = time.monotonic() + 5
            status = None
            while time.monotonic() < deadline:
                status, text, _ = self._get(server.sidecar.port,
                                            "/health")
                if status == 503:
                    assert "draining" in text
                    break
                time.sleep(0.02)
            assert status == 503
        finally:
            release.set()
            stopper.join(10)
        assert not stopper.is_alive()


class TestMonitorCli:
    def test_monitor_once_prints_a_frame(self, sdb, server, capsys):
        from repro.__main__ import main
        _stock(sdb)
        with DatabaseClient(server.host, server.port) as client:
            client.query("SELECT ALL FROM Part VALID AT 5")
        code = main(["monitor", "--connect",
                     f"{server.host}:{server.port}", "--once"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"repro server {server.host}:{server.port}" in out
        assert "sessions" in out and "inflight" in out
        assert "latency" in out and "p95" in out
        assert "session.open" in out  # event tail rendered

    def test_monitor_bad_connect_arg(self, capsys):
        from repro.__main__ import main
        assert main(["monitor", "--connect", "nonsense", "--once"]) == 2

    def test_render_guards_zero_elapsed(self):
        # Two polls landing inside one clock tick must not divide by
        # zero — the rate line is simply withheld for that frame.
        from repro.__main__ import _render_monitor
        body = {
            "server": {"host": "h", "port": 1, "uptime_seconds": 3.0,
                       "sessions": 0, "max_connections": 4,
                       "admission": {"inflight": 0, "max_inflight": 2,
                                     "queued": 0, "max_queued": 8}},
            "metrics": {"counters": [
                {"name": "server.requests", "labels": {}, "value": 7}]},
        }
        frame, totals = _render_monitor(body, (3, 0), 0.0)
        assert totals == (7, 0)
        assert "throughput" not in frame
        frame, _ = _render_monitor(body, (3, 0), 2.0)
        assert "throughput 2.0 req/s" in frame


# ---------------------------------------------------------------------------
# Protocol v3: streaming cursors, the event loop, and connection scaling.
# Everything above this line predates the async server and must keep
# passing unmodified — the wire behavior of v1/v2 clients is frozen.
# ---------------------------------------------------------------------------


def _handshake_raw(server):
    """Raw socket past a handshake."""
    sock = socket.create_connection((server.host, server.port), timeout=5)
    sock.settimeout(5)
    write_frame(sock, Opcode.HELLO, 1, encode_payload(
        {"magic": PROTOCOL_MAGIC, "protocol": PROTOCOL_VERSION}))
    frame = read_frame(sock)
    assert frame.opcode == Opcode.RESULT
    return sock


def _wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestStreamingCursors:
    def test_streamed_result_equals_eager(self, sdb, server):
        _stock(sdb, count=37)
        with DatabaseClient(server.host, server.port) as client:
            eager = client.query("SELECT ALL FROM Part VALID AT 5")
            cursor = client.query_stream("SELECT ALL FROM Part VALID AT 5",
                                         chunk_entries=10)
            chunks = list(cursor.chunks())
            assert [len(c) for c in chunks] == [10, 10, 10, 7]
            assert [e for c in chunks for e in c] == eager["entries"]
            assert cursor.done
        assert server.state_snapshot()["open_cursors"] == 0

    def test_projected_stream_with_params(self, sdb, server):
        _stock(sdb, count=12)
        with DatabaseClient(server.host, server.port) as client:
            text = ("SELECT Part.name FROM Part WHERE Part.cost > $c "
                    "VALID AT 5")
            eager = client.query(text, params={"c": 40.0})
            streamed = list(client.query_stream(text, params={"c": 40.0},
                                                chunk_entries=3))
            assert streamed == eager["entries"]

    def test_streamed_diff_equals_eager(self, sdb, server):
        t0 = sdb._clock.now() - 1
        _stock(sdb, count=7)
        with sdb.transaction() as txn:
            for atom_id in sdb.atoms_of_type("Part")[:5]:
                txn.update(atom_id, {"cost": 99.0}, valid_from=0)
        t2 = sdb._clock.now() - 1
        text = f"DIFF Part BETWEEN {t0} AND {t2}"
        with DatabaseClient(server.host, server.port) as client:
            eager = client.query(text)
            cursor = client.query_stream(text, chunk_entries=2)
            streamed = list(cursor)
            assert cursor.projected is True
        assert len(eager["entries"]) > 2
        assert [encode_payload(e) for e in streamed] == \
            [encode_payload(e) for e in eager["entries"]]

    def test_interleaved_request_fails_fast_client_side(self, sdb, server):
        from repro.errors import CursorStateError
        _stock(sdb, count=12)
        with DatabaseClient(server.host, server.port) as client:
            cursor = client.query_stream("SELECT ALL FROM Part VALID AT 5",
                                         chunk_entries=3)
            with pytest.raises(CursorStateError):
                client.ping()
            cursor.close()
            # redeeming the prefetch restored request/response sync
            assert client.ping()["pong"] is True

    def test_close_mid_stream_frees_server_cursor(self, sdb, server):
        _stock(sdb, count=25)
        with DatabaseClient(server.host, server.port) as client:
            cursor = client.query_stream("SELECT ALL FROM Part VALID AT 5",
                                         chunk_entries=4)
            next(cursor.chunks())
            cursor.close()
            assert _wait_until(
                lambda: server.state_snapshot()["open_cursors"] == 0)
            assert client.ping()["pong"] is True

    def test_unknown_cursor_is_a_clean_error(self, server):
        sock = _handshake_raw(server)
        write_frame(sock, Opcode.FETCH, 2, encode_payload(
            {"cursor_id": 99}))
        frame = read_frame(sock)
        assert frame.opcode == Opcode.ERROR
        assert frame.decode()["error"] == "CursorStateError"
        # session survives
        write_frame(sock, Opcode.PING, 3, b"{}")
        assert read_frame(sock).opcode == Opcode.RESULT
        sock.close()

    def test_per_session_cursor_limit(self, sdb, server):
        from repro.server.server import MAX_CURSORS_PER_SESSION
        _stock(sdb, count=6)
        sock = _handshake_raw(server)
        for index in range(MAX_CURSORS_PER_SESSION):
            write_frame(sock, Opcode.QUERY, 10 + index, encode_payload(
                {"text": "SELECT ALL FROM Part VALID AT 5",
                 "stream": {"chunk_entries": 2}}))
            frame = read_frame(sock)
            assert frame.opcode == Opcode.RESULT, frame.decode()
        write_frame(sock, Opcode.QUERY, 50, encode_payload(
            {"text": "SELECT ALL FROM Part VALID AT 5", "stream": True}))
        frame = read_frame(sock)
        assert frame.opcode == Opcode.ERROR
        body = frame.decode()
        assert body["error"] == "CursorStateError"
        assert body["transient"] is False
        # CLOSE_CURSOR frees a slot
        write_frame(sock, Opcode.CLOSE_CURSOR, 51, encode_payload(
            {"cursor_id": 1}))
        assert read_frame(sock).decode()["closed"] is True
        write_frame(sock, Opcode.QUERY, 52, encode_payload(
            {"text": "SELECT ALL FROM Part VALID AT 5", "stream": True}))
        assert read_frame(sock).opcode == Opcode.RESULT
        sock.close()

    def test_session_death_reclaims_cursors(self, sdb, server):
        _stock(sdb, count=20)
        sock = _handshake_raw(server)
        write_frame(sock, Opcode.QUERY, 2, encode_payload(
            {"text": "SELECT ALL FROM Part VALID AT 5",
             "stream": {"chunk_entries": 3}}))
        assert read_frame(sock).opcode == Opcode.RESULT
        assert server.state_snapshot()["open_cursors"] == 1
        sock.close()  # abrupt death, no CLOSE_CURSOR
        assert _wait_until(
            lambda: server.state_snapshot()["open_cursors"] == 0)

    def test_exhaustion_auto_closes_server_side(self, sdb, server):
        _stock(sdb, count=5)
        sock = _handshake_raw(server)
        write_frame(sock, Opcode.QUERY, 2, encode_payload(
            {"text": "SELECT ALL FROM Part VALID AT 5",
             "stream": {"chunk_entries": 2}}))
        cursor_id = read_frame(sock).decode()["cursor"]["cursor_id"]
        done = False
        for rid in range(3, 10):
            write_frame(sock, Opcode.FETCH, rid, encode_payload(
                {"cursor_id": cursor_id}))
            body = read_frame(sock).decode()
            if body["done"]:
                assert body["entries"] == []
                done = True
                break
        assert done
        assert server.state_snapshot()["open_cursors"] == 0
        # a FETCH after exhaustion names an unknown cursor now
        write_frame(sock, Opcode.FETCH, 20, encode_payload(
            {"cursor_id": cursor_id}))
        assert read_frame(sock).decode()["error"] == "CursorStateError"
        sock.close()


class TestOversizedResult:
    def test_encode_result_boundary(self, sdb):
        from repro.errors import ResultTooLargeError
        from repro.server.protocol import (_FRAME_OVERHEAD,
                                           MAX_FRAME_BYTES)
        srv = DatabaseServer(sdb)  # never started; encoding is pure
        try:
            base = len(encode_payload({"pad": ""}))
            exact = MAX_FRAME_BYTES - _FRAME_OVERHEAD - base
            assert isinstance(
                srv._encode_result(1, {"pad": "x" * exact}), bytes)
            with pytest.raises(ResultTooLargeError) as info:
                srv._encode_result(1, {"pad": "x" * (exact + 1)})
            assert "cursor" in str(info.value)
        finally:
            srv.shutdown()

    def test_oversized_result_is_structured_and_cursor_recovers(
            self, sdb, monkeypatch):
        import repro.server.protocol as protocol_mod
        _stock(sdb, count=40)
        # Shrink the frame cap so a modest result overflows it without
        # building 8 MiB of data; both sides share the module global.
        monkeypatch.setattr(protocol_mod, "MAX_FRAME_BYTES", 4096)
        with DatabaseServer(sdb) as srv:
            with DatabaseClient(srv.host, srv.port,
                                max_retries=0) as client:
                with pytest.raises(RemoteError) as info:
                    client.query("SELECT ALL FROM Part VALID AT 5")
                assert info.value.remote_type == "ResultTooLargeError"
                assert info.value.transient is False
                # the session survives, and the suggested cursor works
                streamed = list(client.query_stream(
                    "SELECT ALL FROM Part VALID AT 5", chunk_entries=2))
                assert len(streamed) == 40


class TestAsyncAdmission:
    def test_queue_timeout_is_deterministic(self, sdb):
        admission = AdmissionController(max_inflight=1, max_queued=4,
                                        request_timeout=0.2,
                                        metrics=sdb.metrics)
        with DatabaseServer(sdb, admission=admission) as srv:
            admission.try_acquire()  # occupy the only slot
            try:
                with DatabaseClient(srv.host, srv.port,
                                    max_retries=0) as client:
                    started = time.monotonic()
                    with pytest.raises(RemoteError) as info:
                        client.ping()
                    waited = time.monotonic() - started
                    assert info.value.remote_type == "RequestTimeoutError"
                    assert info.value.transient
                    assert 0.1 <= waited < 2.0
            finally:
                admission.release()

    def test_queue_full_sheds_while_first_request_waits(self, sdb):
        admission = AdmissionController(max_inflight=1, max_queued=1,
                                        request_timeout=5.0,
                                        metrics=sdb.metrics)
        with DatabaseServer(sdb, admission=admission) as srv:
            admission.try_acquire()
            try:
                first = _handshake_raw(srv)
                second = _handshake_raw(srv)
                write_frame(first, Opcode.PING, 2, b"{}")
                # let the first PING park before the second arrives
                assert _wait_until(lambda: admission.queued == 1)
                write_frame(second, Opcode.PING, 2, b"{}")
                shed = read_frame(second)
                assert shed.opcode == Opcode.ERROR
                body = shed.decode()
                assert body["error"] == "ServerSaturatedError"
                assert body["transient"] is True
            finally:
                admission.release()
            # the freed slot dispatches the parked request
            assert read_frame(first).opcode == Opcode.RESULT
            first.close()
            second.close()

    def test_parked_request_runs_when_slot_frees(self, sdb):
        admission = AdmissionController(max_inflight=1, max_queued=8,
                                        request_timeout=5.0,
                                        metrics=sdb.metrics)
        with DatabaseServer(sdb, admission=admission) as srv:
            admission.try_acquire()
            sock = _handshake_raw(srv)
            write_frame(sock, Opcode.PING, 2, b"{}")
            assert _wait_until(lambda: admission.queued == 1)
            admission.release()
            frame = read_frame(sock)
            assert frame.opcode == Opcode.RESULT
            assert frame.decode()["pong"] is True
            sock.close()


class TestHandshakeMetrics:
    def test_handshake_not_counted_as_request_latency(self, sdb, server):
        sock = _handshake_raw(server)
        # the loop observes the histogram just after queuing the HELLO
        # response, so give it a beat
        assert _wait_until(
            lambda: sdb.metrics.histogram(
                "server.handshake_seconds").count == 1)
        assert sdb.metrics.histogram("server.request_seconds").count == 0
        write_frame(sock, Opcode.PING, 2, b"{}")
        assert read_frame(sock).opcode == Opcode.RESULT
        assert _wait_until(
            lambda: sdb.metrics.histogram(
                "server.request_seconds").count == 1)
        assert sdb.metrics.histogram("server.handshake_seconds").count == 1
        sock.close()


class TestPipelining:
    def test_burst_of_requests_answers_in_order(self, server):
        from repro.server.protocol import encode_frame
        sock = _handshake_raw(server)
        burst = b"".join(
            encode_frame(Opcode.PING, rid, b"{}")
            for rid in range(10, 15))
        sock.sendall(burst)
        for rid in range(10, 15):
            frame = read_frame(sock)
            assert frame.opcode == Opcode.RESULT
            assert frame.request_id == rid
        sock.close()


class TestConnectionScaling:
    def test_a_thousand_idle_sessions_fit_bounded_memory(self, sdb):
        import resource
        soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < 2300:
            pytest.skip(f"RLIMIT_NOFILE {soft} too low for the soak")

        def rss_kb():
            with open("/proc/self/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1])
            raise AssertionError("no VmRSS")

        with DatabaseServer(sdb, max_connections=1100,
                            idle_timeout=None) as srv:
            socks = []
            try:
                for _ in range(500):
                    socks.append(_handshake_raw(srv))
                rss_500 = rss_kb()
                for _ in range(500):
                    socks.append(_handshake_raw(srv))
                rss_1000 = rss_kb()
                # Steady-state cost of 500 more idle sessions stays
                # bounded: buffers are tiny and no thread is spawned.
                assert rss_1000 - rss_500 < 500 * 64, (rss_500, rss_1000)
                assert srv.state_snapshot()["sessions"] == 1000
                # the loop still answers promptly under the load
                probe = socks[0]
                started = time.monotonic()
                write_frame(probe, Opcode.PING, 2, b"{}")
                assert read_frame(probe).opcode == Opcode.RESULT
                assert time.monotonic() - started < 1.0
            finally:
                for sock in socks:
                    sock.close()


class TestClientPoolHealthCheck:
    def test_stale_dead_connection_is_replaced_not_lent(self, server):
        with ClientPool(server.host, server.port, size=1,
                        health_check_idle=0.0) as pool:
            with pool.acquire() as client:
                assert client.ping()["pong"] is True
                first = client
            # kill the idle connection behind the pool's back
            first._sock.close()
            with pool.acquire() as client:
                assert client is not first
                assert client.ping()["pong"] is True

    def test_fresh_connections_skip_the_probe(self, server):
        with ClientPool(server.host, server.port, size=1,
                        health_check_idle=3600.0) as pool:
            with pool.acquire() as client:
                first = client
            with pool.acquire() as client:
                assert client is first  # no probe, no replacement

    def test_health_check_disabled_surfaces_error_to_borrower(
            self, server):
        with ClientPool(server.host, server.port, size=1,
                        health_check_idle=None,
                        max_retries=0) as pool:
            with pool.acquire() as client:
                client.ping()
                first = client
            first._sock.close()
            with pytest.raises(ConnectionClosedError):
                with pool.acquire() as client:
                    client.ping()
            # the pool self-heals on the next acquisition
            with pool.acquire() as client:
                assert client.ping()["pong"] is True


class TestChangeStreams:
    """SUBSCRIBE over the wire: the client-side feed, cursor resume
    across reconnects, retention release, and DIFF profiling."""

    def _mutate(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "hub", "cost": 4.0},
                              valid_from=0)
            comp = txn.insert("Component", {"cname": "bearing"},
                              valid_from=0)
            txn.link("contains", part, comp, valid_from=0)
        with db.transaction() as txn:
            txn.update(part, {"cost": 6.5}, valid_from=0)
        return part, comp

    def _drain(self, feed):
        events = []
        while True:
            batch = feed.poll(wait_ms=0)
            events.extend(batch)
            if feed.caught_up:
                return events

    def test_feed_yields_typed_events_in_commit_order(self, sdb, server):
        with DatabaseClient(server.host, server.port) as client:
            feed = client.subscribe("wire-tail", from_lsn=1)
            part, comp = self._mutate(sdb)
            events = self._drain(feed)
            feed.close()
        kinds = [e["kind"] for e in events]
        assert kinds == ["atom_created", "atom_created", "link_added",
                         "attribute_changed"]
        lsns = [e["lsn"] for e in events]
        assert lsns == sorted(lsns)
        created = events[0]
        assert created["type"] == "Part" and created["atom_id"] == part
        assert created["before"] is None
        assert created["after"]["name"] == "hub"
        link = events[2]
        assert (link["link"], link["src"], link["dst"]) == \
            ("contains", part, comp)
        changed = events[3]
        assert changed["before"]["cost"] == 4.0
        assert changed["after"]["cost"] == 6.5

    def test_server_side_filters(self, sdb, server):
        with DatabaseClient(server.host, server.port) as client:
            feed = client.subscribe("wire-filtered", from_lsn=1,
                                    types=["Part"],
                                    kinds=["atom_created",
                                           "attribute_changed"])
            self._mutate(sdb)
            events = self._drain(feed)
            feed.close()
        assert [e["kind"] for e in events] == ["atom_created",
                                               "attribute_changed"]
        assert {e["type"] for e in events} == {"Part"}

    def test_reconnect_resumes_with_no_gaps_or_duplicates(self, sdb,
                                                          server):
        part, comp = self._mutate(sdb)
        with DatabaseClient(server.host, server.port) as client:
            feed = client.subscribe("wire-resume", from_lsn=1,
                                    batch_size=2)
            first = feed.poll(wait_ms=0)
            assert len(first) == 2
            feed._pending_ack = first[-1]["lsn"]
            feed.close()  # flushes the ack; cursor stays server-side
        # A new connection, no from_lsn: the persisted cursor decides.
        with DatabaseClient(server.host, server.port) as client:
            feed = client.subscribe("wire-resume")
            rest = self._drain(feed)
            feed.close()
        lsns = [e["lsn"] for e in first] + [e["lsn"] for e in rest]
        assert lsns == sorted(set(lsns)), "gap or duplicate across resume"
        assert [e["kind"] for e in rest] == ["link_added",
                                             "attribute_changed"]

    def test_cancel_releases_cursor_and_retention(self, sdb, server):
        self._mutate(sdb)
        with DatabaseClient(server.host, server.port) as client:
            feed = client.subscribe("wire-cancel", from_lsn=1)
            self._drain(feed)
            assert "wire-cancel" in sdb._wal.subscribers("cdc")
            feed.cancel()
        assert "wire-cancel" not in sdb._wal.subscribers("cdc")
        from repro.core.database import WAL_CURSORS_KEY
        extras = sdb._catalog.extras.get(WAL_CURSORS_KEY) or {}
        assert "wire-cancel" not in extras

    def test_stats_reports_cdc_subscribers(self, sdb, server):
        self._mutate(sdb)
        with DatabaseClient(server.host, server.port) as client:
            feed = client.subscribe("wire-stats", from_lsn=1)
            self._drain(feed)
            feed.poll(wait_ms=0)  # ride the ack of the drained batch
            body = client.stats()
            feed.close()
        cdc = body["server"]["cdc"]
        assert cdc["head"] >= 1
        entry = cdc["subscribers"]["wire-stats"]
        assert entry["lag"] == 0
        assert entry["held_bytes"] >= 0

    def test_explain_profiles_diff_over_the_wire(self, sdb, server):
        t0 = sdb._clock.now() - 1
        self._mutate(sdb)
        t2 = sdb._clock.now() - 1
        with DatabaseClient(server.host, server.port) as client:
            body = client.explain(
                f"DIFF Part.contains.Component BETWEEN {t0} AND {t2}")
        kinds = {entry["row"]["kind"] for entry in body["entries"]}
        assert kinds == {"atom_created", "link_added"}
        flat = []
        def walk(spans):
            for span in spans:
                flat.append(span["name"])
                walk(span.get("children", ()))
        walk(body["profile"]["spans"])
        assert "diff" in flat
        assert flat.count("slice") >= 2
        assert "compare" in flat

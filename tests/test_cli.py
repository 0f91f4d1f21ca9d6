"""Tests for the ``python -m repro`` command-line front end."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro import TemporalDatabase
from repro.__main__ import main
from repro.server import DatabaseClient


@pytest.fixture
def populated(tmp_path, cad_schema):
    path = str(tmp_path / "clidb")
    db = TemporalDatabase.create(path, cad_schema)
    with db.transaction() as txn:
        part = txn.insert("Part", {"name": "wheel", "cost": 10.0},
                          valid_from=0)
        hub = txn.insert("Component", {"cname": "hub"}, valid_from=0)
        txn.link("contains", part, hub, valid_from=0)
    with db.transaction() as txn:
        txn.update(part, {"cost": 12.0}, valid_from=10)
    db.close()
    return path, part


class TestCommands:
    def test_info(self, populated, capsys):
        path, _ = populated
        assert main(["info", path]) == 0
        out = capsys.readouterr().out
        assert "strategy" in out
        assert "Part (1 atoms)" in out
        assert "contains: Part -> Component" in out

    def test_query(self, populated, capsys):
        path, _ = populated
        assert main(["query", path,
                     "SELECT Part.cost FROM Part VALID AT 5"]) == 0
        out = capsys.readouterr().out
        assert "Part.cost=10.0" in out
        assert "plan:" in out

    def test_history(self, populated, capsys):
        path, part = populated
        assert main(["history", path, str(part)]) == 0
        out = capsys.readouterr().out
        assert "version records" in out
        assert "superseded" in out and "live" in out
        assert "contains.out" in out

    def test_timeline(self, populated, capsys):
        path, part = populated
        assert main(["timeline", path, str(part)]) == 0
        out = capsys.readouterr().out
        assert "cost=10.0" in out and "cost=12.0" in out

    def test_verify_clean(self, populated, capsys):
        path, _ = populated
        assert main(["verify", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_vacuum(self, populated, capsys):
        path, _ = populated
        assert main(["vacuum", path, "--before-tt", "100"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out
        # Database still opens and answers after vacuuming.
        assert main(["query", path,
                     "SELECT Part.cost FROM Part VALID AT 15"]) == 0

    def test_error_reporting(self, populated, capsys):
        path, _ = populated
        assert main(["query", path, "SELECT ALL FROM Nothing"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_db_path(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "missing")]) == 2


class TestServeShutdown:
    def test_back_to_back_sigterms_exit_cleanly(self, populated):
        """A second SIGTERM landing while the first is being handled
        must neither hang the server nor skip its shutdown checkpoint.

        The window is a few bytecodes wide, so the signals go in a burst
        of back-to-back pairs.
        """
        path, part = populated
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--path", path,
             "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            text=True)
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving "), line
            port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
            with DatabaseClient("127.0.0.1", port) as client:
                with client.transaction() as txn:
                    txn.update(part, {"cost": 99.0}, valid_from=20)
            for _ in range(150):
                proc.send_signal(signal.SIGTERM)
                proc.send_signal(signal.SIGTERM)
                time.sleep(0.0002)
            output, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, output
        assert "closed cleanly" in output
        db = TemporalDatabase.open(path)
        try:
            assert db.last_recovery is None  # checkpointed, nothing replayed
            assert db.version_at(part, 25).values["cost"] == 99.0
        finally:
            db.close()

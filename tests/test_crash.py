"""Crash-fault-injection harness: real ``kill -9`` plus byte-level
torn-write simulations.

Three layers of crash realism, in decreasing order of fidelity:

1. **Process kill**: a child process commits transactions and prints an
   acknowledgement *after* each commit returns; the parent SIGKILLs it
   mid-stream and reopens the database.  Under the default ``sync``
   durability every acknowledged commit must be recovered; under
   ``durability="none"`` the same workload demonstrably loses
   acknowledged commits (the records never leave the process buffer).
2. **Machine crash to the fsynced prefix**: the WAL file is truncated to
   the size it had at the last ``fsync`` (recorded by instrumenting
   ``os.fsync``), modelling power loss where the OS page cache vanishes.
   Because commits acknowledge only after fsync, recovery must land
   exactly on the acknowledged prefix.
3. **Torn tail**: the WAL is cut at arbitrary byte offsets; recovery
   must come up at exactly the longest wholly-committed prefix, never
   half a transaction and never an error.

Plus mid-checkpoint crash coverage: staged-but-unpublished checkpoint
generations and stale temp files must be ignored in favour of the last
published manifest generation.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro import DatabaseConfig, TemporalDatabase
from repro.errors import (
    RecoveryError,
    ReproError,
    TransactionStateError,
    WALError,
)
from repro.testing import ReferenceDatabase
from repro.txn import wal as wal_module
from repro.txn.recovery import (
    MANIFEST_FILE,
    publish_checkpoint,
    read_manifest,
)

# -- layer 1: real SIGKILL against a child process ---------------------------------

CHILD_SCRIPT = textwrap.dedent("""\
    import sys

    from repro import (AtomType, Attribute, DataType, DatabaseConfig,
                       Schema, TemporalDatabase)

    path, durability = sys.argv[1], sys.argv[2]
    schema = Schema("crash")
    schema.add_atom_type(AtomType("Part", [
        Attribute("name", DataType.STRING, required=True)]))
    db = TemporalDatabase.create(
        path, schema, DatabaseConfig(buffer_pages=16, durability=durability))
    for i in range(1000):
        with db.transaction() as txn:
            atom = txn.insert("Part", {"name": f"part-{i}"}, valid_from=0)
        # The commit above has returned: under sync durability this line
        # is only reached once the COMMIT record is on stable storage.
        sys.stdout.write(f"ACK {atom}\\n")
        sys.stdout.flush()
    """)


def _child_env():
    """The environment for a child process that imports this ``src``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_child_until_kill(tmp_path, durability, acks_before_kill=6):
    """Start the committing child, SIGKILL it after N acks, return acks."""
    db_path = str(tmp_path / "killdb")
    script = tmp_path / "child.py"
    script.write_text(CHILD_SCRIPT)
    child = subprocess.Popen(
        [sys.executable, str(script), db_path, durability],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
        text=True)
    acked = []
    try:
        assert child.stdout is not None
        for line in child.stdout:
            if line.startswith("ACK "):
                acked.append(int(line.split()[1]))
            if len(acked) >= acks_before_kill:
                break
        else:  # child exited early: surface its stderr
            pytest.fail(f"child exited: {child.stderr.read()}")
        child.kill()  # SIGKILL: no atexit, no flush, no close
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL
    return db_path, acked


class TestProcessKill:
    def test_default_durability_recovers_every_acked_commit(self, tmp_path):
        db_path, acked = _run_child_until_kill(tmp_path, "sync")
        assert len(acked) >= 6
        recovered = TemporalDatabase.open(db_path)
        try:
            survivors = set(recovered.atoms_of_type("Part"))
            missing = [a for a in acked if a not in survivors]
            assert missing == [], \
                f"acknowledged commits lost under sync durability: {missing}"
            for atom in acked:
                assert recovered.version_at(atom, 0) is not None
        finally:
            recovered.close()

    def test_durability_none_loses_acked_commits(self, tmp_path):
        """The opt-out really is unsafe: acked commits vanish on kill -9.

        With ``durability="none"`` commit records stay in the process
        stdio buffer, so a SIGKILL after the ack deterministically
        drops them — this is the regression test for the old silent
        ``sync_commits=False`` default.
        """
        db_path, acked = _run_child_until_kill(tmp_path, "none")
        assert len(acked) >= 6
        recovered = TemporalDatabase.open(db_path)
        try:
            survivors = set(recovered.atoms_of_type("Part"))
            lost = [a for a in acked if a not in survivors]
            assert lost, ("durability='none' lost nothing; the crash "
                          "demonstration is no longer meaningful")
        finally:
            recovered.close()


REFUSED_CHILD_SCRIPT = textwrap.dedent("""\
    import sys
    import time

    from repro import (AtomType, Attribute, DataType, Schema,
                       TemporalDatabase)
    from repro.errors import ReproError

    schema = Schema("refused")
    schema.add_atom_type(AtomType("Part", [
        Attribute("name", DataType.STRING, required=True),
        Attribute("cost", DataType.FLOAT)]))
    db = TemporalDatabase.create(sys.argv[1], schema)
    refused = []
    with db.transaction() as txn:
        part = txn.insert("Part", {"name": "good"}, valid_from=0)
        for refuse in (
                lambda: txn.insert("Part", {"name": 5}, valid_from=0),
                lambda: txn.update(999, {"cost": 1.0}, valid_from=0),
                lambda: txn.insert("Part", {"name": "again"}, valid_from=5,
                                   atom_id=part)):
            try:
                refuse()
            except ReproError as exc:
                refused.append(type(exc).__name__)
        txn.update(part, {"cost": 2.0}, valid_from=10)
        tt = txn.transaction_time
    sys.stdout.write(f"ACK {part} {tt} {' '.join(refused)}\\n")
    sys.stdout.flush()
    time.sleep(60)
    """)


def _refused_schema():
    from repro import AtomType, Attribute, DataType, Schema
    schema = Schema("refused")
    schema.add_atom_type(AtomType("Part", [
        Attribute("name", DataType.STRING, required=True),
        Attribute("cost", DataType.FLOAT)]))
    return schema


class TestRefusedOperations:
    def test_refused_operations_leave_the_log_replayable(self, tmp_path):
        """A committed transaction whose operations were partly refused
        (a validation error, an unknown atom, an overlapping insert)
        survives a SIGKILL before any checkpoint: only the accepted
        operations were logged, so recovery replays exactly the state
        the reference model reaches."""
        db_path = str(tmp_path / "refuseddb")
        script = tmp_path / "refused.py"
        script.write_text(REFUSED_CHILD_SCRIPT)
        child = subprocess.Popen(
            [sys.executable, str(script), db_path], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=_child_env(), text=True)
        try:
            assert child.stdout is not None
            line = child.stdout.readline()
            if not line.startswith("ACK "):
                pytest.fail(f"child exited: {child.stderr.read()}")
            child.kill()
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
        _, part, tt, *refused = line.split()
        part, tt = int(part), int(tt)

        ref = ReferenceDatabase(_refused_schema())
        ref.insert("Part", {"name": "good"}, 0, tt=tt, atom_id=part)
        ref_refused = []
        for refuse in (
                lambda: ref.insert("Part", {"name": 5}, 0, tt=tt,
                                   atom_id=part + 1),
                lambda: ref.update(999, {"cost": 1.0}, 0, tt=tt),
                lambda: ref.insert("Part", {"name": "again"}, 5, tt=tt,
                                   atom_id=part)):
            with pytest.raises(ReproError) as caught:
                refuse()
            ref_refused.append(type(caught.value).__name__)
        ref.update(part, {"cost": 2.0}, 10, tt=tt)
        assert refused == ref_refused == [
            "TypeMismatchError", "UnknownAtomError", "TemporalUpdateError"]

        recovered = TemporalDatabase.open(db_path)
        try:
            assert recovered.atoms_of_type("Part") == ref.atoms_of_type(
                "Part") == [part]
            assert recovered.history(part) == ref.all_versions(part)
        finally:
            recovered.close()


# -- layers 2+3: byte-level WAL surgery --------------------------------------------

def _build_committed_sequence(tmp_path, cad_schema, *, group_commit=True):
    """Commit a chain of updates, recording the WAL size after each commit.

    Returns ``(path, part_id, sizes)`` where ``sizes[i]`` is the WAL
    byte length that made commit ``i`` durable (commit ``i`` sets
    ``cost`` to ``float(i)``).
    """
    path = str(tmp_path / "sweepdb")
    db = TemporalDatabase.create(
        path, cad_schema,
        DatabaseConfig(buffer_pages=32, group_commit=group_commit))
    sizes = []
    with db.transaction() as txn:
        part = txn.insert("Part", {"name": "sweep", "cost": 0.0},
                          valid_from=0)
    sizes.append(db._wal._file.tell())
    for i in range(1, 6):
        with db.transaction() as txn:
            txn.update(part, {"cost": float(i)}, valid_from=0)
        sizes.append(db._wal._file.tell())
    # Crash: abandon the object; commits already fsynced the WAL.
    db._disk._file.flush()
    return path, part, sizes


def _highest_committed(sizes, truncated_to):
    """Index of the newest commit wholly contained in the truncated WAL."""
    best = -1
    for index, size in enumerate(sizes):
        if size <= truncated_to:
            best = index
    return best


class TestTornTailSweep:
    def test_recovery_lands_on_exact_committed_prefix(self, tmp_path,
                                                      cad_schema):
        import shutil
        path, part, sizes = _build_committed_sequence(tmp_path, cad_schema)
        raw = open(os.path.join(path, "wal.log"), "rb").read()
        assert len(raw) == sizes[-1]
        # Sweep cut points across the whole log: every commit boundary,
        # plus tears strictly inside records around each boundary.  Each
        # cut recovers a pristine copy of the crash image, because
        # opening (and closing) a database rewrites its files.
        cuts = set(sizes)
        for size in sizes:
            cuts.update({size - 3, size + 3, size - 11})
        cuts = sorted(c for c in cuts if sizes[0] <= c <= len(raw))
        for cut in cuts:
            copy = str(tmp_path / f"cut-{cut}")
            shutil.copytree(path, copy)
            with open(os.path.join(copy, "wal.log"), "wb") as handle:
                handle.write(raw[:cut])
            db = TemporalDatabase.open(copy)
            try:
                expected = _highest_committed(sizes, cut)
                assert expected >= 0  # first commit is always inside
                version = db.version_at(part, 0)
                assert version is not None
                assert version.values["cost"] == float(expected), \
                    f"cut at {cut}: wanted commit {expected}"
            finally:
                db.close()
                shutil.rmtree(copy, ignore_errors=True)

    def test_scribbled_tail_is_discarded(self, tmp_path, cad_schema):
        """Garbage bytes past the last commit do not break recovery."""
        path, part, sizes = _build_committed_sequence(tmp_path, cad_schema)
        wal_path = os.path.join(path, "wal.log")
        with open(wal_path, "ab") as handle:
            handle.write(b"\x7f" * 37)  # torn write of a never-synced txn
        db = TemporalDatabase.open(path)
        try:
            assert db.version_at(part, 0).values["cost"] == float(
                len(sizes) - 1)
        finally:
            db.close()


class TestMachineCrashToFsyncedPrefix:
    def test_acked_commits_inside_fsynced_prefix(self, tmp_path, cad_schema,
                                                 monkeypatch):
        """Power-loss model: the disk keeps only what fsync covered.

        ``os.fsync`` is instrumented to record the WAL length each time
        the WAL module calls it; after a simulated power cut back to the
        *last* fsynced length, every commit that acknowledged must be
        recovered (commits acknowledge only after their covering fsync).
        """
        import repro.txn.wal as wal_module
        real_fsync = os.fsync
        fsynced_sizes = []

        def recording_fsync(fd):
            real_fsync(fd)
            fsynced_sizes.append(os.fstat(fd).st_size)

        monkeypatch.setattr(wal_module.os, "fsync", recording_fsync)
        path, part, sizes = _build_committed_sequence(tmp_path, cad_schema)
        assert fsynced_sizes, "no fsync recorded despite sync durability"
        durable_size = fsynced_sizes[-1]
        assert durable_size >= sizes[-1], \
            "a commit acknowledged before its bytes were fsynced"
        wal_path = os.path.join(path, "wal.log")
        raw = open(wal_path, "rb").read()
        with open(wal_path, "wb") as handle:
            handle.write(raw[:durable_size])
        db = TemporalDatabase.open(path)
        try:
            assert db.version_at(part, 0).values["cost"] == float(
                len(sizes) - 1)
        finally:
            db.close()


# -- mid-checkpoint crashes --------------------------------------------------------

def _checkpoint_paths(path):
    return [os.path.join(path, "pages.db"), os.path.join(path, "catalog.json")]


class TestMidCheckpointCrash:
    def _make(self, tmp_path, cad_schema):
        path = str(tmp_path / "ckptdb")
        db = TemporalDatabase.create(path, cad_schema,
                                     DatabaseConfig(buffer_pages=32))
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "ckpt", "cost": 1.0},
                              valid_from=0)
        db.checkpoint()
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=0)
        return path, part, db

    def test_staged_but_unpublished_generation_ignored(self, tmp_path,
                                                       cad_schema):
        """Crash after staging the page copy but before the manifest rename."""
        path, part, db = self._make(tmp_path, cad_schema)
        manifest = read_manifest(path)
        next_gen = manifest["generation"] + 1
        # Simulate the partial publish: one staged file of the next
        # generation exists, the manifest still names the old one.
        pages = _checkpoint_paths(path)[0]
        db.buffer.flush_all()
        db._disk._file.flush()
        import shutil
        shutil.copyfile(pages, f"{pages}.ckpt.{next_gen}")
        db._wal._file.flush()
        recovered = TemporalDatabase.open(path)
        try:
            # Restored from the published generation (so the post-checkpoint
            # update replays exactly once), not from the orphaned staged copy.
            assert recovered.version_at(part, 0).values["cost"] == 2.0
            assert read_manifest(path)["generation"] > manifest["generation"]
        finally:
            recovered.close()
        # The orphaned staged file is swept by the recovery checkpoint.
        assert not os.path.exists(f"{pages}.ckpt.{next_gen}")

    def test_stale_tmp_files_ignored_and_cleaned(self, tmp_path, cad_schema):
        """Crash mid-copy leaves ``.tmp`` litter; recovery shrugs it off."""
        path, part, db = self._make(tmp_path, cad_schema)
        gen = read_manifest(path)["generation"]
        litter = os.path.join(path, f"pages.db.ckpt.{gen + 1}.tmp")
        with open(litter, "wb") as handle:
            handle.write(b"\x00" * 64)  # half-copied page snapshot
        db._wal._file.flush()
        recovered = TemporalDatabase.open(path)
        try:
            assert recovered.version_at(part, 0).values["cost"] == 2.0
        finally:
            recovered.close()
        # The next successful checkpoint sweeps stale generations away.
        assert not os.path.exists(litter)

    def test_torn_manifest_tmp_never_current(self, tmp_path, cad_schema):
        """A torn manifest ``.tmp`` must not shadow the published manifest."""
        path, part, db = self._make(tmp_path, cad_schema)
        torn = os.path.join(path, MANIFEST_FILE + ".tmp")
        with open(torn, "w", encoding="utf-8") as handle:
            handle.write('{"generation": 99, "files"')  # cut mid-write
        db._wal._file.flush()
        recovered = TemporalDatabase.open(path)
        try:
            assert recovered.version_at(part, 0).values["cost"] == 2.0
        finally:
            recovered.close()

    def test_publish_checkpoint_generations_advance(self, tmp_path,
                                                    cad_schema):
        path, part, db = self._make(tmp_path, cad_schema)
        first = read_manifest(path)["generation"]
        db.checkpoint()
        second = read_manifest(path)["generation"]
        assert second == first + 1
        files = read_manifest(path)["files"]
        assert set(files) == {"pages.db", "catalog.json"}
        for staged in files.values():
            assert os.path.exists(os.path.join(path, staged))
        # Superseded generation files were cleaned up.
        assert not os.path.exists(
            os.path.join(path, f"pages.db.ckpt.{first}"))
        db.close()

    def test_restore_without_manifest_raises_recovery_error(
            self, tmp_path, cad_schema):
        """A database that needs replay but has no manifest refuses to
        open, before it touches a file."""
        path, _part, db = self._make(tmp_path, cad_schema)
        db.buffer.flush_all()
        db._disk._file.flush()
        db._wal._file.flush()
        os.remove(os.path.join(path, MANIFEST_FILE))
        before = {name: _read_bytes(os.path.join(path, name))
                  for name in ("pages.db", "catalog.json")}
        with pytest.raises(RecoveryError, match=MANIFEST_FILE):
            TemporalDatabase.open(path)
        assert before == {name: _read_bytes(os.path.join(path, name))
                          for name in before}

    def test_sigkill_before_first_checkpoint_recovers(self, tmp_path):
        """``create`` publishes a manifest: a database killed before its
        first explicit checkpoint restores from it and replays."""
        db_path = str(tmp_path / "freshdb")
        script = tmp_path / "fresh.py"
        script.write_text(FRESH_CHILD_SCRIPT)
        child = subprocess.Popen(
            [sys.executable, str(script), db_path], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=_child_env(), text=True)
        try:
            assert child.stdout is not None
            line = child.stdout.readline()
            if not line.startswith("ACK "):
                pytest.fail(f"child exited: {child.stderr.read()}")
            atom = int(line.split()[1])
            child.kill()
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
        assert read_manifest(db_path)["generation"] == 1
        recovered = TemporalDatabase.open(db_path)
        try:
            assert recovered.version_at(atom, 0).values["name"] == "first"
        finally:
            recovered.close()


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


FRESH_CHILD_SCRIPT = textwrap.dedent("""\
    import sys
    import time

    from repro import (AtomType, Attribute, DataType, Schema,
                       TemporalDatabase)

    schema = Schema("fresh")
    schema.add_atom_type(AtomType("Part", [
        Attribute("name", DataType.STRING, required=True)]))
    db = TemporalDatabase.create(sys.argv[1], schema)
    with db.transaction() as txn:
        atom = txn.insert("Part", {"name": "first"}, valid_from=0)
    sys.stdout.write(f"ACK {atom}\\n")
    sys.stdout.flush()
    time.sleep(60)
    """)


# -- a commit whose fsync fails ------------------------------------------------------

FAILED_FSYNC_CHILD_SCRIPT = textwrap.dedent("""\
    import errno
    import os
    import sys
    import time

    from repro import (AtomType, Attribute, DataType, Schema,
                       TemporalDatabase)
    from repro.errors import ReproError, WALError

    schema = Schema("eio")
    schema.add_atom_type(AtomType("Part", [
        Attribute("name", DataType.STRING, required=True),
        Attribute("cost", DataType.FLOAT)]))
    db = TemporalDatabase.create(sys.argv[1], schema)
    with db.transaction() as txn:
        part = txn.insert("Part", {"name": "p", "cost": 100.0},
                          valid_from=0)
    txn = db.begin()
    txn.update(part, {"cost": 123.0}, valid_from=0)

    def eio(fd):
        raise OSError(errno.EIO, "Input/output error")

    os.fsync = eio
    try:
        txn.commit()
    except WALError:
        pass
    try:
        txn.abort()
        aborted = "aborted"
    except ReproError as exc:
        aborted = type(exc).__name__
    live = db.version_at(part, 0).values["cost"]
    sys.stdout.write(f"ACK {part} {live} {aborted}\\n")
    sys.stdout.flush()
    time.sleep(60)
    """)


def _eio(fd):
    raise OSError(errno.EIO, "Input/output error")


class TestFailedCommitFsync:
    """A commit whose fsync fails may have left its COMMIT record in the
    log file, where recovery counts it: the transaction ends in doubt,
    so no undo or ABORT record can contradict what recovery replays."""

    def test_in_doubt_transaction_refuses_abort_and_close_proceeds(
            self, tmp_path, cad_schema, monkeypatch):
        path = str(tmp_path / "eio")
        db = TemporalDatabase.create(path, cad_schema)
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 100.0},
                              valid_from=0)
        txn = db.begin()
        txn.update(part, {"cost": 123.0}, valid_from=0)
        with monkeypatch.context() as patch:
            patch.setattr(wal_module.os, "fsync", _eio)
            with pytest.raises(WALError, match="fsync failed"):
                txn.commit()
        assert not txn.is_active
        with pytest.raises(TransactionStateError, match="in doubt"):
            txn.abort()
        with pytest.raises(TransactionStateError, match="in doubt"):
            txn.commit()
        live = db.version_at(part, 0).values["cost"]
        assert live == 123.0
        db.close()
        reopened = TemporalDatabase.open(path)
        try:
            assert reopened.version_at(part, 0).values["cost"] == live
        finally:
            reopened.close()

    def test_recovery_after_kill_matches_the_live_state(self, tmp_path):
        db_path = str(tmp_path / "eiodb")
        script = tmp_path / "eio.py"
        script.write_text(FAILED_FSYNC_CHILD_SCRIPT)
        child = subprocess.Popen(
            [sys.executable, str(script), db_path], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=_child_env(), text=True)
        try:
            assert child.stdout is not None
            line = child.stdout.readline()
            if not line.startswith("ACK "):
                pytest.fail(f"child exited: {child.stderr.read()}")
            child.kill()
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
        _, part, live, aborted = line.split()
        recovered = TemporalDatabase.open(db_path)
        try:
            assert recovered.version_at(int(part), 0).values["cost"] == \
                float(live)
        finally:
            recovered.close()
        assert aborted == "TransactionStateError"

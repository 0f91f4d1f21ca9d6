"""The ``python -m repro serve`` subprocess under test.

Started on a loaded directory with the default configuration; ready
once it prints its ``serving ... on HOST:PORT`` line (read with a
deadline, never polled).  :meth:`ServerProcess.stop` drains it with
SIGTERM and waits; it kills a server that does not exit in time.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import time
from typing import List, Tuple

from calibration import die_with_parent

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class ServerError(RuntimeError):
    pass


class ServerProcess:
    def __init__(self, src_dir: str, db_path: str, log_path: str) -> None:
        env = dict(os.environ, PYTHONPATH=src_dir)
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--path", db_path,
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, env=env,
            preexec_fn=die_with_parent)
        self.host, self.port = "", 0

    def wait_ready(self) -> None:
        self.host, self.port = self._read_banner()

    def _read_banner(self) -> Tuple[str, int]:
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while not line.endswith(b"\n"):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not sel.select(remaining):
                    raise ServerError("server did not report ready in time"
                                      + self._log_tail())
                chunk = os.read(self.proc.stdout.fileno(), 1)
                if not chunk:
                    raise ServerError(
                        f"server exited early (code {self.proc.wait()})"
                        + self._log_tail())
                line += chunk
        text = line.decode()
        if not text.startswith("serving ") or " on " not in text:
            raise ServerError(f"unexpected server banner: {text!r}")
        host, _, port = text.split(" on ", 1)[1].split()[0].rpartition(":")
        return host, int(port)

    def _log_tail(self) -> str:
        self._log.flush()
        with open(self._log.name, "rb") as fh:
            tail = fh.read()[-2000:].decode(errors="replace")
        return f"; its stderr ends:\n{tail}" if tail else ""

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in the server's /proc status")

    def stop(self) -> None:
        """SIGTERM, drain the output pipe, wait; kill if it hangs."""
        proc = self.proc
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        finally:
            self._log.close()


class ServerSet:
    """Every server started in this run, so each exit path stops them."""

    def __init__(self) -> None:
        self.live: List[ServerProcess] = []

    def start(self, src_dir: str, db_path: str, log_path: str
              ) -> ServerProcess:
        server = ServerProcess(src_dir, db_path, log_path)
        self.live.append(server)
        server.wait_ready()
        return server

    def stop(self, server: ServerProcess) -> None:
        self.live.remove(server)
        server.stop()

    def stop_all(self) -> None:
        while self.live:
            self.stop(self.live[-1])

"""Machine-speed calibration and core pinning.

The host's effective CPU speed drifts by tens of percent within seconds,
so a raw wall time says as much about the neighbours as about the code.
Every timed chunk of work is preceded by a fixed reference workload; a
chunk's wall time is scaled by ``REF_NOMINAL_MS / reference`` where the
reference is the rolling median of the runs around it, which follows
drift but ignores a single preempted run.

The reference has two halves of about 6 ms each, mirroring the two
halves of a request's cost:

* Python work: build small dicts and lists and encode them with
  ``json``.  The collector is paused while it runs and every object it
  makes is freed before it returns, so it triggers no collection over
  the program's heap and costs the same in a small process and in a
  loaded one.
* Kernel work: 1 KiB round trips over a socket pair to an echo child
  process on the same core.

On the shared 2-vCPU virtual machine the benchmark was tuned on, the
host slows in different ways at different times.  Over three such
periods, six to eight runs each, the two halves together left at most
1.8% run-to-run variation in calibrated throughput, the allocation half
alone up to 2.6%, the echo half alone up to 3.7%, and pure integer
arithmetic up to 7.7%.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from typing import List

#: The reference's two halves (about 6 ms each on the reference host).
ALLOC_ITERATIONS = 1_750
ECHO_ROUND_TRIPS = 600
#: The time the reference is taken to cost on the nominal machine;
#: calibrated numbers are expressed on that machine.
REF_NOMINAL_MS = 12.0
#: Reference runs on each side of a chunk that its scale is taken from.
REF_WINDOW = 2

_ECHO_CHILD = """
import socket, sys
peer = socket.socket(fileno=int(sys.argv[1]))
while True:
    data = peer.recv(65536)
    if not data:
        break
    peer.sendall(data)
"""
_MESSAGE = b"x" * 1024
_PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """In a child before exec: get SIGTERM if the benchmark is killed."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


def pin_to_one_core() -> int:
    """Pin this process (and children it spawns later) to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Reference:
    """The reference workload; owns the echo child, so close it."""

    def __init__(self) -> None:
        self._sock, theirs = socket.socketpair()
        try:
            self._child = subprocess.Popen(
                [sys.executable, "-c", _ECHO_CHILD, str(theirs.fileno())],
                pass_fds=(theirs.fileno(),), preexec_fn=die_with_parent)
        except OSError:
            self._sock.close()
            raise
        finally:
            theirs.close()
        self.run()   # absorbs the child's start-up

    def run(self) -> float:
        """Run the reference once; returns its wall time in ms."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            began = time.perf_counter()
            size = 0
            for i in range(ALLOC_ITERATIONS):
                row = {"id": i, "name": str(i), "pair": [i, i + 1]}
                size += len(json.dumps(row))
        finally:
            if collecting:
                gc.enable()
        sock, want = self._sock, len(_MESSAGE)
        for _ in range(ECHO_ROUND_TRIPS):
            sock.sendall(_MESSAGE)
            got = 0
            while got < want:
                chunk = sock.recv(want - got)
                if not chunk:
                    raise OSError("the reference echo process exited")
                got += len(chunk)
        return (time.perf_counter() - began) * 1000.0

    def close(self) -> None:
        self._sock.close()   # the child sees EOF and exits
        try:
            self._child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Calibrator:
    """Collects reference samples, one per chunk, and turns them into scales.

    Call :meth:`mark` before each chunk; it returns the chunk's index.
    After the phase, :meth:`scales` gives one factor per chunk to apply
    to that chunk's wall times.
    """

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.refs: List[float] = []

    def mark(self) -> int:
        self.refs.append(self.reference.run())
        return len(self.refs) - 1

    def scales(self) -> List[float]:
        refs = self.refs
        out = []
        for i in range(len(refs)):
            window = refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
            out.append(REF_NOMINAL_MS / statistics.median(window))
        return out

    def summary(self) -> dict:
        """Median reference time and its within-run quartile spread."""
        refs = self.refs
        median = statistics.median(refs)
        q1, _, q3 = (statistics.quantiles(refs, n=4) if len(refs) >= 4
                     else (median, median, median))
        return {"ref_ms": median, "ref_spread": (q3 - q1) / median,
                "ref_samples": len(refs)}

"""The closed-loop phase runner.

One client, one request at a time.  Requests run in chunks; a reference
loop runs before every chunk (see :mod:`calibration`), and every
request's wall time is recorded with the chunk it ran in.  Sampled
results are kept for the correctness gate, which runs after the phase,
never inside a timed chunk.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from calibration import Calibrator, Reference

from repro.errors import ReproError

#: What a request stream yields: (kind, run(client) -> result, check key).
#: A check key other than None asks the gate to verify the result.
Request = Tuple[str, Callable[[Any], Any], Optional[Any]]

#: Errors that count as a failed request (refusals, timeouts, drops).
REQUEST_ERRORS = (ReproError, OSError)


@dataclass
class PhaseResult:
    cal: Calibrator
    kinds: List[str] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)       # seconds
    chunk_of: List[int] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)        # error texts
    samples: List[Tuple[Any, Any]] = field(default_factory=list)
    elapsed: float = 0.0                                   # seconds, raw

    @property
    def attempted(self) -> int:
        return len(self.walls)

    def calibrated(self, start: int = 0, stop: Optional[int] = None
                   ) -> List[float]:
        """Per-request latencies (ms), scaled by their chunk's factor."""
        scales = self.cal.scales()
        stop = len(self.walls) if stop is None else stop
        return [self.walls[i] * scales[self.chunk_of[i]] * 1000.0
                for i in range(start, stop)]

    def summary(self, start: int = 0, stop: Optional[int] = None,
                unit: Optional[Tuple[str, Tuple[str, ...]]] = None
                ) -> Dict[str, Any]:
        """Calibrated figures over requests ``start:stop``.

        ``p50_ms`` is the median latency of one interaction: a request,
        or with ``unit = (first_kind, skipped_kinds)`` the requests from
        one ``first_kind`` request to the next, leaving out the skipped
        kinds.
        """
        stop = len(self.walls) if stop is None else stop
        lat = self.calibrated(start, stop)
        raw_ms = [w * 1000.0 for w in self.walls[start:stop]]
        ordered = sorted(lat)
        n = len(ordered)
        p99 = ordered[min(n - 1, int(n * 0.99))] if n else 0.0
        by_kind: Dict[str, List[float]] = {}
        by_chunk: Dict[int, List[float]] = {}
        for i in range(start, stop):
            by_kind.setdefault(self.kinds[i], []).append(lat[i - start])
            by_chunk.setdefault(self.chunk_of[i], []).append(lat[i - start])
        # Throughput is the median over chunks, so a stall that hits one
        # chunk moves it no more than any other outlier.
        rates = [len(v) / (sum(v) / 1000.0) for v in by_chunk.values()]

        def interactions(values: List[float]) -> List[float]:
            if unit is None:
                return values
            first, skipped = unit
            out: List[float] = []
            for i in range(start, stop):
                if self.kinds[i] == first:
                    out.append(0.0)
                if out and self.kinds[i] not in skipped:
                    out[-1] += values[i - start]
            return out
        return {
            "ops": n,
            "ops_s": statistics.median(rates) if n else 0.0,
            "p50_ms": statistics.median(interactions(lat)) if n else 0.0,
            "p99_ms": p99,
            # samples beyond p99; the p99 means little below ten
            "p99_tail_samples": n - min(n - 1, int(n * 0.99)) - 1 if n else 0,
            "raw_ops_s": n / (sum(raw_ms) / 1000.0) if n else 0.0,
            "raw_p50_ms": (statistics.median(interactions(raw_ms))
                           if n else 0.0),
            "by_kind": {kind: {"ops": len(v), "p50_ms": statistics.median(v),
                               "p99_ms": sorted(v)[min(len(v) - 1,
                                                       int(len(v) * 0.99))]}
                        for kind, v in sorted(by_kind.items())},
        }


def run_phase(client: Any, stream: Iterator[Request], chunk_ops: int,
              reference: Reference, seconds: float = 0.0, min_ops: int = 0,
              after_chunk: Optional[Callable[[PhaseResult], None]] = None
              ) -> PhaseResult:
    """Run chunks until *seconds* have passed and *min_ops* were made.

    ``after_chunk`` runs after each chunk, outside the timed region.
    """
    res = PhaseResult(Calibrator(reference))
    began = time.perf_counter()
    perf = time.perf_counter
    while True:
        chunk = res.cal.mark()
        for _ in range(chunk_ops):
            kind, run, check = next(stream)
            t0 = perf()
            try:
                value = run(client)
            except REQUEST_ERRORS as exc:
                value = None
                res.failed.append(f"{kind}: {type(exc).__name__}: {exc}")
            wall = perf() - t0
            res.kinds.append(kind)
            res.walls.append(wall)
            res.chunk_of.append(chunk)
            if check is not None and value is not None:
                res.samples.append((check, value))
        if after_chunk is not None:
            after_chunk(res)
        if (perf() - began >= seconds and len(res.walls) >= min_ops):
            break
    res.cal.mark()  # closes the last chunk's calibration window
    res.elapsed = time.perf_counter() - began
    return res

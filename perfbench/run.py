"""Repository benchmark: three wire workloads against ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload slice_hot --seed 1 --seconds 10 --trace 0

``--trace 0`` sets up the database several times (``setup_s`` is their
median), then drives the real server process for ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` sets up once, measures
the per-layer counts from ``STATS`` deltas over a fixed request window,
then replays the same window against an in-process server with every
layer's entry points wrapped in spans, and reports per-layer self time.
Every run checks the server's answers against an oracle; a mismatch
exits with code 1 and prints no metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 3

#: (name, unit) of the metrics printed with --trace 0.
END_TO_END = [("setup_s", "s"), ("ops_s", "ops/s"), ("p50_ms", "ms"),
              ("peak_rss_mib", "MiB")]

#: Request kinds across the workloads; latency is also reported per kind.
REQUEST_KINDS = ("read", "begin", "write", "commit", "poll", "history",
                 "during", "diff")

#: (name, unit) of the metrics printed with --trace 1.  Counts are per
#: request unless the name says otherwise (wal.*: per commit, cdc.*: per
#: change event); *.self_ms come from the traced replay.
PER_LAYER = [
    ("server.self_ms", "ms"), ("server.resp_bytes", "bytes"),
    ("facade.self_ms", "ms"),
    ("mql.self_ms", "ms"), ("mql.plan_cache_hit_ratio", "ratio"),
    ("builder.self_ms", "ms"), ("builder.atoms_expanded", "count"),
    ("builder.boundary_scans", "count"),
    ("engine.self_ms", "ms"), ("engine.version_reads", "count"),
    ("engine.decode_cache_hit_ratio", "ratio"),
    ("engine.live_set_hit_ratio", "ratio"),
    ("engine.pushdown_skipped", "count"),
    ("strategies.self_ms", "ms"), ("strategies.versions_scanned", "count"),
    ("strategies.append_ms", "ms"),
    ("directory.self_ms", "ms"), ("btree.node_reads", "count"),
    ("index.probes", "count"), ("index.batch_inserts", "count"),
    ("buffer.self_ms", "ms"), ("buffer.pins", "count"),
    ("buffer.hit_ratio", "ratio"), ("buffer.evictions", "count"),
    ("heap.self_ms", "ms"), ("heap.record_reads", "count"),
    ("heap.record_inserts", "count"),
    ("disk.self_ms", "ms"), ("disk.reads", "count"), ("disk.writes", "count"),
    ("wal.self_ms", "ms"), ("wal.bytes", "bytes"), ("wal.fsyncs", "count"),
    ("cdc.self_ms", "ms"), ("cdc.records_scanned", "count"),
    ("machine.ref_ms", "ms"), ("machine.ref_spread", "ratio"),
    ("wall.ops_s", "ops/s"), ("tail.p99_ms", "ms"),
    ("tail.p99_samples", "count"), ("trace.overhead", "ratio"),
] + [(f"kind.{kind}.{stat}_ms", "ms") for kind in REQUEST_KINDS
     for stat in ("p50", "p99")]


def _fail(message: str, code: int = 2) -> "SystemExit":
    print(f"perfbench: {message}", file=sys.stderr)
    return SystemExit(code)


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _sweep_stale_runs() -> None:
    """Remove run directories whose benchmark process is gone."""
    if not os.path.isdir(RUN_DIR):
        return
    for entry in os.listdir(RUN_DIR):
        pid = int(entry) if entry.isdigit() else 0
        if pid and pid != os.getpid():
            try:
                os.kill(pid, 0)
                continue
            except ProcessLookupError:
                pass
            except PermissionError:
                continue
        shutil.rmtree(os.path.join(RUN_DIR, entry), ignore_errors=True)


def _on_signal(signum: int, _frame: Any) -> None:
    raise SystemExit(128 + signum)


# -- set-up ------------------------------------------------------------------


def _set_up(work: str, workload, servers, reps: int, reference
            ) -> Dict[str, Any]:
    """Load + spawn + ready, *reps* times; the last server stays up."""
    import dataset
    from calibration import Calibrator
    timings, raw = [], []
    for rep in range(reps):
        db_path = os.path.join(work, f"db{rep}")
        loaded = dataset.load(db_path, workload.data, reference)
        last = rep == reps - 1
        if last:   # untimed: the traced replay needs the loaded state
            shutil.copytree(db_path, os.path.join(work, "pristine"))
        cal = Calibrator(reference)
        cal.mark()
        began = time.perf_counter()
        server = servers.start(SRC, db_path,
                               os.path.join(work, f"server{rep}.log"))
        spawn = time.perf_counter() - began
        cal.mark()
        timings.append(loaded.calibrated_s + spawn * cal.scales()[0])
        raw.append(loaded.raw_s + spawn)
        if not last:
            servers.stop(server)
            shutil.rmtree(db_path)
    workload.ids = loaded.ids
    return {"server": server, "db_path": db_path,
            "setup_s": statistics.median(timings),
            "setup_raw_s": statistics.median(raw)}


def _connect(host: str, port: int):
    from repro.server import DatabaseClient
    return DatabaseClient(host, port, max_retries=0)


# -- one measured phase against a server ---------------------------------------


def _drive(workload, client, seconds: float, count_window: bool, reference
           ) -> Dict[str, Any]:
    """Warm up, then the timed phase; STATS around the count window."""
    from phase import run_phase
    workload.prepare(client)
    stream = workload.stream(client)
    warm = run_phase(client, stream, workload.chunk_ops, reference,
                     min_ops=workload.warmup_ops)
    marks: Dict[str, Any] = {}
    if count_window:
        marks["before"] = client.stats()

        def snapshot(res) -> None:
            if len(res.walls) == workload.count_ops:
                marks["after"] = client.stats()
    else:
        snapshot = None
    main = run_phase(client, stream, workload.chunk_ops, reference,
                     seconds=seconds,
                     min_ops=workload.count_ops if count_window else 0,
                     after_chunk=snapshot)
    errors = workload.gate(client, warm.samples + main.samples)
    return {"warm": warm, "main": main, "errors": errors, "marks": marks,
            "failed": warm.failed + main.failed}


def _counter(snapshot: Dict[str, Any], name: str) -> float:
    return float(sum(c["value"] for c in snapshot["metrics"]["counters"]
                     if c["name"] == name))


def _layer_counts(before: Dict[str, Any], after: Dict[str, Any],
                  requests: int) -> Dict[str, float]:
    def d(name: str) -> float:
        return _counter(after, name) - _counter(before, name)

    def ratio(hit: float, miss: float) -> float:
        return hit / (hit + miss) if hit + miss else 0.0

    commits = d("txn.commits")
    events = d("cdc.events_decoded")
    per = float(requests)
    return {
        "mql.plan_cache_hit_ratio": ratio(d("mql.plan_cache.hits"),
                                          d("mql.plan_cache.misses")),
        "builder.atoms_expanded": d("builder.atoms_expanded") / per,
        "builder.boundary_scans": d("builder.boundary_scans") / per,
        "engine.version_reads": d("engine.version_reads") / per,
        "engine.decode_cache_hit_ratio": ratio(
            d("engine.decode_cache.hits"), d("engine.decode_cache.misses")),
        "engine.live_set_hit_ratio": ratio(d("engine.live_set.hits"),
                                           d("engine.live_set.misses")),
        "engine.pushdown_skipped": d("engine.pushdown.skipped") / per,
        "strategies.versions_scanned": d("engine.versions_scanned") / per,
        "btree.node_reads": d("btree.node_reads") / per,
        "index.probes": d("index.probes") / per,
        "index.batch_inserts": d("index.batch_inserts") / per,
        "buffer.pins": (d("buffer.hits") + d("buffer.misses")) / per,
        "buffer.hit_ratio": ratio(d("buffer.hits"), d("buffer.misses")),
        "buffer.evictions": d("buffer.evictions") / per,
        "heap.record_reads": d("heap.record_reads") / per,
        "heap.record_inserts": d("heap.record_inserts") / per,
        "disk.reads": d("disk.reads") / per,
        "disk.writes": d("disk.writes") / per,
        "wal.bytes": d("wal.bytes") / commits if commits else 0.0,
        "wal.fsyncs": d("wal.fsyncs") / commits if commits else 0.0,
        "cdc.records_scanned": (d("cdc.records_scanned") / events
                                if events else 0.0),
    }


# -- the traced replay ---------------------------------------------------------


def _replay(path: str, workload_cls, seed: int, ids, reference,
            recorder=None) -> Dict[str, Any]:
    """Warm-up and count window again, against an in-process server.

    With a *recorder*, its spans are on for the count window.
    """
    from phase import run_phase

    from repro import TemporalDatabase
    from repro.server import DatabaseServer

    workload = workload_cls(seed)
    workload.ids = ids
    db = TemporalDatabase.open(path)
    server = DatabaseServer(db, port=0)
    server.start()
    try:
        client = _connect(server.host, server.port)
        try:
            workload.prepare(client)
            stream = workload.stream(client)
            warm = run_phase(client, stream, workload.chunk_ops, reference,
                             min_ops=workload.warmup_ops)
            if recorder is not None:
                stream = ((kind, recorder.request(i, run), check)
                          for i, (kind, run, check) in enumerate(stream))
                recorder.install()
            try:
                main = run_phase(client, stream, workload.chunk_ops,
                                 reference, min_ops=workload.count_ops)
            finally:
                if recorder is not None:
                    recorder.uninstall()
            errors = workload.gate(client, warm.samples + main.samples)
        finally:
            client.close()
    finally:
        server.shutdown()
        db.close()
    errors += workload.offline_gate(warm.samples + main.samples, path)
    return {"main": main, "errors": errors,
            "attempted": warm.attempted + main.attempted,
            "failed": warm.failed + main.failed}


def _self_metrics(main, recorder) -> Dict[str, float]:
    n = main.attempted
    scales = main.cal.scales()
    fallback = statistics.median(scales)

    def scale_of(request: Optional[int]) -> float:
        if request is None or request >= len(main.chunk_of):
            return fallback
        return scales[main.chunk_of[request]]

    own = recorder.self_ms(scale_of)
    commits = sum(1 for kind in main.kinds if kind == "commit")
    events = recorder.count("repro.cdc.source.decode_operation")
    out = {f"{layer}.self_ms": own[layer] / n
           for layer in ("server", "facade", "mql", "builder", "engine",
                         "strategies", "directory", "buffer", "heap", "disk")}
    out["wal.self_ms"] = own["wal"] / commits if commits else 0.0
    out["cdc.self_ms"] = own["cdc"] / events if events else 0.0
    out["strategies.append_ms"] = (recorder.inclusive_ms(
        ("SeparatedStore.append_version", "SeparatedStore.replace_version"),
        scale_of) / commits if commits else 0.0)
    out["server.resp_bytes"] = recorder.response_bytes / n
    return out


# -- main ------------------------------------------------------------------------


def _run(args: argparse.Namespace, work: str) -> Dict[str, Any]:
    from calibration import Reference, pin_to_one_core
    pin_to_one_core()   # before any child starts: children inherit it
    with Reference() as reference:
        return _measure(args, work, reference)


def _measure(args: argparse.Namespace, work: str, reference
             ) -> Dict[str, Any]:
    from serverproc import ServerSet
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    workload = workload_cls(args.seed)
    servers = ServerSet()
    try:
        set_up = _set_up(work, workload, servers,
                         SETUP_REPS if args.trace == 0 else 1, reference)
        server = set_up["server"]
        client = _connect(server.host, server.port)
        try:
            driven = _drive(workload, client, args.seconds,
                            args.trace == 1, reference)
        finally:
            client.close()
        rss = server.peak_rss_mib()
        servers.stop(server)
    finally:
        servers.stop_all()
    main = driven["main"]
    errors = driven["errors"] + workload.offline_gate(
        driven["warm"].samples + main.samples, set_up["db_path"])
    failed = driven["failed"]
    summary = main.summary(unit=workload.latency_unit)
    report: Dict[str, Any] = {
        "errors": errors, "failed": failed,
        "attempted": driven["warm"].attempted + main.attempted,
        "summary": summary, "set_up": set_up, "ref": main.cal.summary(),
        "elapsed": main.elapsed,
    }
    if args.trace == 0:
        report["metrics"] = {
            "setup_s": set_up["setup_s"], "ops_s": summary["ops_s"],
            "p50_ms": summary["p50_ms"], "peak_rss_mib": rss}
        return report
    marks = driven["marks"]
    if "after" not in marks:
        raise _fail("the count window never closed on a chunk boundary", 1)
    # The same window in-process, untraced and then traced, each on its
    # own copy of the loaded state: their ratio is the tracing overhead.
    from spans import SpanRecorder
    pristine = os.path.join(work, "pristine")
    shutil.copytree(pristine, pristine + "-traced")
    recorder = SpanRecorder()
    plain = _replay(pristine, workload_cls, args.seed, workload.ids,
                    reference)
    traced = _replay(pristine + "-traced", workload_cls, args.seed,
                     workload.ids, reference, recorder)
    for replay in (plain, traced):
        report["errors"] += replay["errors"]
        report["failed"] += replay["failed"]
        report["attempted"] += replay["attempted"]
    metrics = _layer_counts(marks["before"], marks["after"],
                            workload.count_ops)
    metrics.update(_self_metrics(traced["main"], recorder))
    metrics.update({
        "machine.ref_ms": report["ref"]["ref_ms"],
        "machine.ref_spread": report["ref"]["ref_spread"],
        "wall.ops_s": summary["raw_ops_s"],
        "tail.p99_ms": summary["p99_ms"],
        "tail.p99_samples": float(summary["p99_tail_samples"]),
        "trace.overhead": (traced["main"].summary()["ops_s"]
                           / plain["main"].summary()["ops_s"]),
    })
    for kind in REQUEST_KINDS:
        row = summary["by_kind"].get(kind, {"p50_ms": 0.0, "p99_ms": 0.0})
        metrics[f"kind.{kind}.p50_ms"] = row["p50_ms"]
        metrics[f"kind.{kind}.p99_ms"] = row["p99_ms"]
    report["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
    recorder.write(spans_path)
    report["spans_path"] = spans_path
    return report


def _print_human(args: argparse.Namespace, report: Dict[str, Any]) -> None:
    s = report["summary"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{report['attempted']} requests, {len(report['failed'])} failed")
    print(f"  set-up: {report['set_up']['setup_s']:.3f} s calibrated, "
          f"{report['set_up']['setup_raw_s']:.3f} s raw")
    print(f"  timed phase: {s['ops']} requests in {report['elapsed']:.1f} s; "
          f"calibrated {s['ops_s']:.1f} ops/s p50 {s['p50_ms']:.3f} ms; "
          f"raw {s['raw_ops_s']:.1f} ops/s p50 {s['raw_p50_ms']:.3f} ms")
    print(f"  reference loop: median {report['ref']['ref_ms']:.2f} ms, "
          f"quartile spread {report['ref']['ref_spread']:.3f} over "
          f"{report['ref']['ref_samples']} chunks")
    print(f"  tail (diagnostic): p99 {s['p99_ms']:.3f} ms with "
          f"{s['p99_tail_samples']} samples beyond it")
    for kind, row in s["by_kind"].items():
        print(f"    {kind:8s} {row['ops']:6d} requests  p50 "
              f"{row['p50_ms']:.3f} ms  p99 {row['p99_ms']:.3f} ms")
    units = dict(END_TO_END if args.trace == 0 else PER_LAYER)
    for name, value in report["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if "spans_path" in report:
        print(f"  spans written to {os.path.relpath(report['spans_path'], ROOT)}")
    for text in report["failed"][:5]:
        print(f"  failed: {text}")


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise _fail(f"no repro package under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise _fail(f"unknown workload {args.workload!r}; "
                    f"choose from {sorted(WORKLOADS)}")
    signal.signal(signal.SIGTERM, _on_signal)
    _sweep_stale_runs()
    work = os.path.join(RUN_DIR, str(os.getpid()))
    os.makedirs(work)
    try:
        report = _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(RUN_DIR) and not os.listdir(RUN_DIR):
            os.rmdir(RUN_DIR)
    if report["errors"]:
        # A failed gate makes every number of the run meaningless.
        for text in report["errors"][:20]:
            print(f"perfbench: correctness gate: {text}", file=sys.stderr)
        return 1
    _print_human(args, report)
    units = dict(END_TO_END if args.trace == 0 else PER_LAYER)
    print(json.dumps({
        "correct": True,
        "attempted": report["attempted"],
        "failed": len(report["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

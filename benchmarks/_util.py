"""Shared plumbing for the reconstructed-experiment benchmarks.

Each ``bench_*.py`` regenerates one table or figure of the experiment
index in DESIGN.md.  Two kinds of output are produced:

* pytest-benchmark's timing table — the benchmark function names encode
  the experiment's rows (strategy, sweep value), so the timing table *is*
  the figure's series;
* deterministic metric rows (page counts, buffer pins, I/O counts, log
  bytes) emitted through :func:`emit` so they appear on the terminal and
  in ``bench_output.txt`` regardless of capture settings.

All databases are freshly built per module from seeded workloads, so
runs are reproducible.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro import DatabaseConfig, TemporalDatabase, VersionStrategy
from repro.workloads import WorkloadSpec, apply_to_database, cad_schema, generate_bom

ALL_STRATEGIES = list(VersionStrategy)


def emit(capsys, *lines: str) -> None:
    """Print experiment rows, bypassing pytest's output capture."""
    with capsys.disabled():
        for line in lines:
            print(line)


def header(capsys, experiment: str, question: str) -> None:
    emit(capsys, "", f"==== {experiment}: {question} ====")


def build_db(path: str, spec: WorkloadSpec,
             strategy: VersionStrategy = VersionStrategy.SEPARATED,
             buffer_pages: int = 256
             ) -> Tuple[TemporalDatabase, Dict[int, int], Dict[str, list]]:
    """Create a database at *path* and load the BOM workload into it."""
    ops, groups = generate_bom(spec)
    db = TemporalDatabase.create(
        path, cad_schema(),
        DatabaseConfig(strategy=strategy, buffer_pages=buffer_pages))
    ids = apply_to_database(db, ops)
    return db, ids, groups


def pins(db: TemporalDatabase) -> int:
    """Buffer page touches since the last reset (the portable cost)."""
    return db.buffer.stats.hits + db.buffer.stats.misses


def reset_counters(db: TemporalDatabase) -> None:
    """Zero the page counters and drop the engine's caches, so the next
    read is measured against the store, not served from residue."""
    db.engine.drop_caches()
    db.buffer.stats.reset()
    db._disk.stats.reset()


def metrics_snapshot(db: TemporalDatabase) -> Dict:
    """The registry's JSON-safe dump (persisted next to timing tables)."""
    return db.metrics.snapshot()


def layer_breakdown(db: TemporalDatabase) -> Dict[str, Dict[str, int]]:
    """Counters grouped by kernel layer (disk, buffer, btree, ...)."""
    return db.metrics.layer_breakdown()


def breakdown_row(db: TemporalDatabase,
                  layers: Iterable[str] = ("disk", "buffer", "index",
                                           "btree", "engine", "builder")
                  ) -> str:
    """One compact ``layer{metric=value,...}`` line for emit()."""
    grouped = db.metrics.layer_breakdown()
    cells = []
    for layer in layers:
        metrics = grouped.get(layer)
        if not metrics:
            continue
        inner = ",".join(f"{name}={value}"
                         for name, value in sorted(metrics.items()) if value)
        if inner:
            cells.append(f"{layer}{{{inner}}}")
    return " ".join(cells)

"""R-A2 (ablation) — Page size vs. storage and slice cost.

The same workload stored on 1 KiB, 4 KiB, and 16 KiB pages (SEPARATED
strategy).  Bigger pages amortize per-page headers and hold more
directory entries and records per touch but waste space on small
segments; the rows show the space/time trade the kernel's page-size
constant embodies.
"""

import pytest

from benchmarks._util import build_db, emit, header, pins, reset_counters
from repro import DatabaseConfig, MoleculeType, TemporalDatabase, VersionStrategy
from repro.workloads import apply_to_database, cad_schema, generate_bom, history_depth_spec

PAGE_SIZES = [1024, 4096, 16384]
SPEC = history_depth_spec(versions=16)


def test_a2_report_header(benchmark, capsys):
    header(capsys, "R-A2", "page-size sweep: storage vs. slice cost")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.parametrize("page_size", PAGE_SIZES)
def test_a2_page_size(benchmark, capsys, tmp_path, page_size):
    ops, groups = generate_bom(SPEC)
    db = TemporalDatabase.create(
        str(tmp_path / f"ps{page_size}"), cad_schema(),
        DatabaseConfig(strategy=VersionStrategy.SEPARATED,
                       page_size=page_size, buffer_pages=512))
    ids = apply_to_database(db, ops)
    parts = [ids[handle] for handle in groups["Part"]]
    mtype = MoleculeType.parse("Part.contains.Component", db.schema)

    def workload():
        return db.builder.build_many(parts, mtype, 3)

    benchmark(workload)
    reset_counters(db)
    workload()
    stats = db.storage_stats()
    emit(capsys,
         f"R-A2 | page={page_size:>6} | pages={stats.total_pages:>5} "
         f"bytes={stats.total_bytes:>9} | slice_page_touches={pins(db):>5}")
    db.close()

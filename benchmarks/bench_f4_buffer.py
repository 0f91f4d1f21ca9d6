"""R-F4 — Buffer-pool sensitivity of the time-slice workload.

The same mid-size database is queried (every part's molecule at the
current instant, repeatedly) under buffer pools from 8 to 512 pages.
Deterministic rows report the hit ratio; the timing series shows the
classic knee once the working set fits.
"""

import pytest

from benchmarks._util import breakdown_row, emit, header
from repro import DatabaseConfig, MoleculeType, TemporalDatabase, VersionStrategy
from repro.workloads import apply_to_database, buffer_sweep_spec, cad_schema, generate_bom

BUFFER_SIZES = [8, 32, 128, 512]


def test_f4_report_header(benchmark, capsys):
    header(capsys, "R-F4", "buffer-pool size sweep over the slice workload")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.fixture(scope="module")
def seeded_dir(tmp_path_factory):
    """Build the database once; reopen it per buffer size."""
    path = str(tmp_path_factory.mktemp("f4") / "db")
    db = TemporalDatabase.create(path, cad_schema(),
                                 DatabaseConfig(buffer_pages=1024))
    ops, groups = generate_bom(buffer_sweep_spec())
    ids = apply_to_database(db, ops)
    parts = [ids[handle] for handle in groups["Part"]]
    db.close()
    return path, parts


@pytest.mark.parametrize("buffer_pages", BUFFER_SIZES)
def test_f4_buffer_sweep(benchmark, capsys, seeded_dir, buffer_pages):
    path, parts = seeded_dir
    db = TemporalDatabase.open(path,
                               DatabaseConfig(buffer_pages=buffer_pages))
    mtype = MoleculeType.parse("Part.contains.Component", db.schema)

    def workload():
        return db.builder.build_many(parts, mtype, 2)

    workload()  # warm the pool to steady state
    benchmark(workload)
    # Cold decodes, warm pool: warm decodes would answer the slice
    # without a single page touch.
    db.engine.drop_caches()
    db.metrics.reset()  # isolate one measured pass for the breakdown
    workload()
    stats = db.buffer.stats
    emit(capsys,
         f"R-F4 | buffer={buffer_pages:>4} pages | "
         f"hit_ratio={stats.hit_ratio:6.3f} | hits={stats.hits:>6} "
         f"misses={stats.misses:>5} evictions={stats.evictions:>5}",
         f"R-F4 |        {buffer_pages:>4} layers | {breakdown_row(db)}")
    db.close()


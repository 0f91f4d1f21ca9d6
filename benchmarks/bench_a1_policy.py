"""R-A1 (ablation) — LRU vs. Clock buffer replacement.

The same slice workload under a deliberately tight buffer pool, once
per policy.  Clock approximates LRU with cheaper bookkeeping; the hit
ratios should be close, with LRU at most slightly ahead — confirming
that the strategy results do not hinge on the replacement policy.
"""

import pytest

from benchmarks._util import emit, header
from repro import DatabaseConfig, MoleculeType, ReplacementPolicy, TemporalDatabase
from repro.workloads import apply_to_database, buffer_sweep_spec, cad_schema, generate_bom

POLICIES = [ReplacementPolicy.LRU, ReplacementPolicy.CLOCK]
TIGHT_BUFFER = 24


def test_a1_report_header(benchmark, capsys):
    header(capsys, "R-A1", "LRU vs Clock replacement under a tight pool")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.fixture(scope="module")
def seeded_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("a1") / "db")
    db = TemporalDatabase.create(path, cad_schema(),
                                 DatabaseConfig(buffer_pages=1024))
    ops, groups = generate_bom(buffer_sweep_spec())
    ids = apply_to_database(db, ops)
    parts = [ids[handle] for handle in groups["Part"]]
    db.close()
    return path, parts


@pytest.mark.parametrize("policy", POLICIES, ids=[p.value for p in POLICIES])
def test_a1_replacement_policy(benchmark, capsys, seeded_dir, policy):
    path, parts = seeded_dir
    db = TemporalDatabase.open(path, DatabaseConfig(
        buffer_pages=TIGHT_BUFFER, replacement=policy))
    mtype = MoleculeType.parse("Part.contains.Component", db.schema)

    def workload():
        return db.builder.build_many(parts, mtype, 2)

    workload()  # reach steady state
    benchmark(workload)
    # Cold decodes, warm pool: warm decodes would answer the slice
    # without a single page touch.
    db.engine.drop_caches()
    db.buffer.stats.reset()
    workload()
    stats = db.buffer.stats
    emit(capsys,
         f"R-A1 | policy={policy.value:>5} buffer={TIGHT_BUFFER} | "
         f"hit_ratio={stats.hit_ratio:6.3f} | evictions={stats.evictions}")
    db.close()

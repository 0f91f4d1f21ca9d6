"""R-T3 — Update (new version creation) cost by strategy and history.

Measures appending one more version to an atom whose history already
holds *h* versions.  Deterministic rows report, per update, the disk
writes, heap record inserts and reads, and buffer pins (page touches).

Expected shape: CHAINED and SEPARATED are O(1) in history length (one
new record plus directory maintenance); CLUSTERED rewrites the whole
temporal-atom record, so its cost grows linearly with *h* — the
fundamental write/read trade the paper's realization weighs.

``test_t3_append_cost_flat`` is the CI gate on the constant update cost
of SEPARATED and CHAINED: their per-update heap and buffer counts must
be equal at histories 16 and 64 (where SEPARATED's version directory
still fits one page).  It builds its own databases, so its counts do not
depend on which tests ran before it, and it counts version-directory
relocations apart from appends.  It gates on counts only, never on
timings.
"""

import itertools
from typing import Callable, Dict

import pytest

from benchmarks._util import ALL_STRATEGIES, build_db, emit, header, pins
from repro import VersionStrategy
from repro.workloads import history_depth_spec

HISTORIES = [1, 16, 64, 192]
SAMPLES = 4


def test_t3_report_header(benchmark, capsys):
    header(capsys, "R-T3", "cost of appending one version vs. history "
                           "length")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    built = {}
    for strategy in ALL_STRATEGIES:
        for history in HISTORIES:
            path = (tmp_path_factory.mktemp("t3")
                    / f"{strategy.value}{history}")
            built[(strategy, history)] = build_db(
                str(path), history_depth_spec(history, parts=4), strategy)
    yield built
    for db, _, _ in built.values():
        db.close()


def updater(db, ids, groups, first_time: int) -> Callable[[], None]:
    """One-part cost updates cycling over the parts, times ascending."""
    part_cycle = itertools.cycle([ids[handle] for handle in groups["Part"]])
    next_time = itertools.count(first_time)

    def update_once():
        at = next(next_time)
        # The value must actually change: the engine elides updates that
        # leave the state identical.
        with db.transaction() as txn:
            txn.update(next(part_cycle), {"cost": float(at)},
                       valid_from=at)

    return update_once


def update_counts(db, update_once: Callable[[], None]) -> Dict[str, float]:
    """Deterministic per-update costs, averaged over SAMPLES updates (to
    smooth record moves and page splits).  Every update starts from an
    all-clean buffer pool, so disk writes count the pages it dirtied.

    The engine's caches stay warm, as in a running server: a cold
    update re-reads the atom's whole live set to plan the revision,
    which is a read cost (R-F3's subject), not the cost of appending.
    """
    for _ in range(SAMPLES):
        update_once()  # every part's caches warm
    db.buffer.flush_all()
    db.buffer.stats.reset()
    db._disk.stats.reset()
    inserts = db.metrics.total("heap.record_inserts")
    reads = db.metrics.total("heap.record_reads")
    for _ in range(SAMPLES):
        update_once()
        db.buffer.flush_all()
    return {
        "disk_writes": db._disk.stats.writes / SAMPLES,
        "heap_inserts": (db.metrics.total("heap.record_inserts")
                         - inserts) / SAMPLES,
        "heap_reads": (db.metrics.total("heap.record_reads")
                       - reads) / SAMPLES,
        "buffer_pins": pins(db) / SAMPLES,
    }


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=[s.value for s in ALL_STRATEGIES])
@pytest.mark.parametrize("history", HISTORIES)
def test_t3_append_version(benchmark, capsys, databases, strategy, history):
    db, ids, groups = databases[(strategy, history)]
    update_once = updater(db, ids, groups, history + 10)
    benchmark.pedantic(update_once, rounds=8, iterations=1, warmup_rounds=1)
    counts = update_counts(db, update_once)
    emit(capsys,
         f"R-T3 | strategy={strategy.value:>9} history={history:>3} | "
         + " ".join(f"{name}_per_update={value:>5.2f}"
                    for name, value in counts.items()))


def append_counts(db, update_once: Callable[[], None]) -> Dict[str, float]:
    """Per-update heap and buffer counts averaged over SAMPLES updates
    that relocate no version-directory record, plus how many updates
    did relocate one (SEPARATED only).

    A vdir record relocates when it outgrows the room left on its page:
    a layout event whose timing depends on what else shares the page,
    like the page fills that leave disk writes ungated.  A vdir that
    spans pages relocates on every append, so no sample is found and
    the counts come back empty.
    """
    for _ in range(SAMPLES):
        update_once()  # every part's caches warm
    gated = ("heap_inserts", "heap_reads", "buffer_pins")
    sums = dict.fromkeys(gated, 0)
    samples = relocations = 0
    for _ in range(4 * SAMPLES):
        db.buffer.flush_all()
        db.buffer.stats.reset()
        before = (db.metrics.total("heap.record_inserts"),
                  db.metrics.total("heap.record_reads"),
                  db.metrics.value("heap.record_inserts", segment="vdir"))
        update_once()
        if db.metrics.value("heap.record_inserts",
                            segment="vdir") != before[2]:
            relocations += 1
            continue
        sums["heap_inserts"] += (db.metrics.total("heap.record_inserts")
                                 - before[0])
        sums["heap_reads"] += db.metrics.total("heap.record_reads") - before[1]
        sums["buffer_pins"] += pins(db)
        samples += 1
        if samples == SAMPLES:
            break
    counts = ({name: value / samples for name, value in sums.items()}
              if samples == SAMPLES else {})
    counts["vdir_relocations"] = relocations
    return counts


@pytest.mark.parametrize("strategy",
                         [VersionStrategy.SEPARATED, VersionStrategy.CHAINED],
                         ids=["separated", "chained"])
def test_t3_append_cost_flat(capsys, tmp_path, strategy):
    """The CI gate: a SEPARATED or CHAINED append costs the same heap
    inserts, heap reads and buffer pins whatever the history length —
    for SEPARATED as long as the version directory is one page (it
    spans past 156 history versions at 4 KiB pages).  Relocations of
    the vdir record are counted apart (see :func:`append_counts`), and
    disk writes are not gated: where a page fills up depends on the
    layout, not on the history length."""
    rows = {}
    for history in (16, 64):
        db, ids, groups = build_db(str(tmp_path / f"gate{history}"),
                                   history_depth_spec(history, parts=4),
                                   strategy)
        try:
            rows[history] = append_counts(db, updater(db, ids, groups,
                                                      history + 10))
        finally:
            db.close()
    emit(capsys, *(f"R-T3 gate | {strategy.value} history={history:>3} | "
                   f"{row}" for history, row in rows.items()))
    gated = ("heap_inserts", "heap_reads", "buffer_pins")
    assert all(name in row for row in rows.values()
               for name in gated), rows
    assert ({name: rows[16][name] for name in gated}
            == {name: rows[64][name] for name in gated}), rows

"""R-F3 — Full-history query cost vs. history length.

Reading an atom's complete version history (the ``VALID HISTORY``
building block) across history lengths 4..128.

Expected shape: CLUSTERED wins — the history is one contiguous
(possibly spanned) record; CHAINED pays one record per version along
the chain; SEPARATED pays the version directory plus every history page
holding a version (records sharing a page are read under one pin, so it
benefits from append-order locality).

Every count is taken on a cold engine (``reset_counters`` drops the
engine's caches), and ``test_f3_cold_history_cost_grows`` gates on it:
a cached history would cost the same few page touches at every length.
"""

import pytest

from benchmarks._util import ALL_STRATEGIES, build_db, emit, header, pins, reset_counters
from repro import VersionStrategy
from repro.workloads import history_depth_spec

HISTORIES = [4, 16, 64, 128]


def test_f3_report_header(benchmark, capsys):
    header(capsys, "R-F3", "full-history read cost vs. history length")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    built = {}
    for strategy in ALL_STRATEGIES:
        for history in HISTORIES:
            path = (tmp_path_factory.mktemp("f3")
                    / f"{strategy.value}{history}")
            built[(strategy, history)] = build_db(
                str(path), history_depth_spec(history, parts=4), strategy,
                buffer_pages=1024)
    yield built
    for db, _, _ in built.values():
        db.close()


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=[s.value for s in ALL_STRATEGIES])
@pytest.mark.parametrize("history", HISTORIES)
def test_f3_full_history(benchmark, capsys, databases, strategy, history):
    db, ids, groups = databases[(strategy, history)]
    part = ids[groups["Part"][0]]

    def run():
        return db.history(part)

    versions = benchmark(run)
    reset_counters(db)
    run()
    emit(capsys,
         f"R-F3 | strategy={strategy.value:>9} history={history:>3} | "
         f"versions_read={len(versions):>4} page_touches={pins(db):>5}")



@pytest.mark.parametrize("strategy",
                         [VersionStrategy.SEPARATED, VersionStrategy.CHAINED],
                         ids=["separated", "chained"])
def test_f3_cold_history_cost_grows(databases, strategy):
    """The CI gate: per-version mappings pay more page touches for longer
    histories.  Flat counts mean the experiment measured a cache, not
    the store."""
    touches = []
    for history in HISTORIES:
        db, ids, groups = databases[(strategy, history)]
        part = ids[groups["Part"][0]]
        db.history(part)  # warm every cache the read path has
        reset_counters(db)
        db.history(part)
        touches.append(pins(db))
    assert touches == sorted(set(touches)), (
        f"{strategy.value}: full-history page touches {touches} do not "
        f"grow with history length {HISTORIES}")

"""R-A4 (ablation) — Atom directory lookup cost vs. number of atoms.

Address translation (atom id -> where its versions live) is the first
step of every read and write on all three strategies.  Each strategy's
store is built bare on its own file, its directory filled with entries
of the strategy's width for atoms ``1..N``, and single-atom lookups are
counted in buffer pins: ``get`` and a one-id ``get_many``, over ids
spread across the whole range.

Expected shape: the directory is direct-mapped (the entry for atom *i*
sits at a fixed page and slot), so a lookup pins one page whatever *N*
is.  A hashed directory with overflow chains would pin more pages as the
chains grow.

``test_a4_lookup_cost_flat`` is the CI gate: pins per ``get`` and per
one-id ``get_many`` must be equal at 500 and at 50 000 atoms for every
strategy's entry width.  It gates on counts only, never on timings.
"""

from typing import Dict, Tuple

import pytest

from benchmarks._util import ALL_STRATEGIES, emit, header
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskManager
from repro.storage.strategies import open_version_store

ATOM_COUNTS = [500, 50_000]
PROBES = 64


def test_a4_report_header(benchmark, capsys):
    header(capsys, "R-A4", "atom directory lookup cost vs. number of atoms")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def lookup_pins(tmp_path, strategy, atoms: int) -> Tuple[Dict[str, float],
                                                         int, int]:
    """``({"get": pins, "get_many": pins}, entry width, directory pages)``
    for single-atom lookups in a directory holding atoms ``1..atoms``."""
    disk = DiskManager(tmp_path / f"{strategy.value}{atoms}.db")
    try:
        buffer = BufferManager(disk, capacity=64)
        store = open_version_store(strategy, buffer)
        directory = store._directory
        width = store._DIR_VALUE.size
        for atom_id in range(1, atoms + 1):
            directory.put(atom_id, atom_id.to_bytes(width, "little"))
        probes = [1 + (atoms - 1) * k // (PROBES - 1) for k in range(PROBES)]
        counts = {}
        for name, lookup in (("get", directory.get),
                             ("get_many", lambda i: directory.get_many([i]))):
            buffer.stats.reset()
            for atom_id in probes:
                lookup(atom_id)
            counts[name] = ((buffer.stats.hits + buffer.stats.misses)
                            / len(probes))
        return counts, width, store.stats().directory_pages
    finally:
        disk.close()


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=[s.value for s in ALL_STRATEGIES])
def test_a4_lookup_cost_flat(capsys, tmp_path, strategy):
    per_size = {}
    for atoms in ATOM_COUNTS:
        counts, width, pages = lookup_pins(tmp_path, strategy, atoms)
        per_size[atoms] = counts
        emit(capsys,
             f"R-A4 | {strategy.value:>9} width={width:>2} atoms={atoms:>6} "
             f"| pins/get={counts['get']:.2f} "
             f"pins/get_many={counts['get_many']:.2f} | dir_pages={pages:>4}")
    small, large = (per_size[atoms] for atoms in ATOM_COUNTS)
    assert small == large, (
        f"{strategy.value}: directory lookup pins grow with the number of "
        f"atoms: {small} at {ATOM_COUNTS[0]} vs {large} at {ATOM_COUNTS[1]}")

"""Seeded inputs and the timed in-process bulk load.

Two databases, both generated from the run's seed:

* ``bom`` (``slice_hot`` and ``write_mix``): the repository's BOM
  generator at 120 parts x fanout 4 x 4 versions -- about 580 atoms and
  3.3k operations, a 0.8 MiB page file that fits the 256-page (1 MiB)
  buffer pool.
* ``deep`` (``history_deep``): 24 parts x fanout 3, then 39 churn rounds
  over every part and component, so each chain holds 40 versions -- 125
  atoms and 4.0k operations.  Each component version carries a wide
  ``material`` string, which grows the page file to 3.9 MiB, past three
  times the buffer pool, without adding operations.

Loading follows the documented bulk-load recipe: ``durability="none"``,
100 operations per transaction, then a checkpoint and a clean close.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from calibration import Calibrator, Reference

from repro import DatabaseConfig, TemporalDatabase
from repro.testing import ReferenceDatabase
from repro.workloads import WorkloadSpec, apply_to_reference, cad_schema, generate_bom

LOAD_BATCH_OPS = 100
DEEP_VERSIONS = 40
WIDE_BYTES = 480
_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


@dataclass
class Dataset:
    """Generated operations plus what the request streams need to know."""

    ops: List[Tuple[Any, ...]]
    groups: Dict[str, List[int]]
    versions: int          # valid instants 0..versions-1 hold history

    def part_names(self) -> List[str]:
        return [f"part-{i}" for i in range(len(self.groups["Part"]))]


def bom_dataset(seed: int) -> Dataset:
    spec = WorkloadSpec(parts=120, fanout=4, versions_per_atom=4, seed=seed)
    ops, groups = generate_bom(spec)
    return Dataset(ops, groups, spec.versions_per_atom)


def deep_dataset(seed: int) -> Dataset:
    # Unshared components: every part's molecule has the same shape
    # whatever the seed, so seeds differ in values, not in work.
    spec = WorkloadSpec(parts=24, fanout=3, versions_per_atom=1, seed=seed,
                        share_components=False)
    ops, groups = generate_bom(spec)
    rng = random.Random(seed * 7919 + 1)
    for at in range(1, DEEP_VERSIONS):
        for handle in groups["Part"]:
            ops.append(("update", handle,
                        {"cost": round(rng.uniform(10, 500), 2)}, at))
        for handle in groups["Component"]:
            material = "".join(rng.choice(_ALPHABET)
                               for _ in range(WIDE_BYTES))
            ops.append(("update", handle,
                        {"weight": round(rng.uniform(0.1, 25.0), 3),
                         "material": material}, at))
    return Dataset(ops, groups, DEEP_VERSIONS)


def _apply(txn, op, ids: Dict[int, int]) -> None:
    kind = op[0]
    if kind == "insert":
        _, handle, type_name, values, at = op
        ids[handle] = txn.insert(type_name, values, valid_from=at)
    elif kind == "update":
        _, handle, changes, at = op
        txn.update(ids[handle], changes, valid_from=at)
    elif kind == "link":
        _, link_name, h1, h2, at = op
        txn.link(link_name, ids[h1], ids[h2], valid_from=at)
    else:
        raise ValueError(f"unexpected load op {kind!r}")


@dataclass
class LoadResult:
    ids: Dict[int, int]            # handle -> atom id
    raw_s: float
    calibrated_s: float
    cal: Calibrator


def load(path: str, data: Dataset, reference: Reference) -> LoadResult:
    """Create and bulk-load the database at *path*; timed per batch."""
    cal = Calibrator(reference)
    walls: List[float] = []
    ids: Dict[int, int] = {}
    cal.mark()
    began = time.perf_counter()
    db = TemporalDatabase.create(path, cad_schema(),
                                 DatabaseConfig(durability="none"))
    db.create_attribute_index("Part", "name")
    walls.append(time.perf_counter() - began)
    try:
        for start in range(0, len(data.ops), LOAD_BATCH_OPS):
            cal.mark()
            began = time.perf_counter()
            txn = db.begin()
            for op in data.ops[start:start + LOAD_BATCH_OPS]:
                _apply(txn, op, ids)
            txn.commit()
            walls.append(time.perf_counter() - began)
        cal.mark()
        began = time.perf_counter()
        db.checkpoint()
    finally:
        db.close()
    walls.append(time.perf_counter() - began)
    scales = cal.scales()
    return LoadResult(ids, sum(walls),
                      sum(w * s for w, s in zip(walls, scales)), cal)


def reference_oracle(data: Dataset) -> Tuple[ReferenceDatabase, Dict[int, int]]:
    """The in-memory oracle replaying the same operations."""
    ref = ReferenceDatabase(cad_schema())
    return ref, apply_to_reference(ref, data.ops)


def components_of(data: Dataset) -> Dict[int, List[int]]:
    """Part handle -> component handles it contains at load time."""
    out: Dict[int, List[int]] = {}
    for op in data.ops:
        if op[0] == "link" and op[1] == "contains":
            out.setdefault(op[2], []).append(op[3])
    return out


def handles_by_name(data: Dataset) -> Dict[str, int]:
    """Part name -> part handle."""
    names: Dict[str, int] = {}
    for op in data.ops:
        if op[0] == "insert" and op[2] == "Part":
            names[op[3]["name"]] = op[1]
    return names

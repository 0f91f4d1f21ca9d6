"""The three request streams and their correctness gates.

Each workload is a :class:`Workload`: the dataset it runs on, a seeded
endless request stream (see :data:`phase.Request`), and a gate that
checks what the server answered against an oracle.  Streams are
deterministic in the seed; the program sees only the requests.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, Iterator, List, Optional, Tuple

import dataset
from phase import REQUEST_ERRORS, Request

from repro import TemporalDatabase
from repro.cdc import fold_events
from repro.errors import ReproError
from repro.server.protocol import encode_payload, result_to_payload
from repro.temporal import FOREVER, TMIN, Interval

SLICE_MT = "Part.contains.Component.supplied_by.Supplier"
MT = "Part.contains.Component"
NOW = FOREVER - 1
WRITE_VALID_FROM = 4
DIFF_WINDOW = 8
DURING_WINDOW = 8


def _hot_picker(rng: random.Random, keys: List[Any], hot_share: float = 0.2,
                hot_weight: float = 0.8):
    """80/20 skew: a seeded fifth of the keys gets 80% of the picks."""
    shuffled = list(keys)
    rng.shuffle(shuffled)
    cut = max(1, int(len(shuffled) * hot_share))
    hot, cold = shuffled[:cut], shuffled[cut:] or shuffled[:cut]

    def pick() -> Any:
        return rng.choice(hot) if rng.random() < hot_weight else rng.choice(cold)
    return pick


def _molecule_atoms(node: Dict[str, Any], out: set) -> set:
    out.add(node["atom_id"])
    for children in node["children"].values():
        for child in children:
            _molecule_atoms(child, out)
    return out


def _canon(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


class Workload:
    name = ""
    data: dataset.Dataset
    chunk_ops = 1
    warmup_ops = 0
    count_ops = 0      # requests in the per-layer count window
    #: What p50_ms times (see PhaseResult.summary); None: one request.
    latency_unit: Optional[Tuple[str, Tuple[str, ...]]] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ids: Dict[int, int] = {}   # handle -> atom id, set after load

    def prepare(self, client: Any) -> None:
        """Connection-level set-up (prepared statements, subscriptions)."""

    def stream(self, client: Any) -> Iterator[Request]:
        raise NotImplementedError

    def gate(self, client: Any, samples: List[Tuple[Any, Any]]
             ) -> List[str]:
        """Errors found in the sampled results; the server is still up."""
        raise NotImplementedError

    def offline_gate(self, samples: List[Tuple[Any, Any]],
                     db_path: str) -> List[str]:
        """Errors found after the server stopped; *db_path* is its dir."""
        return []


class SliceHot(Workload):
    """Point time-slices by indexed part name, 80/20 key skew."""

    name = "slice_hot"
    chunk_ops = 32
    warmup_ops = 256
    count_ops = 1024

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.data = dataset.bom_dataset(seed)
        self.instants = list(range(self.data.versions)) + [NOW]

    def prepare(self, client: Any) -> None:
        self.statements = {
            at: client.prepare(
                f"SELECT ALL FROM {SLICE_MT} WHERE Part.name = $name "
                + ("VALID AT NOW" if at == NOW else f"VALID AT {at}"))
            for at in self.instants}

    def stream(self, client: Any) -> Iterator[Request]:
        rng = random.Random(self.seed * 31 + 1)
        pick = _hot_picker(rng, self.data.part_names())
        i = 0
        while True:
            name = pick()
            at = self.instants[i % len(self.instants)]
            i += 1
            check = ("slice", name, at) if rng.random() < 0.125 else None
            yield ("read", lambda c, s=self.statements[at], n=name:
                   s.execute({"name": n}), check)

    def gate(self, client, samples):
        ref, ref_ids = dataset.reference_oracle(self.data)
        by_name = dataset.handles_by_name(self.data)
        errors = []
        for (_, name, at), body in samples:
            root = ref_ids[by_name[name]]
            mol = ref.molecule_at(root, SLICE_MT, at)
            want = ([] if mol is None else
                    [{"root_id": root, "valid": [at, at + 1],
                      "molecule": mol.to_dict()}])
            if _canon(body["entries"]) != _canon(want):
                errors.append(f"slice {name} at {at} differs from the oracle")
        return errors


class HistoryDeep(Workload):
    """VALID HISTORY, DIFF windows and VALID DURING over 40-version chains."""

    name = "history_deep"
    # One rotation per chunk; VALID HISTORY is a fifth of the requests
    # and about two fifths of the time, so the median request falls
    # inside the DIFF/DURING cluster rather than between clusters.
    rotation = ("history", "during", "diff", "during", "diff")
    chunk_ops = 5
    warmup_ops = 25
    count_ops = 125

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.data = dataset.deep_dataset(seed)

    def prepare(self, client: Any) -> None:
        self.history = client.prepare(
            f"SELECT ALL FROM {MT} WHERE Part.name = $name VALID HISTORY")
        self.diff = client.prepare(
            f"DIFF {MT} BETWEEN $t1 AND $t2 WHERE Part.name = $name")

    def stream(self, client: Any) -> Iterator[Request]:
        rng = random.Random(self.seed * 31 + 2)
        names = self.data.part_names()
        # One load transaction per batch: belief times run 0 .. batches-1.
        batches = -(-len(self.data.ops) // dataset.LOAD_BATCH_OPS)
        i = 0
        while True:
            name = rng.choice(names)
            kind = self.rotation[i % len(self.rotation)]
            i += 1
            sampled = rng.random() < 0.25
            if kind == "history":
                check = ("history", name, TMIN, FOREVER)
                run = (lambda c, n=name: self.history.execute({"name": n}))
            elif kind == "during":
                a = rng.randrange(0, self.data.versions - DURING_WINDOW)
                b = a + DURING_WINDOW
                check = ("during", name, a, b)
                text = (f"SELECT ALL FROM {MT} WHERE Part.name = $name "
                        f"VALID DURING [{a}, {b})")
                run = (lambda c, t=text, n=name: c.execute(t, {"name": n}))
            else:
                t1 = rng.randrange(0, batches - DIFF_WINDOW)
                check = ("diff", name, t1, t1 + DIFF_WINDOW)
                run = (lambda c, n=name, t=t1: self.diff.execute(
                    {"name": n, "t1": t, "t2": t + DIFF_WINDOW}))
            yield (kind, run, check if sampled else None)

    def gate(self, client, samples):
        ref, ref_ids = dataset.reference_oracle(self.data)
        by_name = dataset.handles_by_name(self.data)
        errors = []
        for check, body in samples:
            kind, name, a, b = check
            root = ref_ids[by_name[name]]
            if kind == "diff":
                continue
            want = [{"root_id": root, "valid": [iv.start, iv.end],
                     "molecule": mol.to_dict()}
                    for iv, mol in ref.molecule_history(root, MT,
                                                        Interval(a, b))]
            if _canon(body["entries"]) != _canon(want):
                errors.append(f"{kind} {name} [{a}, {b}) differs from the oracle")
        return errors

    def offline_gate(self, samples, db_path):
        # DIFF needs belief times, which only the engine keeps: its oracle
        # is the served directory opened in-process once the server has
        # stopped (the workload only reads, so the state is the loaded one).
        diffs = [(check, body) for check, body in samples
                 if check[0] == "diff"]
        errors = []
        if diffs:
            db = TemporalDatabase.open(db_path)
            try:
                for (_, name, t1, t2), body in diffs:
                    local = result_to_payload(db.query(
                        f"DIFF {MT} BETWEEN {t1} AND {t2} "
                        f"WHERE Part.name = '{name}'"))
                    if encode_payload(local) != encode_payload(body):
                        errors.append(f"diff {name} ({t1}, {t2}] differs "
                                      "from in-process execution")
            finally:
                db.close()
        return errors


class WriteMix(Workload):
    """Durable two-update transactions, read-your-writes slices, CDC polls.

    A 5-request cycle: BEGIN, update of a hot part's cost, update of one
    of its components' weight (every 8th cycle a link or unlink
    instead), COMMIT, then a slice of the part just written.  Every 16th
    cycle the part update is a bitemporal correction of a past window.
    Every 8 cycles a ``SUBSCRIBE`` poll drains the change feed.
    """

    name = "write_mix"
    chunk_ops = 41      # 8 cycles and their poll: every chunk alike
    warmup_ops = 82
    count_ops = 656
    # The request kinds have separate latency modes, so the median
    # request sits on the edge between two of them and moves with the
    # mix; p50_ms times whole cycles (BEGIN through the read-back).
    latency_unit = ("begin", ("poll",))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.data = dataset.bom_dataset(seed)
        self.events: List[Dict[str, Any]] = []
        self.cost: Dict[int, float] = {}      # acknowledged part costs
        self.weight: Dict[int, float] = {}    # acknowledged weights
        self.state: Dict[str, Any] = {"txn": None, "broken": False}

    def prepare(self, client: Any) -> None:
        self.read = client.prepare(
            f"SELECT ALL FROM {MT} WHERE Part.name = $name VALID AT NOW")
        self.feed = client.subscribe(f"perfbench-{self.seed}",
                                     batch_size=1024)

    def _poll(self, client: Any) -> List[Dict[str, Any]]:
        batch = self.feed.poll(wait_ms=0)
        self.events.extend(batch)
        return batch

    def stream(self, client: Any) -> Iterator[Request]:
        rng = random.Random(self.seed * 31 + 3)
        ids = self.ids
        name_of = {ids[h]: n
                   for n, h in dataset.handles_by_name(self.data).items()}
        pick = _hot_picker(rng, sorted(name_of))
        linked = {ids[p]: sorted(ids[c] for c in cs)
                  for p, cs in dataset.components_of(self.data).items()}
        components = sorted({c for cs in linked.values() for c in cs})
        added: List[Tuple[int, int]] = []
        state = self.state

        def begin(c: Any) -> Dict[str, Any]:
            state["broken"] = True      # until BEGIN is acknowledged
            state["txn"] = c.begin()
            state["broken"] = False
            return {}

        def step(method: str, *args: Any):
            def run(c: Any) -> Dict[str, Any]:
                if state["broken"]:
                    raise _Aborted("the transaction already failed")
                try:
                    return getattr(state["txn"], method)(*args)
                except REQUEST_ERRORS:
                    state["broken"] = True
                    raise
            return run

        def commit(c: Any) -> Dict[str, Any]:
            txn, state["txn"] = state["txn"], None
            if state["broken"]:
                if txn is not None:
                    txn.rollback()
                raise _Aborted("transaction rolled back after a failure")
            txn.commit()
            state["acknowledged"]()
            return {}

        cycle = 0
        while True:
            part = pick()
            comps = linked[part]
            comp = rng.choice(comps)
            cost = round(rng.uniform(10, 500), 2)
            weight = round(rng.uniform(0.1, 25.0), 3)
            yield ("begin", begin, None)
            correction = cycle % 16 == 7
            if correction:
                yield ("write", step("correct", part, 1, 3, {"cost": cost}),
                       None)
            else:
                yield ("write", step("update", part, {"cost": cost},
                                     WRITE_VALID_FROM), None)
            link: Optional[Tuple[str, int, int]] = None
            if cycle % 16 == 11 and added:
                link = ("unlink",) + added[-1]
            elif cycle % 16 == 3:
                link = ("link", part,
                        rng.choice([c for c in components if c not in comps]))
            if link is None:
                yield ("write", step("update", comp, {"weight": weight},
                                     WRITE_VALID_FROM), None)
            else:
                yield ("write", step(link[0], "contains", link[1], link[2],
                                     WRITE_VALID_FROM), None)

            def acknowledged(part=part, comp=comp, cost=cost, weight=weight,
                             correction=correction, link=link) -> None:
                # Runs inside the COMMIT request once the server acked it.
                if not correction:
                    self.cost[part] = cost
                if link is None:
                    self.weight[comp] = weight
                elif link[0] == "link":
                    linked[part] = sorted(linked[part] + [link[2]])
                    added.append((part, link[2]))
                else:
                    linked[link[1]] = [c for c in linked[link[1]]
                                       if c != link[2]]
                    added.pop()
            state["acknowledged"] = acknowledged
            yield ("commit", commit, None)
            expect = {"part": part, "cost": self.cost.get(part),
                      "weights": {c: self.weight[c] for c in linked[part]
                                  if c in self.weight}}
            yield ("read", lambda c, n=name_of[part]:
                   self.read.execute({"name": n}), ("ryw", expect))
            if cycle % 8 == 7:
                yield ("poll", self._poll, None)
            cycle += 1

    def gate(self, client, samples):
        # A phase can end inside a cycle: its transaction was never
        # acknowledged, so it is rolled back before anything is read.
        if self.state["txn"] is not None:
            self.state["txn"].rollback()
            self.state["txn"] = None
        errors = []
        for (_, expect), body in samples:
            problem = _check_molecule(body, expect)
            if problem:
                errors.append(f"read-your-writes: {problem}")
        # Drain the feed, then hold fold(stream) == DIFF over its window.
        while True:
            batch = self._poll(client)
            if self.feed.caught_up and not batch:
                break
        self.feed.cancel()
        if not self.events:
            return errors + ["the change feed delivered no events"]
        t1 = min(e["tt"] for e in self.events) - 1
        t2 = max(e["tt"] for e in self.events)
        got: Dict[int, List[Any]] = {}
        for entry in client.query(
                f"DIFF {MT} BETWEEN {t1} AND {t2}")["entries"]:
            got.setdefault(entry["root_id"], []).append(entry["row"])
        scope: Dict[int, set] = {}
        for tt in (t1, t2):
            for entry in client.query(
                    f"SELECT ALL FROM {MT} AS OF {tt}")["entries"]:
                _molecule_atoms(entry["molecule"]["root"],
                                scope.setdefault(entry["root_id"], set()))
        folded = fold_events(self.events, t1, t2)
        expected: Dict[int, List[Any]] = {}
        for root, atoms in scope.items():
            rows = [row for row in folded if row["atom_id"] in atoms]
            if rows:
                expected[root] = rows
        if _canon(got) != _canon(expected):
            errors.append(f"folded change feed != DIFF over ({t1}, {t2}]")
        if not got:
            errors.append("the DIFF window holds no changes")
        # Every acknowledged update is readable at the end.
        for type_name, attr, acked in (("Part", "cost", self.cost),
                                       ("Component", "weight", self.weight)):
            final = {e["root_id"]: e["molecule"]["root"]["values"][attr]
                     for e in client.query(
                         f"SELECT ALL FROM {type_name} VALID AT NOW")["entries"]}
            lost = [a for a, v in acked.items() if final.get(a) != v]
            if lost:
                errors.append(f"{len(lost)} acknowledged {type_name}.{attr} "
                              "updates are not readable")
        return errors


class _Aborted(ReproError):
    """A write request skipped because its transaction already failed."""


def _check_molecule(body: Dict[str, Any], expect: Dict[str, Any]
                    ) -> Optional[str]:
    entries = body["entries"]
    if len(entries) != 1:
        return f"part {expect['part']}: {len(entries)} entries"
    root = entries[0]["molecule"]["root"]
    if expect["cost"] is not None and root["values"]["cost"] != expect["cost"]:
        return f"part {expect['part']}: cost {root['values']['cost']}"
    seen = {child["atom_id"]: child["values"]["weight"]
            for children in root["children"].values() for child in children}
    for comp, weight in expect["weights"].items():
        if seen.get(comp) != weight:
            return f"component {comp} of part {expect['part']}: weight"
    return None


WORKLOADS = {cls.name: cls for cls in (SliceHot, HistoryDeep, WriteMix)}

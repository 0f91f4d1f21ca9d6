"""The DIFF query form: lexing through evaluation, plus the oracle.

``DIFF <molecule> BETWEEN t1 AND t2 [WHERE ...]`` nets change events
between two transaction-time slices.  The differential oracle at the
bottom is the load-bearing test: for randomized mutation histories
across all three storage strategies, folding the SUBSCRIBE change
stream over ``(t1, t2]`` must reconstruct the DIFF result
byte-identically — and the stream itself must survive a mid-stream
reconnect (source torn down, cursor resumed from the persisted ack)
with no gaps and no duplicates.
"""

import json
import random

import pytest

from repro import MoleculeType
from repro.cdc.events import fold_events
from repro.cdc.source import ChangeStreamSource
from repro.errors import AnalysisError, ParseError, ReproError
from repro.mql.ast_nodes import DiffClause, ParamRef, SelectAll, ValidAtNow
from repro.mql.lexer import tokenize
from repro.mql.parser import bind_parameters, has_parameters, parse_query
from repro.temporal import FOREVER

MT = "Part.contains.Component"
NOW = FOREVER - 1


# -- lexer ------------------------------------------------------------------


class TestLexing:
    def test_diff_and_between_are_keywords(self):
        kinds = [(t.type.name, t.value)
                 for t in tokenize("DIFF Part BETWEEN 1 AND 5")]
        assert ("KEYWORD", "DIFF") in kinds
        assert ("KEYWORD", "BETWEEN") in kinds

    def test_diff_stays_usable_as_an_identifier(self):
        # Soft keyword: an attribute named "diff" must still parse as
        # a name in contexts where the keyword reading is impossible.
        query = parse_query("SELECT ALL FROM Part WHERE Part.diff = 1")
        assert query.where.path.attribute == "diff"
        assert query.diff is None


# -- parser -----------------------------------------------------------------


class TestParsing:
    def test_basic_shape(self):
        query = parse_query("DIFF Part.contains.Component "
                            "BETWEEN 3 AND 9")
        assert query.diff == DiffClause(3, 9)
        assert isinstance(query.select, SelectAll)
        assert isinstance(query.valid, ValidAtNow)
        assert query.when is None and query.as_of is None
        assert query.molecule.root == "Part"

    def test_where_clause_parses(self):
        query = parse_query("DIFF Part BETWEEN 3 AND 9 "
                            "WHERE Part.cost > 1.5")
        assert query.diff == DiffClause(3, 9)
        assert query.where is not None

    def test_parameter_placeholders(self):
        query = parse_query("DIFF Part BETWEEN $a AND $b")
        assert query.diff == DiffClause(ParamRef("a"), ParamRef("b"))
        assert has_parameters(query)
        bound = bind_parameters(query, {"a": 1, "b": 2})
        assert bound.diff == DiffClause(1, 2)
        assert not has_parameters(bound)

    def test_non_integer_binding_rejected(self):
        query = parse_query("DIFF Part BETWEEN $a AND 9")
        with pytest.raises(ParseError, match="integer time"):
            bind_parameters(query, {"a": "soon"})
        with pytest.raises(ParseError, match="integer time"):
            bind_parameters(query, {"a": True})

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_query("DIFF Part BETWEEN 1 AND 5 VALID AT 3")

    def test_explain_analyze_prefix(self):
        query = parse_query("EXPLAIN ANALYZE DIFF Part BETWEEN 1 AND 5")
        assert query.explain and query.diff == DiffClause(1, 5)


# -- analysis ---------------------------------------------------------------


class TestAnalysis:
    def test_unknown_molecule_rejected(self, db):
        with pytest.raises(ReproError):
            db.query("DIFF Widget BETWEEN 1 AND 5")

    def test_unbound_parameter_rejected(self, db):
        with pytest.raises((AnalysisError, ParseError), match="unbound"):
            db.query("DIFF Part BETWEEN $a AND 5")

    @pytest.mark.parametrize("bounds", ["5 AND 5", "9 AND 2"])
    def test_bad_bounds_rejected(self, db, bounds):
        with pytest.raises(AnalysisError, match="start < end"):
            db.query(f"DIFF Part BETWEEN {bounds}")

    def test_bad_bounds_rejected_warm(self, db):
        """The value check must not be skipped by analysis reuse: the
        same parameterized text fails identically after a same-typed
        binding primed the plan cache."""
        text = "DIFF Part BETWEEN $a AND $b"
        db.query(text, params={"a": 0, "b": 5})
        with pytest.raises(AnalysisError, match="start < end"):
            db.query(text, params={"a": 5, "b": 0})


# -- evaluation -------------------------------------------------------------


def tick(db):
    """The transaction time of the most recent commit."""
    return db._clock.now() - 1


class TestEvaluation:
    def test_no_changes_yields_no_rows(self, db):
        with db.transaction() as txn:
            txn.insert("Part", {"name": "p"}, valid_from=0)
        t1 = tick(db)
        result = db.query(f"DIFF Part BETWEEN {t1} AND {t1 + 1}")
        assert result.entries == []
        assert "diff[tt" in result.plan

    def test_creation_brings_values_and_links(self, db):
        with db.transaction() as txn:
            txn.insert("Part", {"name": "pre"}, valid_from=0)
        t1 = tick(db)
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "wheel", "cost": 2.0},
                              valid_from=0)
            comp = txn.insert("Component", {"cname": "hub"}, valid_from=0)
            txn.link("contains", part, comp, valid_from=0)
        t2 = tick(db)
        result = db.query(f"DIFF {MT} BETWEEN {t1} AND {t2}")
        rows = {(e.root_id, e.row["kind"], e.row["atom_id"])
                for e in result.entries}
        assert (part, "atom_created", part) in rows
        assert (part, "atom_created", comp) in rows
        assert (part, "link_added", part) in rows
        created = next(e.row for e in result.entries
                       if e.row["kind"] == "atom_created"
                       and e.row["atom_id"] == part)
        assert created["before"] is None
        assert created["after"]["name"] == "wheel"

    def test_attribute_change_reports_full_states(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 1.0},
                              valid_from=0)
        t1 = tick(db)
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=0)
        with db.transaction() as txn:
            txn.update(part, {"cost": 3.0}, valid_from=0)
        t2 = tick(db)
        result = db.query(f"DIFF Part BETWEEN {t1} AND {t2}")
        [entry] = result.entries
        assert entry.row["kind"] == "attribute_changed"
        assert entry.row["before"] == {"name": "p", "cost": 1.0,
                                       "released": None}
        assert entry.row["after"]["cost"] == 3.0
        # The row's tt is the *last* effective change in the window.
        assert entry.row["tt"] == t2
        assert (entry.valid.start, entry.valid.end) == (t1, t2)

    def test_delete_and_netted_link_removal(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p"}, valid_from=0)
            comp = txn.insert("Component", {"cname": "c"}, valid_from=0)
            txn.link("contains", part, comp, valid_from=0)
        t1 = tick(db)
        with db.transaction() as txn:
            txn.delete(part, valid_from=0)
        t2 = tick(db)
        result = db.query(f"DIFF {MT} BETWEEN {t1} AND {t2}")
        kinds = [e.row["kind"] for e in result.entries]
        # The link vanishes *because* the part does: deletion implies
        # it, so only the atom_deleted row is reported.
        assert kinds == ["atom_deleted"]
        assert result.entries[0].row["after"] is None

    def test_add_then_remove_nets_out(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p"}, valid_from=0)
            comp = txn.insert("Component", {"cname": "c"}, valid_from=0)
        t1 = tick(db)
        with db.transaction() as txn:
            txn.link("contains", part, comp, valid_from=0)
        with db.transaction() as txn:
            txn.unlink("contains", part, comp, valid_from=0)
        t2 = tick(db)
        result = db.query(f"DIFF {MT} BETWEEN {t1} AND {t2}")
        assert result.entries == []

    def test_where_admits_either_endpoint(self, db):
        with db.transaction() as txn:
            cheap = txn.insert("Part", {"name": "cheap", "cost": 1.0},
                               valid_from=0)
            pricey = txn.insert("Part", {"name": "pricey", "cost": 9.0},
                                valid_from=0)
            stable = txn.insert("Part", {"name": "stable", "cost": 1.0},
                                valid_from=0)
        t1 = tick(db)
        with db.transaction() as txn:
            txn.update(cheap, {"cost": 9.5}, valid_from=0)   # now matches
        with db.transaction() as txn:
            txn.update(pricey, {"cost": 0.5}, valid_from=0)  # used to match
        with db.transaction() as txn:
            txn.update(stable, {"name": "still"}, valid_from=0)  # never
        t2 = tick(db)
        result = db.query(f"DIFF Part BETWEEN {t1} AND {t2} "
                          f"WHERE Part.cost > 5.0")
        roots = sorted(e.root_id for e in result.entries)
        assert roots == sorted([cheap, pricey])

    def test_params_bind_equal_to_literals(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 1.0},
                              valid_from=0)
        t1 = tick(db)
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=0)
        t2 = tick(db)
        literal = db.query(f"DIFF Part BETWEEN {t1} AND {t2}")
        bound = db.query("DIFF Part BETWEEN $a AND $b",
                         params={"a": t1, "b": t2})
        assert ([e.row for e in literal.entries]
                == [e.row for e in bound.entries])

    def test_finite_validity_outside_now_is_invisible(self, db):
        """DIFF reads the current valid instant; a change confined to a
        closed historical window is not a change *now*."""
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 1.0},
                              valid_from=0)
        t1 = tick(db)
        with db.transaction() as txn:
            txn.correct(part, 0, 50, {"cost": 9.0})
        t2 = tick(db)
        result = db.query(f"DIFF Part BETWEEN {t1} AND {t2}")
        assert result.entries == []

    def test_superseded_in_one_transaction(self, db):
        """An update, a delete and a re-insert in one transaction leave
        two records believed from the same transaction time: the
        update's, superseded at once, and the re-insert's.  The newer
        one governs, as in an ``AS OF`` slice and in the fold."""
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 1.0},
                              valid_from=0)
        t0 = tick(db)
        with db.transaction() as txn:
            txn.update(part, {"cost": 2.0}, valid_from=0)
            txn.delete(part, valid_from=0)
            txn.insert("Part", {"name": "q", "cost": 3.0}, valid_from=0,
                       atom_id=part)
        t1 = tick(db)
        with db.transaction() as txn:
            txn.update(part, {"cost": 4.0}, valid_from=0)
        t2 = tick(db)
        believed = {tt: db.version_at(part, NOW, tt).values
                    for tt in (t0, t1, t2)}
        assert believed[t1]["cost"] == 3.0
        events = ChangeStreamSource(db).handle(
            {"subscriber": "stillborn", "from_lsn": 1,
             "max_records": 4096})["events"]
        for start, end in ((t0, t1), (t1, t2), (t0, t2)):
            result = db.query(f"DIFF Part BETWEEN {start} AND {end}")
            [row] = [entry.row for entry in result.entries]
            assert row["kind"] == "attribute_changed"
            assert row["tt"] == end
            assert row["before"] == believed[start]
            assert row["after"] == believed[end]
            assert json.dumps([row], sort_keys=True) == json.dumps(
                fold_events(events, start, end), sort_keys=True)

    def test_explain_profiles_the_two_slice_plan(self, db):
        with db.transaction() as txn:
            txn.insert("Part", {"name": "p"}, valid_from=0)
        t1 = tick(db)
        with db.transaction() as txn:
            txn.insert("Part", {"name": "q"}, valid_from=0)
        t2 = tick(db)
        result = db.explain(f"DIFF Part BETWEEN {t1} AND {t2}")
        assert result.profile is not None
        assert result.profile.find("diff")
        assert len(result.profile.find("slice")) >= 2
        assert result.profile.find("compare")


# -- the envelope-selection gate ----------------------------------------------


class TestDiffEnvelopeSelection:
    """A warm DIFF reads and decodes exactly the records in its
    rectangle — valid at the instant, believed somewhere in ``[t1,
    t2]`` — plus, per deletion, the records of one twin read, not the
    scope's whole histories.  Counted on ``engine.versions_scanned`` and
    on decodes, net of the two scope slices' point reads."""

    def test_warm_diff_reads_its_rectangle(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p", "cost": 0.0},
                              valid_from=0)
            comp = txn.insert("Component", {"cname": "c"}, valid_from=0)
            txn.link("contains", part, comp, valid_from=0)
        with db.transaction() as txn:
            txn.update(comp, {"weight": 1.0}, valid_from=10)
        stamps = {}
        for i in range(1, 41):  # a 40-update chain, each from a later start
            with db.transaction() as txn:
                txn.update(part, {"cost": float(i)}, valid_from=i)
            if i == 25:
                with db.transaction() as txn:
                    txn.delete(comp, valid_from=20)
            stamps[i] = tick(db)
        t1, t2 = stamps[15], stamps[30]
        histories = {atom: db.history(atom) for atom in (part, comp)}
        assert len(histories[part]) == 81
        rectangle = sum(1 for versions in histories.values()
                        for v in versions
                        if v.vt.contains(NOW) and v.tt.start <= t2
                        and t1 < v.tt.end)

        query = f"DIFF {MT} BETWEEN {t1} AND {t2}"
        rows = [entry.row for entry in db.query(query).entries]  # warm
        [row] = [row for row in rows if row["kind"] == "atom_deleted"]
        assert (row["atom_id"], row["vt"]) == (comp, [20, FOREVER])
        # The twin read: the component's records valid at 10 (where the
        # deleted record starts) as believed when the delete ran; the
        # twin is that record truncated at the delete's start.
        twins = [v for v in histories[comp]
                 if v.vt.contains(10) and v.tt.contains(row["tt"])]
        assert [(v.vt.start, v.vt.end) for v in twins] == [(10, 20)]

        counters = ("engine.versions_scanned", "engine.decode_cache.hits",
                    "engine.decode_cache.misses")

        def counts(run):
            before = [db.metrics.value(name) for name in counters]
            run()
            after = [db.metrics.value(name) for name in counters]
            return after[0] - before[0], (after[1] + after[2]
                                          - before[1] - before[2])

        engine = db.engine
        calls = []
        read = engine.all_versions_many

        def counted(*args, **kwargs):
            calls.append(args)
            return read(*args, **kwargs)

        engine.all_versions_many = counted
        try:
            diff_scans, diff_decodes = counts(lambda: db.query(query))
        finally:
            del engine.all_versions_many
        mtype = MoleculeType.parse(MT, db.schema)
        roots = db.atoms_of_type("Part")

        def slices():
            with db._read_view():
                for tt in (t1, t2):
                    db.builder.build_many(roots, mtype, NOW, tt)

        slice_scans, slice_decodes = counts(slices)
        expected = rectangle + len(twins)
        assert expected < sum(map(len, histories.values()))
        assert diff_scans - slice_scans == expected
        assert diff_decodes - slice_decodes == expected
        assert len(calls) == 2  # the rectangle's, and one twin read


# -- the differential oracle ------------------------------------------------


def random_history(db, rng):
    """Drive a random mutation program; returns commit-time checkpoints.

    Operations are biased toward open-ended validity so they touch the
    current instant DIFF reads, with closed-window corrections and
    carve-out deletes mixed in as temporal noise the fold must ignore.
    Updates, links, unlinks and deletes take effect from a random valid
    time, so a delete usually leaves a truncated twin behind: the record
    DIFF reads to report the window the delete removed.
    """
    parts, comps = [], []
    checkpoints = []
    for _ in range(rng.randrange(8, 16)):
        op = rng.random()
        try:
            with db.transaction() as txn:
                if op < 0.25 or not parts:
                    part = txn.insert(
                        "Part", {"name": f"p{rng.randrange(1000)}",
                                 "cost": float(rng.randrange(50))},
                        valid_from=0)
                    parts.append(part)
                    if comps and rng.random() < 0.5:
                        txn.link("contains", part, rng.choice(comps),
                                 valid_from=0)
                elif op < 0.40 or not comps:
                    comp = txn.insert(
                        "Component", {"cname": f"c{rng.randrange(1000)}"},
                        valid_from=0)
                    comps.append(comp)
                elif op < 0.60:
                    txn.update(rng.choice(parts),
                               {"cost": float(rng.randrange(50))},
                               valid_from=rng.randrange(30))
                elif op < 0.70:
                    txn.link("contains", rng.choice(parts),
                             rng.choice(comps), valid_from=rng.randrange(30))
                elif op < 0.80:
                    txn.unlink("contains", rng.choice(parts),
                               rng.choice(comps),
                               valid_from=rng.randrange(30))
                elif op < 0.90:
                    txn.correct(rng.choice(parts), 0,
                                rng.randrange(10, 60),
                                {"cost": float(rng.randrange(50))})
                else:
                    victim = rng.choice(parts)
                    txn.delete(victim, valid_from=rng.randrange(30))
                    parts.remove(victim)
        except ReproError:
            pass  # double-link, unlink of nothing, …: fine, move on
        checkpoints.append(db._clock.now() - 1)
    return checkpoints


def consume_with_reconnect(db, subscriber):
    """Drain the change stream in small acked batches, killing and
    recreating the server-side source halfway through — the reconnect
    must resume from the persisted ack with no gaps, no duplicates."""
    source = ChangeStreamSource(db)
    events = []
    reconnected = False
    last = 0
    # Prime the cursor at the start of the log (persists ack 0).
    source.handle({"subscriber": subscriber, "from_lsn": 1,
                   "max_records": 1, "ack_lsn": 0})
    while True:
        body = source.handle({"subscriber": subscriber, "max_records": 3,
                              "ack_lsn": last})
        if not body["events"]:
            if body["caught_up"]:
                break
            continue
        for event in body["events"]:
            assert event["lsn"] > last, "duplicate or reordered delivery"
            last = event["lsn"]
            events.append(event)
        if not reconnected and len(events) >= 4:
            # Tear the source down mid-stream; the catalog-persisted
            # ack is all the new instance gets to resume from.
            reconnected = True
            del source
            source = ChangeStreamSource(db)
    return events


@pytest.mark.parametrize("seed", [2, 7, 23, 101])
def test_subscribe_fold_reconstructs_diff(db, seed):
    """For randomized histories (all 3 strategies via the ``db``
    fixture), folding the SUBSCRIBE stream over ``(t1, t2]`` equals
    ``DIFF m BETWEEN t1 AND t2`` byte-for-byte, per molecule root."""
    rng = random.Random(seed)
    checkpoints = random_history(db, rng)

    events = consume_with_reconnect(db, f"oracle-{seed}")
    reference = ChangeStreamSource(db).handle(
        {"subscriber": "oracle-ref", "from_lsn": 1, "max_records": 4096})
    assert [e["lsn"] for e in events] == \
        [e["lsn"] for e in reference["events"]], \
        "reconnected stream diverged from a single-shot replay"

    windows = {(checkpoints[0] - 1, checkpoints[-1])}
    for _ in range(4):
        t1, t2 = sorted(rng.sample(checkpoints, 2))
        if t1 < t2:
            windows.add((t1, t2))
    roots = db.atoms_of_type("Part")
    for t1, t2 in sorted(windows):
        result = db.query(f"DIFF {MT} BETWEEN {t1} AND {t2}")
        got = {}
        for entry in result.entries:
            got.setdefault(entry.root_id, []).append(entry.row)
        folded = fold_events(events, t1, t2)
        expected = {}
        for root in roots:
            scope = set()
            for tt in (t1, t2):
                molecule = db.molecule_at(root, MT, NOW, tt)
                if molecule is not None:
                    scope.update(a.atom_id for a in molecule.atoms())
            rows = [row for row in folded if row["atom_id"] in scope]
            if rows:
                expected[root] = rows
        assert json.dumps(got, sort_keys=True) == \
            json.dumps(expected, sort_keys=True), \
            f"DIFF and folded stream disagree over ({t1}, {t2}]"

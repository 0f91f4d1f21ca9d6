"""Tests for molecule *instances*: traversal order, occurrence counting,
serialization."""

import itertools

import pytest

from repro.testing import ReferenceDatabase


def fingerprint(atom):
    """The tuple fingerprint ``same_composition_as`` once compared: atom
    id, type, sorted values, and per edge (by name) the children in
    order."""
    return (atom.atom_id, atom.type_name, tuple(sorted(
        atom.version.values.items(), key=lambda item: item[0])),
        tuple((str(edge), tuple(fingerprint(child) for child in children))
              for edge, children in sorted(atom.children.items(),
                                           key=lambda item: str(item[0]))))


def assert_same_as_fingerprint(*molecules):
    """``same_composition_as`` agrees with fingerprint equality on every
    ordered pair."""
    for a, b in itertools.product(molecules, repeat=2):
        assert a.same_composition_as(b) == (
            fingerprint(a.root) == fingerprint(b.root))


@pytest.fixture
def shared_component(cad_schema):
    """Two parts sharing one component; molecule from a reverse root."""
    ref = ReferenceDatabase(cad_schema)
    p1 = ref.insert("Part", {"name": "a"}, valid_from=0)
    p2 = ref.insert("Part", {"name": "b"}, valid_from=0)
    shared = ref.insert("Component", {"cname": "shared"}, valid_from=0)
    ref.link("contains", p1, shared, valid_from=0)
    ref.link("contains", p2, shared, valid_from=0)
    return ref, p1, p2, shared


class TestTraversal:
    def test_atoms_preorder_root_first(self, shared_component):
        ref, p1, _, shared = shared_component
        molecule = ref.molecule_at(p1, "Part.contains.Component", 1)
        order = [atom.atom_id for atom in molecule.atoms()]
        assert order[0] == p1
        assert shared in order

    def test_children_sorted_by_atom_id(self, cad_schema):
        ref = ReferenceDatabase(cad_schema)
        part = ref.insert("Part", {"name": "p"}, valid_from=0)
        components = [ref.insert("Component", {"cname": f"c{i}"},
                                 valid_from=0) for i in range(5)]
        for component in reversed(components):
            ref.link("contains", part, component, valid_from=0)
        molecule = ref.molecule_at(part, "Part.contains.Component", 1)
        child_ids = [atom.atom_id for atom in molecule.atoms()][1:]
        assert child_ids == sorted(child_ids)

    def test_occurrences_counted_per_path(self, shared_component):
        """From the shared component upward, each part occurs once; from a
        diamond, a reconverging atom occurs once per path."""
        ref, p1, p2, shared = shared_component
        molecule = ref.molecule_at(shared, "Component.contains.Part", 1)
        assert molecule.atom_count() == 3  # component + both parts

    def test_distinct_atom_ids(self, shared_component):
        ref, p1, p2, shared = shared_component
        molecule = ref.molecule_at(shared, "Component.contains.Part", 1)
        assert sorted(molecule.distinct_atom_ids()) == sorted(
            [shared, p1, p2])

    def test_child_atoms_accessor(self, shared_component):
        ref, p1, _, shared = shared_component
        molecule = ref.molecule_at(p1, "Part.contains.Component", 1)
        (edge,) = molecule.type.edges
        children = molecule.root.child_atoms(edge)
        assert [child.atom_id for child in children] == [shared]


class TestSerialization:
    def test_to_dict_shape(self, shared_component):
        ref, p1, _, shared = shared_component
        molecule = ref.molecule_at(p1, "Part.contains.Component", 1)
        document = molecule.to_dict()
        assert document["molecule_type"] == "Part.contains.Component"
        root = document["root"]
        assert root["atom_id"] == p1
        assert root["values"]["name"] == "a"
        (children,) = root["children"].values()
        assert children[0]["atom_id"] == shared

    def test_to_dict_is_json_safe(self, shared_component):
        import json
        ref, p1, _, _ = shared_component
        molecule = ref.molecule_at(p1, "Part.contains.Component", 1)
        json.dumps(molecule.to_dict())  # must not raise


class TestComposition:
    def test_same_composition_reflexive(self, shared_component):
        ref, p1, _, _ = shared_component
        a = ref.molecule_at(p1, "Part.contains.Component", 1)
        b = ref.molecule_at(p1, "Part.contains.Component", 2)
        assert a.same_composition_as(b)
        assert b.same_composition_as(a)
        assert_same_as_fingerprint(a, b)

    def test_value_change_breaks_composition(self, shared_component):
        ref, p1, _, shared = shared_component
        before = ref.molecule_at(p1, "Part.contains.Component", 1)
        ref.update(shared, {"weight": 9.0}, valid_from=5)
        after = ref.molecule_at(p1, "Part.contains.Component", 6)
        assert not before.same_composition_as(after)
        assert_same_as_fingerprint(before, after)

    def test_membership_change_breaks_composition(self, shared_component):
        ref, p1, _, shared = shared_component
        before = ref.molecule_at(p1, "Part.contains.Component", 1)
        ref.unlink("contains", p1, shared, valid_from=5)
        after = ref.molecule_at(p1, "Part.contains.Component", 6)
        assert not before.same_composition_as(after)
        assert_same_as_fingerprint(before, after)

    def test_agrees_with_fingerprint_across_shapes(self, shared_component):
        """Every molecule the fixture yields, across types, roots and
        instants around a value change, an unlink and a child-order
        change, compares as the fingerprint did."""
        ref, p1, p2, shared = shared_component
        extra = ref.insert("Component", {"cname": "extra"}, valid_from=0)
        ref.link("contains", p1, extra, valid_from=3)
        ref.update(shared, {"weight": 2.0}, valid_from=5)
        ref.unlink("contains", p2, shared, valid_from=7)
        molecules = [
            molecule
            for text, roots in (("Part.contains.Component", (p1, p2)),
                                ("Component.contains.Part", (shared,)),
                                ("Part", (p1, p2)))
            for root in roots
            for at in (1, 4, 6, 8)
            for molecule in [ref.molecule_at(root, text, at)]
            if molecule is not None]
        assert len(molecules) == 20
        assert_same_as_fingerprint(*molecules)

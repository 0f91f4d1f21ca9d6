"""Molecule types and molecule instances.

A *molecule type* is a dynamically definable complex-object type: a
connected DAG over atom types, rooted at one atom type, each edge labelled
with a link type and a traversal direction.  Molecules — the instances —
are derived at query time by following links from root atoms; they are
never stored, which is the MAD model's defining trait (the same atoms can
participate in arbitrarily many molecule types).

Textual form (used by MQL and :meth:`MoleculeType.parse`)::

    Part                                   single-type molecule
    Part.contains.Component                one edge, forward traversal
    Part.contains.Component.supplied_by.Supplier      a path
    Part(.contains.Component)(.documented_by.Document) branches

A dotted step names the link explicitly; the edge traverses the link
forward (source to target) or backward (target to source), whichever
matches the adjacent atom types — when both match (self links), forward
wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

from repro.core.schema import Schema
from repro.core.version import IN, OUT, Version, ref_key
from repro.errors import InvalidMoleculeTypeError, ParseError


@dataclass(frozen=True, slots=True)
class MoleculeEdge:
    """One labelled edge of a molecule type.

    ``parent``/``child`` are atom type names; ``forward`` tells whether
    the traversal runs with the link's direction (parent is the link's
    source) or against it.  A *recursive* edge (``parent == child``)
    carries ``max_depth`` — how many times the builder may follow it
    along one path (spelled ``Part.part_of[3].Part`` in the textual
    form).  Non-recursive edges always have ``max_depth == 1``.
    """

    parent: str
    link: str
    child: str
    forward: bool = True
    max_depth: int = 1

    @property
    def is_recursive(self) -> bool:
        return self.parent == self.child

    @property
    def parent_ref_key(self) -> str:
        """The reference-set key followed on the parent's versions."""
        return ref_key(self.link, OUT if self.forward else IN)

    def __str__(self) -> str:
        arrow = "->" if self.forward else "<-"
        bound = f"[{self.max_depth}]" if self.is_recursive else ""
        return f"{self.parent}.{self.link}{bound}{arrow}{self.child}"


class MoleculeType:
    """A rooted, connected DAG over atom types."""

    def __init__(self, root: str, edges: List[MoleculeEdge] = ()) -> None:
        self.root = root
        self.edges: List[MoleculeEdge] = list(edges)

    # -- structure -----------------------------------------------------------

    def atom_type_names(self) -> List[str]:
        """Every atom type in the molecule, root first, no duplicates."""
        names = [self.root]
        for edge in self.edges:
            if edge.child not in names:
                names.append(edge.child)
            if edge.parent not in names:
                names.append(edge.parent)
        return names

    def edges_from(self, type_name: str) -> List[MoleculeEdge]:
        return [edge for edge in self.edges if edge.parent == type_name]

    def validate(self, schema: Schema) -> None:
        """Check the definition against the schema: known types, matching
        links, connectedness, acyclicity."""
        for name in self.atom_type_names():
            schema.atom_type(name)
        reachable = {self.root}
        pending = list(self.edges)
        progressed = True
        while pending and progressed:
            progressed = False
            for edge in list(pending):
                if edge.parent in reachable:
                    reachable.add(edge.child)
                    pending.remove(edge)
                    progressed = True
        if pending:
            raise InvalidMoleculeTypeError(
                f"molecule type is not connected from root {self.root!r}: "
                f"unreachable edges {[str(e) for e in pending]}")
        for edge in self.edges:
            link = schema.link_type(edge.link)
            expected = ((link.source, link.target) if edge.forward
                        else (link.target, link.source))
            if (edge.parent, edge.child) != expected:
                raise InvalidMoleculeTypeError(
                    f"edge {edge} does not match link "
                    f"{link.source}->{link.target}")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Reject cycles in the type graph.

        Direct recursion (``parent == child``) is allowed when bounded —
        that is the MAD model's recursive molecule — so self-edges are
        exempt here; their depth bound is validated separately.
        """
        children: Dict[str, List[str]] = {}
        for edge in self.edges:
            if edge.is_recursive:
                if edge.max_depth < 1:
                    raise InvalidMoleculeTypeError(
                        f"recursive edge {edge} needs a depth bound >= 1")
                continue
            if edge.max_depth != 1:
                raise InvalidMoleculeTypeError(
                    f"edge {edge}: depth bounds apply to recursive "
                    f"(same-type) edges only")
            children.setdefault(edge.parent, []).append(edge.child)
        state: Dict[str, int] = {}  # 1 = visiting, 2 = done

        def visit(node: str, stack: Tuple[str, ...]) -> None:
            if state.get(node) == 1:
                raise InvalidMoleculeTypeError(
                    f"molecule type contains a cycle through {node!r}")
            if state.get(node) == 2:
                return
            state[node] = 1
            for child in children.get(node, ()):
                visit(child, stack + (node,))
            state[node] = 2

        visit(self.root, ())

    def max_path_length(self) -> int:
        """Upper bound on expansion depth along any one path."""
        return 1 + sum(edge.max_depth for edge in self.edges)

    # -- textual form ------------------------------------------------------------

    @classmethod
    def parse(cls, text: str, schema: Schema) -> "MoleculeType":
        """Parse the dotted molecule notation against a schema."""
        text = text.strip()
        if not text:
            raise ParseError("empty molecule type")
        root, rest = _take_identifier(text)
        mtype = cls(root)
        _parse_tail(rest, root, mtype, schema)
        mtype.validate(schema)
        return mtype

    def __str__(self) -> str:
        if not self.edges:
            return self.root
        parts = [self.root]
        for edge in self.edges_from(self.root):
            parts.append(f".{edge.link}.{edge.child}")
        return "".join(parts)

    def __repr__(self) -> str:
        return (f"MoleculeType(root={self.root!r}, "
                f"edges={[str(e) for e in self.edges]})")


def _take_identifier(text: str) -> Tuple[str, str]:
    length = 0
    while length < len(text) and (text[length].isalnum()
                                  or text[length] == "_"):
        length += 1
    if length == 0:
        raise ParseError(f"expected identifier at {text[:20]!r}")
    return text[:length], text[length:]


def _edge_for(schema: Schema, parent: str, link_name: str, child: str,
              max_depth: int = 1) -> MoleculeEdge:
    link = schema.link_type(link_name)
    if (link.source, link.target) == (parent, child):
        return MoleculeEdge(parent, link_name, child, forward=True,
                            max_depth=max_depth)
    if (link.target, link.source) == (parent, child):
        return MoleculeEdge(parent, link_name, child, forward=False,
                            max_depth=max_depth)
    raise InvalidMoleculeTypeError(
        f"link {link_name!r} does not connect {parent!r} to {child!r}")


def _take_depth_bound(text: str) -> Tuple[int, str]:
    """Parse an optional ``[n]`` depth bound; returns (bound, rest)."""
    if not text.startswith("["):
        return 1, text
    end = text.find("]")
    if end < 0:
        raise ParseError("unbalanced '[' in molecule type")
    digits = text[1:end].strip()
    if not digits.isdigit() or int(digits) < 1:
        raise ParseError(
            f"depth bound must be a positive integer, got {digits!r}")
    return int(digits), text[end + 1:]


def _parse_tail(text: str, parent: str, mtype: MoleculeType,
                schema: Schema) -> str:
    """Parse ``.link.Type...`` chains and ``(...)`` branches after *parent*."""
    while text:
        if text[0] == ".":
            link_name, rest = _take_identifier(text[1:])
            max_depth, rest = _take_depth_bound(rest)
            if not rest.startswith("."):
                raise ParseError(
                    f"expected '.AtomType' after link {link_name!r}")
            child, rest = _take_identifier(rest[1:])
            mtype.edges.append(_edge_for(schema, parent, link_name, child,
                                         max_depth))
            parent = child
            text = rest
        elif text[0] == "(":
            depth, end = 1, 1
            while end < len(text) and depth:
                if text[end] == "(":
                    depth += 1
                elif text[end] == ")":
                    depth -= 1
                end += 1
            if depth:
                raise ParseError("unbalanced '(' in molecule type")
            _parse_tail(text[1:end - 1], parent, mtype, schema)
            text = text[end:]
        else:
            raise ParseError(f"unexpected {text[:10]!r} in molecule type")
    return text


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass
class MoleculeAtom:
    """One atom occurrence inside a molecule instance."""

    atom_id: int
    type_name: str
    version: Version
    children: Dict[MoleculeEdge, List["MoleculeAtom"]] = field(
        default_factory=dict)

    def child_atoms(self, edge: MoleculeEdge) -> List["MoleculeAtom"]:
        return self.children.get(edge, [])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "atom_id": self.atom_id,
            "type": self.type_name,
            "values": dict(self.version.values),
            "valid": str(self.version.vt),
            "children": {
                str(edge): [child.to_dict() for child in children]
                for edge, children in self.children.items()
            },
        }


@dataclass
class Molecule:
    """A derived complex object: the root atom plus its reachable atoms."""

    type: MoleculeType
    root: MoleculeAtom

    def atoms(self) -> Iterator[MoleculeAtom]:
        """Every atom occurrence, preorder from the root.

        An atom reached over several paths appears once per occurrence —
        molecules are DAG-shaped views, and occurrence counts matter to
        projections.
        """
        stack = [self.root]
        while stack:
            atom = stack.pop()
            yield atom
            for children in atom.children.values():
                stack.extend(reversed(children))

    def atom_count(self) -> int:
        return sum(1 for _ in self.atoms())

    def distinct_atom_ids(self) -> List[int]:
        seen: Dict[int, None] = {}
        for atom in self.atoms():
            seen.setdefault(atom.atom_id)
        return list(seen)

    def same_composition_as(self, other: "Molecule") -> bool:
        """Equal structure, atoms, and values (times ignored).

        Walks both trees in parallel and stops at the first difference:
        atom id, type or values of an occurrence, the edges it was
        expanded along, or the length and order of a child list.  Only
        the links the molecule type traverses count: a change in a
        reference set the molecule never follows does not change this
        molecule's composition.
        """
        pending = [(self.root, other.root)]
        while pending:
            mine, theirs = pending.pop()
            if (mine.atom_id != theirs.atom_id
                    or mine.type_name != theirs.type_name
                    or (mine.version is not theirs.version
                        and mine.version.values != theirs.version.values)
                    or mine.children.keys() != theirs.children.keys()):
                return False
            for edge, children in mine.children.items():
                others = theirs.children[edge]
                if len(children) != len(others):
                    return False
                pending.extend(zip(children, others))
        return True

    def to_dict(self) -> Dict[str, Any]:
        return {"molecule_type": str(self.type), "root": self.root.to_dict()}


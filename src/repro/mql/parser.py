"""MQL recursive-descent parser."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ParseError
from repro.mql.ast_nodes import (
    Aggregate,
    And,
    AttrPath,
    Comparison,
    CompareOp,
    DiffClause,
    Literal,
    Not,
    Or,
    ParamRef,
    Predicate,
    Query,
    RawEdge,
    RawMolecule,
    SelectAll,
    SelectClause,
    SelectPaths,
    ValidAt,
    ValidAtNow,
    ValidClause,
    ValidDuring,
    ValidHistory,
    WhenClause,
)
from repro.mql.lexer import Token, TokenType, tokenize
from repro.temporal import FOREVER, TMIN


class _Stream:
    """Cursor over the token list with expectation helpers."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._at = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._at]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.END:
            self._at += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        if not self.current.is_keyword(word):
            raise ParseError(f"expected {word}, got {self.current}",
                             self.current.position)
        return self.advance()

    def accept_symbol(self, symbol: str) -> bool:
        token = self.current
        if token.type is TokenType.SYMBOL and token.value == symbol:
            self.advance()
            return True
        return False

    def expect_symbol(self, symbol: str) -> Token:
        token = self.current
        if token.type is not TokenType.SYMBOL or token.value != symbol:
            raise ParseError(f"expected {symbol!r}, got {token}",
                             token.position)
        return self.advance()

    def expect_ident(self) -> str:
        token = self.current
        if not token.may_be_identifier:
            raise ParseError(f"expected identifier, got {token}",
                             token.position)
        return self.advance().ident_text


def parse_query(text: str) -> Query:
    """Parse one MQL query; raises :class:`ParseError` on bad syntax."""
    stream = _Stream(tokenize(text))
    explain = False
    if stream.accept_keyword("EXPLAIN"):
        stream.expect_keyword("ANALYZE")
        explain = True
    if stream.accept_keyword("DIFF"):
        return _parse_diff(stream, explain)
    stream.expect_keyword("SELECT")
    select = _parse_select(stream)
    stream.expect_keyword("FROM")
    molecule = _parse_molecule(stream)
    where: Optional[Predicate] = None
    if stream.accept_keyword("WHERE"):
        where = _parse_or(stream)
    valid: ValidClause = ValidAtNow()
    if stream.accept_keyword("VALID"):
        valid = _parse_valid(stream)
    when: Optional[WhenClause] = None
    if stream.accept_keyword("WHEN"):
        when = _parse_when(stream)
    as_of: Optional[int] = None
    if stream.accept_keyword("AS"):
        stream.expect_keyword("OF")
        as_of = _parse_time(stream)
        if as_of >= FOREVER:  # current knowledge by another name
            as_of = None
    if stream.current.type is not TokenType.END:
        raise ParseError(f"unexpected trailing {stream.current}",
                         stream.current.position)
    return Query(select, molecule, where, valid, when, as_of, explain)


def _parse_diff(stream: _Stream, explain: bool) -> Query:
    """``DIFF <molecule> BETWEEN t1 AND t2 [WHERE ...]``.

    A DIFF query has no VALID/WHEN/AS OF clauses: the two BETWEEN
    times *are* its temporal specification (transaction times; the
    valid instant is the current state, as with an omitted VALID).
    """
    molecule = _parse_molecule(stream)
    stream.expect_keyword("BETWEEN")
    start = _parse_time_or_param(stream)
    stream.expect_keyword("AND")
    end = _parse_time_or_param(stream)
    where: Optional[Predicate] = None
    if stream.accept_keyword("WHERE"):
        where = _parse_or(stream)
    if stream.current.type is not TokenType.END:
        raise ParseError(f"unexpected trailing {stream.current}",
                         stream.current.position)
    return Query(SelectAll(), molecule, where, ValidAtNow(), None, None,
                 explain, DiffClause(start, end))


# -- SELECT -----------------------------------------------------------------


_AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")


def _parse_select(stream: _Stream) -> SelectClause:
    if stream.accept_keyword("ALL"):
        return SelectAll()
    items = [_parse_select_item(stream)]
    while stream.accept_symbol(","):
        items.append(_parse_select_item(stream))
    return SelectPaths(tuple(items))


def _parse_select_item(stream: _Stream):
    # An aggregate keyword only acts as one when a '(' follows — so
    # attributes named "count" etc. keep working.
    token = stream.current
    for func in _AGGREGATES:
        if token.is_keyword(func):
            after = stream._tokens[stream._at + 1]
            if after.type is TokenType.SYMBOL and after.value == "(":
                stream.advance()
                stream.expect_symbol("(")
                name = stream.expect_ident()
                if stream.accept_symbol("."):
                    attribute = stream.expect_ident()
                    item = Aggregate(func, AttrPath(name, attribute))
                elif func == "COUNT":
                    item = Aggregate(func, type_name=name)
                else:
                    raise ParseError(
                        f"{func} needs Type.attribute (only COUNT "
                        f"accepts a bare type)", token.position)
                stream.expect_symbol(")")
                return item
    return _parse_attr_path(stream)


def _parse_attr_path(stream: _Stream) -> AttrPath:
    type_name = stream.expect_ident()
    stream.expect_symbol(".")
    attribute = stream.expect_ident()
    return AttrPath(type_name, attribute)


# -- FROM ------------------------------------------------------------------------


def _parse_molecule(stream: _Stream) -> RawMolecule:
    root = stream.expect_ident()
    edges: List[RawEdge] = []
    _parse_molecule_tail(stream, root, edges)
    return RawMolecule(root, tuple(edges))


def _parse_molecule_tail(stream: _Stream, parent: str,
                         edges: List[RawEdge]) -> None:
    while True:
        if stream.accept_symbol("."):
            link = stream.expect_ident()
            max_depth = 1
            if stream.accept_symbol("["):
                token = stream.current
                if token.type is not TokenType.INT or int(token.value) < 1:
                    raise ParseError(
                        f"depth bound must be a positive integer, "
                        f"got {token}", token.position)
                max_depth = int(stream.advance().value)
                stream.expect_symbol("]")
            stream.expect_symbol(".")
            child = stream.expect_ident()
            edges.append(RawEdge(parent, link, child, max_depth))
            parent = child
        elif stream.accept_symbol("("):
            _parse_molecule_tail(stream, parent, edges)
            stream.expect_symbol(")")
        else:
            return


# -- WHERE ----------------------------------------------------------------------------


def _parse_or(stream: _Stream) -> Predicate:
    operands = [_parse_and(stream)]
    while stream.accept_keyword("OR"):
        operands.append(_parse_and(stream))
    return operands[0] if len(operands) == 1 else Or(tuple(operands))


def _parse_and(stream: _Stream) -> Predicate:
    operands = [_parse_not(stream)]
    while stream.accept_keyword("AND"):
        operands.append(_parse_not(stream))
    return operands[0] if len(operands) == 1 else And(tuple(operands))


def _parse_not(stream: _Stream) -> Predicate:
    if stream.accept_keyword("NOT"):
        return Not(_parse_not(stream))
    if stream.accept_symbol("("):
        inner = _parse_or(stream)
        stream.expect_symbol(")")
        return inner
    return _parse_comparison(stream)


_OPS = {op.value: op for op in CompareOp}


def _parse_comparison(stream: _Stream) -> Comparison:
    path = _parse_attr_path(stream)
    token = stream.current
    if token.type is not TokenType.SYMBOL or token.value not in _OPS:
        raise ParseError(f"expected comparison operator, got {token}",
                         token.position)
    op = _OPS[stream.advance().value]
    return Comparison(path, op, _parse_literal(stream))


def _parse_literal(stream: _Stream) -> Literal:
    token = stream.current
    if token.type is TokenType.PARAM:
        stream.advance()
        return Literal(ParamRef(token.value))
    if token.type is TokenType.INT:
        stream.advance()
        return Literal(int(token.value))
    if token.type is TokenType.FLOAT:
        stream.advance()
        return Literal(float(token.value))
    if token.type is TokenType.STRING:
        stream.advance()
        return Literal(token.value)
    if token.is_keyword("TRUE"):
        stream.advance()
        return Literal(True)
    if token.is_keyword("FALSE"):
        stream.advance()
        return Literal(False)
    if token.is_keyword("NULL"):
        stream.advance()
        return Literal(None)
    raise ParseError(f"expected literal, got {token}", token.position)


# -- temporal clauses ----------------------------------------------------------------------


def _parse_time(stream: _Stream) -> int:
    token = stream.current
    if token.type is TokenType.INT:
        stream.advance()
        return int(token.value)
    if token.is_keyword("FOREVER"):
        stream.advance()
        return FOREVER
    if token.is_keyword("TMIN"):
        stream.advance()
        return TMIN
    raise ParseError(f"expected a time, got {token}", token.position)


def _parse_time_or_param(stream: _Stream):
    """A time, or a ``$name`` placeholder (DIFF bounds are bindable)."""
    token = stream.current
    if token.type is TokenType.PARAM:
        stream.advance()
        return ParamRef(token.value)
    return _parse_time(stream)


def _parse_valid(stream: _Stream) -> ValidClause:
    if stream.accept_keyword("AT"):
        if stream.accept_keyword("NOW"):
            return ValidAtNow()
        return ValidAt(_parse_time(stream))
    if stream.accept_keyword("DURING"):
        stream.expect_symbol("[")
        start = _parse_time(stream)
        stream.expect_symbol(",")
        end = _parse_time(stream)
        if not stream.accept_symbol(")"):
            stream.expect_symbol("]")  # tolerate a closed-bracket spelling
        return ValidDuring(start, end)
    if stream.accept_keyword("HISTORY"):
        return ValidHistory()
    raise ParseError(f"expected AT, DURING, or HISTORY after VALID, "
                     f"got {stream.current}", stream.current.position)


# -- parameter binding ---------------------------------------------------------


def has_parameters(query: Query) -> bool:
    """Whether any ``$name`` placeholder remains unbound (in the WHERE
    clause or in DIFF's BETWEEN bounds)."""
    def walk(predicate) -> bool:
        if isinstance(predicate, Comparison):
            return isinstance(predicate.literal.value, ParamRef)
        if isinstance(predicate, (And, Or)):
            return any(walk(operand) for operand in predicate.operands)
        if isinstance(predicate, Not):
            return walk(predicate.operand)
        return False
    if query.diff is not None and (
            isinstance(query.diff.start, ParamRef)
            or isinstance(query.diff.end, ParamRef)):
        return True
    return query.where is not None and walk(query.where)


def bind_parameters(query: Query, params: Optional[dict]) -> Query:
    """Replace ``$name`` placeholders with bound values.

    Every placeholder must be bound and every binding used; values must
    be int, float, str, bool, or None.  Returns a new query (the AST is
    immutable).
    """
    params = params or {}
    used: set = set()

    def bind_predicate(predicate):
        if isinstance(predicate, Comparison):
            literal = predicate.literal
            if isinstance(literal.value, ParamRef):
                name = literal.value.name
                if name not in params:
                    raise ParseError(f"unbound query parameter ${name}")
                value = params[name]
                if value is not None and not isinstance(
                        value, (int, float, str, bool)):
                    raise ParseError(
                        f"parameter ${name} has unsupported type "
                        f"{type(value).__name__}")
                used.add(name)
                return Comparison(predicate.path, predicate.op,
                                  Literal(value))
            return predicate
        if isinstance(predicate, And):
            return And(tuple(bind_predicate(op)
                             for op in predicate.operands))
        if isinstance(predicate, Or):
            return Or(tuple(bind_predicate(op)
                            for op in predicate.operands))
        if isinstance(predicate, Not):
            return Not(bind_predicate(predicate.operand))
        return predicate

    def bind_time(value):
        if not isinstance(value, ParamRef):
            return value
        if value.name not in params:
            raise ParseError(f"unbound query parameter ${value.name}")
        bound = params[value.name]
        if isinstance(bound, bool) or not isinstance(bound, int):
            raise ParseError(
                f"parameter ${value.name} must be an integer time, "
                f"got {type(bound).__name__}")
        used.add(value.name)
        return bound

    where = bind_predicate(query.where) if query.where is not None else None
    diff = query.diff
    if diff is not None:
        diff = DiffClause(bind_time(diff.start), bind_time(diff.end))
    unused = set(params) - used
    if unused:
        raise ParseError(
            f"unused query parameters: "
            f"{', '.join('$' + name for name in sorted(unused))}")
    return Query(query.select, query.molecule, where, query.valid,
                 query.when, query.as_of, query.explain, diff)


_WHEN_RELATIONS = ("OVERLAPS", "DURING", "CONTAINS", "MEETS", "BEFORE",
                   "AFTER", "EQUALS", "STARTS", "FINISHES")


def _parse_when(stream: _Stream) -> WhenClause:
    for relation in _WHEN_RELATIONS:
        if stream.accept_keyword(relation):
            break
    else:
        raise ParseError(
            f"expected an interval relation after WHEN "
            f"(one of {', '.join(_WHEN_RELATIONS)}), got {stream.current}",
            stream.current.position)
    stream.expect_symbol("[")
    start = _parse_time(stream)
    stream.expect_symbol(",")
    end = _parse_time(stream)
    if not stream.accept_symbol(")"):
        stream.expect_symbol("]")
    return WhenClause(relation, start, end)

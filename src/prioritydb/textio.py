"""Parsers and printers for the five text formats.

All formats share one token stream: identifiers, integers, punctuation, with
``#`` line comments and free whitespace.  An identifier starting with an
upper-case letter or underscore is a variable; everything else (including
integers) is a constant.  Parse errors carry line and column.

``tokenize`` makes two passes in C: one match finds the first character no
token covers, and one ``findall`` lists the token texts.  The parser reads
those plain strings.  A token's kind is read off its text where a check needs
it (``isidentifier`` for a name, ``isdigit`` for a number, ``->`` for the
arrow), and its offset is recomputed only when a ``ParseError`` is built.

Formats:
  facts        P(c, ...).          0-ary facts are bare names: ``p.``
  constraints  lit, ..., X != Y, ... -> false.     or  ... -> P(..) | Q(..).
               body literals may be negated with ``not``
  priority     LIT > LIT.          LIT is P(c,...) or !P(c,...)
               score LIT = n.      scores induce the priority by level
  query        q(X, ...) :- P(t, ...), ... .       one query per file
  active rules lit, ... -> { +P(c...), -P(c...) }.
  updates      +P(c...).  or  -P(c...).            one action per line
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Sequence

from .aic import AIC, UpdateAction, UpdateAtom, action_key
from .errors import InputError, ParseError
from .model import (
    BodyAtom,
    Database,
    Fact,
    Literal,
    Schema,
    Term,
    UniversalConstraint,
    is_variable,
    literal_key,
)
from .priorities import PriorityRelation
from .query import ConjunctiveQuery

# Each match of ``_TOKEN`` is a token, in its group, or a run of whitespace or
# a comment, for which the group reads ''.  ``_VALID`` matches the longest
# prefix that the same alternatives cover.
_TOKENS = r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|->|:-|!=|[(),.{}|>!+\-=/]"
_TOKEN = re.compile(rf"\s+|#[^\n]*|({_TOKENS})")
_VALID = re.compile(rf"(?:\s+|#[^\n]*|{_TOKENS})*")
_LABELS = {"->": "arrow", ":-": "neck", "!=": "neq"}


def _position(text: str, offset: int) -> tuple[int, int]:
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def tokenize(text: str) -> list[str]:
    """The token texts, ending with ``''`` for the end of the text."""
    end = _VALID.match(text).end()
    if end < len(text):
        raise ParseError(f"unexpected character {text[end]!r}", *_position(text, end))
    tokens = list(filter(None, _TOKEN.findall(text)))
    tokens.append("")
    return tokens


class _Parser:
    """Reads the token texts.  A token's kind (name, number, arrow, ...) is
    read off its text where a check needs it, and its offset is recomputed
    only when an error is reported."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    def error(self, message: str, index: Optional[int] = None) -> ParseError:
        """An error at token ``index`` (default: the next token)."""
        index = self.index if index is None else index
        starts = [m.start(1) for m in _TOKEN.finditer(self.text) if m.start(1) >= 0]
        offset = starts[index] if index < len(starts) else len(self.text)
        return ParseError(message, *_position(self.text, offset))

    def peek(self) -> str:
        return self.tokens[self.index]

    def at_end(self) -> bool:
        return not self.tokens[self.index]

    def take(self, text: str) -> str:
        token = self.tokens[self.index]
        if token != text:
            raise self.error(f"expected {_LABELS.get(text, repr(text))}, found {token!r}")
        self.index += 1
        return token

    def take_kind(self, kind: str) -> str:
        """The next token, which must be a ``name`` or a ``number``."""
        token = self.tokens[self.index]
        if not (token.isidentifier() if kind == "name" else token.isdigit()):
            raise self.error(f"expected {kind}, found {token!r}")
        self.index += 1
        return token

    def try_take(self, text: str) -> bool:
        if self.tokens[self.index] == text:
            self.index += 1
            return True
        return False

    def term(self) -> Term:
        token = self.tokens[self.index]
        if token.isidentifier() or token.isdigit():
            self.index += 1
            return token
        raise self.error(f"expected a term, found {token!r}")

    def atom(self) -> tuple[str, tuple[Term, ...]]:
        name = self.take_kind("name")
        terms: list[Term] = []
        if self.try_take("("):
            if not self.try_take(")"):
                terms.append(self.term())
                while self.try_take(","):
                    terms.append(self.term())
                self.take(")")
        return name, tuple(terms)

    def ground_atom(self) -> Fact:
        start = self.index
        name, terms = self.atom()
        loose = [t for t in terms if is_variable(t)]
        if loose:
            raise self.error(f"variable {loose[0]} where a constant is required", start)
        return Fact(name, terms)


def parse_database(text: str) -> Database:
    parser = _Parser(text)
    facts = set()
    while not parser.at_end():
        facts.add(parser.ground_atom())
        parser.take(".")
    return frozenset(facts)


def _parse_body(parser: _Parser) -> tuple[list[BodyAtom], list[tuple[Term, Term]]]:
    atoms: list[BodyAtom] = []
    inequalities: list[tuple[Term, Term]] = []
    while True:
        if parser.try_take("not"):
            name, terms = parser.atom()
            atoms.append(BodyAtom(False, name, terms))
        else:
            start = parser.index
            left = parser.term()
            if parser.try_take("!="):
                right = parser.term()
                inequalities.append((left, right))
            else:
                parser.index = start
                name, terms = parser.atom()
                atoms.append(BodyAtom(True, name, terms))
        if not parser.try_take(","):
            break
    return atoms, inequalities


def parse_constraints(text: str) -> tuple[UniversalConstraint, ...]:
    parser = _Parser(text)
    out = []
    while not parser.at_end():
        atoms: list[BodyAtom] = []
        inequalities: list[tuple[Term, Term]] = []
        if parser.peek() != "->":
            atoms, inequalities = _parse_body(parser)
        arrow = parser.index
        parser.take("->")
        head: list[tuple[str, tuple[Term, ...]]] = []
        if not parser.try_take("false"):
            head.append(parser.atom())
            while parser.try_take("|"):
                head.append(parser.atom())
        parser.take(".")
        try:
            out.append(UniversalConstraint.make(atoms, inequalities, head))
        except InputError as exc:
            raise parser.error(str(exc), arrow) from exc
    return tuple(out)


def _parse_signed_literal(parser: _Parser) -> Literal:
    if parser.try_take("!"):
        return Literal(parser.ground_atom(), positive=False)
    return Literal(parser.ground_atom(), positive=True)


def parse_priority(
    text: str,
) -> tuple[PriorityRelation, dict[Literal, int]]:
    """Edges plus any explicit scores.  Scores, when present, switch the engine
    to score-structured mode; unscored conflict literals default to score 0."""
    parser = _Parser(text)
    edges = []
    scores: dict[Literal, int] = {}
    while not parser.at_end():
        if parser.try_take("score"):
            lit = _parse_signed_literal(parser)
            parser.take("=")
            scores[lit] = int(parser.take_kind("number"))
        else:
            strong = _parse_signed_literal(parser)
            parser.take(">")
            weak = _parse_signed_literal(parser)
            edges.append((strong, weak))
        parser.take(".")
    return PriorityRelation.of(edges), scores


def parse_query(text: str) -> ConjunctiveQuery:
    parser = _Parser(text)
    head_name, head_terms = parser.atom()
    parser.take(":-")
    atoms = [parser.atom()]
    while parser.try_take(","):
        atoms.append(parser.atom())
    parser.take(".")
    if not parser.at_end():
        raise parser.error("expected a single query")
    try:
        return ConjunctiveQuery.make(head_terms, atoms)
    except InputError as exc:
        raise parser.error(str(exc), 0) from exc


def parse_aics(text: str) -> tuple[AIC, ...]:
    parser = _Parser(text)
    out = []
    while not parser.at_end():
        start = parser.index
        atoms, inequalities = _parse_body(parser)
        parser.take("->")
        parser.take("{")
        updates = [_parse_update_atom(parser)]
        while parser.try_take(","):
            updates.append(_parse_update_atom(parser))
        parser.take("}")
        parser.take(".")
        try:
            out.append(AIC.make(atoms, updates, inequalities))
        except InputError as exc:
            raise parser.error(str(exc), start) from exc
    return tuple(out)


def _parse_update_atom(parser: _Parser) -> UpdateAtom:
    if parser.try_take("+"):
        add = True
    elif parser.try_take("-"):
        add = False
    else:
        raise parser.error("expected + or -")
    name, terms = parser.atom()
    return UpdateAtom(add, name, terms)


def parse_updates(text: str) -> frozenset[UpdateAction]:
    parser = _Parser(text)
    actions = set()
    while not parser.at_end():
        atom = _parse_update_atom(parser)
        loose = [t for t in atom.terms if is_variable(t)]
        if loose:
            raise parser.error(f"variable {loose[0]} in a ground update")
        parser.take(".")
        actions.add(UpdateAction(atom.add, Fact(atom.predicate, atom.terms)))
    return frozenset(actions)


def parse_schema(text: str) -> Schema:
    """Declarations ``P/2.`` or ``P.`` (arity 0), one per statement."""
    parser = _Parser(text)
    pairs = []
    while not parser.at_end():
        name = parser.take_kind("name")
        arity = 0
        if parser.try_take("/"):
            arity = int(parser.take_kind("number"))
        pairs.append((name, arity))
        parser.take(".")
    return Schema.of(pairs)


# Printers; parsing canonical output reproduces the parsed value.


def format_fact(fact: Fact) -> str:
    return str(fact)


def format_database(db: Database) -> str:
    return "".join(f"{format_fact(f)}.\n" for f in sorted(db))


def format_literal(lit: Literal) -> str:
    return str(lit)


def format_literal_set(lits: Iterable[Literal]) -> str:
    inner = ", ".join(format_literal(l) for l in sorted(lits, key=literal_key))
    return "{" + inner + "}"


def format_fact_set(facts: Iterable[Fact]) -> str:
    inner = ", ".join(format_fact(f) for f in sorted(facts))
    return "{" + inner + "}"


def format_constraint(constraint: UniversalConstraint) -> str:
    return f"{constraint}."


def format_constraints(constraints: Sequence[UniversalConstraint]) -> str:
    return "".join(format_constraint(c) + "\n" for c in constraints)


def format_priority(
    priority: PriorityRelation, scores: Optional[dict[Literal, int]] = None
) -> str:
    lines = [
        f"{a} > {b}."
        for a, b in sorted(
            priority.edges, key=lambda e: (literal_key(e[0]), literal_key(e[1]))
        )
    ]
    for lit, value in sorted((scores or {}).items(), key=lambda kv: literal_key(kv[0])):
        lines.append(f"score {lit} = {value}.")
    return "".join(line + "\n" for line in lines)


def format_aic(rule: AIC) -> str:
    return f"{rule}."


def format_aics(rules: Sequence[AIC]) -> str:
    return "".join(format_aic(r) + "\n" for r in rules)


def format_updates(actions: Iterable[UpdateAction]) -> str:
    return "".join(f"{a}.\n" for a in sorted(actions, key=action_key))


def format_update_set(actions: Iterable[UpdateAction]) -> str:
    inner = ", ".join(str(a) for a in sorted(actions, key=action_key))
    return "{" + inner + "}"


def format_query(query: ConjunctiveQuery) -> str:
    head = (
        f"q({', '.join(query.head_vars)})" if query.head_vars else "q"
    )
    body = ", ".join(str(Fact(pred, terms)) for pred, terms in query.atoms)
    return f"{head} :- {body}.\n"

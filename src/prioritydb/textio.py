"""Parsers and printers for the five text formats.

All formats share one token stream: identifiers, integers, punctuation, with
``#`` line comments and free whitespace.  An identifier starting with an
upper-case letter or underscore is a variable; everything else (including
integers) is a constant.  Parse errors carry line and column.

``tokenize`` scans in C.  It removes the comments (only when a ``#``
occurs), one character-class search rejects a character that no token
covers, and one ``findall`` of the token alternatives lists the token texts,
skipping whitespace.  Only for a rejected text does the scan that finds the
first such character run.  The parsers walk the list of those plain strings
with an index of their own.  A token's kind is read off its text where a
check needs it (``isidentifier`` for a name, ``isdigit`` for a number, ``->``
for the arrow), and its offset is recomputed only when a ``ParseError`` is
built.  A number of more digits than ``int`` converts is a ``ParseError``.

Formats:
  facts        P(c, ...).          0-ary facts are bare names: ``p.``
  constraints  lit, ..., X != Y, ... -> false.     or  ... -> P(..) | Q(..).
               body literals may be negated with ``not``
  priority     LIT > LIT.          LIT is P(c,...) or !P(c,...)
               score LIT = n.      scores induce the priority by level
  query        q(X, ...) :- P(t, ...), ... .       one query per file
  active rules lit, ... -> { +P(c...), -P(c...) }.
  updates      +P(c...).  or  -P(c...).            one action per line

Active rules and update actions are parsed into the rule syntax of
``model``, so this module loads neither ``aic`` nor ``bridges``.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Sequence

from .errors import InputError, ParseError
from .model import (
    AIC,
    BodyAtom,
    Database,
    Fact,
    Literal,
    Schema,
    Term,
    UniversalConstraint,
    UpdateAction,
    UpdateAtom,
    action_key,
    literal_key,
)
from .priorities import PriorityRelation
from .query import ConjunctiveQuery

# ``_TOKEN`` matches one token, the longest at its start (``->?`` and ``!=?``
# read ``->`` and ``!=`` whole); the single characters come first, as they
# are the most frequent.  ``_STRAY`` matches a character no token covers
# (``:`` is checked apart, as it is one only in ``:-``) once the comments are
# removed.
_TOKENS = r"[(),.{}|>+=/]|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|->?|:-|!=?"
_TOKEN = re.compile(_TOKENS)
_STRAY = re.compile(r"[^A-Za-z0-9_(),.{}|>!+\-=/:\s]")
# Patterns compiled on first use, by ``re``'s cache: a comment, then the
# error path's two.  Each match of ``_SCAN`` is a token, in its group, or a
# run of whitespace or a comment, for which the group reads ''.  ``_VALID``
# matches the longest prefix that the same alternatives cover.
_COMMENT = r"#[^\n]*"
_SCAN = rf"\s+|{_COMMENT}|({_TOKENS})"
_VALID = rf"(?:\s+|{_COMMENT}|{_TOKENS})*"
_LABELS = {"->": "arrow", ":-": "neck", "!=": "neq"}
# The first characters of a variable.  Tokens are ASCII, so on a token this
# set answers as ``model.is_variable`` does, without a call per term.
_VARIABLE_INITIALS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_")


def _position(text: str, offset: int) -> tuple[int, int]:
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _first_variable(terms: tuple[Term, ...]) -> Optional[Term]:
    for term in terms:
        if term[0] in _VARIABLE_INITIALS:
            return term
    return None


def tokenize(text: str) -> list[str]:
    """The token texts, ending with ``''`` for the end of the text."""
    code = re.sub(_COMMENT, "", text) if "#" in text else text
    if _STRAY.search(code) or code.count(":") != code.count(":-"):
        end = re.match(_VALID, text).end()
        raise ParseError(f"unexpected character {text[end]!r}", *_position(text, end))
    tokens = _TOKEN.findall(code)
    tokens.append("")
    return tokens


class _Parser:
    """Reads the token texts.  A token's kind (name, number, arrow, ...) is
    read off its text where a check needs it, and its offset is recomputed
    only when an error is reported.

    The parsers walk the token list with an index of their own; each ``*_at``
    method reads from token ``i`` and returns the index after what it read."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)

    def error(self, message: str, index: int) -> ParseError:
        """An error at token ``index``."""
        starts = [m.start(1) for m in re.finditer(_SCAN, self.text) if m.start(1) >= 0]
        offset = starts[index] if index < len(starts) else len(self.text)
        return ParseError(message, *_position(self.text, offset))

    def expected(self, text: str, i: int) -> ParseError:
        """The error for token ``i``, which is not ``text``."""
        label = _LABELS.get(text, repr(text))
        return self.error(f"expected {label}, found {self.tokens[i]!r}", i)

    def expect(self, text: str, i: int) -> int:
        if self.tokens[i] != text:
            raise self.expected(text, i)
        return i + 1

    def term_at(self, i: int) -> Term:
        token = self.tokens[i]
        if token.isidentifier() or token.isdigit():
            return token
        raise self.error(f"expected a term, found {token!r}", i)

    def number_at(self, i: int) -> tuple[int, int]:
        token = self.tokens[i]
        if not token.isdigit():
            raise self.error(f"expected number, found {token!r}", i)
        try:
            return int(token), i + 1
        except ValueError:  # more digits than int() converts
            raise self.error(f"number too long: {len(token)} digits", i) from None

    def atom_at(self, i: int) -> tuple[str, tuple[Term, ...], int]:
        """The atom at token ``i``: its name, its terms and the index after it."""
        tokens = self.tokens
        name = tokens[i]
        if not name.isidentifier():
            raise self.error(f"expected name, found {name!r}", i)
        i += 1
        if tokens[i] != "(":
            return name, (), i
        i += 1
        if tokens[i] == ")":
            return name, (), i + 1
        first = i
        while True:
            token = tokens[i]
            if not (token.isidentifier() or token.isdigit()):
                raise self.error(f"expected a term, found {token!r}", i)
            token = tokens[i + 1]
            if token == ")":
                return name, tuple(tokens[first:i + 1:2]), i + 2
            if token != ",":
                raise self.expected(")", i + 1)
            i += 2

    def atoms_at(
        self, i: int, separator: str
    ) -> tuple[list[tuple[str, tuple[Term, ...]]], int]:
        """One or more atoms from token ``i`` on, with ``separator`` between them."""
        name, terms, i = self.atom_at(i)
        atoms = [(name, terms)]
        while self.tokens[i] == separator:
            name, terms, i = self.atom_at(i + 1)
            atoms.append((name, terms))
        return atoms, i

    def ground_atom_at(self, i: int) -> tuple[Fact, int]:
        """The ground atom at token ``i`` as a fact, and the index after it."""
        name, terms, end = self.atom_at(i)
        loose = _first_variable(terms)
        if loose is not None:
            raise self.error(f"variable {loose} where a constant is required", i)
        return Fact(name, terms), end


def parse_database(text: str) -> Database:
    parser = _Parser(text)
    tokens, ground_atom_at = parser.tokens, parser.ground_atom_at
    facts = set()
    i = 0
    while tokens[i]:
        fact, i = ground_atom_at(i)
        if tokens[i] != ".":
            raise parser.expected(".", i)
        facts.add(fact)
        i += 1
    return frozenset(facts)


def _body_at(
    parser: _Parser, i: int
) -> tuple[list[BodyAtom], list[tuple[Term, Term]], int]:
    tokens = parser.tokens
    atoms: list[BodyAtom] = []
    inequalities: list[tuple[Term, Term]] = []
    while True:
        if tokens[i] == "not":
            name, terms, i = parser.atom_at(i + 1)
            atoms.append(BodyAtom(False, name, terms))
        else:
            left = parser.term_at(i)
            if tokens[i + 1] == "!=":
                inequalities.append((left, parser.term_at(i + 2)))
                i += 3
            else:
                name, terms, i = parser.atom_at(i)
                atoms.append(BodyAtom(True, name, terms))
        if tokens[i] != ",":
            return atoms, inequalities, i
        i += 1


def parse_constraints(text: str) -> tuple[UniversalConstraint, ...]:
    parser = _Parser(text)
    tokens = parser.tokens
    out = []
    i = 0
    while tokens[i]:
        atoms, inequalities, head = [], [], []
        if tokens[i] != "->":
            atoms, inequalities, i = _body_at(parser, i)
        arrow = i
        i = parser.expect("->", i)
        if tokens[i] == "false":
            i += 1
        else:
            head, i = parser.atoms_at(i, "|")
        i = parser.expect(".", i)
        try:
            out.append(UniversalConstraint.make(atoms, inequalities, head))
        except InputError as exc:
            raise parser.error(str(exc), arrow) from exc
    return tuple(out)


def _literal_at(parser: _Parser, i: int) -> tuple[Literal, int]:
    positive = parser.tokens[i] != "!"
    fact, i = parser.ground_atom_at(i if positive else i + 1)
    return Literal(fact, positive), i


def parse_priority(
    text: str,
) -> tuple[PriorityRelation, dict[Literal, int]]:
    """Edges plus any explicit scores.  Scores, when present, switch the engine
    to score-structured mode; unscored conflict literals default to score 0."""
    parser = _Parser(text)
    tokens = parser.tokens
    edges = []
    scores: dict[Literal, int] = {}
    i = 0
    while tokens[i]:
        if tokens[i] == "score":
            lit, i = _literal_at(parser, i + 1)
            scores[lit], i = parser.number_at(parser.expect("=", i))
        else:
            strong, i = _literal_at(parser, i)
            weak, i = _literal_at(parser, parser.expect(">", i))
            edges.append((strong, weak))
        i = parser.expect(".", i)
    return PriorityRelation.of(edges), scores


def parse_query(text: str) -> ConjunctiveQuery:
    parser = _Parser(text)
    _, head_terms, i = parser.atom_at(0)
    atoms, i = parser.atoms_at(parser.expect(":-", i), ",")
    i = parser.expect(".", i)
    if parser.tokens[i]:
        raise parser.error("expected a single query", i)
    try:
        return ConjunctiveQuery.make(head_terms, atoms)
    except InputError as exc:
        raise parser.error(str(exc), 0) from exc


def _update_atom_at(parser: _Parser, i: int) -> tuple[UpdateAtom, int]:
    sign = parser.tokens[i]
    if sign != "+" and sign != "-":
        raise parser.error("expected + or -", i)
    name, terms, i = parser.atom_at(i + 1)
    return UpdateAtom(sign == "+", name, terms), i


def parse_aics(text: str) -> tuple[AIC, ...]:
    parser = _Parser(text)
    tokens = parser.tokens
    out = []
    i = 0
    while tokens[i]:
        start = i
        atoms, inequalities, i = _body_at(parser, i)
        i = parser.expect("{", parser.expect("->", i))
        update, i = _update_atom_at(parser, i)
        updates = [update]
        while tokens[i] == ",":
            update, i = _update_atom_at(parser, i + 1)
            updates.append(update)
        i = parser.expect(".", parser.expect("}", i))
        try:
            out.append(AIC.make(atoms, updates, inequalities))
        except InputError as exc:
            raise parser.error(str(exc), start) from exc
    return tuple(out)


def parse_updates(text: str) -> frozenset[UpdateAction]:
    parser = _Parser(text)
    tokens = parser.tokens
    actions = set()
    i = 0
    while tokens[i]:
        atom, i = _update_atom_at(parser, i)
        loose = _first_variable(atom.terms)
        if loose is not None:
            raise parser.error(f"variable {loose} in a ground update", i)
        i = parser.expect(".", i)
        actions.add(UpdateAction(atom.add, Fact(atom.predicate, atom.terms)))
    return frozenset(actions)


def parse_schema(text: str) -> Schema:
    """Declarations ``P/2.`` or ``P.`` (arity 0), one per statement."""
    parser = _Parser(text)
    tokens = parser.tokens
    pairs = []
    i = 0
    while tokens[i]:
        name = tokens[i]
        if not name.isidentifier():
            raise parser.error(f"expected name, found {name!r}", i)
        arity, i = 0, i + 1
        if tokens[i] == "/":
            arity, i = parser.number_at(i + 1)
        pairs.append((name, arity))
        i = parser.expect(".", i)
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

"""Parsers and printers for the five text formats."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import action, fact, lit, neg
from prioritydb.errors import ParseError
from prioritydb.model import Schema
from prioritydb.textio import (
    _Parser,
    format_aics,
    format_constraints,
    format_database,
    format_priority,
    format_query,
    format_updates,
    parse_aics,
    parse_constraints,
    parse_database,
    parse_priority,
    parse_query,
    parse_schema,
    parse_updates,
    tokenize,
)


class TestDatabase:
    def test_facts(self):
        got = parse_database("A(a).\nR(a, b).\n# comment\np.\n")
        assert got == {fact("A", "a"), fact("R", "a", "b"), fact("p")}

    def test_trailing_comment_holds_no_facts(self):
        assert parse_database("p.\n# q(a) here\n") == {fact("p")}

    def test_empty_file(self):
        assert parse_database("  # nothing here\n") == frozenset()

    def test_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_database("A(X).")

    def test_roundtrip(self):
        db = frozenset({fact("A", "a"), fact("p"), fact("R", "b", "c")})
        assert parse_database(format_database(db)) == db


class TestConstraints:
    def test_denial(self):
        got = parse_constraints("A(X) -> false.")
        assert len(got) == 1
        assert got[0].is_denial()
        assert len(got[0].body) == 1

    def test_head_becomes_negated_body(self):
        got = parse_constraints("A(X) -> C(X).")
        signs = sorted((a.positive, a.predicate) for a in got[0].body)
        assert signs == [(False, "C"), (True, "A")]

    def test_disjunctive_head(self):
        got = parse_constraints("A(X) -> B(X) | C(X).")
        assert sum(not a.positive for a in got[0].body) == 2

    def test_inequality_and_negation(self):
        got = parse_constraints("S(X, Y), S(X, Z), Y != Z, not T(X) -> false.")
        assert got[0].inequalities == {("Y", "Z")}
        assert sum(not a.positive for a in got[0].body) == 1

    def test_unsafe_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_constraints("\nA(X) -> C(Y).")
        assert err.value.line == 2

    def test_empty_body_ground_head(self):
        got = parse_constraints("-> A(a).")
        assert len(got[0].body) == 1 and not got[0].body[0].positive

    def test_roundtrip(self):
        text = "A(X), not C(X) -> false.\nS(X, Y), S(X, Z), Y != Z -> false.\n"
        constraints = parse_constraints(text)
        assert parse_constraints(format_constraints(constraints)) == constraints


class TestPriority:
    def test_edges(self):
        priority, scores = parse_priority("R(d, b) > S(a, b).\nS(a, b) > !A(a).\n")
        assert (lit("R", "d", "b"), lit("S", "a", "b")) in priority.edges
        assert (lit("S", "a", "b"), neg("A", "a")) in priority.edges
        assert scores == {}

    def test_scores(self):
        priority, scores = parse_priority("score A(a) = 2.\nscore !B(a) = 0.\n")
        assert priority.edges == frozenset()
        assert scores == {lit("A", "a"): 2, neg("B", "a"): 0}

    def test_roundtrip(self):
        priority, scores = parse_priority("A(a) > B(a).\nscore A(a) = 1.\n")
        again, again_scores = parse_priority(format_priority(priority, scores))
        assert again == priority and again_scores == scores


class TestQuery:
    def test_open_query(self):
        q = parse_query("q(X) :- R(X, Y).")
        assert q.head_vars == ("X",)
        assert q.atoms == (("R", ("X", "Y")),)

    def test_boolean_query(self):
        q = parse_query("q :- A(a).")
        assert q.is_boolean()

    def test_answer_variable_must_occur(self):
        with pytest.raises(ParseError):
            parse_query("q(X) :- A(Y).")

    def test_single_query_enforced(self):
        with pytest.raises(ParseError):
            parse_query("q :- A(a).\nq :- B(a).")

    def test_roundtrip(self):
        q = parse_query("q(X, Y) :- R(X, Z), S(Z, Y).")
        assert parse_query(format_query(q)) == q


class TestActiveRules:
    def test_rule(self):
        got = parse_aics("al, be -> { -be }.\nnot ga, de -> { +ga, -de }.\n")
        assert len(got) == 2
        assert {str(u) for u in got[1].updates} == {"+ga", "-de"}

    def test_inequalities_allowed(self):
        got = parse_aics("S(X, Y), S(X, Z), Y != Z -> { -S(X, Y) }.")
        assert got[0].inequalities == {("Y", "Z")}

    def test_update_must_repair_body(self):
        with pytest.raises(ParseError):
            parse_aics("al -> { -be }.")

    def test_roundtrip(self):
        rules = parse_aics("A(X), not B(X) -> { -A(X), +B(X) }.")
        assert parse_aics(format_aics(rules)) == rules


class TestUpdatesAndSchema:
    def test_updates(self):
        got = parse_updates("+A(a).\n-be.\n")
        assert got == {action("A", "a", add=True), action("be")}

    def test_updates_roundtrip(self):
        actions = frozenset({action("A", "a"), action("B", "b", add=True)})
        assert parse_updates(format_updates(actions)) == actions

    def test_schema(self):
        got = parse_schema("A/1.\nR/2.\np.\n")
        assert got == Schema.of([("A", 1), ("R", 2), ("p", 0)])

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_database("A(a)?")
        assert err.value.column == 5


PARSERS = {
    "facts": parse_database,
    "constraints": parse_constraints,
    "priority": parse_priority,
    "query": parse_query,
    "aics": parse_aics,
    "updates": parse_updates,
    "schema": parse_schema,
}

# (format, text, message, line, column).  A column counts characters, so a
# tab is one column; a missing final "." is reported at the end of the text.
MALFORMED = [
    pytest.param(
        "facts", "?A(a).\n",
        "unexpected character '?'", 1, 1, id="facts-start",
    ),
    pytest.param(
        "facts", "A(a).\nB(b;c).\n",
        "unexpected character ';'", 2, 4, id="facts-middle",
    ),
    pytest.param(
        "facts", "A(a).\nB(b).\n@",
        "unexpected character '@'", 3, 1, id="facts-end",
    ),
    pytest.param(
        "facts", "A(a).\nB(b).\n  é",
        "unexpected character 'é'", 3, 3, id="facts-end-non-ascii",
    ),
    pytest.param(
        "facts", "Aé(a).\n",
        "unexpected character 'é'", 1, 2, id="facts-non-ascii-letter-in-name",
    ),
    pytest.param(
        "facts", "# comment\nA(a) B(b).\n",
        "expected '.', found 'B'", 2, 6, id="facts-after-comment-line",
    ),
    pytest.param(
        "facts", "A(a).\n# comment ? with > punctuation\n\n  A(a, X).\n",
        "variable X where a constant is required", 4, 3, id="facts-after-comment-and-blank",
    ),
    pytest.param(
        "facts", "\n\n\nA(X).\n",
        "variable X where a constant is required", 4, 1, id="facts-after-blank-lines",
    ),
    pytest.param(
        "facts", "\tA(a).\n\t\tB(b)\t?\n",
        "unexpected character '?'", 2, 8, id="facts-after-tabs",
    ),
    pytest.param(
        "facts", "A(a)",
        "expected '.', found ''", 1, 5, id="facts-missing-dot-at-eof",
    ),
    pytest.param(
        "facts", "A(a).\nB(b)\n   ",
        "expected '.', found ''", 3, 4, id="facts-missing-dot-trailing-blanks",
    ),
    pytest.param(
        "facts", "A(a) # no dot",
        "expected '.', found ''", 1, 14, id="facts-missing-dot-after-comment",
    ),
    pytest.param(
        "facts", "A(a).\r\nB(b) ?\r\n",
        "unexpected character '?'", 2, 6, id="facts-crlf",
    ),
    pytest.param(
        "facts", "A(a,).",
        "expected a term, found ')'", 1, 5, id="facts-missing-term",
    ),
    pytest.param(
        "constraints", "\nA(X) -> C(Y).\n",
        "unsafe constraint: variable Y occurs only in negated atom not C(Y)", 2, 6,
        id="constraints-unsafe-head",
    ),
    pytest.param(
        "constraints", "A(X), B(X) -> false\n",
        "expected '.', found ''", 2, 1, id="constraints-missing-dot-at-eof",
    ),
    pytest.param(
        "constraints", "# header\n\nA(X), B(X) false.\n",
        "expected arrow, found 'false'", 3, 12, id="constraints-after-comment-and-blank",
    ),
    pytest.param(
        "constraints", "A(X), X != -> false.\n",
        "expected a term, found '->'", 1, 12, id="constraints-missing-term",
    ),
    pytest.param(
        "constraints", "A(X) -> false.\n\tB(X) => false.\n",
        "expected arrow, found '='", 2, 7, id="constraints-after-tab",
    ),
    pytest.param(
        "priority", "A(a) > B(b).\n!A(a) > B(X).\n",
        "variable X where a constant is required", 2, 9, id="priority-variable",
    ),
    pytest.param(
        "priority", "score A(a) = x.\n",
        "expected number, found 'x'", 1, 14, id="priority-score-not-number",
    ),
    pytest.param(
        "priority", "A(a) >> B(b).\n",
        "expected name, found '>'", 1, 7, id="priority-double-gt",
    ),
    pytest.param(
        "priority", "A(a) > B(b)",
        "expected '.', found ''", 1, 12, id="priority-missing-dot-at-eof",
    ),
    pytest.param(
        "query", "q :- A(a).\nq :- B(a).\n",
        "expected a single query", 2, 1, id="query-two-queries",
    ),
    pytest.param(
        "query", "q(X) :- A(Y).\n",
        "answer variable X does not occur in the body", 1, 1, id="query-unbound-answer-variable",
    ),
    pytest.param(
        "query", "\n  q(X) - A(X).\n",
        "expected neck, found '-'", 2, 8, id="query-after-blank-line",
    ),
    pytest.param(
        "query", "q(X) :- A(X)",
        "expected '.', found ''", 1, 13, id="query-missing-dot-at-eof",
    ),
    pytest.param(
        "query", "q(X) : A(X).\n",
        "unexpected character ':'", 1, 6, id="query-lone-colon",
    ),
    pytest.param(
        "query", "q(X) :- A(X) $",
        "unexpected character '$'", 1, 14, id="query-end",
    ),
    pytest.param(
        "aics", "al, be -> { be }.\n",
        "expected + or -", 1, 13, id="aics-unsigned-update",
    ),
    pytest.param(
        "aics", "# rules\nal -> { -be }.\n",
        "update action -be does not repair any body literal", 2, 1, id="aics-after-comment-line",
    ),
    pytest.param(
        "aics", "al -> { -al }\n",
        "expected '.', found ''", 2, 1, id="aics-missing-dot-at-eof",
    ),
    pytest.param(
        "aics", "al -> -al.\n",
        "expected '{', found '-'", 1, 7, id="aics-missing-brace",
    ),
    pytest.param(
        "updates", "+A(a).\n-B(X).\n",
        "variable X in a ground update", 2, 6, id="updates-variable",
    ),
    pytest.param(
        "updates", "A(a).\n",
        "expected + or -", 1, 1, id="updates-unsigned",
    ),
    pytest.param(
        "updates", "+A(a)\n",
        "expected '.', found ''", 2, 1, id="updates-missing-dot-at-eof",
    ),
    pytest.param(
        "updates", "+A(a).\n\t*B(b).\n",
        "unexpected character '*'", 2, 2, id="updates-after-tab",
    ),
    pytest.param(
        "schema", "A/x.\n",
        "expected number, found 'x'", 1, 3, id="schema-arity-not-number",
    ),
    pytest.param(
        "schema", "A/1\n",
        "expected '.', found ''", 2, 1, id="schema-missing-dot-at-eof",
    ),
]


@pytest.mark.parametrize("fmt, text, message, line, column", MALFORMED)
def test_parse_error_position(fmt, text, message, line, column):
    with pytest.raises(ParseError) as err:
        PARSERS[fmt](text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"{line}:{column}: {message}"


# The named-group scanner that ``tokenize`` replaced, kept as its oracle.
_ORACLE_TOKEN = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>[0-9]+)
      | (?P<arrow>->)
      | (?P<neck>:-)
      | (?P<neq>!=)
      | (?P<punct>[(),.{}|>!+\-=/])
    """,
    re.VERBOSE,
)


def _line_column(text, offset):
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _oracle_tokens(text):
    """Token texts with their offsets, the end of the text last, and the
    offset of the first character no token covers (``None`` if there is none)."""
    tokens, end = [], 0
    for match in _ORACLE_TOKEN.finditer(text):
        if match.start() != end:
            break
        if match.lastgroup != "ws":
            tokens.append((match.group(), end))
        end = match.end()
    return tokens + [("", end)], (end if end < len(text) else None)


_SOUP = st.lists(
    st.sampled_from(
        ["->", ":-", "!=", "-", ">", "!", ":", "# c(a) -> x", "#", " ", "\n", "\t", "\r\n",
         "A", "x_1", "_", "9", "07", "(", ")", ",", ".", "{", "}", "|", "+", "=", "/"]
    ),
    max_size=24,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(_SOUP, st.integers(0, 24), st.sampled_from(["?", "é", ";", "$", ""]))
@example("p.\n# q(a) here\n", 0, "")
@example("a:-b", 4, ":")
def test_tokenize_agrees_with_the_named_group_scanner(soup, at, stray):
    text = soup[:at] + stray + soup[at:]
    tokens, bad = _oracle_tokens(text)
    if bad is not None:
        with pytest.raises(ParseError) as err:
            tokenize(text)
        assert str(err.value) == "%d:%d: unexpected character %r" % (
            *_line_column(text, bad), text[bad]
        )
        return
    assert tokenize(text) == [token for token, _ in tokens]
    parser = _Parser(text)
    for index, (_, offset) in enumerate(tokens):
        error = parser.error("x", index)
        assert (error.line, error.column) == _line_column(text, offset)

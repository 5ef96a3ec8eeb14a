"""Shared fixture instances used across the test modules."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from prioritydb.aic import AIC, UpdateAction, UpdateAtom
from prioritydb.model import (
    BodyAtom,
    Fact,
    Literal,
    Schema,
    UniversalConstraint,
    ground_body,
    prime_implicants,
)
from prioritydb.priorities import PrioritizedDatabase, PriorityRelation


def fact(name: str, *args: str) -> Fact:
    return Fact(name, tuple(args))


def lit(name: str, *args: str, positive: bool = True) -> Literal:
    return Literal(Fact(name, tuple(args)), positive)


def neg(name: str, *args: str) -> Literal:
    return Literal(Fact(name, tuple(args)), False)


def atom(name: str, *terms: str, positive: bool = True) -> BodyAtom:
    return BodyAtom(positive, name, tuple(terms))


def rule(body, updates, inequalities=()) -> AIC:
    """Propositional or ground rule builder: body/updates as (name, flag) pairs."""
    return AIC.make(
        [BodyAtom(pos, name, tuple(args)) for name, args, pos in body],
        [UpdateAtom(add, name, tuple(args)) for name, args, add in updates],
        inequalities,
    )


def prop_rule(body, updates) -> AIC:
    return rule(
        [(name, (), pos) for name, pos in body],
        [(name, (), add) for name, add in updates],
    )


def action(name: str, *args: str, add: bool = False) -> UpdateAction:
    return UpdateAction(add, Fact(name, tuple(args)))


def joined_consensus(inst) -> frozenset:
    """The general conflicts path of a ``model.Instance``, on any constraints:
    consensus over the bodies whose positive atoms of predicates negated in
    no constraint are joined with the database, then the universe filter."""
    negated = {a.predicate for c in inst.constraints for a in c.body if not a.positive}
    join = {
        a.predicate: inst.db_by_predicate.get(a.predicate, [])
        for c in inst.constraints
        for a in c.body
        if a.positive and a.predicate not in negated
    }
    bodies = {
        literals
        for c in inst.constraints
        for literals, _ in ground_body(c.body, c.inequalities, inst.constants, join)
    }
    return frozenset(
        t for t in prime_implicants(bodies)
        if all(inst.in_universe(l.fact) and (l.fact in inst.db) == l.positive for l in t)
    )


@dataclass(frozen=True)
class Instance:
    db: frozenset
    schema: Schema
    constraints: tuple
    priority: PriorityRelation = PriorityRelation()

    def pdb(self) -> PrioritizedDatabase:
        return PrioritizedDatabase(self.db, self.schema, self.constraints, self.priority)


@pytest.fixture
def example1() -> Instance:
    """Two unary facts whose constraints force a cascade into a binary clash."""
    db = frozenset({fact("A", "a"), fact("B", "a")})
    schema = Schema.of([("A", 1), ("B", 1), ("C", 1), ("D", 1)])
    constraints = (
        UniversalConstraint.make([atom("A", "X")], head=[("C", ("X",))]),
        UniversalConstraint.make([atom("B", "X")], head=[("D", ("X",))]),
        UniversalConstraint.make([atom("C", "X"), atom("D", "X")]),
    )
    return Instance(db, schema, constraints)


def chain_instance(n: int) -> Instance:
    """A propagating chain: edges forward a marked property into a clash."""
    facts = {fact("A", "a0"), fact("B", f"a{n}")}
    for i in range(n):
        facts.add(fact("R", f"a{i}", f"a{i+1}"))
    schema = Schema.of([("A", 1), ("B", 1), ("R", 2)])
    constraints = (
        UniversalConstraint.make(
            [atom("R", "X", "Y"), atom("A", "X")], head=[("A", ("Y",))]
        ),
        UniversalConstraint.make([atom("A", "X"), atom("B", "X")]),
    )
    return Instance(frozenset(facts), schema, constraints)


@pytest.fixture
def example2():
    return chain_instance


def example3_instance() -> Instance:
    db = frozenset(
        {fact("S", "a", "b"), fact("S", "a", "c"), fact("R", "d", "b"), fact("R", "d", "c")}
    )
    schema = Schema.of([("S", 2), ("R", 2), ("A", 1), ("B", 1)])
    constraints = (
        UniversalConstraint.make(
            [atom("S", "X", "Y"), atom("S", "X", "Z")], [("Y", "Z")]
        ),
        UniversalConstraint.make(
            [atom("R", "X", "Y"), atom("R", "X", "Z")], [("Y", "Z")]
        ),
        UniversalConstraint.make([atom("R", "Y", "X"), atom("S", "Z", "X")]),
        UniversalConstraint.make([atom("S", "X", "Y")], head=[("A", ("X",))]),
        UniversalConstraint.make([atom("S", "X", "Y")], head=[("B", ("X",))]),
    )
    priority = PriorityRelation.of(
        [
            (lit("R", "d", "b"), lit("S", "a", "b")),
            (lit("S", "a", "b"), neg("A", "a")),
            (lit("S", "a", "c"), lit("R", "d", "c")),
            (lit("S", "a", "c"), neg("B", "a")),
        ]
    )
    return Instance(db, schema, constraints, priority)


@pytest.fixture
def example3() -> Instance:
    return example3_instance()


def example3_repairs() -> dict[str, frozenset]:
    big_b = frozenset({fact("R", "d", "b"), fact("S", "a", "c"), fact("A", "a"), fact("B", "a")})
    big_c = frozenset({fact("R", "d", "c"), fact("S", "a", "b"), fact("A", "a"), fact("B", "a")})
    return {
        "keep_rdb_sac": big_b,
        "keep_rdc_sab": big_c,
        "only_rdb": frozenset({fact("R", "d", "b")}),
        "only_rdc": frozenset({fact("R", "d", "c")}),
    }


def intersection_example() -> Instance:
    """One fact forced to imply one of two alternatives, both dominated."""
    db = frozenset({fact("A", "a")})
    schema = Schema.of([("A", 1), ("B", 1), ("C", 1)])
    constraints = (
        UniversalConstraint.make(
            [atom("A", "X")], head=[("B", ("X",)), ("C", ("X",))]
        ),
    )
    priority = PriorityRelation.of(
        [(lit("A", "a"), neg("B", "a")), (lit("A", "a"), neg("C", "a"))]
    )
    return Instance(db, schema, constraints, priority)


def prop_schema(*names: str) -> Schema:
    return Schema.of([(n, 0) for n in names])


def prop_db(*names: str) -> frozenset:
    return frozenset(Fact(n) for n in names)


def example5_rules() -> tuple[AIC, ...]:
    return (
        prop_rule([("al", True), ("be", True)], [("be", False)]),
        prop_rule([("al", True), ("ga", True)], [("al", False)]),
        prop_rule([("ga", True), ("de", True)], [("ga", False)]),
    )


def example6_rules() -> tuple[AIC, ...]:
    return (
        prop_rule([("al", False), ("be", False)], [("al", True)]),
        prop_rule([("al", True), ("be", False)], [("be", True)]),
        prop_rule([("al", False), ("be", True)], [("be", False)]),
        prop_rule([("al", True), ("be", True), ("ga", False)], [("ga", True)]),
        prop_rule([("al", True), ("be", False), ("ga", True)], [("be", True)]),
        prop_rule([("al", False), ("be", True), ("ga", True)], [("al", True)]),
    )


def example7_rules() -> tuple[AIC, ...]:
    return (
        prop_rule([("al", True), ("be", True)], [("al", False)]),
        prop_rule([("be", True), ("ga", True)], [("ga", False)]),
        prop_rule([("al", True), ("de", False)], [("de", True)]),
        prop_rule([("be", True), ("de", True)], [("be", False)]),
    )


def example8_rules() -> tuple[tuple[AIC, ...], tuple[AIC, ...]]:
    eta1 = (
        prop_rule([("al", True), ("be", False)], [("al", False)]),
        prop_rule([("al", False), ("be", True)], [("be", False)]),
        prop_rule([("al", True), ("be", True), ("ga", True)], [("ga", False)]),
    )
    eta2 = eta1 + (
        prop_rule([("al", True), ("ga", True)], [("ga", False)]),
        prop_rule([("be", True), ("ga", True)], [("ga", False)]),
    )
    return eta1, eta2


def example9_rules() -> tuple[AIC, ...]:
    return (
        prop_rule([("al", True), ("de", True)], [("de", False)]),
        prop_rule([("al", True), ("be", True), ("de", True)], [("al", False)]),
        prop_rule(
            [("al", True), ("be", True), ("ga", True), ("de", True)], [("be", False)]
        ),
        prop_rule([("be", True), ("ga", True)], [("ga", False)]),
    )


def nonclosed_rules() -> tuple[AIC, ...]:
    """Preserves actions but is not closed under resolution."""
    return (
        prop_rule([("al", True), ("be", True)], [("be", False)]),
        prop_rule([("be", False), ("ga", True)], [("ga", False)]),
    )


def general_case_rules() -> tuple[AIC, ...]:
    """Well-behaved rules with a ternary conflict."""
    return (
        prop_rule([("al", True), ("be", True), ("ga", True)], [("be", False)]),
        prop_rule(
            [("al", True), ("be", True), ("de", True)], [("al", False), ("be", False)]
        ),
        prop_rule([("de", True), ("ep", True)], [("de", False)]),
    )


def cyclic_rules() -> tuple[AIC, ...]:
    return (
        rule([("A", ("X",), True), ("B", ("X",), True)], [("A", ("X",), False)]),
        rule([("B", ("X",), True), ("C", ("X",), True)], [("B", ("X",), False)]),
        rule([("C", ("X",), True), ("A", ("X",), True)], [("C", ("X",), False)]),
    )

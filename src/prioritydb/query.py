"""Conjunctive query evaluation and the inconsistency-tolerant semantics.

Queries are evaluated per repair by the join ``model.matches``; the tolerant
semantics then combine per-repair answers: brave keeps answers true in some
optimal repair, cautious (cqa) those true in all of them, and intersection
evaluates over the intersection of the optimal repairs (which need not itself
satisfy the constraints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .model import Database, Term, by_predicate, is_variable, matches
from .priorities import PrioritizedDatabase, optimal_repairs


@dataclass(frozen=True)
class ConjunctiveQuery:
    """Free variables plus a conjunction of positive relational atoms."""

    head_vars: tuple[Term, ...]
    atoms: tuple[tuple[str, tuple[Term, ...]], ...]

    @staticmethod
    def make(
        head_vars: Sequence[Term], atoms: Sequence[tuple[str, tuple[Term, ...]]]
    ) -> "ConjunctiveQuery":
        body_vars = {t for _, terms in atoms for t in terms if is_variable(t)}
        for var in head_vars:
            if not is_variable(var):
                raise InputError(f"query head argument {var} is not a variable")
            if var not in body_vars:
                raise InputError(f"answer variable {var} does not occur in the body")
        if len(set(head_vars)) != len(head_vars):
            raise InputError("repeated answer variable in query head")
        return ConjunctiveQuery(tuple(head_vars), tuple(atoms))

    def is_boolean(self) -> bool:
        return not self.head_vars


def evaluate(query: ConjunctiveQuery, db: Database) -> frozenset[tuple[str, ...]]:
    """All bindings of the answer variables under which every atom matches.

    Atoms are matched in ascending order of relation cardinality; a Boolean
    query yields the empty tuple when satisfied.
    """
    facts = by_predicate(db)
    ordered = sorted(query.atoms, key=lambda atom: (len(facts.get(atom[0], ())), atom))
    return frozenset(
        tuple(binding[v] for v in query.head_vars) for binding, _ in matches(ordered, facts)
    )


@dataclass(frozen=True)
class AnswerSet:
    query: ConjunctiveQuery
    semantics: str  # "brave" | "cqa" | "intersection"
    optimality: str  # "none" | "pareto" | "global" | "completion"
    tuples: tuple[tuple[str, ...], ...]

    def holds(self) -> bool:
        """Truth of a Boolean query."""
        return () in self.tuples


def repairs_intersection(pdb: PrioritizedDatabase, optimality: str) -> Database:
    """Intersection of the chosen optimal repairs; may violate the constraints."""
    chosen = optimal_repairs(pdb, optimality).repairs
    out = set(chosen[0]) if chosen else set()
    for repair in chosen[1:]:
        out &= repair
    return frozenset(out)


def answers(
    pdb: PrioritizedDatabase,
    query: ConjunctiveQuery,
    semantics: str,
    optimality: str,
) -> AnswerSet:
    if semantics == "intersection":
        tuples = evaluate(query, repairs_intersection(pdb, optimality))
    else:
        chosen = optimal_repairs(pdb, optimality).repairs
        per_repair = [evaluate(query, repair) for repair in chosen]
        if semantics == "brave":
            tuples = frozenset().union(*per_repair) if per_repair else frozenset()
        elif semantics == "cqa":
            tuples = (
                frozenset.intersection(*per_repair) if per_repair else frozenset()
            )
        else:
            raise InputError(f"unknown semantics: {semantics}")
    return AnswerSet(query, semantics, optimality, tuple(sorted(tuples)))

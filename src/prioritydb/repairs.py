"""Repair enumeration: symmetric-difference, subset, and superset repairs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .conflicts import ConflictHypergraph, minimal_hitting_sets
from .errors import DEFAULT_BUDGET, Budget, subsets
from .model import (
    Database,
    Instance,
    Schema,
    UniversalConstraint,
    fact_key,
)


@dataclass(frozen=True)
class RepairSet:
    kind: str  # "delta" | "subset" | "superset"
    repairs: tuple[Database, ...]

    def __contains__(self, candidate: Database) -> bool:
        return candidate in self.repairs

    def __iter__(self):
        return iter(self.repairs)

    def __len__(self) -> int:
        return len(self.repairs)


def sorted_repair_set(kind: str, repairs) -> RepairSet:
    ordered = sorted(set(repairs), key=lambda r: (len(r), sorted(r, key=fact_key)))
    return RepairSet(kind, tuple(ordered))


def delta_repairs(
    db: Database,
    schema: Schema,
    constraints: Sequence[UniversalConstraint],
    budget: Budget = DEFAULT_BUDGET,
) -> RepairSet:
    """The complement of every minimal transversal of the conflict hypergraph
    in the literal universe, mapped back to a database."""
    return delta_repairs_of(Instance(db, schema, tuple(constraints)), budget)


def delta_repairs_of(inst: Instance, budget: Budget = DEFAULT_BUDGET) -> RepairSet:
    edges = ConflictHypergraph.of(inst.conflicts).hyperedges
    return sorted_repair_set(
        "delta",
        (
            inst.restriction(inst.literals - t)
            for t in minimal_hitting_sets(edges, budget, "conflict literal set")
        ),
    )


def _as_bitmask_problem(inst: Instance):
    universe = sorted(inst.facts, key=fact_key)
    index = {fact: i for i, fact in enumerate(universe)}
    bodies = []
    for body in inst.bodies:
        pos = 0
        neg = 0
        for lit in body:
            bit = 1 << index[lit.fact]
            if lit.positive:
                pos |= bit
            else:
                neg |= bit
        bodies.append((pos, neg))
    db_mask = 0
    for fact in inst.db:
        db_mask |= 1 << index[fact]
    return universe, bodies, db_mask


def _consistent_mask(mask: int, bodies) -> bool:
    return not any((mask & pos) == pos and (mask & neg) == 0 for pos, neg in bodies)


def delta_repairs_bruteforce(
    db: Database,
    schema: Schema,
    constraints: tuple[UniversalConstraint, ...],
    budget: Budget = DEFAULT_BUDGET,
) -> RepairSet:
    """Definition-direct oracle: scan every subset of the fact universe, keep
    the consistent ones, retain those at minimal symmetric difference."""
    universe, bodies, db_mask = _as_bitmask_problem(Instance(db, schema, tuple(constraints)))
    budget.check_universe(len(universe))
    minimal_diffs: list[int] = []
    winners: list[int] = []
    candidates = []
    for mask in range(1 << len(universe)):
        if _consistent_mask(mask, bodies):
            candidates.append((bin(mask ^ db_mask).count("1"), mask ^ db_mask, mask))
    candidates.sort()
    for _, diff, mask in candidates:
        if not any((kept & diff) == kept for kept in minimal_diffs):
            minimal_diffs.append(diff)
            winners.append(mask)
    out = []
    for mask in winners:
        out.append(frozenset(f for i, f in enumerate(universe) if mask & (1 << i)))
    return sorted_repair_set("delta", out)


def is_delta_repair(
    candidate: Database,
    db: Database,
    schema: Schema,
    constraints: Sequence[UniversalConstraint],
) -> bool:
    """A candidate repair is a symmetric-difference repair exactly when its
    agreement set is a maximal conflict-free subset of the literal universe."""
    return is_delta_repair_of(Instance(db, schema, tuple(constraints)), candidate)


def is_delta_repair_of(inst: Instance, candidate: Database) -> bool:
    agree = inst.agreement(candidate)
    if any(e <= agree for e in inst.conflicts):
        return False
    for lit in inst.literals - agree:
        if not any(lit in e and e - {lit} <= agree for e in inst.conflicts):
            return False
    return True


def subset_repairs(
    db: Database,
    schema: Schema,
    constraints: Sequence[UniversalConstraint],
    budget: Budget = DEFAULT_BUDGET,
) -> RepairSet:
    """Maximal consistent subsets of the database."""
    return subset_repairs_of(Instance(db, schema, tuple(constraints)), budget)


def subset_repairs_of(inst: Instance, budget: Budget = DEFAULT_BUDGET) -> RepairSet:
    facts = sorted(inst.db, key=fact_key)
    keepers = [s for s in subsets(facts, budget, "database") if inst.consistent(s)]
    maximal = [s for s in keepers if not any(s < t for t in keepers)]
    return sorted_repair_set("subset", maximal)


def superset_repairs(
    db: Database,
    schema: Schema,
    constraints: Sequence[UniversalConstraint],
    budget: Budget = DEFAULT_BUDGET,
) -> RepairSet:
    """Minimal consistent supersets of the database inside the fact universe;
    may be empty."""
    return superset_repairs_of(Instance(db, schema, tuple(constraints)), budget)


def superset_repairs_of(inst: Instance, budget: Budget = DEFAULT_BUDGET) -> RepairSet:
    pool = sorted(inst.facts - inst.db, key=fact_key)
    keepers = [
        inst.db | added
        for added in subsets(pool, budget, "addition pool")
        if inst.consistent(inst.db | added)
    ]
    minimal = [s for s in keepers if not any(t < s for t in keepers)]
    return sorted_repair_set("superset", minimal)

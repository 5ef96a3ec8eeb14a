"""Repair enumeration: symmetric-difference, subset, and superset repairs.
Delta repairs come from ``masks.ConflictMasks``; the others and the oracle
``delta_repairs_bruteforce`` scan subsets of the facts."""

from __future__ import annotations

from typing import Sequence

from .errors import DEFAULT_BUDGET, Budget, InputError, subsets
from .masks import ConflictMasks, consistent_mask
from .model import (  # re-exports RepairSet and sorted_repair_set
    Database, Instance, Literal, RepairSet, Schema, UniversalConstraint,
    sorted_repair_set,
)


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
    """Each transversal ``t`` lies in the literal universe, so the restriction
    to ``inst.literals - t`` is the database with the facts of ``t`` toggled.
    The transversals are the products of those of the conflict components
    (``ConflictMasks.repairs``)."""
    return ConflictMasks(inst, budget).repairs


def _as_bitmask_problem(inst: Instance):
    universe = sorted(inst.facts)
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
        if consistent_mask(mask, bodies):
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
    """Decided on the conflicts, without the fact universe.  The candidate
    drops the literals of the facts it toggles; its agreement set is maximal
    and conflict-free exactly when every conflict meets those dropped
    literals and each of them is the only one in some conflict."""
    stray = [f for f in candidate if not inst.in_universe(f)]
    if stray:
        raise InputError(f"candidate repair fact {min(stray)} "
                         f"is outside the fact universe")
    dropped = {Literal(f, f in inst.db) for f in candidate ^ inst.db}
    critical = set()
    for conflict in inst.conflicts:
        hit = conflict & dropped
        if not hit:
            return False
        if len(hit) == 1:
            critical |= hit
    return critical == dropped


def subset_repairs(
    db: Database,
    schema: Schema,
    constraints: Sequence[UniversalConstraint],
    budget: Budget = DEFAULT_BUDGET,
) -> RepairSet:
    """Maximal consistent subsets of the database."""
    return subset_repairs_of(Instance(db, schema, tuple(constraints)), budget)


def subset_repairs_of(inst: Instance, budget: Budget = DEFAULT_BUDGET) -> RepairSet:
    facts = sorted(inst.db)
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
    pool = sorted(inst.facts - inst.db)
    keepers = [
        inst.db | added
        for added in subsets(pool, budget, "addition pool")
        if inst.consistent(inst.db | added)
    ]
    minimal = [s for s in keepers if not any(t < s for t in keepers)]
    return sorted_repair_set("superset", minimal)

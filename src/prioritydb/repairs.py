"""Repair enumeration: symmetric-difference, subset, and superset repairs.
Delta repairs come from ``masks.ConflictMasks``; the others scan subsets of
the facts, as the oracle ``oracles.delta_repairs_bruteforce`` does."""

from __future__ import annotations

from typing import Sequence

from .errors import DEFAULT_BUDGET, Budget, InputError, subsets
from .masks import ConflictMasks
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

"""Conflicts: minimal literal sets whose joint truth forces a constraint violation.

The production path, ``Instance.conflicts``, closes a set of ground constraint
bodies under consensus (``prime_implicants``: single-clash resolution with
subsumption deletion) until only prime terms of the violation formula remain,
then keeps the terms that lie inside the literal universe.  The bodies it
starts from are not the full grounding: a positive atom whose predicate occurs
negated in no constraint is joined with the database facts of that predicate.
The violation formula is monotone in the literals this drops, so the join
does not change the conflicts (the argument is in the ``Instance.conflicts``
docstring).  Consensus over the full grounding, ``prime_implicants(inst.bodies)``,
stays as a test oracle.  An independent
path recovers the same sets as minimal hitting sets of the symmetric
differences between the database and its brute-force repairs; it serves as a
test oracle.  ``minimal_hitting_sets`` is the one minimal-transversal
enumerator: the oracle runs it on those differences, and ``repairs`` runs it
on the conflicts, whose minimal transversals are the complements of the
repairs' agreement sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from .errors import DEFAULT_BUDGET, Budget, InputError
from .model import (
    Database,
    Instance,
    Literal,
    Schema,
    UniversalConstraint,
    literal_key,
    prime_implicants,  # re-exported: the consensus closure behind Instance.conflicts
)

Conflict = frozenset[Literal]


def conflicts(
    db: Database, schema: Schema, constraints: Sequence[UniversalConstraint]
) -> frozenset[Conflict]:
    """Conflicts of the database w.r.t. the constraints, via consensus closure."""
    return Instance(db, schema, tuple(constraints)).conflicts


def conflicts_via_hitting_sets(
    db: Database,
    schema: Schema,
    constraints: Sequence[UniversalConstraint],
    budget: Budget = DEFAULT_BUDGET,
) -> frozenset[Conflict]:
    """Oracle path: minimal hitting sets of the repair differences, re-signed.

    Enumerates repairs by brute force, so it is exponential in the fact
    universe and intended for cross-checking the consensus path.
    """
    from .repairs import delta_repairs_bruteforce  # local import to avoid a cycle

    repairs = delta_repairs_bruteforce(db, schema, tuple(constraints), budget=budget)
    diffs = [frozenset(r ^ db) for r in repairs.repairs]
    return frozenset(
        frozenset(Literal(f, positive=f in db) for f in hitting)
        for hitting in minimal_hitting_sets(diffs, budget, "repair difference set")
    )


def minimal_hitting_sets(
    families: Sequence[frozenset],
    budget: Budget = DEFAULT_BUDGET,
    what: str = "hitting-set universe",
) -> frozenset[frozenset]:
    """All minimal sets meeting every member of ``families``: its minimal
    transversals, whose complements are the maximal independent sets.

    Decides each element of the families' union in turn, iteratively over
    bitmasks.  An element is left out only while no family would then lie
    wholly among the left-out elements, and taken only while every taken
    element still meets some family alone (the critical-edge test of MMCS,
    Murakami & Uno 2014).  So every leaf is a minimal transversal.
    """
    union = list(dict.fromkeys(e for f in families for e in f))
    budget.check_universe(len(union), what)
    if not all(families):
        return frozenset()
    index = {e: i for i, e in enumerate(union)}
    masks = {sum(1 << index[e] for e in f) for f in families}
    containing = [[m for m in masks if m >> i & 1] for i in range(len(union))]
    reach = [reduce(or_, ms) for ms in containing]
    found = []
    stack = [(0, 0, 0)]  # (next element, taken mask, left-out mask)
    while stack:
        i, taken, left = stack.pop()
        if i == len(union):
            found.append(frozenset(e for j, e in enumerate(union) if taken >> j & 1))
            continue
        bit = 1 << i
        if all(m & ~(left | bit) for m in containing[i]):
            stack.append((i + 1, taken, left | bit))
        grown = taken | bit
        rivals = taken & reach[i]  # taken elements that share a family with this one
        if any(m & taken == 0 for m in containing[i]) and all(
            any(m & grown == 1 << j for m in containing[j])
            for j in range(i)
            if rivals >> j & 1
        ):
            stack.append((i + 1, grown, left))
    return frozenset(found)


def is_conflict(
    litset: frozenset[Literal],
    db: Database,
    schema: Schema,
    constraints: Sequence[UniversalConstraint],
) -> bool:
    inst = Instance(db, schema, tuple(constraints))
    if not litset <= inst.literals:
        raise InputError("literal set is not contained in the literal universe")
    return litset in inst.conflicts


@dataclass(frozen=True)
class ConflictHypergraph:
    """Vertices are the literals occurring in some conflict; hyperedges are the
    conflicts.  Vertex order is canonical."""

    vertices: tuple[Literal, ...]
    hyperedges: tuple[Conflict, ...]

    @staticmethod
    def of(edges: Iterable[Conflict]) -> "ConflictHypergraph":
        vertices = sorted({l for e in edges for l in e}, key=literal_key)
        ordered_edges = sorted(edges, key=lambda e: sorted(map(literal_key, e)))
        return ConflictHypergraph(tuple(vertices), tuple(ordered_edges))


def conflict_hypergraph(
    db: Database, schema: Schema, constraints: Sequence[UniversalConstraint]
) -> ConflictHypergraph:
    return ConflictHypergraph.of(conflicts(db, schema, constraints))


def max_conflict_size(conflict_set: Iterable[Conflict]) -> int:
    return max((len(c) for c in conflict_set), default=0)

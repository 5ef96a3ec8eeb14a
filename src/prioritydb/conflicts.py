"""Conflicts: minimal literal sets whose joint truth forces a constraint violation.

The production path, ``Instance.conflicts``, closes the set of ground constraint
bodies under consensus (``prime_implicants``: single-clash resolution with
subsumption deletion) until only prime terms of the violation formula remain,
then keeps the terms that lie inside the literal universe.  An independent
path recovers the same sets as minimal hitting sets of the symmetric
differences between the database and its repairs; it serves as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DEFAULT_BUDGET, Budget, InputError
from .model import (
    Database,
    Instance,
    Literal,
    Schema,
    UniversalConstraint,
    antichain,
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
    out: set[Conflict] = set()
    for hitting in minimal_hitting_sets(diffs):
        out.add(
            frozenset(
                Literal(f, positive=f in db) for f in hitting
            )
        )
    return frozenset(out)


def minimal_hitting_sets(families: Sequence[frozenset]) -> frozenset[frozenset]:
    """All minimal sets intersecting every member of ``families``."""
    if any(len(f) == 0 for f in families):
        return frozenset()
    found: set[frozenset] = set()

    def extend(remaining: list[frozenset], chosen: frozenset) -> None:
        if any(c < chosen for c in found):
            return
        if not remaining:
            found.add(chosen)
            return
        target = min(remaining, key=len)
        for element in sorted(target):
            still = [s for s in remaining if element not in s]
            extend(still, chosen | {element})

    extend(list(families), frozenset())
    return frozenset(antichain(found))


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

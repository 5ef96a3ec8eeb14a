"""Conflicts: minimal literal sets whose joint truth forces a constraint violation.

``conflicts`` reads ``Instance.conflicts``: the minimal joined fact sets
under denial constraints, otherwise the consensus closure of the constraint
bodies (see ``model``).  ``prime_implicants`` over the full grounding recovers
the same sets, and so does the oracle ``oracles.conflicts_via_hitting_sets``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import InputError
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
    """Conflicts of the database w.r.t. the constraints (``Instance.conflicts``)."""
    return Instance(db, schema, tuple(constraints)).conflicts


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


class ConflictHypergraph(NamedTuple):
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

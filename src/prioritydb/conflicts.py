"""Conflicts: minimal literal sets whose joint truth forces a constraint violation.

``conflicts`` reads ``Instance.conflicts``: the minimal joined fact sets
under denial constraints, otherwise the consensus closure of the constraint
bodies (see ``model``).  Two test oracles recover the same sets:
``prime_implicants`` over the full grounding, and ``conflicts_via_hitting_sets``
from the differences between the database and its brute-force repairs.
``minimal_hitting_sets`` runs ``masks.minimal_transversals`` on sets of any
hashable elements.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import DEFAULT_BUDGET, Budget, InputError
from .masks import bits, minimal_transversals
from .model import (
    Database,
    Instance,
    Literal,
    Schema,
    UniversalConstraint,
    literal_key,
    prime_implicants,  # re-exported: the consensus closure behind Instance.conflicts
)
from .repairs import delta_repairs_bruteforce

Conflict = frozenset[Literal]


def conflicts(
    db: Database, schema: Schema, constraints: Sequence[UniversalConstraint]
) -> frozenset[Conflict]:
    """Conflicts of the database w.r.t. the constraints (``Instance.conflicts``)."""
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
    transversals, whose complements are the maximal independent sets.  The
    budget caps the families' union; ``masks.minimal_transversals`` runs on
    its elements numbered in order of first appearance."""
    union = list(dict.fromkeys(e for f in families for e in f))
    budget.check_universe(len(union), what)
    index = {e: i for i, e in enumerate(union)}
    found = minimal_transversals([sum(1 << index[e] for e in f) for f in families])
    return frozenset(frozenset(union[i] for i in bits(t)) for t in found)


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

"""Priority relations over conflict literals and the three optimal-repair notions.

A priority relation is an acyclic set of directed edges between literals that
share a conflict.  Improvements compare agreement sets: Pareto improvements
need one added literal outranking every sacrificed one, global improvements
need a witness per sacrificed literal, and completion-optimal repairs are
those optimal under some total extension of the priority.

Each ``PrioritizedDatabase`` decides the notions per part on one
``masks.MaskContext``.  ``optimal_repairs`` and ``lexicographic_repairs`` keep
the optimal restrictions of each part and build only their product.  The
definitions on literal sets, which the tests hold the filters to, are in
``oracles``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Optional

from .conflicts import Conflict
from .errors import DEFAULT_BUDGET, Budget, InputError
from .masks import ConflictMasks, MaskContext, optimality_check, unbeaten
from .model import (
    Database, Frozen, Instance, Literal, Schema, UniversalConstraint, cached, literal_key,
)
from .repairs import RepairSet, is_delta_repair_of

Edge = tuple[Literal, Literal]


class PriorityRelation(Frozen):
    """Directed edges (stronger, weaker) between co-conflicting literals.

    Dominance is edge membership; it is not transitively closed, since edges
    only relate literals that share a conflict.
    """

    def __init__(self, edges: frozenset[Edge] = frozenset()):
        self.__dict__.update(edges=edges)

    @staticmethod
    def of(pairs) -> "PriorityRelation":
        return PriorityRelation(frozenset((a, b) for a, b in pairs))

    def outranks(self, strong: Literal, weak: Literal) -> bool:
        return (strong, weak) in self.edges

    def covers(self, gained: Iterable[Literal], lost: Iterable[Literal]) -> bool:
        """Every lost literal is outranked by some gained one."""
        return all(any(self.outranks(mu, lam) for mu in gained) for lam in lost)

    def literals(self) -> frozenset[Literal]:
        return frozenset(l for e in self.edges for l in e)

    def find_cycle(self) -> Optional[tuple[Literal, ...]]:
        return self._cycle

    @cached
    def _cycle(self) -> Optional[tuple[Literal, ...]]:
        """One search serves ``validate_priority`` and the bridges."""
        succ: dict[Literal, list[Literal]] = {}
        for a, b in self.edges:
            succ.setdefault(a, []).append(b)
        return _depth_first(succ, succ)[1]

    def is_acyclic(self) -> bool:
        return self.find_cycle() is None


def _depth_first(
    succ: dict[Literal, Iterable[Literal]], roots: Iterable[Literal]
) -> tuple[list[Literal], Optional[tuple[Literal, ...]]]:
    """Iterative depth-first walk from each root in turn, taking roots and
    successors in ``literal_key`` order.  Returns the reached nodes in
    post-order and ``None``, or, on meeting a node of the current path, the
    nodes finished so far and that cycle with its first node repeated last."""

    def successors(node: Literal) -> Iterator[Literal]:
        return iter(sorted(succ.get(node, ()), key=literal_key))

    finished: dict[Literal, None] = {}
    for root in sorted(roots, key=literal_key):
        if root in finished:
            continue
        path = {root: successors(root)}  # each node with its unvisited successors
        while path:
            node, pending = next(reversed(path.items()))
            for nxt in pending:
                if nxt in path:
                    nodes = list(path)
                    return list(finished), tuple(nodes[nodes.index(nxt):]) + (nxt,)
                if nxt not in finished:
                    path[nxt] = successors(nxt)
                    break
            else:
                del path[node]
                finished[node] = None
    return list(finished), None


class ValidationReport(NamedTuple):
    ok: bool
    cycle: Optional[tuple[Literal, ...]] = None
    stray_edges: tuple[Edge, ...] = ()


def co_conflicting_pairs(conflict_set: frozenset[Conflict]) -> frozenset[frozenset[Literal]]:
    return frozenset(frozenset(pair) for edge in conflict_set for pair in combinations(edge, 2))


def validate_priority(
    priority: PriorityRelation, conflict_set: frozenset[Conflict]
) -> ValidationReport:
    """Diagnose acyclicity and the requirement that every edge joins literals
    sharing some conflict."""
    pairs = co_conflicting_pairs(conflict_set)
    stray = tuple(
        sorted(
            (e for e in priority.edges if frozenset(e) not in pairs),
            key=lambda e: (literal_key(e[0]), literal_key(e[1])),
        )
    )
    cycle = priority.find_cycle()
    return ValidationReport(ok=not stray and cycle is None, cycle=cycle, stray_edges=stray)


class PrioritizedDatabase(Frozen):
    """A prioritized instance.  It owns one ``Instance``, its
    ``conflict_masks`` (``masks.ConflictMasks``) and the ``mask_context`` on
    them (``masks.MaskContext``), each built on first use.  A copy made by
    ``with_priority`` shares the instance and the conflict masks, delta
    repairs included."""

    def __init__(self, db: Database, schema: Schema, constraints: tuple[UniversalConstraint, ...],
                 priority: PriorityRelation = PriorityRelation(), budget: Budget = DEFAULT_BUDGET):
        self.__dict__.update(db=db, schema=schema, constraints=constraints, priority=priority,
                             budget=budget)

    @cached
    def instance(self) -> Instance:
        return Instance(self.db, self.schema, self.constraints)

    @cached
    def conflict_masks(self) -> ConflictMasks:
        return ConflictMasks(self.instance, self.budget)

    @cached
    def mask_context(self) -> MaskContext:
        return MaskContext(self.conflict_masks, self.priority.edges)

    def with_priority(self, priority: PriorityRelation) -> "PrioritizedDatabase":
        copy = PrioritizedDatabase(self.db, self.schema, self.constraints, priority, self.budget)
        copy.__dict__.update(instance=self.instance, conflict_masks=self.conflict_masks)
        return copy

    def constants(self) -> frozenset[str]:
        return self.instance.constants

    def conflicts(self) -> frozenset[Conflict]:
        return self.instance.conflicts

    def literal_universe(self) -> frozenset[Literal]:
        return self.instance.literals

    def delta_repairs(self) -> RepairSet:
        return self.conflict_masks.repairs

    def agreement(self, candidate: Database) -> frozenset[Literal]:
        return self.instance.agreement(candidate)

    def restriction(self, litset: frozenset[Literal]) -> Database:
        return self.instance.restriction(litset)

    def validate(self) -> ValidationReport:
        return validate_priority(self.priority, self.conflicts())


def is_optimal_repair(repair: Database, pdb: PrioritizedDatabase, kind: str) -> bool:
    """Membership check for one repair; kind is 'pareto', 'global', or
    'completion' ('none' checks plain repair membership).  An unknown kind
    raises ``InputError`` whether or not the candidate is a repair."""
    check = optimality_check(kind)
    return is_delta_repair_of(pdb.instance, repair) and check(
        pdb.mask_context, pdb.conflict_masks.agreement(repair)
    )


def optimal_repairs(pdb: PrioritizedDatabase, kind: str) -> RepairSet:
    """The delta repairs that are optimal of the given kind, in canonical
    order: the product of the per-part optima (``MaskContext.optima``)."""
    ctx = pdb.mask_context
    return pdb.conflict_masks.repair_product(
        ctx.parts, ctx.optima(kind), "optimal repair product")


class ScoreStructure(NamedTuple):
    """Reliability levels inducing the priority: a literal outranks a
    co-conflicting one exactly when its score is higher.  ``levels`` lists the
    literals by descending score."""

    score: tuple[tuple[Literal, int], ...]
    levels: tuple[tuple[Literal, ...], ...]


def detect_score_structure(
    priority: PriorityRelation, conflict_set: frozenset[Conflict]
) -> Optional[ScoreStructure]:
    """Reconstruct reliability levels when they exist.

    Unordered co-conflicting pairs must share a level and ordered pairs must
    descend, so literals are merged along unordered pairs and the induced
    strict constraints must stay acyclic; levels then come from longest paths.
    """
    literals = sorted({l for e in conflict_set for l in e}, key=literal_key)
    parent: dict[Literal, Literal] = {l: l for l in literals}

    def find(x: Literal) -> Literal:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pair in co_conflicting_pairs(conflict_set):
        a, b = sorted(pair, key=literal_key)
        if not priority.outranks(a, b) and not priority.outranks(b, a):
            parent[find(b)] = find(a)
    strict: set[tuple[Literal, Literal]] = set()
    for a, b in priority.edges:
        if a not in parent or b not in parent:
            return None
        ra, rb = find(a), find(b)
        if ra == rb:
            return None
        strict.add((ra, rb))
    succ: dict[Literal, set[Literal]] = {}
    for a, b in strict:
        succ.setdefault(a, set()).add(b)
    order, cycle = _depth_first(succ, {find(l) for l in literals})
    if cycle is not None:
        return None
    depth: dict[Literal, int] = {}
    for node in order:  # successors first; the score strictly drops along edges
        depth[node] = max((depth[nxt] + 1 for nxt in succ.get(node, ())), default=0)
    return _score_structure({lit: depth[find(lit)] for lit in literals})


def score_structure_from_scores(
    scores: dict[Literal, int], conflict_set: frozenset[Conflict]
) -> tuple[ScoreStructure, PriorityRelation]:
    """Build the levels and induced priority from explicit scores; literals
    without a score default to 0."""
    literals = sorted({l for e in conflict_set for l in e}, key=literal_key)
    table = {l: scores.get(l, 0) for l in literals}
    edges = set()
    for pair in co_conflicting_pairs(conflict_set):
        a, b = sorted(pair, key=literal_key)
        if table[a] > table[b]:
            edges.add((a, b))
        elif table[b] > table[a]:
            edges.add((b, a))
    return _score_structure(table), PriorityRelation(frozenset(edges))


def _score_structure(table: dict[Literal, int]) -> ScoreStructure:
    """The structure of a literal-to-score table, levels by descending score."""
    by_level: dict[int, list[Literal]] = {}
    for lit, value in table.items():
        by_level.setdefault(value, []).append(lit)
    return ScoreStructure(
        tuple(sorted(table.items(), key=lambda kv: literal_key(kv[0]))),
        tuple(
            tuple(sorted(by_level[v], key=literal_key))
            for v in sorted(by_level, reverse=True)
        ),
    )


def lexicographic_repairs(
    pdb: PrioritizedDatabase, structure: Optional[ScoreStructure] = None
) -> RepairSet:
    """Level-lexicographic optima for score-structured priorities: no other
    repair agrees equally on all higher levels and strictly better on one.
    The order reads only the levels, so a repair is beaten exactly when its
    restriction to some conflict component is: the product of per-component
    optima."""
    if structure is None:
        structure = detect_score_structure(pdb.priority, pdb.conflicts())
    if structure is None:
        raise InputError("priority relation is not score-structured")
    masks = pdb.conflict_masks
    index = masks.index
    levels = [sum(1 << index[l] for l in level if l in index) for level in structure.levels]

    def beats(other: int, mine: int) -> bool:
        # at the first level where they differ, other excludes only what mine does
        for level in levels:
            if (mine ^ other) & level:
                return not other & ~mine & level
        return False

    return masks.repair_product(
        masks.parts, [unbeaten(excluded, beats) for _, excluded in masks.parts],
        "optimal repair product")

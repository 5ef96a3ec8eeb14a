"""Priority relations over conflict literals and the three optimal-repair notions.

A priority relation is an acyclic set of directed edges between literals that
share a conflict.  Improvements compare agreement sets: Pareto improvements
need one added literal outranking every sacrificed one, global improvements
need a witness per sacrificed literal, and completion-optimal repairs are
those optimal under some total extension of the priority.

The notions are decided on integer masks over the conflict vertices.  A delta
repair's agreement set is the literal universe minus one minimal transversal
of the conflicts, and these are the products of those of the conflict
components.  No conflict, priority edge, Pareto block or greedy replay
leaves a component that the conflicts and the priority edges join
(Staworko, Chomicki & Marcinkowski, AMAI 2012).  So each
``PrioritizedDatabase`` holds one mask context (shared by ``with_priority``
copies) that finds each component's transversals on its own, a lone
conflict's without search, joins components along priority edges only when
an edge crosses two (a validated priority never does), and keeps per
component and notion the optimal restrictions; ``optimal_repairs`` and
``lexicographic_repairs`` build and sort only their product.
``is_pareto_improvement``, ``is_global_improvement`` and
``completion_optimal_repairs_bruteforce`` follow the definitions on literal
sets; the tests hold the filters to them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations, product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .conflicts import Conflict, minimal_hitting_sets
from .errors import DEFAULT_BUDGET, Budget, BudgetExceededError, InputError
from .model import (
    Database, Fact, Instance, Literal, Schema, UniversalConstraint, by_predicate, literal_key
)
from .repairs import RepairSet, is_delta_repair_of, sorted_repair_set

Edge = tuple[Literal, Literal]


@dataclass(frozen=True)
class PriorityRelation:
    """Directed edges (stronger, weaker) between co-conflicting literals.

    Dominance is edge membership; it is not transitively closed, since edges
    only relate literals that share a conflict.
    """

    edges: frozenset[Edge] = frozenset()

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

    @cached_property
    def _cycle(self) -> Optional[tuple[Literal, ...]]:
        """Validation and the mask context share one search."""
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


@dataclass(frozen=True)
class ValidationReport:
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


@dataclass(frozen=True)
class PrioritizedDatabase:
    """A prioritized instance.  It owns one ``Instance`` and one mask context
    (``_masks``, see ``_MaskContext``), each built on first use.  A copy made
    by ``with_priority`` shares the instance and the priority-independent
    half of the context, delta repairs included."""

    db: Database
    schema: Schema
    constraints: tuple[UniversalConstraint, ...]
    priority: PriorityRelation = PriorityRelation()
    budget: Budget = DEFAULT_BUDGET

    @cached_property
    def instance(self) -> Instance:
        return Instance(self.db, self.schema, self.constraints)

    @cached_property
    def _conflict_masks(self) -> "_ConflictMasks":
        return _ConflictMasks(self.instance, self.budget)

    @cached_property
    def _masks(self) -> "_MaskContext":
        return _MaskContext(self._conflict_masks, self.priority)

    def with_priority(self, priority: PriorityRelation) -> "PrioritizedDatabase":
        copy = replace(self, priority=priority)
        copy.__dict__["instance"] = self.instance
        copy.__dict__["_conflict_masks"] = self._conflict_masks
        return copy

    def constants(self) -> frozenset[str]:
        return self.instance.constants

    def conflicts(self) -> frozenset[Conflict]:
        return self.instance.conflicts

    def literal_universe(self) -> frozenset[Literal]:
        return self.instance.literals

    def delta_repairs(self) -> RepairSet:
        return self._conflict_masks.repairs

    def agreement(self, candidate: Database) -> frozenset[Literal]:
        return self.instance.agreement(candidate)

    def restriction(self, litset: frozenset[Literal]) -> Database:
        return self.instance.restriction(litset)

    def validate(self) -> ValidationReport:
        return validate_priority(self.priority, self.conflicts())


def is_pareto_improvement(
    better: Database, repair: Database, pdb: PrioritizedDatabase
) -> bool:
    """True when ``better`` is consistent and one of its newly kept literals
    outranks every literal sacrificed from ``repair``'s agreement set."""
    if not pdb.instance.consistent(better):
        return False
    mine = pdb.agreement(better)
    theirs = pdb.agreement(repair)
    gained = mine - theirs
    lost = theirs - mine
    return any(
        all(pdb.priority.outranks(mu, lam) for lam in lost) for mu in gained
    )


def is_global_improvement(
    better: Database, repair: Database, pdb: PrioritizedDatabase
) -> bool:
    """True when ``better`` is consistent, differs in agreement, and every
    sacrificed literal is outranked by some newly kept one."""
    if not pdb.instance.consistent(better):
        return False
    mine = pdb.agreement(better)
    theirs = pdb.agreement(repair)
    return mine != theirs and pdb.priority.covers(mine - theirs, theirs - mine)


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _join(links: Iterable[int]) -> list[int]:
    """The unions of the links that share a bit, transitively, ascending.  A
    zero link stays a group of its own."""
    groups: list[int] = []
    for link in links:
        for group in [g for g in groups if g & link]:
            groups.remove(group)
            link |= group
        groups.append(link)
    return sorted(groups)


class _ConflictMasks:
    """The priority-independent half of the mask context.  Bit ``i`` stands
    for the ``i``-th conflict vertex in ``literal_key`` order; a delta
    repair's agreement set holds every other literal of the universe.  The
    whole list of delta repairs is built only for ``delta_repairs()``."""

    def __init__(self, instance: Instance, budget: Budget):
        self.instance = instance
        self.budget = budget

    @cached_property
    def index(self) -> dict[Literal, int]:
        vertices = {l for c in self.instance.conflicts for l in c}
        return {l: i for i, l in enumerate(sorted(vertices, key=literal_key))}

    @cached_property
    def full(self) -> int:
        return (1 << len(self.index)) - 1

    @cached_property
    def conflicts(self) -> tuple[int, ...]:
        return tuple(sum(1 << self.index[l] for l in c) for c in self.instance.conflicts)

    @cached_property
    def witnesses(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, every conflict holding it with it removed, ordered by
        their members' bits (the ``literal_key`` order of their members)."""
        found: list[list[int]] = [[] for _ in self.index]
        for conflict in self.conflicts:
            for i in _bits(conflict):
                found[i].append(conflict & ~(1 << i))
        return tuple(tuple(sorted(ws, key=lambda w: list(_bits(w)))) for ws in found)

    @cached_property
    def _owner(self) -> dict[int, int]:
        """Each conflict vertex's component mask, by bit."""
        return {i: comp for comp in _join(self.conflicts) for i in _bits(comp)}

    @cached_property
    def parts(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per connected component of the conflicts, its vertex mask and the
        masks of its minimal transversals; the budget caps each component's
        vertices.  Those of a lone conflict (conflicts form an antichain, so
        no other fits in its component) are its members, one each; larger
        components go to ``minimal_hitting_sets``.  An empty conflict has no
        transversal, so then the one part is ``(0, ())``."""
        if 0 in self.conflicts:
            return ((0, ()),)
        members: dict[int, list[int]] = {}
        for c in self.conflicts:
            members.setdefault(self._owner[(c & -c).bit_length() - 1], []).append(c)
        out = []
        for comp, edges in sorted(members.items()):
            self.budget.check_universe(comp.bit_count(), "conflict literal set")
            if len(edges) == 1:
                out.append((comp, tuple(1 << i for i in _bits(comp))))
            else:
                found = minimal_hitting_sets(
                    [frozenset(_bits(c)) for c in edges], self.budget, "conflict literal set")
                out.append((comp, tuple(sorted(sum(1 << i for i in t) for t in found))))
        return tuple(out)

    def joined(self, links: Iterable[int]) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per group that the links join the conflict components into, its
        vertex mask and the delta repairs' restrictions to it, each as the
        mask of the vertices it excludes: the products of the transversals
        of the components inside it, whose vertices the budget caps.  Links
        inside components, as validated priority edges are, leave ``parts``."""
        links = list(links)
        owner = self._owner  # a link off the conflicts meets 0
        if not any(l & ~owner.get((l & -l).bit_length() - 1, 0) for l in links):
            return self.parts
        out = []
        for group in _join([comp for comp, _ in self.parts] + links):
            # the part of an empty conflict, 0, lies in every group
            members = [ts for comp, ts in self.parts if comp | group == group]
            if members:
                comp = group & self.full
                self.budget.check_universe(comp.bit_count(), "conflict literal set")
                out.append((comp, tuple(sum(pick) for pick in product(*members))))
        return tuple(out)

    @cached_property
    def facts(self) -> tuple[Fact, ...]:
        """The fact of each vertex, by bit."""
        return tuple(l.fact for l in self.index)

    @cached_property
    def _fact_bits(self) -> dict[Fact, int]:
        return {l.fact: 1 << i for l, i in self.index.items()}

    @cached_property
    def absent(self) -> int:
        """The vertices whose facts are outside the database."""
        return sum(1 << i for l, i in self.index.items() if not l.positive)

    @cached_property
    def pool(self) -> dict[str, list[Fact]]:
        """The database and the vertex facts, by predicate: every delta
        repair lies inside them.  Only the absent vertices' facts are added
        to the instance's own index."""
        index = self.instance.db_by_predicate
        added = by_predicate(self.facts[i] for i in _bits(self.absent))
        return {**index, **{p: index.get(p, []) + fs for p, fs in added.items()}}

    def agreement(self, repair: Database) -> int:
        """The agreement mask of a delta repair: the vertices whose facts it
        does not toggle."""
        return self.full & ~sum(self._fact_bits[f] for f in repair ^ self.instance.db)

    @cached_property
    def repairs(self) -> RepairSet:
        """Every delta repair, so the budget caps the whole vertex set."""
        self.budget.check_universe(len(self.index), "conflict literal set")
        return repair_product(self.instance.db, self.facts, [ts for _, ts in self.parts])


def _unbeaten(
    excluded: tuple[int, ...], beats: Callable[[int, int], bool]
) -> tuple[int, ...]:
    """The excluded-vertex masks of one part that no other mask of it beats;
    ``beats(other, mine)`` compares two of them."""
    return tuple(
        mine
        for mine in excluded
        if not any(other != mine and beats(other, mine) for other in excluded)
    )


class _MaskContext:
    """The three optimality notions of one ``PrioritizedDatabase``, on the
    vertex masks of ``_ConflictMasks``.

    Its nodes are the conflict vertices, on their bits, then the priority
    endpoints outside them in ``literal_key`` order.  ``dom[i]`` masks the
    nodes that node ``i`` outranks and ``beaten_by[i]`` those that outrank
    it.  ``parts`` joins the conflict components along the priority edges.
    No conflict, witness, dominance edge or greedy replay leaves such a
    part, so a delta repair is optimal of a kind exactly when its
    restriction to every part is; ``optima`` keeps, per kind and for as long
    as the context lives, the restrictions that are."""

    def __init__(self, masks: _ConflictMasks, priority: PriorityRelation):
        self.masks = masks
        index = dict(masks.index)
        for lit in sorted(priority.literals() - index.keys(), key=literal_key):
            index[lit] = len(index)
        self.dom = [0] * len(index)
        self.beaten_by = [0] * len(index)
        for strong, weak in priority.edges:
            self.dom[index[strong]] |= 1 << index[weak]
            self.beaten_by[index[weak]] |= 1 << index[strong]
        self.acyclic = priority.is_acyclic()
        self._optima: dict[str, tuple[tuple[int, ...], ...]] = {}

    def is_pareto_optimal(self, agree: int) -> bool:
        """A Pareto improvement exists exactly when some excluded vertex can be
        kept after dropping every node it outranks without completing a
        conflict; since the repair completes none, that conflict holds the
        vertex.  Check that every excluded vertex is blocked so."""
        for i in _bits(self.masks.full & ~agree):
            bit = 1 << i
            keep = (agree | bit) & ~self.dom[i]
            if not any((w | bit) & ~keep == 0 for w in self.masks.witnesses[i]):
                return False
        return True

    @cached_property
    def parts(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``_ConflictMasks.joined`` along the priority edges."""
        return self.masks.joined(d | 1 << i for i, d in enumerate(self.dom) if d)

    @cached_property
    def part_of(self) -> tuple[int, ...]:
        """Each conflict vertex's position in ``parts``, by bit."""
        out = [0] * len(self.masks.index)
        for p, (comp, _) in enumerate(self.parts):
            for i in _bits(comp):
                out[i] = p
        return tuple(out)

    def _improves(self, other: int, mine: int) -> bool:
        """Each vertex that restriction ``other`` sacrifices is outranked by
        one it newly keeps."""
        return all(self.beaten_by[i] & mine & ~other for i in _bits(other & ~mine))

    def optima(self, kind: str) -> tuple[tuple[int, ...], ...]:
        """Per part, the excluded-vertex masks of the restrictions that are
        optimal of the given kind, computed once per kind.  Pareto runs the
        whole-repair check on a repair that excludes only that part's
        vertices, and completion replays each restriction on the part's
        nodes.  Global keeps the restrictions that no other one improves,
        since a repair is improved exactly when its restriction to some part
        is (swap in that part of the improving repair).  An unknown kind
        raises before anything is computed."""
        found = self._optima.get(kind)
        if found is not None:
            return found
        if kind == "global":
            keep = lambda p, excluded: _unbeaten(excluded, self._improves)
        elif kind == "completion":
            keep = lambda p, excluded: tuple(
                t for t in excluded if self._replays(self.part_nodes[p], t)
            )
        else:
            check, full = _optimality_check(kind), self.masks.full
            keep = lambda p, excluded: tuple(t for t in excluded if check(self, full & ~t))
        found = self._optima[kind] = tuple(
            keep(p, excluded) for p, (_, excluded) in enumerate(self.parts)
        )
        return found

    def is_globally_optimal(self, agree: int) -> bool:
        """No other delta repair globally improves this one: its restriction
        to every part is globally optimal there."""
        excluded = self.masks.full & ~agree
        return all(
            (excluded & comp) in optimal
            for (comp, _), optimal in zip(self.parts, self.optima("global"))
        )

    def is_completion_optimal(self, agree: int) -> bool:
        """``_replays`` over every node."""
        return self._replays((1 << len(self.dom)) - 1, self.masks.full & ~agree)

    @cached_property
    def part_nodes(self) -> tuple[int, ...]:
        """Per part, its vertices and the priority endpoints off the
        conflicts that edges join to them."""
        out = []
        for comp, _ in self.parts:
            nodes = todo = comp
            while todo:
                i = (todo & -todo).bit_length() - 1
                todo ^= 1 << i
                step = (self.dom[i] | self.beaten_by[i]) & ~nodes
                nodes |= step
                todo |= step
            out.append(nodes)
        return tuple(out)

    def _replays(self, nodes: int, excluded: int) -> bool:
        """The greedy construction replays the repair that excludes
        ``excluded`` on ``nodes`` (Staworko, Chomicki & Marcinkowski, AMAI
        2012): each round takes the undecided nodes that no undecided node
        outranks, keeps those the repair keeps (nodes off the conflicts
        always) and drops the excluded ones that complete a conflict with the
        kept ones; a round that decides nothing fails.  Under a cyclic
        priority only a repair that excludes nothing passes."""
        if not self.acyclic:
            return not excluded
        witnesses = self.masks.witnesses
        kept, left = 0, nodes
        while left:
            ready = sum(1 << i for i in _bits(left) if not self.beaten_by[i] & left)
            kept |= ready & ~excluded
            drop = sum(
                1 << i for i in _bits(ready & excluded)
                if any(not w & ~kept for w in witnesses[i])
            )
            if not ready & ~excluded | drop:
                return False
            left &= ~(ready & ~excluded | drop)
        return True


def _optimality_check(kind: str) -> Callable[[_MaskContext, int], bool]:
    """The check, on a mask context and a delta repair's agreement mask, that
    the repair is optimal of the given kind; 'none' and 'delta' accept every
    repair.  An unknown kind raises."""
    if kind in ("none", "delta"):
        return lambda ctx, agree: True
    checks = {
        "pareto": _MaskContext.is_pareto_optimal,
        "global": _MaskContext.is_globally_optimal,
        "completion": _MaskContext.is_completion_optimal,
    }
    if kind not in checks:
        raise InputError(f"unknown optimality kind: {kind}")
    return checks[kind]


def is_optimal_repair(
    repair: Database, pdb: PrioritizedDatabase, kind: str
) -> bool:
    """Membership check for one repair; kind is 'pareto', 'global', or
    'completion' ('none' checks plain repair membership).  An unknown kind
    raises ``InputError`` whether or not the candidate is a repair."""
    check = _optimality_check(kind)
    return is_delta_repair_of(pdb.instance, repair) and check(
        pdb._masks, pdb._conflict_masks.agreement(repair)
    )


def optimal_repairs(pdb: PrioritizedDatabase, kind: str) -> RepairSet:
    """The delta repairs that are optimal of the given kind, in canonical
    order: the product of the per-part optima (``_MaskContext.optima``)."""
    return _optimum_product(pdb, pdb._masks.parts, pdb._masks.optima(kind))


def _optimum_product(
    pdb: PrioritizedDatabase, parts: Sequence[tuple[int, tuple[int, ...]]],
    optima: Sequence[Sequence[int]],
) -> RepairSet:
    """``repair_product`` of the optima of the given parts.  The budget caps
    the vertices of the parts with more than one optimum before any repair
    is built."""
    if all(optima):
        pdb.budget.check_universe(
            sum(comp.bit_count() for (comp, _), opt in zip(parts, optima) if len(opt) > 1),
            "optimal repair product",
        )
    return repair_product(pdb.db, pdb._conflict_masks.facts, optima)


def repair_product(
    db: Database, facts: Sequence[Fact], choices: Sequence[Sequence[int]]
) -> RepairSet:
    """The databases that toggle, per part, the facts (``facts`` by bit) of
    one of its excluded-vertex masks, in canonical order.  Parts with one
    choice are folded into a fixed base first, so only the free product is
    built; a part with no choice leaves no database."""
    if not all(choices):
        return RepairSet("delta", ())
    fixed = 0
    free = []
    for masks in choices:
        if len(masks) == 1:
            fixed |= masks[0]
        else:
            free.append([[facts[i] for i in _bits(t)] for t in masks])
    base = db ^ {facts[i] for i in _bits(fixed)}
    return sorted_repair_set(
        "delta", (base.symmetric_difference(chain(*pick)) for pick in product(*free))
    )


def greedy_optimal_repair(
    pdb: PrioritizedDatabase, tiebreak: Sequence[Literal] = ()
) -> Database:
    """Build a completion-optimal repair greedily: repeatedly take a literal
    that no unconsidered literal outranks directly and keep it unless it
    completes a conflict.  ``tiebreak`` literals are preferred, in order, over
    the canonical order."""
    lits = pdb.literal_universe()
    conflict_set = pdb.conflicts()
    rank = {lit: i for i, lit in enumerate(tiebreak)}

    def sort_key(lit: Literal):
        return (rank.get(lit, len(rank)), literal_key(lit))

    pending = set(lits)
    chosen: set[Literal] = set()
    while pending:
        candidates = [
            lit
            for lit in pending
            if not any(
                pdb.priority.outranks(other, lit)
                for other in pending
                if other != lit
            )
        ]
        if not candidates:
            raise InputError("priority relation is cyclic")
        lit = min(candidates, key=sort_key)
        pending.remove(lit)
        if not any(e <= chosen | {lit} for e in conflict_set):
            chosen.add(lit)
    return pdb.restriction(frozenset(chosen))


def completions(
    priority: PriorityRelation,
    conflict_set: frozenset[Conflict],
    budget: Budget = DEFAULT_BUDGET,
) -> Iterator[PriorityRelation]:
    """Every acyclic orientation of the co-conflicting pairs that extends the
    given priority."""
    undirected = []
    for pair in sorted(
        co_conflicting_pairs(conflict_set),
        key=lambda p: sorted(map(literal_key, p)),
    ):
        a, b = sorted(pair, key=literal_key)
        if (a, b) in priority.edges or (b, a) in priority.edges:
            continue
        undirected.append((a, b))
    if 2 ** len(undirected) > budget.max_completions:
        raise BudgetExceededError(
            f"{2 ** len(undirected)} orientations exceed the completion cap"
        )
    for choice in product((0, 1), repeat=len(undirected)):
        edges = set(priority.edges)
        for flip, (a, b) in zip(choice, undirected):
            edges.add((b, a) if flip else (a, b))
        candidate = PriorityRelation(frozenset(edges))
        if candidate.is_acyclic():
            yield candidate


def completion_optimal_repairs_bruteforce(pdb: PrioritizedDatabase) -> RepairSet:
    """Oracle path: a repair is completion-optimal exactly when it is the
    single optimum under some total extension, which the greedy construction
    produces."""
    out = set()
    for total in completions(pdb.priority, pdb.conflicts(), pdb.budget):
        out.add(greedy_optimal_repair(pdb.with_priority(total)))
    return sorted_repair_set("delta", out)


@dataclass(frozen=True)
class ScoreStructure:
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
    index = pdb._conflict_masks.index
    levels = [sum(1 << index[l] for l in level if l in index) for level in structure.levels]

    def beats(other: int, mine: int) -> bool:
        # at the first level where they differ, other excludes only what mine does
        for level in levels:
            if (mine ^ other) & level:
                return not other & ~mine & level
        return False

    parts = pdb._conflict_masks.parts
    return _optimum_product(pdb, parts, [_unbeaten(excluded, beats) for _, excluded in parts])

"""The integer layer: conflict vertices, repairs and ground active rules as bit masks.

Bit ``i`` of a vertex mask stands for the ``i``-th conflict vertex (a literal
of some conflict) in ``literal_key`` order; its witnesses come in no promised
order.  A delta repair's agreement set is the literal universe minus one
minimal transversal of the conflicts, so the repair is named by the mask of
the vertices it excludes, whose facts it toggles.  A part is a conflict
component, or a group of components that links join, with its vertex mask
and the excluded-vertex masks of the delta repairs' restrictions to it.  A
set of repairs is a product of per-part choices, capped by
``ConflictMasks.check_product`` whether it is listed
(``ConflictMasks.repair_product``) or only counted.  ``MaskContext`` decides
the three optimality notions on these masks.

This is the prioritized side's integer layer alone: the rule side's rows of
ground active rules are in ``aic``.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, product
from operator import or_
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import Budget, InputError
from .model import (
    Database, Fact, Instance, Literal, RepairSet, by_predicate, cached, literal_key,
)

# The r-update support classes by flag bit, bit ``k`` for the ``k``-th
# (``aic.RuleMasks.classify``); here, so that ``cli`` names them without
# running ``aic``.
R_UPDATE_CLASSES = ("founded", "wellfounded", "grounded", "justified")


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def join(links: Iterable[int]) -> list[int]:
    """The unions of the links that share a bit, transitively, ascending.  A
    zero link stays a group of its own."""
    groups = []
    for link in links:
        for group in [g for g in groups if g & link]:
            groups.remove(group)
            link |= group
        groups.append(link)
    return sorted(groups)


def minimal_transversals(edges: Sequence[int]) -> list[int]:
    """The masks of all minimal sets meeting every edge mask: the minimal
    transversals, whose complements are the maximal independent sets.

    Decides each vertex of the edges' union in ascending order.  A vertex is
    left out only while no edge would then lie wholly among the left-out
    vertices, and taken only while every taken vertex still meets some edge
    alone (the critical-edge test of MMCS, Murakami & Uno 2014).  So every
    leaf is a minimal transversal.  An empty edge has none, and a lone edge's
    are its members, one each.
    """
    if 0 in edges:
        return []
    if len(edges) == 1:
        return [1 << i for i in bits(edges[0])]
    order = list(bits(reduce(or_, edges, 0)))
    containing = {i: [e for e in edges if e >> i & 1] for i in order}
    reach = {i: reduce(or_, es) for i, es in containing.items()}
    found = []
    stack = [(0, 0, 0)]  # (position in order, taken mask, left-out mask)
    while stack:
        k, taken, left = stack.pop()
        if k == len(order):
            found.append(taken)
            continue
        i = order[k]
        bit = 1 << i
        if all(e & ~(left | bit) for e in containing[i]):
            stack.append((k + 1, taken, left | bit))
        grown = taken | bit
        # taken vertices that share an edge with this one keep an edge alone
        if any(not e & taken for e in containing[i]) and all(
            any(e & grown == 1 << j for e in containing[j]) for j in bits(taken & reach[i])
        ):
            stack.append((k + 1, grown, left))
    return found


class ConflictMasks:
    """The conflict vertices of one instance and the delta repairs'
    restrictions to its parts.  ``witnesses`` lists per vertex the conflicts
    on it, less it, in no promised order.  The whole list of delta repairs
    is built only for ``repairs``."""

    def __init__(self, instance: Instance, budget: Budget):
        self.__dict__.update(instance=instance, budget=budget)

    @cached
    def index(self) -> dict[Literal, int]:
        """Each vertex's bit, in ``literal_key`` order: positives, then negatives."""
        vertices = set().union(*self.instance.conflicts)
        order = sorted([l for l in vertices if l.positive])
        order += sorted([l for l in vertices if not l.positive])
        return dict(zip(order, range(len(order))))

    @cached
    def full(self) -> int:
        return (1 << len(self.index)) - 1

    @cached
    def conflicts(self) -> tuple[int, ...]:
        return tuple([sum([1 << self.index[l] for l in c]) for c in self.instance.conflicts])

    @cached
    def witnesses(self) -> tuple[tuple[int, ...], ...]:
        found = [[] for _ in self.index]
        for conflict in self.conflicts:
            for i in bits(conflict):
                found[i].append(conflict & ~(1 << i))
        return tuple(map(tuple, found))

    @cached
    def _owner(self) -> dict[int, int]:
        """Each conflict vertex's component mask, by bit."""
        return {i: comp for comp in join(self.conflicts) for i in bits(comp)}

    @cached
    def parts(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per connected component of the conflicts, its vertex mask and the
        masks of its minimal transversals; the budget caps each component's
        vertices.  A lone conflict fills its component, since conflicts form
        an antichain.  An empty conflict has no transversal, so then the one
        part is ``(0, ())``."""
        if 0 in self.conflicts:
            return ((0, ()),)
        members = {}
        for c in self.conflicts:
            members.setdefault(self._owner[(c & -c).bit_length() - 1], []).append(c)
        out = []
        for comp, edges in sorted(members.items()):
            self.budget.check_universe(comp.bit_count(), "conflict literal set")
            out.append((comp, tuple(sorted(minimal_transversals(edges)))))
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
        for group in join([comp for comp, _ in self.parts] + links):
            # the part of an empty conflict, 0, lies in every group
            members = [ts for comp, ts in self.parts if comp | group == group]
            if members:
                comp = group & self.full
                self.budget.check_universe(comp.bit_count(), "conflict literal set")
                out.append((comp, tuple(sum(pick) for pick in product(*members))))
        return tuple(out)

    @cached
    def facts(self) -> tuple[Fact, ...]:
        """The fact of each vertex, by bit."""
        return tuple(l.fact for l in self.index)

    @cached
    def fact_bits(self) -> dict[Fact, int]:
        """Each vertex fact's bit mask."""
        return {l.fact: 1 << i for l, i in self.index.items()}

    @cached
    def absent(self) -> int:
        """The vertices whose facts are outside the database."""
        return sum(1 << i for l, i in self.index.items() if not l.positive)

    @cached
    def pool(self) -> dict[str, list[Fact]]:
        """The database and the vertex facts, by predicate: every delta
        repair lies inside them.  Only the absent vertices' facts are added
        to the instance's own index."""
        index = self.instance.db_by_predicate
        added = by_predicate(self.facts[i] for i in bits(self.absent))
        return {**index, **{p: index.get(p, []) + fs for p, fs in added.items()}}

    def agreement(self, repair: Database) -> int:
        """The agreement mask of a delta repair: the vertices whose facts it
        does not toggle."""
        return self.full & ~sum(self.fact_bits[f] for f in repair ^ self.instance.db)

    @cached
    def repairs(self) -> RepairSet:
        """Every delta repair.  Every one is listed, so the budget caps the
        whole vertex set before any component's transversals are sought."""
        self.budget.check_universe(len(self.index), "conflict literal set")
        return self.repair_product(self.parts, [ts for _, ts in self.parts],
                                   "conflict literal set")

    def check_product(self, parts: Sequence[tuple[int, object]],
                      choices: Sequence[Sequence[int]], what: str) -> None:
        """Cap as stage ``what`` the vertices of the parts ``(vertex mask, …)``
        with more than one choice, unless a part has none."""
        if all(choices):
            self.budget.check_universe(
                sum(comp.bit_count() for (comp, _), ts in zip(parts, choices) if len(ts) > 1),
                what)

    def repair_product(self, parts: Sequence[tuple[int, object]],
                       choices: Sequence[Sequence[int]], what: str) -> RepairSet:
        """The databases that toggle, per part ``(vertex mask, …)``, the vertex
        facts of one of its distinct excluded-vertex masks in ``choices``, in
        canonical order, once ``check_product`` passes; parts with one choice
        form a fixed base, and the others' facts order equal sizes."""
        self.check_product(parts, choices, what)
        if not all(choices):
            return RepairSet("delta", ())
        facts, fixed, free = self.facts, 0, []
        for masks in choices:
            if len(masks) == 1:
                fixed |= masks[0]
            else:
                free.append([[facts[i] for i in bits(t)] for t in masks])
        base = self.instance.db ^ {facts[i] for i in bits(fixed)}
        out = [base.symmetric_difference(chain(*pick)) for pick in product(*free)]
        loose = frozenset(chain(*chain(*free)))
        out.sort(key=lambda r: (len(r), sorted(r & loose)))
        return RepairSet("delta", tuple(out))


def unbeaten(excluded: tuple[int, ...], beats: Callable[[int, int], bool]) -> tuple[int, ...]:
    """The excluded-vertex masks of one part that no other mask of it beats;
    ``beats(other, mine)`` compares two of them."""
    return tuple(mine for mine in excluded
                 if not any(other != mine and beats(other, mine) for other in excluded))


class MaskContext:
    """The three optimality notions of one prioritized instance, on the
    vertex masks of its ``ConflictMasks``.

    Its nodes are the conflict vertices, on their bits, then the priority
    endpoints outside them in ``literal_key`` order.  ``dom[i]`` masks the
    nodes that node ``i`` outranks and ``beaten_by[i]`` those that outrank
    it.  ``parts`` joins the conflict components along the priority edges.
    No conflict, witness, dominance edge or greedy replay leaves such a
    part (Staworko, Chomicki & Marcinkowski, AMAI 2012), so a delta repair is
    optimal of a kind exactly when its restriction to every part is;
    ``optima`` keeps, per kind and for as long as the context lives, the
    restrictions that are."""

    def __init__(self, masks: ConflictMasks, edges: Collection[tuple[Literal, Literal]]):
        index = masks.index
        off = set().union(*edges).difference(index)
        if off:
            index = dict(index)
            for lit in sorted(off, key=literal_key):
                index[lit] = len(index)
        dom, beaten_by = [0] * len(index), [0] * len(index)
        for strong, weak in edges:
            dom[index[strong]] |= 1 << index[weak]
            beaten_by[index[weak]] |= 1 << index[strong]
        self.__dict__.update(masks=masks, dom=dom, beaten_by=beaten_by, _optima={})

    def is_pareto_optimal(self, agree: int) -> bool:
        """A Pareto improvement exists exactly when some excluded vertex can be
        kept after dropping every node it outranks without completing a
        conflict; since the repair completes none, that conflict holds the
        vertex.  Check that every excluded vertex is blocked so.  The vertex
        is kept even when it outranks itself."""
        dom, witnesses, excluded = self.dom, self.masks.witnesses, self.masks.full & ~agree
        while excluded:
            i = (excluded & -excluded).bit_length() - 1
            excluded ^= 1 << i
            keep = agree & ~dom[i]
            for w in witnesses[i]:
                if not w & ~keep:
                    break
            else:
                return False
        return True

    @cached
    def parts(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``ConflictMasks.joined`` along the priority edges."""
        return self.masks.joined(d | 1 << i for i, d in enumerate(self.dom) if d)

    @cached
    def part_of(self) -> tuple[int, ...]:
        """Each conflict vertex's position in ``parts``, by bit."""
        out = [0] * len(self.masks.index)
        for p, (comp, _) in enumerate(self.parts):
            for i in bits(comp):
                out[i] = p
        return tuple(out)

    def _improves(self, other: int, mine: int) -> bool:
        """Each vertex that restriction ``other`` sacrifices is outranked by
        one it newly keeps."""
        return all(self.beaten_by[i] & mine & ~other for i in bits(other & ~mine))

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
        if found is None:
            if kind == "global":
                keep = [unbeaten(excluded, self._improves) for _, excluded in self.parts]
            elif kind == "completion":
                keep = [tuple([t for t in excluded if self._replays(nodes, t)])
                        for (_, excluded), nodes in zip(self.parts, self.part_nodes)]
            else:
                check, full = optimality_check(kind), self.masks.full
                keep = [tuple([t for t in excluded if check(self, full & ~t)])
                        for _, excluded in self.parts]
            found = self._optima[kind] = tuple(keep)
        return found

    def is_globally_optimal(self, agree: int) -> bool:
        """No other delta repair globally improves this one: its restriction
        to every part is globally optimal there."""
        excluded = self.masks.full & ~agree
        return all((excluded & comp) in optimal
                   for (comp, _), optimal in zip(self.parts, self.optima("global")))

    def is_completion_optimal(self, agree: int) -> bool:
        """``_replays`` over every node."""
        return self._replays((1 << len(self.dom)) - 1, self.masks.full & ~agree)

    @cached
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

    @cached
    def acyclic(self) -> bool:
        """The priority has no cycle, a self-loop included: ``_rounds``
        decides every node of the repair that excludes nothing.  Only
        completion reads it."""
        return self._rounds((1 << len(self.dom)) - 1, 0)

    def _replays(self, nodes: int, excluded: int) -> bool:
        """The greedy construction replays the repair that excludes
        ``excluded`` on ``nodes`` (Staworko, Chomicki & Marcinkowski, AMAI
        2012).  Under a cyclic priority only a repair that excludes nothing
        passes."""
        return self._rounds(nodes, excluded) if self.acyclic else not excluded

    def _rounds(self, nodes: int, excluded: int) -> bool:
        """Each round takes the undecided nodes that no undecided node
        outranks, keeps those the repair keeps (nodes off the conflicts
        always) and drops the excluded ones that complete a conflict with the
        kept ones; a round that decides nothing fails."""
        witnesses = self.masks.witnesses
        kept, left = 0, nodes
        while left:
            ready = sum(1 << i for i in bits(left) if not self.beaten_by[i] & left)
            kept |= ready & ~excluded
            drop = sum(1 << i for i in bits(ready & excluded)
                       if any(not w & ~kept for w in witnesses[i]))
            if not ready & ~excluded | drop:
                return False
            left &= ~(ready & ~excluded | drop)
        return True


def optimality_check(kind: str) -> Callable[[MaskContext, int], bool]:
    """The check, on a mask context and a delta repair's agreement mask, that
    the repair is optimal of the given kind; 'none' and 'delta' accept every
    repair.  An unknown kind raises."""
    if kind in ("none", "delta"):
        return lambda ctx, agree: True
    checks = {"pareto": MaskContext.is_pareto_optimal, "global": MaskContext.is_globally_optimal,
              "completion": MaskContext.is_completion_optimal}
    if kind not in checks:
        raise InputError(f"unknown optimality kind: {kind}")
    return checks[kind]

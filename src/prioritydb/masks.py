"""The integer layer: conflict vertices, repairs and ground active rules as bit masks.

Bit ``i`` of a vertex mask stands for the ``i``-th conflict vertex (a literal
of some conflict) in ``literal_key`` order.  A delta repair's agreement set is
the literal universe minus one minimal transversal of the conflicts, so the
repair is named by the mask of the vertices it excludes, whose facts it
toggles.  A part is a conflict component, or a group of components that
links join, with its vertex mask and the excluded-vertex masks of the delta
repairs' restrictions to it.  A set of repairs is a product of per-part
choices, capped by ``ConflictMasks.check_product`` whether it is listed
(``ConflictMasks.repair_product``) or only counted.

A ground active rule is a ``(pos, neg, add, rem)`` row of the fact masks of
its positive and negative body literals and of the facts it adds and
removes (``rule_rows``; ``MaskContext.rule_rows`` for the translated
priority).  An update is the pair ``(added, removed)`` of fact masks, so the
restriction that excludes ``t`` is the update ``(t & absent, t & ~absent)``.
``RuleMasks.classify`` returns an update's support classes as flag bits, bit
``k`` for ``R_UPDATE_CLASSES[k]``.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain, product
from operator import or_
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .errors import Budget, InputError
from .model import (
    Database, Fact, Instance, Literal, RepairSet, by_predicate, literal_key,
    sorted_repair_set,
)

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
    groups: list[int] = []
    for link in links:
        for group in [g for g in groups if g & link]:
            groups.remove(group)
            link |= group
        groups.append(link)
    return sorted(groups)


def consistent_mask(mask: int, bodies) -> bool:
    """No ``(pos, neg)`` body is matched by ``mask``: none has every fact of
    ``pos`` in ``mask`` and every fact of ``neg`` outside it."""
    return not any((mask & pos) == pos and (mask & neg) == 0 for pos, neg in bodies)


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
    restrictions to its parts.  The whole list of delta repairs is built
    only for ``repairs``."""

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
            for i in bits(conflict):
                found[i].append(conflict & ~(1 << i))
        return tuple(tuple(sorted(ws, key=lambda w: list(bits(w)))) for ws in found)

    @cached_property
    def _owner(self) -> dict[int, int]:
        """Each conflict vertex's component mask, by bit."""
        return {i: comp for comp in join(self.conflicts) for i in bits(comp)}

    @cached_property
    def parts(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per connected component of the conflicts, its vertex mask and the
        masks of its minimal transversals; the budget caps each component's
        vertices.  A lone conflict fills its component, since conflicts form
        an antichain.  An empty conflict has no transversal, so then the one
        part is ``(0, ())``."""
        if 0 in self.conflicts:
            return ((0, ()),)
        members: dict[int, list[int]] = {}
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

    @cached_property
    def facts(self) -> tuple[Fact, ...]:
        """The fact of each vertex, by bit."""
        return tuple(l.fact for l in self.index)

    @cached_property
    def fact_bits(self) -> dict[Fact, int]:
        """Each vertex fact's bit mask."""
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
        added = by_predicate(self.facts[i] for i in bits(self.absent))
        return {**index, **{p: index.get(p, []) + fs for p, fs in added.items()}}

    def agreement(self, repair: Database) -> int:
        """The agreement mask of a delta repair: the vertices whose facts it
        does not toggle."""
        return self.full & ~sum(self.fact_bits[f] for f in repair ^ self.instance.db)

    @cached_property
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
        facts of one of its excluded-vertex masks in ``choices``, in canonical
        order, once ``check_product`` passes; the parts with one choice form
        a fixed base."""
        self.check_product(parts, choices, what)
        if not all(choices):
            return RepairSet("delta", ())
        facts = self.facts
        fixed = 0
        free = []
        for masks in choices:
            if len(masks) == 1:
                fixed |= masks[0]
            else:
                free.append([[facts[i] for i in bits(t)] for t in masks])
        base = self.instance.db ^ {facts[i] for i in bits(fixed)}
        return sorted_repair_set(
            "delta", (base.symmetric_difference(chain(*pick)) for pick in product(*free))
        )

    def classified(self, rows: Sequence[tuple[int, int, int, int]], db: int
                   ) -> list[tuple[int, list[tuple[int, int]]]]:
        """Per group of components that the rule rows on the database mask
        ``db`` join through the vertices they meet, its vertex mask and each
        excluded mask ``t`` with the flags of the update ``(t & absent, t &
        ~absent)`` under the group's rows."""
        touched = [self.full & (pos | neg | add | rem) for pos, neg, add, rem in rows]
        absent, out = self.absent, []
        for group, excluded in self.joined(mask for mask in touched if mask):
            rules = RuleMasks([row for row, mask in zip(rows, touched) if mask & group], db)
            out.append((group, [(t, rules.classify(t & absent, t & ~absent)) for t in excluded]))
        return out


def unbeaten(excluded: tuple[int, ...], beats: Callable[[int, int], bool]) -> tuple[int, ...]:
    """The excluded-vertex masks of one part that no other mask of it beats;
    ``beats(other, mine)`` compares two of them."""
    return tuple(
        mine
        for mine in excluded
        if not any(other != mine and beats(other, mine) for other in excluded)
    )


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
        self.masks = masks
        index = dict(masks.index)
        for lit in sorted({l for e in edges for l in e} - index.keys(), key=literal_key):
            index[lit] = len(index)
        self.dom = [0] * len(index)
        self.beaten_by = [0] * len(index)
        for strong, weak in edges:
            self.dom[index[strong]] |= 1 << index[weak]
            self.beaten_by[index[weak]] |= 1 << index[strong]
        self._optima: dict[str, tuple[tuple[int, ...], ...]] = {}

    def is_pareto_optimal(self, agree: int) -> bool:
        """A Pareto improvement exists exactly when some excluded vertex can be
        kept after dropping every node it outranks without completing a
        conflict; since the repair completes none, that conflict holds the
        vertex.  Check that every excluded vertex is blocked so.  The vertex
        is kept even when it outranks itself."""
        for i in bits(self.masks.full & ~agree):
            bit = 1 << i
            keep = (agree & ~self.dom[i]) | bit
            if not any((w | bit) & ~keep == 0 for w in self.masks.witnesses[i]):
                return False
        return True

    @cached_property
    def parts(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``ConflictMasks.joined`` along the priority edges."""
        return self.masks.joined(d | 1 << i for i, d in enumerate(self.dom) if d)

    @cached_property
    def rule_rows(self) -> tuple[tuple[int, int, int, int], ...]:
        """The ground rules the priority translates to, as rule rows over the
        vertex bits, by their members' bits: each conflict's rule repairs the
        members that outrank no other member."""
        absent, dom = self.masks.absent, self.dom
        out = []
        for c in sorted(self.masks.conflicts, key=lambda c: list(bits(c))):
            acts = sum(1 << i for i in bits(c) if not dom[i] & c & ~(1 << i))
            out.append((c & ~absent, c & absent, acts & absent, acts & ~absent))
        return tuple(out)

    @cached_property
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
        if found is not None:
            return found
        if kind == "global":
            keep = lambda p, excluded: unbeaten(excluded, self._improves)
        elif kind == "completion":
            keep = lambda p, excluded: tuple(
                t for t in excluded if self._replays(self.part_nodes[p], t)
            )
        else:
            check, full = optimality_check(kind), self.masks.full
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

    @cached_property
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
            drop = sum(
                1 << i for i in bits(ready & excluded)
                if any(not w & ~kept for w in witnesses[i])
            )
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
    checks = {
        "pareto": MaskContext.is_pareto_optimal,
        "global": MaskContext.is_globally_optimal,
        "completion": MaskContext.is_completion_optimal,
    }
    if kind not in checks:
        raise InputError(f"unknown optimality kind: {kind}")
    return checks[kind]


def _proper_submasks(mask: int) -> Iterator[int]:
    sub = mask
    while sub:
        sub = (sub - 1) & mask
        yield sub


def _reaches(update: int, ready: Callable[[int], int]) -> bool:
    """Some order applies every action of ``update`` while it is ready: a
    depth-first search over the applied submasks, each visited once."""
    seen = {0}
    stack = [0]
    while stack:
        sub = stack.pop()
        if sub == update:
            return True
        fresh = ready(sub)
        while fresh:
            bit = fresh & -fresh
            fresh ^= bit
            if sub | bit not in seen:
                seen.add(sub | bit)
                stack.append(sub | bit)
    return False


def rule_rows(ground: Iterable, known: Mapping[Fact, int], db: Database
              ) -> tuple[dict[Fact, int], list[tuple[int, int, int, int]], int]:
    """The bit of each fact that the ground rules (``lits``, ``updates`` with
    ``add`` and ``fact``) mention, their rows over those bits, and the mask of
    the mentioned facts of ``db``.  Facts in ``known``, the masks of bits ``0``
    to ``len(known) - 1``, keep theirs; the others take the next bits in
    fact order."""
    ground = list(ground)
    mentioned = {l.fact for rule in ground for l in rule.lits}
    mentioned |= {a.fact for rule in ground for a in rule.updates}
    bit = {f: known[f] for f in mentioned if f in known}
    fresh = sorted(mentioned - bit.keys())
    bit.update((f, 1 << (len(known) + k)) for k, f in enumerate(fresh))
    rows = [
        (sum(bit[l.fact] for l in rule.lits if l.positive),
         sum(bit[l.fact] for l in rule.lits if not l.positive),
         sum(bit[a.fact] for a in rule.updates if a.add),
         sum(bit[a.fact] for a in rule.updates if not a.add))
        for rule in ground
    ]
    return bit, rows, sum(b for f, b in bit.items() if f in db)


class RuleMasks:
    """Ground rules as ``(pos, neg, add, rem)`` rows of fact masks (see
    ``rule_rows``) on a database mask.  A consistent update has one action
    per fact, so its subsets are the submasks of ``added | removed``.  Only
    mentioned facts decide a rule's violation or closure, so the no-effect
    actions of the justified check range over them alone."""

    def __init__(self, rows: Iterable[tuple[int, int, int, int]], db: int):
        # (pos, neg) bodies of the rules offering each action, by (add, bit)
        self.firing: dict[tuple[bool, int], list[tuple[int, int]]] = {}
        # per rule: its update actions, then its asserters, as (added, removed)
        self.closure: list[tuple[int, int, int, int]] = []
        self.mentioned = 0
        for pos, neg, add, rem in rows:
            self.mentioned |= pos | neg | add | rem
            for adds, acts in ((True, add), (False, rem)):
                for i in bits(acts):
                    self.firing.setdefault((adds, 1 << i), []).append((pos, neg))
            self.closure.append((add, rem, pos & ~rem, neg & ~add))
        self.db = db & self.mentioned

    def classify(self, added: int, removed: int) -> int:
        """The support classes of the update that adds the facts of ``added``
        and removes those of ``removed`` (disjoint masks), as flag bits."""
        moves = [(1 << i, self.firing.get((True, 1 << i))) for i in bits(added)]
        moves += [(1 << i, self.firing.get((False, 1 << i))) for i in bits(removed)]
        if not all(bodies for _, bodies in moves):
            # an action that no rule offers is never ready, and dropping it
            # keeps a closed set closed: all four checks fail
            return 0
        update = added | removed

        def state(sub: int) -> int:
            return (self.db & ~(sub & removed)) | (sub & added)

        def ready(sub: int) -> int:
            """The actions outside ``sub`` that a rule offers which the
            result of applying ``sub`` violates."""
            now = state(sub)
            out = 0
            for bit, bodies in moves:
                if not sub & bit and not consistent_mask(now, bodies):
                    out |= bit
            return out

        # dropping an action from the update leaves a proper subset, and a
        # path of proper subsets with a ready action each reaches the update:
        # a grounded update is founded and well-founded
        grounded = all(map(ready, _proper_submasks(update)))
        founded = grounded or all(ready(update & ~bit) for bit, _ in moves)
        well_founded = grounded or _reaches(update, ready)
        justified = self._justified(added, removed, state(update))
        return founded | well_founded << 1 | grounded << 2 | justified << 3

    def _justified(self, added: int, removed: int, updated: int) -> bool:
        idle_add = self.db & updated
        idle_rem = self.mentioned & ~(self.db | updated)

        def closed(sub: int) -> bool:
            on_add = idle_add | (sub & added)
            on_rem = idle_rem | (sub & removed)
            return all(
                add & on_add or rem & on_rem or ast_add & ~on_add or ast_rem & ~on_rem
                for add, rem, ast_add, ast_rem in self.closure
            )

        update = added | removed
        return closed(update) and not any(map(closed, _proper_submasks(update)))

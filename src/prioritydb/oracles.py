"""Definition-direct oracles: the reference paths the production code is
tested against.

Each follows one of the paper's definitions on sets of facts, literals or
update actions, by brute force where the definition quantifies over them,
so each is exponential and meant for cross-checking small instances:

- conflicts: ``conflicts_via_hitting_sets`` recovers them from the
  differences between the database and its brute-force repairs, and
  ``minimal_hitting_sets`` runs ``masks.minimal_transversals`` on sets of any
  hashable elements;
- repairs: ``delta_repairs_bruteforce`` scans every subset of the fact
  universe;
- optimality: ``is_pareto_improvement`` and ``is_global_improvement`` compare
  agreement sets, and ``completion_optimal_repairs_bruteforce`` collects the
  ``greedy_optimal_repair`` of every total extension (``completions``);
- active rules: ``is_founded``, ``is_well_founded``, ``is_grounded``,
  ``is_grounded_via_pruned_rules`` and ``is_justified`` on frozensets of
  actions.

No production path calls them.  The package registers this module at import
and runs it on first use, as it does ``aic`` and ``bridges``, so a run on a
prioritized database never compiles it.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

from .aic import GroundAIC, apply_actions, consistent_mask
from .conflicts import Conflict
from .errors import DEFAULT_BUDGET, Budget, InputError, subsets
from .masks import bits, minimal_transversals
from .model import (
    Database,
    Fact,
    Instance,
    Literal,
    Schema,
    UniversalConstraint,
    UpdateAction,
    action_key,
    literal_key,
)
from .priorities import PrioritizedDatabase, PriorityRelation, co_conflicting_pairs
from .repairs import RepairSet, sorted_repair_set


def conflicts_via_hitting_sets(
    db: Database,
    schema: Schema,
    constraints: Sequence[UniversalConstraint],
    budget: Budget = DEFAULT_BUDGET,
) -> frozenset[Conflict]:
    """Minimal hitting sets of the repair differences, re-signed.

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
    """Scan every subset of the fact universe, keep the consistent ones,
    retain those at minimal symmetric difference."""
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


def is_pareto_improvement(better: Database, repair: Database, pdb: PrioritizedDatabase) -> bool:
    """True when ``better`` is consistent and one of its newly kept literals
    outranks every literal sacrificed from ``repair``'s agreement set."""
    if not pdb.instance.consistent(better):
        return False
    mine = pdb.agreement(better)
    theirs = pdb.agreement(repair)
    gained = mine - theirs
    lost = theirs - mine
    return any(all(pdb.priority.outranks(mu, lam) for lam in lost) for mu in gained)


def is_global_improvement(better: Database, repair: Database, pdb: PrioritizedDatabase) -> bool:
    """True when ``better`` is consistent, differs in agreement, and every
    sacrificed literal is outranked by some newly kept one."""
    if not pdb.instance.consistent(better):
        return False
    mine = pdb.agreement(better)
    theirs = pdb.agreement(repair)
    return mine != theirs and pdb.priority.covers(mine - theirs, theirs - mine)


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
        candidates = [lit for lit in pending if not any(
            pdb.priority.outranks(other, lit) for other in pending if other != lit)]
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
    budget.check_universe(len(undirected), "undirected pair set")
    for choice in product((0, 1), repeat=len(undirected)):
        edges = set(priority.edges)
        for flip, (a, b) in zip(choice, undirected):
            edges.add((b, a) if flip else (a, b))
        candidate = PriorityRelation(frozenset(edges))
        if candidate.is_acyclic():
            yield candidate


def completion_optimal_repairs_bruteforce(pdb: PrioritizedDatabase) -> RepairSet:
    """A repair is completion-optimal exactly when it is the single optimum
    under some total extension, which the greedy construction produces."""
    out = set()
    for total in completions(pdb.priority, pdb.conflicts(), pdb.budget):
        out.add(greedy_optimal_repair(pdb.with_priority(total)))
    return sorted_repair_set("delta", out)


def satisfies_rules(db: Database, ground: Iterable[GroundAIC]) -> bool:
    return not any(rule.violated_by(db) for rule in ground)


def is_founded(
    actions: frozenset[UpdateAction],
    db: Database,
    ground: frozenset[GroundAIC],
) -> bool:
    """Every action appears in some rule that the update would violate if just
    that action were dropped."""
    for action in actions:
        relaxed = apply_actions(db, actions - {action})
        if not any(
            action in rule.updates and rule.violated_by(relaxed) for rule in ground
        ):
            return False
    return True


def is_well_founded(
    actions: frozenset[UpdateAction],
    db: Database,
    ground: frozenset[GroundAIC],
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """Some ordering applies each action while its rule is still violated.

    Whether an action can fire depends only on the set already applied, so the
    search memoizes on that set.
    """
    budget.check_universe(len(actions), "action set")
    seen: set[frozenset[UpdateAction]] = set()
    firing = {a: [r for r in ground if a in r.updates] for a in actions}

    def reachable(applied: frozenset[UpdateAction]) -> bool:
        if applied == actions:
            return True
        if applied in seen:
            return False
        seen.add(applied)
        state = apply_actions(db, applied)
        for action in sorted(actions - applied, key=action_key):
            if any(rule.violated_by(state) for rule in firing[action]):
                if reachable(applied | {action}):
                    return True
        return False

    return reachable(frozenset())


def normalize_ground(ground: Iterable[GroundAIC]) -> frozenset[GroundAIC]:
    """Split each ground rule into one rule per update action."""
    return frozenset(
        GroundAIC(rule.lits, frozenset({action}))
        for rule in ground
        for action in rule.updates
    )


def restrict_rules_to_actions(
    ground: Iterable[GroundAIC], actions: frozenset[UpdateAction]
) -> frozenset[GroundAIC]:
    """Drop update actions outside the given set, and rules left with none."""
    out = set()
    for rule in ground:
        kept = rule.updates & actions
        if kept:
            out.add(GroundAIC(rule.lits, kept))
    return frozenset(out)


def is_grounded(
    actions: frozenset[UpdateAction],
    db: Database,
    ground: frozenset[GroundAIC],
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """Every proper subset leaves some normalized rule violated whose action
    lies in the remaining actions."""
    normalized = [r for r in normalize_ground(ground) if r.updates <= actions]
    for subset in subsets(sorted(actions, key=action_key), budget, "action set"):
        if subset == actions:
            continue
        state = apply_actions(db, subset)
        if not any(
            not rule.updates & subset and rule.violated_by(state)
            for rule in normalized
        ):
            return False
    return True


def is_grounded_via_pruned_rules(
    actions: frozenset[UpdateAction],
    db: Database,
    ground: frozenset[GroundAIC],
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """An r-update is grounded exactly when it stays minimal for the rule set
    pruned to its own actions."""
    pruned = restrict_rules_to_actions(ground, actions)
    if not satisfies_rules(apply_actions(db, actions), pruned):
        return False
    for subset in subsets(sorted(actions, key=action_key), budget, "action set"):
        if subset == actions:
            continue
        if satisfies_rules(apply_actions(db, subset), pruned):
            return False
    return True


def no_effect_actions(
    db: Database, updated: Database, universe: frozenset[Fact]
) -> frozenset[UpdateAction]:
    """Actions that re-assert the status quo: keep facts surviving the update,
    keep out universe facts that were and remain absent."""
    return frozenset(
        {UpdateAction(True, f) for f in db & updated}
        | {UpdateAction(False, f) for f in universe - (db | updated)}
    )


def _closed_under(
    actions: frozenset[UpdateAction], ground: Iterable[GroundAIC]
) -> bool:
    """Closed action sets honor every rule whose non-updatable literals they
    assert: they must then contain one of the rule's update actions."""
    return all(rule.updates & actions or not rule.asserters <= actions for rule in ground)


def is_justified(
    actions: frozenset[UpdateAction],
    db: Database,
    ground: frozenset[GroundAIC],
    universe: frozenset[Fact],
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """The actions plus all no-effect actions form a minimal closed set
    containing the no-effect actions."""
    updated = apply_actions(db, actions)
    idle = no_effect_actions(db, updated, universe)
    if not _closed_under(idle | actions, ground):
        return False
    for subset in subsets(sorted(actions, key=action_key), budget, "action set"):
        if subset == actions:
            continue
        if _closed_under(idle | subset, ground):
            return False
    return True

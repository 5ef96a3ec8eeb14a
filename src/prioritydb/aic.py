"""Active integrity constraints: rules that pair a constraint body with the
update actions permitted to repair its violation.

An r-update is a consistent, subset-minimal action set whose application
satisfies every rule.  Four increasingly demanding support notions classify
r-updates: founded (each action is needed by some rule), well-founded (some
application order fires a violated rule at every step), grounded (every proper
subset leaves some rule violated that only the remaining actions can touch),
and justified (the action set plus the no-effect actions is a minimal closed
set).

A ``RuleContext`` holds the rules on one database, as a
``PrioritizedDatabase`` does a priority: ``r_updates``, ``is_r_update``,
``r_update_table``, ``classify_r_updates``, ``repairs_of_kind`` and
``check_properties`` take it, and it grounds the rules and classifies them
at most once.  ``classify_components`` maps the ground rules to
``rule_rows`` once and runs ``RuleMasks.classify`` once per restriction of
each group of conflict components that the rules join; the r-update tables
and classes are products of those rows' flag bits, and an ``RUpdate`` is
built only for an action set returned.

The rule side's integer layer is defined here.  A ground active rule is a
``(pos, neg, add, rem)`` row of the fact masks of its positive and negative
body literals and of the facts it adds and removes (``rule_rows``).  An
update is the pair ``(added, removed)`` of fact masks, so the restriction
that excludes the conflict vertices of ``t`` is the update ``(t & absent,
t & ~absent)``.  ``RuleMasks.classify`` returns an update's support classes
as flag bits, bit ``k`` for ``R_UPDATE_CLASSES[k]``.  The frozenset
definitions the classifier is tested against (``is_founded`` and the others)
are in ``oracles``; ``classify_updates`` over ``r_updates`` is the
whole-instance reference.

The rule syntax (``AIC``, ``UpdateAtom``, ``UpdateAction``, ``action_key``)
is defined in ``model`` and re-exported here.  The package runs this module
and ``bridges`` on first use only, so a run on a prioritized database never
compiles them.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DEFAULT_BUDGET, Budget, InputError
from .model import (  # re-exports the rule syntax: AIC, UpdateAtom, UpdateAction, action_key
    AIC,
    Constant,
    Database,
    Fact,
    Frozen,
    Literal,
    Schema,
    UniversalConstraint,
    UpdateAction,
    UpdateAtom,
    action_key,
    cached,
    ground_body,
    prime_implicants,
    resolutions,
    violates_ground,
)
from .masks import R_UPDATE_CLASSES, ConflictMasks, bits
from .priorities import PrioritizedDatabase
from .repairs import RepairSet, is_delta_repair_of


def repair_action_for(literal: Literal) -> UpdateAction:
    """The action that falsifies a body literal: remove a present fact, add an
    absent one."""
    return UpdateAction(add=not literal.positive, fact=literal.fact)


class GroundAIC(Frozen):
    def __init__(self, lits: frozenset[Literal], updates: frozenset[UpdateAction]):
        self.__dict__.update(lits=lits, updates=updates)

    def violated_by(self, db: Database) -> bool:
        return violates_ground(db, self.lits)

    @cached
    def asserters(self) -> frozenset[UpdateAction]:
        """The actions that make the non-updatable literals true, i.e. the
        body literals that no update action of the rule falsifies."""
        return frozenset(
            UpdateAction(l.positive, l.fact)
            for l in self.lits
            if repair_action_for(l) not in self.updates
        )


def ground_rules(
    rules: Sequence[AIC], constants: Iterable[Constant]
) -> frozenset[GroundAIC]:
    """Ground instances over the constant pool, deduplicated; instances with a
    contradictory body are dropped since they can never fire."""
    out: set[GroundAIC] = set()
    for rule in rules:
        for literals, binding in ground_body(rule.body, rule.inequalities, constants):
            actions = frozenset(
                UpdateAction(
                    u.add,
                    Fact(u.predicate, tuple(binding.get(t, t) for t in u.terms)),
                )
                for u in rule.updates
            )
            out.add(GroundAIC(literals, actions))
    return frozenset(out)


def constraints_of(rules: Sequence[AIC]) -> tuple[UniversalConstraint, ...]:
    """The rule bodies as constraints, each once, in first-occurrence order."""
    return tuple(dict.fromkeys(rule.constraint() for rule in rules))


def consistent_actions(actions: Iterable[UpdateAction]) -> bool:
    """No fact is both added and removed."""
    actions = set(actions)
    return len({a.fact for a in actions}) == len(actions)


def apply_actions(db: Database, actions: Iterable[UpdateAction]) -> Database:
    actions = set(actions)
    if not consistent_actions(actions):
        raise InputError("action set adds and removes the same fact")
    removed = {a.fact for a in actions if not a.add}
    added = {a.fact for a in actions if a.add}
    return frozenset((db - removed) | added)


def actions_between(db: Database, target: Database) -> frozenset[UpdateAction]:
    return frozenset(
        {UpdateAction(False, f) for f in db - target}
        | {UpdateAction(True, f) for f in target - db}
    )


class RuleContext(Frozen):
    """Active rules on a database, the rule-side ``PrioritizedDatabase``.
    Each is built on first use, once: ``pdb``, the prioritized database of
    the rule bodies as constraints (its ``Instance`` and ``ConflictMasks``);
    ``ground``, the ground rules over that instance's constant pool, since
    update atoms only repeat body terms; and ``rows``, their
    ``classify_components`` rows."""

    def __init__(self, db: Database, schema: Schema, rules: tuple[AIC, ...],
                 budget: Budget = DEFAULT_BUDGET):
        self.__dict__.update(db=db, schema=schema, rules=rules, budget=budget)

    @cached
    def pdb(self) -> PrioritizedDatabase:
        return PrioritizedDatabase(self.db, self.schema, constraints_of(self.rules),
                                   budget=self.budget)

    @cached
    def ground(self) -> frozenset[GroundAIC]:
        return ground_rules(self.rules, self.pdb.constants())

    @cached
    def rows(self) -> list[tuple[int, list[tuple[int, int]]]]:
        return classify_components(self.pdb.conflict_masks, self.ground)


def r_updates(ctx: RuleContext) -> frozenset[frozenset[UpdateAction]]:
    """Consistent minimal action sets restoring every rule; these are exactly
    the differences to the symmetric-difference repairs of the rules' bodies."""
    return frozenset(actions_between(ctx.db, repair) for repair in ctx.pdb.delta_repairs())


def is_r_update(ctx: RuleContext, actions: frozenset[UpdateAction]) -> bool:
    """Membership in ``r_updates`` without enumerating them: the set must be
    consistent, hold no action without effect, and lead inside the fact
    universe to a delta repair of the rules' bodies."""
    if not consistent_actions(actions):
        return False
    updated = apply_actions(ctx.db, actions)
    if actions != actions_between(ctx.db, updated):
        return False
    inst = ctx.pdb.instance
    return all(map(inst.in_universe, updated)) and is_delta_repair_of(inst, updated)


def normalize(rules: Sequence[AIC]) -> tuple[AIC, ...]:
    """Split each rule into one rule per update action."""
    out = []
    for rule in rules:
        for update in rule.updates:
            out.append(AIC(rule.body, rule.inequalities, (update,)))
    return tuple(dict.fromkeys(out))


def anti_normalize_ground(ground: Iterable[GroundAIC]) -> frozenset[GroundAIC]:
    """Merge rules sharing a body, taking the union of their update actions."""
    merged: dict[frozenset[Literal], set[UpdateAction]] = {}
    for rule in ground:
        merged.setdefault(rule.lits, set()).update(rule.updates)
    return frozenset(
        GroundAIC(lits, frozenset(actions)) for lits, actions in merged.items()
    )


def minimal_bodies_ground(ground: Iterable[GroundAIC]) -> frozenset[GroundAIC]:
    """Anti-normalize, then keep the rules whose bodies are subset-minimal."""
    merged = anti_normalize_ground(ground)
    return frozenset(
        rule
        for rule in merged
        if not any(other.lits < rule.lits for other in merged)
    )


class RUpdate(NamedTuple):
    actions: frozenset[UpdateAction]
    founded: bool
    well_founded: bool
    grounded: bool
    justified: bool

    def classes(self) -> dict[str, bool]:
        """Membership in each support class, by its command-line name."""
        flags = (self.founded, self.well_founded, self.grounded, self.justified)
        return dict(zip(R_UPDATE_CLASSES, flags))


def classify_r_updates(ctx: RuleContext) -> tuple[RUpdate, ...]:
    """``classify_updates`` of ``r_updates``, read off ``r_update_table``."""
    actions, table = r_update_table(ctx)
    return tuple(_r_update(frozenset([actions[r] for r in ranks]), flags)
                 for ranks, flags in table)


def _r_update(actions: frozenset[UpdateAction], flags: int) -> RUpdate:
    """The update with the classes of the flag bits of ``RuleMasks.classify``."""
    return RUpdate(actions, *(flags >> k & 1 == 1 for k in range(len(R_UPDATE_CLASSES))))


def r_update_table(
    ctx: RuleContext,
) -> tuple[tuple[UpdateAction, ...], list[tuple[tuple[int, ...], int]]]:
    """The classified r-updates as integers: the conflict vertices' actions
    in ``action_key`` order, and per r-update, in ``classify_updates`` order,
    the ascending positions of its actions there and its classes as flag bits
    (bit ``k`` for ``R_UPDATE_CLASSES[k]``).  The table is the product of the
    context's ``rows``: unions of positions with ANDed flags.
    Vertex facts are distinct, so ``action_key`` order is fact order
    and sorting the position lists sorts the updates.  The budget caps the
    whole conflict literal set, since every r-update is listed."""
    masks = ctx.pdb.conflict_masks
    ctx.budget.check_universe(len(masks.index), "conflict literal set")
    facts = masks.facts
    order = sorted(range(len(facts)), key=facts.__getitem__)
    rank = {i: r for r, i in enumerate(order)}
    table: list[tuple[tuple[int, ...], int]] = [((), 15)]
    for _, row in ctx.rows:
        entries = [(tuple([rank[i] for i in bits(t)]), flags) for t, flags in row]
        table = [(ranks + more, flags & mine) for ranks, flags in table for more, mine in entries]
    actions = tuple(UpdateAction(facts[i] not in ctx.db, facts[i]) for i in order)
    return actions, sorted([(tuple(sorted(ranks)), flags) for ranks, flags in table])


def consistent_mask(mask: int, bodies) -> bool:
    """No ``(pos, neg)`` body is matched by ``mask``: none has every fact of
    ``pos`` in ``mask`` and every fact of ``neg`` outside it."""
    return not any((mask & pos) == pos and (mask & neg) == 0 for pos, neg in bodies)


def _proper_submasks(mask: int) -> Iterator[int]:
    sub = mask
    while sub:
        sub = (sub - 1) & mask
        yield sub


def _reaches(update: int, ready: Callable[[int], int]) -> bool:
    """Some order applies every action of ``update`` while it is ready: a
    depth-first search over the applied submasks, each visited once."""
    seen, stack = {0}, [0]
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
         sum(bit[a.fact] for a in rule.updates if not a.add)) for rule in ground]
    return bit, rows, sum(b for f, b in bit.items() if f in db)


class RuleMasks:
    """Ground rules as ``(pos, neg, add, rem)`` rows of fact masks (see
    ``rule_rows``) on a database mask.  A consistent update has one action
    per fact, so its subsets are the submasks of ``added | removed``.  Only
    mentioned facts decide a rule's violation or closure, so the no-effect
    actions of the justified check range over them alone."""

    def __init__(self, rows: Iterable[tuple[int, int, int, int]], db: int):
        # (pos, neg) bodies of the rules offering each action, by (add, bit)
        self.firing = {}
        # per rule: its update actions, then its asserters, as (added, removed)
        self.closure = []
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
            return all(add & on_add or rem & on_rem or ast_add & ~on_add or ast_rem & ~on_rem
                       for add, rem, ast_add, ast_rem in self.closure)

        update = added | removed
        return closed(update) and not any(map(closed, _proper_submasks(update)))


def classify_rows(masks: ConflictMasks, rows: Sequence[tuple[int, int, int, int]], db: int
                  ) -> list[tuple[int, list[tuple[int, int]]]]:
    """Per group of the conflict components of ``masks`` that the rule rows
    on the database mask ``db`` join through the vertices they meet, its
    vertex mask and each excluded mask ``t`` with the flags of the update
    ``(t & absent, t & ~absent)`` under the group's rows."""
    touched = [masks.full & (pos | neg | add | rem) for pos, neg, add, rem in rows]
    absent, out = masks.absent, []
    for group, excluded in masks.joined(mask for mask in touched if mask):
        rules = RuleMasks([row for row, mask in zip(rows, touched) if mask & group], db)
        out.append((group, [(t, rules.classify(t & absent, t & ~absent)) for t in excluded]))
    return out


def classify_components(
    masks: ConflictMasks, ground: Iterable[GroundAIC]
) -> list[tuple[int, list[tuple[int, int]]]]:
    """Per group of conflict components that the ground rules join through
    the conflict vertices they mention, its vertex mask and each restriction
    of the delta repairs to it: the mask of the vertices it toggles, with the
    flag bits of its update under the group's rules.  An update toggles
    conflict vertices only, and the checks read only the facts of the rules
    involved, so a rule off every vertex is never violated and always
    closed, and an update's flags are the AND of its restrictions'.  The
    budget caps each group's vertices; a caller that lists every r-update
    caps the whole conflict literal set itself."""
    return classify_rows(masks, *rule_rows(ground, masks.fact_bits, masks.instance.db)[1:])


def classify_updates(
    db: Database,
    ground: Iterable[GroundAIC],
    updates: Iterable[frozenset[UpdateAction]],
    budget: Budget = DEFAULT_BUDGET,
) -> tuple[RUpdate, ...]:
    """The support properties of the given consistent action sets on ``db``
    under the ground rules, whose facts lie in the fact universe.

    Agrees with the oracles ``is_founded``, ``is_well_founded``,
    ``is_grounded`` and ``is_justified`` (over that universe), but runs
    ``RuleMasks.classify``.
    """
    bit, rows, db_mask = rule_rows(ground, {}, db)
    rules = RuleMasks(rows, db_mask)
    out = []
    for actions in updates:
        if not consistent_actions(actions):
            raise InputError("action set adds and removes the same fact")
        budget.check_universe(len(actions), "action set")
        flags = 0  # no rule offers an action on a fact that none mentions
        if all(a.fact in bit for a in actions):
            flags = rules.classify(sum(bit[a.fact] for a in actions if a.add),
                                   sum(bit[a.fact] for a in actions if not a.add))
        out.append(_r_update(actions, flags))
    return tuple(sorted(out, key=_update_key))


def _update_key(update: RUpdate) -> list:
    return sorted(map(action_key, update.actions))


def _class_flag(kind: str) -> int:
    """The flag bit of a support class, 0 for 'all'; an unknown class raises."""
    if kind not in ("all",) + R_UPDATE_CLASSES:
        raise InputError(f"unknown r-update class: {kind}")
    return 0 if kind == "all" else 1 << R_UPDATE_CLASSES.index(kind)


def class_choices(rows: Sequence[tuple[int, Sequence[tuple[int, int]]]], kind: str
                  ) -> list[list[int]]:
    """Per group of the rows of ``classify_components``, its restrictions
    whose updates have the given support property ('all' for any)."""
    flag = _class_flag(kind)
    return [[t for t, flags in row if flags & flag == flag] for _, row in rows]


def repairs_of_kind(ctx: RuleContext, kind: str) -> RepairSet:
    """Databases reached by the r-updates with the given support property:
    the product of ``class_choices`` (``ConflictMasks.repair_product``); an
    unknown property raises before anything is computed."""
    _class_flag(kind)
    return ctx.pdb.conflict_masks.repair_product(ctx.rows, class_choices(ctx.rows, kind),
                                                  "r-update class product")


class PropertyReport(NamedTuple):
    monotone: bool
    closed_under_resolution: bool
    preserves_actions_resolution: bool
    preserves_actions_strengthening: bool
    counterexamples: tuple[tuple[str, str], ...] = ()


def check_properties(ctx: RuleContext) -> PropertyReport:
    """Well-behavedness of the ground rule set for the given database.

    All checks run on the ground instances for this database only; they do not
    decide the corresponding property over every database.
    """
    ground = sorted(ctx.ground, key=_rule_key)
    notes: list[tuple[str, str]] = []

    facts_by_sign: dict[Fact, set[bool]] = {}
    for rule in ground:
        for lit in rule.lits:
            facts_by_sign.setdefault(lit.fact, set()).add(lit.positive)
    monotone = all(len(signs) == 1 for signs in facts_by_sign.values())
    if not monotone:
        culprit = min(f for f, signs in facts_by_sign.items() if len(signs) == 2)
        notes.append(("monotone", f"fact {culprit} occurs with both signs"))

    by_body: dict[frozenset[Literal], list[GroundAIC]] = {}
    for rule in ground:
        by_body.setdefault(rule.lits, []).append(rule)
    satisfiable = _consistent_rule_set(ground)
    if not satisfiable:
        notes.append(("closed_under_resolution", "rule set is unsatisfiable"))
    missing: list[str] = []
    lacking: list[str] = []
    for left_body, right_body, clash, resolvent in resolutions(list(by_body)):
        for left, right in product(by_body[left_body], by_body[right_body]):
            if satisfiable and resolvent not in by_body:
                missing.append(f"missing resolvent of ({_fmt(left)}) and ({_fmt(right)})")
            expected = {a for a in left.updates | right.updates if a.fact != clash.fact}
            for target in by_body.get(resolvent, ()):
                if not expected <= target.updates:
                    lacking.append(f"resolvent ({_fmt(target)}) lacks actions of "
                                   f"({_fmt(left)}) and ({_fmt(right)})")
    notes += [("closed_under_resolution", note) for note in missing]
    notes += [("preserves_actions_resolution", note) for note in lacking]

    merged = sorted(anti_normalize_ground(ground), key=_rule_key)
    preserves_str = True
    for weak in merged:
        for strong in merged:
            if weak.lits < strong.lits and not strong.updates <= weak.updates:
                preserves_str = False
                notes.append(
                    (
                        "preserves_actions_strengthening",
                        f"({_fmt(strong)}) widens the actions of ({_fmt(weak)})",
                    )
                )
    return PropertyReport(
        monotone=monotone,
        closed_under_resolution=satisfiable and not missing,
        preserves_actions_resolution=not lacking,
        preserves_actions_strengthening=preserves_str,
        counterexamples=tuple(notes),
    )


def _rule_key(rule: GroundAIC) -> tuple:
    return sorted(map(str, rule.lits)), sorted(map(str, rule.updates))


def _fmt(rule: GroundAIC) -> str:
    lits = ", ".join(sorted(map(str, rule.lits)))
    acts = ", ".join(sorted(map(str, rule.updates)))
    return f"{lits} -> {{{acts}}}"


def _consistent_rule_set(ground: Sequence[GroundAIC]) -> bool:
    """Some database satisfies every rule, that is, the disjunction of the
    rule bodies is no tautology: consensus derives no empty body."""
    return frozenset() not in prime_implicants(rule.lits for rule in ground)

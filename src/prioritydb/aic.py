"""Active integrity constraints: rules that pair a constraint body with the
update actions permitted to repair its violation.

An r-update is a consistent, subset-minimal action set whose application
satisfies every rule.  Four increasingly demanding support notions classify
r-updates: founded (each action is needed by some rule), well-founded (some
application order fires a violated rule at every step), grounded (every proper
subset leaves some rule violated that only the remaining actions can touch),
and justified (the action set plus the no-effect actions is a minimal closed
set).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

from .errors import DEFAULT_BUDGET, Budget, InputError, subsets
from .model import (
    BodyAtom,
    Constant,
    Database,
    Fact,
    Instance,
    Literal,
    Schema,
    Term,
    UniversalConstraint,
    fact_key,
    ground_body,
    resolutions,
    universe_constants,
    violates_ground,
)
from .repairs import RepairSet, delta_repairs, sorted_repair_set


@dataclass(frozen=True)
class UpdateAtom:
    """A possibly non-ground +P(..) or -P(..) update template."""

    add: bool
    predicate: str
    terms: tuple[Term, ...]

    def __str__(self) -> str:
        sign = "+" if self.add else "-"
        return f"{sign}{Fact(self.predicate, self.terms)}"


@dataclass(frozen=True, order=True)
class UpdateAction:
    """A ground update action: add or remove one fact."""

    add: bool
    fact: Fact

    def __str__(self) -> str:
        return f"{'+' if self.add else '-'}{self.fact}"


def action_key(action: UpdateAction) -> tuple:
    return (fact_key(action.fact), not action.add)


def repair_action_for(literal: Literal) -> UpdateAction:
    """The action that falsifies a body literal: remove a present fact, add an
    absent one."""
    return UpdateAction(add=not literal.positive, fact=literal.fact)


@dataclass(frozen=True)
class AIC:
    """body -> { update atoms }; every update atom must repair a body literal."""

    body: tuple[BodyAtom, ...]
    inequalities: frozenset[tuple[Term, Term]]
    updates: tuple[UpdateAtom, ...]

    @staticmethod
    def make(
        body: Sequence[BodyAtom],
        updates: Sequence[UpdateAtom],
        inequalities: Iterable[tuple[Term, Term]] = (),
    ) -> "AIC":
        if not updates:
            raise InputError("active rule must offer at least one update action")
        constraint = UniversalConstraint.make(body, inequalities)
        body_index = {(atom.positive, atom.predicate, atom.terms) for atom in body}
        for update in updates:
            if (not update.add, update.predicate, update.terms) not in body_index:
                raise InputError(
                    f"update action {update} does not repair any body literal"
                )
        return AIC(constraint.body, constraint.inequalities, tuple(updates))

    def constraint(self) -> UniversalConstraint:
        return UniversalConstraint(self.body, self.inequalities)

    def schema_pairs(self) -> frozenset[tuple[str, int]]:
        return self.constraint().schema_pairs()

    def __str__(self) -> str:
        lhs = str(self.constraint()).removesuffix(" -> false")
        rhs = ", ".join(str(u) for u in self.updates)
        return f"{lhs} -> {{ {rhs} }}"


@dataclass(frozen=True)
class GroundAIC:
    lits: frozenset[Literal]
    updates: frozenset[UpdateAction]

    def violated_by(self, db: Database) -> bool:
        return violates_ground(db, self.lits)

    @cached_property
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


def rules_constants(db: Database, rules: Sequence[AIC]) -> frozenset[Constant]:
    """The grounding pool of the rules: update atoms only repeat body terms."""
    return universe_constants(db, constraints_of(rules))


def constraints_of(rules: Sequence[AIC]) -> tuple[UniversalConstraint, ...]:
    seen = []
    for rule in rules:
        constraint = rule.constraint()
        if constraint not in seen:
            seen.append(constraint)
    return tuple(seen)


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


def r_updates(
    db: Database,
    schema: Schema,
    rules: Sequence[AIC],
    budget: Budget = DEFAULT_BUDGET,
) -> frozenset[frozenset[UpdateAction]]:
    """Consistent minimal action sets restoring every rule; these are exactly
    the differences to the symmetric-difference repairs of the rules' bodies."""
    repairs = delta_repairs(db, schema, constraints_of(rules), budget)
    return frozenset(actions_between(db, repair) for repair in repairs)


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
) -> bool:
    """Some ordering applies each action while its rule is still violated.

    Whether an action can fire depends only on the set already applied, so the
    search memoizes on that set.
    """
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


def normalize(rules: Sequence[AIC]) -> tuple[AIC, ...]:
    """Split each rule into one rule per update action."""
    out = []
    for rule in rules:
        for update in rule.updates:
            out.append(AIC(rule.body, rule.inequalities, (update,)))
    return tuple(dict.fromkeys(out))


def normalize_ground(ground: Iterable[GroundAIC]) -> frozenset[GroundAIC]:
    """Split each ground rule into one rule per update action."""
    return frozenset(
        GroundAIC(rule.lits, frozenset({action}))
        for rule in ground
        for action in rule.updates
    )


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
    """Definition-direct check over the normalized rules: every proper subset
    leaves some rule violated whose action lies in the remaining actions."""
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
    """Oracle path: an r-update is grounded exactly when it stays minimal for
    the rule set pruned to its own actions."""
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


R_UPDATE_CLASSES = ("founded", "wellfounded", "grounded", "justified")


@dataclass(frozen=True)
class RUpdate:
    actions: frozenset[UpdateAction]
    founded: bool
    well_founded: bool
    grounded: bool
    justified: bool

    def classes(self) -> dict[str, bool]:
        """Membership in each support class, by its command-line name."""
        flags = (self.founded, self.well_founded, self.grounded, self.justified)
        return dict(zip(R_UPDATE_CLASSES, flags))


def classify_r_updates(
    db: Database,
    schema: Schema,
    rules: Sequence[AIC],
    budget: Budget = DEFAULT_BUDGET,
) -> tuple[RUpdate, ...]:
    inst = Instance(db, schema, constraints_of(rules))
    ground = ground_rules(rules, inst.constants)
    return classify_updates(inst, ground, r_updates(db, schema, rules, budget), budget)


def classify_updates(
    inst: Instance,
    ground: frozenset[GroundAIC],
    updates: Iterable[frozenset[UpdateAction]],
    budget: Budget = DEFAULT_BUDGET,
) -> tuple[RUpdate, ...]:
    """The support properties of the given r-updates of ``inst.db`` under the
    ground rules, whose facts lie in ``inst.facts``."""
    out = []
    for actions in updates:
        out.append(
            RUpdate(
                actions,
                founded=is_founded(actions, inst.db, ground),
                well_founded=is_well_founded(actions, inst.db, ground),
                grounded=is_grounded(actions, inst.db, ground, budget),
                justified=is_justified(actions, inst.db, ground, inst.facts, budget),
            )
        )
    return tuple(sorted(out, key=lambda u: sorted(map(action_key, u.actions))))


def reached_by_kind(db: Database, table: Sequence[RUpdate], kind: str) -> RepairSet:
    """Databases reached by the classified r-updates with the given support
    property."""
    if kind not in ("all",) + R_UPDATE_CLASSES:
        raise InputError(f"unknown r-update class: {kind}")
    chosen = [
        apply_actions(db, u.actions)
        for u in table
        if kind == "all" or u.classes()[kind]
    ]
    return sorted_repair_set("delta", chosen)


def repairs_of_kind(
    db: Database,
    schema: Schema,
    rules: Sequence[AIC],
    kind: str,
    budget: Budget = DEFAULT_BUDGET,
) -> RepairSet:
    """Databases reached by the r-updates with the given support property."""
    return reached_by_kind(db, classify_r_updates(db, schema, rules, budget), kind)


@dataclass(frozen=True)
class PropertyReport:
    monotone: bool
    closed_under_resolution: bool
    preserves_actions_resolution: bool
    preserves_actions_strengthening: bool
    counterexamples: tuple[tuple[str, str], ...] = ()


def check_properties(
    rules: Sequence[AIC],
    db: Database,
    budget: Budget = DEFAULT_BUDGET,
) -> PropertyReport:
    """Well-behavedness of the ground rule set for the given database.

    All checks run on the ground instances for this database only; they do not
    decide the corresponding property over every database.
    """
    return check_ground_properties(ground_rules(rules, rules_constants(db, rules)), budget)


def check_ground_properties(
    rules: Iterable[GroundAIC], budget: Budget = DEFAULT_BUDGET
) -> PropertyReport:
    """``check_properties`` on rules already ground over the database's pool."""
    ground = sorted(rules, key=_rule_key)
    notes: list[tuple[str, str]] = []

    facts_by_sign: dict[Fact, set[bool]] = {}
    for rule in ground:
        for lit in rule.lits:
            facts_by_sign.setdefault(lit.fact, set()).add(lit.positive)
    monotone = all(len(signs) == 1 for signs in facts_by_sign.values())
    if not monotone:
        culprit = sorted(
            (f for f, signs in facts_by_sign.items() if len(signs) == 2), key=fact_key
        )[0]
        notes.append(("monotone", f"fact {culprit} occurs with both signs"))

    by_body: dict[frozenset[Literal], list[GroundAIC]] = {}
    for rule in ground:
        by_body.setdefault(rule.lits, []).append(rule)
    satisfiable = _consistent_rule_set(ground, budget)
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


def _consistent_rule_set(ground: Sequence[GroundAIC], budget: Budget) -> bool:
    """Some database over the mentioned facts satisfies every rule."""
    mentioned = sorted({l.fact for rule in ground for l in rule.lits}, key=fact_key)
    return any(
        satisfies_rules(db, ground)
        for db in subsets(mentioned, budget, "mentioned fact set")
    )

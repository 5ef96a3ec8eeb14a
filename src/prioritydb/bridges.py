"""Translations between the constraint/priority world and active rules.

Four directions are covered: universal constraints to per-database ground
denial constraints over a signed schema; a prioritized database to ground
active rules fixing the least preferred literal of each conflict; denial
constraints with a stored preference relation to data-independent active
rules; and well-behaved active rules back to a prioritized database.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional, Sequence

from .aic import (
    AIC,
    GroundAIC,
    RUpdate,
    UpdateAtom,
    action_key,
    actions_between,
    check_ground_properties,
    classify_updates,
    constraints_of,
    ground_rules,
    reached_by_kind,
    repair_action_for,
    rules_constants,
)
from .errors import DEFAULT_BUDGET, Budget, InputError
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
    is_variable,
    literal_key,
)
from .priorities import (
    PrioritizedDatabase,
    PriorityRelation,
    optimal_repairs,
)
from .repairs import RepairSet, delta_repairs_of


def signed_predicate_name(name: str, schema: Schema) -> str:
    """A fresh predicate standing for the absence of ``name`` facts."""
    candidate = f"no_{name}"
    while schema.has(candidate):
        candidate = f"{candidate}_"
    return candidate


@dataclass(frozen=True)
class DenialImage:
    """A database and ground denial constraints over the signed schema whose
    conflicts and repairs mirror the source instance's."""

    db: Database
    schema: Schema
    constraints: tuple[UniversalConstraint, ...]
    absence_predicates: tuple[tuple[str, str], ...]  # (source, signed) pairs

    def signed_fact(self, lit: Literal) -> Fact:
        table = dict(self.absence_predicates)
        if lit.positive:
            return lit.fact
        return Fact(table[lit.fact.predicate], lit.fact.args)

    def signed_literals(self, lits) -> frozenset[Fact]:
        return frozenset(self.signed_fact(l) for l in lits)


def to_denial(
    db: Database, schema: Schema, constraints: Sequence[UniversalConstraint]
) -> DenialImage:
    """Encode negative literals as facts of fresh absence predicates, with one
    ground denial constraint per conflict."""
    return _denial_image(Instance(db, schema, tuple(constraints)))


def _denial_image(inst: Instance) -> DenialImage:
    mapping = []
    pairs = list(inst.schema.predicates)
    for name, arity in inst.schema.predicates:
        signed = signed_predicate_name(name, inst.schema)
        mapping.append((name, signed))
        pairs.append((signed, arity))
    signed_schema = Schema.of(pairs)
    image = DenialImage(frozenset(), signed_schema, (), tuple(mapping))
    signed_db = image.signed_literals(inst.literals)
    denials = []
    for conflict in sorted(inst.conflicts, key=lambda e: sorted(map(literal_key, e))):
        body = tuple(
            BodyAtom(True, fact.predicate, fact.args)
            for fact in sorted(image.signed_literals(conflict), key=fact_key)
        )
        denials.append(UniversalConstraint.make(body))
    return DenialImage(signed_db, signed_schema, tuple(denials), tuple(mapping))


@dataclass(frozen=True)
class DenialCorrespondence:
    conflicts_match: bool
    repairs_match: bool
    source_conflicts: int
    image_conflicts: int
    source_repairs: int
    image_repairs: int

    def ok(self) -> bool:
        return self.conflicts_match and self.repairs_match


def check_denial_image(
    db: Database,
    schema: Schema,
    constraints: Sequence[UniversalConstraint],
    budget: Budget = DEFAULT_BUDGET,
) -> tuple[DenialImage, DenialCorrespondence]:
    """Build the signed-image instance and verify that conflicts and repairs
    correspond under the signing map."""
    source = Instance(db, schema, tuple(constraints))
    image = _denial_image(source)
    target = Instance(image.db, image.schema, image.constraints)
    source_conflicts = source.conflicts
    image_conflicts = target.conflicts
    expected_conflicts = {
        image.signed_literals(e) for e in source_conflicts
    }
    got_conflicts = {frozenset(e_lit.fact for e_lit in e) for e in image_conflicts}
    source_repairs = delta_repairs_of(source, budget)
    image_repairs = delta_repairs_of(target, budget)
    expected_repairs = {
        image.signed_literals(source.agreement(r)) for r in source_repairs
    }
    return image, DenialCorrespondence(
        conflicts_match=expected_conflicts == got_conflicts,
        repairs_match=expected_repairs == set(image_repairs.repairs),
        source_conflicts=len(source_conflicts),
        image_conflicts=len(image_conflicts),
        source_repairs=len(source_repairs),
        image_repairs=len(image_repairs),
    )


def priority_to_rules(pdb: PrioritizedDatabase) -> tuple[GroundAIC, ...]:
    """One ground rule per conflict, repairing exactly the literals that do not
    outrank any other member of that conflict."""
    out = []
    for conflict in sorted(
        pdb.conflicts(), key=lambda e: sorted(map(literal_key, e))
    ):
        updates = frozenset(
            repair_action_for(lit)
            for lit in conflict
            if not any(
                pdb.priority.outranks(lit, other)
                for other in conflict
                if other != lit
            )
        )
        out.append(GroundAIC(frozenset(conflict), updates))
    return tuple(out)


def ground_rules_as_aics(rules: Sequence[GroundAIC]) -> tuple[AIC, ...]:
    """Re-express ground rules through the generic rule type (for printing and
    for the shared classification machinery)."""
    out = []
    for rule in rules:
        body = tuple(
            BodyAtom(l.positive, l.fact.predicate, l.fact.args)
            for l in sorted(rule.lits, key=literal_key)
        )
        updates = tuple(
            UpdateAtom(a.add, a.fact.predicate, a.fact.args)
            for a in sorted(rule.updates, key=action_key)
        )
        out.append(AIC.make(body, updates))
    return tuple(out)


@dataclass(frozen=True)
class EquivalenceReport:
    """Comparison of Pareto-optimal repairs with the r-update classes of the
    translated rules."""

    pareto: RepairSet
    founded: RepairSet
    grounded: RepairSet
    justified: RepairSet
    well_founded: RepairSet

    def ok(self) -> bool:
        sets = {
            tuple(self.founded.repairs),
            tuple(self.grounded.repairs),
            tuple(self.justified.repairs),
            tuple(self.pareto.repairs),
        }
        return len(sets) == 1 and set(self.pareto.repairs) <= set(
            self.well_founded.repairs
        )


def check_translation_equivalence(pdb: PrioritizedDatabase) -> EquivalenceReport:
    # The translated rule bodies are exactly the conflicts.  Conflicts lie in
    # one literal universe, so no two of them clash: their consensus closure is
    # themselves, and the rules' r-updates are the updates to the pdb's own
    # delta repairs.  Classifying those updates therefore classifies the
    # translated rules' r-updates, with no second consensus or enumeration.
    table = _classify_repairs(pdb, frozenset(priority_to_rules(pdb)))
    return EquivalenceReport(
        pareto=optimal_repairs(pdb, "pareto"),
        founded=reached_by_kind(pdb.db, table, "founded"),
        grounded=reached_by_kind(pdb.db, table, "grounded"),
        justified=reached_by_kind(pdb.db, table, "justified"),
        well_founded=reached_by_kind(pdb.db, table, "wellfounded"),
    )


def _classify_repairs(
    pdb: PrioritizedDatabase, ground: frozenset[GroundAIC]
) -> tuple[RUpdate, ...]:
    """The support properties, under the ground rules, of the updates that
    lead to the pdb's delta repairs."""
    updates = [actions_between(pdb.db, repair) for repair in pdb.delta_repairs()]
    return classify_updates(pdb.instance, ground, updates, pdb.budget)


def refine_constraint(
    constraint: UniversalConstraint, pool_constants: frozenset[Constant]
) -> frozenset[UniversalConstraint]:
    """All specializations of a denial constraint by (dis)equating variables.

    Each block of a partition of the variables and the pool constants (at most
    one constant per block) collapses to its constant or a representative
    variable; the result is saturated with inequalities between all remaining
    distinct variables and between variables and pool constants.
    """
    if not constraint.is_denial():
        raise InputError("refinement applies to denial constraints only")
    variables = sorted(constraint.variables())
    items: list[Term] = list(variables) + sorted(pool_constants)
    out: set[UniversalConstraint] = set()
    for partition in _partitions(items):
        if any(sum(not is_variable(t) for t in block) > 1 for block in partition):
            continue
        binding: dict[Term, Term] = {}
        for block in partition:
            consts = [t for t in block if not is_variable(t)]
            representative = consts[0] if consts else sorted(block)[0]
            for term in block:
                if is_variable(term):
                    binding[term] = representative
        if any(
            binding.get(l, l) == binding.get(r, r)
            for l, r in constraint.inequalities
        ):
            continue  # partition contradicts an inequality of the source rule
        body = tuple(atom.substituted(binding) for atom in constraint.body)
        remaining = sorted({t for atom in body for t in atom.terms if is_variable(t)})
        ineqs = {tuple(sorted(pair)) for pair in combinations(remaining, 2)}
        for var in remaining:
            for const in sorted(pool_constants):
                ineqs.add(tuple(sorted((var, const))))
        try:
            refined = UniversalConstraint.make(
                tuple(dict.fromkeys(body)), ineqs
            )
        except InputError:
            continue
        out.add(_canonical_constraint(refined))
    return frozenset(out)


def _partitions(items: Sequence[Term]):
    if not items:
        yield []
        return
    head, tail = items[0], items[1:]
    for rest in _partitions(tail):
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] | {head}] + rest[i + 1:]
        yield rest + [{head}]


def _canonical_constraint(constraint: UniversalConstraint) -> UniversalConstraint:
    """Canonicalize up to variable renaming: over all atom orders, rename
    variables in first-occurrence order and keep the least rendering."""
    best: Optional[tuple] = None
    chosen = constraint
    for order in permutations(constraint.body):
        renaming: dict[Term, Term] = {}
        for atom in order:
            for term in atom.terms:
                if is_variable(term) and term not in renaming:
                    renaming[term] = f"V{len(renaming)}"
        body = tuple(dict.fromkeys(atom.substituted(renaming) for atom in order))
        ineqs = frozenset(
            tuple(sorted((renaming.get(l, l), renaming.get(r, r))))
            for l, r in constraint.inequalities
        )
        key = (
            tuple((a.predicate, a.terms, a.positive) for a in body),
            tuple(sorted(ineqs)),
        )
        if best is None or key < best:
            best = key
            chosen = UniversalConstraint(body, ineqs)
    return chosen


def _subsumes(general: UniversalConstraint, specific: UniversalConstraint) -> bool:
    """An injective, constant-preserving embedding of the general body into a
    proper subset of the specific body."""
    general_atoms = list(general.body)
    specific_atoms = list(specific.body)

    def extend(index: int, mapping: dict[Term, Term], used: set[int]) -> bool:
        if index == len(general_atoms):
            return len(used) < len(specific_atoms)
        atom = general_atoms[index]
        for i, target in enumerate(specific_atoms):
            if i in used or target.predicate != atom.predicate:
                continue
            if len(target.terms) != len(atom.terms) or target.positive != atom.positive:
                continue
            trial = dict(mapping)
            ok = True
            for src, dst in zip(atom.terms, target.terms):
                if not is_variable(src):
                    if src != dst:
                        ok = False
                        break
                elif trial.setdefault(src, dst) != dst:
                    ok = False
                    break
            if ok and len(set(trial.values())) == len(trial):
                if extend(index + 1, trial, used | {i}):
                    return True
        return False

    return extend(0, {}, set())


def minimized_denials(
    constraints: Sequence[UniversalConstraint], budget: Budget = DEFAULT_BUDGET
) -> tuple[UniversalConstraint, ...]:
    """Refine every denial constraint and drop the subsumed refinements, so
    that violations are witnessed by injective body images."""
    pool = frozenset()
    for constraint in constraints:
        pool |= constraint.constants()
    refined: set[UniversalConstraint] = set()
    for constraint in constraints:
        if len(constraint.variables()) + len(pool) > 8:
            raise InputError(
                "constraint too wide to refine (more than 8 terms to partition)"
            )
        refined |= refine_constraint(constraint, pool)
    kept = [
        c
        for c in refined
        if not any(other != c and _subsumes(other, c) for other in refined)
    ]
    return tuple(sorted(kept, key=str))


def stored_priority_rules(
    constraints: Sequence[UniversalConstraint],
    precedence_predicate: str = "prec",
) -> tuple[AIC, ...]:
    """Data-independent active rules for denial constraints whose atoms carry a
    leading fact identifier: one rule per minimized constraint and body atom,
    guarded by the absence of a stored precedence over that atom's identifier."""
    out = []
    for constraint in minimized_denials(constraints):
        ids = []
        for atom in constraint.body:
            if not atom.terms:
                raise InputError(
                    f"atom {atom} has no leading identifier argument"
                )
            ids.append(atom.terms[0])
        for i, atom in enumerate(constraint.body):
            guards = tuple(
                BodyAtom(False, precedence_predicate, (ids[i], ids[j]))
                for j in range(len(ids))
                if j != i
            )
            update = UpdateAtom(False, atom.predicate, atom.terms)
            out.append(
                AIC.make(
                    tuple(constraint.body) + guards,
                    (update,),
                    constraint.inequalities,
                )
            )
    return tuple(out)


def priority_from_stored_facts(
    db: Database,
    constraints: Sequence[UniversalConstraint],
    schema: Schema,
    precedence_predicate: str = "prec",
) -> PriorityRelation:
    """Read the preference edges off the stored precedence facts: an edge joins
    two database facts when their identifiers are related."""
    ids: dict[Constant, Fact] = {}
    for fact in db:
        if fact.predicate != precedence_predicate and fact.args:
            ids[fact.args[0]] = fact
    edges = set()
    for fact in db:
        if fact.predicate == precedence_predicate and len(fact.args) == 2:
            strong, weak = fact.args
            if strong in ids and weak in ids:
                edges.add((Literal(ids[strong]), Literal(ids[weak])))
    return PriorityRelation(frozenset(edges))


@dataclass(frozen=True)
class DerivedPriority:
    """Result of reading a priority off a set of active rules: the constraint
    set, the derived edges or the cycle that blocks them, the body-minimal
    violated ground rules the edges came from, and every ground rule."""

    constraints: tuple[UniversalConstraint, ...]
    priority: Optional[PriorityRelation]
    cycle: Optional[tuple[Literal, ...]]
    minimal_ground: tuple[GroundAIC, ...]
    property_warnings: tuple[str, ...]
    ground: frozenset[GroundAIC]


def rules_to_priority(
    db: Database, schema: Schema, rules: Sequence[AIC], budget: Budget = DEFAULT_BUDGET
) -> DerivedPriority:
    """Derive preference edges from the update actions of the body-minimal
    violated ground rules: the literal kept outranks the one repaired, provided
    no such rule also offers to repair the kept literal."""
    ground = ground_rules(rules, rules_constants(db, rules))
    report = check_ground_properties(ground, budget)
    warnings = []
    if not report.closed_under_resolution:
        warnings.append("rule set is not closed under resolution")
    if not report.preserves_actions_resolution:
        warnings.append("rule set does not preserve actions under resolution")
    if not report.preserves_actions_strengthening:
        warnings.append("rule set does not preserve actions under strengthening")
    minimal = frozenset(
        rule
        for rule in ground
        if not any(other.lits < rule.lits for other in ground)
    )
    violated = [r for r in minimal if r.violated_by(db)]
    literals = sorted({l for r in violated for l in r.lits}, key=literal_key)
    edges = set()
    for strong in literals:
        for weak in literals:
            if strong == weak:
                continue
            together = [
                r for r in violated if strong in r.lits and weak in r.lits
            ]
            if not together:
                continue
            if any(repair_action_for(weak) in r.updates for r in together) and all(
                repair_action_for(strong) not in r.updates for r in together
            ):
                edges.add((strong, weak))
    priority = PriorityRelation(frozenset(edges))
    cycle = priority.find_cycle()
    ordered_minimal = tuple(
        sorted(minimal, key=lambda r: sorted(map(literal_key, r.lits)))
    )
    return DerivedPriority(
        constraints_of(rules),
        None if cycle is not None else priority,
        cycle,
        ordered_minimal,
        tuple(warnings),
        ground,
    )


@dataclass(frozen=True)
class RoundTripReport:
    """Comparison of the r-update classes of a rule set with the Pareto-optimal
    repairs of the derived prioritized database."""

    applicable: bool  # preconditions held and the derived priority was acyclic
    binary_conflicts: bool
    pareto: Optional[RepairSet]
    founded: Optional[RepairSet]
    grounded: Optional[RepairSet]
    justified: Optional[RepairSet]
    cycle: Optional[tuple[Literal, ...]]
    warnings: tuple[str, ...]

    def equal(self) -> bool:
        return (
            self.applicable
            and self.pareto is not None
            and self.founded is not None
            and self.pareto.repairs == self.founded.repairs
            and self.founded.repairs == self.grounded.repairs
            and self.grounded.repairs == self.justified.repairs
        )

    def founded_within_pareto(self) -> bool:
        return (
            self.applicable
            and self.founded is not None
            and set(self.founded.repairs) <= set(self.pareto.repairs)
        )

    def strictness_witnesses(self) -> tuple[Database, ...]:
        if not self.applicable or self.pareto is None or self.founded is None:
            return ()
        return tuple(
            r for r in self.pareto.repairs if r not in set(self.founded.repairs)
        )


def check_roundtrip(
    db: Database, schema: Schema, rules: Sequence[AIC], budget: Budget = DEFAULT_BUDGET
) -> RoundTripReport:
    derived = rules_to_priority(db, schema, rules, budget)
    if derived.cycle is not None:
        return RoundTripReport(
            applicable=False,
            binary_conflicts=False,
            pareto=None,
            founded=None,
            grounded=None,
            justified=None,
            cycle=derived.cycle,
            warnings=derived.property_warnings,
        )
    pdb = PrioritizedDatabase(
        db, schema, derived.constraints, derived.priority, budget
    )
    # derived.ground lies over rules_constants(db, rules), which is pdb.constants()
    table = _classify_repairs(pdb, derived.ground)
    return RoundTripReport(
        applicable=not derived.property_warnings,
        binary_conflicts=all(len(e) <= 2 for e in pdb.conflicts()),
        pareto=optimal_repairs(pdb, "pareto"),
        founded=reached_by_kind(db, table, "founded"),
        grounded=reached_by_kind(db, table, "grounded"),
        justified=reached_by_kind(db, table, "justified"),
        cycle=None,
        warnings=derived.property_warnings,
    )

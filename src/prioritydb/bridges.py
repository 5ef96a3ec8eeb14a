"""Translations between the constraint/priority world and active rules.

Four directions are covered: universal constraints to per-database ground
denial constraints over a signed schema; a prioritized database to ground
active rules fixing the least preferred literal of each conflict; denial
constraints with a stored preference relation to data-independent active
rules; and well-behaved active rules back to a prioritized database.  The
last direction, ``rules_to_priority`` and ``check_roundtrip``, reads the
ground rules and the prioritized database of one ``aic.RuleContext``.

Propositions 8 and 10 count the Pareto optima per part of a ``MaskContext``
and each r-update class per group of classified rows (not always the same
parts) in one ``EquivalenceReport``, and compare them by its ``within``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations, product
from math import prod
from typing import Optional, Sequence

from .aic import (
    GroundAIC,
    RuleContext,
    check_properties,
    class_choices,
    minimal_bodies_ground,
    repair_action_for,
)
from .errors import DEFAULT_BUDGET, Budget, InputError
from .masks import MaskContext, bits
from .model import (
    AIC,
    BodyAtom,
    Constant,
    Database,
    Fact,
    Instance,
    Literal,
    Schema,
    Term,
    UniversalConstraint,
    UpdateAtom,
    action_key,
    constraint_constants,
    is_variable,
    literal_key,
)
from .priorities import PrioritizedDatabase, PriorityRelation
from .repairs import delta_repairs_of


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


def _denial_image(inst: Instance) -> DenialImage:
    """Encode negative literals as facts of fresh absence predicates, with one
    ground denial constraint per conflict."""
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
            for fact in sorted(image.signed_literals(conflict))
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
    outrank any other member of that conflict: ``MaskContext.rule_rows`` on
    the conflict literals."""
    vertices = tuple(pdb._conflict_masks.index)
    return tuple(
        GroundAIC(frozenset(vertices[i] for i in bits(pos | neg)),
                  frozenset(repair_action_for(vertices[i]) for i in bits(add | rem)))
        for pos, neg, add, rem in pdb._masks.rule_rows
    )


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


def _listed(family: str, what: str) -> cached_property:
    """A family of an ``EquivalenceReport``, listed on first access."""
    return cached_property(lambda r: r.ctx.masks.repair_product(*r.families[family], what))


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Pareto-optimal repairs against r-update classes.  ``families`` maps
    each attribute name to parts ``(vertex mask, excluded masks)`` and per
    part the excluded masks of the family's restrictions to it: for
    'pareto' the parts of ``ctx``, for a class the groups of the classified
    rows, which are the conflict components that the rules join.  A family
    is their product."""

    ctx: MaskContext
    families: dict[str, tuple[Sequence[tuple[int, object]], Sequence[Sequence[int]]]]

    pareto = _listed("pareto", "optimal repair product")
    founded = _listed("founded", "r-update class product")
    grounded = _listed("grounded", "r-update class product")
    justified = _listed("justified", "r-update class product")
    well_founded = _listed("well_founded", "r-update class product")

    def count(self, family: str) -> int:
        return prod(map(len, self.families[family][1]))

    def within(self, small: str, large: str) -> bool:
        """Every repair of ``small`` is one of ``large``: per part of
        ``large``, each union of one restriction to it per part of ``small``
        that meets it is one of its choices.  The unions are distinct, so a
        part tries at most one more than its choices.  An empty ``small`` is
        within every family."""
        parts, choices = self.families[small]
        if not all(choices):
            return True
        owner = {i: p for p, (comp, _) in enumerate(parts) for i in bits(comp)}
        for (comp, _), allowed in zip(*self.families[large]):
            allowed = set(allowed)
            meeting = [{t & comp for t in choices[p]} for p in {owner[i] for i in bits(comp)}]
            if not all(sum(pick) in allowed for pick in product(*meeting)):
                return False
        return True

    def equal(self, first: str, *others: str) -> bool:
        """As many repairs in each family, and ``first`` within the others."""
        return all(self.count(f) == self.count(first) and self.within(first, f) for f in others)

    def ok(self) -> bool:
        """Proposition 8: founded, grounded and justified hold the
        Pareto-optimal repairs, which are well-founded."""
        return (self.equal("pareto", "founded", "grounded", "justified")
                and self.within("pareto", "well_founded"))


def _compared(ctx: MaskContext, rows: Sequence[tuple[int, Sequence[tuple[int, int]]]],
              classes: Sequence[str]) -> EquivalenceReport:
    """The Pareto optima per part of ``ctx``, then the given classes per group
    of the classified ``rows``, each capped as if it were listed."""
    families = {"pareto": (ctx.parts, ctx.optima("pareto"))}
    ctx.masks.check_product(*families["pareto"], "optimal repair product")
    groups = [(group, [t for t, _ in row]) for group, row in rows]
    for name in classes:
        # the R_UPDATE_CLASSES names drop the underscore
        families[name] = groups, class_choices(rows, name.replace("_", ""))
        ctx.masks.check_product(*families[name], "r-update class product")
    return EquivalenceReport(ctx, families)


def check_translation_equivalence(pdb: PrioritizedDatabase) -> EquivalenceReport:
    """Proposition 8 without listing: the classes of the translated rules.
    Their bodies are exactly the conflicts, so no two of them clash, their
    r-updates are the updates to the pdb's own delta repairs, and each rule
    lies in one conflict component."""
    ctx = pdb._masks
    masks = ctx.masks
    rows = masks.classified(ctx.rule_rows, masks.full & ~masks.absent)
    return _compared(ctx, rows, ("founded", "grounded", "justified", "well_founded"))


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
    pool = constraint_constants(constraints)
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
    db: Database, precedence_predicate: str = "prec"
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
    set, and the derived edges or the cycle that blocks them."""

    constraints: tuple[UniversalConstraint, ...]
    priority: Optional[PriorityRelation]
    cycle: Optional[tuple[Literal, ...]]
    property_warnings: tuple[str, ...]


def rules_to_priority(ctx: RuleContext) -> DerivedPriority:
    """Derive preference edges from the update actions of the body-minimal
    violated ground rules: the literal kept outranks the one repaired, provided
    no such rule also offers to repair the kept literal.  One pass over those
    rules collects the pairs ``(kept, repaired)`` of each rule's body, and the
    pairs whose first literal the rule repairs block the edges.  Merging the
    rules that share a body merges their pairs, so it keeps the edges."""
    report = check_properties(ctx)
    warnings = []
    if not report.closed_under_resolution:
        warnings.append("rule set is not closed under resolution")
    if not report.preserves_actions_resolution:
        warnings.append("rule set does not preserve actions under resolution")
    if not report.preserves_actions_strengthening:
        warnings.append("rule set does not preserve actions under strengthening")
    offered, blocked = set(), set()
    for rule in minimal_bodies_ground(ctx.ground):
        if rule.violated_by(ctx.db):
            for repaired in (l for l in rule.lits if repair_action_for(l) in rule.updates):
                offered.update((kept, repaired) for kept in rule.lits if kept != repaired)
                blocked.update((repaired, other) for other in rule.lits if other != repaired)
    priority = PriorityRelation(frozenset(offered - blocked))
    cycle = priority.find_cycle()
    return DerivedPriority(
        ctx.pdb.constraints, None if cycle is not None else priority, cycle, tuple(warnings)
    )


@dataclass(frozen=True)
class RoundTripReport:
    """Comparison of the r-update classes of a rule set with the Pareto-optimal
    repairs of the derived prioritized database."""

    applicable: bool  # preconditions held and the derived priority was acyclic
    binary_conflicts: bool
    equivalence: Optional[EquivalenceReport]  # None when the derived priority is cyclic
    cycle: Optional[tuple[Literal, ...]]
    warnings: tuple[str, ...]

    # the families, listed when read
    pareto = property(lambda r: r.equivalence and r.equivalence.pareto)
    founded = property(lambda r: r.equivalence and r.equivalence.founded)
    grounded = property(lambda r: r.equivalence and r.equivalence.grounded)
    justified = property(lambda r: r.equivalence and r.equivalence.justified)

    def equal(self) -> bool:
        return self.applicable and self.equivalence.equal(
            "pareto", "founded", "grounded", "justified")

    def founded_within_pareto(self) -> bool:
        return self.applicable and self.equivalence.within("founded", "pareto")

    def strictness_witnesses(self) -> tuple[Database, ...]:
        if not self.applicable or self.equivalence.within("pareto", "founded"):
            return ()
        founded = set(self.founded.repairs)
        return tuple(r for r in self.pareto.repairs if r not in founded)


def check_roundtrip(ctx: RuleContext) -> RoundTripReport:
    derived = rules_to_priority(ctx)
    if derived.cycle is not None:
        return RoundTripReport(False, False, None, derived.cycle, derived.property_warnings)
    pdb = ctx.pdb.with_priority(derived.priority)
    return RoundTripReport(
        applicable=not derived.property_warnings,
        equivalence=_compared(pdb._masks, ctx.rows, ("founded", "grounded", "justified")),
        binary_conflicts=all(len(e) <= 2 for e in pdb.conflicts()),
        cycle=None,
        warnings=derived.property_warnings,
    )

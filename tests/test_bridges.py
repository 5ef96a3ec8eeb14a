"""Translations between the frameworks and their verification reports."""

import random

import pytest

from conftest import (
    atom,
    cyclic_rules,
    example3_instance,
    example7_rules,
    example9_rules,
    fact,
    general_case_rules,
    intersection_example,
    lit,
    nonclosed_rules,
    prop_db,
    prop_schema,
)
from corpus import random_instance, with_random_priority
from prioritydb.aic import RuleContext, repairs_of_kind
from prioritydb.bridges import (
    check_denial_image,
    check_roundtrip,
    check_translation_equivalence,
    ground_rules_as_aics,
    minimized_denials,
    priority_from_stored_facts,
    priority_to_rules,
    rules_to_priority,
    stored_priority_rules,
)
from prioritydb.errors import Budget, BudgetExceededError, InputError
from prioritydb.model import Schema, UniversalConstraint
from prioritydb.priorities import PrioritizedDatabase, PriorityRelation, optimal_repairs


class TestDenialImage:
    def test_cascade_example(self, example1):
        image, report = check_denial_image(
            example1.db, example1.schema, example1.constraints
        )
        assert image.db == {
            fact("A", "a"),
            fact("B", "a"),
            fact("no_C", "a"),
            fact("no_D", "a"),
        }
        assert len(image.constraints) == 3
        assert all(c.is_denial() for c in image.constraints)
        assert report.ok()

    def test_no_conflicts(self, example1):
        db = frozenset({fact("A", "a"), fact("C", "a")})
        image, report = check_denial_image(db, example1.schema, example1.constraints)
        assert image.constraints == ()
        assert report.ok()

    def test_repair_count_preserved_on_binary_example(self):
        inst = example3_instance()
        _, report = check_denial_image(inst.db, inst.schema, inst.constraints)
        assert report.ok()
        assert report.source_repairs == report.image_repairs == 4
        assert report.source_conflicts == report.image_conflicts == 8


class TestPriorityToRules:
    def test_empty_priority_updates_everything(self, example1):
        pdb = PrioritizedDatabase(example1.db, example1.schema, example1.constraints)
        rules = priority_to_rules(pdb)
        assert len(rules) == 3
        assert all(len(r.updates) == len(r.lits) for r in rules)

    def test_dominated_literal_is_the_update(self, example3):
        rules = priority_to_rules(example3.pdb())
        by_body = {r.lits: r for r in rules}
        key = frozenset({lit("R", "d", "b"), lit("S", "a", "b")})
        assert {str(a) for a in by_body[key].updates} == {"-S(a, b)"}

    def test_singleton_conflict_updates_itself(self):
        db = frozenset({fact("A", "a")})
        schema = Schema.of([("A", 1)])
        constraints = (UniversalConstraint.make([atom("A", "X")]),)
        pdb = PrioritizedDatabase(db, schema, constraints)
        rules = priority_to_rules(pdb)
        assert len(rules) == 1
        assert {str(a) for a in rules[0].updates} == {"-A(a)"}

    def test_translation_is_monotone(self, example3):
        rules = priority_to_rules(example3.pdb())
        signs = {}
        for rule in rules:
            for l in rule.lits:
                signs.setdefault(l.fact, set()).add(l.positive)
        assert all(len(s) == 1 for s in signs.values())


class TestTranslationEquivalence:
    def test_binary_example(self, example3):
        report = check_translation_equivalence(example3.pdb())
        assert report.ok()
        assert len(report.pareto) == 4

    def test_intersection_example(self):
        report = check_translation_equivalence(intersection_example().pdb())
        assert report.ok()
        assert len(report.pareto) == 2

    def test_no_conflicts(self, example1):
        db = frozenset({fact("A", "a"), fact("C", "a")})
        pdb = PrioritizedDatabase(db, example1.schema, example1.constraints)
        report = check_translation_equivalence(pdb)
        assert report.ok()
        assert set(report.pareto.repairs) == {db}

    def test_an_empty_factor_passes_the_product_cap(self):
        # P(a0) and Q(a0) outrank each other, so no restriction to that pair
        # is Pareto-optimal or founded; the 3 open pairs would leave 6
        # literals in the free part of each product, above the cap of 2
        db = frozenset(fact(p, f"a{j}") for j in range(4) for p in "PQ")
        constraint = UniversalConstraint.make([atom("P", "X"), atom("Q", "X")])
        priority = PriorityRelation.of([(lit("P", "a0"), lit("Q", "a0")),
                                        (lit("Q", "a0"), lit("P", "a0"))])
        pdb = PrioritizedDatabase(db, Schema.of([("P", 1), ("Q", 1)]), (constraint,), priority,
                                  Budget(max_universe=2))
        report = check_translation_equivalence(pdb)
        families = ("pareto", "founded", "grounded", "justified", "well_founded")
        assert [report.count(f) for f in families] == [0] * 5
        assert report.ok() and len(report.pareto) == len(report.well_founded) == 0

    def test_classes_are_capped_per_conflict_component(self):
        # per copy s: a 4-literal component with one Pareto-optimal and two
        # well-founded restrictions, and a pair R(s), T(s) with one choice
        # that the stray edge R(s) > E(s) joins to it into one 6-literal part
        copies = ("s0", "s1")
        db = frozenset(f for s in copies for f in (
            fact("E", s), fact("P", s, "a"), fact("P", s, "b"), fact("Q", s, "b"),
            fact("R", s), fact("T", s)))
        constraints = (
            UniversalConstraint.make([atom("E", "S"), atom("P", "S", "X")]),
            UniversalConstraint.make([atom("P", "S", "a"), atom("Q", "S", "Y")]),
            UniversalConstraint.make([atom("E", "S"), atom("Q", "S", "b")]),
            UniversalConstraint.make([atom("R", "S"), atom("T", "S")]),
        )
        priority = PriorityRelation.of(e for s in copies for e in (
            (lit("P", s, "b"), lit("E", s)), (lit("P", s, "a"), lit("Q", s, "b")),
            (lit("R", s), lit("T", s)), (lit("R", s), lit("E", s))))
        schema = Schema.of([("E", 1), ("P", 2), ("Q", 2), ("R", 1), ("T", 1)])
        pdb = lambda cap: PrioritizedDatabase(db, schema, constraints, priority,
                                              Budget(max_universe=cap))
        report = check_translation_equivalence(pdb(8))
        families = ("pareto", "founded", "grounded", "justified", "well_founded")
        assert [report.count(f) for f in families] == [1, 1, 1, 1, 4] and report.ok()
        assert len(pdb(8)._masks.parts) == 2
        # the well-founded product frees the two 4-literal components, not
        # the two 6-literal parts
        with pytest.raises(BudgetExceededError, match="r-update class product has 8 elements"):
            check_translation_equivalence(pdb(7))

    def test_matches_classification_of_translated_rules(self):
        """Oracle: the classes equal those of the translated rules, grounded
        again and classified over their own r-updates."""
        rng = random.Random(8)
        pdbs = [example3_instance().pdb()] + [
            with_random_priority(rng, random_instance(rng)) for _ in range(40)
        ]
        for pdb in pdbs:
            report = check_translation_equivalence(pdb)
            rules = ground_rules_as_aics(priority_to_rules(pdb))
            for kind, got in (
                ("founded", report.founded),
                ("wellfounded", report.well_founded),
                ("grounded", report.grounded),
                ("justified", report.justified),
            ):
                assert got == repairs_of_kind(RuleContext(pdb.db, pdb.schema, rules), kind)

    def test_well_founded_may_be_larger(self):
        """Rules shaped like the layered removal example keep a well-founded
        r-update that is not founded."""
        from conftest import example5_rules

        db = prop_db("al", "be", "ga", "de")
        schema = prop_schema("al", "be", "ga", "de")
        ctx = RuleContext(db, schema, example5_rules())
        founded = repairs_of_kind(ctx, "founded")
        wf = repairs_of_kind(ctx, "wellfounded")
        assert set(founded.repairs) < set(wf.repairs)


class TestMinimizedDenials:
    def test_subsumption_example(self):
        constraints = (
            UniversalConstraint.make([atom("R", "X", "Y"), atom("S", "Y")]),
            UniversalConstraint.make([atom("R", "X", "X")]),
        )
        got = {str(c) for c in minimized_denials(constraints)}
        assert got == {
            "R(V0, V0) -> false",
            "R(V0, V1), S(V1), V0 != V1 -> false",
        }

    def test_rejects_non_denial(self):
        constraint = UniversalConstraint.make([atom("A", "X")], head=[("B", ("X",))])
        with pytest.raises(InputError):
            minimized_denials((constraint,))

    def test_injective_images_are_conflicts(self):
        from prioritydb.conflicts import conflicts

        constraints = (
            UniversalConstraint.make([atom("R", "X", "Y"), atom("S", "Y")]),
            UniversalConstraint.make([atom("R", "X", "X")]),
        )
        db = frozenset({fact("R", "a", "a"), fact("S", "a"), fact("R", "a", "b"), fact("S", "b")})
        schema = Schema.of([("R", 2), ("S", 1)])
        found = conflicts(db, schema, constraints)
        assert found == conflicts(db, schema, minimized_denials(constraints))
        # {R(a,a), S(a)} is not a conflict: R(a,a) alone already violates
        assert frozenset({lit("R", "a", "a"), lit("S", "a")}) not in found
        # every conflict is an injective image of some minimized body
        minimized = minimized_denials(constraints)
        for conflict in found:
            facts_of = {l.fact for l in conflict}
            assert any(
                len(c.body) == len(facts_of)
                and _embeds_injectively(c, facts_of)
                for c in minimized
            )


def _embeds_injectively(constraint, facts_of) -> bool:
    atoms = list(constraint.body)

    def extend(index, mapping, used):
        if index == len(atoms):
            return True
        atom = atoms[index]
        for target in facts_of:
            if target in used or target.predicate != atom.predicate:
                continue
            if len(target.args) != len(atom.terms):
                continue
            trial = dict(mapping)
            ok = True
            for src, dst in zip(atom.terms, target.args):
                if trial.setdefault(src, dst) != dst:
                    ok = False
                    break
            if ok and len(set(trial.values())) == len(trial):
                if extend(index + 1, trial, used | {target}):
                    return True
        return False

    return extend(0, {}, set())


class TestStoredPriorityRules:
    def test_unary_constraint_single_unguarded_rule(self):
        rules = stored_priority_rules((UniversalConstraint.make([atom("A", "I")]),))
        assert len(rules) == 1
        assert str(rules[0]) == "A(V0) -> { -A(V0) }"

    def test_functional_dependency_guarded_pair(self):
        fd = (
            UniversalConstraint.make(
                [atom("S", "I1", "X", "Y"), atom("S", "I2", "X", "Z")], [("Y", "Z")]
            ),
        )
        rules = stored_priority_rules(fd)
        fully_distinct = [
            r for r in rules if len({t for a in r.body for t in a.terms}) == 5
        ]
        assert len(fully_distinct) == 2
        for rule in fully_distinct:
            guards = [a for a in rule.body if a.predicate == "prec"]
            assert len(guards) == 1 and not guards[0].positive

    def test_semantics_match_stored_preference(self):
        fd = (
            UniversalConstraint.make(
                [atom("S", "I1", "X", "Y"), atom("S", "I2", "X", "Z")], [("Y", "Z")]
            ),
        )
        rules = stored_priority_rules(fd)
        schema = Schema.of([("S", 3), ("prec", 2)])
        db = frozenset(
            {fact("S", "i1", "a", "b"), fact("S", "i2", "a", "i1"), fact("prec", "i1", "i2")}
        )
        priority = priority_from_stored_facts(db, fd, schema)
        assert priority.edges == {
            (lit("S", "i1", "a", "b"), lit("S", "i2", "a", "i1"))
        }
        pdb = PrioritizedDatabase(db, schema, fd, priority)
        pareto = optimal_repairs(pdb, "pareto")
        ctx = RuleContext(db, schema, rules)
        founded = repairs_of_kind(ctx, "founded")
        grounded = repairs_of_kind(ctx, "grounded")
        justified = repairs_of_kind(ctx, "justified")
        assert (
            set(pareto.repairs)
            == set(founded.repairs)
            == set(grounded.repairs)
            == set(justified.repairs)
        )
        assert len(pareto) == 1


class TestRulesToPriority:
    def test_cycle_is_reported(self):
        db = frozenset({fact("A", "a"), fact("B", "a"), fact("C", "a")})
        schema = Schema.of([("A", 1), ("B", 1), ("C", 1)])
        derived = rules_to_priority(RuleContext(db, schema, cyclic_rules()))
        assert derived.cycle is not None
        assert derived.priority is None
        names = [str(l) for l in derived.cycle]
        assert names[0] == names[-1] and len(set(names)) == 3

    def test_layered_rules_edges(self):
        db = prop_db("al", "be", "ga", "de")
        derived = rules_to_priority(
            RuleContext(db, prop_schema("al", "be", "ga", "de"), example9_rules()))
        assert {(str(a), str(b)) for a, b in derived.priority.edges} == {
            ("al", "de"),
            ("be", "ga"),
        }

    def test_single_rule_edge(self):
        from conftest import prop_rule

        rules = (prop_rule([("al", True), ("be", True)], [("be", False)]),)
        derived = rules_to_priority(RuleContext(prop_db("al", "be"), prop_schema("al", "be"), rules))
        assert {(str(a), str(b)) for a, b in derived.priority.edges} == {("al", "be")}


class TestRoundtrip:
    def test_binary_well_behaved_equality(self, example3):
        rules = ground_rules_as_aics(priority_to_rules(example3.pdb()))
        report = check_roundtrip(RuleContext(example3.db, example3.schema, rules))
        assert report.applicable and report.binary_conflicts
        assert report.equal()

    def test_not_closed_counterexample(self):
        report = check_roundtrip(RuleContext(
            prop_db("al", "be", "ga"), prop_schema("al", "be", "ga"), nonclosed_rules()
        ))
        assert "rule set is not closed under resolution" in report.warnings
        assert set(report.founded.repairs) == {prop_db("al")}
        assert set(report.pareto.repairs) == {prop_db("al"), prop_db("be", "ga")}

    def test_not_action_preserving_counterexample(self):
        report = check_roundtrip(RuleContext(
            prop_db("al", "be", "ga"),
            prop_schema("al", "be", "ga", "de"),
            example7_rules(),
        ))
        assert "rule set does not preserve actions under resolution" in report.warnings
        assert set(report.pareto.repairs) == {prop_db("be")}
        assert prop_db("al", "ga", "de") in set(report.founded.repairs)

    def test_not_strengthening_counterexample(self):
        report = check_roundtrip(RuleContext(
            prop_db("al", "be", "ga", "de"),
            prop_schema("al", "be", "ga", "de"),
            example9_rules(),
        ))
        assert "rule set does not preserve actions under strengthening" in report.warnings
        assert set(report.pareto.repairs) == {prop_db("al", "be")}
        assert prop_db("be", "de") in set(report.founded.repairs)

    def test_general_case_strict_inclusion(self):
        report = check_roundtrip(RuleContext(
            prop_db("al", "be", "ga", "de", "ep"),
            prop_schema("al", "be", "ga", "de", "ep"),
            general_case_rules(),
        ))
        assert report.applicable and not report.binary_conflicts
        assert report.founded_within_pareto()
        assert report.strictness_witnesses() == (prop_db("be", "ep", "ga"),)

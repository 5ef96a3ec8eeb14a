"""Active integrity rules: r-updates, the four support classes, rewrites, and
well-behavedness properties."""

import pytest

from conftest import (
    action,
    fact,
    example5_rules,
    example6_rules,
    example7_rules,
    example8_rules,
    example9_rules,
    prop_db,
    prop_rule,
    prop_schema,
    rule,
)
from prioritydb.aic import (
    RuleContext,
    apply_actions,
    check_properties,
    classify_r_updates,
    classify_updates,
    ground_rules,
    is_founded,
    is_grounded,
    is_grounded_via_pruned_rules,
    is_justified,
    is_well_founded,
    anti_normalize_ground,
    minimal_bodies_ground,
    normalize_ground,
    r_updates,
    repairs_of_kind,
)
from prioritydb.errors import Budget, BudgetExceededError, InputError
from prioritydb.model import Schema, facts_universe


def prop_context(names, rules):
    """The rules on the database of the named atoms, over every atom they
    mention."""
    atoms = sorted(set(names) | {a.predicate for r in rules for a in r.body})
    return RuleContext(prop_db(*names), prop_schema(*atoms), rules)


def table(db, schema, rules):
    return {
        frozenset(entry.actions): entry
        for entry in classify_r_updates(RuleContext(db, schema, rules))
    }


class TestApply:
    def test_removal(self):
        db = prop_db("al", "be")
        assert apply_actions(db, {action("be")}) == prop_db("al")

    def test_additions_on_empty(self):
        got = apply_actions(
            frozenset(), {action("al", add=True), action("be", add=True), action("ga", add=True)}
        )
        assert got == prop_db("al", "be", "ga")

    def test_noop(self):
        db = prop_db("al")
        assert apply_actions(db, set()) == db

    def test_inconsistent_rejected(self):
        with pytest.raises(InputError):
            apply_actions(frozenset(), {action("al"), action("al", add=True)})


class TestRUpdates:
    def test_four_updates_on_layered_rules(self):
        names = ("al", "be", "ga", "de")
        got = r_updates(RuleContext(prop_db(*names), prop_schema(*names), example9_rules()))
        assert got == {
            frozenset({action("al"), action("ga")}),
            frozenset({action("de"), action("ga")}),
            frozenset({action("de"), action("be")}),
            frozenset({action("al"), action("be")}),
        }

    def test_consistent_database_empty_update(self):
        rules = (prop_rule([("al", True), ("be", True)], [("be", False)]),)
        got = r_updates(RuleContext(prop_db("al"), prop_schema("al", "be"), rules))
        assert got == {frozenset()}

    def test_additions_only_instance(self):
        got = r_updates(RuleContext(frozenset(), prop_schema("al", "be", "ga"), example6_rules()))
        assert got == {
            frozenset({action("al", add=True), action("be", add=True), action("ga", add=True)})
        }


class TestBudget:
    @pytest.mark.parametrize("check", ["wellfounded", "grounded", "pruned", "justified", "classify"])
    def test_caller_budget_caps_action_subsets(self, check):
        db = prop_db("al", "be", "ga", "de")
        schema = prop_schema("al", "be", "ga", "de")
        ctx = RuleContext(db, schema, example5_rules())
        ground = ctx.ground
        universe = facts_universe(db, schema)
        update = frozenset({action("be"), action("ga")})
        assert update in r_updates(ctx)
        run = {
            "wellfounded": lambda budget: is_well_founded(update, db, ground, budget),
            "grounded": lambda budget: is_grounded(update, db, ground, budget),
            "classify": lambda budget: classify_updates(db, ground, [update], budget)[0].grounded,
            "pruned": lambda budget: is_grounded_via_pruned_rules(update, db, ground, budget),
            "justified": lambda budget: is_justified(update, db, ground, universe, budget),
        }[check]
        assert run(Budget())
        with pytest.raises(BudgetExceededError, match="action set"):
            run(Budget(max_universe=1))

    def test_class_product_caps_the_groups_with_a_choice(self):
        # three independent rules p_i, q_i -> { -p_i, -q_i }: 6 conflict
        # literals in groups of 2, each with two founded updates
        names = [f"{a}{i}" for i in range(3) for a in "pq"]
        db, schema = prop_db(*names), prop_schema(*names)
        rules = tuple(
            prop_rule([(f"p{i}", True), (f"q{i}", True)], [(f"p{i}", False), (f"q{i}", False)])
            for i in range(3)
        )
        with pytest.raises(BudgetExceededError, match="^r-update class product has 6 elements"):
            repairs_of_kind(RuleContext(db, schema, rules, Budget(max_universe=4)), "founded")
        ctx = RuleContext(db, schema, rules, Budget(max_universe=6))
        assert len(repairs_of_kind(ctx, "founded")) == 8
        # with one action per rule each group has one founded update
        rules = tuple(
            prop_rule([(f"p{i}", True), (f"q{i}", True)], [(f"q{i}", False)]) for i in range(3)
        )
        ctx = RuleContext(db, schema, rules, Budget(max_universe=2))
        assert len(repairs_of_kind(ctx, "founded")) == 1

    def test_unknown_class_raises_before_any_classification(self):
        # three independent rules p_i, q_i -> { -q_i }: groups of 2 conflict
        # literals, above a cap of 1
        names = [f"{a}{i}" for i in range(3) for a in "pq"]
        db, schema = prop_db(*names), prop_schema(*names)
        rules = tuple(
            prop_rule([(f"p{i}", True), (f"q{i}", True)], [(f"q{i}", False)]) for i in range(3)
        )
        with pytest.raises(BudgetExceededError, match="^conflict literal set has 2 elements"):
            repairs_of_kind(RuleContext(db, schema, rules, Budget(max_universe=1)), "founded")
        with pytest.raises(InputError, match="unknown r-update class: bogus"):
            repairs_of_kind(RuleContext(db, schema, rules, Budget(max_universe=1)), "bogus")


class TestClassification:
    def test_well_founded_but_not_founded(self):
        t = table(prop_db("al", "be", "ga", "de"), prop_schema("al", "be", "ga", "de"), example5_rules())
        founded_only = frozenset({action("be"), action("ga")})
        wf_only = frozenset({action("al"), action("ga")})
        neither = frozenset({action("al"), action("de")})
        assert t[founded_only].founded and t[founded_only].well_founded
        assert t[founded_only].grounded and t[founded_only].justified
        assert not t[wf_only].founded and t[wf_only].well_founded
        assert not t[wf_only].grounded and not t[wf_only].justified
        assert not t[neither].founded and not t[neither].well_founded

    def test_founded_not_grounded(self):
        t = table(frozenset(), prop_schema("al", "be", "ga"), example6_rules())
        update = frozenset(
            {action("al", add=True), action("be", add=True), action("ga", add=True)}
        )
        entry = t[update]
        assert entry.founded and entry.well_founded
        assert not entry.grounded and not entry.justified

    @pytest.mark.parametrize("which", [0, 1])
    def test_founded_pair_with_unreachable_order(self, which):
        rules = example8_rules()[which]
        t = table(prop_db("al", "be", "ga"), prop_schema("al", "be", "ga"), rules)
        assert set(t) == {
            frozenset({action("ga")}),
            frozenset({action("al"), action("be")}),
        }
        assert t[frozenset({action("ga")})].founded
        both = t[frozenset({action("al"), action("be")})]
        assert both.founded and not both.well_founded
        assert not both.grounded and not both.justified

    def test_layered_rules_classification_table(self):
        t = table(prop_db("al", "be", "ga", "de"), prop_schema("al", "be", "ga", "de"), example9_rules())
        flags = {
            frozenset({action("al"), action("ga")}): (True, True, True, True),
            frozenset({action("de"), action("ga")}): (True, True, True, True),
            frozenset({action("de"), action("be")}): (False, True, False, False),
            frozenset({action("al"), action("be")}): (False, False, False, False),
        }
        for actions, (f, w, g, j) in flags.items():
            entry = t[actions]
            assert (entry.founded, entry.well_founded, entry.grounded, entry.justified) == (f, w, g, j)

    def test_empty_update_trivially_everything(self):
        rules = (prop_rule([("al", True), ("be", True)], [("be", False)]),)
        t = table(prop_db("al"), prop_schema("al", "be"), rules)
        entry = t[frozenset()]
        assert entry.founded and entry.well_founded and entry.grounded and entry.justified

    def test_inclusion_diagram(self):
        for db, schema, rules in [
            (prop_db("al", "be", "ga", "de"), prop_schema("al", "be", "ga", "de"), example5_rules()),
            (frozenset(), prop_schema("al", "be", "ga"), example6_rules()),
            (prop_db("al", "be", "ga"), prop_schema("al", "be", "ga"), example7_rules()),
            (prop_db("al", "be", "ga", "de"), prop_schema("al", "be", "ga", "de"), example9_rules()),
        ]:
            normal = all(len(r.updates) == 1 for r in rules)
            for entry in classify_r_updates(RuleContext(db, schema, rules)):
                assert not entry.grounded or entry.founded
                assert not entry.grounded or entry.well_founded
                assert not entry.justified or entry.founded
                assert not entry.justified or entry.well_founded
                if normal:
                    assert not entry.justified or entry.grounded

    def test_grounded_oracle_agreement(self):
        for db, schema, rules in [
            (prop_db("al", "be", "ga", "de"), prop_schema("al", "be", "ga", "de"), example5_rules()),
            (frozenset(), prop_schema("al", "be", "ga"), example6_rules()),
            (prop_db("al", "be", "ga", "de"), prop_schema("al", "be", "ga", "de"), example9_rules()),
        ]:
            ctx = RuleContext(db, schema, rules)
            ground = ctx.ground
            for actions in r_updates(ctx):
                assert is_grounded(actions, db, ground) == is_grounded_via_pruned_rules(
                    actions, db, ground
                )


def _reference_flags(actions, db, ground, universe):
    return (
        is_founded(actions, db, ground),
        is_well_founded(actions, db, ground),
        is_grounded(actions, db, ground),
        is_justified(actions, db, ground, universe),
    )


def _flags(entry):
    return (entry.founded, entry.well_founded, entry.grounded, entry.justified)


class TestMaskClassifier:
    """Edge cases of ``classify_updates``, each against the definition-direct
    checks."""

    def setup_method(self):
        self.db = prop_db("al", "be", "ga", "de")
        self.rules = example5_rules()
        self.ground = RuleContext(self.db, prop_schema("al", "be", "ga", "de"), self.rules).ground
        self.universe = facts_universe(self.db, prop_schema("al", "be", "ga", "de"))

    def classify(self, actions):
        (entry,) = classify_updates(self.db, self.ground, [actions])
        assert entry.actions == actions
        assert _flags(entry) == _reference_flags(actions, self.db, self.ground, self.universe)
        return _flags(entry)

    def test_empty_update_has_no_proper_subset(self):
        # the database violates the rules, so the empty update is no r-update,
        # yet it is vacuously founded, well-founded and grounded
        founded, well_founded, grounded, _ = self.classify(frozenset())
        assert founded and well_founded and grounded

    @pytest.mark.parametrize(
        "extra", [action("zz", add=True), action("al", add=True)], ids=["outside-every-rule", "offered-by-none"]
    )
    def test_action_no_rule_offers_fails_every_check(self, extra):
        # {-be, -ga} is founded, well-founded, grounded and justified
        for base in (frozenset(), frozenset({action("be"), action("ga")})):
            assert self.classify(base | {extra}) == (False, False, False, False)

    def test_inconsistent_set_rejected(self):
        with pytest.raises(InputError):
            classify_updates(self.db, self.ground, [frozenset({action("al"), action("al", add=True)})])

    def test_output_sorted_by_actions(self):
        updates = [frozenset({action("ga")}), frozenset({action("be")}), frozenset()]
        got = [entry.actions for entry in classify_updates(self.db, self.ground, updates)]
        assert got == [frozenset(), frozenset({action("be")}), frozenset({action("ga")})]

    def test_rules_over_binary_facts(self):
        # a key rule that repairs either side of each clash
        db = frozenset({fact("R", "d", "b"), fact("R", "d", "c"), fact("R", "e", "b")})
        rules = (
            rule([("R", ("X", "Y"), True), ("R", ("X", "Z"), True)],
                 [("R", ("X", "Z"), False)], [("Y", "Z")]),
        )
        schema = Schema.of([("R", 2)])
        ctx = RuleContext(db, schema, rules)
        ground = ctx.ground
        universe = facts_universe(db, schema)
        updates = r_updates(ctx)
        assert len(updates) == 2
        for entry in classify_updates(db, ground, updates):
            assert _flags(entry) == _reference_flags(entry.actions, db, ground, universe)
            assert _flags(entry) == (True, True, True, True)


class TestRewrites:
    def test_normalize_splits(self):
        rules = ground_rules(
            (prop_rule([("al", True), ("be", True)], [("al", False), ("be", False)]),),
            frozenset(),
        )
        split = normalize_ground(rules)
        assert len(split) == 2
        assert all(len(r.updates) == 1 for r in split)

    def test_anti_normalize_merges_and_is_idempotent(self):
        rules = ground_rules(
            (
                prop_rule([("al", True), ("be", True)], [("al", False)]),
                prop_rule([("al", True), ("be", True)], [("be", False)]),
            ),
            frozenset(),
        )
        merged = anti_normalize_ground(rules)
        assert len(merged) == 1
        assert anti_normalize_ground(normalize_ground(merged)) == merged

    def test_minimal_bodies_drops_redundant_rules(self):
        db, schema = prop_db("al", "be", "ga", "de"), prop_schema("al", "be", "ga", "de")
        ground = RuleContext(db, schema, example9_rules()).ground
        kept = minimal_bodies_ground(ground)
        bodies = {frozenset(str(l) for l in rule.lits) for rule in kept}
        assert bodies == {frozenset({"al", "de"}), frozenset({"be", "ga"})}

    def test_nonground_normalize_splits(self):
        from prioritydb.aic import normalize

        rules = normalize(
            (prop_rule([("al", True), ("be", True)], [("al", False), ("be", False)]),)
        )
        assert len(rules) == 2
        assert all(len(r.updates) == 1 for r in rules)

    def test_strengthening_preserving_sets_invariant_under_rewrites(self):
        """With actions preserved under strengthening, merging same bodies and
        dropping non-minimal ones changes no r-update class."""
        rules = (
            prop_rule([("al", True), ("be", True)], [("be", False)]),
            prop_rule([("al", True), ("be", True), ("ga", True)], [("be", False)]),
            prop_rule([("ga", True), ("de", True)], [("de", False)]),
        )
        db = prop_db("al", "be", "ga", "de")
        ctx = RuleContext(db, prop_schema("al", "be", "ga", "de"), rules)
        report = check_properties(ctx)
        assert report.preserves_actions_strengthening
        ground = ctx.ground
        merged = anti_normalize_ground(ground)
        trimmed = minimal_bodies_ground(ground)
        assert len(trimmed) < len(merged)
        for actions in r_updates(ctx):
            for check in (is_founded, is_well_founded, is_grounded):
                base = check(actions, db, ground)
                assert check(actions, db, merged) == base
                assert check(actions, db, trimmed) == base

    def test_classes_invariant_under_normalization(self):
        db = prop_db("al", "be", "ga", "de")
        schema = prop_schema("al", "be", "ga", "de")
        ctx = RuleContext(db, schema, example9_rules())
        ground = ctx.ground
        split = normalize_ground(ground)
        for actions in r_updates(ctx):
            for check in (is_founded, is_well_founded, is_grounded):
                assert check(actions, db, ground) == check(actions, db, split)


class TestProperties:
    def test_closed_but_not_action_preserving(self):
        report = check_properties(prop_context(("al", "be", "ga"), example7_rules()))
        assert report.closed_under_resolution
        assert not report.preserves_actions_resolution

    def test_not_closed_versus_closed(self):
        eta1, eta2 = example8_rules()
        first = check_properties(prop_context(("al", "be", "ga"), eta1))
        assert not first.closed_under_resolution
        second = check_properties(prop_context(("al", "be", "ga"), eta2))
        assert second.closed_under_resolution
        assert not second.preserves_actions_resolution

    def test_monotone_but_not_strengthening(self):
        report = check_properties(prop_context(("al", "be", "ga", "de"), example9_rules()))
        assert report.monotone
        assert report.preserves_actions_resolution
        assert not report.preserves_actions_strengthening

    def test_counterexamples_reported(self):
        report = check_properties(prop_context(("al", "be", "ga"), example7_rules()))
        kinds = [kind for kind, _ in report.counterexamples]
        assert kinds.count("preserves_actions_resolution") == 1


class TestValidation:
    def test_update_must_repair_body_literal(self):
        with pytest.raises(InputError):
            prop_rule([("al", True)], [("be", False)])

    def test_update_sign_must_oppose_literal(self):
        with pytest.raises(InputError):
            prop_rule([("al", True)], [("al", True)])

    def test_nonempty_updates_required(self):
        with pytest.raises(InputError):
            prop_rule([("al", True)], [])

"""Core model: fact/literal universes, agreement and restriction, grounding,
constraint satisfaction."""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import atom, example6_rules, example7_rules, fact, lit, neg
from corpus import random_instance, random_rule_instance
from prioritydb.aic import (
    GroundAIC,
    PropertyReport,
    RUpdate,
    RuleContext,
    UpdateAction,
    _rule_key,
    ground_rules,
)
from prioritydb.bridges import (
    DenialCorrespondence,
    DenialImage,
    DerivedPriority,
    EquivalenceReport,
    RoundTripReport,
)
from prioritydb.conflicts import ConflictHypergraph
from prioritydb.errors import Budget, InputError
import prioritydb
from prioritydb.model import (
    AIC,
    BodyAtom,
    Fact,
    Frozen,
    Instance,
    Literal,
    RepairSet,
    Schema,
    UniversalConstraint,
    UpdateAtom,
    agreement,
    by_predicate,
    facts_universe,
    ground,
    ground_body,
    literal_key,
    is_variable,
    literal_universe,
    matches,
    resolutions,
    restriction,
    satisfies,
    universe_constants,
)
from prioritydb.priorities import (
    PrioritizedDatabase,
    PriorityRelation,
    ScoreStructure,
    ValidationReport,
)
from prioritydb.query import AnswerSet, ConjunctiveQuery


class TestFactsUniverse:
    def test_cascade_example_universe(self, example1):
        got = facts_universe(example1.db, example1.schema)
        assert got == {fact("A", "a"), fact("B", "a"), fact("C", "a"), fact("D", "a")}

    def test_empty_active_domain(self):
        assert facts_universe(frozenset(), Schema.of([("A", 1)])) == frozenset()

    def test_binary_predicate_enumerates_tuples(self):
        db = frozenset({fact("R", "a", "b")})
        got = facts_universe(db, Schema.of([("R", 2)]))
        assert got == {
            fact("R", "a", "a"),
            fact("R", "a", "b"),
            fact("R", "b", "a"),
            fact("R", "b", "b"),
        }

    def test_zero_arity_survives_empty_domain(self):
        got = facts_universe(frozenset(), Schema.of([("p", 0), ("A", 1)]))
        assert got == {Fact("p")}

    def test_undeclared_predicate_rejected(self):
        with pytest.raises(InputError):
            facts_universe(frozenset({fact("Z", "a")}), Schema.of([("A", 1)]))

    def test_each_database_fact_is_checked_once(self, example1, monkeypatch):
        checked = []
        original = Schema.check_fact
        monkeypatch.setattr(
            Schema, "check_fact", lambda self, f: checked.append(f) or original(self, f)
        )
        inst = Instance(example1.db, example1.schema, example1.constraints)
        inst.conflicts, inst.facts, inst.check_facts()
        assert sorted(checked) == sorted(example1.db)

    @pytest.mark.parametrize("stage", ["facts", "conflicts"])
    def test_a_failed_check_raises_again(self, stage):
        inst = Instance(frozenset({fact("A", "a", "b")}), Schema.of([("A", 1)]))
        for _ in range(2):
            with pytest.raises(InputError, match=r"fact A\(a, b\) has 2 arguments, "
                                                 r"predicate A has arity 1"):
                getattr(inst, stage)


class TestLiteralUniverse:
    def test_cascade_example_literals(self, example1):
        got = literal_universe(example1.db, example1.schema)
        assert got == {lit("A", "a"), lit("B", "a"), neg("C", "a"), neg("D", "a")}

    def test_full_database_all_positive(self):
        schema = Schema.of([("A", 1)])
        db = frozenset({fact("A", "a")})
        assert literal_universe(db, schema) == {lit("A", "a")}

    def test_empty_database_negative(self):
        schema = Schema.of([("p", 0)])
        assert literal_universe(frozenset(), schema) == {neg("p")}

    def test_size_matches_fact_universe(self, example1):
        assert len(literal_universe(example1.db, example1.schema)) == len(
            facts_universe(example1.db, example1.schema)
        )


class TestAgreementRestriction:
    def test_agreement_by_hand(self, example1):
        repair = frozenset({fact("A", "a"), fact("C", "a")})
        got = agreement(example1.db, example1.schema, repair)
        assert got == {lit("A", "a"), neg("D", "a")}

    def test_agreement_identity(self, example1):
        got = agreement(example1.db, example1.schema, example1.db)
        assert got == literal_universe(example1.db, example1.schema)

    def test_agreement_total_disagreement(self, example1):
        flipped = frozenset({fact("C", "a"), fact("D", "a")})
        assert agreement(example1.db, example1.schema, flipped) == frozenset()

    def test_agreement_rejects_stray_fact(self, example1):
        with pytest.raises(InputError):
            agreement(example1.db, example1.schema, frozenset({fact("A", "z")}))

    def test_restriction_by_hand(self, example1):
        kept = frozenset({lit("A", "a"), neg("D", "a")})
        got = restriction(example1.db, example1.schema, kept)
        assert got == {fact("A", "a"), fact("C", "a")}

    def test_restriction_of_everything_is_database(self, example1):
        lits = literal_universe(example1.db, example1.schema)
        assert restriction(example1.db, example1.schema, lits) == example1.db

    def test_restriction_of_nothing_is_complement(self, example1):
        got = restriction(example1.db, example1.schema, frozenset())
        assert got == {fact("C", "a"), fact("D", "a")}

    def test_restriction_rejects_stray_literal(self, example1):
        with pytest.raises(InputError):
            restriction(example1.db, example1.schema, frozenset({lit("C", "a")}))


# Small universe for the roundtrip property tests.
_SCHEMA = Schema.of([("P", 1), ("Q", 1), ("r", 0)])
_FACTS = [Fact("P", ("a",)), Fact("P", ("b",)), Fact("Q", ("a",)), Fact("Q", ("b",)), Fact("r")]


@st.composite
def _db_and_subset(draw):
    db = frozenset(draw(st.sets(st.sampled_from(_FACTS))))
    # keep the active domain stable so the universe is predictable
    db = db | {Fact("P", ("a",)), Fact("P", ("b",))}
    universe = facts_universe(db, _SCHEMA)
    repair = frozenset(draw(st.sets(st.sampled_from(sorted(universe)))))
    return db, repair


@settings(max_examples=200, deadline=None)
@given(_db_and_subset())
def test_roundtrip_restriction_of_agreement(data):
    db, repair = data
    back = restriction(db, _SCHEMA, agreement(db, _SCHEMA, repair))
    assert back == repair


@settings(max_examples=200, deadline=None)
@given(_db_and_subset())
def test_roundtrip_agreement_of_restriction(data):
    db, repair = data
    litset = agreement(db, _SCHEMA, repair)  # arbitrary literal subset generator
    again = agreement(db, _SCHEMA, restriction(db, _SCHEMA, litset))
    assert again == litset


@settings(max_examples=200, deadline=None)
@given(_db_and_subset(), _db_and_subset())
def test_difference_inclusion_flips_agreement(data1, data2):
    db, r1 = data1
    _, r2 = data2
    if (r1 ^ db) <= (r2 ^ db):
        a1 = agreement(db, _SCHEMA, r1)
        a2 = agreement(db, _SCHEMA, r2)
        assert a2 <= a1
        if (r1 ^ db) < (r2 ^ db):
            assert a2 < a1


@settings(max_examples=200, deadline=None)
@given(_db_and_subset(), _db_and_subset())
def test_antimonotone_restriction(data1, data2):
    db, r1 = data1
    _, r2 = data2
    b1 = agreement(db, _SCHEMA, r1)
    b2 = b1 | agreement(db, _SCHEMA, r2)
    small = restriction(db, _SCHEMA, b1)
    large = restriction(db, _SCHEMA, b2)
    assert large ^ db <= small ^ db
    if b1 < b2:
        assert large ^ db < small ^ db


class TestGrounding:
    def test_functional_dependency_instances(self):
        constraint = UniversalConstraint.make(
            [atom("S", "X", "Y"), atom("S", "X", "Z")], [("Y", "Z")]
        )
        got = ground(constraint, frozenset({"a", "b", "c"}))
        # one instance per x and unordered pair {y, z}; y = z instances drop out
        assert len(got) == 9
        assert all(len(body) == 2 for body in got)

    def test_ground_constraint_is_fixed_point(self):
        constraint = UniversalConstraint.make([atom("A", "a"), atom("D", "a")])
        got = ground(constraint, frozenset({"a", "b"}))
        assert got == {frozenset({lit("A", "a"), lit("D", "a")})}

    def test_cascade_rule_grounds_to_violation_body(self, example1):
        got = ground(example1.constraints[0], frozenset({"a"}))
        assert got == {frozenset({lit("A", "a"), neg("C", "a")})}

    def test_contradictory_instance_dropped(self):
        constraint = UniversalConstraint.make(
            [atom("A", "X"), atom("A", "X", positive=False)]
        )
        got = ground(constraint, frozenset({"a"}))
        assert got == frozenset()

    def test_join_keeps_the_bodies_whose_joined_atoms_are_facts(self):
        # on corpus instances: joining positive atoms with a random part of the
        # fact universe equals filtering the full grounding
        rng = random.Random(7)
        dropped = 0
        for _ in range(60):
            pdb = random_instance(rng)
            inst = Instance(pdb.db, pdb.schema, pdb.constraints)
            chosen = sorted(f for f in inst.facts if rng.random() < 0.5)
            for c in pdb.constraints:
                join = {
                    a.predicate: [f for f in chosen if f.predicate == a.predicate]
                    for a in c.body
                    if a.positive and rng.random() < 0.7
                }
                got = {
                    lits for lits, _ in ground_body(c.body, c.inequalities, inst.constants, join)
                }
                full = ground(c, inst.constants)
                expected = {
                    body
                    for body in full
                    if all(l.fact in chosen for l in body if l.positive and l.fact.predicate in join)
                }
                assert got == expected
                dropped += len(full) - len(got)
        assert dropped > 50


def _resolutions_all_pairs(terms):
    """Reference loop: every pair in order, its clashes found by a scan of the
    left term."""
    for i, left in enumerate(terms):
        for right in terms[i + 1:]:
            clashes = [l for l in left if l.negated() in right]
            if len(clashes) != 1:
                continue
            clash = clashes[0]
            resolvent = (left - {clash}) | (right - {clash.negated()})
            if len({l.fact for l in resolvent}) == len(resolvent):
                yield left, right, clash, resolvent


def _canonical(terms):
    return sorted(terms, key=lambda t: sorted(map(literal_key, t)))


class TestResolutions:
    def test_matches_all_pairs_loop_on_rule_bodies(self):
        rng = random.Random(0x5EED)
        pairs = 0
        for _ in range(200):
            inst = random_rule_instance(rng)
            ground = RuleContext(inst.db, inst.schema, inst.rules).ground
            terms = _canonical({r.lits for r in ground})
            rng.shuffle(terms)
            expected = list(_resolutions_all_pairs(terms))
            assert list(resolutions(terms)) == expected
            pairs += len(expected)
        assert pairs > 100

    def test_matches_all_pairs_loop_on_constraint_bodies(self):
        rng = random.Random(0xB0D1)
        pairs = 0
        for _ in range(200):
            pdb = random_instance(rng)
            terms = _canonical(pdb.instance.bodies)
            expected = list(_resolutions_all_pairs(terms))
            assert list(resolutions(terms)) == expected
            pairs += len(expected)
        assert pairs > 50

    @pytest.mark.parametrize("rules", [example6_rules, example7_rules])
    def test_matches_all_pairs_loop_on_paper_rules(self, rules):
        ground = sorted(ground_rules(rules(), frozenset()), key=_rule_key)
        terms = list(dict.fromkeys(r.lits for r in ground))  # as check_properties
        expected = list(_resolutions_all_pairs(terms))
        assert list(resolutions(terms)) == expected
        assert expected

    def test_example7_clash(self):
        # only {al, !de} and {be, de} clash, on de, resolving to {al, be}
        ground = sorted(ground_rules(example7_rules(), frozenset()), key=_rule_key)
        terms = list(dict.fromkeys(r.lits for r in ground))
        al, be, de = lit("al"), lit("be"), lit("de")
        assert list(resolutions(terms)) == [
            (frozenset({al, neg("de")}), frozenset({be, de}), neg("de"), frozenset({al, be}))
        ]


def _matches_nested_loop(atoms, facts_by_predicate):
    """Reference join: a nested loop over each atom's facts of its arity,
    last fact first (the order in which an explicit stack pops them)."""

    def extend(depth, binding):
        if depth == len(atoms):
            yield binding
            return
        predicate, terms = atoms[depth]
        for fact in reversed(facts_by_predicate.get(predicate, [])):
            if len(fact.args) != len(terms):
                continue
            out = dict(binding)
            if all(
                out.setdefault(t, v) == v if is_variable(t) else t == v
                for t, v in zip(terms, fact.args)
            ):
                yield from extend(depth + 1, out)

    return list(extend(0, {}))


# R lists facts of two arities, p is 0-ary, T has no facts.
_JOIN_TERMS = st.sampled_from(["X", "Y", "Z", "a", "b"])
_JOIN_ATOM = st.one_of(
    st.tuples(st.sampled_from(["R", "T"]), st.lists(_JOIN_TERMS, min_size=1, max_size=2)),
    st.tuples(st.just("S"), st.lists(_JOIN_TERMS, min_size=2, max_size=2)),
    st.tuples(st.just("p"), st.just([])),
).map(lambda a: (a[0], tuple(a[1])))
_JOIN_FACT = st.one_of(
    st.tuples(st.just("R"), st.lists(st.sampled_from("abc"), min_size=1, max_size=2)),
    st.tuples(st.just("S"), st.lists(st.sampled_from("abc"), min_size=2, max_size=2)),
    st.just(("p", [])),
).map(lambda f: Fact(f[0], tuple(f[1])))


def _assert_facts_are_the_matched_ones(atoms, indexed, found):
    """Each yielded fact is the listed object its atom maps onto."""
    for binding, matched in found:
        assert len(matched) == len(atoms)
        for (predicate, terms), f in zip(atoms, matched):
            assert any(f is listed for listed in indexed[predicate])
            assert f == Fact(predicate, tuple(binding.get(t, t) for t in terms))


class TestMatches:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_JOIN_ATOM, max_size=4), st.lists(_JOIN_FACT, max_size=14))
    @example([("R", ("X", "X")), ("S", ("X", "Y"))],
             [Fact("R", ("a", "a")), Fact("R", ("a", "b")), Fact("S", ("a", "c")), Fact("R", ("b",))])
    @example([("R", ("X",)), ("R", ("X", "Y")), ("p", ())], [Fact("R", ("a",)), Fact("R", ("a", "b"))])
    @example([("S", ("X", "a")), ("T", ("X",))], [Fact("S", ("b", "a"))])
    def test_same_bindings_in_the_same_order_as_a_nested_loop(self, atoms, facts):
        indexed = by_predicate(facts)
        found = list(matches(atoms, indexed))
        assert [binding for binding, _ in found] == _matches_nested_loop(atoms, indexed)
        _assert_facts_are_the_matched_ones(atoms, indexed, found)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_JOIN_ATOM, max_size=4),
        st.lists(_JOIN_FACT, max_size=14),
        st.lists(st.tuples(_JOIN_TERMS, _JOIN_TERMS), max_size=3),
    )
    @example([("R", ("X", "Y")), ("R", ("X", "Z"))],
             [Fact("R", ("a", "b")), Fact("R", ("a", "c")), Fact("R", ("b", "b"))], [("Y", "Z")])
    @example([("R", ("X",))], [Fact("R", ("a",))], [("a", "a")])
    @example([], [], [("a", "a")])
    @example([("R", ("X",))], [Fact("R", ("a",))], [("X", "Y")])
    def test_inequalities_drop_what_a_late_filter_drops(self, atoms, facts, inequalities):
        """A pair whose sides the atoms bind is tested; one they do not bind
        is not."""
        indexed = by_predicate(facts)
        found = list(matches(atoms, indexed, inequalities))
        assert [binding for binding, _ in found] == [
            b for b in _matches_nested_loop(atoms, indexed)
            if all(
                b.get(l, l) != b.get(r, r)
                for l, r in inequalities
                if all(t in b or not is_variable(t) for t in (l, r))
            )
        ]
        _assert_facts_are_the_matched_ones(atoms, indexed, found)

    def test_key_join_beside_clean_keys_yields_only_the_violations(self):
        db = [fact("R", f"k{k}", f"v{v}") for k in range(6) for v in (0, 1)]
        db += [fact("R", f"m{k}", "v0") for k in range(1000)]
        key = [("R", ("X", "Y")), ("R", ("X", "Z"))]
        assert len(list(matches(key, by_predicate(db), [("Y", "Z")]))) == 12


_FACT = st.builds(
    Fact, st.sampled_from(["R", "S"]), st.lists(st.sampled_from("ab"), max_size=2).map(tuple)
)


class TestHashedOnce:
    """Facts, literals and update actions hash, compare and order as their
    field tuples, in one process and across pickling."""

    @given(_FACT, _FACT, st.booleans(), st.booleans())
    def test_equality_hash_and_order_follow_the_field_tuples(self, a, b, sign_a, sign_b):
        assert (a == b) == ((a.predicate, a.args) == (b.predicate, b.args)) != (a != b)
        assert (a < b) == ((a.predicate, a.args) < (b.predicate, b.args))
        assert hash(a) == hash((a.predicate, a.args))
        la, lb = Literal(a, sign_a), Literal(b, sign_b)
        assert (la == lb) == ((a, sign_a) == (b, sign_b)) != (la != lb)
        assert (la < lb) == ((a, sign_a) < (b, sign_b))
        assert hash(la) == hash((a, sign_a))
        assert a._replace(args=b.args) == Fact(a.predicate, b.args)
        assert hash(la._replace(positive=sign_b)) == hash((a, sign_b))
        assert pickle.loads(pickle.dumps(la)) == la
        ua, ub = UpdateAction(sign_a, a), UpdateAction(sign_b, b)
        assert (ua == ub) == ((sign_a, a) == (sign_b, b)) != (ua != ub)
        assert (ua < ub) == ((sign_a, a) < (sign_b, b))
        assert hash(ua) == hash((sign_a, a))
        assert hash(ua._replace(fact=b)) == hash((sign_a, b))
        assert pickle.loads(pickle.dumps(ua)) == ua

    def test_value_pickled_under_another_hash_seed_is_found_in_a_set(self):
        seed = "1" if os.environ.get("PYTHONHASHSEED") == "2" else "2"
        code = (
            "import pickle, sys; from prioritydb.model import Fact, Literal; "
            "f = Fact('R', ('a', 'b')); "
            "sys.stdout.buffer.write(pickle.dumps((f, Literal(f, False), hash('R'))))"
        )
        src = str(Path(prioritydb.__file__).parents[1])
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        f, l, their_hash = pickle.loads(out.stdout)
        assert their_hash != hash("R")  # the string hashes did differ
        assert f in {fact("S", "a"), fact("R", "a", "b")}
        assert l in {neg("R", "a", "b")} and l not in {lit("R", "a", "b")}


# One value of each class that was a frozen dataclass, with the repr the
# dataclass gave it.  Single-member sets keep the text free of hash order.
_R = Fact("R", ("a",))
_LR = Literal(_R)
_R_SCHEMA = Schema((("R", 1),))
_ATOM = BodyAtom(True, "R", ("X",))
_DENIAL = UniversalConstraint((_ATOM,))
_PRIORITY = PriorityRelation(frozenset({(_LR, _LR.negated())}))
_QUERY = ConjunctiveQuery(("X",), (("R", ("X",)),))
_RULE = AIC((_ATOM,), frozenset(), (UpdateAtom(False, "R", ("X",)),))
_TEXT = {
    "R": "Fact(predicate='R', args=('a',))",
    "LR": "Literal(fact=Fact(predicate='R', args=('a',)), positive=True)",
    "ATOM": "BodyAtom(positive=True, predicate='R', terms=('X',))",
    "SCHEMA": "Schema(predicates=(('R', 1),))",
    "QUERY": "ConjunctiveQuery(head_vars=('X',), atoms=(('R', ('X',)),))",
}
_TEXT["DENIAL"] = f"UniversalConstraint(body=({_TEXT['ATOM']},), inequalities=frozenset())"
_TEXT["PRIORITY"] = (f"PriorityRelation(edges=frozenset({{({_TEXT['LR']}, "
                     f"{_TEXT['LR'][:-5]}False))}}))")
_TEXT["RULE"] = (f"AIC(body=({_TEXT['ATOM']},), inequalities=frozenset(), "
                 "updates=(UpdateAtom(add=False, predicate='R', terms=('X',)),))")
_DROP_R = "UpdateAction(add=False, fact=Fact(predicate='R', args=('a',)))"
VALUE_CLASSES = [
    (_ATOM, _TEXT["ATOM"]),
    (UniversalConstraint((_ATOM,), frozenset({("X", "b")})),
     f"UniversalConstraint(body=({_TEXT['ATOM']},), inequalities=frozenset({{('X', 'b')}}))"),
    (UpdateAtom(True, "R", ("X",)), "UpdateAtom(add=True, predicate='R', terms=('X',))"),
    (_RULE, _TEXT["RULE"]),
    (ValidationReport(False, (_LR, _LR)),
     f"ValidationReport(ok=False, cycle=({_TEXT['LR']}, {_TEXT['LR']}), stray_edges=())"),
    (ScoreStructure(((_LR, 2),), ((_LR,),)),
     f"ScoreStructure(score=(({_TEXT['LR']}, 2),), levels=(({_TEXT['LR']},),))"),
    (_QUERY, _TEXT["QUERY"]),
    (AnswerSet(_QUERY, "cqa", "pareto", (("a",),)),
     f"AnswerSet(query={_TEXT['QUERY']}, semantics='cqa', optimality='pareto', tuples=(('a',),))"),
    (ConflictHypergraph((_LR,), (frozenset({_LR}),)),
     f"ConflictHypergraph(vertices=({_TEXT['LR']},), hyperedges=(frozenset({{{_TEXT['LR']}}}),))"),
    (Budget(8), "Budget(max_universe=8)"),
    (RepairSet("delta", (frozenset({_R}),)),
     f"RepairSet(kind='delta', repairs=(frozenset({{{_TEXT['R']}}}),))"),
    (_R_SCHEMA, _TEXT["SCHEMA"]),
    (Instance(frozenset({_R}), _R_SCHEMA, (_DENIAL,)),
     f"Instance(db=frozenset({{{_TEXT['R']}}}), schema={_TEXT['SCHEMA']}, "
     f"constraints=({_TEXT['DENIAL']},))"),
    (_PRIORITY, _TEXT["PRIORITY"]),
    (PrioritizedDatabase(frozenset({_R}), _R_SCHEMA, (_DENIAL,), _PRIORITY, Budget(8)),
     f"PrioritizedDatabase(db=frozenset({{{_TEXT['R']}}}), schema={_TEXT['SCHEMA']}, "
     f"constraints=({_TEXT['DENIAL']},), priority={_TEXT['PRIORITY']}, "
     "budget=Budget(max_universe=8))"),
    (GroundAIC(frozenset({_LR}), frozenset({UpdateAction(False, _R)})),
     f"GroundAIC(lits=frozenset({{{_TEXT['LR']}}}), updates=frozenset({{{_DROP_R}}}))"),
    (RuleContext(frozenset({_R}), _R_SCHEMA, (_RULE,)),
     f"RuleContext(db=frozenset({{{_TEXT['R']}}}), schema={_TEXT['SCHEMA']}, "
     f"rules=({_TEXT['RULE']},), budget=Budget(max_universe=22))"),
    (RUpdate(frozenset({UpdateAction(False, _R)}), True, True, False, False),
     f"RUpdate(actions=frozenset({{{_DROP_R}}}), founded=True, well_founded=True, "
     "grounded=False, justified=False)"),
    (PropertyReport(True, False, True, True, (("monotone", "fact R(a)"),)),
     "PropertyReport(monotone=True, closed_under_resolution=False, "
     "preserves_actions_resolution=True, preserves_actions_strengthening=True, "
     "counterexamples=(('monotone', 'fact R(a)'),))"),
    (DenialImage(frozenset({_R}), _R_SCHEMA, (_DENIAL,), (("R", "no_R"),)),
     f"DenialImage(db=frozenset({{{_TEXT['R']}}}), schema={_TEXT['SCHEMA']}, "
     f"constraints=({_TEXT['DENIAL']},), absence_predicates=(('R', 'no_R'),))"),
    (DenialCorrespondence(True, False, 1, 1, 2, 3),
     "DenialCorrespondence(conflicts_match=True, repairs_match=False, source_conflicts=1, "
     "image_conflicts=1, source_repairs=2, image_repairs=3)"),
    (EquivalenceReport(None, {}), "EquivalenceReport(ctx=None, families={})"),
    (DerivedPriority((_DENIAL,), _PRIORITY, None, ("w",)),
     f"DerivedPriority(constraints=({_TEXT['DENIAL']},), priority={_TEXT['PRIORITY']}, "
     "cycle=None, property_warnings=('w',))"),
    (RoundTripReport(False, True, None, (_LR,), ("w",)),
     f"RoundTripReport(applicable=False, binary_conflicts=True, equivalence=None, "
     f"cycle=({_TEXT['LR']},), warnings=('w',))"),
]


class TestValueClasses:
    """The classes that were frozen dataclasses keep their repr, their
    equality and hash by field tuple, their immutability and their pickling.
    Named tuples also equal a plain tuple of their fields; ``Frozen``
    subclasses equal only their own class, and ``EquivalenceReport`` only
    itself."""

    @pytest.mark.parametrize("value, text", VALUE_CLASSES,
                             ids=[type(v).__name__ for v, _ in VALUE_CLASSES])
    def test_repr_equality_hash_immutability_and_pickling(self, value, text):
        cls = type(value)
        assert repr(value) == text
        fields = tuple(getattr(value, name) for name in cls._fields)
        again, changed = cls(*fields), cls(*fields[:-1], "other")
        if cls is EquivalenceReport:
            assert value == value and again != value and hash(again) != hash(value)
        else:
            assert again == value and hash(again) == hash(value) == hash(fields)
            assert changed != value and hash(changed) == hash(fields[:-1] + ("other",))
            assert (value == fields) == (not isinstance(value, Frozen))
        for name in (cls._fields[0], "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, fields[0])
            with pytest.raises(AttributeError):
                delattr(value, name)
        unpickled = pickle.loads(pickle.dumps(value))
        assert type(unpickled) is cls and repr(unpickled) == text
        assert unpickled == value or cls is EquivalenceReport

    def test_with_priority_shares_instance_and_conflict_masks(self):
        pdb = VALUE_CLASSES[14][0]
        copy = pdb.with_priority(PriorityRelation())
        assert copy == PrioritizedDatabase(pdb.db, pdb.schema, pdb.constraints,
                                           PriorityRelation(), pdb.budget)
        assert copy.instance is pdb.instance
        assert copy._conflict_masks is pdb._conflict_masks


class TestSatisfies:
    def test_violating_database(self, example1):
        assert not satisfies(example1.db, example1.constraints)

    def test_empty_database_satisfies_safe_constraints(self, example1):
        assert satisfies(frozenset(), example1.constraints)

    def test_repair_satisfies(self, example1):
        assert satisfies(frozenset({fact("A", "a"), fact("C", "a")}), example1.constraints)

    def test_matches_grounding_over_universe(self, example1):
        constants = universe_constants(example1.db, example1.constraints)
        assert satisfies(example1.db, example1.constraints, constants) == satisfies(
            example1.db, example1.constraints
        )


class TestConstraintValidation:
    def test_unsafe_negative_variable(self):
        with pytest.raises(InputError):
            UniversalConstraint.make([atom("A", "X", positive=False)])

    def test_unsafe_inequality_variable(self):
        with pytest.raises(InputError):
            UniversalConstraint.make([atom("A", "X")], [("X", "Y")])

    def test_unsatisfiable_constraint_rejected(self):
        with pytest.raises(InputError):
            UniversalConstraint.make([])

    def test_head_folds_into_body(self):
        constraint = UniversalConstraint.make([atom("A", "X")], head=[("C", ("X",))])
        signs = sorted((a.positive, a.predicate) for a in constraint.body)
        assert signs == [(False, "C"), (True, "A")]

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 2 and 3 pin the optimal-repair rows and query judgments of worked
example 3 (``example3_instance`` in ``conftest``).  Their values come from the
definitions in ``prioritydb.priorities``: dominance is edge membership, a
global improvement needs a newly kept literal outranking each sacrificed one,
and a repair is completion-optimal when it is globally optimal under some
total extension of the priority.  Criterion 2 derives each row by scanning
every candidate database against those definitions, without the engine's
optimality checks, and asserts the explicit completion under which ``only_rdb``
is optimal; criterion 3 reads the judgments off those rows.
"""

from __future__ import annotations

import random
from itertools import combinations

from conftest import (
    action,
    cyclic_rules,
    example3_instance,
    example3_repairs,
    example5_rules,
    example6_rules,
    example7_rules,
    example8_rules,
    example9_rules,
    fact,
    general_case_rules,
    intersection_example,
    lit,
    neg,
    nonclosed_rules,
    prop_db,
    prop_schema,
)
from corpus import random_query
from test_random_properties import (
    monotone_rule_corpus,
    pdb_corpus,
    rule_corpus,
    well_behaved_corpus,
)

from prioritydb.aic import (
    RuleContext,
    classify_r_updates,
    r_updates,
)
from prioritydb.bridges import (
    check_denial_image,
    check_roundtrip,
    check_translation_equivalence,
    rules_to_priority,
)
from prioritydb.conflicts import conflicts
from prioritydb.model import satisfies
from prioritydb.oracles import (
    completion_optimal_repairs_bruteforce,
    completions,
    conflicts_via_hitting_sets,
    delta_repairs_bruteforce,
    is_global_improvement,
    is_grounded,
    is_grounded_via_pruned_rules,
    is_pareto_improvement,
)
from prioritydb.priorities import (
    PriorityRelation,
    co_conflicting_pairs,
    detect_score_structure,
    lexicographic_repairs,
    optimal_repairs,
    validate_priority,
)
from prioritydb.query import ConjunctiveQuery, answers, repairs_intersection
from prioritydb.repairs import delta_repairs


def report(number: int, name: str, problems: list[str]) -> None:
    verdict = "PASS" if not problems else f"FAIL ({problems[0]})"
    print(f"ACCEPTANCE {number} {name}: {verdict}")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


def test_acceptance_01_cascade_conflicts_and_repairs(example1):
    problems = []
    found = conflicts(example1.db, example1.schema, example1.constraints)
    expected_conflicts = {
        frozenset({lit("A", "a"), neg("C", "a")}),
        frozenset({lit("B", "a"), neg("D", "a")}),
        frozenset({lit("A", "a"), lit("B", "a")}),
    }
    if found != expected_conflicts:
        problems.append("conflict set differs")
    repairs = set(delta_repairs(example1.db, example1.schema, example1.constraints).repairs)
    expected_repairs = {
        frozenset(),
        frozenset({fact("A", "a"), fact("C", "a")}),
        frozenset({fact("B", "a"), fact("D", "a")}),
    }
    if repairs != expected_repairs:
        problems.append("repair set differs")
    report(1, "cascade fixture", problems)


def conflict_fact_databases(conflict_set) -> list[frozenset]:
    """Every database over the facts whose literals occur in some conflict."""
    facts = sorted({l.fact for c in conflict_set for l in c}, key=str)
    return [
        frozenset(chosen)
        for size in range(len(facts) + 1)
        for chosen in combinations(facts, size)
    ]


def test_acceptance_02_optimal_repair_sets():
    problems = []
    pdb = example3_instance().pdb()
    reps = example3_repairs()
    conflict_set = pdb.conflicts()
    expected_sets = {
        "completion": {reps["keep_rdb_sac"], reps["only_rdb"]},
        "global": {reps["keep_rdb_sac"], reps["only_rdb"], reps["only_rdc"]},
        "pareto": set(reps.values()),
    }

    # Priority edges join conflict literals only, so nothing outranks a literal
    # outside the conflicts and no improvement may sacrifice one.  Every repair
    # here lies inside the conflict facts, so improvements lie among their
    # 2^6 subsets, 16 of which are consistent.
    if not validate_priority(pdb.priority, conflict_set).ok:
        problems.append("priority joins literals outside a shared conflict")
    candidates = conflict_fact_databases(conflict_set)
    consistent = [c for c in candidates if pdb.instance.consistent(c)]
    if (len(candidates), len(consistent)) != (64, 16):
        problems.append("candidate scan is not the 64 subsets with 16 consistent")

    def unimproved(improves, priority) -> set:
        under = pdb.with_priority(priority)
        return {
            r for r in reps.values() if not any(improves(c, r, under) for c in candidates)
        }

    # global witness: no candidate globally improves only_rdc
    if any(is_global_improvement(c, reps["only_rdc"], pdb) for c in candidates):
        problems.append("a candidate globally improves only_rdc")
    # completion witness: a total extension under which only_rdb is unimproved
    total = PriorityRelation.of(
        [
            (lit("R", "d", "b"), lit("R", "d", "c")),
            (lit("R", "d", "b"), lit("S", "a", "b")),
            (lit("S", "a", "b"), neg("A", "a")),
            (lit("S", "a", "b"), neg("B", "a")),
            (lit("S", "a", "b"), lit("S", "a", "c")),
            (neg("A", "a"), lit("S", "a", "c")),
            (lit("S", "a", "c"), neg("B", "a")),
            (lit("S", "a", "c"), lit("R", "d", "c")),
        ]
    )
    if not (
        validate_priority(total, conflict_set).ok
        and pdb.priority.edges <= total.edges
        and {frozenset(e) for e in total.edges} == co_conflicting_pairs(conflict_set)
    ):
        problems.append("completion witness is not a total acyclic extension")
    if reps["only_rdb"] not in unimproved(is_global_improvement, total):
        problems.append("completion witness admits a global improvement of only_rdb")

    by_definition = {
        "pareto": unimproved(is_pareto_improvement, pdb.priority),
        "global": unimproved(is_global_improvement, pdb.priority),
        "completion": set().union(
            *(
                unimproved(is_global_improvement, t)
                for t in completions(pdb.priority, conflict_set)
            )
        ),
    }
    for kind, expected in expected_sets.items():
        if by_definition[kind] != expected:
            problems.append(f"{kind}-optimal set differs from its definitional scan")
        got = set(optimal_repairs(pdb, kind).repairs)
        if got != expected:
            problems.append(
                f"{kind}-optimal set differs (got {len(got)}, expected {len(expected)})"
            )
    if set(completion_optimal_repairs_bruteforce(pdb).repairs) != expected_sets["completion"]:
        problems.append("completion enumeration differs")
    if set(pdb.delta_repairs().repairs) != set(
        optimal_repairs(pdb, "pareto").repairs
    ):
        problems.append("plain repairs differ from the pareto-optimal ones")
    report(2, "optimal repair sets", problems)


def test_acceptance_03_query_judgments():
    problems = []
    pdb = example3_instance().pdb()
    a_query = ConjunctiveQuery.make((), [("A", ("a",))])
    r_exists = ConjunctiveQuery.make((), [("R", ("d", "Y"))])
    rdb = ConjunctiveQuery.make((), [("R", ("d", "b"))])
    # only_rdb lacks A(a), only_rdc and keep_rdc_sab lack R(d,b); both
    # completion-optimal repairs keep R(d,b), which Pareto cannot certify
    expected_judgments = [
        ("brave", "pareto", a_query, True),
        ("cqa", "pareto", a_query, False),
        ("cqa", "pareto", r_exists, True),
        ("intersection", "pareto", r_exists, False),
        ("cqa", "completion", a_query, False),
        ("cqa", "global", a_query, False),
        ("cqa", "global", rdb, False),
        ("cqa", "completion", rdb, True),
        ("cqa", "pareto", rdb, False),
    ]
    for semantics, optimality, query, expected in expected_judgments:
        got = answers(pdb, query, semantics, optimality).holds()
        if got != expected:
            problems.append(
                f"{semantics}/{optimality} judgment flipped (expected {expected})"
            )
    report(3, "query judgments", problems)


def test_acceptance_04_inconsistent_intersection():
    problems = []
    inst = intersection_example()
    inter = repairs_intersection(inst.pdb(), "pareto")
    if inter != {fact("A", "a")}:
        problems.append("intersection differs")
    if satisfies(inter, inst.constraints):
        problems.append("intersection unexpectedly consistent")
    report(4, "inconsistent intersection", problems)


def test_acceptance_05_rule_fixtures():
    problems = []

    def classify(db, schema, rules):
        return {frozenset(e.actions): e for e in classify_r_updates(RuleContext(db, schema, rules))}

    # layered removals: one founded update, one only well-founded
    t5 = classify(prop_db("al", "be", "ga", "de"), prop_schema("al", "be", "ga", "de"), example5_rules())
    founded5 = {a for a, e in t5.items() if e.founded}
    if founded5 != {frozenset({action("be"), action("ga")})}:
        problems.append("layered fixture founded set differs")
    wf_only = t5.get(frozenset({action("al"), action("ga")}))
    if wf_only is None or wf_only.founded or not wf_only.well_founded:
        problems.append("layered fixture well-founded-only update differs")

    # additions fixture: a unique r-update, founded and well-founded only
    t6 = classify(frozenset(), prop_schema("al", "be", "ga"), example6_rules())
    the_update = frozenset(
        {action("al", add=True), action("be", add=True), action("ga", add=True)}
    )
    if set(t6) != {the_update}:
        problems.append("additions fixture r-update set differs")
    else:
        entry = t6[the_update]
        if not (entry.founded and entry.well_founded) or entry.grounded or entry.justified:
            problems.append("additions fixture classification differs")

    # two rule sets sharing the same two founded updates, one unreachable
    for index, rules in enumerate(example8_rules()):
        t8 = classify(prop_db("al", "be", "ga"), prop_schema("al", "be", "ga"), rules)
        founded8 = {a for a, e in t8.items() if e.founded}
        if founded8 != {
            frozenset({action("ga")}),
            frozenset({action("al"), action("be")}),
        }:
            problems.append(f"pair fixture {index} founded set differs")
        both = t8.get(frozenset({action("al"), action("be")}))
        if both is None or both.well_founded:
            problems.append(f"pair fixture {index} order unexpectedly exists")

    # layered conflicts: the exact four-row classification table
    t9 = classify(prop_db("al", "be", "ga", "de"), prop_schema("al", "be", "ga", "de"), example9_rules())
    expected9 = {
        frozenset({action("al"), action("ga")}): (True, True, True, True),
        frozenset({action("de"), action("ga")}): (True, True, True, True),
        frozenset({action("de"), action("be")}): (False, True, False, False),
        frozenset({action("al"), action("be")}): (False, False, False, False),
    }
    if set(t9) != set(expected9):
        problems.append("four-conflict fixture r-update set differs")
    else:
        for actions, flags in expected9.items():
            entry = t9[actions]
            got = (entry.founded, entry.well_founded, entry.grounded, entry.justified)
            if got != flags:
                problems.append("four-conflict fixture classification differs")
                break
    report(5, "rule classification fixtures", problems)


def test_acceptance_06_well_behavedness_counterexamples():
    problems = []

    # not closed under resolution: pareto keeps a repair that is not founded
    r1 = check_roundtrip(
        RuleContext(prop_db("al", "be", "ga"), prop_schema("al", "be", "ga"), nonclosed_rules())
    )
    if set(r1.founded.repairs) != {prop_db("al")} or set(r1.pareto.repairs) != {
        prop_db("al"),
        prop_db("be", "ga"),
    }:
        problems.append("non-closed counterexample differs")

    # closed but not action-preserving: pareto and founded disagree
    r2 = check_roundtrip(RuleContext(
        prop_db("al", "be", "ga"), prop_schema("al", "be", "ga", "de"), example7_rules()
    ))
    if set(r2.pareto.repairs) != {prop_db("be")} or prop_db("al", "ga", "de") not in set(
        r2.founded.repairs
    ):
        problems.append("non-action-preserving counterexample differs")

    # not strengthening-preserving: founded keeps an update pareto rejects
    r3 = check_roundtrip(RuleContext(
        prop_db("al", "be", "ga", "de"),
        prop_schema("al", "be", "ga", "de"),
        example9_rules(),
    ))
    if set(r3.pareto.repairs) != {prop_db("al", "be")} or prop_db("be", "de") not in set(
        r3.founded.repairs
    ):
        problems.append("non-strengthening counterexample differs")

    # derived preference cycle of length three
    from prioritydb.model import Schema

    derived = rules_to_priority(RuleContext(
        frozenset({fact("A", "a"), fact("B", "a"), fact("C", "a")}),
        Schema.of([("A", 1), ("B", 1), ("C", 1)]),
        cyclic_rules(),
    ))
    if derived.cycle is None or len(set(derived.cycle)) != 3:
        problems.append("cyclic example did not report a 3-cycle")

    # ternary conflicts: founded strictly inside pareto
    r4 = check_roundtrip(RuleContext(
        prop_db("al", "be", "ga", "de", "ep"),
        prop_schema("al", "be", "ga", "de", "ep"),
        general_case_rules(),
    ))
    if not r4.founded_within_pareto() or r4.strictness_witnesses() != (
        prop_db("be", "ep", "ga"),
    ):
        problems.append("general-case strict inclusion not witnessed")
    report(6, "well-behavedness counterexamples", problems)


def test_acceptance_07_oracle_equivalences():
    problems = []
    conflict_diffs = repair_diffs = completion_diffs = 0
    for base, prioritized, total, _ in pdb_corpus():
        if conflicts(base.db, base.schema, base.constraints) != conflicts_via_hitting_sets(
            base.db, base.schema, base.constraints
        ):
            conflict_diffs += 1
        if (
            delta_repairs(base.db, base.schema, base.constraints).repairs
            != delta_repairs_bruteforce(base.db, base.schema, base.constraints).repairs
        ):
            repair_diffs += 1
        for pdb in (prioritized, total):
            if (
                optimal_repairs(pdb, "completion").repairs
                != completion_optimal_repairs_bruteforce(pdb).repairs
            ):
                completion_diffs += 1
    grounded_diffs = 0
    for inst in rule_corpus():
        ctx = inst.context()
        ground = ctx.ground
        for actions in r_updates(ctx):
            if is_grounded(actions, inst.db, ground) != is_grounded_via_pruned_rules(
                actions, inst.db, ground
            ):
                grounded_diffs += 1
    for label, count in [
        ("conflict characterizations", conflict_diffs),
        ("repair enumeration", repair_diffs),
        ("completion-optimal checking", completion_diffs),
        ("grounded characterization", grounded_diffs),
    ]:
        if count:
            problems.append(f"{label}: {count} discrepancies")
    report(7, "oracle equivalences on random corpus", problems)


def test_acceptance_08_property_suite():
    problems = []
    rng = random.Random(0xD1CE)
    for base, prioritized, total, (scored, _) in pdb_corpus():
        for pdb in (prioritized, total, scored):
            completion = set(optimal_repairs(pdb, "completion").repairs)
            global_ = set(optimal_repairs(pdb, "global").repairs)
            pareto = set(optimal_repairs(pdb, "pareto").repairs)
            delta = set(pdb.delta_repairs().repairs)
            if not (completion <= global_ <= pareto <= delta):
                problems.append("optimality chain violated")
            if not completion:
                problems.append("no completion-optimal repair")
        if len(optimal_repairs(total, "pareto")) != 1:
            problems.append("total priority with several pareto-optimal repairs")
        conflict_set = conflicts(scored.db, scored.schema, scored.constraints)
        structure = detect_score_structure(scored.priority, conflict_set)
        if structure is None:
            problems.append("score structure not recognized")
        else:
            lex = set(lexicographic_repairs(scored, structure).repairs)
            for kind in ("pareto", "global", "completion"):
                if set(optimal_repairs(scored, kind).repairs) != lex:
                    problems.append("score-structured collapse violated")
        query = random_query(rng, prioritized)
        for optimality in ("none", "pareto"):
            inter = set(answers(prioritized, query, "intersection", optimality).tuples)
            cqa = set(answers(prioritized, query, "cqa", optimality).tuples)
            brave = set(answers(prioritized, query, "brave", optimality).tuples)
            if not (inter <= cqa <= brave):
                problems.append("semantics implication chain violated")
        _, image_report = check_denial_image(base.db, base.schema, base.constraints)
        if not image_report.ok():
            problems.append("signed-image correspondence violated")
        if not check_translation_equivalence(prioritized).ok():
            problems.append("translated-rules equivalence violated")
        if problems:
            break
    for inst in monotone_rule_corpus():
        for entry in classify_r_updates(inst.context()):
            if not (entry.founded == entry.grounded == entry.justified):
                problems.append("monotone collapse violated")
            if entry.founded and not entry.well_founded:
                problems.append("monotone founded update without an order")
        if problems:
            break
    report(8, "property suite on random corpus", problems)


def test_acceptance_09_roundtrip():
    problems = []
    usable = 0
    for inst in well_behaved_corpus():
        outcome = check_roundtrip(inst.context())
        if outcome.cycle is not None:
            continue  # acyclicity is a stated precondition
        usable += 1
        if not outcome.applicable or not outcome.binary_conflicts:
            problems.append("generated instance broke its own preconditions")
            break
        if not outcome.equal():
            problems.append("pareto and r-update classes disagree")
            break
    if usable < len(well_behaved_corpus()) // 2:
        problems.append("too few acyclic instances generated")
    report(9, "rules-to-priority roundtrip", problems)

"""Priority relations, improvements, optimal repairs, completions, scores."""

import gc
import sys
import threading

import pytest

from conftest import (
    atom,
    example3_repairs,
    fact,
    intersection_example,
    lit,
    neg,
)
from prioritydb.conflicts import conflicts
from prioritydb.errors import Budget, BudgetExceededError, InputError
from prioritydb.model import Schema, UniversalConstraint
from prioritydb.oracles import (
    completion_optimal_repairs_bruteforce,
    completions,
    greedy_optimal_repair,
    is_global_improvement,
    is_pareto_improvement,
)
from prioritydb.priorities import (
    PrioritizedDatabase,
    PriorityRelation,
    detect_score_structure,
    is_optimal_repair,
    lexicographic_repairs,
    optimal_repairs,
    score_structure_from_scores,
    validate_priority,
)
from prioritydb.repairs import delta_repairs


class TestValidation:
    def test_binary_example_edges_valid(self, example3):
        report = validate_priority(
            example3.priority,
            conflicts(example3.db, example3.schema, example3.constraints),
        )
        assert report.ok

    def test_two_cycle_rejected(self, example1):
        priority = PriorityRelation.of(
            [(lit("A", "a"), lit("B", "a")), (lit("B", "a"), lit("A", "a"))]
        )
        report = validate_priority(
            priority, conflicts(example1.db, example1.schema, example1.constraints)
        )
        assert not report.ok and report.cycle is not None

    def test_stray_edge_rejected(self, example1):
        priority = PriorityRelation.of([(lit("A", "a"), neg("D", "a"))])
        report = validate_priority(
            priority, conflicts(example1.db, example1.schema, example1.constraints)
        )
        assert not report.ok and report.stray_edges


class TestImprovements:
    def test_global_but_not_pareto(self, example3):
        pdb = example3.pdb()
        reps = example3_repairs()
        better, repair = reps["keep_rdb_sac"], reps["keep_rdc_sab"]
        # no single added literal outranks both sacrificed ones, but each
        # sacrificed literal is outranked by some added one
        assert not is_pareto_improvement(better, repair, pdb)
        assert is_global_improvement(better, repair, pdb)

    def test_undominated_sacrifice_blocks_improvement(self, example3):
        pdb = example3.pdb()
        reps = example3_repairs()
        # the absence of A(a) is sacrificed but no added literal outranks it
        assert not is_global_improvement(reps["keep_rdb_sac"], reps["only_rdc"], pdb)

    def test_same_database_is_no_improvement(self, example3):
        pdb = example3.pdb()
        repair = example3_repairs()["only_rdb"]
        assert not is_pareto_improvement(repair, repair, pdb)
        assert not is_global_improvement(repair, repair, pdb)

    def test_empty_priority_admits_no_improvement(self, example1):
        pdb = example1.pdb()
        for repair in pdb.delta_repairs():
            for other in pdb.delta_repairs():
                assert not is_pareto_improvement(other, repair, pdb)
                assert not is_global_improvement(other, repair, pdb)

    def test_inconsistent_candidate_is_no_improvement(self, example3):
        pdb = example3.pdb()
        assert not is_pareto_improvement(
            example3.db, example3_repairs()["only_rdb"], pdb
        )


class TestOptimalRepairs:
    def test_binary_example_pareto(self, example3):
        got = optimal_repairs(example3.pdb(), "pareto")
        assert set(got.repairs) == set(example3_repairs().values())

    def test_binary_example_global(self, example3):
        reps = example3_repairs()
        got = optimal_repairs(example3.pdb(), "global")
        assert set(got.repairs) == {
            reps["keep_rdb_sac"],
            reps["only_rdb"],
            reps["only_rdc"],
        }

    def test_binary_example_completion(self, example3):
        # definition-direct value, cross-checked below against the completion
        # enumeration
        reps = example3_repairs()
        got = optimal_repairs(example3.pdb(), "completion")
        assert set(got.repairs) == {reps["keep_rdb_sac"], reps["only_rdb"]}

    def test_certificate_matches_completion_enumeration(self, example3):
        pdb = example3.pdb()
        fast = optimal_repairs(pdb, "completion")
        slow = completion_optimal_repairs_bruteforce(pdb)
        assert fast.repairs == slow.repairs

    def test_chain_of_inclusions(self, example3):
        pdb = example3.pdb()
        completion = set(optimal_repairs(pdb, "completion").repairs)
        global_ = set(optimal_repairs(pdb, "global").repairs)
        pareto = set(optimal_repairs(pdb, "pareto").repairs)
        delta = set(pdb.delta_repairs().repairs)
        assert completion <= global_ <= pareto <= delta
        assert completion

    def test_empty_priority_everything_optimal(self, example1):
        pdb = example1.pdb()
        delta = pdb.delta_repairs().repairs
        for kind in ("pareto", "global", "completion"):
            assert optimal_repairs(pdb, kind).repairs == delta


class TestIsOptimalRepair:
    def test_pareto_member(self, example3):
        assert is_optimal_repair(example3_repairs()["only_rdb"], example3.pdb(), "pareto")

    def test_global_non_member(self, example3):
        assert not is_optimal_repair(
            example3_repairs()["keep_rdc_sab"], example3.pdb(), "global"
        )

    def test_inconsistent_candidate(self, example3):
        assert not is_optimal_repair(example3.db, example3.pdb(), "pareto")

    def test_global_membership_reads_components_not_every_repair(self):
        # 60 conflict literals, far above the default cap of 22 on the delta
        # repairs; each of the 30 keys is its own component of 2 literals
        keys = 30
        db = frozenset(fact("R", f"k{i}", f"v{j}") for i in range(keys) for j in range(2))
        key = UniversalConstraint.make([atom("R", "X", "Y"), atom("R", "X", "Z")], [("Y", "Z")])
        priority = PriorityRelation.of(
            (lit("R", f"k{i}", "v0"), lit("R", f"k{i}", "v1")) for i in range(keys)
        )
        pdb = PrioritizedDatabase(db, Schema.of([("R", 2)]), (key,), priority)
        optimum = frozenset(fact("R", f"k{i}", "v0") for i in range(keys))
        flipped = optimum - {fact("R", "k7", "v0")} | {fact("R", "k7", "v1")}
        assert is_optimal_repair(optimum, pdb, "global")
        assert not is_optimal_repair(flipped, pdb, "global")
        assert is_optimal_repair(flipped, pdb, "none")

    def test_unknown_kind(self, example3):
        # rejected first, whether or not the candidate is a repair
        pdb = example3.pdb()
        for candidate in (example3_repairs()["only_rdb"], example3.db):
            with pytest.raises(InputError, match="unknown optimality kind"):
                is_optimal_repair(candidate, pdb, "bogus")


class TestCompletionCertificateCap:
    def test_a_later_witness_keeps_the_repair(self):
        # P(a) clashes with Q(a) and with T(a) and outranks Q(a): T(a) is
        # kept first and drops P(a), which frees Q(a)
        db = frozenset({fact("P", "a"), fact("Q", "a"), fact("T", "a")})
        constraints = (
            UniversalConstraint.make([atom("P", "X"), atom("Q", "X")]),
            UniversalConstraint.make([atom("P", "X"), atom("T", "X")]),
        )
        priority = PriorityRelation.of([(lit("P", "a"), lit("Q", "a"))])
        schema = Schema.of([("P", 1), ("Q", 1), ("T", 1)])
        pdb = PrioritizedDatabase(db, schema, constraints, priority)
        repair = frozenset({fact("Q", "a"), fact("T", "a")})
        assert is_optimal_repair(repair, pdb, "completion")
        assert repair in completion_optimal_repairs_bruteforce(pdb)

    def test_default_budget_keeps_the_result(self, example3):
        reps = example3_repairs()
        pdb = example3.pdb()
        assert is_optimal_repair(reps["keep_rdb_sac"], pdb, "completion")
        assert not is_optimal_repair(reps["keep_rdc_sab"], pdb, "completion")


class TestGreedy:
    def test_binary_example_canonical_tiebreak(self, example3):
        got = greedy_optimal_repair(example3.pdb())
        assert got == example3_repairs()["keep_rdb_sac"]

    def test_cascade_with_tiebreak(self, example1):
        got = greedy_optimal_repair(example1.pdb(), tiebreak=[lit("A", "a")])
        assert got == {fact("A", "a"), fact("C", "a")}

    def test_no_conflicts_returns_database(self, example1):
        db = frozenset({fact("A", "a"), fact("C", "a")})
        pdb = PrioritizedDatabase(db, example1.schema, example1.constraints)
        assert greedy_optimal_repair(pdb) == db

    def test_output_is_completion_optimal(self, example3):
        pdb = example3.pdb()
        got = greedy_optimal_repair(pdb)
        assert is_optimal_repair(got, pdb, "completion")


class TestCompletions:
    def test_total_priority_has_itself(self, example1):
        conflict_set = conflicts(example1.db, example1.schema, example1.constraints)
        total = PriorityRelation.of(
            [
                (lit("A", "a"), neg("C", "a")),
                (lit("B", "a"), neg("D", "a")),
                (lit("A", "a"), lit("B", "a")),
            ]
        )
        got = list(completions(total, conflict_set))
        assert got == [total]

    def test_empty_priority_counts_orientations(self, example1):
        conflict_set = conflicts(example1.db, example1.schema, example1.constraints)
        got = list(completions(PriorityRelation(), conflict_set))
        # three independent binary pairs, no orientation can build a cycle
        assert len(got) == 8

    def test_budget_caps_the_undirected_pairs(self, example1):
        conflict_set = conflicts(example1.db, example1.schema, example1.constraints)
        assert len(list(completions(PriorityRelation(), conflict_set, Budget(max_universe=3)))) == 8
        with pytest.raises(BudgetExceededError, match="^undirected pair set has 3 elements"):
            list(completions(PriorityRelation(), conflict_set, Budget(max_universe=2)))

    def test_all_outputs_are_valid_completions(self, example3):
        conflict_set = conflicts(example3.db, example3.schema, example3.constraints)
        pairs = {
            frozenset(p)
            for e in conflict_set
            for p in __import__("itertools").combinations(sorted(e, key=str), 2)
        }
        for total in completions(example3.priority, conflict_set):
            assert example3.priority.edges <= total.edges
            assert total.is_acyclic()
            oriented = {frozenset(edge) for edge in total.edges}
            assert pairs <= oriented


class TestScoreStructure:
    def test_binary_example_not_score_structured(self, example3):
        got = detect_score_structure(
            example3.priority,
            conflicts(example3.db, example3.schema, example3.constraints),
        )
        assert got is None

    def test_empty_priority_single_level(self, example1):
        got = detect_score_structure(
            PriorityRelation(),
            conflicts(example1.db, example1.schema, example1.constraints),
        )
        assert got is not None and len(got.levels) == 1

    def test_chain_inside_one_conflict(self):
        from conftest import atom
        from prioritydb.model import Schema, UniversalConstraint

        db = frozenset({fact("A", "a"), fact("B", "a"), fact("C", "a")})
        schema = Schema.of([("A", 1), ("B", 1), ("C", 1)])
        constraints = (
            UniversalConstraint.make([atom("A", "X"), atom("B", "X"), atom("C", "X")]),
        )
        priority = PriorityRelation.of(
            [
                (lit("A", "a"), lit("B", "a")),
                (lit("B", "a"), lit("C", "a")),
                (lit("A", "a"), lit("C", "a")),
            ]
        )
        got = detect_score_structure(
            priority, conflicts(db, schema, constraints)
        )
        assert got is not None
        assert [set(level) for level in got.levels] == [
            {lit("A", "a")},
            {lit("B", "a")},
            {lit("C", "a")},
        ]

    def test_scores_induce_edges(self, example1):
        conflict_set = conflicts(example1.db, example1.schema, example1.constraints)
        structure, priority = score_structure_from_scores(
            {lit("A", "a"): 2, lit("B", "a"): 1}, conflict_set
        )
        assert (lit("A", "a"), lit("B", "a")) in priority.edges
        assert (lit("B", "a"), neg("D", "a")) in priority.edges
        assert detect_score_structure(priority, conflict_set) is not None

    def test_long_chain_stays_below_the_recursion_limit(self):
        chain = [lit("P", f"c{i:04d}") for i in range(3000)]
        pairs = list(zip(chain, chain[1:]))
        priority = PriorityRelation.of(pairs)
        assert priority.find_cycle() is None
        got = detect_score_structure(priority, frozenset(map(frozenset, pairs)))
        assert got is not None and len(got.levels) == 3000


class TestLexicographic:
    def test_collapse_for_score_structured(self, example1):
        conflict_set = conflicts(example1.db, example1.schema, example1.constraints)
        structure, priority = score_structure_from_scores(
            {lit("A", "a"): 2, lit("B", "a"): 1}, conflict_set
        )
        pdb = PrioritizedDatabase(
            example1.db, example1.schema, example1.constraints, priority
        )
        lex = set(lexicographic_repairs(pdb, structure).repairs)
        for kind in ("pareto", "global", "completion"):
            assert set(optimal_repairs(pdb, kind).repairs) == lex

    def test_single_level_equals_delta(self, example1):
        pdb = example1.pdb()
        got = lexicographic_repairs(pdb)
        assert got.repairs == pdb.delta_repairs().repairs

    def test_no_conflicts_returns_database(self, example1):
        db = frozenset({fact("A", "a"), fact("C", "a")})
        pdb = PrioritizedDatabase(db, example1.schema, example1.constraints)
        assert lexicographic_repairs(pdb).repairs == (db,)

    def test_requires_score_structure(self, example3):
        with pytest.raises(InputError):
            lexicographic_repairs(example3.pdb())

    def test_a_stray_edge_joins_no_components(self):
        # P(a) > P(b) joins the two exclusion pairs into one part of 4
        # literals, above the cap; the levels compare each pair on its own
        base = _exclusion_pairs(["a", "b"], {"a": "P", "b": "Q"})
        pdb = PrioritizedDatabase(
            base.db, base.schema, base.constraints,
            PriorityRelation(base.priority.edges | {(lit("P", "a"), lit("P", "b"))}),
            Budget(max_universe=3),
        )
        with pytest.raises(BudgetExceededError, match="conflict literal set has 4 elements"):
            optimal_repairs(pdb, "pareto")
        assert lexicographic_repairs(pdb).repairs == (frozenset({fact("P", "a"), fact("Q", "b")}),)


class TestIntersectionExample:
    def test_pareto_set(self):
        inst = intersection_example()
        got = optimal_repairs(inst.pdb(), "pareto")
        assert set(got.repairs) == {
            frozenset({fact("A", "a"), fact("B", "a")}),
            frozenset({fact("A", "a"), fact("C", "a")}),
        }

    def test_total_priority_single_pareto_repair(self):
        inst = intersection_example()
        total = PriorityRelation.of(
            list(inst.priority.edges) + [(neg("B", "a"), neg("C", "a"))]
        )
        pdb = PrioritizedDatabase(inst.db, inst.schema, inst.constraints, total)
        got = optimal_repairs(pdb, "pareto")
        assert len(got) == 1
        assert optimal_repairs(pdb, "global").repairs == got.repairs


def _exclusion_pairs(tags, preferred: dict) -> PrioritizedDatabase:
    """P(tag) and Q(tag) exclude each other for every tag; ``preferred`` maps
    a tag to the predicate whose fact outranks the other one."""
    db = frozenset(fact(pred, tag) for tag in tags for pred in "PQ")
    constraint = UniversalConstraint.make([atom("P", "X"), atom("Q", "X")])
    edges = [
        (lit(strong, tag), lit("Q" if strong == "P" else "P", tag))
        for tag, strong in preferred.items()
    ]
    return PrioritizedDatabase(
        db, Schema.of([("P", 1), ("Q", 1)]), (constraint,), PriorityRelation.of(edges)
    )


class TestInstanceContext:
    def test_copy_under_another_priority_shares_instance_and_repairs(self):
        pdb = _exclusion_pairs(["a"], {"a": "P"})
        repairs = pdb.delta_repairs()
        copy = pdb.with_priority(PriorityRelation())
        assert copy.priority == PriorityRelation()
        assert copy.instance is pdb.instance
        assert copy.delta_repairs() is repairs
        assert len(optimal_repairs(copy, "pareto")) == 2
        assert len(optimal_repairs(pdb, "pareto")) == 1

    def test_dropped_database_is_not_retained(self):
        # Facts are tuples and take no weak reference, so the test counts the
        # references to a tag string of its own that only the session's facts
        # and literals hold: 2 are the local name and getrefcount's argument.
        tag = "".join(["drop", "ped"])

        def session() -> None:
            pdb = _exclusion_pairs([tag], {tag: "P"})
            for kind in ("pareto", "global", "completion"):
                optimal_repairs(pdb, kind)
            conflicts(pdb.db, pdb.schema, pdb.constraints)
            delta_repairs(pdb.db, pdb.schema, pdb.constraints)

        session()
        gc.collect()
        assert sys.getrefcount(tag) == 2

    def test_threads_that_first_read_one_database_get_equal_optima(self):
        """Cached values are written without a lock, so threads that read
        one first at once may each compute it; every thread still gets what
        a fresh database gives."""
        tags = [f"k{j}" for j in range(7)]
        make = lambda: _exclusion_pairs(tags, {tag: "PQ"[j % 2] for j, tag in enumerate(tags[:5])})
        kinds = ("pareto", "global", "completion")
        expected = {kind: optimal_repairs(make(), kind) for kind in kinds}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                pdb, barrier, found = make(), threading.Barrier(4), []

                def first_requests() -> None:
                    barrier.wait()
                    found.append({kind: optimal_repairs(pdb, kind) for kind in kinds})

                threads = [threading.Thread(target=first_requests) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert found == [expected] * 4
        finally:
            sys.setswitchinterval(interval)


class TestMaskAcyclicity:
    """``MaskContext.acyclic`` is decided on the mask nodes, only when
    completion asks, and agrees with ``PriorityRelation.is_acyclic``."""

    def test_decided_only_for_completion(self):
        pdb = _exclusion_pairs(["a", "b"], {"a": "P"})
        optimal_repairs(pdb, "pareto")
        optimal_repairs(pdb, "global")
        assert "acyclic" not in pdb.mask_context.__dict__
        optimal_repairs(pdb, "completion")
        assert pdb.mask_context.acyclic

    @pytest.mark.parametrize("edges, acyclic", [
        ([(lit("P", "a"), lit("P", "a"))], False),
        ([(neg("T", "a"), neg("U", "a"))], True),
        ([(neg("T", "a"), neg("U", "a")), (neg("U", "a"), neg("T", "a"))], False),
        ([(neg("T", "a"), neg("T", "a"))], False),
        ([(lit("Q", "a"), neg("T", "a")), (neg("T", "a"), lit("P", "a"))], True),
    ], ids=["self-loop", "off the conflicts", "cycle off the conflicts",
            "self-loop off the conflicts", "chain through a literal off the conflicts"])
    def test_self_loops_and_edges_off_the_conflicts(self, edges, acyclic):
        base = _exclusion_pairs(["a"], {})
        pdb = PrioritizedDatabase(
            base.db, Schema.of([("P", 1), ("Q", 1), ("T", 1), ("U", 1)]), base.constraints,
            PriorityRelation.of(edges),
        )
        assert pdb.priority.is_acyclic() == acyclic
        assert pdb.mask_context.acyclic == acyclic


class TestLibraryPriorities:
    """Priorities that the library takes and the CLI rejects: edges across
    conflict components, edges through literals off the conflicts, cycles."""

    def test_crossing_edges_between_components_decide_global(self):
        # Q(a) > P(b) and Q(b) > P(a) join the two exclusion pairs: dropping
        # both P facts for both Q facts covers each sacrificed literal, though
        # neither pair alone improves and no single literal covers both
        pdb = _exclusion_pairs(["a", "b"], {}).with_priority(
            PriorityRelation.of(
                [(lit("Q", "a"), lit("P", "b")), (lit("Q", "b"), lit("P", "a"))]
            )
        )
        both_p = frozenset({fact("P", "a"), fact("P", "b")})
        both_q = frozenset({fact("Q", "a"), fact("Q", "b")})
        assert is_global_improvement(both_q, both_p, pdb)
        assert not is_pareto_improvement(both_q, both_p, pdb)
        assert set(optimal_repairs(pdb, "pareto").repairs) == set(pdb.delta_repairs())
        assert set(optimal_repairs(pdb, "global").repairs) == (
            set(pdb.delta_repairs()) - {both_p}
        )
        assert not is_optimal_repair(both_p, pdb, "global")
        assert optimal_repairs(pdb, "completion").repairs == (
            completion_optimal_repairs_bruteforce(pdb).repairs
        )

    def test_cycle_through_a_literal_off_the_conflicts(self):
        # Q(a) > !T(a) > P(a): keeping P(a) over Q(a) would close a cycle
        # through a literal that is in no conflict
        base = _exclusion_pairs(["a"], {})
        pdb = PrioritizedDatabase(
            base.db,
            Schema.of([("P", 1), ("Q", 1), ("T", 1)]),
            base.constraints,
            PriorityRelation.of(
                [(lit("Q", "a"), neg("T", "a")), (neg("T", "a"), lit("P", "a"))]
            ),
        )
        only_q = frozenset({fact("Q", "a")})
        assert optimal_repairs(pdb, "completion").repairs == (only_q,)
        assert completion_optimal_repairs_bruteforce(pdb).repairs == (only_q,)
        assert len(optimal_repairs(pdb, "global")) == 2

    def test_certificate_search_backtracks(self):
        # B(a) > C(a) and A(a) > E(a) are stray.  Dropping A(a) after C(a)
        # would order B(a) -> C(a) -> A(a) -> E(a) and block B(a)'s only
        # witness {E(a)}; the replay drops A(a) after D(a), then keeps E(a)
        # and drops B(a)
        names = "ABCDE"
        db = frozenset(fact(name, "a") for name in names)
        constraints = tuple(
            UniversalConstraint.make([atom(x, "X"), atom(y, "X")])
            for x, y in ("AC", "AD", "BE")
        )
        priority = PriorityRelation.of(
            [(lit("B", "a"), lit("C", "a")), (lit("A", "a"), lit("E", "a"))]
        )
        schema = Schema.of([(name, 1) for name in names])
        pdb = PrioritizedDatabase(db, schema, constraints, priority)
        repair = frozenset(fact(name, "a") for name in "CDE")
        assert is_optimal_repair(repair, pdb, "completion")
        assert repair in completion_optimal_repairs_bruteforce(pdb)
        assert optimal_repairs(pdb, "completion").repairs == (
            completion_optimal_repairs_bruteforce(pdb).repairs
        )

    def test_cyclic_priority_fails_every_repair_with_an_excluded_literal(self, example3):
        cycle = example3.priority.edges | {(lit("S", "a", "b"), lit("R", "d", "b"))}
        pdb = example3.pdb().with_priority(PriorityRelation(cycle))
        assert not pdb.priority.is_acyclic()
        assert optimal_repairs(pdb, "completion").repairs == ()
        for repair in pdb.delta_repairs():
            assert not is_optimal_repair(repair, pdb, "completion")

    def test_cyclic_priority_keeps_a_consistent_database(self, example1):
        db = frozenset({fact("A", "a"), fact("C", "a")})
        cycle = PriorityRelation.of(
            [(lit("A", "a"), lit("C", "a")), (lit("C", "a"), lit("A", "a"))]
        )
        pdb = PrioritizedDatabase(db, example1.schema, example1.constraints, cycle)
        assert optimal_repairs(pdb, "completion").repairs == (db,)
        assert is_optimal_repair(db, pdb, "completion")

    def test_ten_exclusion_pairs_closed_form(self):
        # 1 024 delta repairs over 20 conflict literals; the four open pairs
        # keep either fact, the six oriented ones their preferred fact
        tags = [f"k{j}" for j in range(10)]
        preferred = {tag: "PQ"[j % 2] for j, tag in enumerate(tags) if j % 3}
        pdb = _exclusion_pairs(tags, preferred)
        assert len(pdb.delta_repairs()) == 1024
        expected = {
            repair
            for repair in pdb.delta_repairs()
            if all(fact(strong, tag) in repair for tag, strong in preferred.items())
        }
        assert len(expected) == 2 ** (len(tags) - len(preferred)) == 16
        for kind in ("pareto", "global", "completion"):
            got = optimal_repairs(pdb, kind).repairs
            assert set(got) == expected
            assert got == tuple(r for r in pdb.delta_repairs() if r in expected)

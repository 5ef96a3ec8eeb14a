"""Conjunctive query evaluation and the tolerant semantics."""

import pytest

from conftest import atom, example3_instance, fact, intersection_example
from prioritydb.errors import InputError
from prioritydb.model import UniversalConstraint, satisfies, schema_from
from prioritydb.priorities import PrioritizedDatabase, optimal_repairs
from prioritydb.query import ConjunctiveQuery, answers, evaluate, repairs_intersection


def q(head, body):
    return ConjunctiveQuery.make(head, body)


class TestEvaluate:
    def test_projection(self):
        db = frozenset({fact("R", "d", "b"), fact("R", "d", "c")})
        got = evaluate(q(("X",), [("R", ("X", "Y"))]), db)
        assert got == {("d",)}

    def test_boolean_ground_atom(self):
        db = frozenset({fact("A", "a")})
        assert evaluate(q((), [("A", ("a",))]), db) == {()}

    def test_empty_database(self):
        assert evaluate(q(("X",), [("A", ("X",))]), frozenset()) == frozenset()

    def test_join(self):
        db = frozenset({fact("R", "a", "b"), fact("S", "b", "c"), fact("R", "a", "c")})
        got = evaluate(q(("X", "Z"), [("R", ("X", "Y")), ("S", ("Y", "Z"))]), db)
        assert got == {("a", "c")}

    def test_repeated_variable(self):
        db = frozenset({fact("R", "a", "a"), fact("R", "a", "b")})
        got = evaluate(q(("X",), [("R", ("X", "X"))]), db)
        assert got == {("a",)}

    def test_atom_matches_only_facts_of_its_arity(self):
        db = frozenset({fact("A", "a")})
        assert evaluate(q(("X",), [("A", ("X", "Y"))]), db) == frozenset()
        assert evaluate(q((), [("A", ())]), db) == frozenset()

    def test_deep_query_has_no_recursion_limit(self):
        query = q(("X0",), [("A", (f"X{i}",)) for i in range(1200)])
        assert evaluate(query, frozenset({fact("A", "a")})) == {("a",)}

    def test_head_variable_must_occur(self):
        with pytest.raises(InputError):
            q(("X",), [("A", ("Y",))])


class TestToleranceJudgments:
    """The eight yes/no judgments on the binary example, read off its
    optimal repair sets."""

    @pytest.fixture
    def pdb(self):
        return example3_instance().pdb()

    def test_brave_pareto_a(self, pdb):
        assert answers(pdb, q((), [("A", ("a",))]), "brave", "pareto").holds()

    def test_cqa_pareto_a(self, pdb):
        assert not answers(pdb, q((), [("A", ("a",))]), "cqa", "pareto").holds()

    def test_cqa_pareto_exists_r(self, pdb):
        query = q((), [("R", ("d", "Y"))])
        assert answers(pdb, query, "cqa", "pareto").holds()

    def test_intersection_pareto_exists_r(self, pdb):
        query = q((), [("R", ("d", "Y"))])
        assert not answers(pdb, query, "intersection", "pareto").holds()

    def test_cqa_global_a(self, pdb):
        assert not answers(pdb, q((), [("A", ("a",))]), "cqa", "global").holds()

    def test_cqa_global_rdb(self, pdb):
        # the global set keeps only_rdc, a repair without R(d,b)
        assert not answers(pdb, q((), [("R", ("d", "b"))]), "cqa", "global").holds()

    def test_cqa_pareto_rdb(self, pdb):
        assert not answers(pdb, q((), [("R", ("d", "b"))]), "cqa", "pareto").holds()

    def test_cqa_completion_a(self, pdb):
        # the completion-optimal set keeps only_rdb, a repair without A(a)
        assert not answers(pdb, q((), [("A", ("a",))]), "cqa", "completion").holds()

    def test_implication_chain(self, pdb):
        for optimality in ("none", "pareto", "global", "completion"):
            for query in (q((), [("A", ("a",))]), q((), [("R", ("d", "Y"))])):
                inter = answers(pdb, query, "intersection", optimality).holds()
                cqa = answers(pdb, query, "cqa", optimality).holds()
                brave = answers(pdb, query, "brave", optimality).holds()
                assert (not inter or cqa) and (not cqa or brave)

    def test_open_query_answers(self, pdb):
        got = answers(pdb, q(("Y",), [("R", ("d", "Y"))]), "brave", "pareto")
        assert set(got.tuples) == {("b",), ("c",)}


    def test_cqa_holds_when_one_group_of_supports_survives(self):
        # the supports R(k0, v0) and R(k0, v1) share a component and one of
        # them is in every repair; R(k1, v0), in another component, is not
        db = frozenset({fact("R", "k0", "v0"), fact("R", "k0", "v1"), fact("R", "k1", "v0"),
                        fact("P", "k1")})
        constraints = (
            UniversalConstraint.make([atom("R", "X", "Y"), atom("R", "X", "Z")], [("Y", "Z")]),
            UniversalConstraint.make([atom("R", "X", "v0"), atom("P", "X")]),
        )
        pdb = PrioritizedDatabase(db, schema_from(db, constraints), constraints)
        query = q((), [("R", ("X", "Y"))])
        repairs = optimal_repairs(pdb, "pareto").repairs
        assert len(repairs) == 4
        assert any(fact("R", "k1", "v0") not in r for r in repairs)
        assert all(evaluate(query, r) for r in repairs)
        assert answers(pdb, query, "cqa", "pareto").holds()


class TestIntersection:
    def test_may_be_inconsistent(self):
        inst = intersection_example()
        inter = repairs_intersection(inst.pdb(), "pareto")
        assert inter == {fact("A", "a")}
        assert not satisfies(inter, inst.constraints)

    def test_single_repair_is_its_own_intersection(self, example1):
        db = frozenset({fact("A", "a"), fact("C", "a")})
        from prioritydb.priorities import PrioritizedDatabase

        pdb = PrioritizedDatabase(db, example1.schema, example1.constraints)
        assert repairs_intersection(pdb, "pareto") == db

    def test_binary_example_intersection_empty(self):
        pdb = example3_instance().pdb()
        assert repairs_intersection(pdb, "pareto") == frozenset()

    def test_plain_semantics_ignores_priority(self):
        pdb = example3_instance().pdb()
        stripped = example3_instance()
        from prioritydb.priorities import PrioritizedDatabase, PriorityRelation

        bare = PrioritizedDatabase(
            stripped.db, stripped.schema, stripped.constraints, PriorityRelation()
        )
        query = q((), [("A", ("a",))])
        for semantics in ("brave", "cqa", "intersection"):
            assert (
                answers(pdb, query, semantics, "none").tuples
                == answers(bare, query, semantics, "pareto").tuples
            )

"""Conflict computation: consensus path, hitting-set oracle, membership,
hypergraph shape."""

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chain_instance, example3_instance, fact, lit, neg
from prioritydb.conflicts import (
    conflict_hypergraph,
    conflicts,
    conflicts_via_hitting_sets,
    is_conflict,
    max_conflict_size,
    minimal_hitting_sets,
    prime_implicants,
)
from prioritydb.errors import Budget, BudgetExceededError, InputError
from prioritydb.model import Schema, satisfies


def cascade_conflicts():
    return {
        frozenset({lit("A", "a"), neg("C", "a")}),
        frozenset({lit("B", "a"), neg("D", "a")}),
        frozenset({lit("A", "a"), lit("B", "a")}),
    }


class TestConsensusPath:
    def test_cascade_example(self, example1):
        got = conflicts(example1.db, example1.schema, example1.constraints)
        assert got == cascade_conflicts()

    def test_consistent_database_has_none(self, example1):
        db = frozenset({fact("A", "a"), fact("C", "a")})
        assert conflicts(db, example1.schema, example1.constraints) == frozenset()

    def test_no_constraints(self, example1):
        assert conflicts(example1.db, example1.schema, ()) == frozenset()

    def test_chain_database_is_its_own_conflict(self):
        inst = chain_instance(1)
        got = conflicts(inst.db, inst.schema, inst.constraints)
        assert frozenset(lit(f.predicate, *f.args) for f in inst.db) in got

    def test_prime_implicants_of_cascade(self, example1):
        from prioritydb.model import ground_all, universe_constants

        bodies = ground_all(
            example1.constraints, universe_constants(example1.db, example1.constraints)
        )
        primes = prime_implicants(bodies)
        # three direct bodies plus three consensus terms
        assert len(primes) == 6


class TestHittingSetOracle:
    def test_cascade_example(self, example1):
        got = conflicts_via_hitting_sets(example1.db, example1.schema, example1.constraints)
        assert got == cascade_conflicts()

    def test_single_denial(self):
        from conftest import atom
        from prioritydb.model import UniversalConstraint

        db = frozenset({fact("A", "a")})
        schema = Schema.of([("A", 1)])
        constraints = (UniversalConstraint.make([atom("A", "X")]),)
        got = conflicts_via_hitting_sets(db, schema, constraints)
        assert got == {frozenset({lit("A", "a")})}

    def test_binary_example_conflicts_pinned(self):
        # the fact universe here is too wide for the brute-force oracle, so the
        # eight binary conflicts are asserted explicitly
        inst = example3_instance()
        fast = conflicts(inst.db, inst.schema, inst.constraints)
        expected = {
            frozenset({lit("S", "a", "b"), lit("S", "a", "c")}),
            frozenset({lit("R", "d", "b"), lit("R", "d", "c")}),
            frozenset({lit("R", "d", "b"), lit("S", "a", "b")}),
            frozenset({lit("R", "d", "c"), lit("S", "a", "c")}),
            frozenset({lit("S", "a", "b"), neg("A", "a")}),
            frozenset({lit("S", "a", "c"), neg("A", "a")}),
            frozenset({lit("S", "a", "b"), neg("B", "a")}),
            frozenset({lit("S", "a", "c"), neg("B", "a")}),
        }
        assert fast == expected

    def test_minimal_hitting_sets_basics(self):
        families = [frozenset({1, 2}), frozenset({2, 3})]
        got = minimal_hitting_sets(families)
        assert got == {frozenset({2}), frozenset({1, 3})}
        assert minimal_hitting_sets([frozenset()]) == frozenset()
        assert minimal_hitting_sets([]) == {frozenset()}


def _transversals_by_definition(families):
    """Scan every subset of the union: keep those meeting every family that
    have no proper subset doing so."""
    union = sorted(set().union(*families))
    candidates = [frozenset(c) for r in range(len(union) + 1) for c in combinations(union, r)]
    meeting = [c for c in candidates if all(c & f for f in families)]
    return {c for c in meeting if not any(other < c for other in meeting)}


class TestMinimalHittingSets:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 7), max_size=8), max_size=6))
    @example([])
    @example([frozenset()])
    @example([frozenset({0, 1}), frozenset()])
    def test_matches_definition(self, families):
        assert minimal_hitting_sets(families) == _transversals_by_definition(families)

    def test_budget_caps_the_union(self):
        families = [frozenset({1, 2}), frozenset({2, 3})]
        assert len(minimal_hitting_sets(families, Budget(max_universe=3), "union")) == 2
        with pytest.raises(BudgetExceededError, match="union has 3 elements"):
            minimal_hitting_sets(families, Budget(max_universe=2), "union")


class TestMembership:
    def test_member(self, example1):
        assert is_conflict(
            frozenset({lit("A", "a"), lit("B", "a")}),
            example1.db,
            example1.schema,
            example1.constraints,
        )

    def test_subset_is_not_member(self, example1):
        assert not is_conflict(
            frozenset({lit("A", "a")}), example1.db, example1.schema, example1.constraints
        )

    def test_superset_is_not_member(self, example1):
        assert not is_conflict(
            frozenset({lit("A", "a"), lit("B", "a"), neg("C", "a")}),
            example1.db,
            example1.schema,
            example1.constraints,
        )

    def test_stray_literal_rejected(self, example1):
        with pytest.raises(InputError):
            is_conflict(
                frozenset({lit("C", "a")}),
                example1.db,
                example1.schema,
                example1.constraints,
            )


class TestConflictProperties:
    def test_antichain(self, example1):
        found = conflicts(example1.db, example1.schema, example1.constraints)
        for left in found:
            for right in found:
                assert left == right or not left < right

    def test_soundness_and_minimality(self, example1):
        """Every conflict forces a violation; dropping any literal admits a model."""
        from prioritydb import model

        context = model.Instance(example1.db, example1.schema, example1.constraints)
        constants = context.constants
        universe = sorted(context.facts)
        found = conflicts(example1.db, example1.schema, example1.constraints)
        for conflict in found:
            for mask in range(1 << len(universe)):
                db = frozenset(f for i, f in enumerate(universe) if mask & (1 << i))
                holds = all((l.fact in db) == l.positive for l in conflict)
                if holds:
                    assert not satisfies(db, example1.constraints, constants)
            for dropped in conflict:
                relaxed = conflict - {dropped}
                witnessed = False
                for mask in range(1 << len(universe)):
                    db = frozenset(f for i, f in enumerate(universe) if mask & (1 << i))
                    holds = all((l.fact in db) == l.positive for l in relaxed)
                    if holds and satisfies(db, example1.constraints, constants):
                        witnessed = True
                        break
                assert witnessed

    def test_denial_only_conflicts_are_positive_database_subsets(self):
        inst = chain_instance(1)
        from conftest import atom
        from prioritydb.model import UniversalConstraint

        db = frozenset({fact("A", "a"), fact("B", "a")})
        schema = Schema.of([("A", 1), ("B", 1)])
        denial = (UniversalConstraint.make([atom("A", "X"), atom("B", "X")]),)
        found = conflicts(db, schema, denial)
        assert found == {frozenset({lit("A", "a"), lit("B", "a")})}
        assert all(l.positive and l.fact in db for e in found for l in e)


class TestHypergraph:
    def test_cascade_shape(self, example1):
        graph = conflict_hypergraph(example1.db, example1.schema, example1.constraints)
        assert len(graph.vertices) == 4
        assert len(graph.hyperedges) == 3

    def test_binary_example_shape(self):
        inst = example3_instance()
        graph = conflict_hypergraph(inst.db, inst.schema, inst.constraints)
        assert len(graph.vertices) == 6
        assert len(graph.hyperedges) == 8
        assert all(len(e) == 2 for e in graph.hyperedges)

    def test_empty(self, example1):
        graph = conflict_hypergraph(frozenset(), example1.schema, example1.constraints)
        assert graph.vertices == () and graph.hyperedges == ()

    def test_every_vertex_in_some_edge(self, example1):
        graph = conflict_hypergraph(example1.db, example1.schema, example1.constraints)
        for vertex in graph.vertices:
            assert any(vertex in e for e in graph.hyperedges)


class TestMaxConflictSize:
    def test_cascade(self, example1):
        assert max_conflict_size(conflicts(example1.db, example1.schema, example1.constraints)) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chain_grows_with_length(self, n):
        inst = chain_instance(n)
        found = conflicts(inst.db, inst.schema, inst.constraints)
        assert max_conflict_size(found) == n + 2

    def test_empty(self):
        assert max_conflict_size(frozenset()) == 0

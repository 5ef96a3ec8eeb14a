"""Repair enumeration and checking."""

from itertools import product

import pytest

from conftest import atom, example3_instance, example3_repairs, fact
from prioritydb.errors import Budget, BudgetExceededError
from prioritydb.model import Schema, UniversalConstraint, satisfies
from prioritydb.repairs import (
    delta_repairs,
    delta_repairs_bruteforce,
    is_delta_repair,
    subset_repairs,
    superset_repairs,
)


def cascade_repairs():
    return {
        frozenset(),
        frozenset({fact("A", "a"), fact("C", "a")}),
        frozenset({fact("B", "a"), fact("D", "a")}),
    }


class TestDeltaRepairs:
    def test_cascade_example(self, example1):
        got = delta_repairs(example1.db, example1.schema, example1.constraints)
        assert set(got.repairs) == cascade_repairs()

    def test_consistent_database(self, example1):
        db = frozenset({fact("A", "a"), fact("C", "a")})
        got = delta_repairs(db, example1.schema, example1.constraints)
        assert set(got.repairs) == {db}

    def test_binary_example_four_repairs(self):
        inst = example3_instance()
        got = delta_repairs(inst.db, inst.schema, inst.constraints)
        assert set(got.repairs) == set(example3_repairs().values())

    def test_never_empty(self, example1):
        got = delta_repairs(example1.db, example1.schema, example1.constraints)
        assert len(got) >= 1

    def test_all_members_consistent(self, example1):
        got = delta_repairs(example1.db, example1.schema, example1.constraints)
        assert all(satisfies(r, example1.constraints) for r in got)

    def test_key_violation_keeps_one_value_per_key(self):
        keys = 10
        db = frozenset(fact("R", f"k{i}", f"v{j}") for i in range(keys) for j in range(2))
        key = UniversalConstraint.make([atom("R", "X", "Y"), atom("R", "X", "Z")], [("Y", "Z")])
        got = delta_repairs(db, Schema.of([("R", 2)]), (key,))
        expected = {
            frozenset(fact("R", f"k{i}", f"v{j}") for i, j in enumerate(values))
            for values in product(range(2), repeat=keys)
        }
        assert len(got) == 2**keys
        assert set(got.repairs) == expected

    def test_unsatisfiable_constraints_have_no_repairs(self):
        # the empty conflict: no database satisfies both constraints
        db = frozenset({fact("Q", "a")})
        schema = Schema.of([("Q", 1)])
        constraints = (
            UniversalConstraint.make([atom("Q", "X")]),
            UniversalConstraint.make([atom("Q", "a", positive=False)]),
        )
        got = delta_repairs(db, schema, constraints)
        assert len(got) == 0
        assert got.repairs == delta_repairs_bruteforce(db, schema, constraints).repairs


class TestBruteforceOracle:
    def test_cascade_example(self, example1):
        got = delta_repairs_bruteforce(example1.db, example1.schema, example1.constraints)
        assert set(got.repairs) == cascade_repairs()

    def test_agrees_with_production(self, example1):
        fast = delta_repairs(example1.db, example1.schema, example1.constraints)
        slow = delta_repairs_bruteforce(example1.db, example1.schema, example1.constraints)
        assert fast.repairs == slow.repairs

    def test_budget_guard(self, example1):
        with pytest.raises(BudgetExceededError):
            delta_repairs_bruteforce(
                example1.db,
                example1.schema,
                example1.constraints,
                budget=Budget(max_universe=3),
            )


class TestIsDeltaRepair:
    def test_accepts_repair(self, example1):
        assert is_delta_repair(
            frozenset({fact("A", "a"), fact("C", "a")}),
            example1.db,
            example1.schema,
            example1.constraints,
        )

    def test_rejects_non_maximal(self, example1):
        assert not is_delta_repair(
            frozenset({fact("A", "a")}),
            example1.db,
            example1.schema,
            example1.constraints,
        )

    def test_rejects_inconsistent(self, example1):
        assert not is_delta_repair(
            frozenset({fact("C", "a"), fact("D", "a")}),
            example1.db,
            example1.schema,
            example1.constraints,
        )

    def test_matches_enumeration(self, example1):
        from prioritydb import model

        context = model.Instance(example1.db, example1.schema, example1.constraints)
        universe = sorted(context.facts)
        expected = set(
            delta_repairs(example1.db, example1.schema, example1.constraints).repairs
        )
        for mask in range(1 << len(universe)):
            candidate = frozenset(f for i, f in enumerate(universe) if mask & (1 << i))
            assert is_delta_repair(
                candidate, example1.db, example1.schema, example1.constraints
            ) == (candidate in expected)


class TestSubsetSuperset:
    def test_cascade_subset_repairs(self, example1):
        got = subset_repairs(example1.db, example1.schema, example1.constraints)
        assert set(got.repairs) == {frozenset()}

    def test_cascade_superset_repairs_empty(self, example1):
        got = superset_repairs(example1.db, example1.schema, example1.constraints)
        assert got.repairs == ()

    def test_consistent_database_both_kinds(self, example1):
        db = frozenset({fact("A", "a"), fact("C", "a")})
        assert set(subset_repairs(db, example1.schema, example1.constraints).repairs) == {db}
        assert set(superset_repairs(db, example1.schema, example1.constraints).repairs) == {db}

    def test_denial_only_delta_equals_subset(self):
        db = frozenset({fact("A", "a"), fact("B", "a"), fact("C", "a")})
        schema = Schema.of([("A", 1), ("B", 1), ("C", 1)])
        constraints = (
            UniversalConstraint.make([atom("A", "X"), atom("B", "X")]),
            UniversalConstraint.make([atom("B", "X"), atom("C", "X")]),
        )
        deltas = delta_repairs(db, schema, constraints)
        subsets = subset_repairs(db, schema, constraints)
        assert set(deltas.repairs) == set(subsets.repairs)

    def test_superset_repair_found_when_addition_fixes(self, example1):
        db = frozenset({fact("A", "a")})
        got = superset_repairs(db, example1.schema, example1.constraints)
        assert set(got.repairs) == {frozenset({fact("A", "a"), fact("C", "a")})}

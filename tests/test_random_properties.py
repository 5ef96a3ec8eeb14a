"""Randomized oracle equivalences and invariant properties.

All corpora are generated from fixed seeds; every check tolerates zero
discrepancies.  The acceptance module reuses these helpers.
"""

from __future__ import annotations

import random
from functools import lru_cache

from corpus import (
    random_binary_well_behaved,
    random_instance,
    random_query,
    random_rule_instance,
    with_random_priority,
    with_random_scores,
)
from prioritydb.aic import (
    classify_r_updates,
    ground_rules,
    is_grounded,
    is_grounded_via_pruned_rules,
    r_updates,
    rules_constants,
)
from prioritydb.bridges import (
    check_denial_image,
    check_roundtrip,
    check_translation_equivalence,
)
from prioritydb.conflicts import conflicts, conflicts_via_hitting_sets
from prioritydb.priorities import (
    completion_optimal_repairs_bruteforce,
    detect_score_structure,
    is_global_improvement,
    is_pareto_improvement,
    lexicographic_repairs,
    optimal_repairs,
)
from prioritydb.query import answers
from prioritydb.repairs import delta_repairs, delta_repairs_bruteforce

CORPUS_SIZE = 200


@lru_cache(maxsize=None)
def pdb_corpus():
    rng = random.Random(0xC0FFEE)
    out = []
    for _ in range(CORPUS_SIZE):
        base = random_instance(rng)
        out.append(
            (
                base,
                with_random_priority(rng, base),
                with_random_priority(rng, base, total=True),
                with_random_scores(rng, base),
            )
        )
    return out


@lru_cache(maxsize=None)
def rule_corpus():
    rng = random.Random(0xBEEF)
    return [random_rule_instance(rng) for _ in range(CORPUS_SIZE)]


@lru_cache(maxsize=None)
def monotone_rule_corpus():
    rng = random.Random(0xFACADE)
    return [random_rule_instance(rng, monotone=True) for _ in range(CORPUS_SIZE)]


@lru_cache(maxsize=None)
def well_behaved_corpus():
    rng = random.Random(0xADA)
    out = []
    while len(out) < CORPUS_SIZE:
        inst = random_binary_well_behaved(rng)
        out.append(inst)
    return out


def test_oracle_conflicts_two_characterizations():
    for base, *_ in pdb_corpus():
        fast = conflicts(base.db, base.schema, base.constraints)
        slow = conflicts_via_hitting_sets(base.db, base.schema, base.constraints)
        assert fast == slow


def test_oracle_delta_repairs_bruteforce():
    for base, *_ in pdb_corpus():
        fast = delta_repairs(base.db, base.schema, base.constraints)
        slow = delta_repairs_bruteforce(base.db, base.schema, base.constraints)
        assert fast.repairs == slow.repairs


def test_oracle_grounded_characterization():
    for inst in rule_corpus():
        constants = rules_constants(inst.db, inst.rules)
        ground = ground_rules(inst.rules, constants)
        for actions in r_updates(inst.db, inst.schema, inst.rules):
            assert is_grounded(actions, inst.db, ground) == is_grounded_via_pruned_rules(
                actions, inst.db, ground
            )


def test_oracle_completion_certificate_vs_enumeration():
    for _, prioritized, total, _ in pdb_corpus():
        for pdb in (prioritized, total):
            fast = optimal_repairs(pdb, "completion")
            slow = completion_optimal_repairs_bruteforce(pdb)
            assert fast.repairs == slow.repairs


def _improvement_exists(pdb, repair, pareto: bool) -> bool:
    """Definition-direct improvement search over every consistent candidate."""
    universe = sorted(pdb.instance.facts)
    check = is_pareto_improvement if pareto else is_global_improvement
    for mask in range(1 << len(universe)):
        candidate = frozenset(f for i, f in enumerate(universe) if mask & (1 << i))
        if not pdb.instance.consistent(candidate):
            continue
        if check(candidate, repair, pdb):
            return True
    return False


def test_oracle_improvement_search_matches_bruteforce():
    # heavier than the rest, so it runs on a slice of the corpus
    for _, prioritized, _, _ in pdb_corpus()[:60]:
        base_repairs = prioritized.delta_repairs()
        pareto = set(optimal_repairs(prioritized, "pareto").repairs)
        global_ = set(optimal_repairs(prioritized, "global").repairs)
        for repair in base_repairs:
            assert (repair in pareto) == (
                not _improvement_exists(prioritized, repair, pareto=True)
            )
            assert (repair in global_) == (
                not _improvement_exists(prioritized, repair, pareto=False)
            )


def test_property_chain_and_nonempty():
    for _, prioritized, total, (scored, _) in pdb_corpus():
        for pdb in (prioritized, total, scored):
            completion = set(optimal_repairs(pdb, "completion").repairs)
            global_ = set(optimal_repairs(pdb, "global").repairs)
            pareto = set(optimal_repairs(pdb, "pareto").repairs)
            delta = set(pdb.delta_repairs().repairs)
            assert completion <= global_ <= pareto <= delta
            assert completion


def test_property_total_priority_categoricity():
    for _, _, total, _ in pdb_corpus():
        pareto = optimal_repairs(total, "pareto")
        assert len(pareto) == 1
        assert optimal_repairs(total, "global").repairs == pareto.repairs


def test_property_score_structured_collapse():
    for _, _, _, (scored, _) in pdb_corpus():
        conflict_set = conflicts(scored.db, scored.schema, scored.constraints)
        structure = detect_score_structure(scored.priority, conflict_set)
        assert structure is not None
        lex = set(lexicographic_repairs(scored, structure).repairs)
        for kind in ("pareto", "global", "completion"):
            assert set(optimal_repairs(scored, kind).repairs) == lex


def test_property_query_implication_chain():
    rng = random.Random(0x5EED)
    for _, prioritized, _, _ in pdb_corpus()[:120]:
        query = random_query(rng, prioritized)
        for optimality in ("none", "pareto", "completion"):
            inter = set(answers(prioritized, query, "intersection", optimality).tuples)
            cqa = set(answers(prioritized, query, "cqa", optimality).tuples)
            brave = set(answers(prioritized, query, "brave", optimality).tuples)
            assert inter <= cqa <= brave


def test_property_signed_image_correspondence():
    for base, *_ in pdb_corpus():
        _, report = check_denial_image(base.db, base.schema, base.constraints)
        assert report.ok()


def test_property_translated_rules_equivalence():
    for _, prioritized, _, _ in pdb_corpus():
        report = check_translation_equivalence(prioritized)
        assert report.ok()


def test_property_monotone_rule_collapse():
    for inst in monotone_rule_corpus():
        table = classify_r_updates(inst.db, inst.schema, inst.rules)
        for entry in table:
            assert entry.founded == entry.grounded == entry.justified
            if entry.founded:
                assert entry.well_founded


def test_property_inclusion_diagram_on_random_rules():
    for inst in rule_corpus():
        normal = all(len(r.updates) == 1 for r in inst.rules)
        for entry in classify_r_updates(inst.db, inst.schema, inst.rules):
            assert not entry.grounded or (entry.founded and entry.well_founded)
            assert not entry.justified or (entry.founded and entry.well_founded)
            if normal:
                assert not entry.justified or entry.grounded


def test_property_well_behaved_rule_collapse():
    """When the ground rules are closed under resolution and preserve actions
    under it, the justified, grounded, and founded classes coincide."""
    from prioritydb.aic import check_properties

    seen = 0
    for inst in rule_corpus():
        report = check_properties(inst.rules, inst.db)
        if not (report.closed_under_resolution and report.preserves_actions_resolution):
            continue
        seen += 1
        for entry in classify_r_updates(inst.db, inst.schema, inst.rules):
            assert entry.founded == entry.grounded == entry.justified
            if entry.founded:
                assert entry.well_founded
    assert seen >= 20


def test_roundtrip_binary_well_behaved():
    cyclic = 0
    for inst in well_behaved_corpus():
        report = check_roundtrip(inst.db, inst.schema, inst.rules)
        if report.cycle is not None:
            cyclic += 1
            continue
        assert report.applicable, report.warnings
        assert report.binary_conflicts
        assert report.equal()
    # derived preferences may legitimately be cyclic; most instances are not
    assert cyclic < len(well_behaved_corpus()) // 2

"""Randomized oracle equivalences and invariant properties.

All corpora are generated from fixed seeds; every check tolerates zero
discrepancies.  The acceptance module reuses these helpers.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import lru_cache
from itertools import product

import pytest

from conftest import atom, fact
from corpus import (
    conflict_components,
    key_violations,
    random_binary_well_behaved,
    random_component_instance,
    random_instance,
    random_linked_rule_instance,
    random_query,
    random_rule_instance,
    rook,
    with_edges_off_the_conflicts,
    with_random_priority,
    with_random_scores,
    with_stray_edges,
)
from prioritydb.aic import (
    R_UPDATE_CLASSES,
    GroundAIC,
    UpdateAction,
    _consistent_rule_set,
    actions_between,
    apply_actions,
    check_properties,
    class_choices,
    classify_components,
    classify_r_updates,
    classify_updates,
    constraints_of,
    is_founded,
    is_grounded,
    is_grounded_via_pruned_rules,
    is_justified,
    is_r_update,
    is_well_founded,
    r_updates,
    repair_action_for,
    repairs_of_kind,
    satisfies_rules,
)
from prioritydb.bridges import (
    check_denial_image,
    check_roundtrip,
    check_translation_equivalence,
    priority_to_rules,
    rules_to_priority,
)
from prioritydb.conflicts import (
    ConflictHypergraph,
    conflicts,
    conflicts_via_hitting_sets,
    minimal_hitting_sets,
    prime_implicants,
)
from prioritydb.errors import Budget, BudgetExceededError, InputError, subsets
from prioritydb.model import (
    Fact,
    Instance,
    UniversalConstraint,
    active_domain,
    fact_key,
    is_variable,
    literal_key,
    satisfies,
    schema_from,
)
from prioritydb.priorities import (
    PrioritizedDatabase,
    PriorityRelation,
    co_conflicting_pairs,
    completion_optimal_repairs_bruteforce,
    detect_score_structure,
    is_global_improvement,
    is_optimal_repair,
    is_pareto_improvement,
    lexicographic_repairs,
    optimal_repairs,
    score_structure_from_scores,
    validate_priority,
)
from prioritydb.masks import bits
from prioritydb.query import ConjunctiveQuery, answers, evaluate, repairs_intersection
from prioritydb.repairs import (
    delta_repairs,
    delta_repairs_bruteforce,
    delta_repairs_of,
    is_delta_repair_of,
    sorted_repair_set,
)

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
        # consensus over the full grounding, without the join
        inst = Instance(base.db, base.schema, base.constraints)
        assert fast == {t for t in prime_implicants(inst.bodies) if t <= inst.literals}


def test_oracle_consistency_join_matches_pool_grounding():
    rng = random.Random(0xC0DE)
    seen = {True: 0, False: 0}
    for base, *_ in pdb_corpus():
        inst = Instance(base.db, base.schema, base.constraints)
        universe = sorted(inst.facts)
        for candidate in [base.db] + [
            frozenset(f for f in universe if rng.random() < 0.5) for _ in range(6)
        ]:
            got = inst.consistent(candidate)
            assert got == satisfies(candidate, base.constraints, inst.constants), (candidate, base)
            seen[got] += 1
    assert min(seen.values()) >= 200, seen


def _evaluate_bruteforce(query, db):
    """Every assignment of the body variables over the active domain."""
    names = sorted({t for _, terms in query.atoms for t in terms if is_variable(t)})
    out = set()
    for values in product(sorted(active_domain(db)), repeat=len(names)):
        b = dict(zip(names, values))
        if all(Fact(p, tuple(b.get(t, t) for t in terms)) in db for p, terms in query.atoms):
            out.add(tuple(b[v] for v in query.head_vars))
    return out


def test_oracle_evaluate_matches_bruteforce():
    rng = random.Random(0xE7A1)
    answered = 0
    for base, *_ in pdb_corpus():
        universe = sorted(Instance(base.db, base.schema, base.constraints).facts)
        for db in [base.db] + [
            frozenset(f for f in universe if rng.random() < 0.5) for _ in range(3)
        ]:
            query = random_query(rng, base)
            got = evaluate(query, db)
            assert got == _evaluate_bruteforce(query, db), (query, db)
            answered += bool(got)
    assert answered >= 200


@pytest.mark.parametrize(
    "constraint, consistent, inconsistent",
    [
        (UniversalConstraint.make([atom("Q", "a", positive=False)]), {fact("Q", "a")}, set()),
        (
            UniversalConstraint.make([atom("E", "X", "Y"), atom("E", "Y", "X", positive=False)]),
            {fact("E", "a", "a")},
            {fact("E", "a", "b")},
        ),
        (UniversalConstraint.make([atom("P", "X")], [("X", "a")]), {fact("P", "a")}, {fact("P", "b")}),
        (UniversalConstraint.make([atom("E", "X", "X")]), {fact("E", "a", "b")}, {fact("E", "b", "b")}),
        (UniversalConstraint.make([atom("e"), atom("P", "X")]), {fact("e")}, {fact("e"), fact("P", "a")}),
    ],
    ids=["no-positive-atom", "negated-atom-is-the-matched-fact", "constant-inequality",
         "repeated-variable", "arity-0"],
)
def test_consistency_hand_cases(constraint, consistent, inconsistent):
    both = frozenset(consistent | inconsistent)
    inst = Instance(both, schema_from(both, [constraint]), (constraint,))
    for candidate, expected in ((frozenset(consistent), True), (frozenset(inconsistent), False)):
        assert inst.consistent(candidate) is expected
        assert satisfies(candidate, [constraint], inst.constants) is expected


def test_consistency_outside_the_constant_pool():
    key = UniversalConstraint.make(
        [atom("R", "X", "Y"), atom("R", "X", "Z")], [("Y", "Z")]
    )
    db = frozenset({fact("R", "k", "v0")})
    inst = Instance(db, schema_from(db, [key]), (key,))
    assert "zz" not in inst.constants
    assert inst.consistent(db)
    assert not inst.consistent(db | {fact("R", "k", "zz")})


def test_oracle_delta_repairs_bruteforce():
    for base, *_ in pdb_corpus():
        fast = delta_repairs(base.db, base.schema, base.constraints)
        slow = delta_repairs_bruteforce(base.db, base.schema, base.constraints)
        assert fast.repairs == slow.repairs


def _delta_repairs_by_hitting_sets(inst, budget: Budget = Budget()) -> tuple:
    """The path that the product over ``ConflictMasks.parts`` replaced: the
    minimal transversals of the whole conflict hypergraph, each toggled."""
    edges = ConflictHypergraph.of(inst.conflicts).hyperedges
    return sorted_repair_set(
        "delta",
        (
            inst.db ^ {l.fact for l in t}
            for t in minimal_hitting_sets(edges, budget, "conflict literal set")
        ),
    ).repairs


def test_oracle_delta_repairs_match_the_whole_hypergraph():
    pdbs = [base for base, *_ in pdb_corpus()] + many_component_corpus() + stray_corpus()
    pdbs += [key_violations(keys, Budget(max_universe=64)) for keys in range(1, 11)]
    several = 0
    for pdb in pdbs:
        got = delta_repairs_of(pdb.instance, pdb.budget).repairs
        assert got == _delta_repairs_by_hitting_sets(pdb.instance, pdb.budget), pdb
        several += len(pdb._conflict_masks.parts) > 1
    assert several >= 100, several


@pytest.mark.parametrize("cap", [0, 3, 19])
def test_delta_repairs_keep_the_whole_conflict_literal_cap(cap):
    # 20 conflict literals in components of 2, each under the cap from 2 on
    inst = key_violations(10).instance
    budget = Budget(max_universe=cap)
    with pytest.raises(BudgetExceededError) as got:
        delta_repairs_of(inst, budget)
    with pytest.raises(BudgetExceededError) as want:
        _delta_repairs_by_hitting_sets(inst, budget)
    assert str(got.value) == str(want.value) == (
        f"conflict literal set has 20 elements, above the cap of {cap}"
    )


def _is_delta_repair_on_the_universe(inst, candidate):
    """The membership test that ``is_delta_repair_of`` replaced: the agreement
    set, built over the literal universe, is conflict-free and maximal."""
    agree = inst.agreement(candidate)
    if any(e <= agree for e in inst.conflicts):
        return False
    for lit in inst.literals - agree:
        if not any(lit in e and e - {lit} <= agree for e in inst.conflicts):
            return False
    return True


def test_oracle_repair_membership_without_the_universe():
    rng = random.Random(0x3E3B)
    seen = {True: 0, False: 0}
    stray = Fact("stray", ("zz",))
    for base, *_ in pdb_corpus():
        inst = Instance(base.db, base.schema, base.constraints)
        universe = sorted(inst.facts)
        assert all(map(inst.in_universe, universe)) and not inst.in_universe(stray)
        repairs = list(delta_repairs_of(inst))
        candidates = repairs + [frozenset(f for f in universe if rng.random() < 0.5)]
        if universe:
            candidates += [r ^ {rng.choice(universe)} for r in repairs]
        for candidate in candidates:
            got = is_delta_repair_of(inst, candidate)
            assert got == _is_delta_repair_on_the_universe(inst, candidate), (candidate, base)
            seen[got] += 1
        messages = []
        for check in (is_delta_repair_of, _is_delta_repair_on_the_universe):
            with pytest.raises(InputError) as err:
                check(inst, base.db | {stray})
            messages.append(str(err.value))
        assert messages[0] == messages[1]
    assert min(seen.values()) >= 200, seen


def test_oracle_grounded_characterization():
    for inst in rule_corpus():
        ctx = inst.context()
        ground = ctx.ground
        for actions in r_updates(ctx):
            assert is_grounded(actions, inst.db, ground) == is_grounded_via_pruned_rules(
                actions, inst.db, ground
            )


# Each support class of ``classify_updates`` and its definition-direct check.
SUPPORT_CHECKS = {
    "founded": lambda actions, db, ground, universe: is_founded(actions, db, ground),
    "wellfounded": lambda actions, db, ground, universe: is_well_founded(actions, db, ground),
    "grounded": lambda actions, db, ground, universe: is_grounded(actions, db, ground),
    "justified": is_justified,
}

STRAY = Fact("stray")  # a fact that no rule or schema mentions


def _random_action_set(rng, facts, consistent: bool = True) -> frozenset:
    """Each fact left alone, added or removed (or, unless ``consistent``,
    both), so no-op actions occur too."""
    choices = [(), (True,), (False,)] + ([] if consistent else [(True, False)])
    return frozenset(
        UpdateAction(add, f) for f in facts for add in rng.choice(choices)
    )


def test_oracle_mask_classifier_matches_definitions():
    rng = random.Random(0xC1A55)
    checked = {"r-update": 0, "other": 0, "empty": 0, "stray": 0}
    for inst in rule_corpus() + monotone_rule_corpus():
        ctx = inst.context()
        ground = ctx.ground
        universe = ctx.pdb.instance.facts
        known = r_updates(ctx)
        facts = sorted(universe)
        candidates = {actions: "r-update" for actions in known}
        for _ in range(3):
            candidates.setdefault(_random_action_set(rng, facts), "other")
        candidates.setdefault(frozenset(), "empty")
        some = min(known, key=sorted, default=frozenset())
        candidates[some | {UpdateAction(True, STRAY)}] = "stray"
        for entry in classify_updates(inst.db, ground, candidates):
            checked[candidates[entry.actions]] += 1
            for name, on in entry.classes().items():
                assert on == SUPPORT_CHECKS[name](entry.actions, inst.db, ground, universe), (
                    name, entry.actions, inst
                )
    assert min(checked.values()) >= 50, checked


def test_oracle_r_update_check_without_enumeration():
    rng = random.Random(0xC4EC)
    seen = {"member": 0, "inconsistent": 0, "no-op": 0, "outside": 0}
    for inst in rule_corpus():
        ctx = inst.context()
        known = r_updates(ctx)
        facts = sorted(ctx.pdb.instance.facts)
        candidates = set(known)
        for _ in range(4):
            candidates.add(_random_action_set(rng, facts + [STRAY], consistent=False))
        for actions in candidates:
            got = is_r_update(ctx, actions)
            assert got == (actions in known), (actions, inst)
            seen["member"] += got
            seen["inconsistent"] += len({a.fact for a in actions}) < len(actions)
            seen["no-op"] += any(a.add == (a.fact in inst.db) for a in actions)
            seen["outside"] += any(a.fact == STRAY for a in actions)
    assert min(seen.values()) >= 50, seen


def test_oracle_completion_certificate_vs_enumeration():
    for _, prioritized, total, _ in pdb_corpus():
        for pdb in (prioritized, total):
            fast = optimal_repairs(pdb, "completion")
            slow = completion_optimal_repairs_bruteforce(pdb)
            assert fast.repairs == slow.repairs


def _certificate_search(ctx, agree: int) -> bool:
    """The completion check that the greedy replay replaced: a search for an
    order certificate, per excluded vertex a witness conflict inside the
    agreement set whose other members precede it, such that these
    precedences and the priority edges stay acyclic.  Adding the edges
    ``w -> lam`` closes a cycle exactly when ``lam`` reaches a member of
    ``w``.  Exponential in the excluded vertices; under a cyclic priority
    only a repair that excludes nothing passes."""
    excluded = list(bits(ctx.masks.full & ~agree))
    options = [[w for w in ctx.masks.witnesses[i] if not w & ~agree] for i in excluded]
    if not all(options):
        return False
    if not excluded or not ctx.acyclic:
        return not excluded

    def reaches(succ: list[int], start: int, targets: int) -> bool:
        seen = todo = 1 << start
        while todo:
            low = todo & -todo
            todo ^= low
            step = succ[low.bit_length() - 1] & ~seen
            if step & targets:
                return True
            seen |= step
            todo |= step
        return False

    def search(depth: int, succ: list[int]) -> bool:
        if depth == len(excluded):
            return True
        lam = excluded[depth]
        for witness in options[depth]:
            if not reaches(succ, lam, witness):
                after = succ.copy()
                for mu in bits(witness):
                    after[mu] |= 1 << lam
                if search(depth + 1, after):
                    return True
        return False

    return search(0, list(ctx.dom))


def _assert_replay_matches_certificate_search(pdb) -> int:
    """``is_completion_optimal`` (the replay over every node) and the
    per-part optima agree with the certificate search on every delta
    repair; returns how many repairs pass."""
    ctx, masks = pdb._masks, pdb._conflict_masks
    optima = set(optimal_repairs(pdb, "completion").repairs)
    passed = 0
    for repair in pdb.delta_repairs():
        agree = masks.agreement(repair)
        verdict = _certificate_search(ctx, agree)
        assert ctx.is_completion_optimal(agree) == verdict == (repair in optima), (repair, pdb)
        passed += verdict
    return passed


@lru_cache(maxsize=None)
def off_conflict_corpus():
    """Prioritized instances whose priority also links literals that lie in
    no conflict, to each other and to conflict literals, half of them on
    unary-constraint instances and a quarter under total priorities."""
    rng = random.Random(0x0FF)
    out = []
    while len(out) < 160:
        base = random_instance(rng) if len(out) % 2 else random_component_instance(rng)
        pdb = with_edges_off_the_conflicts(
            rng, with_random_priority(rng, base, total=len(out) % 4 == 3)
        )
        if pdb is not None:
            out.append(pdb)
    return out


def test_oracle_completion_with_edges_off_the_conflicts():
    chained = 0
    for pdb in off_conflict_corpus():
        vertices = {l for c in pdb.conflicts() for l in c}
        assert pdb.priority.is_acyclic() and not pdb.priority.literals() <= vertices
        slow = completion_optimal_repairs_bruteforce(pdb).repairs
        assert optimal_repairs(pdb, "completion").repairs == slow, pdb
        for repair in pdb.delta_repairs():
            assert is_optimal_repair(repair, pdb, "completion") == (repair in slow), (repair, pdb)
        # an edge into and one out of the same literal off the conflicts
        chained += any(
            a not in vertices and any(b == a for _, b in pdb.priority.edges)
            for a, _ in pdb.priority.edges
        )
    assert chained >= 20, chained


def test_oracle_completion_replay_matches_the_certificate_search():
    corpora = [
        [pdb for _, prioritized, total, _ in pdb_corpus() for pdb in (prioritized, total)],
        many_component_corpus(),
        stray_corpus(),
        off_conflict_corpus(),
    ]
    for pdbs in corpora:
        assert sum(_assert_replay_matches_certificate_search(pdb) for pdb in pdbs) >= 50
    cyclic = 0
    for pdb in many_component_corpus()[:40]:
        edges = sorted(pdb.priority.edges, key=str)
        if edges:
            strong, weak = edges[0]
            pdb = pdb.with_priority(PriorityRelation(pdb.priority.edges | {(weak, strong)}))
            assert _assert_replay_matches_certificate_search(pdb) == 0
            cyclic += 1
    assert cyclic >= 20


def test_oracle_completion_replay_on_the_rook_instance():
    # 16 literals, 36 unoriented co-conflicting pairs: too many orientations
    # to enumerate, so the certificate search is the oracle
    pdb = rook(4, Budget(max_universe=16))
    assert len(pdb.delta_repairs()) == 24
    assert _assert_replay_matches_certificate_search(pdb) == 1
    assert optimal_repairs(pdb, "completion").repairs == (
        frozenset(Fact("R", (f"a{i}", f"b{i}")) for i in range(4)),
    )


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


@lru_cache(maxsize=None)
def stray_corpus():
    """Prioritized instances whose priority also joins literals of different
    conflict components, which the CLI rejects as stray edges."""
    rng = random.Random(0x57A4)
    out = []
    while len(out) < 80:
        base = with_random_priority(rng, random_component_instance(rng))
        stray = with_stray_edges(rng, base)
        if stray is not None:
            out.append(stray)
    return out


def test_oracle_stray_edges_across_components():
    for pdb in stray_corpus():
        assert pdb.priority.is_acyclic()
        assert validate_priority(pdb.priority, pdb.conflicts()).stray_edges
        components = conflict_components(pdb.conflicts())
        assert any(
            not any({a, b} <= c for c in components) for a, b in pdb.priority.edges
        )
        pareto = set(optimal_repairs(pdb, "pareto").repairs)
        global_ = set(optimal_repairs(pdb, "global").repairs)
        for repair in pdb.delta_repairs():
            assert (repair in pareto) == (
                not _improvement_exists(pdb, repair, pareto=True)
            )
            assert (repair in global_) == (
                not _improvement_exists(pdb, repair, pareto=False)
            )
        fast = optimal_repairs(pdb, "completion")
        assert fast.repairs == completion_optimal_repairs_bruteforce(pdb).repairs


OPTIMALITY_KINDS = ("pareto", "global", "completion")


def _whole_hypergraph_filter(pdb, kind: str) -> tuple:
    """The filter that the factored ``optimal_repairs`` replaced: every delta
    repair, kept when the per-repair mask check accepts its agreement mask.
    Global compares, within each component that the conflicts and the
    priority edges join, the restrictions of every delta repair to it."""
    masks, ctx = pdb._conflict_masks, pdb._masks
    repairs = pdb.delta_repairs().repairs
    agreements = tuple(map(masks.agreement, repairs))
    if kind == "pareto":
        test = ctx.is_pareto_optimal
    elif kind == "completion":
        test = ctx.is_completion_optimal
    else:
        groups: list[int] = []
        for link in [*masks.conflicts, *(d | 1 << i for i, d in enumerate(ctx.dom) if d)]:
            for group in [g for g in groups if g & link]:
                groups.remove(group)
                link |= group
            groups.append(link)
        restrictions = {
            g & masks.full: {agree & g for agree in agreements} for g in groups
        }

        def improves(other: int, mine: int) -> bool:
            gained, lost = other & ~mine, mine & ~other
            return other != mine and all(
                ctx.beaten_by[i] & gained for i in range(lost.bit_length()) if lost >> i & 1
            )

        def test(agree: int) -> bool:
            return not any(
                improves(other, agree & comp)
                for comp, others in restrictions.items()
                for other in others
            )

    return tuple(r for r, agree in zip(repairs, agreements) if test(agree))


def _assert_matches_whole_hypergraph(pdb) -> dict:
    """Each kind's optimal repairs, asserted equal, in order, to the oracle."""
    got = {}
    for kind in OPTIMALITY_KINDS:
        got[kind] = optimal_repairs(pdb, kind).repairs
        # a fresh context, so the oracle reuses no memoized optimum
        assert got[kind] == _whole_hypergraph_filter(pdb.with_priority(pdb.priority), kind), (
            kind, pdb
        )
    return got


def _lexicographic_whole_list(pdb, structure) -> tuple:
    """The filter that the per-part ``lexicographic_repairs`` replaced: every
    delta repair, kept unless another one agrees equally down to some level
    and keeps a strict superset there.  Literals off the conflicts agree in
    every repair."""
    masks = pdb._conflict_masks
    repairs = pdb.delta_repairs().repairs
    levels = [
        sum(1 << masks.index[l] for l in level if l in masks.index)
        for level in structure.levels
    ]
    keys = [tuple(masks.agreement(r) & level for level in levels) for r in repairs]

    def beaten(mine: tuple) -> bool:
        for theirs in keys:
            for a, b in zip(mine, theirs):
                if a != b:
                    if not a & ~b:
                        return True
                    break
        return False

    return tuple(r for r, key in zip(repairs, keys) if not beaten(key))


def _assert_lex_matches_whole_list(pdb, structure=None):
    """``lexicographic_repairs`` equals the oracle, in order, on a fresh copy
    so that no context is shared; with no structure, on the detected one."""
    got = lexicographic_repairs(pdb.with_priority(pdb.priority), structure).repairs
    if structure is None:
        structure = detect_score_structure(pdb.priority, pdb.conflicts())
    assert got == _lexicographic_whole_list(pdb, structure), pdb
    return got


@lru_cache(maxsize=None)
def many_component_corpus():
    """Unary-constraint instances on four constants, each under a random and
    under a total priority."""
    rng = random.Random(0xC0C0)
    out = []
    for _ in range(60):
        base = random_component_instance(rng, constants=4)
        out += [with_random_priority(rng, base), with_random_priority(rng, base, total=True)]
    return out


def test_oracle_product_matches_whole_hypergraph_on_many_components():
    parts = []
    for pdb in many_component_corpus():
        _assert_matches_whole_hypergraph(pdb)
        parts.append(len(conflict_components(pdb.conflicts())))
    assert max(parts) >= 4 and sum(p >= 2 for p in parts) >= 60, parts


def test_oracle_product_matches_whole_hypergraph_on_the_corpus():
    for _, prioritized, total, (scored, _) in pdb_corpus():
        for pdb in (prioritized, total, scored):
            _assert_matches_whole_hypergraph(pdb)


def test_oracle_product_matches_whole_hypergraph_across_stray_edges():
    for pdb in stray_corpus():
        _assert_matches_whole_hypergraph(pdb)


def test_oracle_product_with_a_cyclic_priority():
    seen = 0
    for pdb in many_component_corpus()[:40]:
        edges = sorted(pdb.priority.edges, key=str)
        if not edges:
            continue
        strong, weak = edges[0]
        cyclic = pdb.with_priority(PriorityRelation(pdb.priority.edges | {(weak, strong)}))
        assert not cyclic.priority.is_acyclic()
        got = _assert_matches_whole_hypergraph(cyclic)
        assert got["completion"] == ()
        seen += 1
    assert seen >= 20


def test_oracle_product_with_an_unsatisfiable_constraint():
    db = frozenset({Fact("Q", ("a",)), Fact("P", ("a",))})
    constraints = (
        UniversalConstraint.make([atom("Q", "X")]),
        UniversalConstraint.make([atom("Q", "a", positive=False)]),
        UniversalConstraint.make([atom("P", "X"), atom("Q", "X")]),
    )
    pdb = PrioritizedDatabase(db, schema_from(db, constraints), constraints)
    assert pdb.conflicts() == {frozenset()}
    assert _assert_matches_whole_hypergraph(pdb) == {kind: () for kind in OPTIMALITY_KINDS}
    assert optimal_repairs(pdb, "none").repairs == ()


@pytest.mark.parametrize("keys", range(1, 13))
def test_oracle_product_on_the_key_violation_sweep(keys):
    pdb = key_violations(keys, Budget(max_universe=64))
    got = _assert_matches_whole_hypergraph(pdb)
    assert all(len(repairs) == 2 ** (keys // 2) for repairs in got.values())
    assert _assert_lex_matches_whole_list(pdb) == got["pareto"]
    assert optimal_repairs(pdb, "none").repairs == pdb.delta_repairs().repairs


def _groups(links) -> list[int]:
    """The unions of the links that share a bit, transitively, ascending."""
    groups: list[int] = []
    for link in links:
        for group in [g for g in groups if g & link]:
            groups.remove(group)
            link |= group
        groups.append(link)
    return sorted(groups)


def _bit_list(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _parts_by_hitting_sets(masks) -> tuple:
    """``ConflictMasks.parts`` as it was before lone conflicts got a closed
    form: ``minimal_hitting_sets`` on each component's conflicts, found by
    scanning every conflict."""
    if 0 in masks.conflicts:
        return ((0, ()),)
    out = []
    for comp in _groups(masks.conflicts):
        edges = [frozenset(_bit_list(c)) for c in masks.conflicts if c & comp]
        found = minimal_hitting_sets(edges, masks.budget, "conflict literal set")
        out.append((comp, tuple(sorted(sum(1 << i for i in t) for t in found))))
    return tuple(out)


def _joined_by_groups(masks, links) -> tuple:
    """``ConflictMasks.joined`` without its shortcut: the components and
    links grouped by shared bits, each group's restrictions the product of
    its components' transversals."""
    out = []
    for group in _groups([comp for comp, _ in masks.parts] + list(links)):
        members = [ts for comp, ts in masks.parts if comp | group == group]
        if members:
            comp = group & masks.full
            masks.budget.check_universe(comp.bit_count(), "conflict literal set")
            out.append((comp, tuple(sum(pick) for pick in product(*members))))
    return tuple(out)


def _component_corpus():
    for base, prioritized, *_ in pdb_corpus():
        yield prioritized
    yield from many_component_corpus()


def test_oracle_parts_match_hitting_sets_per_component():
    lone = searched = 0
    for pdb in _component_corpus():
        masks = pdb._conflict_masks
        assert masks.parts == _parts_by_hitting_sets(masks), pdb
        for comp, _ in masks.parts:
            if comp in masks.conflicts:
                lone += 1
            else:
                searched += 1
    assert lone >= 100 and searched >= 20, (lone, searched)


def _lone_conflicts_pdb(budget: Budget = Budget()) -> PrioritizedDatabase:
    """Lone conflicts ``{V(a)}``, ``{P(b), Q(b)}`` and ``{A(c), …, E(c)}``,
    and one component of two conflicts, ``{S(d), T(d)}`` and ``{S(d), U(d)}``."""
    db = frozenset(
        [fact("V", "a"), fact("P", "b"), fact("Q", "b")]
        + [fact(p, "c") for p in "ABCDE"]
        + [fact(p, "d") for p in "STU"]
    )
    constraints = tuple(
        UniversalConstraint.make([atom(p, "X") for p in body])
        for body in ("V", "PQ", "ABCDE", "ST", "SU")
    )
    return PrioritizedDatabase(db, schema_from(db, constraints), constraints, budget=budget)


def test_lone_conflicts_in_closed_form_keep_the_budget():
    masks = _lone_conflicts_pdb()._conflict_masks
    assert sorted(map(len, _lone_conflicts_pdb().conflicts())) == [1, 2, 2, 2, 5]
    assert masks.parts == _parts_by_hitting_sets(masks)
    assert sorted(len(ts) for _, ts in masks.parts) == [1, 2, 2, 5]
    assert _lone_conflicts_pdb(Budget(max_universe=5))._conflict_masks.parts == masks.parts
    for cap in (4, 2):
        # the 5-literal lone conflict trips the cap, and at 2 the S component too
        tight = _lone_conflicts_pdb(Budget(max_universe=cap))._conflict_masks
        with pytest.raises(BudgetExceededError) as got:
            tight.parts
        with pytest.raises(BudgetExceededError) as want:
            _parts_by_hitting_sets(tight)
        assert str(got.value) == str(want.value)


def test_parts_of_an_empty_conflict():
    db = frozenset({Fact("Q", ("a",))})
    constraints = (
        UniversalConstraint.make([atom("Q", "X")]),
        UniversalConstraint.make([atom("Q", "a", positive=False)]),
    )
    masks = PrioritizedDatabase(db, schema_from(db, constraints), constraints)._conflict_masks
    assert masks.conflicts == (0,)
    assert masks.parts == ((0, ()),) == _parts_by_hitting_sets(masks)
    assert masks.joined([]) == masks.parts == _joined_by_groups(masks, [])


def test_oracle_joined_is_parts_on_internal_links():
    rng = random.Random(0x10E5)
    for pdb in _component_corpus():
        masks, ctx = pdb._conflict_masks, pdb._masks
        links = [d | 1 << i for i, d in enumerate(ctx.dom) if d]
        assert ctx.parts is masks.parts
        assert masks.parts == _joined_by_groups(masks, links)
        inner = [sum(1 << i for i in rng.sample(_bit_list(comp), 1 + rng.randrange(2)))
                 for comp, _ in masks.parts if comp.bit_count() >= 2]
        assert masks.joined(inner + [0]) is masks.parts
        assert masks.parts == _joined_by_groups(masks, inner + [0])


def test_oracle_joined_falls_back_on_a_cross_component_edge():
    seen = 0
    for pdb in many_component_corpus():
        components = conflict_components(pdb.conflicts())
        if len(components) < 2:
            continue
        first, second = (min(c, key=str) for c in components[:2])
        crossed = pdb.with_priority(PriorityRelation(pdb.priority.edges | {(first, second)}))
        masks, ctx = crossed._conflict_masks, crossed._masks
        links = [d | 1 << i for i, d in enumerate(ctx.dom) if d]
        assert ctx.parts == _joined_by_groups(masks, links)
        assert len(ctx.parts) < len(masks.parts)
        _assert_matches_whole_hypergraph(crossed)
        seen += 1
    assert seen >= 40, seen


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


@lru_cache(maxsize=None)
def scored_component_corpus():
    """Unary-constraint instances on 1-4 constants under random scores, each
    with its score structure."""
    rng = random.Random(0x5C0E)
    out = []
    for _ in range(150):
        scored, scores = with_random_scores(
            rng, random_component_instance(rng, constants=rng.randint(1, 4))
        )
        out.append((scored, score_structure_from_scores(scores, scored.conflicts())[0]))
    return out


def test_oracle_lexicographic_matches_whole_list_on_the_corpus():
    for _, _, _, (scored, scores) in pdb_corpus():
        _assert_lex_matches_whole_list(scored)
        structure, _ = score_structure_from_scores(scores, scored.conflicts())
        _assert_lex_matches_whole_list(scored, structure)


def test_oracle_lexicographic_matches_whole_list_on_many_components():
    parts = []
    for scored, structure in scored_component_corpus():
        _assert_lex_matches_whole_list(scored, structure)
        _assert_lex_matches_whole_list(scored)
        parts.append(len(scored._masks.parts))
    assert max(parts) >= 4 and sum(p >= 2 for p in parts) >= 60, parts


def test_oracle_lexicographic_across_a_cross_component_edge():
    """An extra edge between two components joins them in ``parts``; the
    order is still the one of the given structure."""
    seen = 0
    for scored, structure in scored_component_corpus():
        components = conflict_components(scored.conflicts())
        if len(components) < 2:
            continue
        first, second = (min(c, key=str) for c in components[:2])
        crossed = scored.with_priority(
            PriorityRelation(scored.priority.edges | {(first, second)})
        )
        assert len(crossed._masks.parts) < len(crossed._conflict_masks.parts)
        _assert_lex_matches_whole_list(crossed, structure)
        seen += 1
    assert seen >= 40, seen


def test_property_query_implication_chain():
    rng = random.Random(0x5EED)
    for _, prioritized, _, _ in pdb_corpus()[:120]:
        query = random_query(rng, prioritized)
        for optimality in ("none", "pareto", "completion"):
            inter = set(answers(prioritized, query, "intersection", optimality).tuples)
            cqa = set(answers(prioritized, query, "cqa", optimality).tuples)
            brave = set(answers(prioritized, query, "brave", optimality).tuples)
            assert inter <= cqa <= brave


SEMANTICS = ("brave", "cqa", "intersection")
ANSWER_KINDS = ("none",) + OPTIMALITY_KINDS


def _intersection_over_the_product(pdb, optimality: str) -> frozenset:
    chosen = optimal_repairs(pdb, optimality).repairs
    return frozenset.intersection(*chosen) if chosen else frozenset()


def _answers_over_the_product(pdb, query, semantics: str, optimality: str) -> tuple:
    """The path that the per-part ``answers`` replaced: the query evaluated
    over every optimal repair, or over their intersection."""
    if semantics == "intersection":
        tuples = evaluate(query, _intersection_over_the_product(pdb, optimality))
    else:
        per_repair = [evaluate(query, r) for r in optimal_repairs(pdb, optimality).repairs]
        if not per_repair:
            tuples = frozenset()
        elif semantics == "brave":
            tuples = frozenset().union(*per_repair)
        else:
            tuples = frozenset.intersection(*per_repair)
    return tuple(sorted(tuples))


def _assert_answers_match_the_product(pdb, queries, kinds=ANSWER_KINDS) -> int:
    """Every semantics and kind, on every query, equals the oracle; returns
    how many of those answer sets are non-empty."""
    nonempty = 0
    for kind in kinds:
        assert repairs_intersection(pdb, kind) == _intersection_over_the_product(pdb, kind)
        for query in queries:
            for semantics in SEMANTICS:
                got = answers(pdb, query, semantics, kind)
                assert got.tuples == _answers_over_the_product(pdb, query, semantics, kind), (
                    query, semantics, kind, pdb
                )
                nonempty += bool(got.tuples)
    return nonempty


def test_oracle_answers_match_the_product_on_the_corpus():
    rng = random.Random(0xA115)
    nonempty = 0
    for base, prioritized, total, (scored, _) in pdb_corpus():
        for pdb in (base, prioritized, total, scored):
            queries = [random_query(rng, pdb) for _ in range(2)]
            nonempty += _assert_answers_match_the_product(pdb, queries)
    assert nonempty >= 5000, nonempty


def test_oracle_answers_match_the_product_on_many_components():
    rng = random.Random(0xA116)
    adding = 0
    for pdb in many_component_corpus() + stray_corpus():
        _assert_answers_match_the_product(pdb, [random_query(rng, pdb) for _ in range(3)])
        adding += bool(pdb._conflict_masks.absent)
    # instances with vertex facts outside the database, which a repair adds
    assert adding >= 60, adding


KEY_QUERIES = tuple(
    ConjunctiveQuery.make(head, atoms)
    for head, atoms in [
        (("X",), [("R", ("X", "v0"))]),
        (("X", "Y"), [("R", ("X", "Y"))]),
        ((), [("R", ("X", "v1"))]),
        (("Y",), [("R", ("X", "Y")), ("R", ("Z", "Y"))]),
    ]
)


@pytest.mark.parametrize("keys", range(1, 19))
def test_oracle_answers_on_the_key_violation_sweep(keys):
    # kind "none" keeps all 2^keys delta repairs, so the oracle sweeps it to 10 keys
    kinds = ANSWER_KINDS if keys <= 10 else OPTIMALITY_KINDS
    pdb = key_violations(keys, Budget(max_universe=64))
    _assert_answers_match_the_product(pdb, KEY_QUERIES, kinds)
    even = tuple(sorted((f"k{i}",) for i in range(0, keys, 2)))
    assert answers(pdb, KEY_QUERIES[0], "cqa", "pareto").tuples == even


def test_oracle_answers_without_an_optimal_repair():
    """A part with no optimum leaves no optimal repair: brave and cqa answer
    nothing, and intersection evaluates over the empty database, where a
    query with no atoms holds."""
    empty_body = ConjunctiveQuery.make((), ())
    db = frozenset({Fact("Q", ("a",)), Fact("P", ("a",))})
    constraints = (
        UniversalConstraint.make([atom("Q", "X")]),
        UniversalConstraint.make([atom("Q", "a", positive=False)]),
        UniversalConstraint.make([atom("P", "X"), atom("Q", "X")]),
    )
    unsatisfiable = PrioritizedDatabase(db, schema_from(db, constraints), constraints)
    rng = random.Random(0xA117)
    cyclic = []
    for pdb in many_component_corpus()[:40]:
        if pdb.priority.edges:
            strong, weak = sorted(pdb.priority.edges, key=str)[0]
            edges = pdb.priority.edges | {(weak, strong)}
            cyclic.append(pdb.with_priority(PriorityRelation(edges)))
    assert len(cyclic) >= 20
    for pdb in [unsatisfiable] + cyclic:
        kinds = ANSWER_KINDS if pdb is unsatisfiable else ("completion",)
        assert all(not optimal_repairs(pdb, kind).repairs for kind in kinds)
        queries = [empty_body, random_query(rng, pdb), random_query(rng, pdb)]
        _assert_answers_match_the_product(pdb, queries, kinds)
        for kind in kinds:
            assert answers(pdb, empty_body, "intersection", kind).tuples == ((),)
            assert answers(pdb, empty_body, "cqa", kind).tuples == ()


def test_answers_check_the_kind_before_the_semantics():
    pdb = key_violations(2)
    with pytest.raises(InputError, match="unknown optimality kind: best"):
        answers(pdb, KEY_QUERIES[0], "certain", "best")
    with pytest.raises(InputError, match="unknown semantics: certain"):
        answers(pdb, KEY_QUERIES[0], "certain", "pareto")


def test_answers_check_the_semantics_before_any_work():
    # 3 keys of two values: components of 2 conflict literals, above a cap of 1
    pdb = key_violations(3, Budget(max_universe=1))
    with pytest.raises(BudgetExceededError, match="^conflict literal set has 2 elements"):
        answers(pdb, KEY_QUERIES[0], "brave", "pareto")
    with pytest.raises(InputError, match="unknown semantics: bogus"):
        answers(pdb, KEY_QUERIES[0], "bogus", "pareto")


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
        table = classify_r_updates(inst.context())
        for entry in table:
            assert entry.founded == entry.grounded == entry.justified
            if entry.founded:
                assert entry.well_founded


def test_property_inclusion_diagram_on_random_rules():
    for inst in rule_corpus():
        normal = all(len(r.updates) == 1 for r in inst.rules)
        for entry in classify_r_updates(inst.context()):
            assert not entry.grounded or (entry.founded and entry.well_founded)
            assert not entry.justified or (entry.founded and entry.well_founded)
            if normal:
                assert not entry.justified or entry.grounded


def test_property_well_behaved_rule_collapse():
    """When the ground rules are closed under resolution and preserve actions
    under it, the justified, grounded, and founded classes coincide."""
    seen = 0
    for inst in rule_corpus():
        report = check_properties(inst.context())
        if not (report.closed_under_resolution and report.preserves_actions_resolution):
            continue
        seen += 1
        for entry in classify_r_updates(inst.context()):
            assert entry.founded == entry.grounded == entry.justified
            if entry.founded:
                assert entry.well_founded
    assert seen >= 20


def _priority_by_literal_pairs(ctx):
    """The derivation that one pass over the rules replaced: for every ordered
    pair of literals of the body-minimal violated ground rules, an edge when
    some rule holding both offers to repair the second and none holding both
    offers to repair the first.  Returns the priority, its cycle and the
    property warnings."""
    ground, db = ctx.ground, ctx.db
    report = check_properties(ctx)
    warnings = tuple(text for holds, text in (
        (report.closed_under_resolution, "rule set is not closed under resolution"),
        (report.preserves_actions_resolution,
         "rule set does not preserve actions under resolution"),
        (report.preserves_actions_strengthening,
         "rule set does not preserve actions under strengthening"),
    ) if not holds)
    minimal = [r for r in ground if not any(other.lits < r.lits for other in ground)]
    violated = [r for r in minimal if r.violated_by(db)]
    literals = sorted({l for r in violated for l in r.lits}, key=literal_key)
    edges = set()
    for strong in literals:
        for weak in literals:
            together = [r for r in violated if strong in r.lits and weak in r.lits]
            if strong != weak and together and any(
                repair_action_for(weak) in r.updates for r in together
            ) and all(repair_action_for(strong) not in r.updates for r in together):
                edges.add((strong, weak))
    priority = PriorityRelation(frozenset(edges))
    return priority, priority.find_cycle(), warnings


def test_oracle_rules_to_priority_matches_the_literal_pair_loop():
    rng = random.Random(0xC1C1E)  # about one in thirty derives a cyclic priority
    corpora = {
        "plain": rule_corpus(),
        "monotone": monotone_rule_corpus(),
        "linked": linked_rule_corpus(),
        "well-behaved": well_behaved_corpus() + [random_binary_well_behaved(rng) for _ in range(800)],
    }
    seen = dict.fromkeys(["edges", "cyclic", "warned"], 0)
    for name, corpus in corpora.items():
        for inst in corpus:
            derived = rules_to_priority(inst.context())
            priority, cycle, warnings = _priority_by_literal_pairs(inst.context())
            expected = (None if cycle else priority, cycle, warnings)
            assert (derived.priority, derived.cycle, derived.property_warnings) == expected, (
                name, inst)
            seen["edges"] += bool(priority.edges)
            seen["cyclic"] += cycle is not None
            seen["warned"] += bool(warnings)
    assert min(seen.values()) >= 20, seen


def test_roundtrip_binary_well_behaved():
    cyclic = 0
    for inst in well_behaved_corpus():
        report = check_roundtrip(inst.context())
        if report.cycle is not None:
            cyclic += 1
            continue
        assert report.applicable, report.warnings
        assert report.binary_conflicts
        assert report.equal()
    # derived preferences may legitimately be cyclic; most instances are not
    assert cyclic < len(well_behaved_corpus()) // 2


# The whole-instance paths that the per-component classification replaced:
# every r-update (or every delta repair's update) classified under every rule.


def _whole_instance_table(inst) -> tuple:
    ctx = inst.context()
    return classify_updates(inst.db, ctx.ground, r_updates(ctx))


def _reached(db, table, kind: str) -> tuple:
    """The databases reached by the updates of ``table`` of the given class."""
    chosen = [apply_actions(db, u.actions) for u in table if kind == "all" or u.classes()[kind]]
    return sorted_repair_set("delta", chosen).repairs


def _whole_instance_classes(pdb, ground) -> dict:
    """Per support class, the delta repairs of ``pdb`` whose updates have it
    under the ground rules."""
    updates = [actions_between(pdb.db, repair) for repair in pdb.delta_repairs()]
    table = classify_updates(pdb.db, ground, updates)
    return {kind: _reached(pdb.db, table, kind) for kind in R_UPDATE_CLASSES}


def _assert_rules_match_whole_instance(inst):
    """``classify_r_updates``, ``repairs_of_kind`` and ``check_roundtrip``
    against the oracles."""
    ctx = inst.context()
    table = classify_r_updates(ctx)
    expected_table = _whole_instance_table(inst)
    assert table == expected_table, inst
    for kind in ("all",) + R_UPDATE_CLASSES:
        got = repairs_of_kind(ctx, kind).repairs
        assert got == _reached(inst.db, expected_table, kind), (kind, inst)
    report = check_roundtrip(ctx)
    if report.cycle is None:
        derived = rules_to_priority(ctx)
        pdb = PrioritizedDatabase(inst.db, inst.schema, derived.constraints, derived.priority)
        expected = _whole_instance_classes(pdb, ctx.ground)
        got = {"founded": report.founded, "grounded": report.grounded, "justified": report.justified}
        assert {k: v.repairs for k, v in got.items()} == {k: expected[k] for k in got}, inst
    return table


def _priority_to_rules_by_literals(pdb) -> tuple[GroundAIC, ...]:
    """The literal-level translation that ``priority_to_rules`` renders from
    ``MaskContext.rule_rows``: one ground rule per conflict, repairing exactly
    the literals that do not outrank any other member of that conflict."""
    out = []
    for conflict in sorted(pdb.conflicts(), key=lambda e: sorted(map(literal_key, e))):
        updates = frozenset(
            repair_action_for(lit)
            for lit in conflict
            if not any(pdb.priority.outranks(lit, other) for other in conflict if other != lit)
        )
        out.append(GroundAIC(frozenset(conflict), updates))
    return tuple(out)


def _assert_translation_matches_whole_instance(pdb):
    report = check_translation_equivalence(pdb)
    expected = _whole_instance_classes(pdb.with_priority(pdb.priority),
                                       _priority_to_rules_by_literals(pdb))
    got = {"founded": report.founded, "wellfounded": report.well_founded,
           "grounded": report.grounded, "justified": report.justified}
    assert {k: v.repairs for k, v in got.items()} == expected, pdb
    assert report.pareto == optimal_repairs(pdb, "pareto"), pdb


def test_oracle_component_classes_on_the_rule_corpus():
    for inst in rule_corpus() + monotone_rule_corpus() + well_behaved_corpus():
        _assert_rules_match_whole_instance(inst)


@lru_cache(maxsize=None)
def linked_rule_corpus():
    rng = random.Random(0x1105)
    return [random_linked_rule_instance(rng, blocks=rng.randint(2, 3)) for _ in range(150)]


def test_oracle_component_classes_on_linked_components():
    seen = dict.fromkeys(
        ["components", "joined", "bridged", "idle", "unsatisfiable", "negated", "add"], 0
    )
    for inst in linked_rule_corpus():
        table = _assert_rules_match_whole_instance(inst)
        components = conflict_components(
            Instance(inst.db, inst.schema, constraints_of(inst.rules)).conflicts
        )
        vertices = [{l.fact.predicate for l in comp} for comp in components]
        mentioned = [{a.predicate for a in rule.body} for rule in inst.rules]
        multi = len(components) >= 2
        seen["components"] += multi
        # a rule on the vertices of two components joins them into one group
        seen["joined"] += any(sum(bool(m & v) for v in vertices) >= 2 for m in mentioned)
        # x is shared by rules on two components, but is no conflict vertex
        seen["bridged"] += multi and not any("x" in v for v in vertices) and any(
            "x" in m and any(m & v for v in vertices) for m in mentioned
        )
        seen["idle"] += multi and any(not any(m & v for v in vertices) for m in mentioned)
        seen["unsatisfiable"] += table == ()
        seen["negated"] += multi and any(not a.positive for r in inst.rules for a in r.body)
        seen["add"] += multi and any(u.add for r in inst.rules for u in r.updates)
    assert min(seen.values()) >= 12, seen


def _consistent_rule_set_by_scan(ground) -> bool:
    """The check that consensus replaced: some database over the facts the
    rules mention satisfies every rule."""
    mentioned = sorted({l.fact for rule in ground for l in rule.lits}, key=fact_key)
    return any(
        satisfies_rules(db, ground) for db in subsets(mentioned, Budget(), "mentioned fact set")
    )


def test_oracle_rule_satisfiability_matches_the_subset_scan():
    corpora = {
        "plain": rule_corpus(),
        "monotone": monotone_rule_corpus(),
        "linked": linked_rule_corpus(),
        "well-behaved": well_behaved_corpus(),
    }
    unsatisfiable = dict.fromkeys(corpora, 0)
    for name, corpus in corpora.items():
        for inst in corpus:
            ground = inst.context().ground
            expected = _consistent_rule_set_by_scan(ground)
            assert _consistent_rule_set(ground) == expected, inst
            unsatisfiable[name] += not expected
    # monotone rule sets are satisfied by flipping every fact off its sign
    assert unsatisfiable["plain"] >= 1 and unsatisfiable["linked"] >= 1, unsatisfiable
    assert unsatisfiable["monotone"] == unsatisfiable["well-behaved"] == 0


def test_oracle_translated_classes_on_the_corpus():
    for _, prioritized, total, (scored, _) in pdb_corpus():
        for pdb in (prioritized, total, scored):
            _assert_translation_matches_whole_instance(pdb)


def test_oracle_translated_classes_across_components():
    """Priority edges that cross components, and many components."""
    for pdb in stray_corpus() + many_component_corpus():
        _assert_translation_matches_whole_instance(pdb)


@lru_cache(maxsize=None)
def cyclic_corpus():
    """Prioritized instances whose priority orients co-conflicting pairs one
    way, the other or both, and may rank a literal above itself, kept when
    it has a cycle."""
    rng = random.Random(0xC7C1)
    out = []
    while len(out) < 80:
        base = random_instance(rng) if len(out) % 2 else random_component_instance(rng)
        edges = []
        for pair in sorted(co_conflicting_pairs(base.conflicts()),
                           key=lambda p: sorted(map(literal_key, p))):
            a, b = sorted(pair, key=literal_key)
            edges += rng.choice([[], [(a, b)], [(b, a)], [(a, b), (b, a)], [(a, b), (a, a)]])
        pdb = base.with_priority(PriorityRelation.of(edges))
        if not pdb.priority.is_acyclic():
            out.append(pdb)
    return out


def test_oracle_translated_classes_under_cyclic_priorities():
    for pdb in cyclic_corpus():
        _assert_translation_matches_whole_instance(pdb)


def test_oracle_pareto_under_a_literal_ranked_above_itself():
    """The Pareto optima are the delta repairs that no delta repair
    Pareto-improves, also where a literal outranks itself, and Proposition 8
    holds there."""
    self_ranked = 0
    for pdb in cyclic_corpus():
        repairs = pdb.delta_repairs().repairs
        expected = {r for r in repairs if not any(is_pareto_improvement(o, r, pdb) for o in repairs)}
        assert set(optimal_repairs(pdb, "pareto").repairs) == expected, pdb
        assert check_translation_equivalence(pdb).ok(), pdb
        self_ranked += any(strong == weak for strong, weak in pdb.priority.edges)
    assert self_ranked >= 40, self_ranked


def _translation_corpora() -> dict:
    return {
        "prioritized": [p for _, prioritized, total, _ in pdb_corpus() for p in (prioritized, total)],
        "scored": [scored for *_, (scored, _) in pdb_corpus()],
        "off the conflicts": off_conflict_corpus(),
        "stray": stray_corpus(),
        "cyclic": cyclic_corpus(),
    }


def test_oracle_priority_to_rules_matches_the_literal_translation():
    for name, corpus in _translation_corpora().items():
        for pdb in corpus:
            assert priority_to_rules(pdb) == _priority_to_rules_by_literals(pdb), (name, pdb)


TRANSLATION_FAMILIES = ("pareto", "founded", "grounded", "justified", "well_founded")


def _listed(report) -> dict:
    return {f: getattr(report, f) for f in TRANSLATION_FAMILIES}


def _listed_verdict(report) -> bool:
    """Proposition 8 on the listed sets: founded, grounded and justified
    equal Pareto, which lies within well-founded."""
    listed = {f: repairs.repairs for f, repairs in _listed(report).items()}
    return (
        listed["pareto"] == listed["founded"] == listed["grounded"] == listed["justified"]
        and set(listed["pareto"]) <= set(listed["well_founded"])
    )


def _dented(rng: random.Random, report, families=TRANSLATION_FAMILIES):
    """The report with one of the families' choices in one part changed:
    emptied, short of its first restriction, or with one restriction added."""
    family = rng.choice(families)
    parts, choices = report.families[family]
    choices = [list(ts) for ts in choices]
    p = rng.randrange(len(choices))
    spare = sorted(set(parts[p][1]) - set(choices[p]))
    choices[p] = sorted(rng.choice([[], choices[p][1:], choices[p] + spare[:1]]))
    return replace(report, families={**report.families, family: (parts, choices)})


def test_translation_counts_and_verdict_match_the_listed_sets():
    """Each count is the length of the listed family and ``ok`` is the
    verdict on the listed sets, also on reports with one part's choices
    changed, which give most of the negative verdicts."""
    rng = random.Random(0x8E7)
    verdicts = {True: 0, False: 0}
    joined = 0
    for name, corpus in _translation_corpora().items():
        for pdb in corpus:
            report = check_translation_equivalence(pdb)
            joined += len(pdb._masks.parts) < len(pdb._conflict_masks.parts)
            for got in [report] + [_dented(rng, report) for _ in range(3) if report.ctx.parts]:
                counts = {f: got.count(f) for f in TRANSLATION_FAMILIES}
                assert counts == {f: len(s) for f, s in _listed(got).items()}, (name, pdb)
                assert got.ok() == _listed_verdict(got), (name, pdb, got.families)
                verdicts[got.ok()] += 1
    assert joined >= 60 and min(verdicts.values()) >= 1000, (joined, verdicts)


ROUNDTRIP_FAMILIES = ("pareto", "founded", "grounded", "justified")


def test_roundtrip_counts_and_verdicts_match_the_listed_sets():
    """Each count is the length of the listed family, and ``equal``,
    ``founded_within_pareto`` and ``strictness_witnesses`` are the verdicts
    on the listed sets, also on comparisons with one part's choices changed.
    ``EquivalenceReport.within`` decides them per part of the larger family;
    on some instances the Pareto parts are finer than the class groups,
    which rules on two components join."""
    rng = random.Random(0x10A)
    corpus = rule_corpus() + monotone_rule_corpus() + well_behaved_corpus() + linked_rule_corpus()
    verdicts = dict.fromkeys([(m, v) for m in ("equal", "within") for v in (True, False)], 0)
    differ = 0
    for inst in corpus:
        report = check_roundtrip(inst.context())
        compared = report.equivalence
        if compared is None:
            continue
        groups = [[comp for comp, _ in compared.families[f][0]] for f in ("pareto", "founded")]
        differ += groups[0] != groups[1]
        for got in [report] + [replace(report, equivalence=_dented(rng, compared, ROUNDTRIP_FAMILIES))
                               for _ in range(3) if compared.ctx.parts]:
            listed = {f: set(getattr(got, f).repairs) for f in ROUNDTRIP_FAMILIES}
            counts = {f: got.equivalence.count(f) for f in ROUNDTRIP_FAMILIES}
            assert counts == {f: len(s) for f, s in listed.items()}, inst
            pareto, founded = listed["pareto"], listed["founded"]
            equal = pareto == founded == listed["grounded"] == listed["justified"]
            assert got.equal() == (got.applicable and equal), (inst, got.equivalence.families)
            assert got.founded_within_pareto() == (got.applicable and founded <= pareto), inst
            witnesses = sorted_repair_set("delta", pareto - founded).repairs
            assert got.strictness_witnesses() == (witnesses if got.applicable else ()), inst
            if got.applicable:
                verdicts["equal", got.equal()] += 1
                verdicts["within", got.founded_within_pareto()] += 1
    assert differ >= 40 and min(verdicts.values()) >= 150, (differ, verdicts)


def _stopped_at(run) -> str | None:
    try:
        run()
    except BudgetExceededError as exc:
        return str(exc)
    return None


def test_translation_caps_each_family_where_its_listing_does():
    """At every budget up to the vertex count, the count-only check stops at
    the stage and size where listing the families stops: Pareto over the
    parts of the mask context, then each class over the groups of
    ``classify_components`` of the translated rules, which are the conflict
    components even where stray edges join them into one part."""
    stopped = 0
    for pdb in stray_corpus() + cyclic_corpus():
        for cap in range(len(pdb._conflict_masks.index) + 1):
            fresh = PrioritizedDatabase(pdb.db, pdb.schema, pdb.constraints, pdb.priority,
                                        Budget(max_universe=cap))

            def listed():
                masks = fresh._conflict_masks
                rows = classify_components(masks, _priority_to_rules_by_literals(fresh))
                optimal_repairs(fresh, "pareto")
                for kind in ("founded", "grounded", "justified", "wellfounded"):
                    masks.repair_product(rows, class_choices(rows, kind), "r-update class product")

            got = _stopped_at(lambda: check_translation_equivalence(fresh))
            assert got == _stopped_at(listed), (pdb, cap)
            stopped += got is not None
    assert stopped >= 500, stopped

"""Seeded random instance generators for the oracle and property suites."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from prioritydb.aic import AIC, RuleContext, UpdateAtom
from prioritydb.conflicts import conflicts
from prioritydb.errors import DEFAULT_BUDGET, Budget
from prioritydb.model import (
    BodyAtom,
    Fact,
    Literal,
    Schema,
    UniversalConstraint,
    literal_key,
)
from prioritydb.priorities import (
    PrioritizedDatabase,
    PriorityRelation,
    co_conflicting_pairs,
)
from prioritydb.query import ConjunctiveQuery

PREDICATE_POOL = [("P", 1), ("Q", 1), ("T", 1), ("U", 1), ("e", 0), ("E", 2)]
CONSTANTS = ["a", "b"]


def random_instance(rng: random.Random) -> PrioritizedDatabase:
    """A small database with 1-4 constraints and an empty priority."""
    while True:
        n_preds = rng.randint(2, 4)
        pairs = rng.sample(PREDICATE_POOL, n_preds)
        if ("E", 2) in pairs and len(pairs) > 3:
            pairs.remove(("E", 2))  # keep the fact universe small
        schema = Schema.of(pairs)
        constants = CONSTANTS[: rng.randint(1, 2)]
        universe = _universe(schema, constants)
        db = frozenset(f for f in universe if rng.random() < 0.65)
        constraints = tuple(
            _random_constraint(rng, pairs, constants)
            for _ in range(rng.randint(2, 4))
        )
        pdb = PrioritizedDatabase(db, schema, constraints)
        if len(universe) <= 12:
            return pdb


def _universe(schema: Schema, constants) -> list[Fact]:
    from itertools import product

    out = []
    for pred, arity in schema.predicates:
        if arity == 0:
            out.append(Fact(pred))
        else:
            for args in product(constants, repeat=arity):
                out.append(Fact(pred, args))
    return out


def _random_constraint(rng, pairs, constants) -> UniversalConstraint:
    variables = ["X", "Y"][: rng.randint(1, 2)]
    terms_pool = variables + constants

    def pick_terms(arity):
        return tuple(rng.choice(terms_pool) for _ in range(arity))

    positives = []
    if rng.random() < 0.55:
        # two-atom denial bodies create repair choices
        for _ in range(2):
            pred, arity = rng.choice(pairs)
            positives.append(BodyAtom(True, pred, pick_terms(arity)))
        bound = sorted({t for a in positives for t in a.terms if t.isupper()})
        inequalities = []
        if len(bound) >= 2 and rng.random() < 0.4:
            inequalities.append((bound[0], bound[1]))
        return UniversalConstraint.make(positives, inequalities)
    for _ in range(rng.randint(1, 2)):
        pred, arity = rng.choice(pairs)
        positives.append(BodyAtom(True, pred, pick_terms(arity)))
    bound = sorted({t for a in positives for t in a.terms if t.isupper()})
    negatives = []
    head = []
    if rng.random() < 0.6:
        pred, arity = rng.choice(pairs)
        terms = tuple(rng.choice(bound or constants) for _ in range(arity))
        if rng.random() < 0.5:
            negatives.append(BodyAtom(False, pred, terms))
        else:
            head.append((pred, terms))
    inequalities = []
    if len(bound) >= 2 and rng.random() < 0.4:
        inequalities.append((bound[0], bound[1]))
    return UniversalConstraint.make(positives + negatives, inequalities, head)


def with_random_priority(
    rng: random.Random, pdb: PrioritizedDatabase, total: bool = False
) -> PrioritizedDatabase:
    """Orient co-conflicting pairs by random literal ranks: every sampled edge
    points from a lower-ranked to a higher-ranked literal, so acyclicity holds
    by construction."""
    conflict_set = conflicts(pdb.db, pdb.schema, pdb.constraints)
    literals = sorted({l for e in conflict_set for l in e}, key=literal_key)
    ranks = {l: rng.random() for l in literals}
    edges = []
    for pair in sorted(
        co_conflicting_pairs(conflict_set), key=lambda p: sorted(map(literal_key, p))
    ):
        a, b = sorted(pair, key=literal_key)
        if total or rng.random() < 0.5:
            edges.append((a, b) if ranks[a] < ranks[b] else (b, a))
    return PrioritizedDatabase(
        pdb.db, pdb.schema, pdb.constraints, PriorityRelation.of(edges), pdb.budget
    )


UNARY_CONSTRAINTS = (
    ([("P", True), ("Q", True)], ()),
    ([("Q", True), ("T", True)], ()),
    ([("P", True)], ("T",)),
    ([("T", True), ("P", False)], ()),
    ([("P", True), ("Q", True), ("T", True)], ()),
)


def random_component_instance(rng: random.Random, constants: int = 2) -> PrioritizedDatabase:
    """Unary constraints over P, Q and T on ``constants`` constants, so every
    constant carries its own conflict components; empty priority."""
    schema = Schema.of([("P", 1), ("Q", 1), ("T", 1)])
    constants = [f"c{i}" for i in range(constants)]
    db = frozenset(
        Fact(pred, (c,)) for pred in "PQT" for c in constants if rng.random() < 0.7
    )
    constraints = tuple(
        UniversalConstraint.make(
            [BodyAtom(sign, pred, ("X",)) for pred, sign in body],
            head=[(pred, ("X",)) for pred in head],
        )
        for body, head in rng.sample(UNARY_CONSTRAINTS, rng.randint(1, 3))
    )
    return PrioritizedDatabase(db, schema, constraints)


def key_violations(keys: int, budget: Budget = DEFAULT_BUDGET) -> PrioritizedDatabase:
    """``R(k_i, v0)`` and ``R(k_i, v1)`` for each of ``keys`` keys under a key
    constraint, with ``v0`` preferred on every even key: 2^keys delta repairs
    and 2^(keys // 2) optimal ones under each notion."""
    db = frozenset(Fact("R", (f"k{i}", f"v{j}")) for i in range(keys) for j in range(2))
    key = UniversalConstraint.make(
        [BodyAtom(True, "R", ("X", "Y")), BodyAtom(True, "R", ("X", "Z"))], [("Y", "Z")]
    )
    priority = PriorityRelation.of(
        (Literal(Fact("R", (f"k{i}", "v0"))), Literal(Fact("R", (f"k{i}", "v1"))))
        for i in range(0, keys, 2)
    )
    return PrioritizedDatabase(db, Schema.of([("R", 2)]), (key,), priority, budget)


def conflict_components(conflict_set) -> list[frozenset[Literal]]:
    """The literal sets of the connected components of the conflict hypergraph."""
    groups: list[set[Literal]] = []
    for conflict in conflict_set:
        merged = set(conflict)
        for group in [g for g in groups if g & merged]:
            groups.remove(group)
            merged |= group
        groups.append(merged)
    return sorted(
        (frozenset(g) for g in groups), key=lambda g: sorted(map(literal_key, g))
    )


def with_stray_edges(
    rng: random.Random, pdb: PrioritizedDatabase
) -> Optional[PrioritizedDatabase]:
    """Add up to four edges between literals of different conflict
    components, which ``validate_priority`` rejects as stray.  Edges may point
    either way between two components; one that would close a cycle is left
    out, so acyclicity is kept.  None when the conflicts form fewer than two
    components."""
    components = conflict_components(conflicts(pdb.db, pdb.schema, pdb.constraints))
    if len(components) < 2:
        return None
    edges = set(pdb.priority.edges)
    for _ in range(rng.randint(1, 4)):
        first, second = rng.sample(components, 2)
        edge = (
            rng.choice(sorted(first, key=literal_key)),
            rng.choice(sorted(second, key=literal_key)),
        )
        if PriorityRelation(frozenset(edges | {edge})).is_acyclic():
            edges.add(edge)
    return pdb.with_priority(PriorityRelation(frozenset(edges)))


def with_edges_off_the_conflicts(
    rng: random.Random, pdb: PrioritizedDatabase
) -> Optional[PrioritizedDatabase]:
    """Add up to five edges to and from literals of the universe that lie in
    no conflict, between them and conflict literals or between two of them.
    An edge that would close a cycle is left out.  None when every literal
    lies in a conflict, none does or no edge was added."""
    vertices = sorted({l for c in pdb.conflicts() for l in c}, key=literal_key)
    off = sorted(pdb.literal_universe() - set(vertices), key=literal_key)
    if not vertices or not off:
        return None
    edges = set(pdb.priority.edges)
    for _ in range(rng.randint(1, 5)):
        edge = (rng.choice(off), rng.choice(vertices + off))
        if rng.random() < 0.5:
            edge = edge[::-1]
        if edge[0] != edge[1] and PriorityRelation(frozenset(edges | {edge})).is_acyclic():
            edges.add(edge)
    if edges == pdb.priority.edges:
        return None
    return pdb.with_priority(PriorityRelation(frozenset(edges)))


def rook(m: int, budget: Budget = DEFAULT_BUDGET) -> PrioritizedDatabase:
    """``R(a_i, b_j)`` for i, j < m under a key on each argument, with
    ``R(a_i, b_i)`` preferred over the rest of its row: one conflict
    component of m² literals, m! delta repairs and one completion optimum,
    the diagonal."""
    lit = lambda i, j: Literal(Fact("R", (f"a{i}", f"b{j}")))
    keys = tuple(
        UniversalConstraint.make(
            [BodyAtom(True, "R", args[::step]) for args in (("X", "Y"), ("X", "Z"))],
            [("Y", "Z")],
        )
        for step in (1, -1)
    )
    return PrioritizedDatabase(
        frozenset(lit(i, j).fact for i in range(m) for j in range(m)),
        Schema.of([("R", 2)]),
        keys,
        PriorityRelation.of((lit(i, i), lit(i, j)) for i in range(m) for j in range(m) if j != i),
        budget,
    )


def with_random_scores(
    rng: random.Random, pdb: PrioritizedDatabase
) -> tuple[PrioritizedDatabase, dict[Literal, int]]:
    conflict_set = conflicts(pdb.db, pdb.schema, pdb.constraints)
    literals = sorted({l for e in conflict_set for l in e}, key=literal_key)
    scores = {l: rng.randint(0, 2) for l in literals}
    from prioritydb.priorities import score_structure_from_scores

    _, priority = score_structure_from_scores(scores, conflict_set)
    return (
        PrioritizedDatabase(pdb.db, pdb.schema, pdb.constraints, priority, pdb.budget),
        scores,
    )


def random_query(rng: random.Random, pdb: PrioritizedDatabase) -> ConjunctiveQuery:
    atoms = []
    for _ in range(rng.randint(1, 2)):
        pred, arity = rng.choice(pdb.schema.predicates)
        terms = tuple(
            rng.choice(["X", "Y", "a", "b"]) for _ in range(arity)
        )
        atoms.append((pred, terms))
    body_vars = sorted({t for _, ts in atoms for t in ts if t.isupper()})
    head = tuple(v for v in body_vars if rng.random() < 0.4)
    return ConjunctiveQuery.make(head, atoms)


PROP_ATOMS = ["p", "q", "r", "s"]


@dataclass(frozen=True)
class RuleInstance:
    db: frozenset
    schema: Schema
    rules: tuple[AIC, ...]

    def context(self) -> RuleContext:
        return RuleContext(self.db, self.schema, self.rules)


def random_rule_instance(rng: random.Random, monotone: bool = False) -> RuleInstance:
    """Propositional active-rule instances; with ``monotone`` each atom keeps a
    fixed sign across every body."""
    atoms = rng.sample(PROP_ATOMS, rng.randint(2, 4))
    schema = Schema.of([(a, 0) for a in atoms])
    fixed_sign = {a: rng.random() < 0.7 for a in atoms}
    rules = []
    for _ in range(rng.randint(1, 4)):
        body_atoms = rng.sample(atoms, rng.randint(1, min(3, len(atoms))))
        body = []
        for name in body_atoms:
            sign = fixed_sign[name] if monotone else rng.random() < 0.7
            body.append((name, sign))
        k = rng.randint(1, min(2, len(body)))
        updates = [
            (name, not sign) for name, sign in rng.sample(body, k)
        ]
        rules.append(
            AIC.make(
                [BodyAtom(sign, name, ()) for name, sign in body],
                [UpdateAtom(add, name, ()) for name, add in updates],
            )
        )
    db = frozenset(Fact(a) for a in atoms if rng.random() < 0.5)
    return RuleInstance(db, schema, tuple(dict.fromkeys(rules)))


def random_binary_well_behaved(rng: random.Random) -> RuleInstance:
    """Monotone rules whose bodies are distinct violated fact pairs; such sets
    are closed under resolution and preserve actions under both rewrites."""
    atoms = rng.sample(PROP_ATOMS, rng.randint(3, 4))
    schema = Schema.of([(a, 0) for a in atoms])
    db = frozenset(Fact(a) for a in atoms)
    pairs = [
        (x, y) for i, x in enumerate(atoms) for y in atoms[i + 1:]
    ]
    chosen = rng.sample(pairs, rng.randint(2, min(4, len(pairs))))
    rules = []
    for x, y in chosen:
        updates = rng.choice([[(x, False)], [(y, False)], [(x, False), (y, False)]])
        rules.append(
            AIC.make(
                [BodyAtom(True, x, ()), BodyAtom(True, y, ())],
                [UpdateAtom(add, n, ()) for n, add in updates],
            )
        )
    return RuleInstance(db, schema, tuple(rules))


def random_linked_rule_instance(rng: random.Random, blocks: int = 2) -> RuleInstance:
    """``blocks`` instances of ``random_rule_instance`` on disjoint atoms (each
    name suffixed with its block), so the conflicts fall into several
    components.  Some instances add rules that join two blocks directly, join
    them only through ``x`` (absent and never negated, so in no conflict),
    mention only ``x`` and ``y`` (no conflict vertex), or make the rule set
    unsatisfiable through ``u``."""
    rules: list[AIC] = []
    db: set[Fact] = set()
    names: list[list[str]] = []
    for b in range(blocks):
        inst = random_rule_instance(rng)
        rules += [
            AIC.make(
                [BodyAtom(a.positive, f"{a.predicate}{b}", ()) for a in rule.body],
                [UpdateAtom(u.add, f"{u.predicate}{b}", ()) for u in rule.updates],
            )
            for rule in inst.rules
        ]
        db |= {Fact(f"{f.predicate}{b}") for f in inst.db}
        names.append([f"{name}{b}" for name in inst.schema.names()])

    def lit(name: str) -> tuple[str, bool]:
        return name, rng.random() < 0.7

    def rule(body: list[tuple[str, bool]]) -> AIC:
        updates = rng.sample(body, rng.randint(1, len(body)))
        return AIC.make(
            [BodyAtom(sign, name, ()) for name, sign in body],
            [UpdateAtom(not sign, name, ()) for name, sign in updates],
        )

    first, second = (rng.choice(block) for block in rng.sample(names, 2))
    if rng.random() < 0.3:
        rules.append(rule([lit(first), lit(second)]))
    if rng.random() < 0.5:
        rules += [rule([lit(first), ("x", True)]), rule([lit(second), ("x", True)])]
    if rng.random() < 0.3:
        rules += [rule([("y", True)]), rule([("x", True), ("y", True)])]
    if rng.random() < 0.1:
        rules += [rule([("u", True)]), rule([("u", False)])]
    atoms = {a.predicate for r in rules for a in r.body}
    schema = Schema.of([(name, 0) for name in sorted(atoms | {n for ns in names for n in ns})])
    return RuleInstance(frozenset(db), schema, tuple(dict.fromkeys(rules)))

"""Conjunctive query evaluation and the inconsistency-tolerant semantics.

``evaluate`` runs the join ``model.matches`` over one database.  The
tolerant semantics keep the answers true in some optimal repair (brave), in
all of them (cautious, cqa), or over their intersection, which need not
satisfy the constraints.  They evaluate the query once, over the database
plus the conflict vertex facts: every delta repair lies inside that pool and
differs from the database on vertex facts only.  Each match is a support of
its answer tuple; it lives in a repair that lacks none of its vertex facts.
The optimal repairs are the product of per-part optima
(``masks.MaskContext.optima``), so no repair is built: brave asks for a support
that some optimum of each part it touches keeps, intersection for one that
every optimum keeps, and cqa joins the supports that share a part into
groups and enumerates, under the budget, the choices of optima over each
group's parts, holding when some group keeps a support under every choice.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, product
from operator import and_, or_
from typing import NamedTuple, Sequence

from .errors import InputError
from .model import Database, Fact, Term, by_predicate, is_variable, matches
from .masks import bits, join, optimality_check
from .priorities import PrioritizedDatabase


class ConjunctiveQuery(NamedTuple):
    """Free variables plus a conjunction of positive relational atoms."""

    head_vars: tuple[Term, ...]
    atoms: tuple[tuple[str, tuple[Term, ...]], ...]

    @staticmethod
    def make(
        head_vars: Sequence[Term], atoms: Sequence[tuple[str, tuple[Term, ...]]]
    ) -> "ConjunctiveQuery":
        body_vars = {t for _, terms in atoms for t in terms if is_variable(t)}
        for var in head_vars:
            if not is_variable(var):
                raise InputError(f"query head argument {var} is not a variable")
            if var not in body_vars:
                raise InputError(f"answer variable {var} does not occur in the body")
        if len(set(head_vars)) != len(head_vars):
            raise InputError("repeated answer variable in query head")
        return ConjunctiveQuery(tuple(head_vars), tuple(atoms))

    def is_boolean(self) -> bool:
        return not self.head_vars


def evaluate(query: ConjunctiveQuery, db: Database) -> frozenset[tuple[str, ...]]:
    """All bindings of the answer variables under which every atom matches.

    Atoms are matched in ascending order of relation cardinality; a Boolean
    query yields the empty tuple when satisfied.
    """
    facts = by_predicate(db)
    return frozenset(
        tuple(binding[v] for v in query.head_vars)
        for binding, _ in matches(_ordered(query, facts), facts)
    )


def _ordered(query: ConjunctiveQuery, facts: dict[str, list[Fact]]) -> list:
    return sorted(query.atoms, key=lambda atom: (len(facts.get(atom[0], ())), atom))


class AnswerSet(NamedTuple):
    query: ConjunctiveQuery
    semantics: str  # "brave" | "cqa" | "intersection"
    optimality: str  # "none" | "pareto" | "global" | "completion"
    tuples: tuple[tuple[str, ...], ...]

    def holds(self) -> bool:
        """Truth of a Boolean query."""
        return () in self.tuples


def _missing(pdb: PrioritizedDatabase, optimality: str) -> Sequence[tuple[int, ...]]:
    """Per part of ``pdb._masks``, for each optimal restriction to it, the
    mask of the vertex facts it lacks: the database facts it excludes and
    the other vertex facts, unless it adds them.  An unknown kind raises."""
    ctx = pdb._masks
    optima = ctx.optima(optimality)
    absent = pdb._conflict_masks.absent
    if not absent:  # every vertex fact is in the database, as under denials
        return optima
    return [
        tuple(t ^ (absent & comp) for t in optimal)
        for (comp, _), optimal in zip(ctx.parts, optima)
    ]


def repairs_intersection(pdb: PrioritizedDatabase, optimality: str) -> Database:
    """Intersection of the chosen optimal repairs; may violate the constraints.
    It holds the database and the vertex facts but those that some optimum
    lacks, and is empty when there is no optimal repair."""
    missing = _missing(pdb, optimality)
    if not all(missing):
        return frozenset()
    facts = pdb._conflict_masks.facts
    gone = reduce(or_, chain(*missing), 0)
    return pdb.db.union(facts).difference([facts[i] for i in bits(gone)])


def _supports(
    pdb: PrioritizedDatabase, query: ConjunctiveQuery
) -> dict[tuple[str, ...], list[int]]:
    """Per answer tuple over the pool of the database and the vertex facts,
    the vertex masks of the facts of its matches.  The pool holds every delta
    repair, which keeps the facts off the conflicts."""
    masks = pdb._conflict_masks
    pool, fact_bits = masks.pool, masks.fact_bits
    out: dict[tuple[str, ...], list[int]] = {}
    for binding, matched in matches(_ordered(query, pool), pool):
        care = 0
        for fact in matched:
            care |= fact_bits.get(fact, 0)
        out.setdefault(tuple([binding[v] for v in query.head_vars]), []).append(care)
    return out


def answers(
    pdb: PrioritizedDatabase,
    query: ConjunctiveQuery,
    semantics: str,
    optimality: str,
) -> AnswerSet:
    """A support lives in an optimal repair when the repair lacks none of its
    vertex facts; the optimal repairs are the product of the per-part optima.
    A support with a fact that every optimum of its part lacks (``always``)
    lives in none, and one with no fact that some optimum lacks (``gone``)
    lives in all.  Only the rest need a choice of optima.  An unknown kind,
    then an unknown semantics, raises before anything is computed."""
    optimality_check(optimality)
    if semantics not in ("brave", "cqa", "intersection"):
        raise InputError(f"unknown semantics: {semantics}")
    missing = _missing(pdb, optimality)
    if not all(missing):  # no optimal repair
        tuples = sorted(evaluate(query, frozenset())) if semantics == "intersection" else ()
        return AnswerSet(query, semantics, optimality, tuple(tuples))
    gone = always = 0
    for masks in missing:
        gone |= reduce(or_, masks)
        always |= reduce(and_, masks)

    def touched(care: int) -> set[int]:
        part_of = pdb._masks.part_of
        return {part_of[i] for i in bits(care)}

    def holds(cares: list[int]) -> bool:
        live = {care & gone for care in cares if not care & always}  # on the facts in doubt
        if semantics == "intersection" or 0 in live or not live:
            return 0 in live
        if semantics == "brave":  # one of them is kept by some optimum of each part it touches
            return any(
                all(any(not care & m for m in missing[part]) for part in touched(care))
                for care in live
            )
        # cqa: supports that share no part are lost independently, so some
        # group of them survives every choice of optima over its own parts
        reach = {care: sum(1 << p for p in touched(care)) for care in live}
        groups = join(reach.values())
        for group in groups:
            pdb.budget.check_universe(
                sum(pdb._masks.parts[p][0].bit_count() for p in bits(group)),
                "optimal repair product",
            )
        return any(
            all(
                any(not care & sum(pick) for care, on in reach.items() if on & group)
                for pick in product(*(missing[p] for p in bits(group)))
            )
            for group in groups
        )

    supports = _supports(pdb, query)
    return AnswerSet(
        query, semantics, optimality, tuple(t for t in sorted(supports) if holds(supports[t]))
    )

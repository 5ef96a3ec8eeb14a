"""Ground and non-ground syntax: facts, literals, constraints, and their semantics.

A database is a frozenset of ground facts, and a ``RepairSet`` a canonically
sorted tuple of them.  The literal universe of a database pairs its facts
with explicit negations of every absent fact that can be built from the
schema and the available constants.  Candidate repairs live inside
that fact universe; ``agreement`` and ``restriction`` convert between candidate
repairs and subsets of the literal universe and are mutually inverse.  An
``Instance`` derives each of these, the ground bodies and the conflicts at most
once for one database, schema and constraint set.

One join, ``matches``, serves grounding, consistency and queries.  Each atom
after the first indexes its facts on the positions that constants or earlier
atoms bind, so a partial binding meets only the facts that agree with it, and
an inequality is tested as soon as both its sides are bound.  It yields the
matched facts with each binding, and ground bodies reuse them as literals.
A caller that passes an ``index`` shares those indexes between joins, one per
predicate, arity and bound positions; ``Instance.conflicts`` passes one for
all its constraints.  The ground bodies range every variable over the
constant pool; ``satisfies`` and the oracles use them.  Under denial
constraints alone the conflicts are the subset-minimal sets of database facts
that the join matches.  Otherwise they start from fewer bodies: positive
atoms of predicates that occur negated in no constraint are joined with the
database facts, and consensus (``prime_implicants`` over ``resolutions``,
which finds clashing pairs through an index by signed fact) closes what that
yields.

Terms are plain strings.  An identifier starting with an upper-case letter or
an underscore is a variable; anything else is a constant.  Facts and literals
are named tuples, so they hash, compare and order as their field tuples, in C:
a fact orders by predicate, then arguments, the canonical fact order.

The syntax of active integrity rules is defined here too: ``AIC``, its
``UpdateAtom`` templates, the ground ``UpdateAction`` and ``action_key``.
Parsing and printing rules (``textio``) needs only these, so it loads no
rule semantics; ``aic`` re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, product
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import InputError

Term = str
Constant = str


def is_variable(term: Term) -> bool:
    return term[:1].isupper() or term[:1] == "_"


class Fact(NamedTuple):
    predicate: str
    args: tuple[Constant, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(self.args)})"


class Literal(NamedTuple):
    fact: Fact
    positive: bool = True

    def negated(self) -> "Literal":
        return Literal(self.fact, not self.positive)

    def __str__(self) -> str:
        return str(self.fact) if self.positive else f"!{self.fact}"


def literal_key(lit: Literal) -> tuple:
    """Canonical total order on literals: positive literals first, then by fact."""
    return (not lit.positive, lit.fact)


Database = frozenset[Fact]
GroundConstraint = frozenset[Literal]


@dataclass(frozen=True)
class RepairSet:
    kind: str  # "delta" | "subset" | "superset"
    repairs: tuple[Database, ...]

    def __contains__(self, candidate: Database) -> bool:
        return candidate in self.repairs

    def __iter__(self):
        return iter(self.repairs)

    def __len__(self) -> int:
        return len(self.repairs)


def sorted_repair_set(kind: str, repairs) -> RepairSet:
    ordered = sorted(set(repairs), key=lambda r: (len(r), sorted(r)))
    return RepairSet(kind, tuple(ordered))


@dataclass(frozen=True)
class Schema:
    """Relation names with arities; names unique, arity 0 permitted."""

    predicates: tuple[tuple[str, int], ...]

    @staticmethod
    def of(pairs: Iterable[tuple[str, int]]) -> "Schema":
        seen: dict[str, int] = {}
        for name, arity in pairs:
            if arity < 0:
                raise InputError(f"negative arity for predicate {name}")
            if name in seen and seen[name] != arity:
                raise InputError(
                    f"predicate {name} declared with arities {seen[name]} and {arity}"
                )
            seen[name] = arity
        return Schema(tuple(sorted(seen.items())))

    @cached_property
    def arities(self) -> dict[str, int]:
        return dict(self.predicates)

    def arity(self, name: str) -> int:
        arity = self.arities.get(name)
        if arity is None:
            raise InputError(f"predicate {name} is not declared in the schema")
        return arity

    def has(self, name: str) -> bool:
        return name in self.arities

    def names(self) -> tuple[str, ...]:
        return tuple(pred for pred, _ in self.predicates)

    def merged_with(self, other: "Schema") -> "Schema":
        return Schema.of(self.predicates + other.predicates)

    def check_fact(self, fact: Fact) -> None:
        if self.arity(fact.predicate) != len(fact.args):
            raise InputError(
                f"fact {fact} has {len(fact.args)} arguments, "
                f"predicate {fact.predicate} has arity {self.arity(fact.predicate)}"
            )


@dataclass(frozen=True)
class BodyAtom:
    """A possibly negated relational atom occurring in a constraint body."""

    positive: bool
    predicate: str
    terms: tuple[Term, ...]

    def substituted(self, binding: dict[Term, Constant]) -> "BodyAtom":
        return BodyAtom(
            self.positive,
            self.predicate,
            tuple(binding.get(t, t) for t in self.terms),
        )

    def variables(self) -> frozenset[Term]:
        return frozenset(t for t in self.terms if is_variable(t))

    def __str__(self) -> str:
        atom = str(Fact(self.predicate, self.terms))
        return atom if self.positive else f"not {atom}"


@dataclass(frozen=True)
class UniversalConstraint:
    """A universally quantified rule normalized to the body-implies-false form.

    Head atoms supplied at construction are folded into the body as negated
    atoms, so one representation covers denial constraints and rules with
    disjunctive heads alike.  Safety: every variable must occur in a positive
    body atom.
    """

    body: tuple[BodyAtom, ...]
    inequalities: frozenset[tuple[Term, Term]] = frozenset()

    @staticmethod
    def make(
        body: Sequence[BodyAtom],
        inequalities: Iterable[tuple[Term, Term]] = (),
        head: Sequence[tuple[str, tuple[Term, ...]]] = (),
    ) -> "UniversalConstraint":
        atoms = list(body) + [BodyAtom(False, pred, terms) for pred, terms in head]
        if not atoms:
            raise InputError("constraint with empty body and empty head is unsatisfiable")
        ineqs = frozenset(tuple(sorted(pair)) for pair in inequalities)
        constraint = UniversalConstraint(tuple(atoms), ineqs)
        constraint._check_safety()
        return constraint

    def _check_safety(self) -> None:
        bound: set[Term] = set()
        for atom in self.body:
            if atom.positive:
                bound |= atom.variables()
        for atom in self.body:
            if not atom.positive:
                loose = atom.variables() - bound
                if loose:
                    raise InputError(
                        f"unsafe constraint: variable {sorted(loose)[0]} occurs only "
                        f"in negated atom {atom}"
                    )
        for left, right in self.inequalities:
            for term in (left, right):
                if is_variable(term) and term not in bound:
                    raise InputError(
                        f"unsafe constraint: variable {term} occurs only in an inequality"
                    )

    def is_denial(self) -> bool:
        return all(atom.positive for atom in self.body)

    def variables(self) -> frozenset[Term]:
        out: set[Term] = set()
        for atom in self.body:
            out |= atom.variables()
        return frozenset(out)

    def constants(self) -> frozenset[Constant]:
        out: set[Constant] = set()
        for atom in self.body:
            out |= {t for t in atom.terms if not is_variable(t)}
        for left, right in self.inequalities:
            out |= {t for t in (left, right) if not is_variable(t)}
        return frozenset(out)

    def schema_pairs(self) -> frozenset[tuple[str, int]]:
        return frozenset((a.predicate, len(a.terms)) for a in self.body)

    def __str__(self) -> str:
        parts = [str(atom) for atom in self.body]
        parts += [f"{l} != {r}" for l, r in sorted(self.inequalities)]
        return f"{', '.join(parts)} -> false"


@dataclass(frozen=True)
class UpdateAtom:
    """A possibly non-ground +P(..) or -P(..) update template."""

    add: bool
    predicate: str
    terms: tuple[Term, ...]

    def __str__(self) -> str:
        sign = "+" if self.add else "-"
        return f"{sign}{Fact(self.predicate, self.terms)}"


class UpdateAction(NamedTuple):
    """A ground update action: add or remove one fact."""

    add: bool
    fact: Fact

    def __str__(self) -> str:
        return f"{'+' if self.add else '-'}{self.fact}"


def action_key(action: UpdateAction) -> tuple:
    return (action.fact, not action.add)


@dataclass(frozen=True)
class AIC:
    """body -> { update atoms }; every update atom must repair a body literal."""

    body: tuple[BodyAtom, ...]
    inequalities: frozenset[tuple[Term, Term]]
    updates: tuple[UpdateAtom, ...]

    @staticmethod
    def make(
        body: Sequence[BodyAtom],
        updates: Sequence[UpdateAtom],
        inequalities: Iterable[tuple[Term, Term]] = (),
    ) -> "AIC":
        if not updates:
            raise InputError("active rule must offer at least one update action")
        constraint = UniversalConstraint.make(body, inequalities)
        body_index = {(atom.positive, atom.predicate, atom.terms) for atom in body}
        for update in updates:
            if (not update.add, update.predicate, update.terms) not in body_index:
                raise InputError(
                    f"update action {update} does not repair any body literal"
                )
        return AIC(constraint.body, constraint.inequalities, tuple(updates))

    def constraint(self) -> UniversalConstraint:
        return UniversalConstraint(self.body, self.inequalities)

    def schema_pairs(self) -> frozenset[tuple[str, int]]:
        return self.constraint().schema_pairs()

    def __str__(self) -> str:
        lhs = str(self.constraint()).removesuffix(" -> false")
        rhs = ", ".join(str(u) for u in self.updates)
        return f"{lhs} -> {{ {rhs} }}"


def active_domain(db: Database) -> frozenset[Constant]:
    out: set[Constant] = set()
    for fact in db:
        out |= set(fact.args)
    return frozenset(out)


def constraint_constants(constraints: Iterable[UniversalConstraint]) -> frozenset[Constant]:
    out: set[Constant] = set()
    for constraint in constraints:
        out |= constraint.constants()
    return frozenset(out)


def universe_constants(
    db: Database, constraints: Iterable[UniversalConstraint] = ()
) -> frozenset[Constant]:
    """Constants available for grounding: the active domain plus any constants
    named by the constraints themselves."""
    return active_domain(db) | constraint_constants(constraints)


@dataclass(frozen=True)
class Instance:
    """A database under a schema and constraints, with what derives from it.

    The constant pool, the fact and literal universes, the database's index by
    predicate, the ground constraint bodies and the conflicts are each
    computed on first use, at most once, and live exactly as long as the
    instance.
    """

    db: Database
    schema: Schema
    constraints: tuple[UniversalConstraint, ...] = ()

    @cached_property
    def constants(self) -> frozenset[Constant]:
        return universe_constants(self.db, self.constraints)

    @cached_property
    def facts(self) -> frozenset[Fact]:
        """All facts over the schema built from the constant pool; an empty
        pool still yields every arity-0 fact."""
        self.check_facts()
        constants = sorted(self.constants)
        return frozenset(
            Fact(pred, args)
            for pred, arity in self.schema.predicates
            for args in product(constants, repeat=arity)
        )

    @cached_property
    def literals(self) -> frozenset[Literal]:
        """The database facts plus explicit negations of every absent fact."""
        return frozenset(Literal(fact, positive=fact in self.db) for fact in self.facts)

    @cached_property
    def bodies(self) -> frozenset[GroundConstraint]:
        return ground_all(self.constraints, self.constants)

    @cached_property
    def db_by_predicate(self) -> dict[str, list[Fact]]:
        """The database facts, by predicate."""
        return by_predicate(self.db)

    @cached_property
    def conflicts(self) -> frozenset[frozenset[Literal]]:
        """The prime implicants of the ground bodies that lie inside the
        literal universe.

        When no constraint has a negated atom, these are the subset-minimal
        sets of database facts that some constraint's atoms match.  Every
        atom then joins the database (no predicate occurs negated), so every
        joined body is a set of positive literals of database facts, all
        inside the universe, and no two of them clash: consensus adds no
        resolvent and the filter drops nothing.  So the joined bodies are
        read straight from ``matches`` and only their antichain is kept; the
        constant pool is not built.  All joins of one call share an index.

        Otherwise consensus runs on a part of ``bodies`` only.  Let a literal ``l``
        outside the universe have its complement in no body.  The violation
        formula, the disjunction of the bodies, is then monotone in ``l``.  No
        prime implicant holds the complement of ``l``, since dropping it would
        leave an implicant.  A term mentioning neither ``l`` nor its
        complement implies the formula iff it implies the formula with ``l``
        false, which is the disjunction of the bodies without ``l``.  So the
        prime implicants inside the universe are those of the bodies without
        ``l``, and every body holding ``l`` can be dropped.  Grounding applies
        this per predicate: a positive atom whose predicate occurs negated in
        no constraint yields such an ``l`` unless it matches a database fact,
        so it is joined with the database facts of its predicate instead of
        ranging over the pool.  Bodies left holding another literal outside
        the universe still go through consensus, and the final filter drops
        what they yield.
        """
        self.check_facts()
        facts, index = self.db_by_predicate, {}
        if all(c.is_denial() for c in self.constraints):
            return frozenset(antichain(
                frozenset([Literal(f) for f in matched])
                for c in self.constraints
                for _, matched in matches(
                    [(a.predicate, a.terms) for a in c.body], facts, c.inequalities, index
                )
            ))
        negated = {a.predicate for c in self.constraints for a in c.body if not a.positive}
        join = {
            a.predicate: facts.get(a.predicate, [])
            for c in self.constraints
            for a in c.body
            if a.positive and a.predicate not in negated
        }
        bodies = {
            literals
            for c in self.constraints
            for literals, _ in ground_body(c.body, c.inequalities, self.constants, join, index)
        }
        primes = prime_implicants(bodies)
        return frozenset(
            t for t in primes
            if all(self.in_universe(l.fact) and (l.fact in self.db) == l.positive for l in t)
        )

    def check_facts(self) -> None:
        """Raise on the first database fact that the schema does not admit.
        A passed check is remembered, so it runs once per instance."""
        if "facts_checked" not in self.__dict__:
            for fact in self.db:
                self.schema.check_fact(fact)
            self.__dict__["facts_checked"] = True

    def in_universe(self, fact: Fact) -> bool:
        """Membership in ``facts``, decided without building it: the fact's
        predicate and arity are in the schema and its arguments in the pool."""
        return (
            self.schema.arities.get(fact.predicate) == len(fact.args)
            and self.constants.issuperset(fact.args)
        )

    def consistent(self, candidate: Database) -> bool:
        """No constraint's positive atoms join with the candidate under a
        binding that makes every inequality true and every negated atom absent.
        Safety binds every variable, so this is exact for every candidate."""
        facts = by_predicate(candidate)
        return not any(
            not any(
                Fact(a.predicate, tuple([b.get(t, t) for t in a.terms])) in candidate
                for a in c.body
                if not a.positive
            )
            for c in self.constraints
            for b, _ in matches(
                [(a.predicate, a.terms) for a in c.body if a.positive], facts, c.inequalities
            )
        )

    def agreement(self, repair: Database) -> frozenset[Literal]:
        """Literals of the literal universe on which a candidate repair agrees
        with the database: kept facts plus jointly absent facts."""
        stray = repair - self.facts
        if stray:
            raise InputError(f"candidate repair fact {min(stray)} "
                             f"is outside the fact universe")
        kept = repair & self.db
        jointly_absent = self.facts - (repair | self.db)
        return frozenset(
            {Literal(f, True) for f in kept} | {Literal(f, False) for f in jointly_absent}
        )

    def restriction(self, litset: frozenset[Literal]) -> Database:
        """The candidate repair induced by a set of kept literals: retained facts
        plus one added fact for every negative literal dropped from the universe."""
        stray = litset - self.literals
        if stray:
            raise InputError(
                f"literal {sorted(stray, key=literal_key)[0]} is outside the literal universe"
            )
        kept = {l.fact for l in litset if l.positive}
        added = {l.fact for l in self.literals - litset if not l.positive}
        return frozenset(kept | added)


def facts_universe(db: Database, schema: Schema) -> frozenset[Fact]:
    """All facts over the schema built from the database constants."""
    return Instance(db, schema).facts


def literal_universe(db: Database, schema: Schema) -> frozenset[Literal]:
    """The database facts plus explicit negations of every absent fact."""
    return Instance(db, schema).literals


def agreement(db: Database, schema: Schema, repair: Database) -> frozenset[Literal]:
    """The literals on which a candidate repair agrees with the database."""
    return Instance(db, schema).agreement(repair)


def restriction(db: Database, schema: Schema, litset: frozenset[Literal]) -> Database:
    """The candidate repair induced by a set of kept literals."""
    return Instance(db, schema).restriction(litset)


def by_predicate(facts: Iterable[Fact]) -> dict[str, list[Fact]]:
    out: dict[str, list[Fact]] = {}
    for fact in facts:
        out.setdefault(fact.predicate, []).append(fact)
    return out


def matches(
    atoms: Iterable[tuple[str, Sequence[Term]]],
    facts_by_predicate: Mapping[str, Sequence[Fact]],
    inequalities: Collection[tuple[Term, Term]] = (),
    index: Optional[dict] = None,
) -> Iterator[tuple[dict[Term, Constant], tuple[Fact, ...]]]:
    """Every binding of the atoms' variables that maps each ``(predicate,
    terms)`` atom onto a fact listed for its predicate, with those facts in
    atom order.  Partial bindings grow atom by atom in the given order, depth
    first on an explicit stack: a long body needs no recursion, and only the
    untried facts along one path wait.

    The first atom scans its facts, as does a later one that no constant or
    earlier atom binds.  Every other atom indexes its facts once on its bound
    positions, so a partial binding meets only the facts that agree with it
    there.  Buckets keep list order, so bindings come in the order of a
    nested loop over the lists.  A partial binding is dropped at the first
    atom that binds both sides of an inequality to one constant; a pair of
    equal constants leaves no binding, and a pair that the atoms do not bind
    is not tested.

    With an ``index`` (a dict, empty at first, that serves only joins over
    ``facts_by_predicate``), every atom reads the index of its predicate,
    arity and bound positions from it, building it there when missing, so
    joins that share it index each such combination once."""
    if any(l == r and not is_variable(l) for l, r in inequalities):
        return
    pending = [pair for pair in inequalities if any(map(is_variable, pair))]
    steps = []
    built = {} if index is None else index
    bound: set[Term] = set()
    for predicate, terms in atoms:
        keyed = [i for i, t in enumerate(terms) if t in bound or not is_variable(t)]
        fresh = [(i, t) for i, t in enumerate(terms) if i not in keyed]
        bound.update(terms)
        tested = [p for p in pending if bound.issuperset(filter(is_variable, p))]
        pending = [p for p in pending if p not in tested]
        n = len(terms)
        if index is None and (not steps or not keyed):  # the first atom, or one left unbound
            facts = [f for f in facts_by_predicate.get(predicate, ()) if len(f.args) == n]
            if keyed:
                facts = [f for f in facts if all(f.args[i] == terms[i] for i in keyed)]
            steps.append((facts, None, fresh, tested))
            continue
        shape = (predicate, n, tuple(keyed))
        if shape not in built:
            bucket = built[shape] = {}
            for fact in facts_by_predicate.get(predicate, ()):
                if len(fact.args) == n:
                    bucket.setdefault(tuple([fact.args[i] for i in keyed]), []).append(fact)
        steps.append((built[shape], [terms[i] for i in keyed], fresh, tested))
    stack: list[tuple[int, dict[Term, Constant], tuple[Fact, ...]]] = [(0, {}, ())]
    while stack:
        depth, partial, matched = stack.pop()
        if depth == len(steps):
            yield partial, matched
            continue
        facts, key, fresh, tested = steps[depth]
        if key is not None:
            facts = facts.get(tuple([partial.get(t, t) for t in key]), ())
        for fact in facts:
            out = dict(partial)
            args = fact.args
            for i, term in fresh:
                if out.setdefault(term, args[i]) != args[i]:
                    break
            else:
                if not (tested and any(out.get(l, l) == out.get(r, r) for l, r in tested)):
                    stack.append((depth + 1, out, matched + (fact,)))


def ground_body(
    body: Sequence[BodyAtom],
    inequalities: frozenset[tuple[Term, Term]],
    constants: Iterable[Constant],
    join: Optional[Mapping[str, Sequence[Fact]]] = None,
    index: Optional[dict] = None,
) -> Iterator[tuple[frozenset[Literal], dict[Term, Constant]]]:
    """Ground instances of a constraint body over the given constants.

    A positive atom whose predicate is a key of ``join`` ranges over the facts
    listed for it (a join with the database, through ``matches`` with
    ``index``), and its literal holds the matched fact; every other variable
    ranges over the constants, which are sorted only when one does.  Instances
    with a false inequality are dropped, true inequalities are erased, and
    instances whose literal set is contradictory (both signs of a fact) are
    dropped because no database can satisfy them.
    """
    join = join or {}
    joined = [a for a in body if a.positive and a.predicate in join]
    rest = [a for a in body if a not in joined]
    bound = {t for a in joined for t in a.terms}
    free = sorted({v for a in rest for v in a.variables()} - bound)
    late = [p for p in inequalities if any(is_variable(t) and t not in bound for t in p)]
    mixed = len({(a.predicate, a.positive) for a in body}) > len({a.predicate for a in body})
    pool = sorted(set(constants)) if free else ()
    for partial, facts in matches(
        [(a.predicate, a.terms) for a in joined], join, inequalities, index
    ):
        bindings = (
            ({**partial, **dict(zip(free, values))} for values in product(pool, repeat=len(free)))
            if free else (partial,)
        )
        for binding in bindings:
            if late and any(binding.get(l, l) == binding.get(r, r) for l, r in late):
                continue
            literals = frozenset([Literal(f, True) for f in facts] + [
                Literal(Fact(a.predicate, tuple([binding.get(t, t) for t in a.terms])), a.positive)
                for a in rest
            ])
            if mixed and not _consistent(literals):
                continue  # contains both signs of one fact: vacuously satisfied
            yield literals, binding


def ground(
    constraint: UniversalConstraint, constants: frozenset[Constant]
) -> frozenset[GroundConstraint]:
    """Deduplicated ground instances of one constraint."""
    return frozenset(t for t, _ in ground_body(constraint.body, constraint.inequalities, constants))


def ground_all(
    constraints: tuple[UniversalConstraint, ...], constants: frozenset[Constant]
) -> frozenset[GroundConstraint]:
    out: set[GroundConstraint] = set()
    for constraint in constraints:
        out |= ground(constraint, constants)
    return frozenset(out)


def antichain(terms: Iterable[frozenset]) -> set[frozenset]:
    """Keep only the subset-minimal members.  Distinct terms of one size are
    never subsets of each other, so each term meets only the kept terms of
    smaller sizes."""
    kept: list[frozenset] = []
    for _, same in groupby(sorted(set(terms), key=len), key=len):
        kept += [term for term in same if not any(other <= term for other in kept)]
    return set(kept)


def _consistent(term: frozenset[Literal]) -> bool:
    return len({l.fact for l in term}) == len(term)


def resolutions(
    terms: Sequence[frozenset[Literal]],
) -> Iterator[tuple[frozenset[Literal], frozenset[Literal], Literal, frozenset[Literal]]]:
    """Each pair of terms that clash on exactly one fact, once per pair, as
    ``(left, right, clash, resolvent)``: ``left`` precedes ``right`` in the
    given order, ``clash`` is the member of ``left`` whose negation is in
    ``right``.  Pairs whose resolvent holds both signs of a fact are skipped.

    The terms are indexed by signed fact once, so each left term meets only
    the later terms holding a complement of one of its literals; pairs come
    left by index, then right by ascending index."""
    holders: dict[tuple[Fact, bool], list[int]] = {}
    for j, term in enumerate(terms):
        for l in term:
            holders.setdefault((l.fact, l.positive), []).append(j)
    for i, left in enumerate(terms):
        clashes: dict[int, list[Literal]] = {}
        for l in left:
            for j in holders.get((l.fact, not l.positive), ()):
                if j > i:
                    clashes.setdefault(j, []).append(l)
        for j in sorted(clashes):
            if len(clashes[j]) != 1:
                continue
            clash = clashes[j][0]
            right = terms[j]
            resolvent = (left - {clash}) | (right - {clash.negated()})
            if _consistent(resolvent):
                yield left, right, clash, resolvent


def prime_implicants(bodies: Iterable[frozenset[Literal]]) -> frozenset[frozenset[Literal]]:
    """All prime implicants of a disjunction of conjunctive terms.

    Iterated consensus: the consistent resolvents of the current terms are
    added and subsumed terms deleted after every round, until a fixpoint is
    reached.
    """
    terms = antichain(frozenset(b) for b in bodies)
    while True:
        fresh = {
            resolvent
            for _, _, _, resolvent in resolutions(list(terms))
            if not any(t <= resolvent for t in terms)
        }
        if not fresh:
            return frozenset(terms)
        terms = antichain(terms | fresh)


def violates_ground(db: Database, body: GroundConstraint) -> bool:
    return all((lit.fact in db) == lit.positive for lit in body)


def satisfies(
    db: Database,
    constraints: Sequence[UniversalConstraint],
    constants: Optional[frozenset[Constant]] = None,
) -> bool:
    """True iff no ground instance of any constraint is fully matched by the
    database.  Grounding ranges over the database constants plus the constants
    of the constraints; passing a wider ``constants`` pool is sound for any
    database contained in the corresponding fact universe."""
    if constants is None:
        constants = universe_constants(db, constraints)
    for body in ground_all(tuple(constraints), constants):
        if violates_ground(db, body):
            return False
    return True


def schema_from(
    db: Database = frozenset(),
    constraints: Iterable[UniversalConstraint] = (),
    extra: Iterable[tuple[str, int]] = (),
) -> Schema:
    """Infer a schema from the predicates mentioned by the given artifacts."""
    pairs: list[tuple[str, int]] = list(extra)
    for fact in db:
        pairs.append((fact.predicate, len(fact.args)))
    for constraint in constraints:
        pairs.extend(constraint.schema_pairs())
    return Schema.of(pairs)

"""Seeded instance families for the benchmark, with their expected answers.

Every instance is a pure function of (workload seed, operation index), so a
run can generate instances lazily in any batch size and still see the same
sequence.  Constant names carry the seed and the operation (or session)
index, so no two instances are equal and the engine's whole-database caches
never hit across instances.

Expected answers are derived here in closed form from the generator's own
choices; nothing in this module imports or calls the engine.  Every family
is a set of independent binary conflicts, so:

- each conflicting key or exclusion pair is one binary conflict;
- there are 2^k symmetric-difference repairs (drop one side of each conflict);
- an oriented conflict keeps its preferred side in every Pareto, global and
  completion optimum, an open one keeps either, so there are 2^open optima;
- the translated active rules of a pair repair exactly the non-preferred
  sides, so their founded, well-founded, grounded and justified r-updates are
  the ones that respect every orientation.
"""

from __future__ import annotations

import random
from itertools import product

WORKLOADS = ("sparse-keys", "dense-prefs", "aic-rules")

SPARSE_KINDS = ("conflicts", "repairs", "optimal-p", "optimal-c", "answer-cqa-p")
DENSE_REQUESTS = (
    ("optimal", "pareto"),
    ("optimal", "global"),
    ("optimal", "completion"),
    ("answer", "brave", "pareto"),
    ("answer", "cqa", "global"),
    ("answer", "intersection", "completion"),
)
AIC_KINDS = ("verify-prop8", "aic-classify", "verify-prop8", "aic-props")

KEY_CONSTRAINT = "R(X, Y), R(X, Z), Y != Z -> false.\n"
PAIR_CONSTRAINT = "P(X), Q(X) -> false.\n"
SPARSE_QUERY = "q(X, Y) :- R(X, Y).\n"
# Query per dense-prefs answer request: the answer variable ranges over pair
# constants, so each semantics gets a closed-form answer set.
DENSE_QUERY = {"brave": "P", "cqa": "Q", "intersection": "P"}


# Instance shapes cycle in a fixed order, so every run of a few dozen
# operations sees the same mix of sizes.  Latency clusters by size, so the mix
# keeps op_p50_ms and op_p90_ms inside a cluster rather than on the edge
# between two.
SPARSE_SHAPES = ((2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 4, 1), (3, 3, 1))  # conflicting keys, clean keys, open
DENSE_SHAPES = ((5, 2), (6, 2), (7, 2), (7, 2))  # exclusion pairs, open pairs
AIC_SHAPES = ((4, 1), (5, 2), (6, 2))  # exclusion pairs, open pairs

# The cost of the optimality filters depends on which side of each conflict
# is preferred: one global filter over 128 repairs took 64-423 ms across 40
# random patterns.  So each shape draws its orientations (and clean values)
# from a fixed pool of patterns, visited in turn; the second pattern of each
# pair mirrors the first (every preference reversed), which halves the cost
# variance.  A run visits every pattern several times, so its cost mix does
# not depend on the seed.  The seed rotates the pool and names every constant.
# dense-prefs uses one mirrored pair per shape: its op_p90_ms falls inside the
# cluster of 7-pair global filters, which then holds two equally frequent
# costs far apart, and p90 lies well inside the lower one.
SPARSE_POOL = AIC_POOL = 4
DENSE_POOL = 2


def _instance(workload: str, shapes: tuple, pool: int, number: int, seed: int):
    """Shape, random source and mirroring of the ``number``-th instance.
    A shape listed twice shares one pool, so its occurrences alternate
    between the two patterns of a mirrored pair."""
    shape = shapes[number % len(shapes)]
    earlier = shapes[: number % len(shapes)].count(shape)
    occurrence = (number // len(shapes)) * shapes.count(shape) + earlier
    slot = (occurrence + 2 * seed) % pool  # starts on a mirrored pair
    rng = random.Random(f"{workload}:{shapes.index(shape)}:{slot // 2}")
    return shape, rng, slot % 2 == 1


# Facts are (predicate, args) tuples; their natural order is the engine's
# canonical fact order (predicate, then arguments).


def _fact(fact: tuple) -> str:
    pred, args = fact
    return f"{pred}({', '.join(args)})" if args else pred


def _fact_set(facts) -> str:
    return "{" + ", ".join(_fact(f) for f in sorted(facts)) + "}"


def _database(facts) -> str:
    return "".join(f"{_fact(f)}.\n" for f in sorted(facts))


def _repairs_text(repairs) -> str:
    ordered = sorted(repairs, key=lambda r: (len(r), sorted(r)))
    return "".join(_fact_set(r) + "\n" for r in ordered)


class PairFamily:
    """Independent binary conflicts, each between a preferred-or-open pair of
    facts.  ``pairs`` lists (left, right, orientation) where orientation is
    "left", "right" or None (no priority edge)."""

    def __init__(self, pairs, clean=()):
        self.pairs = tuple(pairs)
        self.clean = frozenset(clean)

    def db(self) -> frozenset:
        return self.clean | {f for l, r, _ in self.pairs for f in (l, r)}

    def edges(self) -> list[tuple]:
        """Priority edges as (stronger, weaker) facts."""
        out = []
        for left, right, orient in self.pairs:
            if orient == "left":
                out.append((left, right))
            elif orient == "right":
                out.append((right, left))
        return out

    def priority_text(self) -> str:
        return "".join(f"{_fact(a)} > {_fact(b)}.\n" for a, b in self.edges())

    def _repairs(self, optimal: bool) -> list[frozenset]:
        choices = []
        for left, right, orient in self.pairs:
            if optimal and orient == "left":
                choices.append((left,))
            elif optimal and orient == "right":
                choices.append((right,))
            else:
                choices.append((left, right))
        return [self.clean | frozenset(pick) for pick in product(*choices)]

    def delta_repairs(self) -> list[frozenset]:
        return self._repairs(optimal=False)

    def optimal_repairs(self) -> list[frozenset]:
        return self._repairs(optimal=True)

    def respects(self, kept: frozenset) -> bool:
        return all(
            orient is None or (left if orient == "left" else right) in kept
            for left, right, orient in self.pairs
        )

    def conflicts_text(self) -> str:
        # Conflict lines are ordered by their sorted printed members.
        found = sorted((sorted((l, r)) for l, r, _ in self.pairs),
                       key=lambda c: sorted(map(_fact, c)))
        body = "".join(_fact_set(c) + "\n" for c in found)
        return body + f"conflicts: {len(found)}\nmax conflict size: 2\n"


def _pairs(rng: random.Random, members, count: int, open_count: int, mirrored: bool) -> list[tuple]:
    """``count`` conflicts (left, right, orientation) from ``members(j)``, of
    which ``open_count`` carry no priority edge."""
    unordered = set(rng.sample(range(count), open_count))
    sides = ("right", "left") if mirrored else ("left", "right")
    return [
        (*members(j), None if j in unordered else sides[rng.randrange(2)])
        for j in range(count)
    ]


# --- sparse-keys ---------------------------------------------------------


def sparse_keys_op(seed: int, index: int) -> dict:
    """One CLI run on a fresh key-violation instance R(k, v): 2-3 keys carry
    two values each, 2-4 clean keys carry one.  Both values are shared by all
    keys of the instance, so the constant pool is 6-9 constants."""
    shape, rng, mirrored = _instance("sparse-keys", SPARSE_SHAPES, SPARSE_POOL, index // len(SPARSE_KINDS), seed)
    conflicting, n_clean, n_open = shape
    tag = f"o{seed}x{index}"
    values = (f"{tag}v0", f"{tag}v1")
    pairs = _pairs(
        rng, lambda j: (("R", (f"{tag}k{j}", values[0])), ("R", (f"{tag}k{j}", values[1]))),
        conflicting, n_open, mirrored,
    )
    clean = [("R", (f"{tag}m{j}", rng.choice(values))) for j in range(n_clean)]
    family = PairFamily(pairs, clean)
    kind = SPARSE_KINDS[index % len(SPARSE_KINDS)]
    files = {"db": _database(family.db()), "constraints": KEY_CONSTRAINT}
    if kind == "conflicts":
        args = ["conflicts"]
        expected = family.conflicts_text()
    elif kind == "repairs":
        args = ["repairs", "--kind", "delta"]
        found = family.delta_repairs()
        expected = _repairs_text(found) + f"delta repairs: {len(found)}\n"
    elif kind in ("optimal-p", "optimal-c"):
        opt = kind[-1]
        files["priority"] = family.priority_text()
        args = ["optimal", "--opt", opt]
        found = family.optimal_repairs()
        expected = _repairs_text(found) + f"optimal repairs ({opt}): {len(found)}\n"
    else:
        files["priority"] = family.priority_text()
        files["query"] = SPARSE_QUERY
        args = ["answer", "--sem", "cqa", "--opt", "p"]
        certain = frozenset.intersection(*family.optimal_repairs())
        tuples = sorted(f[1] for f in certain)
        expected = "".join(f"({', '.join(t)})\n" for t in tuples)
        expected += f"answers: {len(tuples)}\n"
    return {"kind": kind, "files": files, "args": args, "stdout": expected, "exit": 0}


# --- dense-prefs ---------------------------------------------------------


def _exclusion(const: str) -> tuple:
    return ("P", (const,)), ("Q", (const,))


def dense_prefs_session(seed: int, session: int) -> dict:
    """One library session: 5-7 exclusion pairs P(a)/Q(a), each oriented
    either way or left open, giving 32-128 repairs."""
    (count, n_open), rng, mirrored = _instance("dense-prefs", DENSE_SHAPES, DENSE_POOL, session, seed)
    family = PairFamily(
        _pairs(rng, lambda j: _exclusion(f"s{seed}x{session}a{j}"), count, n_open, mirrored)
    )
    optimal = frozenset(family.optimal_repairs())
    answers = {}
    for sem, pred in DENSE_QUERY.items():
        if sem == "brave":
            hold = frozenset().union(*optimal)
        else:  # cqa and intersection agree on a single-atom query
            hold = frozenset.intersection(*optimal)
        answers[sem] = tuple(sorted(f[1] for f in hold if f[0] == pred))
    return {
        "facts": sorted(family.db()),
        "edges": family.edges(),
        "optimal": optimal,
        "answers": answers,
    }


def dense_prefs_op(session: dict, index: int) -> dict:
    request = DENSE_REQUESTS[index % len(DENSE_REQUESTS)]
    if request[0] == "optimal":
        kind = f"optimal-{request[1]}"
        expected = session["optimal"]
    else:
        kind = f"answer-{request[1]}-{request[2]}"
        expected = session["answers"][request[1]]
    return {"kind": kind, "request": request, "expected": expected}


# --- aic-rules -----------------------------------------------------------


def _rules_text(family: PairFamily) -> str:
    """The rules the priority translates to: one per conflict, repairing the
    members that outrank no other member."""
    lines = []
    for left, right, orient in family.pairs:
        actions = [f"-{_fact(f)}" for f, o in ((left, "left"), (right, "right")) if orient != o]
        lines.append(f"{_fact(left)}, {_fact(right)} -> {{ {', '.join(actions)} }}.\n")
    return "".join(lines)


def _update_set(db: frozenset, repair: frozenset) -> str:
    # Removals only; the engine orders actions by fact.
    return "{" + ", ".join(f"-{_fact(f)}" for f in sorted(db - repair)) + "}"


def aic_rules_op(seed: int, index: int) -> dict:
    """One CLI run on a fresh exclusion instance with 4-6 pairs: the
    prioritized database for ``verify prop8``, its translated rules for
    ``aic classify`` and ``aic props``."""
    (count, n_open), rng, mirrored = _instance("aic-rules", AIC_SHAPES, AIC_POOL, index // len(AIC_KINDS), seed)
    family = PairFamily(
        _pairs(rng, lambda j: _exclusion(f"r{seed}x{index}a{j}"), count, n_open, mirrored)
    )
    db = family.db()
    kind = AIC_KINDS[index % len(AIC_KINDS)]
    files = {"db": _database(db)}
    if kind == "verify-prop8":
        files["constraints"] = PAIR_CONSTRAINT
        files["priority"] = family.priority_text()
        args = ["verify", "prop8"]
        n = len(family.optimal_repairs())
        expected = "".join(
            f"{label} repairs: {n}\n"
            for label in ("pareto-optimal", "founded", "grounded", "justified", "well-founded")
        )
        expected += "equivalence holds: yes\n"
    elif kind == "aic-classify":
        files["aics"] = _rules_text(family)
        args = ["aic", "classify"]
        repairs = family.delta_repairs()
        rows = sorted(sorted(db - r) for r in repairs)
        lines = []
        for removed in rows:
            kept = db - frozenset(removed)
            label = "founded wellfounded grounded justified" if family.respects(kept) else "-"
            lines.append(f"{_update_set(db, kept)}: {label}\n")
        expected = "".join(lines) + f"r-updates: {len(repairs)}\n"
    else:
        files["aics"] = _rules_text(family)
        args = ["aic", "props"]
        expected = "".join(
            f"{prop}: yes\n"
            for prop in (
                "monotone",
                "closed under resolution",
                "preserves actions under resolution",
                "preserves actions under strengthening",
            )
        )
    return {"kind": kind, "files": files, "args": args, "stdout": expected, "exit": 0}

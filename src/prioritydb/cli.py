"""Command-line front end.

Exit codes: 0 success (or a check that answered true), 1 a check that answered
false, 2 malformed input, 3 enumeration budget exceeded, 4 internal error (a
defect of the program, reported as one ``internal error:`` line on stderr).
Output is sorted canonically, so identical inputs produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import bridges, query as query_mod, textio
from .aic import (
    AIC,
    R_UPDATE_CLASSES,
    RuleContext,
    check_properties,
    classify_updates,
    is_r_update,
    r_update_table,
)
from .conflicts import ConflictHypergraph, max_conflict_size
from .errors import Budget, BudgetExceededError, InputError
from .model import Database, Schema, UniversalConstraint, schema_from
from .priorities import (
    PrioritizedDatabase,
    PriorityRelation,
    ScoreStructure,
    is_optimal_repair,
    lexicographic_repairs,
    optimal_repairs,
    score_structure_from_scores,
)
from .repairs import (
    delta_repairs_of,
    is_delta_repair_of,
    subset_repairs_of,
    superset_repairs_of,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class Workspace:
    """Artifacts loaded from files, with a schema inferred across all of them
    unless one is declared explicitly.  Every command reads the one instance
    built from them."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.db: Database = frozenset()
        self.constraints: tuple[UniversalConstraint, ...] = ()
        self.priority = PriorityRelation()
        self.scores: dict = {}
        self.rules: tuple[AIC, ...] = ()
        self.budget = Budget(max_universe=args.max_universe)
        if getattr(args, "db", None):
            self.db = textio.parse_database(_read(args.db))
        if getattr(args, "constraints", None):
            self.constraints = textio.parse_constraints(_read(args.constraints))
        if getattr(args, "priority", None):
            self.priority, self.scores = textio.parse_priority(_read(args.priority))
        if getattr(args, "aics", None):
            self.rules = textio.parse_aics(_read(args.aics))
        declared: Optional[Schema] = None
        if getattr(args, "schema", None):
            declared = textio.parse_schema(_read(args.schema))
        extra = []
        for rule in self.rules:
            extra.extend(rule.schema_pairs())
        for lit in self.priority.literals():
            extra.append((lit.fact.predicate, len(lit.fact.args)))
        inferred = schema_from(self.db, self.constraints, extra)
        self.schema = inferred if declared is None else declared.merged_with(inferred)
        self.base = PrioritizedDatabase(
            self.db, self.schema, self.constraints, budget=self.budget
        )
        self.instance = self.base.instance
        self.instance.check_facts()

    def pdb(self) -> PrioritizedDatabase:
        pdb = self.base.with_priority(self.priority)
        report = pdb.validate()
        if not report.ok:
            if report.cycle:
                cycle = " > ".join(str(l) for l in report.cycle)
                raise InputError(f"priority relation has a cycle: {cycle}")
            edge = report.stray_edges[0]
            raise InputError(
                f"priority edge {edge[0]} > {edge[1]} joins literals that share no conflict"
            )
        return pdb

    def rule_context(self, missing: str) -> RuleContext:
        """The loaded rules on the database; ``missing`` is the error when
        there are none."""
        if not self.rules:
            raise InputError(missing)
        return RuleContext(self.db, self.schema, self.rules, self.budget)

    def score_structure(self) -> Optional[ScoreStructure]:
        if not self.scores:
            return None
        structure, derived = score_structure_from_scores(
            self.scores, self.instance.conflicts
        )
        for strong, weak in self.priority.edges:
            if not derived.outranks(strong, weak):
                raise InputError(
                    f"priority edge {strong} > {weak} conflicts with the scores"
                )
        self.priority = derived
        return structure


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:  # its text would name the path a second time
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


OPTIMALITY = {"s": "none", "p": "pareto", "g": "global", "c": "completion",
              "none": "none", "pareto": "pareto", "global": "global",
              "completion": "completion"}
SEMANTICS = {"brave": "brave", "cqa": "cqa", "int": "intersection"}
# The label of each flag set of r_update_table: its class names, or "-".
CLASS_LABELS = tuple(
    " ".join(name for k, name in enumerate(R_UPDATE_CLASSES) if flags >> k & 1) or "-"
    for flags in range(16)
)


def cmd_conflicts(ws: Workspace, args) -> int:
    found = ws.instance.conflicts
    if args.dot:
        _write(args.dot, hypergraph_dot(ws))
    ordered = sorted(found, key=lambda e: sorted(map(textio.format_literal, e)))
    for conflict in ordered:
        print(textio.format_literal_set(conflict))
    print(f"conflicts: {len(found)}")
    print(f"max conflict size: {max_conflict_size(found)}")
    return EXIT_OK


def hypergraph_dot(ws: Workspace) -> str:
    graph = ConflictHypergraph.of(ws.instance.conflicts)
    lines = ["graph conflicts {"]
    names = {}
    for i, vertex in enumerate(graph.vertices):
        names[vertex] = f"v{i}"
        lines.append(f'  v{i} [label="{vertex}"];')
    for j, edge in enumerate(graph.hyperedges):
        members = sorted(edge, key=lambda l: names[l])
        if len(members) == 2:
            lines.append(f"  {names[members[0]]} -- {names[members[1]]};")
        else:
            lines.append(f'  e{j} [shape=point, label=""];')
            for member in members:
                lines.append(f"  e{j} -- {names[member]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_repairs(ws: Workspace, args) -> int:
    kinds = {
        "delta": delta_repairs_of,
        "subset": subset_repairs_of,
        "superset": superset_repairs_of,
    }
    result = kinds[args.kind](ws.instance, ws.budget)
    for repair in result:
        print(textio.format_fact_set(repair))
    print(f"{args.kind} repairs: {len(result)}")
    return EXIT_OK


def cmd_check_repair(ws: Workspace, args) -> int:
    candidate = textio.parse_database(_read(args.repair))
    if not all(map(ws.instance.in_universe, candidate)):
        raise InputError("candidate repair contains facts outside the fact universe")
    if args.opt == "none":
        verdict = is_delta_repair_of(ws.instance, candidate)
    else:
        verdict = is_optimal_repair(candidate, ws.pdb(), args.opt)
    print("yes" if verdict else "no")
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_answer(ws: Workspace, args) -> int:
    q = textio.parse_query(_read(args.query))
    ws.score_structure()
    pdb = ws.pdb()
    result = query_mod.answers(pdb, q, SEMANTICS[args.sem], OPTIMALITY[args.opt])
    if q.is_boolean():
        print("yes" if result.holds() else "no")
        return EXIT_OK if result.holds() else EXIT_FALSE
    for answer in result.tuples:
        print("(" + ", ".join(answer) + ")")
    print(f"answers: {len(result.tuples)}")
    return EXIT_OK


def cmd_optimal(ws: Workspace, args) -> int:
    structure = ws.score_structure()
    pdb = ws.pdb()
    if args.opt == "lex":
        result = lexicographic_repairs(pdb, structure)
    else:
        result = optimal_repairs(pdb, OPTIMALITY[args.opt])
    for repair in result:
        print(textio.format_fact_set(repair))
    print(f"optimal repairs ({args.opt}): {len(result)}")
    return EXIT_OK


def cmd_aic(ws: Workspace, args) -> int:
    ctx = ws.rule_context("aic commands require --aics")
    if args.action == "classify":
        actions, table = r_update_table(ctx)
        texts = [str(action) for action in actions]
        lines = [f"{{{', '.join([texts[r] for r in ranks])}}}: {CLASS_LABELS[flags]}\n"
                 for ranks, flags in table]
        sys.stdout.write("".join(lines) + f"r-updates: {len(table)}\n")
        return EXIT_OK
    if args.action == "check-update":
        if not args.update:
            raise InputError("aic check-update requires --update")
        actions = textio.parse_updates(_read(args.update))
        if not is_r_update(ctx, actions):
            print("not an r-update")
            return EXIT_FALSE
        (entry,) = classify_updates(ctx.db, ctx.ground, [actions], ctx.budget)
        checks = entry.classes()
        for name, on in checks.items():
            print(f"{name}: {'yes' if on else 'no'}")
        if args.kind:
            return EXIT_OK if checks[args.kind] else EXIT_FALSE
        return EXIT_OK
    if args.action == "props":
        report = check_properties(ctx)
        print(f"monotone: {'yes' if report.monotone else 'no'}")
        print(f"closed under resolution: {'yes' if report.closed_under_resolution else 'no'}")
        print(
            "preserves actions under resolution: "
            + ("yes" if report.preserves_actions_resolution else "no")
        )
        print(
            "preserves actions under strengthening: "
            + ("yes" if report.preserves_actions_strengthening else "no")
        )
        for prop, note in report.counterexamples:
            print(f"  {prop}: {note}")
        return EXIT_OK
    raise InputError(f"unknown aic action: {args.action}")


def _write_or_print(path: Optional[str], text: str, label: str) -> None:
    if path:
        _write(path, text)
    else:
        print(f"# {label}")
        sys.stdout.write(text)


def cmd_translate(ws: Workspace, args) -> int:
    if args.direction == "to-denial":
        image, report = bridges.check_denial_image(
            ws.db, ws.schema, ws.constraints, ws.budget
        )
        _write_or_print(args.out_db, textio.format_database(image.db), "database")
        _write_or_print(
            args.out_constraints,
            textio.format_constraints(image.constraints),
            "constraints",
        )
        print(f"conflicts preserved: {'yes' if report.conflicts_match else 'no'}")
        print(f"repairs preserved: {'yes' if report.repairs_match else 'no'}")
        return EXIT_OK if report.ok() else EXIT_FALSE
    if args.direction == "prio-to-aic":
        rules = bridges.ground_rules_as_aics(bridges.priority_to_rules(ws.pdb()))
        _write_or_print(args.out_aics, textio.format_aics(rules), "active rules")
        return EXIT_OK
    if args.direction == "aic-to-prio":
        derived = bridges.rules_to_priority(ws.rule_context("aic-to-prio requires --aics"))
        for warning in derived.property_warnings:
            print(f"warning: {warning}")
        if derived.cycle is not None:
            cycle = " > ".join(str(l) for l in derived.cycle)
            print(f"derived priority is cyclic: {cycle}")
            return EXIT_FALSE
        _write_or_print(
            args.out_constraints,
            textio.format_constraints(derived.constraints),
            "constraints",
        )
        _write_or_print(
            args.out_priority, textio.format_priority(derived.priority), "priority"
        )
        return EXIT_OK
    raise InputError(f"unknown translation: {args.direction}")


def cmd_verify(ws: Workspace, args) -> int:
    if args.check == "prop8":
        report = bridges.check_translation_equivalence(ws.pdb())
        for family, label in (("pareto", "pareto-optimal"), ("founded", "founded"),
                              ("grounded", "grounded"), ("justified", "justified"),
                              ("well_founded", "well-founded")):
            print(f"{label} repairs: {report.count(family)}")
        good = report.ok()
        print(f"equivalence holds: {'yes' if good else 'no'}")
        return EXIT_OK if good else EXIT_FALSE
    if args.check == "prop10":
        report = bridges.check_roundtrip(ws.rule_context("verify prop10 requires --aics"))
        for warning in report.warnings:
            print(f"warning: {warning}")
        if report.cycle is not None:
            cycle = " > ".join(str(l) for l in report.cycle)
            print(f"derived priority is cyclic: {cycle}")
            return EXIT_FALSE
        print(f"binary conflicts: {'yes' if report.binary_conflicts else 'no'}")
        print(f"pareto-optimal repairs: {len(report.pareto)}")
        print(f"founded repairs: {len(report.founded)}")
        if report.applicable and report.binary_conflicts:
            good = report.equal()
            print(f"classes coincide: {'yes' if good else 'no'}")
            return EXIT_OK if good else EXIT_FALSE
        good = report.founded_within_pareto()
        witnesses = report.strictness_witnesses()
        print(f"founded within pareto: {'yes' if good else 'no'}")
        for witness in witnesses:
            print(f"pareto-only repair: {textio.format_fact_set(witness)}")
        return EXIT_OK if good else EXIT_FALSE
    raise InputError(f"unknown verification: {args.check}")


def _budget_cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid non-negative int value: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prioritydb",
        description="Repairs and inconsistency-tolerant query answering for "
        "prioritized databases and active integrity constraints.",
    )
    parser.add_argument("--db", help="facts file")
    parser.add_argument("--constraints", help="constraints file")
    parser.add_argument("--priority", help="priority file")
    parser.add_argument("--aics", help="active rules file")
    parser.add_argument("--schema", help="schema declarations (P/2. lines)")
    parser.add_argument("--max-universe", type=_budget_cap, default=22)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conflicts", help="list the conflicts")
    p.add_argument("--dot", help="also write the conflict hypergraph as DOT")

    p = sub.add_parser("repairs", help="enumerate repairs")
    p.add_argument("--kind", choices=["delta", "subset", "superset"], default="delta")

    p = sub.add_parser("optimal", help="enumerate optimal repairs")
    p.add_argument("--opt", choices=list(OPTIMALITY) + ["lex"], default="p")

    p = sub.add_parser("check-repair", help="check one candidate repair")
    p.add_argument("--repair", required=True, help="facts file with the candidate")
    p.add_argument(
        "--opt", choices=["none", "pareto", "global", "completion"], default="none"
    )

    p = sub.add_parser("answer", help="answer a query under a tolerant semantics")
    p.add_argument("--query", required=True)
    p.add_argument("--sem", choices=["brave", "cqa", "int"], required=True)
    p.add_argument("--opt", choices=["s", "p", "g", "c"], required=True)

    p = sub.add_parser("aic", help="active-rule commands")
    p.add_argument("action", choices=["classify", "check-update", "props"])
    p.add_argument("--update", help="update actions file (for check-update)")
    p.add_argument(
        "--kind",
        choices=list(R_UPDATE_CLASSES),
        help="with check-update: exit 0 iff the update has this property",
    )

    p = sub.add_parser("translate", help="translate between the frameworks")
    p.add_argument(
        "direction", choices=["to-denial", "prio-to-aic", "aic-to-prio"]
    )
    p.add_argument("--out-db")
    p.add_argument("--out-constraints")
    p.add_argument("--out-priority")
    p.add_argument("--out-aics")

    p = sub.add_parser("verify", help="run a named cross-framework check")
    p.add_argument("check", choices=["prop8", "prop10"])
    return parser


# Built by the first main call, not at import, and reused by later calls:
# parse_args leaves the parser unchanged.
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    # looked up per call, so a handler replaced on the module is the one run
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        ws = Workspace(args)
        return handler(ws, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:  # a crash must not read as the answer "no"
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

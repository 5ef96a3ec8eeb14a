"""End-to-end command-line behavior: commands, exit codes, determinism."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from corpus import random_linked_rule_instance, random_rule_instance
import prioritydb
from prioritydb import aic, cli
from prioritydb.cli import main
from prioritydb.errors import Budget
from prioritydb.model import Instance, Schema
from prioritydb.masks import ConflictMasks
from prioritydb.textio import (
    format_aics,
    format_database,
    format_update_set,
    parse_constraints,
    parse_database,
)

SRC = str(Path(prioritydb.__file__).parent.parent)
FIXTURES = Path(__file__).parent / "fixtures"
EX1 = FIXTURES / "example1"
EX3 = FIXTURES / "example3"
AIC9 = FIXTURES / "aic9"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


class TestConflictsCommand:
    def test_cascade(self, capsys):
        code, out = run(
            capsys,
            "--db", EX1 / "db.pdb", "--constraints", EX1 / "constraints.pdb",
            "conflicts",
        )
        assert code == 0
        assert "{A(a), B(a)}" in out
        assert "{A(a), !C(a)}" in out
        assert "conflicts: 3" in out
        assert "max conflict size: 2" in out

    def test_empty_database(self, capsys, tmp_path):
        empty = tmp_path / "empty.pdb"
        empty.write_text("")
        code, out = run(
            capsys,
            "--db", empty, "--constraints", EX1 / "constraints.pdb", "conflicts",
        )
        assert code == 0
        assert "conflicts: 0" in out

    def test_dot_output(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, _ = run(
            capsys,
            "--db", EX1 / "db.pdb", "--constraints", EX1 / "constraints.pdb",
            "conflicts", "--dot", target,
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("graph conflicts {")
        assert text.count("--") == 3

    def test_determinism(self, capsys):
        args = (
            "--db", EX3 / "db.pdb", "--constraints", EX3 / "constraints.pdb",
            "conflicts",
        )
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second


class TestRepairsCommand:
    def test_delta(self, capsys):
        code, out = run(
            capsys,
            "--db", EX1 / "db.pdb", "--constraints", EX1 / "constraints.pdb",
            "repairs", "--kind", "delta",
        )
        assert code == 0
        assert "{}" in out and "{A(a), C(a)}" in out and "{B(a), D(a)}" in out

    def test_subset(self, capsys):
        code, out = run(
            capsys,
            "--db", EX1 / "db.pdb", "--constraints", EX1 / "constraints.pdb",
            "repairs", "--kind", "subset",
        )
        assert code == 0
        assert "subset repairs: 1" in out

    def test_superset_empty(self, capsys):
        code, out = run(
            capsys,
            "--db", EX1 / "db.pdb", "--constraints", EX1 / "constraints.pdb",
            "repairs", "--kind", "superset",
        )
        assert code == 0
        assert "superset repairs: 0" in out


class TestCheckRepair:
    def test_accepts(self, capsys):
        code, out = run(
            capsys,
            "--db", EX3 / "db.pdb", "--constraints", EX3 / "constraints.pdb",
            "--priority", EX3 / "priority.pdb",
            "check-repair", "--repair", EX3 / "repair_big.pdb", "--opt", "completion",
        )
        assert code == 0 and "yes" in out

    def test_completion_rejects(self, capsys):
        code, out = run(
            capsys,
            "--db", EX3 / "db.pdb", "--constraints", EX3 / "constraints.pdb",
            "--priority", EX3 / "priority.pdb",
            "check-repair", "--repair", EX3 / "repair_rdc.pdb", "--opt", "completion",
        )
        assert code == 1 and "no" in out

    def test_plain_delta_check(self, capsys):
        code, _ = run(
            capsys,
            "--db", EX3 / "db.pdb", "--constraints", EX3 / "constraints.pdb",
            "check-repair", "--repair", EX3 / "repair_rdc.pdb",
        )
        assert code == 0

    def test_rejects_second_value_on_a_clean_key(self, capsys, tmp_path):
        # conflicts ground R only against the database facts; consistency and
        # check-repair must still see the body {R(m, v0), R(m, v1)}
        db_text = "R(k, v0).\nR(k, v1).\nR(m, v0).\n"
        constraints_text = "R(X, Y), R(X, Z), Y != Z -> false.\n"
        inst = Instance(
            parse_database(db_text), Schema.of([("R", 2)]), parse_constraints(constraints_text)
        )
        assert len(inst.conflicts) == 1
        candidate_text = "R(k, v0).\nR(m, v0).\nR(m, v1).\n"
        assert not inst.consistent(parse_database(candidate_text))
        assert inst.consistent(parse_database("R(k, v0).\nR(m, v0).\n"))
        for name, text in [("db", db_text), ("c", constraints_text), ("cand", candidate_text)]:
            (tmp_path / f"{name}.pdb").write_text(text)
        code, out = run(
            capsys,
            "--db", tmp_path / "db.pdb", "--constraints", tmp_path / "c.pdb",
            "check-repair", "--repair", tmp_path / "cand.pdb",
        )
        assert code == 1 and out == "no\n"

    @pytest.mark.parametrize("opt", ["none", "pareto", "global", "completion"])
    def test_declared_high_arity_predicate_answers_at_once(self, capsys, tmp_path, opt):
        # the fact universe of P/40 holds 3^40 facts; membership must not build it
        files = {
            "db": "R(a, b).\nR(a, c).\n",
            "c": "R(X, Y), R(X, Z), Y != Z -> false.\n",
            "schema": "P/40.\n",
            "rep": "R(a, b).\n",
            "stray": "R(a, b).\nP(" + ", ".join(["a"] * 39 + ["d"]) + ").\n",
        }
        for name, text in files.items():
            (tmp_path / f"{name}.pdb").write_text(text)
        args = ["--db", tmp_path / "db.pdb", "--constraints", tmp_path / "c.pdb",
                "--schema", tmp_path / "schema.pdb", "check-repair", "--opt", opt, "--repair"]
        start = time.perf_counter()
        assert run(capsys, *args, tmp_path / "rep.pdb") == (0, "yes\n")
        assert time.perf_counter() - start < 1.0
        assert main([str(a) for a in args + [tmp_path / "stray.pdb"]]) == 2
        assert capsys.readouterr().err == (
            "error: candidate repair contains facts outside the fact universe\n"
        )


class TestAnswer:
    def test_brave_pareto_yes(self, capsys):
        code, out = run(
            capsys,
            "--db", EX3 / "db.pdb", "--constraints", EX3 / "constraints.pdb",
            "--priority", EX3 / "priority.pdb",
            "answer", "--query", EX3 / "q_a.pdb", "--sem", "brave", "--opt", "p",
        )
        assert code == 0 and out.strip() == "yes"

    def test_cqa_pareto_no(self, capsys):
        code, out = run(
            capsys,
            "--db", EX3 / "db.pdb", "--constraints", EX3 / "constraints.pdb",
            "--priority", EX3 / "priority.pdb",
            "answer", "--query", EX3 / "q_a.pdb", "--sem", "cqa", "--opt", "p",
        )
        assert code == 1 and out.strip() == "no"

    def test_intersection_no(self, capsys):
        code, out = run(
            capsys,
            "--db", EX3 / "db.pdb", "--constraints", EX3 / "constraints.pdb",
            "--priority", EX3 / "priority.pdb",
            "answer", "--query", EX3 / "q_rdy.pdb", "--sem", "int", "--opt", "p",
        )
        assert code == 1 and out.strip() == "no"

    def test_open_query_tuples(self, capsys):
        code, out = run(
            capsys,
            "--db", EX3 / "db.pdb", "--constraints", EX3 / "constraints.pdb",
            "--priority", EX3 / "priority.pdb",
            "answer", "--query", EX3 / "q_open.pdb", "--sem", "brave", "--opt", "s",
        )
        assert code == 0
        assert "(b)" in out and "(c)" in out and "answers: 2" in out

    def test_deep_query_has_no_recursion_limit(self, capsys, tmp_path):
        db = tmp_path / "db.pdb"
        db.write_text("A(a).\n")
        query = tmp_path / "q.pdb"
        query.write_text(f"Q(X0) :- {', '.join(f'A(X{i})' for i in range(1200))}.\n")
        code, out = run(
            capsys, "--db", db, "answer", "--query", query, "--sem", "cqa", "--opt", "s"
        )
        assert code == 0
        assert out == "(a)\nanswers: 1\n"


class TestAicCommands:
    def test_classify(self, capsys):
        code, out = run(
            capsys,
            "--db", AIC9 / "db.pdb", "--aics", AIC9 / "rules.pdb", "aic", "classify",
        )
        assert code == 0
        assert "r-updates: 4" in out
        assert "{-al, -ga}: founded wellfounded grounded justified" in out
        assert "{-be, -de}: wellfounded" in out

    def test_classify_prints_the_whole_instance_table(self, capsys, tmp_path):
        # random and linked rule instances, against every r-update classified
        # under every ground rule and printed by textio.format_update_set
        rng = random.Random(0xC1A55)
        seen = dict.fromkeys(["add", "reordered", "groups", "joined"], 0)
        db_file, rules_file = tmp_path / "db.pdb", tmp_path / "rules.pdb"
        for n in range(120):
            inst = (random_rule_instance(rng) if n % 2 else
                    random_linked_rule_instance(rng, blocks=rng.randint(2, 3)))
            db_file.write_text(format_database(inst.db))
            rules_file.write_text(format_aics(inst.rules))
            code, out = run(capsys, "--db", db_file, "--aics", rules_file, "aic", "classify")
            ctx = aic.RuleContext(inst.db, inst.schema, inst.rules)
            ground = ctx.ground
            table = aic.classify_updates(inst.db, ground, aic.r_updates(ctx))
            expected = "".join(
                f"{format_update_set(entry.actions)}: "
                f"{' '.join(k for k, on in entry.classes().items() if on) or '-'}\n"
                for entry in table
            ) + f"r-updates: {len(table)}\n"
            assert (code, out) == (0, expected), inst
            masks = ConflictMasks(
                Instance(inst.db, inst.schema, aic.constraints_of(inst.rules)), Budget())
            facts = [l.fact for l in masks.index]
            seen["add"] += any(not l.positive for l in masks.index)
            seen["reordered"] += facts != sorted(facts)
            components = {comp for comp, _ in masks.parts}
            groups = [group for group, _ in aic.classify_components(masks, ground)]
            seen["groups"] += len(groups) >= 2
            seen["joined"] += not components.issuperset(groups)  # a group of components
        assert min(seen.values()) >= 10, seen

    def test_check_update_pass(self, capsys):
        code, out = run(
            capsys,
            "--db", AIC9 / "db.pdb", "--aics", AIC9 / "rules.pdb",
            "aic", "check-update", "--update", AIC9 / "update1.pdb",
            "--kind", "grounded",
        )
        assert code == 0
        assert "grounded: yes" in out

    def test_check_update_fail(self, capsys):
        code, out = run(
            capsys,
            "--db", AIC9 / "db.pdb", "--aics", AIC9 / "rules.pdb",
            "aic", "check-update", "--update", AIC9 / "update3.pdb",
            "--kind", "founded",
        )
        assert code == 1
        assert "founded: no" in out and "wellfounded: yes" in out

    @pytest.mark.parametrize(
        "text",
        ["-al. +al.\n", "-al. -ga. +de.\n", "-al. -ga. -zz.\n", "-al. -ga. +zz(a).\n", "-al.\n"],
        ids=["inconsistent", "no-op-add", "no-op-removal", "outside-universe", "not-minimal"],
    )
    def test_check_update_not_an_r_update(self, capsys, tmp_path, text):
        update = tmp_path / "update.pdb"
        update.write_text(text)
        code, out = run(
            capsys,
            "--db", AIC9 / "db.pdb", "--aics", AIC9 / "rules.pdb",
            "aic", "check-update", "--update", update, "--kind", "founded",
        )
        assert (code, out) == (1, "not an r-update\n")

    def test_check_update_enumerates_no_repairs(self, capsys):
        # the rules' conflicts hold 4 literals, above this cap; only the
        # update's own 2 actions meet the budget
        code, out = run(
            capsys,
            "--db", AIC9 / "db.pdb", "--aics", AIC9 / "rules.pdb", "--max-universe", "2",
            "aic", "check-update", "--update", AIC9 / "update1.pdb",
        )
        assert code == 0
        assert out == "founded: yes\nwellfounded: yes\ngrounded: yes\njustified: yes\n"

    def test_props(self, capsys):
        code, out = run(
            capsys,
            "--db", AIC9 / "db.pdb", "--aics", AIC9 / "rules.pdb", "aic", "props",
        )
        assert code == 0
        assert "monotone: yes" in out
        assert "preserves actions under strengthening: no" in out

    def test_props_caps_no_mentioned_fact_set(self, capsys, tmp_path):
        # 12 independent rules mention 24 facts, above the default cap of 22
        db, rules = tmp_path / "db.pdb", tmp_path / "rules.pdb"
        db.write_text("".join(f"p{i}.\nq{i}.\n" for i in range(12)))
        rules.write_text("".join(f"p{i}, q{i} -> {{ -q{i} }}.\n" for i in range(12)))
        code, out = run(capsys, "--db", db, "--aics", rules, "aic", "props")
        assert code == 0
        assert out == (
            "monotone: yes\nclosed under resolution: yes\n"
            "preserves actions under resolution: yes\n"
            "preserves actions under strengthening: yes\n"
        )

    @pytest.mark.parametrize(
        "command",
        [
            ("verify", "prop10"),
            ("translate", "aic-to-prio"),
            ("aic", "classify"),
            ("aic", "props"),
            ("aic", "check-update", "--update", AIC9 / "update1.pdb"),
        ],
        ids=["verify-prop10", "aic-to-prio", "classify", "props", "check-update"],
    )
    def test_rules_ground_once(self, capsys, monkeypatch, command):
        original = aic.ground_rules
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("prioritydb") and getattr(module, "ground_rules", None) is original:
                monkeypatch.setattr(module, "ground_rules", counting)
        code, _ = run(capsys, "--db", AIC9 / "db.pdb", "--aics", AIC9 / "rules.pdb", *command)
        assert code in (0, 1)
        assert len(calls) == 1


class TestDeterminism:
    def test_every_command_independent_of_hash_seed(self):
        """Every command on the fixtures prints the same bytes and exit code
        under two string hash seeds: no output follows set or dict order."""
        ex3 = ["--db", EX3 / "db.pdb", "--constraints", EX3 / "constraints.pdb",
               "--priority", EX3 / "priority.pdb"]
        aic9 = ["--db", AIC9 / "db.pdb", "--aics", AIC9 / "rules.pdb"]
        commands = [
            ex3 + ["conflicts"],
            ex3 + ["repairs"],
            ex3 + ["repairs", "--kind", "subset"],
            *(ex3 + ["optimal", "--opt", opt] for opt in ("p", "g", "c", "lex")),
            *(ex3 + ["answer", "--query", EX3 / query, "--sem", sem, "--opt", "p"]
              for query in ("q_a.pdb", "q_open.pdb") for sem in ("brave", "cqa", "int")),
            ex3 + ["check-repair", "--repair", EX3 / "repair_rdc.pdb", "--opt", "completion"],
            ex3 + ["verify", "prop8"],
            ex3 + ["translate", "to-denial"],
            ex3 + ["translate", "prio-to-aic"],
            aic9 + ["aic", "classify"],
            aic9 + ["aic", "props"],
            aic9 + ["aic", "check-update", "--update", AIC9 / "update1.pdb"],
            aic9 + ["translate", "aic-to-prio"],
            aic9 + ["verify", "prop10"],
        ]
        script = (
            "from prioritydb.cli import main\n"
            "for argv in %r:\n"
            "    print('$', *argv, flush=True)\n"
            "    print('exit', main(argv), flush=True)\n"
        ) % [[str(a) for a in argv] for argv in commands]
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, env=env, check=True
            )
            outputs.append((proc.stdout, proc.stderr))
        assert outputs[0] == outputs[1]
        stdout = outputs[0][0]
        assert stdout.count(b"\nexit ") == len(commands)
        assert stdout.count(b"preserves_actions_strengthening:") == 4


class TestTranslate:
    def test_to_denial(self, capsys, tmp_path):
        out_db = tmp_path / "db.pdb"
        out_c = tmp_path / "constraints.pdb"
        code, out = run(
            capsys,
            "--db", EX1 / "db.pdb", "--constraints", EX1 / "constraints.pdb",
            "translate", "to-denial",
            "--out-db", out_db, "--out-constraints", out_c,
        )
        assert code == 0
        assert "conflicts preserved: yes" in out
        assert "repairs preserved: yes" in out

        image_db = parse_database(out_db.read_text())
        assert len(image_db) == 4
        image_constraints = parse_constraints(out_c.read_text())
        assert len(image_constraints) == 3

    def test_prio_to_aic_roundtrips_through_parser(self, capsys, tmp_path):
        out_rules = tmp_path / "rules.pdb"
        code, _ = run(
            capsys,
            "--db", EX3 / "db.pdb", "--constraints", EX3 / "constraints.pdb",
            "--priority", EX3 / "priority.pdb",
            "translate", "prio-to-aic", "--out-aics", out_rules,
        )
        assert code == 0
        from prioritydb.textio import parse_aics

        rules = parse_aics(out_rules.read_text())
        assert len(rules) == 8

    def test_aic_to_prio(self, capsys, tmp_path):
        out_c = tmp_path / "constraints.pdb"
        out_p = tmp_path / "priority.pdb"
        code, _ = run(
            capsys,
            "--db", AIC9 / "db.pdb", "--aics", AIC9 / "rules.pdb",
            "translate", "aic-to-prio",
            "--out-constraints", out_c, "--out-priority", out_p,
        )
        assert code == 0
        from prioritydb.textio import parse_priority

        priority, _ = parse_priority(out_p.read_text())
        assert {(str(a), str(b)) for a, b in priority.edges} == {
            ("al", "de"),
            ("be", "ga"),
        }

    def test_aic_to_prio_cycle(self, capsys, tmp_path):
        db = tmp_path / "db.pdb"
        db.write_text("A(a).\nB(a).\nC(a).\n")
        rules = tmp_path / "rules.pdb"
        rules.write_text(
            "A(X), B(X) -> { -A(X) }.\n"
            "B(X), C(X) -> { -B(X) }.\n"
            "C(X), A(X) -> { -C(X) }.\n"
        )
        code, out = run(
            capsys, "--db", db, "--aics", rules, "translate", "aic-to-prio"
        )
        assert code == 1
        assert "cyclic" in out


class TestVerify:
    def test_translation_equivalence(self, capsys):
        code, out = run(
            capsys,
            "--db", EX3 / "db.pdb", "--constraints", EX3 / "constraints.pdb",
            "--priority", EX3 / "priority.pdb",
            "verify", "prop8",
        )
        assert code == 0
        assert "equivalence holds: yes" in out

    def test_translation_equivalence_at_14_keys(self, capsys, tmp_path):
        # 2^14 delta repairs, 2^7 in each class: classified per key
        flags = _key_violations(tmp_path, 14, oriented=range(0, 14, 2))
        code, out = run(capsys, "--max-universe", "64", *flags, "verify", "prop8")
        assert code == 0
        assert out == "".join(
            f"{label} repairs: 128\n"
            for label in ("pareto-optimal", "founded", "grounded", "justified", "well-founded")
        ) + "equivalence holds: yes\n"

    def test_translation_equivalence_lists_no_repairs(self, capsys, tmp_path, monkeypatch):
        # 5 exclusion pairs P(a_j), Q(a_j), 3 of them oriented: 4 repairs per class
        db, constraints, priority = (tmp_path / f"{n}.pdb" for n in ("db", "c", "p"))
        db.write_text("".join(f"P(a{j}).\nQ(a{j}).\n" for j in range(5)))
        constraints.write_text("P(X), Q(X) -> false.\n")
        priority.write_text("P(a0) > Q(a0).\nQ(a1) > P(a1).\nP(a2) > Q(a2).\n")
        builds = []

        def counted(name, build):
            def wrapper(*args, **kwargs):
                builds.append(name)
                return build(*args, **kwargs)
            return wrapper

        for module in vars(prioritydb).values():
            if hasattr(module, "sorted_repair_set"):
                monkeypatch.setattr(module, "sorted_repair_set",
                                    counted("sorted_repair_set", module.sorted_repair_set))
        monkeypatch.setattr(ConflictMasks, "repair_product",
                            counted("repair_product", ConflictMasks.repair_product))
        flags = ["--db", db, "--constraints", constraints, "--priority", priority]
        code, out = run(capsys, *flags, "verify", "prop8")
        assert (code, builds) == (0, [])
        assert out == "".join(
            f"{label} repairs: 4\n"
            for label in ("pareto-optimal", "founded", "grounded", "justified", "well-founded")
        ) + "equivalence holds: yes\n"
        # the counter sees a listing command
        assert run(capsys, *flags, "optimal")[0] == 0 and builds

    def test_translation_equivalence_at_30_keys_counts_without_listing(self, capsys, tmp_path):
        # 2^15 repairs in each class, one choice of 2 per open key
        flags = _key_violations(tmp_path, 30, oriented=range(0, 30, 2))
        code, out = run(capsys, "--max-universe", "64", *flags, "verify", "prop8")
        assert code == 0
        assert out == "".join(
            f"{label} repairs: 32768\n"
            for label in ("pareto-optimal", "founded", "grounded", "justified", "well-founded")
        ) + "equivalence holds: yes\n"

    def test_translation_equivalence_at_12_keys_on_the_default_budget(self, capsys, tmp_path):
        # 24 conflict literals; the 6 open keys leave 12 in the free part
        flags = _key_violations(tmp_path, 12, oriented=range(0, 12, 2))
        code, out = run(capsys, *flags, "verify", "prop8")
        assert code == 0
        assert out == "".join(
            f"{label} repairs: 64\n"
            for label in ("pareto-optimal", "founded", "grounded", "justified", "well-founded")
        ) + "equivalence holds: yes\n"

    @pytest.mark.parametrize("rules", [12, 40])
    def test_roundtrip_on_independent_rules_at_the_default_budget(self, capsys, tmp_path, rules):
        # 2 conflict literals per rule, one founded update per group
        db, aics = tmp_path / "db.pdb", tmp_path / "rules.pdb"
        db.write_text("".join(f"p{i}.\nq{i}.\n" for i in range(rules)))
        aics.write_text("".join(f"p{i}, q{i} -> {{ -q{i} }}.\n" for i in range(rules)))
        code, out = run(capsys, "--db", db, "--aics", aics, "verify", "prop10")
        assert code == 0
        assert out == (
            "binary conflicts: yes\npareto-optimal repairs: 1\nfounded repairs: 1\n"
            "classes coincide: yes\n"
        )
        # aic classify lists every r-update, so it keeps the whole cap
        code = main(["--db", str(db), "--aics", str(aics), "aic", "classify"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            f"budget exceeded: conflict literal set has {2 * rules} elements, "
            "above the cap of 22\n"
        )

    def test_roundtrip_strictness(self, capsys, tmp_path):
        db = tmp_path / "db.pdb"
        db.write_text("al.\nbe.\nga.\nde.\nep.\n")
        rules = tmp_path / "rules.pdb"
        rules.write_text(
            "al, be, ga -> { -be }.\n"
            "al, be, de -> { -al, -be }.\n"
            "de, ep -> { -de }.\n"
        )
        code, out = run(capsys, "--db", db, "--aics", rules, "verify", "prop10")
        assert code == 0
        assert "founded within pareto: yes" in out
        assert "pareto-only repair: {be, ep, ga}" in out

    def test_roundtrip_lists_only_the_repairs_it_prints(self, capsys, tmp_path, monkeypatch):
        # 5 independent rules, 2 of them open: 4 repairs in each class
        listed = []
        build = ConflictMasks.repair_product
        monkeypatch.setattr(ConflictMasks, "repair_product",
                            lambda *args: listed.append(args[3]) or build(*args))
        code, out = run(capsys, *_independent_rules(tmp_path, 5), "verify", "prop10")
        assert (code, listed) == (0, [])
        assert out == (
            "binary conflicts: yes\npareto-optimal repairs: 4\nfounded repairs: 4\n"
            "classes coincide: yes\n"
        )
        # a Pareto-only repair is printed from the listed founded and Pareto repairs
        self.test_roundtrip_strictness(capsys, tmp_path)
        assert listed == ["r-update class product", "optimal repair product"]

    def test_roundtrip_at_30_rules_counts_without_listing(self, capsys, tmp_path):
        # 2^15 repairs in each class, one choice of 2 per open rule
        flags = _independent_rules(tmp_path, 30)
        code, out = run(capsys, "--max-universe", "64", *flags, "verify", "prop10")
        assert code == 0
        assert out == (
            "binary conflicts: yes\npareto-optimal repairs: 32768\nfounded repairs: 32768\n"
            "classes coincide: yes\n"
        )


class TestScoreMode:
    def test_lexicographic_optimal_with_scores(self, capsys, tmp_path):
        scores = tmp_path / "scores.pdb"
        scores.write_text("score A(a) = 2.\nscore B(a) = 1.\n")
        code, out = run(
            capsys,
            "--db", EX1 / "db.pdb", "--constraints", EX1 / "constraints.pdb",
            "--priority", scores,
            "optimal", "--opt", "lex",
        )
        assert code == 0
        assert "{A(a), C(a)}" in out
        assert "optimal repairs (lex): 1" in out

    def test_scores_collapse_all_kinds(self, capsys, tmp_path):
        scores = tmp_path / "scores.pdb"
        scores.write_text("score A(a) = 2.\nscore B(a) = 1.\n")
        for opt in ("p", "g", "c"):
            code, out = run(
                capsys,
                "--db", EX1 / "db.pdb", "--constraints", EX1 / "constraints.pdb",
                "--priority", scores,
                "optimal", "--opt", opt,
            )
            assert code == 0 and "{A(a), C(a)}" in out and ": 1" in out


def _independent_rules(tmp_path, rules: int) -> list[str]:
    """Global flags for ``P(a_j)``, ``Q(a_j)`` under ``P(a_j), Q(a_j) -> {
    -Q(a_j) }``, whose rule also offers ``-P(a_j)`` for odd ``j``."""
    (tmp_path / "db.pdb").write_text("".join(f"P(a{j}).\nQ(a{j}).\n" for j in range(rules)))
    (tmp_path / "rules.pdb").write_text("".join(
        f"P(a{j}), Q(a{j}) -> {{ {'-P(a%d), ' % j if j % 2 else ''}-Q(a{j}) }}.\n"
        for j in range(rules)))
    return ["--db", str(tmp_path / "db.pdb"), "--aics", str(tmp_path / "rules.pdb")]


def _key_violations(tmp_path, keys: int, oriented) -> list[str]:
    """Global flags for ``R(k_i, v0)``, ``R(k_i, v1)`` on each key under a key
    constraint, with ``v0`` preferred on the ``oriented`` keys."""
    files = {
        "db.pdb": "".join(f"R(k{i}, v{j}).\n" for i in range(keys) for j in range(2)),
        "constraints.pdb": "R(X, Y), R(X, Z), Y != Z -> false.\n",
        "priority.pdb": "".join(f"R(k{i}, v0) > R(k{i}, v1).\n" for i in oriented),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return ["--db", str(tmp_path / "db.pdb"), "--constraints", str(tmp_path / "constraints.pdb"),
            "--priority", str(tmp_path / "priority.pdb")]


class TestLexicographicAtScale:
    def test_lex_at_18_keys_answers_at_the_default_budget(self, capsys, tmp_path):
        # 36 conflict literals, in components of 2: lex caps each component
        # and the free part of the product, as --opt p does
        flags = _key_violations(tmp_path, 18, oriented=range(0, 18, 2))
        code, lex = run(capsys, *flags, "optimal", "--opt", "lex")
        assert code == 0
        assert run(capsys, *flags, "optimal", "--opt", "p") == (
            0, lex.replace("optimal repairs (lex): 512", "optimal repairs (p): 512")
        )
        assert lex.endswith("optimal repairs (lex): 512\n")


class TestAnswerAtScale:
    @pytest.mark.parametrize("sem, keys", [("cqa", range(0, 40, 2)), ("brave", range(40)),
                                           ("int", range(0, 40, 2))])
    def test_answer_at_40_keys_answers_at_the_default_budget(self, capsys, tmp_path, sem, keys):
        # 2^20 Pareto-optimal repairs; each tuple's support lies in one component
        query = tmp_path / "q.pdb"
        query.write_text("q(X) :- R(X, v0).\n")
        flags = _key_violations(tmp_path, 40, oriented=range(0, 40, 2))
        start = time.perf_counter()
        code, out = run(capsys, *flags, "answer", "--query", query, "--sem", sem, "--opt", "p")
        assert time.perf_counter() - start < 5
        assert code == 0
        assert out == "".join(f"(k{i})\n" for i in sorted(map(str, keys))) + (
            f"answers: {len(keys)}\n"
        )


def _rook(tmp_path, m: int) -> list[str]:
    """Global flags for ``R(a_i, b_j)`` on i, j < m under a key on each
    argument, with ``R(a_i, b_i)`` preferred over the rest of its row, at
    ``--max-universe 128``: one component of m² literals and m! repairs."""
    files = {
        "db.pdb": "".join(f"R(a{i}, b{j}).\n" for i in range(m) for j in range(m)),
        "constraints.pdb": "R(X, Y), R(X, Z), Y != Z -> false.\nR(Y, X), R(Z, X), Y != Z -> false.\n",
        "priority.pdb": "".join(
            f"R(a{i}, b{i}) > R(a{i}, b{j}).\n" for i in range(m) for j in range(m) if j != i
        ),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return ["--max-universe", "128", "--db", str(tmp_path / "db.pdb"),
            "--constraints", str(tmp_path / "constraints.pdb"),
            "--priority", str(tmp_path / "priority.pdb")]


class TestCompletionOnTheRookInstance:
    @pytest.mark.parametrize("m", [5, 6])
    def test_one_optimum_and_both_verdicts(self, capsys, tmp_path, m):
        # the diagonal is the one completion optimum; swapping its last two
        # rows gives a delta repair that is not
        flags = _rook(tmp_path, m)
        diagonal = [f"R(a{i}, b{i})" for i in range(m)]
        assert run(capsys, *flags, "optimal", "--opt", "c") == (
            0, "{" + ", ".join(diagonal) + "}\noptimal repairs (c): 1\n"
        )
        swapped = diagonal[:-2] + [f"R(a{m - 2}, b{m - 1})", f"R(a{m - 1}, b{m - 2})"]
        for repair, verdict in ((diagonal, (0, "yes\n")), (swapped, (1, "no\n"))):
            (tmp_path / "repair.pdb").write_text("".join(f"{f}.\n" for f in repair))
            assert run(capsys, *flags, "check-repair", "--repair", tmp_path / "repair.pdb",
                       "--opt", "completion") == verdict
            assert run(capsys, *flags, "check-repair", "--repair", tmp_path / "repair.pdb",
                       "--opt", "none") == (0, "yes\n")


class TestErrors:
    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.pdb"
        bad.write_text("A(a")
        code = main(["--db", str(bad), "conflicts"])
        assert code == 2

    @pytest.mark.parametrize(
        "kind, stage",
        [("superset", "addition pool"), ("delta", "conflict literal set")],
        ids=["superset", "delta"],
    )
    def test_budget_exit_code(self, capsys, kind, stage):
        code = main(
            [
                "--db", str(EX3 / "db.pdb"),
                "--constraints", str(EX3 / "constraints.pdb"),
                "--max-universe", "3",
                "repairs", "--kind", kind,
            ]
        )
        assert code == 3
        assert stage in capsys.readouterr().err

    def test_arity_clash_rejected(self, capsys, tmp_path):
        db = tmp_path / "db.pdb"
        db.write_text("A(a).\nA(a, b).\n")
        code = main(["--db", str(db), "conflicts"])
        assert code == 2

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def crash(ws, args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_conflicts", crash)
        code = main(["--db", str(EX1 / "db.pdb"), "conflicts"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError('boom')\n"

    def test_non_utf8_input_is_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.pdb"
        bad.write_bytes(b"R(a, \xff).\n")
        code = main(["--db", str(bad), "conflicts"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode")

    def test_unwritable_dot_path_is_an_input_error(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "g.dot"
        code = main(["--db", str(EX1 / "db.pdb"), "--constraints", str(EX1 / "constraints.pdb"),
                     "conflicts", "--dot", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")

    def test_unreadable_path_is_named_once(self, capsys, tmp_path):
        missing = tmp_path / "missing.pdb"
        code = main(["--db", str(missing), "conflicts"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: cannot read {missing}: No such file or directory\n"

    def test_unwritable_path_is_named_once(self, capsys, tmp_path):
        target = tmp_path / "no" / "g.dot"
        code = main(["--db", str(EX1 / "db.pdb"), "--constraints", str(EX1 / "constraints.pdb"),
                     "conflicts", "--dot", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: cannot write {target}: No such file or directory\n"

    @pytest.mark.parametrize("opt", ["p", "g", "c", "lex"])
    def test_optimal_budget_caps_components_not_the_instance(self, capsys, tmp_path, opt):
        # 80 conflict literals, but 38 of the 40 keys are oriented: the free
        # part of the product is the 4 literals of the two open keys
        code, out = run(capsys, *_key_violations(tmp_path, 40, oriented=range(2, 40)),
                        "optimal", "--opt", opt)
        assert code == 0
        assert out.endswith(f"optimal repairs ({opt}): 4\n")
        assert all("R(k2, v0)" in line and "R(k39, v0)" in line for line in out.splitlines()[:4])

    @pytest.mark.parametrize("opt", ["p", "g", "c", "lex"])
    def test_optimal_budget_caps_the_product(self, capsys, tmp_path, opt):
        code = main([*_key_violations(tmp_path, 40, oriented=()), "optimal", "--opt", opt])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "budget exceeded: optimal repair product has 80 elements, above the cap of 22\n"
        )

    def test_cqa_budget_caps_the_components_its_supports_touch(self, capsys, tmp_path):
        # the supports R(k_i, v1) of the 12 open keys span 24 literals, one
        # component each, and the oriented keys' supports are excluded by
        # their one optimum; R(X, v1), R(Y, v1) joins all 12 into one group
        flags = _key_violations(tmp_path, 24, oriented=range(0, 24, 2))
        query = tmp_path / "q.pdb"
        query.write_text("q :- R(X, v1).\n")
        for sem, out in (("brave", "yes\n"), ("int", "no\n"), ("cqa", "no\n")):
            assert run(capsys, *flags, "answer", "--query", query, "--sem", sem,
                       "--opt", "p") == (0 if sem == "brave" else 1, out)
        query.write_text("q :- R(X, v1), R(Y, v1).\n")
        code = main([*flags, "answer", "--query", str(query), "--sem", "cqa", "--opt", "p"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "budget exceeded: optimal repair product has 24 elements, above the cap of 22\n"
        )

    def test_aic_classify_keeps_the_instance_cap(self, capsys, tmp_path):
        # 12 conflict literals in components of 2: the cap admits every
        # component, but the command lists every r-update
        (tmp_path / "rules.pdb").write_text("R(X, v0), R(X, v1) -> { -R(X, v1) }.\n")
        flags = _key_violations(tmp_path, 6, oriented=range(0, 6, 2))[:2]
        flags += ["--aics", str(tmp_path / "rules.pdb"), "aic", "classify"]
        code = main(["--max-universe", "4", *flags])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "budget exceeded: conflict literal set has 12 elements, above the cap of 4\n"
        )
        assert main(["--max-universe", "12", *flags]) == 0

    def test_verify_prop8_caps_the_product_not_the_instance(self, capsys, tmp_path):
        # 12 conflict literals in components of 2: the 3 open keys leave 6
        # literals in the free part of the product of optima
        flags = [*_key_violations(tmp_path, 6, oriented=range(0, 6, 2)), "verify", "prop8"]
        code = main(["--max-universe", "4", *flags])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "budget exceeded: optimal repair product has 6 elements, above the cap of 4\n"
        )
        assert main(["--max-universe", "6", *flags]) == 0

    def test_delta_repairs_keep_the_instance_cap(self, capsys, tmp_path):
        code = main([*_key_violations(tmp_path, 40, oriented=range(2, 40)), "repairs"])
        assert code == 3
        assert "conflict literal set has 80 elements" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out-db", "--out-constraints"])
    def test_unwritable_translate_path_is_an_input_error(self, capsys, tmp_path, flag):
        target = tmp_path / "no" / "such" / "out.pdb"
        code = main(["--db", str(EX1 / "db.pdb"), "--constraints", str(EX1 / "constraints.pdb"),
                     "translate", "to-denial", flag, str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: cannot write {target}: ")

    @pytest.mark.parametrize(
        "files, command, message",
        [
            ((), ("aic", "classify"), "aic commands require --aics"),
            ((), ("verify", "prop10"), "verify prop10 requires --aics"),
            ((), ("translate", "aic-to-prio"), "aic-to-prio requires --aics"),
            (("--aics", AIC9 / "rules.pdb"), ("aic", "check-update"),
             "aic check-update requires --update"),
            (("--aics", AIC9 / "rules.pdb"), ("aic", "check-update", "--kind", "grounded"),
             "aic check-update requires --update"),
        ],
        ids=["classify", "prop10", "aic-to-prio", "check-update", "check-update-kind"],
    )
    def test_missing_input_file_is_an_input_error(self, capsys, files, command, message):
        code = main([str(a) for a in ("--db", AIC9 / "db.pdb", *files, *command)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flag, value", [("--max-universe", "-1")])
    def test_negative_budget_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main([flag, value, "--db", str(EX3 / "db.pdb"),
                  "--constraints", str(EX3 / "constraints.pdb"), "repairs"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert captured.err.endswith(
            f"prioritydb: error: argument {flag}: invalid non-negative int value: '{value}'\n"
        )


def _fresh_process(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "prioritydb.cli", *map(str, argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    return proc.returncode, proc.stdout


class TestParserReuse:
    """main builds its argparse parser once per process; no call may see the
    state of an earlier one."""

    def test_parser_built_once(self, capsys, monkeypatch):
        original = cli.build_parser
        built = []

        def counting():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        for command in ("conflicts", "repairs", "conflicts"):
            run(capsys, "--db", EX1 / "db.pdb", "--constraints", EX1 / "constraints.pdb", command)
        assert len(built) == 1

    def test_usage_error_then_command_matches_fresh_process(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["repairs", "--kind", "nonsense"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        argv = ("--db", EX1 / "db.pdb", "--constraints", EX1 / "constraints.pdb", "repairs")
        assert run(capsys, *argv) == _fresh_process(*argv)

    def test_kind_defaults_do_not_leak_between_commands(self, capsys):
        # repairs --kind defaults to delta; aic --kind defaults to none, so
        # check-update answers 0 even though update3 is not founded
        code, out = run(
            capsys,
            "--db", EX1 / "db.pdb", "--constraints", EX1 / "constraints.pdb",
            "repairs", "--kind", "subset",
        )
        assert (code, out.splitlines()[-1]) == (0, "subset repairs: 1")
        code, out = run(
            capsys,
            "--db", AIC9 / "db.pdb", "--aics", AIC9 / "rules.pdb",
            "aic", "check-update", "--update", AIC9 / "update3.pdb",
        )
        assert code == 0 and "founded: no" in out
        code, out = run(
            capsys, "--db", EX1 / "db.pdb", "--constraints", EX1 / "constraints.pdb", "repairs",
        )
        assert (code, out.splitlines()[-1]) == (0, "delta repairs: 3")

    @pytest.mark.parametrize("argv", [["--help"], ["aic", "--help"]], ids=["top", "aic"])
    def test_help_is_identical_on_every_call(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("usage: prioritydb")

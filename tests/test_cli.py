"""End-to-end command-line behavior: commands, exit codes, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import prioritydb
from prioritydb import aic, cli
from prioritydb.cli import main

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

    def test_props(self, capsys):
        code, out = run(
            capsys,
            "--db", AIC9 / "db.pdb", "--aics", AIC9 / "rules.pdb", "aic", "props",
        )
        assert code == 0
        assert "monotone: yes" in out
        assert "preserves actions under strengthening: no" in out

    def test_props_independent_of_hash_seed(self):
        argv = ["--db", AIC9 / "db.pdb", "--aics", AIC9 / "rules.pdb", "aic", "props"]
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            proc = subprocess.run(
                [sys.executable, "-m", "prioritydb.cli", *map(str, argv)],
                capture_output=True, env=env, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"preserves_actions_strengthening:") == 4

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
        from prioritydb.textio import parse_constraints, parse_database

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

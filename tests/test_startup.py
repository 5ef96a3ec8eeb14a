"""Start-up: the rule side (``aic``, ``bridges``) runs on first use only, and
the package's public names are the same whichever side has run.

Both rule modules are in ``sys.modules`` from the package import on, as lazy
modules: a module's code runs at the first lookup of one of its attributes,
and until then its type is a subclass of ``types.ModuleType``.  The checks of
what a process runs use a fresh interpreter, since this test session has
already run every module."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import prioritydb
from prioritydb.cli import main
from prioritydb.model import Fact, UpdateAction

SRC = str(Path(prioritydb.__file__).parent.parent)
FIXTURES = Path(__file__).parent / "fixtures"
EX3 = FIXTURES / "example3"
AIC9 = FIXTURES / "aic9"
RULE_MODULES = ("prioritydb.aic", "prioritydb.bridges")
# In a fresh-process script: the rule modules whose code has run.
RAN = ("ran = lambda: sorted(m for m in %r if type(sys.modules.get(m)) is types.ModuleType)\n"
       % (RULE_MODULES,))

PRIORITIZED = [
    ["conflicts"],
    ["repairs", "--kind", "delta"],
    ["repairs", "--kind", "subset"],
    ["repairs", "--kind", "superset"],
    ["optimal", "--opt", "p"],
    ["optimal", "--opt", "g"],
    ["optimal", "--opt", "c"],
    ["optimal", "--opt", "lex"],
    ["check-repair", "--repair", EX3 / "repair_rdc.pdb"],
    ["check-repair", "--repair", EX3 / "repair_big.pdb", "--opt", "global"],
    ["answer", "--query", EX3 / "q_a.pdb", "--sem", "cqa", "--opt", "p"],
    ["answer", "--query", EX3 / "q_open.pdb", "--sem", "brave", "--opt", "c"],
]
EX3_INPUTS = ["--db", EX3 / "db.pdb", "--constraints", EX3 / "constraints.pdb",
              "--priority", EX3 / "priority.pdb"]
AIC9_INPUTS = ["--db", AIC9 / "db.pdb", "--aics", AIC9 / "rules.pdb"]
RULE_COMMANDS = {
    "aic classify": AIC9_INPUTS + ["aic", "classify"],
    "aic check-update": AIC9_INPUTS + ["aic", "check-update", "--update", AIC9 / "update1.pdb",
                                       "--kind", "grounded"],
    "aic props": AIC9_INPUTS + ["aic", "props"],
    "translate aic-to-prio": AIC9_INPUTS + ["translate", "aic-to-prio"],
    "verify prop10": AIC9_INPUTS + ["verify", "prop10"],
    "translate to-denial": EX3_INPUTS + ["translate", "to-denial"],
    "translate prio-to-aic": EX3_INPUTS + ["translate", "prio-to-aic"],
    "verify prop8": EX3_INPUTS + ["verify", "prop8"],
}

# The package's public names, in the order the package lists them.
PUBLIC_NAMES = [
    "AIC", "AnswerSet", "BodyAtom", "Budget", "BudgetExceededError", "Conflict",
    "ConflictHypergraph", "ConjunctiveQuery", "Database", "DenialImage", "Fact", "GroundAIC",
    "InputError", "Instance", "Literal", "ParseError", "PrioritizedDatabase", "PriorityRelation",
    "PropertyReport", "RUpdate", "RepairSet", "RuleContext", "Schema", "ScoreStructure",
    "UniversalConstraint", "UpdateAction", "UpdateAtom", "agreement", "aic", "answers",
    "apply_actions", "bridges", "check_denial_image", "check_properties", "check_roundtrip",
    "check_translation_equivalence", "classify_r_updates", "completion_optimal_repairs_bruteforce",
    "completions", "conflict_hypergraph", "conflicts", "conflicts_via_hitting_sets",
    "delta_repairs", "delta_repairs_bruteforce", "detect_score_structure", "errors", "evaluate",
    "facts_universe", "greedy_optimal_repair", "ground_rules", "is_conflict", "is_delta_repair",
    "is_founded", "is_global_improvement", "is_grounded", "is_grounded_via_pruned_rules",
    "is_justified", "is_optimal_repair", "is_pareto_improvement", "is_well_founded",
    "lexicographic_repairs", "literal_universe", "masks", "max_conflict_size",
    "minimal_hitting_sets", "minimized_denials", "model", "normalize", "optimal_repairs",
    "prime_implicants", "priorities", "priority_to_rules", "query", "r_updates", "repairs",
    "repairs_intersection", "repairs_of_kind", "restriction", "rules_to_priority", "satisfies",
    "schema_from", "score_structure_from_scores", "stored_priority_rules", "subset_repairs",
    "superset_repairs", "validate_priority",
]

# UpdateAction(True, Fact("R", ("a", "b"))) pickled (protocol 2) while the
# class was defined in ``prioritydb.aic``.
PICKLED_BY_AIC = (
    b"\x80\x02cprioritydb.aic\nUpdateAction\nq\x00\x88cprioritydb.model\nFact\nq\x01X\x01\x00"
    b"\x00\x00Rq\x02X\x01\x00\x00\x00aq\x03X\x01\x00\x00\x00bq\x04\x86q\x05\x86q\x06\x81q\x07"
    b"\x86q\x08\x81q\t."
)


def _fresh(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; it prints one JSON line."""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _strs(argvs):
    return [[str(a) for a in argv] for argv in argvs]


class TestRuleSideStaysUnloaded:
    def test_import_and_prioritized_commands_run_neither_rule_module(self):
        script = (
            "import contextlib, io, json, sys, types\n"
            "import prioritydb, prioritydb.cli\n"
            + RAN +
            "report = {'import': ran()}\n"
            "for argv in %r:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        code = prioritydb.cli.main(%r + argv)\n"
            "    report[' '.join(argv)] = [code, ran()]\n"
            "print(json.dumps(report))\n"
        ) % (_strs(PRIORITIZED), _strs([EX3_INPUTS])[0])
        report = _fresh(script)
        assert report.pop("import") == []
        assert len(report) == len(PRIORITIZED)
        # none crashed (4): 1 answers "no", 2 is lex on a priority without
        # scores, 3 the budget of superset repairs
        assert {command: ran for command, (_, ran) in report.items()} == {
            command: [] for command in report
        }
        assert {code for code, _ in report.values()} <= {0, 1, 2, 3}

    def test_the_rule_modules_are_registered_and_run_on_first_lookup(self):
        """A tool that walks ``sys.modules`` after ``import prioritydb.cli``
        (a profiler wrapping entry points, say) finds every module of the
        package, and its first attribute lookup runs the rule module."""
        script = (
            "import json, sys, types\n"
            "import prioritydb.cli\n"
            + RAN +
            "names = sorted(m for m in sys.modules if m.startswith('prioritydb.'))\n"
            "out = [names, ran()]\n"
            "check = getattr(sys.modules['prioritydb.aic'], 'check_properties')\n"
            "out += [ran(), check.__module__]\n"
            "import prioritydb.bridges\n"
            "out.append(ran())\n"
            "print(json.dumps(out))\n"
        )
        names, before, after_lookup, module, after_import = _fresh(script)
        assert names == sorted(f"prioritydb.{m}" for m in (
            "aic", "bridges", "cli", "conflicts", "errors", "masks", "model", "priorities",
            "query", "repairs", "textio"))
        assert before == []
        assert (after_lookup, module) == (["prioritydb.aic"], "prioritydb.aic")
        assert after_import == list(RULE_MODULES)

    @pytest.mark.parametrize("command", RULE_COMMANDS)
    def test_rule_command_first_in_a_fresh_process_matches_in_process(self, capsys, command):
        argv = [str(a) for a in RULE_COMMANDS[command]]
        code = main(argv)
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "prioritydb.cli", *argv], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
        assert code in (0, 1) and captured.out

    def test_threads_that_first_use_a_rule_module_at_once_all_see_it_whole(self):
        script = (
            "import json, sys, threading\n"
            "import prioritydb\n"
            "sys.setswitchinterval(1e-6)\n"
            "aic = sys.modules['prioritydb.aic']\n"
            "barrier = threading.Barrier(4)\n"
            "seen = []\n"
            "def use():\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        seen.append(aic.check_properties.__qualname__)\n"
            "    except Exception as exc:\n"
            "        seen.append(repr(exc))\n"
            "threads = [threading.Thread(target=use) for _ in range(4)]\n"
            "for thread in threads: thread.start()\n"
            "for thread in threads: thread.join()\n"
            "print(json.dumps(seen))\n"
        )
        assert _fresh(script) == ["check_properties"] * 4


class TestPublicNames:
    def test_all_lists_the_same_names_in_the_same_order(self):
        assert prioritydb.__all__ == PUBLIC_NAMES

    def test_every_name_is_the_defining_modules_object(self):
        for name in PUBLIC_NAMES:
            value = getattr(prioritydb, name)
            if isinstance(value, type(prioritydb)):
                assert sys.modules[f"prioritydb.{name}"] is value
            elif getattr(value, "__module__", "").startswith("prioritydb."):
                assert getattr(sys.modules[value.__module__], value.__qualname__) is value, name
        assert prioritydb.RuleContext is prioritydb.aic.RuleContext
        assert prioritydb.check_roundtrip is prioritydb.bridges.check_roundtrip
        # the rule syntax is model's, and aic re-exports it
        for name in ("AIC", "UpdateAtom", "UpdateAction", "action_key"):
            assert getattr(prioritydb.aic, name) is getattr(prioritydb.model, name)

    def test_conflicts_is_the_function_not_the_submodule(self):
        assert callable(prioritydb.conflicts)
        assert prioritydb.conflicts is sys.modules["prioritydb.conflicts"].conflicts

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'textio_parser'"):
            prioritydb.textio_parser

    def test_star_import_and_dir_list_every_name_in_a_fresh_process(self):
        script = (
            "import json, sys, types, prioritydb\n"
            + RAN +
            "listed = dir(prioritydb)\n"
            "before = ran()\n"
            "star = {}\n"
            "exec('from prioritydb import *', star)\n"
            "print(json.dumps([listed, before, sorted(n for n in star if n != '__builtins__')]))\n"
        )
        listed, before, star = _fresh(script)
        assert set(PUBLIC_NAMES) <= set(listed)
        assert before == []  # listing the names runs nothing
        assert star == sorted(PUBLIC_NAMES)

    def test_rule_modules_as_attributes_in_a_fresh_process(self):
        script = (
            "import json, sys, types, prioritydb\n"
            + RAN +
            "out = [prioritydb.aic.__name__, ran(),\n"
            "       prioritydb.bridges.check_roundtrip.__module__,\n"
            "       prioritydb.RuleContext is sys.modules['prioritydb.aic'].RuleContext]\n"
            "print(json.dumps(out))\n"
        )
        assert _fresh(script) == ["prioritydb.aic", ["prioritydb.aic"], "prioritydb.bridges", True]

    def test_update_action_pickles(self):
        action = UpdateAction(True, Fact("R", ("a", "b")))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(action, protocol))
            assert again == action and type(again) is UpdateAction
        again = pickle.loads(PICKLED_BY_AIC)
        assert again == action and type(again) is UpdateAction

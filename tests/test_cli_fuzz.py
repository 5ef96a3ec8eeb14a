"""A CLI fuzz suite: seeded token streams in every input format, and output
paths that cannot be written.

Each case puts one generated text in the slot of one format, next to valid
inputs for the others, and runs the commands that read it.  Whatever the
text, the CLI keeps its contract: an exit code in {0, 1, 2, 3}, no traceback
and no ``internal error`` on stderr, and the same bytes (stdout, stderr,
written files, exit code) on a rerun, in the same process and in a fresh one
under another string hash seed.

The streams mix the format's own tokens with the other formats' tokens, stray
characters and the start of a valid text, so they reach the parser's errors,
the checks that follow a parse (arity clashes, unsafe variables, cyclic
priorities, inconsistent updates) and, when they parse, the commands
themselves.  ``--max-universe 10`` keeps every enumeration small.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import prioritydb
from prioritydb.cli import main

SRC = str(Path(prioritydb.__file__).parent.parent)
FIXTURES = Path(__file__).parent / "fixtures"
EX3, AIC9 = FIXTURES / "example3", FIXTURES / "aic9"
CASES = 40  # per format

# A number of more digits than int() converts by default (4 300).
LONG_NUMBER = "9" * 4301
# The tokens the grammar knows, shared by every format, then each format's own.
# The line breaks include CRLF and lone CR, which the CLI reads as LF.
COMMON = ["R", "S", "P", "A", "a", "b", "c", "d", "X", "Y", "Z", "(", ")", ",", ".", " ", "\n",
          "\r\n", "\r"]
TOKENS = {
    "facts": ["al", "be", "0", "_", "R(a, b).", "A(a).", "al."],
    "constraints": ["->", "false", "not", "!=", "|", "R(X, Y), R(X, Z), Y != Z -> false.",
                    "A(X) -> C(X).", "C(X), D(X) -> false."],
    "priority": [">", "!", "score", "=", "2", "-1", "R(d, b) > S(a, b).", "S(a, b) > !A(a).",
                 "score R(d, b) = 1.", f"score R(d, b) = {LONG_NUMBER}."],
    "query": ["q", ":-", "q(Y) :- R(d, Y).", "q :- S(a, b)."],
    "rules": ["->", "{", "}", "+", "-", "not", "al", "be", "ga", "de",
              "al, be -> { -be }.", "be, ga -> { -ga }.", "al, de -> { -de, +ga }."],
    "updates": ["+", "-", "al", "be", "ga", "de", "-al.", "+ga.", "-de."],
    "schema": ["/", "0", "1", "2", "40", "R/2.", "S/2.", "A/1.", "P/0.", f"P/{LONG_NUMBER}."],
}
STRAY = ["#", "%", "\t", "\\", "'", '"', "é", " ", "->", ":-", "{", "}", ">", "/", "=",
         "!=", "!", "|", "+", "-", "1", "99999999999999999999", LONG_NUMBER, "not", "false"]

EX3_FILES = {"db": EX3 / "db.pdb", "constraints": EX3 / "constraints.pdb",
             "priority": EX3 / "priority.pdb"}
AIC9_FILES = {"db": AIC9 / "db.pdb", "aics": AIC9 / "rules.pdb"}

# Per format: the valid inputs it joins, the flag of its slot (``None`` for a
# file a command names), and the commands that read it.
FORMATS = {
    "facts": (EX3_FILES, "db", [
        ["conflicts"], ["repairs", "--kind", "subset"], ["optimal", "--opt", "p"],
        ["check-repair", "--opt", "global", "--repair", EX3 / "repair_big.pdb"],
        ["answer", "--query", EX3 / "q_open.pdb", "--sem", "cqa", "--opt", "c"]]),
    "repair": (EX3_FILES, None, [["check-repair", "--opt", "pareto", "--repair"],
                                 ["check-repair", "--repair"]]),
    "constraints": (EX3_FILES, "constraints", [
        ["conflicts"], ["repairs"], ["optimal", "--opt", "g"], ["verify", "prop8"],
        ["translate", "to-denial"]]),
    "priority": (EX3_FILES, "priority", [
        ["optimal", "--opt", "lex"], ["optimal", "--opt", "c"], ["translate", "prio-to-aic"],
        ["answer", "--query", EX3 / "q_a.pdb", "--sem", "brave", "--opt", "p"]]),
    "query": (EX3_FILES, None, [["answer", "--sem", "int", "--opt", "p", "--query"],
                                ["answer", "--sem", "cqa", "--opt", "g", "--query"]]),
    "rules": (AIC9_FILES, "aics", [
        ["aic", "classify"], ["aic", "props"], ["translate", "aic-to-prio"],
        ["verify", "prop10"]]),
    "updates": (AIC9_FILES, None, [["aic", "check-update", "--kind", "grounded", "--update"],
                                   ["aic", "check-update", "--update"]]),
    "schema": (EX3_FILES, "schema", [["conflicts"], ["repairs"],
                                     ["check-repair", "--repair", EX3 / "repair_rdc.pdb"]]),
}
VALID_TEXT = {"facts": EX3 / "db.pdb", "repair": EX3 / "repair_big.pdb",
              "constraints": EX3 / "constraints.pdb", "priority": EX3 / "priority.pdb",
              "query": EX3 / "q_open.pdb", "rules": AIC9 / "rules.pdb",
              "updates": AIC9 / "update1.pdb", "schema": None}


def token_stream(rng: random.Random, fmt: str) -> str:
    """A text of up to 24 tokens of the format, such tokens spliced into a
    valid text of it, or a sample of the valid text's lines, with one of the
    format's own tokens appended or not."""
    own = TOKENS["facts" if fmt == "repair" else fmt]
    pick = lambda: rng.choice(own if rng.random() < 0.6 else COMMON if rng.random() < 0.7 else STRAY)
    stream = "".join(pick() for _ in range(rng.randint(0, 24)))
    valid = VALID_TEXT[fmt]
    if valid is None:
        return stream
    text, dice = valid.read_text(), rng.random()
    if dice < 0.25:
        cut = rng.randint(0, len(text))
        return text[:cut] + stream + text[cut + rng.randint(0, 8):]
    if dice < 0.65:
        lines = text.splitlines(keepends=True)
        tail = rng.choice(own) if rng.random() < 0.5 else ""
        return "".join(rng.sample(lines, rng.randint(0, len(lines)))) + tail
    return stream


def cases(fmt: str, folder: Path) -> list[list[str]]:
    """The argv lists of one format's cases, with their generated files in
    ``folder``."""
    rng = random.Random(f"fuzz {fmt}")
    files, flag, commands = FORMATS[fmt]
    out = []
    for k in range(CASES):
        path = folder / f"{fmt}{k}.pdb"
        path.write_text(token_stream(rng, fmt), encoding="utf-8")
        inputs = dict(files, **({flag: path} if flag else {}))
        argv = ["--max-universe", "10"]
        for name, value in inputs.items():
            argv += [f"--{name}", value]
        command = commands[k % len(commands)]
        out.append([str(a) for a in argv + command + ([] if flag else [path])])
    return out


def unwritable_cases(folder: Path) -> list[list[str]]:
    """Every output flag aimed at a missing directory, at a directory, and
    at a path below a file."""
    (folder / "file").write_text("")
    ex3 = ["--db", EX3 / "db.pdb", "--constraints", EX3 / "constraints.pdb",
           "--priority", EX3 / "priority.pdb"]
    aic9 = ["--db", AIC9 / "db.pdb", "--aics", AIC9 / "rules.pdb"]
    writers = [(ex3, ["conflicts", "--dot"]), (ex3, ["translate", "to-denial", "--out-db"]),
               (ex3, ["translate", "to-denial", "--out-constraints"]),
               (ex3, ["translate", "prio-to-aic", "--out-aics"]),
               (aic9, ["translate", "aic-to-prio", "--out-constraints"]),
               (aic9, ["translate", "aic-to-prio", "--out-priority"])]
    targets = [folder / "missing" / "out", folder, folder / "file" / "out"]
    return [[str(a) for a in inputs + command + [target]]
            for inputs, command in writers for target in targets]


def run(argv: list[str]):
    """Exit code, stdout, stderr and the text of the file an output flag
    names, if it exists."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    target, written = Path(argv[-1]), None
    if argv[-2].startswith(("--out", "--dot")) and target.is_file():
        written = target.read_text()
        target.unlink()
    return [code, out.getvalue(), err.getvalue(), written]


def assert_contract(argv, result):
    code, _, err, _ = result
    assert code in (0, 1, 2, 3), (argv, result)
    assert "Traceback" not in err and "internal error" not in err, (argv, result)


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_token_streams_keep_the_exit_code_contract_and_rerun_alike(tmp_path, fmt):
    argvs = cases(fmt, tmp_path)
    results = [run(argv) for argv in argvs]
    for argv, result in zip(argvs, results):
        assert_contract(argv, result)
        assert run(argv) == result, argv
    codes = {code for code, *_ in results}
    assert 2 in codes and codes & {0, 1}, (fmt, codes)  # both rejected and answered texts


def test_unwritable_output_paths_are_input_errors(tmp_path):
    for argv in unwritable_cases(tmp_path):
        result = run(argv)
        assert_contract(argv, result)
        code, _, err, written = result
        assert (code, written) == (2, None), (argv, result)
        assert err.startswith(f"error: cannot write {argv[-1]}: "), (argv, result)
        assert run(argv) == result


def test_a_fresh_process_under_another_hash_seed_prints_the_same_bytes(tmp_path):
    argvs = [argv for fmt in FORMATS for argv in cases(fmt, tmp_path)[::8]]
    argvs += unwritable_cases(tmp_path)[::5]
    script = (
        "import json, sys\n"
        "sys.path.insert(0, %r)\n"
        "from test_cli_fuzz import run\n"
        "print(json.dumps([run(argv) for argv in json.load(sys.stdin)]))\n"
    ) % (str(Path(__file__).parent),)
    proc = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(argvs), capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="7"), timeout=120,
    )
    assert json.loads(proc.stdout) == [run(argv) for argv in argvs]

"""One benchmark process: set up one workload, run its closed loop, report.

``run.py`` starts this file in a fresh interpreter per workload, with
``src`` on ``PYTHONPATH`` and ``PYTHONHASHSEED`` pinned.  Protocol on stdout:
the line ``ready`` once set-up is done (the import, plus generating and
writing the first batch of instances), then one JSON line with the samples.

Modes:
  setup  time reference blocks after ``ready`` and stop; run.py repeats
         set-up to take its median.
  run    closed loop with one client until --seconds have passed and at least
         MIN_OPS operations have completed.
  trace  the first --ops operations, with spans recorded around the engine's
         entry points (see tracing.py) and written to --spans at exit.

Each operation is timed alone.  Generating instances and checking outputs
happen outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import workloads as wl

MIN_OPS = 100  # so that op_p90_ms has at least ten samples beyond it
BATCH = 25  # instances generated (and written) at a time; set-up makes the first batch
SETUP_REFERENCES = 9  # reference blocks timed after a set-up-only run (as in run.py)


def reference_block() -> float:
    """Time a fixed piece of pure-Python work shaped like the engine's (small
    frozensets of tuples, hashing, dict updates, subset tests).

    On a machine whose cores other processes share, speed can drift by 2x
    within seconds (measured on a 2-vCPU Xeon).  run.py divides each
    operation's latency by the reference times around it, so the scaled
    metrics follow the engine, not the neighbours.
    """
    start = time.perf_counter()
    pool: dict[frozenset, int] = {}
    for i in range(1500):
        key = frozenset((("R", (str(i % 31), "v")), ("R", (str(i % 7), "w"))))
        pool[key] = pool.get(key, 0) + 1
        if i % 300 == 0:
            key <= frozenset(pool)
    return time.perf_counter() - start


class CliRunner:
    """Operations that run ``prioritydb.cli.main`` in-process on written files
    and compare its stdout and exit code with the closed-form answer."""

    def __init__(self, make_op, seed: int, workdir: str):
        from prioritydb import cli

        self.cli = cli  # main is looked up per call, so a traced run sees its wrapper
        self.make_op = make_op
        self.seed = seed
        self.workdir = workdir
        self.ops: list[dict] = []

    def prepare(self, stop: int) -> None:
        for index in range(len(self.ops), stop):
            op = self.make_op(self.seed, index)
            folder = os.path.join(self.workdir, f"op{index}")
            os.makedirs(folder)
            argv, tail = [], list(op["args"])
            for name, text in op["files"].items():
                path = os.path.join(folder, f"{name}.pdb")
                with open(path, "w", encoding="utf-8") as out:
                    out.write(text)
                if name == "query":
                    tail += ["--query", path]
                else:
                    argv += [f"--{name}", path]
            op["argv"] = argv + tail
            del op["files"]
            self.ops.append(op)

    def kind(self, index: int) -> str:
        return self.ops[index]["kind"]

    def run(self, index: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(self.ops[index]["argv"])
        return code, out.getvalue(), err.getvalue()

    def check(self, index: int, result) -> str:
        op = self.ops[index]
        code, stdout, stderr = result
        if code != op["exit"]:
            return f"exit code {code}, expected {op['exit']}: {stderr.strip()}"
        if stdout != op["stdout"]:
            return f"stdout differs from the expected answer:\n{stdout}"
        return ""


class LibraryRunner:
    """dense-prefs: library requests against one PrioritizedDatabase per
    session, compared with the closed-form answer."""

    def __init__(self, seed: int):
        import prioritydb as pdb_mod

        self.lib = pdb_mod
        self.seed = seed
        self.sessions: list[dict] = []
        self.ops: list[dict] = []
        self.constraint = pdb_mod.UniversalConstraint.make(
            [pdb_mod.BodyAtom(True, "P", ("X",)), pdb_mod.BodyAtom(True, "Q", ("X",))]
        )
        self.schema = pdb_mod.Schema.of([("P", 1), ("Q", 1)])
        self.queries = {
            sem: pdb_mod.ConjunctiveQuery.make(("X",), [(pred, ("X",))])
            for sem, pred in wl.DENSE_QUERY.items()
        }

    def _session(self, number: int) -> dict:
        lib = self.lib
        spec = wl.dense_prefs_session(self.seed, number)
        facts = frozenset(lib.Fact(pred, args) for pred, args in spec["facts"])
        priority = lib.PriorityRelation.of(
            (lib.Literal(lib.Fact(*strong)), lib.Literal(lib.Fact(*weak)))
            for strong, weak in spec["edges"]
        )
        spec["pdb"] = lib.PrioritizedDatabase(facts, self.schema, (self.constraint,), priority)
        return spec

    def prepare(self, stop: int) -> None:
        per_session = len(wl.DENSE_REQUESTS)
        for index in range(len(self.ops), stop):
            if index // per_session == len(self.sessions):
                self.sessions.append(self._session(len(self.sessions)))
            op = wl.dense_prefs_op(self.sessions[index // per_session], index)
            op["pdb"] = self.sessions[index // per_session]["pdb"]
            self.ops.append(op)

    def kind(self, index: int) -> str:
        return self.ops[index]["kind"]

    def run(self, index: int):
        op = self.ops[index]
        request = op["request"]
        if request[0] == "optimal":
            return self.lib.optimal_repairs(op["pdb"], request[1])
        return self.lib.answers(op["pdb"], self.queries[request[1]], request[1], request[2])

    def check(self, index: int, result) -> str:
        op = self.ops[index]
        if op["request"][0] == "optimal":
            got = frozenset(frozenset((f.predicate, f.args) for f in r) for r in result)
            if len(got) != len(result) or got != op["expected"]:
                return f"{len(result)} optimal repairs differ from the {len(op['expected'])} expected"
        elif result.tuples != op["expected"]:
            return f"answers {result.tuples} differ from the expected {op['expected']}"
        return ""


def make_runner(workload: str, seed: int, workdir: str):
    if workload == "sparse-keys":
        return CliRunner(wl.sparse_keys_op, seed, workdir)
    if workload == "aic-rules":
        return CliRunner(wl.aic_rules_op, seed, workdir)
    return LibraryRunner(seed)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    import prioritydb.cli  # noqa: F401  (every engine module, as the CLI loads them)

    os.makedirs(args.workdir)
    runner = make_runner(args.workload, args.seed, args.workdir)
    runner.prepare(BATCH)
    print("ready", flush=True)
    if args.mode == "setup":
        # Reference blocks right after set-up, so run.py can scale it too.
        print(json.dumps({"references": [reference_block() for _ in range(SETUP_REFERENCES)]}))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    latencies: list[float] = []
    references: list[float] = []
    errors: list[str] = []
    rss_kb = 0
    clock = time.perf_counter
    began = clock()
    index = 0
    while True:
        if index == len(runner.ops):
            runner.prepare(index + BATCH)
        references.append(reference_block())
        if tracer is not None:
            tracer.request = index
        start = clock()
        try:
            result = runner.run(index)
        except Exception as exc:  # a raising operation is a failed one
            elapsed = clock() - start
            problem = f"raised {type(exc).__name__}: {exc}"
        else:
            elapsed = clock() - start
            problem = runner.check(index, result)
        latencies.append(elapsed)
        if problem:
            errors.append(f"op {index} ({runner.kind(index)}): {problem}")
        index += 1
        if index == MIN_OPS:
            # Read at a fixed operation count, so memory does not grow with throughput.
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.mode == "trace":
            if index == args.ops:
                break
        elif index >= MIN_OPS and clock() - began >= args.seconds:
            break

    if tracer is not None:
        tracer.write(args.spans)
    report = {
        "latencies": latencies,
        "references": references,
        "failed": len(errors),
        "errors": errors[:5],
        "rss_kb": rss_kb,
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

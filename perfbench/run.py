"""prioritydb benchmark: one command for every workload.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload runs in its own fresh,
single-threaded Python process (child.py) with one client in a closed loop,
so caches, memory and import cost belong to that workload alone.  Every
output is checked against an answer the generator derives in closed form.

--trace 0 reports the end-to-end metrics; --trace 1 reports per-layer metrics
from a separate traced process.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  NOTES.md explains the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = ".perfbench_work"
HASH_SEED = "0"  # pinned so per-layer counts repeat exactly between runs
SETUP_REPEATS = 7  # set-ups per run, counting the measuring process's own
SETUP_REFERENCES = 9  # reference blocks that scale one set-up
TRACE_OPS = {"sparse-keys": 50, "dense-prefs": 48, "aic-rules": 24}  # two shape cycles each
DEADLINE_S = 170.0  # every run ends within this, or fails

# Reference-block time at the machine's full speed: the median of the
# fastest tenth of the blocks in a 12-second sparse-keys run on a 2-vCPU
# Xeon at 2.0 GHz with Python 3.11 (the median block took 1.7x as long).
# Scaled metrics express each time at that speed; see ``scale``.
REFERENCE_S = 0.0018
REFERENCE_WINDOW = 4  # reference blocks on each side of an operation

# Metrics the JSON line carries, in order, with units.  The table also shows
# unscaled wall-clock figures and failed_frac.
END_TO_END = (
    ("setup_s", "s"),
    ("scaled_ops_per_s", "1/s"),
    ("scaled_op_p50_ms", "ms"),
    ("scaled_op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: an observed sample, never an interpolation."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def scale(latencies: list[float], references: list[float], whole: bool = False) -> list[float]:
    """Each latency at the reference speed: multiplied by REFERENCE_S over the
    median time of the reference blocks run just before it and its
    neighbours (or of all of ``references`` when ``whole``).  Where other
    processes share the cores, speed drifts by up to 2x within seconds; the
    scaled figures vary several times less between runs than the wall-clock
    ones."""
    out = []
    for i, latency in enumerate(latencies):
        around = references if whole else \
            references[max(0, i - REFERENCE_WINDOW): i + REFERENCE_WINDOW + 1]
        out.append(latency * REFERENCE_S / statistics.median(around))
    return out


class Session:
    """Child processes of one run, all stopped by ``close``."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.workdir = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
        self.env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=os.path.join(root, "src"))
        self.procs: list[subprocess.Popen] = []
        self.count = 0

    def child(self, mode: str, **extra) -> tuple[float, dict]:
        """Start one child; return its set-up time and its report."""
        self.count += 1
        argv = [sys.executable, CHILD, "--workload", self.workload, "--seed", str(self.seed),
                "--mode", mode, "--workdir", os.path.join(self.workdir, f"p{self.count}")]
        for key, value in extra.items():
            argv += [f"--{key}", str(value)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True)
        self.procs.append(proc)
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        if first.strip() != "ready":
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            raise BenchError(f"{self.workload} child failed during set-up (exit {proc.returncode})")
        try:
            rest, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} child ran past the deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"{self.workload} child exited with {proc.returncode}")
        lines = rest.strip().splitlines()
        if not lines:
            raise BenchError(f"{self.workload} child ended without a report")
        return setup, json.loads(lines[-1])

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        shutil.rmtree(self.workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    setups = [session.child("setup") for _ in range(SETUP_REPEATS - 1)]
    setup, report = session.child("run", seconds=seconds)
    setups.append((setup, {"references": report["references"][:SETUP_REFERENCES]}))
    wall_setup = [took for took, _ in setups]
    # Set-up is scaled like the operations, by the reference blocks timed
    # right after it.
    scaled_setup = [scale([took], after["references"], whole=True)[0] for took, after in setups]
    wall = report["latencies"]
    scaled = scale(wall, report["references"])
    n = len(wall)
    metrics = {
        "setup_s": (statistics.median(scaled_setup), len(setups)),
        "scaled_ops_per_s": (n / sum(scaled), n),
        "scaled_op_p50_ms": (1000 * _quantile(scaled, 0.5), n),
        "scaled_op_p90_ms": (1000 * _quantile(scaled, 0.9), n),
        "peak_rss_mb": (report["rss_kb"] / 1024, 1),
    }
    report["attempted"] = n
    report["table"] = {
        "wall_setup_s": (statistics.median(wall_setup), "s", len(setups)),
        "ops_per_s": (n / sum(wall), "1/s", n),
        "op_p50_ms": (1000 * _quantile(wall, 0.5), "ms", n),
        "op_p90_ms": (1000 * _quantile(wall, 0.9), "ms", n),
        "failed_frac": (report["failed"] / n, "ratio", n),
    }
    return metrics, report


def per_layer(session: Session, seconds: float) -> tuple[dict, dict]:
    ops = TRACE_OPS[session.workload]
    _, plain = session.child("run", seconds=seconds)
    spans_path = os.path.join(session.workdir, "spans.json")
    _, traced = session.child("trace", ops=ops, spans=spans_path)
    with open(spans_path, encoding="utf-8") as handle:
        recorded = json.load(handle)
    metrics = tracing.layer_metrics(recorded["names"], recorded["spans"])
    # Same seed, same first operations, compared at reference speed.
    with_trace = sum(scale(traced["latencies"], traced["references"]))
    without = sum(scale(plain["latencies"], plain["references"])[:ops])
    metrics["trace.overhead_frac"] = with_trace / without - 1
    traced["failed"] += plain["failed"]  # the untraced run's outputs are checked too
    traced["errors"] += plain["errors"]
    traced["attempted"] = len(traced["latencies"]) + len(plain["latencies"])
    traced["table"] = {}
    traced["mode"] = f"traced, first {ops} operations, {len(recorded['spans'])} spans"
    return {name: (value, ops) for name, value in metrics.items()}, traced


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    session = Session(root, workload, seed)
    try:
        if trace:
            metrics, report = per_layer(session, seconds)
            units = {name: tracing.unit_of(name) for name in metrics}
        else:
            metrics, report = end_to_end(session, seconds)
            units = dict(END_TO_END)
            report["mode"] = "closed loop, 1 client"
    finally:
        session.close()
    return {"metrics": metrics, "units": units, "report": report}


def _print_table(workload: str, seed: int, result: dict) -> None:
    report = result["report"]
    print(f"== {workload}  seed {seed}  PYTHONHASHSEED={report['hashseed']}  {report['mode']}")
    print(f"   {'metric':32} {'value':>14} {'unit':6} samples")
    rows = [(name, value, result["units"][name], n) for name, (value, n) in result["metrics"].items()]
    rows += [(name, value, unit, n) for name, (value, unit, n) in report["table"].items()]
    for name, value, unit, samples in rows:
        print(f"   {name:32} {value:14.6g} {unit:6} {samples}")
    for error in report["errors"]:
        print(f"   FAILED {error}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "prioritydb", "cli.py")):
        print("error: run from the repository root; src/prioritydb is missing", file=sys.stderr)
        return 2
    chosen = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in chosen:
            results[workload] = measure(root, workload, args.seed, args.seconds, bool(args.trace))
            _print_table(workload, args.seed, results[workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["report"]["attempted"] for r in results.values())
    failed = sum(r["report"]["failed"] for r in results.values())
    metrics = {}
    for workload, result in results.items():
        prefix = "" if len(chosen) == 1 else f"{workload}/"
        for name, (value, _) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": result["units"][name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Best-of-N time of each benchmark op, one or two source trees, in turn.

Each source tree (a checkout holding ``src/mvdelta`` and ``bench/``;
default: the one holding this script) gets one worker process that
imports its own ``bench/workloads.py`` (read, never changed) and builds
the op list of ``--workload`` and ``--seed``.  The workers then run
``--passes`` full passes each, one pass at a time and alternating, the
first tree leading in odd passes, so a slow spell of the machine falls
on both trees alike.  Every answer is checked as ``bench/run.py`` checks
it: a wrong answer stops the run with exit 1, and an op that raises or
gives no answer counts as failed.

A fixed pass count, rather than a fixed time, gives both trees the same
number of samples however fast each is.  The report gives the sum of
per-op best times for each op kind (for a cli op, its subcommand) and
over all ops (a pass made of the bests), and the median and
interquartile range of the pass totals; the ``--json`` file also holds
every op's best and median.  Nothing else is
written: the workers run with ``PYTHONDONTWRITEBYTECODE=1`` and the
files that some cli ops read go to a temporary directory.

Usage: python scripts/time_ops.py [TREE [TREE]] --workload W --passes N
       [--seed S] [--json PATH]
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def worker(tree: Path, workload: str, seed: int) -> int:
    """Runs one pass of the op list per line read from stdin and writes
    one JSON line per pass: each op's seconds and whether it answered."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import workloads
    from reference import WrongAnswer

    ops = workloads.build_ops(workload, seed)
    kinds = [f"cli {op.args[0]}" if op.kind == "cli" else op.kind for op in ops]
    print(json.dumps({"names": [op.name for op in ops], "kinds": kinds}), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for op in ops:
            for name, content in op.files:
                Path(tmp, name).write_text(content, encoding="utf-8")
        for _ in sys.stdin:
            seconds, answered = [], []
            try:
                # The usage errors that some cli ops print are expected answers.
                with contextlib.redirect_stderr(io.StringIO()):
                    for op in ops:
                        t0 = time.perf_counter()
                        try:
                            result = workloads.call(op, tmp)
                        except Exception:  # escaped the public entry point: a failed op
                            seconds.append(time.perf_counter() - t0)
                            answered.append(False)
                            continue
                        seconds.append(time.perf_counter() - t0)
                        answered.append(workloads.check(op, result, tmp))
            except WrongAnswer as exc:
                print(json.dumps({"wrong": str(exc)}), flush=True)
                return 1
            print(json.dumps({"seconds": seconds, "answered": answered}), flush=True)
    return 0


class Worker:
    def __init__(self, tree: Path, workload: str, seed: int):
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree),
             "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=tree)
        self.header = self.read()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"worker exited with {self.proc.wait()}")
        reply = json.loads(line)
        if "wrong" in reply:
            raise SystemExit(f"WRONG ANSWER: {reply['wrong']}")
        return reply

    def run_pass(self) -> dict:
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(header: dict, passes: list[dict]) -> dict:
    names, kinds = header["names"], header["kinds"]
    per_op = [[p["seconds"][i] for p in passes] for i in range(len(names))]
    best = [min(times) for times in per_op]
    kind_best: dict[str, float] = {}
    for kind, b in zip(kinds, best):
        kind_best[kind] = kind_best.get(kind, 0.0) + b
    totals = [sum(p["seconds"]) for p in passes]
    q1, median, q3 = quartiles(totals)
    ms = 1000
    return {
        "best_pass_ms": sum(best) * ms,
        "pass_total_ms": {"median": median * ms, "iqr": (q3 - q1) * ms,
                          "samples": [t * ms for t in totals]},
        "kinds_best_ms": {k: v * ms for k, v in kind_best.items()},
        "ops": {name: {"kind": kind, "best_ms": min(times) * ms,
                       "median_ms": statistics.median(times) * ms}
                for name, kind, times in zip(names, kinds, per_op)},
        "failed": sum(not ok for p in passes for ok in p["answered"]),
        "attempted": len(passes) * len(names),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.worker.resolve(), args.workload, args.seed)
    if not 1 <= len(args.trees) <= 2:
        parser.error("give one or two trees")
    if args.passes is None or args.passes < 1:
        parser.error("--passes must be given and >= 1")
    trees = [tree.resolve() for tree in args.trees]
    labels = ["A", "B"][: len(trees)]
    workers = [Worker(tree, args.workload, args.seed) for tree in trees]
    try:
        if len({json.dumps(w.header) for w in workers}) != 1:
            raise SystemExit("the trees build different op lists")
        passes = {label: [] for label in labels}
        for r in range(args.passes):
            order = list(range(len(trees)))
            if r % 2:
                order.reverse()
            for i in order:
                passes[labels[i]].append(workers[i].run_pass())
    finally:
        for w in workers:
            w.close()

    results = {"python": platform.python_version(), "machine": platform.machine(),
               "cpus": os.cpu_count(), "workload": args.workload, "seed": args.seed,
               "passes": args.passes,
               "trees": {label: str(tree) for label, tree in zip(labels, trees)},
               "results": {label: summarise(workers[0].header, passes[label]) for label in labels}}
    report(results, labels)
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n")
    return 0


def report(results: dict, labels: list[str]):
    res = results["results"]
    two = len(labels) == 2
    print(f"{results['workload']} seed {results['seed']}, {results['passes']} passes; "
          f"ms, sum of per-op best-of-N" + ("   (B/A)" if two else ""))
    rows = {kind: {label: res[label]["kinds_best_ms"][kind] for label in labels}
            for kind in res[labels[0]]["kinds_best_ms"]}
    rows["all"] = {label: res[label]["best_pass_ms"] for label in labels}
    for name, ms in rows.items():
        cells = "   ".join(f"{label} {ms[label]:9.2f}" for label in labels)
        ratio = f"  {ms['B'] / ms['A']:.2f}" if two else ""
        print(f"  {name:<14} {cells}{ratio}")
    for label in labels:
        r = res[label]
        print(f"  {label}: pass total median {r['pass_total_ms']['median']:.2f} ms, "
              f"IQR {r['pass_total_ms']['iqr']:.2f} ms; {r['failed']} of {r['attempted']} failed")


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Wall time of each README ``mvdelta`` example, run as a fresh process.

Each source tree (a checkout holding ``src/mvdelta``; default: the one
holding this script) is copied to a temporary directory twice:

* ``fresh``: no ``__pycache__``, run under ``PYTHONDONTWRITEBYTECODE=1``,
  so every process compiles every module it imports;
* ``compiled``: bytecode precompiled with ``compileall``.

Every command of the README's CLI block, and a ``python -c pass``
baseline, runs N rounds in each state; with two trees the rounds
alternate between them, the first tree leading in odd rounds.  A command
runs as the console script does (``from mvdelta.cli import main``), in a
scratch directory holding the ``tent.json`` the isbell example reads.
For each command the table gives best-of-N, the median and the
interquartile range in ms, and flags a command whose exit code, stdout
or stderr differ between the trees.  ``--tier1`` also times one run of
each tree's test suite.  Nothing is written outside the temporary
directories except the ``--json`` file.

Usage: python scripts/time_cli.py [TREE [TREE]] [--rounds N] [--tier1] [--json PATH]

To compare with an earlier commit, export it first, e.g.
``git archive HEAD~1 | tar -x -C /tmp/parent``.
"""

import argparse
import hashlib
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONSOLE = "import sys; from mvdelta.cli import main; sys.exit(main())"
TENT = '[["0","0"],["1/2","1"],["1","0"]]'
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out")


def readme_examples(tree: Path) -> list[list[str]]:
    """The mvdelta commands of the README's CLI block, as argument lists."""
    text = (tree / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in commands if argv and argv[0] == "mvdelta"]


def prepare(tree: Path, into: Path, compiled: bool) -> Path:
    """A copy of tree without bytecode, or with all of src precompiled."""
    shutil.copytree(tree, into, ignore=SKIP)
    if compiled:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(into / "src")], check=True)
    return into


def timed(argv, env, cwd) -> tuple[float, tuple]:
    started = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, timeout=600)
    elapsed = time.perf_counter() - started
    return elapsed, (done.returncode, hashlib.sha256(done.stdout + b"\0" + done.stderr).hexdigest())


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    ms = 1000
    return {"best_ms": min(samples) * ms, "median_ms": median * ms, "iqr_ms": (q3 - q1) * ms,
            "samples_ms": [s * ms for s in samples]}


def tier1(copy: Path, env) -> dict:
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=copy, env=env, capture_output=True, text=True, timeout=3600)
    lines = done.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - started, "summary": lines[-1] if lines else ""}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT])
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--tier1", action="store_true")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if not 1 <= len(args.trees) <= 2:
        parser.error("give one or two trees")
    if args.rounds < 2:
        parser.error("--rounds must be >= 2")
    trees = [tree.resolve() for tree in args.trees]
    labels = ["A", "B"][: len(trees)]
    commands = [("python -c pass", ["-c", "pass"])]
    commands += [("mvdelta " + shlex.join(ex), ["-c", CONSOLE, *ex]) for ex in readme_examples(trees[0])]

    results = {"python": platform.python_version(), "machine": platform.machine(),
               "cpus": os.cpu_count(), "rounds": args.rounds,
               "trees": {label: str(tree) for label, tree in zip(labels, trees)}, "states": {}}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp, "work")
        work.mkdir()
        (work / "tent.json").write_text(TENT)
        for state in ("fresh", "compiled"):
            copies = [prepare(tree, Path(tmp, f"{label}-{state}"), state == "compiled")
                      for label, tree in zip(labels, trees)]
            envs = [dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
                    for copy in copies]
            samples = {(name, label): [] for name, _ in commands for label in labels}
            outcomes = {}
            for r in range(args.rounds):
                order = list(range(len(trees)))
                if r % 2:
                    order.reverse()
                for name, cmd in commands:
                    for i in order:
                        elapsed, outcome = timed([sys.executable, *cmd], envs[i], work)
                        samples[name, labels[i]].append(elapsed)
                        outcomes.setdefault(name, {})[labels[i]] = outcome
            rows = {}
            for name, _ in commands:
                row = {label: summary(samples[name, label]) for label in labels}
                row["exit"] = {label: outcomes[name][label][0] for label in labels}
                row["same_output"] = len({outcomes[name][label] for label in labels}) == 1
                rows[name] = row
            results["states"][state] = rows
            if args.tier1 and state == "compiled":
                results["tier1"] = {label: tier1(copy, env) for label, copy, env in zip(labels, copies, envs)}
            report(state, rows, labels)
    if "tier1" in results:
        for label, t in results["tier1"].items():
            print(f"Tier-1 {label}: {t['wall_s']:.1f} s ({t['summary']})")
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n")
    return 0


def report(state: str, rows: dict, labels: list[str]):
    print(f"\n[{state}] ms: best / median / IQR" + ("   (B/A of medians)" if len(labels) == 2 else ""))
    for name, row in rows.items():
        cells = "   ".join(f"{label} {row[label]['best_ms']:6.1f} {row[label]['median_ms']:6.1f} "
                           f"{row[label]['iqr_ms']:5.1f}" for label in labels)
        ratio = f"  {row['B']['median_ms'] / row['A']['median_ms']:.2f}" if len(labels) == 2 else ""
        flag = "" if row["same_output"] else "  OUTPUT DIFFERS"
        print(f"  {name[:60]:<60} {cells}{ratio}{flag}")


if __name__ == "__main__":
    sys.exit(main())

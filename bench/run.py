#!/usr/bin/env python3
"""mvdelta benchmark: one seeded, closed-loop workload per run.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload decide --seed 1 --seconds 10 --trace 0

Workloads: ``decide`` (the equational decider), ``cli-session``
(in-process ``mvdelta`` subcommands) and ``finite-spectra`` (maximal
spectra, radicals and good-sequence round trips of finite algebras).
One client runs the op list in full passes, each op after the previous
one returns, until the next pass would end after ``--seconds``; at
least one pass always runs.  Every answer is checked against a known
one (see ``workloads.py``); a wrong answer aborts the run with exit 1.
Timings use each op's median over the passes: ``ops_per_s`` is ops per
second of a pass made of those medians, and the latency percentiles are
taken over them (one sample per op of the list).

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` wrappers record spans and counters in each module and the
metrics are per layer, per pass of the op list.  The spans are written
to ``.bench_out/`` once the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Separate interpreters that each time the set-up; the median is setup_s.
SETUP_SAMPLES = 7
SETUP_CODE = """
import time
started = time.perf_counter()
import mvdelta.cli
from mvdelta import corpus
corpus.decision_corpus()
corpus.non_theorems()
corpus.axiom_suite()
print(time.perf_counter() - started)
"""


def measure_setup() -> float:
    """Median wall time of importing mvdelta and building the corpus lists,
    each sample in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_ops(ops, seconds: float, tmp: str, tracer, op_names: list):
    """Runs full passes over ops; returns each op's durations, the failures
    and the number of passes."""
    import workloads

    durations = [[] for _ in ops]
    failures = []
    passes = 0
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        for op, times in zip(ops, durations):
            if tracer is not None:
                tracer.op = len(op_names)
                op_names.append(op.name)
            t0 = time.perf_counter()
            try:
                result = workloads.call(op, tmp)
            except Exception as exc:  # escaped the public entry point: a failed op
                times.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.end_op()
                failures.append((op.name, f"{type(exc).__name__}: {str(exc)[:120]}"))
                continue
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_op()
            if not workloads.check(op, result, tmp):
                failures.append((op.name, "no answer (LimitExceeded or exit 2/3)"))
        passes += 1
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            return durations, failures, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mvdelta benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mvdelta" / "__init__.py").is_file():
        print(f"error: no mvdelta sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # A fixed hash seed makes set iteration order, and so every count, repeat.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED="0"))
    sys.path[:0] = [str(SRC), str(BENCH)]

    import workloads
    from reference import WrongAnswer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    setup_s = measure_setup()
    ops = workloads.build_ops(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing
        from mvdelta import corpus

        tracer = tracing.Tracer()
        tracer.install()
        for _ in range(3):
            tracer.span("corpus.build", lambda: (corpus.decision_corpus(), corpus.non_theorems(),
                                                 corpus.axiom_suite()))
        tracer.counts.clear()  # count only the ops
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="work-", dir=OUT)
    op_names: list[str] = []
    try:
        for op in ops:
            for name, content in op.files:
                Path(tmp, name).write_text(content, encoding="utf-8")
        durations, failures, passes = run_ops(ops, args.seconds, tmp, tracer, op_names)
    except WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    attempted, failed = passes * len(ops), len(failures)
    for name, why in sorted(set(failures)):
        known = workloads.KNOWN_FAILURES.get(name)
        print(f"# failed: {name}: {why}" + (f" (known: {known})" if known else " (NOT a known failure)"),
              file=sys.stderr)

    # Each op's median over the passes: a transient stall of the machine
    # moves one sample of an op, not the op's figure.
    typical = sorted(statistics.median(times) for times in durations)
    ops_per_s = len(ops) / sum(typical)
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
        metrics = tracer.metrics(passes, op_names)
        metrics["trace.ops_per_s"] = (ops_per_s, "1/s")
        metrics["trace.spans"] = (sum(span[4] >= 0 for span in tracer.spans) / passes, "count")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (statistics.median(typical) * 1e3, "ms"),
            "latency_p90_ms": (nearest_rank(typical, 0.9) * 1e3, "ms"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(f"# {args.workload} seed {args.seed}: {passes} pass(es) of {len(ops)} ops, {failed} of "
          f"{attempted} failed; latency percentiles over {len(ops)} per-op medians "
          f"({len(ops) - math.ceil(0.9 * len(ops))} beyond p90); trace {args.trace}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

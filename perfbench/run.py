"""Benchmark of ttklib: one workload per run, one fresh process per run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run imports the library from
``src``, measures set-up time in fresh interpreters started one after
another, makes the workload's inputs from the seed, then repeats whole
passes over them until ``--seconds`` of pass time have been measured.
Every pass's outputs are checked outside the timed part.

--trace 0 reports the end-to-end metrics: setup_s, in reference seconds
(see reference.py), wall_s, in reference seconds on census and
small_words and in seconds on alexander and verify, and peak_rss_mb.  --trace 1
alternates untraced passes with passes under the per-layer wrappers, and
reports the per-layer metrics, in plain seconds, and the tracing
overhead, the median over the pairs of traced over untraced pass time.
The last line of standard output is one JSON object: correct,
attempted, failed, metrics.  A result and, with --trace 1, the spans
are also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# one thread per run: numpy's BLAS pools would otherwise start a thread per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from reference import Reference  # noqa: E402  (after the thread limits)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
WORKDIR = os.path.join(BENCH_DIR, ".work")

SETUP_SAMPLES = 11
# a traced run alternates untraced and traced passes, at least this many
# pairs where the run limit allows
TRACE_PAIRS = 3
# never start a pass that could end past this many seconds of the run
RUN_LIMIT_S = 140.0

SETUP_PROBE = ("import numpy, ttklib, ttklib.cli\n"
               "print('ready', flush=True)\n")


def measure_setup():
    """Median over fresh interpreters of the time from process start
    until ``import numpy, ttklib, ttklib.cli`` has finished, in reference
    seconds and in seconds."""
    env = dict(os.environ, PYTHONPATH=SRC)
    ref = Reference()
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError("set-up probe could not import ttklib")
        ref.sample(runs=3)
    raw = statistics.median(samples)
    return ref.scale(raw), raw


def one_pass(workload, inputs, errors, tracer=None):
    """One timed pass, its checks, and, when traced, its counts."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        outputs, attempted, failed = workload.run_pass(inputs)
        seconds = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    errors += workload.check(inputs, outputs)
    extra = {}
    if tracer is not None:
        tracer.end_pass()
        extra = workload.trace_counts(inputs, outputs)
    return seconds, attempted, failed, extra


def run_passes(workload, inputs, budget_s, started, errors):
    """Whole passes until ``budget_s`` of pass time.  Returns the pass
    times, their median, and the operation counts.  For a workload that
    is ``reference_scaled`` the median is in reference seconds, by the
    loop timed before the first pass and after each."""
    times, attempted, failed = [], 0, 0
    ref = Reference() if workload.reference_scaled else None
    if ref:
        ref.sample()
    while True:
        seconds, n, f, _ = one_pass(workload, inputs, errors)
        if ref:
            ref.sample()
        times.append(seconds)
        attempted += n
        failed += f
        elapsed = time.perf_counter() - started
        if sum(times) >= budget_s or elapsed + 2 * max(times) > RUN_LIMIT_S:
            wall = statistics.median(times)
            return times, ref.scale(wall) if ref else wall, attempted, failed


def run_traced(workload, inputs, budget_s, started, errors, tracer):
    """Pairs of one untraced and one traced pass, until the untraced
    passes reach half of ``budget_s`` and there are TRACE_PAIRS pairs, or
    another pair could end past RUN_LIMIT_S.  Returns the pairs' pass
    times, the operation counts and the workload's trace counts."""
    pairs, attempted, failed, extra = [], 0, 0, {}
    while True:
        pair_start = time.perf_counter()
        plain, n, f, _ = one_pass(workload, inputs, errors)
        traced, n2, f2, counts = one_pass(workload, inputs, errors, tracer)
        pairs.append((plain, traced))
        attempted += n + n2
        failed += f + f2
        for k, v in counts.items():
            extra[k] = extra.get(k, 0) + v
        now = time.perf_counter()
        if (len(pairs) >= TRACE_PAIRS and sum(p for p, _ in pairs) >= budget_s / 2
                or now - started + 1.25 * (now - pair_start) > RUN_LIMIT_S):
            return pairs, attempted, failed, extra


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import ttklib
        import workloads
        from tracing import PER_LAYER, Tracer
    except ImportError as exc:
        print(f"error: cannot import ttklib from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(ttklib.__file__).startswith(SRC + os.sep):
        print(f"error: ttklib was imported from {ttklib.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    if not args.trace:
        setup_s, setup_raw = measure_setup()

    workload = workloads.make(args.workload, WORKDIR)
    inputs = workload.prepare(args.seed)
    errors = []
    try:
        if args.trace:
            tracer = Tracer()
            pairs, attempted, failed, extra = run_traced(
                workload, inputs, args.seconds, started, errors, tracer)
            values = tracer.metrics(len(pairs), extra)
            values["trace.overhead_pct"] = statistics.median(
                100.0 * (traced / plain - 1.0) for plain, traced in pairs)
            values["trace.pairs"] = len(pairs)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in PER_LAYER}
        else:
            times, wall_s, attempted, failed = run_passes(
                workload, inputs, args.seconds, started, errors)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": wall_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            }
            raw = (f"raw seconds: setup {setup_raw:.4f}, median pass "
                   f"{statistics.median(times):.4f}, {len(times)} passes")
    finally:
        workload.cleanup(inputs)

    for err in errors[:50]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        with open(os.path.join(RESULTS, stem + "-spans.json"), "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": tracer.spans,
                       "counts": dict(tracer.counts),
                       "group_time": dict(tracer.group_time),
                       "self_time": dict(tracer.self_time)}, fh)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    if not args.trace:
        print(f"{args.workload} {raw}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}, "
          f"correct = {not errors}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

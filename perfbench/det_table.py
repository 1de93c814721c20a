"""Reference table: det_laurent by Bareiss against the modular route, by
dimension, on the Burau matrices (minus the identity) of the alexander
workload's knots.

    python3 perfbench/det_table.py

Each call runs in a fresh interpreter, one at a time, and is stopped
after CAP_S seconds; once Bareiss has hit the cap it is not tried on
larger dimensions.  Prints a Markdown table.  These are reference
figures for the dispatch crossover, not benchmark metrics.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
CAP_S = 20  # per-call time cap, seconds


def _matrix(params):
    from ttklib import braids, invariants
    word = braids.braid_for(params)
    rows = invariants.burau_matrix(word)
    for i in range(len(rows)):
        rows[i][i] = rows[i][i] - 1
    return word, rows


def _items():
    import workloads
    return {label: params for label, params, _ in workloads.Alexander().prepare(0)}


def _one(label, method):
    from ttklib import invariants
    _, rows = _matrix(_items()[label])
    t0 = time.perf_counter()
    invariants.det_laurent(rows, method=method)
    print(time.perf_counter() - t0)


def _timed(label, method):
    cmd = [sys.executable, os.path.abspath(__file__), "--one", label, method]
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=CAP_S, check=True)
    except subprocess.TimeoutExpired:
        return None
    return float(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    # internal: time one call, in the child process that _timed starts
    ap.add_argument("--one", nargs=2, metavar=("LABEL", "METHOD"))
    args = ap.parse_args()
    sys.path.insert(0, SRC)
    if args.one:
        _one(*args.one)
        return
    by_dim = {}
    for label, params in _items().items():
        word, _ = _matrix(params)
        d = word.strands - 1
        if d >= 2 and (d not in by_dim or word.crossing_count > by_dim[d][1]):
            by_dim[d] = (label, word.crossing_count)
    print("| d | knot | crossings | bareiss s | modular s |")
    print("|---:|---|---:|---:|---:|")
    capped = f"> {CAP_S}"
    bareiss_capped = False
    for d in sorted(by_dim):
        label, crossings = by_dim[d]
        if bareiss_capped:
            b = "not run"
        else:
            b = _timed(label, "bareiss")
            bareiss_capped = b is None
            b = capped if b is None else f"{b:.4f}"
        m = _timed(label, "modular")
        m = capped if m is None else f"{m:.4f}"
        print(f"| {d} | {label} | {crossings} | {b} | {m} |", flush=True)


if __name__ == "__main__":
    main()

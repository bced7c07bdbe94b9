#!/usr/bin/env python
"""CI sampling bench: sampled-simulation speedup over full detail.

Times full-detail runs (DiAG ring and the out-of-order baseline)
against sampled runs (:mod:`repro.sampling`: ISS functional fast path
+ periodic detailed timing windows) on memory-bound workloads at a
large scale, and writes ``BENCH_sampling.json``.

Every cell asserts the statistical contract alongside the timing: the
sampled run must verify its outputs (the ISS finishes the workload
functionally), and the full-detail IPC must fall within the sampled
estimate's reported 95% confidence interval — a fast wrong answer
fails the bench. The gated number is the *aggregate* wall-clock ratio
(total full-detail seconds over total sampled seconds across all
cells). The floor is opt-in via ``--min-speedup`` so laptops get the
equivalence check without a timing gate; CI runs ``--min-speedup 5``
at ``--scale 4`` (docs/SAMPLING.md).

Usage: ``python tools/bench_sampling.py [-o out.json] [--scale X]
[--min-speedup X]`` (``src/`` is put on ``sys.path`` automatically).
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))

from repro.harness import diskcache  # noqa: E402
from repro.harness.runner import (  # noqa: E402
    clear_cache,
    run_baseline,
    run_diag,
)
from repro.machines import NAMES as MACHINES  # noqa: E402
from repro.sampling import SamplingParams, run_sampled  # noqa: E402

WORKLOADS = ("bfs", "streamcluster")
DIAG_CONFIG = "F4C2"

#: ~8% detail coverage: windows every 25k instructions, each 1k
#: measured after a 1k warm-start prefix (plus functional warming)
PARAMS = SamplingParams(period=25_000, window=1_000, warmup=1_000)


def _timed(fn):
    clear_cache()
    start = time.perf_counter()
    record = fn()
    return record, time.perf_counter() - start


def run_cell(workload, machine, scale):
    """One (workload, machine) cell: full-detail vs. sampled, timed."""
    if machine == "diag":
        full, full_s = _timed(
            lambda: run_diag(workload, config=DIAG_CONFIG, scale=scale))
        sampled, sampled_s = _timed(
            lambda: run_sampled(workload, machine="diag",
                                config=DIAG_CONFIG, scale=scale,
                                params=PARAMS))
    else:
        full, full_s = _timed(
            lambda: run_baseline(workload, scale=scale))
        sampled, sampled_s = _timed(
            lambda: run_sampled(workload, machine="ooo", scale=scale,
                                params=PARAMS))
    return full, full_s, sampled, sampled_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="BENCH_sampling.json")
    parser.add_argument("--scale", type=float, default=4.0)
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail if the aggregate sampled speedup is "
                             "below this (CI gate; default 0 = report "
                             "only)")
    args = parser.parse_args(argv)
    diskcache.configure(None)  # wall times must measure simulation

    failures = []
    cells = {}
    full_total = sampled_total = 0.0
    for machine in MACHINES:
        for workload in WORKLOADS:
            name = f"{workload}.{machine}"
            full, full_s, sampled, sampled_s = run_cell(
                workload, machine, args.scale)
            if full.status != "ok" or not full.verified:
                failures.append(f"{name}: full-detail run failed "
                                f"({full.status}: {full.error})")
            if sampled.status != "ok" or not sampled.verified:
                failures.append(f"{name}: sampled run failed "
                                f"({sampled.status}: {sampled.error})")
            mean = sampled.stat("sampling.ipc_mean")
            ci = sampled.stat("sampling.ipc_ci95")
            if full.ipc and abs(mean - full.ipc) > ci:
                failures.append(
                    f"{name}: full IPC {full.ipc:.4f} outside sampled "
                    f"{mean:.4f} +/- {ci:.4f}")
            full_total += full_s
            sampled_total += sampled_s
            cells[name] = {
                "full_seconds": round(full_s, 4),
                "sampled_seconds": round(sampled_s, 4),
                "speedup": round(full_s / sampled_s, 3)
                if sampled_s > 0 else 0.0,
                "full_ipc": round(full.ipc, 4),
                "sampled_ipc": round(mean, 4),
                "ipc_ci95": round(ci, 4),
                "in_ci": bool(full.ipc and abs(mean - full.ipc) <= ci),
                "windows": sampled.stat("sampling.windows"),
                "coverage": round(sampled.stat("sampling.coverage"), 4),
                "instructions": sampled.instructions,
            }
            print(f"{name}: full {full_s:.2f}s sampled {sampled_s:.2f}s "
                  f"({cells[name]['speedup']}x) ipc {full.ipc:.3f} vs "
                  f"{mean:.3f} +/- {ci:.3f} "
                  f"[{cells[name]['windows']} windows, "
                  f"{cells[name]['coverage']:.1%} coverage]")

    doc = {
        "scale": args.scale,
        "params": {"period": PARAMS.period, "window": PARAMS.window,
                   "warmup": PARAMS.warmup,
                   "warm_lines": PARAMS.warm_lines},
        "cells": cells,
        "full_seconds_total": round(full_total, 4),
        "sampled_seconds_total": round(sampled_total, 4),
        "speedup": round(full_total / sampled_total, 3)
        if sampled_total > 0 else 0.0,
        "all_in_ci": all(c["in_ci"] for c in cells.values()),
    }
    if args.min_speedup and doc["speedup"] < args.min_speedup:
        failures.append(f"aggregate sampled speedup {doc['speedup']}x "
                        f"< required {args.min_speedup}x")
    doc["failures"] = failures

    with open(args.output, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"aggregate: full {full_total:.2f}s, sampled "
          f"{sampled_total:.2f}s ({doc['speedup']}x)")
    print(f"wrote {args.output}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload, or all of them.

Usage::

    python3 perfbench/run.py --workload engine --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics BENCHMARK.json declares;
``--trace 1`` measures an untraced and then a traced phase (half the
seconds each) and reports the per-layer metrics, writing the spans to
``.perfbench/trace-<workload>-seed<N>.json`` (Chrome trace format).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it list
every metric the workload measured with its unit, including the
workload-specific end-to-end metrics that BENCHMARK.json cannot
declare for every workload.

Exit codes: 0 all operations correct; 1 some operation failed its
check (the result line says how many); 2 the run could not produce a
trustworthy result (missing or non-finite metric, no operations, an
empty trace, an unexpected service status, or no program to measure).
"""

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: reports, traces, the digest store and per-run scratch space
WORKDIR = ROOT / ".perfbench"

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 5
#: rounds the untraced phase measures at least (``wall_s`` is a median)
MIN_ROUNDS = 2


def _import_probe(modules):
    """Seconds a fresh interpreter takes to import ``modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import " + ", ".join(modules)],
                   check=True, env=env, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure(workload, seed, seconds, trace, bench, workdir):
    """One run: set-ups, the timed phase(s), and the result line."""
    from measure import (DigestStore, Run, build_result, check_trace,
                         end_to_end, per_layer, run_phase)
    from spans import SpanRecorder, probes, write_chrome_trace

    scratch = workdir / f"tmp-{os.getpid()}"
    rng = random.Random(seed)
    digests = DigestStore(workdir / "digests.json", ROOT / "src" / "repro")
    run = Run(scratch, seed, digests)
    setups = []
    plain = traced = None
    try:
        for rep in range(SETUP_REPS):
            if rep:
                workload.teardown()
            start = time.perf_counter()
            _import_probe(workload.MODULES)
            workload.setup(run)
            setups.append(time.perf_counter() - start)
        if not trace:
            plain = run_phase(workload, run, rng, seconds, MIN_ROUNDS)
        else:
            plain = run_phase(workload, run, rng, seconds / 2, 1)
            run.recorder = SpanRecorder(scratch / "spans")
            with probes(run.recorder):
                traced = run_phase(workload, run, rng, seconds / 2, 1,
                                   traced=True)
            spans = run.recorder.collect()
    finally:
        workload.teardown()
        shutil.rmtree(scratch, ignore_errors=True)
    digests.save()
    if not trace:
        metrics = end_to_end(plain, setups, run)
        declared = bench["end_to_end"]
    else:
        check_trace(spans)
        write_chrome_trace(
            workdir / f"trace-{workload.name}-seed{seed}.json", spans)
        metrics = per_layer(plain, traced, spans, os.getpid())
        declared = bench["per_layer"]
    walls = [round(w, 4) for p in (plain, traced) if p for w in p.walls]
    return build_result(run, metrics, declared), metrics, run.errors, walls


def _report(name, seed, trace, metrics, bench, errors, walls, workdir):
    """Human-readable lines (every metric with its unit) plus a report
    file the ``all`` mode reads back."""
    from measure import EXTRA_UNITS

    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(EXTRA_UNITS)
    rows = {key: {"value": value, "unit": units.get(key, "")}
            for key, value in sorted(metrics.items())}
    print(f"# perfbench workload={name} seed={seed} trace={trace} "
          f"round walls (s): {walls}")
    for key, row in rows.items():
        print(f"#   {key:28s} {row['value']:>16.6g} {row['unit']}")
    for line in errors[:20]:
        print(f"# FAILED: {line}")
    path = workdir / f"report-{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed,
                                "trace": trace, "metrics": rows,
                                "round_walls": walls, "errors": errors},
                               indent=1),
                    encoding="utf-8")


def run_all(args, workdir):
    """Every workload in its own process; one table at the end."""
    status = 0
    table = []
    for name in ("engine", "campaign", "service", "sampled"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdin=subprocess.DEVNULL)
        status = max(status, proc.returncode)
        path = (workdir
                / f"report-{name}-seed{args.seed}-trace{args.trace}.json")
        if proc.returncode == 2 or not path.exists():
            table.append(f"{name}: no result (exit {proc.returncode})")
            continue
        report = json.loads(path.read_text(encoding="utf-8"))
        for key, row in report["metrics"].items():
            table.append(f"{name:9s} {key:28s} {row['value']:>16.6g} "
                         f"{row['unit']}")
    print("\n".join(table))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("engine", "campaign", "service", "sampled",
                                 "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} "
              f"is missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from measure import BenchError
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = WORKDIR
    workdir.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args, workdir)
    workload = WORKLOADS[args.workload]()
    # a terminated run still stops what it started (the service runs in
    # a session of its own, out of reach of a signal to this group)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result, metrics, errors, walls = measure(
            workload, args.seed, args.seconds, args.trace, bench, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _report(args.workload, args.seed, args.trace, metrics, bench, errors,
            walls, workdir)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Span recording for the traced benchmark run.

A span is one call into a public function of the program, bracketed
from the benchmark's side: name, start, end, the span that caused it,
and the cell or request it belongs to. Nothing inside ``src/`` is
instrumented. :func:`probes` wraps the public functions listed in
:func:`probe_targets` for the duration of the traced phase and puts
the originals back afterwards.

Spans stay in memory in the process that owns the recorder. Processes
forked from it (the harness's pool workers) and the traced service
process cannot hand memory back, so they append each span as one JSON
line to ``spans-<pid>.jsonl`` in the recorder's sink directory;
:meth:`SpanRecorder.collect` merges both at the end.
"""

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path


class SpanRecorder:
    """Collects spans; see the module docstring for where they go."""

    def __init__(self, sink_dir, in_memory=True):
        self.sink_dir = Path(sink_dir)
        self.sink_dir.mkdir(parents=True, exist_ok=True)
        self.owner = os.getpid() if in_memory else None
        self.spans = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sink = None
        self._sink_pid = None
        # a pool worker may be forked while another thread holds the
        # lock; the child must not inherit it held
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self._lock = threading.Lock()

    # ------------------------------------------------------- recording

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _cell(self):
        """The telemetry run scope names the cell inside pool workers;
        the benchmark names it in its own process (:meth:`cell`)."""
        from repro.obs import telemetry

        ident = telemetry.scoped_identity()
        if ident is not None and ident[0] is not None:
            return ident[0]
        return getattr(self._local, "cell", None)

    @contextlib.contextmanager
    def cell(self, cell_id):
        """Tag every span opened inside the block with ``cell_id``."""
        previous = getattr(self._local, "cell", None)
        self._local.cell = cell_id
        try:
            yield
        finally:
            self._local.cell = previous

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        doc = {"name": name, "id": f"{os.getpid()}.{next(self._seq)}",
               "parent": stack[-1] if stack else None,
               "cell": self._cell(), "pid": os.getpid(),
               "tid": threading.get_ident()}
        stack.append(doc["id"])
        doc["start"] = time.perf_counter()
        try:
            yield doc
        finally:
            doc["end"] = time.perf_counter()
            stack.pop()
            self._emit(doc)

    def _emit(self, doc):
        pid = os.getpid()
        with self._lock:
            if pid == self.owner:
                self.spans.append(doc)
                return
            if self._sink is None or self._sink_pid != pid:
                self._sink = open(self.sink_dir / f"spans-{pid}.jsonl",
                                  "a", encoding="utf-8")
                self._sink_pid = pid
            # a pool worker ends without running exit handlers, so
            # every span is flushed as it is written
            self._sink.write(json.dumps(doc) + "\n")
            self._sink.flush()

    def close(self):
        with self._lock:
            if self._sink is not None and self._sink_pid == os.getpid():
                self._sink.close()
            self._sink = None

    def collect(self):
        """Every span: this process's plus all sink files."""
        spans = list(self.spans)
        for path in sorted(self.sink_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                try:
                    spans.append(json.loads(line))
                except ValueError:
                    continue  # a worker killed mid-write
        return spans


# ------------------------------------------------------------- probes

def probe_targets():
    """``(owner, attribute, span name)`` for every public call the
    traced run brackets. Module attributes are patched where callers
    look them up by module (``runner.run_diag`` from ``execute_spec``,
    ``parallel.run_specs`` from ``prewarm``, ``sampling.clone_iss``
    from ``measure_window``); methods are patched on their class."""
    from repro.baseline import BaselinePowerModel, MulticoreCPU, OoOCore
    from repro.core import DiAGProcessor, EnergyModel
    from repro.harness import experiments, parallel, runner
    from repro.harness.diskcache import DiskCache
    from repro.iss import ISS
    from repro.obs.registry import StatsRegistry
    from repro import sampling
    from repro.service.client import ServiceClient
    from repro.workloads import all_workloads

    targets = [
        (experiments, "run_fig9a", "experiments.run_fig9a"),
        (experiments, "run_fig10a", "experiments.run_fig10a"),
        (runner, "run_diag", "runner.run_diag"),
        (runner, "run_baseline", "runner.run_baseline"),
        (experiments, "run_diag", "runner.run_diag"),
        (experiments, "run_baseline", "runner.run_baseline"),
        (runner, "collect_diag", "obs.collect"),
        (runner, "collect_ooo", "obs.collect"),
        (StatsRegistry, "as_dict", "obs.dump"),
        (EnergyModel, "energy_report", "energy.report"),
        (BaselinePowerModel, "energy_report", "energy.report"),
        (DiAGProcessor, "run", "core.run"),
        (OoOCore, "run", "baseline.run"),
        (MulticoreCPU, "run", "baseline.run"),
        (parallel, "run_specs", "parallel.run_specs"),
        (DiskCache, "get", "diskcache.get"),
        (DiskCache, "put", "diskcache.put"),
        (ISS, "run", "iss.run"),
        (ISS, "run_to_boundary", "iss.run"),
        (sampling, "run_sampled", "sampling.run_sampled"),
        (sampling, "measure_window", "sampling.window"),
        (sampling, "clone_iss", "sampling.clone"),
        (sampling, "warm_engine", "sampling.clone"),
        (ServiceClient, "run", "service.request"),
    ]
    # every workload class defines its own build()
    for cls in sorted(set(all_workloads().values()),
                      key=lambda c: c.__name__):
        targets.append((cls, "build", "workloads.build"))
    return targets


def _wrap(recorder, name, fn):
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        with recorder.span(name) as doc:
            result = fn(*args, **kwargs)
            if name == "diskcache.get":
                doc["hit"] = result is not None
            elif name == "diskcache.put":
                doc["ok"] = bool(result)
            return result
    return probe


@contextlib.contextmanager
def patched(owner, attr, replacement):
    """Set ``owner.attr`` for the block, restoring the previous value
    (class attributes are read from the class ``__dict__`` so a
    method's own descriptor comes back, not an inherited one)."""
    own = attr in vars(owner)
    previous = vars(owner)[attr] if own else getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        if own:
            setattr(owner, attr, previous)
        else:
            delattr(owner, attr)


@contextlib.contextmanager
def probes(recorder):
    """Install a span probe on every :func:`probe_targets` entry."""
    with contextlib.ExitStack() as stack:
        for owner, attr, name in probe_targets():
            stack.enter_context(patched(
                owner, attr, _wrap(recorder, name, getattr(owner, attr))))
        yield recorder


# ------------------------------------------------------------ folding

def _union(intervals):
    total = 0.0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def duration(span):
    return span["end"] - span["start"]


def outermost(spans, names):
    """Spans named in ``names`` with no ancestor also named in
    ``names`` (so nested calls of one layer count once)."""
    names = set(names)
    by_id = {s["id"]: s for s in spans}
    found = []
    for span in spans:
        if span["name"] not in names:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent"])
        if parent is None:
            found.append(span)
    return found


def layer_seconds(spans, names):
    return sum(duration(s) for s in outermost(spans, names))


def self_seconds(spans, names):
    """Σ over spans named in ``names`` of their duration minus the part
    of it their direct children (same process) cover."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    total = 0.0
    for span in spans:
        if span["name"] not in names:
            continue
        inner = [(c["start"], c["end"]) for c in children.get(span["id"], ())
                 if c["pid"] == span["pid"]]
        total += duration(span) - _union(inner)
    return total


def coverage(spans, pid, windows):
    """Share of the time in ``windows`` ((start, end) pairs, the timed
    rounds) covered by top-level spans of process ``pid``."""
    top = [(s["start"], s["end"]) for s in spans
           if s["pid"] == pid and s["parent"] is None]
    wall = sum(end - start for start, end in windows)
    covered = 0.0
    for w_start, w_end in windows:
        covered += _union([(max(a, w_start), min(b, w_end))
                           for a, b in top if b > w_start and a < w_end])
    return covered / wall if wall > 0 else 0.0


def write_chrome_trace(path, spans):
    """Spans as a Chrome ``trace_event`` file (loads in Perfetto)."""
    origin = min((s["start"] for s in spans), default=0.0)
    events = []
    for span in spans:
        events.append({
            "name": span["name"], "ph": "X", "pid": span["pid"],
            "tid": span["tid"],
            "ts": round((span["start"] - origin) * 1e6, 3),
            "dur": round(duration(span) * 1e6, 3),
            "args": {key: span[key] for key in span
                     if key not in ("name", "pid", "tid", "start", "end")},
        })
    Path(path).write_text(json.dumps({"traceEvents": events}),
                          encoding="utf-8")

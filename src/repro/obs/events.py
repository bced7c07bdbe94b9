"""Structured event tracing with a Chrome ``trace_event`` exporter.

An :class:`EventTracer` is attached to an engine (``engine.tracer``);
the engines emit dispatch / execute / retire / squash / cache-miss /
lane-forward / SIMT-region events only when a tracer is present, so the
disabled path costs one attribute check per emission site.

The buffer is a bounded ring (``collections.deque(maxlen=...)``): a
long run keeps the *latest* ``max_events`` events and the tracer
reports exactly how many older events were dropped — no silent
truncation. ``chrome_trace()`` exports the buffer in the Chrome
``trace_event`` JSON format (one ``traceEvents`` array of ``X`` /
``i`` / ``C`` / ``M`` phases, timestamps in simulated cycles), which
loads directly in Perfetto (https://ui.perfetto.dev) or
chrome://tracing. See docs/OBSERVABILITY.md for the event schema.
"""

import json
from collections import deque

#: Event names the engines emit (the trace schema's vocabulary).
EVENT_NAMES = ("dispatch", "execute", "retire", "squash", "mispredict",
               "cache_miss", "lane_forward", "simt_region",
               "simt_thread_start", "simt_thread_stop", "hang")


class EventTracer:
    """Ring-buffer-bounded structured event recorder.

    ``pid`` identifies the machine (its ``track_pid`` in the
    :mod:`repro.machines` registry: 0 = diag, 1 = ooo), ``tid`` the ring
    or core within it. Timestamps are simulated cycles; the exporter
    maps one cycle to one trace microsecond so Perfetto's zoom works.
    """

    def __init__(self, max_events=200_000):
        self.max_events = max_events
        self._events = deque(maxlen=max_events)
        self.emitted = 0
        self._names = {}        # pid -> process name
        self._thread_names = {}  # (pid, tid) -> thread name

    # -------------------------------------------------------- annotation

    def set_process(self, pid, name):
        self._names[pid] = name

    def set_thread(self, pid, tid, name):
        self._thread_names[(pid, tid)] = name

    # ---------------------------------------------------------- emission

    def complete(self, name, ts, dur, pid=0, tid=0, args=None,
                 cat=None):
        """A span: begins at cycle ``ts``, lasts ``dur`` cycles.

        ``cat`` is the Chrome event category — engines set it to the
        schema event type (e.g. ``execute``) when ``name`` carries the
        per-slice detail (the instruction mnemonic)."""
        event = {"name": name, "ph": "X", "ts": ts,
                 "dur": max(1, dur), "pid": pid, "tid": tid}
        if cat:
            event["cat"] = cat
        if args:
            event["args"] = args
        self.emitted += 1
        self._events.append(event)

    def instant(self, name, ts, pid=0, tid=0, args=None, cat=None):
        """A point event at cycle ``ts``."""
        event = {"name": name, "ph": "i", "ts": ts, "s": "t",
                 "pid": pid, "tid": tid}
        if cat:
            event["cat"] = cat
        if args:
            event["args"] = args
        self.emitted += 1
        self._events.append(event)

    def count(self, name, ts, value, pid=0, tid=0):
        """A counter track sample (Chrome ``C`` phase)."""
        self.emitted += 1
        self._events.append({"name": name, "ph": "C", "ts": ts,
                             "pid": pid, "tid": tid,
                             "args": {name: value}})

    # ------------------------------------------------------------ access

    @property
    def dropped(self):
        """Events pushed out of the ring buffer (oldest-first)."""
        return max(0, self.emitted - len(self._events))

    def __len__(self):
        return len(self._events)

    def events(self):
        """Snapshot of the retained events (oldest first)."""
        return list(self._events)

    def clear(self):
        self._events.clear()
        self.emitted = 0

    # ------------------------------------------------------------ export

    def chrome_trace(self):
        """The full Chrome ``trace_event`` document as a dict."""
        trace_events = []
        for pid, name in sorted(self._names.items()):
            trace_events.append({"name": "process_name", "ph": "M",
                                 "pid": pid, "tid": 0,
                                 "args": {"name": name}})
        for (pid, tid), name in sorted(self._thread_names.items()):
            trace_events.append({"name": "thread_name", "ph": "M",
                                 "pid": pid, "tid": tid,
                                 "args": {"name": name}})
        trace_events.extend(self._events)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "simulated-cycles (1 cycle = 1 us)",
                "emitted": self.emitted,
                "dropped": self.dropped,
            },
        }

    def to_json(self, indent=None):
        return json.dumps(self.chrome_trace(), indent=indent)

    def write(self, path):
        """Write the Chrome trace JSON to ``path``; returns the path."""
        with open(path, "w") as fh:
            fh.write(self.to_json())
        return path

    def summary(self):
        by_name = {}
        for event in self._events:
            key = event.get("cat", event["name"])
            by_name[key] = by_name.get(key, 0) + 1
        parts = ", ".join(f"{name}={count}"
                          for name, count in sorted(by_name.items()))
        line = (f"{self.emitted} event(s) emitted, "
                f"{len(self._events)} retained, {self.dropped} dropped")
        return f"{line}\n  {parts}" if parts else line

"""The benchmark's four workloads (README.md explains why each exists).

Each workload drives the program only through its public functions.
``setup`` runs before the timed phase (several times, for ``setup_s``),
``round`` performs the workload's fixed set of operations once, in an
order drawn from the seed, and ``begin_phase``/``end_phase`` bracket a
timed phase. Every workload is closed-loop and uses at most two worker
processes or client threads.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from measure import BenchError, digest, pickled_kb, record_doc
from spans import patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class Workload:
    """No-op hooks shared by every workload."""

    #: modules a user of this workload imports (timed in ``setup_s``)
    MODULES = ("repro.harness",)

    def setup(self, run):
        pass

    def teardown(self):
        pass

    def begin_phase(self, run, phase):
        pass

    def end_phase(self, run, rng, phase):
        pass


def _cell_id(machine, workload, config, scale):
    return f"{machine}:{workload}:{config or 'ooo'}:{scale:g}"


class Engine(Workload):
    """Serial in-process ``run_diag`` (F4C32) and ``run_baseline`` on
    three kernels that stress different ring paths: mcf (arm/drain),
    streamcluster (wiring and PE allocation), lud (instruction reuse).
    The in-memory run cache is cleared before each cell and the disk
    cache is off, so every cell simulates."""

    name = "engine"
    KERNELS = ("mcf", "streamcluster", "lud")

    def __init__(self, scale=0.5, kernels=KERNELS, max_cycles=None):
        self.scale = scale
        self.kernels = kernels
        self.max_cycles = max_cycles

    def setup(self, run):
        from repro.harness import diskcache, runner

        diskcache.configure(None)
        runner.clear_cache()
        for record in (runner.run_diag("nn", scale=0.05),
                       runner.run_baseline("nn", scale=0.05)):
            if record.status != "ok":
                raise BenchError(f"engine warm-up failed: {record.error}")
        runner.clear_cache()

    def round(self, run, rng, phase):
        from repro.harness import runner

        cells = [(k, m) for k in self.kernels for m in ("diag", "ooo")]
        rng.shuffle(cells)
        cycles = 0
        for kernel, machine in cells:
            runner.clear_cache()
            cell = _cell_id(machine, kernel,
                            "F4C32" if machine == "diag" else None,
                            self.scale)
            with run.cell(cell):
                start = time.perf_counter()
                if machine == "diag":
                    record = runner.run_diag(kernel, config="F4C32",
                                             scale=self.scale,
                                             max_cycles=self.max_cycles)
                else:
                    record = runner.run_baseline(
                        kernel, scale=self.scale,
                        max_cycles=self.max_cycles)
                seconds = time.perf_counter() - start
            run.check_record(cell, phase.executed(record, seconds))
            cycles += record.cycles
        phase.round_cycles.append(cycles)


def _figure_cycles(figure):
    total = 0
    for row in figure["benchmarks"].values():
        total += row["baseline_cycles"]
        total += sum(row[c]["cycles"] for c in row
                     if isinstance(row[c], dict))
    return total


def _figure_ok(figure):
    return not figure["failures"] and all(
        row["baseline_verified"]
        and all(row[c]["verified"] for c in row if isinstance(row[c], dict))
        for row in figure["benchmarks"].values())


class Campaign(Workload):
    """Regenerate Figures 9a and 10a with two pool workers into a fresh
    disk cache (the timed cold pass), then replay them warm from that
    cache with the in-memory cache cleared (``replay_s``)."""

    name = "campaign"
    MODULES = ("repro.harness.experiments",)
    FIGURES = ("run_fig9a", "run_fig10a")

    JOBS = 2

    def __init__(self, scale=0.1, replays=10):
        self.scale = scale
        self.replays = replays
        self.last = None

    def setup(self, run):
        from repro.harness import RunSpec, diskcache, parallel, runner

        os.environ["REPRO_JOBS"] = str(self.JOBS)
        diskcache.configure(run.fresh_dir("campaign-setup"))
        runner.clear_cache()
        records = parallel.run_specs(
            [RunSpec.diag("nn", config="F4C2", scale=0.05),
             RunSpec.ooo("nn", scale=0.05)], jobs=self.JOBS)
        if any(r.status != "ok" for r in records):
            raise BenchError("campaign warm-up failed")

    def begin_phase(self, run, phase):
        if phase.traced:
            from repro.obs import telemetry

            phase.telemetry = run.fresh_dir("telemetry") / "events.jsonl"
            telemetry.configure(phase.telemetry)

    def _figures(self, order):
        from repro.harness import experiments

        return {name: getattr(experiments, name)(self.scale)
                for name in order}

    def round(self, run, rng, phase):
        from repro.harness import diskcache, parallel, runner

        diskcache.configure(run.fresh_dir("campaign-cache"))
        runner.clear_cache()
        order = list(self.FIGURES)
        rng.shuffle(order)
        calls = []
        pooled = parallel.run_specs

        def capture(specs, jobs=None, **kwargs):
            specs = list(specs)
            start = time.perf_counter()
            records = pooled(specs, jobs=jobs, **kwargs)
            calls.append((specs, records, time.perf_counter() - start,
                          min(parallel.resolve_jobs(jobs), len(specs))))
            return records

        with patched(parallel, "run_specs", capture):
            figures = self._figures(order)
        if not calls:
            raise BenchError("the cold pass executed no cells through "
                             "run_specs")
        for specs, records, seconds, workers in calls:
            phase.pool_capacity_s += workers * seconds
            for spec, record in zip(specs, records):
                phase.pool_busy_s += record.wall_seconds
                doc = phase.executed(record, record.wall_seconds,
                                     record_kb=pickled_kb(record))
                run.check_record(_cell_id(spec.machine, spec.workload,
                                          spec.config, spec.scale), doc)
        for name, figure in figures.items():
            run.check(_figure_ok(figure), f"{name}: failed or unverified "
                                          f"cells {figure['failures']}")
        phase.round_cycles.append(sum(_figure_cycles(f)
                                      for f in figures.values()))
        self.last = figures

    def end_phase(self, run, rng, phase):
        from repro.harness import runner
        from repro.obs import telemetry

        expected = json.dumps(self.last, sort_keys=True)
        for _ in range(self.replays):
            runner.clear_cache()
            start = time.perf_counter()
            figures = self._figures(self.FIGURES)
            phase.replays.append(time.perf_counter() - start)
            run.check(json.dumps(figures, sort_keys=True) == expected,
                      "a warm replay differs from the cold pass")
        if phase.traced:
            telemetry.reset()


class Sampled(Workload):
    """``run_sampled`` with the sampling bench's parameters on bfs and
    streamcluster x both engines, at a scale where the ISS retires most
    instructions and the engines run only in short windows."""

    name = "sampled"
    MODULES = ("repro.sampling",)
    CELLS = (("bfs", "diag"), ("bfs", "ooo"),
             ("streamcluster", "diag"), ("streamcluster", "ooo"))
    DIAG_CONFIG = "F4C2"

    def __init__(self, scale=4.0, cells=CELLS,
                 params=(25_000, 1_000, 1_000)):
        self.scale = scale
        self.cells = cells
        self.params = params

    def _params(self, period, window, warmup):
        from repro.sampling import SamplingParams

        return SamplingParams(period=period, window=window, warmup=warmup)

    def setup(self, run):
        from repro import sampling
        from repro.harness import diskcache, runner

        diskcache.configure(None)
        runner.clear_cache()
        record = sampling.run_sampled(
            "bfs", machine="diag", config=self.DIAG_CONFIG, scale=0.5,
            params=self._params(5_000, 500, 500))
        if record.status != "ok":
            raise BenchError(f"sampled warm-up failed: {record.error}")
        runner.clear_cache()

    def round(self, run, rng, phase):
        from repro import sampling
        from repro.harness import runner

        cells = list(self.cells)
        rng.shuffle(cells)
        cycles = 0
        for kernel, machine in cells:
            runner.clear_cache()
            config = self.DIAG_CONFIG if machine == "diag" else None
            cell = "sampled:" + _cell_id(machine, kernel, config,
                                         self.scale)
            with run.cell(cell):
                start = time.perf_counter()
                record = sampling.run_sampled(
                    kernel, machine=machine, config=config,
                    scale=self.scale, params=self._params(*self.params))
                seconds = time.perf_counter() - start
            run.check_record(cell, phase.executed(record, seconds,
                                                  sampled=True))
            cycles += record.cycles
        phase.round_cycles.append(cycles)


# ------------------------------------------------------------ service

class Server:
    """One ``repro serve`` process on a fresh cache. A traced server
    runs through ``serve_traced.py``, which installs the span probes
    before serving."""

    START_TIMEOUT = 60.0

    def __init__(self, run, jobs, sink_dir=None):
        base = run.fresh_dir("service")
        self.telemetry = base / "telemetry.jsonl"
        args = ["serve", "--port", "0", "--jobs", str(jobs),
                "--cache", str(base / "cache"),
                "--telemetry", str(self.telemetry)]
        if sink_dir is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   str(sink_dir)] + args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        for name in ("REPRO_TELEMETRY", "REPRO_TELEMETRY_CAMPAIGN",
                     "REPRO_DISK_CACHE", "REPRO_CACHE_REMOTE"):
            env.pop(name, None)
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, env=env,
            start_new_session=True)
        self.log = []
        self.url = None
        ready = threading.Event()
        self._reader = threading.Thread(target=self._read_log,
                                        args=(ready,), daemon=True)
        self._reader.start()
        if not ready.wait(self.START_TIMEOUT) or self.url is None:
            self.stop()
            raise BenchError("repro serve did not start: "
                             + " | ".join(self.log[-5:]))

    def _read_log(self, ready):
        for line in self.proc.stderr:
            self.log.append(line.rstrip())
            match = re.search(r"repro service: (http://\S+)", line)
            if match and self.url is None:
                self.url = match.group(1)
                ready.set()
        ready.set()  # the process exited before it announced itself

    def stop(self):
        """SIGINT lets the service shut its pool down; whatever is left
        of the process group afterwards is killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self._reader.join(timeout=5)
        self.proc.stderr.close()


def _parse_metrics(text):
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if name.endswith("_total"):
            name = name[:-len("_total")]
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


class Service(Workload):
    """A ``repro serve --jobs 2`` process fed by two closed-loop client
    threads. Each round posts the same mix: every ``COLD`` spec once as
    a first-time request, ``hits`` re-posts of specs completed earlier,
    and each ``DEDUP`` spec posted by both clients at once. A first-time
    spec is the template's run under a cycle budget no other request
    used (far above the run's length), so every round executes the same
    simulations and the latency mix does not depend on the seed.

    The mix is an assumption, not measured traffic (there is none to
    measure). It follows the rules given with each constant below."""

    name = "service"
    MODULES = ("repro.service",)
    #: first-time specs: three of the cheapest kernels at small scale,
    #: each on both machines, so every round executes both engines and
    #: stays short enough for a 10 s run to hold far more than the 200
    #: requests that give p95 ten samples beyond it
    COLD = (("nn", "diag"), ("nn", "ooo"), ("hotspot", "diag"),
            ("hotspot", "ooo"), ("srad", "diag"), ("srad", "ooo"))
    #: specs posted by both clients at once: one per machine, the
    #: fewest that take the dedup path on both engines every round; bfs
    #: is the slowest small kernel, so the second post arrives while
    #: the first is still executing
    DEDUP = (("bfs", "diag"), ("bfs", "ooo"))
    #: share of requests that re-post a completed spec (cache hits).
    #: At three in four, p50 falls inside the hits and p95 inside the
    #: executing quarter (at its 80th percentile), away from the step
    #: between the two, so neither quantile flips between the groups
    HIT_SHARE = 0.75
    BUDGET_BASE = 50_000_000
    OUTCOMES = ("scheduled", "cached", "deduped")
    #: admission paths each kind of request may take
    EXPECTED = {"cold": ("scheduled",), "hit": ("cached",),
                "dedup": OUTCOMES}
    COUNTERS = ("requests", "executions", "dedup_shared", "cache_hits",
                "cache_misses", "rejected_rate", "rejected_depth")

    CLIENTS = 2
    JOBS = 2
    #: executed specs re-run locally per phase (service == local)
    LOCAL_CHECKS = 3
    #: seconds a client waits on one response before the run fails
    CLIENT_TIMEOUT = 60.0

    def __init__(self, scale=0.1, cold=COLD, dedup=DEDUP, hits=None):
        self.scale = scale
        self.cold = cold
        self.dedup = dedup
        if hits is None:
            executing = len(cold) + self.CLIENTS * len(dedup)
            hits = round(executing * self.HIT_SHARE / (1 - self.HIT_SHARE))
        self.hits = hits
        self.server = None
        self.pool = []
        self._budget = None
        self._before = {}

    # ------------------------------------------------------- plumbing

    def _fresh(self, kernel, machine):
        self._budget += 1
        spec = {"machine": machine, "workload": kernel,
                "scale": self.scale, "max_cycles": self._budget}
        if machine == "diag":
            spec["config"] = "F4C2"
        return spec

    def _client(self):
        from repro.service import ServiceClient

        return ServiceClient(self.server.url, timeout=self.CLIENT_TIMEOUT)

    def _start(self, run, sink_dir=None):
        self.server = Server(run, self.JOBS, sink_dir)
        self.client = self._client()
        self.client.health()
        warm = [self._fresh("nn", "diag"), self._fresh("nn", "ooo")]
        for result in self._post_all([("cold", spec) for spec in warm]):
            if result["outcome"] != "scheduled":
                raise BenchError(f"service warm-up: {result}")
        self.pool = warm

    def _post(self, client, kind, spec, tenant):
        from repro.service import ServiceError

        stamps = {}

        def on_event(event):
            if event.get("event") == "queued":
                stamps["queued"] = time.perf_counter()

        start = time.perf_counter()
        try:
            outcome = client.run(spec, tenant=tenant, on_event=on_event)
        except (ServiceError, OSError) as exc:
            raise BenchError(f"service request failed: {exc}") from exc
        end = time.perf_counter()
        errors = [e for e in outcome.events if e.get("event") == "error"]
        if errors or outcome.result is None \
                or outcome.status != "ok" \
                or outcome.outcome not in self.OUTCOMES \
                or "queued" not in stamps:
            raise BenchError(f"service returned an unexpected status for "
                             f"{spec}: status={outcome.status} "
                             f"outcome={outcome.outcome} errors={errors}")
        return {"kind": kind, "spec": spec, "outcome": outcome.outcome,
                "record": outcome.record,
                "admit_ms": (stamps["queued"] - start) * 1000.0,
                "total_ms": (end - start) * 1000.0}

    def _threads(self, targets):
        failures = []

        def guard(fn):
            try:
                fn()
            except BenchError as exc:
                failures.append(exc)

        threads = [threading.Thread(target=guard, args=(fn,))
                   for fn in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]

    def _post_all(self, jobs):
        """``jobs`` through ``CLIENTS`` closed-loop clients."""
        results = [None] * len(jobs)
        cursor = iter(range(len(jobs)))
        lock = threading.Lock()

        def client_loop(wid):
            client = self._client()
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                kind, spec = jobs[index]
                results[index] = self._post(client, kind, spec,
                                            f"client-{wid}")

        self._threads([lambda w=w: client_loop(w)
                       for w in range(self.CLIENTS)])
        return results

    def _post_together(self, spec):
        """Every client posts ``spec`` at the same moment."""
        barrier = threading.Barrier(self.CLIENTS)
        results = [None] * self.CLIENTS

        def post(wid):
            client = self._client()
            barrier.wait()
            results[wid] = self._post(client, "dedup", spec,
                                      f"client-{wid}")

        self._threads([lambda w=w: post(w) for w in range(self.CLIENTS)])
        return results

    def _counters(self):
        values = _parse_metrics(self.client.metrics())
        return {key: values.get("repro_service_" + key, 0.0)
                for key in self.COUNTERS}

    # ---------------------------------------------------------- hooks

    def setup(self, run):
        if self._budget is None:
            self._budget = self.BUDGET_BASE + (run.seed % 1000) * 100_000
        self._start(run)

    def teardown(self):
        if self.server is not None:
            self.server.stop()
            self.server = None

    def begin_phase(self, run, phase):
        if phase.traced:
            self.teardown()
            self._start(run, run.recorder.sink_dir)
        phase.telemetry = self.server.telemetry
        self._before = self._counters()

    def round(self, run, rng, phase):
        from repro.harness.runner import RunRecord

        start = time.perf_counter()
        singles = [("cold", self._fresh(k, m)) for k, m in self.cold]
        singles += [("hit", rng.choice(self.pool))
                    for _ in range(self.hits)]
        rng.shuffle(singles)
        results = self._post_all(singles)
        pairs = []
        for kernel, machine in self.dedup:
            pair = self._post_together(self._fresh(kernel, machine))
            pairs.append(pair)
            results += pair
        for pair in pairs:
            outcomes = sorted(r["outcome"] for r in pair)
            run.check(outcomes.count("scheduled") == 1,
                      f"simultaneous posts answered {outcomes}")
        cycles = 0
        for result in results:
            spec, record = result["spec"], result["record"]
            if result["outcome"] not in self.EXPECTED[result["kind"]]:
                run.check(False, f"{result['kind']} request for {spec} "
                                 f"answered {result['outcome']}")
                continue
            run.check_record(_cell_id(spec["machine"], spec["workload"],
                                      spec.get("config"), spec["scale"]),
                             record)
            if result["outcome"] == "scheduled":
                phase.executed(record, record["wall_seconds"],
                               record_kb=pickled_kb(RunRecord(**record)))
                phase.pool_busy_s += record["wall_seconds"]
                cycles += record["cycles"]
                self.pool.append(spec)
        phase.requests.extend(results)
        phase.round_cycles.append(cycles)
        phase.pool_capacity_s += self.JOBS * (time.perf_counter() - start)

    def end_phase(self, run, rng, phase):
        """Counter deltas off ``/metrics``, then the service == local
        contract on a seeded sample of executed specs."""
        from repro.harness import RunSpec, diskcache, parallel, runner

        after = self._counters()
        phase.service = {key: after[key] - self._before[key]
                         for key in self.COUNTERS}
        executed = [r for r in phase.requests if r["outcome"] == "scheduled"]
        diskcache.configure(None)
        for result in rng.sample(executed,
                                 min(self.LOCAL_CHECKS, len(executed))):
            runner.clear_cache()
            local = parallel.run_specs(
                [RunSpec.from_dict(result["spec"])], jobs=1)[0]
            run.check(digest(record_doc(local)) == digest(result["record"]),
                      f"service record for {result['spec']} differs from "
                      f"a local run_specs record")


WORKLOADS = {cls.name: cls for cls in (Engine, Campaign, Service, Sampled)}

"""Process-pool execution of run batches (sweeps, campaigns, figures).

Everything the harness runs reduces to a list of picklable
:class:`RunSpec` points; :func:`run_specs` shards them across a
``ProcessPoolExecutor`` and returns their :class:`RunRecord` results
*in submission order* — the caller cannot observe scheduling. The
determinism contract (docs/PARALLEL.md): both engines are seed-driven
with no wall-clock input, so a record computed in a worker is
bit-identical (modulo the ``host.*`` wall-clock gauges) to one computed
serially, and ``tests/test_parallel_equivalence.py`` enforces it.

Degradation is graceful and total (docs/RESILIENCE.md §3). One ladder,
:class:`PoolLadder`, owns the pool for both the sweep harness and the
run service (:mod:`repro.service.scheduler` awaits the same core): a
worker exception is retried with exponential backoff + jitter; a dead
worker (``BrokenProcessPool``) rebuilds the pool once and requeues what
was in flight; a worker past the wall-clock watchdog is abandoned at
once and its spec retried once under its own deadline, then recorded
as ``status="timeout"``; a spec that exhausts its retries — or finds no
pool at all — executes in-process, and one that raises *there too* is
quarantined (``status="quarantined"``, ``failure_class="infra"``). A
parallel sweep can never produce fewer results than a serial one.

Crash safety: pass ``journal=`` (a path, or ``True`` for an auto-named
file under ``.repro_journal/``) and every completed record is fsync'd
to a write-ahead journal (:mod:`repro.harness.journal`) the moment it
arrives; ``resume=True`` replays the journal and only executes what is
missing — byte-identical to an undisturbed run. While a journal is
active, SIGINT/SIGTERM are drained through the journal (the completed
prefix is always durable) before the interrupt propagates.

Workers share the persistent :mod:`repro.harness.diskcache` (atomic
writes make concurrent writers safe), so a pooled sweep warms the same
cache later serial runs hit.

Knobs: ``jobs`` arg > ``REPRO_JOBS`` env > 1 (serial); per-spec
watchdog ``REPRO_WORKER_TIMEOUT`` (900 s); pool retries per spec
``REPRO_RETRIES`` (2); backoff base ``REPRO_RETRY_BACKOFF`` (0.05 s);
hang-retry deadline ``REPRO_SERIAL_RETRY_TIMEOUT`` (max(watchdog,
60 s)).
"""

import asyncio
import os
import random
import signal
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

from repro.obs import deterministic_view, merge_flat
from repro.obs import telemetry
from repro.obs.resilience import (
    JOURNAL_APPENDS,
    JOURNAL_HITS,
    QUARANTINED,
    REQUEUED,
    RETRIES,
    TIMEOUTS,
    resilience,
)

#: default per-spec wall-clock watchdog (seconds)
WORKER_TIMEOUT = 900.0

#: default pool resubmissions per spec after a transient failure
RETRY_LIMIT = 2

#: floor on the bounded hang-retry deadline (seconds)
SERIAL_RETRY_FLOOR = 60.0

#: seconds between progress-renderer polls while a pooled batch runs
POLL_INTERVAL = 0.2


def execute_spec(spec, run_id=None, span=None):
    """Run one spec in this process; the pool's worker entry point,
    but equally the serial path.

    Any picklable spec object exposing ``.execute()`` — a
    :class:`RunSpec`, a :class:`repro.sampling.SampledSpec`, a
    :class:`repro.verify.campaign.TortureSpec` — runs through the same
    pool/degradation machinery.

    ``run_id``/``span`` are the telemetry identity the scheduling
    parent assigned this attempt; when present, a ``started`` event is
    emitted from the executing process (so the campaign Gantt knows
    which worker pid ran what). The authoritative ``finished`` /
    ``failed`` events are emitted by the parent when the record lands —
    a worker that dies mid-spec therefore leaves an open span, exactly
    what happened.

    The whole execution runs inside ``telemetry.run_scope(run_id,
    span)``: events emitted from deep layers (checkpoint saves,
    sampling windows, disk-cache probes) inherit this attempt's
    ``(run, span)`` identity instead of arriving anonymous."""
    if run_id is not None:
        telemetry.emit(
            "started", run=run_id, span=span,
            label=getattr(spec, "workload", type(spec).__name__))
    with telemetry.run_scope(run_id, span):
        return spec.execute()


def resolve_jobs(jobs=None):
    """Effective worker count: ``jobs`` arg > ``REPRO_JOBS`` env > 1."""
    if jobs is None:
        try:
            jobs = int(os.environ.get("REPRO_JOBS", "1"))
        except ValueError:
            jobs = 1
    return max(1, int(jobs))


def _worker_timeout(timeout):
    if timeout is not None:
        return timeout
    try:
        return float(os.environ.get("REPRO_WORKER_TIMEOUT",
                                    WORKER_TIMEOUT))
    except ValueError:
        return WORKER_TIMEOUT


def _retry_limit(retries):
    """Pool resubmissions per spec: arg > ``REPRO_RETRIES`` > 2."""
    if retries is not None:
        return max(0, int(retries))
    try:
        return max(0, int(os.environ.get("REPRO_RETRIES", RETRY_LIMIT)))
    except ValueError:
        return RETRY_LIMIT


def _serial_retry_deadline(deadline):
    """The bounded hang retry gets its *own* deadline, never shorter
    than the pool watchdog and floored at 60 s (a 1 ms test watchdog
    must not condemn the retry); ``REPRO_SERIAL_RETRY_TIMEOUT``
    overrides."""
    try:
        return float(os.environ.get(
            "REPRO_SERIAL_RETRY_TIMEOUT",
            max(deadline, SERIAL_RETRY_FLOOR)))
    except ValueError:
        return max(deadline, SERIAL_RETRY_FLOOR)


def _backoff(failures):
    """Seconds to wait before resubmitting a spec that failed
    ``failures`` times: exponential (failure 1 -> ~base, doubling,
    capped at 5 s) with jitter."""
    try:
        base = float(os.environ.get("REPRO_RETRY_BACKOFF", "0.05"))
    except ValueError:
        base = 0.05
    if base <= 0:
        return 0.0
    delay = min(base * (2 ** max(0, failures - 1)), 5.0)
    return delay * (0.5 + random.random() / 2)


#: seconds between a pool worker's checks that its parent is alive
ORPHAN_POLL = 0.5


def _exit_with_parent(parent):
    """Pool worker initializer: end this worker once ``parent`` (the
    process that built the pool) is gone. An idle worker blocks on the
    call queue forever, so a SIGKILLed parent — which runs no shutdown
    — would otherwise leave it orphaned. A daemon thread polls
    ``os.getppid()``, which changes when the worker is reparented."""
    def watch():
        while os.getppid() == parent:
            time.sleep(ORPHAN_POLL)
        os._exit(1)

    threading.Thread(target=watch, name="orphan-watch",
                     daemon=True).start()


def _pool(max_workers):
    """Prefer fork where the platform offers it (no re-import cost per
    worker; both engines are deterministic so inherited state is just
    a warm cache), fall back to the platform default otherwise. Every
    worker exits when the pool's parent dies (:func:`_exit_with_parent`)."""
    import multiprocessing

    kwargs = {"max_workers": max_workers,
              "initializer": _exit_with_parent,
              "initargs": (os.getpid(),)}
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return ProcessPoolExecutor(
                mp_context=multiprocessing.get_context("fork"), **kwargs)
    except (ValueError, OSError):
        pass
    return ProcessPoolExecutor(**kwargs)


def _abandon(pool):
    """Tear down a pool without joining its workers: kill them (a
    ``shutdown(wait=True)`` — or interpreter exit — would block on a
    hung or still-simulating process otherwise). SIGKILL, not SIGTERM:
    a forked worker inherits the parent's signal handlers, and one
    that catches SIGTERM in Python can hang in its own exit path,
    leaving the parent's exit joining it forever."""
    procs = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in procs:
        try:
            proc.kill()
        except Exception:
            pass


def _failure_record(spec, status, error, failure_class):
    """Synthesize a result for a spec the harness gave up on, via the
    spec's own ``failure_record`` protocol."""
    maker = getattr(spec, "failure_record", None)
    if maker is None:
        raise TypeError(f"{type(spec).__name__} cannot synthesize a "
                        f"failure record ({status}: {error})")
    return maker(status=status, error=error,
                 failure_class=failure_class)


def _quarantine(spec, attempts, exc, run_id=None):
    """A spec that failed in the pool *and* in-process: quarantine it
    (classified infra failure) rather than aborting the sweep."""
    resilience().inc(QUARANTINED)
    error = f"{type(exc).__name__}: {exc}"
    telemetry.emit("quarantine", run=run_id, span=attempts,
                   error=error)
    warnings.warn(f"{spec.workload} failed {attempts} attempt(s) "
                  f"({error}); quarantined")
    return _failure_record(spec, "quarantined", error, "infra")


def _timed_out(spec, run_id, attempts, limit, start):
    """A spec that hung again under the bounded retry: a
    ``status="timeout"`` record carrying its elapsed time."""
    elapsed = time.monotonic() - start
    resilience().inc(TIMEOUTS)
    telemetry.emit("timeout", run=run_id, span=attempts,
                   elapsed=round(elapsed, 3), limit=limit)
    warnings.warn(f"{spec.workload} exceeded the {limit:g}s "
                  f"serial-retry deadline too; recording status=timeout")
    record = _failure_record(
        spec, "timeout",
        f"serial retry exceeded {limit:g}s (elapsed {elapsed:.1f}s)",
        "hang")
    if hasattr(record, "wall_seconds"):
        record.wall_seconds = elapsed
    return record


def _submit(pool, spec, run_id, span):
    """Submit one attempt; keeps the bare ``submit(fn, spec)`` shape
    when telemetry is off (test doubles stub exactly that)."""
    if run_id is None:
        return pool.submit(execute_spec, spec)
    return pool.submit(execute_spec, spec, run_id, span)


def record_status(record):
    """The status of a landed record — a dataclass ``.status`` or a
    dict ``["status"]`` — as a string; ``"ok"`` when it carries
    none."""
    status = getattr(record, "status", None)
    if status is None and isinstance(record, dict):
        status = record.get("status")
    return str(status) if status is not None else "ok"


class PoolLadder:
    """The one retry/degradation ladder over a process pool
    (docs/RESILIENCE.md §3), awaited per spec by :func:`run_specs` and
    by the run service's :class:`repro.service.scheduler.JobScheduler`.

    ``await ladder.run(spec, run_id)`` returns ``(record, attempts)``
    and never raises. At most ``workers`` attempts are in flight at
    once, so the per-attempt watchdog times execution, never time
    spent queued behind other specs. The pool comes from :func:`_pool`
    (a thread pool when ``inline``), built on first use and after
    every replacement; ``generation`` counts the replacements.
    :meth:`close` abandons it — workers terminated, never joined.
    """

    def __init__(self, workers, timeout=None, retries=None,
                 inline=False):
        self.workers = max(1, int(workers))
        self.timeout = _worker_timeout(timeout)
        self.retries = _retry_limit(retries)
        self.inline = inline
        self.pool = None
        self.generation = 0
        self._running = 0      # attempts awaiting the pool right now
        self._slots = None     # bound to the running loop on first use
        self._closed = False
        self._fallback = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-fallback")

    def _live_pool(self):
        """The current pool, built on demand; ``None`` when no pool can
        be built (the caller then runs the spec in-process)."""
        if self.pool is None and not self._closed:
            try:
                self.pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-job") \
                    if self.inline else _pool(self.workers)
            except Exception as exc:
                warnings.warn(f"process pool unavailable ({exc}); "
                              "running serially")
        return self.pool

    def _replace(self, pool, error, abandon=False):
        """Retire ``pool`` if it is still the live one — the attempts a
        single failure breaks all land here, and only the first
        retires it (the next submission builds the new pool). Returns
        the number of in-flight attempts requeued, 0 if ``pool`` was
        already retired."""
        if pool is not self.pool:
            return 0
        self.pool = None
        self.generation += 1
        if abandon:
            _abandon(pool)
        else:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        requeued = self._running + 1
        resilience().inc(REQUEUED, requeued)
        telemetry.emit("requeue", count=requeued, error=error)
        return requeued

    async def _attempt(self, pool, spec, run_id, attempt, deadline):
        self._running += 1
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(_submit(pool, spec, run_id, attempt)),
                deadline)
        finally:
            self._running -= 1

    async def run(self, spec, run_id=None):
        """Drive one spec down the ladder: ``(record, attempts)``."""
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.workers)
        attempts = failures = 0
        deadline, hang_start = self.timeout, None
        while True:
            attempts += 1
            async with self._slots:
                pool = self._live_pool()
                if pool is None:
                    break
                try:
                    return (await self._attempt(pool, spec, run_id,
                                                attempts, deadline),
                            attempts)
                except asyncio.TimeoutError:
                    # hung: abandon the pool now (joining would block
                    # on the stuck worker), then one bounded retry
                    self._replace(pool, "watchdog timeout", abandon=True)
                    if hang_start is not None:
                        return (_timed_out(spec, run_id, attempts,
                                           deadline, hang_start),
                                attempts)
                    hang_start = time.monotonic()
                    deadline = _serial_retry_deadline(self.timeout)
                    warnings.warn(
                        f"worker exceeded the {self.timeout:g}s "
                        f"watchdog on {spec.workload}; pool abandoned, "
                        f"retrying once under {deadline:g}s")
                    continue
                except BrokenProcessPool as exc:
                    # a worker died (SIGKILL, OOM): the first attempt
                    # to see it is blamed and rebuilds the pool; every
                    # in-flight attempt is resubmitted
                    error = f"{type(exc).__name__}: {exc}"
                    requeued = self._replace(pool, error)
                    if requeued:
                        failures += 1
                        warnings.warn(
                            f"worker process died ({exc}); pool rebuilt,"
                            f" {requeued} spec(s) requeued")
                    if failures <= self.retries:
                        continue
                except Exception as exc:
                    # a worker raised / an unpicklable spec or record:
                    # transient until proven otherwise
                    failures += 1
                    error = f"{type(exc).__name__}: {exc}"
                    if failures <= self.retries:
                        resilience().inc(RETRIES)
                        telemetry.emit("retry", run=run_id,
                                       span=attempts + 1, error=error)
                        warnings.warn(
                            f"pool failure on {spec.workload} ({error});"
                            f" retrying with backoff (attempt "
                            f"{failures + 1}/{self.retries + 1})")
            if failures > self.retries:
                warnings.warn(f"pool failure on {spec.workload} "
                              f"({error}); re-running serially")
                attempts += 1
                break
            await asyncio.sleep(_backoff(failures))
        loop = asyncio.get_running_loop()
        try:
            record = await loop.run_in_executor(
                self._fallback, execute_spec, spec, run_id, attempts)
        except Exception as exc:
            record = _quarantine(spec, attempts, exc, run_id)
        return record, attempts

    def close(self):
        """Abandon the pool — terminate its workers without joining, so
        closing never waits on a simulation still in flight — and stop
        the fallback thread taking work."""
        self._closed = True
        if self.pool is not None:
            _abandon(self.pool)
            self.pool = None
        self._fallback.shutdown(wait=False, cancel_futures=True)


def _record_event(record, run_id, span):
    """The parent-side, authoritative completion event for a landed
    record: exactly one ``finished``/``failed`` per spec per
    invocation, however many attempts it took."""
    if run_id is None:
        return
    status = record_status(record)
    telemetry.emit("failed" if status != "ok" else "finished",
                   run=run_id, span=span, status=status)


def _journal_put(jrnl, keys, index, record):
    if jrnl is not None and record is not None:
        if jrnl.append(keys[index], record):
            resilience().inc(JOURNAL_APPENDS)


@contextmanager
def _signal_guard(jrnl):
    """While a journal is open on the main thread, convert SIGINT and
    SIGTERM into a KeyboardInterrupt so the ``finally`` drain runs and
    the completed prefix stays durable before the process dies."""
    if jrnl is None \
            or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _handler)
        except (ValueError, OSError, RuntimeError):
            pass
    try:
        yield
    finally:
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError, RuntimeError):
                pass


async def _drive(ladder, specs, pending, run_ids, land, progress):
    """The pooled branch of :func:`run_specs`: every pending spec down
    the ladder concurrently, each record landed as it arrives."""
    async def one(index):
        land(index, *await ladder.run(specs[index],
                                      _rid(run_ids, index)))

    runs = asyncio.gather(*(one(index) for index in pending))
    while progress is not None and not runs.done():
        await asyncio.wait([runs], timeout=POLL_INTERVAL)
        progress.poll()
    await runs


def _rid(run_ids, index):
    return None if run_ids is None else run_ids[index]


def run_specs(specs, jobs=None, timeout=None, journal=None,
              resume=False, retries=None, progress=None):
    """Execute ``specs`` and return their records in input order.

    ``jobs`` > 1 shards across a process pool through the
    :class:`PoolLadder`; 1 (the default without ``REPRO_JOBS``) runs
    in-process. Every pool-level failure degrades — retry with
    backoff, pool rebuild, in-process re-execution, and as a last
    resort a synthesized quarantine/timeout record — with a warning;
    the result list always has one entry per spec.

    ``journal``: a path (or ``True`` for an auto-named file) enabling
    the write-ahead journal; ``resume=True`` replays previously
    journaled records instead of re-executing them. ``retries`` bounds
    pool resubmissions per spec (default ``REPRO_RETRIES`` / 2).

    When a telemetry bus is active (:mod:`repro.obs.telemetry`), every
    lifecycle edge — scheduled / replayed / started / retry / requeue /
    quarantine / timeout / finished / failed — lands on the stream
    with content-hash run IDs; ``progress`` (a
    :class:`repro.obs.progress.ProgressRenderer`) is bound to the
    stream and polled at the harness's idle points.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    records = [None] * len(specs)
    jrnl = keys = None
    hit_indices = []
    if journal:
        from repro.harness.journal import (RunJournal, resolve_path,
                                           spec_key)
        keys = [spec_key(spec) for spec in specs]
        jrnl = RunJournal(resolve_path(journal, specs))
        if resume:
            done = jrnl.load()
            for index, key in enumerate(keys):
                if key in done:
                    records[index] = done[key]
                    hit_indices.append(index)
            if hit_indices:
                resilience().inc(JOURNAL_HITS, len(hit_indices))
    pending = [i for i, record in enumerate(records) if record is None]
    bus = telemetry.active()
    run_ids = None
    if bus is not None:
        if keys is None:
            from repro.harness.journal import spec_key
            keys = [spec_key(spec) for spec in specs]
        run_ids = [key[:12] for key in keys]
        bus.emit("campaign_begin", cells=len(specs), jobs=jobs,
                 pending=len(pending))
        for index in hit_indices:
            bus.emit("replayed", run=run_ids[index],
                     label=getattr(specs[index], "workload", "?"))
        for index in pending:
            bus.emit("scheduled", run=run_ids[index],
                     label=getattr(specs[index], "workload", "?"))
    if progress is not None:
        progress.bind(bus)
        progress.poll()

    def land(index, record, span):
        records[index] = record
        _journal_put(jrnl, keys, index, record)
        _record_event(record, _rid(run_ids, index), span)
        if progress is not None:
            progress.poll()

    try:
        with _signal_guard(jrnl):
            if jobs <= 1 or len(pending) <= 1:
                for index in pending:
                    land(index, execute_spec(
                        specs[index], _rid(run_ids, index), 1), 1)
            else:
                ladder = PoolLadder(min(jobs, len(pending)), timeout,
                                    retries)
                try:
                    asyncio.run(_drive(ladder, specs, pending, run_ids,
                                       land, progress))
                finally:
                    # interrupted mid-batch (e.g. SIGINT via the signal
                    # guard): terminate workers rather than leaking
                    # them, then let the journal drain below
                    ladder.close()
    finally:
        if jrnl is not None:
            jrnl.close()
        if bus is not None:
            bus.emit("campaign_end", cells=len(specs),
                     completed=sum(1 for r in records
                                   if r is not None))
        if progress is not None:
            progress.poll(force=True)
    return records


def aggregate_stats(records, deterministic=False):
    """One merged flat stats document over many records (see
    :func:`repro.obs.merge_flat`); ``deterministic=True`` strips the
    wall-clock gauges so serial and parallel aggregates compare
    byte-identical."""
    merged = merge_flat([r.stats for r in records])
    return deterministic_view(merged) if deterministic else merged


"""Process-pool execution of run batches (sweeps, campaigns, figures).

Everything the harness runs reduces to a list of picklable
:class:`RunSpec` points; :func:`run_specs` shards them across a
``ProcessPoolExecutor`` and returns their :class:`RunRecord` results
*in submission order* — the caller cannot observe scheduling. The
determinism contract (docs/PARALLEL.md): both engines are seed-driven
with no wall-clock input, so a record computed in a worker is
bit-identical (modulo the ``host.*`` wall-clock gauges) to one computed
serially, and ``tests/test_parallel_equivalence.py`` enforces it.

Degradation is graceful and total (docs/RESILIENCE.md): any pool-level
failure — fork/spawn refused by the OS, a spec or record that fails to
pickle, a worker blowing past the wall-clock watchdog, the pool dying
mid-flight — is retried with exponential backoff + jitter, survives a
``BrokenProcessPool`` by rebuilding the pool and requeueing whatever
was in flight, and finally falls back to executing the affected specs
serially in-process, so a parallel sweep can never produce fewer
results than a serial one. A spec whose serial fallback *also* raises
is quarantined (synthesized ``status="quarantined"`` record,
``failure_class="infra"``) instead of aborting the sweep; a spec that
times out again under the bounded serial retry becomes
``status="timeout"`` with its elapsed time instead of hanging forever.

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
serial-retry deadline ``REPRO_SERIAL_RETRY_TIMEOUT`` (max(watchdog,
60 s)).
"""

import os
import pickle
import random
import signal
import threading
import time
import warnings
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures import ProcessPoolExecutor
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

#: floor on the bounded serial-retry deadline (seconds)
SERIAL_RETRY_FLOOR = 60.0


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
    """The bounded serial retry gets its *own* deadline, never shorter
    than the pool watchdog and floored at 60 s (a 1 ms test watchdog
    must not condemn the serial path); ``REPRO_SERIAL_RETRY_TIMEOUT``
    overrides."""
    try:
        return float(os.environ.get(
            "REPRO_SERIAL_RETRY_TIMEOUT",
            max(deadline, SERIAL_RETRY_FLOOR)))
    except ValueError:
        return max(deadline, SERIAL_RETRY_FLOOR)


def _backoff_sleep(attempt):
    """Exponential backoff with jitter before resubmitting a spec
    (attempt 1 -> ~base, doubling, capped at 5 s)."""
    try:
        base = float(os.environ.get("REPRO_RETRY_BACKOFF", "0.05"))
    except ValueError:
        base = 0.05
    if base <= 0:
        return
    delay = min(base * (2 ** max(0, attempt - 1)), 5.0)
    time.sleep(delay * (0.5 + random.random() / 2))


def _pool(max_workers):
    """Prefer fork where the platform offers it (no re-import cost per
    worker; both engines are deterministic so inherited state is just
    a warm cache), fall back to the platform default otherwise."""
    import multiprocessing

    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return ProcessPoolExecutor(
                max_workers=max_workers,
                mp_context=multiprocessing.get_context("fork"))
    except (ValueError, OSError):
        pass
    return ProcessPoolExecutor(max_workers=max_workers)


def build_pool(max_workers):
    """Public pool factory for layers that keep a *persistent* pool
    across many requests (the :mod:`repro.service` scheduler) — same
    fork-preferring policy as :func:`run_specs`' internal pool."""
    return _pool(max_workers)


def abandon_pool(pool):
    """Public alias of the hung-pool teardown (terminate without
    joining) for external pool owners; see :func:`_abandon`."""
    _abandon(pool)


def default_worker_timeout():
    """The effective per-spec watchdog (``REPRO_WORKER_TIMEOUT`` or
    900 s) — exported so the service scheduler shares one knob with
    the sweep harness."""
    return _worker_timeout(None)


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


def _rid(run_ids, index):
    return None if run_ids is None else run_ids[index]


def _submit(pool, spec, run_id, span):
    """Submit one attempt; keeps the bare ``submit(fn, spec)`` shape
    when telemetry is off (test doubles stub exactly that)."""
    if run_id is None:
        return pool.submit(execute_spec, spec)
    return pool.submit(execute_spec, spec, run_id, span)


def _record_event(record, run_id, span):
    """The parent-side, authoritative completion event for a landed
    record: exactly one ``finished``/``failed`` per spec per
    invocation, however many attempts it took."""
    if run_id is None:
        return
    status = getattr(record, "status", None)
    if status is None and isinstance(record, dict):
        status = record.get("status")
    status = status if status is not None else "ok"
    telemetry.emit("failed" if status != "ok" else "finished",
                   run=run_id, span=span, status=str(status))


def _await_result(future, deadline, progress):
    """``future.result`` under the watchdog, polling the progress
    renderer while waiting so worker-side telemetry surfaces live."""
    if progress is None:
        return future.result(timeout=deadline)
    end = time.monotonic() + deadline
    while True:
        remaining = end - time.monotonic()
        try:
            return future.result(
                timeout=max(min(remaining, 0.2), 0.01))
        except FutureTimeout:
            progress.poll()
            if time.monotonic() >= end:
                raise


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


def run_specs(specs, jobs=None, timeout=None, journal=None,
              resume=False, retries=None, progress=None):
    """Execute ``specs`` and return their records in input order.

    ``jobs`` > 1 shards across a process pool; 1 (the default without
    ``REPRO_JOBS``) runs in-process. Every pool-level failure degrades
    — retry with backoff, pool rebuild, serial re-execution, and as a
    last resort a synthesized quarantine/timeout record — with a
    warning; the result list always has one entry per spec.

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
    try:
        with _signal_guard(jrnl):
            if jobs <= 1 or len(pending) <= 1:
                for index in pending:
                    records[index] = execute_spec(
                        specs[index], _rid(run_ids, index), 1)
                    _journal_put(jrnl, keys, index, records[index])
                    _record_event(records[index],
                                  _rid(run_ids, index), 1)
                    if progress is not None:
                        progress.poll()
            else:
                _run_pooled(specs, pending, records, jobs, timeout,
                            retries, jrnl, keys, run_ids, progress)
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


def _run_pooled(specs, pending, records, jobs, timeout, retries,
                jrnl, keys, run_ids=None, progress=None):
    """The pool path of :func:`run_specs`: fill ``records[pending]``."""
    try:
        pool = _pool(min(jobs, len(pending)))
        futures = {index: _submit(pool, specs[index],
                                  _rid(run_ids, index), 1)
                   for index in pending}
    except (pickle.PicklingError, TypeError, OSError) as exc:
        warnings.warn(f"process pool unavailable ({exc}); "
                      "running serially")
        for index in pending:
            records[index] = execute_spec(
                specs[index], _rid(run_ids, index), 1)
            _journal_put(jrnl, keys, index, records[index])
            _record_event(records[index], _rid(run_ids, index), 1)
        return

    deadline = _worker_timeout(timeout)
    retry_limit = _retry_limit(retries)
    attempts = {index: 1 for index in pending}
    timed_out = set()     # hung under the watchdog -> bounded retry
    serial_fill = set()   # pool gave up -> in-process execution
    hung = False
    reg = resilience()

    try:
        position = 0
        while position < len(pending):
            index = pending[position]
            if records[index] is not None or index in timed_out \
                    or index in serial_fill:
                position += 1
                continue
            spec = specs[index]
            try:
                record = _await_result(futures[index], deadline,
                                       progress)
            except FutureTimeout:
                # do NOT join this worker — abandon the pool below
                hung = True
                timed_out.add(index)
                warnings.warn(
                    f"worker exceeded the {deadline:.0f}s watchdog on "
                    f"{spec.workload}; re-running serially")
                continue
            except BrokenProcessPool as exc:
                # a worker died (SIGKILL, OOM). Blame the head-of-line
                # spec for attempt accounting, rebuild the pool, and
                # requeue everything still in flight.
                attempts[index] += 1
                if attempts[index] > retry_limit + 1:
                    warnings.warn(
                        f"pool failure on {spec.workload} "
                        f"(BrokenProcessPool x{attempts[index] - 1}); "
                        "re-running serially")
                    serial_fill.add(index)
                unfinished = [j for j in pending[position:]
                              if records[j] is None
                              and j not in timed_out
                              and j not in serial_fill]
                try:
                    pool.shutdown(wait=False, cancel_futures=True)
                except Exception:
                    pass
                if not unfinished:
                    continue
                try:
                    pool = _pool(min(jobs, len(unfinished)))
                    for j in unfinished:
                        futures[j] = _submit(pool, specs[j],
                                             _rid(run_ids, j),
                                             attempts[j])
                    reg.inc(REQUEUED, len(unfinished))
                    telemetry.emit("requeue", count=len(unfinished),
                                   error=f"{type(exc).__name__}: {exc}")
                    warnings.warn(
                        f"worker process died ({exc}); pool rebuilt, "
                        f"{len(unfinished)} spec(s) requeued")
                except Exception as rebuild_exc:
                    warnings.warn(
                        f"process pool unavailable after worker death "
                        f"({rebuild_exc}); re-running serially")
                    serial_fill.update(unfinished)
                continue
            except Exception as exc:
                # a worker raised / an unpicklable result: transient
                # until proven otherwise — bounded resubmission with
                # backoff, then the serial path.
                error = f"{type(exc).__name__}: {exc}"
                if attempts[index] <= retry_limit:
                    attempts[index] += 1
                    _backoff_sleep(attempts[index] - 1)
                    try:
                        futures[index] = _submit(
                            pool, spec, _rid(run_ids, index),
                            attempts[index])
                    except Exception:
                        pass
                    else:
                        reg.inc(RETRIES)
                        telemetry.emit("retry",
                                       run=_rid(run_ids, index),
                                       span=attempts[index],
                                       error=error)
                        warnings.warn(
                            f"pool failure on {spec.workload} ({error});"
                            f" retrying with backoff (attempt "
                            f"{attempts[index]}/{retry_limit + 1})")
                        continue
                warnings.warn(f"pool failure on {spec.workload} "
                              f"({error}); re-running serially")
                serial_fill.add(index)
                continue
            records[index] = record
            _journal_put(jrnl, keys, index, record)
            _record_event(record, _rid(run_ids, index),
                          attempts[index])
            if progress is not None:
                progress.poll()
            position += 1
    except BaseException:
        # interrupted mid-wait (e.g. SIGINT via the signal guard):
        # terminate workers rather than leaking them, then let the
        # journal drain in run_specs' finally
        _abandon(pool)
        raise

    if hung:
        _abandon(pool)
    else:
        try:
            pool.shutdown(wait=True)
        except Exception:
            pass

    for index in pending:
        if records[index] is not None:
            continue
        spec = specs[index]
        span = attempts[index] + 1
        try:
            if index in timed_out:
                records[index] = _serial_retry(
                    spec, deadline, reg, _rid(run_ids, index), span)
            else:
                records[index] = execute_spec(
                    spec, _rid(run_ids, index), span)
        except Exception as exc:
            records[index] = _quarantine(spec, attempts[index], exc,
                                         _rid(run_ids, index))
        _journal_put(jrnl, keys, index, records[index])
        _record_event(records[index], _rid(run_ids, index), span)
        if progress is not None:
            progress.poll()


def _serial_retry(spec, deadline, reg, run_id=None, span=None):
    """Bounded re-run of a spec whose pool worker hung: a fresh
    single-worker pool under its own deadline. A second timeout is
    recorded as ``status="timeout"`` with the elapsed time — a hung
    spec may cost two deadlines, never the whole sweep."""
    limit = _serial_retry_deadline(deadline)
    start = time.monotonic()
    try:
        retry_pool = _pool(1)
        future = _submit(retry_pool, spec, run_id, span)
    except Exception as exc:
        # no pool available: unbounded in-process degradation — the
        # engine's own cycle/liveness watchdogs still apply
        warnings.warn(f"serial-retry pool unavailable ({exc}); "
                      f"running {spec.workload} in-process")
        return execute_spec(spec, run_id, span)
    try:
        record = future.result(timeout=limit)
    except FutureTimeout:
        _abandon(retry_pool)
        elapsed = time.monotonic() - start
        reg.inc(TIMEOUTS)
        telemetry.emit("timeout", run=run_id, span=span,
                       elapsed=round(elapsed, 3), limit=limit)
        warnings.warn(
            f"{spec.workload} exceeded the {limit:.0f}s serial-retry "
            f"deadline too; recording status=timeout")
        record = _failure_record(
            spec, "timeout",
            f"serial retry exceeded {limit:.0f}s "
            f"(elapsed {elapsed:.1f}s)", "hang")
        if hasattr(record, "wall_seconds"):
            record.wall_seconds = elapsed
        return record
    except Exception:
        _abandon(retry_pool)
        return execute_spec(spec, run_id, span)
    retry_pool.shutdown(wait=True)
    return record


def _abandon(pool):
    """Tear down a pool with a hung worker without joining it (a
    ``shutdown(wait=True)`` — or interpreter exit — would block on the
    stuck process otherwise)."""
    procs = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in procs:
        try:
            proc.terminate()
        except Exception:
            pass


def aggregate_stats(records, deterministic=False):
    """One merged flat stats document over many records (see
    :func:`repro.obs.merge_flat`); ``deterministic=True`` strips the
    wall-clock gauges so serial and parallel aggregates compare
    byte-identical."""
    merged = merge_flat([r.stats for r in records])
    return deterministic_view(merged) if deterministic else merged


def prewarm(specs, jobs=None):
    """Warm the run caches for ``specs`` through the pool, dropping the
    records. Only worth the fork cost when a persistent disk cache is
    active (pool workers cannot seed the parent's in-memory cache) and
    more than one worker is available — otherwise a no-op.
    """
    from repro.harness import diskcache

    jobs = resolve_jobs(jobs)
    if jobs <= 1 or diskcache.active() is None:
        return 0
    pending = list(specs)
    run_specs(pending, jobs=jobs)
    return len(pending)

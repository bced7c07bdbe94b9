"""Job admission and execution for the run service.

:class:`JobScheduler` is the seam between the asyncio front door
(:mod:`repro.service.app`) and the synchronous harness:

* **Canonicalization** — request bodies become canonical
  :class:`RunSpec` objects via ``RunSpec.from_dict`` (a spec the
  machine cannot interpret is a ``ValueError``, HTTP 400, before any
  token is spent), named by :func:`repro.harness.journal.spec_key` —
  the one run key of the journal and both cache tiers — so a spec
  posted twice, in any spelling, has one identity. Keying builds the
  workload, so :meth:`JobScheduler.admit` keys off the event loop
  under the worker watchdog (past it: ``ValueError``, HTTP 400).
* **Dedup before work** — a key already in flight attaches the new
  request to the existing job (shared asyncio future: duplicate
  concurrent posts cost zero extra executions); a key already in the
  disk cache resolves immediately without queueing. Only the *local*
  cache tier is consulted on the submit path (the remote tier is a
  blocking HTTP probe — scheduled jobs retry it off-loop just before
  execution), and only ``status == "ok"`` records are served, the
  same read-side invariant ``runner.py`` enforces.
* **Admission control** — per-tenant :class:`TokenBucket` rate limits
  and a bounded round-robin :class:`FairQueue`; both reject with
  :class:`RejectedRequest` (HTTP 429 + Retry-After) instead of
  queueing unboundedly. Dedup and cache hits are checked *first*:
  they consume no worker, so they spend no tokens. Queue capacity is
  probed *before* the token bucket, so a bounce off a full queue
  costs the tenant nothing on retry.
* **Pool bridge** — admitted jobs run through a persistent process
  pool (``repro.harness.parallel.build_pool``) via
  ``loop.run_in_executor``, with the PR-6 degradation ladder
  reimplemented for a long-lived pool: a ``BrokenProcessPool``
  (worker SIGKILL, OOM) rebuilds the pool once per failure generation
  and resubmits the in-flight jobs (``requeue`` telemetry +
  ``harness.requeued``); a worker exception is retried with backoff
  (``retry`` + ``harness.retries``); a watchdog timeout abandons the
  hung pool and synthesizes a ``timeout`` record; exhausted retries
  fall back to an in-process thread execution, and a spec that fails
  *there too* is quarantined (``status="quarantined"``) — a request
  can degrade, never 500.

``inline=True`` swaps the process pool for a thread pool (no fork
cost; the degradation ladder still applies minus worker death), which
is what the fast tests use.
"""

import asyncio
import dataclasses
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.harness.journal import spec_key
from repro.harness.parallel import (
    abandon_pool,
    build_pool,
    default_worker_timeout,
    execute_spec,
)
from repro.harness.runner import RunSpec
from repro.obs import telemetry
from repro.obs.resilience import (
    QUARANTINED,
    REQUEUED,
    RETRIES,
    TIMEOUTS,
    resilience,
)
from repro.service.tenancy import FairQueue, TokenBucket


class RejectedRequest(Exception):
    """Admission control refused the request (mapped to HTTP 429)."""

    def __init__(self, reason, retry_after=None):
        super().__init__(reason)
        self.reason = reason
        self.retry_after = retry_after


class Job:
    """One admitted run request; duplicates share the same instance
    (and therefore the same asyncio future)."""

    __slots__ = ("spec", "key", "run_id", "tenant", "future", "state",
                 "sharers", "attempts")

    def __init__(self, spec, key, tenant, future):
        self.spec = spec
        self.key = key
        self.run_id = key[:12]   # run_specs' telemetry identity rule
        self.tenant = tenant
        self.future = future
        self.state = "queued"    # queued -> running -> done
        self.sharers = 1
        self.attempts = 0


class JobScheduler:
    """Admission + fair dispatch onto a persistent worker pool."""

    def __init__(self, workers=2, cache=None, rate=None, burst=None,
                 queue_depth=64, timeout=None, retries=1,
                 backoff=0.05, inline=False):
        self.workers = max(1, int(workers))
        self.cache = cache
        self.rate = rate                       # tokens/sec; None = off
        self.burst = burst if burst is not None \
            else max(2.0 * (rate or 0.0), 4.0)
        self.timeout = timeout if timeout is not None \
            else default_worker_timeout()
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.inline = inline
        # counters surfaced on /metrics (service.* namespace)
        self.requests = 0
        self.executions = 0      # jobs dispatched to a worker
        self.dedup_shared = 0    # requests attached to an in-flight job
        self.cache_immediate = 0  # requests satisfied straight from cache
        self.cache_stale = 0     # cached non-ok records skipped on read
        self.rejected_rate = 0
        self.rejected_depth = 0
        self.completed = 0
        self.failed = 0
        # keying threads: bounded, so concurrent slow builds cannot
        # crowd the event loop's own thread off the interpreter
        self._keyer = ThreadPoolExecutor(max_workers=self.workers,
                                         thread_name_prefix="repro-key")
        self._queue = FairQueue(depth=queue_depth)
        self._buckets = {}       # tenant -> TokenBucket
        self._inflight = {}      # key -> Job
        self._active = 0
        self._generation = 0     # pool incarnation (rebuild guard)
        self._loop = None
        self._pool = None
        self._wake = None
        self._dispatcher = None
        self._closed = False

    # ------------------------------------------------------- lifecycle

    def start(self, loop):
        """Bind to the running event loop and start dispatching."""
        self._loop = loop
        self._pool = self._build_pool()
        self._wake = asyncio.Event()
        self._dispatcher = loop.create_task(self._dispatch(),
                                            name="repro-dispatch")
        return self

    def _build_pool(self):
        if self.inline:
            return ThreadPoolExecutor(max_workers=self.workers,
                                      thread_name_prefix="repro-job")
        return build_pool(self.workers)

    async def aclose(self):
        self._closed = True
        if self._wake is not None:
            self._wake.set()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):
                pass
        for job in list(self._inflight.values()):
            if not job.future.done():
                job.future.set_exception(
                    RuntimeError("service shutting down"))
        self._inflight.clear()
        self._keyer.shutdown(wait=False, cancel_futures=True)
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    # ------------------------------------------------------- admission

    def _bucket(self, tenant):
        if self.rate is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst)
            self._buckets[tenant] = bucket
        return bucket

    @staticmethod
    def canonical(doc):
        """``(spec, spec_key(spec))``; builds the workload (memoized)."""
        spec = RunSpec.from_dict(doc)
        return spec, spec_key(spec)

    async def admit(self, doc, tenant="anon"):
        """:meth:`submit` for coroutines: the spec is canonicalized and
        keyed on the keying executor, bounded by the worker watchdog,
        so a slow workload build never blocks the event loop. A build
        that outlasts the watchdog raises ``ValueError``."""
        self.requests += 1
        keying = self._loop.run_in_executor(self._keyer, self.canonical,
                                            doc)
        try:
            spec, key = await asyncio.wait_for(keying, self.timeout)
        except asyncio.TimeoutError:
            raise ValueError(
                f"building the workload to key this spec exceeded the "
                f"{self.timeout:g}s service watchdog") from None
        return self._admit(spec, key, tenant)

    def submit(self, doc, tenant="anon"):
        """Admit one JSON-shaped spec from ``tenant``.

        Returns ``(job, outcome)`` with outcome one of ``"scheduled"``
        (fresh work), ``"deduped"`` (attached to an identical in-flight
        job) or ``"cached"`` (already-resolved future). Raises
        ``ValueError`` for a malformed spec and
        :class:`RejectedRequest` when admission control says no.
        Must be called on the event-loop thread, and keys the spec
        inline (a workload build) — coroutines use :meth:`admit`."""
        self.requests += 1
        return self._admit(*self.canonical(doc), tenant)

    def _admit(self, spec, key, tenant):
        shared = self._inflight.get(key)
        if shared is not None:
            self.dedup_shared += 1
            shared.sharers += 1
            return shared, "deduped"
        if self.cache is not None:
            # local tier only: the remote probe is a blocking HTTP
            # fetch, so scheduled jobs retry the peer off-loop in
            # _run_job instead of stalling every connection here
            record = self.cache.get(key, remote=False)
            if record is not None:
                # mirror runner.py's read-side invariant: only an
                # "ok" record is trusted — a persisted failure (old
                # writer, poisoned peer) must not short-circuit a
                # fresh attempt
                if self._status(record) != "ok":
                    self.cache_stale += 1
                else:
                    self.cache_immediate += 1
                    future = self._loop.create_future()
                    job = Job(spec, key, tenant, future)
                    job.state = "done"
                    future.set_result(record)
                    return job, "cached"
        # capacity before tokens: a bounce off a full queue admits no
        # work, so it must not also drain the tenant's rate budget
        if self._queue.full(tenant):
            self.rejected_depth += 1
            raise RejectedRequest(
                f"tenant {tenant!r} queue is full "
                f"({self._queue.depth} pending)", retry_after=1.0)
        bucket = self._bucket(tenant)
        if bucket is not None and not bucket.try_acquire():
            self.rejected_rate += 1
            raise RejectedRequest(
                f"tenant {tenant!r} exceeded {self.rate:g} runs/s",
                retry_after=bucket.retry_after())
        job = Job(spec, key, tenant, self._loop.create_future())
        pushed = self._queue.push(tenant, job)
        assert pushed, "no await since full(), so the job fits"
        self._inflight[key] = job
        telemetry.emit("scheduled", run=job.run_id,
                       label=spec.workload)
        self._wake.set()
        return job, "scheduled"

    # -------------------------------------------------------- dispatch

    async def _dispatch(self):
        while not self._closed:
            await self._wake.wait()
            self._wake.clear()
            while self._active < self.workers:
                job = self._queue.pop()
                if job is None:
                    break
                self._active += 1
                self._loop.create_task(self._run_job(job))

    async def _run_job(self, job):
        job.state = "running"
        record = await self._remote_lookup(job)
        executed = record is None
        if executed:
            self.executions += 1
            try:
                record = await self._execute(job)
            except Exception as exc:
                record = self._quarantine(job, exc)
        job.state = "done"
        self._inflight.pop(job.key, None)
        status = self._status(record)
        # never cache failed or truncated records (runner.py's write
        # invariant): a transient timeout or worker crash must not be
        # served "cached" to every later post of this spec — or worse,
        # spread to peers through the /v1/cache remote tier
        if executed and status == "ok" and self.cache is not None \
                and dataclasses.is_dataclass(record) \
                and not isinstance(record, type):
            self.cache.put(job.key, record)
        telemetry.emit("failed" if status != "ok" else "finished",
                       run=job.run_id, span=job.attempts,
                       status=status)
        if status == "ok":
            self.completed += 1
        else:
            self.failed += 1
        if not job.future.done():
            job.future.set_result(record)
        self._active -= 1
        self._wake.set()

    async def _remote_lookup(self, job):
        """Retry the cache's remote tier off-loop before paying for an
        execution. ``submit`` checked only the local tier (a blocking
        HTTP probe would stall the event loop — every connection,
        heartbeat and /metrics — for up to ``remote_timeout`` per
        miss, worst exactly when the peer is down), so scheduled jobs
        probe the peer here, on an executor thread. Only an "ok"
        record is trusted; anything else falls through to a fresh
        execution."""
        if self.cache is None or not self.cache.remote:
            return None
        try:
            record = await self._loop.run_in_executor(
                None, self.cache.remote_probe, job.key)
        except Exception:
            return None
        if record is None or self._status(record) != "ok":
            return None
        return record

    async def _execute(self, job):
        """The degradation ladder for one job (never raises except for
        truly unexpected host errors — those quarantine upstream)."""
        while True:
            job.attempts += 1
            generation = self._generation
            future = self._loop.run_in_executor(
                self._pool, execute_spec, job.spec, job.run_id,
                job.attempts)
            try:
                return await asyncio.wait_for(future, self.timeout)
            except asyncio.TimeoutError:
                # the worker is hung: abandon the whole pool (joining
                # would block on the stuck process) and rebuild
                self._rebuild(generation, "watchdog timeout",
                              abandon=True)
                resilience().inc(TIMEOUTS)
                telemetry.emit("timeout", run=job.run_id,
                               span=job.attempts, limit=self.timeout)
                return job.spec.failure_record(
                    "timeout",
                    f"exceeded the {self.timeout:.0f}s service "
                    f"watchdog", "hang")
            except BrokenProcessPool as exc:
                # a worker died (SIGKILL, OOM): rebuild once per
                # failure generation, then resubmit this job
                self._rebuild(generation,
                              f"{type(exc).__name__}: {exc}")
                if job.attempts <= self.retries + 1:
                    continue
                return await self._serial(job)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                if job.attempts <= self.retries:
                    resilience().inc(RETRIES)
                    telemetry.emit("retry", run=job.run_id,
                                   span=job.attempts + 1, error=error)
                    await asyncio.sleep(self.backoff * job.attempts)
                    continue
                return await self._serial(job)

    async def _serial(self, job):
        """Last resort before quarantine: execute on a plain thread
        (never on the event loop — a simulation would stall every
        other connection)."""
        job.attempts += 1
        return await self._loop.run_in_executor(
            None, execute_spec, job.spec, job.run_id, job.attempts)

    def _rebuild(self, generation, error, abandon=False):
        """Replace the pool, at most once per failure generation — when
        a dying worker breaks N in-flight futures, N tasks race here
        and only the first rebuilds (the rest resubmit onto its new
        pool)."""
        if generation != self._generation or self._closed:
            return
        self._generation += 1
        old = self._pool
        self._pool = self._build_pool()
        if abandon:
            abandon_pool(old)
        else:
            try:
                old.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        requeued = max(self._active, 1)
        resilience().inc(REQUEUED, requeued)
        telemetry.emit("requeue", count=requeued, error=str(error))

    def _quarantine(self, job, exc):
        resilience().inc(QUARANTINED)
        error = f"{type(exc).__name__}: {exc}"
        telemetry.emit("quarantine", run=job.run_id,
                       span=job.attempts, error=error)
        return job.spec.failure_record("quarantined", error, "infra")

    # ----------------------------------------------------------- stats

    @staticmethod
    def _status(record):
        status = getattr(record, "status", None)
        if status is None and isinstance(record, dict):
            status = record.get("status")
        return str(status) if status is not None else "ok"

    def snapshot(self):
        """Flat counters for the ``/metrics`` exposition."""
        return {
            "service.requests": self.requests,
            "service.executions": self.executions,
            "service.dedup.shared": self.dedup_shared,
            "service.cache.immediate": self.cache_immediate,
            "service.cache.stale_skips": self.cache_stale,
            "service.rejected.rate": self.rejected_rate,
            "service.rejected.depth": self.rejected_depth,
            "service.completed": self.completed,
            "service.failed": self.failed,
            "service.queue.depth": len(self._queue),
            "service.active": self._active,
            "service.pool.generation": self._generation,
        }

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
* **Pool bridge** — an admitted job awaits
  :class:`repro.harness.parallel.PoolLadder`, the one degradation
  ladder :func:`run_specs` also drives (docs/RESILIENCE.md §3): retry
  with backoff, pool rebuild + requeue on worker death, abandon + one
  bounded retry on a hang, in-process fallback, quarantine — a request
  can degrade, never 500. :meth:`JobScheduler.aclose` abandons the
  pool, so shutdown never waits on a simulation in flight.

``inline=True`` swaps the process pool for a thread pool (no fork
cost; the degradation ladder still applies minus worker death), which
is what the fast tests use.
"""

import asyncio
import dataclasses
from concurrent.futures import ThreadPoolExecutor

from repro.harness.journal import spec_key
from repro.harness.parallel import PoolLadder, record_status
from repro.harness.runner import RunSpec
from repro.obs import telemetry
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
                 queue_depth=64, timeout=None, retries=None,
                 inline=False):
        self.workers = max(1, int(workers))
        self.cache = cache
        self.rate = rate                       # tokens/sec; None = off
        self.burst = burst if burst is not None \
            else max(2.0 * (rate or 0.0), 4.0)
        self.ladder = PoolLadder(self.workers, timeout=timeout,
                                 retries=retries, inline=inline)
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
        self._tasks = set()      # _run_job tasks (cancelled on close)
        self._loop = None
        self._wake = None
        self._dispatcher = None
        self._closed = False

    # ------------------------------------------------------- lifecycle

    def start(self, loop):
        """Bind to the running event loop and start dispatching."""
        self._loop = loop
        self._wake = asyncio.Event()
        self._dispatcher = loop.create_task(self._dispatch(),
                                            name="repro-dispatch")
        return self

    async def aclose(self):
        """Stop dispatching, fail every open job, and abandon the pool:
        its workers are terminated, never joined, so shutdown does not
        wait on the simulations still in flight."""
        self._closed = True
        if self._wake is not None:
            self._wake.set()
        tasks = [t for t in (self._dispatcher, *self._tasks) if t]
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for job in list(self._inflight.values()):
            if not job.future.done():
                job.future.set_exception(
                    RuntimeError("service shutting down"))
        self._inflight.clear()
        self._keyer.shutdown(wait=False, cancel_futures=True)
        self.ladder.close()

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
            spec, key = await asyncio.wait_for(keying,
                                               self.ladder.timeout)
        except asyncio.TimeoutError:
            raise ValueError(
                f"building the workload to key this spec exceeded the "
                f"{self.ladder.timeout:g}s service watchdog") from None
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
                if record_status(record) != "ok":
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
                task = self._loop.create_task(self._run_job(job))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)

    async def _run_job(self, job):
        job.state = "running"
        record = await self._remote_lookup(job)
        executed = record is None
        if executed:
            self.executions += 1
            record, job.attempts = await self.ladder.run(job.spec,
                                                         job.run_id)
        job.state = "done"
        self._inflight.pop(job.key, None)
        status = record_status(record)
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
        if record is None or record_status(record) != "ok":
            return None
        return record

    # ----------------------------------------------------------- stats

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
            "service.pool.generation": self.ladder.generation,
        }

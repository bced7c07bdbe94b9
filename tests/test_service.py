"""The run service: admission, dedup, equivalence, degradation.

Covers the docs/SERVICE.md contract end to end over real HTTP (a
:func:`serve_in_thread` instance per test class):

* tenancy primitives (token bucket with an injectable clock, fair
  round-robin queue with a depth bound)
* service-level equivalence — a record obtained through ``POST
  /v1/runs`` is byte-identical (deterministic stats view) to the same
  spec executed locally through ``run_specs``
* duplicate concurrent posts share one execution (asserted three
  ways: ``cache.writes``, the scheduler's execution counter, and the
  count of ``started`` telemetry events)
* cache read-through (second post is ``cached``), the ``/v1/cache``
  remote tier, and the remote read-through :class:`DiskCache`
* admission control: per-tenant 429s with ``Retry-After``, queue
  depth bounds
* worker SIGKILL mid-request degrades to a rebuilt pool and a
  successful response — never a 500; a hung run ends in a ``timeout``
  record, a missing pool in an in-process run, and shutdown abandons
  the workers still simulating
"""

import json
import os
import signal
import threading
import time
import warnings

import pytest

from repro.harness import clear_cache, diskcache, parallel, run_specs
from repro.obs import deterministic_view, telemetry
from repro.obs.resilience import (
    TIMEOUTS,
    reset_resilience,
    resilience_snapshot,
)
from repro.service import (
    FairQueue,
    JobScheduler,
    RejectedRequest,
    ServiceClient,
    ServiceError,
    TokenBucket,
    serve_in_thread,
)

from repro.asm import assemble
from repro.workloads.base import Workload, WorkloadInstance
from repro.workloads.registry import RODINIA_WORKLOADS

from tests.test_diskcache import (  # noqa: F401 (fixture)
    SRC_V1,
    SRC_V2,
    _register,
    editable_workload,
)

SPEC = {"machine": "diag", "workload": "nn", "config": "F4C2",
        "scale": 0.2}

#: a run that simulates for well over ten seconds
SLOW_SPEC = {"machine": "diag", "workload": "mcf", "scale": 4}


@pytest.fixture(autouse=True)
def isolated(tmp_path):
    """Fresh telemetry stream, no ambient disk cache, cold caches."""
    telemetry.reset()
    diskcache.configure(None)
    reset_resilience()
    clear_cache()
    telemetry.configure(path=tmp_path / "telemetry.jsonl")
    yield
    telemetry.reset()
    diskcache.reset()
    reset_resilience()
    clear_cache()


def start_service(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("inline", True)
    kwargs.setdefault("stream_interval", 0.05)
    if "cache" not in kwargs:
        kwargs["cache"] = diskcache.DiskCache(tmp_path / "svc-cache")
    handle = serve_in_thread(**kwargs)
    return handle, ServiceClient(handle.url)


# =====================================================================
# Tenancy primitives
# =====================================================================

class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: now[0])
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(1.0)
        now[0] = 0.5
        assert not bucket.try_acquire()
        now[0] = 1.0
        assert bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=3, clock=lambda: now[0])
        now[0] = 100.0
        assert bucket.try_acquire(3)
        assert not bucket.try_acquire()

    def test_zero_rate_never_refills(self):
        now = [0.0]
        bucket = TokenBucket(rate=0.0, burst=1, clock=lambda: now[0])
        assert bucket.try_acquire()
        now[0] = 1e9
        assert not bucket.try_acquire()
        assert bucket.retry_after() == float("inf")


class TestFairQueue:
    def test_round_robin_across_tenants(self):
        queue = FairQueue(depth=8)
        for item in ("a1", "a2", "a3"):
            queue.push("a", item)
        queue.push("b", "b1")
        queue.push("c", "c1")
        # tenant a cannot starve b and c: one item each per rotation
        assert [queue.pop() for _ in range(5)] == \
            ["a1", "b1", "c1", "a2", "a3"]
        assert queue.pop() is None
        assert len(queue) == 0

    def test_depth_bound_is_per_tenant(self):
        queue = FairQueue(depth=2)
        assert queue.push("a", 1)
        assert queue.push("a", 2)
        assert not queue.push("a", 3)   # a is full...
        assert queue.push("b", 1)       # ...b is not
        assert queue.depth_of("a") == 2
        assert len(queue) == 3

    def test_drained_tenant_leaves_rotation(self):
        queue = FairQueue()
        queue.push("a", 1)
        assert queue.pop() == 1
        assert "a" not in queue._queues
        queue.push("a", 2)   # re-registering is fine
        assert queue.pop() == 2


class TestSchedulerAdmission:
    """Unit-level admission checks (no HTTP, no dispatcher running —
    submissions just land in the fair queue)."""

    def test_queue_depth_rejects(self):
        import asyncio

        async def main():
            sched = JobScheduler(workers=1, queue_depth=2)
            sched._loop = asyncio.get_running_loop()
            sched._wake = asyncio.Event()
            for scale in (0.1, 0.2):
                sched.submit(dict(SPEC, scale=scale), tenant="t")
            with pytest.raises(RejectedRequest) as err:
                sched.submit(dict(SPEC, scale=0.3), tenant="t")
            assert "queue is full" in str(err.value)
            assert sched.rejected_depth == 1
            # a different tenant still gets in (per-tenant bound)
            job, outcome = sched.submit(dict(SPEC, scale=0.3),
                                        tenant="u")
            assert outcome == "scheduled"

        asyncio.run(main())

    def test_rate_limit_rejects_fresh_work_only(self):
        import asyncio

        async def main():
            sched = JobScheduler(workers=1, rate=0.0001, burst=1)
            sched._loop = asyncio.get_running_loop()
            sched._wake = asyncio.Event()
            job, outcome = sched.submit(SPEC, tenant="t")
            assert outcome == "scheduled"
            # an identical duplicate is deduped, not rate-limited —
            # it consumes no worker, so it spends no tokens
            dup, outcome2 = sched.submit(SPEC, tenant="t")
            assert outcome2 == "deduped" and dup is job
            with pytest.raises(RejectedRequest) as err:
                sched.submit(dict(SPEC, scale=0.3), tenant="t")
            assert err.value.retry_after > 0
            assert sched.rejected_rate == 1

        asyncio.run(main())

    def test_depth_rejection_does_not_charge_tokens(self):
        """Bouncing off a full queue admits no work, so it must not
        also drain the tenant's rate budget (capacity is probed
        before the bucket)."""
        import asyncio

        async def main():
            # rate=0: tokens never refill, so the count is exact
            sched = JobScheduler(workers=1, rate=0.0, burst=5,
                                 queue_depth=1)
            sched._loop = asyncio.get_running_loop()
            sched._wake = asyncio.Event()
            sched.submit(SPEC, tenant="t")
            assert sched._buckets["t"].tokens == 4
            for _ in range(3):
                with pytest.raises(RejectedRequest):
                    sched.submit(dict(SPEC, scale=0.3), tenant="t")
            assert sched.rejected_depth == 3
            assert sched.rejected_rate == 0
            # the three bounces cost nothing
            assert sched._buckets["t"].tokens == 4

        asyncio.run(main())

    def test_malformed_specs_raise_value_error(self):
        import asyncio

        async def main():
            sched = JobScheduler(workers=1)
            sched._loop = asyncio.get_running_loop()
            sched._wake = asyncio.Event()
            with pytest.raises(ValueError):
                sched.submit(dict(SPEC, bogus=1))
            with pytest.raises(ValueError):
                sched.submit(["not", "a", "spec"])
            with pytest.raises(ValueError):
                sched.submit(dict(SPEC, machine="quantum"))
            # specs the machine cannot interpret fail at admission, not
            # in a worker: an unknown preset, an unknown knob
            with pytest.raises(ValueError):
                sched.submit(dict(SPEC, config="F4C3"))
            with pytest.raises(ValueError):
                sched.submit(dict(SPEC,
                                  config_overrides={"num_clustres": 4}))
            assert sched.requests == 5 and not sched._inflight

        asyncio.run(main())


# =====================================================================
# End-to-end over HTTP
# =====================================================================

class TestServiceBasics:
    def test_health_routes_and_errors(self, tmp_path):
        handle, client = start_service(tmp_path)
        try:
            health = client.health()
            assert health["status"] == "ok"
            assert health["service.requests"] == 0
            with pytest.raises(ServiceError) as err:
                client._get_json("/nope")
            assert err.value.status == 404
            # malformed body and unknown spec fields are 400s
            with pytest.raises(ServiceError) as err:
                client.run({"machine": "diag", "workload": "nn",
                            "bogus": 1})
            assert err.value.status == 400
            assert "bogus" in err.value.reason
            # an unknown preset is a 400 too, before any execution
            with pytest.raises(ServiceError) as err:
                client.run({"machine": "diag", "workload": "nn",
                            "config": "F4C3"})
            assert err.value.status == 400
            assert "F4C3" in err.value.reason
            assert handle.service.scheduler.executions == 0
        finally:
            handle.close()

    def test_streaming_protocol_shape(self, tmp_path):
        handle, client = start_service(tmp_path, stream_interval=0.01)
        try:
            seen = []
            outcome = client.run(SPEC, on_event=seen.append)
            kinds = [e["event"] for e in outcome.events]
            assert kinds[0] == "queued"
            assert kinds[-1] == "result"
            assert seen == outcome.events
            queued = outcome.events[0]
            assert queued["outcome"] == "scheduled"
            assert queued["key"] == outcome.key
            assert len(queued["key"]) == 64
            # a ~1s simulation at a 10ms heartbeat must have streamed
            # progress, and progress lines carry the campaign fold
            progress = outcome.progress_events()
            assert progress
            assert "busy_workers" in progress[0]["stats"]
            assert outcome.status == "ok"
            assert outcome.record["workload"] == "nn"
        finally:
            handle.close()


class TestEquivalence:
    def test_service_record_matches_local_run(self, tmp_path):
        """The service is a transport, not a different engine: the
        deterministic stats view of a served record is byte-identical
        to a local ``run_specs`` execution of the same spec."""
        from repro.harness import RunSpec

        handle, client = start_service(tmp_path)
        try:
            served = client.run(SPEC).record
        finally:
            handle.close()
        clear_cache()
        local = run_specs([RunSpec.from_dict(SPEC)])[0]
        served_bytes = json.dumps(
            deterministic_view(served["stats"]), sort_keys=True)
        local_bytes = json.dumps(
            deterministic_view(local.stats), sort_keys=True)
        assert served_bytes == local_bytes
        assert served["status"] == local.status
        assert served["cycles"] == local.cycles


class TestDedupAndCache:
    def _storm(self, directory, specs):
        """Six simultaneous posts cycling through ``specs``; returns
        the outcomes, the service handle, its cache and the number of
        executions the telemetry stream saw start."""
        cache = diskcache.DiskCache(directory / "svc-cache")
        handle, client = start_service(directory, cache=cache)
        outs = [None] * 6
        try:
            def post(i):
                outs[i] = client.run(specs[i % len(specs)],
                                     tenant=f"t{i % 3}")

            threads = [threading.Thread(target=post, args=(i,))
                       for i in range(len(outs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            handle.close()
        events = telemetry.read_events(handle.service.bus.path)
        keys = {o.key[:12] for o in outs}
        started = sum(1 for e in events
                      if e["ev"] == "started" and e.get("run") in keys)
        return outs, handle, cache, started

    def test_concurrent_duplicates_execute_once(self, tmp_path):
        # one spec posted six times, then one run spelled two ways —
        # a bare body and the fully spelled-out ``RunSpec.diag`` (its
        # default preset filled in) — which must share one key
        storms = {
            "identical": ({"machine": "diag", "workload": "hotspot",
                           "config": "F4C2", "scale": 0.2},),
            "bare-vs-spelled": (
                {"machine": "diag", "workload": "pathfinder",
                 "scale": 0.1},
                {"machine": "diag", "workload": "pathfinder",
                 "config": "F4C32", "scale": 0.1, "threads": 1,
                 "simt": False, "max_cycles": None,
                 "config_overrides": []}),
        }
        for name, specs in storms.items():
            outs, handle, cache, started = self._storm(
                tmp_path / name, specs)
            outcomes = sorted(o.outcome for o in outs)
            assert outcomes.count("scheduled") == 1, name
            assert all(o in ("scheduled", "deduped", "cached")
                       for o in outcomes)
            assert len({o.key for o in outs}) == 1, name
            # executed exactly once — by every measure we have
            assert cache.writes == 1, name
            assert handle.service.scheduler.executions == 1, name
            assert started == 1, name
            # and everyone got the same bytes back
            views = {json.dumps(deterministic_view(o.record["stats"]),
                                sort_keys=True) for o in outs}
            assert len(views) == 1, name

    def test_repeat_is_cached_and_metered(self, tmp_path):
        cache = diskcache.DiskCache(tmp_path / "svc-cache")
        handle, client = start_service(tmp_path, cache=cache)
        try:
            first = client.run(SPEC)
            second = client.run(SPEC)
            assert first.outcome == "scheduled"
            assert second.outcome == "cached"
            assert second.record["stats"] == first.record["stats"]
            assert cache.writes == 1 and cache.hits == 1
            metrics = client.metrics()
            assert "repro_service_cache_hit_ratio 0.5" in metrics
            assert "repro_service_executions 1" in metrics
            assert "repro_service_requests 2" in metrics
            # the campaign fold is in the same exposition
            assert "repro_campaign_workers_busy" in metrics
            assert "repro_harness_retries" in metrics
        finally:
            handle.close()

    def test_cache_endpoint_serves_verbatim_entries(self, tmp_path):
        cache = diskcache.DiskCache(tmp_path / "svc-cache")
        handle, client = start_service(tmp_path, cache=cache)
        try:
            out = client.run(SPEC)
            raw = client.cache_entry(out.key)
            assert raw is not None
            assert raw == cache.raw_entry(out.key)
            assert json.loads(raw)["key"] == out.key
            assert client.cache_entry("ab" * 32) is None  # miss -> 404
            with pytest.raises(ServiceError) as err:
                client.cache_entry("not-a-key")
            assert err.value.status == 400
        finally:
            handle.close()


class TestOneRunKey:
    """The service names a run by the same key as both cache tiers and
    the journal — ``spec_key``, which covers the program bytes."""

    def test_edited_workload_is_re_executed(self, tmp_path,
                                            editable_workload):
        """Re-posting a workload edited in place must execute the new
        program, not serve the old record under the old spec key."""
        handle, client = start_service(tmp_path)
        spec = {"machine": "diag", "workload": "_editable",
                "config": "F4C2"}
        try:
            _register(SRC_V1)
            v1 = client.run(spec)
            _register(SRC_V2)
            v2 = client.run(spec)
        finally:
            handle.close()
        assert v1.status == v2.status == "ok"
        assert v1.record["instructions"] == 4
        assert v2.outcome == "scheduled"
        assert v2.record["instructions"] == 6
        assert v2.key != v1.key

    def test_one_execution_writes_one_entry(self, tmp_path):
        """Against the process-wide cache, the worker's write-through
        and the scheduler's write land on one entry, not two."""
        cache = diskcache.configure(tmp_path / "process-cache")
        handle, client = start_service(tmp_path, cache=None)
        try:
            out = client.run(SPEC)
            again = client.run(SPEC)
        finally:
            handle.close()
        assert handle.service.cache is cache
        assert out.status == "ok" and again.outcome == "cached"
        assert cache.stats()["entries"] == 1
        assert cache.raw_entry(out.key) is not None
        assert handle.service.scheduler.executions == 1


@pytest.fixture
def slow_build():
    """A workload whose build blocks until the yielded event is set
    (keying a spec builds its workload: the key covers the program)."""
    gate = threading.Event()

    class _SlowBuild(Workload):
        NAME = "_slow_build"
        SUITE = "rodinia"
        MT_CAPABLE = False

        def build(self, scale=1.0, threads=1, simt=False, seed=1234):
            gate.wait(10)
            return WorkloadInstance(name=self.NAME,
                                    program=assemble(SRC_V1),
                                    setup=lambda memory: None,
                                    verify=lambda memory: True)

    RODINIA_WORKLOADS[_SlowBuild.NAME] = _SlowBuild
    yield gate
    gate.set()
    RODINIA_WORKLOADS.pop(_SlowBuild.NAME, None)
    clear_cache()


class TestKeyingOffLoop:
    """Keying a post builds its workload; that happens on the keying
    executor, so a slow build never stalls the event loop."""

    SPEC = {"machine": "diag", "workload": "_slow_build",
            "config": "F4C2"}

    def test_health_answers_while_a_post_is_keyed(self, tmp_path,
                                                  slow_build):
        handle, client = start_service(tmp_path)
        outcomes = []
        poster = threading.Thread(
            target=lambda: outcomes.append(client.run(self.SPEC)))
        try:
            poster.start()
            deadline = time.time() + 5
            while handle.service.scheduler.requests < 1:
                assert time.time() < deadline
                time.sleep(0.01)
            start = time.time()
            health = client.health()
            elapsed = time.time() - start
            assert poster.is_alive()   # the post is still being keyed
            assert health["status"] == "ok"
            assert elapsed < 2.0
            slow_build.set()
            poster.join(30)
        finally:
            slow_build.set()
            handle.close()
        assert outcomes and outcomes[0].status == "ok"
        assert outcomes[0].record["instructions"] == 4

    def test_build_past_the_watchdog_is_a_400(self, tmp_path,
                                              slow_build):
        handle, client = start_service(tmp_path, timeout=0.3)
        try:
            with pytest.raises(ServiceError) as err:
                client.run(self.SPEC)
            assert err.value.status == 400
            assert "watchdog" in err.value.reason
            assert client.health()["status"] == "ok"
            assert handle.service.scheduler.executions == 0
        finally:
            slow_build.set()
            handle.close()


class TestFailureRecordInvariant:
    """runner.py's cache invariant holds through the service: failure
    records are never written under a spec's content-hash key, and a
    persisted failure (old writer, poisoned peer) is never served."""

    def test_stale_failure_record_is_not_served(self, tmp_path):
        import asyncio

        from repro.harness import RunSpec
        from repro.harness.journal import spec_key

        async def main():
            cache = diskcache.DiskCache(tmp_path / "poisoned")
            spec = RunSpec.from_dict(SPEC)
            key = spec_key(spec)
            assert cache.put(key, spec.failure_record(
                "timeout", "exceeded watchdog", "hang"))
            sched = JobScheduler(workers=1, cache=cache)
            sched._loop = asyncio.get_running_loop()
            sched._wake = asyncio.Event()
            job, outcome = sched.submit(SPEC, tenant="t")
            # a fresh attempt, not the stale failure "cached" forever
            assert outcome == "scheduled"
            assert sched.cache_immediate == 0
            assert sched.cache_stale == 1
            assert "service.cache.stale_skips" in sched.snapshot()

        asyncio.run(main())

    def test_failure_records_are_never_cached(self, tmp_path):
        import asyncio

        async def main():
            cache = diskcache.DiskCache(tmp_path / "svc-cache")
            sched = JobScheduler(workers=1, cache=cache, inline=True)
            sched.start(asyncio.get_running_loop())
            try:
                # every execution "times out" (transient infra, not a
                # property of the spec)
                async def fake_run(spec, run_id=None):
                    return spec.failure_record(
                        "timeout", "synthetic watchdog", "hang"), 1

                sched.ladder.run = fake_run
                job, outcome = sched.submit(SPEC, tenant="t")
                assert outcome == "scheduled"
                record = await asyncio.wait_for(job.future, 30)
                assert record.status == "timeout"
                assert cache.writes == 0
                assert cache.get(job.key) is None
                # the next post of the same spec tries again
                job2, outcome2 = sched.submit(SPEC, tenant="t")
                assert outcome2 == "scheduled"
            finally:
                await sched.aclose()

        asyncio.run(main())


class TestRemoteTier:
    def test_peer_miss_reads_through_and_persists(self, tmp_path):
        peer_cache = diskcache.DiskCache(tmp_path / "peer")
        handle, client = start_service(tmp_path, cache=peer_cache)
        try:
            key = client.run(SPEC).key
            assert peer_cache.writes == 1
            local = diskcache.DiskCache(tmp_path / "local",
                                        remote=handle.url)
            record = local.get(key)
            assert record is not None
            assert record.workload == "nn"
            assert local.remote_hits == 1
            # read-through persisted it: the next get is purely local
            assert local.get(key) is not None
            assert local.remote_hits == 1
            assert local.hits == 2
        finally:
            handle.close()

    def test_dead_peer_degrades_to_a_miss(self, tmp_path):
        local = diskcache.DiskCache(tmp_path / "local",
                                    remote="http://127.0.0.1:9",
                                    remote_timeout=0.2)
        assert local.get("ab" * 32) is None
        assert local.remote_errors == 1
        assert local.misses == 1

    def test_local_only_get_skips_the_peer(self, tmp_path):
        """``get(remote=False)`` must never touch the network — even a
        dead peer with a long timeout costs nothing."""
        local = diskcache.DiskCache(tmp_path / "local",
                                    remote="http://127.0.0.1:9",
                                    remote_timeout=30.0)
        start = time.monotonic()
        assert local.get("ab" * 32, remote=False) is None
        assert time.monotonic() - start < 5.0
        assert local.remote_errors == 0
        assert local.misses == 1

    def test_remote_probe_fetches_and_persists(self, tmp_path):
        peer_cache = diskcache.DiskCache(tmp_path / "peer")
        handle, client = start_service(tmp_path, cache=peer_cache)
        try:
            key = client.run(SPEC).key
            local = diskcache.DiskCache(tmp_path / "local",
                                        remote=handle.url)
            record = local.remote_probe(key)
            assert record is not None and record.workload == "nn"
            assert local.remote_hits == 1
            # read-through persisted it: local-only get now hits
            assert local.get(key, remote=False) is not None
        finally:
            handle.close()

    def test_submit_path_never_probes_the_peer(self, tmp_path):
        """The event-loop thread must not block on HTTP: submit()
        consults only the local tier (the peer is retried off-loop by
        the scheduled job)."""
        import asyncio

        async def main():
            cache = diskcache.DiskCache(tmp_path / "local",
                                        remote="http://127.0.0.1:9",
                                        remote_timeout=30.0)
            sched = JobScheduler(workers=1, cache=cache)
            sched._loop = asyncio.get_running_loop()
            sched._wake = asyncio.Event()
            start = time.monotonic()
            job, outcome = sched.submit(SPEC, tenant="t")
            assert time.monotonic() - start < 5.0
            assert outcome == "scheduled"
            assert cache.remote_errors == 0

        asyncio.run(main())

    def test_scheduled_job_reads_through_peer_before_executing(
            self, tmp_path):
        """End to end: a service whose cache names a warm peer serves
        the peer's record without executing anything itself."""
        peer_cache = diskcache.DiskCache(tmp_path / "peer")
        peer, peer_client = start_service(tmp_path, cache=peer_cache)
        try:
            assert peer_client.run(SPEC).status == "ok"
            local_cache = diskcache.DiskCache(tmp_path / "local",
                                              remote=peer.url)
            mirror, client = start_service(tmp_path, cache=local_cache)
            try:
                out = client.run(SPEC)
                # a local miss at submit time, satisfied off-loop by
                # the peer: no execution on the mirror
                assert out.outcome == "scheduled"
                assert out.status == "ok"
                assert mirror.service.scheduler.executions == 0
                assert local_cache.remote_hits == 1
            finally:
                mirror.close()
        finally:
            peer.close()


class TestAdmissionOverHTTP:
    def test_rate_limited_post_is_429_with_retry_after(self, tmp_path):
        handle, client = start_service(tmp_path, rate=0.001, burst=1)
        try:
            assert client.run(SPEC).status == "ok"
            with pytest.raises(ServiceError) as err:
                client.run(dict(SPEC, scale=0.3), tenant="anon")
            assert err.value.status == 429
            assert err.value.retry_after is not None
            assert err.value.retry_after > 0
            # another tenant has its own bucket
            out = client.run(dict(SPEC, scale=0.2), tenant="other")
            assert out.status == "ok"
        finally:
            handle.close()


class TestWorkerLoss:
    def test_sigkilled_worker_degrades_not_500(self, tmp_path):
        """SIGKILL a pool worker mid-request: the scheduler rebuilds
        the pool, resubmits, and the stream still ends in a result —
        the ISSUE 10 acceptance scenario."""
        handle, client = start_service(
            tmp_path, inline=False, workers=1, retries=2,
            stream_interval=0.05)
        spec = {"machine": "ooo", "workload": "nn", "scale": 0.25}
        result = {}
        try:
            def post():
                result["out"] = client.run(spec)

            poster = threading.Thread(target=post)
            poster.start()
            scheduler = handle.service.scheduler
            deadline = time.monotonic() + 30
            killed = False
            while time.monotonic() < deadline and not killed:
                procs = list((getattr(scheduler.ladder.pool,
                                      "_processes", None) or {}).values())
                if procs:
                    os.kill(procs[0].pid, signal.SIGKILL)
                    killed = True
                time.sleep(0.02)
            poster.join(180)
            assert killed, "no pool worker appeared to kill"
            out = result.get("out")
            assert out is not None, "request never completed"
            # no 500, no exception: a clean streamed result
            assert out.result is not None
            assert out.status == "ok"
            assert scheduler.ladder.generation >= 1
            events = telemetry.read_events(handle.service.bus.path)
            assert any(e["ev"] == "requeue" for e in events)
        finally:
            handle.close()

    def test_hung_run_times_out_and_is_not_cached(self, tmp_path,
                                                  monkeypatch):
        """The watchdog fires on a posted run: the pool is abandoned,
        the run gets one bounded retry, and the stream still ends in a
        ``result`` — a classified ``timeout``, never a 5xx — that is
        not cached, so a re-post executes again."""
        monkeypatch.setenv("REPRO_SERIAL_RETRY_TIMEOUT", "0.5")
        # keyed in-process first, so keying stays inside the watchdog
        JobScheduler.canonical(SLOW_SPEC)
        handle, client = start_service(tmp_path, inline=False,
                                       workers=1, timeout=0.5)
        try:
            out = client.run(SLOW_SPEC)
            assert out.result is not None
            assert out.status == "timeout"
            assert out.record["failure_class"] == "hang"
            assert resilience_snapshot()[TIMEOUTS] == 1
            again = client.run(SLOW_SPEC)
            assert again.outcome == "scheduled"
            assert again.status == "timeout"
            assert handle.service.scheduler.executions == 2
        finally:
            handle.close()

    def test_missing_pool_runs_in_process(self, tmp_path, monkeypatch):
        """No process pool at all (fork refused): a post still streams
        an ``ok`` result through the in-process fallback."""
        def broken_pool(max_workers):
            raise OSError("fork refused")
        monkeypatch.setattr(parallel, "_pool", broken_pool)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            handle, client = start_service(tmp_path, inline=False)
            try:
                out = client.run(SPEC)
            finally:
                handle.close()
        assert out.status == "ok"
        assert any("running serially" in str(w.message) for w in caught)

    def test_shutdown_terminates_running_workers(self, tmp_path):
        """Closing the service with a run in flight terminates its pool
        worker instead of waiting for the simulation to finish."""
        JobScheduler.canonical(SLOW_SPEC)
        handle, client = start_service(tmp_path, inline=False, workers=1)

        def post():
            try:
                client.run(SLOW_SPEC)
            except Exception:
                pass  # the stream is cut by the shutdown

        poster = threading.Thread(target=post, daemon=True)
        poster.start()
        scheduler = handle.service.scheduler
        procs = []
        deadline = time.monotonic() + 30
        while not procs and time.monotonic() < deadline:
            procs = list((getattr(scheduler.ladder.pool, "_processes",
                                  None) or {}).values())
            time.sleep(0.05)
        assert procs, "no pool worker appeared"
        time.sleep(0.3)  # the worker is simulating now
        handle.close()
        time.sleep(2.0)
        assert not any(proc.is_alive() for proc in procs)

"""Shared configuration for the paper-reproduction benchmarks.

Each ``benchmarks/test_*`` file regenerates one table or figure of the
paper, prints it, and asserts the paper's *qualitative shape* (who
wins, roughly by how much, where the crossovers are). Absolute numbers
differ from the paper — our substrate is a Python cycle-level model,
not RTL + gem5 + 45 nm synthesis; EXPERIMENTS.md records the deltas.

Problem sizes are scaled down (the paper itself projects results from
reduced inputs, Section 7.1). The figure and table tests do not run
anything themselves: each names its ``ARTEFACT``, the session plans
the artefacts of every *collected* test once, runs the deduplicated
union of their cells as a single ``run_specs`` campaign (pooled under
``REPRO_JOBS`` > 1; docs/PARALLEL.md) and folds each artefact from
those records; a test reads its own through the ``result`` fixture.
Ablation tests run their own cells.

Run records are cached at two tiers: process-wide in memory, and —
enabled here for the whole benchmark session — persistently on disk
under ``.repro_cache/`` at the repo root, so a re-run replays cached
records instead of re-simulating. Export ``REPRO_DISK_CACHE=0`` to opt
out, or point it at a different directory. Either way the regenerated
numbers are identical to a cold serial run — the cache key covers
program bytes, config, scale and code version, and the determinism
contract is enforced by ``tests/test_parallel_equivalence.py`` and
``tests/test_harness_experiments.py``.
"""

import os

import pytest

#: scale shared by every experiment so cached runs are reused across
#: benchmark files within one pytest session
BENCH_SCALE = 0.5

#: default persistent cache location for benchmark sessions
BENCH_CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               os.pardir, ".repro_cache")


@pytest.fixture(scope="session", autouse=True)
def bench_disk_cache():
    """Persist run records across benchmark invocations (unless the
    user configured ``REPRO_DISK_CACHE`` themselves)."""
    from repro.harness import diskcache

    if os.environ.get("REPRO_DISK_CACHE"):
        yield diskcache.active()  # respect the explicit setting
        return
    cache = diskcache.configure(BENCH_CACHE_DIR)
    yield cache
    diskcache.reset()


def run_once(benchmark, fn, *args, **kwargs):
    """pytest-benchmark pedantic mode: each experiment runs once (the
    interesting output is the regenerated table, not the wall time)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              iterations=1, rounds=1)


@pytest.fixture(scope="session")
def paper_suite(request, bench_disk_cache):
    """The result of every collected test module's ``ARTEFACT``, all
    folded from one ``run_specs`` campaign over the union of their
    plans."""
    from repro.harness import experiments

    names = dict.fromkeys(
        item.module.ARTEFACT for item in request.session.items
        if hasattr(getattr(item, "module", None), "ARTEFACT"))
    return experiments.run_suite(list(names), BENCH_SCALE)


@pytest.fixture
def result(request, benchmark, paper_suite):
    """This test module's ``ARTEFACT`` from the session's campaign."""
    return run_once(benchmark, paper_suite.__getitem__,
                    request.module.ARTEFACT)

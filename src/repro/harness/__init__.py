"""Experiment harness reproducing the paper's tables and figures.

Each artefact in :mod:`repro.harness.experiments` (Table 1-3, Figures
9-12, the Section 7.3.2 stall breakdown, and the abstract's headline
numbers) is a plan — the run cells it reads — and a pure fold of their
records into the structured result the benchmark suite asserts shape
properties on. ``run_suite`` runs the deduplicated union of several
plans as one :func:`run_specs` campaign; each ``run_*`` function is
the suite of its one artefact. :mod:`repro.harness.report` renders the
results as text tables matching the paper's rows/series.
"""

from repro.harness.runner import (
    FAILURE_CLASSES,
    RUN_STATUSES,
    RunRecord,
    RunSpec,
    classify_failure,
    run_spec,
    run_baseline,
    run_diag,
    clear_cache,
)
from repro.harness.parallel import (
    aggregate_stats,
    execute_spec,
    resolve_jobs,
    run_specs,
)
from repro.harness.journal import RunJournal, spec_key
from repro.harness.experiments import (
    run_fig9a,
    run_fig9b,
    run_fig10a,
    run_fig10b,
    run_fig11,
    run_fig12,
    run_headline,
    run_stall_breakdown,
    run_table1,
    run_table2,
    run_table3,
)
from repro.harness.report import format_table, render_experiment

__all__ = [
    "FAILURE_CLASSES",
    "RUN_STATUSES",
    "RunJournal",
    "RunRecord",
    "RunSpec",
    "aggregate_stats",
    "classify_failure",
    "clear_cache",
    "execute_spec",
    "spec_key",
    "format_table",
    "resolve_jobs",
    "run_specs",
    "render_experiment",
    "run_baseline",
    "run_diag",
    "run_spec",
    "run_fig10a",
    "run_fig10b",
    "run_fig11",
    "run_fig12",
    "run_fig9a",
    "run_fig9b",
    "run_headline",
    "run_stall_breakdown",
    "run_table1",
    "run_table2",
    "run_table3",
]

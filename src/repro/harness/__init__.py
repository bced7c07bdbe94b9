"""Experiment harness reproducing the paper's tables and figures.

Each ``run_*`` function in :mod:`repro.harness.experiments` regenerates
one artefact (Table 1-3, Figures 9-12, the Section 7.3.2 stall
breakdown, and the abstract's headline numbers) and returns a
structured result that the benchmark suite asserts shape properties
on. :mod:`repro.harness.report` renders them as text tables matching
the paper's rows/series.
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

"""Evaluation harness: the §6 sweep runner, one function per paper
figure/table, and plain-text report rendering."""

from repro.experiments.figures import (
    fig1_bitrate_profile,
    fig2_siti_by_quartile,
    fig3_quality_cdfs,
    fig4_myopic_vs_cava,
    fig7_inner_window_sweep,
    fig8_scheme_cdfs,
    fig9_quality_cdfs,
    fig10_ablation,
    fig11_dashjs_cdfs,
    outer_window_sweep,
)
from repro.experiments.export import (
    to_jsonable,
    write_cdf_csv,
    write_json,
    write_series_csv,
)
from repro.experiments.report import (
    format_comparison_rows,
    format_delta,
    format_percent,
    render_table,
)
from repro.experiments.artifacts import ArtifactCache, CacheStats
from repro.experiments.parallel import (
    ParallelSweepRunner,
    SweepSpec,
    SweepWorkerError,
)
from repro.experiments.runner import (
    SweepResult,
    aggregate,
    run_comparison,
    run_one_session,
    run_scheme_on_traces,
)
from repro.experiments.tables import (
    ComparisonRow,
    bandwidth_error_study,
    codec_impact_study,
    compare_to_baselines,
    fourx_cap_study,
    table1,
    table2_dashjs,
)

__all__ = [
    "fig1_bitrate_profile",
    "fig2_siti_by_quartile",
    "fig3_quality_cdfs",
    "fig4_myopic_vs_cava",
    "fig7_inner_window_sweep",
    "fig8_scheme_cdfs",
    "fig9_quality_cdfs",
    "fig10_ablation",
    "fig11_dashjs_cdfs",
    "outer_window_sweep",
    "format_comparison_rows",
    "format_delta",
    "format_percent",
    "render_table",
    "to_jsonable",
    "write_cdf_csv",
    "write_json",
    "write_series_csv",
    "ArtifactCache",
    "CacheStats",
    "ParallelSweepRunner",
    "SweepSpec",
    "SweepWorkerError",
    "SweepResult",
    "aggregate",
    "run_comparison",
    "run_one_session",
    "run_scheme_on_traces",
    "ComparisonRow",
    "bandwidth_error_study",
    "codec_impact_study",
    "fourx_cap_study",
    "compare_to_baselines",
    "table1",
    "table2_dashjs",
]

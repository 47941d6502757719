"""Experiment runners and report formatting.

:mod:`repro.analysis.experiments` contains one runner per experiment id from
DESIGN.md (Table I, Figs. 1–5, the ablations and the centralized baseline),
and :mod:`repro.analysis.results` renders their outputs as paper-style
tables.  The tier-1 tests check the paper's figures through these runners.
"""

from repro.analysis.results import ResultTable, format_bytes, format_seconds
from repro.analysis.experiments import (
    Table1Result,
    NamePlacementResult,
    ServiceMappingResult,
    Fig5Decomposition,
    OverlayChurnResult,
    PlacementComparison,
    CachingAblation,
    ConcurrentLoadResult,
    BaselineComparison,
    run_table1,
    run_fig2_name_placement,
    run_fig3_service_mapping,
    run_fig5_workflow,
    run_overlay_churn,
    run_placement_comparison,
    run_caching_ablation,
    run_concurrent_load,
    run_baseline_comparison,
)

__all__ = [
    "ResultTable",
    "format_bytes",
    "format_seconds",
    "run_table1",
    "run_fig2_name_placement",
    "run_fig3_service_mapping",
    "run_fig5_workflow",
    "run_overlay_churn",
    "run_placement_comparison",
    "run_caching_ablation",
    "run_concurrent_load",
    "run_baseline_comparison",
    "Table1Result",
    "NamePlacementResult",
    "ServiceMappingResult",
    "Fig5Decomposition",
    "OverlayChurnResult",
    "PlacementComparison",
    "CachingAblation",
    "ConcurrentLoadResult",
    "BaselineComparison",
]

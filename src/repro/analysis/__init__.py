"""The paper's experiments as one run table, and report formatting.

:data:`~repro.analysis.experiments.EXPERIMENTS` has one row per paper table,
figure or ablation (Table I, Figs. 1–5, the result-caching ablation, the
concurrent-load run and the centralized baseline): its runner, the *paper*
level ``examples/paper_figures.py`` prints, and the *shrunk* levels
``tests/analysis/test_analysis_and_integration.py`` checks beside it.  Every
runner returns the :class:`~repro.analysis.results.ResultTable` it renders,
with the figures the checks read in its ``measures``.
"""

from repro.analysis.results import ResultTable, format_bytes, format_seconds
from repro.analysis.experiments import EXPERIMENTS

__all__ = ["EXPERIMENTS", "ResultTable", "format_bytes", "format_seconds"]

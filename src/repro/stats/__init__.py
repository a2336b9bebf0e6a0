"""Statistics gathering and workspace estimation for the optimizer."""

from .histograms import (
    TemporalHistogram,
    build_histogram,
    estimate_overlap_pairs,
    estimate_peak_workspace,
)
from .estimators import (
    TemporalStatistics,
    collect_statistics,
    estimate_contain_join_workspace,
    estimate_overlap_join_workspace,
    mean_inter_arrival,
)

__all__ = [
    "TemporalHistogram",
    "TemporalStatistics",
    "build_histogram",
    "collect_statistics",
    "estimate_contain_join_workspace",
    "estimate_overlap_join_workspace",
    "estimate_overlap_pairs",
    "estimate_peak_workspace",
    "mean_inter_arrival",
]

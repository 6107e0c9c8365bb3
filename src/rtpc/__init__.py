"""Respiratory modulation analysis for real-time phase-contrast flow series.

Pipeline: velocity-map series -> ROI segmentation, background correction,
anti-aliasing -> flow signal -> cardiac cycle curves -> breathing-phase
labels -> delay-scanned expiration-vs-inspiration percentage differences.
"""

__version__ = "0.1.0"

from .cycles import (
    CCFC,
    CycleBoundary,
    CycleParams,
    CycleTable,
    cycle_params,
    detect_cycles,
    resample,
)
from .diff import (
    DiffScanResult,
    PARAMETERS,
    average_params,
    delay_scan,
    diff_ex_in,
    extract_result,
)
from .extraction import (
    BackgroundEstimate,
    RoiSeries,
    compute_flow,
    correct_background,
    quality_score,
    segment_roi,
    sum_flows,
    unalias,
)
from .io import (
    ArteryRecord,
    DiffRecord,
    QcFlags,
    Report,
    RoiMask,
    SampledSignal,
    VelocityMapSeries,
    read_mask,
    read_report,
    read_signal_csv,
    read_velocity_series,
    write_mask,
    write_report,
    write_signal_csv,
    write_velocity_series,
)
from .respiration import (
    EX,
    IN,
    UNLABELED,
    RespIntervals,
    detect_resp_intervals,
    label_cycles,
    shift_intervals,
)
from .stats import spearman, summarize, wilcoxon_signed_rank
from .synthgen import GroundTruth, SimConfig, generate_signals, generate_velocity_series

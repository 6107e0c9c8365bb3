"""Respiratory modulation analysis for real-time phase-contrast flow series.

Pipeline: velocity-map series -> ROI segmentation, background correction,
anti-aliasing -> flow signal -> cardiac cycle curves -> breathing-phase
labels -> delay-scanned expiration-vs-inspiration percentage differences.

The names below are imported on first access (PEP 562), so `import rtpc`
loads no submodule and no numpy.
"""

import importlib

__version__ = "0.1.0"

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("CCFC", "CycleBoundary", "CycleParams", "CycleTable", "cycle_params", "detect_cycles",
         "resample"),
        "cycles",
    ),
    **dict.fromkeys(
        ("DiffScanResult", "PARAMETERS", "average_params", "delay_scan", "diff_ex_in",
         "extract_result"),
        "diff",
    ),
    **dict.fromkeys(
        ("BackgroundEstimate", "RoiSeries", "compute_flow", "correct_background", "quality_score",
         "segment_roi", "sum_flows", "unalias"),
        "extraction",
    ),
    **dict.fromkeys(
        ("RoiMask", "SampledSignal", "VelocityMapSeries", "read_mask", "read_signal_csv",
         "read_velocity_series", "write_mask", "write_signal_csv", "write_velocity_series"),
        "io",
    ),
    **dict.fromkeys(
        ("ArteryRecord", "DiffRecord", "QcFlags", "Report", "read_report", "write_report"),
        "report",
    ),
    **dict.fromkeys(
        ("EX", "IN", "UNLABELED", "RespIntervals", "detect_resp_intervals", "label_cycles",
         "shift_intervals"),
        "respiration",
    ),
    **dict.fromkeys(("spearman", "summarize", "wilcoxon_signed_rank"), "stats"),
    **dict.fromkeys(
        ("GroundTruth", "SimConfig", "generate_signals", "generate_velocity_series"), "synthgen"
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})

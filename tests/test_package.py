"""`rtpc` exports its API on first access (PEP 562): every exported name is
the object its defining module holds, and the set of names is fixed."""

import importlib

import pytest

import rtpc

#: The exported names, by defining module.
EXPORTS = {
    "cycles": ("CCFC", "CycleBoundary", "CycleParams", "CycleTable", "cycle_params",
               "detect_cycles", "resample"),
    "diff": ("DiffScanResult", "PARAMETERS", "average_params", "delay_scan", "diff_ex_in",
             "extract_result"),
    "extraction": ("BackgroundEstimate", "RoiSeries", "compute_flow", "correct_background",
                   "quality_score", "segment_roi", "sum_flows", "unalias"),
    "io": ("RoiMask", "SampledSignal", "VelocityMapSeries", "read_mask", "read_signal_csv",
           "read_velocity_series", "write_mask", "write_signal_csv", "write_velocity_series"),
    "report": ("ArteryRecord", "DiffRecord", "QcFlags", "Report", "read_report", "write_report"),
    "respiration": ("EX", "IN", "UNLABELED", "RespIntervals", "detect_resp_intervals",
                    "label_cycles", "shift_intervals"),
    "stats": ("spearman", "summarize", "wilcoxon_signed_rank"),
    "synthgen": ("GroundTruth", "SimConfig", "generate_signals", "generate_velocity_series"),
}


def test_exports_are_the_defining_modules_objects():
    expected = {name for names in EXPORTS.values() for name in names}
    assert sorted(rtpc.__all__) == sorted(expected)
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"rtpc.{module}")
        for name in names:
            assert getattr(rtpc, name) is getattr(defining, name), name


def test_dir_lists_exports():
    assert set(rtpc.__all__) <= set(dir(rtpc))
    assert "__version__" in dir(rtpc)


def test_star_import():
    namespace = {}
    exec("from rtpc import *", namespace)
    assert namespace["detect_cycles"] is importlib.import_module("rtpc.cycles").detect_cycles
    assert set(rtpc.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rtpc.no_such_name  # noqa: B018
    assert not hasattr(rtpc, "no_such_name")

"""`rtpc` exports its API on first access (PEP 562): every exported name is
the object its defining module holds, and the set of names is fixed. The
README's library examples run against that API."""

import importlib
import json
import math
import re
from pathlib import Path

import pytest

import rtpc

#: The exported names, by defining module.
EXPORTS = {
    "cycles": ("CycleTable", "detect_cycles"),
    "diff": ("PARAMETERS", "delay_scan", "scan_artery"),
    "extraction": ("BackgroundEstimate", "compute_flow", "correct_background", "quality_score",
                   "roi_values", "segment_roi", "sum_flows", "unalias"),
    "io": ("SampledSignal", "VelocityMapSeries", "read_mask", "read_signal_csv",
           "read_velocity_series", "write_mask", "write_signal_csv", "write_velocity_series"),
    "report": ("ArteryRecord", "DiffRecord", "QcFlags", "Report", "read_report", "write_report"),
    "respiration": ("EX", "IN", "RespIntervals", "detect_resp_intervals"),
    "stats": ("spearman", "wilcoxon_signed_rank"),
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


def test_readme_library_snippet_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(snippet, namespace)
    scan, cycles = namespace["scan"], namespace["cycles"]
    assert all(math.isfinite(v) for v in (scan.max_diff_pct, scan.argmax_delay_s, scan.delay_pct))
    assert len(cycles) == cycles.valid.size


def test_readme_extract_chain_writes_extracts_csv(tmp_path, monkeypatch):
    """The README's extraction chain, run on the data of its typical round
    trip, writes `rtpc extract --mask`'s flow.csv byte for byte."""
    from rtpc.cli import main

    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"byte for byte `extract`'s `flow.csv`:\n\n```python\n(.*?)```\n", readme, re.S)
    monkeypatch.chdir(tmp_path)
    Path("sim.json").write_text(json.dumps({"duration_s": 30.0, "seed": 2, "artifacts": {
        "eddy_offset_mm_s": 3.0, "aliased_pixel_fraction": 0.3, "noise_sd": 4.0}}))
    assert main(["simulate", "--config", "sim.json", "--out-dir", "data", "--with-images"]) == 0
    assert main(["extract", "--series", "data/series.rtpc", "--mask", "data/mask.pgm",
                 "--out", "flow.csv"]) == 0
    namespace = {}
    exec(block.group(1), namespace)
    assert namespace["n_unaliased"] > 0
    assert Path("library_flow.csv").read_bytes() == Path("flow.csv").read_bytes()

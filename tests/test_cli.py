import importlib
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import rtpc

from rtpc import cli, extraction, io
from rtpc import report as settings
from rtpc.cli import main
from rtpc.errors import EmptySegmentation, InsufficientStationaryTissue, SeedOutsideVessel
from rtpc.extraction import (
    COMPONENT_START_HALF_PX,
    compute_flow,
    correct_background,
    quality_score,
    roi_values,
    roi_window,
    seed_window,
    segment_roi,
    unalias,
)
from rtpc.io import (
    MAGIC,
    SampledSignal,
    VelocityMapSeries,
    frame_chunks,
    read_mask,
    read_signal_csv,
    read_velocity_series,
    write_mask,
    write_signal_csv,
    write_velocity_series,
)
from rtpc.report import Report, read_report
from rtpc.stats import spearman
from rtpc.synthgen import SimConfig, generate_velocity_series

from helpers import run_fresh


BASE_CONFIG = {
    "duration_s": 60.0,
    "modulation": {"mean_flow_pct": 10.0, "shape": "square"},
    "seed": 7,
}


def write_config(tmp_path, extra=None, name="sim.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (extra or {}).items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def dataset(tmp_path):
    cfg = write_config(tmp_path, {"artifacts": {"eddy_offset_mm_s": 3.0, "aliased_pixel_fraction": 0.1}})
    out = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out), "--with-images"]) == 0
    return out


class TestSimulate:
    def test_outputs_exist_and_parse(self, dataset):
        for name in ("flow.csv", "resp.csv", "truth.json", "series.rtpc", "mask.pgm"):
            assert (dataset / name).exists()
        flow = read_signal_csv(dataset / "flow.csv", "flow")
        assert len(flow) == 800
        manifest = json.loads((dataset / "truth.json").read_text())
        assert manifest["config"]["seed"] == 7
        assert manifest["resp_period_s"] == 4.3
        assert len(manifest["cycles"]) > 50

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        for name in ("flow.csv", "resp.csv", "truth.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_too_short_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"duration_s": 5.0}))
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 8

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 8
        cfg.write_bytes('{"seed": 3, "note": "é"}'.encode("latin-1"))  # not UTF-8
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 8
        for bad in [
            {"seed": 2.5},
            {"seed": True},
            {"vessel": {"grid": {"width": 40.7}}},
            {"duration_s": "abc"},
            {"duration_s": None},
            {"vessel": {"peak_velocity_mm_s": 760.0}},
        ]:
            cfg.write_text(json.dumps({**BASE_CONFIG, **bad}))
            assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 8

    @pytest.mark.parametrize("waveform", [{"scale": 1e-200}, {"shape": 400.0}, {"scale": 1e100}])
    def test_waveform_out_of_float_range_exit_8(self, tmp_path, capsys, waveform):
        """A pulse whose normalisation leaves the float range is a config
        error naming cardiac.waveform, not a non-finite signal or a traceback."""
        cfg = write_config(tmp_path, {"cardiac": {"waveform": waveform}})
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out), "--with-images"]) == 8
        err = capsys.readouterr().err
        assert "cardiac.waveform" in err and "non-finite" not in err
        assert list(out.iterdir()) == []

    def test_pure_default_config(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        out = tmp_path / "defaults"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        flow = read_signal_csv(out / "flow.csv", "flow")
        resp = read_signal_csv(out / "resp.csv", "respiration")
        assert flow.values.mean() == pytest.approx(740.0, rel=0.01)
        assert len(resp) == len(flow)
        manifest = json.loads((out / "truth.json").read_text())
        assert manifest["config"]["duration_s"] == 60.0


class TestExtract:
    def test_mask_extraction_matches_truth(self, dataset, tmp_path):
        out = tmp_path / "flow_extracted.csv"
        qc = tmp_path / "qc.json"
        rc = main(["extract", "--series", str(dataset / "series.rtpc"),
                   "--mask", str(dataset / "mask.pgm"), "--out", str(out), "--qc", str(qc)])
        assert rc == 0
        truth_flow = read_signal_csv(dataset / "flow.csv", "flow")
        extracted = read_signal_csv(out, "flow")
        rel = np.abs(extracted.values - truth_flow.values) / np.abs(truth_flow.values)
        assert rel.max() < 0.005
        payload = json.loads(qc.read_text())
        assert payload["background_offset_mm_s"] == pytest.approx(3.0, abs=0.1)
        assert payload["excluded"] is False
        assert payload["empty_roi_frames"] == 0
        assert payload["n_roi_pixels"] == read_mask(dataset / "mask.pgm", 32, 32).sum()
        assert payload["n_unaliased_pixels"] > 0

    def test_seed_extraction(self, dataset, tmp_path):
        out = tmp_path / "flow_seeded.csv"
        rc = main(["extract", "--series", str(dataset / "series.rtpc"),
                   "--seed", "16,16", "--out", str(out)])
        assert rc == 0
        extracted = read_signal_csv(out, "flow")
        truth_flow = read_signal_csv(dataset / "flow.csv", "flow")
        # thresholded growth captures the fast core of the parabolic profile,
        # so the mean is below the full-disk truth but the rhythm is intact
        assert 0.4 * truth_flow.values.mean() < extracted.values.mean() < 1.05 * truth_flow.values.mean()
        from rtpc.cycles import detect_cycles

        cycles = detect_cycles(extracted)
        periods = cycles.params[2][cycles.valid]
        assert np.mean(periods) == pytest.approx(0.94, abs=0.02)

    def test_no_background_correction_bias(self, dataset, tmp_path):
        corrected, raw = tmp_path / "corr.csv", tmp_path / "raw.csv"
        main(["extract", "--series", str(dataset / "series.rtpc"), "--mask", str(dataset / "mask.pgm"),
              "--no-unalias", "--out", str(corrected)])
        main(["extract", "--series", str(dataset / "series.rtpc"), "--mask", str(dataset / "mask.pgm"),
              "--no-unalias", "--no-background-correction", "--out", str(raw)])
        a = read_signal_csv(corrected, "flow")
        b = read_signal_csv(raw, "flow")
        n_members = 113  # radius-6 disk
        expected_bias = 0.06 * 0.25 * 3.0 * n_members
        assert (b.values - a.values).mean() == pytest.approx(expected_bias, rel=1e-3)

    def test_zero_venc_header_requires_flag(self, tmp_path):
        head = MAGIC + struct.pack("<III", 2, 2, 2) + struct.pack("<fff", 75.0, 0.0, 0.25)
        path = tmp_path / "zero.rtpc"
        path.write_bytes(head + b"\x00" * 32)
        rc = main(["extract", "--series", str(path), "--seed", "1,1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_corrupt_series_exit_code(self, tmp_path):
        path = tmp_path / "bad.rtpc"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        rc = main(["extract", "--series", str(path), "--seed", "1,1", "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_seed_outside_vessel_exit_code(self, dataset, tmp_path):
        rc = main(["extract", "--series", str(dataset / "series.rtpc"),
                   "--seed", "1,1", "--out", str(tmp_path / "x.csv")])
        assert rc == 4
        assert not (tmp_path / "x.csv").exists()

    def test_mask_and_seed_mutually_exclusive(self, dataset, tmp_path):
        assert main(["extract", "--series", str(dataset / "series.rtpc"),
                     "--mask", str(dataset / "mask.pgm"), "--seed", "16,16",
                     "--out", str(tmp_path / "x.csv")]) == 2


def write_raw_series(path, frames, venc=800.0):
    """An RTPC1 file holding frames as they are, non-finite values included."""
    n, h, w = frames.shape
    head = MAGIC + struct.pack("<III", w, h, n) + struct.pack("<fff", 75.0, venc, 0.25)
    path.write_bytes(head + np.asarray(frames, dtype="<f4").tobytes())
    return path


class TestExtractOptions:
    """Out-of-range and unreadable extract options exit 2 with a message naming
    the option. They are checked before the payload is read: the payload here
    holds a NaN, which reading would report with exit 3."""

    @pytest.mark.parametrize("option, value", [
        ("--seed", "500,500"), ("--seed", "40,0"), ("--seed", "0,40"), ("--seed=-1,3", None),
        ("--threshold-fraction", "0"), ("--threshold-fraction", "1.5"),
        ("--threshold-fraction", "nan"),
        ("--max-radius-px", "nan"), ("--max-radius-px", "-1"), ("--max-radius-px", "inf"),
        ("--venc", "nan"), ("--venc", "inf"), ("--venc", "fast"),
        ("--snr-threshold", "nan"), ("--snr-threshold", "inf"), ("--snr-threshold", "-1"),
    ])
    def test_usage_error_names_option(self, tmp_path, capsys, option, value):
        frames = np.ones((3, 40, 40))
        frames[2, 39, 39] = np.nan
        series = write_raw_series(tmp_path / "s.rtpc", frames)
        argv = ["extract", "--series", str(series), "--out", str(tmp_path / "x.csv"), option]
        argv += [value] if value is not None else []
        if not option.startswith("--seed"):
            argv += ["--seed", "20,20"]
        if option == "--snr-threshold":
            argv += ["--qc", str(tmp_path / "qc.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert option.split("=")[0] in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "qc.json").exists()

    @pytest.mark.parametrize("value", ["5", "0"])
    def test_snr_threshold_without_qc_is_refused(self, tmp_path, capsys, value):
        # The threshold only decides the QC sidecar's `excluded`, even at its default.
        frames = np.ones((3, 40, 40))
        frames[2, 39, 39] = np.nan
        series = write_raw_series(tmp_path / "s.rtpc", frames)
        argv = ["extract", "--series", str(series), "--seed", "20,20",
                "--snr-threshold", value, "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--snr-threshold" in err and "--qc only" in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("option, value", [
        ("--threshold-fraction", "0.5"), ("--max-radius-px", "12"), ("--max-radius-px", "3"),
    ])
    def test_seed_option_with_mask_is_refused(self, tmp_path, capsys, option, value):
        # Segmentation options change nothing with --mask, even at their --seed defaults.
        frames = np.ones((3, 40, 40))
        frames[2, 39, 39] = np.nan
        series = write_raw_series(tmp_path / "s.rtpc", frames)
        member = np.zeros((40, 40), dtype=bool)
        member[18:22, 18:22] = True
        write_mask(member, tmp_path / "m.pgm")
        argv = ["extract", "--series", str(series), "--mask", str(tmp_path / "m.pgm"),
                option, value, "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert option in err and "--seed only" in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_empty_mask_exit_4_names_mask(self, tmp_path, capsys):
        frames = np.random.default_rng(0).normal(0.0, 5.0, (100, 20, 20))
        series = write_raw_series(tmp_path / "s.rtpc", frames)
        mask = tmp_path / "empty.pgm"
        write_mask(np.zeros((20, 20), dtype=bool), mask)
        for extra in ([], ["--no-background-correction", "--no-unalias"]):
            rc = main(["extract", "--series", str(series), "--mask", str(mask), *extra,
                       "--out", str(tmp_path / "x.csv")])
            assert rc == EmptySegmentation.exit_code == 4
            assert capsys.readouterr().err == f"rtpc extract: error: mask {mask} has no member pixel\n"
            assert not (tmp_path / "x.csv").exists()

    def test_qc_naming_the_out_file_is_refused(self, tmp_path, capsys, monkeypatch):
        # The series does not exist: exit 2, not 3, shows the check runs before it is read.
        monkeypatch.chdir(tmp_path)
        argv = ["extract", "--series", "missing.rtpc", "--seed", "1,1", "--out", "o.csv",
                "--qc", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "rtpc extract: --qc and --out name the same file o.csv\n"
        assert not (tmp_path / "o.csv").exists()

    def test_background_overflow_names_the_step(self, tmp_path, capsys):
        """The series is finite, but a corrected vessel velocity leaves the
        float32 range: exit 3 with a message naming the step and the offset,
        and nothing else on stderr."""
        yy, xx = np.mgrid[0:32, 0:32]
        disk = (xx - 16) ** 2 + (yy - 16) ** 2 <= 36
        frames = np.full((100, 32, 32), -3.0e38)
        frames[:, disk] = 3.0e38
        series = write_raw_series(tmp_path / "s.rtpc", frames)
        write_mask(disk, tmp_path / "m.pgm")
        out = tmp_path / "x.csv"
        argv = ["extract", "--series", str(series), "--mask", str(tmp_path / "m.pgm"), "--out", str(out)]
        assert main(argv) == 3
        offset = float(np.float32(-3.0e38))
        assert capsys.readouterr().err == (
            f"rtpc extract: error: background correction: subtracting the offset {offset!r} mm/s "
            "takes a velocity beyond the float32 range\n"
        )
        assert not out.exists()
        assert main(argv + ["--no-background-correction"]) == 0

    def test_nan_payload_still_exit_3(self, tmp_path):
        frames = np.ones((3, 40, 40))
        frames[2, 39, 39] = np.nan
        series = write_raw_series(tmp_path / "s.rtpc", frames)
        assert main(["extract", "--series", str(series), "--seed", "20,20",
                     "--out", str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize("seed, radius, error", [
        ((38, 38), 12.0, SeedOutsideVessel),
        ((30, 30), 2.0, EmptySegmentation),
    ])
    def test_seed_errors_name_image_coordinates(self, tmp_path, capsys, seed, radius, error):
        frames = np.zeros((3, 48, 48))
        frames[:, 40:45, 40:45] = 100.0
        frames[:, 2:5, 2:5] = 100.0
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
        with pytest.raises(error) as library:
            segment_roi(series, seed=seed, max_radius_px=radius)
        path = write_raw_series(tmp_path / "s.rtpc", frames)
        rc = main(["extract", "--series", str(path), "--seed", f"{seed[0]},{seed[1]}",
                   "--max-radius-px", str(radius), "--out", str(tmp_path / "x.csv")])
        assert rc == library.value.exit_code == 4
        assert capsys.readouterr().err == f"rtpc extract: error: {library.value}\n"
        assert f"seed {seed}" in str(library.value)


class TestExtractSubtractsRoiOnly:
    """extract subtracts the background offset from the ROI's values only, as
    they are taken from the window, which it never writes."""

    def test_negative_zero_offset_keeps_csv_bytes(self, tmp_path, monkeypatch):
        """A band median of -0.0 (forced: numpy's median of zeros is +0.0) is
        subtracted as it is, from ROI values of -0.0. The CSV and QC bytes are
        those the whole-window subtraction wrote."""
        monkeypatch.setattr(extraction, "_band_median", lambda flat, pixels: -0.0)
        frames = np.full((4, 12, 12), -1.0)
        frames[:, 6:, :] = 1.0
        frames[:, 5:7, :] = -0.0
        member = np.zeros((12, 12), dtype=bool)
        member[6, 5:8] = True
        series = write_raw_series(tmp_path / "s.rtpc", frames)
        write_mask(member, tmp_path / "m.pgm")
        out, qc = tmp_path / "x.csv", tmp_path / "qc.json"
        assert main(["extract", "--series", str(series), "--mask", str(tmp_path / "m.pgm"),
                     "--out", str(out), "--qc", str(qc)]) == 0
        assert out.read_bytes() == b"time_s,value\n0.0,0\n0.075,0\n0.15,0\n0.22499999999999998,0\n"
        assert qc.read_text() == json.dumps({
            "background_offset_mm_s": -0.0, "cardiac_snr": None, "empty_roi_frames": 0,
            "excluded": None, "n_band_pixels": 112, "n_roi_pixels": 3, "n_unaliased_pixels": 0,
        }, indent=2, sort_keys=True) + "\n"

    def test_overflow_outside_the_roi_exits_0(self, tmp_path, capsys):
        """A window pixel outside the ROI and its band that the offset would take
        beyond float32 feeds no output: exit 0 with the flow of the series
        without it. In the ROI, the same value exits 3 naming the step."""
        yy, xx = np.mgrid[0:32, 0:32]
        disk = (xx - 16) ** 2 + (yy - 16) ** 2 <= 36
        offset = float(np.float32(-1e33))  # the band median
        frames = np.full((100, 32, 32), offset)
        frames[:, disk] = offset + np.arange(100)[:, None] * 2.0**87  # exact in float32
        write_mask(disk, tmp_path / "m.pgm")
        flows = {}
        for name, at in (("clean", None), ("outside", (slice(None), 4, 4)), ("inside", (50, 16, 16))):
            if at is not None:
                frames[at] = np.finfo(np.float32).max
            series = write_raw_series(tmp_path / f"{name}.rtpc", frames)
            if at is not None:
                frames[at] = offset
            out = tmp_path / f"{name}.csv"
            rc = main(["extract", "--series", str(series), "--mask", str(tmp_path / "m.pgm"),
                       "--out", str(out)])
            flows[name] = (rc, capsys.readouterr().err, out.read_bytes() if out.exists() else None)
        assert roi_window(disk) == (slice(4, 29), slice(4, 29))  # (4, 4) is read
        assert flows["clean"][:2] == flows["outside"][:2] == (0, "")
        assert flows["outside"][2] == flows["clean"][2]
        assert flows["inside"] == (3, f"rtpc extract: error: background correction: subtracting the "
                                      f"offset {offset!r} mm/s takes a velocity beyond the float32 "
                                      "range\n", None)


class TestAnalyzeOptions:
    """Out-of-range and unreadable analyze options exit 2 with a message naming
    the option, before any file is read: the input files here do not exist,
    which reading would report with exit 3."""

    @pytest.mark.parametrize("option, value", [
        ("--delay-step-ms", "0"), ("--delay-step-ms", "-5"), ("--delay-step-ms", "nan"),
        ("--delay-step-ms", "inf"),
        ("--delay-step-ms", "fast"),
        ("--min-cycles", "0"), ("--min-cycles", "-1"), ("--min-cycles", "abc"), ("--min-cycles", "1.5"),
        ("--snr-threshold", "nan"), ("--snr-threshold", "inf"), ("--snr-threshold", "-1"),
    ])
    def test_usage_error_names_option(self, tmp_path, capsys, option, value):
        out = tmp_path / "r.json"
        argv = ["analyze", "--flow", str(tmp_path / "missing_flow.csv"),
                "--resp", str(tmp_path / "missing_resp.csv"), option, value,
                "--out", str(out), "--plots", str(tmp_path / "plots")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert option in err and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "plots").exists()


class TestOutputNamesAnInput:
    """An output option that names an input file, as a resolved path, exits 2
    before any file is read, and the input keeps its bytes."""

    @pytest.fixture()
    def data(self, tmp_path):
        cfg = write_config(tmp_path, {"duration_s": 20.0})
        out = tmp_path / "d"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out), "--with-images"]) == 0
        return out

    @pytest.mark.parametrize("command, option, target, other", [
        ("extract", "--out", "series.rtpc", "--series"),
        ("extract", "--out", "mask.pgm", "--mask"),
        ("analyze", "--out", "resp.csv", "--resp"),
    ])
    def test_refused_and_input_kept(self, data, capsys, monkeypatch, command, option, target, other):
        monkeypatch.chdir(data)
        before = (data / target).read_bytes()
        if command == "extract":
            argv = ["extract", "--series", "series.rtpc", "--mask", str(data / "mask.pgm")]
        else:
            argv = ["analyze", "--flow", "flow.csv", "--resp", str(data / "resp.csv")]
        given = dict(zip(argv[1::2], argv[2::2]))[other]
        assert main([*argv, option, f"./{target}"]) == 2
        assert capsys.readouterr().err == f"rtpc {command}: {option} and {other} name the same file {given}\n"
        assert (data / target).read_bytes() == before


class TestDelayGridBound:
    """A --delay-step-ms so fine that the scan grid would exceed MAX_SCAN_DELAYS
    exits 2 before the grid is built, with a message naming the option."""

    @pytest.mark.parametrize("step_ms", ["1e-297", "1e-6"])
    def test_usage_error_names_option(self, dataset, tmp_path, capsys, step_ms):
        out = tmp_path / "r.json"
        rc = main(["analyze", "--flow", str(dataset / "flow.csv"), "--resp", str(dataset / "resp.csv"),
                   "--delay-step-ms", step_ms, "--out", str(out), "--plots", str(tmp_path / "plots")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--delay-step-ms" in err and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "plots").exists()


def full_frame_extract(series_path, mask_path=None, seed=None, background=True, unwrap=True,
                       max_radius_px=settings.MAX_RADIUS_PX):
    """The extraction chain on whole frames, with the QC payload `rtpc extract` writes."""
    series = read_velocity_series(series_path)
    if mask_path is not None:
        mask = read_mask(mask_path, series.width, series.height)
        roi = mask
    else:
        roi = segment_roi(series, seed=seed, max_radius_px=max_radius_px)
    offset = n_band = n_unaliased = None
    if background:
        estimate = correct_background(series, roi)
        offset, n_band = estimate.offset_mm_s, estimate.n_band_pixels
    values = roi_values(series, roi, offset)
    if unwrap:
        before = values.copy()
        unalias(values, series.venc_mm_s)
        n_unaliased = int(np.count_nonzero(values != before))
    flow = compute_flow(values, series.pixel_area_mm2, series.dt_s)
    qc = quality_score(flow)
    return flow, {
        "cardiac_snr": qc.cardiac_snr,
        "excluded": qc.excluded,
        "empty_roi_frames": sum(not m.any() for m in np.broadcast_to(roi, series.frames.shape)),
        "n_roi_pixels": int(np.count_nonzero(roi)),
        "background_offset_mm_s": offset,
        "n_band_pixels": n_band,
        "n_unaliased_pixels": n_unaliased,
    }


def write_images(directory, series, mask):
    directory.mkdir()
    write_velocity_series(series, directory / "series.rtpc")
    write_mask(mask, directory / "mask.pgm")
    return directory


@pytest.fixture(scope="module")
def crop_datasets(tmp_path_factory):
    """A centred vessel, and the same frames cut so the image edge clips the
    vessel and its background ring; a 128x128 vessel of radius 24, whose
    seeded ROI reaches past the first seed window; and 64x64 frames whose
    count is not a multiple of the read chunk. Each has the seed pixel at
    the centre."""
    artifacts = {"eddy_offset_mm_s": 3.0, "aliased_pixel_fraction": 0.3, "noise_sd": 4.0}
    config = SimConfig.from_dict({"duration_s": 30.0, "artifacts": artifacts, "seed": 11})
    series, mask, truth = generate_velocity_series(config)
    assert truth.wrapped_pixels
    root = tmp_path_factory.mktemp("crop")
    cut = (slice(12, None), slice(12, None))
    edge = VelocityMapSeries(
        frames=series.to_series().frames[(slice(None),) + cut], dt_ms=series.dt_ms,
        venc_mm_s=series.venc_mm_s, pixel_area_mm2=series.pixel_area_mm2,
    )

    wide, wide_mask, wide_truth = generate_velocity_series(SimConfig.from_dict({
        "duration_s": 30.0, "artifacts": {**artifacts, "noise_sd": 2.0}, "seed": 5,
        "vessel": {"radius_px": 24.0, "grid": {"width": 128, "height": 128}, "venc_mm_s": 60.0},
    }))
    assert wide_truth.wrapped_pixels
    roi = segment_roi(wide.to_series(), seed=(64, 64))
    first = seed_window(64, 64, COMPONENT_START_HALF_PX, 128, 128)
    assert roi.sum() > roi[first].sum()  # the seed window must widen

    ragged, ragged_mask, ragged_truth = generate_velocity_series(SimConfig.from_dict({
        "duration_s": 30.0, "artifacts": artifacts, "seed": 12,
        "vessel": {"grid": {"width": 64, "height": 64}},
    }))
    assert ragged_truth.wrapped_pixels
    chunks = list(frame_chunks(ragged.n_frames, ragged.height, ragged.width))
    assert len(chunks) > 1 and chunks[-1].stop - chunks[-1].start < chunks[0].stop

    return {
        "centred": (write_images(root / "centred", series, mask), "16,16"),
        "edge": (write_images(root / "edge", edge, mask[cut]), "4,4"),
        "wide": (write_images(root / "wide", wide, wide_mask), "64,64"),
        "ragged": (write_images(root / "ragged", ragged, ragged_mask), "32,32"),
    }


CHAIN_FLAGS = [(), ("--no-background-correction",), ("--no-unalias",),
               ("--no-background-correction", "--no-unalias")]


class TestExtractMatchesFullFrame:
    """`rtpc extract` works on a window around the ROI; its outputs must be
    those of the chain run on whole frames."""

    @pytest.mark.parametrize("name, source, flags, radius", [
        pytest.param(name, source, flags, None, id=f"{name}-{source}-flags{i}")
        for name in ("centred", "edge", "wide", "ragged")
        for source in ("mask", "seed")
        for i, flags in enumerate(CHAIN_FLAGS)
    ] + [
        # --max-radius-px 30: a first read of 61x61 around the wide vessel,
        # wider than the default 33x33, and the whole 32x32 centred image.
        pytest.param(name, "seed", (), 30.0, id=f"{name}-seed-radius30")
        for name in ("centred", "wide")
    ])
    def test_same_csv_and_qc(self, crop_datasets, tmp_path, name, source, flags, radius):
        data, seed = crop_datasets[name]
        roi_args = ["--mask", str(data / "mask.pgm")] if source == "mask" else ["--seed", seed]
        if radius is not None:
            roi_args += ["--max-radius-px", str(radius)]
        out, qc = tmp_path / "flow.csv", tmp_path / "qc.json"
        rc = main(["extract", "--series", str(data / "series.rtpc"), *roi_args, *flags,
                   "--out", str(out), "--qc", str(qc)])
        assert rc == 0
        flow, payload = full_frame_extract(
            data / "series.rtpc",
            mask_path=data / "mask.pgm" if source == "mask" else None,
            seed=tuple(int(v) for v in seed.split(",")),
            background="--no-background-correction" not in flags,
            unwrap="--no-unalias" not in flags,
            max_radius_px=settings.MAX_RADIUS_PX if radius is None else radius,
        )
        expected = tmp_path / "expected.csv"
        write_signal_csv(flow, expected)
        assert out.read_bytes() == expected.read_bytes()
        assert json.loads(qc.read_text()) == payload

    def test_empty_ring_at_image_edge_same_error(self, crop_datasets, tmp_path, capsys):
        source = read_velocity_series(crop_datasets["centred"][0] / "series.rtpc")
        series = VelocityMapSeries(
            frames=source.frames[:, 13:19, 13:19], dt_ms=source.dt_ms,
            venc_mm_s=source.venc_mm_s, pixel_area_mm2=source.pixel_area_mm2,
        )
        member = np.zeros((6, 6), dtype=bool)
        member[:5, :5] = True  # every other pixel lies within 2 px of the mask
        data = write_images(tmp_path / "tiny", series, member)
        with pytest.raises(InsufficientStationaryTissue) as library:
            correct_background(series, member)
        capsys.readouterr()
        out = tmp_path / "flow.csv"
        rc = main(["extract", "--series", str(data / "series.rtpc"),
                   "--mask", str(data / "mask.pgm"), "--out", str(out)])
        assert rc == library.value.exit_code == 4
        assert capsys.readouterr().err == f"rtpc extract: error: {library.value}\n"
        assert not out.exists()


class TestSeededExtractMatchesMask:
    """`extract --seed` runs the --mask chain on one static ROI, the union of
    the seed's per-frame components, so every frame sums the same lumen
    pixels: its flow is a constant multiple of the --mask flow, and analyze
    finds the mask flow's Diffs at the mask flow's delays. A ROI segmented
    frame by frame read 1.5 % to 91 % of the mask flow here, by frame."""

    def test_constant_gain_and_same_diffs(self, tmp_path):
        cfg = write_config(tmp_path, {
            "duration_s": 45.0, "vessel": {"venc_mm_s": 1000.0},
            "artifacts": {"aliased_pixel_fraction": 0.5, "eddy_offset_mm_s": 3.0},
        })
        data = tmp_path / "data"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(data), "--with-images"]) == 0
        n_wrapped = len(json.loads((data / "truth.json").read_text())["wrapped_pixels"])
        assert n_wrapped > 0
        flows, qcs, reports = {}, {}, {}
        for source, roi_args in (("mask", ["--mask", str(data / "mask.pgm")]), ("seed", ["--seed", "16,16"])):
            out, qc, report = (tmp_path / f"{source}{suffix}" for suffix in (".csv", ".json", "_report.json"))
            assert main(["extract", "--series", str(data / "series.rtpc"), *roi_args,
                         "--out", str(out), "--qc", str(qc)]) == 0
            assert main(["analyze", "--flow", str(out), "--resp", str(data / "resp.csv"),
                         "--out", str(report)]) == 0
            flows[source] = read_signal_csv(out, "flow").values
            qcs[source] = json.loads(qc.read_text())
            reports[source] = read_report(report).arteries[0].diff
        ratio = flows["seed"] / flows["mask"]
        assert 0.5 < ratio.min() and ratio.max() - ratio.min() < 1e-5 * ratio.min(), (ratio.min(), ratio.max())
        for param in settings.REPORT_PARAMETERS:
            seeded, masked = reports["seed"][param], reports["mask"][param]
            assert seeded.max_diff_pct == pytest.approx(masked.max_diff_pct, abs=1e-3), param
            assert seeded.argmax_delay_s == masked.argmax_delay_s, param
        assert qcs["seed"]["n_unaliased_pixels"] == qcs["mask"]["n_unaliased_pixels"] == n_wrapped
        assert 0 < qcs["seed"]["n_roi_pixels"] < qcs["mask"]["n_roi_pixels"]


class TestSeededExtractReads:
    """`extract --seed` reads the series once per seed window it segments on:
    once, plus once per doubling, and runs the chain on the last read."""

    @pytest.mark.parametrize("name", ["centred", "wide"])
    def test_one_read_per_window(self, crop_datasets, tmp_path, monkeypatch, name):
        data, seed = crop_datasets[name]
        sx, sy = (int(v) for v in seed.split(","))
        whole = read_velocity_series(data / "series.rtpc")
        need = roi_window(segment_roi(whole, seed=(sx, sy)))
        windows = []
        half = max(COMPONENT_START_HALF_PX, 12)  # 12: the --max-radius-px default
        while True:
            windows.append(seed_window(sy, sx, half, whole.height, whole.width))
            if all(cut.start <= into.start and into.stop <= cut.stop
                   for cut, into in zip(windows[-1], need)):
                break
            half *= 2
        assert (len(windows) > 1) == (name == "wide")  # only the wide vessel doubles

        calls = []
        read = cli.read_velocity_series

        def spy(*args, **kwargs):
            calls.append(kwargs.get("window"))
            return read(*args, **kwargs)

        monkeypatch.setattr(cli, "read_velocity_series", spy)
        rc = main(["extract", "--series", str(data / "series.rtpc"), "--seed", seed,
                   "--out", str(tmp_path / "flow.csv")])
        assert rc == 0
        assert calls == windows


@pytest.fixture(scope="module")
def alloc_dataset(tmp_path_factory):
    """2000 frames of 64x64 with an eddy offset and wrapped pixels, so every
    step of the chain acts; the ROI window is 33x33 (8.3 MiB of float32)."""
    series, mask, truth = generate_velocity_series(SimConfig.from_dict({
        "duration_s": 150.0, "seed": 3,
        "artifacts": {"eddy_offset_mm_s": 15.0, "aliased_pixel_fraction": 0.5, "noise_sd": 5.0},
        "vessel": {"radius_px": 10.0, "grid": {"width": 64, "height": 64}, "venc_mm_s": 400.0},
    }))
    assert truth.wrapped_pixels
    return write_images(tmp_path_factory.mktemp("alloc") / "data", series, mask)


class TestExtractAllocations:
    """extract allocates the ROI window it reads once and only reads it: the
    chain after the background estimate works on the ROI's (frames, members)
    matrix, 0.29 windows here. Traced in process, the command's allocation
    peak stays below 1.6 windows plus one read chunk. Measured on this
    dataset: 1.032 (--mask) and 1.005 (--seed) windows plus a chunk; a copy
    of the window held beside it would put the peak above 2 windows."""

    WINDOWS_ALLOWED = 1.6

    @pytest.mark.parametrize("source", ["mask", "seed"])
    def test_peak_below_bound(self, alloc_dataset, tmp_path, monkeypatch, source):
        windows = []
        read = cli.read_velocity_series

        def spy(*args, **kwargs):
            series = read(*args, **kwargs)
            windows.append(series.frames.nbytes)
            return series

        monkeypatch.setattr(cli, "read_velocity_series", spy)
        roi_args = ["--mask", str(alloc_dataset / "mask.pgm")] if source == "mask" else ["--seed", "32,32"]
        tracemalloc.start()
        try:
            rc = main(["extract", "--series", str(alloc_dataset / "series.rtpc"), *roi_args,
                       "--out", str(tmp_path / "flow.csv"), "--qc", str(tmp_path / "qc.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert json.loads((tmp_path / "qc.json").read_text())["n_unaliased_pixels"] > 0
        window = max(windows)
        assert window == 2000 * 33 * 33 * 4
        assert peak < self.WINDOWS_ALLOWED * window + io.SERIES_CHUNK_BYTES, (peak, window)


def peak_rss_mb(argv, env) -> float:
    """Peak resident memory of `python -m rtpc ARGV` in its own process."""
    proc = subprocess.Popen([sys.executable, "-m", "rtpc", *map(str, argv)], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _pid, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, proc.stderr.read().decode()
    proc.stderr.close()
    return usage.ru_maxrss / 1024.0  # KiB on Linux


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
class TestMemoryBound:
    """simulate --with-images and extract hold a window of the series plus one
    chunk, not whole frames. From N to 4N frames of 128x128, code that held
    whole frames in each of those three commands would grow by at least
    3N x 64 KiB (37.5 MB here); the bound is 25 MB."""

    N_SECONDS = 15.0  # 200 frames at 75 ms

    @pytest.mark.parametrize("command", ["simulate", "extract_mask", "extract_seed"])
    def test_growth_from_n_to_4n_frames(self, tmp_path, command):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(rtpc.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
        peaks = []
        for duration in (self.N_SECONDS, 4 * self.N_SECONDS):
            data = tmp_path / f"d{duration:g}"
            config = write_config(tmp_path, {
                "duration_s": duration,
                "artifacts": {"eddy_offset_mm_s": 15.0, "aliased_pixel_fraction": 0.5, "noise_sd": 5.0},
                "vessel": {"radius_px": 10.0, "grid": {"width": 128, "height": 128}, "venc_mm_s": 400.0},
            }, name=f"sim{duration:g}.json")
            simulate = ["simulate", "--config", config, "--out-dir", data, "--with-images"]
            extract = ["extract", "--series", data / "series.rtpc", "--out", data / "f.csv"]
            if command == "simulate":
                peaks.append(peak_rss_mb(simulate, env))
                continue
            assert main([str(a) for a in simulate]) == 0
            roi = ["--mask", data / "mask.pgm"] if command == "extract_mask" else ["--seed", "64,64"]
            peaks.append(peak_rss_mb(extract + roi, env))
        assert peaks[1] - peaks[0] < 25.0, peaks


class TestAnalyze:
    def test_report_fields(self, dataset, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["analyze", "--flow", str(dataset / "flow.csv"),
                   "--resp", str(dataset / "resp.csv"), "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert report.resp_period_s == pytest.approx(4.3, abs=0.05)
        assert report.config["diff_definition"] == "ex-in-over-in"
        # The config blocks record the settings the detectors read, and
        # today's values are pinned: changing a setting is a report change.
        assert report.config["cycles"] == {
            "upsample_factor": settings.UPSAMPLE_FACTOR,
            "period_band_s": list(settings.PERIOD_BAND_S),
            "min_separation_fraction": settings.MIN_SEPARATION_FRACTION,
            "validity_band": list(settings.VALIDITY_BAND),
        } == {
            "upsample_factor": 8,
            "period_band_s": [0.4, 2.0],
            "min_separation_fraction": 0.6,
            "validity_band": [0.6, 1.5],
        }
        assert report.config["respiration"] == {
            "smooth_window_s": settings.SMOOTH_WINDOW_S,
            "min_separation_s": settings.MIN_SEPARATION_S,
            "prominence_fraction": settings.PROMINENCE_FRACTION,
            "interval_duration_band": list(settings.INTERVAL_DURATION_BAND),
        } == {"smooth_window_s": 0.5, "min_separation_s": 1.5, "prominence_fraction": 0.2,
              "interval_duration_band": [0.3, 3.0]}
        assert report.config["delay_step_s"] == settings.DELAY_STEP_S == 0.075
        assert report.config["min_cycles_per_phase"] == settings.MIN_CYCLES == 3
        assert report.config["max_missing_fraction"] == settings.MAX_MISSING_FRACTION == 0.2
        assert report.config["quality"] == {
            "snr_threshold": settings.SNR_THRESHOLD,
            "cardiac_band_hz": list(settings.CARDIAC_BAND_HZ),
            "noise_band_hz": list(settings.NOISE_BAND_HZ),
            "welch_segment": settings.WELCH_SEGMENT,
            "min_qc_samples": settings.MIN_QC_SAMPLES,
        } == {"snr_threshold": 5.0, "cardiac_band_hz": [0.7, 2.0], "noise_band_hz": [2.5, 6.0],
              "welch_segment": 256, "min_qc_samples": 64}
        # A report written before these keys were recorded still reads.
        tree = json.loads(out.read_text())
        del tree["config"]["max_missing_fraction"]
        del tree["config"]["respiration"]["interval_duration_band"]
        tree["config"]["quality"] = {"snr_threshold": 5.0}
        assert Report.from_dict(tree).arteries == report.arteries
        artery = report.arteries[0]
        assert artery.name == "flow"
        assert artery.mean_flow_ml_min == pytest.approx(740.0 * 1.05, rel=0.03)
        assert artery.n_cycles > 50
        assert artery.diff["mean_flow"].max_diff_pct == pytest.approx(10.0, abs=2.0)

    def test_help_names_the_defaults(self, capsys):
        for command, defaults in (("extract", ("0.5", "12", "5")), ("analyze", ("75", "3", "5"))):
            assert main([command, "--help"]) == 0
            text = " ".join(capsys.readouterr().out.split())
            for value in defaults:
                assert f"default {value})" in text, (command, value)

    @pytest.mark.parametrize("flows, extra, clash", [
        (["a/flow.csv", "b/flow.csv"], [], ("a/flow.csv", "b/flow.csv")),
        (["a/flow.csv", "a/flow.csv"], [], ("a/flow.csv", "a/flow.csv")),
        (["a/ICA_L.csv", "b/flow.csv"], ["--name", "ICA_L"], ("a/ICA_L.csv", "--name")),
    ], ids=["same-stem", "same-path", "name-equals-stem"])
    def test_colliding_record_names_refused(self, tmp_path, capsys, flows, extra, clash):
        # No input file exists: exit 2, not 3, shows that the names are checked first.
        out = tmp_path / "r.json"
        argv = ["analyze", "--resp", str(tmp_path / "resp.csv"), *extra,
                "--out", str(out), "--plots", str(tmp_path / "plots")]
        for flow in flows:
            argv += ["--flow", str(tmp_path / flow)]
        assert main(argv) == 2
        first, second = (c if c.startswith("--") else str(tmp_path / c) for c in clash)
        name = Path(clash[0]).stem
        assert capsys.readouterr().err == (
            f"rtpc analyze: {first} and {second} give the same record name {name!r}\n"
        )
        assert not out.exists() and not (tmp_path / "plots").exists()

    def test_four_artery_sum_named_cabf(self, dataset, tmp_path):
        flow = read_signal_csv(dataset / "flow.csv", "flow")
        names = ["ICA_L", "ICA_R", "VA_L", "VA_R"]
        fractions = [0.405, 0.405, 0.095, 0.095]
        for name, frac in zip(names, fractions):
            write_signal_csv(
                SampledSignal(flow.t0_s, flow.dt_s, flow.values * frac, "flow"),
                tmp_path / f"{name}.csv",
            )
        out = tmp_path / "report4.json"
        rc = main(["analyze",
                   "--flow", ",".join(str(tmp_path / f"{n}.csv") for n in names),
                   "--resp", str(dataset / "resp.csv"), "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert [a.name for a in report.arteries] == names + ["CABF_extra"]
        cabf = report.arteries[-1]
        assert cabf.mean_flow_ml_min == pytest.approx(report.arteries[0].mean_flow_ml_min / 0.405, rel=0.01)

    def test_plots_written_and_deterministic(self, dataset, tmp_path):
        out = tmp_path / "report.json"
        plots1, plots2 = tmp_path / "p1", tmp_path / "p2"
        main(["analyze", "--flow", str(dataset / "flow.csv"), "--resp", str(dataset / "resp.csv"),
              "--out", str(out), "--plots", str(plots1)])
        svgs = sorted(p.name for p in plots1.iterdir())
        assert svgs == ["flow_cardiac_period.svg", "flow_mean_flow.svg", "flow_stroke_volume.svg"]
        for svg in plots1.iterdir():
            ET.fromstring(svg.read_text())  # well-formed XML
        rc = main(["report", "--in", str(out), "--plots", str(plots2)])
        assert rc == 0
        for name in svgs:
            assert (plots1 / name).read_bytes() == (plots2 / name).read_bytes()

    def test_markup_in_artery_name_gives_well_formed_svgs(self, dataset, tmp_path, monkeypatch):
        flow = tmp_path / "a&b<c.csv"
        flow.write_bytes((dataset / "flow.csv").read_bytes())
        out, plots, replots = tmp_path / "report.json", tmp_path / "plots", tmp_path / "replots"
        assert main(["analyze", "--flow", str(flow), "--resp", str(dataset / "resp.csv"),
                     "--out", str(out), "--plots", str(plots)]) == 0
        assert main(["report", "--in", str(out), "--plots", str(replots)]) == 0
        for svg in [*plots.iterdir(), *replots.iterdir()]:
            title = ET.parse(svg).getroot().find("{http://www.w3.org/2000/svg}text").text
            assert title.startswith("a&b<c: ")
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        assert importlib.import_module("checks").check_svgs_identical(plots, replots) == []

    def test_missing_resp_is_usage_error(self, dataset, tmp_path):
        assert main(["analyze", "--flow", str(dataset / "flow.csv"),
                     "--out", str(tmp_path / "r.json")]) == 2

    def test_short_flow_exit_code(self, dataset, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("time_s,value\n" + "\n".join(f"{i*0.075},{700+i}" for i in range(10)) + "\n")
        rc = main(["analyze", "--flow", str(short), "--resp", str(dataset / "resp.csv"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 5
        assert not (tmp_path / "r.json").exists()

    def test_constant_resp_exit_code(self, dataset, tmp_path):
        flat = tmp_path / "flat.csv"
        flat.write_text("time_s,value\n" + "\n".join(f"{i*0.075},1.0" for i in range(800)) + "\n")
        rc = main(["analyze", "--flow", str(dataset / "flow.csv"), "--resp", str(flat),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 5

    def test_belt_without_overlap_names_spans(self, dataset, tmp_path, capsys):
        resp = read_signal_csv(dataset / "resp.csv", "respiration")
        shifted = tmp_path / "resp_late.csv"
        write_signal_csv(
            SampledSignal(resp.t0_s + 5000.0, resp.dt_s, resp.values, "respiration"), shifted
        )
        out = tmp_path / "r.json"
        rc = main(["analyze", "--flow", str(dataset / "flow.csv"), "--resp", str(shifted),
                   "--out", str(out)])
        assert rc == 6
        assert not out.exists()
        message = capsys.readouterr().err
        assert "do not overlap" in message
        belt = re.search(r"breathing intervals span (\d+\.\d+)-(\d+\.\d+) s", message)
        flow = re.search(r"flow cycles span (\d+\.\d+)-(\d+\.\d+) s", message)
        assert belt and flow, message
        assert 5000.0 <= float(belt[1]) < float(belt[2]) <= 5060.0
        assert 0.0 <= float(flow[1]) < float(flow[2]) <= 60.0

    def test_multi_flow_records_in_input_order(self, dataset, tmp_path):
        flow = read_signal_csv(dataset / "flow.csv", "flow")
        for name, frac in [("A", 0.5), ("B", 0.3), ("C", 0.2)]:
            write_signal_csv(
                SampledSignal(flow.t0_s, flow.dt_s, flow.values * frac, "flow"),
                tmp_path / f"{name}.csv",
            )
        flows = ",".join(str(tmp_path / f"{n}.csv") for n in ("A", "B", "C"))
        out = tmp_path / "report.json"
        assert main(["analyze", "--flow", flows, "--resp", str(dataset / "resp.csv"),
                     "--out", str(out)]) == 0
        report = read_report(out)
        assert [rec.name for rec in report.arteries] == ["A", "B", "C", "CABF_extra"]
        means = [rec.mean_flow_ml_min for rec in report.arteries]
        assert means[:3] == pytest.approx([0.5 * means[3], 0.3 * means[3], 0.2 * means[3]], rel=1e-9)

    def test_repeated_flow_flags(self, dataset, tmp_path):
        flow = read_signal_csv(dataset / "flow.csv", "flow")
        for name in ("L", "R"):
            write_signal_csv(
                SampledSignal(flow.t0_s, flow.dt_s, flow.values * 0.5, "flow"),
                tmp_path / f"{name}.csv",
            )
        out = tmp_path / "r.json"
        rc = main(["analyze", "--flow", str(tmp_path / "L.csv"), "--flow", str(tmp_path / "R.csv"),
                   "--resp", str(dataset / "resp.csv"), "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert [a.name for a in report.arteries] == ["L", "R", "CABF_extra"]

    def test_snr_threshold_flag(self, dataset, tmp_path):
        out = tmp_path / "r.json"
        # impossible threshold flags even a clean signal for exclusion
        rc = main(["analyze", "--flow", str(dataset / "flow.csv"), "--resp", str(dataset / "resp.csv"),
                   "--snr-threshold", "1e12", "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert report.arteries[0].qc.excluded is True
        assert report.config["quality"]["snr_threshold"] == 1e12

    def test_invert_belt_flag(self, dataset, tmp_path):
        resp = read_signal_csv(dataset / "resp.csv", "respiration")
        inverted = tmp_path / "resp_inv.csv"
        write_signal_csv(
            SampledSignal(resp.t0_s, resp.dt_s, -resp.values, "respiration"), inverted
        )
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        main(["analyze", "--flow", str(dataset / "flow.csv"), "--resp", str(dataset / "resp.csv"),
              "--out", str(out_a)])
        main(["analyze", "--flow", str(dataset / "flow.csv"), "--resp", str(inverted),
              "--invert-belt", "--out", str(out_b)])
        a, b = read_report(out_a), read_report(out_b)
        assert a.arteries[0].diff["mean_flow"].max_diff_pct == pytest.approx(
            b.arteries[0].diff["mean_flow"].max_diff_pct, abs=1e-9
        )

    def test_partial_output_removed_on_failure(self, dataset, tmp_path):
        blocker = tmp_path / "plots"
        blocker.write_text("not a directory")
        out = tmp_path / "r.json"
        rc = main(["analyze", "--flow", str(dataset / "flow.csv"), "--resp", str(dataset / "resp.csv"),
                   "--out", str(out), "--plots", str(blocker)])
        assert rc == 3
        assert not out.exists()


class TestReportCommand:
    def test_missing_scan_data_errors(self, tmp_path, capsys):
        """A report without one record's scan exits 3 when it is read, before
        any SVG is written."""
        from rtpc.report import ArteryRecord, DiffRecord, QcFlags, Report

        diff = {p: DiffRecord(diff_at_zero_pct=1.0, max_diff_pct=2.0, argmax_delay_s=0.5,
                              delay_pct=12.5, delays_s=(0.0, 0.5), diff_pct=(1.0, 2.0))
                for p in settings.REPORT_PARAMETERS}
        tree = Report(version="x", config={}, resp_period_s=4.0, arteries=(
            ArteryRecord(name="a", mean_flow_ml_min=1.0, stroke_volume_ml=1.0,
                         cardiac_period_s=1.0, n_cycles=1,
                         qc=QcFlags(cardiac_snr=None, excluded=False), diff=diff),
        )).to_dict()
        del tree["arteries"][0]["diff"]["stroke_volume"]["scan"]
        path = tmp_path / "r.json"
        path.write_text(json.dumps(tree))
        rc = main(["report", "--in", str(path), "--plots", str(tmp_path / "plots")])
        assert rc == 3
        assert capsys.readouterr().err == "rtpc report: error: malformed report: missing field 'scan'\n"
        assert not (tmp_path / "plots").exists()

    def test_clashing_record_names_refused(self, tmp_path, capsys):
        """Records whose SVG names would clash exit 3 with a message naming
        both, before any SVG is written."""
        from rtpc.report import ArteryRecord, DiffRecord, QcFlags, Report, write_report

        diff = {p: DiffRecord(diff_at_zero_pct=1.0, max_diff_pct=2.0, argmax_delay_s=0.5,
                              delay_pct=12.5, delays_s=(0.0, 0.5), diff_pct=(1.0, 2.0))
                for p in settings.REPORT_PARAMETERS}
        path, plots = tmp_path / "r.json", tmp_path / "plots"
        for names, clash in ((("flow", "flow", "x y", "x_y"), "artery 0 ('flow') and artery 1 ('flow') "
                              "give the same record name 'flow'"),
                             (("flow", "x y", "x_y"), "artery 1 ('x y') and artery 2 ('x_y') "
                              "give the same record name 'x_y'")):
            write_report(Report(version="x", config={}, resp_period_s=4.0, arteries=tuple(
                ArteryRecord(name=name, mean_flow_ml_min=1.0, stroke_volume_ml=1.0,
                             cardiac_period_s=1.0, n_cycles=1,
                             qc=QcFlags(cardiac_snr=None, excluded=False), diff=diff)
                for name in names)), path)
            assert main(["report", "--in", str(path), "--plots", str(plots)]) == 3
            assert capsys.readouterr().err == f"rtpc report: error: {path}: {clash}\n"
            assert not plots.exists()


class TestNonUtf8Input:
    """A text input that is not UTF-8 is a format error (exit 3) naming the
    file, not an escaped UnicodeDecodeError."""

    def test_latin1_flow_csv(self, tmp_path, capsys):
        flow = tmp_path / "fl\u00f6w.csv"
        flow.write_bytes("time_s,value\n0.0,1\n# caf\u00e9\n".encode("latin-1"))
        resp = tmp_path / "resp.csv"
        resp.write_text("time_s,value\n" + "".join(f"{i * 0.075},{i % 7}\n" for i in range(200)))
        rc = main(["analyze", "--flow", str(flow), "--resp", str(resp), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(flow) in err and "UTF-8" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_latin1_report_json(self, tmp_path, capsys):
        report = tmp_path / "r\u00e9port.json"
        report.write_bytes('{"version": "caf\u00e9"}'.encode("latin-1"))
        rc = main(["report", "--in", str(report), "--plots", str(tmp_path / "plots")])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(report) in err and "UTF-8" in err
        assert "Traceback" not in err


#: Makes every later scipy import in the interpreter fail.
REFUSE_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, RefuseScipy())
"""

#: Runs `rtpc.cli.main(argv)` with every scipy import refused.
NO_SCIPY_RUNNER = REFUSE_SCIPY + """
import rtpc.cli
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
if loaded:
    sys.exit(f"import rtpc.cli loaded {loaded}")
sys.exit(rtpc.cli.main(sys.argv[1:]) if sys.argv[1:] else 0)
"""


class TestWithoutScipy:
    """simulate --with-images, extract, analyze and report run, and write the
    same bytes, truth.json included, when scipy cannot be imported at all;
    so does Spearman's t approximation."""

    @staticmethod
    def env():
        return {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(rtpc.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}

    @staticmethod
    def commands(config, data, out):
        series = str(data / "series.rtpc")
        return [
            ["simulate", "--config", str(config), "--out-dir", str(out / "sim"), "--with-images"],
            ["extract", "--series", series, "--mask", str(data / "mask.pgm"),
             "--out", str(out / "mask_flow.csv"), "--qc", str(out / "mask_qc.json")],
            ["extract", "--series", series, "--seed", "16,16",
             "--out", str(out / "seed_flow.csv"), "--qc", str(out / "seed_qc.json")],
            ["analyze", "--flow", str(out / "mask_flow.csv"), "--resp", str(data / "resp.csv"),
             "--out", str(out / "report.json"), "--plots", str(out / "plots")],
            ["report", "--in", str(out / "report.json"), "--plots", str(out / "replots")],
        ]

    def test_same_outputs(self, dataset, tmp_path):
        env = self.env()
        proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUNNER], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

        config = dataset.parent / "sim.json"
        with_scipy, without = tmp_path / "with", tmp_path / "without"
        for argv in self.commands(config, dataset, with_scipy):
            with_scipy.mkdir(exist_ok=True)
            assert main(argv) == 0
        for argv in self.commands(config, dataset, without):
            without.mkdir(exist_ok=True)
            proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUNNER, *argv], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr

        files = sorted(p.relative_to(with_scipy) for p in with_scipy.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(without) for p in without.rglob("*") if p.is_file())
        assert len(files) > 10
        assert {Path("sim/truth.json"), Path("sim/series.rtpc")} <= set(files)
        for name in files:
            a, b = (with_scipy / name).read_bytes(), (without / name).read_bytes()
            if name.suffix == ".json" and name.stem == "report":
                a, b = (re.sub(rb'"generated_at": "[^"]*"', b"", x) for x in (a, b))
            assert a == b, name

    def test_spearman_t_approximation(self):
        """spearman on n = 25 runs with every scipy import refused, and its p
        equals scipy's spearmanr within 1e-9."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=25)
        y = x + rng.normal(scale=0.8, size=25)
        code = REFUSE_SCIPY + """
import json
from rtpc.stats import spearman
r = spearman(*json.loads(sys.argv[1]))
print(json.dumps([r.rho, r.p_value, r.method]))
"""
        proc = subprocess.run([sys.executable, "-c", code, json.dumps([x.tolist(), y.tolist()])],
                              env=self.env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rho, p, method = json.loads(proc.stdout)
        ref = scipy.stats.spearmanr(x, y)
        assert method == "t-approximation"
        assert rho == spearman(x, y).rho
        assert p == pytest.approx(ref.pvalue, rel=1e-9)


#: Runs `rtpc.cli.main(argv[2:])` in a fresh interpreter with the top-level
#: packages named in argv[1] (comma-separated) refused, and prints the exit
#: code and every loaded module as the last line of stdout.
FOOTPRINT_RUNNER = """
import json
import sys

class Refuse:
    def __init__(self, packages):
        self.packages = packages

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in self.packages:
            raise ModuleNotFoundError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, Refuse(set(filter(None, sys.argv[1].split(",")))))
import rtpc
import rtpc.cli
code = rtpc.cli.main(sys.argv[2:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def footprint(argv, refuse=()):
    """(exit code, loaded module names, stdout) of one command in a fresh interpreter."""
    result, stdout = run_fresh(FOOTPRINT_RUNNER, ",".join(refuse), *argv)
    return result["code"], set(result["modules"]), stdout


class TestImportFootprint:
    """Each command imports only the modules it runs: the command-line shell
    and `report` run with numpy refused, and no command loads another
    command's modules or concurrent.futures."""

    @pytest.mark.parametrize("argv, code", [
        (["--version"], 0),
        (["--help"], 0),
        ([], 2),
        (["analyze", "--flow", "flow.csv"], 2),
    ], ids=["version", "help", "no-command", "missing-option"])
    def test_shell_runs_without_numpy(self, argv, code):
        got, modules, stdout = footprint(argv, refuse=("numpy",))
        assert got == code
        assert not {m for m in modules if m.partition(".")[0] == "numpy"}
        if argv == ["--help"]:
            assert "extract" in stdout and "report" in stdout

    def test_report_without_numpy_same_svgs(self, dataset, tmp_path):
        report, plots, replots = tmp_path / "report.json", tmp_path / "plots", tmp_path / "replots"
        assert main(["analyze", "--flow", str(dataset / "flow.csv"), "--resp", str(dataset / "resp.csv"),
                     "--out", str(report)]) == 0
        assert main(["report", "--in", str(report), "--plots", str(plots)]) == 0
        code, modules, _ = footprint(["report", "--in", report, "--plots", replots], refuse=("numpy",))
        assert code == 0
        assert "rtpc.io" not in modules
        names = sorted(p.name for p in plots.iterdir())
        assert len(names) == 3
        assert names == sorted(p.name for p in replots.iterdir())
        for name in names:
            assert (plots / name).read_bytes() == (replots / name).read_bytes(), name

    def test_commands_load_only_their_modules(self, dataset, tmp_path):
        series, flow, resp = dataset / "series.rtpc", dataset / "flow.csv", dataset / "resp.csv"
        report = tmp_path / "report.json"
        not_run = {
            "extract": {"rtpc.cycles", "rtpc.diff", "rtpc.respiration", "rtpc.synthgen", "rtpc.stats"},
            "analyze": {"rtpc.synthgen", "rtpc.stats"},
            "simulate": {"rtpc.extraction", "rtpc.cycles", "rtpc.diff", "rtpc.stats"},
            "report": {"numpy", "rtpc.io"},
        }
        runs = [
            ["extract", "--series", series, "--mask", dataset / "mask.pgm",
             "--out", tmp_path / "mask.csv", "--qc", tmp_path / "mask_qc.json"],
            ["extract", "--series", series, "--seed", "16,16", "--out", tmp_path / "seed.csv"],
            ["analyze", "--flow", flow, "--resp", resp, "--out", report, "--plots", tmp_path / "p"],
            ["simulate", "--config", dataset.parent / "sim.json", "--out-dir", tmp_path / "sim",
             "--with-images"],
            ["report", "--in", report, "--plots", tmp_path / "replots"],
        ]
        for argv in runs:
            code, modules, _ = footprint(argv)
            assert code == 0, argv
            assert not modules & not_run[argv[0]], argv
            assert "concurrent.futures" not in modules, argv

    def test_load_only_what_each_run_needs(self, dataset, tmp_path):
        """No command loads numpy.ma, and only a command that draws loads
        svgplot. datetime, which numpy loads anyway, stays out of the
        numpy-free runs."""
        series, flow, resp = dataset / "series.rtpc", dataset / "flow.csv", dataset / "resp.csv"
        report = tmp_path / "report.json"
        runs = [
            (["--version"], set()),
            (["extract", "--series", series, "--mask", dataset / "mask.pgm",
              "--out", tmp_path / "mask.csv", "--qc", tmp_path / "mask_qc.json"], set()),
            (["extract", "--series", series, "--seed", "16,16", "--out", tmp_path / "seed.csv",
              "--qc", tmp_path / "seed_qc.json"], set()),
            (["analyze", "--flow", flow, "--resp", resp, "--out", report], set()),
            (["analyze", "--flow", f"{flow},{tmp_path / 'mask.csv'}", "--resp", resp,
              "--out", tmp_path / "sum.json", "--plots", tmp_path / "p"], {"rtpc.svgplot"}),
            (["report", "--in", report, "--plots", tmp_path / "replots"], {"rtpc.svgplot"}),
        ]
        for argv, loads in runs:
            code, modules, _ = footprint(argv)
            assert code == 0, argv
            assert "numpy.ma" not in modules, argv
            assert modules & {"rtpc.svgplot"} == loads, argv
            if "numpy" not in modules:
                assert "datetime" not in modules, argv


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rtpc", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "extract" in proc.stdout and "analyze" in proc.stdout

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"rtpc {rtpc.__version__}\n"

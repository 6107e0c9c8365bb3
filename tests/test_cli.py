import json
import os
import re
import struct
import importlib
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import rtpc

from rtpc import cli, io
from rtpc.cli import main
from rtpc.errors import EmptySegmentation, InsufficientStationaryTissue, SeedOutsideVessel
from rtpc.extraction import (
    RoiSeries,
    compute_flow,
    correct_background,
    quality_score,
    roi_window,
    segment_roi,
    unalias,
)
from rtpc.io import (
    MAGIC,
    RoiMask,
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
from rtpc.numerics import COMPONENT_START_HALF_PX, seed_window
from rtpc.report import read_report
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
        periods = [c.params.cardiac_period_s for c in cycles if c.valid]
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
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--series", str(dataset / "series.rtpc"),
                  "--mask", str(dataset / "mask.pgm"), "--seed", "16,16",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


def write_raw_series(path, frames, venc=800.0):
    """An RTPC1 file holding frames as they are, non-finite values included."""
    n, h, w = frames.shape
    head = MAGIC + struct.pack("<III", w, h, n) + struct.pack("<fff", 75.0, venc, 0.25)
    path.write_bytes(head + np.asarray(frames, dtype="<f4").tobytes())
    return path


class TestExtractOptions:
    """Out-of-range extract options exit 2 with a message naming the option.
    They are checked before the payload is read: the payload here holds a NaN,
    which reading would report with exit 3."""

    @pytest.mark.parametrize("option, value", [
        ("--seed", "500,500"), ("--seed", "40,0"), ("--seed", "0,40"), ("--seed=-1,3", None),
        ("--threshold-fraction", "0"), ("--threshold-fraction", "1.5"),
        ("--threshold-fraction", "nan"),
        ("--max-radius-px", "nan"), ("--max-radius-px", "-1"), ("--max-radius-px", "inf"),
        ("--venc", "nan"), ("--venc", "inf"),
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
        write_mask(RoiMask(member), tmp_path / "m.pgm")
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
        write_mask(RoiMask(np.zeros((20, 20), dtype=bool)), mask)
        for extra in ([], ["--no-background-correction", "--no-unalias"]):
            rc = main(["extract", "--series", str(series), "--mask", str(mask), *extra,
                       "--out", str(tmp_path / "x.csv")])
            assert rc == EmptySegmentation.exit_code == 4
            assert capsys.readouterr().err == f"rtpc extract: error: mask {mask} has no member pixel\n"
            assert not (tmp_path / "x.csv").exists()

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


class TestAnalyzeOptions:
    """Out-of-range analyze options exit 2 with a message naming the option,
    before any file is read: the input files here do not exist, which reading
    would report with exit 3."""

    @pytest.mark.parametrize("option, value", [
        ("--delay-step-ms", "0"), ("--delay-step-ms", "-5"), ("--delay-step-ms", "nan"),
        ("--delay-step-ms", "inf"),
        ("--min-cycles", "0"), ("--min-cycles", "-1"),
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


def full_frame_extract(series_path, mask_path=None, seed=None, background=True, unwrap=True):
    """The extraction chain on whole frames, with the QC payload `rtpc extract` writes."""
    series = read_velocity_series(series_path)
    if mask_path is not None:
        mask = read_mask(mask_path, series.width, series.height)
        roi = RoiSeries.from_static(mask, series.n_frames)
    else:
        roi = segment_roi(series, seed=seed)
    offset = n_band = n_unaliased = None
    if background:
        series, estimate = correct_background(series, roi)
        offset, n_band = estimate.offset_mm_s, estimate.n_band_pixels
    if unwrap:
        before = series.frames
        series, _ = unalias(series, roi)
        n_unaliased = int(np.count_nonzero(series.frames != before))
    flow = compute_flow(series, roi)
    qc = quality_score(flow)
    return flow, {
        "cardiac_snr": qc.cardiac_snr,
        "excluded": qc.excluded,
        "empty_roi_frames": roi.n_empty_frames(),
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
    union = segment_roi(wide.to_series(), seed=(64, 64)).union()
    first = seed_window(64, 64, COMPONENT_START_HALF_PX, 128, 128)
    assert union.sum() > union[first].sum()  # the seed window must widen

    ragged, ragged_mask, ragged_truth = generate_velocity_series(SimConfig.from_dict({
        "duration_s": 30.0, "artifacts": artifacts, "seed": 12,
        "vessel": {"grid": {"width": 64, "height": 64}},
    }))
    assert ragged_truth.wrapped_pixels
    chunks = list(frame_chunks(ragged.n_frames, ragged.height, ragged.width))
    assert len(chunks) > 1 and chunks[-1].stop - chunks[-1].start < chunks[0].stop

    return {
        "centred": (write_images(root / "centred", series, mask), "16,16"),
        "edge": (write_images(root / "edge", edge, RoiMask(mask.membership[cut])), "4,4"),
        "wide": (write_images(root / "wide", wide, wide_mask), "64,64"),
        "ragged": (write_images(root / "ragged", ragged, ragged_mask), "32,32"),
    }


class TestExtractMatchesFullFrame:
    """`rtpc extract` works on a window around the ROI; its outputs must be
    those of the chain run on whole frames."""

    @pytest.mark.parametrize("flags", [
        (), ("--no-background-correction",), ("--no-unalias",),
        ("--no-background-correction", "--no-unalias"),
    ])
    @pytest.mark.parametrize("source", ["mask", "seed"])
    @pytest.mark.parametrize("name", ["centred", "edge", "wide", "ragged"])
    def test_same_csv_and_qc(self, crop_datasets, tmp_path, name, source, flags):
        data, seed = crop_datasets[name]
        roi_args = ["--mask", str(data / "mask.pgm")] if source == "mask" else ["--seed", seed]
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
        data = write_images(tmp_path / "tiny", series, RoiMask(member))
        with pytest.raises(InsufficientStationaryTissue) as library:
            correct_background(series, RoiSeries.from_static(RoiMask(member), series.n_frames))
        capsys.readouterr()
        out = tmp_path / "flow.csv"
        rc = main(["extract", "--series", str(data / "series.rtpc"),
                   "--mask", str(data / "mask.pgm"), "--out", str(out)])
        assert rc == library.value.exit_code == 4
        assert capsys.readouterr().err == f"rtpc extract: error: {library.value}\n"
        assert not out.exists()


class TestSeededExtractReads:
    """`extract --seed` reads the series once per seed window it segments on:
    once, plus once per doubling, and runs the chain on the last read."""

    @pytest.mark.parametrize("name", ["centred", "wide"])
    def test_one_read_per_window(self, crop_datasets, tmp_path, monkeypatch, name):
        data, seed = crop_datasets[name]
        sx, sy = (int(v) for v in seed.split(","))
        whole = read_velocity_series(data / "series.rtpc")
        need = roi_window(segment_roi(whole, seed=(sx, sy)).union())
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
    """extract allocates the ROI window it reads once: background correction
    and unaliasing overwrite it in place. Traced in process, the command's
    allocation peak stays below 1.6 windows plus one read chunk. Measured on
    this dataset: 1.01 (--mask) and 1.01 (--seed) windows plus a chunk. A
    band median taken on one gather of the band read 1.01 and 1.05, and code
    that copied the window in correct_background or unalias 2.61 and 2.23."""

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
        artery = report.arteries[0]
        assert artery.name == "flow"
        assert artery.mean_flow_ml_min == pytest.approx(740.0 * 1.05, rel=0.03)
        assert artery.n_cycles > 50
        assert artery.diff["mean_flow"].max_pct == pytest.approx(10.0, abs=2.0)

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
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--flow", str(dataset / "flow.csv"), "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2

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
        assert a.arteries[0].diff["mean_flow"].max_pct == pytest.approx(
            b.arteries[0].diff["mean_flow"].max_pct, abs=1e-9
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
    def test_missing_scan_data_errors(self, tmp_path):
        from rtpc.report import ArteryRecord, DiffRecord, QcFlags, Report, write_report

        diff = {p: DiffRecord(at_zero_pct=1.0, max_pct=2.0, delay_s=0.0, delay_pct=0.0)
                for p in ("mean_flow", "stroke_volume", "cardiac_period")}
        report = Report(version="x", config={}, resp_period_s=4.3, arteries=(
            ArteryRecord(name="a", mean_flow_ml_min=1.0, stroke_volume_ml=1.0,
                         cardiac_period_s=1.0, n_cycles=1,
                         qc=QcFlags(cardiac_snr=None, excluded=False), diff=diff),
        ))
        path = tmp_path / "r.json"
        write_report(report, path)
        rc = main(["report", "--in", str(path), "--plots", str(tmp_path / "plots")])
        assert rc == 3


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


#: Runs `rtpc.cli.main(argv)` with every scipy import refused.
NO_SCIPY_RUNNER = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, RefuseScipy())
import rtpc.cli
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
if loaded:
    sys.exit(f"import rtpc.cli loaded {loaded}")
sys.exit(rtpc.cli.main(sys.argv[1:]) if sys.argv[1:] else 0)
"""


class TestWithoutScipy:
    """simulate --with-images, extract, analyze and report run, and write the
    same bytes, truth.json included, when scipy cannot be imported at all."""

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
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(rtpc.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
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
try:
    code = rtpc.cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
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


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rtpc", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "extract" in proc.stdout and "analyze" in proc.stdout

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

import dataclasses
import functools
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn, gammainc

from helpers import images, signals
from oracles import simulated_flow, wrapped_member_values

from rtpc import io
from rtpc.errors import InvalidConfig
from rtpc.extraction import compute_flow, roi_values
from rtpc.io import MAGIC, read_signal_csv, write_signal_csv, write_velocity_series
from rtpc.respiration import detect_resp_intervals
from rtpc.synthgen import (
    _pulse_norm,
    SimConfig,
    WaveformConfig,
    generate_signals,
    generate_velocity_series,
    pulse_waveform,
)


def roi_flow(series, roi):
    return compute_flow(roi_values(series, roi), series.pixel_area_mm2, series.dt_s)


def with_field(config, key: str, value):
    """config with the field at a dotted key set to value, built by
    dataclasses.replace alone, so nothing but validate() checks it."""
    name, _, rest = key.partition(".")
    if rest:
        value = with_field(getattr(config, name), rest, value)
    return dataclasses.replace(config, **{name: value})


class TestSimConfig:
    def test_defaults_valid(self):
        SimConfig().validate()

    def test_dict_round_trip(self):
        cfg = SimConfig.from_dict({"duration_s": 120.0, "modulation": {"mean_flow_pct": 5.0}})
        again = SimConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert cfg.duration_s == 120.0
        assert cfg.modulation.mean_flow_pct == 5.0
        assert cfg.cardiac.base_period_s == 0.94  # default preserved
        # Every field away from its default, so a field the loader drops shows.
        everything = {
            "duration_s": 90.0,
            "dt_ms": 50.0,
            "cardiac": {
                "base_period_s": 1.1,
                "base_mean_flow_ml_min": 500.0,
                "waveform": {"shape": 2.5, "scale": 0.2, "floor": 0.25},
            },
            "respiration": {"period_s": 5.0, "belt_waveform": "rounded-square"},
            "modulation": {"mean_flow_pct": -5.0, "period_pct": 3.0, "shape": "sine", "sensor_delay_s": 0.6},
            "artifacts": {"eddy_offset_mm_s": 2.0, "aliased_pixel_fraction": 0.2, "noise_sd": 4.0},
            "vessel": {
                "radius_px": 5.0,
                "grid": {"width": 40, "height": 36},
                "venc_mm_s": 800.0,
                "pixel_area_mm2": 0.5,
            },
            "seed": 11,
        }

        def leaves(tree, prefix=""):
            for key, value in tree.items():
                if isinstance(value, dict):
                    yield from leaves(value, prefix + key + ".")
                else:
                    yield prefix + key, value

        defaults = dict(leaves(SimConfig().to_dict()))
        assert dict(leaves(everything)).keys() == defaults.keys()
        assert all(defaults[k] != v for k, v in leaves(everything))
        cfg = SimConfig.from_dict(everything)
        assert cfg.to_dict() == everything
        assert SimConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_partial_merge(self):
        cfg = SimConfig.from_dict({"cardiac": {"base_period_s": 1.0}})
        assert cfg.cardiac.base_period_s == 1.0
        assert cfg.cardiac.base_mean_flow_ml_min == 740.0

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig):
            SimConfig.from_dict({"durationz": 60.0})
        with pytest.raises(InvalidConfig):
            SimConfig.from_dict({"cardiac": {"bpm": 60}})
        with pytest.raises(InvalidConfig, match="unknown config key 'vessel.peak_velocity_mm_s'"):
            SimConfig.from_dict({"vessel": {"peak_velocity_mm_s": 760.0}})

    def test_too_short_duration(self):
        with pytest.raises(InvalidConfig):
            SimConfig.from_dict({"duration_s": 5.0}).validate()

    def test_modulation_bounds(self):
        with pytest.raises(InvalidConfig):
            SimConfig.from_dict({"modulation": {"mean_flow_pct": 60.0}})
        with pytest.raises(InvalidConfig):
            SimConfig.from_dict({"modulation": {"period_pct": -50.0}})

    def test_bad_shapes(self):
        with pytest.raises(InvalidConfig):
            SimConfig.from_dict({"modulation": {"shape": "triangle"}})
        with pytest.raises(InvalidConfig):
            SimConfig.from_dict({"respiration": {"belt_waveform": "saw"}})
        # Values of the wrong JSON type are rejected, never coerced.
        for bad, key in [
            ({"seed": 2.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"vessel": {"grid": {"width": 40.7}}}, "vessel.grid.width"),
            ({"duration_s": "abc"}, "duration_s"),
            ({"duration_s": None}, "duration_s"),
            ({"duration_s": False}, "duration_s"),
            ({"duration_s": float("nan")}, "duration_s"),
            ({"duration_s": 10**400}, "duration_s"),
            ({"modulation": {"shape": 1}}, "modulation.shape"),
            ({"cardiac": 3}, "cardiac"),
        ]:
            with pytest.raises(InvalidConfig, match=f"config key '{key}' must be"):
                SimConfig.from_dict(bad)

    @pytest.mark.parametrize("key, value", [
        ("cardiac.base_period_s", math.nan),  # generate_signals would never return
        ("modulation.sensor_delay_s", math.nan),  # every cycle IN, the modulation lost
        ("artifacts.noise_sd", math.nan),  # the noise silently skipped
        ("duration_s", math.inf),
        ("dt_ms", math.nan),
        ("cardiac.base_mean_flow_ml_min", math.inf),
        ("cardiac.waveform.floor", -math.inf),
        ("vessel.venc_mm_s", math.inf),
        ("seed", 1.0),
        ("seed", True),
        ("vessel.grid.width", 32.0),
        ("cardiac", None),
    ])
    def test_direct_config_checked_like_from_dict(self, key, value):
        """A config built without from_dict is refused by validate() with the
        key named as from_dict names it."""
        with pytest.raises(InvalidConfig, match=f"config key '{key}' must be"):
            with_field(SimConfig(), key, value).validate()
        default = functools.reduce(getattr, key.split("."), SimConfig())
        with_field(SimConfig(), key, default).validate()

    def test_from_json(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"duration_s": 60.0, "seed": 3}))
        cfg = SimConfig.from_json(path)
        assert cfg.duration_s == 60.0 and cfg.seed == 3
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(InvalidConfig):
            SimConfig.from_json(tmp_path / "bad.json")
        (tmp_path / "latin1.json").write_bytes('{"duration_s": 60.0, "x": "é"}'.encode("latin-1"))
        with pytest.raises(InvalidConfig):
            SimConfig.from_json(tmp_path / "latin1.json")


class TestPulseWaveform:
    def test_unit_mean(self):
        u = np.linspace(0.0, 1.0, 200001)
        assert np.trapezoid(pulse_waveform(u, WaveformConfig()), u) == pytest.approx(1.0, abs=1e-6)

    def test_minimum_at_boundary(self):
        u = np.linspace(0.0, 1.0, 10001)
        w = pulse_waveform(u, WaveformConfig())
        assert np.argmin(w) == 0
        assert w[-1] == pytest.approx(w[0], rel=1e-12)  # tapered back to the floor

    def test_systolic_asymmetry(self):
        u = np.linspace(0.0, 1.0, 10001)
        w = pulse_waveform(u, WaveformConfig())
        assert u[np.argmax(w)] < 0.5  # fast upstroke, slow decay


def scipy_pulse_norm(shape: float, scale: float) -> float:
    """The pulse normalisation in scipy.special's terms, the oracle."""
    norm = scale**shape * gamma_fn(shape) * gammainc(shape, 1.0 / scale)
    norm -= scale ** (shape + 4) * gamma_fn(shape + 4) * gammainc(shape + 4, 1.0 / scale)
    return float(norm)


#: Largest relative difference from scipy allowed. Measured: at most 2.9e-12
#: over 1.2 M points of shape (1, 60], scale [1e-3, 1e2], largest where the
#: two terms cancel (shape > 50, scale > 5). mpmath at 50 digits puts scipy's
#: own error there at up to 1.7e-12 and the math-only form's at 1.2e-14.
NORM_REL_BOUND = 4e-12


class TestPulseNormMatchesScipy:
    def test_default_waveform_within_one_ulp(self):
        expected = scipy_pulse_norm(3.0, 0.18)
        assert abs(_pulse_norm(3.0, 0.18) - expected) <= math.ulp(expected)

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.floats(1.0, 60.0, exclude_min=True),
        scale=st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
    )
    def test_relative_difference_bound(self, shape, scale):
        with np.errstate(all="ignore"):
            expected = scipy_pulse_norm(shape, scale)
        assume(math.isfinite(expected) and expected > 0.0)
        assert abs(_pulse_norm(shape, scale) - expected) <= NORM_REL_BOUND * expected

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.floats(1.0, 1e6, exclude_min=True),
        scale=st.floats(0.0, 1e300, exclude_min=True),
    )
    def test_finite_positive_or_invalid_config(self, shape, scale):
        """No OverflowError or other arithmetic error escapes, on any shape
        and scale the config accepts."""
        try:
            norm = _pulse_norm(shape, scale)
        except InvalidConfig as exc:
            assert "cardiac.waveform" in str(exc)
        else:
            assert math.isfinite(norm) and norm > 0.0


class TestGenerateSignals:
    def test_deterministic(self):
        cfg = SimConfig.from_dict({"duration_s": 60.0, "artifacts": {"noise_sd": 30.0}, "seed": 9})
        a = generate_signals(cfg)
        b = generate_signals(cfg)
        assert np.array_equal(a.flow.values, b.flow.values)
        assert np.array_equal(a.resp.values, b.resp.values)
        assert a.truth.to_dict() == b.truth.to_dict()

    def test_seed_changes_noise(self):
        base = {"duration_s": 60.0, "artifacts": {"noise_sd": 30.0}}
        a = generate_signals(SimConfig.from_dict({**base, "seed": 1}))
        b = generate_signals(SimConfig.from_dict({**base, "seed": 2}))
        assert not np.array_equal(a.flow.values, b.flow.values)

    def test_zero_modulation_cycles_identical(self):
        _, _, truth = signals(duration_s=60.0, seed=5)
        assert (truth.params == truth.params[:, :1]).all()

    def test_square_modulation_exact_ratio(self):
        _, _, truth = signals(duration_s=300.0, modulation={"mean_flow_pct": 10.0, "shape": "square"})
        mf, phase = truth.params[0], truth.phase
        ratio = mf[phase == "EX"].mean() / mf[phase == "IN"].mean()
        assert ratio == pytest.approx(1.10, abs=1e-12)

    def test_reference_anchors(self):
        flow, resp, truth = signals(duration_s=60.0, seed=5)
        assert flow.values.mean() == pytest.approx(740.0, rel=0.01)
        intervals = detect_resp_intervals(resp)
        assert intervals.mean_period_s == pytest.approx(4.3, abs=0.05)
        assert np.mean(truth.params[2]) == pytest.approx(0.94, abs=1e-9)

    def test_truth_consistency(self):
        _, _, truth = signals(duration_s=60.0, seed=5)
        mean_flow, stroke_volume, period = truth.params
        assert (truth.end_s > truth.start_s).all()
        assert (stroke_volume == mean_flow * period / 60.0).all()
        assert np.array_equal(truth.end_s[:-1], truth.start_s[1:])
        bounds = np.append(truth.start_s, truth.end_s[-1])
        assert (np.diff(bounds) > 0).all()
        for array in (truth.start_s, truth.end_s, truth.phase, truth.params):
            assert not array.flags.writeable

    def test_sensor_delay_shifts_modulation_not_belt(self):
        a = signals(duration_s=60.0, modulation={"mean_flow_pct": 10.0, "shape": "square"})
        delayed = signals(duration_s=60.0,
                          modulation={"mean_flow_pct": 10.0, "shape": "square", "sensor_delay_s": 1.2})
        assert np.array_equal(a.resp.values, delayed.resp.values)  # belt undelayed
        assert not np.array_equal(a.flow.values, delayed.flow.values)

    def test_sine_modulation_runs(self):
        flow, _, truth = signals(duration_s=60.0, modulation={"mean_flow_pct": 10.0, "shape": "sine"})
        mf = truth.params[0]
        assert mf.min() >= 740.0 - 1e-9
        assert mf.max() <= 814.0 + 1e-9

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_scalar_modulation_matches_waveforms(self, data):
        """Each cycle's modulation, evaluated on one Python float, gives the
        flow and truth that modulation_waveform and is_expiratory give on a
        0-d array, bit for bit: quarter-breath delays put cycle midpoints on
        the EX/IN edges, and negative times exercise the floor-mod."""
        resp_period = data.draw(st.sampled_from([4.3, 4.0, 3.0]) | st.floats(1.0, 8.0))
        delay = data.draw(st.integers(0, 12).map(lambda q: q * resp_period / 4)
                          | st.floats(0.0, 10.0))
        cfg = SimConfig.from_dict({
            "duration_s": max(6.0, 2.0 * resp_period) + data.draw(st.floats(0.0, 60.0)),
            "dt_ms": data.draw(st.sampled_from([75.0, 50.0, 20.0]) | st.floats(5.0, 100.0)),
            "cardiac": {"base_period_s": data.draw(st.sampled_from([1.0, 0.5]) | st.floats(0.3, 2.0))},
            "respiration": {"period_s": resp_period},
            "modulation": {
                "mean_flow_pct": data.draw(st.floats(-49.9, 49.9)),
                "period_pct": data.draw(st.sampled_from([0.0, 5.0]) | st.floats(-49.9, 49.9)),
                "shape": data.draw(st.sampled_from(["square", "sine"])),
                "sensor_delay_s": delay,
            },
        })
        flow, _, truth = generate_signals(cfg)
        values, cycles = simulated_flow(cfg)
        assert np.array_equal(flow.values.view(np.uint64), values.view(np.uint64))
        mean_flow, _, period = truth.params.tolist()
        got = list(zip(truth.start_s.tolist(), truth.end_s.tolist(), truth.phase.tolist(),
                       mean_flow, period))
        assert got == cycles[1 : len(got) + 1]
        assert len(got) == len(cycles) - 2  # all but the lead-in and the unfinished last
        # The manifest's cycles, each stroke volume by per-cycle Python
        # arithmetic; json.dumps writes each float's repr, so bit for bit.
        expected = [
            {"start_s": start, "end_s": end, "phase": phase, "mean_flow_ml_min": scale,
             "stroke_volume_ml": scale * cycle_period / 60.0, "cardiac_period_s": cycle_period}
            for start, end, phase, scale, cycle_period in cycles[1:-1]
        ]
        assert json.dumps(truth.to_dict()["cycles"]) == json.dumps(expected)

    def test_rounded_square_belt(self):
        flow, resp, _ = signals(duration_s=60.0, respiration={"period_s": 4.3, "belt_waveform": "rounded-square"})
        intervals = detect_resp_intervals(resp)
        assert intervals.mean_period_s == pytest.approx(4.3, abs=0.1)


class TestGenerateVelocitySeries:
    def test_deterministic_bit_identical(self):
        cfg = SimConfig.from_dict({"duration_s": 60.0, "artifacts": {"aliased_pixel_fraction": 0.1}, "seed": 3})
        a = generate_velocity_series(cfg)
        b = generate_velocity_series(cfg)
        assert a.series.to_series().frames.tobytes() == b.series.to_series().frames.tobytes()
        assert a.truth.to_dict() == b.truth.to_dict()

    def test_flow_conservation(self):
        flow = signals(duration_s=60.0, seed=5).flow
        series, mask, _ = images(duration_s=60.0, seed=5)
        recovered = roi_flow(series, mask)
        rel = np.abs(recovered.values - flow.values) / np.abs(flow.values)
        assert rel.max() <= 1e-5  # frozen discretization tolerance (float32 storage)

    def test_eddy_bias_linearity(self):
        clean, mask, _ = images(duration_s=60.0, seed=5)
        eddy, _, truth = images(duration_s=60.0, seed=5, artifacts={"eddy_offset_mm_s": 3.0})
        bias = roi_flow(eddy, mask).values - roi_flow(clean, mask).values
        expected = 0.06 * 0.25 * 3.0 * mask.sum()
        assert bias == pytest.approx(expected, rel=1e-4)
        assert truth.eddy_offset_mm_s == 3.0

    def test_wrapped_pixels_recorded_and_above_limit(self):
        series, mask, truth = images(duration_s=60.0, seed=5,
                                     artifacts={"aliased_pixel_fraction": 0.1})
        assert len(truth.wrapped_pixels) > 0
        clean, _, _ = images(duration_s=60.0, seed=5)
        for t, y, x in truth.wrapped_pixels[:200]:
            assert clean.frames[t, y, x] > series.venc_mm_s
            assert series.frames[t, y, x] == np.float32(
                clean.frames[t, y, x] - np.float32(2.0 * series.venc_mm_s)
            )

    def test_mask_is_disk(self):
        _, mask, _ = images(duration_s=60.0, seed=5)
        yy, xx = np.mgrid[0 : mask.shape[0], 0 : mask.shape[1]]
        dist = np.sqrt((xx - 16) ** 2 + (yy - 16) ** 2)
        assert np.array_equal(mask, dist <= 6.0)

    def test_nominal_peak_recorded(self):
        _, _, truth = images(duration_s=60.0, seed=5)
        assert truth.nominal_peak_velocity_mm_s == pytest.approx(761.0, abs=5.0)

    def test_radius_too_small(self):
        with pytest.raises(InvalidConfig):
            generate_velocity_series(SimConfig.from_dict({"duration_s": 60.0, "vessel": {"radius_px": 1.0}}))

    def test_grid_too_small(self):
        with pytest.raises(InvalidConfig):
            generate_velocity_series(
                SimConfig.from_dict({"duration_s": 60.0, "vessel": {"grid": {"width": 16, "height": 16}}})
            )

    def test_header_metadata(self):
        series, _, _ = images(duration_s=60.0, seed=5)
        assert series.dt_ms == 75.0
        assert series.venc_mm_s == 1000.0
        assert series.pixel_area_mm2 == 0.25

    @pytest.mark.parametrize("fraction, venc, grid, wraps", [
        (0.0, 1000.0, 32, False),
        (0.3, 1000.0, 32, True),
        (1.0, 1000.0, 32, True),
        (0.5, 1e5, 32, False),  # no pixel exceeds venc
        (0.5, 1000.0, 64, True),  # 800 frames: chunks of 256, the last of 32
    ], ids=["fraction0", "fraction0.3", "fraction1", "venc-above-all", "short-last-chunk"])
    def test_wrap_draw_matches_per_frame_oracle(self, fraction, venc, grid, wraps):
        """The member values and wrapped pixels are those of the per-frame draw
        on the unwrapped values, bit for bit. Where pixels wrap, some frames
        wrap none, so the frames that skip the draw are covered too."""
        config = {"duration_s": 60.0, "seed": 4, "artifacts": {"noise_sd": 4.0},
                  "vessel": {"venc_mm_s": venc, "grid": {"width": grid, "height": grid}}}
        clean = generate_velocity_series(SimConfig.from_dict(config)).series
        config["artifacts"]["aliased_pixel_fraction"] = fraction
        series, mask, truth = generate_velocity_series(SimConfig.from_dict(config))
        if grid == 64:
            chunks = list(io.frame_chunks(series.n_frames, grid, grid))
            assert len(chunks) > 1 and chunks[-1].stop - chunks[-1].start < chunks[0].stop
        values, wrapped = wrapped_member_values(clean.member_values, mask, venc, fraction, seed=4)
        assert series.member_values.tobytes() == values.tobytes()
        assert truth.wrapped_pixels == wrapped
        n_frames_wrapped = len({t for t, _y, _x in wrapped})
        assert (0 < n_frames_wrapped < series.n_frames) if wraps else n_frames_wrapped == 0

    @pytest.mark.parametrize("chunk_frames", [None, 7, 1])
    @pytest.mark.parametrize("eddy", [0.0, 3.0])
    def test_float32_render_and_write_match_float64_reference(self, eddy, chunk_frames, tmp_path,
                                                               monkeypatch):
        cfg = SimConfig.from_dict({
            "duration_s": 20.0,
            "artifacts": {"eddy_offset_mm_s": eddy, "aliased_pixel_fraction": 0.3, "noise_sd": 4.0},
            "seed": 9,
        })
        series, mask, truth = generate_velocity_series(cfg)
        # Reference: render the whole series in float64, then cast once.
        flow = generate_signals(cfg).flow
        vessel = cfg.vessel
        h, w = vessel.grid.height, vessel.grid.width
        yy, xx = np.mgrid[0:h, 0:w]
        dist = np.sqrt((xx - w // 2) ** 2 + (yy - h // 2) ** 2)
        member = dist <= vessel.radius_px
        profile = np.zeros((h, w))
        profile[member] = 1.0 - (dist[member] / (vessel.radius_px + 0.5)) ** 2
        target_sums = flow.values / (0.06 * vessel.pixel_area_mm2)
        frames = np.zeros((len(flow), h, w))
        frames[:, member] = np.outer(target_sums / float(profile[member].sum()), profile[member])
        if eddy != 0.0:
            frames += eddy
        expected = frames.astype(np.float32)
        assert truth.wrapped_pixels
        for t, y, x in truth.wrapped_pixels:
            expected[t, y, x] -= np.float32(2.0 * vessel.venc_mm_s)
        frames = series.to_series().frames
        assert frames.dtype == np.float32
        assert frames.tobytes() == expected.tobytes()
        assert np.array_equal(mask, member)

        if chunk_frames is not None:
            # chunks() then reuses its render buffer across several chunks,
            # the last one short unless a chunk is one frame; to_series renders
            # through the same chunks.
            monkeypatch.setattr(io, "SERIES_CHUNK_BYTES", chunk_frames * 4 * h * w)
            assert len(flow) > 2 * chunk_frames and (chunk_frames == 1 or len(flow) % chunk_frames)
            assert series.to_series().frames.tobytes() == expected.tobytes()
        path = tmp_path / "series.rtpc"
        write_velocity_series(series, path)
        header = MAGIC + struct.pack("<III", w, h, len(flow))
        header += struct.pack("<fff", series.dt_ms, series.venc_mm_s, series.pixel_area_mm2)
        assert path.read_bytes() == header + frames.astype("<f4").tobytes()


class TestPipelineClosure:
    def test_noiseless_closure(self):
        # full analysis on clean synthetic output: exact cycle count, Diff and
        # delay within stated tolerances
        from rtpc.cycles import detect_cycles
        from rtpc.diff import delay_scan

        flow, resp, truth = signals(
            duration_s=300.0, modulation={"mean_flow_pct": 10.0, "shape": "square"}
        )
        cycles = detect_cycles(flow)
        assert len(cycles) == truth.start_s.size
        intervals = detect_resp_intervals(resp)
        scan = delay_scan(cycles, intervals, "mean_flow")
        assert abs(scan.max_diff_pct - 10.0) <= 1.5
        period = intervals.mean_period_s
        assert scan.argmax_delay_s <= 0.47 or scan.argmax_delay_s >= period - 0.47

    def test_csv_round_trip_of_generated_signals(self, tmp_path):
        flow, resp, _ = signals(duration_s=60.0, seed=5)
        write_signal_csv(flow, tmp_path / "flow.csv")
        write_signal_csv(resp, tmp_path / "resp.csv")
        flow2 = read_signal_csv(tmp_path / "flow.csv", "flow")
        resp2 = read_signal_csv(tmp_path / "resp.csv", "respiration")
        assert np.abs(flow2.values - flow.values).max() <= 1e-6
        assert flow2.dt_s == pytest.approx(flow.dt_s, rel=1e-9)
        assert len(resp2) == len(resp)

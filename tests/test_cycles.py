from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from helpers import match_boundaries, signals
from oracles import (CycleBoundary, cardiac_period_2n, cycle_params, cycles_of, spaced_positions,
                     thomas_resample)

from rtpc import cycles
from rtpc.cycles import CycleTable, _select_minima, detect_cycles, resample
from rtpc.errors import DegenerateCycle, NoCyclesFound, TooShort
from rtpc.io import SampledSignal
from rtpc.report import PERIOD_BAND_S, UPSAMPLE_FACTOR
from rtpc.synthgen import SimConfig, WaveformConfig, generate_signals, pulse_waveform


class TestResample:
    def test_reproduces_original_samples(self):
        rng = np.random.default_rng(3)
        s = SampledSignal(t0_s=0.3, dt_s=0.075, values=rng.normal(0, 100, 80), kind="flow")
        up = resample(s)
        assert UPSAMPLE_FACTOR == 8
        assert up.dt_s == pytest.approx(0.075 / 8)
        assert len(up) == (len(s) - 1) * 8 + 1
        assert np.array_equal(up.values[::8], s.values)

    def test_values_depend_on_the_samples_alone(self):
        rng = np.random.default_rng(5)
        s = SampledSignal(t0_s=0.3, dt_s=0.075, values=rng.normal(700, 200, 400), kind="flow")
        up = resample(s)
        for t0, dt in ((12.6, 0.075), (0.3, 0.01), (-7.0, 1 / 3)):
            moved = resample(SampledSignal(t0_s=t0, dt_s=dt, values=s.values, kind="flow"))
            assert np.array_equal(moved.values.view(np.uint64), up.values.view(np.uint64))
            assert (moved.t0_s, moved.dt_s) == (t0, dt / UPSAMPLE_FACTOR)
        doubled = resample(SampledSignal(t0_s=0.3, dt_s=0.075, values=2 * s.values, kind="flow"))
        assert np.array_equal(doubled.values, 2 * up.values)

    @pytest.mark.parametrize("freq", [0.5, 1.0, 1.5, 2.0])
    def test_sine_oracle(self, freq):
        # analytic oracle: interpolation error under 1% of amplitude up to 2 Hz
        dt = 0.075
        t = np.arange(401) * dt  # 30 s
        s = SampledSignal(t0_s=0.0, dt_s=dt, values=np.sin(2 * np.pi * freq * t), kind="flow")
        up = resample(s)
        err = np.abs(up.values - np.sin(2 * np.pi * freq * up.times))
        assert err.max() < 0.01

    def test_too_short(self):
        s = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.arange(3.0), kind="flow")
        with pytest.raises(TooShort):
            resample(s)


#: resample's stated distance from the tridiagonal solve, as a multiple of max|y|.
THOMAS_BOUND = 1e-15


class TestResampleMatchesThomas:
    """resample's closed-form second derivatives against the tridiagonal
    solve by elimination (oracles.thomas_resample): within THOMAS_BOUND *
    max|y|, for every n from 4 to 64, where the mirrored second differences
    wrap around the SPLINE_TERMS window, and for a 600 s artery."""

    @staticmethod
    def assert_close(flow):
        got, want = resample(flow), thomas_resample(flow)
        assert (got.t0_s, got.dt_s) == (want.t0_s, want.dt_s)
        assert np.array_equal(got.values[::UPSAMPLE_FACTOR], want.values[::UPSAMPLE_FACTOR])
        assert np.abs(got.values - want.values).max() <= THOMAS_BOUND * np.abs(flow.values).max()

    @pytest.mark.parametrize("n", range(4, 65))
    def test_every_short_length(self, n):
        rng = np.random.default_rng(n)
        for values in (rng.uniform(-1e6, 1e6, n), np.cumsum(rng.normal(0.0, 1.0, n)),
                       700.0 + 200.0 * np.sin(0.7 * np.arange(n)) + rng.normal(0.0, 5.0, n)):
            self.assert_close(SampledSignal(t0_s=0.0, dt_s=0.075, values=values, kind="flow"))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=4, max_size=80))
    def test_random_signals(self, values):
        self.assert_close(SampledSignal(t0_s=0.0, dt_s=0.075, values=np.asarray(values),
                                        kind="flow"))

    def test_full_size_artery(self):
        flow, _, _ = signals(duration_s=600.0, artifacts={"noise_sd": 20.0}, seed=1)
        assert len(flow) == 8000
        self.assert_close(flow)


class TestShortAutocorrelation:
    """_cardiac_period pads its FFT only to n + the largest lag it reads:
    the cycles are those of a 2n-padded FFT, the same boundaries and the
    same validity, from clean to noisy, modulated or not. On the 75 ms grid
    the period band ends at lag 26 and lag 27 is read. At 151.575 s and
    305.175 s (2021 and 4069 samples) n + 27 is a power of two, the least
    padding that wraps no lag read; 151.65 s and 305.25 s are one sample
    longer, where that power of two would wrap lag 27."""

    DURATIONS = (151.575, 151.65, 305.175, 305.25)

    def test_durations_sit_at_a_power_of_two(self):
        hi = int(np.floor(PERIOD_BAND_S[1] / 0.075))
        assert [int(round(d / 0.075)) + hi + 1 for d in self.DURATIONS] == [2048, 2049, 4096, 4097]

    @settings(max_examples=40, deadline=None)
    @given(
        duration_s=st.sampled_from(DURATIONS),
        base_period_s=st.floats(1.9, 1.98),
        noise_sd=st.sampled_from([0.0, 200.0]),
        seed=st.integers(0, 1000),
    )
    def test_period_at_the_band_end_matches_2n_padding(self, duration_s, base_period_s,
                                                        noise_sd, seed):
        # A period near 2 s peaks at lag 26, whose vertex reads lag 27: the
        # lag that one sample of padding too few would wrap.
        flow = generate_signals(SimConfig.from_dict({
            "duration_s": duration_s,
            "cardiac": {"base_period_s": base_period_s},
            "artifacts": {"noise_sd": noise_sd},
            "seed": seed,
        })).flow
        outcomes = []
        for cardiac_period in (cycles._cardiac_period, cardiac_period_2n):
            try:
                outcomes.append(cardiac_period(flow.values, flow.dt_s, PERIOD_BAND_S))
            except NoCyclesFound as exc:
                outcomes.append(str(exc))
        if isinstance(outcomes[1], str):
            assert outcomes[0] == outcomes[1]
        else:
            assert outcomes[0] == pytest.approx(outcomes[1], rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        noise_sd=st.sampled_from([0.0, 200.0, 600.0]) | st.floats(0.0, 600.0),
        mean_flow_pct=st.floats(0.0, 10.0),
        period_pct=st.sampled_from([0.0]) | st.floats(0.0, 10.0),
        base_period_s=st.sampled_from([0.35, 0.5, 0.94]) | st.floats(0.3, 1.2),
        duration_s=st.sampled_from((600.0, *DURATIONS)) | st.floats(30.0, 600.0),
        seed=st.integers(0, 1000),
    )
    def test_cycles_match_2n_padding(self, noise_sd, mean_flow_pct, period_pct, base_period_s,
                                     duration_s, seed):
        flow = generate_signals(SimConfig.from_dict({
            "duration_s": duration_s,
            "cardiac": {"base_period_s": base_period_s},
            "modulation": {"mean_flow_pct": mean_flow_pct, "period_pct": period_pct},
            "artifacts": {"noise_sd": noise_sd},
            "seed": seed,
        })).flow
        outcomes = []
        for cardiac_period in (cycles._cardiac_period, cardiac_period_2n):
            with mock.patch.object(cycles, "_cardiac_period", cardiac_period):
                try:
                    table = detect_cycles(flow)
                    outcomes.append((table.bounds.tolist(), table.valid.tolist()))
                except NoCyclesFound as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestSubMultiplePeriod:
    """On the 75 ms grid the autocorrelation can peak at two to four beats,
    which the grid samples better than one. The period is the shortest peak
    at a sub-multiple of that lag that correlates well enough, and one below
    PERIOD_BAND_S is refused. Simulator truth, 300 s, no modulation."""

    @pytest.mark.parametrize("seed", range(4))
    def test_every_beat_at_half_a_second(self, seed):
        # 1.5 s is exactly 20 samples: the highest in-band peak is three beats.
        flow, _, truth = signals(duration_s=300.0, cardiac={"base_period_s": 0.5}, seed=seed)
        table = detect_cycles(flow)
        assert len(table) == truth.start_s.size == 599
        assert table.valid.all()
        errors = match_boundaries(table.start_s, truth.start_s, tol_s=0.0375)
        assert errors.max() <= 0.0375  # half a raw sample

    def test_noisy_beats_not_paired(self):
        # noise_sd 200 at 0.94 s: the highest in-band peak is two beats (1.875 s).
        flow, _, truth = signals(duration_s=300.0, artifacts={"noise_sd": 200.0}, seed=1)
        assert abs(len(detect_cycles(flow)) - truth.start_s.size) <= 0.02 * truth.start_s.size

    @pytest.mark.parametrize("noise_sd", [0.0, 200.0])
    @pytest.mark.parametrize("base_period_s", [0.30, 0.31, 0.32, 0.33, 0.34, 0.35, 0.36, 0.37,
                                               0.38, 0.39])
    def test_period_below_the_band_refused(self, base_period_s, noise_sd):
        flow, _, _ = signals(duration_s=300.0, cardiac={"base_period_s": base_period_s},
                             artifacts={"noise_sd": noise_sd}, seed=2)
        with pytest.raises(NoCyclesFound, match=r"beats/min\) lies below the period band"):
            detect_cycles(flow)

    @pytest.mark.parametrize("base_period_s", [0.45, 0.6, 0.94, 1.5, 1.9])
    def test_period_in_the_band_found(self, base_period_s):
        flow, _, truth = signals(duration_s=300.0, cardiac={"base_period_s": base_period_s},
                                 modulation={"mean_flow_pct": 10.0, "period_pct": 5.0}, seed=3)
        period = cycles._cardiac_period(flow.values, flow.dt_s, PERIOD_BAND_S)
        assert period == pytest.approx(np.median(truth.params[2]), rel=0.05)
        assert abs(len(detect_cycles(flow)) - truth.start_s.size) <= 0.02 * truth.start_s.size


def pulse_train(periods, scales=None, dt=0.075, lead=0.4):
    """Concatenated cardiac pulses with given periods, sampled at dt."""
    periods = np.asarray(periods, dtype=np.float64)
    bounds = np.concatenate([[-lead], -lead + np.cumsum(periods)])
    t_last = bounds[-1]
    n = int(np.floor(t_last / dt)) + 1
    t = np.arange(n) * dt
    cell = np.clip(np.searchsorted(bounds, t, side="right") - 1, 0, len(periods) - 1)
    u = (t - bounds[cell]) / periods[cell]
    scale = np.ones(len(periods)) * 600.0 if scales is None else np.asarray(scales)
    values = scale[cell] * pulse_waveform(u, WaveformConfig())
    return SampledSignal(t0_s=0.0, dt_s=dt, values=values, kind="flow"), bounds


class TestDetectCycles:
    def test_synthetic_cycle_count_and_boundaries(self):
        flow, _, truth = signals(duration_s=120.0, seed=5)
        cycles = detect_cycles(flow)
        assert 124 <= len(cycles) <= 128  # 126 +/- 2
        assert len(cycles) == truth.start_s.size
        detected = np.append(cycles.start_s, cycles.end_s[-1])
        errors = match_boundaries(detected, np.append(truth.start_s, truth.end_s[-1]), tol_s=0.0375)
        assert errors.max() <= 0.0375  # half a raw sample

    def test_constant_signal(self):
        s = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.full(200, 700.0), kind="flow")
        with pytest.raises(NoCyclesFound):
            detect_cycles(s)

    def test_too_short_recording(self):
        flow, _, _ = signals(duration_s=120.0, seed=5)
        short = SampledSignal(t0_s=0.0, dt_s=0.075, values=flow.values[:60], kind="flow")
        with pytest.raises(NoCyclesFound):
            detect_cycles(short)

    def test_wrong_kind(self):
        s = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.zeros(200), kind="respiration")
        with pytest.raises(ValueError):
            detect_cycles(s)

    def test_skipped_beat_flagged_invalid(self):
        periods = [0.94] * 20 + [1.88] + [0.94] * 20
        flow, bounds = pulse_train(periods)
        cycles = detect_cycles(flow)
        invalid = np.flatnonzero(~cycles.valid)
        assert invalid.size == 1
        assert cycles.params[2, invalid[0]] == pytest.approx(1.88, abs=0.075)
        assert np.count_nonzero(cycles.valid) == len(cycles) - 1

    def test_partition_no_gaps(self):
        flow, _, _ = signals(duration_s=60.0, seed=5)
        cycles = detect_cycles(flow)
        assert np.array_equal(cycles.end_s[:-1], cycles.start_s[1:])

    def test_time_shift_equivariance(self):
        flow, _, _ = signals(duration_s=120.0, seed=5)
        k = 24
        n = 1200
        a = SampledSignal(t0_s=0.0, dt_s=flow.dt_s, values=flow.values[:n], kind="flow")
        b = SampledSignal(t0_s=0.0, dt_s=flow.dt_s, values=flow.values[k : n + k], kind="flow")
        bounds_a = detect_cycles(a).start_s
        bounds_b = detect_cycles(b).start_s
        # interior boundaries of the shifted window match, offset by k samples
        expected = bounds_a - k * flow.dt_s
        core = expected[(expected > 2.0) & (expected < b.duration_s - 2.0)]
        for eb in core:
            assert np.abs(bounds_b - eb).min() <= 1e-9

    def test_amplitude_scale_equivariance(self):
        flow, _, _ = signals(duration_s=60.0, seed=5)
        scaled = SampledSignal(t0_s=0.0, dt_s=flow.dt_s, values=3.0 * flow.values, kind="flow")
        base_cycles = detect_cycles(flow)
        scaled_cycles = detect_cycles(scaled)
        assert len(base_cycles) == len(scaled_cycles)
        assert np.array_equal(scaled_cycles.start_s, base_cycles.start_s)
        assert np.array_equal(scaled_cycles.end_s, base_cycles.end_s)
        assert np.array_equal(scaled_cycles.params[2], base_cycles.params[2])
        np.testing.assert_allclose(scaled_cycles.params[:2], 3.0 * base_cycles.params[:2],
                                   rtol=1e-9, atol=0)

    def test_deterministic(self):
        flow, _, _ = signals(duration_s=60.0, seed=5)
        a = detect_cycles(flow)
        b = detect_cycles(flow)
        assert np.array_equal(a.start_s, b.start_s)
        assert np.array_equal(a.end_s, b.end_s)


#: Flow signals the property tests draw from: seeds, durations and modulation.
PROPERTY_FLOWS = [
    dict(duration_s=60.0, seed=5),
    dict(duration_s=45.0, seed=11, modulation={"mean_flow_pct": 10.0, "shape": "square"}),
    dict(duration_s=60.0, seed=23, modulation={"period_pct": 6.0, "shape": "square"}),
    dict(duration_s=30.0, seed=2, artifacts={"noise_sd": 20.0}),
]


class TestCycleTable:
    def test_arrays_are_read_only(self):
        flow, _, _ = signals(duration_s=60.0, seed=5)
        table = detect_cycles(flow)
        assert isinstance(table, CycleTable)
        assert len(table) == table.valid.size == table.params.shape[1]
        for array in (table.bounds, table.start_s, table.end_s, table.midpoint_s, table.params,
                      table.valid):
            with pytest.raises(ValueError):
                array[0] = array[1]

    @settings(max_examples=20, deadline=None)
    @given(case=st.sampled_from(PROPERTY_FLOWS))
    def test_arrays_equal_cycle_params_on_each_view(self, case):
        flow, _, _ = signals(**case)
        table = detect_cycles(flow)
        assert table.params.shape == (3, len(table))
        for i, c in enumerate(cycles_of(table, resample(flow))):
            assert c.midpoint_s == table.midpoint_s[i]
            assert [c.params.mean_flow_ml_min, c.params.stroke_volume_ml,
                    c.params.cardiac_period_s] == table.params[:, i].tolist()

    def test_stroke_volumes_equal_trapezoid_across_pairwise_blocks(self):
        # numpy sums fewer than 8 terms in one loop, up to 128 in eight
        # unrolled lanes and more by halving: cycles of 2 to 300 samples
        # cover all three, three of each length, in shuffled order.
        rng = np.random.default_rng(7)
        lengths = rng.permutation(np.repeat(
            [2, 3, 5, 7, 8, 9, 16, 63, 127, 128, 129, 130, 200, 255, 256, 257, 300], 3))
        bounds = np.concatenate([[4], 4 + np.cumsum(lengths)])
        dt = 0.0094
        values = rng.normal(700.0, 300.0, bounds[-1] + 6)
        table = CycleTable(SampledSignal(t0_s=0.0, dt_s=dt, values=values, kind="flow"), bounds,
                           (0.0, 10.0))
        expected = [np.trapezoid(values[i0 : i1 + 1], dx=dt) / 60.0
                    for i0, i1 in zip(bounds[:-1], bounds[1:])]
        assert table.params[1].tolist() == expected

    def test_degenerate_and_out_of_span_boundaries_rejected(self):
        s = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.arange(10.0), kind="flow")
        with pytest.raises(DegenerateCycle):
            CycleTable(s, np.array([0, 4, 5]), (0.0, 10.0))
        with pytest.raises(ValueError):
            CycleTable(s, np.array([0, 4, 10]), (0.0, 10.0))


class TestDetectCyclesProperties:
    @settings(max_examples=25, deadline=None)
    @given(case=st.sampled_from(PROPERTY_FLOWS), exponent=st.integers(-6, 6))
    def test_power_of_two_scaling_is_exact(self, case, exponent):
        # Every step is linear in the values or compares them, and scaling by
        # a power of two rounds nothing.
        flow, _, _ = signals(**case)
        scale = 2.0**exponent
        base = detect_cycles(flow)
        scaled = detect_cycles(SampledSignal(t0_s=flow.t0_s, dt_s=flow.dt_s,
                                             values=scale * flow.values, kind="flow"))
        assert np.array_equal(scaled.bounds, base.bounds)
        assert np.array_equal(scaled.valid, base.valid)
        assert np.array_equal(scaled.params[:2], scale * base.params[:2])
        assert np.array_equal(scaled.params[2], base.params[2])

    @settings(max_examples=25, deadline=None)
    @given(case=st.sampled_from(PROPERTY_FLOWS), shift=st.integers(-4000, 4000))
    def test_whole_sample_time_shift(self, case, shift):
        flow, _, _ = signals(**case)
        base = detect_cycles(flow)
        moved = detect_cycles(SampledSignal(t0_s=flow.t0_s + shift * flow.dt_s, dt_s=flow.dt_s,
                                            values=flow.values, kind="flow"))
        assert np.array_equal(moved.bounds, base.bounds)
        step = shift * flow.dt_s
        np.testing.assert_allclose(moved.start_s, base.start_s + step, rtol=0, atol=1e-9)
        np.testing.assert_allclose(moved.end_s, base.end_s + step, rtol=0, atol=1e-9)
        np.testing.assert_allclose(moved.params, base.params, rtol=1e-9, atol=0)
        assert np.array_equal(moved.valid, base.valid)


class TestCycleParams:
    def test_constant_rectangle(self):
        dt = 0.0125
        n = 201  # 2.5 s
        s = SampledSignal(t0_s=0.0, dt_s=dt, values=np.full(n, 600.0), kind="flow")
        params = cycle_params(s, CycleBoundary(start_s=0.0, end_s=1.0))
        assert params.stroke_volume_ml == pytest.approx(10.0, rel=1e-12)
        assert params.mean_flow_ml_min == pytest.approx(600.0, rel=1e-12)
        assert params.cardiac_period_s == 1.0

    def test_reference_stroke_volume(self):
        dt = 0.0094
        n = 150
        s = SampledSignal(t0_s=0.0, dt_s=dt, values=np.full(n, 740.0), kind="flow")
        params = cycle_params(s, CycleBoundary(start_s=0.0, end_s=100 * dt))
        assert params.stroke_volume_ml == pytest.approx(740.0 * 0.94 / 60.0, rel=1e-9)
        assert params.stroke_volume_ml == pytest.approx(11.593333, abs=1e-5)

    def test_identity_exact_on_detected_cycles(self):
        flow, _, _ = signals(duration_s=60.0, seed=5)
        mean_flow, stroke_volume, period = detect_cycles(flow).params
        lhs = mean_flow * period
        rhs = 60.0 * stroke_volume
        assert (np.abs(lhs - rhs) <= 1e-12 * np.abs(rhs)).all()

    def test_degenerate_cycle(self):
        s = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.arange(10.0), kind="flow")
        with pytest.raises(DegenerateCycle):
            cycle_params(s, CycleBoundary(start_s=0.0, end_s=0.075))
        with pytest.raises(DegenerateCycle):
            CycleBoundary(start_s=1.0, end_s=1.0)

    def test_off_grid_boundary_rejected(self):
        s = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.arange(10.0), kind="flow")
        with pytest.raises(ValueError):
            cycle_params(s, CycleBoundary(start_s=0.01, end_s=0.53))

    def test_outside_span_rejected(self):
        s = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.arange(10.0), kind="flow")
        with pytest.raises(ValueError):
            cycle_params(s, CycleBoundary(start_s=0.0, end_s=1.5))


def oracle_select_minima(values: np.ndarray, min_separation: int) -> np.ndarray:
    """The quadratic greedy selection the package used to run: every accepted
    minimum is checked against every candidate."""
    candidates, _ = find_peaks(-values)
    return spaced_positions(sorted(candidates, key=lambda i: (values[i], i)), min_separation)


class TestSelectMinima:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_quadratic_oracle(self, data):
        # few distinct levels force many tied depths
        n = data.draw(st.integers(3, 200), label="n")
        levels = data.draw(st.integers(1, 6), label="levels")
        values = np.asarray(
            data.draw(st.lists(st.integers(0, levels), min_size=n, max_size=n), label="values"),
            dtype=np.float64,
        )
        min_separation = data.draw(st.integers(1, n), label="min_separation")
        got = _select_minima(values, min_separation)
        want = oracle_select_minima(values, min_separation)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_matches_oracle_on_flow_signal(self):
        flow, _, _ = signals(duration_s=60.0, seed=5)
        up = resample(flow)
        for min_separation in (1, 7, 60, 500):
            assert np.array_equal(
                _select_minima(up.values, min_separation),
                oracle_select_minima(up.values, min_separation),
            )

    def test_ties_go_to_earliest(self):
        values = np.array([5.0, 0.0, 5.0, 0.0, 5.0, 0.0, 5.0])
        assert _select_minima(values, 3).tolist() == [1, 5]
        assert _select_minima(values, 5).tolist() == [1]

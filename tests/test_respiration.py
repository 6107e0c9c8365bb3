import numpy as np
import pytest

from helpers import signals
from oracles import as_table, make_cycle, periodic_intervals, shift_intervals

from rtpc.errors import NoBreathsDetected, NonAlternating
from rtpc.io import SampledSignal
from rtpc.respiration import (
    EX,
    IN,
    UNLABELED,
    RespIntervals,
    detect_resp_intervals,
    label_cycles,
)


def sine_belt(period_s=4.3, duration_s=60.0, dt=0.075, noise_sd=0.0, seed=0):
    n = int(round(duration_s / dt))
    t = np.arange(n) * dt
    values = np.sin(2 * np.pi * t / period_s)
    if noise_sd > 0:
        values = values + np.random.default_rng(seed).normal(0.0, noise_sd, n)
    return SampledSignal(t0_s=0.0, dt_s=dt, values=values, kind="respiration")


class TestDetectRespIntervals:
    def test_sine_belt_reference(self):
        intervals = detect_resp_intervals(sine_belt())
        breaths = sum(1 for p in intervals.phases if p == IN)  # one IN per breath here
        n_troughs = sum(1 for p in intervals.phases if p == IN)
        assert 12 <= n_troughs <= 14  # 13 +/- 1 full breaths
        assert intervals.mean_period_s == pytest.approx(4.3, abs=0.05)
        durations = np.diff(intervals.base_bounds)
        assert np.all(np.abs(durations - 2.15) <= 0.08)

    def test_phase_orientation(self):
        # belt rises during inhalation: the interval after a trough is IN
        intervals = detect_resp_intervals(sine_belt())
        bounds = intervals.base_bounds
        for start, end, phase in zip(bounds[:-1], bounds[1:], intervals.phases):
            mid = 0.5 * (start + end)
            rising = np.cos(2 * np.pi * mid / 4.3) > 0
            assert phase == (IN if rising else EX)

    def test_constant_belt(self):
        s = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.full(400, 2.0), kind="respiration")
        with pytest.raises(NoBreathsDetected):
            detect_resp_intervals(s)

    def test_too_short(self):
        s = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.sin(np.arange(30)), kind="respiration")
        with pytest.raises(NoBreathsDetected):
            detect_resp_intervals(s)

    def test_wrong_kind(self):
        s = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.sin(np.arange(400) * 0.1), kind="flow")
        with pytest.raises(ValueError):
            detect_resp_intervals(s)

    def test_noise_robust_interval_count(self):
        # 56 s leaves the recording edge mid-rise, so every true extremum has
        # full-swing prominence and the comparison probes noise rejection only
        clean = len(detect_resp_intervals(sine_belt(duration_s=56.0)))
        agree = 0
        for seed in range(100):
            noisy = sine_belt(duration_s=56.0, noise_sd=0.1 * 2.0, seed=seed)
            try:
                if len(detect_resp_intervals(noisy)) == clean:
                    agree += 1
            except NoBreathsDetected:
                pass
        assert agree >= 95

    def test_alternation_always(self):
        for period in (3.0, 4.3, 6.0):
            intervals = detect_resp_intervals(sine_belt(period_s=period))
            for a, b in zip(intervals.phases[:-1], intervals.phases[1:]):
                assert a != b


class TestShiftIntervals:
    def test_zero_delay_identity(self):
        intervals = detect_resp_intervals(sine_belt())
        shifted = shift_intervals(intervals, 0.0)
        assert shifted == intervals

    def test_shift_adds_exactly(self):
        intervals = detect_resp_intervals(sine_belt())
        shifted = shift_intervals(intervals, 1.2)
        assert np.all(np.asarray(shifted.base_bounds) == np.asarray(intervals.base_bounds) + 1.2)
        assert shifted.phases == intervals.phases
        assert shifted.mean_period_s == intervals.mean_period_s

    def test_negative_delay_rejected(self):
        intervals = detect_resp_intervals(sine_belt())
        with pytest.raises(ValueError):
            shift_intervals(intervals, -0.1)

    def test_periodic_label_invariance_over_full_period(self):
        # on a strictly periodic train, delays d and d+T induce the same labels
        # wherever both shifted spans cover the cycle midpoints
        train = periodic_intervals(period_s=4.0, n_breaths=40)
        cycles = as_table([make_cycle(10.0 + 0.9 * i, 10.9 + 0.9 * i) for i in range(120)])
        for d in (0.0, 0.7, 1.3, 2.2):
            lab_a = label_cycles(cycles, shift_intervals(train, d))
            lab_b = label_cycles(cycles, shift_intervals(train, d + 4.0))
            for a, b in zip(lab_a, lab_b):
                if a != UNLABELED and b != UNLABELED:
                    assert a == b


class TestLabelCycles:
    def test_midpoint_containment(self):
        intervals = RespIntervals(phases=(EX, IN), base_bounds=(2.1, 4.3, 6.5), mean_period_s=4.3)
        cycle = make_cycle(2.5, 3.5)  # midpoint 3.0 in [2.1, 4.3)
        assert label_cycles(as_table([cycle]), intervals) == [EX]

    def test_before_coverage_unlabeled(self):
        intervals = RespIntervals(phases=(EX, IN), base_bounds=(2.1, 4.3, 6.5), mean_period_s=4.3)
        assert label_cycles(as_table([make_cycle(0.5, 1.5)]), intervals) == [UNLABELED]

    def test_after_coverage_unlabeled(self):
        intervals = RespIntervals(phases=(EX, IN), base_bounds=(2.1, 4.3, 6.5), mean_period_s=4.3)
        assert label_cycles(as_table([make_cycle(7.0, 8.0)]), intervals) == [UNLABELED]

    def test_boundary_midpoint_goes_to_later_interval(self):
        intervals = RespIntervals(phases=(EX, IN), base_bounds=(0.0, 4.0, 8.0), mean_period_s=8.0)
        cycle = make_cycle(3.5, 4.5)  # midpoint exactly 4.0
        assert label_cycles(as_table([cycle]), intervals) == [IN]

    def test_label_counts_partition(self):
        flow, resp, _ = signals(duration_s=120.0, seed=5)
        from rtpc.cycles import detect_cycles

        cycles = detect_cycles(flow)
        labels = label_cycles(cycles, detect_resp_intervals(resp))
        counts = {IN: 0, EX: 0, UNLABELED: 0}
        for lab in labels:
            counts[lab] += 1
        assert sum(counts.values()) == len(cycles)
        assert counts[IN] > 0 and counts[EX] > 0

    def test_truth_agreement_at_zero_delay(self):
        flow, resp, truth = signals(duration_s=120.0, seed=5)
        from rtpc.cycles import detect_cycles

        cycles = detect_cycles(flow)
        labels = label_cycles(cycles, detect_resp_intervals(resp))
        true_mids = 0.5 * (truth.start_s + truth.end_s)
        true_phase = truth.phase.tolist()
        matched = agree = 0
        for mid, lab in zip(cycles.midpoint_s.tolist(), labels):
            if lab == UNLABELED:
                continue
            i = int(np.argmin(np.abs(true_mids - mid)))
            if abs(true_mids[i] - mid) < 0.3:
                matched += 1
                agree += lab == true_phase[i]
        assert matched > 80
        assert agree / matched >= 0.95


class TestRespIntervalsInvariants:
    def test_non_alternating_rejected(self):
        with pytest.raises(NonAlternating):
            RespIntervals(phases=(IN, IN), base_bounds=(0.0, 2.0, 4.0), mean_period_s=4.0)

    def test_duration_bounds_enforced(self):
        with pytest.raises(NonAlternating):
            RespIntervals(phases=(IN, EX), base_bounds=(0.0, 0.5, 13.0), mean_period_s=4.0)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            RespIntervals(phases=(IN, EX), base_bounds=(0.0, 2.0, 1.5), mean_period_s=4.0)

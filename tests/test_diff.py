import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import signals
from oracles import (
    CycleParams,
    as_table,
    average_params,
    cycles_of,
    diff_ex_in,
    make_cycle,
    periodic_intervals,
    shift_intervals,
)

import rtpc.diff
from rtpc.cycles import detect_cycles, resample
from rtpc.diff import (
    PARAMETERS,
    _delay_grid,
    _record,
    delay_scan,
    scan_artery,
    sweep_diffs,
)
from rtpc.errors import InsufficientCycles, ZeroInspiratoryValue
from rtpc.respiration import (
    EX,
    IN,
    UNLABELED,
    RespIntervals,
    detect_resp_intervals,
    label_cycles,
)


def max_missing(fraction):
    """Patch the share of scan delays sweep_diffs may skip."""
    return mock.patch.object(rtpc.diff, "MAX_MISSING_FRACTION", fraction)


def params(mean=740.0, sv=11.6, period=0.94):
    return CycleParams(mean_flow_ml_min=mean, stroke_volume_ml=sv, cardiac_period_s=period)


class TestAverageParams:
    def test_arithmetic_mean(self):
        cycles = [make_cycle(0.0, 1.0, 760.0), make_cycle(1.0, 2.0, 770.0)]
        labels = [EX, EX]
        avg = average_params(cycles, labels, EX, min_cycles=2)
        assert avg.mean_flow_ml_min == pytest.approx(765.0)

    def test_insufficient_for_missing_phase(self):
        cycles = [make_cycle(0.0, 1.0), make_cycle(1.0, 2.0), make_cycle(2.0, 3.0)]
        labels = [IN, IN, IN]
        with pytest.raises(InsufficientCycles):
            average_params(cycles, labels, EX)

    def test_invalid_cycles_ignored(self):
        cycles = [make_cycle(0.0, 1.0, 700.0), make_cycle(1.0, 2.0, 800.0, valid=False),
                  make_cycle(2.0, 3.0, 720.0)]
        labels = [EX, EX, EX]
        avg = average_params(cycles, labels, EX, min_cycles=2)
        assert avg.mean_flow_ml_min == pytest.approx(710.0)

    def test_modulation_ratio_recovered(self):
        flow, resp, _ = signals(
            duration_s=300.0,
            modulation={"mean_flow_pct": 10.0, "shape": "square"},
        )
        table = detect_cycles(flow)
        labels = label_cycles(table, detect_resp_intervals(resp))
        cycles = cycles_of(table, resample(flow))
        p_ex = average_params(cycles, labels, EX)
        p_in = average_params(cycles, labels, IN)
        assert p_ex.mean_flow_ml_min / p_in.mean_flow_ml_min == pytest.approx(1.10, abs=0.01)


class TestDiffExIn:
    def test_reference_percentages(self):
        d = diff_ex_in(params(mean=765.0), params(mean=735.0))
        assert d["mean_flow"] == pytest.approx(100.0 * 30.0 / 735.0)
        assert d["mean_flow"] == pytest.approx(4.08, abs=0.01)

    def test_equal_gives_zero(self):
        d = diff_ex_in(params(), params())
        assert all(v == 0.0 for v in d.values())

    def test_period_difference(self):
        d = diff_ex_in(params(period=1.0), params(period=0.925))
        assert d["cardiac_period"] == pytest.approx(8.108108, abs=1e-5)

    def test_zero_inspiratory_value(self):
        with pytest.raises(ZeroInspiratoryValue):
            diff_ex_in(params(), params(mean=0.0))


def constant_cycle_set(duration_s=60.0, period=0.94, mean=600.0):
    cycles = []
    start = 0.47
    while start + period < duration_s:
        cycles.append(make_cycle(start, start + period, mean))
        start += period
    return as_table(cycles)


class TestDelayScan:
    def test_zero_delay_modulation(self):
        flow, resp, _ = signals(
            duration_s=300.0,
            modulation={"mean_flow_pct": 10.0, "shape": "square"},
        )
        cycles = detect_cycles(flow)
        intervals = detect_resp_intervals(resp)
        scan = delay_scan(cycles, intervals, "mean_flow")
        assert scan.max_diff_pct == pytest.approx(10.0, abs=1.5)
        period = intervals.mean_period_s
        assert scan.argmax_delay_s <= 0.47 or scan.argmax_delay_s >= period - 0.47

    def test_sensor_delay_recovered(self):
        flow, resp, _ = signals(
            duration_s=300.0,
            modulation={"mean_flow_pct": 10.0, "shape": "square", "sensor_delay_s": 1.2},
        )
        cycles = detect_cycles(flow)
        intervals = detect_resp_intervals(resp)
        scan = delay_scan(cycles, intervals, "mean_flow")
        assert scan.argmax_delay_s == pytest.approx(1.2, abs=0.47)
        assert scan.delay_pct == pytest.approx(27.9, abs=11.0)

    def test_constant_flow_zero_everywhere(self):
        cycles = constant_cycle_set()
        intervals = periodic_intervals(period_s=4.3, n_breaths=13)
        scan = delay_scan(cycles, intervals, "mean_flow")
        finite = [v for v in scan.diff_pct if v is not None]
        assert finite and all(v == 0.0 for v in finite)
        assert scan.max_diff_pct == 0.0
        assert scan.argmax_delay_s == 0.0  # earliest tie wins
        assert scan.diff_at_zero_pct == 0.0

    def test_grid_covers_one_period(self):
        cycles = constant_cycle_set()
        intervals = periodic_intervals(period_s=4.3, n_breaths=13)
        scan = delay_scan(cycles, intervals, "mean_flow")
        assert scan.delays_s[0] == 0.0
        assert scan.delays_s[-1] < intervals.mean_period_s
        assert len(scan.delays_s) == 58
        assert 0.0 <= scan.delay_pct < 100.0

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            delay_scan(as_table([]), periodic_intervals(4.0, 4), "bogus")

    @pytest.mark.parametrize("step_s", [0.0, -0.075, np.nan, np.inf])
    def test_step_not_finite_or_positive(self, step_s):
        with pytest.raises(ValueError, match="step_s"):
            sweep_diffs(constant_cycle_set(), periodic_intervals(4.3, 13), step_s=step_s)

    @pytest.mark.parametrize("min_cycles", [0, -1])
    def test_min_cycles_below_one(self, min_cycles):
        with pytest.raises(ValueError, match="min_cycles"):
            sweep_diffs(constant_cycle_set(), periodic_intervals(4.3, 13), min_cycles=min_cycles)

    def test_deterministic(self):
        flow, resp, _ = signals(duration_s=120.0, seed=5)
        cycles = detect_cycles(flow)
        intervals = detect_resp_intervals(resp)
        a = delay_scan(cycles, intervals, "stroke_volume")
        b = delay_scan(cycles, intervals, "stroke_volume")
        assert a.diff_pct == b.diff_pct
        assert a.argmax_delay_s == b.argmax_delay_s


class TestSweepMissingDelays:
    def make_sparse_setup(self):
        # cycles only under the first breath; shifting the intervals far
        # enough strands one phase below min_cycles
        intervals = periodic_intervals(period_s=4.0, n_breaths=3)
        cycles = [make_cycle(0.1 + 0.45 * i, 0.55 + 0.45 * i, 700.0 + i) for i in range(8)]
        return as_table(cycles), intervals

    def test_skipped_delays_recorded_as_nan(self):
        cycles, intervals = self.make_sparse_setup()
        with max_missing(1.0):
            delays, diffs = sweep_diffs(cycles, intervals, step_s=0.25, min_cycles=3)
        missing = np.isnan(diffs["mean_flow"])
        assert missing.any()
        assert np.isfinite(diffs["mean_flow"]).any()

    def test_too_many_missing_raises(self):
        cycles, intervals = self.make_sparse_setup()
        with pytest.raises(InsufficientCycles):
            sweep_diffs(cycles, intervals, step_s=0.25, min_cycles=3)


def oracle_label_cycles(cycles, intervals):
    """The per-cycle labelling the package used to run: one scalar
    searchsorted per midpoint."""
    starts = np.asarray(intervals.base_bounds[:-1])
    span_start, span_end = intervals.span
    labels = []
    for cycle in cycles:
        mid = cycle.boundary.midpoint_s
        if mid < span_start or mid >= span_end:
            labels.append(UNLABELED)
            continue
        idx = int(np.searchsorted(starts, mid, side="right")) - 1
        labels.append(intervals.phases[idx])
    return labels


def oracle_sweep(cycles, intervals, step_s, min_cycles, max_missing_fraction):
    """The per-delay sweep the package used to run: one shifted RespIntervals,
    labelling and average_params per delay. Also checks label_cycles at every
    delay. Returns (delays, diffs, whether any midpoint was labelled at any
    delay)."""
    delays = _delay_grid(intervals.mean_period_s, step_s)
    diffs = {p: np.full(delays.size, np.nan) for p in PARAMETERS}
    missing = 0
    covered = False
    for i, delay in enumerate(delays):
        shifted = shift_intervals(intervals, float(delay))
        labels = oracle_label_cycles(cycles, shifted)
        assert label_cycles(as_table(cycles), shifted) == labels
        covered = covered or any(lab != UNLABELED for lab in labels)
        try:
            p_ex = average_params(cycles, labels, EX, min_cycles=min_cycles)
            p_in = average_params(cycles, labels, IN, min_cycles=min_cycles)
        except InsufficientCycles:
            missing += 1
            continue
        for param, value in diff_ex_in(p_ex, p_in).items():
            diffs[param][i] = value
    if missing > max_missing_fraction * delays.size:
        raise InsufficientCycles(f"{missing} of {delays.size} scan delays lack phase coverage")
    return delays, diffs, covered


def assert_sweeps_identical(cycles, intervals, step_s=0.075, min_cycles=3,
                            max_missing_fraction=0.2, table=None):
    """sweep_diffs on table (by default as_table(cycles)) against oracle_sweep
    on the oracle cycles."""
    kwargs = dict(step_s=step_s, min_cycles=min_cycles)
    table = as_table(cycles) if table is None else table
    try:
        want = oracle_sweep(cycles, intervals, max_missing_fraction=max_missing_fraction, **kwargs)
    except InsufficientCycles:
        with pytest.raises(InsufficientCycles), max_missing(max_missing_fraction):
            sweep_diffs(table, intervals, **kwargs)
        return None
    if cycles and not want[2]:
        # The oracle returns an all-NaN scan; the sweep names the missing overlap.
        with pytest.raises(InsufficientCycles, match="do not overlap"), \
                max_missing(max_missing_fraction):
            sweep_diffs(table, intervals, **kwargs)
        return None
    with max_missing(max_missing_fraction):
        delays, diffs = sweep_diffs(table, intervals, **kwargs)
    assert np.array_equal(delays, want[0])
    assert list(diffs) == list(want[1])
    for param in PARAMETERS:
        assert np.array_equal(diffs[param], want[1][param], equal_nan=True), param
    return diffs


@st.composite
def sweep_cases(draw):
    """Belt intervals, cycles and sweep settings that exercise the labelling edges."""
    n_intervals = draw(st.integers(2, 12), label="n_intervals")
    period = draw(st.sampled_from([2.0, 3.3, 4.3]), label="period")
    start = draw(st.sampled_from([0.0, 0.35, 7.1]), label="start")
    # durations inside RespIntervals' (0.3, 3.0) x mean-period band
    durations = draw(st.lists(st.floats(0.35 * period, 0.9 * period), min_size=n_intervals,
                              max_size=n_intervals), label="durations")
    bounds = tuple(start + np.concatenate([[0.0], np.cumsum(durations)]))
    first = draw(st.sampled_from([IN, EX]), label="first")
    other = EX if first == IN else IN
    phases = tuple(first if i % 2 == 0 else other for i in range(n_intervals))
    intervals = RespIntervals(phases=phases, base_bounds=bounds, mean_period_s=period)
    pre_delay = draw(st.sampled_from([0.0, 0.0, 0.075, 1.3]), label="pre_delay")
    if pre_delay:
        intervals = shift_intervals(intervals, pre_delay)

    step_s = draw(st.sampled_from([0.075, 0.25, 0.5]), label="step_s")
    # Midpoints on the shifted boundaries of some delays, beyond the span, and at random.
    grid = _delay_grid(period, step_s)
    shifted = [b + (pre_delay + float(d)) for d in grid[:3] for b in bounds]
    lo, hi = bounds[0] - 1.0, bounds[-1] + period + 1.0
    # A train under the first breath only leaves one phase short at some delays.
    train_end = draw(st.sampled_from([hi, bounds[0] + period]), label="train_end")
    train = np.linspace(lo, train_end, draw(st.integers(0, 60), label="n_train")).tolist()
    midpoints = train + draw(st.lists(
        st.one_of(st.sampled_from(shifted), st.floats(lo - 3.0, hi + 3.0)),
        max_size=20,
    ), label="midpoints")
    cycles = []
    for mid in sorted(midpoints):
        half = draw(st.sampled_from([0.25, 0.4, 0.47]), label="half")
        mean = draw(st.sampled_from([0.0, 250.0, 600.0, 740.0]) | st.floats(100.0, 900.0),
                    label="mean")
        valid = draw(st.sampled_from([True, True, True, False]), label="valid")
        cycles.append(make_cycle(mid - half, mid + half, mean, valid=valid))
    min_cycles = draw(st.integers(1, 5), label="min_cycles")
    missing_fraction = draw(st.sampled_from([0.2, 0.5, 1.0, 1.0]), label="max_missing")
    return cycles, intervals, step_s, min_cycles, missing_fraction


@st.composite
def unsorted_sweep_cases(draw):
    """Cycles in no time order, some repeated, whose midpoints fill the first
    three quarters of the first breath only: the delays that move both phases
    past them are skipped under min_cycles, and delay 0 is not."""
    intervals = periodic_intervals(period_s=4.0, n_breaths=4)
    step_s = draw(st.sampled_from([0.075, 0.25, 0.5]), label="step_s")
    on_bounds = [b + float(d) for d in _delay_grid(4.0, step_s)[:4] for b in intervals.base_bounds[:2]]
    train = np.linspace(0.05, 2.95, draw(st.integers(12, 40), label="n_train")).tolist()
    cycles = [make_cycle(mid - 0.4, mid + 0.4, 600.0 + 7.0 * k) for k, mid in enumerate(train)]
    extra = draw(st.lists(st.one_of(st.sampled_from(on_bounds), st.floats(0.0, 3.0)), max_size=10),
                 label="extra")
    for mid in extra:
        mean = draw(st.floats(100.0, 900.0), label="mean")
        cycles.append(make_cycle(mid - 0.3, mid + 0.3, mean, valid=draw(st.booleans(), label="valid")))
    repeats = draw(st.lists(st.integers(0, len(cycles) - 1), min_size=1, max_size=8),
                   label="repeats")
    cycles += [cycles[i] for i in repeats]
    cycles = draw(st.permutations(cycles), label="order")
    min_cycles = draw(st.integers(1, 3), label="min_cycles")
    return cycles, intervals, step_s, min_cycles


class TestSweepMatchesPerDelayOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=sweep_cases(),
           label_block=st.one_of(st.just(rtpc.diff.LABEL_BLOCK), st.integers(1, 400)))
    def test_bit_identical(self, case, label_block):
        # A small LABEL_BLOCK labels the grid one or a few delays at a time.
        cycles, intervals, step_s, min_cycles, missing_fraction = case
        with mock.patch.object(rtpc.diff, "LABEL_BLOCK", label_block):
            try:
                assert_sweeps_identical(cycles, intervals, step_s, min_cycles, missing_fraction)
            except ZeroInspiratoryValue:
                with pytest.raises(ZeroInspiratoryValue), max_missing(missing_fraction):
                    sweep_diffs(as_table(cycles), intervals, step_s=step_s,
                                min_cycles=min_cycles)

    @settings(max_examples=200, deadline=None)
    @given(case=unsorted_sweep_cases())
    def test_unsorted_repeated_midpoints_and_skipped_delays(self, case):
        cycles, intervals, step_s, min_cycles = case
        midpoints = [c.midpoint_s for c in cycles]
        diffs = assert_sweeps_identical(cycles, intervals, step_s, min_cycles,
                                        max_missing_fraction=1.0)
        skipped = np.isnan(diffs["mean_flow"])
        assert not skipped[0] and skipped.any()
        assert len(set(midpoints)) < len(midpoints)

    def test_min_cycles_edge(self):
        # exactly min_cycles cycles per phase at zero delay: kept; one more needed: skipped
        intervals = periodic_intervals(period_s=4.0, n_breaths=3)
        cycles = [make_cycle(0.1 + 0.6 * i, 0.7 + 0.6 * i, 700.0 + i) for i in range(6)]
        labels = label_cycles(as_table(cycles), intervals)
        assert labels.count(IN) == 3 and labels.count(EX) == 3
        kept = assert_sweeps_identical(cycles, intervals, step_s=0.5, min_cycles=3,
                                       max_missing_fraction=1.0)
        assert np.isfinite(kept["mean_flow"][0])
        skipped = assert_sweeps_identical(cycles, intervals, step_s=0.5, min_cycles=4,
                                          max_missing_fraction=1.0)
        assert np.isnan(skipped["mean_flow"]).all()

    def test_midpoint_on_boundary_is_half_open(self):
        # dyadic times: every midpoint sits exactly on a shifted boundary
        intervals = shift_intervals(periodic_intervals(period_s=4.0, n_breaths=4), 0.25)
        mids = list(intervals.base_bounds[:-1]) * 2 + [intervals.span[1]]
        cycles = [make_cycle(m - 0.5, m + 0.5, 600.0 + 10.0 * k) for k, m in enumerate(mids)]
        assert [c.midpoint_s for c in cycles] == mids
        labels = label_cycles(as_table(cycles), intervals)
        assert labels[:8] == list(intervals.phases)  # [start, end): a start opens its interval
        assert labels[-1] == UNLABELED  # the span's end is outside
        assert_sweeps_identical(cycles, intervals, step_s=0.25, min_cycles=2)

    def test_detected_signal(self):
        flow, resp, _ = signals(duration_s=120.0, seed=5)
        table = detect_cycles(flow)
        cycles = cycles_of(table, resample(flow))
        intervals = detect_resp_intervals(resp)
        assert_sweeps_identical(cycles, intervals, table=table)
        assert_sweeps_identical(cycles, shift_intervals(intervals, 0.6), table=table)

    def test_zero_inspiratory_stroke_volume(self):
        intervals = periodic_intervals(period_s=4.0, n_breaths=6)
        cycles = [make_cycle(0.05 + 0.5 * i, 0.55 + 0.5 * i, 700.0) for i in range(48)]
        cycles = [replace(c, params=replace(c.params, stroke_volume_ml=0.0)) for c in cycles]
        with pytest.raises(ZeroInspiratoryValue, match="inspiratory stroke_volume is zero"):
            sweep_diffs(as_table(cycles), intervals)

    def test_no_overlap_names_both_spans(self):
        intervals = shift_intervals(periodic_intervals(period_s=4.0, n_breaths=6), 5000.0)
        cycles = [make_cycle(0.05 + 0.5 * i, 0.55 + 0.5 * i, 700.0) for i in range(48)]
        for fraction in (0.2, 1.0):
            with pytest.raises(InsufficientCycles) as exc, max_missing(fraction):
                sweep_diffs(as_table(cycles), intervals)
            message = str(exc.value)
            assert "5000.00-5024.00 s" in message
            assert "0.05-24.05 s" in message


class TestFineGridLabelledInBlocks:
    def test_labels_never_all_held_at_once(self):
        # About 8,600 delays over 637 cycles: one int8 label per pair would
        # take 5.5 MB; a block of LABEL_BLOCK pairs takes a fraction of that.
        table, intervals = pair(duration_s=600.0, seed=1)
        tracemalloc.start()
        try:
            delays, _diffs = sweep_diffs(table, intervals, step_s=0.0005, min_cycles=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert delays.size * len(table) > 10 * rtpc.diff.LABEL_BLOCK
        assert peak < delays.size * len(table)


class TestSignedMaxCompleteness:
    def test_negative_at_zero_surfaces_with_delay(self):
        # a half-breath sensor delay makes the zero-delay Diff negative; the
        # full-period scan still finds the positive maximum near T/2
        flow, resp, _ = signals(
            duration_s=300.0,
            modulation={"period_pct": 8.0, "shape": "square", "sensor_delay_s": 2.15},
        )
        cycles = detect_cycles(flow)
        intervals = detect_resp_intervals(resp)
        scan = delay_scan(cycles, intervals, "cardiac_period")
        assert scan.diff_at_zero_pct < -4.0
        assert scan.max_diff_pct > 6.0
        assert scan.argmax_delay_s == pytest.approx(2.15, abs=0.47)


class TestPhaseSwapProperty:
    def test_half_period_shift_swaps_labels(self):
        intervals = periodic_intervals(period_s=4.0, n_breaths=40)
        cycles = as_table([make_cycle(8.0 + 0.9 * i, 8.9 + 0.9 * i) for i in range(120)])
        half = intervals.mean_period_s / 2.0
        for d in (0.0, 0.6, 1.1):
            lab_a = label_cycles(cycles, shift_intervals(intervals, d))
            lab_b = label_cycles(cycles, shift_intervals(intervals, d + half))
            swapped = {IN: EX, EX: IN}
            for a, b in zip(lab_a, lab_b):
                if a in swapped and b in swapped:
                    assert b == swapped[a]


class TestHalfPeriodShiftInvertsRatio:
    @settings(max_examples=60, deadline=None)
    @given(
        durations=st.lists(st.floats(0.6, 1.2), min_size=120, max_size=160),
        means=st.lists(st.floats(100.0, 900.0), min_size=160, max_size=160),
        valid=st.lists(st.booleans(), min_size=160, max_size=160),
    )
    def test_diff_becomes_reciprocal_ratio(self, durations, means, valid):
        # Dyadic period, step and boundaries: a half-period shift moves every
        # interval boundary onto the next one exactly, so EX and IN swap for
        # every cycle, and each Diff 100 (r - 1) turns into 100 (1/r - 1).
        intervals = periodic_intervals(period_s=4.0, n_breaths=60)
        ends = 8.0 + np.cumsum(durations)
        starts = np.concatenate([[8.0], ends[:-1]])
        # At least every third cycle is valid, so every phase keeps cycles.
        cycles = [make_cycle(a, b, m, valid=ok or k % 3 == 0)
                  for k, (a, b, m, ok) in enumerate(zip(starts, ends, means, valid))]
        with max_missing(1.0):
            delays, diffs = sweep_diffs(as_table(cycles), intervals, step_s=0.5, min_cycles=3)
        half = int(round(intervals.mean_period_s / 2.0 / 0.5))
        assert delays[half] == intervals.mean_period_s / 2.0
        checked = 0
        for param in PARAMETERS:
            for i in range(half):
                before, after = diffs[param][i], diffs[param][i + half]
                assert np.isnan(before) == np.isnan(after)
                if np.isnan(before):
                    continue
                r = 1.0 + before / 100.0
                assert after == pytest.approx(100.0 * (1.0 / r - 1.0), rel=1e-9, abs=1e-9)
                checked += 1
        assert checked > 0


class TestSweepOnCycleTable:
    @settings(max_examples=15, deadline=None)
    @given(
        case=st.sampled_from([dict(duration_s=120.0, seed=5),
                              dict(duration_s=90.0, seed=8,
                                   modulation={"mean_flow_pct": 10.0, "shape": "square"})]),
        pre_delay=st.sampled_from([0.0, 0.6, 1.3]),
        step_s=st.sampled_from([0.075, 0.25]),
    )
    def test_table_sweep_equals_list_sweep(self, case, pre_delay, step_s):
        flow, resp, _ = signals(**case)
        table = detect_cycles(flow)
        intervals = shift_intervals(detect_resp_intervals(resp), pre_delay)
        delays, diffs = sweep_diffs(table, intervals, step_s=step_s)
        listed = as_table(cycles_of(table, resample(flow)))
        want_delays, want = sweep_diffs(listed, intervals, step_s=step_s)
        assert np.array_equal(delays, want_delays)
        assert list(diffs) == list(PARAMETERS)
        for param in PARAMETERS:
            assert np.array_equal(diffs[param], want[param], equal_nan=True), param


def pair(**config):
    """A fresh cycle table and breathing intervals of a seeded simulation."""
    flow, resp, _ = signals(**config)
    return detect_cycles(flow), detect_resp_intervals(resp)


class TestDelayScanSharesOneSweep:
    @pytest.mark.parametrize("config", [
        dict(duration_s=120.0, seed=5),
        dict(duration_s=90.0, seed=8, modulation={"mean_flow_pct": 10.0, "shape": "square"}),
        dict(duration_s=300.0, modulation={"period_pct": 8.0, "shape": "square",
                                           "sensor_delay_s": 2.15}),
    ])
    def test_scan_is_finalized_sweep_row(self, config):
        table, intervals = pair(**config)
        delays, diffs = sweep_diffs(table, intervals)
        records = scan_artery(table, intervals)
        assert list(records) == list(PARAMETERS)
        for param in PARAMETERS:
            got = delay_scan(table, intervals, param)
            assert got == records[param], param
            assert got.delays_s == tuple(delays.tolist())
            assert np.array_equal(np.asarray(got.diff_pct, dtype=float), diffs[param],
                                  equal_nan=True), param
            assert got.max_diff_pct == np.nanmax(diffs[param])

    def test_one_sweep_per_pair(self, monkeypatch):
        a = pair(duration_s=120.0, seed=5)
        b = pair(duration_s=90.0, seed=8)
        swept = []
        monkeypatch.setattr(rtpc.diff, "sweep_diffs",
                            lambda *args, **kw: swept.append(args) or sweep_diffs(*args, **kw))
        scans = [delay_scan(*a, param) for param in PARAMETERS]
        assert len(swept) == 1
        for which in (b, a):
            delay_scan(*which, "mean_flow")
        assert [id(args[0]) for args in swept] == [id(a[0]), id(b[0]), id(a[0])]
        _, full = sweep_diffs(*a)
        for param, scan in zip(PARAMETERS, scans):
            assert np.array_equal(np.asarray(scan.diff_pct, dtype=float), full[param],
                                  equal_nan=True)
            assert isinstance(scan.delays_s, tuple) and isinstance(scan.diff_pct, tuple)

    def test_zero_inspiratory_flow_refuses_every_parameter(self):
        # Zero flow gives zero stroke volume too, so each scan of the pair
        # meets a zero inspiratory mean in the shared sweep.
        intervals = periodic_intervals(period_s=4.0, n_breaths=6)
        table = as_table([make_cycle(0.05 + 0.5 * i, 0.55 + 0.5 * i, 0.0) for i in range(48)])
        for param in PARAMETERS:
            with pytest.raises(ZeroInspiratoryValue, match="inspiratory mean_flow is zero"):
                delay_scan(table, intervals, param)


class TestExtractResult:
    """_record: one parameter's maximum, its delay and the delay's share of the period."""

    def test_reference_record(self):
        record = _record("mean_flow", (0.0, 0.56), np.array([2.7, 4.3]), mean_period_s=4.3)
        assert record.diff_at_zero_pct == pytest.approx(2.7)
        assert record.max_diff_pct == pytest.approx(4.3)
        assert record.argmax_delay_s == pytest.approx(0.56)
        assert record.delay_pct == pytest.approx(100.0 * 0.56 / 4.3)
        assert round(record.delay_pct, 1) == 13.0

    def test_flat_scan_max_equals_at_zero(self):
        record = _record("mean_flow", tuple(np.arange(0.0, 4.0, 0.5).tolist()), np.full(8, 1.5),
                         mean_period_s=4.3)
        assert record.max_diff_pct == record.diff_at_zero_pct
        assert record.argmax_delay_s == 0.0

    def test_delay_pct_consistency(self):
        record = _record("stroke_volume", (0.0, 1.0, 2.0), np.array([0.1, 5.0, 1.0]),
                         mean_period_s=4.0)
        assert abs(record.delay_pct - 100.0 * record.argmax_delay_s / 4.0) <= 1e-9
        assert record.delays_s == (0.0, 1.0, 2.0)

    def test_nan_scan_values_become_none(self):
        record = _record("mean_flow", (0.0, 1.0, 2.0), np.array([0.5, np.nan, 2.0]),
                         mean_period_s=4.0)
        assert record.diff_pct == (0.5, None, 2.0)

    @pytest.mark.parametrize("delays, values, field", [
        ((0.0, 2.0, 1.0), [0.5, 1.0, 2.0], "scan.delays_s"),
        ((0.0, 1.0, 1.0), [0.5, 1.0, 2.0], "scan.delays_s"),
        ((0.0, 2.0, 4.0), [2.0, 1.0, 0.5], "scan.delays_s"),
        ((0.0, 1.0, 2.0), [np.nan, np.nan, np.nan], "scan.diff_pct"),
    ], ids=["swapped", "repeated", "past-period", "no-diff"])
    def test_scan_rule_refused(self, delays, values, field):
        """_record builds by the rule the report reader checks: a scan that
        breaks it is refused, naming the parameter and the field."""
        with pytest.raises(InsufficientCycles, match=re.escape(f"{field} of mean_flow")):
            _record("mean_flow", delays, np.array(values), mean_period_s=4.0)

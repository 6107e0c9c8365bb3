"""Relations the delay scan must keep without any ground truth.

Each case transforms a seeded simulation's flow or belt and compares
scan_artery's three Diff records of the transformed pair with those of the
original one. Doubling the flow is exact in binary floating point, so its
records are equal bit for bit; the other rescalings and the shift of both
clocks round, so they keep the argmax delay and the maximum within
MAX_PCT_TOL points. Negating or delaying the belt moves the argmax to a known
delay, and the maxima within a bound stated with its reason. Resampling the
belt, or adding a slow drift to it, keeps the argmax delay, and the maxima
within a bound stated with its reason.
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers import signals

from rtpc.cycles import detect_cycles
from rtpc.diff import PARAMETERS, scan_artery
from rtpc.respiration import detect_resp_intervals

SEEDS = (1, 2, 3, 4)

#: How far, in percentage points, a maximum may move under a rounding transformation.
MAX_PCT_TOL = 1e-6

#: Negating the belt swaps the EX and IN labels of its breaths, which a shift
#: by half the mean breathing period does only roughly: breaths and their
#: halves vary in length. The maxima moved by up to 0.017 points on these seeds.
NEGATED_PCT_TOL = 0.02

#: Belt bounds lie on the 75 ms sample grid and cycle midpoints on a finer
#: grid that contains it, so a midpoint can sit exactly on a shifted bound,
#: where (bound + 0.3) + 0.3 and bound + 0.6 round to different sides. On seed 3 one cycle (midpoint
#: 205.95 s) changes phase and the maxima move by up to 0.062 points; on the
#: other seeds by 0.
DELAYED_PCT_TOL = 0.1

#: Resampling the belt puts its breath bounds on the new grid, up to half a
#: sample from where they were, so a cycle midpoint near a bound can change
#: phase. The maxima moved by up to 0.086 points at 53 Hz and 0.070 at 25 Hz
#: on these seeds.
RESAMPLED_PCT_TOL = 0.1

#: Slow drifts of the belt, by the breath amplitude A (half its range), each
#: with the bound its maxima keep. A linear drift to 5 A over the recording
#: moved them by up to 0.013 points, and amplitude modulation by 50 % at a
#: 60 s period by up to 0.068: both move the breath bounds a little. A step of
#: 2 A half-way moved them by 0, and a 60 s sine wander of 1 A by less than
#: 1e-7. A wander of 2 A moved the mean-flow maximum by 0.55 points, and is
#: not a relation.
DRIFT_PCT_TOL = {"linear": 0.02, "step": 0.0, "modulated": 0.1, "wander": MAX_PCT_TOL}


def simulation(seed):
    return signals(
        duration_s=300.0,
        seed=seed,
        modulation={"mean_flow_pct": 5.0, "period_pct": 5.0, "sensor_delay_s": 0.6},
        artifacts={"noise_sd": 20.0},
    )


def scans(flow, resp):
    return scan_artery(detect_cycles(flow), detect_resp_intervals(resp))


@pytest.fixture(scope="module", params=SEEDS, ids=[f"seed{s}" for s in SEEDS])
def case(request):
    flow, resp, _ = simulation(request.param)
    return flow, resp, scans(flow, resp)


def scaled(signal, factor, offset=0.0):
    return replace(signal, values=signal.values * factor + offset)


def shifted(signal, seconds):
    return replace(signal, t0_s=signal.t0_s + seconds)


def resampled(signal, hz):
    """The signal linearly interpolated onto a grid of hz from its first sample."""
    times = signal.t0_s + np.arange(len(signal)) * signal.dt_s
    step = 1.0 / hz
    grid = signal.t0_s + np.arange(int((times[-1] - times[0]) / step) + 1) * step
    return replace(signal, dt_s=step, values=np.interp(grid, times, signal.values))


def drifted(signal, kind):
    """The signal with a slow drift of its baseline or amplitude (see DRIFT_PCT_TOL)."""
    t = np.arange(len(signal)) * signal.dt_s
    v = signal.values
    amplitude = (v.max() - v.min()) / 2
    slow = np.sin(2 * np.pi * t / 60.0)
    values = {
        "linear": v + 5 * amplitude * t / t[-1],
        "step": v + 2 * amplitude * (t >= t[-1] / 2),
        "modulated": v * (1 + 0.5 * slow),
        "wander": v + amplitude * slow,
    }[kind]
    return replace(signal, values=values)


def assert_same_maxima(got, want, tol=MAX_PCT_TOL):
    for param in PARAMETERS:
        assert got[param].argmax_delay_s == want[param].argmax_delay_s, param
        assert got[param].max_diff_pct == pytest.approx(want[param].max_diff_pct,
                                                       rel=0.0, abs=tol), param


def test_flow_doubled_gives_equal_records(case):
    flow, resp, base = case
    assert scans(scaled(flow, 2.0), resp) == base


def test_flow_scaled_down(case):
    flow, resp, base = case
    assert_same_maxima(scans(scaled(flow, 1e-3), resp), base)


def test_belt_affine(case):
    flow, resp, base = case
    assert_same_maxima(scans(flow, scaled(resp, 3.0, 7.0)), base)


def test_both_clocks_shifted(case):
    flow, resp, base = case
    assert_same_maxima(scans(shifted(flow, 12.3), shifted(resp, 12.3)), base)


def test_belt_negated_moves_argmax_half_a_period(case):
    flow, resp, base = case
    got = scans(flow, scaled(resp, -1.0))
    period = detect_resp_intervals(resp).mean_period_s
    for param in PARAMETERS:
        target = (base[param].argmax_delay_s + period / 2) % period
        nearest = min(got[param].delays_s, key=lambda d: abs(d - target))
        assert got[param].argmax_delay_s == nearest == 2.775, param
        assert got[param].max_diff_pct == pytest.approx(base[param].max_diff_pct,
                                                       rel=0.0, abs=NEGATED_PCT_TOL), param


def test_belt_delayed_moves_argmax_back(case):
    flow, resp, base = case
    got = scans(flow, shifted(resp, 0.3))
    for param in PARAMETERS:
        assert base[param].argmax_delay_s == 0.6, param
        assert got[param].argmax_delay_s == 0.3, param
        assert got[param].max_diff_pct == pytest.approx(base[param].max_diff_pct,
                                                       rel=0.0, abs=DELAYED_PCT_TOL), param


@pytest.mark.parametrize("hz", [53.0, 25.0])
def test_belt_resampled(case, hz):
    flow, resp, base = case
    assert_same_maxima(scans(flow, resampled(resp, hz)), base, tol=RESAMPLED_PCT_TOL)


@pytest.mark.parametrize("kind", list(DRIFT_PCT_TOL))
def test_belt_drift(case, kind):
    flow, resp, base = case
    assert_same_maxima(scans(flow, drifted(resp, kind)), base, tol=DRIFT_PCT_TOL[kind])

"""Relations the delay scan must keep without any ground truth.

Each case transforms a seeded simulation's flow or belt and compares
scan_artery's three Diff records of the transformed pair with those of the
original one. Doubling the flow is exact in binary floating point, so its
records are equal bit for bit; the other rescalings and the shift of both
clocks round, so they keep the argmax delay and the maximum within
MAX_PCT_TOL points. Negating or delaying the belt moves the argmax to a known
delay, and the maxima within a bound stated with its reason.
"""

from dataclasses import replace

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


def assert_same_maxima(got, want):
    for param in PARAMETERS:
        assert got[param].argmax_delay_s == want[param].argmax_delay_s, param
        assert got[param].max_diff_pct == pytest.approx(want[param].max_diff_pct,
                                                       rel=0.0, abs=MAX_PCT_TOL), param


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

"""Relations the delay scan must keep without any ground truth.

Each case transforms a seeded simulation's flow or belt and compares
scan_artery's three Diff records of the transformed pair with those of the
original one. Doubling the flow is exact in binary floating point, so its
records are equal bit for bit; the other transformations round, so they keep
the argmax delay and the maximum within MAX_PCT_TOL points.
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

"""Expiration-vs-inspiration percentage differences and the delay scan.

Diff(parameter) = 100 * (P_EX - P_IN) / P_IN, where P_EX and P_IN are the
arithmetic means of a cycle parameter over valid expiratory / inspiratory
cycles. The scan relabels cycles under respiratory intervals shifted by
every delay on a grid covering one mean breathing period and takes the
signed maximum; because a half-period shift swaps the phase sets, effects
that are negative at zero delay still surface as positive maxima.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycles import CycleParams
from .errors import InsufficientCycles, ZeroInspiratoryValue
from .io import DiffRecord, REPORT_PARAMETERS
# label_cycles stays importable here: perfbench/tracing.py hooks diff.label_cycles.
from .respiration import EX, IN, RespIntervals, _interval_index, label_cycles  # noqa: F401

PARAMETERS = REPORT_PARAMETERS

_PARAM_ATTR = {
    "mean_flow": "mean_flow_ml_min",
    "stroke_volume": "stroke_volume_ml",
    "cardiac_period": "cardiac_period_s",
}


@dataclass(frozen=True, eq=False)
class DiffScanResult:
    """Diff as a function of delay for one parameter, plus its extraction."""

    parameter: str
    delays_s: np.ndarray
    diff_pct: np.ndarray  # NaN marks delays skipped for lack of cycles
    diff_at_zero_pct: float | None
    max_diff_pct: float
    argmax_delay_s: float
    delay_pct: float


def average_params(cycles: list, labels: list, phase: str, min_cycles: int = 3) -> CycleParams:
    """Arithmetic mean of each parameter over valid cycles with the phase label."""
    if phase not in (IN, EX):
        raise ValueError(f"phase must be {IN!r} or {EX!r}, got {phase!r}")
    if len(cycles) != len(labels):
        raise ValueError(f"{len(cycles)} cycles vs {len(labels)} labels")
    selected = [c.params for c, lab in zip(cycles, labels) if c.valid and lab == phase]
    if len(selected) < min_cycles:
        raise InsufficientCycles(
            f"{len(selected)} valid {phase} cycles, need {min_cycles}"
        )
    return CycleParams(
        mean_flow_ml_min=float(np.mean([p.mean_flow_ml_min for p in selected])),
        stroke_volume_ml=float(np.mean([p.stroke_volume_ml for p in selected])),
        cardiac_period_s=float(np.mean([p.cardiac_period_s for p in selected])),
    )


def diff_ex_in(p_ex: CycleParams, p_in: CycleParams) -> dict:
    """Percentage difference 100 * (EX - IN) / IN for each parameter."""
    out = {}
    for param, attr in _PARAM_ATTR.items():
        ex_value = getattr(p_ex, attr)
        in_value = getattr(p_in, attr)
        if in_value == 0:
            raise ZeroInspiratoryValue(f"inspiratory {param} is zero")
        out[param] = 100.0 * (ex_value - in_value) / in_value
    return out


def _delay_grid(mean_period_s: float, step_s: float) -> np.ndarray:
    if step_s <= 0:
        raise ValueError(f"step_s must be positive, got {step_s}")
    n = int(np.ceil(mean_period_s / step_s))
    delays = step_s * np.arange(n + 1)
    return delays[delays < mean_period_s]


def sweep_diffs(
    cycles: list,
    intervals: RespIntervals,
    step_s: float = 0.075,
    min_cycles: int = 3,
    max_missing_fraction: float = 0.2,
) -> tuple:
    """Diff of all three parameters at every delay of the scan grid.

    At each delay d a cycle takes the phase of the interval whose shifted
    half-open [start, end) holds its midpoint, where the shifted boundaries
    are base_bounds + (intervals.delay_s + d); midpoints outside the shifted
    span are unlabelled. The cycle list is read into arrays once and every
    delay is labelled with one searchsorted; each phase mean is np.mean over
    a contiguous gather in cycle order, so the results are bit-identical to
    label_cycles(cycles, shift_intervals(intervals, d)) followed by
    average_params and diff_ex_in at every delay.

    Delays where either phase has fewer than min_cycles valid cycles are
    skipped and recorded as NaN; more than max_missing_fraction of the grid
    missing is an error, and so is a belt whose intervals hold no cycle
    midpoint at any delay.

    Returns (delays_s, {parameter: diff array}).
    """
    delays = _delay_grid(intervals.mean_period_s, step_s)
    midpoints = np.array([c.boundary.midpoint_s for c in cycles], dtype=np.float64)
    valid = np.array([c.valid for c in cycles], dtype=bool)
    # One contiguous row per parameter, in cycle order.
    params = np.array(
        [[getattr(c.params, attr) for c in cycles] for attr in _PARAM_ATTR.values()],
        dtype=np.float64,
    )
    bounds = np.asarray(intervals.base_bounds)
    # Index -1 (outside the span) picks the trailing False.
    is_ex = np.array([p == EX for p in intervals.phases] + [False])
    is_in = np.array([p == IN for p in intervals.phases] + [False])
    diffs = {p: np.full(delays.size, np.nan) for p in PARAMETERS}
    missing = 0
    covered = False
    for i, delay in enumerate(delays):
        idx = _interval_index(midpoints, bounds, intervals.delay_s + float(delay))
        covered = covered or bool((idx >= 0).any())
        ex = valid & is_ex[idx]
        in_ = valid & is_in[idx]
        if np.count_nonzero(ex) < min_cycles or np.count_nonzero(in_) < min_cycles:
            missing += 1
            continue
        p_ex = CycleParams(*(float(np.mean(row[ex])) for row in params))
        p_in = CycleParams(*(float(np.mean(row[in_])) for row in params))
        for param, value in diff_ex_in(p_ex, p_in).items():
            diffs[param][i] = value
    if cycles and not covered:
        belt_start, belt_end = intervals.span
        flow_start = min(c.boundary.start_s for c in cycles)
        flow_end = max(c.boundary.end_s for c in cycles)
        raise InsufficientCycles(
            f"belt and flow do not overlap: breathing intervals span "
            f"{belt_start:.2f}-{belt_end:.2f} s, flow cycles span "
            f"{flow_start:.2f}-{flow_end:.2f} s, and no cycle midpoint falls "
            f"inside the belt span at any scan delay"
        )
    if missing > max_missing_fraction * delays.size:
        raise InsufficientCycles(
            f"{missing} of {delays.size} scan delays lack phase coverage "
            f"(> {max_missing_fraction:.0%} of the grid)"
        )
    return delays, diffs


def delay_scan(
    cycles: list,
    intervals: RespIntervals,
    parameter: str,
    step_s: float = 0.075,
    min_cycles: int = 3,
) -> DiffScanResult:
    """Scan Diff(parameter) over delays in [0, mean breathing period).

    The reported delay is the argmax of the signed Diff; exact ties go to the
    smallest delay. delay_pct expresses it as a percentage of the mean
    breathing period and always falls in [0, 100).
    """
    if parameter not in PARAMETERS:
        raise ValueError(f"parameter must be one of {PARAMETERS}, got {parameter!r}")
    delays, diffs = sweep_diffs(cycles, intervals, step_s=step_s, min_cycles=min_cycles)
    return finalize_scan(parameter, delays, diffs[parameter], intervals.mean_period_s)


def finalize_scan(
    parameter: str, delays: np.ndarray, values: np.ndarray, mean_period_s: float
) -> DiffScanResult:
    """Extract (max, argmax delay, delay%) from one scanned parameter."""
    if not np.isfinite(values).any():
        raise InsufficientCycles(f"no usable delay for {parameter}")
    best = int(np.nanargmax(values))  # first occurrence wins ties
    at_zero = float(values[0]) if delays[0] == 0.0 and np.isfinite(values[0]) else None
    argmax_delay = float(delays[best])
    delay_pct = 100.0 * argmax_delay / mean_period_s
    if not (0.0 <= delay_pct < 100.0):
        raise InsufficientCycles(f"delay {argmax_delay} outside one breathing period")
    return DiffScanResult(
        parameter=parameter,
        delays_s=delays,
        diff_pct=values,
        diff_at_zero_pct=at_zero,
        max_diff_pct=float(values[best]),
        argmax_delay_s=argmax_delay,
        delay_pct=delay_pct,
    )


def extract_result(scan: DiffScanResult, keep_scan: bool = True) -> DiffRecord:
    """Report record for one scanned parameter."""
    scan_delays = scan_values = None
    if keep_scan:
        scan_delays = tuple(float(d) for d in scan.delays_s)
        scan_values = tuple(
            float(v) if np.isfinite(v) else None for v in scan.diff_pct
        )
    return DiffRecord(
        at_zero_pct=scan.diff_at_zero_pct,
        max_pct=scan.max_diff_pct,
        delay_s=scan.argmax_delay_s,
        delay_pct=scan.delay_pct,
        scan_delays_s=scan_delays,
        scan_diff_pct=scan_values,
    )

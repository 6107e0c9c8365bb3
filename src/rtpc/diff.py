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

from .cycles import CycleParams, cycle_arrays
from .errors import InsufficientCycles, ZeroInspiratoryValue
from .report import DiffRecord, REPORT_PARAMETERS
# label_cycles stays importable here: perfbench/tracing.py hooks diff.label_cycles.
from .respiration import EX, IN, RespIntervals, _interval_index, label_cycles  # noqa: F401

PARAMETERS = REPORT_PARAMETERS

#: Most delays a scan grid may hold; a finer step is refused before the grid is built.
MAX_SCAN_DELAYS = 100_000

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


def _diff_pct(parameter: str, ex_value: float, in_value: float) -> float:
    if in_value == 0:
        raise ZeroInspiratoryValue(f"inspiratory {parameter} is zero")
    return 100.0 * (ex_value - in_value) / in_value


def diff_ex_in(p_ex: CycleParams, p_in: CycleParams) -> dict:
    """Percentage difference 100 * (EX - IN) / IN for each parameter."""
    return {
        param: _diff_pct(param, getattr(p_ex, attr), getattr(p_in, attr))
        for param, attr in _PARAM_ATTR.items()
    }


def _delay_grid(mean_period_s: float, step_s: float) -> np.ndarray:
    if not (np.isfinite(step_s) and step_s > 0):
        raise ValueError(f"step_s must be finite and positive, got {step_s}")
    if mean_period_s / step_s > MAX_SCAN_DELAYS:
        raise ValueError(
            f"step_s {step_s} gives more than {MAX_SCAN_DELAYS} scan delays "
            f"over a {mean_period_s:.3g} s period"
        )
    n = int(np.ceil(mean_period_s / step_s))
    delays = step_s * np.arange(n + 1)
    return delays[delays < mean_period_s]


def sweep_diffs(
    cycles,
    intervals: RespIntervals,
    step_s: float = 0.075,
    min_cycles: int = 3,
    max_missing_fraction: float = 0.2,
    parameters: tuple = PARAMETERS,
) -> tuple:
    """Diff of each of the given parameters at every delay of the scan grid.

    cycles is a CycleTable, whose arrays are used as they are, or any
    sequence of CCFC, which is read into the same arrays once. At each delay
    d a cycle takes the phase of the interval whose shifted half-open
    [start, end) holds its midpoint, where the shifted boundaries are
    base_bounds + (intervals.delay_s + d); midpoints outside the shifted span
    are unlabelled. Every delay is labelled with one searchsorted; each phase
    mean is a sum over a contiguous gather in cycle order divided by its
    count, as np.mean computes it, so the results are bit-identical to
    label_cycles(cycles, shift_intervals(intervals, d)) followed by
    average_params and diff_ex_in at every delay.

    Delays where either phase has fewer than min_cycles valid cycles are
    skipped and recorded as NaN; more than max_missing_fraction of the grid
    missing is an error, and so is a belt whose intervals hold no cycle
    midpoint at any delay.

    Returns (delays_s, {parameter: diff array}), in the order of parameters.
    """
    if min_cycles < 1:
        raise ValueError(f"min_cycles must be >= 1, got {min_cycles}")
    unknown = [p for p in parameters if p not in PARAMETERS]
    if unknown:
        raise ValueError(f"parameters must be among {PARAMETERS}, got {unknown}")
    delays = _delay_grid(intervals.mean_period_s, step_s)
    start, end, midpoints, params, valid = cycle_arrays(cycles)
    rows = params[[PARAMETERS.index(p) for p in parameters]]
    bounds = np.asarray(intervals.base_bounds)
    # Index -1 (outside the span) picks the trailing False.
    is_ex = np.array([p == EX for p in intervals.phases] + [False])
    is_in = np.array([p == IN for p in intervals.phases] + [False])
    diffs = {p: np.full(delays.size, np.nan) for p in parameters}
    missing = 0
    covered = False
    for i, delay in enumerate(delays.tolist()):
        idx = _interval_index(midpoints, bounds, intervals.delay_s + delay)
        covered = covered or bool((idx >= 0).any())
        ex = valid & is_ex[idx]
        in_ = valid & is_in[idx]
        n_ex, n_in = np.count_nonzero(ex), np.count_nonzero(in_)
        if n_ex < min_cycles or n_in < min_cycles:
            missing += 1
            continue
        for param, ex_row, in_row in zip(parameters, rows[:, ex], rows[:, in_]):
            diffs[param][i] = _diff_pct(param, float(ex_row.sum() / n_ex), float(in_row.sum() / n_in))
    if midpoints.size and not covered:
        belt_start, belt_end = intervals.span
        raise InsufficientCycles(
            f"belt and flow do not overlap: breathing intervals span "
            f"{belt_start:.2f}-{belt_end:.2f} s, flow cycles span "
            f"{start.min():.2f}-{end.max():.2f} s, and no cycle midpoint falls "
            f"inside the belt span at any scan delay"
        )
    if missing > max_missing_fraction * delays.size:
        raise InsufficientCycles(
            f"{missing} of {delays.size} scan delays lack phase coverage "
            f"(> {max_missing_fraction:.0%} of the grid)"
        )
    return delays, diffs


def delay_scan(
    cycles,
    intervals: RespIntervals,
    parameter: str,
    step_s: float = 0.075,
    min_cycles: int = 3,
) -> DiffScanResult:
    """Scan Diff(parameter) over delays in [0, mean breathing period).

    Only parameter is swept (see sweep_diffs for the labelling and the
    skipped delays). The reported delay is the argmax of the signed Diff; exact ties go to the
    smallest delay. delay_pct expresses it as a percentage of the mean
    breathing period and always falls in [0, 100).
    """
    delays, diffs = sweep_diffs(
        cycles, intervals, step_s=step_s, min_cycles=min_cycles, parameters=(parameter,)
    )
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

"""Expiration-vs-inspiration percentage differences and the delay scan.

Diff(parameter) = 100 * (P_EX - P_IN) / P_IN, where P_EX and P_IN are the
arithmetic means of a cycle parameter over valid expiratory / inspiratory
cycles. The scan relabels cycles (respiration.phase_codes) under
respiratory intervals shifted by every delay on a grid covering one mean
breathing period and takes the signed maximum by rtpc.report.scan_peak's
rule; because a half-period shift swaps the phase sets, effects that are
negative at zero delay still surface as positive maxima.
"""

from __future__ import annotations

import math

import numpy as np

from .cycles import CycleTable
from .errors import InsufficientCycles, ZeroInspiratoryValue
from .report import (DELAY_STEP_S, MAX_MISSING_FRACTION, MIN_CYCLES, REPORT_PARAMETERS, DiffRecord,
                     scan_peak)
# label_cycles stays importable here: perfbench/tracing.py hooks diff.label_cycles.
from .respiration import RespIntervals, label_cycles, phase_codes  # noqa: F401

PARAMETERS = REPORT_PARAMETERS

#: Most delays a scan grid may hold; a finer step is refused before the grid is built.
MAX_SCAN_DELAYS = 100_000

#: Most (delay, cycle) labels sweep_diffs holds at once; a longer grid is
#: labelled a block of delays at a time.
LABEL_BLOCK = 1 << 16


def _diff_pct(parameter: str, ex_value: float, in_value: float) -> float:
    if in_value == 0:
        raise ZeroInspiratoryValue(f"inspiratory {parameter} is zero")
    return 100.0 * (ex_value - in_value) / in_value


def _delay_grid(mean_period_s: float, step_s: float) -> np.ndarray:
    """The multiples of step_s below mean_period_s; ValueError for a step
    that is not finite and positive or gives more than MAX_SCAN_DELAYS."""
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
    cycles: CycleTable,
    intervals: RespIntervals,
    step_s: float = DELAY_STEP_S,
    min_cycles: int = MIN_CYCLES,
) -> tuple:
    """Diff of each of the three PARAMETERS at every delay of the scan grid.

    The sweep reads the start_s, end_s, midpoint_s, params and valid arrays
    of cycles. At each delay d a cycle takes the phase of the interval whose
    shifted half-open [start, end) holds its midpoint, where the shifted
    boundaries are intervals.base_bounds + d; midpoints outside the shifted
    span are unlabelled. respiration.phase_codes labels all delays in one
    pass, a block of at most LABEL_BLOCK delay-cycle pairs at a time. Each
    phase mean is then a sum over a contiguous gather in cycle order divided
    by its count, as np.mean computes it, so the sweep equals labelling and
    averaging the cycles one by one at each delay bit for bit
    (tests/oracles.py holds that per-cycle reference).

    Delays where either phase has fewer than min_cycles valid cycles are
    skipped and recorded as NaN; more than MAX_MISSING_FRACTION of the grid
    missing is an error, and so is a belt whose intervals hold no cycle
    midpoint at any delay.

    Returns (delays_s, {parameter: diff array}), in the order of PARAMETERS.
    """
    if min_cycles < 1:
        raise ValueError(f"min_cycles must be >= 1, got {min_cycles}")
    delays = _delay_grid(intervals.mean_period_s, step_s)
    midpoints, valid, rows = cycles.midpoint_s, cycles.valid, cycles.params
    diffs = {p: np.full(delays.size, np.nan) for p in PARAMETERS}
    missing = 0
    covered = False
    block = max(1, LABEL_BLOCK // max(midpoints.size, 1))
    for lo in range(0, delays.size, block):
        phase = phase_codes(midpoints, intervals, delays[lo : lo + block])
        covered = covered or bool(phase.any())
        ex, in_ = valid & (phase == 1), valid & (phase == 2)
        for i, n_ex, n_in in zip(range(lo, lo + block), ex.sum(axis=1).tolist(),
                                 in_.sum(axis=1).tolist()):
            if n_ex < min_cycles or n_in < min_cycles:
                missing += 1
                continue
            # C-ordered gathers in cycle order: each row sums pairwise as a 1-D slice does.
            ex_mean = rows.take(ex[i - lo].nonzero()[0], axis=1).sum(axis=1) / n_ex
            in_mean = rows.take(in_[i - lo].nonzero()[0], axis=1).sum(axis=1) / n_in
            for param, ex_value, in_value in zip(PARAMETERS, ex_mean.tolist(), in_mean.tolist()):
                diffs[param][i] = _diff_pct(param, ex_value, in_value)
    if midpoints.size and not covered:
        belt_start, belt_end = intervals.span
        raise InsufficientCycles(
            f"belt and flow do not overlap: breathing intervals span "
            f"{belt_start:.2f}-{belt_end:.2f} s, flow cycles span "
            f"{cycles.start_s.min():.2f}-{cycles.end_s.max():.2f} s, and no cycle midpoint falls "
            f"inside the belt span at any scan delay"
        )
    if missing > MAX_MISSING_FRACTION * delays.size:
        raise InsufficientCycles(
            f"{missing} of {delays.size} scan delays lack phase coverage "
            f"(> {MAX_MISSING_FRACTION:.0%} of the grid)"
        )
    return delays, diffs


def scan_artery(
    cycles: CycleTable,
    intervals: RespIntervals,
    step_s: float = DELAY_STEP_S,
    min_cycles: int = MIN_CYCLES,
) -> dict[str, DiffRecord]:
    """The DiffRecord of each of the three PARAMETERS, from one sweep_diffs.

    Each record holds the signed maximum of its parameter's Diff over the
    scan and the delay it falls at; exact ties go to the smallest delay.
    delay_pct expresses that delay as a percentage of the mean breathing
    period and always falls in [0, 100). The record keeps the whole scan, with
    None for a skipped delay (see sweep_diffs for the labelling and the
    skipped delays). Returns {parameter: DiffRecord}, in the order of
    PARAMETERS.
    """
    delays, diffs = sweep_diffs(cycles, intervals, step_s=step_s, min_cycles=min_cycles)
    delays_s = tuple(delays.tolist())
    return {p: _record(p, delays_s, diffs[p], intervals.mean_period_s) for p in PARAMETERS}


def _record(parameter: str, delays_s: tuple, values: np.ndarray, mean_period_s: float) -> DiffRecord:
    """parameter's DiffRecord from its Diff at each delay of delays_s (NaN if
    skipped), by report.scan_peak's rule."""
    diff_pct = tuple(v if math.isfinite(v) else None for v in values.tolist())
    best, at = scan_peak(delays_s, diff_pct, mean_period_s, parameter, InsufficientCycles)
    return DiffRecord(
        diff_at_zero_pct=diff_pct[0],  # the grid starts at delay 0
        max_diff_pct=best,
        argmax_delay_s=at,
        delay_pct=100.0 * at / mean_period_s,
        delays_s=delays_s,
        diff_pct=diff_pct,
    )


#: (cycles, intervals, their scan_artery records) of delay_scan's last pair.
_last_scan = None


def delay_scan(cycles: CycleTable, intervals: RespIntervals, parameter: str) -> DiffRecord:
    """parameter's record of scan_artery(cycles, intervals), at DELAY_STEP_S and MIN_CYCLES.

    The records of the last pair are kept, so the three scans of one
    cycles/intervals pair (the same two objects) share one sweep; a zero
    inspiratory mean of any parameter at a scanned delay therefore raises
    ZeroInspiratoryValue for each.
    """
    global _last_scan
    if parameter not in PARAMETERS:
        raise ValueError(f"parameter must be one of {PARAMETERS}, got {parameter!r}")
    last = _last_scan
    if last is None or last[0] is not cycles or last[1] is not intervals:
        last = _last_scan = (cycles, intervals, scan_artery(cycles, intervals))
    return last[2][parameter]

"""Breathing intervals from the belt signal, and phase labels for cycles.

Belt polarity convention: rising amplitude is inhalation, so a trough-to-peak
stretch is an inspiratory interval (IN) and peak-to-trough is expiratory
(EX). Invert the belt signal upstream if a sensor uses the opposite
convention. The delay scan (rtpc.diff) shifts the intervals by nonnegative
delays; a positive delay means the flow response lags the belt.
"""

from __future__ import annotations

import numpy as np

from .errors import NoBreathsDetected, NonAlternating
from .io import Frozen, SampledSignal
from .numerics import find_peaks
from .report import (
    INTERVAL_DURATION_BAND,
    MIN_SEPARATION_S,
    PROMINENCE_FRACTION,
    SMOOTH_WINDOW_S,
)

IN = "IN"
EX = "EX"
UNLABELED = "UNLABELED"


class RespIntervals(Frozen):
    """Abutting, strictly alternating IN/EX intervals.

    base_bounds are the len(phases) + 1 boundaries as detected on the belt;
    the delay scan labels cycles under base_bounds + d for each delay d of
    its grid.
    """

    __slots__ = ("phases", "base_bounds", "mean_period_s")

    def __init__(self, phases: tuple, base_bounds: tuple, mean_period_s: float):
        if len(base_bounds) != len(phases) + 1:
            raise ValueError("need exactly one more boundary than phases")
        if len(phases) < 1:
            raise NoBreathsDetected("no breathing intervals")
        bounds = np.asarray(base_bounds, dtype=np.float64)
        if not (np.diff(bounds) > 0).all():
            raise ValueError("interval boundaries must be strictly increasing")
        for a, b in zip(phases[:-1], phases[1:]):
            if a == b or {a, b} != {IN, EX}:
                raise NonAlternating(f"phases do not alternate: {a!r} followed by {b!r}")
        if phases[0] not in (IN, EX):
            raise NonAlternating(f"unknown phase {phases[0]!r}")
        if not mean_period_s > 0:
            raise NoBreathsDetected(f"mean period must be positive, got {mean_period_s}")
        durations = np.diff(bounds)
        lo, hi = (f * mean_period_s for f in INTERVAL_DURATION_BAND)
        if (durations <= lo).any() or (durations >= hi).any():
            raise NonAlternating(
                f"interval durations outside {INTERVAL_DURATION_BAND} x mean period "
                f"{mean_period_s:.3g} s: {durations.min():.3g}..{durations.max():.3g} s"
            )
        phases, base_bounds = tuple(phases), tuple(float(b) for b in base_bounds)
        self._fill(locals())

    def __len__(self) -> int:
        return len(self.phases)

    def _key(self) -> tuple:
        return self.phases, self.base_bounds, self.mean_period_s

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, RespIntervals) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def span(self) -> tuple:
        return (self.base_bounds[0], self.base_bounds[-1])


def _moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered box filter with edge renormalization."""
    if window <= 1:
        return values.astype(np.float64)
    kernel = np.ones(window)
    sums = np.convolve(values, kernel, mode="same")
    counts = np.convolve(np.ones(values.size), kernel, mode="same")
    return sums / counts


def detect_resp_intervals(resp: SampledSignal) -> RespIntervals:
    """Extract alternating IN/EX intervals from a belt signal.

    The signal is box-smoothed over SMOOTH_WINDOW_S, then troughs and peaks
    are detected at least MIN_SEPARATION_S apart, with a prominence floor of
    PROMINENCE_FRACTION times the smoothed signal range (settings from
    rtpc.report). Runs of same-type extrema are collapsed to the most extreme
    one. The mean breathing period is the mean trough-to-trough duration,
    which needs at least two troughs.
    """
    if resp.kind != "respiration":
        raise ValueError(f"expected a respiration signal, got kind {resp.kind!r}")
    if resp.duration_s < 2.0 * MIN_SEPARATION_S:
        raise NoBreathsDetected(
            f"recording of {resp.duration_s:.3g} s is shorter than 2 x {MIN_SEPARATION_S} s"
        )
    window = max(1, int(round(SMOOTH_WINDOW_S / resp.dt_s)))
    if window % 2 == 0:
        window += 1
    smoothed = _moving_average(resp.values, window)
    signal_range = float(smoothed.max() - smoothed.min())
    if signal_range <= 0:
        raise NoBreathsDetected("belt signal is constant")
    prominence = PROMINENCE_FRACTION * signal_range
    distance = max(1, int(np.ceil(MIN_SEPARATION_S / resp.dt_s)))
    peak_idx = find_peaks(smoothed, distance, prominence)
    trough_idx = find_peaks(-smoothed, distance, prominence)

    events = sorted(
        [(int(i), "peak") for i in peak_idx] + [(int(i), "trough") for i in trough_idx]
    )
    # Collapse runs of same-type events, keeping the most extreme (earliest on ties).
    collapsed: list = []
    for idx, etype in events:
        if collapsed and collapsed[-1][1] == etype:
            prev_idx = collapsed[-1][0]
            better = (
                smoothed[idx] > smoothed[prev_idx]
                if etype == "peak"
                else smoothed[idx] < smoothed[prev_idx]
            )
            if better:
                collapsed[-1] = (idx, etype)
        else:
            collapsed.append((idx, etype))

    n_troughs = sum(1 for _, e in collapsed if e == "trough")
    n_peaks = sum(1 for _, e in collapsed if e == "peak")
    if n_troughs < 2 or n_peaks < 1:
        raise NoBreathsDetected(
            f"found {n_troughs} troughs and {n_peaks} peaks; need a full breath"
        )
    trough_times = [resp.t0_s + i * resp.dt_s for i, e in collapsed if e == "trough"]
    mean_period = float(np.mean(np.diff(trough_times)))
    bounds = tuple(resp.t0_s + i * resp.dt_s for i, _ in collapsed)
    phases = tuple(IN if e == "trough" else EX for i, e in collapsed[:-1])
    return RespIntervals(phases=phases, base_bounds=bounds, mean_period_s=mean_period)


def _interval_index(midpoints: np.ndarray, bounds: np.ndarray, delay_s: float) -> np.ndarray:
    """Index of the half-open interval [start, end) holding each midpoint.

    bounds are the undelayed interval boundaries and delay_s the shift; the
    shifted boundaries are bounds + delay_s. Midpoints outside the shifted
    span get -1.
    """
    shifted = bounds + delay_s
    idx = np.searchsorted(shifted[:-1], midpoints, side="right") - 1
    idx[(midpoints < shifted[0]) | (midpoints >= shifted[-1])] = -1
    return idx


def label_cycles(cycles, intervals: RespIntervals) -> list:
    """Phase label per cycle from midpoint containment.

    A cycle gets the phase of the interval containing its temporal midpoint;
    intervals are half-open [start, end), and midpoints outside the covered
    span are UNLABELED. cycles is a CycleTable; only its midpoint_s is read.
    """
    idx = _interval_index(cycles.midpoint_s, np.asarray(intervals.base_bounds), 0.0)
    return [intervals.phases[i] if i >= 0 else UNLABELED for i in idx.tolist()]

"""Breathing intervals from the belt signal, and phase labels for cycles.

Belt polarity convention: rising amplitude is inhalation, so a trough-to-peak
stretch is an inspiratory interval (IN) and peak-to-trough is expiratory
(EX). Invert the belt signal upstream if a sensor uses the opposite
convention. phase_codes labels cycles under the intervals shifted by any
delay, for label_cycles and for the delay scan (rtpc.diff); a positive
delay means the flow response lags the belt.
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

    # The extrema in time order (a sample is never both a peak and a trough).
    index = np.concatenate((peak_idx, trough_idx))
    order = np.argsort(index)
    index, is_peak = index[order], order < peak_idx.size
    # Collapse each run of same-type extrema to its most extreme one, the
    # earliest on ties: a stable sort by run, then by rank, puts it first.
    run_start = np.ones(index.size, dtype=bool)
    run_start[1:] = is_peak[1:] != is_peak[:-1]
    rank = np.where(is_peak, -smoothed[index], smoothed[index])
    kept = np.lexsort((rank, np.cumsum(run_start)))[run_start]
    index, is_peak = index[kept], is_peak[kept]

    n_peaks = int(np.count_nonzero(is_peak))
    n_troughs = index.size - n_peaks
    if n_troughs < 2 or n_peaks < 1:
        raise NoBreathsDetected(
            f"found {n_troughs} troughs and {n_peaks} peaks; need a full breath"
        )
    times = resp.t0_s + index * resp.dt_s
    mean_period = float(np.mean(np.diff(times[~is_peak])))
    phases = tuple(EX if peak else IN for peak in is_peak[:-1].tolist())
    return RespIntervals(phases=phases, base_bounds=tuple(times.tolist()), mean_period_s=mean_period)


def phase_codes(midpoints: np.ndarray, intervals: RespIntervals, delays: np.ndarray) -> np.ndarray:
    """The (len(delays), len(midpoints)) int8 phase codes, 0 unlabelled, 1 EX
    and 2 IN, of each midpoint under intervals shifted by each delay d: the
    phase of the half-open [start, end) of base_bounds + d that holds it.
    One searchsorted of every shifted boundary into the midpoints, taken in
    stable sorted order, counts the midpoints in each shifted interval."""
    order = np.argsort(midpoints, kind="stable")
    shifted = np.asarray(intervals.base_bounds) + delays[:, None]
    # The midpoints below each shifted boundary, then in each stretch between two.
    stretches = np.diff(np.searchsorted(midpoints[order], shifted), axis=1,
                        prepend=0, append=midpoints.size)
    # The phase before the span, in each interval and past the span.
    codes = np.array([0] + [1 if p == EX else 2 for p in intervals.phases] + [0], dtype=np.int8)
    phase = np.empty((delays.size, midpoints.size), dtype=np.int8)
    phase[:, order] = np.repeat(np.tile(codes, delays.size),
                                stretches.ravel()).reshape(phase.shape)
    return phase


def label_cycles(cycles, intervals: RespIntervals) -> list:
    """Phase label per cycle from midpoint containment.

    A cycle gets the phase of the interval containing its temporal midpoint;
    intervals are half-open [start, end), and midpoints outside the covered
    span are UNLABELED (phase_codes at delay 0). cycles is a CycleTable;
    only its midpoint_s is read.
    """
    labels = (UNLABELED, EX, IN)
    return [labels[c] for c in phase_codes(cycles.midpoint_s, intervals, np.zeros(1))[0].tolist()]

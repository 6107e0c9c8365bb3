"""numpy forms of the scipy routines the analysis path uses, and other
exact numpy forms that take less memory than the plain one.

Each function gives what one scipy or numpy routine gives, bit for bit (the
scipy forms by the same operations in the same order), so each step that
calls one computes exactly what it would with scipy. The tests compare each
function with its original for exact equality.

- local_maxima: the peaks of scipy.signal.find_peaks(x);
- find_peaks: scipy.signal.find_peaks(x, distance=, prominence=);
- welch: scipy.signal.welch with a periodic Hann window, nperseg samples,
  half overlap and constant detrending;
- seed_component: the union over frames of the component of
  scipy.ndimage.label (4-connected) that holds a seed pixel;
- distance_band: distance_transform_edt(~mask) restricted to [inner, outer];
- median, quantile, distinct: np.median, np.quantile (and so np.percentile)
  and np.unique(return_counts=True) of a 1-D array, by numpy's own steps.
  np.median, np.quantile and a plain np.unique load numpy.ma (13-19 ms) on
  first use; these do not.
"""

from __future__ import annotations

import math

import numpy as np

_COMPONENT_CHUNK_FRAMES = 256


def local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of find_peaks(x) with no conditions.

    A peak is a run of equal samples with a smaller neighbour on each side;
    its index is the middle of the run (the left one of two middles). The
    first and last samples are never peaks. Without equal neighbours every
    run is one sample, so a peak is a sample above both neighbours.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (x[1:] == x[:-1]).any():
        return np.flatnonzero((x[:-2] < x[1:-1]) & (x[2:] < x[1:-1])) + 1
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    ends = np.concatenate((starts[1:], [x.size])) - 1
    inner = (starts > 0) & (ends < x.size - 1)
    starts, ends = starts[inner], ends[inner]
    peak = (x[starts - 1] < x[starts]) & (x[ends + 1] < x[ends])
    return ((starts[peak] + ends[peak]) // 2).astype(np.intp)


def find_peaks(x: np.ndarray, distance: int, prominence: float) -> np.ndarray:
    """Indices of find_peaks(x, distance=distance, prominence=prominence).

    As in scipy, the distance rule runs first, on all local maxima: the
    highest peak (in np.argsort order, so ties resolve exactly as scipy's)
    removes every lower-priority neighbour closer than distance. Then the
    prominence floor applies to the survivors.
    """
    x = np.asarray(x, dtype=np.float64)
    peaks = local_maxima(x)
    keep = np.ones(peaks.size, dtype=bool)
    distance = math.ceil(distance)
    pos = peaks.tolist()
    for j in np.argsort(x[peaks])[::-1].tolist():
        if not keep[j]:
            continue
        k = j - 1
        while k >= 0 and pos[j] - pos[k] < distance:
            keep[k] = False
            k -= 1
        k = j + 1
        while k < len(pos) and pos[k] - pos[j] < distance:
            keep[k] = False
            k += 1
    peaks = peaks[keep]
    return peaks[prominence <= _prominences(x, peaks)]


def _prominences(x: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Peak height over the higher of the two bases, scipy's unbounded walk.

    Each base is the minimum of x from the peak out to (not including) the
    first sample higher than the peak, or to the end of the signal. Those
    stretches are found for all peaks at once by binary lifting on a table
    of range maxima: level k holds max(x[i : i + 2**k]).
    """
    n = x.size
    levels = [x]
    while 2 ** len(levels) <= n:
        half = 2 ** (len(levels) - 1)
        levels.append(np.maximum(levels[-1][:-half], levels[-1][half:]))
    height = x[peaks]
    lo, hi = peaks.copy(), peaks + 1  # grows to the stretch [lo, hi) around each peak
    for k in range(len(levels) - 1, -1, -1):
        step = 2**k
        fits = lo >= step
        fits[fits] = levels[k][lo[fits] - step] <= height[fits]
        lo[fits] -= step
        fits = hi + step <= n
        fits[fits] = levels[k][hi[fits]] <= height[fits]
        hi[fits] += step
    padded = np.append(x, np.inf)  # lets a stretch end at n
    left_min = np.minimum.reduceat(padded, np.column_stack((lo, peaks + 1)).ravel())[::2]
    right_min = np.minimum.reduceat(padded, np.column_stack((peaks, hi)).ravel())[::2]
    return height - np.maximum(left_min, right_min)


def welch(x: np.ndarray, fs: float, nperseg: int) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and one-sided power density of welch(x, fs, nperseg=nperseg).

    scipy's defaults otherwise: periodic Hann window, nperseg // 2 overlap,
    mean detrending per segment, density scaling, mean over segments. The
    steps follow csd and ShortTimeFFT: the window as general_cosine builds
    it, scaled by 1 / sqrt(sum(w**2) / T) with the builtin sequential sum,
    |rfft|**2 as re**2 + im**2 on a (frequency, segment) array, the inner
    bins doubled, then the mean over segments.
    """
    x = np.asarray(x, dtype=np.float64)
    hop = nperseg - nperseg // 2
    n_segments = (x.size - nperseg // 2) // hop
    fac = np.linspace(-np.pi, np.pi, nperseg + 1)
    w = np.zeros(nperseg + 1)
    w += 0.5 * np.cos(0 * fac)
    w += 0.5 * np.cos(1 * fac)
    w = w[:-1]
    period = 1 / fs
    w = w * (1 / np.sqrt(sum(w**2) / period))

    starts = np.arange(n_segments) * hop
    segments = x[starts[:, None] + np.arange(nperseg)]
    segments = segments - np.mean(segments, -1, keepdims=True)
    spectrum = np.fft.rfft(segments * w, axis=-1)
    power = np.ascontiguousarray((spectrum.real**2 + spectrum.imag**2).T)
    power[1 : -1 if nperseg % 2 == 0 else None] *= 2
    return np.fft.rfftfreq(nperseg, period), power.mean(axis=-1)


def seed_component(frames: np.ndarray, threshold: float, seed_row: int, seed_col: int) -> np.ndarray:
    """The union over frames of each frame's 4-connected component of
    |frame| >= threshold that holds the seed, as one (height, width) mask.

    A frame where the seed is below threshold adds nothing. Frames are grown
    a chunk at a time by repeated 4-neighbour growth from the seed, which
    equals ndimage.label's component exactly, and each chunk is ORed into the
    union, so no per-frame masks are held beyond one chunk's.
    """
    union = np.zeros(frames.shape[1:], dtype=bool)
    for lo in range(0, len(frames), _COMPONENT_CHUNK_FRAMES):
        chunk = frames[lo : lo + _COMPONENT_CHUNK_FRAMES]
        union |= _grow(np.abs(chunk) >= threshold, seed_row, seed_col).any(axis=0)
    return union


def _grow(above: np.ndarray, row: int, col: int) -> np.ndarray:
    """Flood fill of each frame of `above` from (row, col), 4-connected.

    After k growth steps a fill lies within k pixels of the seed along each
    axis, so step k + 1 dilates only the box of half-width k + 1 around the
    seed, clipped to the frame. Only frames that are still growing are
    dilated: those whose seed pixel is set, until a step adds nothing to them.
    """
    reach = np.zeros_like(above)
    active = np.flatnonzero(above[:, row, col])
    reach[active, row, col] = True
    k = 0
    while active.size:
        k += 1
        box = (active, slice(max(row - k, 0), row + k + 1), slice(max(col - k, 0), col + k + 1))
        before = reach[box]
        grown = before.copy()
        grown[:, 1:, :] |= before[:, :-1, :]
        grown[:, :-1, :] |= before[:, 1:, :]
        grown[:, :, 1:] |= before[:, :, :-1]
        grown[:, :, :-1] |= before[:, :, 1:]
        grown &= above[box]
        reach[box] = grown
        active = active[(grown != before).any(axis=(1, 2))]
    return reach


def distance_band(mask: np.ndarray, inner: float, outer: float) -> np.ndarray:
    """Pixels whose distance_transform_edt(~mask) lies in [inner, outer].

    Straight from the definition: a pixel's distance is sqrt of its smallest
    dy**2 + dx**2 to a mask pixel, over |dy|, |dx| <= floor(outer). A
    nearest mask pixel outside that square lies more than outer away, and
    then so does the nearest one inside it, if any: either way the pixel is
    out of the band. mask must have at least one pixel.
    """
    height, width = mask.shape
    reach = math.floor(outer)
    padded = np.pad(mask, reach)
    d2 = np.full(mask.shape, np.inf)
    for dy in range(-reach, reach + 1):
        for dx in range(-reach, reach + 1):
            near = padded[reach + dy : reach + dy + height, reach + dx : reach + dx + width]
            np.minimum(d2, np.where(near, float(dy * dy + dx * dx), np.inf), out=d2)
    distance = np.sqrt(d2)
    return (distance >= inner) & (distance <= outer)


def median(values: np.ndarray, overwrite_input: bool = False):
    """np.median(values) of a 1-D float64 array, bit for bit, NaN included.

    The same steps as numpy's: the same np.partition call, then the float64
    mean of the middle one or two values. np.median itself loads numpy.ma
    (13-19 ms) for its NaN check; this reads the last partitioned value
    instead. values must not be empty; with overwrite_input it is
    partitioned in place.

    A float32 array without NaN is partitioned as it is, and its middle
    averaged in float64: that is np.median(values.astype(np.float64)) bit for
    bit, apart from the sign of a zero median. float32 values convert to
    float64 exactly and order alike, but a float32 partition may pick the
    other of two tied zeros.
    """
    part = values if overwrite_input else values.copy()
    n = part.size
    middle = n // 2
    part.partition([middle - 1, middle, -1] if n % 2 == 0 else [middle, -1])
    if math.isnan(part[-1]):
        return part[-1]
    return part[middle - 1 + n % 2 : middle + 1].mean(dtype=np.float64)


def quantile(values: np.ndarray, q: float, overwrite_input: bool = False):
    """np.quantile(values, q) of a non-empty 1-D float array for a float q in
    [0, 1], with numpy's default "linear" method, bit for bit, NaN included.

    The same steps as numpy's: virtual index (n - 1) * q, its neighbours (both
    -1 at or above n - 1), one np.partition at those, 0 and -1, and numpy's
    two-sided lerp in the array's dtype. np.quantile itself loads numpy.ma
    (through np.unique) to sort those indices. np.percentile(values, p) is
    quantile(values, p / 100). With overwrite_input, values is partitioned in
    place.
    """
    part = values if overwrite_input else values.copy()
    virtual = (part.size - 1) * q
    if virtual >= part.size - 1:
        below = above = -1
    else:
        below = math.floor(virtual)
        above = below + 1
    part.partition(sorted({0, -1, below, above}))
    if math.isnan(part[-1]):
        return part[-1]
    t = virtual - below
    a, b = part[below], part[above]
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def distinct(values: np.ndarray) -> tuple:
    """np.unique(values, return_counts=True) of a 1-D array without NaN: the
    sorted distinct values and how often each occurs."""
    ordered = np.sort(values)
    first = np.empty(ordered.size, dtype=bool)  # the first of each run of equal values
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return ordered[starts], np.diff(np.append(starts, ordered.size))

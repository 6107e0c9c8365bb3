"""Nonparametric statistics: Spearman rank correlation, Wilcoxon signed-rank,
and mean +/- SD summaries.

Both tests use exact small-sample p-values because the cohorts this package
targets are tiny, where the usual approximations are untrustworthy. Ties get
average ranks throughout. The exact null distributions are counted on
doubled ranks, which are integers, so "at least as extreme as observed" is
an exact integer comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroDifferences, EmptyInput, TooFewSamples, ZeroVariance

EXACT_SPEARMAN_MAX_N = 10
EXACT_WILCOXON_MAX_N = 20


@dataclass(frozen=True)
class CorrelationResult:
    rho: float
    p_value: float
    n: int
    method: str  # "exact-permutation" | "t-approximation"


@dataclass(frozen=True)
class SignedRankResult:
    w_statistic: float
    p_value: float
    n_nonzero: int
    method: str  # "exact" | "normal-approximation"


def _require_finite(values: np.ndarray, name: str) -> None:
    """ValueError naming the argument and its first NaN or infinite entry."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{name} holds a non-finite value ({values[bad[0]]}) at index {bad[0]}")


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties assigned the average of their positions."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    s = values[order]
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j < values.size and s[j] == s[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)  # mean of 1-based positions i+1 .. j
        i = j
    return ranks


def _doubled(ranks) -> np.ndarray:
    """Average ranks times two: exact integers."""
    return np.rint(2.0 * ranks).astype(np.int64)


def _rank_product_counts(a, b) -> np.ndarray:
    """counts[S] = number of permutations p with sum_i a[i] * b[p[i]] == S.

    A DP over subsets of b's positions: after placing a[0..i-1], each set of
    i used positions holds the distribution of the partial sums.
    """
    n = a.size
    width = int(np.sort(a) @ np.sort(b)) + 1  # the largest sum, by rearrangement
    start = np.zeros(width, dtype=np.int64)
    start[0] = 1
    layer = {0: start}
    for i in range(n):
        nxt = {}
        for used, counts in layer.items():
            for j in range(n):
                if used >> j & 1:
                    continue
                step = int(a[i] * b[j])
                dest = nxt.setdefault(used | 1 << j, np.zeros(width, dtype=np.int64))
                dest[step:] += counts[:width - step]
        layer = nxt
    return layer[(1 << n) - 1]


def spearman(x, y) -> CorrelationResult:
    """Spearman rank correlation with a two-sided p-value.

    rho is the Pearson correlation of the average-rank vectors. For n <= 10
    the p-value is exact: the fraction of all n! orderings of y whose |rho|
    reaches the observed one; with doubled ranks a and b, |rho| of an ordering
    p grows with |S - n(n+1)^2| for S = sum a[i] * b[p[i]]. Larger samples
    use the t approximation with n - 2 degrees of freedom.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    _require_finite(x, "x")
    _require_finite(y, "y")
    n = x.size
    if n < 3:
        raise TooFewSamples(f"need n >= 3, got {n}")
    if (x == x[0]).all():
        raise ZeroVariance("all x values tied")
    if (y == y[0]).all():
        raise ZeroVariance("all y values tied")
    rx = average_ranks(x)
    ry = average_ranks(y)
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    norm = math.sqrt(float(cx @ cx) * float(cy @ cy))
    rho = float(cx @ cy) / norm

    if n <= EXACT_SPEARMAN_MAX_N:
        a, b = _doubled(rx), _doubled(ry)
        center = n * (n + 1) ** 2  # the mean of S over all orderings
        counts = _rank_product_counts(a, b)
        extreme = np.abs(np.arange(counts.size) - center) >= abs(int(a @ b) - center)
        p = int(counts[extreme].sum()) / math.factorial(n)
        return CorrelationResult(rho=rho, p_value=p, n=n, method="exact-permutation")

    if abs(rho) >= 1.0:
        p = math.ulp(0.0)
    else:
        from scipy.special import stdtr  # imported here: the exact path needs no scipy

        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = 2.0 * float(stdtr(n - 2, -abs(t)))
        p = min(1.0, max(p, math.ulp(0.0)))
    return CorrelationResult(rho=rho, p_value=p, n=n, method="t-approximation")


def wilcoxon_signed_rank(x, y) -> SignedRankResult:
    """Wilcoxon signed-rank test on paired samples, two-sided.

    Zero differences are discarded; |differences| get average ranks and
    W = min(positive rank sum, negative rank sum). For up to 20 nonzero
    differences the p-value is exact over all 2^n sign assignments, counted
    by a subset-sum recursion over doubled ranks; otherwise the normal
    approximation with tie correction and a 0.5 continuity correction is used.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    _require_finite(x, "x")
    _require_finite(y, "y")
    if x.size == 0:
        raise TooFewSamples("empty samples")
    d = x - y
    d = d[d != 0]
    n = d.size
    if n == 0:
        raise AllZeroDifferences("every paired difference is zero")
    ranks = average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)

    if n <= EXACT_WILCOXON_MAX_N:
        total = n * (n + 1)  # doubled sum of all ranks
        counts = np.zeros(total + 1, dtype=np.int64)  # counts[T]: sign sets with doubled W+ == T
        counts[0] = 1
        for r in _doubled(ranks):
            counts[r:] = counts[r:] + counts[:-r]
        t = np.arange(total + 1)
        count = int(counts[np.minimum(t, total - t) <= round(2.0 * w)].sum())
        return SignedRankResult(
            w_statistic=w, p_value=count / (1 << n), n_nonzero=n, method="exact"
        )

    mean = 0.25 * n * (n + 1)
    variance = n * (n + 1) * (2 * n + 1)
    _, tie_counts = np.unique(ranks, return_counts=True)
    variance -= 0.5 * float((tie_counts**3 - tie_counts).sum())
    se = math.sqrt(variance / 24.0)
    z = (w - mean + 0.5) / se  # w <= mean, continuity correction toward the mean
    p = min(1.0, math.erfc(-z / math.sqrt(2.0)))
    return SignedRankResult(
        w_statistic=w, p_value=p, n_nonzero=n, method="normal-approximation"
    )


def summarize(values) -> dict:
    """Mean and sample standard deviation (None when n < 2)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise EmptyInput("cannot summarize an empty list")
    _require_finite(values, "values")
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if values.size >= 2 else None
    return {"mean": mean, "sd": sd}

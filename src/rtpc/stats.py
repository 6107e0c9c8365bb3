"""Nonparametric statistics: Spearman rank correlation and Wilcoxon signed-rank.

Both tests use exact small-sample p-values because the cohorts this package
targets are tiny, where the usual approximations are untrustworthy. Ties get
average ranks throughout. The exact null distributions are counted on
doubled ranks, which are integers, so "at least as extreme as observed" is
an exact integer comparison.

Above those sizes Spearman's p-value comes from the t approximation, whose
Student-t tail is computed here with the math module alone, and Wilcoxon's
from the normal approximation: the package needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroDifferences, TooFewSamples, ZeroVariance
from .numerics import distinct

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


#: Term cap of the incomplete beta's continued fraction, which took at most
#: 155 terms on a sweep of df from 1 to 10^8 and |t| from 1e-12 to 1e7.
_BETA_MAX_TERMS = 1000
_BETA_EPS = 2.0**-53
_BETA_TINY = 1e-300  # modified Lentz: stands in for a zero denominator


def _beta_fraction(a: float, b: float, x: float) -> float:
    """I_x(a, b) * a * B(a, b) / (x^a (1 - x)^b), the continued fraction of
    DLMF 8.17.22 by modified Lentz; fast for x < (a + 1) / (a + b + 2)."""
    f = c = 1.0
    d = 0.0
    for j in range(1, _BETA_MAX_TERMS):
        m = j // 2
        if j % 2:
            coeff = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        else:
            coeff = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 + coeff * d
        if abs(d) < _BETA_TINY:
            d = _BETA_TINY
        c = 1.0 + coeff / c
        if abs(c) < _BETA_TINY:
            c = _BETA_TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if j % 2 and abs(delta - 1.0) < _BETA_EPS:
            break
    return 1.0 / f


def _t_two_sided(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom.

    That is I_x(df/2, 1/2), the regularized incomplete beta at
    x = df / (df + t^2), and where x lies beyond the continued fraction's
    fast region, 1 - I_(1-x)(1/2, df/2). It stays within 2e-10 relative of
    scipy's 2 * stdtr(df, -|t|) for df from 2 to 10^4 (measured); the
    cancelling lgamma terms of the prefactor lose more as df grows. A tail
    below the float range gives 0.0.
    """
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    a, b = 0.5 * df, 0.5
    x = df / (df + t2)
    y = t2 / (df + t2)  # 1 - x, without the cancellation
    # log(x^a y^b / B(a, b)); log y by log1p too, as y underflows for tiny t.
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 - a * math.log1p(t2 / df) - b * math.log1p(df / t2))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, y) / b


def spearman(x, y) -> CorrelationResult:
    """Spearman rank correlation with a two-sided p-value.

    rho is the Pearson correlation of the average-rank vectors. For n <= 10
    the p-value is exact: the fraction of all n! orderings of y whose |rho|
    reaches the observed one; with doubled ranks a and b, |rho| of an ordering
    p grows with |S - n(n+1)^2| for S = sum a[i] * b[p[i]]. Larger samples
    use the t approximation with n - 2 degrees of freedom, whose two-sided
    tail is _t_two_sided.
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
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = min(1.0, max(_t_two_sided(t, n - 2), math.ulp(0.0)))
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
    _, tie_counts = distinct(ranks)
    variance -= 0.5 * float((tie_counts**3 - tie_counts).sum())
    se = math.sqrt(variance / 24.0)
    z = (w - mean + 0.5) / se  # w <= mean, continuity correction toward the mean
    p = min(1.0, math.erfc(-z / math.sqrt(2.0)))
    return SignedRankResult(
        w_statistic=w, p_value=p, n_nonzero=n, method="normal-approximation"
    )

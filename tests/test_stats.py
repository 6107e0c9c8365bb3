import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import stdtr

from rtpc.errors import AllZeroDifferences, TooFewSamples, ZeroVariance
from rtpc.stats import _t_two_sided, spearman, wilcoxon_signed_rank


# -- independent brute-force oracles (plain Python, no shared code paths) ---------

def oracle_ranks(values):
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    out = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j < n and values[order[j]] == values[order[i]]:
            j += 1
        avg = (i + j + 1) / 2.0
        for k in range(i, j):
            out[order[k]] = avg
        i = j
    return out


def oracle_pearson(a, b):
    n = len(a)
    ma, mb = sum(a) / n, sum(b) / n
    num = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    da = math.sqrt(sum((x - ma) ** 2 for x in a))
    db = math.sqrt(sum((y - mb) ** 2 for y in b))
    return num / (da * db)


def oracle_spearman(x, y):
    rx, ry = oracle_ranks(x), oracle_ranks(y)
    rho = oracle_pearson(rx, ry)
    count = total = 0
    for perm in itertools.permutations(ry):
        total += 1
        if abs(oracle_pearson(rx, list(perm))) >= abs(rho) - 1e-12:
            count += 1
    return rho, count / total


def oracle_spearman_p_chunked(x, y):
    """Exact Spearman p-value by enumerating all n! orderings of y in numpy
    chunks, with a 1e-12 relative slack against float noise; fast enough for
    n = 10 (3.6M orderings), where the plain-Python oracle is not."""
    rx = np.asarray(oracle_ranks(x))
    ry = np.asarray(oracle_ranks(y))
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    norm = math.sqrt(float(cx @ cx) * float(cy @ cy))
    threshold = abs(float(cx @ cy)) - 1e-12 * norm
    perms = itertools.permutations(ry)
    count = 0
    while chunk := list(itertools.islice(perms, 65536)):
        dots = (np.asarray(chunk) - ry.mean()) @ cx
        count += int((np.abs(dots) >= threshold).sum())
    return count / math.factorial(len(x))


def oracle_wilcoxon(x, y):
    d = [a - b for a, b in zip(x, y) if a != b]
    n = len(d)
    ranks = oracle_ranks([abs(v) for v in d])
    w_plus = sum(r for r, v in zip(ranks, d) if v > 0)
    w_minus = sum(r for r, v in zip(ranks, d) if v < 0)
    w = min(w_plus, w_minus)
    total_rank = sum(ranks)
    count = 0
    for signs in itertools.product((1.0, 0.0), repeat=n):
        s_plus = sum(r * s for r, s in zip(ranks, signs))
        if min(s_plus, total_rank - s_plus) <= w + 1e-12:
            count += 1
    return w, count / 2**n


class TestSpearman:
    def test_perfect_monotone(self):
        r = spearman([1, 2, 3, 4, 5], [2, 4, 6, 8, 10])
        assert r.rho == pytest.approx(1.0, abs=1e-12)
        assert r.method == "exact-permutation"
        assert r.p_value == pytest.approx(2.0 / 120.0)

    def test_perfect_antitone(self):
        r = spearman([1, 2, 3, 4, 5], [10, 8, 6, 4, 2])
        assert r.rho == pytest.approx(-1.0, abs=1e-12)

    def test_against_enumeration_oracle(self):
        rng = np.random.default_rng(23)
        for trial in range(50):
            n = int(rng.integers(3, 9))
            while True:
                x = rng.integers(0, 5, size=n).astype(float)  # ties likely
                y = rng.integers(0, 5, size=n).astype(float)
                if not (x == x[0]).all() and not (y == y[0]).all():
                    break
            result = spearman(x, y)
            rho_o, p_o = oracle_spearman(list(x), list(y))
            assert result.method == "exact-permutation"
            assert result.rho == pytest.approx(rho_o, abs=1e-12)
            assert result.p_value == p_o  # identical counts over n! permutations

    def test_n6_with_ties_against_oracle(self):
        x = [1.0, 2.0, 2.0, 3.0, 4.0, 4.0]
        y = [1.0, 1.0, 3.0, 2.0, 5.0, 4.0]
        result = spearman(x, y)
        rho_o, p_o = oracle_spearman(x, y)  # all 720 permutations
        assert result.rho == pytest.approx(rho_o, abs=1e-12)
        assert result.p_value == p_o

    def test_n9_against_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 6, size=9).astype(float)
        y = rng.integers(0, 6, size=9).astype(float)
        result = spearman(x, y)
        rho_o, p_o = oracle_spearman(list(x), list(y))
        assert result.rho == pytest.approx(rho_o, abs=1e-12)
        assert result.p_value == p_o

    def test_n10_with_ties_against_oracle(self):
        x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0, 2.0, 8.0]
        result = spearman(x, y)
        assert result.method == "exact-permutation"
        assert result.p_value == oracle_spearman_p_chunked(x, y)  # all 3,628,800 orderings

    def test_exact_method_active_through_n10(self):
        rng = np.random.default_rng(6)
        r = spearman(rng.normal(size=10), rng.normal(size=10))
        assert r.method == "exact-permutation"
        assert 0.0 < r.p_value <= 1.0

    def test_t_approximation_above_n10(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=25)
        y = x + rng.normal(scale=0.8, size=25)
        r = spearman(x, y)
        assert r.method == "t-approximation"
        ref_rho, ref_p = scipy.stats.spearmanr(x, y)
        assert r.rho == pytest.approx(ref_rho, abs=1e-12)
        assert r.p_value == pytest.approx(ref_p, rel=1e-9)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=7)
        y = rng.normal(size=7)
        base = spearman(x, y)
        trans = spearman(np.exp(x), y**3)
        assert trans.rho == pytest.approx(base.rho, abs=1e-12)
        assert trans.p_value == base.p_value

    def test_errors(self):
        with pytest.raises(TooFewSamples):
            spearman([1, 2], [3, 4])
        with pytest.raises(ZeroVariance):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ZeroVariance):
            spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        with pytest.raises(ValueError):
            spearman([1, 2, 3], [1, 2])


class TestStudentTail:
    """The two-sided Student-t tail behind Spearman's t approximation."""

    @settings(max_examples=1000, deadline=None)
    @given(df=st.integers(1, 10**4),
           t=st.floats(-1e6, 1e6, allow_nan=False) | st.floats(-6.0, 6.0).map(lambda e: 10.0**e))
    def test_matches_scipy(self, df, t):
        # At df = 1, scipy's stdtr is off by up to 3e-9 for |t| near 1e-8, so
        # the Cauchy tail's closed form is the oracle there.
        if df == 1 and t != 0.0:
            expected = 2.0 / math.pi * math.atan(1.0 / abs(t))
        else:
            expected = 2.0 * float(stdtr(df, -abs(t)))
        assume(expected >= 1e-300)
        assert _t_two_sided(t, df) == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("df", [1, 2, 3, 23, 10**4])
    def test_one_at_zero(self, df):
        assert _t_two_sided(0.0, df) == 1.0
        assert _t_two_sided(-0.0, df) == 1.0

    @pytest.mark.parametrize("t", [1e-300, 1e-160, 1e-8, 1e-6, 0.3, 1.0, 2.5, 40.0, 1e3, 1e6])
    def test_closed_forms(self, t):
        """p = 1 - (2/pi) atan|t| at df = 1 and 1 - |t| / sqrt(2 + t^2) at df = 2,
        each written without its cancellation."""
        root = math.sqrt(2.0 + t * t)
        for sign in (1.0, -1.0):
            assert _t_two_sided(sign * t, 1) == pytest.approx(2.0 / math.pi * math.atan(1.0 / t),
                                                              rel=1e-12)
            assert _t_two_sided(sign * t, 2) == pytest.approx(2.0 / (root * (root + t)), rel=1e-12)


class TestWilcoxon:
    def test_all_positive_reference(self):
        x = [11.0, 12.0, 13.0, 14.0, 15.0]
        y = [10.0, 10.0, 10.0, 10.0, 10.0]
        r = wilcoxon_signed_rank(x, y)
        assert r.w_statistic == 0.0
        assert r.p_value == pytest.approx(2.0 / 32.0)
        assert r.method == "exact"
        assert r.n_nonzero == 5

    def test_all_zero_differences(self):
        with pytest.raises(AllZeroDifferences):
            wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])

    def test_antisymmetric_p_one(self):
        x = [0.0, 0.0, 0.0, 0.0]
        y = [1.0, -1.0, 2.0, -2.0]
        r = wilcoxon_signed_rank(x, y)
        assert r.p_value == 1.0

    def test_against_enumeration_oracle(self):
        rng = np.random.default_rng(29)
        for trial in range(50):
            n = int(rng.integers(3, 15))
            while True:
                x = rng.integers(0, 6, size=n).astype(float)
                y = rng.integers(0, 6, size=n).astype(float)  # zeros and ties likely
                if (x != y).any():
                    break
            result = wilcoxon_signed_rank(x, y)
            w_o, p_o = oracle_wilcoxon(list(x), list(y))
            assert result.method == "exact"
            assert result.w_statistic == pytest.approx(w_o, abs=1e-12)
            assert result.p_value == p_o

    def test_exact_method_active_through_n20(self):
        rng = np.random.default_rng(31)
        r = wilcoxon_signed_rank(rng.normal(size=20), rng.normal(size=20))
        assert r.method == "exact"
        assert 0.0 < r.p_value <= 1.0

    def test_normal_approximation_matches_scipy(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=30)
        y = x + rng.normal(scale=0.5, size=30) + 0.3
        r = wilcoxon_signed_rank(x, y)
        assert r.method == "normal-approximation"
        ref = scipy.stats.wilcoxon(x, y, correction=True, method="approx")
        assert r.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_swap_invariance(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        a = wilcoxon_signed_rank(x, y)
        b = wilcoxon_signed_rank(y, x)
        assert a.w_statistic == b.w_statistic
        assert a.p_value == b.p_value

    def test_errors(self):
        with pytest.raises(TooFewSamples):
            wilcoxon_signed_rank([], [])
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_named(bad):
    # A NaN never equals itself, so ranking one used to loop for ever.
    cases = [
        (lambda: spearman([1.0, 2.0, bad, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0]), "x", 2),
        (lambda: spearman([1.0, 2.0, 3.0, 4.0, 5.0], [bad, 2.0, 3.0, 4.0, bad]), "y", 0),
        (lambda: wilcoxon_signed_rank([1.0, 2.0, 3.0, bad], [0.0] * 4), "x", 3),
        (lambda: wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0], [0.0, bad, 0.0, bad]), "y", 1),
    ]
    for call, name, index in cases:
        with pytest.raises(ValueError, match=rf"^{name} holds a non-finite value .* at index {index}$"):
            call()

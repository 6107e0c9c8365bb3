"""Correctness checks against ground truth and independent computations.

Each check returns a list of failure messages; an empty list means correct.
Expected values come from the simulation configs, the simulator's truth
files, or computations made here apart from the program (the exact Spearman
null by dynamic programming, the exact Wilcoxon test from scipy.stats), never
from a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import RESP_PERIOD_S

DIFF_TOLERANCE_PCT = 3.0
DELAY_TOLERANCE_S = 0.47
FLOW_REL_TOLERANCE = 1e-6
OFFSET_TOLERANCE_MM_S = 0.1
SUM_REL_TOLERANCE = 0.01


def read_csv(path) -> np.ndarray:
    """(n, 2) array of time, value from a signal CSV."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# -- analysed records ---------------------------------------------------------------

def ratios(arteries: list) -> dict:
    """True EX/IN ratio of each parameter for the sum of arteries.

    arteries: (base mean flow, mean_flow_pct, period_pct) per artery sharing
    one cardiac timing. Modulation is one-sided, so EX cycles carry
    mean * (1 + pct) and period * (1 + period_pct) while IN cycles sit at
    baseline; stroke volume is their product.
    """
    base = sum(m for m, _, _ in arteries)
    mean_flow = sum(m * (1.0 + p / 100.0) for m, p, _ in arteries) / base
    period = 1.0 + arteries[0][2] / 100.0
    return {"mean_flow": mean_flow, "stroke_volume": mean_flow * period, "cardiac_period": period}


def check_record(record: dict, expected: dict, sensor_delay_s: float) -> list:
    """Max Diff per parameter within 3 points; mean-flow argmax at the delay.

    The scan takes the signed maximum over one breathing period, so a ratio
    r below 1 surfaces as 1/r - 1 half a period after the sensor delay.
    """
    name = record["name"]
    failures = []
    for param, r in expected.items():
        want = 100.0 * max(r - 1.0, 1.0 / r - 1.0)
        got = record["diff"][param]["max_pct"]
        if not abs(got - want) <= DIFF_TOLERANCE_PCT:
            failures.append(f"{name}: {param} max Diff {got:.3f} %, injected {want:.3f} %")
    r = expected["mean_flow"]
    want = sensor_delay_s if r >= 1.0 else sensor_delay_s + 0.5 * RESP_PERIOD_S
    got = record["diff"]["mean_flow"]["delay_s"]
    off = abs(got - want) % RESP_PERIOD_S
    if not min(off, RESP_PERIOD_S - off) <= DELAY_TOLERANCE_S:
        failures.append(f"{name}: mean_flow argmax delay {got:.3f} s, expected {want:.3f} s")
    return failures


def check_report(path, expected: dict, sensor_delay_s: float, sum_name: str | None = None) -> list:
    """expected: record name -> parameter ratios. With sum_name, the summed
    record's mean flow must match the sum of the other records' within 1 %."""
    report = json.loads(path.read_text(encoding="utf-8"))
    records = {a["name"]: a for a in report["arteries"]}
    if sorted(records) != sorted(expected):
        return [f"{path.name}: records {sorted(records)}, expected {sorted(expected)}"]
    failures = []
    for name, ratio in expected.items():
        failures += check_record(records[name], ratio, sensor_delay_s)
    if sum_name is not None:
        parts = sum(a["mean_flow_ml_min"] for n, a in records.items() if n != sum_name)
        total = records[sum_name]["mean_flow_ml_min"]
        if not abs(total - parts) <= SUM_REL_TOLERANCE * abs(parts):
            failures.append(f"{sum_name}: mean flow {total:.3f}, arteries sum to {parts:.3f}")
    return failures


# -- images ---------------------------------------------------------------------------

def check_images(config: dict, acq, mask_flow, mask_qc, seed_flow, seed_qc, report, record) -> list:
    failures = []
    truth = json.loads((acq / "truth.json").read_text(encoding="utf-8"))
    n_wrapped = len(truth["wrapped_pixels"])
    if n_wrapped == 0:
        failures.append("input: the simulator wrapped no pixel, so unaliasing is idle")

    true_flow = read_csv(acq / "flow.csv")
    mask = read_csv(mask_flow)
    if mask.shape != true_flow.shape or not np.array_equal(mask[:, 0], true_flow[:, 0]):
        failures.append(f"mask flow: shape {mask.shape} or times differ from truth {true_flow.shape}")
    else:
        err = np.abs(mask[:, 1] - true_flow[:, 1]) / np.abs(true_flow[:, 1])
        if not err.max() <= FLOW_REL_TOLERANCE:
            failures.append(f"mask flow: {err.max():.3g} relative off the truth flow")

    qc = json.loads(mask_qc.read_text(encoding="utf-8"))
    if qc["n_unaliased_pixels"] != n_wrapped:
        failures.append(f"mask QC: {qc['n_unaliased_pixels']} pixels unaliased, {n_wrapped} wrapped")
    eddy = config["artifacts"]["eddy_offset_mm_s"]
    if not abs(qc["background_offset_mm_s"] - eddy) <= OFFSET_TOLERANCE_MM_S:
        failures.append(f"mask QC: background offset {qc['background_offset_mm_s']}, injected {eddy}")

    sqc = json.loads(seed_qc.read_text(encoding="utf-8"))
    if sqc["empty_roi_frames"] != 0:
        failures.append(f"seed QC: {sqc['empty_roi_frames']} empty ROI frames")
    seeded = read_csv(seed_flow)
    if seeded.shape != mask.shape:
        failures.append(f"seed flow: shape {seeded.shape}, mask flow {mask.shape}")
    else:
        over = seeded[:, 1] - mask[:, 1] * (1.0 + 1e-9)
        if (over > 1e-9).any():
            failures.append(f"seed flow exceeds the mask flow in {int((over > 1e-9).sum())} frames")

    mod = config["modulation"]
    expected = {record: ratios([(1.0, mod["mean_flow_pct"], mod["period_pct"])])}
    failures += check_report(report, expected, mod["sensor_delay_s"])
    return failures


# -- signals --------------------------------------------------------------------------

def expected_signals(arteries: list, sum_name: str) -> dict:
    """Record name -> ratios for one subject's arteries and their sum."""
    parts = {
        name: (c["cardiac"]["base_mean_flow_ml_min"], c["modulation"]["mean_flow_pct"],
               c["modulation"]["period_pct"])
        for name, c in arteries
    }
    expected = {name: ratios([p]) for name, p in parts.items()}
    expected[sum_name] = ratios(list(parts.values()))
    return expected


def check_svgs_identical(analyzed, reported) -> list:
    a = sorted(p.name for p in analyzed.glob("*.svg"))
    b = sorted(p.name for p in reported.glob("*.svg"))
    if not a or a != b:
        return [f"report SVGs {b} differ in names from analyze SVGs {a}"]
    return [f"{n}: report SVG differs from analyze SVG" for n in a
            if (analyzed / n).read_bytes() != (reported / n).read_bytes()]


# -- cohort ---------------------------------------------------------------------------

def _tie_free_ranks(values) -> np.ndarray | None:
    values = np.asarray(values, dtype=np.float64)
    if np.unique(values).size != values.size:
        return None
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[np.argsort(values)] = np.arange(1, values.size + 1)
    return ranks


def exact_spearman(x, y) -> tuple:
    """(rho, p) for tie-free samples by counting permutations.

    With a = ranks of x and b = ranks of y, rho is a function of the rank
    product sum S = sum(a_i * b_i). The null counts permutations of b by S
    with a dynamic program over subsets: position k (by rank of x) takes the
    y-rank j of a not yet used; dp[used set][S] is the number of ways.
    """
    a, b = _tie_free_ranks(x), _tie_free_ranks(y)
    n = a.size
    s_obs = int((a * b).sum())
    top = n * (n + 1) * (2 * n + 1) // 6  # largest S, at the identity
    dp = np.zeros((1 << n, top + 1), dtype=np.int64)
    dp[0, 0] = 1
    for used in range(1 << n):
        row = dp[used]
        k = bin(used).count("1") + 1
        for j in range(n):
            if used >> j & 1:
                continue
            step = k * (j + 1)
            dp[used | 1 << j, step:] += row[: top + 1 - step]
    counts = dp[(1 << n) - 1]
    centre = n * (n + 1) ** 2  # 4 * mean of S
    distance = np.abs(4 * np.arange(top + 1) - centre)
    count = int(counts[distance >= abs(4 * s_obs - centre)].sum())
    rho = 1.0 - 6.0 * float(((a - b) ** 2).sum()) / (n * (n * n - 1))
    return rho, count / math.factorial(n)


def check_cohort(subjects: list, result: dict, n_spearman: int) -> list:
    from scipy import stats as scipy_stats

    failures = []
    injected = [c["modulation"]["mean_flow_pct"] for c in subjects]
    measured = [s["diff"]["mean_flow"][0] for s in result["subjects"]]
    for k, (want, got) in enumerate(zip(injected, measured)):
        if not abs(got - want) <= DIFF_TOLERANCE_PCT:
            failures.append(f"subject {k}: mean-flow Diff {got:.3f} %, injected {want:.3f} %")

    x, y = injected[:n_spearman], measured[:n_spearman]
    if _tie_free_ranks(x) is None or _tie_free_ranks(y) is None:
        failures.append("spearman: input has ties; the independent count needs tie-free data")
    else:
        rho, p = exact_spearman(x, y)
        got_rho, got_p, method = result["spearman"]
        if method != "exact-permutation" or not abs(got_rho - rho) <= 1e-12 \
                or not math.isclose(got_p, p, rel_tol=1e-12):
            failures.append(f"spearman: ({got_rho}, {got_p}, {method}), counted ({rho}, {p})")

    d = np.asarray(measured) - np.asarray(injected)
    if (d == 0).any() or _tie_free_ranks(np.abs(d)) is None:
        failures.append("wilcoxon: differences have zeros or ties; the reference needs tie-free data")
    else:
        ref = scipy_stats.wilcoxon(measured, injected, method="exact")
        got_w, got_p, method = result["wilcoxon"]
        if method != "exact" or got_w != float(ref.statistic) \
                or not math.isclose(got_p, float(ref.pvalue), rel_tol=1e-9):
            failures.append(f"wilcoxon: ({got_w}, {got_p}, {method}), scipy "
                            f"({float(ref.statistic)}, {float(ref.pvalue)})")
    return failures

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from helpers import images, signals
from oracles import as_table, make_cycle, periodic_intervals

from rtpc.cli import main
from rtpc.cycles import detect_cycles
from rtpc.diff import delay_scan
from rtpc.extraction import compute_flow, correct_background, roi_values, unalias
from rtpc.io import VelocityMapSeries
from rtpc.respiration import EX, IN, UNLABELED, detect_resp_intervals, label_cycles
from rtpc.stats import spearman, wilcoxon_signed_rank

ANCHOR = dict(duration_s=300.0, modulation={"mean_flow_pct": 10.0, "shape": "square"})


def report_line(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_scan(parameter, **config):
    flow, resp, truth = signals(**config)
    cycles = detect_cycles(flow)
    intervals = detect_resp_intervals(resp)
    return delay_scan(cycles, intervals, parameter), cycles, intervals, truth


def test_criterion_1_oracle_diff_recovery():
    t0 = time.perf_counter()
    scan, cycles, intervals, truth = run_scan("mean_flow", **ANCHOR)
    elapsed = time.perf_counter() - t0
    period = intervals.mean_period_s
    in_window = 8.5 <= scan.max_diff_pct <= 11.5
    delay_ok = scan.argmax_delay_s <= 0.47 or scan.argmax_delay_s >= period - 0.47
    ok = in_window and delay_ok and elapsed < 2.0
    report_line(
        1, ok,
        f"max_diff={scan.max_diff_pct:.2f}% (window [8.5, 11.5]), "
        f"argmax={scan.argmax_delay_s:.3f}s (window [0, 0.47] U [{period - 0.47:.2f}, {period:.2f})), "
        f"runtime={elapsed:.2f}s (< 2 s)",
    )


def test_criterion_2_oracle_delay_recovery():
    scan, _, intervals, _ = run_scan(
        "mean_flow",
        duration_s=300.0,
        modulation={"mean_flow_pct": 10.0, "shape": "square", "sensor_delay_s": 1.2},
    )
    delay_ok = abs(scan.argmax_delay_s - 1.2) <= 0.47
    pct_ok = abs(scan.delay_pct - 27.9) <= 11.0
    ok = delay_ok and pct_ok
    report_line(
        2, ok,
        f"argmax={scan.argmax_delay_s:.3f}s (1.2 +/- 0.47), delay_pct={scan.delay_pct:.1f} (27.9 +/- 11)",
    )


def test_criterion_3_period_modulation_recovery():
    scan, _, _, truth = run_scan(
        "cardiac_period",
        duration_s=300.0,
        modulation={"period_pct": 8.0, "shape": "square"},
    )
    ok = 6.5 <= scan.max_diff_pct <= 9.5
    report_line(3, ok, f"cardiac-period max_diff={scan.max_diff_pct:.2f}% (window [6.5, 9.5])")


def test_criterion_4_identity_suite():
    failures = []

    # exact parameter identity on every detected cycle, clean and noisy inputs
    for config in (dict(ANCHOR), dict(ANCHOR, artifacts={"noise_sd": 50.0}, seed=3)):
        flow, resp, _ = signals(**config)
        cycles = detect_cycles(flow)
        mean_flow, stroke_volume, period = cycles.params
        lhs, rhs = mean_flow * period, 60.0 * stroke_volume
        violated = np.flatnonzero(np.abs(lhs - rhs) > 1e-12 * np.abs(rhs))
        if violated.size:
            failures.append(f"identity violated: {lhs[violated[0]]} vs {rhs[violated[0]]}")
        intervals = detect_resp_intervals(resp)
        labels = label_cycles(cycles, intervals)
        counts = {IN: 0, EX: 0, UNLABELED: 0}
        for lab in labels:
            counts[lab] += 1
        if sum(counts.values()) != len(cycles):
            failures.append("label counts do not partition the cycles")
        for parameter in ("mean_flow", "stroke_volume", "cardiac_period"):
            scan = delay_scan(cycles, intervals, parameter)
            if not (0.0 <= scan.delay_pct < 100.0):
                failures.append(f"delay_pct {scan.delay_pct} outside [0, 100)")

    # constant flow: Diff identically zero at every delay
    const_cycles = as_table(
        [make_cycle(0.47 + 0.94 * i, 0.47 + 0.94 * (i + 1), 600.0) for i in range(60)])
    train = periodic_intervals(period_s=4.3, n_breaths=12)
    scan = delay_scan(const_cycles, train, "mean_flow")
    if any(v not in (0.0, None) for v in scan.diff_pct):
        failures.append("constant flow produced nonzero Diff")

    report_line(4, not failures, "; ".join(failures) or
                "identity <= 1e-12 rel, labels partition, delay_pct in [0,100), constant flow Diff == 0")


def test_criterion_5_extraction_suite():
    failures = []

    def flow(series, offset=None):
        return compute_flow(roi_values(series, mask, offset), series.pixel_area_mm2, series.dt_s)

    # constant-offset invariance
    series, mask, _ = images(duration_s=60.0, seed=5)
    base = flow(series, correct_background(series, mask).offset_mm_s)
    for c in (5.0, -7.3, 11.17):
        shifted = VelocityMapSeries(
            frames=series.frames.astype(np.float64) + c,
            dt_ms=series.dt_ms, venc_mm_s=series.venc_mm_s,
            pixel_area_mm2=series.pixel_area_mm2,
        )
        drift = np.abs(flow(shifted, correct_background(shifted, mask).offset_mm_s).values
                       - base.values).max()
        if drift > 1e-6 * mask.sum():
            failures.append(f"offset invariance drift {drift:.2e} at c={c}")

    # wrap/unwrap exact round trip
    clean, _, _ = images(duration_s=60.0, seed=5)
    aliased, _, truth_a = images(duration_s=60.0, seed=5, artifacts={"aliased_pixel_fraction": 0.1})
    unwrapped = roi_values(aliased, mask)
    unalias(unwrapped, aliased.venc_mm_s)
    if not np.array_equal(unwrapped, roi_values(clean, mask)):
        failures.append("wrap/unwrap round trip not exact")
    if not truth_a.wrapped_pixels:
        failures.append("no wrapped pixels injected")

    # eddy offset estimate within +/- 0.1
    eddy_series, _, _ = images(duration_s=60.0, seed=5, artifacts={"eddy_offset_mm_s": 3.0})
    estimate = correct_background(eddy_series, mask)
    if abs(estimate.offset_mm_s - 3.0) > 0.1:
        failures.append(f"eddy estimate {estimate.offset_mm_s}")

    # artifact-free flow reconstruction within 0.5%
    flow_truth = signals(duration_s=60.0, seed=5).flow
    recovered = flow(series)
    rel = np.abs(recovered.values - flow_truth.values) / np.abs(flow_truth.values)
    if rel.max() > 0.005:
        failures.append(f"reconstruction error {rel.max():.2e}")

    report_line(5, not failures, "; ".join(failures) or
                "offset invariance, exact unwrap, eddy 3.0 +/- 0.1, reconstruction < 0.5%")


def oracle_ranks(values):
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    out = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j < n and values[order[j]] == values[order[i]]:
            j += 1
        for k in range(i, j):
            out[order[k]] = (i + j + 1) / 2.0
        i = j
    return out


def oracle_pearson(a, b):
    n = len(a)
    ma, mb = sum(a) / n, sum(b) / n
    num = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    da = math.sqrt(sum((x - ma) ** 2 for x in a))
    db = math.sqrt(sum((y - mb) ** 2 for y in b))
    return num / (da * db)


def test_criterion_6_statistics_vs_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    failures = []

    for trial in range(50):
        n = int(rng.integers(3, 9))
        while True:
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.integers(0, 5, size=n).astype(float)
            if not (x == x[0]).all() and not (y == y[0]).all():
                break
        result = spearman(x, y)
        rx, ry = oracle_ranks(list(x)), oracle_ranks(list(y))
        rho_o = oracle_pearson(rx, ry)
        count = total = 0
        for perm in itertools.permutations(ry):
            total += 1
            if abs(oracle_pearson(rx, list(perm))) >= abs(rho_o) - 1e-12:
                count += 1
        if abs(result.rho - rho_o) > 1e-12 or result.p_value != count / total:
            failures.append(f"spearman trial {trial}: {result} vs ({rho_o}, {count / total})")
            break

    for trial in range(50):
        n = int(rng.integers(3, 15))
        while True:
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            if (x != y).any():
                break
        result = wilcoxon_signed_rank(x, y)
        d = [a - b for a, b in zip(x, y) if a != b]
        ranks = oracle_ranks([abs(v) for v in d])
        w_o = min(sum(r for r, v in zip(ranks, d) if v > 0),
                  sum(r for r, v in zip(ranks, d) if v < 0))
        total_rank = sum(ranks)
        count = 0
        for bits in itertools.product((1.0, 0.0), repeat=len(d)):
            s_plus = sum(r * b for r, b in zip(ranks, bits))
            if min(s_plus, total_rank - s_plus) <= w_o + 1e-12:
                count += 1
        p_o = count / 2 ** len(d)
        if result.w_statistic != w_o or result.p_value != p_o:
            failures.append(f"wilcoxon trial {trial}: {result} vs ({w_o}, {p_o})")
            break

    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s")
    report_line(6, not failures, "; ".join(failures) or
                f"50+50 exact matches vs enumeration oracles in {elapsed:.1f}s (< 10 s)")


def test_criterion_7_cli_determinism(tmp_path):
    config = {
        "duration_s": 120.0,
        "modulation": {"mean_flow_pct": 10.0, "shape": "square", "sensor_delay_s": 0.6},
        "artifacts": {"noise_sd": 25.0, "aliased_pixel_fraction": 0.05, "eddy_offset_mm_s": 2.0},
        "seed": 42,
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(config))
    failures = []
    reports = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        if main(["simulate", "--config", str(cfg_path), "--out-dir", str(out), "--with-images"]) != 0:
            failures.append(f"simulate run {run} failed")
            continue
        report_path = tmp_path / f"report{run}.json"
        if main(["analyze", "--flow", str(out / "flow.csv"), "--resp", str(out / "resp.csv"),
                 "--out", str(report_path)]) != 0:
            failures.append(f"analyze run {run} failed")
            continue
        reports.append(report_path)
    if not failures:
        for name in ("flow.csv", "resp.csv", "truth.json", "series.rtpc", "mask.pgm"):
            if (tmp_path / "run1" / name).read_bytes() != (tmp_path / "run2" / name).read_bytes():
                failures.append(f"{name} differs between runs")
        payloads = []
        for path in reports:
            d = json.loads(path.read_text())
            d.pop("generated_at", None)
            payloads.append(json.dumps(d, sort_keys=True))
        if payloads[0] != payloads[1]:
            failures.append("reports differ beyond the timestamp")
    report_line(7, not failures, "; ".join(failures) or
                "byte-identical datasets and truth manifests; reports identical minus timestamp")


def test_criterion_8_noise_robustness():
    clean_flow = signals(**ANCHOR).flow
    amplitude = float(clean_flow.values.max() - clean_flow.values.min())
    noise_sd = 0.05 * amplitude
    hits = 0
    values = []
    for seed in range(100):
        scan, _, _, _ = run_scan(
            "mean_flow",
            duration_s=300.0,
            modulation={"mean_flow_pct": 10.0, "shape": "square"},
            artifacts={"noise_sd": noise_sd},
            seed=seed,
        )
        values.append(scan.max_diff_pct)
        if abs(scan.max_diff_pct - 10.0) <= 3.0:
            hits += 1
    values = np.asarray(values)
    ok = hits >= 90
    report_line(
        8, ok,
        f"{hits}/100 seeds within 10 +/- 3 points (mean {values.mean():.2f}, "
        f"range [{values.min():.2f}, {values.max():.2f}], noise_sd {noise_sd:.1f} ml/min)",
    )

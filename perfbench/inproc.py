"""Runs program operations inside one fresh interpreter and reports on stdout.

Usage: python inproc.py SPEC_JSON

SPEC_JSON is an object with
  "argvs":  run `rtpc.cli.main(argv)` for each argv, in order;
  "cohort": null, or {"subjects": [SimConfig dicts], "n_spearman": n}: then
            run the cohort library calls for each subject and the exact
            Spearman and Wilcoxon tests across subjects;
  "trace":  wrap the program's inter-module calls in spans (see tracing.py).

The last line of stdout is one JSON object with the timings, the cohort
outputs the caller checks and, when tracing, the per-layer values.
"""

from __future__ import annotations

import json
import sys
import time

# Imported before any clock starts, so no pass pays the import.
import rtpc.cli as cli
import rtpc.cycles as cycles
import rtpc.diff as diff
import rtpc.respiration as respiration
import rtpc.stats as stats
import rtpc.synthgen as synthgen

import tracing


def run_cli(argvs: list, tracer) -> list:
    ops = []
    for argv in argvs:
        start = time.perf_counter()
        span = tracer.open("cli.command") if tracer else None
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a harness error
            print(f"inproc: {argv[0]} raised {exc!r}", file=sys.stderr)
            rc = -1
        finally:
            if span is not None:
                tracer.close(span)
        ops.append({"command": argv[0], "rc": rc, "s": time.perf_counter() - start})
    return ops


def cohort_round(subjects: list, n_spearman: int) -> dict:
    """One pass over the cohort: per-subject analysis, then the two tests.

    Every call goes through the module attribute at call time, so a traced
    run sees it.
    """
    results = []
    subject_s = []
    for config in subjects:
        start = time.perf_counter()
        flow, resp, _truth = synthgen.generate_signals(synthgen.SimConfig.from_dict(config))
        found = cycles.detect_cycles(flow)
        intervals = respiration.detect_resp_intervals(resp)
        scans = {p: diff.delay_scan(found, intervals, p) for p in diff.PARAMETERS}
        subject_s.append(time.perf_counter() - start)
        results.append({
            "resp_period_s": intervals.mean_period_s,
            "diff": {p: [s.max_diff_pct, s.argmax_delay_s] for p, s in scans.items()},
        })

    injected = [c["modulation"]["mean_flow_pct"] for c in subjects]
    measured = [r["diff"]["mean_flow"][0] for r in results]
    start = time.perf_counter()
    rho = stats.spearman(injected[:n_spearman], measured[:n_spearman])
    w = stats.wilcoxon_signed_rank(measured, injected)
    stats_s = time.perf_counter() - start
    return {
        "subjects": results,
        "subject_s": subject_s,
        "stats_s": stats_s,
        "spearman": [rho.rho, rho.p_value, rho.method],
        "wilcoxon": [w.w_statistic, w.p_value, w.method],
    }


def main(spec: dict) -> dict:
    tracer = tracing.Tracer() if spec["trace"] else None
    saved = tracing.install(tracer) if tracer else None
    out = {}
    start = time.perf_counter()
    try:
        out["ops"] = run_cli(spec["argvs"], tracer)
        if spec["cohort"]:
            out["cohort"] = cohort_round(spec["cohort"]["subjects"], spec["cohort"]["n_spearman"])
    finally:
        out["total_s"] = time.perf_counter() - start
        if saved is not None:
            tracing.uninstall(saved)
    if tracer is not None:
        out["layers"] = tracing.layer_values(tracer)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))

"""Quick self-check of the benchmark harness on tiny inputs (about a minute).

Run from the repository root:

    python3 perfbench/selfcheck.py

It shows, before any full run, that
  * every workload runs end to end, untraced and traced, on --small inputs,
    with no failed operation, correct outputs and exactly the metric names
    and units that BENCHMARK.json lists;
  * the checks catch deliberately wrong outputs: a flow scaled by 1.01, EX
    and IN labels swapped (`analyze --invert-belt`), an SVG that differs from
    the analyze one, a wrong Spearman or Wilcoxon p-value;
  * the independent exact Spearman count agrees with brute-force enumeration;
  * a directory that holds only the benchmark makes run.py fail without a
    result line.
Exits 0 when all of that holds and 1 otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
import tempfile
from argparse import Namespace
from pathlib import Path

import numpy as np

import checks
import inputs
import run

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
problems: list = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout, proc.stderr


def end_to_end_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            rc, out, err = run_benchmark(workload, trace)
            label = f"{workload} --trace {trace}"
            if rc != 0:
                expect(False, f"{label} exited {rc}: {err.strip()[-300:]}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: correct, {result['attempted']} attempted, {result['failed']} failed")
            expect(got == wanted, f"{label}: metric names and units match BENCHMARK.json")
            if trace == 0:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{label}: every end-to-end value is above 0")


def mutations(work: Path) -> None:
    args = Namespace(workload="images", seed=5, seconds=0.0, small=True)
    bench = run.Bench(args, work)
    config, plan, check = run.images_inputs(bench)
    rnd = run.fresh_dir(work / "round")
    steps = plan(bench, config, rnd)
    oks = [bench.command(argv)[0] for _key, argv in steps]
    expect(all(oks), "images pipeline on small inputs")
    expect(check(config, rnd, None) == [], "images checks pass on the program's outputs")

    flow_path = rnd / "mask_flow.csv"
    original = flow_path.read_text(encoding="utf-8")
    header, *rows = original.splitlines()
    scaled = [f"{t},{float(v) * 1.01:.10g}" for t, v in (row.split(",") for row in rows)]
    flow_path.write_text("\n".join([header, *scaled]) + "\n", encoding="utf-8")
    expect(any("mask flow" in f for f in check(config, rnd, None)), "a flow scaled by 1.01 is caught")
    flow_path.write_text(original, encoding="utf-8")

    analyze = dict(steps)["analyze"]
    ok, _s, _rss = bench.command([*analyze, "--invert-belt"])
    failures = check(config, rnd, None)
    expect(ok and any("argmax delay" in f for f in failures),
           "EX/IN labels swapped by --invert-belt are caught")

    plots = work / "plots"
    shutil.copytree(rnd / "plots", plots)
    svg = sorted(plots.glob("*.svg"))[0]
    svg.write_bytes(svg.read_bytes().replace(b"</svg>", b"<!-- --></svg>"))
    expect(bool(checks.check_svgs_identical(rnd / "plots", plots)), "a differing SVG is caught")

    subjects = inputs.cohort_subjects(5, n_subjects=8)
    injected = [c["modulation"]["mean_flow_pct"] for c in subjects]
    measured = [p + 0.1 * math.sin(k + 1) for k, p in enumerate(injected)]
    rho, p = checks.exact_spearman(injected[:6], measured[:6])
    from scipy import stats as scipy_stats

    ref = scipy_stats.wilcoxon(measured, injected, method="exact")
    result = {
        "subjects": [{"diff": {"mean_flow": [m, 0.0]}} for m in measured],
        "spearman": [rho, p, "exact-permutation"],
        "wilcoxon": [float(ref.statistic), float(ref.pvalue), "exact"],
    }
    expect(checks.check_cohort(subjects, result, 6) == [], "cohort checks pass on exact values")
    for key, index, factor in (("spearman", 1, 1.0 + 1e-9), ("wilcoxon", 1, 0.5)):
        wrong = json.loads(json.dumps(result))
        wrong[key][index] *= factor
        expect(any(key in f for f in checks.check_cohort(subjects, wrong, 6)),
               f"a wrong {key} p-value is caught")


def spearman_oracle() -> None:
    rng = np.random.default_rng(0)
    for n in (4, 5, 6, 7):
        x, y = rng.random(n), rng.random(n)
        a = np.argsort(np.argsort(x)) + 1
        b = np.argsort(np.argsort(y)) + 1
        centre = n * (n + 1) ** 2
        observed = abs(4 * int((a * b).sum()) - centre)
        count = sum(abs(4 * int((a * np.array(perm)).sum()) - centre) >= observed
                    for perm in itertools.permutations(b))
        rho, p = checks.exact_spearman(x, y)
        expect(p == count / math.factorial(n), f"exact Spearman count equals enumeration, n={n}")


def bare_directory(work: Path) -> None:
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    rc, out, _err = run_benchmark("images", 0, cwd=bare)
    expect(rc != 0 and not out.strip(), "without the program, run.py fails and prints no result")


def main() -> int:
    if not (ROOT / "src" / "rtpc").is_dir():
        print("selfcheck: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-selfcheck-", dir=ROOT))
    try:
        spearman_oracle()
        mutations(work)
        bare_directory(work)
        end_to_end_runs()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

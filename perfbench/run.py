"""rtpc benchmark: two seeded workloads, end-to-end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload images|signals --seed N \
        --seconds S --trace 0|1

Every command runs as `python -m rtpc ...` in a fresh interpreter with `src`
on PYTHONPATH, one at a time; the cohort step of `signals` makes its library
calls in one child interpreter. Whole rounds of the workload repeat until
--seconds have passed (at least one round); every round's outputs are
checked. The last line of stdout is one JSON object: correct, attempted,
failed and the metrics, which are the end-to-end metrics with --trace 0 and
the per-layer metrics with --trace 1. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 3
N_SPEARMAN = 10
MB = 1024.0  # ru_maxrss is in KiB on Linux
PASSES = (False, True, False)  # traced run: untraced, traced, untraced


class Bench:
    """Runs program operations in fresh interpreters and keeps the tallies."""

    def __init__(self, args, work: Path):
        self.name = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.small = args.small
        self.repeats = 1 if args.small else SETUP_REPEATS
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        env = {k: v for k, v in os.environ.items() if k != "RTPC_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env

    def command(self, argv: list) -> tuple:
        """One program operation `python -m rtpc argv`: (ok, seconds, peak RSS MB)."""
        self.attempted += 1
        rc, elapsed, rss, _out, err = run_wait4(
            [sys.executable, "-m", "rtpc", *map(str, argv)], self.env, self.work
        )
        if rc != 0:
            self.failed += 1
            print(f"perfbench: rtpc {argv[0]} exited {rc}: {err.strip()[-500:]}", file=sys.stderr)
        return rc == 0, elapsed, rss

    def inproc(self, spec: dict) -> tuple:
        """Run inproc.py in one child interpreter: (its result or None, wall s, peak RSS MB)."""
        rc, elapsed, rss, out, err = run_wait4(
            [sys.executable, str(HERE / "inproc.py"), json.dumps(spec)], self.env, self.work
        )
        if err.strip():
            print(f"perfbench: in-process child: {err.strip()[-2000:]}", file=sys.stderr)
        if rc != 0:
            return None, elapsed, rss
        return json.loads(out.strip().splitlines()[-1]), elapsed, rss

    def cohort(self, cohort: dict) -> tuple:
        """The cohort step in one fresh child: (its outputs or None, wall s, peak RSS MB)."""
        calls = cohort_calls(cohort)
        self.attempted += calls
        result, elapsed, rss = self.inproc({"argvs": [], "cohort": cohort, "trace": False})
        if result is None:
            self.failed += calls
            return None, elapsed, rss
        return result["cohort"], elapsed, rss

    def setup_s(self) -> float:
        """Median wall time of a fresh interpreter importing rtpc.cli.

        One untimed start first, so byte-code caches are written before timing.
        """
        argv = [sys.executable, "-c", "import rtpc.cli"]
        times = []
        for i in range(self.repeats + 1):
            rc, elapsed, _rss, _out, err = run_wait4(argv, self.env, self.work)
            if rc != 0:
                raise RuntimeError(f"import rtpc.cli failed: {err.strip()[-2000:]}")
            if i:
                times.append(elapsed)
        return statistics.median(times)

    def startup_layers(self) -> dict:
        """scipy's share of `import rtpc.cli` and the rest, from -X importtime."""
        argv = [sys.executable, "-X", "importtime", "-c", "import rtpc.cli"]
        scipy_s, rest_s = [], []
        for _ in range(self.repeats):
            rc, _elapsed, _rss, _out, err = run_wait4(argv, self.env, self.work)
            if rc != 0:
                raise RuntimeError(f"import rtpc.cli failed: {err.strip()[-2000:]}")
            scipy_us = rest_us = 0
            for m in re.finditer(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)$", err, re.M):
                if m.group(2) == "scipy" or m.group(2).startswith("scipy."):
                    scipy_us += int(m.group(1))
                else:
                    rest_us += int(m.group(1))
            scipy_s.append(scipy_us / 1e6)
            rest_s.append(rest_us / 1e6)
        return {
            "startup.scipy_import_s": statistics.median(scipy_s),
            "startup.rtpc_import_s": statistics.median(rest_s),
        }

    def check(self, failures: list) -> None:
        for message in failures:
            print(f"perfbench: check failed: {message}", file=sys.stderr)
        self.failures += failures

    def rounds(self, run_round) -> list:
        """Whole rounds until the run's seconds have passed; at least one."""
        done = []
        start = time.perf_counter()
        while True:
            done.append(run_round())
            if time.perf_counter() - start >= self.seconds:
                return done


def run_wait4(argv: list, env: dict, cwd: Path) -> tuple:
    """Run argv to its end; peak RSS comes from os.wait4 on this very child."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        _pid, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, elapsed, usage.ru_maxrss / MB,
                out.read().decode(errors="replace"), err.read().decode(errors="replace"))


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def median_of(rounds: list, key: str) -> float:
    return statistics.median(v for r in rounds for v in r[key])


def report_lines(name: str, rounds: list, keys: list) -> None:
    """Human-readable per-operation medians, printed before the JSON line."""
    for key, unit in keys:
        values = [v for r in rounds for v in r[key]]
        agg = max(values) if unit == "MB" else statistics.median(values)
        label = "max" if unit == "MB" else "median"
        print(f"{name} {key} {agg:.4f} {unit} ({label} of {len(values)})")


# -- images -------------------------------------------------------------------------

def images_plan(bench: Bench, config: dict, rnd: Path) -> list:
    acq = rnd / "acq"
    width = config["vessel"]["grid"]["width"]
    height = config["vessel"]["grid"]["height"]
    series = acq / "series.rtpc"
    return [
        ("simulate", ["simulate", "--config", rnd.parent / "images.json", "--out-dir", acq,
                      "--with-images"]),
        ("extract_mask", ["extract", "--series", series, "--mask", acq / "mask.pgm",
                          "--out", rnd / "mask_flow.csv", "--qc", rnd / "mask_qc.json"]),
        ("extract_seed", ["extract", "--series", series, "--seed", f"{width // 2},{height // 2}",
                          "--out", rnd / "seed_flow.csv", "--qc", rnd / "seed_qc.json"]),
        ("analyze", ["analyze", "--flow", rnd / "mask_flow.csv", "--resp", acq / "resp.csv",
                     "--out", rnd / "report.json", "--plots", rnd / "plots"]),
    ]


def images_check(config: dict, rnd: Path, _cohort_result) -> list:
    return checks.check_images(
        config, rnd / "acq", rnd / "mask_flow.csv", rnd / "mask_qc.json",
        rnd / "seed_flow.csv", rnd / "seed_qc.json", rnd / "report.json", "mask_flow",
    )


def images_inputs(bench: Bench):
    config = inputs.images_config(bench.seed, small=bench.small)
    (bench.work / "images.json").write_text(json.dumps(config), encoding="utf-8")
    return config, images_plan, images_check


# -- signals ------------------------------------------------------------------------

def signals_inputs(bench: Bench):
    from rtpc.synthgen import SimConfig, generate_signals

    subjects = inputs.signals_subjects(
        bench.seed, n_subjects=2 if bench.small else 3, duration_s=120.0 if bench.small else 600.0
    )
    for s, arteries in enumerate(subjects):
        folder = fresh_dir(bench.work / f"subject{s}")
        for name, config in arteries:
            flow, resp, _truth = generate_signals(SimConfig.from_dict(config))
            inputs.write_csv(flow, folder / f"{name}.csv")
        inputs.write_csv(resp, folder / "resp.csv")  # shared timing: any artery's belt
    cohort = {
        "subjects": inputs.cohort_subjects(
            bench.seed, n_subjects=12 if bench.small else 20,
            duration_s=120.0 if bench.small else 300.0,
        ),
        "n_spearman": 6 if bench.small else N_SPEARMAN,
    }
    return (subjects, cohort), signals_plan, signals_check


def signals_plan(bench: Bench, data, rnd: Path) -> list:
    subjects, cohort = data
    plan = []
    for s, arteries in enumerate(subjects):
        folder = bench.work / f"subject{s}"
        flows = ",".join(str(folder / f"{name}.csv") for name, _ in arteries)
        plan.append(("analyze", ["analyze", "--flow", flows, "--resp", folder / "resp.csv",
                                 "--out", rnd / f"report{s}.json", "--plots", rnd / f"plots{s}"]))
    plan.append(("report", ["report", "--in", rnd / "report0.json", "--plots", rnd / "replots"]))
    plan.append(("cohort", cohort))
    return plan


def signals_check(data, rnd: Path, cohort_result: dict) -> list:
    subjects, cohort = data
    failures = []
    for s, arteries in enumerate(subjects):
        expected = checks.expected_signals(arteries, inputs.SUM_NAME)
        delay = arteries[0][1]["modulation"]["sensor_delay_s"]
        failures += checks.check_report(rnd / f"report{s}.json", expected, delay, inputs.SUM_NAME)
    failures += checks.check_svgs_identical(rnd / "plots0", rnd / "replots")
    return failures + checks.check_cohort(cohort["subjects"], cohort_result, cohort["n_spearman"])


# -- running a workload -------------------------------------------------------------

def workload(bench: Bench, make_inputs, trace: bool) -> dict:
    data, plan, check = make_inputs(bench)

    def complete(rnd: Path, oks: list, cohort_result) -> None:
        if all(oks):  # outputs of failed operations are not checked
            bench.check(check(data, rnd, cohort_result))

    if trace:
        return traced(bench, data, plan, complete)

    setup = bench.setup_s()

    def run_round() -> dict:
        rnd = fresh_dir(bench.work / "round")
        values: dict = {}
        oks = []
        cohort_result = None
        start = time.perf_counter()
        for key, step in plan(bench, data, rnd):
            if key == "cohort":
                cohort_result, elapsed, peak = bench.cohort(step)
                ok = cohort_result is not None
                if ok:
                    values["cohort_analysis_s"] = [sum(cohort_result["subject_s"])]
                    values["stats_s"] = [cohort_result["stats_s"]]
            else:
                ok, elapsed, peak = bench.command(step)
            oks.append(ok)
            values.setdefault(f"{key}_s", []).append(elapsed)
            values.setdefault(f"{key}_peak_rss_mb", []).append(peak)
        batch = time.perf_counter() - start
        complete(rnd, oks, cohort_result)
        return {"batch_s": [batch], **values}

    rounds = bench.rounds(run_round)
    keys = sorted(k for k in rounds[0] if k != "batch_s")
    report_lines(bench.name, rounds, [(k, "MB" if k.endswith("_mb") else "s") for k in keys])
    return {
        "setup_s": (setup, "s"),
        "batch_s": (median_of(rounds, "batch_s"), "s"),
        "peak_rss_mb": (max(v for r in rounds for k in r if k.endswith("_mb") for v in r[k]), "MB"),
    }


def traced(bench: Bench, data, plan, complete) -> dict:
    """Untraced, traced and untraced in-process passes over one round."""
    layers = bench.startup_layers()
    totals = {True: [], False: []}
    for trace in PASSES:
        rnd = fresh_dir(bench.work / "round")
        steps = plan(bench, data, rnd)
        argvs = [[str(a) for a in step] for key, step in steps if key != "cohort"]
        cohort = next((step for key, step in steps if key == "cohort"), None)
        result, _elapsed, _rss = bench.inproc({"argvs": argvs, "cohort": cohort, "trace": trace})
        if result is None:
            raise RuntimeError("the in-process pass failed; see the message above")
        oks = [op["rc"] == 0 for op in result["ops"]]
        bench.attempted += len(oks) + (cohort_calls(cohort) if cohort else 0)
        bench.failed += oks.count(False)
        complete(rnd, oks, result.get("cohort"))
        totals[trace].append(result["total_s"])
        if trace:
            layers.update(result["layers"])
    untraced = statistics.mean(totals[False])
    # The traced pass against the mean of the untraced passes around it,
    # which cancels a drift in machine speed over the run.
    layers["trace.overhead_s"] = totals[True][0] - untraced
    layers["trace.overhead_pct"] = 100.0 * (totals[True][0] - untraced) / untraced
    return {name: (float(layers.get(name, 0.0)), unit) for name, unit in tracing.LAYER_METRICS}


def cohort_calls(cohort: dict) -> int:
    """Library calls in one cohort step: six per subject (generate, cycles,
    breaths, three delay scans), then the two tests."""
    return 6 * len(cohort["subjects"]) + 2


WORKLOADS = {"images": images_inputs, "signals": signals_inputs}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the harness self-check only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    if not (SRC / "rtpc" / "__init__.py").is_file():
        print(f"perfbench: no rtpc package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(args, work)
        metrics = workload(bench, WORKLOADS[args.workload], bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

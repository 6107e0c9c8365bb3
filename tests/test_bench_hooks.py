"""The benchmark's tracer must find every attribute it hooks, and put each back.

perfbench/tracing.py wraps module attributes of the package by name (for
example rtpc.diff.label_cycles, rtpc.cli.sweep_diffs and
rtpc.cli.ThreadPoolExecutor). Renaming one of them breaks the traced
benchmark run; these tests make that visible in the unit suite. rtpc.cli binds
its callees when a command first runs, so two cases run in a fresh
interpreter, where nothing is bound yet.
"""

import importlib.util
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import rtpc.diff as diff
import rtpc.respiration as respiration
from rtpc.cli import main

from helpers import run_fresh

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores():
    tracing = load_tracing()
    saved = tracing.install(tracing.Tracer())
    try:
        assert saved
        for module, attr, original in saved:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr} not wrapped"
    finally:
        tracing.uninstall(saved)
    for module, attr, original in saved:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
    originals = {(module.__name__, attr): original for module, attr, original in saved}
    assert originals[("rtpc.diff", "label_cycles")] is respiration.label_cycles
    assert originals[("rtpc.cli", "sweep_diffs")] is diff.sweep_diffs
    assert originals[("rtpc.cli", "ThreadPoolExecutor")] is ThreadPoolExecutor


@pytest.fixture(scope="module")
def signals(tmp_path_factory):
    """flow.csv and resp.csv of a 60 s simulation, a report of them, and a
    small velocity series."""
    out = tmp_path_factory.mktemp("hooks")
    config = out / "sim.json"
    config.write_text(json.dumps({"duration_s": 60.0, "seed": 5}))
    assert main(["simulate", "--config", str(config), "--out-dir", str(out), "--with-images"]) == 0
    assert main(["analyze", "--flow", str(out / "flow.csv"), "--resp", str(out / "resp.csv"),
                 "--out", str(out / "report.json")]) == 0
    return out


#: argv: tracing.py, data directory, output directory. Installs the tracer
#: right after `import rtpc.cli`, before any command has bound its callees.
TRACED_RUNNER = """
import importlib.util
import json
import sys

import rtpc.cli as cli

tracing_py, data, out = sys.argv[1:]
spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing_py)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
saved = tracing.install(tracer)
try:
    codes = [
        cli.main(["report", "--in", f"{data}/report.json", "--plots", f"{out}/replots"]),
        cli.main(["analyze", "--flow", f"{data}/flow.csv", "--resp", f"{data}/resp.csv",
                  "--out", f"{out}/report.json"]),
    ]
finally:
    tracing.uninstall(saved)
restored = [f"{m.__name__}.{a}" for m, a, original in saved if getattr(m, a) is original]
print(json.dumps({"codes": codes, "spans": sorted({s[0] for s in tracer.spans}),
                  "restored": restored, "saved": len(saved),
                  "files": tracer.counts["svgplot.files"]}))
"""


def test_tracer_hooks_a_fresh_interpreter(signals, tmp_path):
    result, _ = run_fresh(TRACED_RUNNER, TRACING, signals, tmp_path)
    assert result["codes"] == [0, 0]
    assert {"io.read_report", "io.read_signal_csv", "io.write_report", "cycles.detect_cycles",
            "diff.sweep_diffs", "svgplot.render_line_chart",
            "cli.analyze_flow_signal"} <= set(result["spans"])
    assert result["files"] == 3
    assert len(result["restored"]) == result["saved"]


#: argv: series, output directory. Patches cli.read_velocity_series before the
#: first command, as a test's monkeypatch does.
SPY_RUNNER = """
import json
import sys

import pytest

import rtpc.cli as cli
import rtpc.io

series, out = sys.argv[1:]
windows = []
with pytest.MonkeyPatch.context() as mp:
    read = cli.read_velocity_series

    def spy(*args, **kwargs):
        windows.append(str(kwargs.get("window")))
        return read(*args, **kwargs)

    mp.setattr(cli, "read_velocity_series", spy)
    code = cli.main(["extract", "--series", series, "--seed", "16,16", "--out", f"{out}/flow.csv"])
print(json.dumps({"code": code, "windows": windows,
                  "restored": cli.read_velocity_series is rtpc.io.read_velocity_series}))
"""


def test_patch_before_first_command_is_called(signals, tmp_path):
    result, _ = run_fresh(SPY_RUNNER, signals / "series.rtpc", tmp_path)
    assert result["code"] == 0
    assert len(result["windows"]) == 1 and result["windows"][0] != "None"
    assert result["restored"]

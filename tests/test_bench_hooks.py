"""The benchmark's tracer must find every attribute it hooks, and put each back.

perfbench/tracing.py wraps module attributes of the package by name (for
example rtpc.diff.label_cycles, rtpc.cli.sweep_diffs and
rtpc.cli.ThreadPoolExecutor). Renaming one of them breaks the traced
benchmark run; this test makes that visible in the unit suite.
"""

import importlib.util
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import rtpc.diff as diff
import rtpc.respiration as respiration

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

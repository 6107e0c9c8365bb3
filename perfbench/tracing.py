"""Spans and counters around the calls the program makes between its modules.

Nothing inside the package changes: `install` replaces module attributes that
the program calls through (for example `rtpc.cli.correct_background` or
`rtpc.diff.label_cycles`) with timing wrappers, and `uninstall` puts the
originals back. Spans record name, start, end, parent and thread; they stay in
memory and are reduced to per-layer metrics once, at the end of a run.

A layer's time is the self time of its spans: each span's duration minus the
part of it that its child spans cover. The analyze command runs arteries on a
thread pool, so a worker thread's first span takes the innermost span open on
the main thread (the pool span) as its parent.
"""

from __future__ import annotations

import math
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, thread id]
        self.counts = Counter()
        self.alloc_mb = Counter()  # largest tracemalloc peak per key, MiB
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.get_ident() == self._main:
                self._main_stack = stack
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, threading.get_ident()])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, count=None, alloc: str | None = None):
        """Wrap fn in a span; count(result) returns counters to add."""

        def traced(*args, **kwargs):
            started = alloc is not None and not tracemalloc.is_tracing()
            index = self.open(name)
            try:
                if started:
                    tracemalloc.start()
                result = fn(*args, **kwargs)
                if started:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    self.alloc_mb[alloc] = max(self.alloc_mb[alloc], peak)
            finally:
                if started:
                    tracemalloc.stop()
                self.close(index)
            if count is not None:
                with self._lock:
                    self.counts.update(count(result))
            return result

        return traced

    def pool_class(self, name: str):
        """A ThreadPoolExecutor whose `with` block is one span on the caller."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __enter__(self):
                self._span = tracer.open(name)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

        return TracedPool

    # -- reduction ---------------------------------------------------------------

    def self_times(self) -> Counter:
        """Summed self time per span name, in seconds."""
        children = {}
        for span in self.spans:
            children.setdefault(span[3], []).append((span[1], span[2]))
        totals = Counter()
        for index, (name, start, end, _parent, _thread) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] += (end - start) - covered
        return totals

    def durations(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def child_durations(self, parent_name: str) -> float:
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        return sum(s[2] - s[1] for s in self.spans if s[3] in parents)


def _sweep_counts(result) -> dict:
    delays, diffs = result
    first = next(iter(diffs.values()))
    return {
        "diff.sweeps": 1,
        "diff.delays": int(delays.size),
        "diff.delays_skipped": int(sum(1 for v in first if math.isnan(v))),
    }


def install(tracer: Tracer) -> list:
    """Wrap the program's inter-module calls; return what `uninstall` needs."""
    import rtpc.cli as cli
    import rtpc.cycles as cycles
    import rtpc.diff as diff
    import rtpc.respiration as respiration
    import rtpc.stats as stats
    import rtpc.synthgen as synthgen

    one = lambda key: (lambda _result: {key: 1})  # noqa: E731
    plan = [
        # (module, attribute, span name, counter, tracemalloc key)
        (cli, "read_velocity_series", "io.read_velocity_series", None, "io.read_velocity_series"),
        (cli, "write_velocity_series", "io.write_velocity_series", None, None),
        (cli, "read_signal_csv", "io.read_signal_csv",
         lambda r: {"io.read_signal_csv_rows": len(r)}, None),
        (cli, "write_signal_csv", "io.write_signal_csv", None, None),
        (cli, "write_report", "io.write_report", None, None),
        (cli, "read_report", "io.read_report", None, None),
        (cli, "generate_signals", "synthgen.generate_signals", None, None),
        (synthgen, "generate_signals", "synthgen.generate_signals", None, None),
        (cli, "generate_velocity_series", "synthgen.generate_velocity_series", None,
         "synthgen.generate_velocity_series"),
        (cli, "segment_roi", "extraction.segment_roi", None, "extraction"),
        (cli, "correct_background", "extraction.correct_background", None, "extraction"),
        (cli, "unalias", "extraction.unalias", None, "extraction"),
        (cli, "compute_flow", "extraction.compute_flow", None, "extraction"),
        (cli, "quality_score", "extraction.quality_score", None, None),
        (cli, "sum_flows", "extraction.sum_flows", None, None),
        (cli, "detect_cycles", "cycles.detect_cycles", lambda r: {"cycles.cycles": len(r)}, None),
        (cycles, "detect_cycles", "cycles.detect_cycles", lambda r: {"cycles.cycles": len(r)}, None),
        (cli, "detect_resp_intervals", "respiration.detect_resp_intervals", None, None),
        (respiration, "detect_resp_intervals", "respiration.detect_resp_intervals", None, None),
        (diff, "label_cycles", "respiration.label_cycles",
         one("respiration.label_cycles_calls"), None),
        (cli, "sweep_diffs", "diff.sweep_diffs", _sweep_counts, None),
        (diff, "sweep_diffs", "diff.sweep_diffs", _sweep_counts, None),
        (diff, "delay_scan", "diff.delay_scan", None, None),
        (stats, "spearman", "stats.spearman", None, None),
        (stats, "wilcoxon_signed_rank", "stats.wilcoxon_signed_rank", None, None),
        (cli, "render_line_chart", "svgplot.render_line_chart", one("svgplot.files"), None),
        (cli, "analyze_flow_signal", "cli.analyze_flow_signal", None, None),
    ]
    saved = []
    for module, attr, name, count, alloc in plan:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original, count=count, alloc=alloc))
    saved.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
    cli.ThreadPoolExecutor = tracer.pool_class("cli.analyze_pool")
    return saved


def uninstall(saved: list) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


#: Per-layer metrics: (name, unit). Times are self times summed over a pass.
LAYER_METRICS = (
    ("startup.scipy_import_s", "s"),
    ("startup.rtpc_import_s", "s"),
    ("io.read_velocity_series_s", "s"),
    ("io.read_velocity_series_alloc_mb", "MB"),
    ("io.write_velocity_series_s", "s"),
    ("io.write_signal_csv_s", "s"),
    ("io.read_signal_csv_s", "s"),
    ("io.read_signal_csv_rows", "count"),
    ("io.write_report_s", "s"),
    ("io.read_report_s", "s"),
    ("synthgen.generate_velocity_series_s", "s"),
    ("synthgen.generate_velocity_series_alloc_mb", "MB"),
    ("synthgen.generate_signals_s", "s"),
    ("extraction.segment_roi_s", "s"),
    ("extraction.correct_background_s", "s"),
    ("extraction.unalias_s", "s"),
    ("extraction.compute_flow_s", "s"),
    ("extraction.alloc_peak_mb", "MB"),
    ("extraction.quality_score_s", "s"),
    ("cycles.detect_cycles_s", "s"),
    ("cycles.cycles", "count"),
    ("respiration.detect_resp_intervals_s", "s"),
    ("respiration.label_cycles_s", "s"),
    ("respiration.label_cycles_calls", "count"),
    ("diff.sweep_diffs_s", "s"),
    ("diff.sweeps", "count"),
    ("diff.delays", "count"),
    ("diff.delays_skipped", "count"),
    ("stats.spearman_s", "s"),
    ("stats.wilcoxon_signed_rank_s", "s"),
    ("svgplot.render_line_chart_s", "s"),
    ("svgplot.files", "count"),
    ("cli.self_s", "s"),
    ("cli.analyze_pool_wait_s", "s"),
    ("cli.analyze_pool_busy_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)


def layer_values(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass (startup and overhead excluded)."""
    self_s = tracer.self_times()
    values = {}
    for name, unit in LAYER_METRICS:
        if unit == "s" and name[:-2] in self_s:
            values[name] = self_s[name[:-2]]
    values["cli.self_s"] = self_s.get("cli.command", 0.0)
    values["cli.analyze_pool_wait_s"] = tracer.durations("cli.analyze_pool")
    values["cli.analyze_pool_busy_s"] = tracer.child_durations("cli.analyze_pool")
    values.update(tracer.counts)
    values["io.read_velocity_series_alloc_mb"] = tracer.alloc_mb["io.read_velocity_series"]
    values["synthgen.generate_velocity_series_alloc_mb"] = (
        tracer.alloc_mb["synthgen.generate_velocity_series"]
    )
    values["extraction.alloc_peak_mb"] = tracer.alloc_mb["extraction"]
    values["trace.spans"] = len(tracer.spans)
    return values

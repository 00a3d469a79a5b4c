"""Spans around the package's layer functions, for the traced run only.

Each function listed in ``LAYERS`` is replaced, for the duration of a traced
pass, at every ``hyperchoose`` module attribute that refers to it, so calls
made by ``cli`` and by the other modules all pass through the wrapper.  Nested
wrapped calls become child spans.  Spans are kept in memory and written out
when the benchmark ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = {
    "core": ("parse_hypergraph", "find_bipartition"),
    "density": ("density_flow", "density_exact"),
    "orientation": (
        "min_orientation",
        "hall_orientation",
        "reduce_to_pairgraph",
        "list_color_sparse",
    ),
    "degree_constrained": ("build_selection", "list_color_gk"),
    "choosability": (
        "color_from_lists",
        "is_f_choosable",
        "chromatic_number",
        "choice_number",
    ),
    "nullstellensatz": ("coefficient_count",),
    "dense": (
        "random_split_color_report",
        "lower_bound_experiment",
        "complete_proper_exists",
    ),
    "cli": ("main",),
}

# Per-layer metrics beyond self time, calls and failures: (name, unit, better).
EXTRA_METRICS = (
    ("core.parse_hypergraph.mb_per_s", "MB/s", "higher"),
    ("orientation.min_orientation.hall_calls_per_call", "count", "lower"),
    ("choosability.is_f_choosable.lists_examined", "count", "lower"),
    ("dense.random_split_color_report.accept_ratio", "1", "higher"),
    ("dense.lower_bound_experiment.trials_per_s", "1/s", "higher"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit, better)."""
    specs = []
    for module, names in LAYERS.items():
        for fn in names:
            specs += [
                (f"{module}.{fn}.self_s", "s", "lower"),
                (f"{module}.{fn}.calls", "count", "lower"),
                (f"{module}.{fn}.failed", "count", "lower"),
            ]
    specs += list(EXTRA_METRICS)
    specs.append(("trace.overhead_frac", "1", "lower"))
    return specs


def _payload(name, args, result):
    """The quantity a span carries for the ratio metrics, or None."""
    if name == "core.parse_hypergraph":
        return len(args[0])  # HGR text is ASCII, so characters are bytes
    if name == "choosability.is_f_choosable":
        return result.lists_examined
    if name == "dense.random_split_color_report":
        report = result[1]
        return (report.categories.get("colored", 0), report.trials)
    if name == "dense.lower_bound_experiment":
        return result.trials
    return None


class Tracer:
    """Records spans as [name, start, end, parent, op, failed, payload]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, time.perf_counter(), None, parent, self.op, True, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = False
            span[6] = _payload(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every hyperchoose module attribute that refers to a listed function."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "hyperchoose" or key.startswith("hyperchoose."))
        ]
        for module, names in LAYERS.items():
            home = sys.modules[f"hyperchoose.{module}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module}.{fn_name}", original)
                for m in modules:
                    if getattr(m, fn_name, None) is original:
                        self._patched.append((m, fn_name, original))
                        setattr(m, fn_name, wrapper)

    def uninstall(self):
        for m, fn_name, original in reversed(self._patched):
            setattr(m, fn_name, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self time, calls and failures per function, plus the ratio metrics."""
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        failed: dict[str, int] = defaultdict(int)
        child_s = [0.0] * len(self.spans)
        hall_in_min = 0
        for name, start, end, parent, _op, fail, _p in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
                if (
                    name == "orientation.hall_orientation"
                    and self.spans[parent][0] == "orientation.min_orientation"
                ):
                    hall_in_min += 1
        payload: dict[str, list] = defaultdict(list)
        for i, (name, start, end, _parent, _op, fail, p) in enumerate(self.spans):
            self_s[name] += end - start - child_s[i]
            total_s[name] += end - start
            calls[name] += 1
            failed[name] += fail
            if p is not None:
                payload[name].append(p)

        out: dict[str, float] = {}
        for module, names in LAYERS.items():
            for fn in names:
                key = f"{module}.{fn}"
                out[f"{key}.self_s"] = self_s[key]
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.failed"] = failed[key]

        def ratio(a, b):
            return a / b if b else 0.0

        parse = "core.parse_hypergraph"
        out[f"{parse}.mb_per_s"] = ratio(sum(payload[parse]) / 1e6, total_s[parse])
        out["orientation.min_orientation.hall_calls_per_call"] = ratio(
            hall_in_min, calls["orientation.min_orientation"]
        )
        out["choosability.is_f_choosable.lists_examined"] = sum(
            payload["choosability.is_f_choosable"]
        )
        split = payload["dense.random_split_color_report"]
        out["dense.random_split_color_report.accept_ratio"] = ratio(
            sum(c for c, _ in split), sum(t for _, t in split)
        )
        lower = "dense.lower_bound_experiment"
        out[f"{lower}.trials_per_s"] = ratio(sum(payload[lower]), total_s[lower])
        return out

    def dump(self, path: Path, op_labels: list[str]):
        fields = ["name", "start", "end", "parent", "op", "failed", "payload"]
        path.write_text(
            json.dumps({"fields": fields, "ops": op_labels, "spans": self.spans}),
            "utf-8",
        )

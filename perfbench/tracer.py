"""Outside-in tracing of tiersim's layer boundaries.

The tracer wraps public functions and methods of the ``tiersim`` modules
from outside the package: it changes no source file, and each seam is
wrapped only if it exists, so a refactor that renames or folds a
function shows up as an absent seam instead of a failed run.

Each wrapped call adds to its seam's call count, inclusive time and self
time (inclusive time minus the time of wrapped calls made inside it). A
call nested in an active call of the same seam (``load_scenario`` calling
``scenario_from_dict``, say) counts once, as the outer call. Coarse seams
also keep one span per call (name, start, end, parent span) in memory;
hot per-event seams keep only their aggregates.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

#: (seam, module, attribute path, hot). Several targets may share a seam.
SEAMS = (
    ("scenario.load", "tiersim.scenario", "load_scenario", False),
    ("scenario.load", "tiersim.scenario", "scenario_from_dict", False),
    ("engine.init", "tiersim.engine", "Simulator.__init__", False),
    ("engine.run", "tiersim.engine", "Simulator.run", False),
    ("engine.schedule", "tiersim.engine", "Simulator.schedule", True),
    ("engine.record", "tiersim.engine", "Simulator._record", True),
    ("node.plan_cycle", "tiersim.node", "SensorNode.plan_cycle", True),
    ("node.apply_command", "tiersim.node", "SensorNode.apply_command", True),
    ("oracle.truth", "tiersim.oracle", "draw_ground_truth", True),
    ("oracle.predict", "tiersim.oracle", "ClassifierOracle.predict", True),
    ("heuristics.update", "tiersim.heuristics", "update_history", True),
    ("heuristics.decide", "tiersim.heuristics", "sensor_heuristic", True),
    ("heuristics.decide", "tiersim.heuristics", "gateway_heuristic", True),
    ("heuristics.decide", "tiersim.heuristics", "cloud_heuristic", True),
    ("energy.debit", "tiersim.energy", "debit", True),
    ("energy.debit", "tiersim.energy", "debit_sleep", True),
    ("summary.write_trace_csv", "tiersim.summary", "write_trace_csv", False),
    ("summary.write_trace_jsonl", "tiersim.summary", "write_trace_jsonl", False),
    ("summary.write_energy_csv", "tiersim.summary", "write_energy_csv", False),
    ("summary.write_latency_csv", "tiersim.summary", "write_latency_csv", False),
    ("summary.summarize", "tiersim.summary", "summarize", False),
    ("summary.latency_series", "tiersim.summary", "extract_latency_series", False),
    ("summary.read_trace_csv", "tiersim.summary", "read_trace_csv", False),
    ("cli.run_scenario", "tiersim.cli", "run_scenario", False),
)

#: The mode each heuristic keeps a node in when it decides "no change".
_DECIDER_TIER = {"sensor_heuristic": "S", "gateway_heuristic": "G", "cloud_heuristic": "C"}


class Tracer:
    """Installs wrappers on the seams that exist and aggregates what they see."""

    def __init__(self) -> None:
        names = {seam for seam, *_ in SEAMS}
        self.calls = dict.fromkeys(names, 0)
        self.total_s = dict.fromkeys(names, 0.0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.events: Counter[str] = Counter()
        self.heap_peak = 0
        self.mode_changes = 0
        self.last_simulator = None
        self.spans: list[tuple[str, float, float, int]] = []
        self.absent: list[str] = []
        self._child_s = [0.0]  # time of wrapped children, one slot per open call
        self._open_spans = [-1]
        self._active = dict.fromkeys(names, 0)
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        for seam, module_name, path, hot in SEAMS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(seam, original, hot, self._post_hook(seam, attr))
            if owner_name:
                self._patch(owner, attr, original, wrapper)
            else:
                # Patch every tiersim module that imported the function by
                # name, so calls through ``from .x import f`` are seen too.
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "tiersim" and getattr(mod, attr, None) is original:
                        self._patch(mod, attr, original, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _post_hook(self, seam: str, attr: str):
        """Extra bookkeeping run after a call, outside its timed interval."""
        if seam == "engine.schedule":
            def post(args, kwargs, result):
                kind = kwargs.get("kind", args[2] if len(args) > 2 else None)
                self.events[str(kind)] += 1
                heap = getattr(args[0], "_heap", None)
                if heap is not None and len(heap) > self.heap_peak:
                    self.heap_peak = len(heap)
            return post
        if seam == "engine.init":
            def post(args, kwargs, result):
                self.last_simulator = args[0]
            return post
        if seam == "heuristics.decide":
            stay = _DECIDER_TIER[attr]
            def post(args, kwargs, result):
                if getattr(result, "value", result) != stay:
                    self.mode_changes += 1
            return post
        return None

    def _wrap(self, seam: str, fn, hot: bool, post):
        child_s = self._child_s
        open_spans = self._open_spans
        active = self._active
        calls, total_s, self_s, spans = self.calls, self.total_s, self.self_s, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if active[seam]:
                return fn(*args, **kwargs)
            active[seam] += 1
            child_s.append(0.0)
            if not hot:
                open_spans.append(len(spans))
                spans.append((seam, 0.0, 0.0, open_spans[-2]))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_s.pop()
                child_s[-1] += elapsed
                calls[seam] += 1
                total_s[seam] += elapsed
                self_s[seam] += elapsed - inner
                if not hot:
                    index = open_spans.pop()
                    spans[index] = (seam, start, start + elapsed, spans[index][3])
                active[seam] -= 1
            if post is not None:
                start = clock()
                post(args, kwargs, result)
                child_s[-1] += clock() - start  # keep bookkeeping out of self times
            return result

        wrapper.__wrapped__ = fn
        return wrapper

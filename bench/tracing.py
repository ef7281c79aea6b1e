"""Spans around the public functions of each vspin layer, from outside.

The program is not edited: :class:`Tracer` rebinds each listed function in
every ``vspin`` module namespace that holds it (``from .x import f`` copies
the binding, and ``lab_frame`` reaches ``expm4``, ``cli`` reaches
``build_parser``, through module globals), and restores every binding on
exit.  Spans are kept in memory and aggregated, or written out, at the end.
"""

import math
import statistics
import sys
import time
from contextlib import contextmanager

# Functions traced per module; ``errors`` and ``__init__`` carry no work.
TRACED = {
    "spin_system": ("closed_form_eigensystem", "transition_table", "spin_operators"),
    "operator_algebra": ("free_evolution",),
    "pulse_engine": (
        "transition_matrix_element",
        "single_frequency_propagator",
        "two_frequency_propagator",
        "program_propagator",
        "apply_pulse_program",
    ),
    "virtual_qubits": ("compile_gate", "truth_table"),
    "state_prep": ("high_temperature_state", "temporal_average"),
    "lab_frame": (
        "rwa_infidelity",
        "drive_for_pulse",
        "to_interaction_frame",
        "convergence_study",
        "integrate_lab_frame",
        "expm4",
    ),
    "textio": (
        "parse_pulse_program",
        "format_pulse_program",
        "parse_density_matrix",
        "format_density_matrix",
    ),
    "cli": ("run_command", "build_parser"),
}

# Only the rebuild count of spin_operators is reported (its self time is
# dust on every caller).
COUNT_ONLY = {"spin_system.spin_operators"}


def _grid_steps(args, kwargs):
    """Steps integrate_lab_frame takes, read from its arguments."""
    system = args[0]
    n_steps = args[1] if len(args) > 1 else kwargs.get("n_steps")
    if system.duration == 0.0:
        return 0
    if n_steps is None:
        target = system.step if system.step is not None else system.default_step()
        n_steps = math.ceil(system.duration / target)
    return max(int(n_steps), 1)


def _matrices(args, kwargs):
    shape = getattr(args[0], "shape", ())
    return 1 if len(shape) == 2 else int(shape[0])


# Work counters read from arguments or results: name -> (reader, from_result).
_COUNTERS = {
    "lab_frame.integrate_lab_frame": ("grid_steps", _grid_steps, False),
    "lab_frame.expm4": ("matrices", _matrices, False),
    "textio.parse_pulse_program": ("bytes", lambda a, k: len(a[0]), False),
    "textio.parse_density_matrix": ("bytes", lambda a, k: len(a[0]), False),
    "textio.format_pulse_program": ("bytes", len, True),
    "textio.format_density_matrix": ("bytes", len, True),
}

# Span tags for the reference figures: the gate kind, the CLI subcommand.
_TAGS = {
    "virtual_qubits.compile_gate": lambda a, k: (a[2] if len(a) > 2 else k["request"]).kind,
    "cli.run_command": lambda a, k: next(iter(a[0] if a else k["argv"]), ""),
}


def traced_names():
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Span recorder; one per traced run, single-threaded.

    A span is (name, start, end, parent, task, tag): parent is the index of
    the enclosing span or -1, task the id of the benchmark task it ran in,
    tag a label from the arguments (see _TAGS) or None.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self.task_id = -1

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        tagger = _TAGS.get(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.task_id, tag)
            if counter:
                key, reader, from_result = counter
                amount = reader(result) if from_result else reader(args, kwargs)
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + amount
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def task(self, task_id):
        """A root span named "task" around one benchmark task."""
        self.task_id = task_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = ("task", start, end, -1, task_id, None)

    @contextmanager
    def installed(self):
        """Rebind every traced function in every loaded vspin module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "vspin" or n.startswith("vspin.")]
        wrappers = {}
        for mod_name, fns in TRACED.items():
            mod = sys.modules[f"vspin.{mod_name}"]
            for fn_name in fns:
                original = getattr(mod, fn_name)
                wrappers[id(original)] = (original, self._wrap(f"{mod_name}.{fn_name}", original))
        rebound = []
        try:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(mod, attr, hit[1])
                        rebound.append((mod, attr, value))
            yield self
        finally:
            for mod, attr, value in reversed(rebound):
                setattr(mod, attr, value)

    def aggregate(self, passes):
        """Per-layer metrics per pass over the task list.

        Self time is a span's duration minus its children's durations.
        """
        calls, inclusive, self_time = {}, {}, {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child[i]

        per_pass = max(passes, 1)
        metrics = {}
        for name in traced_names():
            metrics[f"{name}.calls"] = (calls.get(name, 0) / per_pass, "count")
            if name not in COUNT_ONLY:
                metrics[f"{name}.self_ms"] = (self_time.get(name, 0.0) * 1e3 / per_pass, "ms")
        steps = self.counts.get("lab_frame.integrate_lab_frame.grid_steps", 0)
        matrices = self.counts.get("lab_frame.expm4.matrices", 0)
        integrate_s = inclusive.get("lab_frame.integrate_lab_frame", 0.0)
        expm4_self = self_time.get("lab_frame.expm4", 0.0)
        metrics["lab_frame.integrate_lab_frame.grid_steps"] = (steps / per_pass, "count")
        metrics["lab_frame.us_per_grid_step"] = (integrate_s * 1e6 / steps if steps else 0.0, "us")
        metrics["lab_frame.expm4.matrices"] = (matrices / per_pass, "count")
        metrics["lab_frame.expm4.us_per_matrix"] = (expm4_self * 1e6 / matrices if matrices else 0.0, "us")
        # base: inclusive integrate_lab_frame time
        metrics["lab_frame.expm4_share"] = (expm4_self / integrate_s if integrate_s else 0.0, "ratio")
        text_bytes = sum(v for k, v in self.counts.items() if k.endswith(".bytes"))
        metrics["textio.bytes"] = (text_bytes / per_pass, "bytes")

        roots = {i for i, span in enumerate(self.spans) if span[0] == "task"}
        task_s = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        top_s = sum(end - start for _, start, end, parent, _, _ in self.spans if parent in roots)
        metrics["bench.top_span_coverage"] = (top_s / task_s if task_s else 0.0, "ratio")
        return metrics

    def median_us(self, name, tag=None):
        """Median inclusive duration of one function's spans (of one tag, if given)."""
        durations = [end - start for n, start, end, _, _, t in self.spans if n == name and tag in (None, t)]
        return statistics.median(durations) * 1e6 if durations else math.nan

    def write(self, path):
        """Spans as tab-separated lines: name, start, end, parent, task, tag."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task, tag in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{task}\t{tag or ''}\n")

"""vspin benchmark: one seeded workload per run, every output checked.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ``src/``.
Each workload is a closed loop: one process, one thread, one task after
another over a fixed task list that the seed generates.  Passes over the
list repeat until they have taken ``--seconds``.  Between passes, off the
passes' clock, set-ups repeat, and sequential cold starts run the
workload's command-line counterpart in fresh processes.  Task timings come
from the fastest repeats of each task (see ``fastest``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats the
passes with every public layer function wrapped (see tracing.py) and
reports per-layer metrics per pass, the tracing overhead, and the
cold-start split; its spans are written to ``bench/out/`` at exit.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  ``failed`` counts tasks whose check failed or that raised.
``--workload all`` runs each workload in its own process and prints every
metric of every workload.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One thread: 4x4 linear algebra gains nothing from BLAS threads, and the
# workloads are single-threaded closed loops.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings)

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 9
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
SPLIT_REPS = 10
BEST = 3  # repeats per task (and per cold-start split probe) that the timings use


def machine():
    """What every result is recorded with."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def fresh_vspin():
    """Import vspin (and its CLI module) anew, so set-up pays the import."""
    for name in [n for n in sys.modules if n == "vspin" or n.startswith("vspin.")]:
        del sys.modules[name]
    vs = importlib.import_module("vspin")
    importlib.import_module("vspin.cli")
    if not Path(vs.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"vspin imported from {vs.__file__}, not from {SRC}")
    return vs


class Tally:
    """Tasks and cold starts attempted, and those whose check failed or that raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def attempt(self, label, fn):
        """Run fn(); count a CheckFailed or any exception as one failure."""
        self.attempted += 1
        try:
            fn()
        except workloads.CheckFailed as exc:
            self._fail(f"{label}: {exc}")
        except Exception:  # noqa: BLE001 -- a task that raises is a counted failure
            self._fail(f"{label}: raised\n{traceback.format_exc()}")

    def _fail(self, message):
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


def run_passes(tasks, seconds, tally, tracer=None, between=None):
    """Passes over the task list until the passes have taken ``seconds``.

    Returns (per-task lists of durations, number of passes).
    ``between(fraction)`` runs after each pass with the share of the time
    gone; its own time does not count.
    """
    timings = [[] for _ in tasks]
    passes = 0
    spent = 0.0
    while not passes or spent < seconds:
        start = time.perf_counter()
        for i, task in enumerate(tasks):

            def timed(i=i, task=task):
                t0 = time.perf_counter()
                if tracer is None:
                    out = task.run()
                else:
                    with tracer.task(passes * len(tasks) + i):
                        out = task.run()
                timings[i].append(time.perf_counter() - t0)
                task.check(out)

            tally.attempt(task.label, timed)
        spent += time.perf_counter() - start
        passes += 1
        if between is not None:
            between(spent / seconds if seconds else 1.0)
    return timings, passes


def fastest(samples):
    """The BEST fastest of repeated timings of one thing.

    Other load on a shared machine only ever makes a run slower, and it
    comes in spells of seconds to minutes, so the fastest repeats estimate
    the program's own cost.  A fixed count, not a share, gives every task
    the same weight in the pools whatever the number of passes.  The price:
    a stall that hits only some calls of a task (a cache rebuilt every k
    calls, say) stays out of the pool unless it hits every repeat.
    """
    return sorted(samples)[:BEST]


def summarize(timings):
    """(run_s, task p50 s, tail s, tail label, pool size) from per-task timings."""
    best = [fastest(t) for t in timings if t]
    costs = [statistics.median(b) for b in best]
    pool = [d for b in best for d in b]
    tail_s, tail_label = tail(pool, costs)
    return sum(costs), statistics.median(pool), tail_s, tail_label, len(pool)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _timed_child(argv):
    """(seconds, completed process) of ``python argv`` run from the checkout root."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=ROOT,
                          env=_child_env(), timeout=120)
    return time.perf_counter() - start, proc


class Spread:
    """Jobs run evenly between the timed passes, off the passes' clock.

    Spread out, they sample the machine over the whole run, as the passes do.
    """

    def __init__(self, jobs):
        self.jobs, self.total = list(jobs), len(jobs)

    def __call__(self, fraction):
        """Run the jobs due once ``fraction`` of the passes' time is gone."""
        while self.jobs and fraction * self.total >= self.total - len(self.jobs):
            self.jobs.pop(0)()


def cold_start(start, times, tally):
    """Run one cold start, time it, and check it against the same work done in-process."""

    def one():
        elapsed, proc = _timed_child(start.argv)
        times.append(elapsed)
        expected, code = start.reference()
        workloads.require(proc.returncode == code, f"exit {proc.returncode}, expected {code}")
        workloads.require(proc.stdout == expected, "stdout differs from the in-process run")

    tally.attempt(f"cold start {' '.join(start.argv[:3])[:60]}", one)


def set_up(name, seed, workdir, tally):
    """(seconds, workload) of one set-up: a fresh ``import vspin``, the inputs, a warm-up task."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    vs = fresh_vspin()
    workload = workloads.WORKLOADS[name](vs, seed, workdir)
    warm = workload.tasks[0]
    tally.attempt("warm-up", lambda: warm.check(warm.run()))
    return time.perf_counter() - start, workload


def cold_start_split(full_argv):
    """Subprocess deltas: interpreter, import numpy, import vspin, then the command."""
    probes = [["-c", "pass"], ["-c", "import numpy"], ["-c", "import vspin"], full_argv]
    times = [[] for _ in probes]
    for _ in range(SPLIT_REPS):  # round robin, so each probe sees the same machine
        for probe, t in zip(probes, times):
            t.append(_timed_child(probe)[0])
    ms = [statistics.median(fastest(t)) * 1e3 for t in times]
    return {
        "cli.interpreter_ms": ms[0],
        "cli.import_numpy_ms": ms[1] - ms[0],
        "cli.import_vspin_ms": ms[2] - ms[1],
    }, ms[3] - ms[2]


def tail(pool, costs):
    """(value, label) of the highest percentile of ``pool`` with TAIL_BEYOND samples beyond it.

    Below p90 that is no tail (a task list of a dozen heavy tasks); then the
    slowest task's cost stands in.
    """
    ordered = sorted(pool)
    n = len(ordered)
    pct = 100.0 * (n - 1 - TAIL_BEYOND) / (n - 1) if n > TAIL_BEYOND + 1 else 0.0
    if pct < 90.0:
        return max(costs), "the slowest task"
    return ordered[n - 1 - TAIL_BEYOND], f"p{pct:.2f}"


def run_workload(name, seed, seconds, trace):
    """(result dict, report lines) of one workload run."""
    workdir = BENCH / ".work" / f"{name}-{os.getpid()}"
    tally = Tally()
    report = [f"machine {json.dumps(machine())}"]
    try:
        first, workload = set_up(name, seed, workdir, tally)
        setup, cold = [first], []
        kept = {k: m for k, m in sys.modules.items() if k == "vspin" or k.startswith("vspin.")}

        def again():
            setup.append(set_up(name, seed, workdir, tally)[0])
            sys.modules.update(kept)  # the tasks, and the tracer, keep the first import

        _timed_child(workload.cold[0].argv)  # writes the bytecode caches
        spread = [
            Spread([again] * (SETUP_REPS - 1)),
            Spread([lambda c=c: cold_start(c, cold, tally) for c in workload.cold]),
        ]
        tasks = workload.tasks
        timings, passes = run_passes(tasks, seconds, tally, between=lambda f: [s(f) for s in spread])
        for s in spread:
            s(1.0)
        run_s, p50_s, tail_s, tail_label, pooled = summarize(timings)
        cold_ms = statistics.median(cold) * 1e3
        report.append(
            f"workload {name} seed {seed}: {len(tasks)} tasks per pass, {passes} passes;"
            f" task timings are best-of figures, from each task's {BEST} fastest repeats"
            f" ({pooled} samples); task_tail_ms is {tail_label};"
            f" setup_s is the median of {len(setup)} set-ups;"
            f" cold_start_p50_ms is the median of all {len(cold)} cold starts"
        )
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (run_s, "s"),
            "task_p50_ms": (p50_s * 1e3, "ms"),
            "task_tail_ms": (tail_s * 1e3, "ms"),
            "cold_start_p50_ms": (cold_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        if trace:
            report += [f"end-to-end {k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
            tracer = tracing.Tracer()
            with tracer.installed():
                traced, traced_passes = run_passes(tasks, seconds, tally, tracer)
            metrics = tracer.aggregate(traced_passes)
            metrics["bench.trace_overhead_s"] = (summarize(traced)[0] - run_s, "s")
            split, command_ms = cold_start_split(workload.cold[0].argv)
            metrics.update({k: (v, "ms") for k, v in split.items()})
            report += reference_lines(tracer, metrics, cold_ms, command_ms)
            out = BENCH / "out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"spans-{name}-seed{seed}.tsv")
        report.append(f"failed_ratio {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted})")
        for message in tally.messages:
            print(f"bench: check failed: {message}", file=sys.stderr)
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def reference_lines(tracer, metrics, cold_ms, command_ms):
    """The ROADMAP reference figures beside the values measured here (median spans)."""
    rows = [
        ("closed_form_eigensystem_us", tracer.median_us("spin_system.closed_form_eigensystem"), 66),
        ("compile_gate_cnot_us", tracer.median_us("virtual_qubits.compile_gate", "cnot"), 16),
        ("in_process_truth_table_ms", tracer.median_us("cli.run_command", "truth-table") / 1e3, 1.6),
        ("cold_start_ms", cold_ms, 150),
        ("us_per_grid_step", metrics["lab_frame.us_per_grid_step"][0] or math.nan, 3.9),
        ("expm4_us_per_matrix", metrics["lab_frame.expm4.us_per_matrix"][0] or math.nan, 3.2),
    ]
    lines = [f"reference {k} measured {v:.4g} roadmap ~{ref:g}" for k, v, ref in rows]
    lines.append(f"reference cold_start_command_ms {command_ms:.4g} (full command minus import vspin)")
    lines.append("reference expm4_share base: inclusive lab_frame.integrate_lab_frame time")
    return lines


def run_all(args):
    """Each workload in its own process; prints every metric of every workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        for metric, value in result["metrics"].items():
            print(f"{name:14s} {metric:48s} {value['value']:.6g} {value['unit']}")
            total["metrics"][f"{name}.{metric}"] = value
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vspin" / "__init__.py").is_file():
        print(f"bench: no vspin package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result, report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Timing from outside the program: module attributes are swapped for
wrappers while a probe is active and restored afterwards.

The program's modules look their callees up as module attributes
(`analysis.analyze`, `ga.evaluate_design`, ...), so replacing the
attribute intercepts every call without editing `src/`. A name imported
with `from ... import` is its own binding and is wrapped where it is
looked up (`ga.evaluate_constraints`).
"""

import importlib
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from trussopt import analysis, annealing, cli, ga, hybrid
from trussopt import io as io_mod

# `trussopt/__init__.py` rebinds `trussopt.penalty` to the function
# `penalty`, so the module object comes from the import system
penalty_mod = importlib.import_module("trussopt.penalty")


class _Patches:
    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


@dataclass
class Segment:
    kind: str              # "init", "ga" (a GA step) or "rest" (the rest
                           # of a generation: SA burst and bookkeeping)
    start: float
    end: float = None
    evals: list = field(default_factory=list)   # start of each evaluation


@dataclass
class ProbedRun:
    record: object
    segments: list         # init, then a "ga" and a "rest" per generation

    def wall_s(self):
        return sum(s.end - s.start for s in self.segments)


class RunProbe(_Patches):
    """Captures every `hybrid.run` call: its RunRecord and the run's time
    line, cut into segments at the GA steps, with the start time of every
    `ga.evaluate_design` call in each segment.

    `sampler` is called at every `every`-th generation boundary, outside
    every segment; the workloads use it to spread their `trussopt verify`
    latency samples over the whole run. The probe's own cost is one clock
    read per evaluation and three per generation.
    """

    def __init__(self, sampler, every):
        super().__init__()
        self.sampler = sampler
        self.every = every
        self.runs = []

    def __enter__(self):
        segments = []
        current = None     # the open segment, None outside a run

        def wrap_run(run):
            def probed_run(*args, **kwargs):
                nonlocal current
                segments.clear()
                current = Segment("init", time.perf_counter())
                segments.append(current)
                record = run(*args, **kwargs)
                current.end = time.perf_counter()
                current = None
                self.runs.append(ProbedRun(record, list(segments)))
                return record
            return probed_run

        def wrap_step(step):
            def probed_step(*args, **kwargs):
                nonlocal current
                current.end = time.perf_counter()
                current = None
                steps = (len(segments) - 1) // 2
                if steps % self.every == 0:
                    self.sampler()
                current = Segment("ga", time.perf_counter())
                segments.append(current)
                pop = step(*args, **kwargs)
                current.end = time.perf_counter()
                current = Segment("rest", current.end)
                segments.append(current)
                return pop
            return probed_step

        def wrap_evaluate(evaluate):
            def probed_evaluate(*args, **kwargs):
                if current is not None:
                    current.evals.append(time.perf_counter())
                return evaluate(*args, **kwargs)
            return probed_evaluate

        self.patch(hybrid, "run", wrap_run)
        self.patch(ga, "step_generation", wrap_step)
        self.patch(ga, "evaluate_design", wrap_evaluate)
        return self


class PhaseClock(_Patches):
    """Splits timed calls into phases at the start of every
    `cli.load_model` and `cli.constraint_margins` call, one clock read
    each. While entered, `time(fn)` runs fn and returns its result and its
    phases: (label, seconds) pairs, the first labelled "start"."""

    STAMPED = ("load_model", "constraint_margins")

    def __init__(self):
        super().__init__()
        self._marks = None    # (label, time) of the innermost timed call

    def __enter__(self):
        for name in self.STAMPED:
            def wrap(fn, label=f"cli.{name}"):
                def stamped(*args, **kwargs):
                    if self._marks is not None:
                        self._marks.append((label, time.perf_counter()))
                    return fn(*args, **kwargs)
                return stamped
            self.patch(cli, name, wrap)
        return self

    def time(self, fn):
        outer, marks = self._marks, []
        self._marks = marks
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            self._marks = outer
        points = [("start", t0), *marks, (None, t1)]
        return result, tuple((label, b - a)
                             for (label, a), (_, b) in zip(points, points[1:]))


def fastest(samples):
    """The fastest time of a call repeated with the same phases: the sum
    over phases of each phase's least duration, each least taken over the
    samples that split into the same phases; the least of these sums
    when the samples split in more than one way. Phases are shorter than
    the call, so their least times catch the host's fast moments more
    often than the whole call's."""
    layouts = defaultdict(list)
    for phases in samples:
        layouts[tuple(label for label, _ in phases)].append(
            [seconds for _, seconds in phases])
    return min((sum(map(min, zip(*rows))) for rows in layouts.values()),
               default=math.inf)


class AnalysisCounter(_Patches):
    """Counts `analysis.analyze` calls; one integer add per call."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def __enter__(self):
        def wrap(analyze):
            def counted(*args, **kwargs):
                self.calls += 1
                return analyze(*args, **kwargs)
            return counted
        self.patch(analysis, "analyze", wrap)
        return self


class Tracer(_Patches):
    """Per-function call counts, total and self time.

    Self time is a call's duration minus the time spent in wrapped calls
    it made. Counts that need the caller (evaluations made inside an SA
    burst) read the stack of active wrapped calls.
    """

    def __init__(self):
        super().__init__()
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._stack = []

    def _timed(self, name, on_result=None):
        stack = self._stack

        def make_wrapper(fn):
            def traced(*args, **kwargs):
                frame = [name, 0.0]
                stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except analysis.SingularStructure:
                    if name == "analysis.factorize":
                        self.counts["singular"] += 1
                    raise
                finally:
                    dt = time.perf_counter() - t0
                    stack.pop()
                    self.calls[name] += 1
                    self.total[name] += dt
                    self.self_time[name] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
                if on_result is not None:
                    on_result(args, result)
                return result
            return traced
        return make_wrapper

    def _inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def __enter__(self):
        def on_constraints(args, report):
            self.counts["constraint_rows"] += len(report.violations)

        def on_evaluation(args, ind):
            if self._inside("annealing.sa_run"):
                self.counts["sa_evals"] += 1
            else:
                self.counts["ga_evals"] += 1

        def on_burst(args, result):
            # sa_run returns its start individual when nothing improved it
            if result[0] is not args[0]:
                self.counts["improved_bursts"] += 1

        constraints = self._timed("penalty.evaluate_constraints", on_constraints)
        self.patch(analysis.Analyzer, "__init__", self._timed("analysis.precompute"))
        self.patch(analysis.Analyzer, "assemble", self._timed("analysis.assemble"))
        self.patch(analysis.Analyzer, "factorize", self._timed("analysis.factorize"))
        self.patch(analysis, "analyze", self._timed("analysis.analyze"))
        self.patch(penalty_mod, "evaluate_constraints", constraints)
        self.patch(ga, "evaluate_constraints", constraints)
        self.patch(ga, "evaluate_design", self._timed("ga.evaluate_design", on_evaluation))
        self.patch(ga, "init_population", self._timed("ga.init_population"))
        self.patch(ga, "step_generation", self._timed("ga.step_generation"))
        self.patch(annealing, "sa_run", self._timed("annealing.sa_run", on_burst))
        self.patch(hybrid, "run", self._timed("hybrid.run"))
        self.patch(cli, "main", self._timed("cli.main"))
        self.patch(cli, "load_model", self._timed("cli.load_model"))
        self.patch(cli, "constraint_margins", self._timed("cli.constraint_margins"))
        self.patch(io_mod, "parse_model", self._timed("io.parse_model"))
        return self

    def per_call(self, name, kind="total", scale=1.0):
        """Mean time per call in seconds * scale; 0 if never called."""
        calls = self.calls[name]
        table = self.total if kind == "total" else self.self_time
        return table[name] / calls * scale if calls else 0.0

    def layer_metrics(self, rounds):
        """The per-layer metrics; counts are per traced round."""
        us, ms = 1e6, 1e3
        evals = self.calls["ga.evaluate_design"]
        bursts = self.calls["annealing.sa_run"]
        commands = self.calls["cli.main"]
        constraint_calls = self.calls["penalty.evaluate_constraints"]
        return {
            "analysis.precompute_us": (self.per_call("analysis.precompute", scale=us), "us"),
            "analysis.assemble_us": (self.per_call("analysis.assemble", scale=us), "us"),
            "analysis.factorize_us": (self.per_call("analysis.factorize", "self", us), "us"),
            "analysis.solve_us": (self.per_call("analysis.analyze", "self", us), "us"),
            "analysis.singular": (self.counts["singular"] / rounds, "count"),
            "penalty.constraints_us": (self.per_call("penalty.evaluate_constraints", scale=us), "us"),
            "penalty.rows_per_call": (self.counts["constraint_rows"] / constraint_calls
                                      if constraint_calls else 0.0, "count"),
            "ga.evaluate_design_us": (self.per_call("ga.evaluate_design", scale=us), "us"),
            "ga.evaluate_design_self_us": (self.per_call("ga.evaluate_design", "self", us), "us"),
            "ga.operators_ms_per_gen": (self.per_call("ga.step_generation", "self", ms), "ms"),
            "ga.evals": (self.counts["ga_evals"] / rounds, "count"),
            "annealing.loop_self_ms_per_burst": (self.per_call("annealing.sa_run", "self", ms), "ms"),
            "annealing.evals_per_burst": (self.counts["sa_evals"] / bursts if bursts else 0.0, "count"),
            "annealing.improved_burst_ratio": (self.counts["improved_bursts"] / bursts
                                               if bursts else 0.0, "ratio"),
            "hybrid.sa_eval_share": (self.counts["sa_evals"] / evals if evals else 0.0, "ratio"),
            "hybrid.self_ms": (self.per_call("hybrid.run", "self", ms), "ms"),
            "cli.load_model_ms": (self.per_call("cli.load_model", scale=ms), "ms"),
            "cli.load_model_calls": (self.calls["cli.load_model"] / commands
                                     if commands else 0.0, "count"),
            "cli.constraint_margins_us": (self.per_call("cli.constraint_margins", scale=us), "us"),
            "io.parse_model_ms": (self.per_call("io.parse_model", scale=ms), "ms"),
        }

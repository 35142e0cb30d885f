"""The three workloads: their inputs, one round of operations, the checks
on every output, and the end-to-end metrics.

A round runs the same operations every time. The optimizer is
deterministic for a fixed (model, params, seed), so every round of a
workload must reproduce the first one bit for bit; the checks hold the
first round against the independent reference analyzer and every later
round, traced or not, against the first.
"""

import contextlib
import csv
import io
import json
import math
import re
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trussopt import analysis, benchmarks, cli, hybrid
from trussopt import io as model_io

import reference
import tracing

FEASIBILITY_TOL = 1e-9     # largest normalized constraint of a feasible best
WEIGHT_RTOL = 1e-9         # reported vs reference weight
MARGIN_ATOL = 1e-8         # result.json worst margin vs reference
VERIFY_SLACK = 0.005       # the CLI's default feasibility slack
SETUP_REPEATS = 5
VERIFY_SAMPLES = 50        # points per optimizer run to sample `trussopt verify`
VERIFY_BURST = 2           # calls per point; 200bar has a point every generation
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"


class Tally:
    """Operations attempted and failed; an operation fails when it raises
    or a CLI command exits non-zero. While entered, CLI commands are split
    into phases (tracing.PhaseClock)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.clock = tracing.PhaseClock()

    def __enter__(self):
        self.clock.__enter__()
        return self

    def __exit__(self, *exc):
        self.clock.__exit__(*exc)

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # counted, reported, and the round goes on
            traceback.print_exc()
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def cli(self, argv):
        """Run one `trussopt` command in-process: (stdout, phases), or
        None when it failed."""
        buf = io.StringIO()

        def command():
            with contextlib.redirect_stdout(buf):
                code, phases = self.clock.time(lambda: cli.main(argv))
            if code != 0:
                raise RuntimeError(f"trussopt {argv[0]} exited {code}")
            return buf.getvalue(), phases
        return self.call(command)


def areas_arg(areas):
    # repr round-trips, so the CLI analyzes exactly this vector
    return ",".join(repr(float(a)) for a in areas)


def write_doc(work, model):
    path = Path(work) / f"{model.name}.json"
    text = model_io.serialize_model(model)
    path.write_text(text)
    return str(path), reference.Truss(json.loads(text))


def upper_median(values):
    return sorted(values)[len(values) // 2]


def measure_setup(specs):
    """Median over fresh interpreters of import + model load + first
    analysis (see setup_probe.py)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(SETUP_PROBE), src, *specs],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


# --- checks ---------------------------------------------------------------

_VERIFY_OUT = re.compile(r"weight: (\S+) lb\n"
                         r"worst constraint margin: (\S+)% \(slack \S+%\)\n"
                         r"feasible: (yes|no)\n")


def _agrees(printed, value, decimals):
    return abs(float(printed) - value) <= 0.5 * 10.0 ** -decimals \
        + 1e-9 * max(1.0, abs(value))


def check_verify(text, truss, areas, label):
    """A `trussopt verify` printout against the reference analyzer, to the
    printed precision."""
    m = _VERIFY_OUT.fullmatch(text)
    if m is None:
        return [f"{label}: unexpected verify output {text!r}"]
    weight, g = truss.constraints(areas)
    worst = float(g.max()) if g.size else 0.0
    problems = []
    if not _agrees(m[1], weight, 2):
        problems.append(f"{label}: verify weight {m[1]} vs reference {weight:.6f}")
    if not _agrees(m[2], 100.0 * worst, 3):
        problems.append(f"{label}: verify margin {m[2]}% vs reference "
                        f"{100.0 * worst:.6f}%")
    if abs(worst - VERIFY_SLACK) > 1e-9 and (m[3] == "yes") != (worst <= VERIFY_SLACK):
        problems.append(f"{label}: verify says feasible={m[3]}, reference "
                        f"worst margin {worst:.6g}")
    return problems


def check_record(record, truss, generations, label):
    """The method's properties on one hybrid run."""
    problems = []
    best = record.best
    lo, hi = truss.bounds()
    if not record.best_is_feasible:
        problems.append(f"{label}: best design is not feasible")
    if np.any(best.design < lo) or np.any(best.design > hi):
        problems.append(f"{label}: best design leaves the area bounds")
    weight, g = truss.constraints(best.design)
    if g.size and g.max() > FEASIBILITY_TOL:
        problems.append(f"{label}: reference finds constraint {g.max():.3g} > 0")
    if abs(weight - best.weight) > WEIGHT_RTOL * weight:
        problems.append(f"{label}: weight {best.weight!r} vs reference {weight!r}")
    history = record.history
    evals = [h.evaluations for h in history]
    if any(b <= a for a, b in zip(evals, evals[1:])):
        problems.append(f"{label}: evaluation counts not strictly increasing")
    if evals[-1] != record.total_evaluations:
        problems.append(f"{label}: history ends at {evals[-1]} evaluations, "
                        f"record says {record.total_evaluations}")
    if history[-1].generation != generations:
        problems.append(f"{label}: ran {history[-1].generation} generations")
    # nan until the first feasible design, then non-increasing
    best_so_far = math.inf
    for h in history:
        w = h.best_feasible_weight
        if math.isnan(w):
            if best_so_far < math.inf:
                problems.append(f"{label}: best feasible weight lost at "
                                f"generation {h.generation}")
            continue
        if w > best_so_far:
            problems.append(f"{label}: best feasible weight rises at "
                            f"generation {h.generation}")
        best_so_far = w
    if history[-1].best_feasible_weight != best.weight:
        problems.append(f"{label}: history ends at a weight other than the best")
    return problems


def record_key(record):
    """Everything a RunRecord says except its wall time, exactly."""
    return ([(h.generation, repr(h.best_F), repr(h.mean_F),
              repr(h.best_feasible_weight), h.evaluations, h.sa_ran)
             for h in record.history],
            record.best.design.tobytes(), repr(record.best.weight),
            record.best_is_feasible, record.total_evaluations)


# --- timing -----------------------------------------------------------------
#
# The 2-core host these figures were taken on runs the same work at
# speeds up to 1.7x apart, switching within milliseconds, and the share
# of slow time drifts from one minute to the next: the mean time of a
# 30 s window moved by 15-20% between runs of identical work. The least
# time of a small unit of work repeated many times over the run is
# steadier, and the smaller the unit the steadier its least time: over
# 20 s windows of 200bar analyses, the fastest run of 10 in a row spread
# by 3-5% between windows (quartile distance over median), and the
# fastest of 100 in a row by 9-15%. So the
# optimizer runs are timed in units of CHUNK consecutive evaluations and
# rebuilt from the fastest of each kind (see Pace).

CHUNK = 8   # consecutive evaluations per timing unit: 1.5-7 ms of work


def _least(table, kind, value):
    table[kind] = min(table.get(kind, math.inf), value)


@dataclass
class Pace:
    """The fastest costs of one model's runs, per segment kind (init, ga,
    rest; see tracing.Segment). A segment is rebuilt as its lead-in (start
    to the first evaluation's start), its evaluations but the last at the
    fastest per-evaluation pace (CHUNK consecutive evaluation starts apart,
    so the operators or SA steps between evaluations count too), and its
    tail (the last evaluation's start to the segment's end)."""
    per_eval: dict
    lead: dict
    tail: dict
    empty: dict           # segments without evaluations, whole

    @classmethod
    def of(cls, runs):
        pace = cls({}, {}, {}, {})
        spans = {}        # per kind, for segments too short for a chunk
        for run in runs:
            for seg in run.segments:
                t = seg.evals
                if not t:
                    _least(pace.empty, seg.kind, seg.end - seg.start)
                    continue
                _least(pace.lead, seg.kind, t[0] - seg.start)
                _least(pace.tail, seg.kind, seg.end - t[-1])
                if len(t) > 1:
                    _least(spans, seg.kind, (t[-1] - t[0]) / (len(t) - 1))
                for i in range(CHUNK, len(t)):
                    _least(pace.per_eval, seg.kind, (t[i] - t[i - CHUNK]) / CHUNK)
        pace.per_eval = {**spans, **pace.per_eval}
        return pace

    def segment_time(self, seg):
        n = len(seg.evals)
        if n == 0:
            return self.empty[seg.kind]
        return (self.lead[seg.kind] + self.tail[seg.kind]
                + (n - 1) * self.per_eval.get(seg.kind, 0.0))

    def run_time(self, probed, upto):
        """Seconds for the initial population and generations 1..upto."""
        return sum(self.segment_time(seg) for seg in probed.segments[:1 + 2 * upto])


# --- optimizer workloads --------------------------------------------------

@dataclass
class RunOut:
    name: str
    seed: int
    probed: object        # tracing.ProbedRun
    verify_text: str      # `trussopt verify` of the best design
    files: dict = field(default_factory=dict)   # trussopt run artifacts


@dataclass
class OptimizerRound:
    runs: list
    samples: dict         # model name -> [(verify printout, phases)]


def first_within(record, target_weight):
    """Generation at which the best feasible weight first comes within the
    target, or None."""
    for h in record.history:
        if h.best_feasible_weight <= target_weight:
            return h.generation
    return None


class OptimizerWorkload:
    """Optimizer runs on a fixed panel of (model, seed) pairs. During each
    run `trussopt verify` of the model's catalog design is sampled about
    VERIFY_SAMPLES times, and afterwards the run's best design is verified."""

    panel = ()
    generations = None
    target_ratio = None

    def __init__(self, seed, work):
        self.seed = seed
        self.work = Path(work)

    def setup(self):
        catalog = benchmarks.builtin_models()
        self.entries, self.docs, self.trusses = {}, {}, {}
        for name in sorted({name for name, _ in self.panel}):
            entry = catalog[name]
            self.entries[name] = entry
            self.docs[name], self.trusses[name] = write_doc(self.work, entry.model)
            analysis.analyze(entry.model, entry.reference_areas)

    def _verify_argv(self, name, areas):
        return ["verify", "--model", self.docs[name], "--areas", areas_arg(areas)]

    def round(self, tally):
        runs = []
        samples = {name: [] for name in self.docs}
        for name, seed in self.panel:
            argv = self._verify_argv(name, self.entries[name].reference_areas)

            def sample():
                for _ in range(VERIFY_BURST):
                    done = tally.cli(argv)
                    if done is not None:
                        samples[name].append(done)

            with tracing.RunProbe(sample, every=max(1, self.generations // VERIFY_SAMPLES)) as probe:
                files = self._optimize(tally, name, seed)
            if files is None:
                continue
            probed = probe.runs[-1]
            done = tally.cli(self._verify_argv(name, probed.record.best.design))
            if done is not None:
                samples[name].append((None, done[1]))
            runs.append(RunOut(name, seed, probed,
                               None if done is None else done[0], files))
        return OptimizerRound(runs, samples)

    def key(self, rnd):
        return ([(o.name, o.seed, record_key(o.probed.record), o.verify_text,
                  self._files_key(o.files)) for o in rnd.runs],
                {name: sorted({text for text, _ in s if text is not None})
                 for name, s in rnd.samples.items()})

    def evaluations(self, rnd):
        return sum(o.probed.record.total_evaluations for o in rnd.runs)

    def check(self, rnd):
        problems = []
        if len(rnd.runs) != len(self.panel):
            problems.append(f"{len(self.panel) - len(rnd.runs)} runs failed")
        for name, s in rnd.samples.items():
            texts = {text for text, _ in s if text is not None}
            if len(texts) != 1:
                problems.append(f"{name}: {len(texts)} distinct catalog verify printouts")
            for text in texts:
                problems += check_verify(text, self.trusses[name],
                                         self.entries[name].reference_areas,
                                         f"{name} catalog design")
        for o in rnd.runs:
            label = f"{o.name} seed {o.seed}"
            truss = self.trusses[o.name]
            record = o.probed.record
            problems += check_record(record, truss, self.generations, label)
            if o.verify_text is not None:
                problems += check_verify(o.verify_text, truss, record.best.design, label)
            problems += self._check_files(o, truss, label)
        return problems

    def _files_key(self, files):
        return files

    def _check_files(self, out, truss, label):
        return []

    def metrics(self, rounds):
        # later rounds only check determinism: a faster program fits more
        # rounds into --seconds, and more samples would lower the minima
        rnd = rounds[0]
        paces = {name: Pace.of([o.probed for o in rnd.runs if o.name == name])
                 for name in self.docs}
        fastest_verify = {name: tracing.fastest(p for _, p in rnd.samples[name])
                          for name in self.docs}
        runs = rnd.runs
        run_s = sum(paces[o.name].run_time(o.probed, self.generations)
                    for o in runs)
        evals, times = [], []
        for o in runs:
            record = o.probed.record
            gen = first_within(record, self.target_ratio
                               * self.entries[o.name].reference_weight)
            miss = gen is None
            upto = self.generations if miss else gen
            # a run that misses the target counts as longer than any that hits
            evals.append((miss, record.history[upto].evaluations))
            times.append((miss, paces[o.name].run_time(o.probed, upto)))
        return {
            "run_s": (run_s, "s"),
            "evals_per_s": (self.evaluations(rnd) / run_s, "1/s"),
            "evals_to_target": (upper_median(evals)[1], "count"),
            "time_to_target_s": (upper_median(times)[1], "s"),
            "weight_to_ref": (upper_median(
                [o.probed.record.best.weight / self.entries[o.name].reference_weight
                 for o in runs]), "ratio"),
            "verifies_per_s": (len(fastest_verify) / sum(fastest_verify.values()), "1/s"),
        }

    def report(self, rnd):
        for o in rnd.runs:
            record, p = o.probed.record, o.probed
            gen = first_within(record, self.target_ratio
                               * self.entries[o.name].reference_weight)
            print(f"  {o.name} seed {o.seed}: {record.total_evaluations} evals in "
                  f"{p.wall_s():.2f} s, weight/ref "
                  f"{record.best.weight / self.entries[o.name].reference_weight:.4f}, "
                  f"x{self.target_ratio} target "
                  + ("missed" if gen is None else
                     f"at generation {gen}, {record.history[gen].evaluations} evals"))


class HybridSmall(OptimizerWorkload):
    """`hybrid.run` with default parameters on 25bar and 72bar."""

    name = "hybrid-small"
    panel = (("25bar", 0), ("25bar", 1), ("72bar", 0), ("72bar", 1))
    generations = hybrid.HybridParams().ga.max_generations
    target_ratio = 1.01

    def setup_specs(self):
        return [f"builtin:{name}" for name in self.docs]

    def _optimize(self, tally, name, seed):
        record = tally.call(hybrid.run, self.entries[name].model,
                            hybrid.HybridParams(), seed=seed)
        return None if record is None else {}


class Hybrid200(OptimizerWorkload):
    """`trussopt run` on the 200bar JSON document, in-process via cli.main."""

    name = "hybrid-200bar"
    panel = (("200bar", 0), ("200bar", 1), ("200bar", 2))
    generations = 30
    target_ratio = 1.5

    def setup_specs(self):
        return list(self.docs.values())

    def _optimize(self, tally, name, seed):
        outdir = self.work / f"run-{name}-seed{seed}"
        done = tally.cli(["run", "--model", self.docs[name], "--seed", str(seed),
                          "--generations", str(self.generations),
                          "--out", str(outdir)])
        if done is None:
            return None
        return {"stdout": done[0],
                "result.json": (outdir / "result.json").read_text(),
                "convergence.csv": (outdir / "convergence.csv").read_text()}

    def _files_key(self, files):
        result = json.loads(files["result.json"])
        del result["wall_time_seconds"]
        return {**files, "result.json": result}

    def _check_files(self, out, truss, label):
        problems = []
        record = out.probed.record
        doc = json.loads(out.files["result.json"])
        weight, g = truss.constraints(doc["best_areas"])
        worst = float(g.max())
        if doc["best_areas"] != [float(a) for a in record.best.design]:
            problems.append(f"{label}: result.json areas differ from the run's best")
        if abs(doc["weight"] - weight) > WEIGHT_RTOL * weight:
            problems.append(f"{label}: result.json weight {doc['weight']!r} vs "
                            f"reference {weight!r}")
        if doc["feasible"] is not True or worst > FEASIBILITY_TOL:
            problems.append(f"{label}: result.json feasible={doc['feasible']}, "
                            f"reference worst margin {worst:.3g}")
        if abs(doc["worst_constraint_margin"] - worst) > MARGIN_ATOL:
            problems.append(f"{label}: result.json worst margin "
                            f"{doc['worst_constraint_margin']!r} vs reference {worst!r}")
        if (doc["total_evaluations"], doc["generations"], doc["seed"]) != \
                (record.total_evaluations, self.generations, out.seed):
            problems.append(f"{label}: result.json budget fields disagree with the run")
        rows = list(csv.DictReader(io.StringIO(out.files["convergence.csv"])))
        expected = [(str(h.generation), str(h.evaluations),
                     "" if math.isnan(h.best_feasible_weight)
                     else f"{h.best_feasible_weight:.6f}")
                    for h in record.history[1:]]
        got = [(r["generation"], r["evaluations"], r["best_feasible_weight"])
               for r in rows]
        if got != expected:
            problems.append(f"{label}: convergence.csv disagrees with the run history")
        line = (f"200bar: best weight {doc['weight']:.2f} lb (feasible), "
                f"{record.total_evaluations} evaluations")
        if not out.files["stdout"].startswith(line + "\n"):
            problems.append(f"{label}: unexpected run printout "
                            f"{out.files['stdout']!r}")
        return problems


# --- verify sweep ---------------------------------------------------------

# exact minimum of the statically determinate 18bar: each group at its
# governing stress or Euler buckling limit
CLOSED_FORM_18BAR = (10.0, math.sqrt(468.75), 12.5, math.sqrt(50.0))
RANDOM_DESIGNS_PER_MODEL = 2


@dataclass
class SweepOut:
    texts: list           # verify printout per request, None if it failed
    phases: list          # per request, None if it failed
    analyses: int


class VerifySweep:
    """`trussopt verify` on the JSON documents of all built-in models."""

    name = "verify-sweep"

    def __init__(self, seed, work):
        self.seed = seed
        self.work = Path(work)

    def setup(self):
        catalog = benchmarks.builtin_models()
        rng = np.random.default_rng(self.seed)
        self.catalog, self.docs, self.trusses = catalog, {}, {}
        self.requests = []   # (model name, areas, kind)
        for name, entry in catalog.items():
            self.docs[name], truss = write_doc(self.work, entry.model)
            self.trusses[name] = truss
            analysis.analyze(cli.load_model(self.docs[name]), entry.reference_areas)
            self.requests.append((name, np.array(entry.reference_areas), "reference"))
            lo, hi = truss.bounds()
            for _ in range(RANDOM_DESIGNS_PER_MODEL):
                self.requests.append((name, rng.uniform(lo, hi), "random"))
        self.requests.append(("18bar", np.array(CLOSED_FORM_18BAR), "closed-form"))
        self.argvs = [["verify", "--model", self.docs[name], "--areas", areas_arg(a)]
                      for name, a, _ in self.requests]

    def setup_specs(self):
        return list(self.docs.values())

    def round(self, tally):
        texts, phases = [], []
        with tracing.AnalysisCounter() as counter:
            for argv in self.argvs:
                text, split = tally.cli(argv) or (None, None)
                texts.append(text)
                phases.append(split)
        return SweepOut(texts, phases, counter.calls)

    def key(self, out):
        return out.texts

    def evaluations(self, out):
        return None

    def check(self, out):
        problems = []
        for (name, areas, kind), text in zip(self.requests, out.texts):
            label = f"verify {name} {kind}"
            if text is None:
                problems.append(f"{label}: failed")
                continue
            problems += check_verify(text, self.trusses[name], areas, label)
            if kind == "closed-form":
                m = _VERIFY_OUT.fullmatch(text)
                if m is None or m[1] != "6430.53" or m[2] not in ("+0.000", "-0.000"):
                    problems.append(f"{label}: expected 6430.53 lb at margin 0, "
                                    f"got {text!r}")
        return problems

    def metrics(self, rounds):
        requests = len(self.requests)
        fastest = [tracing.fastest(r.phases[i] for r in rounds
                                   if r.phases[i] is not None)
                   for i in range(requests)]
        sweep_s = sum(fastest)
        analyses = rounds[0].analyses
        ratios = []
        for (name, _, kind), text in zip(self.requests, rounds[0].texts):
            if kind == "reference" and text is not None:
                printed = float(_VERIFY_OUT.fullmatch(text)[1])
                ratios.append(printed / self.catalog[name].reference_weight)
        return {
            "run_s": (sweep_s, "s"),
            "evals_per_s": (analyses / sweep_s, "1/s"),
            "evals_to_target": (analyses / requests, "count"),
            "time_to_target_s": (statistics.median(fastest), "s"),
            "weight_to_ref": (statistics.median(ratios), "ratio"),
            "verifies_per_s": (requests / sweep_s, "1/s"),
        }

    def report(self, out):
        print(f"  {len(self.requests)} verify requests per round, "
              f"{out.analyses} analyses, "
              f"{sum(t for p in out.phases if p for _, t in p) * 1e3:.1f} ms")


WORKLOADS = {w.name: w for w in (HybridSmall, Hybrid200, VerifySweep)}

"""Command-line interface.

Subcommands:
  run      optimize a model, writing convergence.csv and result.json
  verify   evaluate a given area vector on a model (weight + feasibility)
  compare  hybrid vs. plain GA at equal evaluation budgets over seeds
  list     show the built-in benchmark catalog

Exit codes: 0 success, 1 usage error, 2 model error, 3 runtime error.
`verify` rejects an area vector with a non-finite or negative entry as a
usage error; a zero entry (a removed member) is allowed. `run` and
`compare` reject optimizer parameters that GaParams or HybridParams
refuse (say `--tsa 2.5` or `--population 5`), a negative `--seed` and
`compare --seeds` below 5 as usage errors too, before they read the
model. The argument parser is built on the first `main`
call and reused by every later call in the process: parsing fills a
fresh namespace and never writes to the parser.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import analysis, annealing, benchmarks, ga, hybrid, io as model_io
from .model import ModelError


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def load_model(spec):
    """Resolve --model: either 'builtin:NAME' or a JSON document path.
    A mechanism is rejected here (analysis.reject_mechanism)."""
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        try:
            model = benchmarks.get_builtin(name)
        except KeyError as exc:
            raise ModelError(str(exc)) from None
    elif not os.path.exists(spec):
        raise ModelError(f"model file not found: {spec}")
    else:
        with open(spec) as fh:
            model = model_io.parse_model(fh.read())
    analysis.reject_mechanism(model)
    return model


def constraint_margins(model, areas):
    """Weight, the normalized margin of every constraint row in force at a
    design (AnalysisResult.margins), and the in-force mask they were taken
    from; a negative margin is slack, a positive one is violated by that
    fraction."""
    result = analysis.analyze(model, areas)
    return result.weight, result.margins[result.in_force], result.in_force


def write_convergence_csv(path, history):
    with open(path, "w") as fh:
        fh.write("generation,best_F,mean_F,best_feasible_weight,"
                 "evaluations,sa_ran\n")
        for st in history:
            if st.generation == 0:
                continue
            bw = "" if math.isnan(st.best_feasible_weight) \
                else f"{st.best_feasible_weight:.6f}"
            fh.write(f"{st.generation},{st.best_F:.6f},{st.mean_F:.6f},"
                     f"{bw},{st.evaluations},{int(st.sa_ran)}\n")


def _hybrid_params(args):
    ga_params = ga.GaParams(
        population_size=args.population,
        max_generations=args.generations)
    return hybrid.HybridParams(t_sa=args.tsa, ga=ga_params,
                               sa=annealing.SaParams())


def _result_document(model, record):
    best = record.best
    weight, margins, in_force = constraint_margins(model, best.design)
    labels = analysis.get_analyzer(model).constraint_labels(in_force)
    return {
        "model": model.name,
        "seed": record.seed,
        "best_areas": [float(a) for a in best.design],
        "weight": weight,
        "feasible": record.best_is_feasible,
        "worst_constraint_margin": float(margins.max()),
        "total_evaluations": record.total_evaluations,
        "generations": record.history[-1].generation,
        "wall_time_seconds": record.wall_time,
        "constraint_margins": [{**label, "margin": float(m)}
                               for label, m in zip(labels, margins)],
    }


def cmd_run(args, model):
    record = hybrid.run(model, args.params, seed=args.seed)
    out = args.out or os.path.join("runs", f"{model.name}-seed{args.seed}")
    os.makedirs(out, exist_ok=True)
    write_convergence_csv(os.path.join(out, "convergence.csv"), record.history)
    doc = _result_document(model, record)
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
    flag = "feasible" if doc["feasible"] else "INFEASIBLE"
    print(f"{model.name}: best weight {doc['weight']:.2f} lb ({flag}), "
          f"{doc['total_evaluations']} evaluations")
    print(f"results written to {out}")
    return 0


def cmd_verify(args, model):
    areas = np.array(args.areas, dtype=float)
    if len(areas) != model.n_groups:
        print(f"error: model has {model.n_groups} design variables, "
              f"got {len(areas)} areas", file=sys.stderr)
        return 1
    weight, margins, _ = constraint_margins(model, areas)
    worst = float(margins.max())
    feasible = worst <= args.slack
    print(f"weight: {weight:.2f} lb")
    print(f"worst constraint margin: {worst * 100:+.3f}% "
          f"(slack {args.slack * 100:.1f}%)")
    print(f"feasible: {'yes' if feasible else 'no'}")
    return 0


def cmd_compare(args, model):
    seeds = list(range(args.seed, args.seed + args.seeds))
    summary = hybrid.compare_plain_ga(model, args.params, seeds)
    print("seed  hybrid_weight  plain_weight")
    for s, hw, pw in zip(summary.seeds, summary.hybrid_weights,
                         summary.plain_weights):
        print(f"{s:4d}  {hw:13.2f}  {pw:12.2f}")
    print(f"median hybrid {summary.hybrid_median:.2f} lb, "
          f"plain {summary.plain_median:.2f} lb")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for tag, recs in (("hybrid", summary.hybrid_records),
                          ("plain", summary.plain_records)):
            for rec in recs:
                write_convergence_csv(
                    os.path.join(args.out, f"{tag}-seed{rec.seed}.csv"),
                    rec.history)
        print(f"convergence tables written to {args.out}")
    return 0


def cmd_list(args, model):
    catalog = benchmarks.builtin_models()
    print(f"{'name':14s} {'members':>7s} {'groups':>6s} {'cases':>5s} "
          f"{'ref weight':>12s}")
    for name, entry in catalog.items():
        m = entry.model
        print(f"{name:14s} {m.n_elements:7d} {m.n_groups:6d} "
              f"{len(m.load_cases):5d} {entry.reference_weight:12.2f}")
    return 0


def _parse_areas(values):
    """The --areas words as floats; ValueError names the first entry that
    is not a number, or is non-finite or negative."""
    out = []
    try:
        for v in values:
            out.extend(float(p) for p in v.replace(",", " ").split())
    except ValueError:
        raise ValueError("--areas must be a list of numbers") from None
    for i, a in enumerate(out):
        if not 0.0 <= a < math.inf:
            raise ValueError(f"--areas entry {i + 1} is {a!r}; areas must be "
                             f"finite and non-negative")
    return out


@functools.cache
def build_parser():
    parser = _Parser(prog="trussopt",
                     description="Truss sizing optimization (hybrid SA/GA)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, optimizer=True):
        p.add_argument("--model", required=True,
                       help="path to a JSON model document or builtin:NAME")
        if optimizer:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--generations", type=int,
                           default=ga.GaParams().max_generations)
            p.add_argument("--population", type=int,
                           default=ga.GaParams().population_size)
            p.add_argument("--tsa", type=float,
                           default=hybrid.HybridParams().t_sa,
                           help="generations between annealing bursts")

    p_run = sub.add_parser("run", help="optimize a model")
    common(p_run)
    p_run.add_argument("--out", help="output directory "
                       "(default runs/<model>-seed<seed>)")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify",
                              help="evaluate an area vector on a model")
    common(p_verify, optimizer=False)
    p_verify.add_argument("--areas", required=True, nargs="+",
                          help="area vector, space or comma separated")
    p_verify.add_argument("--slack", type=float, default=0.005,
                          help="normalized feasibility slack (default 0.005)")
    p_verify.set_defaults(func=cmd_verify)

    p_cmp = sub.add_parser("compare",
                           help="hybrid vs plain GA at equal budgets")
    common(p_cmp)
    p_cmp.add_argument("--seeds", type=int, default=5,
                       help="number of paired seeds (>= 5)")
    p_cmp.add_argument("--out", help="directory for convergence tables")
    p_cmp.set_defaults(func=cmd_compare)

    p_list = sub.add_parser("list", help="show built-in benchmarks")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 1
    # bad --areas and optimizer parameters are usage errors, found before
    # the model is read
    try:
        if args.command == "verify":
            args.areas = _parse_areas(args.areas)
        elif args.command in ("run", "compare"):
            args.params = _hybrid_params(args)
            if args.seed < 0:
                raise ValueError(f"--seed must be >= 0, got {args.seed}")
            if args.command == "compare" and args.seeds < 5:
                raise ValueError(f"--seeds must be >= 5, got {args.seeds}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        model_stage = True
        # resolve the model first so model errors map to exit code 2
        model = load_model(args.model) if hasattr(args, "model") else None
        model_stage = False
        return args.func(args, model)
    except (ModelError, model_io.ParseError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if model_stage else 3
    except analysis.AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

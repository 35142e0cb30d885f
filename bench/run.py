"""trussopt benchmark: one workload per call, result as the last stdout line.

    python3 bench/run.py --workload hybrid-small --seed 0 --seconds 20 --trace 0

It repeats whole rounds of the workload's operations until --seconds
have passed (at least one round). With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced
rounds and prints the per-layer metrics of the traced ones. Run it from
a source checkout: it imports trussopt from ./src and nothing else.
"""

import os

# One BLAS thread, set before numpy is first imported: at these matrix
# sizes (8-150 free dofs) extra OpenBLAS threads only add synchronisation.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench-work"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def import_program():
    if not (SRC / "trussopt" / "__init__.py").is_file():
        sys.exit(f"bench: no trussopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import trussopt
    if Path(trussopt.__file__).resolve().parent != (SRC / "trussopt").resolve():
        sys.exit(f"bench: trussopt imported from {trussopt.__file__}, not {SRC}")


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, {blas['name']} {blas['version']}, "
            f"nproc {os.cpu_count()}, "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def measure(workload, seconds, trace):
    """Rounds until `seconds` have passed; returns (tally, untraced rounds,
    traced rounds, tracer)."""
    import tracing
    from workloads import Tally
    tally = Tally()
    plain, traced = [], []
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    with tally:
        while True:
            plain.append(workload.round(tally))
            if tracer is not None:
                with tracer:
                    traced.append(workload.round(tally))
            if time.perf_counter() - start >= seconds:
                return tally, plain, traced, tracer


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS, measure_setup
    import reference
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")

    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.setup()
        from trussopt import benchmarks, io as model_io
        doc18 = json.loads(model_io.serialize_model(benchmarks.get_builtin("18bar")))
        problems = reference.self_check(doc18)
        setup_s = None if args.trace else measure_setup(workload.setup_specs())

        tally, plain, traced, tracer = measure(workload, args.seconds, args.trace)

        first = plain[0]
        problems += workload.check(first)
        for i, out in enumerate(plain[1:] + traced, start=1):
            if workload.key(out) != workload.key(first):
                problems.append(f"round {i} differs from round 0")
        problems += tally.errors
        print(f"# {args.workload} seed {args.seed}: {len(plain)} untraced, "
              f"{len(traced)} traced rounds; {environment()}")
        workload.report(first)

        if args.trace:
            evals = workload.evaluations(first)
            counted = tracer.calls["ga.evaluate_design"]
            if evals is not None and counted != evals * len(traced):
                problems.append(f"tracer counted {counted} evaluations, records "
                                f"say {evals * len(traced)}")
            metrics = tracer.layer_metrics(len(traced))
            # the tracing overhead, as run_s of the untraced and traced rounds
            metrics["trace.untraced_s"] = workload.metrics(plain)["run_s"]
            metrics["trace.traced_s"] = workload.metrics(traced)["run_s"]
        else:
            metrics = workload.metrics(plain)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"# check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

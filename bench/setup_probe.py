"""Set-up time in a fresh interpreter: import trussopt, load each model
and run its first analysis. Prints the seconds taken.

    python3 bench/setup_probe.py SRC_DIR MODEL_SPEC...

A MODEL_SPEC is what `trussopt --model` takes: builtin:NAME or a JSON
document path.
"""

import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv):
    sys.path.insert(0, argv[0])
    t0 = time.perf_counter()
    from trussopt import analysis, cli
    for spec in argv[1:]:
        model = cli.load_model(spec)
        analysis.analyze(model, model.area_bounds()[1])
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1:])

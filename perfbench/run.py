"""Benchmark of the spheredecon pipeline.

    python3 perfbench/run.py --workload cell_dense --seed 1 --seconds 36 --trace 0

Runs one workload (see ``workloads.py``) in this fresh process with the
BLAS/OpenMP pools pinned to nproc threads, checks every output, prints a
summary and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics: setup_s (median over fresh
interpreters of the time to import spheredecon and return from the first
LAPACK call), pass_s (median wall time of the passes run after that warm-up),
peak_rss_mb and epsilon_max.  --trace 1 alternates untraced and traced passes
and reports per-layer metrics from spans recorded around the program's public
functions (see ``spans.py``); spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import sys

import benchenv

N_SETUP_PROBES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = benchenv.nproc()
    benchenv.pin_threads(threads)
    try:
        package = benchenv.import_program()
    except (benchenv.ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import measure  # imports numpy, so only after the threads are pinned
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    benchenv.first_lapack_call()
    workload = workloads.WORKLOADS[args.workload]
    try:
        ref = workloads.load_reference(workload)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot load the references: {exc}", file=sys.stderr)
        return 2
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(benchenv.record(threads), sort_keys=True))
    try:
        result = measure.run(workload, package, args.seed, args.seconds, bool(args.trace),
                             ref=ref, setup_probes=0 if args.trace else N_SETUP_PROBES)
    except measure.ProbeFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in measure.summary_lines(result):
        print(line)
    print(json.dumps(result["json"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

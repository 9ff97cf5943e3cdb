"""Child process of a benchmark run, started in a fresh interpreter.

    probe.py setup THREADS            print the monotonic clock once spheredecon
                                      is imported and the first LAPACK call returned
    probe.py pass WORKLOAD PARAMS_JSON SEED THREADS
                                      print the wall time of one pass after a
                                      warm-up pass

The parent reads the last word of standard output; on any failure the probe
exits nonzero.
"""

from __future__ import annotations

import sys
import time

import benchenv


def main(argv) -> int:
    mode, *rest = argv
    threads = int(rest[-1])
    benchenv.pin_threads(threads)
    benchenv.import_program()
    benchenv.first_lapack_call()
    if mode == "setup":
        print(repr(time.perf_counter()))
        return 0
    import json

    import measure
    import workloads

    workload = workloads.with_params(rest[0], json.loads(rest[1]))
    print(repr(measure.one_pass(workload, int(rest[2]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

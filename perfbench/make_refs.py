"""Write the stored references of every workload to perfbench/refs/.

    python3 perfbench/make_refs.py

For each workload: the dense-SVD epsilon of every sampling family the pass
certifies (computed here from the nodes, independently of what the program
reports), the lunar multipliers where the workload makes them, and the
per-seed values of seeds 1 and 2.  Seed 2 is held out: use it only to check
a claim made while working with seed 1.  Regenerate only when a change of
the workloads is meant to change the references.
"""

from __future__ import annotations

import json
import shutil
import sys

import benchenv

SEEDS = (1, 2)
HELD_OUT = (2,)


def dense_epsilon(sd, cell) -> float:
    import numpy as np

    fam = sd.pick_nodes(sd.build_partition(cell.n), rule=cell.rule, seed=cell.node_seed)
    thetas, phis = sd.sphere_geometry.nodes_to_arrays(fam.nodes)
    mat = sd.basis_matrix(cell.m, thetas, phis) * np.sqrt(fam.weights)[:, None]
    sv = np.linalg.svd(mat, compute_uv=False)
    return max(1.0 - sv[-1] ** 2, sv[0] ** 2 - 1.0)


def reference(workload, sd) -> dict:
    import measure
    import workloads

    ref = {"params": workloads.params(workload), "held_out_seeds": list(HELD_OUT), "seeds": {}}
    for seed in SEEDS:
        workdir = measure.make_workdir(workload.name)
        try:
            inputs = workload.prepare(seed, workdir)
            raw = workload.run_pass(inputs, workdir)
            out = workload.outputs(raw, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        failed = [c for c in out.checks if not c[1]]
        if failed:
            raise RuntimeError(f"{workload.name} seed {seed}: {failed}")
        cells = [{"m": c.m, "N": c.n} for c in out.cells]
        if "cells" in ref and cells != [{"m": c["m"], "N": c["N"]} for c in ref["cells"]]:
            raise RuntimeError(f"{workload.name}: families depend on the seed")
        if "cells" not in ref:
            for entry, cell in zip(cells, out.cells):
                entry["epsilon"] = dense_epsilon(sd, cell)
            ref["cells"] = cells
        if out.multipliers is not None:
            ref["multipliers"] = out.multipliers.tolist()
        ref["seeds"][str(seed)] = {k: v.tolist() for k, v in out.values.items()}
    return ref


def main() -> int:
    benchenv.pin_threads(benchenv.nproc())
    sd = benchenv.import_program()
    import workloads

    for workload in workloads.WORKLOADS.values():
        ref = reference(workload, sd)
        path = workloads.reference_path(workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}: {len(ref['cells'])} cells, seeds {sorted(ref['seeds'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

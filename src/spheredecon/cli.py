"""Batch command-line front-end emitting plot-ready CSV/JSON artifacts.

Subcommands: partition, nodes, filter, simulate, reconstruct, certify,
verify-mz, experiment.  Every command is a pure function of its config and
input files: reruns produce byte-identical output, all randomness is seeded,
files are written atomically.  Failures exit nonzero with a machine-readable
JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Optional

from . import certify as cert_mod
from . import filters as filt_mod
from .artifacts import atomic_write_text, format_float, write_json
from .forward import (
    add_noise,
    apply_multiplier,
    read_measurements_csv,
    sample_at,
    simulate,
    write_measurements_csv,
)
from .harmonics import (
    CoefficientVector,
    coeffs_from_json,
    coeffs_to_json,
    random_poly,
    sobolev_norm,
)
from .reconstruct import filtered_singular_values, lsq_solve, solution_to_json
from .sphere_geometry import (
    MzFamily,
    build_partition,
    pick_nodes,
    write_nodes_csv,
    write_partition_json,
)

__all__ = ["main", "run_experiment_row", "CliError"]


class CliError(Exception):
    """User-facing configuration or validation error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures into the JSON path
        raise CliError(message)


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the --config JSON file (flags win).

    The accepted keys are the flag destinations argparse put on the
    namespace for the chosen subcommand.
    """
    if args.config is None:
        return
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {args.config}: {exc}") from exc
    unknown = set(cfg) - (set(vars(args)) - {"command", "config", "func"})
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        if getattr(args, key) is None:
            setattr(args, key, value)


def _float(value, name: str) -> float:
    """A float parameter from a flag or the config; CliError unless finite."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise CliError(f"--{name.replace('_', '-')} must be a finite number, got {value!r}")
    return x


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise CliError(f"missing required parameter --{name.replace('_', '-')}")


def _build_family(n: int, rule: str, seed: Optional[int]) -> MzFamily:
    if rule == "random_in_region" and seed is None:
        raise CliError("--node-seed is required with rule random_in_region")
    partition = build_partition(n)
    return pick_nodes(partition, rule=rule, seed=seed)


def _load_filter(path) -> filt_mod.MultiplierFilter:
    try:
        with open(path) as fh:
            return filt_mod.filter_from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise CliError(f"cannot load filter {path}: {exc}") from exc


def _load_coeffs(path) -> CoefficientVector:
    try:
        with open(path) as fh:
            return coeffs_from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise CliError(f"cannot load coefficients {path}: {exc}") from exc


# ---------------------------------------------------------------- commands


def _cmd_partition(args) -> int:
    _require(args, "n", "out_json")
    partition = build_partition(int(args.n))
    write_partition_json(args.out_json, partition)
    if args.out_csv:
        write_nodes_csv(args.out_csv, pick_nodes(partition))
    return 0


def _cmd_nodes(args) -> int:
    _require(args, "n", "out")
    rule = args.rule or "area_center"
    fam = _build_family(int(args.n), rule, args.node_seed)
    write_nodes_csv(args.out, fam)
    return 0


def _make_filter(args) -> filt_mod.MultiplierFilter:
    kind = args.kind
    m_max = int(args.m_max)
    tol = _float(args.tol, "tol") if args.tol is not None else 1e-10
    if kind == "identity":
        filt = filt_mod.identity_multipliers(m_max)
    elif kind == "cap":
        _require(args, "theta0")
        if args.quadrature:
            filt = filt_mod.multipliers_from_profile(
                filt_mod.CapProfile(_float(args.theta0, "theta0")), m_max=m_max, tol=tol
            )
        else:
            filt = filt_mod.cap_multipliers(_float(args.theta0, "theta0"), m_max)
    elif kind == "planck":
        _require(args, "lam0", "radius")
        filt = filt_mod.multipliers_from_profile(
            filt_mod.PlanckProfile(_float(args.lam0, "lam0"), _float(args.radius, "radius")),
            m_max=m_max,
            tol=tol,
        )
    elif kind == "lunar":
        _require(args, "radius", "altitude")
        filt = filt_mod.multipliers_from_profile(
            filt_mod.LunarProfile(_float(args.radius, "radius"), _float(args.altitude, "altitude")),
            m_max=m_max,
            tol=tol,
        )
    else:
        raise CliError(f"unknown filter kind {kind!r}")
    # replace() re-runs the filter's validation on the attached fits
    if args.gamma is not None:
        gamma = _float(args.gamma, "gamma")
        fit = filt_mod.DecayFit(filt_mod.fit_decay(filt, gamma), gamma, filt.m_max)
        filt = dataclasses.replace(filt, decay_fit=fit)
    if args.zeta is not None:
        zeta = _float(args.zeta, "zeta")
        fit = filt_mod.LowerFit(filt_mod.fit_lower(filt, zeta), zeta, filt.m_max)
        filt = dataclasses.replace(filt, lower_fit=fit)
    return filt


def _cmd_filter(args) -> int:
    _require(args, "kind", "m_max", "out")
    filt = _make_filter(args)
    write_json(args.out, filt_mod.filter_to_json(filt))
    return 0


def _get_truth(args) -> CoefficientVector:
    if args.truth is not None:
        return _load_coeffs(args.truth)
    _require(args, "truth_m_max", "truth_sigma", "truth_seed")
    return random_poly(
        int(args.truth_m_max),
        _float(args.truth_sigma, "truth_sigma"),
        int(args.truth_seed),
        unit_norm=bool(args.truth_unit_norm),
    )


def _cmd_simulate(args) -> int:
    _require(args, "filter", "n", "beta", "out")
    beta = _float(args.beta, "beta")
    if beta > 0 and args.seed is None:
        raise CliError("--seed is required when beta > 0")
    filt = _load_filter(args.filter)
    truth = _get_truth(args)
    fam = _build_family(int(args.n), args.rule or "area_center", args.node_seed)
    ms = simulate(truth, filt, fam, beta=beta, seed=args.seed)
    write_measurements_csv(args.out, ms, sidecar_path=args.sidecar)
    if args.save_truth:
        write_json(args.save_truth, coeffs_to_json(truth))
    return 0


def _cmd_reconstruct(args) -> int:
    _require(args, "filter", "measurements", "m", "out")
    filt = _load_filter(args.filter)
    ms = read_measurements_csv(args.measurements, sidecar_path=args.sidecar)
    fam = MzFamily(nodes=ms.nodes, weights=ms.weights)
    m = int(args.m)
    report = lsq_solve(filt, fam, m, ms.y)
    write_json(args.out, solution_to_json(report, filtered_singular_values(filt, fam, m)))
    return 0


def _cmd_certify(args) -> int:
    _require(args, "filter", "n", "m", "omega", "beta", "out")
    m = int(args.m)
    beta, omega = _float(args.beta, "beta"), _float(args.omega, "omega")
    zeta = _float(args.zeta, "zeta") if args.zeta is not None else 0.0
    norm_f_sigma = None
    if args.norm_f_sigma is not None:
        norm_f_sigma = _float(args.norm_f_sigma, "norm_f_sigma")
    filt = _load_filter(args.filter)
    if args.gamma is not None:
        gamma = _float(args.gamma, "gamma")
    elif filt.decay_fit is not None:
        gamma = filt.decay_fit.gamma
    else:
        raise CliError("--gamma is required (filter carries no decay fit)")
    c = filt_mod.fit_decay(filt, gamma)
    c0 = filt_mod.fit_lower(filt, zeta)
    fam = _build_family(int(args.n), args.rule or "area_center", args.node_seed)
    const = cert_mod.mz_constants(fam, m)
    truth = _load_coeffs(args.truth) if args.truth else None
    if norm_f_sigma is not None:
        norm_kw = {"norm_f_sigma": norm_f_sigma}
    elif truth is not None:
        sigma = omega + gamma
        norm_kw = {"norm_f_sigma": sobolev_norm(apply_multiplier(filt, truth), sigma)}
    else:
        raise CliError("need --norm-f-sigma or --truth to size the certificate")
    certificate = cert_mod.bound_apriori(
        m=m,
        beta=beta,
        epsilon=const.epsilon,
        omega=omega,
        gamma=gamma,
        zeta=zeta,
        c=c,
        c0=c0,
        fit_m_max=filt.m_max,
        **norm_kw,
    )
    verification = None
    if truth is not None and args.solution is not None:
        with open(args.solution) as fh:
            sol = coeffs_from_json(json.load(fh))
        verification = cert_mod.verify_bound(truth, filt, sol, certificate)
    write_json(args.out, cert_mod.certificate_to_json(certificate, verification))
    return 0


def _cmd_verify_mz(args) -> int:
    _require(args, "n", "m")
    fam = _build_family(int(args.n), args.rule or "area_center", args.node_seed)
    const = cert_mod.mz_constants(fam, int(args.m))
    obj = {
        "N": int(args.n),
        "m": int(args.m),
        "A": const.A,
        "B": const.B,
        "epsilon": const.epsilon,
        "is_mz": const.epsilon < 1.0,
    }
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        atomic_write_text(args.out, text + "\n")
    else:
        print(text)
    return 0


def _certificate_inputs(filt, truth, omega: float, gamma: float, zeta: float) -> dict:
    """The ``bound_apriori`` arguments that are the same for every (m, beta) cell."""
    return {
        "omega": omega,
        "gamma": gamma,
        "zeta": zeta,
        "norm_f_sigma": sobolev_norm(apply_multiplier(filt, truth), omega + gamma),
        "c": filt_mod.fit_decay(filt, gamma),
        "c0": filt_mod.fit_lower(filt, zeta),
        "fit_m_max": filt.m_max,
    }


def _experiment_rows(filt, truth, cert_kw: dict, m: int, cells: list,
                     nodes_factor: int, rule: str, node_seed: Optional[int]) -> list:
    """Rows of the cells [(beta, noise_seed), ...] at degree m, all on one family.

    The family size starts at nodes_factor * (m+1)^2 and doubles until the
    measured epsilon is below 1 (the certificate needs a genuine MZ family).
    The family depends on m only, so it is searched once for all cells, the
    filtered truth is sampled on it once, and its sampling operator serves
    every cell's solve.  Each cell adds its own noise to those samples, as
    ``simulate`` would.  Each row records the (N, epsilon) history of the
    search.
    """
    n = max(50, nodes_factor * (m + 1) ** 2)
    partition, fam, const, search = cert_mod.find_family_size(
        m, eps_target=0.999, rule=rule, seed=node_seed, start_n=n
    )
    clean = sample_at(apply_multiplier(filt, truth), fam.nodes)
    rows = []
    for beta, noise_seed in cells:
        report = lsq_solve(filt, fam, m, add_noise(clean, beta, noise_seed))
        certificate = cert_mod.bound_apriori(m=m, beta=beta, epsilon=const.epsilon, **cert_kw)
        verification = cert_mod.verify_bound(truth, filt, report.solution, certificate)
        rows.append({
            "m": m,
            "N": partition.N,
            "beta": beta,
            "measured_L2": verification.measured_L2,
            "measured_Hzeta": verification.measured_Hzeta,
            "bound_Hzeta": certificate.bound_Hzeta,
            "bound_L2": certificate.bound_L2,
            "epsilon": const.epsilon,
            "residual": report.residual,
            "pass_Hzeta": verification.pass_Hzeta,
            "pass_L2": verification.pass_L2,
            "passed": verification.passed,
            "search": [[size, eps] for size, eps in search],
        })
    return rows


def run_experiment_row(
    filt: filt_mod.MultiplierFilter,
    truth: CoefficientVector,
    omega: float,
    gamma: float,
    zeta: float,
    m: int,
    beta: float,
    noise_seed: Optional[int],
    nodes_factor: int = 4,
    rule: str = "area_center",
    node_seed: Optional[int] = None,
) -> dict:
    """One (m, beta) cell: search the family, sample, reconstruct, certify, verify.

    The ``experiment`` command makes the same rows, with one family search
    per degree for all its betas.
    """
    cert_kw = _certificate_inputs(filt, truth, omega, gamma, zeta)
    return _experiment_rows(
        filt, truth, cert_kw, m, [(beta, noise_seed)], nodes_factor, rule, node_seed
    )[0]


_EXPERIMENT_COLUMNS = ["m", "N", "beta", "measured_L2", "measured_Hzeta",
                       "bound_Hzeta", "bound_L2"]


def _cmd_experiment(args) -> int:
    _require(args, "filter", "omega", "m_grid", "out")
    omega = _float(args.omega, "omega")
    filt = _load_filter(args.filter)
    if args.gamma is not None:
        gamma = _float(args.gamma, "gamma")
    elif filt.decay_fit is not None:
        gamma = filt.decay_fit.gamma
    else:
        raise CliError("--gamma is required (filter carries no decay fit)")
    zeta = _float(args.zeta, "zeta") if args.zeta is not None else 0.0
    if args.truth is None and args.truth_sigma is None:
        args.truth_sigma = omega + gamma
    truth = _get_truth(args)
    if isinstance(args.m_grid, str):
        m_grid = [int(v) for v in args.m_grid.split(",")]
    else:
        m_grid = [int(v) for v in args.m_grid]
    if args.betas is not None:
        values = args.betas.split(",") if isinstance(args.betas, str) else args.betas
        betas = [_float(v, "betas") for v in values]
    else:
        betas = [_float(args.beta, "beta") if args.beta is not None else 0.0]
    if any(b > 0 for b in betas) and args.seed is None:
        raise CliError("--seed is required when any beta > 0")
    cert_kw = _certificate_inputs(filt, truth, omega, gamma, zeta)
    nodes_factor = int(args.nodes_factor) if args.nodes_factor else 4
    # Degrees outer, so that one family lives at a time; rows stay beta-major.
    rows = [None] * (len(betas) * len(m_grid))
    for mi, m in enumerate(m_grid):
        beta_seeds = [(beta, None if beta == 0 else int(args.seed) + 1000 * bi + mi)
                      for bi, beta in enumerate(betas)]
        rows[mi::len(m_grid)] = _experiment_rows(
            filt, truth, cert_kw, m, beta_seeds, nodes_factor, args.rule or "area_center",
            args.node_seed,
        )
    lines = [",".join(_EXPERIMENT_COLUMNS)]
    for row in rows:
        cells = []
        for col in _EXPERIMENT_COLUMNS:
            v = row[col]
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(format_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    if args.out_json:
        write_json(args.out_json, rows)
    return 0


# ---------------------------------------------------------------- wiring


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with defaults for this command")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spheredecon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="equal-area partition JSON + node CSV")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--out-json")
    p.add_argument("--out-csv")
    p.set_defaults(func="_cmd_partition")

    p = sub.add_parser("nodes", help="sampling nodes CSV")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--rule", choices=["area_center", "random_in_region"])
    p.add_argument("--node-seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func="_cmd_nodes")

    p = sub.add_parser("filter", help="multiplier filter JSON")
    _add_common(p)
    p.add_argument("--kind", choices=["identity", "cap", "planck", "lunar"])
    p.add_argument("--m-max", type=int)
    p.add_argument("--theta0", type=float)
    p.add_argument("--lam0", type=float)
    p.add_argument("--radius", type=float)
    p.add_argument("--altitude", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--gamma", type=float, help="attach a decay fit with this exponent")
    p.add_argument("--zeta", type=float, help="attach a lower fit with this exponent")
    p.add_argument("--quadrature", action="store_true", default=None,
                   help="force the quadrature route for the cap")
    p.add_argument("--out")
    p.set_defaults(func="_cmd_filter")

    p = sub.add_parser("simulate", help="noisy measurements CSV (+ JSON sidecar)")
    _add_common(p)
    p.add_argument("--filter")
    p.add_argument("--truth", help="truth coefficients JSON")
    p.add_argument("--truth-m-max", type=int)
    p.add_argument("--truth-sigma", type=float)
    p.add_argument("--truth-seed", type=int)
    p.add_argument("--truth-unit-norm", action="store_true", default=None)
    p.add_argument("--n", type=int)
    p.add_argument("--rule", choices=["area_center", "random_in_region"])
    p.add_argument("--node-seed", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--sidecar")
    p.add_argument("--save-truth")
    p.set_defaults(func="_cmd_simulate")

    p = sub.add_parser("reconstruct", help="least-squares solution JSON")
    _add_common(p)
    p.add_argument("--filter")
    p.add_argument("--measurements")
    p.add_argument("--sidecar")
    p.add_argument("--m", type=int)
    p.add_argument("--out")
    p.set_defaults(func="_cmd_reconstruct")

    p = sub.add_parser("certify", help="a-priori error certificate JSON")
    _add_common(p)
    p.add_argument("--filter")
    p.add_argument("--n", type=int)
    p.add_argument("--rule", choices=["area_center", "random_in_region"])
    p.add_argument("--node-seed", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--omega", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--zeta", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--norm-f-sigma", type=float)
    p.add_argument("--truth")
    p.add_argument("--solution")
    p.add_argument("--out")
    p.set_defaults(func="_cmd_certify")

    p = sub.add_parser("verify-mz", help="measured frame constants (A, B, epsilon)")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--rule", choices=["area_center", "random_in_region"])
    p.add_argument("--node-seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func="_cmd_verify_mz")

    p = sub.add_parser("experiment", help="convergence sweep CSV")
    _add_common(p)
    p.add_argument("--filter")
    p.add_argument("--truth")
    p.add_argument("--truth-m-max", type=int)
    p.add_argument("--truth-sigma", type=float)
    p.add_argument("--truth-seed", type=int)
    p.add_argument("--truth-unit-norm", action="store_true", default=None)
    p.add_argument("--omega", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--zeta", type=float)
    p.add_argument("--m-grid", help="comma-separated degrees")
    p.add_argument("--beta", type=float)
    p.add_argument("--betas", help="comma-separated noise levels")
    p.add_argument("--seed", type=int)
    p.add_argument("--nodes-factor", type=int)
    p.add_argument("--rule", choices=["area_center", "random_in_region"])
    p.add_argument("--node-seed", type=int)
    p.add_argument("--out")
    p.add_argument("--out-json")
    p.set_defaults(func="_cmd_experiment")

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: a parser per call would leave its
    actions and formatters to the cyclic garbage collector."""
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        _merge_config(args)
        return globals()[args.func](args)  # by name, so a patched command is called
    except CliError as exc:
        json.dump({"error": str(exc), "type": "config"}, sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        json.dump(
            {"error": str(exc), "type": type(exc).__name__}, sys.stderr, sort_keys=True
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

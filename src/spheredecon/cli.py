"""Batch command-line front-end emitting plot-ready CSV/JSON artifacts.

Subcommands: partition, nodes, filter, simulate, reconstruct, certify,
verify-mz, experiment.  Every command is a pure function of its config and
input files: reruns produce byte-identical output, all randomness is seeded,
files are written atomically.  Failures exit nonzero with a machine-readable
JSON error object on stderr: exit 2 with type "config" for a bad flag or
config, or a filter or coefficient file that cannot be loaded; exit 1 with
the exception's type for any other failure, a malformed measurement file
included.

The parser declares each flag's type, default and whether it is required,
and it is the only way values reach a command.  ``--config FILE`` holds a
JSON object keyed by flag destination (``m_grid`` for ``--m-grid``).  It
becomes flag tokens that the command's parser reads in front of the command
line, so flags win: null leaves a flag unset, true or false sets or leaves
a switch, a list becomes a comma-separated value, and any other value is
parsed as the flag's text.
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

__all__ = ["main", "CliError"]


class CliError(Exception):
    """User-facing configuration or validation error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures into the JSON path
        raise CliError(message)


def _finite(text: str) -> float:
    """Type of a float flag: a finite number."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return x


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return n


def _comma_list(item):
    """Type of a comma-separated flag whose entries have the type ``item``."""
    def parse(text: str) -> list:
        try:
            return [item(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}") from None
    return parse


def _config_tokens(parser: argparse.ArgumentParser, path) -> list:
    """The JSON object in the config file ``path`` as flag tokens of ``parser``."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config {path} must hold a JSON object, not {type(cfg).__name__}")
    flags = {a.dest: a for a in parser._actions
             if a.option_strings and a.dest not in ("help", "config")}
    unknown = set(cfg) - set(flags)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    tokens = []
    for key, value in cfg.items():
        flag = flags[key].option_strings[0]
        if isinstance(value, bool) and flags[key].nargs == 0:  # a switch
            tokens += [flag] if value else []
        elif value is not None:
            items = value if isinstance(value, list) else [value]
            if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items):
                raise CliError(f"config key {key}: expected a number, a string or a list of them")
            tokens.append(f"{flag}={','.join(map(str, items))}")
    return tokens


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise CliError(f"missing required parameter --{name.replace('_', '-')}")


def _build_family(args) -> MzFamily:
    return pick_nodes(build_partition(args.n), rule=args.rule, seed=args.node_seed)


def _load(path, what: str, from_json):
    """``from_json`` of the JSON file ``path``; a CliError naming the file."""
    try:
        with open(path) as fh:
            return from_json(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot load {what} {path}: {exc}") from exc


def _load_filter(path) -> filt_mod.MultiplierFilter:
    return _load(path, "filter", filt_mod.filter_from_json)


def _load_coeffs(path) -> CoefficientVector:
    return _load(path, "coefficients", coeffs_from_json)


def _gamma(args, filt: filt_mod.MultiplierFilter) -> float:
    """--gamma, else the exponent of the filter's decay fit."""
    if args.gamma is not None:
        return args.gamma
    if filt.decay_fit is None:
        raise CliError("--gamma is required (filter carries no decay fit)")
    return filt.decay_fit.gamma


# ---------------------------------------------------------------- commands


def _cmd_partition(args) -> int:
    partition = build_partition(args.n)
    write_partition_json(args.out_json, partition)
    if args.out_csv:
        write_nodes_csv(args.out_csv, pick_nodes(partition))
    return 0


def _cmd_nodes(args) -> int:
    write_nodes_csv(args.out, _build_family(args))
    return 0


def _make_filter(args) -> filt_mod.MultiplierFilter:
    if args.kind == "identity":
        filt = filt_mod.identity_multipliers(args.m_max)
    elif args.kind == "cap":
        _require(args, "theta0")
        if args.quadrature:
            filt = filt_mod.multipliers_from_profile(
                filt_mod.CapProfile(args.theta0), m_max=args.m_max, tol=args.tol
            )
        else:
            filt = filt_mod.cap_multipliers(args.theta0, args.m_max)
    elif args.kind == "planck":
        _require(args, "lam0", "radius")
        filt = filt_mod.multipliers_from_profile(
            filt_mod.PlanckProfile(args.lam0, args.radius), m_max=args.m_max, tol=args.tol
        )
    else:  # lunar
        _require(args, "radius", "altitude")
        filt = filt_mod.multipliers_from_profile(
            filt_mod.LunarProfile(args.radius, args.altitude), m_max=args.m_max, tol=args.tol
        )
    # replace() re-runs the filter's validation on the attached fits
    if args.gamma is not None:
        fit = filt_mod.DecayFit(filt_mod.fit_decay(filt, args.gamma), args.gamma, filt.m_max)
        filt = dataclasses.replace(filt, decay_fit=fit)
    if args.zeta is not None:
        fit = filt_mod.LowerFit(filt_mod.fit_lower(filt, args.zeta), args.zeta, filt.m_max)
        filt = dataclasses.replace(filt, lower_fit=fit)
    return filt


def _cmd_filter(args) -> int:
    write_json(args.out, filt_mod.filter_to_json(_make_filter(args)))
    return 0


def _get_truth(args, default_sigma: Optional[float] = None) -> CoefficientVector:
    """--truth, else a random polynomial from the truth flags."""
    if args.truth is not None:
        return _load_coeffs(args.truth)
    if default_sigma is None:
        _require(args, "truth_sigma")
    _require(args, "truth_m_max", "truth_seed")
    sigma = default_sigma if args.truth_sigma is None else args.truth_sigma
    return random_poly(args.truth_m_max, sigma, args.truth_seed, unit_norm=args.truth_unit_norm)


def _cmd_simulate(args) -> int:
    if args.beta > 0 and args.seed is None:
        raise CliError("--seed is required when beta > 0")
    filt = _load_filter(args.filter)
    truth = _get_truth(args)
    ms = simulate(truth, filt, _build_family(args), beta=args.beta, seed=args.seed)
    write_measurements_csv(args.out, ms, sidecar_path=args.sidecar)
    if args.save_truth:
        write_json(args.save_truth, coeffs_to_json(truth))
    return 0


def _cmd_reconstruct(args) -> int:
    filt = _load_filter(args.filter)
    ms = read_measurements_csv(args.measurements, sidecar_path=args.sidecar)
    fam = MzFamily(nodes=ms.nodes, weights=ms.weights)
    report = lsq_solve(filt, fam, args.m, ms.y)
    write_json(args.out, solution_to_json(report, filtered_singular_values(filt, fam, args.m)))
    return 0


def _cmd_certify(args) -> int:
    filt = _load_filter(args.filter)
    gamma = _gamma(args, filt)
    truth = _load_coeffs(args.truth) if args.truth else None
    solution = _load_coeffs(args.solution) if args.solution else None
    if args.norm_f_sigma is None and truth is None:
        raise CliError("need --norm-f-sigma or --truth to size the certificate")
    cert_kw = _certificate_inputs(filt, truth, args.omega, gamma, args.zeta, args.norm_f_sigma)
    const = cert_mod.mz_constants(_build_family(args), args.m)
    certificate = cert_mod.bound_apriori(m=args.m, beta=args.beta, epsilon=const.epsilon, **cert_kw)
    verification = None
    if truth is not None and solution is not None:
        verification = cert_mod.verify_bound(truth, filt, solution, certificate)
    write_json(args.out, cert_mod.certificate_to_json(certificate, verification))
    return 0


def _cmd_verify_mz(args) -> int:
    const = cert_mod.mz_constants(_build_family(args), args.m)
    obj = {
        "N": args.n,
        "m": args.m,
        "A": const.A,
        "B": const.B,
        "epsilon": const.epsilon,
        "is_mz": const.epsilon < 1.0,
    }
    if args.out:
        write_json(args.out, obj)
    else:
        print(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False))
    return 0


def _certificate_inputs(filt, truth, omega: float, gamma: float, zeta: float,
                        norm_f_sigma: Optional[float] = None) -> dict:
    """The ``bound_apriori`` arguments that are the same for every (m, beta) cell.

    ``norm_f_sigma`` defaults to the Sobolev norm of the filtered truth.
    """
    if norm_f_sigma is None:
        norm_f_sigma = sobolev_norm(apply_multiplier(filt, truth), omega + gamma)
    return {
        "omega": omega,
        "gamma": gamma,
        "zeta": zeta,
        "norm_f_sigma": norm_f_sigma,
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
            **dataclasses.asdict(verification),
            "passed": verification.passed,
            "epsilon": const.epsilon,
            "residual": report.residual,
            "search": [[size, eps] for size, eps in search],
        })
    return rows


_EXPERIMENT_COLUMNS = ["m", "N", "beta", "measured_L2", "measured_Hzeta",
                       "bound_Hzeta", "bound_L2"]


def _csv_cell(v) -> str:
    if v is None:
        return ""
    return format_float(v) if isinstance(v, float) else str(v)


def _cmd_experiment(args) -> int:
    filt = _load_filter(args.filter)
    gamma = _gamma(args, filt)
    truth = _get_truth(args, default_sigma=args.omega + gamma)
    betas = args.betas if args.betas is not None else [args.beta]
    if any(b > 0 for b in betas) and args.seed is None:
        raise CliError("--seed is required when any beta > 0")
    cert_kw = _certificate_inputs(filt, truth, args.omega, gamma, args.zeta)
    m_grid = args.m_grid
    # Degrees outer, so that one family lives at a time; rows stay beta-major.
    rows = [None] * (len(betas) * len(m_grid))
    for mi, m in enumerate(m_grid):
        beta_seeds = [(beta, None if beta == 0 else args.seed + 1000 * bi + mi)
                      for bi, beta in enumerate(betas)]
        rows[mi::len(m_grid)] = _experiment_rows(
            filt, truth, cert_kw, m, beta_seeds, args.nodes_factor, args.rule, args.node_seed
        )
    lines = [",".join(_EXPERIMENT_COLUMNS)]
    lines += [",".join(_csv_cell(row[col]) for col in _EXPERIMENT_COLUMNS) for row in rows]
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    if args.out_json:
        write_json(args.out_json, rows)
    return 0


# ---------------------------------------------------------------- wiring


@functools.lru_cache(maxsize=None)
def _parsers() -> tuple:
    """(parser, the --config pre-parser, the command parsers by name).

    Built once per process: a parser per call would leave its actions and
    formatters to the cyclic garbage collector.
    """
    parser = _Parser(prog="spheredecon", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def flags(*parents):  # a group of flags shared by commands
        return _Parser(add_help=False, parents=list(parents))

    config = flags()
    config.add_argument("--config", help="JSON object of flag values; flags win")
    rule = flags()
    rule.add_argument("--rule", choices=["area_center", "random_in_region"],
                      default="area_center")
    rule.add_argument("--node-seed", type=int)
    family = flags(rule)
    family.add_argument("--n", type=int, required=True)
    truth = flags()
    truth.add_argument("--truth", help="truth coefficients JSON")
    truth.add_argument("--truth-m-max", type=int)
    truth.add_argument("--truth-sigma", type=_finite)
    truth.add_argument("--truth-seed", type=int)
    truth.add_argument("--truth-unit-norm", action="store_true")
    exponents = flags()
    exponents.add_argument("--omega", type=_finite, required=True)
    exponents.add_argument("--gamma", type=_finite, help="default: the filter's decay fit")
    exponents.add_argument("--zeta", type=_finite, default=0.0)

    def command(name: str, help: str, *parents) -> argparse.ArgumentParser:
        p = commands.add_parser(name, help=help, parents=[config, *parents])
        p.set_defaults(func="_cmd_" + name.replace("-", "_"))
        return p

    p = command("partition", "equal-area partition JSON + node CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out-json", required=True)
    p.add_argument("--out-csv")

    p = command("nodes", "sampling nodes CSV", family)
    p.add_argument("--out", required=True)

    p = command("filter", "multiplier filter JSON")
    p.add_argument("--kind", choices=["identity", "cap", "planck", "lunar"], required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--theta0", type=_finite)
    p.add_argument("--lam0", type=_finite)
    p.add_argument("--radius", type=_finite)
    p.add_argument("--altitude", type=_finite)
    p.add_argument("--tol", type=_finite, default=1e-10)
    p.add_argument("--gamma", type=_finite, help="attach a decay fit with this exponent")
    p.add_argument("--zeta", type=_finite, help="attach a lower fit with this exponent")
    p.add_argument("--quadrature", action="store_true",
                   help="force the quadrature route for the cap")
    p.add_argument("--out", required=True)

    p = command("simulate", "noisy measurements CSV (+ JSON sidecar)", family, truth)
    p.add_argument("--filter", required=True)
    p.add_argument("--beta", type=_finite, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--sidecar")
    p.add_argument("--save-truth")

    p = command("reconstruct", "least-squares solution JSON")
    p.add_argument("--filter", required=True)
    p.add_argument("--measurements", required=True)
    p.add_argument("--sidecar")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True)

    p = command("certify", "a-priori error certificate JSON", family, exponents)
    p.add_argument("--filter", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--beta", type=_finite, required=True)
    p.add_argument("--norm-f-sigma", type=_finite)
    p.add_argument("--truth")
    p.add_argument("--solution")
    p.add_argument("--out", required=True)

    p = command("verify-mz", "measured frame constants (A, B, epsilon)", family)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")

    p = command("experiment", "convergence sweep CSV", rule, truth, exponents)
    p.add_argument("--filter", required=True)
    p.add_argument("--m-grid", type=_comma_list(int), required=True,
                   help="comma-separated degrees")
    noise = p.add_mutually_exclusive_group()
    noise.add_argument("--beta", type=_finite, default=0.0)
    noise.add_argument("--betas", type=_comma_list(_finite), help="comma-separated noise levels")
    p.add_argument("--seed", type=int)
    p.add_argument("--nodes-factor", type=_positive_int, default=4)
    p.add_argument("--out", required=True)
    p.add_argument("--out-json")

    return parser, config, commands.choices


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser, config, commands = _parsers()
        path = config.parse_known_args(argv)[0].config
        if path is not None and argv[0] in commands:  # config flags go first, so flags win
            argv = argv[:1] + _config_tokens(commands[argv[0]], path) + argv[1:]
        args = parser.parse_args(argv)
        # checked before any command does work
        if getattr(args, "rule", None) == "random_in_region" and args.node_seed is None:
            raise CliError("--node-seed is required with rule random_in_region")
        return globals()[args.func](args)  # by name, so a patched command is called
    except CliError as exc:
        json.dump({"error": str(exc), "type": "config"}, sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 2
    except (ValueError, RuntimeError, OSError, ArithmeticError, MemoryError) as exc:
        json.dump(
            {"error": str(exc), "type": type(exc).__name__}, sys.stderr, sort_keys=True
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

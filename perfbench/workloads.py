"""The benchmark's workloads: inputs made from a seed, one pass through the
program's public functions or CLI, and the correctness gates on its outputs.

Each pass has two halves: ``run_pass`` makes the program calls and is timed;
``outputs`` parses and checks what the pass produced and is not timed.
The program is reached only through attribute lookups on the ``spheredecon``
package and its ``cli`` module, so that the traced run sees every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

# An epsilon below the dense-SVD reference by more than this is a failure:
# no fast path may underestimate epsilon.
EPS_ROUNDING = 1e-10
# Relative l2 tolerance on values compared with a stored per-seed reference.
VALUE_RTOL = 1e-8
# Lunar multipliers come from quadrature to this absolute tolerance.
MULTIPLIER_ATOL = 1e-10

# The sampling families are fixed, so that epsilon, the family search and
# the work it causes are the same for every seed; the seed drives the truth
# and the noise.  With random nodes drawn per seed, epsilon_max spread by
# 28% and the sweep's pass time by 8.5% (IQR/median over 12 node seeds).
NODE_SEED = 20250810


def derived_seeds(seed: int, salt: int) -> tuple[int, int]:
    """Truth and noise seeds of one workload seed."""
    truth, noise = np.random.SeedSequence([seed, salt]).generate_state(2)
    return int(truth) % 2**31, int(noise) % 2**31


class Ledger:
    """Attempted and failed operations; every failure keeps its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, op: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{op}: {why}")

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass(frozen=True)
class Cell:
    """One certified (family, degree) pair with the epsilon the program reported."""

    m: int
    n: int
    rule: str
    node_seed: Optional[int]
    epsilon: float


@dataclass
class Outputs:
    """What one pass produced, in the form the gates compare."""

    digest: str
    cells: list
    values: dict
    multipliers: Optional[np.ndarray] = None
    checks: list = field(default_factory=list)  # (op, ok, why)


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _cli(argv: list) -> tuple:
    from spheredecon import cli

    rc = cli.main([str(a) for a in argv])
    return (f"cli {argv[0]}", rc == 0, f"exit code {rc}")


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _epsilon(sigma_min: float, sigma_max: float) -> float:
    return max(1.0 - sigma_min**2, sigma_max**2 - 1.0)


@dataclass(frozen=True)
class CellDense:
    """One certified cell through the library API, as in the README quick start."""

    name = "cell_dense"
    salt = 1
    m: int = 32
    n: int = 4 * 33**2
    theta0: float = 2 * math.pi / 41
    filter_m_max: int = 60
    truth_m_max: int = 60
    truth_sigma: float = 3.5
    beta: float = 0.01
    omega: float = 2.0
    gamma: float = 1.5
    zeta: float = 1.5

    def prepare(self, seed: int, workdir: Path) -> dict:
        truth_seed, noise_seed = derived_seeds(seed, self.salt)
        return {"truth_seed": truth_seed, "noise_seed": noise_seed}

    def run_pass(self, inputs: dict, passdir: Path) -> dict:
        import spheredecon as sd

        filt = sd.cap_multipliers(self.theta0, self.filter_m_max)
        c, c0 = sd.fit_decay(filt, self.gamma), sd.fit_lower(filt, self.zeta)
        fam = sd.pick_nodes(sd.build_partition(self.n))
        const = sd.mz_constants(fam, self.m)
        truth = sd.random_poly(self.truth_m_max, self.truth_sigma, seed=inputs["truth_seed"])
        meas = sd.simulate(truth, filt, fam, beta=self.beta, seed=inputs["noise_seed"])
        report = sd.lsq_solve(filt, fam, self.m, meas.y)
        cert = sd.bound_apriori(
            m=self.m, beta=self.beta, epsilon=const.epsilon, omega=self.omega,
            gamma=self.gamma, zeta=self.zeta,
            norm_f_sigma=sd.sobolev_norm(sd.apply_multiplier(filt, truth), self.omega + self.gamma),
            c=c, c0=c0, fit_m_max=filt.m_max,
        )
        ver = sd.verify_bound(truth, filt, report.solution, cert)
        return {"const": const, "meas": meas, "report": report, "cert": cert, "ver": ver}

    def outputs(self, raw: dict, passdir: Path) -> Outputs:
        const, meas, report, cert, ver = (raw[k] for k in ("const", "meas", "report", "cert", "ver"))
        coeffs = report.solution.coeffs
        measured = np.array([ver.measured_L2, ver.measured_Hzeta])
        bounds = [cert.bound_Hzeta] + ([cert.bound_L2] if cert.bound_L2 is not None else [])
        h = hashlib.sha256()
        for arr in (np.array([const.A, const.B]), meas.y, coeffs, measured, np.array(bounds)):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        return Outputs(
            digest=h.hexdigest(),
            cells=[Cell(self.m, len(meas.y), "area_center", None, const.epsilon)],
            values={"coeffs": coeffs, "measured": measured},
            checks=[
                ("mz_constants", _finite(const.A, const.B, const.epsilon), "non-finite A, B or epsilon"),
                ("simulate", _finite(meas.y), "non-finite measurement"),
                ("lsq_solve", _finite(coeffs, report.residual), "non-finite solution"),
                ("bound_apriori", _finite(bounds), "non-finite bound"),
                ("verify_bound", bool(ver.passed), f"measured error above the certificate: {ver}"),
            ],
        )


@dataclass(frozen=True)
class OversampledIO:
    """CLI file round trip: simulate many samples to CSV, reconstruct at low degree.

    The filter is the identity, so the solution's extreme singular values are
    those of the weighted sampling matrix and give this family's epsilon.
    """

    name = "oversampled_io"
    salt = 2
    n: int = 4 * 65**2
    m: int = 16
    truth_m_max: int = 24
    truth_sigma: float = 3.5
    beta: float = 0.01

    def prepare(self, seed: int, workdir: Path) -> dict:
        truth_seed, noise_seed = derived_seeds(seed, self.salt)
        filt = workdir / "identity_filter.json"
        op, ok, why = _cli(["filter", "--kind", "identity", "--m-max", self.truth_m_max, "--out", filt])
        if not ok:
            raise RuntimeError(f"{op}: {why}")
        return {"truth_seed": truth_seed, "noise_seed": noise_seed, "filter": filt}

    def run_pass(self, inputs: dict, passdir: Path) -> dict:
        meas, side, sol = passdir / "meas.csv", passdir / "meas.json", passdir / "solution.json"
        return {"checks": [
            _cli(["simulate", "--filter", inputs["filter"], "--truth-m-max", self.truth_m_max,
                  "--truth-sigma", self.truth_sigma, "--truth-seed", inputs["truth_seed"],
                  "--n", self.n, "--rule", "area_center", "--beta", self.beta,
                  "--seed", inputs["noise_seed"], "--out", meas, "--sidecar", side]),
            _cli(["reconstruct", "--filter", inputs["filter"], "--measurements", meas,
                  "--sidecar", side, "--m", self.m, "--out", sol]),
        ]}

    def outputs(self, raw: dict, passdir: Path) -> Outputs:
        checks = list(raw["checks"])
        if not all(ok for _, ok, _ in checks):
            return Outputs(_dir_digest(passdir), [], {}, checks=checks)
        y = np.loadtxt(passdir / "meas.csv", delimiter=",", skiprows=1, usecols=3)
        sol = json.loads((passdir / "solution.json").read_text())
        coeffs = np.asarray(sol["coeffs"], dtype=float)
        smin, smax = sol["report"]["sigma_min"], sol["report"]["sigma_max"]
        checks += [
            ("simulate", y.size == self.n and _finite(y), "missing or non-finite measurements"),
            ("reconstruct", _finite(coeffs, smin, smax, sol["report"]["residual"]), "non-finite solution"),
        ]
        return Outputs(
            digest=_dir_digest(passdir),
            cells=[Cell(self.m, y.size, "area_center", None, _epsilon(smin, smax))],
            values={"coeffs": coeffs},
            checks=checks,
        )


@dataclass(frozen=True)
class SweepScattered:
    """CLI lunar filter by quadrature, then a 30-cell experiment on random nodes."""

    name = "sweep_scattered"
    salt = 3
    radius: float = 1737.1
    altitude: float = 30.0
    filter_m_max: int = 200
    gamma: float = 1.5
    omega: float = 2.0
    truth_m_max: int = 24
    m_grid: tuple = tuple(range(2, 21, 2))
    betas: tuple = (0.001, 0.01, 0.1)
    nodes_factor: int = 2

    def prepare(self, seed: int, workdir: Path) -> dict:
        truth_seed, noise_seed = derived_seeds(seed, self.salt)
        return {"truth_seed": truth_seed, "noise_seed": noise_seed}

    def run_pass(self, inputs: dict, passdir: Path) -> dict:
        filt = passdir / "lunar_filter.json"
        return {"checks": [
            _cli(["filter", "--kind", "lunar", "--radius", self.radius, "--altitude", self.altitude,
                  "--m-max", self.filter_m_max, "--gamma", self.gamma, "--out", filt]),
            _cli(["experiment", "--filter", filt, "--omega", self.omega,
                  "--truth-m-max", self.truth_m_max, "--truth-seed", inputs["truth_seed"],
                  "--m-grid", ",".join(map(str, self.m_grid)),
                  "--betas", ",".join(map(str, self.betas)), "--seed", inputs["noise_seed"],
                  "--nodes-factor", self.nodes_factor, "--rule", "random_in_region",
                  "--node-seed", NODE_SEED, "--out", passdir / "experiment.csv",
                  "--out-json", passdir / "experiment.json"]),
        ]}

    def outputs(self, raw: dict, passdir: Path) -> Outputs:
        checks = list(raw["checks"])
        if not all(ok for _, ok, _ in checks):
            return Outputs(_dir_digest(passdir), [], {}, checks=checks)
        b = np.asarray(json.loads((passdir / "lunar_filter.json").read_text())["b"], dtype=float)
        rows = json.loads((passdir / "experiment.json").read_text())
        checks.append(("filter", b.size == self.filter_m_max + 1 and _finite(b), "bad multipliers"))
        checks.append(("experiment", len(rows) == len(self.m_grid) * len(self.betas), "missing cells"))
        keys = ("measured_L2", "measured_Hzeta", "bound_Hzeta")
        for r in rows:
            op = f"cell m={r['m']} beta={r['beta']}"
            checks.append((op, _finite([r[k] for k in keys + ("epsilon", "residual")]), "non-finite value"))
            checks.append((op, r["passed"] is True, "measured error above the certificate"))
        return Outputs(
            digest=_dir_digest(passdir),
            cells=[Cell(r["m"], r["N"], "random_in_region", NODE_SEED, r["epsilon"]) for r in rows],
            values={"rows": np.array([[r[k] for k in keys] for r in rows], dtype=float)},
            multipliers=b,
            checks=checks,
        )


WORKLOADS = {w.name: w for w in (CellDense(), OversampledIO(), SweepScattered())}


def params(workload) -> dict:
    """The workload's parameters as JSON values."""
    return json.loads(json.dumps(dataclasses.asdict(workload)))


def with_params(name: str, values: dict):
    """The named workload with the parameters ``params`` gave."""
    return dataclasses.replace(
        WORKLOADS[name], **{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


# ------------------------------------------------------------ gates


def check_pass(out: Outputs, ledger: Ledger) -> None:
    for op, ok, why in out.checks:
        ledger.check(op, ok, why)


def check_rerun(first: Outputs, out: Outputs, ledger: Ledger) -> None:
    """Reruns of one input must give byte-identical artifacts."""
    ledger.check("rerun", out.digest == first.digest, "artifacts differ from the first pass")


def _rel_diff(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def check_reference(workload, out: Outputs, ref: dict, seed: int, ledger: Ledger) -> None:
    """Compare one pass against the references stored for this workload."""
    ledger.check("reference.params", ref["params"] == params(workload),
                 "reference was made for other workload parameters")
    got = [(c.m, c.n) for c in out.cells]
    want = [(c["m"], c["N"]) for c in ref["cells"]]
    ledger.check("reference.families", got == want, f"families {got} differ from reference {want}")
    for c, r in zip(out.cells, ref["cells"]):
        ledger.check(f"epsilon m={c.m} N={c.n}", c.epsilon >= r["epsilon"] - EPS_ROUNDING,
                     f"{c.epsilon!r} below the dense-SVD reference {r['epsilon']!r}")
    if "multipliers" in ref:
        b = np.asarray(ref["multipliers"], dtype=float)
        diff = (np.max(np.abs(out.multipliers - b)) if out.multipliers is not None
                and out.multipliers.shape == b.shape else math.inf)
        ledger.check("multipliers", diff <= MULTIPLIER_ATOL, f"max deviation {diff:.3g}")
    want_values = ref["seeds"].get(str(seed))
    if want_values is not None:
        for key, want in want_values.items():
            diff = _rel_diff(out.values.get(key, []), want)
            ledger.check(f"reference.{key}", diff <= VALUE_RTOL, f"relative deviation {diff:.3g}")


def reference_path(workload) -> Path:
    return Path(__file__).resolve().parent / "refs" / f"{workload.name}.json"


def load_reference(workload) -> dict:
    with open(reference_path(workload)) as fh:
        return json.load(fh)

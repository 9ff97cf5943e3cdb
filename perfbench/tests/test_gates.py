import numpy as np

from workloads import (
    EPS_ROUNDING,
    Cell,
    CellDense,
    Ledger,
    Outputs,
    check_pass,
    check_reference,
    check_rerun,
    params,
)


def _ref(workload):
    return {
        "params": params(workload),
        "cells": [{"m": 3, "N": 100, "epsilon": 0.5}],
        "multipliers": [1.0, 0.5],
        "seeds": {"7": {"coeffs": [1.0, 2.0, 3.0]}},
    }


def _out(epsilon=0.5, coeffs=(1.0, 2.0, 3.0), multipliers=(1.0, 0.5), digest="d"):
    return Outputs(
        digest=digest,
        cells=[Cell(3, 100, "area_center", None, epsilon)],
        values={"coeffs": np.array(coeffs)},
        multipliers=np.array(multipliers),
    )


def _failures(out, seed=7):
    ledger = Ledger()
    check_reference(CellDense(), out, _ref(CellDense()), seed, ledger)
    return ledger


def test_matching_outputs_pass():
    ledger = _failures(_out())
    assert ledger.failed == 0 and ledger.attempted == 5


def test_epsilon_below_reference_fails():
    assert _failures(_out(epsilon=0.5 - 10 * EPS_ROUNDING)).failed == 1
    assert _failures(_out(epsilon=0.5 - 0.1 * EPS_ROUNDING)).failed == 0
    # overestimating loosens the certificate; epsilon_max reports it
    assert _failures(_out(epsilon=0.6)).failed == 0


def test_perturbed_coefficient_fails():
    assert _failures(_out(coeffs=(1.0, 2.0, 3.001))).failed == 1


def test_per_seed_values_checked_only_for_stored_seeds():
    assert _failures(_out(coeffs=(9.0, 9.0, 9.0)), seed=8).failed == 0


def test_multipliers_outside_quadrature_tolerance_fail():
    assert _failures(_out(multipliers=(1.0, 0.5 + 1e-9))).failed == 1


def test_other_family_fails():
    out = _out()
    out.cells = [Cell(3, 200, "area_center", None, 0.5)]
    assert _failures(out).failed == 1


def test_pass_checks_and_rerun():
    ledger = Ledger()
    out = _out()
    out.checks = [("simulate", True, ""), ("verify_bound", False, "above the certificate")]
    check_pass(out, ledger)
    check_rerun(out, _out(digest="other"), ledger)
    assert ledger.attempted == 3
    assert ledger.failures == ["verify_bound: above the certificate",
                               "rerun: artifacts differ from the first pass"]

"""Command-line front-end: artifacts, determinism, error reporting."""

import argparse
import gc
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spheredecon import certify, cli
from spheredecon.artifacts import atomic_write_text, write_json
from spheredecon.cli import _certificate_inputs, _experiment_rows, main
from spheredecon.filters import filter_from_json
from spheredecon.harmonics import coeffs_to_json, random_poly

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "demos" / "configs"
THETA_41 = 2 * math.pi / 41


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPartitionCommand:
    def test_writes_expected_json(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        csv = tmp_path / "n.csv"
        code, _, err = run(["partition", "--n", 100, "--out-json", out, "--out-csv", csv], capsys)
        assert code == 0 and err == ""
        obj = json.loads(out.read_text())
        assert obj["s"] == 7
        assert obj["theta0"] == pytest.approx(1.0471975511965979, abs=1e-12)
        assert csv.read_text().splitlines()[0] == "theta,phi,weight"

    def test_small_n_fails_with_json_error(self, tmp_path, capsys):
        code, _, err = run(["partition", "--n", 49, "--out-json", tmp_path / "x.json"], capsys)
        assert code != 0
        payload = json.loads(err)
        assert "N >= 50" in payload["error"]

    def test_reruns_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["partition", "--n", 500, "--out-json", a], capsys)
        run(["partition", "--n", 500, "--out-json", b], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestFilterCommand:
    def test_cap_filter_with_fits(self, tmp_path, capsys):
        import numpy as np

        out = tmp_path / "f.json"
        code, _, _ = run(
            ["filter", "--kind", "cap", "--theta0", THETA_41, "--m-max", 1400,
             "--gamma", 1.5, "--zeta", 1.5, "--out", out],
            capsys,
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["m_max"] == 1400
        assert obj["provenance"] == "closed_form_cap"
        assert obj["decay_fit"]["gamma"] == 1.5
        assert obj["lower_fit"]["c0"] > 0
        # the emitted sequence spans the documented scaled range
        b = np.asarray(obj["b"])
        m = np.arange(1, 1401, dtype=float)
        scaled = (1 + m * (m + 1)) ** 0.75 * np.abs(b[1:])
        assert scaled.min() >= 0.4e-3
        assert scaled.max() <= (3**0.75 / 2) * math.sqrt(math.sin(THETA_41))

    def test_identity_filter(self, tmp_path, capsys):
        out = tmp_path / "id.json"
        code, _, _ = run(["filter", "--kind", "identity", "--m-max", 5, "--out", out], capsys)
        assert code == 0
        assert json.loads(out.read_text())["b"] == [1.0] * 6

    def test_missing_parameter_reported(self, tmp_path, capsys):
        code, _, err = run(["filter", "--kind", "cap", "--m-max", 5, "--out", tmp_path / "x"], capsys)
        assert code == 2
        assert "theta0" in json.loads(err)["error"]


class TestVerifyMzCommand:
    def test_epsilon_below_one_at_4x(self, tmp_path, capsys):
        out = tmp_path / "mz.json"
        code, _, _ = run(["verify-mz", "--n", 4 * 49, "--m", 6, "--out", out], capsys)
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["epsilon"] < 1.0
        assert obj["is_mz"] is True
        assert obj["A"] <= 1.0 <= obj["B"]

    def test_stdout_mode(self, capsys):
        code, out, _ = run(["verify-mz", "--n", 256, "--m", 3], capsys)
        assert code == 0
        assert json.loads(out)["m"] == 3


class TestSeedRequirements:
    def test_simulate_needs_seed_for_noise(self, tmp_path, capsys):
        filt = tmp_path / "f.json"
        run(["filter", "--kind", "identity", "--m-max", 4, "--out", filt], capsys)
        code, _, err = run(
            ["simulate", "--filter", filt, "--truth-m-max", 4, "--truth-sigma", 1.0,
             "--truth-seed", 3, "--n", 100, "--beta", 0.1, "--out", tmp_path / "m.csv"],
            capsys,
        )
        assert code == 2
        assert "--seed" in json.loads(err)["error"]

    def test_random_nodes_need_seed(self, tmp_path, capsys):
        code, _, err = run(
            ["nodes", "--n", 100, "--rule", "random_in_region", "--out", tmp_path / "n.csv"],
            capsys,
        )
        assert code == 2
        assert "node-seed" in json.loads(err)["error"]

    def test_random_nodes_with_seed(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        code, _, _ = run(
            ["nodes", "--n", 100, "--rule", "random_in_region", "--node-seed", 4,
             "--out", out],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "theta,phi,weight" and len(lines) == 101

    def test_experiment_random_nodes_need_seed_before_any_work(self, tmp_path, capsys):
        # the filter file does not exist: the seed check comes before its load
        out = tmp_path / "curve.csv"
        code, _, err = run(
            ["experiment", "--filter", tmp_path / "missing.json", "--m-grid", "2",
             "--omega", 2.0, "--gamma", 0.0, "--truth-m-max", 2, "--truth-seed", 1,
             "--rule", "random_in_region", "--out", out],
            capsys,
        )
        assert code == 2
        error = json.loads(err)
        assert error["type"] == "config" and "--node-seed" in error["error"]
        assert not out.exists()


class TestConfigHandling:
    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 100, "bogus": 1}))
        code, _, err = run(
            ["partition", "--config", cfg, "--out-json", tmp_path / "p.json"], capsys
        )
        assert code == 2
        assert "bogus" in json.loads(err)["error"]

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 100}))
        out = tmp_path / "p.json"
        code, _, _ = run(["partition", "--config", cfg, "--n", 64, "--out-json", out], capsys)
        assert code == 0
        assert json.loads(out.read_text())["N"] == 64


SUBCOMMAND_FLAGS = {
    "partition": ["n", "out_json", "out_csv"],
    "nodes": ["n", "rule", "node_seed", "out"],
    "filter": ["kind", "m_max", "theta0", "lam0", "radius", "altitude", "tol",
               "gamma", "zeta", "quadrature", "out"],
    "simulate": ["filter", "truth", "truth_m_max", "truth_sigma", "truth_seed",
                 "truth_unit_norm", "n", "rule", "node_seed", "beta", "seed",
                 "out", "sidecar", "save_truth"],
    "reconstruct": ["filter", "measurements", "sidecar", "m", "out"],
    "certify": ["filter", "n", "rule", "node_seed", "m", "omega", "gamma", "zeta",
                "beta", "norm_f_sigma", "truth", "solution", "out"],
    "verify-mz": ["n", "m", "rule", "node_seed", "out"],
    "experiment": ["filter", "truth", "truth_m_max", "truth_sigma", "truth_seed",
                   "truth_unit_norm", "omega", "gamma", "zeta", "m_grid", "beta",
                   "betas", "seed", "nodes_factor", "rule", "node_seed", "out",
                   "out_json"],
}

REQUIRED_FLAGS = {
    "partition": ["n", "out_json"],
    "nodes": ["n", "out"],
    "filter": ["kind", "m_max", "out"],
    "simulate": ["filter", "n", "beta", "out"],
    "reconstruct": ["filter", "measurements", "m", "out"],
    "certify": ["filter", "n", "m", "omega", "beta", "out"],
    "verify-mz": ["n", "m"],
    "experiment": ["filter", "omega", "m_grid", "out"],
}


# A well-typed value of every config key, as the parser returns it.
TYPED_VALUES = {
    "n": 400, "out_json": "p.json", "out_csv": "p.csv", "rule": "random_in_region",
    "node_seed": 3, "out": "out.file", "kind": "lunar", "m_max": 12, "theta0": 0.3,
    "lam0": 3.0, "radius": 1737.1, "altitude": 30.0, "tol": 1e-9, "gamma": 1.5,
    "zeta": -0.25, "quadrature": True, "filter": "f.json", "truth": "t.json",
    "truth_m_max": 8, "truth_sigma": 2.0, "truth_seed": 5, "truth_unit_norm": True,
    "beta": 0.01, "seed": 6, "sidecar": "s.json", "save_truth": "st.json",
    "measurements": "m.csv", "m": 7, "omega": 2.0, "norm_f_sigma": 1.25,
    "solution": "sol.json", "m_grid": [3, 5], "betas": [0.01, 0.1], "nodes_factor": 2,
}


def as_flags(cfg: dict) -> list:
    """The command-line flags that say what the config object ``cfg`` says."""
    argv = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, ",".join(map(str, value))]
        else:
            argv += [flag, str(value)]
    return argv


@pytest.fixture
def dispatched(monkeypatch):
    """Replace every command with a recorder of the parsed arguments."""
    seen = []
    for command in SUBCOMMAND_FLAGS:
        name = "_cmd_" + command.replace("-", "_")
        monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
    return seen


class TestConfigKeys:
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_every_flag_is_a_config_key(self, command, tmp_path, capsys, dispatched):
        keys = SUBCOMMAND_FLAGS[command]
        # --beta and --betas are exclusive, so experiment takes two configs
        configs = [{k: TYPED_VALUES[k] for k in keys if k != drop}
                   for drop in (["betas", "beta"] if "betas" in keys else [None])]
        path = tmp_path / "cfg.json"
        for cfg in configs:
            path.write_text(json.dumps(cfg))
            code, _, err = run([command, "--config", path], capsys)
            assert code == 0, err
            code, _, err = run([command, *as_flags(cfg)], capsys)
            assert code == 0, err
            via_config, via_flags = dispatched[-2:]
            assert set(via_config) == set(keys) | {"command", "config", "func"}
            assert via_config.pop("config") == str(path) and via_flags.pop("config") is None
            assert via_config == via_flags
            assert all(via_config[key] == value for key, value in cfg.items())

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_null_leaves_every_flag_unset(self, command, tmp_path, capsys, dispatched):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: None for key in SUBCOMMAND_FLAGS[command]}))
        required = {k: TYPED_VALUES[k] for k in REQUIRED_FLAGS[command]}
        assert run([command, "--config", path, *as_flags(required)], capsys)[0] == 0
        assert run([command, *as_flags(required)], capsys)[0] == 0
        via_config, via_flags = dispatched[-2:]
        via_config.pop("config"), via_flags.pop("config")
        assert via_config == via_flags

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_extra_key_rejected(self, command, tmp_path, capsys, dispatched):
        cfg = {key: None for key in SUBCOMMAND_FLAGS[command]}
        cfg["not_a_flag"] = 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run([command, "--config", path], capsys)
        assert code == 2
        assert "not_a_flag" in json.loads(err)["error"]
        assert dispatched == []


    @pytest.mark.parametrize("command, flag",
                             [(c, f) for c in sorted(REQUIRED_FLAGS) for f in REQUIRED_FLAGS[c]])
    def test_required_flag(self, command, flag, capsys, dispatched):
        given = {k: TYPED_VALUES[k] for k in REQUIRED_FLAGS[command] if k != flag}
        code, _, err = run([command, *as_flags(given)], capsys)
        assert code == 2
        assert "--" + flag.replace("_", "-") in json.loads(err)["error"]
        assert dispatched == []


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["1", "-3", "0.5", "nan", "", "area_center", "1,2"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5,
)
CONFIG_OBJECTS = st.builds(
    lambda good, other: {**good, **other},
    st.lists(st.sampled_from(sorted(TYPED_VALUES)), max_size=4).map(
        lambda keys: {k: TYPED_VALUES[k] for k in keys}),
    st.dictionaries(st.sampled_from(sorted(TYPED_VALUES)) | st.text(max_size=6), JSON_VALUES,
                    max_size=3),
) | JSON_VALUES


class TestConfigContract:
    """Whatever the config file holds, every command exits 0 or with one JSON error."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=CONFIG_OBJECTS, with_required=st.booleans())
    def test_exit_0_or_json_config_error(self, cfg, with_required, tmp_path, capsys,
                                          dispatched):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for command in SUBCOMMAND_FLAGS:
            required = {k: TYPED_VALUES[k] for k in REQUIRED_FLAGS[command] if with_required}
            code, _, err = run([command, "--config", path, *as_flags(required)], capsys)
            assert code in (0, 2)
            if code == 0:
                assert err == ""
            else:
                assert err.count("\n") == 1 and err.endswith("\n")
                error = json.loads(err)
                assert isinstance(error, dict) and error["type"] == "config" and error["error"]


class TestConfigValues:
    """A config value is read as its flag's text, so a bad one is a config error."""

    NODES = ["nodes", "--n", 100]
    SIMULATE = ["simulate", "--truth-m-max", 4, "--truth-sigma", 1.0, "--truth-seed", 3,
                "--n", 100, "--beta", 0.01]
    FILTER = ["filter", "--kind", "cap", "--theta0", 0.3, "--m-max", 4]

    @pytest.mark.parametrize(
        "cfg, argv, where",
        [
            ('{"n": 400.9}', ["nodes"], "--n"),
            ('{"n": [1, 2]}', ["nodes"], "--n"),
            ('{"n": {"value": 100}}', ["nodes"], "config key n"),
            ('{"n": true}', ["nodes"], "config key n"),
            ('{"rule": "bogus"}', NODES, "--rule"),
            ("5", NODES, "JSON object"),
            ("null", NODES, "JSON object"),
            ("[1, 2]", NODES, "JSON object"),
            ('{"n": 100', NODES, "cannot read config"),
            ('{"seed": 1.5}', SIMULATE, "--seed"),
            ('{"truth_unit_norm": "false"}', SIMULATE + ["--seed", 2], "--truth-unit-norm"),
            ('{"quadrature": "no"}', FILTER, "--quadrature"),
        ],
        ids=["n_float", "n_list", "n_object", "n_bool", "rule_bogus", "top_int", "top_null",
             "top_list", "truncated", "seed_float", "switch_string", "switch_no"],
    )
    def test_bad_value_is_a_config_error(self, cfg, argv, where, tmp_path, capsys):
        filt = tmp_path / "id.json"
        assert run(["filter", "--kind", "identity", "--m-max", 4, "--out", filt], capsys)[0] == 0
        path = tmp_path / "cfg.json"
        path.write_text(cfg)
        out = tmp_path / "out.file"
        argv = argv + ["--config", path, "--out", out]
        if argv[0] == "simulate":
            argv += ["--filter", filt]
        code, _, err = run(argv, capsys)
        assert code == 2
        error = json.loads(err)
        assert error["type"] == "config" and where in error["error"]
        assert not out.exists()

    def test_negative_value_stays_a_value(self, tmp_path, capsys):
        filt = tmp_path / "f.json"
        run(["filter", "--kind", "identity", "--m-max", 4, "--out", filt], capsys)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"beta": -0.5}))
        code, _, err = run(
            ["simulate", "--config", path, "--filter", filt, "--truth-m-max", 4,
             "--truth-sigma", 1.0, "--truth-seed", 3, "--n", 100, "--out", tmp_path / "m.csv"],
            capsys,
        )
        assert code == 1 and "beta must be >= 0" in json.loads(err)["error"]


class TestExperimentFlags:
    def argv(self, tmp_path, capsys):
        filt = tmp_path / "id.json"
        run(["filter", "--kind", "identity", "--m-max", 4, "--out", filt], capsys)
        return ["experiment", "--filter", filt, "--omega", 2.0, "--gamma", 0.0, "--m-grid", 2,
                "--truth-m-max", 4, "--truth-seed", 1, "--seed", 3,
                "--out", tmp_path / "curve.csv"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_beta_and_betas_exclusive(self, source, tmp_path, capsys):
        argv = self.argv(tmp_path, capsys) + ["--betas", "0.01,0.1"]
        if source == "flag":
            argv += ["--beta", 0.01]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"beta": 0.01}))
            argv += ["--config", tmp_path / "cfg.json"]
        code, _, err = run(argv, capsys)
        assert code == 2
        error = json.loads(err)
        assert error["type"] == "config" and "not allowed with" in error["error"]
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("value", [0, -1, 1.5])
    def test_nodes_factor_positive(self, value, tmp_path, capsys):
        code, _, err = run(self.argv(tmp_path, capsys) + ["--nodes-factor", value], capsys)
        assert code == 2
        error = json.loads(err)
        assert "--nodes-factor" in error["error"] and "positive integer" in error["error"]
        assert not (tmp_path / "curve.csv").exists()


class TestArithmeticAndMemoryErrors:
    """An overflow or an exhausted allocation exits 1 with one JSON error, no traceback."""

    def test_certify_overflow(self, tmp_path, capsys):
        filt, cert = tmp_path / "f2.json", tmp_path / "c.json"
        run(["filter", "--kind", "identity", "--m-max", 2, "--out", filt], capsys)
        code, _, err = run(
            ["certify", "--filter", filt, "--n", 100, "--m", 3, "--omega", "1e300",
             "--gamma", 0, "--zeta", 560, "--beta", 0.01, "--norm-f-sigma", 1, "--out", cert],
            capsys,
        )
        assert code == 1
        assert json.loads(err)["type"] == "OverflowError"
        assert not cert.exists()

    # At sigma = 301.5 the truth's degree-12 coefficients underflow to 0 where
    # their Sobolev weights overflow, so the naive norm would be nan.
    NONFINITE = ["--filter", "f.json", "--omega", 300, "--gamma", 1.5, "--beta", 0]

    def test_nonfinite_norm_experiment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(["filter", "--kind", "cap", "--theta0", 0.3, "--m-max", 30, "--out", "f.json"], capsys)
        code, out, err = run(["experiment", *self.NONFINITE, "--truth-m-max", 12, "--truth-seed", 1,
                              "--m-grid", 4, "--out", "e.csv", "--out-json", "e.json"], capsys)
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["type"] == "OverflowError" and "norm" in error["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]

    def test_nonfinite_norm_certify(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(["filter", "--kind", "cap", "--theta0", 0.3, "--m-max", 30, "--out", "f.json"], capsys)
        write_json("t.json", coeffs_to_json(random_poly(12, 301.5, 1)))
        code, out, err = run(["certify", *self.NONFINITE, "--truth", "t.json", "--n", 100,
                              "--m", 4, "--out", "c.json"], capsys)
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["type"] == "OverflowError" and "norm" in error["error"]
        assert not (tmp_path / "c.json").exists()

    def test_nonfinite_bound(self, tmp_path, capsys):
        # every factor is finite, but their product is not
        filt, cert = tmp_path / "f.json", tmp_path / "c.json"
        run(["filter", "--kind", "identity", "--m-max", 2, "--out", filt], capsys)
        code, _, err = run(
            ["certify", "--filter", filt, "--n", 100, "--m", 3, "--omega", 1.0000001,
             "--gamma", 0, "--beta", 0, "--norm-f-sigma", 1e308, "--out", cert],
            capsys,
        )
        assert code == 1
        error = json.loads(err)
        assert error["type"] == "OverflowError" and "bound_Hzeta" in error["error"]
        assert not cert.exists()

    def test_out_of_memory(self, tmp_path, capsys, monkeypatch):
        # commands are looked up by name, so the patched one runs and nothing
        # is allocated
        def exhausted(args):
            raise MemoryError("Unable to allocate 14.9 GiB")

        monkeypatch.setattr(cli, "_cmd_nodes", exhausted)
        out = tmp_path / "x.csv"
        code, _, err = run(["nodes", "--n", 2000000000, "--out", out], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "Unable to allocate 14.9 GiB", "type": "MemoryError"}
        assert not out.exists()


class TestDeeplyNestedJson:
    """A JSON file nested deeper than the recursion limit is reported like
    any other malformed file: a config error naming it."""

    DEEP = "[" * 100000

    def test_config(self, tmp_path, capsys):
        cfg, out = tmp_path / "deep.json", tmp_path / "n.csv"
        cfg.write_text(self.DEEP)
        code, _, err = run(["nodes", "--config", cfg, "--n", 100, "--out", out], capsys)
        assert code == 2
        error = json.loads(err)
        assert error["type"] == "config" and str(cfg) in error["error"]
        assert not out.exists()

    @pytest.mark.parametrize("what", ["filter", "truth", "solution"])
    def test_loaded_file(self, what, tmp_path, capsys):
        filt, deep, out = tmp_path / "f.json", tmp_path / "deep.json", tmp_path / "out"
        run(["filter", "--kind", "identity", "--m-max", 4, "--out", filt], capsys)
        deep.write_text(self.DEEP)
        argv = {
            "filter": ["reconstruct", "--filter", deep, "--measurements", tmp_path / "m.csv",
                       "--m", 1, "--out", out],
            "truth": ["simulate", "--filter", filt, "--truth", deep, "--n", 100, "--beta", 0.0,
                      "--out", out],
            "solution": ["certify", "--filter", filt, "--solution", deep, "--n", 100, "--m", 2,
                         "--omega", 2.0, "--gamma", 0.0, "--beta", 0.01, "--norm-f-sigma", 1.0,
                         "--out", out],
        }[what]
        code, _, err = run(argv, capsys)
        assert code == 2
        error = json.loads(err)
        assert error["type"] == "config" and str(deep) in error["error"]
        assert not out.exists()


class TestCertifySolution:
    @pytest.mark.parametrize("body", ["{}", "[1]", "not json"], ids=["empty", "list", "not_json"])
    def test_bad_solution_is_a_config_error(self, body, tmp_path, capsys):
        filt, truth, sol = tmp_path / "f.json", tmp_path / "truth.json", tmp_path / "sol.json"
        run(["filter", "--kind", "identity", "--m-max", 4, "--out", filt], capsys)
        write_json(truth, coeffs_to_json(random_poly(4, 2.0, 1)))
        sol.write_text(body)
        cert = tmp_path / "cert.json"
        code, _, err = run(
            ["certify", "--filter", filt, "--n", 100, "--m", 2, "--omega", 2.0, "--gamma", 0.0,
             "--beta", 0.01, "--truth", truth, "--solution", sol, "--out", cert],
            capsys,
        )
        assert code == 2
        error = json.loads(err)
        assert error["type"] == "config" and str(sol) in error["error"]
        assert not cert.exists()



class TestParserReuse:
    def test_main_leaves_no_parsers_alive(self, tmp_path, capsys):
        def parsers():
            return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())

        argv = ["verify-mz", "--n", 50, "--m", 1, "--out", tmp_path / "mz.json"]
        assert run(argv, capsys)[0] == 0
        gc.collect()
        gc.disable()
        try:
            before = parsers()
            for _ in range(3):
                assert run(argv, capsys)[0] == 0
                assert run(["nodes", "--n", "not-a-number"], capsys)[0] == 2
            after = parsers()
        finally:
            gc.enable()
        assert after == before


class TestMalformedMeasurements:
    @pytest.mark.parametrize(
        "body, where",
        [
            ("theta,phi,weight,y\n", "no measurement rows"),
            ("theta,phi,weight,y\n0.5,1.0,1.0\n", "line 2"),
            ("theta,phi,weight,y\n0.5,1.0,0.5,1.0\n1.0,2.0,0.5,nan\n", "line 3"),
            ("theta,phi,weight,y\n0.5,1.0,inf,1.0\n", "line 2"),
            ("theta,phi,weight,y\n4,1.0,1.0,1.0\n", "line 2"),
            ("theta,phi,weight,y\n0.5,abc,1.0,1.0\n", "line 2"),
            ("theta,phi,weight,y\n0.5,1.0,0.5,1.0\n0.5,1.0,0.5,1.0,2.0\n", "line 3"),
            ("theta,phi,weight,y\n0.5,1.0,0.5,1.0\n\n  \n-0.5,1.0,0.5,1.0\n", "line 5"),
            ("theta,phi,weight,y\n0.5,1.0,0.4,1.0\n1.0,2.0,0.4,1.0\n",
             "the weight column must sum to 1, got 0.8"),
            ("theta,phi,weight,y\n0.5,1.0,#1.0,1.0\n", "line 2"),
            ("theta,phi,weight,y\n\n\n", "no measurement rows"),
            ("theta,phi,weight,y\n0.5,1.0,0.5,1.0\n\n1.0,2.0,0.5,nan\n", "line 4"),
            ("theta,phi,weight,y\r\n0.5,1.0,0.5,1.0\r\n\r\n-0.5,1.0,0.5,1.0\r\n", "line 4"),
            (b"theta,phi,weight,y\n0.5,1.0,1.0,1.0\xff\n", "line 2"),
            (b"\xff\xfe\n0.5,1.0,1.0,1.0\n", "line 1 is not UTF-8"),
            (b"\xef\xbb\xbftheta,phi,weight,y\n0.5,1.0,1.0,1.0\xff\n", "line 2 is not UTF-8"),
        ],
        ids=["header_only", "short_row", "nan_y", "inf_weight", "theta_4", "abc",
             "five_fields", "bad_after_blank", "weights_sum", "hash_in_field",
             "header_then_blank_lines", "nan_after_empty_line", "crlf_theta_after_empty_line",
             "non_utf8_row", "non_utf8_header", "bom_then_non_utf8_row"],
    )
    def test_reconstruct_reports_json_error(self, body, where, tmp_path, capsys):
        filt = tmp_path / "f.json"
        run(["filter", "--kind", "identity", "--m-max", 2, "--out", filt], capsys)
        meas = tmp_path / "meas.csv"
        if isinstance(body, bytes):
            meas.write_bytes(body)
        else:
            meas.write_text(body)
        sol = tmp_path / "sol.json"
        code, _, err = run(
            ["reconstruct", "--filter", filt, "--measurements", meas, "--m", 1,
             "--out", sol],
            capsys,
        )
        assert code == 1
        error = json.loads(err)
        assert error["type"] == "ValueError"
        assert str(meas) in error["error"] and where in error["error"]
        assert not sol.exists()


class TestMalformedSidecar:
    MEASUREMENTS = "theta,phi,weight,y\n0.5,1.0,0.5,1.0\n1.0,2.0,0.5,1.0\n"

    def reconstruct(self, sidecar_body, tmp_path, capsys):
        filt = tmp_path / "f.json"
        run(["filter", "--kind", "identity", "--m-max", 2, "--out", filt], capsys)
        meas, side = tmp_path / "meas.csv", tmp_path / "meas.json"
        meas.write_text(self.MEASUREMENTS)
        if isinstance(sidecar_body, bytes):
            side.write_bytes(sidecar_body)
        else:
            side.write_text(sidecar_body)
        code, _, err = run(
            ["reconstruct", "--filter", filt, "--measurements", meas, "--sidecar", side,
             "--m", 0, "--out", tmp_path / "sol.json"],
            capsys,
        )
        return code, err, side

    @pytest.mark.parametrize(
        "body, where",
        [
            ("[1]", "JSON object"),
            ("not json", "not JSON"),
            ('{"beta": null}', "beta"),
            ('{"beta": "0.1"}', "beta"),
            ('{"beta": true}', "beta"),
            ('{"beta": -0.5}', "beta"),
            ('{"beta": NaN}', "beta"),
            ('{"beta": Infinity}', "beta"),
            ('{"seed": 1.5}', "seed"),
            ('{"seed": "3"}', "seed"),
            ('{"truth_ref": 5}', "truth_ref"),
            ("[" * 100000, "not JSON"),
            (b'{"beta": 0.1\xff}', "not JSON"),
            (b'\xef\xbb\xbf{"beta": 0.1\xff}', "not JSON"),
        ],
        ids=["list", "not_json", "beta_null", "beta_string", "beta_bool", "beta_negative",
             "beta_nan", "beta_inf", "seed_float", "seed_string", "truth_ref_int",
             "nested_deeper_than_recursion_limit", "non_utf8", "bom_then_non_utf8"],
    )
    def test_reconstruct_reports_json_error(self, body, where, tmp_path, capsys):
        code, err, side = self.reconstruct(body, tmp_path, capsys)
        assert code == 1
        error = json.loads(err)
        assert error["type"] == "ValueError"
        assert str(side) in error["error"] and where in error["error"]
        assert not (tmp_path / "sol.json").exists()

    def test_valid_sidecar(self, tmp_path, capsys):
        body = json.dumps({"beta": 0, "seed": 4, "truth_ref": {"truth_m_max": 2}})
        code, err, _ = self.reconstruct(body, tmp_path, capsys)
        assert code == 0, err

    def test_byte_order_marks_are_dropped(self, tmp_path, capsys):
        """A CSV and a sidecar saved with a UTF-8 byte-order mark, as
        spreadsheet tools write them, reconstruct like the plain files."""
        body = json.dumps({"beta": 0.1, "seed": 4})
        code, err, _ = self.reconstruct(body, tmp_path, capsys)
        assert code == 0, err
        plain = (tmp_path / "sol.json").read_bytes()
        for name in ("meas.csv", "meas.json"):
            path = tmp_path / name
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        code, _, err = run(
            ["reconstruct", "--filter", tmp_path / "f.json", "--measurements", tmp_path / "meas.csv",
             "--sidecar", tmp_path / "meas.json", "--m", 0, "--out", tmp_path / "sol.json"],
            capsys,
        )
        assert code == 0, err
        assert (tmp_path / "sol.json").read_bytes() == plain


class TestAtomicWrite:
    def test_refuses_fifo(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        with pytest.raises(OSError, match="not a regular file"):
            atomic_write_text(fifo, "{}\n")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

    def test_refuses_symlink_to_fifo(self, tmp_path):
        fifo, link = tmp_path / "pipe", tmp_path / "link"
        os.mkfifo(fifo)
        link.symlink_to(fifo)
        with pytest.raises(OSError, match="not a regular file"):
            atomic_write_text(link, "{}\n")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and link.is_symlink()
        assert sorted(os.listdir(tmp_path)) == ["link", "pipe"]

    def test_refuses_directory(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(OSError, match="not a regular file"):
            atomic_write_text(tmp_path / "d", "{}\n")
        assert os.listdir(tmp_path) == ["d"]

    def test_writes_through_symlink(self, tmp_path):
        target, link = tmp_path / "real.json", tmp_path / "link.json"
        target.write_text("old\n")
        link.symlink_to(target)
        atomic_write_text(link, "new\n")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == "new\n"
        assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]

    def test_cli_reports_fifo(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        code, _, err = run(["verify-mz", "--n", 50, "--m", 1, "--out", fifo], capsys)
        assert code == 1
        error = json.loads(err)
        assert error["type"] == "OSError" and str(fifo) in error["error"]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)



class TestArtifactBytes:
    """sha256 of artifacts as the per-node code wrote them before the
    partition was held as bands and the nodes as one array.  The y column of
    the measurement CSV is from the angle-addition azimuthal factors: it
    moved by at most 7e-18 from the per-order sines and cosines, and its
    theta, phi and weight columns kept their bytes."""

    CAP = ["filter", "--kind", "cap", "--theta0", 0.3, "--m-max", 12]
    SIMULATE = ["simulate", "--truth-m-max", 10, "--truth-sigma", 2.0, "--truth-seed", 5,
                "--n", 400, "--rule", "random_in_region", "--node-seed", 3, "--beta", 0.01,
                "--seed", 6, "--sidecar", "meas.json"]

    @pytest.mark.parametrize(
        "argv, name, digest",
        [
            (["partition", "--n", 400, "--out-json", "part.json", "--out-csv", "part.csv"],
             "part.json", "0d80d0035e6ba079664654f5f8e7ee251c13282df237065266a62d330375aea5"),
            (["partition", "--n", 400, "--out-json", "part.json", "--out-csv", "part.csv"],
             "part.csv", "f032223126958c0d15e223a2ecd4a50480f19814cf103860c3701365001e7f1f"),
            (["nodes", "--n", 400, "--out", "ac.csv"],
             "ac.csv", "f032223126958c0d15e223a2ecd4a50480f19814cf103860c3701365001e7f1f"),
            (["nodes", "--n", 400, "--rule", "random_in_region", "--node-seed", 3, "--out", "rr.csv"],
             "rr.csv", "34216d0947720a3a707f3e54ca3c82ac8bc0e43541f2e5cb7753b65709fa574d"),
            (SIMULATE + ["--filter", "cap.json", "--out", "meas.csv"],
             "meas.csv", "0f9b4c3f1023e837f2cd42a2326e8aae4ecc662c5a2185a60ccb9ac9feede5eb"),
            (SIMULATE + ["--filter", "cap.json", "--out", "meas.csv"],
             "meas.json", "b6bb2f7a9a1c1d9fc17918bd08c9bccfbe39f2889943f97f68475e55cc717b01"),
            (CAP + ["--gamma", 1.5, "--zeta", 1.5, "--out", "fits.json"],
             "fits.json", "a2043ddd160cd93e25fb518f27ef4d9e38e187a06c1abb5f02a29fe82efb81e5"),
        ],
        ids=["partition_json", "partition_csv", "nodes_area_center", "nodes_random",
             "simulate_csv", "simulate_sidecar", "cap_filter_with_fits"],
    )
    def test_sha256(self, argv, name, digest, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(self.CAP + ["--out", "cap.json"], capsys)[0] == 0
        assert run(argv, capsys)[0] == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


class TestStrictJson:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_write_json_refuses_non_finite(self, value, tmp_path):
        out = tmp_path / "x.json"
        with pytest.raises(ValueError):
            write_json(out, {"residual": value})
        assert list(tmp_path.iterdir()) == []


class TestNonFiniteFloats:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name", ["norm_f_sigma", "beta", "omega"])
    def test_certify_rejects(self, name, source, value, tmp_path, capsys):
        filt = tmp_path / "f.json"
        run(["filter", "--kind", "identity", "--m-max", 4, "--out", filt], capsys)
        params = {"filter": str(filt), "n": 100, "m": 2, "omega": 2.0, "gamma": 0.0,
                  "beta": 0.01, "norm_f_sigma": 1.0, "out": str(tmp_path / "cert.json")}
        if source == "flag":
            params[name] = value
            argv = ["certify"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({name: float(value)}))
            del params[name]
            argv = ["certify", "--config", cfg]
        for key, v in params.items():
            argv += [f"--{key.replace('_', '-')}", v]
        code, _, err = run(argv, capsys)
        assert code == 2
        error = json.loads(err)
        assert error["type"] == "config"
        assert f"--{name.replace('_', '-')}" in error["error"] and "finite" in error["error"]
        assert not (tmp_path / "cert.json").exists()


class TestNonFiniteFilter:
    def test_certify_rejects_nan_multiplier(self, tmp_path, capsys):
        filt = tmp_path / "f.json"
        filt.write_text(json.dumps({"m_max": 4, "b": [1.0, math.nan, 0.5, 0.25, 0.1]}))
        cert = tmp_path / "cert.json"
        code, _, err = run(
            ["certify", "--filter", filt, "--n", 100, "--m", 2, "--omega", 2.0,
             "--gamma", 0.0, "--beta", 0.01, "--norm-f-sigma", 1.0, "--out", cert],
            capsys,
        )
        # rejected where the filter is loaded, like any other malformed filter file
        assert code == 2
        error = json.loads(err)
        assert error["type"] == "config"
        assert str(filt) in error["error"] and "b_1" in error["error"]
        assert not cert.exists()


class TestBlasThreads:
    def test_simulate_byte_identical(self, tmp_path, capsys):
        filt = tmp_path / "f.json"
        run(["filter", "--kind", "cap", "--theta0", THETA_41, "--m-max", 40, "--out", filt],
            capsys)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"meas_{threads}.csv"
            path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            subprocess.run(
                [sys.executable, "-m", "spheredecon.cli", "simulate", "--filter", str(filt),
                 "--truth-m-max", "40", "--truth-sigma", "2.0", "--truth-seed", "7",
                 "--n", "4356", "--rule", "area_center", "--beta", "0.01", "--seed", "11",
                 "--out", str(out)],
                env=env, check=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_reconstruct_rerun_byte_identical(self, threads, tmp_path, capsys):
        filt, meas = tmp_path / "f.json", tmp_path / "meas.csv"
        run(["filter", "--kind", "cap", "--theta0", THETA_41, "--m-max", 20, "--out", filt],
            capsys)
        run(["simulate", "--filter", filt, "--truth-m-max", 20, "--truth-sigma", 2.0,
             "--truth-seed", 7, "--n", 1156, "--beta", 0.01, "--seed", 11, "--out", meas],
            capsys)
        path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"solution_{attempt}.json"
            subprocess.run(
                [sys.executable, "-m", "spheredecon.cli", "reconstruct", "--filter", str(filt),
                 "--measurements", str(meas), "--m", "16", "--out", str(out)],
                env=env, check=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestRoundTrip:
    def test_cap_scenario_end_to_end(self, tmp_path, capsys, monkeypatch):
        """simulate -> reconstruct -> certify on the bundled cap scenario."""
        monkeypatch.chdir(tmp_path)
        code, _, err = run(["filter", "--config", CONFIGS / "cap_filter.json"], capsys)
        assert code == 0, err
        code, _, err = run(
            ["simulate", "--filter", "cap41_filter.json", "--truth-m-max", 16,
             "--truth-sigma", 2.0, "--truth-seed", 7, "--n", 512, "--beta", 0.01,
             "--seed", 11, "--out", "meas.csv", "--sidecar", "meas_meta.json",
             "--save-truth", "truth.json"],
            capsys,
        )
        assert code == 0, err
        code, _, err = run(
            ["reconstruct", "--filter", "cap41_filter.json", "--measurements",
             "meas.csv", "--m", 7, "--out", "solution.json"],
            capsys,
        )
        assert code == 0, err
        code, _, err = run(
            ["certify", "--filter", "cap41_filter.json", "--n", 512, "--m", 7,
             "--omega", 2.0, "--gamma", 1.5, "--zeta", 1.5, "--beta", 0.01,
             "--truth", "truth.json", "--solution", "solution.json",
             "--out", "certificate.json"],
            capsys,
        )
        assert code == 0, err
        cert = json.loads(Path("certificate.json").read_text())
        assert cert["verification"]["passed"] is True
        assert cert["verification"]["pass_Hzeta"] is True
        assert cert["verification"]["pass_L2"] is True
        assert cert["bound_L2"] is not None
        sol = json.loads(Path("solution.json").read_text())
        assert sol["report"]["full_rank"] is True

    def test_experiment_command_bound_dominance(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(["filter", "--config", CONFIGS / "cap_filter.json"], capsys)
        code, _, err = run(["experiment", "--config", CONFIGS / "cap_experiment.json"], capsys)
        assert code == 0, err
        lines = Path("cap41_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "m,N,beta,measured_L2,measured_Hzeta,bound_Hzeta,bound_L2"
        rows = json.loads(Path("cap41_rows.json").read_text())
        assert len(rows) == 4
        for row in rows:
            assert row["passed"] is True
            assert row["measured_Hzeta"] <= row["bound_Hzeta"]
            assert row["measured_L2"] <= row["bound_L2"]

    def test_identity_noiseless_experiment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(["filter", "--kind", "identity", "--m-max", 20, "--out", "id.json"], capsys)
        code, _, err = run(
            ["experiment", "--filter", "id.json", "--omega", 2.0, "--gamma", 0.0,
             "--zeta", 0.0, "--m-grid", "3,4,5", "--beta", 0.0, "--truth-m-max", 12,
             "--truth-seed", 5, "--out", "id_curve.csv", "--out-json", "id_rows.json"],
            capsys,
        )
        assert code == 0, err
        rows = json.loads(Path("id_rows.json").read_text())
        for row in rows:
            assert row["measured_L2"] <= row["bound_Hzeta"]

    def test_experiment_rerun_identical(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(["filter", "--kind", "identity", "--m-max", 10, "--out", "id.json"], capsys)
        args = ["experiment", "--filter", "id.json", "--omega", 2.0, "--gamma", 0.0,
                "--m-grid", "3,4", "--beta", 0.001, "--seed", 9, "--truth-m-max", 8,
                "--truth-seed", 2, "--out", "c1.csv"]
        run(args, capsys)
        first = Path("c1.csv").read_bytes()
        args[-1] = "c2.csv"
        run(args, capsys)
        assert first == Path("c2.csv").read_bytes()


class TestExperimentFamilies:
    """The experiment searches each degree's family once, for all its betas."""

    M_GRID, BETAS, SEED, NODE_SEED = (2, 4, 5), (0.01, 0.1), 3, 11

    def experiment(self, tmp_path, capsys):
        filt = tmp_path / "cap.json"
        run(["filter", "--kind", "cap", "--theta0", 0.3, "--m-max", 10, "--out", filt], capsys)
        code, _, err = run(
            ["experiment", "--filter", filt, "--omega", 2.0, "--gamma", 1.5, "--zeta", 1.5,
             "--m-grid", ",".join(map(str, self.M_GRID)),
             "--betas", ",".join(map(str, self.BETAS)), "--seed", self.SEED,
             "--truth-m-max", 8, "--truth-seed", 2, "--nodes-factor", 1,
             "--rule", "random_in_region", "--node-seed", self.NODE_SEED,
             "--out", tmp_path / "curve.csv", "--out-json", tmp_path / "rows.json"],
            capsys,
        )
        assert code == 0, err
        return filter_from_json(json.loads(filt.read_text())), json.loads(
            (tmp_path / "rows.json").read_text())

    def test_one_search_per_degree(self, tmp_path, capsys, monkeypatch):
        calls = []
        mz_constants = certify.mz_constants

        def spy(fam, m):
            calls.append(m)
            return mz_constants(fam, m)

        monkeypatch.setattr(certify, "mz_constants", spy)
        _, rows = self.experiment(tmp_path, capsys)
        searches = {row["m"]: row["search"] for row in rows}
        assert sum(len(h) - 1 for h in searches.values()) > 0  # some search doubles
        # one call per degree plus its doublings, degrees in grid order
        assert calls == [m for m, h in searches.items() for _ in h]
        for row in rows:
            assert row["search"][-1] == [row["N"], row["epsilon"]]

    def test_one_synthesis_per_degree(self, tmp_path, capsys, monkeypatch):
        sizes, simulated = [], []
        sample_at = cli.sample_at

        def spy(c, nodes):
            sizes.append(len(nodes))
            return sample_at(c, nodes)

        monkeypatch.setattr(cli, "sample_at", spy)
        monkeypatch.setattr(cli, "simulate", lambda *a, **k: simulated.append(a))
        _, rows = self.experiment(tmp_path, capsys)
        family_sizes = {row["m"]: row["N"] for row in rows}
        assert sizes == [family_sizes[m] for m in self.M_GRID]
        assert simulated == []

    def test_rows_equal_per_cell_calls(self, tmp_path, capsys):
        filt, rows = self.experiment(tmp_path, capsys)
        truth = random_poly(8, 3.5, 2, unit_norm=False)
        expected = [
            _experiment_rows(filt, truth, _certificate_inputs(filt, truth, 2.0, 1.5, 1.5), m,
                             [(beta, self.SEED + 1000 * bi + mi)], 1, "random_in_region",
                             self.NODE_SEED)[0]
            for bi, beta in enumerate(self.BETAS) for mi, m in enumerate(self.M_GRID)
        ]
        # JSON keeps every double exactly (repr round trip), so this is bitwise
        assert rows == json.loads(json.dumps(expected))

    def test_rows_hold_exactly_their_keys(self, tmp_path, capsys):
        _, rows = self.experiment(tmp_path, capsys)
        for row in rows:
            assert set(row) == {
                "m", "N", "beta", "measured_L2", "measured_Hzeta", "bound_Hzeta", "bound_L2",
                "epsilon", "residual", "pass_Hzeta", "pass_L2", "passed", "search",
            }

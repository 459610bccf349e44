"""CLI contract tests: scenario parsing, subcommands, exit codes, outputs."""

import ast
import contextlib
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chorded_ring, short_reproduction
from khopsim import scenario_cli
from khopsim.errors import TelemetryError
from khopsim.plant_sim import read_csv, run, write_csv
from khopsim.scenario_cli import (
    FLAG_FIELDS,
    REPRODUCTION_SCENARIO,
    SCHEMA,
    load_scenario,
    main,
    prepare,
    telemetry_columns,
)

CONSTRAINT = {path: constraint for path, _, constraint, _ in SCHEMA}


def write_scenario(tmp_path, name="scenario.json", **patch):
    raw = json.loads(json.dumps(REPRODUCTION_SCENARIO))
    for key, value in patch.items():
        section, _, field = key.partition(".")
        if field:
            raw.setdefault(section, {})[field] = value
        else:
            raw[section] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path, raw


class TestScenarioParsing:
    def test_reproduction_scenario_loads(self):
        sc = load_scenario(REPRODUCTION_SCENARIO)
        assert sc.graph.n == 4 and sc.values["k"] == 3
        assert 4 in sc.target_graph.neighbors(1)
        assert sc.values["bounds.inferred"]
        assert len(sc.hash) == 16

    def test_schema_version_enforced(self, tmp_path):
        path, _ = write_scenario(tmp_path, schema_version=99)
        assert main(["tune", "--scenario", str(path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "patch, path",
        [({"sim.conv_esp": 0.5}, "sim.conv_esp"), ({"seed": 3}, "seed"),
         ({"gains.overrides": {"thetta": 1.0}}, "gains.overrides.thetta")],
        ids=["in_sim", "top_level", "nested"],
    )
    def test_unknown_field_exits_1_naming_it(self, tmp_path, capsys, patch, path):
        # A typo was once dropped without a word, leaving the default.
        scenario, _ = write_scenario(tmp_path, **patch)
        assert main(["tune", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"scenario error: unknown field {path}\n"
        assert not (tmp_path / "out").exists()

    def test_graph_from_file(self, tmp_path):
        (tmp_path / "graph.txt").write_text("4\n1 2\n2 3\n3 4\n")
        path, _ = write_scenario(tmp_path, graph={"file": "graph.txt"})
        sc = load_scenario(path)
        assert 3 in sc.graph.neighbors(2)

    def test_seeded_initial_states_reproducible(self, tmp_path):
        path, _ = write_scenario(
            tmp_path, **{"sim.x0": {"low": -0.2, "high": 0.2}, "sim.seed": 11}
        )
        a = load_scenario(path)
        b = load_scenario(path)
        assert np.array_equal(a.x0, b.x0)
        c = load_scenario(path, overrides={"--seed": 12})
        assert not np.array_equal(a.x0, c.x0)

    def test_f_registry(self):
        from khopsim.scenario_cli import resolve_f

        f, lf = resolve_f("zero")
        assert f is None and lf == 0.0
        f, lf = resolve_f("scalar-saturation")
        assert lf == 1.0 and f(np.array([-3.0, 0.5, 2.0])) == pytest.approx(
            [-1.0, 0.5, 1.0]
        )
        f, lf = resolve_f({"kind": "user-table", "x": [-1.0, 0.0, 1.0], "y": [-0.5, 0.0, 2.0]})
        assert lf == 2.0 and f(np.array([0.5]))[0] == pytest.approx(1.0)
        with pytest.raises(Exception):
            resolve_f("no-such-f")

    @pytest.mark.parametrize(
        "x0",
        [{"low": 0, "high": float("inf")}, {"low": 0, "high": float("nan")},
         {"low": -1e308, "high": 1e308}],
        ids=["infinite", "nan", "overflowing_width"],
    )
    def test_unusable_x0_interval_exits_1_with_one_line(self, tmp_path, capsys, x0):
        path, _ = write_scenario(tmp_path, **{"sim.x0": x0, "sim.t_end": 0.05})
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("scenario error: sim.x0 must be per-agent rows or {low, high}, got ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestTune:
    def test_reproduction_gain_report(self, tmp_path, capsys):
        path, _ = write_scenario(tmp_path)
        rc = main(["tune", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "gains.json").read_text())
        omegas = [row["omega"] for row in report["per_agent"]]
        assert omegas == pytest.approx([2.62, 1.0, 1.0, 2.62], abs=0.01)
        assert report["g"] == 20.0
        assert report["certified"] is True
        assert report["bounds_inferred"] is True
        # Keys that could only ever read true are gone.
        assert not any("overlap" in key or "definite" in key for key in report)

    def test_complete_graph_no_observers(self, tmp_path, capsys):
        path, _ = write_scenario(
            tmp_path,
            graph={"n": 4, "edges": [[i, j] for i in range(1, 5) for j in range(i + 1, 5)]},
            k=2,
            controller={"kind": "zero"},
            target_graph=None,
        )
        rc = main(["tune", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "no observers needed" in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "gains.json").read_text())
        assert report["no_observers_needed"] is True

    def test_input_bound_without_derivative_bound_tunes(self, tmp_path):
        path, _ = write_scenario(tmp_path, bounds={"d_u": 1.0})
        assert main(["tune", "--scenario", str(path), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize(
        "patch, reason",
        [
            ({"sim.uhat0": float("nan")}, "agent 1: non-finite input estimate"),
            (
                {"sim.uhat0": [[0.0] * 4, [0.0] * 2, [float("nan"), 0.0], [0.0] * 4]},
                "agent 3: non-finite input estimate",
            ),
            ({"sim.xhat0": float("nan")}, "agent 1: non-finite state estimate"),
        ],
        ids=["uhat0_nan", "uhat0_block_nan", "xhat0_nan"],
    )
    def test_nonfinite_initial_estimate_exits_1_with_one_line(
        self, tmp_path, capsys, patch, reason
    ):
        path, _ = write_scenario(tmp_path, **patch)
        rc = main(["tune", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and reason in err
        assert not (tmp_path / "out" / "gains.json").exists()

    @pytest.mark.parametrize("command", ["tune", "simulate"])
    @pytest.mark.parametrize("field", ["sim.xhat0", "sim.uhat0"])
    def test_overflowing_initial_error_exits_1_with_one_line(
        self, tmp_path, capsys, field, command
    ):
        # The squared error norm of a 1e160 estimate overflows; it may
        # neither warn nor reach the certificate.
        path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.05, field: 1e160})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([command, "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"scenario error: {field}: the initial estimation error of agent 1 overflows\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field", ["slack", "omega_slack", "theta_scale", "pi_scale", "--slack"]
    )
    def test_nonfinite_gain_setting_exits_1_naming_it(self, tmp_path, capsys, field, value):
        # Such gains are unusable (NaN or infinite theta, pi or omega), so
        # tune must not write a certificate for them.
        if field == "--slack":
            path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.01})
            extra = ["--slack", str(value)]
        else:
            path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.01, f"gains.{field}": value})
            extra = []
        rc = main(["tune", "--scenario", str(path), "--out", str(tmp_path / "out"), *extra])
        assert rc == 1
        err = capsys.readouterr().err
        name = field if field == "--slack" else f"gains.{field}"
        rule = CONSTRAINT[FLAG_FIELDS.get(name, name)]  # "finite", or "non-negative and finite"
        assert err.count("\n") == 1 and f"{name} must be {rule}, got" in err
        assert not (tmp_path / "out" / "gains.json").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("key", ["omega", "theta", "pi"])
    def test_scalar_nonfinite_override_keeps_the_tuned_gains(self, tmp_path, key, value):
        plain, _ = write_scenario(tmp_path, name="plain.json")
        path, _ = write_scenario(tmp_path, **{"gains.overrides": {key: value}})
        assert main(["tune", "--scenario", str(plain), "--out", str(tmp_path / "plain")]) == 0
        assert main(["tune", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        reports = [json.loads((tmp_path / out / "gains.json").read_text())
                   for out in ("plain", "out")]
        for report in reports:
            del report["scenario"]["hash"]  # the hash of each document as read
        assert reports[0] == reports[1]

    def test_infeasible_pi_override_exits_2(self, tmp_path, capsys):
        path, _ = write_scenario(
            tmp_path, **{"gains.overrides": {"pi": [0.5, 0.5, 0.5, 0.5]}}
        )
        rc = main(["tune", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        report = json.loads((tmp_path / "out" / "gains.json").read_text())
        assert report["certified"] is False
        assert "pi lower bound" in report["infeasible"]["inequality"]
        assert "pi lower bound" in capsys.readouterr().err

    def test_omega_override_below_its_bound_exits_2(self, tmp_path, capsys):
        # Agent 2's omega bound is 1 to six digits; its override of 0 is below it.
        path, _ = write_scenario(
            tmp_path, **{"gains.overrides": {"omega": [2.7, 0.0, 1.0, 2.7]}}
        )
        rc = main(["tune", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        report = json.loads((tmp_path / "out" / "gains.json").read_text())
        assert report["certified"] is False
        assert report["infeasible"] == {"agent": 2, "quantity": "omega", "value": 0.0,
                                        "inequality": "omega lower bound (1)"}
        assert capsys.readouterr().err == "infeasible: agent 2 violates omega lower bound (1)\n"

    @pytest.mark.parametrize("field", ["plant.A", "gains.g"])
    def test_overflowing_matrix_exits_1_with_one_line(self, tmp_path, capsys, field):
        # A squared 1e300 overflows: in sym_eigs' Frobenius norm (plant.A) or
        # in design_g's 2 g (lambda_max - g) (gains.g). Neither may warn or answer.
        path, _ = write_scenario(tmp_path, **{field: 1e300})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["tune", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert not (tmp_path / "out" / "gains.json").exists()


@pytest.mark.parametrize("command", ["tune", "simulate"])
@pytest.mark.parametrize(
    "patch, reason",
    [
        ({"bounds.d_tilde_u": 1e308}, "agent 1: theta = inf is not finite"),
        ({"gains.theta_scale": 1e308}, "agent 1: theta = inf is not finite"),
        ({"gains.slack": 1e308}, "agent 1: phi = inf is not finite"),
        ({"gains.overrides": {"theta": 1e308}}, "agent 1: phi = inf is not finite"),
        ({"gains.pi_scale": 1e308}, "agent 1: pi = inf is not finite"),
        ({"bounds.d_udot": 1e308}, "agent 1: pi = inf is not finite"),
        ({"plant.l_f": 1e308}, "agent 1: omega = inf is not finite"),
        ({"plant.A": 1e308}, "matrix contains non-finite entries"),
    ],
    ids=["d_tilde_u", "theta_scale", "slack", "theta_override", "pi_scale", "d_udot",
         "l_f", "plant_A"],
)
def test_overflowing_gain_exits_1_with_one_line(tmp_path, capsys, command, patch, reason):
    # Such gains once certified T_x = 0 or gave no T_x at all, after
    # numpy overflow warnings.
    path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.05}, **patch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "patch, line",
    [
        ({"sim.band_scale": 1e308},
         "error: band_scale = 1e+308 makes the theta band of agent 1 overflow"),
        ({"plant.f": {"kind": "user-table", "x": [0.0, 1e-300], "y": [0.0, 1e300]}},
         "scenario error: plant.f: a user-table slope overflows"),
    ],
    ids=["band_scale", "user_table_slope"],
)
def test_overflowing_band_or_slope_exits_1_with_one_line(tmp_path, capsys, patch, line):
    # Both once printed numpy overflow warnings first; the band then exited 2.
    path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.05}, **patch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == line + "\n"
    assert not (tmp_path / "out").exists()


def test_verify_refuses_an_overflowing_band(tmp_path, capsys):
    good, _ = write_scenario(tmp_path, **{"sim.t_end": 0.05})
    main(["simulate", "--scenario", str(good), "--out", str(tmp_path / "run")])
    assert (tmp_path / "run" / "telemetry.csv").exists()
    capsys.readouterr()
    wide, _ = write_scenario(tmp_path, "wide.json", **{"sim.t_end": 0.05, "sim.band_scale": 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", "--scenario", str(wide), "--telemetry",
                   str(tmp_path / "run" / "telemetry.csv"), "--out", str(tmp_path / "verify")])
    assert rc == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "verify").exists()


class TestSimulate:
    def test_network_without_observers_passes(self, tmp_path):
        # On a triangle with k = 2 no agent runs an observer, so the state
        # errors are judged from the first sample.
        triangle = {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}
        path, _ = write_scenario(tmp_path, graph=triangle, target_graph=triangle, k=2,
                                 **{"sim.t_end": 2.0,
                                    "sim.x0": REPRODUCTION_SCENARIO["sim"]["x0"][:3]})
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["no_observers_needed"] is True and report["all_pass"] is True
        crit = {c["name"]: c for c in report["criteria"]}
        bounded = crit["error_bounded_after_input_convergence"]
        assert bounded["status"] == "pass" and bounded["T_u_obs_global"] == 0.0

    def test_zero_controller_states_constant_in_csv(self, tmp_path):
        path, _ = write_scenario(
            tmp_path,
            controller={"kind": "zero"},
            target_graph=None,
            **{"sim.t_end": 0.5, "sim.conv_eps": 0.05},
        )
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(path), "--out", str(out)])
        assert rc == 0
        cols = read_csv(out / "telemetry.csv")
        for name in ("x_1_1", "x_3_2"):
            assert np.all(cols[name] == cols[name][0])

    def test_same_seed_byte_identical_csv(self, tmp_path):
        path, _ = write_scenario(
            tmp_path,
            **{
                "sim.x0": {"low": -0.2, "high": 0.2},
                "sim.t_end": 1.0,
            },
        )
        rc1 = main(
            ["simulate", "--scenario", str(path), "--out", str(tmp_path / "a"), "--seed", "5"]
        )
        rc2 = main(
            ["simulate", "--scenario", str(path), "--out", str(tmp_path / "b"), "--seed", "5"]
        )
        assert rc1 == rc2
        a = (tmp_path / "a" / "telemetry.csv").read_bytes()
        b = (tmp_path / "b" / "telemetry.csv").read_bytes()
        assert a == b
        rc3 = main(
            ["simulate", "--scenario", str(path), "--out", str(tmp_path / "c"), "--seed", "6"]
        )
        assert (tmp_path / "c" / "telemetry.csv").read_bytes() != a

    def test_divergence_exit_3_retains_partial_csv(self, tmp_path):
        raw = {
            "schema_version": 1,
            "name": "runaway",
            "graph": {"n": 2, "edges": [[1, 2]]},
            "k": 2,
            "plant": {"N": 1, "A": 2000.0},
            "bounds": {"d_udot": 0.0, "d_tilde_u": 0.0},
            "controller": {"kind": "zero"},
            "sim": {"dt": 1e-3, "t_end": 2.0, "x0": [[1.0], [1.0]]},
        }
        path = tmp_path / "runaway.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            rc = main(["simulate", "--scenario", str(path), "--out", str(out)])
        assert rc == 3
        cols = read_csv(out / "telemetry.csv")
        assert len(cols["t"]) > 10
        assert np.all(np.isfinite(cols["x_1_1"]))
        # The retained rows are those of a run that stops at the last one.
        raw["sim"]["t_end"] = float(cols["t"][-1])
        with np.errstate(over="ignore"):
            write_csv(run(prepare(load_scenario(raw)).config), tmp_path / "cut.csv")
        assert (tmp_path / "cut.csv").read_bytes() == (out / "telemetry.csv").read_bytes()

    @pytest.mark.parametrize(
        "sim_patch, reason",
        [
            ({"sim.dt": float("nan")}, "dt must be positive and finite"),
            ({"sim.t_end": 0.001}, "t_end must be finite and exceed dt"),
            ({"sim.t_end": 1e300}, "t_end / dt must be at most"),
            ({"sim.dt": 1e-300}, "t_end / dt must be at most"),
        ],
        ids=["dt_nan", "t_end_not_above_dt", "t_end_too_many_steps", "dt_too_many_steps"],
    )
    def test_bad_step_settings_exit_1_with_one_line(
        self, tmp_path, capsys, sim_patch, reason
    ):
        path, _ = write_scenario(tmp_path, **sim_patch)
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and reason in err

    @pytest.mark.parametrize(
        "patch, reason",
        [
            ({"controller.kind": "bogus"}, "unknown controller kind"),
            ({"controller.kind": "generic_feedback"}, "unknown controller kind"),
            ({"target_graph": None}, "needs a target graph"),
            (
                {"target_graph": {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]}},
                "target graph must cover the same agents",
            ),
            ({"gains.overrides": {"theta": [1.0, 2.0]}}, "needs 4 entries"),
            ({"sim.xhat0": [[1.0], [2.0], [3.0], [4.0]]}, "cannot reshape"),
            ({"sim.uhat0": "truth"}, "uhat0 must be"),
            ({"sim.conv_eps": "tiny"}, "sim.conv_eps must be a number, got 'tiny'"),
            ({"sim.boundary_layer": 0.0}, "boundary_layer must be positive"),
            ({"plant.N": 0}, "plant.N must be >= 1"),
            ({"bounds": {"d_u": 1.0}}, "pi gain missing"),
            ({"gains.overrides": {"theta": -1.0}}, "theta gain negative for a member of agent 1"),
            ({"sim.uhat0": float("nan")}, "non-finite input estimate"),
            (
                {"sim.x0": [[float("nan"), 0.0], [0.1, 0.1], [0.2, 0.2], [0.3, 0.3]]},
                "x0 must be finite",
            ),
            ({"k": float("inf")}, "k must be an integer, got inf"),
            ({"plant.N": float("inf")}, "plant.N must be an integer, got inf"),
            ({"sim.decimate": float("inf")}, "sim.decimate must be an integer, got inf"),
            ({"gains.g": float("inf")}, "g must be positive and finite, got inf"),
            ({"sim.band_scale": float("nan")}, "band_scale must be positive and finite, got nan"),
            ({"sim.band_scale": 0}, "band_scale must be positive and finite, got 0.0"),
            ({"sim.band_scale": -1}, "band_scale must be positive and finite, got -1.0"),
            ({"sim.consensus_tol": float("nan")}, "sim.consensus_tol must be positive and finite"),
            ({"sim.consensus_tol": 0}, "sim.consensus_tol must be positive and finite"),
            ({"sim.consensus_tol": -1}, "sim.consensus_tol must be positive and finite"),
        ],
        ids=[
            "unknown_kind", "generic_feedback", "no_target_graph", "target_n_differs",
            "override_length", "xhat0_block_size", "uhat0_truth", "conv_eps_text",
            "boundary_layer_zero", "zero_state_dim", "no_derivative_bound", "theta_negative",
            "uhat0_nan", "x0_nan", "k_inf", "state_dim_inf", "decimate_inf", "g_inf",
            "band_scale_nan", "band_scale_zero", "band_scale_negative",
            "consensus_tol_nan", "consensus_tol_zero", "consensus_tol_negative",
        ],
    )
    def test_bad_scenario_values_exit_1_with_one_line(self, tmp_path, capsys, patch, reason):
        path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.05}, **patch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be a second line
            rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and reason in err

    @pytest.mark.parametrize("field", ["k", "plant.N", "sim.decimate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "three"],
                             ids=["nan", "inf", "text"])
    def test_integer_field_exits_1_naming_it(self, tmp_path, capsys, field, value):
        path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.05, field: value})
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{field} must be an integer, got {value!r}" in err

    def test_boundary_layer_flag(self, tmp_path):
        path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.3})
        rc = main(
            [
                "simulate",
                "--scenario",
                str(path),
                "--out",
                str(tmp_path / "out"),
                "--boundary-layer",
                "0.01",
            ]
        )
        assert rc in (0, 2)
        assert (tmp_path / "out" / "telemetry.csv").exists()

    @pytest.mark.parametrize(
        "flag, expected",
        [(["--boundary-layer", "off"], None), (["--boundary-layer", "0.05"], 0.05), ([], 0.01)],
        ids=["off", "number", "not_given"],
    )
    def test_boundary_layer_flag_over_the_scenario_value(
        self, tmp_path, monkeypatch, flag, expected
    ):
        path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.05, "sim.boundary_layer": 0.01})
        seen = []

        def recording_prepare(sc):
            ts = prepare(sc)
            seen.append(ts.config.boundary_layer)
            return ts

        monkeypatch.setattr(scenario_cli, "prepare", recording_prepare)
        argv = ["simulate", "--scenario", str(path), "--out", str(tmp_path / "out"), *flag]
        assert main(argv) in (0, 2)
        assert seen == [expected]


class TestVerify:
    @pytest.fixture
    def short_run(self, tmp_path):
        path, _ = write_scenario(tmp_path, **{"sim.t_end": 6.0})
        out = tmp_path / "run"
        rc = main(["simulate", "--scenario", str(path), "--out", str(out)])
        assert rc == 0
        return path, out

    def test_verify_all_pass(self, short_run, tmp_path):
        path, out = short_run
        rc = main(
            [
                "verify",
                "--scenario",
                str(path),
                "--telemetry",
                str(out / "telemetry.csv"),
                "--out",
                str(tmp_path / "v"),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert report["all_pass"] is True
        statuses = {c["name"]: c["status"] for c in report["criteria"]}
        assert statuses["iss_envelope"] == "pass"
        assert statuses["error_bounded_after_input_convergence"] == "pass"

    def test_tampered_errx_fails_bounded_error_criterion(self, short_run, tmp_path):
        path, out = short_run
        csv_path = out / "telemetry.csv"
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("errx_1")
        # inflate a late state-error sample far above the band
        row = lines[-50].split(",")
        row[col] = repr(float(row[col]) * 10 + 1.0)
        lines[-50] = ",".join(row)
        tampered = tmp_path / "tampered.csv"
        tampered.write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "verify",
                "--scenario",
                str(path),
                "--telemetry",
                str(tampered),
                "--out",
                str(tmp_path / "v2"),
            ]
        )
        assert rc == 2
        report = json.loads((tmp_path / "v2" / "verify.json").read_text())
        statuses = {c["name"]: c["status"] for c in report["criteria"]}
        assert statuses["error_bounded_after_input_convergence"] == "fail"

    def test_schema_mismatch_exits_1(self, short_run, tmp_path):
        path, out = short_run
        csv_path = out / "telemetry.csv"
        lines = csv_path.read_text().splitlines()
        # drop the final column wholesale
        lines = [",".join(line.split(",")[:-1]) for line in lines]
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "verify",
                "--scenario",
                str(path),
                "--telemetry",
                str(broken),
                "--out",
                str(tmp_path / "v3"),
            ]
        )
        assert rc == 1


def _judged(patch=None, t_end=0.3):
    """A short reproduction run, tuned and simulated, with ``patch`` applied
    to the scenario's top-level sections."""
    raw = dict(short_reproduction(t_end), **(patch or {}))
    ts = prepare(load_scenario(raw))
    return ts, run(ts.config)


def _criteria(ts, tel) -> dict:
    return {c["name"]: c for c in scenario_cli.evaluate_criteria(ts, tel)}


@pytest.mark.parametrize("raw", [short_reproduction(0.3), chorded_ring(0.3)],
                         ids=["reproduction", "chorded_ring"])
def test_run_is_judged_as_its_columns_are(raw):
    # simulate and sweep judge the run's own Telemetry; verify judges the
    # columns read back. The reports are the same.
    ts = prepare(load_scenario(raw))
    tel = run(ts.config)
    own = scenario_cli._judge(ts, tel)
    assert json.dumps(own, sort_keys=True) == json.dumps(
        scenario_cli.verification_report(ts, telemetry_columns(tel)), sort_keys=True)


def test_verification_report_refuses_columns_not_the_scenarios():
    ts, tel = _judged()
    cols = telemetry_columns(tel)
    del cols["v_1_1"]
    with pytest.raises(TelemetryError, match="^telemetry schema does not match the scenario$"):
        scenario_cli.verification_report(ts, cols)


class TestReportBranches:
    """Each branch of the per-agent verdicts: who is the worst agent, and
    what the bound audit says when a bound or a sample is missing."""

    @pytest.fixture(scope="class")
    def judged(self):
        return _judged()

    def test_undetected_active_agent_has_no_margin_and_fails(self, judged):
        ts, tel = judged
        # Agent 1 would have the smallest margin, but agent 2 is the first
        # active agent that never converged; agent 4 never converged either.
        bound = ts.cert.T_x
        obs = np.array([bound[0], np.nan, 0.0, np.nan])
        crit = _criteria(ts, dataclasses.replace(tel, T_x_obs=obs))
        state = crit["state_time_within_certificate"]
        assert state["status"] == "fail"
        assert state["worst"] == {"agent": 2, "observed": None, "bound": bound[1]}
        assert crit["state_band_permanence"]["status"] == "fail"

    def test_equal_margins_name_the_lowest_agent(self, judged):
        ts, tel = judged
        cert = dataclasses.replace(ts.cert, T_x=np.full(4, 1.0))
        obs = np.array([0.5, 0.9, 0.9, 0.2])  # margins 0.5, 0.1, 0.1, 0.8
        crit = _criteria(dataclasses.replace(ts, cert=cert),
                         dataclasses.replace(tel, T_x_obs=obs))
        state = crit["state_time_within_certificate"]
        assert state["status"] == "pass"
        assert state["worst"] == {"agent": 2, "observed": 0.9, "bound": 1.0,
                                  "margin": 1.0 - 0.9}

    def test_inactive_agents_are_not_judged(self, judged):
        ts, tel = judged
        # Agent 1 runs no observer, so its late (and missing) times do not count.
        eta = np.array([0, 1, 1, 2])
        crit = _criteria(ts, dataclasses.replace(
            tel, eta=eta, T_x_obs=np.array([np.nan, 0.1, 0.1, 0.1]),
            T_u_obs=np.array([1e9, 0.1, 0.1, 0.1])))
        assert crit["state_time_within_certificate"]["worst"]["agent"] > 1
        assert crit["input_time_within_certificate"]["worst"]["agent"] > 1
        assert crit["state_band_permanence"]["status"] == "pass"

    def test_no_active_agent_passes_with_no_worst(self, judged):
        ts, tel = judged
        crit = _criteria(ts, dataclasses.replace(tel, eta=np.zeros(4, dtype=int)))
        for name in ("state_time_within_certificate", "input_time_within_certificate"):
            assert crit[name]["status"] == "pass"
            assert crit[name]["worst"] is None

    def test_input_time_not_certified_without_d_udot(self, judged):
        # Without d_udot no pi is tuned, so the run is the default one's.
        _, tel = judged
        ts = prepare(load_scenario(dict(short_reproduction(), bounds={"d_u": 1.0})))
        assert ts.cert is not None and ts.cert.T_u is None
        crit = _criteria(ts, tel)
        assert crit["input_time_within_certificate"] == {
            "name": "input_time_within_certificate", "status": "not_certified"}
        assert crit["state_time_within_certificate"]["status"] in ("pass", "fail")
        report = scenario_cli.gain_report(ts)
        assert all(row["psi"] is None and row["T_u_bound"] is None
                   for row in report["per_agent"])
        assert report["T_u"] is None and report["T_xu"] is None

    def test_one_sample_has_no_input_derivative(self, judged):
        ts, tel = judged
        one = dataclasses.replace(tel, times=tel.times[:1], inputs=tel.inputs[:1],
                                  erru=tel.erru[:1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            audit = scenario_cli.bound_audit(ts, one)
        for i, row in enumerate(audit["per_agent"]):
            assert row["max_udot_norm"] == 0.0
            assert row["within_d_udot"] is True
            assert row["max_u_norm"] == float(np.linalg.norm(tel.inputs[0, i]))
            assert row["max_tilde_u_norm"] == float(tel.erru[0, i])

    def test_audit_judges_a_declared_input_bound(self):
        ts, tel = _judged({"bounds": {"d_u": [0.5, 0.0, 0.5, 1.0], "d_udot": 1.0,
                                      "d_tilde_u": 0.5}})
        audit = scenario_cli.bound_audit(ts, tel)
        assert audit["informational"] is True
        rows = audit["per_agent"]
        assert [row["agent"] for row in rows] == [1, 2, 3, 4]
        u_max = np.linalg.norm(tel.inputs, axis=2).max(axis=0)
        for row, d_u, top, err in zip(rows, [0.5, 0.0, 0.5, 1.0], u_max, tel.erru.max(axis=0)):
            assert row["d_u"] == d_u and row["max_u_norm"] == float(top)
            assert row["within_d_u"] is bool(top <= d_u)
            assert row["d_tilde_u"] == 0.5 and row["within_d_tilde_u"] is bool(err <= 0.5)
            assert row["d_udot"] == 1.0 and isinstance(row["within_d_udot"], bool)
        assert rows[1]["within_d_u"] is False
        without = scenario_cli.bound_audit(*_judged())["per_agent"]
        assert all(row["d_u"] is None and row["within_d_u"] is None for row in without)

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_nonfinite_values_are_reported_as_null(self, kind):
        # NaN marks a value a report does not have; strict JSON has no inf.
        values = [kind(v) for v in ("nan", "inf", "-inf", "0.5")]
        doc = scenario_cli._jsonable(
            {"row": values, "array": np.array(values), "one": values[2]})
        assert doc == {"row": [None, None, None, 0.5], "array": [None, None, None, 0.5],
                       "one": None}
        assert type(doc["row"][3]) is float and type(doc["array"][3]) is float
        assert json.loads(json.dumps(doc, allow_nan=False)) == doc


class TestUnusableTelemetry:
    """``verify`` refuses a record it cannot judge with exit 1 and one line,
    and numpy adds none."""

    def verify(self, tmp_path, capsys, body, header=lambda line: line) -> tuple:
        path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.05})
        # Too short to converge: the criteria fail, but the CSV is whole.
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 2
        lines = (tmp_path / "run" / "telemetry.csv").read_text().splitlines()
        hostile = tmp_path / "hostile.csv"
        hostile.write_text("\n".join([header(lines[0]), *body(lines[1:])]) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["verify", "--scenario", str(path), "--telemetry", str(hostile),
                       "--out", str(tmp_path / "v")])
        assert not (tmp_path / "v").exists()
        return rc, capsys.readouterr().err

    def test_header_only(self, tmp_path, capsys):
        rc, err = self.verify(tmp_path, capsys, lambda rows: [])
        assert rc == 1
        assert err == "cannot read telemetry: telemetry holds no samples\n"

    def test_repeated_row(self, tmp_path, capsys):
        rc, err = self.verify(tmp_path, capsys, lambda rows: [rows[0], rows[0]])
        assert rc == 1
        assert err == "cannot read telemetry: telemetry time t does not increase at sample 2\n"

    def test_nan_time(self, tmp_path, capsys):
        def nan_time(rows):
            rows[2] = "nan" + rows[2][rows[2].index(","):]
            return rows
        rc, err = self.verify(tmp_path, capsys, nan_time)
        assert rc == 1
        assert err == "cannot read telemetry: telemetry time t is not finite at sample 3\n"

    def test_duplicate_column(self, tmp_path, capsys):
        # A dict of columns would keep the later x_1_1 and judge it.
        rc, err = self.verify(tmp_path, capsys, lambda rows: [row + ",0.9" for row in rows],
                              header=lambda line: line + ",x_1_1")
        assert rc == 1
        assert err == "cannot read telemetry: telemetry CSV malformed: duplicate column x_1_1\n"

    @pytest.mark.parametrize("edit", [lambda line: line[: line.rindex(",")],
                                      lambda line: line + ",0.9"], ids=["missing", "extra"])
    def test_columns_not_the_scenarios(self, tmp_path, capsys, edit):
        # The last column (v_4_2) dropped, or one named "0.9" added.
        rc, err = self.verify(tmp_path, capsys, lambda rows: list(map(edit, rows)), edit)
        assert rc == 1
        assert err == "cannot read telemetry: telemetry schema does not match the scenario\n"


class TestSweep:
    def test_grid_runs_and_reports_unreachable_cells(self, tmp_path, capsys):
        path, _ = write_scenario(tmp_path, **{"sim.t_end": 1.5})
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"pi_scale": [0.5, 1.0], "k": [2, 3]}))
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--scenario",
                str(path),
                "--grid",
                str(grid),
                "--out",
                str(out),
                "--jobs",
                "2",
            ]
        )
        assert rc == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[0].split(",")[:2] == ["pi_scale", "k"]
        assert len(lines) == 5
        rows = {}
        for line in lines[1:]:
            parts = line.split(",")
            rows[(parts[0], parts[1])] = parts[2]
        # hop horizon 2 cannot realize the {1,4} target edge
        assert rows[("0.5", "2")] == "error"
        assert rows[("1.0", "2")] == "error"
        assert rows[("0.5", "3")] in ("pass", "fail")
        assert rows[("1.0", "3")] in ("pass", "fail")

    def test_invalid_cell_fails_alone(self, tmp_path, capsys):
        path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.2})
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"k": [1, 3]}))
        out = tmp_path / "sweep"
        rc = main(
            ["sweep", "--scenario", str(path), "--grid", str(grid), "--out", str(out),
             "--jobs", "1"]
        )
        assert rc == 0
        with open(out / "sweep_summary.csv", newline="") as fh:
            rows = {row["k"]: row for row in csv.DictReader(fh)}
        assert rows["1"]["status"] == "error" and "hop horizon" in rows["1"]["error"]
        assert rows["3"]["status"] in ("pass", "fail") and rows["3"]["error"] == ""

    def test_bad_grid_values_fail_alone_naming_the_field(self, tmp_path, capsys):
        path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.05})
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"k": [3, 3.7], "dt": [1e-3, "x"]}))
        out = tmp_path / "sweep"
        rc = main(["sweep", "--scenario", str(path), "--grid", str(grid), "--out", str(out),
                   "--jobs", "1"])
        assert rc == 0
        with open(out / "sweep_summary.csv", newline="") as fh:
            rows = {(row["dt"], row["k"]): row for row in csv.DictReader(fh)}
        assert set(rows) == {("0.001", "3"), ("0.001", "3.7"), ("x", "3"), ("x", "3.7")}
        assert rows[("0.001", "3")]["status"] in ("pass", "fail")
        assert rows[("0.001", "3")]["error"] == ""
        for cell, reason in ((("0.001", "3.7"), "k must be an integer, got 3.7"),
                             (("x", "3"), "sim.dt must be a number, got 'x'"),
                             (("x", "3.7"), "k must be an integer, got 3.7")):
            assert rows[cell]["status"] == "error" and reason in rows[cell]["error"], cell

    @pytest.mark.parametrize(
        "grid, reason",
        [
            ({"dt": 0.001}, "grid 'dt' must be a non-empty list"),
            ({"k": []}, "grid 'k' must be a non-empty list"),
            (5, "grid must be a JSON object"),
            ([{"dt": [0.001]}], "grid must be a JSON object"),
        ],
        ids=["scalar_value", "empty_list", "number", "list"],
    )
    def test_malformed_grid_exits_1_with_one_line(self, tmp_path, capsys, grid, reason):
        path, _ = write_scenario(tmp_path)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        rc = main(["sweep", "--scenario", str(path), "--grid", str(grid_path),
                   "--out", str(tmp_path / "sweep")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and reason in err

    def test_a_cell_out_of_memory_fails_alone(self, tmp_path, capsys, monkeypatch):
        # A grid dt whose log cannot be allocated raises MemoryError in run;
        # mock that instead of allocating.
        real_run = scenario_cli.plant_sim.run

        def run_or_fail(config):
            if config.dt < 1e-3:
                raise MemoryError("Unable to allocate the telemetry log")
            return real_run(config)

        monkeypatch.setattr(scenario_cli.plant_sim, "run", run_or_fail)
        path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.01})
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"dt": [1e-3, 1e-4]}))
        out = tmp_path / "sweep"
        rc = main(["sweep", "--scenario", str(path), "--grid", str(grid), "--out", str(out),
                   "--jobs", "1"])
        assert rc == 0
        with open(out / "sweep_summary.csv", newline="") as fh:
            rows = {row["dt"]: row for row in csv.DictReader(fh)}
        assert rows["0.0001"]["status"] == "error"
        assert rows["0.0001"]["error"] == "MemoryError: Unable to allocate the telemetry log"
        assert rows["0.001"]["status"] in ("pass", "fail") and rows["0.001"]["error"] == ""

    def test_a_dead_worker_stops_the_sweep_with_one_line(self, tmp_path, capsys, monkeypatch):
        # A killed worker breaks the pool; mock the pool instead of killing one.
        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                raise BrokenProcessPool("A process in the process pool was terminated abruptly")

        monkeypatch.setattr(scenario_cli, "ProcessPoolExecutor", BrokenPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.01})
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"pi_scale": [0.5, 1.0]}))
        out = tmp_path / "sweep"
        rc = main(["sweep", "--scenario", str(path), "--grid", str(grid), "--out", str(out),
                   "--jobs", "2"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "worker process died" in captured.err
        assert captured.out == "" and not (out / "sweep_summary.csv").exists()

    def test_pool_gets_no_more_workers_than_cells(self, tmp_path, capsys, monkeypatch):
        # Under fork the pool starts all its workers at once; record the
        # worker count instead of starting processes.
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(scenario_cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.01})
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"pi_scale": [0.5, 1.0]}))
        argv = ["sweep", "--scenario", str(path), "--grid", str(grid),
                "--out", str(tmp_path / "sweep")]
        assert main(argv) == 0  # default --jobs 4
        assert main([*argv, "--jobs", "1"]) == 0
        grid.write_text(json.dumps({"pi_scale": [1.0]}))
        assert main([*argv, "--jobs", "3"]) == 0
        assert started == [2]
        # Nor more than the usable CPUs, whatever --jobs asks for.
        grid.write_text(json.dumps({"pi_scale": [0.25, 0.5, 1.0, 2.0]}))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert main([*argv, "--jobs", "500"]) == 0
        assert main(argv) == 0  # default --jobs 4
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert main([*argv, "--jobs", "500"]) == 0
        assert started == [2, 3, 3]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_1(self, tmp_path, capsys, jobs):
        path, _ = write_scenario(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"pi_scale": [0.5, 1.0]}))
        rc = main(["sweep", "--scenario", str(path), "--grid", str(grid),
                   "--out", str(tmp_path / "sweep"), "--jobs", jobs])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--jobs must be >= 1" in err

    def test_unknown_grid_key_rejected(self, tmp_path):
        path, _ = write_scenario(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"g": [10, 20]}))
        rc = main(
            ["sweep", "--scenario", str(path), "--grid", str(grid), "--out", str(tmp_path)]
        )
        assert rc == 1


@pytest.mark.parametrize(
    "patch, flags, reason",
    [
        ({"k": 2.9}, [], "k must be an integer, got 2.9"),
        ({"sim.decimate": 7.5}, [], "sim.decimate must be an integer, got 7.5"),
        ({"plant.N": True}, [], "plant.N must be an integer, got True"),
        ({"sim.t_end": True}, [], "sim.t_end must be a number, got True"),
        ({"sim.dt": "1e-3"}, [], "sim.dt must be a number, got '1e-3'"),
        ({"gains.omega_slack": -5}, [],
         "gains.omega_slack must be non-negative and finite, got -5.0"),
        ({"plant.l_f": float("nan")}, [], "l_f must be finite and >= 0, got nan"),
        ({"graph.n": 4.5}, [], "graph.n must be an integer, got 4.5"),
        ({"sim.state_box": [float("nan"), 1]}, [], "sim.state_box must be finite, got (nan, 1.0)"),
        ({"bounds.inferred": "no"}, [], "bounds.inferred must be true or false, got 'no'"),
        ({"sim.conv_eps": float("inf")}, [], "sim.conv_eps must be positive and finite, got inf"),
        ({"sim.boundary_layer": float("inf")}, [],
         "sim.boundary_layer must be positive and finite, got inf"),
        ({"gains.theta_scale": -1}, [], "gains.theta_scale must be non-negative and finite"),
        ({"graph.edges": [["a", 2], [2, 3], [3, 4]]}, [],
         "graph.edges must be a list of [i, j] integer pairs"),
        ({"sim.x0": {"lo": 0.2}}, [], "sim.x0 must be per-agent rows or {low, high}"),
        ({"graph.n": 10**12}, [], "graph on 1000000000000 agents is not connected"),
        ({}, ["--decimate", "7.5"], "--decimate must be an integer, got 7.5"),
        ({}, ["--seed", "-1"], "--seed must be non-negative, got -1"),
        ({}, ["--boundary-layer", "0"], "--boundary-layer must be positive and finite, got 0.0"),
        ({}, ["--slack", "x"], "--slack must be a number, got 'x'"),
    ],
    ids=[
        "k_fraction", "decimate_fraction", "state_dim_bool", "t_end_bool", "dt_text",
        "omega_slack_negative", "l_f_nan", "n_fraction", "state_box_nan", "inferred_text",
        "conv_eps_inf", "boundary_layer_inf", "theta_scale_negative", "edge_text",
        "x0_misspelt", "n_huge", "decimate_flag", "seed_flag", "boundary_layer_flag", "slack_flag",
    ],
)
def test_silently_coerced_values_exit_1_naming_the_field(tmp_path, capsys, patch, flags, reason):
    path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.05, **patch})
    rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out"), *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and reason in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under_a_file", [False, True], ids=["is_a_file", "under_a_file"])
def test_unusable_out_path_exits_1_with_one_line(tmp_path, capsys, under_a_file):
    path, _ = write_scenario(tmp_path, **{"sim.t_end": 0.05})
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub" if under_a_file else blocker
    for command in ("tune", "simulate"):
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(blocker) in err, err


def test_readme_field_table_matches_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    for path, kind, constraint, default in SCHEMA:
        shown = ("required" if default is scenario_cli.REQUIRED
                 else "—" if default is None else f"`{json.dumps(default)}`")
        assert f"| `{path}` | {kind} | {constraint or '—'} | {shown} |" in section, path


def test_readme_library_layout_names_exist():
    # Every backticked name in a row of the table is an attribute of the
    # row's module, so a renamed or deleted one cannot linger there.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `khopsim\.(\w+)` \| (.*) \|$", section, flags=re.M)
    assert [module for module, _ in rows] == [
        "graph_khop", "dense_linalg", "gain_tuning", "khop_observer", "float_repr", "plant_sim",
        "scenario_cli"]
    for module, text in rows:
        names = [name for name in re.findall(r"`([^`]+)`", text) if name.isidentifier()]
        assert names, module
        for name in names:
            assert hasattr(importlib.import_module(f"khopsim.{module}"), name), (module, name)


def _identifiers(path: Path, strings: bool = False) -> set:
    """The names a module's code uses: variables, attributes and imports,
    plus the words of its string constants when ``strings`` is set."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
    return names


def test_no_public_name_only_the_tests_use():
    # Every public top-level function and class of the package, and every
    # public method, is used by the package's own code (the re-exports of
    # __init__ do not count), named by perfbench (in code or in a string,
    # as its traced layer names are), or listed in README's "Library
    # layout" table. Anything else is API that only the tests call.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    used = set(re.findall(r"`(\w+)`", section)).union(
        *(_identifiers(p, strings=True) for p in (root / "perfbench").glob("*.py")),
        *(_identifiers(p) for p in (root / "src" / "khopsim").glob("*.py")
          if p.name != "__init__.py"))
    unused = []
    for path in sorted((root / "src" / "khopsim").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            names = [node.name] + [m.name for m in members
                                   if isinstance(m, ast.FunctionDef) and m.name[0] != "_"]
            unused += [f"{path.stem}.{name}" for name in names if name not in used]
    assert unused == []


def test_readme_report_keys_match_the_reports():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Reports", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, flags=re.M)
    added = [key for key, text in rows if text.startswith("added: ")]
    ts, tel = _judged(t_end=0.05)
    gains = scenario_cli.gain_report(ts)
    report = scenario_cli.verification_report(ts, telemetry_columns(tel))
    assert [key for key, _ in rows if key not in added] == list(gains)
    assert added == [key for key in report if key not in gains]


def test_usage_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["tune", "--scenario", str(missing), "--out", str(tmp_path)]) == 1
    path, _ = write_scenario(tmp_path)
    for argv in (
        ["tune", "--out", str(tmp_path)],
        ["tune", "--scenario", str(path), "--seed", "abc"],
        ["sweep", "--scenario", str(path), "--grid", str(path), "--slack", "1"],
        ["reproduce-paper", "--out", str(tmp_path), "--seed", "1"],
    ):
        assert main(argv) == 1, argv
    assert main(["--help"]) == 0
    assert main(["simulate", "--help"]) == 0


HOSTILE_FIELDS = [tuple(path.split(".")) for path, *_ in SCHEMA]
HOSTILE_VALUES = [None, 0, -1, float("nan"), float("inf"), "bogus", [1.0, 2.0, 3.0],
                  True, 2.5, "1e-3"]


# Hypothesis stops once it has tried every (field, value) pair.
@settings(max_examples=len(HOSTILE_FIELDS) * len(HOSTILE_VALUES), deadline=None)
@given(st.sampled_from(HOSTILE_FIELDS), st.sampled_from(HOSTILE_VALUES))
def test_simulate_survives_hostile_field_values(field_path, value):
    raw = json.loads(json.dumps(REPRODUCTION_SCENARIO))
    raw["sim"]["t_end"] = 0.05
    section = raw
    for key in field_path[:-1]:
        section = section.setdefault(key, {})
    section[field_path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["simulate", "--scenario", str(path), "--out", str(Path(tmp) / "out")])
            tune_err = io.StringIO()
            with contextlib.redirect_stderr(tune_err):
                tune_rc = main(["tune", "--scenario", str(path), "--out", str(Path(tmp) / "tune")])
            if tune_rc == 0:
                # A certificate is only written with a finite bound and a
                # finite, positive omega for every agent that runs an observer.
                report = json.loads((Path(tmp) / "tune" / "gains.json").read_text())
                for row in report["per_agent"]:
                    bound, omega = row["T_x_bound"], row["omega"]
                    assert row["eta"] == 0 or (bound is not None and np.isfinite(bound)), row
                    assert row["eta"] == 0 or (omega is not None and 0 < omega < np.inf), row
    assert rc in (0, 1, 2, 3)
    assert tune_rc in (0, 1, 2)
    if rc == 1:
        assert err.getvalue().count("\n") == 1
    if tune_rc == 1:
        assert tune_err.getvalue().count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [("plant.l_f", 1e154), ("gains.omega_slack", 1e154), ("gains.slack", 1e300),
     ("gains.theta_scale", 1e300), ("gains.pi_scale", 1e300)],
)
def test_divergence_exit_prints_no_numpy_warning(tmp_path, capsys, field, value):
    # Gains this large overflow within a few steps. The run detects that
    # itself, so numpy must not add warning lines to the two it prints.
    path, _ = write_scenario(tmp_path, **{field: value, "sim.t_end": 0.05})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 3
    assert len(lines) == 2, lines
    assert lines[0] == f"partial telemetry retained: {tmp_path / 'out' / 'telemetry.csv'}"
    assert lines[1].startswith("divergence: ")


def _openblas_with_dynamic_arch() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no ``mode``, or no BLAS entry
        return False
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _openblas_with_dynamic_arch(),
                    reason="needs an OpenBLAS that picks its kernels per CPU (DYNAMIC_ARCH)")
def _digests_under_blas_kernels(tmp_path, scenario, names):
    # OpenBLAS built with DYNAMIC_ARCH picks its kernels for the CPU it runs
    # on, and OPENBLAS_CORETYPE forces one; their dot products round
    # differently. Runs the tune and simulate commands under the CPU's own
    # kernels and under Prescott's, and hashes the named outputs.
    src = Path(scenario_cli.__file__).resolve().parents[1]
    digests = []
    for coretype in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / (coretype or "native")
        for command in ("tune", "simulate"):
            subprocess.run([sys.executable, "-m", "khopsim.scenario_cli", command,
                            "--scenario", str(scenario), "--out", str(out)],
                           env=env, check=False, capture_output=True)
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in names})
    return digests


def test_outputs_are_the_same_bytes_under_any_blas_kernel(tmp_path):
    # The gains, the error norms and the consensus distance take no BLAS
    # call, so a run on a reproduction cut to 2 s writes the same files.
    scenario, _ = write_scenario(tmp_path, **{"sim.t_end": 2.0})
    digests = _digests_under_blas_kernels(
        tmp_path, scenario, ("telemetry.csv", "report.json", "gains.json"))
    assert digests[0] == digests[1]


def test_chorded_ring_gains_and_csv_are_the_same_under_any_blas_kernel(tmp_path):
    # The reproduction's 1x1 and 2x2 coupling matrices give the same LAPACK
    # bits under every kernel; the chorded ring's do not. Its gains come
    # from the Jacobi solver and its CSV from no BLAS call, so both keep
    # their bytes. report.json is left out: its lambda2 is LAPACK's.
    scenario = tmp_path / "ring.json"
    scenario.write_text(json.dumps(chorded_ring(0.3)), encoding="utf-8")
    digests = _digests_under_blas_kernels(tmp_path, scenario, ("telemetry.csv", "gains.json"))
    assert digests[0] == digests[1]

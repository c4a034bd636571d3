"""End-to-end command-line runs on small chains."""

import csv
import json

import numpy as np
import pytest
import yaml

from cavising import correlation
from cavising.cli import main
from cavising.meanfield import SearchSpec, minimize_phi, normal_phase_onset
from cavising.model import ChainSpec, IsingProfile, ModeSet


def base_model():
    return {
        "N": 12,
        "E_z": 0.8,
        "E_c": 8.0,
        "ising": {"kind": "uniform", "J": 0.1},
        "modes": [2],
        "lambda0": 0.3,
    }


def write_config(tmp_path, raw, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return str(path)


def solve_config(tmp_path, out_name="out"):
    return {
        "model": base_model(),
        "task": {"kind": "solve"},
        "output": {"dir": str(tmp_path / out_name), "format": "csv"},
        "search": {"coarse_points": 41},
    }


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestSolve:
    def test_writes_state(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config(tmp_path))
        assert main(["solve", "--config", cfg]) == 0
        state = load_json(tmp_path / "out" / "state.json")
        for key in ("N", "modes", "lambda0", "phi_g", "Sigma_x", "e_gg",
                    "degenerate", "sector", "Omega", "theta", "generated_at"):
            assert key in state
        assert state["N"] == 12
        assert state["modes"] == [2]
        assert state["sector"] == "even"
        assert len(state["phi_g"]) == 1
        assert len(state["Omega"]) == 12
        assert "e_gg" in capsys.readouterr().out

    def test_deterministic_modulo_timestamp(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(tmp_path))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        first = load_json(tmp_path / "a" / "state.json")
        second = load_json(tmp_path / "b" / "state.json")
        first.pop("generated_at")
        second.pop("generated_at")
        assert first == second

    def test_dump_spectrum_flag(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(tmp_path))
        assert main(["solve", "--config", cfg, "--dump-spectrum"]) == 0
        header, rows = read_table(tmp_path / "out" / "spectrum.csv")
        assert header == ["k", "Lambda"]
        assert len(rows) == 12
        energies = [float(r[1]) for r in rows]
        assert energies == sorted(energies)
        assert all(e > 0 for e in energies)

    def test_dump_spectrum_from_config_as_json(self, tmp_path):
        raw = solve_config(tmp_path)
        raw["task"]["dump_spectrum"] = True
        cfg = write_config(tmp_path, raw)
        assert main(["solve", "--config", cfg, "--format", "json"]) == 0
        spectrum = load_json(tmp_path / "out" / "spectrum.json")
        assert len(spectrum) == 12
        assert set(spectrum[0]) == {"k", "Lambda"}

    def test_missing_lambda0_is_a_config_error(self, tmp_path, capsys):
        raw = solve_config(tmp_path)
        del raw["model"]["lambda0"]
        cfg = write_config(tmp_path, raw)
        assert main(["solve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "lambda0" in err


class TestSweep:
    def test_long_format_table(self, tmp_path, capsys):
        raw = solve_config(tmp_path)
        del raw["model"]["lambda0"]
        raw["task"] = {"kind": "sweep", "axis": "lambda0", "values": [0.05, 0.2]}
        cfg = write_config(tmp_path, raw)
        assert main(["sweep", "--config", cfg]) == 0
        header, rows = read_table(tmp_path / "out" / "sweep.csv")
        assert header == ["lambda0", "mode", "phi_g"]
        assert len(rows) == 2
        assert [r[1] for r in rows] == ["2", "2"]
        assert all(float(r[2]) == 0.0 for r in rows)
        summary = load_json(tmp_path / "out" / "sweep_summary.json")
        assert [rec["status"] for rec in summary["records"]] == ["ok", "ok"]
        assert "2 points (2 ok)" in capsys.readouterr().out

    def test_subcommand_must_match_task(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config(tmp_path))
        assert main(["sweep", "--config", cfg]) == 1
        assert "task.kind" in capsys.readouterr().err


class TestCorrelations:
    def test_tables(self, tmp_path):
        raw = solve_config(tmp_path)
        raw["task"] = {"kind": "correlations", "n_max": 4}
        cfg = write_config(tmp_path, raw)
        assert main(["correlations", "--config", cfg]) == 0

        header, rows = read_table(tmp_path / "out" / "correlations.csv")
        assert header == ["j", "sigma_z_rot", "sigma_z_lab", "sigma_x_lab",
                          "xi_R", "xi_L", "xi_RL"]
        assert len(rows) == 12
        assert [int(r[0]) for r in rows] == list(range(12))
        sz = np.array([float(r[1]) for r in rows])
        assert np.all(sz > 0.9) and np.all(sz <= 1.0)
        xi_r = np.array([float(r[4]) for r in rows])
        xi_l = np.array([float(r[5]) for r in rows])
        np.testing.assert_allclose(xi_r, xi_l, atol=1e-10)

        header, rows = read_table(tmp_path / "out" / "rho.csv")
        assert header == ["j", "n", "rho"]
        assert len(rows) == 12 * 4
        assert sorted({int(r[1]) for r in rows}) == [1, 2, 3, 4]

    @pytest.mark.parametrize("J, saturated", [(0.1, False), (1.0, True)])
    def test_rho_table_equals_yy_table(self, tmp_path, monkeypatch, J, saturated):
        # a ferromagnetic ring's walks reach n_max, so the report already holds
        # the full table; the paramagnet's stop early and take a second pass
        raw = solve_config(tmp_path)
        raw["model"]["ising"]["J"] = J
        raw["task"] = {"kind": "correlations", "n_max": 4}
        raw["output"]["format"] = "json"  # exact floats, where CSV keeps 12 digits
        cfg = write_config(tmp_path, raw)
        real = correlation.yy_table
        tables = []

        def spied(G, n_max):
            tables.append(n_max)
            return real(G, n_max)

        monkeypatch.setattr(correlation, "yy_table", spied)
        assert main(["correlations", "--config", cfg]) == 0
        assert tables == ([] if saturated else [4])

        chain = ChainSpec(N=12, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(J))
        modeset = ModeSet(modes=(2,), lambda0=0.3, N=12, E_c=8.0)
        state = minimize_phi(chain, modeset, SearchSpec(coarse_points=41))
        report = correlation.correlation_report(chain, modeset, state.phi, n_max=4)
        expected = real(report.G, 4)
        written = load_json(tmp_path / "out" / "rho.json")
        assert {(r["j"], r["n"]): r["rho"] for r in written} == expected
        assert [(r["j"], r["n"]) for r in written] == sorted(expected)


class TestPhaseDiagramCommand:
    def test_small_grid_without_classifiers(self, tmp_path):
        raw = solve_config(tmp_path)
        raw["model"]["ising"] = {
            "kind": "rectangular",
            "J_max": 0.2,
            "J_min": 0.01,
            "period": 2,
        }
        del raw["model"]["lambda0"]
        raw["task"] = {
            "kind": "phase-diagram",
            "lambda0": [0.05, 0.2],
            "J_min": [0.01],
            "delta_J": 0.1,
            "magnetic": False,
            "order": False,
        }
        cfg = write_config(tmp_path, raw)
        assert main(["phase-diagram", "--config", cfg]) == 0

        header, rows = read_table(tmp_path / "out" / "phase_diagram.csv")
        assert header == ["E_z", "J_min", "J_max", "lambda0", "label", "field_phase",
                          "transition_order", "magnetic_order", "e_g", "status"]
        assert len(rows) == 2
        assert all(r[-1] == "ok" for r in rows)
        assert all(r[4] == "N?" for r in rows)

        boundary = load_json(tmp_path / "out" / "boundary.json")
        assert len(boundary["columns"]) == 1
        assert boundary["columns"][0]["transition_order"] == "none"
        assert boundary["columns"][0]["status"] == "ok"
        # the onset lies above the grid, but phi = 0 still has a spinodal
        column_chain = ChainSpec(
            N=12, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.11, 0.01, 2)
        )
        assert boundary["columns"][0]["lambda_spinodal"] == pytest.approx(
            normal_phase_onset(column_chain, (2,)), rel=1e-12
        )
        # no onset was bracketed, so the bisection read no crossing
        assert boundary["columns"][0]["lambda_crossing"] is None
        assert boundary["crossover"] == [{"E_z": 0.8, "J_min": None}]


class TestValidate:
    def test_quick_pass(self, tmp_path, capsys):
        raw = solve_config(tmp_path)
        raw["task"] = {
            "kind": "validate",
            "instances": 3,
            "N": 6,
            "seed": 11,
            "max_distance": 2,
        }
        cfg = write_config(tmp_path, raw)
        assert main(["validate", "--config", cfg]) == 0
        out = load_json(tmp_path / "out" / "validate.json")
        assert out["passed"] is True
        assert out["worst"]["energy"] <= 1e-9
        assert len(out["instances"]) == 3
        assert "validate: 3 instances" in capsys.readouterr().out

    def test_impossible_tolerance_fails(self, tmp_path, capsys):
        raw = solve_config(tmp_path)
        raw["task"] = {
            "kind": "validate",
            "instances": 2,
            "N": 5,
            "seed": 11,
            "max_distance": 2,
            "energy_tol": 0.0,
            "expectation_tol": 0.0,
        }
        cfg = write_config(tmp_path, raw)
        assert main(["validate", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err
        out = load_json(tmp_path / "out" / "validate.json")
        assert out["passed"] is False


class TestUsage:
    def test_missing_config_flag(self, tmp_path, capsys):
        assert main(["solve"]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

    def test_threads_flag_is_a_usage_error(self, tmp_path, capsys):
        # sweeps run serially; there is no worker-thread option
        cfg = write_config(tmp_path, solve_config(tmp_path))
        assert main(["solve", "--config", cfg, "--threads", "2"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unreadable_config(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.yaml")
        assert main(["solve", "--config", missing]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_out_flag_overrides_config_dir(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(tmp_path, out_name="unused"))
        target = tmp_path / "elsewhere"
        assert main(["solve", "--config", cfg, "--out", str(target)]) == 0
        assert (target / "state.json").exists()
        assert not (tmp_path / "unused").exists()

"""Config-file parsing: strict keys, defaults, grids and overrides."""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from cavising.config import (
    ConfigError,
    CorrelationsTask,
    PhaseDiagramTask,
    SolveTask,
    SweepTask,
    ValidateTask,
    load_run_config,
)


def base_config():
    """A minimal valid solve config; tests mutate copies of this."""
    return {
        "model": {
            "N": 12,
            "E_z": 0.8,
            "E_c": 8.0,
            "ising": {"kind": "uniform", "J": 0.1},
            "modes": [2],
            "lambda0": 0.3,
        },
        "task": {"kind": "solve"},
        "output": {"dir": "results", "format": "csv"},
    }


def write_config(tmp_path, raw, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return str(path)


def load(tmp_path, raw):
    return load_run_config(write_config(tmp_path, raw))


class TestModelBlock:
    def test_full_parse(self, tmp_path):
        cfg = load(tmp_path, base_config())
        assert cfg.chain.N == 12
        assert cfg.chain.E_z == 0.8
        assert cfg.chain.E_c == 8.0
        np.testing.assert_array_equal(cfg.chain.bonds(), np.full(12, 0.1))
        assert cfg.modes == (2,)
        assert cfg.lambda0 == 0.3
        assert isinstance(cfg.task, SolveTask)
        assert cfg.search is None
        assert cfg.thresholds is None
        assert cfg.output_dir == "results"
        assert cfg.output_format == "csv"

    def test_defaults(self, tmp_path):
        raw = base_config()
        for key in ("N", "E_z", "E_c", "lambda0"):
            del raw["model"][key]
        del raw["output"]
        cfg = load(tmp_path, raw)
        assert cfg.chain.N == 200
        assert cfg.chain.E_z == 0.8
        assert cfg.chain.E_c == 8.0
        assert cfg.lambda0 is None
        assert cfg.output_dir == "out"
        assert cfg.output_format == "csv"

    def test_json_is_accepted(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(base_config()), encoding="utf-8")
        cfg = load_run_config(str(path))
        assert cfg.chain.N == 12

    def test_rectangular_profile(self, tmp_path):
        raw = base_config()
        raw["model"]["ising"] = {
            "kind": "rectangular",
            "J_max": 0.2,
            "J_min": 0.01,
            "period": 2,
        }
        cfg = load(tmp_path, raw)
        bonds = cfg.chain.bonds()
        np.testing.assert_array_equal(bonds[1:4], np.full(3, 0.2))
        np.testing.assert_array_equal(bonds[7:10], np.full(3, 0.2))
        assert np.sum(bonds == 0.2) == 6
        assert np.sum(bonds == 0.01) == 6

    def test_explicit_profile(self, tmp_path):
        raw = base_config()
        values = [0.1 * k for k in range(12)]
        raw["model"]["ising"] = {"kind": "explicit", "values": values}
        cfg = load(tmp_path, raw)
        np.testing.assert_allclose(cfg.chain.bonds(), values)

    def test_explicit_length_mismatch_is_wrapped(self, tmp_path):
        raw = base_config()
        raw["model"]["ising"] = {"kind": "explicit", "values": [0.1, 0.2, 0.3]}
        with pytest.raises(ConfigError, match="model"):
            load(tmp_path, raw)

    def test_unknown_profile_kind(self, tmp_path):
        raw = base_config()
        raw["model"]["ising"] = {"kind": "sinusoidal", "J": 0.1}
        with pytest.raises(ConfigError, match="unknown profile kind"):
            load(tmp_path, raw)

    def test_unknown_model_key(self, tmp_path):
        raw = base_config()
        raw["model"]["coupling"] = 0.5
        with pytest.raises(ConfigError, match=r"model: unknown key\(s\) 'coupling'"):
            load(tmp_path, raw)

    def test_missing_ising(self, tmp_path):
        raw = base_config()
        del raw["model"]["ising"]
        with pytest.raises(ConfigError, match="missing required key 'ising'"):
            load(tmp_path, raw)

    def test_modes_must_be_nonempty(self, tmp_path):
        raw = base_config()
        raw["model"]["modes"] = []
        with pytest.raises(ConfigError, match="nonempty list"):
            load(tmp_path, raw)

    def test_modes_must_be_integers(self, tmp_path):
        raw = base_config()
        raw["model"]["modes"] = [1.5]
        with pytest.raises(ConfigError, match=r"modes\[0\]: expected an integer"):
            load(tmp_path, raw)

    def test_bool_is_not_a_number(self, tmp_path):
        raw = base_config()
        raw["model"]["E_z"] = True
        with pytest.raises(ConfigError, match="E_z: expected a number"):
            load(tmp_path, raw)

    def test_chain_validation_is_wrapped(self, tmp_path):
        raw = base_config()
        raw["model"]["E_c"] = -8.0
        with pytest.raises(ConfigError, match="model"):
            load(tmp_path, raw)


class TestTaskBlock:
    def test_solve_flags(self, tmp_path):
        raw = base_config()
        raw["task"] = {"kind": "solve", "dump_spectrum": True, "both_sectors": True}
        task = load(tmp_path, raw).task
        assert task.dump_spectrum is True
        assert task.both_sectors is True

    def test_sweep_with_list_grid(self, tmp_path):
        raw = base_config()
        raw["task"] = {"kind": "sweep", "axis": "lambda0", "values": [0.1, 0.2, 0.3]}
        task = load(tmp_path, raw).task
        assert isinstance(task, SweepTask)
        assert task.axis == "lambda0"
        assert task.values == (0.1, 0.2, 0.3)
        assert task.delta_J is None and task.delta_J_factor is None

    def test_sweep_with_linspace_grid(self, tmp_path):
        raw = base_config()
        raw["task"] = {
            "kind": "sweep",
            "axis": "J_min",
            "values": {"start": 0.0, "stop": 1.0, "num": 5},
            "delta_J": 0.3,
        }
        task = load(tmp_path, raw).task
        np.testing.assert_allclose(task.values, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert task.delta_J == 0.3

    def test_grid_must_not_be_empty(self, tmp_path):
        raw = base_config()
        raw["task"] = {"kind": "sweep", "axis": "lambda0", "values": []}
        with pytest.raises(ConfigError, match="must not be empty"):
            load(tmp_path, raw)

    def test_grid_needs_two_points(self, tmp_path):
        raw = base_config()
        raw["task"] = {
            "kind": "sweep",
            "axis": "lambda0",
            "values": {"start": 0.0, "stop": 1.0, "num": 1},
        }
        with pytest.raises(ConfigError, match="at least 2 points"):
            load(tmp_path, raw)

    def test_sweep_rejects_unknown_axis(self, tmp_path):
        raw = base_config()
        raw["task"] = {"kind": "sweep", "axis": "J_max", "values": [0.1]}
        with pytest.raises(ConfigError, match="must be lambda0, J_min or E_z"):
            load(tmp_path, raw)

    def test_sweep_deltas_are_exclusive(self, tmp_path):
        raw = base_config()
        raw["task"] = {
            "kind": "sweep",
            "axis": "J_min",
            "values": [0.1],
            "delta_J": 0.3,
            "delta_J_factor": 0.375,
        }
        with pytest.raises(ConfigError, match="mutually exclusive"):
            load(tmp_path, raw)

    def test_phase_diagram_parse(self, tmp_path):
        raw = base_config()
        raw["task"] = {
            "kind": "phase-diagram",
            "lambda0": [0.2, 0.4],
            "J_min": {"start": 0.0, "stop": 0.5, "num": 3},
            "E_z": [0.8],
            "delta_J": 0.3,
            "magnetic": False,
            "n_max": 10,
        }
        task = load(tmp_path, raw).task
        assert isinstance(task, PhaseDiagramTask)
        assert task.lambda0_values == (0.2, 0.4)
        np.testing.assert_allclose(task.J_min_values, [0.0, 0.25, 0.5])
        assert task.E_z_values == (0.8,)
        assert task.delta_J == 0.3 and task.delta_J_factor is None
        assert task.magnetic is False and task.order is True
        assert task.n_max == 10

    def test_phase_diagram_needs_exactly_one_delta(self, tmp_path):
        for extra in ({}, {"delta_J": 0.3, "delta_J_factor": 0.375}):
            raw = base_config()
            raw["task"] = {
                "kind": "phase-diagram",
                "lambda0": [0.2],
                "J_min": [0.1],
                **extra,
            }
            with pytest.raises(ConfigError, match="exactly one"):
                load(tmp_path, raw)

    def test_correlations_parse(self, tmp_path):
        raw = base_config()
        raw["task"] = {"kind": "correlations"}
        task = load(tmp_path, raw).task
        assert isinstance(task, CorrelationsTask)
        assert task.n_max is None
        raw["task"]["n_max"] = 6
        assert load(tmp_path, raw).task.n_max == 6

    def test_validate_defaults_and_overrides(self, tmp_path):
        raw = base_config()
        raw["task"] = {"kind": "validate"}
        task = load(tmp_path, raw).task
        assert isinstance(task, ValidateTask)
        assert (task.instances, task.N, task.seed) == (20, 8, 7)
        assert task.energy_tol == 1e-9
        assert task.expectation_tol == 1e-8
        assert task.max_distance == 4
        raw["task"] = {"kind": "validate", "instances": 3, "N": 6, "seed": 1}
        task = load(tmp_path, raw).task
        assert (task.instances, task.N, task.seed) == (3, 6, 1)

    def test_unknown_task_kind(self, tmp_path):
        raw = base_config()
        raw["task"] = {"kind": "scan"}
        with pytest.raises(ConfigError, match="unknown task kind"):
            load(tmp_path, raw)

    def test_unknown_task_key(self, tmp_path):
        raw = base_config()
        raw["task"] = {"kind": "solve", "spectrum": True}
        with pytest.raises(ConfigError, match=r"task: unknown key\(s\) 'spectrum'"):
            load(tmp_path, raw)
        # a known key out of range: a report must probe at least one separation
        for task in (
            {"kind": "correlations", "n_max": 0},
            {"kind": "phase-diagram", "lambda0": [0.2], "J_min": [0.1], "delta_J": 0.3,
             "n_max": -3},
        ):
            raw["task"] = task
            with pytest.raises(ConfigError, match=r"task.n_max: must be at least 1"):
                load(tmp_path, raw)


class TestOverridesAndOutput:
    def test_search_override(self, tmp_path):
        raw = base_config()
        raw["search"] = {"coarse_points": 61, "phi_max": 1.0}
        cfg = load(tmp_path, raw)
        assert cfg.search.coarse_points == 61
        assert isinstance(cfg.search.coarse_points, int)
        assert cfg.search.phi_max == 1.0
        assert cfg.search.refine_tol == 1e-6

    @pytest.mark.parametrize("key", ["grid_points", "line_points"])
    def test_search_unknown_field(self, tmp_path, key):
        raw = base_config()
        raw["search"] = {key: 61}
        with pytest.raises(ConfigError, match=r"search: unknown key\(s\)"):
            load(tmp_path, raw)

    def test_search_invalid_value_is_wrapped(self, tmp_path):
        raw = base_config()
        raw["search"] = {"phi_max": -1.0}
        with pytest.raises(ConfigError, match="search"):
            load(tmp_path, raw)

    def test_search_rejects_bool(self, tmp_path):
        raw = base_config()
        raw["search"] = {"coarse_points": True}
        with pytest.raises(ConfigError, match="expected a number"):
            load(tmp_path, raw)

    @pytest.mark.parametrize("key", ["coarse_points", "multi_coarse_points", "n_seeds"])
    def test_search_rejects_non_integer_counts(self, tmp_path, key):
        raw = base_config()
        raw["search"] = {key: 60.5}
        with pytest.raises(ConfigError, match=f"search.{key}: expected an integer"):
            load(tmp_path, raw)

    def test_thresholds_override(self, tmp_path):
        raw = base_config()
        raw["thresholds"] = {"xi": 7.0, "slope_ratio": 0.7}
        cfg = load(tmp_path, raw)
        assert cfg.thresholds.xi == 7.0
        assert cfg.thresholds.slope_ratio == 0.7
        assert cfg.thresholds.jump == 0.02

    def test_output_format_is_checked(self, tmp_path):
        raw = base_config()
        raw["output"]["format"] = "parquet"
        with pytest.raises(ConfigError, match="must be csv or json"):
            load(tmp_path, raw)

    def test_top_level_unknown_key(self, tmp_path):
        raw = base_config()
        raw["outputs"] = {"dir": "x"}
        with pytest.raises(ConfigError, match=r"config: unknown key\(s\) 'outputs'"):
            load(tmp_path, raw)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(str(tmp_path / "missing.yaml"))

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("model: [unclosed\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="malformed"):
            load_run_config(str(path))

    def test_root_must_be_a_mapping(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="expected a mapping"):
            load_run_config(str(path))


class TestShippedExamples:
    def test_every_example_config_loads(self):
        here = Path(__file__).resolve().parent.parent / "configs"
        paths = sorted(here.glob("*.yaml"))
        assert len(paths) >= 5
        kinds = set()
        for path in paths:
            cfg = load_run_config(str(path))
            kinds.add(cfg.task.kind)
        assert {"solve", "sweep", "phase-diagram", "correlations", "validate"} <= kinds

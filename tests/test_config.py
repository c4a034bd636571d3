"""Config-file parsing: strict keys, defaults, grids and overrides."""

import json
import math
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from cavising import meanfield
from cavising.config import (
    ConfigError,
    CorrelationsTask,
    PhaseDiagramTask,
    SolveTask,
    SweepTask,
    ValidateTask,
    _Output,
    load_run_config,
)
from cavising.correlation import correlation_report
from cavising.meanfield import SearchSpec
from cavising.model import ChainSpec, IsingProfile, ModeSet
from cavising.oracle import _HARD_MAX
from cavising.phases import SweepContext, Thresholds, phase_diagram, sweep


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


def phase_diagram_config():
    """A minimal phase-diagram config, the one task that reads a thresholds block."""
    raw = base_config()
    del raw["model"]["lambda0"]
    raw["task"] = {"kind": "phase-diagram", "lambda0": [0.2], "J_min": [0.01], "delta_J": 0.1}
    return raw


def write_config(tmp_path, raw, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return str(path)


def load(tmp_path, raw):
    return load_run_config(write_config(tmp_path, raw))


def validate_config(**task):
    """A validate config: it draws its own rings, so it has no model block."""
    return {"task": {"kind": "validate", **task}}


WINDOWS = {"kind": "rectangular", "J_max": 0.2, "J_min": 0.01, "period": 2}


def check_runnable(tmp_path, raw):
    """Parse ``raw`` on the bond-window profile, then check that a run can take it."""
    raw["model"]["ising"] = WINDOWS
    cfg = load(tmp_path, raw)
    cfg.task.check_runnable(cfg)


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
        raw["task"] = {"kind": "solve", "dump_spectrum": True}
        assert load(tmp_path, raw).task.dump_spectrum is True

    def test_solve_has_no_sector_choice(self, tmp_path):
        # the even sector always holds the ground state, so there is nothing to choose
        raw = base_config()
        raw["task"] = {"kind": "solve", "both_sectors": True}
        with pytest.raises(ConfigError, match=r"task: unknown key\(s\) 'both_sectors'"):
            load(tmp_path, raw)

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
        assert load(tmp_path, raw).task.axis == "J_max"  # the file parses; no run takes it
        with pytest.raises(ConfigError, match="task: unknown sweep axis 'J_max'"):
            check_runnable(tmp_path, raw)

    def test_sweep_deltas_are_exclusive(self, tmp_path):
        raw = base_config()
        raw["task"] = {
            "kind": "sweep",
            "axis": "J_min",
            "values": [0.1],
            "delta_J": 0.3,
            "delta_J_factor": 0.375,
        }
        with pytest.raises(ConfigError, match="task: delta_J and delta_J_factor are mutually"):
            check_runnable(tmp_path, raw)

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
        for extra, match in (
            ({}, "J_min grids need delta_J or delta_J_factor"),
            ({"delta_J": 0.3, "delta_J_factor": 0.375}, "delta_J and delta_J_factor are mutually"),
        ):
            raw = base_config()
            del raw["model"]["lambda0"]
            raw["task"] = {
                "kind": "phase-diagram",
                "lambda0": [0.2],
                "J_min": [0.1],
                **extra,
            }
            with pytest.raises(ConfigError, match=f"task: {match}"):
                check_runnable(tmp_path, raw)

    def test_correlations_parse(self, tmp_path):
        raw = base_config()
        raw["task"] = {"kind": "correlations"}
        task = load(tmp_path, raw).task
        assert isinstance(task, CorrelationsTask)
        assert task.n_max is None
        raw["task"]["n_max"] = 6
        assert load(tmp_path, raw).task.n_max == 6

    def test_validate_defaults_and_overrides(self, tmp_path):
        raw = validate_config()
        task = load(tmp_path, raw).task
        assert isinstance(task, ValidateTask)
        assert (task.instances, task.N, task.seed) == (20, 8, 7)
        assert task.energy_tol == 1e-9
        assert task.expectation_tol == 1e-8
        assert task.max_distance == 4
        raw["task"] = {"kind": "validate", "instances": 3, "N": 6, "seed": 1}
        task = load(tmp_path, raw).task
        assert (task.instances, task.N, task.seed) == (3, 6, 1)

    def test_validate_has_no_model_block(self, tmp_path):
        # validate draws its own rings: a model block would be read by nothing
        cfg = load(tmp_path, validate_config(N=6, max_distance=2))
        assert (cfg.chain, cfg.modes, cfg.lambda0, cfg.modeset) == (None, (), None, None)
        raw = base_config()
        raw["task"] = {"kind": "validate", "N": 6, "max_distance": 2}
        with pytest.raises(ConfigError, match="model: validate draws its own rings"):
            load(tmp_path, raw)

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
        for task, lambda0, n_max in (
            ({"kind": "correlations", "n_max": 0}, 0.3, 0),
            ({"kind": "phase-diagram", "lambda0": [0.2], "J_min": [0.1], "delta_J": 0.3,
              "n_max": -3}, None, -3),
        ):
            raw["task"] = task
            raw["model"]["lambda0"] = lambda0
            with pytest.raises(ConfigError, match=rf"task: n_max must be at least 1, got {n_max}"):
                check_runnable(tmp_path, raw)


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
        raw = phase_diagram_config()
        raw["thresholds"] = {"xi": 7.0, "oscillation": 0.2}
        cfg = load(tmp_path, raw)
        assert cfg.thresholds.xi == 7.0
        assert cfg.thresholds.oscillation == 0.2
        assert cfg.thresholds.jump == 0.02

    @pytest.mark.parametrize(
        "task, block",
        [
            ({"kind": "solve"}, "thresholds"),
            ({"kind": "sweep", "axis": "lambda0", "values": [0.1]}, "thresholds"),
            ({"kind": "correlations"}, "thresholds"),
            ({"kind": "validate"}, "thresholds"),
            ({"kind": "validate"}, "search"),
        ],
    )
    def test_unread_block_is_refused(self, tmp_path, task, block):
        # thresholds steer a phase diagram's onsets and labels alone, and
        # validate minimizes nothing: either block would be read by nothing
        raw = base_config()
        if task["kind"] == "validate":
            del raw["model"]
        raw["task"] = task
        raw[block] = {"xi": 7.0} if block == "thresholds" else {"phi_max": 0.5}
        with pytest.raises(ConfigError, match=rf"^{block}: not read by a {task['kind']} run"):
            load(tmp_path, raw)
        del raw[block]
        load(tmp_path, raw)

    def test_output_format_is_checked(self, tmp_path):
        raw = base_config()
        raw["output"]["format"] = "parquet"
        with pytest.raises(ConfigError, match="output: format must be csv or json"):
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


class TestRanges:
    """Values no run can take are rejected as the file parses."""

    @pytest.mark.parametrize(
        "task, match",
        [
            ({"N": 8, "max_distance": 10}, r"task: max_distance must lie between 1 and N - 1 = 7"),
            ({"N": 6, "max_distance": 6}, r"task: max_distance must lie between 1 and N - 1 = 5"),
            ({"max_distance": 0}, r"task: max_distance must lie between 1"),
            ({"N": 0}, rf"task: N must lie between 2 and {_HARD_MAX}"),
            ({"N": 1}, rf"task: N must lie between 2 and {_HARD_MAX}"),
            ({"N": _HARD_MAX + 1}, rf"task: N must lie between 2 and {_HARD_MAX}"),
            ({"instances": 0}, r"task: instances must be at least 1"),
            ({"energy_tol": -1e-9}, r"task: energy_tol must not be negative"),
            ({"expectation_tol": -1e-8}, r"task: expectation_tol must not be negative"),
            # a negative seed failed in the run, an infinite tolerance passed any deviation
            ({"seed": -1}, r"task: seed must not be negative, got -1"),
            ({"energy_tol": math.inf}, r"task: energy_tol must not be negative or infinite"),
            ({"expectation_tol": math.inf}, r"task: expectation_tol must not be negative or inf"),
            ({"energy_tol": math.nan}, r"task: energy_tol must not be negative or infinite"),
        ],
    )
    def test_validate_ranges(self, tmp_path, task, match):
        raw = validate_config(**task)
        with pytest.raises(ConfigError, match=match):
            load(tmp_path, raw)

    def test_validate_range_ends_are_accepted(self, tmp_path):
        raw = validate_config(instances=1, N=_HARD_MAX, max_distance=_HARD_MAX - 1,
                              energy_tol=0.0, expectation_tol=0.0, seed=0)
        task = load(tmp_path, raw).task
        assert (task.instances, task.N, task.max_distance) == (1, _HARD_MAX, _HARD_MAX - 1)
        assert task.seed == 0
        raw["task"] = {"kind": "validate", "N": 2, "max_distance": 1}
        assert load(tmp_path, raw).task.N == 2

    @pytest.mark.parametrize(
        "model, match",
        [
            ({"lambda0": -0.5}, r"model: lambda0 must be >= 0"),
            ({"lambda0": float("nan")}, r"model: lambda0 must be >= 0 and finite, got nan"),
            ({"lambda0": float("inf")}, r"model: lambda0 must be >= 0 and finite, got inf"),
            ({"modes": [0]}, r"model: mode indices must be >= 1"),
            ({"modes": [2, 2]}, r"model: mode indices must be distinct"),
        ],
    )
    def test_model_block_goes_through_modeset(self, tmp_path, model, match):
        raw = base_config()
        raw["model"].update(model)
        with pytest.raises(ConfigError, match=match):
            load(tmp_path, raw)


# Values unlike every default, for every key a config may set.  Each variant
# is one block; keys that exclude each other sit in different variants.
VARIANTS = {
    SolveTask: [{"dump_spectrum": True}],
    SweepTask: [
        {"axis": "J_min", "values": (0.1, 0.2), "delta_J": 0.3},
        {"axis": "E_z", "values": (0.5,), "delta_J_factor": 0.25},
    ],
    PhaseDiagramTask: [
        {
            "lambda0_values": (0.2, 0.4), "J_min_values": (0.05,), "E_z_values": (0.5, 0.9),
            "delta_J": 0.3, "magnetic": False, "order": False, "n_max": 6,
        },
        {"lambda0_values": (0.2,), "J_min_values": (0.05, 0.1), "delta_J_factor": 0.25},
    ],
    CorrelationsTask: [{"n_max": 6}],
    ValidateTask: [
        {
            "instances": 3, "N": 6, "seed": 1, "energy_tol": 1e-7, "expectation_tol": 1e-6,
            "max_distance": 2,
        }
    ],
    SearchSpec: [
        {
            "phi_max": 2.0, "coarse_points": 61, "refine_tol": 1e-5, "multi_coarse_points": 7,
            "descent_tol": 1e-4, "n_seeds": 2, "degeneracy_tol": 1e-8,
        }
    ],
    Thresholds: [
        {
            "field": 1e-4, "critical_tol": 1e-3, "jump": 0.05, "xi": 7.0, "sigma_z": 0.7,
            "oscillation": 0.2,
        }
    ],
}
# SearchSpec.line_points is read by nothing, and no config may set it
NOT_IN_CONFIGS = {SearchSpec: {"line_points"}}


def _variant_config(cls, variant):
    """A config whose ``cls`` block carries ``variant``, under the keys the file uses."""
    keys = {f.name: f.metadata.get("key", f.name) for f in fields(cls)}
    block = {
        keys[name]: list(value) if isinstance(value, tuple) else value
        for name, value in variant.items()
    }
    raw = phase_diagram_config() if cls is Thresholds else base_config()
    if cls is ValidateTask:
        del raw["model"]
    if cls is SearchSpec:
        raw["search"] = block
    elif cls is Thresholds:
        raw["thresholds"] = block
    else:
        raw["task"] = {"kind": cls.kind, **block}
    return raw


class TestOneStatement:
    """Each option is stated once, in its dataclass; the parser reads them all."""

    @pytest.mark.parametrize("cls", list(VARIANTS), ids=lambda cls: cls.__name__)
    def test_every_field_is_covered_with_a_non_default_value(self, cls):
        # a field added later fails here until a config can carry it
        settable = {f.name for f in fields(cls)} - NOT_IN_CONFIGS.get(cls, set())
        covered = set().union(*VARIANTS[cls])
        assert covered == settable
        defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
        for variant in VARIANTS[cls]:
            for name, value in variant.items():
                assert name not in defaults or value != defaults[name], name

    @pytest.mark.parametrize(
        "cls, variant",
        [(cls, v) for cls, variants in VARIANTS.items() for v in variants],
        ids=lambda x: x.__name__ if isinstance(x, type) else "-".join(x),
    )
    def test_config_parses_to_direct_construction(self, tmp_path, cls, variant):
        cfg = load(tmp_path, _variant_config(cls, variant))
        parsed = {SearchSpec: cfg.search, Thresholds: cfg.thresholds}.get(cls, cfg.task)
        assert parsed == cls(**variant)
        assert type(parsed) is cls
        for name, value in variant.items():
            assert type(getattr(parsed, name)) is type(value), name


# the library's side of each rejection below, on the model the configs share
CHAIN = ChainSpec(N=12, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.2, 0.01, 2))
MODES = (2,)


def _sweep(axis, values, chain=CHAIN, lambda0=0.3, **contrast):
    return lambda: sweep(SweepContext(chain, MODES, lambda0=lambda0, **contrast), axis, values)


def _diagram(lambda0=(0.2,), J_min=(0.01,), **kwargs):
    return lambda: phase_diagram(CHAIN, MODES, lambda0, J_min, **kwargs)


def _pd_task(lambda0=(0.2,), J_min=(0.01,), **keys):
    return {**NO_LAMBDA0, "task": {"kind": "phase-diagram", "lambda0": list(lambda0),
                                   "J_min": list(J_min), **keys}}


def _sweep_task(axis, values, **keys):
    return {"task": {"kind": "sweep", "axis": axis, "values": list(values), **keys}}


# a phase diagram and a sweep along lambda0 read no model.lambda0
NO_LAMBDA0 = {"model": {"lambda0": None}}


REJECTED = {
    "sweep-axis": (_sweep_task("J_max", [0.1]), _sweep("J_max", [0.1])),
    "sweep-both-contrasts": (_sweep_task("J_min", [0.01], delta_J=0.1, delta_J_factor=0.5),
                             _sweep("J_min", [0.01], delta_J=0.1, delta_J_factor=0.5)),
    "sweep-no-contrast": (_sweep_task("J_min", [0.01, 0.02]), _sweep("J_min", [0.01, 0.02])),
    "sweep-unread-contrast": ({**NO_LAMBDA0, **_sweep_task("lambda0", [0.1], delta_J=5.0)},
                              _sweep("lambda0", [0.1], lambda0=None, delta_J=5.0)),
    "sweep-uniform-profile": (
        {"model": {"ising": {"kind": "uniform", "J": 0.1}},
         **_sweep_task("J_min", [0.01, 0.02], delta_J=0.1)},
        _sweep("J_min", [0.01, 0.02], chain=replace(CHAIN, ising=IsingProfile.uniform(0.1)),
               delta_J=0.1),
    ),
    "sweep-zero-E_z": (_sweep_task("E_z", [0.0, 0.5]), _sweep("E_z", [0.0, 0.5])),
    "sweep-negative-lambda0": ({**NO_LAMBDA0, **_sweep_task("lambda0", [-0.1, 0.2])},
                               _sweep("lambda0", [-0.1, 0.2], lambda0=None)),
    "sweep-fixed-lambda0": (_sweep_task("lambda0", [0.1, 0.2]), _sweep("lambda0", [0.1, 0.2])),
    "sweep-negative-J_min": (_sweep_task("J_min", [0.01, -0.1], delta_J=0.1),
                             _sweep("J_min", [0.01, -0.1], delta_J=0.1)),
    "sweep-missing-lambda0": (
        {"model": {"lambda0": None}, **_sweep_task("J_min", [0.01], delta_J=0.1)},
        _sweep("J_min", [0.01], lambda0=None, delta_J=0.1),
    ),
    "diagram-negative-lambda0": (_pd_task(lambda0=(-0.1, 0.6), delta_J=0.1),
                                 _diagram(lambda0=(-0.1, 0.6), delta_J=0.1)),
    "diagram-no-contrast": (_pd_task(), _diagram()),
    "diagram-both-contrasts": (_pd_task(delta_J=0.1, delta_J_factor=0.5),
                               _diagram(delta_J=0.1, delta_J_factor=0.5)),
    "diagram-n_max": (_pd_task(delta_J=0.1, n_max=0, magnetic=False),
                      _diagram(delta_J=0.1, n_max=0, magnetic=False)),
    "diagram-negative-J_min": (_pd_task(J_min=(0.01, -0.1), delta_J=0.1),
                               _diagram(J_min=(0.01, -0.1), delta_J=0.1)),
    "correlations-n_max": (
        {"task": {"kind": "correlations", "n_max": 0}},
        lambda: correlation_report(
            CHAIN, ModeSet(MODES, lambda0=0.3, N=12, E_c=8.0), [0.0], n_max=0
        ),
    ),
    "thresholds-critical_tol": ({**_pd_task(delta_J=0.1), "thresholds": {"critical_tol": 0}},
                                lambda: Thresholds(critical_tol=0.0)),
    "thresholds-jump": ({**_pd_task(delta_J=0.1), "thresholds": {"jump": -1.0}},
                        lambda: Thresholds(jump=-1.0)),
    "validate-N": ({"model": None, **validate_config(N=1)}, lambda: ValidateTask(N=1)),
    "output-format": ({"output": {"format": "parquet"}}, lambda: _Output(format="parquet")),
}


class TestOneOwner:
    """A config no run can take fails with the words of the library call the run makes."""

    @pytest.mark.parametrize("blocks, call", list(REJECTED.values()), ids=list(REJECTED))
    def test_config_error_ends_with_the_library_error(self, tmp_path, monkeypatch, blocks,
                                                      call):
        raw = base_config()
        raw["model"]["ising"] = WINDOWS
        blocks = dict(blocks)
        model = blocks.pop("model", {})
        if model is None:
            del raw["model"]
        else:
            raw["model"].update(model)
        raw.update(blocks)
        with pytest.raises(ConfigError) as got:
            cfg = load(tmp_path, raw)
            cfg.task.check_runnable(cfg)

        def energy(*args):
            raise AssertionError("an energy was evaluated")

        monkeypatch.setattr(meanfield, "energy_per_particle", energy)
        with pytest.raises(ValueError) as want:
            call()
        assert type(want.value) is ValueError
        assert str(got.value).endswith(f": {want.value}")

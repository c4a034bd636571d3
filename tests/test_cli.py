"""End-to-end command-line runs on small chains."""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavising import correlation, fermion
from cavising.cli import _build_parser, main
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


def validate_config(tmp_path, **task):
    """A validate config: it draws its own rings, so it has no model block."""
    return {"task": {"kind": "validate", **task}, "output": {"dir": str(tmp_path / "out")}}


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

    def test_no_full_solve_without_spectrum(self, tmp_path, monkeypatch):
        # state.json needs no quasiparticle modes: the sector is the even one on every ring
        def full_solve(*args):
            raise AssertionError("a full solve was made")

        monkeypatch.setattr(fermion, "ground_sector", full_solve)
        cfg = write_config(tmp_path, solve_config(tmp_path))
        assert main(["solve", "--config", cfg]) == 0
        assert load_json(tmp_path / "out" / "state.json")["sector"] == "even"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["state.json"]

    def test_dump_spectrum_key(self, tmp_path):
        raw = solve_config(tmp_path)
        raw["task"]["dump_spectrum"] = True
        cfg = write_config(tmp_path, raw)
        assert main(["solve", "--config", cfg]) == 0
        header, rows = read_table(tmp_path / "out" / "spectrum.csv")
        assert header == ["k", "Lambda"]
        assert len(rows) == 12
        energies = [float(r[1]) for r in rows]
        assert energies == sorted(energies)
        assert all(e > 0 for e in energies)

    def test_dump_spectrum_as_json(self, tmp_path):
        raw = solve_config(tmp_path)
        raw["task"]["dump_spectrum"] = True
        raw["output"]["format"] = "json"
        cfg = write_config(tmp_path, raw)
        assert main(["solve", "--config", cfg]) == 0
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
        real = correlation._window_minors
        tables = []

        def spied(G, n_max, M, stop=None):
            if stop is None:  # the report's own walks pass their stop rule
                tables.append((n_max, M))
            return real(G, n_max, M, stop)

        monkeypatch.setattr(correlation, "_window_minors", spied)
        assert main(["correlations", "--config", cfg]) == 0
        monkeypatch.undo()

        chain = ChainSpec(N=12, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(J))
        modeset = ModeSet(modes=(2,), lambda0=0.3, N=12, E_c=8.0)
        state = minimize_phi(chain, modeset, SearchSpec(coarse_points=41))
        report = correlation.correlation_report(chain, modeset, state.phi, n_max=4)
        # the second pass reads the solve's period, and does not search G for it
        assert tables == ([] if saturated else [(4, report.solution.period)])
        assert report.solution.period == correlation._twisted_period(report.G)
        expected = correlation.yy_table(report.G, 4)
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
        raw = validate_config(tmp_path, instances=3, N=6, seed=11, max_distance=2)
        cfg = write_config(tmp_path, raw)
        assert main(["validate", "--config", cfg]) == 0
        out = load_json(tmp_path / "out" / "validate.json")
        assert out["passed"] is True
        assert out["worst"]["energy"] <= 1e-9
        assert len(out["instances"]) == 3
        assert "validate: 3 instances" in capsys.readouterr().out

    def test_impossible_tolerance_fails(self, tmp_path, capsys):
        raw = validate_config(tmp_path, instances=2, N=5, seed=11, max_distance=2,
                              energy_tol=0.0, expectation_tol=0.0)
        cfg = write_config(tmp_path, raw)
        assert main(["validate", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err
        out = load_json(tmp_path / "out" / "validate.json")
        assert out["passed"] is False


WINDOWS = {"kind": "rectangular", "J_max": 0.2, "J_min": 0.01, "period": 2}
UNIFORM = {"kind": "uniform", "J": 0.1}


class TestConfigsThatCannotRun:
    """A config no run can set up, or one setting a key the run does not read, fails as a
    config error, before any output."""

    @pytest.mark.parametrize(
        "command, ising, lambda0, task, match",
        [
            ("solve", WINDOWS, None, {"kind": "solve"}, "model.lambda0: required"),
            ("correlations", WINDOWS, None, {"kind": "correlations"},
             "model.lambda0: required"),
            ("sweep", WINDOWS, 0.3, {"kind": "sweep", "axis": "J_min", "values": [0.01]},
             "need delta_J or delta_J_factor"),
            ("sweep", WINDOWS, None,
             {"kind": "sweep", "axis": "J_min", "values": [0.01], "delta_J": 0.1}, "lambda0"),
            ("sweep", WINDOWS, None, {"kind": "sweep", "axis": "E_z", "values": [0.5]},
             "lambda0"),
            ("sweep", UNIFORM, 0.3,
             {"kind": "sweep", "axis": "J_min", "values": [0.01], "delta_J": 0.1},
             "rectangular"),
            ("sweep", WINDOWS, 0.3, {"kind": "sweep", "axis": "E_z", "values": [0.5, 0.0]},
             "E_z must be positive"),
            ("phase-diagram", WINDOWS, None,
             {"kind": "phase-diagram", "lambda0": [0.1], "J_min": [0.01, -0.1],
              "delta_J": 0.1}, "J_max >= J_min >= 0"),
            ("phase-diagram", WINDOWS, None,
             {"kind": "phase-diagram", "lambda0": [0.1], "J_min": [0.01], "E_z": [0.8, 0.0],
              "delta_J": 0.1}, "E_z must be positive"),
            ("phase-diagram", WINDOWS, None,
             {"kind": "phase-diagram", "lambda0": [0.1], "J_min": [0.01], "delta_J": -0.1},
             "J_max >= J_min >= 0"),
            ("phase-diagram", WINDOWS, None,
             {"kind": "phase-diagram", "lambda0": [0.1], "J_min": [0.01],
              "delta_J_factor": -0.5}, "J_max >= J_min >= 0"),
            ("phase-diagram", UNIFORM, None,
             {"kind": "phase-diagram", "lambda0": [0.1], "J_min": [0.01], "delta_J": 0.1},
             "rectangular"),
            ("validate", None, None, {"kind": "validate", "N": 8, "max_distance": 10},
             "task: max_distance"),
            ("solve", WINDOWS, -0.5, {"kind": "solve"}, "model: lambda0 must be >= 0"),
            ("sweep", WINDOWS, None,
             {"kind": "sweep", "axis": "lambda0", "values": [0.1, 0.2], "delta_J": 5.0},
             "a sweep along lambda0 does not read delta_J"),
            ("sweep", WINDOWS, None,
             {"kind": "sweep", "axis": "lambda0", "values": [0.1], "delta_J_factor": 0.5},
             "does not read delta_J_factor"),
            ("sweep", WINDOWS, 0.3,
             {"kind": "sweep", "axis": "E_z", "values": [0.5], "delta_J": 0.1},
             "a sweep along E_z does not read delta_J"),
            ("phase-diagram", WINDOWS, None,
             {"kind": "phase-diagram", "lambda0": [-0.1, 0.1], "J_min": [0.01],
              "delta_J": 0.1}, "task: lambda0 must be >= 0"),
            # settings no run of the task reads
            ("phase-diagram", WINDOWS, 0.3,
             {"kind": "phase-diagram", "lambda0": [0.1], "J_min": [0.01], "delta_J": 0.1},
             "model.lambda0: not read by a phase diagram"),
            ("sweep", WINDOWS, 0.3, {"kind": "sweep", "axis": "lambda0", "values": [0.1, 0.2]},
             "task: a sweep along lambda0 does not read a fixed lambda0"),
            ("validate", UNIFORM, None, {"kind": "validate", "N": 8},
             "model: validate draws its own rings"),
        ],
    )
    def test_config_error_before_output(self, tmp_path, capsys, command, ising, lambda0,
                                        task, match):
        raw = solve_config(tmp_path)
        raw["model"]["ising"] = ising
        raw["model"]["lambda0"] = lambda0
        if lambda0 is None:
            del raw["model"]["lambda0"]
        if ising is None:  # a validate config has no model block
            del raw["model"]
        raw["task"] = task
        cfg = write_config(tmp_path, raw)
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert match in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, block",
        [("solve", "thresholds"), ("sweep", "thresholds"), ("correlations", "thresholds"),
         ("validate", "thresholds"), ("validate", "search")],
    )
    def test_unread_block_stops_before_output(self, tmp_path, capsys, command, block):
        # a thresholds block on any task but a phase diagram, or a search block on
        # validate, once ran to the end with the block unread
        raw = solve_config(tmp_path)
        if command == "validate":
            raw = validate_config(tmp_path, N=6, max_distance=2)
        elif command == "sweep":
            raw["task"] = {"kind": "sweep", "axis": "lambda0", "values": [0.1]}
            del raw["model"]["lambda0"]
        elif command == "correlations":
            raw["task"] = {"kind": "correlations"}
        raw[block] = {"xi": 7.0} if block == "thresholds" else {"phi_max": 0.5}
        assert main([command, "--config", write_config(tmp_path, raw)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {block}: not read by a {command} run")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "thresholds, message",
        [({"critical_tol": 0}, "critical_tol must be > 0"),
         ({"critical_tol": math.inf}, "critical_tol must be > 0"),
         ({"jump": -1.0}, "jump must be >= 0"),
         ({"slope_delta": math.inf}, "unknown key(s) 'slope_delta'")],
    )
    def test_bad_thresholds_stop_before_output(self, tmp_path, capsys, thresholds, message):
        # critical_tol = 0 bisected forever and an infinite one wrote the bracket's
        # midpoint as the onset; slope_delta, the step of the multi-mode slope
        # probe that went, once raised from ModeSet after the output directory was
        # made when infinite, and is now an unknown key
        raw = solve_config(tmp_path)
        raw["model"]["ising"] = WINDOWS
        raw["task"] = {"kind": "phase-diagram", "lambda0": [0.1, 0.6], "J_min": [0.01],
                       "delta_J": 0.1}
        raw["thresholds"] = thresholds
        assert main(["phase-diagram", "--config", write_config(tmp_path, raw)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: thresholds: {message}")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


GOOD = st.sampled_from([0.05, 0.3, 0.8])
# what an edge draw puts in place of a sound float, or of a sound count or index
EDGE = {float: st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.3]),
        int: st.sampled_from([0, -1])}
# the contrast keys a sweep along each axis reads
READS = {"lambda0": [None], "J_min": ["delta_J", "delta_J_factor"],
         "E_z": [None, "delta_J_factor"]}


def _number_paths(node, path=()):
    """Key paths of every number in a config tree."""
    if isinstance(node, (int, float)):
        return [path]
    if not isinstance(node, (dict, list)):
        return []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    return [p for key, value in items for p in _number_paths(value, path + (key,))]


@st.composite
def small_runs(draw):
    """A sound solve, sweep, phase-diagram or correlations config at N <= 8, on grids of at
    most 3 points, with up to two of its numbers swapped for an edge value (NaN, +-inf, 0
    or a negative); a phase diagram's thresholds are among them.  Each sweep axis is drawn
    as often as each other task, and a sweep along J_min on the bond windows it needs, so
    sound sweeps of every axis run.  ``model.lambda0`` is set only where the task reads
    it: not on a phase diagram or a sweep along lambda0."""
    J_min = draw(GOOD)
    kind, axis = draw(st.sampled_from(
        [("phase-diagram", None), ("solve", None), ("correlations", None)]
        + [("sweep", axis) for axis in READS]
    ))
    rectangular = {"kind": "rectangular", "J_max": 2 * J_min, "J_min": J_min, "period": 2}
    ising = rectangular
    if kind != "phase-diagram" and axis != "J_min":
        ising = draw(st.sampled_from([{"kind": "uniform", "J": J_min}, rectangular]))
    model = {"N": draw(st.integers(1, 8)), "E_z": draw(GOOD), "E_c": draw(GOOD),
             "ising": ising, "modes": draw(st.lists(st.integers(1, 3), min_size=1, max_size=2,
                                                    unique=True))}
    task = {"kind": kind}
    raw = {"model": model, "task": task,
           "search": {"phi_max": 1.5, "coarse_points": 21, "multi_coarse_points": 5}}
    grid = st.lists(GOOD, min_size=1, max_size=3)
    if kind in ("solve", "correlations") or axis in ("J_min", "E_z"):
        model["lambda0"] = draw(GOOD)
    if kind == "sweep":
        task.update(axis=axis, values=draw(grid))
        key = draw(st.sampled_from(READS[axis]))
        if key is not None:
            task[key] = draw(GOOD)
    elif kind == "phase-diagram":
        task.update(lambda0=draw(grid), J_min=draw(grid), n_max=draw(st.integers(1, 3)))
        task[draw(st.sampled_from(["delta_J", "delta_J_factor"]))] = draw(GOOD)
        raw["thresholds"] = {"critical_tol": 1e-3, "jump": 0.02, "xi": 5.0}
    elif kind == "correlations":
        task["n_max"] = draw(st.integers(1, 3))
    paths = _number_paths(raw)
    for path in draw(st.permutations(paths))[:draw(st.integers(0, 2))]:
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(EDGE[type(node[path[-1]])])
    return raw


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for value in node for x in _numbers(value)]
    return [node] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


def _csv_numbers(path):
    """The cells of a CSV table that read as numbers ("nan" and "inf" among them); a phase
    label or an empty cell does not."""
    numbers = []
    for row in read_table(path)[1]:
        for cell in row:
            try:
                numbers.append(float(cell))
            except ValueError:
                pass
    return numbers


def probed_phase_diagram(**thresholds):
    """The phase diagram of the CI's bad-config step, whose one column has its spinodal at
    lambda0 = 0.644, inside the grid, so its onset is probed there."""
    return {"model": {"N": 8, "ising": WINDOWS, "modes": [1]},
            "task": {"kind": "phase-diagram", "lambda0": [0.1, 0.9], "J_min": [0.01],
                     "delta_J": 0.1},
            "thresholds": thresholds}


class TestEveryConfigFailsUpFrontOrRuns:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(raw=small_runs())
    # an infinite slope-probe step once raised after the output directory was made,
    # and the probe's key is now unknown; an infinite bracket width wrote the
    # bracket's midpoint, finite, as the onset
    @example(raw=probed_phase_diagram(slope_delta=math.inf))
    @example(raw=probed_phase_diagram(critical_tol=math.inf))
    def test_config_error_or_finite_files(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            raw["output"] = {"dir": str(out), "format": "csv"}
            cfg = write_config(Path(tmp), raw)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([raw["task"]["kind"], "--config", cfg])
            if code == 1:
                assert err.getvalue().startswith("config error:")
                assert not out.exists()
                return
            assert code == 0, err.getvalue()
            files = sorted(out.iterdir())
            assert files
            for path in files:
                if path.suffix == ".json":
                    numbers = _numbers(load_json(path))
                else:
                    numbers = _csv_numbers(path)
                assert all(math.isfinite(x) for x in numbers), path.name


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

    @pytest.mark.parametrize("flags", [["--format", "json"], ["--dump-spectrum"]])
    def test_config_keys_are_not_flags(self, tmp_path, capsys, flags):
        # output.format and task.dump_spectrum are stated in the config alone
        cfg = write_config(tmp_path, solve_config(tmp_path))
        assert main(["solve", "--config", cfg, *flags]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_every_subcommand_takes_config_and_out_alone(self):
        sub = next(a for a in _build_parser()._actions if a.dest == "command")
        assert set(sub.choices) == {"solve", "sweep", "phase-diagram", "correlations",
                                    "validate"}
        for parser in sub.choices.values():
            assert {o for a in parser._actions for o in a.option_strings} == {
                "-h", "--help", "--config", "--out"}

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

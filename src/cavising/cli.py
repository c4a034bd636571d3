"""Command-line entry point.

Five subcommands map onto the task kinds a config file can declare:
``solve``, ``sweep``, ``phase-diagram``, ``correlations`` and
``validate``.  Each takes ``--config`` and ``--out`` alone: the subcommand
must match the config's ``task.kind``, ``--out`` replaces ``output.dir``,
and every setting of a run lives in the config, so the file alone
reproduces it.  Outputs are plain CSV/JSON in the output directory,
deterministic byte for byte except for the single ``generated_at`` stamp.

Exit codes: 0 on success, 1 for config or usage problems, 2 when the
computation itself fails (solver breakdown, no transition in range,
validation out of tolerance).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import correlation, fermion, meanfield, oracle, phases
from .config import (
    ConfigError,
    CorrelationsTask,
    PhaseDiagramTask,
    RunConfig,
    SolveTask,
    SweepTask,
    ValidateTask,
    load_run_config,
)
from .model import EffectiveField, effective_field

__all__ = ["main", "ValidationFailure"]


class ValidationFailure(RuntimeError):
    """The brute-force cross-check exceeded its tolerances."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavising",
        description="Mean-field phases of a qubit ring coupled to resonator modes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the YAML/JSON run config")
        p.add_argument("--out", help="output directory (overrides output.dir)")
    return parser


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=lambda v: v.tolist())
        fh.write("\n")


def _write_table(out_dir: Path, name: str, header, rows, fmt: str) -> Path:
    """One tabular artifact, as CSV with a header line or as a JSON list."""
    if fmt == "csv":
        path = out_dir / f"{name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    [format(v, ".12g") if isinstance(v, float) else v for v in row]
                )
    else:
        path = out_dir / f"{name}.json"
        _write_json(path, [dict(zip(header, row)) for row in rows])
    return path


def _run_solve(cfg: RunConfig, out_dir: Path) -> None:
    state = meanfield.minimize_phi(cfg.chain, cfg.modeset, cfg.search)
    fld = effective_field(cfg.chain, cfg.modeset, state.phi)
    _write_json(
        out_dir / "state.json",
        {
            "N": cfg.chain.N,
            "modes": list(cfg.modes),
            "lambda0": cfg.lambda0,
            "phi_g": state.phi,
            "Sigma_x": state.Sigma_x,
            "e_gg": state.e_g,
            "degenerate": state.degenerate,
            "sector": fermion.Sector.EVEN.value,  # the ground state's, on every ring
            "Omega": fld.Omega,
            "theta": fld.theta,
            "generated_at": _timestamp(),
        },
    )
    if cfg.task.dump_spectrum:
        sol = fermion.ground_sector(fld, cfg.chain.bonds())
        rows = [(k, float(lam)) for k, lam in enumerate(sol.energies)]
        _write_table(out_dir, "spectrum", ("k", "Lambda"), rows, cfg.output_format)
    print(f"e_gg = {state.e_g:.10g}  phi_g = {np.array2string(state.phi, precision=6)}")


def _run_sweep(cfg: RunConfig, out_dir: Path) -> None:
    task = cfg.task
    result = phases.sweep(task.context(cfg), task.axis, task.values)
    rows = []
    for rec in result.records:
        if rec.status != "ok":
            continue
        for mode, phi in zip(cfg.modes, rec.phi):
            rows.append((rec.value, mode, float(phi)))
    _write_table(out_dir, "sweep", (task.axis, "mode", "phi_g"), rows, cfg.output_format)
    _write_json(
        out_dir / "sweep_summary.json",
        {
            "axis": task.axis,
            "modes": list(cfg.modes),
            "records": [asdict(rec) for rec in result.records],
            "generated_at": _timestamp(),
        },
    )
    n_ok = sum(r.status == "ok" for r in result.records)
    print(f"swept {task.axis} over {len(result.records)} points ({n_ok} ok)")


def _run_correlations(cfg: RunConfig, out_dir: Path) -> None:
    task, fmt = cfg.task, cfg.output_format
    state = meanfield.minimize_phi(cfg.chain, cfg.modeset, cfg.search)
    report = correlation.correlation_report(cfg.chain, cfg.modeset, state.phi, n_max=task.n_max)
    rows = [
        (
            j,
            float(report.sigma_z_rot[j]),
            float(report.sigma_z_lab[j]),
            float(report.sigma_x_lab[j]),
            float(report.xi_r[j]),
            float(report.xi_l[j]),
            float(report.xi_rl[j]),
        )
        for j in range(report.N)
    ]
    _write_table(
        out_dir,
        "correlations",
        ("j", "sigma_z_rot", "sigma_z_lab", "sigma_x_lab", "xi_R", "xi_L", "xi_RL"),
        rows,
        fmt,
    )
    # walks that went all the way down left the full table in the report;
    # its rows are in (j, n) order already
    table = report.minors
    if table.shape[1] < report.n_max:
        table, _ = correlation._window_minors(report.G, report.n_max, report.solution.period)
    rho_rows = (
        (j, n, v) for j in range(table.shape[0]) for n, v in enumerate(table[j].tolist(), 1)
    )
    _write_table(out_dir, "rho", ("j", "n", "rho"), rho_rows, fmt)
    print(
        f"phi_g = {np.array2string(state.phi, precision=6)}  "
        f"max xi_RL = {float(np.max(report.xi_rl)):.3g}"
    )


def _run_phase_diagram(cfg: RunConfig, out_dir: Path) -> None:
    # the task's fields are phase_diagram's keywords
    diagram = phases.phase_diagram(
        cfg.chain, cfg.modes, search=cfg.search, thresholds=cfg.thresholds, **asdict(cfg.task)
    )
    rows = [
        (
            cell.E_z,
            cell.J_min,
            cell.J_max,
            cell.lambda0,
            cell.label.code if cell.label else "",
            cell.label.field_phase if cell.label else "",
            cell.label.transition_order if cell.label else "",
            cell.label.magnetic_order if cell.label else "",
            cell.e_g if cell.e_g is not None else "",
            cell.status,
        )
        for cell in diagram.cells
    ]
    _write_table(
        out_dir,
        "phase_diagram",
        ("E_z", "J_min", "J_max", "lambda0", "label", "field_phase",
         "transition_order", "magnetic_order", "e_g", "status"),
        rows,
        cfg.output_format,
    )
    _write_json(
        out_dir / "boundary.json",
        {
            "columns": [asdict(col) for col in diagram.columns],
            "crossover": [{"E_z": ez, "J_min": mid} for ez, mid in diagram.crossover],
            "generated_at": _timestamp(),
        },
    )
    print(f"labeled {len(diagram.cells)} cells over {len(diagram.columns)} columns")


def _run_validate(cfg: RunConfig, out_dir: Path) -> None:
    task = cfg.task
    rng = np.random.default_rng(task.seed)
    worst = {"energy": 0.0, "sigma_z": 0.0, "rho": 0.0}
    instances = []
    for i in range(task.instances):
        Omega = rng.uniform(0.1, 1.0, task.N)
        J = rng.uniform(0.0, 1.0, task.N)
        fld = EffectiveField(Omega=Omega, theta=np.zeros(task.N))  # no rotation
        sol = fermion.ground_sector(fld, J)
        e_chain = sol.ground_energy_chain / task.N

        problem = oracle.DenseSpinProblem(Omega=Omega, J=J)
        # Omega > 0 and J >= 0: the global ground state is the even one
        e_exact, vec = oracle.exact_ground(problem)
        pairs = [(j, n) for j in range(task.N) for n in range(1, task.max_distance + 1)]
        expect = oracle.exact_expectations(problem, vec, pairs=pairs)

        d_energy = abs(e_chain - e_exact / task.N) / max(1.0, abs(e_exact / task.N))
        d_sz = float(np.max(np.abs(sol.sigma_z - expect["sigma_z"])))
        d_rho = max(
            abs(correlation.yy_correlation(sol.G, j, n) - expect["yy"][(j, n)]) for j, n in pairs
        )
        worst["energy"] = max(worst["energy"], d_energy)
        worst["sigma_z"] = max(worst["sigma_z"], d_sz)
        worst["rho"] = max(worst["rho"], d_rho)
        instances.append({"instance": i, "energy": d_energy, "sigma_z": d_sz, "rho": d_rho})

    passed = worst["energy"] <= task.energy_tol and max(
        worst["sigma_z"], worst["rho"]
    ) <= task.expectation_tol
    _write_json(
        out_dir / "validate.json",
        {
            "instances": instances,
            "worst": worst,
            "tolerances": {
                "energy": task.energy_tol,
                "expectation": task.expectation_tol,
            },
            "passed": passed,
            "generated_at": _timestamp(),
        },
    )
    print(
        f"validate: {task.instances} instances at N={task.N}: "
        f"max rel energy dev {worst['energy']:.3e}, "
        f"max sigma_z dev {worst['sigma_z']:.3e}, max rho dev {worst['rho']:.3e}"
    )
    if not passed:
        raise ValidationFailure("brute-force cross-check exceeded tolerance")


# task kind -> (subcommand help, runner); the subcommands are the task kinds
_COMMANDS = {
    SolveTask.kind: ("minimize the photon amplitudes at one parameter point", _run_solve),
    SweepTask.kind: ("minimize along one parameter axis", _run_sweep),
    PhaseDiagramTask.kind: ("label a (J_min, lambda0) grid", _run_phase_diagram),
    CorrelationsTask.kind: ("site-resolved observables at one parameter point", _run_correlations),
    ValidateTask.kind: (
        "cross-check the solver against brute force on small chains", _run_validate
    ),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        cfg = load_run_config(args.config)
        if cfg.task.kind != args.command:
            raise ConfigError(
                f"task.kind is {cfg.task.kind!r} but the subcommand was {args.command!r}"
            )
        cfg.task.check_runnable(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out or cfg.output_dir)
    _, run = _COMMANDS[args.command]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        run(cfg, out_dir)
    except (
        fermion.SolverError,
        phases.NoTransitionError,
        ValidationFailure,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

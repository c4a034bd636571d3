"""Command-line entry point.

Five subcommands map onto the task kinds a config file can declare:
``solve``, ``sweep``, ``phase-diagram``, ``correlations`` and
``validate``.  The subcommand must match the config's ``task.kind``;
everything else about a run lives in the config so results are
reproducible from the file alone.  Outputs are plain CSV/JSON in the
output directory, deterministic byte for byte except for the single
``generated_at`` timestamp.

Exit codes: 0 on success, 1 for config or usage problems, 2 when the
computation itself fails (solver breakdown, no transition in range,
validation out of tolerance).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
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
from .model import EffectiveField, ModeSet, effective_field

__all__ = ["main", "ValidationFailure"]


class ValidationFailure(RuntimeError):
    """The brute-force cross-check exceeded its tolerances."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavising",
        description="Mean-field phases of a qubit ring coupled to resonator modes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "minimize the photon amplitudes at one parameter point"),
        ("sweep", "minimize along one parameter axis"),
        ("phase-diagram", "label a (J_min, lambda0) grid"),
        ("correlations", "site-resolved observables at one parameter point"),
        ("validate", "cross-check the solver against brute force on small chains"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the YAML/JSON run config")
        p.add_argument("--out", help="output directory (overrides output.dir)")
        p.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
        p.add_argument("--format", choices=("csv", "json"), help="overrides output.format")
        if name == "solve":
            p.add_argument(
                "--dump-spectrum",
                action="store_true",
                help="also write the quasiparticle spectrum at the minimizer",
            )
    return parser


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2)
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


def _modeset(cfg: RunConfig, lambda0: float | None = None) -> ModeSet:
    lam = cfg.lambda0 if lambda0 is None else lambda0
    if lam is None:
        raise ConfigError("model.lambda0: required for this task")
    return ModeSet(modes=cfg.modes, lambda0=lam, N=cfg.chain.N, E_c=cfg.chain.E_c)


def _run_solve(cfg: RunConfig, task: SolveTask, out_dir: Path, fmt: str, args) -> None:
    modeset = _modeset(cfg)
    state = meanfield.minimize_phi(cfg.chain, modeset, cfg.search)
    fld = effective_field(cfg.chain, modeset, state.phi)
    sol = fermion.ground_sector(fld, cfg.chain.bonds(), both_sectors=task.both_sectors)
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
            "sector": sol.sector.value,
            "Omega": fld.Omega,
            "theta": fld.theta,
            "generated_at": _timestamp(),
        },
    )
    if getattr(args, "dump_spectrum", False) or task.dump_spectrum:
        rows = [(k, float(lam)) for k, lam in enumerate(sol.energies)]
        _write_table(out_dir, "spectrum", ("k", "Lambda"), rows, fmt)
    print(f"e_gg = {state.e_g:.10g}  phi_g = {np.array2string(state.phi, precision=6)}")


def _sweep_context(cfg: RunConfig, task) -> phases.SweepContext:
    return phases.SweepContext(
        chain=cfg.chain,
        modes=cfg.modes,
        lambda0=cfg.lambda0,
        search=cfg.search,
        delta_J=getattr(task, "delta_J", None),
        delta_J_factor=getattr(task, "delta_J_factor", None),
    )


def _run_sweep(cfg: RunConfig, task: SweepTask, out_dir: Path, fmt: str, threads: int) -> None:
    ctx = _sweep_context(cfg, task)
    result = phases.sweep(ctx, task.axis, task.values, threads=threads)
    rows = []
    for rec in result.records:
        if rec.status != "ok":
            continue
        for mode, phi in zip(cfg.modes, rec.phi):
            rows.append((rec.value, mode, float(phi)))
    _write_table(out_dir, "sweep", (task.axis, "mode", "phi_g"), rows, fmt)
    _write_json(
        out_dir / "sweep_summary.json",
        {
            "axis": task.axis,
            "modes": list(cfg.modes),
            "records": [
                {
                    "value": rec.value,
                    "phi": rec.phi,
                    "Sigma_x": rec.Sigma_x,
                    "e_g": rec.e_g,
                    "degenerate": rec.degenerate,
                    "status": rec.status,
                    "message": rec.message,
                }
                for rec in result.records
            ],
            "generated_at": _timestamp(),
        },
    )
    n_ok = sum(r.status == "ok" for r in result.records)
    print(f"swept {task.axis} over {len(result.records)} points ({n_ok} ok)")


def _run_correlations(cfg: RunConfig, task: CorrelationsTask, out_dir: Path, fmt: str) -> None:
    modeset = _modeset(cfg)
    state = meanfield.minimize_phi(cfg.chain, modeset, cfg.search)
    report = correlation.correlation_report(cfg.chain, modeset, state.phi, n_max=task.n_max)
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
    # walks that went all the way down left the full table in the report
    depth = max((n for _, n in report.rho), default=0)
    table = report.rho if depth == report.n_max else correlation.yy_table(report.G, report.n_max)
    rho_rows = [(j, n, float(v)) for (j, n), v in sorted(table.items())]
    _write_table(out_dir, "rho", ("j", "n", "rho"), rho_rows, fmt)
    print(
        f"phi_g = {np.array2string(state.phi, precision=6)}  "
        f"max xi_RL = {float(np.max(report.xi_rl)):.3g}"
    )


def _run_phase_diagram(
    cfg: RunConfig, task: PhaseDiagramTask, out_dir: Path, fmt: str, threads: int
) -> None:
    diagram = phases.phase_diagram(
        cfg.chain,
        cfg.modes,
        task.lambda0_values,
        task.J_min_values,
        delta_J=task.delta_J,
        delta_J_factor=task.delta_J_factor,
        E_z_values=task.E_z_values,
        search=cfg.search,
        thresholds=cfg.thresholds,
        n_max=task.n_max,
        magnetic=task.magnetic,
        order=task.order,
        threads=threads,
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
        fmt,
    )
    _write_json(
        out_dir / "boundary.json",
        {
            "columns": [
                {
                    "E_z": col.E_z,
                    "J_min": col.J_min,
                    "lambda_c": col.lambda_c,
                    "lambda_spinodal": col.lambda_spinodal,
                    "lambda_crossing": col.lambda_crossing,
                    "transition_order": col.transition_order,
                    "status": col.status,
                    "message": col.message,
                }
                for col in diagram.columns
            ],
            "crossover": [{"E_z": ez, "J_min": mid} for ez, mid in diagram.crossover],
            "generated_at": _timestamp(),
        },
    )
    print(f"labeled {len(diagram.cells)} cells over {len(diagram.columns)} columns")


def _flat_field(Omega: np.ndarray) -> EffectiveField:
    """An effective field with given magnitudes and no rotation."""
    return EffectiveField(Omega=np.asarray(Omega, float), theta=np.zeros(len(Omega)))


def _run_validate(cfg: RunConfig, task: ValidateTask, out_dir: Path) -> None:
    rng = np.random.default_rng(task.seed)
    worst = {"energy": 0.0, "sigma_z": 0.0, "rho": 0.0}
    instances = []
    for i in range(task.instances):
        Omega = rng.uniform(0.1, 1.0, task.N)
        J = rng.uniform(0.0, 1.0, task.N)
        fld = _flat_field(Omega)
        sol = fermion.ground_sector(fld, J, both_sectors=True)
        e_chain = fermion.sector_energy(sol) / task.N

        problem = oracle.DenseSpinProblem(Omega=Omega, J=J)
        e_exact, _ = oracle.exact_ground(problem)
        _, vec = oracle.exact_ground(problem, parity=+1)
        pairs = [(j, n) for j in range(task.N) for n in range(1, task.max_distance + 1)]
        expect = oracle.exact_expectations(problem, vec, pairs=pairs)

        even = sol if sol.sector is fermion.Sector.EVEN else fermion.solve_quasiparticles(
            fermion.build_quadratic_form(fld, J, fermion.Sector.EVEN)
        )
        G = correlation.pair_contractions(even)
        d_energy = abs(e_chain - e_exact / task.N) / max(1.0, abs(e_exact / task.N))
        d_sz = float(np.max(np.abs(-np.diag(G) - expect["sigma_z"])))
        d_rho = max(
            abs(correlation.yy_correlation(G, j, n) - expect["yy"][(j, n)]) for j, n in pairs
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


_TASK_COMMANDS = {
    SolveTask: "solve",
    SweepTask: "sweep",
    PhaseDiagramTask: "phase-diagram",
    CorrelationsTask: "correlations",
    ValidateTask: "validate",
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        cfg = load_run_config(args.config)
        expected = _TASK_COMMANDS[type(cfg.task)]
        if expected != args.command:
            raise ConfigError(
                f"task.kind is {cfg.task.kind!r} but the subcommand was {args.command!r}"
            )
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    fmt = args.format or cfg.output_format
    out_dir = Path(args.out or cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        task = cfg.task
        if isinstance(task, SolveTask):
            _run_solve(cfg, task, out_dir, fmt, args)
        elif isinstance(task, SweepTask):
            _run_sweep(cfg, task, out_dir, fmt, args.threads)
        elif isinstance(task, CorrelationsTask):
            _run_correlations(cfg, task, out_dir, fmt)
        elif isinstance(task, PhaseDiagramTask):
            _run_phase_diagram(cfg, task, out_dir, fmt, args.threads)
        else:
            _run_validate(cfg, task, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
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

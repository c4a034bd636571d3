"""Run configuration: strict parsing of the YAML/JSON input files.

The file has up to five top-level blocks: ``model`` (chain, modes,
coupling), ``task`` (what to compute), ``output`` (where and how), and
optional ``search`` / ``thresholds`` overrides.  Unknown keys are
rejected everywhere, with the offending path in the error message; a
config that parses is a config whose every key meant something.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import yaml

from .meanfield import SearchSpec
from .model import ChainSpec, IsingProfile
from .phases import _AXES, Thresholds

__all__ = [
    "ConfigError",
    "SolveTask",
    "SweepTask",
    "PhaseDiagramTask",
    "CorrelationsTask",
    "ValidateTask",
    "RunConfig",
    "load_run_config",
]

_MISSING = object()


class ConfigError(ValueError):
    """A config file failed validation; the message carries the key path."""


@dataclass(frozen=True)
class SolveTask:
    kind = "solve"
    dump_spectrum: bool = False
    both_sectors: bool = False


@dataclass(frozen=True)
class SweepTask:
    kind = "sweep"
    axis: str = "lambda0"
    values: tuple = ()
    delta_J: float | None = None
    delta_J_factor: float | None = None


@dataclass(frozen=True)
class PhaseDiagramTask:
    kind = "phase-diagram"
    lambda0_values: tuple = ()
    J_min_values: tuple = ()
    E_z_values: tuple | None = None
    delta_J: float | None = None
    delta_J_factor: float | None = None
    magnetic: bool = True
    order: bool = True
    n_max: int | None = None


@dataclass(frozen=True)
class CorrelationsTask:
    kind = "correlations"
    n_max: int | None = None


@dataclass(frozen=True)
class ValidateTask:
    kind = "validate"
    instances: int = 20
    N: int = 8
    seed: int = 7
    energy_tol: float = 1e-9
    expectation_tol: float = 1e-8
    max_distance: int = 4


@dataclass(frozen=True)
class RunConfig:
    chain: ChainSpec
    modes: tuple
    lambda0: float | None
    task: object
    search: SearchSpec | None
    thresholds: Thresholds | None
    output_dir: str
    output_format: str


def _mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return node


def _check_keys(node: dict, allowed, path: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(map(repr, unknown))}")


def _get(node: dict, key: str, path: str, default=_MISSING):
    if key in node:
        return node[key]
    if default is _MISSING:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return default


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def _n_max(node, path: str) -> int | None:
    if "n_max" not in node:
        return None
    n_max = _integer(node["n_max"], f"{path}.n_max")
    if n_max < 1:
        raise ConfigError(f"{path}.n_max: must be at least 1")
    return n_max


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected a boolean")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    return value


def _grid(node, path: str) -> tuple:
    """A value grid: either an explicit list or {start, stop, num}."""
    if isinstance(node, (list, tuple)):
        if not node:
            raise ConfigError(f"{path}: grid must not be empty")
        return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(node))
    node = _mapping(node, path)
    _check_keys(node, ("start", "stop", "num"), path)
    start = _number(_get(node, "start", path), f"{path}.start")
    stop = _number(_get(node, "stop", path), f"{path}.stop")
    num = _integer(_get(node, "num", path), f"{path}.num")
    if num < 2:
        raise ConfigError(f"{path}.num: need at least 2 points")
    return tuple(float(v) for v in np.linspace(start, stop, num))


def _parse_ising(node, path: str) -> IsingProfile:
    node = _mapping(node, path)
    kind = _string(_get(node, "kind", path), f"{path}.kind")
    try:
        if kind == "uniform":
            _check_keys(node, ("kind", "J"), path)
            return IsingProfile.uniform(_number(_get(node, "J", path), f"{path}.J"))
        if kind == "rectangular":
            _check_keys(node, ("kind", "J_max", "J_min", "period"), path)
            return IsingProfile.rectangular(
                _number(_get(node, "J_max", path), f"{path}.J_max"),
                _number(_get(node, "J_min", path), f"{path}.J_min"),
                _integer(_get(node, "period", path), f"{path}.period"),
            )
        if kind == "explicit":
            _check_keys(node, ("kind", "values"), path)
            raw = _get(node, "values", path)
            if not isinstance(raw, (list, tuple)):
                raise ConfigError(f"{path}.values: expected a list")
            return IsingProfile.explicit(
                [_number(v, f"{path}.values[{i}]") for i, v in enumerate(raw)]
            )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown profile kind {kind!r}")


def _parse_model(node, path: str):
    node = _mapping(node, path)
    _check_keys(node, ("N", "E_z", "E_c", "ising", "modes", "lambda0"), path)
    N = _integer(_get(node, "N", path, 200), f"{path}.N")
    E_z = _number(_get(node, "E_z", path, 0.8), f"{path}.E_z")
    E_c = _number(_get(node, "E_c", path, 8.0), f"{path}.E_c")
    ising = _parse_ising(_get(node, "ising", path), f"{path}.ising")
    raw_modes = _get(node, "modes", path)
    if not isinstance(raw_modes, (list, tuple)) or not raw_modes:
        raise ConfigError(f"{path}.modes: expected a nonempty list of mode indices")
    modes = tuple(_integer(m, f"{path}.modes[{i}]") for i, m in enumerate(raw_modes))
    lambda0 = node.get("lambda0")
    if lambda0 is not None:
        lambda0 = _number(lambda0, f"{path}.lambda0")
    try:
        chain = ChainSpec(N=N, E_z=E_z, E_c=E_c, ising=ising)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return chain, modes, lambda0


def _parse_task(node, path: str):
    node = _mapping(node, path)
    kind = _string(_get(node, "kind", path), f"{path}.kind")
    if kind == "solve":
        _check_keys(node, ("kind", "dump_spectrum", "both_sectors"), path)
        return SolveTask(
            dump_spectrum=_boolean(_get(node, "dump_spectrum", path, False), f"{path}.dump_spectrum"),
            both_sectors=_boolean(_get(node, "both_sectors", path, False), f"{path}.both_sectors"),
        )
    if kind == "sweep":
        _check_keys(node, ("kind", "axis", "values", "delta_J", "delta_J_factor"), path)
        axis = _string(_get(node, "axis", path), f"{path}.axis")
        if axis not in _AXES:
            raise ConfigError(f"{path}.axis: must be lambda0, J_min or E_z")
        task = SweepTask(
            axis=axis,
            values=_grid(_get(node, "values", path), f"{path}.values"),
            delta_J=(
                None if "delta_J" not in node else _number(node["delta_J"], f"{path}.delta_J")
            ),
            delta_J_factor=(
                None
                if "delta_J_factor" not in node
                else _number(node["delta_J_factor"], f"{path}.delta_J_factor")
            ),
        )
        if task.delta_J is not None and task.delta_J_factor is not None:
            raise ConfigError(f"{path}: delta_J and delta_J_factor are mutually exclusive")
        return task
    if kind == "phase-diagram":
        _check_keys(
            node,
            ("kind", "lambda0", "J_min", "E_z", "delta_J", "delta_J_factor",
             "magnetic", "order", "n_max"),
            path,
        )
        task = PhaseDiagramTask(
            lambda0_values=_grid(_get(node, "lambda0", path), f"{path}.lambda0"),
            J_min_values=_grid(_get(node, "J_min", path), f"{path}.J_min"),
            E_z_values=(
                None if "E_z" not in node else _grid(node["E_z"], f"{path}.E_z")
            ),
            delta_J=(
                None if "delta_J" not in node else _number(node["delta_J"], f"{path}.delta_J")
            ),
            delta_J_factor=(
                None
                if "delta_J_factor" not in node
                else _number(node["delta_J_factor"], f"{path}.delta_J_factor")
            ),
            magnetic=_boolean(_get(node, "magnetic", path, True), f"{path}.magnetic"),
            order=_boolean(_get(node, "order", path, True), f"{path}.order"),
            n_max=_n_max(node, path),
        )
        if (task.delta_J is None) == (task.delta_J_factor is None):
            raise ConfigError(f"{path}: give exactly one of delta_J or delta_J_factor")
        return task
    if kind == "correlations":
        _check_keys(node, ("kind", "n_max"), path)
        return CorrelationsTask(n_max=_n_max(node, path))
    if kind == "validate":
        _check_keys(
            node,
            ("kind", "instances", "N", "seed", "energy_tol", "expectation_tol", "max_distance"),
            path,
        )
        return ValidateTask(
            instances=_integer(_get(node, "instances", path, 20), f"{path}.instances"),
            N=_integer(_get(node, "N", path, 8), f"{path}.N"),
            seed=_integer(_get(node, "seed", path, 7), f"{path}.seed"),
            energy_tol=_number(_get(node, "energy_tol", path, 1e-9), f"{path}.energy_tol"),
            expectation_tol=_number(
                _get(node, "expectation_tol", path, 1e-8), f"{path}.expectation_tol"
            ),
            max_distance=_integer(_get(node, "max_distance", path, 4), f"{path}.max_distance"),
        )
    raise ConfigError(f"{path}.kind: unknown task kind {kind!r}")


def _parse_spec_overrides(node, path: str, cls):
    """Build a SearchSpec/Thresholds from a partial mapping of overrides."""
    node = _mapping(node, path)
    # SearchSpec.line_points is read by nothing, so no config may set it
    allowed = {f.name for f in fields(cls)} - {"line_points"}
    _check_keys(node, allowed, path)
    int_fields = {"coarse_points", "multi_coarse_points", "n_seeds"}
    kwargs = {}
    for key, value in node.items():
        where = f"{path}.{key}"
        number = _number(value, where)
        kwargs[key] = _integer(value, where) if key in int_fields else number
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_run_config(path) -> RunConfig:
    """Parse and validate a config file (YAML; JSON parses as a subset)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    root = _mapping(raw, "config")
    _check_keys(root, ("model", "task", "output", "search", "thresholds"), "config")

    chain, modes, lambda0 = _parse_model(_get(root, "model", "config"), "model")
    task = _parse_task(_get(root, "task", "config"), "task")

    out = _mapping(_get(root, "output", "config", {}), "output")
    _check_keys(out, ("dir", "format"), "output")
    output_dir = _string(_get(out, "dir", "output", "out"), "output.dir")
    output_format = _string(_get(out, "format", "output", "csv"), "output.format")
    if output_format not in ("csv", "json"):
        raise ConfigError("output.format: must be csv or json")

    search = None
    if "search" in root:
        search = _parse_spec_overrides(root["search"], "search", SearchSpec)
    thresholds = None
    if "thresholds" in root:
        thresholds = _parse_spec_overrides(root["thresholds"], "thresholds", Thresholds)

    return RunConfig(
        chain=chain,
        modes=modes,
        lambda0=lambda0,
        task=task,
        search=search,
        thresholds=thresholds,
        output_dir=output_dir,
        output_format=output_format,
    )

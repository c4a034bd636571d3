"""Run configuration: strict parsing of the YAML/JSON input files.

The file has up to five top-level blocks: ``model`` (chain, modes,
coupling), ``task`` (what to compute), ``output`` (where and how), and
optional ``search`` / ``thresholds`` overrides.  Unknown keys are
rejected everywhere, with the offending path in the error message; a
config that parses is a config whose every key meant something.  So a
``validate`` task, which draws its own rings, takes no ``model`` block,
and no ``search`` block either; only a ``phase-diagram`` task reads
``thresholds`` (a task class's ``reads``).

The dataclasses are the schema: :func:`_block` reads every block from
the fields of its dataclass (``_Model``, the task class ``task.kind``
names, ``_Output``, ``SearchSpec``, ``Thresholds``).  A key is a field
name or its ``metadata["key"]``, the annotation picks the value parser,
a field without a default is a required key, and a missing key keeps the
default.  ``model.ising.kind`` names an ``IsingProfile`` factory, whose
parameters are the other keys.

The parser states no rule on values; each rule has one owner, whose
``ValueError`` becomes a ``ConfigError`` naming the block.  A block's
dataclass (``ChainSpec`` and ``ModeSet`` for ``model``, ``ValidateTask``,
``_Output``, ``SearchSpec``, ``Thresholds``) checks it as it is built.  A
task's ``check_runnable`` ties it to the model through the library call
the run makes (``phases._plan``, for a sweep through ``phases._sweep_plan``,
and ``correlation._check_n_max``); the CLI calls it before making the
output directory.
"""

from __future__ import annotations

import inspect
import math
import typing
from dataclasses import MISSING, dataclass, field, fields

import numpy as np
import yaml

from .correlation import _check_n_max
from .meanfield import SearchSpec
from .model import ChainSpec, IsingProfile, ModeSet
from .oracle import _HARD_MAX
from .phases import SweepContext, Thresholds, _plan, _sweep_plan

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

_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """A config file failed validation; the message carries the key path."""


def _library(path: str, rule, *args, **kwargs):
    """Call one of the library's own constructors or checks; its ``ValueError`` names ``path``."""
    try:
        return rule(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class _Model:
    ising: IsingProfile
    modes: tuple[int, ...]
    N: int = 200
    E_z: float = 0.8
    E_c: float = 8.0
    lambda0: float | None = None
    chain: ChainSpec = field(init=False)
    modeset: ModeSet | None = field(init=False)

    def __post_init__(self) -> None:
        chain = ChainSpec(N=self.N, E_z=self.E_z, E_c=self.E_c, ising=self.ising)
        # a task that sweeps the coupling leaves lambda0 unset; 0 stands in
        modeset = ModeSet(modes=self.modes, lambda0=self.lambda0 or 0.0, N=self.N, E_c=self.E_c)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "modeset", None if self.lambda0 is None else modeset)


@dataclass(frozen=True)
class _Output:
    dir: str = "out"
    format: str = "csv"

    def __post_init__(self) -> None:
        if self.format not in _FORMATS:
            raise ValueError("format must be csv or json")


class _Task:
    at_lambda0 = False  # solved at model.lambda0 alone
    reads = ("search",)  # the optional blocks a run of the task reads

    def check_runnable(self, cfg: RunConfig) -> None:
        """Raise ``ConfigError`` unless a run can set up every point the task asks for."""
        if self.at_lambda0 and cfg.modeset is None:
            raise ConfigError("model.lambda0: required for this task")


@dataclass(frozen=True)
class SolveTask(_Task):
    kind = "solve"
    at_lambda0 = True
    dump_spectrum: bool = False


@dataclass(frozen=True)
class SweepTask(_Task):
    kind = "sweep"
    axis: str
    values: tuple
    delta_J: float | None = None
    delta_J_factor: float | None = None

    def context(self, cfg: RunConfig) -> SweepContext:
        return SweepContext(
            chain=cfg.chain, modes=cfg.modes, lambda0=cfg.lambda0, search=cfg.search,
            delta_J=self.delta_J, delta_J_factor=self.delta_J_factor,
        )

    def check_runnable(self, cfg: RunConfig) -> None:
        _library("task", _sweep_plan, self.context(cfg), self.axis, self.values)


@dataclass(frozen=True)
class PhaseDiagramTask(_Task):
    kind = "phase-diagram"
    reads = ("search", "thresholds")
    lambda0_values: tuple = field(metadata={"key": "lambda0"})
    J_min_values: tuple = field(metadata={"key": "J_min"})
    E_z_values: tuple | None = field(default=None, metadata={"key": "E_z"})
    delta_J: float | None = None
    delta_J_factor: float | None = None
    magnetic: bool = True
    order: bool = True
    n_max: int | None = None

    def check_runnable(self, cfg: RunConfig) -> None:
        if cfg.lambda0 is not None:
            raise ConfigError("model.lambda0: not read by a phase diagram, whose task.lambda0 "
                              "grid sets the coupling")
        _library(
            "task", _plan, cfg.chain, cfg.modes, self.lambda0_values, self.J_min_values,
            self.delta_J, self.delta_J_factor, self.E_z_values, self.n_max,
        )


@dataclass(frozen=True)
class CorrelationsTask(_Task):
    kind = "correlations"
    at_lambda0 = True
    n_max: int | None = None

    def check_runnable(self, cfg: RunConfig) -> None:
        super().check_runnable(cfg)
        _library("task", _check_n_max, self.n_max)


@dataclass(frozen=True)
class ValidateTask(_Task):
    kind = "validate"
    reads = ()
    instances: int = 20
    N: int = 8
    seed: int = 7
    energy_tol: float = 1e-9
    expectation_tol: float = 1e-8
    max_distance: int = 4

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ValueError("instances must be at least 1")
        if not 2 <= self.N <= _HARD_MAX:
            raise ValueError(f"N must lie between 2 and {_HARD_MAX}")
        if not 0 <= self.seed:
            raise ValueError(f"seed must not be negative, got {self.seed}")
        for name in ("energy_tol", "expectation_tol"):
            tol = getattr(self, name)
            if not 0 <= tol < math.inf:
                raise ValueError(f"{name} must not be negative or infinite, got {tol}")
        if not 1 <= self.max_distance <= self.N - 1:
            raise ValueError(f"max_distance must lie between 1 and N - 1 = {self.N - 1}")


_TASKS = {cls.kind: cls for cls in _Task.__subclasses__()}


@dataclass(frozen=True)
class RunConfig:
    task: object
    search: SearchSpec | None
    thresholds: Thresholds | None
    output_dir: str
    output_format: str
    # the model block; a validate config has none
    chain: ChainSpec | None = None
    modes: tuple = ()
    lambda0: float | None = None
    modeset: ModeSet | None = None  # the modes at lambda0, when the model block fixes it


def _mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return node


def _check_keys(node: dict, allowed, path: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(map(repr, unknown))}")


def _get(node: dict, key: str, path: str):
    if key not in node:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return node[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    return float(value)


def _integer(value, path: str) -> int:
    _number(value, path)
    if not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected a boolean")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    return value


def _list_of(item):
    def parse(node, path: str) -> tuple:
        if not isinstance(node, (list, tuple)) or not node:
            raise ConfigError(f"{path}: expected a nonempty list")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(node))

    return parse


def _grid(node, path: str) -> tuple:
    """A value grid: either an explicit list or {start, stop, num}."""
    if isinstance(node, (list, tuple)):
        if not node:
            raise ConfigError(f"{path}: grid must not be empty")
        return _list_of(_number)(node, path)
    node = _mapping(node, path)
    _check_keys(node, ("start", "stop", "num"), path)
    start = _number(_get(node, "start", path), f"{path}.start")
    stop = _number(_get(node, "stop", path), f"{path}.stop")
    num = _integer(_get(node, "num", path), f"{path}.num")
    if num < 2:
        raise ConfigError(f"{path}.num: need at least 2 points")
    return tuple(float(v) for v in np.linspace(start, stop, num))


def _parse_ising(node, path: str) -> IsingProfile:
    """``kind`` names an ``IsingProfile`` factory; its parameters are the other keys."""
    node = dict(_mapping(node, path))
    kind = _string(_get(node, "kind", path), f"{path}.kind")
    if not isinstance(inspect.getattr_static(IsingProfile, kind, None), classmethod):
        raise ConfigError(f"{path}.kind: unknown profile kind {kind!r}")
    del node["kind"]
    factory = getattr(IsingProfile, kind)
    params = inspect.signature(factory).parameters
    _check_keys(node, params, path)
    hints = typing.get_type_hints(IsingProfile)
    kwargs = {k: _value(hints[k], _get(node, k, path), f"{path}.{k}") for k in params}
    return _library(path, factory, **kwargs)


_PARSERS = {
    bool: _boolean,
    int: _integer,
    float: _number,
    str: _string,
    tuple: _grid,
    tuple[int, ...]: _list_of(_integer),
    tuple[float, ...]: _list_of(_number),
    IsingProfile: _parse_ising,
}


def _value(hint, value, path: str):
    """Read ``value`` as the annotation ``hint`` says; ``X | None`` reads as ``X``."""
    args = set(typing.get_args(hint))
    if type(None) in args:
        (hint,) = args - {type(None)}
    return _PARSERS[hint](value, path)


def _block(node, path: str, cls, hidden=()):
    """Build the dataclass ``cls`` from a mapping whose keys are its fields."""
    node = _mapping(node, path)
    hints = typing.get_type_hints(cls)
    keyed = {
        f.metadata.get("key", f.name): f for f in fields(cls) if f.init and f.name not in hidden
    }
    _check_keys(node, keyed, path)
    kwargs = {}
    for key, f in keyed.items():
        if key not in node:
            if f.default is MISSING:
                raise ConfigError(f"{path}: missing required key {key!r}")
            continue
        if node[key] is None and f.default is None:
            continue
        kwargs[f.name] = _value(hints[f.name], node[key], f"{path}.{key}")
    return _library(path, cls, **kwargs)


def _parse_task(node):
    node = dict(_mapping(node, "task"))
    kind = _string(_get(node, "kind", "task"), "task.kind")
    if kind not in _TASKS:
        raise ConfigError(f"task.kind: unknown task kind {kind!r}")
    del node["kind"]
    return _block(node, "task", _TASKS[kind])


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

    task = _parse_task(_get(root, "task", "config"))
    model = {}
    if task.kind != ValidateTask.kind:
        m = _block(_get(root, "model", "config"), "model", _Model)
        model = dict(chain=m.chain, modes=m.modes, lambda0=m.lambda0, modeset=m.modeset)
    elif "model" in root:
        raise ConfigError("model: validate draws its own rings and reads no model block")
    for name in ("search", "thresholds"):
        if name in root and name not in task.reads:
            raise ConfigError(f"{name}: not read by a {task.kind} run")
    output = _block(root.get("output", {}), "output", _Output)
    search = thresholds = None
    if "search" in root:
        # SearchSpec.line_points is read by nothing, so no config may set it
        search = _block(root["search"], "search", SearchSpec, hidden=("line_points",))
    if "thresholds" in root:
        thresholds = _block(root["thresholds"], "thresholds", Thresholds)

    return RunConfig(
        task=task,
        search=search,
        thresholds=thresholds,
        output_dir=output.dir,
        output_format=output.format,
        **model,
    )

"""Parameter sweeps, transition location, and phase labeling.

The sweep machinery minimizes the mean-field energy point by point along
one axis (coupling strength, weak-bond strength, or qubit splitting) and
the classifiers condense the results into labels:

* field phase: ``normal`` vs ``superradiant`` by the condensate norm;
* transition order along the coupling axis: a jump test at the critical
  coupling, probed either side of the lower of two exact onsets, the
  linear-response onset or spinodal (exact on a second-order transition)
  and, for a single mode, the crossing onset where a condensate first ties
  ``phi = 0`` (exact on a first-order one), and bisected only if those
  probes miss it; hysteresis, an onset below the spinodal (on one mode
  the crossing, on several the bisection's upper edge), corroborates the
  jump;
* magnetic order of the qubit ring from its decay lengths and
  polarizations: paramagnetic ``P``, ferromagnetic ``F``, or the spatially
  alternating ``FP`` pattern that strong-bond windows imprint.  A phase
  diagram's cell walks the lengths only until bounds on them settle its
  label, which is the label of the full correlation report.

Labels compose as ``N``/``S`` prefix plus magnetic order, e.g. ``SFP``.

A sweep along the coupling is one column of :mod:`~cavising.meanfield`:
its memoized states, its ``phi = 0`` record (onset, ground state, or the
failure of that solve) and, on one mode, the unit-coupling scan that
every coupling re-scores.  The result keeps the column, and every onset
search on it reuses it, so a column is sampled once.  A point on the
other axes is one :func:`~cavising.meanfield.minimize_phi`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .correlation import _check_n_max, _ground_state, _window_minors
from .fermion import SolverError
from .meanfield import SearchSpec, _Column, minimize_phi
from .model import ChainSpec, IsingProfile, ModeSet

__all__ = [
    "NoTransitionError",
    "AlreadyCondensedError",
    "Thresholds",
    "SweepContext",
    "SweepRecord",
    "SweepResult",
    "TransitionClassification",
    "PhaseLabel",
    "PhaseCell",
    "PhaseColumn",
    "PhaseDiagram",
    "sweep",
    "critical_coupling",
    "classify_transition_order",
    "classify_magnetic_order",
    "phase_diagram",
]


class NoTransitionError(RuntimeError):
    """The sweep never crosses the condensation threshold."""


class AlreadyCondensedError(NoTransitionError):
    """The sweep starts on the condensed side; the onset lies below the grid."""


@dataclass(frozen=True)
class Thresholds:
    """Classifier knobs, shared by the transition and magnetic labels; each is finite
    and not negative, and the bisection's bracket width is positive."""

    field: float = 1e-5
    critical_tol: float = 1e-4
    jump: float = 0.02
    xi: float = 5.0
    sigma_z: float = 0.8
    oscillation: float = 0.3

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            strict = name == "critical_tol"
            if not (0 < value < math.inf if strict else 0 <= value < math.inf):
                raise ValueError(
                    f"{name} must be {'> 0' if strict else '>= 0'} and finite, got {value}"
                )


@dataclass(frozen=True)
class SweepContext:
    """Everything held fixed during a sweep.

    ``lambda0`` is the coupling when the swept axis is not the coupling
    itself, and unset along it.  ``delta_J`` (absolute) or ``delta_J_factor``
    (relative to ``E_z``) sets the strong/weak contrast when sweeping
    ``J_min``; the factor variant also rescales the contrast when
    sweeping ``E_z``.
    """

    chain: ChainSpec
    modes: tuple
    lambda0: float | None = None
    search: SearchSpec | None = None
    delta_J: float | None = None
    delta_J_factor: float | None = None


@dataclass(frozen=True)
class SweepRecord:
    value: float
    phi: tuple | None
    Sigma_x: tuple | None
    e_g: float | None
    degenerate: bool
    status: str
    message: str = ""


@dataclass(frozen=True)
class SweepResult:
    """The records of one sweep and, along ``lambda0``, the column that solved them.

    The private ``_solver`` memoizes a ``lambda0`` sweep's minimizations and
    its ``phi = 0`` record (on one mode, around the column's unit-coupling
    curve); the onset searches of :func:`critical_coupling` and
    :func:`classify_transition_order` on this result reuse it instead of
    sampling the column again.  Other axes keep ``None``.
    """

    axis: str
    records: tuple
    context: SweepContext
    _solver: _Column | None = field(compare=False, repr=False)

    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.records])


def _contrast(chain: ChainSpec, J_min: float, delta_J, delta_J_factor) -> ChainSpec:
    """``chain`` with strong bonds ``J_min + delta_J``, or ``J_min + delta_J_factor E_z``,
    on a weak ``J_min``, in the windows of its rectangular profile."""
    if chain.ising.kind != "rectangular":
        raise ValueError("a strong/weak bond contrast needs a rectangular Ising profile")
    dJ = delta_J if delta_J is not None else delta_J_factor * chain.E_z
    return replace(chain, ising=IsingProfile.rectangular(J_min + dJ, J_min, chain.ising.period))


def _plan(chain: ChainSpec, modes, lambda0_values, J_min_values, delta_J, delta_J_factor,
          E_z_values, n_max=None):
    """A grid over ``E_z``, ``J_min`` and ``lambda0``, built before anything is solved: each
    ``E_z``, as a float, with its ``J_min`` values' chains, and the mode set at each ``lambda0``.

    Without ``E_z`` or ``J_min`` values the grid keeps the chain's own.  A ``J_min`` grid
    reads exactly one of ``delta_J`` and ``delta_J_factor``.  Without a ``J_min`` grid only
    an ``E_z`` grid reads a key, ``delta_J_factor``, which rescales the chain's contrast at
    each ``E_z``.  A key left unread, or a value no chain or mode set takes, raises
    ``ValueError``.
    """
    contrast = delta_J is not None or delta_J_factor is not None
    if delta_J is not None and delta_J_factor is not None:
        raise ValueError("delta_J and delta_J_factor are mutually exclusive")
    if J_min_values is None:
        if delta_J is not None:
            along = "lambda0" if E_z_values is None else "E_z"
            raise ValueError(f"a sweep along {along} does not read delta_J")
        if delta_J_factor is not None and E_z_values is None:
            raise ValueError("a sweep along lambda0 does not read delta_J_factor")
    elif not contrast:
        raise ValueError("J_min grids need delta_J or delta_J_factor")
    _check_n_max(n_max)
    lams = map(float, lambda0_values)
    modesets = [ModeSet(modes=modes, lambda0=lam, N=chain.N, E_c=chain.E_c) for lam in lams]
    groups = []
    for E_z in map(float, E_z_values if E_z_values is not None else (chain.E_z,)):
        at = replace(chain, E_z=E_z)
        J_mins = J_min_values if J_min_values is not None else (at.ising.J_min,)
        groups.append((E_z, [_contrast(at, J, delta_J, delta_J_factor) if contrast else at
                             for J in J_mins]))
    return groups, modesets


def _sweep_plan(ctx: SweepContext, axis: str, values):
    """:func:`_plan` of a sweep: the grid holds ``values`` on ``axis`` and the context's
    ``lambda0`` and chain on the other two."""
    grid = {"lambda0": (ctx.lambda0,), "J_min": None, "E_z": None}
    if axis not in grid:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {tuple(grid)}")
    if axis == "lambda0" and ctx.lambda0 is not None:
        raise ValueError("a sweep along lambda0 does not read a fixed lambda0")
    if axis != "lambda0" and ctx.lambda0 is None:
        raise ValueError(f"sweeping {axis!r} needs a fixed lambda0 in the context")
    grid[axis] = values
    return _plan(ctx.chain, ctx.modes, grid["lambda0"], grid["J_min"], ctx.delta_J,
                 ctx.delta_J_factor, grid["E_z"])


def _solve_record(solve, value: float) -> SweepRecord:
    try:
        state = solve(value)
    except (SolverError, ValueError) as exc:
        return SweepRecord(
            value=float(value), phi=None, Sigma_x=None, e_g=None, degenerate=False,
            status="error", message=str(exc),
        )
    return SweepRecord(
        value=float(value),
        phi=tuple(state.phi),
        Sigma_x=tuple(state.Sigma_x),
        e_g=state.e_g,
        degenerate=state.degenerate,
        status="ok",
    )


def sweep(ctx: SweepContext, axis: str, values: Sequence[float]) -> SweepResult:
    """Minimize along one axis; a point the solver fails is recorded, not fatal.

    ``axis`` is one of ``"lambda0"``, ``"J_min"`` and ``"E_z"``.  The grid is
    built first, by :func:`phase_diagram`'s plan: an unknown axis, a fixed
    ``lambda0`` or contrast missing where the axis reads it or set where it
    does not, or a value no chain or mode set takes raises ``ValueError``
    before any point is solved, so only a
    :class:`~cavising.fermion.SolverError` makes an error record.
    Along ``lambda0`` the points are one memoized column; on one mode every
    point re-scores one unit-coupling curve, whose spinodal (one full solve,
    also the bisection's first guess) settles each point's first grid cell.
    The result keeps the column, so the onset searches on it reuse the
    sweep's solves and curve.  A point on the other axes is one
    :func:`minimize_phi`.
    """
    groups, modesets = _sweep_plan(ctx, axis, values)
    values = [float(v) for v in values]
    if axis == "lambda0":
        solver = _Column(ctx.chain, ctx.modes, ctx.search, values)
        solve = solver.state
    else:
        solver = None
        chains = dict(zip(values, (chain for _, group in groups for chain in group)))
        solve = lambda v: minimize_phi(chains[v], modesets[0], ctx.search)
    records = [_solve_record(solve, v) for v in values]
    return SweepResult(axis=axis, records=tuple(records), context=ctx, _solver=solver)


def _condensed(record: SweepRecord, thr: Thresholds) -> bool:
    if record.status != "ok":
        raise SolverError(f"sweep point {record.value} failed: {record.message}")
    return max(abs(p) for p in record.phi) > thr.field


def _onset_bracket(result: SweepResult, thr: Thresholds):
    # records past the first condensed one cannot move the bracket, so a
    # failure there does not void it
    for i, record in enumerate(result.records):
        if _condensed(record, thr):
            if i == 0:
                raise AlreadyCondensedError("already condensed at the low end of the sweep")
            return result.records[i - 1].value, record.value
    raise NoTransitionError("no transition in the swept range")


def _probe_guess(solver: _Column, guess, lo: float, hi: float, thr: Thresholds):
    # a guess only chooses where to probe first: both probes go through
    # the real minimizer, so a wrong guess costs one solve and leaves the
    # bracket verified
    if guess is not None:
        for probe in (guess - 0.4 * thr.critical_tol, guess + 0.4 * thr.critical_tol):
            if not lo < probe < hi:
                continue
            if solver.phi_norm(probe) > thr.field:
                return lo, probe
            lo = probe
    return lo, hi


def _refine_onset(result: SweepResult, thr: Thresholds):
    """Bisection bracket ``(lo, hi)`` of the onset, solved with ``result``'s solver."""
    lo, hi = _onset_bracket(result, thr)
    if result.axis != "lambda0":
        raise ValueError("transition refinement is defined along the lambda0 axis")
    solver = result._solver
    guesses = [solver.normal.onset]
    if solver.curve is not None:
        # a first-order onset lies below the linear-response one; the
        # condensates in the bracket have s = lambda0 phi <= hi phi_max
        guesses.append(solver.crossing_below(hi * solver.curve.search.phi_max))
    guess = min((g for g in guesses if g is not None), default=None)
    lo, hi = _probe_guess(solver, guess, lo, hi, thr)
    while hi - lo > thr.critical_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # a bracket one ulp wide
            break
        if solver.phi_norm(mid) > thr.field:
            hi = mid
        else:
            lo = mid
    return lo, hi


def critical_coupling(result: SweepResult, thresholds: Thresholds | None = None) -> float:
    """Onset coupling of the condensate, refined to ``critical_tol``.

    The sweep must run along ``lambda0`` and must straddle the onset:
    :class:`NoTransitionError` or :class:`AlreadyCondensedError` report
    the two ways a grid can miss it.  The search reuses the sweep's
    solver (and, on one mode, its unit-coupling curve).  It takes two
    exact onsets, :func:`~cavising.meanfield.normal_phase_onset` and, on
    one mode, the coupling at which a condensate first ties ``phi = 0``,
    read off the column's curve up to the bracket's upper edge times
    ``phi_max``, and probes just either side of the lower one when it falls
    inside the bracket: the spinodal on a second-order transition, the
    crossing on a first-order one, and either way those two solves close
    the bracket.  Only when they do not does it bisect.  Every probe is a
    full minimization (on one mode, the curve re-scored and then refined
    in ``s = lambda0 phi`` on its memoized unit energy), so the result
    does not rest on the guess, and a wrong guess costs one solve before
    the bisection goes on.
    """
    lo, hi = _refine_onset(result, thresholds or Thresholds())
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TransitionClassification:
    order: str  # "first" | "second" | "ambiguous" | "none"
    lambda_c: float | None = None
    jump: float | None = None
    hysteresis: bool | None = None


def classify_transition_order(
    result: SweepResult, thresholds: Thresholds | None = None
) -> TransitionClassification:
    """Order of the condensation transition along a ``lambda0`` sweep.

    Primary signal: the condensate amplitude at the upper edge of the
    bisection bracket; a second-order onset has barely left zero there
    while a first-order one arrives with a finite jump.  Hysteresis
    corroborates it: a condensate onset more than ``critical_tol`` below the
    spinodal, so between the two ``phi = 0`` is a local minimum while a
    condensate is global.  On one mode that onset is the crossing, where a
    condensate first ties ``phi = 0``, read off the column's curve; on
    several it is the bracket's upper edge, the lowest coupling at which the
    minimizer holds a condensate.  Either way the order costs no solve
    beyond the onset search.

    The label is ``first`` or ``second`` when the jump and hysteresis agree,
    and ``ambiguous`` rather than a coin flip when they do not.

    The bracket comes from :func:`critical_coupling`'s search on the
    sweep's own solver: the probes ``0.4 critical_tol`` either side of the
    lower of the linear-response onset and, for one mode, the
    energy-crossing onset (the spinodal on a second-order transition, the
    crossing on a first-order one), bisection only if they do not close
    it; the upper edge is where the jump is read.
    """
    thr = thresholds or Thresholds()
    try:
        lo, hi = _refine_onset(result, thr)
    except AlreadyCondensedError:
        raise
    except NoTransitionError:
        return TransitionClassification(order="none")
    solver = result._solver
    jump = solver.phi_norm(hi)
    lam_s = solver.normal.onset
    lam_x = solver.crossing if len(result.context.modes) == 1 else hi
    # between the condensate's onset and the spinodal phi = 0 is local, a condensate global
    hysteresis = lam_x is not None and (lam_s is None or lam_s - lam_x > thr.critical_tol)
    order = "first" if hysteresis else "second"
    if (jump > thr.jump) != hysteresis:
        order = "ambiguous"
    return TransitionClassification(
        order=order, lambda_c=0.5 * (lo + hi), jump=jump, hysteresis=hysteresis
    )


def classify_magnetic_order(
    report, chain: ChainSpec, thresholds: Thresholds | None = None
) -> str:
    """Label the qubit ring from its correlation report.

    ``P``: short-ranged everywhere and strongly polarized along the
    rotated field.  ``F``: the decay length clears the threshold on
    every site.  ``FP``: both the length and the polarization oscillate
    strongly; for rectangular profiles the pattern must also align with
    the bond windows (longer lengths and weaker polarization on the
    strong bonds).  Anything else: ``undetermined``.  The rules are
    :func:`_magnetic_order`'s on lengths known exactly; :func:`phase_diagram`
    applies them to bounds on lengths still being walked.
    """
    xi, sz = np.asarray(report.xi_rl), np.asarray(report.sigma_z_rot)
    return _magnetic_order(xi, xi, sz, chain, thresholds or Thresholds())


# (max - min) / max(max, 1e-300), a ratio of at most 1, falls as min grows
# under any rounding, but as max grows it may dip by an ulp or two (in 1.6%
# of adjacent float pairs at lengths up to 40): a bound on max decides the
# oscillation test only clear of that
_OSC_SLACK = 4 * np.finfo(float).eps


def _oscillation(top: float, bottom: float) -> float:
    return (top - bottom) / max(top, 1e-300)


def _magnetic_order(xi_lo, xi_hi, sz, chain: ChainSpec, thr: Thresholds) -> str | None:
    """The label :func:`classify_magnetic_order` gives every ``xi_rl`` with
    ``xi_lo <= xi_rl <= xi_hi`` site by site, or ``None`` while those differ.

    Each test is the classifier's expression on the side of the bounds
    that could still fail it: ``max``, ``min``, ``0.5 (xi_r + xi_l)`` and the
    strong/weak means only rise as any length does, under any rounding, so
    a test settled on the bounds is settled on the final lengths; the
    oscillation of the lengths, only up to ``_OSC_SLACK``.  With
    ``xi_lo == xi_hi`` every test is settled.
    """
    lo_max, lo_min, hi_max, hi_min = xi_lo.max(), xi_lo.min(), xi_hi.max(), xi_hi.min()
    sz_max, sz_min = sz.max(), sz.min()
    if sz_min >= thr.sigma_z:
        if hi_max <= thr.xi:
            return "P"
        if lo_max <= thr.xi:
            return None
    if lo_min >= thr.xi:
        return "F"
    if hi_min >= thr.xi:
        return None
    slack = 0.0 if lo_max == hi_max else _OSC_SLACK
    osc_sz = (sz_max - sz_min) / max(abs(sz_max), 1e-300)
    if not (_oscillation(hi_max, lo_min) + slack > thr.oscillation and osc_sz > thr.oscillation):
        return "undetermined"
    if not _oscillation(lo_max, hi_min) - slack > thr.oscillation:
        return None
    if chain.ising.kind == "rectangular":
        bonds = chain.bonds()
        strong = bonds == bonds.max()
        if strong.any() and (~strong).any():
            # aligned: longer lengths and weaker polarization on the strong bonds
            aligned = (
                xi_hi[strong].mean() > xi_lo[~strong].mean()
                and sz[strong].mean() < sz[~strong].mean()
            )
            if not aligned:
                return "undetermined"
            if not xi_lo[strong].mean() > xi_hi[~strong].mean():
                return None
    return "FP"


def _magnetic_label(
    chain: ChainSpec, modeset: ModeSet, phi, thr: Thresholds, *, n_max=None, solution=None
) -> str:
    """``classify_magnetic_order(correlation_report(chain, modeset, phi, n_max=n_max,
    solution=solution), chain, thr)``, with the decay-length walks taken only
    until the label is settled.

    The walks read the report's table, column for column, so each length
    that closes is the report's; the walks still open only bound theirs.
    """
    _, solution, n_max = _ground_state(chain, modeset, phi, n_max, solution)
    sz, N = solution.sigma_z, chain.N

    def label(walks):
        lo, hi = walks.bounds()
        return _magnetic_order(0.5 * (lo[:N] + lo[N:]), 0.5 * (hi[:N] + hi[N:]), sz, chain, thr)

    _, walks = _window_minors(
        solution.G, n_max, solution.period, stop=lambda walks: label(walks) is not None
    )
    return label(walks)


@dataclass(frozen=True)
class PhaseLabel:
    field_phase: str
    transition_order: str
    magnetic_order: str

    @property
    def code(self) -> str:
        prefix = "S" if self.field_phase == "superradiant" else "N"
        magnetic = self.magnetic_order if self.magnetic_order != "undetermined" else "?"
        return prefix + magnetic


@dataclass(frozen=True)
class PhaseCell:
    E_z: float
    J_min: float
    J_max: float
    lambda0: float
    phi: tuple | None
    e_g: float | None
    label: PhaseLabel | None
    status: str
    message: str = ""


@dataclass(frozen=True)
class PhaseColumn:
    """One ``J_min`` column: its onset and transition order.

    ``lambda_spinodal`` is :func:`~cavising.meanfield.normal_phase_onset`
    of the column, where ``phi = 0`` stops being a minimum (``None`` when
    it never does): the onset itself on a second-order column, above
    ``lambda_c`` on a first-order one.  ``lambda_crossing`` is the crossing
    onset the single-mode bisection read (else ``None``): the onset itself
    on a first-order column.  ``status`` is ``"error"`` when
    locating the onset failed (a failed sweep point inside the bracket
    search, or a failed solve during bisection); ``message`` then says
    why, and the column's cells are still labeled.
    """

    E_z: float
    J_min: float
    lambda_c: float | None
    transition_order: str
    status: str = "ok"
    message: str = ""
    lambda_spinodal: float | None = None
    lambda_crossing: float | None = None


@dataclass(frozen=True)
class PhaseDiagram:
    cells: tuple
    columns: tuple
    crossover: tuple  # (E_z, J_min midpoint of the second->first change) pairs


def phase_diagram(
    chain: ChainSpec,
    modes,
    lambda0_values: Sequence[float],
    J_min_values: Sequence[float],
    *,
    delta_J: float | None = None,
    delta_J_factor: float | None = None,
    E_z_values: Sequence[float] | None = None,
    search: SearchSpec | None = None,
    thresholds: Thresholds | None = None,
    n_max: int | None = None,
    magnetic: bool = True,
    order: bool = True,
    threads: int = 1,
) -> PhaseDiagram:
    """Label a (J_min, lambda0) grid, optionally stacked over E_z.

    Each ``J_min`` column is a :func:`sweep` in ``lambda0`` whose onset
    :func:`critical_coupling` refines into a boundary point, or, when
    ``order`` is set, :func:`classify_transition_order` refines and
    classifies; both reuse the sweep's solver.  Cell labels combine the
    local field phase with (when ``magnetic`` is set) the magnetic order
    of the solved ground state: :func:`classify_magnetic_order` of its
    correlation report with separations up to ``n_max``, reached without
    the report, by walking the decay lengths only until their bounds settle
    the label.  The cells of a column at ``phi = 0``, whose field is
    ``E_z/2`` on every site at any ``lambda0``, share one label, on the
    ground state the column's spinodal solved (solved afresh if that
    failed).
    The per-``E_z`` crossover is the midpoint between the largest
    ``J_min`` column labeled second order and the smallest labeled first
    order, provided the two groups do not interleave.  A profile, contrast,
    ``J_min``, ``E_z`` or ``lambda0`` value some column cannot take, or an
    ``n_max`` below 1, raises ``ValueError`` before anything is solved.

    A solver failure while locating one column's onset is recorded on
    that column (``status == "error"``) and does not stop the others; a
    failed sweep point above the column's first condensed one leaves the
    onset alone and only its own cell unlabeled.  A failed ground-state solve
    for a label leaves its cell, or the ``phi = 0`` cells that share it,
    unlabeled with ``status == "error"``; the column and the other cells stand.

    Columns are solved serially.  ``threads`` accepts only 1 and goes at
    the next benchmark change; any other value raises ``ValueError``.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1 (columns are solved serially), got {threads!r}")
    groups, modesets = _plan(chain, modes, lambda0_values, J_min_values, delta_J,
                             delta_J_factor, E_z_values, n_max)
    thr = thresholds or Thresholds()
    modes = tuple(int(m) for m in modes)
    lambda0_values = [float(v) for v in lambda0_values]

    cells = []
    columns = []
    crossover = []
    for E_z, col_chains in groups:
        for col_chain in col_chains:
            J_min = col_chain.ising.J_min
            ctx = SweepContext(chain=col_chain, modes=modes, search=search)
            result = sweep(ctx, "lambda0", lambda0_values)
            solver = result._solver
            lambda_c = lambda_s = None
            t_order = "none"
            status, message = "ok", ""
            try:
                lambda_s = solver.normal.onset
                if order:
                    cls = classify_transition_order(result, thr)
                    lambda_c, t_order = cls.lambda_c, cls.order
                else:
                    lambda_c = critical_coupling(result, thr)
            except NoTransitionError:
                pass
            except SolverError as exc:
                status, message = "error", str(exc)
            columns.append(
                PhaseColumn(
                    E_z=E_z, J_min=J_min, lambda_c=lambda_c,
                    transition_order=t_order, status=status, message=message,
                    lambda_spinodal=lambda_s, lambda_crossing=solver.crossing,
                )
            )

            # at phi = 0 the field is E_z / 2 on every site whatever lambda0 is, so
            # the column's cells there share one ground state, and its label or failure
            orders = {}
            for rec, modeset in zip(result.records, modesets):
                label, status, message = None, rec.status, rec.message
                if rec.status == "ok":
                    field_phase = "superradiant" if _condensed(rec, thr) else "normal"
                    mag = "undetermined"
                    if magnetic:
                        key = rec.value if any(rec.phi) else None
                        if key not in orders:
                            try:
                                orders[key] = _magnetic_label(
                                    col_chain, modeset, np.array(rec.phi), thr, n_max=n_max,
                                    solution=solver.normal.solution if key is None else None,
                                )
                            except SolverError as exc:
                                orders[key] = exc
                        mag = orders[key]
                    if isinstance(mag, SolverError):
                        status, message = "error", str(mag)
                    else:
                        label = PhaseLabel(field_phase, t_order, mag)
                cells.append(
                    PhaseCell(
                        E_z=E_z, J_min=J_min, J_max=col_chain.ising.J_max,
                        lambda0=rec.value, phi=rec.phi, e_g=rec.e_g, label=label,
                        status=status, message=message,
                    )
                )

        col_group = [c for c in columns if c.E_z == E_z]
        seconds = [c.J_min for c in col_group if c.transition_order == "second"]
        firsts = [c.J_min for c in col_group if c.transition_order == "first"]
        if seconds and firsts and max(seconds) < min(firsts):
            crossover.append((E_z, 0.5 * (max(seconds) + min(firsts))))
        else:
            crossover.append((E_z, None))

    return PhaseDiagram(cells=tuple(cells), columns=tuple(columns), crossover=tuple(crossover))

"""Parameter sweeps, transition location, and phase labeling.

The sweep machinery minimizes the mean-field energy point by point along
one axis (coupling strength, weak-bond strength, or qubit splitting; on
one mode along the coupling, all of a column re-scores one unit-coupling
scan) and the classifiers condense the results into labels.  A sweep's
result keeps the memoized solver that produced it, and every onset search
on that result reuses it, so a column is sampled once:

* field phase: ``normal`` vs ``superradiant`` by the condensate norm;
* transition order along the coupling axis: a jump test at the critical
  coupling, found by bisection seeded with two guesses, the
  linear-response onset or spinodal (exact on a second-order transition)
  and, for a single mode, the crossing onset where a condensate first ties
  ``phi = 0`` (exact on a first-order one), corroborated by a one-sided
  slope-ratio probe of the energy envelope and by hysteresis, a crossing
  below the spinodal;
* magnetic order of the qubit ring from a correlation report:
  paramagnetic ``P``, ferromagnetic ``F``, or the spatially alternating
  ``FP`` pattern that strong-bond windows imprint.

Labels compose as ``N``/``S`` prefix plus magnetic order, e.g. ``SFP``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .correlation import correlation_report
from .fermion import SolverError
from .meanfield import SearchSpec, _crossing_onset, _UnitCurve, minimize_phi, normal_phase_onset
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
    """Classifier knobs, shared by the transition and magnetic labels."""

    field: float = 1e-5
    critical_tol: float = 1e-4
    jump: float = 0.02
    slope_delta: float = 4e-3
    slope_ratio: float = 0.75
    xi: float = 5.0
    sigma_z: float = 0.8
    oscillation: float = 0.3


@dataclass(frozen=True)
class SweepContext:
    """Everything held fixed during a sweep.

    ``lambda0`` is the coupling used when the swept axis is not the
    coupling itself.  ``delta_J`` (absolute) or ``delta_J_factor``
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
    """The records of one sweep and the solver that produced them.

    The private ``_solver`` memoizes the sweep's minimizations (on one mode
    along ``lambda0``, the column's unit-coupling curve); the onset searches
    of :func:`critical_coupling` and :func:`classify_transition_order` on
    this result reuse it instead of sampling the column again.
    """

    axis: str
    records: tuple
    context: SweepContext
    _solver: _PointCache = field(compare=False, repr=False)

    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.records])


_AXES = ("lambda0", "J_min", "E_z")


def _point(ctx: SweepContext, axis: str, value: float):
    """Chain and mode set at one sweep point on one of the ``_AXES``."""
    chain = ctx.chain
    if axis == "lambda0":
        lam = value
    elif axis == "J_min":
        if chain.ising.kind != "rectangular":
            raise ValueError("J_min sweeps need a rectangular Ising profile")
        if ctx.delta_J is not None:
            dJ = ctx.delta_J
        elif ctx.delta_J_factor is not None:
            dJ = ctx.delta_J_factor * chain.E_z
        else:
            raise ValueError("J_min sweeps need delta_J or delta_J_factor")
        profile = IsingProfile.rectangular(value + dJ, value, chain.ising.period)
        chain = replace(chain, ising=profile)
        lam = ctx.lambda0
    else:
        chain = replace(chain, E_z=value)
        if ctx.delta_J_factor is not None:
            if chain.ising.kind != "rectangular":
                raise ValueError("delta_J_factor needs a rectangular Ising profile")
            profile = IsingProfile.rectangular(
                chain.ising.J_min + ctx.delta_J_factor * value, chain.ising.J_min,
                chain.ising.period,
            )
            chain = replace(chain, ising=profile)
        lam = ctx.lambda0
    if lam is None:
        raise ValueError(f"sweeping {axis!r} needs a fixed lambda0 in the context")
    return chain, ModeSet(modes=ctx.modes, lambda0=lam, N=chain.N, E_c=chain.E_c)


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
    """Minimize along one axis; failed points are recorded, not fatal.

    ``axis`` is one of ``"lambda0"``, ``"J_min"`` and ``"E_z"``; any other
    raises ``ValueError`` before a point is solved.  One mode along
    ``lambda0``: every point re-scores one unit-coupling curve.  The result
    keeps the memoized solver, so the onset searches on it reuse the
    sweep's solves and curve.
    """
    if axis not in _AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {_AXES}")
    values = [float(v) for v in values]
    solver = _PointCache(ctx, axis, values)
    records = [_solve_record(solver.state, v) for v in values]
    return SweepResult(axis=axis, records=tuple(records), context=ctx, _solver=solver)


def _condensed(record: SweepRecord, thr: Thresholds) -> bool:
    if record.status != "ok":
        raise SolverError(f"sweep point {record.value} failed: {record.message}")
    return max(abs(p) for p in record.phi) > thr.field


class _PointCache:
    """Memoized minimizations along one sweep axis, kept by its :class:`SweepResult`.

    One mode along ``lambda0``: from the smallest positive value up, every
    coupling and the ``crossing`` onset read one :class:`_UnitCurve`, and
    the crossing is refined once per bracket edge, which every onset search
    on the result shares; everything else goes through :func:`minimize_phi`.
    """

    def __init__(self, ctx: SweepContext, axis: str, values: Sequence[float]):
        self.ctx, self.axis = ctx, axis
        self._states: dict[float, object] = {}
        self._crossings: dict[float, float | None] = {}
        self.curve = self.crossing = None
        lam_lo = min((v for v in values if v > 0), default=0.0)
        if axis == "lambda0" and len(ctx.modes) == 1 and lam_lo > 0:
            self.curve = _UnitCurve(ctx.chain, ctx.modes[0], ctx.search or SearchSpec(), lam_lo)

    def state(self, value: float):
        if value not in self._states:
            if self.curve is not None and value >= self.curve.lam_lo:
                self._states[value] = self.curve.minimize(value)
            else:
                chain, modeset = _point(self.ctx, self.axis, value)
                self._states[value] = minimize_phi(chain, modeset, self.ctx.search)
        return self._states[value]

    def phi_norm(self, lam: float) -> float:
        return float(np.max(np.abs(self.state(lam).phi)))

    def energy(self, lam: float) -> float:
        return float(self.state(lam).e_g)

    def crossing_below(self, s_max: float) -> float | None:
        """The curve's first-order onset among ``s <= s_max``, refined once per ``s_max``."""
        if s_max not in self._crossings:
            self._crossings[s_max] = _crossing_onset(self.curve, s_max)
        self.crossing = self._crossings[s_max]
        return self.crossing

    @cached_property
    def onset(self) -> float | None:
        """Linear-response instability of ``phi = 0`` for this context."""
        return normal_phase_onset(self.ctx.chain, self.ctx.modes)


def _onset_bracket(result: SweepResult, thr: Thresholds):
    # records past the first condensed one cannot move the bracket, so a
    # failure there does not void it
    for i, record in enumerate(result.records):
        if _condensed(record, thr):
            if i == 0:
                raise AlreadyCondensedError("already condensed at the low end of the sweep")
            return result.records[i - 1].value, record.value
    raise NoTransitionError("no transition in the swept range")


def _probe_guess(solver: _PointCache, guess, lo: float, hi: float, thr: Thresholds):
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
    lo, hi = _probe_guess(solver, solver.onset, lo, hi, thr)
    if solver.curve is not None:
        # a first-order onset lies below the linear-response one; the
        # condensates in the bracket have s = lambda0 phi <= hi phi_max
        crossing = solver.crossing_below(hi * solver.curve.search.phi_max)
        if hi - lo > thr.critical_tol:
            lo, hi = _probe_guess(solver, crossing, lo, hi, thr)
    while hi - lo > thr.critical_tol:
        mid = 0.5 * (lo + hi)
        if solver.phi_norm(mid) > thr.field:
            hi = mid
        else:
            lo = mid
    return lo, hi


def critical_coupling(result: SweepResult, thresholds: Thresholds | None = None) -> float:
    """Onset coupling of the condensate, refined by bisection.

    The sweep must run along ``lambda0`` and must straddle the onset:
    :class:`NoTransitionError` or :class:`AlreadyCondensedError` report
    the two ways a grid can miss it.  The bisection reuses the sweep's
    solver (and, on one mode, its unit-coupling curve), and first probes
    just either side of :func:`~cavising.meanfield.normal_phase_onset`
    when it falls inside the bracket; on a second-order transition those
    two solves already close the bracket to ``critical_tol``.  When they
    do not and the context has one mode, it next probes either side of the
    coupling at which a condensate first ties ``phi = 0``, read off the
    column's curve up to the bracket's upper edge times ``phi_max``; on a
    first-order transition those two solves close it.  Every probe is a
    full minimization (on one mode, the curve re-scored and then refined
    in ``s = lambda0 phi`` on its memoized unit energy), so the result
    does not rest on either guess, and a wrong guess costs one solve
    before the bisection goes on.
    """
    lo, hi = _refine_onset(result, thresholds or Thresholds())
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TransitionClassification:
    order: str  # "first" | "second" | "ambiguous" | "none"
    lambda_c: float | None = None
    jump: float | None = None
    slope_ratio: float | None = None
    hysteresis: bool | None = None


def classify_transition_order(
    result: SweepResult, thresholds: Thresholds | None = None
) -> TransitionClassification:
    """Order of the condensation transition along a ``lambda0`` sweep.

    Primary signal: the condensate amplitude at the upper edge of the
    bisection bracket; a second-order onset has barely left zero there
    while a first-order one arrives with a finite jump.  Two
    corroborators back it:

    * the ratio of one-sided difference quotients of the energy envelope
      at shrinking offsets above the onset (a kink gives ratio ~1, a
      smooth quadratic departure gives ~1/2);
    * hysteresis (single-mode contexts only): the crossing onset lies
      more than ``critical_tol`` below the spinodal, so between the two
      ``phi = 0`` is a local minimum while a condensate is global.

    When the corroborators contradict the jump verdict the label is
    ``ambiguous`` rather than a coin flip.

    The bracket comes from the bisection of :func:`critical_coupling` on
    the sweep's own solver, seeded by the linear-response onset and then,
    for one mode, by the energy-crossing onset; the probe ``0.4
    critical_tol`` above whichever guess closed the bracket (the first on
    a second-order transition, the second on a first-order one) is the
    upper edge where the jump is read.
    """
    thr = thresholds or Thresholds()
    try:
        lo, hi = _refine_onset(result, thr)
    except AlreadyCondensedError:
        raise
    except NoTransitionError:
        return TransitionClassification(order="none")
    solver = result._solver
    lambda_c = 0.5 * (lo + hi)
    jump = solver.phi_norm(hi)
    jump_first = jump > thr.jump

    delta = thr.slope_delta
    e0 = solver.energy(hi)
    g_full = (solver.energy(hi + delta) - e0) / delta
    g_half = (solver.energy(hi + 0.5 * delta) - e0) / (0.5 * delta)
    ratio = 0.5 if abs(g_full) < 1e-15 else g_half / g_full
    slope_first = ratio > thr.slope_ratio

    hysteresis: bool | None = None
    if len(result.context.modes) == 1:
        # between crossing and spinodal phi = 0 is local, a condensate global
        lam_s, lam_x = solver.onset, solver.crossing
        hysteresis = lam_x is not None and (lam_s is None or lam_s - lam_x > thr.critical_tol)

    corroborators = [slope_first] if hysteresis is None else [slope_first, hysteresis]
    if jump_first and any(corroborators):
        order = "first"
    elif not jump_first and not any(corroborators):
        order = "second"
    else:
        order = "ambiguous"
    return TransitionClassification(
        order=order, lambda_c=lambda_c, jump=jump, slope_ratio=ratio, hysteresis=hysteresis
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
    strong bonds).  Anything else: ``undetermined``.
    """
    thr = thresholds or Thresholds()
    xi = np.asarray(report.xi_rl)
    sz = np.asarray(report.sigma_z_rot)
    if xi.max() <= thr.xi and sz.min() >= thr.sigma_z:
        return "P"
    if xi.min() >= thr.xi:
        return "F"
    osc_xi = (xi.max() - xi.min()) / max(xi.max(), 1e-300)
    osc_sz = (sz.max() - sz.min()) / max(abs(sz.max()), 1e-300)
    if osc_xi > thr.oscillation and osc_sz > thr.oscillation:
        if chain.ising.kind == "rectangular":
            bonds = chain.bonds()
            strong = bonds == bonds.max()
            if strong.any() and (~strong).any():
                aligned = (
                    xi[strong].mean() > xi[~strong].mean()
                    and sz[strong].mean() < sz[~strong].mean()
                )
                if not aligned:
                    return "undetermined"
        return "FP"
    return "undetermined"


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
    of the solved ground state.  The per-``E_z`` crossover is the midpoint between the
    largest ``J_min`` column labeled second order and the smallest
    labeled first order, provided the two groups do not interleave.

    A solver failure while locating one column's onset is recorded on
    that column (``status == "error"``) and does not stop the others; a
    failed sweep point above the column's first condensed one leaves the
    onset alone and only its own cell unlabeled.

    Columns are solved serially.  ``threads`` accepts only 1 and goes at
    the next benchmark change; any other value raises ``ValueError``.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1 (columns are solved serially), got {threads!r}")
    if chain.ising.kind != "rectangular":
        raise ValueError("phase diagrams are built over rectangular profiles")
    if (delta_J is None) == (delta_J_factor is None):
        raise ValueError("give exactly one of delta_J or delta_J_factor")
    thr = thresholds or Thresholds()
    modes = tuple(int(m) for m in modes)
    lambda0_values = [float(v) for v in lambda0_values]

    cells = []
    columns = []
    crossover = []
    for E_z in E_z_values if E_z_values is not None else (chain.E_z,):
        dJ = delta_J if delta_J is not None else delta_J_factor * E_z
        for J_min in J_min_values:
            profile = IsingProfile.rectangular(J_min + dJ, J_min, chain.ising.period)
            col_chain = replace(chain, E_z=float(E_z), ising=profile)
            ctx = SweepContext(chain=col_chain, modes=modes, search=search)
            result = sweep(ctx, "lambda0", lambda0_values)
            solver = result._solver
            lambda_c = lambda_s = None
            t_order = "none"
            status, message = "ok", ""
            try:
                lambda_s = solver.onset
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
                    E_z=float(E_z), J_min=float(J_min), lambda_c=lambda_c,
                    transition_order=t_order, status=status, message=message,
                    lambda_spinodal=lambda_s, lambda_crossing=solver.crossing,
                )
            )

            for rec in result.records:
                label = None
                if rec.status == "ok":
                    field_phase = "superradiant" if _condensed(rec, thr) else "normal"
                    mag = "undetermined"
                    if magnetic:
                        modeset = ModeSet(
                            modes=modes, lambda0=rec.value, N=col_chain.N, E_c=col_chain.E_c
                        )
                        report = correlation_report(
                            col_chain, modeset, np.array(rec.phi), n_max=n_max
                        )
                        mag = classify_magnetic_order(report, col_chain, thr)
                    label = PhaseLabel(field_phase, t_order, mag)
                cells.append(
                    PhaseCell(
                        E_z=float(E_z), J_min=float(J_min), J_max=float(J_min + dJ),
                        lambda0=rec.value, phi=rec.phi, e_g=rec.e_g, label=label,
                        status=rec.status, message=rec.message,
                    )
                )

        col_group = [c for c in columns if c.E_z == float(E_z)]
        seconds = [c.J_min for c in col_group if c.transition_order == "second"]
        firsts = [c.J_min for c in col_group if c.transition_order == "first"]
        if seconds and firsts and max(seconds) < min(firsts):
            crossover.append((float(E_z), 0.5 * (max(seconds) + min(firsts))))
        else:
            crossover.append((float(E_z), None))

    return PhaseDiagram(cells=tuple(cells), columns=tuple(columns), crossover=tuple(crossover))

"""Variational photon amplitudes and the mean-field energy surface.

The energy per site at mode amplitudes ``phi`` is

    e_g(phi) = sum_l (omega_l + 4 D_l) phi_l^2  -  (1/2N) sum_k Lambda_k(phi)

with the quasiparticle spectrum taken in the even sector.  The field
part is exactly quadratic; all structure comes through the dependence of
the dressed fields ``Omega(j)`` on ``phi``.  Minimization is grid-seeded
and polished by bounded Brent line searches, which keeps the search
robust on surfaces with several competing minima (the first-order
regime) without derivative information.

Where ``phi = 0`` stops being a minimum follows from linear response
alone: the chain sees ``phi`` only through ``Omega(j) = E_z/2 +
d(j)^2/E_z + O(phi^4)``, so the Hessian of ``e_g`` at the origin needs
just the undriven polarization (:func:`normal_phase_onset`).

A single amplitude is searched on ``phi >= 0``: the energy is even under
the joint flip of all amplitudes, so the nonnegative half covers the
physics up to that gauge.  With several modes only the joint flip is a
symmetry, and the cross terms between condensed modes can favor mixed
signs; the multi-mode search therefore seeds from the nonnegative box
but descends over the full sign range, reporting the representative
whose dominant amplitude is nonnegative.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy import optimize

from .correlation import CorrelationReport, correlation_report, pair_contractions
from .fermion import Sector, build_quadratic_form, ground_sector, quasiparticle_energies
from .model import ChainSpec, ModeSet, effective_field

__all__ = [
    "SearchSpec",
    "MeanFieldState",
    "StationaryPoint",
    "energy_per_particle",
    "minimize_phi",
    "normal_phase_onset",
    "stationary_points",
    "order_parameter_residual",
]


@dataclass(frozen=True)
class SearchSpec:
    """Knobs of the amplitude search.

    ``coarse_points`` seeds the single-mode scan of ``[0, phi_max]``;
    ``multi_coarse_points`` is the per-axis resolution of the product
    grid that seeds coordinate descent in several modes.  Defaults are
    sized for production runs; tests and sweeps may pass something
    slimmer.
    """

    phi_max: float = 1.5
    coarse_points: int = 151
    refine_tol: float = 1e-6
    multi_coarse_points: int = 31
    line_points: int = 41
    descent_tol: float = 1e-5
    max_cycles: int = 40
    n_seeds: int = 4
    degeneracy_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.phi_max <= 0:
            raise ValueError("phi_max must be positive")
        if self.coarse_points < 3 or self.multi_coarse_points < 3 or self.line_points < 3:
            raise ValueError("grids need at least 3 points")


@dataclass(frozen=True)
class MeanFieldState:
    """A converged minimizer of ``e_g``.

    ``Sigma_x`` is the per-mode qubit order parameter the amplitudes
    imply at stationarity, ``Sigma_x_l = phi_l (omega_l + 4 D_l)``.
    ``degenerate`` is set when a second, well-separated minimizer ties
    the global one within the search's degeneracy tolerance.
    """

    phi: np.ndarray
    Sigma_x: np.ndarray
    e_g: float
    degenerate: bool = False

    def __post_init__(self) -> None:
        phi = np.ascontiguousarray(self.phi, dtype=float)
        Sigma_x = np.ascontiguousarray(self.Sigma_x, dtype=float)
        phi.setflags(write=False)
        Sigma_x.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "Sigma_x", Sigma_x)


@dataclass(frozen=True)
class StationaryPoint:
    phi: float
    e_g: float
    kind: str  # "minimum" | "maximum"
    is_global: bool


def energy_per_particle(chain: ChainSpec, modeset: ModeSet, phi) -> float:
    """Mean-field energy per site at amplitudes ``phi`` (even sector)."""
    fld = effective_field(chain, modeset, phi)
    lam = quasiparticle_energies(build_quadratic_form(fld, chain.bonds(), Sector.EVEN))
    phi = np.asarray(phi, dtype=float)
    field_part = float(np.sum((modeset.frequencies + 4.0 * modeset.D) * phi * phi))
    return field_part - float(np.sum(lam)) / (2.0 * chain.N)


def _bounded_min(f, a: float, b: float, tol: float):
    res = optimize.minimize_scalar(f, bounds=(a, b), method="bounded", options={"xatol": tol})
    return float(res.x), float(res.fun)


def _interior_minima(vals: np.ndarray):
    """Indices of strict-then-flat local minima of a sampled curve."""
    out = []
    for i in range(1, len(vals) - 1):
        if vals[i] < vals[i - 1] and vals[i] <= vals[i + 1]:
            out.append(i)
    return out


def _warn_boundary(x: float, search: SearchSpec, step: float) -> None:
    if x > search.phi_max - 0.5 * step:
        warnings.warn(
            f"minimizer sits at the phi_max boundary ({x:.4f} vs {search.phi_max}); "
            "enlarge phi_max to trust this result",
            RuntimeWarning,
            stacklevel=3,
        )


def _minimize_single(f, search: SearchSpec):
    grid = np.linspace(0.0, search.phi_max, search.coarse_points)
    step = grid[1] - grid[0]
    vals = np.array([f(x) for x in grid])
    candidates = [(0.0, vals[0])]
    # a condensate smaller than one grid step hides inside the first cell
    # with both endpoints above its floor, so refine that cell
    # unconditionally; on a rising edge the refinement collapses back to
    # the origin and loses the sort below
    candidates.append(_bounded_min(f, grid[0], grid[1], search.refine_tol))
    for i in _interior_minima(vals):
        candidates.append(_bounded_min(f, grid[i - 1], grid[i + 1], search.refine_tol))
    if vals[-1] < vals[-2]:
        candidates.append(_bounded_min(f, grid[-2], grid[-1], search.refine_tol))
    candidates.sort(key=lambda c: c[1])
    x, fx = candidates[0]
    degenerate = any(
        abs(c[1] - fx) < search.degeneracy_tol and abs(c[0] - x) > 10 * search.refine_tol
        for c in candidates[1:]
    )
    _warn_boundary(x, search, step)
    return np.array([x]), fx, degenerate


def _line_min(f_along, search: SearchSpec):
    # symmetric range: with several modes only the joint sign flip is a
    # symmetry, so a coordinate may genuinely prefer a negative value
    grid = np.linspace(-search.phi_max, search.phi_max, 2 * search.line_points - 1)
    vals = np.array([f_along(x) for x in grid])
    center = search.line_points - 1
    best = [(0.0, vals[center])]
    # same hidden-basin guard as the single-mode scan, on both sides of zero
    best.append(_bounded_min(f_along, grid[center - 1], grid[center + 1], search.refine_tol))
    for i in _interior_minima(vals):
        best.append(_bounded_min(f_along, grid[i - 1], grid[i + 1], search.refine_tol))
    if vals[0] < vals[1]:
        best.append(_bounded_min(f_along, grid[0], grid[1], search.refine_tol))
    if vals[-1] < vals[-2]:
        best.append(_bounded_min(f_along, grid[-2], grid[-1], search.refine_tol))
    return min(best, key=lambda c: c[1])


def _minimize_multi(f, n_modes: int, search: SearchSpec):
    axis = np.linspace(0.0, search.phi_max, search.multi_coarse_points)
    step = axis[1] - axis[0]
    scored = sorted(
        ((f(np.array(pt)), pt) for pt in product(axis, repeat=n_modes)), key=lambda c: c[0]
    )

    seeds = []
    for val, pt in scored:
        if all(max(abs(a - b) for a, b in zip(pt, s)) >= 2 * step for _, s in seeds):
            seeds.append((val, pt))
        if len(seeds) == search.n_seeds:
            break

    refined = []
    for _, seed in seeds:
        x = np.array(seed)
        fx = f(x)
        for _ in range(search.max_cycles):
            moved = 0.0
            for axis_i in range(n_modes):
                def along(t, i=axis_i):
                    y = x.copy()
                    y[i] = t
                    return f(y)

                t_best, f_best = _line_min(along, search)
                moved = max(moved, abs(t_best - x[axis_i]))
                x[axis_i] = t_best
                fx = f_best
            if moved < search.descent_tol:
                break
        # coordinate descent stalls short of stationarity in the curved
        # valleys where two modes condense together; a simplex polish from
        # the stalled point restores it to the self-consistency tolerance
        res = optimize.minimize(
            f,
            x,
            method="Nelder-Mead",
            options={
                "xatol": search.refine_tol,
                "fatol": 1e-12,
                "maxiter": 600 * n_modes,
                "maxfev": 600 * n_modes,
            },
        )
        if res.fun <= fx:
            x, fx = np.asarray(res.x, dtype=float), float(res.fun)
        if x[np.argmax(np.abs(x))] < 0.0:
            x = -x  # joint flip is exact, keep the dominant amplitude >= 0
        snapped = np.where(np.abs(x) < 1e-7, 0.0, x)
        if not np.array_equal(snapped, x):
            f_snap = f(snapped)
            if f_snap <= fx + 1e-13:
                x, fx = snapped, f_snap
        refined.append((fx, x))

    refined.sort(key=lambda c: c[0])
    fx, x = refined[0]
    degenerate = any(
        abs(fv - fx) < search.degeneracy_tol and np.max(np.abs(xv - x)) > 10 * search.descent_tol
        for fv, xv in refined[1:]
    )
    _warn_boundary(float(np.max(np.abs(x))), search, step)
    return x, fx, degenerate


def minimize_phi(
    chain: ChainSpec, modeset: ModeSet, search: SearchSpec | None = None
) -> MeanFieldState:
    """Global minimum of ``e_g``, sign-normalized as described above."""
    search = search or SearchSpec()
    f = lambda phi: energy_per_particle(chain, modeset, phi)
    if modeset.n_modes == 1:
        # one amplitude: phi >= 0 is exhaustive by the sign-flip symmetry
        phi, e_g, degenerate = _minimize_single(lambda x: f(np.array([x])), search)
    else:
        phi, e_g, degenerate = _minimize_multi(f, modeset.n_modes, search)
    phi = np.where(np.abs(phi) < 1e-12, 0.0, phi)
    Sigma_x = phi * (modeset.frequencies + 4.0 * modeset.D)
    return MeanFieldState(phi=phi, Sigma_x=Sigma_x, e_g=float(e_g), degenerate=degenerate)


def normal_phase_onset(chain: ChainSpec, modes) -> float | None:
    """Smallest ``lambda0`` at which ``phi = 0`` stops being a minimum of ``e_g``.

    At the origin the Hessian of ``e_g`` over the amplitudes of ``modes``
    is

        H(lambda0) = 2 diag(omega_l + 4 D_l)
                     - (8 / (N E_z)) sum_j <s^z_j> lambda_l(j) lambda_m(j)

    with ``<s^z_j>`` the polarization of the undriven chain, one fermion
    solve that does not depend on ``lambda0``.  The couplings scale as
    ``lambda0`` and ``D_l`` as ``lambda0^2``, so ``H = 2 diag(omega) +
    lambda0^2 Q`` and the origin destabilizes at ``lambda0^2 = -1/mu``
    for the most negative eigenvalue ``mu`` of ``Q`` scaled by
    ``(2 omega)^(-1/2)`` on both sides.  Returns ``None`` when no finite
    ``lambda0`` does so.

    Along a second-order transition this is the onset itself; a
    first-order transition condenses below it, and the value is then the
    spinodal of the normal phase.
    """
    unit = ModeSet(modes=tuple(modes), lambda0=1.0, N=chain.N, E_c=chain.E_c)
    fld = effective_field(chain, unit, np.zeros(unit.n_modes))
    sz = -np.diag(pair_contractions(ground_sector(fld, chain.bonds())))
    response = (unit.couplings * sz) @ unit.couplings.T * (8.0 / (chain.N * chain.E_z))
    Q = 8.0 * np.diag(unit.D) - response
    scale = 1.0 / np.sqrt(2.0 * unit.frequencies)
    mu = np.linalg.eigvalsh(scale[:, None] * Q * scale[None, :])[0]
    if mu >= 0.0:
        return None
    return math.sqrt(-1.0 / mu)


def stationary_points(
    chain: ChainSpec, modeset: ModeSet, search: SearchSpec | None = None
) -> list[StationaryPoint]:
    """All stationary points of the single-mode energy curve on ``[0, phi_max]``.

    Minima and maxima are both located (maxima by minimizing ``-e_g``),
    which exposes the barrier structure needed to diagnose metastability.
    ``phi = 0`` is always stationary by symmetry and is classified from
    the local slope.  Multi-mode surfaces are not enumerated.
    """
    if modeset.n_modes != 1:
        raise ValueError("stationary-point enumeration is defined for a single mode")
    search = search or SearchSpec()
    f = lambda x: energy_per_particle(chain, modeset, np.array([x]))
    grid = np.linspace(0.0, search.phi_max, search.coarse_points)
    vals = np.array([f(x) for x in grid])

    points = []
    for i in _interior_minima(vals):
        x, fx = _bounded_min(f, grid[i - 1], grid[i + 1], search.refine_tol)
        points.append((x, fx, "minimum"))
    for i in _interior_minima(-vals):
        x, fx = _bounded_min(lambda t: -f(t), grid[i - 1], grid[i + 1], search.refine_tol)
        points.append((x, -fx, "maximum"))
    if vals[-1] < vals[-2]:
        x, fx = _bounded_min(f, grid[-2], grid[-1], search.refine_tol)
        points.append((x, fx, "minimum"))
        _warn_boundary(x, search, grid[1] - grid[0])

    # a basin narrower than one grid step can sit inside the first cell
    # with both endpoints above its floor, so probe that cell
    # unconditionally and classify phi = 0 against what the probe found
    x0, fx0 = _bounded_min(f, grid[0], grid[1], search.refine_tol)
    zero_rises = vals[1] >= vals[0]
    if x0 > 10 * search.refine_tol and fx0 < vals[0] and fx0 < vals[1]:
        points.append((x0, fx0, "minimum"))
        zero_rises = f(0.5 * x0) > vals[0]
    points.append((0.0, vals[0], "minimum" if zero_rises else "maximum"))

    deduped = []
    for x, fx, kind in sorted(points):
        if deduped and abs(x - deduped[-1][0]) < 10 * search.refine_tol:
            continue
        deduped.append((x, fx, kind))
    e_best = min(fx for _, fx, kind in deduped if kind == "minimum")
    return [
        StationaryPoint(phi=x, e_g=fx, kind=kind, is_global=(kind == "minimum" and fx <= e_best))
        for x, fx, kind in deduped
    ]


def order_parameter_residual(
    chain: ChainSpec,
    modeset: ModeSet,
    phi,
    report: CorrelationReport | None = None,
) -> np.ndarray:
    """Self-consistency gap of the amplitudes, mode by mode.

    Measures ``Sigma_x_l`` from the correlated ground state at ``phi``
    (the coupling-weighted average of the lab-frame transverse
    polarization) and returns ``|Sigma_x_l - phi_l (omega_l + 4 D_l)|``.
    Vanishes at any stationary point of ``e_g``.
    """
    phi = np.asarray(phi, dtype=float)
    if report is None:
        report = correlation_report(chain, modeset, phi, n_max=1)
    fld = report.field if report.field is not None else effective_field(chain, modeset, phi)
    weighted = np.sin(fld.theta) * report.sigma_z_rot
    measured = (modeset.couplings @ weighted) / chain.N
    implied = phi * (modeset.frequencies + 4.0 * modeset.D)
    return np.abs(measured - implied)

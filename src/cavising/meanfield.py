"""Variational photon amplitudes and the mean-field energy surface.

The energy per site at mode amplitudes ``phi`` is

    e_g(phi) = sum_l (omega_l + 4 D_l) phi_l^2  -  (1/2N) sum_k Lambda_k(phi)

with the quasiparticle spectrum taken in the even sector.  The field
part is exactly quadratic; all structure comes through the dependence of
the dressed fields ``Omega(j)`` on ``phi``.  Every search starts from a
coarse grid, which keeps it robust on surfaces with several competing
minima (the first-order regime), then refines a single amplitude by
bounded Brent line searches and several by L-BFGS-B on the analytic
Hellmann-Feynman gradient.

Where ``phi = 0`` stops being a minimum follows from linear response
alone: the chain sees ``phi`` only through ``Omega(j) = E_z/2 +
d(j)^2/E_z + O(phi^4)``, so the Hessian of ``e_g`` at the origin needs
just the undriven polarization (:func:`normal_phase_onset`); the same
Hessian starts the gradient polish off an unstable origin.  A single
mode sees ``lambda0`` only through ``s = lambda0 phi`` and the quadratic
field part, so one scan of the energy at unit coupling serves a whole
column of couplings (``_UnitCurve``): each minimization re-scores its
samples and refines in ``s`` on the column's memoized unit energy, so
couplings share their line-search probes, and where a condensate first
ties ``phi = 0``, the onset of a first-order transition, is read off the
same samples (``_crossing_onset``).

A single amplitude is searched on ``phi >= 0``: the energy is even under
the joint flip of all amplitudes, so the nonnegative half covers the
physics up to that gauge.  With several modes only the joint flip is a
symmetry, and the cross terms between condensed modes can favor mixed
signs; the multi-mode search therefore seeds from the nonnegative box
but polishes over the full sign range, reporting the representative
whose dominant amplitude is nonnegative.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy import optimize

from .correlation import CorrelationReport, correlation_report
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
    grid whose ``n_seeds`` best well-separated points each start one
    gradient polish in several modes.  ``descent_tol`` only sets how far
    apart two multi-mode minimizers must lie to count as degenerate.
    ``line_points`` is read by nothing and a config may not set it; it
    stays only so that existing callers that pass it keep working, until
    the next benchmark change.  Defaults are sized for
    production runs; tests and sweeps may pass something slimmer.
    """

    phi_max: float = 1.5
    coarse_points: int = 151
    refine_tol: float = 1e-6
    multi_coarse_points: int = 31
    line_points: int = 41
    descent_tol: float = 1e-5
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
    return np.flatnonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:])) + 1


def _warn_boundary(x: float, search: SearchSpec, step: float) -> None:
    if x > search.phi_max - 0.5 * step:
        warnings.warn(
            f"minimizer sits at the phi_max boundary ({x:.4f} vs {search.phi_max}); "
            "enlarge phi_max to trust this result",
            RuntimeWarning,
            stacklevel=3,
        )


def _sample(f, search: SearchSpec):
    grid = np.linspace(0.0, search.phi_max, search.coarse_points)
    return grid, np.array([f(x) for x in grid])


def _refine(f, grid: np.ndarray, vals: np.ndarray, search: SearchSpec, scale: float = 1.0):
    """Refine samples of ``[0, scale phi_max]``: the first cell, the interior
    minima and, if the curve still falls there, the last cell to its end.

    ``f``, ``grid`` and the results are in units of ``scale phi``, and the
    tolerance is ``refine_tol`` in ``phi``.
    """
    # a condensate smaller than one grid step hides inside the first cell
    # with both endpoints above its floor, so refine that cell
    # unconditionally; on a rising edge the refinement collapses back to
    # the origin
    tol = scale * search.refine_tol
    first = _bounded_min(f, grid[0], grid[1], tol)
    minima = [_bounded_min(f, grid[i - 1], grid[i + 1], tol) for i in _interior_minima(vals)]
    if vals[-1] < vals[-2]:
        minima.append(_bounded_min(f, grid[-2], scale * search.phi_max, tol))
    return first, minima


def _minimize_single(
    f, grid: np.ndarray, vals: np.ndarray, search: SearchSpec, scale: float = 1.0
):
    """Best of the origin and :func:`_refine`'s minima, returned in ``phi``."""
    first, minima = _refine(f, grid, vals, search, scale)
    candidates = sorted([(0.0, vals[0]), first, *minima], key=lambda c: c[1])
    x, fx = candidates[0]
    degenerate = any(
        abs(c[1] - fx) < search.degeneracy_tol and abs(c[0] - x) / scale > 10 * search.refine_tol
        for c in candidates[1:]
    )
    x /= scale
    _warn_boundary(x, search, (grid[1] - grid[0]) / scale)
    return np.array([x]), fx, degenerate


def _state(modeset: ModeSet, phi: np.ndarray, e_g: float, degenerate: bool) -> MeanFieldState:
    phi = np.where(np.abs(phi) < 1e-12, 0.0, phi)
    Sigma_x = phi * (modeset.frequencies + 4.0 * modeset.D)
    return MeanFieldState(phi=phi, Sigma_x=Sigma_x, e_g=float(e_g), degenerate=degenerate)


class _UnitCurve:
    """One mode's energy ``e_1(s)`` at unit coupling, shared by a column of ``lambda0``.

    With ``s = lambda0 phi`` the energy at any ``lambda0`` is ``e_1(s) +
    omega s^2 (1/lambda0^2 - 1)``, so samples spaced ``lam_lo phi_max /
    (coarse_points - 1)`` re-score into a grid on ``[0, phi_max]`` at every
    ``lambda0 >= lam_lo`` at least as fine as :func:`minimize_phi`'s.  They
    are added lazily up to ``lambda0 phi_max``.  Every ``e_1(s)`` is
    memoized by ``s``: refined in ``s``, the couplings of a column share
    their cells (the first is ``[0, s_1]`` for all), so bounded Brent
    probes recur and are paid once.
    """

    def __init__(self, chain: ChainSpec, mode: int, search: SearchSpec, lam_lo: float):
        self.chain, self.mode, self.search, self.lam_lo = chain, mode, search, lam_lo
        self._unit = ModeSet(modes=(mode,), lambda0=1.0, N=chain.N, E_c=chain.E_c)
        self.omega = float(self._unit.frequencies[0])
        self.step = lam_lo * search.phi_max / (search.coarse_points - 1)
        self._s = self._e = np.zeros(0)
        self._memo: dict[float, float] = {}

    def energy(self, s: float) -> float:
        """``e_1(s)``, computed once per ``s``."""
        if s not in self._memo:
            self._memo[s] = energy_per_particle(self.chain, self._unit, np.array([s]))
        return self._memo[s]

    def samples(self, s_max: float):
        """``s`` and ``e_1(s)`` on the samples up to ``s_max``, give or take rounding."""
        n = int(s_max / self.step + 1e-9) + 1
        if self._s.size < n:
            new = np.arange(self._s.size, n) * self.step
            self._s = np.append(self._s, new)
            self._e = np.append(self._e, [self.energy(x) for x in new])
        return self._s[:n], self._e[:n]

    def minimize(self, lam: float) -> MeanFieldState:
        """:func:`minimize_phi` at ``lam >= lam_lo``, refined in ``s`` on the memoized ``e_1``."""
        modeset = ModeSet(modes=(self.mode,), lambda0=lam, N=self.chain.N, E_c=self.chain.E_c)
        s, e = self.samples(lam * self.search.phi_max)
        tilt = 1.0 / (lam * lam) - 1.0
        f = lambda x: self.energy(x) + self.omega * x * x * tilt
        vals = e + self.omega * s * s * tilt
        return _state(modeset, *_minimize_single(f, s, vals, self.search, lam))


# the polish stops once the projected gradient falls below this (ftol = 0
# leaves no other stop); the self-consistency residual is half the
# gradient, so it ends below 5e-9
_POLISH_GTOL = 1e-8


def _rotated_polarization(sol) -> np.ndarray:
    """``<s^z_j>`` in the rotated frame, ``-diag(G)`` without forming ``G``."""
    return np.einsum("kj,kj->j", sol.Psi, sol.Phi)


def _energy_and_gradient(phi, chain: ChainSpec, modeset: ModeSet):
    """``e_g`` and, by Hellmann-Feynman, its gradient from one even-sector solve:

        d e_g / d phi_l = 2 (omega_l + 4 D_l) phi_l - (2/N) sum_j lambda_l(j) sin(theta_j) <s^z_j>

    with ``<s^z_j>`` in the rotated frame, twice the signed residual.
    """
    fld = effective_field(chain, modeset, phi)
    sol = ground_sector(fld, chain.bonds())
    sz = _rotated_polarization(sol)
    stiffness = modeset.frequencies + 4.0 * modeset.D
    e_g = float(np.sum(stiffness * phi * phi)) + sol.ground_energy_chain / chain.N
    grad = 2.0 * stiffness * phi - (2.0 / chain.N) * (modeset.couplings @ (np.sin(fld.theta) * sz))
    return e_g, grad


def _minimize_multi(chain: ChainSpec, modeset: ModeSet, search: SearchSpec):
    f = lambda phi: energy_per_particle(chain, modeset, phi)
    n_modes = modeset.n_modes
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
        if not x.any():
            # the gradient vanishes at phi = 0, so an unstable origin would
            # hold the polish there; start one grid step down the direction
            # that softens first, which near a joint onset mixes the modes
            H = 2.0 * np.diag(modeset.frequencies) + _origin_hessian(chain, modeset)
            w, v = np.linalg.eigh(H)
            if w[0] < 0.0:
                x = step * v[:, 0] * np.sign(v[np.argmax(np.abs(v[:, 0])), 0])
        res = optimize.minimize(
            _energy_and_gradient,
            x,
            args=(chain, modeset),
            method="L-BFGS-B",
            jac=True,
            bounds=[(-search.phi_max, search.phi_max)] * n_modes,
            options={"gtol": _POLISH_GTOL, "ftol": 0.0},
        )
        x = np.asarray(res.x, dtype=float)
        if x[np.argmax(np.abs(x))] < 0.0:
            x = -x  # joint flip is exact, keep the dominant amplitude >= 0
        fx = f(x)
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
    if modeset.n_modes == 1:
        # one amplitude: phi >= 0 is exhaustive by the sign-flip symmetry
        f = lambda x: energy_per_particle(chain, modeset, np.array([x]))
        return _state(modeset, *_minimize_single(f, *_sample(f, search), search))
    return _state(modeset, *_minimize_multi(chain, modeset, search))


def _origin_hessian(chain: ChainSpec, modeset: ModeSet) -> np.ndarray:
    """``Q = H - 2 diag(omega)`` of :func:`normal_phase_onset`, at the modes' ``lambda0``."""
    fld = effective_field(chain, modeset, np.zeros(modeset.n_modes))
    sz = _rotated_polarization(ground_sector(fld, chain.bonds()))
    response = (modeset.couplings * sz) @ modeset.couplings.T * (8.0 / (chain.N * chain.E_z))
    return 8.0 * np.diag(modeset.D) - response


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
    Q = _origin_hessian(chain, unit)
    scale = 1.0 / np.sqrt(2.0 * unit.frequencies)
    mu = np.linalg.eigvalsh(scale[:, None] * Q * scale[None, :])[0]
    if mu >= 0.0:
        return None
    return math.sqrt(-1.0 / mu)


def _crossing_onset(curve: _UnitCurve, s_max: float) -> float | None:
    """Smallest ``lambda0`` at which a condensate in ``curve``'s mode ties ``phi = 0``.

    With ``s = lambda0 phi`` the single-mode energy is ``e(phi) = (omega /
    lambda0^2 + 4 D_1) s^2 + g(s)``, with ``D_1`` the self-energy at
    ``lambda0 = 1`` and a chain part ``g`` that does not depend on
    ``lambda0``.  So with ``u(s) = e_1(s) - e_1(0)`` at ``lambda0 = 1``,
    ``e(phi) < e(0)`` exactly when ``lambda0 > s sqrt(omega / (omega s^2 -
    u(s)))``, and the global minimizer leaves ``phi = 0`` at the smallest
    such value over ``s``: the samples of ``u`` on ``(0, s_max]``, the
    best one refined, with no loop over ``lambda0``.  Chain, mode and
    search come from ``curve``, and so do the samples, so the onset search
    of a sweep reuses the column's curve; only when ``curve`` is coarser
    there than ``s_max / (coarse_points - 1)`` does a finer fresh curve
    sample ``(0, s_max]``.  Returns ``None`` when ``omega s^2 - u(s) <= 0``
    at every sample.

    On a first-order transition this is the onset; on a second-order one
    the smallest value sits at ``s -> 0``, so the scan returns a value at
    or above :func:`normal_phase_onset`.
    """
    search = curve.search
    if s_max < curve.lam_lo * search.phi_max:
        curve = _UnitCurve(curve.chain, curve.mode, search, s_max / search.phi_max)
    s, e = curve.samples(s_max)
    # lambda(s) rises with u(s)/s^2, which stays finite as s -> 0
    ratio = lambda x: (curve.energy(x) - e[0]) / (x * x)
    s, vals = s[1:], (e[1:] - e[0]) / s[1:] ** 2
    i = int(np.argmin(vals))
    if vals[i] >= curve.omega:
        return None
    _, r = _bounded_min(ratio, s[max(i - 1, 0)], s[min(i + 1, s.size - 1)], search.refine_tol)
    return math.sqrt(curve.omega / (curve.omega - min(r, vals[i])))


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
    grid, vals = _sample(f, search)
    (x0, fx0), minima = _refine(f, grid, vals, search)

    points = [(x, fx, "minimum") for x, fx in minima]
    for i in _interior_minima(-vals):
        x, fx = _bounded_min(lambda t: -f(t), grid[i - 1], grid[i + 1], search.refine_tol)
        points.append((x, -fx, "maximum"))
    if vals[-1] < vals[-2]:
        _warn_boundary(minima[-1][0], search, grid[1] - grid[0])

    # classify phi = 0 against what the first-cell probe found
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

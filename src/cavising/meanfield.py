"""Variational photon amplitudes and the mean-field energy surface.

The energy per site at mode amplitudes ``phi`` is

    e_g(phi) = sum_l (omega_l + 4 D_l) phi_l^2  -  (1/2N) sum_k Lambda_k(phi)

with the quasiparticle spectrum taken in the even sector.  The field
part is exactly quadratic; all structure comes through the dependence of
the dressed fields ``Omega(j)`` on ``phi``.  Every search starts from a
coarse grid, which keeps it robust on surfaces with several competing
minima (the first-order regime), then refines a single amplitude by
bounded Brent line searches and several by L-BFGS-B on the analytic
Hellmann-Feynman gradient.  A single-amplitude condensate smaller than
one grid step can hide only in the first cell, off an unstable origin and
below a first sample that lies higher again; that cell is line-searched
only then, or where the origin's stability is not known
(:func:`stationary_points`, or a failed spinodal solve), and otherwise
yields an endpoint.

The single-amplitude grid is pruned by a lower bound that costs O(N):
the singular values of the fermion matrix sum to at most its column
norms, so ``e_g(phi) >= (omega + 4 D) phi^2 - S(phi)`` with ``S`` the mean
column norm (:func:`_column_norm_mean`), some 0.02-0.07 below ``e_g`` on
the rings of a phase diagram.  A sample is computed, and a cell refined,
only where the bound leaves room for a minimum within ``degeneracy_tol``
of the lowest energy found, so the minimizer, its energy, the degeneracy
flag and the boundary warning are those of the full scan, bit for bit;
:func:`stationary_points`, which also wants the maxima, scans in full.

Where ``phi = 0`` stops being a minimum follows from linear response
alone: the chain sees ``phi`` only through ``Omega(j) = E_z/2 +
d(j)^2/E_z + O(phi^4)``, so the Hessian of ``e_g`` at the origin needs
just the undriven polarization (:func:`normal_phase_onset`); the same
Hessian starts the gradient polish off an unstable origin, and on one
mode the spinodal it gives, ``phi = 0`` stable below it, settles the
first grid cell.  A single mode sees ``lambda0`` only through ``s =
lambda0 phi`` and the quadratic field part, so one scan of the energy at
unit coupling serves a whole column of couplings (``_UnitCurve``): each
minimization re-scores its samples and refines in ``s`` on the column's
memoized unit energy, so couplings share their line-search probes, and
where a condensate first ties ``phi = 0``, the onset of a first-order
transition, is read off the same samples (``_crossing_onset``).

A single amplitude is searched on ``phi >= 0``: the energy is even under
the joint flip of all amplitudes, so the nonnegative half covers the
physics up to that gauge.  With several modes only the joint flip is a
symmetry, and the cross terms between condensed modes can favor mixed
signs; the multi-mode search therefore seeds from the nonnegative box
but polishes over the full sign range, reporting the representative
whose dominant amplitude is nonnegative.

``scipy.optimize`` is imported by the line search and the polish
themselves, on first use: energies, onsets and the spectrum need only
``scipy.linalg``, and importing the optimizer costs more than a large-ring
energy does.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .correlation import CorrelationReport, correlation_report
from .fermion import (
    Sector, SolverError, build_quadratic_form, ground_sector, quasiparticle_energies,
)
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
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be at least 1")
        if self.refine_tol <= 0 or self.descent_tol <= 0:
            raise ValueError("refine_tol and descent_tol must be positive")
        if self.degeneracy_tol < 0:
            raise ValueError("degeneracy_tol must not be negative")


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
    from scipy import optimize

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


# the pruned scan's allowance for rounding, relative to the largest terms of
# the energy on the scan; the energies and the bound carry some 1e-15 of them
_ROUND_RTOL = 1e-8


def _column_norm_mean(chain: ChainSpec, coupling: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``S(x) = (1/N) sum_j sqrt(E_z^2/4 + J_j^2 + 4 lambda_j^2 x^2)`` at each amplitude ``x``.

    For one mode with couplings ``lambda_j``, column ``j`` of ``T`` holds
    ``Omega(j)`` and the bond ``J_j``, and the singular values of ``T`` sum
    to at most its column norms, so ``e_g(x) >= (omega + 4 D) x^2 - S(x)``.
    ``S`` is convex in ``x``.
    """
    c = 0.25 * chain.E_z**2 + chain.bonds() ** 2
    return np.sqrt(c[:, None] + 4.0 * (coupling**2)[:, None] * x**2).mean(axis=0)


def _cell_bounds(a: float, x: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Lower bounds of ``a x^2 - S(x)`` on the cells ``[x[max(k - 1, 0)], x[k + 1]]``.

    ``S`` is convex, so on a cell it lies under its chord, and ``a x^2``
    minus the chord is a parabola, least at its vertex or an end.
    """
    k = np.arange(x.size - 1)
    lo, up = np.maximum(k - 1, 0), k + 1
    slope = (S[up] - S[lo]) / (x[up] - x[lo])
    y = np.clip(0.5 * slope / a, x[lo], x[up])
    return a * y * y - S[lo] - slope * (y - x[lo])


def _refine(
    f, grid: np.ndarray, vals: np.ndarray, search: SearchSpec, scale: float = 1.0,
    stable: bool | None = None, eps: float = 0.0, live=lambda k: True,
):
    """Minima of the live cells of ``[0, scale phi_max]``: the first cell, the
    interior minima and, if the curve still falls there, the last cell to its end.

    Cell ``k`` is ``[grid[k - 1], grid[k + 1]]``, clipped to the first and
    last sample and, for the last, ending at ``scale phi_max``; ``live(k)``
    says whether it can hold a winning minimum, and every sample of a live
    cell is in ``vals``.  ``f``, ``grid`` and the results are in units of
    ``scale phi``, and the tolerance is ``refine_tol`` in ``phi``.  ``stable``
    says whether ``phi = 0`` is a local minimum (``None``: not known);
    ``eps`` is how far below the first sample an unstable origin's falling
    edge is probed.
    """
    # a condensate smaller than one grid step hides inside the first cell
    # with both endpoints above its floor, which needs an unstable origin
    # and a curve that rises again by s_1; a stable origin leaves the cell
    # to its endpoints, and so does a curve still falling just below s_1.
    # Only that hiding place, or an origin not known, is line-searched.
    tol = scale * search.refine_tol
    minima = []
    if live(0):
        if stable:
            minima.append((grid[0], vals[0]) if vals[1] >= vals[0] else (grid[1], vals[1]))
        elif stable is not None and vals[1] < vals[0] and f(grid[1] - eps) >= vals[1]:
            minima.append((grid[1], vals[1]))
        else:
            minima.append(_bounded_min(f, grid[0], grid[1], tol))
    minima += [
        _bounded_min(f, grid[i - 1], grid[i + 1], tol) for i in _interior_minima(vals) if live(i)
    ]
    if vals[-1] < vals[-2] and live(grid.size - 1):
        minima.append(_bounded_min(f, grid[-2], scale * search.phi_max, tol))
    return minima


def _minimize_single(
    f, grid: np.ndarray, vals: np.ndarray, search: SearchSpec, scale: float,
    stable: bool | None, eps: float, a: float, chain_bound,
):
    """Best of the origin and :func:`_refine`'s minima, returned in ``phi``.

    ``f >= a x^2 - chain_bound(x)`` (:func:`_column_norm_mean` in the units
    of ``grid``).  ``vals`` holds ``f`` on ``grid`` where known, NaN
    elsewhere, and gains the samples computed here: lowest point bound
    first, and only those of a cell whose bound is within
    ``degeneracy_tol`` plus a rounding allowance of the lowest value
    computed so far.  Only such cells are refined.  Every candidate a dead
    cell could give then lies above the best one by more than
    ``degeneracy_tol``, which leaves the minimizer and the degeneracy flag
    those of the full scan, unless the best candidate ends above the
    lowest value by more than the rounding allowance; every cell is then
    taken live.
    """
    ends = np.append(grid, max(grid[-1], scale * search.phi_max))
    S = chain_bound(ends)
    cells = _cell_bounds(a, ends, S)
    rounding = _ROUND_RTOL * (a * ends[-1] ** 2 + S[-1])
    padded = np.concatenate(([np.inf], cells, [np.inf]))
    near = np.minimum(np.minimum(padded[:-2], padded[1:-1]), padded[2:])
    if np.isnan(vals[0]):
        vals[0] = f(grid[0])
    low = np.nanmin(vals)

    def value(t):
        nonlocal low
        v = f(t)
        low = min(low, v)
        return v

    order = np.argsort(a * grid * grid - S[:-1], kind="stable")
    for margin in (search.degeneracy_tol + 2.0 * rounding, math.inf):
        for i in order:
            if np.isnan(vals[i]) and near[i] <= low + margin:
                vals[i] = value(grid[i])
        live = lambda k: cells[k] <= low + margin
        minima = _refine(value, grid, vals, search, scale, stable, eps, live)
        candidates = sorted([(0.0, vals[0]), *minima], key=lambda c: c[1])
        if candidates[0][1] <= low + rounding:
            break
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
    ``lambda0 >= lam_lo`` at least as fine as :func:`minimize_phi`'s.  Every
    ``e_1(s)`` is memoized by ``s`` and computed only when a coupling needs
    it: a sample only where the lower bound ``(omega / lambda0^2 + 4 D_1)
    s^2 - S(s)`` (:func:`_column_norm_mean` at unit coupling) leaves its
    cell live, and refined in ``s``, the couplings of a column share their
    cells, so a probe of the same ``s`` is paid once.  The first cell ``[0,
    s_1]`` needs a line search only where ``phi = 0`` is unstable, ``lambda0
    >= spinodal``, and the curve rises again by ``s_1``; where it still
    falls, one probe at the column's fixed ``s_1 - lam_lo refine_tol``
    tells, and every other coupling takes an endpoint.
    """

    def __init__(self, chain: ChainSpec, mode: int, search: SearchSpec, lam_lo: float):
        self.chain, self.mode, self.search, self.lam_lo = chain, mode, search, lam_lo
        self._unit = ModeSet(modes=(mode,), lambda0=1.0, N=chain.N, E_c=chain.E_c)
        self.omega, self.D = float(self._unit.frequencies[0]), float(self._unit.D[0])
        self.step = lam_lo * search.phi_max / (search.coarse_points - 1)
        self._memo: dict[float, float] = {}

    @cached_property
    def _spinodal(self):
        return _onset_or_error(self.chain, (self.mode,))

    @property
    def spinodal(self) -> float | None:
        """:func:`normal_phase_onset` of the mode, one full solve on first use.

        A failed solve raises its :class:`SolverError` here every time; the
        minimizations then line-search every first cell, as if the origin's
        stability were not known.
        """
        lam_s, exc = self._spinodal
        if exc is not None:
            raise exc
        return lam_s

    def energy(self, s: float) -> float:
        """``e_1(s)``, computed once per ``s``."""
        if s not in self._memo:
            self._memo[s] = energy_per_particle(self.chain, self._unit, np.array([s]))
        return self._memo[s]

    def samples(self, s_max: float):
        """``s`` on the samples up to ``s_max``, give or take rounding, and
        ``e_1(s)`` where it is known (NaN elsewhere); computes nothing."""
        s = np.arange(int(s_max / self.step + 1e-9) + 1) * self.step
        return s, np.array([self._memo.get(x, np.nan) for x in s.tolist()])

    def bound(self, s: np.ndarray) -> np.ndarray:
        """:func:`_column_norm_mean` at unit coupling: ``e_1 >= (omega + 4 D) s^2 - bound``."""
        return _column_norm_mean(self.chain, self._unit.couplings[0], s)

    def minimize(self, lam: float) -> MeanFieldState:
        """:func:`minimize_phi` at ``lam >= lam_lo``, refined in ``s`` on the memoized ``e_1``."""
        modeset = ModeSet(modes=(self.mode,), lambda0=lam, N=self.chain.N, E_c=self.chain.E_c)
        s, e = self.samples(lam * self.search.phi_max)
        tilt = 1.0 / (lam * lam) - 1.0
        f = lambda x: self.energy(x) + self.omega * x * x * tilt
        vals = e + self.omega * s * s * tilt
        stable = _origin_stable(self._spinodal, lam)
        eps = self.lam_lo * self.search.refine_tol
        a = self.omega / (lam * lam) + 4.0 * self.D
        return _state(
            modeset, *_minimize_single(f, s, vals, self.search, lam, stable, eps, a, self.bound)
        )


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
    from scipy import optimize

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
    """Global minimum of ``e_g``, sign-normalized as described above.

    One mode scans ``[0, phi_max]`` on ``coarse_points`` samples, computing
    only those that the bound ``(omega + 4 D) phi^2 - S(phi)`` of
    :func:`_column_norm_mean` leaves in a live cell.
    """
    search = search or SearchSpec()
    if modeset.n_modes == 1:
        # one amplitude: phi >= 0 is exhaustive by the sign-flip symmetry
        f = lambda x: energy_per_particle(chain, modeset, np.array([x]))
        stable = _origin_stable(_onset_or_error(chain, modeset.modes), modeset.lambda0)
        grid = np.linspace(0.0, search.phi_max, search.coarse_points)
        vals = np.full(grid.size, np.nan)
        a = float(modeset.frequencies[0] + 4.0 * modeset.D[0])
        bound = lambda x: _column_norm_mean(chain, modeset.couplings[0], x)
        found = _minimize_single(f, grid, vals, search, 1.0, stable, search.refine_tol, a, bound)
        return _state(modeset, *found)
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


def _onset_or_error(chain: ChainSpec, modes):
    """``(normal_phase_onset, None)``, or ``(None, the error)`` when its solve fails."""
    try:
        return normal_phase_onset(chain, modes), None
    except SolverError as exc:
        return None, exc


def _origin_stable(onset, lam: float) -> bool | None:
    """Whether ``phi = 0`` is a local minimum at ``lam``, from :func:`_onset_or_error`.

    ``None`` when the solve failed; with no finite onset every coupling is stable.
    """
    lam_s, exc = onset
    if exc is not None:
        return None
    return lam_s is None or lam < lam_s


def _crossing_onset(curve: _UnitCurve, s_max: float) -> float | None:
    """Smallest ``lambda0`` at which a condensate in ``curve``'s mode ties ``phi = 0``.

    With ``s = lambda0 phi`` the single-mode energy is ``e(phi) = (omega /
    lambda0^2 + 4 D_1) s^2 + g(s)``, with ``D_1`` the self-energy at
    ``lambda0 = 1`` and a chain part ``g`` that does not depend on
    ``lambda0``.  So with ``u(s) = e_1(s) - e_1(0)`` at ``lambda0 = 1``,
    ``e(phi) < e(0)`` exactly when ``lambda0 > s sqrt(omega / (omega s^2 -
    u(s)))``, and the global minimizer leaves ``phi = 0`` at the smallest
    such value over ``s``: the samples of ``u`` on ``(0, s_max]``, the
    best one refined, with no loop over ``lambda0``.  The curve's bound
    gives ``u(s) / s^2 >= omega + 4 D_1 - (S(s) + e_1(0)) / s^2``, so only
    the samples whose floor does not lie above the lowest ratio found are
    computed, lowest floor first; the least ratio and its sample are those
    of the full scan.  Chain, mode and search come from ``curve``, and so
    do the samples, so the onset search of a sweep reuses the column's
    curve; only when ``curve`` is coarser there than ``s_max /
    (coarse_points - 1)`` does a finer fresh curve sample ``(0, s_max]``.
    Returns ``None`` when ``omega s^2 - u(s) <= 0`` at every sample.

    On a first-order transition this is the onset; on a second-order one
    the smallest value sits at ``s -> 0``, so the scan returns a value at
    or above :func:`normal_phase_onset`.
    """
    search = curve.search
    if s_max < curve.lam_lo * search.phi_max:
        curve = _UnitCurve(curve.chain, curve.mode, search, s_max / search.phi_max)
    s, e = curve.samples(s_max)
    e[0] = curve.energy(s[0])
    # lambda(s) rises with u(s)/s^2, which stays finite as s -> 0 and is at
    # least omega + 4 D_1 - (S(s) + e_1(0)) / s^2: a sample whose floor lies
    # above the lowest ratio so far, give or take rounding, is not the least
    ratio = lambda x: (curve.energy(x) - e[0]) / (x * x)
    S = curve.bound(s)
    a = curve.omega + 4.0 * curve.D
    s, S, s2 = s[1:], S[1:], s[1:] ** 2
    vals = (e[1:] - e[0]) / s2
    floor = a - (S + e[0]) / s2
    slack = 2.0 * _ROUND_RTOL * (a * s2[-1] + S[-1]) / s2
    low = np.fmin.reduce(vals, initial=np.inf)
    for i in np.argsort(floor, kind="stable"):
        if np.isnan(vals[i]) and floor[i] <= low + slack[i]:
            vals[i] = (curve.energy(s[i]) - e[0]) / s2[i]
            low = min(low, vals[i])
    i = int(np.nanargmin(vals))
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
    grid = np.linspace(0.0, search.phi_max, search.coarse_points)
    vals = np.array([f(x) for x in grid])
    (x0, fx0), *minima = _refine(f, grid, vals, search)

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

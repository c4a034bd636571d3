"""Variational photon amplitudes and the mean-field energy surface.

The energy per site at mode amplitudes ``phi`` is

    e_g(phi) = sum_l (omega_l + 4 D_l) phi_l^2  -  (1/2N) sum_k Lambda_k(phi)

with the quasiparticle spectrum taken in the even sector.  The field
part is exactly quadratic; all structure comes through the dependence of
the dressed fields ``Omega(j)`` on ``phi``.  Every search starts from a
coarse grid, which keeps it robust on surfaces with several competing
minima (the first-order regime), then refines a single amplitude by
Brent line searches seeded from the samples and probes already computed
(:func:`_line_min`) and several by L-BFGS-B on the analytic
Hellmann-Feynman gradient.  A single-amplitude condensate smaller than
one grid step can hide only in the first cell, off an unstable origin and
below a first sample that lies higher again; that cell is line-searched
only then, or where the origin's stability is not known (a failed
spinodal solve), and otherwise yields an endpoint.

The single-amplitude grid is pruned by two lower bounds.  One costs O(N):
the singular values of the fermion matrix sum to at most its column
norms, so ``e_g(phi) >= (omega + 4 D) phi^2 - S(phi)`` with ``S`` the mean
column norm (:func:`_column_norm_mean`), some 0.02-0.07 below ``e_g`` on
the rings of a phase diagram.  The other is free: the chain part ``e_g -
(omega + 4 D) phi^2`` is concave (``TestChainEnergyConcavity`` in the tests
proves it), so between two computed samples it lies above their chord,
and ``e_g`` above a parabola, within some ``(omega + 4 D) h^2 / 4`` of it
over a step ``h``.  Samples are computed coarse to fine (``_STRIDES``), so
that most lie between computed ones.  A sample is computed, and a cell
refined, only where the larger bound leaves room for a minimum within
``degeneracy_tol`` of the lowest energy found, so every cell that could win
is refined as the full scan would refine it: the degeneracy flag and the
boundary warning are the full scan's, and the minimizer is, to
``refine_tol``.

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

What the ``phi = 0`` solve tells, the onset and the ground state it solved
or the error of that solve, is one record (``_NormalPhase``), made once per
chain and modes.  A ``lambda0`` column (``_Column``) holds its memoized
states, its record and, on one mode, its curve and the last crossing onset
read off it; it alone picks how a coupling is minimized.  A sweep along
``lambda0`` and the onset searches on it share one column, and
:func:`minimize_phi` is a column of one coupling.

A single amplitude is searched on ``phi >= 0``: the energy is even under
the joint flip of all amplitudes, so the nonnegative half covers the
physics up to that gauge.  With several modes only the joint flip is a
symmetry, and the cross terms between condensed modes can favor mixed
signs; the multi-mode search therefore seeds from the nonnegative box
but polishes over the full sign range, reporting the representative
whose dominant amplitude is nonnegative.

``scipy.optimize`` is imported by the multi-mode polish alone, on first
use: energies, onsets, the spectrum and every single-mode search need
only scipy's LAPACK wrappers, which :mod:`cavising.fermion` loads
without ``scipy.linalg``; the optimizer's import brings ``scipy.linalg``
and ``scipy.sparse`` with it and costs more than a large-ring energy
(0.4 to 0.55 s and 43 MB, scipy 1.17 on 2 cores).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product

import numpy as np

from .fermion import (
    QuasiparticleSolution, Sector, SolverError, build_quadratic_form, ground_sector,
    quasiparticle_energies,
)
from .model import ChainSpec, ModeSet, _frozen, effective_field

__all__ = [
    "SearchSpec",
    "MeanFieldState",
    "energy_per_particle",
    "minimize_phi",
    "normal_phase_onset",
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
        if not 0 < self.phi_max < math.inf:
            raise ValueError(f"phi_max must be positive and finite, got {self.phi_max}")
        if self.coarse_points < 3 or self.multi_coarse_points < 3 or self.line_points < 3:
            raise ValueError("grids need at least 3 points")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be at least 1")
        if not (0 < self.refine_tol < math.inf and 0 < self.descent_tol < math.inf):
            raise ValueError("refine_tol and descent_tol must be positive and finite")
        if not 0 <= self.degeneracy_tol < math.inf:
            raise ValueError("degeneracy_tol must be finite and not negative")


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
        object.__setattr__(self, "phi", _frozen(self.phi))
        object.__setattr__(self, "Sigma_x", _frozen(self.Sigma_x))


def energy_per_particle(chain: ChainSpec, modeset: ModeSet, phi) -> float:
    """Mean-field energy per site at amplitudes ``phi`` (even sector)."""
    fld = effective_field(chain, modeset, phi)
    lam = quasiparticle_energies(build_quadratic_form(fld, chain.bonds(), Sector.EVEN))
    phi = np.asarray(phi, dtype=float)
    field_part = float(np.sum(modeset.stiffness * phi * phi))
    return field_part - float(np.sum(lam)) / (2.0 * chain.N)


# the share of a bracket's longer side that a golden-section step takes
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
# a line search gives up after this many probes, as scipy's does: a refine_tol
# below the rounding of s could leave its closing step where it stands
_MAX_PROBES = 500
# a parabolic step shorter than this share of the tolerance is not taken: the
# best point is then that close to the vertex, and the bracket is closed instead
_SETTLED = 1e-2


def _line_min(f, lo: float, hi: float, known: dict, tol: float, pinned=False):
    """``(x, f(x))`` with ``x`` within ``tol`` of the minimizer of ``f`` on ``[lo, hi]``.

    Brent's method (Brent, *Algorithms for Minimization without
    Derivatives*, 1973), seeded from ``known``, a map of points already
    computed to their values, at least one of them in the cell.  It starts
    from the best known point in the cell, bracketed by the nearest known
    points on either side that lie higher (one that ties it may owe the tie
    to rounding, as over ``tol`` on a flat stretch); the first step is the
    vertex of the parabola through it and its two nearest known neighbours.
    A best point within ``tol`` of a cell end is confirmed with one probe
    ``tol`` inside that lies higher, and an end that no known point
    separates from the best one is computed.
    Parabolic steps are taken down to a hundredth of ``tol``; the search
    stops only once the best point ``x`` and its bracket ``[a, b]`` satisfy
    ``max(x - a, b - x) <= tol``, so for ``f`` unimodal on the cell the
    minimizer lies within ``tol`` of ``x``.

    Every function searched here is even in ``x`` with ``lo >= 0`` (an
    energy along ``s``, or a ratio of them), so the parabolas are fitted in
    ``x^2``, which such a function follows closely down to the origin, and
    ``lo = 0`` never takes the one-probe end rule: with ``f'(0) = 0`` the
    drop over ``tol`` is lost to rounding.  ``pinned``: ``f`` falls off
    ``lo`` (an unstable origin), so ``lo`` is never the answer.  ``f`` is
    called once per probe.
    """
    pts = dict(known)

    def value(u):
        pts[u] = f(u)
        return pts[u]

    def best():
        inside = sorted(p for p in pts if lo <= p <= hi and not (pinned and p == lo))
        return min(inside, key=pts.__getitem__)

    x, probed = best(), set()
    while True:
        if hi - x <= tol < x - lo:
            end, u = hi, x - tol
        elif lo > 0.0 and x - lo <= tol < hi - x:
            end, u = lo, x + tol
        else:
            end = None
        if end is not None and end not in probed:
            probed.add(end)
            if value(u) > pts[x]:
                return x, pts[x]
            x = u
            continue
        far = [
            end for end in (lo, hi)
            if end not in pts and abs(end - x) > tol
            and not any(min(x, end) < p < max(x, end) for p in pts)
        ]
        if not far:
            break
        value(far[0])
        x = best()

    fx = pts[x]
    a = max((p for p in pts if lo <= p < x and pts[p] > fx), default=lo)
    b = min((p for p in pts if x < p <= hi and pts[p] > fx), default=hi)
    near = sorted((p for p in pts if p != x), key=lambda p: abs(p - x))[:2]
    w, v = sorted(near + [x] * (2 - len(near)), key=pts.__getitem__)
    fw, fv = pts[w], pts[v]
    d = e = 2.0 * (b - a)  # lets the first step be the parabola's
    floor = _SETTLED * tol
    reach = tol + 4.0 * math.ulp(hi)  # x + tol - x may round above tol
    for _ in range(_MAX_PROBES):
        if max(x - a, b - x) <= reach:
            break
        m = 0.5 * (a + b)
        golden = True
        if abs(e) > floor:
            prev, e = e, d
            r = (x * x - w * w) * (fx - fv)
            q = (x * x - v * v) * (fx - fw)
            p = (x * x - v * v) * q - (x * x - w * w) * r
            q = 2.0 * (q - r)
            t = x * x - p / q if q else -1.0
            u = math.sqrt(t) if t >= 0.0 else math.nan
            if a < u < b and abs(u - x) < 0.5 * abs(prev):
                golden = False
                d = u - x
        if golden:
            e = (a - x) if x >= m else (b - x)
            d = _GOLDEN * e
        if abs(d) < floor or x + d - a < floor or b - x - d < floor:
            # the parabola has settled: close the wider side of the bracket
            d = tol if b - x >= x - a else -tol
        u = x + d
        fu = value(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


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


def _parabola_floor(a: float, x: np.ndarray, f: np.ndarray, lo: np.ndarray, up: np.ndarray):
    """Least value of ``a y^2`` plus the line through ``(x[lo], f[lo])`` and ``(x[up],
    f[up])`` over ``y`` in ``[x[lo], x[up]]``: at the parabola's vertex or an end."""
    width = x[up] - x[lo]
    slope = np.divide(f[up] - f[lo], width, out=np.zeros_like(width), where=width > 0.0)
    y = np.clip(-0.5 * slope / a, x[lo], x[up])
    return a * y * y + f[lo] + slope * (y - x[lo])


def _cell_bounds(a: float, x: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Lower bounds of ``a x^2 - S(x)`` on the cells ``[x[max(k - 1, 0)], x[k + 1]]``.

    ``S`` is convex, so on a cell it lies under its chord, and ``a x^2``
    minus the chord is a parabola, least at its vertex or an end.
    """
    k = np.arange(x.size - 1)
    return _parabola_floor(a, x, -S, np.maximum(k - 1, 0), k + 1)


def _chords(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The interpolant through the known (not NaN) values of ``g`` at ``x``, NaN off
    their hull: a concave ``g`` lies on or above it."""
    known = ~np.isnan(g)
    xk = x[known]
    line = np.interp(x, xk, g[known])
    line[(x < xk[0]) | (x > xk[-1])] = np.nan
    return line


def _chord_bounds(a: float, x: np.ndarray, line: np.ndarray) -> np.ndarray:
    """Lower bounds of ``a x^2 + g(x)`` on :func:`_cell_bounds`' cells, given at ``x``
    a piecewise-linear ``line <= g`` (:func:`_chords`), NaN where not known.

    On each step ``[x[m], x[m + 1]]`` with both ends known, ``a x^2`` plus
    the line is a parabola; a cell holds the two steps either side of its
    sample, and is NaN if either is.
    """
    m = np.arange(x.size - 1)
    steps = _parabola_floor(a, x, line, m, m + 1)
    return np.minimum(steps, np.concatenate(([np.inf], steps[:-1])))


# samples are computed coarse to fine, every 8th first, then every 4th, 2nd and
# the rest, so that most lie between computed ones, where the chords bound them
_STRIDES = (8, 4, 2, 1)


def _fill(vals: np.ndarray, order: np.ndarray, numbers: np.ndarray, floors, compute) -> float:
    """Compute the entries of ``vals`` (NaN where not known) that can undercut the least
    known one; returns the least value then known.

    Entry ``i`` is sample ``numbers[i]`` of its scan.  Each pass of
    ``_STRIDES`` takes the entries whose sample number is a multiple of its
    stride, in ``order``, and computes ``vals[i] = compute(i)`` where
    ``floors()``, a lower bound of each entry less a rounding allowance from
    what was known when the pass began, is not above the least value so far.
    """
    low = np.fmin.reduce(vals, initial=np.inf)
    for stride in _STRIDES:
        todo = order[(numbers[order] % stride == 0) & np.isnan(vals[order])]
        if not todo.size:
            continue
        floor = floors()
        for i in todo:
            if floor[i] <= low:
                vals[i] = compute(i)
                low = min(low, vals[i])
    return low


def _state(modeset: ModeSet, phi: np.ndarray, e_g: float, degenerate: bool) -> MeanFieldState:
    phi = np.where(np.abs(phi) < 1e-12, 0.0, phi)
    Sigma_x = phi * modeset.stiffness
    return MeanFieldState(phi=phi, Sigma_x=Sigma_x, e_g=float(e_g), degenerate=degenerate)


class _UnitCurve:
    """One mode's energy ``e_1(s)`` at unit coupling, shared by a column of ``lambda0``.

    With ``s = lambda0 phi`` the energy at any ``lambda0`` is ``e_1(s) +
    omega (phi^2 - s^2)``, so samples spaced ``lam_lo phi_max /
    (coarse_points - 1)`` re-score into a grid on ``[0, phi_max]`` at every
    ``lambda0 >= lam_lo`` at least as fine as ``coarse_points`` even steps.
    Every ``e_1(s)`` is memoized by ``s`` and computed only when a coupling
    needs it: a sample only where the larger of two lower bounds leaves its
    cell live, ``(omega + 4 D_1 lambda0^2) phi^2 - S(s)``
    (:func:`_column_norm_mean` at unit coupling) and, between samples
    already computed at this or any earlier coupling, that parabola's
    ``a phi^2`` plus the chord of the concave chain part
    (:func:`_chord_bounds`), the samples taken coarse to fine
    (:func:`_fill`); and refined in ``s``, the couplings of a column
    share their cells, so a probe of the same ``s`` is paid once, and every
    line search (:func:`_line_min`) starts from the memoized values in and
    around its cell.  The first cell ``[0, s_1]`` needs a line search only
    where ``phi = 0`` is unstable, ``lambda0 >= spinodal``, and the curve
    rises again by ``s_1``; where it still falls, one probe at the column's
    fixed ``s_1 - lam_lo refine_tol`` tells, and every other coupling takes
    an endpoint.
    """

    def __init__(self, chain: ChainSpec, mode: int, search: SearchSpec, lam_lo: float):
        self.chain, self.mode, self.search, self.lam_lo = chain, mode, search, lam_lo
        self._unit = ModeSet(modes=(mode,), lambda0=1.0, N=chain.N, E_c=chain.E_c)
        self.omega, self.D = float(self._unit.frequencies[0]), float(self._unit.D[0])
        self.step = lam_lo * search.phi_max / (search.coarse_points - 1)
        self._memo: dict[float, float] = {}
        self._norms: dict[float, float] = {}

    @cached_property
    def normal(self) -> _NormalPhase:
        """The mode's ``phi = 0`` record, one full solve on first use.

        A failed solve leaves every first cell line-searched, as if the
        origin's stability were not known.
        """
        return _normal_phase(self.chain, (self.mode,))

    def energy(self, s: float) -> float:
        """``e_1(s)``, computed once per ``s``."""
        if s not in self._memo:
            self._memo[s] = energy_per_particle(self.chain, self._unit, np.array([s]))
        return self._memo[s]

    def samples(self, s_max: float):
        """``s`` on the samples up to ``s_max``, give or take rounding, and
        ``e_1(s)`` where it is known (NaN elsewhere); computes nothing."""
        n = int(s_max / self.step + 1e-9) if self.step > 0.0 else 0
        s = np.arange(n + 1) * self.step
        return s, np.array([self._memo.get(x, np.nan) for x in s.tolist()])

    def chords(self, s: np.ndarray, chain: np.ndarray) -> np.ndarray:
        """:func:`_chords` of the chain part ``e_1(s) - (omega + 4 D) s^2``, known at ``s``
        where ``chain`` is not NaN: it is concave, so it lies on or above them."""
        return _chords(s, chain)

    def bound(self, s: np.ndarray) -> np.ndarray:
        """:func:`_column_norm_mean` at unit coupling: ``e_1 >= (omega + 4 D) s^2 - bound``,
        computed once per ``s``."""
        new = [x for x in dict.fromkeys(s.tolist()) if x not in self._norms]
        if new:
            # numpy sums a lone column pairwise but several site by site, each
            # whatever the others are: a spare column keeps every value the same
            S = _column_norm_mean(self.chain, self._unit.couplings[0], np.array(new + [0.0]))
            self._norms.update(zip(new, S.tolist()))
        return np.array([self._norms[x] for x in s.tolist()])

    def minimize(self, lam: float) -> MeanFieldState:
        """:func:`minimize_phi` at ``lam >= lam_lo``, refined in ``s`` on the memoized ``e_1``."""
        modeset = ModeSet(modes=(self.mode,), lambda0=lam, N=self.chain.N, E_c=self.chain.E_c)
        return _state(modeset, *self._scan(lam))

    def _scan(self, lam: float):
        """``phi``, ``e_g`` and the degeneracy flag at ``lam``: the best of the
        origin and :meth:`_refine`'s minima.

        ``e_g >= a phi^2 - S(s)`` with ``a = omega + 4 D_1 lam^2``, and
        ``e_g - a phi^2`` is concave, so on a cell between computed samples
        ``e_g`` is at least ``a phi^2`` plus their chord.  The samples are
        computed coarse to fine, each pass lowest point bound first, and
        only those of a cell whose larger bound, from the samples known when
        the pass began, is within ``degeneracy_tol`` plus a rounding
        allowance of the lowest value computed so far.  Only such cells, by
        the bounds from every sample computed, are refined; a cell's bounds
        only rise as samples are computed, so each of its samples was.
        Every candidate a dead cell could give then lies above the best one
        by more than ``degeneracy_tol``, which leaves the minimizer
        and the degeneracy flag those of the full scan: the lowest value
        computed is a sample at an interior minimum of the samples, the
        origin, a falling last sample or a probe of a line search, and every
        line search starts from the best point known in its cell, so the best
        candidate is never above it.
        """
        search, omega = self.search, self.omega
        s, e = self.samples(lam * search.phi_max)
        if s.size < 2:
            # one step of s underflows: the chain cannot see the coupling
            return np.zeros(1), self.energy(0.0), False
        rescore = lambda x, ex: ex + omega * ((x / lam) ** 2 - x * x)
        vals = rescore(s, e)
        ends = np.append(s, max(s[-1], lam * search.phi_max))
        phi = ends / lam
        S = self.bound(ends)
        a = omega + 4.0 * self.D * lam * lam
        margin = search.degeneracy_tol + 2.0 * _ROUND_RTOL * (a * phi[-1] ** 2 + S[-1])
        if np.isnan(vals[0]):
            vals[0] = self.energy(0.0)
        col = _cell_bounds(a, phi, S)
        # the chain part vals - a phi^2 lies above the chords of its samples
        chain = lambda: self.chords(ends, np.append(vals - a * phi[:-1] ** 2, np.nan))
        bounds = lambda: np.fmax(col, _chord_bounds(a, phi, chain()))

        def floors():
            padded = np.concatenate(([np.inf], bounds(), [np.inf]))
            return np.minimum(np.minimum(padded[:-2], padded[1:-1]), padded[2:]) - margin

        order = np.argsort(a * phi[:-1] ** 2 - S[:-1], kind="stable")
        low = _fill(vals, order, order, floors, lambda i: rescore(s[i], self.energy(s[i])))

        def value(x):
            nonlocal low
            v = rescore(x, self.energy(x))
            low = min(low, v)
            return v

        seen = lambda: {x: rescore(x, ex) for x, ex in self._memo.items()}
        cells = bounds()
        live = lambda k: cells[k] <= low + margin
        minima = self._refine(value, seen, lam, ends, vals, live)
        candidates = [(0.0, vals[0]), *minima]
        x, fx = min(candidates, key=lambda c: c[1])
        degenerate = any(
            abs(c[1] - fx) < search.degeneracy_tol and abs(c[0] - x) / lam > 10 * search.refine_tol
            for c in candidates
        )
        _warn_boundary(x / lam, search, phi[1] - phi[0])
        return np.array([x / lam]), fx, degenerate

    def _refine(self, f, seen, lam: float, ends: np.ndarray, vals: np.ndarray, live):
        """Minima of the live cells of ``[0, ends[-1]]``: the first cell, the
        interior minima and, if the curve still falls there, the last cell to its end.

        Cell ``k`` is ``[ends[k - 1], ends[k + 1]]``, clipped to the first
        sample and, for the last, ending at ``ends[-1]``; ``live(k)`` says
        whether it can hold a winning minimum, and every sample of a live
        cell is in ``vals``.  ``f`` is the energy at ``lam`` in ``s``, and
        ``seen()`` maps every ``s`` computed so far to it.
        """
        # a condensate smaller than one grid step hides inside the first cell
        # with both endpoints above its floor, which needs an unstable origin
        # and a curve that rises again by s_1; a stable origin leaves the cell
        # to its endpoints, and so does a curve still falling just below s_1.
        # Only that hiding place, or an origin not known, is line-searched.
        search, s = self.search, ends[:-1]
        tol = lam * search.refine_tol
        minima = []
        if live(0):
            stable = self.normal.stable(lam)
            if stable:
                minima.append((s[0], vals[0]) if vals[1] >= vals[0] else (s[1], vals[1]))
            elif (
                stable is not None and vals[1] < vals[0]
                and f(s[1] - self.lam_lo * search.refine_tol) >= vals[1]
            ):
                minima.append((s[1], vals[1]))
            else:
                minima.append(_line_min(f, 0.0, s[1], seen(), tol, pinned=stable is False))
        for i in _interior_minima(vals):
            if live(i):
                minima.append(_line_min(f, s[i - 1], s[i + 1], seen(), tol))
        if vals[-1] < vals[-2] and live(s.size - 1):
            minima.append(_line_min(f, s[-2], ends[-1], seen(), tol))
        return minima


# the polish stops once the projected gradient falls below this (ftol = 0
# leaves no other stop); the self-consistency residual is half the
# gradient, so it ends below 5e-9
_POLISH_GTOL = 1e-8


def _energy_and_gradient(phi, chain: ChainSpec, modeset: ModeSet):
    """``e_g`` and, by Hellmann-Feynman, its gradient from one even-sector solve:

        d e_g / d phi_l = 2 (omega_l + 4 D_l) phi_l - (2/N) sum_j lambda_l(j) sin(theta_j) <s^z_j>

    with ``<s^z_j>`` in the rotated frame (the solution's ``sigma_z``), twice
    the signed self-consistency gap.
    """
    fld = effective_field(chain, modeset, phi)
    sol = ground_sector(fld, chain.bonds())
    e_g = float(np.sum(modeset.stiffness * phi * phi)) + sol.ground_energy_chain / chain.N
    drive = modeset.couplings @ (np.sin(fld.theta) * sol.sigma_z)
    return e_g, 2.0 * modeset.stiffness * phi - (2.0 / chain.N) * drive


def _minimize_multi(column: _Column, modeset: ModeSet):
    """The multi-mode polish in ``column`` at ``modeset``: ``phi``, ``e_g`` and ``degenerate``."""
    from scipy import optimize

    chain, search = column.chain, column.search
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
            normal = column.normal
            if normal.error is not None:
                raise normal.error
            Q = _origin_hessian(chain, modeset, normal.solution)
            H = 2.0 * np.diag(modeset.frequencies) + Q
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

    A :class:`_Column` of one coupling.  One mode is a :class:`_UnitCurve`
    of its own at ``lambda0``: the pruned scan of ``[0, phi_max]`` on
    ``coarse_points`` samples, computing only those that the bound ``(omega
    + 4 D) phi^2 - S(phi)`` of :func:`_column_norm_mean` leaves in a live
    cell, then seeded line searches, and the mode's spinodal (one full
    solve) only if the first cell is live.  Several modes take the grid and
    the L-BFGS-B polish, and the spinodal only if a seed is the origin.
    """
    # the column reads E_c, which sets D, from its chain: give it the mode set's
    if modeset.N != chain.N:
        raise ValueError("mode set was built for a different chain size")
    lam = modeset.lambda0
    return _Column(replace(chain, E_c=modeset.E_c), modeset.modes, search, [lam]).state(lam)


def _origin_hessian(
    chain: ChainSpec, modeset: ModeSet, origin: QuasiparticleSolution
) -> np.ndarray:
    """``Q = H - 2 diag(omega)`` of :func:`normal_phase_onset`, at the modes' ``lambda0``."""
    sz = origin.sigma_z
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
    return _normal_phase(chain, modes).onset


@dataclass(frozen=True)
class _NormalPhase:
    """What one ``phi = 0`` solve of a chain under some modes tells (:func:`_normal_phase`).

    ``lam_s`` is :func:`normal_phase_onset` and ``solution`` the ``phi = 0``
    ground state it solved; when that solve failed both are ``None`` and
    ``error`` holds its :class:`SolverError`.
    """

    lam_s: float | None = None
    solution: QuasiparticleSolution | None = None
    error: SolverError | None = None

    @property
    def onset(self) -> float | None:
        """``lam_s``; a failed solve raises its error here, every time."""
        if self.error is not None:
            raise self.error
        return self.lam_s

    def stable(self, lam: float) -> bool | None:
        """Whether ``phi = 0`` is a local minimum at ``lam``: ``None`` when the
        solve failed; with no finite onset every coupling is stable."""
        if self.error is not None:
            return None
        return self.lam_s is None or lam < self.lam_s


def _normal_phase(chain: ChainSpec, modes) -> _NormalPhase:
    """The :class:`_NormalPhase` of ``chain`` under ``modes``, with a failed solve kept."""
    unit = ModeSet(modes=tuple(modes), lambda0=1.0, N=chain.N, E_c=chain.E_c)
    try:
        # at phi = 0 the field is E_z / 2 on every site, whatever lambda0 is
        fld = effective_field(chain, unit, np.zeros(unit.n_modes))
        origin = ground_sector(fld, chain.bonds())
    except SolverError as exc:
        return _NormalPhase(error=exc)
    Q = _origin_hessian(chain, unit, origin)
    scale = 1.0 / np.sqrt(2.0 * unit.frequencies)
    mu = np.linalg.eigvalsh(scale[:, None] * Q * scale[None, :])[0]
    return _NormalPhase(None if mu >= 0.0 else math.sqrt(-1.0 / mu), origin)


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
    gives ``u(s) / s^2 >= omega + 4 D_1 - (S(s) + e_1(0)) / s^2``, and
    between computed samples the concave ``e_1 - (omega + 4 D_1) s^2`` lies
    above their chord, which gives ``u(s) / s^2 >= omega + 4 D_1 +
    (chord(s) - e_1(0)) / s^2``; only the samples whose larger floor does
    not lie above the lowest ratio found are computed, coarse to fine and
    lowest column-norm floor first (:func:`_fill`); the least ratio and its
    sample are those of the full scan.  Chain, mode and search come from
    ``curve``, and so do the samples, so the onset search of a sweep reuses
    the column's curve; only when ``curve`` is coarser there than ``s_max /
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
    grid, s, S, s2 = s, s[1:], S[1:], s[1:] ** 2
    vals = (e[1:] - e[0]) / s2
    floor = a - (S + e[0]) / s2
    slack = 2.0 * _ROUND_RTOL * (a * s2[-1] + S[-1]) / s2

    def floors():
        # the chain part e_1 - a s^2 lies above the chords of its samples
        chain = curve.chords(grid, np.concatenate(([e[0]], (vals - a) * s2 + e[0])))[1:]
        return np.fmax(floor, a + (chain - e[0]) / s2) - slack

    order = np.argsort(floor, kind="stable")
    _fill(vals, order, order + 1, floors, lambda i: (curve.energy(s[i]) - e[0]) / s2[i])
    i = int(np.nanargmin(vals))
    if vals[i] >= curve.omega:
        return None
    known = {x: (ex - e[0]) / (x * x) for x, ex in curve._memo.items() if x > 0.0}
    lo, hi = s[max(i - 1, 0)], s[min(i + 1, s.size - 1)]
    _, r = _line_min(ratio, lo, hi, known, search.refine_tol)
    return math.sqrt(curve.omega / (curve.omega - r))


class _Column:
    """The minimizations of one ``lambda0`` column, memoized, and its ``phi = 0`` record.

    :meth:`state` alone picks how a coupling is minimized.  One mode: every
    coupling from ``lam_lo``, the smallest whose sample step ``lam_lo
    phi_max / (coarse_points - 1)`` does not underflow to 0, re-scores one
    :class:`_UnitCurve`, whose first cells read the column's
    :class:`_NormalPhase`, and the last crossing onset read off it is kept
    as ``crossing``; a coupling below ``lam_lo`` takes a curve of its own.
    Several modes take the multi-mode polish, whose origin seed reads the
    record.  Each state is solved once per coupling.
    """

    def __init__(self, chain: ChainSpec, modes, search: SearchSpec | None, lams):
        self.chain, self.modes = chain, modes
        self.search = search = search or SearchSpec()
        self._states: dict[float, MeanFieldState] = {}
        self.curve = self.crossing = None
        self.lam_lo = min(
            (v for v in lams if v * search.phi_max / (search.coarse_points - 1) > 0.0),
            default=0.0,
        )
        if len(modes) == 1 and self.lam_lo > 0:
            self.curve = _UnitCurve(chain, modes[0], search, self.lam_lo)

    @cached_property
    def normal(self) -> _NormalPhase:
        """The column's ``phi = 0`` record: its curve's, if it has one."""
        if self.curve is not None:
            return self.curve.normal
        return _normal_phase(self.chain, self.modes)

    def state(self, lam: float) -> MeanFieldState:
        """The minimum at ``lam``, solved on first use."""
        if lam not in self._states:
            chain = self.chain
            if self.curve is not None and lam >= self.lam_lo:
                state = self.curve.minimize(lam)
            elif len(self.modes) == 1:
                # one amplitude: phi >= 0 is exhaustive by the sign-flip symmetry
                state = _UnitCurve(chain, self.modes[0], self.search, lam).minimize(lam)
            else:
                modeset = ModeSet(modes=self.modes, lambda0=lam, N=chain.N, E_c=chain.E_c)
                state = _state(modeset, *_minimize_multi(self, modeset))
            self._states[lam] = state
        return self._states[lam]

    def phi_norm(self, lam: float) -> float:
        return float(np.max(np.abs(self.state(lam).phi)))

    def crossing_below(self, s_max: float) -> float | None:
        """:func:`_crossing_onset` of the curve up to ``s_max``, kept as ``crossing``."""
        self.crossing = _crossing_onset(self.curve, s_max)
        return self.crossing


def order_parameter_residual(chain: ChainSpec, modeset: ModeSet, phi) -> np.ndarray:
    """Self-consistency gap of the amplitudes, mode by mode.

    ``|Sigma_x_l - phi_l (omega_l + 4 D_l)|``, with ``Sigma_x_l`` measured
    from the correlated ground state at ``phi`` (the coupling-weighted
    average of the lab-frame transverse polarization): half the gradient of
    :func:`_energy_and_gradient`, which is twice the signed gap, from one
    even-sector solve.  Vanishes at any stationary point of ``e_g``.
    """
    _, grad = _energy_and_gradient(np.asarray(phi, dtype=float), chain, modeset)
    return 0.5 * np.abs(grad)

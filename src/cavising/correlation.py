"""Ground-state observables of the rotated chain via Wick contractions.

All correlators reduce to the single contraction matrix

    G_ij = <D_i C_j> = -(Psi^T Phi)_ij

where ``C_j = c_j^dag + c_j`` and ``D_j = c_j^dag - c_j`` are the
position-space Majorana pairs.  The local rotated polarization is
``<sz_j> = -G_jj`` and the two-point function ``rho(j, n) =
<sy_j sy_{j+n}>`` is an ``n x n`` determinant of a block of ``G`` with
periodically wrapped indices; a block that crosses the seam picks up an
overall minus sign from the antiperiodicity of the even-sector
solution.  Both the block orientation and the seam sign were pinned
against brute-force diagonalization, and they hold for the even-sector
vacuum only, which is the sector the ground-state pipeline always
produces.

The blocks are windows of one matrix.  With ``H[a, b] = G[a, b + 1]``
(indices mod N), ``rho(j, n) = seam * det H[j:j+n, j:j+n]``: the ``n``-th
leading principal minor of the window of ``H`` that starts at site ``j``.
The leftward correlator ``rho(j - n, n)`` is the same kind of minor, of the
window that starts at ``j - n``.  So one table ``R[s, n - 1]`` of leading
minors, one row per window start ``s``, serves every correlator.  It comes
from one pivot-free elimination run on all windows at once: step ``n``
eliminates column ``n`` of every window, and the running product of the
pivots is the ``n``-th leading minor of each.  On a ring whose field and
bonds repeat every M sites, :func:`pair_contractions` builds ``G``
exactly twisted-periodic, so the windows of one period are eliminated
and the others' rows copied: a window M sites on is the same one up to
exact sign flips that cancel against the seam sign.  ``G`` is orthogonal, so
its entries are at most 1 in size; a pivot far below that has lost its
digits to cancellation (a minor that vanishes exactly comes out as
rounding noise), and its window takes the rest of its row from
:func:`yy_correlation`, LAPACK's pivoted LU determinant.

Each site has a rightward and a leftward decay length: how far ``|rho|``
walks outward before it falls to ``|rho(j, 1)|/e``, with the crossing
interpolated on a log scale.  All 2N walks advance in lockstep with the
elimination, which records the depth at which each one closes and stops
at the first depth by which all of them have; short-ranged rings pay a
step or two.  The report then reads every length off the table at those
depths.  Sites whose nearest-neighbour correlator is already negligible
are flagged ``uncorrelated`` (length 0); sites where no crossing occurs
within the probed range are flagged ``saturated`` and get the range
itself as their length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fermion import QuasiparticleSolution, Sector, ground_sector
from .model import ChainSpec, EffectiveField, ModeSet, effective_field

__all__ = [
    "CorrelationReport",
    "pair_contractions",
    "yy_correlation",
    "yy_table",
    "correlation_report",
]

_NEGLIGIBLE = 1e-12
_LOG_FLOOR = 1e-300
_PIVOT_BAR = 1e-5
_FIRST_WIDTH = 8


def pair_contractions(sol: QuasiparticleSolution) -> np.ndarray:
    """Majorana contraction matrix ``G`` of the solution's vacuum.

    On a ring that repeats every ``M = sol.period`` sites only the first
    M rows are multiplied out; the rest follow, exactly, from translating
    both indices by M, which wraps an index across the seam with the
    sector's twist ``tau`` (-1 even, +1 odd):
    ``G[(x + M) % N, (y + M) % N] = sigma(x) sigma(y) G[x, y]`` with
    ``sigma(x) = tau`` when ``x + M >= N`` and 1 otherwise.  This holds for
    zero modes too, because :func:`~cavising.fermion.solve_quasiparticles`
    gives both real pairs of a complex mode one relative sign.
    """
    N, M = sol.N, sol.period
    first = -(sol.Psi[:, :M].T @ sol.Phi)
    if M == N:
        return first
    tau = -1.0 if sol.sector is Sector.EVEN else 1.0
    G = np.empty((N, N))
    for shift in range(0, N, M):
        # rows shift + i: column y + shift, wrapped past N with the twist
        G[shift : shift + M, shift:] = first[:, : N - shift]
        G[shift : shift + M, :shift] = tau * first[:, N - shift :]
    return G


def yy_correlation(G: np.ndarray, j: int, n: int) -> float:
    """Two-point correlator ``<sy_j sy_{j+n}>`` with ``1 <= n <= N-1``.

    ``G`` must come from an even-sector solution; pairs that wrap the
    seam (``j % N + n >= N``) carry the antiperiodic minus sign.  One
    determinant per call: the reference for the batched table, and its
    fallback.
    """
    N = G.shape[0]
    if not 1 <= n <= N - 1:
        raise ValueError(f"separation must be in [1, {N - 1}], got {n}")
    j = j % N
    rows = (j + np.arange(n)) % N
    cols = (j + 1 + np.arange(n)) % N
    seam = -1.0 if j + n >= N else 1.0
    return float(seam * np.linalg.det(G[np.ix_(rows, cols)]))


def yy_table(G: np.ndarray, n_max: int) -> dict[tuple[int, int], float]:
    """Dense table ``{(j, n): rho}`` for all sites and ``n = 1 .. n_max``.

    The full batched elimination, without the early stop of the report.
    """
    return _as_dict(_window_minors(G, n_max)[0])


def _as_dict(R: np.ndarray) -> dict[tuple[int, int], float]:
    N, depth = R.shape
    keys = ((j, n) for j in range(N) for n in range(1, depth + 1))
    return dict(zip(keys, R.ravel().tolist()))


def _window_minors(
    G: np.ndarray, n_max: int, stop_early: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Table ``R[s, n - 1] = rho(s, n)`` of every window minor up to ``n_max``.

    One pivot-free elimination runs on the windows of one period of ``G``
    at once (:func:`_twisted_period`, all ``N`` when it has none), one step
    per ``n``; the running product of the pivots is each window's leading
    minor, and the other periods' rows are copies.  A window whose pivot
    falls below ``_PIVOT_BAR`` in size takes the rest of its row from
    :func:`yy_correlation`.

    Alongside the table come the closing depths of the ``2N`` decay-length
    walks, indexed as in :func:`_walk_reads`: a walk closes at the first
    depth ``k`` (column ``k`` of ``R``) where its ``|rho|`` falls to
    ``|rho(1)|/e`` or below, and at ``k = 0`` if ``|rho(1)|`` is already
    negligible; a walk open at every depth closes at ``min(n_max, N - 1)``.
    With ``stop_early`` the table ends at the first depth by which every
    walk has closed.  Widening the block as the walks go deeper leaves each
    entry's arithmetic as in the full run, so tables of any depth agree bit
    for bit where they overlap.
    """
    N = G.shape[0]
    M = _twisted_period(G)
    m = max(min(n_max, N - 1), 0)
    # H[a, b] = G[a, b + 1] padded periodically: window s is the diagonal
    # block P[s:s + m, s:s + m]; columns[c, i, s] is its entry (i, c)
    P = np.pad(np.roll(G, -1, axis=1), ((0, m), (0, m)), mode="wrap")
    rs, cs = P.strides
    columns = np.lib.stride_tricks.as_strided(P, shape=(m, m, M), strides=(cs, rs, rs + cs))

    R = np.empty((N, m))
    sites = np.arange(M)
    walks = np.arange(2 * N)
    depth = np.zeros(2 * N, dtype=int)
    minor = np.ones(M)
    broken = np.zeros(M, dtype=bool)
    A = np.empty((m, m, M))  # eliminated in place; columns are copied in as needed
    width = 0
    for k in range(m):
        if k == width:
            # early walks read few columns: start narrow, double, and catch
            # the new columns up with the steps already taken
            done, width = width, min(m, max(2 * width, _FIRST_WIDTH)) if stop_early else m
            A[done:width] = columns[done:width]
            for t in range(done):
                _eliminate(A[:width], t, broken, done)
        pivot = A[k, k]
        broken |= np.abs(pivot) <= _PIVOT_BAR
        minor *= np.where(broken, 1.0, pivot)
        row = np.where(sites + k + 1 >= N, -minor, minor)  # the seam sign
        for s in np.flatnonzero(broken):
            row[s] = yy_correlation(G, s, k + 1)
        R[:, k] = np.tile(row, N // M)
        # the crossing rule: a walk stays open while |rho| exceeds its target
        r = _walk_reads(R, walks, k)
        if k == 0:
            target = r / math.e
            open_ = r > _NEGLIGIBLE
        else:
            open_ &= r > target
        depth += open_
        if stop_early and not open_.any():
            return R[:, : k + 1], depth
        _eliminate(A[:width], k, broken, k + 1)
    return R, depth


def _twisted_period(G: np.ndarray) -> int:
    """Smallest M dividing N with ``G[(x + M) % N, (y + M) % N] = sigma(x) sigma(y) G[x, y]``.

    Exactly, entry for entry, with ``sigma(x) = -1`` when ``x + M >= N``:
    the even-sector translation that :func:`pair_contractions` builds in.
    The windows starting at ``s + M`` are then ``D W_s D'`` with diagonal
    +-1 matrices whose sign flips are exact and cancel against the seam
    sign, so their minors repeat those of ``W_s`` bit for bit.
    """
    N = G.shape[0]
    for M in range(1, N // 2 + 1):
        # the first entry rules out most candidates before a whole comparison
        if N % M == 0 and G[M, M] == G[0, 0]:
            sigma = np.where(np.arange(N) + M >= N, -1.0, 1.0)
            if np.array_equal(np.roll(G, (-M, -M), axis=(0, 1)), sigma[:, None] * G * sigma):
                return M
    return N


def _walk_reads(R: np.ndarray, walks: np.ndarray, k) -> np.ndarray:
    """``|rho|`` that the given walks read at depth ``k`` (column ``k`` of ``R``).

    Walk ``j < N`` runs rightward from site ``j`` and reads window ``j``;
    walk ``N + j`` runs leftward from site ``j`` and reads window ``j - k - 1``.
    """
    N = R.shape[0]
    return np.abs(R[(walks - (walks >= N) * (k + 1)) % N, k])


def _eliminate(A: np.ndarray, t: int, broken: np.ndarray, first: int) -> None:
    """Step ``t`` of the elimination on the columns from ``first`` on, in place.

    One column at a time keeps the temporaries at one column of every
    window.  Broken windows keep their entries.
    """
    mult = np.where(broken, 0.0, A[t, t + 1 :] / np.where(broken, 1.0, A[t, t]))
    for c in range(first, len(A)):
        A[c, t + 1 :] -= mult * A[c, t]


@dataclass(frozen=True)
class CorrelationReport:
    """Site-resolved observables of one ground-state solution.

    ``rho`` holds every window minor the decay-length walks read, keyed by
    ``(j, n)`` with ``j`` already reduced mod N: all sites, for ``n`` up to
    the depth at which the last walk closed.  Its values equal
    :func:`yy_table`'s bit for bit; use that for an exhaustive grid.
    ``xi_r``/``flags_r`` and ``xi_l``/``flags_l`` are the rightward and
    leftward decay lengths and their flags (``ok``, ``uncorrelated`` or
    ``saturated``), computed from ``rho`` and the walks' closing depths;
    ``xi_rl`` is their mean.
    """

    G: np.ndarray
    sigma_z_rot: np.ndarray
    sigma_z_lab: np.ndarray
    sigma_x_lab: np.ndarray
    rho: dict
    xi_r: np.ndarray
    xi_l: np.ndarray
    xi_rl: np.ndarray
    flags_r: tuple
    flags_l: tuple
    n_max: int
    field: EffectiveField = dc_field(repr=False, default=None)
    solution: QuasiparticleSolution = dc_field(repr=False, default=None)

    @property
    def N(self) -> int:
        return self.G.shape[0]


def correlation_report(
    chain: ChainSpec,
    modeset: ModeSet,
    phi,
    *,
    n_max: int | None = None,
    solution: QuasiparticleSolution | None = None,
) -> CorrelationReport:
    """Solve the chain at mode amplitudes ``phi`` and measure everything.

    ``n_max`` defaults to ``N // 2``; pass a smaller value, at least 1, to
    cap the window sizes when only coarse length information is needed.  A
    pre-computed ``solution`` short-circuits the fermion solve.
    """
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    fld = effective_field(chain, modeset, phi)
    if solution is None:
        solution = ground_sector(fld, chain.bonds())
    if solution.sector is not Sector.EVEN:
        raise ValueError("string correlators are defined on the even-sector solution")
    N = chain.N
    n_max = min(max(N // 2, 1) if n_max is None else n_max, N - 1)

    G = pair_contractions(solution)
    sz_rot = -np.diag(G).copy()
    sz_lab = np.cos(fld.theta) * sz_rot
    sx_lab = np.sin(fld.theta) * sz_rot

    R, depth = _window_minors(G, n_max, stop_early=True)
    # a walk that closed at depth k in [1, n_max) crossed rho(1)/e between
    # n = k and n = k + 1: interpolate on a log scale.  math.log, not np.log,
    # which differs from it in the last bit on rare inputs
    crossed = np.flatnonzero((depth > 0) & (depth < n_max))
    k = depth[crossed]
    r_prev = _walk_reads(R, crossed, k - 1)
    target = _walk_reads(R, crossed, np.zeros_like(k)) / math.e
    r = np.maximum(_walk_reads(R, crossed, k), _LOG_FLOOR)
    log_prev, log_target, log_r = (
        np.array([math.log(x) for x in v.tolist()]) for v in (r_prev, target, r)
    )
    xi = np.where(depth == 0, 0.0, float(n_max))
    xi[crossed] = k + (log_prev - log_target) / (log_prev - log_r)
    flags = np.where(depth == 0, "uncorrelated", np.where(depth == n_max, "saturated", "ok"))
    xi_r, xi_l = xi[:N], xi[N:]
    xi_rl = 0.5 * (xi_r + xi_l)

    for a in (G, sz_rot, sz_lab, sx_lab, xi_r, xi_l, xi_rl):
        a.setflags(write=False)
    return CorrelationReport(
        G=G,
        sigma_z_rot=sz_rot,
        sigma_z_lab=sz_lab,
        sigma_x_lab=sx_lab,
        rho=_as_dict(R),
        xi_r=xi_r,
        xi_l=xi_l,
        xi_rl=xi_rl,
        flags_r=tuple(flags[:N].tolist()),
        flags_l=tuple(flags[N:].tolist()),
        n_max=n_max,
        field=fld,
        solution=solution,
    )

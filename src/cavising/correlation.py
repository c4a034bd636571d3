"""Ground-state observables of the rotated chain via Wick contractions.

All correlators reduce to the single contraction matrix

    G_ij = <D_i C_j> = -W_ji,

where ``C_j = c_j^dag + c_j`` and ``D_j = c_j^dag - c_j`` are the
position-space Majorana pairs and ``W`` is the orthogonal polar factor
of ``T``; the full solve returns it as
:attr:`~cavising.fermion.QuasiparticleSolution.G`, in the vacuum whose
parity ``det W`` is the sign of ``det T``.  The local rotated
polarization is the solution's ``sigma_z = -G_jj`` and the two-point
function ``rho(j, n) = <sy_j sy_{j+n}>`` is an ``n x n`` determinant of a
block of ``G`` with periodically wrapped indices; a block that crosses
the seam picks up an overall minus sign from the antiperiodicity of the
even-sector solution.  Both the block orientation and the seam sign were
pinned against brute-force diagonalization, and they hold for the
even-sector vacuum only, which is the sector the ground-state pipeline
always produces.

The blocks are windows of one matrix.  With ``H[a, b] = G[a, b + 1]``
(indices mod N), ``rho(j, n) = seam * det H[j:j+n, j:j+n]``: the ``n``-th
leading principal minor of the window of ``H`` that starts at site ``j``.
The leftward correlator ``rho(j - n, n)`` is the same kind of minor, of the
window that starts at ``j - n``.  So one table ``R[s, n - 1]`` of leading
minors, one row per window start ``s``, serves every correlator.  It comes
from one pivot-free LU of many windows at once, by panels of a few columns:
within a panel, one rank-1 step per column of every window; each later
panel first takes one batched matrix product per earlier panel, window by
window.  The running product of the pivots is the ``n``-th leading minor
of each window.  On a ring whose field and bonds repeat every M sites,
the solve builds ``G`` exactly twisted-periodic, so the windows of one
period are eliminated and the others' rows copied: a window M sites on
is the same one up to exact sign flips that cancel against the seam
sign.  ``G`` is orthogonal, so its entries are at most 1 in size; a pivot far below that has lost its
digits to cancellation (a minor that vanishes exactly comes out as
rounding noise), and its window takes the rest of its row from
:func:`yy_correlation`, LAPACK's pivoted LU determinant.

The LU keeps each window's multipliers, about half its entries: ``4 m^2``
bytes for windows of ``m`` columns, which would be 256 MB for the 400
windows of ``m = 400`` on an N = 800 ring of period 400.  So the windows
are eliminated in chunks of consecutive starts, each small enough that
its multipliers fit ``_CHUNK_BYTES`` (16 MB), one chunk after another;
a window's arithmetic does not depend on which others share its chunk,
so the table is the same bit for bit.  With its solve, that N = 800
report grows the peak memory by about 30 MB where all windows at once
took 300 MB (one BLAS thread on a 2-core x86 VM).  A report whose
multipliers fit the budget, as every shipped config's does, is one chunk.

Each site has a rightward and a leftward decay length: how far ``|rho|``
walks outward before it falls to ``|rho(1)|/e``, with the crossing
interpolated on a log scale.  The walks advance with the elimination,
one depth at a time, and a walk's length is fixed the moment it closes;
one still open at depth ``d`` will end somewhere in ``[d, n_max]``.  The
caller says when to stop: a report stops at the first depth by which
every walk has closed, so short-ranged rings pay a step or two, and a
magnetic label (:mod:`~cavising.phases`) stops as soon as those bounds
fix it.  A panel is eliminated only once a walk reaches it.  A chunk can
read only its own windows' rightward walks, so it runs until those
close; the stop rule is then read off the whole table, and the chunks go
deeper again, to twice the depth, while it does not hold.  Sites whose
nearest-neighbour correlator is already negligible are flagged
``uncorrelated`` (length 0); sites where no crossing occurs within the
probed range are flagged ``saturated`` and get the range itself as their
length.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache

import numpy as np

from .fermion import QuasiparticleSolution, Sector, _tile_twisted, ground_sector
from .model import ChainSpec, EffectiveField, ModeSet, effective_field

__all__ = [
    "CorrelationReport",
    "yy_correlation",
    "yy_table",
    "correlation_report",
]

_NEGLIGIBLE = 1e-12
_LOG_FLOOR = 1e-300
_PIVOT_BAR = 1e-5
_PANEL = 8
_CHUNK_BYTES = 16 * 2**20


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


def _check_n_max(n_max: int | None) -> None:
    """Raise ``ValueError`` unless ``n_max`` is unset or probes at least one separation."""
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")


def yy_table(G: np.ndarray, n_max: int) -> dict[tuple[int, int], float]:
    """Dense table ``{(j, n): rho}`` for all sites and ``n = 1 .. n_max``.

    The full batched elimination, without the early stop of the report,
    over one period of ``G`` as :func:`_twisted_period` finds it.
    """
    return _as_dict(_yy_minors(G, n_max))


def _yy_minors(G: np.ndarray, n_max: int) -> np.ndarray:
    """:func:`yy_table`'s values as the table ``R[j, n - 1] = rho(j, n)``."""
    _check_n_max(n_max)
    return _window_minors(G, n_max, _twisted_period(G))[0]


def _as_dict(R: np.ndarray) -> dict[tuple[int, int], float]:
    """``{(j, n): R[j, n - 1]}`` in row order."""
    keys = itertools.chain.from_iterable(_key_rows(*R.shape))
    return dict(zip(keys, R.ravel().tolist()))


@lru_cache(maxsize=4)
def _key_rows(N: int, n_max: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row ``j`` holds the keys ``(j, 1) .. (j, n_max)``, shared by every table of that size."""
    return tuple(tuple((j, n) for n in range(1, n_max + 1)) for j in range(N))


def _window_minors(G: np.ndarray, n_max: int, M: int, stop=None) -> tuple[np.ndarray, _Walks]:
    """Table ``R[s, n - 1] = rho(s, n)`` of every window minor up to ``n_max``.

    ``M`` is a twisted period of ``G`` as :func:`_twisted_period` defines it
    (``N`` when it has none), from the caller, who knows how ``G`` was built.
    :func:`_pivots` eliminates the windows of one period by panels of
    ``_PANEL`` columns; the running product of the pivots is each window's
    leading minor, and the other periods' rows are copies.  A window whose
    pivot falls below ``_PIVOT_BAR`` in size takes the rest of its row from
    :func:`yy_correlation`.

    Alongside the table come the ``2N`` decay-length walks of
    :class:`_Walks`, indexed as in :func:`_walk_reads`, at the table's last
    depth.  ``stop(walks)``, when given, is asked after each depth of the
    whole table, and the table ends at the first depth at which it holds;
    :func:`_all_closed` is the report's rule.  Without it the table runs to
    ``min(n_max, N - 1)``.

    The windows are eliminated in chunks of consecutive starts, as many as
    keep their multipliers within ``_CHUNK_BYTES``, one chunk after
    another.  A chunk that holds every window is eliminated in lockstep
    with the walks.  Otherwise a chunk reads only its own rightward walks:
    it stops once they have closed and it is as deep as every chunk before
    it, and the chunks it stopped short of are eliminated again to the
    common depth.  The stop rule reads across chunks, so it is asked on the
    common-depth table; while it does not hold there, every chunk is
    eliminated again to twice the depth.  The panels and their products
    are fixed by ``n_max`` alone, so tables of one ``n_max`` agree bit for
    bit whatever the stop rule, where they overlap, and whatever the chunks.
    """
    N = G.shape[0]
    m = max(min(n_max, N - 1), 0)
    R = np.empty((N, m))
    periods = R.reshape(N // M, M, m)  # R[c M + s] = periods[c, s]
    width = max(_CHUNK_BYTES // max(_window_bytes(m), 1), 1)
    walks = np.arange(2 * N)
    if width >= M:  # one chunk, in lockstep with every walk
        state = _Walks(R, walks)
        for k in _eliminate(G, periods, range(M)):
            state.step(k)
            if stop is not None and stop(state):
                return R[:, : k + 1].copy(), state  # not a view that keeps all m columns
        return R, state
    chunks = [range(a, min(a + width, M)) for a in range(0, M, width)]
    d = 0 if stop is not None else m  # no chunk stops short of d columns
    reached = []
    for starts in chunks:
        state = _Walks(R, walks[starts.start : starts.stop])  # the chunk's rightward walks
        for k in _eliminate(G, periods, starts):
            state.step(k)
            if _all_closed(state) and k + 1 >= d:
                break
        reached.append(k + 1)
        d = max(d, k + 1)
    while True:
        for starts, r in zip(chunks, reached):
            if r < d:
                for _ in itertools.islice(_eliminate(G, periods, starts), d):
                    pass
        state = _Walks(R, walks)
        for k in range(d):
            state.step(k)
            if stop is not None and stop(state):
                return R[:, : k + 1].copy(), state
        if d == m:
            return R, state
        d, reached = min(2 * d, m), [0] * len(chunks)


def _window_bytes(m: int) -> int:
    """Bytes of the multipliers :func:`_pivots` keeps for one window of ``m`` columns."""
    return 4 * m * (m + _PANEL)


class _Walks:
    """Decay-length walks advanced one depth at a time by the crossing rule.

    A walk stays open while ``|rho|`` exceeds ``|rho(1)|/e`` and ``|rho(1)|``
    is not negligible; ``depth`` counts the depths at which each was open,
    and ``read`` the depths read.  A walk that closed at depth 0 has length
    0; one that closed later crossed ``|rho(1)|/e`` between its last two
    reads, and its length, its depth plus the crossing interpolated on a log
    scale, lies in ``(depth, depth + 1]``.  A walk still open after ``d``
    depths ends in ``[d, m]`` for a table of ``m`` columns, at ``m`` if it
    never closes.
    """

    def __init__(self, R: np.ndarray, walks: np.ndarray):
        self.R, self.walks = R, walks
        self.depth = np.zeros(walks.size, dtype=int)
        self.open = np.ones(walks.size, dtype=bool)
        self.read = 0
        self.xi = np.zeros(walks.size)
        self._fixed = np.zeros(walks.size, dtype=bool)  # closed, and xi holds the length

    def step(self, k: int) -> None:
        """Read column ``k`` of the table."""
        r = _walk_reads(self.R, self.walks, k)
        if k == 0:
            self.target = r / math.e
            self.open = r > _NEGLIGIBLE
        else:
            self.open &= r > self.target
        self.depth += self.open
        self.read = k + 1

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Least and greatest length each walk can end with: its own once it has closed,
        and both the same once every depth of the table has been read.

        A closed walk's length is computed once, here, from the table's reads
        at its last two depths; ``math.log``, not ``np.log``, which differs
        from it in the last bit on rare inputs.
        """
        closed = np.flatnonzero(~self.open & ~self._fixed)
        self._fixed[closed] = True
        closed = closed[self.depth[closed] > 0]
        if closed.size:
            k, walks = self.depth[closed], self.walks[closed]
            r_prev = _walk_reads(self.R, walks, k - 1)
            r = np.maximum(_walk_reads(self.R, walks, k), _LOG_FLOOR)
            log_prev, log_target, log_r = (
                np.array([math.log(x) for x in v.tolist()])
                for v in (r_prev, self.target[closed], r)
            )
            self.xi[closed] = k + (log_prev - log_target) / (log_prev - log_r)
        m = float(self.R.shape[1])
        return np.where(self.open, float(self.read), self.xi), np.where(self.open, m, self.xi)


def _all_closed(walks: _Walks) -> bool:
    """A report's stop rule: every walk has closed."""
    return not walks.open.any()


def _eliminate(G: np.ndarray, periods: np.ndarray, starts: range):
    """Fill the table's rows of the windows at ``starts`` in every period, a column per step.

    Yields ``k`` once column ``k`` is written: the running product of the
    pivots, with the seam sign of the windows that wrap past site ``N - 1``,
    and :func:`yy_correlation` for a broken window.
    """
    N = G.shape[0]
    m = periods.shape[2]
    minor = np.ones(len(starts))
    for k, (pivot, broken) in enumerate(_pivots(G, m, starts)):
        minor *= np.where(broken, 1.0, pivot)
        row = minor.copy()
        row[max(N - k - 1 - starts.start, 0) :] *= -1.0
        for i in np.flatnonzero(broken):
            row[i] = yy_correlation(G, starts[i], k + 1)
        periods[:, starts.start : starts.stop, k] = row
        yield k


def _pivots(G: np.ndarray, m: int, starts: range):
    """Pivots of the pivot-free LU of the ``m x m`` windows of ``H`` starting at ``starts``.

    Yields ``(pivot, broken)`` for ``k = 0 .. m - 1``: the ``k``-th pivot of
    every window, and which windows have had a pivot at or below
    ``_PIVOT_BAR`` in size by then.  A broken window gets zero multipliers
    from that step on, so its entries stop changing.  Both arrays are the
    generator's own, valid until it is resumed.

    The windows are eliminated by panels of ``_PANEL`` columns, a panel
    only when the caller asks for its first pivot.  A panel first takes the
    updates of the panels before it: each one's rank-1 steps on its own
    rows, then one batched product of each window's multipliers below it
    with those rows.  The panel is then factored by rank-1 steps, one per
    pivot, and kept, its multipliers below it laid out window by window for
    the products of later panels.  Every window's arithmetic depends on
    ``m`` and its own entries only, so any set of windows gives each of them
    the same pivots bit for bit.  The multipliers kept grow with the depth
    reached, to :func:`_window_bytes` per window at full depth, about half
    of its entries; beside them are two panels of temporaries and the
    ``len(starts) + m - 1`` square of ``H`` that the windows read.
    """
    N = G.shape[0]
    M = len(starts)
    # H[a, b] = G[a, b + 1] on the sites the windows read: window starts[s]
    # is the diagonal block P[s:s + m, s:s + m]; columns[c, i, s] is its entry (i, c)
    sites = np.arange(starts.start, starts.stop + m - 1) % N
    P = G[np.ix_(sites, (sites + 1) % N)]
    rs, cs = P.strides
    columns = np.lib.stride_tricks.as_strided(P, shape=(m, m, M), strides=(cs, rs, rs + cs))
    broken = np.zeros(M, dtype=bool)
    work = np.empty(_PANEL * m * M)  # each temporary is at most one panel
    factored = []  # (q0, q1, diagonal block in [c, i, s], multipliers below in [s, i, c])
    for p0 in range(0, m, _PANEL):
        p1 = min(p0 + _PANEL, m)
        X = np.array(columns[p0:p1], order="C")  # X[c - p0, i, s]
        for q0, q1, D, L in factored:
            for t in range(q0, q1 - 1):
                step = _view(work, p1 - p0, q1 - t - 1, M)
                np.multiply(D[t - q0, t + 1 - q0 :], X[:, t, None], out=step)
                X[:, t + 1 : q1] -= step
            # Z[i, s, c]: each window's product is a slice BLAS can write,
            # and the subtraction reads Z one row i, all windows, at a time
            Z = _view(work, m - q1, M, p1 - p0)
            U = np.ascontiguousarray(X[:, q0:q1].transpose(2, 1, 0))
            np.matmul(L, U, out=Z.transpose(1, 0, 2))
            below = X[:, q1:].transpose(1, 0, 2)
            np.subtract(below, Z.transpose(0, 2, 1), out=below)
        for k in range(p0, p1):
            c = k - p0
            pivot = X[c, k]
            broken |= np.abs(pivot) <= _PIVOT_BAR
            yield pivot, broken
            mult = X[c, k + 1 :]
            if broken.any():
                mult[:] = np.where(broken, 0.0, mult / np.where(broken, 1.0, pivot))
            else:
                mult /= pivot
            step = _view(work, p1 - k - 1, m - k - 1, M)
            np.multiply(mult, X[c + 1 :, k, None], out=step)
            X[c + 1 :, k + 1 :] -= step
        if p1 < m:
            factored.append(
                (p0, p1, X[:, p0:p1].copy(), np.ascontiguousarray(X[:, p1:].transpose(2, 1, 0)))
            )


def _view(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """A C-contiguous array of ``shape`` on the front of a flat ``buffer``."""
    return buffer[: math.prod(shape)].reshape(shape)


def _twisted_period(G: np.ndarray) -> int:
    """Smallest M dividing N with ``G[(x + M) % N, (y + M) % N] = sigma(x) sigma(y) G[x, y]``.

    Exactly, entry for entry, with ``sigma(x) = -1`` when ``x + M >= N``:
    the even-sector translation that the full solve builds into ``G``, so
    ``G`` is its first M rows tiled as the solve tiles them.
    The windows starting at ``s + M`` are then ``D W_s D'`` with diagonal
    +-1 matrices whose sign flips are exact and cancel against the seam
    sign, so their minors repeat those of ``W_s`` bit for bit.  This search
    is for a ``G`` from outside, in :func:`yy_table`; a report knows its
    period as ``solution.period``.
    """
    N = G.shape[0]
    for M in range(1, N // 2 + 1):
        # the first entry rules out most candidates before a whole comparison
        if N % M == 0 and G[M, M] == G[0, 0]:
            if np.array_equal(_tile_twisted(G[:M], Sector.EVEN.tau), G):
                return M
    return N


def _walk_reads(R: np.ndarray, walks: np.ndarray, k) -> np.ndarray:
    """``|rho|`` that the given walks read at depth ``k`` (column ``k`` of ``R``).

    Walk ``j < N`` runs rightward from site ``j`` and reads window ``j``;
    walk ``N + j`` runs leftward from site ``j`` and reads window ``j - k - 1``.
    """
    N = R.shape[0]
    return np.abs(R[(walks - (walks >= N) * (k + 1)) % N, k])


@dataclass(frozen=True)
class CorrelationReport:
    """Site-resolved observables of one ground-state solution.

    ``minors`` is the read-only table ``minors[j, n - 1] = rho(j, n)`` of
    every window minor the decay-length walks read: all sites, for ``n`` up
    to the depth at which the last walk closed.  ``rho`` holds the same
    values as a dict keyed by ``(j, n)``, with ``j`` already reduced mod N,
    in row order; it is built on first read, so a caller that needs only
    the lengths never pays for it.  Both equal :func:`yy_table`'s values
    bit for bit; use that for an exhaustive grid.  ``xi_r``/``flags_r``
    and ``xi_l``/``flags_l`` are the rightward and leftward decay lengths
    and their flags (``ok``, ``uncorrelated`` or ``saturated``), computed
    from the table and the walks' closing depths; ``xi_rl`` is their mean.
    """

    G: np.ndarray
    sigma_z_rot: np.ndarray
    sigma_z_lab: np.ndarray
    sigma_x_lab: np.ndarray
    minors: np.ndarray
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

    @cached_property
    def rho(self) -> dict[tuple[int, int], float]:
        return _as_dict(self.minors)


def _ground_state(chain: ChainSpec, modeset: ModeSet, phi, n_max, solution):
    """What a report reads: the field at ``phi``, the even-sector solution (``solution``
    when given, else solved) and ``n_max`` resolved to ``min(n_max or max(N // 2, 1), N - 1)``.

    Raises ``ValueError`` on an ``n_max`` below 1, a ``solution`` of another
    ring size (before any work) or one in the odd sector.
    """
    _check_n_max(n_max)
    if solution is not None and solution.N != chain.N:
        raise ValueError(f"solution has N = {solution.N} sites but the chain has N = {chain.N}")
    fld = effective_field(chain, modeset, phi)
    if solution is None:
        solution = ground_sector(fld, chain.bonds())
    if solution.sector is not Sector.EVEN:
        raise ValueError("string correlators are defined on the even-sector solution")
    N = chain.N
    return fld, solution, min(max(N // 2, 1) if n_max is None else n_max, N - 1)


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
    pre-computed ``solution`` of the same field short-circuits the fermion
    solve; one of another ring size is refused before any work.
    """
    fld, solution, n_max = _ground_state(chain, modeset, phi, n_max, solution)
    N = chain.N
    G = solution.G
    sz_rot = solution.sigma_z
    sz_lab = np.cos(fld.theta) * sz_rot
    sx_lab = np.sin(fld.theta) * sz_rot

    R, walks = _window_minors(G, n_max, solution.period, stop=_all_closed)
    xi, _ = walks.bounds()  # every walk has closed or saturated: the bounds meet
    depth = walks.depth
    flags = np.where(depth == 0, "uncorrelated", np.where(depth == n_max, "saturated", "ok"))
    xi_r, xi_l = xi[:N], xi[N:]
    xi_rl = 0.5 * (xi_r + xi_l)

    for a in (G, sz_rot, sz_lab, sx_lab, R, xi_r, xi_l, xi_rl):
        a.setflags(write=False)
    return CorrelationReport(
        G=G,
        sigma_z_rot=sz_rot,
        sigma_z_lab=sz_lab,
        sigma_x_lab=sx_lab,
        minors=R,
        xi_r=xi_r,
        xi_l=xi_l,
        xi_rl=xi_rl,
        flags_r=tuple(flags[:N].tolist()),
        flags_l=tuple(flags[N:].tolist()),
        n_max=n_max,
        field=fld,
        solution=solution,
    )

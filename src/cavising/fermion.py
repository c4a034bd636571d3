"""Free-fermion solution of the rotated inhomogeneous chain.

The rotated spin Hamiltonian

    H = -sum_j Omega(j) s^z_j - sum_j J(j) s^y_j s^y_{j+1}

maps under a Jordan-Wigner transformation to a quadratic fermion form
with a symmetric hopping matrix ``A`` and an antisymmetric pairing
matrix ``B``.  Only their sum enters, and it is sparse: ``T = A + B`` is
a cycle twisted by the fermion-parity sector,

    T[j, j] = Omega(j),   T[j+1, j] = -J(j),   T[0, N-1] = -tau J(N-1),

so :class:`QuadraticForm` stores just the diagonal, the bond band
``w = -J`` and the sector (``A`` is ``(T + T^T) / 2`` and ``B`` is
``(T - T^T) / 2``).  The string operator turns the bond that closes the
ring into a boundary term whose sign depends on the sector: the twist
``tau`` is ``-1`` in the even sector (antiperiodic fermions, corner
``+J(N-1)``) and ``+1`` in the odd sector (periodic fermions, corner
``-J(N-1)``).  With ``Omega > 0`` and ``J >= 0``, as the model builds
them, the ground state is the even sector's vacuum (:func:`ground_sector`).

Normalization: the physical single-quasiparticle energies are *twice*
the singular values of ``T``; at ``J = 0`` flipping one spin against its
field costs ``2 Omega(j)``, and the chain ground energy is
``-sum_j Omega(j)``.

The energy-only path (:func:`quasiparticle_energies`) first splits
``T`` by the ring's exact translation symmetry: when the field and the
bonds repeat q times around the ring, ``T`` is unitarily a sum of q
twisted blocks of N/q sites, and conjugate twists share a spectrum, so
about q/2 blocks of N/q sites are solved (a ring with no period is one
block).  Each block squares the problem for the bulk of its spectrum:
the eigenvalues of ``T_z^H T_z``, a Hermitian cycle folded into a band
of width 2, are the squared singular values, in O(M^2) for M sites and
with no dense array.  Squaring loses the relative accuracy of small
singular values, so a mode near zero (below a bar far under the top of
the block's spectrum) is taken instead from the block's determinant
over its other singular values, or, when there are several or the
determinant's two terms could cancel, as positive eigenvalues of the
block's Golub-Kahan 2M-cycle, folded the same way and resolved by
bisection for just those few.  The full solve
(:func:`solve_quasiparticles`) splits ``T`` the same way and takes one
stacked dense SVD of the blocks (a ring with no period is the one block
``T`` itself); the blocks' singular vectors, spread over the ring as Bloch
modes and split into real and imaginary parts, make the mode pairs
``(Phi_k, Psi_k)`` consistent by construction:

    Phi_k T   = (Lambda_k / 2) Psi_k
    Psi_k T^T = (Lambda_k / 2) Phi_k

(the left-singular vectors of ``T`` are the ``Phi_k`` and the
right-singular vectors the ``Psi_k``).  The orientation of the pair is
not a matter of taste: the string-correlator determinants downstream are
only valid for this one, and it was pinned by checking them against
brute-force diagonalization.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

__all__ = [
    "Sector",
    "SolverError",
    "QuadraticForm",
    "QuasiparticleSolution",
    "build_quadratic_form",
    "quasiparticle_energies",
    "solve_quasiparticles",
    "ground_sector",
]

_SIGN_EPS = 1e-12
# eigenvalues of T^T T below this fraction of the largest are recomputed from
# the Golub-Kahan fold: squaring leaves a singular value s an absolute error of
# about eps * s_max^2 / s, which above the bar stays near 1e-14 * s_max
_SQUARED_EPS = 1e-4
# a translation block shorter than this costs more in the call overhead of its
# banded eigensolve (~20 us) than it saves
_MIN_BLOCK = 8


class SolverError(RuntimeError):
    """Raised when the underlying factorization fails or loses consistency."""


class Sector(enum.Enum):
    EVEN = "even"
    ODD = "odd"

    @property
    def tau(self) -> float:
        """The twist at the seam: ``-1.0`` in the even sector, ``+1.0`` in the odd one."""
        return -1.0 if self is Sector.EVEN else 1.0


@dataclass(frozen=True)
class QuadraticForm:
    """The matrix ``T = A + B`` as a cycle twisted by the sector.

    ``diagonal[j] = T[j, j] = Omega(j)`` and ``bond_band[j] = w(j) =
    T[j+1, j] = -J(j)``; the last bond wraps the ring into ``T[0, N-1]
    = tau * w(N-1)``, so for ``N = 1`` it lands on the diagonal
    (:func:`build_quadratic_form` leaves it zero there, as a one-site
    ring has no bond).
    """

    diagonal: np.ndarray
    bond_band: np.ndarray
    sector: Sector

    def __post_init__(self) -> None:
        for name in ("diagonal", "bond_band"):
            band = np.array(getattr(self, name), dtype=float)
            band.setflags(write=False)
            object.__setattr__(self, name, band)
        if self.diagonal.ndim != 1 or self.diagonal.size == 0 or self.bond_band.shape != (self.N,):
            raise ValueError("need N >= 1 diagonal entries and N bond entries")

    @property
    def N(self) -> int:
        return self.diagonal.shape[0]

    @property
    def tau(self) -> float:
        """The sector's twist at the seam, :attr:`Sector.tau`."""
        return self.sector.tau

    @property
    def T(self) -> np.ndarray:
        """Dense ``N x N`` copy of ``T``."""
        return _block_matrix(self.diagonal, self.bond_band, self.tau)


@dataclass(frozen=True)
class QuasiparticleSolution:
    """Diagonalized quadratic form.

    Attributes
    ----------
    energies : np.ndarray
        Physical quasiparticle energies ``Lambda_k``, ascending and >= 0.
    Phi, Psi : np.ndarray
        Mode matrices with orthonormal rows, coupled through ``T`` as in
        the module docstring.
    sector : Sector
    ground_energy_chain : float
        Chain part of the ground energy in this sector's vacuum,
        ``-(1/2) sum_k Lambda_k``.
    period : int
        Sites M per translation block the solve used (``N`` for a ring
        with no period): the field and bonds repeat every M sites, and so
        do the modes' correlations, up to the sector's twist at the seam.
    """

    energies: np.ndarray
    Phi: np.ndarray
    Psi: np.ndarray
    sector: Sector
    ground_energy_chain: float
    period: int

    @property
    def N(self) -> int:
        return self.energies.shape[0]


def build_quadratic_form(field, bonds, sector: Sector = Sector.EVEN) -> QuadraticForm:
    """Assemble ``T`` for the given effective field and bond pattern.

    ``bonds[j]`` couples sites ``j`` and ``(j+1) % N`` and enters as
    ``w(j) = -bonds[j]``.  The bond that wraps the ring (``j = N-1``)
    lands in the corner ``T[0, N-1]`` with sign ``+`` in the even sector
    and ``-`` in the odd one.  For ``N = 2`` both bonds act on the same
    pair of sites, one below and one above the diagonal; ``N = 1`` has
    no bond.
    """
    N = field.N
    bonds = np.asarray(bonds, dtype=float)
    if bonds.shape != (N,):
        raise ValueError(f"expected {N} bond strengths, got shape {bonds.shape}")
    bond_band = -bonds if N >= 2 else np.zeros(1)
    return QuadraticForm(diagonal=field.Omega, bond_band=bond_band, sector=sector)


def quasiparticle_energies(form: QuadraticForm) -> np.ndarray:
    """Physical spectrum ``Lambda_k`` (ascending) without the mode matrices.

    This is the fast path for energy-only work.  ``T`` is the cycle of
    the bond band ``w`` twisted by ``tau``.  When ``Omega`` and ``w``
    repeat every M sites (the smallest such M of at least
    ``_MIN_BLOCK`` sites that divides N, else M = N), translation by M
    sites commutes with ``T`` and splits it unitarily into ``q = N / M``
    blocks ``T_z``, one per twist ``z^q = tau``: ``Omega[:M]`` on the
    diagonal, ``w[:M-1]`` below it and ``conj(z) w(M-1)`` in the corner.
    The spectrum is the union of the blocks' singular values, and a block
    and its conjugate share theirs, so half the blocks are solved.  A ring
    with no such period is one block, ``T`` itself.

    Within a block the bulk comes from the eigenvalues of ``T_z^H T_z``:
    an M-cycle with diagonal ``Omega(j)^2 + |off(j)|^2`` and edges
    ``off(j) Omega(j+1)``, where ``off`` is ``w[:M-1]`` followed by the
    corner, folded into a Hermitian band of width 2 in O(M^2).
    Eigenvalues below ``_SQUARED_EPS`` of the block's largest have lost
    their relative accuracy to the squaring.  A single one is recomputed
    as ``|det T_z|`` over the product of the other singular values, in
    O(M), when the two terms of the determinant cannot cancel; otherwise
    those ``k`` modes are the ``k`` smallest positive eigenvalues of the
    Golub-Kahan 2M-cycle with edge weights ``Omega(0), w(0), Omega(1),
    ..., w(M-2), Omega(M-1), conj(z) w(M-1)``, by bisection on the same
    fold.
    """
    N = form.N
    Om, w = form.diagonal, form.bond_band
    # an exact power-of-two scale keeps the squares clear of underflow and overflow
    scale = 2.0 ** np.frexp(max(np.max(np.abs(Om)), np.max(np.abs(w))))[1]
    Om, w = Om / scale, w / scale
    M = _translation_period(Om, w)
    parts = []
    for twist, paired in _twists(form.sector, N // M):
        s = _block_singular_values(Om[:M], w[:M], twist)
        parts.append(np.repeat(s, 2) if paired else s)
    return np.sort(2.0 * scale * np.concatenate(parts))


def _twists(sector: Sector, q: int):
    """The twists ``z = exp(i pi a / q)`` with ``z^q = tau``, one per conjugate pair.

    Odd ``a`` in the even sector (``tau = -1``), even ``a`` in the odd one,
    ``0 <= a <= q``.  Yields ``(z, paired)``: a paired twist is complex and
    stands for itself and its conjugate; ``z = +-1`` is real and alone.
    """
    for a in range(1 if sector is Sector.EVEN else 0, q + 1, 2):
        paired = 0 < a < q
        yield (np.exp(1j * np.pi * a / q) if paired else (1.0 if a == 0 else -1.0)), paired


def _translation_period(diagonal: np.ndarray, bonds: np.ndarray) -> int:
    """Smallest period M of both bands with ``_MIN_BLOCK <= M < N`` dividing N, else N."""
    N = diagonal.size
    for M in range(_MIN_BLOCK, N // 2 + 1):
        # the first site rules out most candidates before a whole-ring comparison
        if (
            N % M == 0
            and diagonal[M] == diagonal[0]
            and bonds[M] == bonds[0]
            and np.array_equal(diagonal[M:], diagonal[:-M])
            and np.array_equal(bonds[M:], bonds[:-M])
        ):
            return M
    return N


def _block_singular_values(Om: np.ndarray, w: np.ndarray, twist) -> np.ndarray:
    """Ascending singular values of the block ``T_z`` with ``z = twist``, ``|z| = 1``.

    ``Om`` is its diagonal, ``w[:-1]`` its subdiagonal and ``conj(z) w[-1]``
    its corner ``T_z[0, M-1]``; the block is real when ``z = +-1``.
    """
    M = Om.size
    corner = np.conj(twist) * w[-1]
    if M == 1:
        return np.array([abs(Om[0] + corner)])
    off = np.append(w[:-1], corner)
    ev = _cycle_eigvals(off * np.roll(Om, -1), Om**2 + np.abs(off) ** 2)
    s = np.sqrt(np.maximum(ev, 0.0))
    k = int(np.count_nonzero(ev < _SQUARED_EPS * ev[-1]))
    if k == 1:
        log_det = _log_abs_det(Om, w, twist)
        if log_det is not None:
            s[0] = np.exp(log_det - np.sum(np.log(s[1:])))
            return s
    if k:
        gk = np.empty(2 * M, dtype=off.dtype)
        gk[0::2] = Om
        gk[1::2] = off
        s[:k] = np.abs(_cycle_eigvals(gk, select_range=(M, M + k - 1)))
    return s


def _log_abs_det(Om: np.ndarray, w: np.ndarray, twist) -> float | None:
    """``log |det T_z|``, or ``None`` when its two terms may cancel.

    ``det T_z = A + B`` with ``A = prod(Om)`` and ``B = (-1)^(M+1) conj(z)
    prod(w)``.  Both come as logs, ``-inf`` for a zero factor.  The sum
    is trusted only when ``|det|^2 >= (|A|^2 + |B|^2) / 2``, so that it
    keeps the relative accuracy of its terms.
    """
    with np.errstate(divide="ignore"):
        log_a = np.sum(np.log(np.abs(Om)))
        log_b = np.sum(np.log(np.abs(w)))
    hi, lo = max(log_a, log_b), min(log_a, log_b)
    if hi == -np.inf:
        return -np.inf
    # cosine of the angle between A and B in the complex plane
    sign = np.prod(np.sign(Om)) * np.prod(np.sign(w)) * (-1.0) ** (Om.size + 1)
    cos = sign * np.real(twist)
    r = np.exp(lo - hi)
    rest = 1.0 + r * r + 2.0 * r * cos  # |det|^2 / max(|A|, |B|)^2
    if not rest >= 0.5 * (1.0 + r * r):
        return None
    return hi + 0.5 * np.log(rest)


def _cycle_eigvals(
    edge: np.ndarray, node: np.ndarray | None = None, select_range: tuple[int, int] | None = None
) -> np.ndarray:
    """Eigenvalues of a Hermitian n-cycle matrix ``H``, n >= 2, ascending.

    ``edge[i]`` is the entry ``H[(i + 1) % n, i]`` and ``node`` the real
    diagonal (zero when omitted); for ``n = 2`` the two edges land on
    the same entry, ``H[1, 0] = edge[0] + conj(edge[1])``.  Visiting the
    rows as ``0, n-1, 1, n-2, ...`` puts every edge within distance 2 of
    the diagonal, so the matrix folds into a Hermitian band of width 2;
    the edges of the back half and the wrap then sit above the diagonal
    of the fold and enter conjugated.  Real edges make a real band.  With
    ``select_range = (lo, hi)`` only the eigenvalues of those ascending
    indices are computed, by bisection.
    """
    n = edge.size
    m = (n + 1) // 2
    # lower band storage: band[d, i] holds the entry (i + d, i)
    band = np.zeros((3, n), dtype=edge.dtype)
    if node is not None:
        band[0, 0::2] = node[:m]
        band[0, 1::2] = node[: m - 1 : -1]
    band[2, 0 : 2 * m - 2 : 2] = edge[: m - 1]
    band[2, 1 : 2 * (n // 2) - 1 : 2] = np.conj(edge[n - 2 : m - 1 : -1])
    band[1, 0] = np.conj(edge[-1])
    # the fold, where the two halves of the cycle meet
    band[1, -2] += edge[m - 1] if n % 2 == 0 else np.conj(edge[m - 1])
    # LAPACK's band reduction loses digits to subnormal entries (2e-14 on a
    # complex band of unit scale); zeroing them moves no eigenvalue by more
    # than the smallest normal number
    band[np.abs(band) < np.finfo(float).tiny] = 0.0
    select = "a" if select_range is None else "i"
    try:
        return linalg.eigvals_banded(
            band, lower=True, overwrite_a_band=True, select=select, select_range=select_range
        )
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise SolverError("banded eigenvalue computation failed") from exc


def _leading_signs(rows: np.ndarray) -> np.ndarray:
    """``-1.0`` for each row whose first entry above ``_SIGN_EPS`` in size (its
    largest, if none is) is negative, else ``1.0``."""
    size = np.abs(rows)
    big = size > _SIGN_EPS
    lead = np.where(big.any(axis=1), big.argmax(axis=1), size.argmax(axis=1))
    return np.where(rows[np.arange(rows.shape[0]), lead] < 0, -1.0, 1.0)


def solve_quasiparticles(form: QuadraticForm) -> QuasiparticleSolution:
    """Full diagonalization: spectrum plus the ``Phi``/``Psi`` mode matrices.

    A ring whose bands repeat every M sites (the period of
    :func:`quasiparticle_energies`, ``q = N / M`` repeats) is solved by
    its translation blocks: one stacked SVD of the M x M blocks ``T_z``
    of one twist per conjugate pair, whose singular vectors make Bloch
    modes ``u[c M + i] = z^c U_z[i, k] / sqrt(q)`` (and ``v`` from
    ``V_z``).  A real twist ``z = +-1`` gives real modes as they stand; a
    complex one gives two real pairs of the same singular value,
    ``sqrt(2) Re`` and ``sqrt(2) Im`` of ``(u, v)``, which span the modes
    of ``z`` and its conjugate.  A ring with no period is the one block
    ``q = 1``, ``T`` itself, with the twist ``z = tau``.

    Modes are sorted ascending and their signs fixed deterministically:
    the first non-negligible entry of each ``Phi_k`` is made positive,
    flipping ``Psi_k`` along with it so the coupled relations survive.
    For (numerically) zero modes the relations no longer tie the pair
    together, so ``Psi_k`` gets the same rule applied independently;
    the two real pairs of one complex Bloch mode share the relative sign
    of ``Psi`` to ``Phi`` that this rule gives the first of them, so that
    their joint term in ``Psi^T Phi`` stays translation-invariant.  The
    relations and the orthogonality of the assembled ``Phi`` and ``Psi``
    are checked before anything is returned.  A mode counts as zero below
    ``1e-12``, and the relations may miss by ``1e-9``, of ``max(||T||_2,
    1)``: ``||T||_2`` is the largest singular value the SVD has already
    found, and the scale in which its backward error is stated.
    """
    # LAPACK may turn an inf into NaN output without reporting failure
    if not (np.isfinite(form.diagonal).all() and np.isfinite(form.bond_band).all()):
        raise SolverError("quadratic form has non-finite entries")
    N = form.N
    M = _translation_period(form.diagonal, form.bond_band)
    try:
        Phi, Psi, s, lead = _bloch_modes(form, M)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular value decomposition failed") from exc

    # independent sign fixing of a Phi/Psi pair is only safe when the
    # singular value is negligible: for any larger s it would desync the
    # pairing by 2s and fail the residual check below
    scale = max(s[-1], 1.0)
    zero_tol = 1e-12 * scale
    flip = _leading_signs(Phi)
    Phi *= flip[:, None]
    # relative sign of Psi_k to Phi_k, taken from the first row of its complex mode
    relative = np.where(s > zero_tol, 1.0, flip * _leading_signs(Psi))
    Psi *= (flip * relative[lead])[:, None]

    resid = max(
        np.max(np.abs(_times_T(Phi, form) - s[:, None] * Psi)),
        np.max(np.abs(_times_T(Psi, form, transpose=True) - s[:, None] * Phi)),
    )
    ortho = max(
        np.max(np.abs(Phi @ Phi.T - np.eye(N))),
        np.max(np.abs(Psi @ Psi.T - np.eye(N))),
    )
    if resid > 1e-9 * scale or ortho > 1e-10:
        raise SolverError(
            f"decomposition lost consistency (residual {resid:.3e}, orthogonality {ortho:.3e})"
        )

    Phi.setflags(write=False)
    Psi.setflags(write=False)
    energies = 2.0 * s
    energies.setflags(write=False)
    return QuasiparticleSolution(
        energies=energies,
        Phi=Phi,
        Psi=Psi,
        sector=form.sector,
        ground_energy_chain=-float(np.sum(s)),
        period=M,
    )


def _bloch_modes(form: QuadraticForm, M: int):
    """Mode matrices and ascending singular values of ``T`` from its blocks of M sites.

    Returns ``(Phi, Psi, s, lead)``: the real rows of the Bloch modes of
    every twist, sorted by their singular values, and for each row the row
    of its complex mode that comes first (itself for a real twist).
    ``M = N`` is the one block ``T_tau = T``: its rows are those of the
    dense SVD of ``T`` reversed.
    """
    N = form.N
    q = N // M
    Om, w = form.diagonal[:M], form.bond_band[:M]
    cells = np.arange(q)
    phis, psis, values, modes = [], [], [], []
    for paired in (False, True):
        zs = np.array([z for z, p in _twists(form.sector, q) if p is paired])
        if zs.size == 0:
            continue
        U, s, Vh = np.linalg.svd(np.stack([_block_matrix(Om, w, z) for z in zs]))
        # LAPACK's values come descending: reversed, the stable sort below
        # gives a one-block ring the rows of the dense SVD of T in ascending
        # order, tied values included
        U, s, Vh = U[:, :, ::-1], s[:, ::-1], Vh[:, ::-1]
        # row k of a Bloch mode: x[k, c M + i] = z^c X[i, k] / sqrt(q)
        phase = (zs[:, None] ** cells / math.sqrt(q))[:, None, :, None]
        u = (phase * np.swapaxes(U, 1, 2)[:, :, None, :]).reshape(-1, N)
        v = (phase * np.conj(Vh)[:, :, None, :]).reshape(-1, N)
        s = s.ravel()
        # one label per complex mode, shared by its two real rows
        mode = sum(x.size for x in modes) + np.arange(s.size)
        if paired:
            root2 = math.sqrt(2.0)
            u = np.concatenate([root2 * u.real, root2 * u.imag])
            v = np.concatenate([root2 * v.real, root2 * v.imag])
            s = np.concatenate([s, s])
            mode = np.concatenate([mode, mode])
        phis.append(u)
        psis.append(v)
        values.append(s)
        modes.append(mode)
    s = np.concatenate(values)
    order = np.argsort(s, kind="stable")
    mode = np.concatenate(modes)[order]
    first = np.full(mode.max() + 1, N)
    np.minimum.at(first, mode, np.arange(N))
    Phi, Psi = np.concatenate(phis)[order], np.concatenate(psis)[order]
    return Phi, Psi, s[order], first[mode]


def _block_matrix(Om: np.ndarray, w: np.ndarray, twist) -> np.ndarray:
    """Dense block ``T_z``: ``Om``, ``w[:-1]`` below it and ``conj(z) w[-1]`` in the corner."""
    M = Om.size
    T = np.diag(Om).astype(np.result_type(Om, twist))
    T[np.arange(1, M), np.arange(M - 1)] = w[:-1]
    T[0, M - 1] += np.conj(twist) * w[-1]
    return T


def _times_T(X: np.ndarray, form: QuadraticForm, transpose: bool = False) -> np.ndarray:
    """``X @ T`` (or ``X @ T^T``) from the bands of ``T``, in O(N) per row."""
    w = form.bond_band
    corner = form.tau * w[-1]
    out = X * form.diagonal
    if transpose:
        # (X T^T)[k, r] = Om(r) X[k, r] + T[r, r - 1] X[k, r - 1], and the corner at r = 0
        out[:, 1:] += X[:, :-1] * w[:-1]
        out[:, 0] += X[:, -1] * corner
    else:
        # (X T)[k, j] = Om(j) X[k, j] + T[j + 1, j] X[k, j + 1], and the corner at j = N - 1
        out[:, :-1] += X[:, 1:] * w[:-1]
        out[:, -1] += X[:, 0] * corner
    return out


def ground_sector(field, bonds) -> QuasiparticleSolution:
    """Solve the even sector, whose vacuum is the chain's ground state.

    This rests on ``Omega > 0`` on every site, which the model's rotated
    field always has (``Omega(j) >= E_z / 2``), and on ``J >= 0`` on
    every bond, which every Ising profile has.  In the ``s^y`` basis the
    Hamiltonian then has non-positive off-diagonal entries that connect
    all states, so by Perron-Frobenius its ground state is unique and
    parity-even; and ``det T = prod(Omega) + prod(J) > 0`` in the even
    sector, so the even vacuum carries that parity and is that state.
    """
    return solve_quasiparticles(build_quadratic_form(field, bonds, Sector.EVEN))

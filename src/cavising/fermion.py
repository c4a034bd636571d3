"""Free-fermion solution of the rotated inhomogeneous chain.

The rotated spin Hamiltonian

    H = -sum_j Omega(j) s^z_j - sum_j J(j) s^y_j s^y_{j+1}

maps under a Jordan-Wigner transformation to a quadratic fermion form
with a symmetric hopping matrix ``A`` and an antisymmetric pairing
matrix ``B``.  Only their sum enters, and it is sparse: ``T = A + B`` is
lower bidiagonal plus one corner,

    T[j, j] = Omega(j),   T[j+1, j] = -J(j),   T[0, N-1] = +-J(N-1),

so :class:`QuadraticForm` stores just those three bands (``A`` is
``(T + T^T) / 2`` and ``B`` is ``(T - T^T) / 2``).  The string operator
turns the bond that closes the ring into a boundary term whose sign
depends on the fermion-parity sector: the corner is ``+J(N-1)`` in the
even sector (antiperiodic fermions) and ``-J(N-1)`` in the odd sector
(periodic fermions).

Normalization: the physical single-quasiparticle energies are *twice*
the singular values of ``T``; at ``J = 0`` flipping one spin against its
field costs ``2 Omega(j)``, and the chain ground energy is
``-sum_j Omega(j)``.

The energy-only path (:func:`quasiparticle_energies`) squares the
problem for the bulk of the spectrum: the eigenvalues of ``T^T T``, a
symmetric N-cycle folded into a band of width 2, are the squared
singular values, in O(N^2) and with no N x N array.  Squaring loses the
relative accuracy of small singular values, so the modes near zero
(below a bar far under the top of the spectrum) are taken instead as
positive eigenvalues of the Golub-Kahan 2N-cycle of ``T``, folded the
same way and resolved by bisection for just those few.  The full solve
(:func:`solve_quasiparticles`) takes a dense SVD of ``T``, whose
singular vectors make the mode pairs ``(Phi_k, Psi_k)`` consistent by
construction:

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
    "sector_energy",
    "ground_sector",
]

_SIGN_EPS = 1e-12
# eigenvalues of T^T T below this fraction of the largest are recomputed from
# the Golub-Kahan fold: squaring leaves a singular value s an absolute error of
# about eps * s_max^2 / s, which above the bar stays near 1e-14 * s_max
_SQUARED_EPS = 1e-4


class SolverError(RuntimeError):
    """Raised when the underlying factorization fails or loses consistency."""


class Sector(enum.Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class QuadraticForm:
    """The matrix ``T = A + B`` as its three nonzero bands.

    ``diagonal[j] = T[j, j] = Omega(j)``, ``subdiagonal[j] = T[j+1, j]
    = -J(j)`` and ``corner = T[0, N-1]``, the wrapping bond with the
    sector sign (:func:`build_quadratic_form` leaves it zero for
    ``N = 1``, which has no bonds).
    """

    diagonal: np.ndarray
    subdiagonal: np.ndarray
    corner: float
    sector: Sector

    def __post_init__(self) -> None:
        diagonal = np.array(self.diagonal, dtype=float)
        subdiagonal = np.array(self.subdiagonal, dtype=float)
        diagonal.setflags(write=False)
        subdiagonal.setflags(write=False)
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "subdiagonal", subdiagonal)
        object.__setattr__(self, "corner", float(self.corner))
        if diagonal.ndim != 1 or diagonal.size == 0 or subdiagonal.shape != (diagonal.size - 1,):
            raise ValueError("need N >= 1 diagonal and N - 1 subdiagonal entries")

    @property
    def N(self) -> int:
        return self.diagonal.shape[0]

    @property
    def T(self) -> np.ndarray:
        """Dense ``N x N`` copy of ``T``."""
        N = self.N
        T = np.diag(self.diagonal)
        T[np.arange(1, N), np.arange(N - 1)] = self.subdiagonal
        T[0, N - 1] += self.corner
        return T


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
        ``-(1/2) sum_k Lambda_k``, before any parity bookkeeping.
    vacuum_parity : int
        Fermion parity of the vacuum of this quadratic form: the sign of
        ``det(T)`` (+1 even, -1 odd, 0 when an exact zero mode makes
        the parity indeterminate).
    """

    energies: np.ndarray
    Phi: np.ndarray
    Psi: np.ndarray
    sector: Sector
    ground_energy_chain: float
    vacuum_parity: int

    @property
    def N(self) -> int:
        return self.energies.shape[0]


def build_quadratic_form(field, bonds, sector: Sector = Sector.EVEN) -> QuadraticForm:
    """Assemble ``T`` for the given effective field and bond pattern.

    ``bonds[j]`` couples sites ``j`` and ``(j+1) % N``.  The bond that
    wraps the ring (``j = N-1``) lands in the corner ``T[0, N-1]`` with
    sign ``+`` in the even sector and ``-`` in the odd one.  For
    ``N = 2`` both bonds act on the same pair of sites, one below and
    one above the diagonal.
    """
    N = field.N
    bonds = np.asarray(bonds, dtype=float)
    if bonds.shape != (N,):
        raise ValueError(f"expected {N} bond strengths, got shape {bonds.shape}")
    corner = 0.0
    if N >= 2:
        corner = bonds[-1] if sector is Sector.EVEN else -bonds[-1]
    return QuadraticForm(
        diagonal=field.Omega, subdiagonal=-bonds[:-1], corner=corner, sector=sector
    )


def quasiparticle_energies(form: QuadraticForm) -> np.ndarray:
    """Physical spectrum ``Lambda_k`` (ascending) without the mode matrices.

    This is the fast path for energy-only work.  The bulk comes from the
    eigenvalues of ``T^T T``: an N-cycle with diagonal ``Omega(j)^2 +
    off(j)^2`` and edges ``off(j) Omega(j+1)``, where ``off`` is the
    subdiagonal followed by the corner, folded into a symmetric band of
    width 2 in O(N^2).  Eigenvalues below ``_SQUARED_EPS`` of the largest
    have lost their relative accuracy to the squaring; those ``k`` modes
    are recomputed as the ``k`` smallest positive eigenvalues of the
    Golub-Kahan 2N-cycle with edge weights ``Omega(0), -J(0), Omega(1),
    ..., -J(N-2), Omega(N-1), corner``, by bisection on the same fold.
    """
    N = form.N
    if N == 1:
        return np.array([2.0 * abs(form.diagonal[0] + form.corner)])
    w = np.empty(2 * N)
    w[0::2] = form.diagonal
    w[1:-1:2] = form.subdiagonal
    w[-1] = form.corner
    # an exact power-of-two scale keeps the squares clear of underflow and overflow
    scale = 2.0 ** np.frexp(np.max(np.abs(w)))[1]
    w /= scale
    Om, off = w[0::2], w[1::2]
    ev = _cycle_eigvals(off * np.roll(Om, -1), Om**2 + off**2)
    energies = 2.0 * scale * np.sqrt(np.maximum(ev, 0.0))
    k = int(np.count_nonzero(ev < _SQUARED_EPS * ev[-1]))
    if k:
        energies[:k] = 2.0 * scale * np.abs(_cycle_eigvals(w, select_range=(N, N + k - 1)))
    return np.sort(energies)


def _cycle_eigvals(
    edge: np.ndarray, node: np.ndarray | None = None, select_range: tuple[int, int] | None = None
) -> np.ndarray:
    """Eigenvalues of a symmetric n-cycle matrix, n >= 2, ascending.

    ``edge[i]`` is the weight between rows ``i`` and ``(i + 1) % n`` and
    ``node`` the diagonal (zero when omitted); for ``n = 2`` both edges
    land on the same entry and add.  Visiting the rows as ``0, n-1, 1,
    n-2, ...`` puts every edge within distance 2 of the diagonal, so the
    matrix folds into a symmetric band of width 2.  With ``select_range
    = (lo, hi)`` only the eigenvalues of those ascending indices are
    computed, by bisection.
    """
    n = edge.size
    m = (n + 1) // 2
    # lower band storage: band[d, i] holds the entry (i + d, i)
    band = np.zeros((3, n))
    if node is not None:
        band[0, 0::2] = node[:m]
        band[0, 1::2] = node[: m - 1 : -1]
    band[2, 0 : 2 * m - 2 : 2] = edge[: m - 1]
    band[2, 1 : 2 * (n // 2) - 1 : 2] = edge[n - 2 : m - 1 : -1]
    band[1, 0] = edge[-1]
    band[1, -2] += edge[m - 1]  # the fold, where the two halves of the cycle meet
    select = "a" if select_range is None else "i"
    try:
        return linalg.eigvals_banded(
            band, lower=True, overwrite_a_band=True, select=select, select_range=select_range
        )
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise SolverError("banded eigenvalue computation failed") from exc


def _hopping_norm(form: QuadraticForm) -> float:
    """Spectral norm of the hopping matrix ``A = (T + T^T) / 2``.

    ``A`` is a symmetric cyclic tridiagonal, so its eigenvalues come
    from the same fold as the spectrum, in O(N^2).
    """
    if form.N == 1:
        return abs(form.diagonal[0] + form.corner)
    edge = 0.5 * np.append(form.subdiagonal, form.corner)
    return float(np.max(np.abs(_cycle_eigvals(edge, form.diagonal))))


def _leading_signs(rows: np.ndarray) -> np.ndarray:
    """``-1.0`` for each row whose first entry above ``_SIGN_EPS`` in size (its
    largest, if none is) is negative, else ``1.0``."""
    size = np.abs(rows)
    big = size > _SIGN_EPS
    lead = np.where(big.any(axis=1), big.argmax(axis=1), size.argmax(axis=1))
    return np.where(rows[np.arange(rows.shape[0]), lead] < 0, -1.0, 1.0)


def solve_quasiparticles(form: QuadraticForm) -> QuasiparticleSolution:
    """Full diagonalization: spectrum plus the ``Phi``/``Psi`` mode matrices.

    Mode signs are fixed deterministically: the first non-negligible
    entry of each ``Phi_k`` is made positive, flipping ``Psi_k`` along
    with it so the coupled relations survive.  For (numerically) zero
    modes the relations no longer tie the pair together, so ``Psi_k``
    gets the same rule applied independently.
    """
    T = form.T
    # LAPACK may turn an inf into NaN output without reporting failure
    if not np.isfinite(T).all():
        raise SolverError("quadratic form has non-finite entries")
    try:
        U, s, Vh = np.linalg.svd(T)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular value decomposition failed") from exc
    Phi = np.ascontiguousarray(U.T[::-1])
    Psi = np.ascontiguousarray(Vh[::-1])
    s = s[::-1].copy()

    # independent sign fixing of a Phi/Psi pair is only safe when the
    # singular value is negligible: for any larger s it would desync the
    # pairing by 2s and fail the residual check below
    scale = _hopping_norm(form)
    zero_tol = 1e-12 * max(scale, 1.0)
    flip = _leading_signs(Phi)
    Phi *= flip[:, None]
    Psi *= np.where(s > zero_tol, flip, _leading_signs(Psi))[:, None]

    resid = max(
        np.max(np.abs(Phi @ T - s[:, None] * Psi)),
        np.max(np.abs(Psi @ T.T - s[:, None] * Phi)),
    )
    ortho = max(
        np.max(np.abs(Phi @ Phi.T - np.eye(form.N))),
        np.max(np.abs(Psi @ Psi.T - np.eye(form.N))),
    )
    if resid > 1e-9 * max(scale, 1.0) or ortho > 1e-10:
        raise SolverError(
            f"decomposition lost consistency (residual {resid:.3e}, orthogonality {ortho:.3e})"
        )

    # an exact zero mode makes det(T) fp dust of arbitrary sign; report 0
    parity = 0
    if s[0] > zero_tol:
        sign, _ = np.linalg.slogdet(T)
        parity = int(sign)
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
        vacuum_parity=parity,
    )


def sector_energy(sol: QuasiparticleSolution) -> float:
    """Ground energy of the chain restricted to the solution's parity sector.

    The bare vacuum of the quadratic form may carry the wrong fermion
    parity for its sector; the lowest admissible state then holds one
    quasiparticle, costing ``Lambda_min`` on top of the vacuum energy.
    A vacuum parity of 0 (exact zero mode) means both parities are
    degenerate and no correction applies.
    """
    want = +1 if sol.sector is Sector.EVEN else -1
    energy = sol.ground_energy_chain
    if sol.vacuum_parity != 0 and sol.vacuum_parity != want:
        energy += float(sol.energies[0])
    return energy


def ground_sector(field, bonds, both_sectors: bool = False) -> QuasiparticleSolution:
    """Solve the even sector, or both, and return the winning solution.

    With ``Omega > 0`` and ``J >= 0`` the global ground state is always
    found in the even sector (its vacuum parity is even for any such
    chain), so the default skips the odd solve entirely.  Pass
    ``both_sectors=True`` to compare the parity-corrected energies and
    return whichever sector wins; ties go to even.
    """
    even = solve_quasiparticles(build_quadratic_form(field, bonds, Sector.EVEN))
    if not both_sectors:
        return even
    odd = solve_quasiparticles(build_quadratic_form(field, bonds, Sector.ODD))
    return even if sector_energy(even) <= sector_energy(odd) + 1e-12 else odd

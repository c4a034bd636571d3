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
bisection for just those few.

The full solve (:func:`solve_quasiparticles`) splits ``T`` the same way
and takes one stacked dense SVD of the blocks (a ring with no period is
the one block ``T`` itself).  What it returns besides the spectrum is the
vacuum's Majorana contraction matrix

    G = -W^T,   W = U V^T   for   T = U diag(Lambda / 2) V^T,

the orthogonal polar factor of ``T`` (the columns of ``U`` are the
left-singular vectors), which every observable downstream is read from.
It is assembled from the blocks' polar factors over one period of rows
and tiled over the rest with the twisted translation, so it is exactly
twisted-periodic by construction.  The orientation ``-W^T`` is not a
matter of taste: the string-correlator determinants downstream are only
valid for it, and it was pinned by checking them against brute-force
diagonalization.  The vacuum's fermion parity is ``det W``.  ``W`` is
fixed by ``T`` alone unless a singular value vanishes; where one falls
below rounding, so does that parity, and the solve matches it, block by
block, to the sign of ``det T``.
"""

from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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

# eigenvalues of T^T T below this fraction of the largest are recomputed from
# the Golub-Kahan fold: squaring leaves a singular value s an absolute error of
# about eps * s_max^2 / s, which above the bar stays near 1e-14 * s_max
_SQUARED_EPS = 1e-4
# a translation block shorter than this costs more in the call overhead of its
# banded eigensolve than it saves: ~11 us at n = 4, half of it folding the band
# (~20 us through scipy.linalg.eigvals_banded; one 2-core Xeon, one BLAS thread)
_MIN_BLOCK = 8


def _load_lapack():
    """scipy's f2py LAPACK wrappers, loaded without importing ``scipy`` itself.

    ``import scipy.linalg`` costs some 0.27 s and 24 MB of resident memory
    (2-core Xeon, scipy 1.17), mostly in modules the banded eigensolve
    never touches, ``numpy.f2py`` and ``numpy.testing`` among them, and even
    ``import scipy`` costs 9 ms and 1.3 MB; the wrapper needs neither.  It
    is found on the search path of scipy's package spec and registered under
    its own name, so a later ``import scipy.linalg`` (the multi-mode polish's
    ``scipy.optimize`` makes one) reuses this very object rather than
    loading the extension twice.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed")
    package = Path(next(iter(spec.submodule_search_locations)))
    directory = package / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / ("_flapack" + suffix)
        if path.is_file():
            break
    else:
        from importlib import metadata

        found = next(metadata.distributions(name="scipy", path=[str(package.parent)]), None)
        version = found.version if found is not None else "of unknown version"
        raise ImportError(f"no LAPACK wrapper _flapack in {directory} (scipy {version})")
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader)
    )
    loader.exec_module(module)
    sys.modules[name] = module
    return module


_lapack = _load_lapack()
# the absolute tolerance scipy's eig_banded gives the bisection: twice the
# smallest normal number, where it converges most accurately
_ABSTOL = 2.0 * _lapack.dlamch("s")


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
    G : np.ndarray
        The vacuum's Majorana contraction matrix ``G = -W^T`` (read-only),
        with ``W`` the orthogonal polar factor of ``T``.  Where a zero mode
        leaves ``W`` to rounding, the vacuum is the one of parity ``det W =
        sign(det T)``.  Exactly twisted-periodic in ``period`` by
        construction: ``G[(x + M) % N, (y + M) % N] = sigma(x) sigma(y)
        G[x, y]``, ``sigma(x) = tau`` when ``x + M >= N`` and 1 otherwise.
    sector : Sector
    ground_energy_chain : float
        Chain part of the ground energy in this sector's vacuum,
        ``-(1/2) sum_k Lambda_k``.
    period : int
        Sites M per translation block the solve used (``N`` for a ring
        with no period): the field and bonds repeat every M sites, and so
        does ``G``, up to the sector's twist at the seam.
    """

    energies: np.ndarray
    G: np.ndarray
    sector: Sector
    ground_energy_chain: float
    period: int

    @property
    def N(self) -> int:
        return self.energies.shape[0]

    @property
    def sigma_z(self) -> np.ndarray:
        """The vacuum's rotated polarization ``<s^z_j> = -G_jj``, a fresh array per call."""
        return -np.diag(self.G)


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
        det = _block_det(Om, w, twist)
        if det is not None:
            s[0] = np.exp(det[0] - np.sum(np.log(s[1:])))
            return s
    if k:
        gk = np.empty(2 * M, dtype=off.dtype)
        gk[0::2] = Om
        gk[1::2] = off
        s[:k] = np.abs(_cycle_eigvals(gk, select_range=(M, M + k - 1)))
    return s


def _block_det(Om: np.ndarray, w: np.ndarray, twist) -> tuple[float, float] | None:
    """``log |det T_z|`` and, for a real twist, the sign of ``det T_z``; ``None`` when its
    two terms may cancel.

    ``det T_z = A + B`` with ``A = prod(Om)`` and ``B = (-1)^(M+1) conj(z)
    prod(w)``.  Both come as logs, ``-inf`` for a zero factor.  The sum
    is trusted only when ``|det|^2 >= (|A|^2 + |B|^2) / 2``, so that it
    keeps the relative accuracy of its terms; its sign is then the larger
    term's, and 0 when both vanish.
    """
    with np.errstate(divide="ignore"):
        log_a = np.sum(np.log(np.abs(Om)))
        log_b = np.sum(np.log(np.abs(w)))
    hi, lo = max(log_a, log_b), min(log_a, log_b)
    if hi == -np.inf:
        return -np.inf, 0.0
    sign_a = np.prod(np.sign(Om))
    sign_b = np.prod(np.sign(w)) * (-1.0) ** (Om.size + 1) * np.real(twist)
    # cosine of the angle between A and B in the complex plane
    cos = sign_a * sign_b
    r = np.exp(lo - hi)
    rest = 1.0 + r * r + 2.0 * r * cos  # |det|^2 / max(|A|, |B|)^2
    if not rest >= 0.5 * (1.0 + r * r):
        return None
    return hi + 0.5 * np.log(rest), (sign_a if log_a >= log_b else sign_b)


def _cycle_eigvals(
    edge: np.ndarray, node: np.ndarray | None = None, select_range: tuple[int, int] | None = None
) -> np.ndarray:
    """Eigenvalues of a Hermitian n-cycle matrix ``H``, n >= 2, ascending.

    ``edge[i]`` is the entry ``H[(i + 1) % n, i]`` and ``node`` the real
    diagonal (zero when omitted); for ``n = 2`` the two edges land on
    the same entry, ``H[1, 0] = edge[0] + conj(edge[1])``.  The cycle is
    folded by :func:`_cycle_band` and handed to LAPACK with the calls and
    arguments of ``scipy.linalg.eigvals_banded(band, lower=True)``, so
    every value is theirs bit for bit.  With ``select_range = (lo, hi)``
    only the eigenvalues of those ascending indices are computed, by
    bisection.
    """
    band = _cycle_band(edge, node)
    # LAPACK may turn an inf into NaN output without reporting failure
    if not np.isfinite(band).all():
        raise SolverError("banded eigenvalue computation failed: non-finite band")
    hermitian = band.dtype.kind == "c"
    if select_range is None:
        solve = _lapack.zhbevd if hermitian else _lapack.dsbevd
        ev, _, info = solve(band, compute_v=0, lower=1, overwrite_ab=1)
    else:
        solve = _lapack.zhbevx if hermitian else _lapack.dsbevx
        lo, hi = select_range
        ev, _, found, _, info = solve(
            band, 0.0, 1.0, lo + 1, hi + 1,
            compute_v=0, mmax=1, range=2, lower=1, overwrite_ab=1, abstol=_ABSTOL,
        )
        ev = ev[:found]
    if info != 0:
        raise SolverError(f"banded eigenvalue computation failed (LAPACK info {info})")
    return ev


def _cycle_band(edge: np.ndarray, node: np.ndarray | None) -> np.ndarray:
    """The Hermitian n-cycle of :func:`_cycle_eigvals` folded into LAPACK's lower band storage.

    Visiting the rows as ``0, n-1, 1, n-2, ...`` puts every edge within
    distance 2 of the diagonal, so the matrix folds into a Hermitian band
    of width 2; the edges of the back half and the wrap then sit above the
    diagonal of the fold and enter conjugated.  ``band[d, i]`` holds the
    entry ``(i + d, i)`` of the fold.  Real edges make a real band.
    """
    n = edge.size
    m = (n + 1) // 2
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
    return band


def solve_quasiparticles(form: QuadraticForm) -> QuasiparticleSolution:
    """Full diagonalization: the spectrum and the vacuum's contraction matrix ``G``.

    A ring whose bands repeat every M sites (the period of
    :func:`quasiparticle_energies`, ``q = N / M`` repeats) is solved by
    its translation blocks: one stacked SVD ``T_z = U_z S_z Vh_z`` of the
    M x M blocks of one twist per conjugate pair (the real twists
    ``z = +-1`` in one stack, the complex ones in another).  A ring with no
    period is the one block ``q = 1``, ``T`` itself, with the twist
    ``z = tau``.  Each block's polar factor ``W_z = U_z Vh_z`` gives the
    first M rows of ``G = -W^T``,

        G[i, c M + i'] = -(1/q) sum_z z^c W_z[i', i],

    where a complex twist stands for itself and its conjugate, whose
    factor is ``conj(W_z)``, and so adds ``2 Re``.  The other rows follow
    by translating both indices by M, which wraps an index across the seam
    with the twist ``tau``: ``G[(x + M) % N, (y + M) % N] = sigma(x)
    sigma(y) G[x, y]`` with ``sigma(x) = tau`` when ``x + M >= N`` and 1
    otherwise.  So ``G`` is exactly twisted-periodic by construction.

    ``W`` is fixed by ``T`` alone while no singular value vanishes; a
    zero mode leaves its pair's relative sign, and with it the vacuum's
    parity ``det W``, to rounding.  The vacuum solved here has ``sign(det
    W) = sign(det T)``, block by block: ``det T_z = det U_z det S_z det
    Vh_z`` with ``det S_z >= 0``.  A complex pair adds ``|det W_z|^2 > 0``,
    so only a real block can hold the wrong parity.  Where such a block's
    smallest singular value is at or below ``1e-12`` of ``max(||T||_2,
    1)``, the sign of ``det W_z`` is compared with that of ``det T_z`` from
    :func:`_block_det`, and a mismatch flips the smallest pair.  Where
    that determinant's two terms may cancel, its sign is lost to rounding
    as well: the gap may truly close, either parity is then a ground
    state, and LAPACK's pairing stands.

    Each block is checked before anything is returned: the residual
    ``T_z V_z - U_z S_z`` from the bands may miss by ``1e-9 max(||T||_2,
    1)``, the scale in which the SVD's backward error is stated, and
    ``W_z W_z^H`` the identity by ``1e-10``.
    """
    # LAPACK may turn an inf into NaN output without reporting failure
    if not (np.isfinite(form.diagonal).all() and np.isfinite(form.bond_band).all()):
        raise SolverError("quadratic form has non-finite entries")
    N = form.N
    M = _translation_period(form.diagonal, form.bond_band)
    q = N // M
    Om, w = form.diagonal[:M], form.bond_band[:M]
    blocks, values = [], []
    for paired in (False, True):
        zs = np.array([z for z, p in _twists(form.sector, q) if p is paired])
        if zs.size == 0:
            continue
        try:
            U, s, Vh = np.linalg.svd(np.stack([_block_matrix(Om, w, z) for z in zs]))
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular value decomposition failed") from exc
        blocks.append((zs, paired, U, s, Vh))
        values.append(np.tile(s.ravel(), 2 if paired else 1))
    s = np.sort(np.concatenate(values))
    scale = max(s[-1], 1.0)

    first = np.zeros((M, q, M))  # first[i, c, i'] = G[i, c M + i']
    for zs, paired, U, sv, Vh in blocks:
        W = U @ Vh
        if not paired:
            _match_parity(W, U, sv, Vh, Om, w, zs, 1e-12 * scale)
        _check_block(W, U, sv, Vh, Om, w, zs, scale)
        phase = (2.0 if paired else 1.0) / q * zs[:, None] ** np.arange(q)
        first -= np.einsum("zc,zji->icj", phase, W).real
    G = _tile_twisted(first.reshape(M, N), form.tau)

    G.setflags(write=False)
    energies = 2.0 * s
    energies.setflags(write=False)
    return QuasiparticleSolution(
        energies=energies,
        G=G,
        sector=form.sector,
        ground_energy_chain=-float(np.sum(s)),
        period=M,
    )


def _match_parity(W, U, s, Vh, Om, w, zs, zero_tol) -> None:
    """Give each real block with a zero mode the parity ``sign(det T_z)``, in place in ``W``."""
    for k in np.flatnonzero(s[:, -1] <= zero_tol):
        det = _block_det(Om, w, zs[k])
        if det is not None and det[1] != 0.0 and np.linalg.slogdet(W[k])[0] != det[1]:
            # LAPACK's values come descending: the smallest pair is the last
            W[k] -= 2.0 * np.outer(U[k, :, -1], Vh[k, -1])


def _check_block(W, U, s, Vh, Om, w, zs, scale) -> None:
    """Raise ``SolverError`` unless the stacked factors still solve their blocks."""
    V = np.conj(np.swapaxes(Vh, 1, 2))
    # T_z V from the bands: Om on the diagonal, w[:-1] below it, conj(z) w[-1] in the corner
    TV = Om[:, None] * V
    TV[:, 1:] += w[:-1, None] * V[:, :-1]
    TV[:, 0] += (np.conj(zs) * w[-1])[:, None] * V[:, -1]
    resid = np.max(np.abs(TV - U * s[:, None, :]))
    ortho = np.max(np.abs(W @ np.conj(np.swapaxes(W, 1, 2)) - np.eye(Om.size)))
    if resid > 1e-9 * scale or ortho > 1e-10:
        raise SolverError(
            f"decomposition lost consistency (residual {resid:.3e}, orthogonality {ortho:.3e})"
        )


def _tile_twisted(first: np.ndarray, tau: float) -> np.ndarray:
    """The N x N matrix whose first M rows are ``first`` and that is twisted-periodic in M."""
    M, N = first.shape
    if M == N:
        return first
    G = np.empty((N, N))
    for shift in range(0, N, M):
        # rows shift + i: column y + shift, wrapped past N with the twist
        G[shift : shift + M, shift:] = first[:, : N - shift]
        G[shift : shift + M, :shift] = tau * first[:, N - shift :]
    return G


def _block_matrix(Om: np.ndarray, w: np.ndarray, twist) -> np.ndarray:
    """Dense block ``T_z``: ``Om``, ``w[:-1]`` below it and ``conj(z) w[-1]`` in the corner."""
    M = Om.size
    T = np.diag(Om).astype(np.result_type(Om, twist))
    T[np.arange(1, M), np.arange(M - 1)] = w[:-1]
    T[0, M - 1] += np.conj(twist) * w[-1]
    return T


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

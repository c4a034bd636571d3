"""Brute-force reference solver for small rotated-frame chains.

Diagonalizes  H = -sum_j Omega(j) s^z_j - sum_j J(j) s^y_j s^y_{j+1}
in the full 2^N spin basis.  Because s^y s^y acting between real basis
states only introduces an overall minus sign (s^y = i K with K real),
the Hamiltonian is assembled as a real symmetric matrix.

Dense diagonalization is used up to 10 sites, a sparse Lanczos solve up
to the hard cap of 14; anything larger is refused.  ``scipy.sparse`` is
imported only on that Lanczos path, so importing this module, or a dense
solve, does not load it.  Basis convention:
bit ``j`` of the index selects site ``j``, with bit value 0 meaning spin
up (s^z = +1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DenseSpinProblem", "exact_ground", "exact_expectations"]

_DENSE_MAX = 10
_HARD_MAX = 14


@dataclass(frozen=True)
class DenseSpinProblem:
    """Field and bond arrays for a chain small enough to brute-force."""

    Omega: np.ndarray
    J: np.ndarray

    def __post_init__(self) -> None:
        Omega = np.ascontiguousarray(self.Omega, dtype=float)
        J = np.ascontiguousarray(self.J, dtype=float)
        Omega.setflags(write=False)
        J.setflags(write=False)
        object.__setattr__(self, "Omega", Omega)
        object.__setattr__(self, "J", J)
        if Omega.ndim != 1 or J.shape != Omega.shape:
            raise ValueError("Omega and J must be 1-d arrays of equal length")
        if Omega.shape[0] > _HARD_MAX:
            raise ValueError(f"refusing brute force beyond {_HARD_MAX} sites")
        if Omega.shape[0] < 1:
            raise ValueError("need at least one site")

    @property
    def N(self) -> int:
        return self.Omega.shape[0]


def _z_signs(N: int) -> np.ndarray:
    # signs[b, j] = +1 if bit j of b is 0 (spin up), else -1
    basis = np.arange(1 << N)[:, None]
    bits = (basis >> np.arange(N)[None, :]) & 1
    return 1.0 - 2.0 * bits


def _bond_terms(problem: DenseSpinProblem):
    """Yield (mask, amplitude-per-basis-state) for each s^y s^y bond.

    With s^y = i K, K|b> = (-1)^{b} |1-b>, a bond contributes
    -J s^y_j s^y_k = +J K_j K_k, whose matrix element out of |b> is
    J * (-1)^{b_j + b_k} into |b ^ mask>.
    """
    N = problem.N
    signs = _z_signs(N)
    for j in range(N):
        k = (j + 1) % N
        if k == j:  # single site: no bond
            continue
        J = problem.J[j]
        if J == 0.0:
            continue
        mask = (1 << j) | (1 << k)
        yield mask, J * signs[:, j] * signs[:, k]


def _hamiltonian_dense(problem: DenseSpinProblem) -> np.ndarray:
    dim = 1 << problem.N
    H = np.zeros((dim, dim))
    diag = -(_z_signs(problem.N) @ problem.Omega)
    H[np.arange(dim), np.arange(dim)] = diag
    basis = np.arange(dim)
    for mask, amp in _bond_terms(problem):
        H[basis ^ mask, basis] += amp
    return H


def _hamiltonian_sparse(problem: DenseSpinProblem):
    import scipy.sparse as sp

    dim = 1 << problem.N
    basis = np.arange(dim)
    rows = [basis]
    cols = [basis]
    vals = [-(_z_signs(problem.N) @ problem.Omega)]
    for mask, amp in _bond_terms(problem):
        rows.append(basis ^ mask)
        cols.append(basis)
        vals.append(amp)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )


def _parity_vector(N: int) -> np.ndarray:
    """Spin-flip parity (-1)^{number of down spins} per basis state."""
    basis = np.arange(1 << N)
    counts = np.zeros(1 << N, dtype=int)
    for j in range(N):
        counts += (basis >> j) & 1
    return np.where(counts % 2 == 0, 1.0, -1.0)


def exact_ground(problem: DenseSpinProblem, parity: int | None = None):
    """Ground energy and state, optionally restricted to a parity sector.

    Parameters
    ----------
    problem : DenseSpinProblem
    parity : {None, +1, -1}
        With ``None`` the global ground state is returned.  Otherwise the
        lowest state whose spin-flip parity is ``parity``; degenerate
        multiplets are projected so the returned state is a parity
        eigenstate even when the solver mixed the sectors.

    Returns
    -------
    (energy, state) : tuple[float, np.ndarray]
    """
    N = problem.N
    if N <= _DENSE_MAX:
        H = _hamiltonian_dense(problem)
        evals, evecs = np.linalg.eigh(H)
        apply = lambda v: H @ v
    else:
        import scipy.sparse.linalg as spla

        H = _hamiltonian_sparse(problem)
        k = min(8, (1 << N) - 2)
        evals, evecs = spla.eigsh(H, k=k, which="SA")
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
        apply = lambda v: H @ v

    if parity is None:
        return float(evals[0]), evecs[:, 0]

    if parity not in (+1, -1):
        raise ValueError("parity must be +1, -1 or None")
    p = _parity_vector(N)
    weight = 0.5 * (1.0 + parity * p)
    for i in range(evals.shape[0]):
        vec = evecs[:, i] * weight
        norm = np.linalg.norm(vec)
        if norm > 1e-6:
            vec /= norm
            energy = float(vec @ apply(vec))
            return energy, vec
    raise RuntimeError("no state of the requested parity found among computed eigenstates")


def exact_expectations(problem: DenseSpinProblem, state: np.ndarray, pairs=(), theta=None):
    """Expectation values in a given (real) state.

    Parameters
    ----------
    problem : DenseSpinProblem
    state : np.ndarray
        State vector over the 2^N basis.
    pairs : iterable of (j, n)
        Separations for which to evaluate <s^y_j s^y_{j+n}> (indices mod N).
    theta : np.ndarray, optional
        Local rotation angles; when given, laboratory-frame single-site
        expectations are included under ``sigma_z_lab`` / ``sigma_x_lab``.

    Returns
    -------
    dict with keys ``sigma_z``, ``sigma_x``, ``yy`` (a dict keyed by the
    requested (j, n) pairs), plus the lab-frame entries when ``theta`` is
    supplied.
    """
    N = problem.N
    dim = 1 << N
    state = np.asarray(state, dtype=float)
    if state.shape != (dim,):
        raise ValueError("state has the wrong dimension for this problem")
    signs = _z_signs(N)
    probs = state * state
    sz = probs @ signs
    basis = np.arange(dim)
    sx = np.array([state[basis ^ (1 << j)] @ state for j in range(N)])

    yy = {}
    for j, n in pairs:
        a, b = j % N, (j + n) % N
        if a == b:
            yy[(j, n)] = 1.0
            continue
        mask = (1 << a) | (1 << b)
        s2 = signs[:, a] * signs[:, b]
        # s^y_a s^y_b = -K_a K_b on real states
        yy[(j, n)] = float(-(state[basis ^ mask] * s2) @ state)

    out = {"sigma_z": sz, "sigma_x": sx, "yy": yy}
    if theta is not None:
        theta = np.asarray(theta, dtype=float)
        out["sigma_z_lab"] = np.cos(theta) * sz - np.sin(theta) * sx
        out["sigma_x_lab"] = np.sin(theta) * sz + np.cos(theta) * sx
    return out

"""Chain geometry, resonator modes, and the local effective field.

Units: the fundamental resonator frequency is 1, so mode ``l`` sits at
frequency ``l`` and every energy in the package is dimensionless.  Sites
are indexed ``j = 0 .. N-1`` on a ring; Ising bond ``j`` couples sites
``j`` and ``(j+1) % N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "IsingProfile",
    "ChainSpec",
    "ModeSet",
    "EffectiveField",
    "coupling_strength",
    "self_energy_D",
    "effective_field",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only copy: freezing the caller's own array would make it read-only too."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class IsingProfile:
    """Nearest-neighbour Ising coupling pattern along the ring.

    Three kinds are supported:

    ``uniform``
        every bond carries the same strength ``J``.
    ``rectangular``
        ``period`` equal windows of strong coupling ``J_max`` on a weak
        background ``J_min``.  Window ``m`` covers the half-open site range
        ``[floor((4m+1)N/(4p)), floor((4m+3)N/(4p)))`` so that each window
        is exactly ``N/(2p)`` bonds wide when ``2p`` divides ``N``.
    ``explicit``
        per-bond strengths supplied directly (length must match ``N``).

    Instances are cheap value objects; call :meth:`bonds` to materialize
    the length-``N`` coupling array for a given chain size.
    """

    kind: str
    J: float | None = None
    J_max: float | None = None
    J_min: float | None = None
    period: int | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "uniform":
            if self.J is None or not 0 <= self.J < math.inf:
                raise ValueError(f"uniform profile needs a finite J >= 0, got {self.J}")
        elif self.kind == "rectangular":
            if self.J_max is None or self.J_min is None or self.period is None:
                raise ValueError("rectangular profile needs J_max, J_min and period")
            if not 0 <= self.J_min <= self.J_max < math.inf:
                raise ValueError("rectangular profile needs a finite J_max >= J_min >= 0")
            if self.period < 1:
                raise ValueError("rectangular profile needs period >= 1")
        elif self.kind == "explicit":
            if not self.values:
                raise ValueError("explicit profile needs a nonempty values sequence")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
            if not all(0 <= v < math.inf for v in self.values):
                raise ValueError("explicit profile values must be finite and >= 0")
        else:
            raise ValueError(f"unknown Ising profile kind {self.kind!r}")

    @classmethod
    def uniform(cls, J: float) -> "IsingProfile":
        return cls(kind="uniform", J=float(J))

    @classmethod
    def rectangular(cls, J_max: float, J_min: float, period: int) -> "IsingProfile":
        return cls(kind="rectangular", J_max=float(J_max), J_min=float(J_min), period=int(period))

    @classmethod
    def explicit(cls, values) -> "IsingProfile":
        return cls(kind="explicit", values=tuple(float(v) for v in values))

    def bonds(self, N: int) -> np.ndarray:
        """Return the length-``N`` array of bond strengths ``J(j)``."""
        if self.kind == "uniform":
            out = np.full(N, self.J, dtype=float)
        elif self.kind == "rectangular":
            p = self.period
            out = np.full(N, self.J_min, dtype=float)
            for m in range(p):
                lo = math.floor((4 * m + 1) * N / (4 * p))
                hi = math.floor((4 * m + 3) * N / (4 * p))
                out[lo:hi] = self.J_max
        else:
            if len(self.values) != N:
                raise ValueError(
                    f"explicit profile has {len(self.values)} values but the chain has {N} bonds"
                )
            out = np.array(self.values, dtype=float)
        return _frozen(out)


@dataclass(frozen=True)
class ChainSpec:
    """Static description of the qubit ring.

    Parameters
    ----------
    N : int
        Number of sites (and bonds).
    E_z : float
        Bare qubit splitting, > 0.
    E_c : float
        Charging-energy scale entering the photon self-energy, > 0.
    ising : IsingProfile
        Nearest-neighbour coupling pattern.
    """

    N: int
    E_z: float
    E_c: float
    ising: IsingProfile

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("chain needs at least one site")
        if not 0 < self.E_z < math.inf:
            raise ValueError(f"E_z must be positive and finite, got {self.E_z}")
        if not 0 < self.E_c < math.inf:
            raise ValueError(f"E_c must be positive and finite, got {self.E_c}")
        if self.ising.kind == "explicit" and len(self.ising.values) != self.N:
            raise ValueError("explicit Ising profile length does not match N")

    def bonds(self) -> np.ndarray:
        return self.ising.bonds(self.N)


def coupling_strength(l: int, j, lambda0: float, N: int):
    """Qubit-photon coupling ``lambda_l(j) = lambda0 * sqrt(l) * cos(l pi j / N)``.

    ``j`` may be a scalar or an array of site positions.  The phase
    ``l j`` is reduced modulo ``2N`` (exactly, in floating point) and its
    second half folded by ``cos(x + pi) = -cos(x)``, so the cosine only
    ever sees ``[0, pi)`` and, for integer sites, ``lambda_l(j + N/l) ==
    -lambda_l(j)`` holds bit for bit.
    """
    if l < 1:
        raise ValueError("mode index must be >= 1")
    phase = np.mod(l * np.asarray(j, dtype=float), 2 * N)
    flip = phase >= N
    cos = np.cos(math.pi * np.where(flip, phase - N, phase) / N)
    return lambda0 * math.sqrt(l) * np.where(flip, -cos, cos)


def self_energy_D(l: int, lambda0: float, N: int, E_c: float) -> float:
    """Static photon self-energy ``D_l`` of mode ``l``.

    Computed by direct summation of ``lambda_l(j)^2 / (4 E_c)`` over sites.
    For ``1 <= l < N`` the cosine sum telescopes and the result equals
    ``lambda0^2 * l / (8 E_c)`` exactly.
    """
    lam = coupling_strength(l, np.arange(N), lambda0, N)
    return float(np.sum(lam * lam) / (4.0 * E_c) / N)


@dataclass(frozen=True)
class ModeSet:
    """A selection of resonator modes with their site-resolved couplings.

    ``couplings`` has shape ``(n_modes, N)`` with row ``i`` holding
    ``lambda_{modes[i]}(j)``; ``frequencies``, ``D`` and ``stiffness`` are the
    matching mode frequencies, self-energies and ``omega_l + 4 D_l``.  All
    derived arrays are read-only.
    """

    modes: tuple[int, ...]
    lambda0: float
    N: int
    E_c: float
    couplings: np.ndarray = field(init=False, repr=False)
    frequencies: np.ndarray = field(init=False, repr=False)
    D: np.ndarray = field(init=False, repr=False)
    stiffness: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        modes = tuple(int(l) for l in self.modes)
        if len(modes) == 0:
            raise ValueError("mode set must contain at least one mode")
        if len(set(modes)) != len(modes):
            raise ValueError("mode indices must be distinct")
        if min(modes) < 1:
            raise ValueError("mode indices must be >= 1")
        if not 0 <= self.lambda0 < math.inf:
            raise ValueError(f"lambda0 must be >= 0 and finite, got {self.lambda0}")
        if not 0 < self.E_c < math.inf:
            raise ValueError(f"E_c must be positive and finite, got {self.E_c}")
        object.__setattr__(self, "modes", modes)
        sites = np.arange(self.N)
        lam = np.stack([coupling_strength(l, sites, self.lambda0, self.N) for l in modes])
        object.__setattr__(self, "couplings", _frozen(lam))
        object.__setattr__(self, "frequencies", _frozen(np.array(modes, dtype=float)))
        object.__setattr__(
            self, "D", _frozen([self_energy_D(l, self.lambda0, self.N, self.E_c) for l in modes])
        )
        object.__setattr__(self, "stiffness", _frozen(self.frequencies + 4.0 * self.D))

    @property
    def n_modes(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class EffectiveField:
    """Site-resolved transverse field and rotation angle.

    With mode amplitudes ``phi`` the photons displace each qubit's field:
    the drive is ``d(j) = 2 sum_l lambda_l(j) phi_l``, the dressed field
    magnitude is ``Omega(j) = sqrt((E_z/2)^2 + d(j)^2)`` and the local
    rotation angle satisfies ``tan(theta_j) = d(j) / (E_z/2)``, i.e.
    ``Omega cos(theta) = E_z/2`` and ``Omega sin(theta) = d``.
    """

    Omega: np.ndarray
    theta: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "Omega", _frozen(self.Omega))
        object.__setattr__(self, "theta", _frozen(self.theta))
        if self.Omega.shape != self.theta.shape:
            raise ValueError("Omega and theta must have matching shapes")

    @property
    def N(self) -> int:
        return self.Omega.shape[0]


def effective_field(chain: ChainSpec, modeset: ModeSet, phi) -> EffectiveField:
    """Dressed local field for photon amplitudes ``phi`` (one per mode)."""
    if modeset.N != chain.N:
        raise ValueError("mode set was built for a different chain size")
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (modeset.n_modes,):
        raise ValueError(f"expected {modeset.n_modes} mode amplitudes, got shape {phi.shape}")
    drive = 2.0 * (phi @ modeset.couplings)
    half_split = 0.5 * chain.E_z
    Omega = np.hypot(half_split, drive)
    theta = np.arctan2(drive, half_split)
    return EffectiveField(Omega=Omega, theta=theta)

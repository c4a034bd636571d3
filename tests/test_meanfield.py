"""Energy surface and amplitude search."""

import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cavising import meanfield
from cavising.fermion import Sector, SolverError, build_quadratic_form, ground_sector
from cavising.meanfield import (
    SearchSpec,
    _crossing_onset,
    _NormalPhase,
    _UnitCurve,
    _energy_and_gradient,
    energy_per_particle,
    minimize_phi,
    normal_phase_onset,
    order_parameter_residual,
)
from cavising.model import ChainSpec, IsingProfile, ModeSet, effective_field
from cavising.oracle import DenseSpinProblem, exact_expectations, exact_ground
from cavising.phases import SweepContext, Thresholds, classify_transition_order, sweep


def desk_chain(J_max=0.026, J_min=0.001):
    return ChainSpec(
        N=40, E_z=0.1, E_c=8.0, ising=IsingProfile.rectangular(J_max, J_min, 2)
    )


# located during calibration of the 40-site configuration above, mode 2
DESK_LAMBDA_C = 0.22544

QUICK = SearchSpec(coarse_points=61)


class TestEnergy:
    def test_decoupled_value(self):
        chain = ChainSpec(N=12, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.0))
        ms = ModeSet(modes=(1,), lambda0=0.0, N=12, E_c=8.0)
        assert energy_per_particle(chain, ms, [0.0]) == pytest.approx(-0.4, abs=1e-14)

    def test_field_part_is_quadratic(self):
        chain = ChainSpec(N=10, E_z=0.6, E_c=8.0, ising=IsingProfile.uniform(0.0))
        ms = ModeSet(modes=(2,), lambda0=0.0, N=10, E_c=8.0)
        # with lambda0 = 0 the chain term is phi-independent
        e0 = energy_per_particle(chain, ms, [0.0])
        for phi in (0.3, 0.7):
            expected = e0 + (ms.frequencies[0] + 4.0 * ms.D[0]) * phi**2
            assert energy_per_particle(chain, ms, [phi]) == pytest.approx(expected, abs=1e-13)

    def test_against_brute_force(self):
        # e_g must equal the field quadratic plus the exact even-sector
        # spin energy per site
        rng = np.random.default_rng(41)
        for _ in range(5):
            N = int(rng.integers(3, 8))
            chain = ChainSpec(
                N=N,
                E_z=rng.uniform(0.3, 1.0),
                E_c=8.0,
                ising=IsingProfile.explicit(rng.uniform(0.0, 0.6, N)),
            )
            ms = ModeSet(modes=(1,), lambda0=rng.uniform(0.0, 0.7), N=N, E_c=8.0)
            phi = rng.uniform(0.0, 0.8, 1)
            fld = effective_field(chain, ms, phi)
            e_spin, _ = exact_ground(DenseSpinProblem(Omega=fld.Omega, J=chain.bonds()), parity=+1)
            field_part = float(np.sum((ms.frequencies + 4.0 * ms.D) * phi * phi))
            assert energy_per_particle(chain, ms, phi) == pytest.approx(
                field_part + e_spin / N, abs=1e-12
            )


@st.composite
def small_rings(draw):
    """``(E_z, bonds, mode, lambda0)`` of a single-mode ring the oracle can solve."""
    N = draw(st.integers(1, 8))
    bond = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
    J = [0.0] * N if draw(st.booleans()) else draw(st.lists(bond, min_size=N, max_size=N))
    return draw(st.floats(0.2, 1.5)), J, draw(st.integers(1, 4)), draw(st.floats(0.0, 2.0))


def oracle_energy(chain, ms, phi):
    """``sum_l (omega_l + 4 D_l) phi_l^2 + E_oracle(phi) / N``: ``e_g`` at amplitudes ``phi``
    (a number for one mode) by brute force."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    fld = effective_field(chain, ms, phi)
    e_spin, _ = exact_ground(DenseSpinProblem(Omega=fld.Omega, J=chain.bonds()), parity=+1)
    return float(np.sum((ms.frequencies + 4.0 * ms.D) * phi * phi)) + e_spin / chain.N


class TestMinimizerAgainstTheOracle:
    """Single-mode ``minimize_phi`` on rings small enough to diagonalize in full."""

    # off the search's 61-point grid; an N = 8 oracle solve takes some 8 ms
    SCAN = np.linspace(0.0, QUICK.phi_max, 37)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(small_rings())
    @example((0.8, [0.0], 1, 0.9))
    @example((0.8, [0.3, 0.0], 2, 1.5))
    @example((0.6, [0.2, 0.5, 0.1], 2, 1.2))
    @example((0.8, [0.0] * 3, 1, 0.9))
    def test_minimum_is_the_oracle_minimum(self, ring):
        E_z, J, mode, lam = ring
        chain = ChainSpec(N=len(J), E_z=E_z, E_c=8.0, ising=IsingProfile.explicit(J))
        ms = ModeSet(modes=(mode,), lambda0=lam, N=chain.N, E_c=8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a minimizer at phi_max
            state = minimize_phi(chain, ms, QUICK)
        assert state.e_g == pytest.approx(oracle_energy(chain, ms, state.phi[0]), abs=1e-10)
        assert state.e_g <= min(oracle_energy(chain, ms, x) for x in self.SCAN) + 1e-12


@st.composite
def two_mode_rings(draw):
    """``(E_z, bonds, lambda0)`` of a ring of up to 6 sites under modes 1 and 2."""
    N = draw(st.integers(1, 6))
    bond = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
    J = [0.0] * N if draw(st.booleans()) else draw(st.lists(bond, min_size=N, max_size=N))
    return draw(st.floats(0.2, 1.5)), J, draw(st.floats(0.0, 2.0))


class TestMultiModeMinimizerAgainstTheOracle:
    """The multi-mode polish of ``minimize_phi`` on rings small enough to diagonalize in full."""

    SEARCH = SearchSpec(multi_coarse_points=7, n_seeds=2)
    # twice as fine as the search's 7-point axes; the joint flip leaves phi_1 >= 0 to scan
    SCAN = list(
        product(np.linspace(0.0, SEARCH.phi_max, 13), np.linspace(-1.0, 1.0, 25) * SEARCH.phi_max)
    )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(two_mode_rings())
    @example((0.8, [0.0], 0.9))
    @example((0.8, [0.3, 0.0], 1.5))
    @example((0.6, [0.2, 0.5, 0.1], 1.2))
    @example((0.8, [0.0] * 4, 0.9))
    def test_minimum_is_the_oracle_minimum(self, ring):
        E_z, J, lam = ring
        chain = ChainSpec(N=len(J), E_z=E_z, E_c=8.0, ising=IsingProfile.explicit(J))
        ms = ModeSet(modes=(1, 2), lambda0=lam, N=chain.N, E_c=8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a minimizer at phi_max
            state = minimize_phi(chain, ms, self.SEARCH)
        assert state.e_g == pytest.approx(oracle_energy(chain, ms, state.phi), abs=1e-10)
        assert state.e_g <= min(oracle_energy(chain, ms, phi) for phi in self.SCAN) + 1e-12


@st.composite
def mean_field_points(draw):
    N = draw(st.integers(1, 60))
    bond = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
    J = [0.0] * N if draw(st.booleans()) else draw(st.lists(bond, min_size=N, max_size=N))
    chain = ChainSpec(
        N=N, E_z=draw(st.floats(0.2, 1.5)), E_c=8.0, ising=IsingProfile.explicit(J)
    )
    modes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    ms = ModeSet(modes=tuple(modes), lambda0=draw(st.floats(0.0, 1.0)), N=N, E_c=8.0)
    amplitude = st.floats(-0.8, 0.8, allow_nan=False, allow_infinity=False)
    phi = np.array(draw(st.lists(amplitude, min_size=len(modes), max_size=len(modes))))
    return chain, ms, phi


class TestGradient:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mean_field_points())
    def test_matches_central_differences(self, point):
        chain, ms, phi = point
        e_g, grad = _energy_and_gradient(phi, chain, ms)
        assert e_g == pytest.approx(energy_per_particle(chain, ms, phi), abs=1e-12)
        h = 1e-5
        step = h * np.eye(ms.n_modes)
        fd = np.array([
            (energy_per_particle(chain, ms, phi + d) - energy_per_particle(chain, ms, phi - d))
            / (2.0 * h)
            for d in step
        ])
        assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(fd))))


class TestResidual:
    """The self-consistency gap from one solve, against the gradient and ``-diag(G)``."""

    @pytest.mark.parametrize(
        "N, modes, phi",
        [
            (40, (2,), [0.3]),
            (200, (2,), [0.2856]),  # two translation blocks of 100 sites
            (60, (1, 2), [0.2, -0.15]),
            (40, (1, 2, 3), [0.05, 0.3, -0.1]),
        ],
    )
    def test_matches_gradient_and_contraction_diagonal(self, N, modes, phi):
        chain = ChainSpec(N=N, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.5, 0.2, 2))
        ms = ModeSet(modes=modes, lambda0=0.9, N=N, E_c=8.0)
        phi = np.array(phi)
        resid = order_parameter_residual(chain, ms, phi)
        _, grad = _energy_and_gradient(phi, chain, ms)
        np.testing.assert_allclose(resid, np.abs(grad) / 2, rtol=0, atol=1e-15)
        # <s^z_j> as a correlation report reads it: -diag(G), G of the whole ring
        fld = effective_field(chain, ms, phi)
        sz = -np.diag(ground_sector(fld, chain.bonds()).G)
        measured = (ms.couplings @ (np.sin(fld.theta) * sz)) / N
        implied = phi * (ms.frequencies + 4.0 * ms.D)
        np.testing.assert_allclose(resid, np.abs(measured - implied), rtol=0, atol=1e-15)


class TestSymmetries:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mean_field_points())
    def test_energy_is_even_under_the_joint_flip(self, point):
        chain, ms, phi = point
        e = energy_per_particle(chain, ms, phi)
        assert abs(energy_per_particle(chain, ms, -phi) - e) <= 1e-14 * max(1.0, abs(e))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mean_field_points())
    def test_decoupled_ring_is_minus_the_mean_field(self, point):
        # with J = 0 each site is a free spin in Omega(j): the chain part of
        # e_g is -mean(Omega) at any amplitudes
        chain, ms, phi = point
        chain = ChainSpec(N=chain.N, E_z=chain.E_z, E_c=8.0, ising=IsingProfile.uniform(0.0))
        field_part = float(np.sum((ms.frequencies + 4.0 * ms.D) * phi * phi))
        chain_part = energy_per_particle(chain, ms, phi) - field_part
        Omega = effective_field(chain, ms, phi).Omega
        assert abs(chain_part + float(np.mean(Omega))) <= 1e-13


@st.composite
def concavity_points(draw):
    """``(E_z, bonds, modes, lambda0, phi, v, h)``: a ring of up to 40 sites under modes from
    1-3, amplitudes ``phi``, a direction ``v`` and a step ``h``; N = 1, 2, 3, J = 0 and
    uniform rings, where the odd sector's energy is not concave, come up often."""
    N = draw(st.one_of(st.integers(1, 3), st.integers(4, 40)))
    bond = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)
    J = draw(st.one_of(st.just([0.0] * N), st.lists(bond, min_size=N, max_size=N),
                       bond.map(lambda J: [J] * N)))
    modes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    amplitudes = st.lists(st.floats(-1.0, 1.0), min_size=len(modes), max_size=len(modes))
    return (draw(st.floats(0.05, 2.0)), J, tuple(modes), draw(st.floats(0.0, 2.0)),
            draw(amplitudes), draw(amplitudes), draw(st.floats(1e-3, 0.5)))


class TestChainEnergyConcavity:
    """The chain part ``u(phi) = e_g(phi) - sum_l (omega_l + 4 D_l) phi_l^2`` is concave.

    ``u`` is the ground energy per site of ``H = -sum_j Omega_j s^z_j - sum_j J_j s^y_j
    s^y_{j+1}`` at the fields ``Omega(phi)``.  ``-E(Omega)`` is the maximum over states of
    ``sum_j Omega_j <s^z_j> + const``, a maximum of functions affine in ``Omega``, so it is
    convex in ``Omega``.  It is nondecreasing in each ``Omega_j``: its derivative is
    ``<s^z_j>`` in the ground state, which is at least 0 because, with ``Omega > 0`` and
    ``J >= 0``, that state has nonnegative amplitudes in the ``s^y`` basis (Perron-Frobenius),
    where ``s^z_j`` flips spin ``j`` with a nonnegative matrix element.  Each ``Omega_j =
    sqrt((E_z/2)^2 + d_j^2)`` is convex in the drive ``d``, and ``d`` is linear in ``phi``.
    A nondecreasing convex function of convex functions is convex, so ``-u`` is convex.
    The argument shares nothing with the fermion solver, whose output is checked along
    random lines; the odd sector's energy, not monotone in ``Omega`` on strong uniform
    rings, fails the check.
    """

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(concavity_points())
    @example((0.8, [0.3], (1,), 0.9, [0.2], [1.0], 0.1))
    @example((0.8, [0.3, 1.2], (1, 2), 1.2, [0.1, -0.2], [0.5, 1.0], 0.2))
    @example((0.4, [0.2, 0.5, 0.1], (2,), 1.5, [0.05], [1.0], 0.05))
    @example((0.8, [0.0] * 5, (1, 3), 0.9, [0.3, 0.1], [-1.0, 0.4], 0.3))
    @example((0.9, [2.0, 2.0], (1, 2), 0.5, [0.95, -0.8], [-0.8, -0.9], 0.45))
    def test_second_differences_are_not_positive(self, point):
        E_z, J, modes, lam, phi, v, h = point
        chain = ChainSpec(N=len(J), E_z=E_z, E_c=8.0, ising=IsingProfile.explicit(J))
        ms = ModeSet(modes=modes, lambda0=lam, N=chain.N, E_c=8.0)
        a = ms.frequencies + 4.0 * ms.D

        def u(x):
            return energy_per_particle(chain, ms, x) - float(np.sum(a * x * x))

        phi, v = np.array(phi), np.array(v)
        second = u(phi - h * v) + u(phi + h * v) - 2.0 * u(phi)
        # the rounding of three spectra and of the field parts they are taken from
        scale = abs(u(phi)) + float(np.sum(a * (np.abs(phi) + h * np.abs(v)) ** 2))
        assert second <= 1e-12 * scale


@st.composite
def unit_scaling_points(draw):
    N = draw(st.integers(1, 60))
    bond = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
    chain = ChainSpec(
        N=N, E_z=draw(st.floats(0.2, 1.5)), E_c=8.0,
        ising=IsingProfile.explicit(draw(st.lists(bond, min_size=N, max_size=N))),
    )
    return chain, draw(st.integers(1, 4)), draw(st.floats(1e-3, 2.0)), draw(st.floats(0.0, 1.5))


class TestUnitScaling:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(unit_scaling_points())
    def test_energy_is_the_unit_curve_rescored(self, point):
        # e(phi; lambda0) = e_1(s) + omega s^2 (1/lambda0^2 - 1) with s = lambda0 phi
        chain, mode, lam, phi = point
        ms = ModeSet(modes=(mode,), lambda0=lam, N=chain.N, E_c=8.0)
        unit = ModeSet(modes=(mode,), lambda0=1.0, N=chain.N, E_c=8.0)
        s = lam * phi
        e = energy_per_particle(chain, ms, [phi])
        rescored = energy_per_particle(chain, unit, [s]) + ms.frequencies[0] * s * s * (
            1.0 / lam**2 - 1.0
        )
        assert abs(e - rescored) <= 1e-12 * max(1.0, abs(e))


@st.composite
def bound_points(draw, max_N=40):
    """One mode on a ring; N = 1, 2, 3 and J = 0 come up often."""
    N = draw(st.one_of(st.integers(1, 3), st.integers(4, max_N)))
    bond = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)
    J = [0.0] * N if draw(st.booleans()) else draw(st.lists(bond, min_size=N, max_size=N))
    E_c = draw(st.floats(0.5, 10.0))
    chain = ChainSpec(
        N=N, E_z=draw(st.floats(0.05, 2.0)), E_c=E_c, ising=IsingProfile.explicit(J)
    )
    lam = draw(st.floats(0.0, 2.0))
    return chain, ModeSet(modes=(draw(st.integers(1, 4)),), lambda0=lam, N=N, E_c=E_c)


def column_norm_mean(chain, ms, x):
    return meanfield._column_norm_mean(chain, ms.couplings[0], np.asarray(x, dtype=float))


class TestEnergyBound:
    """``e_g(phi) >= (omega + 4 D) phi^2 - S(phi)``, the bound the scan skips samples by."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bound_points(), st.floats(0.0, 2.0))
    def test_energy_is_at_least_the_bound(self, point, phi):
        # a decoupled ring has a diagonal T and meets the bound
        chain, ms = point
        field_part = (ms.frequencies[0] + 4.0 * ms.D[0]) * phi * phi
        S = column_norm_mean(chain, ms, [phi])[0]
        e = energy_per_particle(chain, ms, [phi])
        assert e >= field_part - S - 1e-13 * (field_part + S)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        bound_points(),
        st.floats(0.0, 2.0),
        st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=5),
    )
    def test_cell_bound_lies_under_the_bound_on_its_cell(self, point, start, widths):
        chain, ms = point
        a = ms.frequencies[0] + 4.0 * ms.D[0]
        x = start + np.cumsum([0.0, *widths])
        S = column_norm_mean(chain, ms, x)
        cells = meanfield._cell_bounds(a, x, S)
        assert cells.shape == (len(widths),)
        slack = 1e-13 * (a * x[-1] ** 2 + S[-1])
        for k, cell in enumerate(cells):
            fine = np.linspace(x[max(k - 1, 0)], x[k + 1], 201)
            assert cell <= np.min(a * fine * fine - column_norm_mean(chain, ms, fine)) + slack

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bound_points(), st.floats(-2.0, 2.0))
    def test_singular_values_sum_to_at_most_the_column_norms(self, point, phi):
        # dense SVD shares nothing with the banded spectrum; for N >= 2 the
        # column norms of T are the terms of S, and N = 1 has no corner
        chain, ms = point
        fld = effective_field(chain, ms, [phi])
        for sector in Sector:
            T = build_quadratic_form(fld, chain.bonds(), sector).T
            columns = float(np.linalg.norm(T, axis=0).sum())
            assert np.linalg.svd(T, compute_uv=False).sum() <= columns * (1.0 + 1e-13)
            assert columns <= chain.N * column_norm_mean(chain, ms, [phi])[0] * (1.0 + 1e-13)


def bounded_min(f, a, b, tol):
    """scipy's bounded Brent on ``[a, b]`` to ``xatol = tol``: the line search's oracle."""
    from scipy import optimize

    res = optimize.minimize_scalar(f, bounds=(a, b), method="bounded", options={"xatol": tol})
    return float(res.x), float(res.fun)


@st.composite
def smooth_cells(draw):
    """A cell ``[lo, hi]`` of ``0 <= lo``, an energy on it, its exact minimizer,
    the points known before the search and a tolerance.

    The energy is ``c0 + c2 (x - m)^2 + c4 (x - m)^4``, with ``m`` inside the
    cell, left of it or right of it (a minimum at either end), or flat.  The
    known points hold at least one point of the cell: both ends and the
    middle, as the samples bracketing a cell do, or a few anywhere in it.
    """
    lo = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    width = draw(st.floats(1e-3, 0.5))
    hi = lo + width
    where = draw(st.sampled_from(["inside", "left", "right", "flat"]))
    shift = draw(st.floats(0.0, 1.0))
    m = {"inside": lo + width * (0.02 + 0.96 * shift), "left": lo - width * shift,
         "right": hi + width * shift, "flat": lo}[where]
    c2, c4 = 0.0, 0.0
    if where != "flat":
        c2, c4 = draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 100.0))
        if c2 + c4 < 1e-3:
            c2 = 1.0
    c0 = draw(st.floats(-1.0, 1.0))
    if draw(st.booleans()):
        points = [lo, 0.5 * (lo + hi), hi]
    else:
        points = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=4))
    tol = draw(st.sampled_from([1e-6, 1e-7])) * draw(st.sampled_from([0.2, 1.0, 1.5]))
    return quartic_cell(lo, hi, where, m, c0, c2, c4, points, tol)


def quartic_cell(lo, hi, where, m, c0, c2, c4, points, tol):
    """:func:`smooth_cells`' cell of ``c0 + c2 (x - m)^2 + c4 (x - m)^4`` on ``[lo, hi]``."""
    f = lambda x: c0 + c2 * (x - m) ** 2 + c4 * (x - m) ** 4
    # how far from m the energy stays within rounding of its minimum: no
    # search can place the minimizer closer than that
    noise = 8.0 * np.finfo(float).eps * max(1.0, abs(c0))
    if c4 > 0.0:
        blur = np.sqrt((np.sqrt(c2 * c2 + 4.0 * c4 * noise) - c2) / (2.0 * c4))
    else:
        blur = np.sqrt(noise / c2) if c2 > 0.0 else np.inf
    exact = min(max(m, lo), hi)
    return lo, hi, f, exact, {x: f(x) for x in points}, tol, where, blur


class TestLineSearch:
    """The seeded Brent of every single-mode refinement, against scipy's bounded Brent."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(smooth_cells())
    # flat within rounding over tol at the cell's end (a drop of 1e-16 against
    # values near 1), far from flat across the cell: the end is not the minimum
    @example(quartic_cell(1.0, 1.001, "inside", 1.0005, 1.0, 0.0, 1.0, [1.0], 2e-7))
    # two known points that tie in rounding 1e-96 apart do not bracket the minimum
    @example(quartic_cell(0.0, 0.5, "inside", 0.01, 0.0, 1.0, 0.0, [0.0, 1e-96], 2e-7))
    # a minimum at the cell's end that scipy's bounded method stops short of
    @example(quartic_cell(0.0, 0.5, "right", 0.5, 1.0, 0.0, 1 / 32, [0.0, 0.25, 0.5], 2e-7))
    def test_matches_scipy_on_smooth_cells(self, cell):
        lo, hi, f, exact, known, tol, where, blur = cell
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        x, fx = meanfield._line_min(counted, lo, hi, known, tol)
        assert lo <= x <= hi
        assert fx == f(x)
        # never above the best point it was seeded with
        assert fx <= min(known.values())
        assert len(calls) <= 60
        if where == "flat":
            return
        oracle, _ = bounded_min(f, lo, hi, tol)
        # scipy's bounded method never evaluates the cell's ends: on 1 + (x - 0.5)^4 / 32
        # over [0, 0.5] it stops at 0.49933, beyond the blur of the minimizer at 0.5
        oracle = min((oracle, lo, hi), key=f)
        assert abs(x - oracle) <= tol + blur
        assert abs(x - exact) <= tol + blur

    def test_one_probe_confirms_a_minimum_at_a_cell_end(self):
        # f still falls at the cell's end: one probe tol inside confirms it,
        # where scipy converges onto the end over some 20 evaluations
        f = lambda x: (x - 0.9) ** 2
        for known in ({0.5: f(0.5), 0.6: f(0.6)}, {0.6: f(0.6)}):
            calls = []
            x, fx = meanfield._line_min(lambda u: calls.append(u) or f(u), 0.5, 0.6, known, 1e-6)
            assert x == 0.6 and calls == [0.6 - 1e-6]
        # the last cell of a scan ends past its last sample: that end is
        # computed, then confirmed alike
        calls = []
        known = {0.5: f(0.5), 0.6: f(0.6)}
        x, _ = meanfield._line_min(lambda u: calls.append(u) or f(u), 0.5, 0.7, known, 1e-6)
        assert x == 0.7 and calls == [0.7, 0.7 - 1e-6]

    def test_pinned_origin_is_never_the_answer(self):
        # f rises again by s_1 and the origin is lowest among the samples,
        # but f falls off it: the condensate between is found
        f = lambda x: 1.0 - 1e-4 * x * x + 0.89 * x**4
        s1 = 0.025
        assert f(s1) > f(0.0)
        x, fx = meanfield._line_min(f, 0.0, s1, {0.0: f(0.0), s1: f(s1)}, 1e-6, pinned=True)
        assert x == pytest.approx(np.sqrt(1e-4 / (2 * 0.89)), abs=1e-6)
        assert fx < f(0.0)
        # pinned, lo is left out even where f says otherwise
        x, _ = meanfield._line_min(lambda x: x, 0.0, 0.5, {0.0: 0.0, 0.5: 0.5}, 1e-6, pinned=True)
        assert 0.0 < x <= 1e-6
        assert meanfield._line_min(lambda x: x, 0.0, 0.5, {0.0: 0.0, 0.5: 0.5}, 1e-6)[0] == 0.0

    def test_origin_takes_no_end_rule(self):
        # s = 0 is the best known point and f'(0) = 0: one tol off it the
        # drop, 1e-17, is lost to rounding, and a one-probe end rule would
        # stop there; the search goes on into the cell and finds the condensate
        s1, c2 = 0.025, -1e-5
        c4 = -c2 / (2.0 * (0.3 * s1) ** 2)
        f = lambda x: 1.0 + c2 * x * x + c4 * x**4
        assert f(1e-6) == f(0.0) < f(s1)
        x, fx = meanfield._line_min(f, 0.0, s1, {0.0: f(0.0), s1: f(s1)}, 1e-6)
        assert x == pytest.approx(0.3 * s1, rel=1e-2)
        assert fx < f(0.0)


def full_scan(f, grid, search, scale=1.0, stable=None, eps=0.0):
    """The single-mode scan with every sample computed: the pruned scan's oracle.

    ``f`` and ``grid`` are in units of ``scale phi``.  The first cell takes
    an endpoint where ``stable`` decides it and is line-searched otherwise
    (``stable=None`` always); every interior minimum and a still falling
    last cell are line-searched.  Returns ``phi``, ``e_g``, the degeneracy
    flag and whether the minimizer sits on the ``phi_max`` boundary.
    """
    vals = np.array([f(x) for x in grid])
    tol = scale * search.refine_tol
    if stable:
        first = (grid[0], vals[0]) if vals[1] >= vals[0] else (grid[1], vals[1])
    elif stable is not None and vals[1] < vals[0] and f(grid[1] - eps) >= vals[1]:
        first = (grid[1], vals[1])
    else:
        first = bounded_min(f, grid[0], grid[1], tol)
    inner = np.flatnonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] <= vals[2:])) + 1
    cells = [(grid[i - 1], grid[i + 1]) for i in inner]
    if vals[-1] < vals[-2]:
        cells.append((grid[-2], scale * search.phi_max))
    candidates = [(0.0, vals[0]), first] + [
        bounded_min(f, a, b, tol) for a, b in cells
    ]
    x, fx = min(candidates, key=lambda c: c[1])
    degenerate = any(
        abs(fc - fx) < search.degeneracy_tol and abs(xc - x) / scale > 10 * search.refine_tol
        for xc, fc in candidates
    )
    step = (grid[1] - grid[0]) / scale
    return x / scale, fx, degenerate, x / scale > search.phi_max - 0.5 * step


def curve_scan(curve, lam, stable):
    """:func:`full_scan` of ``curve`` at ``lam``: ``curve.minimize(lam)``'s oracle."""
    search = curve.search
    tilt = 1.0 / lam**2 - 1.0
    f = lambda x: curve.energy(x) + curve.omega * x * x * tilt
    s = curve.samples(lam * search.phi_max)[0]
    return full_scan(f, s, search, lam, stable, curve.lam_lo * search.refine_tol)


def phi_scan(chain, ms, search, stable):
    """:func:`full_scan` of one mode on ``[0, phi_max]``: single-mode ``minimize_phi``'s oracle."""
    f = lambda x: energy_per_particle(chain, ms, np.array([x]))
    grid = np.linspace(0.0, search.phi_max, search.coarse_points)
    return full_scan(f, grid, search, 1.0, stable, search.refine_tol)


def crossing_scan(curve, s_max):
    """``_crossing_onset`` with every sample of ``(0, s_max]`` computed: its oracle."""
    search = curve.search
    if s_max < curve.lam_lo * search.phi_max:
        curve = _UnitCurve(curve.chain, curve.mode, search, s_max / search.phi_max)
    s = curve.samples(s_max)[0]
    e = np.array([curve.energy(x) for x in s])
    ratio = lambda x: (curve.energy(x) - e[0]) / (x * x)
    s, vals = s[1:], (e[1:] - e[0]) / s[1:] ** 2
    i = int(np.argmin(vals))
    if vals[i] >= curve.omega:
        return None
    _, r = bounded_min(
        ratio, s[max(i - 1, 0)], s[min(i + 1, s.size - 1)], search.refine_tol
    )
    return np.sqrt(curve.omega / (curve.omega - min(r, vals[i])))


def assert_same_minimum(got, want, search):
    """The line search's contract against another route to the same minimum:
    ``phi`` within ``refine_tol``, ``e_g`` within 1e-12, every flag equal.

    ``got`` and ``want`` are ``(phi, e_g, *flags)``.
    """
    assert got[0] == pytest.approx(want[0], abs=search.refine_tol)
    assert got[1] == pytest.approx(want[1], abs=1e-12)
    assert got[2:] == want[2:]


def known(e):
    """How many samples of a curve are computed."""
    return int(np.count_nonzero(~np.isnan(e)))


def first_order_chain():
    return ChainSpec(N=40, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.8, 0.5, 2))


def stiff_chain():
    # a small E_c makes the self-energy D outgrow the response at every lambda0
    return ChainSpec(N=8, E_z=0.8, E_c=0.1, ising=IsingProfile.uniform(0.1))


class CountedEnergy:
    """Records the unit-coupling amplitude ``s`` of every energy the curve computes."""

    def __init__(self, monkeypatch):
        self.s = []
        real = meanfield.energy_per_particle

        def counted(chain, modeset, phi):
            self.s.append(float(phi[0]))
            return real(chain, modeset, phi)

        monkeypatch.setattr(meanfield, "energy_per_particle", counted)


class TestUnitCurve:
    @pytest.mark.parametrize(
        "chain, mode, lam_lo, lams",
        [
            (desk_chain(), 2, 0.15, (0.3, 0.175, 0.23, 0.15, 0.25, 0.2)),
            (
                ChainSpec(N=40, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.8, 0.5, 2)),
                2,
                0.9,
                (1.1, 0.9934, 0.9, 0.9954, 1.0),
            ),
        ],
    )
    def test_memo_leaves_no_trace_of_call_order(self, chain, mode, lam_lo, lams):
        # the memo only holds exact energies; the other couplings' probes
        # seed the line searches, which moves a minimizer within refine_tol
        shared = _UnitCurve(chain, mode, QUICK, lam_lo)
        for lam in lams:
            got = shared.minimize(lam)
            fresh = _UnitCurve(chain, mode, QUICK, lam_lo).minimize(lam)
            assert_same_minimum(
                (got.phi[0], got.e_g, got.degenerate),
                (fresh.phi[0], fresh.e_g, fresh.degenerate),
                QUICK,
            )

    def test_second_normal_coupling_pays_only_new_samples(self, monkeypatch):
        # below the spinodal phi = 0 is a local minimum and the first cell
        # takes an endpoint: a normal coupling pays its samples and nothing
        # else, the first of a fresh curve included
        curve = _UnitCurve(desk_chain(), 2, QUICK, 0.15)
        calls = []
        real = meanfield.quasiparticle_energies

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(meanfield, "quasiparticle_energies", counted)
        assert curve.minimize(0.15).phi[0] == 0.0
        before = known(curve.samples(0.15 * QUICK.phi_max)[1])
        assert len(calls) == before
        assert curve.minimize(0.175).phi[0] == 0.0
        after = known(curve.samples(0.175 * QUICK.phi_max)[1])
        assert after >= before
        assert len(calls) == after

    @pytest.mark.parametrize(
        "chain, lam_lo, lams, probes",
        [
            (desk_chain(), 0.15, (0.23, 0.2367, 0.233), 1),
            (desk_chain(), 0.15, (0.25, 0.3, 0.275), 0),
            (first_order_chain(), 0.9, (1.05, 1.1), 0),
        ],
    )
    def test_falling_condensed_couplings_share_one_first_cell_probe(
        self, monkeypatch, chain, lam_lo, lams, probes
    ):
        # above the spinodal a curve still falling just below s_1 ends the
        # first cell there; the probe sits at the same s for every coupling,
        # and it is not made where the chord over [0, s_1] leaves the cell
        # no room for a winning minimum, as for condensates far from s_1
        curve = _UnitCurve(chain, 2, QUICK, lam_lo)
        assert curve.normal.onset < min(lams)
        energies = CountedEnergy(monkeypatch)
        for lam in lams:
            s_1 = curve.step
            tilt = 1.0 / lam**2 - 1.0
            assert curve.energy(s_1) + curve.omega * s_1**2 * tilt < curve.energy(0.0)
            assert curve.minimize(lam).phi[0] > 0.02
        s_1 = curve.step
        probe = s_1 - lam_lo * QUICK.refine_tol
        assert [x for x in energies.s if 0.0 < x < s_1] == [probe] * probes

    @pytest.mark.parametrize("chain, lam_lo", [(desk_chain(), 0.15), (first_order_chain(), 0.9)])
    @pytest.mark.parametrize("offset", [-1e-2, -1e-4, -1e-6, 1e-6, 1e-4, 1e-2])
    def test_first_cell_rule_matches_the_line_search(self, chain, lam_lo, offset):
        # at the spinodal the first cell changes hands: stable origin,
        # hidden condensate and falling edge all keep the line search's answer
        lam = normal_phase_onset(chain, (2,)) * (1.0 + offset)
        state = _UnitCurve(chain, 2, QUICK, lam_lo).minimize(lam)
        phi, e_g, degenerate, _ = curve_scan(_UnitCurve(chain, 2, QUICK, lam_lo), lam, None)
        assert state.phi[0] == pytest.approx(phi, abs=QUICK.refine_tol)
        assert state.e_g == pytest.approx(e_g, abs=1e-12)
        assert state.degenerate == degenerate

    def test_sub_step_condensate_off_an_unstable_origin_is_found(self):
        # e = 1 - 1e-5 s^2 + c4 s^4 holds a condensate under a third of the
        # first step and rises above e(0) again by s_1; one refine_tol off the
        # origin the drop, 1e-17, is lost to rounding, so a one-probe end rule
        # there would snap the answer to 0.  The spinodal gives the curvature
        # omega (1 - 1/lam_s^2) at lam = 1, which seeds the even fit.  The
        # condensate lies 2.8e-10 below e(0), so the degeneracy bar goes lower.
        search = SearchSpec(coarse_points=61, degeneracy_tol=1e-11)
        c2, omega = -1e-5, 1e-3
        curve = SyntheticCurve(None, search, omega, lambda x: np.zeros_like(x))
        s_star = 0.3 * curve.step
        c4 = -c2 / (2.0 * s_star**2)
        curve._f = lambda x: 1.0 + c2 * x * x + c4 * x**4
        curve.normal = _NormalPhase(lam_s=(1.0 - c2 / omega) ** -0.5)
        f = curve._f
        assert f(curve.step) > f(0.0) == f(search.refine_tol)
        phi, e_g, degenerate = curve._scan(1.0)
        # e'' = -4 c2 at s_star: the energy stays within rounding of its
        # minimum over some sqrt(eps / -c2) either side
        blur = np.sqrt(4.0 * np.finfo(float).eps / -c2)
        assert phi[0] == pytest.approx(s_star, abs=search.refine_tol + blur)
        assert e_g < f(0.0)
        assert not degenerate

    def test_failed_spinodal_solve_line_searches_the_first_cell(self, monkeypatch):
        def failing(*args):
            raise SolverError("injected failure")

        monkeypatch.setattr(meanfield, "ground_sector", failing)
        curve = _UnitCurve(desk_chain(), 2, QUICK, 0.15)
        for lam in (0.15, 0.2254, 0.2255, 0.3):
            state = curve.minimize(lam)
            phi, e_g, degenerate, _ = curve_scan(curve, lam, None)
            assert_same_minimum(
                (state.phi[0], state.e_g, state.degenerate), (phi, e_g, degenerate), QUICK
            )
        with pytest.raises(SolverError, match="injected failure"):
            curve.normal.onset
        # minimize_phi falls back alike
        ms = ModeSet(modes=(2,), lambda0=0.3, N=40, E_c=8.0)
        state = minimize_phi(desk_chain(), ms, QUICK)
        assert state.phi[0] == pytest.approx(curve.minimize(0.3).phi[0], abs=QUICK.refine_tol)

    def test_no_finite_spinodal_counts_every_coupling_stable(self, monkeypatch):
        lams = (0.5, 1.0, 3.0)
        oracle = _UnitCurve(stiff_chain(), 1, QUICK, 0.5)
        expected = [curve_scan(oracle, lam, None) for lam in lams]
        curve = _UnitCurve(stiff_chain(), 1, QUICK, 0.5)
        assert curve.normal.onset is None
        energies = CountedEnergy(monkeypatch)
        for lam, (phi, e_g, degenerate, _) in zip(lams, expected):
            state = curve.minimize(lam)
            assert (state.phi[0], state.e_g, state.degenerate) == (0.0, e_g, degenerate)
            assert phi == 0.0
        # the curve only rises: every coupling pays new samples, nothing else
        s, e = curve.samples(3.0 * QUICK.phi_max)
        assert sorted(energies.s) == list(s[~np.isnan(e)])


def outcome(minimize, *args):
    """``minimize(*args)`` as ``phi``, ``e_g``, the degeneracy flag and whether
    the ``phi_max`` boundary warning was raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = minimize(*args)
    boundary = any(issubclass(w.category, RuntimeWarning) for w in caught)
    return state.phi[0], state.e_g, state.degenerate, boundary


class SyntheticCurve(_UnitCurve):
    """A unit curve over a given energy ``f``, read at ``lam = 1``, where the
    re-scoring is exact: the scan sees ``f`` itself, bounded by ``a x^2 -
    chain_bound(x)``, on ``coarse_points`` samples of ``[0, phi_max]``, with
    the origin's stability not known.  ``f - a x^2`` need not be concave, as
    a chain's is, so no chord bounds it."""

    normal = _NormalPhase(error=SolverError("a synthetic curve has no chain"))

    def __init__(self, f, search, a, chain_bound):
        self.search, self.lam_lo, self.omega, self.D = search, 1.0, a, 0.0
        self.step = search.phi_max / (search.coarse_points - 1)
        self._memo = {}
        self._f, self._bound = f, chain_bound

    def energy(self, s):
        if s not in self._memo:
            self._memo[s] = self._f(s)
        return self._memo[s]

    def bound(self, s):
        return self._bound(s)

    def chords(self, s, chain):
        return np.full(s.shape, np.nan)


def as_state(phi, e_g, degenerate, boundary):
    """A :func:`full_scan` result the way the state rounds it."""
    return 0.0 if abs(phi) < 1e-12 else phi, float(e_g), degenerate, bool(boundary)


@st.composite
def pruned_columns(draw):
    """``(chain, mode, factors, search, tie)``: a ring of up to 12 sites under one mode, a
    column of couplings as factors of its spinodal (of 1/2 where that is above 1 or none),
    so that no coupling exceeds 2, where the line search's 1e-12 on ``e_g`` can fail (a
    stronger coupling curves ``e_g`` more within ``refine_tol`` of its minimizer), sampled
    on 21 points of ``[0, phi_max]``, and whether the column also takes its crossing onset, where
    a condensate ties ``phi = 0``.  N = 1, 2, 3 and J = 0 come up often, and so does a
    ``phi_max`` of 0.05, whose boundary every condensate reaches.  Couplings within 1% of
    the spinodal are left out: there ``e_g`` can be flat to rounding over more than
    ``refine_tol`` around its minimizer, which no search then pins down."""
    chain, ms = draw(bound_points(max_N=12))
    factor = st.floats(0.5, 2.0).filter(lambda f: abs(f - 1.0) >= 0.01)
    factors = draw(st.lists(factor, min_size=1, max_size=4))
    search = SearchSpec(phi_max=draw(st.sampled_from([1.5, 0.05])), coarse_points=21)
    return chain, ms.modes[0], factors, search, draw(st.booleans())


def rectangular(N, J_max, J_min, mode):
    return ChainSpec(N=N, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(J_max, J_min, 2)), mode


class TestPrunedScan:
    """Skipping the samples the bound rules out, and the seeded line search, leave the
    answers of the full scan refined by scipy's bounded Brent.

    The minimizer agrees to ``refine_tol``, the energy to 1e-12, and the degeneracy
    flag and the boundary warning exactly.
    """

    def assert_column(self, chain, mode, search, lams, stable):
        curve = _UnitCurve(chain, mode, search, min(lams))
        for lam in lams:
            oracle = _UnitCurve(chain, mode, search, min(lams))
            expected = as_state(*curve_scan(oracle, lam, stable(lam)))
            assert_same_minimum(outcome(curve.minimize, lam), expected, search)
            ms = ModeSet(modes=(mode,), lambda0=lam, N=chain.N, E_c=chain.E_c)
            expected = as_state(*phi_scan(chain, ms, search, stable(lam)))
            assert_same_minimum(outcome(minimize_phi, chain, ms, search), expected, search)

    @pytest.mark.parametrize(
        "chain, mode",
        [
            (desk_chain(), 2),
            (first_order_chain(), 2),
            (ChainSpec(N=1, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.3)), 1),
            (ChainSpec(N=2, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.3)), 2),
            (ChainSpec(N=3, E_z=0.6, E_c=8.0, ising=IsingProfile.explicit([0.2, 0.5, 0.1])), 2),
            # a decoupled ring meets the bound: only the rounding allowance is left
            (ChainSpec(N=3, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.0)), 1),
        ],
    )
    def test_column_matches_the_full_scan(self, chain, mode):
        lam_s = normal_phase_onset(chain, (mode,))
        lams = [lam_s * f for f in (0.8, 0.98, 0.999, 1.001, 1.05, 1.3, 2.0)]
        self.assert_column(chain, mode, QUICK, lams, lambda lam: lam < lam_s)

    def test_stable_column_matches_the_full_scan(self):
        assert normal_phase_onset(stiff_chain(), (1,)) is None
        self.assert_column(stiff_chain(), 1, QUICK, (0.5, 1.0, 3.0), lambda lam: True)

    def test_degenerate_double_minimum(self):
        # at the crossing onset phi = 0 ties the condensate
        chain = first_order_chain()
        lam = _crossing_onset(_UnitCurve(chain, 2, QUICK, 0.9), 0.9 * QUICK.phi_max)
        assert lam < normal_phase_onset(chain, (2,))
        assert curve_scan(_UnitCurve(chain, 2, QUICK, 0.9), lam, True)[2]
        self.assert_column(chain, 2, QUICK, (lam,), lambda lam: True)

    def test_phi_max_boundary_hit(self):
        chain = desk_chain()
        lam = DESK_LAMBDA_C + 0.08
        tight = SearchSpec(phi_max=0.02, coarse_points=21)
        ms = ModeSet(modes=(2,), lambda0=lam, N=40, E_c=8.0)
        expected = as_state(*phi_scan(chain, ms, tight, False))
        assert expected[3]
        # the energy still falls at phi_max: one probe confirms the end itself,
        # where scipy stops up to refine_tol short of it, a little higher
        for got in (
            outcome(_UnitCurve(chain, 2, tight, lam).minimize, lam),
            outcome(minimize_phi, chain, ms, tight),
        ):
            assert got[0] == pytest.approx(tight.phi_max, rel=1e-14)
            assert got[0] == pytest.approx(expected[0], abs=tight.refine_tol)
            assert expected[1] - 1e-7 < got[1] <= expected[1]
            assert got[2:] == expected[2:]

    def test_failed_spinodal_solve(self, monkeypatch):
        def failing(*args):
            raise SolverError("injected failure")

        monkeypatch.setattr(meanfield, "ground_sector", failing)
        lams = (0.15, 0.2254, 0.2255, 0.3)
        self.assert_column(desk_chain(), 2, QUICK, lams, lambda lam: None)

    def test_a_sample_below_every_line_search_is_the_answer(self):
        # a dip at one sample, which scipy's bounded Brent never meets: the
        # seeded line search starts from it, so no candidate ends above the
        # lowest value computed, and the cells the bound rules out, around
        # the well near 1.2, hold nothing below it
        search = SearchSpec(phi_max=1.5, coarse_points=31)
        grid = np.linspace(0.0, 1.5, 31)
        f = lambda x: min((x - 0.52) ** 2, (x - 1.2) ** 2 - 0.1) - 0.3 * (x == grid[10])
        # 0.25 (x - 0.52)^2 - 0.3 lies under f on [0, 1.5]
        a, chain_bound = 0.25, lambda x: 0.26 * x + 0.2324
        assert min(f(x) - a * x * x + chain_bound(x) for x in np.linspace(0, 1.5, 3001)) >= 0
        assert full_scan(f, grid, search)[0] == pytest.approx(1.2, abs=1e-5)
        curve = SyntheticCurve(f, search, a, chain_bound)
        phi, e_g, degenerate = curve._scan(1.0)
        assert (phi[0], e_g, degenerate) == (grid[10], f(grid[10]), False)
        assert e_g == min(curve._memo.values())
        assert known(curve.samples(1.5)[1]) < grid.size

    def test_cells_within_the_degeneracy_tolerance_stay_live(self):
        # the second well lies 0.29 above the first and its cells are bounded
        # from 0.18 above it: only the degeneracy_tol in the margin keeps
        # them live and the flag set
        search = SearchSpec(phi_max=1.5, coarse_points=31, degeneracy_tol=0.35)
        grid = np.linspace(0.0, 1.5, 31)
        a, chain_bound = 1.0, lambda x: x
        f = lambda x: x * x - x + min(
            0.02 + 3.0 * (x - 0.5) ** 2, 0.01 + 5.0 * (x - 1.1) ** 2
        )
        expected = full_scan(f, grid, search)
        assert expected[2]
        phi, e_g, degenerate = SyntheticCurve(f, search, a, chain_bound)._scan(1.0)
        assert_same_minimum((phi[0], e_g, degenerate, False), expected, search)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(bound_points(max_N=12))
    def test_random_rings_match_the_full_scan(self, point):
        chain, ms = point
        search = SearchSpec(coarse_points=21)
        lam_s = normal_phase_onset(chain, ms.modes)
        stable = lam_s is None or ms.lambda0 < lam_s
        expected = as_state(*phi_scan(chain, ms, search, stable))
        assert_same_minimum(outcome(minimize_phi, chain, ms, search), expected, search)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(pruned_columns())
    @example((*rectangular(12, 0.8, 0.5, 2), [0.8, 0.95, 1.3], SearchSpec(coarse_points=21), True))
    @example((*rectangular(12, 0.8, 0.5, 2), [1.3, 2.0],
              SearchSpec(phi_max=0.05, coarse_points=21), False))
    @example((ChainSpec(N=1, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.3)), 1, [0.9, 1.2],
              SearchSpec(coarse_points=21), True))
    @example((ChainSpec(N=3, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.0)), 1, [0.9, 1.5],
              SearchSpec(coarse_points=21), True))
    def test_random_columns_match_the_full_scan(self, point):
        # the couplings of a column share one curve, whose samples and probes
        # each later coupling re-scores and bounds its cells by; the crossing
        # onset is read off the same curve afterwards.  The first example is
        # a first-order ring whose crossing is a near-tie of two minima
        chain, mode, factors, search, tie = point
        lam_s = normal_phase_onset(chain, (mode,))
        lams = [(lam_s if lam_s is not None and lam_s <= 1.0 else 0.5) * f for f in factors]
        if tie:
            # a first-order crossing, clear of the spinodal: two distinct minima tie
            lam_x = _crossing_onset(
                _UnitCurve(chain, mode, search, min(lams)), max(lams) * search.phi_max
            )
            lams += [lam_x] if lam_x is not None and lam_x < 0.995 * (lam_s or math.inf) else []
        curve = _UnitCurve(chain, mode, search, min(lams))
        for lam in lams:
            oracle = _UnitCurve(chain, mode, search, min(lams))
            stable = lam_s is None or lam < lam_s
            expected = as_state(*curve_scan(oracle, lam, stable))
            got = outcome(curve.minimize, lam)
            if expected[3]:
                # at phi_max one probe confirms the end itself, where scipy
                # stops up to refine_tol short of it, higher by about that
                # times the slope of the last step
                h = search.phi_max / (search.coarse_points - 1)
                e = [oracle.energy(lam * p) + oracle.omega * p * p * (1.0 - lam * lam)
                     for p in (search.phi_max - h, search.phi_max)]
                assert 0.0 <= expected[1] - got[1] <= 2.0 * search.refine_tol * (e[0] - e[1]) / h
                got = (got[0], expected[1], *got[2:])
            if expected[2]:
                # a tie: either minimizer is the answer
                got = (expected[0], *got[1:])
            assert_same_minimum(got, expected, search)
        s_max = max(lams) * search.phi_max
        expected = crossing_scan(_UnitCurve(chain, mode, search, min(lams)), s_max)
        got = _crossing_onset(curve, s_max)
        assert (got is None) == (expected is None)
        if got is not None:
            # the ratio (e(s) - e(0)) / s^2 carries the rounding of two energies
            # over s^2, and lambda = sqrt(omega / (omega - ratio)) magnifies it
            s_1 = min(curve.step, s_max / (search.coarse_points - 1))
            noise = 8.0 * np.finfo(float).eps * abs(curve.energy(0.0)) / s_1**2
            assert got == pytest.approx(expected, abs=1e-12 + got**3 / curve.omega * noise)

    def test_pinned_count_of_a_column(self, monkeypatch):
        # the first-order column of the bisection tests: 8 sweep points, a
        # crossing and the two probes either side of it
        calls = []
        real = meanfield.quasiparticle_energies

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(meanfield, "quasiparticle_energies", counted)
        ctx = SweepContext(chain=first_order_chain(), modes=(2,), search=QUICK)
        cls = classify_transition_order(sweep(ctx, "lambda0", np.linspace(0.9, 1.1, 8)))
        assert cls.order == "first"
        # 81 with the slope probe and the spinodal's probes and no chord
        # bounds, 82 before the couplings' exact antiperiodicity moved their
        # last bits, 104 with scipy's bounded Brent, 148 with every sample of
        # the scan computed
        assert len(calls) == 65


class TestMinimize:
    def test_zero_coupling_stays_normal(self):
        chain = desk_chain()
        ms = ModeSet(modes=(2,), lambda0=0.0, N=40, E_c=8.0)
        state = minimize_phi(chain, ms, QUICK)
        assert state.phi[0] == 0.0
        assert not state.degenerate

    def test_below_onset(self):
        chain = desk_chain()
        ms = ModeSet(modes=(2,), lambda0=DESK_LAMBDA_C - 0.06, N=40, E_c=8.0)
        state = minimize_phi(chain, ms, QUICK)
        assert state.phi[0] == 0.0
        np.testing.assert_array_equal(state.Sigma_x, 0.0)

    def test_above_onset(self):
        chain = desk_chain()
        ms = ModeSet(modes=(2,), lambda0=DESK_LAMBDA_C + 0.06, N=40, E_c=8.0)
        state = minimize_phi(chain, ms, QUICK)
        assert state.phi[0] > 0.02
        assert state.e_g < energy_per_particle(chain, ms, [0.0]) - 1e-8
        np.testing.assert_allclose(
            state.Sigma_x, state.phi * (ms.frequencies + 4.0 * ms.D), atol=1e-14
        )

    def test_minimizer_is_self_consistent(self):
        chain = desk_chain()
        ms = ModeSet(modes=(2,), lambda0=DESK_LAMBDA_C + 0.06, N=40, E_c=8.0)
        state = minimize_phi(chain, ms, QUICK)
        resid = order_parameter_residual(chain, ms, state.phi)
        assert float(np.max(resid)) < 1e-4

    def test_edge_modes_keep_the_minimum_self_consistent(self):
        # the worst point of acceptance criterion 7: the strong bonds carry
        # near-zero edge modes, whose squared-spectrum noise alone moves the
        # minimum enough to raise the residual to about 4e-6
        chain = ChainSpec(N=200, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.6, 0.3, 2))
        ms = ModeSet(modes=(2,), lambda0=0.8, N=200, E_c=8.0)
        state = minimize_phi(chain, ms, QUICK)
        assert state.phi[0] > 0.1
        assert float(np.max(order_parameter_residual(chain, ms, state.phi))) <= 1e-7

    def test_residual_nonzero_off_stationarity(self):
        chain = desk_chain()
        ms = ModeSet(modes=(2,), lambda0=DESK_LAMBDA_C + 0.06, N=40, E_c=8.0)
        resid = order_parameter_residual(chain, ms, [0.4])
        assert float(np.max(resid)) > 1e-3

    def test_multimode_joint_condensate(self):
        # just above the mode-2 onset the joint minimizer is mode-2
        # dominated, but the neighbors pick up real admixture through the
        # profile overlaps (the cos(l pi j / N) rows are not orthogonal
        # under the ring sum), so the joint state undercuts every
        # single-channel energy and must still be stationary
        chain = desk_chain()
        lam = DESK_LAMBDA_C + 0.003
        single = minimize_phi(chain, ModeSet(modes=(2,), lambda0=lam, N=40, E_c=8.0), QUICK)
        multi_search = SearchSpec(multi_coarse_points=7, n_seeds=2)
        ms = ModeSet(modes=(1, 2, 3), lambda0=lam, N=40, E_c=8.0)
        multi = minimize_phi(chain, ms, multi_search)
        assert single.phi[0] > 0.01
        assert int(np.argmax(np.abs(multi.phi))) == 1
        assert multi.phi[1] > 0.01
        assert multi.e_g <= single.e_g + 1e-12
        resid = order_parameter_residual(chain, ms, multi.phi)
        assert float(np.max(resid)) < 1e-4
        again = minimize_phi(chain, ms, multi_search)
        np.testing.assert_array_equal(again.phi, multi.phi)

    def test_multimode_zero_coupling(self):
        chain = ChainSpec(N=8, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.1))
        ms = ModeSet(modes=(1, 2), lambda0=0.0, N=8, E_c=8.0)
        search = SearchSpec(multi_coarse_points=5, n_seeds=2)
        state = minimize_phi(chain, ms, search)
        np.testing.assert_array_equal(state.phi, 0.0)

    def test_polish_leaves_an_unstable_origin(self):
        # the gradient vanishes at phi = 0, so only the origin Hessian can
        # show the polish the mixed-mode direction that softens first
        chain = ChainSpec(N=40, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.05))
        onset = normal_phase_onset(chain, (1, 2, 3))
        assert onset == pytest.approx(0.61972, abs=1e-5)
        search = SearchSpec(multi_coarse_points=7, n_seeds=1)
        below = ModeSet(modes=(1, 2, 3), lambda0=onset - 1e-3, N=40, E_c=8.0)
        np.testing.assert_array_equal(minimize_phi(chain, below, search).phi, 0.0)
        above = ModeSet(modes=(1, 2, 3), lambda0=onset + 1e-3, N=40, E_c=8.0)
        state = minimize_phi(chain, above, search)
        assert np.all(state.phi > 1e-3)
        assert float(np.max(order_parameter_residual(chain, above, state.phi))) < 1e-4

    def test_failed_phi_zero_solve_raises_in_the_polish(self, monkeypatch):
        # the origin seed's Hessian reads the column's phi = 0 record, failure and all
        chain = ChainSpec(N=40, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.05))
        failed = _NormalPhase(error=SolverError("injected failure"))
        monkeypatch.setattr(meanfield, "_normal_phase", lambda *args: failed)
        ms = ModeSet(modes=(1, 2, 3), lambda0=0.6207, N=40, E_c=8.0)
        with pytest.raises(SolverError, match="injected failure"):
            minimize_phi(chain, ms, SearchSpec(multi_coarse_points=7, n_seeds=1))

    def test_single_mode_reads_the_mode_set(self):
        # D comes from the mode set's E_c, whatever the chain's
        chain = desk_chain()
        ms = ModeSet(modes=(2,), lambda0=0.3, N=40, E_c=0.5)
        state = minimize_phi(chain, ms, QUICK)
        assert state.e_g == pytest.approx(energy_per_particle(chain, ms, state.phi), abs=1e-12)
        phi, e_g, _, _ = phi_scan(chain, ms, QUICK, None)
        assert state.phi[0] == pytest.approx(phi, abs=QUICK.refine_tol)
        assert state.e_g == pytest.approx(e_g, abs=1e-12)
        with pytest.raises(ValueError, match="different chain size"):
            minimize_phi(chain, ModeSet(modes=(2,), lambda0=0.3, N=20, E_c=8.0), QUICK)

    def test_boundary_warning(self):
        chain = desk_chain()
        ms = ModeSet(modes=(2,), lambda0=DESK_LAMBDA_C + 0.08, N=40, E_c=8.0)
        tight = SearchSpec(phi_max=0.02, coarse_points=21)
        with pytest.warns(RuntimeWarning):
            state = minimize_phi(chain, ms, tight)
        assert state.phi[0] >= 0.015


def origin_hessian(chain, modes, lambda0, h=1e-3):
    """Central-difference Hessian of ``e_g`` at ``phi = 0``."""
    ms = ModeSet(modes=modes, lambda0=lambda0, N=chain.N, E_c=chain.E_c)
    n = len(modes)
    e = lambda phi: energy_per_particle(chain, ms, np.asarray(phi, dtype=float))
    step = h * np.eye(n)
    e0 = e(np.zeros(n))
    H = np.empty((n, n))
    for a in range(n):
        H[a, a] = (e(step[a]) - 2.0 * e0 + e(-step[a])) / h**2
        for b in range(a):
            H[a, b] = H[b, a] = (
                e(step[a] + step[b]) - e(step[a] - step[b])
                - e(step[b] - step[a]) + e(-step[a] - step[b])
            ) / (4.0 * h**2)
    return H


def uniform_chain(N=200):
    return ChainSpec(N=N, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.05))


class TestNormalPhaseOnset:
    @pytest.mark.parametrize(
        "chain, modes",
        [
            (desk_chain(), (2,)),
            (uniform_chain(), (1, 2, 3)),
            (ChainSpec(N=1, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.3)), (1,)),
            (ChainSpec(N=2, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.3)), (1, 2)),
            (ChainSpec(N=3, E_z=0.6, E_c=8.0, ising=IsingProfile.explicit([0.2, 0.5, 0.1])), (2,)),
        ],
    )
    def test_curvature_changes_sign(self, chain, modes):
        lam = normal_phase_onset(chain, modes)
        assert np.linalg.eigvalsh(origin_hessian(chain, modes, lam - 1e-3))[0] > 0.0
        assert np.linalg.eigvalsh(origin_hessian(chain, modes, lam + 1e-3))[0] < 0.0

    def test_desk_value(self):
        assert normal_phase_onset(desk_chain(), (2,)) == pytest.approx(DESK_LAMBDA_C, abs=1e-4)

    def test_uniform_ring_modes_share_the_onset(self):
        chain = uniform_chain()
        singles = [normal_phase_onset(chain, (l,)) for l in (1, 2, 3)]
        assert max(singles) - min(singles) <= 1e-9
        # the cos(l pi j / N) rows overlap under the polarization weights,
        # so the joint Hessian softens before any diagonal entry does
        assert normal_phase_onset(chain, (1, 2, 3)) < min(singles)

    @pytest.mark.parametrize("period", [2, 3])
    def test_windows_select_their_mode(self, period):
        chain = ChainSpec(
            N=200, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.35, 0.05, period)
        )
        onsets = {l: normal_phase_onset(chain, (l,)) for l in (1, 2, 3)}
        assert min(onsets, key=onsets.get) == period

    def test_one_site_closed_form(self):
        # one spin at s^z = +1, lambda_l(0) = lambda0 sqrt(l), D_l = lambda0^2 l / (4 E_c):
        # H = 2 l + lambda0^2 l (2 / E_c - 8 / E_z)
        chain = ChainSpec(N=1, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.3))
        for l in (1, 2):
            assert normal_phase_onset(chain, (l,)) == pytest.approx(
                (4.0 / 0.8 - 1.0 / 8.0) ** -0.5, rel=1e-12
            )

    @pytest.mark.parametrize("N", [2, 3])
    def test_small_rings_against_brute_force(self, N):
        # the single-mode root of H with <s^z_j> from exact diagonalization
        chain = ChainSpec(
            N=N, E_z=0.6, E_c=8.0, ising=IsingProfile.explicit([0.2, 0.5, 0.1][:N])
        )
        problem = DenseSpinProblem(Omega=np.full(N, 0.3), J=chain.bonds())
        _, state = exact_ground(problem, parity=+1)
        sz = exact_expectations(problem, state)["sigma_z"]
        for l in (1, 2):
            ms = ModeSet(modes=(l,), lambda0=1.0, N=N, E_c=8.0)
            c = ms.couplings[0]
            Q = 8.0 * ms.D[0] - 8.0 / (N * 0.6) * float(np.sum(sz * c * c))
            assert normal_phase_onset(chain, (l,)) == pytest.approx(
                np.sqrt(-2.0 * l / Q), rel=1e-10
            )

    def test_none_when_origin_never_destabilizes(self):
        # a small E_c makes the self-energy D outgrow the response at every lambda0
        chain = ChainSpec(N=8, E_z=0.8, E_c=0.1, ising=IsingProfile.uniform(0.1))
        assert normal_phase_onset(chain, (1, 2)) is None
        assert np.linalg.eigvalsh(origin_hessian(chain, (1, 2), 3.0))[0] > 0.0


class TestCrossingOnset:
    @pytest.mark.parametrize(
        "chain, mode",
        [
            (desk_chain(), 2),
            (uniform_chain(), 1),
            (ChainSpec(N=1, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.3)), 1),
            (ChainSpec(N=2, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.3)), 1),
            (ChainSpec(N=2, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.3)), 2),
            (ChainSpec(N=3, E_z=0.6, E_c=8.0, ising=IsingProfile.explicit([0.2, 0.5, 0.1])), 2),
        ],
    )
    def test_second_order_lies_at_or_above_linear_response(self, chain, mode):
        # the smallest crossing of a second-order curve sits at s -> 0,
        # which the scan of (0, s_max] only approaches from above
        lam = normal_phase_onset(chain, (mode,))
        curve = _UnitCurve(chain, mode, QUICK, 1.2 * lam)
        crossing = _crossing_onset(curve, 1.2 * lam * QUICK.phi_max)
        assert lam - 1e-12 <= crossing < lam + 0.01

    def test_first_order_lies_below_linear_response(self):
        chain = ChainSpec(N=40, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.8, 0.5, 2))
        crossing = _crossing_onset(_UnitCurve(chain, 2, QUICK, 1.1), 1.1 * QUICK.phi_max)
        assert crossing < normal_phase_onset(chain, (2,)) - 0.02

    def test_coarse_curve_is_resampled_finer(self):
        # a curve coarser than s_max / (coarse_points - 1) hands the scan
        # to a fresh one sampled on (0, s_max]
        chain = ChainSpec(N=40, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.8, 0.5, 2))
        coarse = _UnitCurve(chain, 2, QUICK, 2.0)
        fine = _UnitCurve(chain, 2, QUICK, 1.1)
        s_max = fine.lam_lo * QUICK.phi_max
        assert _crossing_onset(coarse, s_max) == _crossing_onset(fine, s_max)
        assert coarse._memo == {}  # the coarse curve was never sampled

    def test_none_when_origin_never_destabilizes(self):
        chain = ChainSpec(N=8, E_z=0.8, E_c=0.1, ising=IsingProfile.uniform(0.1))
        for mode in (1, 2):
            assert _crossing_onset(_UnitCurve(chain, mode, QUICK, 3.0), 3.0 * QUICK.phi_max) is None

    @pytest.mark.parametrize(
        "chain, mode, lam_lo, s_max",
        [
            (desk_chain(), 2, 0.27, 0.27 * QUICK.phi_max),
            (uniform_chain(), 1, 0.77, 0.77 * QUICK.phi_max),
            # the weak column of the benchmark's phase-column workload at seed 1
            (
                ChainSpec(
                    N=200, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.5007, 0.2007, 2)
                ),
                2,
                0.5929,
                0.7529 * QUICK.phi_max,
            ),
        ],
    )
    def test_second_order_end_costs_one_probe(self, monkeypatch, chain, mode, lam_lo, s_max):
        # on a second-order curve the ratio u(s)/s^2 is least as s -> 0, so
        # the scan's least ratio sits at the first sample, the left end of its
        # cell: one probe confirms it, where scipy's bounded Brent spent some
        # 20 evaluations converging onto that end
        curve = _UnitCurve(chain, mode, QUICK, lam_lo)
        s = curve.samples(s_max)[0]
        e = np.array([curve.energy(x) for x in s])
        assert np.argmin((e[1:] - e[0]) / s[1:] ** 2) == 0
        expected = crossing_scan(_UnitCurve(chain, mode, QUICK, lam_lo), s_max)
        energies = CountedEnergy(monkeypatch)
        crossing = _crossing_onset(curve, s_max)
        assert len(energies.s) <= 2
        assert crossing == pytest.approx(expected, abs=Thresholds().critical_tol)
        assert crossing == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "chain, mode, lam_lo, s_max",
        [
            (desk_chain(), 2, 0.15, 0.3 * QUICK.phi_max),
            (first_order_chain(), 2, 0.9, 0.9 * QUICK.phi_max),
            (first_order_chain(), 2, 0.9, 1.1 * QUICK.phi_max),
            # a coarse curve hands the scan to a finer fresh one
            (first_order_chain(), 2, 2.0, 1.1 * QUICK.phi_max),
            (stiff_chain(), 1, 3.0, 3.0 * QUICK.phi_max),
            (ChainSpec(N=1, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.3)), 1, 1.0, 1.5),
            (ChainSpec(N=2, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.3)), 2, 1.0, 1.5),
            (ChainSpec(N=3, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.0)), 1, 1.0, 1.5),
        ],
    )
    def test_matches_the_full_scan(self, chain, mode, lam_lo, s_max):
        # the least ratio is refined by the seeded line search, the oracle's
        # by scipy's bounded Brent: the onsets agree far inside critical_tol
        curve = _UnitCurve(chain, mode, QUICK, lam_lo)
        expected = crossing_scan(_UnitCurve(chain, mode, QUICK, lam_lo), s_max)
        assert _crossing_onset(curve, s_max) == pytest.approx(expected, abs=1e-12)
        # and again on a curve that the column's minimizations sampled
        curve.minimize(s_max / QUICK.phi_max)
        assert _crossing_onset(curve, s_max) == pytest.approx(expected, abs=1e-12)


def sampled_stationary(chain, ms, search):
    """The sampled curve on ``coarse_points`` of ``[0, phi_max]`` with the
    samples at its minima and maxima, the ends included."""
    phi = np.linspace(0.0, search.phi_max, search.coarse_points)
    e = np.array([energy_per_particle(chain, ms, [x]) for x in phi])
    up = np.concatenate(([np.inf], e, [np.inf]))
    down = np.concatenate(([-np.inf], e, [-np.inf]))
    minima = phi[(e < up[:-2]) & (e <= up[2:])]
    maxima = phi[(e > down[:-2]) & (e >= down[2:])]
    return phi, e, minima, maxima


class TestStationaryPoints:
    """The minimizer against the stationary points of the sampled curve."""

    def test_below_onset_single_minimum(self):
        chain = desk_chain()
        ms = ModeSet(modes=(2,), lambda0=DESK_LAMBDA_C - 0.06, N=40, E_c=8.0)
        _, e, minima, _ = sampled_stationary(chain, ms, QUICK)
        assert list(minima) == [0.0]
        state = minimize_phi(chain, ms, QUICK)
        assert (state.phi[0], state.e_g) == (0.0, e[0])

    def test_above_onset_origin_destabilizes(self):
        chain = desk_chain()
        ms = ModeSet(modes=(2,), lambda0=DESK_LAMBDA_C + 0.06, N=40, E_c=8.0)
        phi, e, minima, maxima = sampled_stationary(chain, ms, QUICK)
        assert maxima[0] == 0.0
        assert minima.size == 1 and minima[0] > 0.02
        state = minimize_phi(chain, ms, QUICK)
        assert state.phi[0] == pytest.approx(minima[0], abs=phi[1])
        assert state.e_g <= e.min()

    @pytest.mark.parametrize(
        "chain, lambda0, n_minima",
        [
            (desk_chain(), DESK_LAMBDA_C - 0.06, 1),
            (desk_chain(), DESK_LAMBDA_C + 0.06, 1),
            # first-order column: the origin and the condensate are both minima
            (
                ChainSpec(N=40, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.8, 0.5, 2)),
                1.0,
                2,
            ),
        ],
    )
    def test_global_point_is_the_minimizer(self, chain, lambda0, n_minima):
        ms = ModeSet(modes=(2,), lambda0=lambda0, N=chain.N, E_c=chain.E_c)
        phi, e, minima, _ = sampled_stationary(chain, ms, QUICK)
        assert minima.size == n_minima
        state = minimize_phi(chain, ms, QUICK)
        assert state.phi[0] == pytest.approx(phi[np.argmin(e)], abs=phi[1])
        assert state.e_g <= e.min()
        assert state.e_g == pytest.approx(energy_per_particle(chain, ms, state.phi), abs=1e-12)


class TestSearchSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpec(phi_max=0.0)
        with pytest.raises(ValueError):
            SearchSpec(coarse_points=2)
        with pytest.raises(ValueError):
            SearchSpec(line_points=1)
        # n_seeds = 0 would polish every well-separated grid point, a
        # negative refine_tol runs every Brent search to its iteration cap
        for bad in (
            {"n_seeds": 0},
            {"refine_tol": 0.0},
            {"refine_tol": -1.0},
            {"descent_tol": 0.0},
            {"descent_tol": -1e-5},
            {"degeneracy_tol": -1e-9},
            # NaN passes a check written as x <= 0; a NaN phi_max would scan nothing
            *({key: bad} for key in ("phi_max", "refine_tol", "descent_tol", "degeneracy_tol")
              for bad in (math.nan, math.inf, -math.inf)),
        ):
            with pytest.raises(ValueError):
                SearchSpec(**bad)
        assert SearchSpec(n_seeds=1, degeneracy_tol=0.0).degeneracy_tol == 0.0


@st.composite
def envelope_columns(draw):
    """``(chain, mode, lams)``: a ring of up to 10 sites under one mode and 3 to 6
    couplings in rising order, as factors of its spinodal (of 1/2 where that is above 1
    or none) from 0.3 to 1.6, none within 1% of the spinodal, where ``e_g`` is flat to
    rounding over more than ``refine_tol`` around its minimizer."""
    chain, ms = draw(bound_points(max_N=10))
    mode = ms.modes[0]
    lam_s = normal_phase_onset(chain, (mode,))
    scale = lam_s if lam_s is not None and lam_s <= 1.0 else 0.5
    factor = st.floats(0.3, 1.6).filter(lambda f: abs(f - 1.0) >= 0.01)
    factors = draw(st.lists(factor, min_size=3, max_size=6, unique=True))
    return chain, mode, sorted(scale * f for f in factors)


class TestEnvelope:
    """A one-mode column's minima against the envelope they must form.

    With ``x = 1/lambda0^2`` and ``s = lambda0 phi`` the energy at ``s`` is ``x omega s^2 +
    g(s)``, with ``g`` free of ``lambda0``, so the column's minimum ``e*(x)`` is a
    minimum of functions affine in ``x``: concave, with slope ``t = omega s*^2``, which
    is ``d e_g / d lambda0 = -(2 / lambda0) omega phi*^2``.  So along a column ``e_g``
    never rises, ``lambda0 |phi*|`` never falls, and no state lies above the line
    ``e_j + t_j (x - x_j)`` of another: that line is the energy of state ``j``'s own
    ``s`` at every coupling, an upper bound on the minimum.  Columns whose minimizer
    reaches ``phi_max`` are left out: there ``s <= lambda0 phi_max`` binds, and the
    bound moves with ``lambda0``.
    """

    SEARCH = SearchSpec(coarse_points=21)

    def column(self, chain, mode, lams):
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "error", "minimizer sits at the phi_max boundary", RuntimeWarning
            )
            try:
                result = sweep(SweepContext(chain=chain, modes=(mode,), search=self.SEARCH),
                               "lambda0", lams)
            except RuntimeWarning:
                return None
        assert all(r.status == "ok" for r in result.records)
        return result.records

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(envelope_columns())
    def test_minima_form_a_concave_envelope(self, case):
        chain, mode, lams = case
        records = self.column(chain, mode, lams)
        assume(records is not None)
        omega, tol = float(mode), self.SEARCH.refine_tol
        lam = np.array(lams)
        e = np.array([r.e_g for r in records])
        s = lam * np.array([abs(r.phi[0]) for r in records])
        x, t = 1.0 / lam**2, omega * s**2
        scale = np.abs(e).max() + (t * x).max()
        assert np.all(np.diff(e) <= 1e-12 * scale)
        assert np.all(np.diff(s) >= -10.0 * tol * lam[1:])
        tangents = e[None, :] + t[None, :] * (x[:, None] - x[None, :])  # [i, j]: line j at x_i
        assert np.all(e[:, None] <= tangents + 1e-11 * scale)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(envelope_columns())
    def test_slope_is_the_envelope_theorem(self, case):
        # central differences at lambda0 -+ h, where the minimizer does not jump
        chain, mode, lams = case
        h = 1e-4
        for lam in lams:
            records = self.column(chain, mode, [lam - h, lam, lam + h])
            if records is None:
                continue
            phis = [abs(r.phi[0]) for r in records]
            if (min(phis) == 0.0) != (max(phis) == 0.0) or max(phis) - min(phis) > 0.01:
                continue
            exact = -(2.0 / lam) * mode * phis[1] ** 2
            central = (records[2].e_g - records[0].e_g) / (2.0 * h)
            assert central == pytest.approx(exact, rel=1e-5, abs=1e-7)

"""Quadratic-form assembly and the quasiparticle solver.

The structural tests pin the sign conventions (bond halving, the twisted
wrap bond, the Phi/Psi orientation) that every downstream observable
depends on; the cross-checks compare against closed forms and the
brute-force solver.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavising import fermion
from cavising.fermion import (
    QuadraticForm,
    Sector,
    SolverError,
    build_quadratic_form,
    ground_sector,
    quasiparticle_energies,
    sector_energy,
    solve_quasiparticles,
)
from cavising.model import EffectiveField
from cavising.oracle import DenseSpinProblem, exact_ground


def flat_field(Omega):
    Omega = np.asarray(Omega, dtype=float)
    return EffectiveField(Omega=Omega, theta=np.zeros_like(Omega))


class TestAssembly:
    def test_matrices_by_hand_even(self):
        Om = np.array([0.4, 0.5, 0.6, 0.7])
        J = np.array([0.1, 0.2, 0.3, 0.4])
        form = build_quadratic_form(flat_field(Om), J, Sector.EVEN)
        A_ref = np.array(
            [
                [0.40, -0.05, 0.00, +0.20],
                [-0.05, 0.50, -0.10, 0.00],
                [0.00, -0.10, 0.60, -0.15],
                [+0.20, 0.00, -0.15, 0.70],
            ]
        )
        B_ref = np.array(
            [
                [0.00, +0.05, 0.00, +0.20],
                [-0.05, 0.00, +0.10, 0.00],
                [0.00, -0.10, 0.00, +0.15],
                [-0.20, 0.00, -0.15, 0.00],
            ]
        )
        T = form.T
        np.testing.assert_allclose(0.5 * (T + T.T), A_ref, atol=1e-15)
        np.testing.assert_allclose(0.5 * (T - T.T), B_ref, atol=1e-15)

    def test_wrap_bond_sign_flips_with_sector(self):
        Om = np.array([0.4, 0.5, 0.6, 0.7])
        J = np.array([0.1, 0.2, 0.3, 0.4])
        even = build_quadratic_form(flat_field(Om), J, Sector.EVEN)
        odd = build_quadratic_form(flat_field(Om), J, Sector.ODD)
        diff = even.T - odd.T
        # only the corner entry T[0, 3] changes, by twice the wrap coupling
        ref = np.zeros((4, 4))
        ref[0, 3] = 2.0 * J[3]
        np.testing.assert_allclose(diff, ref, atol=1e-15)

    def test_two_site_accumulation(self):
        # both bonds of a two-site ring connect the same pair; the even
        # sector twists the second one
        form = build_quadratic_form(flat_field([0.3, 0.7]), [0.2, 0.5], Sector.EVEN)
        T_ref = np.array([[0.3, 0.5], [-0.2, 0.7]])
        np.testing.assert_allclose(form.T, T_ref, atol=1e-15)

    def test_bidiagonal_plus_corner(self):
        rng = np.random.default_rng(3)
        for sector, sign in ((Sector.EVEN, 1.0), (Sector.ODD, -1.0)):
            Om = rng.uniform(0.1, 1.0, 7)
            J = rng.uniform(0.0, 1.0, 7)
            T = build_quadratic_form(flat_field(Om), J, sector).T
            ref = np.diag(Om) + np.diag(-J[:-1], -1)
            ref[0, 6] = sign * J[6]
            np.testing.assert_array_equal(T, ref)

    def test_bond_length_mismatch(self):
        with pytest.raises(ValueError):
            build_quadratic_form(flat_field([0.4, 0.4]), [0.1, 0.2, 0.3])


class TestSpectrum:
    def test_decoupled_chain(self):
        Om = np.array([0.9, 0.2, 0.5])
        form = build_quadratic_form(flat_field(Om), np.zeros(3))
        np.testing.assert_allclose(quasiparticle_energies(form), 2.0 * np.sort(Om), atol=1e-15)

    def test_uniform_dispersion(self):
        # even-sector spectrum of a uniform ring lives on the antiperiodic
        # momenta k = (2m+1) pi / N
        N, Om, J = 16, 0.45, 0.3
        form = build_quadratic_form(flat_field(np.full(N, Om)), np.full(N, J))
        k = (2.0 * np.arange(N) + 1.0) * math.pi / N
        expected = np.sort(2.0 * np.sqrt(Om**2 + J**2 - 2.0 * Om * J * np.cos(k)))
        np.testing.assert_allclose(quasiparticle_energies(form), expected, atol=1e-12)

    def test_two_site_closed_form(self):
        Om, J0, J1 = 0.37, 0.21, 0.53
        form = build_quadratic_form(flat_field([Om, Om]), [J0, J1])
        sol = solve_quasiparticles(form)
        expected = -math.sqrt(4.0 * Om**2 + (J0 + J1) ** 2)
        assert sol.ground_energy_chain == pytest.approx(expected, abs=1e-14)

    def test_energies_match_fast_path(self):
        rng = np.random.default_rng(11)
        Om = rng.uniform(0.1, 1.0, 9)
        J = rng.uniform(0.0, 0.8, 9)
        form = build_quadratic_form(flat_field(Om), J, Sector.ODD)
        sol = solve_quasiparticles(form)
        np.testing.assert_allclose(sol.energies, quasiparticle_energies(form), atol=1e-12)


def dense_energies(T):
    return 2.0 * np.sort(np.linalg.svd(np.asarray(T, dtype=float), compute_uv=False))


@st.composite
def rings(draw):
    N = draw(st.integers(1, 64))
    values = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)
    Om = np.array(draw(st.lists(values, min_size=N, max_size=N)))
    if draw(st.booleans()):
        J = np.zeros(N)
    else:
        J = np.array(draw(st.lists(values, min_size=N, max_size=N)))
    return Om, J, draw(st.sampled_from(Sector))


def golub_kahan_energies(form):
    """Every mode from the 2N Golub-Kahan fold: the reference for the squared route.

    The positive half is taken by bisection; the full-spectrum solver
    loses a mode of 0.75 by 2e-9 once subnormal bonds enter the fold.
    """
    N = form.N
    if N == 1:
        return np.array([2.0 * abs(form.diagonal[0] + form.corner)])
    w = np.empty(2 * N)
    w[0::2] = form.diagonal
    w[1::2] = np.append(form.subdiagonal, form.corner)
    return np.sort(2.0 * np.abs(fermion._cycle_eigvals(w, select_range=(N, 2 * N - 1))))


@st.composite
def windowed_rings(draw):
    """Random rings, and rings whose strong bond window carries near-zero edge modes."""
    if not draw(st.booleans()):
        return draw(rings())
    N = draw(st.integers(3, 64))
    window = N // 3
    start = draw(st.integers(0, N - 1))
    Om = np.array(draw(st.lists(st.floats(0.3, 0.6), min_size=N, max_size=N)))
    J = np.array(draw(st.lists(st.floats(0.0, 0.3), min_size=N, max_size=N)))
    strong = draw(st.lists(st.floats(2.0, 4.0), min_size=window, max_size=window))
    J[(start + np.arange(window)) % N] = strong
    return Om, J, draw(st.sampled_from(Sector))


class TestBandedSpectrum:
    """The energy-only spectrum against a dense SVD of ``T`` and the full Golub-Kahan fold.

    Bare squaring would leave the near-zero edge modes of a strong
    window at about 1e-8; only the Golub-Kahan correction holds the
    per-mode bound.
    """

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(windowed_rings())
    @example((np.array([0.7]), np.array([0.4]), Sector.EVEN))
    @example((np.array([0.7]), np.array([0.4]), Sector.ODD))
    @example((np.array([0.3, 0.8]), np.array([0.2, 0.6]), Sector.EVEN))
    @example((np.array([0.3, 0.8]), np.array([0.2, 0.6]), Sector.ODD))
    @example((np.array([0.3, 0.8, 0.5]), np.array([3.0, 0.1, 0.1]), Sector.EVEN))
    @example((np.full(3, 0.45), np.full(3, 0.45), Sector.ODD))
    # a mode just above a bar of 1e-6 would miss the per-mode bound by 3e-13
    @example(
        (
            np.r_[np.zeros(47), 0.0078125, 1.0, 1.0, 0.0625, 1.0, 1.0],
            np.r_[np.zeros(47), 1.5, 1.25, 0.00390625, 1.0, 1.0, 1.0],
            Sector.EVEN,
        )
    )
    def test_matches_dense_svd(self, ring):
        Om, J, sector = ring
        form = build_quadratic_form(flat_field(Om), J, sector)
        got = quasiparticle_energies(form)
        dense = dense_energies(form.T)
        scale = max(1.0, Om.max() + J.max())
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12 * scale)
        assert abs(got.sum() - dense.sum()) <= 1e-13 * dense.sum()
        np.testing.assert_allclose(got, golub_kahan_energies(form), rtol=0, atol=1e-13 * scale)

    def test_correction_runs_only_below_the_bar(self, monkeypatch):
        selects = []
        real = fermion.linalg.eigvals_banded

        def spy(*args, **kwargs):
            selects.append(kwargs.get("select", "a"))
            return real(*args, **kwargs)

        monkeypatch.setattr(fermion.linalg, "eigvals_banded", spy)
        J = np.full(60, 0.1)
        J[:20] = 3.0
        quasiparticle_energies(build_quadratic_form(flat_field(np.full(60, 0.45)), J))
        assert selects == ["a", "i"]
        selects.clear()
        gapped = build_quadratic_form(flat_field(np.full(60, 0.45)), np.full(60, 0.3))
        quasiparticle_energies(gapped)
        assert selects == ["a"]

    @pytest.mark.parametrize("sector", list(Sector))
    def test_one_site(self, sector):
        form = build_quadratic_form(flat_field([0.7]), [0.4], sector)
        np.testing.assert_allclose(quasiparticle_energies(form), [1.4], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("sector, sign", [(Sector.EVEN, 1.0), (Sector.ODD, -1.0)])
    def test_two_and_three_sites(self, sector, sign):
        cases = [
            ([0.3, 0.8], [0.2, 0.6], [[0.3, sign * 0.6], [-0.2, 0.8]]),
            (
                [0.3, 0.8, 0.5],
                [0.2, 0.6, 0.9],
                [[0.3, 0.0, sign * 0.9], [-0.2, 0.8, 0.0], [0.0, -0.6, 0.5]],
            ),
        ]
        for Om, J, T in cases:
            form = build_quadratic_form(flat_field(Om), J, sector)
            np.testing.assert_allclose(
                quasiparticle_energies(form), dense_energies(T), rtol=0, atol=1e-14
            )

    @pytest.mark.parametrize("N", [2, 3, 8, 33, 200])
    def test_gap_closes_in_odd_sector(self, N):
        # periodic fermions at Omega = J carry the k = 0 zero mode
        form = build_quadratic_form(flat_field(np.full(N, 0.45)), np.full(N, 0.45), Sector.ODD)
        assert quasiparticle_energies(form)[0] <= 1e-12


class TestHoppingNorm:
    """The full solve's tolerance scale ``||(T + T^T) / 2||_2`` from the fold."""

    @staticmethod
    def dense_norm(T):
        T = np.asarray(T, dtype=float)
        return np.linalg.norm(0.5 * (T + T.T), 2)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rings())
    def test_matches_dense_norm(self, ring):
        Om, J, sector = ring
        form = build_quadratic_form(flat_field(Om), J, sector)
        np.testing.assert_allclose(
            fermion._hopping_norm(form), self.dense_norm(form.T), rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("sector", list(Sector))
    def test_small_rings(self, sector):
        for Om, J in (([0.7], [0.4]), ([0.3, 0.8], [0.2, 0.6]), ([0.3, 0.8, 0.5], [0.2, 0.6, 0.9])):
            form = build_quadratic_form(flat_field(Om), J, sector)
            np.testing.assert_allclose(
                fermion._hopping_norm(form), self.dense_norm(form.T), rtol=1e-12, atol=0
            )
        # a one-site form with its own corner folds the corner onto the diagonal
        form = QuadraticForm(diagonal=[0.3], subdiagonal=[], corner=-0.9, sector=sector)
        assert fermion._hopping_norm(form) == pytest.approx(0.6, rel=1e-12)


def fix_signs_row_by_row(Phi, Psi, s, zero_tol):
    """The sign rule one row at a time: the oracle of the solver's batched rule."""

    def fix(row, partner=None):
        idx = np.flatnonzero(np.abs(row) > fermion._SIGN_EPS)
        i = idx[0] if idx.size else int(np.argmax(np.abs(row)))
        if row[i] < 0:
            row *= -1.0
            if partner is not None:
                partner *= -1.0

    for k in range(s.size):
        if s[k] > zero_tol:
            fix(Phi[k], Psi[k])
        else:
            fix(Phi[k])
            fix(Psi[k])


class TestModeMatrices:
    def test_relations_and_orthogonality(self):
        rng = np.random.default_rng(5)
        for sector in (Sector.EVEN, Sector.ODD):
            for _ in range(5):
                N = int(rng.integers(2, 12))
                Om = rng.uniform(0.05, 1.0, N)
                J = rng.uniform(0.0, 1.0, N)
                form = build_quadratic_form(flat_field(Om), J, sector)
                sol = solve_quasiparticles(form)
                T = form.T
                half = 0.5 * sol.energies[:, None]
                np.testing.assert_allclose(sol.Phi @ T, half * sol.Psi, atol=1e-10)
                np.testing.assert_allclose(sol.Psi @ T.T, half * sol.Phi, atol=1e-10)
                np.testing.assert_allclose(sol.Phi @ sol.Phi.T, np.eye(N), atol=1e-10)
                np.testing.assert_allclose(sol.Psi @ sol.Psi.T, np.eye(N), atol=1e-10)

    def test_sign_convention_deterministic(self):
        form = build_quadratic_form(flat_field(np.full(6, 0.4)), np.full(6, 0.4), Sector.ODD)
        a = solve_quasiparticles(form)
        b = solve_quasiparticles(form)
        np.testing.assert_array_equal(a.Phi, b.Phi)
        np.testing.assert_array_equal(a.Psi, b.Psi)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rings())
    @example((np.full(6, 0.4), np.full(6, 0.4), Sector.ODD))  # an exact zero mode
    def test_signs_match_the_row_by_row_rule(self, ring):
        Om, J, sector = ring
        form = build_quadratic_form(flat_field(Om), J, sector)
        U, s, Vh = np.linalg.svd(form.T)
        Phi, Psi, s = U.T[::-1].copy(), Vh[::-1].copy(), s[::-1]
        fix_signs_row_by_row(Phi, Psi, s, 1e-12 * max(fermion._hopping_norm(form), 1.0))
        sol = solve_quasiparticles(form)
        assert np.array_equal(sol.Phi, Phi) and np.array_equal(sol.Psi, Psi)
        assert not (np.signbit(sol.Phi) ^ np.signbit(Phi)).any()
        assert not (np.signbit(sol.Psi) ^ np.signbit(Psi)).any()


class TestParityBookkeeping:
    def test_even_vacuum_parity_always_plus(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            N = int(rng.integers(2, 10))
            form = build_quadratic_form(
                flat_field(rng.uniform(0.05, 1.0, N)), rng.uniform(0.0, 1.0, N)
            )
            assert solve_quasiparticles(form).vacuum_parity == 1

    def test_odd_vacuum_parity_tracks_couplings(self):
        # det(A + B) = prod(Omega) - prod(J) in the untwisted sector
        weak = build_quadratic_form(flat_field(np.full(4, 0.3)), np.full(4, 0.1), Sector.ODD)
        strong = build_quadratic_form(flat_field(np.full(4, 0.3)), np.full(4, 0.5), Sector.ODD)
        assert solve_quasiparticles(weak).vacuum_parity == 1
        assert solve_quasiparticles(strong).vacuum_parity == -1

    def test_zero_mode_flags_indeterminate_parity(self):
        form = build_quadratic_form(flat_field(np.full(5, 0.4)), np.full(5, 0.4), Sector.ODD)
        sol = solve_quasiparticles(form)
        assert sol.vacuum_parity == 0
        assert sol.energies[0] == pytest.approx(0.0, abs=1e-12)
        assert sector_energy(sol) == pytest.approx(sol.ground_energy_chain, abs=1e-12)

    def test_sector_energies_match_brute_force(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            N = int(rng.integers(2, 8))
            Om = rng.uniform(0.1, 1.0, N)
            J = rng.uniform(0.0, 1.0, N)
            problem = DenseSpinProblem(Omega=Om, J=J)
            for sector, parity in ((Sector.EVEN, +1), (Sector.ODD, -1)):
                sol = solve_quasiparticles(build_quadratic_form(flat_field(Om), J, sector))
                e_ref, _ = exact_ground(problem, parity=parity)
                assert sector_energy(sol) == pytest.approx(e_ref, abs=1e-11)

    def test_ground_sector_matches_global_ground(self):
        rng = np.random.default_rng(23)
        for both in (False, True):
            Om = rng.uniform(0.1, 1.0, 7)
            J = rng.uniform(0.0, 1.0, 7)
            sol = ground_sector(flat_field(Om), J, both_sectors=both)
            e_ref, _ = exact_ground(DenseSpinProblem(Omega=Om, J=J))
            assert sol.sector is Sector.EVEN
            assert sector_energy(sol) == pytest.approx(e_ref, abs=1e-11)


class TestFailureModes:
    def test_nan_input_raises_solver_error(self):
        Om = np.array([0.4, np.nan, 0.4])
        form = build_quadratic_form(flat_field(Om), np.full(3, 0.1))
        with pytest.raises(SolverError):
            solve_quasiparticles(form)
        with pytest.raises(SolverError):
            quasiparticle_energies(form)

    @pytest.mark.parametrize("wrap", [False, True])
    def test_inf_bond_raises_solver_error(self, wrap):
        J = np.full(3, 0.1)
        J[2 if wrap else 1] = np.inf
        form = build_quadratic_form(flat_field(np.full(3, 0.4)), J)
        with pytest.raises(SolverError):
            solve_quasiparticles(form)
        with pytest.raises(SolverError):
            quasiparticle_energies(form)

"""Quadratic-form assembly and the quasiparticle solver.

The structural tests pin the sign conventions (bond halving, the twisted
wrap bond, ``G = -W^T`` and the vacuum's parity) that every downstream
observable depends on; the cross-checks compare against closed forms
and the brute-force solver.
"""

import importlib.machinery
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cavising import fermion
from cavising.correlation import yy_correlation
from cavising.fermion import (
    Sector,
    SolverError,
    build_quadratic_form,
    ground_sector,
    quasiparticle_energies,
    solve_quasiparticles,
)
from cavising.meanfield import SearchSpec
from cavising.model import ChainSpec, EffectiveField, IsingProfile, ModeSet, effective_field
from cavising.oracle import DenseSpinProblem, exact_expectations, exact_ground
from cavising.phases import phase_diagram


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

    # 997 is prime: one real block of 997 sites; 998 = 2 * 499: one complex
    # block of 499 sites in the even sector, two real ones in the odd sector
    @pytest.mark.parametrize("N", [16, 997, 998, 2000])
    @pytest.mark.parametrize("sector", list(Sector))
    def test_uniform_dispersion(self, N, sector):
        # a uniform ring's spectrum is 2 |h - J e^{ik}| (Lieb, Schultz and
        # Mattis 1961) on the antiperiodic momenta k = (2m+1) pi / N in the
        # even sector and on the periodic ones k = 2 pi m / N in the odd one
        Om, J = 0.45, 0.3
        form = build_quadratic_form(flat_field(np.full(N, Om)), np.full(N, J), sector)
        k = (2.0 * np.arange(N) + (1.0 if sector is Sector.EVEN else 0.0)) * math.pi / N
        expected = np.sort(2.0 * np.abs(Om - J * np.exp(1j * k)))
        np.testing.assert_allclose(quasiparticle_energies(form), expected, rtol=0, atol=1e-12)

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
def rings(draw, max_N=64, min_N=1):
    N = draw(st.integers(min_N, max_N))
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
        return np.array([2.0 * abs(form.diagonal[0] + form.tau * form.bond_band[0])])
    w = np.empty(2 * N)
    w[0::2] = form.diagonal
    w[1::2] = np.append(form.bond_band[:-1], form.tau * form.bond_band[-1])
    return np.sort(2.0 * np.abs(fermion._cycle_eigvals(w, select_range=(N, 2 * N - 1))))


@st.composite
def windowed_rings(draw, min_N=3, max_N=64):
    """Random rings, and rings whose strong bond window carries near-zero edge modes."""
    if not draw(st.booleans()):
        return draw(rings(max_N=max_N))
    N = draw(st.integers(min_N, max_N))
    window = N // 3
    start = draw(st.integers(0, N - 1))
    Om = np.array(draw(st.lists(st.floats(0.3, 0.6), min_size=N, max_size=N)))
    J = np.array(draw(st.lists(st.floats(0.0, 0.3), min_size=N, max_size=N)))
    strong = draw(st.lists(st.floats(2.0, 4.0), min_size=window, max_size=window))
    J[(start + np.arange(window)) % N] = strong
    return Om, J, draw(st.sampled_from(Sector))


@st.composite
def tiled_rings(draw):
    """A random cell of 1 to 12 sites, with or without a strong window, tiled 1 to 6 times."""
    M = draw(st.integers(1, 12))
    q = draw(st.integers(1, 6))
    if draw(st.booleans()):
        Om, J, sector = draw(rings(max_N=M, min_N=M))
    else:
        window = draw(st.integers(1, M))
        Om = np.array(draw(st.lists(st.floats(0.3, 0.6), min_size=M, max_size=M)))
        J = np.array(draw(st.lists(st.floats(0.0, 0.3), min_size=M, max_size=M)))
        J[:window] = draw(st.lists(st.floats(2.0, 4.0), min_size=window, max_size=window))
        sector = draw(st.sampled_from(Sector))
    return np.tile(Om, q), np.tile(J, q), sector


def window_cut_off(q, sector):
    """A 36-site cell tiled q times whose strong window of 20 bonds sits
    between bonds of 0.01: each cell holds an edge-mode pair near 1e-15."""
    Om, J = np.full(36, 0.4), np.full(36, 0.01)
    J[:20] = 3.0
    return np.tile(Om, q), np.tile(J, q), sector


def assert_matches_dense(Om, J, sector):
    """The energy-only spectrum against a dense SVD of ``T`` and the full Golub-Kahan fold."""
    form = build_quadratic_form(flat_field(Om), J, sector)
    got = quasiparticle_energies(form)
    dense = dense_energies(form.T)
    scale = max(1.0, Om.max() + J.max())
    np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12 * scale)
    assert abs(got.sum() - dense.sum()) <= 1e-13 * dense.sum()
    np.testing.assert_allclose(got, golub_kahan_energies(form), rtol=0, atol=1e-13 * scale)
    return got


def period(form):
    return fermion._translation_period(form.diagonal, form.bond_band)


class TestBandedSpectrum:
    """The energy-only spectrum against a dense SVD of ``T`` and the full Golub-Kahan fold.

    Bare squaring would leave the near-zero edge modes of a strong
    window at about 1e-8; only the Golub-Kahan correction or the block
    determinant holds the per-mode bound.
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
        assert_matches_dense(*ring)

    def test_correction_runs_only_below_the_bar(self, monkeypatch):
        selects = []
        real = fermion._cycle_eigvals

        def spy(edge, node=None, select_range=None):
            selects.append("a" if select_range is None else "i")
            return real(edge, node, select_range)

        monkeypatch.setattr(fermion, "_cycle_eigvals", spy)

        def run(J):
            selects.clear()
            form = build_quadratic_form(flat_field(np.full(J.size, 0.45)), J)
            quasiparticle_energies(form)
            return period(form), list(selects)

        # one strong window: its edge mode is the one mode below the bar, and
        # the block determinant replaces the bisection
        one = np.full(60, 0.1)
        one[:20] = 3.0
        assert run(one) == (60, ["a"])
        # two windows of different lengths: two modes below the bar in one block
        two = one.copy()
        two[30:40] = 3.0
        assert run(two) == (60, ["a", "i"])
        # a gapped uniform ring: six blocks of ten sites in three conjugate pairs
        assert run(np.full(60, 0.3)) == (10, ["a", "a", "a"])

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


def gk_smallest(Om, w, twist):
    """The smallest singular value of a block by bisection on its Golub-Kahan fold."""
    M = Om.size
    gk = np.empty(2 * M, dtype=np.result_type(w, twist))
    gk[0::2] = Om
    gk[1::2] = np.append(w[:-1], np.conj(twist) * w[-1])
    return abs(fermion._cycle_eigvals(gk, select_range=(M, M))[0])


def exact_smallest(Om, w, twist):
    """The smallest singular value of a real block (``twist = +-1``) to a relative few eps.

    ``det T_z = prod(Om) + (-1)^(M+1) z prod(w)`` is summed exactly in
    rationals and divided by the other singular values of a dense SVD,
    which sit far above the smallest and keep their relative accuracy.
    """
    M = Om.size
    det = math.prod(map(Fraction, Om)) + (-1) ** (M + 1) * int(twist) * math.prod(map(Fraction, w))
    T = np.diag(Om)
    T[np.arange(1, M), np.arange(M - 1)] = w[:-1]
    T[0, -1] = twist * w[-1]
    others = np.linalg.svd(T, compute_uv=False)[:-1]
    return float(abs(det)) / np.prod(others)


class TestTranslationBlocks:
    """A ring whose bands repeat is solved as twisted blocks of one period."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tiled_rings())
    @example((np.array([0.7]), np.array([0.4]), Sector.EVEN))
    @example((np.array([0.3, 0.8]), np.array([0.2, 0.6]), Sector.ODD))
    @example((np.array([0.3, 0.8, 0.5]), np.array([3.0, 0.1, 0.1]), Sector.EVEN))
    @example((np.zeros(16), np.zeros(16), Sector.EVEN))
    @example((np.tile([0.0, 0.4, 0.5, 0.3], 6), np.tile([0.3, 0.0, 2.5, 0.1], 6), Sector.ODD))
    @example((np.full(24, 0.45), np.zeros(24), Sector.EVEN))
    # a subnormal bond in a complex block: LAPACK's band reduction lost 3e-12 to it
    @example(
        (np.full(36, 0.5), np.tile([2.0, 0.0, 0.0, 0.0, 0.25, 2.22507386e-311], 6), Sector.EVEN)
    )
    # the gap closes in the odd sector: k = 0 is an exact zero mode of the z = 1 block
    @example((np.full(48, 0.45), np.full(48, 0.45), Sector.ODD))
    def test_tiled_rings_match_dense_svd(self, ring):
        assert_matches_dense(*ring)

    @pytest.mark.parametrize(
        "cell, tiles, expected",
        [(1, 1, 1), (1, 2, 2), (1, 3, 3), (1, 7, 7), (1, 16, 8), (5, 4, 10), (12, 2, 12),
         (3, 6, 9), (7, 2, 14), (8, 1, 8)],
    )
    @pytest.mark.parametrize("sector", list(Sector))
    def test_period_is_the_least_block_of_eight_sites(self, cell, tiles, expected, sector):
        rng = np.random.default_rng(cell * tiles)
        Om = np.tile(rng.uniform(0.3, 0.6, cell), tiles)
        J = np.tile(rng.uniform(0.0, 0.5, cell), tiles)
        assert period(build_quadratic_form(flat_field(Om), J, sector)) == expected

    @pytest.mark.parametrize("sector", list(Sector))
    @pytest.mark.parametrize("site", [0, 5, 11])
    def test_one_ulp_off_takes_one_block(self, sector, site):
        rng = np.random.default_rng(12)
        Om = np.tile(rng.uniform(0.3, 0.6, 12), 2)
        J = np.tile(rng.uniform(0.0, 0.3, 12), 2)
        J[:4] = J[12:16] = 3.0
        tiled = build_quadratic_form(flat_field(Om), J, sector)
        Om[12 + site] = np.nextafter(Om[12 + site], 1.0)
        off = build_quadratic_form(flat_field(Om), J, sector)
        assert (period(tiled), period(off)) == (12, 24)
        got = assert_matches_dense(Om, J, sector)
        scale = Om.max() + J.max()
        np.testing.assert_allclose(got, quasiparticle_energies(tiled), rtol=0, atol=1e-13 * scale)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(6, 40).flatmap(
            lambda M: st.tuples(
                st.lists(st.floats(0.3, 0.6), min_size=M, max_size=M),
                st.lists(st.floats(0.0, 0.3), min_size=M, max_size=M),
                st.lists(st.floats(2.0, 4.0), min_size=M // 2, max_size=M // 2),
            )
        ),
        st.sampled_from([1.0, -1.0, np.exp(1j * np.pi / 3), 1j, np.exp(0.4j * np.pi)]),
    )
    def test_determinant_matches_bisection(self, cell, twist):
        # one strong window in a weak cell: its edge mode is the one mode below the bar
        Om, J, strong = (np.array(v) for v in cell)
        J[: strong.size] = strong
        w = -J
        s = fermion._block_singular_values(Om, w, twist)
        bar = fermion._SQUARED_EPS * s[-1] ** 2
        assume(np.count_nonzero(s**2 < bar) == 1)
        assume(fermion._block_det(Om, w, twist) is not None)
        ref = gk_smallest(Om, w, twist)
        # bisection resolves the mode only to a few eps of the block's scale
        assert abs(s[0] - ref) <= 1e-10 * ref + 8 * np.finfo(float).eps * 4.0
        if twist in (1.0, -1.0):
            assert abs(s[0] - exact_smallest(Om, w, twist)) <= 1e-10 * s[0]
        np.testing.assert_allclose(np.prod(s), abs(np.linalg.det(self.block(Om, w, twist))),
                                   rtol=1e-10)

    @staticmethod
    def block(Om, w, twist):
        T = np.diag(Om).astype(np.result_type(w, twist))
        T[np.arange(1, Om.size), np.arange(Om.size - 1)] = w[:-1]
        T[0, -1] = np.conj(twist) * w[-1]
        return T

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("twist", [1.0, -1.0])
    def test_determinant_is_relatively_exact_on_real_blocks(self, twist, seed):
        # edge modes from 1e-18 down to 1e-25, far under the few eps of the
        # block's scale that bisection resolves: relative 1e-10 against the
        # determinant summed in rationals
        rng = np.random.default_rng(seed)
        M = 40 + 4 * seed
        Om = rng.uniform(0.3, 0.6, M)
        J = rng.uniform(0.0, 0.1, M)
        J[: M // 2] = rng.uniform(2.0, 4.0, M // 2)
        s = fermion._block_singular_values(Om, -J, twist)
        assert s[0] < 1e-17
        assert abs(s[0] - exact_smallest(Om, -J, twist)) <= 1e-10 * s[0]

    @pytest.mark.parametrize("twist", [1.0, -1.0, 1j, np.exp(0.4j * np.pi)])
    def test_determinant_keeps_relative_accuracy(self, twist):
        # an edge mode near 1e-17, which bisection holds only to an absolute
        # accuracy (6e-8 relative here): the determinant's is relative, 1e-12
        # against 50-digit arithmetic
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(40)
        Om = rng.uniform(0.3, 0.6, 40)
        J = rng.uniform(0.0, 0.1, 40)
        J[:20] = rng.uniform(2.0, 4.0, 20)
        s = fermion._block_singular_values(Om, -J, twist)
        assert s[0] < 1e-15
        with mpmath.workdps(50):
            T = mpmath.matrix(self.block(Om, -J, twist).tolist())
            ref = min(mpmath.svd(T, compute_uv=False))
            assert abs(s[0] - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n", range(2, 10))
    def test_hermitian_cycle_matches_dense(self, n):
        rng = np.random.default_rng(n)
        edge = rng.normal(size=n) + 1j * rng.normal(size=n)
        node = rng.normal(size=n)
        H = np.diag(node).astype(complex)
        for i in range(n):
            H[(i + 1) % n, i] += edge[i]
            H[i, (i + 1) % n] += np.conj(edge[i])
        np.testing.assert_allclose(
            fermion._cycle_eigvals(edge, node), np.linalg.eigvalsh(H), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("N, phi", [(200, 0.0), (200, 0.3), (800, 0.2), (2000, 0.1)])
    @pytest.mark.parametrize("sector", list(Sector))
    def test_mode_two_window_rings_take_two_blocks(self, N, phi, sector):
        # period-2 windows under mode 2, the rings of the benchmark
        chain = ChainSpec(N=N, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.35, 0.05, 2))
        fld = effective_field(chain, ModeSet(modes=(2,), lambda0=0.7, N=N, E_c=8.0), [phi])
        assert period(build_quadratic_form(fld, chain.bonds(), sector)) == N // 2


class TestLapackRoute:
    """The banded eigensolve calls scipy's LAPACK wrappers without ``scipy.linalg``.

    ``scipy.linalg.eigvals_banded``, the route those calls replace, is the
    reference: on the same folded band every eigenvalue must agree bit for
    bit, which is what a scipy upgrade that changes the wrappers would break.
    """

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 33, 200, 997, 1200])
    @pytest.mark.parametrize("hermitian", [False, True])
    @pytest.mark.parametrize("with_node", [False, True])
    def test_bit_for_bit_against_eigvals_banded(self, n, hermitian, with_node):
        from scipy import linalg

        rng = np.random.default_rng(n)
        edge = rng.normal(size=n) + (1j * rng.normal(size=n) if hermitian else 0.0)
        node = rng.uniform(0.0, 3.0, n) if with_node else None
        for select_range in (None, (0, 0), (n // 2, n // 2), (n // 2, n - 1)):
            got = fermion._cycle_eigvals(edge, node, select_range)
            ref = linalg.eigvals_banded(
                fermion._cycle_band(edge, node),
                lower=True,
                select="a" if select_range is None else "i",
                select_range=select_range,
            )
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert (got == ref).all(), select_range

    def test_missing_wrappers_name_the_directory_and_version(self, monkeypatch, tmp_path):
        # a scipy package without the wrapper, beside its install's metadata:
        # the version comes from that path, not from an import of scipy
        (tmp_path / "scipy").mkdir()
        dist_info = tmp_path / "scipy-0.0.1.dist-info"
        dist_info.mkdir()
        (dist_info / "METADATA").write_text("Metadata-Version: 2.1\nName: scipy\nVersion: 0.0.1\n")
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path / "scipy")]
        monkeypatch.setattr(fermion.importlib.util, "find_spec", lambda name: spec)
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        with pytest.raises(ImportError) as info:
            fermion._load_lapack()
        assert str(tmp_path / "scipy" / "linalg") in str(info.value)
        assert "(scipy 0.0.1)" in str(info.value)


class TestHoppingNorm:
    """The full solve's zero bar, scaled by ``||T||_2``, against the hopping norm ``||A||_2``."""

    @staticmethod
    def cycle_norm(form):
        """``||A||_2`` from every eigenvalue of ``A``'s N-cycle band, N >= 2: the reference."""
        w = form.bond_band
        edge = 0.5 * np.append(w[:-1], form.tau * w[-1])
        return float(np.max(np.abs(fermion._cycle_eigvals(edge, form.diagonal))))

    @pytest.mark.parametrize("seed", range(1, 8))
    def test_phase_column_zero_decisions_match_the_cycle_scale(self, monkeypatch, seed):
        # every full solve of a pass over the benchmark's phase-column inputs
        # (drawn as its workload draws them): each mode is called zero, or
        # not, by the largest singular value's scale exactly as by the
        # hopping norm's, taken from its N-cycle
        rng = np.random.default_rng(seed)
        weak = round(0.20 + rng.uniform(-0.03, 0.03), 4)
        strong = round(0.50 + rng.uniform(-0.03, 0.03), 4)
        start = 0.60 + rng.uniform(-0.01, 0.01)
        grid = np.linspace(start, start + 0.48, 4)
        chain = ChainSpec(
            N=200, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(weak + 0.3, weak, 2)
        )
        solves = []
        real = fermion.solve_quasiparticles

        def recorded(form):
            sol = real(form)
            solves.append((form, sol.energies / 2))
            return sol

        monkeypatch.setattr(fermion, "solve_quasiparticles", recorded)
        phase_diagram(
            chain, (2,), grid, [weak, strong], delta_J=0.3,
            search=SearchSpec(coarse_points=61), n_max=40, order=True, magnetic=True,
        )
        assert solves
        for form, s in solves:
            largest = s <= 1e-12 * max(s[-1], 1.0)
            cycle = s <= 1e-12 * max(self.cycle_norm(form), 1.0)
            assert np.array_equal(largest, cycle)


class TestBlockFullSolve:
    """The full solve of a tiled ring by its translation blocks, against dense linear algebra."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tiled_rings())
    @example((np.array([0.7]), np.array([0.4]), Sector.EVEN))
    @example((np.array([0.7]), np.array([0.4]), Sector.ODD))
    @example((np.array([0.3, 0.8]), np.array([0.2, 0.6]), Sector.ODD))
    @example((np.array([0.3, 0.8, 0.5]), np.array([3.0, 0.1, 0.1]), Sector.EVEN))
    @example((np.tile([0.3, 0.8, 0.5], 8), np.zeros(24), Sector.EVEN))
    @example((np.tile([0.3, 0.8, 0.5], 8), np.zeros(24), Sector.ODD))
    # the gap closes in the odd sector: an exact zero mode
    @example((np.full(48, 0.45), np.full(48, 0.45), Sector.ODD))
    @example(window_cut_off(2, Sector.EVEN))
    def test_matches_dense_linear_algebra(self, ring):
        Om, J, sector = ring
        form = build_quadratic_form(flat_field(Om), J, sector)
        sol = solve_quasiparticles(form)
        assert sol.period == period(form)
        scale = max(1.0, Om.max() + J.max())
        np.testing.assert_allclose(
            sol.energies, quasiparticle_energies(form), rtol=0, atol=1e-12 * scale
        )
        assert_twisted_orthogonal(sol)
        # G is minus the transposed polar factor of T, fixed by T alone while no
        # mode is near zero
        U, s, Vh = np.linalg.svd(form.T)
        if s[-1] >= 1e-6 * s[0]:
            np.testing.assert_allclose(sol.G, -(Vh.T @ U.T), rtol=0, atol=1e-9)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rings())
    @example((np.full(6, 0.4), np.full(6, 0.4), Sector.ODD))  # an exact zero mode
    @example((np.zeros(3), np.zeros(3), Sector.EVEN))  # every mode zero, every value tied
    def test_one_block_energies_are_the_dense_svd(self, ring):
        # a ring with no period is the one block T: its spectrum is the dense
        # SVD's (with vectors) bit for bit
        Om, J, sector = ring
        form = build_quadratic_form(flat_field(Om), J, sector)
        assume(period(form) == form.N)
        sol = solve_quasiparticles(form)
        _, s, _ = np.linalg.svd(form.T)
        assert np.array_equal(sol.energies, 2.0 * np.sort(s)) and sol.period == form.N
        assert_twisted_orthogonal(sol)

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("sector", list(Sector))
    def test_zero_modes_of_complex_twists_keep_G_periodic(self, q, sector):
        # each cell's edge-mode pair lies far below the zero bar, where LAPACK
        # pairs the modes of a complex twist as it likes: G stays orthogonal and
        # exactly twisted-periodic whatever it picks
        Om, J, sector = window_cut_off(q, sector)
        form = build_quadratic_form(flat_field(Om), J, sector)
        sol = solve_quasiparticles(form)
        zero_tol = 1e-12 * max(sol.energies[-1] / 2, 1.0)
        assert sol.period == 36 and np.count_nonzero(sol.energies / 2 <= zero_tol) == q
        assert_twisted_orthogonal(sol)


def assert_twisted_orthogonal(sol):
    """``G`` is read-only, orthogonal and exactly twisted-periodic in ``sol.period``."""
    G, N, M = sol.G, sol.N, sol.period
    assert not G.flags.writeable
    np.testing.assert_allclose(G @ G.T, np.eye(N), rtol=0, atol=1e-12)
    sigma = np.where(np.arange(N) + M >= N, sol.sector.tau, 1.0)
    assert np.array_equal(np.roll(G, (-M, -M), axis=(0, 1)), sigma[:, None] * G * sigma)


@st.composite
def oracle_rings(draw):
    """Rings of up to 10 sites with ``Omega > 0`` and ``J >= 0``: random, tiled, gapless or
    with a strong window."""
    kind = draw(st.sampled_from(["random", "tiled", "gapless", "window"]))
    N = draw(st.integers(1, 10))
    if kind == "gapless":
        Om = np.full(N, draw(st.floats(0.1, 1.0)))
        return Om, Om.copy()
    if kind == "window":
        Om, J, _ = draw(windowed_rings(min_N=max(N, 3), max_N=max(N, 3)))
        return Om, J
    cell = N
    if kind == "tiled":
        cell = draw(st.sampled_from([d for d in range(1, N + 1) if N % d == 0]))
    Om = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=cell, max_size=cell)))
    J = np.zeros(cell)
    if draw(st.booleans()):
        J = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=cell, max_size=cell)))
    return np.tile(Om, N // cell), np.tile(J, N // cell)


class TestAgainstTheOracle:
    """The even sector against dense spin-chain diagonalization, which shares no ``T``."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(oracle_rings())
    @example((np.array([0.7]), np.array([0.0])))
    @example((np.array([0.7]), np.array([0.4])))
    @example((np.array([0.3, 0.8]), np.array([0.2, 0.6])))
    @example((np.array([0.3, 0.8, 0.5]), np.array([3.0, 0.1, 0.1])))
    @example((np.array([0.3, 0.8, 0.5]), np.zeros(3)))
    @example((np.full(8, 0.45), np.full(8, 0.45)))
    @example((np.tile([0.3, 0.6], 5), np.tile([1.5, 0.0], 5)))
    def test_even_sector_vacuum_is_the_global_ground(self, ring):
        # with Omega > 0 and J >= 0 the ground state is the even vacuum, whatever
        # the parity the oracle finds it in: energy-only spectrum and full solve
        Om, J = ring
        e_ref, _ = exact_ground(DenseSpinProblem(Omega=Om, J=J))
        energies = quasiparticle_energies(build_quadratic_form(flat_field(Om), J))
        assert -0.5 * energies.sum() == pytest.approx(e_ref, rel=0, abs=1e-10)
        sol = ground_sector(flat_field(Om), J)
        assert sol.sector is Sector.EVEN
        assert sol.ground_energy_chain == pytest.approx(e_ref, rel=0, abs=1e-10)


@st.composite
def cut_rings(draw):
    """Rings of 6 to 10 sites with weak fields, strong bonds and one bond cut to zero,
    whose edge-mode splitting lies at or below the full solve's zero bar."""
    N = draw(st.integers(6, 10))
    Om = np.array(draw(st.lists(st.floats(0.001, 0.01), min_size=N, max_size=N)))
    J = np.array(draw(st.lists(st.floats(0.5, 1.0), min_size=N, max_size=N)))
    J[draw(st.integers(0, N - 1))] = 0.0
    return Om, J


def below_the_zero_bar(ring):
    s = quasiparticle_energies(build_quadratic_form(flat_field(ring[0]), ring[1])) / 2
    return s[0] <= 1e-12 * max(s[-1], 1.0)


class TestVacuumParity:
    """The even vacuum when its edge modes split below rounding.

    With ``Omega > 0`` and ``J >= 0`` the even sector's ``det T = prod(Omega)
    + prod(J) > 0``.  ``T = U S V^T`` gives ``det T = det U det S det V`` with
    ``det S >= 0``, and the vacuum of the solution ``(U, V)`` has the parity
    ``det(U V^T) = det W``; so the even vacuum is the one with ``det W > 0``.
    A cut bond makes an open chain whose two edge modes split by about
    ``prod(Omega) / prod(J)``, far below the rounding of an SVD: LAPACK then
    pairs them with either relative sign, and half of its answers are the
    odd vacuum, off by 2 in every string correlator.  The solver takes the
    sign of ``det T`` from the product formula, exact in its relative
    accuracy, and flips the pair to match.
    """

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(cut_rings().filter(below_the_zero_bar))
    @example((np.array([0.7]), np.array([0.0])))
    @example((np.array([0.3, 0.8]), np.zeros(2)))
    @example((np.array([0.3, 0.8, 0.5]), np.zeros(3)))
    def test_ground_sector_is_the_even_ground_state(self, ring):
        Om, J = ring
        N = Om.size
        sol = ground_sector(flat_field(Om), J)
        problem = DenseSpinProblem(Omega=Om, J=J)
        _, state = exact_ground(problem, parity=+1)
        pairs = [(j, n) for j in range(N) for n in range(1, N)]
        ref = exact_expectations(problem, state, pairs=pairs)
        np.testing.assert_allclose(-np.diag(sol.G), ref["sigma_z"], rtol=0, atol=1e-8)
        for j, n in pairs:
            assert abs(yy_correlation(sol.G, j, n) - ref["yy"][j, n]) <= 1e-8, (j, n)


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

    @pytest.mark.parametrize("part", ["U", "s"])
    def test_corrupted_factor_raises_solver_error(self, monkeypatch, part):
        # a factor one part in a million off: U breaks the residual and the
        # orthogonality of W, s the residual alone
        real = np.linalg.svd

        def corrupted(a, *args, **kwargs):
            U, s, Vh = real(a, *args, **kwargs)
            if part == "U":
                U[..., 0, 0] += 1e-6
            else:
                s *= 1.0 + 1e-6
            return U, s, Vh

        monkeypatch.setattr(fermion.np.linalg, "svd", corrupted)
        form = build_quadratic_form(flat_field(np.full(5, 0.4)), np.full(5, 0.3))
        with pytest.raises(SolverError, match="decomposition lost consistency"):
            solve_quasiparticles(form)

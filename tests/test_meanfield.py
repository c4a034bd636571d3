"""Energy surface and amplitude search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavising import meanfield
from cavising.correlation import pair_contractions
from cavising.fermion import ground_sector
from cavising.meanfield import (
    SearchSpec,
    _crossing_onset,
    _UnitCurve,
    _energy_and_gradient,
    _rotated_polarization,
    energy_per_particle,
    minimize_phi,
    normal_phase_onset,
    order_parameter_residual,
    stationary_points,
)
from cavising.model import ChainSpec, IsingProfile, ModeSet, effective_field
from cavising.oracle import DenseSpinProblem, exact_expectations, exact_ground


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


class TestRotatedPolarization:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(mean_field_points())
    def test_matches_contraction_diagonal(self, point):
        chain, ms, phi = point
        sol = ground_sector(effective_field(chain, ms, phi), chain.bonds())
        np.testing.assert_allclose(
            _rotated_polarization(sol), -np.diag(pair_contractions(sol)), rtol=0.0, atol=1e-13
        )


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
        # the memo only holds exact energies, so a curve used at other
        # couplings first returns the fresh curve's state bit for bit
        shared = _UnitCurve(chain, mode, QUICK, lam_lo)
        for lam in lams:
            got = shared.minimize(lam)
            fresh = _UnitCurve(chain, mode, QUICK, lam_lo).minimize(lam)
            np.testing.assert_array_equal(got.phi, fresh.phi)
            assert (got.e_g, got.degenerate) == (fresh.e_g, fresh.degenerate)

    def test_second_normal_coupling_pays_only_new_samples(self, monkeypatch):
        # refined in s, every coupling's first cell is [0, s_1]: a second
        # normal-phase coupling finds all its first-cell probes memoized
        curve = _UnitCurve(desk_chain(), 2, QUICK, 0.15)
        assert curve.minimize(0.15).phi[0] == 0.0
        calls = []
        real = meanfield.quasiparticle_energies

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(meanfield, "quasiparticle_energies", counted)
        before = curve.samples(0.15 * QUICK.phi_max)[0].size
        assert curve.minimize(0.175).phi[0] == 0.0
        after = curve.samples(0.175 * QUICK.phi_max)[0].size
        assert after > before
        assert len(calls) == after - before


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
        assert coarse._s.size == 0  # the coarse curve was never sampled

    def test_none_when_origin_never_destabilizes(self):
        chain = ChainSpec(N=8, E_z=0.8, E_c=0.1, ising=IsingProfile.uniform(0.1))
        for mode in (1, 2):
            assert _crossing_onset(_UnitCurve(chain, mode, QUICK, 3.0), 3.0 * QUICK.phi_max) is None


class TestStationaryPoints:
    def test_below_onset_single_minimum(self):
        chain = desk_chain()
        ms = ModeSet(modes=(2,), lambda0=DESK_LAMBDA_C - 0.06, N=40, E_c=8.0)
        pts = stationary_points(chain, ms, QUICK)
        minima = [p for p in pts if p.kind == "minimum"]
        assert len(minima) == 1
        assert minima[0].phi == 0.0
        assert minima[0].is_global

    def test_above_onset_origin_destabilizes(self):
        chain = desk_chain()
        ms = ModeSet(modes=(2,), lambda0=DESK_LAMBDA_C + 0.06, N=40, E_c=8.0)
        pts = stationary_points(chain, ms, QUICK)
        at_zero = [p for p in pts if p.phi == 0.0]
        assert at_zero and at_zero[0].kind == "maximum"
        winners = [p for p in pts if p.is_global]
        assert len(winners) == 1
        assert winners[0].phi > 0.02
        assert winners[0].kind == "minimum"

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
        pts = stationary_points(chain, ms, QUICK)
        assert sum(p.kind == "minimum" for p in pts) == n_minima
        winners = [p for p in pts if p.is_global]
        assert len(winners) == 1
        state = minimize_phi(chain, ms, QUICK)
        assert state.phi[0] == pytest.approx(winners[0].phi, abs=1e-12)
        assert state.e_g == pytest.approx(winners[0].e_g, abs=1e-12)

    def test_multimode_rejected(self):
        chain = desk_chain()
        ms = ModeSet(modes=(1, 2), lambda0=0.2, N=40, E_c=8.0)
        with pytest.raises(ValueError):
            stationary_points(chain, ms)


class TestSearchSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpec(phi_max=0.0)
        with pytest.raises(ValueError):
            SearchSpec(coarse_points=2)
        with pytest.raises(ValueError):
            SearchSpec(line_points=1)

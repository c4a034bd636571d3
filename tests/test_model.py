"""Geometry, profiles, couplings, and the dressed field."""

import math

import numpy as np
import pytest

from cavising.model import (
    ChainSpec,
    EffectiveField,
    IsingProfile,
    ModeSet,
    coupling_strength,
    effective_field,
    self_energy_D,
)


class TestIsingProfile:
    def test_uniform(self):
        bonds = IsingProfile.uniform(0.3).bonds(6)
        np.testing.assert_array_equal(bonds, np.full(6, 0.3))

    def test_rectangular_windows_p2(self):
        # two windows of width N/(2p) = 50, starting at floor(N/(4p)) etc.
        bonds = IsingProfile.rectangular(0.35, 0.05, 2).bonds(200)
        strong = np.flatnonzero(bonds == 0.35)
        expected = np.concatenate([np.arange(25, 75), np.arange(125, 175)])
        np.testing.assert_array_equal(strong, expected)
        assert np.all(bonds[np.setdiff1d(np.arange(200), expected)] == 0.05)

    def test_rectangular_windows_p3(self):
        bonds = IsingProfile.rectangular(1.0, 0.0, 3).bonds(200)
        lo = [math.floor((4 * m + 1) * 200 / 12) for m in range(3)]
        hi = [math.floor((4 * m + 3) * 200 / 12) for m in range(3)]
        expected = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
        np.testing.assert_array_equal(np.flatnonzero(bonds == 1.0), expected)

    def test_rectangular_window_width_divisible(self):
        # when 2p divides N every window is exactly N/(2p) wide
        bonds = IsingProfile.rectangular(1.0, 0.0, 4).bonds(80)
        assert int(np.sum(bonds == 1.0)) == 40

    def test_explicit(self):
        profile = IsingProfile.explicit([0.1, 0.2, 0.3])
        np.testing.assert_array_equal(profile.bonds(3), [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            profile.bonds(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            IsingProfile.uniform(-0.1)
        with pytest.raises(ValueError):
            IsingProfile.rectangular(0.1, 0.2, 2)  # J_max < J_min
        with pytest.raises(ValueError):
            IsingProfile.rectangular(0.2, 0.1, 0)
        with pytest.raises(ValueError):
            IsingProfile.explicit([])
        with pytest.raises(ValueError):
            IsingProfile.explicit([0.1, -0.2])
        with pytest.raises(ValueError):
            IsingProfile(kind="smooth", J=0.1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                IsingProfile.uniform(bad)
            with pytest.raises(ValueError, match="finite"):
                IsingProfile.rectangular(bad, 0.1, 2)
            with pytest.raises(ValueError, match="finite"):
                IsingProfile.rectangular(0.2, bad, 2)
            with pytest.raises(ValueError, match="finite"):
                IsingProfile.explicit([0.1, bad])


class TestChainSpec:
    def test_bonds_passthrough(self):
        chain = ChainSpec(N=8, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.2))
        assert chain.bonds().shape == (8,)

    def test_validation(self):
        good = IsingProfile.uniform(0.1)
        with pytest.raises(ValueError):
            ChainSpec(N=0, E_z=0.8, E_c=8.0, ising=good)
        with pytest.raises(ValueError):
            ChainSpec(N=4, E_z=0.0, E_c=8.0, ising=good)
        with pytest.raises(ValueError):
            ChainSpec(N=4, E_z=0.8, E_c=-1.0, ising=good)
        with pytest.raises(ValueError):
            ChainSpec(N=4, E_z=0.8, E_c=8.0, ising=IsingProfile.explicit([0.1, 0.2]))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="E_z must be positive and finite"):
                ChainSpec(N=4, E_z=bad, E_c=8.0, ising=good)
            with pytest.raises(ValueError, match="E_c must be positive and finite"):
                ChainSpec(N=4, E_z=0.8, E_c=bad, ising=good)


class TestCouplings:
    def test_endpoints_and_scaling(self):
        lam = coupling_strength(2, np.arange(10), 0.5, 10)
        assert lam[0] == pytest.approx(0.5 * math.sqrt(2))
        assert lam[5] == pytest.approx(-0.5 * math.sqrt(2))  # cos(pi) at j = N/2

    def test_node_count_matches_mode(self):
        # lambda_l(j) changes sign l times across the ring for l <= N/2
        for l in (1, 2, 3, 5):
            lam = coupling_strength(l, np.arange(200), 1.0, 200)
            assert int(np.sum(np.sign(lam[1:]) != np.sign(lam[:-1]))) == l

    @pytest.mark.parametrize(
        "l, N",
        [(l, N) for l in (1, 2, 3, 4, 5) for N in (2, 8, 10, 24, 30, 200, 800, 2000) if N % l == 0],
    )
    def test_antiperiodic_bit_for_bit(self, l, N):
        # lambda_l(j + N/l) = -lambda_l(j) exactly, so mode l's field repeats
        # every N/l sites and the energy spectrum splits into blocks
        lam = coupling_strength(l, np.arange(N), 0.6392, N)
        shift = N // l
        assert np.array_equal(lam[shift:], -lam[:-shift])

    @pytest.mark.parametrize("N", [1, 3, 8, 10, 24, 40, 199, 200, 800, 2000])
    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    def test_close_to_the_unreduced_phase(self, l, N):
        # the direct cos(l pi j / N) rounds a phase up to l pi, so it carries
        # about one ulp of l pi; the reduced phase stays within two of it, at
        # integer sites and between them
        lambda0 = 0.6392
        ulp = np.spacing(l * math.pi) * lambda0 * math.sqrt(l)
        rng = np.random.default_rng(N)
        for x in (np.arange(N), np.arange(N) + 0.5, rng.uniform(0, N, 64)):
            direct = lambda0 * math.sqrt(l) * np.cos(l * math.pi * x / N)
            assert np.max(np.abs(coupling_strength(l, x, lambda0, N) - direct)) <= 2 * ulp

    def test_mode_index_validated(self):
        with pytest.raises(ValueError):
            coupling_strength(0, 0, 1.0, 10)

    def test_self_energy_closed_form(self):
        # direct site sum telescopes to lambda0^2 l / (8 E_c) for l < N
        assert self_energy_D(2, 1.0, 100, 8.0) == pytest.approx(0.03125, abs=1e-15)
        assert self_energy_D(1, 0.7, 64, 4.0) == pytest.approx(0.7**2 / 32.0, abs=1e-15)

    def test_modeset_arrays(self):
        ms = ModeSet(modes=(1, 3), lambda0=0.4, N=20, E_c=8.0)
        assert ms.couplings.shape == (2, 20)
        np.testing.assert_allclose(ms.frequencies, [1.0, 3.0])
        np.testing.assert_allclose(
            ms.couplings[1], coupling_strength(3, np.arange(20), 0.4, 20)
        )
        assert not ms.couplings.flags.writeable

    def test_modeset_validation(self):
        with pytest.raises(ValueError):
            ModeSet(modes=(), lambda0=0.1, N=10, E_c=8.0)
        with pytest.raises(ValueError):
            ModeSet(modes=(1, 1), lambda0=0.1, N=10, E_c=8.0)
        with pytest.raises(ValueError):
            ModeSet(modes=(0,), lambda0=0.1, N=10, E_c=8.0)
        with pytest.raises(ValueError):
            ModeSet(modes=(1,), lambda0=-0.1, N=10, E_c=8.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="lambda0 must be >= 0 and finite"):
                ModeSet(modes=(1,), lambda0=bad, N=10, E_c=8.0)
            with pytest.raises(ValueError, match="E_c must be positive and finite"):
                ModeSet(modes=(1,), lambda0=0.1, N=10, E_c=bad)


class TestEffectiveField:
    def test_undriven(self):
        chain = ChainSpec(N=6, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.1))
        ms = ModeSet(modes=(1,), lambda0=0.5, N=6, E_c=8.0)
        fld = effective_field(chain, ms, [0.0])
        np.testing.assert_allclose(fld.Omega, 0.4)
        np.testing.assert_allclose(fld.theta, 0.0)

    def test_known_point(self):
        # E_z = 0.8, mode 2, lambda0 = 0.5, phi = 0.5 at j = 0:
        # drive = 2 * 0.5*sqrt(2) * 0.5 = 1/sqrt(2), Omega = sqrt(0.16 + 0.5)
        chain = ChainSpec(N=8, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.0))
        ms = ModeSet(modes=(2,), lambda0=0.5, N=8, E_c=8.0)
        fld = effective_field(chain, ms, [0.5])
        assert fld.Omega[0] == pytest.approx(math.sqrt(0.66), abs=1e-15)
        assert fld.theta[0] == pytest.approx(math.atan2(2.0**-0.5, 0.4), abs=1e-12)

    def test_polar_identities(self):
        rng = np.random.default_rng(42)
        chain = ChainSpec(N=30, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.1))
        for _ in range(10):
            ms = ModeSet(modes=(1, 2, 4), lambda0=rng.uniform(0, 1), N=30, E_c=8.0)
            phi = rng.uniform(-1, 1, 3)
            fld = effective_field(chain, ms, phi)
            drive = 2.0 * phi @ ms.couplings
            np.testing.assert_allclose(fld.Omega * np.cos(fld.theta), 0.4, atol=1e-12)
            np.testing.assert_allclose(fld.Omega * np.sin(fld.theta), drive, atol=1e-12)
            assert np.all(fld.Omega >= 0.4 - 1e-15)

    def test_shape_mismatches(self):
        chain = ChainSpec(N=6, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.1))
        ms = ModeSet(modes=(1, 2), lambda0=0.5, N=6, E_c=8.0)
        with pytest.raises(ValueError):
            effective_field(chain, ms, [0.1])
        ms_wrong = ModeSet(modes=(1,), lambda0=0.5, N=7, E_c=8.0)
        with pytest.raises(ValueError):
            effective_field(chain, ms_wrong, [0.1])

    def test_field_is_frozen(self):
        fld = EffectiveField(Omega=np.array([0.4]), theta=np.array([0.0]))
        with pytest.raises(ValueError):
            fld.Omega[0] = 1.0

    def test_freezing_leaves_the_callers_array_writable(self):
        # a contiguous float64 input is the array the caller still holds: the
        # field keeps a read-only copy and the caller may go on writing
        Om = np.array([0.4, 0.5])
        theta = np.zeros(2)
        fld = EffectiveField(Omega=Om, theta=theta)
        Om[0] = 1.0
        theta[1] = 0.3
        assert fld.Omega.tolist() == [0.4, 0.5]
        assert fld.theta.tolist() == [0.0, 0.0]
        with pytest.raises(ValueError):
            fld.Omega[0] = 1.0

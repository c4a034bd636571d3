"""Wick-contraction observables against brute force and closed forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavising import correlation
from cavising.correlation import (
    correlation_report,
    pair_contractions,
    yy_correlation,
    yy_table,
)
from cavising.fermion import Sector, build_quadratic_form, ground_sector, solve_quasiparticles
from cavising.model import ChainSpec, EffectiveField, IsingProfile, ModeSet, effective_field
from cavising.oracle import DenseSpinProblem, exact_expectations, exact_ground


def flat_field(Omega):
    Omega = np.asarray(Omega, dtype=float)
    return EffectiveField(Omega=Omega, theta=np.zeros_like(Omega))


class TestContractions:
    def test_decoupled_chain_is_fully_polarized(self):
        sol = ground_sector(flat_field([0.9, 0.2, 0.5, 0.7]), np.zeros(4))
        G = pair_contractions(sol)
        np.testing.assert_allclose(G, -np.eye(4), atol=1e-14)

    def test_against_brute_force(self):
        # the full dressed pipeline at random amplitudes, all separations
        rng = np.random.default_rng(31)
        for _ in range(6):
            N = int(rng.integers(4, 9))
            chain = ChainSpec(
                N=N,
                E_z=rng.uniform(0.2, 1.2),
                E_c=8.0,
                ising=IsingProfile.explicit(rng.uniform(0.0, 0.8, N)),
            )
            ms = ModeSet(modes=(1, 2), lambda0=rng.uniform(0.0, 0.8), N=N, E_c=8.0)
            phi = rng.uniform(-0.6, 0.6, 2)
            fld = effective_field(chain, ms, phi)
            rep = correlation_report(chain, ms, phi, n_max=N - 1)

            problem = DenseSpinProblem(Omega=fld.Omega, J=chain.bonds())
            _, state = exact_ground(problem, parity=+1)
            pairs = [(j, n) for j in range(N) for n in range(1, N)]
            ref = exact_expectations(problem, state, pairs=pairs, theta=fld.theta)

            np.testing.assert_allclose(rep.sigma_z_rot, ref["sigma_z"], atol=1e-10)
            np.testing.assert_allclose(rep.sigma_z_lab, ref["sigma_z_lab"], atol=1e-10)
            np.testing.assert_allclose(rep.sigma_x_lab, ref["sigma_x_lab"], atol=1e-10)
            table = yy_table(rep.G, N - 1)
            for key in pairs:
                assert table[key] == pytest.approx(ref["yy"][key], abs=1e-10)

    def test_translation_invariance_through_the_seam(self):
        # a uniform ring must give the same rho at every site, wrapped
        # blocks included; this is what the seam sign is for
        sol = ground_sector(flat_field(np.full(12, 0.4)), np.full(12, 0.3))
        G = pair_contractions(sol)
        for n in (1, 3, 5, 9, 11):
            vals = [yy_correlation(G, j, n) for j in range(12)]
            np.testing.assert_allclose(vals, vals[0], atol=1e-12)

    def test_pair_symmetry(self):
        # (j, j+n) and (j+n, j+n+(N-n)) name the same pair of sites
        rng = np.random.default_rng(37)
        N = 7
        sol = ground_sector(flat_field(rng.uniform(0.2, 1.0, N)), rng.uniform(0.0, 0.9, N))
        G = pair_contractions(sol)
        for j in range(N):
            for n in range(1, N):
                assert yy_correlation(G, j, n) == pytest.approx(
                    yy_correlation(G, (j + n) % N, N - n), abs=1e-12
                )

    def test_separation_validated(self):
        G = -np.eye(5)
        with pytest.raises(ValueError):
            yy_correlation(G, 0, 0)
        with pytest.raises(ValueError):
            yy_correlation(G, 0, 5)


class TestDecayLengths:
    def test_pure_exponential_is_exact(self):
        # log-linear interpolation recovers 1 + xi0 identically for
        # rho(n) = r1 exp(-(n-1)/xi0)
        xi0 = 3.3
        rho = lambda j, n: 0.8 * math.exp(-(n - 1) / xi0)
        xi_r, xi_l, xi_rl, flag_r, flag_l = correlation_lengths(rho, 0, 20)
        assert xi_r == pytest.approx(1.0 + xi0, abs=1e-12)
        assert xi_rl == pytest.approx(1.0 + xi0, abs=1e-12)
        assert flag_r == flag_l == "ok"

    def test_sign_oscillation_is_ignored(self):
        xi0 = 2.6
        rho = lambda j, n: (-1.0) ** n * 0.5 * math.exp(-(n - 1) / xi0)
        xi_r, _, _, flag_r, _ = correlation_lengths(rho, 0, 20)
        assert xi_r == pytest.approx(1.0 + xi0, abs=1e-12)
        assert flag_r == "ok"

    def test_uncorrelated_flag(self):
        xi_r, xi_l, xi_rl, flag_r, flag_l = correlation_lengths(lambda j, n: 0.0, 3, 10)
        assert (xi_r, xi_l, xi_rl) == (0.0, 0.0, 0.0)
        assert flag_r == flag_l == "uncorrelated"

    def test_saturated_flag(self):
        xi_r, _, _, flag_r, _ = correlation_lengths(lambda j, n: 0.5, 0, 7)
        assert xi_r == 7.0
        assert flag_r == "saturated"

    def test_left_walk_direction(self):
        calls = []

        def rho(j, n):
            calls.append((j, n))
            return 0.5 * math.exp(-n)

        correlation_lengths(rho, 4, 6)
        assert (4, 1) in calls  # rightward start
        assert (3, 1) in calls  # leftward start probes j - n
        assert (2, 2) in calls


class TestReport:
    def test_paramagnetic_chain(self):
        chain = ChainSpec(N=16, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.1))
        ms = ModeSet(modes=(1,), lambda0=0.3, N=16, E_c=8.0)
        rep = correlation_report(chain, ms, [0.0])
        assert rep.n_max == 8
        np.testing.assert_allclose(rep.sigma_z_lab, rep.sigma_z_rot, atol=1e-14)
        np.testing.assert_allclose(rep.sigma_x_lab, 0.0, atol=1e-14)
        assert np.all(rep.sigma_z_rot > 0.9)
        assert all(f == "ok" for f in rep.flags_r)
        assert np.all(rep.xi_rl < 3.0)
        np.testing.assert_allclose(rep.xi_r, rep.xi_l, atol=1e-10)

    def test_ordered_chain_saturates(self):
        chain = ChainSpec(N=16, E_z=0.2, E_c=8.0, ising=IsingProfile.uniform(0.6))
        ms = ModeSet(modes=(1,), lambda0=0.0, N=16, E_c=8.0)
        rep = correlation_report(chain, ms, [0.0])
        assert all(f == "saturated" for f in rep.flags_r)
        np.testing.assert_allclose(rep.xi_rl, rep.n_max)

    def test_dressed_frame_rotation(self):
        chain = ChainSpec(N=8, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.0))
        ms = ModeSet(modes=(2,), lambda0=0.5, N=8, E_c=8.0)
        rep = correlation_report(chain, ms, [0.4])
        fld = effective_field(chain, ms, [0.4])
        np.testing.assert_allclose(rep.sigma_z_rot, 1.0, atol=1e-12)
        np.testing.assert_allclose(rep.sigma_z_lab, np.cos(fld.theta), atol=1e-12)
        np.testing.assert_allclose(rep.sigma_x_lab, np.sin(fld.theta), atol=1e-12)

    def test_odd_sector_solution_rejected(self):
        chain = ChainSpec(N=6, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.2))
        ms = ModeSet(modes=(1,), lambda0=0.1, N=6, E_c=8.0)
        fld = effective_field(chain, ms, [0.0])
        odd = solve_quasiparticles(build_quadratic_form(fld, chain.bonds(), Sector.ODD))
        with pytest.raises(ValueError):
            correlation_report(chain, ms, [0.0], solution=odd)
        # nor a report that probes no separation
        for n_max in (0, -3):
            with pytest.raises(ValueError, match="n_max"):
                correlation_report(chain, ms, [0.0], n_max=n_max)

    def test_single_site_chain(self):
        chain = ChainSpec(N=1, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.0))
        ms = ModeSet(modes=(1,), lambda0=0.0, N=1, E_c=8.0)
        rep = correlation_report(chain, ms, [0.0])
        assert rep.sigma_z_rot[0] == pytest.approx(1.0, abs=1e-12)
        assert rep.flags_r == ("uncorrelated",)


# bond ranges in units of E_z; the gap closes at J = E_z / 2
REGIMES = {
    "P": (0.0, 0.15),
    "deep P": (0.0, 0.005),  # rho falls below 1e-15 within a few sites
    "F": (0.7, 1.5),
}


@st.composite
def dressed_rings(draw):
    """A ring in one magnetic regime at a random coupling and amplitude."""
    N = draw(st.integers(2, 40))
    regime = draw(st.sampled_from(["P", "deep P", "F", "FP"]))
    E_z = draw(st.floats(0.4, 1.2))

    def bonds(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=N, max_size=N)))

    if regime == "FP":
        # windows of strong bonds between paramagnetic ones
        period = draw(st.integers(1, 3))
        strong = (np.arange(N) // period) % 2 == 0
        J = np.where(strong, bonds(*REGIMES["F"]), bonds(*REGIMES["P"]))
    else:
        J = bonds(*REGIMES[regime])
    chain = ChainSpec(N=N, E_z=E_z, E_c=8.0, ising=IsingProfile.explicit(J * E_z))
    ms = ModeSet(modes=(1,), lambda0=draw(st.floats(0.0, 0.8)), N=N, E_c=8.0)
    return chain, ms, np.array([draw(st.floats(-0.5, 0.5))])


def decay_length(r_of_n, n_max):
    """Scalar walk: the first ``n`` with ``|rho(n)| <= |rho(1)|/e``, log-interpolated."""
    r_prev = abs(r_of_n(1))
    if r_prev <= 1e-12:
        return 0.0, "uncorrelated"
    target = r_prev / math.e
    for n in range(2, n_max + 1):
        r = abs(r_of_n(n))
        if r <= target:
            r = max(r, 1e-300)
            frac = (math.log(r_prev) - math.log(target)) / (math.log(r_prev) - math.log(r))
            return float(n - 1) + frac, "ok"
        r_prev = r
    return float(n_max), "saturated"


def correlation_lengths(rho, j, n_max):
    """Oracle for one site: ``(xi_r, xi_l, xi_rl, flag_r, flag_l)`` from ``rho(j, n)``."""
    xi_r, flag_r = decay_length(lambda n: rho(j, n), n_max)
    xi_l, flag_l = decay_length(lambda n: rho(j - n, n), n_max)
    return xi_r, xi_l, 0.5 * (xi_r + xi_l), flag_r, flag_l


def assert_lengths_match_oracle(rep):
    """The oracle walked over the report's own ``rho`` gives its lengths bit for bit."""
    walks = [
        correlation_lengths(lambda j, n: rep.rho[(j % rep.N, n)], j, rep.n_max)
        for j in range(rep.N)
    ]
    assert rep.xi_r.tolist() == [w[0] for w in walks]
    assert rep.xi_l.tolist() == [w[1] for w in walks]
    assert rep.xi_rl.tolist() == [w[2] for w in walks]
    assert rep.flags_r == tuple(w[3] for w in walks)
    assert rep.flags_l == tuple(w[4] for w in walks)


def det_walks(G, n_max):
    """Every site's decay lengths from one determinant per correlator.

    Also returns the table a report must hold to serve those walks: every
    site, up to the deepest ``n`` any of them read.
    """
    depth = 0

    def rho(j, n):
        nonlocal depth
        depth = max(depth, n)
        return yy_correlation(G, j, n)

    walks = [correlation_lengths(rho, j, n_max) for j in range(G.shape[0])]
    return walks, {(j, n) for j in range(G.shape[0]) for n in range(1, depth + 1)}


class TestWindowMinors:
    """The batched elimination against one LAPACK determinant per correlator."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(dressed_rings())
    def test_matches_determinants(self, ring):
        chain, ms, phi = ring
        rep = correlation_report(chain, ms, phi)
        table = yy_table(rep.G, chain.N - 1)
        for (j, n), value in table.items():
            ref = yy_correlation(rep.G, j, n)
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (j, n)
        assert all(table[key] == value for key, value in rep.rho.items())
        walks, keys = det_walks(rep.G, rep.n_max)
        assert set(rep.rho) == keys
        assert rep.flags_r == tuple(w[3] for w in walks)
        assert rep.flags_l == tuple(w[4] for w in walks)
        np.testing.assert_allclose(rep.xi_r, [w[0] for w in walks], rtol=0, atol=1e-9)
        np.testing.assert_allclose(rep.xi_l, [w[1] for w in walks], rtol=0, atol=1e-9)
        assert_lengths_match_oracle(rep)

    def test_report_and_table_agree_bit_for_bit(self):
        # a window ring: short walks on weak bonds, saturated ones on strong
        chain = ChainSpec(N=60, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.9, 0.1, 3))
        ms = ModeSet(modes=(2,), lambda0=0.4, N=60, E_c=8.0)
        rep = correlation_report(chain, ms, [0.2], n_max=25)
        table = yy_table(rep.G, rep.n_max)
        assert all(table[key] == value for key, value in rep.rho.items())
        # the elimination stopped where the deepest walk ended
        _, keys = det_walks(rep.G, rep.n_max)
        assert set(rep.rho) == keys
        assert 1 < max(n for _, n in keys) < rep.n_max
        assert_lengths_match_oracle(rep)
        # at n_max = 1 every walk is correlated and saturates at once
        rep_1 = correlation_report(chain, ms, [0.2], n_max=1)
        assert_lengths_match_oracle(rep_1)
        assert rep_1.flags_r == rep_1.flags_l == ("saturated",) * 60
        np.testing.assert_array_equal(rep_1.xi_rl, 1.0)
        # the closing depths end the table: one column past the deepest,
        # unless a walk saturated and the table runs to n_max
        for n_max in (rep.n_max, rep_1.n_max):
            R, depth = correlation._window_minors(rep.G, n_max, stop_early=True)
            assert R.shape[1] == min(1 + depth.max(), n_max)

    def test_vanishing_leading_minor_falls_back(self, monkeypatch):
        # an orthogonal G whose window at site 0 has H[0, 0] = G[0, 1] = 0
        rng = np.random.default_rng(43)
        Q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        c, s = Q[0, 1], Q[0, 2]
        r = math.hypot(c, s)
        rot = np.eye(7)
        rot[1:3, 1:3] = [[s / r, c / r], [-c / r, s / r]]
        G = Q @ rot
        assert G[0, 1] == pytest.approx(0.0, abs=1e-16)
        fallbacks = []
        real = correlation.yy_correlation

        def counted(G, j, n):
            fallbacks.append((j, n))
            return real(G, j, n)

        monkeypatch.setattr(correlation, "yy_correlation", counted)
        table = yy_table(G, 6)
        # window 0 takes its whole row from det; (1, 6) is the minor
        # complementary to G[0, 1] in the orthogonal G, so it vanishes too
        assert sorted(fallbacks) == [(0, n) for n in range(1, 7)] + [(1, 6)]
        for (j, n), value in table.items():
            assert value == pytest.approx(real(G, j, n), abs=1e-12)
        # the window's later minors are not zero: the fallback is needed
        assert abs(table[(0, 2)]) > 1e-3


class TestEdgeCases:
    @pytest.mark.parametrize("N", [2, 3])
    def test_smallest_rings_against_brute_force(self, N):
        chain = ChainSpec(
            N=N, E_z=0.7, E_c=8.0, ising=IsingProfile.explicit([0.5, 0.3, 0.8][:N])
        )
        ms = ModeSet(modes=(1,), lambda0=0.4, N=N, E_c=8.0)
        rep = correlation_report(chain, ms, [0.3], n_max=N - 1)
        fld = effective_field(chain, ms, [0.3])
        problem = DenseSpinProblem(Omega=fld.Omega, J=chain.bonds())
        _, state = exact_ground(problem, parity=+1)
        pairs = [(j, n) for j in range(N) for n in range(1, N)]
        ref = exact_expectations(problem, state, pairs=pairs, theta=fld.theta)
        assert rep.n_max == N - 1
        table = yy_table(rep.G, N - 1)
        for key in pairs:
            assert table[key] == pytest.approx(ref["yy"][key], abs=1e-10)
        for key, value in rep.rho.items():
            assert value == pytest.approx(ref["yy"][key], abs=1e-10)
        walks, keys = det_walks(rep.G, N - 1)
        assert set(rep.rho) == keys
        assert rep.flags_r == tuple(w[3] for w in walks)
        assert rep.flags_l == tuple(w[4] for w in walks)
        assert_lengths_match_oracle(rep)

    def test_decoupled_ring_is_uncorrelated_without_warnings(self):
        # J = 0: G = -1, so every window's first pivot G[j, j + 1] is 0
        chain = ChainSpec(N=12, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.0))
        ms = ModeSet(modes=(1,), lambda0=0.3, N=12, E_c=8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = correlation_report(chain, ms, [0.2], n_max=6)
            table = yy_table(rep.G, 6)
        assert rep.flags_r == rep.flags_l == ("uncorrelated",) * 12
        np.testing.assert_array_equal(rep.xi_rl, 0.0)
        assert max(abs(v) for v in table.values()) <= 1e-12

"""Wick-contraction observables against brute force and closed forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavising import correlation
from cavising.correlation import (
    correlation_report,
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
        G = sol.G
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
        G = sol.G
        for n in (1, 3, 5, 9, 11):
            vals = [yy_correlation(G, j, n) for j in range(12)]
            np.testing.assert_allclose(vals, vals[0], atol=1e-12)

    def test_pair_symmetry(self):
        # (j, j+n) and (j+n, j+n+(N-n)) name the same pair of sites
        rng = np.random.default_rng(37)
        N = 7
        sol = ground_sector(flat_field(rng.uniform(0.2, 1.0, N)), rng.uniform(0.0, 0.9, N))
        G = sol.G
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

    def test_table_size_validated(self):
        # the report's rule: a table that probes no separation is refused
        G = -np.eye(5)
        for n_max in (0, -3):
            with pytest.raises(ValueError, match="n_max must be at least 1"):
                yy_table(G, n_max)


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

    def test_solution_of_another_size_rejected(self, monkeypatch):
        chain = ChainSpec(N=16, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.2))
        ms = ModeSet(modes=(1,), lambda0=0.1, N=16, E_c=8.0)
        other = ground_sector(flat_field(np.full(24, 0.4)), np.full(24, 0.2))

        def no_work(*args):
            raise AssertionError("the report started before checking the solution")

        monkeypatch.setattr(correlation, "effective_field", no_work)
        with pytest.raises(ValueError, match="N = 24 .* N = 16"):
            correlation_report(chain, ms, [0.0], solution=other)

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
def dressed_rings(draw, sizes=st.integers(2, 40)):
    """A ring in one magnetic regime at a random coupling and amplitude."""
    N = draw(sizes)
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


def window_minors(G, n_max, M, stop_early=False):
    """``correlation._window_minors`` under the report's stop rule, or none: the table and
    the depths at which the walks were open."""
    stop = correlation._all_closed if stop_early else None
    R, walks = correlation._window_minors(G, n_max, M, stop=stop)
    return R, walks.depth


def column_minors(G, n_max, stop_early=False):
    """Column-by-column elimination of all N windows: the independent reference of the table.

    One rank-1 step per column and window, in a Python loop over the
    columns, with the pivot bar, the zero multipliers of a broken window,
    its fallback and the walks' crossing rule of ``correlation._window_minors``;
    the columns come in 8, 16, 32, ... at a time and catch up with the steps
    already taken.
    """
    N = G.shape[0]
    m = max(min(n_max, N - 1), 0)
    P = np.pad(np.roll(G, -1, axis=1), ((0, m), (0, m)), mode="wrap")
    rs, cs = P.strides
    columns = np.lib.stride_tricks.as_strided(P, shape=(m, m, N), strides=(cs, rs, rs + cs))

    def eliminate(A, t, broken, first):
        mult = np.where(broken, 0.0, A[t, t + 1 :] / np.where(broken, 1.0, A[t, t]))
        for c in range(first, len(A)):
            A[c, t + 1 :] -= mult * A[c, t]

    R = np.empty((N, m))
    walks = np.arange(2 * N)
    depth = np.zeros(2 * N, dtype=int)
    minor = np.ones(N)
    broken = np.zeros(N, dtype=bool)
    A = np.empty((m, m, N))
    width = 0
    for k in range(m):
        if k == width:
            done = width
            width = min(m, max(2 * width, 8)) if stop_early else m
            A[done:width] = columns[done:width]
            for t in range(done):
                eliminate(A[:width], t, broken, done)
        pivot = A[k, k]
        broken |= np.abs(pivot) <= correlation._PIVOT_BAR
        minor *= np.where(broken, 1.0, pivot)
        R[:, k] = np.where(np.arange(N) + k + 1 >= N, -minor, minor)
        for s in np.flatnonzero(broken):
            R[s, k] = correlation.yy_correlation(G, s, k + 1)
        r = np.abs(R[(walks - (walks >= N) * (k + 1)) % N, k])
        if k == 0:
            target = r / math.e
            open_ = r > correlation._NEGLIGIBLE
        else:
            open_ &= r > target
        depth += open_
        if stop_early and not open_.any():
            return R[:, : k + 1], depth
        eliminate(A[:width], k, broken, k + 1)
    return R, depth


def all_window_minors(G, n_max, stop_early=False):
    """The report's kernel on all N windows, one period or not: the oracle of the report's table.

    ``correlation._pivots`` eliminates every window, with no copies between
    periods; the fallback and the walks' crossing rule are those of
    ``correlation._window_minors``.
    """
    N = G.shape[0]
    m = max(min(n_max, N - 1), 0)
    R = np.empty((N, m))
    walks = np.arange(2 * N)
    depth = np.zeros(2 * N, dtype=int)
    minor = np.ones(N)
    for k, (pivot, broken) in enumerate(correlation._pivots(G, m, range(N))):
        minor *= np.where(broken, 1.0, pivot)
        R[:, k] = np.where(np.arange(N) + k + 1 >= N, -minor, minor)
        for s in np.flatnonzero(broken):
            R[s, k] = correlation.yy_correlation(G, s, k + 1)
        r = np.abs(R[(walks - (walks >= N) * (k + 1)) % N, k])
        if k == 0:
            target = r / math.e
            open_ = r > correlation._NEGLIGIBLE
        else:
            open_ &= r > target
        depth += open_
        if stop_early and not open_.any():
            return R[:, : k + 1], depth
    return R, depth


def break_depths(G, m):
    """The depth ``k`` at which each window's pivot first fell to the bar (``m`` if never)."""
    first = np.full(G.shape[0], m)
    for k, (_, broken) in enumerate(correlation._pivots(G, m, range(G.shape[0]))):
        first[broken & (first == m)] = k
    return first


def assert_one_period_is_the_oracle(G, n_max, period):
    """One period of windows, tiled, equals the all-window elimination bit for bit."""
    assert correlation._twisted_period(G) == period
    for stop_early in (False, True):
        R, depth = window_minors(G, n_max, period, stop_early=stop_early)
        R_ref, depth_ref = all_window_minors(G, n_max, stop_early=stop_early)
        assert np.array_equal(R, R_ref) and np.array_equal(depth, depth_ref)


def tiled_report(cell, tiles, n_max=None):
    """Report on a ring of ``tiles`` copies of a random ``cell``-site window ring, at phi = 0."""
    rng = np.random.default_rng(cell * tiles)
    J = np.tile(rng.uniform(0.0, 0.3, cell), tiles)
    J[::cell] = rng.uniform(0.5, 0.9)  # a strong bond per cell
    N = cell * tiles
    chain = ChainSpec(N=N, E_z=0.8, E_c=8.0, ising=IsingProfile.explicit(J))
    ms = ModeSet(modes=(1,), lambda0=0.5, N=N, E_c=8.0)
    return correlation_report(chain, ms, [0.0], n_max=n_max)


class TestOnePeriod:
    """A ring that repeats eliminates the windows of one period and copies the rest."""

    @pytest.mark.parametrize("tiles", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("cell", [8, 11])
    def test_tiled_rings_match_the_oracle(self, cell, tiles):
        rep = tiled_report(cell, tiles)
        assert rep.solution.period == cell
        assert_one_period_is_the_oracle(rep.G, rep.n_max, cell)
        table = yy_table(rep.G, rep.n_max)
        assert all(table[key] == value for key, value in rep.rho.items())

    @pytest.mark.parametrize("tiles", [2, 3, 4])
    @pytest.mark.parametrize("cell", [8, 11])
    def test_report_takes_the_period_from_its_solution(self, monkeypatch, cell, tiles):
        # the period the solve built G with, not a search of G
        def no_search(G):
            raise AssertionError("the report searched G for its period")

        with monkeypatch.context() as patched:
            patched.setattr(correlation, "_twisted_period", no_search)
            rep = tiled_report(cell, tiles)
        assert rep.solution.period == cell
        table = yy_table(rep.G, rep.n_max)
        assert all(table[key] == value for key, value in rep.rho.items())

    def test_phase_column_ring_matches_the_oracle(self):
        # a condensed cell of the benchmark's phase-column workload: two blocks of 100
        chain = ChainSpec(
            N=200, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.5007, 0.2007, 2)
        )
        ms = ModeSet(modes=(2,), lambda0=0.9128831922543927, N=200, E_c=8.0)
        rep = correlation_report(chain, ms, [0.2856021645667419], n_max=40)
        assert rep.solution.period == 100
        assert_one_period_is_the_oracle(rep.G, 40, 100)
        table = yy_table(rep.G, 40)
        assert all(table[key] == value for key, value in rep.rho.items())

    def test_fallback_runs_on_one_period(self, monkeypatch):
        # a bar this high breaks many windows partway: each takes the rest of its
        # row from yy_correlation, in the first period only
        monkeypatch.setattr(correlation, "_PIVOT_BAR", 0.3)
        rep = tiled_report(8, 4, n_max=12)
        R_ref, _ = all_window_minors(rep.G, 12)
        starts = []
        real = correlation.yy_correlation

        def counted(G, j, n):
            starts.append(j)
            return real(G, j, n)

        monkeypatch.setattr(correlation, "yy_correlation", counted)
        R, _ = window_minors(rep.G, 12, rep.solution.period)
        assert starts and max(starts) < 8
        assert np.array_equal(R, R_ref)

    def test_one_ulp_off_takes_all_windows(self):
        rep = tiled_report(8, 3, n_max=10)
        G = np.array(rep.G)
        G[9, 13] = np.nextafter(G[9, 13], 2.0)
        assert correlation._twisted_period(rep.G) == 8
        assert_one_period_is_the_oracle(G, 10, 24)


PANEL = correlation._PANEL


class TestPanels:
    """The panel elimination against the column-by-column reference."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        ring=dressed_rings(
            sizes=st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 40), st.integers(9, 40))
        ),
        n_max=st.one_of(
            st.sampled_from([PANEL - 1, PANEL, PANEL + 1, 2 * PANEL, 2 * PANEL + 3]),
            st.integers(1, 3 * PANEL + 3),
        ),
        stop_early=st.booleans(),
    )
    def test_matches_column_by_column(self, ring, n_max, stop_early):
        chain, ms, phi = ring
        sol = ground_sector(effective_field(chain, ms, phi), chain.bonds())
        G = sol.G
        R, depth = window_minors(G, n_max, sol.period, stop_early=stop_early)
        R_ref, depth_ref = column_minors(G, n_max, stop_early=stop_early)
        assert R.shape == R_ref.shape
        assert np.array_equal(depth, depth_ref)
        np.testing.assert_allclose(R, R_ref, rtol=0, atol=1e-13)

    def test_window_broken_mid_panel_takes_its_row_from_det(self, monkeypatch):
        # half strong, half weak bonds: the pivots of a window starting in the
        # strong half drop where it reaches the weak one, so with this bar the
        # window at s breaks at depth 24 - s, inside each of the three panels
        monkeypatch.setattr(correlation, "_PIVOT_BAR", 0.3)
        N, m = 48, 24
        J = np.where(np.arange(N) < N // 2, 0.9, 0.05)
        sol = ground_sector(flat_field(np.full(N, 0.4)), J)
        G = sol.G
        first = break_depths(G, m)
        assert {int(b) // PANEL for b in first if b % PANEL} == {0, 1, 2}
        R, _ = window_minors(G, m, sol.period)
        for s, b in enumerate(first.tolist()):
            for n in range(1, m + 1):
                ref = yy_correlation(G, s, n)
                if n > b:
                    assert R[s, n - 1] == ref, (s, n)
                else:
                    assert abs(R[s, n - 1] - ref) <= 1e-12, (s, n)
        np.testing.assert_allclose(R, column_minors(G, m)[0], rtol=0, atol=1e-13)


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
            R, depth = window_minors(
                rep.G, n_max, rep.solution.period, stop_early=True
            )
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


@st.composite
def chunk_cases(draw):
    """A ring of up to 120 sites, tiled or not, a table size and a pivot bar.

    A tiled ring repeats its bonds ``tiles`` times under a drive of the same
    period, so its solve has a period below N; an untiled one has none.  A
    run of strong bonds among weak ones makes the walks on its two sides
    close at different depths.  A high bar breaks windows partway, and they
    take the fallback.
    """
    tiles = draw(st.sampled_from([1, 1, 2, 3, 4]))
    # the solve finds no period below 8 sites
    cell = draw(st.integers(2 if tiles == 1 else 8, 120 // tiles))
    N = cell * tiles
    E_z = draw(st.floats(0.4, 1.2))
    regime = draw(st.sampled_from(["P", "F", "FP"]))
    lo, hi = REGIMES["F" if regime == "F" else "P"]
    J = np.array(draw(st.lists(st.floats(lo, hi), min_size=cell, max_size=cell)))
    if regime == "FP":
        start, run = draw(st.integers(0, cell - 1)), draw(st.integers(1, max(cell // 2, 1)))
        J[start : start + run] = draw(st.floats(*REGIMES["F"]))
    bonds = np.tile(J * E_z, tiles)
    phi = draw(st.floats(-0.5, 0.5))
    n_max = draw(st.integers(1, N - 1))
    bar = draw(st.sampled_from([correlation._PIVOT_BAR, 0.3]))
    return N, tiles, bonds.tolist(), E_z, phi, n_max, bar


def chunk_ring(N, tiles, bonds, E_z, phi):
    chain = ChainSpec(N=N, E_z=E_z, E_c=8.0, ising=IsingProfile.explicit(bonds))
    ms = ModeSet(modes=(2 * tiles,), lambda0=0.5, N=N, E_c=8.0)
    return chain, ms, [phi]


def assert_chunks_match_one_chunk(case, stop_early, width):
    """Chunks of ``width`` windows give the one-chunk table, depths and report.

    Returns the chunked table and depths.
    """
    N, tiles, bonds, E_z, phi, n_max, bar = case
    chain, ms, phi = chunk_ring(N, tiles, bonds, E_z, phi)
    sol = ground_sector(effective_field(chain, ms, phi), chain.bonds())
    M, m = sol.period, min(n_max, N - 1)
    assert M < N or tiles == 1
    runs = []
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(correlation, "_PIVOT_BAR", bar)
        for windows in (M, width):
            patched.setattr(correlation, "_CHUNK_BYTES", windows * correlation._window_bytes(m))
            R, depth = window_minors(sol.G, n_max, M, stop_early=stop_early)
            rep = correlation_report(chain, ms, phi, n_max=n_max, solution=sol)
            runs.append((R, depth, rep))
    (R_one, depth_one, rep_one), (R, depth, rep) = runs
    assert R.shape == R_one.shape and np.array_equal(R, R_one)
    assert np.array_equal(depth, depth_one)
    assert np.array_equal(rep.minors, rep_one.minors)
    assert set(rep.rho) == set(rep_one.rho)
    for name in ("xi_r", "xi_l", "xi_rl"):
        assert np.array_equal(getattr(rep, name), getattr(rep_one, name))
    assert (rep.flags_r, rep.flags_l) == (rep_one.flags_r, rep_one.flags_l)
    return R, depth


# half strong and half weak bonds: under a bar of 0.3 the window at s < 24
# breaks at depth 24 - s (see TestPanels)
BROKEN_CASE = (48, 1, (np.where(np.arange(48) < 24, 0.9, 0.05)).tolist(), 0.8, 0.0, 24, 0.3)
# a run of four strong bonds: the deepest leftward walk closes a site after
# the deepest rightward one
LEFT_J = [0.01, 0.07, 0.02, 0.07, 0.0, 1.0, 1.0, 1.0, 1.0, 0.08]
LEFT_J += [0.07, 0.13, 0.01, 0.14, 0.01, 0.01, 0.14, 0.02, 0.07]
LEFT_CASE = (19, 1, (0.8 * np.array(LEFT_J)).tolist(), 0.8, -0.2, 18, correlation._PIVOT_BAR)


class TestChunks:
    """Windows eliminated a few starts at a time give the one-chunk table bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=chunk_cases(), stop_early=st.booleans(), width=st.integers(1, 7))
    @example(case=BROKEN_CASE, stop_early=True, width=3)
    @example(case=BROKEN_CASE, stop_early=False, width=5)
    @example(case=LEFT_CASE, stop_early=True, width=3)
    def test_chunks_match_one_chunk(self, case, stop_early, width):
        assert_chunks_match_one_chunk(case, stop_early, width)

    def test_broken_case_takes_the_fallback_in_chunks(self, monkeypatch):
        # the example above breaks windows in several chunks, each of which
        # takes the rest of its broken rows from yy_correlation
        N, tiles, bonds, E_z, phi, n_max, bar = BROKEN_CASE
        chain, ms, phi = chunk_ring(N, tiles, bonds, E_z, phi)
        sol = ground_sector(effective_field(chain, ms, phi), chain.bonds())
        monkeypatch.setattr(correlation, "_PIVOT_BAR", bar)
        monkeypatch.setattr(correlation, "_CHUNK_BYTES", 3 * correlation._window_bytes(n_max))
        starts = []
        real = correlation.yy_correlation

        def counted(G, j, n):
            starts.append(j)
            return real(G, j, n)

        monkeypatch.setattr(correlation, "yy_correlation", counted)
        R, _ = window_minors(sol.G, n_max, sol.period)
        assert len({j // 3 for j in starts}) > 1
        np.testing.assert_allclose(R, column_minors(sol.G, n_max)[0], rtol=0, atol=1e-13)

    def test_leftward_walk_outlasting_every_chunk_goes_deeper(self):
        # each chunk stops once its own rightward walks close; a leftward walk
        # still open there sends every chunk deeper, to the one-chunk table
        R, depth = assert_chunks_match_one_chunk(LEFT_CASE, stop_early=True, width=3)
        N = LEFT_CASE[0]
        assert depth[N:].max() > depth[:N].max()
        assert R.shape[1] == depth.max() + 1 < LEFT_CASE[5]


class TestPfeuty:
    """Long-range order of the uniform ring at phi = 0 against Pfeuty's closed form.

    A uniform ring at ``phi = 0`` is the transverse-field Ising chain with
    field ``h = E_z/2`` and bond ``J``; for ``J > h``, ``rho(j, n)`` tends to
    ``(1 - (h/J)^2)^(1/4)`` (Pfeuty, Ann. Phys. 57, 79 (1970)), at sizes
    brute force cannot reach.
    """

    @pytest.mark.parametrize(
        "N, J, windows", [(400, 0.6, None), (400, 0.6, 7), (2000, 0.5, None)]
    )
    def test_far_window_order(self, monkeypatch, N, J, windows):
        h, n = 0.4, 100
        chain = ChainSpec(N=N, E_z=2 * h, E_c=8.0, ising=IsingProfile.uniform(J))
        ms = ModeSet(modes=(1,), lambda0=0.5, N=N, E_c=8.0)
        G = ground_sector(effective_field(chain, ms, [0.0]), chain.bonds()).G
        if windows is not None:
            monkeypatch.setattr(correlation, "_CHUNK_BYTES", windows * correlation._window_bytes(n))
        # every window as if the ring had no period: the default budget takes
        # them in one chunk at N = 400 and in six at N = 2000
        R, depth = window_minors(G, n, N, stop_early=True)
        assert R.shape == (N, n) and np.all(depth == n)
        np.testing.assert_allclose(R[:, n - 1], (1 - (h / J) ** 2) ** 0.25, rtol=0, atol=1e-12)

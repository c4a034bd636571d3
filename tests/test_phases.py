"""Sweeps, transition orders, and phase labels."""

from dataclasses import replace

import numpy as np
import pytest

from cavising import fermion, meanfield, phases
from cavising.correlation import CorrelationReport
from cavising.fermion import SolverError
from cavising.meanfield import SearchSpec, energy_per_particle, minimize_phi
from cavising.model import ChainSpec, IsingProfile, ModeSet
from cavising.phases import (
    AlreadyCondensedError,
    NoTransitionError,
    PhaseLabel,
    SweepContext,
    Thresholds,
    classify_magnetic_order,
    classify_transition_order,
    critical_coupling,
    phase_diagram,
    sweep,
)

QUICK = SearchSpec(coarse_points=61)

# located during calibration of the 40-site configuration below, mode 2
DESK_LAMBDA_C = 0.22544


def desk_chain():
    return ChainSpec(
        N=40, E_z=0.1, E_c=8.0, ising=IsingProfile.rectangular(0.026, 0.001, 2)
    )


def desk_ctx():
    return SweepContext(chain=desk_chain(), modes=(2,), search=QUICK)


def first_order_chain():
    return ChainSpec(N=40, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.8, 0.5, 2))


def first_order_ctx():
    return SweepContext(chain=first_order_chain(), modes=(2,), search=QUICK)


# straddles the first-order onset near 0.9944 of the column above
FIRST_ORDER_GRID = [0.9, 1.0, 1.1]


def synthetic_report(xi, sz):
    xi = np.asarray(xi, dtype=float)
    sz = np.asarray(sz, dtype=float)
    N = xi.shape[0]
    return CorrelationReport(
        G=np.zeros((N, N)),
        sigma_z_rot=sz,
        sigma_z_lab=sz,
        sigma_x_lab=np.zeros(N),
        rho={},
        xi_r=xi,
        xi_l=xi,
        xi_rl=xi,
        flags_r=("ok",) * N,
        flags_l=("ok",) * N,
        n_max=N // 2,
    )


class TestSweep:
    def test_onset_shape(self):
        res = sweep(desk_ctx(), "lambda0", np.linspace(0.1, 0.32, 12))
        assert all(r.status == "ok" for r in res.records)
        norms = [max(abs(p) for p in r.phi) for r in res.records]
        below = [n for v, n in zip(res.values(), norms) if v < 0.21]
        above = [n for v, n in zip(res.values(), norms) if v > 0.25]
        assert max(below) == 0.0
        assert min(above) > 1e-3
        assert res.axis == "lambda0"

    def test_empty_grid(self):
        res = sweep(desk_ctx(), "lambda0", [])
        assert res.records == ()

    def test_unknown_axis_is_rejected(self):
        # a misspelled axis is the caller's error, not a column of failed points
        with pytest.raises(ValueError, match="lamda0"):
            sweep(desk_ctx(), "lamda0", [0.1, 0.2])

    def test_per_point_failures_are_recorded(self):
        ctx = SweepContext(
            chain=ChainSpec(N=8, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.1)),
            modes=(1,),
            delta_J=0.1,
        )
        res = sweep(ctx, "J_min", [0.05, 0.1])
        assert all(r.status == "error" for r in res.records)
        assert "rectangular" in res.records[0].message

    def test_E_z_axis(self):
        ctx = SweepContext(
            chain=desk_chain(), modes=(2,), lambda0=0.1, search=QUICK, delta_J_factor=0.25
        )
        res = sweep(ctx, "E_z", [0.08, 0.1, 0.12])
        assert [r.status for r in res.records] == ["ok"] * 3
        assert all(max(abs(p) for p in r.phi) == 0.0 for r in res.records)


class TestCriticalCoupling:
    def test_desk_value(self):
        res = sweep(desk_ctx(), "lambda0", np.linspace(0.15, 0.3, 7))
        lam = critical_coupling(res)
        assert lam == pytest.approx(DESK_LAMBDA_C, abs=1.5e-3)

    def test_no_transition(self):
        res = sweep(desk_ctx(), "lambda0", np.linspace(0.05, 0.15, 4))
        with pytest.raises(NoTransitionError):
            critical_coupling(res)

    def test_already_condensed(self):
        res = sweep(desk_ctx(), "lambda0", np.linspace(0.26, 0.3, 3))
        with pytest.raises(AlreadyCondensedError):
            critical_coupling(res)

    def test_failed_point_surfaces(self):
        ctx = SweepContext(
            chain=ChainSpec(N=8, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.1)),
            modes=(1,),
            delta_J=0.1,
        )
        res = sweep(ctx, "J_min", [0.05, 0.1])
        with pytest.raises(SolverError):
            critical_coupling(res)


class TestOnsetGuess:
    """The linear-response onset and the crossing seed the bisection but never decide it."""

    # the guess each column is seeded with, and a sweep whose bracket holds
    # the guess ± 0.03; in the first-order bracket the spinodal near 1.03
    # is probed first, and the crossing inside what that leaves
    COLUMNS = {
        "second": (desk_ctx, [0.18, 0.28], "onset"),
        "first": (first_order_ctx, [0.9, 1.1], "_crossing_onset"),
    }

    @pytest.mark.parametrize(
        "column, offset",
        [pytest.param("second", off, id=str(off)) for off in (-0.03, 0.03, None)]
        + [pytest.param("first", off, id=f"first-order-{off}") for off in (-0.03, 0.03, None)],
    )
    def test_wrong_guess_leaves_the_onset(self, monkeypatch, column, offset):
        make_ctx, grid, guesser = self.COLUMNS[column]
        true = critical_coupling(sweep(make_ctx(), "lambda0", grid))
        guess = None
        if offset is not None:
            guess = true + offset
            assert grid[0] < guess < grid[-1]
        if guesser == "onset":
            # the spinodal as a guess only: the curve's first cells keep the true one
            monkeypatch.setattr(phases._PointCache, "onset", property(lambda solver: guess))
        else:
            monkeypatch.setattr(phases, guesser, lambda *args: guess)
        # a fresh sweep: the first one's solver holds the true spinodal and solves
        res = sweep(make_ctx(), "lambda0", grid)
        assert critical_coupling(res) == pytest.approx(true, abs=Thresholds().critical_tol)

    def _count_solves(self, monkeypatch):
        # every single-mode solve of a lambda0 column re-scores its unit curve
        calls = []
        real = meanfield._UnitCurve.minimize

        def counted(curve, lam):
            calls.append(lam)
            return real(curve, lam)

        monkeypatch.setattr(meanfield._UnitCurve, "minimize", counted)
        monkeypatch.setattr(phases, "minimize_phi", None)  # no solve may bypass the curve
        return calls

    def test_second_order_bisection_needs_few_solves(self, monkeypatch):
        res = sweep(desk_ctx(), "lambda0", np.linspace(0.15, 0.3, 7))
        calls = self._count_solves(monkeypatch)
        cls = classify_transition_order(res)
        assert cls.order == "second"
        # two probes around the onset, then the two slope probes above it
        assert len(calls) <= 4

    def test_first_order_bisection_needs_few_solves(self, monkeypatch):
        res = sweep(first_order_ctx(), "lambda0", FIRST_ORDER_GRID)
        calls = self._count_solves(monkeypatch)
        cls = classify_transition_order(res)
        assert cls.order == "first"
        # two probes around the crossing, two slope probes, one spare for
        # the linear-response probe when the spinodal falls in the bracket
        assert len(calls) <= 5

    def test_crossing_matches_pure_bisection(self, monkeypatch):
        res = sweep(first_order_ctx(), "lambda0", FIRST_ORDER_GRID)
        curve = meanfield._UnitCurve(first_order_chain(), 2, QUICK, 1.0)
        crossing = phases._crossing_onset(curve, 1.0 * QUICK.phi_max)
        monkeypatch.setattr(phases._PointCache, "onset", property(lambda solver: None))
        monkeypatch.setattr(phases, "_crossing_onset", lambda *args: None)
        bisected = critical_coupling(res, Thresholds(critical_tol=1e-7))
        assert bisected == pytest.approx(crossing, abs=5e-7)

    def test_first_order_spinodal_lies_above_the_onset(self):
        cls = classify_transition_order(sweep(first_order_ctx(), "lambda0", FIRST_ORDER_GRID))
        assert cls.order == "first"
        assert phases.normal_phase_onset(first_order_chain(), (2,)) > cls.lambda_c + 0.02


class TestSharedSolver:
    """The onset searches on a sweep reuse the solver that produced it."""

    @pytest.mark.parametrize(
        "make_ctx, grid",
        [(desk_ctx, np.linspace(0.15, 0.3, 7)), (first_order_ctx, FIRST_ORDER_GRID)],
    )
    def test_one_unit_curve_per_column(self, monkeypatch, make_ctx, grid):
        built = []
        real = meanfield._UnitCurve.__init__

        def counted(curve, *args):
            built.append(args)
            real(curve, *args)

        monkeypatch.setattr(meanfield._UnitCurve, "__init__", counted)
        res = sweep(make_ctx(), "lambda0", grid)
        critical_coupling(res)
        classify_transition_order(res)
        assert len(built) == 1

    @pytest.mark.parametrize(
        "make_ctx, grid",
        [(desk_ctx, np.linspace(0.15, 0.3, 7)), (first_order_ctx, FIRST_ORDER_GRID)],
    )
    def test_second_search_costs_no_energy(self, monkeypatch, make_ctx, grid):
        # the crossing below the bracket edge is refined by the first search only
        res = sweep(make_ctx(), "lambda0", grid)
        first = critical_coupling(res)
        calls = []
        real = meanfield.quasiparticle_energies

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(meanfield, "quasiparticle_energies", counted)
        assert critical_coupling(res) == first
        assert calls == []

    def test_phase_column_pass_solves_one_spinodal_per_column(self, monkeypatch):
        # the inputs of the benchmark's phase-column workload at seed 1; the
        # curve's first cells read the spinodal the bisection is seeded with
        solves, energies = [], []
        real = fermion.solve_quasiparticles
        real_energies = meanfield.quasiparticle_energies

        def counted(form):
            solves.append(form)
            return real(form)

        def counted_energies(form):
            energies.append(form)
            return real_energies(form)

        monkeypatch.setattr(fermion, "solve_quasiparticles", counted)
        monkeypatch.setattr(meanfield, "quasiparticle_energies", counted_energies)
        chain = ChainSpec(
            N=200, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.5007, 0.2007, 2)
        )
        grid = np.linspace(0.5928831922543927, 1.0728831922543927, 4)
        diagram = phase_diagram(
            chain, (2,), grid, (0.2007, 0.527), delta_J=0.3, search=QUICK, n_max=40
        )
        assert [c.transition_order for c in diagram.columns] == ["second", "first"]
        # one spinodal per column and one correlation report per cell
        assert len(diagram.cells) == 8
        assert len(solves) == 10
        # line searches seeded from the samples and probes already computed:
        # 211 with scipy's bounded Brent, 348 without the energy bound's pruning
        assert len(energies) == 147

    @pytest.mark.parametrize(
        "chain, delta_J, grid",
        [
            (desk_chain(), 0.025, np.linspace(0.15, 0.3, 7)),
            (first_order_chain(), 0.3, FIRST_ORDER_GRID),
        ],
    )
    def test_phase_diagram_column_is_sweep_then_classify(self, chain, delta_J, grid):
        J_min = chain.ising.J_min
        (col,) = phase_diagram(
            chain, (2,), grid, (J_min,), delta_J=delta_J, search=QUICK, magnetic=False
        ).columns
        profile = IsingProfile.rectangular(J_min + delta_J, J_min, 2)
        ctx = SweepContext(chain=replace(chain, ising=profile), modes=(2,), search=QUICK)
        res = sweep(ctx, "lambda0", grid)
        cls = classify_transition_order(res)
        assert (col.lambda_c, col.transition_order) == (cls.lambda_c, cls.order)
        solver = res._solver
        assert (col.lambda_spinodal, col.lambda_crossing) == (solver.onset, solver.crossing)


class TestColumnRoute:
    """Every single-mode solve of a lambda0 column re-scores one unit-coupling curve."""

    def test_coupling_too_small_to_step_stays_off_the_curve(self):
        # 1e-323 phi_max / 60 underflows to 0: a curve from there would sample
        # nothing, and every coupling of the column would read phi = 0
        res = sweep(desk_ctx(), "lambda0", [1e-323, 0.3])
        assert res._solver.curve.lam_lo == 0.3
        ref = minimize_phi(desk_chain(), ModeSet(modes=(2,), lambda0=0.3, N=40, E_c=8.0), QUICK)
        assert [r.phi[0] for r in res.records] == [0.0, ref.phi[0]]

    # each column's sweep plus couplings just either side of its onset
    COLUMNS = {
        "second": (desk_ctx, [0.15, 0.175, 0.2, 0.225, 0.25, 0.275, 0.3, 0.2244, 0.2264]),
        "first": (first_order_ctx, FIRST_ORDER_GRID + [0.9934, 0.9954]),
    }

    @pytest.mark.parametrize("column", ["second", "first"])
    def test_agrees_with_minimize_phi(self, column):
        make_ctx, lams = self.COLUMNS[column]
        ctx = make_ctx()
        cache = phases._PointCache(ctx, "lambda0", lams[:-2])
        assert cache.curve is not None
        field = Thresholds().field
        for lam in lams:
            state = cache.state(lam)
            ref = minimize_phi(
                ctx.chain, ModeSet(modes=ctx.modes, lambda0=lam, N=40, E_c=8.0), QUICK
            )
            assert (state.phi[0] > field) == (ref.phi[0] > field)
            assert state.phi[0] == pytest.approx(ref.phi[0], abs=10 * QUICK.refine_tol)
            assert state.e_g <= ref.e_g + 1e-12


class TestTransitionOrder:
    @pytest.mark.parametrize(
        "make_ctx, grid, expected",
        [(desk_ctx, np.linspace(0.15, 0.3, 7), False), (first_order_ctx, FIRST_ORDER_GRID, True)],
    )
    def test_gap_verdict_matches_the_offset_scan(self, make_ctx, grid, expected):
        # the hysteresis scan the spinodal-crossing gap replaced: two sampled
        # minima more than 0.02 apart at any of six couplings near the onset
        ctx = make_ctx()
        cls = classify_transition_order(sweep(ctx, "lambda0", grid))
        phi = np.linspace(0.0, QUICK.phi_max, QUICK.coarse_points)
        scanned = False
        for off in (-0.02, -0.01, -0.005, 0.005, 0.01, 0.02):
            ms = ModeSet(modes=ctx.modes, lambda0=cls.lambda_c + off, N=40, E_c=8.0)
            e = np.array([energy_per_particle(ctx.chain, ms, [x]) for x in phi])
            padded = np.concatenate(([np.inf], e, [np.inf]))
            minima = phi[(e < padded[:-2]) & (e <= padded[2:])]
            scanned = scanned or (minima.size >= 2 and float(np.ptp(minima)) > 0.02)
        assert cls.hysteresis is scanned is expected

    def test_desk_transition_is_second_order(self):
        res = sweep(desk_ctx(), "lambda0", np.linspace(0.15, 0.3, 7))
        cls = classify_transition_order(res)
        assert cls.order == "second"
        assert cls.lambda_c == pytest.approx(DESK_LAMBDA_C, abs=1.5e-3)
        assert cls.jump < 0.02
        assert cls.hysteresis is False

    def test_no_transition_is_none(self):
        res = sweep(desk_ctx(), "lambda0", np.linspace(0.05, 0.15, 4))
        cls = classify_transition_order(res)
        assert cls.order == "none"
        assert cls.lambda_c is None

    def test_already_condensed_propagates(self):
        res = sweep(desk_ctx(), "lambda0", np.linspace(0.26, 0.3, 3))
        with pytest.raises(AlreadyCondensedError):
            classify_transition_order(res)


class TestMagneticOrder:
    def test_paramagnetic(self):
        rep = synthetic_report(xi=np.full(8, 1.5), sz=np.full(8, 0.95))
        assert classify_magnetic_order(rep, desk_chain()) == "P"

    def test_ferromagnetic(self):
        rep = synthetic_report(xi=np.full(8, 9.0), sz=np.full(8, 0.2))
        assert classify_magnetic_order(rep, desk_chain()) == "F"

    def test_mixed_aligned(self):
        chain = ChainSpec(N=8, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(1.0, 0.1, 2))
        strong = chain.bonds() == 1.0
        xi = np.where(strong, 9.0, 1.0)
        sz = np.where(strong, 0.3, 0.9)
        assert classify_magnetic_order(synthetic_report(xi, sz), chain) == "FP"

    def test_mixed_misaligned_is_undetermined(self):
        chain = ChainSpec(N=8, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(1.0, 0.1, 2))
        strong = chain.bonds() == 1.0
        xi = np.where(strong, 9.0, 1.0)
        sz = np.where(strong, 0.9, 0.3)  # polarization peaks on the strong bonds: wrong
        assert classify_magnetic_order(synthetic_report(xi, sz), chain) == "undetermined"

    def test_weak_oscillation_is_undetermined(self):
        rep = synthetic_report(xi=np.linspace(4.0, 5.5, 8), sz=np.full(8, 0.5))
        assert classify_magnetic_order(rep, desk_chain()) == "undetermined"

    def test_threshold_override(self):
        rep = synthetic_report(xi=np.full(8, 6.0), sz=np.full(8, 0.95))
        assert classify_magnetic_order(rep, desk_chain()) == "F"
        loose = Thresholds(xi=7.0)
        assert classify_magnetic_order(rep, desk_chain(), loose) == "P"


class TestPhaseLabel:
    def test_codes(self):
        assert PhaseLabel("normal", "second", "P").code == "NP"
        assert PhaseLabel("superradiant", "first", "FP").code == "SFP"
        assert PhaseLabel("superradiant", "x", "F").code == "SF"
        assert PhaseLabel("normal", "none", "undetermined").code == "N?"


class TestPhaseDiagram:
    def test_desk_column(self):
        grid = np.linspace(0.15, 0.3, 7)
        diagram = phase_diagram(
            desk_chain(),
            (2,),
            grid,
            (0.001,),
            delta_J=0.025,
            search=QUICK,
            n_max=10,
        )
        assert len(diagram.cells) == 7
        assert len(diagram.columns) == 1
        col = diagram.columns[0]
        assert col.lambda_c == pytest.approx(DESK_LAMBDA_C, abs=1.5e-3)
        assert col.transition_order == "second"
        assert col.lambda_spinodal == pytest.approx(col.lambda_c, abs=Thresholds().critical_tol)
        # second order: the crossing scan approaches the spinodal from above
        assert col.lambda_spinodal - 1e-12 <= col.lambda_crossing < col.lambda_c + 0.01
        for cell in diagram.cells:
            assert cell.status == "ok"
            expected = "NP" if cell.lambda0 < col.lambda_c else "SP"
            assert cell.label.code == expected
        assert diagram.crossover == ((0.1, None),)

    def test_profile_and_contrast_validation(self):
        uniform = ChainSpec(N=8, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.1))
        with pytest.raises(ValueError):
            phase_diagram(uniform, (1,), [0.1], [0.05], delta_J=0.1)
        with pytest.raises(ValueError):
            phase_diagram(desk_chain(), (2,), [0.1], [0.001])
        with pytest.raises(ValueError):
            phase_diagram(desk_chain(), (2,), [0.1], [0.001], delta_J=0.025, delta_J_factor=0.25)
        with pytest.raises(ValueError, match="n_max"):
            # rejected up front, even where no report would read it
            phase_diagram(
                desk_chain(), (2,), [0.1], [0.001], delta_J=0.025, n_max=0, magnetic=False
            )

    def test_columns_are_serial(self):
        with pytest.raises(ValueError, match="threads"):
            phase_diagram(desk_chain(), (2,), [0.1], [0.001], delta_J=0.025, threads=2)

    def _flaky_minimizer(self, monkeypatch, fails):
        # the per-lambda0 solve of a single-mode column
        real = meanfield._UnitCurve.minimize

        def flaky(curve, lam):
            if fails(curve.chain.ising.J_min, lam):
                raise SolverError("injected failure")
            return real(curve, lam)

        monkeypatch.setattr(meanfield._UnitCurve, "minimize", flaky)

    def test_failed_sweep_point_is_isolated_to_its_column(self, monkeypatch):
        grid = np.linspace(0.15, 0.3, 7)
        self._flaky_minimizer(monkeypatch, lambda J_min, lam: J_min == 0.001 and lam == grid[4])
        diagram = phase_diagram(
            desk_chain(), (2,), grid, (0.001, 0.002), delta_J=0.025, search=QUICK,
            magnetic=False, order=False,
        )
        bad, good = diagram.columns
        assert (bad.status, bad.lambda_c, bad.transition_order) == ("error", None, "none")
        assert "injected failure" in bad.message
        assert good.status == "ok" and good.message == ""
        assert grid[3] < good.lambda_c < grid[4]
        assert len(diagram.cells) == 2 * len(grid)
        failed = [c for c in diagram.cells if c.status != "ok"]
        assert [(c.J_min, c.lambda0) for c in failed] == [(0.001, grid[4])]
        assert failed[0].message == "injected failure"

    def test_failed_point_past_the_onset_keeps_the_column(self, monkeypatch):
        # 0.3 lies two points above the first condensed one and cannot move the bracket
        grid = np.linspace(0.15, 0.3, 7)
        self._flaky_minimizer(monkeypatch, lambda J_min, lam: lam == grid[6])
        diagram = phase_diagram(
            desk_chain(), (2,), grid, (0.001,), delta_J=0.025, search=QUICK, magnetic=False,
        )
        (col,) = diagram.columns
        assert (col.status, col.message, col.transition_order) == ("ok", "", "second")
        assert col.lambda_c == pytest.approx(DESK_LAMBDA_C, abs=1.5e-3)
        assert [c.status for c in diagram.cells] == ["ok"] * 6 + ["error"]
        assert (diagram.cells[-1].label, diagram.cells[-1].message) == (None, "injected failure")

    def test_failed_spinodal_solve_fails_no_sweep_point(self, monkeypatch):
        # without the spinodal the curve line-searches every first cell, so
        # only the onset search of the column fails
        grid = np.linspace(0.15, 0.3, 7)
        kwargs = dict(delta_J=0.025, search=QUICK, magnetic=False)
        good = phase_diagram(desk_chain(), (2,), grid, (0.001,), **kwargs)
        calls = []

        def failing(*args):
            calls.append(args)
            raise SolverError("injected failure")

        monkeypatch.setattr(meanfield, "normal_phase_onset", failing)
        diagram = phase_diagram(desk_chain(), (2,), grid, (0.001,), **kwargs)
        (col,) = diagram.columns
        assert (col.status, col.message, col.lambda_c) == ("error", "injected failure", None)
        assert len(calls) == 1  # the failure is kept, not solved again per coupling
        for cell, ref in zip(diagram.cells, good.cells, strict=True):
            assert cell.status == "ok"
            assert cell.label.field_phase == ref.label.field_phase
            assert cell.phi[0] == pytest.approx(ref.phi[0], abs=QUICK.refine_tol)
            assert cell.e_g == pytest.approx(ref.e_g, abs=1e-12)

    def test_failed_bisection_point_is_isolated_to_its_column(self, monkeypatch):
        grid = np.linspace(0.15, 0.3, 7)
        self._flaky_minimizer(monkeypatch, lambda J_min, lam: lam not in grid)
        diagram = phase_diagram(
            desk_chain(), (2,), grid, (0.001,), delta_J=0.025, search=QUICK, magnetic=False,
        )
        (col,) = diagram.columns
        assert (col.status, col.lambda_c, col.message) == ("error", None, "injected failure")
        assert [c.status for c in diagram.cells] == ["ok"] * len(grid)
        assert diagram.crossover == ((0.1, None),)

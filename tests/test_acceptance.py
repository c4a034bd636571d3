"""End-to-end physics checks, numbered criterion 1 through 8.

Each test settles one claim about the package as a whole, from the
brute-force backbone up to the phase-diagram labels, and prints a single
``criterion N: PASS/FAIL`` line with the measured numbers (run pytest
with ``-s`` to see the lines of passing tests too; the test names carry
the same numbering).  The expensive solves are shared through a module
cache: criteria 3 to 6 fill it and the self-consistency audit in
criterion 7 replays every minimizer they produced, so running
criterion 7 alone recomputes its prerequisites first.

Wall-time budgets are asserted together with the physics.  They are
generous (the whole file runs in a few minutes on a laptop) but they are
part of the contract: a regression that makes the searches crawl should
fail here, not annoy a user later.
"""

import time

import numpy as np

from cavising.correlation import correlation_report, yy_table
from cavising.fermion import (
    build_quadratic_form,
    ground_sector,
    quasiparticle_energies,
)
from cavising.meanfield import SearchSpec, minimize_phi, order_parameter_residual
from cavising.model import ChainSpec, EffectiveField, IsingProfile, ModeSet
from cavising.oracle import DenseSpinProblem, exact_expectations, exact_ground
from cavising.phases import (
    PhaseLabel,
    SweepContext,
    Thresholds,
    classify_magnetic_order,
    classify_transition_order,
    critical_coupling,
    sweep,
)

N = 200
E_Z = 0.8
E_C = 8.0

SEARCH = SearchSpec(coarse_points=61)
MULTI = SearchSpec(
    phi_max=1.5, multi_coarse_points=7, line_points=41, n_seeds=2, descent_tol=1e-5
)
THR = Thresholds()
# the shared-onset comparison in criterion 3 resolves gaps of a few 1e-3,
# so its bisection runs an order of magnitude sharper than the default
ONSET_THR = Thresholds(critical_tol=1e-5)

_cache: dict = {}
_minimizers: list = []  # (tag, chain, modeset, phi) audited by criterion 7


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}  ({detail})"
    print(line, flush=True)
    return line


def _remember(tag, chain, modeset, phi):
    _minimizers.append((tag, chain, modeset, np.asarray(phi, dtype=float)))


def flat_field(Omega):
    Omega = np.asarray(Omega, dtype=float)
    return EffectiveField(Omega=Omega, theta=np.zeros_like(Omega))


def _onset(chain, modes, search, thresholds, bracket):
    ctx = SweepContext(chain=chain, modes=modes, search=search)
    result = sweep(ctx, "lambda0", bracket)
    return critical_coupling(result, thresholds)


def _uniform_chain():
    return ChainSpec(N=N, E_z=E_Z, E_c=E_C, ising=IsingProfile.uniform(0.05))


def _shared_onsets():
    """Single-mode and joint 3-mode onsets of the uniform chain."""
    if "shared" not in _cache:
        chain = _uniform_chain()
        singles = {}
        for l in (1, 2, 3):
            singles[l] = _onset(chain, (l,), SEARCH, ONSET_THR, (0.60, 0.70))
            ms = ModeSet(modes=(l,), lambda0=singles[l] + 2e-3, N=N, E_c=E_C)
            _remember(f"uniform single l={l}", chain, ms, minimize_phi(chain, ms, SEARCH).phi)
        joint = _onset(chain, (1, 2, 3), MULTI, ONSET_THR, (0.60, 0.70))
        ms = ModeSet(modes=(1, 2, 3), lambda0=joint + 2e-3, N=N, E_c=E_C)
        _remember("uniform joint 3-mode", chain, ms, minimize_phi(chain, ms, MULTI).phi)
        _cache["shared"] = (singles, joint)
    return _cache["shared"]


def _selection_onsets():
    """Per-mode onsets for the two bond-window profiles."""
    if "selection" not in _cache:
        out = {}
        for period in (2, 3):
            chain = ChainSpec(
                N=N, E_z=E_Z, E_c=E_C, ising=IsingProfile.rectangular(0.35, 0.05, period)
            )
            vals = {}
            for l in (1, 2, 3):
                vals[l] = _onset(chain, (l,), SEARCH, THR, (0.60, 0.80))
            winner = min(vals, key=vals.get)
            ms = ModeSet(modes=(winner,), lambda0=vals[winner] + 2e-3, N=N, E_c=E_C)
            _remember(
                f"window p={period} l={winner}", chain, ms, minimize_phi(chain, ms, SEARCH).phi
            )
            out[period] = vals
        _cache["selection"] = out
    return _cache["selection"]


COLUMN_GRID = np.linspace(0.3, 1.0, 15)
COLUMN_J_MIN = (0.25, 0.30, 0.35, 0.40, 0.45, 0.50)


def _order_columns():
    """Mode-2 transition classification per weak-bond column."""
    if "columns" not in _cache:
        cols = {}
        for J_min in COLUMN_J_MIN:
            chain = ChainSpec(
                N=N, E_z=E_Z, E_c=E_C,
                ising=IsingProfile.rectangular(J_min + 0.3, J_min, 2),
            )
            ctx = SweepContext(chain=chain, modes=(2,), search=SEARCH)
            result = sweep(ctx, "lambda0", COLUMN_GRID)
            cols[J_min] = classify_transition_order(result, THR)
            for rec in result.records:
                if rec.status == "ok":
                    ms = ModeSet(modes=(2,), lambda0=rec.value, N=N, E_c=E_C)
                    _remember(f"column J_min={J_min} lam={rec.value:.3f}", chain, ms, rec.phi)
        _cache["columns"] = cols
    return _cache["columns"]


def _desk_results():
    """Tabletop-scale chain: per-mode onsets and the two phase labels."""
    if "desk" not in _cache:
        chain = ChainSpec(
            N=40, E_z=0.1, E_c=8.0, ising=IsingProfile.rectangular(0.026, 0.001, 2)
        )
        onsets = {}
        for l in (1, 2, 3):
            ctx = SweepContext(chain=chain, modes=(l,), search=SEARCH)
            result = sweep(ctx, "lambda0", np.linspace(0.1, 0.4, 13))
            onsets[l] = critical_coupling(result, THR)
        labels = {}
        for side, lam in (("below", onsets[2] - 0.04), ("above", onsets[2] + 0.04)):
            ms = ModeSet(modes=(2,), lambda0=lam, N=40, E_c=8.0)
            state = minimize_phi(chain, ms, SEARCH)
            rep = correlation_report(chain, ms, state.phi)
            mag = classify_magnetic_order(rep, chain, THR)
            condensed = float(np.max(np.abs(state.phi))) > THR.field
            labels[side] = PhaseLabel(
                "superradiant" if condensed else "normal", "none", mag
            ).code
            _remember(f"desk {side}", chain, ms, state.phi)
        _cache["desk"] = (onsets, labels)
    return _cache["desk"]


def _panel_label(J_min, lam):
    chain = ChainSpec(
        N=N, E_z=E_Z, E_c=E_C, ising=IsingProfile.rectangular(J_min + 0.3, J_min, 2)
    )
    ms = ModeSet(modes=(2,), lambda0=lam, N=N, E_c=E_C)
    state = minimize_phi(chain, ms, SEARCH)
    rep = correlation_report(chain, ms, state.phi, n_max=40)
    mag = classify_magnetic_order(rep, chain, THR)
    condensed = float(np.max(np.abs(state.phi))) > THR.field
    return PhaseLabel("superradiant" if condensed else "normal", "none", mag).code


def test_criterion_1_small_rings_match_brute_force():
    t0 = time.monotonic()
    rng = np.random.default_rng(715)
    worst_e = worst_z = worst_rho = 0.0
    for _ in range(20):
        Om = rng.uniform(0.1, 1.0, 8)
        J = rng.uniform(0.0, 1.0, 8)
        # the even sector's vacuum against the global ground state, of either parity
        sol = ground_sector(flat_field(Om), J)
        problem = DenseSpinProblem(Omega=Om, J=J)
        e_ref, _ = exact_ground(problem)
        worst_e = max(worst_e, abs(sol.ground_energy_chain - e_ref) / abs(e_ref))

        G = sol.G
        _, state = exact_ground(problem, parity=+1)
        pairs = [(j, n) for j in range(8) for n in range(1, 5)]
        ref = exact_expectations(problem, state, pairs=pairs)
        worst_z = max(worst_z, float(np.max(np.abs(-np.diag(G) - ref["sigma_z"]))))
        table = yy_table(G, 4)
        worst_rho = max(worst_rho, max(abs(table[k] - ref["yy"][k]) for k in pairs))
    elapsed = time.monotonic() - t0
    ok = worst_e <= 1e-9 and worst_z <= 1e-8 and worst_rho <= 1e-8 and elapsed < 10
    line = _report(
        1, ok,
        f"20 rings: energy rel {worst_e:.1e}, sigma_z {worst_z:.1e}, "
        f"rho {worst_rho:.1e}, {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_2_uniform_dispersion_and_gap_closing():
    t0 = time.monotonic()
    Om0, J0 = 0.5, 0.3
    energies = quasiparticle_energies(
        build_quadratic_form(flat_field(np.full(N, Om0)), np.full(N, J0))
    )
    k = (2 * np.arange(N) + 1) * np.pi / N
    analytic = np.sort(2.0 * np.sqrt(Om0**2 + J0**2 - 2.0 * Om0 * J0 * np.cos(k)))
    worst = float(np.max(np.abs(energies - analytic)))

    grid = np.linspace(0.3, 0.7, 41)
    gaps = [
        quasiparticle_energies(
            build_quadratic_form(flat_field(np.full(N, Om0)), np.full(N, Jv))
        )[0]
        for Jv in grid
    ]
    j_star = float(grid[int(np.argmin(gaps))])
    step = float(grid[1] - grid[0])
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and abs(j_star - Om0) <= step + 1e-12 and elapsed < 30
    line = _report(
        2, ok,
        f"dispersion dev {worst:.1e}, gap minimum at J={j_star:.3f} "
        f"(field {Om0}, step {step:.3f}), {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_3_modes_share_one_onset():
    t0 = time.monotonic()
    singles, joint = _shared_onsets()
    spread = max(singles.values()) - min(singles.values())
    gaps = {l: abs(joint - singles[l]) for l in singles}
    elapsed = time.monotonic() - t0
    ok = spread <= 2e-3 and min(gaps.values()) <= 5e-3 and elapsed < 600
    line = _report(
        3, ok,
        "single onsets " + "/".join(f"{singles[l]:.6f}" for l in (1, 2, 3))
        + f" (spread {spread:.1e}), joint {joint:.6f}, gaps "
        + "/".join(f"{gaps[l]:.2e}" for l in (1, 2, 3))
        + f", {elapsed:.0f} s",
    )
    assert ok, line


def test_criterion_4_bond_windows_select_their_mode():
    t0 = time.monotonic()
    onsets = _selection_onsets()
    details = []
    ok = True
    for period, want in ((2, 2), (3, 3)):
        vals = onsets[period]
        ranked = sorted(vals, key=vals.get)
        gap = vals[ranked[1]] - vals[ranked[0]]
        ok = ok and ranked[0] == want and gap > 2e-3
        details.append(f"p={period}: l={ranked[0]} first, gap {gap:.2e}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 900
    line = _report(4, ok, "; ".join(details) + f", {elapsed:.0f} s")
    assert ok, line


def test_criterion_5_transition_order_crossover():
    t0 = time.monotonic()
    cols = _order_columns()
    soft = cols[0.30]
    hard = cols[0.50]
    seconds = [j for j in COLUMN_J_MIN if cols[j].order == "second"]
    firsts = [j for j in COLUMN_J_MIN if cols[j].order == "first"]
    clean = bool(seconds) and bool(firsts) and max(seconds) < min(firsts)
    mid = 0.5 * (max(seconds) + min(firsts)) if clean else float("nan")
    elapsed = time.monotonic() - t0
    ok = (
        soft.order == "second"
        and hard.order == "first"
        and hard.jump > THR.jump
        and hard.hysteresis is True
        and clean
        and abs(mid - 0.35) <= 0.05
        and elapsed < 1800
    )
    line = _report(
        5, ok,
        f"J_min=0.30 {soft.order}, J_min=0.50 {hard.order} "
        f"(jump {hard.jump:.3f}, hysteresis {hard.hysteresis}), "
        f"crossover {mid:.3f}, {elapsed:.0f} s",
    )
    assert ok, line


def test_criterion_6_desk_scale_mode_two_and_labels():
    t0 = time.monotonic()
    onsets, labels = _desk_results()
    ranked = sorted(onsets, key=onsets.get)
    elapsed = time.monotonic() - t0
    ok = (
        ranked[0] == 2
        and labels["below"] == "NP"
        and labels["above"] == "SP"
        and elapsed < 120
    )
    line = _report(
        6, ok,
        "onsets " + "/".join(f"{onsets[l]:.6f}" for l in (1, 2, 3))
        + f", labels {labels['below']}/{labels['above']}, {elapsed:.0f} s",
    )
    assert ok, line


def test_criterion_7_minimizers_are_self_consistent():
    _shared_onsets()
    _selection_onsets()
    _order_columns()
    _desk_results()
    worst = 0.0
    worst_tag = "none"
    for tag, chain, ms, phi in _minimizers:
        resid = float(np.max(order_parameter_residual(chain, ms, phi)))
        if resid > worst:
            worst, worst_tag = resid, tag
    ok = len(_minimizers) > 0 and worst <= 1e-4
    line = _report(
        7, ok, f"{len(_minimizers)} minimizers, worst residual {worst:.2e} at {worst_tag}"
    )
    assert ok, line


def test_criterion_8_magnetic_order_panel_without_sf():
    t0 = time.monotonic()
    points = (
        ("NP", 0.01, 0.602),
        ("SP", 0.01, 0.702),
        ("NFP", 0.2, 0.648),
        ("SFP", 0.2, 0.748),
        ("NF", 0.5, 0.913),
    )
    got = [(_panel_label(J_min, lam), want) for want, J_min, lam in points]
    # deep in the condensed region of the strong-bond column the label must
    # still carry a paramagnetic component, never plain SF
    deep = [_panel_label(0.5, lam) for lam in (1.013, 1.113)]
    elapsed = time.monotonic() - t0
    ok = (
        all(code == want for code, want in got)
        and "SF" not in [code for code, _ in got] + deep
        and elapsed < 600
    )
    line = _report(
        8, ok,
        "labels " + "/".join(code for code, _ in got)
        + " (want " + "/".join(want for _, want in got) + "), deep "
        + "/".join(deep) + f", {elapsed:.0f} s",
    )
    assert ok, line

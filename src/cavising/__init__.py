"""Mean-field phases of a transverse-field Ising ring coupled to resonator modes.

The workflow runs in layers: :mod:`cavising.model` fixes the geometry,
mode couplings and the dressed local fields; :mod:`cavising.fermion`
solves the rotated chain exactly as free fermions;
:mod:`cavising.correlation` turns that solution into observables;
:mod:`cavising.meanfield` closes the loop by minimizing over the photon
amplitudes; :mod:`cavising.phases` sweeps parameters and labels phases;
:mod:`cavising.oracle` brute-forces small chains for cross-checks.
"""

from .correlation import (
    CorrelationReport,
    correlation_report,
    yy_correlation,
    yy_table,
)
from .fermion import (
    QuadraticForm,
    QuasiparticleSolution,
    Sector,
    SolverError,
    build_quadratic_form,
    ground_sector,
    quasiparticle_energies,
    solve_quasiparticles,
)
from .meanfield import (
    MeanFieldState,
    SearchSpec,
    energy_per_particle,
    minimize_phi,
    order_parameter_residual,
)
from .model import (
    ChainSpec,
    EffectiveField,
    IsingProfile,
    ModeSet,
    coupling_strength,
    effective_field,
    self_energy_D,
)
from .oracle import DenseSpinProblem, exact_expectations, exact_ground
from .phases import (
    AlreadyCondensedError,
    NoTransitionError,
    PhaseDiagram,
    PhaseLabel,
    SweepContext,
    SweepResult,
    Thresholds,
    classify_magnetic_order,
    classify_transition_order,
    critical_coupling,
    phase_diagram,
    sweep,
)

__version__ = "0.1.0"

"""Energy-only and single-mode work must load neither ``scipy`` itself, nor
``scipy.linalg``, nor the optimizer, nor the sparse solver.

``import cavising`` needs numpy and scipy's LAPACK wrapper module, which
:mod:`cavising.fermion` finds on scipy's package path and loads on its own,
without running the ``scipy`` package's ``__init__``; ``scipy.optimize``,
and ``scipy`` and ``scipy.linalg`` with it, loads with the first multi-mode
polish, and ``scipy.sparse`` with the oracle's Lanczos path.  The check
runs in a fresh interpreter, since the test process has long since
imported them all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

SCRIPT = """
import json, sys

def loaded():
    names = ("scipy", "scipy.linalg", "scipy.optimize", "scipy.sparse")
    return [m for m in names if m in sys.modules]

import cavising
from cavising.correlation import correlation_report
from cavising.fermion import Sector, build_quadratic_form, quasiparticle_energies
from cavising.meanfield import SearchSpec, energy_per_particle, minimize_phi, normal_phase_onset
from cavising.model import ChainSpec, IsingProfile, ModeSet, effective_field
from cavising.oracle import DenseSpinProblem, exact_ground
from cavising.phases import phase_diagram

after = {"import": loaded()}
chain = ChainSpec(N=8, E_z=0.8, E_c=8.0, ising=IsingProfile.uniform(0.1))
ms = ModeSet(modes=(1,), lambda0=1.0, N=8, E_c=8.0)
fld = effective_field(chain, ms, [0.3])
energy_per_particle(chain, ms, [0.3])
quasiparticle_energies(build_quadratic_form(fld, chain.bonds(), Sector.EVEN))
correlation_report(chain, ms, [0.3])
normal_phase_onset(chain, (1,))
exact_ground(DenseSpinProblem(Omega=fld.Omega, J=chain.bonds()), parity=+1)
after["energy-only"] = loaded()
# lambda0 = 1.0 is above this ring's onset (0.646): the condensate is line-searched
state = minimize_phi(chain, ms, SearchSpec(coarse_points=21))
after["single-mode"] = loaded()
after["condensed"] = bool(state.phi[0] > 0.01)
# one mode-1 column across its onset: sweep, bisection, crossing and labels
windows = ChainSpec(N=8, E_z=0.8, E_c=8.0, ising=IsingProfile.rectangular(0.2, 0.1, 2))
diagram = phase_diagram(
    windows, (1,), [0.5, 0.7, 0.9], [0.1], delta_J=0.1, search=SearchSpec(coarse_points=21),
    n_max=4,
)
after["transition"] = diagram.columns[0].transition_order
after["phase_diagram"] = loaded()
minimize_phi(
    chain, ModeSet(modes=(1, 2), lambda0=1.0, N=8, E_c=8.0),
    SearchSpec(multi_coarse_points=5, n_seeds=1),
)
after["multi-mode"] = loaded()
# the optimizer's scipy.linalg takes up the wrapper module the spectrum loaded
from cavising import fermion
from scipy.linalg import lapack
after["shared"] = lapack._flapack is fermion._lapack
print(json.dumps(after))
"""


def test_energy_only_calls_load_neither_optimizer_nor_sparse():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    after = json.loads(done.stdout.splitlines()[-1])
    assert after["import"] == []
    assert after["energy-only"] == []
    assert after["condensed"]
    assert after["single-mode"] == []
    assert after["transition"] in ("first", "second")
    assert after["phase_diagram"] == []
    assert "scipy.optimize" in after["multi-mode"]
    assert after["shared"]

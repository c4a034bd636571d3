"""Every shipped config writes its committed reference outputs.

``tests/reference/<config>/`` holds the files ``configs/<config>.yaml`` writes,
without ``generated_at`` (``tests/reference/regenerate.py`` writes them).  A fresh
run through :func:`cavising.cli.main` must write the same files: labels, statuses,
orders, flags and integers equal, floats within ``abs 1e-12 + rel 1e-10`` unless a
field below says otherwise.  The wider slack of a field is what another BLAS or the
last bits of a line search's inputs may move it by: a minimizer's ``phi`` (and
``Sigma_x``, ``phi`` times a stiffness below 4 on these configs) may move within
its ``refine_tol`` and a bisected ``lambda_c`` within its ``critical_tol``.
Validate's deviations are rounding noise, so they are held only to its tolerances.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import pytest

from cavising.config import load_run_config
from cavising.meanfield import SearchSpec
from cavising.phases import Thresholds

sys.path.insert(0, str(Path(__file__).resolve().parent / "reference"))
from regenerate import CONFIGS, HERE as REFERENCE, run_config  # noqa: E402

ABS, REL = 1e-12, 1e-10


def slack(cfg) -> dict:
    """Absolute slack by field name, beyond ``abs 1e-12 + rel 1e-10``."""
    refine = (cfg.search or SearchSpec()).refine_tol
    return {
        "phi": refine, "phi_g": refine, "Sigma_x": 4.0 * refine,
        "lambda_c": (cfg.thresholds or Thresholds()).critical_tol,
    }


def is_float(v) -> bool:
    return isinstance(v, float) or isinstance(v, int) and not isinstance(v, bool)


def compare(got, want, where: str, extras: dict, field: str = "") -> list:
    """Differences between two decoded JSON values; ``field`` is the nearest key."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in sorted(want)
                for d in compare(got[k], want[k], f"{where}.{k}", extras, k)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in compare(g, w, f"{where}[{i}]", extras, field)]
    if float in (type(got), type(want)) and is_float(got) and is_float(want):
        # a CSV float can print as an integer
        if math.isclose(got, want, rel_tol=REL, abs_tol=ABS + extras.get(field, 0.0)):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def number(text: str):
    """``text`` as an int or a float, or the text itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return [dict(zip(header, map(number, row))) for row in rows]


def compare_validate(got: dict, want: dict) -> list:
    diffs = compare(got["tolerances"], want["tolerances"], "tolerances", {})
    diffs += compare(got["passed"], want["passed"], "passed", {})
    bars = {"energy": want["tolerances"]["energy"], "sigma_z": want["tolerances"]["expectation"],
            "rho": want["tolerances"]["expectation"]}
    if len(got["instances"]) != len(want["instances"]):
        diffs.append(f"instances: {len(got['instances'])} != {len(want['instances'])}")
    for entry in [got["worst"], *got["instances"]]:
        diffs += [f"{entry}: {k} above {bar}" for k, bar in bars.items() if not entry[k] <= bar]
    return diffs


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.yaml")))
def test_config_writes_its_reference(tmp_path, name):
    config = CONFIGS / f"{name}.yaml"
    run_config(config, tmp_path)
    reference = REFERENCE / name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in reference.iterdir()
    )
    extras = slack(load_run_config(config))
    diffs = []
    for want_path in sorted(reference.iterdir()):
        got_path = tmp_path / want_path.name
        if want_path.suffix == ".csv":
            got, want = read_csv(got_path), read_csv(want_path)
            diffs += compare(got, want, want_path.name, extras)
            continue
        got, want = json.loads(got_path.read_text()), json.loads(want_path.read_text())
        assert isinstance(got.pop("generated_at"), str)
        if name == "validate":
            diffs += compare_validate(got, want)
        else:
            diffs += compare(got, want, want_path.name, extras)
    assert diffs == []

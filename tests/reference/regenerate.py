"""Write the reference outputs of the shipped configs.

Each ``configs/<name>.yaml`` runs through the CLI into ``tests/reference/<name>/``,
with the ``generated_at`` stamp taken out of every JSON file; the other bytes are
the CLI's own.  ``tests/test_reference.py`` compares fresh runs against these
files.  From the repository root:

    PYTHONPATH=src python tests/reference/regenerate.py

Regenerate only when a change moves an answer on purpose, and say in
``CHANGES.md`` which numbers moved and why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as the tests run: two move rho.csv and validate.json in
# their last digits.  It must be set before numpy loads
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import yaml  # noqa: E402

from cavising import cli  # noqa: E402

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parents[1] / "configs"


def run_config(config: Path, out: Path) -> None:
    """``config`` through :func:`cavising.cli.main` into ``out``; raises if the run fails."""
    kind = yaml.safe_load(config.read_text())["task"]["kind"]
    code = cli.main([kind, "--config", str(config), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"cavising {kind} --config {config} exited with {code}")


def unstamped(path: Path) -> bytes:
    """The file's bytes, a JSON file written again without ``generated_at``."""
    if path.suffix != ".json":
        return path.read_bytes()
    obj = json.loads(path.read_text())
    if isinstance(obj, dict):
        obj.pop("generated_at", None)
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def main() -> int:
    for config in sorted(CONFIGS.glob("*.yaml")):
        target = HERE / config.stem
        with tempfile.TemporaryDirectory() as tmp:
            run_config(config, Path(tmp))
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir()
            for path in sorted(Path(tmp).iterdir()):
                (target / path.name).write_bytes(unstamped(path))
        print(f"{config.name}: {', '.join(p.name for p in sorted(target.iterdir()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

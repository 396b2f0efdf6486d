"""Which entry points load scipy.  Only the step kernel uses LAPACK, so
importing the package, `validate` and `wave` must not load scipy; `run` and
`step()` load it on the first step.

Each check runs in a fresh interpreter, because earlier tests have already
loaded scipy into this one."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

from chemoshock import solver

from test_cli import SMALL_CFG

ROOT = Path(__file__).resolve().parent.parent
THM22 = ROOT / "scenarios" / "thm22.cfg"

# mark(name) records whether scipy is loaded at that point of the snippet
_PRELUDE = """
import json, sys
stages = {}
def mark(name):
    stages[name] = any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
"""


def _scipy_by_stage(body: str, *args: str) -> dict[str, bool]:
    """Run `body` with `args` as sys.argv[1:] in a fresh interpreter and
    return the stages it marked."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = _PRELUDE + body + "\nprint(json.dumps(stages))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_validate_and_wave_do_not_load_scipy():
    stages = _scipy_by_stage(
        """
import chemoshock.solver
mark("import solver")
from chemoshock.cli import main
mark("import cli")
assert main(["validate", sys.argv[1]]) == 0
mark("validate")
assert main(["wave", sys.argv[1]]) == 0
mark("wave")
""",
        str(THM22),
    )
    assert stages == {"import solver": False, "import cli": False,
                      "validate": False, "wave": False}


def test_run_loads_scipy_from_a_cold_start(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG)
    stages = _scipy_by_stage(
        """
from chemoshock.cli import main
mark("import cli")
assert main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
mark("run")
""",
        str(cfg), str(tmp_path / "out"),
    )
    assert stages == {"import cli": False, "run": True}
    assert (tmp_path / "out" / "manifest.txt").exists()


def test_step_loads_scipy_from_a_cold_start():
    stages = _scipy_by_stage(
        """
import numpy as np
from chemoshock.core import Field, GridSpec, ModelParams, SimState
from chemoshock.solver import DirichletBoundary, SchemeConfig, step
grid = GridSpec(x_min=0.0, x_max=1.0, n_nodes=11)
state = SimState(u=Field(grid, np.full(11, 2.0)), v=Field(grid, np.zeros(11)),
                 t=0.0, step_count=0)
cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0,
                   boundary=DirichletBoundary(2.0, 0.0, 2.0, 0.0))
mark("before step")
new = step(state, ModelParams.from_chi(D=1.0, chi=1.0), cfg)
assert new.step_count == 1 and np.allclose(new.u.values, 2.0)
mark("step")
""",
    )
    assert stages == {"before step": False, "step": True}


def test_solve_banded_forwards_to_scipy():
    rng = np.random.default_rng(3)
    ab = rng.uniform(-1.0, 1.0, (3, 7))
    ab[1] += 4.0  # diagonally dominant
    b = rng.uniform(-1.0, 1.0, (7, 2))
    np.testing.assert_array_equal(
        solver.solve_banded((1, 1), ab, b), scipy.linalg.solve_banded((1, 1), ab, b)
    )

"""Which entry points load scipy.  Only the numpy step stages use LAPACK, so
importing the package, `validate` and `wave` must not load scipy, and
neither may a run on the compiled stages; on the numpy stages `run` and
`step()` load it on the first step, and then only scipy's compiled LAPACK
module, not the `scipy` and `scipy.linalg` packages.

Each check runs in a fresh interpreter, because earlier tests have already
loaded scipy into this one.  The checks of the LAPACK load take the numpy
stages there (`_NUMPY_STAGES`)."""

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

# the compiled stages do not load, so the numpy stages and LAPACK run
_NUMPY_STAGES = """
from chemoshock import solver
solver._load_stages = lambda: None
"""


def _run_fresh(code: str, *args: str):
    """Run `code` with `args` as sys.argv[1:] in a fresh interpreter that
    writes no bytecode, and return the JSON value on the last line it prints."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _scipy_by_stage(body: str, *args: str) -> dict[str, bool]:
    """Run `body` with `args` as sys.argv[1:] in a fresh interpreter and
    return the stages it marked."""
    return _run_fresh(_PRELUDE + body + "\nprint(json.dumps(stages))\n", *args)


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
        _NUMPY_STAGES
        + """
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
        _NUMPY_STAGES
        + """
import numpy as np
from chemoshock.core import Field, GridSpec, ModelParams, SimState
from chemoshock.solver import SchemeConfig, step
grid = GridSpec(x_min=0.0, x_max=1.0, n_nodes=11)
state = SimState(u=Field(grid, np.full(11, 2.0)), v=Field(grid, np.zeros(11)),
                 t=0.0, step_count=0)
cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0)
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


# one small public step, for the snippets below
_STEP = """
import numpy as np
from chemoshock.core import Field, GridSpec, ModelParams, SimState
from chemoshock.solver import SchemeConfig, step
grid = GridSpec(x_min=0.0, x_max=1.0, n_nodes=11)
state = SimState(u=Field(grid, np.linspace(2.0, 1.0, 11)), v=Field(grid, np.zeros(11)),
                 t=0.0, step_count=0)
cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0)
params = ModelParams.from_chi(D=1.0, chi=1.0)
"""


def test_run_loads_only_the_compiled_lapack_module(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG)
    loaded = _run_fresh(
        _NUMPY_STAGES
        + """
import json, sys
from chemoshock.cli import main
assert main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
print(json.dumps({m: m in sys.modules
                  for m in ("scipy.linalg._flapack", "scipy.linalg", "scipy")}))
""",
        str(cfg), str(tmp_path / "out"),
    )
    assert loaded == {"scipy.linalg._flapack": True, "scipy.linalg": False, "scipy": False}


def test_compiled_run_loads_no_scipy(tmp_path, stages):
    # the compiled solve needs no LAPACK, so the workspace does not load it
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG)
    marked = _scipy_by_stage(
        """
from chemoshock.cli import main
assert main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
mark("run")
""",
        str(cfg), str(tmp_path / "out"),
    )
    assert marked == {"run": False}
    assert "step_kernel = compiled" in (tmp_path / "out" / "manifest.txt").read_text()


def test_later_scipy_import_shares_the_routine():
    same = _run_fresh(
        _NUMPY_STAGES
        + """
import json
from chemoshock.solver import _Workspace
held = _Workspace(11).dpttrs
import scipy.linalg.lapack
print(json.dumps(held is scipy.linalg.lapack.dpttrs))
""",
    )
    assert same is True


def test_steps_load_the_extension_once():
    out = _run_fresh(
        _NUMPY_STAGES
        + _STEP
        + """
import importlib.util, json
loads = []
real = importlib.util.module_from_spec
def counting(spec):
    loads.append(spec.name)
    return real(spec)
importlib.util.module_from_spec = counting
once = step(state, params, cfg)
twice = step(once, params, cfg)
print(json.dumps({"loads": loads, "steps": twice.step_count}))
""",
    )
    assert out == {"loads": ["scipy.linalg._flapack"], "steps": 2}


def test_fallback_when_the_extension_is_not_found():
    out = _run_fresh(
        _NUMPY_STAGES
        + _STEP
        + """
import json, sys
from importlib.machinery import PathFinder
from chemoshock import solver
# the first lookup of the extension finds nothing; the public import then
# looks it up again and gets it
misses = []
real = PathFinder.find_spec.__func__
def find_spec(cls, name, path=None, target=None):
    if name == "scipy.linalg._flapack" and not misses:
        misses.append(name)
        return None
    return real(cls, name, path, target)
PathFinder.find_spec = classmethod(find_spec)
new = step(state, params, cfg)
import scipy.linalg.lapack
print(json.dumps({
    "misses": len(misses),
    "same": solver._load_dpttrs() is scipy.linalg.lapack.dpttrs,
    "u": new.u.values.tolist(),
}))
""",
    )
    ns = {}
    exec(_STEP, ns)  # the same step in this process, through the direct load
    want = ns["step"](ns["state"], ns["params"], ns["cfg"]).u.values.tolist()
    assert out == {"misses": 1, "same": True, "u": want}


def test_tracer_finds_every_name_it_wraps():
    # The benchmark's tracer replaces program functions by name and raises
    # when one is gone or rebound; catch that here, not only in a traced run.
    names = _run_fresh(
        """
import json, sys
sys.path[:0] = sys.argv[1:]
import trace_child
tr = trace_child.Tracer()
trace_child._install(tr)
print(json.dumps(tr.names))
""",
        str(ROOT / "src"), str(ROOT / "perfbench"),
    )
    assert "solver.run" in names and "diagnostics.front_position" in names

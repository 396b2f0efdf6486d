"""Seeded workload generator.

Each workload is one chemoshock CLI command on a scenario config that this
module writes from the seed.  The seed moves only geometry: it translates the
whole configuration by a whole number of grid cells (of the coarsest grid, for
the sweep) and scales perturbation amplitudes by at most +-1%.  The grid,
horizon, snapshot cadence and scheme never depend on it, so the work per
command stays the same from seed to seed.  Translations are grid-aligned
because a shifted copy of the data then evolves as a shifted copy of the
solution, which keeps the accuracy metrics comparable across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# Each amplitude is scaled by a factor drawn from [1 - AMP_JITTER, 1 + AMP_JITTER].
# Final-time errors scale with the perturbation amplitude, so a wider range
# would show up as seed-to-seed spread in sup_u_err_final.
AMP_JITTER = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # chemoshock CLI arguments; "{cfg}" and "{out}" are filled in per command.
    argv: tuple[str, ...]
    # Output subdirectory of each scenario run, finest grid last; a plain run
    # writes into the output directory itself.
    runs: tuple[str, ...]
    wave: bool
    t_end: float
    snapshot_interval: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="shock_run",
            why="stepping-bound: fig1_consistent jump data, n=4001, 11 snapshots; "
            "traced, the solver is ~73% of wall time and snapshot writing ~6%",
            argv=("run", "{cfg}", "--out", "{out}"),
            runs=("",),
            wave=True,
            t_end=200.0,
            snapshot_interval=20.0,
        ),
        Workload(
            name="snapshot_dense",
            why="output-bound: thm22 wave plus zero-mass dipoles, n=4001, 81 snapshots "
            "with --emit-c; traced, snapshot writing is ~64% of wall time, the solver ~11%",
            argv=("run", "{cfg}", "--out", "{out}", "--emit-c"),
            runs=("",),
            wave=True,
            t_end=20.0,
            snapshot_interval=0.25,
        ),
        Workload(
            name="grid_sweep",
            why="thm21 blocks, backward Euler, no wave, swept over n=1001,4001,12001 "
            "with the series re-read; traced, the solver is ~63% of wall time, 54% at n=12001",
            argv=("sweep", "{cfg}", "--axis", "n_nodes",
                  "--values", "1001,4001,12001", "--out", "{out}"),
            runs=("n_nodes_1001", "n_nodes_4001", "n_nodes_12001"),
            wave=False,
            t_end=25.0,
            snapshot_interval=5.0,
        ),
    )
}


def expected_snapshots(w: Workload) -> int:
    """Snapshot count of one scenario run: t = 0, every interval, and t_end."""
    return 1 + math.ceil(w.t_end / w.snapshot_interval - 1e-9)


def _shift(rng: random.Random, cell: float, lo: int, hi: int) -> float:
    return cell * rng.randint(lo, hi)


def _amp(rng: random.Random, base: float) -> float:
    return base * (1.0 + rng.uniform(-AMP_JITTER, AMP_JITTER))


def _shock_run(w: Workload, rng: random.Random) -> str:
    # 49.5 .. 50.5 on the n=4001 grid.  Waves the jump emits reach the
    # boundaries, so sup_u_err_final depends on the jump position (0.0017 at
    # 50, 0.0022 at 48, 0.0035 at 45).
    jump = 50.0 + _shift(rng, 0.1, -5, 5)
    return f"""\
[scenario]
name = shock_run
initial_kind = piecewise_constant
mollify_delta = 0

[grid]
x_min = 0
x_max = 400
n_nodes = 4001

[model]
D = 1
chi = 1

[scheme]
cfl = 0.4
diffusion_theta = 0.5
t_end = {w.t_end:g}
snapshot_interval = {w.snapshot_interval:g}

[initial]
jump_x = {jump:.6f}
u_left = 2
u_right = 1
v_left = 0
v_right = 1

[states]
u_minus = 2
u_plus = 1
v_minus = 0
v_plus = 1

[diagnostics]
probe_center = {jump:.6f}
probe_halfwidth = 5
"""


def _snapshot_dense(w: Workload, rng: random.Random) -> str:
    front = 100.0 + _shift(rng, 0.1, -100, 100)  # 90 .. 110
    return f"""\
[scenario]
name = snapshot_dense
initial_kind = exact_wave_plus_bump
mollify_delta = 0

[grid]
x_min = 0
x_max = 400
n_nodes = 4001

[model]
D = 1
chi = 1

[scheme]
cfl = 0.4
diffusion_theta = 0.5
t_end = {w.t_end:g}
snapshot_interval = {w.snapshot_interval:g}

[initial]
u_minus = 2
u_plus = 1
v_plus = 1
front_x = {front:.6f}
zero_mass = true
u_pert_kind = dipole
u_pert_amplitude = {_amp(rng, 0.3):.6f}
u_pert_center = {front + 20.0:.6f}
u_pert_halfwidth = 5
v_pert_kind = dipole
v_pert_amplitude = {_amp(rng, 0.3):.6f}
v_pert_center = {front - 20.0:.6f}
v_pert_halfwidth = 5

[states]
u_minus = 2
u_plus = 1
v_minus = 0
v_plus = 1

[diagnostics]
probe_center = {front + 20.0:.6f}
probe_halfwidth = 5
"""


def _grid_sweep(w: Workload, rng: random.Random) -> str:
    # 0.4 is the cell of the coarsest swept grid and a whole number of cells
    # on the other two, so the shift is grid-aligned on all three.
    shift = _shift(rng, 0.4, -25, 25)  # -10 .. 10
    return f"""\
[scenario]
name = grid_sweep
initial_kind = constant_plus_jump
mollify_delta = 1

[grid]
x_min = 0
x_max = 400
n_nodes = 4001

[model]
D = 6
chi = 1

[scheme]
cfl = 0.4
diffusion_theta = 1.0
t_end = {w.t_end:g}
snapshot_interval = {w.snapshot_interval:g}

[initial]
u_base = 1
v_base = 0
u_block_center = {150.0 + shift:.6f}
u_block_width = 20
u_amplitude = {_amp(rng, 1.0):.6f}
v_block_center = {250.0 + shift:.6f}
v_block_width = 20
v_amplitude = {_amp(rng, 1.0):.6f}

[diagnostics]
probe_center = {250.0 + shift:.6f}
probe_halfwidth = 15
"""


_GENERATORS = {
    "shock_run": _shock_run,
    "snapshot_dense": _snapshot_dense,
    "grid_sweep": _grid_sweep,
}


def write_config(name: str, seed: int, directory: Path) -> Path:
    """Write the workload's config for this seed and return its path."""
    rng = random.Random(f"{name}:{seed}")
    path = directory / f"{name}.cfg"
    w = WORKLOADS[name]
    path.write_text(f"# {name}, seed {seed}: {w.why}\n" + _GENERATORS[name](w, rng))
    return path

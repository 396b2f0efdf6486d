"""IMEX time stepping for the coupled system

    u_t - chi*(u*v)_x = D*u_xx,      v_t - u_x = 0

on a uniform grid with Dirichlet far-field boundaries.

Diffusion is treated implicitly (theta-scheme), the coupling flux
chi*(u v)_x explicitly by central differences, and v is updated pointwise from
the freshly computed u so that constant states are exact fixed points and the
discrete v-mass identity holds per step.  The time step is recomputed every
step from the characteristic speed bound, since v drifts.

The two Dirichlet rows are left out of the implicit system: the boundary
values are folded into the first and last right-hand-side entries, and the
remaining interior system I - a*Laplacian = tridiag(-a, 1+2a, -a) is
symmetric positive definite and Toeplitz.  Its LDL^T pivots have a closed
form (`_ldl_pivots`), so a step never factorizes: it fills the pivots and the
unit lower bidiagonal factor and calls LAPACK's dpttrs, which solves in place
into the interior of the new u.

One array kernel, `_advance`, takes a step on raw nodal arrays and performs
every per-step check (boundary match, finite u and v, positivity).  Its
scratch buffers (pivots, factor, u*v) and the LAPACK routine live in a
`_Workspace` that `run()` allocates once per run; the public `step()` builds
its own.  `run()` marches the arrays and builds `Field`/`SimState` only at the
API boundary: at snapshots, for the plain `on_snapshot(index, state, prev)`
callback, and for its `RunReport`.  The public `step()` wraps the same kernel
for a single `SimState`.

Building a workspace is what imports scipy, so LAPACK loads on the first step
of a `run()` or `step()`.  Importing this module, and the CLI's `validate` and
`wave`, need no scipy at start-up.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    ConfigError,
    Field,
    GridSpec,
    ModelParams,
    NumericalError,
    PositivityError,
    SimState,
)

_TINY_SPEED = 1e-14
_BOUNDARY_MATCH_TOL = 1e-8
_TIME_SNAP = 1e-9
# pivots past the head where q**i < eps/4 equal d_plus to the last bit
_LOG_QUARTER_EPS = math.log(0.25 * np.finfo(float).eps)


@dataclass(frozen=True)
class DirichletBoundary:
    """Pinned (u, v) values at the two ends of the interval."""

    u_left: float
    v_left: float
    u_right: float
    v_right: float


@dataclass(frozen=True)
class SchemeConfig:
    t_end: float
    snapshot_interval: float
    boundary: DirichletBoundary
    cfl: float = 0.4
    diffusion_theta: float = 0.5  # 0.5 = Crank-Nicolson, 1 = backward Euler

    def __post_init__(self) -> None:
        _check_scheme(self.t_end, self.snapshot_interval, self.cfl, self.diffusion_theta)


def _check_scheme(t_end: float, snapshot_interval: float, cfl: float, theta: float) -> None:
    """The rule for valid scheme values, shared with `ScenarioConfig`."""
    if not 0.0 < cfl <= 1.0:
        raise ConfigError(f"cfl must lie in (0, 1] (got {cfl})")
    if not 0.5 <= theta <= 1.0:
        raise ConfigError(f"diffusion_theta must lie in [0.5, 1] (got {theta})")
    if t_end < 0:
        raise ConfigError(f"t_end must be nonnegative (got {t_end})")
    if snapshot_interval <= 0:
        raise ConfigError(f"snapshot_interval must be positive (got {snapshot_interval})")


def _speed_bound(u: np.ndarray, v: np.ndarray, chi: float) -> float:
    """`characteristic_speed_bound` from the raw nodal arrays of u and v."""
    a = chi * np.abs(v)
    r = np.maximum(u, 0.0)  # tolerate roundoff at the positivity floor
    r *= 4.0 * chi
    r += a * a
    np.sqrt(r, out=r)
    r += a
    return 0.5 * float(r.max())


def characteristic_speed_bound(state: SimState, params: ModelParams) -> float:
    """Max spectral radius over nodes of the inviscid Jacobian
    [[-chi*v, -chi*u], [-1, 0]]."""
    return _speed_bound(state.u.values, state.v.values, params.chi)


def _check_boundary_match(u: np.ndarray, v: np.ndarray, bc: DirichletBoundary) -> None:
    mismatch = max(
        abs(u[0] - bc.u_left),
        abs(v[0] - bc.v_left),
        abs(u[-1] - bc.u_right),
        abs(v[-1] - bc.v_right),
    )
    if mismatch > _BOUNDARY_MATCH_TOL:
        raise ConfigError(
            f"state does not match Dirichlet boundary values (max mismatch {mismatch:.3e})"
        )


def _ldl_pivots(a: float, d: np.ndarray) -> None:
    """Fill d with the pivots D of tridiag(-a, 1+2a, -a) = L D L^T, size d.size.

    With d_plus = (1+2a+sqrt(1+4a))/2 and q = (a/d_plus)**2 the i-th pivot
    (1-based) is d_plus*(1-q**(i+1))/(1-q**i), evaluated through expm1 so that
    nothing cancels for small a.  Past the head where q**i < eps/4 it is d_plus.
    log q is taken as -2*log1p((d_plus-a)/a), which stays nonzero for large a
    where a/d_plus rounds to 1.
    """
    if a == 0.0:  # dt*D/dx**2 underflowed: the system is the identity
        d.fill(1.0)
        return
    s = math.sqrt(1.0 + 4.0 * a)
    d_plus = 0.5 * (1.0 + 2.0 * a + s)
    log_q = -2.0 * math.log1p(0.5 * (1.0 + s) / a)
    k = min(d.size, int(_LOG_QUARTER_EPS / log_q) + 2)
    t = np.expm1(log_q * np.arange(1.0, k + 2.0))
    np.divide(t[1:], t[:-1], out=d[:k])
    d[:k] *= d_plus
    d[k:] = d_plus


def solve_banded(*args, **kwargs):
    """`scipy.linalg.solve_banded`, importing scipy on the first call."""
    # Nothing here calls it: it is the only hook perfbench/trace_child.py wraps
    # by this name.  Delete it once the tracer wraps `_advance` (ROADMAP item 1).
    from scipy.linalg import solve_banded as scipy_solve_banded

    return scipy_solve_banded(*args, **kwargs)


class _Workspace:
    """Scratch buffers of `_advance` for an n-node grid, reused step to step,
    and the LAPACK routine it solves with."""

    __slots__ = ("d", "e", "w", "dpttrs")

    def __init__(self, n: int) -> None:
        from scipy.linalg.lapack import dpttrs  # scipy loads here, not at import

        self.d = np.empty(n - 2)  # pivots of the interior system
        self.e = np.empty(n - 3)  # subdiagonal of its unit factor L
        self.w = np.empty(n)  # u*v
        self.dpttrs = dpttrs


def _advance(
    u: np.ndarray,
    v: np.ndarray,
    t: float,
    step_no: int,
    grid: GridSpec,
    params: ModelParams,
    cfg: SchemeConfig,
    dt_cap: float | None,
    ws: _Workspace,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Take step number `step_no` from time t on raw nodal arrays.

    Returns fresh (u_new, v_new, dt, min(u_new)); the inputs are not modified
    and `ws` only holds scratch values.
    """
    bc = cfg.boundary
    _check_boundary_match(u, v, bc)
    dx = grid.dx
    theta = cfg.diffusion_theta

    dt = cfg.cfl * dx / max(_speed_bound(u, v, params.chi), _TINY_SPEED)
    if dt_cap is not None:
        dt = min(dt, dt_cap)

    # explicit part on the interior nodes 1..n-2, built in place in u_new
    u_new = np.empty_like(u)
    rhs = u_new[1:-1]
    w = np.multiply(u, v, out=ws.w)
    np.subtract(w[2:], w[:-2], out=rhs)
    rhs *= dt * params.chi / (2.0 * dx)
    rhs += u[1:-1]
    if theta < 1.0:
        lap = u[2:] + u[:-2]
        lap -= 2.0 * u[1:-1]
        lap *= dt * (1.0 - theta) * params.D / (dx * dx)
        rhs += lap

    # (I - a*Laplacian) u_new = rhs, with the pinned end values moved to the rhs
    a = theta * params.D * dt / (dx * dx)
    rhs[0] += a * bc.u_left
    rhs[-1] += a * bc.u_right
    _ldl_pivots(a, ws.d)
    np.divide(-a, ws.d[:-1], out=ws.e)
    _, info = ws.dpttrs(ws.d, ws.e, rhs, overwrite_b=True)
    if info != 0:
        raise NumericalError(
            f"tridiagonal solve failed (LAPACK info={info}) on step {step_no} "
            f"(t={t:.6g}, dt={dt:.3e})"
        )
    u_new[0] = bc.u_left
    u_new[-1] = bc.u_right

    # min and max propagate NaN, so these two reductions cover finiteness too
    u_min = float(u_new.min())
    if not (math.isfinite(u_min) and math.isfinite(u_new.max())):
        raise NumericalError(
            f"non-finite u after step {step_no} (t={t:.6g}, dt={dt:.3e})"
        )
    if u_min <= 0.0:
        i = int(np.argmin(u_new))
        raise PositivityError(
            f"u reached {u_new[i]:.6e} at node {i} (x={grid.nodes()[i]:.6g}) "
            f"on step {step_no}, t={t + dt:.6g}"
        )

    v_new = np.empty_like(v)
    v_new[0] = bc.v_left
    dv = np.subtract(u_new[2:], u_new[:-2], out=v_new[1:-1])
    dv *= dt / (2.0 * dx)
    dv += v[1:-1]
    v_new[-1] = bc.v_right
    if not np.isfinite(v_new).all():
        bad = int(np.flatnonzero(~np.isfinite(v_new))[0])
        raise NumericalError(
            f"non-finite v at node {bad} after step {step_no} (t={t:.6g}, dt={dt:.3e})"
        )
    return u_new, v_new, dt, u_min


def step(
    state: SimState,
    params: ModelParams,
    cfg: SchemeConfig,
    dt_cap: float | None = None,
) -> SimState:
    """Advance one step of size cfl*dx/max(speed, tiny), optionally capped."""
    grid = state.u.grid
    u, v, dt, _ = _advance(
        state.u.values, state.v.values, state.t, state.step_count + 1,
        grid, params, cfg, dt_cap, _Workspace(grid.n_nodes),
    )
    return SimState(
        u=Field(grid, u),
        v=Field(grid, v),
        t=state.t + dt,
        step_count=state.step_count + 1,
    )


#: called at every snapshot as on_snapshot(index, state, previous_step_state)
SnapshotCallback = Callable[[int, SimState, Optional[SimState]], None]


@dataclass(frozen=True)
class RunReport:
    final_state: SimState
    step_count: int
    snapshot_count: int
    wall_time_s: float
    min_u: float
    boundary_warning: bool


def _snapshot_times(cfg: SchemeConfig) -> list[float]:
    times = [0.0]
    k = 1
    while k * cfg.snapshot_interval < cfg.t_end - _TIME_SNAP * max(1.0, cfg.t_end):
        times.append(k * cfg.snapshot_interval)
        k += 1
    if cfg.t_end > 0:
        times.append(cfg.t_end)
    return times


def run(
    initial: SimState,
    params: ModelParams,
    cfg: SchemeConfig,
    on_snapshot: SnapshotCallback | None = None,
) -> RunReport:
    """March to t_end, emitting a snapshot every snapshot_interval (plus the
    initial state and the final time).

    Each snapshot is passed to `on_snapshot(index, state, prev)` when given;
    `prev` is the state one step before `state`, or None at index 0 and when
    no step was taken since the last snapshot."""
    from .diagnostics import front_position  # local import, no cycle at module load

    grid = initial.u.grid
    u, v, t, count = initial.u.values, initial.v.values, initial.t, initial.step_count
    _check_boundary_match(u, v, cfg.boundary)
    t0 = time.perf_counter()

    bc = cfg.boundary
    track_front = abs(bc.u_left - bc.u_right) > 1e-12
    level = 0.5 * (bc.u_left + bc.u_right)
    margin = 0.1 * grid.length
    warning = False

    def near_boundary(s: SimState) -> bool:
        if not track_front:
            return False
        pos = front_position(s.u, level)
        return pos - grid.x_min < margin or grid.x_max - pos < margin

    def as_state(u, v, t, count) -> SimState:
        return SimState(u=Field(grid, u), v=Field(grid, v), t=t, step_count=count)

    state = initial
    min_u = float(u.min())
    eps = _TIME_SNAP * max(1.0, cfg.t_end)
    ws = _Workspace(grid.n_nodes)

    if on_snapshot:
        on_snapshot(0, state, None)
    warning |= near_boundary(state)
    snapshots = 1

    for target in _snapshot_times(cfg)[1:]:
        prev = None
        while t < target - eps:
            prev = (u, v, t, count)
            u, v, dt, u_min = _advance(
                u, v, t, count + 1, grid, params, cfg, target - t, ws
            )
            t += dt
            count += 1
            min_u = min(min_u, u_min)
        if abs(t - target) <= eps:
            t = target
        state = as_state(u, v, t, count)
        if on_snapshot:
            on_snapshot(snapshots, state, None if prev is None else as_state(*prev))
        warning |= near_boundary(state)
        snapshots += 1

    return RunReport(
        final_state=state,
        step_count=count,
        snapshot_count=snapshots,
        wall_time_s=time.perf_counter() - t0,
        min_u=min_u,
        boundary_warning=warning,
    )

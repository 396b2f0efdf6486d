"""IMEX time stepping for the coupled system

    u_t - chi*(u*v)_x = D*u_xx,      v_t - u_x = 0

on a uniform grid whose two end nodes keep the initial data's end values:
the far-field states of the Cauchy problem come from the data, so no caller
restates them.

Diffusion is treated implicitly (theta-scheme), the coupling flux
chi*(u v)_x explicitly by central differences, and v is updated pointwise from
the freshly computed u so that constant states are fixed points to roundoff
and the discrete v-mass identity holds per step.  The time step is recomputed
every step from the characteristic speed bound, since v drifts.

The two Dirichlet rows are left out of the implicit system: the boundary
values are folded into the first and last right-hand-side entries, and the
remaining interior system I - a*Laplacian = tridiag(-a, 1+2a, -a) is
symmetric positive definite and Toeplitz.  Its LDL^T pivots have a closed
form (`_ldl_pivots`), so a step never factorizes: it fills the pivots and the
unit lower bidiagonal factor and calls LAPACK's dpttrs, which solves in place
into the interior of the new u.

One array kernel, `_advance`, takes a step on raw nodal arrays.  On the
numpy path it composes four stages, each a module-level function of raw
arrays and scalar weights: `_time_step` (the CFL dt), `_explicit_rhs`
(coupling flux and explicit diffusion), `_implicit_solve` (pinned ends folded
in, pivots, `dpttrs`) and `_update_v`.  Between them it pins each end to its
value in the input arrays, which by induction is the data's, and performs
every per-step check (LAPACK info, finite u and v, positivity).  The scratch
buffers (pivots, factor, u*v) and the routines live in a `_Workspace` that
`run()` allocates once per run; the public `step()` builds its own.  The
pivots and the factor are refilled only when a = theta*D*dt/dx**2 changes,
bit for bit; on jump data dt repeats on about half the steps.  `run()`
marches the arrays and builds `Field`/`SimState` only at the API boundary: at
snapshots, for the plain `on_snapshot(index, state, prev)` callback, and for
its `RunReport`.  The public `step()` wraps the same kernel for a single
`SimState`.

The compiled step.  When the workspace holds the compiled library, a step
is one call of `imex_step` in `_stages.c` (`_compiled_step`), which does the
numpy stages' IEEE operations in the same order, so both paths give the
same bytes.  Its forward sweep computes each node's right-hand side and
folds in the pinned ends; its back sweep (dpttrs's own two sweeps) updates v
one node behind the solve and finds min(u_new) and whether u_new and v_new
are finite; a last pass over the new state computes the next step's speed
bound, which the workspace carries to the next step.  So only the first step
of a run, or of a `step()`, calls the compiled `speed_bound`, and `_advance`
runs the same checks on what the one call returns.  When a changes, Python
computes only the head of the pivots (`_ldl_head`: the entries that differ
from their limit d_plus, ~100 of them), and the compiled step fills the
factor from that head inside its forward sweep.  The head stays in numpy,
for its expm1 (see `_ldl_head`).  The compiled speed bound runs four lanes
that `-O2` vectorizes; the max of its finite terms does not depend on their
order, and an inf or nan term hands it to a one-lane loop.  The numpy stages
stay as the reference the tests compare with, and as the path taken when no
compiler or cache is usable.  The first `_Workspace` built on a machine
compiles the source with $CC (default cc) into a private per-user cache,
${XDG_CACHE_HOME:-~/.cache}/chemoshock (`_native._load_stages`, which this
module imports as `_load_stages`); later processes load the cached library
through ctypes.  `RunReport.step_kernel` records which path ran.

Building a workspace is what loads the compiled step, so it loads on the
first step of a `run()` or `step()`; importing this module, and the CLI's
`validate` and `wave`, need neither scipy nor a compiler.  Only the numpy
stages call LAPACK, so a workspace loads it only when the compiled step did
not load, and a compiled run imports no scipy module.  `dpttrs`
comes straight from scipy's compiled f2py module `scipy.linalg._flapack`
(`_load_dpttrs`), once per process, without running the `__init__` of `scipy`
or `scipy.linalg`: those pull in most of scipy's Python layer (~0.16 s per
process on a 2-core Xeon), while the extension alone loads in ~3 ms.  A later
`import scipy.linalg` in the same process reuses the loaded extension.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from ._native import _address, _load_stages
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
_TIME_SNAP = 1e-9
# pivots past the head where q**i < eps/4 equal d_plus to the last bit
_LOG_QUARTER_EPS = math.log(0.25 * np.finfo(float).eps)


@dataclass(frozen=True)
class SchemeConfig:
    t_end: float
    snapshot_interval: float
    cfl: float = 0.4
    diffusion_theta: float = 0.5  # 0.5 = Crank-Nicolson, 1 = backward Euler

    def __post_init__(self) -> None:
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigError(f"cfl must lie in (0, 1] (got {self.cfl})")
        if not 0.5 <= self.diffusion_theta <= 1.0:
            raise ConfigError(f"diffusion_theta must lie in [0.5, 1] (got {self.diffusion_theta})")
        if not 0 <= self.t_end < math.inf:
            raise ConfigError(f"t_end must be finite and >= 0 (got {self.t_end})")
        if not 0 < self.snapshot_interval < math.inf:
            raise ConfigError(
                f"snapshot_interval must be finite and > 0 (got {self.snapshot_interval})"
            )


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


def _ldl_pivots(a: float, d: np.ndarray) -> tuple[int, float]:
    """Fill d with the pivots D of tridiag(-a, 1+2a, -a) = L D L^T, size d.size,
    and return (k, d_plus): every pivot from index k on equals d_plus."""
    k, d_plus = _ldl_head(a, d)
    d[k:] = d_plus
    return k, d_plus


def _ldl_head(a: float, d: np.ndarray) -> tuple[int, float]:
    """Fill d[:k] with the first k pivots of `_ldl_pivots(a, d)` and return
    (k, d_plus), leaving d[k:], whose pivots all equal d_plus, as it is.

    With d_plus = (1+2a+sqrt(1+4a))/2 and q = (a/d_plus)**2 the i-th pivot
    (1-based) is d_plus*(1-q**(i+1))/(1-q**i), evaluated through expm1 so that
    nothing cancels for small a.  Past the head where q**i < eps/4 it is d_plus.
    log q is taken as -2*log1p((d_plus-a)/a), which stays nonzero for large a
    where a/d_plus rounds to 1.

    The compiled step takes its head from here, so both paths share
    numpy's expm1.  On a CPU with AVX-512, numpy runs its own expm1, which
    differs from the C library's in the last bit on ~1% of arguments.  A
    head in C, on the C library's expm1, was measured: on jump data the
    early steps then leave a far-field plateau one or more ulps off its
    exact value, and `perfbench`'s `shock_run` output grew by 0.9-5.1%
    with the text of those values.
    """
    if a == 0.0:  # dt*D/dx**2 underflowed: the system is the identity
        return 0, 1.0
    s = math.sqrt(1.0 + 4.0 * a)
    d_plus = 0.5 * (1.0 + 2.0 * a + s)
    log_q = -2.0 * math.log1p(0.5 * (1.0 + s) / a)
    k = min(d.size, int(_LOG_QUARTER_EPS / log_q) + 2)
    t = np.expm1(log_q * np.arange(1.0, k + 2.0))
    np.divide(t[1:], t[:-1], out=d[:k])
    d[:k] *= d_plus
    return k, d_plus


def solve_banded(*args, **kwargs):
    """`scipy.linalg.solve_banded`, importing scipy on the first call."""
    # Nothing here calls it: it is the only hook perfbench/trace_child.py wraps
    # by this name.  Delete it once the tracer wraps `_advance` (ROADMAP item 1).
    from scipy.linalg import solve_banded as scipy_solve_banded

    return scipy_solve_banded(*args, **kwargs)


@functools.cache
def _load_dpttrs():
    """LAPACK's dpttrs from scipy's compiled module `scipy.linalg._flapack`.

    Finding the scipy package does not import it, and PathFinder picks the
    extension's platform suffix itself.  A scipy that keeps the module
    elsewhere gets the same routine through the public import.
    """
    scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack", [os.path.join(p, "linalg") for p in scipy_dirs]
    )
    if spec is None:
        from scipy.linalg.lapack import dpttrs

        return dpttrs
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.dpttrs


class _Workspace:
    """Scratch buffers of `_advance` for an n-node grid, reused step to step,
    and the routines it runs: the compiled step in `lib`, or, when it did not
    load (`lib` is None), LAPACK's `dpttrs` for the numpy solve (else None:
    the compiled step needs no LAPACK).

    The compiled step writes u and v into two alternating pairs of buffers
    owned here, so a step's output outlives the next step; the data address
    of each owned buffer is looked up once.  The workspace also carries the
    speed bound of the pair that the compiled step returned last, for the
    step after it.
    """

    __slots__ = ("n", "d", "e", "w", "a", "dpttrs", "lib", "u_out", "v_out", "checks", "last",
                 "_addr")

    def __init__(self, n: int) -> None:
        self.n = n
        self.d = np.empty(n - 2)  # pivots of the interior system
        self.e = np.empty(n - 3)  # subdiagonal of its unit factor L
        self.w = np.empty(n)  # u*v, for the numpy stage
        self.a = math.nan  # the a that d and e hold the factor for
        self.lib = _load_stages()  # the compiled step loads here, not at import
        self.dpttrs = None
        if self.lib is None:
            self.dpttrs = _load_dpttrs()  # and LAPACK, only for the numpy stages
            return
        self.u_out = (np.empty(n), np.empty(n))
        self.v_out = (np.empty(n), np.empty(n))
        self.checks = np.empty(3)  # what the compiled step returns: u-min, v finite, bound
        # (u, v, chi, bound): the pair the compiled step returned last and its speed bound
        self.last = (None, None, math.nan, math.nan)
        owned = (self.d, self.e, *self.u_out, *self.v_out, self.checks)
        # keyed by id: every key's array lives as long as this workspace
        self._addr = {id(x): _address(x, x.size) for x in owned}

    def ptr(self, x: np.ndarray) -> int:
        """The data address of x, an owned buffer or any n contiguous doubles."""
        addr = self._addr.get(id(x))
        return _address(x, self.n) if addr is None else addr

    def speed_bound(self, u: np.ndarray, v: np.ndarray, chi: float) -> float:
        """The compiled `_speed_bound(u, v, chi)`: carried over when (u, v) is
        the pair that the last compiled step returned, and nothing has been
        written into it since (the caller's contract), else computed."""
        last_u, last_v, last_chi, bound = self.last
        if u is last_u and v is last_v and chi == last_chi:
            return bound
        return self.lib.speed_bound(self.ptr(u), self.ptr(v), self.n, chi)


def _cfl_step(bound: float, cfl: float, dx: float, dt_cap: float | None) -> float:
    """The CFL step cfl*dx/max(bound, tiny), capped at dt_cap when given."""
    dt = cfl * dx / max(bound, _TINY_SPEED)
    return dt if dt_cap is None else min(dt, dt_cap)


def _time_step(
    u: np.ndarray, v: np.ndarray, chi: float, cfl: float, dx: float, dt_cap: float | None
) -> float:
    """The CFL step of (u, v) under its cap: `_cfl_step` of their speed bound."""
    return _cfl_step(_speed_bound(u, v, chi), cfl, dx, dt_cap)


def _explicit_rhs(
    u: np.ndarray, v: np.ndarray, flux_w: float, diff_w: float, w: np.ndarray
) -> np.ndarray:
    """A fresh array holding u + flux_w*(uv_(i+1) - uv_(i-1)) + diff_w*(u_(i+1) - 2u_i + u_(i-1))
    on the interior nodes, its two ends left unset; w is scratch for uv."""
    u_new = np.empty_like(u)
    rhs = u_new[1:-1]
    np.multiply(u, v, out=w)
    np.subtract(w[2:], w[:-2], out=rhs)
    rhs *= flux_w
    rhs += u[1:-1]
    if diff_w != 0.0:  # theta = 1 has no explicit diffusion
        lap = u[2:] + u[:-2]
        lap -= 2.0 * u[1:-1]
        lap *= diff_w
        rhs += lap
    return u_new


def _implicit_solve(rhs: np.ndarray, a: float, left: float, right: float, ws: _Workspace) -> int:
    """Overwrite rhs with the solution of (I - a*Laplacian) x = rhs on the interior
    nodes, the pinned end values left and right moved to the rhs; return LAPACK's info.

    The factor in ws.d and ws.e is refilled only when a differs from the last
    a, bit for bit."""
    if a != ws.a:
        ws.a = a
        k, d_plus = _ldl_pivots(a, ws.d)
        # e_i = -a/d_i; from index k on every d_i is d_plus, so one value fills e
        head = ws.e[:k]
        np.divide(-a, ws.d[: head.size], out=head)
        ws.e[k:] = -a / d_plus
    rhs[0] += a * left
    rhs[-1] += a * right
    _, info = ws.dpttrs(ws.d, ws.e, rhs, overwrite_b=True)
    return info


def _update_v(
    u_new: np.ndarray, v: np.ndarray, dv_w: float, left: float, right: float
) -> np.ndarray:
    """A fresh array: v + dv_w*(u_new_(i+1) - u_new_(i-1)) inside, left and right at the ends."""
    v_new = np.empty_like(v)
    v_new[0], v_new[-1] = left, right
    dv = np.subtract(u_new[2:], u_new[:-2], out=v_new[1:-1])
    dv *= dv_w
    dv += v[1:-1]
    return v_new


def _finite_min(x: np.ndarray) -> float:
    """min(x) when every entry of x is finite, else nan."""
    # min and max propagate nan and show an inf, so the two reductions cover finiteness
    low = float(x.min())
    return low if math.isfinite(low) and math.isfinite(x.max()) else math.nan


def _compiled_step(
    u: np.ndarray, v: np.ndarray, flux_w: float, diff_w: float, a: float, dv_w: float,
    chi: float, ws: _Workspace,
) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """The numpy stages `_explicit_rhs`, `_implicit_solve` (ends u[0] and
    u[-1]) and `_update_v` (ends v[0] and v[-1]) with these weights, as one
    call of ws's compiled step, which gives the same bytes.

    Returns (u_new, v_new, `_finite_min(u_new)`, whether every v_new is
    finite): the buffers of ws that are not u and v.  ws carries their
    speed bound, which the call computes too, to the next step.  When a
    changes, the head of the pivots comes from `_ldl_head` here, and the
    compiled step fills the rest of the factor."""
    k, d_plus = (-1, 0.0) if a == ws.a else _ldl_head(a, ws.d)
    ws.a = a
    u_new = ws.u_out[1] if u is ws.u_out[0] else ws.u_out[0]
    v_new = ws.v_out[1] if v is ws.v_out[0] else ws.v_out[0]
    ws.lib.imex_step(ws.ptr(u), ws.ptr(v), ws.n, flux_w, diff_w, a, ws.ptr(ws.d), ws.ptr(ws.e),
                     k, d_plus, dv_w, chi, ws.ptr(u_new), ws.ptr(v_new), ws.ptr(ws.checks))
    u_min, v_finite, bound = ws.checks.tolist()
    ws.last = (u_new, v_new, chi, bound)
    return u_new, v_new, u_min, v_finite != 0.0


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

    Returns (u_new, v_new, dt, min(u_new)), whose end values are those of u
    and v; the inputs are not modified and `ws` only holds scratch values.

    With the compiled step, a step is one library call (`_compiled_step`):
    dt comes from the speed bound that ws carries for the pair it returned
    last, or, for any other input, from one compiled `speed_bound` call.
    u_new and v_new are then buffers of ws that the step after next
    overwrites.  Without it, `_advance` composes the numpy stages
    `_time_step`, `_explicit_rhs`, `_implicit_solve` and `_update_v`.  Both
    paths check the same things in the same order, with the same messages.
    """
    dx = grid.dx
    theta = cfg.diffusion_theta
    chi = params.chi
    compiled = ws.lib is not None
    if compiled:
        dt = _cfl_step(ws.speed_bound(u, v, chi), cfg.cfl, dx, dt_cap)
    else:
        dt = _time_step(u, v, chi, cfg.cfl, dx, dt_cap)
    if not t + dt > t:  # the speed bound overflowed, or dt is below t's last digit
        raise NumericalError(
            f"time step {dt:.3e} does not advance t={t:.6g} on step {step_no}"
        )
    flux_w = dt * chi / (2.0 * dx)
    diff_w = dt * (1.0 - theta) * params.D / (dx * dx)
    a = theta * params.D * dt / (dx * dx)
    dv_w = dt / (2.0 * dx)
    if compiled:
        u_new, v_new, u_min, v_finite = _compiled_step(u, v, flux_w, diff_w, a, dv_w, chi, ws)
    else:
        u_new = _explicit_rhs(u, v, flux_w, diff_w, ws.w)
        info = _implicit_solve(u_new[1:-1], a, u[0], u[-1], ws)
        if info != 0:
            raise NumericalError(
                f"tridiagonal solve failed (LAPACK info={info}) on step {step_no} "
                f"(t={t:.6g}, dt={dt:.3e})"
            )
        u_new[0] = u[0]
        u_new[-1] = u[-1]
        u_min = _finite_min(u_new)

    if math.isnan(u_min):
        bad = int(np.flatnonzero(~np.isfinite(u_new))[0])
        raise NumericalError(
            f"non-finite u at node {bad} after step {step_no} (t={t:.6g}, dt={dt:.3e})"
        )
    if u_min <= 0.0:
        i = int(np.argmin(u_new))
        raise PositivityError(
            f"u reached {u_new[i]:.6e} at node {i} (x={grid.nodes()[i]:.6g}) "
            f"on step {step_no}, t={t + dt:.6g}"
        )

    if not compiled:
        v_new = _update_v(u_new, v, dv_w, v[0], v[-1])
        v_finite = not math.isnan(_finite_min(v_new))
    if not v_finite:
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
    step_kernel: str  # "compiled" or "numpy": which step ran


def _snapshot_times(cfg: SchemeConfig) -> Iterator[float]:
    """The snapshot times after t = 0, one at a time."""
    k = 1
    while k * cfg.snapshot_interval < cfg.t_end - _TIME_SNAP * max(1.0, cfg.t_end):
        yield k * cfg.snapshot_interval
        k += 1
    if cfg.t_end > 0:
        yield cfg.t_end


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
    grid = initial.u.grid
    u, v, t, count = initial.u.values, initial.v.values, initial.t, initial.step_count
    t0 = time.perf_counter()

    def as_state(u, v, t, count) -> SimState:
        return SimState(u=Field(grid, u), v=Field(grid, v), t=t, step_count=count)

    state = initial
    min_u = float(u.min())
    eps = _TIME_SNAP * max(1.0, cfg.t_end)
    ws = _Workspace(grid.n_nodes)

    if on_snapshot:
        on_snapshot(0, state, None)
    snapshots = 1

    for target in _snapshot_times(cfg):
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
        snapshots += 1

    return RunReport(
        final_state=state,
        step_count=count,
        snapshot_count=snapshots,
        wall_time_s=time.perf_counter() - t0,
        min_u=min_u,
        step_kernel="numpy" if ws.lib is None else "compiled",
    )

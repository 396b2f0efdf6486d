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

One array kernel, `_advance`, takes a step on raw nodal arrays.  It takes
the speed bound of its input pair, from which it takes the CFL dt
(`_cfl_step`), and returns the new pair's bound for the next step: `run()`
carries the bound in a local variable, and `run()` and `step()` take the
first one from `_speed_bound`.  The step itself is one of two kernels of one
signature, which return the same tuple (u_new, v_new, min(u_new), whether
v_new is finite, the next bound).  `_numpy_step` composes three stages, each
a module-level function of raw arrays and scalar weights: `_explicit_rhs`
(coupling flux and explicit diffusion), `_implicit_solve` (pinned ends folded
in, pivots, `dpttrs`) and `_update_v`, and then `_speed_bound`.  Each kernel
pins each end to its value in the input arrays, which by induction is the
data's, and `_advance` performs every per-step check (LAPACK info, finite u
and v, positivity) on what it returns.  The scratch buffers (pivots, factor,
u*v) and the routines live in a `_Workspace` that `run()` allocates once per
run; the public `step()` builds its own.  The workspace keeps the factors
(pivots and subdiagonal) of the last four values of a = theta*D*dt/dx**2 in
as many slots, least recently used first out (`_Workspace.factor`), and a
factor is computed only for an a, bit for bit, that no slot holds.  On jump
data dt repeats on about half the steps, and on most of the rest it returns
to a value one ulp from the last, as the bound sits on a far-field plateau
whose roundoff flickers: on `perfbench`'s `shock_run` 357 of 8,100 steps
compute a factor, where 3,731 did with one slot.  `run()` marches the
arrays and builds `Field`/`SimState` only at the API boundary: at snapshots,
for the plain `on_snapshot(index, state, prev)` callback, and for its
`RunReport`.  The public `step()` wraps the same kernel for a single
`SimState`.

The compiled step.  When the workspace holds the compiled library, the
kernel is `_compiled_step`, one call of `imex_step` in `_stages.c`, which
does `_numpy_step`'s IEEE operations in the same order, so both kernels give
the same bytes.  It is two sweeps, dpttrs's own.  The forward sweep computes
each node's right-hand side and folds in the pinned ends; the back sweep
updates v one node behind the solve, finds min(u_new) and whether u_new and
v_new are finite, and takes the next bound from each node's term where that
node becomes final.  So a compiled run makes one library call per step.  For
an a that no slot holds, Python computes only numpy's expm1 of the pivots'
head (the entries that differ from their limit d_plus, ~100 of them), and
the forward sweep stores each row of the slot's factor, head pivots formed
from that expm1, where it first uses it.  The expm1 stays in numpy (see
`_ldl_pivots`).  The max of the bound's finite terms does not depend on
their order, so the back sweep meets them back to front; an inf or nan entry
of the new state hands the bound to a loop in node order, as numpy meets
them.  The numpy kernel stays as the reference the tests compare
with, and as the path taken when no compiler or cache is usable.  The first
`_Workspace` built on a machine compiles the source with $CC (default cc)
into a private per-user cache,
${XDG_CACHE_HOME:-~/.cache}/chemoshock (`_native._load_stages`, which this
module imports as `_load_stages`); later processes load the cached library
through ctypes.  `RunReport.step_kernel` records which kernel ran.

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
        # run() takes two times this close as one, so a shorter interval never steps
        snap = _TIME_SNAP * max(1.0, self.t_end)
        if not snap < self.snapshot_interval < math.inf:
            raise ConfigError(
                f"snapshot_interval must be finite and > {snap:g}, the time tolerance "
                f"at t_end = {self.t_end:g} (got {self.snapshot_interval})"
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


def _ldl_scalars(a: float, m: int) -> tuple[int, float, float]:
    """(k, d_plus, log_q) of the m pivots of tridiag(-a, 1+2a, -a): the head
    length k, the limit d_plus of the pivots and the log of their ratio q.

    With d_plus = (1+2a+sqrt(1+4a))/2 and q = (a/d_plus)**2 the i-th pivot
    (1-based) is d_plus*(1-q**(i+1))/(1-q**i), evaluated through expm1 so that
    nothing cancels for small a.  Past the head where q**i < eps/4 it is d_plus.
    log q is taken as -2*log1p((d_plus-a)/a), which stays nonzero for large a
    where a/d_plus rounds to 1.  At a = 0 the head is empty (log_q is unused).
    """
    if a == 0.0:  # dt*D/dx**2 underflowed: the system is the identity
        return 0, 1.0, 0.0
    s = math.sqrt(1.0 + 4.0 * a)
    d_plus = 0.5 * (1.0 + 2.0 * a + s)
    log_q = -2.0 * math.log1p(0.5 * (1.0 + s) / a)
    return min(m, int(_LOG_QUARTER_EPS / log_q) + 2), d_plus, log_q


def _ldl_pivots(a: float, d: np.ndarray) -> tuple[int, float]:
    """Fill d with the pivots D of tridiag(-a, 1+2a, -a) = L D L^T, size d.size,
    and return (k, d_plus): every pivot from index k on equals d_plus.

    The head d[:k] is t[i+1]/t[i]*d_plus with t = expm1(log_q*(1, ..., k+1))
    and (k, d_plus, log_q) from `_ldl_scalars`.  A compiled workspace
    (`_Workspace.factor`) takes only t from numpy and forms the same
    quotient and product in the compiled step, so both kernels share numpy's
    expm1.  On a CPU with AVX-512, numpy runs its own expm1, which differs
    from the C library's in the last bit on ~1% of arguments.  A head in C,
    on the C library's expm1, was measured: on jump data the early steps
    then leave a far-field plateau one or more ulps off its exact value, and
    `perfbench`'s `shock_run` output grew by 0.9-5.1% with the text of those
    values.
    """
    k, d_plus, log_q = _ldl_scalars(a, d.size)
    t = np.expm1(log_q * np.arange(1.0, k + 2.0))
    np.divide(t[1:], t[:-1], out=d[:k])
    d[:k] *= d_plus
    d[k:] = d_plus
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


# The factors kept per workspace.  On jump data dt flickers between values one
# ulp apart once the speed bound sits on a far-field plateau, so a returns to
# one of a few recent values: on `perfbench`'s `shock_run` (seed 0, 8,100
# steps) 3,374 of the 3,731 changes of a find their factor kept with 4 slots,
# 3,074 with 2 and 3,379 with 8.
_FACTOR_SLOTS = 4


class _Workspace:
    """Scratch buffers of `_advance` for an n-node grid, reused step to step,
    and the routines it runs: the compiled step in `lib`, or, when it did not
    load (`lib` is None), LAPACK's `dpttrs` for the numpy solve (else None:
    the compiled step needs no LAPACK).

    It keeps the factors (pivots and subdiagonal) of the last `_FACTOR_SLOTS`
    values of a in as many slots; `factor(a)` makes `a`, `d` and `e` name the
    one in use.  The compiled step writes u and v into two alternating pairs
    of buffers owned here, so a step's output outlives the next step.  The
    data address of each owned buffer, slots included, is looked up once;
    the address table is keyed by id, so no owned buffer is ever dropped.
    """

    __slots__ = ("n", "d", "e", "w", "a", "dpttrs", "lib", "u_out", "v_out", "checks",
                 "_factors", "_ramp", "head", "_addr")

    def __init__(self, n: int) -> None:
        self.n = n
        m = n - 2  # interior nodes: pivots, and m - 1 subdiagonal entries of L
        slots = [(np.empty(m), np.empty(m - 1)) for _ in range(_FACTOR_SLOTS)]
        # a -> its (d, e) slot, least recently used first; an unused slot is
        # keyed by a placeholder that no a equals
        self._factors = {object(): slot for slot in slots}
        self.a = math.nan  # the a that d and e hold the factor for
        self.d, self.e = slots[0]  # no factor yet; never an array of its own
        self.w = np.empty(n)  # u*v, for the numpy stage
        self.lib = _load_stages()  # the compiled step loads here, not at import
        self.dpttrs = None
        if self.lib is None:
            self.dpttrs = _load_dpttrs()  # and LAPACK, only for the numpy stages
            return
        self._ramp = np.arange(1.0, m + 2.0)  # 1, ..., m + 1: the head's exponents
        self.head = np.empty(m + 1)  # expm1(log_q*ramp[:k+1]) for the compiled step
        self.u_out = (np.empty(n), np.empty(n))
        self.v_out = (np.empty(n), np.empty(n))
        self.checks = np.empty(3)  # what the compiled step returns: u-min, v finite, bound
        owned = (*(x for slot in slots for x in slot), self.head,
                 *self.u_out, *self.v_out, self.checks)
        self._addr = {id(x): _address(x, x.size) for x in owned}

    def ptr(self, x: np.ndarray) -> int:
        """The data address of x, an owned buffer or any n contiguous doubles."""
        addr = self._addr.get(id(x))
        return _address(x, self.n) if addr is None else addr

    def factor(self, a: float) -> tuple[int, float]:
        """Make d and e name the factor of tridiag(-a, 1+2a, -a), and return
        (k, d_plus) for the compiled step.

        A kept factor is used as it is, and k is -1.  Otherwise a takes the
        least recently used slot.  A numpy workspace fills it here
        (`_ldl_pivots`, then e_i = -a/d_i).  A compiled one leaves the
        filling to the compiled step: it puts expm1(log_q*(1, ..., k+1)) of
        `_ldl_scalars` into its head buffer and returns k >= 0 and d_plus.
        The caller must then run the step, which fills the whole slot."""
        if a == self.a:
            return -1, 0.0
        k, d_plus = -1, 0.0
        slot = self._factors.pop(a, None)
        if slot is None:  # a miss: a takes the least recently used slot
            slot = self._factors.pop(next(iter(self._factors)))
            d, e = slot
            if self.lib is None:
                k, d_plus = _ldl_pivots(a, d)
                # e_i = -a/d_i; from index k on every d_i is d_plus, so one value fills e
                head = e[:k]
                np.divide(-a, d[: head.size], out=head)
                e[k:] = -a / d_plus
            else:
                k, d_plus, log_q = _ldl_scalars(a, d.size)
                t = self.head[: k + 1]
                np.multiply(self._ramp[: k + 1], log_q, out=t)
                np.expm1(t, out=t)
        self._factors[a] = slot
        self.a = a
        self.d, self.e = slot
        return k, d_plus


def _cfl_step(bound: float, cfl: float, dx: float, dt_cap: float | None) -> float:
    """The CFL step cfl*dx/max(bound, tiny), capped at dt_cap when given."""
    dt = cfl * dx / max(bound, _TINY_SPEED)
    return dt if dt_cap is None else min(dt, dt_cap)


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

    ws is a numpy workspace: its `factor` fills the factor itself, and only
    for an a, bit for bit, that none of its slots holds."""
    ws.factor(a)
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


def _numpy_step(
    u: np.ndarray, v: np.ndarray, flux_w: float, diff_w: float, a: float, dv_w: float,
    chi: float, ws: _Workspace,
) -> tuple[np.ndarray, np.ndarray, float, bool, float]:
    """The numpy stages `_explicit_rhs`, `_implicit_solve` (ends u[0] and
    u[-1]) and `_update_v` (ends v[0] and v[-1]) with these weights.

    Returns (u_new, v_new, `_finite_min(u_new)`, whether every v_new is
    finite, `_speed_bound(u_new, v_new, chi)`); a nonzero LAPACK info raises
    a NumericalError that `_advance` completes with the step's place."""
    u_new = _explicit_rhs(u, v, flux_w, diff_w, ws.w)
    info = _implicit_solve(u_new[1:-1], a, u[0], u[-1], ws)
    if info != 0:
        raise NumericalError(f"tridiagonal solve failed (LAPACK info={info})")
    u_new[0] = u[0]
    u_new[-1] = u[-1]
    u_min = _finite_min(u_new)
    if math.isnan(u_min):  # `_advance` rejects this u, whose inf - inf would warn
        with np.errstate(invalid="ignore"):
            v_new = _update_v(u_new, v, dv_w, v[0], v[-1])
    else:
        v_new = _update_v(u_new, v, dv_w, v[0], v[-1])
    v_finite = not math.isnan(_finite_min(v_new))
    return u_new, v_new, u_min, v_finite, _speed_bound(u_new, v_new, chi)


def _compiled_step(
    u: np.ndarray, v: np.ndarray, flux_w: float, diff_w: float, a: float, dv_w: float,
    chi: float, ws: _Workspace,
) -> tuple[np.ndarray, np.ndarray, float, bool, float]:
    """`_numpy_step` as one call of ws's compiled step, which gives the same
    bytes.

    u_new and v_new are the buffers of ws that are not u and v, so the step
    after next overwrites them.  The factor is one of ws's slots
    (`_Workspace.factor`): a kept one is used as it is (k = -1); for a new
    a, Python computes only numpy's expm1 of the head, and the compiled step
    forms the head pivots from it and fills the rest of the slot."""
    u_new = ws.u_out[1] if u is ws.u_out[0] else ws.u_out[0]
    v_new = ws.v_out[1] if v is ws.v_out[0] else ws.v_out[0]
    u_in, v_in = ws.ptr(u), ws.ptr(v)  # a bad input fails before a slot is taken
    k, d_plus = ws.factor(a)
    ws.lib.imex_step(u_in, v_in, ws.n, flux_w, diff_w, a, ws.ptr(ws.d), ws.ptr(ws.e),
                     ws.ptr(ws.head), k, d_plus, dv_w, chi, ws.ptr(u_new), ws.ptr(v_new),
                     ws.ptr(ws.checks))
    u_min, v_finite, bound = ws.checks.tolist()
    return u_new, v_new, u_min, v_finite != 0.0, bound


def _advance(
    u: np.ndarray, v: np.ndarray, bound: float, t: float, step_no: int, grid: GridSpec,
    params: ModelParams, cfg: SchemeConfig, dt_cap: float | None, ws: _Workspace,
) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """Take step number `step_no` from time t on raw nodal arrays whose speed
    bound is `bound`.

    Returns (u_new, v_new, dt, min(u_new), the speed bound of u_new and
    v_new), whose end values are those of u and v; the inputs are not
    modified and `ws` only holds scratch values.  The step is ws's kernel:
    `_compiled_step` when ws holds the compiled library, else `_numpy_step`.
    """
    dx = grid.dx
    theta = cfg.diffusion_theta
    chi = params.chi
    dt = _cfl_step(bound, cfg.cfl, dx, dt_cap)
    if not t + dt > t:  # the speed bound overflowed, or dt is below t's last digit
        raise NumericalError(
            f"time step {dt:.3e} does not advance t={t:.6g} on step {step_no}"
        )
    flux_w = dt * chi / (2.0 * dx)
    diff_w = dt * (1.0 - theta) * params.D / (dx * dx)
    a = theta * params.D * dt / (dx * dx)
    if not (math.isfinite(a) and math.isfinite(diff_w)):  # D*dt/dx**2 overflowed
        raise NumericalError(
            f"diffusion weights a={a:.3e}, diff_w={diff_w:.3e} are not finite "
            f"on step {step_no} (t={t:.6g}, dt={dt:.3e})"
        )
    dv_w = dt / (2.0 * dx)
    kernel = _numpy_step if ws.lib is None else _compiled_step
    try:
        u_new, v_new, u_min, v_finite, bound = kernel(u, v, flux_w, diff_w, a, dv_w, chi, ws)
    except NumericalError as err:  # the numpy solve's LAPACK info: say where
        raise NumericalError(f"{err} on step {step_no} (t={t:.6g}, dt={dt:.3e})") from None

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
    if not v_finite:
        bad = int(np.flatnonzero(~np.isfinite(v_new))[0])
        raise NumericalError(
            f"non-finite v at node {bad} after step {step_no} (t={t:.6g}, dt={dt:.3e})"
        )
    return u_new, v_new, dt, u_min, bound


def step(
    state: SimState,
    params: ModelParams,
    cfg: SchemeConfig,
    dt_cap: float | None = None,
) -> SimState:
    """Advance one step of size cfl*dx/max(speed, tiny), optionally capped."""
    grid, u, v = state.u.grid, state.u.values, state.v.values
    with np.errstate(over="ignore"):  # an overflowed bound fails in `_advance`
        bound = _speed_bound(u, v, params.chi)
    u, v, dt, _, _ = _advance(
        u, v, bound, state.t, state.step_count + 1,
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
    with np.errstate(over="ignore"):  # an overflowed bound fails in `_advance`
        bound = _speed_bound(u, v, params.chi)

    if on_snapshot:
        on_snapshot(0, state, None)
    snapshots = 1

    for target in _snapshot_times(cfg):
        prev = None
        while t < target - eps:
            prev = (u, v, t, count)
            u, v, dt, u_min, bound = _advance(
                u, v, bound, t, count + 1, grid, params, cfg, target - t, ws
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

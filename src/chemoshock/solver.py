"""IMEX time stepping for the coupled system

    u_t - chi*(u*v)_x = D*u_xx,      v_t - u_x = 0

on a uniform grid whose two end nodes keep the initial data's end values:
the far-field states of the Cauchy problem come from the data, so no caller
restates them.

Diffusion is treated implicitly (theta-scheme), the coupling flux
chi*(u v)_x explicitly by central differences, and v is updated pointwise from
the freshly computed u so that the discrete v-mass identity holds per step.
The time step is recomputed every step from the characteristic speed bound,
since v drifts.

The implicit solve is in δ-form: the step solves (I - a*Laplacian) δ = r on
the interior nodes, with δ = 0 at the two pinned ends, and sets u_new = u + δ.
r is the whole step's increment of the theta-scheme,
(uv_(i+1) - uv_(i-1))*flux_w + ((u_(i+1) + u_(i-1)) - 2u_i)*(diff_w + a),
so on a state that is constant around a node it is exactly 0 there: constant
states are exact fixed points, and far-field plateaus keep their bits.  The
interior system I - a*Laplacian = tridiag(-a, 1+2a, -a) is symmetric positive
definite and Toeplitz.  Its LDL^T pivots come from their recurrence, or from
a closed form for a > `_A_MAX` (`_ldl_pivots`), so a step never factorizes:
it fills the pivots and the unit lower bidiagonal factor and calls LAPACK's
dpttrs, which solves in place.  The recurrence takes +, -, * and / only, and
the closed form the C library's expm1 and log1p, which Python's math module
calls too, so the pivots do not depend on numpy's SIMD code.  The solve runs
on blocks of rows around r's nonzero entries only (`_implicit_solve`), whose
margins end where δ has decayed by 2**-64: on a plateau δ would otherwise
decay row by row into the subnormal numbers, where each multiply and divide
costs the CPU ~100 cycles, and a compiled step on jump data took up to a
third longer.

An increment δ_i smaller than `_DEAD_BAND` = 2**-49 times |u_i|, eight units
of roundoff of u_i and a few times the rounding error of δ_i itself, is
dropped: u_new_i = u_i there.  Without it roundoff travels.  Rounding each
u + δ to the nearest double turns the sub-ulp increments next to a few-ulp
pattern into whole ulps, so such a pattern on a far-field plateau (u one and
two ulps above 1, v one ulp below, as jump data leave behind them) moved one
node per step, and whether one started on `perfbench`'s `shock_run` turned on
the jump's position: its output ranged from 1.61 to 1.94 MB over the
workload's 11 positions.  Four units of roundoff were the least that stopped
it there (three let it start on every position), hence eight.  A dropped
increment moves u by at most 2**-49 |u| per step.

One array kernel, `_advance`, takes a step on raw nodal arrays.  It takes
the speed bound of its input pair, from which it takes the CFL dt
(`_cfl_step`), and returns the new pair's bound for the next step: `run()`
carries the bound in a local variable, and `run()` and `step()` take the
first one from `_speed_bound`.  The step itself is one of two kernels of one
signature, which return the same tuple (u_new, v_new, min(u_new), whether
v_new is finite, the next bound).  `_numpy_step` composes three stages, each
a module-level function of raw arrays and scalar weights: `_explicit_rhs`
(the δ-form's right-hand side), `_implicit_solve` (pivots, `dpttrs`), after
which it adds u, and `_update_v`, and then `_speed_bound`.  Each kernel
pins each end to its value in the input arrays, which by induction is the
data's, and `_advance` performs every per-step check (LAPACK info, finite u
and v, positivity) on what it returns.  The scratch buffers (pivots, factor,
u*v) and the routines live in a `_Workspace` that `run()` allocates once per
run; the public `step()` builds its own.  The workspace keeps the factors
(pivots and subdiagonal) of the last four values of a = theta*D*dt/dx**2 in
as many slots, least recently used first out (`_Workspace.factor`), and a
factor is computed only for an a, bit for bit, that no slot holds.  On jump
data dt repeats on most steps, and on most of the rest it returns to a value
one ulp from the last: on `perfbench`'s `shock_run` 345 of 8,100 steps
compute a factor, where 1,440 would with one slot.  `run()` marches the
arrays and builds `Field`/`SimState` only at the API boundary: at snapshots,
for the plain `on_snapshot(index, state, prev)` callback, and for its
`RunReport`.  The public `step()` wraps the same kernel for a single
`SimState`.

The compiled step.  When the workspace holds the compiled library, the
kernel is `_compiled_step`, one call of `imex_step` in `_stages.c`, which
does `_numpy_step`'s IEEE operations in the same order, so both kernels give
the same bytes.  It is two sweeps, dpttrs's own.  The forward sweep computes
each node's right-hand side, finds the blocks and runs their forward sweeps;
the back sweep finishes δ, adds u, updates v one node behind the solve,
finds min(u_new) and whether u_new and v_new are finite, and takes the next
bound from each node's term where that node becomes final.  So a compiled
run makes one library call per step, and no Python arithmetic fills a
factor: for an a that no slot holds, `_Workspace.factor` only picks the
slot, and the step runs the pivots' recurrence until a pivot repeats, then
stores each later row in the forward sweep (or, for a > `_A_MAX`, fills the
closed form on the C library's expm1 before it).  The max of the bound's finite
terms does not depend on their order, so the back sweep meets them back to
front; an inf or nan entry of the new state hands the bound to a loop in
node order, as numpy meets them.  The numpy kernel stays as the reference
the tests compare with, and as the path taken when no compiler or cache is
usable.  The first
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
# the largest a whose pivots run their recurrence (`_ldl_pivots`); `_stages.c`
# repeats it as A_MAX
_A_MAX = 100.0
# log(eps/4), as the literal that `_stages.c` repeats: the closed-form pivots
# past the head where q**i < eps/4 equal d_plus to the last bit
_LOG_QUARTER_EPS = -37.42994775023705
# a block of the solve reaches as far past its nonzero right-hand side as δ
# takes to decay by 2**-_BLOCK_BITS (`_block_margin`); `_stages.c` repeats it
_BLOCK_BITS = 64
# an increment δ_i smaller than _DEAD_BAND*|u_i|, eight units of roundoff of
# u_i, is dropped, and u_i kept (`_numpy_step`); `_stages.c` repeats it
_DEAD_BAND = 2.0**-49


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


def _ldl_pivots(a: float, d: np.ndarray) -> int:
    """Fill d with the pivots D of tridiag(-a, 1+2a, -a) = L D L^T, size d.size,
    and return k: every pivot from index k on equals d[k].

    Up to a = `_A_MAX` the pivots run their recurrence d_0 = 1 + 2a,
    d_(i+1) = (1 + 2a) - a*(a/d_i) until a pivot repeats, which fills the
    rest.  It takes +, -, * and / only, so every CPU gives the same bits, and
    the compiled step runs it too (`ldl_head`).  a*(a/d) does not
    overflow where a*a/d would.  It is within 1 ulp of the exact pivots for
    a <= 36 and 3 ulp at a = 100, but drifts further above (4 ulp at a = 200,
    17 at a = 3000, m = 3999), so above `_A_MAX` the pivots take their
    closed form.  With d_plus = (1+2a+sqrt(1+4a))/2 and q = (a/d_plus)**2
    the i-th pivot (1-based) is d_plus*(1-q**(i+1))/(1-q**i), that is
    t[i+1]/t[i]*d_plus with t = expm1(log_q*(1, ..., k+1)), and d_plus past
    the head length k where q**i < eps/4.  log q is taken as
    -2*log1p((d_plus-a)/a), which stays nonzero for large a where a/d_plus
    rounds to 1.  The expm1 and log1p are Python's math functions, the C
    library's, which the compiled step calls too (`ldl_closed`).
    """
    m = d.size
    if a > _A_MAX:
        s = math.sqrt(1.0 + 4.0 * a)
        d_plus = 0.5 * (1.0 + 2.0 * a + s)
        log_q = -2.0 * math.log1p(0.5 * (1.0 + s) / a)
        head = _LOG_QUARTER_EPS / log_q
        k = min(m, int(head) + 2) if head < m else m
        t = np.array([math.expm1(log_q * i) for i in range(1, k + 2)])
        np.divide(t[1:], t[:-1], out=d[:k])
        d[:k] *= d_plus
        d[k:] = d_plus
        return min(k, m - 1)
    b = p = 1.0 + 2.0 * a
    for k in range(m - 1):
        d[k] = p
        p_next = b - a * (a / p)
        if p_next == p:  # a fixed point: every later pivot is p
            d[k:] = p
            return k
        p = p_next
    d[m - 1] = p
    return m - 1


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
                 "_factors", "_addr")

    def __init__(self, n: int) -> None:
        self.n = n
        m = n - 2  # interior nodes: pivots, and m - 1 subdiagonal entries of L
        slots = [(np.empty(m), np.empty(m - 1)) for _ in range(_FACTOR_SLOTS)]
        # a -> its (d, e) slot, least recently used first; an unused slot is
        # keyed by a placeholder that no a equals
        self._factors = {object(): slot for slot in slots}
        self.a = math.nan  # the a that d and e hold the factor for
        self.d, self.e = slots[0]  # no factor yet; never an array of its own
        self.w = np.empty(n)  # scratch: u*v for the numpy stage, the compiled step's blocks
        self.lib = _load_stages()  # the compiled step loads here, not at import
        self.dpttrs = None
        if self.lib is None:
            self.dpttrs = _load_dpttrs()  # and LAPACK, only for the numpy stages
            return
        self.u_out = (np.empty(n), np.empty(n))
        self.v_out = (np.empty(n), np.empty(n))
        self.checks = np.empty(3)  # what the compiled step returns: u-min, v finite, bound
        owned = (*(x for slot in slots for x in slot), *self.u_out, *self.v_out, self.checks,
                 self.w)
        self._addr = {id(x): _address(x, x.size) for x in owned}

    def ptr(self, x: np.ndarray) -> int:
        """The data address of x, an owned buffer or any n contiguous doubles."""
        addr = self._addr.get(id(x))
        return _address(x, self.n) if addr is None else addr

    def factor(self, a: float) -> bool:
        """Make d and e name the factor of tridiag(-a, 1+2a, -a), and return
        whether the compiled step must fill it.

        A kept factor is used as it is.  Otherwise a takes the least recently
        used slot.  A numpy workspace fills it here (`_ldl_pivots`, then
        e_i = -a/d_i); a compiled one returns True, and the caller must then
        run the compiled step, which fills the whole slot."""
        if a == self.a:
            return False
        slot = self._factors.pop(a, None)
        fill = slot is None
        if fill:  # a miss: a takes the least recently used slot
            slot = self._factors.pop(next(iter(self._factors)))
            if self.lib is None:
                d, e = slot
                k = _ldl_pivots(a, d)
                # e_i = -a/d_i; from index k on every d_i is d[k], so one value fills e
                np.divide(-a, d[:k], out=e[:k])
                e[k:] = -a / d[k]
                fill = False
        self._factors[a] = slot
        self.a = a
        self.d, self.e = slot
        return fill


def _cfl_step(bound: float, cfl: float, dx: float, dt_cap: float | None) -> float:
    """The CFL step cfl*dx/max(bound, tiny), capped at dt_cap when given."""
    dt = cfl * dx / max(bound, _TINY_SPEED)
    return dt if dt_cap is None else min(dt, dt_cap)


def _explicit_rhs(
    u: np.ndarray, v: np.ndarray, flux_w: float, lap_w: float, w: np.ndarray
) -> np.ndarray:
    """A fresh array holding the right-hand side of the δ-form,
    (uv_(i+1) - uv_(i-1))*flux_w + ((u_(i+1) + u_(i-1)) - 2u_i)*lap_w, on the
    interior nodes, its two ends left unset; lap_w is diff_w + a, and w is
    scratch for uv."""
    u_new = np.empty_like(u)
    rhs = u_new[1:-1]
    np.multiply(u, v, out=w)
    np.subtract(w[2:], w[:-2], out=rhs)
    rhs *= flux_w
    lap = u[2:] + u[:-2]
    lap -= 2.0 * u[1:-1]
    lap *= lap_w
    rhs += lap
    return u_new


def _block_margin(rho: float, m: int) -> int:
    """The rows a block of the solve adds on each side of its nonzero
    right-hand side, at most m.  rho = a/d is the factor by which δ decays
    per row away from the right-hand side; from the bound rho**8 < 2**ex,
    g = ceil(8*_BLOCK_BITS/-ex) rows take it below 2**-_BLOCK_BITS.  It takes
    only multiplies and the exponent of a double, so `_stages.c` gets the
    same g."""
    if rho == 0.0:
        return 0
    p2 = rho * rho
    p4 = p2 * p2
    p8 = p4 * p4
    if p8 == 0.0:
        return 1
    ex = math.frexp(p8)[1]  # rho**8 < 2**ex
    if ex >= 0:
        return m
    return min(m, (_BLOCK_BITS * 8 - ex - 1) // -ex)


def _implicit_solve(rhs: np.ndarray, a: float, ws: _Workspace) -> int:
    """Overwrite rhs with the solution δ of (I - a*Laplacian) δ = rhs, δ = 0
    at the two ends, on the blocks of rows around its nonzero entries, and
    return LAPACK's info; outside the blocks rhs is +-0 and is left as it is.

    A block runs from g = `_block_margin` rows before a nonzero entry to g
    rows after one, and blocks that touch are one: what it drops, the
    coupling a*δ across its ends, is about a*2**-_BLOCK_BITS of δ, and its
    sweeps stop before their tails decay into subnormal numbers, which cost
    the compiled step's CPU ~100 cycles per operation.  A block of k rows is
    the system tridiag(-a, 1+2a, -a) of size k, whose factor is the first k
    rows of the full one.  ws is a numpy workspace: its `factor` fills the
    factor itself, and only for an a, bit for bit, that none of its slots
    holds."""
    ws.factor(a)
    rows = np.flatnonzero(rhs)  # a nan too
    if rows.size == 0:
        return 0
    m = rhs.size
    g = _block_margin(-float(ws.e[-1]), m)
    cuts = np.flatnonzero(np.diff(rows) > 2 * g + 1)
    firsts = rows[np.r_[0, cuts + 1]].tolist()
    lasts = rows[np.r_[cuts, rows.size - 1]].tolist()
    for first, last in zip(firsts, lasts):
        s, t = max(first - g, 0), min(last + g, m - 1)
        k = t - s + 1
        # dpttrs reads no subdiagonal entry of a 1-row block but wants one
        _, info = ws.dpttrs(ws.d[:k], ws.e[: max(k - 1, 1)], rhs[s : t + 1], overwrite_b=True)
        if info != 0:
            return info
    return 0


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
    """The numpy stages `_explicit_rhs` and `_implicit_solve`, which give δ,
    then u_new = u + δ inside, where |δ| >= `_DEAD_BAND`*|u|, u elsewhere,
    and u's ends, and `_update_v` (ends v[0] and v[-1]) with these weights.

    Returns (u_new, v_new, `_finite_min(u_new)`, whether every v_new is
    finite, `_speed_bound(u_new, v_new, chi)`); a nonzero LAPACK info raises
    a NumericalError that `_advance` completes with the step's place."""
    u_new = _explicit_rhs(u, v, flux_w, diff_w + a, ws.w)
    delta = u_new[1:-1]
    info = _implicit_solve(delta, a, ws)
    if info != 0:
        raise NumericalError(f"tridiagonal solve failed (LAPACK info={info})")
    u_in = u[1:-1]
    delta[np.abs(delta) < _DEAD_BAND * np.abs(u_in)] = 0.0
    delta += u_in
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
    (`_Workspace.factor`): a kept one is used as it is, and for a new a the
    compiled step fills the slot."""
    u_new = ws.u_out[1] if u is ws.u_out[0] else ws.u_out[0]
    v_new = ws.v_out[1] if v is ws.v_out[0] else ws.v_out[0]
    u_in, v_in = ws.ptr(u), ws.ptr(v)  # a bad input fails before a slot is taken
    fill = ws.factor(a)
    ws.lib.imex_step(u_in, v_in, ws.n, flux_w, diff_w, a, ws.ptr(ws.d), ws.ptr(ws.e), fill,
                     dv_w, chi, ws.ptr(u_new), ws.ptr(v_new), ws.ptr(ws.checks), ws.ptr(ws.w))
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

"""Run-time monitors: error norms against a constant state or a shifted wave,
the entropy functional, the A/B energy functionals, the effective viscous
flux identity, mass accounting and the wave shift, perturbation
anti-derivatives, and the local-regularity probe used to quantify how
non-differentiability of v evolves.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    _FLOAT_FMT,
    Field,
    GridSpec,
    ModelParams,
    SimState,
    _derivative,
    _lp_norm_of_abs,
    _nodes,
    cumulative_integral,
    integral,
    trapezoid,
)
from .waves import TravelingWave


# ---------------------------------------------------------------------------
# references: what "error" is measured against
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantReference:
    """Fixed background state (far fields equal): no wave and no front."""

    u_bar: float
    v_bar: float
    wave = None
    front_level = None

    def profile_arrays(self, grid: GridSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
        n = grid.n_nodes
        return np.full(n, self.u_bar), np.full(n, self.v_bar)


@dataclass(frozen=True)
class WaveReference:
    """Shifted traveling wave (U, V)(x + x0 - s*t), as shift_x0 fits it with
    v-mass defect beta_residual (None for a hand-set x0); its front is tracked
    at front_level, the midpoint (u_minus + u_plus)/2."""

    wave: TravelingWave
    x0: float
    beta_residual: float | None = None

    @property
    def front_level(self) -> float:
        st = self.wave.states
        return 0.5 * (st.u_minus + st.u_plus)

    def profile_arrays(self, grid: GridSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
        z = _nodes(grid) + self.x0 - self.wave.s * t
        u = self.wave.u_profile(z)
        # V = (kappa - U) / s from the same U, as TravelingWave.v_profile computes it
        return u, (self.wave.kappa - u) / self.wave.s


Reference = ConstantReference | WaveReference

# the default reference of the flux identity: the constant state (1, 0)
_UNIT_REFERENCE = ConstantReference(1.0, 0.0)


# ---------------------------------------------------------------------------
# scalar functionals
# ---------------------------------------------------------------------------


def entropy(u: Field) -> float:
    """integral of (u ln u - u + 1); nonnegative, zero only at u == 1."""
    vals = u.values
    if np.any(vals <= 0):
        bad = int(np.flatnonzero(vals <= 0)[0])
        raise ValueError(f"entropy needs u > 0 everywhere; node {bad} has {vals[bad]}")
    return trapezoid(vals * np.log(vals) - vals + 1.0, u.grid.dx)


def ab_functionals(u: Field, v: Field | None = None) -> tuple[float, float]:
    """Energy functionals of the perturbation w = u - 1, in sum-of-squares
    form (each term nonnegative):

        A = ||w||^2 + (1/8)||2w - w^2||^2 + (1/8)||w||_L4^4 + (3/2)||v||^2
        B = (1/2)||w_x||^2 + (1/2)||w_x - |w| w_x||^2 + (1/2)||w |w_x|||^2

    The v contribution to A is included only when v is supplied.
    """
    dx = u.grid.dx
    w = u.values - 1.0
    wx = _derivative(w, dx)

    # w**4 as (w*w)**2: numpy's pow takes a slow path for a negative base,
    # ~20x slower, and w is roundoff of both signs in a flat far field
    w2 = w * w
    a = (
        trapezoid(w2, dx)
        + 0.125 * trapezoid((2.0 * w - w2) ** 2, dx)
        + 0.125 * trapezoid(w2 * w2, dx)
    )
    if v is not None:
        a += 1.5 * trapezoid(v.values * v.values, dx)
    b = 0.5 * (
        trapezoid(wx * wx, dx)
        + trapezoid(((1.0 - np.abs(w)) * wx) ** 2, dx)
        + trapezoid((w * wx) ** 2, dx)
    )
    return a, b


# ---------------------------------------------------------------------------
# effective viscous flux
# ---------------------------------------------------------------------------


def _effective_flux_values(
    state: SimState, params: ModelParams, ru: np.ndarray, rv: np.ndarray, du: np.ndarray
) -> np.ndarray:
    """effective_flux values for a reference (ru, rv) already evaluated at
    state.t, given du = u - ru."""
    u, v = state.u.values, state.v.values
    return params.D * _derivative(du, state.u.grid.dx) + params.chi * (u * v - ru * rv)


def effective_flux(
    state: SimState, params: ModelParams, reference: Reference = _UNIT_REFERENCE
) -> Field:
    """F = D*(u - R_u)_x + chi*(u v - R_u R_v), whose x-derivative equals
    (u - R_u)_t along solutions.

    With the default constant reference (1, 0) this is the classical
    D*w_x + chi*(w + 1)*v for w = u - 1; a wave reference gives the
    shock-relative variant.
    """
    ru, rv = reference.profile_arrays(state.u.grid, state.t)
    flux = _effective_flux_values(state, params, ru, rv, state.u.values - ru)
    return Field(state.u.grid, flux)


def _flux_residual(
    prev: SimState,
    prev_ref: tuple[np.ndarray, np.ndarray],
    next_state: SimState,
    next_ref: tuple[np.ndarray, np.ndarray],
    du_next: np.ndarray,
    params: ModelParams,
) -> float:
    """flux_identity_residual for the reference arrays (ru, rv) already
    evaluated at prev.t and at next_state.t, given du_next = u - ru at
    next_state.t."""
    dt = next_state.t - prev.t
    if dt <= 0:
        raise ValueError(f"states must be time-ordered (got dt={dt})")
    dx = prev.u.grid.dx
    du_prev = prev.u.values - prev_ref[0]
    f_mid = 0.5 * (
        _effective_flux_values(prev, params, *prev_ref, du_prev)
        + _effective_flux_values(next_state, params, *next_ref, du_next)
    )
    resid = _derivative(f_mid, dx) - (du_next - du_prev) / dt
    return _lp_norm_of_abs(np.abs(resid), dx, 2)


def flux_identity_residual(
    prev: SimState,
    next_state: SimState,
    params: ModelParams,
    reference: Reference = _UNIT_REFERENCE,
) -> float:
    """L2 norm of d/dx F_mid - time difference quotient of (u - R_u), the
    discrete residual of the flux identity F_x = (u - R_u)_t."""
    next_ref = reference.profile_arrays(next_state.u.grid, next_state.t)
    return _flux_residual(prev, reference.profile_arrays(prev.u.grid, prev.t), next_state,
                          next_ref, next_state.u.values - next_ref[0], params)


# ---------------------------------------------------------------------------
# mass shift and anti-derivatives
# ---------------------------------------------------------------------------


def shift_x0(
    u0: Field, v0: Field, wave: TravelingWave, base_shift: float = 0.0
) -> WaveReference:
    """The wave shifted so u0 ~ U(. + x0): x0 is the mass of (u0 - U) over the
    jump u+ - u-; beta_residual is the v-mass defect left over after shifting
    (the trace of the neglected diffusion wave).

    base_shift pre-translates the profile so its front lies inside the grid;
    the returned x0 is absolute (base_shift = 0 reproduces the raw formula,
    appropriate when the normalization point x = 0 is an interior node).
    """
    ujump = wave.states.u_plus - wave.states.u_minus
    if ujump == 0:
        raise ValueError("shift is undefined for equal far-field densities")
    x = u0.grid.nodes()
    defect = integral(u0 - Field(u0.grid, wave.u_profile(x + base_shift)))
    x0 = base_shift + defect / ujump
    beta = integral(v0 - Field(v0.grid, wave.v_profile(x + x0)))
    return WaveReference(wave=wave, x0=x0, beta_residual=beta)


@dataclass(frozen=True)
class PerturbationPair:
    """Anti-derivatives (phi, psi) of (u - U, v - V) from the left boundary;
    their right-end values vanish exactly when the perturbation has zero mass."""

    phi: Field
    psi: Field
    zero_mass_residual: tuple[float, float]


def antiderivatives(
    u: Field, v: Field, wave: TravelingWave, x0: float, t: float
) -> PerturbationPair:
    z = u.grid.nodes() + x0 - wave.s * t
    phi = cumulative_integral(u - Field(u.grid, wave.u_profile(z)))
    psi = cumulative_integral(v - Field(v.grid, wave.v_profile(z)))
    return PerturbationPair(
        phi=phi,
        psi=psi,
        zero_mass_residual=(float(phi.values[-1]), float(psi.values[-1])),
    )


# ---------------------------------------------------------------------------
# regularity probe and front tracking
# ---------------------------------------------------------------------------


class ProbeResult(NamedTuple):
    max_dq: float
    width_50: float


def regularity_probe(
    v: Field, window_center: float, window_halfwidth: float
) -> ProbeResult:
    """Largest first difference quotient |v_{i+1} - v_i|/dx inside the window
    (a local Lipschitz proxy) and the width of the sub-window where the
    quotient exceeds half of that maximum."""
    grid = v.grid
    lo = window_center - window_halfwidth
    hi = window_center + window_halfwidth
    if lo < grid.x_min - 1e-12 or hi > grid.x_max + 1e-12:
        raise ValueError(
            f"probe window [{lo}, {hi}] is not inside the grid "
            f"[{grid.x_min}, {grid.x_max}]"
        )
    x = _nodes(grid)
    inside = np.flatnonzero((x >= lo - 1e-12) & (x <= hi + 1e-12))
    if inside.size < 2:
        raise ValueError("probe window contains fewer than two nodes")
    i0, i1 = int(inside[0]), int(inside[-1])
    dq = np.abs(np.diff(v.values[i0 : i1 + 1])) / grid.dx
    max_dq = float(dq.max())
    if max_dq == 0.0:
        return ProbeResult(0.0, 0.0)
    width = float(np.count_nonzero(dq >= 0.5 * max_dq) * grid.dx)
    return ProbeResult(max_dq, width)


def front_position(u: Field, level: float) -> float:
    """Leftmost crossing of u through `level` (linear interpolation); falls
    back to the location of max |u - level| when there is no crossing, and to
    x_min for fields identically at the level."""
    x = _nodes(u.grid)
    d = u.values - level
    hits = np.flatnonzero(d == 0.0)
    crossings = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    candidates = []
    if hits.size:
        candidates.append(float(x[hits[0]]))
    if crossings.size:
        i = int(crossings[0])
        frac = d[i] / (d[i] - d[i + 1])
        candidates.append(float(x[i] + frac * u.grid.dx))
    if candidates:
        return min(candidates)
    if np.all(d == 0.0):
        return float(x[0])
    return float(x[int(np.argmax(np.abs(d)))])


# ---------------------------------------------------------------------------
# per-snapshot record and decay reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One snapshot's diagnostics; its fields are the series.csv columns, in order."""

    t: float
    sigma: float
    sup_u_err: float
    l2_v: float
    l4_v: float
    l6_v: float
    entropy: float
    a_func: float
    b_func: float
    flux_res: float
    mass_u: float
    mass_v: float
    max_dq_v: float
    dq_width: float
    front_pos: float

    def __post_init__(self) -> None:
        for name in SERIES_COLUMNS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"diagnostics record contains non-finite entries "
                                 f"(first: {name} = {getattr(self, name)})")


def assemble_record(
    state: SimState,
    prev: SimState | None,
    params: ModelParams,
    reference: Reference,
    probe_center: float,
    probe_halfwidth: float,
) -> DiagnosticsRecord:
    """One snapshot's record against `reference`: error norms, functionals,
    the flux residual since `prev` (0 without one), the regularity probe, and
    the front, tracked at the reference's front level.

    Intermediates stay raw arrays, handed to the helpers behind the public
    functions, so each entry equals what those give on the same states.  An
    overflow is not warned about: it leaves a non-finite entry, which fails
    the record with that column named."""
    grid = state.u.grid
    dx = grid.dx
    with np.errstate(over="ignore", invalid="ignore"):
        ref = reference.profile_arrays(grid, state.t)
        u_err = state.u.values - ref[0]
        abs_u_err = np.abs(u_err)
        abs_v_err = np.abs(state.v.values - ref[1])
        probe = regularity_probe(state.v, probe_center, probe_halfwidth)
        if reference.front_level is None:
            # degenerate far fields: report where the solution deviates most
            i = int(np.argmax(abs_u_err))
            front = float(_nodes(grid)[i]) if abs_u_err[i] > 0 else grid.x_min
        else:
            front = front_position(state.u, reference.front_level)
        flux_res = 0.0
        if prev is not None:
            prev_ref = reference.profile_arrays(grid, prev.t)
            flux_res = _flux_residual(prev, prev_ref, state, ref, u_err, params)
        a_val, b_val = ab_functionals(state.u, state.v)
        return DiagnosticsRecord(
            t=state.t,
            sigma=min(1.0, state.t),
            sup_u_err=float(abs_u_err.max()),
            l2_v=_lp_norm_of_abs(abs_v_err, dx, 2),
            l4_v=_lp_norm_of_abs(abs_v_err, dx, 4),
            l6_v=_lp_norm_of_abs(abs_v_err, dx, 6),
            entropy=entropy(state.u),
            a_func=a_val,
            b_func=b_val,
            flux_res=flux_res,
            mass_u=integral(state.u),
            mass_v=integral(state.v),
            max_dq_v=probe.max_dq,
            dq_width=probe.width_50,
            front_pos=front,
        )


TRACKED_QUANTITIES = ("sup_u_err", "l2_v", "l4_v", "l6_v")


@dataclass(frozen=True)
class QuantityDecay:
    initial: float
    final: float
    tail_slope: float
    decayed: bool


def decay_series(records: Sequence[DiagnosticsRecord]) -> dict[str, QuantityDecay]:
    """Log-linear tail fit and halving check for each tracked error norm."""
    if len(records) < 3:
        raise ValueError(f"need at least 3 records (got {len(records)})")
    ts = [rec.t for rec in records]
    if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
        raise ValueError("records must be at strictly increasing times")
    tail = records[len(records) // 2 :]
    t_tail = np.array([rec.t for rec in tail])
    out = {}
    for name in TRACKED_QUANTITIES:
        series = np.array([getattr(rec, name) for rec in records])
        logs = np.log(np.maximum(series[len(records) // 2 :], 1e-300))
        slope = float(np.polyfit(t_tail, logs, 1)[0])
        out[name] = QuantityDecay(
            initial=float(series[0]),
            final=float(series[-1]),
            tail_slope=slope,
            decayed=bool(series[-1] < 0.5 * series[0]),
        )
    return out


# ---------------------------------------------------------------------------
# series.csv
# ---------------------------------------------------------------------------

SERIES_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def write_series(records: Sequence[DiagnosticsRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SERIES_COLUMNS)
        for rec in records:
            writer.writerow([_FLOAT_FMT % getattr(rec, name) for name in SERIES_COLUMNS])


def read_series(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array([[float(cell) for cell in row] for row in body])
    if data.size == 0:
        data = data.reshape(0, len(header))
    return {name: data[:, j] for j, name in enumerate(header)}

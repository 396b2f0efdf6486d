"""Exact traveling-wave algebra: jump conditions between far-field states,
the positive wave speed, and the closed-form monotone (U, V) profile.

The profile comes from integrating the wave ODE once and eliminating V
through the first integral U + s*V = kappa, which leaves the scalar ODE

    D * U' = (chi / s) * (U - u_minus) * (U - u_plus),

whose monotone solution is a falling logistic.  The closed form (rather than
a numerical integration) makes profiles bit-reproducible; an independent RK4
integration lives in the test suite as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AsymptoticStates, ModelParams

#: tolerance for the internal-consistency (jump-condition) check of a wave,
#: relative to the largest term of each condition when that exceeds 1
RH_TOL = 1e-10

_QUAD_REL_TOL = 1e-12


def _positive_speed(chi: float, u_minus: float, v_plus: float) -> float:
    # positive root of s^2 + chi*v_plus*s - chi*u_minus = 0, in the form that
    # adds terms of one sign: (-a + sqrt(.))/2 cancels for a >> sqrt(chi*u_minus),
    # its product form 2*chi*u_minus/(a + sqrt(.)) for -a >> sqrt(chi*u_minus)
    a = chi * v_plus
    root = math.sqrt(a * a + 4.0 * chi * u_minus)
    if a > 0:
        return 2.0 * chi * u_minus / (a + root)
    return 0.5 * (-a + root)


def wave_speed(states: AsymptoticStates, params: ModelParams) -> float:
    """Speed of the right-moving front connecting the given far fields."""
    if states.u_minus <= 0:
        raise ValueError(
            f"u_minus must be positive for a positive wave speed (got {states.u_minus})"
        )
    return _positive_speed(params.chi, states.u_minus, states.v_plus)


@dataclass(frozen=True)
class RHResidual:
    """Residuals of the two jump conditions across the front."""

    r1: float
    r2: float

    def max_abs(self) -> float:
        return max(abs(self.r1), abs(self.r2))


def rh_residual(states: AsymptoticStates, s: float, params: ModelParams) -> RHResidual:
    """How far (states, s) is from satisfying both jump conditions."""
    du = states.u_plus - states.u_minus
    r1 = -s * du - params.chi * (
        states.u_plus * states.v_plus - states.u_minus * states.v_minus
    )
    r2 = -s * (states.v_plus - states.v_minus) - du
    return RHResidual(r1, r2)


def complete_states(
    u_minus: float, u_plus: float, v_plus: float, params: ModelParams
) -> AsymptoticStates:
    """Fill in v_minus so that (u-, u+, v-, v+) is an exact jump quadruple.

    The triple (u-, u+, v+) fixes the speed through the quadratic relation,
    and the second jump condition then determines v_minus.
    """
    if not (u_minus > u_plus > 0):
        raise ValueError(
            f"need u_minus > u_plus > 0 (got u_minus={u_minus}, u_plus={u_plus})"
        )
    s = _positive_speed(params.chi, u_minus, v_plus)
    v_minus = v_plus + (u_plus - u_minus) / s
    return AsymptoticStates(u_minus, u_plus, v_minus, v_plus)


def _logistic(t):
    # 1/(1 + exp(-t)), overflow-safe in both tails: with e = exp(-|t|) <= 1 it
    # is 1/(1 + e) for t >= 0 and e/(1 + e) below.  Dtype preserving, so the
    # profile can be evaluated in extended precision for stencil tests
    arr = np.asarray(t, dtype=np.result_type(t, float))
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class TravelingWave:
    """Monotone viscous front profile in the wave coordinate z = x - s*t.

    Normalized so U(0) = (u_minus + u_plus)/2; every translate is obtained by
    shifting the argument, never by re-solving.
    """

    states: AsymptoticStates
    params: ModelParams
    s: float
    lam: float
    kappa: float

    def __post_init__(self) -> None:
        st, p = self.states, self.params
        quad = self.s * self.s + p.chi * st.v_plus * self.s - p.chi * st.u_minus
        scale = max(self.s * self.s, p.chi * st.u_minus)
        if abs(quad) > _QUAD_REL_TOL * scale:
            raise ValueError(f"wave speed violates the quadratic relation (residual {quad})")
        if self.s <= 0 or self.lam <= 0:
            raise ValueError("wave speed and steepness must be positive")

    @classmethod
    def from_states(cls, states: AsymptoticStates, params: ModelParams) -> "TravelingWave":
        if not states.is_shock():
            raise ValueError("profile requires u_minus > u_plus > 0")
        s = wave_speed(states, params)
        res = rh_residual(states, s, params)
        # each residual is a sum of terms that are rounded to their own size,
        # so each is held to a tolerance that scales with its own largest term
        du = states.u_plus - states.u_minus
        tol1 = RH_TOL * max(1.0, abs(s * du), abs(params.chi * states.u_plus * states.v_plus),
                            abs(params.chi * states.u_minus * states.v_minus))
        tol2 = RH_TOL * max(1.0, abs(s * states.v_plus), abs(s * states.v_minus), abs(du))
        if abs(res.r1) > tol1 or abs(res.r2) > tol2:
            raise ValueError(
                f"far-field states are not jump-consistent: residuals "
                f"({res.r1:.3e}, {res.r2:.3e}) exceed ({tol1:.3g}, {tol2:.3g})"
            )
        lam = params.chi * (states.u_minus - states.u_plus) / (params.D * s)
        kappa = states.u_minus + s * states.v_minus
        return cls(states=states, params=params, s=s, lam=lam, kappa=kappa)

    @classmethod
    def from_end_values(
        cls, u_minus: float, u_plus: float, v_plus: float, params: ModelParams
    ) -> "TravelingWave":
        return cls.from_states(complete_states(u_minus, u_plus, v_plus, params), params)

    def u_profile(self, z):
        """U(z); accepts scalars or arrays of any float dtype."""
        st = self.states
        return st.u_plus + (st.u_minus - st.u_plus) * _logistic(-self.lam * z)

    def v_profile(self, z):
        """V(z) = (kappa - U(z)) / s, the first integral of the wave ODE."""
        return (self.kappa - self.u_profile(z)) / self.s

    @property
    def max_slope_u(self) -> float:
        """Steepest |U'|, attained at z = 0 (logistic midpoint)."""
        return self.lam * (self.states.u_minus - self.states.u_plus) / 4.0

    @property
    def max_slope_v(self) -> float:
        """Steepest |V'| = max|U'| / s: the probe level of a smooth front."""
        return self.max_slope_u / self.s

    def derivative_bound_u(self) -> float:
        return self.lam * (self.states.u_minus - self.states.u_plus)

    def derivative_bound_v(self) -> float:
        return self.derivative_bound_u() / self.s


def profile_bounds_check(
    wave: TravelingWave, z_samples, h: float = 1e-6
) -> bool:
    """Sample |U'|, |V'| by central differences and test them against the
    analytic derivative bounds lam*(u- - u+) and lam*(u- - u+)/s."""
    z = np.asarray(z_samples, dtype=float)
    du = np.abs(wave.u_profile(z + h) - wave.u_profile(z - h)) / (2.0 * h)
    dv = np.abs(wave.v_profile(z + h) - wave.v_profile(z - h)) / (2.0 * h)
    return bool(
        np.all(du <= wave.derivative_bound_u()) and np.all(dv <= wave.derivative_bound_v())
    )

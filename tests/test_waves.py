import decimal
import math

import numpy as np
import pytest

from chemoshock.core import AsymptoticStates, ModelParams
from chemoshock.waves import (
    TravelingWave,
    _logistic,
    _positive_speed,
    complete_states,
    profile_bounds_check,
    rh_residual,
    wave_speed,
)

P1 = ModelParams.from_chi(D=1.0, chi=1.0)


def standard_wave() -> TravelingWave:
    # chi = D = 1, far fields (2, 1, 0, 1): s = 1, lambda = 1, kappa = 2
    return TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)


# ---------------------------------------------------------------------------
# wave speed and jump conditions
# ---------------------------------------------------------------------------


def test_wave_speed_known_values():
    assert wave_speed(AsymptoticStates(2, 1, 0, 1), P1) == pytest.approx(1.0, rel=1e-15)
    assert wave_speed(AsymptoticStates(1, 1, 0, 0), P1) == pytest.approx(1.0, rel=1e-15)
    p2 = ModelParams.from_chi(D=1.0, chi=2.0)
    assert wave_speed(AsymptoticStates(2, 1, 0, 0), p2) == pytest.approx(2.0, rel=1e-15)


def test_wave_speed_requires_positive_left_density():
    with pytest.raises(ValueError):
        wave_speed(AsymptoticStates(0.0, 0.0, 0.0, 1.0), P1)


def test_wave_speed_satisfies_quadratic():
    rng = np.random.default_rng(42)
    for _ in range(200):
        chi = rng.uniform(0.2, 5.0)
        u_minus = rng.uniform(0.1, 6.0)
        v_plus = rng.uniform(-2.0, 2.0)
        p = ModelParams.from_chi(D=1.0, chi=chi)
        st = AsymptoticStates(u_minus, u_minus, 0.0, v_plus)
        s = wave_speed(st, p)
        resid = s * s + chi * v_plus * s - chi * u_minus
        assert abs(resid) < 1e-12 * max(s * s, chi * u_minus)
        assert s > 0


def test_wave_speed_root_does_not_cancel():
    # with a = chi*v_plus the root is (-a + r)/2, r = sqrt(a*a + 4*chi*u_minus);
    # for a > 0 it is taken as 2*chi*u_minus/(a + r), which does not cancel
    # for a >> sqrt(chi*u_minus); for a <= 0 the first form, bit for bit
    D = decimal.Decimal
    rng = np.random.default_rng(26)
    for _ in range(400):
        chi, u_minus = rng.uniform(0.2, 5.0), rng.uniform(0.1, 6.0)
        v_plus = 10.0 ** rng.uniform(-3.0, 12.0)
        s = _positive_speed(chi, u_minus, v_plus)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            a = D(chi) * D(v_plus)
            exact = (-a + (a * a + 4 * D(chi) * D(u_minus)).sqrt()) / 2
            assert abs(D(s) / exact - 1) <= 4 * np.finfo(float).eps, (chi, u_minus, v_plus)
        for v_nonpositive in (-v_plus, 0.0, -0.0):
            a = chi * v_nonpositive
            assert _positive_speed(chi, u_minus, v_nonpositive) == 0.5 * (
                -a + math.sqrt(a * a + 4.0 * chi * u_minus))


def test_rh_residual_zero_for_consistent_quadruple():
    res = rh_residual(AsymptoticStates(2, 1, 0, 1), 1.0, P1)
    assert res.r1 == pytest.approx(0.0, abs=1e-14)
    assert res.r2 == pytest.approx(0.0, abs=1e-14)


def test_rh_residual_zero_for_constant_state():
    res = rh_residual(AsymptoticStates(1.5, 1.5, 0.7, 0.7), 3.21, P1)
    assert res.r1 == 0.0
    assert res.r2 == 0.0


def test_rh_residual_detects_inconsistent_quadruple():
    # (2, 1, (3-sqrt3)/2, 1) with chi=1: speed formula gives s=1, but the
    # residuals are (3-sqrt3, (3-sqrt3)/2), nonzero
    st = AsymptoticStates(2.0, 1.0, (3.0 - math.sqrt(3.0)) / 2.0, 1.0)
    s = wave_speed(st, P1)
    assert s == pytest.approx(1.0, rel=1e-15)
    res = rh_residual(st, s, P1)
    assert res.r1 == pytest.approx(3.0 - math.sqrt(3.0), rel=1e-12)
    assert res.r2 == pytest.approx((3.0 - math.sqrt(3.0)) / 2.0, rel=1e-12)
    assert res.max_abs() > 0.5


def test_rh_residual_vanishes_when_right_state_is_matched():
    # same left data becomes consistent when v_plus = 2: s = sqrt(3) - 1 and
    # v_minus = (3 - sqrt3)/2 exactly
    st = complete_states(2.0, 1.0, 2.0, P1)
    assert wave_speed(st, P1) == pytest.approx(math.sqrt(3.0) - 1.0, rel=1e-14)
    assert st.v_minus == pytest.approx((3.0 - math.sqrt(3.0)) / 2.0, rel=1e-14)


def test_complete_states_examples():
    st = complete_states(2.0, 1.0, 1.0, P1)
    assert st.v_minus == pytest.approx(0.0, abs=1e-15)
    res = rh_residual(st, wave_speed(st, P1), P1)
    assert res.max_abs() < 1e-10

    st2 = complete_states(2.0, 1.0, 0.0, P1)
    assert wave_speed(st2, P1) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert st2.v_minus == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-14)


def test_complete_states_rejects_degenerate_input():
    with pytest.raises(ValueError):
        complete_states(1.0, 1.0, 0.5, P1)
    with pytest.raises(ValueError):
        complete_states(1.0, 2.0, 0.5, P1)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


def test_profile_midpoint_and_limits():
    w = standard_wave()
    assert w.u_profile(0.0) == pytest.approx(1.5, rel=1e-15)
    assert w.v_profile(0.0) == pytest.approx(0.5, rel=1e-15)
    assert w.u_profile(-40.0) == pytest.approx(2.0, abs=1e-12)
    assert w.u_profile(40.0) == pytest.approx(1.0, abs=1e-12)
    assert w.v_profile(-40.0) == pytest.approx(0.0, abs=1e-12)
    assert w.v_profile(40.0) == pytest.approx(1.0, abs=1e-12)


def test_profile_handles_extreme_arguments():
    w = standard_wave()
    vals = w.u_profile(np.array([-1e6, 1e6]))
    assert vals[0] == pytest.approx(2.0)
    assert vals[1] == pytest.approx(1.0)
    assert np.all(np.isfinite(vals))


def test_profile_matches_independent_rk4_integration():
    # oracle: RK4 on D*U' = (chi/s)(U - u_minus)(U - u_plus) from U(0) = 1.5
    w = standard_wave()
    chi, d, s = w.params.chi, w.params.D, w.s
    um, up = w.states.u_minus, w.states.u_plus

    def rhs(u):
        return (chi / (d * s)) * (u - um) * (u - up)

    def rk4(z_end, steps):
        h = z_end / steps
        u = 0.5 * (um + up)
        for _ in range(steps):
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * h * k1)
            k3 = rhs(u + 0.5 * h * k2)
            k4 = rhs(u + h * k3)
            u += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return u

    for z in (-5.0, -1.0, 0.0, 1.0, 5.0):
        steps = max(1, int(abs(z) / 1e-3))
        assert rk4(z, steps) == pytest.approx(w.u_profile(z), abs=1e-8)


def test_profile_ode_residual_by_finite_differences():
    # both wave ODEs, centered differences with h = 1e-5 in extended precision
    w = standard_wave()
    z = np.array([-5.0, -1.0, 0.0, 1.0, 5.0], dtype=np.longdouble)
    h = np.longdouble(1e-5)
    up = (w.u_profile(z + h) - w.u_profile(z - h)) / (2 * h)
    upp = (w.u_profile(z + h) - 2 * w.u_profile(z) + w.u_profile(z - h)) / (h * h)
    uv = lambda zz: w.u_profile(zz) * w.v_profile(zz)
    uvp = (uv(z + h) - uv(z - h)) / (2 * h)
    vp = (w.v_profile(z + h) - w.v_profile(z - h)) / (2 * h)
    r1 = w.params.D * upp + w.s * up + w.params.chi * uvp
    r2 = w.s * vp + up
    assert float(np.abs(r1).max()) < 1e-6
    assert float(np.abs(r2).max()) < 1e-6


def test_first_integral_holds_to_machine_precision():
    w = standard_wave()
    z = np.linspace(-30.0, 30.0, 999)
    combo = w.u_profile(z) + w.s * w.v_profile(z) - w.kappa
    assert np.abs(combo).max() < 1e-13


def test_monotonicity():
    w = standard_wave()
    z = np.linspace(-25.0, 25.0, 2001)
    u = w.u_profile(z)
    v = w.v_profile(z)
    assert np.all(np.diff(u) < 0)
    assert np.all(np.diff(v) > 0)


def test_translation_is_pure_argument_shift():
    w = standard_wave()
    z = np.linspace(-8.0, 8.0, 161)
    a = 2.75
    assert np.array_equal(w.u_profile(z - a), w.u_profile(np.asarray(z) - a))
    # shifting the evaluation point by a moves the half-height point to a
    assert w.u_profile(a - a) == pytest.approx(1.5, rel=1e-15)


def test_from_states_rejects_inconsistent_states():
    st = AsymptoticStates(2.0, 1.0, (3.0 - math.sqrt(3.0)) / 2.0, 1.0)
    with pytest.raises(ValueError, match="not jump-consistent"):
        TravelingWave.from_states(st, P1)
    # at v_plus = 1e8 the r1 terms are ~1e8 and the r2 terms ~1, so each
    # residual has its own tolerance: 1e-2 for r1 and 2e-10 for r2 here
    far = complete_states(2.0, 1.0, 1e8, P1)
    TravelingWave.from_states(far, P1)
    off = AsymptoticStates(far.u_minus, far.u_plus, far.v_minus * (1.0 + 1e-9), far.v_plus)
    assert rh_residual(off, wave_speed(off, P1), P1).r2 == pytest.approx(1e-9, rel=1e-3)
    with pytest.raises(ValueError, match=r"exceed \(0\.01, 2e-10\)"):
        TravelingWave.from_states(off, P1)


def test_bounds_check_passes_for_exact_wave():
    w = standard_wave()
    z = np.linspace(-10.0, 10.0, 401)
    assert profile_bounds_check(w, z)
    # logistic max slope: lambda*(u- - u+)/4, strictly inside the bound
    h = 1e-6
    du = np.abs(w.u_profile(z + h) - w.u_profile(z - h)) / (2 * h)
    assert du.max() == pytest.approx(w.max_slope_u, abs=1e-6)
    assert w.max_slope_u == pytest.approx(0.25, rel=1e-14)


def test_bounds_check_flags_fault_injected_profile():
    # a logistic of steepness k has max slope k*(u- - u+)/4, so the evaluator
    # must be steepened by more than 4x before it can break the |U'| bound;
    # 5x trips it while the advertised bound stays at the original lambda
    w = standard_wave()

    class Steepened(TravelingWave):
        def u_profile(self, z):
            st = self.states
            return st.u_plus + (st.u_minus - st.u_plus) / (
                1.0 + np.exp(5.0 * self.lam * np.asarray(z, dtype=float))
            )

    bad = Steepened(states=w.states, params=w.params, s=w.s, lam=w.lam, kappa=w.kappa)
    assert profile_bounds_check(w, np.linspace(-2.0, 2.0, 101))
    assert not profile_bounds_check(bad, np.linspace(-2.0, 2.0, 101))


def test_derivative_bounds_scale_with_parameters():
    p = ModelParams.from_chi(D=0.5, chi=2.0)
    w = TravelingWave.from_end_values(3.0, 0.5, 0.25, p)
    assert w.lam == pytest.approx(p.chi * 2.5 / (p.D * w.s), rel=1e-14)
    assert w.derivative_bound_v() == pytest.approx(w.derivative_bound_u() / w.s, rel=1e-15)
    assert profile_bounds_check(w, np.linspace(-6.0, 6.0, 301))


def _two_branch_logistic(t):
    # the masked form: 1/(1 + exp(-t)) where t >= 0, exp(t)/(1 + exp(t)) below
    arr = np.atleast_1d(np.asarray(t, dtype=np.result_type(t, float)))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    e = np.exp(arr[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_logistic_matches_the_two_branch_formula(dtype):
    rng = np.random.default_rng(7)
    t = np.concatenate([
        [0.0, -0.0, 751.0, -751.0, 1e4, -1e4, 745.5, -745.5],
        rng.standard_normal(2000) * 40.0,
        rng.uniform(-1e3, 1e3, 2000),
    ]).astype(dtype)
    got, want = _logistic(t), _two_branch_logistic(t)
    assert got.dtype == want.dtype == dtype and got.shape == t.shape
    # equal values: a longdouble's padding bytes are not defined, so no tobytes()
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    if dtype is np.float64:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("t, kind", [
    (0.0, np.float64), (-0.0, np.float64), (2.5, np.float64), (-800.0, np.float64),
    (np.float64(-3.0), np.float64), (np.longdouble("-2.5"), np.longdouble),
    (np.longdouble("12000"), np.longdouble),
])
def test_logistic_keeps_scalars_and_their_dtype(t, kind):
    got = _logistic(t)
    assert type(got) is kind and np.ndim(got) == 0
    assert got == _two_branch_logistic(t)[0]

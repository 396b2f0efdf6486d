import dataclasses
import math

import numpy as np
import pytest

from chemoshock.core import (
    Field,
    GridSpec,
    ModelParams,
    SimState,
    integral,
    lp_norm,
)
from chemoshock.diagnostics import (
    ConstantReference,
    DiagnosticsRecord,
    WaveReference,
    ab_functionals,
    antiderivatives,
    assemble_record,
    decay_series,
    effective_flux,
    entropy,
    flux_identity_residual,
    front_position,
    read_series,
    regularity_probe,
    shift_x0,
    smooth_probe_reference,
    write_series,
)
from chemoshock.solver import SchemeConfig, step
from chemoshock.waves import TravelingWave

P1 = ModelParams.from_chi(1.0, 1.0)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_vanishes_at_ground_state():
    g = GridSpec(0.0, 400.0, 1001)
    assert entropy(Field.constant(g, 1.0)) == 0.0


def test_entropy_of_plateau():
    # u = e on a width-1 plateau, 1 elsewhere: integrand is 1 on the plateau
    g = GridSpec(0.0, 10.0, 2001)
    x = g.nodes()
    u = np.where((x >= 4.0) & (x <= 5.0), math.e, 1.0)
    val = entropy(Field(g, u))
    assert val == pytest.approx(1.0, abs=2 * g.dx)


def test_entropy_quadratic_approximation_for_small_bumps():
    g = GridSpec(0.0, 40.0, 4001)
    x = g.nodes()
    bump = 0.1 * np.exp(-((x - 20.0) / 3.0) ** 2)
    u = Field(g, 1.0 + bump)
    quad = 0.5 * integral(Field(g, bump**2))
    assert abs(entropy(u) - quad) <= 0.1 * quad


def test_entropy_rejects_nonpositive_density():
    g = GridSpec(0.0, 1.0, 11)
    vals = np.ones(11)
    vals[4] = 0.0
    with pytest.raises(ValueError, match="node 4"):
        entropy(Field(g, vals))


def test_entropy_nonnegative_on_random_positive_fields():
    g = GridSpec(0.0, 20.0, 301)
    rng = np.random.default_rng(9)
    for _ in range(25):
        u = Field(g, np.exp(rng.standard_normal(g.n_nodes) * 0.5))
        assert entropy(u) >= 0.0


# ---------------------------------------------------------------------------
# A/B functionals
# ---------------------------------------------------------------------------


def test_ab_functionals_vanish_at_ground_state():
    g = GridSpec(0.0, 400.0, 1001)
    a, b = ab_functionals(Field.constant(g, 1.0), Field.constant(g, 0.0))
    assert a == 0.0
    assert b == 0.0


def test_ab_functionals_unit_plateau():
    # w = 1 on unit support makes 2w - w^2 = 1 and w^4 = 1:
    # A = 1 + 1/8 + 1/8 = 1.25 up to edge quadrature
    g = GridSpec(0.0, 10.0, 4001)
    x = g.nodes()
    u = Field(g, np.where((x >= 4.0) & (x <= 5.0), 2.0, 1.0))
    a, _ = ab_functionals(u, Field.constant(g, 0.0))
    assert a == pytest.approx(1.25, abs=3 * g.dx)


def test_a_functional_matches_long_double_evaluation():
    # A takes w**4 as (w*w)**2; on a w of both signs, with a far field of
    # roundoff like a run's, it stays within 1e-14 of the same sums in long double
    g = GridSpec(0.0, 40.0, 4001)
    x = g.nodes()
    rng = np.random.default_rng(26)
    w = np.where(np.abs(x - 20.0) < 5.0, np.sin(x), 0.0)
    u = 1.0 + w + 2e-16 * rng.standard_normal(g.n_nodes)  # far-field roundoff
    v = 0.3 * np.cos(x)
    a, _ = ab_functionals(Field(g, u), Field(g, v))

    def trap(f):
        return g.dx * (f.sum() - (f[0] + f[-1]) / 2)

    wl, vl = u.astype(np.longdouble) - 1, v.astype(np.longdouble)
    want = (trap(wl**2) + trap((2 * wl - wl**2) ** 2) / 8 + trap(wl**4) / 8
            + 1.5 * trap(vl**2))
    assert np.min(u - 1.0) < 0.0 < np.max(u - 1.0)
    assert abs(a - want) <= 1e-14 * want


def test_ab_v_contribution_is_three_halves_l2_squared():
    g = GridSpec(0.0, 10.0, 501)
    v = Field.from_function(g, lambda x: 0.3 * np.sin(x))
    a0, b0 = ab_functionals(Field.constant(g, 1.0))
    a1, b1 = ab_functionals(Field.constant(g, 1.0), v)
    assert a1 - a0 == pytest.approx(1.5 * lp_norm(v, 2) ** 2, rel=1e-12)
    assert b1 == b0


@pytest.mark.parametrize("slope_sign", [1.0, -1.0])
def test_b_functional_against_symbolic_integration(slope_sign):
    # single linear ramp across the whole interval; the discrete derivative is
    # exact there, so only quadrature error remains
    sympy = pytest.importorskip("sympy")
    L, m = 40.0, slope_sign * 0.8
    g = GridSpec(0.0, L, 4001)
    u = Field.from_function(g, lambda xv: 1.0 + m * xv / L)

    x = sympy.symbols("x")
    w = m * x / L
    wx = sympy.diff(w, x)
    integrand = (
        sympy.Rational(1, 2) * wx**2
        + sympy.Rational(1, 2) * (wx - sympy.Abs(w) * wx) ** 2
        + sympy.Rational(1, 2) * (w * sympy.Abs(wx)) ** 2
    )
    expected = float(sympy.integrate(integrand, (x, 0, L)))
    _, b = ab_functionals(u)
    assert b == pytest.approx(expected, abs=1e-6)


# ---------------------------------------------------------------------------
# effective viscous flux
# ---------------------------------------------------------------------------


def test_flux_zero_at_steady_state():
    g = GridSpec(0.0, 100.0, 501)
    s0 = SimState(Field.constant(g, 1.0), Field.constant(g, 0.0), 0.0)
    s1 = SimState(Field.constant(g, 1.0), Field.constant(g, 0.0), 1.0)
    assert np.abs(effective_flux(s0, P1).values).max() == 0.0
    assert flux_identity_residual(s0, s1, P1) == 0.0


def test_flux_residual_requires_time_ordering():
    g = GridSpec(0.0, 100.0, 501)
    s0 = SimState(Field.constant(g, 1.0), Field.constant(g, 0.0), 1.0)
    s1 = SimState(Field.constant(g, 1.0), Field.constant(g, 0.0), 1.0)
    with pytest.raises(ValueError):
        flux_identity_residual(s0, s1, P1)


def test_flux_residual_matches_symbolic_oracle():
    # manufactured smooth states; the oracle rebuilds F symbolically and
    # applies an independently coded stencil
    sympy = pytest.importorskip("sympy")
    n = 200001
    g = GridSpec(0.0, 2.0 * math.pi, n)
    xg = g.nodes()
    dt = 1e-4

    xs = sympy.symbols("x")
    u_expr = 1 + sympy.Rational(3, 10) * sympy.sin(xs)
    v_expr = sympy.Rational(1, 5) * sympy.cos(xs)
    a_expr = sympy.Rational(1, 10) * sympy.cos(xs)  # du/dt
    b_expr = sympy.Rational(1, 20) * sympy.sin(xs)  # dv/dt

    fns = {
        name: sympy.lambdify(xs, expr, "numpy")
        for name, expr in
        (("u", u_expr), ("v", v_expr), ("a", a_expr), ("b", b_expr))
    }
    u_mid, v_mid = fns["u"](xg), fns["v"](xg)
    a, b = fns["a"](xg), fns["b"](xg)

    prev = SimState(Field(g, u_mid - 0.5 * dt * a), Field(g, v_mid - 0.5 * dt * b), 0.0)
    nxt = SimState(Field(g, u_mid + 0.5 * dt * a), Field(g, v_mid + 0.5 * dt * b), dt)

    # oracle path: symbolic F for each state, independent finite differences
    def f_sym(sign):
        uu = u_expr + sign * dt / 2 * a_expr
        vv = v_expr + sign * dt / 2 * b_expr
        return sympy.diff(uu - 1, xs) + (uu - 1 + 1) * vv

    f_mid = 0.5 * (
        sympy.lambdify(xs, f_sym(-1), "numpy")(xg)
        + sympy.lambdify(xs, f_sym(+1), "numpy")(xg)
    )
    dx = g.dx
    dfdx = np.empty_like(f_mid)
    dfdx[1:-1] = (f_mid[2:] - f_mid[:-2]) / (2 * dx)
    dfdx[0] = (-3 * f_mid[0] + 4 * f_mid[1] - f_mid[2]) / (2 * dx)
    dfdx[-1] = (3 * f_mid[-1] - 4 * f_mid[-2] + f_mid[-3]) / (2 * dx)
    resid = dfdx - a
    expected = math.sqrt(
        dx * ((resid**2).sum() - 0.5 * (resid[0] ** 2 + resid[-1] ** 2))
    )

    actual = flux_identity_residual(prev, nxt, P1)
    assert actual == pytest.approx(expected, abs=1e-8)


def test_flux_residual_shrinks_under_refinement():
    def residual(n):
        g = GridSpec(0.0, 400.0, n)
        x = g.nodes()
        u0 = 1.0 + 0.3 * np.exp(-(((x - 200.0) / 15.0) ** 2))
        v0 = 0.2 * np.exp(-(((x - 180.0) / 20.0) ** 2))
        cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0)
        s0 = SimState(Field(g, u0), Field(g, v0), 0.0)
        return flux_identity_residual(s0, step(s0, P1, cfg), P1)

    r1, r2 = residual(1001), residual(2001)
    assert r1 / r2 >= 1.8


def test_wave_relative_flux_vanishes_on_exact_wave():
    g = GridSpec(0.0, 200.0, 2001)
    w = TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)
    ref = WaveReference(w, x0=-80.0)
    x = g.nodes()

    def exact(t):
        z = x - 80.0 - w.s * t
        return SimState(Field(g, np.asarray(w.u_profile(z))),
                        Field(g, np.asarray(w.v_profile(z))), t)

    f = effective_flux(exact(3.0), P1, ref)
    assert np.abs(f.values).max() < 1e-4  # stencil error only
    resid = flux_identity_residual(exact(3.0), exact(3.001), P1, ref)
    assert resid < 1e-3


def test_wave_reference_profile_arrays_evaluates_u_profile_once(monkeypatch):
    g = GridSpec(0.0, 200.0, 2001)
    w = TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)
    ref = WaveReference(w, x0=-80.0)
    z = g.nodes() - 80.0 - w.s * 3.0
    expected_u, expected_v = w.u_profile(z), w.v_profile(z)

    calls = []
    u_profile = TravelingWave.u_profile

    def counting(self, zz):
        calls.append(zz)
        return u_profile(self, zz)

    monkeypatch.setattr(TravelingWave, "u_profile", counting)
    ru, rv = ref.profile_arrays(g, 3.0)
    assert len(calls) == 1
    assert np.array_equal(ru, expected_u)
    assert np.array_equal(rv, expected_v)


def test_assemble_record_evaluates_reference_once_per_time_level():
    g = GridSpec(0.0, 200.0, 2001)
    w = TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)
    ref = WaveReference(w, x0=-80.0)
    x = g.nodes()
    bump = 0.05 * np.exp(-(((x - 100.0) / 5.0) ** 2))

    def perturbed(t):
        z = x - 80.0 - w.s * t
        return SimState(Field(g, np.asarray(w.u_profile(z)) + bump),
                        Field(g, np.asarray(w.v_profile(z))), t)

    class CountingReference:
        calls = 0
        front_level = 1.5

        def profile_arrays(self, grid, t):
            self.calls += 1
            return ref.profile_arrays(grid, t)

    counting = CountingReference()
    prev, nxt = perturbed(3.0), perturbed(3.5)
    rec = assemble_record(nxt, prev, P1, counting, 100.0, 5.0)
    assert counting.calls == 2
    assert rec.flux_res > 0.0
    assert rec.flux_res == flux_identity_residual(prev, nxt, P1, ref)


# ---------------------------------------------------------------------------
# shift and anti-derivatives
# ---------------------------------------------------------------------------


def wave_and_grid():
    w = TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)
    g = GridSpec(-200.0, 200.0, 4001)
    return w, g


def test_shift_recovers_exact_translation():
    w, g = wave_and_grid()
    x = g.nodes()
    for a in (0.0, 7.3, -12.6):
        u0 = Field(g, np.asarray(w.u_profile(x + a)))
        v0 = Field(g, np.asarray(w.v_profile(x + a)))
        res = shift_x0(u0, v0, w)
        assert res.x0 == pytest.approx(a, abs=1e-8)
        assert abs(res.beta_residual) < 1e-8


def test_shift_of_unshifted_profile_is_zero():
    w, g = wave_and_grid()
    x = g.nodes()
    res = shift_x0(Field(g, np.asarray(w.u_profile(x))),
                   Field(g, np.asarray(w.v_profile(x))), w)
    assert res.x0 == pytest.approx(0.0, abs=1e-10)
    assert res.beta_residual == pytest.approx(0.0, abs=1e-10)


def test_shift_responds_linearly_to_added_mass():
    w, g = wave_and_grid()
    x = g.nodes()
    bump = 0.4 * np.exp(-(((x - 30.0) / 5.0) ** 2))
    mass = integral(Field(g, bump))
    u0 = Field(g, np.asarray(w.u_profile(x)) + bump)
    v0 = Field(g, np.asarray(w.v_profile(x)))
    res = shift_x0(u0, v0, w)
    ujump = w.states.u_plus - w.states.u_minus
    assert res.x0 == pytest.approx(mass / ujump, rel=1e-10)


def test_shift_translation_equivariance():
    w, g = wave_and_grid()
    x = g.nodes()
    a = 3.0

    def x0_of(shift):
        u0 = Field(g, np.asarray(w.u_profile(x + shift)))
        v0 = Field(g, np.asarray(w.v_profile(x + shift)))
        return shift_x0(u0, v0, w).x0

    assert x0_of(a + g.dx) - x0_of(a) == pytest.approx(g.dx, abs=1e-10)


def test_shift_requires_distinct_densities():
    w, g = wave_and_grid()
    from chemoshock.core import AsymptoticStates

    degenerate = TravelingWave(
        states=AsymptoticStates(1.0, 1.0, 0.0, 0.0),
        params=P1, s=1.0, lam=1.0, kappa=1.0,
    )
    f = Field.constant(g, 1.0)
    with pytest.raises(ValueError):
        shift_x0(f, f, degenerate)


def test_shift_with_base_offset_matches_raw_formula_on_centered_grid():
    w, g = wave_and_grid()
    x = g.nodes()
    u0 = Field(g, np.asarray(w.u_profile(x - 5.0)))
    v0 = Field(g, np.asarray(w.v_profile(x - 5.0)))
    raw = shift_x0(u0, v0, w)
    based = shift_x0(u0, v0, w, base_shift=-5.0)
    assert raw.x0 == pytest.approx(based.x0, abs=1e-9)
    assert based.x0 == pytest.approx(-5.0, abs=1e-10)


def test_antiderivatives_of_zero_perturbation():
    w, g = wave_and_grid()
    x = g.nodes()
    x0, t = -20.0, 4.5
    z = x + x0 - w.s * t
    u = Field(g, np.asarray(w.u_profile(z)))
    v = Field(g, np.asarray(w.v_profile(z)))
    pair = antiderivatives(u, v, w, x0, t)
    assert np.abs(pair.phi.values).max() < 1e-14
    assert np.abs(pair.psi.values).max() < 1e-14
    assert pair.zero_mass_residual == (0.0, 0.0)


def test_antiderivative_recovers_primitive_of_derivative():
    w, g = wave_and_grid()
    x = g.nodes()
    bump = 0.5 * np.exp(-(((x - 10.0) / 8.0) ** 2))
    dbump = -2.0 * (x - 10.0) / 64.0 * bump
    u = Field(g, np.asarray(w.u_profile(x)) + dbump)
    v = Field(g, np.asarray(w.v_profile(x)))
    pair = antiderivatives(u, v, w, 0.0, 0.0)
    assert np.abs(pair.phi.values - bump).max() < 1e-4
    assert abs(pair.zero_mass_residual[0]) < 1e-10
    assert abs(pair.zero_mass_residual[1]) < 1e-10


# ---------------------------------------------------------------------------
# regularity probe and front position
# ---------------------------------------------------------------------------


def test_probe_linear_field():
    g = GridSpec(0.0, 100.0, 1001)
    v = Field.from_function(g, lambda x: 3.0 * x)
    probe = regularity_probe(v, 50.0, 5.0)
    assert probe.max_dq == pytest.approx(3.0, abs=1e-12)
    # every quotient ties the max, so the whole window is above half-max
    assert probe.width_50 == pytest.approx(100 * g.dx, abs=1e-12)


def test_probe_single_node_jump():
    g = GridSpec(0.0, 100.0, 1001)
    x = g.nodes()
    v = Field(g, (x >= 50.0).astype(float))
    probe = regularity_probe(v, 50.0, 5.0)
    assert probe.max_dq == 1.0 / g.dx
    assert probe.width_50 == pytest.approx(g.dx)


def test_probe_window_validation():
    g = GridSpec(0.0, 100.0, 1001)
    v = Field.constant(g, 0.0)
    with pytest.raises(ValueError):
        regularity_probe(v, 99.0, 5.0)
    assert regularity_probe(v, 50.0, 5.0).max_dq == 0.0


def test_smooth_probe_reference_is_max_wave_slope():
    w = TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)
    assert smooth_probe_reference(w) == pytest.approx(0.25, rel=1e-14)


def test_front_position_interpolates_crossing():
    g = GridSpec(0.0, 100.0, 1001)
    w = TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)
    u = Field(g, np.asarray(w.u_profile(g.nodes() - 43.21)))
    assert front_position(u, 1.5) == pytest.approx(43.21, abs=g.dx)


def test_front_position_fallbacks():
    g = GridSpec(0.0, 100.0, 101)
    assert front_position(Field.constant(g, 1.0), 1.0) == 0.0
    x = g.nodes()
    hump = Field(g, 1.0 + np.exp(-(((x - 30.0) / 5.0) ** 2)))
    # level never attained: falls back to the largest deviation (the peak)
    assert front_position(hump, 0.0) == pytest.approx(30.0, abs=g.dx)


# ---------------------------------------------------------------------------
# records, decay report, CSV
# ---------------------------------------------------------------------------


def synthetic_record(t, value):
    return DiagnosticsRecord(
        t=t,
        sigma=min(1.0, t),
        sup_u_err=value,
        l2_v=value,
        l4_v=value,
        l6_v=value,
        entropy=0.0,
        a_func=0.0,
        b_func=0.0,
        flux_res=0.0,
        mass_u=0.0,
        mass_v=0.0,
        max_dq_v=0.0,
        dq_width=0.0,
        front_pos=0.0,
    )


def test_decay_series_requires_three_increasing_records():
    with pytest.raises(ValueError):
        decay_series([synthetic_record(0.0, 1.0), synthetic_record(1.0, 1.0)])
    with pytest.raises(ValueError):
        decay_series([synthetic_record(t, 1.0) for t in (0.0, 1.0, 1.0)])


def test_decay_series_constant_records():
    recs = [synthetic_record(float(t), 2.0) for t in range(6)]
    report = decay_series(recs)
    for name in ("sup_u_err", "l2_v", "l4_v", "l6_v"):
        assert report[name].tail_slope == pytest.approx(0.0, abs=1e-12)
        assert not report[name].decayed


def test_decay_series_exponential():
    recs = [synthetic_record(float(t), math.exp(-t)) for t in range(11)]
    report = decay_series(recs)
    q = report["sup_u_err"]
    assert q.tail_slope == pytest.approx(-1.0, abs=1e-6)
    assert q.decayed
    assert q.initial == 1.0
    assert q.final == pytest.approx(math.exp(-10.0))


def test_record_sigma_is_time_clamp_and_rejects_nonfinite():
    g = GridSpec(0.0, 100.0, 1001)
    state = SimState(Field.constant(g, 1.0), Field.constant(g, 0.0), 0.25)
    rec = assemble_record(
        state, None, P1, ConstantReference(1.0, 0.0), 50.0, 5.0
    )
    assert rec.sigma == 0.25
    late = assemble_record(
        SimState(Field.constant(g, 1.0), Field.constant(g, 0.0), 7.0),
        None, P1, ConstantReference(1.0, 0.0), 50.0, 5.0,
    )
    assert late.sigma == 1.0
    with pytest.raises(ValueError):
        synthetic_record(0.0, math.inf)


def _record_from_public_functions(state, prev, ref, center, halfwidth):
    """Each DiagnosticsRecord entry, computed by the public functions."""
    g = state.u.grid
    ru, rv = ref.profile_arrays(g, state.t)
    u_err, v_err = Field(g, state.u.values - ru), Field(g, state.v.values - rv)
    if ref.front_level is None:
        front = float(g.nodes()[int(np.argmax(np.abs(u_err.values)))])
    else:
        front = front_position(state.u, ref.front_level)
    a_val, b_val = ab_functionals(state.u, state.v)
    probe = regularity_probe(state.v, center, halfwidth)
    return dict(
        t=state.t,
        sigma=min(1.0, state.t),
        sup_u_err=lp_norm(u_err, math.inf),
        l2_v=lp_norm(v_err, 2),
        l4_v=lp_norm(v_err, 4),
        l6_v=lp_norm(v_err, 6),
        entropy=entropy(state.u),
        a_func=a_val,
        b_func=b_val,
        flux_res=0.0 if prev is None else flux_identity_residual(prev, state, P1, ref),
        mass_u=integral(state.u),
        mass_v=integral(state.v),
        max_dq_v=probe.max_dq,
        dq_width=probe.width_50,
        front_pos=front,
    )


@pytest.mark.parametrize("wave", [True, False])
def test_record_equals_the_public_functions_bit_for_bit(wave):
    g = GridSpec(0.0, 200.0, 2001)
    x = g.nodes()
    noise = 0.01 * np.random.default_rng(5).standard_normal(g.n_nodes)
    # a bump of both signs, so w = u - 1 is too, on noise that makes every node count
    bump = 0.05 * np.exp(-(((x - 100.0) / 5.0) ** 2)) * np.sin(x) + noise
    if wave:
        w = TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)
        ref = WaveReference(w, x0=-80.0)

        def at(t):
            z = x - 80.0 - w.s * t
            return SimState(Field(g, np.asarray(w.u_profile(z)) + bump),
                            Field(g, np.asarray(w.v_profile(z)) - bump), t)

        prev, state = at(3.0), at(3.5)
    else:
        ref = ConstantReference(1.0, 0.0)
        prev, state = None, SimState(Field(g, 1.0 + bump), Field(g, 0.3 * bump), 0.75)
    rec = assemble_record(state, prev, P1, ref, 100.0, 5.0)
    expected = _record_from_public_functions(state, prev, ref, 100.0, 5.0)
    assert list(expected) == [f.name for f in dataclasses.fields(DiagnosticsRecord)]
    got = {name: float(getattr(rec, name)).hex() for name in expected}
    assert got == {name: float(val).hex() for name, val in expected.items()}
    assert (rec.flux_res > 0.0) == wave


def test_series_csv_roundtrip(tmp_path):
    recs = [synthetic_record(float(t), 1.0 / (1 + t)) for t in range(4)]
    path = tmp_path / "series.csv"
    write_series(recs, path)
    header = path.read_text().splitlines()[0]
    assert header == (
        "t,sigma,sup_u_err,l2_v,l4_v,l6_v,entropy,a_func,b_func,flux_res,"
        "mass_u,mass_v,max_dq_v,dq_width,front_pos"
    )
    data = read_series(path)
    assert np.array_equal(data["t"], [0.0, 1.0, 2.0, 3.0])
    assert data["sup_u_err"][2] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_paired_entropy_functional_dissipates_while_bare_entropy_may_not():
    # the dissipated quantity couples u and v: entropy + (chi/2)||v||^2
    # decreases every step, while the u-only entropy can transiently rise
    p = ModelParams.from_chi(6.0, 1.0)
    g = GridSpec(0.0, 400.0, 1001)
    u0 = np.full(g.n_nodes, 1.0)
    v0 = np.zeros(g.n_nodes)
    j1, j2 = 350, 400
    v0[j1 + 1 : j2] = 1.0
    v0[j1] = v0[j2] = 0.5
    state = SimState(Field(g, u0), Field(g, v0), 0.0)
    cfg = SchemeConfig(t_end=20.0, snapshot_interval=20.0, diffusion_theta=1.0)
    ent = entropy(state.u)
    paired = ent + 0.5 * p.chi * lp_norm(state.v, 2) ** 2
    bare_rose = False
    while state.t < 20.0 - 1e-9:
        state = step(state, p, cfg, dt_cap=20.0 - state.t)
        ent2 = entropy(state.u)
        paired2 = ent2 + 0.5 * p.chi * lp_norm(state.v, 2) ** 2
        if ent2 > ent + 1e-8 * (1 + ent):
            bare_rose = True
        assert paired2 <= paired + 1e-8 * (1 + paired)
        ent, paired = ent2, paired2
    assert bare_rose  # documents why the u-only monotonicity cannot be asserted


def test_entropy_monotone_without_initial_v():
    # with v0 = 0 the coupling pump is second order and dissipation wins
    g = GridSpec(0.0, 400.0, 1001)
    u0 = np.full(g.n_nodes, 1.0)
    u0[301:400] = 2.0
    u0[300] = u0[400] = 1.5
    state = SimState(Field(g, u0), Field(g, np.zeros(g.n_nodes)), 0.0)
    cfg = SchemeConfig(t_end=25.0, snapshot_interval=25.0, diffusion_theta=1.0)
    ent = entropy(state.u)
    while state.t < 25.0 - 1e-9:
        state = step(state, P1, cfg, dt_cap=25.0 - state.t)
        ent2 = entropy(state.u)
        assert ent2 <= ent + 1e-8 * (1 + ent)
        ent = ent2

"""Acceptance suite: one test per ship-gate criterion, each printing a
PASS/FAIL line with the measured numbers at the stated tolerances.

Criterion 4 contains a sub-clause (per-step monotonicity of the u-only
entropy) that is not attainable for data with a nonzero initial v jump: the
entropy production identity carries the indefinite coupling term
-chi * integral(v * u_x), which pumps the u-only entropy while the coupled
functional entropy + (chi/2)*||v||^2 is the quantity that dissipates (see
tests/test_diagnostics.py::test_paired_entropy_functional_dissipates...).
The clause is asserted as stated and is expected to fail; the analysis lives
in the project notes.
"""

import math
import time

import numpy as np

from chemoshock.core import (
    Field,
    GridSpec,
    ModelParams,
    SimState,
    integral,
    lp_norm,
)
from chemoshock.cole_hopf import from_v, to_v
from chemoshock.diagnostics import (
    ab_functionals,
    entropy,
    flux_identity_residual,
)
from chemoshock.mollifier import MollifierSpec, mollify
from chemoshock.scenarios import build_initial, parse_scenario, read_config, sweep
from chemoshock.solver import SchemeConfig, run, step
from chemoshock.waves import (
    TravelingWave,
    complete_states,
    profile_bounds_check,
    rh_residual,
    wave_speed,
)

P1 = ModelParams.from_chi(1.0, 1.0)


def _report(num: int, name: str, checks):
    ok = all(good for _, good, _ in checks)
    print(f"\nacceptance {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}")
    for label, good, detail in checks:
        print(f"    [{'ok  ' if good else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num} ({name}): " + "; ".join(
        label for label, good, _ in checks if not good
    )


# ---------------------------------------------------------------------------


def test_criterion_01_wave_algebra_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst_rh = 0.0
    worst_quad = 0.0
    for _ in range(100):
        chi = rng.uniform(0.2, 5.0)
        u_plus = rng.uniform(0.1, 3.0)
        u_minus = u_plus + rng.uniform(0.1, 5.0)
        v_plus = rng.uniform(-2.0, 2.0)
        params = ModelParams.from_chi(D=rng.uniform(0.2, 3.0), chi=chi)
        states = complete_states(u_minus, u_plus, v_plus, params)
        s = wave_speed(states, params)
        worst_rh = max(worst_rh, rh_residual(states, s, params).max_abs())
        quad = abs(s * s + chi * v_plus * s - chi * u_minus)
        worst_quad = max(worst_quad, quad / max(s * s, chi * u_minus))
    wall = time.perf_counter() - t0
    _report(1, "wave algebra exactness", [
        ("jump residual < 1e-10 over 100 random quadruples", worst_rh < 1e-10,
         f"worst {worst_rh:.3e}"),
        ("speed quadratic < 1e-12 relative", worst_quad < 1e-12,
         f"worst {worst_quad:.3e}"),
        ("runtime < 1 s", wall < 1.0, f"{wall:.3f} s"),
    ])


def test_criterion_02_profile_ode_residual():
    t0 = time.perf_counter()
    waves = [
        TravelingWave.from_end_values(2.0, 1.0, 1.0, P1),
        TravelingWave.from_end_values(3.0, 0.5, 0.25, ModelParams.from_chi(0.5, 2.0)),
    ]
    z = np.linspace(-20.0, 20.0, 1000).astype(np.longdouble)
    h = np.longdouble(1e-5)
    worst_r1 = worst_r2 = worst_fi = 0.0
    bounds_ok = True
    for w in waves:
        U, V = w.u_profile, w.v_profile
        up = (U(z + h) - U(z - h)) / (2 * h)
        upp = (U(z + h) - 2 * U(z) + U(z - h)) / (h * h)
        uvp = (U(z + h) * V(z + h) - U(z - h) * V(z - h)) / (2 * h)
        vp = (V(z + h) - V(z - h)) / (2 * h)
        r1 = w.params.D * upp + w.s * up + w.params.chi * uvp
        r2 = w.s * vp + up
        worst_r1 = max(worst_r1, float(np.abs(r1).max()))
        worst_r2 = max(worst_r2, float(np.abs(r2).max()))
        fi = np.abs(U(z) + w.s * V(z) - w.kappa)
        worst_fi = max(worst_fi, float(fi.max()))
        bounds_ok &= profile_bounds_check(w, np.asarray(z, dtype=float))
    wall = time.perf_counter() - t0
    _report(2, "profile ODE residual", [
        ("wave ODE residual < 1e-5 at 1000 samples (h = 1e-5)",
         max(worst_r1, worst_r2) < 1e-5, f"worst {max(worst_r1, worst_r2):.3e}"),
        ("first integral U + s*V = kappa to 1e-12", worst_fi < 1e-12,
         f"worst {worst_fi:.3e}"),
        ("derivative bounds hold at every sample", bounds_ok, str(bounds_ok)),
        ("runtime < 1 s", wall < 1.0, f"{wall:.3f} s"),
    ])


def test_criterion_03_traveling_wave_transport():
    t0 = time.perf_counter()
    w = TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)
    front = 100.0

    def sup_error(n):
        g = GridSpec(0.0, 400.0, n)
        x = g.nodes()
        u0 = np.asarray(w.u_profile(x - front))
        v0 = np.asarray(w.v_profile(x - front))
        cfg = SchemeConfig(t_end=20.0, snapshot_interval=20.0)
        final = run(SimState(Field(g, u0), Field(g, v0), 0.0), P1, cfg).final_state
        exact = np.asarray(w.u_profile(x - front - w.s * final.t))
        return g.dx, float(np.abs(final.u.values - exact).max())

    dx_c, err_c = sup_error(4001)
    _, err_f = sup_error(8001)
    wall = time.perf_counter() - t0
    _report(3, "traveling-wave transport", [
        ("sup error < 10*dx at n = 4001", err_c < 10 * dx_c,
         f"{err_c:.4f} vs {10 * dx_c:.1f}"),
        ("error halves under grid doubling (>= 1.8x)", err_c / err_f >= 1.8,
         f"ratio {err_c / err_f:.2f}"),
        ("runtime < 2 min", wall < 120.0, f"{wall:.1f} s"),
    ])


def test_criterion_04_constant_state_relaxation(scenario_dir):
    t0 = time.perf_counter()
    cfg = parse_scenario(scenario_dir / "thm21.cfg")
    state = build_initial(cfg)
    scheme = cfg.scheme
    sup0 = float(np.abs(state.u.values - 1.0).max())
    l40 = lp_norm(state.v, 4)
    ent = entropy(state.u)
    a0, _ = ab_functionals(state.u, state.v)
    ent_tol = 1e-8
    worst_ent_excess = -math.inf
    worst_a_excess = -math.inf
    while state.t < scheme.t_end - 1e-9:
        state = step(state, cfg.params, scheme, dt_cap=scheme.t_end - state.t)
        ent_next = entropy(state.u)
        a_next, _ = ab_functionals(state.u, state.v)
        worst_ent_excess = max(worst_ent_excess, ent_next - ent - ent_tol * (1 + ent))
        worst_a_excess = max(worst_a_excess, a_next - a0 - ent_tol * (1 + a0))
        ent = ent_next
    supf = float(np.abs(state.u.values - 1.0).max())
    l4f = lp_norm(state.v, 4)
    wall = time.perf_counter() - t0
    _report(4, "constant-state relaxation", [
        ("sup|u-1| final < 0.2x initial", supf < 0.2 * sup0,
         f"{supf:.4f} vs {0.2 * sup0:.4f} (ratio {supf / sup0:.3f})"),
        ("||v||_L4 final < 0.5x initial", l4f < 0.5 * l40,
         f"{l4f:.4f} vs {0.5 * l40:.4f} (ratio {l4f / l40:.3f})"),
        ("entropy nonincreasing per step (tol 1e-8)", worst_ent_excess <= 0.0,
         f"worst excess {worst_ent_excess:.3e} "
         "(u-only entropy is pumped by the v coupling; see notes)"),
        ("A(t) <= A(0) + tol throughout", worst_a_excess <= 0.0,
         f"worst excess {worst_a_excess:.3e}"),
        ("runtime < 5 min", wall < 300.0, f"{wall:.1f} s"),
    ])


def test_criterion_05_wave_stability(thm22_run):
    cfg, manifest, series, _ = thm22_run
    sup0, supf = series["sup_u_err"][0], series["sup_u_err"][-1]
    l20, l2f = series["l2_v"][0], series["l2_v"][-1]
    speed_err = manifest["front_speed_rel_err"]
    _report(5, "viscous wave stability", [
        ("shift x0 computed at t = 0", "shift_x0" in manifest,
         f"x0 = {manifest['shift_x0']:.6g}, beta residual "
         f"{manifest['shift_beta_residual']:.3e}"),
        ("sup|u - U| final < 0.2x initial", supf < 0.2 * sup0,
         f"{supf:.4f} vs {0.2 * sup0:.4f} (ratio {supf / sup0:.3f})"),
        ("||v - V||_L2 final < 0.5x initial", l2f < 0.5 * l20,
         f"{l2f:.4f} vs {0.5 * l20:.4f} (ratio {l2f / l20:.3f})"),
        ("front speed within 2% of s", speed_err < 0.02,
         f"relative error {speed_err:.2e}"),
        ("runtime < 10 min", manifest["wall_time_s"] < 600.0,
         f"{manifest['wall_time_s']:.1f} s"),
    ])


def test_criterion_06_regularity_signature(
    fig1_consistent_run, fig3_consistent_run, wave_reference_run
):
    _, m1, jump, _ = fig1_consistent_run
    _, m3, ramp, _ = fig3_consistent_run
    _, mr, ref, _ = wave_reference_run

    mask = jump["t"] <= 100.0
    assert np.array_equal(jump["t"], ref["t"])
    ratios = jump["max_dq_v"][mask] / np.maximum(ref["max_dq_v"][mask], 1e-300)
    widths = jump["dq_width"][:5]

    wave = TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)
    level = wave.max_slope_v
    ramp_mask = ramp["t"] <= 100.0
    ramp_max = ramp["max_dq_v"][ramp_mask].max()

    wall = m1["wall_time_s"] + m3["wall_time_s"] + mr["wall_time_s"]
    _report(6, "regularity signature of rough vs smooth data", [
        ("jump-run probe >= 10x matched smooth run through t = 100",
         bool(np.all(ratios >= 10.0)), f"min ratio {ratios.min():.3g}"),
        ("exceedance width nondecreasing over first 5 snapshots",
         bool(np.all(np.diff(widths) >= -1e-12)),
         "widths " + ", ".join(f"{w:.2f}" for w in widths)),
        ("ramp-run probe < 2x smooth wave slope at all t <= 100",
         ramp_max < 2.0 * level, f"max {ramp_max:.4f} vs {2 * level:.4f}"),
        ("runtime < 10 min total", wall < 600.0, f"{wall:.1f} s"),
    ])


def test_criterion_07_flux_identity_refinement():
    def residual(n):
        g = GridSpec(0.0, 400.0, n)
        x = g.nodes()
        u0 = 1.0 + 0.3 * np.exp(-(((x - 200.0) / 15.0) ** 2))
        v0 = 0.2 * np.exp(-(((x - 180.0) / 20.0) ** 2))
        cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0)
        s0 = SimState(Field(g, u0), Field(g, v0), 0.0)
        return flux_identity_residual(s0, step(s0, P1, cfg), P1)

    r = [residual(n) for n in (1001, 2001, 4001)]
    _report(7, "flux identity residual refinement", [
        ("level 1 -> 2 shrink >= 1.8x", r[0] / r[1] >= 1.8, f"ratio {r[0] / r[1]:.2f}"),
        ("level 2 -> 3 shrink >= 1.8x", r[1] / r[2] >= 1.8, f"ratio {r[1] / r[2]:.2f}"),
    ])


def test_criterion_08_mollifier_contract(scenario_dir, tmp_path):
    g = GridSpec(0.0, 400.0, 2001)
    x = g.nodes()
    spec = MollifierSpec(1.5)

    bump = Field(g, 1.7 * np.exp(-(((x - 180.0) / 12.0) ** 2)))
    m0, m1 = integral(bump), integral(mollify(bump, spec))
    mass_ok = abs(m1 - m0) < 1e-10 * abs(m0)

    rng = np.random.default_rng(20240817)
    margin = int(math.ceil(2 * spec.delta / g.dx))
    expansive = 0.0
    for _ in range(50):
        vals = np.zeros(g.n_nodes)
        core = rng.uniform(-2.0, 2.0, g.n_nodes - 2 * margin)
        core[rng.integers(0, core.size, 20)] *= 5.0
        vals[margin:-margin] = core
        f = Field(g, vals)
        out = mollify(f, spec)
        for p in (1, 2, 4, math.inf):
            expansive = max(expansive, lp_norm(out, p) / lp_norm(f, p) - 1.0)

    path = scenario_dir / "fig1_consistent.cfg"
    cp = read_config(path)
    cp["scheme"]["t_end"] = "100"
    cp["scheme"]["snapshot_interval"] = "50"
    sweep(cp, path, "mollify_delta", ["0", "0.5", "1", "2"], tmp_path / "sweep")
    import csv

    with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["status"] == "ok" for row in rows)
    dq = np.array([float(row["max_dq_v"]) for row in rows])
    strict = bool(np.all(np.diff(dq) < 0))

    _report(8, "mollifier contract", [
        ("mass preserved to 1e-10 relative", mass_ok, f"|delta| {abs(m1 - m0):.2e}"),
        ("Lp non-expansive for p in {1,2,4,inf} on 50 rough fields",
         expansive <= 1e-10, f"max excess {expansive:.2e}"),
        ("probe at t=100 strictly decreasing in mollifier width", strict,
         "max_dq_v " + ", ".join(f"{v:.3e}" for v in dq)),
    ])


def test_criterion_09_cole_hopf_round_trip():
    g = GridSpec(-1.0, 1.0, 801)
    mu = 1.3
    c = Field.from_function(g, lambda x: np.exp(-mu * x**2 / 2 + 0.4 * x + 0.1))
    v = to_v(c, mu)
    back = from_v(v, mu, c_ref=float(c.values[400]), x_ref_index=400)
    rel = float((np.abs(back.values - c.values) / c.values).max())

    c_other = from_v(v, mu, c_ref=2.5, x_ref_index=123)
    ratio = c_other.values / back.values
    gauge_spread = float(ratio.max() - ratio.min())
    v_gauge = float(np.abs(to_v(c_other, mu).values - v.values).max())

    _report(9, "attractant transform round trip", [
        ("round trip relative error < 1e-8 (n = 801)", rel < 1e-8, f"{rel:.2e}"),
        ("anchor invariance: fields proportional to machine precision",
         gauge_spread < 1e-12, f"spread {gauge_spread:.2e}"),
        ("forward transform independent of anchor", v_gauge < 1e-12,
         f"{v_gauge:.2e}"),
    ])


def test_criterion_10_v_mass_conservation():
    # same physics as the wave-stability scenario, on a domain wide enough
    # that no perturbation remnant reaches a boundary within 10^4 steps (the
    # identity presumes the far fields stay flat at the pinned end nodes)
    g = GridSpec(-400.0, 800.0, 12001)
    w = TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)
    x = g.nodes()
    u0 = np.asarray(w.u_profile(x - 200.0))
    v0 = np.asarray(w.v_profile(x - 200.0))

    def dipole(center, hw, amp):
        vals = np.zeros(g.n_nodes)
        j1 = int(round((center - hw - g.x_min) / g.dx))
        jc = int(round((center - g.x_min) / g.dx))
        j2 = int(round((center + hw - g.x_min) / g.dx))
        vals[j1 + 1 : jc] += amp
        vals[jc + 1 : j2] -= amp
        vals[j1] += amp / 2
        vals[j2] -= amp / 2
        return vals

    u0 = u0 + dipole(220.0, 5.0, 0.3)
    v0 = v0 + dipole(180.0, 5.0, 0.3)
    scheme = SchemeConfig(t_end=1e9, snapshot_interval=1e9)
    state = SimState(Field(g, u0), Field(g, v0), 0.0)
    worst = 0.0
    mass = integral(state.v)
    for _ in range(10_000):
        prev_t = state.t
        state = step(state, P1, scheme)
        new_mass = integral(state.v)
        dt = state.t - prev_t
        flux = dt * (state.u.values[-1] - state.u.values[0])
        worst = max(worst, abs(new_mass - mass - flux))
        mass = new_mass
    _report(10, "per-step v-mass identity", [
        ("|d(int v) - dt*(u_R - u_L)| <= 1e-10 over 10^4 steps", worst <= 1e-10,
         f"worst {worst:.2e} (final t = {state.t:.1f})"),
    ])

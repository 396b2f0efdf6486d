import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chemoshock.core import (
    ConfigError,
    Field,
    GridSpec,
    ModelParams,
    NumericalError,
    PositivityError,
    SimState,
    integral,
    lp_norm,
)
import chemoshock.solver as solver
from chemoshock import _native, scenarios
from chemoshock.cli import EXIT_CONFIG, main
from chemoshock.solver import (
    _TINY_SPEED,
    SchemeConfig,
    _advance,
    _cfl_step,
    _compiled_step,
    _explicit_rhs,
    _implicit_solve,
    _ldl_pivots,
    _numpy_step,
    _update_v,
    _Workspace,
    characteristic_speed_bound,
    run,
    step,
)
from chemoshock.waves import TravelingWave

from test_cli import SMALL_CFG

P1 = ModelParams.from_chi(1.0, 1.0)


def constant_state(grid, u_val, v_val):
    return SimState(Field.constant(grid, u_val), Field.constant(grid, v_val), 0.0)


def wave_state(grid, wave, front):
    x = grid.nodes()
    return SimState(
        Field(grid, np.asarray(wave.u_profile(x - front))),
        Field(grid, np.asarray(wave.v_profile(x - front))),
        0.0,
    )


def test_scheme_config_validation():
    with pytest.raises(ConfigError):
        SchemeConfig(t_end=1.0, snapshot_interval=1.0, cfl=0.0)
    with pytest.raises(ConfigError):
        SchemeConfig(t_end=1.0, snapshot_interval=1.0, diffusion_theta=0.3)
    with pytest.raises(ConfigError):
        SchemeConfig(t_end=1.0, snapshot_interval=0.0)


@pytest.mark.parametrize("t_end, snapshot_interval", [
    (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
])
def test_scheme_config_rejects_non_finite_times(t_end, snapshot_interval):
    with pytest.raises(ConfigError, match="finite"):
        SchemeConfig(t_end=t_end, snapshot_interval=snapshot_interval)


@pytest.mark.parametrize("t_end, snapshot_interval", [
    (1e6, 1e-4), (1e9, 1.0), (0.5, 1e-9), (2.0, 1.5e-9),
])
def test_a_snapshot_interval_within_the_time_tolerance_is_rejected(t_end, snapshot_interval):
    # run() takes times within 1e-9*max(1, t_end) as one: it would never step,
    # only relabel the initial state with later times
    with pytest.raises(ConfigError, match="snapshot_interval must be finite and > "):
        SchemeConfig(t_end=t_end, snapshot_interval=snapshot_interval)
    SchemeConfig(t_end=t_end, snapshot_interval=1.01e-9 * max(1.0, t_end))


@pytest.mark.parametrize("t_end", [5e-324, 1e-12, 1e-9])
def test_a_horizon_within_the_time_tolerance_is_rejected(t_end):
    # run() would take no step and write the initial state again, labelled t_end
    with pytest.raises(ConfigError, match=r"t_end must be 0 or > 1e-09, the time tolerance"):
        SchemeConfig(t_end=t_end, snapshot_interval=1.0)
    SchemeConfig(t_end=1.01e-9, snapshot_interval=1.0)


def test_the_cli_rejects_a_snapshot_interval_within_the_time_tolerance(tmp_path, capsys):
    cfg = tmp_path / "tiny_interval.cfg"
    cfg.write_text(SMALL_CFG.replace("snapshot_interval = 1", "snapshot_interval = 1e-9"))
    # validate first: where the interval is taken, the run writes ~2e9 snapshots
    assert main(["validate", str(cfg)]) == EXIT_CONFIG
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "snapshot_interval" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_characteristic_speed_known_values():
    g = GridSpec(0.0, 1.0, 11)
    assert characteristic_speed_bound(constant_state(g, 1.0, 0.0), P1) == pytest.approx(1.0)
    assert characteristic_speed_bound(constant_state(g, 2.0, 1.0), P1) == pytest.approx(2.0)
    assert characteristic_speed_bound(constant_state(g, 0.0, 0.0), P1) == 0.0


def test_constant_state_is_fixed_point():
    g = GridSpec(0.0, 100.0, 501)
    state = constant_state(g, 1.3, 0.4)
    cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0)
    for _ in range(50):
        state = step(state, P1, cfg)
    assert np.abs(state.u.values - 1.3).max() < 1e-12
    assert np.abs(state.v.values - 0.4).max() < 1e-12


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("u_val, v_val", [(1.3, 0.4), (1.0, 0.0), (2.0, 1.0), (0.7, -0.3)])
def test_constant_states_are_exact_fixed_points(kernel, u_val, v_val, theta):
    # the δ-form's right-hand side is exactly 0 on a constant state, so
    # neither u nor v moves by a bit, through the public step() or run()
    g = GridSpec(0.0, 100.0, 501)
    cfg = SchemeConfig(t_end=5.0, snapshot_interval=1.0, diffusion_theta=theta)
    want_u, want_v = np.full(g.n_nodes, u_val), np.full(g.n_nodes, v_val)
    state = constant_state(g, u_val, v_val)
    for _ in range(50):
        state = step(state, P1, cfg)
    assert same_bits(state.u.values, want_u) and same_bits(state.v.values, want_v)
    seen = []
    report = run(constant_state(g, u_val, v_val), P1, cfg, lambda i, s, prev: seen.append(s))
    assert report.step_kernel == kernel and report.step_count > 50 and len(seen) == 6
    for s in seen:
        assert same_bits(s.u.values, want_u) and same_bits(s.v.values, want_v), s.t


def test_roundoff_does_not_travel_along_a_plateau(kernel):
    # a pattern of a few ulps on the plateau u = v = 1, as jump data leave
    # behind them: u one and two ulps above 1, v one ulp below.  Rounding each
    # u + δ to the nearest double rounds the neighbours' sub-ulp increments up
    # to whole ulps: without the dead band the pattern spread over nodes
    # 54..199 in 100 steps, one node per step to the right; with it no node
    # outside the pattern moves
    g = GridSpec(0.0, 40.0, 401)
    cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0)
    u, v = np.ones(g.n_nodes), np.ones(g.n_nodes)
    u[93:100] += np.array([1, 2, 1, 2, 2, 1, 1]) * 2.0**-52
    v[93:98] -= 2.0**-53
    state = SimState(Field(g, u), Field(g, v), 0.0)
    for _ in range(100):
        state = step(state, P1, cfg)
    moved = np.flatnonzero((state.u.values != 1.0) | (state.v.values != 1.0))
    assert moved.min() >= 93 and moved.max() < 100, (moved.min(), moved.max())


def test_grid_with_float_node_count_steps():
    # an integral float is accepted and stored as an int, so arrays can be sized by it
    g = GridSpec(0.0, 1.0, 11.0)
    assert type(g.n_nodes) is int
    state = constant_state(g, 1.0, 0.0)
    cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0)
    out = step(state, P1, cfg)
    assert out.u.values.shape == (11,)
    assert np.all(out.u.values == 1.0)


def test_step_advances_time_and_counts():
    g = GridSpec(0.0, 100.0, 501)
    state = constant_state(g, 1.0, 0.0)
    cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0)
    out = step(state, P1, cfg)
    assert out.step_count == 1
    assert out.t == pytest.approx(cfg.cfl * g.dx / 1.0)
    capped = step(state, P1, cfg, dt_cap=1e-4)
    assert capped.t == pytest.approx(1e-4)


def test_wave_transport_tracks_exact_translation():
    g = GridSpec(0.0, 100.0, 1001)
    w = TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)
    state = wave_state(g, w, 30.0)
    cfg = SchemeConfig(t_end=5.0, snapshot_interval=5.0)
    report = run(state, P1, cfg)
    final = report.final_state
    exact = w.u_profile(g.nodes() - 30.0 - w.s * final.t)
    assert np.abs(final.u.values - exact).max() < 10 * g.dx
    assert report.min_u > 0.9


def test_per_step_v_mass_identity():
    g = GridSpec(0.0, 100.0, 1001)
    w = TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)
    state = wave_state(g, w, 30.0)
    cfg = SchemeConfig(t_end=5.0, snapshot_interval=5.0)
    for _ in range(25):
        prev = state
        state = step(state, P1, cfg)
        dt = state.t - prev.t
        lhs = integral(state.v) - integral(prev.v)
        rhs = dt * (state.u.values[-1] - state.u.values[0])
        assert abs(lhs - rhs) < 1e-10


def test_positivity_violation_raises_flagged_error():
    p = ModelParams.from_chi(1e-6, 40.0)
    g = GridSpec(0.0, 10.0, 201)
    x = g.nodes()
    u0 = np.full(g.n_nodes, 0.02)
    u0[:100] = 1.0
    u0[100] = 0.51
    v0 = np.tanh((x - 5.0) * 4.0)
    state = SimState(Field(g, u0), Field(g, v0), 0.0)
    cfg = SchemeConfig(t_end=5.0, snapshot_interval=5.0, cfl=0.9)
    with pytest.raises(PositivityError, match="node"):
        for _ in range(200):
            state = step(state, p, cfg)


def test_zero_horizon_run_emits_single_snapshot():
    g = GridSpec(0.0, 100.0, 501)
    state = constant_state(g, 1.0, 0.0)
    cfg = SchemeConfig(t_end=0.0, snapshot_interval=1.0)
    seen = []
    run(state, P1, cfg, lambda i, s, prev: seen.append((i, s.t, prev)))
    assert seen == [(0, 0.0, None)]


def test_snapshot_schedule_and_prev_state():
    g = GridSpec(0.0, 100.0, 501)
    state = constant_state(g, 1.0, 0.0)
    cfg = SchemeConfig(t_end=1.0, snapshot_interval=0.25)
    seen = []
    report = run(state, P1, cfg, lambda i, s, prev: seen.append((i, s.t, prev is not None)))
    assert [t for _, t, _ in seen] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert [has_prev for _, _, has_prev in seen] == [False, True, True, True, True]
    assert report.snapshot_count == 5
    assert report.final_state.t == 1.0


def test_mollified_outputs_stabilize_as_width_shrinks():
    # solutions from data mollified at width d and d/2 get closer as d drops
    from chemoshock.mollifier import MollifierSpec, mollify

    g = GridSpec(0.0, 200.0, 1001)
    x = g.nodes()
    u_raw = np.where(x < 50.0, 2.0, 1.0)
    v_raw = np.where(x < 50.0, 0.0, 1.0)

    def final_u(delta):
        spec = MollifierSpec(delta)
        u0 = mollify(Field(g, u_raw), spec).values
        v0 = mollify(Field(g, v_raw), spec).values
        state = SimState(Field(g, u0), Field(g, v0), 0.0)
        cfg = SchemeConfig(t_end=10.0, snapshot_interval=10.0)
        return run(state, P1, cfg).final_state.u

    def gap(delta):
        a, b = final_u(delta), final_u(delta / 2)
        return lp_norm(Field(g, a.values - b.values), 2)

    assert gap(4.0) > gap(2.0) > gap(1.0)


def test_self_convergence_on_smooth_data():
    w = TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)

    def solve(n):
        g = GridSpec(0.0, 100.0, n)
        x = g.nodes()
        u0 = np.interp(x, [30.0, 50.0], [2.0, 1.0], left=2.0, right=1.0)
        v0 = np.interp(x, [30.0, 50.0], [0.0, 1.0], left=0.0, right=1.0)
        state = SimState(Field(g, u0), Field(g, v0), 0.0)
        cfg = SchemeConfig(t_end=2.0, snapshot_interval=2.0)
        return run(state, P1, cfg).final_state

    coarse, mid, fine = solve(501), solve(1001), solve(2001)
    g_c = coarse.u.grid
    err1 = lp_norm(Field(g_c, coarse.u.values - mid.u.values[::2]), 2)
    err2 = lp_norm(Field(mid.u.grid, mid.u.values - fine.u.values[::2]), 2)
    assert err1 / err2 >= 1.8


def test_run_matches_chain_of_public_steps():
    g = GridSpec(0.0, 100.0, 1001)
    w = TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)
    state = wave_state(g, w, 30.0)
    cfg = SchemeConfig(t_end=2.0, snapshot_interval=1.0)
    seen = []
    report = run(state, P1, cfg, lambda i, s, prev: seen.append(s))

    eps = 1e-9 * max(1.0, cfg.t_end)
    chain = [state]
    for target in (1.0, 2.0):
        while state.t < target - eps:
            state = step(state, P1, cfg, dt_cap=target - state.t)
        if abs(state.t - target) <= eps:
            state = SimState(state.u, state.v, target, state.step_count)
        chain.append(state)

    assert len(seen) == len(chain) == report.snapshot_count
    for got, want in zip(seen, chain):
        assert got.step_count == want.step_count
        assert got.t == want.t
        assert np.abs(got.u.values - want.u.values).max() <= 1e-12
        assert np.abs(got.v.values - want.v.values).max() <= 1e-12
    assert report.step_count == chain[-1].step_count > 0


def _jump_state(n):
    g = GridSpec(0.0, 40.0, n)
    x = g.nodes()
    return SimState(Field(g, np.where(x < 10.0, 2.0, 1.0)), Field(g, np.where(x < 10.0, 0.0, 1.0)),
                    0.0)


@pytest.fixture(params=["compiled", "numpy"])
def kernel(request, monkeypatch):
    """Each step kernel in turn: the compiled step (skipped where it does not
    build), then the numpy stages."""
    if request.param == "compiled":
        request.getfixturevalue("stages")
    else:
        monkeypatch.setattr(solver, "_load_stages", lambda: None)
    return request.param


def test_public_steps_give_the_bytes_of_run(kernel):
    # each step() takes its bound from its own state, where run() carries the
    # bound its last step returned: the two must be the bound of the same pair
    state = _jump_state(201)
    cfg = SchemeConfig(t_end=3.0, snapshot_interval=3.0)
    seen = []
    report = run(state, P1, cfg, lambda i, s, prev: seen.append(prev))
    assert report.step_kernel == kernel
    prev = seen[-1]  # one step before t_end: every step up to it was uncapped
    assert prev is not None and prev.step_count == report.step_count - 1 > 20
    for _ in range(prev.step_count):
        state = step(state, P1, cfg)
    assert (state.t, state.step_count) == (prev.t, prev.step_count)
    assert same_bits(state.u.values, prev.u.values) and same_bits(state.v.values, prev.v.values)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_bound_does_not_advance_and_prints_no_warning(kernel):
    g = GridSpec(0.0, 10.0, 41)
    huge_v = SimState(Field.constant(g, 1.0), Field.constant(g, 1e160), 0.0)
    cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0)
    with pytest.raises(NumericalError, match="does not advance t=0 on step 1"):
        run(huge_v, P1, cfg)
    with pytest.raises(NumericalError, match="does not advance t=0 on step 1"):
        step(huge_v, P1, cfg)


@pytest.mark.filterwarnings("error")
def test_an_inf_from_the_solve_fails_and_prints_no_warning(monkeypatch, kernel):
    # the numpy step updates v from a u that _advance then rejects: its infs
    # at nodes 7 .. n-2 must not warn in the v update's inf - inf
    if kernel == "compiled":
        planted = _plant_in_compiled_step(solver._compiled_step, "u", slice(7, -1), np.inf)
        monkeypatch.setattr(solver, "_compiled_step", planted)
    else:
        real = solver._implicit_solve

        def planted(rhs, *args):  # rhs holds the interior nodes 1 .. n-2
            info = real(rhs, *args)
            rhs[6:] = np.inf
            return info

        monkeypatch.setattr(solver, "_implicit_solve", planted)
    state = _jump_state(41)
    cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0)
    for march in (lambda: run(state, P1, cfg), lambda: step(state, P1, cfg)):
        with pytest.raises(NumericalError, match=r"non-finite u at node 7 after step 1 \(t=0,"):
            march()


def test_a_failed_solve_names_its_step(monkeypatch):
    monkeypatch.setattr(solver, "_load_stages", lambda: None)
    monkeypatch.setattr(solver, "_implicit_solve", lambda *args: -4)
    state = constant_state(GridSpec(0.0, 10.0, 21), 1.0, 0.0)
    cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0)
    with pytest.raises(NumericalError, match=r"^tridiagonal solve failed \(LAPACK info=-4\) "
                                             r"on step 1 \(t=0, dt=\d\.\d{3}e[+-]\d+\)$"):
        step(state, P1, cfg)


def test_snapshot_prev_is_the_state_one_step_earlier():
    g = GridSpec(0.0, 100.0, 1001)
    w = TravelingWave.from_end_values(2.0, 1.0, 1.0, P1)
    state = wave_state(g, w, 30.0)
    cfg = SchemeConfig(t_end=1.0, snapshot_interval=0.5)
    pairs = []
    run(state, P1, cfg, lambda i, s, prev: pairs.append((s, prev)))
    assert len(pairs) == 3 and pairs[0][1] is None
    for s, prev in pairs[1:]:
        assert prev.step_count == s.step_count - 1
        redo = step(prev, P1, cfg, dt_cap=s.t - prev.t)
        assert np.array_equal(redo.u.values, s.u.values)
        assert np.array_equal(redo.v.values, s.v.values)


def test_run_positivity_violation_names_step_node_and_time():
    p = ModelParams.from_chi(1e-6, 40.0)
    g = GridSpec(0.0, 10.0, 201)
    x = g.nodes()
    u0 = np.full(g.n_nodes, 0.02)
    u0[:100] = 1.0
    u0[100] = 0.51
    v0 = np.tanh((x - 5.0) * 4.0)
    state = SimState(Field(g, u0), Field(g, v0), 0.0)
    cfg = SchemeConfig(t_end=5.0, snapshot_interval=5.0, cfl=0.9)
    with pytest.raises(PositivityError, match=r"at node \d+ \(x=.*\) on step \d+, t="):
        run(state, p, cfg)


def high_precision_pivots(a, m):
    """The m pivots of tridiag(-a, 1+2a, -a), d_1 = 1+2a, d_i = 1+2a - a^2/d_(i-1),
    in 40 digits, rounded to floats."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        b, a2 = 1 + 2 * mpmath.mpf(a), mpmath.mpf(a) ** 2
        ref = [b]
        for _ in range(m - 1):
            ref.append(b - a2 / ref[-1])
        return np.array([float(x) for x in ref])


@pytest.mark.parametrize("m", [6, 7, 50, 3999])
def test_ldl_pivots_match_high_precision_recurrence(m):
    for a in np.logspace(-8, 8):
        ref = high_precision_pivots(a, m)
        d = np.empty(m)
        _ldl_pivots(float(a), d)
        assert np.all(np.abs(d - ref) <= 4 * np.spacing(ref)), a


def test_ldl_pivots_on_both_sides_of_a_max():
    # up to _A_MAX the recurrence, above it the closed form: both within the
    # 4 ulp of test_ldl_pivots_match_high_precision_recurrence at m = 3999
    m, a_max = 3999, solver._A_MAX
    for a in [*np.geomspace(a_max / 2, 2 * a_max, 25), a_max, np.nextafter(a_max, np.inf)]:
        ref = high_precision_pivots(a, m)
        d = np.empty(m)
        _ldl_pivots(float(a), d)
        assert np.all(np.abs(d - ref) <= 4 * np.spacing(ref)), a


def test_ldl_pivots_at_extreme_coupling():
    d = np.full(5, np.nan)
    _ldl_pivots(0.0, d)
    assert np.array_equal(d, np.ones(5))
    # a/d_plus rounds to 1 here; the pivots tend to a*(i+1)/i
    _ldl_pivots(1e300, d)
    assert np.allclose(d / 1e300, [2.0, 3 / 2, 4 / 3, 5 / 4, 6 / 5], rtol=1e-12, atol=0)


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("n", [8, 9, 64])
def test_advance_matches_dense_theta_system(n, theta):
    g = GridSpec(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    u = 1.0 + 0.5 * rng.random(n)
    v = 0.3 * rng.standard_normal(n)
    cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0, diffusion_theta=theta)
    for D in (1e-3, 1.0, 50.0):  # a = theta*D*dt/dx**2 from ~1e-3 to ~1e3
        p = ModelParams.from_chi(D, 1.0)
        ws = _Workspace(n)
        bound = solver._speed_bound(u, v, p.chi)
        u_new, v_new, dt, u_min, next_bound = _advance(u, v, bound, 0.0, 1, g, p, cfg, None, ws)

        dx, m = g.dx, n - 2
        # the factor's head, which both kernels store, is bit for bit -a/d_i
        a_step = theta * D * dt / (dx * dx)
        k = min(_ldl_pivots(a_step, np.empty(m)), m - 2)
        assert np.array_equal(ws.e[: k + 1], -a_step / ws.d[: k + 1])
        lap = np.diag(np.full(m, -2.0)) + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
        full_lap = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
        w = u * v
        rhs = u[1:-1] + dt * (p.chi * (w[2:] - w[:-2]) / (2.0 * dx) + (1 - theta) * D * full_lap)
        a = theta * D * dt / dx**2
        rhs[0] += a * u[0]
        rhs[-1] += a * u[-1]
        want_u = np.concatenate([[u[0]], np.linalg.solve(np.eye(m) - a * lap, rhs), [u[-1]]])
        want_v = v.copy()
        want_v[1:-1] += dt * (want_u[2:] - want_u[:-2]) / (2.0 * dx)

        assert np.abs(u_new - want_u).max() <= 1e-13
        assert np.abs(v_new - want_v).max() <= 1e-13
        assert u_min == u_new.min()
        assert next_bound == solver._speed_bound(u_new, v_new, p.chi)


def test_the_cfl_step_of_the_speed_bound_is_capped():
    g = GridSpec(0.0, 10.0, 41)
    rng = np.random.default_rng(3)
    state = SimState(Field(g, 1.0 + rng.random(41)), Field(g, rng.standard_normal(41)), 0.0)
    u, v = state.u.values, state.v.values
    p = ModelParams.from_chi(1.0, 1.7)
    free = 0.4 * g.dx / characteristic_speed_bound(state, p)
    bound = solver._speed_bound(u, v, p.chi)
    assert _cfl_step(bound, 0.4, g.dx, None) == free
    assert _cfl_step(bound, 0.4, g.dx, 2.0 * free) == free
    assert _cfl_step(bound, 0.4, g.dx, 1e-7) == 1e-7
    zero = np.zeros(41)  # no speed at all: the step is set by the floor
    no_speed = solver._speed_bound(zero, zero, p.chi)
    assert _cfl_step(no_speed, 0.4, g.dx, None) == 0.4 * g.dx / _TINY_SPEED


@pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
def test_explicit_rhs_matches_per_node_loop(theta):
    n, dt, dx, chi, D = 37, 0.013, 0.1, 1.7, 0.9
    rng = np.random.default_rng(11)
    u = 1.0 + rng.random(n)
    v = rng.standard_normal(n)
    flux_w = dt * chi / (2.0 * dx)
    diff_w = dt * (1.0 - theta) * D / (dx * dx)
    lap_w = diff_w + theta * D * dt / (dx * dx)  # the δ-form's weight: explicit plus implicit
    got = _explicit_rhs(u, v, flux_w, lap_w, np.empty(n))
    uf, vf = u.tolist(), v.tolist()
    for i in range(1, n - 1):
        want = ((uf[i + 1] * vf[i + 1] - uf[i - 1] * vf[i - 1]) * flux_w
                + ((uf[i + 1] + uf[i - 1]) - 2.0 * uf[i]) * lap_w)
        assert got[i] == want, i


def test_update_v_matches_per_node_loop():
    n, dv_w = 37, 0.065
    rng = np.random.default_rng(12)
    u_new = 1.0 + rng.random(n)
    v = rng.standard_normal(n)
    got = _update_v(u_new, v, dv_w, -0.25, 0.5)
    uf, vf = u_new.tolist(), v.tolist()
    want = [-0.25] + [(uf[i + 1] - uf[i - 1]) * dv_w + vf[i] for i in range(1, n - 1)] + [0.5]
    assert got.tolist() == want


@pytest.mark.parametrize("m", [6, 7, 62])
def test_implicit_solve_matches_dense_system(m):
    # the numpy stage solves for δ, which is 0 at the pinned ends
    ws = numpy_workspace(m + 2)
    lap = np.diag(np.full(m, -2.0)) + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
    rng = np.random.default_rng(m)
    for a in np.logspace(-3, 3, 7):
        rhs = rng.random(m) - 0.5
        x = rhs.copy()
        assert _implicit_solve(x, a, ws) == 0
        want = np.linalg.solve(np.eye(m) - a * lap, rhs)
        assert np.abs(x - want).max() <= 1e-13, a


@pytest.mark.parametrize("m", [6, 7, 62])
def test_a_step_without_flux_solves_the_implicit_system(m):
    # each kernel, the compiled one where the library builds, takes u_new from
    # (I - a*Laplacian) u_new = u with the pinned ends folded in
    lap = np.diag(np.full(m, -2.0)) + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
    for ws, _ in kernel_workspaces(m + 2):
        rng = np.random.default_rng(m)
        for a in np.logspace(-3, 3, 7):
            rhs = 1.0 + rng.random(m)
            left, right = 1.3, 0.7
            x = rhs.copy()
            stepped_solve(x, a, left, right, ws)
            b = rhs.copy()
            b[0] += a * left
            b[-1] += a * right
            want = np.linalg.solve(np.eye(m) - a * lap, b)
            assert np.abs(x - want).max() <= 1e-13, a


def test_advance_calls_each_stage_once_per_step(monkeypatch):
    # the numpy step looks its stages up as module globals, so a wrapper set
    # on the module (as a tracer does) sees every call
    monkeypatch.setattr(solver, "_load_stages", lambda: None)
    calls = dict.fromkeys(("_speed_bound", "_explicit_rhs", "_implicit_solve", "_update_v"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(solver, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(solver, name, counted)
    g = GridSpec(0.0, 100.0, 201)
    state = wave_state(g, TravelingWave.from_end_values(2.0, 1.0, 1.0, P1), 30.0)
    cfg = SchemeConfig(t_end=2.0, snapshot_interval=1.0)
    report = run(state, P1, cfg)
    assert report.step_count > 0
    # run() takes the first bound, and each step returns the next one
    steps = report.step_count
    assert calls == dict.fromkeys(calls, steps) | {"_speed_bound": steps + 1}


class CountingLibrary:
    """The compiled library, counting the calls of each of its functions, and
    appending to `steps` the a of each `imex_step` call."""

    def __init__(self, lib):
        self.lib, self.calls, self.steps = lib, {}, []

    def __getattr__(self, name):
        fn = getattr(self.lib, name)

        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            if name == "imex_step":
                self.steps.append(args[5])
            return fn(*args)
        return counted


def test_a_compiled_run_makes_one_library_call_per_step(stages, monkeypatch):
    # run() takes the first step's bound from numpy, and each step returns the next one
    lib = CountingLibrary(stages)
    monkeypatch.setattr(solver, "_load_stages", lambda: lib)
    g = GridSpec(0.0, 100.0, 201)
    state = wave_state(g, TravelingWave.from_end_values(2.0, 1.0, 1.0, P1), 30.0)
    cfg = SchemeConfig(t_end=2.0, snapshot_interval=1.0)
    report = run(state, P1, cfg)
    assert report.step_kernel == "compiled" and report.step_count > 0
    assert lib.calls == {"imex_step": report.step_count}


def test_a_compiled_run_takes_no_numpy_expm1(stages, monkeypatch):
    # each step fills its factor inside the compiled step, with no Python
    # arithmetic: numpy's expm1 would tie the pivots to its SIMD code
    def refuse(*args, **kwargs):
        raise AssertionError("np.expm1 called")

    monkeypatch.setattr(np, "expm1", refuse)
    lib = CountingLibrary(stages)
    monkeypatch.setattr(solver, "_load_stages", lambda: lib)
    report = run(_jump_state(201), P1, SchemeConfig(t_end=3.0, snapshot_interval=1.0))
    assert report.step_kernel == "compiled" and report.step_count > 20
    assert len(set(lib.steps)) > 4


def _plant_nan_in_u(solve):
    def planted(rhs, *args):  # rhs holds the interior nodes 1 .. n-2
        info = solve(rhs, *args)
        rhs[6] = np.nan
        return info
    return planted


def _plant_nan_in_v(update):
    def planted(*args):
        v_new = update(*args)
        v_new[7] = np.nan
        return v_new
    return planted


def _plant_in_compiled_step(step, name, node, value):
    """`_compiled_step` with `value` written at `node` of its u or v output,
    and the checks and bound it returns taken from the planted output."""
    def planted(u, v, flux_w, diff_w, a, dv_w, chi, ws):
        u_new, v_new, *_ = step(u, v, flux_w, diff_w, a, dv_w, chi, ws)
        (u_new if name == "u" else v_new)[node] = value
        return (u_new, v_new, solver._finite_min(u_new), math.isfinite(solver._finite_min(v_new)),
                solver._speed_bound(u_new, v_new, chi))
    return planted


def _plant_nan_in_compiled_u(step):
    return _plant_in_compiled_step(step, "u", 7, np.nan)


def _plant_nan_in_compiled_v(step):
    return _plant_in_compiled_step(step, "v", 7, np.nan)


@pytest.mark.parametrize("stage, plant, name", [
    ("_implicit_solve", _plant_nan_in_u, "u"),
    ("_update_v", _plant_nan_in_v, "v"),
    ("_compiled_step", _plant_nan_in_compiled_u, "u"),
    ("_compiled_step", _plant_nan_in_compiled_v, "v"),
])
def test_non_finite_step_names_its_first_bad_node(request, monkeypatch, stage, plant, name):
    if stage == "_compiled_step":
        request.getfixturevalue("stages")
    else:  # a numpy stage: the compiled step calls none
        monkeypatch.setattr(solver, "_load_stages", lambda: None)
    monkeypatch.setattr(solver, stage, plant(getattr(solver, stage)))
    g = GridSpec(0.0, 10.0, 21)
    state = constant_state(g, 1.0, 0.0)
    cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0)
    with pytest.raises(NumericalError, match=rf"non-finite {name} at node 7 after step 1 \(t=0,"):
        step(state, P1, cfg)


# ---------------------------------------------------------------------------
# compiled stages: parity with the numpy stages, and the fallback to them
# ---------------------------------------------------------------------------


def numpy_workspace(n):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_load_stages", lambda: None)
        return _Workspace(n)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def same_factor_head(ws, ref, a):
    """ws's factor of a is ref's, a numpy workspace's, up to row k, from
    which `_ldl_pivots` says the pivots repeat, and ref's rows past k repeat
    row k: the compiled step stores rows 0 .. k only, and its sweeps read
    row k for every later one."""
    k = _ldl_pivots(a, np.empty(ref.d.size))
    ke = min(k, ref.e.size - 1)
    return (same_bits(ws.d[: k + 1], ref.d[: k + 1]) and same_bits(ws.e[: ke + 1], ref.e[: ke + 1])
            and same_bits(ref.d[k:], np.full(ref.d.size - k, ref.d[k]))
            and same_bits(ref.e[ke:], np.full(ref.e.size - ke, ref.e[ke])))


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    return 0.5 + 2.0 * rng.random(n), 0.8 * rng.standard_normal(n)


def stepped_solve(x, a, left, right, ws):
    """x overwritten by the interior of u_new from one step of ws's kernel
    with u = (left, x, right), v = 0 and no flux or explicit diffusion: the
    solution of (I - a*Laplacian) u_new = u with the ends pinned, which both
    kernels give with the same bits."""
    u = np.concatenate([[left], x, [right]])
    kernel = _numpy_step if ws.lib is None else _compiled_step
    u_new, *_ = kernel(u, np.zeros(u.size), 0.0, 0.0, a, 0.0, 0.0, ws)
    x[:] = u_new[1:-1]


def compiled_bound(u, v, chi, ws):
    """The speed bound of (u, v) from the compiled step of ws: with a = 0 and
    every weight 0 the step returns its inputs, up to the sign of an interior
    -0.0, so the next bound it returns is theirs."""
    u_new, v_new, *_, bound = _compiled_step(u, v, 0.0, 0.0, 0.0, 0.0, chi, ws)
    assert np.array_equal(u_new, u) and np.array_equal(v_new, v)
    return bound


# the numbers `_stages.c` shares with Python, by their names in C
SHARED_NUMBERS = {"A_MAX": _native._A_MAX, "LOG_QUARTER_EPS": _native._LOG_QUARTER_EPS,
                  "BLOCK_BITS": _native._BLOCK_BITS, "DEAD_BAND": _native._DEAD_BAND,
                  "POW10_MIN": _native._POW10_MIN, "POW10_MAX": _native._POW10_MAX,
                  "VALUE_BYTES": _native._VALUE_BYTES}


def test_the_build_defines_each_shared_number_and_the_source_none(monkeypatch, tmp_path):
    # the compile command, captured without a compiler, carries each number
    # as -DNAME=(value), a float in hex; the parity tests check the compiled
    # bits where a compiler is, this test everywhere
    commands = []
    monkeypatch.setattr(shutil, "which", lambda name: sys.executable)
    monkeypatch.setattr(subprocess, "run", lambda argv, **kw: commands.append(argv))
    lib = _native._build_stages(str(tmp_path))
    defines = dict(arg[2:].split("=", 1) for arg in commands[0] if arg.startswith("-D"))
    assert set(defines) == set(SHARED_NUMBERS)
    for name, value in SHARED_NUMBERS.items():
        text = defines[name].removeprefix("(").removesuffix(")")
        assert (float.fromhex(text) if isinstance(value, float) else int(text)) == value, name
    # the numbers are part of the library's name, so a changed one builds anew
    monkeypatch.setattr(_native, "_DEAD_BAND", 2.0**-48)
    assert _native._build_stages(str(tmp_path)) != lib and len(commands) == 2

    source = (Path(solver.__file__).parent / "_stages.c").read_text()
    assert not re.findall(rf"^\s*#\s*define\s+({'|'.join(SHARED_NUMBERS)})\b", source, re.M)


@pytest.mark.parametrize("n", [8, 201, 4001])
@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_each_compiled_stage_matches_its_numpy_stage_bit_for_bit(stages, n, theta):
    # the stages now run inside the one compiled step, which is compared with
    # the numpy stages composed with the same weights
    u, v = random_state(n, n)
    ws, ref = _Workspace(n), numpy_workspace(n)
    assert ws.lib is stages and ref.lib is None
    chi, dx = 1.7, 0.05
    for w in (u, u - 1.5, np.zeros(n)):  # some nodes below the positivity floor, no speed
        got = compiled_bound(w, v, chi, ws)
        assert same_bits(got, solver._speed_bound(w, v, chi))
    for cap in (None, 1e-3, 1e-9):
        compiled_dt = _cfl_step(compiled_bound(u, v, chi, ws), 0.4, dx, cap)
        assert compiled_dt == _cfl_step(solver._speed_bound(u, v, chi), 0.4, dx, cap)

    dt = _cfl_step(solver._speed_bound(u, v, chi), 0.4, dx, None)
    flux_w, diff_w = dt * chi / (2.0 * dx), dt * (1.0 - theta) * 3.0 / (dx * dx)
    for a in (0.0, 1e300, theta * 3.0 * dt / (dx * dx)):
        got = _compiled_step(u, v, flux_w, diff_w, a, dt / (2.0 * dx), chi, ws)
        want = solver._numpy_step(u, v, flux_w, diff_w, a, dt / (2.0 * dx), chi, ref)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), a
        assert same_factor_head(ws, ref, a)
        assert got[2:] == want[2:] and got[2] == want[0].min()
        assert got[4] == solver._speed_bound(got[0], got[1], chi)
    # the outputs alternate between the two buffer pairs of ws
    assert got[0] is ws.u_out[0] and got[1] is ws.v_out[0]
    again = _compiled_step(got[0], got[1], flux_w, diff_w, a, dt / (2.0 * dx), chi, ws)
    assert again[0] is ws.u_out[1] and again[1] is ws.v_out[1]
    assert solver._finite_min(u) == u.min()


@pytest.mark.parametrize("n", [4, 5, 8, 201, 4001])
def test_each_step_fills_the_factor_of_its_a(stages, n):
    # each kernel fills its own factor, with the same bits up to the row from
    # which it repeats: the recurrence repeats its first pivot at a = 1e-300,
    # and the closed form's head is all n - 2 pivots at a = 1e300
    ws = _Workspace(n)
    rhs = 1.0 + np.random.default_rng(n).random(n - 2)
    for a in PIVOT_AS:
        x = rhs.copy()
        stepped_solve(x, a, 1.0, 2.0, ws)
        ref = numpy_workspace(n)
        y = rhs.copy()
        stepped_solve(y, a, 1.0, 2.0, ref)
        assert same_factor_head(ws, ref, a), a
        assert same_bits(x, y), a


def test_the_stages_source_compiles_without_warnings(stages, monkeypatch, tmp_path):
    # the library's own compile command, captured as above, run with every
    # -Wall and -Wextra warning an error
    commands, compile_ = [], subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda argv, **kw: commands.append(argv))
    _native._build_stages(str(tmp_path))
    argv = commands[0]
    argv[argv.index("-o") + 1] = str(tmp_path / "strict.so")
    done = compile_([*argv, "-Wall", "-Wextra", "-Werror"], capture_output=True, text=True,
                    timeout=300)
    assert done.returncode == 0, done.stderr


# a repeats, changes in its last bit, underflows, grows past _A_MAX (the recurrence's
# last a, then the closed form's first) to where the head is every pivot
PIVOT_AS = (0.3, 0.3, 0.30000000000000004, 0.0, 1e-300, 1e-12, 1e-3, 10.0, solver._A_MAX,
            np.nextafter(solver._A_MAX, np.inf), 3000.0, 1e300, 1e300)
# the pivots before the first repeated one shrink from 93 (a = 30) to 17 (a = 0.83) to 0
# (a = 0), then grow back
SHRINKING_AS = (30.0, 0.83, 0.0, 30.0)


def same_or_both_nan(got, want):
    return same_bits(got, want) or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 201, 4001])
@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_the_compiled_step_matches_the_numpy_stages_bit_for_bit(stages, n, theta):
    # theta = 1 takes the fused forward sweep's branch without explicit
    # diffusion; n = 4 .. 13 put the first and last rows of both sweeps, and
    # the bound terms taken before, inside and after the back sweep's loop,
    # at every place near the ends
    u, v = random_state(n, 100 + n)
    dx = 0.05

    def check(ws, u, v, a, chi, planted=False, dt=0.004):
        ref = numpy_workspace(n)
        flux_w, dv_w = dt * chi / (2.0 * dx), dt / (2.0 * dx)
        diff_w = dt * (1.0 - theta) * 3.0 / (dx * dx)
        got = _compiled_step(u, v, flux_w, diff_w, a, dv_w, chi, ws)
        with np.errstate(all="ignore"):
            want = solver._numpy_step(u, v, flux_w, diff_w, a, dv_w, chi, ref)
            bound = solver._speed_bound(want[0], want[1], chi)
            own_bound = solver._speed_bound(got[0], got[1], chi)
        assert same_factor_head(ws, ref, a), a
        assert same_or_both_nan(got[2], want[2]) and got[3] == want[3], (a, got[2:], want[2:])
        assert math.isnan(got[2]) or got[2] == want[0].min(), (a, got[2])
        if math.isnan(got[2]) or not got[3]:  # `_advance` raises before it reads a bound
            assert math.isnan(got[4]) and math.isnan(want[4]), (a, got[4], want[4])
        else:  # the returned bound is the returned pair's, and numpy's
            assert same_bits(got[4], bound), (a, got[4], bound)
            assert same_bits(got[4], own_bound) and same_bits(want[4], bound)
        if not planted:  # a nan's sign and payload may differ: its place may not
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), a
        assert np.array_equal(np.isnan(got[0]), np.isnan(want[0]))
        assert np.array_equal(np.isnan(got[1]), np.isnan(want[1]))
        return got

    # some nodes below the positivity floor, an end and an interior -0.0; no speed
    below = u - 1.5
    below[0] = below[n // 2] = -0.0
    states = ((below, v), (np.zeros(n), np.zeros(n)))
    places = range(n) if n < 12 else [*range(8), *range(n // 2, n // 2 + 4), *range(n - 8, n)]
    for chi in (0.3, 1.7):
        for sequence in (PIVOT_AS, SHRINKING_AS):
            ws = _Workspace(n)
            for a in sequence:
                check(ws, u, v, a, chi)
        for a in (0.0, 0.3):
            for u1, v1 in states:
                check(ws, u1, v1, a, chi)
        # with every weight 0 the step returns its inputs, up to the sign of an
        # interior -0.0, and so their speed bound
        for u1, v1 in ((u, v), *states):
            got = check(ws, u1, v1, 0.0, chi, dt=0.0)
            assert np.array_equal(got[0], u1) and np.array_equal(got[1], v1)
            assert same_bits(got[4], solver._speed_bound(u1, v1, chi))

        # a non-finite or a large input at every place near the ends and the
        # middle: at a = 0 the new state keeps it local, so the bound meets
        # it, or its largest term, at its own node
        ws = _Workspace(n)
        for value in (np.nan, -np.nan, np.inf, -np.inf, 40.0):
            for i in places:
                for planted_in_u in (True, False):
                    u1, v1 = u.copy(), v.copy()
                    (u1 if planted_in_u else v1)[i] = value
                    for a in (0.0, 0.3):
                        check(ws, u1, v1, a, chi, planted=not math.isfinite(value))


def block_states(n):
    """Constant states with a few nodes off the constant: at places closer
    together and farther apart than a block's margins, and at the ends; and
    a jump between two constant states.  On the states that are 0 but there,
    u_new = u + δ is δ itself, whose every row then shows where the blocks
    end."""
    states = []
    for base in (0.0, 1.3):
        for places in ([n // 3], [1, n - 2],
                       [n // 3, n // 3 + 5, n // 3 + 40, n // 3 + 200, n - 3]):
            u, v = np.full(n, base), np.full(n, base / 3)
            for p in places:
                if 0 < p < n - 1:
                    u[p] += 0.25
                    v[p] -= 0.1
            states.append((u, v))
    jump = np.arange(n) < n // 2
    states.append((np.where(jump, 2.0, 1.0), np.where(jump, 0.0, 1.0)))
    return states


@pytest.mark.parametrize("n", [4, 5, 9, 201, 1001])
@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_the_compiled_step_matches_the_numpy_stages_on_constant_stretches(stages, n, theta):
    # the solve's blocks: one, several, merged, clipped at the ends, or the
    # whole grid, for a from the identity to the closed-form pivots
    dx, dt, chi = 0.05, 0.004, 1.7
    flux_w, dv_w = dt * chi / (2.0 * dx), dt / (2.0 * dx)
    for u, v in block_states(n):
        ws = _Workspace(n)
        for a in (0.0, 1e-12, 0.05, 0.3, 1.24, 36.0, solver._A_MAX, 3000.0, 0.3):
            diff_w = a * (1.0 - theta) / theta
            ref = numpy_workspace(n)
            got = _compiled_step(u, v, flux_w, diff_w, a, dv_w, chi, ws)
            want = _numpy_step(u, v, flux_w, diff_w, a, dv_w, chi, ref)
            assert same_factor_head(ws, ref, a), a
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), a
            assert got[2:] == want[2:], a


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_the_compiled_step_matches_the_numpy_stages_at_the_dead_band(stages, theta):
    # u and v a few ulps off a plateau give increments on both sides of
    # _DEAD_BAND*|u|: both kernels keep u_i, or add δ_i, at the same nodes
    n = 1001
    rng = np.random.default_rng(11)
    dx, dt, chi = 0.1, 0.0247, 1.0
    flux_w, dv_w = dt * chi / (2.0 * dx), dt / (2.0 * dx)
    for c in (1.0, 2.0, 1.3):
        u = c + rng.integers(-12, 13, n) * (c * 2.0**-52)
        v = 1.0 + rng.integers(-3, 4, n) * 2.0**-53
        for a in (1.24, 36.0):
            diff_w = a * (1.0 - theta) / theta
            ws, ref = _Workspace(n), numpy_workspace(n)
            got = _compiled_step(u, v, flux_w, diff_w, a, dv_w, chi, ws)
            want = _numpy_step(u, v, flux_w, diff_w, a, dv_w, chi, ref)
            moved = want[0][1:-1] != u[1:-1]
            assert 0 < moved.sum() < n - 2, (c, a, moved.sum())
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), (c, a)
            assert got[2:] == want[2:], (c, a)


def same_bits_but_nan(got, want):
    """The same bits where want is not nan, and nan where it is: a nan's sign
    and payload may differ between the kernels, its place may not."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and same_bits(got[~nan], want[~nan])


def check_two_steps(u, v, flux_w, diff_w, a, dv_w, chi=1.7):
    """Two chained steps of the compiled kernel against the numpy stages, bit
    for bit with the factor's head, on a workspace whose two output pairs and
    factor hold nan before the first step: a node that a step skips and does
    not write, or a factor row past the head that a sweep reads, shows as a
    nan."""
    n = u.size
    ws = _Workspace(n)
    for x in (*ws.u_out, *ws.v_out, ws.d, ws.e):
        x.fill(np.nan)
    got, want = (u, v), (u, v)
    for pair in (0, 1):  # the second step writes the other output pair
        ref = numpy_workspace(n)
        got = _compiled_step(got[0], got[1], flux_w, diff_w, a, dv_w, chi, ws)
        with np.errstate(all="ignore"):
            want = _numpy_step(want[0], want[1], flux_w, diff_w, a, dv_w, chi, ref)
        assert got[0] is ws.u_out[pair] and got[1] is ws.v_out[pair]
        assert same_factor_head(ws, ref, a), pair
        assert same_bits_but_nan(got[0], want[0]) and same_bits_but_nan(got[1], want[1]), pair
        # min(u_new) of +0.0 and -0.0 may be either, as in the other parity tests
        same_min = got[2] == want[2] or (math.isnan(got[2]) and math.isnan(want[2]))
        assert same_min and got[3] == want[3], (pair, got[2:], want[2:])
        assert same_or_both_nan(got[4], want[4]), (pair, got[4], want[4])


def plateau_state(n, left, right, p_left, p_right, seed):
    """A random state whose first p_left nodes carry the end state left = (u, v)
    and whose last p_right carry right."""
    u, v = random_state(n, seed)
    u[:p_left], v[:p_left] = left
    u[n - p_right:], v[n - p_right:] = right
    return u, v


def block_margin_of(a, m):
    """g, the rows a block of the solve of a adds on each side, for m rows."""
    d = np.empty(m)
    _ldl_pivots(a, d)
    return solver._block_margin(a / d[-1], m)


# end states: fig1's far fields, and a steep jump on each side, where δ at a
# block's last margin row is far above the dead band of the small end u and
# above the last digit of v = 0, so that one row skipped too many changes v_new
PLATEAU_ENDS = (((2.0, 0.0), (1.0, 1.0)), ((1e6, 0.3), (1e-9, 0.0)), ((1e-9, 0.0), (1e6, 0.3)))


@pytest.mark.parametrize("a", [0.05, 1.24, 36.0, 3000.0])
@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_the_compiled_step_skips_only_the_plateaus_that_keep_their_bits(stages, a, theta):
    # a step skips a plateau of p nodes when p > g + 3 (g the block margin):
    # plateaus of g+1 .. g+5 nodes fall on both sides of that edge, the long
    # ones and the constant state skip most of the grid, and at a = 3000 the
    # margin is the whole grid, so nothing is skipped
    n = 1201
    m = n - 2
    g = block_margin_of(a, m)
    assert (g >= m) == (a == 3000.0)
    dx, dt, chi = 0.05, 0.004, 1.7
    flux_w, diff_w, dv_w = dt * chi / (2.0 * dx), a * (1.0 - theta) / theta, dt / (2.0 * dx)
    lengths = sorted({min(g + j, n // 3) for j in range(1, 6)})
    for seed, (left, right) in enumerate(PLATEAU_ENDS):
        pairs = [(p, q) for p in lengths for q in lengths] + [(n // 2 - 10, n // 2 - 10), (n, 0)]
        for p_left, p_right in pairs:
            u, v = plateau_state(n, left, right, p_left, p_right, seed)
            check_two_steps(u, v, flux_w, diff_w, a, dv_w, chi)


@pytest.mark.parametrize("case", [
    "v -0.0 at the end", "v -0.0 inside", "u 0 at the end", "u -0.0 at the end",
    "u 1e308 at the end", "flux_w inf", "flux_w nan", "diff_w inf", "dv_w inf",
])
@pytest.mark.parametrize("a", [0.05, 1.24])
def test_the_compiled_step_steps_the_plateaus_that_may_change(stages, case, a):
    # each of these plateaus, or each plateau under these weights, may change
    # its bits in a step, so the compiled step must step it as numpy does:
    # -0.0 + +0.0 is +0.0, u + u overflows to inf, and inf*0 is nan.  A v of
    # -0.0 inside a +0.0 plateau is equal to the end's by ==, not by bits, and
    # keeps its -0.0 for a negative dv_w
    n = 201
    dx, dt, chi = 0.05, 0.004, 1.7
    weights = {"flux_w": dt * chi / (2.0 * dx), "diff_w": 0.0, "dv_w": dt / (2.0 * dx)}
    end = (1.5, 0.0)
    if case.startswith("u "):
        end = ({"0": 0.0, "-0.0": -0.0, "1e308": 1e308}[case.split()[1]], 0.5)
    elif case == "v -0.0 at the end":
        end = (1.5, -0.0)
    elif case.split()[0] in weights:
        weights[case.split()[0]] = float(case.split()[1])
    u, v = plateau_state(n, end, end, 80, 80, 3)
    if case == "v -0.0 inside":
        v[20] = v[n - 21] = -0.0
    flux_w, diff_w, dv_w = weights["flux_w"], weights["diff_w"], weights["dv_w"]
    for w in (dv_w, -dv_w):
        check_two_steps(u, v, flux_w, diff_w, a, w, chi)


@pytest.mark.parametrize("a", [1e-12, 0.05, 0.3, 1.24, 36.0])
def test_the_block_solve_matches_the_full_system(a):
    # the blocks drop a coupling of about a*2**-64 of δ, and leave the rows past
    # their margins at the right-hand side's zero
    m = 400
    ws = numpy_workspace(m + 2)
    lap = np.diag(np.full(m, -2.0)) + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
    rhs = np.zeros(m)
    rows = [3, 150, 160, 300]
    rhs[rows] = [1.0, -0.5, 0.25, 2.0]
    x = rhs.copy()
    assert _implicit_solve(x, a, ws) == 0
    want = np.linalg.solve(np.eye(m) - a * lap, rhs)
    assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max(), a
    g = solver._block_margin(-float(ws.e[-1]), m)
    far = np.min(np.abs(np.arange(m)[:, None] - np.array(rows)), axis=1) > g
    assert np.all(x[far] == 0.0) and (g >= m or far.any()), (a, g)


def test_a_shrinking_pivot_head_leaves_no_stale_entry(stages):
    # k falls from 93 (a = 30) to 17 (a = 0.83) to 0 (a = 0): the rows the
    # last a wrote past the new head keep their stale values, which no sweep
    # may read
    n = 4001
    ws = _Workspace(n)
    assert ws.lib is stages
    rhs = 1.0 + np.random.default_rng(7).random(n - 2)
    for a in SHRINKING_AS:
        ref = numpy_workspace(n)
        x, y = rhs.copy(), rhs.copy()
        stepped_solve(x, a, 1.0, 2.0, ws)
        stepped_solve(y, a, 1.0, 2.0, ref)
        assert same_factor_head(ws, ref, a), a
        assert same_bits(x, y), a


def kernel_workspaces(n):
    """A workspace and its step for the numpy stages, and for the compiled
    step where the library builds."""
    found = [(numpy_workspace(n), _numpy_step)]
    if solver._load_stages() is not None:
        found.append((_Workspace(n), _compiled_step))
    return found


def held_arrays(ws):
    """The arrays that ws references, directly or through tuples, lists and dicts."""
    held, stack, seen = {}, [ws], set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            held[id(x)] = x
        elif isinstance(x, (_Workspace, tuple, list, dict)):
            stack.extend(gc.get_referents(x))
    return held


def test_the_address_table_keeps_only_buffers_the_workspace_holds(stages):
    # the table is keyed by id: a key whose array was freed could be the id of
    # a later input array, which would then be given the dead buffer's address
    n = 41
    ws = _Workspace(n)
    u, v = random_state(n, 13)
    for i in range(100):
        u, v = u.copy(), v.copy()  # fresh inputs, free to take a freed array's id
        assert ws.ptr(u) == u.ctypes.data and ws.ptr(v) == v.ctypes.data, i
        _compiled_step(u, v, 1e-3, 1e-3, 0.1 * (i % 8 + 1), 1e-3, 1.0, ws)
        held = held_arrays(ws)
        assert set(ws._addr) <= set(held), i
        assert all(held[key].ctypes.data == addr for key, addr in ws._addr.items())


@pytest.mark.parametrize("where, value", [
    (where, value) for where in ("u out", "v out") for value in (np.nan, np.inf, -np.inf)
] + [
    # a step's input is finite but for overflow: a nan input would make dt nan
    (where, value) for where in ("u in", "v in") for value in (np.inf, -np.inf)
])
def test_a_non_finite_value_fails_alike_on_both_paths(stages, monkeypatch, where, value):
    n = 41
    g = GridSpec(0.0, 10.0, n)
    u, v = random_state(n, 5)
    cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0)
    name, when = where.split()
    if when == "in":
        (u if name == "u" else v)[17] = value
    else:  # planted into what the solve or the v update wrote
        stage = "_implicit_solve" if name == "u" else "_update_v"
        real = getattr(solver, stage)

        def planted(*args):
            out = real(*args)
            if name == "u":
                args[0][16] = value  # the solve's interior view: node 17
            else:
                out[17] = value
            return out

        monkeypatch.setattr(solver, stage, planted)
        # and on the compiled path, into what its one call wrote
        monkeypatch.setattr(solver, "_compiled_step",
                            _plant_in_compiled_step(solver._compiled_step, name, 17, value))
    errors = []
    for ws in (_Workspace(n), numpy_workspace(n)):
        with pytest.raises(NumericalError) as info, np.errstate(invalid="ignore"):
            _advance(u, v, solver._speed_bound(u, v, P1.chi), 0.0, 1, g, P1, cfg, None, ws)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    if when == "out":
        assert f"non-finite {name} at node 17 after step 1" in errors[0][1]


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_an_overflowing_diffusion_weight_fails_on_both_paths(monkeypatch, theta):
    # a = theta*D*dt/dx**2 overflows to inf: the step fails before any factor is
    # taken, so neither the numpy pivots nor the compiled library are called
    n = 41
    g = GridSpec(0.0, 0.4, n)
    p = ModelParams.from_chi(1e308, 1.0)
    cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0, diffusion_theta=theta)
    u, v = random_state(n, 9)
    pivots = []
    real = solver._ldl_pivots
    monkeypatch.setattr(solver, "_ldl_pivots", lambda a, d: pivots.append(a) or real(a, d))
    for ws, _ in kernel_workspaces(n):
        if ws.lib is not None:
            ws.lib = CountingLibrary(ws.lib)
        with pytest.raises(NumericalError, match=r"diffusion weights a=inf, diff_w=.* are not "
                           r"finite on step 3 \(t=0.5, dt=\d"):
            _advance(u, v, solver._speed_bound(u, v, p.chi), 0.5, 3, g, p, cfg, None, ws)
        assert ws.lib is None or ws.lib.calls == {}
    assert pivots == []


def test_a_step_that_does_not_advance_t_fails_on_both_paths(stages, monkeypatch):
    n = 41
    g = GridSpec(0.0, 10.0, n)
    cfg = SchemeConfig(t_end=1.0, snapshot_interval=1.0)
    huge_v = SimState(Field.constant(g, 1.0), Field.constant(g, 1e160), 0.0)
    u, v = random_state(n, 7)
    for ws in (_Workspace(n), numpy_workspace(n)):
        # the speed bound overflows to inf, so dt = 0
        with pytest.raises(NumericalError, match="does not advance t=0 on step 1"), \
                np.errstate(over="ignore"):
            u1, v1 = huge_v.u.values, huge_v.v.values
            _advance(u1, v1, solver._speed_bound(u1, v1, P1.chi), 0.0, 1, g, P1, cfg, None, ws)
        # dt is below the last digit of t
        with pytest.raises(NumericalError, match="does not advance t=1e\\+20 on step 5"):
            _advance(u, v, solver._speed_bound(u, v, P1.chi), 1e20, 5, g, P1, cfg, None, ws)
    # run() without a callback used to loop for ever on dt = 0
    for path in ("compiled", "numpy"):
        if path == "numpy":
            monkeypatch.setattr(solver, "_load_stages", lambda: None)
        with pytest.raises(NumericalError, match="does not advance"), np.errstate(over="ignore"):
            run(huge_v, P1, cfg)


def _thm21_like(n_nodes):
    cp = scenarios.read_config(Path(__file__).resolve().parent.parent / "scenarios" / "thm21.cfg")
    cp["grid"]["n_nodes"] = str(n_nodes)
    cp["scheme"].update(t_end="4", snapshot_interval="1")
    cfg = scenarios.scenario_from_config(cp, "thm21.cfg")
    return scenarios.build_initial(cfg), cfg.params, cfg.scheme


def run_on_both_paths(monkeypatch, state, params, scheme):
    """The report of a compiled run of the data, after checking that a numpy
    run gives every snapshot and prev with the same bits."""
    def snapshots():
        seen = []
        report = run(state, params, scheme, lambda i, s, prev: seen.append((s, prev)))
        return report, seen

    compiled, seen_c = snapshots()
    monkeypatch.setattr(solver, "_load_stages", lambda: None)
    reference, seen_n = snapshots()
    assert (compiled.step_kernel, reference.step_kernel) == ("compiled", "numpy")
    assert compiled.step_count == reference.step_count
    assert compiled.min_u == reference.min_u
    assert len(seen_c) == len(seen_n) == compiled.snapshot_count
    for (s, prev), (s_ref, prev_ref) in zip(seen_c, seen_n):
        assert s.t == s_ref.t
        assert same_bits(s.u.values, s_ref.u.values) and same_bits(s.v.values, s_ref.v.values)
        assert (prev is None) == (prev_ref is None)
        if prev is not None:
            assert same_bits(prev.u.values, prev_ref.u.values)
            assert same_bits(prev.v.values, prev_ref.v.values)
    return compiled


def test_run_is_the_same_on_both_paths(stages, monkeypatch):
    compiled = run_on_both_paths(monkeypatch, *_thm21_like(1001))
    assert compiled.step_count > 40 and compiled.snapshot_count == 5


def _plateau_length(u, v, end):
    """The number of nodes from node 0 (end = 0) or node n - 1 (end = -1) on
    whose u and v carry that node's bits."""
    bits = np.stack([u.view(np.uint64), v.view(np.uint64)])
    if end:
        bits = bits[:, ::-1]
    off = np.flatnonzero((bits != bits[:, :1]).any(axis=0))
    return int(off[0]) if off.size else u.size


def test_a_jump_run_is_the_same_on_both_paths_as_its_plateaus_shrink(stages, monkeypatch):
    # fig1's far fields at n = 401: each plateau starts longer than the skip's
    # margins and shrinks through them, the left one within ~90 steps and the
    # right one near the end
    g = GridSpec(0.0, 200.0, 401)
    x = g.nodes()
    state = SimState(Field(g, np.where(x < 60.0, 2.0, 1.0)), Field(g, np.where(x < 60.0, 0.0, 1.0)),
                     0.0)
    skips = []
    real = solver._compiled_step

    def recording(u, v, flux_w, diff_w, a, dv_w, chi, ws):
        out = real(u, v, flux_w, diff_w, a, dv_w, chi, ws)
        margin = block_margin_of(a, u.size - 2) + 3
        skips.append((_plateau_length(u, v, 0) > margin, _plateau_length(u, v, -1) > margin))
        return out

    monkeypatch.setattr(solver, "_compiled_step", recording)
    compiled = run_on_both_paths(monkeypatch, state, P1,
                                 SchemeConfig(t_end=120.0, snapshot_interval=10.0))
    assert len(skips) == compiled.step_count > 900 and compiled.snapshot_count == 13
    assert skips[0] == (True, True) and skips[-1] == (False, False)


def test_the_ends_keep_the_initial_values_on_both_paths(stages, monkeypatch):
    # no caller states the boundary: each step keeps its input's end values
    g = GridSpec(0.0, 10.0, 201)
    u0, v0 = np.linspace(2.0, 1.0, 201), np.linspace(0.3, 1.0, 201)
    state = SimState(Field(g, u0), Field(g, v0), 0.0)
    cfg = SchemeConfig(t_end=1.0, snapshot_interval=0.25)
    for kernel in ("compiled", "numpy"):
        if kernel == "numpy":
            monkeypatch.setattr(solver, "_load_stages", lambda: None)
        seen = []
        report = run(state, P1, cfg, lambda i, s, prev: seen.append(s))
        assert report.step_kernel == kernel and report.step_count > 10 and len(seen) == 5
        for s in seen:
            for got, data in ((s.u.values, state.u.values), (s.v.values, state.v.values)):
                assert same_bits(got[[0, -1]], data[[0, -1]]), (kernel, s.t)
        # the flux moves the nodes next to the ends, so pinning them matters
        assert seen[-1].u.values[1] != state.u.values[1]


def test_a_failed_build_falls_back_to_the_numpy_stages(stages, monkeypatch, tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG)
    assert main(["run", str(cfg), "--out", str(tmp_path / "compiled")]) == 0

    monkeypatch.setenv("CC", "false")  # a compiler that always fails
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
    solver._load_stages.cache_clear()
    assert main(["run", str(cfg), "--out", str(tmp_path / "numpy")]) == 0
    assert solver._load_stages() is None

    def outputs(kernel):
        files = {path.name: path.read_text().splitlines()
                 for path in sorted((tmp_path / kernel).iterdir())}
        manifest = files["manifest.txt"]
        manifest.remove(f"step_kernel = {kernel}")  # ValueError when the other ran
        manifest[:] = [x for x in manifest if not x.startswith(
            ("snapshot_write_s =", "wall_time_s ="))]
        return files

    assert outputs("compiled") == outputs("numpy")


def test_a_build_deletes_the_stale_libraries(stages, monkeypatch, tmp_path):
    cache = tmp_path / "fresh" / "chemoshock"
    cache.mkdir(parents=True, mode=0o700)
    stale = cache / "stages-0.so"
    stale.write_bytes(b"")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "fresh"))
    solver._load_stages.cache_clear()
    assert solver._load_stages() is not None
    assert not stale.exists()
    assert len(list(cache.glob("stages-*.so"))) == 1


def test_a_failed_build_is_tried_once(monkeypatch, tmp_path):
    log = tmp_path / "cc.log"
    fake_cc = tmp_path / "fake_cc.py"  # counts its calls, then fails like a broken compiler
    fake_cc.write_text(f"import sys\nopen({str(log)!r}, 'a').write('call\\n')\n"
                       "sys.exit('fake_cc: no such luck')\n")
    monkeypatch.setenv("CC", f"{sys.executable} {fake_cc}")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    try:
        for _ in range(2):
            solver._load_stages.cache_clear()
            assert solver._load_stages() is None
    finally:
        solver._load_stages.cache_clear()  # the next load reads the restored environment
    assert log.read_text() == "call\n"
    (marker,) = (tmp_path / "cache" / "chemoshock").glob("stages-*.failed")
    assert b"fake_cc: no such luck" in marker.read_bytes()


def test_validate_neither_builds_nor_loads_the_stages(tmp_path):
    root = Path(__file__).resolve().parent.parent
    log = tmp_path / "cc.log"
    fake_cc = tmp_path / "fake_cc.py"  # logs each call, then fails like a broken compiler
    fake_cc.write_text(f"import sys\nopen({str(log)!r}, 'a').write(' '.join(sys.argv) + '\\n')\n"
                       "sys.exit(1)\n")
    code = """
import json, sys
from chemoshock import solver
from chemoshock.cli import main
assert main(["validate", sys.argv[1]]) == 0
print(json.dumps(solver._load_stages.cache_info().misses))
"""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), XDG_CACHE_HOME=str(tmp_path / "cache"),
               CC=f"{sys.executable} {fake_cc}")
    proc = subprocess.run([sys.executable, "-B", "-c", code, str(root / "scenarios" / "thm22.cfg")],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == 0
    assert not log.exists() and not (tmp_path / "cache").exists()

    # the same fake compiler is called by a run, which then takes the numpy stages
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG)
    subprocess.run([sys.executable, "-B", "-m", "chemoshock.cli", "run", str(cfg),
                    "--out", str(tmp_path / "out")],
                   env=env, capture_output=True, timeout=120, check=True)
    assert log.read_text().split()[-1].endswith("_stages.c")
    assert "step_kernel = numpy" in (tmp_path / "out" / "manifest.txt").read_text()


# numpy's AVX-512 code, which NPY_DISABLE_CPU_FEATURES can switch off
_NUMPY_AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")


def _numpy_cpu_features():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


@pytest.mark.parametrize("kernel_name", ["compiled", "numpy"])
def test_snapshots_do_not_depend_on_numpy_simd_level(request, tmp_path, kernel_name):
    # jump data in two fresh interpreters, one with numpy's AVX-512 code
    # switched off: no step takes a numpy transcendental, so the files agree
    enabled = [f for f in _NUMPY_AVX512 if _numpy_cpu_features().get(f)]
    if not enabled:
        pytest.skip("numpy runs none of its AVX-512 code here")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    if kernel_name == "compiled":
        request.getfixturevalue("stages")  # built into the session's cache, which env names
    else:
        env.update(CC="false", XDG_CACHE_HOME=str(tmp_path / "empty"))
    cfg = tmp_path / "jump.cfg"
    cfg.write_text(SMALL_CFG.replace("t_end = 2", "t_end = 20")
                   .replace("snapshot_interval = 1", "snapshot_interval = 2"))
    snapshots = []
    for features in (None, " ".join(enabled)):
        out = tmp_path / ("avx512_off" if features else "native")
        child = dict(env, NPY_DISABLE_CPU_FEATURES=features) if features else env
        subprocess.run([sys.executable, "-B", "-m", "chemoshock.cli", "run", str(cfg),
                        "--out", str(out)], env=child, capture_output=True, timeout=120, check=True)
        assert f"step_kernel = {kernel_name}" in (out / "manifest.txt").read_text()
        snapshots.append({p.name: p.read_bytes() for p in sorted(out.glob("snap_*.dat"))})
    assert len(snapshots[0]) == 11
    assert snapshots[0] == snapshots[1]

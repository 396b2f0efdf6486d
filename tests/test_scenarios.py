import csv
import errno
import importlib.util
import math
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from chemoshock import _native, diagnostics, scenarios
from chemoshock.cole_hopf import from_v
from chemoshock.core import ConfigError, GridSpec, ModelParams, NumericalError, write_snapshot
from chemoshock.diagnostics import ConstantReference, front_position, read_series, shift_x0
from chemoshock.scenarios import (
    SWEEP_COLUMNS,
    ScenarioConfig,
    build_initial,
    parse_scenario,
    read_config,
    read_manifest,
    run_scenario,
    sweep,
    wire_reference,
)
from chemoshock.solver import SchemeConfig, run
from chemoshock.waves import TravelingWave

GRID = GridSpec(0.0, 400.0, 4001)
P1 = ModelParams.from_chi(1.0, 1.0)


def scenario(kind, initial_params, **kwargs):
    defaults = dict(
        name="test",
        grid=GRID,
        params=P1,
        scheme=SchemeConfig(t_end=1.0, snapshot_interval=1.0),
        initial_kind=kind,
        initial_params=initial_params,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def small_scenario(**kwargs):
    base = dict(
        name="small",
        grid=GridSpec(0.0, 40.0, 201),
        params=P1,
        scheme=SchemeConfig(t_end=2.0, snapshot_interval=0.5),
        initial_kind="piecewise_constant",
        initial_params=dict(jump_x=10.0, u_left=2.0, u_right=1.0, v_left=0.0, v_right=1.0),
        probe_center=10.0,
        probe_halfwidth=2.0,
    )
    base.update(kwargs)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# initial data builders
# ---------------------------------------------------------------------------


def test_piecewise_constant_jump_with_averaged_node():
    vleft = (3.0 - math.sqrt(3.0)) / 2.0
    cfg = scenario(
        "piecewise_constant",
        dict(jump_x=50.0, u_left=2.0, u_right=1.0, v_left=vleft, v_right=2.0),
    )
    state = build_initial(cfg)
    x = GRID.nodes()
    j = 500  # x = 50
    assert np.all(state.u.values[:j] == 2.0)
    assert state.u.values[j] == 1.5
    assert np.all(state.u.values[j + 1 :] == 1.0)
    assert np.all(state.v.values[:j] == vleft)
    assert state.v.values[j] == pytest.approx((vleft + 2.0) / 2.0)
    assert np.all(state.v.values[j + 1 :] == 2.0)
    assert state.u.values[0] == 2.0 and state.v.values[-1] == 2.0
    assert x[j] == pytest.approx(50.0)


def test_ramp_linear_interpolation_values():
    vleft = (3.0 - math.sqrt(3.0)) / 2.0
    cfg = scenario(
        "ramp_h1",
        dict(ramp_start=20.0, ramp_end=40.0, u_left=2.0, u_right=1.0,
             v_left=vleft, v_right=2.0),
    )
    state = build_initial(cfg)
    x = GRID.nodes()
    mid = (x > 20.0) & (x < 40.0)
    assert np.abs(state.u.values[mid] - (-x[mid] / 20.0 + 3.0)).max() < 1e-12
    expected_v = (1.0 + math.sqrt(3.0)) / 40.0 * x[mid] + 1.0 - math.sqrt(3.0)
    assert np.abs(state.v.values[mid] - expected_v).max() < 1e-12
    assert np.all(state.u.values[x <= 20.0] == 2.0)
    assert np.all(state.u.values[x >= 40.0] == 1.0)


def test_constant_plus_jump_without_amplitude_is_ground_state():
    cfg = scenario("constant_plus_jump", dict())
    state = build_initial(cfg)
    assert np.all(state.u.values == 1.0)
    assert np.all(state.v.values == 0.0)
    ends = (state.u.values[0], state.v.values[0], state.u.values[-1], state.v.values[-1])
    assert ends == (1.0, 0.0, 1.0, 0.0)


def test_constant_plus_jump_blocks():
    cfg = scenario(
        "constant_plus_jump",
        dict(u_block_center=150.0, u_block_width=20.0, u_amplitude=1.0,
             v_block_center=250.0, v_block_width=20.0, v_amplitude=-0.5),
    )
    state = build_initial(cfg)
    x = GRID.nodes()
    inside_u = (x > 140.0) & (x < 160.0)
    assert np.all(state.u.values[inside_u] == 2.0)
    assert state.u.values[1400] == 1.5  # x = 140 edge node takes the average
    inside_v = (x > 240.0) & (x < 260.0)
    assert np.all(state.v.values[inside_v] == -0.5)


def test_exact_wave_plus_dipole_zero_mass():
    cfg = scenario(
        "exact_wave_plus_bump",
        dict(u_minus=2.0, u_plus=1.0, v_plus=1.0, front_x=100.0,
             zero_mass="true",
             u_pert_kind="dipole", u_pert_amplitude=0.3,
             u_pert_center=120.0, u_pert_halfwidth=5.0),
    )
    state = build_initial(cfg)
    ref = wire_reference(state, P1)
    assert ref.wave is not None
    assert ref.x0 == pytest.approx(-100.0, abs=1e-6)
    assert abs(ref.beta_residual) < 1e-8


def test_wire_reference_on_equal_far_fields_is_constant_state():
    cfg = scenario(
        "constant_plus_jump",
        dict(u_base=1.0, v_base=0.5, u_amplitude=0.5, u_block_center=200.0,
             u_block_width=20.0),
    )
    state = build_initial(cfg)
    ref = wire_reference(state, P1)
    assert ref == ConstantReference(u_bar=1.0, v_bar=0.5)
    assert ref.wave is None
    assert ref.front_level is None


def test_wire_reference_on_a_shock_is_the_fitted_wave():
    cfg = scenario(
        "piecewise_constant",
        dict(jump_x=100.0, u_left=2.0, u_right=1.0, v_left=0.0, v_right=1.0),
    )
    state = build_initial(cfg)
    u, v = state.u.values, state.v.values
    ref = wire_reference(state, P1)
    wave = TravelingWave.from_end_values(u[0], u[-1], v[-1], P1)
    guess = front_position(state.u, 0.5 * (u[0] + u[-1]))
    assert ref == shift_x0(state.u, state.v, wave, base_shift=-guess)
    assert ref.front_level == 0.5 * (u[0] + u[-1])


def test_shipped_wave_scenario_satisfies_zero_integral_hypothesis(scenario_dir):
    # the stability scenario is built so the perturbation anti-derivatives
    # vanish at the right end once the shift is applied
    from chemoshock.diagnostics import antiderivatives

    cfg = parse_scenario(scenario_dir / "thm22.cfg")
    state = build_initial(cfg)
    ref = wire_reference(state, cfg.params)
    pair = antiderivatives(state.u, state.v, ref.wave, ref.x0, 0.0)
    assert abs(pair.zero_mass_residual[0]) < 1e-8
    assert abs(pair.zero_mass_residual[1]) < 1e-8


def test_zero_mass_flag_rejects_net_mass_perturbation():
    cfg = scenario(
        "exact_wave_plus_bump",
        dict(u_minus=2.0, u_plus=1.0, v_plus=1.0, front_x=100.0,
             zero_mass="true",
             u_pert_kind="block", u_pert_amplitude=0.3,
             u_pert_center=120.0, u_pert_width=10.0),
    )
    with pytest.raises(ConfigError, match="zero_mass"):
        build_initial(cfg)


@pytest.mark.parametrize("flag, enforced", [
    ("on", True), ("Yes", True), ("1", True), ("off", False), ("0", False),
])
def test_zero_mass_takes_configparser_booleans(flag, enforced):
    cfg = scenario(
        "exact_wave_plus_bump",
        dict(u_minus=2.0, u_plus=1.0, v_plus=1.0, front_x=100.0, zero_mass=flag,
             u_pert_kind="block", u_pert_amplitude=0.3,
             u_pert_center=120.0, u_pert_width=10.0),
    )
    if enforced:
        with pytest.raises(ConfigError, match="violates zero_mass"):
            build_initial(cfg)
    else:
        build_initial(cfg)
    with pytest.raises(ConfigError, match=r"bad value for \[initial\]:zero_mass"):
        build_initial(replace(cfg, initial_params={**cfg.initial_params, "zero_mass": "ture"}))


def test_nonpositive_initial_density_rejected():
    cfg = scenario(
        "constant_plus_jump",
        dict(u_block_center=200.0, u_block_width=20.0, u_amplitude=-2.0),
    )
    with pytest.raises(ConfigError, match="positive"):
        build_initial(cfg)


def test_from_file_initial_data(tmp_path):
    src = small_scenario()
    state = build_initial(src)
    path = tmp_path / "restart.dat"
    write_snapshot(path, state)
    cfg = small_scenario(initial_kind="from_file", initial_params=dict(path=str(path)))
    loaded = build_initial(cfg)
    assert np.allclose(loaded.u.values, state.u.values, rtol=0, atol=1e-16)
    assert np.allclose(loaded.v.values, state.v.values, rtol=0, atol=1e-16)

    wrong = small_scenario(
        grid=GridSpec(0.0, 40.0, 101),
        initial_kind="from_file",
        initial_params=dict(path=str(path)),
    )
    with pytest.raises(ConfigError, match="does not match"):
        build_initial(wrong)


def test_from_file_rejects_a_non_numeric_row(tmp_path):
    path = tmp_path / "restart.dat"
    write_snapshot(path, build_initial(small_scenario()))
    lines = path.read_text().splitlines()
    lines[3] = "1.0 abc 0.5"
    path.write_text("\n".join(lines) + "\n")
    cfg = small_scenario(initial_kind="from_file", initial_params=dict(path=str(path)))
    with pytest.raises(ConfigError, match="restart.dat"):
        build_initial(cfg)


def test_mollified_initial_data_smooths_jump():
    cfg = small_scenario(mollify_delta=1.0)
    state = build_initial(cfg)
    rough = build_initial(small_scenario())
    assert np.abs(np.diff(state.u.values)).max() < np.abs(np.diff(rough.u.values)).max()


@pytest.mark.parametrize("field, value", [
    ("mollify_delta", math.nan),
    ("mollify_delta", math.inf),
    ("probe_center", math.nan),
    ("probe_center", -math.inf),
])
def test_scenario_config_rejects_non_finite_values(field, value):
    with pytest.raises(ConfigError, match=field):
        small_scenario(**{field: value})


def test_initial_params_are_typed_on_construction():
    text = dict(jump_x="10", u_left="2", u_right="1", v_left="0", v_right="1")
    cfg = small_scenario(initial_params=text)
    assert cfg.initial_params == dict(jump_x=10.0, u_left=2.0, u_right=1.0, v_left=0.0,
                                      v_right=1.0)
    assert type(cfg.initial_params["jump_x"]) is float
    assert text["jump_x"] == "10"  # the caller's dict is not changed
    wave = scenario("exact_wave_plus_bump", dict(u_minus="2", u_plus="1", v_plus="1",
                                                 front_x="100", zero_mass="on",
                                                 u_pert_kind="dipole"))
    assert wave.initial_params["zero_mass"] is True
    assert wave.initial_params["u_pert_kind"] == "dipole"
    # replace re-types the typed values as themselves
    assert replace(wave, name="other").initial_params == wave.initial_params


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="initial_kind"):
        small_scenario(initial_kind="bogus")


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------


def _benchmark_workloads(repo_root, monkeypatch):
    """perfbench/workloads.py, imported without writing bytecode next to it."""
    path = repo_root / "perfbench" / "workloads.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_parse_shipped_scenarios(scenario_dir, tmp_path, monkeypatch):
    paths = [scenario_dir / f"{name}.cfg"
             for name in ("fig1_paper", "fig1_consistent", "fig3", "fig3_consistent",
                          "thm21", "thm22", "wave_reference")]
    # the benchmark's generated configs use the same config surface
    workloads = _benchmark_workloads(scenario_dir.parent, monkeypatch)
    paths += [workloads.write_config(name, 0, tmp_path) for name in workloads.WORKLOADS]
    assert len(paths) == 10
    for path in paths:
        cfg = parse_scenario(path)
        build_initial(cfg)  # no errors


def test_parse_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_scenario(tmp_path / "nope.cfg")


def test_parse_rejects_missing_sections(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("[scenario]\nname = x\n")
    with pytest.raises(ConfigError, match="section"):
        parse_scenario(path)


def test_parse_reads_values(scenario_dir):
    cfg = parse_scenario(scenario_dir / "thm22.cfg")
    assert cfg.name == "thm22"
    assert cfg.grid.n_nodes == 4001
    assert cfg.scheme.t_end == 200.0
    assert cfg.initial_kind == "exact_wave_plus_bump"
    assert cfg.declared_states is not None
    assert cfg.probe_center == 120.0


# ---------------------------------------------------------------------------
# run_scenario and the manifest
# ---------------------------------------------------------------------------


def test_run_scenario_outputs(tmp_path):
    cfg = small_scenario()
    manifest, _ = run_scenario(cfg, tmp_path / "out")
    out = tmp_path / "out"
    assert (out / "manifest.txt").exists()
    assert (out / "series.csv").exists()
    snaps = sorted(out.glob("snap_*.dat"))
    assert len(snaps) == 5  # t = 0, 0.5, 1.0, 1.5, 2.0
    assert manifest["snapshot_count"] == 5
    on_disk = read_manifest(out / "manifest.txt")
    assert list(on_disk) == list(manifest)
    # six decimals, so the manifest's size does not depend on the run time
    assert on_disk["wall_time_s"] == "%.6f" % manifest["wall_time_s"]
    series = read_series(out / "series.csv")
    assert series["t"][-1] == 2.0
    assert np.all(series["sigma"] == np.minimum(1.0, series["t"]))


@pytest.fixture
def printer(stages):
    """Skips where the compiled snapshot printer is not built."""
    if _native.snapshot_printer() is None:
        pytest.skip("the compiled snapshot printer is not built here")


@pytest.fixture(params=["compiled", "python"])
def either_printer(request, monkeypatch):
    """Each snapshot printer in turn: the compiled one, and the Python one
    that runs when the library does not load."""
    if request.param == "compiled":
        request.getfixturevalue("printer")
    else:
        monkeypatch.setattr(_native, "_load_stages", lambda: None)  # as when CC=false


def test_series_survives_a_failed_snapshot_write(either_printer, tmp_path, monkeypatch):
    real = scenarios.write_snapshot
    written = []

    def third_fails(path, state, c=None):
        if len(written) == 2:
            raise OSError("disk full")
        written.append(path)
        real(path, state, c=c)

    monkeypatch.setattr(scenarios, "write_snapshot", third_fails)
    with pytest.raises(OSError, match="disk full"):
        run_scenario(small_scenario(), tmp_path / "out")
    series = read_series(tmp_path / "out" / "series.csv")
    assert list(series["t"]) == [0.0, 0.5]
    assert not (tmp_path / "out" / "manifest.txt").exists()


@pytest.mark.parametrize("error, code", [
    (OSError, errno.EFBIG),  # as when the file size limit cuts a write short
    (PermissionError, errno.EACCES),
], ids=["EFBIG", "EACCES"])
def test_a_failed_write_removes_its_partial_file_and_names_it(either_printer, tmp_path,
                                                             monkeypatch, error, code):
    real = scenarios.write_snapshot
    calls = []

    def third_fails_after_writing(path, state, c=None):
        calls.append(path)
        real(path, state, c=c)
        if len(calls) == 3:
            raise error(code, os.strerror(code))

    monkeypatch.setattr(scenarios, "write_snapshot", third_fails_after_writing)
    out = tmp_path / "out"
    with pytest.raises(error) as caught:
        run_scenario(small_scenario(), out)
    assert type(caught.value) is error
    assert caught.value.errno == code
    assert caught.value.filename == str(out / "snap_0002.dat")
    assert "snap_0002.dat" in str(caught.value)
    assert sorted(path.name for path in out.glob("snap_*.dat")) == ["snap_0000.dat",
                                                                   "snap_0001.dat"]
    assert list(read_series(out / "series.csv")["t"]) == [0.0, 0.5]
    assert not (out / "manifest.txt").exists()


def test_run_scenario_writes_the_same_files_as_write_snapshot(printer, tmp_path):
    cfg = small_scenario()
    run_scenario(cfg, tmp_path / "out", emit_c=True)

    def direct(index, state, prev):
        c = from_v(state.v, cfg.params.mu, c_ref=1.0, x_ref_index=0)
        write_snapshot(tmp_path / f"direct_{index:04d}.dat", state, c=c)

    run(build_initial(cfg), cfg.params, cfg.scheme, direct)
    files = sorted((tmp_path / "out").glob("snap_*.dat"))
    assert [path.name for path in files] == [f"snap_{i:04d}.dat" for i in range(5)]
    for i, path in enumerate(files):
        assert path.read_bytes() == (tmp_path / f"direct_{i:04d}.dat").read_bytes()


@pytest.mark.parametrize("fails, on_disk", [
    ("snap_0004.dat", 4),  # the last write
    ("snap_0002.dat", 2),  # the run stops there: snapshot 3 is never reached
])
def test_a_failed_write_leaves_one_series_row_per_file(either_printer, tmp_path, monkeypatch,
                                                       fails, on_disk):
    real = scenarios.write_snapshot
    real_record = diagnostics.assemble_record
    assembled = []

    def flaky(path, state, c=None):
        if path.name == fails:
            raise OSError("disk full")
        real(path, state, c=c)

    def counted(*args, **kwargs):
        assembled.append(args[0].t)
        return real_record(*args, **kwargs)

    start = threading.active_count()
    monkeypatch.setattr(scenarios, "write_snapshot", flaky)
    monkeypatch.setattr(diagnostics, "assemble_record", counted)
    out = tmp_path / "out"
    with pytest.raises(OSError, match="disk full"):
        run_scenario(small_scenario(), out)
    assert len(list(out.glob("snap_*.dat"))) == on_disk
    assert len(read_series(out / "series.csv")["t"]) == on_disk
    assert len(assembled) == on_disk + 1  # the failed snapshot's record, and no later one
    assert not (out / "manifest.txt").exists()
    assert threading.active_count() == start


def test_without_the_compiled_printer_snapshots_are_written_inline(tmp_path, monkeypatch):
    monkeypatch.setattr(_native, "_load_stages", lambda: None)  # as when CC=false
    real = scenarios.write_snapshot
    threads = []

    def watched(path, state, c=None):
        threads.append(threading.current_thread())
        real(path, state, c=c)

    start = threading.active_count()
    monkeypatch.setattr(scenarios, "write_snapshot", watched)
    manifest, _ = run_scenario(small_scenario(), tmp_path / "out")
    assert threads == [threading.main_thread()] * 5
    assert threading.active_count() == start
    assert manifest["snapshot_write_s"] > 0


@pytest.mark.parametrize("compiled", [True, False])
def test_a_run_starts_one_writer_thread_or_none(request, tmp_path, monkeypatch, compiled):
    """No printer starts a thread: every snapshot is written on the main thread."""
    if compiled:
        request.getfixturevalue("printer")
    else:
        monkeypatch.setattr(_native, "_load_stages", lambda: None)  # as when CC=false
    real_write = scenarios.write_snapshot
    real_start = threading.Thread.start
    writers, started = [], []

    def watched(path, state, c=None):
        writers.append(threading.current_thread())
        real_write(path, state, c=c)

    def counting_start(thread):
        started.append(thread.name)
        real_start(thread)

    start = threading.active_count()
    monkeypatch.setattr(scenarios, "write_snapshot", watched)
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    _, records = run_scenario(small_scenario(), tmp_path / "out")
    assert len(records) == 5
    assert writers == [threading.main_thread()] * 5
    assert started == []
    assert threading.active_count() == start


def test_manifest_times_the_snapshot_writer(tmp_path):
    manifest, _ = run_scenario(small_scenario(), tmp_path / "out")
    timed = ["snapshot_write_s", "wall_time_s"]
    assert list(manifest)[-2:] == timed
    on_disk = read_manifest(tmp_path / "out" / "manifest.txt")
    for key in timed:
        assert on_disk[key] == "%.6f" % manifest[key]
    assert manifest["snapshot_write_s"] > 0


def test_build_initial_rejects_data_whose_speed_bound_overflows():
    # chi*|v| squared overflows past ~1e154: the CFL step would be 0
    cfg = small_scenario(initial_params=dict(jump_x=10.0, u_left=2.0, u_right=1.0,
                                             v_left=0.0, v_right=1e160))
    with pytest.raises(ConfigError, match=r"\[initial\].*speed bound overflows"):
        build_initial(cfg)


def test_run_scenario_is_deterministic(tmp_path):
    cfg = small_scenario()
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "series.csv").read_bytes() == (
        tmp_path / "b" / "series.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "snap_0004.dat").read_bytes() == (
        tmp_path / "b" / "snap_0004.dat"
    ).read_bytes()


def test_run_scenario_emit_c_adds_column(tmp_path):
    cfg = small_scenario()
    run_scenario(cfg, tmp_path / "out", emit_c=True)
    first_row = (tmp_path / "out" / "snap_0000.dat").read_text().splitlines()[1]
    assert len(first_row.split()) == 4


def wave_scenario(**kwargs):
    """The wave (u-, u+, v+) = (2, 1, 1) on [0, 60], front at x = 30."""
    base = dict(
        name="wave",
        grid=GridSpec(0.0, 60.0, 601),
        params=P1,
        scheme=SchemeConfig(t_end=26.0, snapshot_interval=13.0),
        initial_kind="exact_wave_plus_bump",
        initial_params=dict(u_minus=2.0, u_plus=1.0, v_plus=1.0, front_x=30.0),
        probe_center=30.0,
    )
    base.update(kwargs)
    return ScenarioConfig(**base)


def test_boundary_warning_when_the_front_nears_an_edge(tmp_path):
    manifest, records = run_scenario(wave_scenario(), tmp_path / "long")
    assert records[-1].front_pos > 54.0  # within 10% of x = 60
    assert manifest["boundary_warning"] is True
    assert read_manifest(tmp_path / "long" / "manifest.txt")["boundary_warning"] == "true"
    short = wave_scenario(scheme=SchemeConfig(t_end=2.0, snapshot_interval=2.0))
    manifest, _ = run_scenario(short, tmp_path / "short")
    assert manifest["boundary_warning"] is False


def test_front_is_located_once_per_snapshot(tmp_path, monkeypatch):
    calls = []
    real = diagnostics.front_position

    def counting(u, level):
        calls.append(level)
        return real(u, level)

    monkeypatch.setattr(diagnostics, "front_position", counting)
    manifest, _ = run_scenario(wave_scenario(), tmp_path / "out")
    # one per snapshot record, and one for wire_reference's shift guess
    assert len(calls) == manifest["snapshot_count"] + 1


def test_shock_scenario_reports_eleven_snapshots(fig1_consistent_run):
    cfg, manifest, series, out = fig1_consistent_run
    assert manifest["snapshot_count"] == 11
    fronts = series["front_pos"]
    assert np.all(np.diff(fronts) > 0)  # front moves right monotonically
    assert manifest["wave_present"] is True
    assert manifest["front_speed_rel_err"] < 0.05
    assert manifest["wave_s"] == pytest.approx(1.0, rel=1e-12)


def test_inconsistent_declared_states_are_reported(tmp_path, scenario_dir):
    cfg = parse_scenario(scenario_dir / "fig1_paper.cfg")
    cfg = replace(cfg, scheme=replace(cfg.scheme, t_end=2.0, snapshot_interval=1.0))
    manifest, _ = run_scenario(cfg, tmp_path / "out")
    assert manifest["declared_rh_r1"] == pytest.approx(3.0 - math.sqrt(3.0), rel=1e-12)
    assert manifest["declared_rh_r2"] == pytest.approx((3.0 - math.sqrt(3.0)) / 2.0, rel=1e-12)
    # the data itself is consistent: the fitted wave has speed sqrt(3) - 1
    assert manifest["wave_s"] == pytest.approx(math.sqrt(3.0) - 1.0, rel=1e-12)
    assert abs(manifest["wave_rh_r1"]) < 1e-10
    on_disk = read_manifest(tmp_path / "out" / "manifest.txt")
    assert float(on_disk["declared_rh_r1"]) > 1.0


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


# the scenario small_scenario() builds, as a config file
SMALL_CFG = """
[scenario]
name = small
initial_kind = piecewise_constant

[grid]
x_min = 0
x_max = 40
n_nodes = 201

[model]
D = 1
chi = 1

[scheme]
t_end = 2
snapshot_interval = 0.5

[initial]
jump_x = 10
u_left = 2
u_right = 1
v_left = 0
v_right = 1

[diagnostics]
probe_center = 10
probe_halfwidth = 2
"""


def small_config(tmp_path, text=SMALL_CFG):
    """(parsed config, path) of a small scenario file, as sweep takes them."""
    path = tmp_path / "small.cfg"
    path.write_text(text)
    return read_config(path), path


def test_sweep_empty_values(tmp_path):
    with pytest.raises(ConfigError, match="no sweep values"):
        sweep(*small_config(tmp_path), "cfl", [], tmp_path / "sw")
    assert not (tmp_path / "sw").exists()


def test_sweep_runs_variants_and_records_failures(tmp_path):
    # second value is invalid (cfl > 1) and must be recorded, not fatal
    manifests = sweep(*small_config(tmp_path), "cfl", ["0.4", "1.7"], tmp_path / "sw")
    assert len(manifests) == 1
    rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3
    assert "ok" in rows[1]
    assert "failed" in rows[2]
    assert (tmp_path / "sw" / "cfl_0.4" / "series.csv").exists()


def test_sweep_rejects_fractional_n_nodes(tmp_path):
    assert sweep(*small_config(tmp_path), "n_nodes", ["1000.7"], tmp_path / "sw") == []
    with open(tmp_path / "sw" / "sweep.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"] == "failed"
    assert row["error"] == (
        "ConfigError: bad value for [grid]:n_nodes: "
        "invalid literal for int() with base 10: '1000.7'"
    )
    assert not (tmp_path / "sw" / "n_nodes_1000.7").exists()


def test_sweep_records_numerical_failure(tmp_path, monkeypatch):
    def blow_up(cfg, out_dir, emit_c=False):
        raise NumericalError("non-finite u after step 3")

    monkeypatch.setattr(scenarios, "run_scenario", blow_up)
    assert sweep(*small_config(tmp_path), "cfl", ["0.4"], tmp_path / "sw") == []
    with open(tmp_path / "sw" / "sweep.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"] == "failed"
    assert row["error"] == "NumericalError: non-finite u after step 3"


def test_sweep_propagates_unexpected_errors(tmp_path, monkeypatch):
    def broken(cfg, out_dir, emit_c=False):
        raise TypeError("a bug, not a failed run")

    monkeypatch.setattr(scenarios, "run_scenario", broken)
    with pytest.raises(TypeError, match="a bug"):
        sweep(*small_config(tmp_path), "cfl", ["0.4"], tmp_path / "sw")


def test_sweep_row_is_final_series_row(tmp_path, scenario_dir):
    path = scenario_dir / "thm21.cfg"
    cp = read_config(path)
    cp["scheme"]["t_end"] = "10"
    values = [1001, 2001]
    sweep(cp, path, "n_nodes", [str(value) for value in values], tmp_path / "sw")
    with open(tmp_path / "sw" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(values)
    for value, row in zip(values, rows):
        assert row["status"] == "ok"
        series = read_series(tmp_path / "sw" / f"n_nodes_{value}" / "series.csv")
        assert float(row["t_final"]) == series["t"][-1]
        for name in SWEEP_COLUMNS[SWEEP_COLUMNS.index("t_final") + 1 :]:
            assert float(row[name]) == series[name][-1], name


def test_sweep_bare_and_dotted_key_give_the_same_variants(tmp_path, scenario_dir):
    path = scenario_dir / "thm21.cfg"
    cp = read_config(path)
    cp["scheme"]["t_end"] = "2"
    for axis in ("v_amplitude", "initial.v_amplitude"):
        sweep(cp, path, axis, ["0.5", "5"], tmp_path / axis)
    l2_v = []
    for value in ("0.5", "5"):
        bare = tmp_path / "v_amplitude" / f"v_amplitude_{value}"
        dotted = tmp_path / "initial.v_amplitude" / f"initial.v_amplitude_{value}"
        names = sorted(p.name for p in bare.iterdir())
        assert names == sorted(p.name for p in dotted.iterdir())
        for name in names:
            texts = [
                [line for line in (d / name).read_text().splitlines()
                 if not line.startswith(("scenario_name =", "snapshot_write_s =",
                                         "wall_time_s ="))]
                for d in (bare, dotted)
            ]
            assert texts[0] == texts[1], name
        l2_v.append(read_series(bare / "series.csv")["l2_v"][0])
    assert l2_v[1] > 5 * l2_v[0]  # the swept amplitude reached the data


def test_sweep_model_key_rederives_the_coupling(tmp_path):
    manifests = sweep(*small_config(tmp_path), "chi", ["2"], tmp_path / "sw")
    (manifest,) = manifests
    assert (manifest["model_chi"], manifest["model_mu"], manifest["model_xi"]) == (2.0, 1.0, 2.0)
    written = read_manifest(tmp_path / "sw" / "chi_2" / "manifest.txt")
    assert (written["model_mu"], written["model_xi"]) == ("1", "2")


def test_sweep_adds_a_key_the_file_does_not_set(tmp_path):
    text = SMALL_CFG.split("[diagnostics]")[0]
    cp, path = small_config(tmp_path, text)
    (manifest,) = sweep(cp, path, "probe_halfwidth", ["3"], tmp_path / "sw")
    assert manifest["probe_halfwidth"] == 3.0
    assert "diagnostics" not in cp  # the variant is a copy


def test_scenario_config_rejects_an_initial_key_its_kind_does_not_read():
    params = dict(jump_x=10.0, u_left=2.0, u_right=1.0, v_left=0.0, v_right=1.0, jump_xx=30.0)
    with pytest.raises(ConfigError, match=r"\[initial\]: unknown key 'jump_xx' "
                                          r"\(did you mean 'jump_x'\?\)"):
        small_scenario(initial_params=params)
    # a key another initial_kind reads is unknown here too
    with pytest.raises(ConfigError, match="unknown key 'ramp_start'"):
        del params["jump_xx"]
        small_scenario(initial_params=dict(params, ramp_start=1.0))

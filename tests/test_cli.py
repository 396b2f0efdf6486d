import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chemoshock.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    _wave_block,
    build_parser,
    main,
)
from chemoshock.diagnostics import read_series
from chemoshock.scenarios import parse_scenario, read_manifest

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

SMALL_CFG = """
[scenario]
name = cli_small
initial_kind = piecewise_constant

[grid]
x_min = 0
x_max = 40
n_nodes = 201

[model]
D = 1
chi = 1

[scheme]
cfl = 0.4
diffusion_theta = 0.5
t_end = 2
snapshot_interval = 1

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


def write_cfg(tmp_path, text=SMALL_CFG) -> Path:
    path = tmp_path / "small.cfg"
    path.write_text(text)
    return path


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", str(write_cfg(tmp_path))]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok" in out
    assert "wave_present = true" in out


def test_missing_config_is_config_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_broken_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_CFG.replace("u_left = 2", "u_left = -2"))
    assert main(["validate", str(path)]) == EXIT_CONFIG


def test_wave_prints_quantities(tmp_path, capsys):
    assert main(["wave", str(write_cfg(tmp_path))]) == EXIT_OK
    out = capsys.readouterr().out
    for key in ("s =", "lambda =", "v_minus =", "kappa =", "rh_r1 =", "rh_r2 ="):
        assert key in out


def test_run_writes_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out_dir)]) == EXIT_OK
    assert (out_dir / "manifest.txt").exists()
    assert (out_dir / "series.csv").exists()
    assert (out_dir / "snap_0000.dat").exists()


def test_run_mollify_delta_comes_from_config(tmp_path):
    cfg = write_cfg(tmp_path)
    out_dir = tmp_path / "out_mollified"
    with pytest.raises(SystemExit) as exc:  # argparse rejects the removed flag
        main(["run", str(cfg), "--out", str(out_dir), "--mollify-delta", "1.0"])
    assert exc.value.code == EXIT_CONFIG
    assert not out_dir.exists()
    text = SMALL_CFG.replace("name = cli_small", "name = cli_small\nmollify_delta = 1")
    assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(out_dir)]) == EXIT_OK
    manifest = (out_dir / "manifest.txt").read_text().splitlines()
    assert "mollify_delta = 1" in manifest


def test_run_emit_c(tmp_path):
    cfg = write_cfg(tmp_path)
    out_dir = tmp_path / "out_c"
    assert main(["run", str(cfg), "--out", str(out_dir), "--emit-c"]) == EXIT_OK
    row = (out_dir / "snap_0001.dat").read_text().splitlines()[1]
    assert len(row.split()) == 4


def test_numerical_failure_exit_code(tmp_path, capsys):
    text = SMALL_CFG.replace("D = 1", "D = 1e-6").replace("chi = 1", "chi = 40")
    text = text.replace("u_left = 2", "u_left = 0.02").replace("u_right = 1", "u_right = 0.02")
    text = text.replace("v_left = 0", "v_left = -3").replace("v_right = 1", "v_right = 3")
    path = tmp_path / "fragile.cfg"
    path.write_text(text)
    code = main(["run", str(path), "--out", str(tmp_path / "boom")])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_io_failure_exit_code(tmp_path, capsys):
    out_file = tmp_path / "taken"
    out_file.write_text("")  # --out names a regular file, not a directory
    assert main(["run", str(write_cfg(tmp_path)), "--out", str(out_file)]) == EXIT_IO
    assert "i/o error: " in capsys.readouterr().err


def test_numerical_failure_keeps_series(tmp_path):
    text = SMALL_CFG.replace("D = 1", "D = 1e-6").replace("chi = 1", "chi = 40")
    text = text.replace("u_left = 2", "u_left = 0.02").replace("u_right = 1", "u_right = 0.02")
    text = text.replace("v_left = 0", "v_left = -3").replace("v_right = 1", "v_right = 3")
    path = tmp_path / "fragile.cfg"
    path.write_text(text)
    out_dir = tmp_path / "boom"
    assert main(["run", str(path), "--out", str(out_dir)]) == EXIT_NUMERICAL
    snapshots = list(out_dir.glob("snap_*.dat"))
    assert snapshots
    series = read_series(out_dir / "series.csv")
    assert len(series["t"]) == len(snapshots)


def test_sweep_cli(tmp_path):
    cfg = write_cfg(tmp_path)
    out_dir = tmp_path / "sw"
    code = main(["sweep", str(cfg), "--axis", "mollify_delta",
                 "--values", "0,1", "--out", str(out_dir)])
    assert code == EXIT_OK
    assert (out_dir / "sweep.csv").exists()
    assert main(["sweep", str(cfg), "--axis", "bogus", "--values", "1",
                 "--out", str(out_dir)]) == EXIT_CONFIG
    assert main(["sweep", str(cfg), "--axis", "cfl", "--values", "",
                 "--out", str(tmp_path / "sw_empty")]) == EXIT_CONFIG


@pytest.mark.parametrize("values, named", [
    ("0.3000001,0.3000002", "0.3000001 and 0.3000002"),  # both tag as cfl_0.3
    ("0.4,0.4", "0.4 and 0.4"),
])
def test_sweep_rejects_colliding_output_dirs(tmp_path, capsys, values, named):
    out_dir = tmp_path / "sw"
    assert main(["sweep", str(write_cfg(tmp_path)), "--axis", "cfl",
                 "--values", values, "--out", str(out_dir)]) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("values", ["", " , "])
def test_sweep_rejects_empty_value_list(tmp_path, capsys, values):
    out_dir = tmp_path / "sw"
    assert main(["sweep", str(write_cfg(tmp_path)), "--axis", "cfl",
                 "--values", values, "--out", str(out_dir)]) == EXIT_CONFIG
    assert "no sweep values" in capsys.readouterr().err
    assert not out_dir.exists()


def _assert_rejected_before_writing(tmp_path, text):
    path = tmp_path / "rejected.cfg"
    path.write_text(text)
    out_dir = tmp_path / "out_rejected"
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert main(["run", str(path), "--out", str(out_dir)]) == EXIT_CONFIG
    assert not list(out_dir.glob("snap_*.dat"))


def test_oversized_probe_halfwidth_is_config_error(tmp_path, capsys):
    text = SMALL_CFG.replace("probe_halfwidth = 2", "probe_halfwidth = 30")
    _assert_rejected_before_writing(tmp_path, text)
    assert "probe_halfwidth" in capsys.readouterr().err


def test_negative_declared_density_is_config_error(tmp_path, capsys):
    text = SMALL_CFG + "\n[states]\nu_minus = 2\nu_plus = -1\nv_minus = 0\nv_plus = 1\n"
    _assert_rejected_before_writing(tmp_path, text)
    assert "[states]" in capsys.readouterr().err


def test_cfl_above_one_is_config_error(tmp_path, capsys):
    text = SMALL_CFG.replace("cfl = 0.4", "cfl = 1.7")
    _assert_rejected_before_writing(tmp_path, text)
    assert "cfl" in capsys.readouterr().err


def test_zero_snapshot_interval_is_config_error(tmp_path, capsys):
    text = SMALL_CFG.replace("snapshot_interval = 1", "snapshot_interval = 0")
    _assert_rejected_before_writing(tmp_path, text)
    assert "snapshot_interval" in capsys.readouterr().err


def test_misspelled_key_is_config_error(tmp_path, capsys):
    text = SMALL_CFG.replace("diffusion_theta = 0.5", "difusion_theta = 1.0")
    _assert_rejected_before_writing(tmp_path, text)
    err = capsys.readouterr().err
    assert "[scheme]: unknown key 'difusion_theta'" in err
    assert "did you mean 'diffusion_theta'?" in err


def test_scheme_boundary_key_is_config_error(tmp_path, capsys):
    # the Dirichlet values are the initial data's end values; [scheme] cannot set them
    text = SMALL_CFG.replace("snapshot_interval = 1", "snapshot_interval = 1\nu_left = 2")
    _assert_rejected_before_writing(tmp_path, text)
    assert "[scheme]: unknown key 'u_left'" in capsys.readouterr().err


def test_bad_initial_value_is_config_error(tmp_path, capsys):
    text = SMALL_CFG.replace("jump_x = 10", "jump_x = abc")
    _assert_rejected_before_writing(tmp_path, text)
    err = capsys.readouterr().err
    assert "[initial]" in err
    assert "jump_x" in err


def test_unknown_section_is_config_error(tmp_path, capsys):
    _assert_rejected_before_writing(tmp_path, SMALL_CFG + "\n[bogus]\nx = 1\n")
    err = capsys.readouterr().err
    assert "unknown section 'bogus'" in err
    assert "expected one of scenario, grid, model" in err
    _assert_rejected_before_writing(
        tmp_path, SMALL_CFG.replace("[diagnostics]", "[diagnostic]")
    )
    assert "did you mean 'diagnostics'?" in capsys.readouterr().err


def test_wave_lines_are_manifest_lines(tmp_path, capsys):
    text = SMALL_CFG + "\n[states]\nu_minus = 2\nu_plus = 1\nv_minus = 0.5\nv_plus = 1\n"
    path = write_cfg(tmp_path, text)
    assert main(["wave", str(path)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("declared_rh_r1 = ") for line in lines)
    assert any(line.startswith("data_rh_r1 = ") for line in lines)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == EXIT_OK
    manifest = (out_dir / "manifest.txt").read_text().splitlines()
    for line in lines:
        assert line in manifest


def test_wave_block_is_a_run_of_manifest_lines(request, tmp_path):
    # thm21 relaxes to a constant state: no wave, so its wave lines are n/a
    path = tmp_path / "thm21_short.cfg"
    path.write_text((SCENARIO_DIR / "thm21.cfg").read_text().replace("t_end = 100", "t_end = 10"))
    assert main(["run", str(path), "--out", str(tmp_path / "thm21")]) == EXIT_OK
    runs = [(parse_scenario(path), tmp_path / "thm21")]
    for name in ("fig1_consistent_run", "fig3_consistent_run", "wave_reference_run",
                 "thm22_run"):
        cfg, _, _, out = request.getfixturevalue(name)
        runs.append((cfg, out))
    manifests = [read_manifest(out / "manifest.txt") for _, out in runs]
    assert [m["flux_variant"] for m in manifests] == ["constant"] + ["wave"] * 4
    # a wave run and a constant run write the same keys in the same order
    assert all(list(m) == list(manifests[0]) for m in manifests)
    block_keys = []
    for cfg, out in runs:
        block = _wave_block(cfg).splitlines()
        lines = (out / "manifest.txt").read_text().splitlines()
        starts = [i for i in range(len(lines)) if lines[i : i + len(block)] == block]
        assert len(starts) == 1, f"{cfg.name}: wave lines are not one run of manifest lines"
        block_keys.append([line.partition(" = ")[0] for line in block])
    assert all(keys == block_keys[0] for keys in block_keys)


def _with_initial(name, old, new):
    """The shipped scenario `name` with `old` replaced by `new` in [initial] only."""
    head, _, rest = (SCENARIO_DIR / f"{name}.cfg").read_text().partition("[initial]")
    body, sep, tail = rest.partition("\n[")
    assert old in body
    return head + "[initial]" + body.replace(old, new) + sep + tail


@pytest.mark.parametrize("u_plus", ["2", "3", "0", "-1"])
def test_wave_data_without_a_shock_is_config_error(tmp_path, capsys, u_plus):
    _assert_rejected_before_writing(tmp_path, _with_initial("thm22", "u_plus = 1",
                                                            f"u_plus = {u_plus}"))
    assert "bad value for [initial]:u_minus/u_plus" in capsys.readouterr().err


def test_sweep_records_wave_data_without_a_shock_as_failed(tmp_path):
    out_dir = tmp_path / "sw"
    assert main(["sweep", str(SCENARIO_DIR / "thm22.cfg"), "--axis", "initial.u_plus",
                 "--values", "3,-1", "--out", str(out_dir)]) == EXIT_OK
    with open(out_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["failed", "failed"]
    assert all("[initial]:u_minus/u_plus" in row["error"] for row in rows)


@pytest.mark.parametrize("name, old, new", [
    # wire_reference fits a wave to the data's end values
    ("fig1_consistent", "v_right = 1", "v_right = 1e3"),
    ("fig1_consistent", "v_right = 1", "v_right = 1e4"),
    # the exact_wave_plus_bump builder
    ("thm22", "v_plus = 1", "v_plus = 1e8"),
], ids=["wire_reference_1e3", "wire_reference", "builder"])
def test_large_v_plus_keeps_the_wave_speed_digits(tmp_path, capsys, name, old, new):
    # chi*v_plus >> sqrt(chi*u_minus): the speed root used to lose its digits
    # there, and the jump conditions then failed with exit 2
    path = tmp_path / "large_v_plus.cfg"
    path.write_text(_with_initial(name, old, new))
    assert main(["validate", str(path)]) == EXIT_OK
    lines = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()[1:])
    s, v_minus = float(lines["wave_s"]), float(lines["wave_v_minus"])
    v_plus = float(new.split(" = ")[1])
    assert s * s + v_plus * s == pytest.approx(2.0, rel=1e-15)  # chi = 1, u_minus = 2
    # roundoff of the largest flux term, chi*u_plus*v_plus = v_plus
    assert abs(float(lines["wave_rh_r1"])) <= 4 * np.spacing(v_plus)
    assert abs(float(lines["wave_rh_r2"])) <= 4 * np.spacing(1.0)
    assert v_minus == pytest.approx(v_plus - 1.0 / s, rel=1e-15)


def test_misspelled_initial_key_is_config_error(tmp_path, capsys):
    thm22 = Path(__file__).resolve().parent.parent / "scenarios" / "thm22.cfg"
    text = thm22.read_text().replace("v_pert_kind", "v_pert_knd")
    _assert_rejected_before_writing(tmp_path, text)
    err = capsys.readouterr().err
    assert "[initial]: unknown key 'v_pert_knd'" in err
    assert "did you mean 'v_pert_kind'?" in err


def test_misspelled_boolean_is_config_error(tmp_path, capsys):
    thm22 = Path(__file__).resolve().parent.parent / "scenarios" / "thm22.cfg"
    text = thm22.read_text().replace("zero_mass = true", "zero_mass = ture")
    _assert_rejected_before_writing(tmp_path, text)
    assert "bad value for [initial]:zero_mass: 'ture'" in capsys.readouterr().err


def _with_model(model: str) -> str:
    return SMALL_CFG.replace("D = 1\nchi = 1\n", f"D = 1\n{model}\n")


@pytest.mark.parametrize("model, chi, mu, xi", [
    ("chi = 2", 2.0, 1.0, 2.0),
    ("chi = 2\nmu = 4", 2.0, 4.0, 0.5),
    ("chi = 2\nxi = 4", 2.0, 0.5, 4.0),
    ("chi = 6\nmu = 2\nxi = 3", 6.0, 2.0, 3.0),
])
def test_model_keys_that_are_set_are_kept(tmp_path, model, chi, mu, xi):
    params = parse_scenario(write_cfg(tmp_path, _with_model(model))).params
    assert (params.chi, params.mu, params.xi) == (chi, mu, xi)


def test_model_mu_and_xi_give_chi(tmp_path):
    text = _with_model("mu = 0.5\nxi = 3").replace("D = 1", "D = 2")
    params = parse_scenario(write_cfg(tmp_path, text)).params
    assert params.D == 2.0
    assert params.chi == pytest.approx(1.5, rel=1e-15)
    assert (params.mu, params.xi) == (0.5, 3.0)


@pytest.mark.parametrize("model, message", [
    ("chi = 5\nmu = 1\nxi = 1", "inconsistent coupling"),
    ("mu = 3", "missing key 'chi' in section [model]"),
    ("", "missing key 'chi' in section [model]"),
    ("chi = 1\nxi = 0", "xi must be a positive finite number"),
    ("chi = 1\nmu = -2", "mu must be a positive finite number"),
])
def test_bad_model_keys_are_config_errors(tmp_path, capsys, model, message):
    _assert_rejected_before_writing(tmp_path, _with_model(model))
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("old, new, named", [
    ("jump_x = 10", "jump_x = nan", "[initial]:jump_x"),
    ("u_left = 2", "u_left = inf", "[initial]:u_left"),
    ("t_end = 2", "t_end = nan", "[scheme]:t_end"),
    ("t_end = 2", "t_end = inf", "[scheme]:t_end"),
    ("probe_center = 10", "probe_center = nan", "[diagnostics]:probe_center"),
    ("name = cli_small", "name = cli_small\nmollify_delta = nan", "[scenario]:mollify_delta"),
    ("jump_x = 10", "jump_x = 10%", "[initial]:jump_x"),
    ("jump_x = 10", "jump_x = %(x_max)s", "[initial]:jump_x"),
    ("probe_center = 10", "probe_center = 1e6", "[diagnostics]:probe_center/probe_halfwidth"),
])
def test_bad_number_is_config_error(tmp_path, capsys, old, new, named):
    _assert_rejected_before_writing(tmp_path, SMALL_CFG.replace(old, new))
    assert f"bad value for {named}: " in capsys.readouterr().err


@pytest.mark.parametrize("jump_x", ["1e6", "-1e6", "40"])
def test_jump_on_an_end_node_is_config_error(tmp_path, capsys, jump_x):
    # an end-node jump would drop one far-field state from the data and the boundary
    text = SMALL_CFG.replace("jump_x = 10", f"jump_x = {jump_x}")
    _assert_rejected_before_writing(tmp_path, text)
    assert "bad value for [initial]:jump_x: " in capsys.readouterr().err


@pytest.mark.parametrize("scenario, old, new, keys", [
    ("thm21", "u_block_center = 150", "u_block_center = 0", "u_block_center/u_block_width"),
    ("thm21", "v_block_center = 250", "v_block_center = 395", "v_block_center/v_block_width"),
    ("thm22", "u_pert_center = 120", "u_pert_center = 396",
     "u_pert_center/u_pert_halfwidth"),
])
def test_block_or_dipole_on_an_end_node_is_config_error(tmp_path, capsys, scenario, old, new,
                                                         keys):
    # the end node would take half the amplitude and change the far-field state
    path = Path(__file__).resolve().parent.parent / "scenarios" / f"{scenario}.cfg"
    text = path.read_text()
    assert old in text
    _assert_rejected_before_writing(tmp_path, text.replace(old, new))
    assert f"bad value for [initial]:{keys}: " in capsys.readouterr().err


@pytest.mark.parametrize("scenario, old, new, named", [
    # a value the initial_kind does not read is still checked
    ("thm21", "u_block_center = 150\nu_block_width = 20\nu_amplitude = 1",
     "u_block_center = abc\nu_block_width = 20\nu_amplitude = 0",
     "bad value for [initial]:u_block_center: "),
    ("thm22", "u_pert_kind = dipole\nu_pert_amplitude = 0.3",
     "u_pert_kind = none\nu_pert_amplitude = nan", "bad value for [initial]:u_pert_amplitude: "),
    ("thm22", "u_pert_halfwidth = 5", "u_pert_halfwidth = 5\nu_pert_width = inf",
     "bad value for [initial]:u_pert_width: "),
    ("thm21", "initial_kind = constant_plus_jump\n", "",
     "missing key 'initial_kind' in section [scenario]"),
    ("thm21", "initial_kind = constant_plus_jump", "initial_kind = constant_plus_jmp",
     "[scenario]: unknown initial_kind 'constant_plus_jmp' (did you mean 'constant_plus_jump'?)"),
    ("thm22", "u_pert_kind = dipole", "u_pert_kind = dipol",
     "[initial]: unknown u_pert_kind 'dipol' (did you mean 'dipole'?)"),
    ("fig3", "ramp_end = 40", "ramp_end = 4000", "bad value for [initial]:ramp_start/ramp_end: "),
])
def test_every_scenario_value_is_checked(tmp_path, capsys, scenario, old, new, named):
    text = (SCENARIO_DIR / f"{scenario}.cfg").read_text()
    assert text.count(old) == 1
    _assert_rejected_before_writing(tmp_path, text.replace(old, new))
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("scenario, old, new, keys", [
    # one grid interval: dx = 0.2 in thm21 and 0.1 in thm22
    ("thm21", "u_block_width = 20", "u_block_width = 0.2", "u_block_center/u_block_width"),
    ("thm22", "u_pert_halfwidth = 5", "u_pert_halfwidth = 0.1",
     "u_pert_center/u_pert_halfwidth"),
])
def test_block_or_dipole_narrower_than_two_intervals_is_config_error(tmp_path, capsys,
                                                                     scenario, old, new, keys):
    _assert_rejected_before_writing(tmp_path, _with_initial(scenario, old, new))
    err = capsys.readouterr().err
    assert f"bad value for [initial]:{keys}: " in err
    assert "at least two grid intervals" in err


FROM_FILE_CFG = """
[scenario]
name = restart
initial_kind = from_file

[grid]
x_min = 0
x_max = 9
n_nodes = 10

[model]
D = 1
chi = 1

[scheme]
t_end = 1
snapshot_interval = 1

[initial]
path = {path}

[diagnostics]
probe_center = 4
probe_halfwidth = 2
"""


def _from_file_cfg(tmp_path, row5):
    """A config reading a 10-node snapshot on [0, 9] (u = 1, v = 0) whose row 5 is `row5`."""
    rows = [f"{i} 1 0" for i in range(10)]
    rows[5] = row5
    snap = tmp_path / "restart.dat"
    snap.write_text("# t=0\n" + "\n".join(rows) + "\n")
    return FROM_FILE_CFG.format(path=snap)


def test_from_file_snapshot_validates(tmp_path):
    path = write_cfg(tmp_path, _from_file_cfg(tmp_path, "5 1 0"))
    assert main(["validate", str(path)]) == EXIT_OK


@pytest.mark.parametrize("row5, named", [
    ("5 nan 0", "restart.dat: non-finite entry in data row 6"),
    ("50 1 0", "does not match the configured grid"),  # an off-grid interior node
])
def test_bad_from_file_snapshot_is_config_error(tmp_path, capsys, row5, named):
    _assert_rejected_before_writing(tmp_path, _from_file_cfg(tmp_path, row5))
    assert named in capsys.readouterr().err


def test_mollify_delta_wider_than_the_grid_is_config_error(tmp_path, capsys):
    text = SMALL_CFG.replace("name = cli_small", "name = cli_small\nmollify_delta = 1e9")
    _assert_rejected_before_writing(tmp_path, text)
    assert "grid length" in capsys.readouterr().err
    out_dir = tmp_path / "sw"
    assert main(["sweep", str(write_cfg(tmp_path)), "--axis", "mollify_delta",
                 "--values", "0.5,1e9", "--out", str(out_dir)]) == EXIT_OK
    rows = (out_dir / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[2] for row in rows[1:]] == ["ok", "failed"]
    assert "grid length" in rows[2]


@pytest.mark.parametrize("old, axis, value", [
    ("cfl = 0.4", "cfl", "1.7"),
    ("n_nodes = 201", "n_nodes", "1000.7"),
    ("n_nodes = 201", "n_nodes", "1e3"),
])
def test_swept_value_fails_as_in_the_file(tmp_path, capsys, old, axis, value):
    in_file = tmp_path / "in_file.cfg"
    in_file.write_text(SMALL_CFG.replace(old, f"{axis} = {value}"))
    assert main(["validate", str(in_file)]) == EXIT_CONFIG
    message = capsys.readouterr().err.removeprefix("config error: ").rstrip("\n")
    out_dir = tmp_path / "sw"
    assert main(["sweep", str(write_cfg(tmp_path)), "--axis", axis, "--values", value,
                 "--out", str(out_dir)]) == EXIT_OK
    with open(out_dir / "sweep.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"] == "failed"
    assert row["error"] == f"ConfigError: {message}"


@pytest.mark.parametrize("axis, named", [
    ("u_plus", "sweep axis 'u_plus' is ambiguous (use 'initial.u_plus' or 'states.u_plus')"),
    ("initial.u_plu", "unknown sweep axis 'initial.u_plu' (did you mean 'initial.u_plus'?)"),
])
def test_sweep_axis_must_name_one_key(tmp_path, capsys, axis, named):
    cfg = Path(__file__).resolve().parent.parent / "scenarios" / "wave_reference.cfg"
    out_dir = tmp_path / "sw"
    assert main(["sweep", str(cfg), "--axis", axis, "--values", "1",
                 "--out", str(out_dir)]) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("values", ["0,nan", "inf"])
def test_sweep_rejects_non_finite_values(tmp_path, capsys, values):
    out_dir = tmp_path / "sw"
    assert main(["sweep", str(write_cfg(tmp_path)), "--axis", "mollify_delta",
                 "--values", values, "--out", str(out_dir)]) == EXIT_CONFIG
    assert "not finite" in capsys.readouterr().err
    assert not out_dir.exists()


def test_readme_cli_block_matches_parser(capsys):
    """Every subcommand and --option in README's `## CLI` shell block exists."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split() for line in block.splitlines() if line.startswith("chemoshock ")]
    assert len(commands) >= 4
    for words in commands:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([words[1], "--help"])
        assert exc.value.code == 0, f"README documents unknown subcommand '{words[1]}'"
        accepted = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        for option in re.findall(r"--[a-z][a-z-]*", " ".join(words[2:])):
            assert option in accepted, f"README documents '{words[1]} {option}'"


def test_relative_from_file_path_is_read_from_the_config_directory(tmp_path, monkeypatch):
    cfg_dir = tmp_path / "cfgdir"
    cfg_dir.mkdir()
    text = _from_file_cfg(cfg_dir, "5 1 0").replace(str(cfg_dir / "restart.dat"), "restart.dat")
    cfg = cfg_dir / "r.cfg"
    cfg.write_text(text)
    monkeypatch.chdir(tmp_path)  # not the config's directory
    assert main(["validate", str(cfg)]) == EXIT_OK
    assert main(["validate", "cfgdir/r.cfg"]) == EXIT_OK


def test_missing_from_file_snapshot_is_config_error(tmp_path, capsys):
    text = FROM_FILE_CFG.format(path=tmp_path / "nowhere.dat")
    _assert_rejected_before_writing(tmp_path, text)
    assert "bad value for [initial]:path: no snapshot file" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "utf16.cfg"
    path.write_bytes(b"\xff\xfe" + SMALL_CFG.encode())
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert f"{path}: not UTF-8 text" in capsys.readouterr().err


def test_from_file_snapshot_that_is_not_utf8_is_config_error(tmp_path, capsys):
    snap = tmp_path / "restart.dat"
    snap.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)))
    _assert_rejected_before_writing(tmp_path, FROM_FILE_CFG.format(path=snap))
    assert f"{snap}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_huge_finite_v_ends_in_a_documented_exit_code(tmp_path, capsys):
    text = (SCENARIO_DIR / "thm21.cfg").read_text()
    text = re.sub(r"(?m)^t_end = .*$", "t_end = 1", text)
    for amplitude, validate_code, run_code in (("1e160", EXIT_CONFIG, EXIT_CONFIG),
                                               ("1e100", EXIT_OK, EXIT_NUMERICAL)):
        cfg = tmp_path / f"thm21_{amplitude}.cfg"
        cfg.write_text(re.sub(r"(?m)^v_amplitude = .*$", f"v_amplitude = {amplitude}", text))
        assert main(["validate", str(cfg)]) == validate_code
        capsys.readouterr()
        assert main(["run", str(cfg), "--out", str(tmp_path / amplitude)]) == run_code
        err = capsys.readouterr().err
        if run_code == EXIT_CONFIG:
            assert "[initial]" in err and "speed bound overflows" in err
        else:  # |v|**4 overflows in l4_v at snapshot 0
            assert "numerical failure: snapshot 0 (t=0)" in err and "l4_v = inf" in err


def _cli_process(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run([sys.executable, "-B", "-m", "chemoshock.cli", *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=120)


def _thm21_variant(tmp_path, **values) -> Path:
    text = (SCENARIO_DIR / "thm21.cfg").read_text()
    for key, val in values.items():
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {val}", text)
    path = tmp_path / "thm21_variant.cfg"
    path.write_text(text)
    return path


def test_an_overflowing_record_prints_only_the_failure_line(tmp_path):
    # |v|**4 overflows in l4_v at snapshot 0; numpy's warning is not printed
    cfg = _thm21_variant(tmp_path, t_end=1, v_amplitude="1e100")
    proc = _cli_process("run", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stderr == ("numerical failure: snapshot 0 (t=0): diagnostics record "
                           "contains non-finite entries (first: l4_v = inf)\n")


def test_an_overflowing_c_column_names_its_snapshot_and_node(tmp_path):
    # exp(-mu * integral of v) overflows across the v = -1000 block
    cfg = _thm21_variant(tmp_path, t_end=0.01, snapshot_interval=0.01, v_amplitude=-1000)
    proc = _cli_process("run", str(cfg), "--out", str(tmp_path / "out"), "--emit-c")
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stderr == ("numerical failure: snapshot 0 (t=0): c column: "
                           "non-finite field value at node 1204\n")


def test_a_from_file_snapshot_without_data_rows_prints_only_the_config_error(tmp_path):
    snap = tmp_path / "empty.dat"
    snap.write_text("# t=0\n")
    cfg = write_cfg(tmp_path, FROM_FILE_CFG.format(path=snap))
    proc = _cli_process("validate", str(cfg))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr == f"config error: {snap}: snapshot has no data rows\n"


def test_a_large_chi_v_plus_run_ends_in_a_documented_exit_code(tmp_path):
    # the CFL step does not keep u positive here; a run that does may exit 0
    text = (SCENARIO_DIR / "fig1_consistent.cfg").read_text()
    for key, val in (("v_right", "1e4"), ("t_end", "1e-3"), ("snapshot_interval", "2e-5")):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {val}", text)
    cfg = write_cfg(tmp_path, text)
    assert main(["validate", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    proc = _cli_process("run", str(cfg), "--out", str(out))
    assert proc.returncode in (EXIT_OK, EXIT_NUMERICAL)
    assert "Traceback" not in proc.stderr
    if proc.returncode == EXIT_NUMERICAL:
        assert re.fullmatch(r"numerical failure: [^\n]*\n", proc.stderr)
        snaps = list(out.glob("snap_*.dat"))
        assert snaps and len(read_series(out / "series.csv")["t"]) == len(snaps)
        assert not (out / "manifest.txt").exists()


def test_an_overflowing_diffusion_weight_ends_in_exit_3(tmp_path):
    # a = theta*D*dt/dx**2 overflows to inf on the first step
    text = re.sub(r"(?m)^D = .*$", "D = 1.7e308", (SCENARIO_DIR / "fig1_consistent.cfg").read_text())
    cfg = write_cfg(tmp_path, text)
    assert main(["validate", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    proc = _cli_process("run", str(cfg), "--out", str(out))
    assert proc.returncode == EXIT_NUMERICAL and "Traceback" not in proc.stderr, proc.stderr
    assert re.fullmatch(r"numerical failure: diffusion weights a=inf, [^\n]* on step 1 "
                        r"\(t=0, dt=[^\n]*\)\n", proc.stderr)
    snaps = list(out.glob("snap_*.dat"))
    assert snaps and len(read_series(out / "series.csv")["t"]) == len(snaps)


def test_the_cli_process_prints_its_summary_through_a_pipe(tmp_path):
    # main() freezes the collector's objects when it is the process entry point
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "chemoshock.cli", "run", str(write_cfg(tmp_path)),
         "--out", str(tmp_path / "out")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith(f"wrote {tmp_path / 'out'}/manifest.txt (3 snapshots, ")

from pathlib import Path

from chemoshock.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from chemoshock.diagnostics import read_series

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


def test_run_mollify_override(tmp_path):
    cfg = write_cfg(tmp_path)
    out_dir = tmp_path / "out_mollified"
    assert main(["run", str(cfg), "--out", str(out_dir), "--mollify-delta", "1.0"]) == EXIT_OK
    manifest = (out_dir / "manifest.txt").read_text()
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
                 "--out", str(tmp_path / "sw_empty")]) == EXIT_OK


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


def test_misspelled_initial_key_is_config_error(tmp_path, capsys):
    thm22 = Path(__file__).resolve().parent.parent / "scenarios" / "thm22.cfg"
    text = thm22.read_text().replace("v_pert_kind", "v_pert_knd")
    _assert_rejected_before_writing(tmp_path, text)
    err = capsys.readouterr().err
    assert "[initial]: unknown key 'v_pert_knd'" in err
    assert "did you mean 'v_pert_kind'?" in err

"""`tools/output_digest.py --compare` on two small hand-made output trees.
It runs no chemoshock command."""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

import pytest

from chemoshock import scenarios

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("output_digest",
                                                  ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path) -> Path:
    """A run directory with a manifest, a series and two snapshots, and the
    exit codes of the commands that wrote it."""
    run = root / "run" / "small"
    run.mkdir(parents=True)
    (run / "manifest.txt").write_text(
        "scenario_name = small\nwave_s = 0.73205080756887719\nstep_count = 120\n"
        "snapshot_count = 2\nstep_kernel = compiled\nwall_time_s = 0.125\n"
    )
    (run / "series.csv").write_text("t,a_func,dq_width\n0,1.25,0.5\n1,1.0000000000000002,0.5\n")
    for k, t in enumerate((0, 1)):
        (run / f"snap_{k:04d}.dat").write_text(f"# t={t}\n0 2 0\n0.5 1.5 -0.25\n1 1 1\n")
    (root / "exit_codes.txt").write_text("run small.cfg --out OUT/run/small = 0\n")
    return run


def _compare(digest, tmp_path, capsys, change):
    old, new = _tree(tmp_path / "old"), _tree(tmp_path / "new")
    change(new)
    code = digest.compare(tmp_path / "old", tmp_path / "new")
    return code, capsys.readouterr().out


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))


def test_identical_trees_pass(digest, tmp_path, capsys):
    # the machine's lines of a manifest may differ
    code, out = _compare(digest, tmp_path, capsys,
                         lambda run: _edit(run / "manifest.txt", "0.125", "0.5"))
    assert code == 0
    assert "1 differ" not in out and "FLAGGED" not in out


def test_every_machine_dependent_manifest_key_is_dropped(digest):
    # a run's measured times and the step that ran are not part of a digest
    dropped = {key.decode().removesuffix(" =") for key in digest._MACHINE_KEYS}
    assert set(scenarios._TIMING_KEYS) | {"step_kernel"} <= dropped


def test_a_run_that_took_the_numpy_stages_is_named(digest, tmp_path):
    # the digest's runs must take the compiled step: a library that does not
    # build would otherwise pass with the fallback's identical bytes
    run = _tree(tmp_path)
    assert digest._numpy_manifest(tmp_path) is None
    _edit(run / "manifest.txt", "step_kernel = compiled", "step_kernel = numpy")
    assert digest._numpy_manifest(tmp_path) == run / "manifest.txt"


def test_a_perturbed_cell_is_reported_by_file_column_and_delta(digest, tmp_path, capsys):
    code, out = _compare(digest, tmp_path, capsys, lambda run: _edit(
        run / "series.csv", "1,1.0000000000000002,", "1,1.0000000000000004,"))
    assert code == 0  # 2.2e-16 of sup 1.25 is within the bound
    line = next(line for line in out.splitlines() if line.startswith("run/small/series.csv"))
    assert line.split()[1] == "a_func"
    assert "max|delta| 2.220e-16" in line and "rel 1.776e-16" in line


def test_a_perturbed_cell_above_the_bound_is_flagged(digest, tmp_path, capsys):
    code, out = _compare(digest, tmp_path, capsys,
                         lambda run: _edit(run / "snap_0001.dat", "0.5 1.5 -0.25", "0.5 1.5 -0.5"))
    assert code == 1
    assert "run/small/snap_0001.dat  v  max|delta| 2.500e-01" in out
    assert "FLAGGED run/small/snap_0001.dat: v:" in out


@pytest.mark.parametrize("change, flagged", [
    (lambda run: _edit(run / "manifest.txt", "step_count = 120", "step_count = 121"),
     "run/small/manifest.txt: step_count 120, now 121"),
    (lambda run: (run / "snap_0001.dat").unlink(),
     "run/small/snap_0001.dat: only in"),
    (lambda run: _edit(run / "series.csv", "1,1.0000000000000002,0.5\n", ""),
     "run/small/series.csv: 2 rows, now 1"),
    (lambda run: _edit(run.parent.parent / "exit_codes.txt", "= 0", "= 3"),
     "exit_codes.txt: run small.cfg --out OUT/run/small 0, now 3"),
    (lambda run: _edit(run / "series.csv", "0,1.25,0.5", "0,1.25,n/a"),
     "run/small/series.csv: dq_width: 1 cells changed text"),
], ids=["steps", "missing snapshot", "row count", "exit code", "text cell"])
def test_a_changed_count_file_or_exit_code_is_flagged(digest, tmp_path, capsys, change,
                                                      flagged):
    code, out = _compare(digest, tmp_path, capsys, change)
    assert code == 1
    assert f"FLAGGED {flagged}" in out


def test_compare_runs_from_the_command_line(digest, tmp_path, capsys):
    _tree(tmp_path / "old")
    shutil.copytree(tmp_path / "old", tmp_path / "new")
    assert digest.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert "0 differ" in capsys.readouterr().out

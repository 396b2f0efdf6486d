from __future__ import annotations

from pathlib import Path

import pytest

import chemoshock.solver as solver
from chemoshock.diagnostics import read_series
from chemoshock.scenarios import parse_scenario, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture(scope="session")
def stages_cache(tmp_path_factory) -> Path:
    """An XDG cache root of this session, where the first `stages` builds."""
    return tmp_path_factory.mktemp("xdg_cache")


@pytest.fixture
def stages(monkeypatch, stages_cache):
    """The compiled library, built into the session's cache.  Skips when no
    compiler works here (the numpy stages then run everywhere)."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(stages_cache))
    load = solver._load_stages  # a test may replace it
    load.cache_clear()
    lib = load()
    yield lib if lib is not None else pytest.skip("the compiled stages do not build here")
    load.cache_clear()  # the next load reads the restored environment


def _run(name: str, tmp_root: Path):
    cfg = parse_scenario(SCENARIO_DIR / f"{name}.cfg")
    out = tmp_root / name
    manifest, _ = run_scenario(cfg, out)
    return cfg, manifest, read_series(out / "series.csv"), out


@pytest.fixture(scope="session")
def fig1_consistent_run(tmp_path_factory):
    return _run("fig1_consistent", tmp_path_factory.mktemp("fig1_consistent"))


@pytest.fixture(scope="session")
def fig3_consistent_run(tmp_path_factory):
    return _run("fig3_consistent", tmp_path_factory.mktemp("fig3_consistent"))


@pytest.fixture(scope="session")
def wave_reference_run(tmp_path_factory):
    return _run("wave_reference", tmp_path_factory.mktemp("wave_reference"))


@pytest.fixture(scope="session")
def thm22_run(tmp_path_factory):
    return _run("thm22", tmp_path_factory.mktemp("thm22"))

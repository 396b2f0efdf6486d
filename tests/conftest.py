from __future__ import annotations

import functools
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# PYTHONPATH, when it provides one, picks the chemoshock under test; else this checkout's
if not os.environ.get("PYTHONPATH") or importlib.util.find_spec("chemoshock") is None:
    sys.path.insert(0, str(ROOT / "src"))

import pytest

import chemoshock
import chemoshock.solver as solver
from chemoshock import _native
from chemoshock.diagnostics import read_series
from chemoshock.scenarios import parse_scenario, run_scenario

SCENARIO_DIR = ROOT / "scenarios"


def pytest_configure(config):
    """Point XDG_CACHE_HOME at a directory of this session, before any test
    loads the compiled library, so that no test (nor a subprocess it starts)
    builds into or deletes from the user's cache."""
    cache = tempfile.TemporaryDirectory(prefix="chemoshock-xdg-")
    env = pytest.MonkeyPatch()
    env.setenv("XDG_CACHE_HOME", cache.name)
    config.add_cleanup(cache.cleanup)
    config.add_cleanup(env.undo)  # cleanups run last in, first out


def pytest_report_header(config):
    return f"chemoshock: {Path(chemoshock.__file__).parent}"


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


@functools.cache
def _compiler_works(cc: str) -> bool:
    """Whether the compiler command cc builds a trivial C file with the
    library's flags."""
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "trivial.c"
        source.write_text("int trivial(void) { return 0; }\n")
        try:
            subprocess.run([*cc.split(), *_native._STAGES_CFLAGS, "-o", str(Path(tmp) / "t.so"),
                            str(source)], capture_output=True, check=True, timeout=300)
        except (OSError, subprocess.SubprocessError):
            return False
    return True


@pytest.fixture
def stages():
    """The compiled library, built into the session's cache.  Skips when no
    compiler works here (the numpy stages then run everywhere); fails, with
    the compiler's stderr, when one works and the library still does not
    load."""
    load = solver._load_stages  # a test may replace it
    load.cache_clear()  # an earlier test may have loaded it from another cache
    lib = load()
    if lib is None:
        if not _compiler_works(os.environ.get("CC") or "cc"):
            pytest.skip("no C compiler works here")
        logs = sorted(Path(_native._stages_cache()).glob("stages-*.failed"))
        pytest.fail("a C compiler works, but the compiled stages did not load:\n"
                    + ("".join(f"{log}:\n{log.read_text(errors='replace')}" for log in logs)
                       or "no stages-*.failed file in the cache"), pytrace=False)
    yield lib
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

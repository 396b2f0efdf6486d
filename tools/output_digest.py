"""Digest every output file of a fixed set of runs, for byte-identity checks.

    PYTHONPATH=src python tools/output_digest.py OUT_DIR

Runs, with the `chemoshock` found on PYTHONPATH:
  * `run` on every `scenarios/*.cfg`;
  * `run --emit-c` on `thm22`;
  * `sweep` of `thm21` over `n_nodes=1001,4001`;
  * `sweep` of `thm22` over `u_pert_halfwidth=2,5,0`;
  * `run` of `thm22` restarted (`initial_kind = from_file`) from its own
    `snap_0001.dat`, to t_end = 2.  Its config is written to a temporary
    directory, so the snapshot's absolute path is not digested;
  * `validate` on every `scenarios/*.cfg`, its stdout kept as
    `validate/<name>.txt`.  The other commands' stdout is dropped (`run`
    prints its wall time).

These runs build the compiled library into an XDG_CACHE_HOME of their own,
in a temporary directory, so the user's cache is left as it is.

Then it runs `run --emit-c` on `thm22` once more, in a subprocess with
CC=false and an empty XDG_CACHE_HOME, so that the library cannot build and
the numpy stages and the Python snapshot writer run.  Its files are not
digested; the script exits 1 when they differ from the first `--emit-c`
run's, or when its manifest does not say `step_kernel = numpy`.

Each manifest's `wall_time_s` and `step_kernel` lines are deleted (they are
facts about the machine, not the numerics), then one `sha256  relative/path`
line is printed per output file, sorted by path.  A refactor that must keep
every output byte passes when this output is the same before and after it:

    PYTHONPATH=<old>/src python tools/output_digest.py old_out > old.txt
    PYTHONPATH=<new>/src python tools/output_digest.py new_out > new.txt
    diff old.txt new.txt

The runs take ~15 s on one core of a 2-core x86-64 box.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from chemoshock import cli

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
# manifest lines that depend on the machine: the run's time and which step stages ran
_MACHINE_KEYS = (b"wall_time_s =", b"step_kernel =")


def _restart_config(out: Path, config_dir: Path) -> Path:
    """thm22 from its snapshot 1 in `out`, run for a short time."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    cp.read(SCENARIO_DIR / "thm22.cfg")
    cp["scenario"].update(name="thm22_restart", initial_kind="from_file")
    cp["scheme"].update(t_end="2", snapshot_interval="1")
    cp.remove_section("initial")
    cp["initial"] = {"path": str((out / "run" / "thm22" / "snap_0001.dat").resolve())}
    path = config_dir / "thm22_restart.cfg"
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def _argvs(out: Path, config_dir: Path) -> list[list[str]]:
    configs = sorted(SCENARIO_DIR.glob("*.cfg"))
    argvs = [["run", str(cfg), "--out", str(out / "run" / cfg.stem)] for cfg in configs]
    argvs.append(["run", str(SCENARIO_DIR / "thm22.cfg"), "--emit-c",
                  "--out", str(out / "emit_c" / "thm22")])
    for name, axis, values in (("thm21", "n_nodes", "1001,4001"),
                               ("thm22", "u_pert_halfwidth", "2,5,0")):
        argvs.append(["sweep", str(SCENARIO_DIR / f"{name}.cfg"), "--axis", axis,
                      "--values", values, "--out", str(out / "sweep" / name)])
    argvs.append(["run", str(_restart_config(out, config_dir)),
                  "--out", str(out / "restart" / "thm22")])
    argvs += [["validate", str(cfg)] for cfg in configs]
    return argvs


def _fallback_mismatch(out: Path, scratch: Path) -> str | None:
    """Run thm22 --emit-c where the library cannot build, and say how its
    files differ from the compiled run's in `out`, or None when they match."""
    fallback = scratch / "fallback"
    src = Path(cli.__file__).resolve().parent.parent  # the chemoshock run above
    env = dict(os.environ, CC="false", XDG_CACHE_HOME=str(scratch / "empty_cache"),
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "chemoshock.cli", "run",
                    str(SCENARIO_DIR / "thm22.cfg"), "--emit-c", "--out", str(fallback)],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=600)
    if b"step_kernel = numpy" not in (fallback / "manifest.txt").read_bytes():
        return "the CC=false run did not take the numpy stages"
    compiled = out / "emit_c" / "thm22"
    names = sorted(p.name for p in compiled.iterdir())
    if names != sorted(p.name for p in fallback.iterdir()):
        return "the CC=false run wrote other files"
    differ = [name for name in names if _digest(compiled / name) != _digest(fallback / name)]
    return f"the CC=false run differs in {', '.join(differ)}" if differ else None


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.txt":
        lines = data.splitlines(keepends=True)
        data = b"".join(line for line in lines if not line.startswith(_MACHINE_KEYS))
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="a new or empty directory for the runs")
    args = parser.parse_args(argv)
    if args.out_dir.exists() and any(args.out_dir.iterdir()):
        parser.error(f"{args.out_dir} is not empty")
    with tempfile.TemporaryDirectory() as config_dir:
        # the runs build and load the library in a cache of their own: a build
        # deletes every other library in its cache, the user's included
        os.environ["XDG_CACHE_HOME"] = str(Path(config_dir) / "cache")
        for argv_run in _argvs(args.out_dir, Path(config_dir)):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv_run)
            if code != 0:
                print(f"exit {code}: chemoshock {' '.join(argv_run)}", file=sys.stderr)
                return code
            if argv_run[0] == "validate":
                kept = args.out_dir / "validate" / f"{Path(argv_run[1]).stem}.txt"
                kept.parent.mkdir(parents=True, exist_ok=True)
                kept.write_text(stdout.getvalue())
        mismatch = _fallback_mismatch(args.out_dir, Path(config_dir))
    if mismatch:
        print(f"fallback: {mismatch}", file=sys.stderr)
        return 1
    for path in sorted(p for p in args.out_dir.rglob("*") if p.is_file()):
        print(f"{_digest(path)}  {path.relative_to(args.out_dir).as_posix()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Digest every output file of a fixed set of runs, for byte-identity checks,
and compare two such sets number by number.

    PYTHONPATH=src python tools/output_digest.py OUT_DIR
    python tools/output_digest.py --compare OLD_OUT NEW_OUT

Runs, with the `chemoshock` found on PYTHONPATH:
  * `run` on every `scenarios/*.cfg`;
  * `run --emit-c` on `thm22`;
  * `sweep` of `thm21` over `n_nodes=1001,4001`;
  * `sweep` of `thm22` over `u_pert_halfwidth=2,5,0`;
  * `run` of `thm22` restarted (`initial_kind = from_file`) from its own
    `snap_0001.dat`, to t_end = 2.  Its config is written to a temporary
    directory, so the snapshot's absolute path is not digested;
  * the command of each `perfbench` workload on its seed-0 config, written
    by `perfbench/workloads.py` (loaded read-only) to the temporary
    directory, into `perfbench/<workload>`;
  * `validate` on every `scenarios/*.cfg`, its stdout kept as
    `validate/<name>.txt`.  The other commands' stdout is dropped (`run`
    prints its wall time).

These runs build the compiled library into an XDG_CACHE_HOME of their own,
in a temporary directory, so the user's cache is left as it is.

Then it runs `run --emit-c` on `thm22` (theta = 0.5), `run` on `thm21`
(theta = 1) and `run` on `fig1_consistent` once more, each in a subprocess
with CC=false and an empty XDG_CACHE_HOME, so that the library cannot build
and the numpy stages and the Python snapshot writer run.  `fig1_consistent`
is jump data, the scenario of `perfbench`'s `shock_run`: each step refills
its factor while a changes on about one step in six, so the two kernels'
factors, their first speed bound and the bound each step returns for the
next, carried over its ~8,100 steps, are compared over a long run.
Their files are not digested; the script exits 1 when they differ from the
compiled runs' files, or when a manifest does not say `step_kernel = numpy`.
It also exits 1, naming the file, when a manifest of the other runs says
`step_kernel = numpy`: those runs must take the compiled step, so the gate
needs a working C compiler.

Each command's exit code is written to `exit_codes.txt` in OUT_DIR, one
`command = code` line per command, with OUT_DIR, the temporary directory
and the checkout written as OUT, CFG and `.`; a failed command does not stop
the later ones, but the script then exits 2.

Each manifest's `snapshot_write_s`, `wall_time_s` and `step_kernel` lines
are deleted (they are facts about the machine, not the numerics).  Then one
`sha256  relative/path` line is printed per output file, sorted by path.  A
refactor that must keep every output byte passes when this output is the
same before and after it:

    PYTHONPATH=<old>/src python tools/output_digest.py old_out > old.txt
    PYTHONPATH=<new>/src python tools/output_digest.py new_out > new.txt
    diff old.txt new.txt

The runs take ~6-17 s on one core of a 2-core x86-64 box.

Listings, and `--compare` trees, are comparable only between runs on one CPU
class.  The step takes no numpy transcendental, so the snapshots of jump and
ramp data are the same on every CPU; but numpy runs SIMD code chosen by CPU
for `exp`, `log` and powers, which on an AVX-512 box differs from the C
library's in the last bit on some arguments.  With
`NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"` set, 233 of the 385
files change: the snapshots of `thm22`'s exact wave and of mollified data
(their initial data takes numpy's `exp`), and every `series.csv` and manifest
(their log, power and exp columns, and the decay fits).

A change that may move outputs in their last bits is gated with `--compare`
on the same two output directories instead.  It reads every file of both
(no chemoshock is needed) and prints, per file and column that differ, the
largest |delta| and |delta| / sup|column| (the sup taken over both sides),
then the worst of each per file type and column name.  A column is a header
column of a `.csv`, an `x u v c` column of a snapshot (and its `t`), or a
`key` of a `key = value` line (manifest, validate stdout); the manifest's
machine lines are skipped.  It flags, and exits 1 on:

  * a file in one directory only, a changed column set or row count;
  * a changed manifest `step_count` or `snapshot_count`, or exit code;
  * a changed cell that is not a number (`true`/`false`, a status);
  * a |delta| above 1e-10 * max(sup|column|, 1).
    The floor of 1 holds a column of values below 1, such as a jump
    residual or a fitted decay slope that is itself roundoff or a
    difference of near-equal numbers, to an absolute bound instead.

Identical directories, or numbers that moved within the bound, exit 0.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import hashlib
import importlib.util
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
# manifest lines that depend on the machine: the run's times and which step ran
_MACHINE_KEYS = (b"snapshot_write_s =", b"wall_time_s =", b"step_kernel =")
# manifest lines that count what a run did: any change is flagged
_COUNT_KEYS = ("step_count", "snapshot_count")
# the largest |delta| --compare lets through, relative to max(sup|column|, 1)
_BOUND = 1e-10
_EXIT_CODES = "exit_codes.txt"
_SNAPSHOT_COLUMNS = ("x", "u", "v", "c")


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


def _benchmark_argvs(out: Path, config_dir: Path) -> list[list[str]]:
    """The command of every perfbench workload on its seed-0 config."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)  # leaves nothing next to perfbench/workloads.py
    finally:
        sys.dont_write_bytecode = write_bytecode
    argvs = []
    for name, w in module.WORKLOADS.items():
        fields = {"cfg": module.write_config(name, 0, config_dir), "out": out / "perfbench" / name}
        argvs.append([arg.format(**fields) for arg in w.argv])
    return argvs


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
    argvs += _benchmark_argvs(out, config_dir)
    argvs += [["validate", str(cfg)] for cfg in configs]
    return argvs


# (compiled run in OUT_DIR, its arguments) re-run with CC=false: thm22 --emit-c
# steps with theta = 0.5 and writes the c column, thm21 steps with theta = 1
_FALLBACK_RUNS = (("emit_c/thm22", ("thm22.cfg", "--emit-c")), ("run/thm21", ("thm21.cfg",)),
                  ("run/fig1_consistent", ("fig1_consistent.cfg",)))


def _fallback_mismatch(out: Path, scratch: Path) -> str | None:
    """Run each of `_FALLBACK_RUNS` where the library cannot build, and say
    how its files differ from the compiled run's in `out`, or None when they
    all match."""
    from chemoshock import cli

    src = Path(cli.__file__).resolve().parent.parent  # the chemoshock run above
    env = dict(os.environ, CC="false", XDG_CACHE_HOME=str(scratch / "empty_cache"),
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    for name, (cfg, *flags) in _FALLBACK_RUNS:
        fallback = scratch / "fallback" / name
        subprocess.run([sys.executable, "-m", "chemoshock.cli", "run", str(SCENARIO_DIR / cfg),
                        *flags, "--out", str(fallback)],
                       env=env, check=True, stdout=subprocess.DEVNULL, timeout=600)
        if b"step_kernel = numpy" not in (fallback / "manifest.txt").read_bytes():
            return f"the CC=false {name} run did not take the numpy stages"
        compiled = out / name
        if not compiled.is_dir():
            return f"the compiled {name} run wrote nothing"
        names = sorted(p.name for p in compiled.iterdir())
        if names != sorted(p.name for p in fallback.iterdir()):
            return f"the CC=false {name} run wrote other files"
        differ = [f for f in names if _digest(compiled / f) != _digest(fallback / f)]
        if differ:
            return f"the CC=false {name} run differs in {', '.join(differ)}"
    return None


def _numpy_manifest(out: Path) -> Path | None:
    """The first manifest under `out` that says `step_kernel = numpy`, else None."""
    return next((path for path in sorted(out.rglob("manifest.txt"))
                 if b"step_kernel = numpy" in path.read_bytes()), None)


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.txt":
        lines = data.splitlines(keepends=True)
        data = b"".join(line for line in lines if not line.startswith(_MACHINE_KEYS))
    return hashlib.sha256(data).hexdigest()


def _label(argv: list[str], out: Path, config_dir: Path) -> str:
    """argv with the directories that differ between checkouts and runs named."""
    label = " ".join(argv)
    for path, name in ((out, "OUT"), (config_dir, "CFG"), (ROOT, ".")):
        label = label.replace(str(path), name)
    return label


def _digest_runs(out_dir: Path) -> int:
    from chemoshock import cli

    codes = []
    with tempfile.TemporaryDirectory() as config_dir:
        # the runs build and load the library in a cache of their own: a build
        # deletes every other library in its cache, the user's included
        os.environ["XDG_CACHE_HOME"] = str(Path(config_dir) / "cache")
        for argv_run in _argvs(out_dir, Path(config_dir)):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv_run)
            codes.append(f"{_label(argv_run, out_dir, Path(config_dir))} = {code}\n")
            if code != 0:
                print(f"exit {code}: chemoshock {' '.join(argv_run)}", file=sys.stderr)
            elif argv_run[0] == "validate":
                kept = out_dir / "validate" / f"{Path(argv_run[1]).stem}.txt"
                kept.parent.mkdir(parents=True, exist_ok=True)
                kept.write_text(stdout.getvalue())
        (out_dir / _EXIT_CODES).write_text("".join(codes))
        mismatch = _fallback_mismatch(out_dir, Path(config_dir))
    if mismatch:
        print(f"fallback: {mismatch}", file=sys.stderr)
        return 1
    numpy_run = _numpy_manifest(out_dir)
    if numpy_run:
        print(f"{numpy_run}: a compiled run took the numpy stages", file=sys.stderr)
        return 1
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        print(f"{_digest(path)}  {path.relative_to(out_dir).as_posix()}")
    return 2 if any(not line.endswith(" = 0\n") for line in codes) else 0


def _columns(path: Path) -> tuple[int, dict[str, list[str]]]:
    """(row count, {column: cells}) of an output file, as --compare reads it."""
    text = path.read_text()
    if path.suffix == ".csv":
        header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
        return len(rows), {name: [row[j] if j < len(row) else "" for row in rows]
                           for j, name in enumerate(header)}
    columns: dict[str, list[str]] = {}
    rows = 0
    for line in text.splitlines():
        if path.suffix == ".dat" and line.startswith("# "):  # the header, '# t=<time>'
            key, _, value = line[2:].partition("=")
            columns.setdefault(key, []).append(value)
            continue
        rows += 1
        if path.suffix == ".dat":
            for name, value in zip(_SNAPSHOT_COLUMNS, line.split()):
                columns.setdefault(name, []).append(value)
        elif " = " in line:
            key, _, value = line.partition(" = ")
            if f"{key} =".encode() not in _MACHINE_KEYS:
                columns.setdefault(key, []).append(value)
        else:
            columns.setdefault(f"line {rows}", []).append(line)
    return rows, columns


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _column_delta(old: list[str], new: list[str]) -> tuple[float, float, int]:
    """(largest |delta|, sup |cell| over both sides, changed non-numeric cells)."""
    delta = sup = 0.0
    text_changes = 0
    for a, b in zip(old, new):
        x, y = _number(a), _number(b)
        if x is None or y is None:
            text_changes += a != b
            continue
        for z in (x, y):
            if math.isfinite(z):
                sup = max(sup, abs(z))
        if x != y and not (math.isnan(x) and math.isnan(y)):
            d = abs(x - y)
            delta = max(delta, d if math.isfinite(d) else math.inf)
    return delta, sup, text_changes


def compare(old: Path, new: Path) -> int:
    """Print how the output tree `new` differs from `old`; 1 when it is
    flagged (see the module docstring), else 0."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    old_files, new_files = files(old), files(new)
    flags = [f"{f}: only in {side}" for side, only in ((old, old_files - new_files),
                                                       (new, new_files - old_files))
             for f in sorted(only)]
    worst: dict[str, tuple[float, float, str]] = {}  # '*.suffix column' -> (rel, |delta|, file)
    changed_files = 0
    for name in sorted(old_files & new_files):
        if _digest(old / name) == _digest(new / name):
            continue
        changed_files += 1
        old_rows, old_cols = _columns(old / name)
        new_rows, new_cols = _columns(new / name)
        if old_rows != new_rows:
            flags.append(f"{name}: {old_rows} rows, now {new_rows}")
        if list(old_cols) != list(new_cols):
            flags.append(f"{name}: columns {list(old_cols)}, now {list(new_cols)}")
        for column in old_cols.keys() & new_cols.keys():
            a, b = old_cols[column], new_cols[column]
            if a == b:
                continue
            if name == _EXIT_CODES or name.endswith("manifest.txt") and column in _COUNT_KEYS:
                flags.append(f"{name}: {column} {' '.join(a)}, now {' '.join(b)}")
                continue
            delta, sup, text_changes = _column_delta(a, b)
            if text_changes:
                flags.append(f"{name}: {column}: {text_changes} cells changed text")
            if delta == 0.0:
                continue
            rel = delta / sup if sup > 0.0 else math.inf
            mark = "  above the bound" if not delta <= _BOUND * max(sup, 1.0) else ""
            print(f"{name}  {column}  max|delta| {delta:.3e}  rel {rel:.3e}{mark}")
            key = f"*{Path(name).suffix} {column}"
            if rel > worst.get(key, (-1.0,))[0]:
                worst[key] = (rel, delta, name)
            if mark:
                flags.append(f"{name}: {column}: |delta| {delta:.3e} > {_BOUND:g} * "
                             f"max(sup {sup:.3e}, 1)")
    print(f"\n{len(old_files & new_files)} files in both, {changed_files} differ; "
          "worst |delta| / sup|column| per file type and column:")
    for key, (rel, delta, name) in sorted(worst.items(), key=lambda kv: -kv[1][0]):
        print(f"  {key}  rel {rel:.3e}  max|delta| {delta:.3e}  ({name})")
    for flag in flags:
        print(f"FLAGGED {flag}")
    return 1 if flags else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, nargs="?",
                        help="a new or empty directory for the runs")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD_OUT", "NEW_OUT"),
                        help="compare two directories that this script ran into, and run nothing")
    args = parser.parse_args(argv)
    if args.compare:
        if args.out_dir is not None:
            parser.error("give OUT_DIR or --compare, not both")
        return compare(*args.compare)
    if args.out_dir is None:
        parser.error("give OUT_DIR or --compare OLD_OUT NEW_OUT")
    if args.out_dir.exists() and any(args.out_dir.iterdir()):
        parser.error(f"{args.out_dir} is not empty")
    return _digest_runs(args.out_dir)


if __name__ == "__main__":
    raise SystemExit(main())

"""Digest every output file of a fixed set of runs, for byte-identity checks.

    PYTHONPATH=src python tools/output_digest.py OUT_DIR

Runs, with the `chemoshock` found on PYTHONPATH:
  * `run` on every `scenarios/*.cfg`;
  * `run --emit-c` on `thm22`;
  * `sweep` of `thm21` over `n_nodes=1001,4001`;
  * `sweep` of `thm22` over `u_pert_halfwidth=2,5,0`.

Each manifest's `wall_time_s` line is deleted, then one `sha256  relative/path`
line is printed per output file, sorted by path.  A refactor that must keep
every output byte passes when this output is the same before and after it:

    PYTHONPATH=<old>/src python tools/output_digest.py old_out > old.txt
    PYTHONPATH=<new>/src python tools/output_digest.py new_out > new.txt
    diff old.txt new.txt

The runs take ~12 s on one core of a 2-core x86-64 box.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

from chemoshock import cli

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _argvs(out: Path) -> list[list[str]]:
    argvs = [["run", str(cfg), "--out", str(out / "run" / cfg.stem)]
             for cfg in sorted(SCENARIO_DIR.glob("*.cfg"))]
    argvs.append(["run", str(SCENARIO_DIR / "thm22.cfg"), "--emit-c",
                  "--out", str(out / "emit_c" / "thm22")])
    for name, axis, values in (("thm21", "n_nodes", "1001,4001"),
                               ("thm22", "u_pert_halfwidth", "2,5,0")):
        argvs.append(["sweep", str(SCENARIO_DIR / f"{name}.cfg"), "--axis", axis,
                      "--values", values, "--out", str(out / "sweep" / name)])
    return argvs


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.txt":
        lines = data.splitlines(keepends=True)
        data = b"".join(line for line in lines if not line.startswith(b"wall_time_s ="))
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="a new or empty directory for the runs")
    args = parser.parse_args(argv)
    if args.out_dir.exists() and any(args.out_dir.iterdir()):
        parser.error(f"{args.out_dir} is not empty")
    for argv_run in _argvs(args.out_dir):
        with contextlib.redirect_stdout(io.StringIO()):  # `run` prints its wall time
            code = cli.main(argv_run)
        if code != 0:
            print(f"exit {code}: chemoshock {' '.join(argv_run)}", file=sys.stderr)
            return code
    for path in sorted(p for p in args.out_dir.rglob("*") if p.is_file()):
        print(f"{_digest(path)}  {path.relative_to(args.out_dir).as_posix()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

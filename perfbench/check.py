"""Output checker: decides whether one benchmark command produced a correct
result.  A command fails on a non-zero exit code, a missing or extra snapshot
or manifest, a non-finite series.csv entry, min_u <= 0, a broken v-mass
balance, or (wave workloads) a front speed away from the exact wave speed.

The checker parses the files itself instead of importing chemoshock's
readers, so a fault in those readers cannot hide a bad output.  `self_test`
corrupts a copy of a good series.csv and manifest in several ways and
confirms that each corruption is rejected.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import Workload, expected_snapshots

# d/dt int v = u(x_max) - u(x_min) holds per step up to rounding while the far
# fields stay flat at the pinned end nodes.  Waves that the jump data emits
# reach the boundaries in shock_run, which moves the balance by ~3e-6 of the
# v mass; the bound is relative to the largest v mass seen.
MASS_V_TOL = 1e-5
# Front speed fitted over the second half of the run against the exact wave
# speed; the dipoles of snapshot_dense still bend it by ~2.4% at t = 20.
FRONT_SPEED_TOL = 0.05


def read_manifest(path: Path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, val = line.partition("=")
            if sep:
                out[key.strip()] = val.strip()
    return out


def read_series(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_data(
    w: Workload, header: list[str], body: list[list[str]], manifest: dict[str, str]
) -> list[str]:
    """Checks that need only the parsed series.csv and manifest."""
    errors = []
    n = expected_snapshots(w)
    if len(body) != n:
        errors.append(f"series.csv has {len(body)} rows, expected {n}")
    if manifest.get("snapshot_count") != str(n):
        errors.append(f"manifest snapshot_count {manifest.get('snapshot_count')}, expected {n}")
    try:
        table = [[float(cell) for cell in row] for row in body]
    except ValueError as exc:
        return errors + [f"series.csv: {exc}"]
    if any(len(row) != len(header) for row in table):
        errors.append("series.csv has ragged rows")
        return errors
    if not all(math.isfinite(x) for row in table for x in row):
        errors.append("series.csv has non-finite entries")
        return errors
    try:
        min_u = float(manifest["min_u"])
        u_left = float(manifest["boundary_u_left"])
        u_right = float(manifest["boundary_u_right"])
    except (KeyError, ValueError) as exc:
        return errors + [f"manifest: {exc}"]
    if not min_u > 0.0:
        errors.append(f"min_u = {min_u} <= 0")
    if table:
        col = {name: j for j, name in enumerate(header)}
        t0, m0 = table[0][col["t"]], table[0][col["mass_v"]]
        scale = max(1.0, max(abs(row[col["mass_v"]]) for row in table))
        worst = max(
            abs(row[col["mass_v"]] - m0 - (row[col["t"]] - t0) * (u_right - u_left))
            for row in table
        )
        if worst > MASS_V_TOL * scale:
            errors.append(f"v-mass balance off by {worst:.3e}")
    if w.wave:
        try:
            rel = float(manifest["front_speed_rel_err"])
        except (KeyError, ValueError):
            errors.append("manifest has no front_speed_rel_err")
        else:
            if not rel <= FRONT_SPEED_TOL:
                errors.append(f"front_speed_rel_err = {rel} > {FRONT_SPEED_TOL}")
    return errors


def check_run(w: Workload, run_dir: Path) -> list[str]:
    """Check one scenario run directory."""
    n = expected_snapshots(w)
    for name in ("manifest.txt", "series.csv"):
        if not (run_dir / name).is_file():
            return [f"{run_dir.name or '.'}: missing {name}"]
    snaps = sorted(p.name for p in run_dir.glob("snap_*.dat"))
    if snaps != [f"snap_{i:04d}.dat" for i in range(n)]:
        return [f"{run_dir.name or '.'}: {len(snaps)} snapshot files, expected {n}"]
    header, body = read_series(run_dir / "series.csv")
    return check_data(w, header, body, read_manifest(run_dir / "manifest.txt"))


def check_command(w: Workload, out_dir: Path, exit_code: int) -> list[list[str]]:
    """Check everything one command wrote.  Returns, for each scenario run of
    the command, the reasons it failed (empty for a run that passed)."""
    if exit_code != 0:
        return [[f"exit code {exit_code}"] for _ in w.runs]
    results = [check_run(w, out_dir / sub) for sub in w.runs]
    if w.argv[0] == "sweep":
        statuses = []
        if (out_dir / "sweep.csv").is_file():
            with open(out_dir / "sweep.csv", newline="") as fh:
                statuses = [row["status"] for row in csv.DictReader(fh)]
        for i, errors in enumerate(results):
            status = statuses[i] if i < len(statuses) else "missing"
            if status != "ok":
                errors.append(f"sweep.csv row {i}: status {status}")
    return results


def self_test(w: Workload, run_dir: Path) -> list[str]:
    """Corrupt copies of a good run's series.csv and manifest and return the
    corruptions the checker failed to reject (empty when it works)."""
    header, body = read_series(run_dir / "series.csv")
    manifest = read_manifest(run_dir / "manifest.txt")
    col = {name: j for j, name in enumerate(header)}
    if check_data(w, header, body, manifest):
        return ["good output rejected"]

    def with_cell(row: int, name: str, value) -> list[list[str]]:
        out = [list(r) for r in body]
        out[row][col[name]] = value(out[row][col[name]])
        return out

    last = len(body) - 1
    cases = {
        "nan entry": (with_cell(last // 2, "sup_u_err", lambda _: "nan"), manifest),
        "inf entry": (with_cell(last, "entropy", lambda _: "inf"), manifest),
        "missing row": (body[:-1], manifest),
        "v-mass drift": (
            with_cell(last, "mass_v", lambda s: repr(float(s) * (1 + 1e-3) + 1e-3)),
            manifest,
        ),
        "min_u <= 0": (body, {**manifest, "min_u": "-1e-3"}),
    }
    if w.wave:
        cases["front speed off"] = (body, {**manifest, "front_speed_rel_err": "0.5"})
    missed = []
    for label, (rows, man) in cases.items():
        # round-trip through a file, as the checker reads it
        path = run_dir / "series.selftest.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        h2, b2 = read_series(path)
        path.unlink()
        if not check_data(w, h2, b2, man):
            missed.append(label)
    return missed

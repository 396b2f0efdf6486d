"""chemoshock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from src/.
The seed generates the workload's scenario config (workloads.py), and the
public CLI (`python3 -m chemoshock.cli`) runs it, one process at a time
(closed loop, one client), with BLAS/OpenMP threads pinned to 1.  Every
command's output is checked (check.py).  Scratch files go to .perfbench/.

Set-up: one untimed `validate` (it compiles bytecode), then SETUP_REPEATS
timed fresh-process `validate` calls; setup_s is their median.

--trace 0: the workload command is repeated until --seconds are used; the
end-to-end metrics are medians over the commands.
--trace 1: untraced commands alternate with traced ones (trace_child.py);
the per-layer metrics are medians over the traced commands (layers.py), and
trace_overhead_frac compares the two kinds of wall time.

Every timed process sits between two runs of the calibration kernel, and
wall_s, setup_s and trace_overhead_frac use calibrated times (calibrate.py);
the raw medians are printed next to them.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  `attempted` counts scenario runs (three per grid_sweep
command); failed / attempted is the failed_frac line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import check
import layers
from calibrate import REF_KERNEL_S, Kernel
from workloads import WORKLOADS, Workload, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 13
# A command that runs longer than this is killed and counted as failed, so a
# hung program cannot keep the benchmark past its own time limit.
CHILD_TIMEOUT_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
median = layers.median


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            facts[f"L{level}"] = size
    facts["python"] = platform.python_version()
    for pkg in ("numpy", "scipy"):
        try:
            facts[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            facts[pkg] = "missing"
    facts["threads"] = {var: "1" for var in THREAD_VARS}
    return facts


class Runner:
    """Spawns timed child processes, each between two calibration kernels."""

    def __init__(self, log: Path) -> None:
        self.env = child_env()
        self.log = log
        self.kernel = Kernel()
        self.kernel.seconds()  # warm-up
        self.last_kernel = self.kernel.seconds()

    def spawn(self, cmd: list[str]) -> dict:
        """Run cmd to completion and return its exit code, spawn and exit
        times, wall and calibrated seconds, and peak RSS in KiB."""
        with open(self.log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        before, self.last_kernel = self.last_kernel, self.kernel.seconds()
        wall = t1 - t0
        return {"code": proc.returncode, "t0": t0, "t1": t1, "wall": wall,
                "cal": wall * REF_KERNEL_S / (0.5 * (before + self.last_kernel)),
                "rss_kib": usage.ru_maxrss}

    def log_tail(self) -> str:
        return self.log.read_text(errors="replace")[-4000:]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench" / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = write_config(w.name, seed, work)
    out = work / "out"
    prefix = str(work / "spans")
    cli = [sys.executable, "-m", "chemoshock.cli"]
    argv = [a.format(cfg=cfg, out=out) for a in w.argv]
    print(f"workload {w.name} seed {seed}: {w.why}")
    print("machine " + json.dumps(machine_facts()))
    runner = Runner(work / "child.log")

    setup_raw, setup_cal = [], []
    for i in range(SETUP_REPEATS + 1):
        r = runner.spawn(cli + ["validate", str(cfg)])
        if r["code"] != 0:
            sys.stderr.write(runner.log_tail())
            raise SystemExit(f"perfbench: validate exited with {r['code']}")
        if i:
            setup_raw.append(r["wall"])
            setup_cal.append(r["cal"])

    plain = {"raw": [], "cal": [], "rss": [], "out": [], "sup": [], "speed": []}
    traced_cal, traced_layers = [], []
    attempted = failed = 0
    self_test_missed = None
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        r = runner.spawn(
            [sys.executable, str(HERE / "trace_child.py"), prefix] + argv if traced
            else cli + argv)
        results = check.check_command(w, out, r["code"])
        attempted += len(results)
        failed += sum(1 for errors in results if errors)
        ok = not any(results)
        print(f"command {k} {'traced' if traced else 'plain'}: wall {r['wall']:.4f} s, "
              f"calibrated {r['cal']:.4f} s, exit {r['code']}, "
              + ("ok" if ok else "FAILED " + "; ".join(sum(results, []))))
        if not ok:
            sys.stderr.write(runner.log_tail())
        if traced:
            if r["code"] == 0:
                traced_cal.append(r["cal"])
                traced_layers.append(
                    layers.layer_metrics(*layers.load(prefix), r["t0"], r["t1"]))
        else:
            plain["raw"].append(r["wall"])
            plain["cal"].append(r["cal"])
            if ok:
                finest = out / w.runs[-1]
                header, body = check.read_series(finest / "series.csv")
                plain["rss"].append(r["rss_kib"] * 1024 / 1e6)
                plain["out"].append(_dir_bytes(out) / 1e6)
                plain["sup"].append(float(body[-1][header.index("sup_u_err")]))
                if w.wave:
                    manifest = check.read_manifest(finest / "manifest.txt")
                    plain["speed"].append(float(manifest["front_speed_rel_err"]))
                if self_test_missed is None:
                    self_test_missed = check.self_test(w, finest)
                    print("checker self-test: " + (
                        "rejects every corruption" if not self_test_missed
                        else "MISSED " + ", ".join(self_test_missed)))
        k += 1
        if k >= (2 if trace else 1) and time.perf_counter() - start + r["wall"] > seconds:
            break
    shutil.rmtree(out, ignore_errors=True)

    e2e = {
        "wall_s": (median(plain["cal"]), "s"),
        "setup_s": (median(setup_cal), "s"),
        "peak_rss_mb": (median(plain["rss"]), "MB"),
        "output_mb": (median(plain["out"]), "MB"),
        "sup_u_err_final": (median(plain["sup"]), "1"),
    }
    report = dict(e2e)
    report["wall_s.raw"] = (median(plain["raw"]), "s")
    report["setup_s.raw"] = (median(setup_raw), "s")
    report["failed_frac"] = (failed / attempted, "1")
    if w.wave:
        report["front_speed_rel_err"] = (median(plain["speed"]), "1")
    per_layer = {}
    if traced_layers:
        per_layer = {name: (median([m[name][0] for m in traced_layers]), unit)
                     for name, (_, unit) in traced_layers[0].items()}
        per_layer["trace_overhead_frac"] = (
            median(traced_cal) / median(plain["cal"]) - 1.0, "frac")
        report.update(per_layer)
    print(f"commands: {len(plain['cal'])} plain, {len(traced_cal)} traced; "
          f"setup samples: {len(setup_cal)}")
    for name, (value, unit) in report.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    return {
        "correct": failed == 0 and self_test_missed == [] and (bool(per_layer) or not trace),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in (per_layer if trace else e2e).items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "chemoshock" / "cli.py").is_file():
        print(f"perfbench: no chemoshock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

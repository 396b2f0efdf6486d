"""Per-layer metrics from the spans one traced command wrote (see
trace_child.py).  A span's self time is its duration minus the durations of
its children; calls within one process never overlap, so that is the part of
its interval no child covers.  The cli layer also owns interpreter start-up
(process spawn to the first span) and exit (end of the last span to process
exit, less the time spent writing the spans).  A metric with no samples in a
command (a grid size the workload does not run) reads 0.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict

MODULES = ("cli", "scenarios", "solver", "core", "diagnostics", "waves",
           "cole_hopf", "mollifier")
SIZES = (1001, 4001, 12001)

# (metric name, span name, statistic, unit); statistic is one of
# calls, median, p99, self_median, self_total, total.
_SPAN_METRICS = (
    ("solver.step.calls", "solver.step", "calls", "count"),
    ("solver.step.median_us", "solver.step", "median", "us"),
    ("solver.step.p99_us", "solver.step", "p99", "us"),
    ("solver.step.self_us", "solver.step", "self_median", "us"),
    ("solver.characteristic_speed_bound.median_us",
     "solver.characteristic_speed_bound", "median", "us"),
    ("solver.solve_banded.median_us", "solver.solve_banded", "median", "us"),
    ("solver.run.self_s", "solver.run", "self_total", "s"),
    ("core.Field.calls", "core.Field", "calls", "count"),
    ("core.Field.median_us", "core.Field", "median", "us"),
    ("core.write_snapshot.calls", "core.write_snapshot", "calls", "count"),
    ("core.write_snapshot.median_ms", "core.write_snapshot", "median", "ms"),
    ("diagnostics.assemble_record.calls", "diagnostics.assemble_record", "calls", "count"),
    ("diagnostics.assemble_record.median_ms", "diagnostics.assemble_record", "median", "ms"),
    ("diagnostics.flux_identity_residual.median_ms",
     "diagnostics.flux_identity_residual", "median", "ms"),
    ("diagnostics.front_position.calls", "diagnostics.front_position", "calls", "count"),
    ("diagnostics.write_series.ms", "diagnostics.write_series", "median", "ms"),
    ("diagnostics.read_series.calls", "diagnostics.read_series", "calls", "count"),
    ("waves.profile.calls", "waves.profile", "calls", "count"),
    ("waves.profile.median_us", "waves.profile", "median", "us"),
    ("cole_hopf.from_v.median_us", "cole_hopf.from_v", "median", "us"),
    ("mollifier.mollify.calls", "mollifier.mollify", "calls", "count"),
    ("scenarios.parse_scenario.ms", "scenarios.parse_scenario", "median", "ms"),
    ("scenarios.build_initial.ms", "scenarios.build_initial", "median", "ms"),
    ("scenarios.wire_reference.ms", "scenarios.wire_reference", "median", "ms"),
    ("scenarios.write_manifest.ms", "scenarios.write_manifest", "median", "ms"),
    ("scenarios.run_scenario.self_ms", "scenarios.run_scenario", "self_median", "ms"),
    ("cli.import_s", "cli.import", "total", "s"),
)

# per grid size, on the spans of the scenario runs at that size
_SIZE_METRICS = (
    ("solver.step.calls", "solver.step", "calls", "count"),
    ("solver.step.median_us", "solver.step", "median", "us"),
    ("solver.step.p99_us", "solver.step", "p99", "us"),
    ("solver.step.self_us", "solver.step", "self_median", "us"),
    ("scenarios.run_scenario.s", "scenarios.run_scenario", "total", "s"),
)

_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0, "count": 1.0}


def median(xs: list[float]) -> float:
    """Median of xs, or 0 when there are no samples."""
    if not xs:
        return 0.0
    s = sorted(xs)
    m = len(s) // 2
    return s[m] if len(s) % 2 else 0.5 * (s[m - 1] + s[m])


def _stat(durs: list[float], selfs: list[float], stat: str) -> float:
    if stat == "calls":
        return float(len(durs))
    if stat == "median":
        return median(durs)
    if stat == "p99":
        return sorted(durs)[int(0.99 * (len(durs) - 1))] if durs else 0.0
    if stat == "self_median":
        return median(selfs)
    if stat == "self_total":
        return sum(selfs)
    return sum(durs)  # total


def load(prefix: str) -> tuple[dict, list[tuple[int, float, float, int, int]]]:
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    flat = array("d")
    with open(prefix + ".f64", "rb") as fh:
        flat.frombytes(fh.read())
    spans = [
        (int(flat[i]), flat[i + 1], flat[i + 2], int(flat[i + 3]), int(flat[i + 4]))
        for i in range(0, len(flat), 5)
    ]
    return meta, spans


def layer_metrics(meta: dict, spans, t_spawn: float, t_exit: float
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced command, spawned at t_spawn and reaped
    at t_exit (perf_counter readings of the parent)."""
    names = meta["names"]
    wall_s = t_exit - t_spawn
    startup = min(start for _, start, _, _, _ in spans) - t_spawn
    exit_ = t_exit - max(end for _, _, end, _, _ in spans) - meta["dump_s"]
    durs = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += durs[i]
    selfs = [d - c for d, c in zip(durs, child)]

    by_name = defaultdict(lambda: ([], []))
    by_size = defaultdict(lambda: ([], []))
    module_self = dict.fromkeys(MODULES, 0.0)
    size_solver = defaultdict(float)
    for i, (nid, _, _, _, run) in enumerate(spans):
        name = names[nid]
        n_nodes = meta["runs"][run]["n_nodes"]
        for table, key in ((by_name, name), (by_size, (name, n_nodes))):
            table[key][0].append(durs[i])
            table[key][1].append(selfs[i])
        module = name.split(".", 1)[0]
        module_self[module] += selfs[i]
        if module == "solver":
            size_solver[n_nodes] += selfs[i]

    module_self["cli"] += startup + exit_

    out: dict[str, tuple[float, str]] = {"cli.startup_s": (startup, "s"),
                                         "cli.exit_s": (exit_, "s")}
    for metric, span, stat, unit in _SPAN_METRICS:
        d, s = by_name[span]
        out[metric] = (_stat(d, s, stat) * _SCALE[unit], unit)
    for n in SIZES:
        for metric, span, stat, unit in _SIZE_METRICS:
            d, s = by_size[(span, n)]
            out[f"{metric}.n{n}"] = (_stat(d, s, stat) * _SCALE[unit], unit)
        out[f"solver.share.n{n}"] = (size_solver[n] / wall_s, "frac")
    out["core.write_snapshot.bytes"] = (
        float(meta["counters"]["core.write_snapshot.bytes"]), "B")
    for module in MODULES:
        out[f"{module}.share"] = (module_self[module] / wall_s, "frac")
    out["core.write_snapshot.share"] = (sum(by_name["core.write_snapshot"][0]) / wall_s,
                                        "frac")
    out["trace_coverage_frac"] = (sum(module_self.values()) / wall_s, "frac")
    return out

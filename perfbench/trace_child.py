"""Traced chemoshock CLI call.

    python3 perfbench/trace_child.py <spans-prefix> <chemoshock CLI args...>

Imports chemoshock, replaces public functions with timing wrappers under the
names their callers look them up by, and calls `chemoshock.cli.main(argv)`.
Nothing under src/ changes.  Each span records its name, start, end, parent
span and run id; spans are kept in memory and written when the call returns,
as <prefix>.f64 (five doubles per span: name index, start, end, parent index
or -1, run index) and <prefix>.json (names, runs, counters, exit code, and the
time spent writing the spans).  Times are time.perf_counter() readings, which
on Linux share one monotonic clock with the parent process.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[float]] = []
        self.stack: list[int] = []
        self.runs: list[dict] = [{"id": "cli", "n_nodes": 0}]
        self.run = 0
        self.counters: dict[str, int] = {"core.write_snapshot.bytes": 0}

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> list[float]:
        rec = [name_id, _clock(), 0.0, self.stack[-1] if self.stack else -1, self.run]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list[float]) -> None:
        rec[2] = _clock()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            rec = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)

        return traced

    def dump(self, prefix: str, exit_code: int) -> None:
        t0 = _clock()
        flat = array("d", [x for rec in self.spans for x in rec])
        with open(prefix + ".f64", "wb") as fh:
            flat.tofile(fh)
        with open(prefix + ".json", "w") as fh:
            json.dump(
                {"exit": exit_code, "names": self.names, "runs": self.runs,
                 "counters": self.counters, "dump_s": _clock() - t0},
                fh,
            )


def _install(tr: Tracer) -> None:
    """Wrap each public function in every module namespace that calls it."""
    from chemoshock import cli, core, diagnostics, scenarios, solver, waves

    def patch(name: str, *modules, attr: str | None = None, wrapper=None) -> None:
        attr = attr or name.rsplit(".", 1)[1]
        fn = getattr(modules[0], attr)
        traced = (wrapper or tr.wrap)(name, fn)
        for mod in modules:
            if getattr(mod, attr) is not fn:
                raise RuntimeError(f"{mod.__name__}.{attr} is not {name}")
            setattr(mod, attr, traced)

    def run_scenario_wrapper(name, fn):
        nid = tr.name_id(name)

        def traced(cfg, *args, **kwargs):
            outer = tr.run
            tr.runs.append({"id": cfg.name, "n_nodes": cfg.grid.n_nodes})
            tr.run = len(tr.runs) - 1
            rec = tr.open(nid)
            try:
                return fn(cfg, *args, **kwargs)
            finally:
                tr.close(rec)
                tr.run = outer

        return traced

    def write_snapshot_wrapper(name, fn):
        nid = tr.name_id(name)

        def traced(path, *args, **kwargs):
            rec = tr.open(nid)
            try:
                fn(path, *args, **kwargs)
                tr.counters["core.write_snapshot.bytes"] += os.path.getsize(path)
            finally:
                tr.close(rec)

        return traced

    patch("scenarios.parse_scenario", cli)
    patch("scenarios.sweep", cli)
    patch("scenarios.build_initial", cli, scenarios)
    patch("scenarios.wire_reference", cli, scenarios)
    patch("scenarios.run_scenario", cli, scenarios, wrapper=run_scenario_wrapper)
    patch("scenarios.write_manifest", scenarios)
    patch("core.write_snapshot", scenarios, wrapper=write_snapshot_wrapper)
    patch("cole_hopf.from_v", scenarios)
    patch("mollifier.mollify", scenarios)
    patch("solver.run", scenarios)
    patch("solver.step", solver)
    patch("solver.characteristic_speed_bound", solver)
    patch("solver.solve_banded", solver)
    patch("diagnostics.assemble_record", diagnostics)
    patch("diagnostics.flux_identity_residual", diagnostics)
    patch("diagnostics.front_position", diagnostics)
    patch("diagnostics.write_series", diagnostics)
    patch("diagnostics.read_series", diagnostics)
    # Methods are looked up on the class, so the class attribute is replaced.
    # Every profile evaluation goes through u_profile (v_profile calls it).
    patch("core.Field", core.Field, attr="__init__")
    patch("waves.profile", waves.TravelingWave, attr="u_profile")


def main(argv: list[str]) -> int:
    prefix, cli_args = argv[0], argv[1:]
    tr = Tracer()
    rec = tr.open(tr.name_id("cli.import"))
    import chemoshock.cli

    tr.close(rec)
    _install(tr)
    rec = tr.open(tr.name_id("cli.main"))
    try:
        code = chemoshock.cli.main(cli_args)
    finally:
        tr.close(rec)
    tr.dump(prefix, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

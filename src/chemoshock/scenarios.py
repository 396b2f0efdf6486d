"""Config-driven experiment assembly: parse flat key=value scenario files,
build initial data, wire wave-aware diagnostics, run, and emit snapshots,
series.csv, and a manifest.
"""

from __future__ import annotations

import configparser
import contextlib
import copy
import csv
import difflib
import math
import time
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .cole_hopf import from_v
from .core import (
    _FLOAT_FMT,
    AsymptoticStates,
    ConfigError,
    Field,
    GridSpec,
    ModelParams,
    NumericalError,
    SimState,
    integral,
    read_snapshot,
    write_snapshot,
)
from .mollifier import MollifierSpec, mollify
from .solver import RunReport, SchemeConfig, _speed_bound, run
from .waves import TravelingWave, rh_residual, wave_speed

_LR_KEYS = ("u_left", "u_right", "v_left", "v_right")
_PERT_KEYS = tuple(
    f"{prefix}_pert_{name}"
    for prefix in ("u", "v")
    for name in ("kind", "amplitude", "center", "width", "halfwidth")
)
# The [initial] keys build_initial and _pert_arrays read for each initial_kind.
_INITIAL_KEYS = {
    "piecewise_constant": ("jump_x",) + _LR_KEYS,
    "ramp_h1": ("ramp_start", "ramp_end") + _LR_KEYS,
    "exact_wave_plus_bump": ("u_minus", "u_plus", "v_plus", "front_x", "zero_mass")
    + _PERT_KEYS,
    "constant_plus_jump": (
        "u_base", "v_base",
        "u_amplitude", "u_block_center", "u_block_width",
        "v_amplitude", "v_block_center", "v_block_width",
    ),
    "from_file": ("path",),
}
INITIAL_KINDS = tuple(_INITIAL_KEYS)
_PERT_KINDS = ("none", "block", "dipole")

_ZERO_MASS_TOL = 1e-10


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    grid: GridSpec
    params: ModelParams
    scheme: SchemeConfig
    initial_kind: str
    initial_params: dict = field(default_factory=dict)
    mollify_delta: float = 0.0
    seed_label: str = ""
    declared_states: AsymptoticStates | None = None
    probe_center: float | None = None
    probe_halfwidth: float = 5.0

    def __post_init__(self) -> None:
        if self.initial_kind not in INITIAL_KINDS:
            raise _unknown("[scenario]", "initial_kind", self.initial_kind, INITIAL_KINDS)
        p = self.initial_params
        allowed = _INITIAL_KEYS[self.initial_kind]
        for key in p:
            if key not in allowed:
                raise _unknown("[initial]", "key", key, allowed)
        typed = {key: _get(p, key, "[initial]", cast=_INITIAL_CASTS.get(key, float)) for key in p}
        object.__setattr__(self, "initial_params", typed)
        grid, c, h = self.grid, self.probe_center, self.probe_halfwidth
        if self.mollify_delta != 0:  # MollifierSpec takes a positive finite width only
            try:
                MollifierSpec(self.mollify_delta).validate_for(grid)
            except ConfigError as exc:
                raise ConfigError(f"bad value for [scenario]:mollify_delta: {exc}") from exc
        if not grid.dx <= h <= 0.5 * grid.length:
            raise ConfigError(
                f"bad value for [diagnostics]:probe_halfwidth: {h} must lie between the grid "
                f"spacing {grid.dx} and half the grid length {0.5 * grid.length}"
            )
        if c is not None and not grid.x_min <= c - h <= c + h <= grid.x_max:  # false for nan
            raise ConfigError(
                f"bad value for [diagnostics]:probe_center/probe_halfwidth: the window "
                f"[{c - h}, {c + h}] must lie inside the grid [{grid.x_min}, {grid.x_max}]"
            )


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------


def _get(section, key, where, default=None, cast=float):
    """section[key] through `cast`, or `default` when the key is absent and a
    default is given.  `section` is a config section or the [initial] dict;
    `where` names it in the error messages.  A float must be finite."""
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"missing key '{key}' in section {where}")
    try:
        val = cast(section[key])
        if cast is float and not math.isfinite(val):
            raise ValueError(f"{val} is not finite")
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad value for {where}:{key}: {exc}") from exc
    return val


def _boolean(val) -> bool:
    """configparser's boolean spellings; str() lets a typed bool re-type as itself."""
    return configparser.ConfigParser.BOOLEAN_STATES[str(val).lower()]


# How ScenarioConfig types each [initial] value that is not a finite float.
_INITIAL_CASTS = {"path": str, "u_pert_kind": str, "v_pert_kind": str, "zero_mass": _boolean}

# The keys each section may hold, lowercased as configparser stores them.
# [initial] keys depend on initial_kind: see _INITIAL_KEYS.
_SECTION_KEYS = {
    "scenario": ("name", "initial_kind", "mollify_delta", "seed_label"),
    "grid": ("x_min", "x_max", "n_nodes"),
    "model": ("d", "chi", "mu", "xi"),
    "scheme": ("cfl", "diffusion_theta", "t_end", "snapshot_interval"),
    "initial": None,
    "states": ("u_minus", "u_plus", "v_minus", "v_plus"),
    "diagnostics": ("probe_center", "probe_halfwidth"),
}


def _unknown(where: str, kind: str, name: str, valid) -> ConfigError:
    match = difflib.get_close_matches(name, valid, n=1)
    hint = f"did you mean '{match[0]}'?" if match else f"expected one of {', '.join(valid)}"
    return ConfigError(f"{where}: unknown {kind} '{name}' ({hint})")


def _allowed_keys(section: str, initial_kind: str):
    """The keys `section` may hold; None for an unknown section or initial_kind."""
    return _INITIAL_KEYS.get(initial_kind) if section == "initial" else _SECTION_KEYS.get(section)


def _check_names(cp: configparser.ConfigParser, path: Path) -> None:
    """Reject sections and keys that _SECTION_KEYS does not list.  ScenarioConfig
    checks the [initial] keys, since they depend on initial_kind."""
    sections = ([cp.default_section] if cp.defaults() else []) + cp.sections()
    for section in sections:
        if section not in _SECTION_KEYS:
            raise _unknown(str(path), "section", section, list(_SECTION_KEYS))
        allowed = _SECTION_KEYS[section]
        if allowed is None:
            continue
        for key in cp[section]:
            if key not in allowed:
                raise _unknown(f"{path} [{section}]", "key", key, allowed)


def read_config(path) -> configparser.ConfigParser:
    """The config file's text, parsed into sections and keys but not checked."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    # no interpolation: each value is the text its own key holds
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read(path, encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return cp


def parse_scenario(path) -> ScenarioConfig:
    return scenario_from_config(read_config(path), path)


def scenario_from_config(cp: configparser.ConfigParser, path) -> ScenarioConfig:
    """The scenario `cp` holds; `path` names the file in messages and the default name."""
    path = Path(path)
    for required in ("scenario", "grid", "model", "scheme", "initial"):
        if required not in cp:
            raise ConfigError(f"{path}: missing [{required}] section")
    sc = cp["scenario"]
    initial_kind = _get(sc, "initial_kind", "[scenario]", cast=str)
    _check_names(cp, path)
    grid = GridSpec(
        x_min=_get(cp["grid"], "x_min", "[grid]"),
        x_max=_get(cp["grid"], "x_max", "[grid]"),
        n_nodes=_get(cp["grid"], "n_nodes", "[grid]", cast=int),
    )
    # keys that are set are kept; a missing one follows from chi = mu*xi (mu = 1 if chi is alone)
    model = cp["model"]
    coupling = {key: _get(model, key, "[model]") for key in ("chi", "mu", "xi") if key in model}
    for key, val in coupling.items():
        if val <= 0:  # here, before a derived key divides by it
            raise ConfigError(f"{key} must be a positive finite number (got {val})")
    if "mu" not in coupling or "xi" not in coupling:
        chi = _get(coupling, "chi", "[model]")
        coupling.setdefault("mu", chi / coupling["xi"] if "xi" in coupling else 1.0)
        coupling.setdefault("xi", chi / coupling["mu"])
    coupling.setdefault("chi", coupling["mu"] * coupling["xi"])
    params = ModelParams(D=_get(model, "D", "[model]"), **coupling)

    sch = cp["scheme"]
    scheme = SchemeConfig(
        t_end=_get(sch, "t_end", "[scheme]"),
        snapshot_interval=_get(sch, "snapshot_interval", "[scheme]"),
        # optional keys are passed only when set, so each default lives in SchemeConfig
        **{key: _get(sch, key, "[scheme]") for key in ("cfl", "diffusion_theta") if key in sch},
    )
    initial_params = dict(cp["initial"])
    if initial_kind == "from_file" and "path" in initial_params:
        # a relative snapshot path is read from the config file's directory
        initial_params["path"] = str(path.parent / initial_params["path"])

    declared = None
    if "states" in cp:
        far_fields = {key: _get(cp["states"], key, "[states]") for key in _SECTION_KEYS["states"]}
        try:
            declared = AsymptoticStates(**far_fields)
        except ValueError as exc:
            raise ConfigError(f"bad [states] section: {exc}") from exc

    # optional keys are passed only when set, so each default lives in ScenarioConfig
    optional = {
        key: _get(cp[section], key, f"[{section}]")
        for section, key in (
            ("scenario", "mollify_delta"),
            ("diagnostics", "probe_center"),
            ("diagnostics", "probe_halfwidth"),
        )
        if section in cp and key in cp[section]
    }

    return ScenarioConfig(
        name=_get(sc, "name", "[scenario]", path.stem, cast=str),
        grid=grid,
        params=params,
        scheme=scheme,
        initial_kind=initial_kind,
        initial_params=initial_params,
        seed_label=_get(sc, "seed_label", "[scenario]", "", cast=str),
        declared_states=declared,
        **optional,
    )


# ---------------------------------------------------------------------------
# initial data builders
# ---------------------------------------------------------------------------


def _inner_node(grid: GridSpec, x: float, keys: str, what: str) -> int:
    """The node nearest x.  An end node holds a far-field state of the data
    and the boundary, so putting `what` there is a config error on `keys`."""
    i = int(round((x - grid.x_min) / grid.dx))
    if not 0 < i < grid.n_nodes - 1:
        raise ConfigError(
            f"bad value for [initial]:{keys}: {x} puts the {what} on or beyond an end "
            f"node of the grid [{grid.x_min}, {grid.x_max}]"
        )
    return i


def _jump_values(grid: GridSpec, jump_x: float, left: float, right: float) -> np.ndarray:
    j = _inner_node(grid, jump_x, "jump_x", "jump")
    out = np.where(np.arange(grid.n_nodes) < j, left, right)
    out = out.astype(float)
    out[j] = 0.5 * (left + right)  # jump node takes the average of the limits
    return out


def _add_block(vals: np.ndarray, grid: GridSpec, lo: float, hi: float, amp: float, keys: str):
    """Add `amp` on [lo, hi]; an edge node takes half, the average of its two limits."""
    if amp == 0.0 or lo == hi:
        return
    j1 = _inner_node(grid, lo, keys, "block's left edge")
    j2 = _inner_node(grid, hi, keys, "block's right edge")
    if j2 - j1 < 2:
        raise ConfigError(f"bad value for [initial]:{keys}: the block [{lo}, {hi}] must "
                          f"span at least two grid intervals (dx={grid.dx})")
    vals[j1 + 1 : j2] += amp
    vals[j1] += 0.5 * amp
    vals[j2] += 0.5 * amp


def _ramp_values(
    grid: GridSpec, x_lo: float, x_hi: float, left: float, right: float
) -> np.ndarray:
    x = grid.nodes()
    return np.interp(x, [x_lo, x_hi], [left, right], left=left, right=right)


def _pert_arrays(grid: GridSpec, p: dict, prefix: str) -> np.ndarray:
    kind = p.get(f"{prefix}_pert_kind", "none")
    if kind not in _PERT_KINDS:
        raise _unknown("[initial]", f"{prefix}_pert_kind", kind, _PERT_KINDS)
    vals = np.zeros(grid.n_nodes)
    if kind == "none":
        return vals
    amp = _get(p, f"{prefix}_pert_amplitude", "[initial]")
    center = _get(p, f"{prefix}_pert_center", "[initial]")
    if kind == "block":
        width = _get(p, f"{prefix}_pert_width", "[initial]")
        keys = f"{prefix}_pert_center/{prefix}_pert_width"
        _add_block(vals, grid, center - 0.5 * width, center + 0.5 * width, amp, keys)
    else:  # dipole: +amp then -amp blocks; the shared centre node gets 0.5*amp - 0.5*amp = 0
        halfwidth = _get(p, f"{prefix}_pert_halfwidth", "[initial]")
        keys = f"{prefix}_pert_center/{prefix}_pert_halfwidth"
        _add_block(vals, grid, center - halfwidth, center, amp, keys)
        _add_block(vals, grid, center, center + halfwidth, -amp, keys)
    return vals


def build_initial(cfg: ScenarioConfig) -> SimState:
    """Construct (u0, v0) for the scenario and apply mollification if
    requested.  A run keeps the data's end values at the two end nodes.  A
    grid too large for its arrays to be allocated is a config error."""
    try:
        return _build_initial(cfg)
    except MemoryError as exc:
        raise ConfigError(
            f"bad value for [grid]:n_nodes: the data on {cfg.grid.n_nodes} nodes does not "
            f"fit in memory ({exc})"
        ) from exc


def _build_initial(cfg: ScenarioConfig) -> SimState:
    grid = cfg.grid
    p = cfg.initial_params
    kind = cfg.initial_kind

    if kind == "piecewise_constant":
        jump = _get(p, "jump_x", "[initial]")
        ul, ur, vl, vr = (_get(p, key, "[initial]") for key in _LR_KEYS)
        u0 = _jump_values(grid, jump, ul, ur)
        v0 = _jump_values(grid, jump, vl, vr)
    elif kind == "ramp_h1":
        lo, hi = (_get(p, key, "[initial]") for key in ("ramp_start", "ramp_end"))
        if not (grid.x_min <= lo < hi <= grid.x_max):
            raise ConfigError(
                f"bad value for [initial]:ramp_start/ramp_end: the ramp [{lo}, {hi}] must be "
                f"a nonempty interval inside the grid [{grid.x_min}, {grid.x_max}]"
            )
        ul, ur, vl, vr = (_get(p, key, "[initial]") for key in _LR_KEYS)
        u0 = _ramp_values(grid, lo, hi, ul, ur)
        v0 = _ramp_values(grid, lo, hi, vl, vr)
    elif kind == "exact_wave_plus_bump":
        ends = (_get(p, key, "[initial]") for key in ("u_minus", "u_plus", "v_plus"))
        wave = _traveling_wave(*ends, cfg.params, "bad value for [initial]:u_minus/u_plus/v_plus")
        z = grid.nodes() - _get(p, "front_x", "[initial]")
        u0 = np.asarray(wave.u_profile(z))
        v0 = np.asarray(wave.v_profile(z))
        du = _pert_arrays(grid, p, "u")
        dv = _pert_arrays(grid, p, "v")
        if p.get("zero_mass", False):
            for name, pert in (("u", du), ("v", dv)):
                mass = integral(Field(grid, pert))
                if abs(mass) > _ZERO_MASS_TOL:
                    raise ConfigError(
                        f"{name}-perturbation mass {mass:.3e} violates zero_mass"
                    )
        u0 = u0 + du
        v0 = v0 + dv
    elif kind == "constant_plus_jump":
        u0 = np.full(grid.n_nodes, _get(p, "u_base", "[initial]", 1.0))
        v0 = np.full(grid.n_nodes, _get(p, "v_base", "[initial]", 0.0))
        for name, vals in (("u", u0), ("v", v0)):
            amp = _get(p, f"{name}_amplitude", "[initial]", 0.0)
            if amp != 0.0:
                center = _get(p, f"{name}_block_center", "[initial]")
                width = _get(p, f"{name}_block_width", "[initial]")
                _add_block(vals, grid, center - 0.5 * width, center + 0.5 * width, amp,
                           f"{name}_block_center/{name}_block_width")
    else:  # from_file
        path = _get(p, "path", "[initial]", cast=str)
        if not Path(path).is_file():
            raise ConfigError(f"bad value for [initial]:path: no snapshot file {path}")
        _, x, u0, v0 = read_snapshot(path)
        if x.shape != (grid.n_nodes,) or np.max(np.abs(x - grid.nodes())) > 1e-9:
            raise ConfigError(
                f"{path}: snapshot grid ({x.size} nodes on [{x[0]}, {x[-1]}]) does not "
                f"match the configured grid, node by node"
            )

    if cfg.mollify_delta > 0:
        spec = MollifierSpec(cfg.mollify_delta)
        u0 = mollify(Field(grid, u0), spec).values
        v0 = mollify(Field(grid, v0), spec).values

    if np.any(u0 <= 0):
        bad = int(np.flatnonzero(u0 <= 0)[0])
        raise ConfigError(
            f"initial density must be positive everywhere; node {bad} has {u0[bad]}"
        )
    with np.errstate(over="ignore"):
        bound = _speed_bound(u0, v0, cfg.params.chi)
    if not math.isfinite(bound):
        raise ConfigError(
            f"bad value for [initial]: the data's characteristic speed bound overflows "
            f"(max u = {u0.max():g}, max |v| = {np.abs(v0).max():g}), so no time step fits"
        )

    return SimState(u=Field(grid, u0), v=Field(grid, v0), t=0.0)


# ---------------------------------------------------------------------------
# wave wiring and the manifest
# ---------------------------------------------------------------------------


def _traveling_wave(u_minus: float, u_plus: float, v_plus: float, params: ModelParams,
                    where: str) -> TravelingWave:
    """The wave between the far fields; `where` names what sets them."""
    try:
        return TravelingWave.from_end_values(u_minus, u_plus, v_plus, params)
    except ValueError as exc:
        raise ConfigError(
            f"{where}: u_minus={u_minus}, u_plus={u_plus}, v_plus={v_plus} "
            f"admit no traveling wave ({exc})"
        ) from exc


def wire_reference(state: SimState, params: ModelParams) -> diag.Reference:
    """The diagnostic reference for the initial data: when the far fields
    support a traveling wave, that wave as shift_x0 fits it to the data,
    else the constant right-end state."""
    u0, v0 = state.u, state.v
    ul, ur = float(u0.values[0]), float(u0.values[-1])
    vr = float(v0.values[-1])
    if abs(ul - ur) > 1e-12 and ul > ur > 0:
        wave = _traveling_wave(ul, ur, vr, params, "the data's end values")
        guess = diag.front_position(u0, 0.5 * (ul + ur))
        return diag.shift_x0(u0, v0, wave, base_shift=-guess)
    return diag.ConstantReference(u_bar=ur, v_bar=vr)


def _fmt(val) -> str:
    if val is None:
        return "n/a"
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return _FLOAT_FMT % val
    return str(val)


# Manifest keys of measured times.  They are written with fixed decimals, so
# the file's size does not follow the measured time.
_TIMING_KEYS = ("snapshot_write_s", "wall_time_s")


def manifest_line(key: str, val) -> str:
    """The manifest's `key = value` line, without its newline."""
    text = "%.6f" % val if key in _TIMING_KEYS else _fmt(val)
    return f"{key} = {text}"


def write_manifest(manifest: dict, path) -> None:
    """One `key = value` line per entry, in the dict's order."""
    with open(path, "w") as fh:
        fh.writelines(manifest_line(key, val) + "\n" for key, val in manifest.items())


def read_manifest(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            if "=" in line:
                key, _, val = line.partition("=")
                out[key.strip()] = val.strip()
    return out


def _front_speed(records) -> float | None:
    tail = records[len(records) // 2 :]
    if len(tail) < 2:
        return None
    t = np.array([r.t for r in tail])
    pos = np.array([r.front_pos for r in tail])
    return float(np.polyfit(t, pos, 1)[0])


def run_scenario(cfg: ScenarioConfig, out_dir, emit_c: bool = False) -> tuple[dict, list]:
    """Run one scenario and write snap_<i>.dat, series.csv, and manifest.txt
    into out_dir.  Returns (manifest, records): the manifest as a dict and
    the per-snapshot records, one per series.csv row.

    Each snapshot's record is computed first, then its file is written; the
    record joins series.csv only once its file is on disk.  A failed write
    removes its partial file and stops the run with an `OSError` naming the
    file.  When the run fails, series.csv still gets one row per snapshot file
    on disk, and the error propagates.  A non-finite record, or a non-finite c
    with `emit_c`, is a `NumericalError` naming the snapshot."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    state0 = build_initial(cfg)
    reference = wire_reference(state0, cfg.params)

    probe_center = cfg.probe_center
    probe_halfwidth = cfg.probe_halfwidth
    if probe_center is None:
        probe_center = (
            diag.front_position(state0.u, reference.front_level)
            if reference.front_level is not None
            else 0.5 * (cfg.grid.x_min + cfg.grid.x_max)
        )
        # keep the window inside the grid even when the front starts near an edge
        probe_center = min(
            max(probe_center, cfg.grid.x_min + probe_halfwidth),
            cfg.grid.x_max - probe_halfwidth,
        )

    records: list[diag.DiagnosticsRecord] = []
    write_s = 0.0

    def on_snapshot(index: int, state: SimState, prev: SimState | None) -> None:
        nonlocal write_s
        try:
            record = diag.assemble_record(
                state, prev, cfg.params, reference, probe_center, probe_halfwidth
            )
        except ValueError as exc:  # a run's states are valid, so only a non-finite entry
            raise NumericalError(f"snapshot {index} (t={state.t:.6g}): {exc}") from exc
        c = None
        if emit_c:
            try:
                c = from_v(state.v, cfg.params.mu, c_ref=1.0, x_ref_index=0)
            except NumericalError as exc:  # exp overflows where v's integral is large
                raise NumericalError(f"snapshot {index} (t={state.t:.6g}): "
                                     f"c column: {exc}") from exc
        path = out / f"snap_{index:04d}.dat"
        start = time.perf_counter()
        try:
            write_snapshot(path, state, c=c)
        except BaseException as exc:  # no partial file is left without its series row
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
            if isinstance(exc, OSError):
                raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
            raise
        write_s += time.perf_counter() - start
        records.append(record)

    try:
        report = run(state0, cfg.params, cfg.scheme, on_snapshot)
    finally:
        diag.write_series(records, out / "series.csv")

    manifest = _build_manifest(cfg, state0, reference, records, report, probe_center,
                               write_s)
    write_manifest(manifest, out / "manifest.txt")
    return manifest, records


def _attr(obj, name: str):
    """obj's attribute `name` (dotted for a nested one), or None when obj is None."""
    return None if obj is None else attrgetter(name)(obj)


def _data_ends(state: SimState) -> AsymptoticStates:
    """The data's end values, which a run keeps at the end nodes: the minus
    states at x_min and the plus states at x_max."""
    u, v = state.u.values, state.v.values
    return AsymptoticStates(u_minus=float(u[0]), u_plus=float(u[-1]),
                            v_minus=float(v[0]), v_plus=float(v[-1]))


def wave_summary(cfg: ScenarioConfig, state0: SimState, reference: diag.Reference) -> dict:
    """The manifest's 14 wave and jump-condition entries in file order, None
    where one does not apply: residuals and speed of the declared far fields,
    the fitted wave and its residuals, the residuals of the initial data's end
    values against that wave, and the mass shift x0 with its v-mass defect."""
    declared = speed = None
    if cfg.declared_states is not None:
        try:
            speed = wave_speed(cfg.declared_states, cfg.params)
        except ValueError:
            pass
        else:
            declared = rh_residual(cfg.declared_states, speed, cfg.params)
    wave = reference.wave
    fitted = fit = data = None
    if wave is not None:
        fitted = reference
        fit = rh_residual(wave.states, wave.s, cfg.params)
        data = rh_residual(_data_ends(state0), wave.s, cfg.params)
    return {
        "declared_rh_r1": _attr(declared, "r1"),
        "declared_rh_r2": _attr(declared, "r2"),
        "declared_speed": speed,
        "wave_present": wave is not None,
        "wave_s": _attr(wave, "s"),
        "wave_lambda": _attr(wave, "lam"),
        "wave_v_minus": _attr(wave, "states.v_minus"),
        "wave_kappa": _attr(wave, "kappa"),
        "wave_rh_r1": _attr(fit, "r1"),
        "wave_rh_r2": _attr(fit, "r2"),
        "data_rh_r1": _attr(data, "r1"),
        "data_rh_r2": _attr(data, "r2"),
        "shift_x0": _attr(fitted, "x0"),
        "shift_beta_residual": _attr(fitted, "beta_residual"),
    }


# (manifest key suffix, QuantityDecay field) of each decay_<quantity>_* entry
_DECAY_FIELDS = (
    ("initial", "initial"), ("final", "final"), ("slope", "tail_slope"), ("decayed", "decayed"),
)


def _build_manifest(
    cfg: ScenarioConfig,
    state0: SimState,
    reference: diag.Reference,
    records,
    report: RunReport,
    probe_center: float,
    write_s: float,
) -> dict:
    """The manifest, in file order.  `records` holds at least snapshot 0."""
    grid = cfg.grid
    ends = _data_ends(state0)
    wave = reference.wave
    margin = 0.1 * grid.length
    # only a wave reference has a front level, so only a wave front can warn
    near_edge = reference.front_level is not None and any(
        r.front_pos - grid.x_min < margin or grid.x_max - r.front_pos < margin
        for r in records
    )
    decay = dict.fromkeys(diag.TRACKED_QUANTITIES)
    if len(records) >= 3:  # the fewest decay_series fits
        decay = diag.decay_series(records)
    probes = [r.max_dq_v for r in records]
    first5 = [r.dq_width for r in records[:5]]
    speed = _front_speed(records) if wave is not None else None
    return {
        "scenario_name": cfg.name,
        "initial_kind": cfg.initial_kind,
        "seed_label": cfg.seed_label or "n/a",
        "mollify_delta": cfg.mollify_delta,
        "grid_x_min": grid.x_min,
        "grid_x_max": grid.x_max,
        "grid_n_nodes": grid.n_nodes,
        "grid_dx": grid.dx,
        "model_D": cfg.params.D,
        "model_chi": cfg.params.chi,
        "model_mu": cfg.params.mu,
        "model_xi": cfg.params.xi,
        "scheme_cfl": cfg.scheme.cfl,
        "scheme_diffusion_theta": cfg.scheme.diffusion_theta,
        "scheme_t_end": cfg.scheme.t_end,
        "scheme_snapshot_interval": cfg.scheme.snapshot_interval,
        "boundary_u_left": ends.u_minus,
        "boundary_v_left": ends.v_minus,
        "boundary_u_right": ends.u_plus,
        "boundary_v_right": ends.v_plus,
        **wave_summary(cfg, state0, reference),
        "flux_variant": "wave" if wave is not None else "constant",
        **{
            f"decay_{name}_{suffix}": _attr(q, field_name)
            for name, q in decay.items()
            for suffix, field_name in _DECAY_FIELDS
        },
        "probe_center": probe_center,
        "probe_halfwidth": cfg.probe_halfwidth,
        "probe_reference_level": None if wave is None else wave.max_slope_v,
        "probe_max_initial": probes[0],
        "probe_max_peak": max(probes),
        "probe_max_final": probes[-1],
        "probe_width_first": records[0].dq_width,
        "probe_width_last": records[-1].dq_width,
        "probe_width_nondecreasing_first5": all(
            b >= a - 1e-12 for a, b in zip(first5, first5[1:])
        ),
        "front_speed_estimate": speed,
        "front_speed_rel_err": None if speed is None else abs(speed - wave.s) / wave.s,
        "min_u": report.min_u,
        "step_count": report.step_count,
        "snapshot_count": report.snapshot_count,
        "boundary_warning": near_edge,
        "step_kernel": report.step_kernel,
        "snapshot_write_s": write_s,
        "wall_time_s": report.wall_time_s,
    }


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = (
    "axis",
    "value",
    "status",
    "error",
    "t_final",
    "sup_u_err",
    "l2_v",
    "l4_v",
    "l6_v",
    "entropy",
    "max_dq_v",
    "dq_width",
    "front_pos",
)


def _sweep_key(axis: str, path, initial_kind: str) -> tuple[str, str]:
    """The (section, key) named by `section.key`, or by a key one section alone may hold."""
    section, _, key = axis.rpartition(".")
    key = key.lower()  # as configparser stores keys
    holders = [name for name in ([section] if section else _SECTION_KEYS)
               if key in (_allowed_keys(name, initial_kind) or ())]
    if len(holders) == 1:
        return holders[0], key
    if holders:
        spellings = " or ".join(f"'{name}.{key}'" for name in holders)
        raise ConfigError(f"{path}: sweep axis '{axis}' is ambiguous (use {spellings})")
    valid = [f"{name}.{k}" for name in _SECTION_KEYS for k in _allowed_keys(name, initial_kind)]
    raise _unknown(str(path), "sweep axis", axis, valid)


def sweep(cp: configparser.ConfigParser, path, axis: str, texts, out_dir) -> list[dict]:
    """Run one variant per value text into its own subdirectory: `cp` with the
    key `axis` names set to the text, parsed as `run` parses a file.  Failures
    are recorded in the cross-run CSV and do not abort the remaining runs."""
    base = scenario_from_config(cp, path)
    section, key = _sweep_key(axis, path, base.initial_kind)
    tags = {}
    for text in texts:
        value = _get({axis: text}, axis, "sweep --values")
        tag = f"{axis}_{value:g}"
        if tag in tags:
            raise ConfigError(
                f"sweep values {tags[tag][1]!r} and {value!r} would both write to {tag}/"
            )
        tags[tag] = (text, value)
    if not tags:
        raise ConfigError("no sweep values")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    manifests = []
    for tag, (text, value) in tags.items():
        variant = copy.deepcopy(cp)
        variant["scenario"]["name"] = f"{base.name}[{tag}]"
        variant.read_dict({section: {key: text}})  # adds the section if the file lacks it
        row = {"axis": axis, "value": value, "status": "ok", "error": ""}
        try:
            manifest, records = run_scenario(scenario_from_config(variant, path), out / tag)
            manifests.append(manifest)
            # the value columns are the final series.csv row, its t as t_final
            final = records[-1]
            row.update((k, getattr(final, k)) for k in diag.SERIES_COLUMNS if k in SWEEP_COLUMNS)
            row["t_final"] = final.t
        except (ConfigError, NumericalError, OSError) as exc:  # failures belong in the CSV
            row["status"] = "failed"
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)

    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k)) for k in SWEEP_COLUMNS})
    return manifests

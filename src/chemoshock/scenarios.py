"""Config-driven experiment assembly: parse flat key=value scenario files,
build initial data, wire wave-aware diagnostics, run, and emit snapshots,
series.csv, and a manifest.
"""

from __future__ import annotations

import configparser
import csv
import difflib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .cole_hopf import from_v
from .core import (
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
from .solver import (
    _BOUNDARY_MATCH_TOL,
    DirichletBoundary,
    RunReport,
    SchemeConfig,
    _check_scheme,
    run,
)
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

_ZERO_MASS_TOL = 1e-10


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    grid: GridSpec
    params: ModelParams
    t_end: float
    snapshot_interval: float
    initial_kind: str
    initial_params: dict = field(default_factory=dict)
    cfl: float = 0.4
    diffusion_theta: float = 0.5
    mollify_delta: float = 0.0
    seed_label: str = ""
    declared_states: AsymptoticStates | None = None
    probe_center: float | None = None
    probe_halfwidth: float = 5.0
    boundary_override: DirichletBoundary | None = None

    def __post_init__(self) -> None:
        if self.initial_kind not in INITIAL_KINDS:
            raise ConfigError(
                f"unknown initial_kind '{self.initial_kind}' "
                f"(expected one of {', '.join(INITIAL_KINDS)})"
            )
        if self.mollify_delta < 0:
            raise ConfigError("mollify_delta must be nonnegative")
        if not self.grid.dx <= self.probe_halfwidth <= 0.5 * self.grid.length:
            raise ConfigError(
                f"probe_halfwidth {self.probe_halfwidth} must lie between the "
                f"grid spacing {self.grid.dx} and half the grid length "
                f"{0.5 * self.grid.length}"
            )
        _check_scheme(self.t_end, self.snapshot_interval, self.cfl, self.diffusion_theta)


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------


def _get(section, key, cast=float, where=""):
    if key not in section:
        raise ConfigError(f"missing key '{key}' in section {where}")
    try:
        return cast(section[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}:{key}: {exc}") from exc


# The keys each section may hold, lowercased as configparser stores them.
# [initial] keys depend on initial_kind: see _INITIAL_KEYS.
_SECTION_KEYS = {
    "scenario": ("name", "initial_kind", "mollify_delta", "seed_label"),
    "grid": ("x_min", "x_max", "n_nodes"),
    "model": ("d", "chi", "mu", "xi"),
    "scheme": (
        "cfl", "diffusion_theta", "t_end", "snapshot_interval",
        "u_left", "v_left", "u_right", "v_right",
    ),
    "initial": None,
    "states": ("u_minus", "u_plus", "v_minus", "v_plus"),
    "diagnostics": ("probe_center", "probe_halfwidth"),
}


def _unknown(where: str, kind: str, name: str, valid) -> ConfigError:
    match = difflib.get_close_matches(name, valid, n=1)
    hint = f"did you mean '{match[0]}'?" if match else f"expected one of {', '.join(valid)}"
    return ConfigError(f"{where}: unknown {kind} '{name}' ({hint})")


def _check_names(cp: configparser.ConfigParser, path: Path) -> None:
    """Reject sections and keys that _SECTION_KEYS does not list, and [initial]
    keys that _INITIAL_KEYS does not list for the file's initial_kind."""
    sections = ([cp.default_section] if cp.defaults() else []) + cp.sections()
    for section in sections:
        if section not in _SECTION_KEYS:
            raise _unknown(str(path), "section", section, list(_SECTION_KEYS))
        allowed = _SECTION_KEYS[section]
        if section == "initial":
            allowed = _INITIAL_KEYS.get(cp.get("scenario", "initial_kind", fallback=""))
            if allowed is None:  # ScenarioConfig reports the unknown initial_kind
                continue
        for key in cp[section]:
            if key not in allowed:
                raise _unknown(f"{path} [{section}]", "key", key, allowed)


def parse_scenario(path) -> ScenarioConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    _check_names(cp, path)

    for required in ("scenario", "grid", "model", "scheme", "initial"):
        if required not in cp:
            raise ConfigError(f"{path}: missing [{required}] section")

    sc = cp["scenario"]
    grid = GridSpec(
        x_min=_get(cp["grid"], "x_min", where="[grid]"),
        x_max=_get(cp["grid"], "x_max", where="[grid]"),
        n_nodes=_get(cp["grid"], "n_nodes", cast=int, where="[grid]"),
    )
    model = cp["model"]
    if "mu" in model and "xi" in model:
        params = ModelParams.from_chemotaxis(
            D=_get(model, "D", where="[model]"),
            mu=_get(model, "mu", where="[model]"),
            xi=_get(model, "xi", where="[model]"),
        )
    else:
        params = ModelParams.from_chi(
            D=_get(model, "D", where="[model]"),
            chi=_get(model, "chi", where="[model]"),
        )

    scheme = cp["scheme"]
    boundary_override = None
    if "u_left" in scheme:
        boundary_override = DirichletBoundary(
            u_left=_get(scheme, "u_left", where="[scheme]"),
            v_left=_get(scheme, "v_left", where="[scheme]"),
            u_right=_get(scheme, "u_right", where="[scheme]"),
            v_right=_get(scheme, "v_right", where="[scheme]"),
        )

    initial_params = {k: v for k, v in cp["initial"].items()}

    declared = None
    if "states" in cp:
        st = cp["states"]
        far_fields = {
            key: _get(st, key, where="[states]")
            for key in ("u_minus", "u_plus", "v_minus", "v_plus")
        }
        try:
            declared = AsymptoticStates(**far_fields)
        except ValueError as exc:
            raise ConfigError(f"bad [states] section: {exc}") from exc

    # optional keys are passed only when set, so each default lives in ScenarioConfig
    optional = {
        key: _get(cp[section], key, where=f"[{section}]")
        for section, key in (
            ("scheme", "cfl"),
            ("scheme", "diffusion_theta"),
            ("scenario", "mollify_delta"),
            ("diagnostics", "probe_center"),
            ("diagnostics", "probe_halfwidth"),
        )
        if section in cp and key in cp[section]
    }

    return ScenarioConfig(
        name=sc.get("name", path.stem),
        grid=grid,
        params=params,
        t_end=_get(scheme, "t_end", where="[scheme]"),
        snapshot_interval=_get(scheme, "snapshot_interval", where="[scheme]"),
        initial_kind=sc.get("initial_kind", ""),
        initial_params=initial_params,
        seed_label=sc.get("seed_label", ""),
        declared_states=declared,
        boundary_override=boundary_override,
        **optional,
    )


# ---------------------------------------------------------------------------
# initial data builders
# ---------------------------------------------------------------------------


def _nearest_node(grid: GridSpec, x: float) -> int:
    i = int(round((x - grid.x_min) / grid.dx))
    return min(max(i, 0), grid.n_nodes - 1)


def _jump_values(grid: GridSpec, jump_x: float, left: float, right: float) -> np.ndarray:
    j = _nearest_node(grid, jump_x)
    out = np.where(np.arange(grid.n_nodes) < j, left, right)
    out = out.astype(float)
    out[j] = 0.5 * (left + right)  # jump node takes the average of the limits
    return out


def _add_block(vals: np.ndarray, grid: GridSpec, center: float, width: float, amp: float):
    if amp == 0.0 or width == 0.0:
        return
    j1 = _nearest_node(grid, center - 0.5 * width)
    j2 = _nearest_node(grid, center + 0.5 * width)
    if j2 - j1 < 2:
        raise ConfigError("block width must span at least two grid intervals")
    vals[j1 + 1 : j2] += amp
    vals[j1] += 0.5 * amp
    vals[j2] += 0.5 * amp


def _add_dipole(vals: np.ndarray, grid: GridSpec, center: float, halfwidth: float, amp: float):
    # +amp then -amp blocks sharing the center node: zero mass exactly
    if amp == 0.0 or halfwidth == 0.0:
        return
    j1 = _nearest_node(grid, center - halfwidth)
    jc = _nearest_node(grid, center)
    j2 = _nearest_node(grid, center + halfwidth)
    if jc - j1 < 2 or j2 - jc < 2:
        raise ConfigError("dipole halfwidth must span at least two grid intervals")
    vals[j1 + 1 : jc] += amp
    vals[jc + 1 : j2] -= amp
    vals[j1] += 0.5 * amp
    vals[j2] -= 0.5 * amp
    # center node: average of +amp and -amp limits, no net change


def _ramp_values(
    grid: GridSpec, x_lo: float, x_hi: float, left: float, right: float
) -> np.ndarray:
    x = grid.nodes()
    return np.interp(x, [x_lo, x_hi], [left, right], left=left, right=right)


def _f(params: dict, key: str, default: float | None = None) -> float:
    if key not in params:
        if default is not None:
            return default
        raise ConfigError(f"missing [initial] key '{key}'")
    try:
        return float(params[key])
    except ValueError as exc:
        raise ConfigError(f"bad [initial] value for '{key}': {params[key]}") from exc


def _pert_arrays(grid: GridSpec, p: dict, prefix: str) -> np.ndarray:
    kind = p.get(f"{prefix}_pert_kind", "none")
    vals = np.zeros(grid.n_nodes)
    if kind == "none":
        return vals
    amp = _f(p, f"{prefix}_pert_amplitude")
    center = _f(p, f"{prefix}_pert_center")
    if kind == "block":
        _add_block(vals, grid, center, _f(p, f"{prefix}_pert_width"), amp)
    elif kind == "dipole":
        _add_dipole(vals, grid, center, _f(p, f"{prefix}_pert_halfwidth"), amp)
    else:
        raise ConfigError(f"unknown perturbation kind '{kind}' (use none|block|dipole)")
    return vals


def build_initial(cfg: ScenarioConfig) -> tuple[SimState, DirichletBoundary]:
    """Construct (u0, v0) for the scenario, apply mollification if requested,
    and derive/validate the Dirichlet boundary values."""
    grid = cfg.grid
    p = cfg.initial_params
    kind = cfg.initial_kind

    if kind == "piecewise_constant":
        jump = _f(p, "jump_x")
        u0 = _jump_values(grid, jump, _f(p, "u_left"), _f(p, "u_right"))
        v0 = _jump_values(grid, jump, _f(p, "v_left"), _f(p, "v_right"))
    elif kind == "ramp_h1":
        lo, hi = _f(p, "ramp_start"), _f(p, "ramp_end")
        if not (grid.x_min <= lo < hi <= grid.x_max):
            raise ConfigError("ramp interval must lie inside the grid")
        u0 = _ramp_values(grid, lo, hi, _f(p, "u_left"), _f(p, "u_right"))
        v0 = _ramp_values(grid, lo, hi, _f(p, "v_left"), _f(p, "v_right"))
    elif kind == "exact_wave_plus_bump":
        wave = TravelingWave.from_end_values(
            _f(p, "u_minus"), _f(p, "u_plus"), _f(p, "v_plus"), cfg.params
        )
        z = grid.nodes() - _f(p, "front_x")
        u0 = np.asarray(wave.u_profile(z))
        v0 = np.asarray(wave.v_profile(z))
        du = _pert_arrays(grid, p, "u")
        dv = _pert_arrays(grid, p, "v")
        if p.get("zero_mass", "false").lower() in ("1", "true", "yes"):
            for name, pert in (("u", du), ("v", dv)):
                mass = integral(Field(grid, pert))
                if abs(mass) > _ZERO_MASS_TOL:
                    raise ConfigError(
                        f"{name}-perturbation mass {mass:.3e} violates zero_mass"
                    )
        u0 = u0 + du
        v0 = v0 + dv
    elif kind == "constant_plus_jump":
        u0 = np.full(grid.n_nodes, _f(p, "u_base", 1.0))
        v0 = np.full(grid.n_nodes, _f(p, "v_base", 0.0))
        if _f(p, "u_amplitude", 0.0) != 0.0:
            _add_block(
                u0, grid, _f(p, "u_block_center"), _f(p, "u_block_width"),
                _f(p, "u_amplitude"),
            )
        if _f(p, "v_amplitude", 0.0) != 0.0:
            _add_block(
                v0, grid, _f(p, "v_block_center"), _f(p, "v_block_width"),
                _f(p, "v_amplitude"),
            )
    elif kind == "from_file":
        if "path" not in p:
            raise ConfigError("from_file initial data needs a 'path' key")
        _, x, u0, v0 = read_snapshot(p["path"])
        if u0.size != grid.n_nodes or abs(x[0] - grid.x_min) > 1e-9 or abs(
            x[-1] - grid.x_max
        ) > 1e-9:
            raise ConfigError(
                f"snapshot grid ({u0.size} nodes on [{x[0]}, {x[-1]}]) does not "
                f"match the configured grid"
            )
    else:  # pragma: no cover - guarded by ScenarioConfig
        raise ConfigError(f"unknown initial kind {kind}")

    if cfg.mollify_delta > 0:
        spec = MollifierSpec(cfg.mollify_delta)
        u0 = mollify(Field(grid, u0), spec).values
        v0 = mollify(Field(grid, v0), spec).values

    if np.any(u0 <= 0):
        bad = int(np.flatnonzero(u0 <= 0)[0])
        raise ConfigError(
            f"initial density must be positive everywhere; node {bad} has {u0[bad]}"
        )

    boundary = DirichletBoundary(
        u_left=float(u0[0]), v_left=float(v0[0]),
        u_right=float(u0[-1]), v_right=float(v0[-1]),
    )
    if cfg.boundary_override is not None:
        ov = cfg.boundary_override
        mismatch = max(
            abs(ov.u_left - boundary.u_left),
            abs(ov.v_left - boundary.v_left),
            abs(ov.u_right - boundary.u_right),
            abs(ov.v_right - boundary.v_right),
        )
        if mismatch > _BOUNDARY_MATCH_TOL:
            raise ConfigError(
                f"configured boundary values disagree with the initial data "
                f"by {mismatch:.3e}"
            )
        boundary = ov

    state = SimState(u=Field(grid, u0), v=Field(grid, v0), t=0.0)
    return state, boundary


# ---------------------------------------------------------------------------
# wave wiring and the manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WaveSetup:
    wave: TravelingWave | None
    reference: diag.ConstantReference | diag.WaveReference
    shift: diag.ShiftResult | None
    front_level: float | None


def wire_reference(state: SimState, params: ModelParams) -> WaveSetup:
    """Choose the diagnostic reference from the initial data: a consistent
    traveling wave when the far fields support one, else the constant state."""
    u0, v0 = state.u, state.v
    ul, ur = float(u0.values[0]), float(u0.values[-1])
    vr = float(v0.values[-1])
    if abs(ul - ur) > 1e-12 and ul > ur > 0:
        wave = TravelingWave.from_end_values(ul, ur, vr, params)
        guess = diag.front_position(u0, 0.5 * (ul + ur))
        shift = diag.shift_x0(u0, v0, wave, base_shift=-guess)
        return WaveSetup(
            wave=wave,
            reference=diag.WaveReference(wave=wave, x0=shift.x0),
            shift=shift,
            front_level=0.5 * (ul + ur),
        )
    return WaveSetup(
        wave=None,
        reference=diag.ConstantReference(u_bar=ur, v_bar=vr),
        shift=None,
        front_level=None,
    )


MANIFEST_KEYS = (
    "scenario_name",
    "initial_kind",
    "seed_label",
    "mollify_delta",
    "grid_x_min",
    "grid_x_max",
    "grid_n_nodes",
    "grid_dx",
    "model_D",
    "model_chi",
    "model_mu",
    "model_xi",
    "scheme_cfl",
    "scheme_diffusion_theta",
    "scheme_t_end",
    "scheme_snapshot_interval",
    "boundary_u_left",
    "boundary_v_left",
    "boundary_u_right",
    "boundary_v_right",
    "declared_rh_r1",
    "declared_rh_r2",
    "declared_speed",
    "wave_present",
    "wave_s",
    "wave_lambda",
    "wave_v_minus",
    "wave_kappa",
    "wave_rh_r1",
    "wave_rh_r2",
    "data_rh_r1",
    "data_rh_r2",
    "shift_x0",
    "shift_beta_residual",
    "flux_variant",
    "decay_sup_u_err_initial",
    "decay_sup_u_err_final",
    "decay_sup_u_err_slope",
    "decay_sup_u_err_decayed",
    "decay_l2_v_initial",
    "decay_l2_v_final",
    "decay_l2_v_slope",
    "decay_l2_v_decayed",
    "decay_l4_v_initial",
    "decay_l4_v_final",
    "decay_l4_v_slope",
    "decay_l4_v_decayed",
    "decay_l6_v_initial",
    "decay_l6_v_final",
    "decay_l6_v_slope",
    "decay_l6_v_decayed",
    "probe_center",
    "probe_halfwidth",
    "probe_reference_level",
    "probe_max_initial",
    "probe_max_peak",
    "probe_max_final",
    "probe_width_first",
    "probe_width_last",
    "probe_width_nondecreasing_first5",
    "front_speed_estimate",
    "front_speed_rel_err",
    "min_u",
    "step_count",
    "snapshot_count",
    "boundary_warning",
    "wall_time_s",
)


def _fmt(val) -> str:
    if val is None:
        return "n/a"
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return "%.17g" % val
    return str(val)


def write_manifest(manifest: dict, path) -> None:
    with open(path, "w") as fh:
        for key in MANIFEST_KEYS:
            fh.write(f"{key} = {_fmt(manifest.get(key))}\n")


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
    the per-snapshot records, one per series.csv row.  When the run fails
    with a NumericalError, series.csv still gets one row per snapshot
    written before the failure, and the error propagates."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    state0, boundary = build_initial(cfg)
    scheme = SchemeConfig(
        t_end=cfg.t_end,
        snapshot_interval=cfg.snapshot_interval,
        boundary=boundary,
        cfl=cfg.cfl,
        diffusion_theta=cfg.diffusion_theta,
    )
    setup = wire_reference(state0, cfg.params)

    probe_center = cfg.probe_center
    if probe_center is None:
        probe_center = (
            diag.front_position(state0.u, setup.front_level)
            if setup.front_level is not None
            else 0.5 * (cfg.grid.x_min + cfg.grid.x_max)
        )
    probe_halfwidth = cfg.probe_halfwidth
    # keep the window inside the grid even when the front starts near an edge
    probe_center = min(
        max(probe_center, cfg.grid.x_min + probe_halfwidth),
        cfg.grid.x_max - probe_halfwidth,
    )

    records: list[diag.DiagnosticsRecord] = []

    def on_snapshot(index: int, state: SimState, prev: SimState | None) -> None:
        c = None
        if emit_c:
            c = from_v(state.v, cfg.params.mu, c_ref=1.0, x_ref_index=0)
        write_snapshot(out / f"snap_{index:04d}.dat", state, c=c)
        records.append(
            diag.assemble_record(
                state,
                prev,
                cfg.params,
                setup.reference,
                probe_center,
                probe_halfwidth,
                setup.front_level,
            )
        )

    try:
        report = run(state0, cfg.params, scheme, on_snapshot)
    except NumericalError:
        diag.write_series(records, out / "series.csv")
        raise
    diag.write_series(records, out / "series.csv")

    manifest = _build_manifest(cfg, boundary, setup, records, report, probe_center)
    write_manifest(manifest, out / "manifest.txt")
    return manifest, records


def wave_summary(cfg: ScenarioConfig, boundary: DirichletBoundary, setup: WaveSetup) -> dict:
    """The manifest's wave and jump-condition entries: speed and residuals of
    the declared far fields, the fitted wave and its residuals, the residuals
    of the data's end values against that wave, and the mass shift x0."""
    m = {}
    declared = cfg.declared_states
    if declared is not None:
        try:
            s = wave_speed(declared, cfg.params)
        except ValueError:
            m["declared_speed"] = None
        else:
            res = rh_residual(declared, s, cfg.params)
            m.update(declared_speed=s, declared_rh_r1=res.r1, declared_rh_r2=res.r2)
    wave = setup.wave
    m["wave_present"] = wave is not None
    if wave is not None:
        res = rh_residual(wave.states, wave.s, cfg.params)
        data_states = AsymptoticStates(
            u_minus=boundary.u_left,
            u_plus=boundary.u_right,
            v_minus=boundary.v_left,
            v_plus=boundary.v_right,
        )
        data_res = rh_residual(data_states, wave.s, cfg.params)
        m.update(
            wave_s=wave.s,
            wave_lambda=wave.lam,
            wave_v_minus=wave.states.v_minus,
            wave_kappa=wave.kappa,
            wave_rh_r1=res.r1,
            wave_rh_r2=res.r2,
            data_rh_r1=data_res.r1,
            data_rh_r2=data_res.r2,
            shift_x0=setup.shift.x0,
            shift_beta_residual=setup.shift.beta_residual,
        )
    return m


def _build_manifest(
    cfg: ScenarioConfig,
    boundary: DirichletBoundary,
    setup: WaveSetup,
    records,
    report: RunReport,
    probe_center: float,
) -> dict:
    m = {
        "scenario_name": cfg.name,
        "initial_kind": cfg.initial_kind,
        "seed_label": cfg.seed_label or "n/a",
        "mollify_delta": cfg.mollify_delta,
        "grid_x_min": cfg.grid.x_min,
        "grid_x_max": cfg.grid.x_max,
        "grid_n_nodes": cfg.grid.n_nodes,
        "grid_dx": cfg.grid.dx,
        "model_D": cfg.params.D,
        "model_chi": cfg.params.chi,
        "model_mu": cfg.params.mu,
        "model_xi": cfg.params.xi,
        "scheme_cfl": cfg.cfl,
        "scheme_diffusion_theta": cfg.diffusion_theta,
        "scheme_t_end": cfg.t_end,
        "scheme_snapshot_interval": cfg.snapshot_interval,
        "boundary_u_left": boundary.u_left,
        "boundary_v_left": boundary.v_left,
        "boundary_u_right": boundary.u_right,
        "boundary_v_right": boundary.v_right,
        "flux_variant": "wave" if setup.wave is not None else "constant",
        "min_u": report.min_u,
        "step_count": report.step_count,
        "snapshot_count": report.snapshot_count,
        "boundary_warning": report.boundary_warning,
        "wall_time_s": report.wall_time_s,
        "probe_center": probe_center,
        "probe_halfwidth": cfg.probe_halfwidth,
    }
    m.update(wave_summary(cfg, boundary, setup))
    if setup.wave is not None:
        m["probe_reference_level"] = diag.smooth_probe_reference(setup.wave)

    if records:
        probes = [r.max_dq_v for r in records]
        widths = [r.dq_width for r in records]
        first5 = widths[: min(5, len(widths))]
        m.update(
            probe_max_initial=probes[0],
            probe_max_peak=max(probes),
            probe_max_final=probes[-1],
            probe_width_first=widths[0],
            probe_width_last=widths[-1],
            probe_width_nondecreasing_first5=all(
                b >= a - 1e-12 for a, b in zip(first5, first5[1:])
            ),
        )

    if len(records) >= 3:
        decay = diag.decay_series(records)
        for name in diag.TRACKED_QUANTITIES:
            q = decay[name]
            m[f"decay_{name}_initial"] = q.initial
            m[f"decay_{name}_final"] = q.final
            m[f"decay_{name}_slope"] = q.tail_slope
            m[f"decay_{name}_decayed"] = q.decayed

    speed = _front_speed(records) if setup.wave is not None else None
    if speed is not None and setup.wave is not None:
        m["front_speed_estimate"] = speed
        m["front_speed_rel_err"] = abs(speed - setup.wave.s) / setup.wave.s
    return m


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = ("mollify_delta", "n_nodes", "cfl", "jump_height")

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


def apply_axis(cfg: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    if axis == "mollify_delta":
        return replace(cfg, mollify_delta=float(value))
    if axis == "n_nodes":
        return replace(cfg, grid=replace(cfg.grid, n_nodes=int(value)))
    if axis == "cfl":
        return replace(cfg, cfl=float(value))
    if axis == "jump_height":
        p = dict(cfg.initial_params)
        if cfg.initial_kind == "piecewise_constant":
            p["u_left"] = str(_f(p, "u_right") + float(value))
        elif cfg.initial_kind == "constant_plus_jump":
            p["u_amplitude"] = str(float(value))
        else:
            raise ConfigError(
                f"jump_height sweeps are not defined for kind '{cfg.initial_kind}'"
            )
        return replace(cfg, initial_params=p)
    raise ConfigError(f"unknown sweep axis '{axis}' (use one of {', '.join(SWEEP_AXES)})")


def sweep(base: ScenarioConfig, axis: str, values, out_dir) -> list[dict]:
    """Run one variant per value, each into its own subdirectory; failures are
    recorded in the cross-run CSV and do not abort the remaining runs."""
    if axis not in SWEEP_AXES:
        raise ConfigError(
            f"unknown sweep axis '{axis}' (use one of {', '.join(SWEEP_AXES)})"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    manifests = []
    for value in values:
        tag = f"{axis}_{value:g}" if isinstance(value, float) else f"{axis}_{value}"
        sub = out / tag
        row = {"axis": axis, "value": value, "status": "ok", "error": ""}
        try:
            variant = apply_axis(base, axis, float(value))
            variant = replace(variant, name=f"{base.name}[{tag}]")
            manifest, records = run_scenario(variant, sub)
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

"""Grid, field, and parameter types shared by all modules, plus the discrete
calculus primitives (stencil derivative, trapezoid quadrature, Lp norms) that
every other module builds on.

Conventions: uniform vertex-centered grids, node positions always computed
from the index (never accumulated), trapezoid quadrature everywhere so norms,
mass identities and anti-derivatives are mutually consistent.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _native


class ConfigError(ValueError):
    """Invalid grid/scheme/scenario configuration."""


class NumericalError(RuntimeError):
    """A computation produced non-finite or otherwise unusable values."""


class PositivityError(NumericalError):
    """Cell density left the positive cone during a run."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1D mesh on [x_min, x_max] with n_nodes vertices."""

    x_min: float
    x_max: float
    n_nodes: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ConfigError("grid bounds must be finite")
        if not self.x_max > self.x_min:
            raise ConfigError(
                f"x_max must exceed x_min (got [{self.x_min}, {self.x_max}])"
            )
        if int(self.n_nodes) != self.n_nodes or self.n_nodes < 8:
            raise ConfigError(f"n_nodes must be an integer >= 8 (got {self.n_nodes})")
        object.__setattr__(self, "n_nodes", int(self.n_nodes))  # arrays are sized by it

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_nodes - 1)

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def nodes(self) -> np.ndarray:
        # x_i from the index directly; no accumulated drift
        return self.x_min + self.dx * np.arange(self.n_nodes)


@dataclass(frozen=True)
class Field:
    """Nodal scalar data on a grid. Values are finite and read-only."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"field length {vals.shape} does not match grid ({self.grid.n_nodes},)"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise NumericalError(f"non-finite field value at node {bad}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "Field":
        return cls(grid, np.full(grid.n_nodes, float(value)))

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "Field":
        return cls(grid, np.asarray(fn(grid.nodes()), dtype=float))

    def __add__(self, other: "Field") -> "Field":
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.grid, self.values - other.values)

    def __mul__(self, a: float) -> "Field":
        return Field(self.grid, self.values * a)

    __rmul__ = __mul__


@functools.lru_cache(maxsize=8)
def _nodes(grid: GridSpec) -> np.ndarray:
    """grid.nodes(), computed once per grid and read-only."""
    x = grid.nodes()
    x.setflags(write=False)
    return x


def _derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """derivative_x on raw nodal values."""
    return np.gradient(values, dx, edge_order=2)


def derivative_x(f: Field) -> Field:
    """Discrete d/dx: second-order central stencil inside, second-order
    one-sided at the two boundary nodes."""
    return Field(f.grid, _derivative(f.values, f.grid.dx))


def trapezoid(values: np.ndarray, dx: float) -> float:
    """Composite trapezoid sum of nodal values on a uniform grid."""
    return float(dx * (values.sum() - 0.5 * (values[0] + values[-1])))


def integral(f: Field) -> float:
    return trapezoid(f.values, f.grid.dx)


def cumulative_integral(f: Field) -> Field:
    """Running trapezoid integral from the left boundary (zero at x_min)."""
    v = f.values
    panels = 0.5 * f.grid.dx * (v[1:] + v[:-1])
    out = np.concatenate(([0.0], np.cumsum(panels)))
    return Field(f.grid, out)


def _lp_norm_of_abs(abs_values: np.ndarray, dx: float, p: float) -> float:
    """lp_norm for a finite p >= 1, from the magnitudes |f| of the values."""
    return trapezoid(abs_values**p, dx) ** (1.0 / p)


def lp_norm(f: Field, p: float) -> float:
    """(integral |f|^p)^(1/p) by trapezoid, or max|f| for p = inf."""
    if p == math.inf:
        return float(np.abs(f.values).max())
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1 or p = inf (got {p})")
    return _lp_norm_of_abs(np.abs(f.values), f.grid.dx, p)


_REL_TOL_CHI = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Model constants: diffusivity D, coupling chi, and the chemotaxis pair
    (mu, xi) with chi = mu * xi."""

    D: float
    chi: float
    mu: float
    xi: float

    def __post_init__(self) -> None:
        for name in ("D", "chi", "mu", "xi"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ConfigError(f"{name} must be a positive finite number (got {val})")
        if abs(self.chi - self.mu * self.xi) > _REL_TOL_CHI * max(self.chi, self.mu * self.xi):
            raise ConfigError(
                f"inconsistent coupling: chi={self.chi} but mu*xi={self.mu * self.xi}"
            )

    @classmethod
    def from_chi(cls, D: float, chi: float) -> "ModelParams":
        """Parameters with mu = 1, so xi = chi."""
        return cls(D=D, chi=chi, mu=1.0, xi=chi)


@dataclass(frozen=True)
class AsymptoticStates:
    """Far-field values (u_minus, v_minus) at -inf and (u_plus, v_plus) at +inf."""

    u_minus: float
    u_plus: float
    v_minus: float
    v_plus: float

    def __post_init__(self) -> None:
        if self.u_minus < 0 or self.u_plus < 0:
            raise ValueError("far-field densities must be nonnegative")

    def is_shock(self) -> bool:
        return self.u_minus > self.u_plus > 0


@dataclass(frozen=True)
class SimState:
    """Solution pair (u, v) at time t."""

    u: Field
    v: Field
    t: float
    step_count: int = 0

    def __post_init__(self) -> None:
        if self.u.grid != self.v.grid:
            raise ValueError("u and v must live on the same grid")


# Text form of every float the package writes (snapshots, series.csv,
# manifests, sweep.csv): 17 significant digits, enough to round-trip.
_FLOAT_FMT = "%.17g"
# Rows formatted by one '%' operation; bounds the temporary tuple and string.
_SNAPSHOT_BLOCK_ROWS = 1024


@functools.lru_cache(maxsize=8)
def _node_column(grid: GridSpec) -> tuple[str, ...]:
    """The x column of a snapshot on `grid`, formatted once per grid."""
    return tuple(_FLOAT_FMT % x for x in _nodes(grid).tolist())


def write_snapshot(path, state: SimState, c: Field | None = None) -> None:
    """Plain-text snapshot: header '# t=<time>', then one 'x u v [c]' row per
    node, each value as '%.17g' % value writes it (17 significant digits).

    When the compiled library loads (`_native.snapshot_printer`), its exact
    printer formats every row into one buffer, straight from the columns,
    and the file is written in binary mode.  Otherwise `_write_snapshot_blocks`
    formats the rows in Python; both give the same bytes."""
    printer = _native.snapshot_printer()
    if printer is None:
        _write_snapshot_blocks(path, state, c)
        return
    format_rows, table = printer
    n = state.u.grid.n_nodes
    cols = [_nodes(state.u.grid), state.u.values, state.v.values]
    if c is not None:
        cols.append(c.values)
    ptrs = [_native._address(col, n) for col in cols] + [None] * (4 - len(cols))
    buf = np.empty(_native._VALUE_BYTES * len(cols) * n, dtype=np.uint8)
    size = format_rows(*ptrs, n, table, buf.__array_interface__["data"][0])
    with open(path, "wb") as fh:
        fh.write(("# t=" + (_FLOAT_FMT % state.t) + "\n").encode())
        fh.write(buf[:size])


def _write_snapshot_blocks(path, state: SimState, c: Field | None = None) -> None:
    """`write_snapshot` in Python, the reference for the compiled printer.

    Rows are formatted in blocks of _SNAPSHOT_BLOCK_ROWS by one row template
    repeated per block, which is byte-identical to applying '%.17g' to each
    value on its own.  The x column is the same in every snapshot of a run,
    so it comes preformatted from `_node_column` through a '%s' field."""
    cols = [np.array(_node_column(state.u.grid), dtype=object),
            state.u.values, state.v.values]
    if c is not None:
        cols.append(c.values)
    data = np.column_stack(cols)
    row_fmt = " ".join(["%s"] + [_FLOAT_FMT] * (data.shape[1] - 1)) + "\n"
    with open(path, "w") as fh:
        fh.write("# t=" + (_FLOAT_FMT % state.t) + "\n")
        for start in range(0, len(data), _SNAPSHOT_BLOCK_ROWS):
            block = data[start : start + _SNAPSHOT_BLOCK_ROWS]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def read_snapshot(path) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of write_snapshot; returns (t, x, u, v), ignoring extra columns."""
    with open(path, encoding="utf-8") as fh:
        try:
            header = fh.readline().strip()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
        if not header.startswith("# t="):
            raise ConfigError(f"{path}: missing '# t=' snapshot header")
        try:
            t = float(header[4:])
            with warnings.catch_warnings():  # an empty body is the error below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: not a snapshot of numbers ({exc})") from exc
    if data.size == 0:
        raise ConfigError(f"{path}: snapshot has no data rows")
    if data.shape[1] < 3:
        raise ConfigError(f"{path}: snapshot needs at least 3 columns (x u v)")
    bad_rows = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad_rows.size:
        raise ConfigError(f"{path}: non-finite entry in data row {bad_rows[0] + 1}")
    return t, data[:, 0], data[:, 1], data[:, 2]

import ctypes
import math

import numpy as np
import pytest

from chemoshock import _native
from chemoshock.core import (
    AsymptoticStates,
    ConfigError,
    Field,
    GridSpec,
    ModelParams,
    NumericalError,
    SimState,
    _SNAPSHOT_BLOCK_ROWS,
    cumulative_integral,
    derivative_x,
    integral,
    lp_norm,
    read_snapshot,
    write_snapshot,
)


def test_grid_nodes_computed_from_index():
    g = GridSpec(0.0, 400.0, 4001)
    x = g.nodes()
    i = np.arange(g.n_nodes)
    assert np.array_equal(x, 0.0 + g.dx * i)
    assert x[0] == 0.0
    assert abs(x[-1] - 400.0) < 1e-12


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(x_min=1.0, x_max=0.0, n_nodes=100),
        dict(x_min=0.0, x_max=1.0, n_nodes=7),
        dict(x_min=0.0, x_max=math.inf, n_nodes=100),
    ],
)
def test_grid_validation(kwargs):
    with pytest.raises(ConfigError):
        GridSpec(**kwargs)


def test_field_rejects_wrong_length_and_nonfinite():
    g = GridSpec(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        Field(g, np.zeros(10))
    bad = np.zeros(11)
    bad[3] = np.nan
    with pytest.raises(NumericalError, match="node 3"):
        Field(g, bad)


def test_field_values_read_only():
    g = GridSpec(0.0, 1.0, 11)
    f = Field.constant(g, 2.0)
    with pytest.raises(ValueError):
        f.values[0] = 3.0


def test_derivative_of_constant_is_zero():
    g = GridSpec(0.0, 400.0, 101)
    d = derivative_x(Field.constant(g, 5.0))
    assert np.abs(d.values).max() == 0.0


def test_derivative_of_linear_is_exact():
    g = GridSpec(-3.0, 7.0, 57)
    d = derivative_x(Field.from_function(g, lambda x: x))
    assert np.abs(d.values - 1.0).max() < 1e-13


def test_derivative_of_quadratic_exact_including_boundaries():
    g = GridSpec(0.0, 1.0, 11)
    d = derivative_x(Field.from_function(g, lambda x: x**2))
    assert np.abs(d.values - 2.0 * g.nodes()).max() < 1e-12


def test_derivative_linearity():
    g = GridSpec(0.0, 10.0, 257)
    rng = np.random.default_rng(7)
    f = Field(g, rng.standard_normal(g.n_nodes))
    h = Field(g, rng.standard_normal(g.n_nodes))
    a, b = 2.5, -1.25
    lhs = derivative_x(a * f + b * h).values
    rhs = a * derivative_x(f).values + b * derivative_x(h).values
    assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())


def test_integral_of_constant():
    g = GridSpec(0.0, 400.0, 4001)
    assert integral(Field.constant(g, 1.0)) == pytest.approx(400.0, abs=1e-10)


def test_integral_of_hat_function():
    # node-aligned triangle, peak 1, support width 2: area 1 exactly under trapezoid
    g = GridSpec(0.0, 10.0, 101)
    f = Field.from_function(g, lambda x: np.maximum(0.0, 1.0 - np.abs(x - 5.0)))
    assert integral(f) == pytest.approx(1.0, abs=1e-14)


def test_integral_of_sine():
    g = GridSpec(0.0, 1.0, 201)
    f = Field.from_function(g, lambda x: np.sin(np.pi * x))
    assert integral(f) == pytest.approx(2.0 / np.pi, abs=1e-4)


def test_discrete_fundamental_theorem():
    def defect(n):
        g = GridSpec(0.0, 1.0, n)
        f = Field.from_function(g, lambda x: np.sin(2 * np.pi * x) + x)
        return abs(integral(derivative_x(f)) - (f.values[-1] - f.values[0]))

    d1, d2 = defect(101), defect(201)
    assert d1 < 0.01
    assert d2 < d1 / 3 + 1e-14


def test_cumulative_integral_matches_total():
    g = GridSpec(0.0, 5.0, 401)
    f = Field.from_function(g, lambda x: np.cos(x))
    c = cumulative_integral(f)
    assert c.values[0] == 0.0
    assert c.values[-1] == pytest.approx(integral(f), abs=1e-14)


def test_lp_norm_indicator():
    g = GridSpec(0.0, 10.0, 1001)
    x = g.nodes()
    f = Field(g, ((x >= 4.0) & (x <= 5.0)).astype(float))
    assert lp_norm(f, 2) == pytest.approx(1.0, abs=g.dx)


def test_lp_norm_infinity_is_exact_max():
    g = GridSpec(0.0, 1.0, 33)
    rng = np.random.default_rng(3)
    f = Field(g, rng.standard_normal(g.n_nodes))
    assert lp_norm(f, math.inf) == np.abs(f.values).max()


def test_lp_norm_p4_of_scaled_indicator():
    # 2 * indicator of width 3: (2^4 * 3)^(1/4), up to edge quadrature
    g = GridSpec(0.0, 20.0, 2001)
    x = g.nodes()
    f = Field(g, 2.0 * ((x >= 8.0) & (x <= 11.0)).astype(float))
    expected = 48.0 ** 0.25
    assert lp_norm(f, 4) == pytest.approx(expected, abs=0.01)


def test_lp_norm_rejects_p_below_one():
    g = GridSpec(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        lp_norm(Field.constant(g, 1.0), 0.5)


def test_lp_norm_scales_homogeneously():
    g = GridSpec(0.0, 10.0, 123)
    rng = np.random.default_rng(11)
    f = Field(g, rng.standard_normal(g.n_nodes))
    for p in (1, 2, 4, math.inf):
        base = lp_norm(f, p)
        assert lp_norm(3.5 * f, p) == pytest.approx(3.5 * base, rel=1e-13)


def test_model_params_coupling_identity():
    with pytest.raises(ConfigError):
        ModelParams(D=1.0, chi=2.0, mu=1.0, xi=1.0)
    with pytest.raises(ConfigError):
        ModelParams.from_chi(D=-1.0, chi=1.0)


def test_asymptotic_states_validation():
    with pytest.raises(ValueError):
        AsymptoticStates(-1.0, 1.0, 0.0, 0.0)
    assert AsymptoticStates(2.0, 1.0, 0.0, 1.0).is_shock()
    assert not AsymptoticStates(1.0, 1.0, 0.0, 0.0).is_shock()


def test_sim_state_requires_shared_grid():
    g1 = GridSpec(0.0, 1.0, 11)
    g2 = GridSpec(0.0, 1.0, 12)
    with pytest.raises(ValueError):
        SimState(Field.constant(g1, 1.0), Field.constant(g2, 0.0), 0.0)


def test_snapshot_roundtrip(tmp_path):
    g = GridSpec(0.0, 2.0, 41)
    rng = np.random.default_rng(5)
    state = SimState(
        Field(g, 1.0 + rng.random(g.n_nodes)),
        Field(g, rng.standard_normal(g.n_nodes)),
        t=1.2345678901234567,
    )
    path = tmp_path / "snap_0000.dat"
    write_snapshot(path, state)
    t, x, u, v = read_snapshot(path)
    assert t == state.t
    assert np.array_equal(u, state.u.values)
    assert np.array_equal(v, state.v.values)
    assert np.array_equal(x, g.nodes())
    header = path.read_text().splitlines()[0]
    assert header.startswith("# t=")


def _write_snapshot_per_value(path, state, c=None):
    """Reference writer: one '%.17g' per value, as snapshots were first written."""
    cols = [state.u.grid.nodes(), state.u.values, state.v.values]
    if c is not None:
        cols.append(c.values)
    with open(path, "w") as fh:
        fh.write("# t=" + ("%.17g" % state.t) + "\n")
        for row in np.column_stack(cols):
            fh.write(" ".join("%.17g" % float(val) for val in row) + "\n")


@pytest.mark.parametrize(
    "n_nodes", [100, _SNAPSHOT_BLOCK_ROWS, 2 * _SNAPSHOT_BLOCK_ROWS + 37]
)
@pytest.mark.parametrize("with_c", [False, True])
def test_snapshot_bytes_match_per_value_formatting(tmp_path, n_nodes, with_c):
    rng = np.random.default_rng(n_nodes)
    special = [-0.0, 1e-300, 2.0, 1.0 / 3.0]
    u = 1.0 + rng.random(n_nodes)
    v = rng.standard_normal(n_nodes)
    u[: len(special)] = special
    v[-len(special) :] = special
    # two grids with the same n_nodes: the x column is cached per grid
    for g in (GridSpec(-1.0, 3.0, n_nodes), GridSpec(0.5, 7.25, n_nodes)):
        state = SimState(Field(g, u), Field(g, v), t=1.0 / 3.0)
        c = Field(g, np.exp(v)) if with_c else None

        write_snapshot(tmp_path / "block.dat", state, c=c)
        _write_snapshot_per_value(tmp_path / "ref.dat", state, c=c)
        data = (tmp_path / "block.dat").read_bytes()
        assert data == (tmp_path / "ref.dat").read_bytes()
        assert data.endswith(b"\n") and data.count(b"\n") == n_nodes + 1
        assert data.splitlines()[1].split()[1] == b"-0"


def test_snapshot_roundtrip_with_c_column(tmp_path):
    g = GridSpec(0.0, 2.0, 41)
    rng = np.random.default_rng(7)
    state = SimState(
        Field(g, 1.0 + rng.random(g.n_nodes)),
        Field(g, rng.standard_normal(g.n_nodes)),
        t=0.1,
    )
    c = Field(g, np.exp(rng.standard_normal(g.n_nodes)))
    path = tmp_path / "snap_0001.dat"
    write_snapshot(path, state, c=c)
    t, x, u, v = read_snapshot(path)
    assert t == state.t
    assert np.array_equal(x, g.nodes())
    assert np.array_equal(u, state.u.values)
    assert np.array_equal(v, state.v.values)
    assert np.array_equal(np.loadtxt(path)[:, 3], c.values)


# ---------------------------------------------------------------------------
# the compiled snapshot printer: parity with '%.17g', and the Python fallback
# ---------------------------------------------------------------------------


def _printed(values):
    """`values` as three columns of rows by the compiled printer, and as
    '%.17g' % value writes each of them."""
    format_rows, table = _native.snapshot_printer()
    cols = np.ascontiguousarray(np.reshape(values, (3, -1)))
    n = cols.shape[1]
    buf = np.empty(26 * 3 * n, dtype=np.uint8)
    size = format_rows(*(col.ctypes.data for col in cols), None, n, table, buf.ctypes.data)
    want = "".join("%.17g %.17g %.17g\n" % row for row in zip(*cols.tolist()))
    return bytes(buf[:size]).decode(), want


def _neighbours(values):
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):  # past DBL_MAX is inf
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return values[np.isfinite(values)]


def test_printer_matches_percent_17g_on_random_bit_patterns(stages):
    bits = np.random.default_rng(2208).integers(0, 2**64, 201_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:200_001]
    got, want = _printed(values)
    assert got == want


def test_printer_matches_percent_17g_on_edge_values(stages):
    powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
    switches = [1e-5, 1e-4, 1e16, 1e17]  # both sides of %g's fixed/exponent switches
    extremes = [0.0, 5e-324, np.finfo(float).tiny, np.finfo(float).max, 0.5, 1.5, 2.5]
    values = _neighbours(powers + switches + extremes)
    values = np.concatenate([values, -values])  # -0.0 among them
    got, want = _printed(values[: values.size // 3 * 3])
    assert got == want
    assert "-0 " in got or "-0\n" in got


def _exact_ties(rng):
    """Doubles x = m*2**-j, m odd, with x*10**(j-1) = m*5**(j-1)/2 a
    17-digit integer plus one half: '%.17g' rounds each one half to even."""
    ties = []
    for j in range(2, 26):
        lo, hi = -(-2 * 10**16 // 5 ** (j - 1)), min(2 * 10**17 // 5 ** (j - 1), 2**53)
        ties += [(m | 1) * 2.0**-j for m in rng.integers(lo, hi - 1, 40).tolist()]
    return ties


def test_printer_hands_exact_ties_to_snprintf(stages):
    _, table = _native.snapshot_printer()
    buf = ctypes.create_string_buffer(32)
    ties = _exact_ties(np.random.default_rng(2209))
    assert len(ties) > 500
    for x in ties + [-x for x in ties]:
        size = stages.format_value(x, table, buf)
        assert size < 0 and buf.raw[:-size].decode() == "%.17g" % x, x
    for x in (0.1, 1.0 / 3.0, -2.5e-300):  # no tie: the fast path
        size = stages.format_value(x, table, buf)
        assert size > 0 and buf.raw[:size].decode() == "%.17g" % x


def test_printer_writes_non_finite_values_as_python_does(stages):
    _, table = _native.snapshot_printer()
    buf = ctypes.create_string_buffer(32)
    for x in (math.inf, -math.inf, math.nan, -math.nan):
        size = stages.format_value(x, table, buf)
        assert buf.raw[:abs(size)].decode() == "%.17g" % x


@pytest.mark.parametrize("n_nodes", [8, 1024, 2085])  # 8: the smallest grid
@pytest.mark.parametrize("with_c", [False, True])
def test_snapshot_bytes_are_the_same_on_both_writers(stages, monkeypatch, tmp_path,
                                                     n_nodes, with_c):
    rng = np.random.default_rng(n_nodes)
    g = GridSpec(-3.0, 17.0, n_nodes)
    u = 1.0 + rng.random(n_nodes)
    v = rng.standard_normal(n_nodes) * 10.0 ** rng.integers(-20, 20, n_nodes)
    u[:3], v[-3:] = (-0.0, 1e-300, 1e17), (0.0, -5e-324, 1e-5)
    state = SimState(Field(g, u), Field(g, v), t=2.0 / 3.0)
    c = Field(g, np.exp(rng.standard_normal(n_nodes))) if with_c else None

    assert _native.snapshot_printer() is not None
    write_snapshot(tmp_path / "compiled.dat", state, c=c)
    monkeypatch.setattr(_native, "_load_stages", lambda: None)
    assert _native.snapshot_printer() is None
    write_snapshot(tmp_path / "python.dat", state, c=c)
    _write_snapshot_per_value(tmp_path / "ref.dat", state, c=c)
    data = (tmp_path / "compiled.dat").read_bytes()
    assert data == (tmp_path / "python.dat").read_bytes() == (tmp_path / "ref.dat").read_bytes()
    assert data.count(b"\n") == n_nodes + 1

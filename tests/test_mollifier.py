import math

import numpy as np
import pytest

from chemoshock.core import ConfigError, Field, GridSpec, integral, lp_norm
from chemoshock.mollifier import MollifierSpec, kernel_weights, mollify


def step_field(grid: GridSpec, jump_x: float, left: float, right: float) -> Field:
    x = grid.nodes()
    return Field(grid, np.where(x < jump_x, left, right))


def test_kernel_weights_normalized_and_symmetric():
    w = kernel_weights(MollifierSpec(1.0), dx=0.1)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(w, w[::-1])
    assert np.all(w >= 0)


def test_constant_field_is_reproduced_exactly():
    g = GridSpec(0.0, 400.0, 2001)
    out = mollify(Field.constant(g, 3.25), MollifierSpec(1.5))
    assert np.abs(out.values - 3.25).max() < 1e-12


@pytest.mark.parametrize("length, n, delta", [(400.0, 4001, 1.0), (200.0, 2001, 5.0),
                                              (600.0, 12001, 1.0)])
def test_a_node_whose_window_holds_one_value_keeps_it(length, n, delta):
    # the weights sum to 1 only up to rounding, so a plain convolution moves
    # a constant 1.3 by an ulp or two on each of these grids
    g = GridSpec(0.0, length, n)
    spec = MollifierSpec(delta)
    assert np.array_equal(mollify(Field.constant(g, 1.3), spec).values, np.full(n, 1.3))
    # a step keeps both plateaus; every node whose window meets the jump
    # keeps the plain convolution's bits
    f = step_field(g, 50.0, 1.3, 0.4).values
    out = mollify(Field(g, f), spec).values
    w = kernel_weights(spec, g.dx)
    plain = np.convolve(np.pad(f, w.size // 2, mode="edge"), w, mode="valid")
    jump = int(np.flatnonzero(f != f[0])[0])  # the first node of the right plateau
    near = np.zeros(n, dtype=bool)
    near[jump - w.size // 2:jump + w.size // 2] = True  # the windows that hold both values
    assert np.array_equal(out[~near], f[~near])
    assert out[near].tobytes() == plain[near].tobytes()
    assert np.all((out[near] < 1.3) & (out[near] > 0.4))


def test_width_below_grid_resolution_rejected():
    g = GridSpec(0.0, 400.0, 401)  # dx = 1
    with pytest.raises(ConfigError):
        mollify(Field.constant(g, 1.0), MollifierSpec(1.5))
    with pytest.raises(ConfigError):
        MollifierSpec(-1.0)


def test_step_is_smoothed_only_near_the_jump():
    g = GridSpec(0.0, 400.0, 4001)
    f = step_field(g, 50.0, 2.0, 1.0)
    out = mollify(f, MollifierSpec(1.0))
    x = g.nodes()
    assert np.abs(out.values[x <= 49.0] - 2.0).max() < 1e-12
    assert np.abs(out.values[x >= 51.0] - 1.0).max() < 1e-12
    assert np.all(np.diff(out.values) <= 1e-15)


def test_step_l2_norm_does_not_grow():
    g = GridSpec(0.0, 400.0, 4001)
    f = step_field(g, 200.0, 1.0, -1.0)
    out = mollify(f, MollifierSpec(2.0))
    assert lp_norm(out, 2) <= lp_norm(f, 2) * (1 + 1e-10)


def test_mass_preserved_for_interior_support():
    g = GridSpec(0.0, 400.0, 2001)
    x = g.nodes()
    f = Field(g, np.exp(-((x - 180.0) / 12.0) ** 2) * 1.7)
    spec = MollifierSpec(2.0)
    m0, m1 = integral(f), integral(mollify(f, spec))
    assert abs(m1 - m0) < 1e-10 * abs(m0)


def test_lp_nonexpansive_on_rough_interior_fields():
    g = GridSpec(0.0, 400.0, 2001)
    rng = np.random.default_rng(20240817)
    spec = MollifierSpec(1.5)
    margin = int(math.ceil(2 * spec.delta / g.dx))
    for _ in range(50):
        vals = np.zeros(g.n_nodes)
        core = rng.uniform(-2.0, 2.0, g.n_nodes - 2 * margin)
        # rough: random piecewise structure with spikes
        core[rng.integers(0, core.size, 20)] *= 5.0
        vals[margin:-margin] = core
        f = Field(g, vals)
        out = mollify(f, spec)
        for p in (1, 2, 4, math.inf):
            assert lp_norm(out, p) <= lp_norm(f, p) * (1 + 1e-10)


def test_smoothing_error_decreases_with_width():
    g = GridSpec(0.0, 40.0, 4001)
    f = Field.from_function(g, lambda x: np.tanh(x - 20.0) + 0.3 * np.sin(x))
    errs = [
        lp_norm(mollify(f, MollifierSpec(d)) - f, 2) for d in (2.0, 1.0, 0.5)
    ]
    assert errs[0] > errs[1] > errs[2]

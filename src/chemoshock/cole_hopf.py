"""Transform between the original chemotaxis variables (u, c) and the
transformed pair (u, v): v = -(1/mu) * d/dx ln(c).

The inverse direction has a gauge freedom (v fixes c only up to a constant
factor), so it is anchored at an explicit reference node/value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Field, cumulative_integral, derivative_x


def _check_positive(c: Field, what: str = "c") -> None:
    bad = np.flatnonzero(c.values <= 0)
    if bad.size:
        raise ValueError(
            f"{what} must be strictly positive; first violation at node {int(bad[0])} "
            f"(value {c.values[int(bad[0])]})"
        )


@dataclass(frozen=True)
class ChemotaxisState:
    """Cell density u and strictly positive attractant concentration c."""

    u: Field
    c: Field
    t: float

    def __post_init__(self) -> None:
        if self.u.grid != self.c.grid:
            raise ValueError("u and c must live on the same grid")
        _check_positive(self.c)


def to_v(c: Field, mu: float) -> Field:
    """Forward transform. The log is taken nodewise before differencing to
    avoid cancellation where c is tiny."""
    if mu <= 0:
        raise ValueError(f"mu must be positive (got {mu})")
    _check_positive(c)
    return derivative_x(Field(c.grid, np.log(c.values))) * (-1.0 / mu)


def from_v(v: Field, mu: float, c_ref: float, x_ref_index: int) -> Field:
    """Inverse transform: c(x) = c_ref * exp(-mu * int_{x_ref}^{x} v dy) by
    cumulative trapezoid; exact at the reference node."""
    if mu <= 0:
        raise ValueError(f"mu must be positive (got {mu})")
    if c_ref <= 0:
        raise ValueError(f"c_ref must be positive (got {c_ref})")
    n = v.grid.n_nodes
    if not (-n <= x_ref_index < n):
        raise ValueError(f"x_ref_index {x_ref_index} outside grid of {n} nodes")
    anti = cumulative_integral(v).values
    with np.errstate(over="ignore"):  # an overflow fails the Field check, naming its node
        c = c_ref * np.exp(-mu * (anti - anti[x_ref_index]))
    return Field(v.grid, c)

"""Smoothing of rough initial data with the standard compactly supported
bump kernel of width delta.

The kernel is normalized discretely: the weights are divided by their sum, so
they sum to 1 up to rounding and mass conservation holds to rounding, not just
to quadrature order.  A node whose whole window holds one value keeps that
value, so constants and the far-field plateaus of rough data are reproduced
exactly.  Boundaries are handled by constant extension, matching the
far-field Dirichlet setup of the experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, Field, GridSpec


@dataclass(frozen=True)
class MollifierSpec:
    """Kernel width delta, in space units."""

    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ConfigError(f"delta must be a positive finite number (got {self.delta})")

    def validate_for(self, grid: GridSpec) -> None:
        # below 2*dx the kernel is not resolved; past the grid length it mostly
        # averages the padded end values, and its arrays grow with delta/dx
        if not 2.0 * grid.dx <= self.delta <= grid.length:
            raise ConfigError(
                f"delta={self.delta} must lie between 2*dx={2.0 * grid.dx} "
                f"and the grid length {grid.length}"
            )


def kernel_weights(spec: MollifierSpec, dx: float) -> np.ndarray:
    """Discrete bump-kernel weights on node offsets, divided by their sum, so
    they sum to 1 up to rounding."""
    m_max = int(math.ceil(spec.delta / dx)) - 1
    offsets = np.arange(-m_max, m_max + 1)
    r = offsets * dx / spec.delta
    w = np.zeros(offsets.size)
    inside = np.abs(r) < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return w / w.sum()


def mollify(f: Field, spec: MollifierSpec) -> Field:
    """Convolve f with the kernel; f is extended by its boundary values, and a
    node whose whole window holds one value keeps it."""
    spec.validate_for(f.grid)
    w = kernel_weights(spec, f.grid.dx)
    half = w.size // 2
    padded = np.pad(f.values, half, mode="edge")
    out = np.convolve(padded, w, mode="valid")
    # changes[j]: how many neighbours differ among padded[:j + 1]; node i's window
    # padded[i:i + w.size] holds one value when none differ inside it
    changes = np.concatenate(([0], np.cumsum(padded[1:] != padded[:-1])))
    flat = changes[w.size - 1:] == changes[: out.size]
    out[flat] = f.values[flat]
    return Field(f.grid, out)

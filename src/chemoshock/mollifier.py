"""Smoothing of rough initial data with the standard compactly supported
bump kernel of width delta.

The kernel is normalized discretely (weights sum to exactly 1) so constants
are reproduced exactly and mass conservation holds to rounding, not just to
quadrature order.  Boundaries are handled by constant extension, matching the
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
    """Discrete bump-kernel weights on node offsets, summing to exactly 1."""
    m_max = int(math.ceil(spec.delta / dx)) - 1
    offsets = np.arange(-m_max, m_max + 1)
    r = offsets * dx / spec.delta
    w = np.zeros(offsets.size)
    inside = np.abs(r) < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return w / w.sum()


def mollify(f: Field, spec: MollifierSpec) -> Field:
    """Convolve f with the kernel; f is extended by its boundary values."""
    spec.validate_for(f.grid)
    w = kernel_weights(spec, f.grid.dx)
    half = w.size // 2
    padded = np.pad(f.values, half, mode="edge")
    return Field(f.grid, np.convolve(padded, w, mode="valid"))

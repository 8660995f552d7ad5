"""Planar antenna arrays: element layout."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import Vec3

_AXIS_TOL = 1e-9


@dataclass(frozen=True)
class PlanarArray:
    """Uniform rows x cols planar array.

    Element 0 sits at ``origin``; element ``p = row * cols + col`` is
    offset by ``row * spacing`` along ``axis_row`` plus ``col * spacing``
    along ``axis_col``. The two axes must be orthonormal.
    """

    rows: int
    cols: int
    spacing: float
    origin: Vec3
    axis_row: Vec3
    axis_col: Vec3

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"array needs at least one element, got {self.rows}x{self.cols}")
        if self.spacing <= 0.0:
            raise ValueError(f"element spacing must be positive, got {self.spacing}")
        if abs(self.axis_row.norm() - 1.0) > _AXIS_TOL or abs(self.axis_col.norm() - 1.0) > _AXIS_TOL:
            raise ValueError("array axes must be unit vectors")
        if abs(self.axis_row.dot(self.axis_col)) > _AXIS_TOL:
            raise ValueError("array axes must be orthogonal")

    @property
    def num_elements(self) -> int:
        return self.rows * self.cols

    def element_position(self, p: int) -> Vec3:
        """Absolute position of element ``p``; element 0 is the origin."""
        if not 0 <= p < self.num_elements:
            raise IndexError(f"element index {p} out of range for {self.rows}x{self.cols} array")
        return Vec3(*self.element_positions()[p].tolist())

    def element_positions(self) -> np.ndarray:
        """(num_elements, 3) absolute positions, element order p = row*cols + col.

        Each is origin + axis_row * (row * spacing) + axis_col * (col * spacing),
        evaluated in that order.
        """
        row, col = np.divmod(np.arange(self.num_elements), self.cols)
        o, r, c = (np.array(v.as_tuple()) for v in (self.origin, self.axis_row, self.axis_col))
        return o + r * (row * self.spacing)[:, None] + c * (col * self.spacing)[:, None]

    def element_offsets(self) -> np.ndarray:
        """(num_elements, 3) offsets from the origin, element order p = row*cols + col."""
        rows = np.arange(self.rows)[:, None, None]
        cols = np.arange(self.cols)[None, :, None]
        row_axis = np.array(self.axis_row.as_tuple())
        col_axis = np.array(self.axis_col.as_tuple())
        offsets = rows * self.spacing * row_axis + cols * self.spacing * col_axis
        return offsets.reshape(self.num_elements, 3)

    def moved_to(self, origin: Vec3) -> "PlanarArray":
        """Same array geometry translated so element 0 sits at ``origin``."""
        return replace(self, origin=origin)


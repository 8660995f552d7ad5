"""Planar antenna arrays: element layout."""

from __future__ import annotations

from dataclasses import dataclass

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

    def element_positions(self, at: np.ndarray | None = None) -> np.ndarray:
        """(num_elements, 3) absolute positions, element order p = row*cols + col;
        (..., num_elements, 3) with the origin moved to each of the (..., 1, 3) ``at``.

        Each is origin + axis_row * (row * spacing) + axis_col * (col * spacing),
        evaluated in that order.
        """
        row, col = np.divmod(np.arange(self.num_elements), self.cols)
        o, r, c = (np.array(v.as_tuple()) for v in (self.origin, self.axis_row, self.axis_col))
        return (o if at is None else at) + r * (row * self.spacing)[:, None] + c * (col * self.spacing)[:, None]

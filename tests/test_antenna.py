import numpy as np
import pytest

from isacsim.antenna import PlanarArray
from isacsim.geometry import ORIGIN, Vec3


def test_element_layout():
    arr = PlanarArray(2, 3, 0.5, ORIGIN, Vec3(0.0, 0.0, 1.0), Vec3(0.0, 1.0, 0.0))
    assert arr.num_elements == 6
    assert arr.element_position(0) == ORIGIN
    assert arr.element_position(2) == Vec3(0.0, 1.0, 0.0)  # row 0, col 2
    assert arr.element_position(3) == Vec3(0.0, 0.0, 0.5)  # row 1, col 0
    with pytest.raises(IndexError):
        arr.element_position(6)


def test_offsets_match_positions():
    arr = PlanarArray(3, 4, 0.25, Vec3(1.0, 2.0, 3.0), Vec3(0.0, 0.0, 1.0), Vec3(0.0, 1.0, 0.0))
    offs = arr.element_offsets()
    assert offs.shape == (12, 3)
    for p in range(arr.num_elements):
        expected = arr.element_position(p) - arr.origin
        assert np.allclose(offs[p], expected.as_tuple(), atol=1e-15)


def test_validation():
    z = Vec3(0.0, 0.0, 1.0)
    y = Vec3(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        PlanarArray(0, 4, 0.5, ORIGIN, z, y)
    with pytest.raises(ValueError):
        PlanarArray(2, 2, 0.0, ORIGIN, z, y)
    with pytest.raises(ValueError):
        PlanarArray(2, 2, 0.5, ORIGIN, z, Vec3(0.0, 2.0, 0.0))  # not unit
    with pytest.raises(ValueError):
        PlanarArray(2, 2, 0.5, ORIGIN, z, z)  # not orthogonal


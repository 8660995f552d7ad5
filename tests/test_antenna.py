import math
from dataclasses import replace

import numpy as np
import pytest

from isacsim.antenna import PlanarArray
from isacsim.geometry import ORIGIN, Vec3
from scalar_truth import element_offsets, element_position, sub


def test_element_layout():
    arr = PlanarArray(2, 3, 0.5, ORIGIN, Vec3(0.0, 0.0, 1.0), Vec3(0.0, 1.0, 0.0))
    assert arr.num_elements == 6
    assert arr.element_positions().shape == (6, 3)
    assert element_position(arr, 0) == ORIGIN
    assert element_position(arr, 2) == Vec3(0.0, 1.0, 0.0)  # row 0, col 2
    assert element_position(arr, 3) == Vec3(0.0, 0.0, 0.5)  # row 1, col 0
    with pytest.raises(IndexError):
        element_position(arr, 6)


def test_element_positions_equal_the_scalar_formula_bit_for_bit():
    # tilted axes and a spacing that is no power of two, so every product and sum rounds
    c, s = math.cos(0.3), math.sin(0.3)
    arr = PlanarArray(3, 5, 0.0053, Vec3(1.25, -7.5, 10.1), Vec3(0.0, s, c), Vec3(0.0, c, -s))
    want = [element_position(arr, p).as_tuple() for p in range(arr.num_elements)]
    assert arr.element_positions().tobytes() == np.array(want).tobytes()
    at = np.array([[[3.5, 0.1, -2.0]], [[-1.0, 4.0, 0.7]]])  # the origin moved to each of two points
    moved = [[element_position(replace(arr, origin=Vec3(*o)), p).as_tuple() for p in range(arr.num_elements)]
             for o in at[:, 0].tolist()]
    assert arr.element_positions(at).tobytes() == np.array(moved).tobytes()


def test_offsets_match_positions():
    arr = PlanarArray(3, 4, 0.25, Vec3(1.0, 2.0, 3.0), Vec3(0.0, 0.0, 1.0), Vec3(0.0, 1.0, 0.0))
    offs = element_offsets(arr)
    assert offs.shape == (12, 3)
    for p in range(arr.num_elements):
        expected = sub(element_position(arr, p), arr.origin)
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


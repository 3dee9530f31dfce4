"""Tests for graded grid construction, distances, and grid functions."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import fracblow.mesh
from fracblow.errors import BadConfig, GridMismatch, OutOfDomain
from fracblow.mesh import Grid, GridFunction, build_graded, distance_D


def test_uniform_grid_at_unit_grading():
    grid = build_graded(16, 1.0, 0.25)
    assert grid.n_nodes == 32
    gaps = np.diff(grid.nodes)
    assert np.allclose(gaps, 1.0 / 16.0)
    # midpoint layout: innermost nodes at +-1/32
    assert abs(grid.nodes[16] - 1.0 / 32.0) < 1e-15
    assert abs(grid.nodes[15] + 1.0 / 32.0) < 1e-15


def test_graded_innermost_gap_matches_power():
    grid = build_graded(64, 3.0, 0.25)
    innermost = grid.nodes[grid.nodes > 0][0]
    target = (1.0 / 64.0) ** 3
    assert target / 2.0 <= innermost <= 2.0 * target


def test_grid_is_symmetric():
    for gamma in (1.0, 2.0, 3.5):
        grid = build_graded(32, gamma)
        assert np.allclose(grid.nodes, -grid.nodes[::-1], atol=0.0)


def test_grid_clusters_at_both_ends():
    grid = build_graded(128, 2.0)
    right = grid.nodes[grid.nodes > 0]
    gaps = np.diff(right)
    mid = len(gaps) // 2
    assert gaps[0] < gaps[mid] / 10.0       # fine near 0
    assert gaps[-1] < gaps[mid] / 10.0      # fine near 1


def test_grid_excludes_singular_point_and_boundary():
    grid = build_graded(64, 2.0)
    assert np.all(grid.nodes != 0.0)
    assert np.all(np.abs(grid.nodes) < 1.0)
    assert np.all(np.diff(grid.nodes) > 0.0)


def test_band_node_sets_are_disjoint():
    # nodes within delta of 0 and nodes within delta of the boundary
    # can never overlap when delta <= 1/4
    for delta in (0.1, 0.25):
        grid = build_graded(64, 2.0, delta)
        near_zero = np.abs(grid.nodes) < delta
        near_boundary = 1.0 - np.abs(grid.nodes) < delta
        assert not np.any(near_zero & near_boundary)


def test_build_graded_validates_arguments():
    with pytest.raises(BadConfig):
        build_graded(15, 2.0)
    with pytest.raises(BadConfig):
        build_graded(32, 0.5)
    with pytest.raises(BadConfig):
        build_graded(32, 7.0)
    with pytest.raises(BadConfig):
        build_graded(32, 2.0, delta=0.3)
    with pytest.raises(BadConfig):
        build_graded(32, 2.0, delta=0.0)
    # exponent 6 is allowed, but from 457 nodes per side the outermost
    # node 1 - (1/n)**6 / 2 rounds to 1
    with pytest.raises(BadConfig, match="n_per_side 512 with grading_exponent 6"):
        build_graded(512, 6.0)
    grid = build_graded(456, 6.0)
    assert grid.nodes[-1] < 1.0 and np.all(np.diff(grid.nodes) > 0.0)


def test_build_graded_refuses_past_the_node_cap_before_any_array():
    # a grid past the cap would lead to an operator fold of 8
    # n_per_side**2 bytes; it is refused before even its nodes are built
    cap = fracblow.mesh._MAX_N_PER_SIDE
    assert build_graded(cap, 2.4).n_per_side == cap
    tracemalloc.start()
    try:
        with pytest.raises(BadConfig,
                           match=f"n_per_side must be at most {cap}, got "
                                 f"{cap + 1}$"):
            build_graded(cap + 1, 2.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * cap  # less than one array of cap doubles


def test_grid_constructor_rejects_bad_nodes():
    with pytest.raises(BadConfig):
        Grid(nodes=np.array([-0.5, 0.0, 0.5]), grading_exponent=1.0,
             delta=0.25)
    with pytest.raises(BadConfig):
        Grid(nodes=np.array([0.5, 0.25]), grading_exponent=1.0, delta=0.25)
    with pytest.raises(BadConfig):
        Grid(nodes=np.array([-0.5, 1.0]), grading_exponent=1.0, delta=0.25)
    with pytest.raises(BadConfig, match="mirror-symmetric"):
        # every node on one side of 0
        Grid(nodes=np.array([0.2, 0.5, 0.7]), grading_exponent=1.0, delta=0.25)
    for nodes in ([-0.5, 0.3], [-0.9, -0.2, 0.001, 0.4, 0.41, 0.99]):
        with pytest.raises(BadConfig, match="mirror-symmetric"):
            Grid(nodes=np.array(nodes), grading_exponent=1.0, delta=0.25)


def test_distances():
    assert distance_D(0.3) == 0.3
    assert distance_D(-0.9) == 0.9
    assert distance_D(1e-12) == 1e-12
    xs = np.array([-0.5, 0.25])
    assert np.allclose(distance_D(xs), [0.5, 0.25])


def test_distances_reject_exterior_points():
    for bad in (1.0, -1.0, 1.5, -2.0):
        with pytest.raises(OutOfDomain):
            distance_D(bad)


def test_all_nodes_have_positive_distances():
    grid = build_graded(64, 3.0)
    assert np.all(distance_D(grid.nodes) > 0.0)


def test_local_spacing_positive_and_small_near_zero():
    grid = build_graded(64, 2.0)
    spacing = grid.local_spacing()
    assert np.all(spacing > 0.0)
    inner = np.argmin(np.abs(grid.nodes))
    assert spacing[inner] < np.max(spacing) / 20.0


def test_grid_function_validation():
    grid = build_graded(16, 1.0)
    u = GridFunction(grid, np.ones(grid.n_nodes))
    # a grid function is its grid and its values; it vanishes outside
    # (-1,1), as the operator assumes
    assert [f.name for f in dataclasses.fields(u)] == ["grid", "values"]
    with pytest.raises(GridMismatch):
        GridFunction(grid, np.ones(grid.n_nodes + 1))
    bad = np.ones(grid.n_nodes)
    bad[0] = np.inf
    with pytest.raises(BadConfig):
        GridFunction(grid, bad)


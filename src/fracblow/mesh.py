"""Graded grids on the punctured interval (-1,1) \\ {0}.

The domain has two singular features: the interior point 0, where blow-up
profiles behave like D(x)**tau with tau in (-1,0), and the outer boundary
+-1, where solutions vanish like a positive power of the boundary
distance.  ``build_graded`` therefore clusters nodes algebraically toward
0 and toward +-1 on each side, never placing a node on 0 or +-1 itself.

``GridFunction`` is node values on a grid; the problem poses every
function as 0 on |x| >= 1, and ``operator.assemble`` integrates that
exterior exactly.  ``distance_D`` is the distance to the singular point;
the boundary distance of a point of (-1,1) is 1 - |x|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, GridMismatch, OutOfDomain

__all__ = ["Grid", "GridFunction", "build_graded", "distance_D"]


# ---------------------------------------------------------------------------
# Grid.

# Most nodes per side ``build_graded`` makes.  A solve or audit stores the
# operator's even fold, 8 * n_per_side**2 bytes (512 MiB at this cap), and
# factors a copy of it; past the cap a grid is refused before any array
# is built, the same on every host.
_MAX_N_PER_SIDE = 2**13


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing, mirror-symmetric nodes in (-1,1) excluding 0
    (``nodes == -nodes[::-1]`` exactly: the problem is invariant under
    x -> -x and its blow-up solution is even), plus the grading exponent
    and the comparison-band radius ``delta`` used downstream;
    ``n_per_side`` is read off the nodes."""

    nodes: np.ndarray
    grading_exponent: float
    delta: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise BadConfig("grid needs a 1-D array of at least two nodes")
        if not np.all(np.diff(nodes) > 0.0):
            raise BadConfig("grid nodes must be strictly increasing")
        if np.any(np.abs(nodes) >= 1.0) or np.any(nodes == 0.0):
            raise BadConfig("grid nodes must lie in (-1,1) and avoid 0")
        if not np.array_equal(nodes, -nodes[::-1]):
            raise BadConfig(
                "grid nodes must be mirror-symmetric (nodes equal to "
                "-nodes[::-1]), such as build_graded builds")
        if not (0.0 < self.delta <= 0.25):
            raise BadConfig(f"delta must lie in (0, 1/4], got {self.delta}")

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def n_per_side(self) -> int:
        return self.nodes.size // 2

    def same_as(self, other: "Grid") -> bool:
        return np.array_equal(self.nodes, other.nodes)

    def local_spacing(self) -> np.ndarray:
        """Per-node distance to the nearest neighbouring node on the same
        side of 0 (innermost and outermost nodes use their single
        same-side neighbour; a lone node per side its distance to 0 or
        to 1, whichever is smaller)."""
        right = self.nodes[self.nodes.size // 2:]
        if right.size == 1:
            local = np.minimum(right, 1.0 - right)
        else:
            gaps = np.diff(right)
            padded = np.concatenate((gaps[:1], gaps, gaps[-1:]))
            local = np.minimum(padded[:-1], padded[1:])
        return np.concatenate((local[::-1], local))


def _grading_map(xi: np.ndarray, gamma: float) -> np.ndarray:
    """Map (0,1) -> (0,1) with algebraic clustering at both ends."""
    xi = np.asarray(xi, dtype=float)
    lower = 0.5 * (2.0 * xi) ** gamma
    upper = 1.0 - 0.5 * (2.0 * (1.0 - xi)) ** gamma
    return np.where(xi <= 0.5, lower, upper)


def build_graded(n_per_side: int, grading_exponent: float,
                 delta: float = 0.25) -> Grid:
    """Symmetric grid with ``n_per_side`` nodes in (0,1) mirrored into
    (-1,0), clustered toward 0 and toward +-1 with the given exponent.

    The innermost node sits at (1/n_per_side)**grading_exponent / 2, so
    the smallest gap to 0 matches the advertised power up to a factor 2;
    grading_exponent = 1 reproduces the uniform midpoint grid.
    ``n_per_side`` must lie in [16, ``_MAX_N_PER_SIDE``].
    """
    n = int(n_per_side)
    gamma = float(grading_exponent)
    if n < 16:
        raise BadConfig(f"n_per_side must be at least 16, got {n}")
    if n > _MAX_N_PER_SIDE:
        raise BadConfig(
            f"n_per_side must be at most {_MAX_N_PER_SIDE}, got {n}")
    if not (1.0 <= gamma <= 6.0):
        raise BadConfig(f"grading_exponent must lie in [1, 6], got {gamma}")
    xi = (np.arange(1, n + 1) - 0.5) / n
    right = _grading_map(xi, gamma)
    if not (np.all(np.diff(right) > 0.0) and right[-1] < 1.0):
        # the outermost gaps (1/n)**gamma / 2 fall below the spacing of
        # doubles next to 1
        raise BadConfig(
            f"n_per_side {n} with grading_exponent {gamma} grades the outer "
            f"nodes closer to 1 than double precision resolves; use fewer "
            f"nodes or a smaller exponent")
    nodes = np.concatenate([-right[::-1], right])
    return Grid(nodes=nodes, grading_exponent=gamma, delta=float(delta))


# ---------------------------------------------------------------------------
# Distance to the interior singular point.


def distance_D(x):
    """Distance to the interior singular point 0, for points of (-1,1)."""
    out = np.abs(np.asarray(x, dtype=float))
    if np.any(out >= 1.0):
        raise OutOfDomain(f"point outside (-1,1): {x}")
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Grid functions.


@dataclass(eq=False)
class GridFunction:
    """Node values on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise GridMismatch(
                f"values shape {values.shape} does not match grid "
                f"({self.grid.nodes.shape})")
        if not np.all(np.isfinite(values)):
            raise BadConfig("grid-function values must be finite")
        self.values = values

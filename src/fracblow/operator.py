"""Dense collocation discretization of the 1-D integral fractional
Laplacian on the punctured interval, honouring a declared exterior
extension exactly.

For a node x the operator value is assembled from exact kernel moments
over a partition of the real line:

* a symmetric self panel (x-r, x+r), free of other nodes, integrated in
  closed form against the second-difference model of the integrand
  (the panel radius never reaches 0, the other side of 0, or the outer
  boundary);
* piecewise-linear interpolation between consecutive nodes on each side
  of 0 -- never across 0, where functions of interest blow up;
* the uncovered inner gaps (0, x_first) on each side, where the function
  is frozen at its innermost node value (the gap width shrinks
  algebraically under refinement, so the frozen-value rule is
  consistent for any integrable blow-up power);
* linear bridges from the outermost nodes to the boundary value implied
  by the exterior extension;
* the exterior |y| >= 1, in closed form for the zero extension and via
  a Gauss hypergeometric identity for power tails, whose F(a, b; b+1; z)
  ``specfun._gauss_2f1`` evaluates uniformly in alpha: at alpha = 1/2 its
  connection formula has a logarithmic limit, which the evaluator reaches
  continuously instead of by a branch.

Every piece is accumulated in difference form (weights multiply
u(x) - u(y-model)), so globally constant data is annihilated exactly up
to dot-product rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, GridMismatch
from .mesh import Exterior, Grid, GridFunction, PowerTail, Zero
from .specfun import _gauss_2f1

__all__ = ["OperatorMatrix", "assemble", "apply",
           "power_tail_gap", "power_tail_moment"]


@dataclass(eq=False)
class OperatorMatrix:
    """Dense discrete operator: apply(u) = interior_weights @ u.values +
    exterior_correction, valid for grid functions with the same grid and
    the same exterior extension used at assembly.

    ``even_weights`` is the half operator on even vectors: with h the
    number of left nodes, W_RR + W_RM = W[h:, h:] + W[h:, h-1::-1], read
    off the right-half rows.  The weights commute with the node reversal,
    so they map an even vector to an even one, and for every k the system
    on the even vectors supported on the nodes h + k, ..., n - 1 and
    their mirrors is the trailing block ``even_weights[k:, k:]``."""

    alpha: float
    grid: Grid
    interior_weights: np.ndarray
    exterior_correction: np.ndarray
    exterior: Exterior
    even_weights: np.ndarray


def power_tail_gap(alpha: float, tau: float, x: float) -> float:
    """Closed form of integral_1^inf (1 - z^tau) (z - x)^(-1-2*alpha) dz
    for |x| < 1 and tau < 2*alpha (use -x for the left exterior piece).

    The integrand vanishes at z = 1, so this stays bounded (or mildly
    singular) as x -> 1 where the raw tail moment blows up like the
    kernel mass; computing the difference directly avoids a catastrophic
    cancellation between two large hypergeometric values.
    """
    if not (-1.0 < x < 1.0):
        raise BadConfig(f"collocation point must lie in (-1,1), got {x}")
    c = 2.0 * alpha - tau
    if c <= 0.0:
        raise BadConfig(
            f"power-tail exponent {tau} must lie below 2*alpha = {2*alpha}")
    # by parts: (-tau / 2a) * integral_1^inf z^(tau-1) (z-x)^(-2a) dz
    return (-tau / (2.0 * alpha)) * _gauss_2f1(2.0 * alpha, c, x) / c


def power_tail_moment(alpha: float, tau: float, x: float) -> float:
    """Closed form of integral_1^inf z^tau (z - x)^(-1-2*alpha) dz for
    |x| < 1 and tau < 2*alpha (use -x for the left exterior piece)."""
    gap = power_tail_gap(alpha, tau, x)  # checks x and tau first
    return (1.0 - x) ** (-2.0 * alpha) / (2.0 * alpha) - gap


def _exterior_limit(exterior: Exterior) -> float:
    """Boundary value the exterior extension implies at |x| -> 1+."""
    return 0.0 if isinstance(exterior, Zero) else float(exterior.amplitude)


def _kernel_moments(A, B, alpha):
    """J0 = integral_A^B s^(-1-2a) ds and J1 = integral_A^B s^(-2a) ds.

    Both are (B^e - A^e)/e, with e = -2a and e = 1 - 2a, written in
    L = log(B/A) = log1p((B-A)/A) as A^e expm1(e L)/e: the plain
    difference quotient loses digits for narrow pieces (B ~ A) and, in
    J1, as e -> 0 next to a = 1/2.  J1 uses exprel(x) = expm1(x)/x, taken
    as its limit 1 where x = 0, so at a = 1/2 it is log(B/A) with no
    branch on alpha."""
    twoa = 2.0 * alpha
    log_ratio = np.log1p((B - A) / A)
    power = A ** -twoa
    J0 = power * np.expm1(-twoa * log_ratio) / -twoa
    x = (1.0 - twoa) * log_ratio
    exprel = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
    J1 = power * A * log_ratio * exprel
    return J0, J1


def _build_pieces(grid: Grid):
    """Global partition of (-1,1) into linear pieces (a, b, jl, jr): the
    pieces run between consecutive breakpoints -1, left nodes, 0, right
    nodes, 1, and the model value runs linearly from slot jl at a to slot
    jr at b; slot -1 means the boundary value the exterior implies.  The
    inner gaps next to 0 are frozen: both ends read their innermost node.
    Node i closes piece i + [x_i > 0] and opens the next one."""
    x = grid.nodes
    n_left = x.size // 2
    breaks = np.concatenate(([-1.0], x[:n_left], [0.0], x[n_left:], [1.0]))
    ends = np.concatenate(([-1], np.arange(x.size), [-1]))
    jl = np.insert(ends[:-1], n_left + 1, n_left)
    jr = np.insert(ends[1:], n_left, n_left - 1)
    return breaks[:-1], breaks[1:], jl, jr


def assemble(alpha: float, grid: Grid, exterior: Exterior) -> OperatorMatrix:
    """Assemble the dense collocation matrix of the fractional Laplacian
    of order ``alpha`` on ``grid`` under the given exterior extension.

    Only the right-half rows are computed; the grid is mirror-symmetric,
    so the left half is their exact reflection and the matrix commutes
    with the node reversal bit for bit.  Each row adds its piece weights
    into one buffer of n + 1 slots whose last entry collects the weight
    on the exterior's boundary value (slot -1).  Plain sums suffice:
    every diagonal term is positive and every correction term has the
    sign of minus that boundary value, so nothing cancels."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise BadConfig(f"alpha must lie strictly in (0, 1), got {alpha}")
    if not isinstance(grid, Grid):
        raise BadConfig("grid must be a Grid instance")
    if not isinstance(exterior, (Zero, PowerTail)):
        raise BadConfig(f"unknown exterior extension {exterior!r}")
    if isinstance(exterior, PowerTail) and exterior.tau >= 2.0 * alpha:
        raise BadConfig(
            f"power-tail exponent {exterior.tau} must lie below "
            f"2*alpha = {2.0 * alpha} for an integrable exterior")

    x = grid.nodes
    n = x.size
    h = n // 2
    twoa = 2.0 * alpha
    pa, pb, jl, jr = _build_pieces(grid)
    # self-panel radius: free of other nodes, clear of 0 and of +-1
    radii = np.minimum(grid.local_spacing(),
                       np.minimum(np.abs(x) / 2.0, (1.0 - np.abs(x)) / 2.0))
    E = _exterior_limit(exterior)

    W = np.zeros((n, n))
    corr = np.zeros(n)

    for i in range(h, n):
        xi = x[i]
        r = radii[i]
        close = i + 1   # the piece ending at x_i

        # trim the self panel out of the two pieces meeting at x_i, but
        # keep the linear model anchored at the ORIGINAL piece endpoints:
        # only the integration limits shrink, not the interpolation line
        ta = pa.copy()
        tb = pb.copy()
        ta[close + 1] = xi + r
        tb[close] = xi - r
        keep = tb - ta > 1e-300
        ta, tb = ta[keep], tb[keep]
        oa, ob = pa[keep], pb[keep]

        right_of = oa >= xi
        dn = np.where(right_of, ta - xi, xi - tb)    # trimmed near limit
        df = np.where(right_of, tb - xi, xi - ta)    # trimmed far limit
        An = np.where(right_of, oa - xi, xi - ob)    # original near end
        Af = np.where(right_of, ob - xi, xi - oa)    # original far end
        J0, J1 = _kernel_moments(dn, df, alpha)
        width = Af - An
        w_near = (Af * J0 - J1) / width
        w_far = (J1 - An * J0) / width
        # map near/far weights back to the a-end and b-end of each piece
        w_a = np.where(right_of, w_near, w_far)
        w_b = np.where(right_of, w_far, w_near)

        mass = ((1.0 - xi) ** (-twoa) + (1.0 + xi) ** (-twoa)) / twoa
        row = np.zeros(n + 1)
        np.add.at(row, jl[keep], -w_a)
        np.add.at(row, jr[keep], -w_b)
        diag = mass + w_a.sum() + w_b.sum()

        # self panel: second-difference model with exact kernel moment,
        # reaching into the far end of each of the two pieces at x_i; a
        # frozen inner gap (far slot i itself) adds nothing
        c_self = r ** (-twoa) / (2.0 - twoa)
        for k, slot in ((close, jl[close]), (close + 1, jr[close + 1])):
            if slot != i:
                t = c_self * (r / (pb[k] - pa[k]))
                diag += t
                row[slot] -= t

        # exterior |y| >= 1: kernel mass to the diagonal, declared data to
        # the correction
        corr[i] = row[n] * E
        if isinstance(exterior, PowerTail):
            gap_sum = (power_tail_gap(alpha, exterior.tau, xi)
                       + power_tail_gap(alpha, exterior.tau, -xi))
            corr[i] -= exterior.amplitude * (mass - gap_sum)

        row[i] += diag
        W[i] = row[:n]

    if not np.all(np.isfinite(corr[h:])):
        raise BadConfig(
            f"exterior {exterior!r} overflows the exterior correction at "
            f"alpha={alpha}: its data are too large for double precision")
    W[:h] = W[h:][::-1, ::-1]
    corr[:h] = corr[h:][::-1]
    return OperatorMatrix(alpha=alpha, grid=grid, interior_weights=W,
                          exterior_correction=corr, exterior=exterior,
                          even_weights=W[h:, h:] + W[h:, h - 1::-1])


def apply(M: OperatorMatrix, u: GridFunction) -> np.ndarray:
    """Discrete fractional Laplacian of ``u`` at every grid node."""
    if not M.grid.same_as(u.grid):
        raise GridMismatch("grid of the operand differs from the matrix grid")
    if u.exterior != M.exterior:
        raise GridMismatch(
            f"operand exterior {u.exterior!r} differs from matrix "
            f"exterior {M.exterior!r}")
    return M.interior_weights @ u.values + M.exterior_correction

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

Rows are assembled in blocks, as (rows x pieces) arrays, and each is bit
for bit the row a one-row-at-a-time evaluation gives: every sum keeps
that evaluation's terms, lengths and order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, GridMismatch
from .mesh import Exterior, Grid, GridFunction, PowerTail, Zero
from .specfun import _check_alpha, _gauss_2f1

__all__ = ["OperatorMatrix", "assemble", "apply", "even_block",
           "power_tail_gap", "power_tail_moment"]

_BLOCK_ROWS = 32  # right-half rows evaluated together in assemble


@dataclass(eq=False)
class OperatorMatrix:
    """Dense discrete operator, stored as its right-half rows: with h the
    number of left nodes, the operator at node h + j is rows[j] @ u.values
    + correction[j], and at the mirror node h - 1 - j the same with the
    row reversed.  Valid for grid functions on ``grid``, extended outside
    (-1,1) by ``exterior``."""

    alpha: float
    grid: Grid
    rows: np.ndarray
    correction: np.ndarray
    exterior: Exterior


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
    """Global partition of (-1,1) into linear pieces from pa[k] to pb[k]
    between consecutive breakpoints -1, left nodes, 0, right nodes, 1.
    The model value on piece k runs linearly from one slot at its a-end
    to one at its b-end: slots k - 1 and k left of 0, k - 2 and k - 1
    right of 0, where slot -1 (at -1 and 1) means the boundary value the
    exterior implies.  The inner gaps next to 0 are frozen: both ends
    read their innermost node, h - 1 on (x_{h-1}, 0) and h on (0, x_h),
    with h the number of left nodes.  Node i closes piece i + [x_i > 0]
    and opens the next one."""
    x = grid.nodes
    h = x.size // 2
    breaks = np.concatenate(([-1.0], x[:h], [0.0], x[h:], [1.0]))
    return breaks[:-1], breaks[1:]


def _kept_sums(keep, *weights):
    """Per-row sums of each weight array over the entries ``keep`` marks,
    to the bit what ``w[k][keep[k]].sum()`` gives row by row: numpy's
    pairwise grouping follows the length of the summed array, so the kept
    entries are compacted first, one group of rows per kept count."""
    counts = np.count_nonzero(keep, axis=1)
    sums = np.empty((len(weights), keep.shape[0]))
    for m in np.unique(counts):
        rows = counts == m
        mask = keep & rows[:, None]
        for s, w in zip(sums, weights):
            s[rows] = w[mask].reshape(-1, m).sum(axis=1)
    return sums


def assemble(alpha: float, grid: Grid, exterior: Exterior) -> OperatorMatrix:
    """Assemble the dense collocation matrix of the fractional Laplacian
    of order ``alpha`` on ``grid`` under the given exterior extension.

    Only the right-half rows are computed and stored; the grid is
    mirror-symmetric, so the left half is their reflection.  They are
    evaluated _BLOCK_ROWS at a time as (rows x pieces) arrays, bit for
    bit what one row at a time gives.  Each row adds its piece weights
    into n + 1 slots whose last entry collects the weight on the
    boundary value E the exterior implies (slot -1).  Plain sums
    suffice: every diagonal term is positive and every correction term
    has the sign of -E, so nothing cancels."""
    alpha = _check_alpha(alpha)
    if alpha < 2.0 ** -960:  # keeps 2**64 of headroom for data up to 2**54
        raise BadConfig(f"alpha={alpha} is below 2**-960: the diagonal, about "
                        f"1/alpha, overflows double precision on the data")
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
    pa, pb = _build_pieces(grid)
    # self-panel radius: free of other nodes, clear of 0 and of +-1
    radii = np.minimum(grid.local_spacing(),
                       np.minimum(np.abs(x) / 2.0, (1.0 - np.abs(x)) / 2.0))
    E = 0.0 if isinstance(exterior, Zero) else float(exterior.amplitude)

    # per-row scalars: numpy's array power rounds differently from the
    # scalar one, so these stay scalar; the exterior tail is scalar too
    mass = np.empty(n - h)
    c_self = np.empty(n - h)
    gap_sum = np.zeros(n - h)
    for j, (xi, r) in enumerate(zip(x[h:], radii[h:])):
        mass[j] = ((1.0 - xi) ** (-twoa) + (1.0 + xi) ** (-twoa)) / twoa
        c_self[j] = r ** (-twoa) / (2.0 - twoa)
        if isinstance(exterior, PowerTail):
            gap_sum[j] = (power_tail_gap(alpha, exterior.tau, xi)
                          + power_tail_gap(alpha, exterior.tau, -xi))

    W = np.empty((n - h, n))
    corr = np.empty(n - h)
    full = pb - pa > 1e-300
    for lo in range(h, n, _BLOCK_ROWS):
        i = np.arange(lo, min(lo + _BLOCK_ROWS, n))
        j = i - h
        t = np.arange(i.size)
        xi = x[i]
        r = radii[i]
        close = i + 1   # the piece ending at x_i; close + 1 opens there

        # trim the self panel out of the two pieces meeting at x_i, but
        # keep the linear model anchored at the ORIGINAL piece endpoints:
        # only the near integration limit moves, not the interpolation line
        to_a = np.abs(pa - xi[:, None])
        to_b = np.abs(pb - xi[:, None])
        near = np.minimum(to_a, to_b)
        far = np.maximum(to_a, to_b)
        near[t, close] = xi - (xi - r)
        near[t, close + 1] = (xi + r) - xi
        keep = np.repeat(full[None, :], i.size, axis=0)
        keep[t, close] = (xi - r) - pa[close] > 1e-300
        keep[t, close + 1] = pb[close + 1] - (xi + r) > 1e-300

        J0, J1 = _kernel_moments(near, far, alpha)
        # weights on the a-end and b-end values of each piece; the signed
        # width carries the side of x_i, and a dropped piece weighs 0,
        # which the slot sums add exactly
        span = to_b - to_a
        w_a = np.where(keep, (to_b * J0 - J1) / span, 0.0)
        w_b = np.where(keep, (J1 - to_a * J0) / span, 0.0)

        # the slot map of _build_pieces as slices, slot -1 stored at n:
        # each slot takes its a-end terms, then its b-end terms, in piece
        # order, as np.add.at over the map would add them
        row = np.zeros((i.size, n + 1))
        row[:, :h + 1] -= w_a[:, 1:h + 2]
        row[:, h:n] -= w_a[:, h + 2:]
        row[:, n] -= w_a[:, 0]
        row[:, :h] -= w_b[:, :h]
        row[:, h - 1:n] -= w_b[:, h:n + 1]
        row[:, n] -= w_b[:, n + 1]
        sum_a, sum_b = _kept_sums(keep, w_a, w_b)
        diag = mass[j] + sum_a + sum_b

        # self panel: second-difference model with exact kernel moment,
        # reaching into the far end of each of the two pieces at x_i; a
        # frozen inner gap (the left piece of row h) adds nothing
        cs = c_self[j]
        inner = i > h
        tl = cs[inner] * (r[inner] / (pb[close[inner]] - pa[close[inner]]))
        diag[inner] += tl
        row[t[inner], i[inner] - 1] -= tl
        tr = cs * (r / (pb[close + 1] - pa[close + 1]))
        diag += tr
        row[t, i + 1] -= tr

        # exterior |y| >= 1: kernel mass to the diagonal, declared data to
        # the correction (an overflow is reported below)
        with np.errstate(over="ignore"):
            corr[j] = row[:, n] * E
            if isinstance(exterior, PowerTail):
                corr[j] -= exterior.amplitude * (mass[j] - gap_sum[j])

        row[t, i] += diag
        W[j] = row[:, :n]

    if not np.all(np.isfinite(corr)):
        raise BadConfig(
            f"exterior {exterior!r} overflows the exterior correction at "
            f"alpha={alpha}: its data are too large for double precision")
    return OperatorMatrix(alpha=alpha, grid=grid, rows=W, correction=corr,
                          exterior=exterior)


def apply(M: OperatorMatrix, u: GridFunction) -> np.ndarray:
    """Discrete fractional Laplacian of ``u``, extended by ``M.exterior``."""
    if not M.grid.same_as(u.grid):
        raise GridMismatch("grid of the operand differs from the matrix grid")
    # contiguous operands: BLAS sums both halves alike, so even maps to even
    left = M.rows @ u.values[::-1].copy() + M.correction
    return np.concatenate((left[::-1], M.rows @ u.values + M.correction))


def even_block(M: OperatorMatrix, k: int = 0) -> np.ndarray:
    """W_RR + W_RM, a fresh array: the operator on even vectors supported
    on the right-half nodes h + k, ..., n - 1 and their mirrors, as every
    level's active set {D > 1/level} is."""
    h = M.rows.shape[0]
    return M.rows[k:, h + k:] + M.rows[k:, :h - k][:, ::-1]

"""Dense collocation discretization of the 1-D integral fractional
Laplacian on the punctured interval, for functions that vanish outside
(-1,1), as the problem poses them.

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
* linear bridges from the outermost nodes to the boundary value 0;
* the exterior |y| >= 1, where the function is 0: its kernel mass, in
  closed form.

Every piece is accumulated in difference form (weights multiply
u(x) - u(y-model)), so a row and its weight on the boundary value sum
to the exterior kernel mass up to dot-product rounding.

Rows are assembled in blocks, as (rows x pieces) arrays, and each is bit
for bit the row a one-row-at-a-time evaluation gives: every sum keeps
that evaluation's terms, lengths and order.  A block makes few full-size
array passes and allocates few temporaries: one table of distances from
its nodes to every breakpoint, whose two column views are the distances
to the pieces' a- and b-ends; the near and far ends copied from it by
slice, with min/max only on the pieces between the block's first and
last node; the kernel moments, computed in place over those two copies;
the piece weights, formed in the buffers the moments free, with the
pieces the self panel empties zeroed through one mask; and the kept
sums, one compress per weight array and kept count, a single one where
every row of the block keeps as many pieces, as nearly all do.

Every operand of the operator is even about 0 (the profile, D**tau,
the torsion function and every Newton iterate), so ``assemble`` stores
one form only: it folds each block into the h x h even operator
W_RR + W_RM as the block is produced, and never holds the n/2 x n
right-half rows.  ``apply`` is the one product, on even operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import BadConfig, GridMismatch
from .mesh import Grid, GridFunction
from .specfun import _check_alpha, _gauss_2f1

__all__ = ["OperatorMatrix", "assemble", "apply", "power_tail_gap"]

_BLOCK_ROWS = 32  # right-half rows evaluated together


@dataclass(eq=False)
class OperatorMatrix:
    """Dense discrete operator on even grid functions, stored as its
    h x h even fold W_RR + W_RM (h the number of left nodes): for an even
    u, the operator at right-half node h + j is fold[j] @ u.values[h:],
    and at its mirror h - 1 - j the same.  The band of right-half nodes
    h + k, ..., n - 1 and their mirrors reads fold[k:], and its block is
    fold[k:, k:].  Valid for grid functions on ``grid``, extended by 0
    outside (-1,1)."""

    alpha: float
    grid: Grid
    fold: np.ndarray
    # read only by the assembly probe of perfbench/spans.py, which keys
    # assemblies by it; goes when that probe keys by alpha and grid alone
    exterior: ClassVar[str] = "zero"


def power_tail_gap(alpha: float, tau: float, x: float) -> float:
    """Closed form of integral_1^inf (1 - z^tau) (z - x)^(-1-2*alpha) dz
    for |x| < 1 and tau < 2*alpha (use -x for the left exterior piece).

    The operator of |x|^tau - 1, which vanishes outside (-1,1), is that
    of the power, -c(tau)|x|^(tau-2*alpha), less gap(x) + gap(-x).  The
    integrand vanishes at z = 1, so this stays bounded (or mildly
    singular) as x -> 1 where the raw tail moment blows up like the
    kernel mass; computing the difference directly avoids a catastrophic
    cancellation between two large hypergeometric values, which
    ``specfun._gauss_2f1`` evaluates uniformly in alpha.
    """
    if not (-1.0 < x < 1.0):
        raise BadConfig(f"collocation point must lie in (-1,1), got {x}")
    c = 2.0 * alpha - tau
    if c <= 0.0:
        raise BadConfig(
            f"power-tail exponent {tau} must lie below 2*alpha = {2*alpha}")
    # by parts: (-tau / 2a) * integral_1^inf z^(tau-1) (z-x)^(-2a) dz
    return (-tau / (2.0 * alpha)) * _gauss_2f1(2.0 * alpha, c, x) / c


def _kernel_moments(A, B, alpha):
    """J0 = integral_A^B s^(-1-2a) ds and J1 = integral_A^B s^(-2a) ds.

    Both are (B^e - A^e)/e, with e = -2a and e = 1 - 2a, written in
    L = log(B/A) = log1p((B-A)/A) as A^e expm1(e L)/e: the plain
    difference quotient loses digits for narrow pieces (B ~ A) and, in
    J1, as e -> 0 next to a = 1/2.  J1 uses exprel(x) = expm1(x)/x, taken
    as its limit 1 where x = 0, so at a = 1/2 (where x = 0 everywhere)
    it is log(B/A) with no branch on alpha.

    A and B must be C-contiguous float arrays of one shape; both are
    overwritten (they end as scratch), and J0 and J1 are two new arrays.
    Every step runs in place on contiguous buffers, in the order of the
    formulas above, so each element has the bits of the plain
    expressions."""
    twoa = 2.0 * alpha
    log_ratio = np.subtract(B, A, out=B)
    log_ratio /= A
    np.log1p(log_ratio, out=log_ratio)
    power = A ** -twoa
    J0 = np.multiply(log_ratio, -twoa)
    np.expm1(J0, out=J0)
    J0 *= power
    J0 /= -twoa
    J1 = np.multiply(power, A, out=power)
    J1 *= log_ratio
    x = np.multiply(log_ratio, 1.0 - twoa, out=A)
    exprel = np.expm1(x, out=log_ratio)
    with np.errstate(invalid="ignore"):  # 0/0 where x = 0, replaced next
        exprel /= x
    exprel[x == 0.0] = 1.0
    J1 *= exprel
    return J0, J1


def _breakpoints(grid: Grid):
    """Global partition of (-1,1) into n + 2 linear pieces, piece k from
    breakpoint k to breakpoint k + 1 of the n + 3 breakpoints -1, left
    nodes, 0, right nodes, 1.
    The model value on piece k runs linearly from one slot at its a-end
    to one at its b-end: slots k - 1 and k left of 0, k - 2 and k - 1
    right of 0, where slot -1 (at -1 and 1) means the boundary value 0.
    The inner gaps next to 0 are frozen: both ends read their innermost
    node, h - 1 on (x_{h-1}, 0) and h on (0, x_h), with h the number of
    left nodes.  Node i closes piece i + [x_i > 0]
    and opens the next one."""
    x = grid.nodes
    h = x.size // 2
    return np.concatenate(([-1.0], x[:h], [0.0], x[h:], [1.0]))


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


def _checked_alpha(alpha: float, grid: Grid) -> float:
    """``alpha`` as a float, once it and ``grid`` pass the checks of every
    assembly."""
    alpha = _check_alpha(alpha)
    if alpha < 2.0 ** -960:  # keeps 2**64 of headroom for data up to 2**54
        raise BadConfig(f"alpha={alpha} is below 2**-960: the diagonal, about "
                        f"1/alpha, overflows double precision on the data")
    if not isinstance(grid, Grid):
        raise BadConfig("grid must be a Grid instance")
    return alpha


def assemble(alpha: float, grid: Grid) -> OperatorMatrix:
    """Assemble the dense collocation matrix of the fractional Laplacian
    of order ``alpha`` on ``grid`` for functions that vanish outside
    (-1,1), as its h x h even fold.

    The right-half rows are evaluated _BLOCK_ROWS at a time as (rows x
    pieces) arrays, bit for bit what one row at a time gives, in a few
    full-size passes (see the module docstring), and each block is
    folded, W_RR + W_RM, as it is produced; the grid is mirror-symmetric,
    so the left half is their reflection.  Each row adds its piece
    weights into n + 1 slots; the last stands for the boundary value 0
    (slot -1), which the outermost node's self panel reaches, and is
    dropped.  Plain sums suffice: every diagonal term is positive, so
    nothing cancels."""
    alpha = _checked_alpha(alpha, grid)
    x = grid.nodes
    n = x.size
    h = n // 2
    twoa = 2.0 * alpha
    breaks = _breakpoints(grid)
    pa, pb = breaks[:-1], breaks[1:]
    # self-panel radius: free of other nodes, clear of 0 and of +-1
    radii = np.minimum(grid.local_spacing(),
                       np.minimum(np.abs(x) / 2.0, (1.0 - np.abs(x)) / 2.0))

    # per-row scalars: numpy's array power rounds differently from libm's
    # pow, so these are Python floats
    mass = np.empty(n - h)
    c_self = np.empty(n - h)
    for j, (xi, r) in enumerate(zip(x[h:].tolist(), radii[h:].tolist())):
        mass[j] = ((1.0 - xi) ** (-twoa) + (1.0 + xi) ** (-twoa)) / twoa
        c_self[j] = r ** (-twoa) / (2.0 - twoa)

    fold = np.empty((h, h))
    full = pb - pa > 1e-300
    for lo in range(h, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        i = np.arange(lo, hi)
        j = i - h
        t = np.arange(i.size)
        xi = x[lo:hi]
        r = radii[lo:hi]
        close = i + 1   # the piece ending at x_i; close + 1 opens there

        # one distance table: piece k's ends lie at columns k and k + 1.
        # Pieces up to close lie left of x_i (near end b), the rest right
        # of it (near end a), and fl(a - b) = -fl(b - a), so min/max is
        # needed only on the pieces between the block's first and last
        # node; the moments get contiguous copies
        dist = np.subtract(breaks, xi[:, None])
        np.abs(dist, out=dist)
        to_a, to_b = dist[:, :-1], dist[:, 1:]
        near = np.empty_like(to_a)
        far = np.empty_like(to_a)
        left, right = lo + 2, hi + 1
        near[:, :left] = to_b[:, :left]
        far[:, :left] = to_a[:, :left]
        np.minimum(to_a[:, left:right], to_b[:, left:right],
                   out=near[:, left:right])
        np.maximum(to_a[:, left:right], to_b[:, left:right],
                   out=far[:, left:right])
        near[:, right:] = to_a[:, right:]
        far[:, right:] = to_b[:, right:]
        # trim the self panel out of the two pieces meeting at x_i, but
        # keep the linear model anchored at the ORIGINAL piece endpoints:
        # only the near integration limit moves, not the interpolation line
        near[t, close] = xi - (xi - r)
        near[t, close + 1] = (xi + r) - xi
        keep = np.repeat(full[None, :], i.size, axis=0)
        keep[t, close] = (xi - r) - pa[close] > 1e-300
        keep[t, close + 1] = pb[close + 1] - (xi + r) > 1e-300

        J0, J1 = _kernel_moments(near, far, alpha)
        # weights on the a-end and b-end values of each piece, formed in
        # the buffers the moments freed: (to_b J0 - J1) / span and
        # (J1 - to_a J0) / span.  The signed width carries the side of
        # x_i, and a dropped piece weighs 0, which the slot sums add exactly
        span = np.subtract(to_b, to_a, out=near)
        w_a = np.multiply(to_b, J0, out=far)
        w_a -= J1
        w_a /= span
        w_b = np.subtract(J1, np.multiply(to_a, J0, out=J0), out=J1)
        w_b /= span
        drop = ~keep
        np.copyto(w_a, 0.0, where=drop)
        np.copyto(w_b, 0.0, where=drop)

        # the slot map of _breakpoints as slices, slot -1 (the boundary
        # value 0) at n and left out: each slot takes its a-end terms,
        # then its b-end terms, in piece order, as np.add.at over the map
        # would add them
        row = np.zeros((i.size, n + 1))
        row[:, :h + 1] -= w_a[:, 1:h + 2]
        row[:, h:n] -= w_a[:, h + 2:]
        row[:, :h] -= w_b[:, :h]
        row[:, h - 1:n] -= w_b[:, h:n + 1]
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

        row[t, i] += diag
        np.add(row[:, h:n], row[:, h - 1::-1], out=fold[lo - h:hi - h])
    return OperatorMatrix(alpha=alpha, grid=grid, fold=fold)


def apply(M: OperatorMatrix, u: GridFunction) -> np.ndarray:
    """Discrete fractional Laplacian of the even ``u``, extended by 0
    outside (-1,1): the fold times the right half of ``u``, mirrored, so
    the result is exactly even.  BadConfig when ``u`` is not equal to its
    reversal (a -0.0 mirrored by +0.0 is)."""
    if not M.grid.same_as(u.grid):
        raise GridMismatch("grid of the operand differs from the matrix grid")
    if not np.array_equal(u.values, u.values[::-1]):
        raise BadConfig("the operator applies to even grid functions only")
    half = M.fold @ u.values[M.fold.shape[0]:]
    return np.concatenate((half[::-1], half))

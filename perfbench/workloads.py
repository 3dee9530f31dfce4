"""Seeded inputs for the three benchmark workloads.

Every operation is one ``fracblow`` command line.  The generator draws
the command lines from ``random.Random(seed)``, so the same seed always
gives the same argv, and it records with each operation what an
independent derivation expects of it.  Expected verdicts and zones use
two facts that do not come from the package:

* the threshold order is alpha0 = 1/2 exactly;
* below it, the two-sided kernel integral vanishes at tau1 = 2*alpha - 1,
  the exponent of the 1-D fundamental solution |x|**(2*alpha - 1) (the
  self-tests confirm this against the quadrature oracle in
  ``tests/oracles.py``).

Why each workload exists:

* ``solve`` -- Newton inside ``solve_blowup`` dominates (about two thirds
  of an operation), assembly of the dense operator follows (three
  identical assemblies per operation), then the torsion solve and the
  quadrature behind ``classify``.  Newton and LU changes, and reuse of
  the assembled operator within one operation, show here.  The timed
  stream is the two end-to-end acceptance instances (0.5, 3) and
  (0.25, 1.75) followed by seeded neighbours of each, every one with its
  own alpha, so nothing repeats across operations.  Over the rest of the
  unique-existence regime most solves fail: of 33 instances on a grid
  (alpha 0.55, 0.7, 0.9 at p_lo + 0.2, 1, 1.8; alpha 0.05 .. 0.45 at
  10%, 50% and 90% of the window) 26 failed, with NewtonStall above
  alpha = 1/2, BadConfig in the top half of the window, and rate-gate
  misses and MonotoneViolation near its lower edge.  After the timed
  window a fixed panel of one instance per failure mode runs; its
  failures are counted but kept out of the timed figures, and being the
  same for every seed they add the same count to every run.
* ``specfun`` -- grid-free queries (``classify``, ``critical`` and
  one-alpha ``specfun`` rows on the CLI thread pool).  Quadrature is
  nearly all of the time; ``find_alpha0`` is recomputed by every
  ``critical`` call.  The operator and the solver stay idle, so this is
  the no-change control for assembly and Newton work.  Strata just
  below alpha0 expose the documented BracketFailure, strata at alpha
  below 0.05 the NoConvergence of the kernel tail, rows above alpha 0.98
  their digit loss, and p near the edges of the existence window the
  equality-adjacent branches of ``classify``.  Each failing stratum sits
  beside a passing one, and a block of queries holds one of each, so
  every run of a given length has the same failures.
* ``audit`` -- nonexistence audits in zones 1, 2 and 3 with alpha from a
  small set, so most operations share an (alpha, grid) pair with an
  earlier one.  Assembly dominates (two identical assemblies per
  operation) with quadrature next and no Newton work, so assembly
  speed-ups and caches that live across operations show here and not on
  ``solve``; their memory cost shows in peak_rss_mb.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

ALPHA0 = 0.5

# CLI defaults of the grid-based commands; the workloads run at them.
N_PER_SIDE = 512
GRADING = 2.4
DELTA = 0.25
SCHEDULE = "8:1048576"

# The two instances of acceptance criterion 6.
SOLVE_ANCHORS = ((0.5, 3.0), (0.25, 1.75))

WHY = {
    "solve": "Newton and assembly dominate; acceptance instances and "
             "their seeded neighbours, distinct alphas, plus a fixed panel "
             "of the regime's known solve failures",
    "specfun": "grid-free classify/critical/specfun queries where "
               "quadrature dominates; control for operator and solver "
               "work; strata near alpha0, at small alpha and near 1 show "
               "the known failures",
    "audit": "zone 1-3 nonexistence audits sharing a few alphas, so "
             "assembly dominates and cross-operation reuse is possible",
}


def tau1(alpha: float) -> float:
    """Interior zero of the two-sided kernel integral (alpha < 1/2)."""
    return 2.0 * alpha - 1.0


def window(alpha: float) -> tuple:
    """(p_lo, p_hi) of unique existence; p_hi is inf from alpha0 up."""
    p_lo = 1.0 + 2.0 * alpha
    if alpha >= ALPHA0:
        return p_lo, math.inf
    return p_lo, 1.0 - 2.0 * alpha / tau1(alpha)


def expected_regime(alpha: float, p: float, tau: Optional[float]) -> tuple:
    """(kind, predicted_rate) that ``fracblow classify`` must print,
    derived from alpha0 = 1/2 and tau1 = 2*alpha - 1 alone.

    The generator keeps every input away from the equality cases, which
    the package resolves with a relative tolerance of 1e-9."""
    p_lo, p_hi = window(alpha)
    rate = -2.0 * alpha / (p - 1.0)
    if alpha >= ALPHA0:
        if p < p_lo:
            return "nonexistence-a", None
        return ("unique-existence", rate) if tau is None else ("nonexistence-b", None)
    t1 = tau1(alpha)
    special_lo = max(p_hi + (t1 + 1.0) / t1, 1.0)
    if p > p_hi:
        return "nonexistence-c", None
    if p < p_lo:
        if tau is None and special_lo < p:
            return "special-existence", t1
        return "nonexistence-a", None
    return ("unique-existence", rate) if tau is None else ("nonexistence-b", None)


def expected_zone(alpha: float, p: float, tau: float) -> int:
    """Comparison construction the audit must use for (alpha, p, tau)."""
    if alpha < ALPHA0 and tau1(alpha) < tau:
        return 1
    return 2 if tau - 2.0 * alpha < tau * p else 3


@dataclass(frozen=True)
class Op:
    """One command line plus what the checker needs to judge it.

    ``stratum`` names the draw the operation came from.  ``may_fail``
    lists the exit codes (and "check" for an out-of-tolerance result)
    that are documented defects for that stratum; any other failure is
    unexpected and makes the run incorrect.  ``timed`` is False for
    the solve panel, which runs after the timed window."""

    kind: str
    argv: tuple
    stratum: str
    params: dict = field(default_factory=dict)
    may_fail: tuple = ()
    timed: bool = True

    @property
    def key(self) -> tuple:
        """(alpha, grid) pair the operation's operator work depends on."""
        grid = (N_PER_SIDE, GRADING, DELTA) if self.kind in ("solve", "audit") else None
        return (self.params.get("alpha"), grid)


def _r(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _plain_alpha(rng: random.Random, lo: float, hi: float) -> float:
    """alpha uniform on (lo, hi) but at least 1e-3 from alpha0; the band
    around alpha0 belongs to the strata that expect BracketFailure."""
    while True:
        alpha = rng.uniform(lo, hi)
        if abs(alpha - ALPHA0) >= 1e-3:
            return alpha


# ---------------------------------------------------------------------------
# solve


def _solve_op(alpha, p, stratum, may_fail=(), timed=True):
    argv = ("solve", "--alpha", _r(alpha), "--p", _r(p),
            "--schedule", SCHEDULE, "--no-timestamp")
    return Op("solve", argv, stratum, {"alpha": alpha, "p": p},
              may_fail, timed)


# One instance per failure mode of solve over the regime, each taken from
# the grid above: (alpha, p, exit code or "check", what goes wrong).
SOLVE_PANEL = (
    (0.9, 3.8, 3, "NewtonStall: damping floor reached"),
    (0.05, 1.1056, 3, "MonotoneViolation: iterate decreased"),
    (0.35, 3.17, 2, "BadConfig: sub-solution below the blow-up threshold"),
    (0.15, 1.3129, "check", "fitted rate -0.80 against -0.96"),
)


def _solve_ops(rng: random.Random, n_timed: int) -> list:
    ops = [_solve_op(a, p, "anchor") for a, p in SOLVE_ANCHORS]
    used = {a for a, _ in SOLVE_ANCHORS}
    while len(ops) < n_timed:
        if len(ops) % 2 == 0:
            # neighbour of (0.5, 3): same p, alpha within 0.01 of alpha0
            alpha, stratum = _plain_alpha(rng, 0.49, 0.51), "near-anchor-0.5"
            p = 3.0
        else:
            # neighbour of (0.25, 1.75): p at the window midpoint
            alpha, stratum = rng.uniform(0.22, 0.28), "near-anchor-0.25"
            p = 0.5 * sum(window(alpha))
        if alpha in used:
            continue
        used.add(alpha)
        ops.append(_solve_op(alpha, p, stratum))
    return ops + [_solve_op(alpha, p, "panel", may_fail=(code,), timed=False)
                  for alpha, p, code, _ in SOLVE_PANEL]


# ---------------------------------------------------------------------------
# specfun


def _p_off_edges(rng, alpha):
    """p anywhere from just above 1 to past the window top."""
    p_lo, p_hi = window(alpha)
    top = p_hi * 1.2 if math.isfinite(p_hi) else p_lo + 3.0
    while True:
        p = rng.uniform(1.0, min(top, 40.0))
        if p > 1.0 + 1e-6 and abs(p - p_lo) > 1e-6 * p_lo and (
                not math.isfinite(p_hi) or abs(p - p_hi) > 1e-6 * p_hi):
            return p


def _classify(alpha, p, tau, stratum, may_fail=()):
    argv = ["classify", "--alpha", _r(alpha), "--p", _r(p)]
    if tau is not None:
        argv.append(f"--tau={_r(tau)}")
    return Op("classify", tuple(argv), stratum,
              {"alpha": alpha, "p": p, "tau": tau}, may_fail)


def _near_alpha0(rng, side, lo=1.5e-6):
    """alpha at a log-uniform distance lo .. 1e-3 from alpha0 on the
    given side."""
    return ALPHA0 + side * _log_uniform(rng, lo, 1e-3)


def _specfun_slot(rng, slot, half, odd):
    """One query of the given slot.  ``half`` picks the side of alpha0
    for the plain draws: below it classify and critical also root-find
    tau1 and take about twenty times longer, so the two sides alternate
    instead of being left to chance.  ``odd`` tells the two cycles of a
    block apart; the slots holding documented defects draw from the
    failing range in one cycle and from the passing range next to it in
    the other, so every block has the same failures whatever the seed."""
    # plain specfun rows stop at 0.975; slot 8 holds the rows above
    top = 0.975 if slot == 3 else 0.99
    alpha = _plain_alpha(rng, *((0.05, ALPHA0), (ALPHA0, top))[half])
    if slot == 0:
        return _classify(alpha, _p_off_edges(rng, alpha), None, "classify")
    if slot == 1:
        return _classify(alpha, _p_off_edges(rng, alpha),
                         rng.uniform(-0.99, -0.01), "classify-tau")
    if slot == 2:
        argv = ("critical", "--alpha", _r(alpha), "--no-timestamp")
        return Op("critical", argv, "critical", {"alpha": alpha})
    if slot == 3:
        argv = ("specfun", "--alpha", _r(alpha), "--tau=-0.9:0", "--step", "0.1")
        return Op("specfun", argv, "specfun-row", {"alpha": alpha})
    if slot == 4:
        # p within a relative 1e-6 .. 1e-2 of a window edge, either side.
        # The top edge is used only up to alpha 0.45: closer to alpha0 the
        # root finder's 1e-8 tolerance on tau1 moves p_hi by more than 1e-6.
        p_lo, p_hi = window(alpha)
        edge = p_hi if alpha < 0.45 and rng.random() < 0.5 else p_lo
        p = edge * (1.0 + rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-6, 1e-2))
        return _classify(alpha, p, None, "classify-edge")
    if slot == 5:
        # Just below alpha0 the package raises BracketFailure (exit 3)
        # when tau1 = 2*alpha - 1 lies inside the root finder's floor gap:
        # for distances from about 1.1e-9 to 7.5e-7.  The failing draw
        # keeps inside 1e-8 .. 5e-7, the passing one beyond 1.5e-6.
        if odd:
            alpha = _near_alpha0(rng, -1.0)
            p = rng.uniform(1.0, 2.0) + 2.0 * alpha
            return _classify(alpha, p, None, "classify-below-alpha0")
        alpha = ALPHA0 - _log_uniform(rng, 1e-8, 5e-7)
        p = rng.uniform(1.0, 2.0) + 2.0 * alpha
        return _classify(alpha, p, None, "classify-alpha0-gap", may_fail=(3,))
    if slot == 6:
        alpha = _near_alpha0(rng, 1.0, 1e-9)
        argv = ("critical", "--alpha", _r(alpha), "--no-timestamp")
        return Op("critical", argv, "critical-above-alpha0", {"alpha": alpha})
    if slot == 7:
        # Below alpha of about 0.0232 the kernel tail decays too slowly
        # for the quadrature's tail cut-off and T_alpha raises
        # NoConvergence (exit 3).  The failing draw is log-uniform on
        # (0.005, 0.02), the passing one on (0.027, 0.05).  The query is
        # classify, not critical: for alpha in about (0.0287, 0.0294)
        # critical spends minutes in find_tau0 (its integrations run to
        # the 2**20 subdivision budget), longer than a whole run may take.
        if odd:
            alpha = _log_uniform(rng, 0.005, 0.02)
            return _classify(alpha, _p_off_edges(rng, alpha), None,
                             "classify-small-alpha-tail", may_fail=(3,))
        alpha = _log_uniform(rng, 0.027, 0.05)
        return _classify(alpha, _p_off_edges(rng, alpha), None,
                         "classify-small-alpha")
    # slot 8: from alpha 0.978 up the cells lose digits (T(0.99) is 0.8%
    # off its closed form, c(0.98, -0.9) 5e-5 relative off the oracle);
    # up to 0.975 every row passes
    alpha = rng.uniform(0.98, 0.99)
    argv = ("specfun", "--alpha", _r(alpha), "--tau=-0.9:0", "--step", "0.1")
    return Op("specfun", argv, "specfun-row-near-1", {"alpha": alpha},
              may_fail=("check",))


# A block is two cycles.  Each cycle has three plain classify queries,
# one with a rate, one near a window edge, one just below alpha0, one at
# small alpha, two critical reports (plain and just above alpha0) and
# one specfun row; the second cycle adds a row near alpha = 1.  Plain
# draws take alpha in (0.05, 0.99).  A block holds three documented
# failures: BracketFailure just below alpha0 in the first cycle,
# NoConvergence at small alpha and the near-1 row's check in the second.
_SPECFUN_CYCLE = (0, 1, 2, 3, 4, 0, 5, 0, 6, 7)
# The side of alpha0 alternates along a cycle and flips in the second.
SPECFUN_BLOCK = tuple(
    (slot, (i + odd) % 2, odd)
    for odd in (False, True) for i, slot in enumerate(_SPECFUN_CYCLE)
) + ((8, 1, True),)


def _specfun_ops(rng, n_blocks):
    return [_specfun_slot(rng, slot, half, odd)
            for _ in range(n_blocks) for slot, half, odd in SPECFUN_BLOCK]


# ---------------------------------------------------------------------------
# audit


def _audit_instance(rng, alpha, zone):
    """(p, tau) for a nonexistence instance of the requested zone, kept
    at least 0.02 in tau from tau1 and 5% in p from the zone-2/3 split."""
    t1 = tau1(alpha) if alpha < ALPHA0 else -1.0
    if zone == 1:
        tau = rng.uniform(t1 + 0.02, -0.05)
        p_tau = 1.0 - 2.0 * alpha / tau
        while True:
            p = rng.uniform(1.05, 4.0)
            if abs(p - p_tau) > 0.05 * p_tau:
                return p, tau
    tau = rng.uniform(-0.95, -0.05 if alpha >= ALPHA0 else t1 - 0.02)
    p_tau = 1.0 - 2.0 * alpha / tau
    if zone == 2:
        return rng.uniform(1.0 + 0.05 * (p_tau - 1.0), p_tau / 1.05), tau
    return rng.uniform(p_tau * 1.05, p_tau + 3.0), tau


# (alpha, zone) per slot; four alphas, so most operations share their
# (alpha, grid) pair with an earlier one.  Below alpha0 an audit also
# root-finds tau1 and takes about a third longer; six of the nine slots
# are below, so the median operation falls inside the slower group
# instead of between the two.
_AUDIT_CYCLE = ((0.25, 1), (0.6, 2), (0.35, 1), (0.35, 2), (0.8, 3),
                (0.25, 3), (0.35, 3), (0.6, 3), (0.25, 2))


def _audit_ops(rng, n):
    ops = []
    for i in range(n):
        alpha, zone = _AUDIT_CYCLE[i % len(_AUDIT_CYCLE)]
        p, tau = _audit_instance(rng, alpha, zone)
        argv = ("audit", "--alpha", _r(alpha), "--p", _r(p), f"--tau={_r(tau)}",
                "--no-timestamp")
        ops.append(Op("audit", argv, f"zone-{zone}",
                      {"alpha": alpha, "p": p, "tau": tau}))
    return ops


# ---------------------------------------------------------------------------


# (operations in a block, seconds a block takes on the reference
# machine: 2-core Xeon, OpenBLAS with 2 threads).  A block has the same
# mix of strata in every run; the run reports its median block.
BLOCKS = {"solve": (2, 7.5), "specfun": (len(SPECFUN_BLOCK), 3.9),
          "audit": (3, 3.1)}


def generate(workload: str, seed: int, seconds: float) -> list:
    """The workload's operations for ``seed``: the timed operations of as
    many blocks as take ``seconds`` on the reference machine (at least
    one), then (solve only) the panel."""
    rng = random.Random(f"{workload}:{seed}")
    size, block_seconds = BLOCKS[workload]
    blocks = max(1, round(seconds / block_seconds))
    if workload == "solve":
        return _solve_ops(rng, size * blocks)
    if workload == "specfun":
        return _specfun_ops(rng, blocks)
    return _audit_ops(rng, size * blocks)


def reuse_frac(ops: list) -> float:
    """Share of operations whose (alpha, grid) pair an earlier one had."""
    seen, repeats = set(), 0
    for op in ops:
        repeats += op.key in seen
        seen.add(op.key)
    return repeats / len(ops) if ops else 0.0

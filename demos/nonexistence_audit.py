"""Residual-sign audits for the three nonexistence zones.

Each instance prescribes a blow-up rate tau that the theory rules out
for its (alpha, p); the audit certifies the discrete comparison-function
inequality that excludes it:

  zone 1 — shallow rate below the critical order: a profile plus a fixed
           torsion multiple is a super-solution for every scale at once;
  zone 2 — operator decay beats the absorption power: scaled profile
           minus a torsion multiple is a sub-solution;
  zone 3 — absorption power beats the operator decay: scaled profile
           plus a torsion multiple is a super-solution.
"""

import json

from fracblow import audit_nonexistence, build_graded

INSTANCES = (
    (0.25, 1.3, -0.3),
    (0.6, 3.0, -0.4),
    (0.6, 3.0, -0.8),
)


def main():
    grid = build_graded(n_per_side=512, grading_exponent=2.4)
    for alpha, p, tau in INSTANCES:
        audit = audit_nonexistence(alpha, grid, p, tau)
        print(f"alpha={alpha} p={p} tau={tau} -> zone {audit.zone}")
        print(json.dumps(audit.as_dict(), indent=2, sort_keys=True))
        print()


if __name__ == "__main__":
    main()

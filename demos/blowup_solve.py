"""End-to-end blow-up solve with rate recovery.

Builds a graded grid, constructs the default ordered sub/super-solution
pair for (alpha, p) = (0.5, 3), solves the one level that leaves out the
core {D <= 2**-20} by Newton from the sub-solution doubled on the band
(the excluded core stays frozen at the sub-solution), and fits the
blow-up exponent of the computed solution against the distance to the
singular interior point.  The fitted exponent should approach the
predicted rate -2*alpha/(p-1) = -0.5.
"""

import json

from fracblow import (
    ProblemSpec,
    Zero,
    assemble,
    build_graded,
    default_sub_super,
    fit_rate,
    solve_blowup,
)

ALPHA = 0.5
P = 3.0


def main():
    grid = build_graded(n_per_side=512, grading_exponent=2.4)
    matrix = assemble(ALPHA, grid, Zero())   # shared by every step below
    sub, sup = default_sub_super(matrix, P)
    spec = ProblemSpec(matrix=matrix, p=P, sub=sub, super=sup)

    report = solve_blowup(spec, 2 ** 20)
    print("solve report:")
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))

    predicted = -2.0 * ALPHA / (P - 1.0)
    for window in ((0.02, 0.1), (0.01, 0.05)):
        fit = fit_rate(report.final, window)
        print(f"window {window}: exponent {fit.exponent:+.4f} "
              f"(predicted {predicted:+.4f}), amplitude {fit.amplitude:.4f}, "
              f"r^2 {fit.residual_r2:.6f}")


if __name__ == "__main__":
    main()

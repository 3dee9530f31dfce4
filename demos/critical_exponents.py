"""Locate the critical order and the per-order critical rates.

Prints the zero of the kernel-derivative integral T, then for a few
orders the zeros tau0 (one-sided constant) and tau1 (two-sided constant,
present only below the critical order) together with the exponent window
in which a unique blow-up solution exists.
"""

from fracblow import existence_window, find_alpha0, find_tau0, find_tau1
from fracblow.specfun import T_alpha


def main():
    alpha0 = find_alpha0()
    print(f"critical order alpha0 = {alpha0:.8f}")
    print()
    print(f"{'alpha':>6} {'T':>10} {'tau0':>10} {'tau1':>10} "
          f"{'existence window for p':>24}")
    for alpha in (0.1, 0.2, 0.3, 0.4, 0.45, 0.6, 0.75, 0.9):
        t_val = T_alpha(alpha)
        tau0 = find_tau0(alpha)
        tau1 = find_tau1(alpha) if alpha < alpha0 else None
        p_lo, p_hi = existence_window(alpha)
        tau1_s = f"{tau1:10.6f}" if tau1 is not None else f"{'—':>10}"
        print(f"{alpha:6.2f} {t_val:10.5f} {tau0:10.6f} {tau1_s} "
              f"({p_lo:.4f}, {p_hi:.4f})")
    print()
    print("below alpha0 the window top is finite (rate tau1 caps it);")
    print("at and above alpha0 every p above 1+2*alpha admits the solution.")


if __name__ == "__main__":
    main()

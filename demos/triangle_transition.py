"""Sweep the symmetric three-point family through its causal transition.

Three points carry equal weights 2/3 and planar Pauli vectors of common
length v arranged at 120 degrees.  The chain between any two points has a
closed-form root pair: real (timelike) for small v, complex-conjugate
(spacelike) beyond v = 4 sqrt(3)/9.  The sweep prints the roots, the
critical action and the constraint along the family, then brackets the
transition and evaluates the constraint threshold there.

Run:  python3 demos/triangle_transition.py
"""

import numpy as np

from dstlab.action import action_and_constraint
from dstlab.causal import classify
from dstlab.correlation import (
    TRIANGLE_CAUSAL_THRESHOLD,
    correlation_chain_roots,
    triangle_family,
    triangle_projector,
)


def pair_roots(v):
    fam = triangle_family(v)
    return correlation_chain_roots(
        fam.rho[0], fam.vectors[0], fam.rho[1], fam.vectors[1]
    )


def main():
    threshold = TRIANGLE_CAUSAL_THRESHOLD
    print("symmetric three-point family, rho = 2/3, |v| swept upward")
    print(f"predicted transition at v = 4*sqrt(3)/9 = {threshold:.9f}\n")

    header = f"{'v':>8} {'Re l+':>10} {'Im l+':>10} {'Re l-':>10} {'Im l-':>10}  {'class':<11} {'S_crit':>9} {'T':>9}"
    print(header)
    for v in np.linspace(2.0 / 3.0, 0.9, 15):
        lp, lm = pair_roots(v)
        cls = classify(np.array([lp, lm])).name.lower()
        s, t = action_and_constraint(triangle_projector(v), 0.5)
        print(
            f"{v:8.4f} {lp.real:10.5f} {lp.imag:10.5f} {lm.real:10.5f} "
            f"{lm.imag:10.5f}  {cls:<11} {s:9.5f} {t:9.5f}"
        )

    # bisect the squared root gap; its sign tracks the discriminant
    lo, hi = 0.70, 0.83
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lp, lm = pair_roots(mid)
        if (complex(lp - lm) ** 2).real > 0.0:
            lo = mid
        else:
            hi = mid
    found = 0.5 * (lo + hi)
    print(f"\nbisection puts the transition at v = {found:.12f}")
    print(f"closed-form value              v = {threshold:.12f}")

    t_star = action_and_constraint(triangle_projector(threshold), 0.5)[1]
    print(f"\nconstraint at the transition: T = {t_star:.12f}  (68/81 = {68/81:.12f})")
    print("spacelike minimizers only become reachable once kappa exceeds this level")


if __name__ == "__main__":
    main()

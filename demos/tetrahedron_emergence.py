"""Minimize the four-point action and watch a regular tetrahedron appear.

Nothing in the setup mentions simplices: two particles spread over four
points, critical multiplier, random starts.  The minimizer's local
correlation matrices nevertheless carry Pauli vectors pointing at the
vertices of a regular tetrahedron, with every normalized pairwise dot
product at -1/3 and all occupation weights at 1/2.

Run:  python3 demos/tetrahedron_emergence.py   (about 2 s)
"""

import numpy as np

from dstlab import DiscreteSpacetime
from dstlab.correlation import geometry_diagnostics, local_correlations
from dstlab.solver import SolverConfig, minimize


def main():
    m = 4
    cfg = SolverConfig(mode="auxiliary", mu=0.5, seeds=tuple(range(8)))
    res = minimize(DiscreteSpacetime(1, m), 2, cfg)
    print(f"solver: {len(cfg.seeds)} seeds, best = {res.seed}, status = {res.status}")
    print(f"action S = {res.action:.10f}  (1/6 = {1/6:.10f})")
    print(f"stationarity residual = {res.residual:.2e}\n")

    corr = local_correlations(res.projector)
    print("occupation weights rho_x:", np.round(corr.rho, 6))

    units = corr.vectors / corr.lengths()[:, None]
    dots = units @ units.T
    print("\nnormalized Pauli-vector dot products (target -1/3 off-diagonal):")
    for row in dots:
        print("  " + " ".join(f"{d:8.4f}" for d in row))

    rep = geometry_diagnostics(corr)
    print(f"\nvector lengths: {np.round(rep['lengths'], 6)}  (2/m = {2/m})")
    print(f"worst deviation from a regular simplex: {rep['simplex_error']:.2e}")
    print(f"minimal pairwise angle: {np.degrees(rep['min_angle']):.2f} deg "
          "(109.47 deg for a regular tetrahedron)")


if __name__ == "__main__":
    main()

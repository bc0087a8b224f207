"""The benchmark's workloads: the `dstlab` commands one pass runs, and their checks.

Every pass goes through the public entry point ``dstlab.cli.main``.  A
workload's ``prepare`` writes its config files and returns the argument
lists of one pass; its ``check`` reads the artifacts a pass wrote and returns
the list of failed checks (empty when the pass is correct).  The checks
mirror the acceptance gate; solver statuses are recorded, not required.
"""

import csv
import json
import math
import random
from dataclasses import dataclass

import numpy as np

TETRA_SEEDS = tuple(range(8))  # the m=4 row of `dstlab reproduce --figure fig1-2`
TRIANGLE_SEEDS = tuple(range(4))  # test_constrained_triangle_near_threshold
TRIANGLE_KAPPA = 0.85
LATTICE_SCANS = 4  # one fig5 scan is under a second; a pass repeats it
SMOKE_MAX_ITER = 15


def seed_list(base, seed, offset):
    """The gate's seed list shifted by ``offset`` lists, in an order drawn from ``seed``.

    The set of solver seeds depends only on ``offset``: the time of one solve
    varies up to tenfold between solver seeds, so a set drawn from ``seed``
    would make every timing depend on which slow seeds it happened to hold.
    """
    seeds = [s + offset * len(base) for s in base]
    random.Random(seed).shuffle(seeds)
    return seeds


def _write_config(path, config):
    path.write_text(json.dumps(config, indent=2, sort_keys=True))
    return str(path)


def _read_pauli_csv(outdir):
    with open(outdir / "pauli_vectors.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    rho = np.array([float(r["rho"]) for r in rows])
    vectors = np.array([[float(r[k]) for k in ("v1", "v2", "v3")] for r in rows])
    return rho, vectors


@dataclass(frozen=True)
class Workload:
    name: str
    why: str

    def prepare(self, workdir, seed, offset, smoke=False):
        raise NotImplementedError

    def check(self, outdirs):
        raise NotImplementedError


class Tetra(Workload):
    def prepare(self, workdir, seed, offset, smoke=False):
        params = {"m": 4}
        if smoke:
            params["max_iter"] = SMOKE_MAX_ITER
        config = {
            "subcommand": "pauli-vectors",
            "params": params,
            "seeds": seed_list(TETRA_SEEDS[:1] if smoke else TETRA_SEEDS, seed, offset),
        }
        path = _write_config(workdir / "tetra.json", config)
        return [["pauli-vectors", "--config", path, "--out", str(workdir / "out0")]]

    def check(self, outdirs):
        (out,) = outdirs
        problems = []
        result = json.loads((out / "result.json").read_text())
        gap = abs(result["action"] - 1.0 / 6.0)
        if not gap <= 1e-9:
            problems.append(f"|S - 1/6| = {gap:.3e} > 1e-9")
        rho, vectors = _read_pauli_csv(out)
        rho_dev = float(np.max(np.abs(rho - 0.5)))
        if not rho_dev <= 1e-3:
            problems.append(f"rho deviates from 1/2 by {rho_dev:.3e}")
        units = vectors / np.linalg.norm(vectors, axis=1)[:, None]
        dots = (units @ units.T)[np.triu_indices(4, k=1)]
        dot_dev = float(np.max(np.abs(dots + 1.0 / 3.0)))
        if not dot_dev <= 0.05:
            problems.append(f"pair dots deviate from -1/3 by {dot_dev:.3f}")
        return problems


class TriangleKappa(Workload):
    def prepare(self, workdir, seed, offset, smoke=False):
        params = {"n": 1, "f": 2, "m": 3, "mode": "constrained", "kappa": TRIANGLE_KAPPA}
        if smoke:
            params["max_iter"] = SMOKE_MAX_ITER
        config = {
            "subcommand": "minimize",
            "params": params,
            "seeds": seed_list(TRIANGLE_SEEDS[:1] if smoke else TRIANGLE_SEEDS,
                               seed, offset),
        }
        path = _write_config(workdir / "triangle.json", config)
        return [["minimize", "--config", path, "--out", str(workdir / "out0")]]

    def check(self, outdirs):
        from dstlab.causal import CausalClass, causal_graph
        from dstlab.core import DiscreteSpacetime
        from dstlab.correlation import (
            TRIANGLE_CAUSAL_THRESHOLD,
            LocalCorrelation,
            projector_from_correlations,
        )
        from dstlab.solver import lagrange_multiplier_estimate

        (out,) = outdirs
        problems = []
        result = json.loads((out / "result.json").read_text())
        geometry = json.loads((out / "geometry.json").read_text())
        gap = abs(result["constraint"] - TRIANGLE_KAPPA)
        if not gap < 1e-6:
            problems.append(f"|T - kappa| = {gap:.3e} >= 1e-6")
        if not geometry["length_mean"] > TRIANGLE_CAUSAL_THRESHOLD:
            problems.append(
                f"length mean {geometry['length_mean']:.6f} at or below threshold")
        if not geometry["length_spread"] < 0.02:
            problems.append(f"length spread {geometry['length_spread']:.3e} >= 0.02")
        multiplier = result["multiplier"]
        if not multiplier > 0.5:
            problems.append(f"penalty multiplier {multiplier:.4f} <= 0.5")
        # the artifacts hold the local correlations; a projector realizing
        # them has the same chain spectra and the same multiplier fit
        rho, vectors = _read_pauli_csv(out)
        proj = projector_from_correlations(
            DiscreteSpacetime(1, 3), LocalCorrelation(rho=rho, vectors=vectors)
        )
        off = causal_graph(proj).off_diagonal_class()
        if off is not CausalClass.SPACELIKE:
            problems.append(f"off-diagonal causal class {off}, expected spacelike")
        est = lagrange_multiplier_estimate(proj)
        if not (math.isfinite(est.value) and abs(est.value - multiplier) < 0.05):
            problems.append(f"multiplier fit {est.value:.4f} vs penalty {multiplier:.4f}")
        if not est.residual < 1e-2:
            problems.append(f"multiplier fit residual {est.residual:.3e} >= 1e-2")
        return problems


class LatticeFig5(Workload):
    def prepare(self, workdir, seed, offset, smoke=False):
        if smoke:
            config = {
                "subcommand": "lattice",
                "params": {
                    "n_t": 8,
                    "n_r": 6,
                    "states": [{"omega": -1, "k": 1}, {"omega": -2, "k": 2}],
                    "scan": {"start": -2.5, "stop": 2.5, "num": 11},
                },
                "seeds": [],
            }
            path = _write_config(workdir / "lattice.json", config)
            return [["lattice", "--config", path, "--out", str(workdir / "out0")]]
        return [
            ["reproduce", "--figure", "fig5", "--out", str(workdir / f"out{k}")]
            for k in range(LATTICE_SCANS)
        ]

    def check(self, outdirs):
        problems = []
        for out in outdirs:
            minima = json.loads((out / "fig5_minima.json").read_text())
            wells = sorted(
                (round(t1, 9), round(t2, 9)) for t1, t2, _ in minima["global_minima"])
            if wells != [(-1.75, -0.75), (1.75, 0.75)]:
                problems.append(f"{out.name}: global minima at {wells}")
            origin = minima["origin"]
            if not origin["is_local_minimum"] or origin["is_global_minimum"]:
                problems.append(f"{out.name}: origin is not a strictly local minimum")
            with open(out / "fig5_surface.csv", newline="") as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != 61 * 61:
                problems.append(f"{out.name}: surface has {rows} rows, expected 3721")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Tetra(
            "tetra",
            "m=4 Pauli vectors, seeds 0-7: zero-root chains send most gradient "
            "time to the finite-difference fallback",
        ),
        TriangleKappa(
            "triangle_kappa",
            "constrained triangle at kappa=0.85: penalty rounds spend time in value "
            "passes, transports and invariant checks, almost no FD",
        ),
        LatticeFig5(
            "lattice_fig5",
            "fig5 lattice landscape: batched 4x4 chain eigvals only, no solver or "
            "action calls",
        ),
    )
}

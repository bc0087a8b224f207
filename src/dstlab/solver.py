"""Descent on the projector orbit for the auxiliary and constrained actions.

The unknown is a fermionic projector; the search space is its indefinite-
unitary orbit, walked by conjugating the image basis with exp(i eta B) for
self-adjoint directions B.  The first variation of the auxiliary action along
such a path is 4i Tr([P,Q] B), so writing B = S H with H Hermitian (which
makes B self-adjoint in the indefinite sense) turns steepest descent into a
Euclidean problem: the Hermitian gradient is K = 4i [P,Q] S, the normalized
direction is B = -S K / ||K||_F, and the directional derivative equals
-||K||_F, strictly negative until the Euler-Lagrange commutator vanishes.
An Armijo backtracking line search then guarantees monotone decrease.

Constrained minimization (fix the spectral-weight constraint T = kappa and
minimize the plain action) runs the same descent on the penalty function
S + nu (T-kappa) + w (T-kappa)^2, whose gradient operator is the auxiliary Q
at the effective weight mu_eff = -(nu + 2 w (T-kappa)); the multiplier nu is
updated between rounds and the penalty weight grows geometrically until the
constraint holds.  The Lagrange multiplier of the constrained problem is
recovered as -nu, and independently by least squares on directional
derivatives.

Gradient consistency is asserted against finite differences at the first
iterate of every run, and every accepted iterate is kept an exact projector
by re-orthonormalizing the basis whenever its Gram matrix drifts.  The drift
check reads the Gram deviation each projector measured at construction
(``FermionicProjector.gram_dev``).  The penalty and feasibility gradients
reuse the T that the line search computed for the accepted trial, so an
iterate costs one constraint pass.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .action import (
    action,
    action_and_constraint,
    chain_blocks,
    chain_roots,
    constraint_q_kernel,
    constraint_value,
    el_residual,
    first_variation,
    kernel_blocks,
    q_kernel,
    spectral_weight,
    transported,
)
from .core import random_direction, random_projector
from .tolerances import DEFAULT

__all__ = [
    "InfeasibleKappa",
    "SolverConfig",
    "SolverResult",
    "minimize",
    "MultiplierEstimate",
    "lagrange_multiplier_estimate",
    "landscape_scan",
]


class InfeasibleKappa(ValueError):
    """The requested constraint level is not attained by any trial projector."""


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "auxiliary"  # "auxiliary" | "constrained"
    mu: float = 0.5
    kappa: float | None = None
    seeds: tuple = tuple(range(32))
    max_iter: int = 2000
    initial_step: float = 1.0
    max_step: float = 8.0
    armijo: float = 1e-4
    step_shrink: float = 0.5
    step_grow: float = 2.0
    min_step: float = 1e-14
    residual_tol: float = 1e-8
    stall_window: int = 50
    stall_tol: float = 1e-12
    divergence_floor: float = -1e6
    boost_scale: float = 1.0
    check_first_step: bool = True
    # constrained mode
    penalty_start: float = 10.0
    penalty_growth: float = 10.0
    outer_rounds: int = 8
    constraint_tol: float = 1e-6

    def __post_init__(self):
        if self.mode not in ("auxiliary", "constrained"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "constrained" and self.kappa is None:
            raise ValueError("constrained mode needs a kappa level")
        object.__setattr__(self, "seeds", tuple(self.seeds))
        for name in ("residual_tol", "constraint_tol", "initial_step", "armijo",
                     "min_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # the Armijo search ends only once the step has shrunk below min_step
        if not 0 < self.step_shrink < 1:
            raise ValueError("step_shrink must lie in (0, 1)")
        if self.outer_rounds < 1:
            raise ValueError("outer_rounds must be at least 1")


@dataclass
class SolverResult:
    mode: str
    projector: object
    action: float
    constraint: float
    multiplier: float
    residual: float
    gradient_norm: float
    status: str  # "converged" | "max_iterations" | "divergence"
    seed: int
    per_seed: list
    traces: dict  # seed -> list of per-round objective traces
    wall_time: float
    config: SolverConfig


def _objective_derivative_fd(proj, value, b, step=1e-6):
    plus = value(transported(proj, b, step))
    minus = value(transported(proj, b, -step))
    return (plus - minus) / (2.0 * step)


def _check_slope(proj, value, b, slope, tol):
    fd = _objective_derivative_fd(proj, value, b, step=tol.fd_step)
    rel = abs(fd - slope) / max(abs(fd), abs(slope))
    if rel > tol.grad_check:
        raise RuntimeError(
            f"first-iterate derivative check failed: analytic {slope:.6e}, "
            f"finite difference {fd:.6e}, relative error {rel:.2e}"
        )


def _descend(proj, value, qmat, cfg, tol, check_first=False):
    """Backtracking descent of one scalar objective from one start."""
    signs = proj.space.signs
    current = value(proj)
    trace = [current]
    step = cfg.initial_step
    status = "max_iterations"
    grad_norm = math.inf
    for _ in range(cfg.max_iter):
        if current < cfg.divergence_floor:
            status = "divergence"
            break
        q = qmat(proj)
        p = proj.matrix()
        comm = p @ q - q @ p
        grad_norm = 4.0 * float(np.linalg.norm(comm))
        if grad_norm <= cfg.residual_tol:
            status = "converged"
            break
        # B = -S K/||K|| with K = 4i [P,Q] S; symmetrizing K kills the
        # rounding-level non-Hermitian part so exp(i eta B) stays exactly
        # Gram-preserving even when ||Q|| >> ||[P,Q]|| (late penalty rounds)
        k = (4j / grad_norm) * (comm * signs[None, :])
        k = 0.5 * (k + k.conj().T)
        b = -signs[:, None] * k
        slope = first_variation(comm, b)
        if check_first and abs(slope) > 1e-6 * (1.0 + abs(current)):
            _check_slope(proj, value, b, slope, tol)
            check_first = False
        accepted = False
        while step >= cfg.min_step:
            trial = transported(proj, b, step)
            trial_value = value(trial)
            if trial_value <= current + cfg.armijo * step * slope:
                proj, current = trial, trial_value
                accepted = True
                break
            step *= cfg.step_shrink
        if not accepted:
            break  # line search hit the numerical floor; keep best iterate
        trace.append(current)
        if (
            len(trace) > cfg.stall_window
            and trace[-1 - cfg.stall_window] - current
            <= cfg.stall_tol * (1.0 + abs(current))
        ):
            break  # the descent has flattened out below resolution
        step = min(step * cfg.step_grow, cfg.max_step)
        if proj.gram_dev > tol.gram:
            proj = proj.renormalized()
    if proj.gram_dev > 1e-14:
        proj = proj.renormalized()
    return {
        "projector": proj,
        "value": current,
        "status": status,
        "gradient_norm": grad_norm,
        "trace": np.array(trace),
    }


def _auxiliary_objective(mu, tol):
    def value(p):
        return action(p, mu)

    def qmat(p):
        return q_kernel(p, mu, tol)

    return value, qmat


class _LastConstraint:
    """T of the projector an objective's ``value`` evaluated last.

    The line search evaluates every trial, so when ``qmat`` asks for the T of
    the accepted iterate it is already known.  Projectors are immutable, so
    identity decides; any other projector gets a pass of its own.
    """

    def __init__(self):
        self.projector, self.t = None, 0.0

    def store(self, p, t):
        self.projector, self.t = p, t

    def __call__(self, p):
        return self.t if p is self.projector else constraint_value(p)


def _penalty_objective(kappa, nu, w, tol):
    last = _LastConstraint()

    def value(p):
        s0, t = action_and_constraint(p, 0.0)
        last.store(p, t)
        d = t - kappa
        return s0 + nu * d + w * d * d

    def qmat(p):
        d = last(p) - kappa
        return q_kernel(p, -(nu + 2.0 * w * d), tol)

    return value, qmat


def _feasibility_objective(kappa, tol):
    last = _LastConstraint()

    def value(p):
        t = constraint_value(p)
        last.store(p, t)
        d = t - kappa
        return d * d

    def qmat(p):
        d = last(p) - kappa
        return 2.0 * d * constraint_q_kernel(p, tol)

    return value, qmat


def _feasibility_precheck(space, f, cfg, tol):
    """Verify some projector reaches T = kappa, else raise InfeasibleKappa."""
    value, qmat = _feasibility_objective(cfg.kappa, tol)
    probe_cfg = replace(cfg, max_iter=400, check_first_step=False)
    threshold = max(1e-4, 10.0 * cfg.constraint_tol)
    best = math.inf
    for seed in cfg.seeds[:3] or (0,):
        start = random_projector(space, f, seed, cfg.boost_scale, tol)
        out = _descend(start, value, qmat, probe_cfg, tol)
        best = min(best, math.sqrt(max(out["value"], 0.0)))
        if best <= threshold:
            return
    raise InfeasibleKappa(
        f"no trial projector reaches the constraint level {cfg.kappa}; "
        f"best |T - kappa| = {best:.3e}"
    )


def _constrained_seed(start, cfg, tol, check_first):
    nu, w = 0.0, cfg.penalty_start
    proj = start
    segments = []
    status = "max_iterations"
    for round_idx in range(cfg.outer_rounds):
        value, qmat = _penalty_objective(cfg.kappa, nu, w, tol)
        out = _descend(
            proj, value, qmat, cfg, tol, check_first=check_first and round_idx == 0
        )
        proj = out["projector"]
        segments.append(out["trace"])
        if out["status"] == "divergence":
            status = "divergence"
            break
        d = constraint_value(proj) - cfg.kappa
        nu += 2.0 * w * d
        if abs(d) <= cfg.constraint_tol and out["status"] == "converged":
            status = "converged"
            break
        w *= cfg.penalty_growth
    s0, t = action_and_constraint(proj, 0.0)
    return {
        "projector": proj,
        "action": s0,
        "constraint": t,
        "multiplier": -nu,
        "status": status,
        "gradient_norm": out["gradient_norm"],
        "segments": segments,
    }


def minimize(space, f, config=None, tol=DEFAULT):
    """Multi-start minimization; returns the best stationary-point candidate.

    Auxiliary mode descends S_mu at fixed mu (detecting the divergence that
    occurs beyond the critical weight); constrained mode minimizes the plain
    action subject to T = kappa after verifying the level is attainable.
    The best seed is chosen deterministically: lowest action, feasible seeds
    first in constrained mode, ties broken by seed order.
    """
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    if cfg.mode == "constrained":
        _feasibility_precheck(space, f, cfg, tol)
    per_seed = []
    traces = {}
    for seed in cfg.seeds:
        start = random_projector(space, f, seed, cfg.boost_scale, tol)
        if cfg.mode == "auxiliary":
            value, qmat = _auxiliary_objective(cfg.mu, tol)
            out = _descend(start, value, qmat, cfg, tol, cfg.check_first_step)
            proj = out["projector"]
            s, t = action_and_constraint(proj, cfg.mu)
            record = {
                "seed": seed,
                "projector": proj,
                "action": s,
                "constraint": t,
                "multiplier": cfg.mu,
                "status": out["status"],
                "gradient_norm": out["gradient_norm"],
            }
            traces[seed] = [out["trace"]]
        else:
            out = _constrained_seed(start, cfg, tol, cfg.check_first_step)
            record = {"seed": seed, **{k: out[k] for k in (
                "projector", "action", "constraint", "multiplier", "status",
                "gradient_norm")}}
            traces[seed] = out["segments"]
        per_seed.append(record)

    def rank(idx_record):
        idx, rec = idx_record
        infeasible = (
            cfg.mode == "constrained"
            and abs(rec["constraint"] - cfg.kappa) > 10.0 * cfg.constraint_tol
        )
        diverged = rec["status"] == "divergence"
        return (diverged, infeasible, rec["action"], idx)

    best_idx, best = min(enumerate(per_seed), key=rank)
    if any(r["status"] == "divergence" for r in per_seed):
        status = "divergence"
    elif best["status"] == "converged":
        status = "converged"
    else:
        status = "max_iterations"
    mu_eff = best["multiplier"]
    return SolverResult(
        mode=cfg.mode,
        projector=best["projector"],
        action=best["action"],
        constraint=best["constraint"],
        multiplier=mu_eff,
        residual=el_residual(best["projector"], mu_eff, tol),
        gradient_norm=best["gradient_norm"],
        status=status,
        seed=best["seed"],
        per_seed=[{k: v for k, v in r.items() if k != "projector"} for r in per_seed],
        traces=traces,
        wall_time=time.perf_counter() - t0,
        config=cfg,
    )


@dataclass(frozen=True)
class MultiplierEstimate:
    value: float
    residual: float
    status: str  # "ok" | "inconclusive"
    directions: int
    t_stationarity: float  # ||[P, Q_T]|| / (1 + ||Q_T||)


def lagrange_multiplier_estimate(projector, directions=24, seed=0, rel_tol=1e-3,
                                 tol=DEFAULT):
    """Least-squares fit of dS = mu dT over random orbit directions.

    Recovers the Lagrange multiplier at constrained minimizers, which are the
    stationary points of the auxiliary action where the fit is well posed.
    Two failure modes are flagged inconclusive: a poor fit residual (the
    point is not stationary for any multiplier), and dT vanishing in every
    direction (the point is stationary for the constraint functional itself,
    e.g. the fully symmetric auxiliary minimizers, where the multiplier is
    undetermined and the fitted ratio would be pure noise).
    """
    space = projector.space
    qs = q_kernel(projector, 0.0, tol)
    qt = constraint_q_kernel(projector, tol)
    p = projector.matrix()
    cs = p @ qs - qs @ p
    ct = p @ qt - qt @ p
    t_stat = float(np.linalg.norm(ct)) / (1.0 + float(np.linalg.norm(qt)))
    ds = np.empty(directions)
    dt = np.empty(directions)
    for k in range(directions):
        b = random_direction(space, seed=seed + k)
        b /= np.linalg.norm(b)
        ds[k] = first_variation(cs, b)
        dt[k] = first_variation(ct, b)
    if t_stat < 1e-7:
        return MultiplierEstimate(math.nan, math.inf, "inconclusive", directions,
                                  t_stat)
    value = float(ds @ dt) / float(dt @ dt)
    residual = float(np.linalg.norm(ds - value * dt)) / max(
        np.linalg.norm(ds), 1e-300
    )
    status = "ok" if residual <= rel_tol else "inconclusive"
    return MultiplierEstimate(value, residual, status, directions, t_stat)


def landscape_scan(family, grid, mu=0.5, pair=(0, 1), tol=DEFAULT):
    """Evaluate action, constraint and chain-root data over a projector family.

    ``family`` maps a parameter value to a projector; grid points where the
    construction fails are recorded with the error message instead of data.
    The returned records carry the root pair of one off-diagonal chain (the
    ``pair`` argument) for transition plots.
    """
    from .causal import causal_graph

    records = []
    for v in np.asarray(grid, dtype=float):
        try:
            proj = family(v)
        except Exception as exc:  # noqa: BLE001 - flagged, not fatal
            records.append({"param": float(v), "error": str(exc)})
            continue
        s, t = action_and_constraint(proj, mu)
        roots = chain_roots(chain_blocks(kernel_blocks(proj)))[pair]
        graph = causal_graph(proj, tol=tol)
        off = graph.off_diagonal_class()
        records.append(
            {
                "param": float(v),
                "action": float(s),
                "constraint": float(t),
                "roots": np.sort_complex(roots),
                "chain_weight": float(spectral_weight(roots)),
                "causal_offdiag": off.value if off is not None else "mixed",
            }
        )
    return records

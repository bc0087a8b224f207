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

Both modes descend one objective, F = S_mu + nu (T-kappa) + w (T-kappa)^2,
whose gradient operator is the auxiliary Q at the effective weight
mu - nu - 2 w (T-kappa).  Auxiliary mode is one round at (mu, nu = w = 0).
Constrained minimization (fix the spectral-weight constraint T = kappa and
minimize the plain action) runs penalty rounds at (0, nu, w): the multiplier
nu is updated between rounds and the penalty weight grows geometrically until
the constraint holds.  The Lagrange multiplier of the constrained problem is
recovered as -nu, and independently by least squares on directional
derivatives.  Every seed goes through one function that runs its rounds and
returns one record; a feasibility probe on (T-kappa)^2 alone first checks
that the level is attainable.

Gradient consistency is asserted against finite differences at the first
iterate of every seed, and every accepted iterate is kept an exact projector
by re-orthonormalizing the basis whenever its Gram matrix drifts.  The drift
check reads the Gram deviation each projector measured at construction
(``FermionicProjector.gram_dev``).  The objective keeps the T of the last
projector it evaluated, so a penalty or feasibility gradient at the accepted
line-search trial makes no constraint pass of its own.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .action import (
    action,  # unused here; perfbench/tracing.py wraps it as dstlab.solver.action
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


def _check_slope(proj, value, b, slope, tol):
    h = tol.fd_step
    fd = (value(transported(proj, b, h)) - value(transported(proj, b, -h))) / (2.0 * h)
    rel = abs(fd - slope) / max(abs(fd), abs(slope))
    if rel > tol.grad_check:
        raise RuntimeError(
            f"first-iterate derivative check failed: analytic {slope:.6e}, "
            f"finite difference {fd:.6e}, relative error {rel:.2e}"
        )


def _descend(proj, value, qmat, cfg, tol, check_first=False):
    """Backtracking descent of one scalar objective from one start.

    ``exit_reason`` says why the loop ended: "converged", "divergence",
    "line_search_floor" (no trial accepted down to ``min_step``), "stalled"
    (no descent over the stall window) or "max_iterations".  ``status``
    folds the last three into "max_iterations".
    """
    signs = proj.space.signs
    current = value(proj)
    trace = [current]
    step = cfg.initial_step
    exit_reason = "max_iterations"
    grad_norm = math.inf
    for _ in range(cfg.max_iter):
        if current < cfg.divergence_floor:
            exit_reason = "divergence"
            break
        q = qmat(proj)
        p = proj.matrix()
        comm = p @ q - q @ p
        grad_norm = 4.0 * float(np.linalg.norm(comm))
        if grad_norm <= cfg.residual_tol:
            exit_reason = "converged"
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
            exit_reason = "line_search_floor"  # keep the best iterate
            break
        trace.append(current)
        if (
            len(trace) > cfg.stall_window
            and trace[-1 - cfg.stall_window] - current
            <= cfg.stall_tol * (1.0 + abs(current))
        ):
            exit_reason = "stalled"  # flattened out below resolution
            break
        step = min(step * cfg.step_grow, cfg.max_step)
        if proj.gram_dev > tol.gram:
            proj = proj.renormalized()
    if proj.gram_dev > 1e-14:
        proj = proj.renormalized()
    status = exit_reason
    if status not in ("converged", "divergence"):
        status = "max_iterations"
    return {
        "projector": proj,
        "value": current,
        "status": status,
        "exit_reason": exit_reason,
        "iterations": len(trace) - 1,
        "gradient_norm": grad_norm,
        "trace": np.array(trace),
    }


class _Objective:
    """F = S_mu + nu (T - kappa) + w (T - kappa)^2 on the projector orbit.

    Auxiliary mode descends (mu, nu = w = 0) with no kappa, a penalty round
    (0, nu, w); the feasibility probe (``feasibility=True``) keeps only
    (T - kappa)^2.  ``value`` stores the T of the projector it saw last.  The
    line search evaluates every trial, so when ``qmat`` asks about the
    accepted iterate its T is known; projectors are immutable, so identity
    decides, and any other projector gets a pass of its own.
    """

    def __init__(self, tol, mu=0.0, kappa=None, nu=0.0, w=0.0, feasibility=False):
        self.tol, self.mu, self.kappa, self.nu, self.w = tol, mu, kappa, nu, w
        self.feasibility = feasibility
        self.seen, self.t = None, 0.0

    def value(self, p):
        s, t = action_and_constraint(p, self.mu)
        if self.kappa is None:
            return s
        self.seen, self.t = p, t
        d = t - self.kappa
        return d * d if self.feasibility else s + self.nu * d + self.w * d * d

    def qmat(self, p):
        if self.kappa is None:
            return q_kernel(p, self.mu, self.tol)
        d = (self.t if p is self.seen else constraint_value(p)) - self.kappa
        if self.feasibility:
            return 2.0 * d * constraint_q_kernel(p, self.tol)
        return q_kernel(p, -(self.nu + 2.0 * self.w * d), self.tol)


def _feasibility_precheck(space, f, cfg, tol):
    """Verify some projector reaches T = kappa, else raise InfeasibleKappa."""
    probe = _Objective(tol, kappa=cfg.kappa, feasibility=True)
    probe_cfg = replace(cfg, max_iter=400)
    threshold = max(1e-4, 10.0 * cfg.constraint_tol)
    best = math.inf
    for seed in cfg.seeds[:3] or (0,):
        start = random_projector(space, f, seed, cfg.boost_scale, tol)
        out = _descend(start, probe.value, probe.qmat, probe_cfg, tol)
        best = min(best, math.sqrt(max(out["value"], 0.0)))
        if best <= threshold:
            return
    raise InfeasibleKappa(
        f"no trial projector reaches the constraint level {cfg.kappa}; "
        f"best |T - kappa| = {best:.3e}"
    )


def _solve_seed(start, cfg, tol):
    """One descent at fixed mu, or the penalty rounds of constrained mode.

    The multiplier is mu in auxiliary mode and -nu in constrained mode; the
    iterations are summed over the rounds, whose traces are returned apart.
    """
    constrained = cfg.mode == "constrained"
    nu, w = 0.0, cfg.penalty_start
    proj = start
    traces = []
    for round_idx in range(cfg.outer_rounds if constrained else 1):
        objective = (_Objective(tol, 0.0, cfg.kappa, nu, w) if constrained
                     else _Objective(tol, cfg.mu))
        out = _descend(proj, objective.value, objective.qmat, cfg, tol,
                       check_first=round_idx == 0)
        proj, status = out["projector"], out["status"]
        traces.append(out["trace"])
        if not constrained or status == "divergence":
            break
        d = constraint_value(proj) - cfg.kappa
        nu += 2.0 * w * d
        if abs(d) <= cfg.constraint_tol and status == "converged":
            break
        status = "max_iterations"
        w *= cfg.penalty_growth
    mu = -nu if constrained else cfg.mu
    s, t = action_and_constraint(proj, 0.0 if constrained else mu)
    record = {
        "projector": proj,
        "action": s,
        "constraint": t,
        "multiplier": mu,
        "status": status,
        "exit_reason": out["exit_reason"],
        "iterations": sum(len(trace) - 1 for trace in traces),
        "gradient_norm": out["gradient_norm"],
    }
    return record, traces


def minimize(space, f, config=None, tol=DEFAULT):
    """Multi-start minimization; returns the best stationary-point candidate.

    Auxiliary mode descends S_mu at fixed mu (detecting the divergence that
    occurs beyond the critical weight); constrained mode minimizes the plain
    action subject to T = kappa after verifying the level is attainable.
    The best seed is chosen deterministically: lowest action, feasible seeds
    first in constrained mode, ties broken by seed order.
    """
    cfg = config or SolverConfig()
    if cfg.mode == "constrained":
        _feasibility_precheck(space, f, cfg, tol)
    per_seed = []
    traces = {}
    for seed in cfg.seeds:
        start = random_projector(space, f, seed, cfg.boost_scale, tol)
        record, traces[seed] = _solve_seed(start, cfg, tol)
        per_seed.append({"seed": seed, **record})

    def rank(idx_record):
        idx, rec = idx_record
        infeasible = (
            cfg.mode == "constrained"
            and abs(rec["constraint"] - cfg.kappa) > 10.0 * cfg.constraint_tol
        )
        diverged = rec["status"] == "divergence"
        return (diverged, infeasible, rec["action"], idx)

    _, best = min(enumerate(per_seed), key=rank)
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

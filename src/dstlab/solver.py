"""Descent on the projector orbit for the auxiliary and constrained actions.

The unknown is a fermionic projector; the search space is its indefinite-
unitary orbit, walked by moving the image basis with the Cayley step
(I - G)^-1 (I + G), G = (i eta/2) B, for self-adjoint directions B: exactly
indefinite-unitary, with the tangent of exp(i eta B) at eta = 0
(``dstlab.action.TrialStack``).  The first variation of the auxiliary
action along such a path is 4i Tr([P,Q] B), so writing B = S H with H
Hermitian (which makes B self-adjoint in the indefinite sense) turns steepest
descent into a Euclidean problem: the Hermitian gradient is K = 4i [P,Q] S,
the normalized direction is B = -S K / ||K||_F, and the directional
derivative equals -||K||_F, strictly negative until the Euler-Lagrange
commutator vanishes.
An Armijo backtracking line search then guarantees monotone decrease, to the
rounding of F where an auxiliary descent ends (see ``_descend``).

The auxiliary descent at n = 1 takes limited-memory BFGS directions in these
Hermitian coordinates (Nocedal and Wright, Numerical Optimization, 2nd ed.,
ch. 7; on manifolds, Huang, Gallivan and Absil, SIAM J. Optim. 25, 2015).
It keeps up to MEMORY pairs (s, y): s = eta H the accepted move of B = S H
and y the change in K since, kept when Re<s,y> > 0.  The direction is
d = -H_k K by the two-loop recursion, H_0 = Re<s,y>/<y,y> of the newest
pair, with B = S d/||d||, slope Re<K,d>/||d|| and first trial
min(||d||, MAX_STEP).  The memory is cleared when that slope is above
-1e-3 ||K||, and when the signs of t^2/4 - delta over the chain pairs differ
from the last iterate's: S is kinked on that causal threshold, and pairs
that span the kink mislead.  Without the second rule the m = 8 sphere
seeds that end on the threshold ground for about a thousand iterations
more.  With an empty memory, in penalty rounds and at n >= 2 (which has no
(t, delta) for the threshold test) the direction is -K/||K||, and its first
trial is the Barzilai-Borwein (BB1) step (Barzilai and Borwein, IMA J.
Numer. Anal. 8, 1988; on orthogonality constraints, Wen and Yin, Math.
Program. 142, 2013): with s the last accepted move and y the change in K
since, the step along the unit direction is ||s||^2/Re<s,y> ||K||, capped
at MAX_STEP.  Where Re<s,y> <= 0 (no positive curvature seen) the last step
grows by STEP_GROW.
Memory in penalty rounds made the constrained triangle slower: its
searches, which end on the threshold, examined about 1.6 times as many
trials per iteration.

The backtracking steps eta, eta STEP_SHRINK, ... are known before any of them
is evaluated, so the search evaluates them in batches of s, 2s, 4s, ... trials,
s the number of steps the previous search of the descent examined (1 for its
first search), and accepts the first step in order that passes Armijo: the
iterates are bit for bit those of a search that tries one step at a time.

The seeds of a solve descend in lockstep: each seed is a generator that asks
for its gradients and trial batches, and one loop (``_lockstep``) evaluates
the batches of all live seeds as one stacked orbit step and chain pass
(``TrialStack``) valued with per-trial (mu, kappa, nu, w), and their
gradients as one stacked Q and commutator, each slice bit for bit its
one-seed evaluation.  Step control, exits, norms and multipliers stay per seed.

Both modes descend one objective, F = S_mu + nu (T-kappa) + w (T-kappa)^2,
whose gradient operator is the auxiliary Q at the effective weight
mu - nu - 2 w (T-kappa).  Auxiliary mode is one round at (mu, nu = w = 0).
Constrained minimization (fix the spectral-weight constraint T = kappa and
minimize the plain action) runs penalty rounds at (0, nu, w): the multiplier
nu is updated between rounds and the penalty weight grows geometrically until
the constraint holds.  The Lagrange multiplier of the constrained problem is
recovered as -nu, and independently as the least-squares fit of the
commutator [P, Q_S] by [P, Q_T].  Every seed goes through one function that
runs its rounds and returns one record.  A penalty that cannot reach kappa
settles at a stationary point of (T-kappa)^2 (Nocedal and Wright, Numerical
Optimization, 2nd ed., Thm. 17.2), so the seeds' own records say whether the
level is attainable.

A derivative check compares the slope along B (-||K||_F along -S K/||K||)
with a central finite difference of F along B, in each seed's first round
only (the only round in auxiliary mode), at the first iterate with
|slope| > 1e-6 (1 + |F|).  Every accepted iterate is kept an exact
projector by re-orthonormalizing the basis whenever its Gram matrix drifts.
The drift check reads the Gram deviation each projector measured at
construction (``FermionicProjector.gram_dev``).
The iterate is a chain pass (``dstlab.action.ChainPass``): the descent takes
the start's pass, moves to the accepted trial's slice of the stacked pass of
its round, and returns the last pass.  A pass holds its own constraint value
T, so the objective's value and gradient both read T - kappa off it, in either
order: the gradient makes no chain pass of its own, only a stacked copy of the
seeds' passes when several seeds ask together, and the commutator reuses the
dense P the pass read.  Only the accepted trial of a batch becomes a validated
projector; a renormalized iterate gets one pass of its own, and the multiplier
update, the next round and the seed's record read the last pass.

A run sets only the ``SolverConfig`` fields, and ``SolverConfig`` alone
checks them: a mode rejects the parameter it does not read (mu in
constrained mode, kappa in auxiliary mode), and an unset mu is the critical
weight 1/(2n) of the space solved on, for library calls and CLI configs
alike.  The step control (INITIAL_STEP, MAX_STEP, ARMIJO, STEP_SHRINK,
STEP_GROW, MIN_STEP, MEMORY), the stall test (STALL_WINDOW, STALL_TOL),
DIVERGENCE_FLOOR, the penalty schedule (PENALTY_START, PENALTY_GROWTH,
OUTER_ROUNDS, CONSTRAINT_TOL) and the multiplier fit (FIT_TOL) are module
constants, read when a solve runs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .action import (
    ChainPass,
    TrialStack,
    # action, constraint_value and transported are unused here;
    # perfbench/tracing.py wraps them as attributes of dstlab.solver
    action,
    action_and_constraint,
    constraint_q_kernel,
    constraint_value,
    critical_mu,
    el_residual,
    q_kernel,
    spectral_weight,
    transported,
)
from .core import random_projector
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


# STEP_SHRINK lies in (0, 1), so the Armijo search ends below MIN_STEP
INITIAL_STEP = 1.0
MAX_STEP = 8.0
ARMIJO = 1e-4
STEP_SHRINK = 0.5
STEP_GROW = 2.0
MIN_STEP = 1e-14
STALL_WINDOW = 50
STALL_TOL = 1e-12
DIVERGENCE_FLOOR = -1e6
PENALTY_START = 10.0
PENALTY_GROWTH = 10.0
OUTER_ROUNDS = 8  # at least one penalty round
CONSTRAINT_TOL = 1e-6
FIT_TOL = 1e-3
MEMORY = 6  # L-BFGS pairs of an auxiliary descent


class InfeasibleKappa(ValueError):
    """The requested constraint level is not attained by any trial projector."""


@dataclass(frozen=True)
class SolverConfig:
    """The settings a solve chooses, checked and defaulted here only.

    mode: "auxiliary" descends S_mu at the weight mu; "constrained"
      minimizes the plain action subject to T = kappa by penalty rounds.
    mu: the auxiliary weight.  None, the default, is the critical weight
      1/(2n) of the space that ``minimize`` solves on
      (``dstlab.action.critical_mu``).
    kappa: the constraint level; constrained mode needs it.
    seeds: the seeds of the random starts, nonempty and without repeats.
    max_iter: the iteration budget of each descent round.
    residual_tol: the gradient norm at which a descent has converged.
    boost_scale: the scale of each start's random boost
      (``dstlab.core.random_projector``).

    A mode reads only its own parameter, so mu in constrained mode and
    kappa in auxiliary mode are ValueErrors, raised after the check that
    mu, kappa, residual_tol and boost_scale are finite.
    """

    mode: str = "auxiliary"  # "auxiliary" | "constrained"
    mu: float | None = None
    kappa: float | None = None
    seeds: tuple = tuple(range(32))
    max_iter: int = 2000
    residual_tol: float = 1e-8
    boost_scale: float = 1.0

    def __post_init__(self):
        if self.mode not in ("auxiliary", "constrained"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "constrained" and self.kappa is None:
            raise ValueError("constrained mode needs a kappa level")
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.seeds:
            raise ValueError("a solve needs a nonempty seed list")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"repeated seed in {list(self.seeds)}")
        for name in ("mu", "kappa", "residual_tol", "boost_scale"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value}")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        unused = "kappa" if self.mode == "auxiliary" else "mu"
        if getattr(self, unused) is not None:
            raise ValueError(f"{unused} is unused in {self.mode} mode")


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


def _check_slope(chains, objective, b, slope):
    h = chains.tol.fd_step
    (plus, minus), _ = yield objective, chains.projector, b, [h, -h]
    fd = (plus - minus) / (2.0 * h)
    rel = abs(fd - slope) / max(abs(fd), abs(slope))
    if rel > chains.tol.grad_check:
        raise RuntimeError(
            f"first-iterate derivative check failed: analytic {slope:.6e}, "
            f"finite difference {fd:.6e}, relative error {rel:.2e}"
        )


def _backtrack(chains, objective, b, step, current, slope, size, slack=0.0):
    """Armijo backtracking from ``step`` along B, in batches of size, 2 size, ... trials.

    The steps are step, step STEP_SHRINK, ... down to ``MIN_STEP``; each
    batch is one trials request (:func:`_lockstep`).  Returns (trial,
    value, step, examined) for the first step in order that passes Armijo
    with F raised by ``slack``, with ``trial`` its pass and ``examined`` the
    steps the rule looked at up to it, or (None, current, step, examined)
    when none passes.  The batch boundaries change what is evaluated, not
    what is returned.
    """
    bound = current + slack
    examined = 0
    while step >= MIN_STEP:
        etas = []
        while len(etas) < size and step >= MIN_STEP:
            etas.append(step)
            step *= STEP_SHRINK
        values, trial = yield objective, chains.projector, b, etas
        for j, eta in enumerate(etas):
            examined += 1
            if values[j] <= bound + ARMIJO * eta * slope:
                return trial(j), float(values[j]), eta, examined
        size *= 2
    return None, current, step, examined


def _two_loop(pairs, grad):
    """-H grad by the L-BFGS two-loop recursion (Nocedal and Wright, Alg. 7.4).

    ``pairs`` holds (s, y, 1/<s, y>), oldest first, and ``grad`` is a
    gradient: flat real vectors whose dot product is Re<., .> of the
    Hermitian matrices they view.  H_0 is <s, y>/<y, y> of the newest pair.
    """
    q = -grad
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * s.dot(q)
        q -= alpha * y
        alphas.append(alpha)
    _, y, rho = pairs[-1]
    q *= 1.0 / (rho * y.dot(y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * y.dot(q)) * s
    return q


def _descend(chains, objective, cfg, check_first=False):
    """Backtracking descent of one ``_Objective`` from the pass of one start.

    A seed generator (:func:`_lockstep`).  The iterate is a ``ChainPass``;
    valuing it writes nothing onto it, and its gradient, evaluated alone,
    records its ``fd_pairs`` there (0 at n = 1).  Each pass of the loop
    asks for the iterate's one gradient (k iterations make k + 1 requests),
    then tests the exits in order: "stalled" (no descent over the stall
    window), "max_iterations", "divergence", "converged".  The first iterate
    tries ``INITIAL_STEP`` along -k = -K/||K||.  In an auxiliary round
    (``objective.w == 0``) at n = 1 a later iterate goes along the L-BFGS
    direction d = -H_k K of the module docstring when its memory holds a
    pair, first trying min(||d||, MAX_STEP) with slope Re<K, d>/||d||.
    Otherwise it goes along -k with slope -||K||, first trying the BB1 step
    min(||s||^2/Re<s,y> ||K||, MAX_STEP) from the last accepted move s
    (B = S s/eta) and the gradient change y = K - K_old, or, when
    Re<s,y> <= 0, the last accepted step times ``STEP_GROW`` (capped the
    same way).  Trials then shrink by ``STEP_SHRINK`` until Armijo accepts
    one; they are evaluated in batches of s, 2s, 4s, ..., s the steps the
    previous search examined, 1 for the first search (:func:`_backtrack`),
    and none accepted down to ``MIN_STEP`` exits with "line_search_floor".
    At the smooth end of an auxiliary descent at n = 1 Armijo sees only the
    rounding of F: when ||K||^2 and the search's predicted decrease
    eta ||K|| are both below 64 eps (1 + |F|), the search accepts a step
    that raises F by up to 8 eps (1 + |F|), and the trace is monotone to
    that.  A first trial already below
    ``MIN_STEP`` values nothing: that search makes no batch, examines no
    step, and the descent exits "line_search_floor" on the iterate it has.
    ``status`` folds every exit but "converged" and "divergence" into
    "max_iterations".
    ``armijo_trials`` counts the steps the Armijo rule examined in order, up
    to the one it accepted: not the rest of that step's batch, which was
    evaluated and discarded, nor the two steps of the derivative check.
    ``renormalizations`` counts the re-orthonormalized iterates,
    ``fd_pairs`` the chain pairs the gradients sent to finite differences,
    and ``gradient_norm`` is 4 ||[P, Q]||_F at the last iterate.  An accepted
    iterate whose Gram drift exceeds ``chains.tol.gram`` is re-orthonormalized
    before its gradient, also when the descent then stalls on it; a drift
    above 1e-14 left at the end is removed after the last gradient.
    ``chains`` is the pass of the returned projector.
    """
    signs = chains.projector.space.signs
    neg_signs = -signs[:, None]
    current = objective.value(chains)
    trace = [current]
    step = INITIAL_STEP
    moved = None  # (s, K) of the last accepted step
    # L-BFGS pairs of an auxiliary descent at n = 1, and its threshold sides
    memory = [] if objective.w == 0 and chains.space.n == 1 else None
    sides = None
    trials = renormalizations = fd_pairs = 0
    examined = 1  # the first search starts with a batch of one
    while True:
        comm, fd = yield objective, chains
        fd_pairs += int(fd)
        # 4 ||[P, Q]||_F by np.linalg.norm's own arithmetic without its
        # dispatch, which costs more than the sums on small dims
        flat = comm.ravel()
        grad_norm = 4.0 * math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))
        if len(trace) > STALL_WINDOW and (
                trace[-1 - STALL_WINDOW] - current <= STALL_TOL * (1.0 + abs(current))):
            exit_reason = "stalled"  # flattened out below resolution
            break
        if len(trace) > cfg.max_iter:
            exit_reason = "max_iterations"
            break
        if current < DIVERGENCE_FLOOR:
            exit_reason = "divergence"
            break
        if grad_norm <= cfg.residual_tol:
            exit_reason = "converged"
            break
        # B = -S K/||K|| with K = 4i [P,Q] S; symmetrizing K kills the
        # rounding-level non-Hermitian part so the Cayley step stays exactly
        # Gram-preserving even when ||Q|| >> ||[P,Q]|| (late penalty rounds)
        k = (4j / grad_norm) * (comm * signs)
        k = 0.5 * (k + k.conj().T)
        grad = grad_norm * k
        h = None  # the unit Hermitian direction H of B = S H, when it is not -k
        if moved is not None:
            s, grad_old = moved
            y = grad - grad_old
            sy = float(np.vdot(s, y).real)
        if memory is not None:
            # S is kinked where a chain crosses the causal threshold
            # t^2/4 = delta, and pairs that span the kink mislead
            side = np.sign(0.25 * chains.t * chains.t - chains.delta)
            if moved is not None and sy > 0.0:
                memory.append((s.ravel().view(float), y.ravel().view(float), 1.0 / sy))
                del memory[:-MEMORY]
            if sides is not None and not np.array_equal(side, sides):
                memory.clear()
            sides = side
            if memory:
                d = _two_loop(memory, grad.ravel().view(float)).view(complex).reshape(k.shape)
                d = 0.5 * (d + d.conj().T)
                flat = d.ravel()
                d_norm = math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))
                slope = grad.ravel().view(float).dot(flat.view(float)) / d_norm
                if slope < -1e-3 * grad_norm:
                    h, step = d / d_norm, min(d_norm, MAX_STEP)
                else:
                    memory.clear()  # too close to an ascent direction
        if h is None:
            b = neg_signs * k
            if moved is not None:
                # BB1 on the Hermitian coordinates, scaled to the unit direction
                if sy > 0.0:
                    step = float(np.vdot(s, s).real) / sy * grad_norm
                else:
                    step *= STEP_GROW
                step = min(step, MAX_STEP)
            slope = -grad_norm  # 4i Tr([P,Q] B) along the unit direction B
        else:
            b = signs[:, None] * h
        if check_first and abs(slope) > 1e-6 * (1.0 + abs(current)):
            yield from _check_slope(chains, objective, b, slope)
            check_first = False
        slack = 0.0  # the rise in F that Armijo forgives as rounding
        if memory is not None:
            ulp = math.ulp(1.0) * (1.0 + abs(current))
            if grad_norm * max(step, grad_norm) < 64.0 * ulp:
                slack = 8.0 * ulp
        trial, current, step, examined = yield from _backtrack(
            chains, objective, b, step, current, slope, examined, slack)
        trials += examined
        if trial is None:
            exit_reason = "line_search_floor"  # keep the best iterate
            break
        chains = trial
        trace.append(current)
        moved = (-step * k if h is None else step * h, grad)
        if chains.projector.gram_dev > chains.tol.gram:
            # the trace keeps the accepted value
            chains = ChainPass(chains.projector.renormalized())
            renormalizations += 1
    if chains.projector.gram_dev > 1e-14:
        chains = ChainPass(chains.projector.renormalized())
        renormalizations += 1
    return {
        "chains": chains,
        "status": exit_reason if exit_reason in ("converged", "divergence") else "max_iterations",
        "exit_reason": exit_reason,
        "iterations": len(trace) - 1,
        "armijo_trials": trials,
        "renormalizations": renormalizations,
        "fd_pairs": fd_pairs,
        "gradient_norm": grad_norm,
        "trace": np.array(trace),
    }


class _Objective:
    """F = S_mu + nu (T - kappa) + w (T - kappa)^2 on the projector orbit.

    Auxiliary mode descends (mu, nu = w = 0), where the terms in d = T - kappa
    weigh nothing (T is finite); a penalty round sets (nu, w) at mu = 0.  Both
    methods take a ``ChainPass`` and read d off its ``constraint``.  ``value``
    returns F, one value per trial of a stacked pass.  ``qmat`` is the
    auxiliary Q at the effective weight mu - nu - 2 w d and makes no pass of
    its own.  Its parameters may be arrays, one (mu, kappa, nu, w) per slice
    of a stacked pass.
    """

    def __init__(self, mu=0.0, kappa=0.0, nu=0.0, w=0.0):
        self.mu, self.kappa, self.nu, self.w = mu, kappa, nu, w

    def value(self, chains):
        s, t = action_and_constraint(chains, self.mu)
        d = t - self.kappa
        return s + self.nu * d + self.w * d * d

    def qmat(self, chains):
        d = chains.constraint - self.kappa
        return q_kernel(chains, self.mu - self.nu - 2.0 * self.w * d)


def _evaluate(requests):
    """The replies to requests of one kind (:func:`_lockstep`), in order.

    One request is evaluated alone, with nothing stacked.  Several share one
    new ``_Objective`` with every slice's (mu, kappa, nu, w), so an objective
    counts only through these, and one evaluation: their gradients one
    stacked pass, Q and commutator, their trials one ``TrialStack``, stacked
    pass and value call.  The lone path is common, not a corner: a seed that
    outlives the others descends alone (seed 7 of the m = 4 tetrahedron run
    for 46 of its 88 iterations).  Sending every lone request through the
    stacked path as a stack of one made that run 3.1% slower, sending only
    its lone trials so 1.4%, and taking each seed's gradient alone, none
    stacked, 18.6% (median ``wall_ref`` of four alternating 10 s
    ``perfbench`` ``tetra`` runs each, one BLAS thread, 2 vCPUs).
    """
    if len(requests) == 1:
        objective, *request = requests[0]
        if len(request) == 1:
            q = objective.qmat(request[0])
            return [(request[0].p @ q - q @ request[0].p, request[0].fd_pairs)]
        batch = ChainPass(TrialStack([request]))
        return [(objective.value(batch), batch.__getitem__)]
    sizes = [len(request[3]) if len(request) == 4 else 1 for request in requests]
    params = [(request[0].mu, request[0].kappa, request[0].nu, request[0].w)
              for request, size in zip(requests, sizes) for _ in range(size)]
    objective = _Objective(*np.array(params).T)
    if len(requests[0]) == 2:
        chains = ChainPass.stacked([request[1] for request in requests])
        q = objective.qmat(chains)
        return list(zip(chains.p @ q - q @ chains.p, chains.fd_pairs))
    batch = ChainPass(TrialStack([request[1:] for request in requests]))
    values = objective.value(batch)
    starts = np.cumsum([0, *sizes]).tolist()
    return [(values[o:o + c], lambda j, o=o: batch[o + j]) for o, c in zip(starts, sizes)]


def _lockstep(solves):
    """Run the seed generators ``solves`` together; returns their results in order.

    A seed yields requests and is sent replies: (objective, pass) asks for
    [P, Q] at the pass and its FD pair count, (objective, projector, B,
    steps) for the trials' values and a function giving trial j's pass.  Each
    round evaluates the gradient requests of all live seeds, or, when none is
    left, their trial requests, and replies in seed order, so the seeds'
    trials meet in one stack.  A group of one request is evaluated alone,
    with nothing stacked; as gradients go first, that can be one seed's
    gradient while the other seeds wait with trials.  An exception ends the
    run: of the seeds raising in its earliest round, the first does.
    """
    results = [None] * len(solves)
    live = [[i, gen, None] for i, gen in enumerate(solves)]  # [index, generator, request]
    group, replies = live, [None] * len(live)
    while True:
        for seed, reply in zip(group, replies):
            try:
                seed[2] = seed[1].send(reply)
            except StopIteration as stop:
                results[seed[0]] = stop.value
                live = [other for other in live if other is not seed]
        if not live:
            return results
        group = [seed for seed in live if len(seed[2]) == 2] or live  # gradients first
        replies = _evaluate([seed[2] for seed in group])


def _solve_seed(start, cfg):
    """One seed's descent at fixed mu, or its penalty rounds in constrained mode.

    A seed generator (:func:`_lockstep`) that returns (record, traces).  One
    objective serves every round; between penalty rounds nu takes the
    first-order multiplier update and w grows.  The multiplier is mu in
    auxiliary mode and -nu in constrained mode; the iterations, Armijo
    trials, renormalizations and FD pairs are summed over the rounds, whose
    traces are returned apart.  A round that cannot bring T to kappa settles
    where (T - kappa)^2 is stationary, so the record's constraint and last
    exit reason tell whether kappa was reached.  The last pass of a round
    starts the next, and its T and the record's (S, T) are read off it.
    """
    constrained = cfg.mode == "constrained"
    mu = critical_mu(start.space.n) if cfg.mu is None else cfg.mu
    objective = (_Objective(0.0, cfg.kappa, 0.0, PENALTY_START) if constrained
                 else _Objective(mu))
    chains = ChainPass(start)
    traces = []
    counts = dict.fromkeys(("iterations", "armijo_trials", "renormalizations", "fd_pairs"), 0)
    for round_idx in range(OUTER_ROUNDS if constrained else 1):
        out = yield from _descend(chains, objective, cfg, check_first=round_idx == 0)
        chains, status = out["chains"], out["status"]
        traces.append(out["trace"])
        for key in counts:
            counts[key] += out[key]
        if not constrained or status == "divergence":
            break
        d = chains.constraint - cfg.kappa
        objective.nu += 2.0 * objective.w * d
        if abs(d) <= CONSTRAINT_TOL and status == "converged":
            break
        status = "max_iterations"
        objective.w *= PENALTY_GROWTH
    s, t = action_and_constraint(chains, objective.mu)
    record = {
        "projector": chains.projector,
        "action": s,
        "constraint": t,
        "multiplier": objective.mu - objective.nu,
        "status": status,
        "exit_reason": out["exit_reason"],
        **counts,
        "gradient_norm": out["gradient_norm"],
    }
    return record, traces


def minimize(space, f, config=None, tol=DEFAULT):
    """Multi-start minimization; returns the best stationary-point candidate.

    Auxiliary mode descends S_mu at fixed mu, the critical weight 1/(2n)
    when ``config.mu`` is None (detecting the divergence that occurs beyond
    the critical weight); constrained mode minimizes the plain
    action subject to T = kappa.  A seed is feasible when it ends within
    10 CONSTRAINT_TOL of kappa.  If no seed is feasible and no seed's last
    round stopped on its iteration budget, the penalty rounds have settled
    where (T - kappa)^2 is stationary and InfeasibleKappa is raised; a seed
    that ran out of iterations instead lets the run return its best seed
    with status "max_iterations".  The best seed is chosen deterministically:
    non-diverged seeds first, then feasible seeds in constrained mode.  Among
    those, the seeds whose action is within 1e-12 (1 + |S_min|) of the
    lowest S_min tie, so seeds that reach one symmetric minimizer tie
    whatever their rounding; the first converged tied seed in seed order is
    the best, else the first tied seed.  The seeds descend in lockstep, each
    record and trace bit for bit that of a solve of its seed alone.  An
    exception in a seed ends the solve; when several seeds would raise, the
    first in seed order at the earliest step does.
    """
    cfg = config or SolverConfig()
    starts = [random_projector(space, f, seed, cfg.boost_scale, tol) for seed in cfg.seeds]
    solved = _lockstep([_solve_seed(start, cfg) for start in starts])
    per_seed = [{"seed": seed, **record} for seed, (record, _) in zip(cfg.seeds, solved)]
    traces = {seed: rounds for seed, (_, rounds) in zip(cfg.seeds, solved)}

    def missed(rec):
        return (cfg.mode == "constrained"
                and abs(rec["constraint"] - cfg.kappa) > 10.0 * CONSTRAINT_TOL)

    if all(missed(r) and r["exit_reason"] != "max_iterations" for r in per_seed):
        miss = min(abs(r["constraint"] - cfg.kappa) for r in per_seed)
        raise InfeasibleKappa(
            f"no trial projector reaches the constraint level {cfg.kappa}; "
            f"best |T - kappa| = {miss:.3e}"
        )

    def rank(rec):
        return (rec["status"] == "divergence", missed(rec))

    top = min(map(rank, per_seed))
    front = [r for r in per_seed if rank(r) == top]
    lowest = min(r["action"] for r in front)
    tied = [r for r in front if r["action"] <= lowest + 1e-12 * (1.0 + abs(lowest))]
    best = next((r for r in tied if r["status"] == "converged"), tied[0])
    diverged = any(r["status"] == "divergence" for r in per_seed)
    status = "divergence" if diverged else best["status"]
    mu_eff = best["multiplier"]
    return SolverResult(
        mode=cfg.mode,
        projector=best["projector"],
        action=best["action"],
        constraint=best["constraint"],
        multiplier=mu_eff,
        residual=el_residual(best["projector"], mu_eff),
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
    t_stationarity: float  # ||[P, Q_T]|| / (1 + ||Q_T||)


def lagrange_multiplier_estimate(projector):
    """Least-squares fit of dS = mu dT over every orbit direction at once.

    The first variations along B = S H are linear in the commutators
    C_S = [P, Q_S] and C_T = [P, Q_T], so the fit over all Hermitian H (the
    limit of a fit over isotropic random directions) is the Frobenius
    projection: mu = Re<C_T, C_S> / ||C_T||^2, with relative residual
    ||C_S - mu C_T|| / ||C_S||.  This recovers the Lagrange multiplier at
    constrained minimizers, which are the stationary points of the auxiliary
    action where the fit is well posed.  Two failure modes are flagged
    inconclusive: a poor fit residual (the point is not stationary for any
    multiplier), and C_T vanishing (the point is stationary for the
    constraint functional itself, e.g. the fully symmetric auxiliary
    minimizers, where the multiplier is undetermined and the fitted ratio
    would be pure noise).
    """
    chains = ChainPass(projector)
    qs = q_kernel(chains, 0.0)
    qt = constraint_q_kernel(chains)
    p = projector.matrix()
    cs = p @ qs - qs @ p
    ct = p @ qt - qt @ p
    t_stat = float(np.linalg.norm(ct)) / (1.0 + float(np.linalg.norm(qt)))
    if t_stat < 1e-7:
        return MultiplierEstimate(math.nan, math.inf, "inconclusive", t_stat)
    value = float(np.vdot(ct, cs).real) / float(np.vdot(ct, ct).real)
    residual = float(np.linalg.norm(cs - value * ct)) / max(
        np.linalg.norm(cs), 1e-300
    )
    status = "ok" if residual <= FIT_TOL else "inconclusive"
    return MultiplierEstimate(value, residual, status, t_stat)


def landscape_scan(family, grid, mu=0.5):
    """Evaluate action, constraint and chain-root data over a projector family.

    ``family`` maps a parameter value to a projector; grid points where the
    construction fails are recorded with the error message instead of data.
    The returned records carry the roots of the chain between points 0 and 1
    for transition plots, sorted by real part, then imaginary part: at n = 1
    (lam_-, lam_+), with lam_+ of a conjugate pair the root with Im > 0 and a
    real pair ordered by value.  One chain pass per grid point serves the
    value, the roots and the causal graph.
    """
    from .causal import causal_graph

    records = []
    for v in np.asarray(grid, dtype=float):
        try:
            proj = family(v)
        except Exception as exc:  # noqa: BLE001 - flagged, not fatal
            records.append({"param": float(v), "error": str(exc)})
            continue
        chains = ChainPass(proj)
        s, t = action_and_constraint(chains, mu)
        roots = np.sort_complex(chains.roots[0, 1])
        graph = causal_graph(chains)
        off = graph.off_diagonal_class()
        records.append(
            {
                "param": float(v),
                "action": float(s),
                "constraint": float(t),
                "roots": roots,
                "chain_weight": float(spectral_weight(roots)),
                "causal_offdiag": off.value if off is not None else "mixed",
            }
        )
    return records

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
commutator vanishes.  An Armijo backtracking line search then guarantees
monotone decrease, to the rounding of F where an auxiliary descent ends.

Auxiliary mode descends S_mu at fixed mu.  Constrained mode minimizes the
plain action S on the level set T = kappa of the spectral-weight constraint
by gradient projection (Rosen, J. SIAM 9, 1961).  An iterate's pass gives
C_S = [P, Q_S] and C_T = [P, Q_T]; their least-squares fit
nu = Re<C_T, C_S>/||C_T||^2 is the multiplier, and G = C_S - nu C_T,
orthogonal to C_T, is the commutator of S_nu = S - nu T.  The descent goes
along G, its trials valued by the Lagrangian S - nu (T - kappa), which is
S_nu up to the constant nu kappa of a search.  The first trial in step order
that passes Armijo is restored to |T - kappa| <= RESTORE_TOL (1 + |kappa|)
by at most RESTORE_STEPS Newton steps along S K_T/||K_T||, K_T = 4i C_T S,
of step -(T - kappa)/||K_T||, and taken if its S is not above the
iterate's; otherwise the search goes on.  A start off the level is restored
the same way, damped by Armijo on |T - kappa| and within the iteration
budget; one that settles short of kappa, at the step floor or where
||K_T|| <= residual_tol, tells that the level is not attained.

The auxiliary descent at n = 1 takes limited-memory BFGS directions in the
Hermitian coordinates (Nocedal and Wright, Numerical Optimization, 2nd ed.,
ch. 7; on manifolds, Huang, Gallivan and Absil, SIAM J. Optim. 25, 2015).
It keeps up to MEMORY pairs (s, y) with Re<s,y> > 0, s = eta H the
accepted move of B = S H and y the change in K since, and goes along
d = -H_k K (two-loop recursion, H_0 = Re<s,y>/<y,y> of the newest pair):
B = S d/||d||, slope Re<K,d>/||d||, first trial min(||d||, MAX_STEP).  The
memory is cleared when that slope is above -1e-3 ||K||, and when the signs
of t^2/4 - delta over the chain pairs differ from the last iterate's: S is
kinked on that causal threshold, and pairs that span the kink mislead (the
m = 8 sphere seeds that end there ground for about a thousand iterations
more without this rule).  With an empty memory, on the level set and at
n >= 2 (no (t, delta) for the threshold test) the direction is -K/||K||,
with the Barzilai-Borwein (BB1) first trial (IMA J. Numer. Anal. 8, 1988;
on orthogonality constraints, Wen and Yin, Math. Program. 142, 2013)
||s||^2/Re<s,y> ||K|| for s the last accepted move and y the change in K
since, capped at MAX_STEP, or the last step grown by STEP_GROW where
Re<s,y> <= 0.  Memory on the level set made the constrained triangle
(m = 3, kappa = 0.85, seeds 0-3) slower: 199 iterations in 495 stacked
requests against 145 in 225 with BB1 alone.

The backtracking steps eta, eta STEP_SHRINK, ... are known before any of them
is evaluated, so the search evaluates them in batches of s, 2s, 4s, ...,
s the steps the previous search examined (1 for the first), and accepts the
first step in order that passes Armijo, bit for bit as one at a time would.

The seeds of a solve descend in lockstep: each seed is a generator that asks
for its gradients, trial batches and Newton steps, and one loop
(``_lockstep``) evaluates the batches of all live seeds as one stacked orbit
step and chain pass (``TrialStack``) valued with per-trial mu, and their
gradients as one stacked Q and commutator, each slice bit for bit its
one-seed evaluation.  Step control, exits, norms and multipliers stay per seed.

A derivative check compares the slope along B with a central finite
difference of F along B (S_nu on the level set) at a seed's first iterate
with |slope| > 1e-6 (1 + |F|).  An accepted iterate is re-orthonormalized
when the Gram drift it measured (``FermionicProjector.gram_dev``) grows.
The iterate is a chain pass (``dstlab.action.ChainPass``), a trial's slice
of a stacked pass that holds its own T; its gradient makes no pass but a
stacked copy of the seeds' passes when several ask together, and reuses the
pass's dense P.  Only a trial taken or restored becomes a validated
projector; a renormalized iterate gets one pass of its own.

A run sets only the ``SolverConfig`` fields, which it alone checks and
defaults.  The step control (INITIAL_STEP, MAX_STEP, ARMIJO, STEP_SHRINK,
STEP_GROW, MIN_STEP, MEMORY), the stall test (STALL_WINDOW, STALL_TOL),
DIVERGENCE_FLOOR, the restoration (RESTORE_TOL, RESTORE_STEPS) and the
multiplier fit (FIT_TOL) are module constants, read when a solve runs.
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
from .core import InvalidInput, random_projector
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
RESTORE_TOL = 1e-13  # |T - kappa| of a restored iterate, relative to 1 + |kappa|
RESTORE_STEPS = 20  # Newton steps that may restore a trial to T = kappa
FIT_TOL = 1e-3
MEMORY = 6  # L-BFGS pairs of an auxiliary descent


class InfeasibleKappa(ValueError):
    """The requested constraint level is not attained by any trial projector."""


@dataclass(frozen=True)
class SolverConfig:
    """The settings a solve chooses, checked and defaulted here only.

    mode: "auxiliary" descends S_mu at the weight mu; "constrained"
      minimizes the plain action on the level set T = kappa.
    mu: the auxiliary weight.  None, the default, is the critical weight
      1/(2n) of the space that ``minimize`` solves on
      (``dstlab.action.critical_mu``).
    kappa: the constraint level; constrained mode needs it.
    seeds: the seeds of the random starts, nonempty and without repeats.
    max_iter: each seed's iteration budget, a start's Newton steps included.
    residual_tol: the gradient norm at which a descent has converged.
    boost_scale: the scale of each start's random boost
      (``dstlab.core.random_projector``).

    Every check raises InvalidInput.  A mode reads only its own parameter,
    so mu in constrained mode and kappa in auxiliary mode are refused, after
    the check that mu, kappa, residual_tol and boost_scale are finite.
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
            raise InvalidInput(f"unknown mode {self.mode!r}")
        if self.mode == "constrained" and self.kappa is None:
            raise InvalidInput("constrained mode needs a kappa level")
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.seeds:
            raise InvalidInput("a solve needs a nonempty seed list")
        if len(set(self.seeds)) < len(self.seeds):
            raise InvalidInput(f"repeated seed in {list(self.seeds)}")
        for name in ("mu", "kappa", "residual_tol", "boost_scale"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidInput(f"{name} must be finite, not {value}")
        if self.residual_tol <= 0:
            raise InvalidInput("residual_tol must be positive")
        unused = "kappa" if self.mode == "auxiliary" else "mu"
        if getattr(self, unused) is not None:
            raise InvalidInput(f"{unused} is unused in {self.mode} mode")


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
    traces: dict  # seed -> [the seed's trace]


def _check_slope(chains, objective, b, slope):
    h = chains.tol.fd_step
    (plus, minus), _, _ = yield objective, chains.projector, b, [h, -h]
    fd = (plus - minus) / (2.0 * h)
    rel = abs(fd - slope) / max(abs(fd), abs(slope))
    if rel > chains.tol.grad_check:
        raise RuntimeError(
            f"first-iterate derivative check failed: analytic {slope:.6e}, "
            f"finite difference {fd:.6e}, relative error {rel:.2e}"
        )


def _backtrack(chains, objective, b, step, current, slope, size, slack=0.0,
               kappa=None, accept=None):
    """Armijo backtracking from ``step`` along B, in batches of size, 2 size, ... trials.

    The steps are step, step STEP_SHRINK, ... down to ``MIN_STEP``; each
    batch is one trials request (:func:`_lockstep`).  Returns (trial,
    value, step, examined) for the first step in order that passes Armijo
    with F raised by ``slack`` (|T - kappa| in place of F with ``kappa``),
    ``trial`` its pass, or what the generator function ``accept`` returns
    for it, and ``examined`` the steps looked at; (None, current, step,
    examined) when none passes or ``accept`` returns None for all that do.
    The batch boundaries change what is evaluated, not what is returned.
    """
    bound = current + slack
    examined = 0
    while step >= MIN_STEP:
        etas = []
        while len(etas) < size and step >= MIN_STEP:
            etas.append(step)
            step *= STEP_SHRINK
        values, constraints, trial = yield objective, chains.projector, b, etas
        if kappa is not None:
            values = np.abs(constraints - kappa)
        for j, eta in enumerate(etas):
            examined += 1
            if values[j] <= bound + ARMIJO * eta * slope:
                taken = trial(j) if accept is None else (yield from accept(trial(j)))
                if taken is not None:
                    return taken, float(values[j]), eta, examined
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


def _norm(comm):
    """||K||_F = 4 ||[P, Q]||_F, by np.linalg.norm's arithmetic without its costlier dispatch."""
    flat = comm.ravel()
    return 4.0 * math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))


def _unit(comm, norm, signs):
    """K/||K||, K = 4i [P, Q] S made exactly Hermitian, so the Cayley step keeps the Gram matrix."""
    k = (4j / norm) * (comm * signs)
    return 0.5 * (k + k.conj().T)


def _restore(chains, level, cfg, counts, steps):
    """A seed generator's damped Newton steps from a pass to T = kappa (module docstring).

    Each asks for the pair at the pass; T moves at the rate ||K_T|| along the
    unit direction.  Returns (pass, steps taken, exit reason), the reason
    None once T is within RESTORE_TOL (1 + |kappa|), else "max_iterations"
    after ``steps``, "stalled" (||K_T|| <= ``residual_tol``) or
    "line_search_floor".
    """
    for taken in range(steps):
        if not level.missed(chains.constraint):
            return chains, taken, None
        (_, ct), fd = yield level, chains
        counts["fd_pairs"] += int(fd)
        norm, signs = _norm(ct), chains.space.signs
        if norm <= cfg.residual_tol:
            return chains, taken, "stalled"
        gap = chains.constraint - level.kappa
        b = math.copysign(1.0, -gap) * signs[:, None] * _unit(ct, norm, signs)
        trial, _, _, examined = yield from _backtrack(
            chains, _Objective(0.0), b, abs(gap) / norm, abs(gap), -norm, 1, kappa=level.kappa)
        counts["armijo_trials"] += examined
        if trial is None:
            return chains, taken, "line_search_floor"
        chains = trial
    return chains, steps, None if not level.missed(chains.constraint) else "max_iterations"


def _descend(chains, objective, cfg, check_first=False):
    """Backtracking descent of an ``_Objective`` or on a ``_LevelSet`` from one start's pass.

    A seed generator (:func:`_lockstep`).  The iterate is a ``ChainPass``;
    valuing it writes nothing onto it, and its gradient, evaluated alone,
    records its ``fd_pairs`` there (0 at n = 1).  Each loop asks for the
    iterate's one gradient (k iterations make k + 1 requests), then tests the
    exits in order: "stalled" (no descent over the stall window),
    "max_iterations", "divergence", "converged".  On the level set the start
    is first restored (:func:`_restore`, its steps iterations), and one that
    ends short of kappa ends the descent with its reason at that gradient.
    An iterate takes the direction and first trial of the module docstring
    (the first ``INITIAL_STEP`` along -K/||K||), and its trials shrink by
    ``STEP_SHRINK`` in the batches of :func:`_backtrack` until Armijo accepts
    one (on the level set, one restored with S not above the iterate's);
    none down to ``MIN_STEP``, or a first trial below it (no batch), exits
    "line_search_floor".  Where the L-BFGS memory serves and ||K||^2 and the
    predicted decrease eta ||K|| are below 64 eps (1 + |F|), Armijo forgives
    a rise in F of 8 eps (1 + |F|).  ``status`` folds every exit but
    "converged" and "divergence" into "max_iterations".  ``armijo_trials``
    counts the steps the Armijo rules examined in order up to the one they
    accepted, Newton steps included: not the rest of that step's batch,
    evaluated and discarded, nor the two steps of the derivative check.
    ``renormalizations`` counts the re-orthonormalized iterates,
    ``fd_pairs`` the pairs the gradients sent to finite differences, and
    ``gradient_norm`` is 4 ||[P, Q]||_F and ``multiplier`` mu, or nu, at the
    last iterate.  An accepted iterate whose Gram drift exceeds
    ``chains.tol.gram`` is re-orthonormalized before its gradient, and a
    drift above 1e-14 at the end after the last gradient.  ``chains`` is the
    pass of ``projector``, whose F is ``action``.
    """
    signs = chains.projector.space.signs
    level = objective if isinstance(objective, _LevelSet) else None
    counts = dict.fromkeys(("armijo_trials", "renormalizations", "fd_pairs"), 0)
    newton, exit_reason = 0, None  # the start's Newton steps onto the level set
    if level is not None:
        chains, newton, exit_reason = yield from _restore(chains, level, cfg, counts, cfg.max_iter)
    search = objective  # what values the trials, S_nu on the level set
    current = objective.value(chains)
    trace = [current]
    step = INITIAL_STEP
    moved = None  # (s, K) of the last accepted step
    # L-BFGS pairs of an auxiliary descent at n = 1, and its threshold sides
    memory = [] if level is None and chains.space.n == 1 else None
    sides = None
    examined = 1  # the first search starts with a batch of one
    while True:
        comm, fd = yield objective, chains
        counts["fd_pairs"] += int(fd)
        if level is not None:
            cs, ct = comm
            nu, comm = _multiplier_fit(cs, ct)
            search = _Objective(nu)
        grad_norm = _norm(comm)
        if exit_reason is not None:
            break  # the start settled short of kappa or used up the budget
        if len(trace) > STALL_WINDOW and (
                trace[-1 - STALL_WINDOW] - current <= STALL_TOL * (1.0 + abs(current))):
            exit_reason = "stalled"  # flattened out below resolution
            break
        if newton + len(trace) > cfg.max_iter:
            exit_reason = "max_iterations"
            break
        if current < DIVERGENCE_FLOOR:
            exit_reason = "divergence"
            break
        if grad_norm <= cfg.residual_tol:
            exit_reason = "converged"
            break
        # B = -S K/||K|| with K = 4i [P,Q] S
        k = _unit(comm, grad_norm, signs)
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
            b = -signs[:, None] * k
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
            yield from _check_slope(chains, search, b, slope)
            check_first = False
        slack = 0.0  # the rise in F that Armijo forgives as rounding
        if memory is not None:
            ulp = math.ulp(1.0) * (1.0 + abs(current))
            if grad_norm * max(step, grad_norm) < 64.0 * ulp:
                slack = 8.0 * ulp

        def restored_below(trial, ceiling=current + slack):  # S not above the iterate's
            trial, _, reason = yield from _restore(trial, level, cfg, counts, RESTORE_STEPS)
            return None if reason or level.value(trial) > ceiling else trial

        trial, value, step, examined = yield from _backtrack(
            chains, search, b, step, current if level is None else search.value(chains), slope,
            examined, slack, accept=None if level is None else restored_below)
        counts["armijo_trials"] += examined
        if trial is None:
            exit_reason = "line_search_floor"  # keep the best iterate
            break
        chains, current = trial, value if level is None else level.value(trial)
        trace.append(current)
        moved = (-step * k if h is None else step * h, grad)
        if chains.projector.gram_dev > chains.tol.gram:
            # the trace keeps the accepted value
            chains = ChainPass(chains.projector.renormalized())
            counts["renormalizations"] += 1
    if chains.projector.gram_dev > 1e-14:
        chains = ChainPass(chains.projector.renormalized())
        counts["renormalizations"] += 1
    return {
        "chains": chains,
        "projector": chains.projector,
        "action": objective.value(chains),
        "constraint": float(chains.constraint),
        "multiplier": search.mu,
        "status": exit_reason if exit_reason in ("converged", "divergence") else "max_iterations",
        "exit_reason": exit_reason,
        "iterations": newton + len(trace) - 1,
        **counts,
        "gradient_norm": grad_norm,
        "trace": np.array(trace),
    }


class _Objective:
    """S_mu of a ``ChainPass``, one per trial of a stacked pass (mu then one per trial or
    a number); Q (``qmat``) and [P, Q] make no pass of their own."""

    def __init__(self, mu):
        self.mu = mu

    def value(self, chains):
        return action_and_constraint(chains, self.mu)[0]

    def qmat(self, chains):
        return q_kernel(chains, self.mu)

    def commutator(self, chains):
        q = self.qmat(chains)
        return chains.p @ q - q @ chains.p


class _LevelSet(_Objective):
    """S (mu = 0) on the level set T = kappa, its gradient the pair C_S = [P, Q_S], C_T = [P, Q_T]
    from one ``ChainPass.q`` call, on the third axis from the end."""

    def __init__(self, kappa):
        self.mu, self.kappa = 0.0, kappa

    def missed(self, t):
        return abs(t - self.kappa) > RESTORE_TOL * (1.0 + abs(self.kappa))

    @staticmethod
    def commutator(chains):
        w = np.eye(2).reshape((2, 2) + (1,) * (chains.p.ndim - 2))
        q = chains.q(w[:, 0], w[:, 1])
        return np.moveaxis(chains.p @ q - q @ chains.p, 0, -3)


def _multiplier_fit(cs, ct):
    """The least-squares multiplier nu = Re<C_T, C_S>/||C_T||^2 and C_S - nu C_T."""
    nu = float(np.vdot(ct, cs).real) / float(np.vdot(ct, ct).real)
    return nu, cs - nu * ct


def _evaluate(requests):
    """The replies to requests of one kind (:func:`_lockstep`), in order.

    One request is evaluated alone, with nothing stacked.  Several share one
    objective (an ``_Objective`` of every slice's mu, or the level set) and
    one evaluation: their gradients one stacked pass, Q and commutator, their
    trials one ``TrialStack``, stacked pass and value call.  The lone path is
    common, not a corner: a seed that outlives the others descends alone
    (seed 7 of the m = 4 tetrahedron run for 46 of its 88 iterations).
    Sending every lone request through the stacked path as a stack of one
    made that run 3.1% slower, sending only its lone trials so 1.4%, and
    taking each seed's gradient alone, none stacked, 18.6% (median
    ``wall_ref`` of four alternating 10 s ``perfbench`` ``tetra`` runs
    each, one BLAS thread, 2 vCPUs).
    """
    if len(requests) == 1:
        objective, *request = requests[0]
        if len(request) == 1:
            return [(objective.commutator(request[0]), request[0].fd_pairs)]
        batch = ChainPass(TrialStack([request]))
        return [(objective.value(batch), batch.constraint, batch.__getitem__)]
    sizes = [len(request[3]) if len(request) == 4 else 1 for request in requests]
    objective = requests[0][0]
    if not isinstance(objective, _LevelSet):
        objective = _Objective(np.array(
            [request[0].mu for request, size in zip(requests, sizes) for _ in range(size)]))
    if len(requests[0]) == 2:
        chains = ChainPass.stacked([request[1] for request in requests])
        return list(zip(objective.commutator(chains), chains.fd_pairs))
    batch = ChainPass(TrialStack([request[1:] for request in requests]))
    values = objective.value(batch)
    starts = np.cumsum([0, *sizes]).tolist()
    return [(values[o:o + c], batch.constraint[o:o + c], lambda j, o=o: batch[o + j])
            for o, c in zip(starts, sizes)]


def _lockstep(solves):
    """Run the seed generators ``solves`` together; returns their results in order.

    A seed yields requests and is sent replies: (objective, pass) asks for
    the commutator at the pass and its FD pair count, (objective, projector,
    B, steps) for the trials' values, their T and a function giving trial
    j's pass.  Each round evaluates the gradient requests of all live seeds,
    or, when none is left, their trial requests, and replies in seed order,
    so the seeds' trials meet in one stack.  A group of one request is
    evaluated alone; as gradients go first, that can be one seed's gradient
    while the other seeds wait with trials.  An exception ends the run: of
    the seeds raising in its earliest round, the first does.
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
    """A seed generator (:func:`_lockstep`) of one seed's descent; returns (record, [trace])."""
    objective = (_LevelSet(cfg.kappa) if cfg.mode == "constrained" else
                 _Objective(critical_mu(start.space.n) if cfg.mu is None else cfg.mu))
    record = yield from _descend(ChainPass(start), objective, cfg, check_first=True)
    del record["chains"]
    return record, [record.pop("trace")]


def minimize(space, f, config=None, tol=DEFAULT):
    """Multi-start minimization; returns the best stationary-point candidate.

    Auxiliary mode descends S_mu at fixed mu, the critical weight 1/(2n)
    when ``config.mu`` is None (detecting the divergence that occurs beyond
    the critical weight); constrained mode minimizes the plain action on the
    level set T = kappa.  A seed is feasible when it ends within RESTORE_TOL
    (1 + |kappa|) of kappa.  If no seed is, and none stopped on its budget,
    every start settled short of kappa and InfeasibleKappa is raised; a seed
    out of iterations lets the run return status "max_iterations".  The best
    seed is chosen deterministically: non-diverged seeds first, then
    feasible seeds in constrained mode.  Among
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
    traces = {seed: trace for seed, (_, trace) in zip(cfg.seeds, solved)}

    def missed(rec):
        return cfg.mode == "constrained" and _LevelSet(cfg.kappa).missed(rec["constraint"])

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

    The first variations along B = S H are linear in C_S = [P, Q_S] and
    C_T = [P, Q_T], so the fit over all Hermitian H (the limit of a fit over
    isotropic random directions) is the level-set descent's multiplier
    (``_multiplier_fit``), with relative residual ||C_S - mu C_T|| / ||C_S||.
    It is flagged inconclusive for a poor residual (the point is stationary
    for no multiplier) and where C_T vanishes (the point is stationary for T
    itself, as the symmetric auxiliary minimizers are, and the ratio noise).
    """
    chains = ChainPass(projector)
    cs, ct = _LevelSet.commutator(chains)
    qt_norm = float(np.linalg.norm(constraint_q_kernel(chains)))
    t_stat = float(np.linalg.norm(ct)) / (1.0 + qt_norm)
    if t_stat < 1e-7:
        return MultiplierEstimate(math.nan, math.inf, "inconclusive", t_stat)
    value, rest = _multiplier_fit(cs, ct)
    residual = float(np.linalg.norm(rest)) / max(np.linalg.norm(cs), 1e-300)
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

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
gradients as one stacked Q and commutator.  That round is handed once, as
its stacked commutators, FD pair counts and pass, to the step arithmetic
(``_Directions``), which serves it in one pass over one set of row lists:
the multiplier fit, ||K||, the unit gradient, B, y and Re<s,y>, the
threshold signs of the pass and the restart test, the L-BFGS memory update
and two-loop recursion over every seed's memory, kept between rounds in
stacked buffers, ||d||, the slope, the BB1 and the Newton steps; the dot
products of a stack are batched matrix products.  Each slice and each row
is bit for bit its one-seed evaluation.  A seed
keeps its control flow: the exits, the Armijo decisions, the restorations
and the derivative check.  A seed alone in a round is a stack of one: it
works on views of its rows of the buffers, with its own numbers and dot
products, and its recursion is ``_two_loop`` on views of its pairs.

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
    The oracle of :func:`_two_loops`, and its one-row case.
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


def _dot_column(a, b):
    """a_i . b_i of every row of stacks (k, n) as a (k, 1) column, each row bit for bit
    ``a_i.dot(b_i)``: one batched (k, 1, n) @ (k, n, 1) product."""
    return (a[:, None] @ b[..., None])[:, 0]


def _two_loops(s, y, rho, grad):
    """:func:`_two_loop` of every row of a stack, each row bit for bit its own recursion.

    Row i holds its len(rho[i]) >= 1 pairs in the last slots of ``s`` and
    ``y`` (k, MEMORY, n), oldest first, and ``rho[i]`` lists their
    1/<s, y>; ``grad`` is (k, n).  A slot that a row does not hold weighs
    1/<s, y> = 0, so the step over that age changes the row's q by zeros.
    A stack of one takes :func:`_two_loop` on views of its pairs.
    """
    if len(grad) == 1:
        c = len(rho[0])
        return _two_loop(list(zip(s[0, -c:], y[0, -c:], rho[0])), grad[0])[None]
    ages = range(1, max(map(len, rho)) + 1)  # newest first
    rho = np.array([[0.0] * (MEMORY - len(r)) + r for r in rho])[:, :, None]
    q = -grad
    alphas = []
    for age in ages:
        alpha = rho[:, -age] * _dot_column(s[:, -age], q)
        q -= alpha * y[:, -age]
        alphas.append(alpha)
    q *= 1.0 / (rho[:, -1] * _dot_column(y[:, -1], y[:, -1]))
    for age, alpha in zip(reversed(ages), reversed(alphas)):
        q += (alpha - rho[:, -age] * _dot_column(y[:, -age], q)) * s[:, -age]
    return q


# A stack of one row works on the row's own views and numbers: _rows,
# _take and _column make no copy and no array for it, and _dots, _inner
# and _lengths take the row's own dot products.

def _rows(js):
    """The index of the rows ``js`` of a stack: the list, or the slice of one row."""
    return slice(js[0], js[0] + 1) if len(js) == 1 else js


def _take(stack, js):
    """The rows ``js`` of a stack made this round: itself where they are all of it."""
    return stack if len(js) == len(stack) else stack[_rows(js)]


def _column(values):
    """Numbers, one per row, as a factor of a stack (k, ...) of matrices; a lone one as is."""
    return values[0] if len(values) == 1 else np.array(values)[:, None, None]


def _dots(a, b):
    """[a_i . b_i] over the rows of stacks (k, n), as Python floats (:func:`_dot_column`)."""
    if len(a) == 1:
        return [a[0].dot(b[0]).item()]
    return _dot_column(a, b).ravel().tolist()


def _inner(a, b):
    """[Re<a_i, b_i>] over the rows of complex stacks (k, n), as Python floats, each bit for
    bit ``np.vdot(a_i, b_i).real``."""
    if len(a) == 1:
        return [np.vdot(a[0], b[0]).real.item()]
    return _dot_column(a.conj(), b).real.ravel().tolist()


def _lengths(flat):
    """sqrt(Re<x, x>) of every row x of a complex stack (k, n), as Python floats.

    Re<x, x> is the dot product of the real parts plus that of the imaginary
    parts, one per row: the arithmetic of ``np.linalg.norm`` of one complex
    matrix, without its dispatch.
    """
    if len(flat) == 1:
        x = flat[0]
        return [math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))]
    re, im = flat.real, flat.imag
    return [math.sqrt(a + b) for a, b in zip(_dots(re, re), _dots(im, im))]


def _units(g, norms, signs):
    """K/||K|| of every slice of G, K = 4i G S made exactly Hermitian.

    So the Cayley step keeps the Gram matrix.
    """
    k = _column([4j / norm for norm in norms]) * (g * signs)
    return 0.5 * (k + k.conj().swapaxes(-1, -2))


def _signed(sides, signs, unit):
    """B = side S unit of every slice of a stack of unit Hermitian matrices."""
    return (_column(sides) * signs[:, None]) * unit


def _restore(chains, level, cfg, counts, steps):
    """A seed generator's damped Newton steps from a pass to T = kappa (module docstring).

    Each asks for the pair at the pass and the step ("newton", T - kappa,
    ``residual_tol``) of :class:`_Directions`; T moves at the rate ||K_T||
    along the unit direction.  Returns (pass, steps taken, exit reason),
    the reason None once T is within RESTORE_TOL (1 + |kappa|), else
    "max_iterations" after ``steps``, "stalled" (||K_T|| <= ``residual_tol``)
    or "line_search_floor".
    """
    for taken in range(steps):
        if not level.missed(chains.constraint):
            return chains, taken, None
        gap = chains.constraint - level.kappa
        fd, _, _, b, step, slope = yield level, chains, ("newton", gap, cfg.residual_tol)
        counts["fd_pairs"] += int(fd)
        if b is None:
            return chains, taken, "stalled"
        trial, _, _, examined = yield from _backtrack(
            chains, _Objective(0.0), b, step, abs(gap), slope, 1, kappa=level.kappa)
        counts["armijo_trials"] += examined
        if trial is None:
            return chains, taken, "line_search_floor"
        chains = trial
    return chains, steps, None if not level.missed(chains.constraint) else "max_iterations"


def _descend(chains, objective, cfg, check_first=False):
    """Backtracking descent of an ``_Objective`` or on a ``_LevelSet`` from one start's pass.

    A seed generator (:func:`_lockstep`).  The iterate is a ``ChainPass``;
    valuing it writes nothing onto it, and its gradient, evaluated alone,
    records its ``fd_pairs`` there (0 at n = 1).  Each loop tests the exits
    that the gradient does not decide, in order: "stalled" (no descent over
    the stall window), "max_iterations", "divergence"; then asks for the
    iterate's one gradient and step (k iterations make k + 1 requests), the
    plan ("descent", the step accepted from the last iterate, the floor
    ``residual_tol``, or inf once an exit is taken) of :class:`_Directions`,
    and exits "converged" where ||K|| is not above the floor.  On the level
    set the start is first restored (:func:`_restore`, its steps
    iterations), and one that ends short of kappa ends the descent with its
    reason at that gradient.  An iterate takes the direction and first trial
    of the module docstring (the first ``INITIAL_STEP`` along -K/||K||), and
    its trials shrink by ``STEP_SHRINK`` in the batches of :func:`_backtrack`
    until Armijo accepts one (on the level set, one restored with S not
    above the iterate's); none down to ``MIN_STEP``, or a first trial below
    it (no batch), exits "line_search_floor".  Where the L-BFGS memory
    serves and ||K||^2 and the predicted decrease eta ||K|| are below 64 eps
    (1 + |F|), Armijo forgives a rise in F of 8 eps (1 + |F|).  ``status``
    folds every exit but "converged" and "divergence" into
    "max_iterations".  ``armijo_trials`` counts the steps the Armijo rules
    examined in order up to the one they accepted, Newton steps included:
    not the rest of that step's batch, evaluated and discarded, nor the two
    steps of the derivative check.  ``renormalizations`` counts the
    re-orthonormalized iterates, ``fd_pairs`` the pairs the gradients sent to
    finite differences, and ``gradient_norm`` is 4 ||[P, Q]||_F and
    ``multiplier`` mu, or nu, at the last iterate.  An accepted iterate whose
    Gram drift exceeds ``chains.tol.gram`` is re-orthonormalized before its
    gradient, and a drift above 1e-14 at the end after the last gradient.
    ``chains`` is the pass of ``projector``, whose F is ``action``.
    """
    level = objective if isinstance(objective, _LevelSet) else None
    counts = dict.fromkeys(("armijo_trials", "renormalizations", "fd_pairs"), 0)
    newton, exit_reason = 0, None  # the start's Newton steps onto the level set
    if level is not None:
        chains, newton, exit_reason = yield from _restore(chains, level, cfg, counts, cfg.max_iter)
    search = objective  # what values the trials, S_nu on the level set
    current = objective.value(chains)
    trace = [current]
    lbfgs = level is None and chains.space.n == 1  # L-BFGS directions
    eta = None  # the step accepted from the last iterate
    examined = 1  # the first search starts with a batch of one
    while True:
        # a start that settled short of kappa or used up the budget has its exit
        if exit_reason is None:
            if len(trace) > STALL_WINDOW and (
                    trace[-1 - STALL_WINDOW] - current <= STALL_TOL * (1.0 + abs(current))):
                exit_reason = "stalled"  # flattened out below resolution
            elif newton + len(trace) > cfg.max_iter:
                exit_reason = "max_iterations"
            elif current < DIVERGENCE_FLOOR:
                exit_reason = "divergence"
        floor = cfg.residual_tol if exit_reason is None else math.inf
        fd, grad_norm, nu, b, step, slope = yield objective, chains, ("descent", eta, floor)
        counts["fd_pairs"] += int(fd)
        if level is not None:
            search = _Objective(nu)
        if exit_reason is None and b is None:
            exit_reason = "converged"
        if exit_reason is not None:
            break
        if check_first and abs(slope) > 1e-6 * (1.0 + abs(current)):
            yield from _check_slope(chains, search, b, slope)
            check_first = False
        slack = 0.0  # the rise in F that Armijo forgives as rounding
        if lbfgs:
            ulp = math.ulp(1.0) * (1.0 + abs(current))
            if grad_norm * max(step, grad_norm) < 64.0 * ulp:
                slack = 8.0 * ulp

        def restored_below(trial, ceiling=current + slack):  # S not above the iterate's
            trial, _, reason = yield from _restore(trial, level, cfg, counts, RESTORE_STEPS)
            return None if reason or level.value(trial) > ceiling else trial

        trial, value, eta, examined = yield from _backtrack(
            chains, search, b, step, current if level is None else search.value(chains), slope,
            examined, slack, accept=None if level is None else restored_below)
        counts["armijo_trials"] += examined
        if trial is None:
            exit_reason = "line_search_floor"  # keep the best iterate
            break
        chains, current = trial, value if level is None else level.value(trial)
        trace.append(current)
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

    # the weight sets (w_sq, w_abs) of S and of T as columns, for a lone pass and a stacked one
    _weights = (np.eye(2), np.eye(2)[:, :, None])

    def __init__(self, kappa):
        self.mu, self.kappa = 0.0, kappa

    def missed(self, t):
        return abs(t - self.kappa) > RESTORE_TOL * (1.0 + abs(self.kappa))

    @staticmethod
    def commutator(chains):
        w = _LevelSet._weights[chains.p.ndim - 2]
        q = chains.q(w[:, 0], w[:, 1])
        return (chains.p @ q - q @ chains.p).swapaxes(0, -3)


def _multiplier_fit(cs, ct):
    """The least-squares multiplier nu = Re<C_T, C_S>/||C_T||^2 and C_S - nu C_T.

    Of one pair, or of every pair of a stack (k, md, md) each, one nu per pair.
    """
    flat = ct.reshape(-1, ct.shape[-2] * ct.shape[-1])
    conj = flat.conj()
    nu = _dot_column(conj, cs.reshape(flat.shape)).real / _dot_column(conj, flat).real
    nu = nu.reshape(cs.shape[:-2])[()]
    return nu, cs - nu[..., None, None] * ct


class _Directions:
    """The step arithmetic of the seeds of one lockstep, one row per seed.

    :meth:`serve` answers a round's gradient requests that carry a plan
    (:func:`_lockstep`).  The matrix arithmetic is one numpy call per stack
    of the rows that need it: the multiplier fit on the level set, the dot
    products of ||K||, and per kind of step the unit gradient K/||K|| and B
    and, of the descent rows, s, y, Re<s, y>, the memory update, the
    threshold signs, the two-loop recursion and the dot products of ||d||
    and of the slope.  The numbers of each row (its norms, BB1 and Newton
    steps, the restart and ascent tests) are Python floats.  Every row is
    bit for bit the arithmetic of its seed alone.  A descent row keeps K at
    its last iterate, the unit Hermitian matrix of its direction there and
    the sign of its move (s = sign eta unit for the step eta it accepted; 0
    before its first), and at n = 1 off the level set its L-BFGS memory: s
    and y of up to MEMORY pairs in the last slots of its rows of (rows,
    MEMORY, 2 (md)^2) buffers, their 1/Re<s, y> in a list, oldest first,
    and the signs of t^2/4 - delta at its last iterate (NaN before its
    first, so that its first iterate clears the empty memory).  The buffers
    are made at the first request, for the space of its pass.  A round
    indexes its rows by lists and a stack of one row by its views
    (:func:`_rows`), and it gathers nothing from a stack of its own when it
    needs all of its rows (:func:`_take`).
    """

    def __init__(self, rows):
        self.rows, self.grad = rows, None
        self.sign = [0.0] * rows
        self.rho = [[] for _ in range(rows)]

    def _allocate(self, space):
        rows, dim = self.rows, space.dim
        self.grad = np.zeros((rows, dim, dim), dtype=complex)
        self.unit = np.zeros_like(self.grad)
        self.s = np.zeros((rows, MEMORY, 2 * dim * dim))
        self.y = np.zeros_like(self.s)
        self.sides = np.full((rows, space.m, space.m), np.nan)

    def serve(self, rows, requests, gradients):
        """The replies (fd, ||K||, nu, B, first step, slope) to requests (objective, pass, plan).

        ``rows`` are the requests' rows, increasing, and ``gradients`` the
        round's (commutators, FD pair counts, pass) from :func:`_evaluate`:
        stacked, or a lone request's own, which is viewed as a stack of one.
        A plan is ("descent", the step accepted since the row's last descent
        step or None, floor) or ("newton", T - kappa, floor).  A Newton step
        goes along B = sign(kappa - T) S K_T/||K_T|| with the first step
        |T - kappa|/||K_T|| and the slope -||K_T||.  B, the first step and
        the slope are None where ||K|| is not above the floor; nu is None but
        on a descent on the level set.
        """
        g, fds, chains = gradients
        count, space = len(requests), chains.space
        if count == 1:
            g, fds = g[None], [fds]
        if self.grad is None:
            self._allocate(space)
        plans = [request[2] for request in requests]
        level = isinstance(requests[0][0], _LevelSet)
        newton = [plan[0] == "newton" for plan in plans] if level else [False] * count
        nus = [None] * count
        if level:
            ct = g[:, 1]
            if all(newton):
                g = ct
            else:
                nu, g = _multiplier_fit(g[:, 0], ct)
                nus = [None if kind else mu for kind, mu in zip(newton, nu.tolist())]
                if any(newton):
                    g = np.where(np.array(newton)[:, None, None], ct, g)
        norms = [4.0 * length for length in _lengths(g.reshape(count, -1))]
        out = [[fd, norm, nu, None, None, None] for fd, norm, nu in zip(fds, norms, nus)]
        on = [i for i in range(count) if not norms[i] <= plans[i][2]]
        steps = [i for i in on if newton[i]]
        if steps:
            unit = _units(_take(g, steps), [norms[i] for i in steps], space.signs)
            sides = [math.copysign(1.0, -plans[i][1]) for i in steps]
            for i, b_i in zip(steps, _signed(sides, space.signs, unit)):
                out[i][3:] = b_i, abs(plans[i][1]) / norms[i], -norms[i]
        at = [i for i in on if not newton[i]] if steps else on
        if not at:
            return out
        # the descent rows: ids their rows of the buffers, j their place in the stack
        k, ids = len(at), [rows[i] for i in at]
        ix = _rows(ids)
        unit = _units(_take(g, at), [norms[i] for i in at], space.signs)
        grad = _column([norms[i] for i in at]) * unit
        s = (_column([0.0 if plans[i][1] is None else self.sign[row] * plans[i][1]
                      for i, row in zip(at, ids)]) * self.unit[ix]).reshape(k, -1)
        y = (grad - self.grad[ix]).reshape(k, -1)
        self.grad[ix] = grad
        sy = _inner(s, y)
        # B = side S unit: -1 along -K/||K||, +1 along an L-BFGS direction
        sides = [-1.0] * k
        if space.n == 1 and not level:
            new = [j for j in range(k) if sy[j] > 0.0]
            if new:
                nx = _rows([ids[j] for j in new])
                self.s[nx, :-1] = self.s[nx, 1:]
                self.s[nx, -1] = _take(s, new).view(float)
                self.y[nx, :-1] = self.y[nx, 1:]
                self.y[nx, -1] = _take(y, new).view(float)
                for j in new:
                    rho = self.rho[ids[j]]
                    rho.append(1.0 / sy[j])
                    del rho[:-MEMORY]
            # S is kinked where a chain crosses the causal threshold
            # t^2/4 = delta, and pairs that span the kink mislead
            side = np.sign(0.25 * chains.t * chains.t - chains.delta)
            if k < count:
                side = side[_rows(at)]
            for row, crossed in zip(ids, (side != self.sides[ix]).any(axis=(-2, -1)).tolist()):
                if crossed:
                    self.rho[row].clear()
            self.sides[ix] = side
            held = [j for j in range(k) if self.rho[ids[j]]]
            if held:
                hx = _rows([ids[j] for j in held])
                flat = _take(grad, held).reshape(len(held), -1).view(float)
                d = _two_loops(self.s[hx], self.y[hx], [self.rho[ids[j]] for j in held], flat)
                d = d.view(complex).reshape((len(held),) + grad.shape[1:])
                d = 0.5 * (d + d.conj().swapaxes(-1, -2))
                flat_d = d.reshape(len(held), -1)
                taken, lengths = [], []  # the places in held that take their direction
                for p, (j, length, along) in enumerate(zip(
                        held, _lengths(flat_d), _dots(flat, flat_d.view(float)))):
                    i = at[j]
                    if along / length < -1e-3 * norms[i]:
                        taken.append(p)
                        lengths.append(length)
                        sides[j] = 1.0
                        out[i][4:] = min(length, MAX_STEP), along / length
                    else:
                        self.rho[ids[j]].clear()  # too close to an ascent direction
                if taken:
                    unit[_rows([held[p] for p in taken])] = _take(d, taken) / _column(lengths)
        # the first step along -K/||K||: INITIAL_STEP before the first move,
        # else BB1 on the Hermitian coordinates, scaled to the unit
        # direction, or the last step grown where Re<s, y> <= 0
        rest = [j for j in range(k) if sides[j] < 0.0]
        if rest:
            moves = _take(s, rest)
            for j, ss in zip(rest, _inner(moves, moves)):
                i, c = at[j], sy[j]
                eta = plans[i][1]
                out[i][4:] = (INITIAL_STEP if eta is None else
                              min(ss / c * norms[i] if c > 0.0 else eta * STEP_GROW, MAX_STEP),
                              -norms[i])
        for row, side in zip(ids, sides):
            self.sign[row] = side
        self.unit[ix] = unit
        for i, b_i in zip(at, _signed(sides, space.signs, unit)):
            out[i][3] = b_i
        return out


def _evaluate(requests):
    """The replies to requests of one kind (:func:`_lockstep`).

    Trial requests get one reply each, in order; gradient requests get one
    reply for the round, (commutators, FD pair counts, pass).  One request
    is evaluated alone, with nothing stacked: its reply holds its own
    commutator, FD pair count and pass.  Several share one objective (an
    ``_Objective`` of every slice's mu, or the level set) and one
    evaluation: their gradients one stacked pass, Q and commutator, their
    trials one ``TrialStack``, stacked pass and value call.  The lone path
    is common: a seed that outlives the others descends alone.
    """
    if len(requests) == 1:
        objective, *request = requests[0]
        if len(request) == 1:
            chains = request[0]
            return objective.commutator(chains), chains.fd_pairs, chains
        batch = ChainPass(TrialStack([request]))
        return [(objective.value(batch), batch.constraint, batch.__getitem__)]
    sizes = [len(request[3]) if len(request) == 4 else 1 for request in requests]
    objective = requests[0][0]
    if not isinstance(objective, _LevelSet):
        objective = _Objective(np.array(
            [request[0].mu for request, size in zip(requests, sizes) for _ in range(size)]))
    if len(requests[0]) == 2:
        chains = ChainPass.stacked([request[1] for request in requests])
        return objective.commutator(chains), chains.fd_pairs, chains
    batch = ChainPass(TrialStack([request[1:] for request in requests]))
    values = objective.value(batch)
    starts = np.cumsum([0, *sizes]).tolist()
    return [(values[o:o + c], batch.constraint[o:o + c], lambda j, o=o: batch[o + j])
            for o, c in zip(starts, sizes)]


def _lockstep(solves):
    """Run the seed generators ``solves`` together; returns their results in order.

    A seed yields requests and is sent replies: (objective, pass, plan) asks
    for the commutator at the pass and the step arithmetic of ``plan`` on it
    (:meth:`_Directions.serve`, each seed a row of one ``_Directions``),
    answered by its FD pair count, ||K||, nu, B, the first step and the
    slope; (objective, projector, B, steps) asks for the trials' values,
    their T and a function giving trial j's pass.  Each round evaluates the
    gradient requests of all live seeds, one :func:`_evaluate` call whose
    reply (commutators, FD pair counts, pass) goes as it is to one ``serve``
    call, or,
    when none is left, their trial requests, and replies in seed order, so
    the seeds' trials meet in one stack.  A group of one request is
    evaluated alone and served as a stack of one; as gradients go first,
    that can be one seed's gradient while the other seeds wait with trials.
    An exception ends the run: of the seeds raising in its earliest round,
    the first does.
    """
    results = [None] * len(solves)
    live = [[i, gen, None] for i, gen in enumerate(solves)]  # [index, generator, request]
    directions = _Directions(len(solves))
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
        group = [seed for seed in live if len(seed[2]) == 3] or live  # gradients first
        requests = [seed[2] for seed in group]
        if len(requests[0]) == 4:
            replies = _evaluate(requests)
        else:
            replies = directions.serve([seed[0] for seed in group], requests,
                                       _evaluate([request[:2] for request in requests]))


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
    value = float(value)
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

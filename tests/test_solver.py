import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import dstlab.action
import dstlab.solver
from dstlab import DiscreteSpacetime, FermionicProjector, random_direction, random_projector
from dstlab.action import (
    ChainPass,
    TrialStack,
    action_and_constraint,
    constraint_q_kernel,
    first_variation,
    q_kernel,
    transported,
)
from dstlab.causal import CausalClass, causal_graph
from dstlab.cli import _SOLVER_PARAMS
from dstlab.correlation import (
    TRIANGLE_CAUSAL_THRESHOLD,
    geometry_diagnostics,
    local_correlations,
    triangle_projector,
)
from dstlab.solver import (
    InfeasibleKappa,
    SolverConfig,
    _backtrack,
    _descend,
    _evaluate,
    _LevelSet,
    _lockstep,
    _Objective,
    lagrange_multiplier_estimate,
    landscape_scan,
    minimize,
)
from dstlab.tolerances import DEFAULT


def test_config_validation():
    with pytest.raises(ValueError, match="unknown mode 'annealing'"):
        SolverConfig(mode="annealing")
    with pytest.raises(ValueError, match="constrained mode needs a kappa level"):
        SolverConfig(mode="constrained")
    with pytest.raises(ValueError, match="nonempty seed list"):
        SolverConfig(seeds=())
    # a constrained solve reads no mu and an auxiliary one no kappa
    with pytest.raises(ValueError, match="mu is unused in constrained mode"):
        SolverConfig(mode="constrained", kappa=0.85, mu=0.7)
    with pytest.raises(ValueError, match="kappa is unused in auxiliary mode"):
        SolverConfig(kappa=0.85)


@pytest.mark.parametrize("n, m, f, critical", [(1, 3, 2, 0.5), (2, 3, 3, 0.25)],
                         ids=["n1", "n2"])
def test_an_unset_mu_is_the_critical_weight(n, m, f, critical):
    # mu = None descends S_mu at 1/(2n) of the space solved on
    cfg = SolverConfig(seeds=(0,), max_iter=5)
    assert cfg.mu is None
    assert minimize(DiscreteSpacetime(n, m), f, cfg).multiplier == critical


@pytest.mark.parametrize("name", ["mu", "kappa", "residual_tol", "boost_scale"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_config_rejects_a_non_finite_setting(name, bad):
    # a nan mu used to reach minimize and fail there with an IndexError
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SolverConfig(**{"mode": "constrained", "kappa": 0.85, name: bad})


def test_config_rejects_a_repeated_seed():
    # traces are keyed by seed, and a repeated seed would descend the same start twice
    with pytest.raises(ValueError, match=r"repeated seed in \[0, 1, 0\]"):
        SolverConfig(seeds=(0, 1, 0))


@pytest.mark.parametrize(
    "holds",
    [
        lambda s: 0 < s.STEP_SHRINK < 1,
        lambda s: s.MIN_STEP > 0,
        lambda s: s.INITIAL_STEP > 0,
        lambda s: s.ARMIJO > 0,
        lambda s: s.RESTORE_TOL > 0,
        lambda s: s.RESTORE_STEPS >= 1,
    ],
    ids=["step_shrink", "min_step", "initial_step", "armijo", "constraint_tol",
         "restore_steps"],
)
def test_descent_constants_are_settings_the_descent_can_run(holds):
    # with STEP_SHRINK >= 1 the Armijo search never ends, and a trial off the
    # level set T = kappa needs at least one Newton step to come back
    assert holds(dstlab.solver)


def test_docstring_lists_every_module_constant():
    # the module docstring's "... are module constants" sentence names exactly
    # the UPPER_CASE numeric settings, so a deleted constant cannot linger
    doc = dstlab.solver.__doc__.split("are module constants")[0].rsplit(".  ", 1)[-1]
    named = set(re.findall(r"\b[A-Z][A-Z0-9_]*[A-Z0-9]\b", doc))
    constants = {
        name for name, v in vars(dstlab.solver).items()
        if name.isupper() and isinstance(v, (int, float)) and not isinstance(v, bool)
    }
    assert named == constants


def test_config_fields_are_the_minimize_params():
    # a field that no config can reach would be a setting no run chooses
    assert {f.name for f in fields(SolverConfig)} - {"seeds"} == (
        set(_SOLVER_PARAMS) - {"n", "f", "m"}
    )


KAPPA, NU = 0.85, 0.3


def test_qmat_needs_no_value_call_and_valuing_writes_nothing(monkeypatch):
    # the pass owns its constraint value: valuing it leaves its attributes
    # as they were, and Q of a pass that was never valued, or the level
    # set's pair ([P, Q_S], [P, Q_T]), is the reference and builds no
    # ChainPass, for a fresh pass, a renormalized projector's pass and a
    # stacked slice
    p = random_projector(DiscreteSpacetime(1, 3), 2, seed=4)
    b = random_direction(p.space, seed=5)
    stack = transported(p, b / np.linalg.norm(b), [0.4, 0.2])
    built = _Objective(NU)
    for chains in (ChainPass(p), ChainPass(stack)):
        before = dict(vars(chains))
        built.value(chains)
        assert vars(chains).keys() == before.keys()
        assert all(vars(chains)[name] is value for name, value in before.items())
    passes = [(ChainPass(proj), proj) for proj in (p, p.renormalized())]
    passes.append((ChainPass(stack)[1], stack[1]))
    calls = _count_chain_passes(monkeypatch)
    qs = [built.qmat(chains) for chains, _ in passes]
    pairs = [_LevelSet(KAPPA).commutator(chains) for chains, _ in passes]
    assert calls == []
    for q, pair, (_, proj) in zip(qs, pairs, passes):
        assert np.array_equal(q, q_kernel(proj, NU))
        pm, qs_ref, qt_ref = proj.matrix(), q_kernel(proj, 0.0), constraint_q_kernel(proj)
        assert np.array_equal(pair[0], pm @ qs_ref - qs_ref @ pm)
        assert np.array_equal(pair[1], pm @ qt_ref - qt_ref @ pm)


@pytest.mark.parametrize(
    "cfg",
    [
        SolverConfig(mode="auxiliary", mu=0.5, seeds=(0,), max_iter=30),
        SolverConfig(mode="constrained", kappa=0.85, seeds=(0,), max_iter=30),
    ],
    ids=["auxiliary", "constrained"],
)
def test_descent_reads_the_stored_gram_drift(monkeypatch, cfg):
    def fail(self):
        raise AssertionError("the descent must not form P to check the Gram drift")

    monkeypatch.setattr(FermionicProjector, "check_invariants", fail)
    res = minimize(DiscreteSpacetime(1, 3), 2, cfg)
    assert res.projector.gram_dev <= 1e-14


def _run(descent):
    """What one seed's generator returns when it runs alone."""
    return _lockstep([descent])[0]


def _negate(monkeypatch, value=False):
    """Negate Q of every ``_Objective``, so its descent direction climbs; with
    ``value``, negate F too, so a descent climbs F.

    The patch is on the class: a lone seed's objective and the one objective
    several seeds share in a stacked evaluation both take it.
    """
    qmat, val = _Objective.qmat, _Objective.value
    monkeypatch.setattr(_Objective, "qmat", lambda self, chains: -qmat(self, chains))
    if value:
        monkeypatch.setattr(_Objective, "value", lambda self, chains: -val(self, chains))


@pytest.mark.parametrize(
    "settings, constants, flip, reason, iterations",
    [
        ({"max_iter": 3}, {}, False, "max_iterations", (3, 3)),
        # an ascent direction: no trial passes Armijo down to MIN_STEP
        ({}, {}, True, "line_search_floor", (0, 0)),
        ({}, {"STALL_WINDOW": 1, "STALL_TOL": 1e9}, False, "stalled", (1, 1)),
        ({"residual_tol": 0.1}, {}, False, "converged", (4, 5)),
        # beyond the critical weight S_mu falls through the floor
        ({"mu": 1.0}, {"DIVERGENCE_FLOOR": -1.0}, False, "divergence", (1, 1)),
    ],
    ids=["max_iterations", "line_search_floor", "stalled", "converged", "divergence"],
)
def test_descent_reports_why_it_stopped(
    monkeypatch, settings, constants, flip, reason, iterations
):
    for name, value in constants.items():
        monkeypatch.setattr(dstlab.solver, name, value)
    if flip:
        _negate(monkeypatch)
    asked, evaluate = [], dstlab.solver._evaluate

    def spy(requests):
        asked.extend(request[0] for request in requests if len(request) == 2)
        return evaluate(requests)

    monkeypatch.setattr(dstlab.solver, "_evaluate", spy)
    cfg = SolverConfig(**{"mu": 0.5, **settings})
    # alone, and with a second seed whose requests share its evaluations
    for seeds in ((0,), (0, 1)):
        objectives = [_Objective(cfg.mu) for _ in seeds]
        outs = _lockstep([_descend(
            ChainPass(random_projector(DiscreteSpacetime(1, 3), 2, seed=seed)),
            objective, cfg,
        ) for seed, objective in zip(seeds, objectives)])
        for seed, objective, out in zip(seeds, objectives, outs):
            assert out["exit_reason"] == reason
            assert out["status"] == (
                reason if reason in ("converged", "divergence") else "max_iterations")
            assert out["iterations"] == iterations[seed] == len(out["trace"]) - 1
            # one gradient per iterate, whatever the exit
            assert asked.count(objective) == iterations[seed] + 1


@pytest.mark.parametrize("n, m, f", [(1, 3, 2), (2, 3, 3)])
def test_a_lone_request_is_its_slice_of_a_stacked_evaluation(n, m, f):
    # _evaluate serves one request with its own objective and nothing
    # stacked; the reply must be bit for bit that request's share of a
    # stacked evaluation, whatever its place in the stack: the commutator of
    # S_mu, the level set's pair of commutators, and the trials' values and T
    space = DiscreteSpacetime(n, m)
    starts = [ChainPass(random_projector(space, f, seed=seed)) for seed in (0, 1)]
    objectives = [_Objective(0.3), _Objective(0.25)]
    directions = [random_direction(space, seed=seed) for seed in (2, 3)]
    steps = [[0.9, 0.45, 0.225], [0.5, 0.25]]
    gradients = [(objective, start) for objective, start in zip(objectives, starts)]
    pairs = [(_LevelSet(KAPPA), start) for start in starts]
    trials = [(objective, start.projector, b / np.linalg.norm(b), etas)
              for objective, start, b, etas in zip(objectives, starts, directions, steps)]
    for mine, order in ((0, (0, 1)), (0, (1, 0)), (1, (0, 1)), (1, (1, 0))):
        at = order.index(mine)
        for requests in (gradients, pairs):
            comm, fd, _ = _evaluate([requests[mine]])
            stacked_comm, stacked_fd, _ = _evaluate([requests[i] for i in order])
            assert np.array_equal(comm, stacked_comm[at]) and fd == stacked_fd[at]
        (values, constraints, trial), = _evaluate([trials[mine]])
        stacked_values, stacked_constraints, stacked_trial = _evaluate(
            [trials[i] for i in order])[at]
        assert np.array_equal(values, stacked_values)
        assert np.array_equal(constraints, stacked_constraints)
        for j in range(len(steps[mine])):
            alone, part = dict(vars(trial(j))), dict(vars(stacked_trial(j)))
            assert np.array_equal(alone.pop("projector").basis, part.pop("projector").basis)
            assert alone.keys() == part.keys()
            for name in alone.keys() - {"space"}:
                assert np.array_equal(alone[name], part[name]), name


def _spy_batches(monkeypatch):
    """Record (projector, steps, TrialStack, offset) of every search's batch.

    A stacked orbit step holds the batches of one or more searches, each at
    its offset in the stack.
    """
    batches = []
    init = TrialStack.__init__

    def spy(self, moves):
        init(self, moves)
        offset = 0
        for proj, _, etas in moves:
            batches.append((proj, list(etas), self, offset))
            offset += len(etas)

    monkeypatch.setattr(TrialStack, "__init__", spy)
    return batches


def _spy_accepted(monkeypatch):
    """A function of a batch that gives the first of its trials made a projector, or None.

    The line search makes a projector of the trial it accepts and of no other.
    """
    taken = {}
    getitem = TrialStack.__getitem__

    def spy(self, j):
        taken.setdefault(id(self), []).append(j)
        return getitem(self, j)

    def accepted(proj, etas, stack, offset):
        mine = [j - offset for j in taken.get(id(stack), []) if 0 <= j - offset < len(etas)]
        return mine[0] if mine else None

    monkeypatch.setattr(TrialStack, "__getitem__", spy)
    return accepted


def _examined(accepted, batch):
    """The steps of a batch the Armijo rule examined: all, when it accepted none."""
    j = accepted(*batch)
    return len(batch[1]) if j is None else j + 1


def _searches(monkeypatch, objective, start, max_iter):
    """Descend from the pass ``start`` with spies on the trial stacks and ``_Objective.qmat``.

    Returns the descent's result, the Hermitian gradients K = 4i [P,Q] S of
    its iterates, recomputed from them, and, for every iterate after the
    first that searched, (its pass, the step accepted from the iterate
    before, the first step of its first batch).
    """
    batches, accepted, iterates = _spy_batches(monkeypatch), _spy_accepted(monkeypatch), []
    qmat = _Objective.qmat

    def spy_qmat(self, chains):
        iterates.append((chains, qmat(self, chains)))
        return iterates[-1][1]

    monkeypatch.setattr(_Objective, "qmat", spy_qmat)
    out = _run(_descend(start, objective, SolverConfig(max_iter=max_iter)))
    grads = []
    for chains, q in iterates:
        pm = chains.projector.matrix()
        k = 4j * (pm @ q - q @ pm) * chains.space.signs[None, :]
        grads.append(0.5 * (k + k.conj().T))
    steps = []
    for i in range(1, len(iterates)):
        batch = [t for t in batches if t[0] is iterates[i - 1][0].projector][-1]
        _, etas, stack, offset = batch
        j = accepted(*batch)
        # no renormalization in between
        assert np.array_equal(stack.bases[offset + j], iterates[i][0].projector.basis)
        first = [e[0] for p, e, _, _ in batches if p is iterates[i][0].projector][:1]
        if not first:
            break  # converged at this iterate
        steps.append((iterates[i][0], etas[j], first[0]))
    return out, grads, steps


def _bb_step(s, grad_old, grad, eta):
    """(Re<s, y>, the BB1 rule's first trial) after the move s accepted at step eta."""
    sy = float(np.vdot(s, grad - grad_old).real)
    if sy > 0.0:
        rule = float(np.vdot(s, s).real) / sy * float(np.linalg.norm(grad))
    else:
        rule = eta * dstlab.solver.STEP_GROW
    return sy, min(rule, dstlab.solver.MAX_STEP)


def _first_trials(monkeypatch, objective, start, max_iter):
    """The descent's result and, for every iterate after the first, (Re<s, y>, the
    BB1 rule's first trial, the first step of the first batch made from it),
    with s the last accepted move -eta k in Hermitian coordinates and y the
    change in K, both recomputed from the iterates.
    """
    out, grads, steps = _searches(monkeypatch, objective, start, max_iter)
    assert np.all(np.diff(out["trace"]) <= 0.0)  # monotone descent
    rows = []
    for i, (_, eta, first) in enumerate(steps, 1):
        s = -eta * grads[i - 1] / np.linalg.norm(grads[i - 1])
        rows.append((*_bb_step(s, grads[i - 1], grads[i], eta), first))
    return out, rows


def _flat(h):
    """A Hermitian matrix as the real vector whose dot product is Re<., .>."""
    return np.ascontiguousarray(h).ravel().view(float)


def _bfgs_direction(pairs, grad):
    """-H K with H the explicit BFGS inverse Hessian of ``pairs`` (s, y), oldest first.

    H_0 = Re<s, y>/<y, y> of the newest pair, then H <- V^T H V + rho s s^T
    with V = I - rho y s^T, rho = 1/Re<s, y> (Nocedal and Wright, eq. 6.17),
    in the real coordinates of :func:`_flat`.
    """
    s, y = _flat(pairs[-1][0]), _flat(pairs[-1][1])
    h = s.dot(y) / y.dot(y) * np.eye(len(s))
    for s, y in pairs:
        s, y = _flat(s), _flat(y)
        rho = 1.0 / s.dot(y)
        v = np.eye(len(s)) - rho * np.outer(y, s)
        h = v.T @ h @ v + rho * np.outer(s, s)
    return (-h @ _flat(grad)).view(complex).reshape(np.shape(grad))


@pytest.mark.parametrize("settings", [{"mu": 0.5}, {"mode": "constrained", "kappa": KAPPA}],
                         ids=["auxiliary", "constrained"])
def test_a_one_seed_solve_stacks_nothing(monkeypatch, settings):
    # every request of a lone seed takes _evaluate's lone path: no stacked
    # gradient pass and no objective with per-slice parameters
    stacked, params = [], []
    stack, init = ChainPass.stacked.__func__, _Objective.__init__

    def spy_stacked(cls, passes):
        stacked.append(len(passes))
        return stack(cls, passes)

    def spy_init(self, *args):
        params.append(any(np.ndim(v) for v in args))
        init(self, *args)

    monkeypatch.setattr(ChainPass, "stacked", classmethod(spy_stacked))
    monkeypatch.setattr(_Objective, "__init__", spy_init)

    def solve(seeds):
        stacked.clear()
        params.clear()
        minimize(DiscreteSpacetime(1, 3), 2, SolverConfig(seeds=seeds, max_iter=30, **settings))
        return bool(stacked), any(params)

    assert solve((0, 1)) == (True, True)  # the spies see a stacked solve
    assert solve((0,)) == (False, False)

def _level_set_gradient(chains):
    """K = 4i G S of G = C_S - nu C_T, nu the fit of the level set's pair at the pass."""
    cs, ct = _LevelSet(KAPPA).commutator(chains)
    _, g = dstlab.solver._multiplier_fit(cs, ct)
    k = 4j * g * chains.space.signs[None, :]
    return 0.5 * (k + k.conj().T)


def _level_set_first_trials(monkeypatch, seed, max_iter):
    """The level-set descent of a start at m = 3, kappa = KAPPA and, for every
    search after its first, (Re<s, y>, the BB1 rule's first trial, the first
    step of the search), with s the last accepted move -eta k and y the change
    in K, both recomputed from the iterates' pairs (C_S, C_T).
    """
    searches = []
    backtrack = dstlab.solver._backtrack

    def spy(chains, objective, b, step, *args, accept=None, **kwargs):
        out = yield from backtrack(chains, objective, b, step, *args, accept=accept, **kwargs)
        if accept is not None:  # a level-set search, not the start's restoration
            searches.append((chains, step, out))
        return out

    monkeypatch.setattr(dstlab.solver, "_backtrack", spy)
    start = ChainPass(random_projector(DiscreteSpacetime(1, 3), 2, seed=seed))
    out = _run(_descend(start, _LevelSet(KAPPA), SolverConfig(max_iter=max_iter)))
    # S never rises once the start is on the level set
    assert np.all(np.diff(out["trace"][-len(searches) - 1:]) <= 0.0)
    rows = []
    for (before, _, (taken, _, eta, _)), (after, first, _) in zip(searches, searches[1:]):
        assert after is taken  # the restored trial, not renormalized
        grad_old, grad = _level_set_gradient(before), _level_set_gradient(after)
        s = -eta * grad_old / np.linalg.norm(grad_old)
        rows.append((*_bb_step(s, grad_old, grad, eta), first))
    return out, rows


def test_first_trial_is_the_barzilai_borwein_step(monkeypatch):
    # the level set keeps the BB1 rule (L-BFGS directions made the
    # constrained triangle slower); past 20 iterations Re<s, y> falls to the
    # rounding of y on the causal threshold, where no recomputation matches
    out, rows = _level_set_first_trials(monkeypatch, 0, 20)
    assert out["iterations"] == 20 and len(rows) >= 10
    for sy, rule, first in rows:
        assert sy > 0.0
        assert first == pytest.approx(rule, rel=1e-12)


def test_first_trial_grows_the_last_step_without_positive_curvature(monkeypatch):
    # climbing S (value -S, qmat -Q) meets only Re<s, y> <= 0 before its
    # divergence floor: each first trial is the last step times STEP_GROW
    _negate(monkeypatch, value=True)
    start = ChainPass(random_projector(DiscreteSpacetime(1, 3), 2, seed=0, boost_scale=0.5))
    out, rows = _first_trials(monkeypatch, _Objective(0.5), start, 20)
    assert out["exit_reason"] == "divergence" and len(rows) >= 2
    for sy, rule, first in rows:
        assert sy <= 0.0
        assert first == rule
    assert [first for _, _, first in rows] == [
        dstlab.solver.INITIAL_STEP * dstlab.solver.STEP_GROW ** (i + 1)
        for i in range(len(rows))
    ]


def _switching_rules(out, rows):
    # the level set and n = 2 keep the BB1 rule; these descents meet both
    # signs of Re<s, y>
    assert out["iterations"] == 20
    assert {sy > 0.0 for sy, _, _ in rows} == {True, False}
    for sy, rule, first in rows:
        assert first == pytest.approx(rule, rel=1e-12)


def test_first_trial_switches_rules_with_the_sign_of_the_curvature(monkeypatch):
    _switching_rules(*_level_set_first_trials(monkeypatch, 3, 20))


def test_first_trial_at_n2_switches_rules_with_the_sign_of_the_curvature(monkeypatch):
    # beyond the critical weight 1/4 of n = 2
    start = ChainPass(random_projector(DiscreteSpacetime(2, 3), 3, seed=0))
    _switching_rules(*_first_trials(monkeypatch, _Objective(0.4), start, 20))


def test_auxiliary_first_trial_is_the_quasi_newton_step(monkeypatch):
    # an auxiliary descent at n = 1 first tries min(||H_k K||, MAX_STEP), H_k
    # the BFGS inverse Hessian of the pairs (s, y) with Re<s, y> > 0 kept
    # since the last restart, and BB1 along -K/||K|| on an empty memory.  The
    # memory restarts when a chain pair crosses the causal threshold and when
    # H_k K is too close to an ascent direction
    sv = dstlab.solver
    start = ChainPass(random_projector(DiscreteSpacetime(1, 4), 2, seed=7))
    out, grads, steps = _searches(monkeypatch, _Objective(0.5), start, 2000)
    assert out["exit_reason"] == "converged"
    # monotone to the rounding that the line search forgives, 8 eps (1 + |F|)
    trace = out["trace"]
    assert np.all(np.diff(trace) <= 8.0 * np.finfo(float).eps * (1.0 + np.abs(trace[:-1])))
    pairs, sides = [], np.sign(0.25 * start.t ** 2 - start.delta)
    s = -steps[0][1] * grads[0] / np.linalg.norm(grads[0])
    rules = {"quasi_newton": 0, "bb1": 0, "crossed": 0}
    for i, (chains, eta, first) in enumerate(steps, 1):
        grad, y = grads[i], grads[i] - grads[i - 1]
        if np.vdot(s, y).real > 0.0:
            pairs = [*pairs, (s, y)][-sv.MEMORY:]
        side = np.sign(0.25 * chains.t ** 2 - chains.delta)
        if not np.array_equal(side, sides):
            pairs = []
            rules["crossed"] += 1
        sides = side
        descent = False
        if pairs:
            d = _bfgs_direction(pairs, grad)
            d_norm = np.linalg.norm(d)
            descent = np.vdot(grad, d).real < -1e-3 * np.linalg.norm(grad) * d_norm
        if descent:
            rules["quasi_newton"] += 1
            assert first == pytest.approx(min(d_norm, sv.MAX_STEP), rel=1e-9)
            move = d / d_norm
        else:
            pairs = []
            rules["bb1"] += 1
            assert first == pytest.approx(_bb_step(s, grads[i - 1], grad, eta)[1], rel=1e-12)
            move = -grad / np.linalg.norm(grad)
        if i < len(steps):
            s = steps[i][1] * move
    assert rules["quasi_newton"] > 4 * rules["bb1"] and rules["crossed"] > 0


@pytest.mark.parametrize("md, count", [(4, 1), (8, 3), (8, 6), (10, 6)])
def test_two_loop_is_the_bfgs_inverse_hessian_product(md, count):
    # on random Hermitian pairs with Re<s, y> > 0, flattened to real
    # coordinates, the two-loop recursion equals the explicit BFGS recursion,
    # and -H_k K is a descent direction
    rng = np.random.default_rng(md + count)

    def hermitian():
        a = rng.normal(size=(md, md)) + 1j * rng.normal(size=(md, md))
        return a + a.conj().T

    pairs = []
    while len(pairs) < count:
        s = hermitian()
        y = 2.0 * s + hermitian()
        if np.vdot(s, y).real > 0.0:
            pairs.append((s, y))
    grad = hermitian()
    memory = [(_flat(s), _flat(y), 1.0 / np.vdot(s, y).real) for s, y in pairs]
    d = dstlab.solver._two_loop(memory, _flat(grad)).view(complex).reshape(md, md)
    expected = _bfgs_direction(pairs, grad)
    assert np.linalg.norm(d - expected) <= 1e-12 * np.linalg.norm(expected)
    assert np.vdot(grad, d).real < 0.0
    assert np.linalg.norm(d - d.conj().T) <= 1e-14 * np.linalg.norm(d)


def _unit_gradient(comm, signs):
    """(||K||, K/||K||, K) of K = 4i [P, Q] S by one seed's matrix operations."""
    flat = comm.ravel()
    grad_norm = 4.0 * math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))
    k = (4j / grad_norm) * (comm * signs)
    k = 0.5 * (k + k.conj().T)
    return grad_norm, k, grad_norm * k


def _one_seed_step(chains, comm, moved, memory, sides, eta):
    """(||K||, B, first step, slope) of one auxiliary seed at n = 1 alone; updates ``memory``.

    The oracle of ``dstlab.solver._Directions``: one seed's matrix
    operations, Re<s, y> by np.vdot, the threshold signs compared by
    np.array_equal, L-BFGS directions by ``dstlab.solver._two_loop`` on a
    list of pairs, and BB1 along -K/||K|| where the memory is empty or its
    direction too close to an ascent.  ``moved`` is (s, K at the last
    iterate) or None, ``sides`` the last iterate's signs or None and ``eta``
    the step accepted from it.
    """
    sv, signs = dstlab.solver, chains.space.signs
    grad_norm, k, grad = _unit_gradient(comm, signs)
    if moved is not None:
        s, grad_old = moved
        y = grad - grad_old
        sy = float(np.vdot(s, y).real)
        if sy > 0.0:
            memory.append((_flat(s), _flat(y), 1.0 / sy))
            del memory[:-sv.MEMORY]
    side = np.sign(0.25 * chains.t * chains.t - chains.delta)
    if sides is not None and not np.array_equal(side, sides):
        memory.clear()
    if memory:
        d = sv._two_loop(memory, _flat(grad)).view(complex).reshape(k.shape)
        d = 0.5 * (d + d.conj().T)
        flat = d.ravel()
        d_norm = math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))
        slope = _flat(grad).dot(flat.view(float)) / d_norm
        if slope < -1e-3 * grad_norm:
            return grad_norm, signs[:, None] * (d / d_norm), min(d_norm, sv.MAX_STEP), slope
        memory.clear()
    step = sv.INITIAL_STEP
    if moved is not None:
        step = float(np.vdot(s, s).real) / sy * grad_norm if sy > 0.0 else eta * sv.STEP_GROW
        step = min(step, sv.MAX_STEP)
    return grad_norm, -signs[:, None] * k, step, -grad_norm


def _ascent_pair(space):
    """(s, y) with Re<s, y> = 1e-6 whose L-BFGS direction at the m = 4 start of seed 6 is too
    close to an ascent direction, so the memory holding it is cleared."""
    rng = np.random.default_rng(53)
    s, y = (rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
            for _ in range(2))
    s, y = s + s.conj().T, y + y.conj().T
    return s, y + (1e-6 - np.vdot(s, y).real) / np.vdot(s, s).real * s


@pytest.mark.parametrize("rows", [range(7), (0, 2, 3, 5, 7, 8, 10)], ids=["consecutive", "spread"])
def test_stacked_directions_are_each_seeds_own_arithmetic(rows):
    # one round of seven seeds served together, their memories holding 0,
    # 0, 1, 3, 6, 6 and 1 pairs before it: the first seed at its first
    # iterate, the sixth crossing the causal threshold, which clears its
    # memory, and the last with a pair whose direction is too close to an
    # ascent, which clears it too.  The slots a row does not hold keep stale
    # pairs.  Each reply is bit for bit that seed's own step arithmetic, the
    # L-BFGS recursion _two_loop on its own pairs, whether the rows of the
    # stack are consecutive or not
    sv = dstlab.solver
    space = DiscreteSpacetime(1, 4)
    rng = np.random.default_rng(11)

    def hermitian():
        a = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
        return a + a.conj().T

    directions = sv._Directions(max(rows) + 1)
    directions._allocate(space)
    directions.s[:], directions.y[:] = (rng.normal(size=directions.s.shape) for _ in range(2))
    requests, comms, passes, expected, memories = [], [], [], [], []
    for seed, (row, held) in enumerate(zip(rows, (0, 0, 1, 3, 6, 6, 1))):
        chains = ChainPass(random_projector(space, 2, seed=seed))
        comm = _Objective(0.5).commutator(chains)
        grad = _unit_gradient(comm, space.signs)[2]
        side = np.sign(0.25 * chains.t * chains.t - chains.delta)
        moved = sides = eta = None
        if seed:
            h = hermitian()
            h /= np.linalg.norm(h)
            eta = 0.3 + 0.1 * seed
            s = eta * h
            # Re<s, y> > 0 adds the pair (s, y), but not for the last seed
            y = 2.0 * s + 0.1 * hermitian() if seed < 6 else -2.0 * s
            moved, sides = (s, grad - y), side.copy()
            if seed == 5:
                sides[0, 1] = -sides[0, 1]  # the last iterate was across the threshold
            directions.unit[row], directions.sign[row] = h, 1.0
            directions.grad[row], directions.sides[row] = grad - y, sides
        pairs = [_ascent_pair(space)] if seed == 6 else []
        while len(pairs) < held:
            s_i = hermitian()
            pairs.append((s_i, 2.0 * s_i + 0.1 * hermitian()))
        memory = [(_flat(s_i), _flat(y_i), 1.0 / float(np.vdot(s_i, y_i).real))
                  for s_i, y_i in pairs]
        if held:
            directions.s[row, -held:] = [pair[0] for pair in memory]
            directions.y[row, -held:] = [pair[1] for pair in memory]
            directions.rho[row] = [pair[2] for pair in memory]
        requests.append((_Objective(0.5), chains, ("descent", eta, 1e-8)))
        comms.append(comm)
        passes.append(chains)
        expected.append(_one_seed_step(chains, comm, moved, memory, sides, eta))
        memories.append(len(memory))
    served = directions.serve(list(rows), requests,
                              (np.array(comms), [0] * len(rows), ChainPass.stacked(passes)))
    for (fd, norm, nu, b, step, slope), (norm_1, b_1, step_1, slope_1) in zip(served, expected):
        assert (fd, norm, nu, step, slope) == (0, norm_1, None, step_1, slope_1)
        assert b.tobytes() == b_1.tobytes()
    assert [len(directions.rho[row]) for row in rows] == memories == [0, 1, 2, 4, 6, 0, 0]
    # the first iterate and the two cleared memories go along -K/||K||, the
    # others take L-BFGS directions
    assert [slope == -norm for _, norm, _, _, _, slope in served] == [
        True, False, False, False, False, True, True]
    assert served[0][4] == sv.INITIAL_STEP
    assert served[6][4] == min((0.3 + 0.1 * 6) * sv.STEP_GROW, sv.MAX_STEP)


def test_a_mixed_level_set_round_is_each_seeds_round_alone():
    # on the level set one round can hold Newton steps of restorations and
    # descent steps; served together, each reply is bit for bit the seed's
    # reply served alone
    sv, level = dstlab.solver, _LevelSet(KAPPA)
    space = DiscreteSpacetime(1, 3)
    requests, replies = [], []
    for seed in range(4):
        chains = ChainPass(random_projector(space, 2, seed=seed))
        plan = (("newton", chains.constraint - KAPPA, 1e-8) if seed % 2 else
                ("descent", None, 1e-8))
        requests.append((level, chains, plan))
        replies.append((level.commutator(chains), 0, chains))
    together = sv._Directions(4).serve(list(range(4)), requests, (
        np.array([reply[0] for reply in replies]), [0] * 4,
        ChainPass.stacked([request[1] for request in requests])))
    for row, (request, reply, served) in enumerate(zip(requests, replies, together)):
        alone, = sv._Directions(4).serve([row], [request], reply)
        assert (alone[2] is None) == (request[2][0] == "newton")
        assert alone[:3] + alone[4:] == served[:3] + served[4:]
        assert alone[3].tobytes() == served[3].tobytes()


@pytest.mark.parametrize("scale, seeds", [(1.0, (0,)), (2.0, (0,)), (1.0, (0, 1)),
                                          (2.0, (0, 1)), (2.0, (1, 0))],
                         ids=["true_q", "mis_scaled_q", "true_q_two_seeds",
                              "mis_scaled_q_two_seeds", "mis_scaled_q_two_seeds_reversed"])
def test_first_iterate_derivative_check(monkeypatch, scale, seeds):
    # a Q scaled by 2 doubles the analytic slope along the same direction,
    # which the central difference of the value then contradicts.  Seeds that
    # descend together fail at the same step, and the first in seed order
    # raises its own error
    q_kernel = dstlab.solver.q_kernel
    monkeypatch.setattr(dstlab.solver, "q_kernel",
                        lambda chains, mu: scale * q_kernel(chains, mu))

    def descend(seeds):
        return _lockstep([_descend(
            ChainPass(random_projector(DiscreteSpacetime(1, 3), 2, seed=seed)),
            _Objective(0.5),
            SolverConfig(mu=0.5, max_iter=2),
            check_first=True,
        ) for seed in seeds])

    if scale == 1.0:
        assert [out["iterations"] for out in descend(seeds)] == [2] * len(seeds)
        return

    def error(group):
        with pytest.raises(RuntimeError, match="first-iterate derivative check failed") as err:
            descend(group)
        return str(err.value)

    assert error(seeds) == error(seeds[:1])
    if len(seeds) > 1:
        assert error(seeds[1:]) != error(seeds[:1])


def test_level_set_minimum_is_the_closed_form_at_m4():
    # at m = 4, kappa = 2/5 the constrained minimum is S = (1 + 3 sqrt 5)/20
    # with multiplier (sqrt 5 - 1)/2 (ROADMAP item 13); every seed converges
    # there, on T = kappa to the restoration's tolerance
    cfg = SolverConfig(mode="constrained", kappa=0.4, seeds=tuple(range(4)))
    res = minimize(DiscreteSpacetime(1, 4), 2, cfg)
    for rec in res.per_seed:
        assert rec["exit_reason"] == "converged"
        assert abs(rec["action"] - (1.0 + 3.0 * math.sqrt(5.0)) / 20.0) <= 1e-12
        assert abs(rec["multiplier"] - (math.sqrt(5.0) - 1.0) / 2.0) <= 1e-8
        assert abs(rec["constraint"] - 0.4) <= dstlab.solver.RESTORE_TOL * 1.4
    assert len(res.traces) == 4 and all(len(rounds) == 1 for rounds in res.traces.values())

def test_tetrahedron_emerges_in_critical_mode():
    cfg = SolverConfig(mode="auxiliary", mu=0.5, seeds=tuple(range(4)))
    res = minimize(DiscreteSpacetime(1, 4), 2, cfg)
    assert abs(res.action - 1.0 / 6.0) < 1e-6
    corr = local_correlations(res.projector)
    rep = geometry_diagnostics(corr)
    assert np.max(np.abs(corr.rho - 0.5)) < 1e-4
    assert rep["simplex_error"] < 5e-3
    # iterates stay valid projectors throughout
    checks = res.projector.check_invariants()
    assert checks["idempotency"] < 1e-9
    assert checks["gram"] < 1e-12
    # monotone descent per seed
    for segments in res.traces.values():
        for seg in segments:
            assert np.all(np.diff(seg) <= 1e-14)


def test_runs_are_deterministic():
    cfg = SolverConfig(mode="auxiliary", mu=0.5, seeds=(0, 1), max_iter=150)
    a = minimize(DiscreteSpacetime(1, 3), 2, cfg)
    b = minimize(DiscreteSpacetime(1, 3), 2, cfg)
    assert a.action == b.action
    assert a.seed == b.seed
    assert np.array_equal(a.projector.basis, b.projector.basis)


def test_divergence_beyond_critical_weight(monkeypatch):
    monkeypatch.setattr(dstlab.solver, "DIVERGENCE_FLOOR", -1e3)
    cfg = SolverConfig(mode="auxiliary", mu=0.7, seeds=(0,), max_iter=5000)
    res = minimize(DiscreteSpacetime(1, 3), 2, cfg)
    assert res.status == "divergence"
    assert res.action < -1e3


def test_constrained_triangle_near_threshold():
    # just above the constraint threshold the level-set descents end near a
    # spacelike triangle with nearly equal sides; that endpoint is not known
    # to be the symmetric minimizer (an isosceles triangle with two pairs on
    # the causal threshold lies lower)
    kappa = 0.85
    cfg = SolverConfig(mode="constrained", kappa=kappa, seeds=tuple(range(4)))
    res = minimize(DiscreteSpacetime(1, 3), 2, cfg)
    assert abs(res.constraint - kappa) < 1e-6
    corr = local_correlations(res.projector)
    rep = geometry_diagnostics(corr)
    assert rep["length_mean"] > TRIANGLE_CAUSAL_THRESHOLD
    assert rep["length_spread"] < 0.02
    assert causal_graph(res.projector).off_diagonal_class() is CausalClass.SPACELIKE
    # the multiplier is the descent's least-squares fit at its last
    # iterate, so this compares the fit with itself on the returned projector
    assert res.multiplier > 0.5
    est = lagrange_multiplier_estimate(res.projector)
    assert math.isfinite(est.value)
    assert abs(est.value - res.multiplier) < 0.05
    assert est.residual < 1e-2


def test_infeasible_constraint_level_rejected():
    # the damped restoration of every start settles at T = 2/3 (m = 3) or
    # 1/3 (m = 4), short of kappa, before the budget runs out
    for m, kappa in [(3, 0.01), (3, 0.66), (3, 0.6666), (4, 0.3)]:
        cfg = SolverConfig(mode="constrained", kappa=kappa, seeds=(0, 1))
        with pytest.raises(InfeasibleKappa, match=r"best \|T - kappa\|"):
            minimize(DiscreteSpacetime(1, m), 2, cfg)


def test_constraint_level_just_above_the_bound_is_reached():
    cfg = SolverConfig(mode="constrained", kappa=0.6667, seeds=(0, 1))
    res = minimize(DiscreteSpacetime(1, 3), 2, cfg)
    assert abs(res.constraint - 0.6667) <= 1e-6


def test_infeasible_level_with_a_short_budget_returns_max_iterations():
    # a seed that ran out of iterations has not settled, so there is no verdict
    cfg = SolverConfig(mode="constrained", kappa=0.01, seeds=(0, 1), max_iter=10)
    res = minimize(DiscreteSpacetime(1, 3), 2, cfg)
    assert res.status == "max_iterations"
    assert "max_iterations" in [r["exit_reason"] for r in res.per_seed]


def test_multiplier_undetermined_at_symmetric_minimizers():
    # auxiliary minimizers are stationary for the constraint functional too,
    # so no multiplier is determined there
    cfg = SolverConfig(mode="auxiliary", mu=0.3, seeds=(0, 1))
    res = minimize(DiscreteSpacetime(1, 4), 2, cfg)
    est = lagrange_multiplier_estimate(res.projector)
    assert est.status == "inconclusive"
    assert est.t_stationarity < 1e-7


def test_multiplier_fit_rejects_non_stationary_points():
    est = lagrange_multiplier_estimate(
        random_projector(DiscreteSpacetime(1, 3), 2, seed=5)
    )
    assert est.status == "inconclusive"
    assert est.residual > 1e-2


def test_multiplier_fit_is_the_limit_of_random_direction_fits():
    # the exact fit projects [P, Q_S] on [P, Q_T]; a fit of dS = mu dT over
    # isotropic random unit directions tends to it
    p = random_projector(DiscreteSpacetime(1, 3), 2, seed=5)
    est = lagrange_multiplier_estimate(p)
    chains = ChainPass(p)
    qs, qt, pm = q_kernel(chains, 0.0), constraint_q_kernel(chains), p.matrix()
    cs, ct = pm @ qs - qs @ pm, pm @ qt - qt @ pm
    ds, dt = np.empty(400), np.empty(400)
    for k in range(400):
        b = random_direction(p.space, seed=k)
        b /= np.linalg.norm(b)
        ds[k], dt[k] = first_variation(cs, b), first_variation(ct, b)
    value = ds @ dt / (dt @ dt)
    assert abs(value - est.value) <= 0.02 * abs(est.value)
    assert abs(np.linalg.norm(ds - value * dt) / np.linalg.norm(ds) - est.residual) <= 0.02


def test_landscape_scan_of_triangle_family():
    grid = [0.6, 2.0 / 3.0, 0.7, TRIANGLE_CAUSAL_THRESHOLD, 0.8]
    records = landscape_scan(triangle_projector, grid, mu=0.5)
    assert "error" in records[0]  # v < 2/3 is not realizable

    at_start = records[1]
    roots = at_start["roots"]
    assert abs(roots[-1] - 1.0 / 9.0) < 1e-10
    assert abs(roots[0]) < 1e-10

    assert records[2]["causal_offdiag"] == "timelike"
    assert abs(records[3]["constraint"] - 68.0 / 81.0) < 1e-10
    assert records[4]["causal_offdiag"] == "spacelike"
    # the action rises along the family while the critical Lagrangian of the
    # spacelike pairs vanishes
    assert records[4]["action"] > records[2]["action"] > 0.0


@pytest.mark.parametrize("gram", [DEFAULT.gram, 1e-16], ids=["default", "tight_gram"])
def test_per_seed_counts_armijo_trials_and_renormalizations(monkeypatch, gram):
    # the line search examines the steps of each of its batches up to the
    # trial it accepts, the only one it makes a projector of (all of them
    # when it accepts none), whether or not the batch shares its stack with
    # other seeds'; the first-iterate derivative check of each seed adds a
    # batch of two
    batches, accepted, renormalized = _spy_batches(monkeypatch), _spy_accepted(monkeypatch), []
    original = FermionicProjector.renormalized

    def counted_renormalized(self):
        renormalized.append(1)
        return original(self)

    monkeypatch.setattr(FermionicProjector, "renormalized", counted_renormalized)
    cfg = SolverConfig(mode="auxiliary", mu=0.5, seeds=(0, 1), max_iter=3)
    res = minimize(DiscreteSpacetime(1, 3), 2, cfg, DEFAULT.with_(gram=gram))
    # the two seeds descend together, so their batches share stacks
    assert len({id(stack) for _, _, stack, _ in batches}) < len(batches)
    examined = sum(_examined(accepted, batch) for batch in batches)
    assert sum(r["armijo_trials"] for r in res.per_seed) == examined - 2 * 2
    assert sum(r["renormalizations"] for r in res.per_seed) == len(renormalized)
    for rec in res.per_seed:
        assert rec["armijo_trials"] >= rec["iterations"] == 3
    if gram < DEFAULT.gram:
        assert len(renormalized) > 0


def _count_chain_passes(monkeypatch):
    calls = []
    init = dstlab.action.ChainPass.__init__

    def counted(self, projector):
        calls.append(projector)
        init(self, projector)

    monkeypatch.setattr(dstlab.action.ChainPass, "__init__", counted)
    return calls


@pytest.mark.parametrize("objective", [
    lambda: _Objective(0.5),
    lambda: _LevelSet(KAPPA),
], ids=["auxiliary", "level_set"])
def test_one_chain_pass_per_armijo_batch(monkeypatch, objective):
    # the start's value makes one pass and every batch of trials one stacked
    # pass, the Newton steps of the level set's restorations included; the
    # gradient and the commutator of an accepted iterate make none
    passes, batches = _count_chain_passes(monkeypatch), _spy_batches(monkeypatch)
    out = _run(_descend(ChainPass(random_projector(DiscreteSpacetime(1, 3), 2, seed=2)),
                        objective(), SolverConfig(max_iter=25)))
    assert out["iterations"] > 10 and out["renormalizations"] == 0
    assert len(passes) == 1 + len(batches)
    assert all(p is stack for p, (_, _, stack, _) in zip(passes[1:], batches))


@pytest.mark.parametrize("gram, seeds", [
    (DEFAULT.gram, (0,)), (1e-16, (0,)), (DEFAULT.gram, (0, 1)), (1e-16, (0, 1)),
], ids=["default", "tight_gram", "default_two_seeds", "tight_gram_two_seeds"])
def test_constrained_seed_makes_no_pass_at_a_round_end_or_for_its_record(
    monkeypatch, gram, seeds
):
    # each start, every stacked orbit step (line-search batches, Newton
    # steps and the derivative check, of one seed or of seeds descending
    # together) and every renormalized iterate make one pass each, and
    # nothing else does: not the replies at the end of a lockstep round,
    # nor the multiplier fit or the record, which read the last pass
    passes, batches = _count_chain_passes(monkeypatch), _spy_batches(monkeypatch)
    tol = DEFAULT.with_(gram=gram)
    cfg = SolverConfig(mode="constrained", kappa=KAPPA, max_iter=30)
    solved = _lockstep([dstlab.solver._solve_seed(
        random_projector(DiscreteSpacetime(1, 3), 2, seed=seed, tol=tol), cfg) for seed in seeds])
    renormalizations = sum(record["renormalizations"] for record, _ in solved)
    stacks = len({id(stack) for _, _, stack, _ in batches})
    assert len(passes) == len(seeds) + stacks + renormalizations
    assert (stacks < len(batches)) == (len(seeds) > 1)
    if gram < DEFAULT.gram:
        assert renormalizations > 0
    monkeypatch.undo()
    for record, traces in solved:
        assert len(traces) == 1
        assert (record["action"], record["constraint"]) == action_and_constraint(
            record["projector"], 0.0)


@pytest.mark.parametrize("n, m, f, settings, collision", [
    (1, 3, 2, {"mu": 0.5}, 1e-4),
    (1, 3, 2, {"mode": "constrained", "kappa": KAPPA}, 1e-4),
    # at 1e-4 the n = 2 FD fallback fails the first-iterate derivative check
    (2, 3, 3, {"mu": 0.25}, 1e-5),
], ids=["auxiliary_n1", "constrained_n1", "auxiliary_n2"])
def test_the_tolerances_of_a_solve_reach_every_evaluation(
    monkeypatch, n, m, f, settings, collision
):
    # minimize hands its bundle to the starts only; every chain pass, trial
    # stack and Q after them reads the bundle of what it is made of, so each
    # must carry that exact bundle: the two seeds' stacked passes too, and the
    # iterate the constrained solve renormalizes
    tol = DEFAULT.with_(eig_collision=collision, gram=1e-12)
    made, evaluated = [], []
    for cls in (ChainPass, TrialStack):
        def spy(self, source, init=cls.__init__):
            init(self, source)
            made.append(self)

        monkeypatch.setattr(cls, "__init__", spy)
    q = ChainPass.q

    def spy_q(self, w_sq, w_abs):
        evaluated.append(self.tol)
        return q(self, w_sq, w_abs)

    monkeypatch.setattr(ChainPass, "q", spy_q)
    cfg = SolverConfig(seeds=(0, 1), max_iter=30, **settings)
    res = minimize(DiscreteSpacetime(n, m), f, cfg, tol)
    assert {type(obj) for obj in made} == {ChainPass, TrialStack} and evaluated
    assert all(obj.tol is tol for obj in made)
    assert all(bundle is tol for bundle in evaluated)
    assert res.projector.tol is tol


def _sequential_descent(chains, objective, cfg):
    """The descent with one transported, one chain pass and one value call per Armijo trial.

    Its direction rule is the auxiliary descent's: L-BFGS directions from
    ``dstlab.solver._two_loop`` at n = 1, restarted where a chain pair
    crosses the causal threshold, else BB1 along -K/||K||; so is its
    forgiveness of rounding at the end of a descent at n = 1.
    Returns (projector, trace, Armijo trials, exit reason).
    """
    sv = dstlab.solver
    value, qmat = objective.value, objective.qmat
    signs = chains.projector.space.signs
    current = value(chains)
    trace, step, moved, reason, trials = [current], sv.INITIAL_STEP, None, "max_iterations", 0
    pairs = [] if chains.space.n == 1 else None
    sides = None
    for _ in range(cfg.max_iter):
        if current < sv.DIVERGENCE_FLOOR:
            reason = "divergence"
            break
        q, p = qmat(chains), chains.projector.matrix()
        comm = p @ q - q @ p
        grad_norm = 4.0 * float(np.linalg.norm(comm))
        if grad_norm <= cfg.residual_tol:
            reason = "converged"
            break
        k = (4j / grad_norm) * (comm * signs[None, :])
        k = 0.5 * (k + k.conj().T)
        grad, h = grad_norm * k, None
        if moved is not None:
            s, grad_old = moved
            y = grad - grad_old
            sy = float(np.vdot(s, y).real)
        if pairs is not None:
            side = np.sign(0.25 * chains.t * chains.t - chains.delta)
            if moved is not None and sy > 0.0:
                pairs = [*pairs, (_flat(s), _flat(y), 1.0 / sy)][-sv.MEMORY:]
            if sides is not None and not np.array_equal(side, sides):
                pairs = []
            sides = side
            if pairs:
                d = sv._two_loop(pairs, _flat(grad)).view(complex).reshape(k.shape)
                d = 0.5 * (d + d.conj().T)
                d_norm = float(np.linalg.norm(d))
                b = signs[:, None] * (d / d_norm)
                slope = first_variation(comm, b)
                if slope < -1e-3 * grad_norm:
                    h, step = d / d_norm, min(d_norm, sv.MAX_STEP)
                else:
                    pairs = []
        if h is None:
            b = -signs[:, None] * k
            if moved is not None:
                step = (float(np.vdot(s, s).real) / sy * grad_norm if sy > 0.0
                        else step * sv.STEP_GROW)
                step = min(step, sv.MAX_STEP)
            slope = first_variation(comm, b)
        # a rise in F of 8 ulps passes where ||K||^2 and the predicted
        # decrease are below 64 ulps (at n = 1)
        ulp = math.ulp(1.0) * (1.0 + abs(current))
        forgive = pairs is not None and grad_norm * max(step, grad_norm) < 64.0 * ulp
        bound = current + (8.0 * ulp if forgive else 0.0)
        while step >= sv.MIN_STEP:
            trials += 1
            trial = ChainPass(transported(chains.projector, b, step))
            trial_value = value(trial)
            if trial_value <= bound + sv.ARMIJO * step * slope:
                chains, current = trial, trial_value
                break
            step *= sv.STEP_SHRINK
        else:
            reason = "line_search_floor"
            break
        trace.append(current)
        if (len(trace) > sv.STALL_WINDOW and trace[-1 - sv.STALL_WINDOW] - current
                <= sv.STALL_TOL * (1.0 + abs(current))):
            reason = "stalled"
            break
        moved = (-step * k if h is None else step * h, grad)
        if chains.projector.gram_dev > chains.tol.gram:
            chains = ChainPass(chains.projector.renormalized())
            value(chains)
    proj = chains.projector
    if proj.gram_dev > 1e-14:
        proj = proj.renormalized()
    return proj, np.array(trace), trials, reason


def _floor_start():
    """The start of seed 4 at m = 8, whose descent at mu = 1/2 ends on the causal
    threshold with a floor search (``reproduce --figure fig1-2``)."""
    return ChainPass(random_projector(DiscreteSpacetime(1, 8), 2, seed=4))


@pytest.mark.parametrize("case", ["auxiliary_m4", "auxiliary_floor", "n2_m3"])
def test_batched_backtracking_matches_the_sequential_search(case):
    # the batches change what is evaluated, not what is accepted: iterates,
    # trace, trials and exit reason equal one trial at a time bit for bit
    cfg = SolverConfig(max_iter=2000)
    if case == "auxiliary_m4":
        start, mu = ChainPass(random_projector(DiscreteSpacetime(1, 4), 2, seed=0)), 0.5
    elif case == "auxiliary_floor":
        start, mu = _floor_start(), 0.5
    else:
        start, mu = ChainPass(random_projector(DiscreteSpacetime(2, 3), 3, seed=0)), 0.25
        cfg = SolverConfig(max_iter=40)
    out = _run(_descend(start, _Objective(mu), cfg))
    proj, trace, trials, reason = _sequential_descent(start, _Objective(mu), cfg)
    assert out["exit_reason"] == reason
    assert (case == "auxiliary_floor") == (reason == "line_search_floor")
    assert out["armijo_trials"] == trials
    assert np.array_equal(out["trace"], trace)
    assert np.array_equal(out["chains"].projector.basis, proj.basis)


@pytest.mark.parametrize("n, m, f", [(1, 4, 1), (1, 4, 2), (1, 4, 3), (2, 3, 3)])
def test_stacked_chain_pass_equals_the_single_passes(n, m, f):
    start = random_projector(DiscreteSpacetime(n, m), f, seed=1)
    b = random_direction(start.space, seed=2)
    b /= np.linalg.norm(b)
    steps = [0.9 * 0.5 ** j for j in range(5)]
    stack = transported(start, b, steps)
    stacked = ChainPass(stack)
    s, t = action_and_constraint(stacked, 0.3)
    # the stacked pass holds one T per trial, and its slices carry theirs
    objective = _Objective(0.3)
    values = objective.value(stacked)
    names = ("p", "t", "det", "delta") if n == 1 else ("p", "kernels", "chains")
    for j, eta in enumerate(steps):
        single = ChainPass(transported(start, b, eta))
        part = stacked[j]
        assert np.array_equal(part.projector.basis, stack.bases[j])
        # the trial's own dense P is its slice of the stacked one
        assert np.array_equal(part.projector.matrix(), stack.dense[j])
        assert np.array_equal(stack[j].basis, single.projector.basis)
        # the one-matrix Cayley step (I - G)^-1 (U + G U), G = (i eta/2) B,
        # with G U taken as (i eta/2) (B U)
        half = 0.5j * eta
        cayley = np.linalg.solve(np.eye(len(b)) - half * b, start.basis + half * (b @ start.basis))
        assert np.array_equal(stack[j].basis, cayley)
        for name in names:
            assert np.array_equal(getattr(part, name), getattr(single, name)), name
        assert (s[j], t[j]) == action_and_constraint(single, 0.3)
        assert np.array_equal(part.roots, single.roots)
        assert np.array_equal(part.q(1.0, -0.3), single.q(1.0, -0.3))
        assert values[j] == objective.value(single) and part.constraint == single.constraint
    # the trials of two searches in one stack, valued and differentiated with
    # one weight per slice over the leading axis, and the passes of single
    # trials joined by ChainPass.stacked, give each slice its single pass's
    # S, Q and FD count
    other = random_projector(start.space, f, seed=3)
    b_other = random_direction(start.space, seed=4)
    moves = [(start, b, steps), (other, b_other / np.linalg.norm(b_other), [0.7, 0.35])]
    both = ChainPass(TrialStack(moves))
    singles = [ChainPass(transported(p, d, eta)) for p, d, etas in moves for eta in etas]
    mus = np.linspace(-0.4, 0.6, len(singles))
    joined = ChainPass.stacked(singles)
    s_both = action_and_constraint(both, mus)[0]
    q_both, q_joined = both.q(1.0, -mus), joined.q(1.0, -mus)
    for j, single in enumerate(singles):
        assert np.array_equal(both.projector.bases[j], single.projector.basis)
        assert s_both[j] == action_and_constraint(single, mus[j])[0]
        q = single.q(1.0, -mus[j])
        assert np.array_equal(q_both[j], q) and np.array_equal(q_joined[j], q)
        if n > 1:
            assert both.fd_pairs[j] == joined.fd_pairs[j] == single.fd_pairs


def _spy_searches(monkeypatch):
    """Record (projector, first step, first batch size) of every line search,
    one that makes no batch included."""
    searches = []
    backtrack = dstlab.solver._backtrack

    def spy(chains, objective, b, step, current, slope, size, *args, **kwargs):
        searches.append((chains.projector, step, size))
        return (yield from backtrack(chains, objective, b, step, current, slope, size,
                                     *args, **kwargs))

    monkeypatch.setattr(dstlab.solver, "_backtrack", spy)
    return searches


def test_backtracking_batches_double_and_stop_at_the_min_step(monkeypatch):
    # a descent that ends on a floor search: every search evaluates
    # batches of s, 2s, 4s, ... of its successive steps, s the trials the
    # previous search examined (1 for the first search), none below MIN_STEP,
    # and at most 2 trials + s - 2 slices for the trials it examined.  A
    # search whose first step is already below MIN_STEP makes no batch, and
    # only the last search, the floor search, can be one
    start = _floor_start()
    batches, accepted = _spy_batches(monkeypatch), _spy_accepted(monkeypatch)
    firsts = _spy_searches(monkeypatch)
    out = _run(_descend(start, _Objective(0.5), SolverConfig()))
    assert out["exit_reason"] == "line_search_floor"
    assert len(firsts) == out["iterations"] + 1
    searches = {}
    for batch in batches:
        searches.setdefault(id(batch[0]), []).append(batch)
    empty = [i for i, (proj, _, _) in enumerate(firsts) if id(proj) not in searches]
    assert empty in ([], [len(firsts) - 1])
    assert all(firsts[i][1] < dstlab.solver.MIN_STEP for i in empty)
    assert len(searches) == len(firsts) - len(empty)
    examined, trials = 0, 1
    for groups, (proj, first, size) in zip(searches.values(), firsts):
        assert groups[0][0] is proj and groups[0][1][0] == first
        # the first batch holds as many steps as the previous search examined
        assert size == trials
        sizes = [len(etas) for _, etas, _, _ in groups]
        assert sizes[:-1] == [size * 2 ** i for i in range(len(groups) - 1)]
        assert 1 <= sizes[-1] <= size * 2 ** (len(groups) - 1)
        steps = [eta for _, etas, _, _ in groups for eta in etas]
        assert min(steps) >= dstlab.solver.MIN_STEP
        assert steps[1:] == [eta * dstlab.solver.STEP_SHRINK for eta in steps[:-1]]
        # every step up to the accepted one, or every step of a floor search
        trials = sum(sizes[:-1]) + _examined(accepted, groups[-1])
        assert len(steps) <= 2 * trials + size - 2
        examined += trials
    assert examined == out["armijo_trials"]
    # the floor search examines every step it evaluates, down to MIN_STEP
    floor = [eta for _, etas, _, _ in searches.get(id(firsts[-1][0]), []) for eta in etas]
    assert (floor[-1] * dstlab.solver.STEP_SHRINK if floor else firsts[-1][1]) < (
        dstlab.solver.MIN_STEP)


def test_a_first_step_below_the_min_step_makes_no_batch(monkeypatch):
    # with MAX_STEP below MIN_STEP the search after the first accepted step
    # starts below MIN_STEP: it values nothing, and the descent ends on the
    # floor with that one step, its trials those of the first search
    monkeypatch.setattr(dstlab.solver, "MAX_STEP", 1e-15)
    batches, accepted = _spy_batches(monkeypatch), _spy_accepted(monkeypatch)
    firsts = _spy_searches(monkeypatch)
    start = ChainPass(random_projector(DiscreteSpacetime(1, 3), 2, seed=0))
    out = _run(_descend(start, _Objective(0.5), SolverConfig()))
    assert out["exit_reason"] == "line_search_floor" and out["iterations"] == 1
    assert [step for _, step, _ in firsts] == [dstlab.solver.INITIAL_STEP, 1e-15]
    assert {id(proj) for proj, _, _, _ in batches} == {id(start.projector)}
    assert out["armijo_trials"] == (sum(len(etas) for _, etas, _, _ in batches[:-1])
                                    + _examined(accepted, batches[-1]))
    assert out["chains"].projector is firsts[1][0]


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["accepts", "floor"])
def test_the_first_batch_size_changes_no_result_of_a_search(sign):
    # a search returns the first step in order that passes Armijo, whatever
    # its first batch holds; along the ascent direction none passes and it
    # examines every step down to MIN_STEP, fewer than 64
    chains = ChainPass(random_projector(DiscreteSpacetime(1, 4), 2, seed=0))
    objective = _Objective(0.5)
    q, signs = objective.qmat(chains), chains.space.signs
    comm = chains.p @ q - q @ chains.p
    grad_norm = 4.0 * np.linalg.norm(comm)
    k = (4j / grad_norm) * (comm * signs)
    b = -sign * signs[:, None] * (0.5 * (k + k.conj().T))
    current = objective.value(chains)
    results = [_run(_backtrack(chains, objective, b, dstlab.solver.MAX_STEP, current,
                               -grad_norm, size)) for size in (1, 3, 64)]
    trial, value, step, examined = results[0]
    assert (trial is None) == (sign < 0) and 3 < examined < 64
    for other, other_value, other_step, other_examined in results[1:]:
        assert (other_value, other_step, other_examined) == (value, step, examined)
        assert (other is None if trial is None
                else np.array_equal(other.projector.basis, trial.projector.basis))


@pytest.mark.parametrize("seed", [0, 3], ids=["s_above", "restoration_fails"])
def test_the_first_batch_size_changes_no_result_of_a_level_set_search(seed):
    # on the level set a passing trial is taken only once restored to
    # T = kappa with S not above the iterate's, and the search goes on past
    # the ones refused, within a batch or into the next: what it returns,
    # and the restorations' counts, do not depend on its first batch.  From
    # these starts the search refuses trials whose restored S is too high
    # (seed 0) or whose restoration runs out of Newton steps (seed 3)
    level, cfg = _LevelSet(KAPPA), SolverConfig()
    start = ChainPass(random_projector(DiscreteSpacetime(1, 3), 2, seed=seed))
    chains, _, reason = _run(dstlab.solver._restore(
        start, level, cfg, dict.fromkeys(("armijo_trials", "fd_pairs"), 0), 100))
    assert reason is None and not level.missed(chains.constraint)
    nu, g = dstlab.solver._multiplier_fit(*level.commutator(chains))
    grad_norm = 4.0 * np.linalg.norm(g)
    k = (4j / grad_norm) * (g * chains.space.signs)
    b = -chains.space.signs[:, None] * (0.5 * (k + k.conj().T))
    search, ceiling = _Objective(nu), level.value(chains)
    results, refused = [], []
    for size in (1, 3, 64):
        counts = dict.fromkeys(("armijo_trials", "fd_pairs"), 0)

        def accept(trial):
            trial, _, reason = yield from dstlab.solver._restore(
                trial, level, cfg, counts, dstlab.solver.RESTORE_STEPS)
            refused.append(reason is not None or level.value(trial) > ceiling)
            return None if refused[-1] else trial

        out = _run(_backtrack(chains, search, b, dstlab.solver.MAX_STEP,
                              search.value(chains), -grad_norm, size, accept=accept))
        results.append((out, counts))
    (trial, _, step, examined), counts = results[0]
    assert refused.count(False) == 3 and refused.count(True) >= 3 * 2
    assert trial is not None and not level.missed(trial.constraint)
    assert level.value(trial) <= ceiling and examined > 1
    for (other, _, other_step, other_examined), other_counts in results[1:]:
        assert (other_step, other_examined, other_counts) == (step, examined, counts)
        assert np.array_equal(other.projector.basis, trial.projector.basis)


@pytest.mark.parametrize("settings, constants, reason", [
    ({"max_iter": 40}, {}, "max_iterations"),
    ({}, {"STALL_WINDOW": 1, "STALL_TOL": 1e9}, "stalled"),
], ids=["max_iterations", "stalled"])
def test_gradient_norm_is_the_returned_projectors(monkeypatch, settings, constants, reason):
    # a descent that stops after an accepted step reports the gradient norm
    # of the iterate it returns, not of the one before it
    for name, value in constants.items():
        monkeypatch.setattr(dstlab.solver, name, value)
    for seed in (0, 1):
        out = _run(_descend(ChainPass(random_projector(DiscreteSpacetime(1, 5), 2, seed=seed)),
                            _Objective(0.5), SolverConfig(**settings)))
        assert out["exit_reason"] == reason
        proj = out["chains"].projector
        q, p = q_kernel(proj, 0.5), proj.matrix()
        assert out["gradient_norm"] == pytest.approx(
            4.0 * np.linalg.norm(p @ q - q @ p), rel=1e-9)


def test_per_seed_fd_pairs_count_the_collision_fallback(monkeypatch):
    # n = 2 chains still send collisions to finite differences; the per-seed
    # counts add up to the oracle's calls outside the final residual.  The
    # n = 1 pass has no fallback, so its seeds report 0
    fd_calls = []
    oracle = dstlab.action.finite_difference_gradient
    residual = dstlab.solver.el_residual
    in_residual = []

    def counted_fd(a, step=DEFAULT.fd_step):
        fd_calls.append(1)
        return oracle(a, step)

    def counted_residual(*args):
        before = len(fd_calls)
        out = residual(*args)
        in_residual.append(len(fd_calls) - before)
        return out

    monkeypatch.setattr(dstlab.action, "finite_difference_gradient", counted_fd)
    monkeypatch.setattr(dstlab.solver, "el_residual", counted_residual)
    cfg = SolverConfig(mode="auxiliary", mu=0.25, seeds=(0, 1), max_iter=30)
    res = minimize(DiscreteSpacetime(2, 3), 3, cfg)
    counts = [r["fd_pairs"] for r in res.per_seed]
    assert all(isinstance(c, int) and c > 0 for c in counts)
    assert sum(counts) == len(fd_calls) - sum(in_residual)
    fd_calls.clear()
    n1 = minimize(DiscreteSpacetime(1, 3), 2, replace(cfg, mu=0.5))
    assert [r["fd_pairs"] for r in n1.per_seed] == [0, 0] and fd_calls == []


@pytest.mark.parametrize("n, m, f, settings, check", [
    (1, 4, 2, {"mu": 0.5, "seeds": tuple(range(8))}, None),
    (1, 3, 2, {"mode": "constrained", "kappa": KAPPA, "seeds": tuple(range(4))}, None),
    (2, 3, 3, {"mu": 0.25, "seeds": (0, 1), "max_iter": 30},
     lambda recs: all(r["fd_pairs"] > 0 for r in recs)),
    (1, 3, 2, {"mu": 0.6, "seeds": tuple(range(8)), "max_iter": 300},
     lambda recs: len({r["exit_reason"] for r in recs}) > 1
     and len({r["iterations"] for r in recs}) > 1),
], ids=["auxiliary_m4", "constrained_m3", "n2_fd_pairs", "exits_at_different_steps"])
def test_a_multi_seed_solve_equals_its_one_seed_solves(n, m, f, settings, check):
    # the seeds descend in lockstep, so every record and trace of a solve
    # over a seed list is bit for bit that of a solve of its seed alone
    space, cfg = DiscreteSpacetime(n, m), SolverConfig(**settings)
    together = minimize(space, f, cfg)
    assert check is None or check(together.per_seed)
    for rec in together.per_seed:
        alone = minimize(space, f, replace(cfg, seeds=(rec["seed"],)))
        assert alone.per_seed == [rec]
        rounds = together.traces[rec["seed"]]
        assert len(alone.traces[rec["seed"]]) == len(rounds)
        assert all(np.array_equal(a, b) for a, b in zip(alone.traces[rec["seed"]], rounds))
        if rec["seed"] == together.seed:
            assert np.array_equal(alone.projector.basis, together.projector.basis)


def _records_with_actions(monkeypatch, actions, statuses):
    """minimize with seed k's record replaced by (actions[k], statuses[k])."""
    proj = random_projector(DiscreteSpacetime(1, 3), 2, seed=0)

    def fake(start, cfg):
        # a seed generator that asks for nothing
        k = fake.calls
        fake.calls += 1
        record = {"projector": proj, "action": actions[k], "constraint": 0.0,
                  "multiplier": cfg.mu, "status": statuses[k],
                  "exit_reason": statuses[k], "iterations": 1, "gradient_norm": 0.0}
        yield from ()
        return record, [np.array([actions[k]])]

    fake.calls = 0
    monkeypatch.setattr(dstlab.solver, "_solve_seed", fake)
    cfg = SolverConfig(mode="auxiliary", mu=0.5, seeds=tuple(range(len(actions))))
    return minimize(DiscreteSpacetime(1, 3), 2, cfg)


def test_best_seed_ignores_ulp_ties_and_prefers_a_converged_tie(monkeypatch):
    s = 1.0 / 6.0
    statuses = ["converged"] * 4
    assert _records_with_actions(monkeypatch, [s] * 4, statuses).seed == 0
    for k in range(4):
        for direction in (np.inf, -np.inf):
            actions = [s] * 4
            actions[k] = float(np.nextafter(s, direction))
            assert _records_with_actions(monkeypatch, actions, statuses).seed == 0
    # a stalled seed ties with a converged one: the converged one is reported
    tied = _records_with_actions(monkeypatch, [s + 1e-13, s, s], ["max_iterations",
                                                                  "converged", "converged"])
    assert (tied.seed, tied.status) == (1, "converged")
    # beyond the tie a lower action wins, converged or not
    lower = _records_with_actions(monkeypatch, [s - 1e-9, s], ["max_iterations", "converged"])
    assert (lower.seed, lower.status) == (0, "max_iterations")


def test_landscape_scan_makes_one_chain_pass_per_realizable_point(monkeypatch):
    # the value, the roots and the causal graph of a grid point share its pass
    passes = _count_chain_passes(monkeypatch)
    grid = np.linspace(0.6, 0.9, 7)
    records = landscape_scan(triangle_projector, grid)
    ok = [rec for rec in records if "error" not in rec]
    assert len(ok) == 5  # v = 0.6, 0.65 lie below the realizable v >= 2/3
    assert len(passes) == len(ok)


def test_landscape_labels_lam_plus_by_the_sign_of_its_imaginary_part():
    # fig3's triangle sweep: in every spacelike row lam_+ has Im > 0 and the
    # pair shares its real part; an ulp on the family parameter flips nothing
    grid = np.linspace(2.0 / 3.0, 0.9, 71)
    records = [r for r in landscape_scan(triangle_projector, grid) if "error" not in r]
    spacelike = [r for r in records if r["causal_offdiag"] == "spacelike"]
    assert len(spacelike) > 20
    for rec in spacelike:
        minus, plus = rec["roots"]
        assert plus.imag > 0.0 and minus == np.conj(plus)
    for rec in records:
        for direction in (np.inf, -np.inf):
            v = np.nextafter(rec["param"], direction)
            (near,) = landscape_scan(triangle_projector, [v])
            assert near["causal_offdiag"] == rec["causal_offdiag"]
            assert np.array_equal(np.sign(near["roots"].imag), np.sign(rec["roots"].imag))
            assert np.max(np.abs(near["roots"] - rec["roots"])) <= 1e-12


def _critical_minimum(m):
    cfg = SolverConfig(mode="auxiliary", mu=0.5, seeds=tuple(range(8)))
    return minimize(DiscreteSpacetime(1, m), 2, cfg)


@pytest.mark.parametrize("m", [4, 6, 7, 8, 9, 16])
def test_critical_minimum_is_the_two_design_bound(m):
    # at mu = 1/2, f = 2 the minimum equals the delta = 0 bound 8/(3 m^2)
    # wherever a spherical 2-design of m points exists (correlation.py)
    res = _critical_minimum(m)
    assert abs(res.action - 8.0 / (3.0 * m * m)) <= 1e-12
    rep = geometry_diagnostics(local_correlations(res.projector))
    assert rep["design_error"] <= 1e-6
    assert rep["length_rel_dev"] <= 1e-6


def test_fig1_2_solves_keep_their_exits_and_minima():
    # the four solves of `reproduce --figure fig1-2`: every seed's exit
    # reason, the 2-design minimum wherever one exists, and the threshold
    # seeds of m = 8 ending soon (without the restart of the L-BFGS memory
    # at the causal threshold they grind for 900 and more iterations)
    ends = {8: {4: "line_search_floor", 6: "line_search_floor", 7: "line_search_floor"},
            9: {3: "stalled"}}
    for m in (4, 5, 8, 9):
        res = _critical_minimum(m)
        assert [r["exit_reason"] for r in res.per_seed] == [
            ends.get(m, {}).get(seed, "converged") for seed in range(8)]
        if m != 5:
            assert abs(res.action - 8.0 / (3.0 * m * m)) <= 1e-12
        if m == 8:
            assert all(res.per_seed[seed]["iterations"] <= 200 for seed in (4, 7))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_critical_minimum_stays_above_the_bound_without_a_two_design(m):
    res = _critical_minimum(m)
    assert res.action > 8.0 / (3.0 * m * m) + 1e-6
    rep = geometry_diagnostics(local_correlations(res.projector))
    assert rep["design_error"] > 1e-2

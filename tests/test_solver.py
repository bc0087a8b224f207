import math

import numpy as np
import pytest

import dstlab.action
from dstlab import DiscreteSpacetime, FermionicProjector, random_projector
from dstlab.action import constraint_q_kernel, constraint_value, q_kernel
from dstlab.causal import CausalClass, causal_graph
from dstlab.correlation import (
    TRIANGLE_CAUSAL_THRESHOLD,
    geometry_diagnostics,
    local_correlations,
    triangle_projector,
)
from dstlab.solver import (
    InfeasibleKappa,
    SolverConfig,
    _descend,
    _Objective,
    lagrange_multiplier_estimate,
    landscape_scan,
    minimize,
)
from dstlab.tolerances import DEFAULT


def test_config_validation():
    try:
        SolverConfig(mode="annealing")
        assert False, "expected ValueError"
    except ValueError:
        pass
    try:
        SolverConfig(mode="constrained")  # kappa missing
        assert False, "expected ValueError"
    except ValueError:
        pass


@pytest.mark.parametrize(
    "field, value",
    [
        ("step_shrink", 1.0),
        ("step_shrink", 1.5),
        ("step_shrink", 0.0),
        ("step_shrink", -0.5),
        ("min_step", 0.0),
        ("min_step", -1e-14),
        ("outer_rounds", 0),
        ("outer_rounds", -1),
    ],
)
def test_config_rejects_settings_the_descent_cannot_run(field, value):
    # with step_shrink >= 1 the Armijo search never ends, and a constrained
    # solve needs at least one penalty round
    with pytest.raises(ValueError, match=field):
        SolverConfig(mode="constrained", kappa=0.85, **{field: value})


KAPPA, NU, W = 0.85, 0.3, 10.0


def _penalty_reference(p):
    return q_kernel(p, -(NU + 2.0 * W * (constraint_value(p) - KAPPA)))


def _feasibility_reference(p):
    return 2.0 * (constraint_value(p) - KAPPA) * constraint_q_kernel(p)


@pytest.mark.parametrize(
    "objective, reference",
    [
        (lambda: _Objective(DEFAULT, 0.0, KAPPA, NU, W), _penalty_reference),
        (lambda: _Objective(DEFAULT, kappa=KAPPA, feasibility=True),
         _feasibility_reference),
    ],
    ids=["penalty", "feasibility"],
)
def test_qmat_reuses_the_constraint_value_of_the_last_value_call(
    monkeypatch, objective, reference
):
    calls = []
    chain_roots = dstlab.action.chain_roots

    def counted(chains):
        calls.append(1)
        return chain_roots(chains)

    monkeypatch.setattr(dstlab.action, "chain_roots", counted)
    p = random_projector(DiscreteSpacetime(1, 3), 2, seed=4)
    built = objective()
    value, qmat = built.value, built.qmat
    value(p)
    before = len(calls)
    q = qmat(p)
    assert len(calls) == before
    renormalized = p.renormalized()
    q_renormalized = qmat(renormalized)
    assert len(calls) == before + 1
    assert np.array_equal(q, reference(p))
    assert np.array_equal(q_renormalized, reference(renormalized))


@pytest.mark.parametrize(
    "cfg",
    [
        SolverConfig(mode="auxiliary", mu=0.5, seeds=(0,), max_iter=30),
        SolverConfig(mode="constrained", kappa=0.85, seeds=(0,), max_iter=30,
                     outer_rounds=2),
    ],
    ids=["auxiliary", "constrained"],
)
def test_descent_reads_the_stored_gram_drift(monkeypatch, cfg):
    def fail(self):
        raise AssertionError("the descent must not form P to check the Gram drift")

    monkeypatch.setattr(FermionicProjector, "check_invariants", fail)
    res = minimize(DiscreteSpacetime(1, 3), 2, cfg)
    assert res.projector.gram_dev <= 1e-14


@pytest.mark.parametrize(
    "settings, flip, reason, iterations",
    [
        ({"max_iter": 3}, False, "max_iterations", 3),
        # an ascent direction: no trial passes Armijo down to min_step
        ({}, True, "line_search_floor", 0),
        ({"stall_window": 1, "stall_tol": 1e9}, False, "stalled", 1),
    ],
    ids=["max_iterations", "line_search_floor", "stalled"],
)
def test_descent_reports_why_it_stopped(settings, flip, reason, iterations):
    objective = _Objective(DEFAULT, 0.5)
    value, qmat = objective.value, objective.qmat
    sign = -1.0 if flip else 1.0
    out = _descend(
        random_projector(DiscreteSpacetime(1, 3), 2, seed=0),
        value,
        lambda p: sign * qmat(p),
        SolverConfig(mu=0.5, **settings),
        DEFAULT,
    )
    assert out["exit_reason"] == reason
    assert out["status"] == "max_iterations"
    assert out["iterations"] == iterations == len(out["trace"]) - 1


@pytest.mark.parametrize("scale, fails", [(1.0, False), (2.0, True)],
                         ids=["true_q", "mis_scaled_q"])
def test_first_iterate_derivative_check(scale, fails):
    # a Q scaled by 2 doubles the analytic slope along the same direction,
    # which the central difference of the value then contradicts
    objective = _Objective(DEFAULT, 0.5)

    def descend():
        return _descend(
            random_projector(DiscreteSpacetime(1, 3), 2, seed=0),
            objective.value,
            lambda p: scale * objective.qmat(p),
            SolverConfig(mu=0.5, max_iter=2),
            DEFAULT,
            check_first=True,
        )

    if fails:
        with pytest.raises(RuntimeError, match="first-iterate derivative check failed"):
            descend()
    else:
        assert descend()["iterations"] == 2


def test_constrained_seed_sums_iterations_over_rounds():
    cfg = SolverConfig(mode="constrained", kappa=0.85, seeds=(0, 1), max_iter=30,
                       outer_rounds=2)
    res = minimize(DiscreteSpacetime(1, 3), 2, cfg)
    for rec in res.per_seed:
        segments = res.traces[rec["seed"]]
        assert len(segments) == 2
        assert rec["iterations"] == sum(len(t) - 1 for t in segments)
        assert rec["exit_reason"] in (
            "converged", "divergence", "line_search_floor", "stalled", "max_iterations"
        )


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
    # monotone descent per seed and per round
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


def test_divergence_beyond_critical_weight():
    cfg = SolverConfig(
        mode="auxiliary", mu=0.7, seeds=(0,), divergence_floor=-1e3, max_iter=5000
    )
    res = minimize(DiscreteSpacetime(1, 3), 2, cfg)
    assert res.status == "divergence"
    assert res.action < -1e3


def test_constrained_triangle_near_threshold():
    # just above the constraint threshold the minimizer is the symmetric
    # spacelike triangle
    kappa = 0.85
    cfg = SolverConfig(mode="constrained", kappa=kappa, seeds=tuple(range(4)))
    res = minimize(DiscreteSpacetime(1, 3), 2, cfg)
    assert abs(res.constraint - kappa) < 1e-6
    corr = local_correlations(res.projector)
    rep = geometry_diagnostics(corr)
    assert rep["length_mean"] > TRIANGLE_CAUSAL_THRESHOLD
    assert rep["length_spread"] < 0.02
    assert causal_graph(res.projector).off_diagonal_class() is CausalClass.SPACELIKE
    # the penalty multiplier and the independent least-squares fit agree
    assert res.multiplier > 0.5
    est = lagrange_multiplier_estimate(res.projector)
    assert math.isfinite(est.value)
    assert abs(est.value - res.multiplier) < 0.05
    assert est.residual < 1e-2


def test_infeasible_constraint_level_rejected():
    cfg = SolverConfig(mode="constrained", kappa=0.01, seeds=(0, 1))
    try:
        minimize(DiscreteSpacetime(1, 3), 2, cfg)
        assert False, "expected InfeasibleKappa"
    except InfeasibleKappa:
        pass


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

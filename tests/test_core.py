import json

import numpy as np
import pytest

from dstlab import (
    DiscreteSpacetime,
    FermionicProjector,
    InvalidInput,
    indefinite_orthonormalize,
    random_direction,
    random_gauge,
    random_projector,
)
from dstlab.continuum.seas import GridCoverage, state_stability_check
from dstlab.lattice import LatticeGeometry, OccupiedState, landscape_scan_2d, weight_arrays
from dstlab.solver import InfeasibleKappa, SolverConfig


def test_signature_layout():
    sp = DiscreteSpacetime(2, 3)
    assert sp.dim == 12
    # per point: n pluses then n minuses
    assert np.array_equal(sp.signs[:4], [1, 1, -1, -1])
    assert np.sum(sp.signs) == 0


@pytest.mark.parametrize("n, expected", [(1, [1, -1]), (2, [1, 1, -1, -1])])
def test_signs_built_once_and_read_only(n, expected):
    sp = DiscreteSpacetime(n, 3)
    assert sp.signs is sp.signs
    assert sp.block_signs is sp.block_signs
    assert np.array_equal(sp.block_signs, expected)
    assert np.array_equal(sp.signs, np.tile(expected, 3))
    with pytest.raises(ValueError):
        sp.signs[0] = 0.0
    with pytest.raises(ValueError):
        sp.block_signs[0] = 0.0


def test_inner_product_signs():
    sp = DiscreteSpacetime(1, 2)
    u = np.array([1.0, 0, 0, 0])
    v = np.array([0, 1.0, 0, 0])
    assert sp.product(u, u) == 1
    assert sp.product(v, v) == -1
    assert sp.product(u, v) == 0
    # antilinear in first slot
    assert sp.product(1j * u, u) == pytest.approx(-1j)


def test_adjoint_involution():
    sp = DiscreteSpacetime(1, 3)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    again = sp.adjoint(sp.adjoint(a))
    assert np.allclose(again, a)
    # <u|Av> == <A* u|v>
    u = rng.normal(size=6) + 1j * rng.normal(size=6)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    lhs = sp.product(u, a @ v)
    rhs = sp.product(sp.adjoint(a) @ u, v)
    assert lhs == pytest.approx(rhs)


def test_projector_invariants_random():
    for seed in range(8):
        sp = DiscreteSpacetime(1, 5)
        p = random_projector(sp, 3, seed=seed)
        dev = p.check_invariants()
        assert dev["idempotency"] < 1e-9
        assert dev["self_adjointness"] < 1e-9
        assert dev["gram"] < 1e-10
        assert dev["rank_defect"] == 0


def test_stored_gram_drift_matches_the_basis():
    p = random_projector(DiscreteSpacetime(1, 5), 3, seed=2)
    for q in (p, p.renormalized()):
        assert q.gram_dev == np.max(np.abs(q.gram() + np.eye(q.rank)))
        assert q.gram_dev == q.check_invariants()["gram"]


def test_projector_action_on_image_and_kernel():
    sp = DiscreteSpacetime(1, 3)
    p = random_projector(sp, 2, seed=4)
    u0 = p.basis[:, 0]
    assert np.allclose(p.apply(u0), u0)
    # positive coordinate vectors of the unboosted sampler are generally not
    # fixed; P^2 = P must hold on anything
    v = np.arange(6) + 1j
    assert np.allclose(p.apply(p.apply(v)), p.apply(v))


def test_rank_bounds_rejected():
    sp = DiscreteSpacetime(1, 2)
    with pytest.raises(ValueError):
        random_projector(sp, 3, seed=0)  # f > nm = 2
    with pytest.raises(ValueError):
        random_projector(sp, 0, seed=0)


def test_orthonormalize_rejects_positive_span():
    sp = DiscreteSpacetime(1, 2)
    vecs = np.zeros((4, 1), dtype=complex)
    vecs[0, 0] = 1.0  # positive-signature direction
    with pytest.raises(ValueError):
        indefinite_orthonormalize(sp, vecs)


def test_determinism_same_seed_same_bits():
    sp = DiscreteSpacetime(1, 4)
    a = random_projector(sp, 2, seed=123)
    b = random_projector(sp, 2, seed=123)
    assert np.array_equal(a.basis, b.basis)
    c = random_projector(sp, 2, seed=124)
    assert not np.allclose(a.basis, c.basis)


def test_maximal_rank_image_is_maximal_negative():
    # f = nm: the image is a maximal negative-definite subspace, i.e. the
    # Gram matrix of the image basis is negative definite of full size nm.
    sp = DiscreteSpacetime(1, 3)
    p = random_projector(sp, 3, seed=9)
    g = p.gram()
    assert np.allclose(g, -np.eye(3), atol=1e-10)
    evals = np.linalg.eigvalsh((g + g.conj().T) / 2)
    assert np.all(evals < 0)


def test_serialization_roundtrip(tmp_path):
    sp = DiscreteSpacetime(2, 2)
    p = random_projector(sp, 3, seed=77)
    path = tmp_path / "proj.json"
    p.save(path)
    q = FermionicProjector.load(path)
    assert q.space.n == 2 and q.space.m == 2 and q.rank == 3
    assert np.allclose(q.basis, p.basis)
    # file is plain JSON with [re, im] pairs
    data = json.loads(path.read_text())
    assert data["f"] == 3
    assert len(data["basis"]) == 3 and len(data["basis"][0]) == 8


def test_corrupted_serialization_rejected(tmp_path):
    sp = DiscreteSpacetime(1, 2)
    p = random_projector(sp, 2, seed=1)
    d = p.to_dict()
    d["basis"][0][0] = [100.0, 0.0]  # breaks the Gram condition
    with pytest.raises(ValueError):
        FermionicProjector.from_dict(d)


def test_gauge_blocks_validated():
    sp = DiscreteSpacetime(1, 2)
    with pytest.raises(ValueError):
        # identity is indefinite-unitary but a scaled one is not
        from dstlab import GaugeTransform

        GaugeTransform(sp, 2.0 * np.array([np.eye(2), np.eye(2)], dtype=complex))


def test_gauge_inverse_and_compose():
    sp = DiscreteSpacetime(2, 3)
    g = random_gauge(sp, seed=5)
    gi = g.inverse()
    ident = g.compose(gi)
    assert np.allclose(ident.blocks, np.broadcast_to(np.eye(4), (3, 4, 4)), atol=1e-12)


def test_gauge_preserves_projector_invariants():
    sp = DiscreteSpacetime(1, 4)
    p = random_projector(sp, 2, seed=2)
    g = random_gauge(sp, seed=3)
    q = g.apply(p)
    dev = q.check_invariants()
    assert max(dev["idempotency"], dev["gram"]) < 1e-9
    # the projector genuinely changed
    assert not np.allclose(q.matrix(), p.matrix())


def test_direction_is_selfadjoint():
    sp = DiscreteSpacetime(1, 3)
    b = random_direction(sp, seed=8)
    assert np.allclose(sp.adjoint(b), b)


def test_invalid_input_is_a_value_error():
    # a caller that catches ValueError still catches every refused input
    assert issubclass(InvalidInput, ValueError)
    assert issubclass(GridCoverage, InvalidInput)
    # an unreachable constraint level is a numerical outcome, not an input check
    assert not issubclass(InfeasibleKappa, InvalidInput)


@pytest.mark.parametrize(
    "check",
    [
        lambda: SolverConfig(mode="constrained", kappa=0.5, mu=0.3),
        lambda: DiscreteSpacetime(0, 3),
        lambda: random_projector(DiscreteSpacetime(1, 2), 5, seed=0),
        lambda: LatticeGeometry(0, 6),
        lambda: OccupiedState(omega=-1, k=1, phi=0.0),
        lambda: landscape_scan_2d(LatticeGeometry(8, 6), OccupiedState(1, 1),
                                  OccupiedState(-2, 2), [0.0, 1.0]),
        lambda: weight_arrays(LatticeGeometry(8, 6), "cube"),
        lambda: state_stability_check([2.0, 1.0], [0.0, 0.0], [1.0, 1.0], [1.0]),
    ],
    ids=["solver-config", "spacetime", "rank", "lattice-geometry", "occupied-state",
         "occupation", "weights", "stability-grid"],
)
def test_checks_a_config_reaches_raise_invalid_input(check):
    with pytest.raises(InvalidInput):
        check()

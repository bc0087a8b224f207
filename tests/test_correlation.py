import math

import numpy as np

from dstlab import DiscreteSpacetime, FermionicProjector, random_gauge, random_projector
from dstlab.action import (
    action,
    chain_blocks,
    chain_roots,
    constraint_value,
    kernel_blocks,
    multiset_distance,
)
from dstlab.causal import CausalClass, causal_graph, classify
from dstlab.correlation import (
    PAULI,
    TRIANGLE_CAUSAL_THRESHOLD,
    TRIANGLE_THRESHOLD_CONSTRAINT,
    LocalCorrelation,
    correlation_chain_roots,
    full_symmetry_check,
    geometry_diagnostics,
    local_correlations,
    permutation_symmetry,
    planar_square_family,
    projector_from_correlations,
    tetrahedron_directions,
    tetrahedron_family,
    triangle_family,
    triangle_projector,
)


def two_particle_projector(m, seed, boost=0.9):
    space = DiscreteSpacetime(n=1, m=m)
    return random_projector(space, f=2, seed=seed, boost_scale=boost)


def test_pauli_trace_projection_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rho = rng.normal()
        vec = rng.normal(size=3)
        f = 0.5 * (rho * np.eye(2) + np.einsum("k,kab->ab", vec, PAULI))
        assert abs(np.trace(f).real - rho) < 1e-12
        back = np.einsum("ab,kba->k", f, PAULI).real
        assert np.linalg.norm(back - vec) < 1e-12


def test_local_correlation_invariants():
    for seed in range(10):
        proj = two_particle_projector(m=5, seed=seed)
        corr = local_correlations(proj)
        checks = corr.check_invariants()
        assert checks["sum_rho"] < 1e-10
        assert checks["sum_vectors"] < 1e-10
        assert checks["signature"] < 1e-10



def test_invariant_deviations_are_python_floats():
    # an error message quotes the deviations; a numpy scalar would print as
    # np.float64(...)
    corr = LocalCorrelation(np.full(4, 0.6), 0.6 * tetrahedron_directions())
    assert [type(v) for v in corr.check_invariants().values()] == [float] * 3
    try:
        projector_from_correlations(DiscreteSpacetime(1, 4), corr)
        assert False, "expected ValueError"
    except ValueError as exc:
        assert "correlation sums violated" in str(exc)
        assert "np.float64(" not in str(exc)

def test_reconstructed_matrices_match_blocks():
    proj = two_particle_projector(m=4, seed=3)
    corr = local_correlations(proj)
    space = proj.space
    blocks = proj.basis.reshape(space.m, 2, 2)
    f_direct = -np.einsum("xai,a,xaj->xij", blocks.conj(), space.block_signs, blocks)
    assert np.max(np.abs(corr.matrices() - f_direct)) < 1e-12


def test_wrong_shape_rejected():
    big_spin = random_projector(DiscreteSpacetime(n=2, m=3), f=2, seed=0)
    three_particles = random_projector(DiscreteSpacetime(n=1, m=4), f=3, seed=0)
    for bad in (big_spin, three_particles):
        try:
            local_correlations(bad)
            assert False, "expected ValueError"
        except ValueError:
            pass


def test_closed_form_matches_chain_spectra():
    # the chain roots at (x, y) equal the eigenvalues of F_x F_y, and both
    # match the closed-form pair
    for seed in range(40):
        proj = two_particle_projector(m=4, seed=seed, boost=1.1)
        corr = local_correlations(proj)
        roots = chain_roots(chain_blocks(kernel_blocks(proj)))
        fmats = corr.matrices()
        for x in range(4):
            for y in range(4):
                pair = correlation_chain_roots(
                    corr.rho[x], corr.vectors[x], corr.rho[y], corr.vectors[y]
                )
                assert multiset_distance(roots[x, y], np.array(pair)) < 1e-10
                eig = np.linalg.eigvals(fmats[x] @ fmats[y])
                assert multiset_distance(eig, np.array(pair)) < 1e-10


def test_triangle_frozen_values():
    plus, minus = correlation_chain_roots(*_triangle_pair(2.0 / 3.0))
    assert abs(plus - 1.0 / 9.0) < 1e-12
    assert abs(minus) < 1e-12

    v = TRIANGLE_CAUSAL_THRESHOLD
    assert abs(v - 4.0 * math.sqrt(3.0) / 9.0) < 1e-15
    plus, minus = correlation_chain_roots(*_triangle_pair(v))
    # the double root is square-root sensitive to rounding in v, but the
    # root sum is not
    assert abs(plus - 1.0 / 27.0) < 1e-7
    assert abs(minus - 1.0 / 27.0) < 1e-7
    assert abs(plus + minus - 2.0 / 27.0) < 1e-12


def _triangle_pair(v):
    fam = triangle_family(v)
    return fam.rho[0], fam.vectors[0], fam.rho[1], fam.vectors[1]


def test_triangle_projector_action_and_constraint():
    # hand-evaluated values for the symmetric family: at v = 2/3 the total
    # action at the critical weight is 1/3 and the constraint is 2/3; at the
    # causal threshold the constraint is 68/81
    proj = triangle_projector(2.0 / 3.0)
    assert abs(action(proj, mu=0.5) - 1.0 / 3.0) < 1e-10
    assert abs(constraint_value(proj) - 2.0 / 3.0) < 1e-10

    proj = triangle_projector(TRIANGLE_CAUSAL_THRESHOLD)
    assert abs(constraint_value(proj) - TRIANGLE_THRESHOLD_CONSTRAINT) < 1e-10


def test_triangle_causal_transition():
    eps = 1e-3
    below = TRIANGLE_CAUSAL_THRESHOLD - eps
    above = TRIANGLE_CAUSAL_THRESHOLD + eps
    pair = correlation_chain_roots(*_triangle_pair(below))
    assert classify(np.array(pair)) is CausalClass.TIMELIKE
    pair = correlation_chain_roots(*_triangle_pair(above))
    assert classify(np.array(pair)) is CausalClass.SPACELIKE

    graph = causal_graph(triangle_projector(above))
    assert graph.off_diagonal_class() is CausalClass.SPACELIKE
    for x in range(3):
        assert graph[x, x] is CausalClass.TIMELIKE
    graph = causal_graph(triangle_projector(below))
    assert graph.off_diagonal_class() is CausalClass.TIMELIKE


def test_projector_from_correlations_round_trip():
    for seed in range(8):
        proj = two_particle_projector(m=5, seed=seed)
        corr = local_correlations(proj)
        rebuilt = projector_from_correlations(proj.space, corr)
        again = local_correlations(rebuilt)
        assert np.max(np.abs(again.rho - corr.rho)) < 1e-9
        assert np.max(np.abs(again.vectors - corr.vectors)) < 1e-9
        # same correlation data means the same chains, hence the same action
        assert abs(action(rebuilt, mu=0.5) - action(proj, mu=0.5)) < 1e-9


def test_unrealizable_correlations_rejected():
    rho = np.array([1.0, 1.0])
    vecs = np.array([[0.2, 0.0, 0.0], [-0.2, 0.0, 0.0]])
    corr = LocalCorrelation(rho, vecs)
    try:
        projector_from_correlations(DiscreteSpacetime(1, 2), corr)
        assert False, "expected ValueError"
    except ValueError:
        pass
    try:
        triangle_family(0.5)
        assert False, "expected ValueError"
    except ValueError:
        pass


def test_basis_mixing_rotates_vectors_globally():
    # changing the orthonormal basis of the image by a unitary leaves each
    # rho alone and rotates all Pauli vectors by one common proper rotation
    rng = np.random.default_rng(7)
    proj = two_particle_projector(m=5, seed=1)
    corr = local_correlations(proj)
    for _ in range(6):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        w, _ = np.linalg.qr(z)
        mixed = FermionicProjector(proj.space, proj.basis @ w)
        corr2 = local_correlations(mixed)
        assert np.max(np.abs(corr2.rho - corr.rho)) < 1e-10
        u, _, vt = np.linalg.svd(corr2.vectors.T @ corr.vectors)
        rot = u @ np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))]) @ vt
        assert np.linalg.det(rot) > 0.0
        assert np.max(np.abs(corr.vectors @ rot.T - corr2.vectors)) < 1e-9


def test_gauge_transforms_leave_correlations_invariant():
    proj = two_particle_projector(m=4, seed=9)
    corr = local_correlations(proj)
    for seed in range(5):
        gauge = random_gauge(proj.space, seed=seed, scale=0.8)
        corr2 = local_correlations(gauge.apply(proj))
        assert np.max(np.abs(corr2.rho - corr.rho)) < 1e-9
        assert np.max(np.abs(corr2.vectors - corr.vectors)) < 1e-9


def test_identity_permutation_realized():
    corr = tetrahedron_family(0.7)
    report = permutation_symmetry(corr, (0, 1, 2, 3))
    assert report.realized
    assert np.max(np.abs(corr.vectors @ report.rotation.T - corr.vectors)) < 1e-9


def test_tetrahedron_even_realized_odd_obstructed():
    result = full_symmetry_check(tetrahedron_family(0.8))
    assert result["certificate"] is True
    assert result["odd_total"] == 12
    assert result["odd_obstructed"] == 12
    assert result["even_realized"] == 12
    for report in result["reports"]:
        if not report.realized:
            assert report.evidence["reason"] == "orientation"
            assert report.evidence["orientation_sign"] == -1


def test_perturbed_tetrahedron_still_obstructed():
    rng = np.random.default_rng(21)
    corr = tetrahedron_family(0.8)
    noisy = LocalCorrelation(
        corr.rho, corr.vectors + 1e-3 * rng.normal(size=corr.vectors.shape)
    )
    result = full_symmetry_check(noisy, tol=1e-2)
    assert result["certificate"] is True
    assert result["even_realized"] == 12


def test_planar_square_defeats_obstruction():
    result = full_symmetry_check(planar_square_family(0.6))
    assert result["certificate"] is False
    assert result["odd_realized"] > 0


def test_rho_mismatch_reported():
    rho = np.array([0.8, 0.4, 0.4, 0.4])
    corr = LocalCorrelation(rho, 0.9 * tetrahedron_directions())
    report = permutation_symmetry(corr, (1, 0, 2, 3))
    assert report.verdict == "not_realized"
    assert report.evidence["reason"] == "rho"


def test_gram_mismatch_reported():
    vecs = np.array(
        [[1.0, 0.0, 0.0], [-1.0, 0.5, 0.0], [0.0, -0.5, 0.3], [0.0, 0.0, -0.3]]
    )
    corr = LocalCorrelation(np.full(4, 0.5), vecs)
    report = permutation_symmetry(corr, (1, 0, 2, 3))
    assert report.verdict == "not_realized"
    assert report.evidence["reason"] == "gram"


def test_geometry_diagnostics_tetrahedron():
    corr = tetrahedron_family(0.5)
    report = geometry_diagnostics(corr)
    assert report["simplex_error"] < 1e-12
    assert report["length_spread"] < 1e-12
    assert abs(report["length_mean"] - 0.5) < 1e-12
    assert abs(report["target_length"] - 0.5) < 1e-15
    off = report["unit_dots"][~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off + 1.0 / 3.0)) < 1e-12
    assert abs(report["min_angle"] - math.acos(-1.0 / 3.0)) < 1e-12


def test_geometry_diagnostics_flags_zero_vectors():
    vecs = np.array([[0.6, 0.0, 0.0], [-0.6, 0.0, 0.0], [0.0, 0.0, 0.0]])
    corr = LocalCorrelation(np.array([1.0, 1.0, 0.0]), vecs)
    report = geometry_diagnostics(corr)
    assert list(report["degenerate_points"]) == [2]
    assert np.isfinite(report["min_angle"])


def test_design_error_is_the_frame_anisotropy():
    # the tetrahedron is a spherical 2-design; the planar square's frame
    # diag(2, 2, 0) v^2 has anisotropy sqrt(2/3)/2
    assert geometry_diagnostics(tetrahedron_family(0.5))["design_error"] < 1e-15
    square = geometry_diagnostics(planar_square_family(0.5))["design_error"]
    assert abs(square - math.sqrt(2.0 / 3.0) / 2.0) < 1e-14

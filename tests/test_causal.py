import numpy as np

from dstlab import DiscreteSpacetime, FermionicProjector, random_gauge, random_projector
from dstlab.causal import CausalClass, CausalGraph, causal_graph, classify
from dstlab.tolerances import DEFAULT


def test_real_roots_are_timelike():
    assert classify([1.0, 2.0, -0.5]) is CausalClass.TIMELIKE
    assert classify([0.0, 0.0]) is CausalClass.TIMELIKE


def test_conjugate_pair_equal_modulus_is_spacelike():
    assert classify([1 + 2j, 1 - 2j]) is CausalClass.SPACELIKE
    assert classify([3j, -3j, 3j, -3j]) is CausalClass.SPACELIKE


def test_timelike_takes_precedence_over_equal_moduli():
    # real roots of equal modulus satisfy the spacelike pairing test too;
    # the realness test runs first
    assert classify([1.0, -1.0]) is CausalClass.TIMELIKE


def test_conjugate_pairs_with_different_moduli_undetermined():
    roots = [1 + 1j, 1 - 1j, 2 + 0.5j, 2 - 0.5j]
    assert classify(roots) is CausalClass.UNDETERMINED


def test_unpaired_complex_roots_undetermined():
    assert classify([1 + 1j, 2 - 1j]) is CausalClass.UNDETERMINED


def test_thresholds_scale_with_spectrum():
    # imaginary part 5e-4 on a root of size 1e6 is below the relative floor
    assert classify([1e6, 1e6 + 5e-4j, 1e6 - 5e-4j]) is CausalClass.TIMELIKE
    # the same shape at order one is genuinely non-real
    assert classify([1.0, 1.0 + 5e-4j, 1.0 - 5e-4j]) is CausalClass.UNDETERMINED


def test_explicit_tolerance_overrides_default():
    roots = [1.0 + 1e-12j, 1.0 - 1e-12j]
    assert classify(roots) is CausalClass.TIMELIKE
    # tightening the realness threshold pushes the pair to the conjugate test
    assert classify(roots, tol=DEFAULT.with_(causal=1e-15)) is CausalClass.SPACELIKE


def test_classify_chain_accepts_bare_matrix():
    a = np.array([[2.0, -1.0], [1.0, 2.0]])  # eigenvalues 2 +/- i
    assert classify(np.linalg.eigvals(a)) is CausalClass.SPACELIKE


def test_spacelike_chain_from_adjoint_consistent_kernels():
    # K(y,x) must equal K(x,y)^* in the indefinite sense; the chain
    # K(x,y) K(y,x) then has conjugation-closed spectrum
    space = DiscreteSpacetime(n=1, m=2)
    s0 = np.diag([1.0, -1.0])
    kxy = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex)
    kyx = s0 @ kxy.conj().T @ s0
    chain = kxy @ kyx
    roots = np.linalg.eigvals(chain)
    assert np.max(np.abs(np.sort(roots.imag))) > 1.0
    assert classify(roots) is CausalClass.SPACELIKE


def test_graph_diagonal_is_timelike_and_symmetric():
    for seed in range(6):
        space = DiscreteSpacetime(n=2, m=4)
        proj = random_projector(space, f=5, seed=seed, boost_scale=1.0)
        graph = causal_graph(proj)
        assert graph.m == 4
        assert graph.is_symmetric()
        for x in range(graph.m):
            # the diagonal chain is the square of a self-adjoint block, so
            # its spectrum is real and non-negative
            assert graph[x, x] is CausalClass.TIMELIKE


def test_graph_for_projector_onto_negative_coordinates():
    space = DiscreteSpacetime(n=1, m=3)
    basis = np.zeros((space.dim, 3), dtype=complex)
    for x in range(3):
        basis[2 * x + 1, x] = 1.0
    proj = FermionicProjector(space, basis)
    graph = causal_graph(proj)
    counts = graph.counts()
    assert counts[CausalClass.TIMELIKE] == 6  # all unordered pairs incl. diagonal
    assert counts[CausalClass.SPACELIKE] == 0
    assert counts[CausalClass.UNDETERMINED] == 0
    assert graph.off_diagonal_class() is CausalClass.TIMELIKE


def test_graph_invariant_under_gauge_transforms():
    space = DiscreteSpacetime(n=2, m=3)
    proj = random_projector(space, f=4, seed=11, boost_scale=0.8)
    before = causal_graph(proj).classes
    for seed in range(5):
        gauge = random_gauge(space, seed=seed, scale=0.7)
        after = causal_graph(gauge.apply(proj)).classes
        assert all(
            before[x, y] is after[x, y]
            for x in range(space.m)
            for y in range(space.m)
        )


def test_json_round_trip():
    space = DiscreteSpacetime(n=1, m=3)
    proj = random_projector(space, f=2, seed=3, boost_scale=1.2)
    graph = causal_graph(proj)
    again = CausalGraph.from_json(graph.to_json())
    assert again.m == graph.m
    assert all(
        graph[x, y] is again[x, y] for x in range(graph.m) for y in range(graph.m)
    )


def test_edge_list_format():
    space = DiscreteSpacetime(n=1, m=3)
    proj = random_projector(space, f=2, seed=5)
    text = causal_graph(proj).to_edge_list()
    lines = text.strip().splitlines()
    assert lines[0] == "p causal 3 6"
    assert len(lines) == 7
    for line in lines[1:]:
        tag, x, y, cls = line.split()
        assert tag == "e"
        assert int(x) <= int(y)
        assert cls in {"t", "s", "u"}

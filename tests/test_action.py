import numpy as np
import pytest

from dstlab import DiscreteSpacetime, random_direction, random_gauge, random_projector
from dstlab.solver import SolverConfig, minimize
from dstlab.tolerances import DEFAULT
import dstlab.action as act


def dense_chain(p, x, y):
    """A_xy = P(x,y) P(y,x) from two point blocks of the dense P (no kernel_blocks)."""
    pm, sp = p.matrix(), p.space
    return pm[sp.point_slice(x), sp.point_slice(y)] @ pm[sp.point_slice(y), sp.point_slice(x)]


def sample_chain(seed, m=4, f=2):
    sp = DiscreteSpacetime(1, m)
    p = random_projector(sp, f, seed=seed)
    rng = np.random.default_rng(seed)
    x, y = rng.integers(0, m, size=2)
    return dense_chain(p, int(x), int(y))


def test_spectral_weights_basic():
    roots = np.array([3.0, -1.0])
    assert act.spectral_weight(roots) == 4.0
    assert act.spectral_weight_sq(roots) == 10.0
    assert act.lagrangian(roots, 0.5) == pytest.approx(2.0)


def test_critical_identity_random_roots():
    rng = np.random.default_rng(42)
    for n in (1, 2):
        roots = rng.normal(size=(500, 2 * n)) + 1j * rng.normal(size=(500, 2 * n))
        for row in roots:
            lhs = act.lagrangian(row, act.critical_mu(n))
            rhs = act.pairwise_critical_lagrangian(row)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_critical_lagrangian_nonnegative_and_zero_on_equal_moduli():
    rng = np.random.default_rng(1)
    mods = rng.uniform(0.5, 2.0, size=50)
    for r in mods:
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        assert act.lagrangian(r * phases, act.critical_mu(2)) == pytest.approx(0.0, abs=1e-14)
    roots = rng.normal(size=(50, 4))
    for row in roots:
        assert act.lagrangian(row, act.critical_mu(2)) >= -1e-13


def test_closed_chain_isospectral_swap():
    sp = DiscreteSpacetime(1, 4)
    p = random_projector(sp, 2, seed=11)
    for x, y in [(0, 1), (2, 3), (1, 3)]:
        r1 = np.linalg.eigvals(dense_chain(p, x, y))
        r2 = np.linalg.eigvals(dense_chain(p, y, x))
        assert act.multiset_distance(r1, r2) < 1e-10


def test_chain_selfadjoint_spectrum_conjugation_closed():
    # chains are self-adjoint for the indefinite product, so the root
    # multiset is closed under conjugation
    for seed in range(10):
        a = sample_chain(seed)
        lam = np.linalg.eigvals(a)
        assert act.multiset_distance(lam, np.conj(lam)) < 1e-8


def test_chain_blocks_match_single_chain():
    sp = DiscreteSpacetime(1, 3)
    p = random_projector(sp, 2, seed=3)
    k = act.kernel_blocks(p)
    chains = act.chain_blocks(k)
    for x in range(3):
        for y in range(3):
            assert np.allclose(chains[x, y], dense_chain(p, x, y))


def test_kernel_block_adjoint_relation():
    # P(x,y)^* = P(y,x) with the point-block adjoint S0 K^dagger S0
    sp = DiscreteSpacetime(1, 3)
    p = random_projector(sp, 2, seed=6)
    k = act.kernel_blocks(p)
    s0 = sp.block_signs
    for x in range(3):
        for y in range(3):
            adj = s0[:, None] * k[x, y].conj().T * s0[None, :]
            assert np.allclose(adj, k[y, x], atol=1e-12)


def test_action_diagonal_included():
    sp = DiscreteSpacetime(1, 2)
    p = random_projector(sp, 1, seed=0)
    total = 0.0
    for x in range(2):
        for y in range(2):
            total += act.lagrangian(np.linalg.eigvals(dense_chain(p, x, y)), 0.5)
    assert act.action(p, 0.5) == pytest.approx(total, rel=1e-12)


# -- gradient ---------------------------------------------------------------


def test_gradient_matches_fd_nondegenerate():
    checked = 0
    seed = 0
    while checked < 25:
        seed += 1
        a = sample_chain(seed)
        lam = np.linalg.eigvals(a)
        mod = np.abs(lam)
        scale = 1.0 + mod.max()
        if mod.min() < 1e-3 * scale or np.ptp(mod) < 1e-3 * scale:
            continue  # degenerate or equal-modulus chain: excluded here
        for mu in (0.0, 0.3, 0.5):
            m_an = act.lagrangian_gradient(a, mu)
            msq, mabs = act.finite_difference_gradient(a)
            m_fd = msq - mu * mabs
            err = np.max(np.abs(m_an - m_fd)) / np.max(np.abs(m_fd))
            assert err < 1e-5, f"seed={seed} mu={mu} err={err:.2e}"
        checked += 1


def test_gradient_frozen_mixed_sign_diagonal():
    # dL at diag(3,-1), mu=1/2: the roots have mixed sign so |A| = 4 != tr A;
    # hand differentiation (and the FD oracle) give diag(2, 2)
    a = np.diag([3.0, -1.0]).astype(complex)
    m = act.lagrangian_gradient(a, 0.5)
    assert np.allclose(m, np.diag([2.0, 2.0]), atol=1e-8)
    msq, mabs = act.finite_difference_gradient(a)
    assert np.allclose(msq - 0.5 * mabs, np.diag([2.0, 2.0]), atol=1e-6)


def test_gradient_same_sign_closed_form():
    # all roots real positive: M = 2A - 2 mu tr(A) Id
    rng = np.random.default_rng(7)
    for n2 in (2, 4):
        q = rng.normal(size=(n2, n2))
        a = (q @ np.diag(rng.uniform(0.5, 2.0, size=n2)) @ np.linalg.inv(q)).astype(complex)
        for mu in (0.25, 0.5):
            m = act.lagrangian_gradient(a, mu)
            assert np.allclose(m, 2 * a - 2 * mu * np.trace(a) * np.eye(n2), atol=1e-9)


def test_gradient_zero_on_conjugate_pairs_at_critical_mu():
    # spacelike chain: roots a +/- ib, equal moduli -> M = 0 exactly
    a = np.array([[0.2, 0.5], [-0.5, 0.2]], dtype=complex)  # roots 0.2 +/- 0.5i
    m = act.lagrangian_gradient(a, act.critical_mu(1))
    assert np.max(np.abs(m)) < 1e-12


def test_gradient_fd_fallback_on_zero_root():
    a = np.diag([0.0, 1.0]).astype(complex)
    # |.| has a kink at 0; the fallback's central differences are the
    # symmetric choice there and must reproduce the smooth entries exactly
    m = act.lagrangian_gradient(a, 0.5)
    assert m[1, 1] == pytest.approx(1.0, abs=1e-6)
    assert abs(m[0, 0]) < 1e-6


def test_finite_difference_gradient_matches_entrywise_loop():
    # reference: one eigvals call per perturbed chain; the batched oracle may
    # differ only by the rounding of its weights (a few ulp) over 2h
    rng = np.random.default_rng(5)
    for a in (sample_chain(3), rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))):
        d = a.shape[0]
        h = DEFAULT.fd_step * (1.0 + np.linalg.norm(a))
        ref = np.zeros((2, d, d), dtype=complex)
        for be in range(d):
            for al in range(d):
                e = np.zeros((d, d))
                e[be, al] = 1.0
                w = []
                for shift in (h, -h, 1j * h, -1j * h):
                    mod = np.abs(np.linalg.eigvals(a + shift * e))
                    w.append([np.sum(mod * mod), np.sum(mod) ** 2])
                w = np.array(w)
                ref[:, al, be] = (w[0] - w[1] - 1j * (w[2] - w[3])) / (2 * h)
        tol = 8 * np.finfo(float).eps * np.sum(np.abs(np.linalg.eigvals(a))) ** 2 / h
        for got, want in zip(act.finite_difference_gradient(a), ref):
            assert np.max(np.abs(got - want)) <= tol


def _count_fd_calls(monkeypatch):
    calls = []
    oracle = act.finite_difference_gradient

    def counting(a, step=DEFAULT.fd_step):
        calls.append(a)
        return oracle(a, step)

    monkeypatch.setattr(act, "finite_difference_gradient", counting)
    return calls


def test_gradient_closed_form_at_tetrahedron_minimizer(monkeypatch):
    # every chain of the m=4 minimizer has a simple zero root; the zero-root
    # rule handles them all in closed form and matches the FD oracle there
    cfg = SolverConfig(mode="auxiliary", mu=0.5, seeds=(0, 1, 2, 3))
    res = minimize(DiscreteSpacetime(1, 4), 2, cfg)
    chains = act.chain_blocks(act.kernel_blocks(res.projector))
    norms = np.linalg.norm(chains, axis=(-2, -1))
    smallest = np.abs(act.chain_roots(chains)).min(axis=-1)
    assert np.all(smallest < DEFAULT.eig_zero * (1.0 + norms))
    oracle = act.finite_difference_gradient
    calls = _count_fd_calls(monkeypatch)
    msq, mabs = act.gradient_blocks(chains)
    assert len(calls) == 0
    for x in range(4):
        for y in range(4):
            fsq, fabs = oracle(chains[x, y])
            assert np.max(np.abs(msq[x, y] - fsq)) <= 1e-8
            assert np.max(np.abs(mabs[x, y] - fabs)) <= 1e-8


def test_gradient_fd_on_nonzero_root_collision(monkeypatch):
    a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # Jordan block at 1
    calls = _count_fd_calls(monkeypatch)
    act.lagrangian_gradient(a, 0.5)
    assert len(calls) == 1


def test_gradient_fd_on_double_zero_root(monkeypatch):
    # a semisimple double zero root is no collision: both roots take the
    # zero subgradient in closed form, the smooth entries and 0 on the zero
    # block that the FD oracle gives too
    a = np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex)
    calls = _count_fd_calls(monkeypatch)
    m = act.lagrangian_gradient(a, 0.25)
    assert len(calls) == 0
    # M = 2 conj(lam) - 2 mu |A| sign(lam) on the diagonal, |A| = 3
    assert np.allclose(m, np.diag([0.0, 0.0, 0.5, 2.5]), atol=1e-6)


def test_gradient_fd_on_a_defective_zero_block(monkeypatch):
    # a zero root with a nilpotent part (fewer zero singular values than zero
    # roots) stays a collision; a semisimple double zero root does not
    jordan = np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex)
    jordan[0, 1] = 1.0
    shift = np.diag(np.ones(3), 1).astype(complex)  # nilpotent 4 x 4 block
    # an exact similarity: a permutation and a diagonal of powers of 2 and i
    perm = np.eye(4)[[2, 0, 3, 1]] * np.array([2.0, 1j, 4.0, -0.5])
    mixed = perm @ jordan @ np.linalg.inv(perm)
    rng = np.random.default_rng(4)
    v = np.eye(4) + 0.3 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    semisimple = v @ np.diag([0.0, 0.0, 1.0, 2.0]) @ np.linalg.inv(v)
    chains = np.array([jordan, mixed, shift, semisimple])
    assert np.array_equal(act._gradient_eig(chains, DEFAULT)[2], [True, True, True, False])
    oracle = act.finite_difference_gradient
    calls = _count_fd_calls(monkeypatch)
    msq, mabs = act.gradient_blocks(chains)
    assert len(calls) == 3
    for k, a in enumerate(chains):
        fsq, fabs = oracle(a)
        assert np.max(np.abs(msq[k] - fsq)) <= 1e-5
        assert np.max(np.abs(mabs[k] - fabs)) <= 1e-5


@pytest.mark.parametrize("m, f, mu, seed", [(3, 2, 0.25, 1), (4, 2, 0.25, 0),
                                            (4, 2, 0.25, 3), (3, 2, 0.2, 1)])
def test_structural_double_zero_roots_of_n2_take_the_closed_form(monkeypatch, m, f, mu, seed):
    # with f < 2n = 4 every chain has 2n - f zero roots with a semisimple
    # zero eigenspace; their zero subgradient gives the orbit slope to
    # 1e-9 (finite differences on every pair were off by about 1e-3)
    space = DiscreteSpacetime(2, m)
    p = random_projector(space, f, seed)
    calls = _count_fd_calls(monkeypatch)
    for k in range(3):
        b = random_direction(space, seed=seed + 100 * k)
        analytic = act.first_variation(act.el_commutator(p, mu), b)
        fd = act.orbit_derivative_fd(p, mu, b, step=1e-5)
        assert analytic == pytest.approx(fd, rel=1e-7, abs=1e-9)
    assert len(calls) == 0
    res = minimize(space, f, SolverConfig(mode="auxiliary", mu=mu, seeds=(seed,), max_iter=5))
    assert res.per_seed[0]["iterations"] > 0


def test_projector_chain_determinants_are_conjugate_moduli_squared():
    # K_yx = S_y K_xy^dagger S_x, so det K_yx = conj(det K_xy) and
    # delta_xy = |det K_xy|^2 >= 0: a projector has no mixed-sign real pair
    for m in (3, 5, 9):
        for f in (1, 2, 3):
            for seed in range(3):
                cp = act.ChainPass(random_projector(DiscreteSpacetime(1, m), f, seed=seed))
                scale = 1.0 + np.abs(cp.p).max() ** 2
                assert np.max(np.abs(cp.det.T - np.conj(cp.det))) <= 1e-14 * scale
                assert cp.delta.min() >= -1e-14 * scale**2


def test_gradient_blocks_match_pairwise():
    sp = DiscreteSpacetime(1, 3)
    p = random_projector(sp, 2, seed=21)
    chains = act.chain_blocks(act.kernel_blocks(p))
    msq, mabs = act.gradient_blocks(chains)
    for x in range(3):
        for y in range(3):
            single = act.lagrangian_gradient(chains[x, y], 0.4)
            assert np.allclose(msq[x, y] - 0.4 * mabs[x, y], single, atol=1e-9)


# -- Q kernel and first variation ------------------------------------------


def test_q_kernel_selfadjoint():
    sp = DiscreteSpacetime(1, 4)
    p = random_projector(sp, 2, seed=13)
    q = act.q_kernel(p, 0.5)
    assert np.allclose(sp.adjoint(q), q, atol=1e-8)


def test_first_variation_identity_random_directions():
    sp = DiscreteSpacetime(1, 4)
    for seed in range(6):
        p = random_projector(sp, 2, seed=30 + seed)
        b = random_direction(sp, seed=60 + seed)
        c = act.el_commutator(p, 0.5)
        analytic = act.first_variation(c, b)
        fd = act.orbit_derivative_fd(p, 0.5, b)
        assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)
    # along the descent's unit direction B = -S k, k = K/||K|| with
    # K = 4i [P,Q] S Hermitian-symmetrized, the first variation is -||K||:
    # at a fresh pass, a renormalized one and the slices of a stacked pass
    for n, m, f in ((1, 4, 2), (2, 3, 3)):
        sp = DiscreteSpacetime(n, m)
        p = random_projector(sp, f, seed=7)
        b = random_direction(sp, seed=8)
        stack = act.TrialStack([(p, b / np.linalg.norm(b), [0.4, 0.2])])
        passes = [act.ChainPass(p), act.ChainPass(stack[1].renormalized()), act.ChainPass(stack)]
        comms = []
        for chains in passes:
            q = act.q_kernel(chains, 0.5)
            comms.extend(np.reshape(chains.p @ q - q @ chains.p, (-1,) + q.shape[-2:]))
        assert len(comms) == 4
        for c in comms:
            norm = 4.0 * np.linalg.norm(c)
            k = (4j / norm) * (c * sp.signs)
            k = 0.5 * (k + k.conj().T)
            slope = act.first_variation(c, -sp.signs[:, None] * k)
            assert abs(slope + norm) <= 1e-14 * norm


def test_first_variation_constraint_kernel():
    # same identity for the constraint functional T via its own Q kernel
    sp = DiscreteSpacetime(1, 3)
    p = random_projector(sp, 2, seed=17)
    b = random_direction(sp, seed=18)
    qt = act.constraint_q_kernel(p)
    pm = p.matrix()
    analytic = act.first_variation(pm @ qt - qt @ pm, b)
    step = 1e-6
    tp = act.transported(p, b, step)
    tm = act.transported(p, b, -step)
    fd = (act.constraint_value(tp) - act.constraint_value(tm)) / (2 * step)
    assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_full_negative_subspace_is_stationary():
    # P onto the whole negative coordinate subspace is gauge-diagonal;
    # [P, Q] = 0 exactly by symmetry
    sp = DiscreteSpacetime(1, 3)
    e_minus = np.zeros((6, 3), dtype=complex)
    for j, idx in enumerate([1, 3, 5]):
        e_minus[idx, j] = 1.0
    from dstlab import FermionicProjector

    p = FermionicProjector(sp, e_minus)
    c = act.el_commutator(p, 0.5)
    assert np.max(np.abs(c)) < 1e-10
    assert act.el_residual(p, 0.5) < 1e-10


def test_invariance_under_gauge_transforms():
    sp = DiscreteSpacetime(1, 4)
    p = random_projector(sp, 2, seed=40)
    s0 = act.action(p, 0.5)
    t0 = act.constraint_value(p)
    r0 = act.el_residual(p, 0.5)
    roots0 = act.chain_roots(act.chain_blocks(act.kernel_blocks(p))).ravel()
    for seed in range(5):
        g = random_gauge(sp, seed=70 + seed)
        q = g.apply(p)
        assert act.action(q, 0.5) == pytest.approx(s0, rel=1e-10)
        assert act.constraint_value(q) == pytest.approx(t0, rel=1e-10)
        assert act.el_residual(q, 0.5) == pytest.approx(r0, rel=1e-8, abs=1e-10)
        roots = act.chain_roots(act.chain_blocks(act.kernel_blocks(q))).ravel()
        assert act.multiset_distance(roots, roots0) < 1e-9


def test_transported_projector_stays_on_orbit():
    sp = DiscreteSpacetime(1, 3)
    p = random_projector(sp, 2, seed=50)
    b = random_direction(sp, seed=51)
    q = act.transported(p, b, 0.3)
    dev = q.check_invariants()
    assert dev["gram"] < 1e-10
    # spectra of P itself are preserved (it stays a rank-f projector)
    assert q.rank == p.rank


RETRACTION_CASES = [(1, 3, 2), (1, 4, 2), (1, 9, 2), (2, 3, 3)]


def _start_and_direction(n, m, f):
    sp = DiscreteSpacetime(n, m)
    b = random_direction(sp, seed=2)
    return random_projector(sp, f, seed=1), b / np.linalg.norm(b)


@pytest.mark.parametrize("n, m, f", RETRACTION_CASES)
def test_cayley_trials_keep_the_gram_matrix_up_to_the_max_step(n, m, f):
    # the Cayley step is indefinite-unitary in exact arithmetic, so a trial's
    # Gram matrix deviates from -Id by rounding only, at every step the line
    # search can try along a unit direction
    from dstlab.solver import MAX_STEP

    p, b = _start_and_direction(n, m, f)
    etas = MAX_STEP * 0.5 ** np.arange(12)
    stack = act.transported(p, b, np.concatenate([etas, -etas]))
    gram = stack.bases.conj().swapaxes(-1, -2) @ (p.space.signs[:, None] * stack.bases)
    assert np.abs(gram + np.eye(f)).max() <= 1e-13


@pytest.mark.parametrize("n, m, f", RETRACTION_CASES)
def test_cayley_step_agrees_with_the_exponential_to_third_order(n, m, f):
    # (I - G)^-1 (I + G) - exp(2G) = (2G)^3/12 + O(eta^4) with G = (i eta/2) B,
    # so ||C(eta) U - exp(i eta B) U|| / eta^3 tends to ||B^3 U||/12
    import scipy.linalg

    p, b = _start_and_direction(n, m, f)
    etas = 0.1 * 0.5 ** np.arange(7)
    stack = act.transported(p, b, etas)
    ratios = np.array([np.linalg.norm(stack.bases[j] - scipy.linalg.expm(1j * eta * b) @ p.basis)
                       for j, eta in enumerate(etas)]) / etas ** 3
    limit = np.linalg.norm(np.linalg.matrix_power(b, 3) @ p.basis) / 12.0
    assert np.all(np.abs(ratios / limit - 1.0) <= 0.05)
    assert abs(ratios[-1] / limit - 1.0) <= 1e-3


# -- roots and gradients of 2 x 2 chains (n = 1) ----------------------------


def _max_root_error(roots, reference):
    """Largest matched root distance per chain, over 1 + max|lam| of the chain."""
    roots = roots.reshape(-1, roots.shape[-1])
    reference = reference.reshape(-1, reference.shape[-1])
    return max(
        act.multiset_distance(r, ref) / (1.0 + np.abs(ref).max())
        for r, ref in zip(roots, reference)
    )


@pytest.mark.parametrize("m, f", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3),
                                  (9, 1), (9, 2), (9, 3)])
def test_closed_form_roots_match_eigvals(m, f):
    # the n = 1 chain pass takes its roots from (t, delta), not from a chain
    from dstlab.correlation import correlation_chain_roots, local_correlations

    for seed in range(4):
        p = random_projector(DiscreteSpacetime(1, m), f, seed=seed)
        chains = act.chain_blocks(act.kernel_blocks(p))
        roots = act.ChainPass(p).roots
        assert roots.shape == (m, m, 2)
        assert _max_root_error(roots, np.linalg.eigvals(chains)) <= 1e-12
        if f == 2:
            corr = local_correlations(p)
            pairs = np.array([
                [correlation_chain_roots(corr.rho[x], corr.vectors[x],
                                         corr.rho[y], corr.vectors[y])
                 for y in range(m)]
                for x in range(m)
            ])
            assert _max_root_error(roots, pairs) <= 1e-12


def _chain_with_roots(roots, seed):
    """A non-normal 2 x 2 matrix with the given roots."""
    rng = np.random.default_rng(seed)
    v = np.eye(2) + 0.4 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return v @ np.diag(roots) @ np.linalg.inv(v)


ROOT_KINDS = {
    "conjugate_pair": lambda r: 0.3 * r.uniform(0.5, 2.0) * np.exp(
        1j * r.uniform(0.2, 2.9) * np.array([1.0, -1.0])),
    "real_same_sign": lambda r: r.uniform(0.1, 2.0, size=2),
    "real_mixed_sign": lambda r: r.uniform(0.1, 2.0, size=2) * np.array([1.0, -1.0]),
    "zero_root": lambda r: np.array([r.uniform(0.1, 2.0), 0.0]),
    "near_threshold": lambda r: 0.3 + np.array([1e-5j, -1e-5j]),
}


@pytest.mark.parametrize("kind", list(ROOT_KINDS))
def test_closed_form_gradient_matches_eig_route_and_fd(monkeypatch, kind):
    rng = np.random.default_rng(3)
    chains = np.array([_chain_with_roots(ROOT_KINDS[kind](rng), seed) for seed in range(12)])
    oracle = act.finite_difference_gradient
    calls = _count_fd_calls(monkeypatch)
    msq, mabs = act.gradient_blocks(chains)
    assert len(calls) == 0
    for k, a in enumerate(chains):
        for got, want in zip((msq[k], mabs[k]), oracle(a)):
            assert np.max(np.abs(got - want)) <= 1e-5 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("gap", [0.0, 1e-13, 1e-11, 4e-9])
@pytest.mark.parametrize("pair", ["conjugate", "real"])
def test_closed_form_routes_a_vanishing_discriminant_to_fd(monkeypatch, gap, pair):
    # at the causal threshold the two roots meet; a gap under
    # eig_collision * (1 + max|lam|) is a collision, whatever the route
    split = 1j * gap if pair == "conjugate" else gap
    chains = np.array([_chain_with_roots([0.3 + split, 0.3 - split], seed)
                       for seed in range(3)])
    if gap == 0.0:
        chains[0] = [[0.3, 1.0], [0.0, 0.3]]  # the defective Jordan block
    oracle = act.finite_difference_gradient
    calls = _count_fd_calls(monkeypatch)
    msq, mabs = act.gradient_blocks(chains)
    assert len(calls) == len(chains)
    for k, a in enumerate(chains):
        assert np.array_equal(calls[k], a)
        want_sq, want_abs = oracle(a)
        assert np.array_equal(msq[k], want_sq)
        assert np.array_equal(mabs[k], want_abs)


def test_closed_form_gradient_at_exact_tetrahedron_minimizer(monkeypatch):
    # every chain of the regular tetrahedron has a simple zero root (the
    # critical Lagrangian's kink); no pair reaches finite differences
    from dstlab.correlation import projector_from_correlations, tetrahedron_family

    p = projector_from_correlations(DiscreteSpacetime(1, 4), tetrahedron_family(0.5))
    chains = act.chain_blocks(act.kernel_blocks(p))
    oracle = act.finite_difference_gradient
    calls = _count_fd_calls(monkeypatch)
    msq, mabs = act.gradient_blocks(chains)
    assert len(calls) == 0
    for x in range(4):
        for y in range(4):
            fsq, fabs = oracle(chains[x, y])
            assert np.max(np.abs(msq[x, y] - fsq)) <= 1e-8
            assert np.max(np.abs(mabs[x, y] - fabs)) <= 1e-8


def test_chains_of_spin_dimension_four_keep_the_eig_route(monkeypatch):
    calls = []
    eig = np.linalg.eig

    def counted(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    p = random_projector(DiscreteSpacetime(2, 3), 2, seed=1)
    act.q_kernel(p, 0.25)
    assert calls == [(3, 3, 4, 4)]


def test_el_residual_matches_commutator_spectrum():
    # the f x f reduction against the spectral weight of the full md x md [P, Q];
    # the block U^dag S X^2 U is Hermitian, which lets eigvalsh take its roots
    for n, m, f, mu in [(1, 3, 2, 0.5), (1, 4, 1, 0.5), (1, 9, 3, 0.4), (2, 3, 2, 0.25)]:
        for seed in range(3):
            p = random_projector(DiscreteSpacetime(n, m), f, seed=seed)
            x = act.el_commutator(p, mu)
            su = p.space.signs[:, None] * p.basis
            h = su.conj().T @ x @ x @ p.basis
            assert np.max(np.abs(h - h.conj().T)) <= 1e-13 * np.max(np.abs(h))
            full = act.spectral_weight(np.linalg.eigvals(x))
            assert act.el_residual(p, mu) == pytest.approx(full, rel=1e-10)


# -- one chain pass on the invariants t = tr A, delta = det A (n = 1) --------


def _eig_route_q(p, w_sq, w_abs):
    """Two-sided Q from the eig route's gradient blocks (the oracle)."""
    k = act.kernel_blocks(p)
    msq, mabs = act.gradient_blocks(act.chain_blocks(k))
    return act.blocks_to_matrix(act.q_blocks(k, w_sq * msq + w_abs * mabs))


@pytest.mark.parametrize("m, f", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3),
                                  (9, 1), (9, 2), (9, 3)])
def test_invariant_pass_matches_the_root_route_and_the_eig_oracle(monkeypatch, m, f):
    calls = _count_fd_calls(monkeypatch)
    for seed in range(3):
        p = random_projector(DiscreteSpacetime(1, m), f, seed=seed)
        chains = act.chain_blocks(act.kernel_blocks(p))
        lam = act.chain_roots(chains)
        cp = act.ChainPass(p)
        scale = 1.0 + np.abs(lam).max()
        assert np.max(np.abs(cp.t - lam.sum(axis=-1))) <= 1e-14 * scale
        assert np.max(np.abs(cp.delta - lam.prod(axis=-1))) <= 1e-14 * scale**2
        mod = np.abs(lam)
        for mu in (0.0, 0.3, 0.5):
            s, t = act.action_and_constraint(cp, mu)
            assert s == pytest.approx(np.sum(mod * mod) - mu * np.sum(mod.sum(-1) ** 2),
                                      rel=1e-13, abs=1e-15)
            assert t == pytest.approx(np.sum(mod.sum(-1) ** 2), rel=1e-13)
            for w_sq, w_abs, q in ((1.0, -mu, act.q_kernel(cp, mu)),
                                   (0.0, 1.0, act.constraint_q_kernel(cp))):
                eig = _eig_route_q(p, w_sq, w_abs)
                assert np.max(np.abs(q - eig)) <= 1e-13 * np.max(np.abs(eig))
    assert len(calls) == 0


def test_invariant_weights_follow_the_three_branch_table():
    # (t, delta) -> (|A^2|, |A|^2): conjugate pair, real same sign, real mixed
    # sign, and both branch boundaries (zero discriminant, zero determinant)
    roots = np.array([[0.3 + 0.4j, 0.3 - 0.4j], [2.0, 0.5], [-2.0, -0.5],
                      [1.5, -0.25], [0.7, 0.7], [1.2, 0.0], [0.0, 0.0]])
    t, delta = roots.sum(axis=1).real, roots.prod(axis=1).real
    sq, ab = act.invariant_weights(t, delta)
    mod = np.abs(roots)
    assert np.allclose(sq, np.sum(mod * mod, axis=1), rtol=1e-15, atol=0)
    assert np.allclose(ab, np.sum(mod, axis=1) ** 2, rtol=1e-15, atol=0)


def test_invariant_roots_label_a_conjugate_pair_by_the_sign_of_im():
    rng = np.random.default_rng(11)
    t = rng.uniform(-2.0, 2.0, size=400)
    delta = 0.25 * t * t + rng.uniform(-1.0, 1.0, size=400)
    plus, minus = act.invariant_roots(t, delta)
    lam = np.stack([plus, minus], axis=-1)
    a = np.zeros((400, 2, 2))  # companion matrices with trace t and det delta
    a[:, 0, 1], a[:, 1, 0], a[:, 1, 1] = 1.0, -delta, t
    assert _max_root_error(lam, np.linalg.eigvals(a)) <= 1e-13
    conj = 0.25 * t * t < delta
    assert np.all(plus[conj].imag > 0.0)
    assert np.array_equal(minus[conj], np.conj(plus[conj]))
    assert np.array_equal(plus[conj].real, 0.5 * t[conj])
    assert np.all(plus[~conj].imag == 0.0) and np.all(minus[~conj].imag == 0.0)
    assert np.all(plus[~conj].real >= minus[~conj].real)
    # an ulp on t or delta flips no label away from the threshold
    away = np.abs(0.25 * t * t - delta) > 1e-12
    for dt, dd in ((np.inf, 0), (-np.inf, 0), (0, np.inf), (0, -np.inf)):
        tt = np.nextafter(t, dt) if dt else t
        de = np.nextafter(delta, dd) if dd else delta
        p2, m2 = act.invariant_roots(tt, de)
        assert np.array_equal(np.sign(p2.imag)[away], np.sign(plus.imag)[away])
        assert np.max(np.abs(p2 - plus)[away]) <= 1e-12
        assert np.max(np.abs(m2 - minus)[away]) <= 1e-12


def test_invariant_gradient_at_the_tetrahedron_zero_roots_makes_no_fd_call(monkeypatch):
    # delta -> 0 on every off-diagonal chain of the regular tetrahedron: the
    # zero-root rule takes the mean delta-slope of |A|^2, no finite differences
    from dstlab.correlation import projector_from_correlations, tetrahedron_family

    p = projector_from_correlations(DiscreteSpacetime(1, 4), tetrahedron_family(0.5))
    cp = act.ChainPass(p)
    off = ~np.eye(4, dtype=bool)
    assert np.all(np.abs(cp.delta[off]) < 1e-20)
    calls = _count_fd_calls(monkeypatch)
    for w_sq, w_abs in ((1.0, -0.5), (1.0, 0.0), (0.0, 1.0)):
        q = cp.q(w_sq, w_abs)
        assert cp.fd_pairs == 0
        eig = _eig_route_q(p, w_sq, w_abs)
        assert np.max(np.abs(q - eig)) <= 1e-12 * np.max(np.abs(eig))
    assert len(calls) == 0


@pytest.mark.parametrize("collision", [DEFAULT.eig_collision, 1e-4, 1e-2])
def test_vanishing_discriminant_sends_the_root_routes_pairs_to_fd(monkeypatch, collision):
    # triangles across the causal threshold: the eig route sends the chains
    # whose gap 2 sqrt|t^2/4 - delta| falls under the collision scale to
    # finite differences; the invariant pass takes the mean of the two branch
    # slopes there, which is the mean of the one-sided kernels, and never
    # calls the oracle.  Off the band it matches the eig route, whose
    # spectral projectors lose digits as 1/gap
    from dstlab import FermionicProjector
    from dstlab.correlation import TRIANGLE_CAUSAL_THRESHOLD, triangle_projector

    def triangle(rel, tol=DEFAULT):
        # the eigenvector phases behind the family's basis jump with v; a
        # diagonal gauge makes the first basis column real and positive
        p = triangle_projector(TRIANGLE_CAUSAL_THRESHOLD * (1.0 + rel))
        phase = p.basis[:, 0] / np.abs(p.basis[:, 0])
        return FermionicProjector(p.space, p.basis / phase[:, None], tol)

    mean = 0.5 * (act.q_kernel(triangle(-1e-6), 0.5) + act.q_kernel(triangle(1e-6), 0.5))
    tol = DEFAULT.with_(eig_collision=collision)
    calls = _count_fd_calls(monkeypatch)
    for rel in (-1e-3, -1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6, 1e-3):
        p = triangle(rel, tol)
        calls.clear()
        cp = act.ChainPass(p)
        q = act.q_kernel(cp, 0.5)
        assert cp.fd_pairs == 0 and len(calls) == 0
        msq, mabs = act.gradient_blocks(act.chain_blocks(act.kernel_blocks(p)), tol)
        disc = 0.25 * cp.t * cp.t - cp.delta
        big = np.where(disc < 0.0, np.sqrt(np.abs(cp.delta)),
                       0.5 * np.abs(cp.t) + np.sqrt(np.abs(disc)))
        band = 2.0 * np.sqrt(np.abs(disc)) < collision * (1.0 + big)
        assert len(calls) == np.count_nonzero(band)
        if rel == 0.0 or (abs(rel) == 1e-12 and collision > DEFAULT.eig_collision):
            assert np.count_nonzero(band) == 6  # every off-diagonal pair
        if np.any(band):
            assert np.max(np.abs(q - mean)) <= 1e-5 * np.max(np.abs(mean))
        else:
            root = act.blocks_to_matrix(
                act.q_blocks(act.kernel_blocks(p), msq - 0.5 * mabs))
            assert np.max(np.abs(q - root)) <= 1e-6 * np.max(np.abs(root))


def _raise_on_call(*args, **kwargs):
    raise AssertionError("the n = 1 path must not call chain_roots, chain_blocks, "
                         "finite_difference_gradient, eig, eigvals or inv")


@pytest.mark.parametrize(
    "cfg",
    [
        SolverConfig(mode="auxiliary", mu=0.5, seeds=(0, 1), max_iter=40),
        SolverConfig(mode="constrained", kappa=0.85, seeds=(0,), max_iter=40),
    ],
    ids=["auxiliary", "constrained"],
)
def test_n1_minimize_makes_no_chain_roots_eig_eigvals_or_inv_call(monkeypatch, cfg):
    from dstlab.causal import causal_graph
    from dstlab.correlation import triangle_projector
    from dstlab.solver import landscape_scan

    for name in ("chain_roots", "chain_blocks", "finite_difference_gradient"):
        monkeypatch.setattr(act, name, _raise_on_call)
    for name in ("eig", "eigvals", "inv"):
        monkeypatch.setattr(np.linalg, name, _raise_on_call)
    res = minimize(DiscreteSpacetime(1, 3), 2, cfg)
    assert np.isfinite(res.action) and np.isfinite(res.residual)
    assert sum(r["iterations"] for r in res.per_seed) > 0
    assert causal_graph(res.projector).is_symmetric()
    records = landscape_scan(triangle_projector, np.linspace(0.6, 0.9, 7))
    # v = 0.6, 0.65 lie below the realizable v >= 2/3
    assert all(rec["error"].startswith("family needs v >= 2/3") for rec in records[:2])
    assert all("error" not in rec for rec in records[2:])

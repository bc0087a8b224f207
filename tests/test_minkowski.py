import numpy as np
import pytest

from dstlab.action import multiset_distance
from dstlab.causal import CausalClass
from dstlab.continuum.dirac import (
    GAMMA2,
    GAMMA4,
    METRIC4,
    minkowski_square,
    slash2,
    slash4,
    spin_adjoint,
)
from dstlab.continuum.minkowski import (
    LightConeUndefined,
    VectorScalarKernel,
    causal_class_of_kernel,
    chain_coefficients,
    chain_matrix,
    chain_root_values,
    classify_separation,
    kernel_gradient,
    kernel_q,
    q_swap_check,
)


def test_gamma_algebra():
    # {gamma_mu, gamma_nu} = 2 eta_{mu nu}, gamma0 Hermitian, spatial anti-Hermitian
    for mu in range(4):
        for nu in range(4):
            anti = GAMMA4[mu] @ GAMMA4[nu] + GAMMA4[nu] @ GAMMA4[mu]
            expect = 2.0 * METRIC4[mu, nu] * np.eye(4)
            assert np.allclose(anti, expect, atol=1e-14)
    assert np.allclose(GAMMA4[0].conj().T, GAMMA4[0])
    for i in (1, 2, 3):
        assert np.allclose(GAMMA4[i].conj().T, -GAMMA4[i])
    eta2 = np.diag([1.0, -1.0])
    for mu in range(2):
        for nu in range(2):
            anti = GAMMA2[mu] @ GAMMA2[nu] + GAMMA2[nu] @ GAMMA2[mu]
            assert np.allclose(anti, 2.0 * eta2[mu, nu] * np.eye(2), atol=1e-14)


def test_slash_squares_to_interval():
    rng = np.random.default_rng(11)
    for _ in range(25):
        v = rng.normal(size=4)
        sq = slash4(v) @ slash4(v)
        assert np.allclose(sq, minkowski_square(v) * np.eye(4), atol=1e-12)
        w = rng.normal(size=2)
        sq2 = slash2(w) @ slash2(w)
        assert np.allclose(sq2, (w[0] ** 2 - w[1] ** 2) * np.eye(2), atol=1e-12)


def test_spin_adjoint_of_slash():
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.normal(size=4)
        assert np.allclose(spin_adjoint(slash4(v)), slash4(v), atol=1e-13)


def test_chain_frozen_timelike():
    kern = VectorScalarKernel(alpha=1.0, beta=1.0, xi=(1.0, 0.0, 0.0, 0.0))
    coeff = chain_coefficients(kern)
    assert coeff.a == pytest.approx(2.0)
    assert coeff.b == pytest.approx(2.0)
    roots = np.sort_complex(chain_root_values(kern))
    assert np.allclose(roots, [0.0, 0.0, 4.0, 4.0], atol=1e-12)
    assert np.max(np.abs(roots.imag)) == 0.0
    # pairwise products are nonnegative: all eigenvalues share a sign
    for ra in roots:
        for rb in roots:
            assert (ra * rb).real >= -1e-12
    assert causal_class_of_kernel(kern) is CausalClass.TIMELIKE


def test_chain_frozen_spacelike():
    kern = VectorScalarKernel(alpha=1.0, beta=1.0, xi=(0.0, 1.0, 0.0, 0.0))
    coeff = chain_coefficients(kern)
    assert coeff.a == pytest.approx(2.0)
    assert coeff.b == pytest.approx(0.0)
    roots = chain_root_values(kern)
    assert multiset_distance(roots, [2j, 2j, -2j, -2j]) < 1e-12
    assert causal_class_of_kernel(kern) is CausalClass.SPACELIKE


def test_chain_scalar_free_degenerate():
    kern = VectorScalarKernel(alpha=0.7 + 0.2j, beta=0.0, xi=(2.0, 0.5, 0.0, 0.3))
    coeff = chain_coefficients(kern)
    assert coeff.a == 0.0
    expect_b = abs(0.7 + 0.2j) ** 2 * kern.xi_square()
    assert coeff.b == pytest.approx(expect_b)
    assert np.allclose(chain_root_values(kern), expect_b)


def test_roots_match_matrix_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(200):
        kern = VectorScalarKernel(
            alpha=complex(rng.normal(), rng.normal()),
            beta=complex(rng.normal(), rng.normal()),
            xi=tuple(rng.normal(size=4)),
        )
        closed = chain_root_values(kern)
        spectral = np.linalg.eigvals(chain_matrix(kern))
        scale = 1.0 + np.max(np.abs(closed))
        assert multiset_distance(closed, spectral) < 1e-9 * scale


def test_classification_tracks_interval_sign():
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(500):
        kern = VectorScalarKernel(
            alpha=complex(rng.normal(), rng.normal()),
            beta=complex(rng.normal(), rng.normal()),
            xi=tuple(rng.normal(size=4)),
        )
        reference = classify_separation(kern.xi_vec)
        if reference is CausalClass.UNDETERMINED:
            continue
        checked += 1
        assert causal_class_of_kernel(kern) is reference
    assert checked > 400


def test_classify_separation_on_light_cone_is_undetermined():
    # a null separation has xi.xi = 0 and no sign to classify by
    assert classify_separation((1.0, 1.0, 0.0, 0.0)) is CausalClass.UNDETERMINED
    assert classify_separation((1.0, 0.5, 0.0, 0.0)) is CausalClass.TIMELIKE


def test_timelike_products_nonnegative():
    rng = np.random.default_rng(23)
    for _ in range(300):
        xi = rng.normal(size=4)
        xi[0] = np.sign(xi[0]) * (np.sqrt(np.sum(xi[1:] ** 2)) + rng.uniform(0.1, 2.0))
        kern = VectorScalarKernel(
            alpha=complex(rng.normal(), rng.normal()),
            beta=complex(rng.normal(), rng.normal()),
            xi=tuple(xi),
        )
        coeff = chain_coefficients(kern)
        assert coeff.xi_sq > 0
        lam_plus, _, lam_minus, _ = chain_root_values(kern)
        product = (lam_plus * lam_minus).real
        assert product >= -1e-10 * (1.0 + abs(lam_plus) ** 2)


def test_gradient_timelike_forms():
    kern = VectorScalarKernel(alpha=1.0, beta=1.0, xi=(1.0, 0.0, 0.0, 0.0))
    grad = kernel_gradient(kern)
    assert np.allclose(grad, 4.0 * GAMMA4[0], atol=1e-12)
    chain = chain_matrix(kern)
    traceless = 2.0 * chain - 0.5 * np.trace(chain) * np.eye(4)
    assert np.allclose(grad, traceless, atol=1e-12)


def test_gradient_matrix_route_agrees_randomly():
    rng = np.random.default_rng(31)
    for _ in range(100):
        xi = rng.normal(size=4)
        xi[0] = np.sign(xi[0]) * (np.sqrt(np.sum(xi[1:] ** 2)) + rng.uniform(0.2, 2.0))
        kern = VectorScalarKernel(
            alpha=complex(rng.normal(), rng.normal()),
            beta=complex(rng.normal(), rng.normal()),
            xi=tuple(xi),
        )
        grad = kernel_gradient(kern)
        coeff = chain_coefficients(kern)
        assert np.allclose(grad, 2.0 * coeff.a * slash4(kern.xi_vec), atol=1e-10)


def test_gradient_spacelike_zero():
    kern = VectorScalarKernel(alpha=0.8, beta=1.3 + 0.4j, xi=(0.2, 1.5, -0.4, 0.1))
    assert np.all(kernel_gradient(kern) == 0)


def test_gradient_on_cone_raises():
    kern = VectorScalarKernel(alpha=1.0, beta=1.0, xi=(1.0, 1.0, 0.0, 0.0))
    with pytest.raises(LightConeUndefined):
        kernel_gradient(kern)


def test_gradient_swap_symmetry():
    rng = np.random.default_rng(41)
    for _ in range(50):
        xi = rng.normal(size=4)
        xi[0] = np.sign(xi[0]) * (np.sqrt(np.sum(xi[1:] ** 2)) + 0.5)
        kern = VectorScalarKernel(
            alpha=complex(rng.normal(), rng.normal()),
            beta=complex(rng.normal(), rng.normal()),
            xi=tuple(xi),
        )
        assert np.allclose(
            kernel_gradient(kern), kernel_gradient(kern.swapped()), atol=1e-12
        )


def test_q_frozen_and_swap_adjoint():
    kern = VectorScalarKernel(alpha=1.0, beta=1.0, xi=(1.0, 0.0, 0.0, 0.0))
    q = kernel_q(kern)
    assert np.allclose(q, 2.0 * (np.eye(4) + GAMMA4[0]), atol=1e-12)
    rng = np.random.default_rng(43)
    for _ in range(50):
        xi = rng.normal(size=4)
        xi[0] = np.sign(xi[0]) * (np.sqrt(np.sum(xi[1:] ** 2)) + 0.5)
        kern = VectorScalarKernel(
            alpha=complex(rng.normal(), rng.normal()),
            beta=complex(rng.normal(), rng.normal()),
            xi=tuple(xi),
        )
        assert q_swap_check(kern) < 1e-11 * (1.0 + abs(kern.alpha) + abs(kern.beta))

"""Closed chains, spectral weights, the variational Lagrangian, and its gradient.

For a fermionic projector P the discrete kernel between points is the block
``P(x,y) = E_x P E_y`` and the closed chain is the 2n x 2n product

    A_xy = P(x,y) P(y,x),

self-adjoint for the indefinite product on the point block, hence with spectrum
closed under complex conjugation (the "roots" lam_j).  The spectral weights

    |A|   = sum_j |lam_j|,        |A^2| = sum_j |lam_j|^2,

define the Lagrangian ``L_mu[A] = |A^2| - mu |A|^2``, the action
``S_mu = sum_{x,y} L_mu[A_xy]`` over all ordered pairs (diagonal included), and
the constraint functional ``T = sum_{x,y} |A_xy|^2``.  At the critical value
``mu = 1/(2n)`` the Lagrangian equals ``(1/4n) sum_{i,j} (|lam_i|-|lam_j|)^2``
identically, so it is non-negative and vanishes exactly on chains whose roots
all share one modulus.

Gradients are taken entrywise: ``M[al,be] = dL / dA[be,al]`` so that
``dL = Re Tr(M dA)`` for an arbitrary complex perturbation (the Re is exact;
for the self-adjoint perturbations induced by varying P the trace is already
real).  On a chain with simple nonzero roots first-order eigenvalue
perturbation theory with bi-orthogonal left/right eigenvectors gives the closed
form

    M = sum_j [ 2 conj(lam_j) - 2 mu |A| conj(lam_j)/|lam_j| ] Pi_j,

with Pi_j the spectral projectors.  At a simple root at zero (``|lam_j| <
eig_zero (1 + ||A||)``) |.| has a kink; there the factor conj(lam_j)/|lam_j| is
set to 0, the symmetric subgradient, which is also what a central difference
gives since |lam_j(A +/- hE)| is even in h to first order.  Only a
near-defective eigenvalue collision (two roots closer than ``eig_collision (1 +
max|lam|)``, a double zero root included) falls back to central finite
differences.

From the gradient blocks the first variation of the action under P -> P + dP
is ``dS = 4 Tr(Q dP)`` with the kernel

    Q(x,y) = ( M[A_xy] P(x,y) + P(x,y) M[A_yx] ) / 4 ,

and along the unitary orbit (dP = i[B, P]) it becomes ``dS = 4i Tr([P,Q] B)``.
Critical points therefore satisfy the commutator equation [P, Q] = 0.
"""

import numpy as np
import scipy.linalg
import scipy.optimize

from .core import FermionicProjector
from .tolerances import DEFAULT

__all__ = [
    "critical_mu",
    "multiset_distance",
    "spectral_weight",
    "spectral_weight_sq",
    "lagrangian",
    "pairwise_critical_lagrangian",
    "ClosedChain",
    "closed_chain",
    "kernel_blocks",
    "chain_blocks",
    "chain_roots",
    "discrete_kernel",
    "action",
    "constraint_value",
    "action_and_constraint",
    "lagrangian_gradient",
    "gradient_blocks",
    "finite_difference_gradient",
    "q_kernel",
    "constraint_q_kernel",
    "q_blocks",
    "blocks_to_matrix",
    "el_commutator",
    "el_residual",
    "first_variation",
    "transported",
    "orbit_derivative_fd",
]


def critical_mu(n):
    """The critical Lagrangian parameter 1/(2n) for spin dimension 2n."""
    return 1.0 / (2.0 * n)


def multiset_distance(a, b):
    """Max matched distance between two complex multisets (optimal pairing).

    Sorting complex spectra is order-unstable when real parts nearly tie, so
    multiset comparisons here go through an optimal assignment instead.
    """
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size:
        raise ValueError("multisets must have equal size")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def spectral_weight(roots):
    """|A| = sum of root moduli."""
    return float(np.sum(np.abs(roots)))


def spectral_weight_sq(roots):
    """|A^2| = sum of squared root moduli (the roots of A^2 are the lam_j^2)."""
    r = np.abs(np.asarray(roots))
    return float(np.sum(r * r))


def lagrangian(roots, mu):
    """L_mu = |A^2| - mu |A|^2 from a root multiset."""
    r = np.abs(np.asarray(roots))
    return float(np.sum(r * r) - mu * np.sum(r) ** 2)


def pairwise_critical_lagrangian(roots):
    """(1/4n) sum_{i,j} (|lam_i| - |lam_j|)^2; equals L at mu = 1/(2n).

    Independent route to the critical Lagrangian, kept separate from
    :func:`lagrangian` on purpose so the identity can be cross-checked.
    """
    r = np.abs(np.asarray(roots))
    diff = r[:, None] - r[None, :]
    # 4n = 2 * (number of roots)
    return float(np.sum(diff * diff) / (2.0 * r.size))


# ---------------------------------------------------------------------------
# kernels and chains
# ---------------------------------------------------------------------------


def kernel_blocks(projector):
    """All discrete kernels P(x,y) as an (m, m, 2n, 2n) array."""
    m, d = projector.space.m, projector.space.spin_dim
    p = projector.matrix()
    return np.ascontiguousarray(p.reshape(m, d, m, d).transpose(0, 2, 1, 3))


def discrete_kernel(projector, x, y):
    """The 2n x 2n block P(x,y) = E_x P E_y."""
    sp = projector.space
    return projector.matrix()[sp.point_slice(x), sp.point_slice(y)]


def chain_blocks(kernels):
    """Closed chains A_xy = P(x,y) P(y,x) for all ordered pairs."""
    return np.einsum("xyij,yxjk->xyik", kernels, kernels)


def chain_roots(chains):
    """Roots (eigenvalues) of every chain; shape (m, m, 2n)."""
    return np.linalg.eigvals(chains)


class ClosedChain:
    """One closed chain A_xy with its root multiset.

    Attributes: ``x``, ``y``, ``matrix`` (2n x 2n), ``roots`` (length 2n).
    """

    def __init__(self, x, y, matrix):
        self.x = int(x)
        self.y = int(y)
        self.matrix = np.asarray(matrix, dtype=complex)
        self.roots = np.linalg.eigvals(self.matrix)

    def __repr__(self):
        return f"ClosedChain(x={self.x}, y={self.y}, roots={np.round(self.roots, 6)})"


def closed_chain(projector, x, y):
    kxy = discrete_kernel(projector, x, y)
    kyx = discrete_kernel(projector, y, x)
    return ClosedChain(x, y, kxy @ kyx)


def action(projector, mu):
    """S_mu = sum over all ordered point pairs of L_mu[A_xy]."""
    return action_and_constraint(projector, mu)[0]


def constraint_value(projector):
    """T = sum over all ordered point pairs of |A_xy|^2."""
    return action_and_constraint(projector, 0.0)[1]


def action_and_constraint(projector, mu):
    """(S_mu, T) sharing one spectral decomposition pass."""
    roots = chain_roots(chain_blocks(kernel_blocks(projector)))
    mod = np.abs(roots)
    sq = np.sum(mod * mod, axis=2)
    ab = np.sum(mod, axis=2)
    return float(np.sum(sq - mu * ab**2)), float(np.sum(ab**2))


# ---------------------------------------------------------------------------
# gradient of the Lagrangian
# ---------------------------------------------------------------------------


def finite_difference_gradient(a, step=DEFAULT.fd_step):
    """Central-difference gradients (M_sq, M_abs) of |A^2| and |A|^2.

    Entry convention matches the analytic path: ``M[al, be]`` differentiates
    with respect to ``A[be, al]``, with real and imaginary parts probed
    separately.  This is the oracle the analytic gradient is tested against,
    and the fallback at eigenvalue collisions.  All 4 d^2 perturbed chains go
    through one batched eigenvalue call.
    """
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    h = step * (1.0 + np.linalg.norm(a))
    # unit[al, be] has its single 1 at [be, al]
    unit = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3)
    shifts = np.array([h, -h, 1j * h, -1j * h])[:, None, None, None, None]
    mod = np.abs(np.linalg.eigvals(a + shifts * unit))
    weights = np.stack([np.sum(mod * mod, axis=-1), np.sum(mod, axis=-1) ** 2])
    # (|A^2|, |A|^2) x (real, imaginary probe) difference quotients
    quot = (weights[:, 0::2] - weights[:, 1::2]) / (2 * h)
    msq, mabs = quot[:, 0] - 1j * quot[:, 1]
    return msq, mabs


def _collision_mask(lam, tol):
    """Pairs with two roots closer than ``eig_collision * (1 + max|lam|)``."""
    gap = np.abs(lam[..., :, None] - lam[..., None, :])
    idx = np.arange(lam.shape[-1])
    gap[..., idx, idx] = np.inf
    scale = 1.0 + np.abs(lam).max(axis=-1)
    return gap.min(axis=(-2, -1)) < tol.eig_collision * scale


def gradient_blocks(chains, tol=DEFAULT):
    """(M_sq, M_abs) for every ordered pair; shape (m, m, 2n, 2n) each.

    Analytic spectral-projector route wherever the chain's roots are simple.
    A simple root with ``|lam| < eig_zero * (1 + ||A||)`` counts as zero and
    gets the zero subgradient of |lam| in closed form; only pairs with an
    eigenvalue collision use finite differences.
    """
    chains = np.asarray(chains, dtype=complex)
    lam, vec = np.linalg.eig(chains)
    norms = np.linalg.norm(chains, axis=(-2, -1))
    bad = _collision_mask(lam, tol)

    mod = np.abs(lam)
    zero = mod < tol.eig_zero * (1.0 + norms)[..., None]
    unit = np.where(zero, 0.0, np.conj(lam) / np.where(zero, 1.0, mod))
    c_sq = 2.0 * np.conj(lam)
    c_abs = 2.0 * mod.sum(axis=-1)[..., None] * unit

    vec_safe = vec.copy()
    d = chains.shape[-1]
    if np.any(bad):
        vec_safe[bad] = np.eye(d)
    vinv = np.linalg.inv(vec_safe)
    msq = vec_safe @ (c_sq[..., :, None] * vinv)
    mabs = vec_safe @ (c_abs[..., :, None] * vinv)

    for idx in zip(*np.nonzero(bad)):
        msq[idx], mabs[idx] = finite_difference_gradient(chains[idx], tol.fd_step)
    return msq, mabs


def lagrangian_gradient(a, mu, tol=DEFAULT):
    """Gradient matrix M of L_mu at a single chain A.

    Satisfies ``dL = Re Tr(M dA)`` for any complex perturbation dA; for the
    self-adjoint perturbations that arise from varying the projector the trace
    is real and the Re is vacuous.  Chains whose roots are all real with one
    sign reduce to the closed form ``2A - 2 mu Tr(A) Id``; chains in conjugate
    pairs of equal modulus give M = 0 at the critical mu.
    """
    a = np.asarray(a, dtype=complex)[None, None]
    msq, mabs = gradient_blocks(a, tol)
    return msq[0, 0] - mu * mabs[0, 0]


# ---------------------------------------------------------------------------
# Q kernel and Euler-Lagrange diagnostics
# ---------------------------------------------------------------------------


def q_blocks(kernels, mgrad):
    """Q(x,y) = (M[A_xy] P(x,y) + P(x,y) M[A_yx]) / 4 for all ordered pairs."""
    left = np.einsum("xyij,xyjk->xyik", mgrad, kernels)
    right = np.einsum("xyij,yxjk->xyik", kernels, mgrad)
    return 0.25 * (left + right)


def blocks_to_matrix(blocks):
    """Reassemble (m, m, d, d) point blocks into the full (md, md) operator."""
    m, _, d, _ = blocks.shape
    return np.ascontiguousarray(blocks.transpose(0, 2, 1, 3).reshape(m * d, m * d))


def q_kernel(projector, mu, tol=DEFAULT):
    """Full Q operator of the action S_mu as an (md, md) matrix."""
    k = kernel_blocks(projector)
    msq, mabs = gradient_blocks(chain_blocks(k), tol)
    return blocks_to_matrix(q_blocks(k, msq - mu * mabs))


def constraint_q_kernel(projector, tol=DEFAULT):
    """Q operator of the constraint functional T (dT = 4 Tr(Q_T dP))."""
    k = kernel_blocks(projector)
    _, mabs = gradient_blocks(chain_blocks(k), tol)
    return blocks_to_matrix(q_blocks(k, mabs))


def el_commutator(projector, mu, tol=DEFAULT):
    """[P, Q]; vanishes exactly at critical points of S_mu on the orbit."""
    q = q_kernel(projector, mu, tol)
    p = projector.matrix()
    return p @ q - q @ p


def el_residual(projector, mu, tol=DEFAULT):
    """Spectral weight of [P, Q] -- a similarity-invariant stationarity measure.

    Being built from eigenvalues it is invariant under gauge transforms
    (which are similarities but not Euclidean isometries).  Note a nilpotent
    commutator would be invisible here; the solver additionally monitors the
    Frobenius norm of its descent gradient, which vanishes iff [P,Q] = 0.
    """
    return spectral_weight(np.linalg.eigvals(el_commutator(projector, mu, tol)))


def first_variation(commutator, b):
    """dS/deta at eta=0 along P(eta) = exp(i eta B) P exp(-i eta B).

    Equals 4i Tr([P,Q] B); real for self-adjoint B (the imaginary part is
    discarded, it sits at rounding level).
    """
    return float(np.real(4j * np.trace(commutator @ np.asarray(b))))


def transported(projector, b, eta):
    """exp(i eta B) P exp(-i eta B) as a new projector (basis conjugated)."""
    u = scipy.linalg.expm(1j * eta * np.asarray(b))
    return FermionicProjector(projector.space, u @ projector.basis, projector.tol)


def orbit_derivative_fd(projector, mu, b, step=1e-6):
    """Central difference of S_mu along the orbit direction B (oracle)."""
    sp = action(transported(projector, b, step), mu)
    sm = action(transported(projector, b, -step), mu)
    return (sp - sm) / (2.0 * step)

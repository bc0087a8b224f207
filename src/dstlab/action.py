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
gives since |lam_j(A +/- hE)| is even in h to first order; so do the zero
roots of a semisimple zero eigenspace.  Only a near-defective collision (two
roots closer than ``eig_collision (1 + max|lam|)``, or a zero block with a
nilpotent part) falls back to central finite differences.

From the gradient blocks the first variation of the action under P -> P + dP
is ``dS = 4 Tr(Q dP)`` with the kernel

    Q(x,y) = ( M[A_xy] P(x,y) + P(x,y) M[A_yx] ) / 4 ,

and along the unitary orbit (dP = i[B, P]) it becomes ``dS = 4i Tr([P,Q] B)``.
Critical points therefore satisfy the commutator equation [P, Q] = 0.
Batched LAPACK ``eig`` serves every chain matrix, of any size; projectors of
spin dimension 2 form no chain matrix at all (below).

Spin dimension 2 (n = 1): two real invariants
----------------------------------------------
A 2 x 2 chain is self-adjoint in the indefinite product, so its trace
t = tr(K_xy K_yx) and its determinant delta = det K_xy det K_yx (K_xy =
P(x,y)) are real, t_xy = t_yx, delta_xy = delta_yx, and the roots are t/2
+/- sqrt(t^2/4 - delta): a conjugate pair (spacelike) or two real roots
(timelike) by the sign of t^2/4 - delta.  The weights are piecewise
polynomials in (t, delta), with no root and no square root:

    branch              condition        |A^2|          |A|^2
    conjugate pair      t^2 < 4 delta    2 delta        4 delta
    real, same sign     delta >= 0       t^2 - 2 delta  t^2
    real, mixed sign    delta < 0        t^2 - 2 delta  t^2 - 4 delta

:class:`ChainPass` computes the action, the constraint and the kernel Q from
them in one pass.  Since dt = tr dA and d delta = tr(adj(A) dA) with adj(A)
= t Id - A, a Lagrangian L(t, delta) has the gradient

    M = (L_t + t L_delta) Id - L_delta A = alpha Id + beta A,

and with A_xy K_xy = K_xy A_yx the kernel needs no M block:

    Q(x,y) = K_xy [ (alpha_xy + alpha_yx) Id + (beta_xy + beta_yx) A_yx ] / 4
           = [ (L_t,xy + L_t,yx) K_xy
               + (L_delta,xy + L_delta,yx) det(K_xy) adj(K_yx) ] / 4.

For a projector K_yx = S_y K_xy^dagger S_x, so delta_xy = |det K_xy|^2 >= 0:
the mixed-sign row is met by generic chains only, |A|^2 is smooth across
delta = 0, and the one kink is the causal threshold t^2 = 4 delta.  On its
band 2 sqrt|t^2/4 - delta| < eig_collision (1 + |lam_+|) L_t and L_delta are
the mean of the two branches' slopes, the symmetric subgradient.

The roots themselves, for the causal classes and the landscape records, come
from (t, delta) on demand (:func:`invariant_roots`), so a pass that only
values a projector computes none.  The ``eig`` route of
:func:`gradient_blocks` and the finite-difference gradient are the oracles of
the invariant route.

Line-search trials
------------------
:func:`transported` moves the image basis U by the Cayley step C(eta) = (I -
G)^-1 (I + G), G = (i eta/2) B, a retraction onto the orbit that is exactly
indefinite-unitary for self-adjoint B and agrees with exp(i eta B) up to eta^3
terms (Wen and Yin, Math. Program. 142, 2013).  A :class:`TrialStack` holds
the steps of one or several searches (the seeds of a solve), one batched
linear solve and one batched product, and the
:class:`ChainPass` of a stack runs the formulas above, Q included, over its
leading axis: each slice is bit for bit the pass of that trial alone.  A line
search takes the slice ``ChainPass(stack)[j]`` of the step it accepts as its
next iterate, so the iterate carries the pass, T included, that its gradient
reads, and only the trials a search takes become projectors.
"""

import functools

import numpy as np

from .core import FermionicProjector, gram_deviation, projector_matrix
from .tolerances import DEFAULT

__all__ = [
    "critical_mu",
    "multiset_distance",
    "spectral_weight",
    "spectral_weight_sq",
    "lagrangian",
    "pairwise_critical_lagrangian",
    "kernel_blocks",
    "chain_blocks",
    "chain_roots",
    "action",
    "constraint_value",
    "action_and_constraint",
    "invariant_weights",
    "invariant_roots",
    "ChainPass",
    "TrialStack",
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
    Multisets that match element for element once sorted (the exact
    conjugate pairs of the n = 1 roots) have a zero-cost pairing, which the
    assignment would return, so they give 0.0 without one.
    """
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size:
        raise ValueError("multisets must have equal size")
    if np.array_equal(np.sort_complex(a), np.sort_complex(b)):
        return 0.0
    # scipy.optimize loads only for multisets that differ, so importing
    # dstlab.cli does not pay for it
    import scipy.optimize

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
    """(1/4n) sum_{i,j} (|lam_i| - |lam_j|)^2 over the last axis; L at mu = 1/(2n).

    Independent route to the critical Lagrangian, kept separate from
    :func:`lagrangian` on purpose so the identity can be cross-checked.
    """
    r = np.abs(np.asarray(roots))
    diff = r[..., :, None] - r[..., None, :]
    # 4n = 2 * (number of roots)
    return np.sum(diff * diff, axis=(-2, -1)) / (2.0 * r.shape[-1])


# ---------------------------------------------------------------------------
# kernels and chains
# ---------------------------------------------------------------------------


def kernel_blocks(projector):
    """All discrete kernels P(x,y) as an (m, m, 2n, 2n) array.

    ``projector`` may be a :class:`TrialStack`; the kernels then carry its
    leading axis.
    """
    m, d = projector.space.m, projector.space.spin_dim
    p = projector.matrix()
    return np.ascontiguousarray(p.reshape(*p.shape[:-2], m, d, m, d).swapaxes(-3, -2))


def chain_blocks(kernels):
    """Closed chains A_xy = P(x,y) P(y,x) for all ordered pairs (any leading axes)."""
    return np.einsum("...xyij,...yxjk->...xyik", kernels, kernels)


def chain_roots(chains):
    """Roots of every chain matrix by batched ``eigvals``; shape (..., 2n)."""
    return np.linalg.eigvals(chains)


def action(projector, mu):
    """S_mu = sum over all ordered point pairs of L_mu[A_xy]."""
    return action_and_constraint(projector, mu)[0]


def constraint_value(projector):
    """T = sum over all ordered point pairs of |A_xy|^2."""
    return action_and_constraint(projector, 0.0)[1]


def action_and_constraint(projector, mu):
    """(S_mu, T) from one chain pass; ``projector`` may be its :class:`ChainPass`.

    A stacked pass (of a :class:`TrialStack`) gives one (S_mu, T) per trial,
    as two arrays; ``mu`` is then a number or a 1-D array, one per trial.
    """
    chains = _pass_of(projector)
    if isinstance(mu, np.ndarray):
        mu = mu.reshape(-1, 1, 1)
    s, t = (chains.sq - mu * chains.ab).sum(axis=(-2, -1)), chains.constraint
    return (float(s), float(t)) if s.ndim == 0 else (s, t)


# ---------------------------------------------------------------------------
# one chain pass per projector: value, constraint and gradient kernel
# ---------------------------------------------------------------------------


def invariant_weights(t, delta):
    """(|A^2|, |A|^2) of 2 x 2 chains with real trace t and determinant delta.

    The three branches of the module docstring's table in one expression:
    max(t^2, 4 delta) is 4 delta on a conjugate pair and t^2 on a real one.
    """
    top = np.maximum(t * t, 4.0 * delta)
    return top - 2.0 * delta, top - 4.0 * np.minimum(delta, 0.0)


def invariant_roots(t, delta):
    """(lam_+, lam_-) of 2 x 2 chains with real trace t and determinant delta.

    A conjugate pair (t^2 < 4 delta) is t/2 +/- i sqrt(delta - t^2/4), lam_+
    the root with Im > 0.  A real pair is ordered by value: the root of larger
    modulus, t/2 + sign(t) sqrt(t^2/4 - delta), is free of cancellation and
    the other is delta over it.
    """
    t = np.asarray(t, dtype=float)
    disc = 0.25 * t * t - delta
    root = np.sqrt(np.abs(disc))
    big = 0.5 * t + np.copysign(root, t)
    small = np.divide(delta, big, out=np.zeros_like(big), where=big != 0.0)
    conj = disc < 0.0
    plus = np.where(conj, 0.5 * t + 1j * root, np.maximum(big, small))
    minus = np.where(conj, 0.5 * t - 1j * root, np.minimum(big, small))
    return plus, minus


class ChainPass:
    """The closed chains of one projector, formed once for S, T and Q.

    ``projector`` is the projector of the pass, ``p`` its dense matrix and
    ``tol`` its tolerance bundle, which ``q`` reads.
    Chains of spin dimension 2 (n = 1) are kept as the real (m, m) arrays
    ``t`` = tr A_xy and ``delta`` = det K_xy det K_yx, with ``det`` = det
    K_xy, K_xy = P(x,y); the value needs no chain matrix, root or square
    root.  Larger chains keep ``kernels``, ``chains`` and their ``roots``
    (m, m, 2n); at n = 1 ``roots`` is (lam_+, lam_-) from (t, delta), formed
    on first use.  ``sq`` and ``ab`` are the weights |A^2| and |A|^2 of every
    chain, (m, m) each, and ``constraint`` is T, the sum of ``ab``.
    ``fd_pairs`` is the number of ordered pairs the last gradient sent to
    finite differences, always 0 at n = 1.

    The pass of a :class:`TrialStack` is stacked: every array carries the
    stack's leading axis, so ``constraint`` holds one T per trial, and each
    slice is bit for bit the pass of that trial alone.
    :func:`action_and_constraint` serves it whole.  Indexed by j it gives the
    pass of trial j (views of its arrays, no new work), whose ``projector``
    is ``stack[j]``.  ``q`` of a stacked pass, or of the passes of several
    projectors joined by :meth:`stacked`, is one Q and FD count per slice.
    """

    def __init__(self, projector):
        self.projector, self.space, self.tol = projector, projector.space, projector.tol
        self.p = p = projector.matrix()
        self.fd_pairs = 0
        m = projector.space.m
        if projector.space.n == 1:
            pair = p * p.swapaxes(-1, -2)
            self.t = pair.reshape(p.shape[:-2] + (m, 2, m, 2)).sum(axis=(-3, -1)).real
            self.det = (p[..., ::2, ::2] * p[..., 1::2, 1::2]
                        - p[..., ::2, 1::2] * p[..., 1::2, ::2])
            self.delta = (self.det * self.det.swapaxes(-1, -2)).real
            self.sq, self.ab = invariant_weights(self.t, self.delta)
        else:
            self.kernels = kernel_blocks(projector)
            self.chains = chain_blocks(self.kernels)
            mod = np.abs(self.roots)
            self.sq, self.ab = np.sum(mod * mod, axis=-1), np.sum(mod, axis=-1) ** 2
        self.constraint = self.ab.sum(axis=(-2, -1))

    # the arrays that carry a stacked pass's leading axis, at n >= 2 and at n = 1
    _sliced = (("p", "kernels", "chains", "roots", "sq", "ab", "constraint"),
               ("p", "t", "det", "delta", "sq", "ab", "constraint"))

    def __getitem__(self, j):
        part = object.__new__(ChainPass)
        state = vars(part)
        state["space"], state["tol"], state["fd_pairs"] = self.space, self.tol, self.fd_pairs
        for name in self._sliced[self.space.n == 1]:
            state[name] = getattr(self, name)[j]
        part.projector = self.projector[j]
        return part

    @classmethod
    def stacked(cls, passes):
        """The passes of projectors of one space stacked for ``q``; no projector."""
        part = object.__new__(cls)
        part.projector, part.space, part.tol = None, passes[0].space, passes[0].tol
        part.fd_pairs = np.zeros(len(passes), dtype=int)
        names = ("t", "det", "delta") if part.space.n == 1 else ("kernels", "chains")
        for name in ("p", "constraint", *names):
            setattr(part, name, np.array([getattr(c, name) for c in passes]))
        return part

    @functools.cached_property
    def roots(self):
        if self.space.n == 1:
            return np.stack(invariant_roots(self.t, self.delta), axis=-1)
        return chain_roots(self.chains)

    def q(self, w_sq, w_abs):
        """Q operator (md, md) of w_sq |A^2| + w_abs |A|^2 summed over all pairs.

        A stacked pass gives one Q per slice.  A weight may be an array
        broadcasting against the pass's leading axes (one per slice, or
        weight sets on an axis before them); Q carries the broadcast axes.
        """
        n = self.space.n
        points = (1,) * (2 if n == 1 else 4)
        w_sq, w_abs = (w.reshape(w.shape + points) if isinstance(w, np.ndarray) else w
                       for w in (w_sq, w_abs))
        if n > 1:
            msq, mabs, bad = _gradient(self.chains, self.tol)
            self.fd_pairs = np.count_nonzero(bad, axis=(-2, -1))
            return blocks_to_matrix(q_blocks(self.kernels, w_sq * msq + w_abs * mabs))
        t, delta = self.t, self.delta
        m, s2 = t.shape[-1], self.space.block_signs
        disc = 0.25 * t * t - delta
        half_gap = np.sqrt(np.abs(disc))  # |lam_+ - lam_-| / 2
        big = np.where(disc < 0.0, np.sqrt(np.abs(delta)), 0.5 * np.abs(t) + half_gap)
        # share of the real branch: 1 or 0 by the sign of the discriminant,
        # 1/2 (the mean of the two branch slopes) on the threshold band
        real = np.where(2.0 * half_gap < self.tol.eig_collision * (1.0 + big), 0.5, disc >= 0.0)
        # slopes L_t, L_delta of w_sq |A^2| + w_abs |A|^2 (module docstring table)
        l_t = 2.0 * (w_sq + w_abs) * real * t
        l_delta = ((1.0 - real) * (2.0 * w_sq + 4.0 * w_abs)
                   + real * (2.0 * w_abs * np.sign(delta) - 2.0 * (w_sq + w_abs)))
        # Q(x,y) = [(L_t,xy + L_t,yx) K_xy + (L_d,xy + L_d,yx) det K_xy adj K_yx]/4;
        # block (x,y) of S P^T S with rows and columns swapped in pairs is adj K_yx
        p = self.p.reshape(t.shape[:-2] + (m, 2, m, 2))
        adj = s2[:, None, None] * p.swapaxes(-4, -2).swapaxes(-3, -1)[..., ::-1, :, ::-1] * s2
        lt = 0.25 * (l_t + l_t.swapaxes(-1, -2))
        ld = 0.25 * (l_delta + l_delta.swapaxes(-1, -2)) * self.det
        q = lt[..., None, :, None] * p + ld[..., None, :, None] * adj
        return q.reshape(lt.shape[:-2] + self.p.shape[-2:])


def _pass_of(source):
    return source if isinstance(source, ChainPass) else ChainPass(source)


# ---------------------------------------------------------------------------
# gradient of the Lagrangian
# ---------------------------------------------------------------------------


def finite_difference_gradient(a, step=DEFAULT.fd_step):
    """Central-difference gradients (M_sq, M_abs) of |A^2| and |A|^2.

    Entry convention matches the analytic path: ``M[al, be]`` differentiates
    with respect to ``A[be, al]``, with real and imaginary parts probed
    separately.  This is the oracle the analytic routes are tested against,
    and the fallback at eigenvalue collisions.  All 4 d^2 perturbed chains go
    through one batched ``eigvals`` call: the oracle takes no eigenvectors, no
    invariants and no zero-root rule.
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


def _collision_mask(chains, lam, zero, tol):
    """Pairs with two roots closer than ``eig_collision * (1 + max|lam|)``.

    Two ``zero`` roots collide only in a defective zero eigenspace, with fewer
    zero singular values than zero roots (a nilpotent part).
    """
    gap = np.abs(lam[..., :, None] - lam[..., None, :])
    gap[zero[..., :, None] & zero[..., None, :]] = np.inf
    idx = np.arange(lam.shape[-1])
    gap[..., idx, idx] = np.inf
    bad = gap.min(axis=(-2, -1)) < tol.eig_collision * (1.0 + np.abs(lam).max(axis=-1))
    count = zero.sum(axis=-1)
    multiple = count > 1
    if np.any(multiple):
        sv = np.linalg.svd(chains[multiple], compute_uv=False)
        null = sv < tol.eig_zero * (1.0 + np.linalg.norm(sv, axis=-1, keepdims=True))
        bad[multiple] |= null.sum(axis=-1) < count[multiple]
    return bad


def _coefficients(chains, lam, tol):
    """(c_sq, c_abs, zero): dL = Re sum_j c_j dlam_j for L = |A^2| and |A|^2.

    A root with ``|lam| < eig_zero * (1 + ||A||_F)`` is ``zero`` and gets the
    zero subgradient of |lam|: its factor conj(lam)/|lam| is set to 0.
    """
    norms = np.linalg.norm(chains, axis=(-2, -1))
    mod = np.abs(lam)
    zero = mod < tol.eig_zero * (1.0 + norms)[..., None]
    unit = np.where(zero, 0.0, np.conj(lam) / np.where(zero, 1.0, mod))
    return 2.0 * np.conj(lam), 2.0 * mod.sum(axis=-1)[..., None] * unit, zero


def _gradient_eig(chains, tol):
    """(M_sq, M_abs, collision mask) from batched ``eig`` and spectral projectors.

    Serves chain matrices of every size, 2 x 2 included; the n = 1 chain pass
    forms none and is tested against this route.
    """
    lam, vec = np.linalg.eig(chains)
    c_sq, c_abs, zero = _coefficients(chains, lam, tol)
    bad = _collision_mask(chains, lam, zero, tol)
    vec[bad] = np.eye(chains.shape[-1])
    vinv = np.linalg.inv(vec)
    msq = vec @ (c_sq[..., :, None] * vinv)
    mabs = vec @ (c_abs[..., :, None] * vinv)
    return msq, mabs, bad


def _gradient(chains, tol):
    chains = np.asarray(chains, dtype=complex)
    msq, mabs, bad = _gradient_eig(chains, tol)
    for idx in zip(*np.nonzero(bad)):
        msq[idx], mabs[idx] = finite_difference_gradient(chains[idx], tol.fd_step)
    return msq, mabs, bad


def gradient_blocks(chains, tol=DEFAULT):
    """(M_sq, M_abs) for every ordered pair; shape (m, m, 2n, 2n) each.

    One analytic route for every chain size: batched ``eig`` and spectral
    projectors wherever the chain's roots are simple.  A simple root with
    ``|lam| < eig_zero * (1 + ||A||)`` counts as zero and gets the zero
    subgradient of |lam| in closed form, as do the roots of a semisimple zero
    eigenspace; only pairs with an eigenvalue collision use finite
    differences.  It takes any chain, not only one of a projector;
    :class:`ChainPass` serves the solver and is tested against this route.
    """
    return _gradient(chains, tol)[:2]


def lagrangian_gradient(a, mu):
    """Gradient matrix M of L_mu at a single chain A.

    Satisfies ``dL = Re Tr(M dA)`` for any complex perturbation dA; for the
    self-adjoint perturbations that arise from varying the projector the trace
    is real and the Re is vacuous.  Chains whose roots are all real with one
    sign reduce to the closed form ``2A - 2 mu Tr(A) Id``; chains in conjugate
    pairs of equal modulus give M = 0 at the critical mu.
    """
    a = np.asarray(a, dtype=complex)[None, None]
    msq, mabs = gradient_blocks(a)
    return msq[0, 0] - mu * mabs[0, 0]


# ---------------------------------------------------------------------------
# Q kernel and Euler-Lagrange diagnostics
# ---------------------------------------------------------------------------


def q_blocks(kernels, mgrad):
    """Q(x,y) = (M[A_xy] P(x,y) + P(x,y) M[A_yx]) / 4 for all ordered pairs (x,y) and slices."""
    left = np.einsum("...xyij,...xyjk->...xyik", mgrad, kernels)
    right = np.einsum("...xyij,...yxjk->...xyik", kernels, mgrad)
    return 0.25 * (left + right)


def blocks_to_matrix(blocks):
    """Reassemble (..., m, m, d, d) point blocks into the full (..., md, md) operators."""
    *lead, m, _, d, _ = blocks.shape
    return np.ascontiguousarray(blocks.swapaxes(-3, -2).reshape(*lead, m * d, m * d))


def q_kernel(projector, mu):
    """Full Q operator of the action S_mu as an (md, md) matrix.

    ``projector`` may be its :class:`ChainPass`, which is then reused.
    """
    return _pass_of(projector).q(1.0, -mu)


def constraint_q_kernel(projector):
    """Q operator of the constraint functional T (dT = 4 Tr(Q_T dP)).

    ``projector`` may be its :class:`ChainPass`, which is then reused.
    """
    return _pass_of(projector).q(0.0, 1.0)


def el_commutator(projector, mu):
    """[P, Q]; vanishes exactly at critical points of S_mu on the orbit."""
    q = q_kernel(projector, mu)
    p = projector.matrix()
    return p @ q - q @ p


def el_residual(projector, mu):
    """Spectral weight of [P, Q] -- a similarity-invariant stationarity measure.

    Being built from eigenvalues it is invariant under gauge transforms
    (which are similarities but not Euclidean isometries).  Note a nilpotent
    commutator would be invisible here; the solver additionally monitors the
    Frobenius norm of its descent gradient, which vanishes iff [P,Q] = 0.

    X = [P, Q] = PQ(1-P) - (1-P)QP maps im P into its complement and back, so
    its nonzero roots are +/- sqrt(-nu) for the roots nu of X^2 on im P.  In
    the image basis U that is the f x f block U^dag S X^2 U, and the weight is
    2 sum sqrt|nu|: no eigenproblem of size md.  With U^dag S U = -Id and X
    anti-self-adjoint (S X^dag S = -X) the block is Hermitian, so ``eigvalsh``
    takes its roots.
    """
    x = el_commutator(projector, mu)
    u = projector.basis
    su = projector.space.signs[:, None] * u
    h = (su.conj().T @ x) @ (x @ u)
    nu = np.linalg.eigvalsh(h)
    return 2.0 * float(np.sum(np.sqrt(np.abs(nu))))


def first_variation(commutator, b):
    """dS/deta at eta=0 along P(eta) = exp(i eta B) P exp(-i eta B).

    The oracle of dS = 4i Tr([P,Q] B) that the tests use; real for
    self-adjoint B (the imaginary part is discarded, it sits at rounding
    level).  The descent does not call it: along its unit direction
    B = -S K/||K|| it is -||K|| (see :mod:`dstlab.solver`).
    """
    return float((4j * (commutator @ np.asarray(b)).trace()).real)


class TrialStack:
    """The Cayley steps C(eta) P C(eta)^-1 of B for the steps eta of one or more searches.

    ``moves`` holds (P, B, 1-D steps) per search, all of one space.  With G =
    (i eta/2) B the Cayley step is C(eta) = (I - G)^-1 (I + G).  B is
    self-adjoint in the indefinite product, so (I + G)^dagger S = S (I - G),
    and as I +/- G commute C(eta) is exactly indefinite-unitary.  One batched
    product B U over the searches, U the image basis of a search, and
    products indexed by each trial's search form I - G and U + G U of all
    trials at once.  One batched ``np.linalg.solve`` of (I - G) X = U + G U
    over the (k, md, md) stack then gives the (k, md, f) stack ``bases``,
    and one batched product the read-only (k, md, md) stack ``dense`` that
    ``matrix()`` returns, so the :class:`ChainPass` of the stack is one
    stacked pass.  ``stack[j]`` makes trial j a validated
    :class:`~dstlab.core.FermionicProjector`: the first index measures the
    Gram drift of every slice with one batched product
    (:func:`~dstlab.core.gram_deviation`), which each trial taken then
    carries, and a slice above 1e3 ``tol.gram`` is refused.
    """

    def __init__(self, moves):
        self.space, self.tol = moves[0][0].space, moves[0][0].tol
        steps = [etas for _, _, etas in moves]
        search = np.arange(len(moves)).repeat([len(etas) for etas in steps])
        half = 0.5j * np.concatenate(steps)[:, None, None]
        dirs = np.array([b for _, b, _ in moves])
        bases = np.array([proj.basis for proj, _, _ in moves])
        # G U = (i eta/2) (B U) needs no G; the products go in place, as a
        # second (k, md, md) array costs more than they do at large md
        rhs = (dirs @ bases).take(search, axis=0)
        rhs *= half
        rhs += bases.take(search, axis=0)
        lhs = dirs.take(search, axis=0)
        lhs *= -half
        diag = np.arange(self.space.dim)
        lhs[:, diag, diag] += 1.0
        self.bases = np.linalg.solve(lhs, rhs)
        self.dense = projector_matrix(self.space, self.bases)
        self.dense.flags.writeable = False

    def matrix(self):
        return self.dense

    @functools.cached_property
    def gram_devs(self):
        return gram_deviation(self.space, self.bases)

    def __getitem__(self, j):
        return FermionicProjector.measured(self.space, self.bases[j], self.tol, self.gram_devs[j])


def transported(projector, b, eta):
    """The Cayley step C(eta) P C(eta)^-1 along B as a new projector (basis C U).

    C(eta) = (I - (i eta/2) B)^-1 (I + (i eta/2) B) is the retraction of
    :class:`TrialStack`, tangent to exp(i eta B) at eta = 0.  A 1-D array
    of steps gives their :class:`TrialStack`; one step is its one-trial case.
    """
    stack = TrialStack([(projector, b, eta if np.ndim(eta) else [eta])])
    return stack if np.ndim(eta) else stack[0]


def orbit_derivative_fd(projector, mu, b, step=1e-6):
    """Central difference of S_mu along the Cayley step of B (oracle).

    The step has the tangent of exp(i eta B), so this tests the first variation.
    """
    sp = action(transported(projector, b, step), mu)
    sm = action(transported(projector, b, -step), mu)
    return (sp - sm) / (2.0 * step)

"""Discrete space-time, indefinite inner product, and fermionic projectors.

Conventions
-----------
A discrete space-time with ``m`` points and spin dimension ``2n`` is modeled on
``H = C^(2nm)``.  Point ``x`` (0-based) owns the component slice
``[2n*x, 2n*(x+1))``.  Within each point block the first ``n`` components carry
signature +1 and the last ``n`` carry -1, so the inner product is

    <u|v> = sum_i  s_i * conj(u_i) * v_i,        s = (+1,..,+1,-1,..,-1) per block,

antilinear in the *first* argument.  The adjoint with respect to this product is
``A^* = S A^dagger S`` with ``S = diag(s)``.

A fermionic projector of rank ``f`` is stored through a basis ``u_1..u_f`` of its
image with Gram matrix ``<u_i|u_j> = -delta_ij`` (the image is negative
definite).  The operator acts as ``P v = -sum_i u_i <u_i|v>``; as a matrix,
``P = -U U^dagger S`` with the basis vectors as columns of ``U``.  Idempotency
and self-adjointness follow from the Gram condition, so representing the basis
(rather than the full matrix) keeps the constraint surface exact up to the
orthonormality drift, which is re-normalized whenever it exceeds the ``gram``
tolerance.

Randomness is deterministic: every sampler takes an integer seed and feeds it to
a counter-based Philox generator, so identical seeds give identical bits on a
platform.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tolerances import DEFAULT, Tolerances

__all__ = [
    "DiscreteSpacetime",
    "FermionicProjector",
    "GaugeTransform",
    "InvalidInput",
    "indefinite_orthonormalize",
    "random_projector",
    "random_gauge",
    "random_direction",
    "random_generator",
]


class InvalidInput(ValueError):
    """An input refused by a check that a run's config can reach.

    ``dstlab.cli`` exits 2 on it and 3 on any other failure of a run; a check
    that no config can reach raises a plain ValueError.
    """


def indefinite_adjoint(a, signs):
    """S A^dagger S for S = diag(signs), on the last two axes of a matrix or a stack."""
    return signs[:, None] * np.conj(np.asarray(a)).swapaxes(-1, -2) * signs


def random_generator(seed):
    """Counter-based deterministic generator (numpy Philox) for ``seed``."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True, eq=False)
class DiscreteSpacetime:
    """Finite point set with spin dimension 2n and signature (n, n) per point.

    Parameters
    ----------
    n : int
        Half the spin dimension; each point block is 2n-dimensional with
        signature (+1)^n (-1)^n.
    m : int
        Number of space-time points.

    Attributes
    ----------
    signs : numpy.ndarray
        Signature vector s as a read-only float array of +/-1, length ``dim``.
    block_signs : numpy.ndarray
        Signature of a single point block as a read-only array, length 2n.
    """

    n: int
    m: int
    signs: np.ndarray = field(init=False, repr=False)
    block_signs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise InvalidInput(f"need n >= 1 and m >= 1, got n={self.n} m={self.m}")
        block = np.concatenate([np.ones(self.n), -np.ones(self.n)])
        signs = np.tile(block, self.m)
        block.flags.writeable = False
        signs.flags.writeable = False
        object.__setattr__(self, "block_signs", block)
        object.__setattr__(self, "signs", signs)

    @property
    def spin_dim(self):
        return 2 * self.n

    @property
    def dim(self):
        """Total dimension 2 n m of the underlying indefinite space."""
        return 2 * self.n * self.m

    def point_slice(self, x):
        """Component slice owned by point ``x``."""
        if not 0 <= x < self.m:
            raise ValueError(f"point index {x} outside 0..{self.m - 1}")
        d = self.spin_dim
        return slice(d * x, d * (x + 1))

    def product(self, u, v):
        """Indefinite inner product <u|v>, antilinear in ``u``."""
        u = np.asarray(u)
        v = np.asarray(v)
        return complex(np.sum(self.signs * np.conj(u) * v))

    def adjoint(self, a):
        """Indefinite adjoint S A^dagger S of a matrix on the full space."""
        return indefinite_adjoint(a, self.signs)


def _gram(space, basis):
    # <u_i|u_j> for basis columns; the target is -Id.
    return basis.conj().T @ (space.signs[:, None] * basis)


def gram_deviation(space, bases):
    """max |<u_i|u_j> + delta_ij| of an image basis, or of each basis of a stack (..., dim, f).

    One batched product serves a stack, each slice bit for bit the deviation
    of its basis alone.
    """
    gram = bases.conj().swapaxes(-1, -2) @ (space.signs[:, None] * bases)
    return np.abs(gram + np.eye(bases.shape[-1])).max(axis=(-2, -1))


def projector_matrix(space, basis):
    """Dense P = -U U^dagger S of an image basis U, or of a stack (..., dim, f) of them."""
    return -basis @ (basis.conj().swapaxes(-1, -2) * space.signs)


def indefinite_orthonormalize(space, vectors):
    """Return a basis spanning ``vectors`` with Gram matrix exactly -Id.

    Works whenever the span is negative definite: then ``-G`` is Hermitian
    positive definite, ``-G = L L^dagger``, and ``U L^{-dagger}`` has Gram -Id.

    Raises
    ------
    ValueError
        If the span is not negative definite (or the vectors are linearly
        dependent), in which case no such basis exists.
    """
    basis = np.asarray(vectors, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != space.dim:
        raise ValueError(f"expected shape ({space.dim}, f), got {basis.shape}")
    g = _gram(space, basis)
    try:
        chol = np.linalg.cholesky(-g)
    except np.linalg.LinAlgError:
        raise ValueError("span is not negative definite; cannot orthonormalize") from None
    # scipy.linalg loads at its first use, so importing dstlab.cli does not pay for it
    import scipy.linalg

    # L^{-dagger} by a triangular solve, not a general LU inverse
    return basis @ scipy.linalg.solve_triangular(chol.conj().T, np.eye(len(chol)))


@dataclass(frozen=True, eq=False)
class FermionicProjector:
    """Rank-f projector with negative-definite image, P v = -sum u_i <u_i|v>.

    ``basis`` has shape (dim, f) with columns u_i satisfying
    <u_i|u_j> = -delta_ij up to the ``gram`` tolerance.  Prefer the
    constructors :func:`random_projector`,
    :func:`dstlab.correlation.projector_from_correlations`, or
    :meth:`from_span` over building the array by hand.

    ``gram_dev`` is the largest entry of |<u_i|u_j> + delta_ij|, measured
    once when the projector is built (the basis is read-only), or by the
    maker of a basis it hands to :meth:`measured`.  The dense matrix is
    formed on the first :meth:`matrix` call.
    """

    space: DiscreteSpacetime
    basis: np.ndarray
    tol: Tolerances = DEFAULT
    gram_dev: float = field(init=False, repr=False)

    def __post_init__(self):
        basis = np.ascontiguousarray(self.basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[0] != self.space.dim:
            raise ValueError(f"basis must have shape ({self.space.dim}, f), got {basis.shape}")
        if not 1 <= basis.shape[1] <= self.space.n * self.space.m:
            raise ValueError(
                f"rank f={basis.shape[1]} outside 1..{self.space.n * self.space.m} "
                "(a negative definite subspace has dimension at most nm)"
            )
        self._seal(basis, gram_deviation(self.space, basis))

    def _seal(self, basis, gram_dev):
        if gram_dev > 1e3 * self.tol.gram:
            raise ValueError(
                f"basis Gram deviates from -Id by {gram_dev:.3e}; "
                "use indefinite_orthonormalize first"
            )
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "gram_dev", float(gram_dev))

    @classmethod
    def measured(cls, space, basis, tol, gram_dev):
        """The projector of a contiguous complex (dim, f) ``basis`` whose ``gram_dev`` is known.

        The shape and rank checks are the caller's, as is the measurement
        (:func:`gram_deviation`); a basis above 1e3 ``tol.gram`` is still
        refused.
        """
        proj = object.__new__(cls)
        object.__setattr__(proj, "space", space)
        object.__setattr__(proj, "tol", tol)
        proj._seal(basis, gram_dev)
        return proj

    @classmethod
    def from_span(cls, space, vectors, tol=DEFAULT):
        """Projector onto the (negative definite) span of the given columns."""
        return cls(space, indefinite_orthonormalize(space, vectors), tol)

    @property
    def rank(self):
        return self.basis.shape[1]

    def matrix(self):
        """Dense matrix  P = -U U^dagger S, formed once per projector (read-only)."""
        return self._dense

    @cached_property
    def _dense(self):
        p = projector_matrix(self.space, self.basis)
        p.flags.writeable = False
        return p

    def apply(self, v):
        """P v without forming the dense matrix."""
        coeff = self.basis.conj().T @ (self.space.signs * np.asarray(v, dtype=complex))
        return -self.basis @ coeff

    def gram(self):
        """Gram matrix <u_i|u_j> of the stored basis (target: -Id)."""
        return _gram(self.space, self.basis)

    def renormalized(self):
        """Fresh projector with the orthonormality drift removed."""
        return FermionicProjector(
            self.space, indefinite_orthonormalize(self.space, self.basis), self.tol
        )

    def check_invariants(self):
        """Deviation diagnostics: idempotency, self-adjointness, Gram, rank.

        Returns a dict of non-negative floats; all should sit at machine
        precision for a healthy projector.
        """
        p = self.matrix()
        out = {
            "idempotency": float(np.max(np.abs(p @ p - p))),
            "self_adjointness": float(np.max(np.abs(self.space.adjoint(p) - p))),
            "gram": float(np.max(np.abs(self.gram() + np.eye(self.rank)))),
            "rank_defect": float(self.rank - np.linalg.matrix_rank(p, tol=1e-8)),
        }
        return out

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        """JSON-ready dict; complex entries become [re, im] pairs."""
        b = self.basis
        return {
            "n": self.space.n,
            "m": self.space.m,
            "f": self.rank,
            "basis": [
                [[float(z.real), float(z.imag)] for z in b[:, j]] for j in range(self.rank)
            ],
            "tolerances": {"gram": self.tol.gram},
        }

    @classmethod
    def from_dict(cls, data, tol=DEFAULT):
        space = DiscreteSpacetime(int(data["n"]), int(data["m"]))
        cols = [np.array([re + 1j * im for re, im in col]) for col in data["basis"]]
        basis = np.stack(cols, axis=1)
        if basis.shape != (space.dim, int(data["f"])):
            raise ValueError("basis shape inconsistent with declared (n, m, f)")
        declared = data.get("tolerances", {})
        if "gram" in declared:
            tol = tol.with_(gram=float(declared["gram"]))
        return cls(space, basis, tol)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path, tol=DEFAULT):
        with open(path) as fh:
            return cls.from_dict(json.load(fh), tol)


def _gaussian_hermitian(rng, d, scale):
    """Gaussian Hermitian d x d matrix (x + x^dagger) scale / (2 sqrt d), x = N + iN."""
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (x + x.conj().T) * (scale / (2.0 * np.sqrt(d)))


def random_projector(space, f, seed, boost_scale=1.0, tol=DEFAULT):
    """Seeded random fermionic projector of rank ``f``.

    Sampling: f complex Gaussian vectors in the negative-definite coordinate
    subspace, indefinite orthonormalization, then conjugation by a random
    indefinite unitary exp(iB) with B = S*H, H Gaussian Hermitian scaled by
    ``boost_scale``.  (S*H is self-adjoint for the indefinite product, so
    exp(iB) preserves it; the conjugation reaches configurations with
    correlations between points.)

    Deterministic: the same seed always returns the same projector.
    """
    import scipy.linalg

    if not 1 <= f <= space.n * space.m:
        raise InvalidInput(f"rank f={f} outside 1..{space.n * space.m}")
    rng = random_generator(seed)
    d = space.dim
    neg = space.signs < 0
    raw = np.zeros((d, f), dtype=complex)
    raw[neg, :] = rng.normal(size=(d // 2, f)) + 1j * rng.normal(size=(d // 2, f))
    basis = indefinite_orthonormalize(space, raw)

    b = space.signs[:, None] * _gaussian_hermitian(rng, d, boost_scale)
    u = scipy.linalg.expm(1j * b)
    return FermionicProjector.from_span(space, u @ basis, tol)


def random_direction(space, seed):
    """Random self-adjoint generator B = S*H (H Gaussian Hermitian), seeded.

    exp(i eta B) is then an indefinite unitary for every real eta, so B spans
    tangent directions of the projector orbit.
    """
    h = _gaussian_hermitian(random_generator(seed), space.dim, 1.0)
    return space.signs[:, None] * h


@dataclass(frozen=True, eq=False)
class GaugeTransform:
    """Local (block-diagonal) indefinite-unitary transformation.

    ``blocks`` has shape (m, 2n, 2n); each block U_x satisfies
    U_x^dagger S0 U_x = S0 for the point signature S0 = diag((+1)^n, (-1)^n).
    Acting on a projector by P -> U P U^{-1} changes nothing observable:
    the action, the constraint, and every closed-chain spectrum are invariant.
    """

    space: DiscreteSpacetime
    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.ascontiguousarray(np.asarray(self.blocks, dtype=complex))
        d = self.space.spin_dim
        if blocks.shape != (self.space.m, d, d):
            raise ValueError(f"blocks must have shape ({self.space.m}, {d}, {d})")
        s0 = self.space.block_signs
        dev = np.max(np.abs(np.einsum("xji,j,xjk->xik", blocks.conj(), s0, blocks) - np.diag(s0)))
        if dev > 1e-8:
            raise ValueError(f"blocks are not indefinite-unitary (deviation {dev:.3e})")
        blocks.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)

    def inverse(self):
        # U^{-1} = S0 U^dagger S0 for an indefinite unitary; exact, no solve.
        return GaugeTransform(self.space, indefinite_adjoint(self.blocks, self.space.block_signs))

    def compose(self, other):
        """self after other (matrix product per block)."""
        return GaugeTransform(self.space, np.einsum("xij,xjk->xik", self.blocks, other.blocks))

    def apply(self, projector):
        """Transformed projector U P U^{-1} (basis columns mapped by U)."""
        if projector.space.n != self.space.n or projector.space.m != self.space.m:
            raise ValueError("gauge transform and projector live on different spaces")
        d = self.space.spin_dim
        b = projector.basis.reshape(self.space.m, d, projector.rank)
        new = np.einsum("xij,xjf->xif", self.blocks, b).reshape(self.space.dim, projector.rank)
        return FermionicProjector(self.space, new, projector.tol)


def random_gauge(space, seed, scale=1.0):
    """Seeded random gauge transform, one exp(i S0 H_x) block per point."""
    import scipy.linalg

    rng = random_generator(seed)
    s0 = space.block_signs[:, None]
    blocks = [
        scipy.linalg.expm(1j * (s0 * _gaussian_hermitian(rng, space.spin_dim, scale)))
        for _ in range(space.m)
    ]
    return GaugeTransform(space, np.array(blocks))

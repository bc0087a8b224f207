"""Two-particle local correlation analysis for spin dimension 2.

For a two-particle system (f = 2, n = 1) with Gram-orthonormal image basis
(u_1, u_2), each space-time point x carries the 2x2 Hermitian matrix

    (F_x)_ij = -<u_i | E_x u_j>  =  -(U_x^dag S0 U_x)_ij ,

where U_x is the x-block of the stored basis.  Decomposing against the Pauli
matrices, F_x = (rho_x Id + vec_x . sigma)/2, gives one real weight rho_x and
one real 3-vector per point.  Because the E_x sum to the identity and the
basis Gram matrix is -Id, the weights sum to 2 and the vectors sum to zero;
because F_x is minus a congruence of diag(1,-1) it has at most one positive
and one negative eigenvalue, forcing |vec_x| >= |rho_x|.

The nonzero closed-chain spectrum is visible at this level: the roots of the
chain at (x, y) equal the eigenvalues of F_x F_y, with the closed form

    lam_pm = (rho_x rho_y + vec_x.vec_y
              pm sqrt(|rho_x vec_y + rho_y vec_x|^2 - |vec_x X vec_y|^2)) / 4.

A negative discriminant yields a conjugate pair of equal modulus, i.e. a
spacelike pair; the discriminant zero locus is the causal threshold.

A lower bound for the critical action follows at delta = 0.  The chain
invariants are t_xy = tr(F_x F_y) = (rho_x rho_y + vec_x.vec_y)/2 and
delta_xy = det F_x det F_y with det F_x = (rho_x^2 - |vec_x|^2)/4, so delta
vanishes on every pair exactly when every F_x has rank one, |vec_x| =
|rho_x|.  Each chain then has the roots t_xy and 0, and at mu = 1/2 its
Lagrangian |A^2| - mu |A|^2 is t_xy^2/2.  With a_x = (rho_x, vec_x) in R^4
and the 4x4 frame G = sum_x a_x a_x^T,

    S = (1/8) sum_{x,y} (a_x . a_y)^2 = (1/8) tr G^2
      >= (1/8) [(sum rho_x^2)^2 + tr V^2]        V = sum_x vec_x vec_x^T
      >= (1/8) (4/3) (sum rho_x^2)^2             tr V^2 >= (tr V)^2/3
      >= 8/(3 m^2)                               sum rho_x^2 >= 4/m,

dropping the off-diagonal blocks 2|sum rho_x vec_x|^2 of tr G^2 and using
tr V = sum |vec_x|^2 = sum rho_x^2 and sum rho_x = 2.  Equality holds
exactly when rho_x = 2/m for every x (so |vec_x| = 2/m) and V is isotropic:
the unit vectors sum to zero and have frame (m/3) Id, a spherical 2-design
(``design_error`` of ``geometry_diagnostics`` measures the anisotropy of
V).  Such a design of m points on S^2 exists for m = 4 and every m >= 6 but
not for m = 2, 3, 5 (Delsarte, Goethals and Seidel, Geom. Dedicata 6,
1977; Mimura, Graphs Combin. 6, 1990).  That the auxiliary minima at
mu = 1/2, f = 2 lie on this stratum, reaching 8/(3 m^2) where a design
exists and staying above it where none does, is a measured observation
(the solver tests), not derived here.

The choice of orthonormal basis in the image is free up to a 2x2 unitary;
under that freedom every vec_x rotates by one common element of SO(3) while
the rho_x stay fixed.  Geometric statements therefore live on rotation
invariants (lengths, mutual angles, orientation of triples), and permutation
symmetry of a configuration is decided by a Procrustes fit restricted to
proper rotations.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import DiscreteSpacetime, FermionicProjector
from .tolerances import DEFAULT

__all__ = [
    "PAULI",
    "LocalCorrelation",
    "local_correlations",
    "correlation_chain_roots",
    "projector_from_correlations",
    "triangle_family",
    "triangle_projector",
    "TRIANGLE_CAUSAL_THRESHOLD",
    "TRIANGLE_THRESHOLD_CONSTRAINT",
    "tetrahedron_directions",
    "tetrahedron_family",
    "planar_square_family",
    "geometry_diagnostics",
    "SymmetryReport",
    "permutation_symmetry",
    "full_symmetry_check",
]

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

# Causal threshold of the symmetric three-point family: the discriminant
# (4/9) v^2 - (3/4) v^4 vanishes at v^2 = 16/27.
TRIANGLE_CAUSAL_THRESHOLD = 4.0 * math.sqrt(3.0) / 9.0
# Constraint value of the family at threshold: the diagonal chains contribute
# 3 * (14/27)^2 and the off-diagonal ones 6 * (2/27)^2, summing to 68/81.
TRIANGLE_THRESHOLD_CONSTRAINT = 68.0 / 81.0


@dataclass(frozen=True)
class LocalCorrelation:
    """Per-point weights and Pauli vectors of a two-particle system."""

    rho: np.ndarray  # (m,)
    vectors: np.ndarray  # (m, 3)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        vec = np.asarray(self.vectors, dtype=float)
        if rho.ndim != 1 or vec.shape != (rho.size, 3):
            raise ValueError("need rho of shape (m,) and vectors of shape (m, 3)")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "vectors", vec)

    @property
    def m(self):
        return self.rho.size

    def matrices(self):
        """The F_x rebuilt from the decomposition, shape (m, 2, 2)."""
        body = np.einsum("xk,kab->xab", self.vectors, PAULI)
        return 0.5 * (self.rho[:, None, None] * np.eye(2) + body)

    def lengths(self):
        return np.linalg.norm(self.vectors, axis=1)

    def check_invariants(self):
        return {
            "sum_rho": float(abs(self.rho.sum() - 2.0)),
            "sum_vectors": float(np.linalg.norm(self.vectors.sum(axis=0))),
            "signature": float(np.max(self.rho - self.lengths())),
        }


def local_correlations(projector):
    """Extract (rho_x, vec_x) from a two-particle projector.

    Requires n = 1 and rank 2; raises ValueError otherwise.  The Pauli
    decomposition is obtained by trace projection, and the summation and
    signature invariants are enforced to 1e-10 (1 + sum |rho_x| + sum |v_x|),
    a bound that grows with the weights of a diverged projector.
    """
    space = projector.space
    if space.n != 1 or projector.rank != 2:
        raise ValueError("local correlations need spin dimension 2 and two particles")
    s0 = space.block_signs
    blocks = projector.basis.reshape(space.m, 2, 2)
    f = -np.einsum("xai,a,xaj->xij", blocks.conj(), s0, blocks)
    rho = np.einsum("xaa->x", f).real
    vec = np.einsum("xab,kba->xk", f, PAULI).real
    corr = LocalCorrelation(rho, vec)
    checks = corr.check_invariants()
    bound = 1e-10 * (1.0 + np.abs(rho).sum() + corr.lengths().sum())
    if checks["sum_rho"] > bound or checks["sum_vectors"] > bound:
        raise ValueError(f"correlation sums violated: {checks}")
    if checks["signature"] > bound:
        raise ValueError(f"signature constraint violated: {checks}")
    return corr


def correlation_chain_roots(rho_x, vec_x, rho_y, vec_y):
    """Closed-form roots of the chain between two correlated points.

    Returns the pair (lam_plus, lam_minus).  A negative discriminant is taken
    as i*sqrt(-disc), producing the conjugate pair of the spacelike regime.
    """
    vec_x = np.asarray(vec_x, dtype=float)
    vec_y = np.asarray(vec_y, dtype=float)
    base = rho_x * rho_y + vec_x @ vec_y
    mixed = rho_x * vec_y + rho_y * vec_x
    cross = np.cross(vec_x, vec_y)
    disc = mixed @ mixed - cross @ cross
    root = math.sqrt(disc) if disc >= 0.0 else 1j * math.sqrt(-disc)
    return 0.25 * (base + root), 0.25 * (base - root)


def projector_from_correlations(space, corr, tol=DEFAULT):
    """Build a two-particle projector realizing the given correlation data.

    Each target F_x is factored as -W_x^dag S0 W_x through its spectral
    decomposition; stacking the W_x gives the image basis.  The data must
    satisfy the summation invariants and per-point signature condition
    (one eigenvalue of each sign), else ValueError.
    """
    if space.n != 1 or space.m != corr.m:
        raise ValueError("space must have spin dimension 2 and match the point count")
    checks = corr.check_invariants()
    if checks["sum_rho"] > tol.geometry or checks["sum_vectors"] > tol.geometry:
        raise ValueError(f"correlation sums violated: {checks}")
    basis = np.zeros((space.dim, 2), dtype=complex)
    for x, f in enumerate(corr.matrices()):
        evals, vmat = np.linalg.eigh(f)
        if evals[0] > tol.geometry or evals[1] < -tol.geometry:
            raise ValueError(
                f"point {x}: eigenvalues {evals} not of opposite sign, "
                "correlation matrix is not realizable"
            )
        neg, pos = min(evals[0], 0.0), max(evals[1], 0.0)
        w = np.diag([math.sqrt(-neg), math.sqrt(pos)]).astype(complex) @ vmat.conj().T
        basis[space.point_slice(x)] = w
    return FermionicProjector(space, basis, tol=tol)


def triangle_family(v):
    """Symmetric three-point family: equal weights 2/3, planar equilateral
    Pauli vectors of common length v >= 2/3."""
    if v < 2.0 / 3.0 - 1e-12:
        raise ValueError("family needs v >= 2/3 for realizable correlation matrices")
    angles = np.array([0.5, 0.5 + 2.0 / 3.0, 0.5 + 4.0 / 3.0]) * np.pi
    vecs = v * np.stack([np.cos(angles), np.sin(angles), np.zeros(3)], axis=1)
    return LocalCorrelation(np.full(3, 2.0 / 3.0), vecs)


def triangle_projector(v, tol=DEFAULT):
    return projector_from_correlations(DiscreteSpacetime(1, 3), triangle_family(v), tol)


def tetrahedron_directions():
    """Unit vectors to the vertices of a regular tetrahedron (dots -1/3)."""
    raw = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    return raw / math.sqrt(3.0)


def _four_point(v, directions):
    # four weights summing to 2 leave rho = 1/2, realizable for v >= rho
    if v < 0.5 - 1e-12:
        raise ValueError("family needs v >= |rho| for realizable correlation matrices")
    return LocalCorrelation(np.full(4, 0.5), v * directions)


def tetrahedron_family(v):
    """Four-point family: weights 1/2, tetrahedral Pauli vectors of length v >= 1/2."""
    return _four_point(v, tetrahedron_directions())


def planar_square_family(v):
    """Four coplanar vectors at right angles, the degenerate counterpoint to
    the tetrahedron: reflections of the plane are realizable as rotations."""
    return _four_point(
        v, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    )


def geometry_diagnostics(corr, tol=DEFAULT):
    """Shape statistics of the Pauli-vector configuration.

    Reports vector lengths against the reference value 2/m, the matrix of
    normalized pairwise dot products, the worst deviation from a regular
    simplex (pairwise dots -1/(m-1)), the minimal pairwise angle as a
    sphere-packing score, and the frame anisotropy
    ``design_error`` = ||sum_x v_x v_x^T - (tr/3) Id||_F / tr, which is 0
    exactly when equal-length vectors summing to zero form a spherical
    2-design (see the module docstring).  Points with vanishing vectors are
    flagged and excluded from the angle statistics.
    """
    m = corr.m
    lengths = corr.lengths()
    degenerate = np.flatnonzero(lengths <= tol.geometry)
    safe = np.where(lengths > tol.geometry, lengths, 1.0)
    units = corr.vectors / safe[:, None]
    dots = units @ units.T
    np.fill_diagonal(dots, 1.0)
    live = np.setdiff1d(np.arange(m), degenerate)
    pair_dots = np.array(
        [dots[i, j] for k, i in enumerate(live) for j in live[k + 1 :]]
    )
    target = 2.0 / m
    frame = corr.vectors.T @ corr.vectors
    scale = float(np.trace(frame))
    report = {
        "design_error": (float(np.linalg.norm(frame - scale / 3.0 * np.eye(3))) / scale
                         if scale > 0.0 else float("nan")),
        "rho": corr.rho.copy(),
        "lengths": lengths,
        "length_mean": float(lengths.mean()),
        "length_spread": float(lengths.max() - lengths.min()),
        "target_length": target,
        "length_rel_dev": float(np.max(np.abs(lengths - target)) / target),
        "unit_dots": dots,
        "degenerate_points": degenerate,
    }
    if pair_dots.size:
        report["simplex_error"] = float(np.max(np.abs(pair_dots + 1.0 / (m - 1))))
        report["min_angle"] = float(np.arccos(np.clip(pair_dots.max(), -1.0, 1.0)))
    else:
        report["simplex_error"] = float("nan")
        report["min_angle"] = float("nan")
    return report


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of testing one point permutation for realizability."""

    permutation: tuple
    verdict: str  # "realized" | "not_realized" | "inconclusive"
    rotation: np.ndarray | None
    evidence: dict

    @property
    def realized(self):
        return self.verdict == "realized"


def permutation_symmetry(corr, perm, tol=1e-6):
    """Decide whether a point permutation is a symmetry of the configuration.

    Realized means the weights are permutation-invariant and one proper
    rotation maps every vec_x onto vec_perm(x); the rotation is found by an
    orthogonal Procrustes fit with the determinant constrained to +1.  When
    only an improper orthogonal map fits, the orientation obstruction is
    reported; when no orthogonal map fits, the Gram mismatch is reported.
    Borderline residuals give an inconclusive verdict.
    """
    perm = tuple(perm)
    if sorted(perm) != list(range(corr.m)):
        raise ValueError(f"not a permutation of {corr.m} points: {perm}")
    scale = 1.0 + float(corr.lengths().max(initial=0.0))
    drho = float(np.max(np.abs(corr.rho[list(perm)] - corr.rho)))
    if drho > tol * scale:
        return SymmetryReport(
            perm, "not_realized", None, {"reason": "rho", "rho_mismatch": drho}
        )
    x = corr.vectors
    y = corr.vectors[list(perm)]
    u, sig, vt = np.linalg.svd(y.T @ x)
    det_free = float(np.linalg.det(u @ vt))
    rot_free = u @ vt
    rot_proper = u @ np.diag([1.0, 1.0, round(det_free)]) @ vt
    res_proper = float(np.max(np.linalg.norm(x @ rot_proper.T - y, axis=1)))
    res_free = float(np.max(np.linalg.norm(x @ rot_free.T - y, axis=1)))
    evidence = {
        "rho_mismatch": drho,
        "proper_residual": res_proper,
        "orthogonal_residual": res_free,
        "orientation_sign": round(det_free),
        "rank_gap": float(sig[-1]),
    }
    if res_proper <= tol * scale:
        return SymmetryReport(perm, "realized", rot_proper, evidence)
    if res_free <= tol * scale:
        # an orthogonal map exists but needs a reflection of a full-rank
        # configuration: the orientation of vector triples obstructs
        evidence["reason"] = "orientation"
        return SymmetryReport(perm, "not_realized", None, evidence)
    gram = x @ x.T
    dgram = float(np.max(np.abs(y @ y.T - gram)))
    evidence["gram_mismatch"] = dgram
    if dgram > 10.0 * tol * scale**2:
        evidence["reason"] = "gram"
        return SymmetryReport(perm, "not_realized", None, evidence)
    return SymmetryReport(perm, "inconclusive", None, evidence)


def _parity(perm):
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def full_symmetry_check(corr, tol=1e-6):
    """Certify that the full permutation group of ``corr`` is not realizable.

    For a regular tetrahedron configuration (the symmetric four-point
    minimizer) every even permutation is realized by a rotation
    while all 12 odd ones hit the orientation obstruction, so no gauge
    transformation can implement the full permutation group.  The returned
    certificate is True exactly when every odd permutation fails.  Degenerate
    configurations can defeat the obstruction: for coplanar vectors a
    reflection is realizable as a rotation and the certificate is False.
    """
    reports = [
        permutation_symmetry(corr, perm, tol)
        for perm in itertools.permutations(range(corr.m))
    ]
    odd = [r for r in reports if _parity(r.permutation) < 0]
    even = [r for r in reports if _parity(r.permutation) > 0]
    return {
        "certificate": all(r.verdict == "not_realized" for r in odd),
        "odd_total": len(odd),
        "odd_obstructed": sum(r.verdict == "not_realized" for r in odd),
        "odd_realized": sum(r.realized for r in odd),
        "even_realized": sum(r.realized for r in even),
        "reports": reports,
    }

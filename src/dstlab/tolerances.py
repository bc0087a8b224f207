"""Centralized numerical tolerances.

Every tolerance used by the library lives in one record so experiments can
tighten or loosen them coherently.  Two rules say where a bundle is given:

1. A projector carries its bundle (``FermionicProjector.tol``), and the
   functions of a projector or its chain pass read it there; only projector
   constructors take ``tol``, which defaults to :data:`DEFAULT`.
2. A function of raw data (roots, chains, local correlations) takes ``tol``
   only where a caller sets it; a tolerance no caller sets is a module
   constant, or a literal at its one use.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle shared across the library.

    Attributes
    ----------
    gram : float
        Allowed deviation of the image-basis Gram matrix from -Id before a
        projector is rejected (and the drift level at which the solver
        re-orthonormalizes its iterate).
    eig_zero : float
        A chain root with ``|lam| < eig_zero * (1 + ||A||_F)`` counts as zero;
        |lam| has a kink there, and a zero root gets the zero subgradient in
        closed form (its factor conj(lam)/|lam| is set to 0).  The same
        scale counts the zero singular values that tell a semisimple zero
        eigenspace from a defective one.  It serves the ``eig`` route
        (``gradient_blocks`` on any chain matrix, and the 2n >= 4 chain
        pass) and has no role in the n = 1 chain pass: for a projector
        delta = |det K_xy|^2 >= 0, so |A|^2 is smooth across delta = 0.
    eig_collision : float
        Relative eigenvalue-collision threshold; a near-defective chain
        (two roots closer than ``eig_collision * (1 + max|lam|)``, a zero
        block with a nilpotent part included) is the only case that falls
        back to the finite-difference gradient on the ``eig`` route; two
        zero roots of a semisimple zero eigenspace do not count.  In the
        n = 1 chain pass it is the width of the causal-threshold band: where
        2 sqrt|t^2/4 - delta| < ``eig_collision * (1 + |lam_+|)``, with
        |lam_+| = sqrt(delta) on a conjugate pair, the kernel takes the mean
        of the two branches' slopes; no pair goes to finite differences.
        Open limit at n = 2: a band far above the default sends pairs near
        a collision but not defective to finite differences, too coarse at
        ``fd_step`` for their root gap; at (n, m, f) = (2, 3, 3), mu = 0.25,
        1e-4 fails the first-iterate derivative check (exit 3).
    fd_step : float
        Base step for central finite differences.
    causal : float
        Scale factor for causal classification: imaginary parts and modulus
        spreads are compared against ``causal * (1 + max|lam|)``.
    grad_check : float
        Relative tolerance for the first-iterate directional-derivative
        consistency assertion inside the solver.
    geometry : float
        Tolerance of the local-correlation geometry: the weight-sum,
        vector-sum and eigenvalue-sign checks of
        ``projector_from_correlations``, and the length at or below which
        ``geometry_diagnostics`` calls a Pauli vector degenerate.  The
        rotation-realizability tests (``permutation_symmetry``,
        ``full_symmetry_check``) take their own ``tol``.
    """

    gram: float = 1e-10
    eig_zero: float = 1e-10
    eig_collision: float = 1e-8
    fd_step: float = 1e-6
    causal: float = 1e-9
    grad_check: float = 1e-4
    geometry: float = 1e-6

    def with_(self, **kwargs):
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)


DEFAULT = Tolerances()

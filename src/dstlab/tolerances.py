"""Centralized numerical tolerances.

Every tolerance used by the library lives in one record so experiments can
tighten or loosen them coherently.  Functions accept an optional ``tol``
argument and fall back to :data:`DEFAULT`.
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
        |lam| has a kink there, and a simple zero root gets the zero
        subgradient in closed form (its factor conj(lam)/|lam| is set to 0).
        On a 2 x 2 chain (n = 1) with real trace t and determinant delta the
        test reads, on the real branch t^2 >= 4 delta, |delta|/|lam_+| <
        eig_zero * (1 + ||A||_F) with |lam_+| = |t|/2 + sqrt(t^2/4 - delta);
        there |A|^2 (t^2 for delta >= 0, t^2 - 4 delta below) takes the mean
        delta-slope -2, so M_abs = 2A.  A conjugate pair has no such kink.
        The ``eig`` route (2n >= 4) applies the rule to each root.
    eig_collision : float
        Relative eigenvalue-collision threshold; a near-defective chain
        (two roots closer than ``eig_collision * (1 + max|lam|)``, a double
        zero root included) is the only case that falls back to the
        finite-difference gradient.  For a 2 x 2 chain the gap is
        |lam_+ - lam_-| = 2 sqrt|t^2/4 - delta|, compared against
        ``eig_collision * (1 + |lam_+|)`` with |lam_+| = sqrt(delta) on a
        conjugate pair; it vanishes with the discriminant at the causal
        threshold.  For 2n >= 4 it is the smallest pairwise root distance.
    fd_step : float
        Base step for central finite differences.
    causal : float
        Scale factor for causal classification: imaginary parts and modulus
        spreads are compared against ``causal * (1 + max|lam|)``.
    grad_check : float
        Relative tolerance for the first-iterate directional-derivative
        consistency assertion inside the solver.
    geometry : float
        Tolerance for rotation-realizability (Procrustes residual) tests on
        momentum-space vector configurations.
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

"""Closed chains of vector-scalar kernels between Minkowski points.

A translation-invariant kernel of the form

    P(x, y) = alpha * slash(xi) + beta * Id,      xi = y - x,

with complex scalars alpha, beta and real four-vector xi covers every term
of the light-cone expansion away from the cone.  Its reverse kernel is the
spin adjoint, P(y, x) = conj(alpha) slash(xi) + conj(beta), so the closed
chain is

    A = P(x,y) P(y,x) = a * slash(xi) + b * Id,
    a = 2 Re(alpha conj(beta)),    b = |alpha|^2 xi.xi + |beta|^2.

Since slash(xi)^2 = (xi.xi) Id, the four eigenvalues are b +/- a sqrt(xi.xi),
each twice: all real for timelike xi (and of one sign, since
b^2 - a^2 xi.xi >= (|alpha|^2 xi.xi - |beta|^2)^2 >= 0), complex-conjugate
pairs of equal modulus for spacelike xi.  The causal classifier therefore
reproduces the sign of xi.xi, and the action gradient is

    timelike:   2 a slash(xi)        (= 2A - Tr(A)/2, all |lambda| aligned)
    spacelike:  0                    (the critical Lagrangian vanishes)
    on cone:    undefined            (raises LightConeUndefined).
"""

from dataclasses import dataclass

import numpy as np

from ..causal import CausalClass, classify
from ..tolerances import DEFAULT
from .dirac import minkowski_square, slash4, spin_adjoint
from .momentum import MassCone, mass_cone_classify

_ID4 = np.eye(4, dtype=complex)


class LightConeUndefined(ValueError):
    """The separation vector lies on the light cone; the gradient has no limit."""


@dataclass(frozen=True)
class VectorScalarKernel:
    """P(x, y) = alpha * slash(xi) + beta * Id with xi = y - x (real)."""

    alpha: complex
    beta: complex
    xi: tuple

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.shape != (4,):
            raise ValueError(f"xi must be a real 4-vector, got shape {xi.shape}")
        object.__setattr__(self, "xi", tuple(xi))

    @property
    def xi_vec(self):
        return np.asarray(self.xi, dtype=float)

    def xi_square(self):
        return float(minkowski_square(self.xi_vec))

    def matrix(self):
        return complex(self.alpha) * slash4(self.xi_vec) + complex(self.beta) * _ID4

    def swapped(self):
        """The reverse kernel P(y, x), expressed in the same xi = y - x."""
        return VectorScalarKernel(
            np.conjugate(self.alpha), np.conjugate(self.beta), self.xi
        )


@dataclass(frozen=True)
class ChainCoefficients:
    """Closed chain A = a * slash(xi) + b * Id."""

    a: float
    b: float
    xi_sq: float

    def roots(self):
        """All four eigenvalues, with multiplicity."""
        root = np.sqrt(complex(self.xi_sq))
        lam_plus = self.b + self.a * root
        lam_minus = self.b - self.a * root
        return np.array([lam_plus, lam_plus, lam_minus, lam_minus])


def chain_coefficients(kernel):
    a = 2.0 * float(np.real(kernel.alpha * np.conjugate(kernel.beta)))
    xi_sq = kernel.xi_square()
    b = float(abs(kernel.alpha) ** 2 * xi_sq + abs(kernel.beta) ** 2)
    return ChainCoefficients(a=a, b=b, xi_sq=xi_sq)


def chain_matrix(kernel):
    return kernel.matrix() @ kernel.swapped().matrix()


def chain_root_values(kernel):
    return chain_coefficients(kernel).roots()


def causal_class_of_kernel(kernel):
    """Classify the closed chain of the kernel (timelike/spacelike/undetermined)."""
    return classify(chain_root_values(kernel))


def kernel_gradient(kernel):
    """Action gradient of the closed chain, as a 4x4 spin matrix.

    Timelike separation gives 2 a slash(xi); spacelike gives zero (the
    Lagrangian vanishes identically on complex-conjugate root pairs); a
    separation on the cone raises LightConeUndefined since the two limits
    disagree.  On the timelike branch the closed form is cross-checked
    against the matrix route 2A - Tr(A)/2 before returning.
    """
    coeff = chain_coefficients(kernel)
    if mass_cone_classify(kernel.xi_vec) is MassCone.BOUNDARY:
        raise LightConeUndefined(
            f"xi.xi = {coeff.xi_sq:.3e} is on the light cone at this tolerance"
        )
    if coeff.xi_sq <= 0.0:
        return np.zeros((4, 4), dtype=complex)
    grad = 2.0 * coeff.a * slash4(kernel.xi_vec)
    chain = chain_matrix(kernel)
    traceless = 2.0 * chain - 0.5 * np.trace(chain) * _ID4
    scale = 1.0 + float(np.max(np.abs(chain)))
    if np.max(np.abs(traceless - grad)) > DEFAULT.grad_check * scale:
        raise RuntimeError("closed-form gradient disagrees with 2A - Tr(A)/2")
    return grad


def kernel_q(kernel):
    """Q(x, y) = gradient(A) P(x, y) / 2; its swap is the spin adjoint."""
    return 0.5 * kernel_gradient(kernel) @ kernel.matrix()


def q_swap_check(kernel):
    """Max deviation between Q(y, x) and the spin adjoint of Q(x, y)."""
    q_xy = kernel_q(kernel)
    q_yx = kernel_q(kernel.swapped())
    return float(np.max(np.abs(q_yx - spin_adjoint(q_xy))))


def classify_separation(xi):
    """Sign-of-xi.xi reference classification for a bare separation vector."""
    cone = mass_cone_classify(xi)
    if cone is MassCone.BOUNDARY:
        return CausalClass.UNDETERMINED
    return CausalClass.SPACELIKE if cone is MassCone.OUTSIDE else CausalClass.TIMELIKE

"""Minkowski-space correspondence tools.

Submodules: exact gamma-matrix conventions (``dirac``), closed chains of
vector-scalar kernels and their causal gradient (``minkowski``), the exact
symbolic light-cone coefficient algebra (``lightcone``), mass-cone and
convolution-support geometry plus grid Fourier checks (``momentum``), and
Dirac-sea configurations: regularized action, extensions, state stability
(``seas``).

``lightcone`` needs sympy and is not re-exported here, so importing the
package does not load sympy; import ``dstlab.continuum.lightcone`` itself.
"""

from .dirac import GAMMA2, GAMMA4, METRIC4, slash2, slash4, minkowski_square
from .minkowski import (
    ChainCoefficients,
    LightConeUndefined,
    VectorScalarKernel,
    chain_coefficients,
    chain_root_values,
    causal_class_of_kernel,
    kernel_gradient,
    kernel_q,
)
from .momentum import (
    MassCone,
    Unbounded,
    convolution_support,
    fourier_support_check,
    mass_cone_classify,
)
from .seas import (
    GridCoverage,
    NotRegularizable,
    SeaConfig,
    extended_action,
    mass_constraint,
    pure_counterterm_profile,
    regularized_action,
    state_stability_check,
)

__all__ = [
    "GAMMA2",
    "GAMMA4",
    "METRIC4",
    "slash2",
    "slash4",
    "minkowski_square",
    "ChainCoefficients",
    "LightConeUndefined",
    "VectorScalarKernel",
    "chain_coefficients",
    "chain_root_values",
    "causal_class_of_kernel",
    "kernel_gradient",
    "kernel_q",
    "MassCone",
    "Unbounded",
    "convolution_support",
    "fourier_support_check",
    "mass_cone_classify",
    "SeaConfig",
    "GridCoverage",
    "NotRegularizable",
    "extended_action",
    "mass_constraint",
    "pure_counterterm_profile",
    "regularized_action",
    "state_stability_check",
]

"""dstlab: a numerical laboratory for fermion systems in discrete space-time.

The package models finite "space-times" as indefinite inner-product spaces,
represents ensembles of occupied fermionic states as projectors with
negative-definite image, and studies the variational principle built from
spectral weights of closed chains: its Lagrangian and gradient, the emergent
causal structure of minimizers, momentum-space correlation geometry, and the
correspondence with vector-scalar kernels on Minkowski space, light-cone
expansions, Dirac-sea mass parameters, and a boost-parameter lattice model.
"""

from .core import (
    DiscreteSpacetime,
    FermionicProjector,
    GaugeTransform,
    InvalidInput,
    indefinite_orthonormalize,
    random_direction,
    random_gauge,
    random_generator,
    random_projector,
)
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"

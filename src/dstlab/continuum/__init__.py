"""Minkowski-space correspondence tools.

Submodules: exact gamma-matrix conventions (``dirac``), closed chains of
vector-scalar kernels and their causal gradient (``minkowski``), the exact
symbolic light-cone coefficient algebra (``lightcone``), mass-cone and
convolution-support geometry plus grid Fourier checks (``momentum``), and
Dirac-sea configurations: regularized action, extensions, state stability
(``seas``).

The package re-exports nothing: import the submodule that holds a name, as
in ``from dstlab.continuum.seas import SeaConfig``.  Importing one submodule
then loads only what it uses; ``lightcone`` alone needs sympy.
"""

"""Momentum-space geometry: mass cone, convolution support, Fourier checks.

The mass cone is the set k.k > 0, split into upper (k0 > 0) and lower
(k0 < 0) halves.  Physical one-particle content lives on hyperbola shells
p.p = m^2 inside the lower half; the convolution of a cone-supported
multiplier with a shell measure has compact support exactly when the total
momentum lies strictly inside the lower cone.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .dirac import minkowski_square

# fourier_support_check: half-width of the xi grid, cone-surface band in cells
EXTENT = 8.0
BOUNDARY_BAND = 2.0


class MassCone(enum.Enum):
    UPPER = "upper"
    LOWER = "lower"
    OUTSIDE = "outside"
    BOUNDARY = "boundary"


class Unbounded(ValueError):
    """The convolution support is not compact for this momentum."""


def mass_cone_classify(k):
    """Classify a momentum vector (time component first, any spatial dim)."""
    k = np.asarray(k, dtype=float)
    if k.ndim != 1 or k.size < 2:
        raise ValueError("expected a vector with a time and >=1 spatial component")
    ksq = float(minkowski_square(k))
    scale = 1.0 + float(k @ k)
    # the light-cone band of classify_separation and kernel_gradient too
    if abs(ksq) <= 1e-9 * scale:
        return MassCone.BOUNDARY
    if ksq < 0.0:
        return MassCone.OUTSIDE
    return MassCone.UPPER if k[0] > 0.0 else MassCone.LOWER


@dataclass(frozen=True)
class ShellSupport:
    """Compact rapidity window on one lower mass shell p = m(-cosh s, sinh s)."""

    mass: float
    rapidity_min: float
    rapidity_max: float

    @property
    def width(self):
        return self.rapidity_max - self.rapidity_min

    def momentum_bounds(self):
        """Spatial-momentum interval covered by the window."""
        m = self.mass
        return (m * np.sinh(self.rapidity_min), m * np.sinh(self.rapidity_max))

    def endpoint_vectors(self):
        """Shell points at the two window edges (null separation from q there)."""
        m = self.mass
        return tuple(
            np.array([-m * np.cosh(s), m * np.sinh(s)])
            for s in (self.rapidity_min, self.rapidity_max)
        )


def convolution_support(q, masses):
    """Support windows of a closed-mass-cone multiplier against lower shells.

    Works in 1+1 dimensions: q = (q0, q1) must lie strictly inside the lower
    cone, and for each mass m the set {p = m(-cosh s, sinh s) : (q-p).(q-p)
    >= 0} is the rapidity interval |s - u| <= arccosh((Q^2+m^2)/(2mQ)) with
    Q = sqrt(q.q) and u the rapidity of q.  Outside the open lower cone the
    set is unbounded and Unbounded is raised.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (2,):
        raise ValueError("convolution support is computed in 1+1 dimensions")
    if mass_cone_classify(q) is not MassCone.LOWER:
        raise Unbounded(
            f"q = {tuple(q)} is not strictly inside the lower mass cone; "
            "the convolution region is unbounded"
        )
    big_q = float(np.sqrt(minkowski_square(q)))
    u = float(np.arcsinh(q[1] / big_q))
    supports = []
    for m in masses:
        m = float(m)
        if m <= 0.0:
            raise ValueError("shell masses must be positive")
        half_width = float(np.arccosh(max(1.0, (big_q**2 + m**2) / (2.0 * m * big_q))))
        supports.append(
            ShellSupport(mass=m, rapidity_min=u - half_width, rapidity_max=u + half_width)
        )
    return supports


def _default_profile(z):
    return np.exp(-z)


def fourier_support_check(a_profile=None, grid_n=256):
    """Measure how much spectral energy escapes the closed mass cone.

    Builds the odd vector field with components 2 xi_mu a(xi.xi) Theta(xi.xi)
    eps(xi0) on a centered 1+1D grid over [-EXTENT, EXTENT), applies a Hann
    window (the field never decays along the cone wings, so plain
    periodization would inject wrap-around jumps), and transforms.  Cells
    within ``BOUNDARY_BAND`` cells of the cone surface count as boundary --
    the continuum transform carries distributional sheets exactly there, so
    they belong to the closure.  The returned leakage is the energy fraction
    strictly outside that closure; it vanishes as the grid refines.
    """
    if a_profile is None:
        a_profile = _default_profile
    n = int(grid_n)
    dx = 2.0 * EXTENT / n
    x = (np.arange(n) - n // 2) * dx
    xi0, xi1 = np.meshgrid(x, x, indexing="ij")
    xisq = xi0**2 - xi1**2
    inside = xisq > 0.0
    fac = np.zeros_like(xisq)
    fac[inside] = 2.0 * np.asarray(a_profile(xisq[inside]), dtype=float) * np.sign(
        xi0[inside]
    )
    g0 = xi0 * fac
    g1 = xi1 * fac

    z_samples = np.linspace(0.0, EXTENT**2, 512)
    a_samples = np.abs(np.asarray(a_profile(z_samples), dtype=float))
    a_peak = float(a_samples.max())
    edge_warning = bool(a_peak > 0.0 and a_samples[-1] > 1e-6 * a_peak)

    w = np.hanning(n)
    taper = np.outer(w, w)
    g0 = g0 * taper
    g1 = g1 * taper
    f0 = np.fft.fft2(g0)
    f1 = np.fft.fft2(g1)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    k0, k1 = np.meshgrid(k, k, indexing="ij")
    ksq = k0**2 - k1**2
    dk = float(abs(k[1] - k[0]))
    energy = np.abs(f0) ** 2 + np.abs(f1) ** 2
    total = float(energy.sum())
    if total == 0.0:
        leakage = raw = 0.0
    else:
        outside_raw = ksq < 0.0
        margin = BOUNDARY_BAND * (2.0 * (np.abs(k0) + np.abs(k1)) * dk + dk**2)
        outside = outside_raw & (np.abs(ksq) > margin)
        leakage = float(energy[outside].sum() / total)
        raw = float(energy[outside_raw].sum() / total)
    return {
        "leakage": leakage,
        "raw_outside_fraction": raw,
        "grid_n": n,
        "extent": EXTENT,
        "boundary_band_cells": BOUNDARY_BAND,
        "edge_warning": edge_warning,
        "total_energy": total,
    }

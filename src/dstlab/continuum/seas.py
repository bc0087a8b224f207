"""Dirac-sea configurations: regularized action and state stability.

The radial action density L(z) on z = xi.xi > 0 diverges at small z like
m3^2/z^3 + 2 m3 m5 / z^2 (m3 and m5 are caller-supplied functions of the
sea parameters).  The regularized action is the limit

    S = lim_{eps -> 0}  integral_eps^Z L(z) z dz - m3^2/eps + 2 m3 m5 log(eps),

computed here by analytic subtraction: the counter terms' antiderivatives
are exact, so only the remainder L(z) z - m3^2/z^2 - 2 m3 m5/z is integrated
numerically near zero.  A remainder that fails to be integrable there makes
the limit meaningless and raises NotRegularizable.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ..core import InvalidInput

REL_TOL = 1e-6  # regularized_action's cross-checks, relative to the value


class NotRegularizable(ValueError):
    """The counter terms do not render the action finite."""


class GridCoverage(InvalidInput):
    """A mass shell falls outside the sampled q^2 grid."""


@dataclass(frozen=True)
class SeaConfig:
    """Masses (ascending, distinct, positive) with positive weights."""

    masses: tuple
    weights: tuple

    def __post_init__(self):
        masses = tuple(float(m) for m in self.masses)
        weights = tuple(float(r) for r in self.weights)
        if len(masses) != len(weights):
            raise ValueError("masses and weights must have equal length")
        if not masses:
            raise ValueError("at least one sea is required")
        if any(m <= 0 for m in masses):
            raise ValueError("masses must be positive")
        if any(r <= 0 for r in weights):
            raise ValueError("weights must be positive")
        if any(b <= a for a, b in zip(masses, masses[1:])):
            raise ValueError("masses must be strictly ascending")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "weights", weights)


def mass_constraint(seas):
    """The scalar sum(m * rho^3) held fixed to rule out trivial minimizers."""
    return float(
        sum(m * r**3 for m, r in zip(seas.masses, seas.weights))
    )


def pure_counterterm_profile(m3, m5, z_cut):
    """Density m3^2/z^3 + 2 m3 m5/z^2 truncated at z_cut.

    Its regularized action has the closed form 2 m3 m5 log(z_cut) -
    m3^2/z_cut: the counter terms cancel every power of eps exactly.
    """

    def profile(z):
        z = np.asarray(z, dtype=float)
        return np.where(z <= z_cut, m3**2 / z**3 + 2.0 * m3 * m5 / z**2, 0.0)

    return profile


def _remainder(lagrangian, m3, m5):
    def rem(z):
        return lagrangian(z) * z - m3**2 / z**2 - 2.0 * m3 * m5 / z

    return rem


def regularized_action(
    lagrangian,
    m3,
    m5,
    z_max=np.inf,
    eps_sequence=(1e-2, 1e-3, 1e-4),
):
    """Counter-term-subtracted action of a radial density L(z).

    The value is assembled as integral_0^1 of the remainder plus the plain
    integral on [1, z_max) minus m3^2 (the counter terms' exact boundary
    contribution at z = 1).  Two guards run before returning: shrinking
    sub-decade integrals of the remainder must vanish (otherwise
    NotRegularizable), and the direct eps-regularized values across
    eps_sequence, Richardson-extrapolated, must agree with the subtracted
    value to REL_TOL.
    """
    # scipy.integrate loads only here, so importing dstlab.cli does not pay for it
    from scipy import integrate

    m3 = float(m3)
    m5 = float(m5)
    if z_max < 1.0:
        raise ValueError("z_max must be >= 1 (the subtraction switches at z = 1)")
    if len(eps_sequence) < 3:
        raise ValueError("need at least three eps values to cross-check the limit")
    rem = _remainder(lagrangian, m3, m5)

    def _quad(f, lo, hi):
        piece, _ = integrate.quad(f, lo, hi, limit=300, epsabs=1e-12, epsrel=1e-11)
        return piece

    def _quad_probe(f, lo, hi):
        # Loose tolerances: these feed a 1e-9-threshold convergence check.
        # In the deepest decades the remainder is dominated by cancellation
        # noise of the counter-term subtraction, which trips the divergence
        # heuristic even though the integral itself is tiny; the explicit
        # threshold below is the real detector, so the heuristic is muted.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            piece, _ = integrate.quad(f, lo, hi, limit=100, epsabs=1e-10, epsrel=1e-8)
        return piece

    # Integrability near zero: the integral over (delta/10, delta) must die out
    # before we trust a quadrature down to z = 0.
    deltas = np.logspace(-2, -8, 7)
    tails = [_quad_probe(rem, lo, hi) for hi, lo in zip(deltas[:-1], deltas[1:])]
    if abs(tails[-1]) > max(1e-9, REL_TOL * (1.0 + abs(sum(tails)))):
        raise NotRegularizable(
            "remainder integral does not converge near z = 0 "
            f"(last sub-decade contributes {tails[-1]:.3e})"
        )
    near_zero = _quad(rem, 0.0, 1.0)

    def tail_integrand(z):
        return lagrangian(z) * z

    outer = _quad(tail_integrand, 1.0, z_max)
    value = near_zero + outer - m3**2
    scale = 1.0 + abs(value)

    # Direct eps-regularized values must approach the same limit.  Aitken
    # acceleration on the last three values handles whatever power of eps
    # dominates the truncation error without assuming it.
    direct = []
    for eps in (float(e) for e in eps_sequence):
        inner = _quad(tail_integrand, eps, 1.0)
        direct.append(inner + outer - m3**2 / eps + 2.0 * m3 * m5 * np.log(eps))
    s1, s2, s3 = direct[-3:]
    denom = (s3 - s2) - (s2 - s1)
    limit_est = s3 if denom == 0.0 else s3 - (s3 - s2) ** 2 / denom
    if abs(limit_est - value) > REL_TOL * scale:
        raise RuntimeError(
            "eps-sequence extrapolation disagrees with the subtracted value: "
            f"{limit_est:.12e} vs {value:.12e}"
        )
    return float(value)


def extended_action(action, m3, m5, free_energy, c3, c4, seas):
    """Action plus the allowed extra terms F(m3, m5) + c3 sum(rho m^4) + c4 sum(rho m^5)."""
    total = float(action)
    if free_energy is not None:
        total += float(free_energy(m3, m5))
    masses = np.asarray(seas.masses)
    weights = np.asarray(seas.weights)
    total += float(c3) * float(np.sum(weights * masses**4))
    total += float(c4) * float(np.sum(weights * masses**5))
    return total


def state_stability_check(qsq, a, b, masses, tol=1e-9):
    """Check the two stability conditions on sampled Lorentz-invariant data.

    ``a`` must be nonnegative on the grid, and a + b must attain its
    infimum on every mass shell q^2 = m^2 (linear interpolation within one
    grid cell).  Returns a verdict dict with the violating cells; masses
    not covered by the grid raise GridCoverage, and an empty, unordered or
    nonpositive grid or a non-finite sample, mass or ``tol`` raises
    InvalidInput (GridCoverage is one).
    """
    qsq = np.asarray(qsq, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if qsq.ndim != 1 or qsq.shape != a.shape or qsq.shape != b.shape:
        raise InvalidInput("qsq, a, b must be equal-length 1D arrays")
    if qsq.size == 0:
        raise InvalidInput("qsq, a, b are empty: the grid needs at least one sample")
    if not all(np.isfinite(x).all() for x in (qsq, a, b, np.asarray(masses, dtype=float), tol)):
        raise InvalidInput("qsq, a, b, masses and tol must be finite")
    if np.any(qsq <= 0.0):
        raise InvalidInput("the grid parametrizes q^2 > 0")
    if np.any(np.diff(qsq) <= 0.0):
        raise InvalidInput("q^2 grid must be strictly increasing")

    violations = []
    for i in np.nonzero(a < -tol)[0]:
        violations.append(
            {"kind": "negative_a", "qsq": float(qsq[i]), "value": float(a[i])}
        )

    total = a + b
    infimum = float(total.min())
    shell_values = {}
    for m in masses:
        m = float(m)
        msq = m * m
        if msq < qsq[0] or msq > qsq[-1]:
            raise GridCoverage(
                f"shell q^2 = {msq:g} lies outside the sampled grid "
                f"[{qsq[0]:g}, {qsq[-1]:g}]"
            )
        val = float(np.interp(msq, qsq, total))
        shell_values[m] = val
        if val > infimum + tol:
            violations.append(
                {"kind": "not_minimal", "mass": m, "value": val, "infimum": infimum}
            )

    return {
        "stable": not violations,
        "violations": violations,
        "infimum": infimum,
        "shell_values": shell_values,
    }

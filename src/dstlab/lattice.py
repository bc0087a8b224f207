"""Static, isotropic lattice systems with a vector-scalar sea ansatz.

Position points (t, r) live on a rectangular lattice with spacing 2*pi in
both the time and radial directions; momentum states (omega, k) live on the
dual lattice with nonpositive integer frequencies (sea states) and positive
integer radial momenta:

    t in 2*pi*{0..N_t-1},  r in 2*pi*{0..N_r-1},
    omega in {-(N_t-1)..0},  k in {1..N_r}.

Each occupied state carries an amplitude phi > 0 and a boost parameter tau;
its momentum-space value is the vector-scalar pair v = phi(cosh tau,
sinh tau), phi, which satisfies the normalization v.v = phi^2 identically.
The position kernel sums, per state,

    [v0 gamma^t K0(x) + vr gamma^r K1(x) + phi K0(x)] * exp(-i omega t / N_t)

with the angular-average kernels K0(x) = sin(x)/x and K1(x) = i(sin(x)/x^2
- cos(x)/x) at x = k r / N_r.  The 1/N scalings make the pairing a genuine
discrete Fourier transform; the literal products omega*t and k*r would be
integer multiples of 2*pi and every phase and kernel would collapse to its
value at zero.

Every kernel value lies in the Clifford algebra spanned by 1, gamma^t and
gamma^r, so three complex coefficient fields describe it completely:

    P = c + a gamma^t + b gamma^r,   Pbar = gamma^0 P^dagger gamma^0
                                          = conj(c) + conj(a) gamma^t + conj(b) gamma^r,

with c = sum phi K0 e, a = sum cosh(tau) phi K0 e and b = sum sinh(tau)
phi K1 e (e the time phase).  The closed chain A = P Pbar is

    A = alpha + beta gamma^t + delta gamma^r + eps gamma^t gamma^r,
    alpha = |c|^2 + |a|^2 - |b|^2,  beta = 2 Re(c conj(a)),
    delta = 2 Re(c conj(b)),        eps = 2i Im(a conj(b)).

The three generators anticommute and square to +1, -1 and +1, so
(A - alpha)^2 = D := beta^2 - delta^2 + eps^2 is real and the chain has the
double roots alpha +- sqrt(D).  As ||alpha + s| - |alpha - s|| =
2 min(|alpha|, s) for s >= 0, and a pair with D < 0 has equal moduli, the
critical Lagrangian (|lam_+| - |lam_-|)^2 at mu = 1/4 (four spin dimensions)
is L = 4 min(alpha^2, max(D, 0)), a polynomial in the real and imaginary
parts of (c, a, b).  Points where alpha or D is not finite (a boost too large
for floating point), which are the points where alpha +- sqrt(D) is not
finite, are refused with a RuntimeError.  The action weights each point by
configurable time/radius measures; a sum that overflows is refused too.

``lattice_action`` uses only this closed form, ``critical_lagrangian``.
``landscape_scan_2d`` evaluates the same invariants in their separable form
in the two boosts; both share one evaluation of L and its finite check.  The
general 4x4 route (``lattice_kernel``, ``closed_chain_field``,
``chain_root_field``, ``critical_lagrangian_field``) builds the matrices and
calls an eigenvalue solver; it is kept as the reference the tests compare
the closed form against.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .action import critical_mu, pairwise_critical_lagrangian
from .continuum.dirac import GAMMA4, spin_adjoint
from .core import InvalidInput

_ID4 = np.eye(4, dtype=complex)
_GAMMA_T = GAMMA4[0]
_GAMMA_R = GAMMA4[3]

CRITICAL_MU = critical_mu(2)


def scalar_kernel(x):
    """Angular average of a plane wave over the sphere: sin(x)/x, 1 at 0."""
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


def radial_kernel(x):
    """Radial-vector angular kernel i(sin(x)/x^2 - cos(x)/x), 0 at 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    exact = (np.sin(safe) - safe * np.cos(safe)) / safe**2
    series = x / 3.0 - x**3 / 30.0
    return 1j * np.where(small, series, exact)


@dataclass(frozen=True)
class LatticeGeometry:
    n_t: int
    n_r: int

    def __post_init__(self):
        if self.n_t < 1 or self.n_r < 1:
            raise InvalidInput("lattice sizes must be positive")

    def time_values(self):
        return 2.0 * np.pi * np.arange(self.n_t)

    def radial_values(self):
        return 2.0 * np.pi * np.arange(self.n_r)

    def contains_dual(self, omega, k):
        return -(self.n_t - 1) <= omega <= 0 and 1 <= k <= self.n_r

    def dual_points(self):
        return [
            (omega, k)
            for omega in range(-(self.n_t - 1), 1)
            for k in range(1, self.n_r + 1)
        ]


@dataclass(frozen=True)
class OccupiedState:
    omega: int
    k: int
    phi: float = 1.0
    tau: float = 0.0

    def __post_init__(self):
        if self.omega != int(self.omega) or self.k != int(self.k):
            raise InvalidInput("dual-lattice coordinates are integers")
        if self.phi <= 0:
            raise InvalidInput("amplitude phi must be positive")

    def velocity(self):
        """Momentum-space vector (v_time, v_radial); v.v = phi^2 identically."""
        return (self.phi * math.cosh(self.tau), self.phi * math.sinh(self.tau))


def _validate_occupation(geom, states):
    bad = [(s.omega, s.k) for s in states if not geom.contains_dual(s.omega, s.k)]
    if bad:
        raise InvalidInput(f"occupied points outside the dual lattice: {bad}")


def _state_fields(geom, state):
    """Scalar-channel and radial-channel coefficient fields of one state."""
    j = np.arange(geom.n_t)
    l = np.arange(geom.n_r)
    phase = np.exp(-2j * np.pi * state.omega * j / geom.n_t)
    x = 2.0 * np.pi * state.k * l / geom.n_r
    scalar = state.phi * np.outer(phase, scalar_kernel(x))
    radial = state.phi * np.outer(phase, radial_kernel(x))
    return scalar, radial


def kernel_coefficients(geom, states):
    """Coefficient fields (c, a, b) of P = c + a gamma^t + b gamma^r.

    Each is an (n_t, n_r) complex field.
    """
    _validate_occupation(geom, states)
    c, a, b = (np.zeros((geom.n_t, geom.n_r), dtype=complex) for _ in range(3))
    for state in states:
        scalar, radial = _state_fields(geom, state)
        c += scalar
        a += np.cosh(state.tau) * scalar
        b += np.sinh(state.tau) * radial
    return c, a, b


def lattice_kernel(geom, states):
    """P(t, r) as an (n_t, n_r, 4, 4) field."""
    c, a, b = kernel_coefficients(geom, states)
    return (
        c[..., None, None] * _ID4
        + a[..., None, None] * _GAMMA_T
        + b[..., None, None] * _GAMMA_R
    )


def closed_chain_field(p_field):
    """A(t, r) = P(t, r) times its Dirac adjoint, pointwise."""
    return p_field @ spin_adjoint(p_field)


def chain_root_field(a_field):
    roots = np.linalg.eigvals(a_field)
    if not np.all(np.isfinite(roots)):
        bad = np.argwhere(~np.all(np.isfinite(roots), axis=-1))
        raise RuntimeError(f"eigenvalue solver failed at lattice points {bad[:5]}")
    return roots


# pointwise (1/8) sum_{i,j} (|lam_i| - |lam_j|)^2 over (..., 4) root fields
critical_lagrangian_field = pairwise_critical_lagrangian


def _abs2(x):
    """|x|^2 pointwise."""
    return x.real * x.real + x.imag * x.imag


def _re_dot(x, y):
    """2 Re(conj(x) y) pointwise."""
    return 2.0 * (x.real * y.real + x.imag * y.imag)


def _im_cross(x, y):
    """2 Im(x conj(y)) pointwise."""
    return 2.0 * (x.imag * y.real - x.real * y.imag)


def _lagrangian(alpha, disc, row=None):
    """L = 4 min(alpha^2, max(D, 0)) from the chain invariants alpha and D.

    The last two axes are the lattice points (t, r).  Raises RuntimeError
    naming the first points where alpha or D is not finite.  The scan passes
    one row of its grid, with a leading tau2 axis, as ``row = (tau1, tau2
    values)``; the message then also names the first failing (tau1, tau2).
    """
    finite = np.isfinite(alpha) & np.isfinite(disc)
    if not finite.all():
        bad, where = ~finite, ""
        if row is not None:
            tau1, tau2 = row
            j = int(np.argmax(bad.any(axis=(-2, -1))))
            bad = bad[j]
            where = f" of the scan cell (tau1, tau2) = {(float(tau1), float(tau2[j]))}"
        points = np.argwhere(bad)[:5].tolist()
        raise RuntimeError(
            f"chain invariants are not finite at lattice points {points}{where}"
        )
    lag = np.maximum(disc, 0.0)
    np.minimum(alpha * alpha, lag, out=lag)
    lag *= 4.0
    return lag


def critical_lagrangian(c, a, b):
    """L = 4 min(alpha^2, max(D, 0)) pointwise over coefficient fields (c, a, b).

    alpha = |c|^2 + |a|^2 - |b|^2 and D = beta^2 - delta^2 - eps^2 with
    beta = 2 Re(conj(c) a), delta = 2 Re(conj(c) b) and eps = -2 Im(conj(a) b)
    (the chain's gamma^t gamma^r part is i eps).  For two states (s_A, r_A),
    (s_B, r_B) with c = s_A + s_B, a = ch1 s_A + ch2 s_B and
    b = sh1 r_A + sh2 r_B (chX = cosh tauX, shX = sinh tauX) these separate as

        alpha = [|c|^2 + ch1^2 |s_A|^2 - sh1^2 |r_A|^2]
                + [ch2^2 |s_B|^2 - sh2^2 |r_B|^2]
                + 2 ch1 ch2 Re(conj(s_A) s_B) - 2 sh1 sh2 Re(conj(r_A) r_B),
        beta  = ch1 2 Re(conj(c) s_A) + ch2 2 Re(conj(c) s_B),
        delta = sh1 2 Re(conj(c) r_A) + sh2 2 Re(conj(c) r_B),
        eps   = sum over X, Y in {A, B} of chX shY 2 Im(s_X conj(r_Y)),

    which ``landscape_scan_2d`` evaluates row by row.  Raises RuntimeError
    naming the first points where alpha or D is not finite.
    """
    alpha = _abs2(c) + _abs2(a) - _abs2(b)
    beta = _re_dot(c, a)
    delta = _re_dot(c, b)
    eps = _im_cross(a, b)
    return _lagrangian(alpha, beta * beta - delta * delta - eps * eps)


def _radial_cell_measure(n_r):
    # Exact integrals of the spherical measure r^2 dr over the grid cells
    # (unit radial spacing): the origin owns the half cell [0, 1/2), giving
    # (1/2)^3/3 = 1/24, and cell l >= 1 covers [l-1/2, l+1/2), giving
    # l^2 + 1/12.  A plain midpoint rule (l^2, with an ad-hoc origin weight)
    # leaves the coincidence cell heavy enough to swallow the off-origin
    # wells of the two-state landscape; the exact cell measure does not.
    radii = np.arange(n_r, dtype=float)
    rho_r = radii**2 + 1.0 / 12.0
    rho_r[0] = 1.0 / 24.0
    return rho_r


def _sphere_weights(geom):
    rho_t = np.full(geom.n_t, 2.0)
    rho_t[0] = 1.0
    return rho_t, _radial_cell_measure(geom.n_r)


def _flat_time_weights(geom):
    return np.ones(geom.n_t), _radial_cell_measure(geom.n_r)


WEIGHT_PRESETS = {
    "sphere": _sphere_weights,
    "flat-time": _flat_time_weights,
}


def weight_arrays(geom, weights="sphere"):
    """Resolve a preset name or explicit (rho_t, rho_r) pair to arrays.

    Weights that are not positive, or whose point weights rho_t[t] rho_r[r]
    are not finite, raise InvalidInput.
    """
    if isinstance(weights, str):
        try:
            rho_t, rho_r = WEIGHT_PRESETS[weights](geom)
        except KeyError:
            raise InvalidInput(
                f"unknown weight preset {weights!r}; have {sorted(WEIGHT_PRESETS)}"
            ) from None
    else:
        rho_t, rho_r = (np.asarray(w, dtype=float) for w in weights)
        if rho_t.shape != (geom.n_t,) or rho_r.shape != (geom.n_r,):
            raise InvalidInput("weight arrays must match the lattice shape")
    if np.any(rho_t <= 0) or np.any(rho_r <= 0):
        raise InvalidInput("weights must be positive")
    # NaN passes the sign test, and max propagates it; of the point weights
    # rho_t[t] rho_r[r], all positive, the largest is the product of the maxima
    if not math.isfinite(float(rho_t.max()) * float(rho_r.max())):
        raise InvalidInput("weights and their products rho_t[t] rho_r[r] must be finite")
    return rho_t, rho_r


@dataclass(frozen=True)
class LatticeAction:
    lagrangian: np.ndarray
    rho_t: np.ndarray
    rho_r: np.ndarray
    total: float


def lattice_action(geom, states, weights="sphere"):
    """The Lagrangian of ``states`` and its weighted sum, refused (RuntimeError) if not finite."""
    rho_t, rho_r = weight_arrays(geom, weights)
    lag = critical_lagrangian(*kernel_coefficients(geom, states))
    total = float(np.einsum("t,r,tr->", rho_t, rho_r, lag))
    if not math.isfinite(total):
        raise RuntimeError(f"the weighted lattice action is not finite: {total}")
    return LatticeAction(lag, rho_t, rho_r, total)


def trace_condition(states):
    """Total particle content: the amplitude sum over occupied states."""
    return float(sum(s.phi for s in states))


def enforce_trace(states, target):
    """Rescale all amplitudes by a common factor to hit the target trace."""
    current = trace_condition(states)
    if current == 0.0:
        raise ValueError("cannot rescale an empty occupation to a nonzero trace")
    factor = float(target) / current
    if factor <= 0.0:
        raise ValueError("target trace must be positive")
    return tuple(replace(s, phi=s.phi * factor) for s in states)


@dataclass(frozen=True)
class LandscapeSurface:
    tau_values: np.ndarray
    surface: np.ndarray  # surface[i, j] = S(tau_values[i], tau_values[j])
    minima: tuple  # (tau1, tau2, value) for every grid-local minimum
    global_minima: tuple

    def value_at(self, tau1, tau2):
        i = int(np.argmin(np.abs(self.tau_values - tau1)))
        j = int(np.argmin(np.abs(self.tau_values - tau2)))
        return float(self.surface[i, j])


def _grid_local_minima(tau_values, surface):
    padded = np.pad(surface, 1, constant_values=np.inf)
    is_min = np.ones_like(surface, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            shifted = padded[1 + di : 1 + di + surface.shape[0],
                             1 + dj : 1 + dj + surface.shape[1]]
            is_min &= surface <= shifted
    out = [
        (float(tau_values[i]), float(tau_values[j]), float(surface[i, j]))
        for i, j in np.argwhere(is_min)
    ]
    # antipodal minima differ by an ulp or two of rounding; 12 significant
    # digits make them tie, and the coordinates then fix the order
    out.sort(key=lambda rec: (float(f"{rec[2]:.11e}"), rec[0], rec[1]))
    return tuple(out)


def landscape_scan_2d(geom, state_a, state_b, tau_values, weights="sphere"):
    """Action surface over a (tau1, tau2) grid for two occupied states.

    The boost parameters of the two supplied states are scan variables;
    their amplitudes (hence the trace) stay fixed.  The chain invariants are
    a quadratic form in (ch1, sh1, ch2, sh2) = (cosh tau1, sinh tau1,
    cosh tau2, sinh tau2) over the states' scalar and radial fields s_X, r_X
    (see ``critical_lagrangian``):

        alpha = A1 + A2 + ch1 [ch2 2 Re(conj(s_A) s_B)] - sh1 [sh2 2 Re(conj(r_A) r_B)],
        beta  = ch1 2 Re(conj(c) s_A) + [ch2 2 Re(conj(c) s_B)],
        delta = sh1 2 Re(conj(c) r_A) + [sh2 2 Re(conj(c) r_B)],
        eps   = ch1 sh1 E_AA + ch1 [sh2 E_AB] + sh1 [ch2 E_BA] + [ch2 sh2 E_BB],

    with A1 = |c|^2 + ch1^2 |s_A|^2 - sh1^2 |r_A|^2,
    A2 = ch2^2 |s_B|^2 - sh2^2 |r_B|^2 and E_XY = 2 Im(s_X conj(r_Y)).  The
    tau2 terms (bracketed, and A2) are formed once per scan over the whole
    grid, so a row costs one product of its tau1 factors with the terms per
    invariant, a few real ufuncs over (grid, n_t, n_r) and one product with
    rho_t (x) rho_r.  Raises RuntimeError naming the first cell whose action
    is not finite: finite chain invariants whose weighted sum overflows.
    """
    _validate_occupation(geom, (state_a, state_b))
    rho_t, rho_r = weight_arrays(geom, weights)
    tau_values = np.asarray(tau_values, dtype=float)
    s_a, r_a = _state_fields(geom, state_a)
    s_b, r_b = _state_fields(geom, state_b)
    c = s_a + s_b
    ch = np.cosh(tau_values)
    sh = np.sinh(tau_values)
    n = tau_values.size
    one = np.ones(n)
    shape = (n, geom.n_t, geom.n_r)

    def terms(*fields):
        # (terms, grid * n_t * n_r); a field without a tau2 axis repeats over it
        stacked = np.stack([np.broadcast_to(f, shape) for f in fields])
        return stacked.reshape(len(fields), -1)

    ch2, sh2 = ch[:, None, None], sh[:, None, None]
    # each invariant is (tau1 factors of row i) @ (terms), one product per row
    invariants = (
        (np.stack([one, ch * ch, -sh * sh, ch, -sh], axis=1),
         terms(_abs2(c) + ch2 * ch2 * _abs2(s_b) - sh2 * sh2 * _abs2(r_b),
               _abs2(s_a), _abs2(r_a),
               ch2 * _re_dot(s_a, s_b), sh2 * _re_dot(r_a, r_b))),
        (np.stack([one, ch], axis=1), terms(ch2 * _re_dot(c, s_b), _re_dot(c, s_a))),
        (np.stack([one, sh], axis=1), terms(sh2 * _re_dot(c, r_b), _re_dot(c, r_a))),
        (np.stack([one, ch * sh, ch, sh], axis=1),
         terms(ch2 * sh2 * _im_cross(s_b, r_b), _im_cross(s_a, r_a),
               sh2 * _im_cross(s_a, r_b), ch2 * _im_cross(s_b, r_a))),
    )
    weight = np.outer(rho_t, rho_r).ravel()
    surface = np.empty((n, n))
    for i in range(n):
        # one row (tau1 = tau_values[i]) at a time keeps the temporaries at
        # (grid, n_t, n_r); the whole grid at once is slower for memory traffic
        alpha, beta, delta, eps = (
            (factors[i] @ fields).reshape(shape) for factors, fields in invariants
        )
        disc = beta * beta - delta * delta - eps * eps
        lag = _lagrangian(alpha, disc, (tau_values[i], tau_values))
        surface[i] = lag.reshape(n, -1) @ weight
    # finite invariants can still overflow in the weighted sum (rho ~ 1e154)
    finite = np.isfinite(surface)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise RuntimeError(
            "the action surface is not finite at the scan cell (tau1, tau2) = "
            f"{(float(tau_values[i]), float(tau_values[j]))}"
        )
    minima = _grid_local_minima(tau_values, surface)
    floor = min(rec[2] for rec in minima)
    global_minima = tuple(
        rec for rec in minima if rec[2] <= floor + 1e-10 * (1.0 + abs(floor))
    )
    return LandscapeSurface(
        tau_values=tau_values,
        surface=surface,
        minima=minima,
        global_minima=global_minima,
    )

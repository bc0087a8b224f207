from dataclasses import replace

import numpy as np
import pytest

import dstlab.lattice
from dstlab import InvalidInput
from dstlab.lattice import (
    CRITICAL_MU,
    LatticeGeometry,
    OccupiedState,
    WEIGHT_PRESETS,
    chain_root_field,
    closed_chain_field,
    critical_lagrangian,
    critical_lagrangian_field,
    enforce_trace,
    kernel_coefficients,
    landscape_scan_2d,
    lattice_action,
    lattice_kernel,
    radial_kernel,
    scalar_kernel,
    trace_condition,
    weight_arrays,
)

GEOM = LatticeGeometry(8, 6)
STATE_A = OccupiedState(omega=-1, k=1)
STATE_B = OccupiedState(omega=-2, k=2)

# frozen references for the 8x6 two-state system at tau1 = tau2 = 0
ORIGIN_ACTION_SPHERE = 366.6250737475249
ORIGIN_ACTION_FLAT = 210.00278013877806


def _gamma_component(mat, gamma, sign):
    # coefficient c in c*gamma, using tr(gamma @ gamma) = 4*sign
    return np.trace(gamma @ mat) / (4.0 * sign)


def test_kernel_limits():
    assert scalar_kernel(np.array([0.0]))[0] == 1.0
    assert radial_kernel(np.array([0.0]))[0] == 0.0
    x = np.linspace(0.3, 20.0, 200)
    np.testing.assert_allclose(
        scalar_kernel(x), np.sin(x) / x, rtol=1e-13, atol=1e-15
    )
    np.testing.assert_allclose(
        radial_kernel(x), 1j * (np.sin(x) / x**2 - np.cos(x) / x), rtol=1e-12
    )
    # channel structure: scalar real, radial purely imaginary
    assert not np.iscomplexobj(scalar_kernel(x))
    assert np.abs(radial_kernel(x).real).max() == 0.0


def test_radial_kernel_series_matches_closed_form_at_switch():
    # the small-x series branch has to meet the closed form where it takes
    # over; the closed form itself carries ~1e-12 cancellation noise there
    for x in (2e-5, 9.9e-5):
        series = radial_kernel(np.array([x]))[0]
        closed = 1j * (np.sin(x) - x * np.cos(x)) / x**2
        assert abs(series - closed) < 1e-11
        assert abs(series.imag - (x / 3 - x**3 / 30)) < 1e-16
        assert series.real == 0.0


def test_geometry_and_dual_lattice():
    np.testing.assert_allclose(GEOM.time_values(), 2 * np.pi * np.arange(8))
    np.testing.assert_allclose(GEOM.radial_values(), 2 * np.pi * np.arange(6))
    assert GEOM.contains_dual(0, 1)
    assert GEOM.contains_dual(-7, 6)
    assert not GEOM.contains_dual(1, 1)
    assert not GEOM.contains_dual(-8, 1)
    assert not GEOM.contains_dual(0, 0)
    assert not GEOM.contains_dual(0, 7)
    assert len(GEOM.dual_points()) == 8 * 6


@pytest.mark.parametrize(
    "rho_t, rho_r",
    [
        ([1.0, 2.0, 2.0, np.nan, 2.0, 2.0, 2.0, 2.0], np.ones(6)),
        (np.ones(8), [1.0, 1.0, np.inf, 1.0, 1.0, 1.0]),
        (np.full(8, 1e200), np.full(6, 1e200)),  # each finite, their products not
    ],
    ids=["nan", "inf", "overflowing-product"],
)
def test_non_finite_weights_are_refused(rho_t, rho_r):
    # NaN passes the sign test: the scan then found no minimum ("min() arg is
    # an empty sequence") and the action was nan
    with pytest.raises(InvalidInput, match="must be finite"):
        weight_arrays(GEOM, (rho_t, rho_r))
    with pytest.raises(InvalidInput, match="must be finite"):
        landscape_scan_2d(GEOM, STATE_A, STATE_B, np.linspace(-1.0, 1.0, 5),
                          weights=(rho_t, rho_r))
    with pytest.raises(InvalidInput, match="must be finite"):
        lattice_action(GEOM, [STATE_A, STATE_B], weights=(rho_t, rho_r))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the weighted sums overflow
def test_a_scan_whose_surface_overflows_is_refused():
    # every point weight rho_t rho_r = 1e308 is finite and so are the chain
    # invariants, but the weighted sums are not: the scan returned inf in
    # every cell, each a grid-local minimum
    weights = (np.full(8, 1e154), np.full(6, 1e154))
    with pytest.raises(RuntimeError, match=r"scan cell \(tau1, tau2\) = \(-1.0, -1.0\)"):
        landscape_scan_2d(GEOM, STATE_A, STATE_B, np.linspace(-1.0, 1.0, 5), weights=weights)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the weighted sum overflows
def test_a_lattice_action_whose_total_overflows_is_refused():
    # the same weights: the Lagrangian is finite, and the total was returned
    # as inf
    weights = (np.full(8, 1e154), np.full(6, 1e154))
    assert np.isfinite(critical_lagrangian(*kernel_coefficients(GEOM, [STATE_A, STATE_B]))).all()
    with pytest.raises(RuntimeError, match="weighted lattice action is not finite"):
        lattice_action(GEOM, [STATE_A, STATE_B], weights=weights)


def test_geometry_rejects_bad_sizes():
    with pytest.raises(ValueError):
        LatticeGeometry(0, 6)
    with pytest.raises(ValueError):
        LatticeGeometry(8, -1)


def test_occupied_state_validation():
    with pytest.raises(ValueError):
        OccupiedState(omega=-0.5, k=1)
    with pytest.raises(ValueError):
        OccupiedState(omega=-1, k=1, phi=0.0)
    v = OccupiedState(-1, 1, phi=1.5, tau=0.8).velocity()
    assert abs(v[0] ** 2 - v[1] ** 2 - 1.5**2) < 1e-12


def test_occupation_outside_dual_lattice_rejected():
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        lattice_kernel(GEOM, [OccupiedState(1, 1)])
    with pytest.raises(ValueError):
        lattice_action(GEOM, [STATE_A, OccupiedState(0, 7)])


def test_kernel_r0_column_has_no_radial_part():
    from dstlab.lattice import _GAMMA_R, _GAMMA_T

    P = lattice_kernel(GEOM, [OccupiedState(-2, 3, tau=1.3)])
    for j in range(GEOM.n_t):
        cr = _gamma_component(P[j, 0], _GAMMA_R, -1.0)
        assert abs(cr) < 1e-14
        # time and scalar channels survive
        ct = _gamma_component(P[j, 0], _GAMMA_T, 1.0)
        assert abs(ct) > 0.1


def test_kernel_tau_zero_has_no_radial_part_anywhere():
    from dstlab.lattice import _GAMMA_R

    P = lattice_kernel(GEOM, [STATE_A, STATE_B])
    comp = np.einsum("ab,trba->tr", _GAMMA_R, P) / -4.0
    assert np.abs(comp).max() < 1e-14


def test_kernel_phase_rotation_between_columns():
    P = lattice_kernel(GEOM, [OccupiedState(-1, 1, tau=0.4)])
    phase = np.exp(2j * np.pi / GEOM.n_t)
    for j in range(GEOM.n_t - 1):
        np.testing.assert_allclose(P[j + 1], phase * P[j], atol=1e-13)


def test_empty_occupation_action_is_zero():
    act = lattice_action(GEOM, [])
    assert act.total == 0.0
    assert np.all(act.lagrangian == 0.0)


def test_phi_doubling_homogeneity():
    states = [STATE_A, OccupiedState(-2, 2, tau=0.7)]
    doubled = [
        OccupiedState(s.omega, s.k, phi=2 * s.phi, tau=s.tau) for s in states
    ]
    roots = chain_root_field(closed_chain_field(lattice_kernel(GEOM, states)))
    roots2 = chain_root_field(closed_chain_field(lattice_kernel(GEOM, doubled)))
    # eigenvalues of the closed chain scale by 4, the action by 16
    np.testing.assert_allclose(
        np.sort_complex(roots2.reshape(-1, 4)),
        4.0 * np.sort_complex(roots.reshape(-1, 4)),
        rtol=1e-10,
        atol=1e-10,
    )
    s1 = lattice_action(GEOM, states).total
    s2 = lattice_action(GEOM, doubled).total
    np.testing.assert_allclose(s2, 16.0 * s1, rtol=1e-12)


def test_trace_condition_and_enforcement():
    states = [STATE_A, STATE_B]
    assert trace_condition(states) == 2.0
    doubled = [OccupiedState(s.omega, s.k, phi=2.0) for s in states]
    back = enforce_trace(doubled, 2.0)
    assert all(s.phi == 1.0 for s in back)
    # normalization invariant survives the rescale
    rng = np.random.default_rng(7)
    for _ in range(20):
        tau = rng.uniform(-2, 2)
        phi = rng.uniform(0.2, 3.0)
        (scaled,) = enforce_trace([OccupiedState(-3, 4, phi=phi, tau=tau)], 1.0)
        vt, vr = scaled.velocity()
        assert abs(vt**2 - vr**2 - scaled.phi**2) < 1e-12


def test_enforce_trace_rejects_bad_targets():
    with pytest.raises(ValueError):
        enforce_trace([], 1.0)
    with pytest.raises(ValueError):
        enforce_trace([STATE_A], -2.0)


def test_critical_mu_value():
    assert CRITICAL_MU == 0.25


def test_lagrangian_field_nonnegative_and_origin_roots_real():
    roots = chain_root_field(closed_chain_field(lattice_kernel(GEOM, [STATE_A, STATE_B])))
    assert np.abs(roots.imag).max() < 1e-12
    lag = critical_lagrangian_field(roots)
    assert lag.min() >= 0.0


def test_weight_presets_and_validation():
    assert set(WEIGHT_PRESETS) == {"sphere", "flat-time"}
    rho_t, rho_r = weight_arrays(GEOM, "sphere")
    np.testing.assert_allclose(rho_t, [1, 2, 2, 2, 2, 2, 2, 2])
    # exact cell integrals of r^2 dr: half cell at the origin, l^2 + 1/12 inside
    np.testing.assert_allclose(
        rho_r, [1 / 24] + [l * l + 1 / 12 for l in range(1, 6)]
    )
    flat_t, flat_r = weight_arrays(GEOM, "flat-time")
    np.testing.assert_allclose(flat_t, np.ones(8))
    np.testing.assert_allclose(flat_r, rho_r)
    with pytest.raises(ValueError, match="unknown weight preset"):
        weight_arrays(GEOM, "cube")
    with pytest.raises(ValueError):
        weight_arrays(GEOM, (np.ones(5), np.ones(6)))
    with pytest.raises(ValueError):
        weight_arrays(GEOM, (np.ones(8), -np.ones(6)))
    explicit = weight_arrays(GEOM, (np.ones(8), np.ones(6)))
    assert explicit[0].shape == (8,)


def test_antipodal_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(6):
        t1, t2 = rng.uniform(-2.2, 2.2, size=2)
        s_plus = lattice_action(
            GEOM,
            [OccupiedState(-1, 1, tau=t1), OccupiedState(-2, 2, tau=t2)],
        ).total
        s_minus = lattice_action(
            GEOM,
            [OccupiedState(-1, 1, tau=-t1), OccupiedState(-2, 2, tau=-t2)],
        ).total
        assert abs(s_plus - s_minus) <= 1e-10 * max(1.0, abs(s_plus))


def test_origin_is_critical_point():
    h = 1e-5

    def s(t1, t2):
        return lattice_action(
            GEOM, [OccupiedState(-1, 1, tau=t1), OccupiedState(-2, 2, tau=t2)]
        ).total

    g1 = (s(h, 0.0) - s(-h, 0.0)) / (2 * h)
    g2 = (s(0.0, h) - s(0.0, -h)) / (2 * h)
    assert abs(g1) < 1e-6
    assert abs(g2) < 1e-6


def test_origin_action_frozen_values():
    np.testing.assert_allclose(
        lattice_action(GEOM, [STATE_A, STATE_B], weights="sphere").total,
        ORIGIN_ACTION_SPHERE,
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        lattice_action(GEOM, [STATE_A, STATE_B], weights="flat-time").total,
        ORIGIN_ACTION_FLAT,
        rtol=1e-12,
    )


def test_landscape_double_well_contract():
    taus = np.linspace(-2.5, 2.5, 61)
    for preset, origin_ref in [
        ("sphere", ORIGIN_ACTION_SPHERE),
        ("flat-time", ORIGIN_ACTION_FLAT),
    ]:
        scan = landscape_scan_2d(GEOM, STATE_A, STATE_B, taus, weights=preset)
        assert scan.surface.shape == (61, 61)
        np.testing.assert_allclose(scan.value_at(0.0, 0.0), origin_ref, rtol=1e-12)
        # lattice_action and the scan agree at a shared grid point
        direct = lattice_action(
            GEOM,
            [OccupiedState(-1, 1, tau=0.5), OccupiedState(-2, 2, tau=-0.25)],
            weights=preset,
        ).total
        np.testing.assert_allclose(scan.value_at(0.5, -0.25), direct, rtol=1e-12)

        origin_local = any(
            m[0] == 0.0 and m[1] == 0.0 for m in scan.minima
        )
        origin_global = any(
            m[0] == 0.0 and m[1] == 0.0 for m in scan.global_minima
        )
        assert origin_local, f"{preset}: origin lost local minimality"
        assert not origin_global, f"{preset}: origin must not be the global minimum"

        assert len(scan.global_minima) == 2
        (t1a, t2a, va), (t1b, t2b, vb) = scan.global_minima
        # antipodal pair, same-sign components, inside the target boxes
        assert abs(t1a + t1b) < 1e-12 and abs(t2a + t2b) < 1e-12
        assert abs(va - vb) < 1e-9 * max(1.0, abs(va))
        for t1, t2 in [(t1a, t2a), (t1b, t2b)]:
            assert np.sign(t1) == np.sign(t2)
            assert 1.2 <= abs(t1) <= 1.8
            assert 0.7 <= abs(t2) <= 1.3


def test_landscape_surface_matches_pointwise_action():
    # the scan's separable invariants against lattice_action cell by cell, on
    # an asymmetric grid, for every weight form and for occupations with
    # phi != 1 at other dual points
    taus = np.array([-2.2, -0.3, 0.0, 0.7, 1.9])
    rng = np.random.default_rng(7)
    explicit = (rng.uniform(0.5, 2.0, GEOM.n_t), rng.uniform(0.1, 30.0, GEOM.n_r))
    pairs = [(STATE_A, STATE_B, w) for w in ("sphere", "flat-time", explicit)]
    for _ in range(3):
        state_a, state_b = (
            OccupiedState(
                omega=int(rng.integers(-(GEOM.n_t - 1), 1)),
                k=int(rng.integers(1, GEOM.n_r + 1)),
                phi=float(rng.uniform(0.2, 0.9)),
            )
            for _ in range(2)
        )
        pairs.append((state_a, state_b, "sphere"))
    for state_a, state_b, weights in pairs:
        scan = landscape_scan_2d(GEOM, state_a, state_b, taus, weights=weights)
        for i, t1 in enumerate(taus):
            for j, t2 in enumerate(taus):
                states = [replace(state_a, tau=t1), replace(state_b, tau=t2)]
                direct = lattice_action(GEOM, states, weights=weights).total
                np.testing.assert_allclose(scan.surface[i, j], direct, rtol=1e-12)


def _random_occupation(rng):
    return [
        OccupiedState(
            omega=int(rng.integers(-(GEOM.n_t - 1), 1)),
            k=int(rng.integers(1, GEOM.n_r + 1)),
            phi=float(rng.uniform(0.2, 2.0)),
            tau=float(rng.uniform(-2.5, 2.5)),
        )
        for _ in range(rng.integers(1, 4))
    ]


def test_closed_form_matches_the_4x4_eigenvalue_route():
    rng = np.random.default_rng(31)
    spacelike_points = 0
    for _ in range(40):
        states = _random_occupation(rng)
        oracle = chain_root_field(closed_chain_field(lattice_kernel(GEOM, states)))
        lag = lattice_action(GEOM, states).lagrangian
        ref_lag = critical_lagrangian_field(oracle)
        assert np.abs(lag - ref_lag).max() <= 1e-13 * ref_lag.max()
        # D < 0: the oracle's roots are a conjugate pair of equal modulus (all
        # four well off the real axis), and the closed form gives exactly 0
        scale = 1.0 + np.abs(oracle).max(axis=-1)
        spacelike = np.abs(oracle.imag).min(axis=-1) > 1e-6 * scale
        assert np.all(lag[spacelike] == 0.0)
        spacelike_points += int(spacelike.sum())
    assert spacelike_points > 0


def test_production_path_builds_no_4x4_chain(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the closed form needs no 4x4 matrices")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    for name in ("lattice_kernel", "closed_chain_field", "chain_root_field",
                 "critical_lagrangian_field"):
        monkeypatch.setattr(dstlab.lattice, name, refuse)
    scan = landscape_scan_2d(GEOM, STATE_A, STATE_B, np.linspace(-2.5, 2.5, 11))
    np.testing.assert_allclose(
        scan.value_at(0.0, 0.0), ORIGIN_ACTION_SPHERE, rtol=1e-12
    )
    total = lattice_action(GEOM, [STATE_A, STATE_B]).total
    np.testing.assert_allclose(total, ORIGIN_ACTION_SPHERE, rtol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_boost_is_refused_not_returned_as_nan():
    # tau = 1000 overflows the coefficients themselves; tau = 500 leaves them
    # finite but overflows |a|^2 in alpha
    for tau in (1000.0, 500.0):
        bad_points = r"not finite at lattice points \[\[0, 0\]"
        with pytest.raises(RuntimeError, match=bad_points):
            lattice_action(GEOM, [OccupiedState(-1, 1, tau=tau), STATE_B])
    with pytest.raises(RuntimeError, match="not finite at lattice points"):
        landscape_scan_2d(GEOM, STATE_A, STATE_B, np.linspace(-800.0, 800.0, 5))
    # alpha = inf and D = -inf: 4 min(alpha^2, max(D, 0)) alone would read 0
    one_point = [np.array([[value]], dtype=complex) for value in (1e-10, 1e160, 1j)]
    only_origin = r"not finite at lattice points \[\[0, 0\]\]"
    with pytest.raises(RuntimeError, match=only_origin):
        critical_lagrangian(*one_point)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scan_refusal_names_the_failing_cell():
    # cosh(400)^2 overflows: the first failing cell is (tau1, tau2) = (0, 400)
    # of row 0, where every lattice point fails
    bad = (r"not finite at lattice points \[\[0, 0\], \[0, 1\], \[0, 2\], \[0, 3\], "
           r"\[0, 4\]\] of the scan cell \(tau1, tau2\) = \(0\.0, 400\.0\)$")
    with pytest.raises(RuntimeError, match=bad):
        landscape_scan_2d(GEOM, STATE_A, STATE_B, [0.0, 1.0, 400.0])


# the grid-local minima of the fig5 scan (8x6 lattice, STATE_A and STATE_B,
# sphere weights, 61 boosts over [-2.5, 2.5]) in the scan's order, as
# (tau1, tau2, S)
FIG5_MINIMA = [
    (-1.75, -0.75, 305.9236223815591),
    (1.75, 0.75, 305.9236223815591),
    (-1.8333333333333335, -0.5833333333333335, 317.91318137104236),
    (1.833333333333333, 0.583333333333333, 317.91318137104247),
    (-1.9166666666666667, -0.41666666666666696, 329.0409909823787),
    (1.916666666666666, 0.4166666666666665, 329.0409909823789),
    (-0.8333333333333335, 1.916666666666666, 335.4360590049621),
    (0.833333333333333, -1.9166666666666667, 335.43605900496186),
    (-1.25, -1.3333333333333335, 338.8625031620048),
    (1.25, 1.333333333333333, 338.8625031620048),
    (-2.0833333333333335, 0.0, 360.43975854393295),
    (2.083333333333333, 0.0, 360.4397585439334),
    (-0.08333333333333348, -1.6666666666666667, 365.5251491005258),
    (0.08333333333333304, 1.666666666666666, 365.5251491005258),
    (0.0, 0.0, 366.6250737475249),
    (-0.25, 1.75, 372.69030584682577),
    (0.25, -1.75, 372.69030584682577),
    (-0.9166666666666667, -1.5, 373.1631049397141),
    (0.9166666666666665, 1.5, 373.16310493971395),
    (-0.5, -1.5833333333333335, 373.28464258577606),
    (0.5, 1.583333333333333, 373.28464258577617),
]


def test_fig5_grid_minima_are_pinned():
    # a rounding change in the scan must not move, add, drop or reorder a
    # grid-local minimum
    scan = landscape_scan_2d(GEOM, STATE_A, STATE_B, np.linspace(-2.5, 2.5, 61))
    assert [m[:2] for m in scan.minima] == [m[:2] for m in FIG5_MINIMA]
    np.testing.assert_allclose(
        [m[2] for m in scan.minima], [m[2] for m in FIG5_MINIMA], rtol=1e-12
    )
    assert scan.global_minima == scan.minima[:2]


def test_grid_minima_order_ignores_ulp_noise_between_antipodal_minima():
    from dstlab.lattice import _grid_local_minima

    taus = np.linspace(-2.5, 2.5, 61)
    scan = landscape_scan_2d(GEOM, STATE_A, STATE_B, taus)
    order = [rec[:2] for rec in scan.minima]
    assert len(order) == 21
    index = {round(t, 9): k for k, t in enumerate(taus)}
    pairs = [rec for rec in scan.minima if (-rec[0], -rec[1]) in order and rec[0] > 0]
    assert pairs
    for t1, t2, _ in pairs:
        i, j = index[round(t1, 9)], index[round(t2, 9)]
        for direction in (np.inf, -np.inf):
            surface = scan.surface.copy()
            surface[i, j] = np.nextafter(surface[i, j], direction)
            moved = _grid_local_minima(taus, surface)
            assert [rec[:2] for rec in moved] == order

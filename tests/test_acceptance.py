"""Release acceptance gate.

Each test exercises one numbered acceptance criterion end to end and prints
exactly one PASS/FAIL line; run ``pytest -s tests/test_acceptance.py`` to
watch them stream.  A criterion fails when any check misses its stated
tolerance or the work runs over the wall-clock budget in brackets.
"""

import time
import warnings
from contextlib import contextmanager

import numpy as np
import scipy.integrate as integrate
import sympy

import dstlab.action as act
from dstlab import DiscreteSpacetime, random_direction, random_gauge, random_projector
from dstlab.causal import CausalClass, classify
from dstlab.continuum.lightcone import (
    C_SYMBOLS,
    D_SYMBOLS,
    expansion_product,
    gradient_expansion,
    standard_expansion,
)
from dstlab.continuum.minkowski import (
    VectorScalarKernel,
    chain_root_values,
    classify_separation,
    kernel_gradient,
)
from dstlab.continuum.momentum import (
    Unbounded,
    convolution_support,
    fourier_support_check,
)
from dstlab.continuum.seas import pure_counterterm_profile, regularized_action
from dstlab.correlation import (
    correlation_chain_roots,
    geometry_diagnostics,
    local_correlations,
    triangle_family,
    triangle_projector,
)
from dstlab.lattice import (
    WEIGHT_PRESETS,
    LatticeGeometry,
    OccupiedState,
    landscape_scan_2d,
)
from dstlab.solver import SolverConfig, minimize


class _Criterion:
    def __init__(self, num, label, budget_s):
        self.num = num
        self.label = label
        self.budget_s = budget_s
        self.failures = []
        self.detail = ""
        self.t0 = time.perf_counter()

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)
        return bool(ok)

    def note(self, detail):
        self.detail = detail

    def emit(self):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if not self.failures else "FAIL"
        extra = f" | {self.detail}" if self.detail else ""
        print(
            f"[{self.num:02d}] {verdict} {self.label}{extra} "
            f"[{elapsed:.2f}s / {self.budget_s:g}s]"
        )


@contextmanager
def criterion(num, label, budget_s):
    c = _Criterion(num, label, budget_s)
    try:
        yield c
    except BaseException as exc:
        c.failures.append(f"aborted: {exc!r}")
        c.emit()
        raise
    elapsed = time.perf_counter() - c.t0
    if elapsed > budget_s:
        c.failures.append(f"runtime {elapsed:.2f}s over the {budget_s:g}s budget")
    c.emit()
    assert not c.failures, f"[{num:02d}] " + "; ".join(c.failures)


# ---------------------------------------------------------------------------
# 1. spread identity at the critical multiplier, in bulk
# ---------------------------------------------------------------------------


def test_critical_identity_bulk():
    with criterion(1, "critical-multiplier spread identity", 1.0) as c:
        rng = np.random.default_rng(2026)
        worst = 0.0
        for n in (1, 2):
            lam = rng.normal(size=(50000, 2 * n)) + 1j * rng.normal(size=(50000, 2 * n))
            mod = np.abs(lam)
            lhs = np.sum(mod**2, axis=1) - np.sum(mod, axis=1) ** 2 / (2 * n)
            diff = mod[:, :, None] - mod[:, None, :]
            rhs = np.sum(diff**2, axis=(1, 2)) / (4 * n)
            rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))
            worst = max(worst, float(rel.max()))
            # scalar API agrees with the bulk arrays on a stride sample
            for i in range(0, lam.shape[0], 500):
                lib_l = act.lagrangian(lam[i], act.critical_mu(n))
                lib_r = act.pairwise_critical_lagrangian(lam[i])
                scale = max(1.0, abs(lhs[i]))
                c.check(
                    abs(lib_l - lhs[i]) <= 1e-12 * scale
                    and abs(lib_r - rhs[i]) <= 1e-12 * scale,
                    f"scalar API disagrees with bulk identity at n={n}, row {i}",
                )
        c.check(worst <= 1e-12, f"identity deviates by {worst:.2e} (> 1e-12)")
        c.note(f"max rel dev {worst:.2e} over 2x50000 multisets")


# ---------------------------------------------------------------------------
# 2. three-point closed forms, causal transition, constraint threshold
# ---------------------------------------------------------------------------


def _triangle_pair_disc(v):
    # squared root gap of one chain of the symmetric three-point family;
    # real and positive for real root pairs, negative for conjugate pairs
    fam = triangle_family(v)
    lp, lm = correlation_chain_roots(
        fam.rho[0], fam.vectors[0], fam.rho[1], fam.vectors[1]
    )
    return (complex(lp - lm) ** 2).real


def test_triangle_closed_forms_and_transition():
    with criterion(2, "three-point closed forms and causal transition", 1.0) as c:
        fam = triangle_family(2.0 / 3.0)
        lp, lm = correlation_chain_roots(
            fam.rho[0], fam.vectors[0], fam.rho[1], fam.vectors[1]
        )
        c.check(abs(lp - 1.0 / 9.0) <= 1e-12, f"lam_plus = {lp} != 1/9 at v = 2/3")
        c.check(abs(lm) <= 1e-12, f"lam_minus = {lm} != 0 at v = 2/3")

        v_star = 4.0 * np.sqrt(3.0) / 9.0
        c.check(
            abs(_triangle_pair_disc(v_star)) <= 1e-9,
            f"discriminant at v = 4*sqrt(3)/9 is {_triangle_pair_disc(v_star):.2e}",
        )
        lo, hi = 0.70, 0.83
        c.check(
            _triangle_pair_disc(lo) > 0.0 > _triangle_pair_disc(hi),
            "discriminant does not change sign across [0.70, 0.83]",
        )
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _triangle_pair_disc(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        found = 0.5 * (lo + hi)
        c.check(
            abs(found - v_star) <= 1e-9,
            f"discriminant zero at v = {found:.12f}, expected {v_star:.12f}",
        )

        def class_at(v):
            fam = triangle_family(v)
            pair = correlation_chain_roots(
                fam.rho[0], fam.vectors[0], fam.rho[1], fam.vectors[1]
            )
            return classify(np.array(pair))

        c.check(
            class_at(v_star - 1e-3) is CausalClass.TIMELIKE
            and class_at(v_star + 1e-3) is CausalClass.SPACELIKE,
            "classification does not flip timelike -> spacelike across the zero",
        )

        tval = act.constraint_value(triangle_projector(v_star))
        c.check(
            abs(tval - 68.0 / 81.0) <= 1e-10,
            f"constraint at the transition is {tval:.12f}, expected 68/81",
        )
        c.note(f"transition located at v = {found:.10f}")


# ---------------------------------------------------------------------------
# 3. tetrahedron emergence from the minimizer at four points
# ---------------------------------------------------------------------------


def test_tetrahedron_from_minimization():
    with criterion(3, "tetrahedron emergence (four points, 32 seeds)", 120.0) as c:
        cfg = SolverConfig(mode="auxiliary", mu=0.5, seeds=tuple(range(32)))
        res = minimize(DiscreteSpacetime(1, 4), 2, cfg)
        c.check(res.status == "converged", f"solver status {res.status!r}")
        corr = local_correlations(res.projector)
        rho_dev = float(np.max(np.abs(corr.rho - 0.5)))
        c.check(rho_dev <= 1e-3, f"rho deviates from 1/2 by {rho_dev:.2e}")
        units = corr.vectors / corr.lengths()[:, None]
        dots = (units @ units.T)[np.triu_indices(4, k=1)]
        dot_dev = float(np.max(np.abs(dots + 1.0 / 3.0)))
        c.check(dot_dev <= 0.05, f"pair dots deviate from -1/3 by {dot_dev:.3f}")
        c.note(f"rho dev {rho_dev:.1e}, worst dot dev {dot_dev:.1e}")


# ---------------------------------------------------------------------------
# 4. common vector length 2/m for larger systems
# ---------------------------------------------------------------------------


def test_sphere_lengths_larger_systems():
    with criterion(4, "vector lengths near 2/m at m = 5, 8, 9", 600.0) as c:
        devs = []
        for m in (5, 8, 9):
            cfg = SolverConfig(mode="auxiliary", mu=0.5, seeds=tuple(range(8)))
            res = minimize(DiscreteSpacetime(1, m), 2, cfg)
            c.check(res.status == "converged", f"m={m}: solver status {res.status!r}")
            rep = geometry_diagnostics(local_correlations(res.projector))
            devs.append(rep["length_rel_dev"])
            c.check(
                rep["length_rel_dev"] <= 0.15,
                f"m={m}: lengths off 2/m by {rep['length_rel_dev']:.3f} (> 15%)",
            )
        c.note("rel devs " + ", ".join(f"{d:.3f}" for d in devs))


# ---------------------------------------------------------------------------
# 5. gradient and first-variation oracles
# ---------------------------------------------------------------------------


def _sample_chain(seed, m=4, f=2):
    sp = DiscreteSpacetime(1, m)
    p = random_projector(sp, f, seed=seed)
    rng = np.random.default_rng(seed)
    x, y = (sp.point_slice(int(i)) for i in rng.integers(0, m, size=2))
    pm = p.matrix()
    return pm[x, y] @ pm[y, x]  # A_xy from two point blocks of the dense P


def test_gradient_and_first_variation_oracles():
    with criterion(5, "gradient and first-variation oracles", 30.0) as c:
        checked = 0
        seed = 0
        worst_grad = 0.0
        while checked < 100:
            seed += 1
            a = _sample_chain(seed)
            mod = np.abs(np.linalg.eigvals(a))
            scale = 1.0 + mod.max()
            if mod.min() < 1e-3 * scale or np.ptp(mod) < 1e-3 * scale:
                continue  # degenerate / equal-modulus chain
            msq, mabs = act.finite_difference_gradient(a)
            for mu in (0.3, 0.5):
                m_an = act.lagrangian_gradient(a, mu)
                m_fd = msq - mu * mabs
                err = np.max(np.abs(m_an - m_fd)) / np.max(np.abs(m_fd))
                worst_grad = max(worst_grad, float(err))
            checked += 1
        c.check(
            worst_grad <= 1e-5,
            f"gradient vs finite differences off by {worst_grad:.2e} (> 1e-5)",
        )

        sp = DiscreteSpacetime(1, 4)
        worst_var = 0.0
        for k in range(100):
            p = random_projector(sp, 2, seed=1000 + k)
            b = random_direction(sp, seed=2000 + k)
            an = act.first_variation(act.el_commutator(p, 0.5), b)
            fd = act.orbit_derivative_fd(p, 0.5, b)
            err = abs(an - fd) / max(abs(fd), 1e-3)
            worst_var = max(worst_var, float(err))
        c.check(
            worst_var <= 1e-4,
            f"first variation vs orbit differences off by {worst_var:.2e} (> 1e-4)",
        )
        c.note(f"grad {worst_grad:.1e}, variation {worst_var:.1e}")


# ---------------------------------------------------------------------------
# 6. gauge invariance of every reported observable
# ---------------------------------------------------------------------------


def test_gauge_invariance_of_observables():
    with criterion(6, "gauge invariance of observables", 10.0) as c:
        sp = DiscreteSpacetime(1, 4)
        p = random_projector(sp, 2, seed=5)
        mu = 0.5
        s0, t0 = act.action_and_constraint(p, mu)
        r0 = act.el_residual(p, mu)
        roots0 = act.chain_roots(act.chain_blocks(act.kernel_blocks(p)))
        root_scale = 1.0 + float(np.abs(roots0).max())
        worst = 0.0
        for k in range(100):
            q = random_gauge(sp, seed=100 + k).apply(p)
            s1, t1 = act.action_and_constraint(q, mu)
            r1 = act.el_residual(q, mu)
            worst = max(
                worst,
                abs(s1 - s0) / (1.0 + abs(s0)),
                abs(t1 - t0) / (1.0 + abs(t0)),
                abs(r1 - r0) / (1.0 + abs(r0)),
            )
            roots1 = act.chain_roots(act.chain_blocks(act.kernel_blocks(q)))
            for x in range(4):
                for y in range(4):
                    dist = act.multiset_distance(roots0[x, y], roots1[x, y])
                    worst = max(worst, dist / root_scale)
        c.check(worst <= 1e-9, f"observables drift by {worst:.2e} under gauges")
        c.note(f"worst rel drift {worst:.2e} over 100 transforms")


# ---------------------------------------------------------------------------
# 7. vector-scalar kernels: classification, root products, flat gradient
# ---------------------------------------------------------------------------


def test_continuum_causal_consistency_bulk():
    with criterion(7, "vector-scalar kernel causal consistency", 5.0) as c:
        rng = np.random.default_rng(77)
        mismatches = bad_products = bad_gradients = 0
        n_time = n_space = n_skip = 0
        for _ in range(10000):
            kern = VectorScalarKernel(
                alpha=complex(rng.normal(), rng.normal()),
                beta=complex(rng.normal(), rng.normal()),
                xi=tuple(rng.normal(size=4)),
            )
            ref = classify_separation(kern.xi_vec)
            if ref is CausalClass.UNDETERMINED:
                n_skip += 1
                continue
            roots = chain_root_values(kern)
            got = classify(np.array(roots))
            if got is not ref:
                mismatches += 1
                continue
            if ref is CausalClass.TIMELIKE:
                n_time += 1
                lam_plus, _, lam_minus, _ = roots
                product = (lam_plus * lam_minus).real
                if product < -1e-10 * (1.0 + abs(lam_plus) ** 2):
                    bad_products += 1
            else:
                n_space += 1
                if np.any(kernel_gradient(kern) != 0):
                    bad_gradients += 1
        c.check(mismatches == 0, f"{mismatches} classifications differ from sign(xi.xi)")
        c.check(bad_products == 0, f"{bad_products} timelike root products negative")
        c.check(bad_gradients == 0, f"{bad_gradients} spacelike gradients nonzero")
        c.check(n_skip < 100, f"{n_skip} samples landed on the cone (draw too tight)")
        c.note(f"{n_time} timelike, {n_space} spacelike, {n_skip} skipped on-cone")


# ---------------------------------------------------------------------------
# 8. light-cone coefficient algebra, exact
# ---------------------------------------------------------------------------


def test_lightcone_coefficients_exact():
    with criterion(8, "light-cone coefficient algebra", 1.0) as c:
        C0, C1, C2, _ = C_SYMBOLS
        _, _, _, D3 = D_SYMBOLS
        chain = expansion_product(standard_expansion())

        def zero(expr):
            return sympy.simplify(expr) == 0

        c.check(
            zero(chain.coefficient(slash=0, pole=3) - C0**2),
            "leading scalar pole is not C0^2",
        )
        c.check(
            zero(chain.coefficient(slash=0, pole=2) - (C1**2 + 2 * C0 * C2)),
            "second scalar pole is not C1^2 + 2 C0 C2",
        )
        c.check(
            zero(chain.coefficient(slash=1, pole=3)),
            "xi-slash term at the sixth inverse power fails to cancel",
        )
        c.check(
            zero(chain.coefficient(slash=1, pole=2, theta=1, step=1) - 2 * C0 * D3),
            "vector coefficient is not 2 C0 D3",
        )
        grad = gradient_expansion(chain)
        c.check(
            zero(grad.coefficient(slash=1, pole=2, theta=1, step=1) - 4 * C0 * D3),
            "gradient vector coefficient is not 4 C0 D3",
        )
        # the same identities hold verbatim in rational arithmetic
        numeric = expansion_product(
            standard_expansion(
                {"C0": [1, 2], "C1": [1, 3], "C2": [2, 5], "C3": 0,
                 "D0": 1, "D1": [0, 1], "D2": [3, 7], "D3": [1, 4]}
            )
        )
        c.check(
            numeric.coefficient(slash=0, pole=3) == sympy.Rational(1, 4)
            and numeric.coefficient(slash=0, pole=2) == sympy.Rational(1, 9)
            + sympy.Rational(2, 5)
            and numeric.coefficient(slash=1, pole=2, theta=1, step=1)
            == sympy.Rational(1, 4),
            "rational-instance coefficients are not exact",
        )
        c.note("all queried coefficients exact")


# ---------------------------------------------------------------------------
# 9. two-state lattice landscape: double well with an origin saddle point
# ---------------------------------------------------------------------------


def test_lattice_double_well():
    with criterion(9, "two-state lattice double well", 300.0) as c:
        geom = LatticeGeometry(8, 6)
        state_a = OccupiedState(-1, 1)
        state_b = OccupiedState(-2, 2)
        taus = np.linspace(-2.5, 2.5, 61)
        for preset in sorted(WEIGHT_PRESETS):
            scan = landscape_scan_2d(geom, state_a, state_b, taus, weights=preset)
            origin_local = any(m[0] == 0.0 and m[1] == 0.0 for m in scan.minima)
            origin_global = any(
                m[0] == 0.0 and m[1] == 0.0 for m in scan.global_minima
            )
            c.check(origin_local, f"{preset}: origin is not a local minimum")
            c.check(not origin_global, f"{preset}: origin is the global minimum")
            c.check(
                len(scan.global_minima) == 2,
                f"{preset}: {len(scan.global_minima)} global minima, expected 2",
            )
            if preset == "sphere":  # quantitative boxes under the default weights
                for t1, t2, _ in scan.global_minima:
                    c.check(
                        1.2 <= abs(t1) <= 1.8 and 0.7 <= abs(t2) <= 1.3,
                        f"global minimum at ({t1:.2f}, {t2:.2f}) outside the boxes",
                    )
                sphere_min = scan.global_minima[0][:2]
        c.note(f"default-weight wells at +/-({sphere_min[0]:g}, {sphere_min[1]:g})")


# ---------------------------------------------------------------------------
# 10. spectral support inside the mass cone
# ---------------------------------------------------------------------------


def test_fourier_mass_cone_support():
    with criterion(10, "mass-cone spectral support", 60.0) as c:
        coarse = fourier_support_check(grid_n=256)
        fine = fourier_support_check(grid_n=512)
        c.check(
            coarse["leakage"] <= 1e-2,
            f"leakage {coarse['leakage']:.3e} above 1e-2 at 256^2",
        )
        c.check(
            fine["leakage"] < coarse["leakage"],
            f"leakage fails to decrease: {coarse['leakage']:.3e} -> {fine['leakage']:.3e}",
        )
        c.check(not coarse["edge_warning"], "profile tail flagged at the grid edge")
        c.note(f"leakage {coarse['leakage']:.2e} -> {fine['leakage']:.2e}")


# ---------------------------------------------------------------------------
# 11. counter-term cancellation in the regularized action
# ---------------------------------------------------------------------------


def test_regularized_action_counterterms():
    with criterion(11, "counter-term cancellation", 1.0) as c:
        m3, m5, z_cut = 0.9, 0.4, 30.0
        counters = pure_counterterm_profile(m3, m5, z_cut)

        def profile(z):
            return counters(z) + np.exp(-z)

        value = regularized_action(profile, m3, m5, z_max=z_cut)
        scale = 1.0 + abs(value)
        # direct cutoff values across three decades approach the same number
        spread = []
        for eps in (1e-3, 1e-4, 1e-5):
            with warnings.catch_warnings():
                # split at z = 1 so the quadrature resolves the boundary spike
                warnings.simplefilter("ignore")
                steep, _ = integrate.quad(
                    lambda z: profile(z) * z, eps, 1.0,
                    limit=500, epsabs=1e-12, epsrel=1e-12,
                )
                flat, _ = integrate.quad(
                    lambda z: profile(z) * z, 1.0, z_cut,
                    limit=500, epsabs=1e-12, epsrel=1e-12,
                )
            direct = steep + flat - m3**2 / eps + 2.0 * m3 * m5 * np.log(eps)
            spread.append(abs(direct - value))
        c.check(
            max(spread) <= 1e-6 * scale,
            f"cutoff values drift by {max(spread):.2e} across three decades",
        )
        # closed form for the smooth addition on top of the counter terms
        smooth = 1.0 - (1.0 + z_cut) * np.exp(-z_cut)
        expect = 2.0 * m3 * m5 * np.log(z_cut) - m3**2 / z_cut + smooth
        c.check(
            abs(value - expect) <= 1e-8 * scale,
            f"analytic profile value {value:.12f} != {expect:.12f}",
        )
        # pure power-law profile agrees with its closed form outright
        pure = regularized_action(counters, m3, m5, z_max=z_cut)
        pure_expect = 2.0 * m3 * m5 * np.log(z_cut) - m3**2 / z_cut
        c.check(
            abs(pure - pure_expect) <= 1e-9 * (1.0 + abs(pure_expect)),
            f"power-law value {pure:.12f} != closed form {pure_expect:.12f}",
        )
        c.note(f"eps drift {max(spread):.1e}, oracle gap {abs(pure - pure_expect):.1e}")


# ---------------------------------------------------------------------------
# 12. convolution windows on the lower mass shells
# ---------------------------------------------------------------------------


def test_convolution_shell_windows():
    with criterion(12, "lower-cone convolution windows", 1.0) as c:
        rng = np.random.default_rng(12)
        masses = (1.0, 5.0, 20.0)
        bad = 0
        for _ in range(100):
            big_q = rng.uniform(0.5, 6.0)
            u = rng.uniform(-2.5, 2.5)
            q = np.array([-big_q * np.cosh(u), big_q * np.sinh(u)])
            for shell in convolution_support(q, masses):
                if not (
                    np.isfinite(shell.rapidity_min)
                    and np.isfinite(shell.rapidity_max)
                    and shell.width >= 0.0
                ):
                    bad += 1
                    continue
                span_scale = 1.0 + big_q**2 + shell.mass**2
                center = 0.5 * (shell.rapidity_min + shell.rapidity_max)
                if abs(center - u) > 1e-9:
                    bad += 1
                    continue
                for p in shell.endpoint_vectors():
                    sq = (q[0] - p[0]) ** 2 - (q[1] - p[1]) ** 2
                    if abs(sq) > 1e-9 * span_scale:
                        bad += 1
        c.check(bad == 0, f"{bad} shell windows fail the null-boundary solve")
        outside = [(0.0, 1.0), (2.0, 0.0), (-1.0, 2.0), (1.0, 0.5), (1.0, 1.0)]
        for q_out in outside:
            try:
                convolution_support(q_out, masses)
                c.check(False, f"q = {q_out} outside the lower cone gave windows")
            except Unbounded:
                pass
        c.note("300 windows null-bounded, 5 outside points rejected")

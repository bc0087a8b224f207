import numpy as np
import pytest

from dstlab.continuum.seas import (
    GridCoverage,
    NotRegularizable,
    SeaConfig,
    extended_action,
    mass_constraint,
    pure_counterterm_profile,
    regularized_action,
    state_stability_check,
)


def test_sea_config_validation():
    SeaConfig(masses=(1.0, 5.0, 20.0), weights=(1.0, 1e-4, 9.696e-6))
    with pytest.raises(ValueError):
        SeaConfig(masses=(1.0, 1.0), weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        SeaConfig(masses=(2.0, 1.0), weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        SeaConfig(masses=(1.0,), weights=(-1.0,))
    with pytest.raises(ValueError):
        SeaConfig(masses=(1.0, 2.0), weights=(1.0,))
    with pytest.raises(ValueError):
        SeaConfig(masses=(), weights=())


def test_mass_constraint_reference_point():
    seas = SeaConfig(masses=(1.0, 5.0, 20.0), weights=(1.0, 1e-4, 9.696e-6))
    value = mass_constraint(seas)
    expect = 1.0 + 5.0 * (1e-4) ** 3 + 20.0 * (9.696e-6) ** 3
    assert value == pytest.approx(expect, rel=0, abs=1e-16)
    assert abs(value - 1.000000000005) < 1e-13


def test_regularized_action_closed_form():
    m3, m5, z_cut = 0.7, 0.3, 50.0
    profile = pure_counterterm_profile(m3, m5, z_cut)
    value = regularized_action(profile, m3, m5, z_max=z_cut)
    expect = 2.0 * m3 * m5 * np.log(z_cut) - m3**2 / z_cut
    assert value == pytest.approx(expect, abs=1e-10)
    # counter terms cancel every power of eps: any sequence gives the same value
    again = regularized_action(
        profile, m3, m5, z_max=z_cut, eps_sequence=(1e-3, 1e-4, 1e-5)
    )
    assert again == pytest.approx(expect, abs=1e-10)


def test_regularized_action_plain_integral():
    # no counter terms needed: S is the plain integral of L z
    value = regularized_action(lambda z: 2.5 * np.exp(-z), 0.0, 0.0)
    assert value == pytest.approx(2.5, abs=1e-9)


def test_regularized_action_with_smooth_addition():
    m3, m5, z_cut = 0.9, 0.4, 30.0
    counters = pure_counterterm_profile(m3, m5, z_cut)

    def profile(z):
        return counters(z) + np.exp(-z)

    value = regularized_action(profile, m3, m5, z_max=z_cut)
    smooth_part = 1.0 - (1.0 + z_cut) * np.exp(-z_cut)
    expect = 2.0 * m3 * m5 * np.log(z_cut) - m3**2 / z_cut + smooth_part
    assert value == pytest.approx(expect, abs=1e-8)


def test_not_regularizable_tail():
    m3, m5 = 0.7, 0.3

    def profile(z):
        return m3**2 / z**3 + (2.0 * m3 * m5 + 0.3) / z**2

    with pytest.raises(NotRegularizable):
        regularized_action(lambda z: np.where(z <= 10.0, profile(z), 0.0), m3, m5, z_max=10.0)


def test_extended_action_terms():
    seas = SeaConfig(masses=(2.0,), weights=(3.0,))
    base = 1.25
    assert extended_action(base, 0.1, 0.2, None, 0.0, 0.0, seas) == base
    assert extended_action(base, 0.1, 0.2, None, 1.0, 0.0, seas) == base + 48.0
    assert extended_action(base, 0.1, 0.2, None, 0.0, 2.0, seas) == base + 192.0
    with_f = extended_action(base, 0.5, 0.25, lambda a, b: a * b, 0.0, 0.0, seas)
    assert with_f == pytest.approx(base + 0.125)


def test_stability_flat_is_stable():
    qsq = np.linspace(0.5, 9.0, 120)
    verdict = state_stability_check(
        qsq, np.zeros_like(qsq), np.full_like(qsq, 2.3), masses=[1.0, 2.5]
    )
    assert verdict["stable"]
    assert verdict["infimum"] == pytest.approx(2.3)
    assert not verdict["violations"]


def test_stability_quartic_well():
    qsq = np.round(np.arange(0.5, 5.01, 0.1), 10)
    a = np.ones_like(qsq)
    b = (qsq - 1.0) ** 2
    stable = state_stability_check(qsq, a, b, masses=[1.0])
    assert stable["stable"]
    unstable = state_stability_check(qsq, a, b, masses=[1.0, 2.0])
    assert not unstable["stable"]
    kinds = {v["kind"] for v in unstable["violations"]}
    assert kinds == {"not_minimal"}
    (violation,) = unstable["violations"]
    assert violation["mass"] == pytest.approx(2.0)


def test_stability_negative_a():
    qsq = np.linspace(0.5, 4.0, 50)
    a = np.zeros_like(qsq)
    a[17] = -0.1
    verdict = state_stability_check(qsq, a, np.zeros_like(qsq), masses=[1.0])
    assert not verdict["stable"]
    assert verdict["violations"][0]["kind"] == "negative_a"
    assert verdict["violations"][0]["value"] == pytest.approx(-0.1)


def test_stability_interpolates_between_cells():
    qsq = np.round(np.arange(0.5, 5.01, 0.1), 10)
    b = (qsq - 1.05) ** 2
    verdict = state_stability_check(qsq, np.zeros_like(qsq), b, masses=[np.sqrt(1.05)])
    assert verdict["stable"]


def test_stability_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        state_stability_check([], [], [], masses=[1.0])


def test_grid_coverage_error():
    qsq = np.linspace(0.5, 4.0, 50)
    with pytest.raises(GridCoverage):
        state_stability_check(
            qsq, np.zeros_like(qsq), np.zeros_like(qsq), masses=[3.0]
        )
    with pytest.raises(ValueError):
        state_stability_check(qsq[::-1], np.zeros_like(qsq), np.zeros_like(qsq), [1.0])


@pytest.mark.parametrize("where", ["qsq", "a", "b", "masses", "tol"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_stability_rejects_a_non_finite_input(where, bad):
    inputs = {"qsq": np.linspace(0.5, 4.0, 8), "a": np.zeros(8), "b": np.ones(8),
              "masses": [1.0, 1.5], "tol": 1e-9}
    if where == "tol":
        inputs["tol"] = bad
    else:
        inputs[where] = np.array(inputs[where], dtype=float)
        inputs[where][1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        state_stability_check(**inputs)

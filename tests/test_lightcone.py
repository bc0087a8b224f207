import sympy

from dstlab.continuum.lightcone import (
    C_SYMBOLS,
    D_SYMBOLS,
    Expansion,
    Term,
    UnimplementedProduct,
    expansion_product,
    gradient_expansion,
    standard_expansion,
)

import pytest

C0, C1, C2, C3 = C_SYMBOLS
D0, D1, D2, D3 = D_SYMBOLS


def _is_zero(expr):
    return sympy.simplify(expr) == 0


def test_standard_product_scalar_coefficients():
    chain = expansion_product(standard_expansion())
    assert _is_zero(chain.coefficient(slash=0, pole=3) - C0**2)
    assert _is_zero(chain.coefficient(slash=0, pole=2) - (C1**2 + 2 * C0 * C2))


def test_no_vector_term_at_sixth_power():
    chain = expansion_product(standard_expansion())
    assert _is_zero(chain.coefficient(slash=1, pole=3))
    # the cancellation survives with explicitly distinct numerics too
    numeric = expansion_product(
        standard_expansion({"C0": [2, 3], "C1": [5, 7]})
    )
    assert _is_zero(numeric.coefficient(slash=1, pole=3))


def test_vector_term_and_gradient_doubling():
    chain = expansion_product(standard_expansion())
    vec = chain.coefficient(slash=1, pole=2, theta=1, step=1)
    assert _is_zero(vec - 2 * C0 * D3)
    grad = gradient_expansion(chain)
    assert _is_zero(grad.coefficient(slash=1, pole=2, theta=1, step=1) - 4 * C0 * D3)
    # the trace-free part keeps nothing scalar
    assert not grad.scalar_part().terms


def test_scalar_coefficients_are_real():
    chain = expansion_product(standard_expansion())
    for term in chain.terms:
        assert _is_zero(term.coeff - term.coeff.conjugate())


def test_only_leading_constant():
    zeros = {name: 0 for name in ("C1", "C2", "C3", "D0", "D1", "D2", "D3")}
    chain = expansion_product(standard_expansion(zeros))
    assert len(chain.terms) == 1
    only = chain.terms[0]
    assert only.structure_key() == (0, 3, 0, 0, None, 0)
    assert _is_zero(only.coeff - C0**2)


def test_truncation_marker():
    chain = expansion_product(standard_expansion())
    assert chain.tail_degree == -2
    assert all(t.degree <= -3 for t in chain.terms)
    # the C2^2 / xi^2 cross term lies beyond the reliable range
    assert _is_zero(chain.coefficient(slash=0, pole=1))


def test_conjugation_involution_and_rule():
    p = standard_expansion()
    back = p.conjugate().conjugate()
    for term, orig in zip(back.terms, p.terms):
        assert _is_zero(term.coeff - orig.coeff)
    conj = p.conjugate()
    assert _is_zero(conj.coefficient(slash=1, pole=2) + sympy.I * C0)


def test_unrepresentable_product_raises():
    logs = Expansion((Term(C3, pole=2, log=1),), tail_degree=5)
    with pytest.raises(UnimplementedProduct):
        expansion_product(logs, logs)


def test_zero_denominator_is_rejected():
    with pytest.raises(ValueError, match="C1 has denominator 0"):
        standard_expansion({"C0": [1, 2], "C1": [3, 0]})


def test_rational_serialization_round_trip():
    values = {
        "C0": [1, 2],
        "C1": [1, 3],
        "C2": [2, 5],
        "C3": [1, 7],
        "D0": [1, 2],
        "D1": [3, 4],
        "D2": [1, 5],
        "D3": [5, 6],
    }
    chain = expansion_product(standard_expansion(values))
    text = chain.to_json()
    back = Expansion.from_json(text)
    assert back.tail_degree == chain.tail_degree
    assert back.coefficient(slash=0, pole=3) == sympy.Rational(1, 4)
    expect_four = sympy.Rational(1, 9) + 2 * sympy.Rational(1, 2) * sympy.Rational(2, 5)
    assert back.coefficient(slash=0, pole=2) == expect_four
    assert back.coefficient(slash=1, pole=2, theta=1, step=1) == sympy.Rational(5, 6)


def test_symbolic_expansion_rejects_serialization():
    with pytest.raises(ValueError):
        standard_expansion().to_json()


def test_text_rendering_mentions_tail():
    text = expansion_product(standard_expansion()).as_text()
    assert "weaker terms of degree >= -2" in text
    assert "slash(xi)" in text

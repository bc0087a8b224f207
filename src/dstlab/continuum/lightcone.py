"""Exact coefficient algebra for kernels expanded around the light cone.

A kernel between nearby Minkowski points is a finite list of terms

    coeff * slash(xi)^s * (1/xi^2)^p * log(xi^2)^l * Theta(xi^2)^t
          * delta^(k)(xi^2) * eps(xi0)^e

with exact (sympy) coefficients, plus an implicit tail of strictly weaker
terms starting at ``tail_degree``.  The degree grades singularity on the
cone: slash(xi) counts +1, each 1/xi^2 counts -2, delta(xi^2) counts -2 and
its derivative -4, while log, Theta and eps count 0.

The reference kernel carries real constants C0..C3 (smooth sector) and
D0..D3 (odd sector, multiplied by eps(xi0)):

    i C0 slash/xi^4 + C1/xi^2 + i C2 slash/xi^2 + C3 log(xi^2)
    + eps(xi0) [D0 slash delta'(xi^2) + i D1 delta(xi^2)
                + D2 slash delta(xi^2) + i D3 Theta(xi^2)] + tail.

Products are taken away from the cone: delta terms drop, slash*slash
contracts to xi^2, eps^2 = 1, Theta^2 = Theta, and everything weaker than
the worst cross term with either factor's tail is truncated into the
result's tail marker.  Nothing is discarded silently: structure outside the
basis (cone-supported products, powers of logs) raises UnimplementedProduct.
"""

import json
import numbers
from dataclasses import dataclass, replace

import sympy

C_SYMBOLS = sympy.symbols("C0 C1 C2 C3", real=True)
D_SYMBOLS = sympy.symbols("D0 D1 D2 D3", real=True)


class UnimplementedProduct(ValueError):
    """The product leaves the representable term basis."""


@dataclass(frozen=True)
class Term:
    coeff: object
    slash: int = 0
    pole: int = 0
    log: int = 0
    theta: int = 0
    delta: object = None  # None, or derivative order of delta(xi^2)
    step: int = 0  # eps(xi0) factor

    def __post_init__(self):
        object.__setattr__(self, "coeff", sympy.sympify(self.coeff))
        if self.slash not in (0, 1):
            raise ValueError("slash factor must be 0 or 1")
        if self.log not in (0, 1):
            raise ValueError("log factor must be 0 or 1")

    @property
    def degree(self):
        d = self.slash - 2 * self.pole
        if self.delta is not None:
            d -= 2 * (1 + self.delta)
        return d

    @property
    def cone_supported(self):
        return self.delta is not None

    def structure_key(self):
        return (self.slash, self.pole, self.log, self.theta, self.delta, self.step)

    def conjugate(self):
        """Spin adjoint: coefficients conjugate, every structure factor is real."""
        return replace(self, coeff=self.coeff.conjugate())

    def as_text(self):
        parts = [f"({sympy.sstr(self.coeff)})"]
        if self.slash:
            parts.append("slash(xi)")
        if self.pole > 0:
            parts.append(f"(xi^2)^-{self.pole}" if self.pole > 1 else "(xi^2)^-1")
        elif self.pole < 0:
            parts.append(f"(xi^2)^{-self.pole}")
        if self.log:
            parts.append("log(xi^2)")
        if self.theta:
            parts.append("Theta(xi^2)")
        if self.delta is not None:
            parts.append("delta" + "'" * self.delta + "(xi^2)")
        if self.step:
            parts.append("eps(xi0)")
        return " * ".join(parts)


def _rational_pair(expr):
    expr = sympy.nsimplify(expr, rational=True)
    if not expr.is_Rational:
        raise ValueError(f"coefficient part {expr} is not an exact rational")
    return [int(expr.p), int(expr.q)]


@dataclass(frozen=True)
class Expansion:
    """Finite term list plus a tail of terms with degree >= tail_degree."""

    terms: tuple
    tail_degree: int

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def min_degree(self):
        if not self.terms:
            return self.tail_degree
        return min(t.degree for t in self.terms)

    def conjugate(self):
        return Expansion(
            tuple(t.conjugate() for t in self.terms), tail_degree=self.tail_degree
        )

    def drop_cone_supported(self):
        return Expansion(
            tuple(t for t in self.terms if not t.cone_supported),
            tail_degree=self.tail_degree,
        )

    def coefficient(self, slash=0, pole=0, log=0, theta=0, delta=None, step=0):
        """Exact coefficient of the requested basis element (0 if absent)."""
        key = (slash, pole, log, theta, delta, step)
        total = sympy.Integer(0)
        for t in self.terms:
            if t.structure_key() == key:
                total += t.coeff
        return sympy.simplify(sympy.expand(total))

    def vector_part(self):
        return Expansion(
            tuple(t for t in self.terms if t.slash == 1), tail_degree=self.tail_degree
        )

    def scalar_part(self):
        return Expansion(
            tuple(t for t in self.terms if t.slash == 0), tail_degree=self.tail_degree
        )

    def substitute(self, values):
        subs = _symbol_substitutions(values)
        return Expansion(
            tuple(replace(t, coeff=t.coeff.subs(subs)) for t in self.terms),
            tail_degree=self.tail_degree,
        )

    def as_text(self):
        lines = [t.as_text() for t in sorted(self.terms, key=lambda t: t.degree)]
        lines.append(f"+ weaker terms of degree >= {self.tail_degree}")
        return "\n".join(lines)

    def to_json(self):
        """Serialize a fully numeric expansion with exact rational pairs."""
        records = []
        for t in sorted(self.terms, key=lambda t: (t.degree, t.structure_key())):
            re_part, im_part = t.coeff.as_real_imag()
            records.append(
                {
                    "re": _rational_pair(re_part),
                    "im": _rational_pair(im_part),
                    "slash": t.slash,
                    "pole": t.pole,
                    "log": t.log,
                    "theta": t.theta,
                    "delta": t.delta,
                    "step": t.step,
                }
            )
        return json.dumps(
            {"tail_degree": self.tail_degree, "terms": records}, indent=2
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        terms = []
        for rec in data["terms"]:
            coeff = sympy.Rational(*rec["re"]) + sympy.I * sympy.Rational(*rec["im"])
            terms.append(
                Term(
                    coeff,
                    slash=rec["slash"],
                    pole=rec["pole"],
                    log=rec["log"],
                    theta=rec["theta"],
                    delta=rec["delta"],
                    step=rec["step"],
                )
            )
        return cls(tuple(terms), tail_degree=data["tail_degree"])


def _symbol_substitutions(values):
    lookup = {s.name: s for s in (*C_SYMBOLS, *D_SYMBOLS)}
    subs = {}
    for name, value in values.items():
        if name not in lookup:
            raise ValueError(f"unknown coefficient name {name!r}")
        if isinstance(value, (list, tuple)):
            if len(value) != 2 or not all(
                isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in value
            ):
                raise ValueError(
                    f"coefficient {name} needs a [numerator, denominator] pair of "
                    f"integers, got {value!r}"
                )
            if value[1] == 0:
                raise ValueError(f"coefficient {name} has denominator 0")
            value = sympy.Rational(int(value[0]), int(value[1]))
        else:
            value = sympy.nsimplify(value, rational=True)
        subs[lookup[name]] = value
    return subs


def standard_expansion(values=None):
    """The reference kernel expansion in the C/D constants.

    ``values`` optionally maps names like "C0" to exact numbers (ints,
    Rationals, or [numerator, denominator] pairs); unnamed constants stay
    symbolic.
    """
    c0, c1, c2, c3 = C_SYMBOLS
    d0, d1, d2, d3 = D_SYMBOLS
    terms = (
        Term(sympy.I * c0, slash=1, pole=2),
        Term(c1, pole=1),
        Term(sympy.I * c2, slash=1, pole=1),
        Term(c3, log=1),
        Term(d0, slash=1, delta=1, step=1),
        Term(sympy.I * d1, delta=0, step=1),
        Term(d2, slash=1, delta=0, step=1),
        Term(sympy.I * d3, theta=1, step=1),
    )
    expansion = Expansion(terms, tail_degree=1)
    if values:
        expansion = expansion.substitute(values)
    return expansion


def _combine(t1, t2):
    slash = t1.slash + t2.slash
    pole = t1.pole + t2.pole
    if slash == 2:  # slash(xi)^2 = xi^2
        slash = 0
        pole -= 1
    return Term(
        sympy.expand(t1.coeff * t2.coeff),
        slash=slash,
        pole=pole,
        log=t1.log + t2.log,
        theta=max(t1.theta, t2.theta),
        delta=None,
        step=(t1.step + t2.step) % 2,
    )


def expansion_product(left, right=None):
    """Pointwise product away from the light cone, with explicit truncation.

    With one argument, forms the closed chain left * conjugate(left).
    Cone-supported (delta) terms of either factor vanish away from the cone
    and are dropped before multiplying; their products with each other are
    ill-defined and never silently formed.  The result keeps every term
    strictly stronger than the weakest reliable degree -- one factor's tail
    times the other factor's strongest term -- and pushes the rest into the
    tail marker.
    """
    if right is None:
        right = left.conjugate()
    left_s = left.drop_cone_supported()
    right_s = right.drop_cone_supported()
    if not left_s.terms or not right_s.terms:
        return Expansion((), tail_degree=min(left.tail_degree, right.tail_degree))
    cutoff = (
        min(
            left.tail_degree + right_s.min_degree(),
            right.tail_degree + left_s.min_degree(),
        )
        - 1
    )
    merged = {}
    for t1 in left_s.terms:
        for t2 in right_s.terms:
            if t1.log + t2.log > 1:
                # log^2 is outside the basis; representable only if truncated.
                if (t1.degree + t2.degree) <= cutoff:
                    raise UnimplementedProduct(
                        "product of logarithmic terms inside the reliable range"
                    )
                continue
            combined = _combine(t1, t2)
            if combined.degree > cutoff:
                continue
            key = combined.structure_key()
            if key in merged:
                merged[key] = replace(
                    merged[key], coeff=sympy.expand(merged[key].coeff + combined.coeff)
                )
            else:
                merged[key] = combined
    terms = tuple(
        replace(t, coeff=sympy.simplify(t.coeff))
        for t in merged.values()
        if sympy.simplify(t.coeff) != 0
    )
    return Expansion(terms, tail_degree=cutoff + 1)


def gradient_expansion(chain):
    """Action gradient of a closed-chain expansion on the timelike region.

    The chain is scalar + vector in the spin algebra; twice-it-minus-half-
    its-trace kills every scalar term and doubles every slash term.
    """
    doubled = tuple(
        replace(t, coeff=sympy.expand(2 * t.coeff)) for t in chain.vector_part().terms
    )
    return Expansion(doubled, tail_degree=chain.tail_degree)

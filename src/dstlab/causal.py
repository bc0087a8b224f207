"""Emergent causal structure read off from closed-chain spectra.

A pair of points is called *timelike* separated when every root of its closed
chain is real, and *spacelike* separated when the roots come in complex
conjugate pairs that all share one modulus.  Chains that satisfy neither test
at the working tolerance are *undetermined* (root patterns such as conjugate
pairs of different moduli occur away from minimizers).  The tests are applied
in that order, so an all-real equal-modulus spectrum counts as timelike and
the classification is deterministic.

Tolerances scale with the spectrum: the threshold is
``tol.causal * (1 + max |lam|)`` for both the imaginary parts and the modulus
spread.
"""

import enum
import json

import numpy as np

from .action import _pass_of, multiset_distance
from .tolerances import DEFAULT

__all__ = ["CausalClass", "classify", "CausalGraph", "causal_graph"]


class CausalClass(enum.Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    UNDETERMINED = "undetermined"

    def short(self):
        return {"timelike": "t", "spacelike": "s", "undetermined": "u"}[self.value]


def classify(roots, tol=DEFAULT):
    """Causal class of a root multiset (the roots of one closed chain)."""
    lam = np.asarray(roots, dtype=complex).ravel()
    if lam.size == 0:
        raise ValueError("cannot classify an empty root multiset")
    tau = tol.causal * (1.0 + float(np.max(np.abs(lam))))
    if np.max(np.abs(lam.imag)) <= tau:
        return CausalClass.TIMELIKE
    mod = np.abs(lam)
    paired = multiset_distance(lam, np.conj(lam)) <= tau
    if paired and (mod.max() - mod.min()) <= tau:
        return CausalClass.SPACELIKE
    return CausalClass.UNDETERMINED


class CausalGraph:
    """Pairwise causal classes of a discrete space-time, m x m and symmetric."""

    def __init__(self, classes):
        classes = np.asarray(classes, dtype=object)
        if classes.ndim != 2 or classes.shape[0] != classes.shape[1]:
            raise ValueError("classes must be a square matrix")
        self.classes = classes
        self.m = classes.shape[0]

    def __getitem__(self, xy):
        return self.classes[xy]

    def is_symmetric(self):
        return all(
            self.classes[x, y] is self.classes[y, x]
            for x in range(self.m)
            for y in range(x + 1, self.m)
        )

    def counts(self):
        """Unordered-pair counts per class (diagonal counted once)."""
        out = {c: 0 for c in CausalClass}
        for x in range(self.m):
            for y in range(x, self.m):
                out[self.classes[x, y]] += 1
        return out

    def off_diagonal_class(self):
        """The common class of all x != y pairs, or None if mixed."""
        vals = {self.classes[x, y] for x in range(self.m) for y in range(self.m) if x != y}
        return vals.pop() if len(vals) == 1 else None

    def to_json(self):
        """Adjacency-list JSON: per point, the neighbors by class."""
        adj = []
        for x in range(self.m):
            entry = {c.value: [] for c in CausalClass}
            for y in range(self.m):
                entry[self.classes[x, y].value].append(y)
            adj.append(entry)
        return json.dumps({"m": self.m, "adjacency": adj})

    def to_edge_list(self):
        """DIMACS-like edge list over unordered pairs, classes as t/s/u."""
        lines = [f"p causal {self.m} {self.m * (self.m + 1) // 2}"]
        for x in range(self.m):
            for y in range(x, self.m):
                lines.append(f"e {x} {y} {self.classes[x, y].short()}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        m = int(data["m"])
        classes = np.empty((m, m), dtype=object)
        for x, entry in enumerate(data["adjacency"]):
            for name, ys in entry.items():
                for y in ys:
                    classes[x, y] = CausalClass(name)
        return cls(classes)


def causal_graph(projector):
    """Classify every point pair of a fermionic projector at its tolerances.

    ``projector`` may be its :class:`~dstlab.action.ChainPass`, whose roots
    are then reused.  The chain roots for (x,y) and (y,x) agree, so the graph
    is symmetric by construction; classification runs on the upper triangle
    and mirrors.
    """
    chains = _pass_of(projector)
    m = chains.space.m
    classes = np.empty((m, m), dtype=object)
    for x in range(m):
        for y in range(x, m):
            c = classify(chains.roots[x, y], tol=chains.tol)
            classes[x, y] = c
            classes[y, x] = c
    return CausalGraph(classes)

"""Causal structure read off from chain spectra.

A pair of points is timelike separated when its closed chain has real
roots, spacelike when the roots form conjugate pairs of equal modulus.
The demo classifies every pair of a random system, then follows the
three-point family across its transition where minimizers trade all-real
spectra for conjugate pairs.

Run:  python3 demos/causal_structure.py
"""

from dstlab import DiscreteSpacetime, random_projector
from dstlab.causal import causal_graph
from dstlab.correlation import TRIANGLE_CAUSAL_THRESHOLD, triangle_projector


def show_graph(proj, title):
    g = causal_graph(proj)
    print(title)
    for x in range(g.m):
        row = " ".join(f"{g[x, y].name[:5].lower():<6}" for y in range(g.m))
        print(f"  x={x}: {row}")
    counts = {k.name.lower(): v for k, v in g.counts().items() if v}
    print(f"  unordered-pair counts: {counts}\n")


def main():
    sp = DiscreteSpacetime(1, 5)
    show_graph(random_projector(sp, 2, seed=11), "random two-particle system on 5 points")

    threshold = TRIANGLE_CAUSAL_THRESHOLD
    for v, side in [(threshold - 0.02, "below"), (threshold + 0.02, "above")]:
        show_graph(
            triangle_projector(v),
            f"three-point family at v = {v:.4f} ({side} the transition)",
        )


if __name__ == "__main__":
    main()

"""Sweep the modulus-of-convexity estimator across spaces and compare with
the known closed forms.

    python scripts/modulus_sweep.py [--budget N]
"""

import argparse

from busemann.convexity import modulus_estimate
from busemann.mapspace import banach_lp_modulus, hilbert_modulus
from busemann.oracles import euclidean_modulus_1d
from busemann.spaces import Euclidean, LpVector, star_tree


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    tree = star_tree(3)
    rows = [
        ("euclidean(1)", Euclidean(1), (0.0,), euclidean_modulus_1d),
        ("euclidean(2)", Euclidean(2), (0.0, 0.0), hilbert_modulus),
        ("euclidean(5)", Euclidean(5), (0.0,) * 5, hilbert_modulus),
        ("lp(3, p=3)", LpVector(3, 3.0), (0.0,) * 3, lambda e: banach_lp_modulus(3.0, e)),
        ("star tree", tree, tree.vertex_point("c"), lambda e: e / 2.0),
    ]
    print(f"{'space':14s} {'eps':>5s} {'estimate':>12s} {'reference':>12s} {'rel gap':>10s}")
    for name, space, x, ref in rows:
        for eps in (0.25, 0.5, 1.0, 1.5):
            est = modulus_estimate(space, x, eps, 1.0, budget=args.budget, seed=args.seed)
            r = ref(eps)
            print(f"{name:14s} {eps:5.2f} {est.value:12.8f} {r:12.8f} {abs(est.value - r) / r:10.2e}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Recovery experiment: sample ground-truth conformal boosts, hand the pairs
to the verifier as an unknown black box, and tabulate how well (alpha, L, a)
come back -- across several choices of the invariant speed.

Usage: python scripts/recovery_experiment.py [--trials 5] [--seed 0]
"""

import argparse

import numpy as np

from lightcone import GenerateConfig, make_samples, recover_lorentz
from lightcone.minkowski import _balanced

SPEEDS = (0.1, 1.0, 343.0, 2.99792458e8)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=5, help="trials per speed")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'c':>12} {'v/c':>8} {'alpha':>7} | {'residual':>10} "
          f"{'d_alpha':>10} {'d_L (rel)':>10} {'d_a (rel)':>10} verdict")
    for c in SPEEDS:
        for trial in range(args.trials):
            cfg = GenerateConfig(
                kind="lorentz",
                c=c,
                v=float(rng.uniform(-0.9, 0.9)) * c,
                alpha=float(rng.uniform(0.5, 3.0)),
                seed=args.seed * 1000 + trial,
            )
            samples, truth = make_samples(cfg)
            rep = recover_lorentz(samples)
            if rep.recovered is None:
                print(f"{c:12.4g} {cfg.v / c:8.3f} {cfg.alpha:7.3f} | "
                      f"{rep.max_residual:10.2e} {'-':>10} {'-':>10} {'-':>10} "
                      f"REFUSED ({rep.failure})")
                continue
            L_true = np.array(truth["L"])
            a_true = np.array(truth["a"])
            d_alpha = abs(rep.recovered.alpha - truth["alpha"])
            # compare in the metric-balanced frame D L D^-1, D = diag(1, ..., 1, c),
            # where boost entries are O(gamma) at every c
            Lb_true, Lb = (_balanced(L, c) for L in (L_true, rep.recovered.L))
            d_L = float(np.max(np.abs(Lb - Lb_true) / np.maximum(1, np.abs(Lb_true))))
            d_a = float(np.max(np.abs(rep.recovered.a - a_true) / np.maximum(1, np.abs(a_true))))
            print(f"{c:12.4g} {cfg.v / c:8.3f} {cfg.alpha:7.3f} | "
                  f"{rep.max_residual:10.2e} {d_alpha:10.2e} {d_L:10.2e} {d_a:10.2e} ok")

    print("\nnegative controls (should all be refused):")
    for kind in ("cubing", "shear"):
        samples, _ = make_samples(GenerateConfig(kind=kind, seed=args.seed))
        rep = recover_lorentz(samples)
        verdict = "REFUSED" if rep.recovered is None else "FALSELY ACCEPTED"
        print(f"  {kind:8s}: violations={rep.total_violations:4d} "
              f"residual={rep.max_residual:9.2e} {verdict}")


if __name__ == "__main__":
    main()

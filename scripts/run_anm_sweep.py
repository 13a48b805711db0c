#!/usr/bin/env python3
"""ANM direction inference over many seeds of the anm-nonlinear scenario
(Y = X^3 + X + U(-a, a), X ~ U(-1, 1)), at two noise half-widths a:
verdict counts and the 10 % quantile of the forward p-value."""

import argparse
import dataclasses

import numpy as np

from causelab.discovery import DiscoveryConfig, anm_direction
from causelab.scenarios import get_scenario
from causelab.scm import UniformNoise


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=40, help="seeds 1..N")
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--perms", type=int, default=200)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--noise", type=float, nargs="+", default=[0.2, 0.5])
    args = parser.parse_args()

    scenario = get_scenario("anm-nonlinear")
    print(f"seeds=1..{args.seeds} n={args.n} perms={args.perms} alpha={args.alpha}")
    print(f"{'noise':>6} {'forward':>8} {'backward':>9} {'undecided':>10} {'p_fwd q10':>10}")
    for a in args.noise:
        noises = {**scenario.scm.noises, "Y": UniformNoise(-a, a)}
        noisy = dataclasses.replace(scenario, scm=dataclasses.replace(scenario.scm, noises=noises))
        counts = {"forward": 0, "backward": 0, "undecided": 0}
        p_fwd = []
        for seed in range(1, args.seeds + 1):
            data, _ = noisy.generate(args.n, seed)
            cfg = DiscoveryConfig(alpha=args.alpha, perms=args.perms, seed=seed)
            verdict = anm_direction(data, "X", "Y", cfg)
            counts[verdict.direction] += 1
            p_fwd.append(verdict.p_forward)
        q10 = float(np.quantile(p_fwd, 0.1))
        print(f"{a:>6.2f} {counts['forward']:>8} {counts['backward']:>9} "
              f"{counts['undecided']:>10} {q10:>10.3f}")


if __name__ == "__main__":
    main()

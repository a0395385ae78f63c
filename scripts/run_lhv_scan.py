#!/usr/bin/env python3
"""Stress the classical bound with random hidden-variable strategies.

Samples calibrated strategies (optionally with locally invasive first
measurements), estimates each strategy's mean correlator, and reports the
largest value seen together with the enumerated exact extrema.  Everything
stays inside [-2, 2]; the quantum weak regime does not.
"""

import argparse
import sys

import numpy as np

from blgi import brute_force_max, brute_force_min, lhv_mean, random_strategy
from blgi.protocol import NumericalError, substream_rng


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--strategies", type=int, default=2000)
    parser.add_argument("--shots", type=int, default=20_000)
    parser.add_argument("--hidden-states", type=int, default=4)
    parser.add_argument("--noise-sigma", type=float, default=1.0)
    parser.add_argument("--invasiveness", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    if args.strategies < 1:
        print(f"error: --strategies: expected a positive count, got {args.strategies}", file=sys.stderr)
        return 2

    largest = -np.inf
    smallest = np.inf
    violations = 0
    for index in range(args.strategies):
        rng = substream_rng(args.seed, index)
        try:
            strategy = random_strategy(
                args.hidden_states, rng,
                noise_sigma=args.noise_sigma,
                max_invasiveness=args.invasiveness,
            )
            strategy.validate()
            estimate = lhv_mean(strategy, args.shots, rng)
        except (ValueError, MemoryError) as exc:
            # a bare MemoryError has no message
            print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return 2
        except NumericalError as exc:
            print(f"numerical error: {exc}", file=sys.stderr)
            return 3
        largest = max(largest, estimate.mean)
        smallest = min(smallest, estimate.mean)
        if abs(estimate.mean) > 2.0 + 4.0 * estimate.stderr:
            violations += 1

    print(f"strategies checked: {args.strategies} x {args.shots} shots")
    print(f"largest mean seen:  {largest:+.4f}")
    print(f"smallest mean seen: {smallest:+.4f}")
    print(f"enumerated extrema: [{brute_force_min(args.hidden_states)}, "
          f"{brute_force_max(args.hidden_states)}]")
    print(f"bound violations:   {violations}")
    return 0 if violations == 0 else 4


if __name__ == "__main__":
    sys.exit(main())

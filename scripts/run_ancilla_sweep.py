#!/usr/bin/env python3
"""Generate the ancilla-meter correlator curves.

Sweeps the total visibility of the ancilla coupling for each (u, v)
combination.  Weak coupling (small visibility) drives the mean toward
2*sqrt(2); the readout visibility u rescales the horizontal axis while v
caps the attainable maximum, exactly as for the pointer meter.
"""

import argparse
import sys
from pathlib import Path

from blgi.cli import main as blgi_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out/ancilla", type=Path)
    parser.add_argument("--shots", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--threads", type=int, default=None, help="worker cap (default: blgi's, every usable CPU)")
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for u in (0.8, 1.0):
        for v in (0.8, 1.0):
            # visibility grid stays below u; the last point is the
            # strongest measurement the readout chain allows
            fractions = [0.001, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.999]
            values = ",".join(str(round(f * u, 6)) for f in fractions)
            out = args.outdir / f"correlator_vs_visibility_u{u}_v{v}.csv"
            code = blgi_main([
                "sweep", "--meter", "ancilla", "--v-total", str(0.5 * u), "--u", str(u),
                "--v", str(v), "--axis", "v_total", "--values", values,
                "--shots", str(args.shots), "--seed", str(args.seed),
                "--out", str(out), "--manifest", str(out.with_suffix(".manifest.json")),
                *([] if args.threads is None else ["--threads", str(args.threads)]),
            ])
            if code != 0:
                return code
            print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

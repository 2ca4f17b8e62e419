"""Emit the CSV data series behind the four standard detection curves.

Writes one CSV per family into --outdir and prints the noise threshold
for the four-qubit family, exiting with that solve's exit code.
Plotting is left to external tools.
"""
import argparse
import os
import sys

from remoments.cli import _parse_grid, sweep_rows, write_sweep_csv
from remoments.realign import RealignSpec
from remoments.states import RHO_D_MAX, RHO_D_MIN

SPLIT = RealignSpec.parse("1|2")
SERIES = [
    # (filename, family, range spec, request: the criterion, its weight and split)
    ("rho_d_v1.csv", "rho_d", f"{RHO_D_MIN + 1e-6}:{RHO_D_MAX - 1e-6}:0.002", ("v1", 2.0)),
    ("rho_pq_v1.csv", "rho_pq", "0:0.5:0.005", ("v1", 0.2)),
    ("ghz_w_v2.csv", "ghz_w", "0:1:0.01", ("v2", 5.0, SPLIT)),
    ("noisy_ghz4_v3.csv", "noisy_ghz4", "0:1:0.01", ("v3", 0.01, SPLIT)),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figure_data")
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    for filename, family, range_spec, request in SERIES:
        rows = sweep_rows(family, _parse_grid(range_spec), *request)
        path = os.path.join(args.outdir, filename)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_sweep_csv(fh, rows)
        detected = sum(r.outcome == "ENTANGLED" for r in rows)
        print(f"{path}: {len(rows)} rows, {detected} detected")

    # detection boundary of the noisy four-qubit family under v3
    from remoments.cli import main as cli_main

    print("noisy_ghz4 v3 threshold: ", end="")
    return cli_main(
        [
            "threshold", "--family", "noisy_ghz4", "--bracket", "0:1",
            "--criterion", "v3", "--v", "0.01", "--split", "1|2",
        ]
    )


if __name__ == "__main__":
    sys.exit(main())

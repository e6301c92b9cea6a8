"""Compare two rejection tables cell by cell, within Monte Carlo error.

Usage: ``python tools/compare_tables.py OLD.csv NEW.csv``

Both files are CSV tables as ``uvartest simulate`` writes them.  Each cell,
keyed by (scenario, k, design, sigma_b2, method), gets
z = (r1 - r2) / sqrt(se1**2 + se2**2) from its two rates and Monte Carlo
standard errors; a cell whose rates are both 0, or both 1, has no error and
gets z = 0.  The tool prints the largest |z| and every cell with |z| above
4, and exits 1 if there is any, or 2 if the tables do not hold the same
cells.  |z| > 4 has a two-sided probability of about 6e-5 under agreement,
so a chance flag among a few hundred cells is rare.
"""

import argparse
import csv
import math
import sys

KEY = ("scenario", "k", "design", "sigma_b2", "method")
LIMIT = 4.0


def read(path: str) -> dict[tuple[str, ...], tuple[float, float]]:
    """(rate, se) of each cell of the CSV table at ``path``, by its key."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {tuple(row[c] for c in KEY): (float(row["rate"]), float(row["se"]))
                for row in csv.DictReader(fh)}


def z_score(old: tuple[float, float], new: tuple[float, float]) -> float:
    """z of one cell from its (rate, se) in each table; rates of 0 or 1 have
    se 0, so two equal ones give 0 and two different ones infinity."""
    (r1, se1), (r2, se2) = old, new
    spread = math.hypot(se1, se2)
    if spread == 0.0:
        return 0.0 if r1 == r2 else math.inf
    return (r1 - r2) / spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="CSV table of the reference run")
    parser.add_argument("new", help="CSV table to compare with it")
    args = parser.parse_args(argv)
    old, new = read(args.old), read(args.new)
    if old.keys() != new.keys():
        print(f"the tables hold different cells: {len(old.keys() - new.keys())} only in "
              f"{args.old}, {len(new.keys() - old.keys())} only in {args.new}", file=sys.stderr)
        return 2
    z = {key: z_score(old[key], new[key]) for key in old}
    print(f"max |z| = {max(map(abs, z.values()), default=0.0):.3f} over {len(z)} cells")
    flagged = [key for key, value in z.items() if abs(value) > LIMIT]
    for key in flagged:
        cell = " ".join(f"{name}={value}" for name, value in zip(KEY, key))
        print(f"z = {z[key]:+.2f}: {cell}: rate {old[key][0]} -> {new[key][0]}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded benchmark inputs: random point-charge clusters written as PQR.

The generator owns its random stream, so the program under test only ever
sees the PQR file.  Coordinates are rounded to the four decimals the file
holds before the minimum-separation test, so the separation holds for what
the reader parses, and the same arguments give a byte-identical file.

    python3 perfbench/gen.py N HALF_EXTENT MIN_SEP SEED OUT.pqr
"""

import sys

import numpy as np


def cluster(n_atoms, half_extent, min_sep, seed):
    """Positions (n_atoms, 3) in [-half_extent, half_extent]^3 and charges.

    Positions are drawn uniformly and rejected when closer than ``min_sep``
    to an accepted one; charges alternate +1/-1.
    """
    rng = np.random.default_rng(seed)
    pts = np.empty((n_atoms, 3))
    count = tries = 0
    while count < n_atoms:
        tries += 1
        if tries > 1000 * n_atoms:
            raise ValueError("cannot place %d atoms %.2f apart in +-%.2f"
                             % (n_atoms, min_sep, half_extent))
        p = np.round(rng.uniform(-half_extent, half_extent, 3), 4)
        d2 = np.sum((pts[:count] - p) ** 2, axis=1)
        if count and np.min(d2) < min_sep ** 2:
            continue
        pts[count] = p
        count += 1
    charges = np.where(np.arange(n_atoms) % 2 == 0, 1.0, -1.0)
    return pts, charges


def write_pqr(path, pts, charges, radius=1.5):
    with open(path, "w") as fh:
        fh.write("REMARK  seeded benchmark cluster, %d atoms\n" % len(pts))
        for i, ((x, y, z), q) in enumerate(zip(pts, charges), 1):
            fh.write("ATOM  %5d  C   CLU     1    %9.4f %9.4f %9.4f %7.4f "
                     "%6.4f\n" % (i, x, y, z, q, radius))
        fh.write("END\n")


def write_cluster_pqr(path, n_atoms, half_extent, min_sep, seed):
    pts, charges = cluster(n_atoms, half_extent, min_sep, seed)
    write_pqr(path, pts, charges)
    return path


if __name__ == "__main__":
    n, he, sep, seed, out = sys.argv[1:6]
    write_cluster_pqr(out, int(n), float(he), float(sep), int(seed))

"""Scaling sweep for the paper's claims, run once and reported, never gated.

Run from the root of a checkout:

    python3 perfbench/sweep.py

For N = 250, 500, 1000 and 2000 seeded clusters at the density of 400 atoms
in +-12 A, it assembles the RS format through the public stages (rank-29
quadrature, ``RunConfig()`` tolerances) and prints one markdown row per N:
the long rank before and after reduction, the assembly wall time, and the RS
storage against the dense n^3 field, on an n = N_GRID grid.  Each N runs
in a fresh process.
"""

import argparse
import json
import os
import subprocess
import sys

import gen
import worker

SIZES = (250, 500, 1000, 2000)
N_GRID = 129
SEED = 0


def one(root, n_atoms):
    """Assemble one cluster in this process and return its row."""
    rt = worker.load_package(root)
    path = os.path.join(root, ".perfbench_work", "sweep-%d.pqr" % n_atoms)
    half = 12.0 * (n_atoms / 400.0) ** (1.0 / 3.0)
    gen.write_cluster_pqr(path, n_atoms, half, 1.0, SEED)
    rs, _, _, assemble_s = worker.assemble(rt, rt.parse_pqr(path), N_GRID, 29)
    return {"N": n_atoms, "half_extent": round(half, 2),
            "rank_pre": rs.long_rank_pre, "rank_post": rs.long.rank,
            "assemble_s": assemble_s, "storage_kb": worker.storage_kb(rs),
            "dense_kb": 8.0 * rs.grid.n ** 3 / 1024.0}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = p.parse_args()
    root = os.getcwd()
    if args.one:
        print(json.dumps(one(root, args.one)))
        return
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    print("| N | half-extent A | long rank pre | long rank post | assemble s "
          "| RS storage KiB | dense n^3 KiB | dense / RS |")
    print("|---|---|---|---|---|---|---|---|")
    for n_atoms in SIZES:
        out = subprocess.run([sys.executable, __file__, "--one", str(n_atoms)],
                             cwd=root, env=env, check=True,
                             capture_output=True, text=True).stdout
        r = json.loads(out.strip().splitlines()[-1])
        print("| %d | %.2f | %d | %d | %.2f | %.0f | %.0f | %.1f |"
              % (r["N"], r["half_extent"], r["rank_pre"], r["rank_post"],
                 r["assemble_s"], r["storage_kb"], r["dense_kb"],
                 r["dense_kb"] / r["storage_kb"]))


if __name__ == "__main__":
    main()

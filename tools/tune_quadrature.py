"""Generate or check the shipped sinc-quadrature table.

For every rank of the ``auto`` rank ladder and every grid size in ``SIZES``
this tunes the double-exponential substitution parameters (v_lo, v_hi, beta)
at the grid's ratio B = rho_max/rho_min = sqrt(3)*(n-1) and writes them as
``src/rstensor/_quadtable.py``.  ``build_quadrature`` reads an entry instead
of tuning whenever its interval has that ratio.

    python tools/tune_quadrature.py           # rewrite the table (~1.5 min)
    python tools/tune_quadrature.py --check   # re-tune every entry, exit 1
                                              # if any differs from the table

Run it from anywhere; it imports the package from ``src`` next to it.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from rstensor import grid_kernel  # noqa: E402
from rstensor.cli import _RANK_LADDER  # noqa: E402

SIZES = (33, 65, 97, 129, 257)
TABLE_PATH = os.path.join(ROOT, "src", "rstensor", "_quadtable.py")

HEADER = '''"""Tuned sinc-quadrature parameters, generated by tools/tune_quadrature.py.

Maps (R, n) to the (v_lo, v_hi, beta) that ``grid_kernel._tune`` returns for
rank R at B = grid_kernel.canonical_ratio(n).  Do not edit by hand: rerun
the script, and check with ``--check``.
"""

QUAD_TABLE = {
'''


def tune_all():
    return {(R, n): grid_kernel._tune(R, grid_kernel.canonical_ratio(n))
            for n in SIZES for R in _RANK_LADDER}


def render(table):
    lines = [HEADER]
    for (R, n), p in table.items():
        lines.append("    (%d, %d): (%s),\n"
                     % (R, n, ", ".join(repr(float(v)) for v in p)))
    lines.append("}\n")
    return "".join(lines)


def check():
    drift = 0
    for (R, n), p in sorted(grid_kernel.QUAD_TABLE.items()):
        got = grid_kernel._tune(R, grid_kernel.canonical_ratio(n))
        if got != tuple(p):
            drift += 1
            print("drift at R=%d n=%d: table %r, tuner %r" % (R, n, p, got))
    missing = [(R, n) for n in SIZES for R in _RANK_LADDER
               if (R, n) not in grid_kernel.QUAD_TABLE]
    for R, n in missing:
        print("missing entry R=%d n=%d" % (R, n))
    print("%d entries checked, %d drifted, %d missing"
          % (len(grid_kernel.QUAD_TABLE), drift, len(missing)))
    return 1 if drift or missing else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="re-tune every entry and compare; write nothing")
    args = ap.parse_args(argv)
    if args.check:
        return check()
    text = render(tune_all())
    with open(TABLE_PATH, "w") as fh:
        fh.write(text)
    print("wrote %s" % TABLE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())

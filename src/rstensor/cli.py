"""Run configuration, molecule ingestion, pipeline orchestration, export.

The pipeline stages are: quadrature -> reference kernel -> long/short split
-> molecule snap -> collective assembly -> long part densified on the grid
-> (``--bc analytic`` only) delta, the 7-point stencil of that field, and
a Poisson solve with screened-Coulomb faces -> total composition -> oracle
comparison.  With homogeneous faces the solve would return its input, so
it is not run.  Metrics land in a deterministic key=value report; wall-clock
stage times go to a separate file so reruns with the same config and seed
are byte-identical.
"""

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .grid_kernel import (Grid3, assemble_reference_tensor, build_quadrature,
                          gamma_for_separation, split_reference)
from .assembly import (Atom, Molecule, RSTensor, assemble_collective,
                       scatter_short, snapped_molecule)
from .formats import dense, load_canonical, save_canonical
from .solver import (DiscreteLaplacian, GridFunction3, apply_stencil_dense,
                     compose_total, load_field, poisson_solve, save_field)
from .validation import compare, direct_sum_oracle, write_report

_SQRT3 = np.sqrt(3.0)
_RANK_LADDER = (8, 10, 12, 14, 17, 20, 24, 29, 34, 40, 46, 52, 60)
_ORACLE_ATOM_CAP = 2000


def parse_pqr(path):
    """Read ATOM/HETATM records of a PQR file.

    The last five whitespace-separated fields of each record are taken as
    x, y, z, charge, radius; other record types are ignored.  Atom count and
    net charge are available as ``Molecule.n_atoms`` / ``Molecule.net_charge``.

    Raises
    ------
    DataError on malformed numeric fields (with line number) or zero atoms.
    """
    atoms = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            toks = line.split()
            if not toks or toks[0] not in ("ATOM", "HETATM"):
                continue
            if len(toks) < 8:
                raise DataError("%s:%d: too few fields in %s record"
                                % (path, lineno, toks[0]))
            try:
                x, y, z, q, r = (float(v) for v in toks[-5:])
            except ValueError:
                raise DataError("%s:%d: malformed numeric field" % (path, lineno))
            atoms.append(Atom((x, y, z), q, r))
    if not atoms:
        raise DataError("no atoms found in %s" % path)
    name = os.path.splitext(os.path.basename(path))[0]
    return Molecule(atoms, name)


def synthetic_cluster(n_atoms, half_extent, min_sep=1.0, seed=0, name=None):
    """Reproducible random particle cloud with a minimum pairwise separation.

    Positions are drawn uniformly in [-half_extent, half_extent]^3 by
    rejection sampling; charges alternate +1/-1, radii are 1.5 Angstrom.
    """
    if n_atoms < 1:
        raise ConfigError("cluster needs at least one atom")
    rng = np.random.default_rng(seed)
    pts = np.empty((n_atoms, 3))
    count = 0
    guard = 0
    while count < n_atoms:
        guard += 1
        if guard > 1000 * n_atoms:
            raise ConfigError("cannot place %d atoms at min_sep %.2f in +-%.2f"
                              % (n_atoms, min_sep, half_extent))
        cand = rng.uniform(-half_extent, half_extent, 3)
        if count and np.min(np.sum((pts[:count] - cand) ** 2, axis=1)) < min_sep ** 2:
            continue
        pts[count] = cand
        count += 1
    atoms = [Atom(pts[i], 1.0 if i % 2 == 0 else -1.0, 1.5)
             for i in range(n_atoms)]
    return Molecule(atoms, name or "cluster%d" % n_atoms)


@dataclass
class RunConfig:
    """Pipeline configuration; "auto" fields are resolved against the grid.

    ``b="auto"`` sizes the box so the atom margin rule (every atom at least
    gamma*h/2 + 2h from each face) holds with slack; ``rank="auto"`` picks
    the smallest ladder rank whose measured kernel error meets
    ``eps_kernel``; ``gamma="auto"`` converts ``sep_radius`` (Angstrom) into
    grid units.  With ``eps_scaling="mesh"`` the rank-reduction tolerance is
    ``eps_c2t * h^2`` so the compression error tracks the grid resolution;
    "fixed" uses ``eps_c2t`` as is.  ``kappa`` (1/Angstrom) screens only
    the ``bc="analytic"`` solve, its faces and its operator.
    """

    n: int = 129
    b: object = "auto"
    rank: object = "auto"
    gamma: object = "auto"
    sep_radius: float = 3.5
    eps_kernel: float = 1e-6
    eps_support: float = 1e-8
    eps_c2t: float = 1e-8
    eps_scaling: str = "mesh"
    bc: str = "homogeneous"
    kappa: float = 0.0
    outdir: str = "."

    def validate(self):
        if int(self.n) != self.n or self.n < 3:
            raise ConfigError("config: n must be an integer >= 3")
        if self.n < 33:
            raise ConfigError("config: molecule runs need n >= 33")
        if self.b != "auto" and not (isinstance(self.b, (int, float)) and self.b > 0):
            raise ConfigError("config: b must be positive or 'auto'")
        if self.rank != "auto" and (int(self.rank) != self.rank or self.rank < 1):
            raise ConfigError("config: rank must be a positive integer or 'auto'")
        if self.gamma != "auto" and (int(self.gamma) != self.gamma or self.gamma < 1):
            raise ConfigError("config: gamma must be a positive integer or 'auto'")
        if not (self.sep_radius > 0):
            raise ConfigError("config: sep_radius must be positive")
        for name in ("eps_kernel", "eps_support", "eps_c2t"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ConfigError("config: %s must lie in (0, 1)" % name)
        if self.eps_scaling not in ("mesh", "fixed"):
            raise ConfigError("config: eps_scaling must be 'mesh' or 'fixed'")
        if self.bc not in ("homogeneous", "analytic"):
            raise ConfigError("config: bc must be 'homogeneous' or 'analytic'")
        if not (self.kappa >= 0):
            raise ConfigError("config: kappa must be nonnegative")


def resolve_box(cfg, m):
    """Box half-width for a molecule.

    Explicit ``cfg.b`` is returned as is.  "auto" sizes the box as
    b = maxabs + sep_radius + 3h, solved in closed form for the
    self-consistent h; since the separation gamma rounds 2*sep_radius/h
    to grid units, the atom margin gamma*h/2 + 2h then holds with at
    least 0.75h slack.
    """
    if cfg.b != "auto":
        return float(cfg.b)
    n1 = cfg.n - 1
    if n1 <= 6:
        raise ConfigError("auto box needs n >= 8")
    maxabs = float(np.max(np.abs(m.positions)))
    return (maxabs + cfg.sep_radius) * n1 / (n1 - 6.0)


def _resolve_quadrature(cfg, grid):
    rho_min, rho_max = grid.h, 2.0 * _SQRT3 * grid.b
    if cfg.rank != "auto":
        return build_quadrature(int(cfg.rank), rho_min, rho_max)
    for R in _RANK_LADDER:
        q = build_quadrature(R, rho_min, rho_max)
        if q.achieved_relative_error <= cfg.eps_kernel:
            return q
    raise NumericError("no ladder rank reaches eps_kernel=%.1e on [%.3g, %.3g]"
                       % (cfg.eps_kernel, rho_min, rho_max))


def _boundary_field(m, grid, kappa):
    # screened-Coulomb boundary data on the six faces, zeros inside
    x = grid.coords()
    n = grid.n
    g = np.zeros((n, n, n))
    planes = [(0, 0), (0, n - 1), (1, 0), (1, n - 1), (2, 0), (2, n - 1)]
    for ax, idx in planes:
        axes = [x] * 3
        axes[ax] = np.array([x[idx]])
        X = axes[0][:, None, None]
        Y = axes[1][None, :, None]
        Z = axes[2][None, None, :]
        vals = np.zeros((len(axes[0]), len(axes[1]), len(axes[2])))
        for pos, z in zip(m.positions, m.charges):
            r = np.sqrt((X - pos[0]) ** 2 + (Y - pos[1]) ** 2 + (Z - pos[2]) ** 2)
            r = np.maximum(r, 1e-12)
            vals += z * np.exp(-kappa * r) / r
        sl = [slice(None)] * 3
        sl[ax] = idx
        g[tuple(sl)] = vals.squeeze(axis=ax)
    return g


@contextmanager
def _clock(timings, key):
    t0 = time.perf_counter()
    yield
    timings[key] = time.perf_counter() - t0


def _assemble_stage(cfg, m, timings):
    """Validate ``cfg``, resolve grid and kernel, and assemble ``m``.

    Resolves the box, gamma and the rank-reduction tolerance, enforces the
    atom margin rule (every atom at least gamma*h/2 + 2h from each face),
    builds the quadrature and the split reference kernel, snaps ``m`` to
    the grid and assembles its RS tensor.  Stage wall times go into
    ``timings``.  Returns (RSTensor, quadrature, kernel, snapped molecule,
    snap list, reduction tolerance).
    """
    cfg.validate()
    grid = Grid3(cfg.n, resolve_box(cfg, m))
    h = grid.h
    gamma = cfg.gamma if cfg.gamma != "auto" else gamma_for_separation(grid, cfg.sep_radius)
    maxabs = float(np.max(np.abs(m.positions)))
    need = 0.5 * gamma * h + 2.0 * h
    if grid.b - maxabs < need - 1e-9:
        raise ConfigError("margin rule violated: atoms within %.3f A of a face, "
                          "need %.3f A" % (grid.b - maxabs, need))
    eps_eff = cfg.eps_c2t * h * h if cfg.eps_scaling == "mesh" else cfg.eps_c2t
    with _clock(timings, "quadrature"):
        q = _resolve_quadrature(cfg, grid)
    with _clock(timings, "kernel"):
        kernel = split_reference(assemble_reference_tensor(q, grid), gamma,
                                 cfg.eps_support)
    snapped, snaps = snapped_molecule(m, grid)
    with _clock(timings, "assemble"):
        rs = assemble_collective(snapped, kernel, eps_eff)
    return rs, q, kernel, snapped, snaps, eps_eff


def _solve_stage(rs, timings, kappa=0.0, bc_molecule=None):
    """Long-range potential on the grid.

    With homogeneous faces it is the densified long part, the exact
    solution of ``(-lap + kappa^2) u = -(lap - kappa^2) rs.long``, so
    nothing is solved.  With ``bc_molecule`` the faces carry its
    screened-Coulomb values and that right-hand side, the 7-point stencil
    of the densified long part, is solved in the sine basis.
    """
    with _clock(timings, "dense"):
        values = dense(rs.long)
    if bc_molecule is None:
        return GridFunction3(rs.grid, values, {"bc": "homogeneous"})
    L = DiscreteLaplacian(rs.grid, kappa)
    with _clock(timings, "delta"):
        delta_long = apply_stencil_dense(L, values)
        np.negative(delta_long, out=delta_long)
    with _clock(timings, "solve"):
        bc_field = _boundary_field(bc_molecule, rs.grid, kappa)
        return poisson_solve(delta_long, L, bc="trace", bc_field=bc_field)


def run_case(cfg, m):
    """Execute the pipeline in memory.

    Returns a dict with the composed field (``total``), the long-range solve
    (``u_long``), the assembled tensor (``rs``), the reference kernel, the
    snapped molecule, the error report (None when the oracle was skipped),
    deterministic ``metrics`` and wall-clock ``timings``.
    """
    timings = {}
    t_all = time.perf_counter()
    rs, q, kernel, snapped, snaps, eps_eff = _assemble_stage(cfg, m, timings)
    grid = rs.grid
    max_off = max(float(np.max(np.abs(off))) for _, off in snaps)

    u_long = _solve_stage(rs, timings, cfg.kappa,
                          snapped if cfg.bc == "analytic" else None)
    u_long.meta["quad_rank"] = q.rank
    with _clock(timings, "compose"):
        total = compose_total(u_long, rs)

    report = None
    if m.n_atoms <= _ORACLE_ATOM_CAP:
        with _clock(timings, "oracle"):
            oracle = direct_sum_oracle(snapped, grid, kernel="gaussian_sum",
                                       quad=q)
            report = compare(total, oracle,
                             exclude_centers=[c for c, _ in rs.short_list],
                             config={"oracle": "gaussian_sum"})
    timings["total"] = time.perf_counter() - t_all

    metrics = {
        "molecule": m.name,
        "atoms": m.n_atoms,
        "net_charge": _fmt(m.net_charge),
        "n": grid.n,
        "b": _fmt(grid.b),
        "h": _fmt(grid.h),
        "rank": q.rank,
        "quad_error": _fmt(q.achieved_relative_error),
        "gamma": kernel.separation_gamma,
        "split_long": kernel.split_index,
        "split_short": kernel.n_short,
        "eps_reduce": _fmt(eps_eff),
        "rank_pre": rs.long_rank_pre,
        "rank_post": rs.long.rank,
        "bc": cfg.bc,
        "kappa": _fmt(cfg.kappa),
        "max_snap_offset": _fmt(max_off),
        "oracle": "gaussian_sum" if report else "skipped",
    }
    if "residual" in u_long.meta:
        metrics["solver_residual"] = _fmt(u_long.meta["residual"])
    if report is not None:
        metrics.update({
            "l2_weighted": _fmt(report.discrete_l2),
            "l2_relative": _fmt(report.relative_l2),
            "rss": _fmt(report.rss),
            "max_abs": _fmt(report.max_abs),
            "max_abs_excl": _fmt(report.max_abs_excluding_cores),
        })
    return {"total": total, "u_long": u_long, "rs": rs, "kernel": kernel,
            "molecule": snapped, "report": report, "metrics": metrics,
            "timings": timings, "quadrature": q}


def _fmt(v):
    return "%.17g" % float(v)


def run_pipeline(cfg, m):
    """Run the pipeline and write the artifact bundle into ``cfg.outdir``.

    Writes total/long/short field dumps, a deterministic ``metrics.txt``
    (key=value, sorted) and the stage wall times in ``timings.txt``.
    Returns the in-memory bundle with a ``paths`` entry added.
    """
    out = run_case(cfg, m)
    os.makedirs(cfg.outdir, exist_ok=True)
    paths = {}

    def _p(name):
        paths[name] = os.path.join(cfg.outdir, name)
        return paths[name]

    save_field(out["total"], _p("total.bin"))
    save_field(out["u_long"], _p("ulong.bin"))
    short = np.zeros_like(out["total"].values)
    scatter_short(out["rs"], short)
    grid = out["total"].grid
    meta = {"bc": "none", "quad_rank": out["quadrature"].rank}
    save_field(GridFunction3(grid, short, meta), _p("short.bin"))
    with open(_p("metrics.txt"), "w") as fh:
        for k in sorted(out["metrics"]):
            fh.write("%s=%s\n" % (k, out["metrics"][k]))
    with open(_p("timings.txt"), "w") as fh:
        for k in sorted(out["timings"]):
            fh.write("%s=%.3f\n" % (k, out["timings"][k]))
    if out["report"] is not None:
        write_report(out["report"], _p("report.txt"))
    out["paths"] = paths
    return out


def export_slice(f, axis=None, index=None, fmt="csv", path="slice.csv"):
    """Export a field slice as CSV, or the full volume as legacy VTK.

    CSV: one ``# axis=.. index=..`` header line, then n rows of n
    comma-separated ``%.17e`` values (exact float64 round-trip).  VTK
    (``fmt="vtk"``): STRUCTURED_POINTS scalar volume, written only when
    ``axis`` is omitted.
    """
    n = f.grid.n
    if fmt == "csv":
        if axis not in (1, 2, 3):
            raise ConfigError("csv export needs axis in {1,2,3}")
        if index is None or not (0 <= index < n):
            raise ConfigError("slice index out of range")
        sl = [slice(None)] * 3
        sl[axis - 1] = index
        vals = f.values[tuple(sl)]
        with open(path, "w") as fh:
            fh.write("# axis=%d index=%d n=%d b=%.17g h=%.17g\n"
                     % (axis, index, n, f.grid.b, f.grid.h))
            for row in vals:
                fh.write(",".join("%.17e" % v for v in row) + "\n")
        return path
    if fmt == "vtk":
        if axis is not None:
            raise ConfigError("vtk export writes the full volume; omit axis")
        g = f.grid
        with open(path, "w") as fh:
            fh.write("# vtk DataFile Version 3.0\npotential field\nASCII\n")
            fh.write("DATASET STRUCTURED_POINTS\n")
            fh.write("DIMENSIONS %d %d %d\n" % (n, n, n))
            fh.write("ORIGIN %.17g %.17g %.17g\n" % (-g.b, -g.b, -g.b))
            fh.write("SPACING %.17g %.17g %.17g\n" % (g.h, g.h, g.h))
            fh.write("POINT_DATA %d\n" % n ** 3)
            fh.write("SCALARS potential double 1\nLOOKUP_TABLE default\n")
            flat = f.values.ravel(order="F")
            for beg in range(0, flat.size, 4096):
                fh.write("\n".join("%.17g" % v for v in flat[beg:beg + 4096]))
                fh.write("\n")
        return path
    raise ConfigError("unknown export format %r" % fmt)


def _molecule_from_args(args):
    if args.pqr:
        return parse_pqr(args.pqr)
    if args.synthetic:
        he = args.half_extent
        if he is None:
            raise ConfigError("--synthetic needs --half-extent")
        return synthetic_cluster(args.synthetic, he, args.min_sep, args.seed)
    raise ConfigError("give a molecule via --pqr or --synthetic")


def _config_from_args(args):
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)
                        if getattr(args, f.name) is not None})


def _num_or_auto(kind):
    def conv(s):
        if s == "auto":
            return "auto"
        return kind(s)
    return conv


def _add_common(sp):
    sp.add_argument("--n", type=int, help="grid points per axis")
    sp.add_argument("--b", type=_num_or_auto(float), help="box half-width in A, or 'auto'")
    sp.add_argument("--rank", type=_num_or_auto(int), help="quadrature rank, or 'auto'")
    sp.add_argument("--gamma", type=_num_or_auto(int), help="separation in grid units, or 'auto'")
    sp.add_argument("--sep-radius", dest="sep_radius", type=float,
                    help="short-range support radius in A (default 3.5)")
    sp.add_argument("--eps-kernel", dest="eps_kernel", type=float)
    sp.add_argument("--eps-support", dest="eps_support", type=float)
    sp.add_argument("--eps-c2t", dest="eps_c2t", type=float)
    sp.add_argument("--eps-scaling", dest="eps_scaling", choices=("mesh", "fixed"))
    sp.add_argument("--bc", choices=("homogeneous", "analytic"))
    sp.add_argument("--kappa", type=float,
                    help="screening in 1/A for the --bc analytic solve")
    sp.add_argument("--seed", type=int, default=0,
                    help="synthetic cluster seed (default 0)")
    sp.add_argument("-o", "--outdir", default=None)
    sp.add_argument("--pqr", help="PQR file with ATOM/HETATM records")
    sp.add_argument("--synthetic", type=int, metavar="N",
                    help="seeded synthetic cluster with N atoms")
    sp.add_argument("--half-extent", dest="half_extent", type=float,
                    help="synthetic cluster half-extent in A")
    sp.add_argument("--min-sep", dest="min_sep", type=float, default=1.0)


def _cmd_assemble(args):
    cfg = _config_from_args(args)
    m = _molecule_from_args(args)
    rs = _assemble_stage(cfg, m, {})[0]
    d = cfg.outdir
    os.makedirs(d, exist_ok=True)
    save_canonical(rs.long, os.path.join(d, "long.ct3"))
    save_canonical(rs.short_reference, os.path.join(d, "short_template.ct3"))
    side = {"n": rs.grid.n, "b": rs.grid.b, "gamma": rs.gamma,
            "rank_pre": rs.long_rank_pre, "rank_post": rs.long.rank,
            "centers": [list(c) for c, _ in rs.short_list],
            "weights": [w for _, w in rs.short_list]}
    with open(os.path.join(d, "shortlist.json"), "w") as fh:
        json.dump(side, fh, sort_keys=True)
    print("assembled %s: long rank %d -> %d, %d short contributions"
          % (m.name, rs.long_rank_pre, rs.long.rank, len(rs.short_list)))
    return 0


def _load_bundle(d):
    path = os.path.join(d, "shortlist.json")
    try:
        with open(path) as fh:
            side = json.load(fh)
        grid = Grid3(side["n"], side["b"])
        if len(side["centers"]) != len(side["weights"]):
            raise ValueError("centers and weights differ in length")
        short_list = [(tuple(int(v) for v in c), float(w))
                      for c, w in zip(side["centers"], side["weights"])]
        gamma, rank_pre = int(side["gamma"]), int(side["rank_pre"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataError("malformed %s: %s %s" % (path, type(e).__name__, e))
    return RSTensor(grid,
                    load_canonical(os.path.join(d, "long.ct3")),
                    load_canonical(os.path.join(d, "short_template.ct3")),
                    short_list, gamma, long_rank_pre=rank_pre)


def _cmd_solve(args):
    d = args.indir
    rs = _load_bundle(d)
    u = _solve_stage(rs, {})
    total = compose_total(u, rs)
    out = args.outdir or d
    os.makedirs(out, exist_ok=True)
    save_field(u, os.path.join(out, "ulong.bin"))
    save_field(total, os.path.join(out, "total.bin"))
    print("wrote ulong.bin and total.bin in %s" % out)
    return 0


def _cmd_run(args):
    cfg = _config_from_args(args)
    m = _molecule_from_args(args)
    out = run_pipeline(cfg, m)
    for k in sorted(out["metrics"]):
        print("%s=%s" % (k, out["metrics"][k]))
    print("artifacts in %s" % cfg.outdir)
    return 0


def _cmd_validate(args):
    cfg = _config_from_args(args)
    m = _molecule_from_args(args)
    f = load_field(args.field)
    grid = f.grid
    if args.n is not None and args.n != grid.n:
        raise ConfigError("--n %d does not match n=%d of %s"
                          % (args.n, grid.n, args.field))
    if args.b not in (None, "auto") and abs(args.b - grid.b) > 1e-12 * grid.b:
        raise ConfigError("--b %.17g does not match b=%.17g of %s"
                          % (args.b, grid.b, args.field))
    quad_rank = f.meta.get("quad_rank")
    if quad_rank is not None:
        if args.rank not in (None, "auto") and args.rank != quad_rank:
            raise ConfigError("--rank %d does not match quad_rank=%d of %s"
                              % (args.rank, quad_rank, args.field))
        cfg.rank = quad_rank
    snapped, snaps = snapped_molecule(m, grid)
    if args.oracle_kernel == "gaussian_sum":
        q = _resolve_quadrature(cfg, grid)
        oracle = direct_sum_oracle(snapped, grid, kernel="gaussian_sum", quad=q)
    else:
        oracle = direct_sum_oracle(snapped, grid, kernel="exact_newton")
    rep = compare(f, oracle, exclude_centers=[c for c, _ in snaps],
                  config={"oracle": args.oracle_kernel, "field": args.field})
    out = args.outdir or "."
    os.makedirs(out, exist_ok=True)
    write_report(rep, os.path.join(out, "report.txt"))
    print(rep.text())
    return 0


def _cmd_export(args):
    f = load_field(args.field)
    path = export_slice(f, axis=args.axis, index=args.index,
                        fmt=args.format, path=args.out)
    print("wrote %s" % path)
    return 0


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    p = argparse.ArgumentParser(
        prog="rstensor",
        description="Collective electrostatics of many-particle systems in "
                    "range-separated canonical tensor form.")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("assemble", help="assemble a molecule's potential")
    _add_common(sp)

    sp = sub.add_parser("solve", help="compose the fields of an assembled bundle")
    sp.add_argument("-i", "--indir", required=True)
    sp.add_argument("-o", "--outdir", default=None)

    sp = sub.add_parser("run", help="full pipeline with reports")
    _add_common(sp)

    sp = sub.add_parser("validate", help="compare a field dump to an oracle")
    _add_common(sp)
    sp.add_argument("--field", required=True, help="field dump path")
    sp.add_argument("--oracle-kernel", dest="oracle_kernel",
                    choices=("gaussian_sum", "exact_newton"),
                    default="gaussian_sum")

    sp = sub.add_parser("export", help="export a slice or volume")
    sp.add_argument("--field", required=True)
    sp.add_argument("--axis", type=int, choices=(1, 2, 3), default=None)
    sp.add_argument("--index", type=int, default=None)
    sp.add_argument("--format", choices=("csv", "vtk"), default="csv")
    sp.add_argument("--out", default="slice.csv")

    args = p.parse_args(argv)
    handlers = {"assemble": _cmd_assemble, "solve": _cmd_solve, "run": _cmd_run,
                "validate": _cmd_validate, "export": _cmd_export}
    try:
        return handlers[args.cmd](args)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except NumericError as e:
        print("numeric failure: %s" % e, file=sys.stderr)
        return 3
    except (DataError, OSError) as e:
        print("i/o error: %s" % e, file=sys.stderr)
        return 4

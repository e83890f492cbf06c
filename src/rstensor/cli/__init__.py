"""Run configuration, molecule ingestion, pipeline orchestration, export.

The pipeline stages run in one order at every kappa, with or without
``--parts``, each timed under its own key: quadrature -> reference
kernel -> long/short split -> molecule snap -> collective assembly ->
long part densified on the grid (``RSTensor.long_field``) -> (``--bc
analytic`` only) delta, the stencil of the long field with -kappa^2
times the short part scattered into it, its face layers set to the
exact oracle's screened-Coulomb values, and a Poisson solve that keeps
them -> (``--parts`` only) short part scattered into a field of its own
and both parts dumped, the short field dropped -> total, the short part
added into the long field's array a block of planes at a time
(``compose_total``) -> (kappa = 0 only, it is unscreened) the total
compared with the Gaussian-sum oracle, which ``compare`` builds and reads
one chunk of mode-2 rows at a time (``validation._oracle_rows``; about
2^21 values a chunk), so the oracle is never an n^3 array: one n^3
field at the peak, two with ``--parts``, and one field and a chunk while
comparing.  ``oracle`` times the chunks' evaluation, ``compare`` the rest
of that pass.  ``validate`` reads its dump against either oracle the same
way, so it holds one n^3 field.  With homogeneous faces the solve would
return its input, so it is not run.  The scatter, the comparison, the
total and the finiteness check of every field run on a slab of planes
per BLAS thread, with results independent of the thread count.  Every
n^3 field is Fortran-ordered (mode-1 fastest), the layout of the
``.bin`` dumps, so they are written without a copy.  ``run`` and ``solve`` write one n^3
dump, ``total.bin``, and the parts ``ulong.bin`` and ``short.bin`` only
with ``--parts``.  ``run`` also writes the RS bundle that ``assemble``
writes, with the run's ``bc`` and ``kappa``.  ``solve`` composes
homogeneous-face totals only, so it refuses the bundle of a ``--bc
analytic`` run, and writes the bundle it reads beside its total (in
place, the same bytes).  Metrics land in a deterministic key=value file
and the oracle comparison in ``report.txt``; the stage times go to a
separate file.  ``run``, ``solve`` and ``assemble`` share one output
rule (``_outputs``): a command changes its output directory only when
it succeeds, and then holds only its own outputs.  Each writes into a
staging directory inside it and, on success, removes the outputs of the
three (``_OUTPUTS``) that it did not write and moves its own in; old
and new outputs so share the disk until then.  Dumps and bundles
name their quadrature rank (``quad_rank``), which ``validate`` reads
with the grid from the dump.  Reruns at one BLAS thread count of born,
and of ligand18 and a 600-atom cluster at n=65, are byte-identical
(tested).  Across thread counts the BLAS splits its sums differently:
the 600-atom cluster at one and at two threads has the same
ranks and a byte-identical ``short.bin``, but its long part, total and
metrics differ in the last bits, the total by at most 1e-13 of its max
(tested).  ``python -m rstensor`` and ``python -m rstensor.cli`` run
``main`` and exit with its code.
"""

import argparse
import ctypes
import json
import mmap
import os
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields

import numpy as np

from ..errors import ConfigError, DataError, NumericError
from ..grid_kernel import (MAX_QUAD_RANK, Grid3, assemble_reference_tensor,
                           build_quadrature, gamma_for_separation,
                           split_reference)
from ..assembly import (Molecule, RSTensor, assemble_collective, scatter_short,
                        snapped_molecule)
from ..formats import load_canonical, save_canonical
from ..solver import (DiscreteLaplacian, GridFunction3, apply_stencil_dense,
                      compose_total, load_field, poisson_solve, save_field)
from ..validation import _coulomb_sum, _oracle_rows, compare, write_report

_RANK_LADDER = (8, 10, 12, 14, 17, 20, 24, 29, 34, 40, 46, 52, 60)


def parse_pqr(path):
    """Read ATOM/HETATM records of a PQR file.

    The last five whitespace-separated fields of each record are taken as
    x, y, z, charge, radius; other record types are ignored.  Atom count and
    net charge are available as ``Molecule.n_atoms`` / ``Molecule.net_charge``.

    Raises
    ------
    DataError on malformed fields, no atoms, or values ``Molecule``
    rejects (non-finite, negative radius); each names the file and the
    line of the first offending record.
    """
    vals, linenos = [], []
    # a byte outside ASCII becomes a lone surrogate: skipped with the rest
    # of a non-record line, a malformed number inside a record
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            toks = line.split()
            if not toks or toks[0] not in ("ATOM", "HETATM"):
                continue
            if len(toks) < 8:
                raise DataError("%s:%d: too few fields in %s record"
                                % (path, lineno, toks[0]))
            try:
                vals.extend(float(v) for v in toks[-5:])
            except ValueError:
                raise DataError("%s:%d: malformed numeric field" % (path, lineno))
            linenos.append(lineno)
    if not vals:
        raise DataError("no atoms found in %s" % path)
    a = np.array(vals).reshape(-1, 5)
    name = os.path.splitext(os.path.basename(path))[0]
    try:
        return Molecule(a[:, :3], a[:, 3], a[:, 4], name)
    except DataError as e:
        # the first record failing the check Molecule reports, in its order
        bad = next(b for b in (~np.isfinite(a[:, :3]).all(axis=1),
                               ~np.isfinite(a[:, 3]), ~(a[:, 4] >= 0))
                   if b.any())
        raise DataError("%s (%s:%d)" % (e, path, linenos[np.argmax(bad)])) \
            from None


def synthetic_cluster(n_atoms, half_extent, min_sep=1.0, seed=0):
    """Reproducible random particle cloud with a minimum pairwise separation.

    Positions are drawn uniformly in [-half_extent, half_extent]^3 by
    rejection sampling; charges alternate +1/-1, radii are 1.5 Angstrom.
    """
    if n_atoms < 1:
        raise ConfigError("cluster needs at least one atom")
    if not (0 < half_extent < np.inf and 0 <= min_sep < np.inf):
        raise ConfigError("cluster needs a positive finite half_extent and a "
                          "finite min_sep >= 0")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ConfigError("cluster needs an integer seed >= 0")
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
    charges = np.where(np.arange(n_atoms) % 2 == 0, 1.0, -1.0)
    return Molecule(pts, charges, np.full(n_atoms, 1.5), "cluster%d" % n_atoms)


@dataclass
class RunConfig:
    """Pipeline configuration; "auto" fields are resolved against the grid.

    ``b="auto"`` sizes the box so the atom margin rule (every atom at least
    gamma*h/2 + 2h from each face) holds with slack; ``rank="auto"`` picks
    the smallest ladder rank whose measured kernel error meets
    ``eps_kernel``, and a numeric rank may not exceed ``MAX_QUAD_RANK``
    (256).  The separation gamma is ``sep_radius`` (Angstrom) in
    grid units, round(2*sep_radius/h) and at least 2.  The rank-reduction
    tolerance is always ``eps_c2t * h^2``, so the compression error tracks
    the grid resolution; a fixed tolerance e is ``eps_c2t = e / h^2``.
    ``kappa`` (1/Angstrom) screens the ``bc="analytic"`` solve, and only
    that solve, so it needs that ``bc``.
    """

    n: int = 129
    b: object = "auto"
    rank: object = "auto"
    sep_radius: float = 3.5
    eps_kernel: float = 1e-6
    eps_support: float = 1e-8
    eps_c2t: float = 1e-8
    bc: str = "homogeneous"
    kappa: float = 0.0
    outdir: str = "."
    # not a field, so not settable: perfbench/worker.py reads it to compute
    # the reduction tolerance, and test_entry_points checks that it resolves
    eps_scaling = "mesh"

    def validate(self):
        if int(self.n) != self.n or self.n < 3:
            raise ConfigError("config: n must be an integer >= 3")
        if self.n < 33:
            raise ConfigError("config: molecule runs need n >= 33")
        if self.b != "auto" and not (isinstance(self.b, (int, float))
                                     and 0 < self.b < np.inf):
            raise ConfigError("config: b must be positive and finite or 'auto'")
        if self.rank != "auto" and (int(self.rank) != self.rank or self.rank < 1):
            raise ConfigError("config: rank must be a positive integer or 'auto'")
        if not (0 < self.sep_radius < np.inf):
            raise ConfigError("config: sep_radius must be positive and finite")
        for name in ("eps_kernel", "eps_support", "eps_c2t"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ConfigError("config: %s must lie in (0, 1)" % name)
        if self.bc not in ("homogeneous", "analytic"):
            raise ConfigError("config: bc must be 'homogeneous' or 'analytic'")
        if not (0 <= self.kappa and self.kappa * self.kappa < np.inf):
            raise ConfigError("config: kappa must be >= 0 with finite kappa^2")
        if self.kappa > 0 and self.bc != "analytic":
            raise ConfigError("config: kappa > 0 needs bc='analytic'")


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
    rho_min, rho_max = grid.h, 2.0 * np.sqrt(3.0) * grid.b
    if cfg.rank != "auto":
        if cfg.rank > MAX_QUAD_RANK:
            raise ConfigError("config: rank %d exceeds the cap of %d"
                              % (cfg.rank, MAX_QUAD_RANK))
        return build_quadrature(int(cfg.rank), rho_min, rho_max)
    for R in _RANK_LADDER:
        q = build_quadrature(R, rho_min, rho_max)
        if q.achieved_relative_error <= cfg.eps_kernel:
            return q
    raise NumericError("no ladder rank reaches eps_kernel=%.1e on [%.3g, %.3g]"
                       % (cfg.eps_kernel, rho_min, rho_max))


@contextmanager
def _clock(timings, key):
    t0 = time.perf_counter()
    yield
    timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0


def _assemble_stage(cfg, m, timings):
    """Validate ``cfg``, resolve grid and kernel, and assemble ``m``.

    Resolves the box, gamma and the rank-reduction tolerance, enforces the
    atom margin rule (every atom at least gamma*h/2 + 2h from each face),
    builds the quadrature and the split reference kernel, snaps ``m`` to
    the grid and assembles its RS tensor.  Stage wall times go into
    ``timings``.  Returns (RSTensor, quadrature, kernel, snapped molecule,
    reduction tolerance).
    """
    cfg.validate()
    grid = Grid3(cfg.n, resolve_box(cfg, m))
    h = grid.h
    gamma = gamma_for_separation(grid, cfg.sep_radius)
    maxabs = float(np.max(np.abs(m.positions)))
    need = 0.5 * gamma * h + 2.0 * h
    if grid.b - maxabs < need - 1e-9:
        raise ConfigError("margin rule violated: atoms within %.3f A of a face, "
                          "need %.3f A" % (grid.b - maxabs, need))
    eps_eff = cfg.eps_c2t * h * h
    with _clock(timings, "quadrature"):
        q = _resolve_quadrature(cfg, grid)
    with _clock(timings, "kernel"):
        kernel = split_reference(assemble_reference_tensor(q, grid), gamma,
                                 cfg.eps_support)
    snapped, _ = snapped_molecule(m, grid)
    with _clock(timings, "assemble"):
        rs = assemble_collective(snapped, kernel, eps_eff)
    return rs, q, kernel, snapped, eps_eff


def _long_stage(rs, timings, kappa=0.0, bc_molecule=None):
    """Long-range potential on the grid.

    The long part is densified by ``rs.long_field()`` into a Fortran-ordered
    (mode-1 fastest) array.  With homogeneous faces that is the result (it
    solves ``-lap u = -lap rs.long``).  With ``bc_molecule`` the face
    layers of ``rhs`` take the molecule's screened-Coulomb values, and
    ``poisson_solve(rhs, L)`` keeps them as the Dirichlet values and
    solves for the interior (four n^3 arrays at its peak): the regular
    part u_r of the total ``U_short + u_r`` solves ``(-lap + kappa^2) u_r
    = -lap U_long - kappa^2 U_short``, the last term scattered into ``rhs``.
    """
    with _clock(timings, "dense"):
        values = rs.long_field()
    if bc_molecule is None:
        return GridFunction3(rs.grid, values, {
            "bc": "homogeneous", "quad_rank": rs.quad_rank})
    with _clock(timings, "delta"):
        rhs = apply_stencil_dense(DiscreteLaplacian(rs.grid), values)
        del values  # read no more: the solve's arrays take its place
        np.negative(rhs, out=rhs)
        if kappa > 0:
            scatter_short(rs, rhs, -kappa * kappa)
    with _clock(timings, "solve"):
        # screened-Coulomb boundary data, in O(6 N n^2) arithmetic: exact
        # (screened) 1/r, while the interior and the oracle use the
        # Gaussian sum (the face gap the README documents)
        x, ends = rs.grid.coords(), slice(None, None, rs.grid.n - 1)
        for ax in range(3):  # both faces normal to axis ax at once
            axes, face = [x] * 3, [slice(None)] * 3
            axes[ax], face[ax] = x[ends], ends
            rhs[tuple(face)] = _coulomb_sum(bc_molecule, *axes, kappa)[0]
        u = poisson_solve(rhs, DiscreteLaplacian(rs.grid, kappa))
    u.meta["quad_rank"] = rs.quad_rank
    return u


def _total_stage(rs, u_long, timings, on_parts=None):
    """The total of ``run`` and ``solve``, built by ``compose_total`` in
    the long field's array with no n^3 short field.  With ``on_parts``
    the short part (``bc=none``) is first scattered into a Fortran-ordered
    zero array, shown with ``u_long`` to the hook and dropped: two n^3
    fields.  ``scatter`` times that scatter (0 without a hook)."""
    timings.setdefault("scatter", 0.0)
    if on_parts is not None:
        with _clock(timings, "scatter"):
            short = GridFunction3(rs.grid, scatter_short(
                rs, np.zeros((rs.grid.n,) * 3, order="F")),
                {"bc": "none", "quad_rank": rs.quad_rank})
        on_parts(u_long, short)
        del short
    with _clock(timings, "compose"):
        return compose_total(u_long, rs)


def _fix_malloc_thresholds():
    """Pin glibc's mmap threshold at 1 MiB and its trim threshold at 2 MiB,
    so every freed block of 1 MiB or more goes back to the system.  Left
    dynamic, the mmap threshold rises to each mapped block freed, and a
    run's peak RSS followed the heap's layout and the threads' timing
    (README).  A no-op where the C library has no ``mallopt``."""
    with suppress(AttributeError, OSError, TypeError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 2 ** 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 2 ** 21)  # M_TRIM_THRESHOLD


_MEMINFO = "/proc/meminfo"


def _mem_available():
    # MemAvailable of _MEMINFO in bytes, the kernel's estimate of what can
    # be allocated without swapping; None where it is not given
    with suppress(OSError, ValueError, IndexError), open(_MEMINFO) as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    return None


def run_case(cfg, m, on_parts=None):
    """Execute the pipeline in memory.

    Returns a dict with the field ``total`` (the long-range solve plus the
    short-range part), the assembled tensor (``rs``), the
    reference kernel, the snapped molecule, the error report,
    deterministic ``metrics`` and wall-clock ``timings``, one key per
    stage.  Every field's meta names the quadrature rank.  The report is
    None for ``kappa > 0``, where the unscreened Gaussian-sum oracle is no
    reference.  ``on_parts(u_long, short)``, if given, is called once
    before the total takes the long field's array (``_total_stage``), so
    a hook that keeps the parts copies ``u_long.values``.  A run holds one
    n^3 field at its peak, the long part that takes the total, two with a
    hook, the parts, and four with a solve; a grid too large for them, as
    mapped address space or, where ``/proc/meminfo`` gives it, against
    ``MemAvailable``, is a ``MemoryError`` at once.  The comparison holds
    the total and one chunk of the oracle (``compare``).
    """
    timings = {}
    t_all = time.perf_counter()
    cfg.validate()
    _fix_malloc_thresholds()
    k = 4 if cfg.bc == "analytic" else 2 if on_parts is not None else 1
    need, avail = k * 8 * cfg.n ** 3, _mem_available()
    try:
        # mapped unwritten: the probe touches no page
        mmap.mmap(-1, need, flags=mmap.MAP_PRIVATE).close()
        fits = avail is None or need <= avail
    except (OSError, OverflowError):
        fits = False
    if not fits:
        raise MemoryError(
            "cannot allocate the %d %d^3 float64 field%s of the run's peak "
            "(%.3g GiB%s)" % (k, cfg.n, "s" if k > 1 else "", need / 2 ** 30,
                              "" if avail is None else ", %.3g GiB available"
                              % (avail / 2 ** 30)))
    rs, q, kernel, snapped, eps_eff = _assemble_stage(cfg, m, timings)
    grid = rs.grid

    u_long = _long_stage(rs, timings, cfg.kappa,
                         snapped if cfg.bc == "analytic" else None)
    total = _total_stage(rs, u_long, timings, on_parts)
    report = None
    if cfg.kappa == 0:  # no reference at kappa > 0: it is unscreened
        oracle = _oracle_rows(snapped, grid, "gaussian_sum", q)

        def chunk(r0, r1):  # compare reads the oracle a chunk at a time
            with _clock(timings, "oracle"):
                return oracle(r0, r1)

        with _clock(timings, "compare"):
            report = compare(total, chunk, exclude_centers=rs.nodes,
                             config={"oracle": "gaussian_sum"})
        timings["compare"] -= timings["oracle"]
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
        "max_snap_offset": _fmt(np.max(np.abs(snapped.positions - m.positions))),
        "oracle": "gaussian_sum" if report else "skipped",
    }
    if "residual" in total.meta:
        metrics["solver_residual"] = _fmt(total.meta["residual"])
    if report is not None:
        metrics.update({
            "l2_weighted": _fmt(report.discrete_l2),
            "l2_relative": _fmt(report.relative_l2),
            "rss": _fmt(report.rss),
            "max_abs": _fmt(report.max_abs),
            "max_abs_excl": _fmt(report.max_abs_excluding_cores),
        })
    return {"total": total, "rs": rs, "kernel": kernel, "molecule": snapped,
            "report": report, "metrics": metrics, "timings": timings,
            "quadrature": q}


def _fmt(v):
    return "%.17g" % float(v)


def run_pipeline(cfg, m, parts=False):
    """Run the pipeline and write the artifact bundle into ``cfg.outdir``.

    Writes the total field dump ``total.bin``, the RS bundle that
    ``assemble`` writes (``long.ct3``, ``short_template.ct3``,
    ``shortlist.json``), a deterministic ``metrics.txt`` (key=value,
    sorted), the stage wall times in ``timings.txt`` and, with an oracle,
    ``report.txt``.  With ``parts=True`` the parts ``ulong.bin`` and
    ``short.bin`` are written too, by the ``run_case`` hook, before the
    total takes the long part's array (``_dump_parts``).  The directory
    changes only if the run succeeds, and then holds only its outputs
    (``_outputs``).  Returns the in-memory bundle with a ``paths`` entry
    added: each output's final path.
    """
    with _outputs(cfg.outdir) as (path, paths):
        out = run_case(cfg, m, _dump_parts(path) if parts else None)
        save_field(out["total"], path("total.bin"))
        _write_bundle(out["rs"], path, cfg.bc, cfg.kappa)
        for name, kv, line in (("metrics.txt", out["metrics"], "%s=%s\n"),
                               ("timings.txt", out["timings"], "%s=%.3f\n")):
            with open(path(name), "w") as fh:
                fh.writelines(line % (k, kv[k]) for k in sorted(kv))
        if out["report"] is not None:
            write_report(out["report"], path("report.txt"))
    out["paths"] = paths
    return out


# every file run, solve and assemble write, each with its sidecars
_OUTPUTS = {"total.bin": (".info",), "ulong.bin": (".info",),
            "short.bin": (".info",), "long.ct3": (), "short_template.ct3": (),
            "shortlist.json": (), "metrics.txt": (), "timings.txt": (),
            "report.txt": (".kv",)}


@contextmanager
def _outputs(d):
    # (path, paths): path(name) is where a command writes its output name,
    # in a staging directory made in d at the first call, and paths maps
    # each name written to its place in d.  If the command returns, the
    # outputs (_OUTPUTS) it did not write leave d, an earlier command's
    # that would pass for its own, and its own move in with their
    # sidecars.  If it raises, the staging directory goes, and d too if
    # the command made it: d is left as it was
    paths, stage, made = {}, None, False

    def path(name):
        nonlocal stage, made
        if stage is None:
            made = not os.path.isdir(d)
            os.makedirs(d, exist_ok=True)
            stage = tempfile.mkdtemp(prefix=".rstensor-", dir=d)
        paths[name] = os.path.join(d, name)
        return os.path.join(stage, name)
    try:
        yield path, paths
        for name, sidecars in _OUTPUTS.items():
            for f in (name, *(name + s for s in sidecars)):
                if name in paths:
                    os.replace(os.path.join(stage, f), os.path.join(d, f))
                else:
                    with suppress(FileNotFoundError):
                        os.remove(os.path.join(d, f))
    except BaseException:
        if made:
            shutil.rmtree(d, ignore_errors=True)
        raise
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)


def _dump_parts(path):
    # the on_parts hook of --parts: both parts dumped where path puts them
    def dump(u_long, short):
        save_field(u_long, path("ulong.bin"))
        save_field(short, path("short.bin"))
    return dump


def _write_bundle(rs, path, bc="homogeneous", kappa=0.0):
    # the RS format of rs as assemble writes it and _load_bundle reads it,
    # with the faces and screening of the total it stands for, each file
    # where path puts it
    save_canonical(rs.long, path("long.ct3"))
    save_canonical(rs.short_reference, path("short_template.ct3"))
    side = {"n": rs.grid.n, "b": rs.grid.b, "gamma": rs.gamma,
            "bc": bc, "kappa": float(kappa),
            "quad_rank": rs.quad_rank, "rank_pre": rs.long_rank_pre,
            "rank_post": rs.long.rank,
            "centers": rs.nodes.tolist(), "weights": rs.weights.tolist()}
    with open(path("shortlist.json"), "w") as fh:
        # json.dumps runs the C encoder; json.dump, the same bytes, does not
        fh.write(json.dumps(side, sort_keys=True))


def export_slice(f, axis=None, index=None, fmt="csv", path="slice.csv"):
    """Export a field slice as CSV, or the full volume as legacy VTK.

    CSV: one ``# axis=.. index=..`` header line, then n rows of n
    comma-separated ``%.17e`` values (exact float64 round-trip).  VTK
    (``fmt="vtk"``): STRUCTURED_POINTS scalar volume, written only when
    ``axis`` and ``index`` are omitted.
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
        if axis is not None or index is not None:
            raise ConfigError("vtk export writes the full volume; omit axis "
                              "and index")
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
                        if getattr(args, f.name, None) is not None})


def _num_or_auto(kind):
    def conv(s):
        if s == "auto":
            return "auto"
        return kind(s)
    return conv


def _add_molecule(sp):
    # the molecule and the output directory, read by every molecule subcommand
    sp.add_argument("--seed", type=int, default=0,
                    help="synthetic cluster seed (default 0)")
    sp.add_argument("-o", "--outdir", default=None)
    sp.add_argument("--pqr", help="PQR file with ATOM/HETATM records")
    sp.add_argument("--synthetic", type=int, metavar="N",
                    help="seeded synthetic cluster with N atoms")
    sp.add_argument("--half-extent", dest="half_extent", type=float,
                    help="synthetic cluster half-extent in A")
    sp.add_argument("--min-sep", dest="min_sep", type=float, default=1.0)


def _add_assembly(sp):
    # grid, quadrature and split: what run and assemble build from
    sp.add_argument("--n", type=int, help="grid points per axis")
    sp.add_argument("--b", type=_num_or_auto(float), help="box half-width in A, or 'auto'")
    sp.add_argument("--rank", type=_num_or_auto(int), help="quadrature rank, or 'auto'")
    sp.add_argument("--eps-kernel", dest="eps_kernel", type=float)
    sp.add_argument("--sep-radius", dest="sep_radius", type=float,
                    help="short-range support radius in A (default 3.5)")
    sp.add_argument("--eps-support", dest="eps_support", type=float)
    sp.add_argument("--eps-c2t", dest="eps_c2t", type=float,
                    help="rank-reduction tolerance in units of h^2")


def _add_parts(sp):
    sp.add_argument("--parts", action="store_true",
                    help="also write the long and short parts, ulong.bin "
                         "and short.bin")


def _cmd_assemble(args):
    cfg = _config_from_args(args)
    m = _molecule_from_args(args)
    rs = _assemble_stage(cfg, m, {})[0]
    with _outputs(cfg.outdir) as (path, _):
        _write_bundle(rs, path)
    print("assembled %s: long rank %d -> %d, %d short contributions"
          % (m.name, rs.long_rank_pre, rs.long.rank, len(rs.weights)))
    return 0


def _load_bundle(d):
    # (RSTensor, bc, kappa) of the bundle in d; bc and kappa are those of
    # the total it stands for, homogeneous and 0 when not given
    path = os.path.join(d, "shortlist.json")
    try:
        with open(path) as fh:
            side = json.load(fh)
        grid = Grid3(side["n"], side["b"])
        nodes = np.array(side["centers"], dtype=float)
        weights = np.array(side["weights"], dtype=float)
        if (weights.ndim != 1 or nodes.shape != (weights.size, 3)
                or not np.all(np.isfinite(weights)) or np.any(
                    (nodes != np.round(nodes)) | (nodes < 0) | (nodes >= grid.n))):
            raise ValueError("centers must be N nodes in [0, %d)^3 with N "
                             "finite weights" % grid.n)
        gamma, rank_pre, quad_rank = (side[k] for k in
                                      ("gamma", "rank_pre", "quad_rank"))
        for key, v, low in (("gamma", gamma, 1), ("rank_pre", rank_pre, 0)):
            if int(v) != v or v < low:
                raise ValueError("%s must be an integer >= %d, not %r"
                                 % (key, low, v))
        if int(quad_rank) != quad_rank or not 1 <= quad_rank <= MAX_QUAD_RANK:
            raise ValueError("quad_rank must be an integer in [1, %d]"
                             % MAX_QUAD_RANK)
        bc, kappa = side.get("bc", "homogeneous"), side.get("kappa", 0.0)
        if bc not in ("homogeneous", "analytic"):
            raise ValueError("bc must be 'homogeneous' or 'analytic', not %r"
                             % (bc,))
        if not 0 <= kappa < np.inf:
            raise ValueError("kappa must be finite and >= 0, not %r" % (kappa,))
        if kappa > 0 and bc != "analytic":  # RunConfig refuses the pair
            raise ValueError("kappa %r needs bc 'analytic', not %r"
                             % (kappa, bc))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise DataError("malformed %s: %s %s" % (path, type(e).__name__, e))
    long = load_canonical(os.path.join(d, "long.ct3"))
    if long.shape != (grid.n,) * 3:
        raise DataError("long.ct3 in %s has shape %s, not the n=%d of "
                        "shortlist.json" % (d, long.shape, grid.n))
    template = load_canonical(os.path.join(d, "short_template.ct3"))
    w = template.shape[0]
    if template.shape != (w,) * 3 or w % 2 == 0:
        raise DataError("short_template.ct3 in %s has shape %s, not a cube "
                        "with an odd side" % (d, template.shape))
    return (RSTensor(grid, long, template, nodes.astype(np.int64), weights,
                     int(gamma), int(quad_rank), long_rank_pre=int(rank_pre)),
            bc, float(kappa))


def _cmd_solve(args):
    rs, bc, kappa = _load_bundle(args.indir)
    if bc != "homogeneous":
        # the bundle holds no molecule to rebuild the faces from
        raise ConfigError(
            "%s is the bundle of a bc=%s, kappa=%s run; solve composes "
            "homogeneous-face totals only" % (args.indir, bc, kappa))
    out = args.outdir or args.indir
    # the bundle read is written too: in place, the same bytes
    with _outputs(out) as (path, _):
        total = _total_stage(rs, _long_stage(rs, {}), {},
                             _dump_parts(path) if args.parts else None)
        save_field(total, path("total.bin"))
        _write_bundle(rs, path)
    print("wrote %s in %s" % ("total.bin, ulong.bin and short.bin"
                              if args.parts else "total.bin", out))
    return 0


def _cmd_run(args):
    cfg = _config_from_args(args)
    m = _molecule_from_args(args)
    out = run_pipeline(cfg, m, parts=args.parts)
    for k in sorted(out["metrics"]):
        print("%s=%s" % (k, out["metrics"][k]))
    print("artifacts in %s" % cfg.outdir)
    return 0


def _cmd_validate(args):
    # grid and quadrature rank are the dump's own, from its sidecar
    m = _molecule_from_args(args)
    f = load_field(args.field)
    grid, q = f.grid, None
    if args.oracle_kernel == "gaussian_sum":
        if "quad_rank" not in f.meta:
            raise DataError("%s.info names no quad_rank, the rank the "
                            "gaussian_sum oracle needs" % args.field)
        q = _resolve_quadrature(RunConfig(rank=f.meta["quad_rank"]), grid)
    snapped, (nodes, _) = snapped_molecule(m, grid)
    rep = compare(f, _oracle_rows(snapped, grid, args.oracle_kernel, q),
                  exclude_centers=nodes,
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
    _add_molecule(sp)
    _add_assembly(sp)

    sp = sub.add_parser("solve", help="compose the fields of an assembled bundle")
    sp.add_argument("-i", "--indir", required=True)
    sp.add_argument("-o", "--outdir", default=None)
    _add_parts(sp)

    sp = sub.add_parser("run", help="full pipeline with reports")
    _add_molecule(sp)
    _add_assembly(sp)
    sp.add_argument("--bc", choices=("homogeneous", "analytic"))
    sp.add_argument("--kappa", type=float,
                    help="screening in 1/A; needs --bc analytic")
    _add_parts(sp)

    sp = sub.add_parser("validate", help="compare a field dump to an oracle")
    _add_molecule(sp)
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
    except (ConfigError, MemoryError) as e:
        # a grid too large for memory is a configuration error
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except NumericError as e:
        print("numeric failure: %s" % e, file=sys.stderr)
        return 3
    except (DataError, OSError) as e:
        print("i/o error: %s" % e, file=sys.stderr)
        return 4

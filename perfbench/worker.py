"""One benchmark worker process: set up, run the timed phase, check, report.

``perfbench/run.py`` starts one worker per operation, with ``src`` on
``PYTHONPATH`` and the BLAS thread count in the environment:

    python3 perfbench/worker.py SPEC.json

The spec names the kind of work, the input PQR, the grid size, the seed and
the file the result goes to.  ``spec["spawn"]`` is the parent's monotonic
clock just before it started this process, so set-up time covers the
interpreter start, ``import rstensor`` and everything before the timed phase.

Kinds:
  pipeline  one cold ``run_pipeline``, then a seeded stream of
            ``spec["queries"]`` ``rs_eval_entry`` calls on its result;
  query     assemble through the public stages in set-up, then timed batches
            of ``rs_eval_entry`` calls;
  setup     parse the input and stop (a set-up time sample).
"""

import json
import os
import resource
import sys
import time

import numpy as np

import tracing

QUERY_BATCH = 1000   # rs_eval_entry calls in one timed query batch
CALIB_CALLS = 200    # rs_eval_entry calls between two calibration loops
REF_CALIB_S = 3e-4   # reference speed: the calibration loop takes 0.3 ms
UNIFORM_POOL = 5000  # uniform random nodes the query streams draw from
GAUSS_NODES = 2000   # non-atom nodes behind check.err_gauss
COULOMB_NODES = 20000  # non-atom nodes behind err_coulomb
# Relative L2 of the program's values against the Gaussian-sum oracle of its
# own quadrature.  The compression tolerance is eps_c2t*h^2 = 1e-8*h^2 and
# the workloads measure 1e-12 to 2e-9, so a real fault lands far above this.
TOL_GAUSS = 1e-6
# |rs_eval_entry - dense field| relative to max|field|: the two differ only
# by the identity Poisson solve, about 1e-13.
TOL_ENTRY = 1e-9


def load_package(root):
    import rstensor
    want = os.path.realpath(os.path.join(root, "src", "rstensor"))
    got = os.path.realpath(os.path.dirname(rstensor.__file__))
    if got != want:
        raise SystemExit("rstensor imported from %s, expected %s"
                         % (got, want))
    return rstensor


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def node_points(grid, nodes):
    return -grid.b + np.asarray(nodes, dtype=float) * grid.h


def gauss_at(points, pos, z, q):
    """Gaussian-sum potential sum_a z_a sum_k c_k exp(-t_k^2 r^2) at points."""
    t2 = q.nodes ** 2
    out = np.empty(len(points))
    for beg in range(0, len(points), 64):
        p = points[beg:beg + 64]
        r2 = np.sum((p[:, None, :] - pos[None]) ** 2, axis=2)
        out[beg:beg + 64] = (np.exp(-r2[..., None] * t2) @ q.weights) @ z
    return out


def coulomb_at(points, pos, z):
    """Exact sum_a z_a / r at points that are not atom positions."""
    out = np.empty(len(points))
    for beg in range(0, len(points), 256):
        p = points[beg:beg + 256]
        r = np.sqrt(np.sum((p[:, None, :] - pos[None]) ** 2, axis=2))
        out[beg:beg + 256] = (z / r).sum(axis=1)
    return out


def relerr(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def rms(d):
    return float(np.sqrt(np.mean(d * d)))


def storage_kb(rs):
    """RS footprint: long factors and weights, the short list, the template."""
    t = rs.short_reference
    floats = (rs.long.rank * (3 * rs.grid.n + 1) + 4 * len(rs.short_list)
              + t.rank * (sum(t.shape) + 1))
    return 8.0 * floats / 1024.0


def query_pool(rs, rng):
    """Atom-centre nodes followed by uniform random nodes, (N + P, 3) ints."""
    centres = np.array([c for c, _ in rs.short_list])
    uniform = rng.integers(0, rs.grid.n, (UNIFORM_POOL, 3))
    return np.concatenate([centres, uniform]), len(centres)


def query_stream(rng, n_centres, calls):
    """Pool indices: half at atom centres, half at uniform nodes, mixed."""
    at_centre = rng.random(calls) < 0.5
    return np.where(at_centre, rng.integers(0, n_centres, calls),
                    n_centres + rng.integers(0, UNIFORM_POOL, calls))


def calibration_loop(_a=np.linspace(0.0, 1.0, 128)):
    """CPU seconds for a fixed piece of interpreter and small-numpy work.

    The machine's speed drifts by up to 2x over minutes, with the load of the
    host, and per-call latency drifts with it.  This loop runs before every
    CALIB_CALLS calls; the query times of a worker are scaled to the
    reference speed REF_CALIB_S by the median of its loops.  The fastest of
    three rounds is taken, so an interrupt in one round does not count.
    Never change the loop: the scaled times are defined by it.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.thread_time()
        d = {}
        for i in range(1000):
            d[(i & 63, i & 7)] = (float(np.dot(_a[:64], _a[64:]))
                                  if i % 30 == 0 else i)
        best = min(best, time.thread_time() - t0)
    return best


def timed_calls(rt, rs, nodes, calib):
    """Evaluate rs at each node tuple, timing a calibration loop before
    every CALIB_CALLS calls and appending its time to ``calib``.

    Returns the wall seconds of the calls, per-call microseconds and the
    values.
    """
    f = rt.assembly.rs_eval_entry
    lat = np.empty(len(nodes))
    vals = np.empty(len(nodes))
    clock = time.perf_counter_ns
    wall = 0.0
    for beg in range(0, len(nodes), CALIB_CALLS):
        calib.append(calibration_loop())
        t0 = time.perf_counter()
        for j in range(beg, min(beg + CALIB_CALLS, len(nodes))):
            a = clock()
            vals[j] = f(rs, nodes[j])
            lat[j] = clock() - a
        wall += time.perf_counter() - t0
    return wall, lat / 1e3, vals


def speed_scale(calib):
    """Factor that takes a worker's times to the reference speed.

    One factor per worker, from the median of its calibration loops.  A
    factor per loop carries the noise of single loops into the tail
    percentiles (see perfbench/README.md).
    """
    return REF_CALIB_S / float(np.median(calib))


def percentiles(lat):
    """p50 and p99 of each batch of QUERY_BATCH calls, as two lists.

    A batch's p99 has 10 calls beyond it.  The median over batches keeps a
    burst of host load from setting the tail of a whole run.
    """
    b = lat[:len(lat) // QUERY_BATCH * QUERY_BATCH].reshape(-1, QUERY_BATCH)
    return {"calls": len(lat), "p50": np.percentile(b, 50, axis=1).tolist(),
            "p99": np.percentile(b, 99, axis=1).tolist()}


def non_atom_sample(rng, n, atom_nodes, count):
    taken = {tuple(c) for c in atom_nodes.tolist()}
    out = []
    while len(out) < count:
        c = tuple(int(v) for v in rng.integers(0, n, 3))
        if c not in taken:
            out.append(c)
    return np.array(out)


def run_pipeline_op(spec, rt, tracer, res):
    m = rt.cli.parse_pqr(spec["pqr"])
    cfg = rt.RunConfig(n=spec["n"], outdir=spec["outdir"])
    res["setup_s"] = time.monotonic() - spec["spawn"]
    phase(tracer, res, "setup")
    t0 = time.perf_counter()
    out = rt.cli.run_pipeline(cfg, m)
    res["run_s"] = [time.perf_counter() - t0]
    res["peak_rss_mb"] = peak_rss_mb()
    phase(tracer, res, "timed")

    rs, total, met = out["rs"], out["total"].values, out["metrics"]
    grid = rs.grid
    rng = np.random.default_rng([spec["seed"], 1])
    pool, n_centres = query_pool(rs, rng)
    idx = query_stream(rng, n_centres, spec["queries"])
    nodes = [tuple(c) for c in pool[idx].tolist()]
    calib = []
    _, raw, vals = timed_calls(rt, rs, nodes, calib)
    res["latency_us"] = percentiles(raw * speed_scale(calib))
    res["latency_raw_us"] = percentiles(raw)
    phase(tracer, res, "query")

    snapped = out["molecule"]
    pos, z = snapped.positions, snapped.charges
    atom_nodes = np.array([c for c, _ in rs.short_list])
    sample = non_atom_sample(np.random.default_rng([spec["seed"], 2]),
                             grid.n, atom_nodes, COULOMB_NODES)
    field = total[tuple(sample.T)]
    pts = node_points(grid, sample)
    exact = coulomb_at(pts, pos, z)
    res["err_coulomb"] = rms(field - exact)
    err_gauss = relerr(field[:GAUSS_NODES],
                       gauss_at(pts[:GAUSS_NODES], pos, z, out["quadrature"]))
    res["storage_kb"] = storage_kb(rs)
    ref = total[tuple(pool[idx].T)]
    entry_err = float(np.max(np.abs(vals - ref)) / np.max(np.abs(total)))
    snap_off = float(np.max(np.abs(snapped.positions - m.positions)))
    res["checks"] = {"err_gauss": err_gauss, "entry_err": entry_err,
                     "l2_relative": float(met["l2_relative"]),
                     "err_coulomb_rel": relerr(field, exact)}
    ok = {
        "atoms": met["atoms"] == spec["atoms"] == len(rs.short_list),
        "rank_post": met["rank_post"] == rs.long.rank,
        "rank_pre": met["rank_pre"] == rs.long_rank_pre
        == spec["atoms"] * met["split_long"],
        "snap": snap_off <= 0.5 * grid.h + 1e-9,
        "err_gauss": err_gauss <= TOL_GAUSS,
        "l2_relative": float(met["l2_relative"]) <= TOL_GAUSS,
        "err_coulomb": bool(np.isfinite(res["err_coulomb"])),
        "entries": entry_err <= TOL_ENTRY,
        "total.bin": os.path.getsize(out["paths"]["total.bin"])
        == 8 * grid.n ** 3,
    }
    res["ops"] = 1
    res["failed"] = int(not all(ok.values()))
    res["fail_reasons"] = sorted(k for k, v in ok.items() if not v)


def assemble(rt, m, n, rank):
    """The RS format of ``m`` through the public stages.

    Rank-``rank`` quadrature on the auto box and the ``RunConfig()``
    tolerances.  Returns the RSTensor, the quadrature, the snapped molecule
    and the seconds spent in ``assemble_collective``.
    """
    cfg = rt.RunConfig(n=n, rank=rank)
    grid = rt.Grid3(cfg.n, rt.cli.resolve_box(cfg, m))
    gamma = rt.gamma_for_separation(grid, cfg.sep_radius)
    q = rt.grid_kernel.build_quadrature(cfg.rank, grid.h,
                                        2.0 * np.sqrt(3.0) * grid.b)
    kernel = rt.grid_kernel.split_reference(
        rt.grid_kernel.assemble_reference_tensor(q, grid), gamma,
        cfg.eps_support)
    snapped, _ = rt.assembly.snapped_molecule(m, grid)
    eps = (cfg.eps_c2t * grid.h ** 2 if cfg.eps_scaling == "mesh"
           else cfg.eps_c2t)
    t0 = time.perf_counter()
    rs = rt.assembly.assemble_collective(snapped, kernel, eps)
    return rs, q, snapped, time.perf_counter() - t0


def run_query_session(spec, rt, tracer, res):
    m = rt.cli.parse_pqr(spec["pqr"])
    rs, q, snapped, _ = assemble(rt, m, spec["n"], spec["rank"])
    grid = rs.grid
    rs.template_dense()
    rs.cell_index()
    rng = np.random.default_rng([spec["seed"], 1, spec["index"]])
    pool, n_centres = query_pool(rs, rng)
    res["setup_s"] = time.monotonic() - spec["spawn"]
    phase(tracer, res, "setup")

    batch_raw_s, raw, vals, idx, calib = [], [], [], [], []
    deadline = time.monotonic() + spec.get("seconds", 0.0)
    while len(batch_raw_s) < spec.get("batches", 1) \
            or time.monotonic() < deadline:
        ib = query_stream(rng, n_centres, QUERY_BATCH)
        nodes = [tuple(c) for c in pool[ib].tolist()]
        wall, r, v = timed_calls(rt, rs, nodes, calib)
        batch_raw_s.append(wall)
        raw.append(r)
        vals.append(v)
        idx.append(ib)
    res["peak_rss_mb"] = peak_rss_mb()
    phase(tracer, res, "timed")
    scale = speed_scale(calib)
    raw = np.concatenate(raw)
    res["run_s"] = [w * scale for w in batch_raw_s]
    res["run_raw_s"] = batch_raw_s
    res["latency_us"] = percentiles(raw * scale)
    res["latency_raw_us"] = percentiles(raw)

    pos, z = snapped.positions, snapped.charges
    pts = node_points(grid, pool)
    gauss = gauss_at(pts, pos, z, q)
    err_gauss = [relerr(v, gauss[i]) for v, i in zip(vals, idx)]
    atom_set = {tuple(c) for c in pool[:n_centres].tolist()}
    far = np.array([i >= n_centres and tuple(pool[i]) not in atom_set
                    for i in range(len(pool))])
    # each queried non-atom node once: entries do not change between calls
    v_all, i_all = np.concatenate(vals), np.concatenate(idx)
    nodes_hit, first = np.unique(i_all, return_index=True)
    keep = far[nodes_hit]
    v_far, exact = v_all[first[keep]], coulomb_at(pts[nodes_hit[keep]], pos, z)
    res["err_coulomb"] = rms(v_far - exact)
    res["storage_kb"] = storage_kb(rs)
    res["checks"] = {"err_gauss": max(err_gauss),
                     "err_coulomb_rel": relerr(v_far, exact)}
    res["ops"] = len(batch_raw_s)
    res["failed"] = sum(e > TOL_GAUSS for e in err_gauss)
    res["fail_reasons"] = ["err_gauss"] if res["failed"] else []
    if not (np.isfinite(res["err_coulomb"]) and m.n_atoms == spec["atoms"]
            == len(rs.short_list)):
        res["failed"] = res["ops"]
        res["fail_reasons"].append("err_coulomb or atoms")


def run_setup_only(spec, rt, tracer, res):
    m = rt.cli.parse_pqr(spec["pqr"])
    res["setup_s"] = time.monotonic() - spec["spawn"]
    res["ops"] = 1
    res["failed"] = int(m.n_atoms != spec["atoms"])
    res["fail_reasons"] = ["atoms"] if res["failed"] else []


def phase(tracer, res, name):
    """Close a traced phase: summarize its spans and keep them for the file."""
    if tracer is None:
        return
    spans = tracer.take()
    per_name, layers = tracing.summarize(spans)
    res["phases"][name] = {"per_name": per_name, "layers": layers,
                           "spans": len(spans)}
    res["spans"][name] = spans


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    rt = load_package(spec["root"])
    tracer = None
    res = {"kind": spec["kind"]}
    if spec.get("trace"):
        tracer = tracing.Tracer()
        tracer.install(tracing.targets(rt))
        res["phases"], res["spans"] = {}, {}
    run = {"pipeline": run_pipeline_op, "query": run_query_session,
           "setup": run_setup_only}[spec["kind"]]
    try:
        run(spec, rt, tracer, res)
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        res["counts"] = dict(tracer.counts)
        res["call_cost_s"] = tracer.call_cost()
        with open(spec["result"] + ".spans.json", "w") as fh:
            json.dump(res.pop("spans"), fh)
    with open(spec["result"], "w") as fh:
        json.dump(res, fh)


if __name__ == "__main__":
    main()

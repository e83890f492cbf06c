"""rstensor benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation runs in a fresh worker process (``perfbench/worker.py``),
one at a time, with ``src`` on ``PYTHONPATH`` and as many BLAS threads as
the process may use cores.  Inputs come from ``--seed``; the worker checks
each operation's output.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer metrics.  The lines before it
repeat each metric with its unit and sample count.  Scratch files go to
``.perfbench_work/`` in the checkout; a traced run leaves its spans there.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0   # seconds after the start at which a late worker is killed
SETUP_SAMPLES = 2    # set-up-only workers per pipeline run, one before the
                     # pipeline operations and one after
QUERY_WORKERS = 3    # query sessions per query run, each with its own set-up
TRACE_BATCHES = 10   # query batches in each traced query session
TRACE_QUERIES = 3000  # rs_eval_entry calls after each traced run_pipeline

# "queries": rs_eval_entry calls on each pipeline result.  Entries of the
# 2000-atom result read 29 MB of factors, so their latency follows the
# host's memory load and needs a longer window to settle.
# "min_ops": pipeline operations a run makes even when they outlast
# --seconds, so that the count does not follow the speed of the machine.
WORKLOADS = {
    # n^3 layers and the cold quadrature tune dominate; no rank reduction
    "ligand18-n257": {"kind": "pipeline", "n": 257, "queries": 10000,
                      "min_ops": 2,
                      "fixture": "fixtures/ligand18.pqr", "atoms": 18},
    # assembly, rank reduction and the oracle dominate
    "cluster2000-n129": {"kind": "pipeline", "n": 129, "queries": 30000,
                         "min_ops": 1,
                         "atoms": 2000, "half_extent": 20.5, "min_sep": 1.0},
    # reads the RS format: only rs_eval_entry is timed
    "query400-n129": {"kind": "query", "n": 129, "atoms": 400,
                      "half_extent": 12.0, "min_sep": 1.0, "rank": 29},
}


def environment(threads):
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": threads}


class Runner:
    """Starts workers one at a time, all within DEADLINE_S of the first."""

    def __init__(self, root, work, wl, seed, pqr):
        self.root, self.work, self.wl = root, work, wl
        self.seed, self.pqr = seed, pqr
        self.t_end = time.monotonic() + DEADLINE_S
        self.count = 0

    def spawn(self, kind, threads, **extra):
        self.count += 1
        tag = os.path.join(self.work, "w%02d" % self.count)
        spec = {"root": self.root, "kind": kind, "pqr": self.pqr,
                "n": self.wl["n"], "atoms": self.wl["atoms"],
                "seed": self.seed,
                "rank": self.wl.get("rank"), "queries": self.wl.get("queries"),
                "outdir": tag + "-out",
                "result": tag + ".json", **extra}
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
            env[k] = str(threads)
        spec["spawn"] = time.monotonic()
        with open(tag + ".spec.json", "w") as fh:
            json.dump(spec, fh)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 tag + ".spec.json"], cwd=self.root, env=env,
                timeout=max(1.0, self.t_end - time.monotonic()))
            ok = proc.returncode == 0
        except subprocess.TimeoutExpired:
            ok = False
        shutil.rmtree(spec["outdir"], ignore_errors=True)
        if not ok or not os.path.exists(spec["result"]):
            print("worker %s (%s) failed" % (tag, kind), file=sys.stderr)
            return {"kind": kind, "ops": 1, "failed": 1,
                    "fail_reasons": ["worker"]}
        with open(spec["result"]) as fh:
            res = json.load(fh)
        if res["failed"]:
            print("worker %s (%s): failed checks %s, values %s"
                  % (tag, kind, res["fail_reasons"], res.get("checks")),
                  file=sys.stderr)
        return res


def make_input(root, work, wl, seed):
    if "fixture" in wl:
        return os.path.join(root, wl["fixture"])
    return gen.write_cluster_pqr(os.path.join(work, "input.pqr"), wl["atoms"],
                                 wl["half_extent"], wl["min_sep"], seed)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def end_to_end(runner, wl, seconds, threads):
    """Untraced run: samples of every end-to-end metric."""
    results = []
    if wl["kind"] == "pipeline":
        # set-up samples on both sides of the pipeline operations, so that
        # neither a slow spell of the host nor the exit of a large worker
        # sets all of them
        for _ in range(SETUP_SAMPLES // 2):
            results.append(runner.spawn("setup", threads))
        t_stop = time.monotonic() + seconds
        ops = 0
        while ops < wl["min_ops"] or time.monotonic() < t_stop:
            results.append(runner.spawn("pipeline", threads))
            ops += 1
        for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2):
            results.append(runner.spawn("setup", threads))
    else:
        for i in range(QUERY_WORKERS):
            results.append(runner.spawn("query", threads, index=i,
                                        seconds=seconds / QUERY_WORKERS))
    # the median over workers, or over operations for run_s
    done = [r for r in results if "setup_s" in r]
    ops = [r for r in done if r["kind"] != "setup"]
    samples = {
        "run_s": [s for r in ops for s in r["run_s"]],
        "setup_s": [r["setup_s"] for r in done],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ops],
        "storage_kb": [r["storage_kb"] for r in ops],
        "err_coulomb": [r["err_coulomb"] for r in ops],
    }
    values = {k: float(median(v)) for k, v in samples.items()}
    counts = {k: "%d workers" % len(v) for k, v in samples.items()}
    counts["run_s"] = "%d operations" % len(samples["run_s"])
    # query times are scaled to the reference speed (worker.calibration_loop);
    # the unscaled wall-clock figures are printed beside them
    if wl["kind"] == "query":
        counts["run_s"] += ", unscaled %.4g" % median(
            [s for r in ops for s in r["run_raw_s"]])
    calls = sum(r["latency_us"]["calls"] for r in ops)
    for name, p in (("query_us_p50", "p50"), ("query_us_p99", "p99")):
        # the median over every batch of 1000 calls in the run
        per_batch = [v for r in ops for v in r["latency_us"][p]]
        raw = [v for r in ops for v in r["latency_raw_us"][p]]
        values[name] = float(median(per_batch))
        counts[name] = "%d batches, %d calls, unscaled %.4g" % (
            len(per_batch), calls, median(raw))
    return results, values, counts


def per_layer(runner, wl, threads):
    """Traced run: one traced operation at nproc BLAS threads, one at 1."""
    extra = ({"index": 0, "batches": TRACE_BATCHES}
             if wl["kind"] == "query" else {"queries": TRACE_QUERIES})
    traced = runner.spawn(wl["kind"], threads, trace=1, **extra)
    single = runner.spawn(wl["kind"], 1, trace=1, **extra)
    results = [traced, single]
    values = {}
    for suffix, res in (("", traced), (".1t", single)):
        if "phases" not in res:
            continue
        vals = layer_values(res)
        # one run_pipeline per traced worker: its layers' self times add up
        # to its wall time unless spans overlapped or went missing
        self_sum = sum(res["phases"]["timed"]["layers"].values())
        if wl["kind"] == "pipeline" and abs(self_sum - vals["trace.run_s"]) \
                > 0.01 * vals["trace.run_s"]:
            print("layer self times sum to %.3f s, run_s is %.3f s"
                  % (self_sum, vals["trace.run_s"]), file=sys.stderr)
            res["failed"] = 1
        for name, v in vals.items():
            if suffix == "" or name.endswith((".s", "self_s", "run_s")):
                values[name + suffix] = v
    return results, values


def layer_values(res):
    """Per-layer metrics from one traced worker's phases and counts."""
    out = dict(res["counts"])
    for ph in res["phases"].values():
        for name, d in ph["per_name"].items():
            for k in ("s", "self_s", "calls"):
                key = "%s.%s" % (name, k)
                out[key] = out.get(key, 0.0) + d[k]
    ops = len(res["run_s"])
    for layer, s in res["phases"]["timed"]["layers"].items():
        out["layer.%s.self_s" % layer] = s / ops
    out["trace.run_s"] = median(res.get("run_raw_s", res["run_s"]))
    for k, v in res["checks"].items():
        out["check." + k] = v
    # what the wrappers add to one operation: spans times the cost of one
    out["trace.overhead_s"] = (res["call_cost_s"]
                               * res["phases"]["timed"]["spans"] / ops)
    for ratio, part, whole in (
            ("formats.reduce_rank.kept_ratio", "formats.reduce_rank.kept",
             "formats.reduce_rank.calls"),
            ("assembly.nearby_atoms.hits_mean", "assembly.nearby_atoms.hits",
             "assembly.nearby_atoms.calls")):
        calls = out.get(whole, 0)
        out[ratio] = out.pop(part, 0) / calls if calls else 0.0
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run still kills and waits for its worker (subprocess.run
    # does that when an exception interrupts it)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rstensor",
                                       "__init__.py")):
        print("no rstensor sources under %s/src; run from a checkout root"
              % root, file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wl = WORKLOADS[args.workload]
    work = os.path.join(root, ".perfbench_work", "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    threads = len(os.sched_getaffinity(0))
    runner = Runner(root, work, wl, args.seed,
                    make_input(root, work, wl, args.seed))
    print("env %s" % json.dumps(environment(threads), sort_keys=True))

    if args.trace:
        results, values = per_layer(runner, wl, threads)
        declared = bench["per_layer"]
        counts = {}
    else:
        results, values, counts = end_to_end(runner, wl, args.seconds, threads)
        declared = bench["end_to_end"]
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics, missing = {}, []
    for m in declared:
        v = values.get(m["name"], float("nan"))
        if args.trace and not np.isfinite(v) and tracing.known(m["name"]):
            v = 0.0   # the workload never reached this layer
        if not np.isfinite(v):
            # every worker that would have measured it failed
            print("metric %s has no sample" % m["name"], file=sys.stderr)
            missing.append(m["name"])
        metrics[m["name"]] = {"value": v if np.isfinite(v) else None,
                              "unit": m["unit"]}
        print("metric %-40s %14.6g %-6s n=%s" % (m["name"], v, m["unit"],
                                                  counts.get(m["name"], 1)))
    print("ops attempted=%d failed=%d" % (attempted, failed))
    # keep only the spans of a traced run
    for name in os.listdir(work):
        path = os.path.join(work, name)
        if os.path.isfile(path) and not name.endswith(".spans.json"):
            os.remove(path)
    print(json.dumps({"correct": failed == 0 and not missing,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())

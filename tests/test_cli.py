import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import rstensor as rt
from conftest import FIXTURES, same_bits
from helpers import (import_slice, negate, scatter_short_serial,
                     zero_ghost_solve)
from rstensor.cli import _resolve_quadrature

BORN = os.path.join(FIXTURES, "born.pqr")
LIGAND = os.path.join(FIXTURES, "ligand18.pqr")


def test_parse_born(born_mol):
    assert born_mol.n_atoms == 1
    assert born_mol.net_charge == pytest.approx(1.0)
    assert born_mol.radii[0] == pytest.approx(1.0)
    assert born_mol.name == "born"


def test_parse_ligand_net_charge(ligand_mol):
    assert ligand_mol.n_atoms == 18
    # independent column sum straight off the file text
    total = 0.0
    with open(LIGAND) as fh:
        for line in fh:
            toks = line.split()
            if toks and toks[0] in ("ATOM", "HETATM"):
                total += float(toks[-2])
    assert ligand_mol.net_charge == pytest.approx(total, abs=1e-12)
    assert abs(ligand_mol.net_charge) <= 1e-12


def test_parse_reports_bad_line_number(tmp_path):
    p = tmp_path / "bad.pqr"
    p.write_text("REMARK ok\nATOM 1 Q ION 1 0.0 0.0 zero 1.0 1.0\n")
    with pytest.raises(rt.DataError) as e:
        rt.parse_pqr(p)
    assert ":2:" in str(e.value)


def test_parse_skips_non_utf8_remark(tmp_path):
    # a Latin-1 byte outside a record ended in a UnicodeDecodeError
    # traceback (exit 1); non-record lines are ignored, bytes and all
    p = tmp_path / "latin.pqr"
    p.write_bytes(b"REMARK caf\xe9\nATOM 1 Q ION 1 0.5 0.0 -0.5 1.0 1.2\n")
    m = rt.parse_pqr(p)
    assert m.n_atoms == 1 and m.net_charge == 1.0
    assert np.array_equal(m.positions, [[0.5, 0.0, -0.5]])


@pytest.mark.parametrize("cmd", ["run", "validate"])
def test_non_ascii_byte_in_record_exit_code(tmp_path, capsys, cmd):
    # validate parses the molecule before it reads the field
    p = tmp_path / "bad.pqr"
    p.write_bytes(b"REMARK caf\xe9\nATOM 1 Q ION 1 0.0 0.0 0\xe9 1.0 1.0\n")
    args = [cmd, "--pqr", str(p), "-o", str(tmp_path)]
    if cmd == "validate":
        args += ["--field", str(tmp_path / "total.bin")]
    assert rt.main(args) == 4
    assert "i/o error: %s:2: malformed numeric field" % p \
        in capsys.readouterr().err


def test_parse_rejects_short_record(tmp_path):
    p = tmp_path / "short.pqr"
    p.write_text("ATOM 1 Q 0.0 1.0 1.0\n")
    with pytest.raises(rt.DataError) as e:
        rt.parse_pqr(p)
    assert "too few fields" in str(e.value)


def test_parse_rejects_empty(tmp_path):
    p = tmp_path / "empty.pqr"
    p.write_text("REMARK nothing here\n")
    with pytest.raises(rt.DataError):
        rt.parse_pqr(p)


def test_synthetic_cluster_deterministic():
    a = rt.synthetic_cluster(40, 6.0, min_sep=1.0, seed=9)
    b = rt.synthetic_cluster(40, 6.0, min_sep=1.0, seed=9)
    assert np.array_equal(a.positions, b.positions)
    assert a.n_atoms == 40
    assert a.net_charge == pytest.approx(0.0)
    assert np.max(np.abs(a.positions)) <= 6.0
    d = a.positions[:, None] - a.positions[None, :]
    dist = np.sqrt(np.sum(d * d, axis=2))
    np.fill_diagonal(dist, np.inf)
    assert np.min(dist) >= 1.0


def test_config_validation_messages():
    cfg = rt.RunConfig()
    cfg.validate()
    bad = [
        dict(n=2), dict(n=17), dict(b=-1.0), dict(rank=0),
        dict(sep_radius=0.0), dict(eps_kernel=0.0), dict(eps_support=2.0),
        dict(eps_c2t=-1e-9), dict(bc="periodic"), dict(kappa=-0.1),
        dict(kappa=0.5),
    ]
    messages = set()
    for kw in bad:
        with pytest.raises(rt.ConfigError) as e:
            dataclasses.replace(cfg, **kw).validate()
        messages.add(str(e.value))
    assert len(messages) == len(bad)


def test_resolve_box_margin_slack(ligand_mol):
    cfg = rt.RunConfig(n=129)
    b = rt.resolve_box(cfg, ligand_mol)
    g = rt.Grid3(129, b)
    gamma = rt.gamma_for_separation(g, cfg.sep_radius)
    margin = b - float(np.max(np.abs(ligand_mol.positions)))
    assert margin >= 0.5 * gamma * g.h + 2.0 * g.h - 1e-9


def test_resolve_box_needs_enough_nodes(born_mol):
    cfg = rt.RunConfig(n=7)
    with pytest.raises(rt.ConfigError):
        rt.resolve_box(cfg, born_mol)


def test_run_case_explicit_box_margin(born_mol):
    cfg = rt.RunConfig(n=33, b=2.0)
    with pytest.raises(rt.ConfigError) as e:
        rt.run_case(cfg, born_mol)
    assert "margin rule" in str(e.value)


def test_pipeline_deterministic(tmp_path, born_mol):
    outs = []
    for sub in ("a", "b"):
        cfg = rt.RunConfig(n=33, b=8.0, outdir=str(tmp_path / sub))
        rt.run_pipeline(cfg, born_mol)
        outs.append(tmp_path / sub)
    m1 = (outs[0] / "metrics.txt").read_bytes()
    m2 = (outs[1] / "metrics.txt").read_bytes()
    assert m1 == m2
    t1 = (outs[0] / "total.bin").read_bytes()
    t2 = (outs[1] / "total.bin").read_bytes()
    assert t1 == t2
    assert (outs[0] / "timings.txt").exists()
    assert b"timing" not in m1.lower()


def test_pipeline_metrics_content(tmp_path, born_mol):
    cfg = rt.RunConfig(n=33, b=8.0, outdir=str(tmp_path))
    out = rt.run_pipeline(cfg, born_mol, parts=True)
    met = dict(line.split("=", 1)
               for line in (tmp_path / "metrics.txt").read_text().splitlines())
    assert met["molecule"] == "born"
    assert int(met["atoms"]) == 1
    assert int(met["rank_post"]) <= int(met["rank_pre"])
    # homogeneous faces: the long part is the solution, no solve runs
    assert "solver_residual" not in met
    assert float(met["l2_weighted"]) > 0.0
    assert float(met["max_snap_offset"]) <= 0.5 * out["total"].grid.h + 1e-12
    for p in ("total.bin", "ulong.bin", "short.bin"):
        assert (tmp_path / p).exists()
        info = (tmp_path / (p + ".info")).read_text()
        assert "quad_rank=%s\n" % met["rank"] in info


def test_short_dump_is_short_field(tmp_path, born_mol):
    cfg = rt.RunConfig(n=33, b=8.0, outdir=str(tmp_path))
    out = rt.run_pipeline(cfg, born_mol, parts=True)
    short = rt.load_field(tmp_path / "short.bin")
    ref = rt.scatter_short(out["rs"], np.zeros((33, 33, 33)))
    assert np.array_equal(short.values, ref)
    tot, u_long = _dumps(tmp_path, "total.bin", "ulong.bin")
    assert np.allclose(tot, u_long + ref, atol=1e-15)


def _count_scatters(monkeypatch):
    # rebinds every module name holding scatter_short, so no caller is missed;
    # returns the list of (scale, array scattered into) pairs
    orig, made = rt.scatter_short, []

    def counted(rs, out, scale=1.0):
        made.append((scale, orig(rs, out, scale)))
        return made[-1][1]
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "rstensor":
            for attr, v in list(vars(mod).items()):
                if v is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return made


def _dumps(d, *names):
    return [rt.load_field(d / name).values for name in names]


def _run_parts(cfg, m):
    # run_case with an on_parts hook that keeps the parts, the long one
    # copied, as the total then takes its array; returns (result, u_long,
    # short) and checks that the hook ran once
    kept = []

    def keep(u_long, short):
        kept.append((rt.GridFunction3(u_long.grid, u_long.values.copy(
            order="K"), dict(u_long.meta)), short))
    out = rt.run_case(cfg, m, on_parts=keep)
    (u, short), = kept
    return out, u, short


@pytest.mark.parametrize("flags", [
    [], ["--bc", "analytic"], ["--bc", "analytic", "--kappa", "0.5"]],
    ids=["homogeneous", "analytic", "kappa"])
def test_run_scatters_short_once(tmp_path, monkeypatch, flags):
    # a --parts run scatters one short field, for its dump, and its total
    # is the dumped parts added, bit for bit, though the total's pass adds
    # the windows itself; at kappa > 0 the right-hand side gets its own
    # scatter, scaled by -kappa^2, and no n^3 short field of its own
    made = _count_scatters(monkeypatch)
    assert rt.main(["run", "--pqr", LIGAND, "--n", "33", "--parts", "-o",
                    str(tmp_path)] + flags) == 0
    total, u_long, short = _dumps(tmp_path, "total.bin", "ulong.bin",
                                  "short.bin")
    field = [out for scale, out in made if scale == 1.0]
    assert len(field) == 1
    assert np.array_equal(short, field[0])
    assert np.array_equal(total, u_long + short)
    kappa = float(flags[-1]) if "--kappa" in flags else 0.0
    assert len(made) == 1 + (kappa > 0)
    if kappa > 0:
        (scale, rhs), = [m for m in made if m[0] != 1.0]
        assert scale == -kappa * kappa
        # the solve kept the faces of its right-hand side and solved for
        # the interior: (-lap + kappa^2) u_long = rhs there
        for ax in range(3):
            for end in (0, -1):
                assert np.array_equal(np.moveaxis(rhs, ax, 0)[end],
                                      np.moveaxis(u_long, ax, 0)[end])
        grid = rt.load_field(tmp_path / "ulong.bin").grid
        lhs = -rt.apply_stencil_dense(rt.DiscreteLaplacian(grid, kappa),
                                      u_long)
        inner = (slice(1, -1),) * 3
        assert np.max(np.abs(lhs[inner] - rhs[inner])) \
            <= 1e-10 * np.max(np.abs(rhs[inner]))


def test_solve_scatters_short_once(tmp_path, monkeypatch):
    assert rt.main(["assemble", "--pqr", LIGAND, "--n", "33", "-o",
                    str(tmp_path)]) == 0
    made = _count_scatters(monkeypatch)
    assert rt.main(["solve", "-i", str(tmp_path), "--parts"]) == 0
    (scale, short), = made
    assert scale == 1.0
    total, u_long = _dumps(tmp_path, "total.bin", "ulong.bin")
    assert np.array_equal(total, u_long + short)


_BUNDLE = ["long.ct3", "short_template.ct3", "shortlist.json"]


def test_run_directory(tmp_path):
    # --parts adds the two part dumps, the run's own fields; a default
    # rerun writes the total, the RS bundle and the reports, and removes
    # the parts an earlier run left
    d = tmp_path / "run"
    cfg = rt.RunConfig(n=33, outdir=str(d))
    out = rt.run_pipeline(cfg, rt.parse_pqr(LIGAND), parts=True)
    parts = {name: (d / name).read_bytes() for name in ("ulong.bin",
                                                        "short.bin")}
    u_long = _run_parts(cfg, rt.parse_pqr(LIGAND))[1]
    assert parts["ulong.bin"] == u_long.values.tobytes(order="F")
    assert parts["short.bin"] == scatter_short_serial(
        out["rs"], np.zeros((33,) * 3, order="F")).tobytes(order="F")
    assert sorted(out["paths"]) == sorted(
        ["total.bin", "ulong.bin", "short.bin", "metrics.txt", "timings.txt",
         "report.txt"] + _BUNDLE)
    assert rt.main(["run", "--pqr", LIGAND, "--n", "33", "-o", str(d)]) == 0
    assert sorted(os.listdir(d)) == sorted(
        ["total.bin", "total.bin.info", "metrics.txt", "timings.txt",
         "report.txt", "report.txt.kv"] + _BUNDLE)
    assert (d / "total.bin").read_bytes() \
        == out["total"].values.tobytes(order="F")
    # solve reads the run's bundle: the same short part, and the long part
    # densified from the canonical terms to roundoff
    x = tmp_path / "solved"
    assert rt.main(["solve", "-i", str(d), "--parts", "-o", str(x)]) == 0
    assert sorted(os.listdir(x)) == sorted(
        ["total.bin", "ulong.bin", "short.bin", "total.bin.info",
         "ulong.bin.info", "short.bin.info"] + _BUNDLE)
    assert (x / "short.bin").read_bytes() == parts["short.bin"]
    a, b = np.frombuffer(parts["ulong.bin"]), np.fromfile(x / "ulong.bin")
    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))
    assert all((x / f).read_bytes() == (d / f).read_bytes() for f in _BUNDLE)
    assert rt.main(["solve", "-i", str(x)]) == 0
    assert sorted(os.listdir(x)) == sorted(["total.bin", "total.bin.info"]
                                           + _BUNDLE)



_CASE_CONFIGS = {"homogeneous": {}, "analytic": {"bc": "analytic"},
                 "kappa": {"bc": "analytic", "kappa": 0.5}}


@pytest.mark.parametrize("case", sorted(_CASE_CONFIGS))
def test_on_parts_runs_once_before_the_total(born_mol, monkeypatch, case):
    # the hook sees both parts after the scatter and before compose_total,
    # the oracle and compare, which reads the oracle; the total then takes
    # the long part's array, and it is the hook's two parts added, bit for
    # bit
    cfg = rt.RunConfig(n=33, b=8.0, **_CASE_CONFIGS[case])
    stages = []
    for name in ("compose_total", "_oracle_rows", "compare"):
        def traced(*args, _f=getattr(rt.cli, name), _name=name, **kwargs):
            stages.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(rt.cli, name, traced)
    seen = []

    def hook(u_long, short):
        stages.append("on_parts")
        seen.append((u_long.values, u_long.values.copy(order="K"),
                     short.values))
    out = rt.run_case(cfg, born_mol, on_parts=hook)
    oracle = ["_oracle_rows", "compare"] if case != "kappa" else []
    assert stages == ["on_parts", "compose_total"] + oracle
    (array, u_long, short), = seen
    assert out["total"].values is array
    assert same_bits(out["total"].values, u_long + short)
    assert np.any(short != 0) and np.any(u_long != 0)


@pytest.mark.parametrize("cmd", ["run", "solve"])
def test_failed_command_leaves_no_part_dumps(tmp_path, capsys, monkeypatch,
                                            cmd):
    # a run whose compare raises, or a solve whose compose_total does,
    # after the part dumps are staged leaves them out of d: beside the
    # earlier run's total.bin they would pass for its parts.  The earlier
    # run's outputs stay as they were
    d = tmp_path / "run"
    assert rt.main(["run", "--pqr", BORN, "--n", "33", "--b", "8", "-o",
                    str(d)]) == 0
    before = {f: (d / f).read_bytes() for f in os.listdir(d)}
    written = []

    def fail(*args, **kwargs):
        # the part dumps are staged, not yet in d
        stage, = (d / s for s in os.listdir(d) if s.startswith(".rstensor-"))
        written.extend(f for f in os.listdir(stage)
                       if f.startswith(("ulong", "short.")))
        raise rt.NumericError("injected")
    if cmd == "run":
        monkeypatch.setattr(rt.cli, "compare", fail)
        args = ["run", "--pqr", BORN, "--n", "33", "--b", "8", "--parts",
                "-o", str(d)]
    else:
        monkeypatch.setattr(rt.cli, "compose_total", fail)
        args = ["solve", "-i", str(d), "--parts"]
    assert rt.main(args) == 3
    assert "injected" in capsys.readouterr().err
    assert sorted(written) == ["short.bin", "short.bin.info", "ulong.bin",
                               "ulong.bin.info"]
    assert {f: (d / f).read_bytes() for f in os.listdir(d)} == before


@pytest.mark.parametrize("screening", [[], ["--kappa", "0.5"]],
                         ids=["analytic", "kappa"])
def test_solve_refuses_analytic_bundle(tmp_path, capsys, screening):
    # the total of a --bc analytic run is not the homogeneous-face total of
    # its bundle, which holds no molecule to rebuild the faces from: solve
    # refuses it before writing anything, in the run directory or not
    d = tmp_path / "run"
    assert rt.main(["run", "--pqr", BORN, "--n", "33", "--b", "8", "--bc",
                    "analytic", "-o", str(d)] + screening) == 0
    side = json.loads((d / "shortlist.json").read_text())
    assert (side["bc"], side["kappa"]) == ("analytic",
                                           float((screening or [0, 0])[1]))
    before = {f: (d / f).read_bytes() for f in os.listdir(d)}
    assert rt.main(["solve", "-i", str(d)]) == 2
    assert "bc=analytic" in capsys.readouterr().err
    assert rt.main(["solve", "-i", str(d), "-o", str(tmp_path / "x")]) == 2
    assert {f: (d / f).read_bytes() for f in os.listdir(d)} == before
    assert not (tmp_path / "x").exists()


def test_assemble_into_run_directory_leaves_only_its_bundle(tmp_path,
                                                           capsys):
    # the born run's total, metrics and report would pass for outputs of
    # the ligand18 bundle, and validate read the stale total without
    # complaint
    d = tmp_path / "run"
    assert rt.main(["run", "--pqr", BORN, "--n", "33", "--b", "8", "-o",
                    str(d)]) == 0
    assert rt.main(["assemble", "--pqr", LIGAND, "--n", "41", "-o",
                    str(d)]) == 0
    assert sorted(os.listdir(d)) == sorted(_BUNDLE)
    assert json.loads((d / "shortlist.json").read_text())["n"] == 41
    assert rt.main(["validate", "--pqr", LIGAND, "--field",
                    str(d / "total.bin"), "-o", str(tmp_path / "v")]) == 4
    assert "total.bin" in capsys.readouterr().err


def test_solve_into_run_directory_drops_its_reports(tmp_path):
    # solve rewrites total.bin; the run's metrics, times and report would
    # describe the run's total, so they go
    d = tmp_path / "run"
    assert rt.main(["run", "--pqr", BORN, "--n", "33", "--b", "8", "-o",
                    str(d)]) == 0
    assert json.loads((d / "shortlist.json").read_text())["bc"] \
        == "homogeneous"
    bundle = {f: (d / f).read_bytes() for f in _BUNDLE}
    assert rt.main(["solve", "-i", str(d)]) == 0
    assert sorted(os.listdir(d)) == sorted(["total.bin", "total.bin.info"]
                                           + _BUNDLE)
    assert {f: (d / f).read_bytes() for f in _BUNDLE} == bundle


@pytest.fixture(scope="module")
def born_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("born-run")
    assert rt.main(["run", "--pqr", BORN, "--n", "33", "--b", "8", "-o",
                    str(d)]) == 0
    return d


_RUN_WRITES = ["total.bin", "long.ct3", "short_template.ct3",
               "shortlist.json", "metrics.txt", "timings.txt", "report.txt"]
# each command with the outputs it writes, in order; {d} is the output
# directory, {src} a bundle of another quadrature rank
_INJECT = {
    "run": (["run", "--pqr", LIGAND, "--n", "33", "-o", "{d}"], _RUN_WRITES),
    "run-parts": (["run", "--pqr", LIGAND, "--n", "33", "--parts", "-o",
                   "{d}"], ["ulong.bin", "short.bin"] + _RUN_WRITES),
    "solve": (["solve", "-i", "{d}"], ["total.bin"] + _BUNDLE),
    "solve-o": (["solve", "-i", "{src}", "--parts", "-o", "{d}"],
                ["ulong.bin", "short.bin", "total.bin"] + _BUNDLE),
    "assemble": (["assemble", "--pqr", LIGAND, "--n", "33", "-o", "{d}"],
                 _BUNDLE),
}
# solve in place reads the directory it writes, so it has one that exists
_INJECT_CASES = [(case, target, name) for case, (_, writes) in _INJECT.items()
                 for target in ("existing", "new") for name in writes
                 if not (case == "solve" and target == "new")]


def _fail_at(monkeypatch, name):
    # every write of the cli module, a dump, a bundle file, a report or a
    # text file, raises OSError (a full disk) at the output `name`: a
    # dump or report once written, a text file at its open.  Returns the
    # outputs written, in order
    seen = []

    def check(path):
        seen.append(os.path.basename(path))
        if seen[-1] == name:
            raise OSError(28, "No space left on device", name)

    for f in ("save_field", "save_canonical", "write_report"):
        def failing(obj, path, _f=getattr(rt.cli, f)):
            _f(obj, path)
            check(path)
        monkeypatch.setattr(rt.cli, f, failing)

    def failing_open(path, mode="r", *args, **kwargs):
        if "w" in mode:
            check(path)
        return open(path, mode, *args, **kwargs)
    monkeypatch.setattr(rt.cli, "open", failing_open, raising=False)
    return seen


@pytest.mark.parametrize("case, target, name", _INJECT_CASES,
                         ids=["-".join(c) for c in _INJECT_CASES])
def test_failed_write_leaves_directory_as_it_was(tmp_path, capsys,
                                                 monkeypatch, born_run,
                                                 born_bundle, case, target,
                                                 name):
    # a command that fails at any write leaves an existing output
    # directory byte for byte as it was, and makes none where none was.
    # A ligand18 run whose report could not be written into a born run's
    # directory left its total, metrics and bundle beside born's report,
    # which then passed for theirs
    d = tmp_path / "out"
    if target == "existing":
        shutil.copytree(born_run, d)
    before = {f: (d / f).read_bytes() for f in os.listdir(d)} \
        if d.exists() else None
    args, writes = _INJECT[case]
    seen = _fail_at(monkeypatch, name)
    assert rt.main([a.format(d=d, src=born_bundle) for a in args]) == 4
    assert "No space left on device" in capsys.readouterr().err
    assert seen == writes[:writes.index(name) + 1]
    if before is None:
        assert not d.exists()
    else:
        assert {f: (d / f).read_bytes() for f in os.listdir(d)} == before


def test_export_zero_field_csv(tmp_path):
    g = rt.Grid3(9, 1.0)
    f = rt.GridFunction3(g, np.zeros((9, 9, 9)))
    p = tmp_path / "z.csv"
    rt.export_slice(f, axis=2, index=4, fmt="csv", path=str(p))
    vals = import_slice(str(p))
    assert vals.shape == (9, 9)
    assert np.all(vals == 0.0)


def test_export_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    g = rt.Grid3(9, 1.0)
    f = rt.GridFunction3(g, rng.standard_normal((9, 9, 9)))
    p = tmp_path / "s.csv"
    rt.export_slice(f, axis=1, index=3, fmt="csv", path=str(p))
    vals = import_slice(str(p))
    assert np.array_equal(vals, f.values[3])


def test_export_symmetric_midplane(tmp_path, born_mol):
    cfg = rt.RunConfig(n=33, b=8.0, outdir=str(tmp_path))
    out = rt.run_pipeline(cfg, born_mol)
    p = tmp_path / "mid.csv"
    rt.export_slice(out["total"], axis=3, index=16, fmt="csv", path=str(p))
    v = import_slice(str(p))
    scale = np.max(np.abs(v))
    assert np.max(np.abs(v - v[::-1])) <= 1e-12 * scale
    assert np.max(np.abs(v - v[:, ::-1])) <= 1e-12 * scale


def test_export_vtk_volume(tmp_path):
    rng = np.random.default_rng(1)
    g = rt.Grid3(9, 1.0)
    f = rt.GridFunction3(g, rng.standard_normal((9, 9, 9)))
    p = tmp_path / "v.vtk"
    rt.export_slice(f, fmt="vtk", path=str(p))
    lines = p.read_text().splitlines()
    assert lines[3] == "DATASET STRUCTURED_POINTS"
    assert lines[4] == "DIMENSIONS 9 9 9"
    vals = [float(x) for x in lines[10:]]
    assert len(vals) == 9 ** 3
    assert vals[0] == f.values[0, 0, 0]
    assert vals[1] == f.values[1, 0, 0]  # mode-1 fastest


def test_export_errors(tmp_path):
    g = rt.Grid3(9, 1.0)
    f = rt.GridFunction3(g, np.zeros((9, 9, 9)))
    with pytest.raises(rt.ConfigError):
        rt.export_slice(f, axis=4, index=0, fmt="csv", path=str(tmp_path / "x"))
    with pytest.raises(rt.ConfigError):
        rt.export_slice(f, axis=1, index=9, fmt="csv", path=str(tmp_path / "x"))
    with pytest.raises(rt.ConfigError):
        rt.export_slice(f, axis=1, index=0, fmt="vtk", path=str(tmp_path / "x"))
    # the volume has no slice: an index is an error, not ignored
    with pytest.raises(rt.ConfigError):
        rt.export_slice(f, index=5, fmt="vtk", path=str(tmp_path / "x"))
    rt.save_field(f, str(tmp_path / "f.bin"))
    assert rt.main(["export", "--field", str(tmp_path / "f.bin"), "--format",
                    "vtk", "--index", "5", "--out", str(tmp_path / "v")]) == 2
    assert not (tmp_path / "v").exists()
    with pytest.raises(rt.ConfigError):
        rt.export_slice(f, fmt="hdf", path=str(tmp_path / "x"))


def test_main_config_error_exit_code(tmp_path, capsys):
    rc = rt.main(["run", "--pqr", BORN, "--n", "2", "-o", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


# (bc, whether the run has an on_parts hook, the n^3 fields of its peak
# that run_case maps first): one for a run, the long field that the total's
# pass adds into a block of planes at a time (the comparison after it holds
# the total and a chunk of the oracle); two, the parts, with a hook; four
# with a solve
_PEAK_FIELDS = [("homogeneous", False, 1), ("homogeneous", True, 2),
                ("analytic", False, 4), ("analytic", True, 4)]
_MMAP = rt.cli.mmap.mmap


class _Started(Exception):
    pass


def _start(*args):
    # stands for the first stage of a run that the memory probe admitted
    raise _Started


def _capped_mmap(monkeypatch, cap):
    # every mapping above cap bytes fails, as on a host with so little
    # memory; the others are made
    def mmap(fileno, length, **kwargs):
        if length > cap:
            raise OSError(12, "Cannot allocate memory")
        return _MMAP(fileno, length, **kwargs)

    monkeypatch.setattr(rt.cli.mmap, "mmap", mmap)


def test_main_grid_too_large_exit_code(tmp_path, capsys, monkeypatch):
    # a grid whose peak of k n^3 fields cannot be mapped is reported as a
    # one-line configuration error, before any output is written and
    # before the quadrature, as k unwritten fields are mapped first.
    # 100001^3 floats cannot be mapped at all; at n = 33 a host that maps
    # one byte less than k fields refuses the run, and one that maps k
    # fields starts it
    monkeypatch.setattr("rstensor.cli.build_quadrature", _no_quadrature)
    monkeypatch.setattr(rt.cli, "_MEMINFO", str(tmp_path / "no-meminfo"))
    field = 8 * 33 ** 3
    for n in (100001, 33):
        for bc, parts, k in _PEAK_FIELDS:
            flags = ["--bc", bc] + (["--parts"] if parts else [])
            argv = ["run", "--pqr", BORN, "--n", str(n), "--b", "8"] + flags
            if n == 33:
                _capped_mmap(monkeypatch, k * field)
                with pytest.raises(AssertionError, match="quadrature"):
                    rt.main(argv + ["-o", str(tmp_path / "started")])
                _capped_mmap(monkeypatch, k * field - 1)
            out = tmp_path / ("%s-%d" % ("".join(flags), n))
            assert rt.main(argv + ["-o", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") \
                and err.count("\n") == 1, err
            assert "the %d %d^3 float64 field" % (k, n) in err, err
            assert not out.exists()


@pytest.mark.parametrize("bc, parts, k", _PEAK_FIELDS)
def test_run_case_maps_its_peak_fields(born_mol, monkeypatch, tmp_path, bc,
                                       parts, k):
    # the one mapping run_case makes before any work is its peak of k n^3
    # fields: it starts where k fields can be mapped, and is refused where
    # one byte less can
    cfg = rt.RunConfig(n=33, b=8.0, bc=bc)
    hook = (lambda u_long, short: None) if parts else None
    need, lengths = k * 8 * 33 ** 3, []

    def record(fileno, length, **kwargs):
        lengths.append(length)
        return _MMAP(fileno, length, **kwargs)

    monkeypatch.setattr(rt.cli, "_MEMINFO", str(tmp_path / "no-meminfo"))
    monkeypatch.setattr(rt.cli, "_assemble_stage", _start)
    for cap, started in ((need, True), (need - 1, False)):
        _capped_mmap(monkeypatch, cap)
        with pytest.raises(_Started if started else MemoryError):
            rt.run_case(cfg, born_mol, on_parts=hook)
    monkeypatch.setattr(rt.cli.mmap, "mmap", record)
    with pytest.raises(_Started):
        rt.run_case(cfg, born_mol, on_parts=hook)
    assert lengths == [need]


@pytest.mark.parametrize("bc, parts, k", _PEAK_FIELDS)
def test_run_case_checks_mem_available(born_mol, monkeypatch, tmp_path, bc,
                                       parts, k):
    # where meminfo gives MemAvailable, a run whose k fields exceed it is
    # refused with the MemoryError of an unmappable grid, before any work.
    # At n = 40 the k fields are a whole number of KiB, the unit of
    # MemAvailable, so a run starts at k fields and is refused one KiB
    # below; a meminfo without the line, or with a line that gives no
    # number, leaves the mapping to judge
    n = 40
    cfg = rt.RunConfig(n=n, b=8.0, bc=bc)
    hook = (lambda u_long, short: None) if parts else None
    kib = k * 8 * n ** 3 // 1024
    meminfo = tmp_path / "meminfo"
    monkeypatch.setattr(rt.cli, "_MEMINFO", str(meminfo))
    monkeypatch.setattr(rt.cli, "_assemble_stage", _start)
    for line, started in (("MemAvailable:   %d kB\n" % kib, True),
                          ("MemAvailable:   %d kB\n" % (kib - 1), False),
                          ("", True), ("MemAvailable:\n", True),
                          ("MemAvailable:   many kB\n", True)):
        meminfo.write_text("MemTotal:       8000000 kB\n" + line
                           + "Buffers:          1000 kB\n")
        assert (rt.cli._mem_available() is None) == ("kB" not in line
                                                     or "many" in line)
        with pytest.raises(_Started if started else MemoryError) as e:
            rt.run_case(cfg, born_mol, on_parts=hook)
        if not started:
            assert "the %d %d^3 float64 field" % (k, n) in str(e.value)
            assert "GiB available" in str(e.value)


def test_run_case_fixes_malloc_thresholds(born_mol, monkeypatch):
    # before its first block run_case pins glibc's mmap threshold at 1 MiB
    # and its trim threshold at 2 MiB, so freed n^3 blocks are unmapped,
    # not kept in the heap; a C library without mallopt is passed over
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    def refuse(fileno, length, **kwargs):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(rt.cli.ctypes, "CDLL", lambda name: Libc())
    monkeypatch.setattr(rt.cli.mmap, "mmap", refuse)
    with pytest.raises(MemoryError):
        rt.run_case(rt.RunConfig(n=33, b=8.0), born_mol)
    assert calls == [(-3, 2 ** 20), (-1, 2 ** 21)]
    monkeypatch.setattr(rt.cli.ctypes, "CDLL", lambda name: object())
    rt.cli._fix_malloc_thresholds()


@pytest.mark.parametrize("flags, keys", [
    ([], ["assemble", "compare", "compose", "dense", "kernel", "oracle",
          "quadrature", "scatter", "total"]),
    (["--bc", "analytic", "--kappa", "0.5"],
     ["assemble", "compose", "delta", "dense", "kernel", "quadrature",
      "scatter", "solve", "total"])], ids=["homogeneous", "kappa"])
def test_timings_have_one_key_per_stage(tmp_path, flags, keys):
    assert rt.main(["run", "--pqr", BORN, "--n", "33", "--b", "8",
                    "-o", str(tmp_path)] + flags) == 0
    assert sorted(_kv(tmp_path / "timings.txt")) == keys


def test_main_io_error_exit_code(tmp_path, capsys):
    rc = rt.main(["run", "--pqr", str(tmp_path / "missing.pqr"), "-o", str(tmp_path)])
    assert rc == 4
    assert "i/o error" in capsys.readouterr().err


def test_main_numeric_error_exit_code(tmp_path, capsys):
    # a nonzero field against the all-zero oracle of a chargeless molecule
    # has no relative error, which surfaces as a numeric failure
    rc = rt.main(["run", "--pqr", BORN, "--n", "33", "--b", "8",
                  "-o", str(tmp_path)])
    assert rc == 0
    p = tmp_path / "null.pqr"
    p.write_text("ATOM 1 Q ION 1 0.000 0.000 0.000 0.0000 1.0000\n")
    rc = rt.main(["validate", "--pqr", str(p),
                  "--field", str(tmp_path / "total.bin"), "-o", str(tmp_path)])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_main_assemble_solve_chain(tmp_path, capsys):
    d = str(tmp_path)
    rc = rt.main(["assemble", "--pqr", BORN, "--n", "33", "--b", "8", "-o", d])
    assert rc == 0
    rc = rt.main(["solve", "-i", d, "-o", d])
    assert rc == 0
    u = rt.load_field(tmp_path / "total.bin")
    assert np.max(np.abs(u.values)) > 0.0


def test_main_run_and_validate(tmp_path, capsys):
    d = str(tmp_path)
    rc = rt.main(["run", "--pqr", BORN, "--n", "33", "--b", "8", "-o", d])
    assert rc == 0
    out = capsys.readouterr().out
    assert "l2_weighted=" in out
    rc = rt.main(["validate", "--pqr", BORN,
                  "--field", os.path.join(d, "total.bin"), "-o", d])
    assert rc == 0
    assert "discrete L2" in capsys.readouterr().out
    assert os.path.exists(os.path.join(d, "report.txt"))


@pytest.fixture(scope="module")
def born_bundle(tmp_path_factory):
    d = tmp_path_factory.mktemp("bundle")
    assert rt.main(["assemble", "--pqr", BORN, "--n", "33", "--b", "8",
                    "--rank", "8", "-o", str(d)]) == 0
    return d


def _bundle_copy(src, dst):
    for name in ("long.ct3", "short_template.ct3", "shortlist.json"):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


@pytest.mark.parametrize("bc,kappa", [("homogeneous", 0.0),
                                      ("analytic", 0.0), ("analytic", 0.5)],
                         ids=["homogeneous", "analytic", "kappa"])
def test_run_case_fields_are_mode1_fastest(born_mol, bc, kappa):
    # fields share the dumps' layout, so save_field writes them without a
    # copy; the short template has it too, so each window add walks memory
    # in order
    cfg = rt.RunConfig(n=33, b=8.0, bc=bc, kappa=kappa)
    assert rt.run_case(cfg, born_mol)["total"].values.flags.f_contiguous
    flags = []

    def layouts(u_long, short):
        flags.append((u_long.values.flags.f_contiguous,
                      short.values.flags.f_contiguous))
    out = rt.run_case(cfg, born_mol, on_parts=layouts)
    assert out["total"].values.flags.f_contiguous
    (u_long, short), = flags
    assert u_long
    assert short
    assert out["rs"].template_dense().flags.f_contiguous


def test_solved_and_loaded_fields_are_mode1_fastest(born_bundle, tmp_path):
    rs = rt.cli._load_bundle(str(born_bundle))[0]
    u = rt.cli._long_stage(rs, {})
    parts = []
    total = rt.cli._total_stage(rs, u, {},
                                lambda u_long, short: parts.append(short))
    (short,) = parts
    assert u.values.flags.f_contiguous and total.values.flags.f_contiguous
    assert short.values.flags.f_contiguous
    assert rs.template_dense().flags.f_contiguous
    rt.save_field(total, tmp_path / "total.bin")
    loaded = rt.load_field(tmp_path / "total.bin")
    assert loaded.values.flags.f_contiguous
    assert np.array_equal(loaded.values, total.values)


@pytest.mark.parametrize("kernel", ["gaussian_sum", "exact_newton"])
def test_oracle_fields_are_mode1_fastest(born_mol, kernel):
    g = rt.Grid3(33, 8.0)
    q = rt.build_quadrature(8, g.h, 2 * np.sqrt(3.0) * g.b)
    f = rt.direct_sum_oracle(born_mol, g, kernel=kernel, quad=q)
    assert f.values.flags.f_contiguous


@pytest.mark.parametrize("bc", ["homogeneous", "analytic"])
@pytest.mark.parametrize("case", ["born97", "born161", "cluster60"])
def test_run_report_is_compare_of_total(born_mol, cluster60, case, bc):
    # the report is compare's of the total against the oracle, read a
    # block of i3 planes at a time: born at n=97 has 27 planes per block,
    # three full blocks and a ragged one of 16.  At n=161 the run streams
    # the oracle in two chunks of rows: its report is compare's of the
    # streamed oracle bit for bit, and within roundoff of the oracle built
    # over all rows in one call, whose GEMMs round differently.  A run
    # with an on_parts hook runs the stages of a plain run in the same
    # order, so the hook changes no bit of the total, the report or the
    # metrics; the result keeps no parts
    m, cfg = {"born97": (born_mol, rt.RunConfig(n=97, b=8.0, bc=bc)),
              "born161": (born_mol, rt.RunConfig(n=161, b=8.0, bc=bc)),
              "cluster60": (cluster60, rt.RunConfig(n=129, b=10.0, bc=bc))}[case]
    out, u, short = _run_parts(cfg, m)
    args = (out["molecule"], u.grid, "gaussian_sum", out["quadrature"])
    assert np.array_equal(out["total"].values, u.values + short.values)
    total = out["total"]
    ref, dense = (rt.compare(total, oracle, exclude_centers=out["rs"].nodes,
                             config={"oracle": "gaussian_sum"})
                  for oracle in (rt.validation._oracle_rows(*args),
                                 rt.direct_sum_oracle(*args)))
    assert dataclasses.asdict(out["report"]) == dataclasses.asdict(ref)
    got, want = dataclasses.asdict(ref), dataclasses.asdict(dense)
    if case == "born161":
        assert got.pop("config") == want.pop("config")
        want = pytest.approx(want, rel=1e-9, abs=0.0)
    assert got == want
    plain = rt.run_case(cfg, m)
    assert "u_long" not in plain and "short" not in plain
    assert same_bits(plain["total"].values, out["total"].values)
    assert dataclasses.asdict(plain["report"]) == dataclasses.asdict(ref)
    assert plain["metrics"] == out["metrics"]


def _traced_run_case(cfg, m, on_parts, monkeypatch):
    # (result, (bytes, ranks) of the Tucker image the long stage densifies
    # or None, traced peaks) of a run_case whose caches are filled.  The
    # peaks are those of four windows: the assembly, up to _long_stage's
    # call; the long field, up to _total_stage's; the parts and the total,
    # up to compare's; and the compare pass, after it
    peaks, images = [], []

    def reset_at(name):
        def traced(*args, _f=getattr(rt.cli, name), **kwargs):
            peaks.append(tracemalloc.get_traced_memory()[1])
            if name == "_long_stage":  # its size, not a reference to it
                t = args[0].long_image
                images.append(None if t is None else (t.core.nbytes + sum(
                    f.nbytes for f in t.factors), t.ranks))
            tracemalloc.reset_peak()
            return _f(*args, **kwargs)
        monkeypatch.setattr(rt.cli, name, traced)

    rt.run_case(cfg, m, on_parts)
    for name in ("_long_stage", "_total_stage", "compare"):
        reset_at(name)
    tracemalloc.start()
    try:
        out = rt.run_case(cfg, m, on_parts)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert len(peaks) == 4
    return out, images[0], peaks


def _plane_sum_bytes(n, c, R, points):
    # What _plane_sum holds summing R terms over the (N, 3) points into c
    # of the n mode-2 rows: its (n, c, n) output, its blocks of two-mode
    # products, the W shares' parts of at most 2^21 floats each and no
    # more than the unchunked block of G = min(n // R, Z) R products of
    # n x c floats; its three (R, distinct, rows) tables (the mode-2 one at
    # the c rows), the weighted copy of the first or the second copy that
    # makes the last contiguous, and a byte a table entry for the floor's
    # bool mask or the shift's node index; its tile buffers of at most
    # min(2^20, n^2 c / 8) floats, its W (n, G) mode-3 blocks and each
    # share's gathers of a plane's points, R x (points in the plane) x n
    # floats of mode-1 rows and twice as many of the mode-2 rows in a part
    W = min(n, rt.formats._slab_workers())
    u, inv = zip(*(np.unique(np.reshape(points, (-1, 3))[:, l],
                             return_inverse=True) for l in range(3)))
    u = [v.size for v in u]
    G = min(n // R, u[2]) * R
    rows = min(max(1, 2 ** 21 // (G * n)), -(-c // W))
    return (8 * (n * n * c + min(G * n * c, W * 2 ** 21)
                 + R * (n * (u[0] + u[2] + max(u[0], u[2])) + c * u[1])
                 + min(2 ** 20 // n, n * c // 8) * n + W * n * G
                 + W * R * np.bincount(inv[2]).max() * (n + 2 * rows))
            + R * max(u) * n)


def _pass_bytes(n, q, snapped, kernel="gaussian_sum"):
    # What a compare pass holds besides the field it reads: one chunk of
    # the oracle with its temporaries, and compare's own buffers.  The
    # largest chunk, of c mode-2 rows (validation._chunks), sets it.
    # The exact oracle's chunk: its values, its singular mask, one atom's
    # distances and their hit mask, 18 bytes a node.  The Gaussian sum's:
    # the plane sum of its q.rank terms over the atoms into the c rows.
    # compare's: its W buffers of max(1, 2^15 // n^2) n^2 floats, a
    # block's compacted reference or non-contiguous copy of it, and, per
    # centre, the sorted node copies and the 27 core nodes a worker clips
    # into a block
    W = min(n, rt.formats._slab_workers())
    c = max(r1 - r0 for r0, r1 in rt.validation._chunks(n))
    N = snapped.n_atoms
    compare = (2 * W * 8 * max(1, 2 ** 15 // n ** 2) * n * n
               + N * (4 * 24 + W * 27 * 3 * 24))
    if kernel == "exact_newton":
        return 18 * n * n * c + compare
    return _plane_sum_bytes(n, c, q.rank, snapped.positions) + compare


def _long_bytes(rs, image):
    # What the long stage holds besides what the run keeps: the long
    # field and the temporaries that densify it.  The explicit per-atom
    # sum is a plane sum over all n rows whose tables are the shifted
    # reference columns.  A Tucker image of ranks (r1, r2, r3) is held
    # until densified, by three mode products: each holds its operand and
    # its result, a copy of the core and the (n, r2, r1) product, that
    # product and the (n, r2, n) one, and that one and the field
    n = rs.grid.n
    if image is None:
        return _plane_sum_bytes(n, n, rs.long_reference.rank, rs.nodes)
    nbytes, (r1, r2, r3) = image
    return 8 * max(r1 * r2 * r3 + n * r2 * r1, n * r2 * (r1 + n),
                   n * r2 * n + n ** 3) + nbytes


def _kept_bytes(out):
    # what a run keeps besides its fields: the long factors, the long and
    # short reference columns, the short template, the kernel, and 256 KiB
    # of slack
    rs = out["rs"]
    return rs.template_dense().nbytes + sum(
        f.nbytes for t in (rs.long, rs.long_reference, rs.short_reference,
                           out["kernel"].wide_tensor) if t is not None
        for f in t.factors) + 2 ** 18


def _block_bytes(n):
    # compose_total's W block buffers: each worker's holds the smaller of a
    # block, max(1, _BLOCK // n^2) planes, and its slab of the n planes
    W = min(n, rt.formats._slab_workers())
    k = max(1, rt.solver._BLOCK // n ** 2)
    return 8 * n * n * sum(min(k, n * (j + 1) // W - n * j // W)
                           for j in range(W))


def _check_peaks(out, image, peaks, parts):
    # The traced peaks of _traced_run_case's windows.  The long stage
    # holds one field, the long part, beside what the run keeps, plus the
    # temporaries of _long_bytes that densify it.  From the total stage to
    # compare, a default run holds one n^3 float field, the long part that
    # takes the total, beside what it keeps, the W block buffers of the
    # compose pass (together at most one field, at n = 65 on two workers
    # a whole one), the W workers' products of a template window (one
    # template each) and the window list, under 1 KiB an atom: the short
    # field, allocated beside them, breaks the bound by a field less the
    # slack.  With parts the hook is shown both parts, two fields, with
    # the same products and window list.  The compare pass holds one
    # field, the total, plus one chunk of the oracle and the buffers of
    # _pass_bytes: a second field, the oracle built whole, breaks that
    # bound wherever a chunk is less than a field (n > 146).  Every
    # window, the assembly's too, also keeps the bound of a run that
    # composed its total in a new array and masked the cores in an n^3
    # bool: three fields, that mask, 2^18 // n^2 planes and the kept
    # arrays
    rs = out["rs"]
    n, kept = rs.grid.n, _kept_bytes(out)
    field, W = 8 * n ** 3, min(n, rt.formats._slab_workers())
    _, long_peak, stage_peak, compare_peak = peaks
    bound = _long_bytes(rs, image) + kept
    assert long_peak <= bound, (long_peak, bound)
    bound = ((2 * field if parts else field + _block_bytes(n))
             + W * rs.template_dense().nbytes + 2 ** 10 * len(rs.nodes)
             + kept)
    assert stage_peak <= bound, (stage_peak, bound)
    bound = field + _pass_bytes(n, out["quadrature"], out["molecule"]) + kept
    assert compare_peak <= bound, (compare_peak, bound)
    bound = 3 * field + n ** 3 + 8 * n * n * (2 ** 18 // n ** 2) + kept
    assert max(peaks) <= bound, (peaks, bound)


_PEAK_CASES = {"ligand18": 65, "cluster100": 65, "ligand18-n193": 193,
               "ligand18-3planes": 65}


def _peak_molecule(ligand_mol, case):
    return (rt.synthetic_cluster(100, 8.0, seed=1) if case == "cluster100"
            else ligand_mol)


@pytest.mark.parametrize("case", sorted(_PEAK_CASES)
                         + ["cluster100-parts", "ligand18-parts"])
def test_run_case_peak_holds_two_fields(ligand_mol, monkeypatch, tmp_path,
                                        case):
    # The long stage holds one field and the temporaries that densify it;
    # a second field held there breaks its bound at n = 193.  A default
    # run adds the short part into the long field's array a block of
    # planes at a time, with no n^3 short field, before the compare pass,
    # which reads the oracle one chunk of mode-2 rows at a time: its total
    # stage holds one n^3 float field and the block buffers, and the
    # compare pass one field and a chunk.  A short field held beside the
    # pass breaks the stage bound, and a copy of the total held at compare
    # the pass bound, in every case.  At n = 65 two workers' blocks are
    # their whole slabs, a field together, so the stage bound is two
    # fields there; with blocks of 3 planes, as at n = 257, the buffers
    # are 6 of 65 planes, and a short field scattered whole and added in
    # one pass, with no block buffers, breaks it as it does at n = 193.
    # The oracle built whole breaks the pass bound at n = 193, where a
    # chunk is 65 of 193 rows.  With parts the hook of run --parts dumps
    # both parts, two fields, before the pass and keeps neither.
    # cluster100's long part is reduced (2100 -> 2028): its Tucker image,
    # counted in the long stage alone, is dropped once densified (kept, it
    # broke the stage bound by 1.7 MB)
    case, parts = case.removesuffix("-parts"), case.endswith("-parts")
    m, n = _peak_molecule(ligand_mol, case), _PEAK_CASES[case]
    if case.endswith("-3planes"):
        monkeypatch.setattr(rt.solver, "_BLOCK", 3 * n * n)
    with rt.cli._outputs(str(tmp_path)) as (path, paths):
        out, image, peaks = _traced_run_case(
            rt.RunConfig(n=n), m, rt.cli._dump_parts(path) if parts else None,
            monkeypatch)
    assert sorted(paths) == (["short.bin", "ulong.bin"] if parts else [])
    assert "u_long" not in out and "short" not in out
    assert (out["rs"].long_reference is None) == (case == "cluster100")
    assert (image is None) == (case != "cluster100")
    _check_peaks(out, image, peaks, parts)


@pytest.mark.parametrize("kernel", ["gaussian_sum", "exact_newton"])
def test_validate_peak_holds_one_field(ligand_mol, tmp_path, kernel):
    # validate holds the field it reads, one chunk of the oracle and the
    # buffers of _pass_bytes, and no second n^3 field or mask: at n = 193
    # the oracle built whole broke the bound by one field (exact kernel: by
    # 2.5, with its n^3 singular mask and distance temporaries)
    n = 193
    rs, q, _, snapped, _ = rt.cli._assemble_stage(rt.RunConfig(n=n),
                                                  ligand_mol, {})
    field = rt.GridFunction3(rs.grid, np.zeros((n, n, n), order="F"),
                             {"quad_rank": rs.quad_rank})
    rt.save_field(field, str(tmp_path / "f.bin"))
    del field
    argv = ["validate", "--pqr", LIGAND, "--field", str(tmp_path / "f.bin"),
            "--oracle-kernel", kernel, "-o", str(tmp_path)]
    assert rt.main(argv) == 0  # caches filled outside
    tracemalloc.start()
    try:
        assert rt.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 8 * n ** 3 + _pass_bytes(n, q, snapped, kernel) + 2 ** 18
    assert peak <= bound, (peak, bound)


def test_analytic_run_without_sched_getaffinity(born_mol, monkeypatch):
    # the solve's transforms take the BLAS thread count, so a platform
    # without os.sched_getaffinity runs it too, to the same bits
    cfg = rt.RunConfig(n=33, b=8.0, bc="analytic")
    ref = _run_parts(cfg, born_mol)[1]
    monkeypatch.delattr(os, "sched_getaffinity")
    u = _run_parts(cfg, born_mol)[1]
    assert u.meta["bc"] == "trace"
    assert same_bits(u.values, ref.values)


@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_long_stage_analytic_peak(ligand_mol, kappa):
    # the faces go into the face layers of the right-hand side, which the
    # solve keeps as its Dirichlet values: at the DST the right-hand side,
    # the interior copy, its transform and the inverse transform (four n^3
    # arrays).  At kappa > 0 the short part is scattered into the
    # right-hand side, so no n^3 short field is held
    rs, _, _, snapped, _ = rt.cli._assemble_stage(rt.RunConfig(n=65),
                                                  ligand_mol, {})
    rt.cli._long_stage(rs, {}, kappa, snapped)  # caches filled outside
    tracemalloc.start()
    try:
        u = rt.cli._long_stage(rs, {}, kappa, snapped)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert u.meta["bc"] == "trace"
    n = rs.grid.n
    bound = 4 * 8 * n ** 3 + 2 ** 19
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("case", ["born", "cluster60"])
def test_analytic_faces_are_exact_oracle_faces(born_mol, cluster60, case):
    # at kappa = 0 the faces of the analytic solve and the exact oracle
    # come from one evaluator, bit for bit
    m, cfg = {"born": (born_mol, rt.RunConfig(n=33, b=8.0, bc="analytic")),
              "cluster60": (cluster60, rt.RunConfig(n=33, b=10.0,
                                                    bc="analytic"))}[case]
    out, u_long, _ = _run_parts(cfg, m)
    u = u_long.values
    ref = rt.direct_sum_oracle(out["molecule"], u_long.grid,
                               kernel="exact_newton").values
    for ax in range(3):
        for end in (0, -1):
            assert same_bits(np.moveaxis(u, ax, 0)[end],
                             np.moveaxis(ref, ax, 0)[end])


def _nan_weight(raw):
    # the first weight follows the 4-byte magic and the 32-byte header
    return raw[:36] + np.float64(np.nan).tobytes() + raw[44:]


def _cut_factors(keep):
    # factor k cut to its first keep(w)[k] rows, w the side of the window:
    # the non-cubic one crashed the scatter, the even one dropped a plane
    def damage(raw):
        dims = struct.unpack("<4Q", raw[4:36])
        R, sides = dims[3], keep(dims[0])
        cols, parts = np.frombuffer(raw, "<f8", offset=36 + 8 * R), []
        for n, k in zip(dims[:3], sides):
            A, cols = cols[:n * R].reshape((n, R), order="F"), cols[n * R:]
            parts.append(A[:k].tobytes(order="F"))
        return (raw[:4] + struct.pack("<4Q", *sides, R)
                + raw[36:36 + 8 * R] + b"".join(parts))
    return damage


@pytest.mark.parametrize("name,damage", [
    ("long.ct3", lambda raw: raw[:20]),
    ("long.ct3", lambda raw: raw[:-8]),
    ("long.ct3", lambda raw: raw + b"\0"),
    ("long.ct3", _nan_weight),
    ("short_template.ct3", _nan_weight),
    ("short_template.ct3", _cut_factors(lambda w: (w, 3, w))),
    ("short_template.ct3", _cut_factors(lambda w: (w - 1,) * 3))],
    ids=["header", "short", "trailing", "nan_long", "nan_template",
         "non_cubic_template", "even_template"])
def test_solve_malformed_ct3_exit_code(born_bundle, tmp_path, capsys, name,
                                       damage):
    d = _bundle_copy(born_bundle, tmp_path)
    (d / name).write_bytes(damage((d / name).read_bytes()))
    assert rt.main(["solve", "-i", str(d)]) == 4
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("key", ["gamma", "centers", "n", "quad_rank"])
def test_solve_incomplete_shortlist_exit_code(born_bundle, tmp_path, capsys,
                                              key):
    d = _bundle_copy(born_bundle, tmp_path)
    side = json.loads((d / "shortlist.json").read_text())
    del side[key]
    (d / "shortlist.json").write_text(json.dumps(side))
    assert rt.main(["solve", "-i", str(d)]) == 4
    err = capsys.readouterr().err
    assert "shortlist.json" in err and key in err



@pytest.mark.parametrize("edit,name", [
    ({"centers": [[16, 16]]}, "shortlist.json"),
    ({"centers": [[16, 16, 99]]}, "shortlist.json"),
    ({"quad_rank": 0}, "shortlist.json"),
    ({"b": float("inf")}, "shortlist.json"),
    ({"gamma": float("inf")}, "shortlist.json"),
    ({"gamma": 14.7}, "shortlist.json"),
    ({"gamma": 0}, "shortlist.json"),
    ({"gamma": -3}, "shortlist.json"),
    ({"rank_pre": 3.5}, "shortlist.json"),
    ({"rank_pre": -5}, "shortlist.json"),
    ({"n": 65}, "long.ct3"),
    ({"bc": "foo"}, "shortlist.json"),
    ({"bc": None}, "shortlist.json"),
    ({"bc": 5}, "shortlist.json"),
    ({"bc": ["homogeneous"]}, "shortlist.json"),
    ({"kappa": -0.5}, "shortlist.json"),
    ({"kappa": float("inf")}, "shortlist.json"),
    ({"kappa": float("nan")}, "shortlist.json"),
    ({"kappa": "0"}, "shortlist.json")],
    ids=["two_coordinates", "off_grid", "quad_rank_zero", "b_infinity",
         "gamma_infinity", "gamma_fraction", "gamma_zero", "gamma_negative",
         "rank_pre_fraction", "rank_pre_negative", "n",
         "bc_unknown", "bc_null", "bc_number", "bc_list", "kappa_negative",
         "kappa_infinity", "kappa_nan", "kappa_string"])
def test_solve_malformed_bundle_exit_code(born_bundle, tmp_path, capsys, edit,
                                          name):
    # each of these crashed, dropped the atom, exited 2 or was solved
    # without complaint before the bundle reader checked it; a fractional
    # gamma or rank_pre was truncated to an integer, a gamma <= 0 or a
    # negative rank_pre was solved (a zero gamma divides by zero in
    # cell_index), and a bc other than "homogeneous" was taken for the
    # config error of an analytic bundle
    d = _bundle_copy(born_bundle, tmp_path)
    side = json.loads((d / "shortlist.json").read_text())
    side.update(edit)
    (d / "shortlist.json").write_text(json.dumps(side))
    assert rt.main(["solve", "-i", str(d)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and name in err


@pytest.mark.parametrize("drop_bc", [False, True], ids=["homogeneous", "no_bc"])
def test_solve_refuses_screened_homogeneous_bundle(born_bundle, tmp_path,
                                                   capsys, drop_bc):
    # RunConfig refuses kappa > 0 without bc='analytic' (exit 2), so no run
    # writes that pair; a bundle naming it, or kappa > 0 and no bc, was
    # solved into an unscreened total without a word
    d = _bundle_copy(born_bundle, tmp_path)
    side = json.loads((d / "shortlist.json").read_text())
    side["kappa"] = 0.5
    if drop_bc:
        del side["bc"]
    (d / "shortlist.json").write_text(json.dumps(side))
    assert rt.main(["solve", "-i", str(d)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "shortlist.json" in err
    assert "kappa 0.5 needs bc 'analytic'" in err
    assert sorted(os.listdir(d)) == sorted(_BUNDLE)


@pytest.mark.parametrize("key", ["bc", "kappa"])
def test_solve_bundle_without_bc_or_kappa(born_bundle, tmp_path, key):
    # a bundle that names no bc or kappa stands for a homogeneous-face
    # total, as the bundles written before they were recorded do
    d = _bundle_copy(born_bundle, tmp_path)
    side = json.loads((d / "shortlist.json").read_text())
    del side[key]
    (d / "shortlist.json").write_text(json.dumps(side))
    assert rt.main(["solve", "-i", str(d)]) == 0
    assert sorted(os.listdir(d)) == sorted(["total.bin", "total.bin.info"]
                                           + _BUNDLE)


def _field_dump(tmp_path):
    g = rt.Grid3(5, 1.0)
    f = rt.GridFunction3(g, np.arange(125.0).reshape((5, 5, 5)))
    p = tmp_path / "f.bin"
    rt.save_field(f, p)
    return p


@pytest.mark.parametrize("damage", [
    lambda raw: raw[:-8],
    lambda raw: raw + b"\0"], ids=["short", "trailing"])
def test_export_wrong_size_dump_exit_code(tmp_path, capsys, damage):
    p = _field_dump(tmp_path)
    p.write_bytes(damage(p.read_bytes()))
    assert rt.main(["export", "--field", str(p), "--axis", "1", "--index",
                    "0", "--out", str(tmp_path / "s.csv")]) == 4
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda info: info.replace("n=5\n", ""),
    lambda info: info.replace("b=1\n", ""),
    lambda info: info.replace("n=5", "n=five"),
    lambda info: info.replace("b=1", "b=one"),
    lambda info: info.replace("b=1\n", "b=inf\n"),
    lambda info: info.replace("n=5", "n=2"),
    lambda info: info + "quad_rank=eight\n",
    lambda info: info + "quad_rank=0\n",
    lambda info: info + "quad_rank=100000000\n"],
    ids=["no-n", "no-b", "bad-n", "bad-b", "inf-b", "tiny-n", "bad-quad-rank",
         "zero-quad-rank", "huge-quad-rank"])
def test_export_malformed_info_exit_code(tmp_path, capsys, edit):
    p = _field_dump(tmp_path)
    info = tmp_path / "f.bin.info"
    text = info.read_text()
    assert "n=5\n" in text and "b=1\n" in text
    info.write_text(edit(text))
    assert rt.main(["export", "--field", str(p), "--axis", "1", "--index",
                    "0", "--out", str(tmp_path / "s.csv")]) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err and "f.bin.info" in err


@pytest.fixture(scope="module")
def born_total(tmp_path_factory):
    d = tmp_path_factory.mktemp("born")
    assert rt.main(["run", "--pqr", BORN, "--n", "33", "--b", "8",
                    "-o", str(d)]) == 0
    return rt.load_field(d / "total.bin")


@pytest.mark.parametrize("flags,echo", [
    (["--bc", "analytic"], {"bc": "analytic"}),
    (["--bc", "analytic", "--kappa", "0.5"], {"bc": "analytic", "kappa": "0.5"})],
    ids=["bc", "kappa"])
def test_run_options(tmp_path, capsys, flags, echo):
    rc = rt.main(["run", "--pqr", BORN, "--n", "33", "--b", "8",
                  "-o", str(tmp_path)] + flags)
    assert rc == 0
    met = dict(line.split("=", 1)
               for line in (tmp_path / "metrics.txt").read_text().splitlines())
    for k, v in echo.items():
        assert met[k] == v
    total = rt.load_field(tmp_path / "total.bin").values
    assert np.all(np.isfinite(total))
    if echo.get("bc") == "analytic":
        assert float(met["solver_residual"]) <= 1e-12


def test_screened_total_is_debye_hueckel(born_mol):
    # the total of a unit charge against exp(-kappa r)/r away from the
    # core; the error is the O(h^2) of the 7-point operator
    errs = {}
    for n in (33, 65):
        out = rt.run_case(rt.RunConfig(n=n, b=8.0, bc="analytic", kappa=0.5),
                          born_mol)
        x = out["total"].grid.coords()
        r = np.sqrt(x[:, None, None] ** 2 + x[None, :, None] ** 2
                    + x[None, None, :] ** 2)
        keep = r >= 1.0
        ref = np.exp(-0.5 * r[keep]) / r[keep]
        errs[n] = np.max(np.abs(out["total"].values[keep] - ref) / ref)
    assert errs[33] <= 1.5e-2
    assert errs[65] <= 4e-3
    assert errs[33] >= 3 * errs[65]


@pytest.mark.parametrize("cmd,flag,value", [
    ("run", "--gamma", "6"), ("validate", "--gamma", "6"),
    ("validate", "--sep-radius", "-4"),
    ("validate", "--eps-support", "1e-8"), ("validate", "--eps-c2t", "2.0"),
    ("validate", "--eps-scaling", "fixed"), ("validate", "--bc", "analytic"),
    ("validate", "--kappa", "0.5"), ("assemble", "--bc", "analytic"),
    ("assemble", "--kappa", "0.5"), ("run", "--eps-scaling", "mesh"),
    ("assemble", "--eps-scaling", "mesh"), ("validate", "--n", "33"),
    ("validate", "--b", "8"), ("validate", "--rank", "12"),
    ("validate", "--eps-kernel", "1e-6")])
def test_subcommand_rejects_unread_flag(tmp_path, capsys, cmd, flag, value):
    # validate reads grid and quadrature rank from the dump's sidecar
    argv = [cmd, "--pqr", BORN, flag, value, "-o", str(tmp_path)]
    argv += (["--field", str(tmp_path / "total.bin")] if cmd == "validate"
             else ["--n", "33", "--b", "8"])
    with pytest.raises(SystemExit) as e:
        rt.main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments: %s %s" % (flag, value) \
        in capsys.readouterr().err


def test_run_nan_charge_exit_code(tmp_path, capsys):
    p = tmp_path / "nan.pqr"
    p.write_text("ATOM 1 Q ION 1 0.000 0.000 0.000 nan 1.0000\n")
    assert rt.main(["run", "--pqr", str(p), "--n", "33", "--b", "8",
                    "-o", str(tmp_path)]) == 4
    assert "i/o error: atom charges must be finite" in capsys.readouterr().err


def test_run_negative_radius_names_record(tmp_path, capsys):
    p = tmp_path / "neg.pqr"
    p.write_text("REMARK two atoms\n"
                 "ATOM 1 Q ION 1 0.000 0.000 0.000 1.0 1.0000\n"
                 "ATOM 2 Q ION 1 1.000 0.000 0.000 -1.0 -0.5000\n")
    assert rt.main(["run", "--pqr", str(p), "--n", "33", "--b", "8",
                    "-o", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "i/o error: atom radii must be nonnegative (%s:3)" % p in err


def test_screened_run_skips_oracle(tmp_path):
    # the oracle is the unscreened Gaussian sum, so a kappa > 0 run has no
    # error figures; test_screened_total_is_debye_hueckel checks its total
    assert rt.main(["run", "--pqr", BORN, "--n", "33", "--b", "8", "--bc",
                    "analytic", "--kappa", "0.5", "-o", str(tmp_path)]) == 0
    met = dict(line.split("=", 1)
               for line in (tmp_path / "metrics.txt").read_text().splitlines())
    assert met["oracle"] == "skipped"
    assert not {"l2_weighted", "l2_relative", "rss", "max_abs",
                "max_abs_excl"} & set(met)
    assert not (tmp_path / "report.txt").exists()


def test_screened_rerun_drops_stale_report(tmp_path):
    # a kappa > 0 run into the directory of a run with the oracle leaves
    # no report beside its oracle=skipped metrics
    base = ["run", "--pqr", BORN, "--n", "33", "--b", "8", "-o", str(tmp_path)]
    assert rt.main(base) == 0
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "report.txt.kv").exists()
    assert rt.main(base + ["--bc", "analytic", "--kappa", "0.5"]) == 0
    met = dict(line.split("=", 1)
               for line in (tmp_path / "metrics.txt").read_text().splitlines())
    assert met["oracle"] == "skipped"
    assert not (tmp_path / "report.txt").exists()
    assert not (tmp_path / "report.txt.kv").exists()


@pytest.mark.parametrize("cmd", ["run", "assemble"])
def test_margin_rule_exit_code(tmp_path, capsys, cmd):
    # sep_radius 7.5 A is gamma=30 at h=0.5, which needs 8.5 A from each
    # face in a b=8 box
    rc = rt.main([cmd, "--pqr", BORN, "--n", "33", "--b", "8", "--sep-radius",
                  "7.5", "-o", str(tmp_path)])
    assert rc == 2
    assert "config error: margin rule violated" in capsys.readouterr().err
    assert not (tmp_path / "shortlist.json").exists()


@pytest.mark.parametrize("flags", [
    ["--sep-radius", "inf"], ["--b", "8", "--sep-radius", "inf"],
    ["--b", "8", "--sep-radius", "1e308"], ["--b", "inf"],
    ["--b", "8", "--bc", "analytic", "--kappa", "1e200"],
    ["--b", "8", "--bc", "analytic", "--kappa", "inf"]],
    ids=["sep-inf-auto-b", "sep-inf", "sep-1e308", "b-inf", "kappa-1e200",
         "kappa-inf"])
def test_run_non_finite_setting_exit_code(tmp_path, capsys, flags):
    # each ended in a ValueError or OverflowError traceback, or in a
    # numeric failure (exit 3), before it reached a configuration check
    rc = rt.main(["run", "--pqr", BORN, "--n", "33", "-o", str(tmp_path)]
                 + flags)
    assert rc == 2
    assert "config error: " in capsys.readouterr().err
    assert not (tmp_path / "metrics.txt").exists()


def _kv(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


@pytest.mark.parametrize("mol,grid", [(["--pqr", BORN], ["--b", "8"]),
                                      (["--pqr", LIGAND], [])],
                         ids=["born", "ligand18"])
def test_validate_exact_oracle_leaves_out_atom_nodes(tmp_path, mol, grid):
    # 1/r is undefined at an atom node, where the exact oracle stores 0;
    # counting those nodes read relative L2 0.186 (born) and 0.909
    # (ligand18), the defined nodes about 1e-8
    d = str(tmp_path)
    assert rt.main(["run", "-o", d, "--n", "65"] + mol + grid) == 0
    assert rt.main(["validate", "--field", os.path.join(d, "total.bin"),
                    "--oracle-kernel", "exact_newton", "-o", d] + mol) == 0
    kv = _kv(tmp_path / "report.txt.kv")
    assert kv["oracle"] == "exact_newton"
    assert float(kv["relative_l2"]) <= 1e-6
    assert float(kv["max_abs"]) <= 1e-6


def test_synthetic_default_seed_reproducible(tmp_path):
    flags = ["--synthetic", "20", "--half-extent", "4", "--n", "33",
             "--b", "12"]
    dumps = []
    for sub, extra in (("a", []), ("b", []), ("c", ["--seed", "0"])):
        d = tmp_path / sub
        assert rt.main(["assemble", "-o", str(d)] + flags + extra) == 0
        dumps.append((d / "shortlist.json").read_bytes())
    assert dumps[0] == dumps[1] == dumps[2]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_export_non_finite_dump_exit_code(tmp_path, capsys, bad):
    p = _field_dump(tmp_path)
    vals = np.fromfile(p, dtype="<f8")
    vals[17] = bad
    vals.tofile(p)
    assert rt.main(["export", "--field", str(p), "--axis", "1", "--index",
                    "0", "--out", str(tmp_path / "s.csv")]) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err and "non-finite" in err
    assert not (tmp_path / "s.csv").exists()


@pytest.fixture(scope="module")
def cluster60():
    return rt.synthetic_cluster(60, 5.0, seed=7)


@pytest.mark.parametrize("kappa", [0.0])
def test_u_long_matches_kronecker_route(cluster60, kappa):
    # the pipeline's long-range potential against the zero-ghost solve
    # of the dense image of the Kronecker form; kappa > 0 needs analytic
    # faces, whose u_long is not this solve
    out, u_long, _ = _run_parts(rt.RunConfig(n=33, b=10.0, kappa=kappa),
                                cluster60)
    rs = out["rs"]
    assert 0 < rs.long.rank < rs.long_rank_pre
    L = rt.DiscreteLaplacian(rs.grid, kappa)
    rhs = rt.dense(negate(rt.apply_kron_laplacian(rs.long, L)))
    ref = zero_ghost_solve(rhs, L).values
    u = u_long.values
    assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))


CLUSTER60 = ["--synthetic", "60", "--half-extent", "5.0", "--seed", "7",
             "--n", "33", "--b", "10"]


@pytest.fixture(scope="module")
def cluster60_defaults(tmp_path_factory):
    d = tmp_path_factory.mktemp("c60")
    assert rt.main(["run", "-o", str(d)] + CLUSTER60) == 0
    return _kv(d / "metrics.txt")


def test_eps_c2t_flag(tmp_path, cluster60_defaults):
    # the reduction tolerance is eps_c2t * h^2; a looser one keeps fewer
    # terms (795 -> 391) at a larger error (2.9e-5)
    assert rt.main(["run", "-o", str(tmp_path), "--eps-c2t", "1e-4"]
                   + CLUSTER60) == 0
    met, ref = _kv(tmp_path / "metrics.txt"), cluster60_defaults
    h = float(met["h"])
    assert float(met["eps_reduce"]) == 1e-4 * h * h
    assert float(ref["eps_reduce"]) == 1e-8 * h * h
    assert int(met["rank_post"]) < int(ref["rank_post"])
    assert float(ref["l2_relative"]) < float(met["l2_relative"]) <= 1e-4


def test_eps_kernel_flag(tmp_path, cluster60_defaults):
    # the auto rank is the smallest ladder rank meeting eps_kernel (24 -> 17)
    assert rt.main(["run", "-o", str(tmp_path), "--eps-kernel", "1e-4"]
                   + CLUSTER60) == 0
    met, ref = _kv(tmp_path / "metrics.txt"), cluster60_defaults
    assert int(met["rank"]) < int(ref["rank"])
    assert float(ref["quad_error"]) <= 1e-6
    assert float(ref["quad_error"]) < float(met["quad_error"]) <= 1e-4
    assert float(met["l2_relative"]) <= 1e-6


def test_eps_support_flag(tmp_path, cluster60_defaults):
    # a column is short-range once its Gaussian falls below eps_support at
    # the separation radius, so a larger eps_support moves columns from
    # the long part to the short one (18 -> 17 long)
    assert rt.main(["run", "-o", str(tmp_path), "--eps-support", "1e-3"]
                   + CLUSTER60) == 0
    met, ref = _kv(tmp_path / "metrics.txt"), cluster60_defaults
    assert met["rank"] == ref["rank"]
    assert int(met["split_long"]) < int(ref["split_long"])
    assert int(met["split_long"]) + int(met["split_short"]) == int(met["rank"])
    assert float(met["l2_relative"]) <= 1e-6


@pytest.fixture(scope="module")
def densify_cases(cluster60, ligand_mol):
    # cluster60 keeps its reduction (1080 -> about 795) and densifies the
    # Tucker image; ligand18 falls back to the explicit sum (324 -> 324)
    # and densifies the canonical terms
    return {"cluster60": _run_parts(rt.RunConfig(n=33, b=10.0), cluster60),
            "ligand18": _run_parts(rt.RunConfig(n=33), ligand_mol)}


@pytest.mark.parametrize("case", ["cluster60", "ligand18"])
def test_u_long_is_dense_long(densify_cases, cluster60, ligand_mol, case):
    # the route is read off the tensor as assembled; long_field drops the
    # Tucker image once it is densified
    m, cfg = {"cluster60": (cluster60, rt.RunConfig(n=33, b=10.0)),
              "ligand18": (ligand_mol, rt.RunConfig(n=33))}[case]
    assembled = rt.cli._assemble_stage(cfg, m, {})[0]
    reduced = assembled.long.rank < assembled.long_rank_pre
    assert reduced == (case == "cluster60")
    assert (assembled.long_image is not None) == reduced
    assert (assembled.long_reference is None) == reduced
    out, u_long, _ = densify_cases[case]
    rs = out["rs"]
    assert rs.long_image is None
    assert rs.long.rank == assembled.long.rank
    ref = rt.dense(rs.long)
    u = u_long.values
    assert u.flags.f_contiguous
    assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ["cluster60", "ligand18"])
def test_entries_match_total(densify_cases, case):
    # rs_eval_entry reads the canonical terms, total the densified field
    out = densify_cases[case][0]
    rs, total = out["rs"], out["total"].values
    rng = np.random.default_rng(5)
    nodes = [tuple(c) for c in rs.nodes.tolist()] \
        + [tuple(v) for v in rng.integers(0, rs.grid.n, (500, 3)).tolist()]
    vals = np.array([rt.rs_eval_entry(rs, i) for i in nodes])
    ref = total[tuple(np.array(nodes).T)]
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(total))


def test_loaded_bundle_answers_entries(tmp_path, densify_cases):
    # an RSTensor read back from assemble's files builds its own cell index
    # and answers as the in-memory tensor of the same run does
    assert rt.main(["assemble", "-o", str(tmp_path)] + CLUSTER60) == 0
    rs = rt.cli._load_bundle(str(tmp_path))[0]
    ref = densify_cases["cluster60"][0]["rs"]
    r = rs.support_radius
    rng = np.random.default_rng(6)
    nodes = [tuple(c) for c in rs.nodes.tolist()] \
        + [tuple(v) for v in rng.integers(0, rs.grid.n, (300, 3)).tolist()]
    for i in nodes:
        scan = [a for a, c in enumerate(rs.nodes.tolist())
                if max(abs(i[0] - c[0]), abs(i[1] - c[1]),
                       abs(i[2] - c[2])) <= r]
        assert sorted(rs.nearby_atoms(i).tolist()) == scan
        assert abs(rt.rs_eval_entry(rs, i) - rt.rs_eval_entry(ref, i)) \
            <= 1e-12 * abs(rt.rs_eval_entry(ref, i))


def test_assemble_solve_matches_run(tmp_path):
    # solve densifies the bundle's canonical terms, run the Tucker image
    run, bundle = str(tmp_path / "run"), str(tmp_path / "bundle")
    assert rt.main(["run", "-o", run] + CLUSTER60) == 0
    assert rt.main(["assemble", "-o", bundle] + CLUSTER60) == 0
    assert rt.main(["solve", "-i", bundle]) == 0
    a = rt.load_field(os.path.join(run, "total.bin")).values
    b = rt.load_field(os.path.join(bundle, "total.bin")).values
    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))


@pytest.mark.parametrize("flags", [
    ["--half-extent", "nan"], ["--half-extent", "inf"], ["--half-extent=-3"],
    ["--half-extent", "3", "--min-sep", "nan"],
    ["--half-extent", "3", "--min-sep=-1"],
    ["--half-extent", "3", "--seed", "-1"]],
    ids=["extent-nan", "extent-inf", "extent-negative", "sep-nan",
         "sep-negative", "seed-negative"])
def test_synthetic_rejects_bad_extent(tmp_path, capsys, flags):
    assert rt.main(["run", "--synthetic", "5", "--n", "33", "-o",
                    str(tmp_path)] + flags) == 2
    assert "config error: cluster needs" in capsys.readouterr().err
    assert not (tmp_path / "metrics.txt").exists()


def test_validate_rank_against_dump(tmp_path, born_total):
    # born's auto rank is 24 at n=33; an oracle of another rank reported a
    # discrete L2 of 1.73 against this dump
    rank = born_total.meta["quad_rank"]
    assert rank != 8
    p = tmp_path / "total.bin"
    rt.save_field(born_total, p)
    assert "quad_rank=%d\n" % rank in (tmp_path / "total.bin.info").read_text()
    assert rt.main(["validate", "--pqr", BORN, "--field", str(p),
                    "-o", str(tmp_path)]) == 0
    assert float(_kv(tmp_path / "report.txt.kv")["relative_l2"]) <= 1e-12


def _no_quadrature(*args):
    raise AssertionError("a quadrature was built")


@pytest.mark.parametrize("cmd", ["run", "assemble"])
def test_rank_above_cap_is_config_error(tmp_path, capsys, monkeypatch, cmd):
    # refused before any quadrature is built: a rank-1e8 tune died in a
    # 763 MiB MemoryError
    monkeypatch.setattr("rstensor.cli.build_quadrature", _no_quadrature)
    assert rt.main([cmd, "--pqr", BORN, "--rank", "100000000", "--n", "33",
                    "--b", "8", "-o", str(tmp_path)]) == 2
    assert "config error: config: rank 100000000 exceeds the cap of %d" \
        % rt.grid_kernel.MAX_QUAD_RANK in capsys.readouterr().err


def test_rank_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr("rstensor.cli.build_quadrature",
                        lambda R, lo, hi: R)
    cap, grid = rt.grid_kernel.MAX_QUAD_RANK, rt.Grid3(33, 8.0)
    assert _resolve_quadrature(rt.RunConfig(rank=cap), grid) == cap
    with pytest.raises(rt.ConfigError):
        _resolve_quadrature(rt.RunConfig(rank=cap + 1), grid)


def test_validate_dump_rank_above_cap_is_io_error(tmp_path, capsys,
                                                  monkeypatch, born_total):
    # a sidecar's quad_rank is checked against the same cap when the dump
    # is read, so no rank-1e8 oracle quadrature is attempted
    monkeypatch.setattr("rstensor.cli.build_quadrature", _no_quadrature)
    p = tmp_path / "total.bin"
    rt.save_field(born_total, p)
    info = tmp_path / "total.bin.info"
    text = info.read_text()
    info.write_text(text.replace("quad_rank=%d" % born_total.meta["quad_rank"],
                                 "quad_rank=100000000"))
    assert rt.main(["validate", "--pqr", BORN, "--field", str(p),
                    "-o", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err and "total.bin.info" in err
    assert "quad_rank must lie in [1, %d]" % rt.grid_kernel.MAX_QUAD_RANK in err


def test_validate_takes_rank_from_dump(tmp_path):
    # a --rank 10 run: validate builds the rank-10 oracle from the dump's
    # sidecar, not the auto ladder's choice for the default eps_kernel
    d = str(tmp_path)
    assert rt.main(["run", "--pqr", BORN, "--n", "33", "--b", "8",
                    "--rank", "10", "-o", d]) == 0
    assert rt.main(["validate", "--pqr", BORN, "--field",
                    os.path.join(d, "total.bin"), "-o", d]) == 0
    kv = dict(line.split("=", 1) for line in
              (tmp_path / "report.txt.kv").read_text().splitlines())
    assert float(kv["relative_l2"]) <= 1e-12


def test_validate_takes_rank_from_bundle(tmp_path):
    # the bundle names its quadrature rank, and so do solve's dumps: a
    # validate that guessed the rank from the eps_kernel ladder (24 at
    # n=33) read relative L2 1.1e-1 against this rank-12 field
    d = str(tmp_path)
    assert rt.main(["assemble", "--pqr", BORN, "--n", "33", "--b", "8",
                    "--rank", "12", "-o", d]) == 0
    side = json.loads((tmp_path / "shortlist.json").read_text())
    assert side["quad_rank"] == 12
    assert rt.main(["solve", "-i", d, "--parts"]) == 0
    for name in ("ulong.bin.info", "total.bin.info"):
        assert _kv(tmp_path / name)["quad_rank"] == "12"
    assert rt.main(["validate", "--pqr", BORN, "--field",
                    os.path.join(d, "total.bin"), "-o", d]) == 0
    assert float(_kv(tmp_path / "report.txt.kv")["relative_l2"]) <= 1e-12


def test_validate_rankless_dump(tmp_path, capsys, born_total):
    # the Gaussian-sum oracle rebuilds the quadrature of the field, so a
    # sidecar without its rank is refused; the exact oracle needs none
    p = tmp_path / "total.bin"
    rt.save_field(rt.GridFunction3(born_total.grid, born_total.values), p)
    assert "quad_rank" not in (tmp_path / "total.bin.info").read_text()
    base = ["validate", "--pqr", BORN, "--field", str(p), "-o", str(tmp_path)]
    assert rt.main(base) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "total.bin.info" in err
    assert "quad_rank" in err
    assert not (tmp_path / "report.txt").exists()
    assert rt.main(base + ["--oracle-kernel", "exact_newton"]) == 0
    kv = _kv(tmp_path / "report.txt.kv")
    assert kv["oracle"] == "exact_newton"
    assert float(kv["relative_l2"]) <= 1e-6


def test_run_compares_every_cluster_with_oracle():
    # the plane-sum oracle costs O(N R n^2 + R Z n^3), so a run of any
    # size compares against it; 2001 atoms were above a former atom cap
    # that skipped it
    m = rt.synthetic_cluster(2001, 20.5, seed=1)
    met = rt.run_case(rt.RunConfig(n=33), m)["metrics"]
    assert met["atoms"] == 2001 and met["oracle"] == "gaussian_sum"
    assert float(met["l2_relative"]) <= 1e-6


def _run_fresh(out, args, **env):
    # "rstensor run ARGS -o OUT" in a fresh process, ENV added to its
    # environment; returns the metrics it wrote
    src = os.path.dirname(os.path.dirname(rt.__file__))
    subprocess.run([sys.executable, "-c",
                    "import sys; from rstensor.cli import main; "
                    "sys.exit(main(sys.argv[1:]))", "run", *args, "-o", str(out)],
                   env=dict(os.environ, PYTHONPATH=src, **env), check=True,
                   capture_output=True)
    return dict(line.split("=", 1) for line in
                (out / "metrics.txt").read_text().splitlines())


def _rerun_twice(tmp_path, args):
    # the metrics of the first of two fresh-process runs with --parts,
    # after checking that both wrote the same bytes
    met = _run_fresh(tmp_path / "a", args + ["--parts"])
    _run_fresh(tmp_path / "b", args + ["--parts"])
    for name in ("metrics.txt", "total.bin", "ulong.bin", "short.bin"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes(), name
    return met


_CLUSTER600 = ["--synthetic", "600", "--half-extent", "10", "--seed", "3",
               "--n", "65"]


def test_rerun_byte_identical_with_reduction(tmp_path):
    # a cluster whose long rank is reduced (13200 -> 2891 on a 2-vCPU x86
    # host)
    met = _rerun_twice(tmp_path, _CLUSTER600)
    assert int(met["rank_post"]) < int(met["rank_pre"]) == 13200


def test_rerun_across_blas_thread_counts(tmp_path):
    # one and two BLAS threads split the GEMMs and SVDs of the reduction
    # and the densify differently, so ulong.bin, total.bin and metrics.txt
    # differ in their last bits; the short part, a scatter of one template,
    # and the ranks do not
    one = _run_fresh(tmp_path / "one", _CLUSTER600 + ["--parts"],
                     OPENBLAS_NUM_THREADS="1")
    two = _run_fresh(tmp_path / "two", _CLUSTER600 + ["--parts"],
                     OPENBLAS_NUM_THREADS="2")
    assert (tmp_path / "one" / "short.bin").read_bytes() \
        == (tmp_path / "two" / "short.bin").read_bytes()
    assert (one["rank_pre"], one["rank_post"]) \
        == (two["rank_pre"], two["rank_post"])
    a, b = (np.fromfile(tmp_path / d / "total.bin") for d in ("one", "two"))
    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))


def test_rerun_byte_identical_explicit_long(tmp_path):
    # ligand18 keeps its explicit long sum, densified plane by plane from
    # the long reference columns
    met = _rerun_twice(tmp_path, ["--pqr", LIGAND, "--n", "65"])
    assert met["rank_post"] == met["rank_pre"]

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rstensor as rt
from conftest import FIXTURES
from helpers import import_slice, negate

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
    out = rt.run_pipeline(cfg, born_mol)
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
    out = rt.run_pipeline(cfg, born_mol)
    short = rt.load_field(tmp_path / "short.bin")
    ref = rt.scatter_short(out["rs"], np.zeros((33, 33, 33)))
    assert np.array_equal(short.values, ref)
    tot = rt.load_field(tmp_path / "total.bin")
    assert np.allclose(tot.values, out["u_long"].values + ref, atol=1e-15)


def _count_scatters(monkeypatch):
    # rebinds every module name holding scatter_short, so no caller is missed;
    # returns the list of the arrays scattered into
    orig, made = rt.scatter_short, []

    def counted(rs, out):
        made.append(orig(rs, out))
        return made[-1]
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "rstensor":
            for attr, v in list(vars(mod).items()):
                if v is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return made


def _dumps(d, *names):
    return [rt.load_field(d / name).values for name in names]


@pytest.mark.parametrize("flags", [
    [], ["--bc", "analytic"], ["--bc", "analytic", "--kappa", "0.5"]],
    ids=["homogeneous", "analytic", "kappa"])
def test_run_scatters_short_once(tmp_path, monkeypatch, flags):
    # every consumer reads the one short field: the dump, the total and,
    # at kappa > 0, the right-hand side
    made = _count_scatters(monkeypatch)
    assert rt.main(["run", "--pqr", LIGAND, "--n", "33", "-o", str(tmp_path)]
                   + flags) == 0
    assert len(made) == 1
    total, u_long, short = _dumps(tmp_path, "total.bin", "ulong.bin",
                                  "short.bin")
    assert np.array_equal(short, made[0])
    assert np.array_equal(total, u_long + short)


def test_solve_scatters_short_once(tmp_path, monkeypatch):
    assert rt.main(["assemble", "--pqr", LIGAND, "--n", "33", "-o",
                    str(tmp_path)]) == 0
    made = _count_scatters(monkeypatch)
    assert rt.main(["solve", "-i", str(tmp_path)]) == 0
    assert len(made) == 1
    total, u_long = _dumps(tmp_path, "total.bin", "ulong.bin")
    assert np.array_equal(total, u_long + made[0])


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
    with pytest.raises(rt.ConfigError):
        rt.export_slice(f, fmt="hdf", path=str(tmp_path / "x"))


def test_main_config_error_exit_code(tmp_path, capsys):
    rc = rt.main(["run", "--pqr", BORN, "--n", "2", "-o", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


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
    rc = rt.main(["validate", "--pqr", str(p), "--n", "33", "--b", "8",
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
    rc = rt.main(["validate", "--pqr", BORN, "--n", "33", "--b", "8",
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
    # copy; the short template stays C-ordered for rs_eval_entry's ravel
    out = rt.run_case(rt.RunConfig(n=33, b=8.0, bc=bc, kappa=kappa), born_mol)
    assert out["total"].values.flags.f_contiguous
    assert out["u_long"].values.flags.f_contiguous
    assert out["short"].values.flags.f_contiguous
    assert out["rs"].template_dense().flags.c_contiguous


def test_solved_and_loaded_fields_are_mode1_fastest(born_bundle, tmp_path):
    rs = rt.cli._load_bundle(str(born_bundle))
    u, short = rt.cli._solve_stage(rs, {})
    total = rt.compose_total(u, short)
    assert u.values.flags.f_contiguous and total.values.flags.f_contiguous
    assert short.values.flags.f_contiguous
    assert rs.template_dense().flags.c_contiguous
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


@pytest.mark.parametrize("damage", [
    lambda raw: raw[:20],
    lambda raw: raw[:-8],
    lambda raw: raw + b"\0"], ids=["header", "short", "trailing"])
def test_solve_malformed_ct3_exit_code(born_bundle, tmp_path, capsys, damage):
    d = _bundle_copy(born_bundle, tmp_path)
    (d / "long.ct3").write_bytes(damage((d / "long.ct3").read_bytes()))
    assert rt.main(["solve", "-i", str(d)]) == 4
    assert "long.ct3" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["gamma", "centers", "n"])
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
    ({"n": 65}, "long.ct3")], ids=["two_coordinates", "off_grid", "n"])
def test_solve_malformed_bundle_exit_code(born_bundle, tmp_path, capsys, edit,
                                          name):
    # each of these crashed, dropped the atom or exited 2 before the bundle
    # reader checked the centres and the long part's shape
    d = _bundle_copy(born_bundle, tmp_path)
    side = json.loads((d / "shortlist.json").read_text())
    side.update(edit)
    (d / "shortlist.json").write_text(json.dumps(side))
    assert rt.main(["solve", "-i", str(d)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and name in err


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
    lambda info: info.replace("n=5", "n=2"),
    lambda info: info + "quad_rank=eight\n",
    lambda info: info + "quad_rank=0\n"],
    ids=["no-n", "no-b", "bad-n", "bad-b", "tiny-n", "bad-quad-rank",
         "zero-quad-rank"])
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
    ("assemble", "--eps-scaling", "mesh")])
def test_subcommand_rejects_unread_flag(tmp_path, capsys, cmd, flag, value):
    argv = [cmd, "--pqr", BORN, "--n", "33", "--b", "8", flag, value,
            "-o", str(tmp_path)]
    if cmd == "validate":
        argv += ["--field", str(tmp_path / "total.bin")]
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


@pytest.mark.parametrize("args", [["--pqr", BORN, "--n", "65", "--b", "8"],
                                  ["--pqr", LIGAND, "--n", "65"]],
                         ids=["born", "ligand18"])
def test_validate_exact_oracle_leaves_out_atom_nodes(tmp_path, args):
    # 1/r is undefined at an atom node, where the exact oracle stores 0;
    # counting those nodes read relative L2 0.186 (born) and 0.909
    # (ligand18), the defined nodes about 1e-8
    d = str(tmp_path)
    assert rt.main(["run", "-o", d] + args) == 0
    assert rt.main(["validate", "--field", os.path.join(d, "total.bin"),
                    "--oracle-kernel", "exact_newton", "-o", d] + args) == 0
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
    # the pipeline's long-range potential against the homogeneous solve
    # of the dense image of the Kronecker form; kappa > 0 needs analytic
    # faces, whose u_long is not this solve
    out = rt.run_case(rt.RunConfig(n=33, b=10.0, kappa=kappa), cluster60)
    rs = out["rs"]
    assert 0 < rs.long.rank < rs.long_rank_pre
    L = rt.DiscreteLaplacian(rs.grid, kappa)
    rhs = rt.dense(negate(rt.apply_kron_laplacian(rs.long, L)))
    ref = rt.poisson_solve(rhs, L).values
    u = out["u_long"].values
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
    return {"cluster60": rt.run_case(rt.RunConfig(n=33, b=10.0), cluster60),
            "ligand18": rt.run_case(rt.RunConfig(n=33), ligand_mol)}


@pytest.mark.parametrize("case", ["cluster60", "ligand18"])
def test_u_long_is_dense_long(densify_cases, case):
    out = densify_cases[case]
    rs = out["rs"]
    reduced = rs.long.rank < rs.long_rank_pre
    assert reduced == (case == "cluster60")
    assert (rs.long_basis is not None) == reduced
    assert (rs.long_reference is None) == reduced
    ref = rt.dense(rs.long)
    u = out["u_long"].values
    assert u.flags.f_contiguous
    assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ["cluster60", "ligand18"])
def test_entries_match_total(densify_cases, case):
    # rs_eval_entry reads the canonical terms, total the densified field
    out = densify_cases[case]
    rs, total = out["rs"], out["total"].values
    rng = np.random.default_rng(5)
    nodes = [c for c, _ in rs.short_list] \
        + [tuple(v) for v in rng.integers(0, rs.grid.n, (500, 3)).tolist()]
    vals = np.array([rt.rs_eval_entry(rs, i) for i in nodes])
    ref = total[tuple(np.array(nodes).T)]
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(total))


def test_loaded_bundle_answers_entries(tmp_path, densify_cases):
    # an RSTensor read back from assemble's files builds its own cell index
    # and answers as the in-memory tensor of the same run does
    assert rt.main(["assemble", "-o", str(tmp_path)] + CLUSTER60) == 0
    rs = rt.cli._load_bundle(str(tmp_path))
    ref = densify_cases["cluster60"]["rs"]
    r = rs.support_radius
    rng = np.random.default_rng(6)
    nodes = [c for c, _ in rs.short_list] \
        + [tuple(v) for v in rng.integers(0, rs.grid.n, (300, 3)).tolist()]
    for i in nodes:
        scan = [a for a, (c, _) in enumerate(rs.short_list)
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


@pytest.mark.parametrize("flags", [["--n", "65"], ["--b", "9"],
                                   ["--n", "65", "--b", "auto"]],
                         ids=["n", "b", "n-auto-b"])
def test_validate_rejects_grid_mismatch(tmp_path, capsys, born_total,
                                        flags):
    p = tmp_path / "total.bin"
    rt.save_field(born_total, p)
    rc = rt.main(["validate", "--pqr", BORN, "--field", str(p),
                  "-o", str(tmp_path)] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: %s %s does not match" % tuple(flags[:2]) in err
    assert not (tmp_path / "report.txt").exists()


def test_validate_rank_against_dump(tmp_path, capsys, born_total):
    # born's auto rank is 24 at n=33; an oracle of another rank reported a
    # discrete L2 of 1.73 against this dump
    rank = born_total.meta["quad_rank"]
    assert rank != 8
    p = tmp_path / "total.bin"
    rt.save_field(born_total, p)
    assert "quad_rank=%d\n" % rank in (tmp_path / "total.bin.info").read_text()
    base = ["validate", "--pqr", BORN, "--field", str(p), "-o", str(tmp_path)]
    assert rt.main(base + ["--rank", "8"]) == 2
    assert "config error: --rank 8 does not match quad_rank=%d" % rank \
        in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()
    for flags in ([], ["--rank", "auto"], ["--rank", str(rank)]):
        assert rt.main(base + flags) == 0
        kv = dict(line.split("=", 1) for line in
                  (tmp_path / "report.txt.kv").read_text().splitlines())
        assert float(kv["relative_l2"]) <= 1e-12


def test_validate_takes_rank_from_dump(tmp_path):
    # a --rank 10 run: validate without --rank builds the rank-10 oracle,
    # not the auto ladder's choice for the default eps_kernel
    d = str(tmp_path)
    assert rt.main(["run", "--pqr", BORN, "--n", "33", "--b", "8",
                    "--rank", "10", "-o", d]) == 0
    assert rt.main(["validate", "--pqr", BORN, "--field",
                    os.path.join(d, "total.bin"), "-o", d]) == 0
    kv = dict(line.split("=", 1) for line in
              (tmp_path / "report.txt.kv").read_text().splitlines())
    assert float(kv["relative_l2"]) <= 1e-12


def _rerun_twice(tmp_path, args):
    # the metrics of the first of two fresh-process runs, after checking
    # that both wrote the same bytes
    src = os.path.dirname(os.path.dirname(rt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for sub in ("a", "b"):
        subprocess.run([sys.executable, "-c",
                        "import sys; from rstensor.cli import main; "
                        "sys.exit(main(sys.argv[1:]))",
                        "run", *args, "-o", str(tmp_path / sub)],
                       env=env, check=True, capture_output=True)
    for name in ("metrics.txt", "total.bin", "ulong.bin", "short.bin"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes(), name
    return dict(line.split("=", 1) for line in
                (tmp_path / "a" / "metrics.txt").read_text().splitlines())


def test_rerun_byte_identical_with_reduction(tmp_path):
    # a cluster whose long rank is reduced (13200 -> 2891 on a 2-vCPU x86
    # host)
    met = _rerun_twice(tmp_path, ["--synthetic", "600", "--half-extent", "10",
                                  "--seed", "3", "--n", "65"])
    assert int(met["rank_post"]) < int(met["rank_pre"]) == 13200


def test_rerun_byte_identical_explicit_long(tmp_path):
    # ligand18 keeps its explicit long sum, densified plane by plane from
    # the long reference columns
    met = _rerun_twice(tmp_path, ["--pqr", LIGAND, "--n", "65"])
    assert met["rank_post"] == met["rank_pre"]

"""Configuration parsing, scenario orchestration, and file outputs."""

import csv
import os

import numpy as np
import pytest

from msbiot.grid import build_hierarchy
from msbiot.medium import save_field, load_field
from msbiot import cli


SMALL = dict(N=4, n=16, J_u=4, J_g=1, J_t=2, contrast=100.0)


def test_config_defaults_and_validation():
    cfg = cli.ScenarioConfig()
    assert (cfg.N, cfg.n, cfg.J_u, cfg.J_g, cfg.J_t) == (10, 80, 20, 2, 10)
    assert cfg.scheme == "fixed_stress" and cfg.spectral_problem == 1
    with pytest.raises(ValueError):
        cli.ScenarioConfig(model="model3")
    with pytest.raises(ValueError):
        cli.ScenarioConfig(T=-1.0)
    with pytest.raises(ValueError):
        cli.ScenarioConfig(spectral_problem=3)
    # bad input fails at construction, before any heavy work, and the
    # message names the key
    for bad, key in (({"N": 1, "n": 8}, "N"), ({"N": 3, "n": 16}, "n"),
                     ({"J_u": 0}, "J_u"), ({"J_g": 0}, "J_g"),
                     ({"J_t": 0}, "J_t"), ({"nu": 0.0}, "nu"),
                     ({"contrast": 0.5}, "contrast"), ({"eta": 0.5}, "eta"),
                     ({"eta": -1.0}, "eta"), ({"scheme": "foo"}, "scheme"),
                     ({"velocity_weight": "foo"}, "velocity_weight"),
                     ({"alpha": -3.0}, "alpha"), ({"alpha": 0.0}, "alpha"),
                     ({"alpha": 1.5}, "alpha"), ({"T": np.nan}, "T"),
                     ({"T": np.inf}, "T"), ({"nu": np.nan}, "nu"),
                     ({"nu": np.inf}, "nu"),
                     ({"contrast": np.nan}, "contrast"),
                     ({"contrast": np.inf}, "contrast"),
                     ({"seed": -1}, "seed")):
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            cli.ScenarioConfig(**bad)
    assert cli.ScenarioConfig(alpha=1.0, velocity_weight="energy").alpha == 1.0


def test_parse_config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# comment\nN = 4\nn=16   # trailing\nT = 0.5\n"
                    "model = model2\n\n")
    cfg = cli.config_from_sources(path)
    assert cfg.N == 4 and cfg.n == 16 and cfg.T == 0.5
    assert cfg.model == "model2"
    bad = tmp_path / "bad.txt"
    bad.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        cli.config_from_sources(bad)


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("N = 4\nJ_u = 8\n")
    cfg = cli.config_from_sources(path, {"J_u": 12, "scheme": None})
    assert cfg.N == 4 and cfg.J_u == 12
    assert cfg.scheme == "fixed_stress"  # None override ignored


def test_model_sources():
    grid = build_hierarchy(4, 8)
    f1 = cli.model1_source(grid)
    assert np.all(f1[grid.fine_cells_of_coarse_cell(0)] == 2.0)
    assert np.all(f1[grid.fine_cells_of_coarse_cell(15)] == -2.0)
    assert np.isclose(f1.sum(), 0.0)
    assert np.all(cli.model2_source(grid) == 1.0)
    p0 = cli.initial_pressure(grid)
    assert p0.max() <= 1 / 16 and p0.min() > 0


def test_resolve_field_generator_and_file(tmp_path):
    cfg = cli.ScenarioConfig(field="blobs", contrast=100.0, seed=0)
    kappa, fid = cli.resolve_field(cfg, 16 * 16)
    assert kappa.size == 256 and fid == "blobs:100:0"
    path = tmp_path / "kappa.txt"
    save_field(path, kappa, rows=16, cols=16)
    cfg2 = cli.ScenarioConfig(field=str(path))
    kappa2, fid2 = cli.resolve_field(cfg2, 256)
    assert np.array_equal(kappa2, kappa) and fid2 == "kappa.txt"
    with pytest.raises(ValueError):
        cli.resolve_field(cfg2, 64)  # wrong cell count
    with pytest.raises(ValueError, match="unknown pattern"):
        cli.resolve_field(cli.ScenarioConfig(field="nonexistent_pattern"),
                          256)
    for missing in ("nonexistent.txt", str(tmp_path / "missing")):
        with pytest.raises(ValueError, match="field file not found"):
            cli.resolve_field(cli.ScenarioConfig(field=missing), 256)


def test_export_field_shapes(tmp_path):
    grid = build_hierarchy(2, 4)
    cli.export_field(grid, "pressure", np.arange(16.0),
                     tmp_path / "p.txt")
    assert load_field(tmp_path / "p.txt", positive=False).size == 16
    cli.export_field(grid, "displacement_x", np.arange(50.0),
                     tmp_path / "ux.txt")
    assert load_field(tmp_path / "ux.txt", positive=False).size == 25
    g = np.ones(grid.num_fine_edges)
    cli.export_field(grid, "velocity_magnitude", g, tmp_path / "gm.txt")
    mag = load_field(tmp_path / "gm.txt")
    assert np.allclose(mag, np.hypot(1.0, 1.0))
    with pytest.raises(ValueError):
        cli.export_field(grid, "vorticity", g, tmp_path / "x.txt")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("run"))
    cfg = cli.ScenarioConfig(outdir=outdir, **SMALL)
    report, max_res, ok = cli.run_scenario(cfg, check=True)
    return cfg, report, max_res, ok, outdir


def test_run_scenario_outputs(small_run):
    cfg, report, max_res, ok, outdir = small_run
    assert ok  # conservation threshold at this size
    assert max_res <= 1e-9 * 3.0
    for name in ("errors.csv", "config.txt", "conservation.txt",
                 "pressure.txt", "displacement_x.txt", "displacement_y.txt",
                 "velocity_magnitude.txt"):
        assert os.path.exists(os.path.join(outdir, name))
    with open(os.path.join(outdir, "errors.csv")) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    assert rows[1][:2] == ["4", "16"]
    # config echo contains every key
    text = open(os.path.join(outdir, "config.txt")).read()
    assert "N = 4" in text and "scheme = fixed_stress" in text


def test_run_scenario_stage_tags(tmp_path):
    cfg = cli.ScenarioConfig(field=str(tmp_path / "missing_pattern"),
                             outdir=str(tmp_path / "out"))
    with pytest.raises(RuntimeError, match=r"\[setup\]"):
        cli.run_scenario(cfg)


def test_run_sweep_basis_counts(tmp_path):
    outdir = str(tmp_path / "sweep")
    cfg = cli.ScenarioConfig(outdir=outdir, **SMALL)
    reports = cli.run_sweep(cfg, "J_u", [2, 4])
    assert [v for v, _, _ in reports] == [2, 4]
    # more modes cannot increase the displacement error (same scenario)
    assert reports[1][1].e_l2_u <= reports[0][1].e_l2_u + 1e-12
    assert os.path.exists(os.path.join(outdir, "sweep.csv"))


def test_run_sweep_projects_a_J_g_sweep_once(tmp_path, monkeypatch):
    calls = []
    project = cli.ms_system.project_operators

    def counted(*args):
        calls.append(args)
        return project(*args)

    monkeypatch.setattr(cli.ms_system, "project_operators", counted)
    cfg = cli.ScenarioConfig(outdir=str(tmp_path), **SMALL)
    reports = cli.run_sweep(cfg, "J_g", [1, 3])
    assert [r.Jg for _, r, _ in reports] == [1, 3]
    assert len(calls) == 1


def test_run_sweep_generic_key(tmp_path):
    outdir = str(tmp_path / "sweepN")
    cfg = cli.ScenarioConfig(outdir=outdir, **SMALL)
    reports = cli.run_sweep(cfg, "N", [2, 4])
    assert [v for v, _, _ in reports] == [2, 4]
    for v in (2, 4):
        assert os.path.exists(os.path.join(outdir, f"N_{v}", "errors.csv"))


def test_main_run_and_sweep(tmp_path, capsys):
    out1 = str(tmp_path / "o1")
    rc = cli.main(["run", "--N", "4", "--n", "16", "--J_u", "4",
                   "--J_g", "1", "--J_t", "2", "--contrast", "100",
                   "--outdir", out1, "--check"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "errors:" in captured and "conservation" in captured
    out2 = str(tmp_path / "o2")
    rc = cli.main(["sweep", "--N", "4", "--n", "16", "--J_g", "1",
                   "--J_t", "2", "--contrast", "100", "--outdir", out2,
                   "--vary", "J_u=2,4"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "J_u=2:" in captured and "J_u=4:" in captured


def test_main_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("N = 4\nn = 16\nJ_u = 4\nJ_g = 1\nJ_t = 2\n"
                       f"contrast = 100\noutdir = {tmp_path / 'o3'}\n")
    assert cli.main(["run", "--config", str(cfgfile)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("text, named", [
    ("N = ten\n", ("{path}:1: N", "'ten'")),
    ("n = 16\nbogus = 3\n", ("{path}:2:", "'bogus'")),
    (None, ("{path}",)),
    ("J_u = 0\n", ("J_u",)),
    ("scheme = foo\n", ("scheme", "'foo'")),
    ("T = nan\n", ("T",)),
    ("N = 2\nn = 2\nJ_u = 4\nJ_g = 1\nfield = {field}\n",
     ("{field}", "finite")),
], ids=["non-numeric", "unknown-key", "missing-file", "out-of-range",
        "unknown-choice", "non-finite", "bad-field-file"])
def test_main_config_errors_name_the_input(tmp_path, capsys, text, named):
    path = tmp_path / "cfg.txt"
    field = tmp_path / "kappa.txt"
    field.write_text("2 2\n1.0 nan 1.0 1.0\n")
    if text is not None:
        path.write_text(text.format(field=field))
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", str(path),
                  "--outdir", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for part in named:
        assert part.format(path=path, field=field) in err


def test_sweep_names_a_bad_field_file_before_any_work(tmp_path, capsys,
                                                      monkeypatch):
    def no_pipeline(cfg):
        raise AssertionError("a pipeline was built")

    monkeypatch.setattr(cli, "Pipeline", no_pipeline)
    field = tmp_path / "kappa.txt"
    save_field(field, np.ones(4), rows=2, cols=2)
    # the file fits n=2 but not n=4
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--N", "2", "--J_u", "4", "--J_g", "1",
                  "--field", str(field), "--outdir", str(tmp_path / "out"),
                  "--vary", "n=2,4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{field}: field file has 4 cells, grid needs 16" in err


@pytest.mark.parametrize("bad, key", [
    ({"N": 4, "n": 16, "J_g": 5}, "J_g"),     # 4 snapshots per coarse edge
    ({"N": 2, "n": 4, "J_u": 19}, "J_u"),     # 18 DOFs at a corner vertex
])
def test_config_rejects_modes_beyond_local_space(bad, key):
    with pytest.raises(ValueError, match=rf"\b{key}\b"):
        cli.ScenarioConfig(**bad)
    # the bound itself is accepted
    cli.ScenarioConfig(**{**bad, key: bad[key] - 1})


@pytest.mark.parametrize("vary", ["scheme=fixed_stress,fully_coupled",
                                  "bogus=1,2", "J_u=4,many"])
def test_sweep_rejects_bad_vary_key(tmp_path, capsys, vary):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--N", "4", "--n", "16",
                  "--outdir", str(tmp_path), "--vary", vary])
    assert exc.value.code == 2
    assert vary.split("=")[0] in capsys.readouterr().err


def test_sweep_checks_every_value_before_the_first_pipeline(tmp_path,
                                                            monkeypatch):
    def no_pipeline(cfg):
        raise AssertionError("a pipeline was built")

    monkeypatch.setattr(cli, "Pipeline", no_pipeline)
    cfg = cli.ScenarioConfig(outdir=str(tmp_path), **SMALL)
    with pytest.raises(ValueError, match=r"\bJ_g\b"):
        cli.run_sweep(cfg, "J_g", [1, 9])


@pytest.mark.parametrize("call, key", [
    (lambda p: p.solve_point(J_g=9), "J_g"),    # 4 snapshots per coarse edge
    (lambda p: p.solve_point(J_u=0), "J_u"),
    (lambda p: p.fine_reference(0), "J_t"),
], ids=["J_g=9", "J_u=0", "J_t=0"])
def test_pipeline_rejects_out_of_range_points_before_any_work(monkeypatch,
                                                               call, key):
    p = cli.Pipeline(cli.ScenarioConfig(**SMALL))

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("DisplacementOfflineBasis", "VelocityOfflineBasis"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(cli.ti, "run", no_work)
    with pytest.raises(ValueError, match=rf"\b{key}\b"):
        call(p)


def test_pipeline_builds_the_displacement_basis_once():
    p = cli.Pipeline(cli.ScenarioConfig(**{**SMALL, "J_u": 20}))
    basis = p.displacement_basis(4)
    assert all(p.displacement_basis(J_u) is basis for J_u in (12, 20))
    with pytest.raises(ValueError, match=r"\bJ_u=21\b"):
        p.displacement_basis(21)
    # a truncated basis spans what a build with fewer modes spans
    report, _, traj = p.solve_point(J_u=4)
    report4, _, traj4 = cli.Pipeline(cli.ScenarioConfig(**SMALL)).solve_point()
    assert np.allclose(report.values(), report4.values(), rtol=1e-10, atol=0)
    for x, y in ((traj.final.u, traj4.final.u), (traj.final.g, traj4.final.g),
                 (traj.final.p, traj4.final.p)):
        assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mfgkit.cli import (EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, RunConfig, _build,
                        _make_parser, main, parse_config_file, read_checkpoint,
                        read_field_csv, run, write_checkpoint)
from mfgkit.core import build_grid
from mfgkit.mfg import IterationState


SMALL = ["--nx", "81", "--nt", "60", "--n-particles", "2000",
         "--n-perturbations", "1", "--assumption-samples", "32",
         "--duality-tol", "0.15"]  # smoke-scale particle count
TINY = ["--problem", "example5-weak", "--nx", "41", "--nt", "20"]  # solve only


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("decoupled-hopfcole", "lq-riccati", "example5-weak",
                 "uncontrolled-fp"):
        assert name in out


def test_unknown_problem_is_config_error(tmp_path):
    cfg = RunConfig(problem="no-such-instance", out_dir=str(tmp_path / "o"))
    assert run(cfg) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def test_build_keeps_per_axis_box_bounds(monkeypatch):
    from mfgkit import catalog
    box = build_grid(2, [-4.0, -6.0], [4.0, 6.0], 21, 0.5, 10)
    monkeypatch.setattr(catalog, "get_entry", lambda name: SimpleNamespace(grid=box))
    _, grid = _build(RunConfig(problem="box-2d"))
    assert grid == box
    _, grid = _build(RunConfig(problem="box-2d", x_max=5.0))
    assert grid.x_min == (-4.0, -6.0) and grid.x_max == (5.0, 5.0)


def test_negative_nx_is_config_error_without_artifacts(tmp_path):
    out = tmp_path / "bad"
    cfg = RunConfig(problem="lq-riccati", out_dir=str(out), nx=-10)
    assert run(cfg) == EXIT_CONFIG
    assert not out.exists()


def test_unparsable_config_value_is_config_error_without_artifacts(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("problem = lq-riccati\nnx = abc\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", str(f), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_unparsable_run_config_on_resume_is_config_error(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    (out / "run_config.txt").write_text("problem = lq-riccati\nnx = abc\n")
    assert main(["resume", "--out", str(out)]) == EXIT_CONFIG
    assert sorted(p.name for p in out.iterdir()) == ["run_config.txt"]


@pytest.mark.parametrize("flags", [["--seed", "-1"],
                                   ["--seed", str(2 ** 64)],
                                   ["--assumption-samples", "0"]])
def test_out_of_range_verification_value_is_config_error_without_artifacts(
        tmp_path, flags):
    out = tmp_path / "o"
    out.mkdir()
    assert main(["verify", "--problem", "lq-riccati", "--out", str(out)]
                + SMALL + flags) == EXIT_CONFIG
    assert list(out.iterdir()) == []


def test_removed_flag_is_rejected_without_artifacts(tmp_path):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "lq-riccati", "--out", str(out),
              "--hjb-boundary", "extrapolate"])
    assert exc.value.code == EXIT_CONFIG
    assert not out.exists()


def test_config_file_rejects_unknown_keys(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("problem = lq-riccati\nbogus = 1\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_file(str(f))


def test_config_file_parses_types(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("# a comment\nproblem = example5-weak\nnx = 81\n"
                 "theta = 0.7\nverify = false\n")
    d = parse_config_file(str(f))
    assert d == {"problem": "example5-weak", "nx": 81, "theta": 0.7,
                 "verify": False}


def test_solve_writes_artifacts_and_roundtrips(tmp_path):
    out = tmp_path / "run"
    code = main(["verify", "--problem", "example5-weak",
                 "--out", str(out)] + SMALL)
    assert code == EXIT_OK
    for name in ("summary.json", "u_field.csv", "m_flow.csv",
                 "residuals.csv", "checkpoint.bin", "run_config.txt"):
        assert (out / name).exists()
    s = json.loads((out / "summary.json").read_text())
    assert s["schema_version"] == 1
    assert s["fixed_point"]["converged"]
    assert s["checks"]["mass_conservation"]
    assert s["all_checks_passed"]
    # CSV round-trip reproduces the in-memory field to the last emitted digit
    grid = build_grid(1, -6.0, 6.0, 81, 1.0, 60)
    vals = read_field_csv(out / "u_field.csv", grid)
    again = read_field_csv(out / "u_field.csv", grid)
    assert np.array_equal(vals, again)
    text = (out / "u_field.csv").read_text().splitlines()
    k, i = 37, 11
    row = 1 + k * 81 + i
    assert float(text[row].split(",")[-1]) == vals[k, i]


def test_resume_matches_uninterrupted_run(tmp_path):
    full = tmp_path / "full"
    part = tmp_path / "part"
    args = ["--problem", "example5-weak"] + SMALL
    assert main(["solve"] + args + ["--out", str(full)]) == EXIT_OK
    main(["solve"] + args + ["--out", str(part), "--max-iters", "3"])
    assert main(["resume", "--out", str(part), "--max-iters", "50"]) == EXIT_OK
    for name in ("u_field.csv", "m_flow.csv", "residuals.csv"):
        assert (full / name).read_bytes() == (part / name).read_bytes()


def test_lock_file_blocks_concurrent_runs(tmp_path):
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").touch()
    cfg = RunConfig(problem="lq-riccati", out_dir=str(out))
    assert run(cfg) == EXIT_CONFIG


def test_checkpoint_roundtrip_and_grid_guard(tmp_path):
    grid = build_grid(1, -6.0, 6.0, 41, 1.0, 20)
    mu = np.random.default_rng(0).random((21, 41))
    st = IterationState(iteration=4, mu=mu, residual_history=[0.5, 0.25, 0.1, 0.04])
    path = tmp_path / "checkpoint.bin"
    write_checkpoint(path, grid, st)
    assert path.read_bytes()[:4] == b"MFGK"
    back = read_checkpoint(path, grid)
    assert back.iteration == 4
    assert back.residual_history == st.residual_history
    assert np.array_equal(back.mu, mu)
    other = build_grid(1, -6.0, 6.0, 61, 1.0, 20)
    with pytest.raises(ValueError, match="grid"):
        read_checkpoint(path, other)


def test_field_csv_roundtrips_in_memory_values(tmp_path):
    from mfgkit.cli import _write_field_csv
    from mfgkit.catalog import get_entry
    from mfgkit.mfg import solve_mfg
    e = get_entry("lq-riccati")
    grid = build_grid(1, -6.0, 6.0, 41, 1.0, 30)
    u, m, _ = solve_mfg(e.problem, grid, e.fixed_point)
    path = tmp_path / "u.csv"
    _write_field_csv(path, grid, u.values)
    back = read_field_csv(path, grid)
    assert np.array_equal(back, u.values)  # 17 significant digits round-trip


def test_dump_ensemble_flag(tmp_path):
    out = tmp_path / "dump"
    code = main(["verify", "--problem", "uncontrolled-fp", "--out", str(out),
                 "--nx", "81", "--nt", "50", "--n-particles", "500",
                 "--assumption-samples", "16", "--duality-tol", "0.5",
                 "--dump-ensemble"])
    assert code == EXIT_OK
    ens = np.load(out / "ensemble.npy")
    assert ens.shape == (51, 500)


def test_summary_reports_oracle_error(tmp_path):
    out = tmp_path / "lq"
    code = main(["verify", "--problem", "lq-riccati", "--out", str(out),
                 "--nt", "400", "--n-particles", "2000",
                 "--n-perturbations", "1", "--assumption-samples", "32",
                 "--duality-tol", "0.15"])
    s = json.loads((out / "summary.json").read_text())
    assert s["oracle"]["kind"] == "riccati"
    assert s["oracle"]["hjb_oracle_max_err"] <= 1e-2
    assert code == EXIT_OK


def test_hopfcole_default_grid_summary(tmp_path):
    # default grid, reduced verification sizes: the oracle gate in the summary
    # is the same number the acceptance battery checks at 5e-3
    out = tmp_path / "hc"
    code = main(["verify", "--problem", "decoupled-hopfcole", "--out", str(out),
                 "--n-particles", "20000", "--n-perturbations", "1",
                 "--assumption-samples", "32"])
    assert code == EXIT_OK
    s = json.loads((out / "summary.json").read_text())
    assert s["grid"]["nx"] == 241 and s["grid"]["nt"] == 400
    assert s["oracle"]["hjb_oracle_max_err"] <= 5e-3
    assert s["checks"]["hjb_oracle"]
    assert s["all_checks_passed"]
    assert s["particle"]["max_abs_position"] <= 6.0


def _snapshot(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("damage", ["grid", "truncated"])
def test_resume_rejects_bad_checkpoint_before_writing(tmp_path, damage):
    out = tmp_path / "o"
    assert main(["solve"] + TINY + ["--max-iters", "2", "--out", str(out)]) == EXIT_VERIFY
    ckpt = out / "checkpoint.bin"
    argv = ["resume", "--out", str(out)]
    if damage == "grid":
        argv += ["--nt", "30"]  # checkpointed at nt = 20
    else:
        ckpt.write_bytes(ckpt.read_bytes()[:-8])
    before = _snapshot(out)
    assert main(argv) == EXIT_CONFIG
    assert _snapshot(out) == before
    if damage == "grid":  # the stored configuration still resumes
        assert main(["resume", "--out", str(out), "--max-iters", "50"]) == EXIT_OK


def test_resume_layers_stored_config_then_config_file_then_flags(tmp_path):
    full, part = tmp_path / "full", tmp_path / "part"
    assert main(["solve"] + TINY + ["--out", str(full)]) == EXIT_OK
    assert main(["solve"] + TINY + ["--max-iters", "2", "--out", str(part)]) == EXIT_VERIFY
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("max_iters = 4\n")
    # the file overrides the stored max_iters = 2 ...
    assert main(["resume", "--config", str(cfg), "--out", str(part)]) == EXIT_VERIFY
    assert len((part / "residuals.csv").read_text().splitlines()) == 1 + 4
    # ... and a flag overrides the file
    assert main(["resume", "--config", str(cfg), "--max-iters", "50",
                 "--out", str(part)]) == EXIT_OK
    for name in ("u_field.csv", "m_flow.csv", "residuals.csv"):
        assert (full / name).read_bytes() == (part / name).read_bytes()


def test_resume_rejects_bad_config_and_problem_switch_without_writing(tmp_path):
    out = tmp_path / "o"
    assert main(["solve"] + TINY + ["--max-iters", "2", "--out", str(out)]) == EXIT_VERIFY
    before = _snapshot(out)
    bad = tmp_path / "bad.txt"
    bad.write_text("nx = abc\n")
    other = tmp_path / "other.txt"
    other.write_text("problem = lq-riccati\n")
    for extra in (["--config", str(bad)], ["--config", str(other)],
                  ["--problem", "lq-riccati"]):
        assert main(["resume", "--out", str(out)] + extra) == EXIT_CONFIG
        assert _snapshot(out) == before


def test_run_commands_keep_their_flag_set():
    ap = _make_parser()
    sub = next(a for a in ap._actions if a.dest == "command")
    expected = {"-h", "--help", "--problem", "--config", "--out", "--nx", "--nt",
                "--x-min", "--x-max", "--horizon", "--theta", "--tol",
                "--max-iters", "--picard-inner-iters", "--n-particles",
                "--n-perturbations", "--seed", "--assumption-samples",
                "--duality-tol", "--dump-ensemble"}
    for command in ("solve", "verify", "resume"):
        actions = sub.choices[command]._actions
        assert {o for a in actions for o in a.option_strings} == expected


@pytest.mark.parametrize("problem", ["lq-riccati", "uncontrolled-fp"])
def test_verify_marches_once(tmp_path, monkeypatch, problem):
    # a controlled entry's law check and optimality check share one stacked
    # march; a control-free entry marches its ensemble once for the law check
    from mfgkit import cost, particle
    marches = []
    march = particle._march

    def counted(*args, **kwargs):
        marches.append(args[4])  # the number of stacked policies
        return march(*args, **kwargs)

    monkeypatch.setattr(particle, "_march", counted)
    monkeypatch.setattr(cost, "_march", counted)
    out = tmp_path / "v"
    main(["verify", "--problem", problem, "--out", str(out)] + SMALL)
    assert marches == ([3] if problem == "lq-riccati" else [1])
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert checks["sde_fp_duality"]
    assert checks.get("optimality", True)

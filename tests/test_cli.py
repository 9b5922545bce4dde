import io
import json
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mfgkit.cli import (EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, EXIT_VERIFY, RunConfig,
                        _build, _make_parser, main, parse_config_file,
                        read_checkpoint, read_field_csv, run, write_checkpoint)
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


@pytest.mark.parametrize("nx", [3, 4])
def test_nx_below_five_is_config_error_without_artifacts(tmp_path, nx):
    # each HJB wall closure reaches four nodes: a 3-node run died indexing a
    # fifth, and on 4 nodes the two closures are one equation (singular)
    out = tmp_path / "o"
    assert main(["solve", "--problem", "lq-riccati", "--nx", str(nx),
                 "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_small_grid_runs_to_a_valid_summary(tmp_path, command):
    # below 21 nodes the residual and oracle checks keep fewer than 10 wall
    # nodes out, instead of reducing over no node at all
    out = tmp_path / "o"
    code = main([command, "--problem", "lq-riccati", "--nx", "15", "--nt", "100",
                 "--out", str(out)] + SMALL[4:])
    assert code in (EXIT_OK, EXIT_VERIFY)
    s = json.loads((out / "summary.json").read_text())
    assert np.all(np.isfinite(list(s["fixed_point"]["pde_residuals"].values())))
    assert np.isfinite(s["oracle"]["hjb_oracle_max_err"])


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
                                   ["--assumption-samples", "0"],
                                   ["--theta", "0"],
                                   ["--theta", "1.5"],
                                   ["--tol", "0"],
                                   ["--tol", "nan"],
                                   ["--duality-tol", "0"],
                                   ["--duality-tol", "nan"],
                                   ["--max-iters", "0"],
                                   ["--picard-inner-iters", "0"]])
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
                 "theta = 0.7\nverify = false\ndump_ensemble = ON\n")
    d = parse_config_file(str(f))
    assert d == {"problem": "example5-weak", "nx": 81, "theta": 0.7,
                 "verify": False, "dump_ensemble": True}


@pytest.mark.parametrize("line", ["verify = flase", "dump_ensemble = maybe"])
def test_invalid_boolean_in_config_file_is_config_error_without_artifacts(
        tmp_path, line):
    # a misspelt boolean once read as False and silently skipped verification
    f = tmp_path / "cfg.txt"
    f.write_text(f"problem = lq-riccati\n{line}\n")
    out = tmp_path / "o"
    assert main(["verify", "--config", str(f), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_run_config_defaults_are_the_solver_defaults():
    # RunConfig restates the solver defaults, so run_config.txt lists them
    from mfgkit.catalog import list_catalog
    from mfgkit.hjb import HjbSolverConfig
    from mfgkit.mfg import FixedPointConfig
    run_cfg, fx = RunConfig(), FixedPointConfig()
    assert ((run_cfg.theta, run_cfg.tol, run_cfg.max_iters)
            == (fx.theta, fx.tol, fx.max_iters))
    assert run_cfg.picard_inner_iters == HjbSolverConfig().picard_inner_iters
    assert all(entry.fixed_point == fx for entry in list_catalog())


def test_verify_command_verifies_whatever_the_config_file_says(tmp_path):
    # `verify = false` in a config file once made `verify` a solve-only run
    f = tmp_path / "cfg.txt"
    f.write_text("problem = lq-riccati\nnx = 41\nnt = 200\nverify = false\n")
    out = tmp_path / "o"
    assert main(["verify", "--config", str(f), "--out", str(out)]
                + SMALL[4:]) in (EXIT_OK, EXIT_VERIFY)
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert {"sde_fp_duality", "optimality", "assumptions"} <= set(checks)


def test_problem_flag_takes_a_catalog_name_only(tmp_path):
    # a config file named by --problem once replaced the catalog name
    f = tmp_path / "example5-weak"
    f.write_text("problem = example5-weak\nnx = 41\nnt = 20\n")
    out = tmp_path / "o"
    assert main(["solve", "--problem", str(f), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_reports_serialize_as_plain_json():
    # summary.json is written by a plain json.dump: no numpy scalar may reach
    # it. On the small box max |Dg| exceeds max |g|, so B5's margin is a
    # numpy float
    from mfgkit.catalog import get_entry
    from mfgkit.cost import verify_optimality
    from mfgkit.hamiltonian import check_assumptions
    from mfgkit.mfg import solve_mfg
    for name, grid in (("example5-weak", build_grid(1, -6.0, 6.0, 81, 1.0, 60)),
                       ("decoupled-hopfcole", build_grid(1, -2.0, 2.0, 41, 1.0, 20))):
        entry = get_entry(name)
        u, m, report = solve_mfg(entry.problem, grid, entry.fixed_point)
        reports = (report,
                   check_assumptions(entry.problem, grid, n_samples=16, seed=0),
                   verify_optimality(entry.problem, grid, u, m, 2, 500, 0))
        for r in reports:
            assert json.loads(json.dumps(r.to_dict())) == r.to_dict()


def test_small_box_verify_writes_a_valid_summary(tmp_path):
    # B5 and B7 once handed json.dump a numpy bool here: exit 1 and a
    # summary.json cut off at B5's "passed"
    out = tmp_path / "o"
    code = main(["verify", "--problem", "decoupled-hopfcole", "--nx", "41",
                 "--nt", "20", "--x-min", "-2", "--x-max", "2",
                 "--n-particles", "500", "--out", str(out)])
    assert code in (EXIT_OK, EXIT_VERIFY)
    s = json.loads((out / "summary.json").read_text())
    assert s["all_checks_passed"] == (code == EXIT_OK)


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


@pytest.mark.parametrize("problem, stop, nt", [("example5-weak", "3", "60"),
                                               ("lq-riccati", "1", "400")],
                         ids=["example5-weak", "lq-riccati"])
def test_resume_matches_uninterrupted_run(tmp_path, problem, stop, nt):
    # a resumed decoupled run starts on a fresh flow and so applies the map
    # again, where the uninterrupted run reuses its one map solve; lq-riccati
    # needs 400 steps to meet its oracle tolerance
    full = tmp_path / "full"
    part = tmp_path / "part"
    args = ["--problem", problem] + SMALL + ["--nt", nt]
    assert main(["solve"] + args + ["--out", str(full)]) == EXIT_OK
    main(["solve"] + args + ["--out", str(part), "--max-iters", stop])
    assert main(["resume", "--out", str(part), "--max-iters", "50"]) == EXIT_OK
    for name in ("u_field.csv", "m_flow.csv", "residuals.csv"):
        assert (full / name).read_bytes() == (part / name).read_bytes()


def test_lock_file_blocks_concurrent_runs(tmp_path):
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").touch()
    cfg = RunConfig(problem="lq-riccati", out_dir=str(out))
    assert run(cfg) == EXIT_CONFIG


def test_lock_of_a_dead_run_is_reported_stale(tmp_path, capsys):
    # a lock that names this host and a PID no process has is stale: the run
    # says so, naming the PID, and leaves the lock and the directory alone
    import os
    import subprocess
    import sys
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()  # reaped: no process has its PID
    out = tmp_path / "locked"
    out.mkdir()
    lock = f"{dead.pid} {os.uname().nodename}\n"
    (out / ".lock").write_text(lock)
    assert main(["solve", "--out", str(out)] + TINY) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"is stale: its run, PID {dead.pid} on this host, has ended" in err
    assert _snapshot(out) == {".lock": lock.encode()}
    for other in ("", f"{dead.pid} not-{os.uname().nodename}\n"):  # not provably dead
        (out / ".lock").write_text(other)
        assert main(["solve", "--out", str(out)] + TINY) == EXIT_CONFIG
        assert "exists; another run owns this directory" in capsys.readouterr().err


def test_run_records_its_pid_and_host_in_the_lock(tmp_path, monkeypatch):
    import os
    from mfgkit import cli
    lock, seen = tmp_path / "o" / ".lock", []
    monkeypatch.setattr(cli, "_run_locked",
                        lambda *args: seen.append(lock.read_text()) or EXIT_OK)
    assert main(["solve", "--out", str(tmp_path / "o")] + TINY) == EXIT_OK
    assert seen == [f"{os.getpid()} {os.uname().nodename}\n"]
    assert not lock.exists()


@pytest.mark.parametrize("threads", ["0", "two"])
def test_invalid_threads_override_is_config_error_without_artifacts(
        tmp_path, monkeypatch, threads):
    # an MFGKIT_THREADS that is not a positive integer once ran on every core
    # and was recorded in summary.json as if it had applied
    out = tmp_path / "o"
    out.mkdir()
    (out / "keep.txt").write_text("x")
    monkeypatch.setenv("MFGKIT_THREADS", threads)
    assert main(["verify", "--out", str(out)] + TINY) == EXIT_CONFIG
    assert _snapshot(out) == {"keep.txt": b"x"}


def test_checkpoint_roundtrip_and_grid_guard(tmp_path):
    grid = build_grid(1, -6.0, 6.0, 41, 1.0, 20)
    mu, x, g = np.random.default_rng(0).random((3, 21, 41))
    st = IterationState(iteration=4, mu=mu, residual_history=[0.5, 0.25, 0.1, 0.04],
                        last_pair=(x, g))
    path = tmp_path / "checkpoint.bin"
    write_checkpoint(path, grid, st)
    assert path.read_bytes()[:4] == b"MFGK"
    back = read_checkpoint(path, grid)
    assert back.iteration == 4
    assert back.residual_history == st.residual_history
    assert np.array_equal(back.mu, mu)
    assert len(back.last_pair) == 2
    assert np.array_equal(back.last_pair[0], x) and np.array_equal(back.last_pair[1], g)
    other = build_grid(1, -6.0, 6.0, 61, 1.0, 20)
    with pytest.raises(ValueError, match="grid"):
        read_checkpoint(path, other)


def test_every_bit_flip_fails_the_checkpoint_read(tmp_path):
    grid = build_grid(1, -1.0, 1.0, 5, 1.0, 2)
    path = tmp_path / "checkpoint.bin"
    write_checkpoint(path, grid, _state_with_history())
    raw = path.read_bytes()
    for bit in range(8 * len(raw)):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << bit % 8
        path.write_bytes(flipped)
        with pytest.raises(ValueError):
            read_checkpoint(path, grid)


def _state_with_history():
    """A state on build_grid(1, -1.0, 1.0, 5, 1.0, 2) that carries a map pair."""
    return IterationState(iteration=2, mu=np.full((3, 5), 0.5), residual_history=[0.3, 0.1],
                          last_pair=(np.full((3, 5), 0.25), np.full((3, 5), 0.75)))


def _older_versions(raw, size):
    """The version 1 and version 2 files of a version 3 file whose history
    holds two flows of `size` entries: version 2 is version 3 without the
    history block, version 1 is version 2 without the CRC32 trailer."""
    body = raw[8:len(raw) - 4 - 4 - 2 * 8 * size]
    v2 = raw[:4] + (2).to_bytes(4, "little") + body
    return (raw[:4] + (1).to_bytes(4, "little") + body,
            v2 + zlib.crc32(v2).to_bytes(4, "little"))


def test_every_truncation_fails_the_checkpoint_read(tmp_path):
    grid = build_grid(1, -1.0, 1.0, 5, 1.0, 2)
    path = tmp_path / "checkpoint.bin"
    write_checkpoint(path, grid, _state_with_history())
    raw = path.read_bytes()
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(ValueError):
            read_checkpoint(path, grid)


def test_version_1_and_2_checkpoints_load_with_an_empty_history(tmp_path):
    grid = build_grid(1, -1.0, 1.0, 5, 1.0, 2)
    st = _state_with_history()
    path = tmp_path / "checkpoint.bin"
    write_checkpoint(path, grid, st)
    raw = path.read_bytes()
    assert raw[4:8] == (3).to_bytes(4, "little")
    for old in _older_versions(raw, st.mu.size):
        path.write_bytes(old)
        back = read_checkpoint(path, grid)
        assert back.last_pair == ()
        assert back.iteration == st.iteration
        assert back.residual_history == st.residual_history
        assert np.array_equal(back.mu, st.mu)


def test_version_1_checkpoint_still_resumes(tmp_path):
    # a version 1 file has no mixing history, so its resume restarts the
    # mixing: it matches a library run resumed from the same flow with an
    # empty history
    from mfgkit.catalog import get_entry
    from mfgkit.mfg import FixedPointConfig, solve_mfg
    part = tmp_path / "part"
    assert main(["solve"] + TINY + ["--max-iters", "2", "--out", str(part)]) == EXIT_VERIFY
    ckpt = part / "checkpoint.bin"
    grid = build_grid(1, -6.0, 6.0, 41, 1.0, 20)
    st = read_checkpoint(ckpt, grid)
    assert len(st.last_pair) == 2
    ckpt.write_bytes(_older_versions(ckpt.read_bytes(), st.mu.size)[0])
    assert main(["resume", "--out", str(part), "--max-iters", "50"]) == EXIT_OK
    u, m, rep = solve_mfg(get_entry("example5-weak").problem, grid,
                          FixedPointConfig(max_iters=50),
                          initial_state=IterationState(st.iteration, st.mu,
                                                       st.residual_history))
    assert np.array_equal(read_field_csv(part / "u_field.csv", grid), u.values)
    assert np.array_equal(read_field_csv(part / "m_flow.csv", grid), m.densities)
    rows = (part / "residuals.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == rep.residual_history


class _FailsAtLevel:
    """Field values that raise when level k is read, after the writer has
    written the levels before it."""

    def __init__(self, values, k):
        self.values, self.k = values, k

    def __getitem__(self, k):
        if k == self.k:
            raise RuntimeError("injected")
        return self.values[k]


@pytest.mark.parametrize("previous", [False, True])
def test_interrupted_artifact_write_leaves_old_file_or_none(tmp_path, previous):
    from mfgkit.cli import _write_field_csv
    grid = build_grid(1, -1.0, 1.0, 11, 1.0, 6)
    values = np.random.default_rng(3).random((7, 11))
    path = tmp_path / "u_field.csv"
    if previous:
        _write_field_csv(path, grid, values)
    before = _snapshot(tmp_path)
    with pytest.raises(RuntimeError, match="injected"):
        _write_field_csv(path, grid, _FailsAtLevel(values + 1.0, 4))
    with pytest.raises(AttributeError):  # fails after the checkpoint's header
        write_checkpoint(tmp_path / "checkpoint.bin", grid,
                         SimpleNamespace(iteration=1, residual_history=[0.5], mu=None))
    assert _snapshot(tmp_path) == before


def test_interrupted_summary_write_keeps_the_previous_summary(tmp_path, monkeypatch):
    from mfgkit import cli
    out = tmp_path / "o"
    assert main(["solve"] + TINY + ["--out", str(out)]) == EXIT_OK
    before = _snapshot(out)

    def failing(obj, fh, **kwargs):
        fh.write('{"schema_version": ')
        raise TypeError("injected")

    monkeypatch.setattr(cli, "json", SimpleNamespace(dump=failing))
    with pytest.raises(TypeError, match="injected"):
        main(["solve"] + TINY + ["--out", str(out)])
    assert _snapshot(out) == before


def test_runtime_seconds_survives_a_wall_clock_step_back(tmp_path, monkeypatch):
    # a wall clock set back by a day mid-run cannot make the runtime negative
    import time
    from mfgkit import cli
    stamps = iter([time.time()])
    monkeypatch.setattr(cli, "time", SimpleNamespace(
        time=lambda: next(stamps, time.time() - 86400.0), monotonic=time.monotonic))
    out = tmp_path / "o"
    assert main(["solve"] + TINY + ["--out", str(out)]) == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["runtime_seconds"] >= 0


class _SlowLevels:
    """Field values that take 0.1 s to read per level."""

    def __init__(self, values):
        self.values = values

    def __getitem__(self, k):
        import time
        time.sleep(0.1)
        return self.values[k]


@pytest.mark.parametrize("failing", ["u_field.csv", "m_flow.csv"])
def test_failed_field_write_leaves_no_part_of_the_file(tmp_path, monkeypatch, forks,
                                                       failing):
    # the two field files are written side by side, m_flow.csv in a forked
    # worker; a write that fails in either process fails the run and leaves
    # neither the file nor its temporary, also when the worker is killed
    # part way through its file because this process's write failed
    import time
    from mfgkit import cli
    write, out = cli._write_field_csv, tmp_path / "o"

    def injected(path, grid, values):
        if path.name == failing:
            deadline = time.monotonic() + 10.0
            while (failing == "u_field.csv" and time.monotonic() < deadline
                   and not (out / ".m_flow.csv.tmp").exists()):
                time.sleep(0.01)  # until the worker's write has begun
            values = _FailsAtLevel(values, 2)
        elif failing == "u_field.csv":
            values = _SlowLevels(values)  # still writing when it is killed
        write(path, grid, values)

    monkeypatch.setattr(cli, "_write_field_csv", injected)
    monkeypatch.setenv("MFGKIT_THREADS", "2")
    with pytest.raises(RuntimeError, match="injected"):
        main(["solve"] + TINY + ["--out", str(out)])
    assert len(forks) == 1
    names = {p.name for p in out.iterdir()}
    assert failing not in names and not any(n.endswith(".tmp") for n in names)
    assert "summary.json" not in names


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


@pytest.mark.parametrize("dim", [1, 2])
def test_field_csv_bytes_equal_the_row_block_formula(tmp_path, dim):
    from mfgkit.cli import _write_field_csv
    grid = build_grid(dim, -1.3, 2.9, 7, 0.7, 3)
    rng = np.random.default_rng(5)
    values = rng.normal(size=(grid.nt + 1,) + grid.shape) * 10.0 ** rng.integers(
        -300, 300, size=(grid.nt + 1,) + grid.shape)
    values.flat[:6] = [0.0, -0.0, -2.5, 5e-324, -2.2e-310, 1e300]
    path = tmp_path / "field.csv"
    _write_field_csv(path, grid, values)
    # the writer's earlier form: every column of every row through one
    # %-block per time level
    coords = grid.coords().reshape(grid.n_nodes, grid.dim)
    expected = "t," + ",".join(f"x{d + 1}" for d in range(dim)) + ",value\n"
    block = (",".join(["%.17g"] * (dim + 2)) + "\n") * grid.n_nodes
    rows = np.empty((grid.n_nodes, dim + 2))
    rows[:, 1:-1] = coords
    for k in range(grid.nt + 1):
        rows[:, 0] = grid.time(k)
        rows[:, -1] = values[k].ravel()
        expected += block % tuple(rows.ravel().tolist())
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("problem", ["lq-riccati", "uncontrolled-fp"])
def test_dump_ensemble_flag(tmp_path, problem):
    # the checked march streams its feedback paths to ensemble.npy: the bytes
    # np.save writes for the paths simulate stores
    from mfgkit.mfg import feedback_policy, solve_mfg
    from mfgkit.particle import simulate
    out = tmp_path / "dump"
    code = main(["verify", "--problem", problem, "--out", str(out), "--nx", "81",
                 "--nt", "50", "--n-particles", "500", "--n-perturbations", "1",
                 "--assumption-samples", "16", "--duality-tol", "0.5",
                 "--dump-ensemble"])
    # lq-riccati's oracle gate fails on 81 nodes
    assert code == (EXIT_VERIFY if problem == "lq-riccati" else EXIT_OK)
    entry, grid = _build(RunConfig(problem=problem, nx=81, nt=50))
    u, m, _ = solve_mfg(entry.problem, grid, entry.fixed_point)
    policy = feedback_policy(entry.problem, grid, u) if entry.controlled else None
    expected = io.BytesIO()
    np.save(expected, simulate(entry.problem, grid, m, policy, 500, 0).positions)
    assert (out / "ensemble.npy").read_bytes() == expected.getvalue()
    assert [p.name for p in out.iterdir() if p.name.endswith(".tmp")] == []


@pytest.mark.parametrize("problem, dump", [
    pytest.param(problem, dump, id=problem + ("-dump" if dump else ""))
    for problem in ("uncontrolled-fp", "lq-riccati") for dump in (False, True)])
def test_verify_stores_no_path(tmp_path, problem, dump):
    # the law of the checked paths is compared, and their dump written, as
    # the march reaches each level, so the run never holds an (nt+1) x n
    # position array
    import tracemalloc
    # lq-riccati's stacked march of three policies holds about 0.5 kB of
    # block temporaries per path, whatever nt is; 400 levels put its path
    # array well above them
    n, nt = 10_000, 400 if problem == "lq-riccati" else 200
    argv = ["verify", "--problem", problem, "--nx", "81", "--nt", str(nt),
            "--n-particles", str(n), "--n-perturbations", "1",
            "--assumption-samples", "32", "--duality-tol", "0.15"]
    argv += ["--dump-ensemble"] if dump else []
    assert main(argv + ["--out", str(tmp_path / "warm")]) == EXIT_OK  # warm caches
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(tmp_path / "v")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < n * (nt + 1) * 8 / 4


def test_dump_ensemble_adds_no_resident_copy_of_the_paths(tmp_path):
    # the dump is written level by level with plain writes: a memory map of
    # the file (or a stored array) would count its touched pages as resident,
    # which tracemalloc does not see but the peak RSS does. The child reads
    # its peak as VmHWM, not ru_maxrss: Linux carries the peak of the process
    # that started it (this test run's) into ru_maxrss across the exec
    import os
    import subprocess
    import sys
    n, nt = 62_500, 200  # a 100.5 MB ensemble
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    peaks = []
    for dump in ([], ["--dump-ensemble"]):
        argv = ["verify", "--problem", "uncontrolled-fp", "--nx", "81",
                "--nt", str(nt), "--n-particles", str(n),
                "--assumption-samples", "16", "--duality-tol", "0.5",
                "--out", str(tmp_path / f"o{len(dump)}")] + dump
        code = ("from mfgkit.cli import main; "
                f"rc = main({argv!r}); "
                "status = open('/proc/self/status').read(); "
                "print(rc, status.split('VmHWM:')[1].split()[0])")
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        rc, kib = map(int, res.stdout.split())
        assert rc == EXIT_OK
        peaks.append(kib * 1024)
    size = (tmp_path / "o1" / "ensemble.npy").stat().st_size
    assert size >= 100e6
    assert peaks[1] - peaks[0] < size / 4


def test_failed_march_leaves_no_ensemble(tmp_path, monkeypatch):
    # a march that raises part way through leaves neither the dump nor its
    # temporary file
    from mfgkit import particle
    calls = []
    cell_counts = particle._cell_counts  # the law check's count at each level

    def failing(*args):
        calls.append(1)
        if len(calls) > 5:
            raise RuntimeError("injected")
        return cell_counts(*args)

    monkeypatch.setattr(particle, "_cell_counts", failing)
    out = tmp_path / "v"
    with pytest.raises(RuntimeError, match="injected"):
        main(["verify", "--problem", "uncontrolled-fp", "--out", str(out)]
             + SMALL + ["--dump-ensemble"])
    names = {p.name for p in out.iterdir()}
    assert names == {"run_config.txt", "checkpoint.bin", "u_field.csv",
                     "m_flow.csv", "residuals.csv"}


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


@pytest.mark.parametrize("damage", ["grid", "truncated", "bitflip"])
def test_resume_rejects_bad_checkpoint_before_writing(tmp_path, damage):
    out = tmp_path / "o"
    assert main(["solve"] + TINY + ["--max-iters", "2", "--out", str(out)]) == EXIT_VERIFY
    ckpt = out / "checkpoint.bin"
    argv = ["resume", "--out", str(out)]
    if damage == "grid":
        argv += ["--nt", "30"]  # checkpointed at nt = 20
    elif damage == "truncated":
        ckpt.write_bytes(ckpt.read_bytes()[:-8])
    else:  # the lowest mantissa bit of the flow's last density
        raw = bytearray(ckpt.read_bytes())
        raw[-12] ^= 1
        ckpt.write_bytes(raw)
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
    cfg.write_text("max_iters = 3\n")
    # the file overrides the stored max_iters = 2 ...
    assert main(["resume", "--config", str(cfg), "--out", str(part)]) == EXIT_VERIFY
    assert len((part / "residuals.csv").read_text().splitlines()) == 1 + 3
    # ... and a flag overrides the file
    assert main(["resume", "--config", str(cfg), "--max-iters", "50",
                 "--out", str(part)]) == EXIT_OK
    for name in ("u_field.csv", "m_flow.csv", "residuals.csv"):
        assert (full / name).read_bytes() == (part / name).read_bytes()


def test_resume_key_in_a_config_file_is_rejected(tmp_path):
    # only the resume command resumes; `resume = yes` once made solve read
    # the directory's checkpoint
    out = tmp_path / "o"
    assert main(["solve"] + TINY + ["--max-iters", "2", "--out", str(out)]) == EXIT_VERIFY
    before = _snapshot(out)
    f = tmp_path / "cfg.txt"
    f.write_text("resume = yes\n")
    assert main(["solve", "--config", str(f), "--out", str(out)] + TINY) == EXIT_CONFIG
    assert _snapshot(out) == before


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


@pytest.mark.parametrize("problem, dump", [
    pytest.param(problem, dump, id=problem + ("-dump" if dump else ""))
    for dump in (False, True) for problem in ("lq-riccati", "uncontrolled-fp")])
def test_verify_marches_once(tmp_path, monkeypatch, problem, dump):
    # a controlled entry's law check and optimality check share one stacked
    # march, a control-free entry marches once for its law check, and a dump
    # of the paths rides the march that runs
    from mfgkit import cost, particle
    marches = []
    march = particle._march

    def counted(*args, **kwargs):
        marches.append(args[4])  # the number of stacked policies
        return march(*args, **kwargs)

    monkeypatch.setattr(particle, "_march", counted)
    monkeypatch.setattr(cost, "_march", counted)
    out = tmp_path / "v"
    main(["verify", "--problem", problem, "--out", str(out)] + SMALL
         + (["--dump-ensemble"] if dump else []))
    if problem == "lq-riccati":
        assert marches == [3]
    else:
        assert marches == [1]
    assert (out / "ensemble.npy").exists() == dump
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert checks["sde_fp_duality"]
    assert checks.get("optimality", True)


def test_solver_exception_exits_3_without_summary(tmp_path, monkeypatch, capsys):
    import mfgkit.mfg

    def failing(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(mfgkit.mfg, "solve_mfg", failing)
    out = tmp_path / "fail"
    assert main(["verify", "--out", str(out)] + TINY) == EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_package_import_exports_threads_before_blas_loads():
    # `import mfgkit` alone, as a library caller does, pins BLAS to
    # MFGKIT_THREADS; a thread count the caller set wins
    import os
    import subprocess
    import sys
    code = """if True:
        import ctypes, glob, os
        import mfgkit
        import numpy
        from mfgkit import solve_mfg
        libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                      "numpy.libs", "*openblas*"))
        get = libs and getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        print(os.environ["OPENBLAS_NUM_THREADS"], get() if get else "unknown",
              solve_mfg.__module__, mfgkit.core.__name__)
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["MFGKIT_THREADS"] = "1"
    for blas, expected in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")):
        out = subprocess.run([sys.executable, "-c", code], env=dict(env, **blas),
                             capture_output=True, text=True, check=True)
        variable, threads, *names = out.stdout.split()
        assert variable == expected
        if threads != "unknown" and os.cpu_count() >= int(expected):
            assert threads == expected
        assert names == ["mfgkit.mfg", "mfgkit.core"]


def test_package_import_passes_on_only_a_positive_thread_count():
    # an MFGKIT_THREADS that is not a positive integer reaches no BLAS
    # variable; _process_count rejects it where it is read
    import os
    import subprocess
    import sys
    keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    code = f"import os, mfgkit; print([os.environ.get(k) for k in {keys!r}])"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in keys}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for value, expected in (("two", None), ("0", None), ("-1", None), ("1", "1")):
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(env, MFGKIT_THREADS=value),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == repr([expected] * 3)


def test_functions_import_only_the_slow_scipy_submodules():
    # the package imports its modules at load, after MFGKIT_THREADS is
    # exported; only scipy submodules slow to import, each needed by one
    # function, load on first use
    import ast
    slow = {"scipy.signal", "scipy.optimize", "scipy.sparse"}
    found = set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "mfgkit").glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    loaded = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    module = "." * node.level + (node.module or "")
                    loaded = ([f"scipy.{a.name}" for a in node.names]
                              if module == "scipy" else [module])
                else:
                    continue
                found |= {f"{path.name}:{node.lineno} {m}" for m in loaded if m not in slow}
    assert sorted(found) == []


def test_threads_override_leaves_artifacts_unchanged(tmp_path):
    # the artifacts do not depend on MFGKIT_THREADS; the summary records it
    import os
    import subprocess
    import sys
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        subprocess.run([sys.executable, "-m", "mfgkit.cli", "verify",
                        "--problem", "example5-weak", "--nx", "61", "--nt", "40",
                        "--out", str(out)] + SMALL[4:],  # SMALL's sizes, not its grid
                       env=dict(env, MFGKIT_THREADS=threads), check=True)
        outs.append(out)
    for name in ("u_field.csv", "m_flow.csv", "residuals.csv", "checkpoint.bin"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    s1, s2 = (json.loads((o / "summary.json").read_text()) for o in outs)
    assert (s1.pop("threads_override"), s2.pop("threads_override")) == ("1", "2")
    s1.pop("runtime_seconds"), s2.pop("runtime_seconds")
    assert s1 == s2


@pytest.mark.parametrize("problem", ["lq-riccati", "uncontrolled-fp"])
def test_split_march_leaves_artifacts_unchanged(tmp_path, monkeypatch, forks, problem):
    # a verify march split across 3 processes writes the artifacts of the
    # one-process march byte for byte; the summary records MFGKIT_THREADS
    from mfgkit import particle
    monkeypatch.setattr(particle, "FORK_WORK", 0)
    outs, codes, counts = [], [], []
    for threads in ("1", "3"):
        monkeypatch.setenv("MFGKIT_THREADS", threads)
        out = tmp_path / f"t{threads}"
        codes.append(main(["verify", "--problem", problem, "--out", str(out)] + SMALL))
        outs.append(out)
        counts.append(len(forks))
    assert counts == [0, 3]  # at 3: 2 march workers and the m_flow.csv writer
    assert codes[0] == codes[1]
    for name in ("u_field.csv", "m_flow.csv", "residuals.csv", "checkpoint.bin"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    s1, s2 = (json.loads((o / "summary.json").read_text()) for o in outs)
    assert (s1.pop("threads_override"), s2.pop("threads_override")) == ("1", "3")
    s1.pop("runtime_seconds"), s2.pop("runtime_seconds")
    assert s1 == s2


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("case", ["out-is-a-file", "out-under-a-file",
                                  "config-is-a-directory"])
def test_path_errors_are_config_errors_without_writing(tmp_path, capsys, case):
    # an OSError on the --out or --config path is a configuration error: exit 2
    # with nothing written, not a traceback
    (tmp_path / "file").write_text("not a directory\n")
    (tmp_path / "dir").mkdir()
    out, config = tmp_path / "out", []
    if case == "out-is-a-file":
        out = tmp_path / "file"
    elif case == "out-under-a-file":
        out = tmp_path / "file" / "out"
    else:
        config = ["--config", str(tmp_path / "dir")]
    before = _tree(tmp_path)
    assert main(["solve"] + TINY + config + ["--out", str(out)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("problem", ["lq-riccati", "uncontrolled-fp"])
def test_summary_blocks_are_verify_solutions(tmp_path, problem, command):
    # every block after threads_override and the checks are the library's
    # report on the same solve, at the same sizes
    from mfgkit.cost import verify_solution
    from mfgkit.mfg import solve_mfg
    out = tmp_path / "o"
    main([command, "--problem", problem, "--out", str(out)] + SMALL)
    summary = json.loads((out / "summary.json").read_text())
    entry, grid = _build(RunConfig(problem=problem, nx=81, nt=60))
    u, m, report = solve_mfg(entry.problem, grid)
    blocks, checks = verify_solution(
        entry, grid, u, m, report, n_paths=2000 if command == "verify" else 0,
        n_perturbations=1, seed=0, assumption_samples=32, duality_tol=0.15)
    keys = list(summary)
    tail = keys[keys.index("threads_override") + 1:keys.index("checks") + 1]
    assert list(blocks) + ["checks"] == tail
    assert json.loads(json.dumps({**blocks, "checks": checks})) == {
        k: summary[k] for k in tail}


def _key_paths(d, prefix=""):
    """Every key of a summary in order, dotted; a list of objects by its first."""
    paths = []
    for k, v in d.items():
        paths.append(prefix + k)
        if isinstance(v, dict):
            paths += _key_paths(v, f"{prefix}{k}.")
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            paths += _key_paths(v[0], f"{prefix}{k}[].")
    return paths


_SUMMARY_HEAD = [
    "schema_version", "problem",
    "grid", "grid.dim", "grid.nx", "grid.nt", "grid.x_min", "grid.x_max", "grid.horizon",
    "config", "config.theta", "config.tol", "config.max_iters",
    "config.picard_inner_iters", "config.n_particles", "config.n_perturbations",
    "config.seed", "threads_override",
    "fixed_point", "fixed_point.residual_history", "fixed_point.iterations_used",
    "fixed_point.converged", "fixed_point.final_flow_regularity",
    "fixed_point.final_flow_regularity.holder_half_seminorm",
    "fixed_point.final_flow_regularity.max_second_moment",
    "fixed_point.final_flow_regularity.implied_C1",
    "fixed_point.pde_residuals", "fixed_point.pde_residuals.hjb",
    "fixed_point.pde_residuals.fp",
    "mass", "mass.max_pre_renormalization_drift", "mass.min_density"]
_SUMMARY_ORACLE = ["oracle", "oracle.kind", "oracle.hjb_oracle_max_err",
                   "oracle.hjb_oracle_gradient_err", "oracle.tolerance"]
_SUMMARY_PARTICLE = ["particle", "particle.n", "particle.seed", "particle.max_d1",
                     "particle.boundary_leak", "particle.max_abs_position",
                     "particle.d1_profile_head"]
_COST = ["mean", "std_error", "n_paths", "seed"]
_SUMMARY_OPTIMALITY = (
    ["optimality", "optimality.feedback_cost"]
    + [f"optimality.feedback_cost.{k}" for k in _COST]
    + ["optimality.expected_initial_value", "optimality.value_gap",
       "optimality.value_tolerance", "optimality.value_check_passed",
       "optimality.perturbations", "optimality.perturbations[].epsilon",
       "optimality.perturbations[].direction", "optimality.perturbations[].cost"]
    + [f"optimality.perturbations[].cost.{k}" for k in _COST]
    + ["optimality.perturbations[].gap", "optimality.perturbations[].paired_std_error",
       "optimality.perturbations[].passed", "optimality.all_perturbations_passed",
       "optimality.all_passed"])
_SUMMARY_ASSUMPTIONS = (
    ["assumptions", "assumptions.n_samples", "assumptions.seed",
     "assumptions.all_passed", "assumptions.checks"]
    + [f"assumptions.checks.B{i}{k}" for i in range(1, 8)
       for k in ("", ".name", ".checked", ".passed", ".margin", ".detail")])
_SUMMARY_TAIL = ["all_checks_passed", "runtime_seconds"]


@pytest.mark.parametrize("command, problem, layout", [
    ("verify", "lq-riccati",
     _SUMMARY_HEAD + _SUMMARY_ORACLE + _SUMMARY_PARTICLE + _SUMMARY_OPTIMALITY
     + _SUMMARY_ASSUMPTIONS + ["checks", "checks.converged", "checks.mass_conservation",
                               "checks.positivity", "checks.hjb_oracle",
                               "checks.sde_fp_duality", "checks.optimality",
                               "checks.assumptions"] + _SUMMARY_TAIL),
    ("verify", "uncontrolled-fp",
     _SUMMARY_HEAD + _SUMMARY_PARTICLE
     + ["optimality", "optimality.note", "optimality.expected_initial_value"]
     + _SUMMARY_ASSUMPTIONS + ["checks", "checks.converged", "checks.mass_conservation",
                               "checks.positivity", "checks.sde_fp_duality",
                               "checks.assumptions"] + _SUMMARY_TAIL),
    ("solve", "lq-riccati",
     _SUMMARY_HEAD + _SUMMARY_ORACLE + ["checks", "checks.converged",
                                        "checks.mass_conservation", "checks.positivity",
                                        "checks.hjb_oracle"] + _SUMMARY_TAIL),
], ids=["verify-lq-riccati", "verify-uncontrolled-fp", "solve-lq-riccati"])
def test_summary_layout_is_pinned(tmp_path, command, problem, layout):
    # reordering, renaming or dropping a summary.json key edits this pin and
    # SCHEMA_VERSION together
    from mfgkit.cli import SCHEMA_VERSION
    out = tmp_path / "o"
    main([command, "--problem", problem, "--out", str(out)] + SMALL)
    summary = json.loads((out / "summary.json").read_text())
    assert SCHEMA_VERSION == summary["schema_version"] == 1
    assert _key_paths(summary) == layout


def test_cli_computes_no_gate_and_solve_mfg_no_verification():
    # every summary check is computed in cost.verify_solution: the CLI names
    # none of the checks or their tolerances, and solve_mfg only solves
    import ast
    import inspect
    from mfgkit import cli, mfg
    gates = {"verify_optimality", "law_check", "check_assumptions",
             "expected_initial_value", "flow_regularity", "pde_residual", "MASS_TOL",
             "NEGATIVITY_TOL", "oracle_value", "interior"}
    named = set()
    for node in ast.walk(ast.parse(inspect.getsource(cli))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    assert sorted(named & gates) == []
    called = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
              for node in ast.walk(ast.parse(inspect.getsource(mfg.solve_mfg)))
              if isinstance(node, ast.Call)
              and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert called.isdisjoint({"flow_regularity", "pde_residual"})

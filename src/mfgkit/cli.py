"""Command-line driver: solve catalog problems, run the verification battery,
and persist artifacts.

Heavy imports happen inside functions so the MFGKIT_THREADS override can be
exported to the BLAS thread-count variables before numpy loads.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 verification
failure (solved but one or more checks failed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

SCHEMA_VERSION = 1
CHECKPOINT_MAGIC = b"MFGK"
CHECKPOINT_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


@dataclass
class RunConfig:
    problem: str = ""
    out_dir: str = ""
    # grid overrides (catalog defaults when non-positive / nan)
    nx: int = 0
    nt: int = 0
    x_min: float = float("nan")
    x_max: float = float("nan")
    horizon: float = float("nan")
    # solver settings
    theta: float = 0.5
    tol: float = 1e-4
    max_iters: int = 50
    picard_inner_iters: int = 2
    # verification block
    verify: bool = True
    n_particles: int = 100_000
    n_perturbations: int = 5
    seed: int = 0
    assumption_samples: int = 200
    duality_tol: float = 5e-2
    dump_ensemble: bool = False
    resume: bool = False

    def validate(self) -> None:
        if not self.problem:
            raise ValueError("no problem selected")
        if not self.out_dir:
            raise ValueError("no output directory given")
        if self.nx and self.nx < 3:
            raise ValueError(f"nx must be >= 3, got {self.nx}")
        if self.nt and self.nt < 1:
            raise ValueError(f"nt must be >= 1, got {self.nt}")
        if not (0.0 < self.theta <= 1.0):
            raise ValueError("theta must lie in (0, 1]")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1 or self.picard_inner_iters < 1:
            raise ValueError("iteration counts must be positive")
        if (self.n_particles < 1 or self.n_perturbations < 0
                or self.assumption_samples < 1):
            raise ValueError("verification sizes must be positive")
        if not 0 <= self.seed < 2 ** 64:  # the seed keys uint64 Philox streams
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")

    def to_file(self, path: Path) -> None:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)
                 if f.name != "resume"]
        path.write_text("\n".join(lines) + "\n")


# typed keys by their defaults' types (`type(...) is`, since a bool is an int)
_BOOL_KEYS, _INT_KEYS, _FLOAT_KEYS = (
    tuple(f.name for f in fields(RunConfig) if type(f.default) is t)
    for t in (bool, int, float))


def parse_config_file(path: str) -> dict:
    """Flat key=value format; blank lines and # comments ignored."""
    p = Path(path)
    if not p.exists():
        raise ValueError(f"config file {path} does not exist")
    out = {}
    known = {f.name for f in fields(RunConfig)}
    for ln, raw in enumerate(p.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise ValueError(f"{path}:{ln}: unknown key {key!r}")
        if key in _BOOL_KEYS:
            out[key] = val.lower() in ("1", "true", "yes", "on")
        elif key in _INT_KEYS:
            out[key] = int(val)
        elif key in _FLOAT_KEYS:
            out[key] = float(val)
        else:
            out[key] = val
    return out


def _grid_hash(grid) -> int:
    buf = struct.pack("<i i i d", grid.dim, grid.nx, grid.nt, grid.horizon)
    for d in range(grid.dim):
        buf += struct.pack("<d d", grid.x_min[d], grid.x_max[d])
    return int.from_bytes(hashlib.sha256(buf).digest()[:8], "little")


def write_checkpoint(path: Path, grid, state) -> None:
    """Versioned little-endian snapshot of the outer-iteration state."""
    res = list(state.residual_history)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", _grid_hash(grid)))
        fh.write(struct.pack("<I", state.iteration))
        fh.write(struct.pack("<I", len(res)))
        import numpy as np
        fh.write(np.asarray(res, dtype="<f8").tobytes())
        fh.write(struct.pack("<I", state.mu.size))
        fh.write(np.ascontiguousarray(state.mu, dtype="<f8").tobytes())


def read_checkpoint(path: Path, grid):
    from .mfg import IterationState
    import numpy as np
    raw = path.read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path} is not a checkpoint (bad magic)")
    off = 4
    try:
        (version,) = struct.unpack_from("<I", raw, off); off += 4
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported version {version}")
        (ghash,) = struct.unpack_from("<Q", raw, off); off += 8
        if ghash != _grid_hash(grid):
            raise ValueError("grid does not match the configured grid")
        iteration, nres = struct.unpack_from("<II", raw, off); off += 8
        res = np.frombuffer(raw, dtype="<f8", count=nres, offset=off).tolist()
        off += 8 * nres
        (size,) = struct.unpack_from("<I", raw, off); off += 4
        mu = np.frombuffer(raw, dtype="<f8", count=size, offset=off)
        mu = mu.reshape((grid.nt + 1,) + grid.shape).copy()
    except (struct.error, ValueError) as e:  # a short or corrupt payload too
        raise ValueError(f"checkpoint {path}: {e}") from None
    return IterationState(iteration=iteration, mu=mu, residual_history=res)


def _write_field_csv(path: Path, grid, values) -> None:
    """Long format t,x1[,x2],value with 17 significant digits, one row per
    node, nodes in C order within each time level."""
    import numpy as np
    coords = grid.coords().reshape(grid.n_nodes, grid.dim)
    header = "t," + ",".join(f"x{d + 1}" for d in range(grid.dim)) + ",value\n"
    row = ",".join(["%.17g"] * (grid.dim + 2)) + "\n"
    block = row * grid.n_nodes
    rows = np.empty((grid.n_nodes, grid.dim + 2))
    rows[:, 1:-1] = coords
    with open(path, "w") as fh:
        fh.write(header)
        for k in range(grid.nt + 1):
            rows[:, 0] = grid.time(k)
            rows[:, -1] = values[k].ravel()
            fh.write(block % tuple(rows.ravel().tolist()))


def read_field_csv(path: Path, grid):
    import numpy as np
    vals = np.loadtxt(path, delimiter=",", skiprows=1, usecols=-1)
    return vals.reshape((grid.nt + 1,) + grid.shape)


def _build(config: RunConfig):
    from .catalog import get_entry
    from .core import build_grid
    entry = get_entry(config.problem)
    grid = entry.grid
    x_min = config.x_min if config.x_min == config.x_min else grid.x_min
    x_max = config.x_max if config.x_max == config.x_max else grid.x_max
    horizon = config.horizon if config.horizon == config.horizon else grid.horizon
    nx = config.nx or grid.nx
    nt = config.nt or grid.nt
    grid = build_grid(grid.dim, x_min, x_max, nx, horizon, nt)
    return entry, grid


def run(config: RunConfig) -> int:
    """Solve, verify, and write artifacts; see module docstring for exit codes."""
    try:
        config.validate()
        entry, grid = _build(config)
    except (ValueError, KeyError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".lock"
    try:
        lock_fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        print(f"configuration error: {lock} exists; another run owns this "
              "directory (delete the stale lock to proceed)", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _run_locked(config, entry, grid, out)
    finally:
        os.close(lock_fd)
        lock.unlink(missing_ok=True)


def _run_locked(config: RunConfig, entry, grid, out: Path) -> int:
    import numpy as np
    from .hjb import HjbSolverConfig
    from .hamiltonian import check_assumptions
    from .mfg import FixedPointConfig, feedback_policy, solve_mfg
    from .particle import simulate, compare_law
    from .cost import verify_optimality, expected_initial_value

    state0 = None
    ckpt = out / "checkpoint.bin"
    if config.resume:  # validated before anything in the directory is written
        try:
            state0 = read_checkpoint(ckpt, grid)
        except (OSError, ValueError) as e:
            print(f"configuration error: {e}", file=sys.stderr)
            return EXIT_CONFIG

    config.to_file(out / "run_config.txt")
    t_start = time.time()
    hjb_cfg = HjbSolverConfig(picard_inner_iters=config.picard_inner_iters)
    fx_cfg = FixedPointConfig(theta=config.theta, tol=config.tol,
                              max_iters=config.max_iters)
    try:
        u, m, report = solve_mfg(
            entry.problem, grid, fx_cfg, hjb_cfg,
            initial_state=state0,
            on_iteration=lambda st: write_checkpoint(ckpt, grid, st))
    except Exception as e:  # solver-level failure: report and exit 3
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER

    summary = {
        "schema_version": SCHEMA_VERSION,
        "problem": entry.name,
        "grid": {"dim": grid.dim, "nx": grid.nx, "nt": grid.nt,
                 "x_min": list(grid.x_min), "x_max": list(grid.x_max),
                 "horizon": grid.horizon},
        "config": {f: getattr(config, f) for f in
                   ("theta", "tol", "max_iters", "picard_inner_iters",
                    "n_particles", "n_perturbations", "seed")},
        "threads_override": os.environ.get("MFGKIT_THREADS"),
        "fixed_point": report.to_dict(),
        "mass": {"max_pre_renormalization_drift": float(m.mass_drift.max()),
                 "min_density": float(m.min_density.min())},
    }

    _write_field_csv(out / "u_field.csv", grid, u.values)
    _write_field_csv(out / "m_flow.csv", grid, m.densities)
    with open(out / "residuals.csv", "w") as fh:
        fh.write("iteration,rho\n")
        for i, r in enumerate(report.residual_history, 1):
            fh.write(f"{i},{r:.17g}\n")

    checks = {"converged": report.converged,
              "mass_conservation": float(m.mass_drift.max()) <= 1e-8,
              "positivity": float(m.min_density.min()) >= -1e-12}

    if entry.oracle is not None:
        ref = entry.oracle_value(grid)
        margin = 10
        sl = slice(margin, -margin)
        err = float(np.max(np.abs(u.values - ref.values)[:, sl]))
        gerr = float(np.max(np.abs(u.du - ref.du)[:, sl]))
        summary["oracle"] = {"kind": entry.oracle,
                             "hjb_oracle_max_err": err,
                             "hjb_oracle_gradient_err": gerr,
                             "tolerance": entry.oracle_tol}
        checks["hjb_oracle"] = err <= entry.oracle_tol

    if config.verify:
        # a controlled entry's feedback paths are marched once, by
        # verify_optimality, which also compares their law with the flow
        policy = feedback_policy(entry.problem, grid, u) if entry.controlled else None
        if entry.controlled:
            opt = verify_optimality(entry.problem, grid, u, m,
                                    config.n_perturbations, config.n_particles,
                                    config.seed, policy=policy)
            profile, leak, max_abs = (opt.d1_profile, opt.boundary_leak,
                                      opt.max_abs_position)
        if config.dump_ensemble or not entry.controlled:
            ens = simulate(entry.problem, grid, m, policy, config.n_particles,
                           config.seed)
            if config.dump_ensemble:
                np.save(out / "ensemble.npy", ens.positions)
            if not entry.controlled:
                profile = compare_law(ens, m, grid)
                leak, max_abs = ens.boundary_leak, ens.max_abs_position
            del ens
        summary["particle"] = {
            "n": config.n_particles, "seed": config.seed,
            "max_d1": float(profile.max()),
            "boundary_leak": leak,
            "max_abs_position": max_abs,
            "d1_profile_head": [float(v) for v in profile[:: max(1, grid.nt // 10)]],
        }
        checks["sde_fp_duality"] = float(profile.max()) <= config.duality_tol
        if entry.controlled:
            summary["optimality"] = opt.to_dict()
            checks["optimality"] = opt.all_passed
        else:
            m0 = m.densities[0]
            summary["optimality"] = {
                "note": "control-free instance",
                "expected_initial_value": expected_initial_value(u, m0, grid)}
        assum = check_assumptions(entry.problem, grid,
                                  n_samples=config.assumption_samples,
                                  seed=config.seed)
        summary["assumptions"] = assum.to_dict()
        checks["assumptions"] = assum.all_passed

    summary["checks"] = checks
    summary["all_checks_passed"] = all(checks.values())
    summary["runtime_seconds"] = time.time() - t_start
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, default=_json_default)
        fh.write("\n")

    if not report.converged:
        print("fixed-point iteration did not converge; see summary.json",
              file=sys.stderr)
        return EXIT_VERIFY
    if not summary["all_checks_passed"]:
        failed = [k for k, v in checks.items() if not v]
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _json_default(obj):
    import numpy as np
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _apply_threads_env() -> None:
    val = os.environ.get("MFGKIT_THREADS")
    if val:
        for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ.setdefault(key, val)


def _make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mfgkit",
                                 description="mean-field game solver and "
                                             "verification toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--problem", help="catalog name or config file path")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        for key in _INT_KEYS:
            p.add_argument(f"--{key.replace('_', '-')}", type=int, dest=key)
        for key in _FLOAT_KEYS:
            p.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key)
        p.add_argument("--dump-ensemble", dest="dump_ensemble",
                       action="store_const", const=True, default=None)

    add_common(sub.add_parser("solve", help="solve only (skip verification)"))
    add_common(sub.add_parser("verify", help="solve plus verification battery"))
    rp = sub.add_parser("resume", help="continue from checkpoint.bin")
    add_common(rp)
    cp = sub.add_parser("catalog", help="catalog operations")
    cp.add_argument("action", choices=["list"])
    return ap


def _config_from_args(args) -> RunConfig:
    """Stored run_config.txt (resume only), then --config, --problem and flags,
    each overriding the last. A resume may not switch problem (ValueError)."""
    updates: dict = {}
    if args.command == "resume":
        rc_path = Path(args.out) / "run_config.txt"
        if not rc_path.exists():
            raise ValueError(f"{rc_path} not found")
        updates.update(parse_config_file(str(rc_path)))
    stored = updates.get("problem")
    if args.config:
        updates.update(parse_config_file(args.config))
    if args.problem:
        # a catalog name, or a config file describing the run
        if Path(args.problem).is_file():
            updates.update(parse_config_file(args.problem))
        else:
            updates["problem"] = args.problem
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None and f.name != "problem":
            updates[f.name] = v
    if args.command == "resume":
        if updates.get("problem") != stored:
            raise ValueError(f"resume cannot switch problem {stored!r} to "
                             f"{updates.get('problem')!r}")
        updates["resume"] = True
    cfg = RunConfig(**updates)
    cfg.out_dir = args.out
    return cfg


def main(argv=None) -> int:
    _apply_threads_env()
    args = _make_parser().parse_args(argv)
    if args.command == "catalog":
        from .catalog import list_catalog
        for entry in list_catalog():
            g = entry.grid
            print(f"{entry.name:20s} dim={g.dim} box=[{g.x_min[0]:g},{g.x_max[0]:g}] "
                  f"nx={g.nx} nt={g.nt} T={g.horizon:g}  {entry.description}")
        return EXIT_OK
    try:
        cfg = _config_from_args(args)
    except ValueError as e:  # unreadable config or a problem switch: nothing written
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "solve":
        cfg.verify = False
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver: solve catalog problems, run the verification battery,
and persist artifacts.

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
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

# read as module attributes: tests and the benchmark replace get_entry and
# solve_mfg in their modules
from . import catalog, core, fp, mfg
from .cost import expected_initial_value, verify_optimality
from .hamiltonian import check_assumptions
from .hjb import HjbSolverConfig
from .particle import _process_count, law_check

SCHEMA_VERSION = 1
CHECKPOINT_MAGIC = b"MFGK"
CHECKPOINT_VERSION = 2  # version 2 appends a CRC32 trailer; version 1 still loads

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

    def validate(self) -> None:
        if not self.problem:
            raise ValueError("no problem selected")
        if not self.out_dir:
            raise ValueError("no output directory given")
        if self.nx and self.nx < 5:  # the two HJB wall closures need five nodes
            raise ValueError(f"nx must be >= 5, got {self.nx}")
        if self.nt and self.nt < 1:
            raise ValueError(f"nt must be >= 1, got {self.nt}")
        if (self.n_particles < 1 or self.n_perturbations < 0
                or self.assumption_samples < 1):
            raise ValueError("verification sizes must be positive")
        if not self.duality_tol > 0:  # NaN too
            raise ValueError(f"duality_tol must be positive, got {self.duality_tol}")
        if not 0 <= self.seed < 2 ** 64:  # the seed keys uint64 Philox streams
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")

    def to_file(self, path: Path) -> None:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        with _replacing(path) as fh:
            fh.write("\n".join(lines) + "\n")


@contextmanager
def _replacing(path: Path, mode: str = "w"):
    """A file opened beside path that replaces it once the block ends; an
    error in the block removes it, so path holds the old file or none, never
    part of one. The directory's lock keeps the name to one writer."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# typed keys by their defaults' types (`type(...) is`, since a bool is an int)
_BOOL_KEYS, _INT_KEYS, _FLOAT_KEYS = (
    tuple(f.name for f in fields(RunConfig) if type(f.default) is t)
    for t in (bool, int, float))
_BOOL_WORDS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
               **dict.fromkeys(("0", "false", "no", "off"), False)}


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
            if val.lower() not in _BOOL_WORDS:
                raise ValueError(f"{path}:{ln}: {key} must be a boolean, got {val!r}")
            out[key] = _BOOL_WORDS[val.lower()]
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
    """Versioned little-endian snapshot of the outer-iteration state, closed
    by the CRC32 of every byte before it."""
    def parts():
        res = np.asarray(state.residual_history, dtype="<f8")
        yield CHECKPOINT_MAGIC + struct.pack(
            "<IQII", CHECKPOINT_VERSION, _grid_hash(grid), state.iteration, res.size)
        yield res
        yield struct.pack("<I", state.mu.size)
        yield np.ascontiguousarray(state.mu, dtype="<f8")

    crc = 0
    with _replacing(path, "wb") as fh:
        for part in parts():
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


def read_checkpoint(path: Path, grid):
    raw = path.read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path} is not a checkpoint (bad magic)")
    off = 4
    try:
        (version,) = struct.unpack_from("<I", raw, off); off += 4
        if version == 2:
            (crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
            if zlib.crc32(memoryview(raw)[:-4]) != crc:
                raise ValueError("checksum mismatch (corrupt or truncated file)")
        elif version != 1:
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
    return mfg.IterationState(iteration=iteration, mu=mu, residual_history=res)


def _write_field_csv(path: Path, grid, values) -> None:
    """Long format t,x1[,x2],value with 17 significant digits, one row per
    node, nodes in C order within each time level."""
    coords = grid.coords().reshape(grid.n_nodes, grid.dim).tolist()
    header = "t," + ",".join(f"x{d + 1}" for d in range(grid.dim)) + ",value\n"
    # each node's row after its time column, coordinates formatted once; the
    # only % directive left is the value's
    tails = ["".join(",%.17g" % c for c in xs) + ",%.17g\n" for xs in coords]
    with _replacing(path) as fh:
        fh.write(header)
        for k in range(grid.nt + 1):
            lead = "%.17g" % grid.time(k)
            block = lead + lead.join(tails)
            fh.write(block % tuple(np.asarray(values[k], dtype=float).ravel().tolist()))


def read_field_csv(path: Path, grid):
    vals = np.loadtxt(path, delimiter=",", skiprows=1, usecols=-1)
    return vals.reshape((grid.nt + 1,) + grid.shape)


def _build(config: RunConfig):
    entry = catalog.get_entry(config.problem)
    grid = entry.grid
    x_min = config.x_min if config.x_min == config.x_min else grid.x_min
    x_max = config.x_max if config.x_max == config.x_max else grid.x_max
    horizon = config.horizon if config.horizon == config.horizon else grid.horizon
    nx = config.nx or grid.nx
    nt = config.nt or grid.nt
    grid = core.build_grid(grid.dim, x_min, x_max, nx, horizon, nt)
    return entry, grid


def run(config: RunConfig, resume: bool = False) -> int:
    """Solve, verify, and write artifacts; see module docstring for exit codes.
    With resume, the solve continues from the directory's checkpoint.bin."""
    try:
        config.validate()
        entry, grid = _build(config)
        # the solver configs range-check theta, tol and the iteration counts
        solver = (mfg.FixedPointConfig(theta=config.theta, tol=config.tol,
                                       max_iters=config.max_iters),
                  HjbSolverConfig(picard_inner_iters=config.picard_inner_iters))
        _process_count()  # MFGKIT_THREADS, if set, is a positive integer
    except (ValueError, KeyError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".lock"
    try:
        lock_fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        print(f"configuration error: {_lock_owner(lock)} (delete the stale lock "
              "to proceed)", file=sys.stderr)
        return EXIT_CONFIG
    try:
        os.write(lock_fd, f"{os.getpid()} {os.uname().nodename}\n".encode())
        return _run_locked(config, entry, grid, solver, out, resume)
    finally:
        os.close(lock_fd)
        lock.unlink(missing_ok=True)


def _lock_owner(lock: Path) -> str:
    """Why an existing lock blocks the run: stale where it names this host
    and a PID no process has."""
    try:
        pid, host = lock.read_text().split()
        if int(pid) > 0 and host == os.uname().nodename:
            os.kill(int(pid), 0)
    except ProcessLookupError:
        return f"{lock} is stale: its run, PID {pid} on this host, has ended"
    except (OSError, ValueError):  # unreadable, unparsable, or not ours to signal
        pass
    return f"{lock} exists; another run owns this directory"


def _run_locked(config: RunConfig, entry, grid, solver, out: Path,
                resume: bool) -> int:
    state0 = None
    ckpt = out / "checkpoint.bin"
    if resume:  # validated before anything in the directory is written
        try:
            state0 = read_checkpoint(ckpt, grid)
        except (OSError, ValueError) as e:
            print(f"configuration error: {e}", file=sys.stderr)
            return EXIT_CONFIG

    config.to_file(out / "run_config.txt")
    t_start = time.time()
    try:
        u, m, report = mfg.solve_mfg(
            entry.problem, grid, *solver,
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
    with _replacing(out / "residuals.csv") as fh:
        fh.write("iteration,rho\n")
        for i, r in enumerate(report.residual_history, 1):
            fh.write(f"{i},{r:.17g}\n")

    checks = {"converged": report.converged,
              "mass_conservation": float(m.mass_drift.max()) <= core.MASS_TOL,
              "positivity": float(m.min_density.min()) >= -fp.NEGATIVITY_TOL}

    if entry.oracle is not None:
        ref = entry.oracle_value(grid)
        sl = grid.interior()
        err = float(np.max(np.abs(u.values - ref.values)[:, sl]))
        gerr = float(np.max(np.abs(u.du - ref.du)[:, sl]))
        summary["oracle"] = {"kind": entry.oracle,
                             "hjb_oracle_max_err": err,
                             "hjb_oracle_gradient_err": gerr,
                             "tolerance": entry.oracle_tol}
        checks["hjb_oracle"] = err <= entry.oracle_tol

    if config.verify:
        with (_replacing(out / "ensemble.npy", "wb") if config.dump_ensemble
              else nullcontext()) as fh:
            if fh:  # np.save's layout: each level's contiguous x[0] in turn
                np.lib.format.write_array_header_1_0(fh, {
                    "descr": "<f8", "fortran_order": False,
                    "shape": (grid.nt + 1, config.n_particles) + (2,) * (grid.dim - 1)})
            dump = (lambda k, x: fh.write(x[0])) if fh else None
            if entry.controlled:  # one march checks the feedback's law and cost
                opt = verify_optimality(entry.problem, grid, u, m, config.n_perturbations,
                                        config.n_particles, config.seed, observe=dump)
                law = opt.d1_profile, opt.boundary_leak, opt.max_abs_position
            else:
                law = law_check(entry.problem, grid, m, None, config.n_particles,
                                config.seed, observe=dump)
        profile, leak, max_abs = law
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
            summary["optimality"] = {
                "note": "control-free instance",
                "expected_initial_value": expected_initial_value(u, m.densities[0], grid)}
        assum = check_assumptions(entry.problem, grid,
                                  n_samples=config.assumption_samples,
                                  seed=config.seed)
        summary["assumptions"] = assum.to_dict()
        checks["assumptions"] = assum.all_passed

    summary["checks"] = checks
    summary["all_checks_passed"] = all(checks.values())
    summary["runtime_seconds"] = time.time() - t_start
    with _replacing(out / "summary.json") as fh:
        json.dump(summary, fh, indent=2)
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


def _make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mfgkit",
                                 description="mean-field game solver and "
                                             "verification toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--problem", help="catalog name")
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
    each overriding the last. A resume may not switch problem (ValueError).
    solve and verify set `verify` from the command; a resume keeps the
    stored run's."""
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
        updates["problem"] = args.problem
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None and f.name != "problem":
            updates[f.name] = v
    if args.command == "resume":
        if updates.get("problem") != stored:
            raise ValueError(f"resume cannot switch problem {stored!r} to "
                             f"{updates.get('problem')!r}")
    else:
        updates["verify"] = args.command == "verify"
    cfg = RunConfig(**updates)
    cfg.out_dir = args.out
    return cfg


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    if args.command == "catalog":
        for entry in catalog.list_catalog():
            g = entry.grid
            print(f"{entry.name:20s} dim={g.dim} box=[{g.x_min[0]:g},{g.x_max[0]:g}] "
                  f"nx={g.nx} nt={g.nt} T={g.horizon:g}  {entry.description}")
        return EXIT_OK
    try:
        cfg = _config_from_args(args)
    except ValueError as e:  # unreadable config or a problem switch: nothing written
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg, resume=args.command == "resume")


if __name__ == "__main__":
    sys.exit(main())

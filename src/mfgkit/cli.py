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
from . import catalog, core, mfg
from .cost import verify_solution
from .hjb import HjbSolverConfig
from .particle import _fork_map, _process_count

SCHEMA_VERSION = 1
CHECKPOINT_MAGIC = b"MFGK"
CHECKPOINT_VERSION = 3  # 3 adds the mixing history, 2 the CRC32 trailer; 1 and 2 still load

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


@dataclass
class RunConfig:
    problem: str = ""
    out_dir: str = ""
    # grid overrides (catalog defaults when 0 / NaN)
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
        if self.nx and self.nx < 5:  # the HJB's cubic wall closure needs five nodes
            raise ValueError(f"nx must be >= 5, got {self.nx}")
        if self.nt and self.nt < 1:
            raise ValueError(f"nt must be >= 1, got {self.nt}")
        if (self.n_particles < 1 or self.n_perturbations < 0
                or self.assumption_samples < 1):
            raise ValueError("verification sizes must be positive")
        if not 0 < self.duality_tol < np.inf:  # NaN too
            raise ValueError(f"duality_tol must be finite and positive, got {self.duality_tol}")
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
    tmp = _temporary(path)
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _temporary(path: Path) -> Path:
    return path.with_name(f".{path.name}.tmp")


# typed keys by their defaults' types (`type(...) is`, since a bool is an int)
_BOOL_KEYS, _INT_KEYS, _FLOAT_KEYS = (
    tuple(f.name for f in fields(RunConfig) if type(f.default) is t)
    for t in (bool, int, float))
_BOOL_WORDS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
               **dict.fromkeys(("0", "false", "no", "off"), False)}


def parse_config_file(path: str) -> dict:
    """Flat key=value format; blank lines and # comments ignored."""
    try:
        text = Path(path).read_text()
    except OSError as e:  # missing, a directory, unreadable
        raise ValueError(f"config file {path}: {e.strerror}") from None
    out = {}
    known = {f.name for f in fields(RunConfig)}
    for ln, raw in enumerate(text.splitlines(), 1):
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
        yield struct.pack("<I", len(state.last_pair))
        for flow in state.last_pair:
            yield np.ascontiguousarray(flow, dtype="<f8")

    crc = 0
    with _replacing(path, "wb") as fh:
        for part in parts():
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


def read_checkpoint(path: Path, grid):
    """The state write_checkpoint stored; ValueError on a file that is not
    exactly one checkpoint of this grid. Versions 1 and 2 load with an empty
    mixing history."""
    raw = path.read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path} is not a checkpoint (bad magic)")
    off = 4
    shape = (grid.nt + 1,) + grid.shape

    def flow(size):
        nonlocal off
        out = np.frombuffer(raw, dtype="<f8", count=size, offset=off)
        off += 8 * size
        return out.reshape(shape).copy()
    try:
        (version,) = struct.unpack_from("<I", raw, off); off += 4
        end = len(raw)
        if version in (2, 3):
            end -= 4
            (crc,) = struct.unpack_from("<I", raw, end)
            if zlib.crc32(memoryview(raw)[:end]) != crc:
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
        mu = flow(size)
        pair = ()
        if version == 3:
            (count,) = struct.unpack_from("<I", raw, off); off += 4
            if count not in (0, 2):
                raise ValueError(f"mixing history of {count} flows")
            pair = tuple(flow(size) for _ in range(count))
        if off != end:
            raise ValueError(f"{end - off} bytes past the stored state")
    except (struct.error, ValueError) as e:  # a short or corrupt payload too
        raise ValueError(f"checkpoint {path}: {e}") from None
    return mfg.IterationState(iteration=iteration, mu=mu, residual_history=res,
                              last_pair=pair)


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


def _write_fields(grid, files: list) -> None:
    """Each (path, values) of files by `_write_field_csv`: the first in this
    process and each other meanwhile in a forked worker where a second
    process is allowed (`_process_count`), else all in this process."""
    def write(part):
        for path, values in part:
            _write_field_csv(path, grid, values)
    try:
        _fork_map(write, [[f] for f in files] if _process_count() > 1 else [files])
    except BaseException:  # a worker killed mid-write leaves its temporary file
        for path, _ in files:
            _temporary(path).unlink(missing_ok=True)
        raise


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
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)  # an existing file on the path: OSError
    except (ValueError, KeyError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG

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
    t_start = time.monotonic()
    try:
        u, m, report = mfg.solve_mfg(
            entry.problem, grid, *solver,
            initial_state=state0,
            on_iteration=lambda st: write_checkpoint(ckpt, grid, st))
    except Exception as e:  # solver-level failure: report and exit 3
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER

    _write_fields(grid, [(out / "u_field.csv", u.values),
                         (out / "m_flow.csv", m.densities)])
    with _replacing(out / "residuals.csv") as fh:
        fh.write("iteration,rho\n")
        for i, r in enumerate(report.residual_history, 1):
            fh.write(f"{i},{r:.17g}\n")

    n_paths = config.n_particles if config.verify else 0
    with (_replacing(out / "ensemble.npy", "wb") if n_paths and config.dump_ensemble
          else nullcontext()) as fh:
        if fh:  # np.save's layout: each level's contiguous x[0] in turn
            np.lib.format.write_array_header_1_0(fh, {
                "descr": "<f8", "fortran_order": False,
                "shape": (grid.nt + 1, n_paths) + (2,) * (grid.dim - 1)})
        blocks, checks = verify_solution(
            entry, grid, u, m, report, n_paths=n_paths, seed=config.seed,
            n_perturbations=config.n_perturbations, duality_tol=config.duality_tol,
            assumption_samples=config.assumption_samples,
            observe=(lambda k, x: fh.write(x[0])) if fh else None)

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
        **blocks,
        "checks": checks,
        "all_checks_passed": all(checks.values()),
        "runtime_seconds": time.monotonic() - t_start,
    }
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

"""Euler-Maruyama simulation of the controlled SDE against a frozen measure flow;
the same march adds up each path's control cost, for one policy or a stack of
them under common random numbers, and compares the paths' law with the flow.

Randomness comes from counter-based Philox streams keyed (seed, step), with the
in-stream counter enumerating particles, so ensembles are bit-identical for a
given seed regardless of how the work is scheduled: in blocks of paths, or in
forked worker processes that each march a range of the paths. Measure
arguments are always read from the frozen flow, never from the empirical
ensemble.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (Grid, MeasureFlow, ProblemSpec, _component_table, _interpolate,
                   _stream)
from .measure import _cell_counts, _histogram_d1

__all__ = ["ParticleEnsemble", "simulate", "compare_law", "law_check",
           "sample_initial"]

_INIT_STREAM = 0xFFFFFFFF  # step key reserved for initial sampling
# member-paths a march step moves at once: enough to amortize the per-block
# dispatch, few enough that the block's temporaries stay in cache
BLOCK_POINTS = 2 ** 16
# member-path-steps from which a march splits its paths across worker
# processes: starting, reading back and joining a worker takes about 5 ms at
# 140 MB resident, and each range draws every step's normals up to its last
# column, while a one-process march of this size takes about 0.15 s (35 ns
# per member-path-step; 2-core Xeon)
FORK_WORK = 2 ** 22
# what drawing the normals of one path column at a step costs, in
# member-path-steps of the march, in 1D and 2D (two normals a column in 2D):
# it sizes a split march's ranges (`_ranges`; 2-core Xeon)
NORMAL_COST = (1.0, 0.5)


@dataclass(frozen=True)
class ParticleEnsemble:
    """positions[k, i] (1D) or [k, i, :] (2D) for time index k and particle i;
    cost[i] is path i's control cost; max_abs_position = sup |X| is a proxy for
    square-integrable paths (the expectation bound itself is not certified)."""

    positions: np.ndarray
    cost: np.ndarray
    n_particles: int
    seed: int
    boundary_leak: float
    max_abs_position: float

    def __post_init__(self):
        self.positions.flags.writeable = False
        self.cost.flags.writeable = False
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("ensemble contains non-finite positions")


def sample_initial(density: np.ndarray, grid: Grid, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw n points from a grid density: each node is drawn with its atom
    weight m_i * h^n by inverse CDF, then placed uniformly in its cell and
    clipped to the box."""
    m = np.asarray(density, dtype=float)
    if m.shape != grid.shape:
        raise ValueError(f"density shape {m.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(m)) or np.any(m < 0):
        raise ValueError("cannot sample from a density with negative or "
                         "non-finite entries")
    cdf = np.cumsum(m.ravel() * grid.cell_volume)
    if cdf[-1] <= 0:
        raise ValueError("cannot sample from a zero density")
    cdf /= cdf[-1]
    cells = np.searchsorted(cdf, rng.random(n), side="left")
    nodes = grid.coords().reshape(grid.n_nodes, grid.dim)
    x = nodes[cells] + (rng.random((n, grid.dim)) - 0.5) * np.array(grid.h)
    x = np.clip(x, grid.x_min, grid.x_max)
    return x.reshape(n) if grid.dim == 1 else x  # 1D points carry no coordinate axis


def _split(n: int, parts: int) -> list:
    """range(n) as `parts` contiguous slices whose widths differ by at most one."""
    edges = [n * i // parts for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _ranges(n: int, parts: int, members: int, dim: int) -> list:
    """range(n) as `parts` contiguous column ranges of equal march work. At
    each step a range of width w that ends at column b moves members * w
    member-paths and draws the normals of b columns, each column's at
    NORMAL_COST[dim - 1] member-path-steps, so earlier ranges get more
    columns. With q = members / (members + that cost), equal work puts edge i
    at n (1 - q^i) / (1 - q^parts); every range keeps one column or more
    (n >= parts)."""
    q = members / (members + NORMAL_COST[dim - 1])
    edges = [0]
    for i in range(1, parts + 1):
        edge = round(n * (1 - q ** i) / (1 - q ** parts))
        edges.append(min(max(edge, edges[-1] + 1), n - parts + i))
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _process_count() -> int:
    """The processes a large march runs in: MFGKIT_THREADS where it is set,
    else the usable cores; one where os.fork does not exist. An MFGKIT_THREADS
    that is set but not a positive integer raises ValueError."""
    value = os.environ.get("MFGKIT_THREADS", "").strip()
    if value and not (value.isdecimal() and int(value) > 0):
        raise ValueError("MFGKIT_THREADS must be a positive integer, got "
                         f"{value!r}")
    if not hasattr(os, "fork"):
        return 1
    if value:
        return int(value)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _march(problem: ProblemSpec, grid: Grid, m_flow: MeasureFlow, controls,
           members: int, n: int, seed: int, observe=None, law=None):
    """One Euler-Maruyama march of a stack of policies, n paths each, under the
    frozen flow; each path's left-endpoint running cost (f0 + f1) * dt and
    terminal cost are summed as it goes.

    The points carry a leading member axis: (members, n) in 1D, (members, n, 2)
    in 2D. Every member starts from the same initial draw and sees the same
    Philox block (seed, k) at step k (common random numbers), broadcast over
    the member axis. Each path's arithmetic is elementwise, so each member's
    numbers equal those of a march of that member alone, and every output is
    the same however the path columns are split: a march of at least
    FORK_WORK member-path-steps runs its columns as contiguous ranges, one per
    process (`_process_count`), the first in this process and each other in a
    forked worker, all through every step (`_march_columns`).

    controls: None for the uncontrolled dynamics (f1 then does not enter), else
    k -> the members' per-node controls at time level k, stacked on a leading
    axis; the march reads them only until its next call, so controls may fill
    one buffer at every level. law: None, or an (nt+1,) array the march fills with the d1 between
    member 0's histogram at each level and the flow, from cell counts that
    add up over the ranges. observe(k, x), if given, sees all the stacked
    points at every level, so it keeps the march in one process; member j's
    points are x[j]. x is moved in place, so an observer that keeps it must
    copy it.
    Returns (cost, boundary_leak, max_abs_position), with a leading member axis.
    """
    if n < 1:
        raise ValueError("need at least one particle")
    x0 = sample_initial(m_flow.densities[0], grid, n, _stream(seed, _INIT_STREAM))
    split = observe is None and members * n * grid.nt >= FORK_WORK
    parts = _fork_map(
        lambda cols: _march_columns(problem, grid, m_flow, controls, members, x0,
                                    seed, cols, observe, law is not None),
        _ranges(n, min(_process_count(), n) if split else 1, members, grid.dim))
    cost, clamped, max_abs, counts = zip(*parts)
    if law is not None:  # each level's histogram against the flow, as compare_law's
        law[:] = _histogram_d1(sum(counts), n, m_flow.densities, grid)
    leak = sum(clamped) / (n * grid.nt * problem.dim)
    if leak.max() > 1e-3:
        warnings.warn(f"boundary leak fraction {leak.max():.2e} exceeds 1e-3; "
                      "the truncation box is too small for this dynamics",
                      UserWarning, stacklevel=3)
    return np.concatenate(cost, axis=1), leak, np.max(max_abs, axis=0)


def _march_columns(problem: ProblemSpec, grid: Grid, m_flow: MeasureFlow,
                   controls, members: int, x0: np.ndarray, seed: int,
                   cols: slice, observe, law_counts: bool):
    """The march of the path columns cols, from their initial points x0[cols]
    and their columns of every step's Philox block, drawn up to cols.stop.
    Each step builds the measure view, the stacked controls and the normals
    once, then moves the points in place in blocks of equal width, about
    BLOCK_POINTS member-paths each, so the step's temporaries stay
    cache-sized whatever the width is. The problem callbacks are called once
    per block on that block's points, which is why they must be pointwise
    in x.
    Returns (cost, clamped, max_abs, counts): per member, the columns' costs,
    the clamped coordinate steps and sup |X|; with law_counts, member 0's
    points per node cell at every level, (nt+1, n_nodes), else None.
    """
    dim, dt = problem.dim, grid.dt
    x = np.stack([x0[cols]] * members)
    width = x.shape[1]
    point_axes = tuple(range(1, x.ndim))  # every axis but the member axis
    # each member's offset to its field in the stacked controls
    base = (np.arange(members) * grid.n_nodes)[:, None]
    cost = np.zeros((members, width))
    clamped = np.zeros(members, dtype=np.int64)
    max_abs = np.zeros(members)
    # a cell holds at most n points: the narrowest type that counts them
    counts = (np.zeros((grid.nt + 1, grid.n_nodes), dtype=np.min_scalar_type(len(x0)))
              if law_counts else None)
    bounds = list(zip(grid.x_min, grid.x_max))
    sqdt = np.sqrt(dt)
    blocks = _split(width, min(width, -(-members * width // BLOCK_POINTS)))

    def reached(k):  # every time level: the running sup |X|, the law, observe
        nonlocal max_abs
        # sup |X| without an |X| array: max(max X, -min X)
        max_abs = np.maximum(max_abs, np.maximum(x.max(axis=point_axes),
                                                 -x.min(axis=point_axes)))
        if not np.all(np.isfinite(max_abs)):
            raise ValueError("ensemble contains non-finite positions")
        if law_counts:
            counts[k] = _cell_counts(x[0].reshape(width, dim), grid)
        if observe is not None:
            observe(k, x)

    reached(0)
    for k in range(grid.nt):
        t = grid.time(k)
        view = m_flow.view(k)
        if controls is not None:
            fields = controls(k)
            table = _component_table(fields, members * grid.n_nodes)
        # Philox fills the normals in order, so the first cols.stop of them
        # are those of the full block
        z = _stream(seed, k).standard_normal((cols.stop,) + x0.shape[1:])[cols.start:]
        for blk in blocks:
            xb, cb = x[:, blk], cost[:, blk]  # views: the block updates x and cost
            b = problem.drift_b0(t, xb, view)
            f = problem.running_f0(t, xb, view)
            if controls is not None:
                # 1D points gain the coordinate axis the kernel reads
                alpha = _interpolate(table, grid, xb if dim > 1 else xb[..., None], base)
                alpha = np.moveaxis(alpha, 0, -1).reshape(
                    xb.shape[:2] + fields.shape[1 + dim:])
                b = b + problem.drift_b1(t, xb, alpha)
                f = f + problem.running_f1(t, xb, alpha)
            cb += f * dt
            sig = np.asarray(problem.diffusion_sigma(t, xb, view), dtype=float)
            # 1D sigma drops its matrix axes, as 1D points drop their coordinate axis
            noise = (sig * sqdt * z[blk] if dim == 1
                     else np.einsum("...ij,...j->...i", sig * sqdt, z[blk]))
            # x + b dt + noise in one temporary: addition commutes bit for bit
            moved = np.broadcast_to(b, xb.shape) * dt
            moved += xb
            moved += noise
            left = False  # whether a step left the box; a NaN fails the test too
            for d, (lo, hi) in enumerate(bounds):
                # per coordinate: scalar bounds keep numpy's inner loop long
                md, xd = (moved, xb) if dim == 1 else (moved[..., d], xb[..., d])
                np.clip(md, lo, hi, out=xd)
                left = left or not lo <= md.min() <= md.max() <= hi
            if left:
                clamped += np.count_nonzero(xb != moved, axis=point_axes)
        reached(k + 1)
    view = m_flow.view(grid.nt)
    for blk in blocks:
        cb = cost[:, blk]
        cb += np.broadcast_to(problem.terminal_g(x[:, blk], view), cb.shape)
    return cost, clamped, max_abs, counts


def _fork_map(task, parts: list) -> list:
    """[task(p) for p in parts]: the first part in this process, each other
    meanwhile in a worker process forked for it. A worker's exception is
    raised here, and a worker that ends without sending its result raises
    RuntimeError. Every worker is joined before this returns or raises, and
    killed first when this unwinds from an error.

    Forked, not spawned: a problem's callbacks are often lambdas, which do
    not pickle, and a fork starts in milliseconds without a fresh import.
    OpenBLAS, whose idle threads the process may hold, stops its pool before
    a fork and starts it anew in the child on its next call."""
    if len(parts) == 1:  # the only path where os.fork may not exist
        return [task(parts[0])]
    ctx = multiprocessing.get_context("fork")
    workers = []  # (process, receiving end of its pipe)
    try:
        for part in parts[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(task, part, send))
            proc.start()
            workers.append((proc, recv))
            send.close()
        results = [task(parts[0])]
        for proc, recv in workers:
            try:
                ok, value = recv.recv()
            except EOFError:
                raise RuntimeError(f"march worker {proc.pid} ended without a "
                                   "result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        for proc, _ in workers:
            proc.kill()
        raise
    finally:
        for proc, recv in workers:
            proc.join()
            recv.close()


def _worker(task, part, send):
    """A worker's whole life: it sends (True, task(part)) or (False, the
    exception raised), as a RuntimeError of its repr if it does not pickle."""
    try:
        out = True, task(part)
    except BaseException as e:
        out = False, e
    try:
        send.send(out)
    except Exception:  # an exception that does not pickle
        send.send((False, RuntimeError(repr(out[1]))))


def simulate(problem: ProblemSpec, grid: Grid, m_flow: MeasureFlow,
             policy_or_none: Optional[np.ndarray],
             n: int, seed: int) -> ParticleEnsemble:
    """Euler-Maruyama march of n paths from m0 under the frozen flow, storing
    every path and summing each path's left-endpoint running cost
    (f0 + f1) * dt and terminal cost.

    policy_or_none: None for the uncontrolled dynamics (f1 then does not enter),
    else per-node feedback controls indexed by time level, interpolated at the
    particle positions.
    """
    positions = np.empty((grid.nt + 1, n) + ((2,) if grid.dim == 2 else ()))

    def store(k, x):
        positions[k] = x[0]

    cost, leak, max_abs = _march(problem, grid, m_flow, _single(policy_or_none),
                                 1, n, seed, store)
    return ParticleEnsemble(positions=positions, cost=cost[0], n_particles=n,
                            seed=seed, boundary_leak=float(leak[0]),
                            max_abs_position=float(max_abs[0]))


def _single(policy: Optional[np.ndarray]):
    """The controls of a one-member march: policy[k] behind a unit member
    axis, or None for the uncontrolled dynamics."""
    if policy is None:
        return None
    policy = np.asarray(policy, dtype=float)
    return lambda k: policy[k][None]


def law_check(problem: ProblemSpec, grid: Grid, m_flow: MeasureFlow,
              policy_or_none: Optional[np.ndarray], n: int, seed: int,
              observe=None) -> tuple[np.ndarray, float, float]:
    """The law of n paths against the flow, compared level by level inside
    the march, storing no path: (d1 profile, boundary leak, sup |X|), bit for
    bit those of `simulate` and `compare_law`. An observe(k, x), if given,
    sees the points at each level, in one process."""
    profile = np.empty(grid.nt + 1)
    _, leak, max_abs = _march(problem, grid, m_flow, _single(policy_or_none),
                              1, n, seed, observe, law=profile)
    return profile, float(leak[0]), float(max_abs[0])


def compare_law(ensemble: ParticleEnsemble, m_flow: MeasureFlow,
                grid: Grid) -> np.ndarray:
    """d1 between the empirical law and the flow at each time index (marginal-max
    metric in 2D)."""
    nt = m_flow.densities.shape[0]
    if ensemble.positions.shape[0] != nt:
        raise ValueError("ensemble and flow cover different time grids")
    counts = np.stack([_cell_counts(x.reshape(-1, grid.dim), grid)
                       for x in ensemble.positions])
    return _histogram_d1(counts, ensemble.positions.shape[1], m_flow.densities, grid)

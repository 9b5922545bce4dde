"""Problem definition, grid construction, and field containers shared by all solvers.

Shape conventions (n = spatial dimension, 1 or 2):
  - 1D: points are plain arrays of shape (...,), drifts/controls/gradients have the
    same shape, sigma is scalar-shaped (...,).
  - 2D: points have a trailing axis of length 2, shape (..., 2); drifts/controls/
    gradients likewise; sigma returns (..., 2, 2).
Scalar outputs (costs, densities) always have shape (...,).

All containers are immutable after construction; problem functions must be pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_banded

__all__ = [
    "ControlSpace",
    "ProblemSpec",
    "Grid",
    "ValueField",
    "MeasureFlow",
    "MeasureView",
    "build_grid",
    "interpolate_field",
    "gradient_field",
    "diffusion_coefficients",
    "discretize_initial_density",
]

MASS_TOL = 1e-8


@dataclass(frozen=True)
class ControlSpace:
    """Control set A: all of R^n, or a bounded box with a search grid."""

    kind: str  # "rn" | "box"
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    points_per_dim: int = 0

    @staticmethod
    def all_of_rn() -> "ControlSpace":
        return ControlSpace(kind="rn")

    @staticmethod
    def box(lower, upper, points_per_dim: int) -> "ControlSpace":
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        hi = np.atleast_1d(np.asarray(upper, dtype=float))
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("control box needs lower < upper per coordinate")
        if points_per_dim < 2:
            raise ValueError("control grid needs at least 2 points per dim")
        return ControlSpace(kind="box", lower=lo, upper=hi,
                            points_per_dim=points_per_dim)

    @property
    def bounded(self) -> bool:
        return self.kind == "box"

    def axes(self) -> list[np.ndarray]:
        if not self.bounded:
            raise ValueError("unbounded control space has no grid")
        return [np.linspace(self.lower[d], self.upper[d], self.points_per_dim)
                for d in range(self.lower.size)]

    def clip(self, alpha: np.ndarray) -> np.ndarray:
        if not self.bounded:
            return alpha
        return np.clip(alpha, self.lower if alpha.ndim > 1 else self.lower[0],
                       self.upper if alpha.ndim > 1 else self.upper[0])


@dataclass(frozen=True)
class ProblemSpec:
    """A mean-field control instance.

    Drift and running cost are only ever evaluated through the split
    b = drift_b0(t,x,m) + drift_b1(t,x,a) and f = running_f0(t,x,m) + running_f1(t,x,a);
    the measure argument is a MeasureView (density slice plus summary statistics).
    """

    dim: int
    horizon: float
    drift_b0: Callable
    drift_b1: Callable
    diffusion_sigma: Callable
    running_f0: Callable
    running_f1: Callable
    terminal_g: Callable
    initial_density: Callable
    control_space: ControlSpace = field(default_factory=ControlSpace.all_of_rn)
    closed_form_phi: Optional[Callable] = None
    gamma1: float = 1.0
    gamma2: float = 1.0
    lipschitz: float = 1.0
    name: str = ""

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")
        if not (self.gamma1 > 0 and self.gamma1 <= self.gamma2):
            raise ValueError("need 0 < gamma1 <= gamma2 (uniform ellipticity)")


@dataclass(frozen=True)
class Grid:
    """Truncated space-time lattice over a box, nodes at x_min + i*h exactly."""

    dim: int
    x_min: tuple
    x_max: tuple
    nx: int
    nt: int
    horizon: float

    @property
    def h(self) -> tuple:
        return tuple((self.x_max[d] - self.x_min[d]) / (self.nx - 1)
                     for d in range(self.dim))

    @property
    def dt(self) -> float:
        return self.horizon / self.nt

    @property
    def shape(self) -> tuple:
        return (self.nx,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.nx ** self.dim

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def axis(self, d: int) -> np.ndarray:
        return self.x_min[d] + np.arange(self.nx) * self.h[d]

    @property
    def axes(self) -> tuple:
        return tuple(self.axis(d) for d in range(self.dim))

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.nt + 1) * self.dt

    def time(self, k: int) -> float:
        return k * self.dt

    def coords(self) -> np.ndarray:
        """Node coordinates: shape (nx,) in 1D, (nx, nx, 2) in 2D."""
        if self.dim == 1:
            return self.axis(0)
        x1, x2 = np.meshgrid(self.axis(0), self.axis(1), indexing="ij")
        return np.stack([x1, x2], axis=-1)

    def refine(self, factor: int = 2) -> "Grid":
        """Halve h and dt (factor 2): doubles cells per axis and time steps."""
        return Grid(self.dim, self.x_min, self.x_max,
                    (self.nx - 1) * factor + 1, self.nt * factor, self.horizon)


def build_grid(dim: int, x_min, x_max, nx: int, horizon: float, nt: int) -> Grid:
    """Build the truncated space-time lattice; bounds may be scalar or per-dim."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if nx < 3:
        raise ValueError(f"nx must be >= 3, got {nx}")
    if nt < 1:
        raise ValueError(f"nt must be >= 1, got {nt}")
    lo = np.broadcast_to(np.asarray(x_min, dtype=float), (dim,)).copy()
    hi = np.broadcast_to(np.asarray(x_max, dtype=float), (dim,)).copy()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.isfinite(horizon)):
        raise ValueError("grid bounds and horizon must be finite")
    if np.any(lo >= hi):
        raise ValueError("need x_min < x_max per dimension")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return Grid(dim, tuple(lo), tuple(hi), int(nx), int(nt), float(horizon))


def _second_moments(m: np.ndarray, grid: Grid) -> np.ndarray:
    """Quadrature of |x|^2 against one grid density or a stack of them."""
    sq = sum(x ** 2 for x in np.meshgrid(*grid.axes, indexing="ij"))
    return np.sum(m * sq, axis=tuple(range(-grid.dim, 0))) * grid.cell_volume


class MeasureView:
    """Read-only view of one time slice of a MeasureFlow, with cached summaries.

    Problem functions receive this as their measure argument; catalog problems
    that depend only on mean(m) stay cheap.
    """

    __slots__ = ("density", "grid", "_mean", "_second_moment")

    def __init__(self, density: np.ndarray, grid: Grid):
        d = np.asarray(density, dtype=float)
        d.flags.writeable = False
        self.density = d
        self.grid = grid
        self._mean = None
        self._second_moment = None

    @property
    def mean(self):
        if self._mean is None:
            w = self.density * self.grid.cell_volume
            if self.grid.dim == 1:
                self._mean = float(np.sum(w * self.grid.axis(0)))
            else:
                x = self.grid.coords()
                self._mean = np.tensordot(w, x, axes=([0, 1], [0, 1]))
        return self._mean

    @property
    def second_moment(self) -> float:
        if self._second_moment is None:
            self._second_moment = float(_second_moments(self.density, self.grid))
        return self._second_moment


@dataclass(frozen=True)
class ValueField:
    """Value function u[k] and its spatial gradient du[k] on the grid.

    du has shape (nt+1, nx) in 1D and (nt+1, nx, nx, 2) in 2D, and always equals
    the central/one-sided finite difference of values.
    """

    values: np.ndarray
    du: np.ndarray
    grid: Grid

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("value field contains non-finite entries")
        if not np.all(np.isfinite(self.du)):
            raise ValueError("gradient field contains non-finite entries")
        self.values.flags.writeable = False
        self.du.flags.writeable = False


@dataclass(frozen=True)
class MeasureFlow:
    """Time-indexed nonnegative densities with unit quadrature mass at every level.

    mass_drift / min_density carry per-step solver diagnostics when produced by
    solve_fp (pre-renormalization values); None otherwise.
    """

    densities: np.ndarray
    grid: Grid
    mass_drift: Optional[np.ndarray] = None
    min_density: Optional[np.ndarray] = None

    def __post_init__(self):
        self.densities.flags.writeable = False

    def validate(self, mass_tol: float = MASS_TOL, neg_tol: float = 0.0) -> None:
        if np.min(self.densities) < -neg_tol:
            raise ValueError(f"negative density {np.min(self.densities):.3e}")
        mass = self.densities.sum(axis=tuple(range(1, self.densities.ndim)))
        mass = mass * self.grid.cell_volume
        worst = np.max(np.abs(mass - 1.0))
        if worst > mass_tol:
            raise ValueError(f"mass deviates from 1 by {worst:.3e}")

    def view(self, k: int) -> MeasureView:
        return MeasureView(self.densities[k], self.grid)

    @staticmethod
    def constant_in_time(density: np.ndarray, grid: Grid) -> "MeasureFlow":
        d = np.broadcast_to(density, (grid.nt + 1,) + density.shape).copy()
        return MeasureFlow(d, grid)


def discretize_initial_density(problem: ProblemSpec, grid: Grid):
    """Sample m0 at the nodes and renormalize to unit quadrature mass.

    Returns (density, mass_leak) where mass_leak = |1 - pre-normalization mass|,
    the box-truncation diagnostic.
    """
    x = grid.coords()
    m0 = np.asarray(problem.initial_density(x), dtype=float)
    if m0.shape != grid.shape:
        raise ValueError("initial_density returned wrong shape")
    if np.any(m0 < 0) or not np.all(np.isfinite(m0)):
        raise ValueError("initial_density must be nonnegative and finite")
    mass = m0.sum() * grid.cell_volume
    if mass <= 0:
        raise ValueError("initial density has zero mass on the grid")
    return m0 / mass, abs(1.0 - mass)


def diffusion_coefficients(problem: ProblemSpec, t: float, x: np.ndarray, view):
    """Diffusion tensor a = sigma sigma^T / 2 at the points x.

    Returns (diag, a12): diag holds one array per axis (a in 1D; a11 and a22
    in 2D), each of the points' shape; a12 is the off-diagonal entry in 2D and
    None in 1D.
    """
    sig = np.asarray(problem.diffusion_sigma(t, x, view), dtype=float)
    if problem.dim == 1:
        return (np.broadcast_to(0.5 * sig ** 2, x.shape),), None
    a = 0.5 * np.einsum("...ik,...jk->...ij", sig, sig)
    a = np.broadcast_to(a, x.shape[:-1] + (2, 2))
    return (a[..., 0, 0], a[..., 1, 1]), a[..., 0, 1]


class StepCoefficients:
    """One time level's coefficients at the measure view, evaluated once: b0,
    f0, the per-axis diagonal diag_a of a = sigma sigma^T / 2, and a12, None in
    1D or where it is identically zero. drift and cost add b1 and f1."""

    __slots__ = ("problem", "t", "x", "shape", "b0", "f0", "diag_a", "a12")

    def __init__(self, problem: ProblemSpec, t: float, x: np.ndarray, view):
        self.problem, self.t, self.x = problem, t, x
        self.shape = x.shape if problem.dim == 1 else x.shape[:-1]
        self.b0 = problem.drift_b0(t, x, view)
        self.f0 = problem.running_f0(t, x, view)
        self.diag_a, a12 = diffusion_coefficients(problem, t, x, view)
        self.a12 = a12 if a12 is not None and np.any(a12 != 0) else None

    def drift(self, alpha=None) -> list:
        """Per-axis drift b0 + b1(alpha), or b0 when alpha is None."""
        b = self.b0 if alpha is None else \
            self.b0 + self.problem.drift_b1(self.t, self.x, alpha)
        return _components(np.asarray(b, dtype=float), self.shape)

    def cost(self, alpha) -> np.ndarray:
        """Running cost f0 + f1(alpha) on the nodes."""
        f = self.f0 + self.problem.running_f1(self.t, self.x, alpha)
        return np.broadcast_to(np.asarray(f, dtype=float), self.shape)


def _components(v: np.ndarray, shape: tuple) -> list:
    """Per-axis components of a vector field on nodes of the given shape: the
    field itself in 1D, v[..., d] in 2D, each broadcast to the shape."""
    if len(shape) == 1:
        return [np.broadcast_to(v, shape)]
    return [np.broadcast_to(v[..., d], shape) for d in range(len(shape))]


def _mixed_diff(v: np.ndarray, h: tuple) -> np.ndarray:
    """d2 v / dx1 dx2, centered (one-sided at the rim via np.gradient)."""
    return np.gradient(np.gradient(v, h[0], axis=0), h[1], axis=1)


def _solve_lines(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the banded system of every grid line (the last axis of rhs) in
    one LAPACK call. band, (2 w + 1,) + rhs.shape, holds each line's matrix in
    diagonal-ordered form; its entries reaching past a line's ends must be
    zero, so the stacked block-diagonal system couples no two lines."""
    w = band.shape[0] // 2
    out = solve_banded((w, w), band.reshape(2 * w + 1, -1), rhs.reshape(-1),
                       check_finite=False)
    return out.reshape(rhs.shape)


def gradient_field(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Central differences interior, one-sided at the boundary."""
    if grid.dim == 1:
        return np.gradient(values, grid.h[0])
    g1 = np.gradient(values, grid.h[0], axis=0)
    g2 = np.gradient(values, grid.h[1], axis=1)
    return np.stack([g1, g2], axis=-1)


def interpolate_field(field_values: np.ndarray, grid: Grid, x) -> np.ndarray:
    """Multilinear interpolation of node values at points x (clamped to the box).

    Exact on affine functions. x: scalar or (N,) in 1D; (2,) or (N, 2) in 2D.
    field_values has the grid's shape, optionally followed by component axes
    (a 2D control field is (nx, nx, 2)); the cell lookup is done once for all
    components. Returns one value, or one row of components, per point.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("interpolation points must be finite")
    dim = grid.dim
    if dim > 1 and (x.ndim == 0 or x.shape[-1] != dim):
        raise ValueError(f"{dim}D interpolation needs points of shape (..., {dim})")
    values = np.asarray(field_values, dtype=float)
    if values.shape[:dim] != grid.shape:
        raise ValueError(f"field shape {values.shape} does not match grid {grid.shape}")
    lead = x.shape[:x.ndim - dim + 1]  # 1D points carry no coordinate axis
    table = values.reshape(grid.n_nodes, -1).T  # (components, nodes)
    out = _interpolate(table, grid, x.reshape(-1, dim))
    out = out.T.reshape(lead + values.shape[dim:])
    return float(out) if out.ndim == 0 else out


def _interpolate(table: np.ndarray, grid: Grid, pts: np.ndarray,
                 base: Optional[np.ndarray] = None) -> np.ndarray:
    """The interpolation kernel: table is (components, fields * nodes), a stack
    of node fields; pts is (N, dim); base is None for one field, else each
    point's offset field * n_nodes into the stack. Returns (components, N)."""
    dim, nx = grid.dim, grid.nx
    # the cell lookup: flat index of the lower corner and per-axis weights
    flat, weights, h = None, [], grid.h
    for d in range(dim):
        s = np.clip((pts[:, d] - grid.x_min[d]) / h[d], 0.0, nx - 1.0)
        i = np.minimum(s.astype(int), nx - 2)
        f = s - i
        flat = i if flat is None else flat * nx + i
        weights.append((1 - f, f))
    if base is not None:
        flat = flat + base

    # the 2^dim corners, first axis varying fastest ((0,0), (1,0), (0,1), (1,1)
    # in 2D), each a flat-index offset and its weights in axis order
    corners = [(0, ())]
    for d in range(dim):
        step = nx ** (dim - 1 - d)
        corners = [(off + c * step, ws + (weights[d][c],))
                   for c in (0, 1) for off, ws in corners]
    out = None
    for off, ws in corners:
        term = table.take(flat + off if off else flat, axis=1)
        for w in ws:
            term = term * w
        out = term if out is None else out + term
    return out

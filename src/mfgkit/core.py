"""Problem definition, grid construction, and field containers shared by all solvers.

Shape conventions (n = spatial dimension, 1 or 2):
  - 1D: points are plain arrays of shape (...,), drifts/controls/gradients have the
    same shape, sigma is scalar-shaped (...,).
  - 2D: points have a trailing axis of length 2, shape (..., 2); drifts/controls/
    gradients likewise; sigma returns (..., 2, 2).
Scalar outputs (costs, densities) always have shape (...,).

All containers are immutable after construction; problem functions must be pure
and pointwise in x: the value at a point depends on that point alone (and on t,
the measure view and the control there), never on the other points passed. The
particle march calls them once per block of paths, on any subset of points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.linalg import LinAlgError, get_blas_funcs, get_lapack_funcs

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

    def clip(self, alpha: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """alpha clipped to the box, into out if given; alpha itself on R^n."""
        if not self.bounded:
            return alpha
        return np.clip(alpha, self.lower if alpha.ndim > 1 else self.lower[0],
                       self.upper if alpha.ndim > 1 else self.upper[0], out=out)


@dataclass(frozen=True)
class ProblemSpec:
    """A mean-field control instance.

    Drift and running cost are only ever evaluated through the split
    b = drift_b0(t,x,m) + drift_b1(t,x,a) and f = running_f0(t,x,m) + running_f1(t,x,a);
    the measure argument is a MeasureView (density slice plus summary statistics).
    Every callback is pure and sees the measure only through that view, never
    through a flow it closes over: `mfg.solve_mfg` applies a map whose
    callbacks read no view once. Every callback is pointwise in x:
    `particle._march` calls it once per block of paths, on any subset of the
    points, and each point's value must not depend on which other points
    share the call. A callback may return
    anything that broadcasts to the points' shape (plus its value axes), such
    as a scalar or, for sigma in 2D, one 2x2 matrix for every point.
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
    """Truncated space-time lattice over a box, nodes at x_min + i*h exactly.

    The derived values are computed once per grid, on first use; the arrays
    among them (axes, times, coords()) are read-only and shared by every
    caller."""

    dim: int
    x_min: tuple
    x_max: tuple
    nx: int
    nt: int
    horizon: float

    @cached_property
    def h(self) -> tuple:
        return tuple((self.x_max[d] - self.x_min[d]) / (self.nx - 1)
                     for d in range(self.dim))

    @cached_property
    def dt(self) -> float:
        return self.horizon / self.nt

    @property
    def shape(self) -> tuple:
        return (self.nx,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.nx ** self.dim

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def axis(self, d: int) -> np.ndarray:
        return self.axes[d]

    @cached_property
    def axes(self) -> tuple:
        return tuple(_read_only(self.x_min[d] + np.arange(self.nx) * self.h[d])
                     for d in range(self.dim))

    @cached_property
    def times(self) -> np.ndarray:
        return _read_only(np.arange(self.nt + 1) * self.dt)

    def time(self, k: int) -> float:
        return k * self.dt

    def coords(self) -> np.ndarray:
        """Node coordinates: shape (nx,) in 1D, (nx, nx, 2) in 2D."""
        return self._coords

    @cached_property
    def _coords(self) -> np.ndarray:
        if self.dim == 1:
            return self.axis(0)
        x1, x2 = np.meshgrid(self.axis(0), self.axis(1), indexing="ij")
        return _read_only(np.stack([x1, x2], axis=-1))

    def interior(self, margin: int = 10) -> slice:
        """The per-axis index range that the residual and oracle checks read:
        margin nodes in from each wall, fewer on a grid too small to keep a
        node inside (nx < 2 margin + 1); margin 0 is every node. A negative
        margin raises ValueError."""
        if margin < 0:
            raise ValueError(f"interior margin must be >= 0, got {margin}")
        margin = min(margin, (self.nx - 1) // 2)
        return slice(margin, -margin or None)

    def refine(self, factor: int = 2) -> "Grid":
        """Halve h and dt (factor 2): doubles cells per axis and time steps."""
        return Grid(self.dim, self.x_min, self.x_max,
                    (self.nx - 1) * factor + 1, self.nt * factor, self.horizon)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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


# nodes x levels that a level-batched loop (`mfg.pde_residual`, the
# histogram d1 of `measure`) holds in one array: long runs of levels share
# each numpy call, and each run's temporaries stay cache-sized
LEVEL_BATCH = 2 ** 14


def _level_runs(start: int, stop: int, grid: Grid) -> list:
    """Levels start..stop-1 as runs of consecutive levels of at most
    LEVEL_BATCH nodes x levels each; a run holds one level where a level alone
    has more nodes."""
    step = max(1, LEVEL_BATCH // grid.n_nodes)
    return [slice(k, min(k + step, stop)) for k in range(start, stop, step)]


def _second_moments(m: np.ndarray, grid: Grid) -> np.ndarray:
    """Quadrature of |x|^2 against one grid density or a stack of them."""
    sq = sum(x ** 2 for x in np.meshgrid(*grid.axes, indexing="ij"))
    return np.sum(m * sq, axis=tuple(range(-grid.dim, 0))) * grid.cell_volume


class MeasureView:
    """Read-only view of one time slice of a MeasureFlow, with cached summaries.

    Problem functions receive this as their measure argument; catalog problems
    that depend only on mean(m) stay cheap. `read` records whether the density
    was read, through `density`, `mean` or `second_moment`; a callback that
    read none of them (and keeps the ProblemSpec contract) gives the same value
    under every flow.
    """

    __slots__ = ("_density", "grid", "read", "_mean", "_second_moment")

    def __init__(self, density: np.ndarray, grid: Grid):
        d = np.asarray(density, dtype=float)
        d.flags.writeable = False
        self._density = d
        self.grid = grid
        self.read = False
        self._mean = None
        self._second_moment = None

    @property
    def density(self) -> np.ndarray:
        self.read = True
        return self._density

    @property
    def mean(self):
        if self._mean is None:
            w, x = self.density * self.grid.cell_volume, self.grid.coords()
            self._mean = float(np.sum(w * x)) if self.grid.dim == 1 else \
                np.sum(w[..., None] * x, axis=(0, 1))
        return self._mean

    @property
    def second_moment(self) -> float:
        if self._second_moment is None:
            self._second_moment = float(_second_moments(self.density, self.grid))
        return self._second_moment


@dataclass(frozen=True)
class ValueField:
    """Value function u[k] and its spatial gradient du[k] on the grid.

    du has shape (nt+1, nx) in 1D and (nt+1, nx, nx, 2) in 2D: the central/
    one-sided finite difference of values from a solver, exact from an oracle.
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
    _views: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        self.densities.flags.writeable = False

    def validate(self) -> None:
        """ValueError on a negative density or a level mass off 1 by > MASS_TOL."""
        if np.min(self.densities) < 0:
            raise ValueError(f"negative density {np.min(self.densities):.3e}")
        mass = self.densities.sum(axis=tuple(range(1, self.densities.ndim)))
        mass = mass * self.grid.cell_volume
        worst = np.max(np.abs(mass - 1.0))
        if worst > MASS_TOL:
            raise ValueError(f"mass deviates from 1 by {worst:.3e}")

    def view(self, k: int) -> MeasureView:
        """The view of level k; one per level, so every reader of the
        (read-only) flow shares its cached summaries."""
        view = self._views.get(k)
        if view is None:
            view = self._views[k] = MeasureView(self.densities[k], self.grid)
        return view

    @property
    def read(self) -> bool:
        """Whether the density of any view of this flow was read."""
        return any(view.read for view in self._views.values())

    @staticmethod
    def constant_in_time(density: np.ndarray, grid: Grid) -> "MeasureFlow":
        d = np.broadcast_to(density, (grid.nt + 1,) + density.shape).copy()
        return MeasureFlow(d, grid)


def _stream(seed: int, tag: int) -> np.random.Generator:
    """The Philox stream keyed (seed, tag), tag a time step or a stream name."""
    return np.random.Generator(np.random.Philox(key=np.uint64([seed, tag])))


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
        return (_broadcast(0.5 * sig ** 2, x.shape),), None
    a = 0.5 * np.einsum("...ik,...jk->...ij", sig, sig)
    a = _broadcast(a, x.shape[:-1] + (2, 2))
    return (a[..., 0, 0], a[..., 1, 1]), a[..., 0, 1]


class StepCoefficients:
    """One time level's coefficients at the measure view, evaluated once: b0,
    the per-axis diagonal diag_a of a = sigma sigma^T / 2, and a12, None in
    1D or where it is identically zero; f0 on the first cost call, as the FP
    never reads it. drift and cost add b1 and f1."""

    __slots__ = ("problem", "t", "x", "view", "shape", "b0", "f0", "diag_a", "a12")

    def __init__(self, problem: ProblemSpec, t: float, x: np.ndarray, view):
        self.problem, self.t, self.x, self.view = problem, t, x, view
        self.shape = x.shape if problem.dim == 1 else x.shape[:-1]
        self.b0 = problem.drift_b0(t, x, view)
        self.f0 = None
        self.diag_a, a12 = diffusion_coefficients(problem, t, x, view)
        self.a12 = a12 if a12 is not None and (a12 != 0).any() else None

    def drift(self, alpha=None) -> list:
        """Per-axis drift b0 + b1(alpha), or b0 when alpha is None."""
        b = self.b0 if alpha is None else \
            self.b0 + self.problem.drift_b1(self.t, self.x, alpha)
        return _components(np.asarray(b, dtype=float), self.shape)

    def cost(self, alpha) -> np.ndarray:
        """Running cost f0 + f1(alpha) on the nodes."""
        if self.f0 is None:
            self.f0 = self.problem.running_f0(self.t, self.x, self.view)
        f = self.f0 + self.problem.running_f1(self.t, self.x, alpha)
        return _broadcast(np.asarray(f, dtype=float), self.shape)


def _broadcast(v: np.ndarray, shape: tuple) -> np.ndarray:
    """v itself when it already has the shape, else v filled out to it: a
    whole array, since elementwise loops over a broadcast (zero-stride) view
    ran about 10% slower in the solvers."""
    return v if v.shape == shape else np.full(shape, v)


def _components(v: np.ndarray, shape: tuple) -> list:
    """Per-axis components of a vector field on nodes of the given shape: the
    field itself in 1D, v[..., d] in 2D, each broadcast to the shape."""
    if len(shape) == 1:
        return [_broadcast(v, shape)]
    return [_broadcast(v[..., d], shape) for d in range(len(shape))]


def _first_diff(v: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """dv/dx along one axis: central differences inside, first-order one-sided
    (v[1] - v[0]) / h at the rim; the arithmetic of numpy's gradient with
    uniform spacing, without its per-call overhead."""
    v = np.asarray(v, dtype=float).swapaxes(axis, -1)
    out = np.empty_like(v)
    out[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * h)
    out[..., 0] = (v[..., 1] - v[..., 0]) / h
    out[..., -1] = (v[..., -1] - v[..., -2]) / h
    return out.swapaxes(axis, -1)


def _mixed_diff(v: np.ndarray, h: tuple) -> np.ndarray:
    """d2 v / dx1 dx2 by central differences on interior nodes, over the last
    two axes of v (any leading axes are a stack). The rim stays zero: the HJB
    wall closure discards those rows and the PDE residuals read interior
    nodes only."""
    out = np.zeros(v.shape)
    dv = (v[..., 2:, :] - v[..., :-2, :]) / (2.0 * h[0])  # d/dx1 on interior rows
    out[..., 1:-1, 1:-1] = (dv[..., 2:] - dv[..., :-2]) / (2.0 * h[1])
    return out


_GTTRF, _GTTRS = get_lapack_funcs(("gttrf", "gttrs"), dtype=np.float64)
_GBMV = get_blas_funcs("gbmv", dtype=np.float64)


class LineSystem:
    """The implicit-diffusion systems of every grid line along one axis as one
    block-diagonal tridiagonal system, assembled and LU-factored once per
    distinct diffusion array.

    band(a, *args) assembles the lines' matrices from the diffusion array a
    (line axis last) in diagonal-ordered form, shape (3,) + a.shape: the
    superdiagonal, the diagonal and the subdiagonal. Its entries reaching past
    a line's ends must be zero, so no two lines couple. LAPACK's gtsv is gttrf
    followed by gttrs, so a solve gives the bits of one gtsv call on the band.
    """

    def __init__(self, band: Callable, *args):
        self._assemble, self._args = band, args
        self.a = None         # the diffusion array band and factors come from
        self.band = None      # (3, lines * nodes), Fortran order for gbmv
        self._factors = None

    def solve(self, a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve every line's system at diffusion a for rhs of a's shape,
        refactoring only when a is neither self.a nor bitwise equal to it."""
        if a is not self.a and (self.a is None or not np.array_equal(a, self.a)):
            self._factor(a)
        self.a = a
        x, info = _GTTRS(*self._factors, rhs.reshape(-1))
        _check_info(info)
        return x.reshape(rhs.shape)

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """A x - rhs, flat, for the stored band in one BLAS gbmv call."""
        return _GBMV(x.size, x.size, 1, 1, 1.0, self.band, x.ravel(), beta=-1.0, y=rhs.ravel())

    def _factor(self, a: np.ndarray) -> None:
        band = self._assemble(a, *self._args).reshape(3, -1)
        *factors, info = _GTTRF(band[2, :-1], band[1], band[0, 1:])
        _check_info(info)
        self.a, self.band, self._factors = a, np.asfortranarray(band), factors


def _check_info(info: int) -> None:
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of a LAPACK banded solve")


def gradient_field(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Central differences interior, one-sided at the boundary."""
    if grid.dim == 1:
        return _first_diff(values, grid.h[0])
    g1 = _first_diff(values, grid.h[0], axis=0)
    g2 = _first_diff(values, grid.h[1], axis=1)
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
    out = _interpolate(_component_table(values, grid.n_nodes), grid,
                       x.reshape(-1, dim))
    out = out.T.reshape(lead + values.shape[dim:])
    return float(out) if out.ndim == 0 else out


def _component_table(fields: np.ndarray, nodes: int) -> np.ndarray:
    """The kernel's (components, nodes) table of node fields whose leading
    axes hold `nodes` nodes in all: one contiguous row per component, so each
    corner's take reads contiguous memory; a view when there is one
    component, else a copy."""
    return np.ascontiguousarray(fields.reshape(nodes, -1).T)


def _interpolate(table: np.ndarray, grid: Grid, pts: np.ndarray,
                 base: Optional[np.ndarray] = None) -> np.ndarray:
    """The interpolation kernel: table is (components, fields * nodes), a stack
    of node fields; pts is (..., dim); base is None for one field, else the
    points' offsets field * n_nodes into the stack. Returns (components, ...)."""
    dim, nx = grid.dim, grid.nx
    # the cell lookup: flat index of the lower corner and per-axis weights,
    # each step in place on one temporary per axis
    flat, weights, h = None, [], grid.h
    for d in range(dim):
        s = np.subtract(pts[..., d], grid.x_min[d])
        s /= h[d]
        np.clip(s, 0.0, nx - 1.0, out=s)
        i = s.astype(np.intp)
        np.minimum(i, nx - 2, out=i)
        s -= i  # the fraction of the cell
        if flat is not None:  # row-major: flat * nx + i
            flat *= nx
            i += flat
        flat = i
        weights.append((1 - s, s))
    if base is not None:
        flat += base

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
            term *= w
        out = term if out is None else np.add(out, term, out=out)
    return out

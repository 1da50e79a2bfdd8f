"""Reduced Euler-Poincare and Lie-Poisson flows on a fixed-basis Lie algebra.

Both flows live on the dual g*, in the coordinates induced by the basis:

  Euler-Poincare   dpi/dt = -coad(I^-1 pi) pi      (momentum pi = I xi)
  Lie-Poisson      dmu/dt = +coad(dH/dmu) mu

With coad = -ad^T these differ only by the sign convention carried by the
Hamiltonian/Lagrangian side; for quadratic energies and identity inertia the
two trajectories coincide up to time reversal.  Either flow conserves the
energy pointwise because <coad(x) mu, x> = -<mu, [x, x]> = 0.

A product's structure tensor is flattened once and cached on its algebra
(`field_tensor`, T).  A quadratic energy forms its inverse inertia
X = I^-1 once, at construction, from numpy's Cholesky factor I = L L^T as
X = L^-T L^-1; every use of I^-1 reads that X.  The field is a homogeneous
quadratic in the state, T @ vec(X pi (x) pi) = K @ vec(pi (x) pi), so X is
folded into T once, K[k, i, j] = sum_a T[k, a*n + j] X[a, i], and each field
evaluation is one contraction of K, sum_ij K[k, i, j] pi_i pi_j, made as two
BLAS matrix-vector products: K stored as (n*n, n) times pi, reshaped to
(n, n), times pi.  The spec keeps one folded tensor, in that (n*n, n) shape,
keyed by the identity of the T it was folded from.  A blackbox energy has no
I^-1 to fold: its Lie-Poisson field makes the same two products with T, the
finite-difference dH/dmu of `fd_gradient` in the second.  The paper's
blockwise coadjoint `products.coad`, assembled from six dual maps, is the
independent construction the tests check these fields against.

Fields here take and return flat coordinate vectors; the integrator is a
plain fixed-step RK4, which is all the acceptance experiments require.  Its
stages live in one buffer, and each stage input and each update is one dot
product of a coefficient row of the tableau with a slice of that buffer.
The stages after it work on the whole trajectory at once.
`EnergySpec.dual_gradient` and `EnergySpec.hamiltonian` take one momentum
or an (m, n) stack of them, so a check along a whole trajectory makes one
product with X instead of m.  `conservation_report` calls each functional
once on the (m, n) array of states and expects its m values back, and
`write_trajectory_csv` formats the rows as Python floats in one pass.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import errors
from .algebra import LieAlgebra, _Kept, read_only_floats
from .errors import (ConfigError, DimensionError, NonFiniteState, SingularInertia,
                     TrajectoryTooLarge, floats, integer, positive)
from .products import UnifiedProductData

__all__ = [
    "EnergySpec",
    "Trajectory",
    "ep_field",
    "lp_field",
    "rk4",
    "conservation_report",
    "fd_gradient",
    "write_trajectory_csv",
    "write_report_json",
]

_SYM_TOL = 1e-12


def fd_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    `eps` must be finite and > 0 (else ConfigError) and `x` a flat vector of
    real numbers (errors.floats)."""
    eps = positive(eps, "eps")
    x = floats(x, "x", (None,))
    g = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        g[i] = (f(x + step) - f(x - step)) / (2.0 * eps)
    return g


@dataclass(frozen=True, eq=False)
class EnergySpec:
    """Energy function on g* (equivalently a Lagrangian on g).

    kind "quadratic" uses H(mu) = 1/2 <mu, I^-1 mu>; the inertia matrix, an
    array of real numbers (errors.floats), must be square, finite, symmetric
    and positive definite, else SingularInertia (a non-finite entry, an
    asymmetry above 1e-12 * max(1, max|I|) or a failed numpy Cholesky
    factorization I = L L^T).
    X = I^-1 is formed once from the factor, as L^-T L^-1.  kind "blackbox"
    wraps an arbitrary callable and differentiates it by central differences,
    so tolerances downstream are limited to ~sqrt(machine eps) * |f|''
    scales.
    """

    kind: str
    inertia: np.ndarray | None = None
    f: Callable[[np.ndarray], float] | None = None
    fd_eps: float = 1e-6
    _inv: np.ndarray | None = field(init=False, repr=False, default=None)
    _fold: tuple = field(init=False, repr=False, default=(None, None))

    def __post_init__(self) -> None:
        if self.kind == "quadratic":
            if self.inertia is None:
                raise ConfigError("quadratic energy needs an inertia matrix")
            inertia = read_only_floats(self.inertia, "inertia")
            if inertia.ndim != 2 or inertia.shape[0] != inertia.shape[1]:
                raise DimensionError(
                    f"inertia has shape {inertia.shape}, expected a square matrix")
            if not np.isfinite(inertia).all():
                raise SingularInertia("inertia has a non-finite entry")
            scale = max(1.0, np.max(np.abs(inertia), initial=0.0))
            if np.max(np.abs(inertia - inertia.T), initial=0.0) > _SYM_TOL * scale:
                raise SingularInertia("inertia matrix is not symmetric")
            try:
                linv = np.linalg.inv(np.linalg.cholesky(inertia))
            except np.linalg.LinAlgError as exc:
                raise SingularInertia(f"inertia is not positive definite: {exc}") from exc
            inv = linv.T @ linv
            inv.setflags(write=False)
            object.__setattr__(self, "inertia", inertia)
            object.__setattr__(self, "_inv", inv)
        elif self.kind == "blackbox":
            if self.f is None or not callable(self.f):
                raise ConfigError("blackbox energy needs a callable f")
            positive(self.fd_eps, "fd_eps")
        else:
            raise ConfigError(f"unknown energy kind {self.kind!r}")

    # -- constructors ----------------------------------------------------

    @classmethod
    def quadratic(cls, inertia: np.ndarray) -> "EnergySpec":
        return cls(kind="quadratic", inertia=inertia)

    @classmethod
    def identity(cls, dim: int) -> "EnergySpec":
        return cls(kind="quadratic", inertia=np.eye(integer(dim, "dim")))

    @classmethod
    def diagonal(cls, entries) -> "EnergySpec":
        return cls(kind="quadratic", inertia=np.diag(floats(entries, "entries", (None,))))

    @classmethod
    def blackbox(cls, f: Callable[[np.ndarray], float], fd_eps: float = 1e-6) -> "EnergySpec":
        return cls(kind="blackbox", f=f, fd_eps=fd_eps)

    # -- evaluations -----------------------------------------------------

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """delta f / delta x.  For the quadratic kind this reads x as a
        velocity and returns the momentum I x."""
        if self.kind == "quadratic":
            return self.inertia @ floats(x, "x", self.inertia.shape[:1])
        return fd_gradient(self.f, x, self.fd_eps)

    def dual_gradient(self, mu: np.ndarray) -> np.ndarray:
        """delta H / delta mu, for one momentum (n,) or a stack (m, n) of
        them, row by row.  Quadratic: the velocity I^-1 mu, one product
        mu @ X.T with the inverse inertia X formed at construction (X @ mu,
        the orientation the folded tensor uses); a non-finite mu propagates,
        the integrator detects blown-up states itself.  A blackbox energy
        takes one fd_gradient per row.  mu is judged by errors.floats."""
        mu, quadratic = floats(mu, "mu"), self.kind == "quadratic"
        n = len(self.inertia) if quadratic else "n"
        if mu.ndim not in (1, 2) or quadratic and mu.shape[-1] != n:
            raise DimensionError(f"mu has shape {mu.shape}, expected ({n},) or (m, {n})")
        if quadratic:
            return mu @ self._inv.T
        grads = [fd_gradient(self.f, row, self.fd_eps) for row in np.atleast_2d(mu)]
        return np.array(grads).reshape(mu.shape)

    def hamiltonian(self, mu: np.ndarray) -> float | np.ndarray:
        """H(mu) of one momentum (n,), a float, or of each row of an (m, n)
        stack, an (m,) array; other shapes raise DimensionError.

        A quadratic energy makes one stacked dual_gradient product and a
        row-wise dot (a batched matmul, the same dot product as one row's
        mu @ v).  A blackbox energy calls f once per row."""
        mu = floats(mu, "mu")
        if self.kind == "quadratic":
            v = self.dual_gradient(mu)
            if mu.ndim == 1:
                return 0.5 * float(mu @ v)
            return 0.5 * (mu[:, None, :] @ v[:, :, None]).ravel()
        if mu.ndim == 1:
            return float(self.f(mu))
        if mu.ndim != 2:
            raise DimensionError(f"mu has shape {mu.shape}, expected (n,) or (m, n)")
        return np.array([float(self.f(row)) for row in mu])

    def _fit(self, n: int) -> None:
        """Raise DimensionError unless a quadratic energy's inertia is n x n."""
        if self.kind == "quadratic" and len(self.inertia) != n:
            k = len(self.inertia)
            raise DimensionError(f"inertia is {k}x{k}, the state has length {n}")

    def _folded(self, tensor: np.ndarray) -> np.ndarray:
        """The field tensor `tensor` (n, n*n) with X = I^-1 folded in, stored
        as (n*n, n): K[k*n + i, j] = sum_a tensor[k, a*n + j] X[a, i], so that
        K.dot(pi).reshape(n, n).dot(pi) == tensor @ vec(X pi (x) pi).

        Built with one einsum the first time it is asked for `tensor`, then
        kept as the spec's single cached entry, keyed by the identity of
        `tensor`; another tensor replaces it."""
        key, k = self._fold
        if key is not tensor:
            n = tensor.shape[0]
            self._fit(n)
            k = np.einsum("kaj,ai->kij", tensor.reshape(n, n, n), self._inv).reshape(n * n, n)
            k.setflags(write=False)
            object.__setattr__(self, "_fold", (tensor, k))
        return k


def ep_field(d: UnifiedProductData | LieAlgebra, spec: EnergySpec, pi: np.ndarray) -> np.ndarray:
    """Right-hand side of the Euler-Poincare equation dpi/dt = -coad(xi) pi
    with xi = I^-1 pi.  Requires a quadratic energy (the inertia defines the
    Legendre transform).

    Two matrix-vector products of pi with `d.field_tensor` with I^-1 folded
    in (built once and cached on the spec); it agrees with the blockwise
    six-map `products.coad`, which the tests check.  The state is judged by
    errors.floats as a (dim,) array, before the energy's kind."""
    tensor = d.field_tensor
    pi = floats(pi, "state", tensor.shape[:1])
    if spec.kind != "quadratic":
        raise ConfigError("Euler-Poincare reduction needs a quadratic energy")
    return spec._folded(tensor).dot(pi).reshape(pi.size, pi.size).dot(pi)


def lp_field(d: UnifiedProductData | LieAlgebra, spec: EnergySpec, mu: np.ndarray) -> np.ndarray:
    """Right-hand side of the Lie-Poisson equation dmu/dt = +coad(dH/dmu) mu.

    The negative of the Euler-Poincare contraction: of the folded tensor for
    a quadratic energy, and of `d.field_tensor` read as (n*n, n) with the
    finite-difference dH/dmu in place of I^-1 mu in the second product for a
    blackbox one.  The state is judged as in ep_field."""
    tensor = d.field_tensor
    mu = floats(mu, "state", tensor.shape[:1])
    n = mu.size
    if spec.kind == "quadratic":
        return -spec._folded(tensor).dot(mu).reshape(n, n).dot(mu)
    return -tensor.reshape(n * n, n).dot(mu).reshape(n, n).dot(spec.dual_gradient(mu))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Fixed-step integration output: times[i] pairs with states[i].  The
    arrays rk4 hands over (_Kept) are kept, any other copied; both are
    judged by errors.floats, times as (m,) and states as (m, n), and labels
    by errors.labels, x1, x2, ... if empty."""

    times: np.ndarray
    states: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        times = read_only_floats(self.times, "times", (None,))
        states = read_only_floats(self.states, "states", (len(times), None))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "labels",
                           errors.labels(self.labels, "labels", states.shape[1], "x"))

    def __len__(self) -> int:
        return len(self.times)

    @property
    def h(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0


def rk4(
    field: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    h: float,
    steps: int,
    labels: tuple[str, ...] = (),
) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta.

    `h` must be finite and > 0, `steps` an integer >= 1, `y0` a flat vector
    of real numbers (errors.floats) and `labels` as for Trajectory.  Raises
    NonFiniteState as soon as a state stops being finite, so a blown-up run
    fails at the step that produced it rather than at write-out time; it
    carries .step, .component (the label of the first non-finite entry) and
    .last_finite (the state before, None at step 0).  Raises
    TrajectoryTooLarge when the (steps + 1, n) array of states cannot be
    allocated; frozen, that array is the trajectory's states, not a copy.

    Each step makes four field calls and five dot products.  The stages go
    into one (5, n) buffer, rows (k1, k2, k3, k4, y).  Each stage input is a
    coefficient row of the tableau dotted with a strided (k, y) pair of
    rows, and the update is the weight row (h/6, h/3, h/3, h/6, 1) dotted
    with the whole buffer, y in the last row as in y + sum_i b_i k_i.  No
    coefficient is zero, so a non-finite stage is never multiplied by 0.
    The per-step finiteness test is math.isfinite(ones.dot(y)), the sum of
    the entries as one BLAS dot (y.dot(y) would overflow from |y| ~ 1e154),
    confirmed entry by entry only when it is not finite, so a finite state
    whose sum overflows is not flagged.  Overflow and invalid warnings are
    off in the loop, field calls included: a blow-up is a NonFiniteState.
    """
    h, steps = positive(h, "h"), integer(steps, "steps", 1)
    y = floats(y0, "y0", (None,))
    labels = errors.labels(labels, "labels", y.size, "x")
    if not np.isfinite(y).all():
        raise _non_finite(0, y, None, labels)
    try:
        out = np.empty((steps + 1, y.size))
    except MemoryError as exc:
        raise TrajectoryTooLarge(
            f"cannot hold {steps} steps of a state of size {y.size}: "
            f"{(steps + 1) * y.size * y.itemsize} bytes requested"
        ) from exc
    out[0] = y
    stages = np.empty((5, y.size))
    stages[4] = y
    # rows (0, 4), (1, 4) and (2, 4): the (k_i, y) pairs of the stage inputs
    pair1, pair2, pair3 = stages[0::4], stages[1::3], stages[2::2]
    half_row, full_row = np.array([0.5 * h, 1.0]), np.array([h, 1.0])
    weights = np.array([h / 6.0, h / 3.0, h / 3.0, h / 6.0, 1.0])
    ones = np.ones(y.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, steps + 1):
            stages[0] = field(y)
            stages[1] = field(half_row.dot(pair1))
            stages[2] = field(half_row.dot(pair2))
            stages[3] = field(full_row.dot(pair3))
            y = weights.dot(stages)
            if not math.isfinite(ones.dot(y)) and not np.isfinite(y).all():
                raise _non_finite(n, y, out[n - 1].copy(), labels)
            out[n] = y
            stages[4] = y
    times = np.arange(steps + 1, dtype=float)
    times *= h
    return Trajectory(times=_Kept(times), states=_Kept(out), labels=labels)


def _non_finite(
    step: int, y: np.ndarray, last_finite: np.ndarray | None, labels: tuple[str, ...]
) -> NonFiniteState:
    component = labels[int(np.isfinite(y).argmin())]
    return NonFiniteState(step, component=component, last_finite=last_finite)


def conservation_report(
    traj: Trajectory, functionals: Mapping[str, Callable[[np.ndarray], np.ndarray]]
) -> dict:
    """Drift summary for each named functional along a trajectory.

    Each functional is called once, on the whole (m, n) `traj.states`, and
    must return its m values, one per state (`EnergySpec.hamiltonian` takes
    such a stack), judged by errors.floats.  Relative drift is
    normalized by max(|initial value|, 1e-30) so exactly conserved zero
    values do not divide by zero.
    """
    if len(traj) == 0:
        raise ValueError("conservation report needs a nonempty trajectory")
    report: dict[str, dict[str, float]] = {}
    for name, func in functionals.items():
        values = floats(func(traj.states), f"functional {name!r}", (len(traj),))
        initial = values[0]
        drift = np.max(np.abs(values - initial), initial=0.0)
        scale = max(abs(initial), 1e-30)
        report[name] = {
            "initial": float(initial),
            "max_abs_drift": float(drift),
            "max_rel_drift": float(drift / scale),
        }
    return report


# -- plain-text outputs ----------------------------------------------------
#
# CSV: one header row ("t" then the state labels, quoted by csv.writer where
# needed), '%.17g' everywhere so round-tripping through text is exact for
# doubles.  JSON reports are dumped with sorted keys to keep reruns diffable.

_CSV_BLOCK_ROWS = 1 << 16  # rows formatted per write, bounding the text held at once


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """The header through csv.writer, then the body formatted one
    '%.17g,...\\r\\n' % row per row of Python floats and written in one call
    per block of rows (one call for up to 65536 rows).  Numbers never need
    csv quoting, so this is the text csv.writer would write."""
    path = Path(path)
    table = np.column_stack((traj.times, traj.states))
    line = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(("t",) + traj.labels)
        for lo in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[lo:lo + _CSV_BLOCK_ROWS].tolist()
            fh.write("".join([line % tuple(row) for row in block]))


def write_report_json(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

"""Reduced Euler-Poincare and Lie-Poisson flows on a fixed-basis Lie algebra.

Both flows live on the dual g*, in the coordinates induced by the basis:

  Euler-Poincare   dpi/dt = -coad(I^-1 pi) pi      (momentum pi = I xi)
  Lie-Poisson      dmu/dt = +coad(dH/dmu) mu

With coad = -ad^T these differ only by the sign convention carried by the
Hamiltonian/Lagrangian side; for quadratic energies and identity inertia the
two trajectories coincide up to time reversal.  Either flow conserves the
energy pointwise because <coad(x) mu, x> = -<mu, [x, x]> = 0.

Each field evaluation is one contraction of the composed structure tensor,
flattened once per structure and cached on it (`field_tensor`).  The paper's
blockwise coadjoint `products.coad`, assembled from six dual maps, is the
independent construction the tests check these fields against.

Fields here take and return flat coordinate vectors; the integrator is a
plain fixed-step RK4, which is all the acceptance experiments require.
`EnergySpec.dual_gradient` takes one momentum or an (m, n) stack of them,
so a check along a whole trajectory makes one solve instead of m.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import get_lapack_funcs

from .algebra import LieAlgebra
from .errors import DimensionError, NonFiniteState, SingularInertia, TrajectoryTooLarge
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
_POTRS = get_lapack_funcs("potrs", dtype=np.float64)


def fd_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        g[i] = (f(x + step) - f(x - step)) / (2.0 * eps)
    return g


@dataclass(frozen=True)
class EnergySpec:
    """Energy function on g* (equivalently a Lagrangian on g).

    kind "quadratic" uses H(mu) = 1/2 <mu, I^-1 mu>; the inertia matrix must
    be symmetric positive definite.  kind "blackbox" wraps an arbitrary
    callable and differentiates it by central differences, so tolerances
    downstream are limited to ~sqrt(machine eps) * |f|'' scales.
    """

    kind: str
    inertia: np.ndarray | None = None
    f: Callable[[np.ndarray], float] | None = None
    fd_eps: float = 1e-6
    _cho: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind == "quadratic":
            if self.inertia is None:
                raise ValueError("quadratic energy needs an inertia matrix")
            inertia = np.asarray(self.inertia, dtype=float)
            if inertia.ndim != 2 or inertia.shape[0] != inertia.shape[1]:
                raise ValueError(f"inertia must be square, got shape {inertia.shape}")
            if np.max(np.abs(inertia - inertia.T), initial=0.0) > _SYM_TOL:
                raise ValueError("inertia matrix is not symmetric")
            try:
                cho = scipy.linalg.cho_factor(inertia)
            except scipy.linalg.LinAlgError as exc:
                raise SingularInertia(f"inertia is not positive definite: {exc}") from exc
            inertia.setflags(write=False)
            object.__setattr__(self, "inertia", inertia)
            object.__setattr__(self, "_cho", cho)
        elif self.kind == "blackbox":
            if self.f is None or not callable(self.f):
                raise ValueError("blackbox energy needs a callable f")
            if not self.fd_eps > 0:
                raise ValueError("fd_eps must be positive")
            object.__setattr__(self, "_cho", ())
        else:
            raise ValueError(f"unknown energy kind {self.kind!r}")

    # -- constructors ----------------------------------------------------

    @classmethod
    def quadratic(cls, inertia: np.ndarray) -> "EnergySpec":
        return cls(kind="quadratic", inertia=np.asarray(inertia, dtype=float))

    @classmethod
    def identity(cls, dim: int) -> "EnergySpec":
        return cls(kind="quadratic", inertia=np.eye(dim))

    @classmethod
    def diagonal(cls, entries) -> "EnergySpec":
        return cls(kind="quadratic", inertia=np.diag(np.asarray(entries, dtype=float)))

    @classmethod
    def blackbox(cls, f: Callable[[np.ndarray], float], fd_eps: float = 1e-6) -> "EnergySpec":
        return cls(kind="blackbox", f=f, fd_eps=fd_eps)

    # -- evaluations -----------------------------------------------------

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """delta f / delta x.  For the quadratic kind this reads x as a
        velocity and returns the momentum I x."""
        x = np.asarray(x, dtype=float)
        if self.kind == "quadratic":
            return self.inertia @ x
        return fd_gradient(self.f, x, self.fd_eps)

    def dual_gradient(self, mu: np.ndarray) -> np.ndarray:
        """delta H / delta mu, for one momentum (n,) or a stack (m, n) of
        them, row by row.  Quadratic: the velocity I^-1 mu.

        A quadratic energy makes one LAPACK potrs call on the stored
        Cholesky factor, with the rows of a stack as its right-hand sides
        (mu.T, which is mu itself for one momentum).  That is what
        scipy.linalg.cho_solve(..., check_finite=False) does, without its
        per-call wrapping: the factorization was validated at construction,
        and a non-finite mu should propagate (the integrator detects
        blown-up states itself) rather than crash inside the solver.  A
        blackbox energy takes one fd_gradient per row."""
        mu = np.asarray(mu, dtype=float)
        if self.kind == "quadratic":
            n = self.inertia.shape[0]
            if mu.ndim not in (1, 2) or mu.shape[-1] != n:
                raise DimensionError(
                    f"mu has shape {mu.shape}, expected ({n},) or (m, {n})"
                )
            c, lower = self._cho
            x, info = _POTRS(c, mu.T, lower=lower)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of internal potrs")
            return x.T
        if mu.ndim not in (1, 2):
            raise DimensionError(f"mu has shape {mu.shape}, expected (n,) or (m, n)")
        grads = [fd_gradient(self.f, row, self.fd_eps) for row in np.atleast_2d(mu)]
        return np.array(grads).reshape(mu.shape)

    def hamiltonian(self, mu: np.ndarray) -> float:
        """H(mu) of one momentum."""
        mu = np.asarray(mu, dtype=float)
        if self.kind == "quadratic":
            if mu.ndim != 1:
                raise DimensionError(
                    f"mu has shape {mu.shape}, expected ({self.inertia.shape[0]},)"
                )
            return 0.5 * float(mu @ self.dual_gradient(mu))
        return float(self.f(mu))


def ep_field(d: UnifiedProductData | LieAlgebra, spec: EnergySpec, pi: np.ndarray) -> np.ndarray:
    """Right-hand side of the Euler-Poincare equation dpi/dt = -coad(xi) pi
    with xi = I^-1 pi.  Requires a quadratic energy (the inertia defines the
    Legendre transform).

    One contraction of the cached composed tensor `d.field_tensor`; it agrees
    with the blockwise six-map `products.coad`, which the tests check."""
    if spec.kind != "quadratic":
        raise ValueError("Euler-Poincare reduction needs a quadratic energy")
    tensor = d.field_tensor
    pi = _state(tensor, pi)
    return tensor @ (spec.dual_gradient(pi)[:, None] * pi).ravel()


def lp_field(d: UnifiedProductData | LieAlgebra, spec: EnergySpec, mu: np.ndarray) -> np.ndarray:
    """Right-hand side of the Lie-Poisson equation dmu/dt = +coad(dH/dmu) mu.

    The negative of the Euler-Poincare contraction of `d.field_tensor`, with
    dH/dmu in place of I^-1 pi."""
    tensor = d.field_tensor
    mu = _state(tensor, mu)
    return -(tensor @ (spec.dual_gradient(mu)[:, None] * mu).ravel())


def _state(tensor: np.ndarray, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (tensor.shape[0],):
        raise DimensionError(f"state has shape {y.shape}, expected ({tensor.shape[0]},)")
    return y


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step integration output: times[i] pairs with states[i]."""

    times: np.ndarray
    states: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or times.ndim != 1 or len(times) != len(states):
            raise ValueError("times and states rows must line up")
        labels = tuple(self.labels) or tuple(f"x{i + 1}" for i in range(states.shape[1]))
        if len(labels) != states.shape[1]:
            raise ValueError("one label per state component")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "labels", labels)

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

    Raises NonFiniteState (with .step set) as soon as a state stops being
    finite, so a blown-up run fails at the step that produced it rather than
    at write-out time, and TrajectoryTooLarge when the (steps + 1, n) array
    of states cannot be allocated.
    """
    if not h > 0:
        raise ValueError("step size must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    y = np.array(y0, dtype=float).ravel()
    if not np.isfinite(y).all():
        raise NonFiniteState(0)
    try:
        out = np.empty((steps + 1, y.size))
    except MemoryError as exc:
        raise TrajectoryTooLarge(
            f"cannot hold {steps} steps of a state of size {y.size}: "
            f"{(steps + 1) * y.size * y.itemsize} bytes requested"
        ) from exc
    out[0] = y
    for n in range(1, steps + 1):
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise NonFiniteState(n)
        out[n] = y
    times = h * np.arange(steps + 1)
    return Trajectory(times=times, states=out, labels=labels)


def conservation_report(
    traj: Trajectory, functionals: Mapping[str, Callable[[np.ndarray], float]]
) -> dict:
    """Drift summary for each named functional along a trajectory.

    Relative drift is normalized by max(|initial value|, 1e-30) so exactly
    conserved zero values do not divide by zero.
    """
    if len(traj) == 0:
        raise ValueError("conservation report needs a nonempty trajectory")
    report: dict[str, dict[str, float]] = {}
    for name, func in functionals.items():
        values = np.array([func(row) for row in traj.states], dtype=float)
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
# CSV: one header row ("t" then the state labels), '%.17g' everywhere so
# round-tripping through text is exact for doubles.  JSON reports are dumped
# with sorted keys to keep reruns diffable.


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t",) + traj.labels)
        for t, row in zip(traj.times, traj.states):
            writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])


def write_report_json(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

"""Third-order reduced dynamics: T^3G collapsed onto a single Lie algebra g.

The third-order tangent algebra on g^3, with levels (eta0, eta1, eta2), has
bracket

  [(a0,a1,a2), (b0,b1,b2)] = ([a0,b0], [a0,b1]+[a1,b0],
                              [a0,b2] + 2[a1,b1] + [a2,b0]),

the n = 2 case of `tangent_algebra(g, n)`.  `ep3_field` is the
Euler-Poincare contraction of that algebra's cached field tensor; the level
equations written out with the base-algebra coadjoint are kept in the tests
as its oracle.  `third_order_product` reads the same tensor as a cocycle
double cross sum, cut below level 2: m = levels 0-1, h = an
abelian level 2, trivial action, twist psi(eta, (v0,v1)) = [eta, v0] and
cocycle theta((v0,v1),(w0,w1)) = 2[v1,w1].  Being the same tensor it is no
independent check; test_third_order_product_structure pins these blocks.

The Euler-Lagrange equations on T(T^2 G), `el_t_t2g_field`, reduce to the
same algebras: their ad* terms are the coadjoints of tangent_algebra(g, 1)
at the base velocities and of tangent_algebra(g, 2) at the fiber
velocities, and every partial of L is one `dynamics.fd_gradient`.

The reduced equations integrate the momenta (pi0, pi1, pi2); along any
solution the combination pi0 - pi1' + pi2'' is transported by -ad*_{eta0},
which `third_order_identity_residual` checks with finite differences, in
one array pass over the whole trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import LieAlgebra, _expm, read_only_floats, tangent_algebra
from .dynamics import EnergySpec, ep_field, fd_gradient
from .errors import (DimensionError, NonUniformGrid, SingularFiberMap, TooFewPoints, default_tol,
                     floats)
from .products import UnifiedProductData

__all__ = [
    "third_order_product",
    "ep3_field",
    "MatrixBasis",
    "el_t_t2g_field",
    "third_order_identity_residual",
]


def third_order_product(g: LieAlgebra) -> UnifiedProductData:
    """tangent_algebra(g, 2) cut below its top level: m the tangent algebra
    of g (levels 0 and 1), h an abelian copy of g (level 2), a trivial
    action, and a twist and cocycle that couple level 2 back down."""
    return UnifiedProductData(tangent_algebra(g, 2), 2 * g.dim)


def ep3_field(g: LieAlgebra, spec: EnergySpec, pi: np.ndarray) -> np.ndarray:
    """Third-order Euler-Poincare right-hand side on g* x g* x g*.

    With eta = I^-1 pi split into levels (eta0, eta1, eta2):

      dpi0/dt = -ad*_eta0 pi0 - ad*_eta1 pi1 - ad*_eta2 pi2
      dpi1/dt = -ad*_eta0 pi1 - 2 ad*_eta1 pi2
      dpi2/dt = -ad*_eta0 pi2

    computed as one ep_field contraction of the cached tangent_algebra(g, 2),
    which judges the state before the energy; the tests check it against
    these levels written out with g.coad.
    """
    return ep_field(tangent_algebra(g, 2), spec, pi)


# -- matrix realizations ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MatrixBasis:
    """A basis of a matrix Lie algebra, with coordinate maps both ways.

    Coordinates use the Frobenius pairing: coords(X) solves the Gram system
    of the basis, so coords(matrix(x)) == x exactly when the basis is
    independent.  Structure constants of the commutator come along for free.
    The matrices and every argument are judged by errors.floats.
    """

    mats: np.ndarray
    labels: tuple[str, ...] = ()
    tol: float = field(default_factory=default_tol)

    def __post_init__(self) -> None:
        mats = read_only_floats(self.mats, "mats")
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise DimensionError(
                f"mats has shape {mats.shape}, expected a stack of square matrices")
        n = mats.shape[0]
        flat = mats.reshape(n, -1)
        gram = flat @ flat.T
        # dependent basis <-> singular Gram matrix <-> fiber map not invertible
        if n > 0 and np.linalg.matrix_rank(gram) < n:
            raise SingularFiberMap("basis matrices are linearly dependent")
        proj = np.linalg.solve(gram, flat) if n else flat
        labels = tuple(self.labels) or tuple(f"E{i + 1}" for i in range(n))
        if len(labels) != n:
            raise ValueError("one label per basis matrix")
        c = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                c[:, i, j] = proj @ (mats[i] @ mats[j] - mats[j] @ mats[i]).ravel()
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_proj", proj)
        object.__setattr__(self, "algebra", LieAlgebra(dim=n, c=c, labels=labels, tol=self.tol))

    @property
    def dim(self) -> int:
        return self.mats.shape[0]

    def coords(self, x: np.ndarray) -> np.ndarray:
        return self._proj @ floats(x, "x", self.mats.shape[1:]).ravel()

    def matrix(self, v: np.ndarray) -> np.ndarray:
        return np.tensordot(floats(v, "v", (self.dim,)), self.mats, axes=1)

    @classmethod
    def so3(cls) -> "MatrixBasis":
        mats = np.zeros((3, 3, 3))
        mats[0] = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
        mats[1] = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]
        mats[2] = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
        return cls(mats, labels=("e1", "e2", "e3"))

    @classmethod
    def sl2(cls) -> "MatrixBasis":
        mats = np.array(
            [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        )
        return cls(mats, labels=("H", "E", "F"))


def el_t_t2g_field(
    L: Callable[..., float],
    state: tuple,
    basis: MatrixBasis,
    fd_eps: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euler-Lagrange right-hand sides for a Lagrangian on T(T^2 G).

    `state` is (g, xi1, xi2, eta0, eta1, eta2): a group element, two
    second-order base velocities and three fiber velocities, all matrices in
    the representation carried by `basis`, judged by errors.floats as one
    (6, d, d) array.  `L` takes the six matrices and returns a scalar.
    Returns the time derivatives of the three fiber momenta (delta L /
    delta eta0, eta1, eta2) as coordinate covectors:

      d/dt dL_eta0 = (left-trivialized dL_g) - ad*_xi1 dL_xi1 - ad*_xi2 dL_xi2
                     - ad*_eta0 dL_eta0 - ad*_eta1 dL_eta1 - ad*_eta2 dL_eta2
      d/dt dL_eta1 = dL_xi1 - ad*_xi1 dL_xi2 - ad*_eta0 dL_eta1 - 2 ad*_eta1 dL_eta2
      d/dt dL_eta2 = dL_xi2 - ad*_eta0 dL_eta2

    The ad* terms are two coadjoints of tangent algebras: that of
    tangent_algebra(g, 1) at (xi1, xi2) on (dL_xi1, dL_xi2), which gives the
    xi terms of levels 0 and 1, and that of tangent_algebra(g, 2) at
    (eta0, eta1, eta2) on (dL_eta0, dL_eta1, dL_eta2), which gives the eta
    terms of all three levels.

    Each partial of L is one `fd_gradient` along the basis directions: the
    velocity slots move additively and the group slot moves as
    g expm(basis.matrix(c)), so the output carries O(fd_eps^2) truncation
    error.  When L does not depend on g, xi1, xi2, the equations reduce to
    the third-order Euler-Poincare flow.
    """
    args = list(floats(state, "state", (6,) + basis.mats.shape[1:]))
    xi1, xi2, eta0, eta1, eta2 = (basis.coords(a) for a in args[1:])
    n = basis.dim

    def partial(k: int) -> np.ndarray:
        def moved(c: np.ndarray) -> float:
            shifted = list(args)
            step = basis.matrix(c)
            shifted[k] = args[0] @ _expm(step) if k == 0 else args[k] + step
            return L(*shifted)

        return fd_gradient(moved, np.zeros(n), fd_eps)

    dg, dxi1, dxi2, *deta = (partial(k) for k in range(6))
    xi_terms = tangent_algebra(basis.algebra, 1).coad(
        np.concatenate((xi1, xi2)), np.concatenate((dxi1, dxi2))
    )
    eta_terms = tangent_algebra(basis.algebra, 2).coad(
        np.concatenate((eta0, eta1, eta2)), np.concatenate(deta)
    )
    d0 = dg - xi_terms[:n] - eta_terms[:n]
    d1 = dxi1 - xi_terms[n:] - eta_terms[n : 2 * n]
    d2 = dxi2 - eta_terms[2 * n :]
    return d0, d1, d2


# -- a posteriori check of the transported-momentum identity ------------------

# fourth-order central stencils; the third derivative needs i +- 3, so the
# interior of an N-point trajectory is indices 3 .. N-4.
_D1 = {2: -1.0, 1: 8.0, -1: -8.0, -2: 1.0}  # / 12h
_D2 = {2: -1.0, 1: 16.0, 0: -30.0, -1: 16.0, -2: -1.0}  # / 12h^2
_D3 = {3: -1.0, 2: 8.0, 1: -13.0, -1: 13.0, -2: -8.0, -3: 1.0}  # / 8h^3


def _interior(series: np.ndarray, weights: dict, denom: float) -> np.ndarray:
    """A stencil at every interior row 3 .. len-4 at once, as shifted slices."""
    m = len(series) - 6
    return sum(w * series[3 + off : 3 + off + m] for off, w in weights.items()) / denom


def third_order_identity_residual(
    g: LieAlgebra, spec: EnergySpec, traj
) -> np.ndarray:
    """Residual of (d/dt + ad*_eta0)(pi0 - pi1' + pi2'') along a trajectory.

    Solutions of the third-order Euler-Poincare equations satisfy the
    identity exactly; here the time derivatives are fourth-order central
    differences, so for an RK4 trajectory with step h the residual floor is
    O(h^4) plus differencing noise.  Returns the max-abs residual at each
    interior point (indices 3 .. len-4).  Needs at least 7 states of width
    3 * g.dim (judged by errors.floats) on a uniform grid; the first
    off-grid step raises NonUniformGrid.

    One array pass over the interior: each stencil is a sum of shifted
    slices, eta0 at every interior state comes from one stacked
    `spec.dual_gradient` product, and ad*_eta0 is one contraction with the
    cached `g.field_tensor`.
    """
    n = g.dim
    states = floats(traj.states, "states", (None, 3 * n))
    times = floats(traj.times, "times", (len(states),))
    if len(states) < 7:
        raise TooFewPoints(
            f"need at least 7 trajectory points for the interior stencils, got {len(states)}"
        )
    h = float(times[1] - times[0])
    off_grid = np.flatnonzero(~np.isclose(np.diff(times), h, rtol=1e-9, atol=1e-12))
    if off_grid.size:
        k = int(off_grid[0])
        raise NonUniformGrid(k, float(times[k + 1] - times[k]), h)
    m = len(states) - 6
    p0, p1, p2 = states[:, :n], states[:, n : 2 * n], states[:, 2 * n :]
    inner = (
        p0[3:-3]
        - _interior(p1, _D1, 12.0 * h)
        + _interior(p2, _D2, 12.0 * h * h)
    )
    d_inner = (
        _interior(p0, _D1, 12.0 * h)
        - _interior(p1, _D2, 12.0 * h * h)
        + _interior(p2, _D3, 8.0 * h**3)
    )
    eta0 = spec.dual_gradient(states[3:-3])[:, :n]
    # row by row, field_tensor @ (eta0 outer inner).ravel() == -coad(eta0, inner)
    minus_coad = (eta0[:, :, None] * inner[:, None, :]).reshape(m, n * n) @ g.field_tensor.T
    return np.max(np.abs(d_inner - minus_coad), axis=1, initial=0.0)

"""Worked model families built as cocycle double cross sums.

Two constructions ship as presets:

  kepler   phase space R^3 (+) so(3): translations v paired with rotations
           eta, rotations acting by the cross product, plus a cocycle
           theta(v, w) = coupling * v x w whose strength encodes the orbit
           family through coupling = 2 e / (m^3 k^2) for eccentricity e,
           mass m and force constant k.

  tokamak  four copies of a base algebra g with coordinates (v, beta, w,
           alpha): the pair (w, alpha) is a tangent-style algebra acting on
           the abelian pair (v, beta) through alpha, and a field-strength
           parameter B enters only through the cocycle
           theta((v, beta), (v', beta')) = (-B([beta, v'] + [v, beta']), 0).

Each family also carries its reduced equations written out by hand
(`*_ep_rhs`, `*_lp_rhs`); the `*_regression` helpers compare those against
the generic coadjoint field at a given state, which pins every sign in the
structure tensors independently of the axiom checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra, from_sparse_entries, preset
from .dynamics import EnergySpec, ep_field, lp_field
from .errors import ConfigError, UnknownPreset
from .products import UnifiedProductData, from_subalgebra

__all__ = [
    "KeplerParams",
    "TokamakParams",
    "kepler_algebra",
    "kepler_ep_rhs",
    "kepler_lp_rhs",
    "kepler_regression",
    "tokamak_algebra",
    "tokamak_ep_rhs",
    "tokamak_lp_rhs",
    "tokamak_regression",
    "build_model",
    "MODEL_NAMES",
]

MODEL_NAMES = ("kepler", "tokamak")


# -- central-force family ------------------------------------------------------


@dataclass(frozen=True)
class KeplerParams:
    """Orbit-family parameters: eccentricity e (any sign), mass m > 0,
    force constant k > 0."""

    e: float
    m: float = 1.0
    k: float = 1.0

    def __post_init__(self) -> None:
        if not self.m > 0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if not self.k > 0:
            raise ValueError(f"force constant must be positive, got {self.k}")

    @property
    def coupling(self) -> float:
        return 2.0 * self.e / (self.m**3 * self.k**2)


def _rotation_algebra(labels: tuple[str, str, str]) -> LieAlgebra:
    # cross-product bracket in the given labels
    return from_sparse_entries(
        3, [(0, 1, 2, 1.0), (1, 0, 2, -1.0), (2, 0, 1, 1.0)], labels=labels
    )


def kepler_algebra(params: KeplerParams) -> UnifiedProductData:
    """R^3 (+) so(3) with eta |> v = eta x v and theta(v, w) = coupling v x w."""
    h = _rotation_algebra(("eta1", "eta2", "eta3"))
    eps = h.c  # Levi-Civita tensor
    return UnifiedProductData(
        dim_m=3,
        h=h,
        act=np.array(eps),
        phi=np.zeros((3, 3, 3)),
        theta=params.coupling * np.array(eps),
        psi=np.zeros((3, 3, 3)),
        m_labels=("v1", "v2", "v3"),
    )


def kepler_ep_rhs(coupling: float, xi: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Hand-written momentum equations:

      dpi_v   = pi_v x eta + coupling * pi_eta x u
      dpi_eta = pi_eta x eta - u x pi_v

    for velocity xi = (u, eta) and momentum pi = (pi_v, pi_eta)."""
    u, eta = xi[:3], xi[3:]
    pv, pe = pi[:3], pi[3:]
    return np.concatenate(
        [np.cross(pv, eta) + coupling * np.cross(pe, u), np.cross(pe, eta) - np.cross(u, pv)]
    )


def kepler_lp_rhs(coupling: float, grad: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Hand-written Poisson equations for grad = dH/dmu = (g_v, g_eta):

      dmu_v   = g_eta x mu_v   + coupling * g_v x mu_eta
      dmu_eta = g_eta x mu_eta + g_v x mu_v
    """
    gv, ge = grad[:3], grad[3:]
    mv, me = mu[:3], mu[3:]
    return np.concatenate(
        [np.cross(ge, mv) + coupling * np.cross(gv, me), np.cross(ge, me) + np.cross(gv, mv)]
    )


def kepler_regression(
    d: UnifiedProductData, spec: EnergySpec, state: np.ndarray
) -> dict[str, float]:
    """Max-abs gap between the generic coadjoint fields on `d` and the
    hand-written equations at one state.  The coupling is read back off the
    cocycle tensor, so the comparison exercises the stored structure data."""
    coupling = float(d.theta[2, 0, 1])
    state = np.asarray(state, dtype=float)
    grad = spec.dual_gradient(state)
    ep_gap = np.max(np.abs(ep_field(d, spec, state) - kepler_ep_rhs(coupling, grad, state)))
    lp_gap = np.max(np.abs(lp_field(d, spec, state) - kepler_lp_rhs(coupling, grad, state)))
    return {"ep": float(ep_gap), "lp": float(lp_gap)}


# -- magnetized fluid family ----------------------------------------------------


@dataclass(frozen=True)
class TokamakParams:
    """A base Lie algebra and the field-strength parameter multiplying the
    cocycle."""

    base: LieAlgebra
    b_i: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.base, LieAlgebra):
            raise TypeError("base must be a LieAlgebra")
        report = self.base.validate()
        if not report.ok:
            raise ValueError(
                f"base fails the Lie algebra checks (worst residual "
                f"{max(report.antisymmetry, report.jacobi):.3g})"
            )


def tokamak_algebra(params: TokamakParams) -> UnifiedProductData:
    """Four copies of the base algebra with coordinates (v, beta, w, alpha).

    m = (v, beta) is abelian; h = (w, alpha) brackets as
    [(w, a), (w', a')] = ([a, w'] + [w, a'], [a, a']); the action is
    (w, a) |> (v, b) = ([a, v], [a, b]); the cocycle sends
    ((v, b), (v', b')) to (-B([b, v'] + [v, b']), 0).
    """
    g = params.base
    n = g.dim
    b = float(params.b_i)

    ch = np.zeros((2 * n, 2 * n, 2 * n))
    ch[:n, n:, :n] = g.c  # [alpha, w']
    ch[:n, :n, n:] = g.c  # [w, alpha']
    ch[n:, n:, n:] = g.c  # [alpha, alpha']
    h_labels = tuple(f"w{i + 1}" for i in range(n)) + tuple(f"a{i + 1}" for i in range(n))
    h = LieAlgebra(dim=2 * n, c=ch, labels=h_labels, tol=g.tol)

    act = np.zeros((2 * n, 2 * n, 2 * n))
    act[:n, n:, :n] = g.c  # [alpha, v]
    act[n:, n:, n:] = g.c  # [alpha, beta]

    theta = np.zeros((2 * n, 2 * n, 2 * n))
    theta[:n, n:, :n] = -b * g.c  # [beta, v']
    theta[:n, :n, n:] = -b * g.c  # [v, beta']

    m_labels = tuple(f"v{i + 1}" for i in range(n)) + tuple(f"b{i + 1}" for i in range(n))
    return UnifiedProductData(
        dim_m=2 * n,
        h=h,
        act=act,
        phi=np.zeros((2 * n, 2 * n, 2 * n)),
        theta=theta,
        psi=np.zeros((2 * n, 2 * n, 2 * n)),
        m_labels=m_labels,
        tol=g.tol,
    )


def tokamak_ep_rhs(
    g: LieAlgebra, b: float, xi: np.ndarray, pi: np.ndarray
) -> np.ndarray:
    """Hand-written momentum equations, blockwise in (v, beta, w, alpha);
    A*(x) mu below is the base-algebra coadjoint -ad_x^T mu:

      dpi_v     = -A*(xa) pi_v  + B A*(xb) pi_w
      dpi_beta  = -A*(xa) pi_b  + B A*(xv) pi_w
      dpi_w     = -A*(xa) pi_w
      dpi_alpha = -A*(xv) pi_v - A*(xb) pi_b - A*(xw) pi_w - A*(xa) pi_a
    """
    n = g.dim
    xv, xb, xw, xa = xi[:n], xi[n : 2 * n], xi[2 * n : 3 * n], xi[3 * n :]
    pv, pb, pw, pa = pi[:n], pi[n : 2 * n], pi[2 * n : 3 * n], pi[3 * n :]
    return np.concatenate(
        [
            -g.coad(xa, pv) + b * g.coad(xb, pw),
            -g.coad(xa, pb) + b * g.coad(xv, pw),
            -g.coad(xa, pw),
            -g.coad(xv, pv) - g.coad(xb, pb) - g.coad(xw, pw) - g.coad(xa, pa),
        ]
    )


def tokamak_lp_rhs(
    g: LieAlgebra, b: float, grad: np.ndarray, mu: np.ndarray
) -> np.ndarray:
    """Hand-written Poisson equations for grad = dH/dmu, the sign-reversed
    mirror of the momentum form."""
    n = g.dim
    gv, gb, gw, ga = grad[:n], grad[n : 2 * n], grad[2 * n : 3 * n], grad[3 * n :]
    mv, mb, mw, ma = mu[:n], mu[n : 2 * n], mu[2 * n : 3 * n], mu[3 * n :]
    return np.concatenate(
        [
            g.coad(ga, mv) - b * g.coad(gb, mw),
            g.coad(ga, mb) - b * g.coad(gv, mw),
            g.coad(ga, mw),
            g.coad(gv, mv) + g.coad(gb, mb) + g.coad(gw, mw) + g.coad(ga, ma),
        ]
    )


def tokamak_regression(
    d: UnifiedProductData, spec: EnergySpec, state: np.ndarray
) -> dict[str, float]:
    """Max-abs gap between the generic coadjoint fields on `d` and the
    hand-written blockwise equations at one state.

    The base algebra is read back from the alpha-alpha block of h and the
    field strength from the cocycle (ratio at the largest structure
    constant; an abelian base carries no recoverable B, but then both sides
    drop the B-terms anyway)."""
    n = d.dim_h // 2
    base = LieAlgebra(dim=n, c=np.array(d.h.c[n:, n:, n:]), tol=d.tol)
    idx = np.unravel_index(int(np.argmax(np.abs(base.c))), base.c.shape) if n else (0, 0, 0)
    denom = base.c[idx] if n else 0.0
    b = float(-d.theta[idx[0], n + idx[1], idx[2]] / denom) if abs(denom) > 0 else 0.0
    state = np.asarray(state, dtype=float)
    grad = spec.dual_gradient(state)
    ep_gap = np.max(np.abs(ep_field(d, spec, state) - tokamak_ep_rhs(base, b, grad, state)))
    lp_gap = np.max(np.abs(lp_field(d, spec, state) - tokamak_lp_rhs(base, b, grad, state)))
    return {"ep": float(ep_gap), "lp": float(lp_gap)}


# -- name-based construction -----------------------------------------------------


def build_model(name: str, params: dict | None = None) -> UnifiedProductData:
    """Resolve a model name plus parameter dict to structure data.

    "kepler" and "tokamak" build the families above; any plain algebra
    preset name is wrapped as a product with an empty m part, so the same
    dynamics entry points apply."""
    if not isinstance(params, (dict, type(None))):
        raise ConfigError(f"model params must be an object, got {type(params).__name__}")
    params = dict(params or {})
    if name == "kepler":
        try:
            return kepler_algebra(KeplerParams(**params))
        except TypeError as exc:
            raise ConfigError(f"bad kepler parameters: {exc}") from exc
    if name == "tokamak":
        base = params.pop("base", "so3")
        if isinstance(base, str):
            base = preset(base)
        if not isinstance(base, LieAlgebra):
            raise ConfigError("tokamak base must be a preset name or a LieAlgebra")
        try:
            return tokamak_algebra(TokamakParams(base=base, **params))
        except TypeError as exc:
            raise ConfigError(f"bad tokamak parameters: {exc}") from exc
    # fall through to the plain algebra presets
    return from_subalgebra(preset(name, **params))

"""The paper's reduced equations for the two model families, written out by
hand: the oracle for the generic coadjoint fields.

The `*_regression` helpers compare those equations against `ep_field` and
`lp_field` at a given state, which pins every sign in the structure tensors
independently of the axiom checks.  `with_maps` rebuilds a structure with
some of its maps replaced, for the tests that perturb one.
"""

import numpy as np

from unimech import (
    EnergySpec,
    LieAlgebra,
    UnifiedProductData,
    compose_bracket,
    ep_field,
    lp_field,
)


def with_maps(d: UnifiedProductData, **maps) -> UnifiedProductData:
    """d composed again with some of its compose_bracket arguments (h, act,
    phi, theta, psi, tol, strict, ...) replaced."""
    parts = dict(dim_m=d.dim_m, h=d.h, act=d.act, phi=d.phi, theta=d.theta, psi=d.psi,
                 m_labels=d.m_labels, tol=d.tol)
    return compose_bracket(**{**parts, **maps})


# -- central-force family ------------------------------------------------------


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

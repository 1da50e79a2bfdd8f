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

Their reduced equations are the generic coadjoint fields of `dynamics`; the
paper's hand-written form of them lives with the tests as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra, from_sparse_entries, preset
from .errors import ConfigError, UnknownPreset
from .products import UnifiedProductData, from_subalgebra

__all__ = [
    "KeplerParams",
    "TokamakParams",
    "kepler_algebra",
    "tokamak_algebra",
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

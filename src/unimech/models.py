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

Both are g (x) A for a commutative associative A (so(3) (x) span(v, eta)
and g (x) span(v, beta, w, alpha)), cut into m and h by UnifiedProductData.
Their reduced equations are the generic coadjoint fields of `dynamics`; the
paper's hand-written form of them, tests/model_equations.py, is their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra, _base_algebra, _current_algebra, preset
from .errors import ConfigError, positive, real
from .products import UnifiedProductData

__all__ = [
    "KeplerParams",
    "TokamakParams",
    "kepler_algebra",
    "tokamak_algebra",
    "build_model",
]


# -- central-force family ------------------------------------------------------


@dataclass(frozen=True)
class KeplerParams:
    """Orbit-family parameters, all finite real numbers: eccentricity e
    (any sign), mass m > 0, force constant k > 0."""

    e: float
    m: float = 1.0
    k: float = 1.0

    def __post_init__(self) -> None:
        real(self.e, "e", finite=True)
        positive(self.m, "m")
        positive(self.k, "k")

    @property
    def coupling(self) -> float:
        return 2.0 * self.e / (self.m**3 * self.k**2)


def kepler_algebra(params: KeplerParams) -> UnifiedProductData:
    """R^3 (+) so(3) with eta |> v = eta x v and theta(v, w) = coupling v x w:
    so(3) (x) span(v, eta), eta the unit and v v = coupling eta."""
    a = np.zeros((2, 2, 2))
    a[0, 0, 1] = a[0, 1, 0] = a[1, 1, 1] = 1.0
    a[1, 0, 0] = params.coupling
    labels = ("v1", "v2", "v3", "eta1", "eta2", "eta3")
    return UnifiedProductData(_current_algebra(preset("so3"), a, labels), 3)


# -- magnetized fluid family ----------------------------------------------------


@dataclass(frozen=True)
class TokamakParams:
    """A base Lie algebra and the field-strength parameter b_i, a finite real
    number, multiplying the cocycle."""

    base: LieAlgebra
    b_i: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.base, LieAlgebra):
            raise ConfigError(f"base must be a LieAlgebra, got {self.base!r}")
        real(self.b_i, "b_i", finite=True)
        failure = self.base.validate().worst_failure()
        if failure:
            name, check = failure
            raise ValueError(
                f"base fails the Lie algebra checks: {name} residual {check.residual:.3g} "
                f"(threshold {check.threshold:.3g})"
                + (f" at ({','.join(check.witness)})" if check.witness else ""))


def tokamak_algebra(params: TokamakParams) -> UnifiedProductData:
    """g (x) span(v, beta, w, alpha), alpha the unit and beta v = -B w: m = (v,
    beta) is abelian; h = (w, alpha) brackets as [(w, a), (w', a')] =
    ([a, w'] + [w, a'], [a, a']) and acts by (w, a) |> (v, b) = ([a, v], [a, b]);
    the cocycle sends ((v, b), (v', b')) to (-B([b, v'] + [v, b']), 0)."""
    g = params.base
    a = np.zeros((4, 4, 4))
    for k in range(4):
        a[k, 3, k] = a[k, k, 3] = 1.0
    a[2, 1, 0] = a[2, 0, 1] = -float(params.b_i)
    labels = tuple(f"{s}{i + 1}" for s in "vbwa" for i in range(g.dim))
    return UnifiedProductData(_current_algebra(g, a, labels), 2 * g.dim)


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
        base = _base_algebra(params.pop("base", "so3"), "tokamak base")
        try:
            return tokamak_algebra(TokamakParams(base=base, **params))
        except TypeError as exc:
            raise ConfigError(f"bad tokamak parameters: {exc}") from exc
    # fall through to the plain algebra presets
    return UnifiedProductData(preset(name, **params), 0)

"""Unified products: Lie algebras assembled from a complement and a subalgebra.

The input data is a vector space m (dimension dim_m), a Lie algebra h, and four
structure maps, all stored as dense coefficient tensors:

  * phi[k, i, j]    antisymmetric bracket on m:      phi(e_i, e_j)_k
  * act[k, a, j]    left action of h on m:           (f_a |> e_j)_k
  * psi[c, a, j]    twist  h x m -> h:               psi(f_a, e_j)_c
  * theta[c, i, j]  antisymmetric cocycle m x m -> h: theta(e_i, e_j)_c

(e_j: basis of m, f_a: basis of h.)  The composed bracket on m (+) h is

  [(v1, n1), (v2, n2)] = ( phi(v1, v2) + n1 |> v2 - n2 |> v1,
                           [n1, n2]_h + psi(n1, v2) - psi(n2, v1) + theta(v1, v2) )

with the m block occupying the first dim_m coordinates.  validate_axioms
evaluates the six compatibility conditions that make this a Lie bracket; they
hold iff the composed tensor satisfies Jacobi (given that h is a Lie algebra
acting on m), and both routes are kept separate so they can be checked against
each other.

The coadjoint is assembled from six dual maps, each defined through the
duality pairing (see the individual functions); the assembly agrees with
-ad^T of the composed bracket, which is the test oracle.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .algebra import (
    LieAlgebra,
    algebra_from_doc,
    algebra_to_doc,
    fill_entries,
    sparse_entries,
)
from .errors import ConfigError, DimensionError, default_tol, load_json


@dataclass(frozen=True)
class UnifiedProductData:
    """Structure data (m, h, act, phi, theta, psi) for a unified product."""

    dim_m: int
    h: LieAlgebra
    act: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    psi: np.ndarray
    m_labels: tuple[str, ...] = ()
    tol: float = field(default_factory=default_tol)
    strict: InitVar[bool] = True

    def __post_init__(self, strict: bool) -> None:
        m, h = self.dim_m, self.h.dim
        shapes = {
            "act": ((m, h, m), self.act),
            "phi": ((m, m, m), self.phi),
            "theta": ((h, m, m), self.theta),
            "psi": ((h, h, m), self.psi),
        }
        for name, (want, tensor) in shapes.items():
            arr = np.array(tensor, dtype=float, copy=True)
            if arr.shape != want:
                raise DimensionError(f"{name} has shape {arr.shape}, expected {want}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        labels = tuple(self.m_labels) if self.m_labels else tuple(
            f"m{i + 1}" for i in range(m)
        )
        if len(labels) != m:
            raise DimensionError(f"{len(labels)} m-labels for dim_m={m}")
        object.__setattr__(self, "m_labels", labels)
        if strict:
            for name in ("phi", "theta"):
                arr = getattr(self, name)
                if arr.size and np.max(np.abs(arr + arr.swapaxes(1, 2))) > self.tol:
                    raise ValueError(
                        f"{name} is not antisymmetric in its m arguments; "
                        "pass strict=False to construct anyway"
                    )

    # -- shape helpers ------------------------------------------------------

    @property
    def dim_h(self) -> int:
        return self.h.dim

    @property
    def dim(self) -> int:
        return self.dim_m + self.h.dim

    @property
    def labels(self) -> tuple[str, ...]:
        return self.m_labels + self.h.labels

    @cached_property
    def field_tensor(self) -> np.ndarray:
        """compose_bracket(self).field_tensor, built once: the composed
        coadjoint as one (dim, dim*dim) contraction."""
        return compose_bracket(self).field_tensor


def from_subalgebra(h: LieAlgebra) -> UnifiedProductData:
    """Wrap a plain Lie algebra as the degenerate product with dim_m = 0."""
    return UnifiedProductData(
        dim_m=0,
        h=h,
        act=np.zeros((0, h.dim, 0)),
        phi=np.zeros((0, 0, 0)),
        theta=np.zeros((h.dim, 0, 0)),
        psi=np.zeros((h.dim, h.dim, 0)),
        tol=h.tol,
    )


# -- composed bracket ----------------------------------------------------------


def compose_bracket(d: UnifiedProductData) -> LieAlgebra:
    """Assemble the structure tensor of m (+) h from the four maps."""
    m, h = d.dim_m, d.dim_h
    n = m + h
    c = np.zeros((n, n, n))
    # m-valued components
    c[:m, :m, :m] = d.phi
    c[:m, m:, :m] = d.act  # (f_a, e_j) slot: n1 |> v2
    c[:m, :m, m:] = -d.act.swapaxes(1, 2)  # (e_i, f_b) slot: -n2 |> v1
    # h-valued components
    c[m:, m:, m:] = d.h.c
    c[m:, m:, :m] = d.psi
    c[m:, :m, m:] = -d.psi.swapaxes(1, 2)
    c[m:, :m, :m] = d.theta
    return LieAlgebra(dim=n, c=c, labels=d.labels, tol=d.tol, strict=False)


# -- axiom residuals -----------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """Max residual per defining axiom, over all basis tuples.

    ``witnesses[name]`` holds the basis labels (output component first, then
    the argument basis vectors) of the entry where that axiom's residual is
    largest -- the place to look when a validation fails.
    """

    residuals: dict[str, float]
    witnesses: dict[str, tuple[str, ...]]
    tol: float
    ok: bool

    @property
    def worst(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


AXIOM_NAMES = (
    "m_antisymmetry",
    "action_derivation",
    "cocycle_action_compat",
    "twist_derivation",
    "m_jacobi",
    "cocycle_jacobi",
)


def validate_axioms(d: UnifiedProductData) -> AxiomReport:
    """Evaluate the six compatibility axioms of the structure maps.

    Residuals are max-abs over all basis tuples.  Together with h being a Lie
    algebra acting on m, the axioms vanish iff the composed bracket satisfies
    the Jacobi identity.
    """
    a, p, t, s, H = d.act, d.phi, d.theta, d.psi, d.h.c
    mL, hL = tuple(d.m_labels), tuple(d.h.labels)
    res: dict[str, float] = {}
    wit: dict[str, tuple[str, ...]] = {}

    def mx(arr: np.ndarray) -> float:
        return float(np.max(np.abs(arr))) if arr.size else 0.0

    def where(arr: np.ndarray, axes: tuple[tuple[str, ...], ...]) -> tuple[str, ...]:
        if arr.size == 0:
            return ()
        idx = np.unravel_index(int(np.argmax(np.abs(arr))), arr.shape)
        return tuple(axes[pos][i] for pos, i in enumerate(idx))

    # 1. phi and theta are alternating.
    pa, ta = p + p.swapaxes(1, 2), t + t.swapaxes(1, 2)
    res["m_antisymmetry"] = max(mx(pa), mx(ta))
    if mx(pa) >= mx(ta):
        wit["m_antisymmetry"] = where(pa, (mL, mL, mL))
    else:
        wit["m_antisymmetry"] = where(ta, (hL, mL, mL))

    # 2. h acts on the m-bracket as twisted derivations:
    # n|>phi(v1,v2) = phi(n|>v1, v2) + phi(v1, n|>v2) + psi(n,v1)|>v2 - psi(n,v2)|>v1
    r2 = (
        np.einsum("kam,mij->kaij", a, p)
        - np.einsum("kmj,mai->kaij", p, a)
        - np.einsum("kim,maj->kaij", p, a)
        - np.einsum("kcj,cai->kaij", a, s)
        + np.einsum("kci,caj->kaij", a, s)
    )
    res["action_derivation"] = mx(r2)
    wit["action_derivation"] = where(r2, (mL, hL, mL, mL))

    # 3. the cocycle is equivariant for the action and the twist:
    # [n, theta(v1,v2)]_h = theta(n|>v1, v2) + theta(v1, n|>v2)
    #   + psi(psi(n,v1), v2) - psi(psi(n,v2), v1) - psi(n, phi(v1,v2))
    r3 = (
        np.einsum("cad,dij->caij", H, t)
        - np.einsum("cmj,mai->caij", t, a)
        - np.einsum("cim,maj->caij", t, a)
        - np.einsum("cdj,dai->caij", s, s)
        + np.einsum("cdi,daj->caij", s, s)
        + np.einsum("cam,mij->caij", s, p)
    )
    res["cocycle_action_compat"] = mx(r3)
    wit["cocycle_action_compat"] = where(r3, (hL, hL, mL, mL))

    # 4. the twist intertwines the h-bracket and the action:
    # psi([n1,n2], v) = [n1, psi(n2,v)] + [psi(n1,v), n2]
    #   + psi(n1, n2|>v) - psi(n2, n1|>v)
    r4 = (
        np.einsum("cdj,dab->cabj", s, H)
        - np.einsum("cad,dbj->cabj", H, s)
        - np.einsum("cdb,daj->cabj", H, s)
        - np.einsum("cam,mbj->cabj", s, a)
        + np.einsum("cbm,maj->cabj", s, a)
    )
    res["twist_derivation"] = mx(r4)
    wit["twist_derivation"] = where(r4, (hL, hL, hL, mL))

    # 5. cocycle-corrected Jacobi identity on m:
    # cyclic sum of phi(phi(v1,v2), v3) + theta(v1,v2)|>v3 = 0
    j5 = np.einsum("kml,mij->kijl", p, p) + np.einsum("kcl,cij->kijl", a, t)
    r5 = j5 + j5.transpose(0, 2, 3, 1) + j5.transpose(0, 3, 1, 2)
    res["m_jacobi"] = mx(r5)
    wit["m_jacobi"] = where(r5, (mL, mL, mL, mL))

    # 6. cocycle identity:
    # cyclic sum of psi(theta(v1,v2), v3) + theta(phi(v1,v2), v3) = 0
    j6 = np.einsum("cdl,dij->cijl", s, t) + np.einsum("cml,mij->cijl", t, p)
    r6 = j6 + j6.transpose(0, 2, 3, 1) + j6.transpose(0, 3, 1, 2)
    res["cocycle_jacobi"] = mx(r6)
    wit["cocycle_jacobi"] = where(r6, (hL, mL, mL, mL))

    ok = all(v <= d.tol for v in res.values())
    return AxiomReport(residuals=res, witnesses=wit, tol=d.tol, ok=ok)


# -- dual maps and the coadjoint ------------------------------------------------
#
# Each map below is defined through the duality pairing; the sign and slot
# conventions are spelled out in the docstrings.  coad() assembles all six;
# the independent check is coad_matrix of the composed bracket.


def phi_coad(d: UnifiedProductData, v: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """m-bracket coadjoint: <phi_coad(v) alpha, w> = -<alpha, phi(v, w)>."""
    return -np.einsum("kij,i,k->j", d.phi, v, alpha)

def act_star_m(d: UnifiedProductData, alpha: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Dual of the h-action in its m slot: <act_star_m(alpha, n), w> = <alpha, n |> w>."""
    return np.einsum("kaj,a,k->j", d.act, eta, alpha)

def psi_star_m(d: UnifiedProductData, eta: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Dual of the twist in its m slot: <psi_star_m(n, beta), w> = <beta, psi(n, w)>."""
    return np.einsum("caj,a,c->j", d.psi, eta, beta)

def theta_star(d: UnifiedProductData, v: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Dual of the cocycle: <theta_star(v, beta), w> = <beta, theta(v, w)>."""
    return np.einsum("cij,i,c->j", d.theta, v, beta)

def act_star_h(d: UnifiedProductData, v: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Dual of the h-action in its h slot: <act_star_h(v, alpha), z> = <alpha, z |> v>."""
    return np.einsum("kaj,j,k->a", d.act, v, alpha)

def psi_star_h(d: UnifiedProductData, v: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Dual of the twist in its h slot: <psi_star_h(v, beta), z> = <beta, psi(z, v)>."""
    return np.einsum("caj,j,c->a", d.psi, v, beta)


def coad(d: UnifiedProductData, x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Coadjoint of the composed algebra, assembled from the six dual maps.

    With x = (v, n) and mu = (alpha, beta):

      m block:  phi_coad(v) alpha - act_star_m(alpha, n) - psi_star_m(n, beta)
                - theta_star(v, beta)
      h block:  coad_h(n) beta + act_star_h(v, alpha) + psi_star_h(v, beta)

    Satisfies <coad(x) mu, y> = -<mu, [x, y]> for the composed bracket.
    """
    m = d.dim_m
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if x.shape != (d.dim,) or mu.shape != (d.dim,):
        raise DimensionError(
            f"vectors have shapes {x.shape}/{mu.shape}, expected ({d.dim},)"
        )
    v, eta = x[:m], x[m:]
    alpha, beta = mu[:m], mu[m:]
    out = np.empty(d.dim)
    out[:m] = (
        phi_coad(d, v, alpha)
        - act_star_m(d, alpha, eta)
        - psi_star_m(d, eta, beta)
        - theta_star(d, v, beta)
    )
    out[m:] = d.h.coad(eta, beta) + act_star_h(d, v, alpha) + psi_star_h(d, v, beta)
    return out


# -- JSON serialization ----------------------------------------------------------
#
# Document format (extends the algebra format):
#   {"dim": total, "dim_m": m, "labels": [...], "h": {algebra doc},
#    "act": [[k, a, j, value], ...],   dense entries, no symmetry
#    "phi": [[k, i, j, value], ...],   i < j, antisymmetrized by the loader
#    "theta": [[c, i, j, value], ...], i < j, antisymmetrized by the loader
#    "psi": [[c, a, j, value], ...]}   dense entries, no symmetry


def product_to_doc(d: UnifiedProductData) -> dict:
    return {
        "dim": d.dim,
        "dim_m": d.dim_m,
        "labels": list(d.labels),
        "h": algebra_to_doc(d.h),
        "act": sparse_entries(d.act),
        "phi": sparse_entries(d.phi, skew=True),
        "theta": sparse_entries(d.theta, skew=True),
        "psi": sparse_entries(d.psi),
    }


def product_from_doc(doc: dict) -> UnifiedProductData:
    if not isinstance(doc, dict):
        raise ConfigError(f"product document must be an object, got {type(doc).__name__}")
    for key in ("dim_m", "h"):
        if key not in doc:
            raise ConfigError(f"product document is missing {key!r}")
    m = doc["dim_m"]
    if not isinstance(m, int) or m < 0:
        raise ConfigError(f"'dim_m' must be a non-negative integer, got {m!r}")
    h = algebra_from_doc(doc["h"])
    dim = doc.get("dim", m + h.dim)
    if dim != m + h.dim:
        raise ConfigError(f"'dim' is {dim} but dim_m + dim_h = {m + h.dim}")
    labels = tuple(doc.get("labels", ()))
    m_labels: tuple[str, ...] = ()
    if labels:
        if len(labels) != dim:
            raise ConfigError(f"{len(labels)} labels for dimension {dim}")
        m_labels = labels[:m]
        h = replace(h, labels=labels[m:])
    return UnifiedProductData(
        dim_m=m,
        h=h,
        act=fill_entries((m, h.dim, m), doc.get("act", []), "act"),
        phi=fill_entries((m, m, m), doc.get("phi", []), "phi", skew=True),
        theta=fill_entries((h.dim, m, m), doc.get("theta", []), "theta", skew=True),
        psi=fill_entries((h.dim, h.dim, m), doc.get("psi", []), "psi"),
        m_labels=m_labels,
    )


def save_product(d: UnifiedProductData, path: str | Path) -> None:
    Path(path).write_text(json.dumps(product_to_doc(d), indent=2) + "\n")


def load_product(path: str | Path) -> UnifiedProductData:
    return product_from_doc(load_json(path))

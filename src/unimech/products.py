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
builds one Jacobiator J[k, i, j, l] of the composed tensor and reads each
compatibility axiom off one block of it (AXIOM_BLOCKS: m_jacobi is the
(m; m, m, m) block, action_representation the (m; h, h, m) block, h_jacobi
the (h; h, h, h) block, ...), so together with the antisymmetry of phi, theta
and h the axioms hold iff the composed bracket is a Lie algebra.  The
hand-derived einsum form of the axioms is the test oracle for the blocks.

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
    def composed(self) -> LieAlgebra:
        """compose_bracket(self), built once per structure."""
        return compose_bracket(self)

    @property
    def field_tensor(self) -> np.ndarray:
        """The composed coadjoint as one (dim, dim*dim) contraction."""
        return self.composed.field_tensor


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
    largest -- the place to look when a validation fails.  ``tol`` judges the
    antisymmetry residuals, ``jacobi_tol`` the Jacobiator blocks.
    """

    residuals: dict[str, float]
    witnesses: dict[str, tuple[str, ...]]
    tol: float
    jacobi_tol: float
    h_antisymmetry: float

    @property
    def ok(self) -> bool:
        return self.h_antisymmetry <= self.tol and all(
            value <= self.threshold(name) for name, value in self.residuals.items()
        )

    @property
    def worst(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0

    @property
    def jacobi(self) -> float:
        """The composed Jacobi residual: the largest Jacobiator block."""
        return max((self.residuals[name] for name in AXIOM_BLOCKS), default=0.0)

    def threshold(self, name: str) -> float:
        return self.jacobi_tol if name in AXIOM_BLOCKS else self.tol


# Block (k; i, j, l) of the composed Jacobiator J[k, i, j, l] that each axiom
# reads, "m" or "h" per axis.  J is alternating in (i, j, l), so these seven,
# with (m; h, h, h) zero by construction, cover all of it.
AXIOM_BLOCKS = {
    "action_derivation": "mhmm",
    "cocycle_action_compat": "hhmm",
    "twist_derivation": "hhhm",
    "m_jacobi": "mmmm",
    "cocycle_jacobi": "hmmm",
    "action_representation": "mhhm",
    "h_jacobi": "hhhh",
}


def validate_axioms(d: UnifiedProductData) -> AxiomReport:
    """Evaluate the compatibility axioms of the structure maps.

    Residuals are max-abs over all basis tuples.  Besides the antisymmetry
    of phi and theta, each axiom is one block of the Jacobiator of the
    composed bracket d.composed, so `.ok` holds iff it is a Lie algebra.
    """
    composed = d.composed.validate()
    labels = d.labels
    span = {"m": slice(0, d.dim_m), "h": slice(d.dim_m, d.dim)}
    res: dict[str, float] = {}
    wit: dict[str, tuple[str, ...]] = {}

    def worst(arr: np.ndarray, axes: str) -> tuple[float, tuple[str, ...]]:
        if arr.size == 0:
            return 0.0, ()
        idx = np.unravel_index(int(np.argmax(np.abs(arr))), arr.shape)
        where = tuple(labels[span[a].start + i] for a, i in zip(axes, idx))
        return float(abs(arr[idx])), where

    # phi and theta are alternating.
    pa, ta = d.phi + d.phi.swapaxes(1, 2), d.theta + d.theta.swapaxes(1, 2)
    res["m_antisymmetry"], wit["m_antisymmetry"] = max(
        worst(pa, "mmm"), worst(ta, "hmm"), key=lambda rw: rw[0]
    )
    for name, axes in AXIOM_BLOCKS.items():
        block = composed.jacobiator[tuple(span[a] for a in axes)]
        res[name], wit[name] = worst(block, axes)

    return AxiomReport(residuals=res, witnesses=wit, tol=d.tol, jacobi_tol=composed.jacobi_tol,
                       h_antisymmetry=d.h.antisymmetry_residual())


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

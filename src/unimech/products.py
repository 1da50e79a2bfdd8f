"""Unified products: Lie algebras cut into a complement m and a subalgebra h.

A unified product m (+) h is one Lie algebra whose first dim_m coordinates
span m and whose trailing ones close into a subalgebra h.  A block of a cut
tensor is named by its axes, "m" or "h" per axis ("g": both), and MAP_AXES
names the four structure maps as blocks (k; i, j) of the structure tensor c:

  * act[k, a, j]    (m; h, m)  left action of h on m:            (f_a |> e_j)_k
  * phi[k, i, j]    (m; m, m)  antisymmetric bracket on m:       phi(e_i, e_j)_k
  * theta[c, i, j]  (h; m, m)  antisymmetric cocycle m x m -> h: theta(e_i, e_j)_c
  * psi[c, a, j]    (h; h, m)  twist h x m -> h:                 psi(f_a, e_j)_c

(e_j: basis of m, f_a: basis of h.)  In these the bracket reads

  [(v1, n1), (v2, n2)] = ( phi(v1, v2) + n1 |> v2 - n2 |> v1,
                           [n1, n2]_h + psi(n1, v2) - psi(n2, v1) + theta(v1, v2) )

UnifiedProductData(algebra, dim_m) stores the algebra and the cut, and its
maps are read-only views of algebra.c; compose_bracket builds the product
from given maps.  Every model here is such a cut, and UnifiedProductData(h, 0)
wraps a plain algebra.  validate_axioms is the one structure check: it
builds one Jacobiator J[k, i, j, l] of the algebra and reads each
compatibility axiom off its block in AXIOM_BLOCKS (m_jacobi the (m; m, m,
m) block, ...), so together with the antisymmetry of c the axioms hold iff
the algebra is a Lie algebra.  Its AxiomReport is one table, a
Check(residual, threshold, witness) row per property, and its
worst_failure() is the row to name; the CLI and TokamakParams read the
rows.  LieAlgebra.validate is validate_axioms of the cut with an empty m.
The hand-derived einsum form of the axioms is the test oracle for the
blocks.

The coadjoint is assembled from six dual maps, each defined through the
duality pairing (see the individual functions); the assembly agrees with
-ad^T of the algebra, which is the test oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .algebra import (
    LieAlgebra,
    _cut,
    _peak,
    algebra_from_doc,
    algebra_to_doc,
    doc_labels,
    fill_entries,
    sparse_entries,
)
from .errors import (ConfigError, DimensionError, NotASubalgebra, default_tol, floats, integer,
                     labels, load_json)

# In compose_bracket's shape-check order and a document's key order; "?mm" maps are skew.
MAP_AXES = {"act": "mhm", "phi": "mmm", "theta": "hmm", "psi": "hhm"}

# Block (k; i, j, l) of the Jacobiator J[k, i, j, l] of d.algebra that each
# axiom reads.  On an antisymmetric c whose h closes, J is alternating in
# (i, j, l) and its (m; h, h, h) block vanishes, so these seven cover all of
# it; the jacobi row of an AxiomReport covers all of J on any tensor.
AXIOM_BLOCKS = {
    "action_derivation": "mhmm",
    "cocycle_action_compat": "hhmm",
    "twist_derivation": "hhhm",
    "m_jacobi": "mmmm",
    "cocycle_jacobi": "hmmm",
    "action_representation": "mhhm",
    "h_jacobi": "hhhh",
}


def _map(name: str) -> property:
    """The structure map `name` of a product, a read-only view of its block."""
    return property(lambda d: d.algebra.c[_cut(d.dim_m, d.dim, MAP_AXES[name])])


@dataclass(frozen=True, eq=False)
class UnifiedProductData:
    """A Lie algebra cut after its first dim_m coordinates: m those, h the rest.

    dim_m is an integer from 0 to the algebra's dim.  h must close: an
    (m; h, h) entry above default_tol() * max(1, max|c|) raises
    NotASubalgebra naming the worst one.  The algebra is not checked again,
    so a strict=False algebra cuts too, for validate_axioms to report on.
    """

    algebra: LieAlgebra
    dim_m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim_m", integer(self.dim_m, "dim_m"))
        m, alg = self.dim_m, self.algebra
        if m > alg.dim:
            raise DimensionError(f"dim_m={m} outside 0..{alg.dim}")
        leak, witness = _peak(alg.c, m, "mhh", alg.labels)
        limit = default_tol() * max(1.0, float(np.max(np.abs(alg.c), initial=0.0)))
        if witness and not leak <= limit:
            raise NotASubalgebra(witness, leak, limit)

    # -- the structure maps: read-only views of algebra.c -------------------

    act, phi, theta, psi = _map("act"), _map("phi"), _map("theta"), _map("psi")

    @cached_property
    def h(self) -> LieAlgebra:
        """The subalgebra on the trailing coordinates; the algebra itself
        when dim_m = 0."""
        alg, m, n = self.algebra, self.dim_m, self.dim
        if m == 0:
            return alg
        return LieAlgebra(n - m, alg.c[_cut(m, n, "hhh")], alg.labels[m:], False)

    # -- read off the algebra -----------------------------------------------

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def dim_h(self) -> int:
        return self.algebra.dim - self.dim_m

    @property
    def labels(self) -> tuple[str, ...]:
        return self.algebra.labels

    @property
    def m_labels(self) -> tuple[str, ...]:
        return self.algebra.labels[: self.dim_m]

    @property
    def field_tensor(self) -> np.ndarray:
        """The algebra's coadjoint as one (dim, dim*dim) contraction."""
        return self.algebra.field_tensor


def compose_bracket(dim_m: int, h: LieAlgebra, act: np.ndarray, phi: np.ndarray,
                    theta: np.ndarray, psi: np.ndarray, m_labels: tuple[str, ...] = (),
                    strict: bool = True) -> UnifiedProductData:
    """The unified product of an m of dimension dim_m and h under the four maps.

    Each map is judged by errors.floats against the shape of its block.
    With strict, the LieAlgebra constructor judges the antisymmetry of the
    composed tensor to default_tol(): of phi, theta and h directly, and
    through their mirrored blocks of act and psi, so a nan or inf in any map
    is refused too.  m_labels are judged by errors.labels, m1, m2, ... if
    empty.
    """
    m = integer(dim_m, "dim_m")
    n = m + h.dim
    m_labels = labels(m_labels, "m_labels", m, "m")
    c = np.zeros((n, n, n))
    maps = {"act": act, "phi": phi, "theta": theta, "psi": psi}
    for name, axes in MAP_AXES.items():
        block = c[_cut(m, n, axes)]
        block[...] = arr = floats(maps[name], name, block.shape)
        if axes[1:] == "hm":  # its (k; m, h) mirror: -n2 |> v1 and -psi(n2, v1)
            c[_cut(m, n, axes[0] + "mh")] = -arr.swapaxes(1, 2)
    c[_cut(m, n, "hhh")] = h.c
    return UnifiedProductData(LieAlgebra(n, c, m_labels + h.labels, strict), m)


# -- axiom residuals -----------------------------------------------------------


class Check(NamedTuple):
    """One row of an AxiomReport: the largest |entry| of a property's residual,
    the threshold it is judged against, and the basis labels of that entry
    (output component first, then the arguments), () for an empty block."""

    residual: float
    threshold: float
    witness: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.residual <= self.threshold  # a nan on either side fails


@dataclass(frozen=True)
class AxiomReport:
    """The verdict of validate_axioms, one Check per property in a fixed
    order: m_antisymmetry and h_antisymmetry, the seven AXIOM_BLOCKS, then
    jacobi, the whole Jacobiator."""

    checks: dict[str, Check]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks.values())

    def worst_failure(self) -> tuple[str, Check] | None:
        """The failed (name, Check) to name: a nan residual first, then the
        largest, ties to the earlier row; None if every row passes."""
        failed = [(name, check) for name, check in self.checks.items() if not check.ok]
        # np.argmax, unlike max, puts a nan above every number; ties go to the first
        return failed[int(np.argmax([check.residual for _, check in failed]))] if failed else None


def validate_axioms(d: UnifiedProductData) -> AxiomReport:
    """Evaluate the compatibility axioms of the structure maps.

    Each row is the max-abs entry of its block, over all basis tuples, and
    where it sits.  m_antisymmetry reads every block of c + c^T with an m
    argument and h_antisymmetry the rest, against default_tol(); each
    other row is a block of the one Jacobiator of d.algebra, jacobi all of
    it, judged against default_tol() * max(1, max|c|)**2, the scale of a
    product of two brackets.
    A scale past the float range gives no threshold: it is then nan, and
    no Jacobiator row passes.  With dim_m = 0 this is LieAlgebra.validate.
    """
    c, m, labels = d.algebra.c, d.dim_m, d.labels
    jacobiator = d.algebra.jacobiator()
    tol, scale = default_tol(), max(1.0, float(np.abs(c).max(initial=0.0)))
    jacobi_tol = tol * (scale * scale)
    jacobi_tol = jacobi_tol if jacobi_tol < math.inf else math.nan
    # c + c^T vanishes on a Lie algebra; up to its symmetry in (i, j), the
    # blocks (k; i, m) are all those with an m argument.  inf - inf is nan.
    with np.errstate(invalid="ignore"):
        anti = c + c.swapaxes(1, 2)
    rows = [("m_antisymmetry", anti, "ggm", tol), ("h_antisymmetry", anti, "hhh", tol),
            *((name, jacobiator, axes, jacobi_tol) for name, axes in AXIOM_BLOCKS.items()),
            ("jacobi", jacobiator, "gggg", jacobi_tol)]
    checks = {}
    for name, tensor, axes, threshold in rows:
        residual, witness = _peak(tensor, m, axes, labels)
        checks[name] = Check(residual, threshold, witness)
    return AxiomReport(checks)


# -- dual maps and the coadjoint ------------------------------------------------
#
# Each map below is defined through the duality pairing; the sign and slot
# conventions are spelled out in the docstrings.  coad() assembles all six;
# the independent check is coad_matrix of d.algebra.


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

    Satisfies <coad(x) mu, y> = -<mu, [x, y]> for the bracket of d.algebra.
    x and mu are judged by errors.floats as (dim,) arrays.
    """
    m = d.dim_m
    x, mu = floats(x, "x", (d.dim,)), floats(mu, "mu", (d.dim,))
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
    doc = {"dim": d.dim, "dim_m": d.dim_m, "labels": list(d.labels), "h": algebra_to_doc(d.h)}
    for name, axes in MAP_AXES.items():
        doc[name] = sparse_entries(getattr(d, name), skew=axes[1:] == "mm")
    return doc


def product_from_doc(doc: dict) -> UnifiedProductData:
    if not isinstance(doc, dict):
        raise ConfigError(f"product document must be an object, got {type(doc).__name__}")
    for key in ("dim_m", "h"):
        if key not in doc:
            raise ConfigError(f"product document is missing {key!r}")
    m = integer(doc["dim_m"], "'dim_m'")
    h = algebra_from_doc(doc["h"])
    n = m + h.dim
    dim = integer(doc.get("dim", n), "'dim'")
    if dim != n:
        raise ConfigError(f"'dim' is {dim} but dim_m + dim_h = {n}")
    names = doc_labels(doc, n)
    if names:
        h = replace(h, labels=names[m:])
    maps = {name: fill_entries(tuple(s.stop - s.start for s in _cut(m, n, axes)),
                               doc.get(name, []), name, skew=axes[1:] == "mm")
            for name, axes in MAP_AXES.items()}
    return compose_bracket(m, h, m_labels=names[:m], **maps)


def save_product(d: UnifiedProductData, path: str | Path) -> None:
    Path(path).write_text(json.dumps(product_to_doc(d), indent=2) + "\n")


def load_product(path: str | Path) -> UnifiedProductData:
    return product_from_doc(load_json(path))

"""Finite-dimensional Lie algebras over R, given by structure constants.

Conventions used throughout the package:

  * A Lie algebra of dimension n is stored as a dense tensor c with
    c[k, i, j] = coefficient of e_k in [e_i, e_j].
  * ad_matrix(x)[k, j] = sum_i c[k, i, j] x_i, so bracket(x, y) = ad_matrix(x) @ y.
  * The coadjoint uses the duality pairing <mu, y> = sum_k mu_k y_k and is fixed
    by <coad(x) mu, y> = -<mu, [x, y]>, i.e. coad_matrix(x) = -ad_matrix(x).T.

Antisymmetry of c in its last two indices is enforced at construction (pass
strict=False to build a deliberately broken tensor for diagnostics; validate()
will report the violation).  The Jacobi identity is never enforced at
construction -- validate() builds the Jacobiator and reports it, so that
near-miss tensors can be examined rather than rejected.  It is judged against
tol * max(1, max|c|)**2, the scale of its rounding error, so a large-scale
basis is not read as a defect.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, DimensionError, UnknownPreset, default_tol, load_json


def _default_labels(dim: int) -> tuple[str, ...]:
    return tuple(f"e{i + 1}" for i in range(dim))


@dataclass(frozen=True)
class LieAlgebra:
    """Structure-constant presentation of a real Lie algebra."""

    dim: int
    c: np.ndarray
    labels: tuple[str, ...] = ()
    tol: float = field(default_factory=default_tol)
    strict: InitVar[bool] = True

    def __post_init__(self, strict: bool) -> None:
        c = np.array(self.c, dtype=float, copy=True)
        if c.shape != (self.dim, self.dim, self.dim):
            raise DimensionError(
                f"structure tensor has shape {c.shape}, expected {(self.dim,) * 3}"
            )
        labels = tuple(self.labels) if self.labels else _default_labels(self.dim)
        if len(labels) != self.dim:
            raise DimensionError(
                f"{len(labels)} labels for a dimension-{self.dim} algebra"
            )
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "labels", labels)
        if strict:
            res = self.antisymmetry_residual()
            if res > self.tol:
                raise ValueError(
                    f"structure tensor is not antisymmetric (residual {res:.3e}); "
                    "pass strict=False to construct anyway"
                )

    # -- basic operations ---------------------------------------------------

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = self._coerce(x)
        y = self._coerce(y)
        return np.einsum("kij,i,j->k", self.c, x, y)

    def ad_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad_x = [x, .] acting on coordinate vectors."""
        return np.einsum("kij,i->kj", self.c, self._coerce(x))

    def coad_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of the coadjoint action, <coad(x) mu, y> = -<mu, [x, y]>."""
        return -self.ad_matrix(x).T

    def coad(self, x: np.ndarray, mu: np.ndarray) -> np.ndarray:
        x = self._coerce(x)
        mu = self._coerce(mu)
        return -np.einsum("kij,i,k->j", self.c, x, mu)

    @cached_property
    def field_tensor(self) -> np.ndarray:
        """c transposed and flattened to shape (n, n*n), built once.

        Entry [j, i*n + k] is c[k, i, j], so
        field_tensor @ np.outer(x, mu).ravel() == -coad(x, mu).
        """
        t = np.ascontiguousarray(self.c.transpose(2, 1, 0)).reshape(self.dim, -1)
        t.setflags(write=False)
        return t

    def _coerce(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise DimensionError(f"vector has shape {v.shape}, expected ({self.dim},)")
        return v

    # -- diagnostics --------------------------------------------------------

    def antisymmetry_residual(self) -> float:
        if self.dim == 0:
            return 0.0
        return float(np.max(np.abs(self.c + self.c.swapaxes(1, 2))))

    def jacobiator(self) -> np.ndarray:
        """J[k, i, j, l] = ([[e_i, e_j], e_l] + cyclic)_k, over all basis triples."""
        n = self.dim
        c = self.c
        # t[k, l, i, j] = sum_m c[k, m, l] c[m, i, j], the (k, l)-(i, j) product of
        # two flattenings: one BLAS matmul.  Reordered to [[e_i, e_j], e_l]_k, its
        # cyclic sum over (i, j, l) is the Jacobiator.
        t = (c.transpose(0, 2, 1).reshape(n * n, n) @ c.reshape(n, n * n))
        t = t.reshape(n, n, n, n).transpose(0, 2, 3, 1)
        return t + t.transpose(0, 2, 3, 1) + t.transpose(0, 3, 1, 2)

    def jacobi_residual(self) -> float:
        """Max over basis triples of |[[e_i,e_j],e_l] + cyclic|."""
        return float(np.max(np.abs(self.jacobiator()), initial=0.0))

    def validate(self) -> "AlgebraReport":
        """Antisymmetry against tol; the Jacobiator against
        tol * max(1, max|c|)**2, the scale of a product of two brackets."""
        anti = self.antisymmetry_residual()
        jacobiator = self.jacobiator()
        jac = float(np.max(np.abs(jacobiator), initial=0.0))
        jacobi_tol = self.tol * max(1.0, float(np.max(np.abs(self.c), initial=0.0))) ** 2
        return AlgebraReport(
            antisymmetry=anti,
            jacobi=jac,
            tol=self.tol,
            jacobi_tol=jacobi_tol,
            ok=(anti <= self.tol and jac <= jacobi_tol),
            jacobiator=jacobiator,
        )


@dataclass(frozen=True)
class AlgebraReport:
    """Residuals of a structure tensor and the thresholds they were judged
    against; `jacobiator` is the full J[k, i, j, l] behind `jacobi`."""

    antisymmetry: float
    jacobi: float
    tol: float
    jacobi_tol: float
    ok: bool
    jacobiator: np.ndarray = field(repr=False, compare=False)


# -- constructions ------------------------------------------------------------


def fill_entries(shape: tuple[int, ...], entries, name: str, skew: bool = False) -> np.ndarray:
    """Dense tensor of `shape` from sparse rows [k, i, j, value].

    Indices must be integers in range (a negative one does not wrap) and the
    value a number; a bad row raises ConfigError naming `name`.  With
    `skew` a row needs i < j and also contributes -value to [k, j, i], so the
    result is antisymmetric in its last two indices.
    """
    arr = np.zeros(shape)
    try:
        rows = list(entries)
    except TypeError as exc:
        raise ConfigError(f"{name} must be a list of [k, i, j, value] entries") from exc
    for entry in rows:
        try:
            k, i, j, value = entry
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name} entry {entry!r} is not [k, i, j, value]") from exc
        if not (
            all(isinstance(q, numbers.Real) for q in (k, i, j, value))
            and all(float(q).is_integer() for q in (k, i, j))
        ):
            raise ConfigError(f"{name} entry {entry!r} needs integer indices and a number")
        idx, value = (int(k), int(i), int(j)), float(value)
        if not all(0 <= q < size for q, size in zip(idx, shape)):
            raise ConfigError(f"{name} entry {entry!r} out of range for shape {shape}")
        if skew:
            if not idx[1] < idx[2]:
                raise ConfigError(
                    f"{name} entries must have i < j (got i={idx[1]}, j={idx[2]}); "
                    "the loader antisymmetrizes"
                )
            arr[idx[0], idx[2], idx[1]] -= value
        arr[idx] += value
    return arr


def sparse_entries(tensor: np.ndarray, skew: bool = False) -> list:
    """The nonzero [k, i, j, value] rows of a tensor, only i < j with `skew`;
    fill_entries reads them back."""
    mask = tensor != 0.0
    if skew:
        mask &= np.triu(np.ones(tensor.shape[1:], dtype=bool), k=1)
    return [[int(k), int(i), int(j), float(tensor[k, i, j])] for k, i, j in np.argwhere(mask)]


def from_sparse_entries(
    dim: int,
    entries: Iterable[tuple[int, int, int, float]],
    labels: tuple[str, ...] = (),
    tol: float | None = None,
) -> LieAlgebra:
    """Build an algebra from sparse entries [k, i, j, value] with i < j.

    Each entry contributes value to c[k, i, j] and -value to c[k, j, i], so the
    result is antisymmetric by construction.
    """
    c = fill_entries((dim, dim, dim), entries, "structure", skew=True)
    kwargs = {} if tol is None else {"tol": tol}
    return LieAlgebra(dim=dim, c=c, labels=labels, **kwargs)


def abelian(dim: int, labels: tuple[str, ...] = (), tol: float | None = None) -> LieAlgebra:
    """The abelian algebra of the given dimension (all brackets zero)."""
    if dim < 0:
        raise ConfigError(f"abelian dimension must be >= 0, got {dim}")
    kwargs = {} if tol is None else {"tol": tol}
    return LieAlgebra(dim=dim, c=np.zeros((dim, dim, dim)), labels=labels, **kwargs)


def tangent_algebra(g: LieAlgebra, n: int = 1) -> LieAlgebra:
    """The order-n tangent algebra g (x) R[t]/(t^(n+1)) in derivative
    coordinates: levels 0..n, level k labelled "d"*k + label, and

      [a, b]_k = sum_{i=0..k} C(k, i) [a_i, b_(k-i)].

    n = 1 is the tangent-bundle algebra g |x g.  Built once per (g, n) and
    kept in g's instance dict, beside its cached field_tensor."""
    if not isinstance(n, int) or n < 0:
        raise ConfigError(f"tangent order must be a non-negative integer, got {n!r}")
    cache = g.__dict__.get("_tangent_algebras")
    if cache is None:
        cache = g.__dict__["_tangent_algebras"] = {}
    if n not in cache:
        a = np.zeros((n + 1,) * 3)  # t^i t^(k-i) = C(k, i) t^k in derivative coordinates
        for k in range(n + 1):
            for i in range(k + 1):
                a[k, i, k - i] = math.comb(k, i)
        labels = tuple("d" * k + lbl for k in range(n + 1) for lbl in g.labels)
        cache[n] = _current_algebra(g, a, labels)
    return cache[n]


def _current_algebra(g: LieAlgebra, a: np.ndarray, labels: tuple[str, ...]) -> LieAlgebra:
    """g (x) A, A commutative associative with t_p t_q = sum_r a[r, p, q] t_r:
    [x (x) t_p, y (x) t_q] = [x, y] (x) t_p t_q, coordinates A-index first.
    Block (r, p, q) is a[r, p, q] * g.c, or +0.0 where a[r, p, q] is zero."""
    r, d = a.shape[0], g.dim
    c = np.multiply.outer(a, g.c)
    c[a == 0.0] = 0.0
    return LieAlgebra(r * d, c.transpose(0, 3, 1, 4, 2, 5).reshape((r * d,) * 3), labels, g.tol)


def _so3() -> LieAlgebra:
    # the cross product: [e_i, e_j] = sum_k eps_kij e_k
    return from_sparse_entries(3, [(0, 1, 2, 1.0), (1, 0, 2, -1.0), (2, 0, 1, 1.0)])


def _sl2() -> LieAlgebra:
    # Basis (H, E, F): [H, E] = 2E, [H, F] = -2F, [E, F] = H.
    return from_sparse_entries(
        3,
        [(1, 0, 1, 2.0), (2, 0, 2, -2.0), (0, 1, 2, 1.0)],
        labels=("H", "E", "F"),
    )


def _heisenberg() -> LieAlgebra:
    # [q, p] = z, z central.
    return from_sparse_entries(3, [(2, 0, 1, 1.0)], labels=("q", "p", "z"))


def preset(name: str, **params) -> LieAlgebra:
    """Named algebra presets: abelian (needs dim), so3, sl2, heisenberg,
    tangent (needs base: name or LieAlgebra; the first-order
    tangent_algebra(base), g |x g)."""
    if name == "abelian":
        if "dim" not in params:
            raise ConfigError("abelian preset needs a dim parameter")
        dim = int(params.pop("dim"))
        _reject_extra(name, params)
        return abelian(dim)
    if name == "so3":
        _reject_extra(name, params)
        return _so3()
    if name == "sl2":
        _reject_extra(name, params)
        return _sl2()
    if name == "heisenberg":
        _reject_extra(name, params)
        return _heisenberg()
    if name == "tangent":
        if "base" not in params:
            raise ConfigError("tangent preset needs a base parameter")
        base = params.pop("base")
        _reject_extra(name, params)
        if isinstance(base, str):
            base = preset(base)
        if not isinstance(base, LieAlgebra):
            raise ConfigError("tangent base must be a preset name or a LieAlgebra")
        return tangent_algebra(base)
    raise UnknownPreset(f"unknown algebra preset {name!r}")


def _reject_extra(name: str, params: dict) -> None:
    if params:
        raise ConfigError(f"unexpected parameters for preset {name!r}: {sorted(params)}")


# -- matrix exponential --------------------------------------------------------
#
# Scaling and squaring (Moler & Van Loan, SIAM Rev. 45, 2003; Higham, SIAM J.
# Matrix Anal. Appl. 26, 2005) with a Taylor polynomial: once ||A / 2^s||_1 <=
# 1/2, the terms of degree >= 16 sum to at most 2^-16 / 16! * 34/33 < 1e-18,
# far below rounding.  The degree-15 polynomial runs Horner's rule in A^4 over
# four blocks B_j = sum_{i<4} A^i / (4j + i)! (Paterson-Stockmeyer): six
# matrix products and one (4, 4) @ (4, d*d) product instead of fifteen.

_EXP_TAYLOR = np.array([1.0 / math.factorial(k) for k in range(16)]).reshape(4, 4)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix; a non-finite entry raises ValueError."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError("matrix exponential of a matrix with a non-finite entry")
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.5 else 0
    a = a * 0.5**s
    d = a.shape[0]
    powers = np.empty((4, d, d))
    powers[0] = np.eye(d)
    powers[1] = a
    powers[2] = a @ a
    powers[3] = powers[2] @ a
    a4 = powers[2] @ powers[2]
    blocks = (_EXP_TAYLOR @ powers.reshape(4, d * d)).reshape(4, d, d)
    e = blocks[3]
    for b in blocks[2::-1]:
        e = b + a4 @ e
    for _ in range(s):
        e = e @ e
    return e


# -- JSON serialization --------------------------------------------------------
#
# Document format:
#   {"dim": n, "labels": [...], "c": [[k, i, j, value], ...]}
# with one entry per independent (i < j) nonzero structure constant.


def algebra_to_doc(alg: LieAlgebra) -> dict:
    return {"dim": alg.dim, "labels": list(alg.labels), "c": sparse_entries(alg.c, skew=True)}


def algebra_from_doc(doc: dict) -> LieAlgebra:
    if not isinstance(doc, dict):
        raise ConfigError(f"algebra document must be an object, got {type(doc).__name__}")
    if "dim" not in doc:
        raise ConfigError("algebra document is missing 'dim'")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 0:
        raise ConfigError(f"'dim' must be a non-negative integer, got {dim!r}")
    labels = tuple(doc.get("labels", ()))
    if labels and len(labels) != dim:
        raise ConfigError(f"{len(labels)} labels for dimension {dim}")
    entries = doc.get("c", [])
    if not isinstance(entries, list):
        raise ConfigError("'c' must be a list of [k, i, j, value] entries")
    return from_sparse_entries(dim, entries, labels=labels)


def save_algebra(alg: LieAlgebra, path: str | Path) -> None:
    Path(path).write_text(json.dumps(algebra_to_doc(alg), indent=2) + "\n")


def load_algebra(path: str | Path) -> LieAlgebra:
    return algebra_from_doc(load_json(path))

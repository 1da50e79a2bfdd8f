"""Group arithmetic for higher-order tangent jets of matrix Lie groups.

Two jet layouts share one container:

  kind "tangent"   order n, slots (xi_1, ..., xi_n): the n-th tangent group
                   T^nG in left trivialization, slot k the k-th fiber.
  kind "iterated"  order n, slots indexed by the nonempty subsets of
                   {1..n}: the n-fold iterated bundle T(T(...TG)).  Subset
                   A maps to list position sum(2^(i-1) for i in A) - 1, so
                   for n = 3 the slot order is 1, 2, 21, 3, 31, 32, 321
                   (labels print the subset digits in decreasing order).

All slots are Lie algebra elements (matrices); the base is a group element.
The iterated product is base-first, a sum over set partitions:

  Z_A = Y_A + sum over set partitions of A, blocks ordered by increasing
        maximum, of (-1)^(l-1) ad_{Y_{B_{l-1}}} ... ad_{Y_{B_1}} Ad_{y^-1} X_{B_l}

for (x, X) * (y, Y).  T^nG sits inside the iterated bundle through the
embedding A -> |A| (tn_to_iterated), so the tangent product is the same sum
over the partitions of {1..k}, read through the slot map B -> |B|.  Both
layouts therefore run one cached trie, _trie(kind, n, reverse): its nodes
are the distinct (head slot, ad-chain prefix) pairs, stored depth by depth
with a parent node and a link slot, so terms that share a prefix share its
commutators (T^4G needs 11).  A (slots, nodes) scatter matrix holds each
term's weight, (-1)^(l-1) times the number of partitions that land on it; the
unsigned counts of tangent slot k sum to the k-th Bell number.  A product
fills one (nodes, d, d) buffer with one commutator pass per depth and
scatters it with one matrix product; the inverse runs the reversed,
unsigned trie off the element's own slots.  Each jet's base inverse is
formed once, by the first product, inverse or factorization that conjugates
by it, kept read-only on the jet and shared by every later one; a jet built
over the same base (tn_to_iterated, replace_slots, the t of a
factorization) shares it too.  Every
JetElement, products and inverses included, is validated on construction,
each check one or two ufunc passes over the base or the slot stack.

Every iterated jet factorizes as complement_embed(n, q) * tn_to_iterated(t):
q puts 2^n - 1 - n algebra elements on each slot but the top subsets
{n-k+1..n}, over the identity.  iterated_factorize solves for (q, t) level
by level on the same trie.  The cocycle gamma(qa, qb) of the matched pair is
the T^nG part t of the product of two embedded complements.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .algebra import _expm
from .errors import (
    ConfigError,
    DimensionError,
    FactorizationError,
    GroupMismatch,
    JetValidationError,
    SingularMatrix,
    default_tol,
    load_json,
)

__all__ = [
    "GROUP_TAGS",
    "JetElement",
    "ad",
    "group_residual",
    "algebra_residual",
    "compositions",
    "partition_coefficient",
    "set_partitions",
    "subsets_by_slot",
    "subset_label",
    "unit_jet",
    "tn_multiply",
    "tn_inverse",
    "iterated_multiply",
    "iterated_inverse",
    "tn_to_iterated",
    "complement_embed",
    "iterated_factorize",
    "t3_factorize",
    "random_jet",
    "jet_to_doc",
    "jet_from_doc",
    "save_jet",
    "load_jet",
]

GROUP_TAGS = ("GL", "SL", "SO")


def group_residual(group: str, g: np.ndarray) -> float | np.ndarray:
    """How far g is from the named matrix group (0 for GL, which only needs
    invertibility -- checked separately).  A (..., d, d) stack gives one
    residual per matrix; a single matrix gives a float."""
    g = np.asarray(g, dtype=float)
    return _as_float(_group_residual(group, g, np.linalg.det(g)))


def _group_residual(group: str, g: np.ndarray, det: float | np.ndarray) -> np.ndarray:
    """group_residual with det(g) already at hand; the SO Gram defect
    x^T x - I is formed in one buffer against the cached identity."""
    if group == "SO":
        gram = g.mT @ g
        gram -= _identity(g.shape[-1])
        return np.maximum(_max_abs(gram, out=gram), abs(det - 1.0))
    if group == "SL":
        return abs(det - 1.0)
    if group == "GL":
        return np.zeros(g.shape[:-2])
    raise ValueError(f"unknown group tag {group!r}")


def algebra_residual(group: str, x: np.ndarray) -> float | np.ndarray:
    """How far x is from the Lie algebra of the named group.  A (..., d, d)
    stack gives one residual per matrix; a single matrix gives a float."""
    x = np.asarray(x, dtype=float)
    if group == "SO":
        res = _max_abs(_algebra_defect(group, x))
    elif group == "SL":
        res = np.abs(_algebra_defect(group, x))
    elif group == "GL":
        res = np.zeros(x.shape[:-2])
    else:
        raise ValueError(f"unknown group tag {group!r}")
    return _as_float(res)


def _algebra_defect(group: str, x: np.ndarray) -> np.ndarray:
    """What vanishes on the Lie algebra: x + x^T for SO, the trace for SL."""
    return x + x.mT if group == "SO" else np.add.reduce(x.diagonal(0, -2, -1), -1)


_all, _isfinite, _max = np.logical_and.reduce, np.isfinite, np.maximum.reduce


def _det_rounding(g: np.ndarray, tol: float) -> float:
    """tol * prod_i |row_i|, the Hadamard bound on |det g| that det's rounding
    scales with; rows are normed without squaring, and an overflow is NaN."""
    with np.errstate(over="ignore"):
        bound = tol * math.prod(np.hypot.reduce(g, axis=1).tolist())
    return bound if math.isfinite(bound) else math.nan


@lru_cache(maxsize=None)
def _identity(d: int) -> np.ndarray:
    """The read-only d x d identity, built on first use."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def _max_abs(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Largest entry magnitude of each matrix in a (..., d, d) stack; `out`
    may be x itself, a scratch buffer the magnitudes overwrite."""
    flat = np.abs(x, out=out).reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))
    return _max(flat, -1, initial=0.0)


def _as_float(res: np.ndarray) -> float | np.ndarray:
    return float(res) if res.ndim == 0 else res


def ad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix commutator."""
    return x @ y - y @ x


def _inverse(g: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"base matrix is not invertible: {exc}") from exc


@dataclass(frozen=True)
class JetElement:
    """A jet of a curve in a matrix group: base point plus fiber slots.

    With no slots this is a plain group element.  The order is inferred from
    the slot count: kind "tangent" has `order` slots, kind "iterated" has
    2**order - 1.  Construction checks that every entry is finite, that the
    base lies in the tagged group to `tol` (an SL base's |det - 1| to `tol *
    max(1, prod_i |row_i|)`, the Hadamard bound on |det|) and that each slot
    x lies in its Lie algebra to `tol * max(1, max|x|)`; a failure is a
    JetValidationError naming the base or the first bad slot (SingularMatrix
    for a singular base).
    """

    group: str
    base: np.ndarray
    slots: np.ndarray = ()
    kind: str = "tangent"
    tol: float = field(default_factory=default_tol)
    _inv: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.group not in GROUP_TAGS:
            raise ValueError(f"unknown group tag {self.group!r}")
        if self.kind not in ("tangent", "iterated"):
            raise ValueError(f"unknown jet kind {self.kind!r}")
        base = np.array(self.base, dtype=float)  # a private copy, frozen below
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise DimensionError(f"base must be a square matrix, got {base.shape}")
        d = base.shape[0]
        raw = self.slots
        if isinstance(raw, np.ndarray) and raw.ndim == 3:
            slots = np.array(raw, dtype=float)
        else:
            mats = [np.asarray(s, dtype=float) for s in raw]
            slots = np.stack(mats) if mats else np.empty((0, d, d))
        if slots.shape[1:] != (d, d):
            raise DimensionError(
                f"slots must be {d}x{d} matrices, got shape {slots.shape}"
            )
        if self.kind == "iterated":
            order = (len(slots) + 1).bit_length() - 1
            if 2**order - 1 != len(slots):
                raise DimensionError(
                    f"iterated jet needs 2^n - 1 slots, got {len(slots)}"
                )
        # validity: finite entries (isfinite: no arithmetic, so nothing can
        # overflow or warn), base in the group, slots in the algebra, each one
        # reduction when it holds (a worst slot within tol passes at any
        # scale); only a failure looks closer.  Each comparison asks for the
        # good case, so a NaN residual fails it.  The ufuncs are called
        # without the ndarray method wrappers.
        if not (_all(_isfinite(base), None) and _all(_isfinite(slots), None)):
            finite = np.isfinite(np.concatenate((base[None], slots))).reshape(len(slots) + 1, -1)
            i = int(finite.all(axis=1).argmin()) - 1  # -1 is the base
            raise JetValidationError(i if i >= 0 else "base", math.inf, "has a non-finite entry")
        det = float(np.linalg.det(base))
        if not abs(det) >= 1e-300:
            raise SingularMatrix("base matrix is not invertible")
        res = float(_group_residual(self.group, base, det))
        if not (res <= self.tol or self.group == "SL" and res <= _det_rounding(base, self.tol)):
            raise JetValidationError("base", res, f"is not in {self.group}({d}) to "
                                     f"tol={self.tol:g} (residual {res:.3g})")
        if self.group != "GL" and not (
            _max(np.abs(_algebra_defect(self.group, slots)), None, initial=0.0) <= self.tol
        ):
            res = algebra_residual(self.group, slots)
            ok = res <= self.tol * np.maximum(_max_abs(slots), 1.0)
            i = int(ok.argmin())
            if not ok[i]:
                raise JetValidationError(i, float(res[i]), f"is not in the Lie algebra of "
                                         f"{self.group}({d}) to tol={self.tol:g} "
                                         f"(residual {res[i]:.3g})")
        base.setflags(write=False)
        slots.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "slots", slots)

    def _base_inverse(self) -> np.ndarray:
        """base^-1, read-only: formed by the first caller that needs it and
        kept for every later product, inverse and factorization."""
        inv = self._inv
        if inv is None:
            inv = _inverse(self.base)
            inv.setflags(write=False)
            object.__setattr__(self, "_inv", inv)
        return inv

    def _over_same_base(self, other: "JetElement") -> "JetElement":
        """other, a jet built over a copy of this base, sharing its inverse
        if that is formed."""
        object.__setattr__(other, "_inv", self._inv)
        return other

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    @property
    def order(self) -> int:
        if self.kind == "tangent":
            return len(self.slots)
        return (len(self.slots) + 1).bit_length() - 1

    def replace_slots(self, slots) -> "JetElement":
        return self._over_same_base(
            JetElement(self.group, self.base, slots, kind=self.kind, tol=self.tol))


def _check_pair(a: JetElement, b: JetElement, kind: str, n: int) -> None:
    if a.group != b.group:
        raise GroupMismatch(f"cannot combine {a.group} with {b.group}")
    if a.dim != b.dim:
        raise DimensionError(f"matrix sizes differ: {a.dim} vs {b.dim}")
    if a.kind != kind or b.kind != kind:
        raise ValueError(f"expected two {kind!r} jets, got {a.kind!r} and {b.kind!r}")
    if a.order != n or b.order != n:
        raise DimensionError(f"expected order {n}, got {a.order} and {b.order}")


def unit_jet(group: str, dim: int, order: int, kind: str = "tangent") -> JetElement:
    n_slots = order if kind == "tangent" else 2**order - 1
    return JetElement(group, np.eye(dim), np.zeros((n_slots, dim, dim)), kind=kind)


# -- combinatorics ----------------------------------------------------------


def compositions(k: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of positive integers summing to k."""
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in compositions(k - first):
            yield (first,) + rest


def partition_coefficient(i_list: Sequence[int]) -> int:
    """Number of set partitions of {1..k} whose block sizes, with blocks
    ordered by increasing maximum, are exactly (i1, ..., il).

    Equals the product over j >= 2 of C(i1 + ... + ij - 1, ij - 1): each new
    block must contain the largest element not yet placed, and its remaining
    members are free choices among the elements left over.
    """
    if not i_list:
        raise ValueError("need at least one block size")
    if any(int(i) != i or i < 1 for i in i_list):
        raise ValueError(f"block sizes must be positive integers, got {i_list!r}")
    coeff = 1
    total = i_list[0]
    for size in i_list[1:]:
        total += size
        coeff *= math.comb(total - 1, size - 1)
    return coeff


def set_partitions(items: tuple) -> Iterator[list[tuple]]:
    """Set partitions of `items`, blocks ordered by increasing maximum.

    `items` must be sorted ascending; each yielded partition is a list of
    tuples whose maxima increase along the list (so the last block contains
    max(items)).
    """
    if not items:
        yield []
        return
    head, last = items[:-1], items[-1]
    for p in set_partitions(head):
        yield p + [(last,)]
        for i in range(len(p)):
            yield [b for j, b in enumerate(p) if j != i] + [p[i] + (last,)]


# -- iterated slot bookkeeping -----------------------------------------------


@lru_cache(maxsize=None)
def subsets_by_slot(n: int) -> tuple[tuple[int, ...], ...]:
    """Nonempty subsets of {1..n} in slot order (binary-counter order)."""
    return tuple(
        tuple(i for i in range(1, n + 1) if mask & (1 << (i - 1)))
        for mask in range(1, 2**n)
    )


def subset_label(subset: tuple[int, ...]) -> str:
    return "".join(str(i) for i in sorted(subset, reverse=True))


def _slot_index(subset: tuple[int, ...]) -> int:
    return sum(1 << (i - 1) for i in subset) - 1


# -- products and inverses, both layouts -------------------------------------


@lru_cache(maxsize=None)
def _trie(kind: str, n: int, reverse: bool) -> tuple[tuple, np.ndarray]:
    """The order-n product sum: one term per set partition of a target
    subset (blocks ordered by increasing maximum), its last block the head
    and the others the links, applied in order (reversed for the inverse).
    Iterated targets are the nonempty subsets of {1..n}, read through
    _slot_index; tangent targets are {1..k}, read through B -> |B| - 1.

    The terms form a trie of (head slot, link prefix) nodes.  Depth 0 is the
    m slots, each heading its one-block term; deeper nodes follow depth by
    depth, so a parent precedes its node.  Returns (levels, scatter): per
    depth >= 1 the parent node and link slot of each node, and the
    (m, nodes) summed weight of the terms ending at each node, a term with
    L links weighing (-1)^L in the product and 1 in the inverse."""
    if kind == "iterated":
        targets, slot = subsets_by_slot(n), _slot_index
    else:
        targets = [tuple(range(1, k + 1)) for k in range(1, n + 1)]
        slot = lambda block: len(block) - 1
    weights: Counter = Counter()
    for target in targets:
        for blocks in set_partitions(target):
            chain = tuple(map(slot, blocks[:-1]))
            path = (slot(blocks[-1]),) + (chain[::-1] if reverse else chain)
            weights[slot(target), path] += 1 if reverse else (-1) ** len(chain)
    nodes = sorted({path[:k] for _, path in weights for k in range(1, len(path) + 1)},
                   key=lambda path: (len(path), path))
    index = {path: i for i, path in enumerate(nodes)}
    levels = []
    for depth in range(2, max(map(len, nodes), default=0) + 1):
        level = [path for path in nodes if len(path) == depth]
        levels.append((np.array([index[path[:-1]] for path in level]),
                       np.array([path[-1] for path in level])))
    scatter = np.zeros((len(targets), len(nodes)))
    for (target, path), weight in weights.items():
        scatter[target, index[path]] = weight
    return tuple(levels), scatter


def _run_trie(trie: tuple, sources: np.ndarray, links: np.ndarray) -> np.ndarray:
    """The trie's terms over (m, d, d) slot stacks: depth 0 holds `sources`,
    each deeper node is ad_{links[slot]} of its parent, and one matrix
    product scatters the weighted nodes into their targets."""
    levels, scatter = trie
    m, d, _ = sources.shape
    nodes = scatter.shape[1]
    buf = np.empty((nodes, d, d))
    buf[:m] = sources
    lo = m
    for parents, slots in levels:
        p = buf.take(parents, axis=0)
        s = links.take(slots, axis=0)
        np.subtract(s @ p, p @ s, out=buf[lo:lo + len(parents)])
        lo += len(parents)
    return (scatter @ buf.reshape(nodes, d * d)).reshape(m, d, d)


def _product_slots(kind: str, n: int, a: JetElement, b: JetElement) -> np.ndarray:
    """Slots of (x, X) * (y, Y): Y plus the signed, counted ad_Y-chains of
    Ad_{y^-1} X."""
    conj = b._base_inverse() @ a.slots @ b.base  # Ad_{y^-1} of every slot
    out = _run_trie(_trie(kind, n, False), conj, b.slots)
    out += b.slots
    return out


def _multiply(kind: str, n: int, a: JetElement, b: JetElement) -> JetElement:
    _check_pair(a, b, kind, n)
    return JetElement(a.group, a.base @ b.base, _product_slots(kind, n, a, b), kind=kind,
                      tol=max(a.tol, b.tol))


def _invert(kind: str, n: int, a: JetElement) -> JetElement:
    """The product's terms read off the element's own slots, chains in
    reverse and unsigned, then conjugated back by the base and negated."""
    if a.kind != kind or a.order != n:
        article = "an" if kind == "iterated" else "a"
        raise DimensionError(f"expected {article} {kind} jet of order {n}")
    base_inv = a._base_inverse()
    out = a.base @ _run_trie(_trie(kind, n, True), a.slots, a.slots) @ base_inv
    return JetElement(a.group, base_inv, np.negative(out, out=out), kind=kind, tol=a.tol)


def tn_multiply(n: int, a: JetElement, b: JetElement) -> JetElement:
    """Product in T^nG, left-trivialized: (x, xi) * (y, zeta)."""
    return _multiply("tangent", n, a, b)


def tn_inverse(n: int, a: JetElement) -> JetElement:
    """Inverse in T^nG.  Same composition sum as the product but with the
    ad-chain read off the element's own slots, conjugated back by the base,
    and no sign alternation."""
    return _invert("tangent", n, a)


def iterated_multiply(n: int, a: JetElement, b: JetElement) -> JetElement:
    """Product in the n-fold iterated tangent bundle of the group."""
    return _multiply("iterated", n, a, b)


def iterated_inverse(n: int, a: JetElement) -> JetElement:
    return _invert("iterated", n, a)


# -- embeddings and factorization --------------------------------------------


def tn_to_iterated(j: JetElement) -> JetElement:
    """Canonical embedding T^nG -> T(T(...TG)): the slot of subset A is the
    |A|-th tangent slot.  This is a group homomorphism."""
    if j.kind != "tangent":
        raise ValueError("expected a tangent jet")
    slots = j.slots.take(_layout(j.order)[0], axis=0)
    return j._over_same_base(JetElement(j.group, j.base, slots, kind="iterated", tol=j.tol))


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per slot the tangent slot |A| - 1 that its subset A reads; the slot
    of each top subset {n-k+1..n}, k = 1..n; and every other slot, in slot
    order."""
    fibers = np.array([len(subset) - 1 for subset in subsets_by_slot(n)], dtype=int)
    tops = np.array([2**n - 2 ** (n - k) - 1 for k in range(1, n + 1)], dtype=int)
    return fibers, tops, np.setdiff1d(np.arange(2**n - 1), tops)


def complement_embed(
    n: int, q: np.ndarray, group: str = "GL", tol: float | None = None
) -> JetElement:
    """Embed 2^n - 1 - n algebra elements into the n-fold iterated bundle
    over the identity: q fills every slot but the top subsets {n-k+1..n},
    in slot order.  For n = 3 the slots are (X1, X2, X21, 0, X31, 0, 0)."""
    q = np.asarray(q, dtype=float)
    count = 2**n - 1 - n
    if q.ndim != 3 or len(q) != count or q.shape[1] != q.shape[2]:
        raise DimensionError(f"order {n} needs {count} square algebra elements, "
                             f"got shape {q.shape}")
    slots = np.zeros((2**n - 1,) + q.shape[1:])
    slots[_layout(n)[2]] = q
    return JetElement(group, np.eye(q.shape[1]), slots, kind="iterated",
                      tol=default_tol() if tol is None else tol)


def iterated_factorize(n: int, j: JetElement) -> tuple[np.ndarray, JetElement]:
    """Split an n-fold iterated jet as complement_embed(n, q) * tn_to_iterated(t).

    Returns (q, t), t a tangent jet of order n over the base x of j.  Slot A
    of the product is T_A + W_A + linked_A, with W = Ad_{x^-1} q, T the slots
    of tn_to_iterated(t) and the linked terms (two or more blocks) reading
    only smaller subsets.  So the levels solve in turn: one trie run gives
    the linked terms of size k, the top subset gives t_k and the other
    size-k subsets their W.

    The round trip must hold to max(tol, 1e-10) * max(1, max|base|,
    max|slots|) of j, else FactorizationError.  Its slots are compared, not
    validated as a jet: close to j they lie in the algebra as j does, while
    a jet check would judge the rounding of the factors' larger slots
    against each output slot's own size.
    """
    if j.kind != "iterated" or j.order != n:
        raise DimensionError(f"expected an iterated jet of order {n}")
    s, x = j.slots, j.base
    fibers, tops, free = _layout(n)
    trie = _trie("iterated", n, False)
    w = np.zeros_like(s)  # Ad_{x^-1} q
    tt = np.zeros_like(s)  # tn_to_iterated(t).slots
    rest = s  # the slots less their linked terms; level 1 has none
    for k, top in enumerate(tops, start=1):
        if k > 1:
            rest = s - (_run_trie(trie, w, tt) - w)
        level = fibers == k - 1
        tt[level] = rest[top]
        w[level] = rest[level] - rest[top]  # exactly zero on the top slot
    q = x @ w[free] @ j._base_inverse()
    t = j._over_same_base(JetElement(j.group, x, tt[tops], kind="tangent", tol=j.tol))
    recon = _product_slots(  # over the base I @ x == x, conjugating by j's inverse
        "iterated", n, complement_embed(n, q, group=j.group, tol=j.tol), tn_to_iterated(t)
    )
    err = float(_max_abs(recon - s).max(initial=0.0))
    limit = max(j.tol, 1e-10) * float(max(1.0, _max_abs(x), _max_abs(s).max(initial=0.0)))
    if not err <= limit:
        raise FactorizationError(f"round-trip residual {err:.3g} exceeds {limit:.3g}")
    return q, t


def t3_factorize(j: JetElement) -> tuple[np.ndarray, JetElement]:
    """iterated_factorize at order 3: q is (X1, X2, X21, X31)."""
    return iterated_factorize(3, j)


# -- sampling and serialization ----------------------------------------------


def _random_algebra(group: str, d: int, rng: np.random.Generator, scale: float) -> np.ndarray:
    a = scale * rng.standard_normal((d, d))
    if group == "SO":
        return a - a.T
    if group == "SL":
        return a - (np.trace(a) / d) * np.eye(d)
    return a


def random_jet(
    group: str,
    dim: int,
    order: int,
    kind: str = "tangent",
    rng: np.random.Generator | None = None,
    scale: float = 0.5,
) -> JetElement:
    """Random jet with base exp(random algebra element): always lands in the
    tagged group, and stays well-conditioned for moderate `scale`."""
    rng = np.random.default_rng() if rng is None else rng
    base = _expm(_random_algebra(group, dim, rng, scale))
    n_slots = order if kind == "tangent" else 2**order - 1
    slots = [_random_algebra(group, dim, rng, scale) for _ in range(n_slots)]
    return JetElement(group, base, slots, kind=kind)


def jet_to_doc(j: JetElement) -> dict:
    return {
        "group": f"{j.group}{j.dim}",
        "kind": j.kind,
        "base": j.base.tolist(),
        "slots": [s.tolist() for s in j.slots],
    }


def jet_from_doc(doc: dict) -> JetElement:
    if not isinstance(doc, dict):
        raise ConfigError(f"jet document must be an object, got {type(doc).__name__}")
    try:
        name, base, slots = doc["group"], doc["base"], doc["slots"]
    except KeyError as exc:
        raise ConfigError(f"jet document is missing key {exc}") from exc
    m = re.fullmatch(r"([A-Z]+)(\d+)", str(name))
    if not m or m.group(1) not in GROUP_TAGS:
        raise ConfigError(f"bad group name {name!r}")
    try:
        base = np.asarray(base, dtype=float)
        slots = [np.asarray(s, dtype=float) for s in slots]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"jet base and slots must be numeric arrays: {exc}") from exc
    if base.shape != (int(m.group(2)),) * 2:
        raise ConfigError(
            f"group {name} expects a {m.group(2)}x{m.group(2)} base, got {base.shape}"
        )
    try:
        return JetElement(m.group(1), base, slots, kind=doc.get("kind", "tangent"))
    except ValueError as exc:  # unknown kind, base or slot outside the group
        raise ConfigError(f"jet document: {exc}") from exc


def save_jet(j: JetElement, path) -> None:
    Path(path).write_text(json.dumps(jet_to_doc(j), indent=2, sort_keys=True) + "\n")


def load_jet(path) -> JetElement:
    return jet_from_doc(load_json(path))

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
factorization) shares it too, and an inverse takes the original base as
its base inverse.

Every JetElement, products and inverses included, is validated on
construction.  It copies every array a caller passes in; products,
inverses, embeddings and the t of a factorization hand the arrays they
made or hold over uncopied (algebra._Kept).  One judgment serves jets and
the public residuals alike: _defects forms each defect once, with no
warning, and a jet whose determinant (_det, a cofactor expansion up to
size 3) is safely nonzero and whose defects all lie within the package's
one tolerance, errors.default_tol() (read once per jet), passes at once.
Otherwise _judge_rows reads each base's and slot's residual off the
same defects (_residuals), compares it with its own bound and raises the
first failure.

Every iterated jet factorizes as complement_embed(n, q) * tn_to_iterated(t):
q puts 2^n - 1 - n algebra elements on each slot but the top subsets
{n-k+1..n}, over the identity.  iterated_factorize solves for (q, t) level
by level on the same trie.  The cocycle gamma(qa, qb) of the matched pair is
the T^nG part t of the product of two embedded complements.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .algebra import _expm, _Kept, read_only_floats
from .errors import (
    ConfigError,
    DimensionError,
    FactorizationError,
    GroupMismatch,
    JetValidationError,
    SingularMatrix,
    default_tol,
    floats,
    integer,
    load_json,
    positive,
)

__all__ = [
    "GROUP_TAGS",
    "JetElement",
    "ad",
    "group_residual",
    "algebra_residual",
    "partition_coefficient",
    "set_partitions",
    "subsets_by_slot",
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
    residual per matrix; a single matrix gives a float.  Nothing warns: an
    overflow gives inf.  g is judged by errors.floats."""
    g = floats(g, "g")
    bases = g.reshape((math.prod(g.shape[:-2]),) + g.shape[-2:])
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.linalg.det(bases) if group in ("SO", "SL") else 1.0
    head, _, rows = _defects(group, bases, dets, bases[:0])
    return _as_float(_residuals(group, head, rows, len(bases), 0).reshape(g.shape[:-2]))


def algebra_residual(group: str, x: np.ndarray) -> float | np.ndarray:
    """How far x is from the Lie algebra of the named group.  A (..., d, d)
    stack gives one residual per matrix; a single matrix gives a float.
    Nothing warns: an overflow gives inf.  x is judged by errors.floats."""
    x = floats(x, "x")
    slots = x.reshape((math.prod(x.shape[:-2]),) + x.shape[-2:])
    head, _, rows = _defects(group, slots[:0], 1.0, slots)
    return _as_float(_residuals(group, head, rows, 0, len(slots)).reshape(x.shape[:-2]))


def _defects(group: str, bases: np.ndarray, dets: float | np.ndarray, slots: np.ndarray
             ) -> tuple[float | np.ndarray, float, np.ndarray | None]:
    """Every defect of group elements `bases` with determinants `dets` (one
    d x d matrix and its det, or a (b, d, d) stack and b of them) and of
    Lie algebra elements `slots` (m, d, d), with no warning: an overflow is
    inf.  Returns (head, worst, rows).

    head is each base's |det - 1|, 0 for GL.  rows holds magnitudes: for SO
    the entries of x^T x - I for each base, then of x + x^T for each slot;
    for SL |tr x| for each slot; None for GL.  worst is their largest, NaN
    or inf when a slot entry is not finite: an SO slot reaches each entry
    through x + x^T, GL screens with isfinite, and SL with max|x| <= 1e300,
    below which no trace overflows and errstate is spared.
    """
    if group == "SO":
        single = bases.ndim == 2
        b, d = 1 if single else len(bases), slots.shape[-1]
        rows = np.empty((b + len(slots), d, d))
        with np.errstate(over="ignore", invalid="ignore"):  # a 2-D rows[0] spares a broadcast
            np.subtract(bases.mT @ bases, _identity(d), out=rows[0] if single else rows[:b])
            np.add(slots, slots.mT, out=rows[b:])
        return abs(dets - 1.0), _max(np.abs(rows, out=rows), None, initial=0.0), rows
    if group == "GL":
        return 0.0, 0.0 if _all(_isfinite(slots), None) else math.inf, None
    if group != "SL":
        raise ConfigError(f"unknown group tag {group!r}")
    peak = _max(np.abs(slots), None, initial=0.0)  # NaN or inf with a non-finite entry
    with _AS_IS if peak <= 1e300 else np.errstate(over="ignore", invalid="ignore"):
        rows = np.add.reduce(slots.diagonal(0, -2, -1), -1)
    np.abs(rows, out=rows)
    return abs(dets - 1.0), _max(rows, None, initial=0.0) if peak <= 1e300 else math.inf, rows


def _residuals(group: str, head: float | np.ndarray, rows: np.ndarray | None, b: int,
               m: int) -> np.ndarray:
    """Each of b bases' and then m slots' residual off _defects: its rows'
    largest entry, a base's |det - 1| included."""
    res = _max(rows, (1, 2), initial=0.0) if group == "SO" else np.zeros(b + m)
    if group == "SL":
        res[b:] = rows
    res[:b] = np.maximum(res[:b], head)  # NaN stays NaN
    return res


_all, _isfinite, _max = np.logical_and.reduce, np.isfinite, np.maximum.reduce
_AS_IS = contextlib.nullcontext()  # numpy's error state, unchanged


def _det_rounding(g: np.ndarray, tol: float) -> float:
    """tol * prod_i |row_i|, the Hadamard bound on |det g| that det's rounding
    scales with; rows are normed without squaring, and an overflow is NaN."""
    with np.errstate(over="ignore"):
        bound = tol * math.prod(np.hypot.reduce(g, axis=1).tolist())
    return bound if math.isfinite(bound) else math.nan


def _det(g: np.ndarray) -> float:
    """det g, non-finite whenever an entry of g is.

    For d <= 3 the cofactor expansion on g.tolist(), in Python floats, so
    nothing warns: every entry reaches the result through products, and a
    non-finite factor stays non-finite (inf * 0 is NaN).  Each of its terms
    is rounded at most five times, so the error is at most 5u * perm|g| <=
    14 eps * prod_i |row_i| (perm|g| <= prod_i |row_i|_1 <= d^(d/2) prod_i
    |row_i|), the Hadamard scale of _det_rounding, barring overflow and
    underflow.  From d = 4, or where it overflows (inf - inf on a finite g),
    np.linalg.det after an isfinite screen, with overflow quiet."""
    d, det = len(g), math.nan
    if d == 3:
        (a, b, c), (e, f, h), (i, k, m) = g.tolist()
        det = a * (f * m - h * k) - b * (e * m - h * i) + c * (e * k - f * i)
    elif d == 2:
        (a, b), (c, e) = g.tolist()
        det = a * e - b * c
    elif d < 2:
        return g.item() if d else 1.0
    if -math.inf < det < math.inf:
        return det
    if not _all(_isfinite(g), None):
        return math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.det(g))


@lru_cache(maxsize=None)
def _identity(d: int) -> np.ndarray:
    """The read-only d x d identity, built on first use."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def _max_abs(x: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of each matrix in a (..., d, d) stack."""
    flat = np.abs(x).reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))
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


def _judge_rows(group: str, base: np.ndarray, slots: np.ndarray, tol: float, det: float,
                head: float, rows: np.ndarray | None) -> None:
    """Judge a jet that its _defects against tol did not pass: raise at the
    first failure, a non-finite entry (isfinite, so nothing overflows), a
    singular base, then the base or first slot whose residual exceeds its
    bound (tol for the base, at least _det_rounding for SL; tol * max(1,
    max|x|) for a slot x); return if there is none.  Each comparison asks
    for the good case, so NaN fails."""
    if not (_all(_isfinite(base), None) and _all(_isfinite(slots), None)):
        finite = np.isfinite(np.concatenate((base[None], slots))).reshape(len(slots) + 1, -1)
        i = int(finite.all(axis=1).argmin()) - 1  # -1 is the base
        raise JetValidationError(i if i >= 0 else "base", math.inf, "has a non-finite entry")
    if not abs(det) >= 1e-300:
        raise SingularMatrix("base matrix is not invertible")
    res = _residuals(group, head, rows, 1, len(slots))
    bounds = np.empty(len(res))
    bounds[0] = max(tol, _det_rounding(base, tol)) if group == "SL" else tol
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(np.maximum(_max_abs(slots), 1.0), tol, out=bounds[1:])
    ok = res <= bounds
    i = int(ok.argmin())
    if ok[i]:
        return
    r, name = float(res[i]), f"{group}({len(base)})"
    where, place = ("base", name) if i == 0 else (i - 1, f"the Lie algebra of {name}")
    raise JetValidationError(where, r, f"is not in {place} to tol={tol:g} (residual {r:.3g})")


@dataclass(frozen=True, eq=False)
class JetElement:
    """A jet of a curve in a matrix group: base point plus fiber slots.

    With no slots this is a plain group element.  The order is inferred from
    the slot count: kind "tangent" has `order` slots, kind "iterated" has
    2**order - 1.  Construction reads tol = errors.default_tol() once and
    checks that every entry is finite, that the base lies in the tagged
    group to `tol` (an SL base's |det - 1| to `tol * max(1, prod_i
    |row_i|)`, the Hadamard bound on |det|) and that each slot x lies in its
    Lie algebra to `tol * max(1, max|x|)`; a failure is a JetValidationError
    naming the base or the first bad slot (SingularMatrix for a singular
    base).  The defects are formed once: a jet whose defects all lie within
    `tol` passes on that alone, and only another is judged row by row
    against the bounds above.  The base and slots, a
    sequence or (m, d, d) stack of d x d matrices, are judged by
    errors.floats and copied to read-only arrays, so no caller can change a
    validated jet.
    """

    group: str
    base: np.ndarray
    slots: np.ndarray = ()
    kind: str = "tangent"
    _inv: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.group not in GROUP_TAGS:
            raise ConfigError(f"unknown group tag {self.group!r}")
        if self.kind not in ("tangent", "iterated"):
            raise ConfigError(f"unknown jet kind {self.kind!r}")
        base = read_only_floats(self.base, "base")
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise DimensionError(f"base has shape {base.shape}, expected a square matrix")
        d = base.shape[0]
        slots = self.slots
        if type(slots) in (tuple, list) and not slots:  # a plain group element
            slots = _Kept(np.empty((0, d, d)))
        slots = read_only_floats(slots, "slots", (None, d, d))
        if self.kind == "iterated":
            order = (len(slots) + 1).bit_length() - 1
            if 2**order - 1 != len(slots):
                raise DimensionError(
                    f"iterated jet needs 2^n - 1 slots, got {len(slots)}"
                )
        det, tol = _det(base), default_tol()
        head, worst, rows = _defects(self.group, base, det, slots)
        if not (1e-300 <= abs(det) < math.inf and head <= tol and worst <= tol):
            _judge_rows(self.group, base, slots, tol, det, head, rows)
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

    def _over_same_base(self, slots, kind: str) -> "JetElement":
        """A jet of `kind` with `slots` over this very base, sharing its
        inverse if that is formed."""
        other = JetElement(self.group, _Kept(self.base), slots, kind=kind)
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
        return self._over_same_base(slots, self.kind)


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
    dim, order = integer(dim, "dim"), integer(order, "order")
    n_slots = order if kind == "tangent" else 2**order - 1
    return JetElement(group, np.eye(dim), np.zeros((n_slots, dim, dim)), kind=kind)


# -- combinatorics ----------------------------------------------------------


def partition_coefficient(i_list: Sequence[int]) -> int:
    """Number of set partitions of {1..k} whose block sizes, with blocks
    ordered by increasing maximum, are exactly (i1, ..., il).

    Equals the product over j >= 2 of C(i1 + ... + ij - 1, ij - 1): each new
    block must contain the largest element not yet placed, and its remaining
    members are free choices among the elements left over.
    """
    if not i_list:
        raise ValueError("need at least one block size")
    i_list = [integer(i, "block size", 1) for i in i_list]
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


def _product_slots(kind: str, n: int, xs: np.ndarray, y: np.ndarray, y_inv: np.ndarray,
                   ys: np.ndarray) -> np.ndarray:
    """Slots of (x, X) * (y, Y) from X, y, y^-1 and Y: Y plus the signed,
    counted ad_Y-chains of Ad_{y^-1} X, in a fresh array."""
    conj = y_inv @ xs @ y  # Ad_{y^-1} of every slot
    return np.add(_run_trie(_trie(kind, n, False), conj, ys), ys)


def _multiply(kind: str, n: int, a: JetElement, b: JetElement) -> JetElement:
    n = integer(n, "n")
    _check_pair(a, b, kind, n)
    slots = _product_slots(kind, n, a.slots, b.base, b._base_inverse(), b.slots)
    return JetElement(a.group, _Kept(a.base @ b.base), _Kept(slots), kind=kind)


def _invert(kind: str, n: int, a: JetElement) -> JetElement:
    """The product's terms read off the element's own slots, chains in
    reverse and unsigned, then conjugated back by the base and negated."""
    n = integer(n, "n")
    if a.kind != kind or a.order != n:
        article = "an" if kind == "iterated" else "a"
        raise DimensionError(f"expected {article} {kind} jet of order {n}")
    base_inv = a._base_inverse()
    out = a.base @ _run_trie(_trie(kind, n, True), a.slots, a.slots) @ base_inv
    inv = JetElement(a.group, _Kept(base_inv), _Kept(np.negative(out, out=out)), kind=kind)
    object.__setattr__(inv, "_inv", a.base)  # the inverse of base^-1 is the base
    return inv


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
    return j._over_same_base(_Kept(j.slots.take(_layout(j.order)[0], axis=0)), "iterated")


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per slot the tangent slot |A| - 1 that its subset A reads; the slot
    of each top subset {n-k+1..n}, k = 1..n; and every other slot, in slot
    order."""
    fibers = np.array([len(subset) - 1 for subset in subsets_by_slot(n)], dtype=int)
    tops = np.array([2**n - 2 ** (n - k) - 1 for k in range(1, n + 1)], dtype=int)
    return fibers, tops, np.setdiff1d(np.arange(2**n - 1), tops)


def complement_embed(n: int, q: np.ndarray, group: str = "GL") -> JetElement:
    """Embed 2^n - 1 - n algebra elements into the n-fold iterated bundle
    over the identity: q fills every slot but the top subsets {n-k+1..n},
    in slot order.  For n = 3 the slots are (X1, X2, X21, 0, X31, 0, 0).
    q is judged by errors.floats as a (2^n - 1 - n, d, d) array, and the jet
    by JetElement against default_tol()."""
    n = integer(n, "n")
    q = floats(q, "q", (2**n - 1 - n, None, None))
    if q.shape[1] != q.shape[2]:
        raise DimensionError(f"q has shape {q.shape}, expected square matrices")
    slots = np.zeros((2**n - 1,) + q.shape[1:])
    slots[_layout(n)[2]] = q
    return JetElement(group, _Kept(np.eye(q.shape[1])), _Kept(slots), kind="iterated")


def iterated_factorize(n: int, j: JetElement) -> tuple[np.ndarray, JetElement]:
    """Split an n-fold iterated jet as complement_embed(n, q) * tn_to_iterated(t).

    Returns (q, t), t a tangent jet of order n over the base x of j.  Slot A
    of the product is T_A + W_A + linked_A, with W = Ad_{x^-1} q, T the slots
    of tn_to_iterated(t) and the linked terms (two or more blocks) reading
    only smaller subsets.  So the levels solve in turn: one trie run gives
    the linked terms of size k, the top subset gives t_k and the other
    size-k subsets their W.

    The round trip must hold to max(default_tol(), 1e-10) * max(1,
    max|base|, max|slots|) of j, else FactorizationError.  Its slots are
    compared, not validated as a jet: close to j they lie in the algebra as
    j does, while a jet check would judge the rounding of the factors'
    larger slots against each output slot's own size.
    """
    n = integer(n, "n")
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
    x_inv = j._base_inverse()
    q = x @ w[free] @ x_inv
    t = j._over_same_base(_Kept(tt[tops]), "tangent")
    embedded = np.zeros_like(s)  # complement_embed(n, q).slots; tt is tn_to_iterated(t).slots
    embedded[free] = q
    recon = _product_slots("iterated", n, embedded, x, x_inv, tt)  # over the base I @ x == x
    err = float(_max_abs(recon - s).max(initial=0.0))
    limit = max(default_tol(), 1e-10) * float(max(1.0, _max_abs(x), _max_abs(s).max(initial=0.0)))
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
    dim, order = integer(dim, "dim"), integer(order, "order")
    positive(scale, "scale", zero=True)
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
    d = int(m.group(2))
    try:
        return JetElement(m.group(1), floats(base, "base", (d, d)), slots,
                          kind=doc.get("kind", "tangent"))
    except DimensionError:  # a wrong shape, as algebra_from_doc and product_from_doc
        raise
    except ValueError as exc:  # a bad entry, unknown kind, base or slot off the group
        raise ConfigError(f"jet document: {exc}") from exc


def save_jet(j: JetElement, path) -> None:
    Path(path).write_text(json.dumps(jet_to_doc(j), indent=2, sort_keys=True) + "\n")


def load_jet(path) -> JetElement:
    return jet_from_doc(load_json(path))

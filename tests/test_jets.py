import copy
import dataclasses
import warnings
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unimech import (
    ConfigError,
    DimensionError,
    FactorizationError,
    GroupMismatch,
    JetElement,
    JetValidationError,
    SingularMatrix,
    complement_embed,
    iterated_factorize,
    iterated_inverse,
    iterated_multiply,
    jet_from_doc,
    jet_to_doc,
    load_jet,
    partition_coefficient,
    random_jet,
    save_jet,
    t3_factorize,
    tn_inverse,
    tn_multiply,
    tn_to_iterated,
    unit_jet,
)
from unimech import jets
from unimech.jets import (
    _slot_index,
    _trie,
    ad,
    algebra_residual,
    compositions,
    group_residual,
    set_partitions,
    subset_label,
    subsets_by_slot,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}


def _adinv(y, x):
    """Ad_{y^-1} x."""
    return np.linalg.solve(y, x @ y)


def _assert_jets_close(a, b, atol):
    assert a.group == b.group and a.kind == b.kind
    np.testing.assert_allclose(a.base, b.base, atol=atol)
    np.testing.assert_allclose(a.slots, b.slots, atol=atol)


def _iterated3_by_hand(a, b):
    """Every slot of the triple-bundle product written out longhand.

    Slot order 1, 2, 21, 3, 31, 32, 321.  Each Z is the right factor's slot
    plus signed ad-chains of right-factor slots hitting the conjugated
    left-factor slots, one term per set partition of the subset.
    """
    X = a.slots
    Y = b.slots
    w = [_adinv(b.base, s) for s in X]
    z1 = Y[0] + w[0]
    z2 = Y[1] + w[1]
    z3 = Y[3] + w[3]
    z21 = Y[2] + w[2] - ad(Y[0], w[1])
    z31 = Y[4] + w[4] - ad(Y[0], w[3])
    z32 = Y[5] + w[5] - ad(Y[1], w[3])
    z321 = (
        Y[6]
        + w[6]
        - ad(Y[0], w[5])
        - ad(Y[1], w[4])
        - ad(Y[2], w[3])
        + ad(Y[1], ad(Y[0], w[3]))
    )
    return a.base @ b.base, (z1, z2, z21, z3, z31, z32, z321)


@lru_cache(maxsize=None)
def _terms_one_by_one(kind, n):
    """The order-n product sum as (target slot, count, chain slots, head slot)
    terms, one per distinct slot pattern of a set partition of a target
    subset (blocks ordered by increasing maximum)."""
    if kind == "iterated":
        targets, slot = subsets_by_slot(n), _slot_index
    else:
        targets = [tuple(range(1, k + 1)) for k in range(1, n + 1)]
        slot = lambda block: len(block) - 1
    counts = Counter()
    for target in targets:
        for blocks in set_partitions(target):
            counts[slot(target), tuple(map(slot, blocks[:-1])), slot(blocks[-1])] += 1
    return tuple((t, count, chain, head) for (t, chain, head), count in counts.items())


def _multiply_one_term_at_a_time(kind, n, a, b):
    """(x, X) * (y, Y) one term and one ad per chain link at a time: the
    oracle for the batched product kernel."""
    conj = np.linalg.solve(b.base, a.slots @ b.base)
    out = np.array(b.slots)
    for target, count, chain, head in _terms_one_by_one(kind, n):
        acc = conj[head]
        for s in chain:
            acc = ad(b.slots[s], acc)
        out[target] += (-1) ** len(chain) * count * acc
    return JetElement(a.group, a.base @ b.base, out, kind=kind, tol=max(a.tol, b.tol))


def _invert_one_term_at_a_time(kind, n, a):
    """The inverse one term at a time: chains read off the element's own
    slots in reverse and unsigned, then conjugated back by the base."""
    base_inv = np.linalg.inv(a.base)
    out = np.zeros_like(a.slots)
    for target, count, chain, head in _terms_one_by_one(kind, n):
        acc = a.slots[head]
        for s in reversed(chain):
            acc = ad(a.slots[s], acc)
        out[target] += count * acc
    return JetElement(a.group, base_inv, -(a.base @ out @ base_inv), kind=kind, tol=a.tol)


# -- combinatorial layer ------------------------------------------------------


def test_compositions_enumeration():
    assert list(compositions(0)) == [()]
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    for k in range(1, 7):
        comps = list(compositions(k))
        assert len(comps) == 2 ** (k - 1)
        assert all(sum(c) == k and min(c) >= 1 for c in comps)


def _partitions_by_growth_string(k):
    """Set partitions of {1..k} via restricted growth strings; blocks sorted
    by increasing maximum.  Independent of the recursive generator under test."""

    def rec(prefix, m):
        if len(prefix) == k:
            yield prefix
            return
        for v in range(m + 1):
            yield from rec(prefix + [v], max(m, v + 1))

    for rgs in rec([], 0):
        blocks: dict[int, list] = {}
        for i, v in enumerate(rgs, start=1):
            blocks.setdefault(v, []).append(i)
        yield sorted((tuple(b) for b in blocks.values()), key=max)


def test_set_partitions_against_growth_strings():
    for n in range(1, 6):
        items = tuple(range(1, n + 1))
        got = sorted(tuple(p) for p in set_partitions(items))
        want = sorted(tuple(p) for p in _partitions_by_growth_string(n))
        assert got == want
        assert len(got) == BELL[n]
    assert list(set_partitions(())) == [[]]


def test_partition_coefficient_small_cases():
    assert partition_coefficient((2,)) == 1
    assert partition_coefficient((1, 1)) == 1
    assert partition_coefficient((1, 2)) == 2
    assert partition_coefficient((1, 1, 2)) == 3


def test_partition_coefficient_order_four_table():
    table = {
        (4,): 1,
        (1, 3): 3,
        (2, 2): 3,
        (3, 1): 1,
        (1, 1, 2): 3,
        (1, 2, 1): 2,
        (2, 1, 1): 1,
        (1, 1, 1, 1): 1,
    }
    for comp, want in table.items():
        assert partition_coefficient(comp) == want
    assert sum(table.values()) == BELL[4]


def test_partition_coefficient_counts_actual_partitions():
    for k in range(1, 6):
        counts: dict[tuple, int] = {}
        for blocks in _partitions_by_growth_string(k):
            sizes = tuple(len(b) for b in blocks)
            counts[sizes] = counts.get(sizes, 0) + 1
        for comp in compositions(k):
            assert partition_coefficient(comp) == counts.get(comp, 0)
        assert sum(partition_coefficient(c) for c in compositions(k)) == BELL[k]


def test_partition_coefficient_input_checks():
    with pytest.raises(ValueError, match="at least one"):
        partition_coefficient(())
    with pytest.raises(ValueError, match="positive integers"):
        partition_coefficient((1, 0))
    with pytest.raises(ValueError, match="positive integers"):
        partition_coefficient((1.5, 2))


# -- tangent-group product, written out ---------------------------------------


@pytest.mark.parametrize("group,dim", [("SO", 3), ("SL", 2)])
def test_third_order_product_term_by_term(group, dim):
    rng = np.random.default_rng(10)
    for _ in range(5):
        a = random_jet(group, dim, 3, rng=rng)
        b = random_jet(group, dim, 3, rng=rng)
        prod = tn_multiply(3, a, b)
        ze = b.slots
        w = [_adinv(b.base, s) for s in a.slots]
        s1 = ze[0] + w[0]
        s2 = ze[1] + w[1] - ad(ze[0], w[0])
        s3 = (
            ze[2]
            + w[2]
            - 2.0 * ad(ze[0], w[1])
            - ad(ze[1], w[0])
            + ad(ze[0], ad(ze[0], w[0]))
        )
        np.testing.assert_allclose(prod.base, a.base @ b.base, atol=1e-12)
        for got, want in zip(prod.slots, (s1, s2, s3)):
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_fourth_slot_carries_the_full_coefficient_table():
    rng = np.random.default_rng(11)
    a = random_jet("SO", 3, 4, rng=rng)
    b = random_jet("SO", 3, 4, rng=rng)
    prod = tn_multiply(4, a, b)
    ze = b.slots
    w = [_adinv(b.base, s) for s in a.slots]
    s4 = (
        ze[3]
        + w[3]
        - 3.0 * ad(ze[0], w[2])
        - 3.0 * ad(ze[1], w[1])
        - ad(ze[2], w[0])
        + 3.0 * ad(ze[0], ad(ze[0], w[1]))
        + 2.0 * ad(ze[1], ad(ze[0], w[0]))
        + ad(ze[0], ad(ze[1], w[0]))
        - ad(ze[0], ad(ze[0], ad(ze[0], w[0])))
    )
    np.testing.assert_allclose(prod.slots[3], s4, atol=1e-12)
    # the test would be blind to a dropped or flipped term if these vanished
    assert np.max(np.abs(ad(ze[2], w[0]))) > 1e-3
    assert np.max(np.abs(ad(ze[1], ad(ze[0], w[0])))) > 1e-4


def test_multiplying_by_a_bare_group_element_just_conjugates():
    # right factor with zero slots: every ad-chain dies, leaving Ad_{y^-1}
    rng = np.random.default_rng(12)
    a = random_jet("SL", 2, 3, rng=rng)
    y = random_jet("SL", 2, 0, rng=rng).base
    b = JetElement("SL", y, np.zeros((3, 2, 2)))
    prod = tn_multiply(3, a, b)
    for k in range(3):
        np.testing.assert_allclose(prod.slots[k], _adinv(y, a.slots[k]), atol=1e-12)


@pytest.mark.parametrize("group,dim", [("SO", 3), ("SL", 2)])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_tangent_group_laws(group, dim, order):
    rng = np.random.default_rng(13)
    e = unit_jet(group, dim, order)
    for _ in range(3):
        a = random_jet(group, dim, order, rng=rng)
        b = random_jet(group, dim, order, rng=rng)
        c = random_jet(group, dim, order, rng=rng)
        left = tn_multiply(order, tn_multiply(order, a, b), c)
        right = tn_multiply(order, a, tn_multiply(order, b, c))
        _assert_jets_close(left, right, atol=1e-9)
        _assert_jets_close(tn_multiply(order, a, e), a, atol=1e-10)
        _assert_jets_close(tn_multiply(order, e, a), a, atol=1e-10)
        inv = tn_inverse(order, a)
        _assert_jets_close(tn_multiply(order, a, inv), e, atol=1e-10)
        _assert_jets_close(tn_multiply(order, inv, a), e, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_inverse_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    a = random_jet("SO", 3, 3, rng=rng)
    _assert_jets_close(
        tn_multiply(3, a, tn_inverse(3, a)), unit_jet("SO", 3, 3), atol=1e-10
    )


_LAYOUTS = {
    "tangent": (tn_multiply, tn_inverse),
    "iterated": (iterated_multiply, iterated_inverse),
}
_GROUPS = [("SO", 3), ("SL", 2), ("GL", 3)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    group_dim=st.sampled_from(_GROUPS),
    order=st.integers(min_value=1, max_value=4),
    kind=st.sampled_from(sorted(_LAYOUTS)),
    scale=st.floats(min_value=0.05, max_value=0.5),
)
def test_jet_group_laws_property(seed, group_dim, order, kind, scale):
    # associativity, the unit on both sides and the inverse on both sides
    group, dim = group_dim
    mul, inv = _LAYOUTS[kind]
    rng = np.random.default_rng(seed)
    a, b, c = (random_jet(group, dim, order, kind=kind, rng=rng, scale=scale) for _ in range(3))
    e = unit_jet(group, dim, order, kind=kind)
    _assert_jets_close(mul(order, mul(order, a, b), c), mul(order, a, mul(order, b, c)), atol=1e-9)
    _assert_jets_close(mul(order, a, e), a, atol=1e-10)
    _assert_jets_close(mul(order, e, a), a, atol=1e-10)
    a_inv = inv(order, a)
    _assert_jets_close(mul(order, a, a_inv), e, atol=1e-10)
    _assert_jets_close(mul(order, a_inv, a), e, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    group_dim=st.sampled_from(_GROUPS),
    order=st.integers(min_value=1, max_value=4),
    scale=st.floats(min_value=0.05, max_value=0.5),
)
def test_iterated_factorize_round_trip_property(seed, group_dim, order, scale):
    group, dim = group_dim
    rng = np.random.default_rng(seed)
    j = random_jet(group, dim, order, kind="iterated", rng=rng, scale=scale)
    q, t = iterated_factorize(order, j)
    assert t.group == group and t.kind == "tangent" and t.order == order
    recon = iterated_multiply(order, complement_embed(order, q, group=group, tol=j.tol),
                              tn_to_iterated(t))
    _assert_jets_close(recon, j, atol=1e-10)


def test_inverse_closed_form_at_third_order():
    rng = np.random.default_rng(14)
    a = random_jet("SL", 2, 3, rng=rng)
    inv = tn_inverse(3, a)
    x = a.base
    xi = a.slots
    push = lambda z: x @ z @ np.linalg.inv(x)
    np.testing.assert_allclose(inv.base, np.linalg.inv(x), atol=1e-12)
    np.testing.assert_allclose(inv.slots[0], -push(xi[0]), atol=1e-12)
    np.testing.assert_allclose(inv.slots[1], -push(xi[1]), atol=1e-12)
    np.testing.assert_allclose(
        inv.slots[2], -push(xi[2] + ad(xi[0], xi[1])), atol=1e-12
    )


# -- iterated bundle -----------------------------------------------------------


def test_subset_bookkeeping():
    assert subsets_by_slot(3) == (
        (1,),
        (2,),
        (1, 2),
        (3,),
        (1, 3),
        (2, 3),
        (1, 2, 3),
    )
    assert [subset_label(s) for s in subsets_by_slot(3)] == [
        "1",
        "2",
        "21",
        "3",
        "31",
        "32",
        "321",
    ]


def test_double_bundle_product_written_out():
    rng = np.random.default_rng(15)
    a = random_jet("GL", 3, 2, kind="iterated", rng=rng)
    b = random_jet("GL", 3, 2, kind="iterated", rng=rng)
    prod = iterated_multiply(2, a, b)
    Y = b.slots
    w = [_adinv(b.base, s) for s in a.slots]
    np.testing.assert_allclose(prod.slots[0], Y[0] + w[0], atol=1e-12)
    np.testing.assert_allclose(prod.slots[1], Y[1] + w[1], atol=1e-12)
    np.testing.assert_allclose(
        prod.slots[2], Y[2] + w[2] - ad(Y[0], w[1]), atol=1e-12
    )


def test_triple_bundle_product_written_out():
    rng = np.random.default_rng(16)
    for _ in range(5):
        a = random_jet("GL", 3, 3, kind="iterated", rng=rng)
        b = random_jet("GL", 3, 3, kind="iterated", rng=rng)
        prod = iterated_multiply(3, a, b)
        base, slots = _iterated3_by_hand(a, b)
        np.testing.assert_allclose(prod.base, base, atol=1e-12)
        for got, want in zip(prod.slots, slots):
            np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_iterated_group_laws(order):
    rng = np.random.default_rng(17)
    for group, dim in (("SO", 3), ("SL", 2), ("GL", 3)):
        e = unit_jet(group, dim, order, kind="iterated")
        for _ in range(3):
            a, b, c = (random_jet(group, dim, order, kind="iterated", rng=rng) for _ in range(3))
            left = iterated_multiply(order, iterated_multiply(order, a, b), c)
            right = iterated_multiply(order, a, iterated_multiply(order, b, c))
            _assert_jets_close(left, right, atol=1e-9)
            _assert_jets_close(iterated_multiply(order, a, e), a, atol=1e-10)
            _assert_jets_close(iterated_multiply(order, e, a), a, atol=1e-10)
            inv = iterated_inverse(order, a)
            _assert_jets_close(iterated_multiply(order, a, inv), e, atol=1e-10)
            _assert_jets_close(iterated_multiply(order, inv, a), e, atol=1e-10)


@pytest.mark.parametrize("kind", ["tangent", "iterated"])
@pytest.mark.parametrize("group,dim", [("SO", 3), ("SL", 2), ("GL", 3)])
def test_batched_kernels_match_the_per_term_oracle(kind, group, dim):
    # order 0 is a bare group element: no slots, no terms
    rng = np.random.default_rng(29)
    if kind == "tangent":
        mul, inv = tn_multiply, tn_inverse
    else:
        mul, inv = iterated_multiply, iterated_inverse
    for order in (0, 1, 2, 3, 4, 5) if kind == "tangent" else (0, 1, 2, 3, 4):
        for _ in range(3):
            a = random_jet(group, dim, order, kind=kind, rng=rng)
            b = random_jet(group, dim, order, kind=kind, rng=rng)
            _assert_jets_close(
                mul(order, a, b), _multiply_one_term_at_a_time(kind, order, a, b), atol=1e-13
            )
            _assert_jets_close(
                inv(order, a), _invert_one_term_at_a_time(kind, order, a), atol=1e-13
            )


@pytest.mark.parametrize("kind", ["tangent", "iterated"])
def test_term_trie_structure(kind):
    # the trie holds exactly the oracle's terms, its nodes depth by depth
    for n in range(6):
        m = n if kind == "tangent" else 2**n - 1
        for reverse in (False, True):
            levels, scatter = _trie(kind, n, reverse)
            assert scatter.shape[0] == m
            paths = [(k,) for k in range(m)]  # depth 0: every slot heads a term
            above, lo = 0, m
            for parents, links in levels:
                # each parent lies one depth up, so it precedes its node
                assert np.all((above <= parents) & (parents < lo))
                assert np.all((0 <= links) & (links < m))
                paths += [paths[p] + (s,) for p, s in zip(parents, links)]
                above, lo = lo, lo + len(parents)
            assert len(paths) == scatter.shape[1] == len(set(paths))
            got = {(t, paths[i]): w for (t, i), w in np.ndenumerate(scatter) if w}
            want = Counter()
            for target, count, chain, head in _terms_one_by_one(kind, n):
                steps = chain[::-1] if reverse else chain
                want[target, (head,) + steps] += count if reverse else (-1) ** len(chain) * count
            assert got == dict(want)
        # the unsigned counts of a target are its number of set partitions
        counts = _trie(kind, n, True)[1].sum(axis=1)
        sizes = range(1, n + 1) if kind == "tangent" else map(len, subsets_by_slot(n))
        assert counts.tolist() == [BELL[k] for k in sizes]
    if kind == "tangent":
        assert sum(len(parents) for parents, _ in _trie(kind, 4, False)[0]) == 11


def test_tn_to_iterated_is_a_homomorphism():
    rng = np.random.default_rng(18)
    for n in (2, 3, 4):
        a = random_jet("SO", 3, n, rng=rng)
        b = random_jet("SO", 3, n, rng=rng)
        image_of_product = tn_to_iterated(tn_multiply(n, a, b))
        product_of_images = iterated_multiply(n, tn_to_iterated(a), tn_to_iterated(b))
        _assert_jets_close(image_of_product, product_of_images, atol=1e-10)
    _assert_jets_close(
        tn_to_iterated(unit_jet("SO", 3, 3)),
        unit_jet("SO", 3, 3, kind="iterated"),
        atol=0.0,
    )
    with pytest.raises(ValueError, match="tangent"):
        tn_to_iterated(unit_jet("SO", 3, 2, kind="iterated"))


def _t3_factorize_by_hand(j):
    """The order-3 factorization j = complement_embed(3, q) * tn_to_iterated(t)
    with its slot formulas derived by hand.  Returns q = (X1, X2, X21, X31)
    and the tangent slots (t1, t2, t3)."""
    s = j.slots  # order: 1, 2, 21, 3, 31, 32, 321
    x = j.base
    push = lambda z: x @ z @ np.linalg.inv(x)  # Ad_x
    t = np.stack([s[3], s[5], s[6] + ad(s[3], s[4] - s[5])])
    q = np.stack([
        push(s[0] - s[3]),
        push(s[1] - s[3]),
        push(s[2] - s[5] + ad(s[3], s[1] - s[3])),
        push(s[4] - s[5]),
    ])
    return q, t


def _complement_product(n, qa, qb, group="GL"):
    return iterated_multiply(n, complement_embed(n, qa, group=group),
                             complement_embed(n, qb, group=group))


def test_t3_embed_slot_pattern():
    # T^3G sits in the triple bundle as (xi1, xi1, xi2, xi1, xi2, xi2, xi3)
    rng = np.random.default_rng(19)
    j = random_jet("SL", 2, 3, rng=rng)
    emb = tn_to_iterated(j)
    assert emb.kind == "iterated" and emb.order == 3
    xi1, xi2, xi3 = j.slots
    for got, want in zip(emb.slots, (xi1, xi1, xi2, xi1, xi2, xi2, xi3)):
        np.testing.assert_allclose(got, want)


def test_g4_embed_layout():
    # the order-3 complement g^4 sits in the triple bundle as (X1, X2, X21, 0, X31, 0, 0)
    rng = np.random.default_rng(20)
    q = rng.standard_normal((4, 3, 3))
    x1, x2, x21, x31 = q
    emb = complement_embed(3, q)
    assert emb.kind == "iterated" and emb.order == 3
    np.testing.assert_allclose(emb.base, np.eye(3))
    zero = np.zeros((3, 3))
    for got, want in zip(emb.slots, (x1, x2, x21, zero, x31, zero, zero)):
        np.testing.assert_allclose(got, want)
    _assert_jets_close(
        complement_embed(3, np.zeros((4, 3, 3))),
        unit_jet("GL", 3, 3, kind="iterated"),
        atol=0.0,
    )
    with pytest.raises(ValueError, match="Lie algebra"):
        complement_embed(3, np.stack([np.eye(3), zero, zero, zero]), group="SO")


def test_complement_embed_layout_at_every_order():
    # q fills the slots of every subset but {n-k+1..n}, in slot order
    rng = np.random.default_rng(26)
    for n in range(1, 6):
        q = rng.standard_normal((2**n - 1 - n, 2, 2))
        emb = complement_embed(n, q, group="GL")
        np.testing.assert_array_equal(emb.base, np.eye(2))
        tops = {tuple(range(n - k + 1, n + 1)) for k in range(1, n + 1)}
        free = [i for i, subset in enumerate(subsets_by_slot(n)) if subset not in tops]
        np.testing.assert_array_equal(emb.slots[free], q)
        assert not np.any(np.delete(emb.slots, free, axis=0))


@pytest.mark.parametrize("n,count", [(1, 1), (2, 0), (2, 2), (3, 3), (3, 5), (4, 4)])
def test_complement_embed_rejects_a_wrong_count(n, count):
    with pytest.raises(DimensionError, match=f"order {n} needs {2**n - 1 - n}"):
        complement_embed(n, np.zeros((count, 3, 3)))


@pytest.mark.parametrize("group,dim", [("GL", 3), ("SO", 3), ("SL", 2)])
def test_t3_factorize_round_trips(group, dim):
    rng = np.random.default_rng(21)
    for _ in range(5):
        j = random_jet(group, dim, 3, kind="iterated", rng=rng)
        quad, t = t3_factorize(j)
        assert quad.shape == (4, dim, dim)
        assert t.kind == "tangent" and t.order == 3
        np.testing.assert_allclose(t.base, j.base)
        embedded = (complement_embed(3, quad, group=group, tol=j.tol), tn_to_iterated(t))
        _assert_jets_close(iterated_multiply(3, *embedded), j, atol=1e-10)
        # and through the longhand product, so the check does not lean on
        # the same multiply routine the factorization itself used
        base, slots = _iterated3_by_hand(*embedded)
        np.testing.assert_allclose(base, j.base, atol=1e-10)
        np.testing.assert_allclose(np.stack(slots), j.slots, atol=1e-10)


@pytest.mark.parametrize("group,dim", [("GL", 3), ("SO", 3), ("SL", 2)])
def test_iterated_factorize_matches_the_hand_formulas_at_order_3(group, dim):
    rng = np.random.default_rng(27)
    for _ in range(10):
        j = random_jet(group, dim, 3, kind="iterated", rng=rng)
        q, t = iterated_factorize(3, j)
        q_hand, t_hand = _t3_factorize_by_hand(j)
        np.testing.assert_allclose(q, q_hand, rtol=0, atol=1e-13)
        np.testing.assert_allclose(t.slots, t_hand, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(t.base, j.base)
        q3, t3 = t3_factorize(j)
        np.testing.assert_array_equal(q3, q)
        np.testing.assert_array_equal(t3.slots, t.slots)


@pytest.mark.parametrize("group,dim", [("GL", 3), ("SO", 3), ("SL", 2)])
def test_iterated_factorize_round_trips(group, dim):
    rng = np.random.default_rng(28)
    for n in range(1, 6):
        for _ in range(3):
            j = random_jet(group, dim, n, kind="iterated", rng=rng)
            q, t = iterated_factorize(n, j)
            assert q.shape == (2**n - 1 - n, dim, dim)
            assert t.group == group and t.kind == "tangent" and t.order == n
            np.testing.assert_array_equal(t.base, j.base)
            recon = iterated_multiply(n, complement_embed(n, q, group=group, tol=j.tol),
                                      tn_to_iterated(t))
            _assert_jets_close(recon, j, atol=1e-10)


def test_iterated_factorize_on_the_pure_pieces():
    # T^nG factorizes as (0, t) and the complement as (q, unit), at every order
    rng = np.random.default_rng(22)
    for n in range(1, 6):
        t = random_jet("SO", 3, n, rng=rng)
        q, t_back = iterated_factorize(n, tn_to_iterated(t))
        np.testing.assert_allclose(q, 0.0, atol=1e-12)
        _assert_jets_close(t_back, t, atol=1e-12)

        q = rng.standard_normal((2**n - 1 - n, 3, 3))
        q_back, t_part = iterated_factorize(n, complement_embed(n, q))
        np.testing.assert_allclose(q_back, q, atol=1e-12)
        _assert_jets_close(t_part, unit_jet("GL", 3, n), atol=1e-12)


def test_t3_factorize_rejects_other_layouts():
    with pytest.raises(DimensionError, match="order 3"):
        t3_factorize(unit_jet("SO", 3, 3))
    with pytest.raises(DimensionError, match="order 3"):
        t3_factorize(unit_jet("SO", 3, 2, kind="iterated"))


@pytest.mark.parametrize("scale", [1e3, 1e4])
@pytest.mark.parametrize("group,dim", [("GL", 3), ("SO", 3), ("SL", 2)])
def test_factorization_judges_the_round_trip_against_the_jet_scale(group, dim, scale):
    # rounding in the reconstruction grows with the slots; a valid jet of
    # any size must still factorize
    rng = np.random.default_rng(29)
    for _ in range(10):
        j = random_jet(group, dim, 3, kind="iterated", rng=rng)
        j = j.replace_slots(scale * j.slots)
        q, t = t3_factorize(j)
        # the longhand product: a validated one may reject the factors' product
        # (their slots grow like powers of the jet's, see ROADMAP item 3)
        base, slots = _iterated3_by_hand(complement_embed(3, q, group=group, tol=j.tol),
                                         tn_to_iterated(t))
        size = max(1.0, np.max(np.abs(j.base)), np.max(np.abs(j.slots)))
        np.testing.assert_allclose(base, j.base, rtol=0, atol=1e-10 * size)
        np.testing.assert_allclose(np.stack(slots), j.slots, rtol=0, atol=1e-10 * size)


def test_factorization_raises_when_the_round_trip_misses(monkeypatch):
    product_slots = jets._product_slots

    def off_by_1e_6(*args):
        slots = product_slots(*args)
        slots[-1] += 1e-6
        return slots

    monkeypatch.setattr(jets, "_product_slots", off_by_1e_6)
    j = random_jet("GL", 3, 3, kind="iterated", rng=np.random.default_rng(30))
    with pytest.raises(FactorizationError, match=r"round-trip residual 1e-06 exceeds"):
        iterated_factorize(3, j)


def test_quad_product_twisted_sum_and_cocycle():
    rng = np.random.default_rng(23)
    A = rng.standard_normal((4, 3, 3))
    B = rng.standard_normal((4, 3, 3))
    phi, gamma = iterated_factorize(3, _complement_product(3, A, B))
    expected = np.stack(
        [A[0] + B[0], A[1] + B[1], A[2] + B[2] - ad(B[0], A[1]), A[3] + B[3]]
    )
    np.testing.assert_allclose(phi, expected, atol=1e-12)
    np.testing.assert_allclose(gamma.base, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(gamma.slots[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(gamma.slots[1], 0.0, atol=1e-12)
    np.testing.assert_allclose(gamma.slots[2], -ad(B[1], A[3]), atol=1e-12)
    assert np.max(np.abs(ad(B[1], A[3]))) > 1e-3


def test_cocycle_lies_over_the_identity_with_a_zero_first_slot():
    # gamma(qa, qb), the T^nG part of a product of two complements
    rng = np.random.default_rng(31)
    for n in range(2, 6):
        qa, qb = rng.standard_normal((2, 2**n - 1 - n, 3, 3))
        _, gamma = iterated_factorize(n, _complement_product(n, qa, qb))
        assert gamma.kind == "tangent" and gamma.order == n
        np.testing.assert_allclose(gamma.base, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(gamma.slots[0], 0.0, atol=1e-12)


def test_act_and_twist_closed_forms():
    # moving a complement across an embedded T^3G: t * quad = quad' * t'
    rng = np.random.default_rng(24)
    t = random_jet("GL", 3, 3, rng=rng)
    x = t.base
    xi = t.slots
    quad = rng.standard_normal((4, 3, 3))
    m1, m2, m21, m31 = quad
    embedded = complement_embed(3, quad, group=t.group, tol=t.tol)
    moved, twisted = iterated_factorize(3, iterated_multiply(3, tn_to_iterated(t), embedded))

    push = lambda z: x @ z @ np.linalg.inv(x)
    np.testing.assert_allclose(moved[0], push(m1), atol=1e-10)
    np.testing.assert_allclose(moved[1], push(m2), atol=1e-10)
    np.testing.assert_allclose(moved[2], push(m21 - ad(m1, xi[0])), atol=1e-10)
    np.testing.assert_allclose(moved[3], push(m31 + ad(m2 - m1, xi[0])), atol=1e-10)

    np.testing.assert_allclose(twisted.base, x, atol=1e-12)
    np.testing.assert_allclose(twisted.slots[0], xi[0], atol=1e-10)
    np.testing.assert_allclose(twisted.slots[1], xi[1] - ad(m2, xi[0]), atol=1e-10)
    s3 = (
        xi[2]
        - ad(m1 + m2, xi[1])
        - ad(m21, xi[0])
        + ad(m2, ad(m1, xi[0]))
        + ad(xi[0], m31)
        + ad(xi[0], ad(m2 - m1, xi[0]))
    )
    np.testing.assert_allclose(twisted.slots[2], s3, atol=1e-10)


# -- container checks ----------------------------------------------------------


def test_jet_keeps_private_copies_of_its_arrays():
    base = np.eye(3)
    slots = np.zeros((2, 3, 3))
    a = JetElement("SO", base, slots)
    b = JetElement("SO", base, list(slots))
    base[0, 0] = 2.0  # the caller's arrays stay writeable
    slots[0, 0, 1] = 1.0
    for jet in (a, b):
        np.testing.assert_array_equal(jet.base, np.eye(3))
        np.testing.assert_array_equal(jet.slots, np.zeros((2, 3, 3)))
        assert not jet.base.flags.writeable and not jet.slots.flags.writeable


def test_jet_validity_checks():
    eye = np.eye(3)
    with pytest.raises(ValueError, match="unknown group tag"):
        JetElement("SU", eye)
    with pytest.raises(ValueError, match="unknown jet kind"):
        JetElement("SO", eye, kind="cotangent")
    with pytest.raises(DimensionError, match="square"):
        JetElement("GL", np.ones((2, 3)))
    with pytest.raises(DimensionError, match="slots must be"):
        JetElement("GL", eye, [np.zeros((2, 2))])
    with pytest.raises(DimensionError, match="2\\^n - 1"):
        JetElement("GL", eye, np.zeros((5, 3, 3)), kind="iterated")
    with pytest.raises(SingularMatrix):
        JetElement("GL", np.zeros((3, 3)))
    with pytest.raises(SingularMatrix, match="^base matrix is not invertible$"):
        JetElement("GL", np.diag([1.0, 2.0, 0.0]))
    with pytest.raises(ValueError, match="not in SO"):
        JetElement("SO", 2.0 * eye)
    with pytest.raises(ValueError, match="slot 0"):
        JetElement("SO", eye, [np.eye(3)])
    # exact messages: each names the failed check and its residual
    shear = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # det 1, not orthogonal
    with pytest.raises(
        ValueError, match=r"^base is not in SO\(3\) to tol=1e-10 \(residual 0\.5\)$"
    ):
        JetElement("SO", shear)
    flip = np.diag([1.0, 1.0, -1.0])  # orthogonal, det -1
    with pytest.raises(
        ValueError, match=r"^base is not in SO\(3\) to tol=1e-10 \(residual 2\)$"
    ):
        JetElement("SO", flip)
    with pytest.raises(
        ValueError, match=r"^base is not in SL\(2\) to tol=1e-10 \(residual 3\)$"
    ):
        JetElement("SL", 2.0 * np.eye(2))
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(
        ValueError,
        match=r"^slot 2 is not in the Lie algebra of SO\(3\) to tol=1e-10 \(residual 0\.25\)$",
    ):
        JetElement("SO", eye, [skew, skew, skew + np.diag([0.0, 0.125, 0.0]), np.eye(3)])
    with pytest.raises(
        ValueError,
        match=r"^slot 2 is not in the Lie algebra of SL\(2\) to tol=1e-10 \(residual 1\)$",
    ):
        JetElement("SL", np.eye(2), np.stack([np.zeros((2, 2))] * 2 + [np.diag([1.0, 0.0])]))
    # loosening the tolerance admits a slightly off-manifold base
    rough = eye + 1e-6
    with pytest.raises(ValueError, match="not in SO"):
        JetElement("SO", rough)
    JetElement("SO", rough, tol=1e-3)


def test_jets_reject_non_finite_entries():
    # NaN fails every residual comparison and GL has no residual at all, so
    # these would otherwise construct without error
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    cases = [
        ("SO", np.eye(3), [np.full((3, 3), np.nan)], "slot 0"),
        ("SO", np.full((3, 3), np.nan), [], "base"),
        ("GL", np.full((3, 3), np.inf), [], "base"),
        ("GL", np.eye(3), [skew, np.diag([1.0, -np.inf, 0.0]), skew], "slot 1"),
        ("SL", np.eye(3), [skew, skew, np.full((3, 3), np.nan)], "slot 2"),
    ]
    for group, base, slots, where in cases:
        with pytest.raises(ValueError, match=f"^{where} has a non-finite entry$"):
            JetElement(group, base, slots)
        doc = {"group": f"{group}3", "base": base.tolist(), "slots": [s.tolist() for s in slots]}
        with pytest.raises(ConfigError, match=f"^jet document: {where} has a non-finite entry$"):
            jet_from_doc(doc)


def test_finiteness_screen_neither_overflows_nor_warns():
    # entries of 1e308 sum past the float range, and inf + -inf is invalid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j = JetElement("GL", np.eye(3), [np.full((3, 3), 1e308)])
        with pytest.raises(JetValidationError, match="^slot 0 has a non-finite entry$") as err:
            JetElement("GL", np.eye(3), [np.diag([np.inf, -np.inf, 0.0])])
    np.testing.assert_array_equal(j.slots, np.full((1, 3, 3), 1e308))
    assert err.value.where == 0 and err.value.residual == np.inf


def test_sl_bases_are_judged_against_the_hadamard_bound_on_det():
    # scale-3 draws have rows far from unit length, and det carries rounding
    # of tol * prod_i |row_i|: seed 0 gives two draws with |det - 1| > tol
    rng = np.random.default_rng(0)
    draws = [random_jet("SL", 4, 1, rng=rng, scale=3.0) for _ in range(100)]
    over = [j for j in draws if abs(np.linalg.det(j.base) - 1.0) > j.tol]
    assert len(over) == 2
    for j in over:
        hadamard = np.prod(np.linalg.norm(j.base, axis=1))
        assert abs(np.linalg.det(j.base) - 1.0) <= j.tol * hadamard
    # a unit-scale base off SL by 1e-6 still fails, with the same message
    for base in (np.diag([1.0 + 1e-6, 1.0, 1.0]), np.diag([10.0, 0.1 * (1.0 + 1e-6), 1.0])):
        with pytest.raises(JetValidationError) as err:
            JetElement("SL", base)
        assert str(err.value) == "base is not in SL(3) to tol=1e-10 (residual 1e-06)"
        assert err.value.where == "base"


def test_the_hadamard_bound_is_for_sl_alone_and_cannot_overflow():
    # det = 1 exactly, but the Gram defect of about 1e22 is no rounding of det
    so_base = np.eye(4) + 1e11 * np.eye(4, k=1)
    # det = 2, and a row of 1e160 would overflow a squared norm to inf
    sl_base = np.diag([1e160, 1e-160, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(JetValidationError, match=r"^base is not in SO\(4\)") as so:
            JetElement("SO", so_base)
        with pytest.raises(JetValidationError, match=r"^base is not in SL\(3\)") as sl:
            JetElement("SL", sl_base)
    assert so.value.residual > 1e21 and sl.value.residual == 1.0


def test_slots_are_judged_relative_to_their_scale():
    # a product of slots of size ~100 carries rounding residuals of ~1e-9
    # in its third slot: inside tol * max|x|, outside the bare tol
    rng = np.random.default_rng(30)
    for _ in range(20):
        a, b = (random_jet("SO", 3, 3, rng=rng) for _ in range(2))
        a, b = a.replace_slots(100.0 * a.slots), b.replace_slots(100.0 * b.slots)
        prod = tn_multiply(3, a, b)
        want = _multiply_one_term_at_a_time("tangent", 3, a, b)
        np.testing.assert_allclose(prod.slots, want.slots, atol=1e-13 * np.abs(want.slots).max())
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    bump = np.diag([0.0, 1.0, 0.0])  # x + x^T gains 2 * its weight
    # a slot of size 1e6 is judged against 1e-10 * 1e6, one below size 1
    # against the bare 1e-10
    JetElement("SO", np.eye(3), [1e-3 * skew + 2.5e-11 * bump, 1e6 * skew + 2.5e-5 * bump])
    with pytest.raises(JetValidationError, match=r"^slot 1 .* \(residual 0\.0002\)$"):
        JetElement("SO", np.eye(3), [skew, 1e6 * skew + 1e-4 * bump])
    with pytest.raises(JetValidationError, match=r"^slot 0 .* \(residual 2e-10\)$"):
        JetElement("SO", np.eye(3), [1e-3 * skew + 1e-10 * bump, 1e6 * skew])


def test_jet_validation_errors_name_where_and_residual():
    eye = np.eye(3)
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    shear = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    cases = [
        (("SO", shear), "base", 0.5),
        (("SO", np.diag([1.0, 1.0, -1.0])), "base", 2.0),
        (("SL", 2.0 * np.eye(2)), "base", 3.0),
        (("SO", eye, [skew, skew, skew + np.diag([0.0, 0.125, 0.0]), eye]), 2, 0.25),
        (("SL", np.eye(2), [np.zeros((2, 2)), np.diag([1.0, 0.0])]), 1, 1.0),
        (("GL", np.full((3, 3), np.inf)), "base", np.inf),
        (("GL", eye, [skew, np.diag([1.0, np.nan, 0.0])]), 1, np.inf),
    ]
    for args, where, residual in cases:
        with pytest.raises(JetValidationError) as err:
            JetElement(*args)
        assert err.value.where == where
        assert err.value.residual == pytest.approx(residual)
    with pytest.raises(SingularMatrix) as err:
        JetElement("GL", np.zeros((3, 3)))
    assert not isinstance(err.value, JetValidationError)
    doc = {"group": "SO3", "base": shear.tolist(), "slots": []}
    with pytest.raises(ConfigError, match=r"^jet document: base is not in SO\(3\)"):
        jet_from_doc(doc)


def test_jet_properties_and_immutability():
    j = unit_jet("SO", 3, 2)
    assert j.dim == 3 and j.order == 2 and j.kind == "tangent"
    assert unit_jet("SO", 3, 3, kind="iterated").order == 3
    assert not j.base.flags.writeable
    assert not j.slots.flags.writeable
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    replaced = j.replace_slots([skew, 2 * skew])
    np.testing.assert_allclose(replaced.slots[1], 2 * skew)
    with pytest.raises(ValueError, match="slot 0"):
        j.replace_slots([np.eye(3), skew])


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_base_inverse_is_formed_once_read_only_and_exact():
    j = random_jet("GL", 3, 2, rng=np.random.default_rng(40))
    assert j._inv is None  # nothing is formed before a caller needs it
    inv = j._base_inverse()
    assert j._base_inverse() is inv and j._inv is inv
    assert not inv.flags.writeable
    with pytest.raises(ValueError):
        inv[0, 0] = 1.0
    assert _same_bits(inv, np.linalg.inv(j.base))


def test_base_inverse_is_no_part_of_equality_repr_or_replace():
    fields = {f.name: f for f in dataclasses.fields(JetElement)}
    cached = fields["_inv"]
    assert not (cached.init or cached.compare or cached.repr)
    j = random_jet("SO", 3, 2, rng=np.random.default_rng(41))
    twin = copy.copy(j)  # the same arrays, no inverse yet
    j._base_inverse()
    assert twin._inv is None and j == twin
    assert repr(j) == repr(twin) and "_inv" not in repr(j)
    other = random_jet("SO", 3, 2, rng=np.random.default_rng(42)).base
    moved = dataclasses.replace(j, base=other)
    assert moved._inv is None
    assert _same_bits(moved._base_inverse(), np.linalg.inv(other))


def test_jets_over_the_same_base_share_its_inverse(monkeypatch):
    formed = []
    inverse = jets._inverse
    monkeypatch.setattr(jets, "_inverse", lambda g: formed.append(g) or inverse(g))
    j = random_jet("GL", 3, 3, rng=np.random.default_rng(45))
    assert tn_to_iterated(j)._inv is None and j.replace_slots(j.slots)._inv is None
    inv = j._base_inverse()
    for other in (tn_to_iterated(j), j.replace_slots(2.0 * j.slots)):
        assert other._inv is inv and _same_bits(other.base, j.base)
    # a fresh jet's factorization forms its base inverse once: q and the
    # round trip through tn_to_iterated(t) both conjugate by it
    i = random_jet("GL", 3, 3, kind="iterated", rng=np.random.default_rng(46))
    formed.clear()
    q, t = iterated_factorize(3, i)
    assert len(formed) == 1 and t._inv is i._inv
    assert _same_bits(i._inv, np.linalg.inv(i.base))


@pytest.mark.parametrize("kind", ["tangent", "iterated"])
def test_a_cached_inverse_gives_the_bits_of_a_fresh_one(kind):
    mul, inv = (tn_multiply, tn_inverse) if kind == "tangent" else (iterated_multiply,
                                                                    iterated_inverse)
    rng = np.random.default_rng(43)
    for group, dim in (("SO", 3), ("SL", 2), ("GL", 3)):
        for n in (1, 2, 3):
            a, b = (random_jet(group, dim, n, kind=kind, rng=rng) for _ in range(2))
            fresh_a, fresh_b = (JetElement(j.group, j.base, j.slots, kind=kind) for j in (a, b))
            a._base_inverse(), b._base_inverse()
            for got, want in ((mul(n, a, b), mul(n, fresh_a, fresh_b)),
                              (mul(n, a, b), mul(n, a, fresh_b)),
                              (inv(n, a), inv(n, fresh_a))):
                assert _same_bits(got.base, want.base) and _same_bits(got.slots, want.slots)
            if kind == "iterated":
                q, t = iterated_factorize(n, a)
                fresh_q, fresh_t = iterated_factorize(n, fresh_a)
                assert _same_bits(q, fresh_q) and _same_bits(t.slots, fresh_t.slots)


@pytest.mark.parametrize("group,dim", [("SO", 3), ("SL", 2), ("GL", 3)])
def test_plain_group_elements_validate_and_multiply(group, dim):
    # no slots: the slot check runs on an empty stack and passes
    rng = np.random.default_rng(44)
    a, b = (random_jet(group, dim, 0, rng=rng) for _ in range(2))
    plain = JetElement(group, a.base)
    assert plain.slots.shape == (0, dim, dim) and plain.order == 0
    prod = tn_multiply(0, plain, b)
    assert _same_bits(prod.base, a.base @ b.base) and prod.slots.shape == (0, dim, dim)
    inv = tn_inverse(0, plain)
    assert _same_bits(inv.base, np.linalg.inv(a.base))
    np.testing.assert_allclose(tn_multiply(0, plain, inv).base, np.eye(dim), atol=1e-12)
    assert iterated_multiply(0, JetElement(group, a.base, kind="iterated"),
                             JetElement(group, b.base, kind="iterated")).slots.shape[0] == 0


def test_validation_failures_keep_their_type_where_and_message():
    eye = np.eye(3)
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    shear = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    bump = np.diag([0.0, 1.0, 0.0])
    so = "is not in the Lie algebra of SO(3) to tol=1e-10"
    cases = [
        (("SO", shear), JetValidationError, "base",
         "base is not in SO(3) to tol=1e-10 (residual 0.5)"),
        (("SO", np.diag([1.0, 1.0, -1.0])), JetValidationError, "base",
         "base is not in SO(3) to tol=1e-10 (residual 2)"),
        (("SO", eye + np.diag([2e-10, 0.0], 1)), JetValidationError, "base",
         "base is not in SO(3) to tol=1e-10 (residual 2e-10)"),  # Gram test, det 1
        (("SL", 2.0 * np.eye(2)), JetValidationError, "base",
         "base is not in SL(2) to tol=1e-10 (residual 3)"),
        (("GL", eye, [], "tangent", -1.0), JetValidationError, "base",
         "base is not in GL(3) to tol=-1 (residual 0)"),
        (("SO", eye, [skew, skew + 0.125 * bump]), JetValidationError, 1,
         f"slot 1 {so} (residual 0.25)"),
        (("SO", eye, [1e6 * skew, 1e-3 * skew + 1e-10 * bump]), JetValidationError, 1,
         f"slot 1 {so} (residual 2e-10)"),
        (("SL", np.eye(2), [np.zeros((2, 2)), np.diag([1.0, 0.0])]), JetValidationError, 1,
         "slot 1 is not in the Lie algebra of SL(2) to tol=1e-10 (residual 1)"),
        (("GL", np.full((3, 3), np.inf)), JetValidationError, "base",
         "base has a non-finite entry"),
        (("SO", eye, [skew, np.full((3, 3), np.nan)]), JetValidationError, 1,
         "slot 1 has a non-finite entry"),
        (("GL", np.zeros((3, 3))), SingularMatrix, None, "base matrix is not invertible"),
    ]
    for args, kind, where, message in cases:
        with pytest.raises(ValueError) as err:
            JetElement(*args)
        assert type(err.value) is kind and str(err.value) == message
        assert getattr(err.value, "where", None) == where
    # the same checks pass just inside their thresholds
    JetElement("SO", eye + np.diag([6e-11, 0.0], 1))
    JetElement("SO", eye, [1e6 * skew + 2.5e-5 * bump, 1e-3 * skew + 2.5e-11 * bump])
    JetElement("GL", eye, [], tol=0.0)
    JetElement("SO", eye, [skew], tol=0.0)


def test_pair_checks_across_the_products():
    a = unit_jet("SO", 3, 2)
    with pytest.raises(GroupMismatch):
        tn_multiply(2, a, unit_jet("GL", 3, 2))
    with pytest.raises(DimensionError, match="sizes differ"):
        tn_multiply(2, unit_jet("GL", 3, 2), unit_jet("GL", 2, 2))
    with pytest.raises(ValueError, match="expected two"):
        tn_multiply(2, a, unit_jet("SO", 3, 2, kind="iterated"))
    with pytest.raises(DimensionError, match="expected order"):
        tn_multiply(3, a, a)
    with pytest.raises(DimensionError, match="tangent jet"):
        tn_inverse(2, unit_jet("SO", 3, 2, kind="iterated"))
    with pytest.raises(DimensionError, match="iterated jet"):
        iterated_inverse(2, a)


def test_group_and_algebra_residuals():
    theta = 0.3
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert group_residual("SO", rot) < 1e-15
    assert group_residual("SL", 2.0 * np.eye(2)) == pytest.approx(3.0)
    assert group_residual("GL", 7.0 * np.eye(2)) == 0.0
    skew = np.array([[0.0, 2.0], [-2.0, 0.0]])
    assert algebra_residual("SO", skew) == 0.0
    assert algebra_residual("SL", np.diag([1.0, -1.0])) == 0.0
    assert algebra_residual("SL", np.eye(2)) == pytest.approx(2.0)
    # a stack gives one residual per matrix, from the same formulas
    assert isinstance(group_residual("SO", rot), float)
    np.testing.assert_allclose(
        group_residual("SO", np.stack([rot, 2.0 * np.eye(3), np.diag([1.0, 1.0, -1.0])])),
        [0.0, 7.0, 2.0],
        atol=1e-15,
    )
    np.testing.assert_allclose(group_residual("SL", np.stack([np.eye(2), 2.0 * np.eye(2)])), [0.0, 3.0])
    np.testing.assert_array_equal(group_residual("GL", np.zeros((4, 2, 2))), np.zeros(4))
    np.testing.assert_array_equal(
        algebra_residual("SO", np.stack([skew, np.eye(2), np.zeros((2, 2))])), [0.0, 2.0, 0.0]
    )
    np.testing.assert_array_equal(
        algebra_residual("SL", np.stack([np.diag([1.0, -1.0]), np.eye(2)])), [0.0, 2.0]
    )
    assert algebra_residual("SO", np.empty((0, 2, 2))).shape == (0,)
    with pytest.raises(ValueError, match="unknown group"):
        group_residual("SP", np.eye(2))
    with pytest.raises(ValueError, match="unknown group"):
        algebra_residual("SP", np.eye(2))


def test_random_jets_land_on_their_manifolds():
    rng = np.random.default_rng(25)
    for group, dim in (("SO", 3), ("SL", 2), ("GL", 4)):
        j = random_jet(group, dim, 3, rng=rng)
        assert group_residual(group, j.base) <= j.tol
        for s in j.slots:
            assert algebra_residual(group, s) <= j.tol
        assert j.order == 3


# -- serialization --------------------------------------------------------------


@pytest.mark.parametrize(
    "group,dim,order,kind",
    [("SO", 3, 3, "tangent"), ("SL", 2, 2, "iterated"), ("GL", 2, 4, "tangent")],
)
def test_doc_round_trip(group, dim, order, kind):
    rng = np.random.default_rng(26)
    j = random_jet(group, dim, order, kind=kind, rng=rng)
    doc = jet_to_doc(j)
    assert doc["group"] == f"{group}{dim}"
    assert doc["kind"] == kind
    back = jet_from_doc(doc)
    assert back.group == group and back.kind == kind and back.order == order
    np.testing.assert_allclose(back.base, j.base)
    np.testing.assert_allclose(back.slots, j.slots)


def test_save_and_load(tmp_path):
    j = random_jet("SO", 3, 3, rng=np.random.default_rng(27))
    path = tmp_path / "jet.json"
    save_jet(j, path)
    back = load_jet(path)
    np.testing.assert_allclose(back.base, j.base)
    np.testing.assert_allclose(back.slots, j.slots)


def test_doc_errors(tmp_path):
    good = jet_to_doc(unit_jet("SO", 3, 2))
    with pytest.raises(ConfigError, match="bad group name"):
        jet_from_doc({**good, "group": "XY3"})
    with pytest.raises(ConfigError, match="bad group name"):
        jet_from_doc({**good, "group": "SO"})
    with pytest.raises(ConfigError, match="missing key"):
        jet_from_doc({"group": "SO3", "base": np.eye(3).tolist()})
    with pytest.raises(ConfigError, match="expects a 3x3"):
        jet_from_doc({**good, "base": np.eye(2).tolist()})
    with pytest.raises(ConfigError, match="must be an object"):
        jet_from_doc([1, 2])
    with pytest.raises(ConfigError, match="numeric"):
        jet_from_doc({**good, "base": [["a", 0, 0], [0, 1, 0], [0, 0, 1]]})
    with pytest.raises(ConfigError, match="numeric"):
        jet_from_doc({**good, "slots": [[["x"] * 3] * 3, good["slots"][1]]})
    with pytest.raises(ConfigError, match="numeric"):
        jet_from_doc({**good, "slots": 7})
    # well-formed documents that JetElement itself rejects
    with pytest.raises(ConfigError, match="unknown jet kind 'foo'"):
        jet_from_doc({**good, "kind": "foo"})
    with pytest.raises(ConfigError, match="base is not in SO\\(3\\)"):
        jet_from_doc({**good, "base": (2.0 * np.eye(3)).tolist()})
    with pytest.raises(ConfigError, match="slot 1 is not in the Lie algebra"):
        jet_from_doc({**good, "slots": [good["slots"][0], np.eye(3).tolist()]})
    with pytest.raises(ConfigError, match="not invertible"):
        jet_from_doc({**good, "group": "GL3", "base": np.zeros((3, 3)).tolist()})
    with pytest.raises(ConfigError, match="iterated jet needs"):
        jet_from_doc({**good, "kind": "iterated"})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="line"):
        load_jet(bad)
    with pytest.raises(ConfigError, match="no such file"):
        load_jet(tmp_path / "nope.json")
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="expected a JSON object"):
        load_jet(listy)

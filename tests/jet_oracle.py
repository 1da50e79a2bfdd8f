"""Jets as block matrices: the oracle for the jet group laws of jets.py.

An order-n iterated jet (x, X) of a d x d matrix group is a d x d matrix over
A_n = R[e_1..e_n]/(e_i^2).  Written in the basis of A_n's monomials e_B, B a
subset of {1..n} in binary order, it is the block upper-triangular matrix
block(n, x, X) of side 2^n d, so a jet product is a matrix product and a jet
inverse a matrix inverse.  Nothing here reads a set partition or the
library: the product formulas of jets.py come out of these matrices.

An order-n tangent jet (x, xi_1..xi_n) is the Taylor polynomial of a curve
g(t) with g(0) = x and g' = g xi, xi^(k-1)(0) = xi_k: a d x d matrix over
R[t]/(t^(n+1)), whose coefficients `taylor` reads off the slots.
"""

import math

import numpy as np


def lift(s):
    """L(s), the (2^k d)-square matrix of multiplication by sum_A s[A] e_A:
    `s` holds one d x d matrix per subset A of {1..k}, the empty one first,
    in binary order.  Block (B, C) is s[C - B] when B is a subset of C, else 0."""
    if len(s) == 1:
        return np.asarray(s[0], dtype=float)
    low, high = lift(s[: len(s) // 2]), lift(s[len(s) // 2 :])  # without k, then with k
    return np.block([[low, high], [np.zeros_like(low), low]])


def block(n, base, slots):
    """M_n(x, X) = [[M, M L(X+)], [0, M]], M = M_(n-1)(x, X-) and M_0 = x.
    X- is the first 2^(n-1) - 1 slots, those of the subsets without n; X+ is
    the slot of {n}, then the slot of each {n} | B."""
    if n == 0:
        return np.asarray(base, dtype=float)
    m = block(n - 1, base, slots[: 2 ** (n - 1) - 1])
    return np.block([[m, m @ lift(slots[2 ** (n - 1) - 1 :])], [np.zeros_like(m), m]])


def taylor(base, slots):
    """The t^k coefficients x^(k)/k!, k = 0..n, of a T^nG jet's curve:
    x^(0) = x and x^(k) = sum_(i<k) C(k-1, i) x^(i) xi_(k-i), Leibniz's rule
    for g^(k) = (g xi)^(k-1)."""
    derivs = [np.asarray(base, dtype=float)]
    for k in range(1, len(slots) + 1):
        derivs.append(sum(math.comb(k - 1, i) * derivs[i] @ slots[k - 1 - i] for i in range(k)))
    return [x / math.factorial(k) for k, x in enumerate(derivs)]

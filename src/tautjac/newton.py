"""Conversion between special-divisor classes and p-q differences.

A length-g vector w = (w_1, ..., w_g) is read as the elementary
symmetric data of the g roots of

    t^g - w_1 t^{g-1} + ... + (-1)^g w_g = 0,

and d_k = p_k - q_k = -P_k / k! where P_k is the k-th power sum of
those roots, computed by Newton's identities

    P_k = w_1 P_{k-1} - w_2 P_{k-2} + ... + (-1)^{k-1} k w_k.

Both directions are triangular (w_k depends only on d_1..d_k and vice
versa), so the conversion is exact over any commutative Q-algebra:
entries may be ints, Fractions, or polynomials.
"""

from fractions import Fraction
from math import factorial

__all__ = ["w_to_d", "d_to_w"]


def _newton_sum(acc, w, ps, k):
    """acc + sum_{i<k} (-1)^{i-1} w_i P_{k-i}, where ps[j-1] = P_j."""
    for i in range(1, k):
        term = w[i - 1] * ps[k - i - 1]
        acc = acc + term if i % 2 else acc - term
    return acc


def _power_sums(w):
    ps = []  # ps[k-1] = P_k
    for k in range(1, len(w) + 1):
        ps.append(_newton_sum(k * w[k - 1] if k % 2 else -k * w[k - 1], w, ps, k))
    return ps


def w_to_d(w):
    """d_k = p_k - q_k from the divisor classes; d_k = -P_k / k!."""
    return [
        pk * Fraction(-1, factorial(k))
        for k, pk in enumerate(_power_sums(list(w)), start=1)
    ]


def d_to_w(d):
    """Inverse of :func:`w_to_d`; exact round trip."""
    d = list(d)
    ps = [dk * (-factorial(k)) for k, dk in enumerate(d, start=1)]
    w = []
    for k in range(1, len(d) + 1):  # (-1)^{k-1} k w_k = P_k - the Newton sum
        w.append(_newton_sum(-ps[k - 1], w, ps, k) * Fraction(-1 if k % 2 else 1, k))
    return w

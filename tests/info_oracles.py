"""Brute-force information oracles shared by the tests.

The oracles loop over table cells one at a time and share no code with the
batched kernels in ``bcorder.channels``, so agreement between the two is
evidence rather than a tautology.  ``decomposition`` turns a joint table
into the form the kernels take, and ``chain_table`` turns a decomposition
and a channel back into the (U, X, Y) table the oracles read.
``numpy_entropy`` is the entropy kernel's former one-line form, kept
frozen as the reference for its summation order.
"""

import numpy as np

from bcorder.classify import AuxDecomposition
from bcorder.probcore import CELL_FLOOR, Dist


def brute_mi(table):
    """I(A;B) of a joint table by a direct double sum over its cells."""
    table = np.asarray(table, dtype=float)
    pa = table.sum(axis=1)
    pb = table.sum(axis=0)
    total = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            if table[i, j] > 1e-15:
                total += table[i, j] * np.log2(table[i, j] / (pa[i] * pb[j]))
    return total


def numpy_entropy(v, axis=-1):
    """0.0 - the masked v log2 v summed by numpy's own ``sum`` over ``axis``, in bits."""
    return 0.0 - (np.where(v > CELL_FLOOR, v * np.log2(np.maximum(v, CELL_FLOOR)), 0.0)).sum(axis=axis)


def brute_conditional_mi(t):
    """I(X;Y|U) of a (U, X, Y) table: the U-weighted per-slice brute_mi."""
    t = np.asarray(t, dtype=float)
    total = 0.0
    for u in range(t.shape[0]):
        mass = t[u].sum()
        if mass > 1e-15:
            total += mass * brute_mi(t[u] / mass)
    return total


def decomposition(joint):
    """The auxiliary decomposition p(u), p(x|u) of a (U, X) joint table."""
    joint = np.asarray(joint, dtype=float)
    pu = joint.sum(axis=1)
    return AuxDecomposition(Dist(pu), joint / pu[:, None])


def chain_table(dec, chan):
    """The (U, X, Y) joint table of an auxiliary decomposition through a channel."""
    return dec.pu.probs[:, None, None] * dec.px_given_u[:, :, None] * chan.rows[None, :, :]


def brute_bayes_success(rows, lam):
    """sum_y max((1 - lam) r0_y, lam r1_y) of a binary-input channel's rows, output by output.

    It is the success probability of the best test between the two inputs
    under the prior (1 - lam, lam), one minus its Bayes risk.
    """
    total = 0.0
    for r0, r1 in zip(rows[0], rows[1]):
        total += max((1.0 - lam) * float(r0), lam * float(r1))
    return total

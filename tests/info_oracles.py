"""Brute-force information oracles shared by the tests.

The oracles loop over table cells one at a time and share no code with the
batched kernels in ``bcorder.channels``, so agreement between the two is
evidence rather than a tautology.  ``decomposition`` turns a joint table
into the form the kernels take, and ``chain_table`` turns a decomposition
and a channel back into the (U, X, Y) table the oracles read.
``numpy_entropy`` is the entropy kernel's former one-line form, kept
frozen as the reference for its summation order.  ``brute_symmetry_generator``
enumerates output permutations for the cyclic-symmetry search, and
``near_cyclic_rows`` and ``nine_output_cyclic_rows`` are two channels at that
search's edges.
"""

import itertools

import numpy as np

from bcorder.classify import AuxDecomposition
from bcorder.probcore import CELL_FLOOR, SIMPLEX_TOL, Dist


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


def brute_symmetry_generator(rows):
    """The first permutation, in itertools order, whose powers meet every shift identity within SIMPLEX_TOL.

    Shift j by the j-th power pi^j of a generator pi must satisfy
    rows[(i + j) % m][pi^j(y)] = rows[i][y] for every input i and output y;
    the check loops over the cells one at a time.  None if no permutation
    passes.
    """
    rows = np.asarray(rows, dtype=float)
    m, n = rows.shape
    for gen in itertools.permutations(range(n)):
        power = tuple(range(n))
        for j in range(1, m + 1):
            power = tuple(gen[k] for k in power)
            if any(
                abs(rows[(i + j) % m][power[y]] - rows[i][y]) > SIMPLEX_TOL for i in range(m) for y in range(n)
            ):
                break
        else:
            return gen
    return None


def near_cyclic_rows(eps=0.9e-12):
    """A 4 x 4 channel that generator (1, 2, 3, 0) fits one step at a time but not over two steps.

    Row k + 1 is row k plus an error e_k, rolled by one output, with
    e = (f, roll(f, 1), -roll(f, 2)) and f = (eps, -eps, 0, 0): each
    one-step identity is off by at most eps, shift 2 by 2 eps.
    """
    f = np.array([eps, -eps, 0.0, 0.0])
    rows = [np.array([0.4, 0.3, 0.2, 0.1])]
    for e in (f, np.roll(f, 1), -np.roll(f, 2)):
        rows.append(np.roll(rows[-1] + e, 1))
    return np.array(rows)


def nine_output_cyclic_rows():
    """A 3-input, 9-output channel whose only cyclic symmetry is generator (3, 4, 5, 6, 7, 8, 0, 1, 2)."""
    base = np.arange(1.0, 10.0) / 45.0
    return np.array([np.roll(base, 3 * i) for i in range(3)])

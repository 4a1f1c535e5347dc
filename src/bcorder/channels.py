"""Discrete memoryless channels and their cyclic symmetries.

A channel is a row-stochastic matrix from a finite input alphabet to labeled
outputs.  Besides the standard builders (binary symmetric, binary erasure,
cascades) this module detects cyclic input symmetry: a channel is c-symmetric
when shifting the input by one step can be undone by a fixed permutation of
the outputs.  For such channels the shift-averaging construction
``symmetrize`` replaces an arbitrary auxiliary decomposition by one with an
exactly uniform input marginal while preserving every per-shift information
quantity, which is what makes the uniform input a sufficient class for
ordering tests.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .probcore import (
    CELL_FLOOR,
    SIMPLEX_TOL,
    Dist,
    DomainError,
    entropy_vec,
    in_range,
    stochastic_array,
)

MAX_SYMMETRY_OUTPUTS = 8  # permutation search is exhaustive; 8! = 40320


class ChannelFormatError(ValueError):
    """A channel description (file or dict) is malformed."""


class NotCSymmetricError(ValueError):
    """An operation required a c-symmetric channel and the check failed."""


@dataclass(frozen=True, eq=False)
class Dmc:
    """A discrete memoryless channel: row i is the output law given input i.

    Rows must each sum to 1 within SIMPLEX_TOL with nonnegative entries.
    ``output_labels`` names the columns.
    """

    rows: np.ndarray
    output_labels: tuple[str, ...]

    def __post_init__(self):
        shape = np.shape(self.rows)
        if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
            raise DomainError("Dmc expects a 2-d row-stochastic matrix")
        arr = stochastic_array(self.rows, "Dmc")
        labels = tuple(str(s) for s in self.output_labels)
        if len(labels) != arr.shape[1]:
            raise DomainError("output label count does not match column count")
        object.__setattr__(self, "rows", arr)
        object.__setattr__(self, "output_labels", labels)

    @property
    def input_size(self) -> int:
        return int(self.rows.shape[0])

    @property
    def output_size(self) -> int:
        return int(self.rows.shape[1])

    def row(self, i: int) -> Dist:
        return Dist(self.rows[i])

    @classmethod
    def normalized(cls, rows, output_labels) -> "Dmc":
        """Explicitly renormalize each row before constructing."""
        arr = np.asarray(rows, dtype=float)
        sums = arr.sum(axis=1, keepdims=True)
        if np.any(sums <= 0) or not np.all(np.isfinite(sums)):
            raise DomainError("cannot normalize rows with nonpositive mass")
        return cls(arr / sums, tuple(output_labels))


_BSC_KEEP = np.eye(2, dtype=bool)
_BEC_KEEP = np.array([[True, False, False], [False, False, True]])
_BEC_ERASE = np.array([[False, True, False], [False, True, False]])


def bsc_rows(p) -> np.ndarray:
    """Rows of BSC(p), (..., 2, 2) for an array of crossovers in [0, 1/2]."""
    if not in_range(p, 0.0, 0.5):
        raise DomainError("bsc crossover must lie in [0, 1/2]")
    p = np.clip(p, 0.0, 0.5)[..., None, None]
    return np.where(_BSC_KEEP, 1.0 - p, p)


def bec_rows(e) -> np.ndarray:
    """Rows of BEC(e), outputs 0, ?, 1: (..., 2, 3) for an array of erasure rates in [0, 1]."""
    if not in_range(e, 0.0, 1.0):
        raise DomainError("bec erasure rate must lie in [0, 1]")
    e = np.clip(e, 0.0, 1.0)[..., None, None]
    return np.where(_BEC_KEEP, 1.0 - e, np.where(_BEC_ERASE, e, 0.0))


def bsc(p: float) -> Dmc:
    """Binary symmetric channel with crossover p, 0 <= p <= 1/2."""
    return Dmc(bsc_rows(p), ("0", "1"))


def bec(e: float) -> Dmc:
    """Binary erasure channel with erasure rate e; outputs ordered 0, ?, 1."""
    return Dmc(bec_rows(e), ("0", "?", "1"))


def cascade(a: Dmc, b: Dmc) -> Dmc:
    """Feed the outputs of ``a`` into ``b``.  Requires matching alphabets."""
    if a.output_size != b.input_size:
        raise DomainError(
            f"cascade mismatch: {a.output_size} outputs into {b.input_size} inputs"
        )
    return Dmc(a.rows @ b.rows, b.output_labels)


def channel_mi(c: Dmc, px: Dist) -> float:
    """I(X;Y) in bits for input law px through channel c."""
    if px.size != c.input_size:
        raise DomainError("input distribution size does not match channel")
    return float(mi_batch(c.rows, px.probs[None, :])[0])


def mi_batch(rows: np.ndarray, pxs: np.ndarray) -> np.ndarray:
    """I(X;Y) for a (..., N, m) stack of input laws through (..., m, n) channel rows.

    Leading axes broadcast: (m, n) rows and (N, m) laws give N values, and
    a (P, m, n) stack of channels with one (N, m) grid gives a (P, N) table.
    """
    return mi_from_entropies(rows, entropy_vec(rows, axis=-1), pxs)


def mi_from_entropies(rows: np.ndarray, h_rows: np.ndarray, pxs: np.ndarray) -> np.ndarray:
    """``mi_batch`` given the rows' entropies H(Y | X = x), for callers that reuse a channel."""
    py = pxs @ rows
    return np.maximum(0.0, entropy_vec(py, axis=-1) - (pxs @ h_rows[..., None])[..., 0])


def aux_mi_batch(rows: np.ndarray, weights: np.ndarray, conds: np.ndarray) -> np.ndarray:
    """I(U;Y) for a batch of auxiliary decompositions through channel rows.

    ``weights`` is (..., N, k) with each row a law on U; ``conds`` is
    (..., N, k, m) with conds[..., n, u] the law of X given U = u.  Leading
    axes broadcast against those of the (..., m, n) ``rows``, so a (P, m, n)
    stack of channels takes (P, N, k) weights, one batch per channel.
    """
    ry = conds @ rows[..., None, :, :]     # (..., N, k, n) output law per u
    py = np.einsum("...k,...kj->...j", weights, ry)
    h_given_u = np.einsum("...k,...k->...", weights, entropy_vec(ry, axis=-1))
    return np.maximum(0.0, entropy_vec(py, axis=-1) - h_given_u)


@dataclass(frozen=True, eq=False)
class CSymmetryWitness:
    """A one-step output permutation certifying cyclic input symmetry.

    ``generator`` is the permutation pi with
    P(Y = pi(y) | X = i+1 mod m) = P(Y = y | X = i) for all i, y.
    Powers of the generator certify every shift amount.
    """

    channel: Dmc
    generator: tuple[int, ...]

    def permutation(self, j: int) -> tuple[int, ...]:
        """The output permutation matching an input shift by j steps."""
        n = len(self.generator)
        perm = tuple(range(n))
        step = self.generator
        for _ in range(j % max(self.channel.input_size, 1)):
            perm = tuple(step[k] for k in perm)
        return perm

    def validate(self, tol: float = SIMPLEX_TOL) -> None:
        """Recheck the full family of shift identities; raise on failure."""
        rows = self.channel.rows
        m = self.channel.input_size
        idx = np.arange(m)
        for j in range(m):
            perm = np.array(self.permutation(j))
            shifted = rows[(idx + j) % m][:, perm]
            if float(np.max(np.abs(shifted - rows))) > tol:
                raise NotCSymmetricError(
                    f"witness fails the shift identity at shift {j}"
                )


def detect_c_symmetry(c: Dmc) -> CSymmetryWitness | None:
    """Search for a one-step symmetry permutation; None if there is none.

    The search is exhaustive over output permutations and returns the
    lexicographically smallest valid generator.  It only looks for
    single-generator cyclic families, which covers the symmetric binary
    channels and their cascades.
    """
    if c.input_size < 2:
        raise DomainError("c-symmetry needs an input alphabet of size >= 2")
    n = c.output_size
    if n > MAX_SYMMETRY_OUTPUTS:
        raise DomainError(
            f"c-symmetry search supports at most {MAX_SYMMETRY_OUTPUTS} outputs"
        )
    rows = c.rows
    shifted_rows = np.roll(rows, -1, axis=0)  # row i -> original row i+1
    for perm in itertools.permutations(range(n)):
        # need rows[(i+1) % m][perm[y]] == rows[i][y]
        if float(np.max(np.abs(shifted_rows[:, list(perm)] - rows))) <= SIMPLEX_TOL:
            witness = CSymmetryWitness(c, tuple(perm))
            witness.validate()
            return witness
    return None


@dataclass(frozen=True, eq=False)
class SymmetrizedJoint:
    """Output of ``symmetrize``: a (shift, aux) pair as the new auxiliary.

    ``joint`` is a read-only (U~, X) table where U~ = (shift j, original u)
    is flattened shift-major, so index j * base_aux_size + u.  The X
    marginal is exactly uniform by construction.
    """

    joint: np.ndarray
    num_shifts: int
    base_aux_size: int

    def shift_marginal(self) -> Dist:
        t = self.joint.reshape(self.num_shifts, self.base_aux_size, -1)
        return Dist(t.sum(axis=(1, 2)))

    def conditional_given_shift(self, j: int) -> np.ndarray:
        """The read-only (U, X) joint conditioned on shift value j."""
        block = self.joint.reshape(self.num_shifts, self.base_aux_size, -1)[j]
        mass = float(block.sum())
        if mass <= CELL_FLOOR:
            raise DomainError("shift value has no mass")
        out = block / mass
        out.setflags(write=False)
        return out


def symmetrize(
    joint,
    witness_1: CSymmetryWitness,
    witness_2: CSymmetryWitness,
) -> SymmetrizedJoint:
    """Average an auxiliary decomposition over all cyclic input shifts.

    ``joint`` is a (U, X) table summing to 1.  Both witnesses must certify
    c-symmetry of their channels on the same input alphabet as X.  The
    result uses the pair (shift, U) as its auxiliary; its X marginal is
    uniform, and for each receiver the contained per-shift joints carry
    exactly the same conditional information as the original decomposition.
    """
    if np.ndim(joint) != 2 or np.size(joint) == 0:
        raise DomainError("symmetrize expects a 2-d (U, X) joint table")
    table = stochastic_array(joint, "joint", axis=None)
    nu, m = table.shape
    for w in (witness_1, witness_2):
        if w.channel.input_size != m:
            raise DomainError("witness channel input size does not match joint")
        w.validate()
    # new aux (j, u) with X = original X shifted back by j
    sym = np.concatenate([np.roll(table, -j, axis=1) for j in range(m)], axis=0) / m
    if float(np.max(np.abs(sym.sum(axis=0) - 1.0 / m))) > SIMPLEX_TOL:
        raise DomainError("symmetrized X marginal failed to be uniform")
    sym.setflags(write=False)
    return SymmetrizedJoint(sym, num_shifts=m, base_aux_size=nu)


def split_input_pair() -> tuple[Dmc, Dmc]:
    """A 4-ary input, binary output pair with no universal receiver ordering.

    Both receivers see a single bit.  Receiver 1 reads inputs 0, 1 cleanly
    and gets a fair coin on inputs 2, 3; receiver 2 sees crossover 0.1 on
    the 0, 1 half and crossover 0.4 on the 2, 3 half (2 playing the role of
    0).  Which receiver is better depends on where the input mass sits, so
    only class-restricted orderings can hold.
    """
    y1 = Dmc(
        np.array(
            [
                [1.0, 0.0],
                [0.0, 1.0],
                [0.5, 0.5],
                [0.5, 0.5],
            ]
        ),
        ("0", "1"),
    )
    y2 = Dmc(
        np.array(
            [
                [0.9, 0.1],
                [0.1, 0.9],
                [0.6, 0.4],
                [0.4, 0.6],
            ]
        ),
        ("0", "1"),
    )
    return y1, y2


def channel_to_dict(c: Dmc) -> dict:
    return {
        "input_size": c.input_size,
        "output_labels": list(c.output_labels),
        "rows": [[float(v) for v in row] for row in c.rows],
    }


def channel_from_dict(obj: dict, normalize: bool = False) -> Dmc:
    if not isinstance(obj, dict):
        raise ChannelFormatError("channel description must be a JSON object")
    try:
        input_size = obj["input_size"]
        labels = obj["output_labels"]
        rows = obj["rows"]
    except (KeyError, TypeError) as exc:
        raise ChannelFormatError(f"missing channel field: {exc}") from exc
    if not isinstance(labels, list):
        raise ChannelFormatError("output_labels must be a list")
    if not isinstance(rows, list) or len(rows) != input_size:
        raise ChannelFormatError("rows count does not match input_size")
    try:
        arr = np.asarray(rows, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ChannelFormatError("rows must be numeric") from exc
    if arr.ndim != 2:
        raise ChannelFormatError("rows must form a rectangular matrix")
    try:
        if normalize:
            return Dmc.normalized(arr, labels)
        return Dmc(arr, tuple(str(s) for s in labels))
    except DomainError as exc:
        raise ChannelFormatError(str(exc)) from exc


def load_channel(path: str, normalize: bool = False) -> Dmc:
    """Read a channel from a JSON file; raises ChannelFormatError if bad."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ChannelFormatError(f"cannot read channel file {path!r}: {exc}") from exc
    return channel_from_dict(obj, normalize=normalize)


def save_channel(c: Dmc, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_dict(c), fh, indent=2)
        fh.write("\n")

"""Realignment rearrangements of density matrices and their moment sums.

The bipartite realignment rearranges a (m*n) x (m*n) density matrix into
an m^2 x n^2 rectangle whose entries are the same numbers in a different
layout: entry [(i,j),(k,l)] of the output is rho[(i,k),(j,l)], with the
bra index major in each composite pair.  Separable states keep the trace
norm of this rectangle at or below 1, and its singular-value power sums
T1 and T2 (T_k = sum_i sigma_i^(2k)) feed the moment criteria in
:mod:`remoments.criteria`.

The partial variant realigns only a chosen pair of party groups and
carries every untouched party along rows and columns unchanged; with two
parties and the groups "1|2" it reduces exactly to the bipartite map.
Every party-index rearrangement, the partial transpose too, is one call of
:func:`permute_parties`, a pure index permutation: the bipartite map
applied twice on equal dims returns the input bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import gram, gram_moments
from .states import DensityMatrix


@dataclass(frozen=True)
class RealignSpec:
    """Grouping "group1 | group2" of 1-based party indices.

    The two groups name the parties whose indices get rearranged; parties
    in neither group are left untouched.  Groups must be nonempty, repeat
    no party and be disjoint: a spec checks that once, when it is built.
    """

    group1: tuple[int, ...]
    group2: tuple[int, ...]

    @staticmethod
    def parse(text: str) -> "RealignSpec":
        """Parse compact split syntax: "1|2", "12|3", "1|23"."""
        parts = text.strip().split("|")
        if len(parts) != 2:
            raise ValueError(f"split {text!r} must have exactly one '|'")
        groups = []
        for part in parts:
            if not part or not all(c in "123456789" for c in part):  # not str.isdigit: it takes "²" and "１"
                raise ValueError(f"split {text!r} must list parties as digits 1-9")
            groups.append(tuple(int(c) for c in part))
        return RealignSpec(group1=groups[0], group2=groups[1])

    def __post_init__(self) -> None:
        if not self.group1 or not self.group2:
            raise ValueError("both groups must be nonempty")
        if len(set(self.group1)) != len(self.group1) or len(set(self.group2)) != len(self.group2):
            raise ValueError("a group may not repeat a party")
        if set(self.group1) & set(self.group2):
            raise ValueError(f"groups {self.group1} and {self.group2} overlap")

    def validate_for(self, n_parties: int) -> None:
        """Check the groups' parties against a state with `n_parties` parties."""
        for p in self.group1 + self.group2:
            if not (1 <= p <= n_parties):
                raise ValueError(f"party {p} out of range for {n_parties} parties")

    def untouched(self, n_parties: int) -> tuple[int, ...]:
        """Parties in neither group, ascending."""
        used = set(self.group1) | set(self.group2)
        return tuple(p for p in range(1, n_parties + 1) if p not in used)

    def __str__(self) -> str:
        return "".join(str(p) for p in self.group1) + "|" + "".join(str(p) for p in self.group2)


def permute_parties(matrix: np.ndarray, dims: tuple[int, ...], row_axes: list[int],
                    col_axes: list[int]) -> np.ndarray:
    """`matrix`, or each matrix of a (..., D, D) stack over `dims`, with its 2n party axes rearranged.

    Axes 0..n-1 are the parties' bras, n..2n-1 their kets; rows run over `row_axes`, columns over
    `col_axes`, earlier axes major.  One transpose, copied into a fresh C-contiguous complex array.
    """
    lead = matrix.shape[:-2]
    k = len(lead)
    view = matrix.reshape(lead + dims + dims).transpose([*range(k), *(k + a for a in row_axes + col_axes)])
    out = np.empty(view.shape, complex)
    np.copyto(out, view)
    rows = k + len(row_axes)
    return out.reshape(lead + (math.prod(view.shape[k:rows]), math.prod(view.shape[rows:])))


def realign_array(matrix: np.ndarray, dims: tuple[int, ...], spec: RealignSpec) -> np.ndarray:
    """The :func:`permute_parties` call behind :func:`realign_partial`, on raw arrays."""
    n = len(dims)
    spec.validate_for(n)
    g1 = [p - 1 for p in spec.group1]
    g2 = [p - 1 for p in spec.group2]
    comp = [p - 1 for p in spec.untouched(n)]
    return permute_parties(matrix, dims, g1 + [n + p for p in g1] + comp,
                           g2 + [n + p for p in g2] + [n + p for p in comp])


def transpose_party(matrix: np.ndarray, dims: tuple[int, ...], party: int) -> np.ndarray:
    """`partial_transpose` on raw arrays: :func:`permute_parties` swaps `party`'s bra and ket axes."""
    n = len(dims)
    if not (1 <= party <= n):
        raise ValueError(f"party {party!r} out of range for {n} parties")
    axes = list(range(2 * n))
    axes[party - 1], axes[n + party - 1] = axes[n + party - 1], axes[party - 1]
    return permute_parties(matrix, dims, axes[:n], axes[n:])


def realign_bipartite(dm: DensityMatrix) -> np.ndarray:
    """Realign a two-party state into its m^2 x n^2 rectangle.

    Output entry [(i,j),(k,l)] = rho[(i,k),(j,l)]: rows pair the party-1
    bra and ket indices (bra major), columns pair the party-2 bra and ket
    (bra major).  A pure product state maps to a rank-1 rectangle; the
    map applied twice on equal dims is the identity.
    """
    if len(dm.dims) != 2:
        raise ValueError(f"realign_bipartite requires exactly two parties, got dims {dm.dims}")
    return realign_partial(dm, RealignSpec((1,), (2,)))


def realign_partial(dm: DensityMatrix, spec: RealignSpec) -> np.ndarray:
    """Realign the spec's two party groups, leaving the rest untouched.

    Rows carry the (bra, ket) multi-index of group1 followed by the bra
    index of the untouched parties; columns carry the (bra, ket)
    multi-index of group2 followed by the untouched ket index.  Within
    every multi-index earlier parties are major, and the realigned block
    index is major over the untouched index.  The output has shape
    (d1^2 * dC) x (d2^2 * dC) and reduces exactly to
    :func:`realign_bipartite` for two parties split "1|2".
    """
    return realign_array(dm.matrix, dm.dims, spec)


def moments(realigned: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T1 and T2 of one realigned matrix, or of each matrix of a stack: :func:`gram_moments` of its :func:`gram`.

    T1 equals trace(rho^2) for any density matrix (realignment keeps the Frobenius norm); T2 <= T1^2.
    """
    return gram_moments(gram(realigned))


def enumerate_splits(n_parties: int) -> list[RealignSpec]:
    """Every unordered split of disjoint nonempty party groups.

    Swapping the two groups only transposes the realigned rectangle up to
    index relabeling, so each pair is listed once with the group holding
    the smallest party first.  Parties outside both groups are untouched.
    """
    if n_parties < 2:
        raise ValueError(f"need at least two parties, got {n_parties!r}")
    splits = []
    for mask1 in range(1, 1 << n_parties):
        for mask2 in range(1, 1 << n_parties):
            if mask1 & mask2:
                continue
            g1 = tuple(p + 1 for p in range(n_parties) if (mask1 >> p) & 1)
            g2 = tuple(p + 1 for p in range(n_parties) if (mask2 >> p) & 1)
            if min(g1) < min(g2):
                splits.append(RealignSpec(group1=g1, group2=g2))
    return splits

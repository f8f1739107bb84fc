"""Majorization decisions and constructive witnesses.

A vector y majorizes x (x < y) when both have equal entry sums and every
k-prefix of x sorted descending is bounded by the matching prefix of y.
Equivalently x = S y for a doubly stochastic S; this module both decides the
prefix test and builds explicit witnesses: a chain of T-transforms (convex
combinations of the identity and one transposition) mapping y to x, and the
Birkhoff decomposition of a doubly stochastic matrix into permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import DimensionMismatchError, to_json

__all__ = [
    "MajorizationVerdict",
    "majorizes",
    "TTransform",
    "TransferChain",
    "transfer_chain",
    "BirkhoffDecomposition",
    "birkhoff",
    "NotDoublyStochasticError",
    "shannon_entropy",
]


class NotDoublyStochasticError(ValueError):
    pass


@dataclass(frozen=True)
class MajorizationVerdict:
    """Outcome of the sorted-prefix test for "y majorizes x".

    ``prefix_deficits[k]`` is (sum of k+1 largest of y) - (sum of k+1
    largest of x); the verdict holds when every deficit clears -tol and the
    total sums agree within tol.  ``sum_gap`` is sum(x) - sum(y).
    """

    holds: bool
    prefix_deficits: tuple
    sum_gap: float
    tol: float

    def __bool__(self) -> bool:
        return self.holds

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "prefix_deficits": to_json(self.prefix_deficits),
            "sum_gap": to_json(self.sum_gap),
            "tol": self.tol,
        }


def majorizes(y, x, tol: float = 1e-9) -> MajorizationVerdict:
    """Decide whether y majorizes x (x < y), within tol."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise DimensionMismatchError(f"vector shapes {y.shape} vs {x.shape}")
    y_desc = np.sort(y)[::-1]
    x_desc = np.sort(x)[::-1]
    deficits = np.cumsum(y_desc) - np.cumsum(x_desc)
    sum_gap = float(x.sum() - y.sum())
    holds = bool(deficits.min() >= -tol and abs(sum_gap) <= tol)
    return MajorizationVerdict(
        holds=holds,
        prefix_deficits=tuple(float(d) for d in deficits),
        sum_gap=sum_gap,
        tol=tol,
    )


@dataclass(frozen=True)
class TTransform:
    """v -> v' with v'_j = lam*v_j + (1-lam)*v_k and symmetrically for k.

    lam = 1 is the identity, lam = 0 swaps the pair; every value in between
    is a doubly stochastic averaging of the two coordinates.
    """

    lam: float
    j: int
    k: int

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = np.array(v, dtype=float)
        vj, vk = out[self.j], out[self.k]
        out[self.j] = self.lam * vj + (1.0 - self.lam) * vk
        out[self.k] = (1.0 - self.lam) * vj + self.lam * vk
        return out

    def matrix(self, n: int) -> np.ndarray:
        m = np.eye(n)
        m[self.j, self.j] = m[self.k, self.k] = self.lam
        m[self.j, self.k] = m[self.k, self.j] = 1.0 - self.lam
        return m


@dataclass(frozen=True)
class TransferChain:
    """Ordered T-transforms whose composition maps a source y onto x."""

    transforms: tuple

    def __len__(self):
        return len(self.transforms)

    def __iter__(self):
        return iter(self.transforms)

    def apply(self, v) -> np.ndarray:
        out = np.asarray(v, dtype=float)
        for transform in self.transforms:
            out = transform.apply(out)
        return out

    def matrix(self, n: int) -> np.ndarray:
        """The composed doubly stochastic matrix S with S y = x."""
        total = np.eye(n)
        for transform in self.transforms:
            total = transform.matrix(n) @ total
        return total

    def to_json_dict(self) -> dict:
        return {
            "transforms": [
                {"lambda": t.lam, "j": t.j, "k": t.k} for t in self.transforms
            ]
        }


def _sorted_chain(w: np.ndarray, t: np.ndarray) -> list:
    """T-transform chain from descending w onto descending t (same sums).

    Walks positions left to right.  At position p the surplus
    delta = w[p] - t[p] is nonnegative (prefix domination keeps it so) and
    is shifted in one transform to the first later position k whose current
    value is at most t[p]; such a k always exists because the tail of w sums
    to strictly less than (n-p) * t[p] whenever delta > 0.  At most one
    transform per position, so at most n-1 in total.
    """
    w = w.copy()
    out = []
    n = len(w)
    tiny = 1e-13 * max(1.0, float(np.abs(w).max()), float(np.abs(t).max()))
    for p in range(n - 1):
        delta = w[p] - t[p]
        if delta <= tiny:
            continue
        k = next((q for q in range(p + 1, n) if w[q] <= t[p]), None)
        if k is None:
            # Float dust can hide the guaranteed target by a hair; the
            # smallest tail entry is then within dust of eligible.
            k = p + 1 + int(np.argmin(w[p + 1 :]))
        lam = min(1.0, max(0.0, 1.0 - delta / (w[p] - w[k])))
        out.append((lam, p, k))
        wp, wk = w[p], w[k]
        w[p] = lam * wp + (1.0 - lam) * wk
        w[k] = (1.0 - lam) * wp + lam * wk
    return out


def transfer_chain(y, x, tol: float = 1e-9) -> TransferChain:
    """Explicit witness for majorizes(y, x): a chain mapping y onto x.

    For inputs given in descending order the chain has at most n-1
    averaging transforms; arbitrary orderings may add zero-lambda swap
    transforms that only rearrange entries.  Raises ValueError when y does
    not majorize x, or majorizes it only within ``tol`` so that no chain
    reaches x.
    """
    verdict = majorizes(y, x, tol=tol)
    if not verdict.holds:
        raise ValueError("y does not majorize x; no transfer chain exists")
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(y)

    y_order = np.argsort(-y, kind="stable")
    steps = _sorted_chain(y[y_order], np.sort(x)[::-1])
    transforms = [TTransform(lam, int(y_order[p]), int(y_order[k])) for lam, p, k in steps]

    # Rearrangement fix-up: the chain above produces the sorted target
    # values laid out in y's sort order; swap entries (lambda = 0
    # transforms) wherever that differs from x itself.
    eps = 1e-9 * max(1.0, float(np.abs(x).max()))
    current = y.astype(float)
    for transform in transforms:
        current = transform.apply(current)
    for i in range(n):
        if abs(current[i] - x[i]) <= eps:
            continue
        j = next(
            (
                q
                for q in range(i + 1, n)
                if abs(current[q] - x[i]) <= eps and abs(current[q] - x[q]) > eps
            ),
            None,
        )
        if j is None:
            raise ValueError(f"y majorizes x only within tol={tol:g}; no chain reaches x")
        transforms.append(TTransform(0.0, i, j))
        current[i], current[j] = current[j], current[i]
    return TransferChain(tuple(transforms))


@dataclass(frozen=True)
class BirkhoffDecomposition:
    """Convex combination of permutations reconstructing a DS matrix.

    ``permutations[i]`` maps row r to column permutations[i][r].
    """

    weights: tuple
    permutations: tuple

    def __len__(self):
        return len(self.weights)

    def reconstruct(self) -> np.ndarray:
        n = len(self.permutations[0])
        total = np.zeros((n, n))
        for weight, perm in zip(self.weights, self.permutations):
            for r, c in enumerate(perm):
                total[r, c] += weight
        return total

    def to_json_dict(self) -> dict:
        return {
            "weights": to_json(self.weights),
            "permutations": [list(map(int, p)) for p in self.permutations],
        }


def _find_matching(support: list) -> list | None:
    """Perfect matching rows->cols; ``support[r]`` lists row r's columns in order."""
    n = len(support)
    match_col = [-1] * n  # column -> row

    def augment(row, seen):
        for col in support[row]:
            if not seen[col]:
                seen[col] = True
                if match_col[col] < 0 or augment(match_col[col], seen):
                    match_col[col] = row
                    return True
        return False

    for row in range(n):
        if not augment(row, [False] * n):
            return None
    perm = [0] * n
    for col, row in enumerate(match_col):
        perm[row] = col
    return perm


def birkhoff(s, tol: float = 1e-9) -> BirkhoffDecomposition:
    """Greedy Birkhoff decomposition of a doubly stochastic matrix.

    Repeatedly finds a permutation inside the positive support, subtracts
    its minimum entry, and stops once the residual is below tol everywhere.
    At most (n-1)^2 + 1 permutations are extracted.
    """
    s = np.array(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatchError("input must be square")
    n = s.shape[0]
    if not np.isfinite(s).all():
        raise NotDoublyStochasticError("non-finite entry")
    if s.min() < -tol:
        raise NotDoublyStochasticError(f"negative entry {s.min():.3e}")
    if (
        np.abs(s.sum(axis=1) - 1.0).max() > tol
        or np.abs(s.sum(axis=0) - 1.0).max() > tol
    ):
        raise NotDoublyStochasticError("row/column sums differ from 1 beyond tol")
    # Python floats, as the loop reads and updates single entries (the same
    # IEEE doubles as numpy's).  ``support[r]`` lists, in column order, the
    # columns c with residual[r][c] > tol; only the entries on the extracted
    # permutation change, so it is updated there alone.
    residual = s.clip(min=0.0).tolist()
    support = [[c for c, v in enumerate(row) if v > tol] for row in residual]
    weights = []
    perms = []
    limit = (n - 1) ** 2 + 1
    while any(support):
        if len(weights) >= limit:
            raise NotDoublyStochasticError(
                "decomposition exceeded the permutation budget; input too far from doubly stochastic"
            )
        perm = _find_matching(support)
        if perm is None:
            raise NotDoublyStochasticError(
                "no perfect matching in the positive support"
            )
        weight = min(residual[r][c] for r, c in enumerate(perm))
        weights.append(weight)
        perms.append(tuple(perm))
        for r, c in enumerate(perm):
            residual[r][c] -= weight
            if not residual[r][c] > tol:
                support[r].remove(c)
    return BirkhoffDecomposition(weights=tuple(weights), permutations=tuple(perms))


def shannon_entropy(v) -> float:
    """Entropy of v normalized to a distribution; 0*log 0 taken as 0.

    Natural logarithm; entries may be zero, and tiny negative noise within
    1e-12 is clipped rather than rejected.
    """
    v = np.asarray(v, dtype=float)
    if v.min() < -1e-12:
        raise ValueError(f"negative entry {v.min():.3e} outside entropy domain")
    v = v.clip(min=0.0)
    total = v.sum()
    if total <= 0:
        raise ValueError("entropy of an all-zero vector")
    z = v / total
    nonzero = z[z > 0]
    return float(-(nonzero * np.log(nonzero)).sum())


def _entropy_or_none(v) -> Optional[float]:
    """``shannon_entropy(v)``, or None where it is undefined."""
    try:
        return shannon_entropy(v)
    except ValueError:
        return None

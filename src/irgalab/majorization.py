"""Majorization decisions and constructive witnesses.

A vector y majorizes x (x < y) when both have equal entry sums and every
k-prefix of x sorted descending is bounded by the matching prefix of y.
Equivalently x = S y for a doubly stochastic S; this module both decides the
prefix test and builds explicit witnesses: a chain of T-transforms (convex
combinations of the identity and one transposition) mapping y to x, and the
Birkhoff decomposition of a doubly stochastic matrix into permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import getitem
from typing import Optional

import numpy as np

from .linalg import DimensionMismatchError, NumericFailure, _check_tol, _float_array, _max_abs, to_json

__all__ = [
    "MajorizationVerdict",
    "majorizes",
    "TTransform",
    "TransferChain",
    "transfer_chain",
    "BirkhoffDecomposition",
    "birkhoff",
    "NotDoublyStochasticError",
    "UndefinedEntropyError",
    "shannon_entropy",
]


class NotDoublyStochasticError(NumericFailure, ValueError):
    pass


class UndefinedEntropyError(NumericFailure, ValueError):
    """A vector that no distribution normalizes, so it has no entropy."""


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


# Entries near the float limit overflow the sums to inf or NaN, which fail
# the verdict (and the strict JSON report); the overflow need not warn.
@np.errstate(over="ignore", invalid="ignore")
def majorizes(y, x, tol: float = 1e-9) -> MajorizationVerdict:
    """Decide whether y majorizes x (x < y), within tol."""
    _check_tol(tol)
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise DimensionMismatchError(f"vector shapes {y.shape} vs {x.shape}")
    if not len(y):
        raise DimensionMismatchError(f"empty vectors, shape {y.shape}")
    deficits, sum_gap = _deficits_and_gap(y, np.sort(y), x, np.sort(x))
    return MajorizationVerdict(
        holds=_holds(deficits, sum_gap, tol),
        prefix_deficits=tuple(deficits),
        sum_gap=sum_gap,
        tol=tol,
    )


def _majorizes(
    y: np.ndarray, y_sorted: np.ndarray, x: np.ndarray, x_sorted: np.ndarray, tol: float
) -> bool:
    """``majorizes(y, x, tol).holds`` for nonempty float vectors of one
    shape, given with their ascending sorts, without building the verdict."""
    return _holds(*_deficits_and_gap(y, y_sorted, x, x_sorted), tol)


def _deficits_and_gap(
    y: np.ndarray, y_sorted: np.ndarray, x: np.ndarray, x_sorted: np.ndarray
) -> tuple:
    """The prefix deficits and sum(x) - sum(y), from the vectors and their
    ascending sorts.

    When a prefix sum or a total overflows though every entry is finite,
    both vectors are divided by the power of two above their largest
    |entry|, which is exact short of underflow, and the results are scaled
    back; a deficit that itself overflows stays infinite.  Any other input
    takes the plain computation.  Callers ignore numpy's overflow warnings.
    """
    deficits = _prefix_deficits(y_sorted, x_sorted)
    sum_gap = float(x.sum() - y.sum())
    # Once a running sum of finite entries overflows it stays infinite, so
    # the last deficit or the gap is non-finite whenever a sum overflowed.
    if math.isfinite(deficits[-1]) and math.isfinite(sum_gap):
        return deficits, sum_gap
    sums = (y.sum(), x.sum(), y_sorted[::-1].cumsum()[-1], x_sorted[::-1].cumsum()[-1])
    top = float(np.abs(np.concatenate((y, x))).max())
    if all(map(math.isfinite, sums)) or not math.isfinite(top):
        return deficits, sum_gap
    exponent = math.frexp(top)[1]
    scaled = _prefix_deficits(np.ldexp(y_sorted, -exponent), np.ldexp(x_sorted, -exponent))
    gap = np.ldexp(x, -exponent).sum() - np.ldexp(y, -exponent).sum()
    return np.ldexp(scaled, exponent).tolist(), float(np.ldexp(gap, exponent))


def _prefix_deficits(y_sorted: np.ndarray, x_sorted: np.ndarray) -> list:
    """(sum of k+1 largest of y) - (sum of k+1 largest of x) for each k, from
    the ascending sorts of y and x.

    The prefix sums run left to right from the largest entry, the order of
    ``np.cumsum`` on the descending sort, so each deficit is the same double.
    """
    y_desc = y_sorted.tolist()
    x_desc = x_sorted.tolist()
    y_desc.reverse()
    x_desc.reverse()
    return [a - b for a, b in zip(accumulate(y_desc), accumulate(x_desc))]


def _holds(deficits: list, sum_gap: float, tol: float) -> bool:
    # all(), not min(): a NaN deficit fails the verdict wherever it stands.
    return all(d >= -tol for d in deficits) and abs(sum_gap) <= tol


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
        out = np.array(v, dtype=float)
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
    transform per position, so at most n-1 in total, indexed by position in w.
    """
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
        transform = TTransform(min(1.0, max(0.0, 1.0 - delta / (w[p] - w[k]))), p, k)
        out.append(transform)
        w = transform.apply(w)
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
    transforms = [TTransform(t.lam, int(y_order[t.j]), int(y_order[t.k])) for t in steps]

    # Rearrangement fix-up: the chain above produces the sorted target
    # values laid out in y's sort order; swap entries (lambda = 0
    # transforms) wherever that differs from x itself.
    eps = 1e-9 * max(1.0, float(np.abs(x).max()))
    current = TransferChain(tuple(transforms)).apply(y)
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

    ``permutations[i]`` maps row r to column permutations[i][r]; ``n`` is
    the matrix size, so a decomposition with no permutations still knows it.
    """

    # Slots without a per-instance dict: a sweep keeps thousands of these.
    # Pickle and copy rebuild through __init__, since the frozen
    # __setattr__ refuses the slot-by-slot state restore.
    __slots__ = ("weights", "permutations", "n")

    weights: tuple
    permutations: tuple
    n: int

    def __reduce__(self):
        return type(self), (self.weights, self.permutations, self.n)

    def __len__(self):
        return len(self.weights)

    def reconstruct(self) -> np.ndarray:
        total = np.zeros((self.n, self.n))
        for weight, perm in zip(self.weights, self.permutations):
            for r, c in enumerate(perm):
                total[r, c] += weight
        return total

    def to_json_dict(self) -> dict:
        return {
            "weights": to_json(self.weights),
            "permutations": [list(map(int, p)) for p in self.permutations],
        }


# Greedy steps on doubly stochastic matrices of one size keep returning to
# the same supports: the acceptance sweep's 46,697 matchings at seed 0 meet
# 4,219 distinct ones.  A memo of 8,192, emptied when full, holds them all,
# so 91% of the matchings are hits, as with no bound; emptied at 4,096 it
# keeps 90%, at 1,024 84%, at 256 73%.  Full, it holds about 1.2 MB at n <= 6.
# Each key is the int mask | 1 << n * n: a mask is below 2 ** (n * n), so
# the top bit tells the sizes apart and one int is unique per (n, mask),
# 56 bytes less per entry than an (n, mask) tuple.
_MATCHINGS_MAX = 8192
_MATCHINGS: dict = {}  # mask | 1 << n * n -> permutation tuple, or None for no matching
_UNSEEN = object()


def _matching(n: int, mask: int, residual: list, tol: float) -> tuple | None:
    """A perfect matching in the entries of ``residual`` above ``tol``, memoized
    on (n, mask), where bit r*n + c of ``mask`` marks ``residual[r][c] > tol``.

    A miss that finds the memo holding ``_MATCHINGS_MAX`` supports empties
    it first: unlike evicting one entry at a time, that costs O(1) per miss.
    """
    key = mask | 1 << n * n
    perm = _MATCHINGS.get(key, _UNSEEN)
    if perm is _UNSEEN:
        if len(_MATCHINGS) >= _MATCHINGS_MAX:
            _MATCHINGS.clear()
        support = [[c for c, v in enumerate(row) if v > tol] for row in residual]
        perm = _MATCHINGS[key] = _find_matching(support)
    return perm


def _find_matching(support: list) -> tuple | None:
    """Perfect matching rows->cols; ``support[r]`` lists row r's columns in order.

    Rows are matched in order, each by a depth-first augmenting path
    (Kuhn's algorithm) that tries its columns in list order.
    """
    n = len(support)
    match_col = [-1] * n  # column -> row
    for row, cols in enumerate(support):
        # The path's first step: a free first column ends it at once.
        if cols and match_col[cols[0]] < 0:
            match_col[cols[0]] = row
        elif not _augment(support, match_col, row, [False] * n):
            return None
    perm = [0] * n
    for col, row in enumerate(match_col):
        perm[row] = col
    return tuple(perm)


def _augment(support: list, match_col: list, row: int, seen: list) -> bool:
    """Extend ``match_col`` along an augmenting path from ``row``.

    A module-level function, not a closure inside ``_find_matching``: a
    closure that calls itself is a reference cycle, left for the garbage
    collector after every matching.
    """
    for col in support[row]:
        if not seen[col]:
            seen[col] = True
            owner = match_col[col]
            if owner < 0 or _augment(support, match_col, owner, seen):
                match_col[col] = row
                return True
    return False


def birkhoff(s, tol: float = 1e-9) -> BirkhoffDecomposition:
    """Greedy Birkhoff decomposition of a doubly stochastic matrix.

    Repeatedly finds a permutation inside the positive support, subtracts
    its minimum entry, and stops once the residual is below tol everywhere.
    At most (n-1)^2 + 1 permutations are extracted.  ``tol`` must be finite
    and >= 0.

    Each support's matching comes from ``_matching``, a process-wide memo
    of at most 8,192 supports, keyed on (n, mask), where bit r*n + c of the
    int mask marks residual entry (r, c) > tol.  ``permutations`` therefore
    holds tuples that other decompositions may share.  An exact ``Matrix``
    is decomposed as its float array.
    """
    _check_tol(tol)
    s = _float_array(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatchError("input must be square")
    if not s.size:
        raise DimensionMismatchError(f"empty matrix, shape {s.shape}")
    n = s.shape[0]
    # A NaN or infinite entry makes its row sum non-finite, so the entries
    # are scanned for one only then.
    row_dev = _max_abs([v - 1.0 for v in s.sum(axis=1).tolist()])
    col_dev = _max_abs([v - 1.0 for v in s.sum(axis=0).tolist()])
    if not math.isfinite(row_dev) and not np.isfinite(s).all():
        raise NotDoublyStochasticError("non-finite entry")
    low = s.min()
    if low < -tol:
        raise NotDoublyStochasticError(f"negative entry {low:.3e}")
    if row_dev > tol or col_dev > tol:
        raise NotDoublyStochasticError("row/column sums differ from 1 beyond tol")
    # Python floats, as the loop reads and updates single entries (the same
    # IEEE doubles as numpy's).  Only the entries on the extracted
    # permutation change, so the mask is updated there alone.  Entries
    # outside the support are never read, so negative ones need no clipping.
    residual = s.tolist()
    mask = int.from_bytes(np.packbits(s > tol, bitorder="little").tobytes(), "little")
    weights = []
    perms = []
    limit = (n - 1) ** 2 + 1
    while mask:
        if len(weights) >= limit:
            raise NotDoublyStochasticError(
                "decomposition exceeded the permutation budget; input too far from doubly stochastic"
            )
        perm = _matching(n, mask, residual, tol)
        if perm is None:
            raise NotDoublyStochasticError(
                "no perfect matching in the positive support"
            )
        weight = min(map(getitem, residual, perm))
        weights.append(weight)
        perms.append(perm)
        for r, c in enumerate(perm):
            row = residual[r]
            value = row[c] = row[c] - weight
            if not value > tol:
                mask ^= 1 << (r * n + c)
    return BirkhoffDecomposition(weights=tuple(weights), permutations=tuple(perms), n=n)


def shannon_entropy(v) -> float:
    """Entropy of v normalized to a distribution; 0*log 0 taken as 0.

    Natural logarithm; entries may be zero, and tiny negative noise within
    1e-12 is clipped rather than rejected.  An empty or all-zero vector, a
    negative entry, or a NaN or infinite entry raises
    ``UndefinedEntropyError``, a ``ValueError``.
    """
    v = np.asarray(v, dtype=float)
    if not v.size:
        raise UndefinedEntropyError("entropy of an empty vector")
    if v.min() < -1e-12:
        raise UndefinedEntropyError(f"negative entry {v.min():.3e} outside entropy domain")
    v = v.clip(min=0.0)
    with np.errstate(over="ignore"):
        total = v.sum()
    if not np.isfinite(total):
        # A NaN or +inf entry has no distribution (-inf failed the sign
        # test); otherwise the sum of finite entries overflowed: scale by
        # the largest first.
        if not np.isfinite(v).all():
            raise UndefinedEntropyError("entropy of a vector with a non-finite entry")
        v = v / v.max()
        total = v.sum()
    if total <= 0:
        raise UndefinedEntropyError("entropy of an all-zero vector")
    z = v / total
    nonzero = z[z > 0]
    # 0.0 - sum, not -sum: a point mass has entropy 0.0, not -0.0.
    return float(0.0 - (nonzero * np.log(nonzero)).sum())


def _entropy_or_none(v) -> Optional[float]:
    """``shannon_entropy(v)``, or None where it is undefined."""
    try:
        return shannon_entropy(v)
    except ValueError:
        return None

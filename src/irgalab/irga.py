"""Relative gain arrays and their inverses, membership checks, and the
randomized counterexample search.

For a symmetric positive-definite P the inverse relative gain array is
S = (P o P^-1)^-1 (o = Hadamard product).  The central claim under test is
that S is nonnegative doubly stochastic for sizes up to 6; sizes 7 and up
admit counterexamples that random sampling finds quickly.

Sampling uses the diagonal-scaling reduction: P = L L^T with unit-diagonal
lower-triangular L covers every case up to the invariance of S, so only the
strict lower triangle is drawn.

Stream contract: trial t of a search draws from ``default_rng(mix64(seed, t))``
(n-1 row-scale exponents, then the strict lower triangle), computed for a
whole chunk of trials at once, one row per draw (see ``_pcg64``), and
mapped to L in place.  A search draws and screens every chunk in one
workspace that it allocates once (``_workspace``): every seed, stream
state, draw and entry of X = L^-1, T = P o P^-1, its Cholesky factor and
its inverse is a row of it, written with ``out=``, so no chunk allocates or
frees a vector.  The row scales sit just before L, so one block of rows
takes every draw.  Rows are reused as their contents die: the draws'
scratch and the scales become X, each entry of T is written over a column
of X that no later entry reads, the Cholesky factor and its inverse are
formed in place over T, and L's rows then hold products and blocks of S,
which is folded into a running minimum, so a chunk never holds all of S.
At n = 7 the workspace is 50 rows.  Only the trial ids of float hits
outlive a chunk; certification draws their rows again from their own
streams.  Results are therefore independent of chunking, and bit-identical
to drawing and screening each trial on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import Optional

import numpy as np

from . import _pcg64, linalg
from .linalg import Matrix, NotPositiveDefiniteError

__all__ = [
    "mix64",
    "rga",
    "irga",
    "IrgaReport",
    "check_conjecture",
    "PdSample",
    "random_pd",
    "SearchOutcome",
    "search_counterexample",
    "NONNEG_TOL",
    "DYADIC_DENOMINATOR",
]

NONNEG_TOL = 1e-10
DYADIC_DENOMINATOR = 1 << 16

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# mix64's xorshift-multiply rounds after (t + 1) * GOLDEN + seed.
_MIX64_STEPS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, 0))


def mix64(seed: int, t):
    """Fixed 64-bit mixing function deriving per-trial stream seeds.

    ``t`` is a Python int or a uint64 array of trial indices; the same
    expression serves both, since uint64 arithmetic wraps where the masks
    reduce a Python int modulo 2**64.
    """
    z = ((t + 1) * _GOLDEN + (seed & _MASK64)) & _MASK64
    for shift, mult in _MIX64_STEPS:
        z ^= z >> shift
        if mult:
            z = (z * mult) & _MASK64
    return z


def rga(m):
    """Relative gain array M o (M^-1)^T of a square nonsingular matrix."""
    if isinstance(m, Matrix):
        return m.hadamard(m.inverse().transpose())
    m = np.asarray(m, dtype=float)
    return m * linalg.inverse(m).T


def irga(p):
    """Inverse relative gain array (P o P^-1)^-1 of a symmetric matrix.

    For positive-definite P the Hadamard product is itself PD (Schur product
    theorem) and therefore invertible; the inverse's singularity check covers
    indefinite symmetric inputs anyway.
    """
    return _irga(*linalg._check_symmetric(p))


def _irga(p, scale):
    """``irga`` of a Matrix or float array already known to be symmetric,
    with the scale ``linalg._check_symmetric`` returned for it."""
    if isinstance(p, Matrix):
        return p.hadamard(p.inverse()).inverse()
    return linalg.inverse(p * linalg._lu_inverse(p, scale))


@dataclass(frozen=True)
class IrgaReport:
    """Membership report for S = (P o P^-1)^-1.

    In exact mode the row/column sums are one by theorem, so both deviation
    fields are exact zeros, set without summing S, and ``doubly_stochastic``
    is ``nonnegative``.  ``check_conjecture`` asserts the sums on the S it
    computes from P; Kronecker and block compositions keep them.  Both build
    the report with the same ``_membership_report``.
    """

    s: object
    max_row_sum_dev: object
    max_col_sum_dev: object
    min_entry: object
    nonnegative: bool
    doubly_stochastic: bool

    @property
    def pd(self) -> bool:
        """True by theorem, with no test of S: ``check_conjecture`` rejects a
        P that is not PD, and for PD P the Schur product theorem makes
        T = P o P^-1, and so S = T^-1, PD.  Kronecker and block-diagonal
        compositions of PD matrices are PD (Horn & Johnson, *Topics in
        Matrix Analysis*, ch. 5).  In float mode this is only as certain as
        the float PD test of P."""
        return True

    @property
    def mode(self) -> str:
        """The carrier of S: "exact" for a Matrix, else "float"."""
        return "exact" if isinstance(self.s, Matrix) else "float"

    def to_json_dict(self) -> dict:
        return {
            "s": linalg.to_json(self.s),
            "min_entry": linalg.to_json(self.min_entry),
            "max_row_sum_dev": linalg.to_json(self.max_row_sum_dev),
            "max_col_sum_dev": linalg.to_json(self.max_col_sum_dev),
            "pd": self.pd,
            "nonnegative": self.nonnegative,
            "doubly_stochastic": self.doubly_stochastic,
            "mode": self.mode,
        }


def check_conjecture(p, tol: float = NONNEG_TOL) -> IrgaReport:
    """Compute S and test nonnegativity and double stochasticity.

    The input must be symmetric positive definite; violations raise rather
    than report.  ``tol`` must be finite and >= 0.
    """
    linalg._check_tol(tol)
    p, scale = linalg._check_symmetric(p)
    # A float P with a NaN or infinite entry has no finite scale.
    finite = scale is None or math.isfinite(scale)
    if not (finite and linalg._is_positive_definite(p)):
        raise NotPositiveDefiniteError("input must be positive definite")
    s = _irga(p, scale)
    if isinstance(s, Matrix) and any(v != 1 for v in s.row_sums() + s.col_sums()):
        raise AssertionError("exact IRGA row/column sums must be identically 1")
    return _membership_report(s, tol)


def _membership_report(s, tol: float) -> IrgaReport:
    """Doubly-stochastic membership report for an already-computed S.

    Exact S (a Matrix) is tested for nonnegativity alone, without
    tolerance (see ``IrgaReport``); float S tolerates ``tol`` on the minimum
    entry and on the row/column sums.  S is not tested for PD-ness: it
    inherits it from P (see ``IrgaReport.pd``).
    """
    if isinstance(s, Matrix):
        row_dev = col_dev = Fraction(0)
        min_entry = s.min_entry()
        nonnegative = doubly = min_entry >= 0
    else:
        row_dev = linalg._max_abs([v - 1.0 for v in s.sum(axis=1).tolist()])
        col_dev = linalg._max_abs([v - 1.0 for v in s.sum(axis=0).tolist()])
        min_entry = float(s.min())
        nonnegative = min_entry >= -tol
        doubly = nonnegative and max(row_dev, col_dev) <= tol
    return IrgaReport(
        s=s,
        max_row_sum_dev=row_dev,
        max_col_sum_dev=col_dev,
        min_entry=min_entry,
        nonnegative=nonnegative,
        doubly_stochastic=doubly,
    )


@dataclass(frozen=True)
class PdSample:
    """A seeded PD sample P = L L^T with unit-diagonal lower-triangular L."""

    seed: int
    n: int
    l: object
    p: object


def _build_lower(n: int, values, one, zero):
    rows = [[zero] * n for _ in range(n)]
    k = 0
    for i in range(n):
        rows[i][i] = one
        for j in range(i):
            rows[i][j] = values[k]
            k += 1
    return rows


def _t_from_lower(l) -> list:
    """Rows of T = R o adj(R) for R = L L^T, from the rows of a unit-diagonal
    lower-triangular L.

    det(R) = 1, so adj(R) = R^-1 = X^T X with X = L^-1, and the forward
    substitution X_ij = -(L_ij + sum over j < k < i of L_ik X_kj) needs no
    division: one code path serves int, Fraction and Polynomial entries and
    stacks of float trial vectors.  T is symmetric, so only its lower
    triangle is computed, column by column, and each entry is mirrored.
    For i >= j, T_ij is the dot of rows i and j of L over k <= j times the
    dot of columns i and j of X over k >= i, from the bottom up.  The last
    term of each dot pairs an entry with a unit diagonal, so it is added as
    the bare entry.  Every sum adds left to right as a Python loop would,
    with the products formed in C by ``map(mul, ...)``: X_ij is a ``reduce``
    from L_ij on, and each dot is ``linalg._dot`` with the bare entry last.
    """
    n = len(l)

    def dot(a, b, last):
        # a . b, then + last; map() stops at the shorter of a and b.
        total = linalg._dot(a, b)
        return last if total is None else total + last

    x = []  # x[j][i] = X_ij for i >= j: column j of X
    for j in range(n):
        col = [None] * n
        col[j] = l[j][j]
        for i in range(j + 1, n):
            col[i] = -reduce(add, map(mul, l[i][j + 1:i], col[j + 1:i]), l[i][j])
        x.append(col)
    t = [[None] * n for _ in range(n)]
    for j in range(n):
        for i in range(j, n):
            t[i][j] = t[j][i] = dot(l[i][:j], l[j], l[i][j]) * dot(x[i][:i:-1], x[j][:i:-1], x[j][i])
    return t


def _dyadic_sample(seed: int, n: int, nums) -> PdSample:
    """Exact sample whose L has strict-lower entries nums[k] / 2^16 (row-major)."""
    values = [Fraction(int(v), DYADIC_DENOMINATOR) for v in nums]
    l = Matrix(_build_lower(n, values, Fraction(1), Fraction(0)))
    return PdSample(seed=seed, n=n, l=l, p=l @ l.transpose())


def random_pd(n: int, seed: int, rng_range: float = 2.0, mode: str = "float") -> PdSample:
    """Deterministic PD sample; strict-lower entries uniform in [-range, range].

    Exact mode draws dyadic rationals k/2^16 so the sample certifies without
    rounding.  ``rng_range`` must be finite and >= 0; a range of 0 gives
    L = P = I.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= rng_range < math.inf:
        raise ValueError("rng_range must be finite and >= 0")
    rng = np.random.default_rng(seed)
    m = n * (n - 1) // 2
    if mode == "exact":
        top = int(Fraction(rng_range) * DYADIC_DENOMINATOR)
        return _dyadic_sample(seed, n, rng.integers(-top, top + 1, size=m))
    if mode != "float":
        raise ValueError(f"unknown mode {mode!r}")
    l = np.array(_build_lower(n, rng.uniform(-rng_range, rng_range, size=m), 1.0, 0.0))
    return PdSample(seed=seed, n=n, l=l, p=l @ l.T)


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a counterexample search over a fixed trial budget.

    ``sample``/``report`` describe the first certified hit in trial order
    (the sample is the dyadic rounding that was certified exactly);
    ``float_hits`` counts all trials whose float IRGA dipped below -tol.
    """

    n: int
    trials: int
    seed: int
    rng_range: float
    tol: float
    sample: Optional[PdSample]
    report: Optional[IrgaReport]
    trial_index: Optional[int]
    float_hits: int
    uncertified_hits: int

    @property
    def found(self) -> bool:
        return self.sample is not None

    def __bool__(self) -> bool:
        return self.found

    @property
    def hit_rate(self) -> float:
        return self.float_hits / self.trials if self.trials else 0.0


# Log-uniform row-scale window for the counterexample sampler.  Plain
# uniform draws (any half-width tried up to 20) certify zero violations in
# budgets of 10^5 at size 7; multiplying each row of the strict-lower
# triangle by a 10^U(-1.5, 0.8) scale puts the certified hit rate near
# 2e-4, so a standard trial budget reliably finds certified violations.
_ROW_SCALE_EXPONENTS = (-1.5, 0.8)


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Map ``random()`` draws in place exactly as ``Generator.uniform(low, high)``
    does, and return them."""
    u *= high - low
    u += low
    return u


def _layout(n: int) -> int:
    """Rows of an n x n workspace.

    Row 0 takes the T step's dot of two rows of L.  Rows 1..m+n, with
    m = n(n-1)/2, hold X = L^-1, T, its Cholesky factor and its inverse in
    turn; the rows after them, at least max(m, n + 4), are free for the
    last steps and end in L's m strict-lower entries.  The n - 1 row
    scales sit just before L, so the scales and L are one block of draws,
    and every row before that block is the draws' scratch.
    """
    m = n * (n - 1) // 2
    return max(1 + m + n + max(m, n + 4), m + n - 1 + _pcg64.SCRATCH_ROWS)


def _workspace(n: int, count: int, buffer=None) -> np.ndarray:
    """A (rows, count) float array that draws and screens ``count`` trials
    of size n; ``buffer`` lends it the memory of a larger workspace."""
    rows = _layout(n)
    if buffer is None:
        buffer = np.empty(rows * count)
    return buffer.reshape(-1)[: rows * count].reshape(rows, count)


def _lower_rows(n: int, ws: np.ndarray) -> np.ndarray:
    """The workspace's last m rows, L: row k is entry k of the strict lower
    triangle (row-major) of every trial."""
    return ws[len(ws) - n * (n - 1) // 2 :]


def _draw(n: int, seed: int, ids, rng_range: float, ws: np.ndarray) -> None:
    """Fill L with the draws of the trials ``ids``: a range, or a uint64
    array of ws.shape[1] trial indices.

    Trial t draws from ``default_rng(mix64(seed, t))``: n-1 log-uniform row
    scales, then L's entries uniform in +-rng_range/2.  mix64 is evaluated
    in place; the seeds, every stream's state and the scales live in the
    rows before L, which the screen overwrites.
    """
    split = len(ws) - n * (n - 1) // 2 - (n - 1)
    draws, scratch = ws[split:], ws[:split]
    scales, lower = draws[: n - 1], draws[n - 1 :]
    z, tmp = scratch[0].view(np.uint64), scratch[1].view(np.uint64)
    # mix64(seed, t) in place; for a range, (t - start + 1) * GOLDEN is a
    # running sum of GOLDEN.
    golden = np.uint64(_GOLDEN)
    if isinstance(ids, range):
        np.add.accumulate(np.broadcast_to(golden, z.shape), out=z)
        offset = ids.start * _GOLDEN + seed
    else:
        np.multiply(ids, golden, out=z)
        offset = _GOLDEN + seed
    np.add(z, np.uint64(offset & _MASK64), out=z)
    for shift, mult in _MIX64_STEPS:
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        if mult:
            np.multiply(z, np.uint64(mult), out=z)
    _pcg64.fill(draws, scratch)
    np.power(10.0, _uniform(scales, *_ROW_SCALE_EXPONENTS), out=scales)
    half = rng_range / 2.0
    _uniform(lower, -half, half)
    for i in range(1, n):
        lower[i * (i - 1) // 2 : i * (i + 1) // 2] *= scales[i - 1]


def _search_lower(n: int, seed: int, ts, rng_range: float) -> np.ndarray:
    """Strict-lower entries (row-major) of each trial in ``ts`` (a range, a
    sequence of ints or a uint64 array), one row per trial.

    Row i is what ``default_rng(mix64(seed, ts[i]))`` draws (see ``_draw``);
    the result is a transposed view of L's rows in a workspace of its own.
    """
    ids = ts if isinstance(ts, range) else np.asarray(ts, dtype=np.uint64)
    ws = _workspace(n, len(ids))
    _draw(n, seed, ids, rng_range, ws)
    return _lower_rows(n, ws).T


def _column_starts(n: int) -> list:
    """Row of the workspace's T region where each column of T (and later of
    C and Y) starts: column j holds entries (j..n-1, j)."""
    return [j * n - j * (j - 1) // 2 for j in range(n + 1)]


def _dot(a, b, out) -> None:
    """out = a . b over rows: one product for a single row, else
    ``np.einsum``, which adds the products in row order as ``np.add.reduce``
    does, but only on forward rows at least two columns wide."""
    if len(a) == 1:
        np.multiply(a[0], b[0], out=out)
    else:
        np.einsum("ij,ij->j", a, b, out=out)


def _form_t(n: int, ws: np.ndarray) -> np.ndarray:
    """Form T = P o P^-1 of every trial whose L is in the workspace, with the
    operations of ``_t_from_lower``; return the T region, whose rows
    ``_column_starts(n)[j] + i - j`` hold entry (i, j), i >= j.

    1. Z = -X = -L^-1, column by column: Z_ij = L_ij - sum over j < k < i
       of L_ik Z_kj, folded left by ``np.subtract.reduce``.  Products of Z
       are products of X.  Column j of Z is held bottom-up (entry e is
       Z_(n-1-e)j) where column j + 1 of T will start, so the T region's
       first n rows are free.
    2. T_ij = (L_i . L_j over k < j, + L_ij) * (X_i . X_j over k > i, from
       the bottom up, + X_ij), with L_jj = X_jj = 1, column by column.
       Both dots read forward rows.  Each entry is written over a column of
       Z that no later entry reads.
    """
    lower, r = _lower_rows(n, ws), ws[1:]
    off = _column_starts(n)
    lrows = [lower[i * (i - 1) // 2 : i * (i + 1) // 2] for i in range(n)]
    zcols = [r[off[j + 1] : off[j + 1] + n - 1 - j] for j in range(n)]
    for j in range(n - 1):
        z = zcols[j]
        for i in range(j + 1, n):
            row, d = lrows[i], i - j - 1
            if d:
                np.copyto(r[0], row[j])
                np.multiply(row[j + 1 : i], z[n - i : n - 1 - j][::-1], out=r[1 : 1 + d])
                np.subtract.reduce(r[: 1 + d], axis=0, out=z[n - 1 - i])
            else:
                np.copyto(z[n - 1 - i], row[j])
    a = ws[0]
    for j in range(n):
        lj, t, zj = lrows[j], r[off[j] : off[j + 1]], zcols[j]
        for i in range(j, n):
            li = lrows[i]
            if j:
                _dot(li[:j], lj, a)
                np.add(a, li[j] if i > j else 1.0, out=a)
            factor = a if j else (li[0] if i else None)
            slot, below = t[i - j], n - 1 - i
            if below:
                _dot(zcols[i], zj[:below], slot)
            if i > j:
                if below:
                    np.subtract(slot, zj[below], out=slot)
                else:
                    np.negative(zj[below], out=slot)
            elif below:
                np.add(slot, 1.0, out=slot)
            else:
                np.copyto(slot, factor)
                continue
            if factor is not None:
                np.multiply(factor, slot, out=slot)
    return r[: off[n]]


def _screen(n: int, ws: np.ndarray) -> np.ndarray:
    """Minimum float IRGA entry of every trial whose L is in the workspace,
    as a row of the workspace.

    Entry (i, j) of every trial is one row, so each step is a short sequence
    of elementwise operations on rows and on slabs of contiguous rows, and
    of dots over forward rows by ``_dot``, which add the rows' products in
    row order.  Every entry is the same sequence of operations as in
    ``_t_from_lower`` and a row-by-row Cholesky inverse, so a trial's result
    is bit-identical whatever else the workspace holds:

    1-2. T, by ``_form_t``.
    3. Cholesky T = C C^T in place, one column at a time: a column of C is
       updated by whole earlier columns.
    4. Y = C^-1 in place, column by column, by forward substitution; the
       sums are held negated so that each entry needs one division.
    5. S = Y^T Y, row by row; blocks of rows of S are folded into a running
       minimum and maximum.

    A trial whose T is not numerically PD (a failed pivot takes the square
    root of a value that is not positive), or whose S is not finite,
    screens as inf.  L's rows are overwritten once T is formed.
    """
    with np.errstate(all="ignore"):
        t = _form_t(n, ws)
        free = ws[1 + len(t) :]
        off = _column_starts(n)
        cols = [t[off[j] : off[j + 1]] for j in range(n)]
        # 3. L is spent: the free rows, L's among them, hold the products.
        for j, col in enumerate(cols):
            for k in range(j):
                ck = cols[k][j - k :]
                np.multiply(ck, ck[0], out=free[: n - j])
                np.subtract(col, free[: n - j], out=col)
            np.sqrt(col[0], out=col[0])
            if j < n - 1:
                np.divide(col[1:], col[0], out=col[1:])
        # 4. y_ij = -(sum over j <= k < i of c_ik y_kj) / c_ii, y_jj = 1 / c_jj.
        for j, y in enumerate(cols):
            if j < n - 1:
                np.divide(-1.0, y[0], out=free[0])
                np.multiply(y[1:], free[0], out=y[1:])
            np.divide(1.0, y[0], out=y[0])
            for k in range(j + 1, n):
                ck = cols[k]
                np.divide(y[k - j], ck[0], out=y[k - j])
                if k < n - 1:
                    products = free[1 : n - k]
                    np.multiply(ck[1:], y[k - j], out=products)
                    np.subtract(y[k - j + 1 :], products, out=y[k - j + 1 :])
        # 5. S_ij = sum over r >= i of y_ri y_rj; S is symmetric, so its lower
        # triangle holds its minimum.  Entries wait in ``block``, in row-major
        # order, to be folded into the running minimum and maximum; np.minimum
        # and np.maximum return their second operand on a tie, so folding a
        # block at a time gives the bits of folding entry by entry.  An entry
        # that is not finite leaves the minimum or the maximum not finite.
        mins, maxs, row_min, row_max = free[:4]
        mins.fill(np.inf)
        maxs.fill(-np.inf)
        block, filled = free[4:], 0
        for i in range(n + 1):
            if i == n or filled + i + 1 > len(block):
                np.minimum.reduce(block[:filled], axis=0, out=row_min)
                np.minimum(mins, row_min, out=mins)
                np.maximum.reduce(block[:filled], axis=0, out=row_max)
                np.maximum(maxs, row_max, out=maxs)
                filled = 0
            if i == n:
                break
            yi = cols[i]
            for j in range(i + 1):
                _dot(yi, cols[j][i - j :], block[filled])
                filled += 1
        count = ws.shape[1]
        finite, finite_max = row_min.view(np.bool_)[:count], row_max.view(np.bool_)[:count]
        np.isfinite(mins, out=finite)
        np.isfinite(maxs, out=finite_max)
        np.logical_and(finite, finite_max, out=finite)
        np.logical_not(finite, out=finite)
        np.copyto(mins, np.inf, where=finite)
    return mins


def _min_irga_entries(n: int, lower: np.ndarray) -> np.ndarray:
    """Minimum float IRGA entry for each row of strict-lower entries, screened
    in a workspace of its own (see ``_screen``).

    A workspace screens at least two trials: numpy sums a single column
    pairwise, not row by row, so a single trial fills both columns.
    """
    ws = _workspace(n, len(lower) + (len(lower) == 1))
    np.copyto(_lower_rows(n, ws), lower.T)
    return _screen(n, ws)[: len(lower)].copy()


_CHUNK_SIZE = 4096  # trials drawn and screened together; results do not depend on it


def _float_hits(n: int, trials: int, seed: int, rng_range: float, tol: float) -> list:
    """Ids of the trials among the first ``trials`` whose float IRGA has an
    entry below -tol, drawn and screened a chunk at a time.

    One workspace serves every chunk, and a short last chunk uses its
    memory; it is freed on return, before any certification.  A one-trial
    chunk also draws the next trial (see ``_min_irga_entries``).
    """
    hits = []
    ws = _workspace(n, max(2, min(trials, _CHUNK_SIZE)))
    for start in range(0, trials, _CHUNK_SIZE):
        count = min(_CHUNK_SIZE, trials - start)
        chunk = ws if count == ws.shape[1] else _workspace(n, max(2, count), ws)
        _draw(n, seed, range(start, start + chunk.shape[1]), rng_range, chunk)
        # The screen leaves the workspace's first row free.
        below = np.less(_screen(n, chunk)[:count], -tol, out=chunk[0].view(np.bool_)[:count])
        hits.extend((start + np.flatnonzero(below)).tolist())
    return hits


def search_counterexample(
    n: int,
    trials: int,
    seed: int = 0,
    rng_range: float = 2.0,
    tol: float = NONNEG_TOL,
) -> SearchOutcome:
    """Scan the full trial budget for IRGAs with an entry below -tol.

    Trials draw unit-diagonal Cholesky factors whose rows carry log-uniform
    scales (see _ROW_SCALE_EXPONENTS); ``rng_range`` sets the base entry
    width; ``seed`` is taken modulo 2**64.  Each chunk of trials is drawn
    and screened, and only the ids of its float hits are kept.  The hits'
    rows of L are drawn again from their own streams, bit for bit, and
    re-verified exactly on their dyadic rounding; the lowest-index trial
    that certifies is reported.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 < rng_range < math.inf:
        raise ValueError("rng_range must be finite and > 0")
    linalg._check_tol(tol)

    hits = _float_hits(n, trials, seed, rng_range, tol)
    sample = report = trial_index = None
    uncertified = 0
    # Each hit's own stream gives back the row of L that the screen read.
    for t, row in zip(hits, _search_lower(n, seed, hits, rng_range)):
        candidate = _dyadic_sample(mix64(seed, t), n, np.rint(row * DYADIC_DENOMINATOR))
        candidate_report = check_conjecture(candidate.p)
        if candidate_report.min_entry < 0:
            sample, report, trial_index = candidate, candidate_report, t
            break
        uncertified += 1
    return SearchOutcome(
        n=n,
        trials=trials,
        seed=seed,
        rng_range=rng_range,
        tol=tol,
        sample=sample,
        report=report,
        trial_index=trial_index,
        float_hits=len(hits),
        uncertified_hits=uncertified,
    )

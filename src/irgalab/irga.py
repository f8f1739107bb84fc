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
whole chunk of trials at once, one contiguous vector per draw (see
``_pcg64``), and mapped to L in place.  The scales and L fill buffers of
their own.  The float screen frees each vector once its last reader has
run: the scales once L is scaled, X = L^-1 entry by entry as T = P o P^-1
is formed, L once T is complete, and T entry by entry as its Cholesky
factor is formed.  It folds each entry of S into a running minimum, so a
chunk never holds all of S.  At n = 7 a chunk peaks at about 51 vectors,
as T is completed beside L.  Only the trial ids of float hits outlive a
chunk; certification draws their rows again from their own streams.
Results are therefore independent of chunking, and bit-identical to
drawing and screening each trial on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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


def mix64(seed: int, t):
    """Fixed 64-bit mixing function deriving per-trial stream seeds.

    ``t`` is a Python int or a uint64 array of trial indices; the same
    expression serves both, since uint64 arithmetic wraps where the masks
    reduce a Python int modulo 2**64.
    """
    z = ((t + 1) * _GOLDEN + (seed & _MASK64)) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
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

    In exact mode the row/column sums are identically one, so both deviation
    fields are exact zeros and ``doubly_stochastic`` reduces to
    ``nonnegative``.  ``check_conjecture`` and the Kronecker / block
    compositions in ``spdd`` build it with the same ``_membership_report``.
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
    if not 0 <= tol < math.inf:
        raise ValueError("tol must be finite and >= 0")
    p, scale = linalg._check_symmetric(p)
    # A float P with a NaN or infinite entry has no finite scale.
    finite = scale is None or math.isfinite(scale)
    if not (finite and linalg._is_positive_definite(p)):
        raise NotPositiveDefiniteError("input must be positive definite")
    report = _membership_report(_irga(p, scale), tol)
    if isinstance(p, Matrix) and (report.max_row_sum_dev != 0 or report.max_col_sum_dev != 0):
        raise AssertionError("exact IRGA row/column sums must be identically 1")
    return report


def _membership_report(s, tol: float) -> IrgaReport:
    """Doubly-stochastic membership report for an already-computed S.

    Exact S (a Matrix) is tested without tolerance; float S tolerates
    ``tol`` on the minimum entry and on the row/column sums.  S is not
    tested for PD-ness: it inherits it from P (see ``IrgaReport.pd``).
    """
    if isinstance(s, Matrix):
        one = Fraction(1)
        row_dev = max(abs(v - one) for v in s.row_sums())
        col_dev = max(abs(v - one) for v in s.col_sums())
        min_entry = s.min_entry()
        nonnegative = min_entry >= 0
        doubly = nonnegative and row_dev == 0 and col_dev == 0
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
    triangle is computed, column by column; the upper triangle mirrors it.
    For i >= j, T_ij is the dot of rows i and j of L over k <= j times the
    dot of columns i and j of X over k >= i, from the bottom up.  The last
    term of each dot pairs an entry with a unit diagonal, so it is added as
    the bare entry.

    X_ij is released once T_ij is formed, its last reader.
    """
    n = len(l)

    def dot(a, b, last):
        # a . b, then + last; zip() stops at the shorter of a and b.
        total = linalg._dot(a, b)
        return last if total is None else total + last

    x = []  # x[j][i] = X_ij for i >= j: column j of X
    for j in range(n):
        col = [None] * n
        col[j] = l[j][j]
        for i in range(j + 1, n):
            col[i] = -sum((l[i][k] * col[k] for k in range(j + 1, i)), l[i][j])
        x.append(col)
    t = [[None] * (i + 1) for i in range(n)]
    for j in range(n):
        for i in range(j, n):
            t[i][j] = dot(l[i][:j], l[j], l[i][j]) * dot(x[i][:i:-1], x[j][:i:-1], x[j][i])
            x[j][i] = None
    return [[t[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]


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


def _search_lower(n: int, seed: int, ts, rng_range: float) -> np.ndarray:
    """Strict-lower entries (row-major) of each trial in ``ts`` (a range, a
    sequence of ints or a uint64 array), one row per trial.

    Row i is what ``default_rng(mix64(seed, ts[i]))`` draws: n-1 log-uniform
    row-scale exponents, then the m entries uniform in +-rng_range/2.  The
    draws are mapped in place, one contiguous row per draw.  The scales fill
    a buffer of their own, freed on return; the result is a transposed view
    of L's (m, len(ts)) buffer.
    """
    ids = np.asarray(ts, dtype=np.uint64)
    scales, lower = _pcg64.blocks(mix64(seed, ids), [n - 1, n * (n - 1) // 2])
    np.power(10.0, _uniform(scales, *_ROW_SCALE_EXPONENTS), out=scales)
    half = rng_range / 2.0
    _uniform(lower, -half, half)
    for i in range(1, n):
        lower[i * (i - 1) // 2 : i * (i + 1) // 2] *= scales[i - 1]
    return lower.T


def _min_irga_entries(n: int, lower: np.ndarray) -> np.ndarray:
    """Minimum float IRGA entry for each row of strict-lower entries.

    The whole chunk is screened at once, as stacks of trial vectors: entry
    (i, j) of every trial is one vector.  T = P o P^-1 comes from L without
    factorization (``_t_from_lower``).  Then S = T^-1: Cholesky T = C C^T,
    Y = C^-1 by forward substitution and S = Y^T Y.  A caller that passes
    ``lower`` as a temporary has L freed once T is formed; each entry of T
    is dropped as C reads it, and each row of C once Y has used it.  S is
    symmetric, so its lower triangle holds its minimum.  Each of its entries
    is folded into a running minimum and maximum as soon as it is formed; an
    entry that is not finite leaves one of them not finite.  Every entry is
    one fixed sequence of elementwise operations accumulated left to right,
    so a trial's result is bit-identical whatever else the stack holds.  A
    trial whose T is not numerically PD (a failed pivot takes the square root
    of a value that is not positive), or whose S is not finite, screens as
    inf.
    """
    count = len(lower)
    with np.errstate(all="ignore"):
        t = _t_from_lower(_build_lower(n, lower.T, 1.0, 0.0))
        del lower
        c = []
        for i in range(n):
            a, t[i] = t[i], None
            row = []
            c.append(row)
            for j in range(i + 1):
                acc, a[j] = a[j], None
                for k in range(j):
                    acc = acc - row[k] * c[j][k]
                row.append(np.sqrt(acc) if i == j else acc / c[j][j])
        y = []
        for i in range(n):
            ci, c[i] = c[i], None
            row = [-linalg._dot(ci[j:i], [y[k][j] for k in range(j, i)]) / ci[i] for j in range(i)]
            y.append(row + [1.0 / ci[i]])
        mins = np.full(count, np.inf)
        maxs = -mins
        for i in range(n):
            col_i = [r[i] for r in y[i:]]
            for j in range(i + 1):
                s = linalg._dot(col_i, [r[j] for r in y[i:]])
                np.minimum(mins, s, out=mins)
                np.maximum(maxs, s, out=maxs)
        mins[~(np.isfinite(mins) & np.isfinite(maxs))] = np.inf
    return mins


_CHUNK_SIZE = 4096  # trials drawn and screened together; results do not depend on it


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
    if not 0 <= tol < math.inf:
        raise ValueError("tol must be finite and >= 0")

    hits = []
    for start in range(0, trials, _CHUNK_SIZE):
        stop = min(start + _CHUNK_SIZE, trials)
        # Neither the trial ids nor L are bound here, so the draws free the
        # ids and the screen frees L once read.  Only the chunk's verdicts
        # (one byte per trial) outlive the chunk.
        below = _min_irga_entries(
            n, _search_lower(n, seed, np.arange(start, stop, dtype=np.uint64), rng_range)
        ) < -tol
        hits.extend((start + np.flatnonzero(below)).tolist())

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

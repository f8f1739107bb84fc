import importlib
import math
import subprocess
import sys
import tracemalloc
import types
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from irgalab import _pcg64, linalg, sos
from irgalab.irga import (
    NONNEG_TOL,
    _build_lower,
    _membership_report,
    _min_irga_entries,
    _search_lower,
    _t_from_lower,
    _uniform,
    check_conjecture,
    irga,
    mix64,
    random_pd,
    rga,
    search_counterexample,
)
from irgalab.linalg import (
    Matrix,
    NotPositiveDefiniteError,
    NotSymmetricError,
    NumericallySingularError,
    is_positive_definite,
    load_matrix,
)
from irgalab.sos import data_path
from irgalab.spdd import make_gauge


def frac_matrix(rows):
    return Matrix([[Fraction(v) for v in row] for row in rows])


def test_package_attribute_irga_is_the_module():
    import irgalab

    assert isinstance(irgalab.irga, types.ModuleType)
    assert irgalab.irga.irga is irga


class TestRga:
    def test_identity(self):
        assert np.abs(rga(np.eye(4)) - np.eye(4)).max() == 0

    def test_worked_two_by_two(self):
        assert rga(frac_matrix([[2, 1], [1, 1]])) == frac_matrix([[2, -1], [-1, 2]])

    def test_diagonal_scaling_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = rng.integers(2, 7)
            m = rng.standard_normal((n, n)) + n * np.eye(n)
            d = np.diag(rng.uniform(0.2, 5.0, n))
            e = np.diag(rng.uniform(0.2, 5.0, n))
            assert np.abs(rga(d @ m @ e) - rga(m)).max() < 1e-9

    def test_row_and_column_sums_are_one(self):
        rng = np.random.default_rng(8)
        for n in range(2, 9):
            m = rng.standard_normal((n, n)) + n * np.eye(n)
            r = rga(m)
            assert np.abs(r.sum(axis=0) - 1).max() < 1e-9
            assert np.abs(r.sum(axis=1) - 1).max() < 1e-9


class TestIrga:
    def test_worked_demo_pair(self):
        p = load_matrix(data_path("gauge4_demo.mat"))
        expected = load_matrix(data_path("gauge4_demo_irga.mat"))
        assert np.abs(irga(p) - expected).max() < 5e-5

    def test_identity(self):
        assert np.abs(irga(np.eye(5)) - np.eye(5)).max() == 0

    def test_exact_two_by_two_closed_form(self):
        s = irga(frac_matrix([[2, 1], [1, 1]]))
        third = Fraction(1, 3)
        assert s == frac_matrix([[2 * third, third], [third, 2 * third]])

    def test_requires_symmetry(self):
        with pytest.raises(NotSymmetricError):
            irga(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestCheckConjecture:
    def test_worked_demo(self):
        report = check_conjecture(load_matrix(data_path("gauge4_demo.mat")))
        assert report.doubly_stochastic and report.pd and report.nonnegative
        assert report.mode == "float"

    def test_identity_has_zero_min_off_diagonal(self):
        report = check_conjecture(np.eye(3))
        assert report.doubly_stochastic and report.pd
        assert report.min_entry == 0.0

    def test_exact_mode_sums_identically_one(self):
        for seed in range(10):
            sample = random_pd(4, seed, mode="exact")
            report = check_conjecture(sample.p)
            assert report.mode == "exact"
            assert report.max_row_sum_dev == 0 and report.max_col_sum_dev == 0
            assert report.doubly_stochastic
            assert report.pd  # Schur product theorem consequence

    def test_exact_scaling_invariance(self):
        sample = random_pd(3, 99, mode="exact")
        d = Matrix.diagonal([Fraction(3, 2), Fraction(1, 5), Fraction(7, 3)])
        scaled = d @ sample.p @ d
        assert irga(scaled) == irga(sample.p)

    def test_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            check_conjecture(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_rejects_tol_that_is_not_finite_and_nonnegative(self, tol):
        with pytest.raises(ValueError, match="tol"):
            check_conjecture(np.array([[2.0, 1.0], [1.0, 1.0]]), tol=tol)

    def test_zero_tol_is_valid(self):
        report = check_conjecture(np.array([[2.0, 1.0], [1.0, 1.0]]), tol=0.0)
        assert report.nonnegative and report.pd

    def test_counterexample_report_is_not_nonnegative(self):
        outcome = search_counterexample(7, 6000, seed=5)
        assert outcome.found
        assert not outcome.report.nonnegative
        assert not outcome.report.doubly_stochastic


class TestNonFiniteInput:
    # NaN passes the symmetry check (NaN > tol is False) and, in the upper
    # triangle, a Cholesky that reads only the lower one; +inf on the
    # diagonal passes Cholesky too.  Neither may yield a "pd" report.
    @pytest.mark.parametrize(
        "p",
        [
            np.array([[np.nan, 0.0], [0.0, 1.0]]),
            np.array([[1.0, np.nan], [0.0, 1.0]]),
            np.array([[np.inf, 0.0], [0.0, 1.0]]),
        ],
        ids=["nan-diagonal", "nan-upper-only", "inf-diagonal"],
    )
    @pytest.mark.parametrize("check", [check_conjecture, make_gauge], ids=["check", "gauge"])
    def test_raises_not_positive_definite(self, check, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefiniteError):
                check(p)

    @pytest.mark.parametrize(
        "p",
        [
            np.array([[np.nan, 0.0], [0.0, 1.0]]),
            np.array([[1.0, np.nan], [np.nan, 1.0]]),
            np.array([[np.inf, 0.0], [0.0, 1.0]]),
        ],
        ids=["nan-diagonal", "nan-off-diagonal", "inf-diagonal"],
    )
    def test_irga_raises_numerically_singular(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericallySingularError):
                irga(p)


class TestEmptyFloatMatrix:
    # A 0 x 0 array is a dimension error naming its shape, as for birkhoff,
    # not numpy's zero-size reduction error.
    @pytest.mark.parametrize(
        "entry",
        [check_conjecture, irga, rga, linalg.inverse, is_positive_definite, linalg.cholesky, make_gauge],
        ids=lambda f: f.__name__,
    )
    def test_raises_dimension_mismatch(self, entry):
        with pytest.raises(linalg.DimensionMismatchError, match=r"\(0, 0\)"):
            entry(np.zeros((0, 0)))


class TestEmptyExactMatrix:
    # An exact Matrix with no rows or no columns is the same dimension error
    # naming its shape; it is still a ValueError, so an empty matrix file
    # stays a parse error.
    @pytest.mark.parametrize(
        "make, shape",
        [
            (lambda: linalg.Matrix([]), r"\(0, 0\)"),
            (lambda: linalg.Matrix([[]]), r"\(1, 0\)"),
            (lambda: linalg.Matrix.identity(0), r"\(0, 0\)"),
            (lambda: linalg.Matrix([[5]]).submatrix(0, 0), r"\(0, 0\)"),
        ],
        ids=["no-rows", "no-columns", "identity-0", "submatrix-of-1x1"],
    )
    def test_raises_dimension_mismatch(self, make, shape):
        with pytest.raises(linalg.DimensionMismatchError, match=shape):
            make()

    def test_empty_first_row_of_ragged_rows_is_ragged(self):
        with pytest.raises(ValueError, match="ragged rows"):
            linalg.Matrix([[], [1]])


class TestFloatPathPinned:
    def test_rng_range_ten_verdicts(self):
        # Reruns of the float chain are bit-identical, and its absolute 1e-10
        # tolerance misjudges 19 of these 200 moderately conditioned samples.
        # A replacement float inverse must keep that count (bit-level
        # agreement with scipy's LU is pinned in test_linalg).
        not_doubly = 0
        for seed in range(200):
            p = random_pd(5, seed, rng_range=10).p
            first, second = check_conjecture(p), check_conjecture(p)
            assert np.array_equal(first.s, second.s)
            assert first.to_json_dict() == second.to_json_dict()
            not_doubly += not first.doubly_stochastic
        assert not_doubly == 19


class TestFloatReportFields:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("rng_range", [2.0, 10.0])
    def test_fields_are_their_numpy_definitions(self, n, rng_range):
        # The deviations are reduced on Python floats; each field is still
        # the double its numpy expression gives.
        for seed in range(60):
            p = random_pd(n, seed, rng_range=rng_range).p
            report = check_conjecture(p)
            s = report.s
            assert np.array_equal(s, linalg.inverse(p * linalg.inverse(p)))
            assert report.max_row_sum_dev == float(np.abs(s.sum(axis=1) - 1.0).max())
            assert report.max_col_sum_dev == float(np.abs(s.sum(axis=0) - 1.0).max())
            assert report.min_entry == float(s.min())
            assert report.nonnegative == (report.min_entry >= -NONNEG_TOL)
            assert report.doubly_stochastic == (
                report.nonnegative
                and max(report.max_row_sum_dev, report.max_col_sum_dev) <= NONNEG_TOL
            )

    def test_nan_deviation_anywhere_is_nan(self):
        # A composed S built from a NaN child: numpy's max keeps the NaN
        # wherever the NaN row or column stands.
        for k in range(3):
            s = np.full((3, 3), 1.0 / 3.0)
            s[k, 2 - k] = np.nan
            report = _membership_report(s, NONNEG_TOL)
            assert math.isnan(report.max_row_sum_dev) and math.isnan(report.max_col_sum_dev)
            assert math.isnan(report.min_entry) and not report.doubly_stochastic


class TestRandomPd:
    def test_deterministic(self):
        a = random_pd(3, 12345, 2.0)
        b = random_pd(3, 12345, 2.0)
        assert np.array_equal(a.l, b.l)

    def test_size_one(self):
        assert np.array_equal(random_pd(1, 0).p, np.eye(1))

    def test_float_samples_are_pd(self):
        for seed in range(1000):
            sample = random_pd(6, seed)
            assert is_positive_definite(sample.p)

    def test_exact_samples_are_pd_by_sylvester(self):
        for seed in range(25):
            sample = random_pd(4, seed, mode="exact")
            assert is_positive_definite(sample.p)

    def test_exact_draws_are_dyadic(self):
        sample = random_pd(5, 7, mode="exact")
        for row in sample.l.rows:
            for value in row:
                assert (1 << 16) % value.denominator == 0

    def test_validates_n(self):
        with pytest.raises(ValueError):
            random_pd(0, 1)

    @pytest.mark.parametrize("rng_range", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_rejects_rng_range_that_is_not_finite_and_nonnegative(self, mode, rng_range):
        with pytest.raises(ValueError, match="rng_range"):
            random_pd(3, 1, rng_range=rng_range, mode=mode)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_zero_range_gives_the_identity(self, mode):
        sample = random_pd(3, 1, rng_range=0.0, mode=mode)
        p = sample.p.rows if mode == "exact" else sample.p
        assert np.array_equal(np.array(p, dtype=float), np.eye(3))


class TestMix64:
    def test_spread_and_determinism(self):
        values = {mix64(42, t) for t in range(1000)}
        assert len(values) == 1000
        assert mix64(42, 7) == mix64(42, 7)
        assert mix64(42, 7) != mix64(43, 7)

    @pytest.mark.parametrize("seed", [0, 5, 2**63, 2**64 - 1, -1, 2**70])
    def test_vectorised_matches_scalar(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = mix64(seed, np.arange(50, dtype=np.uint64))
        assert values.dtype == np.uint64
        assert [int(v) for v in values] == [mix64(seed, t) for t in range(50)]


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


class TestStreamIdentity:
    """The vectorised draws must equal numpy's own ``default_rng`` streams bit for bit."""

    def test_random_matches_default_rng(self):
        draws = _pcg64.random(STREAM_SEEDS, 40)
        for row, seed in zip(draws, STREAM_SEEDS):
            assert np.array_equal(row, np.random.default_rng(seed).random(40))

    def test_uniform_matches_default_rng(self):
        draws = _uniform(_pcg64.random(STREAM_SEEDS, 40), -1.0, 1.0)
        for row, seed in zip(draws, STREAM_SEEDS):
            assert np.array_equal(row, np.random.default_rng(seed).uniform(-1.0, 1.0, 40))

    @pytest.mark.parametrize("seed", [0, 7919])
    def test_search_draws_match_per_trial_generators(self, seed):
        n, rng_range = 7, 2.0
        rows = np.repeat(np.arange(n - 1), np.arange(1, n))
        expected = np.empty((3000, n * (n - 1) // 2))
        for t in range(3000):
            rng = np.random.default_rng(mix64(seed, t))
            scales = 10.0 ** rng.uniform(-1.5, 0.8, size=n - 1)
            expected[t] = rng.uniform(-1.0, 1.0, size=len(rows)) * scales[rows]
        assert np.array_equal(_search_lower(n, seed, range(3000), rng_range), expected)


def reference_mulhi_mult_lo(a):
    """The pre-change high product: three 64-bit partial sums of limb products."""
    b_lo, b_hi = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)
    limb, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    a_lo, a_hi = a & limb, a >> shift
    lo_lo, lo_hi, hi_lo = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (lo_lo >> shift) + (lo_hi & limb) + (hi_lo & limb)
    return a_hi * b_hi + (lo_hi >> shift) + (hi_lo >> shift) + (mid >> shift)


def reference_step(hi, lo, inc_hi, inc_lo):
    mult_hi, mult_lo = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
    new_lo = lo * mult_lo + inc_lo
    carry = (new_lo < inc_lo).astype(np.uint64)
    new_hi = reference_mulhi_mult_lo(lo) + lo * mult_hi + hi * mult_lo + inc_hi + carry
    return new_hi, new_lo


def reference_random(seeds, k):
    """The pre-change step loop of ``_pcg64.random``, column by column of a
    (len(seeds), k) array, with the rotation masked; also returns each
    output's rotation."""
    u64 = np.uint64
    seeds = np.asarray(seeds, dtype=u64)
    states = [np.random.SeedSequence(int(seed)).generate_state(4, u64) for seed in seeds]
    init_hi, init_lo, seq_hi, seq_lo = np.array(states, dtype=u64).reshape(-1, 4).T
    inc_hi = (seq_hi << u64(1)) | (seq_lo >> u64(63))
    inc_lo = (seq_lo << u64(1)) | u64(1)
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < init_lo).astype(u64)
    hi, lo = reference_step(hi, lo, inc_hi, inc_lo)
    out = np.empty((seeds.size, k))
    rotations = np.empty((seeds.size, k), dtype=u64)
    for j in range(k):
        hi, lo = reference_step(hi, lo, inc_hi, inc_lo)
        xored, rot = hi ^ lo, hi >> u64(58)
        x = (xored >> rot) | (xored << ((u64(64) - rot) & u64(63)))
        out[:, j] = x >> u64(11)
        rotations[:, j] = rot
    return out * (1.0 / 9007199254740992.0), rotations


def reference_search_lower(n, seed, trials, rng_range):
    """The pre-change draws: the step loop, then (C, m) temporaries for the
    affine map and the row scales."""
    m = n * (n - 1) // 2
    u, _ = reference_random(mix64(seed, np.arange(trials, dtype=np.uint64)), n - 1 + m)
    scales = 10.0 ** (-1.5 + (0.8 - -1.5) * u[:, : n - 1])
    rows = np.repeat(np.arange(n - 1), np.arange(1, n))
    half = rng_range / 2.0
    return (-half + (half - -half) * u[:, n - 1 :]) * scales[:, rows]


class TestLeanStep:
    """The shorter PCG64 step and the in-place draws equal the step loop
    they replaced, bit for bit."""

    def test_random_equals_the_step_loop(self):
        seeds = mix64(0, np.arange(4096, dtype=np.uint64))
        draws = _pcg64.random(seeds, 40)
        expected, rotations = reference_random(seeds, 40)
        assert draws.shape == (4096, 40)
        assert np.array_equal(draws, expected)
        # A rotation of 0 shifts the other half by 64 bits; thousands occur.
        assert (rotations == 0).sum() > 1000

    def test_seeds_whose_first_rotation_is_zero(self):
        _, rotations = reference_random(np.arange(2000), 1)
        seeds = np.flatnonzero(rotations[:, 0] == 0)
        assert len(seeds) > 0
        draws = _pcg64.random(seeds, 3)
        for row, seed in zip(draws, seeds.tolist()):
            assert np.array_equal(row, np.random.default_rng(seed).random(3))

    @pytest.mark.parametrize("scratch_rows", [_pcg64.SCRATCH_ROWS, 14, 20, 50])
    def test_fill_continues_one_stream_across_blocks(self, scratch_rows):
        # One block of 13 rows, advanced a group of 1, 2, 3 or 9 draws at a
        # time: the scratch size sets the groups, not the draws.
        seeds = mix64(7919, np.arange(500, dtype=np.uint64))
        out = np.full((13, 500), np.nan)
        scratch = np.empty((scratch_rows, 500))
        scratch[0].view(np.uint64)[:] = seeds
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _pcg64.fill(out, scratch)
        assert np.array_equal(out, reference_random(seeds, 13)[0].T)

    @pytest.mark.parametrize("rng_range", [2.0, 300.0])
    @pytest.mark.parametrize("n", [2, 7, 9])
    def test_hits_draw_their_rows_of_any_chunk(self, n, rng_range):
        # The search draws its hits' L again from their trial ids alone.
        chunk = _search_lower(n, 5, range(1000, 1300), rng_range)
        hits = [1000, 1123, 1299]
        assert np.array_equal(_search_lower(n, 5, hits, rng_range), chunk[[0, 123, 299]])
        assert np.array_equal(_search_lower(n, 5, range(1123, 1124), rng_range), chunk[123:124])

    @pytest.mark.parametrize("rng_range", [2.0, 10.0, 300.0])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_search_lower_equals_the_step_loop(self, n, rng_range):
        for seed in (0, 7919):
            expected = reference_search_lower(n, seed, 300, rng_range)
            assert np.array_equal(_search_lower(n, seed, range(300), rng_range), expected)


class TestSearch:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            search_counterexample(7, 0)

    @pytest.mark.parametrize("tol", [-0.05, float("nan"), float("inf")])
    def test_rejects_tol_that_is_not_finite_and_nonnegative(self, tol):
        with pytest.raises(ValueError, match="tol"):
            search_counterexample(5, 10, seed=1, tol=tol)

    def test_n4_finds_nothing(self):
        outcome = search_counterexample(4, 10000, seed=7)
        assert not outcome.found
        assert outcome.float_hits == 0

    def test_finds_and_certifies_at_n7(self):
        outcome = search_counterexample(7, 6000, seed=5)
        assert outcome.found
        assert outcome.report.mode == "exact"
        assert outcome.report.min_entry < 0
        # The certified L is exactly dyadic.
        for row in outcome.sample.l.rows:
            for value in row:
                assert (1 << 16) % value.denominator == 0

    def test_first_hit_independent_of_chunking(self, monkeypatch):
        module = importlib.import_module("irgalab.irga")
        outcomes = []
        for chunk_size in (101, 512, 2048, 4096):
            monkeypatch.setattr(module, "_CHUNK_SIZE", chunk_size)
            outcomes.append(search_counterexample(7, 6000, seed=5))
        assert len({outcome.trial_index for outcome in outcomes}) == 1
        assert len({outcome.float_hits for outcome in outcomes}) == 1

    def test_pinned_stream(self):
        # Any change to how trials draw shows up here, not as a silent drift.
        outcome = search_counterexample(7, 6000, seed=5)
        assert (outcome.trial_index, outcome.float_hits) == (3688, 2)

    @pytest.mark.parametrize(
        "seed, trials, expected",
        [(-1, 3000, (166, 1)), (2**70, 6000, (5707, 1))],
    )
    def test_seeds_reduce_modulo_2_64(self, seed, trials, expected):
        outcome = search_counterexample(7, trials, seed=seed)
        assert (outcome.trial_index, outcome.float_hits) == expected
        assert outcome.seed == seed

    def test_pinned_headline_search(self):
        # irga search-counterexample --n 7 --trials 100000 --seed 0
        outcome = search_counterexample(7, 100000, seed=0)
        assert (outcome.trial_index, outcome.float_hits, outcome.uncertified_hits) == (5707, 10, 0)

    def test_pinned_held_out_headline_search(self):
        # irga search-counterexample --n 7 --trials 100000 --seed 7919
        outcome = search_counterexample(7, 100000, seed=7919)
        assert (outcome.trial_index, outcome.float_hits, outcome.uncertified_hits) == (815, 14, 0)

    def test_exact_certification_refutes_float_noise(self):
        # Every reported hit is exact; uncertified float hits are counted.
        outcome = search_counterexample(7, 6000, seed=5)
        assert outcome.uncertified_hits == 0


def reference_min_irga_entries(n, lower):
    """The LU screen the search used before: two np.linalg.inv calls per chunk."""
    count = len(lower)
    ls = np.broadcast_to(np.eye(n), (count, n, n)).copy()
    tril = np.tril_indices(n, -1)
    ls[:, tril[0], tril[1]] = lower
    ps = ls @ np.transpose(ls, (0, 2, 1))
    ss = np.linalg.inv(ps * np.linalg.inv(ps))
    return ss.reshape(count, -1).min(axis=1)


def reference_spd_inverse(a):
    """The pre-change inverse of a lower triangle of trial vectors: C, Y and
    S all kept whole."""
    n = len(a)
    c = []
    for i in range(n):
        row = []
        c.append(row)
        for j in range(i + 1):
            acc = a[i][j]
            for k in range(j):
                acc = acc - row[k] * c[j][k]
            row.append(np.sqrt(acc) if i == j else acc / c[j][j])
    y = []
    for i in range(n):
        row = [-linalg._dot(c[i][j:i], [y[k][j] for k in range(j, i)]) / c[i][i] for j in range(i)]
        y.append(row + [1.0 / c[i][i]])
    return [
        [linalg._dot([r[i] for r in y[i:]], [r[j] for r in y[i:]]) for j in range(i + 1)]
        for i in range(n)
    ]


def reference_stacked_screen(n, lower):
    """The pre-change screen: every entry of S stacked, then ``ss.min``."""
    with np.errstate(all="ignore"):
        ts = _t_from_lower(_build_lower(n, lower.T, 1.0, 0.0))
        ss = np.array([entry for row in reference_spd_inverse(ts) for entry in row])
        mins = ss.min(axis=0)
    mins[~np.isfinite(ss).all(axis=0)] = np.inf
    return mins


def reference_t_from_lower(l):
    """The pre-change builder: X row by row, and each dot of T ending with a
    product by a unit diagonal, l[i][j] * 1 and 1 * x[i][j]."""
    n = len(l)
    x = [list(row) for row in l]
    for i in range(n):
        for j in range(i):
            x[i][j] = -sum((l[i][k] * x[k][j] for k in range(j + 1, i)), l[i][j])
    rows = [row[: i + 1] for i, row in enumerate(l)]
    cols = [[x[k][j] for k in range(n - 1, j - 1, -1)] for j in range(n)]
    t = [
        [linalg._dot(rows[i], rows[j]) * linalg._dot(cols[i], cols[j]) for j in range(i + 1)]
        for i in range(n)
    ]
    return [[t[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]


class TestHadamardGramBuilder:
    """``_t_from_lower`` builds T = P o P^-1 for P = L L^T without factorizing P."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_int_entries_equal_the_unit_products(self, n):
        values = [(-1) ** k * (k + 2) for k in range(n * (n - 1) // 2)]
        l = _build_lower(n, values, 1, 0)
        t = _t_from_lower(l)
        assert t == reference_t_from_lower(l)
        assert all(type(entry) is int for row in t for entry in row)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_fraction_entries_equal_the_unit_products(self, n):
        for seed in range(3):
            l = [list(row) for row in random_pd(n, seed, mode="exact").l.rows]
            before = [list(row) for row in l]
            assert _t_from_lower(l) == reference_t_from_lower(l)
            # The caller's rows are left as they were.
            assert l == before

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_polynomial_entries_equal_the_unit_products(self, n):
        rows = sos._symbolic_lower(n).rows
        assert _t_from_lower(rows) == reference_t_from_lower(rows)

    @pytest.mark.parametrize("rng_range", [2.0, 300.0])
    @pytest.mark.parametrize("n", [2, 5, 7, 12])
    def test_float_stacks_equal_the_unit_products_bit_for_bit(self, n, rng_range):
        lower = _search_lower(n, 7919, range(300), rng_range).copy()
        lower[123] *= 1e200
        l = _build_lower(n, lower.T, 1.0, 0.0)
        with np.errstate(all="ignore"):
            t = np.array(_t_from_lower(l))
            expected = np.array(reference_t_from_lower(l))
        assert t.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rng_range", [2.0, 300.0])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_screen_forms_the_same_t(self, n, rng_range):
        # The search's screen forms T in its workspace by the same operations.
        module = importlib.import_module("irgalab.irga")
        lower = _search_lower(n, 7919, range(300), rng_range).copy()
        lower[123] *= 1e200
        ws = module._workspace(n, 300)
        np.copyto(module._lower_rows(n, ws), lower.T)
        with np.errstate(all="ignore"):
            expected = _t_from_lower(_build_lower(n, lower.T, 1.0, 0.0))
            t = module._form_t(n, ws)
        off = module._column_starts(n)
        assert len(t) == off[n] == n * (n + 1) // 2
        for j in range(n):
            for i in range(j, n):
                assert np.array_equal(t[off[j] + i - j], expected[i][j], equal_nan=True)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_exact_on_dyadic_samples(self, n):
        for seed in range(3):
            sample = random_pd(n, seed, mode="exact")
            p = sample.p
            assert Matrix(_t_from_lower(sample.l.rows)) == p.hadamard(p.inverse())

    @pytest.mark.parametrize("n", range(2, 8))
    def test_float_stacks_agree_with_lapack(self, n):
        lower = _search_lower(n, 0, range(300), 2.0)
        t = np.array(_t_from_lower(_build_lower(n, lower.T, 1.0, 0.0)))
        ls = np.broadcast_to(np.eye(n), (300, n, n)).copy()
        tril = np.tril_indices(n, -1)
        ls[:, tril[0], tril[1]] = lower
        p = ls @ np.transpose(ls, (0, 2, 1))
        expected = p * np.linalg.inv(p)
        # Entries reach about 3e4 at n = 7, so the bound is relative as well.
        np.testing.assert_allclose(np.moveaxis(t, -1, 0), expected, rtol=1e-9, atol=1e-9)


# One n = 7 chunk of the search peaks at 52.4 vectors of _CHUNK_SIZE doubles
# in traced memory: the workspace's 50 rows (L's 21, the 28 that hold X, T,
# C and Y in turn, and one for a dot of two rows of L) and the 2 vectors of
# numpy's iterator buffer, which a ufunc that broadcasts a row over a slab
# allocates.  X and T sharing their rows is what keeps it there: a row each
# for L, X and T would take 70.
SIZE_SEVEN_CHUNK_VECTORS = 54

_FAULT_PROBE = """
import resource
from irgalab.irga import search_counterexample
search_counterexample(7, 100000, seed=0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
search_counterexample(7, 100000, seed=0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestScreenMemory:
    def test_one_size_seven_chunk_stays_within_its_vector_budget(self):
        module = importlib.import_module("irgalab.irga")
        chunk = module._CHUNK_SIZE
        # Draw, screen and certify one chunk once untraced, so that imports
        # and first-call caches do not count.
        search_counterexample(7, chunk, seed=0)
        tracemalloc.start()
        try:
            search_counterexample(7, chunk, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * chunk) < SIZE_SEVEN_CHUNK_VECTORS

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
    def test_a_second_search_faults_in_few_pages(self):
        # A buffer per chunk vector lets glibc trim the heap after each chunk
        # and fault it back in for the next: about 9,600 faults per search.
        # One workspace per search costs a few hundred.
        proc = subprocess.run(
            [sys.executable, "-c", _FAULT_PROBE],
            capture_output=True,
            text=True,
            cwd=Path(importlib.import_module("irgalab").__file__).resolve().parent.parent,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 1500


# numpy calls that one n = 7 chunk makes to draw its trials (408) and screen
# them (334); each costs about 1 us besides its work on the rows.
SIZE_SEVEN_CHUNK_CALLS = 746


class _CountingNumpy:
    """Stands in for ``np`` in a module: counts each call of a numpy function,
    ufunc or ufunc method (``np.add.reduce``); types and constants pass through."""

    def __init__(self):
        self.calls = [0]

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, type) or not callable(attr):
            return attr
        return _CountedCall(attr, self.calls)


class _CountedCall:
    def __init__(self, fn, calls):
        self.fn, self.calls = fn, calls

    def __call__(self, *args, **kwargs):
        self.calls[0] += 1
        return self.fn(*args, **kwargs)

    def __getattr__(self, name):
        return _CountedCall(getattr(self.fn, name), self.calls)


class TestDot:
    # The screen's dots go through np.einsum, which must add the rows'
    # products in row order, as np.add.reduce over axis 0 does.  It does so
    # only on forward rows at least two columns wide: on a reversed view
    # einsum's iterator flips the axis and sums from the other end, and on a
    # single column it sums in yet another order, so the screen passes
    # neither.
    @pytest.mark.parametrize("width", [2, 3, 97, 4096])
    @pytest.mark.parametrize("k", range(2, 12))
    def test_equals_products_summed_row_by_row(self, k, width):
        module = importlib.import_module("irgalab.irga")
        rng = np.random.default_rng(1000 * k + width)
        a, b = (
            rng.standard_normal((k, width)) * 10.0 ** rng.integers(-150, 150, (k, width))
            for _ in range(2)
        )
        a[rng.random((k, width)) < 0.25] = 0.0
        b[rng.random((k, width)) < 0.25] = -0.0
        a[:, 0] = -0.0  # a column of signed zeros
        out = np.empty(width)
        module._dot(a, b, out)
        expected = np.add.reduce(np.multiply(a, b), axis=0)
        assert out.tobytes() == expected.tobytes()
        module._dot(a[:1], b[:1], out)
        assert out.tobytes() == np.multiply(a[0], b[0]).tobytes()


class TestScreenCalls:
    def test_one_size_seven_chunk_stays_within_its_call_budget(self, monkeypatch):
        module = importlib.import_module("irgalab.irga")
        n, chunk = 7, module._CHUNK_SIZE
        ws = module._workspace(n, chunk)
        counting = _CountingNumpy()
        monkeypatch.setattr(module, "np", counting)
        monkeypatch.setattr(_pcg64, "np", counting)
        module._draw(n, 0, range(chunk), 2.0, ws)
        mins = module._screen(n, ws)
        monkeypatch.undo()
        assert len(ws) == 50
        assert np.array_equal(mins, _min_irga_entries(n, _search_lower(n, 0, range(chunk), 2.0)))
        assert counting.calls[0] <= SIZE_SEVEN_CHUNK_CALLS


class TestFloatScreen:
    @pytest.mark.parametrize("rng_range", [2.0, 300.0])
    @pytest.mark.parametrize("n", [2, 5, 7, 9, 12])
    def test_bit_identical_whatever_the_chunking(self, n, rng_range):
        lower = _search_lower(n, 0, range(300), rng_range)
        whole = _min_irga_entries(n, lower)
        alone = np.concatenate([_min_irga_entries(n, lower[t : t + 1]) for t in range(300)])
        starts = range(0, 300, 97)
        slices = np.concatenate([_min_irga_entries(n, lower[s : s + 97]) for s in starts])
        assert np.array_equal(whole, alone)
        assert np.array_equal(whole, slices)

    def test_reused_workspace_leaks_nothing_between_chunks(self):
        # The search draws and screens every chunk in one workspace; the last
        # chunk of 100,000 trials is 1,696 long and uses part of its memory.
        module = importlib.import_module("irgalab.irga")
        n, chunk = 7, module._CHUNK_SIZE
        ws = module._workspace(n, chunk)
        for start, stop, scaled in [(0, chunk, 123), (chunk, 2 * chunk, None), (24 * chunk, 100000, None)]:
            rows = module._workspace(n, stop - start, ws)
            module._draw(n, 5, range(start, stop), 2.0, rows)
            lower = module._lower_rows(n, rows)
            if scaled is not None:
                lower[:, scaled] *= 1e200
            expected = _min_irga_entries(n, lower.T.copy())
            mins = module._screen(n, rows)
            assert len(mins) == stop - start
            assert np.array_equal(mins, expected)
            assert np.isfinite(mins).sum() == len(mins) - (scaled is not None)

    def test_trial_that_is_not_numerically_pd_screens_as_inf(self):
        lower = _search_lower(7, 5, range(300), 2.0)
        lower[123] *= 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mins = _min_irga_entries(7, lower)
        assert mins[123] == np.inf
        alone = np.concatenate([_min_irga_entries(7, lower[t : t + 1]) for t in range(300)])
        assert np.array_equal(mins, alone)
        assert np.isfinite(np.delete(mins, 123)).all()

    @pytest.mark.parametrize("n", [2, 5, 7, 9, 12])
    def test_minimum_agrees_with_the_lu_screen(self, n):
        # Cholesky and pivoted LU round differently; at rng_range 2 the
        # trials are well conditioned, so the minima agree to about 1e7 ulp.
        lower = _search_lower(n, 0, range(300), 2.0)
        expected = reference_min_irga_entries(n, lower)
        np.testing.assert_allclose(_min_irga_entries(n, lower), expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rng_range", [2.0, 10.0])
    @pytest.mark.parametrize("n", [7, 8])
    def test_hits_match_the_lu_screen(self, n, rng_range, seed):
        lower = _search_lower(n, seed, range(20000), rng_range)
        hits = np.flatnonzero(_min_irga_entries(n, lower) < -1e-10)
        expected = np.flatnonzero(reference_min_irga_entries(n, lower) < -1e-10)
        assert np.array_equal(hits, expected)

    @pytest.mark.parametrize("rng_range", [2.0, 10.0, 300.0])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_running_minimum_equals_the_stacked_screen(self, n, rng_range):
        lower = _search_lower(n, 0, range(300), rng_range).copy()
        lower[123] *= 1e200
        mins = _min_irga_entries(n, lower)
        assert mins[123] == np.inf
        assert np.array_equal(mins, reference_stacked_screen(n, lower))

import importlib
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest

from irgalab import _pcg64
from irgalab.irga import (
    _build_lower,
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
        for chunk_size in (101, 512, 2048):
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


class TestHadamardGramBuilder:
    """``_t_from_lower`` builds T = P o P^-1 for P = L L^T without factorizing P."""

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

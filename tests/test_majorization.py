import copy
import dataclasses
import gc
import math
import pickle

import numpy as np
import pytest

from irgalab import majorization
from irgalab.irga import check_conjecture, random_pd
from irgalab.linalg import DimensionMismatchError, Matrix
from irgalab.majorization import (
    BirkhoffDecomposition,
    NotDoublyStochasticError,
    TransferChain,
    _entropy_or_none,
    _find_matching,
    _matching,
    birkhoff,
    majorizes,
    shannon_entropy,
    transfer_chain,
)
from irgalab.spdd import make_gauge, make_spdd


def reference_birkhoff(s, tol=1e-9):
    """The numpy-array Birkhoff loop that ``birkhoff`` replaced, kept as its reference."""
    n = s.shape[0]

    def find_matching(support):
        match_col = [-1] * n

        def augment(row, seen):
            for col in range(n):
                if support[row, col] and not seen[col]:
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

    residual = s.clip(min=0.0)
    weights, perms = [], []
    while residual.max() > tol:
        perm = find_matching(residual > tol)
        weight = float(min(residual[r, c] for r, c in enumerate(perm)))
        weights.append(weight)
        perms.append(tuple(perm))
        for r, c in enumerate(perm):
            residual[r, c] -= weight
    return tuple(weights), tuple(perms)


def random_doubly_stochastic(rng, n, mixtures=None):
    """Random convex combination of permutation matrices."""
    if mixtures is None:
        mixtures = int(rng.integers(2, (n - 1) ** 2 + 2))
    weights = rng.dirichlet(np.ones(mixtures))
    s = np.zeros((n, n))
    for w in weights:
        perm = rng.permutation(n)
        s[np.arange(n), perm] += w
    return s


class TestMajorizes:
    def test_extreme_majorizes_uniform(self):
        assert majorizes([1.0, 0.0], [0.5, 0.5]).holds

    def test_three_two_one_majorizes_uniform(self):
        verdict = majorizes([3.0, 2.0, 1.0], [2.0, 2.0, 2.0])
        assert verdict.holds
        assert verdict.prefix_deficits == (1.0, 1.0, 0.0)

    def test_unequal_sums(self):
        verdict = majorizes([1.0, 0.0], [0.6, 0.6])
        assert not verdict.holds
        assert verdict.sum_gap == pytest.approx(0.2)

    def test_order_invariance(self):
        assert majorizes([1.0, 3.0, 2.0], [2.0, 2.0, 2.0]).holds

    def test_length_mismatch(self):
        from irgalab.linalg import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            majorizes([1.0, 2.0], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_rejects_a_bad_tol(self, tol):
        # Unchecked, an infinite tol makes this verdict hold and a NaN one
        # makes every verdict fail; the chain is checked through majorizes.
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            majorizes([2.0, 1.0, 1.0], [5.0, 0.0, 0.0], tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            transfer_chain([2.0, 1.0, 1.0], [4 / 3, 4 / 3, 4 / 3], tol=tol)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("rng_range", [2.0, 10.0])
    def test_deficits_are_the_numpy_prefix_sums(self, n, rng_range):
        # The prefix sums run on Python floats; each deficit is still the
        # double of numpy's cumsum on the descending sorts.
        rng = np.random.default_rng(n + int(rng_range))
        for seed in range(40):
            gauge = make_gauge(random_pd(n, seed, rng_range=rng_range).p)
            spectrum = rng.uniform(1e-6, 10.0, n)
            diagonal = make_spdd(gauge, spectrum).diagonal
            for y, x in ((diagonal, spectrum), (spectrum, diagonal)):
                deficits = np.cumsum(np.sort(y)[::-1]) - np.cumsum(np.sort(x)[::-1])
                verdict = majorizes(y, x)
                assert verdict.prefix_deficits == tuple(float(d) for d in deficits)
                assert verdict.sum_gap == float(x.sum() - y.sum())
                assert verdict.holds == bool(
                    deficits.min() >= -verdict.tol and abs(verdict.sum_gap) <= verdict.tol
                )


class TestMajorizesNearTheFloatLimit:
    # Sums that overflow are computed on both vectors scaled by one power of
    # two; finite-sum inputs take the plain path (pinned above).
    def test_equal_vectors_whose_sums_overflow(self):
        verdict = majorizes([1e308, 1e308], [1e308, 1e308])
        assert verdict.holds
        assert verdict.prefix_deficits == (0.0, 0.0)
        assert verdict.sum_gap == 0.0

    def test_a_deficit_that_overflows_stays_infinite(self):
        verdict = majorizes([1e308, 1e308], [1e308, -1e308])
        assert not verdict.holds
        assert verdict.prefix_deficits == (0.0, math.inf)
        assert verdict.sum_gap == -math.inf

    def test_scaling_is_exact(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            y = rng.uniform(0.0, 1.0, n)
            x = rng.permutation(y) * rng.uniform(0.5, 1.5, n)
            small = majorizes(y, x)
            big = majorizes(np.ldexp(y, 1023), np.ldexp(x, 1023))
            assert big.prefix_deficits == tuple(math.ldexp(d, 1023) for d in small.prefix_deficits)
            assert big.sum_gap == math.ldexp(small.sum_gap, 1023)
            assert big.holds == majorizes(y, x, tol=math.ldexp(1e-9, -1023)).holds

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_entry_is_not_scaled(self, bad):
        verdict = majorizes([bad, 1e308, 1e308], [1.0, 1.0, 1.0])
        assert not verdict.holds
        assert not all(map(math.isfinite, verdict.prefix_deficits))


class TestEmptyInput:
    # Empty vectors and matrices are a dimension error naming the shape,
    # not numpy's zero-size reduction error.
    def test_majorizes(self):
        with pytest.raises(DimensionMismatchError, match=r"\(0,\)"):
            majorizes([], [])

    def test_transfer_chain(self):
        with pytest.raises(DimensionMismatchError, match=r"\(0,\)"):
            transfer_chain([], [])

    def test_birkhoff(self):
        with pytest.raises(DimensionMismatchError, match=r"\(0, 0\)"):
            birkhoff(np.zeros((0, 0)))


class TestTransferChain:
    def test_single_averaging_step(self):
        chain = transfer_chain([1.0, 0.0], [0.5, 0.5])
        assert len(chain) == 1
        (t,) = chain.transforms
        assert t.lam == pytest.approx(0.5) and (t.j, t.k) == (0, 1)

    def test_equal_vectors_give_empty_chain(self):
        assert len(transfer_chain([2.0, 1.0], [2.0, 1.0])) == 0

    def test_three_to_uniform_takes_two(self):
        y, x = [3.0, 2.0, 1.0], [2.0, 2.0, 2.0]
        chain = transfer_chain(y, x)
        assert len(chain) == 2
        assert np.abs(chain.apply(y) - x).max() < 1e-10

    def test_requires_majorization(self):
        with pytest.raises(ValueError):
            transfer_chain([1.0, 1.0], [2.0, 0.0])

    def test_sorted_inputs_use_at_most_n_minus_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            y = np.sort(rng.uniform(0, 5, n))[::-1]
            s = random_doubly_stochastic(rng, n)
            x = np.sort(s @ y)[::-1]
            chain = transfer_chain(y, x)
            assert len(chain) <= n - 1
            assert np.abs(chain.apply(y) - x).max() < 1e-10

    def test_witness_equivalence_and_matrix(self):
        # majorizes holds <=> the chain exists; its composed matrix is
        # doubly stochastic and maps y to x.
        rng = np.random.default_rng(1)
        for _ in range(120):
            n = int(rng.integers(2, 8))
            y = rng.uniform(-2, 4, n)
            s = random_doubly_stochastic(rng, n)
            x = s @ y
            assert majorizes(y, x).holds
            chain = transfer_chain(y, x)
            m = chain.matrix(n)
            assert np.abs(m @ y - x).max() < 1e-9
            assert m.min() >= -1e-12
            assert np.abs(m.sum(axis=0) - 1).max() < 1e-9
            assert np.abs(m.sum(axis=1) - 1).max() < 1e-9

    def test_lambda_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            y = rng.uniform(0, 3, n)
            x = random_doubly_stochastic(rng, n) @ y
            for t in transfer_chain(y, x):
                assert 0.0 <= t.lam <= 1.0

    def test_empty_chain_copies_its_input(self):
        y = np.array([2.0, 1.0])
        out = TransferChain(()).apply(y)
        assert out is not y
        np.testing.assert_array_equal(out, y)

    def test_swap_fix_up_leaves_the_source_unchanged(self):
        # The sorted chain is empty and one swap reorders y onto x.
        y = np.array([1.0, 2.0])
        chain = transfer_chain(y, [2.0, 1.0])
        assert [(t.lam, t.j, t.k) for t in chain] == [(0.0, 0, 1)]
        np.testing.assert_array_equal(y, [1.0, 2.0])


class TestBirkhoff:
    def test_two_by_two_unique_decomposition(self):
        s = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        decomposition = birkhoff(s)
        got = sorted(zip(decomposition.weights, decomposition.permutations))
        assert got[0][0] == pytest.approx(1 / 3) and got[0][1] == (1, 0)
        assert got[1][0] == pytest.approx(2 / 3) and got[1][1] == (0, 1)

    def test_exact_matrix_is_read_as_floats(self):
        s = make_gauge(random_pd(3, 0, mode="exact").p).s
        assert isinstance(s, Matrix)
        assert birkhoff(s) == birkhoff(s.to_float_array())

    def test_decomposition_has_slots_and_stays_frozen(self):
        decomposition = birkhoff(np.eye(3))
        assert not hasattr(decomposition, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            decomposition.n = 4

    @pytest.mark.parametrize(
        "clone",
        [lambda d: pickle.loads(pickle.dumps(d)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_decomposition_survives_pickle_and_copy(self, clone):
        decomposition = birkhoff(make_gauge(random_pd(4, 1).p).s)
        cloned = clone(decomposition)
        assert type(cloned) is BirkhoffDecomposition and cloned == decomposition

    def test_identity(self):
        decomposition = birkhoff(np.eye(4))
        assert len(decomposition) == 1
        assert decomposition.weights[0] == pytest.approx(1.0)
        assert decomposition.permutations[0] == (0, 1, 2, 3)

    def test_rejects_bad_column_sums(self):
        with pytest.raises(NotDoublyStochasticError):
            birkhoff(np.array([[0.9, 0.2], [0.1, 0.8]]))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(NotDoublyStochasticError):
            birkhoff(np.array([[np.nan, 0.5], [0.5, 0.5]]))

    def test_equals_numpy_reference(self):
        # Same matching order and the same float subtractions: equal to the bit.
        rng = np.random.default_rng(17)
        for k in range(300):
            n = int(rng.integers(2, 7))
            report = check_conjecture(random_pd(n, k, rng_range=2.0).p)
            s = report.s if k % 2 and report.doubly_stochastic else random_doubly_stochastic(rng, n + 1)
            decomposition = birkhoff(s)
            assert (decomposition.weights, decomposition.permutations) == reference_birkhoff(s)

    def test_equals_numpy_reference_on_a_long_decomposition(self):
        # An n = 6 gauge S from the wide band: 24 greedy steps, each
        # updating six cells of the flat residual.
        s = make_gauge(random_pd(6, 1, rng_range=10.0).p).s
        decomposition = birkhoff(s)
        assert len(decomposition) == 24
        assert (decomposition.weights, decomposition.permutations) == reference_birkhoff(s)

    def test_rejects_negative_entries(self):
        with pytest.raises(NotDoublyStochasticError):
            birkhoff(np.array([[1.1, -0.1], [-0.1, 1.1]]))

    def test_leaves_no_cyclic_garbage(self):
        # The matching's augmenting path is a module-level function, so a
        # decomposition frees everything it made by reference counting.
        gauge = make_gauge(random_pd(6, 2).p)
        assert gauge.valid
        gc.collect()
        gc.disable()
        try:
            decomposition = birkhoff(gauge.s)
            assert len(decomposition) > 6
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_sum_check_is_numpy_sums_against_tol(self):
        # Rejected for its sums exactly when numpy's row or column sums of
        # the input miss 1 by more than tol, at sizes where numpy sums rows
        # pairwise too.
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.integers(2, 11))
            s = random_doubly_stochastic(rng, n) + rng.uniform(0.0, 1e-9, (n, n))
            tol = float(rng.uniform(1e-10, 4e-9))
            expected = max(
                np.abs(s.sum(axis=1) - 1.0).max(), np.abs(s.sum(axis=0) - 1.0).max()
            ) > tol
            try:
                birkhoff(s, tol=tol)
                rejected = False
            except NotDoublyStochasticError as exc:
                rejected = "sums" in str(exc)
            assert rejected == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), (2, 2)])
    def test_non_finite_entry_anywhere(self, bad, where):
        s = np.full((3, 3), 1.0 / 3.0)
        s[where] = bad
        with pytest.raises(NotDoublyStochasticError, match="non-finite"):
            birkhoff(s)

    def test_empty_decomposition_reconstructs_zeros(self):
        decomposition = birkhoff(np.full((2, 2), 0.5), tol=0.5)
        assert len(decomposition) == 0 and decomposition.n == 2
        np.testing.assert_array_equal(decomposition.reconstruct(), np.zeros((2, 2)))
        assert decomposition.to_json_dict() == {"weights": [], "permutations": []}

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_a_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            birkhoff(np.eye(2), tol=tol)

    def test_random_reconstruction_and_budget(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            s = random_doubly_stochastic(rng, n)
            decomposition = birkhoff(s)
            assert len(decomposition) <= (n - 1) ** 2 + 1
            assert np.abs(decomposition.reconstruct() - s).max() <= 1e-9
            assert abs(sum(decomposition.weights) - 1.0) <= 1e-10


def support_of(n, mask):
    """Row r lists, in order, the columns c whose bit r*n + c is set in mask."""
    return [[c for c in range(n) if mask >> (r * n + c) & 1] for r in range(n)]


def residual_of(n, mask):
    """Entry (r, c) is 1.0 where bit r*n + c is set in mask, else 0.0."""
    return [[float(mask >> (r * n + c) & 1) for c in range(n)] for r in range(n)]


@pytest.fixture
def matchings(monkeypatch):
    """An empty matching memo for one test, the module's own restored after."""
    memo = {}
    monkeypatch.setattr(majorization, "_MATCHINGS", memo)
    return memo


class TestMatchingMemo:
    def test_cold_and_warm_equal_numpy_reference(self, matchings):
        rng = np.random.default_rng(17)
        for k in range(300):
            n = int(rng.integers(2, 7))
            report = check_conjecture(random_pd(n, k, rng_range=2.0).p)
            s = report.s if k % 2 and report.doubly_stochastic else random_doubly_stochastic(rng, n + 1)
            expected = reference_birkhoff(s)
            matchings.clear()
            for _ in ("cold", "warm"):
                decomposition = birkhoff(s)
                assert (decomposition.weights, decomposition.permutations) == expected

    def test_key_holds_the_size(self, matchings):
        # Bits 0 and 3 are the diagonal of a 2 x 2 support, but entries
        # (0, 0) and (1, 0) of a 3 x 3 one, which has no perfect matching.
        mask = 0b1001
        assert _matching(2, mask, residual_of(2, mask), 0.5) == (0, 1)
        assert _matching(3, mask, residual_of(3, mask), 0.5) is None
        # One int key per size: the mask with bit n * n set above it.
        assert list(matchings) == [9 | 1 << 4, 9 | 1 << 9]
        assert _matching(2, mask, residual_of(2, mask), 0.5) == _find_matching(support_of(2, mask))

    def test_second_decomposition_runs_no_search(self, matchings, monkeypatch):
        searches = []

        def counted(support):
            searches.append(support)
            return _find_matching(support)

        monkeypatch.setattr(majorization, "_find_matching", counted)
        s = make_gauge(random_pd(6, 2).p).s
        first = birkhoff(s)
        assert 0 < len(searches) <= len(first)
        searches.clear()
        second = birkhoff(s)
        assert searches == []
        assert second == first
        # The permutations are the memo's tuples, shared between the two.
        assert all(a is b for a, b in zip(first.permutations, second.permutations))

    def test_no_perfect_matching_raises_every_time(self, matchings):
        # Sums are 1 and the negative entry is within tol, but rows 0 and 1
        # both have column 0 alone above tol.
        s = np.array([[0.6, 0.2, 0.2], [0.6, 0.2, 0.2], [-0.2, 0.6, 0.6]])
        for _ in range(2):
            with pytest.raises(NotDoublyStochasticError, match="no perfect matching"):
                birkhoff(s, tol=0.3)
        assert list(matchings.values()) == [None]

    def test_never_grows_past_its_bound(self, matchings, monkeypatch):
        monkeypatch.setattr(majorization, "_MATCHINGS_MAX", 5)
        searches = []

        def counted(support):
            searches.append(support)
            return _find_matching(support)

        monkeypatch.setattr(majorization, "_find_matching", counted)
        rng = np.random.default_rng(23)
        for _ in range(60):
            s = random_doubly_stochastic(rng, int(rng.integers(2, 7)))
            decomposition = birkhoff(s)
            assert len(matchings) <= 5
            assert (decomposition.weights, decomposition.permutations) == reference_birkhoff(s)
        assert len(searches) > 5


class TestEntropy:
    def test_uniform(self):
        for n in (2, 5, 9):
            assert shannon_entropy(np.ones(n)) == pytest.approx(np.log(n))

    def test_point_mass(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_half_quarter_quarter(self):
        assert shannon_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5 * np.log(2))

    def test_normalization(self):
        assert shannon_entropy([2.0, 2.0]) == pytest.approx(np.log(2))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.5, -0.5])

    def test_empty_vector_has_no_entropy(self):
        with pytest.raises(ValueError, match="empty vector"):
            shannon_entropy([])
        assert _entropy_or_none([]) is None

    @pytest.mark.parametrize(
        "v, expected",
        [
            ([0.5, 0.25, 0.25], 1.5 * np.log(2)),
            ([1.0, -1e-13], 0.0),  # noise within 1e-12 is clipped
            ([0.5, -0.5], None),
            ([0.0, 0.0], None),
        ],
    )
    def test_entropy_or_none_is_none_exactly_where_undefined(self, v, expected):
        assert _entropy_or_none(v) == pytest.approx(expected)

    def test_entropy_implication(self):
        # x = S y with S doubly stochastic implies x <- y and H(x) >= H(y).
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            y = rng.uniform(0, 3, n)
            if y.sum() == 0:
                continue
            x = random_doubly_stochastic(rng, n) @ y
            assert majorizes(y, x).holds
            assert shannon_entropy(x) >= shannon_entropy(y) - 1e-9

    # Warnings are errors in this suite already; the mark keeps it so here.
    @pytest.mark.filterwarnings("error")
    def test_overflowing_sum_is_scaled_without_warning(self):
        assert shannon_entropy([1e308, 1e308]) == pytest.approx(np.log(2))
        assert shannon_entropy([1.7e308, 0.0, 1.7e308, 1.7e308]) == pytest.approx(np.log(3))

    def test_finite_total_is_the_unscaled_formula(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            v = rng.uniform(0, 10.0 ** rng.integers(-300, 300), int(rng.integers(1, 9)))
            z = v / v.sum()
            z = z[z > 0]
            assert shannon_entropy(v) == 0.0 - (z * np.log(z)).sum()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_has_no_entropy(self, bad):
        # A NaN or +inf entry must not read as a point mass (entropy 0.0).
        with pytest.raises(ValueError):
            shannon_entropy([bad, 1.0])
        assert _entropy_or_none([1.0, bad]) is None

    def test_point_mass_entropy_is_positive_zero(self):
        for v in ([3.0], [0.0, 5.0]):
            assert math.copysign(1.0, shannon_entropy(v)) == 1.0

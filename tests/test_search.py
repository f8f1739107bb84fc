import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irgalab.irga import random_pd
from irgalab.linalg import DimensionMismatchError
from irgalab.majorization import majorizes
from irgalab.search import SearchConfig, _admissible, neighbors, run, step
from irgalab.spdd import make_gauge


def worked_gauge():
    return make_gauge(np.array([[2.0, 1.0], [1.0, 1.0]]))


class TestNeighbors:
    def test_two_entries(self):
        got = [tuple(v) for _, _, v in neighbors([2.0, 2.0], 1.0)]
        assert got == [(3.0, 1.0), (1.0, 3.0)]

    def test_positivity_boundary(self):
        assert neighbors([1.0, 1.0], 1.0) == []

    def test_three_entries_half_step(self):
        got = neighbors([3.0, 1.0, 1.0], 0.5)
        assert len(got) == 6
        for _, _, v in got:
            assert v.sum() == pytest.approx(5.0)
            assert v.min() > 0

    def test_enumeration_order(self):
        pairs = [(i, j) for i, j, _ in neighbors([5.0, 5.0, 5.0], 1.0)]
        assert pairs == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def test_requires_positive_spectrum(self):
        with pytest.raises(ValueError):
            neighbors([1.0, 0.0], 0.5)


class TestStep:
    def test_worked_move_to_uniform(self):
        config = SearchConfig(delta=1.0, direction="max_entropy")
        result = step(worked_gauge(), [3.0, 1.0], config)
        assert result is not None
        assert np.abs(result - np.array([2.0, 2.0])).max() < 1e-12

    def test_local_optimum_at_uniform(self):
        config = SearchConfig(delta=1.0, direction="max_entropy")
        assert step(worked_gauge(), [2.0, 2.0], config) is None

    def test_min_entropy_tie_break_by_enumeration(self):
        config = SearchConfig(delta=1.0, direction="min_entropy")
        result = step(worked_gauge(), [2.0, 2.0], config)
        assert np.abs(result - np.array([3.0, 1.0])).max() < 1e-12

    @pytest.mark.parametrize("max_iters", [2.5, float("nan"), float("inf"), "3", None])
    def test_non_integer_budget_rejected(self, max_iters):
        with pytest.raises(ValueError, match="integer"):
            SearchConfig(delta=1.0, max_iters=max_iters)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(delta=0.0)
        with pytest.raises(ValueError):
            SearchConfig(delta=1.0, direction="sideways")
        with pytest.raises(ValueError):
            SearchConfig(delta=1.0, max_iters=-1)
        # A NaN or infinite step makes no move and would report a local optimum.
        for delta, tol in [(float("nan"), 1e-9), (float("inf"), 1e-9),
                           (1.0, float("nan")), (1.0, float("inf")), (1.0, -1e-9)]:
            with pytest.raises(ValueError):
                SearchConfig(delta=delta, tol=tol)
        for tol in (float("nan"), -1.0, float("inf")):
            with pytest.raises(ValueError, match="tol must be finite and >= 0"):
                SearchConfig(delta=1.0, tol=tol)


class TestRun:
    def test_zero_budget(self):
        config = SearchConfig(delta=1.0, max_iters=0)
        trace = run(worked_gauge(), [3.0, 1.0], config)
        assert len(trace.states) == 1
        assert trace.termination == "iter_budget"

    def test_worked_trace(self):
        config = SearchConfig(delta=1.0, direction="max_entropy")
        trace = run(worked_gauge(), [3.0, 1.0], config)
        spectra = [tuple(s.spectrum) for s in trace.states]
        assert spectra == [(3.0, 1.0), (2.0, 2.0)]
        assert trace.termination == "local_optimum"
        assert trace.moves == ((1, 0),)

    def test_identity_gauge_descends_to_uniform(self):
        gauge = make_gauge(np.eye(4))
        config = SearchConfig(delta=0.5, direction="max_entropy", max_iters=100)
        trace = run(gauge, [4.0, 2.5, 1.0, 0.5], config)
        final = trace.states[-1].spectrum
        assert trace.termination == "local_optimum"
        assert np.abs(final - 2.0).max() <= 0.5  # uniform up to lattice resolution

    def test_trace_invariants_random_gauges(self):
        rng = np.random.default_rng(23)
        for trial in range(50):
            n = int(rng.integers(2, 5))
            gauge = make_gauge(random_pd(n, trial).p)
            direction = "max_entropy" if trial % 2 == 0 else "min_entropy"
            config = SearchConfig(delta=0.25, direction=direction, max_iters=60)
            start = rng.uniform(0.5, 4.0, n)
            trace = run(gauge, start, config)
            assert trace.termination in ("local_optimum", "iter_budget")
            assert len(trace.states) <= config.max_iters + 1
            total = trace.states[0].spectrum.sum()
            previous = None
            for state in trace.states:
                assert state.spectrum.min() > 0
                assert state.spectrum.sum() == pytest.approx(total, abs=1e-9)
                if previous is not None:
                    if direction == "max_entropy":
                        assert majorizes(previous.diagonal, state.diagonal).holds
                        assert state.spectral_entropy > previous.spectral_entropy
                    else:
                        assert majorizes(state.diagonal, previous.diagonal).holds
                        assert state.spectral_entropy < previous.spectral_entropy
                previous = state

    def test_entropy_implication_on_nonnegative_diagonals(self):
        gauge = make_gauge(np.array([[2.0, 0.3], [0.3, 1.0]]))
        config = SearchConfig(delta=0.25, direction="max_entropy", max_iters=50)
        trace = run(gauge, [3.0, 1.0], config)
        previous = None
        for state in trace.states:
            if previous is not None and previous.diagonal_entropy is not None:
                if state.diagonal_entropy is not None:
                    assert state.diagonal_entropy >= previous.diagonal_entropy - 1e-9
            previous = state

    def test_no_state_repeats(self):
        gauge = make_gauge(random_pd(3, 77).p)
        config = SearchConfig(delta=0.5, direction="max_entropy", max_iters=200)
        trace = run(gauge, [5.0, 2.0, 2.0], config)
        seen = {tuple(np.round(s.spectrum, 9)) for s in trace.states}
        assert len(seen) == len(trace.states)

    def test_rejects_nonpositive_start(self):
        with pytest.raises(ValueError):
            run(worked_gauge(), [1.0, 0.0], SearchConfig(delta=0.5))

    def test_rejects_a_start_of_the_wrong_length(self):
        gauge = make_gauge(np.eye(4))
        config = SearchConfig(delta=0.5)
        for call in (run, step):
            with pytest.raises(DimensionMismatchError, match=r"\(2,\) vs gauge size 4"):
                call(gauge, np.array([1.0, 2.0]), config)


def reference_admissible(current, candidate, direction, tol):
    """The admissibility test as np.allclose and a full verdict define it."""
    if np.allclose(np.sort(current), np.sort(candidate), rtol=0.0, atol=max(tol, 1e-12)):
        return False
    if direction == "max_entropy":
        return majorizes(current, candidate, tol=tol).holds
    return majorizes(candidate, current, tol=tol).holds


_TOLS = st.sampled_from([0.0, 1e-12, 1e-9, 2.0**-20, 1e-3, 0.25])


@st.composite
def diagonal_pairs(draw):
    """(current, candidate, tol): unrelated, one T-transform apart,
    permuted, or apart by exactly the closeness bound max(tol, 1e-12) in
    one entry."""
    tol = draw(_TOLS)
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["unrelated", "averaged", "permuted", "atol_apart"]))
    if kind in ("unrelated", "permuted"):
        entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    else:
        # Integer entries keep the moves below exact.
        entries = st.integers(-1000, 1000).map(float)
    current = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    candidate = current.copy()
    if kind == "unrelated":
        candidate = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    elif kind == "permuted":
        candidate = current[draw(st.permutations(range(n)))]
    elif kind == "averaged" and n > 1:
        # A T-transform of current, majorized by it, with equal sums.
        j, k = draw(st.permutations(range(n)))[:2]
        lam = draw(st.sampled_from([0.25, 0.5, 0.75]))
        candidate[j] = lam * current[j] + (1.0 - lam) * current[k]
        candidate[k] = (1.0 - lam) * current[j] + lam * current[k]
    elif kind == "atol_apart":
        # A zero moved by the bound: the sorted vectors still pair up entry
        # by entry, and the gap is the bound exactly.
        k = draw(st.integers(0, n - 1))
        current[k] = 0.0
        candidate = current.copy()
        candidate[k] = draw(st.sampled_from([1.0, -1.0])) * max(tol, 1e-12)
    return current, candidate, tol


class TestAdmissible:
    def test_sums_near_the_float_limit(self):
        # The diagonals' sums overflow; the verdicts are those of the halves.
        current, candidate = np.array([1.5e308, 0.5e308]), np.array([1e308, 1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            for direction, expected in (("max_entropy", True), ("min_entropy", False)):
                assert _admissible(current, np.sort(current), candidate, direction, 1e-9) is expected
                half = current / 2
                assert _admissible(half, np.sort(half), candidate / 2, direction, 1e-9) is expected

    @given(diagonal_pairs(), st.sampled_from(["max_entropy", "min_entropy"]))
    @example((np.array([2.0, 1.0]), np.array([1.5, 1.5]), 1e-9), "max_entropy")
    @example((np.array([2.0, 1.0]), np.array([1.0, 2.0]), 1e-9), "min_entropy")
    @example((np.array([2.0, 0.0]), np.array([2.0, 1e-9]), 1e-9), "max_entropy")
    @settings(max_examples=300, deadline=None)
    def test_equals_allclose_and_verdict(self, pair, direction):
        current, candidate, tol = pair
        verdict = _admissible(current, np.sort(current), candidate, direction, tol)
        assert verdict == reference_admissible(current, candidate, direction, tol)

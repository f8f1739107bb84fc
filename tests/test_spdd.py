import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from irgalab import linalg
from irgalab.irga import NONNEG_TOL, _membership_report, check_conjecture, random_pd
from irgalab.linalg import Matrix, load_matrix
from irgalab.sos import data_path
from irgalab.spdd import (
    Gauge,
    GaugeModeError,
    InvalidGaugeError,
    assemble_gpdd,
    block_gauge,
    block_plan,
    kron_gauge,
    kron_spdd,
    make_gauge,
    make_spdd,
    unitary_class_check,
    verify_majorization_theorem,
    verify_mapping,
)


def frac_matrix(rows):
    return Matrix([[Fraction(v) for v in row] for row in rows])


def worked_gauge():
    return make_gauge(np.array([[2.0, 1.0], [1.0, 1.0]]))


class TestMakeGauge:
    def test_identity(self):
        gauge = make_gauge(np.eye(3))
        assert gauge.valid
        assert np.abs(gauge.s - np.eye(3)).max() == 0

    def test_worked_demo(self):
        gauge = make_gauge(load_matrix(data_path("gauge4_demo.mat")))
        expected = load_matrix(data_path("gauge4_demo_irga.mat"))
        assert gauge.valid
        assert np.abs(gauge.s - expected).max() < 5e-5

    def test_two_by_two_closed_form(self):
        gauge = make_gauge(frac_matrix([[2, 1], [1, 1]]))
        third = Fraction(1, 3)
        assert gauge.s == frac_matrix([[2 * third, third], [third, 2 * third]])
        assert gauge.valid and gauge.is_exact

    def test_mode_bounds(self):
        p = random_pd(5, 3).p
        with pytest.raises(GaugeModeError):
            make_gauge(p, mode="proven")
        assert make_gauge(p, mode="conjectured").valid
        # The bound is checked before the membership check.
        with pytest.raises(GaugeModeError):
            make_gauge(np.triu(p), mode="proven")

    @pytest.mark.parametrize("p", [5.0, np.float64(1.0), np.ones(7), np.ones((2, 2, 2))])
    def test_float_input_that_is_not_a_matrix(self, p):
        for mode in ("proven", "conjectured"):
            with pytest.raises(linalg.DimensionMismatchError, match="gauge must be a matrix"):
                make_gauge(p, mode=mode)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_gauge(np.eye(2), mode="hopeful")

    def test_nested_list_input_equals_array_input(self):
        rows = [[2, 1], [1, 1]]
        from_list, from_array = make_gauge(rows), make_gauge(np.array(rows, dtype=float))
        assert from_list.n == 2 and not from_list.is_exact
        np.testing.assert_array_equal(from_list.p, from_array.p)
        np.testing.assert_array_equal(from_list.s, from_array.s)
        assert from_list.report.to_json_dict() == from_array.report.to_json_dict()
        made = [make_spdd(gauge, [3.0, 1.0]) for gauge in (from_list, from_array)]
        np.testing.assert_array_equal(made[0].m, made[1].m)
        np.testing.assert_array_equal(made[0].diagonal, made[1].diagonal)


class TestMakeSpdd:
    def test_identity_gauge_diagonal(self):
        matrix = make_spdd(make_gauge(np.eye(2)), [5.0, 1.0])
        assert np.abs(matrix.m - np.diag([5.0, 1.0])).max() < 1e-12
        assert np.abs(matrix.diagonal - matrix.spectrum).max() < 1e-12

    def test_worked_two_by_two(self):
        matrix = make_spdd(worked_gauge(), [3.0, 1.0])
        assert np.abs(matrix.m - np.array([[5.0, -4.0], [2.0, -1.0]])).max() < 1e-9
        assert np.abs(matrix.diagonal - np.array([5.0, -1.0])).max() < 1e-9

    def test_mapping_identity_random(self):
        rng = np.random.default_rng(6)
        for seed in range(20):
            gauge = make_gauge(random_pd(4, seed).p)
            e = rng.uniform(-3, 3, 4)
            matrix = make_spdd(gauge, e)
            predicted = gauge.rga_matrix() @ e
            assert np.abs(matrix.diagonal - predicted).max() < 1e-9

    def test_length_mismatch(self):
        from irgalab.linalg import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            make_spdd(worked_gauge(), [1.0, 2.0, 3.0])

    def test_nan_mapping_deviation_is_an_accuracy_failure(self):
        with pytest.raises(linalg.FloatAccuracyError, match="nan"):
            make_spdd(worked_gauge(), [np.nan, 1.0])

    @pytest.mark.parametrize(
        "path", [None, str(data_path("gauge4_demo.mat"))], ids=["worked", "demo"]
    )
    def test_overflowed_diagonal_is_an_accuracy_failure(self, path):
        # M overflows: the demo's diagonal becomes NaN, the worked gauge's
        # first entry +inf, which would also make a scaled bound infinite.
        # The overflow itself does not warn (warnings are errors here).
        gauge = worked_gauge() if path is None else make_gauge(load_matrix(path))
        with pytest.raises(linalg.FloatAccuracyError):
            make_spdd(gauge, [1e308] * gauge.n)


class TestVerifyMapping:
    def test_worked_two_by_two(self):
        matrix = make_spdd(worked_gauge(), [3.0, 1.0])
        # S * diag = (2/3, 1/3; 1/3, 2/3) (5, -1)^T = (3, 1)^T = spectrum
        assert verify_mapping(matrix).ok

    def test_identity_gauge(self):
        assert verify_mapping(make_spdd(make_gauge(np.eye(4)), [4.0, 3.0, 2.0, 1.0])).ok

    def test_kron_of_verified_pairs(self):
        a = make_spdd(make_gauge(random_pd(3, 1).p), [1.0, 2.0, 3.0])
        b = make_spdd(make_gauge(random_pd(2, 2).p), [4.0, 5.0])
        assert verify_mapping(a).ok and verify_mapping(b).ok
        assert verify_mapping(kron_spdd(a, b)).ok

    def test_invalid_gauge_rejected(self):
        import dataclasses

        gauge = worked_gauge()
        matrix = make_spdd(gauge, [1.0, 2.0])
        invalid = dataclasses.replace(gauge.report, doubly_stochastic=False)
        invalidated = dataclasses.replace(matrix, gauge=dataclasses.replace(gauge, report=invalid))
        with pytest.raises(InvalidGaugeError):
            verify_mapping(invalidated)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_rejects_a_bad_tol(self, tol):
        # Unchecked, a NaN tol fails the mapping check of a matrix that holds.
        matrix = make_spdd(worked_gauge(), [3.0, 1.0])
        for check in (verify_mapping, verify_majorization_theorem):
            with pytest.raises(ValueError, match="tol must be finite and >= 0"):
                check(matrix, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            unitary_class_check(3, 0, [3.0, 2.0, 1.0], tol=tol)

    def test_tol_is_checked_before_the_gauge(self):
        # As in verify_mapping, a bad tol is a usage error even when the
        # gauge is invalid too.
        gauge = worked_gauge()
        matrix = make_spdd(gauge, [1.0, 2.0])
        invalid = replace(gauge.report, doubly_stochastic=False)
        invalidated = replace(matrix, gauge=replace(gauge, report=invalid))
        for check in (verify_mapping, verify_majorization_theorem):
            with pytest.raises(InvalidGaugeError):
                check(invalidated)
            with pytest.raises(ValueError, match="tol must be finite and >= 0"):
                check(invalidated, tol=math.nan)

    def test_unitary_check_draws_nothing_for_a_bad_tol(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew Q"))
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            unitary_class_check(3, 0, [3.0, 2.0, 1.0], tol=math.nan)


class TestMajorizationTheorem:
    def test_worked_two_by_two(self):
        matrix = make_spdd(worked_gauge(), [3.0, 1.0])
        verdict = verify_majorization_theorem(matrix)
        assert verdict.holds
        # prefixes: 5 >= 3, 4 == 4
        assert verdict.prefix_deficits[0] == pytest.approx(2.0)
        assert verdict.prefix_deficits[1] == pytest.approx(0.0)

    def test_equality_case_identity_gauge(self):
        matrix = make_spdd(make_gauge(np.eye(3)), [3.0, 1.0, 2.0])
        assert verify_majorization_theorem(matrix).holds

    def test_sweep_sizes_up_to_six(self):
        rng = np.random.default_rng(9)
        for trial in range(100):
            n = int(rng.integers(2, 7))
            gauge = make_gauge(random_pd(n, int(rng.integers(0, 2**31))).p)
            assert gauge.valid
            e = rng.uniform(0.01, 10.0, n)
            matrix = make_spdd(gauge, e)
            assert verify_majorization_theorem(matrix).holds


class TestKronSpdd:
    def test_nan_consistency_deviation_is_an_accuracy_failure(self):
        gauge = worked_gauge()
        s = gauge.s.copy()
        s[0, 1] = np.nan
        with pytest.raises(linalg.FloatAccuracyError, match="nan"):
            kron_gauge(replace(gauge, report=replace(gauge.report, s=s)), gauge)

    @pytest.mark.parametrize("gauge_of", [worked_gauge, lambda: make_gauge(np.eye(2))],
                             ids=["worked", "identity"])
    def test_overflowed_product_is_an_accuracy_failure(self, gauge_of):
        # Each factor is finite; their Kronecker product overflows, without
        # a warning (warnings are errors here).
        a = make_spdd(gauge_of(), [1e200, 1e200])
        with pytest.raises(linalg.FloatAccuracyError, match="overflowed"):
            kron_spdd(a, a)

    def test_diagonal_spectra(self):
        a = make_spdd(make_gauge(np.eye(2)), [1.0, 2.0])
        b = make_spdd(make_gauge(np.eye(3)), [3.0, 4.0, 5.0])
        composed = kron_spdd(a, b)
        assert composed.n == 6
        assert np.abs(np.sort(composed.spectrum) - np.array([3, 4, 5, 6, 8, 10])).max() < 1e-12
        assert np.abs(composed.m - np.diag(composed.spectrum)).max() < 1e-12

    def test_four_by_three_gives_twelve(self):
        a = make_spdd(make_gauge(random_pd(4, 11).p), np.arange(1.0, 5.0))
        b = make_spdd(make_gauge(random_pd(3, 12).p), np.arange(1.0, 4.0))
        composed = kron_spdd(a, b)
        assert composed.n == 12
        assert verify_mapping(composed).ok
        assert verify_majorization_theorem(composed).holds

    def test_composed_s_is_doubly_stochastic(self):
        a = make_spdd(make_gauge(random_pd(2, 21).p), [1.0, 3.0])
        b = make_spdd(make_gauge(random_pd(4, 22).p), [2.0, 1.0, 4.0, 0.5])
        s = kron_spdd(a, b).gauge.s
        assert s.min() >= -1e-12
        assert np.abs(s.sum(axis=0) - 1).max() < 1e-9
        assert np.abs(s.sum(axis=1) - 1).max() < 1e-9

    def test_trace_preservation(self):
        a = make_spdd(make_gauge(random_pd(3, 31).p), [1.0, -2.0, 5.0])
        b = make_spdd(make_gauge(random_pd(2, 32).p), [0.5, 2.5])
        composed = kron_spdd(a, b)
        assert composed.diagonal.sum() == pytest.approx(composed.spectrum.sum(), abs=1e-9)


class TestBlockPlan:
    def test_small_reference_cases(self):
        assert block_plan(5).sizes == (2, 3)
        assert block_plan(6).sizes == (4, 2)
        assert block_plan(9).sizes == (4, 2, 3)

    def test_all_sizes_up_to_sixty_four(self):
        for n in range(2, 65):
            plan = block_plan(n)
            assert plan.total == n
            assert all(size in (2, 3, 4) for size in plan)

    def test_rejects_trivial_sizes(self):
        with pytest.raises(ValueError):
            block_plan(1)


class TestAssembleGpdd:
    def test_five_by_five_valid(self):
        gauge = assemble_gpdd(block_plan(5), seed=7)
        assert gauge.n == 5 and gauge.valid
        assert gauge.provenance[0] == "block"

    def test_single_block(self):
        gauge = assemble_gpdd(block_plan(4), seed=1)
        assert gauge.n == 4 and gauge.valid
        assert len(gauge.children) == 1

    def test_nine_by_nine_majorization(self):
        gauge = assemble_gpdd(block_plan(9), seed=3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            matrix = make_spdd(gauge, rng.uniform(0.1, 10.0, 9))
            assert verify_majorization_theorem(matrix).holds

    def test_exact_mode_row_sums_exactly_one(self):
        gauge = assemble_gpdd(block_plan(7), seed=5, mode="exact")
        assert gauge.is_exact and gauge.valid
        assert all(v == 1 for v in gauge.s.row_sums())
        assert all(v == 1 for v in gauge.s.col_sums())

    def test_deterministic(self):
        a = assemble_gpdd(block_plan(6), seed=9)
        b = assemble_gpdd(block_plan(6), seed=9)
        assert np.array_equal(a.p, b.p)


class TestBlockGaugeStructure:
    def test_s_inverse_relationship(self):
        # S and RGA(P) are exact inverses for valid gauges.
        gauge = make_gauge(random_pd(4, 40).p)
        product = gauge.s @ gauge.rga_matrix()
        assert np.abs(product - np.eye(4)).max() < 1e-9

    def test_exact_block_of_exact_children(self):
        children = [
            make_gauge(random_pd(2, 51, mode="exact").p, mode="proven"),
            make_gauge(random_pd(3, 52, mode="exact").p, mode="proven"),
        ]
        gauge = block_gauge(children)
        assert gauge.is_exact and gauge.n == 5 and gauge.valid

    @pytest.mark.parametrize("sizes, seed", [((2, 3), 51), ((3, 2), 61), ((4, 2), 71)])
    def test_composed_report_equals_check_conjecture(self, sizes, seed):
        # Composed gauges report through check_conjecture's own builder.
        a, b = (
            make_gauge(random_pd(n, seed + k, mode="exact").p, mode="proven")
            for k, n in enumerate(sizes)
        )
        for gauge in (block_gauge([a, b]), kron_gauge(a, b)):
            assert gauge.report.to_json_dict() == check_conjecture(gauge.p).to_json_dict()

    def test_exact_block_minimum_equals_a_scan(self):
        # A block S of two or more blocks takes its smallest entry from its
        # children and its structural zeros; the report equals a scan's.
        def assert_scanned(gauge):
            scanned = _membership_report(gauge.s, NONNEG_TOL)
            assert gauge.report == scanned
            assert type(gauge.report.min_entry) is type(scanned.min_entry)

        for n in range(5, 49):
            assert_scanned(assemble_gpdd(block_plan(n), n, mode="exact"))
        blocks = [assemble_gpdd(block_plan(n), n, mode="exact") for n in (5, 9)]
        nested = block_gauge([blocks[0], block_gauge(blocks), make_gauge(random_pd(3, 1, mode="exact").p)])
        assert_scanned(nested)
        # A child whose S has a negative entry sets the minimum.
        s = frac_matrix([[1.5, -0.5], [-0.5, 1.5]])
        negative = Gauge(
            p=Matrix.identity(2), report=_membership_report(s, NONNEG_TOL), provenance=("atomic", "proven")
        )
        for children in ([negative, blocks[0]], [blocks[1], negative], [negative]):
            gauge = block_gauge(children)
            assert_scanned(gauge)
            assert gauge.report.min_entry == Fraction(-1, 2) and not gauge.valid

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_only_p_is_tested_for_positive_definiteness(self, monkeypatch, last_check, mode):
        # S inherits PD-ness from P (IrgaReport.pd): check_conjecture tests P
        # once, and neither composition tests the composed S.
        calls = []
        test = linalg._is_positive_definite
        monkeypatch.setattr(linalg, "_is_positive_definite", lambda a: calls.append(a) or test(a))
        ps = [random_pd(n, 91 + n, mode=mode).p for n in (3, 2)]
        report = check_conjecture(ps[0])
        assert len(calls) == 1 and calls[0] is ps[0] and report.pd
        a, b = (make_gauge(p, mode="proven") for p in ps)
        # The float gauge of the P just checked reuses that check.
        tested = 2 if mode == "float" else 3
        assert len(calls) == tested
        for gauge in (block_gauge([a, b]), kron_gauge(a, b)):
            assert gauge.report.pd and gauge.report.to_json_dict()["pd"] is True
        assert len(calls) == tested

    def test_mixed_carriers_compose_as_float(self):
        # An exact child composes with a float one as its float conversion.
        exact = make_gauge(random_pd(2, 81, mode="exact").p, mode="proven")
        other = make_gauge(random_pd(3, 82).p)
        converted = replace(exact, p=exact.p.to_float_array(),
                            report=replace(exact.report, s=exact.s.to_float_array()))
        pairs = [
            (block_gauge([exact, other]), block_gauge([converted, other])),
            (kron_gauge(exact, other), kron_gauge(converted, other)),
            (kron_gauge(other, exact), kron_gauge(other, converted)),
        ]
        for mixed, floats in pairs:
            assert not mixed.is_exact
            np.testing.assert_array_equal(mixed.p, floats.p)
            np.testing.assert_array_equal(mixed.s, floats.s)
            assert mixed.report.to_json_dict() == floats.report.to_json_dict()
            assert verify_mapping(make_spdd(mixed, np.arange(mixed.n, 0, -1)))


class TestUnitaryContrast:
    def test_identity_rotation_equality(self):
        # Q = I means diagonal equals spectrum; equality majorizes both ways.
        verdict = unitary_class_check(3, seed=0, spectrum=np.array([3.0, 2.0, 1.0]))
        assert verdict.holds

    def test_forty_five_degree_rotation(self):
        # M = R diag(1,0) R^T has diagonal (1/2, 1/2); (1, 0) majorizes it.
        theta = np.pi / 4
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        m = (q * np.array([1.0, 0.0])) @ q.T
        assert np.abs(np.diag(m) - 0.5).max() < 1e-12
        from irgalab.majorization import majorizes

        assert majorizes([1.0, 0.0], np.diag(m)).holds

    def test_spectrum_majorizes_diagonal_sweep(self):
        rng = np.random.default_rng(14)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            e = rng.uniform(-5, 5, n)
            assert unitary_class_check(n, seed=trial, spectrum=e).holds


def _gauge_of(kind, n, seed=0):
    """A float, exact or mixed-carrier gauge of size n (mixed: an exact
    block beside a float one), or a composed block gauge ("block", "block-exact")."""
    if kind in ("float", "exact"):
        return make_gauge(random_pd(n, 700 + 10 * n + seed, mode=kind).p)
    if kind == "mixed":
        half = n // 2
        return block_gauge([_gauge_of("exact", half, seed), _gauge_of("float", n - half, seed)])
    return assemble_gpdd(block_plan(n), seed, mode="exact" if kind == "block-exact" else "float")


def _fresh_float_lu(gauge):
    p = linalg._float_array(gauge.p)
    return p, linalg.inverse(p)


def _fresh_mapping_deviation(matrix):
    """verify_mapping's max_deviation from a fresh float inverse of P."""
    p, p_inv = _fresh_float_lu(matrix.gauge)
    s = linalg._float_array(matrix.gauge.s)
    dev_diag = float(np.abs((p * p_inv.T) @ matrix.spectrum - matrix.diagonal).max())
    dev_spec = float(np.abs(s @ matrix.diagonal - matrix.spectrum).max())
    return max(dev_diag, dev_spec)


_BIT_CASES = [(kind, n) for kind in ("float", "exact", "mixed") for n in range(2, 7)] + [
    ("block", 48), ("block-exact", 48)
]


class TestSharedFactorization:
    @pytest.mark.parametrize("kind, n", _BIT_CASES)
    def test_make_spdd_and_verify_mapping_match_a_fresh_inverse(self, kind, n):
        # The gauge's shared factorization gives the bits of a fresh
        # linalg.inverse(_float_array(P)) derivation.
        gauge = _gauge_of(kind, n)
        rng = np.random.default_rng(n)
        p, p_inv = _fresh_float_lu(gauge)
        for _ in range(3):
            spectrum = rng.uniform(0.1, 10.0, n)
            matrix = make_spdd(gauge, spectrum)
            m = (p * spectrum) @ p_inv
            assert np.array_equal(matrix.m, m)
            assert np.array_equal(matrix.diagonal, m.diagonal())
            assert verify_mapping(matrix).max_deviation == _fresh_mapping_deviation(matrix)

    @pytest.mark.parametrize(
        "a, b",
        [(("float", 2), ("exact", 3)), (("exact", 3), ("float", 2)), (("float", 3), ("float", 2)),
         (("exact", 2), ("exact", 2)), (("mixed", 4), ("float", 3))],
    )
    def test_kron_verify_mapping_matches_a_fresh_inverse(self, a, b):
        ma, mb = (make_spdd(_gauge_of(*g), np.arange(1.0, g[1] + 1.0)) for g in (a, b))
        composed = kron_spdd(ma, mb)
        assert verify_mapping(composed).max_deviation == _fresh_mapping_deviation(composed)

    def test_each_gauge_is_factored_once(self, monkeypatch, last_check):
        # Count the float LU inverses of each gauge's own float P.
        calls = []
        lu_inverse = linalg._lu_inverse
        monkeypatch.setattr(
            linalg, "_lu_inverse", lambda a, scale: calls.append(a) or lu_inverse(a, scale)
        )

        def factorizations(gauge):
            p = linalg._float_array(gauge.p)
            return sum(a.shape == p.shape and np.array_equal(a, p) for a in calls)

        gauge = assemble_gpdd(block_plan(48), 0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            make_spdd(gauge, rng.uniform(0.1, 10.0, 48))
        assert factorizations(gauge) == 1

        gauge = make_gauge(random_pd(4, 5).p)  # its membership check's inverse is shared
        verify_mapping(make_spdd(gauge, [4.0, 3.0, 2.0, 1.0]))
        assert factorizations(gauge) == 1

        a = make_spdd(make_gauge(random_pd(2, 6).p), [1.0, 2.0])
        b = make_spdd(make_gauge(random_pd(3, 7).p), [3.0, 1.0, 2.0])
        calls.clear()
        composed = kron_spdd(a, b)
        verify_mapping(composed)
        assert factorizations(composed.gauge) == 1

    def test_lapack_calls_of_a_check_and_of_a_gauge_chain(self, last_check, lapack_calls):
        # One dpotrf (P's PD test) and one dgesv each for P^-1 and T^-1; the
        # gauge's make_spdd and verify_mapping reuse its check's P^-1, and
        # the gauge of the P just checked reuses the whole check.
        def chain(p):
            lapack_calls.clear()
            matrix = make_spdd(make_gauge(p), np.arange(1.0, 6.0))
            assert verify_mapping(matrix) and verify_majorization_theorem(matrix)
            return sorted(lapack_calls)

        p = random_pd(5, 3).p
        check_conjecture(p)
        assert sorted(lapack_calls) == ["dgesv", "dgesv", "dpotrf"]
        assert chain(random_pd(5, 4).p) == ["dgesv", "dgesv", "dpotrf"]
        check_conjecture(p)
        assert chain(p) == []

    def test_caller_mutation_does_not_reach_the_gauge(self):
        p = np.array([[2.0, 1.0], [1.0, 1.0]])
        gauge = make_gauge(p)
        report = gauge.report.to_json_dict()
        p[0, 1] = p[1, 0] = 0.5
        assert np.array_equal(gauge.p, [[2.0, 1.0], [1.0, 1.0]])
        assert gauge.report.to_json_dict() == report
        worked = make_spdd(worked_gauge(), [3.0, 1.0])
        assert np.array_equal(make_spdd(gauge, [3.0, 1.0]).m, worked.m)
        for float_gauge in (gauge, assemble_gpdd(block_plan(5), 0), kron_gauge(gauge, gauge)):
            with pytest.raises(ValueError, match="read-only"):
                float_gauge.p[0, 0] = 5.0

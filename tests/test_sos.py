import hashlib
from fractions import Fraction

import numpy as np
import pytest

from irgalab.exact import Polynomial, VariableSet
from irgalab.irga import _build_lower
from irgalab.linalg import Matrix, adjugate_entry, cholesky, hadamard
from irgalab.polytext import parse_polynomial, render_polynomial
from irgalab.sos import (
    InvalidCertificateError,
    SoSCertificate,
    SymbolicCapabilityError,
    builtin_certificate,
    builtin_expression,
    builtin_polynomial,
    cholesky_variables,
    entry_polynomial,
    exact_entry_oracle,
    identity_test,
    symbolic_gram,
)


class TestCholeskyVariables:
    def test_naming_pattern(self):
        assert cholesky_variables(3).names == ("a", "b", "c")
        assert cholesky_variables(4).names == ("a", "b", "c", "d", "e", "f")
        assert cholesky_variables(6).names == tuple("abcdefghijk") + ("m", "n", "p", "q")

    def test_count(self):
        for n in range(2, 7):
            assert len(cholesky_variables(n)) == n * (n - 1) // 2


class TestSymbolicGram:
    def test_two_by_two(self):
        variables = cholesky_variables(2)
        gram = symbolic_gram(2)
        assert gram[0, 0] == Polynomial.constant(variables, 1)
        assert gram[0, 1] == parse_polynomial("a", variables)
        assert gram[1, 1] == parse_polynomial("a^2 + 1", variables)

    def test_three_by_three_corner(self):
        gram = symbolic_gram(3)
        assert gram[2, 2] == parse_polynomial("b^2 + c^2 + 1", cholesky_variables(3))

    def test_unit_determinant(self):
        for n in (2, 3, 4):
            assert symbolic_gram(n).det() == Polynomial.constant(cholesky_variables(n), 1)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            symbolic_gram(7)


# sha256 of repr(entry_polynomial(n, i, j).sorted_terms()), keyed by (n, min(i, j),
# max(i, j)) since adj(T) is symmetric: a change to how T or its minors are
# built must leave every symbolic entry polynomial unchanged, coefficient
# types included.
ENTRY_POLYNOMIAL_SHA256 = {
    (2, 1, 2): "9255178249b91e46e514d1773412d591cb60f03b2a7ef60a8b99c08842ddb146",
    (3, 1, 2): "af2a3af60a60fde8871b04671ef2be08e6b5f007e01390c020b0952fc12a898b",
    (3, 1, 3): "db6569f372f58884e829e2856f0fe2d4e6fc68a5644b853b5ed1808dffef7823",
    (3, 2, 3): "8f16b3066f04e8c281f963795ef94c53363f3417803c169a77e61dc367b5e200",
    (4, 1, 2): "6f5a2be475c71e59c51e750936e018b06ba490a1d102879f7886b478a6966d3b",
    (4, 1, 3): "1aa493724be0072aa43f2e59188f402f3454790cbfc6105de3637d8e4790d98d",
    (4, 1, 4): "fd46d8beb972ee93d1e905cad2d861a39b32b642dc52ce5472cd123ba9be398a",
    (4, 2, 3): "7014c99c29d43fc94eaf2bc8d64d09d5833b969941d07f194dac05bf632c0c24",
    (4, 2, 4): "8fec05309c5852cbf0023324c8c1b2458a0fe97dc775e70531a8880d48967183",
    (4, 3, 4): "0a76c6bd645104a81bd86a364d4024ebdea60eda744a7214fda74d8414ac18c7",
}


class TestEntryPolynomial:
    @pytest.mark.parametrize(
        "n, i, j",
        [(n, i, j) for n in (2, 3, 4) for i in range(1, n + 1) for j in range(1, n + 1) if i != j],
    )
    def test_entry_polynomials_are_pinned(self, n, i, j):
        terms = repr(entry_polynomial(n, i, j).sorted_terms())
        expected = ENTRY_POLYNOMIAL_SHA256[(n, min(i, j), max(i, j))]
        assert hashlib.sha256(terms.encode()).hexdigest() == expected

    def test_size_two(self):
        assert entry_polynomial(2, 1, 2) == parse_polynomial("a^2", cholesky_variables(2))

    def test_size_three_matches_bundled_text(self):
        assert entry_polynomial(3, 2, 3) == builtin_polynomial("pn3")

    def test_size_four_matches_both_bundled_transcriptions(self):
        derived = entry_polynomial(4, 1, 2)
        assert derived == builtin_polynomial("pn4")
        assert derived == builtin_polynomial("s4-entry12")

    def test_capability_error_beyond_four(self):
        with pytest.raises(SymbolicCapabilityError) as err:
            entry_polynomial(5, 1, 2)
        assert "identity" in str(err.value)

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            entry_polynomial(3, 2, 2)

    def test_nonnegative_at_random_points(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 4):
            polynomial = entry_polynomial(n, 1, 2)
            names = polynomial.variables.names
            for _ in range(100):
                point = {
                    name: Fraction(int(v)) / 16
                    for name, v in zip(names, rng.integers(-64, 65, len(names)))
                }
                assert polynomial.evaluate(point) >= 0

    def test_permutation_typicality_size_three(self):
        # Any off-diagonal entry equals the (2,3) polynomial evaluated at the
        # unit-diagonal Cholesky parameters of the permuted matrix.
        rng = np.random.default_rng(5)
        reference = entry_polynomial(3, 2, 3)
        names3 = cholesky_variables(3).names
        for i, j in [(1, 2), (1, 3), (2, 1), (3, 1), (3, 2), (2, 3)]:
            entry = entry_polynomial(3, i, j)
            for _ in range(20):
                values = rng.uniform(-2, 2, 3)
                point = {n: Fraction(v).limit_denominator(1 << 12) for n, v in zip(names3, values)}
                direct = float(entry.evaluate(point))

                lower = np.eye(3)
                lower[1, 0], lower[2, 0], lower[2, 1] = [float(point[n]) for n in names3]
                gram = lower @ lower.T
                # Permutation moving entry (i,j) to (2,3).
                perm = _permutation_sending(i, j)
                permuted = gram[np.ix_(perm, perm)]
                chol = cholesky(permuted)
                scale = np.diag(1.0 / np.diag(chol))
                unit = scale @ chol  # unit-diagonal factor of D P D
                primed = {
                    names3[0]: unit[1, 0],
                    names3[1]: unit[2, 0],
                    names3[2]: unit[2, 1],
                }
                via_permutation = float(
                    sum(
                        float(coeff) * np.prod([primed[n] ** e for n, e in zip(names3, mono)])
                        for mono, coeff in reference.terms.items()
                    )
                )
                assert direct == pytest.approx(via_permutation, rel=1e-6, abs=1e-8)


def _permutation_sending(i, j):
    """A permutation of {0,1,2} mapping positions so entry (i,j) lands at (2,3)."""
    rest = [k for k in (1, 2, 3) if k not in (i, j)]
    order = [rest[0], i, j]
    return [k - 1 for k in order]


class TestCertificates:
    def test_builtin_n3_matches_derived_and_text(self):
        certificate = builtin_certificate("n3")
        check = certificate.verify(entry_polynomial(3, 2, 3))
        assert check.ok and check.rational
        assert certificate.verify(builtin_polynomial("pn3")).ok

    def test_builtin_n4_matches_derived(self):
        certificate = builtin_certificate("n4")
        assert len(certificate) == 25
        check = certificate.verify(entry_polynomial(4, 1, 2))
        assert check.ok and check.rational

    def test_simple_true_certificate(self):
        variables = VariableSet("ab")
        certificate = SoSCertificate(
            variables, [(Fraction(1), parse_polynomial("a + b", variables))]
        )
        target = parse_polynomial("a^2 + 2 a b + b^2", variables)
        assert certificate.verify(target).ok

    def test_simple_false_certificate_reports_difference(self):
        variables = VariableSet("a")
        certificate = SoSCertificate(variables, [(Fraction(1), parse_polynomial("a", variables))])
        check = certificate.verify(parse_polynomial("a^2 + 1", variables))
        assert not check.ok
        assert check.difference == {"1": ("0", "1")}

    def test_negative_multiplier_rejected_at_load(self):
        variables = VariableSet("a")
        with pytest.raises(InvalidCertificateError):
            SoSCertificate(variables, [(Fraction(-1), parse_polynomial("a", variables))])

    def test_perturbed_multiplier_fails_with_differences(self):
        base = builtin_certificate("n4")
        terms = list(base.terms)
        multiplier, body = terms[3]
        terms[3] = (multiplier + Fraction(1, 2), body)
        perturbed = SoSCertificate(base.variables, terms)
        check = perturbed.verify(entry_polynomial(4, 1, 2))
        assert not check.ok
        assert len(check.difference) > 0

    def test_sqrt3_cancellation_is_required(self):
        # Dropping one of the paired sqrt3 squares leaves irrational residue.
        base = builtin_certificate("n3")
        partial = SoSCertificate(base.variables, base.terms[:2])
        check = partial.verify(entry_polynomial(3, 2, 3))
        assert not check.ok
        assert not check.rational


class TestIdentityTest:
    def test_self_consistency_round_trip(self):
        reference = parse_polynomial(
            render_polynomial(entry_polynomial(3, 2, 3)), cholesky_variables(3)
        )
        report = identity_test(reference, 3, 2, 3, trials=20, seed=4, coordinate_range=100)
        assert report.all_agree and report.agreements == 20

    def test_perturbed_reference_disagrees_immediately(self):
        reference = entry_polynomial(3, 2, 3) + 1
        report = identity_test(reference, 3, 2, 3, trials=3, seed=4, coordinate_range=100)
        assert report.agreements == 0
        assert report.first_disagreement is not None
        assert "point" in report.first_disagreement

    def test_bundled_size_six_reference_quick(self):
        # Three points here; the acceptance suite runs the full twenty.
        expression = builtin_expression("s6-entry12")
        report = identity_test(expression, 6, 1, 2, trials=3, seed=0)
        assert report.all_agree

    def test_oracle_matches_symbolic_path(self):
        oracle = exact_entry_oracle(4, 1, 2)
        polynomial = entry_polynomial(4, 1, 2)
        point = {name: Fraction(k + 1, 3) for k, name in enumerate(cholesky_variables(4).names)}
        assert oracle(point) == polynomial.evaluate(point)

    def test_deterministic_reports(self):
        expression = builtin_expression("s6-entry12")
        a = identity_test(expression, 6, 1, 2, trials=2, seed=9)
        b = identity_test(expression, 6, 1, 2, trials=2, seed=9)
        assert a.points == b.points and a.agreements == b.agreements


class TestIdentityTestBounds:
    def test_oracle_same_on_int_and_fraction_points(self):
        oracle = exact_entry_oracle(6, 1, 2)
        names = cholesky_variables(6).names
        ints = {name: (-1) ** k * (37 * k + 5) for k, name in enumerate(names)}
        fractions = {name: Fraction(value) for name, value in ints.items()}
        assert oracle(ints) == oracle(fractions)
        assert type(oracle(ints)) is int  # T = R o adj(R) never leaves the integers

    @pytest.mark.parametrize(
        "n, i, j, integral",
        [
            pytest.param(n, i, j, False, id=f"{n}-{i}-{j}")
            for n, i, j in [(2, 1, 2), (3, 2, 3), (4, 3, 1), (5, 1, 2), (6, 1, 2), (6, 4, 2)]
        ]
        + [pytest.param(5, 2, 4, True, id="5-2-4-integral")],
    )
    def test_oracle_at_rational_points_equals_direct_formula(self, n, i, j, integral):
        # The oracle builds adj(R) = X^T X from X = L^-1 by substitution;
        # check it against adj(T) with T = R o R^-1 from the Gauss-Jordan
        # inverse, at points with and without denominators.
        names = cholesky_variables(n).names
        point = {
            name: Fraction((-1) ** k * (7 * k + 3), 1 if integral else k % 4 + 2)
            for k, name in enumerate(names)
        }
        lower = Matrix(_build_lower(n, [point[name] for name in names], 1, 0))
        gram = lower @ lower.transpose()
        expected = adjugate_entry(hadamard(gram, gram.inverse()), i, j)
        assert exact_entry_oracle(n, i, j)(point) == expected

    def test_bound_from_expanded_reference(self):
        # pn3 has total degree 6, below the oracle's 2n(n-1) = 12 at n = 3.
        report = identity_test(builtin_polynomial("pn3"), 3, 2, 3, trials=3, coordinate_range=100)
        assert report.all_agree
        assert report.degree_bound == 12
        assert report.error_bound == (12 / 201) ** 3
        payload = report.to_json_dict()
        assert payload["degree_bound"] == 12 and payload["error_bound"] == report.error_bound

    def test_bound_from_size_six_tree(self):
        report = identity_test(builtin_expression("s6-entry12"), 6, 1, 2, trials=2, seed=1)
        assert report.degree_bound == 60
        assert report.error_bound == (60 / 2_000_001) ** 2

    def test_bound_stays_a_probability(self):
        reference = builtin_polynomial("pn3")
        assert identity_test(reference, 3, 2, 3, trials=2, coordinate_range=1).error_bound == 1.0
        tiny = identity_test(reference, 3, 2, 3, trials=200, coordinate_range=10**6)
        assert 0.0 < tiny.error_bound < 1e-300

    @pytest.mark.parametrize(
        "n, i, j, trials, coordinate_range",
        [(7, 1, 2, 1, 5), (1, 1, 2, 1, 5), (3, 5, 1, 1, 5), (3, 2, 2, 1, 5),
         (3, 1, 2, 0, 5), (3, 1, 2, 1, 0)],
    )
    def test_bad_arguments_raise_value_error(self, n, i, j, trials, coordinate_range):
        with pytest.raises(ValueError):
            identity_test(builtin_polynomial("pn3"), n, i, j, trials=trials,
                          coordinate_range=coordinate_range)

    @pytest.mark.parametrize(
        "reference", [builtin_expression("s6-entry12"), builtin_polynomial("pn3")],
        ids=["expression", "polynomial"],
    )
    def test_reference_with_variables_beyond_size_n_raises_value_error(self, reference):
        with pytest.raises(ValueError, match="size-2 variables a$"):
            identity_test(reference, 2, 1, 2, trials=1)

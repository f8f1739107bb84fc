import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import irgalab
from irgalab.cli import main
from irgalab.sos import data_path

DEMO = str(data_path("gauge4_demo.mat"))
# A .poly text nested 1,000 parentheses deep.
DEEP = "(" * 1000 + "a" + ")" * 1000 + "\n"
GOLDEN = Path(__file__).resolve().parent / "data"

# ``python -m`` puts its working directory first on sys.path, so a process
# started here runs the same irgalab as the tests, installed or not.
SOURCE_DIR = Path(irgalab.__file__).resolve().parent.parent

def run_cli(*args, cwd=None, input=None):
    """Run the CLI in this process; an uncaught exception fails the test."""
    previous = os.getcwd()
    if cwd is not None:
        os.chdir(cwd)
    try:
        result = CliRunner().invoke(main, list(args), input=input, catch_exceptions=False)
    finally:
        os.chdir(previous)
    return subprocess.CompletedProcess(args, result.exit_code, result.stdout, result.stderr)


def run_process(*args, hash_seed="0"):
    """Run ``python -m irgalab.cli`` in a fresh interpreter with a fixed
    string-hash seed; file arguments must be absolute paths."""
    return subprocess.run(
        [sys.executable, "-m", "irgalab.cli", *args],
        capture_output=True,
        text=True,
        cwd=SOURCE_DIR,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
    )


def payload_of(proc):
    report = json.loads(proc.stdout)
    return report["payload"]


class TestIrgaCommands:
    def test_check_demo(self):
        proc = run_cli("irga", "check", DEMO)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["outcome"] == "pass"
        assert report["payload"]["report"]["doubly_stochastic"] is True
        assert report["payload"]["report"]["pd"] is True

    def test_check_not_square_is_usage_error(self, tmp_path):
        path = tmp_path / "notsquare.mat"
        path.write_text("1 2 3\n4 5 6\n")
        proc = run_cli("irga", "check", str(path))
        assert proc.returncode == 2

    def test_check_unreadable_matrix_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("1 frog\n2 3\n")
        proc = run_cli("irga", "check", str(path))
        assert proc.returncode == 3

    def test_check_non_pd_is_numeric_failure(self, tmp_path):
        path = tmp_path / "indefinite.mat"
        path.write_text("1 2\n2 1\n")
        proc = run_cli("irga", "check", str(path))
        assert proc.returncode == 4

    def test_search_counterexample_found(self):
        proc = run_cli(
            "irga", "search-counterexample",
            "--n", "7", "--trials", "6000", "--seed", "5",
        )
        assert proc.returncode == 0
        payload = payload_of(proc)
        assert payload["found"] is True
        assert payload["min_entry_float"] < 0
        assert payload["min_entry_exact"].startswith("-")

    def test_search_counterexample_not_found(self):
        proc = run_cli(
            "irga", "search-counterexample", "--n", "4", "--trials", "500",
        )
        assert proc.returncode == 1
        assert payload_of(proc)["found"] is False

    def test_search_usage_error(self):
        proc = run_cli("irga", "search-counterexample", "--n", "1", "--trials", "5")
        assert proc.returncode == 2


class TestSosCommands:
    def test_verify_builtin_n3(self):
        proc = run_cli("sos", "verify", "--cert", "builtin:n3", "--target", "builtin:pn3")
        assert proc.returncode == 0
        assert payload_of(proc)["check"]["ok"] is True

    def test_verify_against_derived(self):
        proc = run_cli("sos", "verify", "--cert", "builtin:n4", "--target", "derived:4:1:2")
        assert proc.returncode == 0

    def test_verify_wrong_variable_set_is_parse_error(self):
        # pn4 uses identifiers outside the n3 certificate's variable set.
        proc = run_cli("sos", "verify", "--cert", "builtin:n3", "--target", "builtin:pn4")
        assert proc.returncode == 3

    def test_verify_mismatch_exit_one(self, tmp_path):
        wrong = tmp_path / "wrong.poly"
        wrong.write_text("a^2 + b^2 + c^2\n")
        proc = run_cli("sos", "verify", "--cert", "builtin:n3", "--target", str(wrong))
        assert proc.returncode == 1

    def test_derive(self):
        proc = run_cli("sos", "derive", "--n", "3")
        assert proc.returncode == 0
        payload = payload_of(proc)
        assert payload["terms"] == 7 and payload["entry"] == [2, 3]

    def test_derive_capability_error(self):
        proc = run_cli("sos", "derive", "--n", "6")
        assert proc.returncode == 4

    def test_identity_test_quick(self):
        proc = run_cli(
            "sos", "identity-test", "--reference", "builtin:s6-entry12",
            "--n", "6", "--trials", "2", "--seed", "3",
        )
        assert proc.returncode == 0
        assert payload_of(proc)["report"]["all_agree"] is True

    @pytest.mark.parametrize(
        "args",
        [("--n", "7"), ("--n", "3", "--i", "5"), ("--n", "6", "--trials", "0"),
         ("--n", "6", "--range", "-5"), ("--n", "1")],
    )
    def test_identity_test_bad_arguments_are_usage_errors(self, args):
        proc = run_cli("sos", "identity-test", *args)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


class TestPolyCommands:
    def test_parse_and_canonical(self, tmp_path):
        path = tmp_path / "p.poly"
        path.write_text("(a+b)^2  # a comment\n")
        proc = run_cli("poly", "parse", str(path))
        assert proc.returncode == 0
        assert payload_of(proc)["canonical"] == "a^2 + 2 a b + b^2"

    def test_parse_error_exit_three(self, tmp_path):
        path = tmp_path / "bad.poly"
        path.write_text("(a +\n")
        proc = run_cli("poly", "parse", str(path))
        assert proc.returncode == 3

    def test_parse_reads_stdin(self):
        proc = run_cli("poly", "parse", "-", input="(a+b)^2\n")
        assert proc.returncode == 0
        assert payload_of(proc)["canonical"] == "a^2 + 2 a b + b^2"

    def test_eval(self, tmp_path):
        path = tmp_path / "p.poly"
        path.write_text("a^2 b - 1/2\n")
        proc = run_cli("poly", "eval", str(path), "--at", "a=3, b=1/9")
        assert proc.returncode == 0
        assert payload_of(proc)["value"] == "1/2"

    @pytest.mark.parametrize(
        "variables, code, message",
        [("ac", 0, "2 terms over ac\n"),
         ("ab", 3, "parse error: line 1, column 7: unknown identifier 'c'\n"),
         ("a1", 2, "variable names must be single letters, got '1'\n")],
    )
    def test_parse_restricted_to_variables(self, tmp_path, variables, code, message):
        path = tmp_path / "p.poly"
        path.write_text("a^2 + c\n")
        proc = run_cli("poly", "parse", str(path), "--variables", variables)
        assert proc.returncode == code
        assert proc.stderr == message
        if code == 0:
            assert payload_of(proc)["variables"] == ["a", "c"]


class TestMajorizeCommands:
    def test_check_holds(self):
        proc = run_cli("majorize", "check", "--y", "3,2,1", "--x", "2,2,2")
        assert proc.returncode == 0

    def test_check_fails(self):
        proc = run_cli("majorize", "check", "--y", "1,0", "--x", "0.6,0.6")
        assert proc.returncode == 1

    def test_construct(self):
        proc = run_cli("majorize", "construct", "--y", "1,0", "--x", "0.5,0.5")
        assert proc.returncode == 0
        payload = payload_of(proc)
        assert payload["transforms"] == 1
        assert payload["chain"]["transforms"][0]["lambda"] == 0.5

    def test_birkhoff(self, tmp_path):
        path = tmp_path / "s.mat"
        path.write_text("2/3 1/3\n1/3 2/3\n")
        proc = run_cli("majorize", "birkhoff", str(path))
        assert proc.returncode == 0
        payload = payload_of(proc)
        assert payload["permutation_count"] == 2
        assert abs(payload["weight_sum"] - 1.0) < 1e-10

    def test_birkhoff_rejects_non_ds(self, tmp_path):
        path = tmp_path / "s.mat"
        path.write_text("0.9 0.2\n0.1 0.8\n")
        proc = run_cli("majorize", "birkhoff", str(path))
        assert proc.returncode == 4

    def test_entropy(self):
        proc = run_cli("majorize", "entropy", "1,1,1,1")
        assert proc.returncode == 0
        assert abs(payload_of(proc)["entropy"] - 1.3862943611198906) < 1e-12


class TestSpddCommands:
    def test_gauge_valid(self):
        proc = run_cli("spdd", "gauge", DEMO)
        assert proc.returncode == 0
        assert payload_of(proc)["valid"] is True

    def test_make_and_verify(self, tmp_path):
        path = tmp_path / "p.mat"
        path.write_text("2 1\n1 1\n")
        proc = run_cli("spdd", "make", str(path), "--spectrum", "3,1")
        assert proc.returncode == 0
        payload = payload_of(proc)
        assert payload["diagonal"] == [5.0, -1.0]
        proc = run_cli("spdd", "verify", str(path), "--spectrum", "3,1")
        assert proc.returncode == 0

    @pytest.mark.parametrize("spectrum", ["-1,2,3,4", "0,0,0,0"])
    def test_make_reports_an_undefined_entropy_as_null(self, spectrum):
        # The diagonal's entropy is undefined too: it has a negative entry
        # (first case) or is zero (second).
        proc = run_cli("spdd", "make", DEMO, f"--spectrum={spectrum}")
        assert proc.returncode == 0
        payload = payload_of(proc)
        assert payload["spectral_entropy"] is None and payload["diagonal_entropy"] is None

    def test_kron(self, tmp_path):
        pa = tmp_path / "a.mat"
        pa.write_text("2 1\n1 1\n")
        pb = tmp_path / "b.mat"
        pb.write_text("1 0\n0 1\n")
        proc = run_cli(
            "spdd", "kron", "--pa", str(pa), "--ea", "3,1", "--pb", str(pb), "--eb", "1,2",
        )
        assert proc.returncode == 0
        assert payload_of(proc)["n"] == 4

    def test_construct(self):
        proc = run_cli("spdd", "construct", "--n", "11", "--seed", "2")
        assert proc.returncode == 0
        payload = payload_of(proc)
        assert sum(payload["plan"]) == 11
        assert payload["valid"] is True

    def test_unitary(self):
        proc = run_cli("spdd", "unitary", "--n", "5", "--seed", "3", "--spectrum", "5,4,3,2,1")
        assert proc.returncode == 0


class TestSearchCommand:
    def test_worked_trace(self, tmp_path):
        path = tmp_path / "p.mat"
        path.write_text("2 1\n1 1\n")
        proc = run_cli(
            "search", "run", str(path), "--e0", "3,1", "--delta", "1",
            "--direction", "max_entropy",
        )
        assert proc.returncode == 0
        trace = payload_of(proc)["trace"]
        assert [s["spectrum"] for s in trace["states"]] == [[3.0, 1.0], [2.0, 2.0]]
        assert trace["termination"] == "local_optimum"


class TestReportContract:
    @pytest.mark.parametrize(
        "args, golden",
        [
            (("irga", "check", "--mode", "exact", DEMO), "irga_check_exact_gauge4_demo.json"),
            (("spdd", "gauge", "--mode", "exact", DEMO), "spdd_gauge_exact_gauge4_demo.json"),
            (("spdd", "construct", "--n", "11", "--seed", "2", "--mode", "exact"),
             "spdd_construct_exact_n11_seed2.json"),
            (("irga", "search-counterexample", "--n", "7", "--trials", "6000", "--seed", "5"),
             "search_counterexample_n7_t6000_seed5.json"),
        ],
    )
    def test_exact_payloads_match_golden_files(self, args, golden):
        # Pure rational arithmetic: the same payload on every platform.
        proc = run_cli(*args)
        assert proc.returncode == 0
        assert payload_of(proc) == json.loads((GOLDEN / golden).read_text())

    @pytest.mark.parametrize(
        "args, cert, code",
        [
            (("sos", "derive", "--n", "3", "--entry", "2", "2"), None, 2),
            (("sos", "derive", "--n", "3", "--entry", "1", "9"), None, 2),
            (("sos", "derive", "--n", "1"), None, 2),
            (("spdd", "construct", "--n", "1"), None, 2),
            (("search", "run", DEMO, "--e0", "1,2,3,4", "--delta", "0"), None, 2),
            (("sos", "verify", "--cert", "builtin:n5", "--target", "builtin:pn3"), None, 2),
            (("sos", "verify", "--cert", "builtin:n3", "--target", "missing.poly"), None, 2),
            (("sos", "identity-test", "--n", "6", "--reference", "missing.poly"), None, 2),
            (("sos", "verify", "--cert", "missing.json", "--target", "builtin:pn3"), None, 2),
            (("sos", "verify", "--cert", "cert.json", "--target", "builtin:pn3"),
             '{"variables": "abc", "terms": [', 3),
            # A malformed certificate file is a parse error.
            (("sos", "verify", "--cert", "cert.json", "--target", "builtin:pn3"),
             '{"variables": "abc", "terms": [{"body": "a"}]}', 3),
            (("sos", "verify", "--cert", "cert.json", "--target", "builtin:pn3"),
             '{"variables": "abc", "terms": [{"multiplier": "x", "body": "a"}]}', 3),
            (("sos", "verify", "--cert", "cert.json", "--target", "builtin:pn3"),
             '{"variables": "abc", "terms": [{"multiplier": "-1", "body": "a"}]}', 3),
            (("irga", "search-counterexample", "--n", "1", "--trials", "5"), None, 2),
            (("irga", "search-counterexample", "--n", "5", "--trials", "0"), None, 2),
            # Every matrix or vector token that is not a decimal or p/q with
            # q != 0 (within float range in float mode) is a parse error.
            (("irga", "check", "cert.json"), "1 1/0\n1/0 1\n", 3),
            (("irga", "check", "cert.json", "--mode", "exact"), "1 1/0\n1/0 1\n", 3),
            (("irga", "check", "cert.json"), "1e400 1\n1 1\n", 3),
            (("majorize", "check", "--y", "1/0,1", "--x", "1,1"), None, 3),
            (("majorize", "entropy", "cert.json"), "1\n1/0\n", 3),
            # x is majorized only within --tol, so no chain reaches it.
            (("majorize", "construct", "--y", "1,0", "--x", "1.0005,-0.0005", "--tol", "1e-3"),
             None, 1),
            # The removed --threads option is a usage error, whatever its value.
            (("irga", "search-counterexample", "--n", "5", "--trials", "10", "--threads", "0"),
             None, 2),
            (("spdd", "construct", "--n", "5", "--spectra", "-1"), None, 2),
            # The search's entry width must be finite and positive.
            (("irga", "search-counterexample", "--n", "5", "--trials", "10", "--range", "nan"),
             None, 2),
            (("irga", "search-counterexample", "--n", "5", "--trials", "10", "--range", "-1"),
             None, 2),
            # Every --tol must be finite and >= 0.
            (("irga", "check", "cert.json", "--tol", "-1"), "2/3 1/3\n1/3 2/3\n", 2),
            (("irga", "check", "cert.json", "--tol", "nan"), "2/3 1/3\n1/3 2/3\n", 2),
            (("irga", "check", "cert.json", "--tol", "inf"), "2/3 1/3\n1/3 2/3\n", 2),
            (("majorize", "check", "--y", "1,0", "--x", "0.5,0.5", "--tol", "nan"), None, 2),
            (("spdd", "unitary", "--n", "3", "--spectrum", "3,2,1", "--tol", "nan"), None, 2),
            # Ill-conditioned gauges miss the float Kronecker consistency check
            # (a valid gauge, kappa ~ 2e5) or the diagonal/spectrum mapping
            # check (kappa ~ 2e8): a numeric failure, not a crash.
            (("spdd", "kron", "--pa", "cert.json", "--ea", "3,1", "--pb", "cert.json",
              "--eb", "1,2"), "1 0.99999\n0.99999 1\n", 4),
            (("spdd", "make", "cert.json", "--spectrum", "1,1"),
             "1 0.99999999\n0.99999999 1\n", 4),
            # The default reference is the size-6 entry; its variables do
            # not fit --n 4, a usage error rather than a numeric failure.
            (("sos", "identity-test", "--n", "4", "--trials", "2"), None, 2),
            (("irga", "search-counterexample", "--n", "5", "--trials", "10", "--threads", "2"),
             None, 2),
            # The lattice step must be finite and positive.
            (("search", "run", DEMO, "--e0", "1,2,3,4", "--delta", "nan"), None, 2),
            (("search", "run", DEMO, "--e0", "1,2,3,4", "--delta", "inf"), None, 2),
            # Mismatched variables and a missing assignment are usage errors.
            (("poly", "eval", "cert.json", "--at", "a=1"), "a^2 + b\n", 2),
            (("sos", "verify", "--cert", "builtin:n3", "--target", "derived:4:1:2"), None, 2),
            # A report with a NaN or infinite value is a numeric failure, not
            # a verdict, and the overflow that produces it does not warn.
            (("majorize", "check", "--y", "1e308,1e308", "--x", "1e308,-1e308"), None, 4),
            (("search", "run", DEMO, "--e0", "1e308,1e308,1e308,1e308", "--delta", "1"), None, 4),
            (("spdd", "make", DEMO, "--spectrum=1e308,1e308,1e308,1e308"), None, 4),
            # sqrt3 is not a word of the grammar: its letters are unknown
            # identifiers of a certificate over a, b, c.
            (("sos", "verify", "--cert", "cert.json", "--target", "builtin:pn3"),
             '{"variables": "abc", "terms": [{"multiplier": "1", "body": "sqrt3 a b"}]}', 3),
            # Finite factors whose Kronecker product overflows.
            (("spdd", "kron", "--pa", DEMO, "--ea", "1e200,1e200,1e200,1e200",
              "--pb", DEMO, "--eb", "1e200,1e200,1e200,1e200"), None, 4),
            # Parentheses nested too deep are a parse error, not a RecursionError.
            pytest.param(("poly", "parse", "cert.json"), DEEP, 3, id="deep-nesting"),
            pytest.param(("sos", "identity-test", "--n", "6", "--reference", "cert.json"), DEEP, 3,
                         id="deep-nesting-reference"),
            pytest.param(("sos", "verify", "--cert", "builtin:n3", "--target", "cert.json"), DEEP, 3,
                         id="deep-nesting-target"),
            # Every entry is within --tol: a verdict with no permutations.
            pytest.param(("majorize", "birkhoff", "cert.json", "--tol", "0.5"), "0.5 0.5\n0.5 0.5\n", 0,
                         id="birkhoff-empty"),
            # A matrix file with no entries is a parse error in either mode.
            pytest.param(("irga", "check", "cert.json"), "# empty\n", 3, id="empty-float"),
            pytest.param(("irga", "check", "cert.json", "--mode", "exact"), "# empty\n", 3,
                         id="empty-exact"),
            # An exact value beyond float range is a numeric failure.
            pytest.param(("poly", "eval", "cert.json", "--at", "a=1e200,b=1"), "a^2 + b\n", 4,
                         id="eval-overflow"),
            # A derived target past the symbolic range fails as `sos derive` does.
            pytest.param(("sos", "verify", "--cert", "builtin:n3", "--target", "derived:9:1:2"),
                         None, 4, id="derived-beyond-symbolic-range"),
            # A search whose workspace exceeds any address space (about 2.8 EiB)
            # is a usage error; numpy refuses it before touching memory.
            pytest.param(("irga", "search-counterexample", "--n", "10000000", "--trials", "100000"),
                         None, 2, id="search-out-of-memory"),
            # A vector with no entropy is a numeric failure.
            pytest.param(("majorize", "entropy", "0,0"), None, 4, id="entropy-all-zero"),
            pytest.param(("majorize", "entropy", "--", "-1,2"), None, 4, id="entropy-negative"),
        ],
    )
    def test_bad_input_exits_with_documented_code(self, tmp_path, args, cert, code):
        if cert is not None:
            (tmp_path / "cert.json").write_text(cert)
        proc = run_cli(*args, cwd=tmp_path)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        prefix = {3: "parse error: ", 4: "numeric failure: "}.get(code, "")
        assert proc.stderr.startswith(prefix)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_ragged_rows_are_a_parse_error_in_both_modes(self, tmp_path, mode):
        path = tmp_path / "ragged.mat"
        path.write_text("1 2\n3\n")
        proc = run_cli("irga", "check", str(path), "--mode", mode)
        assert proc.returncode == 3
        assert proc.stderr == f"parse error: cannot read matrix {path}: ragged rows\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (("majorize", "check", "--y", "2,1,0", "--x", "1,2"),
             "--x has 2 entries, expected 3 to match --y"),
            (("majorize", "construct", "--y", "2,1,0", "--x", "1,2"),
             "--x has 2 entries, expected 3 to match --y"),
            (("spdd", "make", DEMO, "--spectrum", "1,2"),
             "--spectrum has 2 entries, expected 4 to match the matrix"),
            (("spdd", "verify", DEMO, "--spectrum", "1,2"),
             "--spectrum has 2 entries, expected 4 to match the matrix"),
            (("spdd", "kron", "--pa", DEMO, "--ea", "1,2,3,4", "--pb", DEMO, "--eb", "1,2"),
             "--eb has 2 entries, expected 4 to match --pb"),
            (("spdd", "unitary", "--n", "3", "--spectrum", "1,2"),
             "--spectrum has 2 entries, expected 3 to match --n"),
            (("search", "run", DEMO, "--e0", "1,2", "--delta", "0.1"),
             "--e0 has 2 entries, expected 4 to match the matrix"),
        ],
    )
    def test_vector_length_mismatch_is_a_usage_error(self, args, message):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"length mismatch: {message}\n"

    @pytest.mark.parametrize(
        "args, text, message",
        [
            (("sos", "verify", "--cert", "builtin:nope", "--target", "builtin:pn3"), None,
             "unknown builtin asset 'nope'; available: "
             "['n3', 'n4', 'pn3', 'pn4', 's4-entry12', 's6-entry12']"),
            (("sos", "verify", "--cert", "builtin:n3", "--target", "derived:4:x:2"), None,
             "bad derived target 'derived:4:x:2'"),
            (("poly", "eval", "in.txt", "--at", "a=x"), "a^2 + b\n",
             "bad assignment 'a=x': Invalid literal for Fraction: 'x'"),
            (("irga", "check", "in.txt"), "1 2\n", "in.txt: expected a square matrix, got 1x2"),
        ],
        ids=["unknown-builtin", "derived-target", "assignment", "not-square"],
    )
    def test_usage_error_prints_its_message_as_written(self, tmp_path, args, text, message):
        if text is not None:
            (tmp_path / "in.txt").write_text(text)
        proc = run_cli(*args, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"{message}\n"

    @pytest.mark.parametrize(
        "args, inputs, outcome, code",
        [
            (("irga", "check", "p.mat", "--mode", "exact"),
             {"matrix": "p.mat", "mode": "exact", "tol": 1e-10}, "pass", 0),
            (("irga", "search-counterexample", "--n", "4", "--trials", "50", "--seed", "3"),
             {"n": 4, "range": 2.0, "seed": 3, "tol": 1e-10, "trials": 50},
             "not_found", 1),
            (("sos", "derive", "--n", "3"), {"entry": [None, None], "n": 3}, "pass", 0),
            (("sos", "verify", "--cert", "builtin:n3", "--target", "builtin:pn3"),
             {"cert": "builtin:n3", "target": "builtin:pn3"}, "pass", 0),
            (("sos", "identity-test", "--reference", "builtin:s4-entry12", "--n", "4",
              "--trials", "2"),
             {"i": 1, "j": 2, "n": 4, "range": 1000000, "reference": "builtin:s4-entry12",
              "seed": 0, "trials": 2}, "pass", 0),
            (("poly", "parse", "e.poly"), {"source": "e.poly", "variables": None}, "pass", 0),
            (("poly", "eval", "e.poly", "--at", "a=3,b=1/9"),
             {"at": "a=3,b=1/9", "source": "e.poly"}, "pass", 0),
            (("majorize", "check", "--y", "1,0", "--x", "0.6,0.6"),
             {"tol": 1e-09, "x": "0.6,0.6", "y": "1,0"}, "fail", 1),
            (("majorize", "construct", "--y", "1,0", "--x", "0.5,0.5"),
             {"tol": 1e-09, "x": "0.5,0.5", "y": "1,0"}, "pass", 0),
            (("majorize", "birkhoff", "s.mat"), {"matrix": "s.mat", "tol": 1e-09}, "pass", 0),
            (("majorize", "entropy", "1,1"), {"vector": "1,1"}, "pass", 0),
            (("spdd", "gauge", "p.mat", "--gauge-mode", "proven"),
             {"gauge_mode": "proven", "matrix": "p.mat", "mode": "float"}, "pass", 0),
            (("spdd", "make", "p.mat", "--spectrum", "3,1"),
             {"gauge_mode": "conjectured", "matrix": "p.mat", "spectrum": "3,1"}, "pass", 0),
            (("spdd", "verify", "p.mat", "--spectrum", "3,1"),
             {"gauge_mode": "conjectured", "matrix": "p.mat", "spectrum": "3,1", "tol": 1e-09},
             "pass", 0),
            (("spdd", "kron", "--pa", "p.mat", "--ea", "3,1", "--pb", "p.mat", "--eb", "1,2"),
             {"ea": "3,1", "eb": "1,2", "pa": "p.mat", "pb": "p.mat", "tol": 1e-09}, "pass", 0),
            (("spdd", "construct", "--n", "5", "--spectra", "2"),
             {"mode": "float", "n": 5, "seed": 0, "spectra": 2}, "pass", 0),
            (("spdd", "unitary", "--n", "3", "--seed", "1", "--spectrum", "3,2,1"),
             {"n": 3, "seed": 1, "spectrum": "3,2,1", "tol": 1e-09}, "pass", 0),
            (("search", "run", "p.mat", "--e0", "3,1", "--delta", "1", "--max-iters", "5"),
             {"delta": 1.0, "direction": "max_entropy", "e0": "3,1", "gauge_mode": "conjectured",
              "matrix": "p.mat", "max_iters": 5, "tol": 1e-09}, "pass", 0),
            # A spectrum whose entropy is undefined still builds M.
            (("spdd", "make", "p.mat", "--spectrum=-1,2"),
             {"gauge_mode": "conjectured", "matrix": "p.mat", "spectrum": "-1,2"}, "pass", 0),
        ],
    )
    def test_every_command_records_its_envelope(self, tmp_path, monkeypatch, args, inputs,
                                                 outcome, code):
        # In-process, so all 18 commands stay cheap; every parameter, defaults
        # included, is recorded under its option (or argument) name.
        (tmp_path / "p.mat").write_text("2 1\n1 1\n")
        (tmp_path / "s.mat").write_text("2/3 1/3\n1/3 2/3\n")
        (tmp_path / "e.poly").write_text("a^2 b - 1/2\n")
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, list(args))
        assert result.exit_code == code
        report = json.loads(result.stdout)
        assert report["command"] == " ".join(args[:2])
        assert report["inputs"] == inputs
        assert report["outcome"] == outcome

    def test_reports_are_deterministic_modulo_wall_time(self):
        a = run_process("irga", "check", DEMO, hash_seed="1")
        b = run_process("irga", "check", DEMO, hash_seed="2")
        ra, rb = json.loads(a.stdout), json.loads(b.stdout)
        ra.pop("wall_time_ms")
        rb.pop("wall_time_ms")
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_search_reports_deterministic_across_processes(self):
        args = ("irga", "search-counterexample", "--n", "7", "--trials", "4000", "--seed", "5")
        a = run_process(*args, hash_seed="1")
        b = run_process(*args, hash_seed="2")
        ra, rb = json.loads(a.stdout), json.loads(b.stdout)
        ra.pop("wall_time_ms"); rb.pop("wall_time_ms")
        assert ra == rb

    def test_out_writes_file_and_json_flag_quiets_stderr(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("--out", str(out), "--json", "irga", "check", DEMO)
        assert proc.returncode == 0
        assert proc.stdout == "" and proc.stderr == ""
        report = json.loads(out.read_text())
        assert report["outcome"] == "pass"

    @pytest.mark.parametrize(
        "args, matrix, code",
        [
            (("majorize", "check", "--y", "1,0", "--x", "0.6,0.6"), None, 1),
            (("spdd", "construct", "--n", "1"), None, 2),
            (("irga", "check", "p.mat"), "1 frog\n2 3\n", 3),
            (("irga", "check", "p.mat"), "1 2\n2 1\n", 4),
            (("majorize", "check", "--y", "1e308,1e308", "--x", "1e308,-1e308"), None, 4),
        ],
        ids=["violated", "usage", "parse", "numeric", "non-finite"],
    )
    def test_out_holds_a_report_only_for_a_verdict(self, tmp_path, args, matrix, code):
        if matrix is not None:
            (tmp_path / "p.mat").write_text(matrix)
        out = tmp_path / "report.json"
        proc = run_cli("--out", str(out), *args, cwd=tmp_path)
        assert proc.returncode == code
        assert proc.stdout == ""
        if code == 1:
            assert json.loads(out.read_text())["outcome"] == "fail"
        else:
            assert not out.exists()
        if code == 4:
            assert proc.stderr.startswith("numeric failure: ")

    def test_out_into_a_missing_directory_is_a_usage_error(self, tmp_path):
        out = tmp_path / "missing" / "report.json"
        proc = run_cli("--out", str(out), "majorize", "entropy", "1,1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"cannot write report {out}: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [("poly", "parse", "input"),
         ("poly", "eval", "input", "--at", "a=1"),
         ("sos", "verify", "--cert", "input", "--target", "builtin:pn3"),
         ("sos", "verify", "--cert", "builtin:n3", "--target", "input"),
         ("sos", "identity-test", "--n", "6", "--reference", "input"),
         ("irga", "check", "input")],
        ids=["poly-parse", "poly-eval", "sos-verify-cert", "sos-verify-target",
             "sos-identity-test-reference", "irga-check"],
    )
    def test_input_that_is_not_utf8_is_a_parse_error(self, tmp_path, args):
        # 0xff never occurs in UTF-8.
        (tmp_path / "input").write_bytes(b"1 \xff\n0 1\n")
        proc = run_cli(*args, cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr

    def test_human_summary_on_stderr(self):
        proc = run_cli("irga", "check", DEMO)
        assert "doubly stochastic" in proc.stderr

    def test_usage_error_unknown_command(self):
        proc = run_cli("irga", "frobnicate")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "args, matrix, code",
        [
            (("irga", "check", DEMO), None, 0),
            (("majorize", "check", "--y", "1,0", "--x", "0.6,0.6"), None, 1),
            (("irga", "frobnicate"), None, 2),
            (("irga", "check", "p.mat"), "1 frog\n2 3\n", 3),
            (("irga", "check", "p.mat"), "1 2\n2 1\n", 4),
        ],
        ids=["verified", "violated", "usage", "parse", "numeric"],
    )
    def test_each_exit_code_in_a_real_process(self, tmp_path, args, matrix, code):
        # The other CLI tests run in-process; this runs the module entry point
        # end to end, where a crash would exit 1 like a "violated" verdict.
        path = tmp_path / "p.mat"
        if matrix is not None:
            path.write_text(matrix)
        proc = run_process(*(str(path) if arg == "p.mat" else arg for arg in args))
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr


# Imports the CLI in a fresh interpreter, then runs each command line of
# argv[1] in that process and records whether scipy, the scipy.linalg
# package, scipy's LAPACK extension and numpy.random had been imported,
# and which of the modules that the CLI imports per command.
_SCIPY_PROBE = """
import json, sys
import irgalab.cli
from click.testing import CliRunner
LAZY = ["irgalab." + name for name in ("majorization", "polytext", "search", "sos", "spdd")]
def loaded():
    return ["scipy" in sys.modules, "scipy.linalg" in sys.modules,
            "scipy.linalg._flapack" in sys.modules, "numpy.random" in sys.modules,
            [name for name in LAZY if name in sys.modules]]
seen = [loaded()]
for args in json.loads(sys.argv[1]):
    result = CliRunner().invoke(irgalab.cli.main, args, catch_exceptions=False)
    seen.append([result.exit_code, *loaded()])
print(json.dumps(seen))
"""


def test_scipy_is_loaded_only_by_float_linear_algebra():
    commands = [
        ["irga", "search-counterexample", "--n", "7", "--trials", "3000", "--seed", "5"],
        ["sos", "verify", "--cert", "builtin:n4", "--target", "builtin:pn4"],
        ["sos", "identity-test", "--reference", "builtin:s4-entry12", "--n", "4", "--trials", "2"],
        ["irga", "check", "--mode", "exact", DEMO],
        ["irga", "check", DEMO],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands)],
        capture_output=True,
        text=True,
        cwd=SOURCE_DIR,
    )
    assert proc.returncode == 0, proc.stderr
    # The search draws through irgalab._pcg64 and certifies exactly: it loads
    # neither scipy nor numpy.random (about 6 MB of RSS on its own), and
    # neither it nor the CLI's import loads a module it does not run.  The
    # identity test draws its points with numpy.random; the float check loads
    # only scipy's LAPACK extension, neither the scipy nor the scipy.linalg
    # package.
    sos = ["irgalab.polytext", "irgalab.sos"]
    assert json.loads(proc.stdout) == [
        [False, False, False, False, []],
        [1, False, False, False, False, []],
        [0, False, False, False, False, sos],
        [0, False, False, False, True, sos],
        [0, False, False, False, True, sos],
        [0, False, False, True, True, sos],
    ]


# Imports the CLI in a fresh interpreter and runs the command line of
# argv[1:] in it; prints the exit code, the irgalab modules that the import
# loaded and those that the command loaded after it.
_COMMAND_PROBE = """
import json, sys
import irgalab.cli
from click.testing import CliRunner
def ours(names):
    return sorted(name for name in names if name.startswith("irgalab"))
at_start = set(sys.modules)
result = CliRunner().invoke(irgalab.cli.main, sys.argv[1:], catch_exceptions=False)
print(json.dumps([result.exit_code, ours(at_start), ours(set(sys.modules) - at_start)]))
"""


@pytest.mark.parametrize(
    "args, loaded",
    [
        (("majorize", "check", "--y", "3,1", "--x", "2,2"), ["majorization"]),
        (("poly", "parse", str(data_path("pn3.poly"))), ["exact", "polytext"]),
        (("spdd", "gauge", DEMO), ["spdd"]),
        (("search", "run", DEMO, "--e0", "1,2,3,4", "--delta", "0.5"),
         ["majorization", "search", "spdd"]),
        (("sos", "derive", "--n", "3"), ["exact", "polytext", "sos"]),
    ],
)
def test_each_command_loads_only_what_it_runs(args, loaded):
    proc = subprocess.run(
        [sys.executable, "-c", _COMMAND_PROBE, *args],
        capture_output=True,
        text=True,
        cwd=SOURCE_DIR,
    )
    assert proc.returncode == 0, proc.stderr
    base = ["irgalab", "irgalab._pcg64", "irgalab.cli", "irgalab.irga", "irgalab.linalg"]
    assert json.loads(proc.stdout) == [0, base, ["irgalab." + name for name in loaded]]


def test_cli_has_no_import_inside_a_function():
    # Commands reach the library through the package's lazy attributes
    # (``irgalab.spdd.make_gauge``); an import inside a function would be a
    # second way of loading a module on first use.
    tree = ast.parse(Path(irgalab.cli.__file__).read_text(encoding="utf-8"))
    nested = [
        node.lineno
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []
    package_imports = [
        ast.unparse(node)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("irgalab"))
        or isinstance(node, ast.Import) and any(a.name.startswith("irgalab") for a in node.names)
    ]
    assert package_imports == ["import irgalab"]


def test_every_error_class_has_one_exit_code():
    # The command line reports a NumericFailure as exit 4 and a ParseFailure
    # as exit 3; the two mismatch errors of ``exact`` are the documented usage
    # errors.  A new error class must take exactly one of these places.
    usage = (irgalab.exact.IncompatibleVariablesError, irgalab.exact.IncompleteAssignmentError)
    kinds = {}
    for info in pkgutil.iter_modules(irgalab.__path__):
        module = importlib.import_module(f"irgalab.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__):
                kinds[value.__qualname__] = (
                    issubclass(value, irgalab.linalg.NumericFailure),
                    issubclass(value, irgalab.exact.ParseFailure),
                    value in usage,
                )
    assert len(kinds) >= 16
    assert {name: kind for name, kind in kinds.items() if sum(kind) != 1} == {}


def test_importing_the_package_loads_no_numpy():
    probe = "import sys, irgalab; print(sorted(m for m in sys.modules if m.startswith(('irgalab', 'numpy'))))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=SOURCE_DIR
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['irgalab']\n"


def test_package_exports_resolve_to_their_modules():
    for name in irgalab.__all__:
        value = getattr(irgalab, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    assert {*irgalab.__all__, "linalg", "sos", "cli"} <= set(dir(irgalab))
    assert irgalab.spdd is importlib.import_module("irgalab.spdd")
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        irgalab.nonexistent

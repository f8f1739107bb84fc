"""Command-line surface: every verification and search as a reproducible,
scriptable command.

Each command writes a single JSON report document to stdout (or --out) and
a short human summary to stderr.  Reports are byte-identical across reruns
with the same arguments and seeds, except for the wall_time_ms field.

Exit codes: 0 verified/found, 1 violated/not found, 2 usage error,
3 parse error, 4 numeric failure (singular / not PD / not symmetric).
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

import click
import numpy as np

from . import linalg, majorization as mj, search as searchmod, sos as sosmod, spdd as spddmod
from .exact import IncompatibleVariablesError, IncompleteAssignmentError, VariableSet
from .irga import check_conjecture, search_counterexample
from .polytext import (
    PolyParseError,
    parse_expression,
    parse_polynomial,
    render_polynomial,
)

EXIT_VERIFIED = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4

_NUMERIC_ERRORS = (
    linalg.SingularMatrixError,
    linalg.NotPositiveDefiniteError,
    linalg.NotSymmetricError,
    linalg.DimensionMismatchError,
    mj.NotDoublyStochasticError,
    spddmod.InvalidGaugeError,
    spddmod.GaugeModeError,
    sosmod.SymbolicCapabilityError,
    IncompatibleVariablesError,
    IncompleteAssignmentError,
)


class _ReportFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _emit(command: str, inputs: dict, outcome: str, payload: dict, started: float, out_path):
    report = {
        "command": command,
        "inputs": inputs,
        "outcome": outcome,
        "payload": payload,
        "wall_time_ms": int((time.monotonic() - started) * 1000),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        click.echo(text)
    return report


def _summary(message: str, quiet: bool):
    if not quiet:
        click.echo(message, err=True)


def _outcome_code(outcome: str) -> int:
    return EXIT_VERIFIED if outcome in ("pass", "found") else EXIT_VIOLATED


def _run_command(ctx, command, inputs, body):
    """Shared wrapper: timing, report emission, exit-code mapping."""
    started = time.monotonic()
    quiet = ctx.obj.get("json_only", False)
    out_path = ctx.obj.get("out")
    try:
        outcome, payload, summary = body()
    except (PolyParseError, sosmod.InvalidCertificateError) as exc:
        _summary(f"parse error: {exc}", quiet)
        sys.exit(EXIT_PARSE)
    except _ReportFailure as exc:
        _summary(str(exc), quiet)
        sys.exit(exc.code)
    except _NUMERIC_ERRORS as exc:
        _summary(f"numeric failure: {exc}", quiet)
        sys.exit(EXIT_NUMERIC)
    except (ValueError, IndexError) as exc:
        # Argument checks in the library raise these; the typed numeric
        # errors above are ValueError subclasses and keep their own code.
        _summary(str(exc), quiet)
        sys.exit(EXIT_USAGE)
    _emit(command, inputs, outcome, payload, started, out_path)
    _summary(summary, quiet)
    sys.exit(_outcome_code(outcome))


def _load_matrix_arg(path, mode: str, square: bool = True):
    try:
        matrix = linalg.load_matrix(path, exact=(mode == "exact"))
    except (ValueError, OSError) as exc:
        raise _ReportFailure(EXIT_PARSE, f"cannot read matrix {path}: {exc}") from exc
    if square:
        shape = (
            (matrix.n_rows, matrix.n_cols)
            if isinstance(matrix, linalg.Matrix)
            else matrix.shape
        )
        if shape[0] != shape[1]:
            raise _ReportFailure(
                EXIT_USAGE, f"{path}: expected a square matrix, got {shape[0]}x{shape[1]}"
            )
    return matrix


def _load_vector_arg(path, exact=False):
    try:
        return linalg.load_vector(path, exact=exact)
    except (ValueError, OSError) as exc:
        raise _ReportFailure(EXIT_PARSE, f"cannot read vector {path}: {exc}") from exc


def _parse_inline_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(Fraction(tok)) for tok in text.replace(",", " ").split()])
    except ValueError as exc:
        raise _ReportFailure(EXIT_PARSE, f"bad vector literal {text!r}: {exc}") from exc


def _vector_arg(value: str) -> np.ndarray:
    """A vector given inline ("3,1" or "3 1") or as a file path."""
    import os

    if os.path.exists(value):
        return _load_vector_arg(value)
    return _parse_inline_vector(value)


def _resolve_spec(spec: str, what: str, builtin, load):
    """``builtin(name)`` for a "builtin:name" spec, else ``load(path)``.

    Unknown builtins and unreadable files are usage errors; JSON that does
    not decode is a parse error.
    """
    if spec.startswith("builtin:"):
        try:
            return builtin(spec.split(":", 1)[1])
        except KeyError as exc:
            raise _ReportFailure(EXIT_USAGE, str(exc)) from exc
    try:
        return load(spec)
    except OSError as exc:
        raise _ReportFailure(EXIT_USAGE, f"cannot read {what} {spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ReportFailure(EXIT_PARSE, f"bad {what} JSON: {exc}") from exc


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


@click.group()
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write the JSON report to this path instead of stdout.")
@click.option("--json", "json_only", is_flag=True, default=False,
              help="Suppress the human summary on stderr.")
@click.pass_context
def main(ctx, out, json_only):
    """Verification and search toolkit for inverse relative gain arrays."""
    ctx.ensure_object(dict)
    ctx.obj["out"] = out
    ctx.obj["json_only"] = json_only


# ---------------------------------------------------------------- irga


@main.group("irga")
def irga_group():
    """IRGA computation and conjecture membership."""


@irga_group.command("check")
@click.argument("matrix_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["float", "exact"]), default="float")
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.pass_context
def irga_check(ctx, matrix_path, mode, tol):
    """Compute S = (P o P^-1)^-1 and report membership checks."""

    def body():
        p = _load_matrix_arg(matrix_path, mode)
        report = check_conjecture(p, tol=tol)
        outcome = "pass" if report.doubly_stochastic else "fail"
        summary = (
            f"S doubly stochastic: {report.doubly_stochastic} "
            f"(min entry {float(report.min_entry):.6g}, pd {report.pd})"
        )
        return outcome, {"report": report.to_json_dict()}, summary

    _run_command(ctx, "irga check", {"matrix": str(matrix_path), "mode": mode, "tol": tol}, body)


@irga_group.command("search-counterexample")
@click.option("--n", type=int, required=True)
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--range", "rng_range", type=float, default=2.0, show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--threads", type=int, default=1, show_default=True)
@click.pass_context
def irga_search(ctx, n, trials, seed, rng_range, tol, threads):
    """Randomized search for a sample whose IRGA has a negative entry."""

    def body():
        if n < 2 or trials < 1:
            raise _ReportFailure(EXIT_USAGE, "need --n >= 2 and --trials >= 1")
        outcome_obj = search_counterexample(
            n, trials, seed=seed, rng_range=rng_range, tol=tol, threads=threads
        )
        payload = {
            "trials": outcome_obj.trials,
            "float_hits": outcome_obj.float_hits,
            "hit_rate": outcome_obj.hit_rate,
            "uncertified_hits": outcome_obj.uncertified_hits,
            "found": outcome_obj.found,
        }
        if outcome_obj.found:
            payload["trial_index"] = outcome_obj.trial_index
            payload["sample_seed"] = outcome_obj.sample.seed
            payload["l"] = outcome_obj.sample.l_entries_json()
            payload["min_entry_exact"] = str(outcome_obj.report.min_entry)
            payload["min_entry_float"] = float(outcome_obj.report.min_entry)
            summary = (
                f"counterexample at trial {outcome_obj.trial_index}: exact min entry "
                f"{float(outcome_obj.report.min_entry):.6g} "
                f"({outcome_obj.float_hits} float hits / {trials} trials)"
            )
            return "found", payload, summary
        return (
            "not_found",
            payload,
            f"no counterexample in {trials} trials ({outcome_obj.float_hits} float hits)",
        )

    inputs = {
        "n": n,
        "trials": trials,
        "seed": seed,
        "range": rng_range,
        "tol": tol,
        "threads": threads,
    }
    _run_command(ctx, "irga search-counterexample", inputs, body)


# ----------------------------------------------------------------- sos


@main.group("sos")
def sos_group():
    """Symbolic entry polynomials and certificate verification."""


@sos_group.command("derive")
@click.option("--n", type=int, required=True)
@click.option("--entry", nargs=2, type=int, default=(None, None),
              help="Row and column of the entry (defaults to (2,3) for n=3, else (1,2)).")
@click.pass_context
def sos_derive(ctx, n, entry):
    """Derive the entry polynomial symbolically (sizes 2..4)."""

    def body():
        i, j = entry
        if i is None:
            i, j = (2, 3) if n == 3 else (1, 2)
        polynomial = sosmod.entry_polynomial(n, i, j)
        payload = {
            "n": n,
            "entry": [i, j],
            "terms": len(polynomial),
            "total_degree": polynomial.total_degree(),
            "polynomial": render_polynomial(polynomial),
        }
        return "pass", payload, f"derived entry ({i},{j}) of size {n}: {len(polynomial)} terms"

    _run_command(ctx, "sos derive", {"n": n, "entry": list(entry)}, body)


@sos_group.command("verify")
@click.option("--cert", required=True, help="builtin:n3, builtin:n4, or a JSON file path.")
@click.option("--target", required=True,
              help="builtin:pn3/pn4/s4-entry12, a polynomial file, or derived:N:I:J.")
@click.pass_context
def sos_verify(ctx, cert, target):
    """Expand a sum-of-squares certificate and compare with the target."""

    def body():
        certificate = _resolve_spec(
            cert, "certificate", sosmod.builtin_certificate, sosmod.SoSCertificate.load
        )
        if target.startswith("derived:"):
            try:
                _, n_text, i_text, j_text = target.split(":")
                goal = sosmod.entry_polynomial(int(n_text), int(i_text), int(j_text))
            except ValueError as exc:
                raise _ReportFailure(EXIT_USAGE, f"bad derived target {target!r}") from exc
        else:
            goal = _resolve_spec(
                target,
                "polynomial",
                lambda name: sosmod.builtin_polynomial(name, certificate.variables),
                lambda path: parse_polynomial(_read_text(path), certificate.variables),
            )
        check = certificate.verify(goal)
        payload = {"check": check.to_json_dict(), "terms": len(certificate)}
        if check.ok:
            return "pass", payload, f"certificate matches target exactly ({len(certificate)} squares)"
        return "fail", payload, f"certificate mismatch on {len(check.difference)} monomials"

    _run_command(ctx, "sos verify", {"cert": cert, "target": target}, body)


@sos_group.command("identity-test")
@click.option("--reference", default="builtin:s6-entry12", show_default=True)
@click.option("--n", type=int, required=True)
@click.option("--i", "i_index", type=int, default=1, show_default=True)
@click.option("--j", "j_index", type=int, default=2, show_default=True)
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--range", "coord_range", type=int, default=10**6, show_default=True)
@click.pass_context
def sos_identity(ctx, reference, n, i_index, j_index, trials, seed, coord_range):
    """Randomized identity test of a reference polynomial vs the exact oracle."""

    def body():
        sosmod.validate_identity_arguments(n, i_index, j_index, trials, coord_range)
        expression = _resolve_spec(
            reference,
            "polynomial",
            sosmod.builtin_expression,
            lambda path: parse_expression(_read_text(path)),
        )
        report = sosmod.identity_test(
            expression, n, i_index, j_index,
            trials=trials, seed=seed, coordinate_range=coord_range,
        )
        payload = {"report": report.to_json_dict()}
        if report.all_agree:
            return "pass", payload, f"{report.agreements}/{report.trials} points agree exactly"
        return (
            "fail",
            payload,
            f"disagreement: {report.agreements}/{report.trials} points agree; "
            "check the transcription or the variable-to-position mapping",
        )

    inputs = {
        "reference": reference,
        "n": n,
        "i": i_index,
        "j": j_index,
        "trials": trials,
        "seed": seed,
        "range": coord_range,
    }
    _run_command(ctx, "sos identity-test", inputs, body)


# ---------------------------------------------------------------- poly


@main.group("poly")
def poly_group():
    """Polynomial text utilities."""


@poly_group.command("parse")
@click.argument("source", type=click.Path(exists=True, dir_okay=False, allow_dash=True))
@click.option("--variables", default=None, help="Restrict identifiers to this letter set.")
@click.pass_context
def poly_parse(ctx, source, variables):
    """Parse a polynomial file and print its canonical rendering."""

    def body():
        text = sys.stdin.read() if source == "-" else _read_text(source)
        varset = VariableSet(variables) if variables else None
        polynomial = parse_polynomial(text, varset)
        payload = {
            "terms": len(polynomial),
            "total_degree": polynomial.total_degree(),
            "variables": list(polynomial.variables.names),
            "canonical": render_polynomial(polynomial),
        }
        return "pass", payload, f"{len(polynomial)} terms over {''.join(polynomial.variables.names)}"

    _run_command(ctx, "poly parse", {"source": str(source), "variables": variables}, body)


@poly_group.command("eval")
@click.argument("source", type=click.Path(exists=True, dir_okay=False))
@click.option("--at", "assignment", required=True,
              help='Comma-separated name=value pairs, e.g. "a=1/2,b=3,c=-1".')
@click.pass_context
def poly_eval(ctx, source, assignment):
    """Evaluate a polynomial file exactly at a rational point."""

    def body():
        text = _read_text(source)
        point = {}
        try:
            for pair in assignment.split(","):
                name, _, value = pair.partition("=")
                point[name.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise _ReportFailure(EXIT_USAGE, f"bad assignment {assignment!r}: {exc}") from exc
        expression = parse_expression(text)
        value = expression.evaluate(point)
        payload = {"value": str(value), "value_float": float(value)}
        return "pass", payload, f"value = {value}"

    _run_command(ctx, "poly eval", {"source": str(source), "at": assignment}, body)


# ------------------------------------------------------------- majorize


@main.group("majorize")
def majorize_group():
    """Majorization decisions and witnesses."""


@majorize_group.command("check")
@click.option("--y", "y_spec", required=True, help="Majorizing vector (inline or file).")
@click.option("--x", "x_spec", required=True, help="Majorized candidate (inline or file).")
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.pass_context
def majorize_check(ctx, y_spec, x_spec, tol):
    """Decide whether y majorizes x."""

    def body():
        y = _vector_arg(y_spec)
        x = _vector_arg(x_spec)
        verdict = mj.majorizes(y, x, tol=tol)
        outcome = "pass" if verdict.holds else "fail"
        return outcome, {"verdict": verdict.to_json_dict()}, f"majorizes: {verdict.holds}"

    _run_command(ctx, "majorize check", {"y": y_spec, "x": x_spec, "tol": tol}, body)


@majorize_group.command("construct")
@click.option("--y", "y_spec", required=True)
@click.option("--x", "x_spec", required=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.pass_context
def majorize_construct(ctx, y_spec, x_spec, tol):
    """Build an explicit T-transform chain mapping y onto x."""

    def body():
        y = _vector_arg(y_spec)
        x = _vector_arg(x_spec)
        try:
            chain = mj.transfer_chain(y, x, tol=tol)
        except ValueError as exc:
            return "fail", {"error": str(exc)}, str(exc)
        applied = chain.apply(y)
        payload = {
            "chain": chain.to_json_dict(),
            "transforms": len(chain),
            "max_apply_error": float(np.abs(applied - x).max()),
        }
        return "pass", payload, f"{len(chain)} transforms map y onto x"

    _run_command(ctx, "majorize construct", {"y": y_spec, "x": x_spec, "tol": tol}, body)


@majorize_group.command("birkhoff")
@click.argument("matrix_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.pass_context
def majorize_birkhoff(ctx, matrix_path, tol):
    """Decompose a doubly stochastic matrix into permutations."""

    def body():
        s = _load_matrix_arg(matrix_path, "float")
        decomposition = mj.birkhoff(s, tol=tol)
        residual = float(np.abs(decomposition.reconstruct() - s).max())
        payload = {
            "decomposition": decomposition.to_json_dict(),
            "permutation_count": len(decomposition),
            "weight_sum": float(sum(decomposition.weights)),
            "reconstruction_error": residual,
        }
        return "pass", payload, f"{len(decomposition)} permutations, residual {residual:.3e}"

    _run_command(ctx, "majorize birkhoff", {"matrix": str(matrix_path), "tol": tol}, body)


@majorize_group.command("entropy")
@click.argument("vector_spec")
@click.pass_context
def majorize_entropy(ctx, vector_spec):
    """Shannon entropy of a vector normalized to a distribution."""

    def body():
        v = _vector_arg(vector_spec)
        try:
            value = mj.shannon_entropy(v)
        except ValueError as exc:
            raise _ReportFailure(EXIT_NUMERIC, str(exc)) from exc
        return "pass", {"entropy": value}, f"entropy = {value:.6f} nats"

    _run_command(ctx, "majorize entropy", {"vector": vector_spec}, body)


# ----------------------------------------------------------------- spdd


@main.group("spdd")
def spdd_group():
    """Gauges and diagonal-majorizes-spectrum matrices."""


def _gauge_from_path(path, gauge_mode, mode):
    p = _load_matrix_arg(path, mode)
    return spddmod.make_gauge(p, mode=gauge_mode)


@spdd_group.command("gauge")
@click.argument("matrix_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--gauge-mode", type=click.Choice(["proven", "conjectured"]), default="conjectured",
              show_default=True)
@click.option("--mode", type=click.Choice(["float", "exact"]), default="float", show_default=True)
@click.pass_context
def spdd_gauge(ctx, matrix_path, gauge_mode, mode):
    """Validate a matrix as a gauge (IRGA doubly stochastic)."""

    def body():
        gauge = _gauge_from_path(matrix_path, gauge_mode, mode)
        payload = {
            "valid": gauge.valid,
            "provenance": gauge.provenance_json(),
            "report": gauge.report.to_json_dict(),
        }
        outcome = "pass" if gauge.valid else "fail"
        return outcome, payload, f"gauge valid: {gauge.valid}"

    inputs = {"matrix": str(matrix_path), "gauge_mode": gauge_mode, "mode": mode}
    _run_command(ctx, "spdd gauge", inputs, body)


@spdd_group.command("make")
@click.argument("matrix_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--spectrum", required=True, help="Spectrum vector (inline or file).")
@click.option("--gauge-mode", type=click.Choice(["proven", "conjectured"]), default="conjectured")
@click.pass_context
def spdd_make(ctx, matrix_path, spectrum, gauge_mode):
    """Build M = P diag(e) P^-1 and report diagonal and entropies."""

    def body():
        gauge = _gauge_from_path(matrix_path, gauge_mode, "float")
        e = _vector_arg(spectrum)
        matrix = spddmod.make_spdd(gauge, e)
        payload = {
            "m": [[float(v) for v in row] for row in matrix.m],
            "diagonal": [float(v) for v in matrix.diagonal],
            "spectrum": [float(v) for v in matrix.spectrum],
            "spectral_entropy": matrix.spectral_entropy(),
            "diagonal_entropy": matrix.diagonal_entropy(),
            "gauge_valid": gauge.valid,
        }
        return "pass", payload, f"built {matrix.n}x{matrix.n} matrix; gauge valid: {gauge.valid}"

    inputs = {"matrix": str(matrix_path), "spectrum": spectrum, "gauge_mode": gauge_mode}
    _run_command(ctx, "spdd make", inputs, body)


@spdd_group.command("verify")
@click.argument("matrix_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--spectrum", required=True)
@click.option("--gauge-mode", type=click.Choice(["proven", "conjectured"]), default="conjectured")
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.pass_context
def spdd_verify(ctx, matrix_path, spectrum, gauge_mode, tol):
    """Verify the mapping identities and the majorization property."""

    def body():
        gauge = _gauge_from_path(matrix_path, gauge_mode, "float")
        e = _vector_arg(spectrum)
        matrix = spddmod.make_spdd(gauge, e)
        mapping = spddmod.verify_mapping(matrix, tol=tol)
        verdict = spddmod.verify_majorization_theorem(matrix, tol=tol)
        payload = {
            "mapping_ok": mapping.ok,
            "mapping_max_deviation": mapping.max_deviation,
            "majorization": verdict.to_json_dict(),
        }
        ok = mapping.ok and verdict.holds
        return (
            "pass" if ok else "fail",
            payload,
            f"mapping ok: {mapping.ok}; diagonal majorizes spectrum: {verdict.holds}",
        )

    inputs = {
        "matrix": str(matrix_path),
        "spectrum": spectrum,
        "gauge_mode": gauge_mode,
        "tol": tol,
    }
    _run_command(ctx, "spdd verify", inputs, body)


@spdd_group.command("kron")
@click.option("--pa", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--ea", required=True)
@click.option("--pb", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--eb", required=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.pass_context
def spdd_kron(ctx, pa, ea, pb, eb, tol):
    """Kronecker-compose two SPDD matrices and verify the retained property."""

    def body():
        ga = _gauge_from_path(pa, "conjectured", "float")
        gb = _gauge_from_path(pb, "conjectured", "float")
        ma = spddmod.make_spdd(ga, _vector_arg(ea))
        mb = spddmod.make_spdd(gb, _vector_arg(eb))
        composed = spddmod.kron_spdd(ma, mb)
        mapping = spddmod.verify_mapping(composed, tol=tol)
        verdict = spddmod.verify_majorization_theorem(composed, tol=tol)
        payload = {
            "n": composed.n,
            "mapping_ok": mapping.ok,
            "mapping_max_deviation": mapping.max_deviation,
            "majorization": verdict.to_json_dict(),
            "spectrum": [float(v) for v in composed.spectrum],
            "diagonal": [float(v) for v in composed.diagonal],
        }
        ok = mapping.ok and verdict.holds
        return "pass" if ok else "fail", payload, f"{composed.n}x{composed.n} composition ok: {ok}"

    inputs = {"pa": str(pa), "ea": ea, "pb": str(pb), "eb": eb, "tol": tol}
    _run_command(ctx, "spdd kron", inputs, body)


@spdd_group.command("construct")
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--mode", type=click.Choice(["float", "exact"]), default="float", show_default=True)
@click.option("--spectra", type=int, default=5, show_default=True,
              help="Random positive spectra to sweep through the majorization check.")
@click.pass_context
def spdd_construct(ctx, n, seed, mode, spectra):
    """Assemble a block-diagonal gauge of any size n >= 2 and sweep it."""

    def body():
        plan = spddmod.block_plan(n)
        gauge = spddmod.assemble_gpdd(plan, seed, mode=mode)
        float_gauge = gauge
        if gauge.is_exact:
            float_gauge = spddmod.block_gauge(
                [
                    spddmod.make_gauge(child.p.to_float_array(), mode="proven")
                    for child in gauge.children
                ]
            )
        rng = np.random.default_rng(seed)
        sweep = []
        all_hold = True
        for _ in range(spectra):
            e = rng.uniform(0.1, 10.0, n)
            matrix = spddmod.make_spdd(float_gauge, e)
            verdict = spddmod.verify_majorization_theorem(matrix)
            sweep.append(verdict.holds)
            all_hold = all_hold and verdict.holds
        payload = {
            "plan": list(plan.sizes),
            "valid": gauge.valid,
            "mode": mode,
            "report": gauge.report.to_json_dict(),
            "majorization_sweep": sweep,
        }
        ok = gauge.valid and all_hold
        return (
            "pass" if ok else "fail",
            payload,
            f"plan {list(plan.sizes)} valid: {gauge.valid}; sweep all hold: {all_hold}",
        )

    inputs = {"n": n, "seed": seed, "mode": mode, "spectra": spectra}
    _run_command(ctx, "spdd construct", inputs, body)


@spdd_group.command("unitary")
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--spectrum", required=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.pass_context
def spdd_unitary(ctx, n, seed, spectrum, tol):
    """Contrast check: orthogonal diagonalization reverses the ordering."""

    def body():
        e = _vector_arg(spectrum)
        verdict = spddmod.unitary_class_check(n, seed, e, tol=tol)
        outcome = "pass" if verdict.holds else "fail"
        return (
            outcome,
            {"verdict": verdict.to_json_dict()},
            f"spectrum majorizes diagonal: {verdict.holds}",
        )

    inputs = {"n": n, "seed": seed, "spectrum": spectrum, "tol": tol}
    _run_command(ctx, "spdd unitary", inputs, body)


# ---------------------------------------------------------------- search


@main.group("search")
def search_group():
    """Majorization-guided lattice search."""


@search_group.command("run")
@click.argument("matrix_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--e0", required=True, help="Start spectrum (inline or file).")
@click.option("--delta", type=float, required=True)
@click.option("--direction", type=click.Choice(["max_entropy", "min_entropy"]),
              default="max_entropy", show_default=True)
@click.option("--max-iters", type=int, default=1000, show_default=True)
@click.option("--gauge-mode", type=click.Choice(["proven", "conjectured"]), default="conjectured")
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.pass_context
def search_run(ctx, matrix_path, e0, delta, direction, max_iters, gauge_mode, tol):
    """Run the lattice search from a start spectrum under a gauge."""

    def body():
        gauge = _gauge_from_path(matrix_path, gauge_mode, "float")
        start = _vector_arg(e0)
        config = searchmod.SearchConfig(
            delta=delta, direction=direction, max_iters=max_iters, tol=tol
        )
        trace = searchmod.run(gauge, start, config)
        payload = {"trace": trace.to_json_dict(), "steps": len(trace.moves)}
        summary = (
            f"{len(trace.moves)} moves, termination {trace.termination}, "
            f"final spectral entropy {trace.states[-1].spectral_entropy:.6f}"
        )
        return "pass", payload, summary

    inputs = {
        "matrix": str(matrix_path),
        "e0": e0,
        "delta": delta,
        "direction": direction,
        "max_iters": max_iters,
        "gauge_mode": gauge_mode,
        "tol": tol,
    }
    _run_command(ctx, "search run", inputs, body)


if __name__ == "__main__":
    main()

"""Command-line surface: every verification and search as a reproducible,
scriptable command.

Each command writes a single JSON report document to stdout (or --out) and
a short human summary to stderr.  Reports are byte-identical across reruns
with the same arguments and seeds, except for the wall_time_ms field.

Exit codes: 0 verified/found, 1 violated/not found, 2 usage error (a request
too large for memory too), 3 parse error (an ``exact.ParseFailure``), 4
numeric failure (a ``linalg.NumericFailure``, as for a ``derived:`` target
past size 4, or a NaN or infinite value in the report, written as strict JSON).

Commands call the library as ``irgalab.<module>.<name>``; the package
imports each module on first use, so a process loads only what its command
runs.  Importing this module loads ``irga``, for the ``--tol`` defaults.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

import irgalab

EXIT_VERIFIED = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4


class _ReportFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _summary(message: str, quiet: bool):
    if not quiet:
        click.echo(message, err=True)


def _reports(fn):
    """Make ``fn(**params) -> (outcome, payload, summary)`` a report command.

    The wrapper times the call, writes the report to stdout or ``--out``
    and exits with the outcome's code, or with the code of the error raised.
    The report's ``command`` is "<group> <command>" and its ``inputs`` hold
    every parameter: an option under its long name with "-" turned into
    "_" (``--gauge-mode`` -> ``gauge_mode``), an argument under its own name.
    """

    @functools.wraps(fn)
    def command(**params):
        started = time.monotonic()
        ctx = click.get_current_context()
        quiet = ctx.obj.get("json_only", False)
        try:
            outcome, payload, summary = fn(**params)
        except _ReportFailure as exc:
            _summary(str(exc), quiet)
            sys.exit(exc.code)
        except MemoryError as exc:
            _summary(f"out of memory: {exc}", quiet)
            sys.exit(EXIT_USAGE)
        except (OverflowError, irgalab.linalg.NumericFailure) as exc:
            _summary(f"numeric failure: {exc}", quiet)
            sys.exit(EXIT_NUMERIC)
        except (UnicodeDecodeError, irgalab.exact.ParseFailure) as exc:
            # An input file that is not UTF-8 is text that does not parse.
            _summary(f"parse error: {exc}", quiet)
            sys.exit(EXIT_PARSE)
        except (ValueError, IndexError) as exc:
            # Library argument checks; the marked ValueErrors above keep their code.
            _summary(str(exc), quiet)
            sys.exit(EXIT_USAGE)
        report = {
            "command": f"{ctx.parent.info_name} {ctx.info_name}",
            "inputs": {
                max(param.opts, key=len).lstrip("-").replace("-", "_"): params[param.name]
                for param in ctx.command.params
            },
            "outcome": outcome,
            "payload": payload,
            "wall_time_ms": int((time.monotonic() - started) * 1000),
        }
        try:
            # Strict JSON: a NaN or infinite value is a numeric failure.
            text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            _summary(f"numeric failure: {exc}", quiet)
            sys.exit(EXIT_NUMERIC)
        out_path = ctx.obj.get("out")
        if out_path:
            try:
                Path(out_path).write_text(text + "\n", encoding="utf-8")
            except OSError as exc:
                _summary(f"cannot write report {out_path}: {exc}", quiet)
                sys.exit(EXIT_USAGE)
        else:
            click.echo(text)
        _summary(summary, quiet)
        sys.exit(EXIT_VERIFIED if outcome in ("pass", "found") else EXIT_VIOLATED)

    return command


def _load_matrix_arg(path, mode: str):
    try:
        matrix = irgalab.linalg.load_matrix(path, exact=(mode == "exact"))
    except (ValueError, OSError) as exc:
        raise _ReportFailure(EXIT_PARSE, f"cannot read matrix {path}: {exc}") from exc
    n_rows, n_cols = matrix.shape
    if n_rows != n_cols:
        raise _ReportFailure(
            EXIT_USAGE, f"{path}: expected a square matrix, got {n_rows}x{n_cols}"
        )
    return matrix


def _vector_arg(value: str) -> np.ndarray:
    """A vector given inline ("3,1" or "3 1") or as a file path."""
    try:
        if os.path.exists(value):
            return irgalab.linalg.load_vector(value)
        return irgalab.linalg.parse_vector_text(value.replace(",", " "))
    except (ValueError, OSError) as exc:
        raise _ReportFailure(EXIT_PARSE, f"cannot read vector {value!r}: {exc}") from exc


def _same_length(vector, name: str, n: int, other: str):
    """``vector`` (the option ``name``), which must have ``n`` entries like ``other``."""
    if len(vector) != n:
        raise _ReportFailure(
            EXIT_USAGE,
            f"length mismatch: {name} has {len(vector)} entries, expected {n} to match {other}",
        )
    return vector


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


def _tolerance(ctx, param, value: float) -> float:
    """``--tol`` callback: a tolerance must be finite and >= 0."""
    if not 0 <= value < float("inf"):
        raise click.BadParameter(f"{value} is not a finite number >= 0")
    return value


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
@click.argument("matrix", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["float", "exact"]), default="float")
@click.option("--tol", type=float, default=irgalab.irga.NONNEG_TOL, show_default=True, callback=_tolerance)
@_reports
def irga_check(matrix, mode, tol):
    """Compute S = (P o P^-1)^-1 and report membership checks."""
    p = _load_matrix_arg(matrix, mode)
    report = irgalab.irga.check_conjecture(p, tol=tol)
    outcome = "pass" if report.doubly_stochastic else "fail"
    summary = (
        f"S doubly stochastic: {report.doubly_stochastic} "
        f"(min entry {float(report.min_entry):.6g}, pd {report.pd})"
    )
    return outcome, {"report": report.to_json_dict()}, summary


@irga_group.command("search-counterexample")
@click.option("--n", type=int, required=True)
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--range", "rng_range", type=float, default=2.0, show_default=True)
@click.option("--tol", type=float, default=irgalab.irga.NONNEG_TOL, show_default=True, callback=_tolerance)
@_reports
def irga_search(n, trials, seed, rng_range, tol):
    """Randomized search for a sample whose IRGA has a negative entry."""
    outcome_obj = irgalab.irga.search_counterexample(
        n, trials, seed=seed, rng_range=rng_range, tol=tol
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
        payload["l"] = irgalab.linalg.to_json(outcome_obj.sample.l)
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


# ----------------------------------------------------------------- sos


@main.group("sos")
def sos_group():
    """Symbolic entry polynomials and certificate verification."""


@sos_group.command("derive")
@click.option("--n", type=int, required=True)
@click.option("--entry", nargs=2, type=int, default=(None, None),
              help="Row and column of the entry (defaults to (2,3) for n=3, else (1,2)).")
@_reports
def sos_derive(n, entry):
    """Derive the entry polynomial symbolically (sizes 2..4)."""
    i, j = entry
    if i is None:
        i, j = (2, 3) if n == 3 else (1, 2)
    polynomial = irgalab.sos.entry_polynomial(n, i, j)
    payload = {
        "n": n,
        "entry": [i, j],
        "terms": len(polynomial),
        "total_degree": polynomial.total_degree(),
        "polynomial": irgalab.polytext.render_polynomial(polynomial),
    }
    return "pass", payload, f"derived entry ({i},{j}) of size {n}: {len(polynomial)} terms"


@sos_group.command("verify")
@click.option("--cert", required=True, help="builtin:n3, builtin:n4, or a JSON file path.")
@click.option("--target", required=True,
              help="builtin:pn3/pn4/s4-entry12, a polynomial file, or derived:N:I:J.")
@_reports
def sos_verify(cert, target):
    """Expand a sum-of-squares certificate and compare with the target."""
    certificate = _resolve_spec(
        cert, "certificate", irgalab.sos.builtin_certificate, irgalab.sos.SoSCertificate.load
    )
    if target.startswith("derived:"):
        try:
            n, i, j = map(int, target.split(":")[1:])
        except ValueError as exc:
            raise _ReportFailure(EXIT_USAGE, f"bad derived target {target!r}") from exc
        goal = irgalab.sos.entry_polynomial(n, i, j)
    else:
        goal = _resolve_spec(
            target,
            "polynomial",
            lambda name: irgalab.sos.builtin_polynomial(name, certificate.variables),
            lambda path: irgalab.polytext.parse_polynomial(
                Path(path).read_text(encoding="utf-8"), certificate.variables
            ),
        )
    check = certificate.verify(goal)
    payload = {"check": check.to_json_dict(), "terms": len(certificate)}
    if check.ok:
        return "pass", payload, f"certificate matches target exactly ({len(certificate)} squares)"
    return "fail", payload, f"certificate mismatch on {len(check.difference)} monomials"


@sos_group.command("identity-test")
@click.option("--reference", default="builtin:s6-entry12", show_default=True)
@click.option("--n", type=int, required=True)
@click.option("--i", "i_index", type=int, default=1, show_default=True)
@click.option("--j", "j_index", type=int, default=2, show_default=True)
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--range", "coord_range", type=int, default=10**6, show_default=True)
@_reports
def sos_identity(reference, n, i_index, j_index, trials, seed, coord_range):
    """Randomized identity test of a reference polynomial vs the exact oracle."""
    irgalab.sos.validate_identity_arguments(n, i_index, j_index, trials, coord_range)
    expression = _resolve_spec(
        reference,
        "polynomial",
        irgalab.sos.builtin_expression,
        lambda path: irgalab.polytext.parse_expression(Path(path).read_text(encoding="utf-8")),
    )
    report = irgalab.sos.identity_test(
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


# ---------------------------------------------------------------- poly


@main.group("poly")
def poly_group():
    """Polynomial text utilities."""


@poly_group.command("parse")
@click.argument("source", type=click.Path(exists=True, dir_okay=False, allow_dash=True))
@click.option("--variables", default=None, help="Restrict identifiers to this letter set.")
@_reports
def poly_parse(source, variables):
    """Parse a polynomial file and print its canonical rendering."""
    text = sys.stdin.read() if source == "-" else Path(source).read_text(encoding="utf-8")
    varset = irgalab.exact.VariableSet(variables) if variables else None
    polynomial = irgalab.polytext.parse_polynomial(text, varset)
    payload = {
        "terms": len(polynomial),
        "total_degree": polynomial.total_degree(),
        "variables": list(polynomial.variables.names),
        "canonical": irgalab.polytext.render_polynomial(polynomial),
    }
    return "pass", payload, f"{len(polynomial)} terms over {''.join(polynomial.variables.names)}"


@poly_group.command("eval")
@click.argument("source", type=click.Path(exists=True, dir_okay=False))
@click.option("--at", "assignment", required=True,
              help='Comma-separated name=value pairs, e.g. "a=1/2,b=3,c=-1".')
@_reports
def poly_eval(source, assignment):
    """Evaluate a polynomial file exactly at a rational point."""
    text = Path(source).read_text(encoding="utf-8")
    point = {}
    try:
        for pair in assignment.split(","):
            name, _, value = pair.partition("=")
            point[name.strip()] = Fraction(value.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise _ReportFailure(EXIT_USAGE, f"bad assignment {assignment!r}: {exc}") from exc
    expression = irgalab.polytext.parse_expression(text)
    value = expression.evaluate(point)
    payload = {"value": str(value), "value_float": float(value)}
    return "pass", payload, f"value = {value}"


# ------------------------------------------------------------- majorize


@main.group("majorize")
def majorize_group():
    """Majorization decisions and witnesses."""


@majorize_group.command("check")
@click.option("--y", "y_spec", required=True, help="Majorizing vector (inline or file).")
@click.option("--x", "x_spec", required=True, help="Majorized candidate (inline or file).")
@click.option("--tol", type=float, default=1e-9, show_default=True, callback=_tolerance)
@_reports
def majorize_check(y_spec, x_spec, tol):
    """Decide whether y majorizes x."""
    y = _vector_arg(y_spec)
    x = _same_length(_vector_arg(x_spec), "--x", len(y), "--y")
    verdict = irgalab.majorization.majorizes(y, x, tol=tol)
    outcome = "pass" if verdict.holds else "fail"
    return outcome, {"verdict": verdict.to_json_dict()}, f"majorizes: {verdict.holds}"


@majorize_group.command("construct")
@click.option("--y", "y_spec", required=True)
@click.option("--x", "x_spec", required=True)
@click.option("--tol", type=float, default=1e-9, show_default=True, callback=_tolerance)
@_reports
def majorize_construct(y_spec, x_spec, tol):
    """Build an explicit T-transform chain mapping y onto x."""
    y = _vector_arg(y_spec)
    x = _same_length(_vector_arg(x_spec), "--x", len(y), "--y")
    try:
        chain = irgalab.majorization.transfer_chain(y, x, tol=tol)
    except ValueError as exc:
        return "fail", {"error": str(exc)}, str(exc)
    applied = chain.apply(y)
    payload = {
        "chain": chain.to_json_dict(),
        "transforms": len(chain),
        "max_apply_error": float(np.abs(applied - x).max()),
    }
    return "pass", payload, f"{len(chain)} transforms map y onto x"


@majorize_group.command("birkhoff")
@click.argument("matrix", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=1e-9, show_default=True, callback=_tolerance)
@_reports
def majorize_birkhoff(matrix, tol):
    """Decompose a doubly stochastic matrix into permutations."""
    s = _load_matrix_arg(matrix, "float")
    decomposition = irgalab.majorization.birkhoff(s, tol=tol)
    residual = float(np.abs(decomposition.reconstruct() - s).max())
    payload = {
        "decomposition": decomposition.to_json_dict(),
        "permutation_count": len(decomposition),
        "weight_sum": float(sum(decomposition.weights)),
        "reconstruction_error": residual,
    }
    return "pass", payload, f"{len(decomposition)} permutations, residual {residual:.3e}"


@majorize_group.command("entropy")
@click.argument("vector")
@_reports
def majorize_entropy(vector):
    """Shannon entropy of a vector normalized to a distribution."""
    value = irgalab.majorization.shannon_entropy(_vector_arg(vector))
    return "pass", {"entropy": value}, f"entropy = {value:.6f} nats"


# ----------------------------------------------------------------- spdd


@main.group("spdd")
def spdd_group():
    """Gauges and diagonal-majorizes-spectrum matrices."""


def _gauge_from_path(path, gauge_mode, mode):
    p = _load_matrix_arg(path, mode)
    return irgalab.spdd.make_gauge(p, mode=gauge_mode)


def _spdd_verdict(matrix, tol: float) -> dict:
    """Payload of the mapping identities and diagonal-majorizes-spectrum checks."""
    mapping = irgalab.spdd.verify_mapping(matrix, tol=tol)
    return {
        "mapping_ok": mapping.ok,
        "mapping_max_deviation": mapping.max_deviation,
        "majorization": irgalab.spdd.verify_majorization_theorem(matrix, tol=tol).to_json_dict(),
    }


@spdd_group.command("gauge")
@click.argument("matrix", type=click.Path(exists=True, dir_okay=False))
@click.option("--gauge-mode", type=click.Choice(["proven", "conjectured"]), default="conjectured",
              show_default=True)
@click.option("--mode", type=click.Choice(["float", "exact"]), default="float", show_default=True)
@_reports
def spdd_gauge(matrix, gauge_mode, mode):
    """Validate a matrix as a gauge (IRGA doubly stochastic)."""
    gauge = _gauge_from_path(matrix, gauge_mode, mode)
    payload = {
        "valid": gauge.valid,
        "provenance": gauge.provenance_json(),
        "report": gauge.report.to_json_dict(),
    }
    outcome = "pass" if gauge.valid else "fail"
    return outcome, payload, f"gauge valid: {gauge.valid}"


@spdd_group.command("make")
@click.argument("matrix", type=click.Path(exists=True, dir_okay=False))
@click.option("--spectrum", required=True, help="Spectrum vector (inline or file).")
@click.option("--gauge-mode", type=click.Choice(["proven", "conjectured"]), default="conjectured")
@_reports
def spdd_make(matrix, spectrum, gauge_mode):
    """Build M = P diag(e) P^-1 and report diagonal and entropies."""
    gauge = _gauge_from_path(matrix, gauge_mode, "float")
    e = _same_length(_vector_arg(spectrum), "--spectrum", gauge.n, "the matrix")
    spdd = irgalab.spdd.make_spdd(gauge, e)
    payload = {
        "m": irgalab.linalg.to_json(spdd.m),
        "diagonal": irgalab.linalg.to_json(spdd.diagonal),
        "spectrum": irgalab.linalg.to_json(spdd.spectrum),
        "spectral_entropy": spdd.spectral_entropy(),
        "diagonal_entropy": spdd.diagonal_entropy(),
        "gauge_valid": gauge.valid,
    }
    return "pass", payload, f"built {spdd.n}x{spdd.n} matrix; gauge valid: {gauge.valid}"


@spdd_group.command("verify")
@click.argument("matrix", type=click.Path(exists=True, dir_okay=False))
@click.option("--spectrum", required=True)
@click.option("--gauge-mode", type=click.Choice(["proven", "conjectured"]), default="conjectured")
@click.option("--tol", type=float, default=1e-9, show_default=True, callback=_tolerance)
@_reports
def spdd_verify(matrix, spectrum, gauge_mode, tol):
    """Verify the mapping identities and the majorization property."""
    gauge = _gauge_from_path(matrix, gauge_mode, "float")
    e = _same_length(_vector_arg(spectrum), "--spectrum", gauge.n, "the matrix")
    payload = _spdd_verdict(irgalab.spdd.make_spdd(gauge, e), tol)
    mapping_ok, holds = payload["mapping_ok"], payload["majorization"]["holds"]
    return (
        "pass" if mapping_ok and holds else "fail",
        payload,
        f"mapping ok: {mapping_ok}; diagonal majorizes spectrum: {holds}",
    )


@spdd_group.command("kron")
@click.option("--pa", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--ea", required=True)
@click.option("--pb", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--eb", required=True)
@click.option("--tol", type=float, default=1e-9, show_default=True, callback=_tolerance)
@_reports
def spdd_kron(pa, ea, pb, eb, tol):
    """Kronecker-compose two SPDD matrices and verify the retained property."""
    ga = _gauge_from_path(pa, "conjectured", "float")
    gb = _gauge_from_path(pb, "conjectured", "float")
    ma = irgalab.spdd.make_spdd(ga, _same_length(_vector_arg(ea), "--ea", ga.n, "--pa"))
    mb = irgalab.spdd.make_spdd(gb, _same_length(_vector_arg(eb), "--eb", gb.n, "--pb"))
    composed = irgalab.spdd.kron_spdd(ma, mb)
    payload = {
        "n": composed.n,
        **_spdd_verdict(composed, tol),
        "spectrum": irgalab.linalg.to_json(composed.spectrum),
        "diagonal": irgalab.linalg.to_json(composed.diagonal),
    }
    ok = payload["mapping_ok"] and payload["majorization"]["holds"]
    return "pass" if ok else "fail", payload, f"{composed.n}x{composed.n} composition ok: {ok}"


@spdd_group.command("construct")
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--mode", type=click.Choice(["float", "exact"]), default="float", show_default=True)
@click.option("--spectra", type=click.IntRange(min=0), default=5, show_default=True,
              help="Random positive spectra to sweep through the majorization check.")
@_reports
def spdd_construct(n, seed, mode, spectra):
    """Assemble a block-diagonal gauge of any size n >= 2 and sweep it."""
    plan = irgalab.spdd.block_plan(n)
    gauge = irgalab.spdd.assemble_gpdd(plan, seed, mode=mode)
    rng = np.random.default_rng(seed)
    sweep = []
    for _ in range(spectra):
        matrix = irgalab.spdd.make_spdd(gauge, rng.uniform(0.1, 10.0, n))
        sweep.append(irgalab.spdd.verify_majorization_theorem(matrix).holds)
    all_hold = all(sweep)
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


@spdd_group.command("unitary")
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--spectrum", required=True)
@click.option("--tol", type=float, default=1e-9, show_default=True, callback=_tolerance)
@_reports
def spdd_unitary(n, seed, spectrum, tol):
    """Contrast check: orthogonal diagonalization reverses the ordering."""
    e = _same_length(_vector_arg(spectrum), "--spectrum", n, "--n")
    verdict = irgalab.spdd.unitary_class_check(n, seed, e, tol=tol)
    outcome = "pass" if verdict.holds else "fail"
    return (
        outcome,
        {"verdict": verdict.to_json_dict()},
        f"spectrum majorizes diagonal: {verdict.holds}",
    )


# ---------------------------------------------------------------- search


@main.group("search")
def search_group():
    """Majorization-guided lattice search."""


@search_group.command("run")
@click.argument("matrix", type=click.Path(exists=True, dir_okay=False))
@click.option("--e0", required=True, help="Start spectrum (inline or file).")
@click.option("--delta", type=float, required=True)
@click.option("--direction", type=click.Choice(["max_entropy", "min_entropy"]),
              default="max_entropy", show_default=True)
@click.option("--max-iters", type=int, default=1000, show_default=True)
@click.option("--gauge-mode", type=click.Choice(["proven", "conjectured"]), default="conjectured")
@click.option("--tol", type=float, default=1e-9, show_default=True, callback=_tolerance)
@_reports
def search_run(matrix, e0, delta, direction, max_iters, gauge_mode, tol):
    """Run the lattice search from a start spectrum under a gauge."""
    gauge = _gauge_from_path(matrix, gauge_mode, "float")
    start = _same_length(_vector_arg(e0), "--e0", gauge.n, "the matrix")
    config = irgalab.search.SearchConfig(
        delta=delta, direction=direction, max_iters=max_iters, tol=tol
    )
    trace = irgalab.search.run(gauge, start, config)
    payload = {"trace": trace.to_json_dict(), "steps": len(trace.moves)}
    summary = (
        f"{len(trace.moves)} moves, termination {trace.termination}, "
        f"final spectral entropy {trace.states[-1].spectral_entropy:.6f}"
    )
    return "pass", payload, summary


if __name__ == "__main__":
    main()

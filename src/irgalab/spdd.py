"""Matrices M = P diag(e) P^-1 with symmetric PD gauge P: construction,
the diagonal/spectrum mapping, the diagonal-majorizes-spectrum property,
and Kronecker / block-diagonal composition.

Expanding M_ii = sum_k P_ik (P^-T)_ik e_k gives diag(M) = RGA(P) * spectrum;
whenever the inverse RGA S of the gauge is doubly stochastic this inverts to
spectrum = S * diag(M), which is exactly the majorization witness for
"diagonal majorizes spectrum".  (For comparison, a real orthogonal gauge Q
gives diag = (Q o Q) * spectrum with Q o Q doubly stochastic, so that class
satisfies the reverse ordering; see unitary_class_check.)

Both properties survive Kronecker products (the mixed product property maps
everything factorwise) and block-diagonal assembly, which is how sizes
beyond the atomic range are built.  So does PD-ness of S, so a composed
report never factorizes S (see ``IrgaReport.pd``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

import irgalab
from . import linalg
from .irga import (
    NONNEG_TOL, IrgaReport, _membership_report, check_conjecture, mix64, random_pd, rga
)
from .linalg import Matrix

__all__ = [
    "Gauge",
    "GaugeModeError",
    "InvalidGaugeError",
    "make_gauge",
    "kron_gauge",
    "block_gauge",
    "SpddMatrix",
    "make_spdd",
    "MappingCheck",
    "verify_mapping",
    "verify_majorization_theorem",
    "kron_spdd",
    "BlockPlan",
    "block_plan",
    "assemble_gpdd",
    "unitary_class_check",
    "PROVEN_LIMIT",
    "CONJECTURED_LIMIT",
]

PROVEN_LIMIT = 4
CONJECTURED_LIMIT = 6

_MODE_BOUNDS = {"proven": PROVEN_LIMIT, "conjectured": CONJECTURED_LIMIT}


class GaugeModeError(linalg.NumericFailure, ValueError):
    """Atomic gauge size exceeds what the requested mode allows."""


class InvalidGaugeError(linalg.NumericFailure, ValueError):
    """Operation requires a gauge whose IRGA is doubly stochastic."""


@dataclass(frozen=True)
class Gauge:
    """A symmetric PD matrix P with the membership report of its inverse
    relative gain array S.

    ``provenance`` records how the gauge was built: ("atomic", mode) with
    mode "proven" or "conjectured", ("kron",) or ("block",); a composed
    gauge keeps its factors or blocks in ``children``.  ``s`` and ``valid``
    are read from the report: a gauge is valid when its S passed the
    doubly-stochastic check and every child is valid.

    Float consumers (``make_spdd``, ``verify_mapping``, ``rga_matrix``,
    ``kron_gauge``'s check) share one factorization: P's float form and LU
    inverse, formed on first use.  So that P cannot change under it, a
    float P is read-only, and ``make_gauge`` keeps its own copy.
    """

    p: object
    report: IrgaReport
    provenance: tuple
    children: tuple = field(default=())

    @property
    def s(self):
        return self.report.s

    @property
    def valid(self) -> bool:
        return self.report.doubly_stochastic and all(child.valid for child in self.children)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @property
    def is_exact(self) -> bool:
        return isinstance(self.p, Matrix)

    def require_valid(self):
        if not self.valid:
            raise InvalidGaugeError(
                "gauge IRGA is not doubly stochastic; majorization machinery does not apply"
            )

    @cached_property
    def _float_lu(self) -> tuple:
        """(P, P^-1) as float arrays: the gauge's one float LU inverse."""
        p = linalg._float_array(self.p)
        return p, linalg.inverse(p)

    def rga_matrix(self):
        """RGA(P); exact inverse of S."""
        if self.is_exact:
            return rga(self.p)
        p, p_inv = self._float_lu
        return p * p_inv.T

    def provenance_json(self) -> dict:
        kind = self.provenance[0]
        if kind == "atomic":
            return {"kind": "atomic", "n": self.n, "mode": self.provenance[1]}
        return {
            "kind": kind,
            "n": self.n,
            "children": [child.provenance_json() for child in self.children],
        }


def make_gauge(p, mode: str = "conjectured") -> Gauge:
    """Atomic gauge from a symmetric PD Matrix, or float array-like input.

    ``mode`` bounds the size: "proven" allows up to 4, "conjectured" up to
    6.  A conjectured-size gauge whose S fails the doubly-stochastic check
    is returned with valid=False rather than asserted against.
    """
    bound = _MODE_BOUNDS.get(mode)
    if bound is None:
        raise ValueError(f"unknown gauge mode {mode!r}; use 'proven' or 'conjectured'")
    if not isinstance(p, Matrix):
        p = np.array(p, dtype=float)
        p.setflags(write=False)
    n = p.shape[0]
    if n > bound:
        raise GaugeModeError(f"size {n} exceeds the {mode} bound of {bound}")
    return Gauge(p=p, report=check_conjecture(p), provenance=("atomic", mode))


_KRON_CONSISTENCY_TOL = 1e-9


def kron_gauge(a: Gauge, b: Gauge) -> Gauge:
    """Kronecker composition: P = Pa (x) Pb carries S = Sa (x) Sb.

    The mixed product property makes the composed S the IRGA of the
    composed P; in float mode that identity is checked to
    ``_KRON_CONSISTENCY_TOL``, and a miss, a NaN deviation included, raises
    FloatAccuracyError.
    """
    gauge = _composed("kron", (a, b), linalg.kron(a.p, b.p), linalg.kron(a.s, b.s))
    if not gauge.is_exact:
        p, p_inv = gauge._float_lu
        dev = float(np.abs(linalg.inverse(p * p_inv) - gauge.s).max())
        if not dev <= _KRON_CONSISTENCY_TOL:  # also rejects a NaN deviation
            bound = np.format_float_scientific(_KRON_CONSISTENCY_TOL, trim="-", exp_digits=1)
            raise linalg.FloatAccuracyError(f"Kronecker IRGA consistency {dev:.3e} beyond {bound}")
    return gauge


def block_gauge(children: Sequence[Gauge]) -> Gauge:
    """Block-diagonal composition; S is block-diagonal of the children's S."""
    if not children:
        raise ValueError("block gauge needs at least one child")
    p = _block_diag([child.p for child in children])
    s = _block_diag([child.s for child in children])
    return _composed("block", tuple(children), p, s)


def _composed(kind: str, children: tuple, p, s) -> Gauge:
    """The gauge composed from ``children``, with the membership report of
    the composed S."""
    if not isinstance(p, Matrix):
        p.setflags(write=False)
    report = _membership_report(s, NONNEG_TOL)
    return Gauge(p=p, report=report, provenance=(kind,), children=children)


def _block_diag(blocks):
    """Block-diagonal Matrix when every block is exact, else a float array."""
    exact = all(isinstance(b, Matrix) for b in blocks)
    blocks = [b.rows if exact else linalg._float_array(b) for b in blocks]
    total = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * total for _ in range(total)] if exact else np.zeros((total, total))
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[offset + i][offset : offset + len(row)] = row
        offset += len(b)
    return Matrix(out) if exact else out


_SPDD_CONSTRUCTION_TOL = 1e-9


@dataclass(frozen=True)
class SpddMatrix:
    """M = P diag(spectrum) P^-1 for a gauge P, with its observed diagonal.

    The spectrum is exact by construction; the defining mapping identity
    diag(M) = RGA(P) * spectrum is checked at construction to
    ``_SPDD_CONSTRUCTION_TOL``, scaled by the largest diagonal entry when
    that exceeds 1; a miss, a NaN deviation or an overflowed diagonal raises
    FloatAccuracyError.
    """

    gauge: Gauge
    spectrum: np.ndarray
    m: np.ndarray
    diagonal: np.ndarray

    @property
    def n(self) -> int:
        return len(self.spectrum)

    def spectral_entropy(self) -> Optional[float]:
        return irgalab.majorization._entropy_or_none(self.spectrum)

    def diagonal_entropy(self) -> Optional[float]:
        return irgalab.majorization._entropy_or_none(self.diagonal)


# A spectrum near the float limit overflows M, which the mapping check
# rejects; the overflow need not warn.
@np.errstate(over="ignore", invalid="ignore")
def make_spdd(gauge: Gauge, spectrum) -> SpddMatrix:
    """Build M = P diag(e) P^-1 and check the mapping identity."""
    spectrum = np.asarray(spectrum, dtype=float)
    if spectrum.ndim != 1 or len(spectrum) != gauge.n:
        raise linalg.DimensionMismatchError(
            f"spectrum length {spectrum.shape} vs gauge size {gauge.n}"
        )
    p, p_inv = gauge._float_lu
    m = (p * spectrum) @ p_inv
    diagonal = m.diagonal().copy()
    predicted = (p * p_inv.T) @ spectrum  # RGA(P) = P o P^-T
    observed = diagonal.tolist()
    dev = linalg._max_abs([a - b for a, b in zip(observed, predicted.tolist())])
    bound = _SPDD_CONSTRUCTION_TOL * max(1.0, linalg._max_abs(observed))
    # Fails a NaN deviation, and an overflowed diagonal, whose bound is inf.
    if not dev <= bound < np.inf:
        raise linalg.FloatAccuracyError(f"diagonal/spectrum mapping violated by {dev:.3e}")
    return SpddMatrix(gauge=gauge, spectrum=spectrum, m=m, diagonal=diagonal)


@dataclass(frozen=True)
class MappingCheck:
    """Both directions of the diagonal/spectrum mapping, with worst deviation."""

    ok: bool
    max_deviation: float

    def __bool__(self):
        return self.ok


def verify_mapping(matrix: SpddMatrix, tol: float = 1e-9) -> MappingCheck:
    """Check diag(M) = RGA(P) * spectrum and spectrum = S * diag(M)."""
    linalg._check_tol(tol)
    matrix.gauge.require_valid()
    gauge = matrix.gauge
    p, p_inv = gauge._float_lu
    s = linalg._float_array(gauge.s)
    dev_diag = float(np.abs((p * p_inv.T) @ matrix.spectrum - matrix.diagonal).max())
    dev_spec = float(np.abs(s @ matrix.diagonal - matrix.spectrum).max())
    dev = max(dev_diag, dev_spec)
    scale = max(1.0, float(np.abs(matrix.spectrum).max()), float(np.abs(matrix.diagonal).max()))
    return MappingCheck(ok=dev <= tol * scale, max_deviation=dev)


def verify_majorization_theorem(matrix: SpddMatrix, tol: float = 1e-9):
    """``majorizes`` verdict of "the diagonal majorizes the spectrum" for a valid gauge."""
    linalg._check_tol(tol)
    matrix.gauge.require_valid()
    return irgalab.majorization.majorizes(matrix.diagonal, matrix.spectrum, tol=tol)


@np.errstate(over="ignore", invalid="ignore")
def kron_spdd(a: SpddMatrix, b: SpddMatrix) -> SpddMatrix:
    """Kronecker composition of two SPDD matrices.

    The composed spectrum is the Kronecker product of the spectra, the
    composed diagonal the Kronecker product of the diagonals, and the
    composed gauge carries S = Sa (x) Sb.  A product that overflows raises
    FloatAccuracyError, as ``make_spdd`` does for an overflowed diagonal.
    """
    a.gauge.require_valid()
    b.gauge.require_valid()
    gauge = kron_gauge(a.gauge, b.gauge)
    spectrum = np.kron(a.spectrum, b.spectrum)
    m = np.kron(a.m, b.m)
    if not (np.isfinite(m).all() and np.isfinite(spectrum).all()):
        raise linalg.FloatAccuracyError("Kronecker product overflowed: M or spectrum not finite")
    diagonal = np.diag(m).copy()
    return SpddMatrix(gauge=gauge, spectrum=spectrum, m=m, diagonal=diagonal)


@dataclass(frozen=True)
class BlockPlan:
    """Ordered block sizes, each in {2, 3, 4}, summing to the target size."""

    sizes: tuple

    def __iter__(self):
        return iter(self.sizes)

    def __len__(self):
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)


def block_plan(n: int) -> BlockPlan:
    """Deterministic partition of n >= 2 into blocks from {2, 3, 4}.

    Multiples of 4 use only 4s; remainder 2 or 3 appends one matching
    block; remainder 1 drops one 4 and appends 2 and 3.
    """
    if n < 2:
        raise ValueError("block plans start at size 2")
    fours, remainder = divmod(n, 4)
    if remainder == 0:
        sizes = (4,) * fours
    elif remainder == 2:
        sizes = (4,) * fours + (2,)
    elif remainder == 3:
        sizes = (4,) * fours + (3,)
    else:  # remainder 1: 4+...+4+2+3
        sizes = (4,) * (fours - 1) + (2, 3)
    return BlockPlan(sizes)


def assemble_gpdd(plan: BlockPlan, seed: int, mode: str = "float") -> Gauge:
    """Block-diagonal gauge with one random PD block per plan entry.

    Block b draws from the stream seeded by mix64(seed, b); every block size
    is within the proven range, so the result is always a valid gauge.
    """
    children = []
    for index, size in enumerate(plan):
        sample = random_pd(size, mix64(seed, index), mode=mode)
        children.append(make_gauge(sample.p, mode="proven"))
    return block_gauge(children)


def unitary_class_check(n: int, seed: int, spectrum, tol: float = 1e-9):
    """Contrast class: for orthogonal diagonalization the ordering reverses.

    Builds a random real orthogonal Q (QR of a Gaussian draw with the R
    diagonal sign-fixed for determinism), forms M = Q diag(e) Q^T, and
    returns the ``majorizes`` verdict that the spectrum majorizes the diagonal.
    """
    linalg._check_tol(tol)
    spectrum = np.asarray(spectrum, dtype=float)
    if len(spectrum) != n:
        raise linalg.DimensionMismatchError(f"spectrum length {len(spectrum)} vs n={n}")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    m = (q * spectrum) @ q.T
    return irgalab.majorization.majorizes(spectrum, np.diag(m), tol=tol)

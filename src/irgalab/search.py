"""Local search over a lattice of spectra under a fixed gauge, steered by
diagonal majorization.

Points are positive spectra with a fixed entry sum; a move transfers step
size delta from one coordinate to another (sum preserved exactly, so
majorization comparisons stay well posed and the trace of M is conserved).
A move is admissible when the induced diagonal RGA(P) * e' is strictly
majorization-comparable to the current diagonal in the configured
direction; among admissible moves the one with the greatest spectral
entropy improvement wins, with enumeration order breaking ties.  Requiring
a strict entropy gain guarantees termination on the finite lattice.

The move criterion needs only diagonal data (one matrix-vector product per
candidate); the spectral entropies are available because the simulation
constructs its own points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .linalg import DimensionMismatchError, _check_tol, _float_array, to_json
from .majorization import _entropy_or_none, _majorizes, shannon_entropy
from .spdd import Gauge

__all__ = [
    "SearchConfig",
    "SearchState",
    "SearchTrace",
    "neighbors",
    "step",
    "run",
]

_DIRECTIONS = ("max_entropy", "min_entropy")


def _check_delta(delta: float):
    """Raise ValueError unless a step size is finite and > 0."""
    if not 0 < delta < np.inf:
        raise ValueError("step size must be finite and > 0")


@dataclass(frozen=True)
class SearchConfig:
    """Step size, objective direction, iteration budget, and tolerance."""

    delta: float
    direction: str = "max_entropy"
    max_iters: int = 1000
    tol: float = 1e-9

    def __post_init__(self):
        _check_delta(self.delta)
        _check_tol(self.tol)
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}")
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 0:
            raise ValueError("max_iters must be a nonnegative integer")


@dataclass(frozen=True)
class SearchState:
    """One lattice point: spectrum, induced diagonal, and entropies.

    The diagonal entropy is None where it is undefined (see
    ``majorization._entropy_or_none``); the spectrum is always positive so
    its entropy always exists.
    """

    spectrum: np.ndarray
    diagonal: np.ndarray
    spectral_entropy: float
    diagonal_entropy: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "spectrum": to_json(self.spectrum),
            "diagonal": to_json(self.diagonal),
            "spectral_entropy": self.spectral_entropy,
            "diagonal_entropy": self.diagonal_entropy,
        }


@dataclass(frozen=True)
class SearchTrace:
    """States visited, moves taken ((gain index, loss index) pairs), and
    why the run stopped ("local_optimum" or "iter_budget")."""

    states: tuple
    moves: tuple
    termination: str

    def to_json_dict(self) -> dict:
        return {
            "states": [s.to_json_dict() for s in self.states],
            "moves": [{"to": int(i), "from": int(j)} for i, j in self.moves],
            "termination": self.termination,
        }


def _make_state(rga_p: np.ndarray, spectrum: np.ndarray) -> SearchState:
    diagonal = rga_p @ spectrum
    return SearchState(
        spectrum=spectrum,
        diagonal=diagonal,
        spectral_entropy=shannon_entropy(spectrum),
        diagonal_entropy=_entropy_or_none(diagonal),
    )


def neighbors(spectrum, delta: float) -> list:
    """All sum-preserving single transfers e + delta*(unit_i - unit_j).

    Ordered pairs are enumerated i ascending then j ascending; results with
    a nonpositive entry are dropped (the lattice lives in the open positive
    orthant).  ``delta`` must be finite and > 0.
    """
    _check_delta(delta)
    spectrum = np.asarray(spectrum, dtype=float)
    if spectrum.min() <= 0:
        raise ValueError("spectrum entries must be positive")
    out = []
    n = len(spectrum)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            candidate = spectrum.copy()
            candidate[i] += delta
            candidate[j] -= delta
            if candidate[j] > 0:
                out.append((i, j, candidate))
    return out


def _admissible(current_diag, current_sorted, candidate_diag, direction: str, tol: float) -> bool:
    """Whether the candidate diagonal is a strict move from the current one,
    whose ascending sort the caller passes (it serves every candidate)."""
    candidate_sorted = np.sort(candidate_diag)
    # Permutation-equal diagonals are excluded: no strict progress.  On
    # sorted vectors this is np.allclose(..., rtol=0) for finite entries,
    # and an infinite entry fails the prefix test either way.
    if np.abs(current_sorted - candidate_sorted).max() <= max(tol, 1e-12):
        return False
    if direction == "max_entropy":
        return _majorizes(current_diag, current_sorted, candidate_diag, candidate_sorted, tol)
    return _majorizes(candidate_diag, candidate_sorted, current_diag, current_sorted, tol)


def step(gauge: Gauge, spectrum, config: SearchConfig) -> Optional[np.ndarray]:
    """One move: the admissible neighbor with the best entropy improvement.

    Returns None at a local optimum (no admissible neighbor improves the
    spectral entropy strictly).
    """
    trace = run(gauge, spectrum, replace(config, max_iters=1))
    return trace.states[1].spectrum if trace.moves else None


# A spectrum near the float limit overflows the diagonals to inf or NaN: no
# move is then admissible, and the strict JSON report rejects the trace, so
# the overflow need not warn.
@np.errstate(over="ignore", invalid="ignore")
def run(gauge: Gauge, start_spectrum, config: SearchConfig) -> SearchTrace:
    """Take the best move until a local optimum or the iteration budget."""
    gauge.require_valid()
    spectrum = np.asarray(start_spectrum, dtype=float)
    if spectrum.ndim != 1 or len(spectrum) != gauge.n:
        raise DimensionMismatchError(
            f"start spectrum length {spectrum.shape} vs gauge size {gauge.n}"
        )
    if spectrum.min() <= 0:
        raise ValueError("start spectrum must be positive")
    rga_p = _float_array(gauge.rga_matrix())
    sign = 1.0 if config.direction == "max_entropy" else -1.0
    state = _make_state(rga_p, spectrum)
    states = [state]
    moves = []
    termination = "iter_budget"
    for _ in range(config.max_iters):
        best = None
        best_gain = 0.0
        diag_sorted = np.sort(state.diagonal)
        for i, j, candidate in neighbors(state.spectrum, config.delta):
            diagonal = rga_p @ candidate
            if not _admissible(
                state.diagonal, diag_sorted, diagonal, config.direction, config.tol
            ):
                continue
            entropy = shannon_entropy(candidate)
            gain = sign * (entropy - state.spectral_entropy)
            if gain > best_gain + 1e-15:
                best = (i, j, candidate, diagonal, entropy)
                best_gain = gain
        if best is None:
            termination = "local_optimum"
            break
        gain_index, loss_index, spectrum, diagonal, entropy = best
        moves.append((gain_index, loss_index))
        state = SearchState(spectrum, diagonal, entropy, _entropy_or_none(diagonal))
        states.append(state)
    return SearchTrace(states=tuple(states), moves=tuple(moves), termination=termination)

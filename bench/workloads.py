"""The benchmark's workloads: inputs made from a seed, the timed call, and the verdict checks.

Each workload has three steps.  ``prepare(seed)`` builds every input from
the seed alone (set-up, timed as ``setup_s``).  ``run(inputs)`` is the timed
operation: it calls irgalab's public library functions and returns their
results untouched, together with the durations of its calls ("pieces", in
a fixed order, so that repeated runs can be compared piece by piece).
``check(inputs, result)`` runs after the timer stops and grades every
verdict, returning a ``Verdicts``.  ``REPETITION_S`` is roughly how long one
repetition takes, interpreter start, set-up and checks included; ``run.py``
derives a fixed repetition count from it.

Modules are looked up with importlib because ``irgalab/__init__`` re-exports
the function ``irga`` under the name of the module ``irgalab.irga``.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


def _lib(name: str):
    return importlib.import_module("irgalab." + name)


@dataclass
class Verdicts:
    """Graded outcome of one operation.

    ``failed`` counts failed operations among ``attempted``.  ``unexplained``
    counts failures that are not the known float-tolerance defect confirmed
    by an exact recheck; any of them makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    unexplained: int = 0
    notes: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def fail(self, note: str, explained: bool = False):
        self.failed += 1
        if not explained:
            self.unexplained += 1
            if len(self.notes) < 5:
                self.notes.append(note)


def _exact_sums_are_one(s) -> bool:
    one = Fraction(1)
    return all(sum(row) == one for row in s.rows) and all(sum(col) == one for col in zip(*s.rows))


class Search7:
    """The headline size-7 counterexample search, one thread."""

    N = 7
    TRIALS = 100_000
    REPETITION_S = 6.0

    def prepare(self, seed: int):
        return seed

    def run(self, seed: int):
        begin = time.perf_counter()
        outcome = _lib("irga").search_counterexample(self.N, self.TRIALS, seed=seed)
        return outcome, [time.perf_counter() - begin]

    def check(self, seed: int, outcome) -> Verdicts:
        verdicts = Verdicts(attempted=1)
        problem = self._recheck(outcome)
        if problem:
            verdicts.fail(problem)
        certified = 1 if outcome.found else 0
        tried = outcome.uncertified_hits + certified
        verdicts.counts = {
            "irga.float_hits": outcome.float_hits,
            "irga.uncertified_hits": outcome.uncertified_hits,
            "irga.certify_yield": certified / tried if tried else 0.0,
        }
        return verdicts

    def _recheck(self, outcome):
        """Rebuild P = L L^T from the reported dyadic L and recheck it exactly.

        The trial index is deliberately not pinned: it depends on how trials
        draw their random numbers.
        """
        if not outcome.found:
            return "no certified counterexample in the trial budget"
        linalg = _lib("linalg")
        l = outcome.sample.l
        if not isinstance(l, linalg.Matrix) or (l.n_rows, l.n_cols) != (self.N, self.N):
            return "reported L is not an exact 7 x 7 matrix"
        for i, row in enumerate(l.rows):
            for j, value in enumerate(row):
                value = Fraction(value)
                expected_fixed = 1 if i == j else 0 if j > i else None
                if expected_fixed is not None and value != expected_fixed:
                    return "reported L is not unit lower triangular"
                if (1 << 16) % value.denominator:
                    return "reported L is not 2^-16-dyadic"
        p = l @ l.transpose()
        try:
            report = _lib("irga").check_conjecture(p, tol=0.0)
        except Exception as exc:  # any raise here is a wrong certificate
            return f"exact recheck raised {type(exc).__name__}: {exc}"
        if not _exact_sums_are_one(report.s):
            return "exact recheck: IRGA row or column sums are not identically 1"
        min_entry = min(min(row) for row in report.s.rows)
        if not min_entry < 0:
            return "exact recheck: no negative IRGA entry"
        if min_entry != outcome.report.min_entry:
            return "exact recheck disagrees with the reported minimum entry"
        return None


class Identity6:
    """Randomized identity test of the bundled size-6 entry polynomial against the exact oracle.

    The 20 points are 20 one-point ``identity_test`` calls, each with its own
    seed drawn from the workload seed, so that every point is timed on its own.
    """

    TRIALS = 20
    COORDINATE_RANGE = 10**6
    REPETITION_S = 7.0

    def prepare(self, seed: int):
        point_seeds = np.random.default_rng(seed).integers(0, 2**62, size=self.TRIALS)
        return _lib("sos").builtin_expression("s6-entry12"), tuple(int(s) for s in point_seeds)

    def run(self, inputs):
        expression, point_seeds = inputs
        identity_test = _lib("sos").identity_test
        reports, pieces = [], []
        for point_seed in point_seeds:
            begin = time.perf_counter()
            reports.append(identity_test(expression, 6, 1, 2, trials=1, seed=point_seed))
            pieces.append(time.perf_counter() - begin)
        return reports, pieces

    def check(self, inputs, reports) -> Verdicts:
        verdicts = Verdicts(attempted=self.TRIALS)
        for t, report in enumerate(reports):
            if report.trials != 1 or len(report.points) != 1:
                verdicts.fail(f"point {t}: report covers {report.trials} points, not 1")
            elif report.agreements != 1:
                verdicts.fail(f"point {t}: reference and oracle disagree")
        nodes, degree = _tree_size_and_degree(getattr(inputs[0], "tree", None))
        # Schwartz-Zippel: a nonzero difference of total degree <= d vanishes at
        # a uniform point of a grid of side 2R+1 with probability <= d/(2R+1).
        side = 2 * self.COORDINATE_RANGE + 1
        verdicts.counts = {
            "polytext.tree_nodes": nodes,
            "polytext.degree_bound": degree,
            "sos.sz_error_bound": (degree / side) ** self.TRIALS,
        }
        return verdicts


def _tree_size_and_degree(node) -> tuple:
    """Node count and total-degree bound of a polytext parse tree; (0, 0) if there is none."""
    if node is None:
        return 0, 0
    kind = node[0]
    if kind == "var":
        return 1, 1
    if kind in ("num", "sqrt3"):
        return 1, 0
    if kind == "pow":
        nodes, degree = _tree_size_and_degree(node[1])
        return nodes + 1, degree * node[2]
    children = [child for _, child in node[1:]] if kind == "add" else list(node[1:])
    parts = [_tree_size_and_degree(child) for child in children]
    nodes = 1 + sum(n for n, _ in parts)
    degrees = [d for _, d in parts]
    if kind == "mul":
        return nodes, sum(degrees)
    if kind == "add":
        return nodes, max(degrees, default=0)
    raise ValueError(f"unknown parse-tree node {kind!r}")


@dataclass(frozen=True)
class FloatCase:
    n: int
    band: float
    p: np.ndarray
    spectrum: np.ndarray


@dataclass(frozen=True)
class SweepInputs:
    float_cases: tuple
    exact_cases: tuple  # (n, exact P)
    lattice_cases: tuple  # (P, start spectrum, SearchConfig)


class Sweep:
    """Membership and majorization chain, one call per matrix.

    The rng_range=10 band is there on purpose: its moderately conditioned
    inputs trip the float path's absolute tolerances, so this workload shows
    that defect as failed operations.
    """

    SIZES = (2, 3, 4, 5, 6)
    BANDS = (2.0, 10.0)
    PER_SIZE_AND_BAND = 500
    EXACT_SIZES = (5, 6, 7)
    PER_EXACT_SIZE = 8
    LATTICE_TRACES = 50
    REPETITION_S = 7.0
    RECHECKS = 8
    BIRKHOFF_TOL = 1e-9
    SPECTRUM_SUM_TOL = 1e-9

    def prepare(self, seed: int) -> SweepInputs:
        irga = _lib("irga")
        search = _lib("search")
        rng = np.random.default_rng(seed)

        def draw_seed():
            return int(rng.integers(0, 2**31))

        float_cases = []
        for band in self.BANDS:
            for n in self.SIZES:
                for _ in range(self.PER_SIZE_AND_BAND):
                    p = irga.random_pd(n, draw_seed(), rng_range=band).p
                    float_cases.append(FloatCase(n, band, p, rng.uniform(1e-6, 10.0, n)))
        exact_cases = [
            (n, irga.random_pd(n, draw_seed(), mode="exact").p)
            for n in self.EXACT_SIZES
            for _ in range(self.PER_EXACT_SIZE)
        ]
        lattice_cases = []
        for k in range(self.LATTICE_TRACES):
            n = int(rng.integers(2, 5))
            p = irga.random_pd(n, draw_seed()).p
            direction = "max_entropy" if k % 2 == 0 else "min_entropy"
            config = search.SearchConfig(delta=0.25, direction=direction, max_iters=80)
            lattice_cases.append((p, rng.uniform(0.5, 4.0, n), config))
        return SweepInputs(tuple(float_cases), tuple(exact_cases), tuple(lattice_cases))

    def run(self, inputs: SweepInputs):
        irga, spdd, search = _lib("irga"), _lib("spdd"), _lib("search")
        birkhoff = _lib("majorization").birkhoff
        clock = time.perf_counter
        pieces = []
        float_out = []
        for case in inputs.float_cases:
            begin = clock()
            # Every input is PD by construction, so a raise is a graded failure.
            try:
                report = irga.check_conjecture(case.p)
                gauge = spdd.make_gauge(case.p)
                if not gauge.valid:
                    float_out.append((report.doubly_stochastic, False, None, None, None))
                else:
                    verdict = spdd.verify_majorization_theorem(spdd.make_spdd(gauge, case.spectrum))
                    float_out.append((report.doubly_stochastic, True, verdict.holds, gauge.s, birkhoff(gauge.s)))
            except Exception as exc:
                float_out.append(exc)
            pieces.append(clock() - begin)
        exact_out = []
        for _, p in inputs.exact_cases:
            begin = clock()
            try:
                exact_out.append(irga.check_conjecture(p))
            except Exception as exc:
                exact_out.append(exc)
            pieces.append(clock() - begin)
        lattice_out = []
        for p, start, config in inputs.lattice_cases:
            begin = clock()
            try:
                lattice_out.append(search.run(spdd.make_gauge(p), start, config))
            except Exception as exc:
                lattice_out.append(exc)
            pieces.append(clock() - begin)
        return (float_out, exact_out, lattice_out), pieces

    def check(self, inputs: SweepInputs, result) -> Verdicts:
        float_out, exact_out, lattice_out = result
        verdicts = Verdicts(attempted=len(float_out) + len(exact_out) + len(lattice_out))
        counts = dict.fromkeys(
            ("irga.verdict_wrong", "irga.verdict_error", "spdd.gauge_invalid",
             "spdd.majorization_wrong", "majorization.birkhoff_wrong"),
            0,
        )
        suspects = []  # (case index, what went wrong)
        for index, out in enumerate(float_out):
            if isinstance(out, Exception):
                counts["irga.verdict_error"] += 1
                suspects.append((index, f"raised {type(out).__name__}: {out}"))
                continue
            doubly, valid, holds, s, decomposition = out
            counts["irga.verdict_wrong"] += not doubly
            counts["spdd.gauge_invalid"] += not valid
            if not (doubly and valid):
                suspects.append((index, "judged not doubly stochastic"))
            elif not holds:
                counts["spdd.majorization_wrong"] += 1
                suspects.append((index, "diagonal judged not to majorize the spectrum"))
            elif np.abs(decomposition.reconstruct() - np.asarray(s)).max() > self.BIRKHOFF_TOL:
                counts["majorization.birkhoff_wrong"] += 1
                suspects.append((index, "Birkhoff reconstruction off by more than 1e-9"))
        # Every float input is PD by construction.  When exact arithmetic on
        # the very same float entries finds S doubly stochastic, each verdict
        # above must hold (spectrum = S diag(M) gives the majorization), so a
        # failure is the float path's error: the known defect of absolute
        # tolerances that ignore conditioning.  An evenly spaced subset of
        # the suspects is rechecked, because one recheck costs ~0.1 s.
        step = len(suspects) / self.RECHECKS
        rechecked = {int(k * step) for k in range(self.RECHECKS)} if suspects else set()
        confirmed = 0
        for position, (index, what) in enumerate(suspects):
            case = inputs.float_cases[index]
            problem = None
            if position in rechecked:
                problem = self._exact_recheck(case.p)
                confirmed += problem is None
            verdicts.fail(
                f"float case {index} (n={case.n}, rng_range={case.band}): {what}; {problem}",
                explained=problem is None,
            )
        for (n, _), out in zip(inputs.exact_cases, exact_out):
            if isinstance(out, Exception):
                verdicts.fail(f"exact n={n}: raised {type(out).__name__}: {out}")
            elif not _exact_sums_are_one(out.s):
                verdicts.fail(f"exact n={n}: IRGA sums are not identically 1")
            elif n <= 6 and not out.doubly_stochastic:
                verdicts.fail(f"exact n={n}: not doubly stochastic")
        for k, out in enumerate(lattice_out):
            if isinstance(out, Exception):
                verdicts.fail(f"lattice trace {k}: raised {type(out).__name__}: {out}")
                continue
            total = out.states[0].spectrum.sum()
            if any(abs(state.spectrum.sum() - total) > self.SPECTRUM_SUM_TOL for state in out.states):
                verdicts.fail(f"lattice trace {k}: spectrum sum not preserved")
        verdicts.counts = {
            **counts,
            "irga.verdict_rechecked": len(rechecked),
            "irga.verdict_confirmed": confirmed,
        }
        return verdicts

    @staticmethod
    def _exact_recheck(p):
        """None when S of the exact rationals equal to ``p``'s floats is doubly stochastic."""
        irga, linalg = _lib("irga"), _lib("linalg")
        exact = linalg.Matrix([[Fraction(float(v)) for v in row] for row in p])
        try:
            report = irga.check_conjecture(exact, tol=0.0)
        except Exception as exc:
            return f"exact recheck raised {type(exc).__name__}: {exc}"
        if not (_exact_sums_are_one(report.s) and report.doubly_stochastic):
            return "exact recheck: S is not doubly stochastic"
        return None


WORKLOADS = {"search7": Search7, "identity6": Identity6, "sweep": Sweep}

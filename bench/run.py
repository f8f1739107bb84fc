"""irgalab benchmark: runs one workload and prints its metrics, last line JSON.

    python3 bench/run.py --workload search7 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

Every repetition runs in a fresh interpreter (``worker.py``) with BLAS/OpenMP
threads capped, and runs the workload's operation once.  The number of
repetitions is fixed by ``--seconds`` and the workload's nominal repetition
time.  ``wall_s`` sums each timed piece's median over the repetitions;
``setup_s`` and ``peak_rss_mb`` are medians.  ``--trace 1`` alternates
untraced and traced workers and reports per-layer metrics instead.  The
names of both metric sets and their units come from BENCHMARK.json;
bench/README.md describes them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 0  # the held-out seed for claims is 7919 (README.md)
MIN_REPETITIONS = 3
SETUP_SAMPLES = 9
# One workload's run, workers included, must end within this many seconds.
RUN_BUDGET_S = 170
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SPANS_DIR = ROOT / ".bench_out"


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in THREAD_VARS})
    # Time the import from cached bytecode, as an installed package does;
    # the warm-up worker writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _spawn(deadline: float, workload: str, seed: int, *flags: str) -> dict:
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=_worker_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} run exceeded {RUN_BUDGET_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _median(values) -> float:
    return statistics.median(list(values))


def repetitions(workload_cls, seconds: float) -> int:
    """How many times a run repeats the operation: fixed by ``--seconds`` alone.

    Derived from the workload's nominal repetition time, never from a clock,
    so that the same seed always attempts the same operations.
    """
    return max(MIN_REPETITIONS, round(seconds / workload_cls.REPETITION_S))


def median_pieces_s(records: list) -> float:
    """Sum over the operation's pieces of each piece's median time across repetitions.

    Every repetition does the same work in the same order, so the median is
    taken piece by piece: a burst of interference from other tenants of the
    host then only counts when it hits the same piece in most repetitions.
    """
    lengths = {len(record["pieces"]) for record in records}
    if len(lengths) != 1:
        raise BenchError(f"repetitions timed different numbers of pieces: {sorted(lengths)}")
    return sum(_median(times) for times in zip(*(record["pieces"] for record in records)))


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple:
    """Run workers for ``workload``; return the result object and what the run was made of."""
    deadline = time.monotonic() + RUN_BUDGET_S
    # Discarded warm-up: byte-compiles the package in a fresh checkout.
    _spawn(deadline, workload, seed, "--setup-only")
    reps = repetitions(workloads.WORKLOADS[workload], seconds)
    plain, traced = [], []
    for k in range(reps):
        if trace and k % 2:
            SPANS_DIR.mkdir(exist_ok=True)
            spans_out = SPANS_DIR / f"spans-{workload}-{len(traced)}.tsv.gz"
            traced.append(_spawn(deadline, workload, seed, "--trace", "--spans-out", str(spans_out)))
        else:
            plain.append(_spawn(deadline, workload, seed))
    records = plain + traced
    notes = [note for record in records for note in record["notes"]]
    for note in dict.fromkeys(notes):
        print(f"check failed: {note}", file=sys.stderr)
    result = {
        "correct": all(record["unexplained"] == 0 for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
    }
    if trace:
        values = {
            key: _median(record["layers"][key] for record in traced) for key in traced[0]["layers"]
        }
        values.update(
            {key: _median(record["counts"][key] for record in records) for key in records[0]["counts"]}
        )
        plain_wall = _median(record["wall_s"] for record in plain)
        values["trace.wall_s"] = _median(record["wall_s"] for record in traced)
        values["trace.overhead_frac"] = values["trace.wall_s"] / plain_wall - 1.0
        wanted = spec["per_layer"]
    else:
        setups = [record["setup_s"] for record in plain]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(deadline, workload, seed, "--setup-only")["setup_s"])
        values = {
            "wall_s": median_pieces_s(plain),
            "setup_s": _median(setups),
            "peak_rss_mb": _median(record["peak_rss_mb"] for record in plain),
        }
        wanted = spec["end_to_end"]
    # A layer the program no longer reaches reads 0 rather than vanishing.
    result["metrics"] = {
        metric["name"]: {"value": values.get(metric["name"], 0), "unit": metric["unit"]}
        for metric in wanted
    }
    info = {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {name: BLAS_THREADS for name in THREAD_VARS},
        **records[0]["env"],
        "repetitions": reps,
        "op_s_samples": [record["wall_s"] for record in plain],
        "traced_wall_s_samples": [record["wall_s"] for record in traced],
    }
    if not trace:
        info["setup_s_samples"] = setups
    return result, info


def _describe(workload: str, result: dict) -> str:
    lines = [f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"]
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    lines.append(f"  failed_frac = {result['failed'] / result['attempted']:.6g}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if not (ROOT / "src" / "irgalab" / "__init__.py").is_file():
            raise BenchError(f"no irgalab sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result, info = measure(name, args.seed, args.seconds, bool(args.trace), spec)
            print("env: " + json.dumps(info))
            print(_describe(name, result))
            results[name] = result
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    if not args.trace:
        _print_table(results)
    print(json.dumps(results))
    return 0


def _print_table(results: dict):
    header = ["workload", "wall_s (s)", "setup_s (s)", "peak_rss_mb (MB)", "failed_frac", "correct"]
    print(" | ".join(header))
    for name, result in results.items():
        metrics = result["metrics"]
        row = [name] + [f"{metrics[key]['value']:.4g}" for key in ("wall_s", "setup_s", "peak_rss_mb")]
        row += [f"{result['failed'] / result['attempted']:.4g}", str(result["correct"])]
        print(" | ".join(row))


if __name__ == "__main__":
    sys.exit(main())

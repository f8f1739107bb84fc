"""One repetition in a fresh interpreter: set up, optionally run the operation once, check it.

Run by ``run.py``; prints one JSON object as its last line of output.

    python3 bench/worker.py --workload search7 --seed 0 [--setup-only] [--trace]

Set-up time covers ``import irgalab.cli`` plus preparing the inputs, so
nothing heavier than the standard library is imported before its timer
starts.  With ``--trace`` the set-up and the operation run under the span
tracer, which is installed only for them; the verdict checks never are.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", help="gzip file for the recorded spans (with --trace)")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))

    started = time.perf_counter()
    import irgalab.cli  # noqa: F401  every CLI start pays this import

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    inputs = workload.prepare(args.seed)
    setup_s = time.perf_counter() - started
    if tracer:
        tracer.uninstall()

    import irgalab

    if SRC not in Path(irgalab.__file__).resolve().parents:
        raise SystemExit(f"irgalab was imported from {irgalab.__file__}, not from {SRC}")
    record = {"setup_s": setup_s}
    if not args.setup_only:
        if tracer:
            tracer.install()
            (result, pieces), wall_s = tracer.run_op(workload.run, inputs)
            tracer.uninstall()
        else:
            begin = time.perf_counter()
            result, pieces = workload.run(inputs)
            wall_s = time.perf_counter() - begin
        verdicts = workload.check(inputs, result)
        record.update(
            wall_s=wall_s,
            pieces=pieces,
            attempted=verdicts.attempted,
            failed=verdicts.failed,
            unexplained=verdicts.unexplained,
            notes=verdicts.notes,
            counts=verdicts.counts,
        )
        if tracer:
            record["layers"] = tracer.summary()
            if args.spans_out:
                tracer.write(args.spans_out)
    # ru_maxrss is in KiB on Linux.
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["env"] = _environment()
    print(json.dumps(record))
    return 0


def _environment() -> dict:
    from importlib import metadata

    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return versions


if __name__ == "__main__":
    sys.exit(main())

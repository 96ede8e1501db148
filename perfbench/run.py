"""Benchmark entry point.

    python3 perfbench/run.py --workload pc-study --seed 19951128 \\
        --seconds 30 --trace 0

Prints the metrics as a table and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same workload and seed
with the benchmark's wrappers installed and reports the per-layer
metrics.  ``--steadiness N`` instead runs two interleaved sets of N
seeds of every workload and compares them (see steadiness.py).

Exits non-zero when any output check fails, and without a result when
the checkout holds no ``src/repro`` package.
"""

from __future__ import annotations

import time

_BEGAN = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402

from common import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    emit,
    require_source,
)

WORKLOADS = ("pc-study", "rec-large", "served")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default %(default)s); claims must also hold "
             f"on the held-out seed {HELD_OUT_SEED}",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steadiness", type=int, metavar="N", default=0,
        help="run two interleaved sets of N seeds of every workload "
             "(or of --workload only)",
    )
    args = parser.parse_args(argv)
    require_source()

    if args.steadiness:
        import steadiness

        return steadiness.main(args.steadiness, args.seconds, args.workload)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "served":
        import served

        outcome = served.run(args.seed, args.seconds, bool(args.trace))
    else:
        import inprocess

        outcome = inprocess.run(
            args.workload, args.seed, args.seconds, bool(args.trace), _BEGAN
        )
    correct, attempted, failed, metrics = outcome
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the ``repro-eba`` entry points.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload paper-run --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` starts the
same commands through ``shim.py`` and measures the per-layer metrics.
The metric lists, units and workloads are the ones in ``BENCHMARK.json``;
``e2ebench/README.md`` says what each one means.

Standard output ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by a ``detail`` line recording the seed, the digest of the
generated inputs, the machine fingerprint and the effective kernels.
The exit status is 0 only when every operation was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("e2ebench: no program source at src/repro; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from common import check_metric_names, fingerprint
    from workloads import WORKLOADS, Bench, Failure

    spec = _spec()
    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in group}
    check_metric_names(units)

    os.chdir(ROOT)
    # SIGTERM unwinds through the finally below, which stops every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(ROOT, args.workload, args.seed, args.seconds,
                  traced=bool(args.trace))
    try:
        metrics = WORKLOADS[args.workload](bench)
    except Failure as error:
        print(f"e2ebench: {args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        bench.close()
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.work))
        except OSError:
            pass
    if args.trace:
        metrics["fail_frac"] = bench.failed / max(1, bench.attempted)
    if set(metrics) != set(units):
        print(f"e2ebench: metric set mismatch: missing "
              f"{sorted(set(units) - set(metrics))}, extra "
              f"{sorted(set(metrics) - set(units))}", file=sys.stderr)
        return 1
    correct = bench.failed == 0 and bench.attempted > 0
    detail = dict(bench.detail, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  fingerprint=fingerprint(ROOT), problems=bench.problems)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]}
                    for name in sorted(units)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Every benchmark metric, per workload, one row each.

    python3 bench/report.py [--workloads NAME ...]

Makes RUNS untraced measurements (seeds 1 to RUNS) and one traced one (seed
1) per workload, each for BENCHMARK.json's `run_seconds`, then prints, for
each metric, its unit, median, first and third quartile and sample count.
End-to-end metrics and `fail_ratio` come from the untraced runs, per-layer
metrics and the tracing overhead from the traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import END_TO_END, ROOT, measure, layer_unit
from inputs import WORKLOADS

RUNS = 5


def _row(workload: str, name: str, unit: str, values: list) -> str:
    med = statistics.median(values)
    q1, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med)
    return (f"{workload:<20} {name:<52} {unit:<6} {med:>14.6g} "
            f"{q1:>14.6g} {q3:>14.6g} {len(values):>3}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                    default=list(WORKLOADS))
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    print(f"{'workload':<20} {'metric':<52} {'unit':<6} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'n':>3}")
    ok = True
    for workload in args.workloads:
        plain = [measure(workload, s, seconds, False) for s in range(1, RUNS + 1)]
        traced = measure(workload, 1, seconds, True)
        for res in plain + [traced]:
            for problem in res["problems"]:
                print(f"check failed ({workload}): {problem}", file=sys.stderr)
            ok = ok and res["failed"] == 0
        for name, unit in [*END_TO_END.items(), ("fail_ratio", "ratio")]:
            print(_row(workload, name, unit, [r[name] for r in plain]))
        for name, value in traced["layers"].items():
            print(_row(workload, name, layer_unit(name), [value]))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

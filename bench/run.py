"""The freewalk benchmark: one workload, one seed, one measurement.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record        # rewrite expected.json (default seed)

Run from the root of a freewalk checkout.  Every step runs in its own
interpreter: the seeded input generator (untimed), SETUP_RUNS set-up
measurements before and again after one worker that times the workload's CLI
operations for `--seconds`.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_RUNS = 4      # before and again after the timed worker
STEP_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH))
from inputs import DEFAULT_SEED, WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    pass


def _python(script: str, *args, timeout=STEP_TIMEOUT_S) -> dict:
    """Run a bench script in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")   # repeatable call counts
    try:
        proc = subprocess.run([sys.executable, str(BENCH / script), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} {args[0]} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} {args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{script} {args[0]} printed no result")
    return json.loads(lines[-1])


def _clean(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    if WORK.exists() and not any(WORK.iterdir()):
        WORK.rmdir()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate inputs, time set-up and the workload; the worker's result plus
    `setup_s`."""
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_cfg = _python("inputs.py", "--workload", workload, "--seed", str(seed),
                            "--out", str(work / "inputs"))["setup"]
        plan = work / "inputs" / "plan.json"

        def setups():
            return [_python("worker.py", "setup", "--config", setup_cfg)["setup_s"]
                    for _ in range(SETUP_RUNS)]

        before = setups()
        result = _python("worker.py", "run", "--plan", str(plan),
                         "--out", str(work / "out"), "--seconds", str(seconds),
                         "--trace", str(int(trace)))
        after = setups()
    finally:
        _clean(work)
    result["setup_s"] = statistics.median(before + after)
    result["fail_ratio"] = (result["failed"] + result["probe_failed"]) / \
        (result["attempted"] + result["probes"])
    return result


END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def contract(result: dict, trace: bool) -> dict:
    """The benchmark's output line.  Probes are reported in `fail_ratio`
    only, so that `attempted`/`failed` count the timed operations."""
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in result["layers"].items()}
        metrics["fail_ratio"] = {"value": result["fail_ratio"], "unit": "ratio"}
    else:
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("per_make_spike"):
        return "ratio"
    return "count"


def record() -> None:
    """Pin the report fields of every op at the default seed."""
    expected = {}
    for workload in WORKLOADS:
        work = WORK / f"record-{workload}"
        try:
            _python("inputs.py", "--workload", workload, "--seed", str(DEFAULT_SEED),
                    "--out", str(work / "inputs"))
            expected[workload] = _python("worker.py", "record", "--plan",
                                         str(work / "inputs" / "plan.json"),
                                         "--out", str(work / "out"), timeout=600)
        finally:
            _clean(work)
    lines = [json.dumps(workload) + ": {\n" + ",\n".join(
                 f"  {json.dumps(op)}: {json.dumps(fields, sort_keys=True)}"
                 for op, fields in sorted(ops.items())) + "\n }"
             for workload, ops in sorted(expected.items())]
    (BENCH / "expected.json").write_text("{\n " + ",\n ".join(lines) + "\n}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "freewalk" / "cli.py").is_file():
        print(f"error: no freewalk sources under {ROOT / 'src'}; run the benchmark "
              "from a freewalk checkout", file=sys.stderr)
        return 2
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(contract(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh interpreter per benchmark measurement.

    python3 bench/worker.py setup  --config CFG
    python3 bench/worker.py run    --plan PLAN --out DIR --seconds S --trace 0|1
    python3 bench/worker.py record --plan PLAN --out DIR

`setup` times importing freewalk and building one `cli.Run`.  `run` drives
`freewalk.cli.main([...])` over the plan's operations, one at a time, in
passes until the time is up, and checks every report.  With `--trace 1`
each pass without tracing is followed by one with every traced function
wrapped (see tracer.py).  `record` prints the pinned report fields of each
operation, for `expected.json`.  Each prints one JSON object.  Times are
in reference seconds (see `Gauge`).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402

# A shared host's speed changes up to twofold from one second to the next,
# and for minutes at a time.  So every time is reported in reference seconds:
# while an operation runs, a SIGALRM handler times a fixed stdlib Fraction
# loop every SAMPLE_EVERY_S, and the operation's own time (the samples'
# time taken out) is scaled by REFERENCE_S over the loop's mean time.
# REFERENCE_S is about the loop's median time on the 2-core Xeon host the
# benchmark was defined on, so reference seconds read close to seconds there.
SAMPLE_EVERY_S = 0.05
REFERENCE_S = 0.001


def _reference() -> float:
    """Seconds for a fixed loop of the stdlib Fraction arithmetic that
    freewalk spends its time in."""
    from fractions import Fraction
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


class Gauge:
    """Times calls in reference seconds, sampling the host's speed during
    each call."""

    def __init__(self):
        self.samples = []
        self.active = False
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if self.active:
            self.samples.append(_reference())

    def time(self, fn, *args):
        """(reference seconds, result) of fn(*args)."""
        self.samples.clear()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.active = True
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            self.active = False
            seconds = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        own = seconds - sum(self.samples)
        speed = statistics.fmean(self.samples or [_reference()])
        return own * REFERENCE_S / speed, result


def cmd_setup(args) -> dict:
    """Set-up is too short to sample during; the loop runs right after it."""
    t0 = time.perf_counter()
    from freewalk import cli
    cli.Run(cli.load_config(args.config))
    seconds = time.perf_counter() - t0
    speed = statistics.fmean(_reference() for _ in range(20))
    return {"setup_s": seconds * REFERENCE_S / speed}


def _call(op: dict, out: Path, gauge: Gauge):
    """Run one CLI operation into a clean `out`; (reference seconds, exit
    code).  cli.main returns 2 on any exception."""
    from freewalk import cli
    shutil.rmtree(out, ignore_errors=True)
    argv = [op["command"], "--config", op["config"], "--out", str(out)]
    return gauge.time(cli.main, argv)


def _report_counts(op: dict, out: Path, counts: dict) -> None:
    """Atoms and rounds of every decomposition the op reads or writes."""
    docs = []
    if op["command"] in ("decompose", "moments"):
        docs.append(checks.read_report(op["command"], out))
    elif op["command"] == "verify":
        cfg = json.loads(Path(op["config"]).read_text())
        mu = cfg["verify"].get("mu")
        if isinstance(mu, str) and Path(mu).is_file():
            docs.append(json.loads(Path(mu).read_text()))
    for doc in docs:
        counts["decomposition.atoms"] += len(doc["coefficients"])
        counts["decomposition.rounds"] += doc["rounds"]


class Session:
    """Runs a plan's operations and accumulates checks and counts."""

    def __init__(self, plan: dict, out: Path):
        self.plan = plan
        self.out = out
        expected = checks.load_expected().get(plan["workload"], {})
        self.expected = {op["name"]: expected.get(op["name"])
                         if plan["default_seed"] or not op["seeded"] else None
                         for op in plan["ops"] + plan["probes"]}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.gauge = Gauge()

    def run_op(self, op: dict):
        out = self.out / op["name"]
        seconds, rc = _call(op, out, self.gauge)
        problems = checks.check(op, rc, out, self.expected[op["name"]])
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems
        return seconds, out, not problems

    def run_pass(self, counts=None) -> list:
        """One pass over the timed operations; the reference seconds of each."""
        times = []
        for op in self.plan["ops"]:
            seconds, out, ok = self.run_op(op)
            times.append(seconds)
            if counts is not None and ok:
                _report_counts(op, out, counts)
        return times


def _wall(passes: list) -> float:
    """Reference seconds for one pass: the sum over operations of each one's
    median over the passes."""
    return sum(statistics.median(op_times) for op_times in zip(*passes))


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def cmd_run(args) -> dict:
    plan = json.loads(Path(args.plan).read_text())
    session = Session(plan, Path(args.out))
    tracer = None
    if args.trace:
        from tracer import Tracer, per_pass
        tracer = Tracer()
        counts = {"decomposition.atoms": 0, "decomposition.rounds": 0}
    plain, traced = [], []
    start = now = time.perf_counter()
    while True:
        plain.append(session.run_pass())
        if tracer is not None:
            with tracer:
                traced.append(session.run_pass(counts))
        last, now = now, time.perf_counter()
        if now - start + (now - last) > args.seconds:   # no room for one more
            break
    result = {"attempted": session.attempted, "failed": session.failed,
              "wall_s": _wall(plain),
              "peak_rss_mb": _peak_rss_mb()}
    # Probes run untimed after the passes and count only in fail_ratio.
    for op in plan["probes"]:
        session.run_op(op)
    result.update(probes=len(plan["probes"]),
                  probe_failed=session.failed - result["failed"],
                  problems=session.problems[:20])
    if tracer is not None:
        layers = tracer.metrics(len(traced))
        layers.update({k: per_pass(v, len(traced)) for k, v in counts.items()})
        layers["tracing.untraced_wall_s"] = _wall(plain)
        layers["tracing.traced_wall_s"] = _wall(traced)
        layers["tracing.overhead_s"] = _wall(traced) - _wall(plain)
        result["layers"] = layers
    return result


def cmd_record(args) -> dict:
    plan = json.loads(Path(args.plan).read_text())
    fields = {}
    gauge = Gauge()
    for op in plan["ops"] + plan["probes"]:
        out = Path(args.out) / op["name"]
        _, rc = _call(op, out, gauge)
        if rc == op["expect_exit"]:
            fields[op["name"]] = checks.extract(op["command"],
                                                checks.read_report(op["command"], out))
    return fields


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["setup", "run", "record"])
    ap.add_argument("--config")
    ap.add_argument("--plan")
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    mode = {"setup": cmd_setup, "run": cmd_run, "record": cmd_record}[args.mode]
    print(json.dumps(mode(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

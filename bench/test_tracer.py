"""Tests for the benchmark's tracer.  Run: python3 -m pytest bench/"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from freewalk import cli, decomposition, geometry, spikes  # noqa: E402
from tracer import Tracer  # noqa: E402


def _audit_counts(tmp_path: Path) -> dict:
    cfg = tmp_path / "audit.json"
    cfg.write_text(json.dumps({
        "group": {"rank": 2, "weights": ["1", "1"]},
        "params": {"alpha": "critical", "epsilon": "critical",
                   "arithmetic": "exact"},
        "audit": {"max_len": 1, "Ds": [0]}}))
    tracer = Tracer()
    with tracer:
        assert cli.main(["audit", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
    return {k: v for k, v in tracer.metrics().items() if k.endswith("calls")
            or k.endswith("fallbacks") or k.endswith("results")}


def test_audit_counts_every_binding_and_repeat(tmp_path):
    first = _audit_counts(tmp_path)
    # cli imports make_spike/verify_spike by name: those calls must be seen
    assert first["spikes.make_spike.calls"] == 4
    assert first["spikes.verify_spike.calls"] == 8
    assert first["cli.handler.calls"] == 1
    assert first["cli.Run.calls"] == 1
    assert _audit_counts(tmp_path) == first


def test_uninstall_restores_originals():
    originals = (cli.make_spike, spikes.make_spike, decomposition.radon_nikodym,
                 decomposition.SpikeAccumulator.__dict__["insert"], cli.cmd_audit)
    tracer = Tracer()
    with tracer:
        assert cli.make_spike is spikes.make_spike
        assert cli.make_spike is not originals[0]
        assert decomposition.SpikeAccumulator.__dict__["insert"] is not originals[3]
    assert (cli.make_spike, spikes.make_spike, decomposition.radon_nikodym,
            decomposition.SpikeAccumulator.__dict__["insert"],
            cli.cmd_audit) == originals


def test_self_time_excludes_wrapped_children(tmp_path):
    tracer = Tracer()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"group": {"rank": 2, "weights": ["1", "1"]},
                               "audit": {"max_len": 1, "Ds": [0]}}))
    with tracer:
        cli.main(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")])
    m = tracer.metrics()
    handler = m["cli.handler.total_s"]
    assert 0 < m["cli.handler.self_s"] < handler
    assert m["spikes.make_spike.total_s"] <= handler


def test_float_fallbacks_count_the_float_path():
    scale = geometry.LogScale.log_of(3, 1)
    half = geometry.LogScale.log_of(3, "1/2")
    tracer = Tracer()
    with tracer:
        scale.leq_scaled(2, 1, mult=3)                 # integer exponent: exact
        half.leq_scaled(1, 0)                          # exponent 1/2: float
        scale.leq_scaled(2, 1, mult=float("nan"))      # exact attempt raises: float
        scale.exp_neg(Fraction(1, 2))                  # float, but not leq_scaled
    m = tracer.metrics()
    assert m["geometry.LogScale.leq_scaled.calls"] == 3
    assert m["geometry.LogScale.leq_scaled.float_fallbacks"] == 2
    assert m["geometry.LogScale.exp_neg.float_results"] == 1
    assert geometry.math is math

"""CLI exit codes, report files and reproducibility."""

import hashlib
import json
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from freewalk import cli, decomposition, spikes
from freewalk.cli import main
from freewalk.decomposition import InternalInvariantError
from freewalk.geometry import LogScale
from freewalk.partitions import LocallyConstantFunction, _num_to_str


def write_config(path: Path, **overrides) -> str:
    cfg = {
        "group": {"rank": 2, "weights": ["1", "1"]},
        "params": {"alpha": "critical", "epsilon": "critical",
                   "arithmetic": "exact", "tau": 1e-6},
        "decompose": {"target": "ones"},
        "verify": {"mu": "sphere:1"},
        "audit": {"max_len": 3, "Ds": [0, 1]},
        "moments": {"rounds": 2},
    }
    for key, value in overrides.items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    p = path / "config.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_decompose_ok(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "decomposition.json").read_text())
    assert doc["coefficients"] == [["a", "1/4"], ["A", "1/4"],
                                   ["b", "1/4"], ["B", "1/4"]]
    assert "moment" in doc and "entropy" in doc
    csv = (out / "decomposition.csv").read_text()
    assert csv.splitlines()[0] == "norm,mu"
    assert (out / "meta.json").exists()


def test_decompose_float_tau_zero_rejected(tmp_path):
    cfg = write_config(tmp_path, params={"alpha": "critical", "epsilon": "critical",
                                         "arithmetic": "float", "tau": 0.0})
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_decompose_exact_round_capped(tmp_path):
    cfg = write_config(tmp_path, params={
        "alpha": "critical", "epsilon": "critical", "arithmetic": "exact",
        "tau": 0.0, "max_rounds": 5, "rescale": "proof"})
    out = tmp_path / "out"
    rc = main(["decompose", "--config", cfg, "--out", str(out)])
    doc = json.loads((out / "decomposition.json").read_text())
    for _, coeff in doc["coefficients"]:
        assert "/" in coeff   # exact mode prints fractions
    assert rc == 1            # tau = 0 not reached in 5 proof-scaled rounds


def test_verify_ok_and_perturbed(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "stationarity.json").read_text())
    assert rep["exact"] is True
    perturbed = {
        "atoms": [["a", "26/100"], ["A", "1/4"], ["b", "1/4"], ["B", "1/4"]]}
    cfg2 = write_config(tmp_path, verify={"mu": perturbed})
    assert main(["verify", "--config", cfg2, "--out", str(out)]) == 1


def test_verify_depth_zero_rejected(tmp_path, capsys):
    # depth 0 is a usage error, not a request for the default depth
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--depth", "0"]) == 2
    cfg0 = write_config(tmp_path, verify={"mu": "sphere:1", "depth": 0})
    assert main(["verify", "--config", cfg0, "--out", str(out)]) == 2
    assert "depth must be >= 1" in capsys.readouterr().err
    assert not (out / "stationarity.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_non_finite_threshold_flag_rejected(tmp_path, capsys, value):
    # the flag follows the rule of the config key: every error would pass
    # under inf and fail under nan, so neither is a threshold
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out),
                 f"--threshold={value}"]) == 2
    assert "--threshold" in capsys.readouterr().err
    assert not (out / "stationarity.json").exists()


def test_verify_finite_threshold_flag(tmp_path):
    # the perturbed mu has a cell error above the default 1e-9 and below 1
    perturbed = {
        "atoms": [["a", "26/100"], ["A", "1/4"], ["b", "1/4"], ["B", "1/4"]]}
    cfg = write_config(tmp_path, verify={"mu": perturbed})
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 1
    assert main(["verify", "--config", cfg, "--out", out, "--threshold", "1"]) == 0
    assert main(["verify", "--config", cfg, "--out", out, "--threshold", "1e-12"]) == 1
    assert main(["verify", "--config", write_config(tmp_path), "--out", out,
                 "--threshold", "0"]) == 0


def test_verify_missing_file(tmp_path):
    cfg = write_config(tmp_path, verify={"mu": str(tmp_path / "nope.json")})
    assert main(["verify", "--config", cfg]) == 2


def test_audit_ok(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "audit.json").read_text())
    assert doc["beta"] == "4/3"
    assert doc["D0"] == "0/1"
    assert doc["spikes_failed"] == 0


def test_audit_adversarial_injection(tmp_path):
    spike = {
        "function": {"cells": [["A", "0/1"], ["b", "0/1"], ["B", "0/1"],
                               ["aa", "0/1"], ["aB", "0/1"],
                               ["abA", "0/1"], ["abb", "0/1"],
                               ["aba", "1/1"]]},
        "r_exp": "2", "center": "aba", "C": "100", "gamma": "ABA", "D": "0"}
    inject = tmp_path / "spike.json"
    inject.write_text(json.dumps(spike))
    cfg = write_config(tmp_path, audit={"max_len": 2, "Ds": [0],
                                        "inject": str(inject)})
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 1
    doc = json.loads((out / "audit.json").read_text())
    assert doc["injected_failure"] is not None
    assert doc["injected_failure"]["witnesses"]


def test_audit_empty_sweep(tmp_path):
    cfg = write_config(tmp_path, audit={"max_len": 0, "Ds": []})
    assert main(["audit", "--config", cfg]) == 2


def test_audit_rejects_margins_between_0_and_1(tmp_path, capsys):
    for ds, shown in (([0, 0.5], "1/2"), ([1, "1/3"], "1/3")):
        cfg = write_config(tmp_path, audit={"max_len": 1, "Ds": ds})
        assert main(["audit", "--config", cfg]) == 2
        assert f"D = {shown}" in capsys.readouterr().err


GOLDEN = Path(__file__).resolve().parent / "data" / "audit"


@pytest.mark.parametrize("name", sorted(p.name[:-len(".config.json")]
                                        for p in GOLDEN.glob("*.config.json")))
def test_audit_witnesses_match_golden(tmp_path, name):
    out = tmp_path / "out"
    assert main(["audit", "--config", str(GOLDEN / f"{name}.config.json"),
                 "--out", str(out), "--witnesses"]) == 0
    assert (out / "audit.json").read_bytes() == \
        (GOLDEN / f"{name}.audit.json").read_bytes()


def test_half_epsilon_audit_float_comparisons(tmp_path, monkeypatch):
    # at epsilon = 1/2 log 3 a comparison with a non-integral exponent leaves
    # exact arithmetic; the exact audit makes such comparisons only for the
    # 5r balls of T_nu in the shadow sweep (verify_spike builds no 5r ball)
    real = LogScale.leq_scaled
    callers = Counter()

    def counted(self, p, t, mult=1):
        if self.base is not None and \
                (self.coeff * (Fraction(p) - Fraction(t))).denominator != 1:
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name not in (
                    "shadow_lemma_audit", "verify_spike"):
                frame = frame.f_back
            callers[None if frame is None else frame.f_code.co_name] += 1
        return real(self, p, t, mult)

    monkeypatch.setattr(LogScale, "leq_scaled", counted)
    assert main(["audit", "--config", str(GOLDEN / "f2_half_epsilon.config.json"),
                 "--out", str(tmp_path / "out")]) == 0
    assert dict(callers) == {"shadow_lemma_audit": 92}


INJECT = GOLDEN / "inject"
INJECT_PARAMS = {
    "exact": {"arithmetic": "exact"},
    "float": {"alpha": 1.0986122886681098, "epsilon": 0.7,
              "arithmetic": "float"},
}


@pytest.mark.parametrize("mode", sorted(INJECT_PARAMS))
@pytest.mark.parametrize("spike", sorted(p.name[:-len(".spike.json")]
                                         for p in INJECT.glob("*.spike.json")))
def test_audit_injected_failure_matches_golden(tmp_path, spike, mode):
    # the inject path is resolved from the working directory: make it absolute
    cfg = write_config(tmp_path, params=INJECT_PARAMS[mode], audit={
        "max_len": 1, "Ds": [0], "inject": str(INJECT / f"{spike}.spike.json")})
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out), "--witnesses"]) == 1
    assert (out / "audit.json").read_bytes() == \
        (INJECT / f"{spike}.{mode}.audit.json").read_bytes()


def test_audit_int_valued_spike_reports_exact_ratios(tmp_path):
    # integer cell strings read as ints: the ratios of two of them are
    # written as p/q, not as floats
    spike = {"function": {"cells": [["a", "1"], ["A", "2"], ["b", "3"],
                                    ["B", "2"]]},
             "r_exp": "0", "center": "a", "C": "1"}
    inject = tmp_path / "spike.json"
    inject.write_text(json.dumps(spike))
    cfg = write_config(tmp_path, audit={"max_len": 1, "Ds": [0],
                                        "inject": str(inject)})
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 1
    measured = json.loads((out / "audit.json").read_text())["injected_failure"]["measured"]
    assert measured == {"cond1": "3/1", "cond2": None, "cond3": "3/1",
                        "lipschitz": "2/1", "mass": "1/1"}


@pytest.mark.parametrize("key", ["function", "r_exp", "center"])
def test_audit_injected_spike_missing_key_exits_2(tmp_path, capsys, key):
    spike = json.loads((INJECT / "no_c.spike.json").read_text())
    del spike[key]
    inject = tmp_path / "spike.json"
    inject.write_text(json.dumps(spike))
    cfg = write_config(tmp_path, audit={"max_len": 1, "Ds": [0],
                                        "inject": str(inject)})
    assert main(["audit", "--config", cfg]) == 2
    assert f"injected spike file has no {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("rank, max_len, digest", [
    (2, 4, "6832ab7a3dad9acf293fc2239fbae6b0fd920b7d4bf6166366e920f93c1c46c9"),
    (3, 3, "400ea0b0459ef11477b9a84ccc056f71d2d76c7c17763a3cd17a15f9b0bbe32c"),
])
def test_audit_witnesses_at_sweep_scale(tmp_path, rank, max_len, digest):
    # F_2 to length 4 and F_3 to length 3, exact critical params: deeper
    # sweeps than the golden files above
    cfg = write_config(
        tmp_path,
        group={"rank": rank, "weights": ["1"] * rank, "names": list("abc"[:rank])},
        params={"alpha": "critical", "epsilon": "critical",
                "arithmetic": "exact", "tau": 1e-6},
        audit={"max_len": max_len, "Ds": [0, 1]})
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out), "--witnesses"]) == 0
    assert hashlib.sha256((out / "audit.json").read_bytes()).hexdigest() == digest


def test_moments_ok(tmp_path):
    cfg = write_config(tmp_path, params={
        "alpha": "critical", "epsilon": "critical", "arithmetic": "float",
        "tau": 1e-9, "D": 1, "rescale": "proof", "s": "3/2"})
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "moments.json").read_text())
    assert "envelope" in doc and doc["envelope"]["checks"]["envelope"] is True


def test_missing_config(tmp_path):
    assert main(["decompose", "--config", str(tmp_path / "none.json")]) == 2


def test_bad_group_config(tmp_path):
    cfg = write_config(tmp_path, group={"rank": 1})
    assert main(["decompose", "--config", cfg]) == 2


def test_thread_determinism(tmp_path):
    """Two runs of the same command write byte-identical reports."""
    cfg = write_config(tmp_path)
    for command, report in (("decompose", "decomposition.json"),
                            ("audit", "audit.json")):
        first, second = tmp_path / f"{command}1", tmp_path / f"{command}2"
        assert main([command, "--config", cfg, "--out", str(first)]) == 0
        assert main([command, "--config", cfg, "--out", str(second)]) == 0
        assert (first / report).read_bytes() == (second / report).read_bytes()


def test_threads_option_removed(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["audit", "--config", cfg, "--threads", "2"]) == 2


def test_moments_default_rescale(tmp_path):
    cfg = write_config(tmp_path, params={
        "alpha": "critical", "epsilon": "critical", "arithmetic": "exact",
        "tau": 1e-6, "D": 1}, moments={"rounds": 1, "target": "ones"})
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "moments.json").read_text())
    assert all(doc["envelope"]["checks"].values())


def test_moments_without_margin(tmp_path):
    # no "D": moments runs with D = 1 and the proof rescale, other knobs kept
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "moments.json").read_bytes()
    assert all(json.loads(report)["envelope"]["checks"].values())
    assert hashlib.sha256(report).hexdigest() == \
        "41fbf035d03a29fc443a1866c203fbba9681eef65108f2f0c5d58a9c6f6f20b0"



def test_moments_proof_schedule_golden(tmp_path):
    # the explicit D = 1, proof-rescale schedule; with the other knobs at
    # their defaults it is the run test_moments_without_margin derives
    cfg = write_config(tmp_path, params={
        "alpha": "critical", "epsilon": "critical", "arithmetic": "exact",
        "tau": 1e-6, "D": 1, "rescale": "proof"},
        moments={"rounds": 2, "target": "ones"})
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "moments.json").read_bytes()
    assert json.loads(report)["rounds"] == 2
    assert hashlib.sha256(report).hexdigest() == \
        "41fbf035d03a29fc443a1866c203fbba9681eef65108f2f0c5d58a9c6f6f20b0"


def test_moments_refuses_growing_schedule(tmp_path, capsys):
    # moment_decompose reads no schedule: a growing C would be ignored
    cfg = write_config(tmp_path, params={
        "arithmetic": "exact", "D": 1, "schedule": "growing", "max_rounds": 1})
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 2
    assert "schedule 'growing'" in capsys.readouterr().err
    assert not out.exists()


def test_moments_half_epsilon_stays_exact(tmp_path):
    # epsilon = 1/2 log 3: the decay radii are exponents, so D_nu = 1/4,
    # L_nu = 4/183 and the proof factor are rational, and the residual stays so
    cfg = write_config(tmp_path, params={
        "alpha": "log(3)", "epsilon": "1/2*log(3)", "arithmetic": "exact",
        "tau": 1e-6, "D": 1, "rescale": "proof"},
        moments={"rounds": 1, "target": "ones"})
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "moments.json").read_text())
    numbers = [v for _, v in doc["coefficients"]] + doc["residual_trace"]
    assert len(doc["coefficients"]) == 36
    assert all(re.fullmatch(r"-?[0-9]+/[0-9]+", v) for v in numbers), numbers[:3]


@pytest.mark.parametrize("command", ["decompose", "moments", "audit"])
def test_weighted_float_critical_runs(tmp_path, command):
    # "critical" on weights [1, 2] is the root of the conformal equation, so
    # nu is conformal; the audit compares each measured ratio with its C as
    # measured, so float round-off flags no spike
    cfg = write_config(tmp_path, group={"rank": 2, "weights": ["1", "2"]},
                       params={"alpha": "critical", "epsilon": "critical",
                               "arithmetic": "float", "tau": 1e-6},
                       audit={"max_len": 2, "Ds": [0, 1, 2]})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    if command == "audit":
        report = json.loads((out / "audit.json").read_text())
        assert report["spikes_failed"] == 0 and report["spikes_checked"] == 48


@pytest.mark.parametrize("command", ["decompose", "moments", "audit"])
def test_weighted_exact_critical_exits_2(tmp_path, capsys, command):
    # the conformal exponent of weights [1, 2] is a float root, so exact mode
    # refuses it instead of running in floats
    cfg = write_config(tmp_path, group={"rank": 2, "weights": ["1", "2"]})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "forbidden in exact mode" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_library_value_error_exits_2(tmp_path, capsys):
    # sphere:1 has no closed form on unequal weights
    # (UnsupportedClosedFormError, a library ValueError)
    cfg = write_config(tmp_path, group={"rank": 2, "weights": ["1", "2"]},
                       params={"alpha": "critical", "epsilon": "critical",
                               "arithmetic": "float", "tau": 1e-6})
    assert main(["verify", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: sphere-uniform")


def _config_with(tmp_path: Path, section: str, key: str, value) -> str:
    path = Path(write_config(tmp_path))
    cfg = json.loads(path.read_text())
    cfg[section][key] = value
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("command, section, key, value", [
    ("moments", "params", "D", 1.5), ("decompose", "params", "max_rounds", 1.5),
    ("decompose", "params", "audit_len", 1.5), ("moments", "moments", "rounds", 1.5),
    ("audit", "audit", "max_len", 1.5), ("verify", "verify", "depth", 1.5),
    ("audit", "group", "rank", 2.5)])
def test_non_integral_integer_field_exits_2(tmp_path, capsys, command, section,
                                            key, value):
    # an integer field is never truncated: 1.5 is not read as 1
    cfg = _config_with(tmp_path, section, key, value)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integral_integer_field_spellings_run(tmp_path):
    cfg = _config_with(tmp_path, "audit", "max_len", 1.0)
    assert main(["audit", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    cfg = _config_with(tmp_path, "verify", "depth", "3")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    doc = json.loads((tmp_path / "v" / "stationarity.json").read_text())
    assert doc["depth"] == 3


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalInvariantError("residual did not decrease")

    monkeypatch.setattr(cli, "basis_decompose", broken)
    cfg = write_config(tmp_path)
    assert main(["decompose", "--config", cfg]) == 3
    assert capsys.readouterr().err.startswith("internal error: InternalInvariantError")


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_critical_on_equal_weights(tmp_path, arithmetic):
    # "critical" on weights [2, 2] is log(3)/2, exact in both modes, so nu is
    # the conformal measure and the audit runs
    from fractions import Fraction
    from freewalk import WeightedFreeGroup, critical_exponent
    group = {"rank": 2, "weights": ["2", "2"]}
    cfg = write_config(tmp_path, group=group,
                       params={"alpha": "critical", "epsilon": "critical",
                               "arithmetic": arithmetic, "tau": 1e-6})
    run = cli.Run(cli.load_config(cfg))
    assert run.params.alpha.base == 3 and run.params.alpha.coeff == Fraction(1, 2)
    assert run.params.alpha.value == critical_exponent(WeightedFreeGroup.from_config(group))
    assert run.nu.conformal
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "audit.json").read_text())["spikes_failed"] == 0
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0


def test_numbers_past_the_str_digit_limit(tmp_path):
    # a 5,000-digit numerator is written and read back, by the report
    # writers and by verify's measure reader, with the limit left as it was
    import sys
    from fractions import Fraction
    from freewalk import (DecompositionResult, GroupMeasure,
                          LocallyConstantFunction, WeightedFreeGroup)
    from freewalk.partitions import _num_from_str
    limit = sys.get_int_max_str_digits()
    f2 = WeightedFreeGroup(2)
    big = Fraction(10 ** 5000 + 1, 4 * 10 ** 5000)   # 5,001-digit numerator
    tiny = big - Fraction(1, 4)
    f = LocallyConstantFunction(f2, {w: big for w in f2.sphere(1)})
    assert LocallyConstantFunction.from_json(f2, json.loads(json.dumps(f.to_json()))) == f
    atoms = {w: Fraction(1, 4) for w in f2.sphere(1)}
    atoms[(0,)] = big
    atoms[(1,)] = Fraction(1, 4) - tiny
    result = DecompositionResult(
        coefficients=GroupMeasure(f2, atoms), residual_trace=[Fraction(1), tiny],
        rounds=1, achieved_tolerance=0.0, moment=big, log_moment=0.0, entropy=0.0)
    doc = result.to_json()
    assert len(doc["moment"]) == 5001 + 1 + 5001
    assert _num_from_str(dict(doc["coefficients"])["a"]) == big
    assert _num_from_str(doc["residual_trace"][1]) == tiny
    path = tmp_path / "decomposition.json"
    path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, verify={"mu": str(path)})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "stationarity.json").read_text())
    assert report["exact"] is False   # off by at most tiny, but not 0
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_moments_log_bound_in_weighted_length(tmp_path, arithmetic):
    # on weights [2, 2] a spike's radius exponent is twice its shell depth;
    # the case-3 log bound must measure both sides in weighted length
    cfg = write_config(tmp_path, group={"rank": 2, "weights": ["2", "2"]},
                       params={"alpha": "critical", "epsilon": "critical",
                               "arithmetic": arithmetic, "tau": 1e-6},
                       moments={"rounds": 2})
    out = tmp_path / "out"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "moments.json").read_text())
    assert doc["rounds"] == 2
    assert doc["envelope"]["checks"] == {"entropy": True, "envelope": True,
                                         "log_bound": True, "mass_bound": True}


def _verify(tmp_path, name, spec, *extra):
    cfg = tmp_path / f"{name}.config.json"
    cfg.write_text(Path(write_config(tmp_path, verify=spec)).read_text())
    out = tmp_path / name
    rc = main(["verify", "--config", str(cfg), "--out", str(out), *extra])
    report = out / "stationarity.json"
    return rc, json.loads(report.read_text()) if report.exists() else None


def test_verify_pushforward_nu(tmp_path):
    # (a nu)(E) = nu(aE), so a^-1 * (a nu) = nu and e * (a nu) = a nu != nu
    rc, rep = _verify(tmp_path, "back", {"mu": {"atoms": [["A", "1/1"]]},
                                         "nu": "pushforward:a"})
    assert rc == 0 and rep["exact"] is True
    rc, rep = _verify(tmp_path, "moved", {"mu": {"atoms": [["e", "1/1"]]},
                                          "nu": "pushforward:a"})
    assert rc == 1 and float(rep["max_cell_error"]) > 0.1


def test_verify_file_backed_nu(tmp_path, capsys):
    from freewalk import WeightedFreeGroup, default_params, uniform_ps_measure
    f2 = WeightedFreeGroup(2)
    doc = uniform_ps_measure(f2, default_params(f2)).materialize_depth(2).to_json()
    assert doc["rule"] == "conformal"
    conformal, stored = tmp_path / "conformal.json", tmp_path / "stored.json"
    conformal.write_text(json.dumps(doc))
    stored.write_text(json.dumps(dict(doc, rule="none")))
    # rule conformal: the closed form extends the file below depth 2
    rc, rep = _verify(tmp_path, "conformal", {"mu": "sphere:1",
                                              "nu": str(conformal)})
    assert rc == 0 and rep["exact"] is True and rep["max_cell_error"] == "0.0"
    # rule none: the stored cells only, which sphere:1 * nu reads below
    rc, rep = _verify(tmp_path, "below", {"mu": "sphere:1", "nu": str(stored)})
    assert rc == 2 and rep is None
    assert "requires an extension rule" in capsys.readouterr().err
    rc, rep = _verify(tmp_path, "stored", {"mu": {"atoms": [["e", "1/1"]]},
                                           "nu": str(stored), "depth": 2})
    assert rc == 0 and rep["depth"] == 2 and rep["exact"] is True


def test_verify_mix(tmp_path):
    # a convex mix of stationary measures is stationary
    rc, rep = _verify(tmp_path, "mix", {"mu": {"mix": [["sphere:1", "1/3"],
                                                       ["sphere:2", "2/3"]]}})
    assert rc == 0 and rep["exact"] is True and rep["max_cell_error"] == "0.0"
    assert rep["depth"] == 4 and float(rep["moment"]) == pytest.approx(5 / 3)


def test_decompose_inline_cells_target(tmp_path):
    # an inline {"cells": ...} target decomposes as the named one it spells
    named = write_config(tmp_path, decompose={"target": "derivative:ab"})
    target = cli.Run(cli.load_config(named)).target("derivative:ab").to_json()
    assert target["cells"][3] == ["Ba", "1/1"]
    (tmp_path / "named.json").write_text(Path(named).read_text())
    inline = write_config(tmp_path, decompose={"target": target})
    for cfg, out in ((tmp_path / "named.json", "named"), (inline, "inline")):
        assert main(["decompose", "--config", str(cfg),
                     "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "inline" / "decomposition.json").read_bytes() == \
        (tmp_path / "named" / "decomposition.json").read_bytes()


def test_report_to_stdout_without_out(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", cfg]) == 0
    assert capsys.readouterr().out == (out / "stationarity.json").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]


def test_verify_integer_atom_stays_exact(tmp_path):
    # "1" is the int 1, not the float 1.0, so verify stays exact
    for atom in ("1", "1/1"):
        rc, rep = _verify(tmp_path, f"atom{len(atom)}", {
            "mu": {"atoms": [["A", atom]]}, "nu": "pushforward:a"})
        assert rc == 0 and rep["exact"] is True and rep["max_cell_error"] == "0.0"


def test_verify_atom_below_float_range(tmp_path):
    # a = 10^-400 is 0.0 as a float: it adds 0 to the float entropy instead
    # of failing math.log, and mu * nu is within 10^-400 of b nu
    tiny = Fraction(1, 10 ** 400)
    mu = tmp_path / "tiny_mu.json"
    mu.write_text(json.dumps({"group": {"rank": 2, "weights": ["1", "1"]},
                              "atoms": [["a", _num_to_str(tiny)],
                                        ["b", _num_to_str(1 - tiny)]]}))
    rc, rep = _verify(tmp_path, "tiny", {"mu": str(mu), "nu_prime": "pushforward:b"})
    assert rc == 0
    assert rep["exact"] is False and rep["max_cell_error"] == "0.0"
    assert (rep["moment"], rep["entropy"]) == ("1.0", "0.0")


def test_integer_cell_stays_exact(tmp_path):
    # a cell "7" is read as the int 7: the target and the report stay exact
    cells = {"cells": [["a", "7"], ["A", "7"], ["b", "7"], ["B", "7"]]}
    run = cli.Run(cli.load_config(write_config(tmp_path)))
    assert [type(v) for v in run.target(cells).values.values()] == [int] * 4
    cfg = write_config(tmp_path, decompose={"target": cells})
    out = tmp_path / "out"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "decomposition.json").read_text())
    assert doc["coefficients"] == [["a", "7/4"], ["A", "7/4"],
                                   ["b", "7/4"], ["B", "7/4"]]
    assert doc["residual_trace"] == ["7/1", "0/1"]


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_inline_decimals_need_float_mode(tmp_path, capsys, arithmetic):
    # exact mode refuses a decimal in an inline cell or atom with exit 2;
    # float mode reads it as a float
    params = {"alpha": "critical", "epsilon": "critical",
              "arithmetic": arithmetic, "tau": 1e-6}
    want = 2 if arithmetic == "exact" else 0
    cfg = write_config(tmp_path, params=params, decompose={"target": {
        "cells": [["a", "0.5"], ["A", "0.5"], ["b", "0.5"], ["B", "0.5"]]}})
    assert main(["decompose", "--config", cfg,
                 "--out", str(tmp_path / "cells")]) == want
    cfg = write_config(tmp_path, params=params, verify={
        "mu": {"atoms": [["A", "0.5"]]}, "nu": "pushforward:a"})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "atoms")]) == want
    if arithmetic == "exact":
        assert capsys.readouterr().err.count("decimal") == 2


@pytest.mark.parametrize("command, section, key, doc", [
    ("audit", "audit", "inject", {"function": {}, "r_exp": "1", "center": "a"}),
    ("verify", "verify", "mu", {"group": {"rank": 2}}),
    ("verify", "verify", "nu", {"group": {"rank": 2, "weights": ["1", "1"]}}),
])
def test_malformed_user_file_exits_2(tmp_path, capsys, command, section, key, doc):
    # a user file missing a key is a usage error that names the file, not an
    # internal KeyError
    path = tmp_path / "user.json"
    path.write_text(json.dumps(doc))
    spec = {"audit": {"max_len": 1, "Ds": [0], "inject": str(path)},
            "verify": {"mu": "sphere:1", key: str(path)}}[section]
    cfg = write_config(tmp_path, **{section: spec})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "KeyError" in err


@pytest.mark.parametrize("command, flags", [
    ("decompose", ["--witnesses", "--depth", "3", "--threshold", "5"]),
    ("decompose", ["--depth", "3"]),
    ("moments", ["--threshold", "5"]),
    ("audit", ["--depth", "3"]),
    ("verify", ["--witnesses"]),
])
def test_flag_of_another_command_exits_2(tmp_path, command, flags):
    # --depth/--threshold belong to verify and --witnesses to audit
    cfg = write_config(tmp_path)
    assert main([command, "--config", cfg, *flags]) == 2


@pytest.mark.parametrize("doc, key", [
    (5, "config"),
    ({"group": 5}, "'group'"),
    ({"group": {"rank": 2}, "params": 5}, "'params'"),
    ({"group": {"rank": 2}, "audit": 5}, "'audit'"),
    ({"group": {"rank": 2}, "audit": {"Ds": 5}}, "'Ds'"),
])
def test_config_of_the_wrong_shape_exits_2(tmp_path, capsys, doc, key):
    # the top level and each section are objects and Ds is a list; anything
    # else is a usage error that names the key, not an internal TypeError
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["audit", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("command, section, value, key", [
    ("audit", "audit", {"max_len": 1, "Ds": [0], "inject": 5}, "'inject'"),
    ("audit", "group", {"rank": 2, "weights": 5}, "'group'"),
    ("audit", "group", {"rank": 2, "names": 5}, "'group'"),
    ("verify", "verify", {"mu": {"mix": 5}}, "'mix'"),
    ("verify", "verify", {"mu": {"mix": [5]}}, "'mix'"),
    ("verify", "verify", {"mu": {"atoms": 5}}, "'atoms'"),
    ("decompose", "decompose", {"target": {"cells": 5}}, "'cells'"),
    ("audit", "params", {"tau": [1]}, "'tau'"),
    ("audit", "params", {"arithmetic": "float", "alpha": [1]}, "scale [1]"),
    ("verify", "verify", {"mu": "sphere:1", "threshold": [1]}, "'threshold'"),
])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, command,
                                               section, value, key):
    # a value of the wrong type below the section level is a usage error that
    # names the key, not an internal TypeError
    cfg = write_config(tmp_path, **{section: value})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "TypeError" in err


def test_injected_spike_centered_above_its_cells_exits_2(tmp_path, capsys):
    # the center a lies above the cells aa, ab, aB: the spike has no value
    # there
    spike = {"function": {"cells": [["aa", "1"], ["ab", "2"], ["aB", "3"],
                                    ["A", "1"], ["b", "1"], ["B", "1"]]},
             "r_exp": "1", "center": "a"}
    inject = tmp_path / "spike.json"
    inject.write_text(json.dumps(spike))
    cfg = write_config(tmp_path, audit={"max_len": 1, "Ds": [0],
                                        "inject": str(inject)})
    assert main(["audit", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "center a" in err


@pytest.mark.parametrize("mode, code", [("exact", 2), ("float", 1)])
def test_injected_spike_with_a_decimal_cell(tmp_path, capsys, mode, code):
    # exact mode reads the cells as ints or p/q only, as it does inline ones
    spike = {"function": {"cells": [["a", "1/3"], ["A", 0.5], ["b", "1"],
                                    ["B", "1"]]},
             "r_exp": "0", "center": "a", "C": "1"}
    inject = tmp_path / "spike.json"
    inject.write_text(json.dumps(spike))
    cfg = write_config(tmp_path, params=INJECT_PARAMS[mode], audit={
        "max_len": 1, "Ds": [0], "inject": str(inject)})
    assert main(["audit", "--config", cfg]) == code
    assert ("injected spike cell 0.5 is a decimal" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("epsilon", ["critical", "1/2*log(3)"])
def test_audit_builds_f_gamma_once_per_gamma(tmp_path, monkeypatch, epsilon):
    # f_gamma does not depend on D: one radon_nikodym per gamma, and each
    # (gamma, D) spike is still verified twice (C measured, then checked)
    calls = {"radon_nikodym": 0, "verify_spike": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(spikes, "radon_nikodym")
    counted(spikes, "verify_spike")
    monkeypatch.setattr(cli, "verify_spike", spikes.verify_spike)
    cfg = write_config(tmp_path, params={"alpha": "critical", "epsilon": epsilon,
                                         "arithmetic": "exact"},
                       audit={"max_len": 2, "Ds": [0, 1, 2]})
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    gammas = 4 + 12
    assert calls == {"radon_nikodym": gammas, "verify_spike": 2 * 3 * gammas}
    assert json.loads((out / "audit.json").read_text())["spikes_checked"] == 3 * gammas


def test_audit_reads_each_f_gamma_from_one_cell_table(tmp_path, monkeypatch):
    # the first verification of f_gamma builds its cell table, and the other
    # three (two margins, each verified in with_margin and again in the
    # sweep) read it: one trie_stats and one over_shared_den per gamma
    calls = Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(LocallyConstantFunction, "trie_stats")
    counted(LocallyConstantFunction, "over_shared_den")
    counted(spikes, "verify_spike")
    monkeypatch.setattr(cli, "verify_spike", spikes.verify_spike)
    cfg = write_config(tmp_path, audit={"max_len": 2, "Ds": [0, 1]})
    assert main(["audit", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    gammas = 4 + 12
    assert calls == {"trie_stats": gammas, "over_shared_den": gammas,
                     "verify_spike": 2 * 2 * gammas}


def test_audit_measures_the_constants_once(tmp_path, monkeypatch):
    # beta, D0, D_nu, T_nu and worst_lower come from one measure_constants
    # call, which runs the shadow sweep once; T_nu is read off that sweep
    calls = {"measure_constants": 0, "shadow_lemma_audit": 0,
             "local_doubling_sup": 0}
    results = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = real(*args, **kwargs)
            results.append(result)
            return result
        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "measure_constants")
    counted(decomposition, "shadow_lemma_audit")
    counted(spikes, "local_doubling_sup")
    cfg = write_config(tmp_path, audit={"max_len": 2, "Ds": [0, 1, 2]})
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    assert calls == {"measure_constants": 1, "shadow_lemma_audit": 1,
                     "local_doubling_sup": 0}
    constants = results[-1]
    doc = json.loads((out / "audit.json").read_text())
    assert [doc[k] for k in ("beta", "D0", "D_nu", "T_nu")] == [
        _num_to_str(x) for x in (constants.beta, constants.d0, constants.d_nu,
                                 constants.t_nu)]
    assert doc["worst_lower"] == {**constants.worst_lower,
                                  "ratio": _num_to_str(constants.worst_lower["ratio"])}


def test_audit_at_half_epsilon_takes_floats_only_at_5r(tmp_path, monkeypatch):
    # at epsilon = 1/2 log 3 an odd weight difference is a non-integral
    # exponent, which leq_scaled decides in floats; a radius test at
    # multiplier 1 is W >= r, so only the 5r balls of the spikes and of T_nu
    # still reach that path
    mults = []
    real = LogScale.leq_scaled

    def recorded(self, p, t, mult=1):
        if (self.coeff * (Fraction(p) - Fraction(t))).denominator != 1:
            mults.append(mult)
        return real(self, p, t, mult)
    monkeypatch.setattr(LogScale, "leq_scaled", recorded)
    name = "f2_half_epsilon"
    out = tmp_path / "out"
    assert main(["audit", "--witnesses", "--config",
                 str(GOLDEN / f"{name}.config.json"), "--out", str(out)]) == 0
    assert mults and set(mults) == {5}
    assert (out / "audit.json").read_bytes() == \
        (GOLDEN / f"{name}.audit.json").read_bytes()


def test_audit_negative_margin_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, audit={"max_len": 1, "Ds": [0, -1]})
    assert main(["audit", "--config", cfg]) == 2
    assert "must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, value, name", [
    ("audit", "group", {"rank": "1/0"}, "config['group']['rank']"),
    ("decompose", "decompose", {"target": {"cells": [["a", "1/0"], ["A", "1"],
                                                     ["b", "1"], ["B", "1"]]}},
     "config['decompose']['target']"),
    ("moments", "params", {"D": "1/0"}, "config['params']['D']"),
    ("audit", "audit", {"Ds": ["1/0"]}, "config['audit']['Ds']"),
    ("verify", "verify", {"mu": {"mix": [["sphere:1", "1/0"]]}}, "config['verify']['mu']"),
    ("moments", "moments", {"rounds": "1/0"}, "config['moments']['rounds']"),
    ("verify", "verify", {"depth": "1/0"}, "config['verify']['depth']"),
    ("audit", "params", {"arithmetic": "float", "alpha": "inf"},
     "config['params']['alpha']"),
    ("verify", "verify", {"mu": ""}, "measure file ''"),
    ("decompose", "params", {"max_round": 3}, "params.max_round"),
    ("decompose", "params", {"rescal": "proof"}, "params.rescal"),
    ("audit", "audit", {"maxlen": 9}, "audit.maxlen"),
    ("audit", "extra", {}, "config section 'extra'"),
    ("decompose", "params", {"tau": "nan"}, "config['params']['tau']"),
    ("decompose", "params", {"s": None}, "config['params']['s']"),
    ("audit", "params", {"D": True}, "config['params']['D']"),
    ("moments", "moments", {"rounds": 0}, "config['moments']['rounds'] = 0"),
    ("moments", "moments", {"rounds": -2}, "config['moments']['rounds'] = -2"),
    ("decompose", "params", {"max_rounds": 0}, "config['params']['max_rounds'] = 0"),
    ("decompose", "params", {"max_rounds": -2}, "config['params']['max_rounds'] = -2"),
    ("decompose", "params", {"audit_len": 0}, "config['params']['audit_len'] = 0"),
    ("moments", "params", {"audit_len": 0}, "config['params']['audit_len'] = 0"),
    ("audit", "audit", {"max_len": 0}, "config['audit']['max_len'] = 0"),
    ("audit", "audit", {"Ds": []}, "config['audit']['Ds'] = []"),
    ("audit", "audit", {"Ds": [-1]}, "config['audit']['Ds'] = [-1]"),
    ("decompose", "params", {"s": 3}, "config['params']"),
    ("decompose", "params", {"beta": 1}, "config['params']"),
    ("decompose", "params", {"C": 1}, "config['params']"),
    ("decompose", "params", {"D": -1}, "config['params']"),
    ("decompose", "params", {"schedule": "grow"}, "config['params']"),
    ("decompose", "params", {"rescale": "x"}, "config['params']"),
    ("decompose", "params", {"alpha": "log(2)"}, "config['params']"),
])
def test_refused_config_names_its_key(tmp_path, capsys, command, section, value, name):
    # "1/0", a non-finite float, a path that is no file, a misspelled key, an
    # unknown section, a round count or word length below 1 (zero rounds
    # would write an empty mu with every check true), no or a negative shadow
    # margin, or a greedy parameter or alpha out of range: a usage error that
    # names the key (the section, for what the params build together), never
    # exit 3 or a silently ignored setting
    cfg = write_config(tmp_path, **{section: value})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, section, key, doc", [
    ("verify", "verify", "mu", {"group": {"rank": 2}, "atoms": [["a", "1/0"]]}),
    ("audit", "audit", "inject", {"function": {"cells": [["a", "1/0"]]},
                                  "r_exp": "1", "center": "a"}),
    ("audit", "audit", "inject", {"function": {"cells": [["a", "1"], ["A", "1"],
                                                         ["b", "1"], ["B", "1"]]},
                                  "r_exp": "1/0", "center": "a"}),
])
def test_user_file_with_a_zero_denominator_exits_2(tmp_path, capsys, command,
                                                   section, key, doc):
    path = tmp_path / "user.json"
    path.write_text(json.dumps(doc))
    spec = {"audit": {"max_len": 1, "Ds": [0], "inject": str(path)},
            "verify": {"mu": str(path)}}[section]
    cfg = write_config(tmp_path, **{section: spec})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "ZeroDivisionError" in err


def test_null_leaves_out_a_key_without_a_default(tmp_path):
    # "C", "depth", "inject" and the group's "weights" and "names" have no
    # default value, so null is the same as leaving them out; a null target
    # or boundary measure is the default one
    cfg = write_config(tmp_path, group={"rank": 2, "weights": None, "names": None},
                       params={"C": None}, decompose={"target": None},
                       verify={"mu": "sphere:1", "nu": None, "nu_prime": None,
                               "depth": None},
                       audit={"max_len": 1, "Ds": [0], "inject": None})
    run = cli.Run(cli.load_config(cfg))
    assert run.greedy.c_cap is None and run.cfg["verify"]["depth"] is None
    for command in ("audit", "verify", "decompose"):
        assert main([command, "--config", cfg]) == 0


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    assert [f"{s}.{k}" for s, k in cli.CONFIG_KEYS
            if f"`{s}.{k}`" not in section] == []


# One small golden-style config per command, and the values a mutation
# writes into it under every config key and some misspelled ones: values
# that suit the key, and small numbers, "1/0", "", "nan", spec strings,
# short lists, objects and null.
FUZZ_BASE = {"group": {"rank": 2, "weights": ["1", "1"], "names": ["a", "b"]},
             "params": {"arithmetic": "exact"}}
FUZZ_COMMANDS = {"audit": {"audit": {"max_len": 1, "Ds": [0, 1]}},
                 "decompose": {"params": {"arithmetic": "exact", "max_rounds": 1}},
                 "moments": {"moments": {"rounds": 1}},
                 "verify": {"verify": {"mu": "sphere:1"}}}
FUZZ_SUITED = {
    "rank": [2], "weights": [["1", "1"], [1.5, 1.5]], "names": [["x", "y"]],
    "arithmetic": ["exact", "float"], "alpha": ["critical", "log(3)", 1.1],
    "epsilon": ["critical", "1/2*log(3)", 0.7], "s": ["3/2", 2], "beta": ["1/3", 0.5],
    "C": [2, "3/2"], "D": [0, 1], "tau": [1e-3, 0], "schedule": ["fixed", "growing"],
    "rescale": ["adaptive", "proof"], "max_rounds": [1, 2], "audit_len": [1, 2],
    "target": ["ones", "derivative:a",
               {"cells": [["a", "2"], ["A", "1"], ["b", "1"], ["B", "1"]]}],
    "mu": ["sphere:1", {"atoms": [["A", "1"]]},
           {"mix": [["sphere:1", "1/2"], ["sphere:2", "1/2"]]}],
    "nu": ["uniform", "pushforward:a"], "nu_prime": ["uniform", "pushforward:a"],
    "depth": [1, 3], "threshold": [0, 1], "max_len": [1, 2], "Ds": [[0], [0, 2]],
    "inject": [None], "rounds": [1, 2]}
FUZZ_KEYS = sorted(cli.CONFIG_KEYS) + [("params", "max_round"), ("params", "rescal"),
                                       ("audit", "maxlen"), ("extra", "x")]
FUZZ_SCALARS = st.one_of(
    st.integers(-2, 3), st.floats(-2, 3), st.none(), st.booleans(),
    st.sampled_from([float("nan"), float("inf"), "1/0", "", "nan", "1/2", "a",
                     "critical", "float", "log(3)", "sphere:2", "derivative:a",
                     "pushforward:a"]))
FUZZ_VALUES = st.one_of(
    FUZZ_SCALARS, st.lists(FUZZ_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["cells", "atoms", "mix"]),
                    st.lists(st.lists(FUZZ_SCALARS, max_size=2), max_size=2),
                    max_size=1))
FUZZ_MUTATIONS = st.sampled_from(FUZZ_KEYS).flatmap(lambda path: st.tuples(
    st.just(path), st.one_of(st.sampled_from(FUZZ_SUITED.get(path[1], [None])),
                             FUZZ_VALUES)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(sorted(FUZZ_COMMANDS)),
       mutations=st.lists(FUZZ_MUTATIONS, min_size=1, max_size=2))
def test_mutated_config_never_exits_3(tmp_path_factory, command, mutations):
    # a valid config passes or fails its check, and any other is a usage
    # error: no config exits 3
    cfg = json.loads(json.dumps({**FUZZ_BASE, **FUZZ_COMMANDS[command]}))
    for (section, key), value in mutations:
        cfg.setdefault(section, {})[key] = value
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) in (0, 1, 2)
